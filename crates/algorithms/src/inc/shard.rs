//! Per-shard engine state: the partitioned probability/entropy caches, the
//! per-block polarity winners of the self-term selection, and the
//! deterministic merge primitives behind the IncEstimate core.
//!
//! The canonical group list is partitioned once per run by
//! [`ShardPlan`] (stable signature hash — see `corroborate_core::shard`).
//! Each shard owns a [`ShardSlab`]: the slice of the Corrob-probability and
//! entropy caches for its groups plus its own dirty list, so a cache
//! refresh is an embarrassingly parallel loop over slabs — no shared
//! mutable state, no locks, no `unsafe` — scheduled statically over scoped
//! threads ([`super::par`]).
//!
//! Selection state is kept per *block* of [`BLOCK_WIDTH`] consecutive
//! canonical groups instead: each block holds its best positive and best
//! negative group and its candidate count. A block is rescanned only when
//! one of its groups was refreshed, shrank (size is a tie-break key) or
//! drained, so a round's selection costs the blocks it changed plus one
//! fold over the block winners — not a scan of every group. The blocks are
//! kept only for a strategy that reads them (the self-term selection);
//! for any other, a read of the winners scans every block on the spot.
//!
//! ## Why results are bit-identical to the sequential engine
//!
//! - *Refresh*: each dirty group's probability/entropy is recomputed from
//!   the same `(signature, trust, prior)` inputs by the same kernel,
//!   written to a slot only its own shard touches. Recomputation order
//!   across groups is irrelevant — entries are independent.
//! - *Selection*: each block scans its groups in ascending canonical order
//!   and keeps the lexicographic best per polarity ([`lex_better`]: score,
//!   then signature length, then group size, with the earliest group
//!   winning full ties). The reduction ([`merge_pick`]) folds block winners
//!   in ascending block order and breaks full ties positionally on the
//!   canonical group index — exactly the winner one ascending scan of the
//!   whole group list would have kept. A block whose groups kept their
//!   cached probability, entropy and size would rescan to the same winners.

use corroborate_core::entropy::binary_entropy;
use corroborate_core::groups::FactGroup;
use corroborate_core::scoring::corrob_probability_or;
use corroborate_core::shard::ShardPlan;
use corroborate_core::trust::TrustSnapshot;

use super::par;

/// Shard count used when [`ShardConfig::shards`] is 0 (auto). A fixed
/// constant rather than a hardware probe: the effective shard count feeds
/// deterministic, golden-gated telemetry (shard tasks, imbalance), so it
/// must not vary across machines. 16 shards give the static scheduler
/// several slabs per worker at common thread counts. Whether the partition
/// pays on a given host is what the `shard_scaling` bench measures.
pub const DEFAULT_SHARDS: usize = 16;

/// Below this many total dirty groups a refresh runs on the calling
/// thread: recomputing a group costs a few hundred nanoseconds, so a
/// small dirty set cannot amortise even one thread spawn.
const MIN_PARALLEL_REFRESH_GROUPS: usize = 256;

/// Canonical groups per selection block. Chosen by measurement on the
/// benchmark's three worlds (see `docs/PERFORMANCE.md`): narrower blocks
/// rescan fewer groups on worlds where a round touches few of them but
/// lengthen the per-round fold, wider ones the reverse.
const BLOCK_WIDTH: usize = 64;

/// Shard/thread configuration of the engine core. The default (`0`/`0`,
/// i.e. auto) is the *parallel* configuration: sharded state over
/// [`DEFAULT_SHARDS`] shards, worker count from the OS. Results are
/// bit-identical for every setting; only wall-clock changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardConfig {
    /// Number of shards (0 = auto → [`DEFAULT_SHARDS`]). The effective
    /// count is additionally clamped to the dataset's group count.
    pub shards: usize,
    /// Worker threads for cache-refresh and ΔH-scoring fan-out (0 = auto →
    /// OS parallelism; 1 = fully sequential).
    pub threads: usize,
}

impl ShardConfig {
    /// Explicitly sequential: one shard, one thread.
    pub fn sequential() -> Self {
        Self { shards: 1, threads: 1 }
    }

    /// The shard count with auto resolved (before group-count clamping).
    pub fn resolved_shards(&self) -> usize {
        if self.shards == 0 {
            DEFAULT_SHARDS
        } else {
            self.shards
        }
    }

    /// The worker count with auto resolved against the OS.
    pub fn resolved_threads(&self) -> usize {
        par::resolve_threads(self.threads)
    }
}

/// One shard's slice of the engine caches, indexed by slot (position in
/// the shard's member list).
#[derive(Debug, Default)]
struct ShardSlab {
    /// Cached Corrob probability per owned group.
    probs: Vec<f64>,
    /// Cached `binary_entropy(probs[slot])`.
    entropies: Vec<f64>,
    /// Scratch dirty flags (all false between refreshes).
    dirty_flags: Vec<bool>,
    /// Slots awaiting recomputation.
    dirty: Vec<u32>,
}

impl ShardSlab {
    /// Recomputes every dirty slot from `(signature, trust, prior)` and
    /// clears the dirty list. Runs on whatever worker owns the slab.
    fn refresh(
        &mut self,
        members: &[usize],
        groups: &[FactGroup],
        trust: &TrustSnapshot,
        prior: f64,
    ) {
        for k in 0..self.dirty.len() {
            let slot = self.dirty[k] as usize;
            self.dirty_flags[slot] = false;
            let gi = members[slot];
            let p = corrob_probability_or(&groups[gi].signature, trust, prior);
            self.probs[slot] = p;
            self.entropies[slot] = binary_entropy(p);
        }
        self.dirty.clear();
    }
}

/// What one refresh did, for telemetry.
pub(super) struct RefreshStats {
    /// Group entries recomputed (total dirty across shards).
    pub groups_recomputed: usize,
    /// Shards that had at least one dirty group.
    pub shard_tasks: usize,
}

/// One block's polarity winners.
#[derive(Debug, Default, Clone, Copy)]
struct BlockScan {
    /// Best positive-part group of the block (`p > 0.5`), if any.
    pos: Option<GroupPick>,
    /// Best negative-part group of the block (`p < 0.5`), if any.
    neg: Option<GroupPick>,
    /// Live groups the block classified into either part.
    candidates: u64,
}

/// A candidate group with everything the merge tie-breaks on.
#[derive(Debug, Clone, Copy)]
pub(super) struct GroupPick {
    /// Canonical group index — the positional tie-break of the reduction.
    pub gi: usize,
    /// Exact ΔH score.
    pub score: f64,
    /// `|sig(FG)|` (first tie-break).
    pub sig_len: usize,
    /// `|FG|` (second tie-break).
    pub size: usize,
}

/// The strict "better than" order of the ΔH argmax: score, then signature
/// length, then group size — shared by the spillover-mode argmax, the
/// block scan, and the block merge so the tie-break rule has exactly one
/// definition.
#[inline]
pub(super) fn lex_better(c: &GroupPick, b: &GroupPick) -> bool {
    c.score > b.score
        || (c.score == b.score
            && (c.sig_len > b.sig_len || (c.sig_len == b.sig_len && c.size > b.size)))
}

/// Folds one block's winner into the running best. The positional
/// tie-break (lower canonical group index on a full tuple tie) reproduces
/// the sequential ascending-index scan: the winner is the earliest
/// canonical group among the lexicographic maxima, whatever block it
/// lives in.
#[inline]
fn merge_pick(best: &mut Option<GroupPick>, cand: Option<GroupPick>) {
    let Some(c) = cand else { return };
    match best {
        None => *best = Some(c),
        Some(b) => {
            let full_tie = c.score == b.score && c.sig_len == b.sig_len && c.size == b.size;
            if lex_better(&c, b) || (full_tie && c.gi < b.gi) {
                *best = Some(c);
            }
        }
    }
}

/// The partitioned probability/entropy caches of an IncEstimate run, with
/// the per-block selection winners they feed.
#[derive(Debug)]
pub(super) struct ShardCaches {
    plan: ShardPlan,
    slabs: Vec<ShardSlab>,
    /// Polarity winners per block of [`BLOCK_WIDTH`] canonical groups;
    /// empty when the blocks are not kept.
    blocks: Vec<BlockScan>,
    /// Blocks awaiting a rescan, and their membership flags (one per
    /// kept block).
    stale_blocks: Vec<u32>,
    stale_flags: Vec<bool>,
}

impl ShardCaches {
    /// Builds the plan, seeds every slab from the initial trust, and, when
    /// `keep_blocks`, scans every block and keeps the winners current from
    /// then on.
    pub fn build(
        groups: &[FactGroup],
        trust: &TrustSnapshot,
        prior: f64,
        n_shards: usize,
        keep_blocks: bool,
    ) -> Self {
        let plan = ShardPlan::build(groups, n_shards);
        let slabs = (0..plan.n_shards())
            .map(|s| {
                let members = plan.members(s);
                let probs: Vec<f64> = members
                    .iter()
                    .map(|&gi| corrob_probability_or(&groups[gi].signature, trust, prior))
                    .collect();
                let entropies = probs.iter().map(|&p| binary_entropy(p)).collect();
                ShardSlab {
                    probs,
                    entropies,
                    dirty_flags: vec![false; members.len()],
                    dirty: Vec::new(),
                }
            })
            .collect();
        let n_blocks = if keep_blocks { groups.len().div_ceil(BLOCK_WIDTH) } else { 0 };
        let mut caches = Self {
            plan,
            slabs,
            blocks: vec![BlockScan::default(); n_blocks],
            stale_blocks: (0..n_blocks as u32).collect(),
            stale_flags: vec![true; n_blocks],
        };
        caches.rescan_blocks(groups);
        caches
    }

    /// The shard partition.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Effective shard count.
    pub fn n_shards(&self) -> usize {
        self.slabs.len()
    }

    /// Cached Corrob probability of group `gi`.
    #[inline]
    pub fn probability(&self, gi: usize) -> f64 {
        let l = self.plan.loc(gi);
        self.slabs[l.shard as usize].probs[l.slot as usize]
    }

    /// Cached binary entropy of group `gi`.
    #[inline]
    pub fn entropy(&self, gi: usize) -> f64 {
        let l = self.plan.loc(gi);
        self.slabs[l.shard as usize].entropies[l.slot as usize]
    }

    /// Marks group `gi` for recomputation on its owning shard (and its
    /// block for a rescan).
    #[inline]
    pub fn mark_dirty(&mut self, gi: usize) {
        let l = self.plan.loc(gi);
        let slab = &mut self.slabs[l.shard as usize];
        let slot = l.slot as usize;
        if !slab.dirty_flags[slot] {
            slab.dirty_flags[slot] = true;
            slab.dirty.push(l.slot);
            self.mark_shrunk(gi);
        }
    }

    /// Marks the block of group `gi` for a rescan: the group lost facts,
    /// which moves its size tie-break or takes it out of both parts. A
    /// no-op when the blocks are not kept (there are no flags).
    #[inline]
    pub fn mark_shrunk(&mut self, gi: usize) {
        let block = gi / BLOCK_WIDTH;
        if let Some(stale) = self.stale_flags.get_mut(block) {
            if !*stale {
                *stale = true;
                self.stale_blocks.push(block as u32);
            }
        }
    }

    /// Recomputes every dirty group, fanning shards out over up to
    /// `threads` workers (static contiguous assignment), then rescans the
    /// stale blocks. Returns refresh telemetry; thread count never changes
    /// a single cache bit.
    pub fn refresh(
        &mut self,
        groups: &[FactGroup],
        trust: &TrustSnapshot,
        prior: f64,
        threads: usize,
    ) -> RefreshStats {
        let groups_recomputed: usize = self.slabs.iter().map(|s| s.dirty.len()).sum();
        let shard_tasks = self.slabs.iter().filter(|s| !s.dirty.is_empty()).count();
        if groups_recomputed > 0 {
            let threads = if groups_recomputed < MIN_PARALLEL_REFRESH_GROUPS { 1 } else { threads };
            let plan = &self.plan;
            for_each_slab(&mut self.slabs, threads, |shard, slab| {
                if !slab.dirty.is_empty() {
                    slab.refresh(plan.members(shard), groups, trust, prior);
                }
            });
        }
        self.rescan_blocks(groups);
        RefreshStats { groups_recomputed, shard_tasks }
    }

    /// Rescans every stale block from the caches and clears the stale list.
    fn rescan_blocks(&mut self, groups: &[FactGroup]) {
        let stale = std::mem::take(&mut self.stale_blocks);
        for &block in &stale {
            let block = block as usize;
            self.blocks[block] = self.scan_block(block, groups);
            self.stale_flags[block] = false;
        }
        self.stale_blocks = stale;
        self.stale_blocks.clear();
    }

    /// Sequential scan of one block, ascending canonical order.
    fn scan_block(&self, block: usize, groups: &[FactGroup]) -> BlockScan {
        let start = block * BLOCK_WIDTH;
        let end = (start + BLOCK_WIDTH).min(groups.len());
        let mut scan = BlockScan::default();
        for (gi, g) in groups.iter().enumerate().take(end).skip(start) {
            if g.facts.is_empty() {
                continue;
            }
            let p = self.probability(gi);
            // §5.1 strict partition: boundary groups (and NaN) join
            // neither part.
            let positive = match p.partial_cmp(&0.5) {
                Some(core::cmp::Ordering::Greater) => true,
                Some(core::cmp::Ordering::Less) => false,
                _ => continue,
            };
            scan.candidates += 1;
            let cand = GroupPick {
                gi,
                score: -self.entropy(gi),
                sig_len: g.signature.len(),
                size: g.facts.len(),
            };
            let target = if positive { &mut scan.pos } else { &mut scan.neg };
            // Strict comparison keeps the earliest (lowest-index) group on
            // ties, matching the sequential ascending scan.
            if target.is_none_or(|b| lex_better(&cand, &b)) {
                *target = Some(cand);
            }
        }
        scan
    }

    /// Number of selection blocks, kept or not.
    pub fn n_blocks(&self) -> usize {
        self.plan.n_groups().div_ceil(BLOCK_WIDTH)
    }

    /// The self-term argmax inputs: the best positive and best negative
    /// group over every live group, and the number of groups classified
    /// into either part — the block winners folded in ascending block
    /// order. Blocks that are not kept are scanned here.
    pub fn polarity_winners(
        &self,
        groups: &[FactGroup],
    ) -> (Option<GroupPick>, Option<GroupPick>, u64) {
        let mut pos = None;
        let mut neg = None;
        let mut candidates = 0u64;
        let mut fold = |block: BlockScan| {
            merge_pick(&mut pos, block.pos);
            merge_pick(&mut neg, block.neg);
            candidates += block.candidates;
        };
        if self.blocks.is_empty() {
            (0..self.n_blocks()).for_each(|block| fold(self.scan_block(block, groups)));
        } else {
            self.blocks.iter().copied().for_each(fold);
        }
        (pos, neg, candidates)
    }
}

/// Runs `f(shard, slab)` for every slab, statically splitting the slab
/// list into balanced contiguous runs over at most `threads` scoped
/// workers. Each slab is visited by exactly one worker, so `f` gets
/// exclusive `&mut` access with no `unsafe` and no locks.
fn for_each_slab<F>(slabs: &mut [ShardSlab], threads: usize, f: F)
where
    F: Fn(usize, &mut ShardSlab) + Sync,
{
    let n = slabs.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        for (s, slab) in slabs.iter_mut().enumerate() {
            f(s, slab);
        }
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = slabs;
        let mut start = 0usize;
        for count in par::chunk_counts(n, threads) {
            let (head, tail) = rest.split_at_mut(count);
            scope.spawn(move || {
                for (k, slab) in head.iter_mut().enumerate() {
                    f(start + k, slab);
                }
            });
            rest = tail;
            start += count;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pick(gi: usize, score: f64, sig_len: usize, size: usize) -> GroupPick {
        GroupPick { gi, score, sig_len, size }
    }

    #[test]
    fn merge_prefers_lex_then_lowest_group_index() {
        let mut best = None;
        merge_pick(&mut best, None);
        assert!(best.is_none());
        merge_pick(&mut best, Some(pick(9, -0.5, 2, 3)));
        assert_eq!(best.unwrap().gi, 9);
        // Higher score wins.
        merge_pick(&mut best, Some(pick(20, -0.4, 1, 1)));
        assert_eq!(best.unwrap().gi, 20);
        // Equal score: longer signature wins.
        merge_pick(&mut best, Some(pick(30, -0.4, 2, 1)));
        assert_eq!(best.unwrap().gi, 30);
        // Equal score+sig: bigger group wins.
        merge_pick(&mut best, Some(pick(40, -0.4, 2, 5)));
        assert_eq!(best.unwrap().gi, 40);
        // Full tuple tie: LOWER canonical index wins, fold order loses.
        merge_pick(&mut best, Some(pick(4, -0.4, 2, 5)));
        assert_eq!(best.unwrap().gi, 4);
        merge_pick(&mut best, Some(pick(7, -0.4, 2, 5)));
        assert_eq!(best.unwrap().gi, 4);
        // Strictly worse never replaces.
        merge_pick(&mut best, Some(pick(1, -0.41, 9, 9)));
        assert_eq!(best.unwrap().gi, 4);
    }

    #[test]
    fn sequential_config_resolves_to_one_everything() {
        let c = ShardConfig::sequential();
        assert_eq!(c.resolved_shards(), 1);
        assert_eq!(c.resolved_threads(), 1);
        let auto = ShardConfig::default();
        assert_eq!(auto.resolved_shards(), DEFAULT_SHARDS);
        assert!(auto.resolved_threads() >= 1);
        assert_eq!(ShardConfig { shards: 7, threads: 3 }.resolved_shards(), 7);
        assert_eq!(ShardConfig { shards: 7, threads: 3 }.resolved_threads(), 3);
    }
}
