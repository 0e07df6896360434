//! The engine's per-group caches: the Corrob probability and entropy of
//! every canonical group, the dirty list that refreshes them, and the
//! per-block polarity winners of the self-term selection.
//!
//! The caches are flat vectors indexed by canonical group. A refresh
//! recomputes the dirty groups on the calling thread: IncEstimate rounds
//! are sequential (each selects from the trust snapshot the previous round
//! produced), and a round's refresh is a few hundred microseconds at most.
//!
//! Selection state is kept per *block* of [`BLOCK_WIDTH`] consecutive
//! canonical groups: each block holds its best positive and best negative
//! group and its candidate count. A block is rescanned only when one of
//! its groups was refreshed, shrank (size is a tie-break key) or drained,
//! so a round's selection costs the blocks it changed plus one fold over
//! the block winners — not a scan of every group. The blocks are kept only
//! for a strategy that reads them (the self-term selection); for any
//! other, a read of the winners scans every block on the spot.
//!
//! ## Why the folded winners equal one scan of every group
//!
//! Each block scans its groups in ascending canonical order and keeps the
//! lexicographic best per polarity ([`lex_better`]: score, then signature
//! length, then group size, with the earliest group winning full ties).
//! The reduction ([`merge_pick`]) folds block winners in ascending block
//! order and breaks full ties positionally on the canonical group index —
//! exactly the winner one ascending scan of the whole group list would
//! have kept. A block whose groups kept their cached probability, entropy
//! and size would rescan to the same winners.

use corroborate_core::entropy::binary_entropy;
use corroborate_core::groups::FactGroup;
use corroborate_core::scoring::corrob_probability_or;
use corroborate_core::trust::TrustSnapshot;

/// Canonical groups per selection block. Chosen by measurement on the
/// benchmark's three worlds (see `docs/PERFORMANCE.md`): narrower blocks
/// rescan fewer groups on worlds where a round touches few of them but
/// lengthen the per-round fold, wider ones the reverse.
const BLOCK_WIDTH: usize = 64;

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

/// The probability/entropy caches of an IncEstimate run, with the
/// per-block selection winners they feed.
#[derive(Debug)]
pub(super) struct GroupCaches {
    /// Cached Corrob probability per canonical group.
    probs: Vec<f64>,
    /// Cached `binary_entropy(probs[gi])`.
    entropies: Vec<f64>,
    /// Scratch dirty flags (all false between refreshes).
    dirty_flags: Vec<bool>,
    /// Groups awaiting recomputation.
    dirty: Vec<u32>,
    /// Polarity winners per block of [`BLOCK_WIDTH`] canonical groups;
    /// empty when the blocks are not kept.
    blocks: Vec<BlockScan>,
    /// Blocks awaiting a rescan, and their membership flags (one per
    /// kept block).
    stale_blocks: Vec<u32>,
    stale_flags: Vec<bool>,
}

impl GroupCaches {
    /// Seeds every group's cache entry from the initial trust and, when
    /// `keep_blocks`, scans every block and keeps the winners current from
    /// then on.
    pub fn build(
        groups: &[FactGroup],
        trust: &TrustSnapshot,
        prior: f64,
        keep_blocks: bool,
    ) -> Self {
        let probs: Vec<f64> =
            groups.iter().map(|g| corrob_probability_or(&g.signature, trust, prior)).collect();
        let entropies = probs.iter().map(|&p| binary_entropy(p)).collect();
        let n_blocks = if keep_blocks { groups.len().div_ceil(BLOCK_WIDTH) } else { 0 };
        let mut caches = Self {
            probs,
            entropies,
            dirty_flags: vec![false; groups.len()],
            dirty: Vec::new(),
            blocks: vec![BlockScan::default(); n_blocks],
            stale_blocks: (0..n_blocks as u32).collect(),
            stale_flags: vec![true; n_blocks],
        };
        caches.rescan_blocks(groups);
        caches
    }

    /// Cached Corrob probability of group `gi`.
    #[inline]
    pub fn probability(&self, gi: usize) -> f64 {
        self.probs[gi]
    }

    /// Cached binary entropy of group `gi`.
    #[inline]
    pub fn entropy(&self, gi: usize) -> f64 {
        self.entropies[gi]
    }

    /// Marks group `gi` for recomputation (and its block for a rescan).
    #[inline]
    pub fn mark_dirty(&mut self, gi: usize) {
        if !self.dirty_flags[gi] {
            self.dirty_flags[gi] = true;
            self.dirty.push(gi as u32);
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

    /// Recomputes every dirty group from `(signature, trust, prior)`,
    /// clears the dirty list, then rescans the stale blocks. Returns the
    /// number of groups recomputed.
    pub fn refresh(&mut self, groups: &[FactGroup], trust: &TrustSnapshot, prior: f64) -> usize {
        let recomputed = self.dirty.len();
        for &gi in &self.dirty {
            let gi = gi as usize;
            self.dirty_flags[gi] = false;
            let p = corrob_probability_or(&groups[gi].signature, trust, prior);
            self.probs[gi] = p;
            self.entropies[gi] = binary_entropy(p);
        }
        self.dirty.clear();
        self.rescan_blocks(groups);
        recomputed
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
            let p = self.probs[gi];
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
                score: -self.entropies[gi],
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
        self.probs.len().div_ceil(BLOCK_WIDTH)
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
}
