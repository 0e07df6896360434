//! **IncEstHeu** — the paper's entropy-driven selection strategy
//! (Algorithm 2).
//!
//! At each time point the unevaluated facts are grouped by vote signature
//! and split into a *positive part* `P` (Corrob probability strictly above
//! 0.5 under the current trust — these would evaluate true) and a
//! *negative part* `N` (strictly below; §5.1 defines both parts strictly,
//! so groups sitting exactly on the boundary wait for later rounds). The
//! best group of each part is selected and `n = min(size(FG+), size(FG−))`
//! facts are evaluated from both, keeping the update balanced so neither
//! polarity dominates the trust scores.
//!
//! ## Ranking the groups — the ΔH score
//!
//! §5.1 frames selection as *maximising the collective entropy `H(F̄)` of
//! the unknown facts* after the round. Writing `F̄' = F̄ − FG` for the
//! facts remaining after evaluating group `FG`, the objective decomposes
//! as
//!
//! ```text
//! H_{i+1}(F̄') = H_i(F̄) − H_i(FG)                 (the self term)
//!             + Σ_{FG' ∈ F̄'} [H_{i+1}(FG') − H_i(FG')]   (the spillover)
//! ```
//!
//! The paper's Equation 9 writes only the spillover sum. This
//! implementation supports both terms via [`DeltaHMode`]:
//!
//! - [`DeltaHMode::SelfTerm`] (default) ranks by `−H_i(FG)` per fact —
//!   i.e. evaluates the *most confident* group of each part first,
//!   preserving the entropy of the still-uncertain facts. **This is the
//!   variant that reproduces the paper's experimental results**: on the
//!   §6.3.1 synthetic worlds it reaches the reported ~0.9+ accuracy, and
//!   its running time matches the paper's Table 6 (≈1 s on the
//!   36,916-listing dataset). Its selection folds the per-block polarity
//!   winners the engine state keeps current, rescanning only the blocks a
//!   round changed, so it does not grow with the groups a round leaves
//!   untouched.
//! - [`DeltaHMode::Equation9`] is the literal spillover-only Equation 9.
//!   On the synthetic workloads it exhibits a *discrediting cascade*: it
//!   prefers borderline groups (their evaluation keeps spillover entropy
//!   high), mislabels them while source trust is still noisy, drags the
//!   voting sources below 0.5 and collapses (accuracy well below the
//!   baselines). It is kept for the ablation benches. Its spillover sum
//!   used to make it two orders of magnitude slower than the default
//!   mode; the source→group inverted index restricts each candidate's sum
//!   to index-adjacent groups, and the bound-pruned scorer below skips
//!   candidates that provably cannot win. On the 4k-fact synthetic world
//!   (404 groups, ~68k candidate scorings over 242 rounds) this ran the
//!   full Equation 9 mode in ~0.05 s versus ~1.0 s for the pre-index
//!   full-scan scorer — a ~20× speedup with bit-identical selections (see
//!   `docs/PERFORMANCE.md`; the last recorded run is
//!   `git show 81c7df2:BENCH_incheu.json`).
//! - [`DeltaHMode::Full`] sums both terms (the literal collective-entropy
//!   objective); it inherits Equation 9's cascade on adversarial
//!   geometries.
//!
//! Special case (also §5.1): when one part is empty — all remaining facts
//! would evaluate to the same polarity — the strategy evaluates everything
//! that remains in one final round, exactly like the walkthrough's third
//! round.

use corroborate_core::entropy::binary_entropy;
use corroborate_core::groups::FactGroup;
use corroborate_core::ids::{FactId, SourceId};
use corroborate_core::vote::Vote;
use corroborate_obs::{Observer, SelectionRecord, Span, TierTally};

use super::cache::{lex_better, GroupPick};
use super::{IncState, SelectionStrategy, OBS_EMIT};

/// Which terms of the collective-entropy objective rank the fact groups.
/// See the module-level documentation for the full derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaHMode {
    /// Rank by the per-fact self term `−H(p)`: most confident group first.
    /// Default — reproduces the paper's results and running times.
    #[default]
    SelfTerm,
    /// Rank by the literal Equation 9 spillover sum.
    Equation9,
    /// Rank by self term + spillover (the full objective).
    Full,
}

/// The entropy-heuristic selection strategy. See the module-level documentation.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncEstHeu {
    mode: DeltaHMode,
}

impl IncEstHeu {
    /// Strategy with an explicit ΔH mode.
    pub fn with_mode(mode: DeltaHMode) -> Self {
        Self { mode }
    }

    /// The active ΔH mode.
    pub fn mode(&self) -> DeltaHMode {
        self.mode
    }
}

/// Per-candidate scatter of signed trust shifts over the inverted index:
/// one accumulator slot per group plus a touched bitmap. Built by
/// [`walk_shifts`] in one O(Σ deg(affected)) pass and then replayed in
/// ascending group order as many times as the caller needs — the bound
/// pass and the exact pass share a single walk of the posting lists.
struct ShiftWalk {
    /// `Σ_{s ∈ sig(c) ∩ sig(g)} ±Δσ(s)` per group; valid where `touched`.
    acc: Vec<f64>,
    /// Bitmap over group indices marking groups reached by the scatter.
    touched: Vec<u64>,
}

std::thread_local! {
    /// Reused per-thread scatter buffers: scoring runs tens of thousands of
    /// candidate walks per round, and a fresh allocation + memset per walk
    /// costs more than the scatter itself.
    static WALK_SCRATCH: std::cell::RefCell<ShiftWalk> =
        const { std::cell::RefCell::new(ShiftWalk { acc: Vec::new(), touched: Vec::new() }) };
}

/// Scatters the candidate's projected trust shifts `Δσ(s)` into the
/// [`ShiftWalk`]: for every signature source, its signed shift is added to
/// the accumulator of every live group it votes on (postings are compacted
/// to live groups after each round). Per group, sources contribute in
/// signature order — the same order every previous formulation used, so
/// downstream sums are bit-identical.
fn walk_shifts<O: Observer>(state: &IncState<'_, O>, candidate_gi: usize, walk: &mut ShiftWalk) {
    let groups = state.groups();
    let candidate = &groups[candidate_gi];
    let outcome = state.group_probability(candidate_gi) >= 0.5;
    let size = candidate.facts.len() as u32;
    let index = state.source_index();
    walk.reset(groups.len());
    for sv in &candidate.signature {
        let agrees = sv.vote.is_affirmative() == outcome;
        let extra_matches = if agrees { size } else { 0 };
        let shift =
            state.projected_trust(sv.source, extra_matches, size) - state.trust().trust(sv.source);
        for posting in index.groups_of(sv.source) {
            walk.acc[posting.group] += match posting.vote {
                Vote::True => shift,
                Vote::False => -shift,
            };
            walk.touched[posting.group >> 6] |= 1u64 << (posting.group & 63);
        }
    }
}

impl ShiftWalk {
    /// Prepares the buffers for a universe of `n_groups` groups: grows them
    /// if needed and zeroes exactly the slots the previous walk dirtied.
    fn reset(&mut self, n_groups: usize) {
        if self.acc.len() < n_groups {
            self.acc.resize(n_groups, 0.0);
            self.touched.resize(n_groups.div_ceil(64), 0);
        }
        for word in 0..self.touched.len() {
            let mut bits = self.touched[word];
            while bits != 0 {
                self.acc[(word << 6) + bits.trailing_zeros() as usize] = 0.0;
                bits &= bits - 1;
            }
            self.touched[word] = 0;
        }
    }
    /// Calls `f(group, acc)` once per touched group, ascending by group
    /// index (bitmap scan order).
    #[inline]
    fn for_each(&self, mut f: impl FnMut(usize, f64)) {
        for (word, &bits) in self.touched.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let gi = (word << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(gi, self.acc[gi]);
            }
        }
    }
}

/// Computes the spillover sum of Equation 9 for the candidate group
/// `candidate_gi` (a stable index into [`IncState::groups`]).
///
/// The evaluation of the candidate moves the trust of exactly the sources
/// in its signature, and the Corrob score is a *mean* of per-source
/// contributions, so for every other group the new probability is reachable
/// without touching its signature at all:
///
/// ```text
/// p_new(g) = p_old(g) + (Σ_{s ∈ sig(c) ∩ sig(g)} ±Δσ(s)) / |sig(g)|
/// ```
///
/// where `Δσ(s)` is the source's projected trust shift and the sign follows
/// `g`'s vote polarity for `s`. The inner sums come from one
/// [`walk_shifts`] scatter over the affected sources' posting lists —
/// O(Σ deg(s)) — and the entropy delta then costs one `binary_entropy` per
/// touched group, with the old entropy read from the
/// [`IncState::group_entropy`] cache. Compared to the full-scan scorer this
/// replaced (all G groups × an O(|sig_a|·|sig_b|) overlap check × an
/// O(|sig_b|) overlay recompute × two entropy calls), the per-candidate
/// cost drops from O(G·|sig|²) to O(Σ deg(affected) + |touched|).
///
/// Groups sharing no source keep `p_new == p_old` exactly and contribute a
/// hard zero, exactly as in the full-scan version; accumulated deltas agree
/// with the recomputed overlay mean to within ulps (the equivalence suite
/// in `naive_ref` pins this at 1e-12 together with identical selections).
pub(super) fn spillover<O: Observer>(state: &IncState<'_, O>, candidate_gi: usize) -> f64 {
    let groups = state.groups();
    WALK_SCRATCH.with_borrow_mut(|walk| {
        walk_shifts(state, candidate_gi, walk);
        let mut dh = 0.0;
        walk.for_each(|gi, acc| {
            if gi == candidate_gi {
                return;
            }
            let group = &groups[gi];
            if group.facts.is_empty() {
                return;
            }
            let p_new = state.group_probability(gi) + acc / group.signature.len() as f64;
            dh += group.facts.len() as f64 * (binary_entropy(p_new) - state.group_entropy(gi));
        });
        dh
    })
}

/// Minimum of `|H''|` on `[0, 1]` — attained at p = ½: `4/ln 2`.
const GLOBAL_CMIN: f64 = 4.0 / std::f64::consts::LN_2;

/// Everything the per-touched-group hot loops need, packed into one cache
/// line per group (the walk passes are load-bound; scattering these over
/// five parallel arrays costs five cache misses per touched group).
/// Values are copied bit-exactly from the state caches, so sums over them
/// match sums over the originals bit for bit.
#[derive(Clone, Copy, Default)]
struct GroupBound {
    /// `H'(p_g) = log2((1−p)/p)` (±∞ at the boundaries).
    slope: f64,
    /// `1/|sig_g|` (0 for dead/voteless groups).
    inv_len: f64,
    /// `|H''(p_g)|` — the minimum curvature over any probability move
    /// *away* from ½.
    c_away: f64,
    /// Cached Corrob probability [`IncState::group_probability`].
    p: f64,
    /// Cached entropy [`IncState::group_entropy`].
    h: f64,
    /// `|FG|` as f64 (0 for dead groups).
    size: f64,
    /// `|sig_g|` as f64 — the exact pass divides by this, matching
    /// [`spillover`]'s `acc / len` bit for bit.
    len: f64,
}

/// Per-round tables for bound-pruned spillover scoring, built once per
/// `select` and shared by both parts.
struct BoundTables {
    /// Packed per-group hot-loop data.
    gb: Vec<GroupBound>,
    /// Per source: Σ over its live finite-slope postings of
    /// `±size·slope/len` — the reordered linear part of the tangent bound.
    v: Vec<f64>,
    /// Flattened `n_sources × n_sources` matrix: `M[s][s'] = Σ_g
    /// (C_MIN/2)·size_g·(±1)(±1)/len_g²` over live finite-slope groups
    /// voted on by both sources (signs follow the group's polarity for each
    /// source). Expanding `x_cg²` over source pairs turns the summed
    /// curvature term `Σ_g (C_MIN/2)·size_g·x_cg²` into the quadratic form
    /// `Σ_{s,s'∈sig(c)} δ_s·δ_s'·M[s][s']` — second-order accuracy for the
    /// O(|sig|²) prescreen with no posting walk.
    m: Vec<f64>,
    /// Number of sources (row stride of `m`).
    n_sources: usize,
    /// Per size bucket, per source: Σ over the source's live finite-slope
    /// postings of the group's clamp-slack *rate* — multiplied by the
    /// candidate's actual `|δ_s|` at prescreen time (the deficit bound is
    /// linear in each shift), valid for candidates whose group size is
    /// within the bucket.
    sl_rate: Vec<Vec<f64>>,
    /// Per size bucket, per source: Σ of `size_g` over the source's live
    /// *infinite-slope* postings (`p` exactly 0 or 1). Entropy's derivative
    /// is unbounded at the boundary, so no per-shift linear bound exists;
    /// these groups are charged in full.
    sl_cst: Vec<Vec<f64>>,
}

/// Bucket index for a candidate group size: candidates of size `n` use
/// slack tables built for the power-of-two edge `≥ n`, so their projected
/// trust shifts (monotone in the evaluated batch size) stay within the
/// table's assumptions at ≤ 2× pessimism.
#[inline]
fn bucket_of(n: usize) -> usize {
    (usize::BITS - (n.max(1) - 1).leading_zeros()) as usize
}

/// Builds the per-round [`BoundTables`]: O(buckets · (votes + postings))
/// plus one trust projection per source per bucket — thousands of flops,
/// amortised over every candidate scored this round.
fn bound_tables<O: Observer>(state: &IncState<'_, O>) -> BoundTables {
    let groups = state.groups();
    let index = state.source_index();
    let n_sources = index.n_sources();

    let mut gb = vec![GroupBound::default(); groups.len()];
    for (gi, g) in groups.iter().enumerate() {
        if g.facts.is_empty() || g.signature.is_empty() {
            continue;
        }
        let p = state.group_probability(gi);
        gb[gi] = GroupBound {
            slope: ((1.0 - p) / p).log2(),
            inv_len: 1.0 / g.signature.len() as f64,
            c_away: 1.0 / (std::f64::consts::LN_2 * p * (1.0 - p)),
            p,
            h: state.group_entropy(gi),
            size: g.facts.len() as f64,
            len: g.signature.len() as f64,
        };
    }

    let mut v = vec![0.0f64; n_sources];
    for (si, v_s) in v.iter_mut().enumerate() {
        for posting in index.groups_of(SourceId::new(si)) {
            let g = &gb[posting.group];
            if g.size == 0.0 {
                continue;
            }
            if g.slope.is_finite() {
                let w = match posting.vote {
                    Vote::True => 1.0,
                    Vote::False => -1.0,
                };
                *v_s += w * g.size * g.slope * g.inv_len;
            }
        }
    }

    // Pairwise curvature matrix. GLOBAL_CMIN is a valid curvature floor in
    // either direction, so the subtracted quadratic form keeps the
    // prescreen an upper bound regardless of where each move points.
    let mut m = vec![0.0f64; n_sources * n_sources];
    for (gi, g) in groups.iter().enumerate() {
        let b = &gb[gi];
        if b.size == 0.0 || !b.slope.is_finite() {
            continue;
        }
        let w = 0.5 * GLOBAL_CMIN * b.size * b.inv_len * b.inv_len;
        for svi in &g.signature {
            let wi = match svi.vote {
                Vote::True => w,
                Vote::False => -w,
            };
            let row = svi.source.index() * n_sources;
            for svj in &g.signature {
                let wij = match svj.vote {
                    Vote::True => wi,
                    Vote::False => -wi,
                };
                m[row + svj.source.index()] += wij;
            }
        }
    }

    // Slack tables, one per candidate-size bucket. Small candidates shift
    // trust very little, so their slack is near zero and the O(|sig|)
    // bound alone prunes them; only the few large candidates fall through
    // to the walk tiers.
    let nmax = groups.iter().map(|g| g.facts.len()).max().unwrap_or(1).max(1);
    let n_buckets = bucket_of(nmax) + 1;
    let mut sl_rate = Vec::with_capacity(n_buckets);
    let mut sl_cst = Vec::with_capacity(n_buckets);
    for b in 0..n_buckets {
        let edge = (1usize << b).min(nmax) as u32;
        let smax: Vec<f64> = (0..n_sources)
            .map(|si| {
                let s = SourceId::new(si);
                let t = state.trust().trust(s);
                let down = t - state.projected_trust(s, 0, edge);
                let up = state.projected_trust(s, edge, edge) - t;
                down.max(up)
            })
            .collect();
        let mut rate_b = vec![0.0f64; n_sources];
        let mut cst_b = vec![0.0f64; n_sources];
        for (gi, g) in groups.iter().enumerate() {
            if g.facts.is_empty() || g.signature.is_empty() {
                continue;
            }
            let b = &gb[gi];
            if !b.slope.is_finite() {
                // p exactly 0 or 1: no slope; the term is ≤ size·(1 − 0),
                // charged in full to every shared source (a candidate
                // triggers it with any one of them).
                for sv in &g.signature {
                    cst_b[sv.source.index()] += b.size;
                }
                continue;
            }
            // Clamp slack, split subadditively over the group's sources.
            // For a candidate sharing source set I with actual shifts
            // `δ_s`, the clamp arm `−H` can exceed the prescreen's
            // quadratic arm by at most `size·(A − H)₊` where
            // `A = u·Σ_{s∈I} |δ_s|` and `u = (|slope| +
            // (C_MIN/2)·x_max)/len` (the curvature inflation covers the
            // subtracted quadratic form at the worst achievable move).
            // With `U = u·Σ_{s∈sig} smax_s ≥ A`, `(A − H)₊ ≤ (1 − H/U)·A`,
            // so charging source `s` the rate `size·u·(1 − H/U)` *per unit
            // of actual shift* covers the deficit; the prescreen multiplies
            // by the candidate's true `|δ_s|`, far below the bucket's
            // worst case in late rounds. Whenever `U ≤ H` — the group's
            // whole worst-case move stays within its entropy — every rate
            // is zero, which is what makes the O(|sig|²) prescreen bite
            // once trust shifts shrink.
            let smax_sum: f64 = g.signature.iter().map(|sv| smax[sv.source.index()]).sum();
            let x_max = smax_sum * b.inv_len;
            let u = b.inv_len * (b.slope.abs() + 0.5 * GLOBAL_CMIN * x_max);
            let total = smax_sum * u;
            if total <= b.h {
                continue;
            }
            let rate = (1.0 - b.h / total) * b.size * u;
            for sv in &g.signature {
                rate_b[sv.source.index()] += rate;
            }
        }
        sl_rate.push(rate_b);
        sl_cst.push(cst_b);
    }

    BoundTables { gb, v, m, n_sources, sl_rate, sl_cst }
}

/// Upper bound on one touched group's spillover term, without evaluating
/// any entropy.
///
/// Binary entropy is concave, so whenever `p + x` stays in `[0, 1]`,
/// Taylor's remainder gives `H(p + x) − H(p) ≤ H'(p)·x − c·x²/2` for any
/// `c ≤ min |H''|` over the interval: `|H''|` grows away from ½, so a move
/// away from ½ takes its minimum at `p` itself (precomputed in `c_away`),
/// and a move toward ½ falls back to the global [`GLOBAL_CMIN`]. When
/// `p + x` escapes `[0, 1]`, `binary_entropy` clamps and the change is
/// exactly `−H(p)`; `max` of the two covers both cases. ±∞ slope at the
/// boundaries falls back to the global `H ≤ 1` bound.
#[inline]
fn ub_term(g: &GroupBound, acc: f64) -> f64 {
    if !g.slope.is_finite() {
        return g.size;
    }
    let x = acc * g.inv_len;
    let c = if x * (0.5 - g.p) > 0.0 { GLOBAL_CMIN } else { g.c_away };
    g.size * (g.slope * x - 0.5 * c * x * x).max(-g.h)
}

/// [`spillover`] under a pruning cut, sharing one [`walk_shifts`] scatter
/// between two replay passes:
///
/// 1. **Bound pass** — sums the curvature-tightened tangent bound
///    ([`ub_term`]) with no entropy evaluation. If the total stays under
///    `cut`, the exact score provably cannot reach the bar and the
///    candidate returns NaN without ever computing an entropy.
/// 2. **Exact pass with early abandonment** — accumulates the exact sum
///    alongside the *remaining* upper bound (the bound total minus the
///    [`ub_term`]s already passed; both passes replay the identical terms
///    in the identical order, so the subtraction is float-exact). As soon
///    as `partial + remaining < cut` the final score provably cannot reach
///    `cut` and the candidate returns NaN.
///
/// The exact accumulation is the same operations in the same order as
/// [`spillover`], so a completing candidate returns the bit-identical
/// score.
///
/// `tally` records which tier resolved the candidate (walk-bound kill,
/// early abandon, or exact completion); it is touched only when the
/// observer is enabled.
fn spillover_pruned<O: Observer>(
    state: &IncState<'_, O>,
    candidate_gi: usize,
    t: &BoundTables,
    cut: f64,
    tally: &TierTally,
) -> f64 {
    WALK_SCRATCH.with_borrow_mut(|walk| {
        walk_shifts(state, candidate_gi, walk);
        let mut ub = 0.0;
        walk.for_each(|gi, acc| {
            let g = &t.gb[gi];
            if gi == candidate_gi || g.size == 0.0 {
                return;
            }
            ub += ub_term(g, acc);
        });
        if ub < cut {
            if O::ENABLED && OBS_EMIT {
                tally.walk_bound.update(|n| n + 1);
            }
            return f64::NAN;
        }
        let mut dh = 0.0;
        let mut remaining = ub;
        let mut abandoned = false;
        walk.for_each(|gi, acc| {
            let g = &t.gb[gi];
            if abandoned || gi == candidate_gi || g.size == 0.0 {
                return;
            }
            remaining -= ub_term(g, acc);
            let p_new = g.p + acc / g.len;
            dh += g.size * (binary_entropy(p_new) - g.h);
            if dh + remaining < cut {
                abandoned = true;
            }
        });
        if O::ENABLED && OBS_EMIT {
            let tier = if abandoned { &tally.early_abandon } else { &tally.exact };
            tier.update(|n| n + 1);
        }
        if abandoned {
            f64::NAN
        } else {
            dh
        }
    })
}

/// O(|sig|²) posting-walk-free prescreen for one candidate.
///
/// Summing the curvature-tightened tangent bound
/// `Σ_g size_g·(slope_g·x_cg − (C_MIN/2)·x_cg²)` over touched groups
/// reorders over the *sources* of the candidate's signature:
/// `x_cg = (Σ_{s ∈ sig(c) ∩ sig(g)} ±δ_s)/len_g`, so the linear part
/// collapses to `Σ_{s ∈ sig(c)} δ_s·v[s]` and the quadratic part to the
/// form `Σ_{s,s' ∈ sig(c)} δ_s·δ_s'·M[s][s']`, both with per-round tables —
/// no posting walk per candidate. The reordered sums include the
/// candidate's own group (it posts on its own sources); both its parts are
/// subtracted back exactly.
///
/// Returns `(rank, bound)`: `rank` is the slack-free second-order estimate —
/// a close approximation of the true score, used to order candidates and
/// pick the bar — and `bound` adds the candidate's size-bucketed clamp
/// slack, making it a valid upper bound on [`spillover`] fit for pruning.
fn linear_prescreen<O: Observer>(
    state: &IncState<'_, O>,
    t: &BoundTables,
    candidate_gi: usize,
) -> (f64, f64) {
    let candidate = &state.groups()[candidate_gi];
    let outcome = state.group_probability(candidate_gi) >= 0.5;
    let size = candidate.facts.len() as u32;
    let bucket = bucket_of(candidate.facts.len());
    let (sl_rate, sl_cst) = (&t.sl_rate[bucket], &t.sl_cst[bucket]);
    let mut deltas = Vec::with_capacity(candidate.signature.len());
    let mut lin = 0.0;
    let mut slack = 0.0;
    let mut own_num = 0.0;
    for sv in &candidate.signature {
        let agrees = sv.vote.is_affirmative() == outcome;
        let extra_matches = if agrees { size } else { 0 };
        let delta =
            state.projected_trust(sv.source, extra_matches, size) - state.trust().trust(sv.source);
        let si = sv.source.index();
        deltas.push((si, delta));
        lin += delta * t.v[si];
        slack += sl_rate[si] * delta.abs() + sl_cst[si];
        own_num += match sv.vote {
            Vote::True => delta,
            Vote::False => -delta,
        };
    }
    // Quadratic form over the signature's source pairs, minus the
    // candidate's own group's exact contribution to both parts.
    let mut quad = 0.0;
    for &(si, di) in &deltas {
        let row = &t.m[si * t.n_sources..(si + 1) * t.n_sources];
        for &(sj, dj) in &deltas {
            quad += di * dj * row[sj];
        }
    }
    let g = &t.gb[candidate_gi];
    if g.slope.is_finite() {
        lin -= g.size * g.slope * own_num * g.inv_len;
        quad -= 0.5 * GLOBAL_CMIN * g.size * g.inv_len * g.inv_len * own_num * own_num;
    }
    let est = lin - quad;
    (est, est + slack)
}

/// Block size for the adaptive-bar loop: small enough that the bar rises
/// quickly — each block's best exact score becomes the next block's cut,
/// and when the linear ranking misorders a part the bar still converges
/// within a few blocks.
const PRUNE_BLOCK: usize = 8;

/// Scores one part under a spillover-bearing mode with adaptive-bar bound
/// pruning.
///
/// Every candidate first gets the O(|sig|) [`linear_prescreen`]; candidates
/// are then processed in descending order of the slack-free estimate, in
/// blocks of [`PRUNE_BLOCK`]. Within a block each candidate passes through
/// tiers of increasingly tight (and expensive) scoring against the bar
/// frozen at block entry: linear bound, then the shared-walk bound and
/// early-abandoning exact passes of [`spillover_pruned`] — dropping out at
/// the first tier that proves it stays under the bar. After each block the bar
/// rises to the best exact score seen so far, so later blocks prune against
/// an ever-tighter cut even when the linear ranking is inaccurate (early
/// rounds, where large trust deltas overwhelm the tangent approximation).
///
/// A pruned candidate satisfies `exact ≤ bound < cut < bar ≤ max(exact
/// scores)`, so it can neither win nor tie the argmax — the selection
/// (tie-breaks included) is provably identical to scoring every candidate,
/// whatever order the bar rose in; pruning only skips work for candidates
/// that cannot matter. Pruned entries are returned as NaN, which
/// [`best_of`] skips.
fn scores_pruned<O: Observer>(
    state: &IncState<'_, O>,
    part: &[usize],
    mode: DeltaHMode,
    t: &BoundTables,
    tally: &TierTally,
) -> Vec<f64> {
    let groups = state.groups();
    let self_term = |gi: usize| -> f64 {
        match mode {
            DeltaHMode::Full => -(groups[gi].facts.len() as f64) * state.group_entropy(gi),
            _ => 0.0,
        }
    };

    let mut ranks = Vec::with_capacity(part.len());
    let mut lins = Vec::with_capacity(part.len());
    for &gi in part {
        let (lin, ub) = linear_prescreen(state, t, gi);
        let st = self_term(gi);
        ranks.push(lin + st);
        lins.push(ub + st);
    }
    let mut order: Vec<usize> = (0..part.len()).collect();
    order.sort_unstable_by(|&a, &b| ranks[b].total_cmp(&ranks[a]));

    // Seed the bar with the top-ranked candidate's exact score.
    let m = order[0];
    let mut bar = spillover(state, part[m]) + self_term(part[m]);
    if O::ENABLED && OBS_EMIT {
        tally.exact.update(|n| n + 1);
    }
    // Safety margin: the bounds dominate the exact score in the reals, but
    // all are rounded sums — never let float noise prune an exact tie.
    let margin = |bar: f64| bar - 1e-9 * (1.0 + bar.abs());
    let mut cut = margin(bar);

    let mut scores = vec![f64::NAN; part.len()];
    scores[m] = bar;
    for block in order[1..].chunks(PRUNE_BLOCK) {
        // The whole block is scored against the cut frozen at its entry.
        let block_cut = cut;
        for &k in block {
            let s = if lins[k] < block_cut {
                if O::ENABLED && OBS_EMIT {
                    tally.prescreen.update(|n| n + 1);
                }
                f64::NAN
            } else {
                let gi = part[k];
                let st = self_term(gi);
                spillover_pruned(state, gi, t, block_cut - st, tally) + st
            };
            scores[k] = s;
            if s > bar {
                bar = s;
                cut = margin(bar);
            }
        }
    }
    scores
}

/// Argmax over one part with the documented tie-breaks; `scores[k]` is the
/// exact ΔH score of `part[k]`, or NaN for candidates [`scores_pruned`]
/// proved unable to win or tie. Returns the winning pick (group index plus
/// its exact projected ΔH score).
///
/// Exact score ties are systematic at t_0 (every source has the same
/// default trust, so e.g. every T-only signature scores identically).
/// [`lex_better`] breaks them by signature length — more votes on a fact
/// means stronger corroboration, so its projected label is the safest to
/// commit and the per-source credit is spread over co-voting sources
/// instead of anointing one arbitrary source — then larger groups, then
/// canonical order (ascending scan, strict comparison: first seen wins
/// full ties). The self-term path reproduces exactly this order via the
/// per-block winners and their ascending merge.
fn best_of(groups: &[FactGroup], part: &[usize], scores: &[f64]) -> GroupPick {
    let mut best: Option<GroupPick> = None;
    for (&i, &s) in part.iter().zip(scores) {
        if s.is_nan() {
            continue;
        }
        let cand = GroupPick {
            gi: i,
            score: s,
            sig_len: groups[i].signature.len(),
            size: groups[i].facts.len(),
        };
        if best.is_none_or(|b| lex_better(&cand, &b)) {
            best = Some(cand);
        }
    }
    // All-NaN cannot happen (`scores_pruned` always seeds one exact
    // score), but degrade to the part's first group rather than panic.
    best.unwrap_or(GroupPick {
        gi: part[0],
        score: f64::NEG_INFINITY,
        sig_len: groups[part[0]].signature.len(),
        size: groups[part[0]].facts.len(),
    })
}

impl SelectionStrategy for IncEstHeu {
    fn name(&self) -> &str {
        match self.mode {
            DeltaHMode::SelfTerm => "IncEstHeu",
            DeltaHMode::Equation9 => "IncEstHeu(eq9)",
            DeltaHMode::Full => "IncEstHeu(full)",
        }
    }

    fn reads_block_winners(&self) -> bool {
        self.mode == DeltaHMode::SelfTerm
    }

    fn select<O: Observer>(&self, state: &IncState<'_, O>) -> Vec<FactId> {
        let groups = state.groups();
        let mode = self.mode;
        let tally = TierTally::new();

        let (best_pos, best_neg, candidates) = if mode == DeltaHMode::SelfTerm {
            // The state keeps each block's lex-best group per polarity
            // (strict §5.1 partition: positive above 0.5, negative below —
            // boundary groups wait; self-term scores `−H(p)` per fact are
            // O(1) cache reads) and rescans only blocks whose groups
            // changed. Folding the block winners in canonical order with
            // positional tie-breaks makes the global argmax bit-identical
            // to one sequential scan of the whole canonical group list.
            crate::traced(state.observer(), Span::ShardMerge, state.n_blocks() as u64, || {
                state.polarity_winners()
            })
        } else {
            // Spillover-bearing modes: strict §5.1 partition of the live
            // groups (probabilities come from the per-group cache —
            // nothing is recomputed here), then the bound-pruned scorer
            // over each part.
            let mut positive = Vec::new();
            let mut negative = Vec::new();
            for (gi, g) in groups.iter().enumerate() {
                if g.facts.is_empty() {
                    continue;
                }
                let p = state.group_probability(gi);
                if p > 0.5 {
                    positive.push(gi);
                } else if p < 0.5 {
                    negative.push(gi);
                }
            }
            if positive.is_empty() || negative.is_empty() {
                (None, None, 0)
            } else {
                let tables = bound_tables(state);
                let pos_scores = scores_pruned(state, &positive, mode, &tables, &tally);
                let neg_scores = scores_pruned(state, &negative, mode, &tables, &tally);
                (
                    Some(best_of(groups, &positive, &pos_scores)),
                    Some(best_of(groups, &negative, &neg_scores)),
                    (positive.len() + negative.len()) as u64,
                )
            }
        };

        let (Some(pos), Some(neg)) = (best_pos, best_neg) else {
            // §5.1 terminal case: all remaining facts share one polarity —
            // evaluate them all (empty selection = engine evaluates rest).
            return Vec::new();
        };
        let fg_pos = &groups[pos.gi];
        let fg_neg = &groups[neg.gi];

        if O::ENABLED && OBS_EMIT {
            if mode == DeltaHMode::SelfTerm {
                // Self-term scores are exact O(1) cache reads: every
                // candidate counts as exact-scored, no pruning tiers exist.
                tally.exact.update(|n| n + candidates);
            }
            let obs = state.observer();
            tally.flush_to(obs);
            let (prescreen, walk_bound, early_abandon, exact) = tally.snapshot();
            obs.selection(&SelectionRecord {
                positive_group: Some(pos.gi),
                negative_group: Some(neg.gi),
                projected_dh_pos: Some(pos.score),
                projected_dh_neg: Some(neg.score),
                candidates,
                prescreen_killed: prescreen,
                walk_bound_killed: walk_bound,
                early_abandon_killed: early_abandon,
                exact_scored: exact,
            });
        }

        // Balanced pick: n facts from each, n = size of the smaller group.
        let n = fg_pos.facts.len().min(fg_neg.facts.len());
        let mut selection = Vec::with_capacity(2 * n);
        selection.extend_from_slice(&fg_pos.facts[..n]);
        selection.extend_from_slice(&fg_neg.facts[..n]);
        selection
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inc::IncEstimate;
    use corroborate_core::prelude::*;
    use corroborate_datagen::motivating::motivating_example;

    const MODES: [DeltaHMode; 3] = [DeltaHMode::SelfTerm, DeltaHMode::Equation9, DeltaHMode::Full];

    #[test]
    fn names_reflect_modes() {
        assert_eq!(IncEstHeu::default().name(), "IncEstHeu");
        assert_eq!(IncEstHeu::with_mode(DeltaHMode::Equation9).name(), "IncEstHeu(eq9)");
        assert_eq!(IncEstHeu::with_mode(DeltaHMode::Full).name(), "IncEstHeu(full)");
        assert_eq!(IncEstHeu::default().mode(), DeltaHMode::SelfTerm);
    }

    #[test]
    fn terminates_and_covers_every_fact_in_all_modes() {
        let ds = motivating_example();
        for mode in MODES {
            let r = IncEstimate::new(IncEstHeu::with_mode(mode)).corroborate(&ds).unwrap();
            assert_eq!(r.probabilities().len(), ds.n_facts());
            assert!(r.rounds() >= 2, "{mode:?} must be genuinely incremental");
        }
    }

    #[test]
    fn beats_two_estimates_on_the_motivating_example() {
        use crate::galland::TwoEstimates;
        let ds = motivating_example();
        let two =
            TwoEstimates::default().corroborate(&ds).unwrap().confusion(&ds).unwrap().accuracy();
        for mode in MODES {
            let heu = IncEstimate::new(IncEstHeu::with_mode(mode))
                .corroborate(&ds)
                .unwrap()
                .confusion(&ds)
                .unwrap()
                .accuracy();
            assert!(heu > two, "{mode:?}: IncEstHeu accuracy {heu} must beat TwoEstimate {two}");
        }
    }

    #[test]
    fn identifies_r12_as_false_in_all_modes() {
        let ds = motivating_example();
        for mode in MODES {
            let r = IncEstimate::new(IncEstHeu::with_mode(mode)).corroborate(&ds).unwrap();
            assert!(!r.decisions().label(FactId::new(11)).as_bool(), "{mode:?}");
        }
    }

    #[test]
    fn equation9_mode_pins_the_hand_traced_outcome() {
        // Faithful Equation-9 selection on the motivating example: round 1
        // evaluates {r5, r12} (r5's group edges out r9's on spillover by
        // ~0.06 bits — the §2.3 walkthrough, which Table 2 reports,
        // hand-picks {r9, r12} instead), round 2 {r9, r6}, round 3 the
        // rest. Outcome: r6 and r12 false, A = 9/12 = 0.75 — between the
        // walkthrough's 0.83 and TwoEstimate's 0.67. Pinned so any change
        // to the spillover computation is caught deliberately.
        let ds = motivating_example();
        let r =
            IncEstimate::new(IncEstHeu::with_mode(DeltaHMode::Equation9)).corroborate(&ds).unwrap();
        assert_eq!(r.rounds(), 3);
        for (i, expected_false) in [(5, true), (11, true), (3, false), (4, false)] {
            assert_eq!(
                !r.decisions().label(FactId::new(i)).as_bool(),
                expected_false,
                "r{}",
                i + 1
            );
        }
        let m = r.confusion(&ds).unwrap();
        assert_eq!(m.recall(), 1.0);
        assert!((m.accuracy() - 9.0 / 12.0).abs() < 1e-9, "A = {}", m.accuracy());
    }

    #[test]
    fn default_mode_pins_its_motivating_outcome() {
        let ds = motivating_example();
        let r = IncEstimate::new(IncEstHeu::default()).corroborate(&ds).unwrap();
        // r12 must be uncovered; overall accuracy must beat TwoEstimate's
        // 0.67 (the exact set of extra false facts found is pinned by the
        // assertions below).
        assert!(!r.decisions().label(FactId::new(11)).as_bool());
        let m = r.confusion(&ds).unwrap();
        assert!(m.accuracy() > 0.67 + 1e-9, "A = {}", m.accuracy());
        assert_eq!(m.recall(), 1.0);
    }

    #[test]
    fn balanced_rounds_select_from_both_parts() {
        // First selection must contain at least one fact that evaluates
        // false and one that evaluates true, in equal numbers.
        let ds = motivating_example();
        let state = super::super::IncState::new(&ds, Default::default()).unwrap();
        for mode in MODES {
            let sel = IncEstHeu::with_mode(mode).select(&state);
            assert!(!sel.is_empty(), "{mode:?}");
            let labels: Vec<bool> = sel.iter().map(|&f| state.fact_probability(f) >= 0.5).collect();
            assert!(labels.iter().any(|&b| b), "{mode:?}");
            assert!(labels.iter().any(|&b| !b), "{mode:?}");
            let t = labels.iter().filter(|&&b| b).count();
            assert_eq!(2 * t, labels.len(), "{mode:?}");
        }
    }

    #[test]
    fn affirmative_only_dataset_short_circuits_to_one_round() {
        let mut b = DatasetBuilder::new();
        let s0 = b.add_source("a");
        let s1 = b.add_source("b");
        for i in 0..6 {
            let f = b.add_fact(format!("f{i}"));
            b.cast(s0, f, Vote::True).unwrap();
            if i % 2 == 0 {
                b.cast(s1, f, Vote::True).unwrap();
            }
        }
        let ds = b.build().unwrap();
        let r = IncEstimate::new(IncEstHeu::default()).corroborate(&ds).unwrap();
        // No negative part ever exists → single mass round, all true.
        assert_eq!(r.rounds(), 1);
        assert!(r.decisions().labels().iter().all(|l| l.as_bool()));
    }

    #[test]
    fn multi_value_cascade_uncovers_solo_backed_false_facts() {
        // The paper's central mechanism (Figure 2(b)): as rounds evaluate
        // facts the bad source supported to false, its trust value sinks
        // below 0.5, and from then on facts backed *only* by it corroborate
        // to false — something no majority vote can do on affirmative-only
        // facts.
        let mut b = DatasetBuilder::new();
        let g1 = b.add_source("good1");
        let g2 = b.add_source("good2");
        let bad = b.add_source("bad");
        for i in 0..8 {
            let f = b.add_fact(format!("conflictA{i}"));
            b.cast(g1, f, Vote::False).unwrap();
            b.cast(g2, f, Vote::False).unwrap();
            b.cast(bad, f, Vote::True).unwrap();
        }
        for i in 0..4 {
            let f = b.add_fact(format!("conflictB{i}"));
            b.cast(g1, f, Vote::False).unwrap();
            b.cast(bad, f, Vote::True).unwrap();
        }
        let solo: Vec<FactId> = (0..10)
            .map(|i| {
                let f = b.add_fact(format!("solo{i}"));
                b.cast(bad, f, Vote::True).unwrap();
                f
            })
            .collect();
        let fine: Vec<FactId> = (0..6)
            .map(|i| {
                let f = b.add_fact(format!("fine{i}"));
                b.cast(g1, f, Vote::True).unwrap();
                b.cast(g2, f, Vote::True).unwrap();
                f
            })
            .collect();
        let ds = b.build().unwrap();
        let r = IncEstimate::new(IncEstHeu::default()).corroborate(&ds).unwrap();

        // The bad source ends discredited.
        assert!(r.trust().trust(bad) < 0.5, "bad source trust = {}", r.trust().trust(bad));
        // Every conflict fact is false.
        for i in 0..12 {
            assert!(!r.decisions().label(FactId::new(i)).as_bool());
        }
        // The cascade catches solo facts evaluated after the trust dip —
        // Voting can never do this (one T vote, zero F votes always wins).
        let solo_false = solo.iter().filter(|&&f| !r.decisions().label(f).as_bool()).count();
        assert!(
            solo_false >= 2,
            "at least the late-evaluated solo facts must be false, got {solo_false}"
        );
        use crate::baseline::Voting;
        let voting = Voting.corroborate(&ds).unwrap();
        assert!(solo.iter().all(|&f| voting.decisions().label(f).as_bool()));
        // Facts backed by the good sources survive.
        for f in fine {
            assert!(r.decisions().label(f).as_bool());
        }
    }
}
