//! Static scoped-thread scheduling primitives for the sharded engine.
//!
//! Parallelism is the *default* configuration: [`map_scores`] fans the
//! per-candidate score computation out over scoped OS threads in balanced
//! positional chunks, and [`map_indexed`] does the same for per-shard
//! tasks. Output vectors are written by position, so the result — and
//! therefore every downstream argmax and tie-break — is bit-identical to
//! the sequential path whatever the thread count. The implementation is
//! `std::thread::scope`, with no thread-pool dependency; the call shapes are
//! drop-ins for rayon's `par_iter().map().collect()`.
//!
//! Scheduling is deliberately work-stealing-free: every worker gets a
//! contiguous, statically computed run of items ([`chunk_counts`]), which
//! keeps the execution plan a pure function of `(n, threads)`.

/// Sequential threshold for [`map_scores`]: below this many candidates the
/// spawn overhead dominates any win, so the call falls back to a plain map.
const MIN_PARALLEL_ITEMS: usize = 32;

/// Resolves a requested thread count: `0` means "ask the OS"
/// (`available_parallelism`, 1 when unknown); any other value is taken as
/// is. Results never depend on the resolved count — it only sizes the
/// static chunking — so auto-detection is determinism-safe.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Balanced chunk sizes for splitting `n` items over at most `parts`
/// workers: the first `n % parts` chunks take `n/parts + 1` items, the
/// rest `n/parts` — sizes differ by at most one and **no chunk is empty**
/// (the returned vector is truncated to `n` entries when `parts > n`).
///
/// This replaces the former `n.div_ceil(threads)` uniform chunk size,
/// which could starve trailing workers outright: n=33 over 16 threads gave
/// `ceil = 3` → 11 chunks of 3 and 5 idle threads, and the last spawned
/// chunk of a near-boundary split could even be empty.
pub(crate) fn chunk_counts(n: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1).min(n.max(1));
    let base = n / parts;
    let extra = n % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// Maps `f` over `0..n`, returning results in positional order; fans out
/// over at most `threads` scoped workers in balanced contiguous chunks.
/// No sequential-fallback threshold: callers decide when `n` is worth
/// spawning for (per-shard tasks are coarse; per-candidate maps go through
/// [`map_scores`] instead). Public so the serve layer's sharded epoch
/// rescoring reuses the same deterministic scheduler.
pub fn map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send + Default,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<R> = std::iter::repeat_with(R::default).take(n).collect();
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = out.as_mut_slice();
        let mut start = 0usize;
        for count in chunk_counts(n, threads) {
            let (head, tail) = rest.split_at_mut(count);
            debug_assert!(!head.is_empty(), "static chunking spawned an empty chunk");
            scope.spawn(move || {
                for (k, slot) in head.iter_mut().enumerate() {
                    *slot = f(start + k);
                }
            });
            rest = tail;
            start += count;
        }
    });
    out
}

/// Maps `score` over `items`, returning scores in positional order. Runs
/// on up to `threads` scoped workers once `items` crosses the sequential
/// threshold; thread count never changes a single output bit.
pub(crate) fn map_scores<F>(items: &[usize], threads: usize, score: F) -> Vec<f64>
where
    F: Fn(usize) -> f64 + Sync,
{
    if threads <= 1 || items.len() < MIN_PARALLEL_ITEMS {
        return items.iter().map(|&i| score(i)).collect();
    }
    map_indexed(items.len(), threads, |k| score(items[k]))
}

#[cfg(test)]
mod tests {
    use super::{chunk_counts, map_indexed, map_scores, resolve_threads};

    #[test]
    fn preserves_positional_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 8, 16] {
            let scores = map_scores(&items, threads, |i| i as f64 * 0.5 - 3.0);
            assert_eq!(scores.len(), items.len());
            for (k, &i) in items.iter().enumerate() {
                assert_eq!(scores[k].to_bits(), (i as f64 * 0.5 - 3.0).to_bits());
            }
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert!(map_scores(&[], 8, |_| 0.0).is_empty());
        assert_eq!(map_scores(&[7], 8, |i| i as f64), vec![7.0]);
        assert!(map_indexed::<f64, _>(0, 8, |_| 0.0).is_empty());
    }

    #[test]
    fn chunks_are_balanced_and_never_empty() {
        // The regression the balanced split fixes: 33 items over 16
        // threads must produce 16 busy workers (sizes 3 and 2), not 11
        // workers of 3 with 5 idle.
        let counts = chunk_counts(33, 16);
        assert_eq!(counts.len(), 16);
        assert_eq!(counts.iter().sum::<usize>(), 33);
        assert!(counts.iter().all(|&c| c > 0), "empty chunk spawned: {counts:?}");
        assert_eq!(counts.iter().max().unwrap() - counts.iter().min().unwrap(), 1);

        for (n, parts) in [(1, 16), (15, 16), (16, 16), (17, 16), (1000, 7), (5, 1), (0, 4)] {
            let counts = chunk_counts(n, parts);
            assert_eq!(counts.iter().sum::<usize>(), n, "n={n} parts={parts}");
            if n > 0 {
                assert!(counts.iter().all(|&c| c > 0), "n={n} parts={parts}: {counts:?}");
                assert!(counts.len() <= parts.max(1));
                let (max, min) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
                assert!(max - min <= 1, "unbalanced: {counts:?}");
            }
        }
    }

    #[test]
    fn map_indexed_matches_sequential_for_any_thread_count() {
        let expect: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(0x9e37)).collect();
        for threads in [1, 2, 3, 8, 97, 200] {
            let got = map_indexed(97, threads, |i| (i as u64).wrapping_mul(0x9e37));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn resolve_threads_honours_explicit_requests() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(6), 6);
        assert!(resolve_threads(0) >= 1);
    }
}
