//! The per-layer catalog: every layer metric the traced run prints, the
//! end-to-end metric it should move, and the workload it moves it on.
//! Written down before measuring, so a later change can be checked
//! against the prediction.

/// `(metric, end-to-end metrics it should move, workloads)`.
pub const LAYERS: &[(&str, &str, &str)] = &[
    ("http.read_ttfb_us", "read_p50_us", "read_heavy"),
    ("http.parse_ns", "read_p50_us, write_p50_us", "read_heavy, ingest_growth"),
    ("http.respond_ns", "read_p50_us", "read_heavy"),
    ("view.lookup_ns", "read_p50_us, cpu_us_per_op", "read_heavy"),
    ("epoch.publish_ns", "read_p99_us, cpu_us_per_op", "ingest_growth"),
    ("epoch.incremental_us", "visible_p50_ms", "read_heavy"),
    ("epoch.materializing_ms", "visible_p50_ms", "read_heavy, ingest_growth"),
    (
        "epoch.full_ms",
        "setup_s, cpu_us_per_op, visible_p90_ms, drain_s",
        "read_heavy, ingest_growth, batch_1m",
    ),
    ("epoch.full_frac", "visible_p90_ms", "ingest_growth"),
    ("epoch.facts_rescored", "visible_p50_ms", "read_heavy"),
    ("queue.push_ns", "write_p50_us", "ingest_growth"),
    ("queue.wait_ms", "visible_p50_ms", "read_heavy, ingest_growth"),
    ("queue.batch_mutations", "votes_per_s", "ingest_growth"),
    ("queue.shed_frac", "write_p99_us, votes_per_s", "ingest_growth"),
    ("wal.append_us", "visible_p90_ms", "ingest_growth"),
    ("wal.fsync_wait_us", "replica_visible_p50_ms, visible_p90_ms", "read_heavy, ingest_growth"),
    ("wal.bytes_per_vote", "votes_per_s", "ingest_growth"),
    ("wal.replay_s", "setup_s", "read_heavy"),
    ("wal.compact_ms", "write_p99_us, visible_p90_ms", "ingest_growth"),
    ("wal.compactions", "write_p99_us, visible_p90_ms", "ingest_growth"),
    ("delta.apply_ns", "votes_per_s", "ingest_growth"),
    ("delta.materialize_ms", "visible_p90_ms", "ingest_growth"),
    ("delta.materializations", "visible_p90_ms", "ingest_growth"),
    ("ship.tail_us", "replica_visible_p50_ms", "read_heavy"),
    ("replica.apply_us", "replica_visible_p50_ms", "read_heavy"),
    ("replica.catchup_s", "setup_s", "read_heavy"),
    ("replica.bytes_per_vote", "replica_visible_p90_ms", "read_heavy"),
    ("engine.build_ms", "cpu_us_per_op, corroborate_s, setup_s", "batch_1m, read_heavy"),
    ("engine.round_p50_us", "cpu_us_per_op, corroborate_s", "batch_1m"),
    ("engine.round_p99_us", "cpu_us_per_op, corroborate_s", "batch_1m"),
    ("engine.rounds", "cpu_us_per_op, corroborate_s", "batch_1m"),
    ("engine.exact_frac", "cpu_us_per_op, corroborate_s", "batch_1m"),
    ("engine.cache_refreshes", "cpu_us_per_op, corroborate_s", "batch_1m"),
    ("unattributed.read_us", "(reported on its own)", "read_heavy, ingest_growth"),
    ("unattributed.visible_ms", "(reported on its own)", "read_heavy, ingest_growth"),
    ("gen.late_p99_ms", "(validity check)", "read_heavy"),
];

/// The `moves … on …` note printed beside a layer metric.
pub fn annotate(name: &str) -> Option<String> {
    LAYERS
        .iter()
        .find(|(metric, _, _)| *metric == name)
        .map(|(_, moves, on)| format!("moves {moves} on {on}"))
}
