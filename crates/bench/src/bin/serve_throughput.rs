//! `serve_throughput` — throughput and latency benchmark for the online
//! corroboration service (`corroborate-serve`).
//!
//! Four measurements, each isolating one layer of the serving stack:
//!
//! 1. **Streaming ingest** — apply a synthetic world's full mutation
//!    stream through [`EpochEngine::apply`] (pure delta maintenance, no
//!    scoring) at 2k/8k/20k facts;
//! 2. **WAL durability** — group-commit the same stream into a segmented
//!    on-disk write-ahead log (1024-mutation frames, 256 KiB segments)
//!    and replay it cold, measuring both directions;
//! 3. **Epoch latency** — incremental re-evaluation of a k-vote delta
//!    versus the full-recompute escape hatch, for k ∈ {1, 16, 256}, plus
//!    a delta that registers one new fact with one vote (the shape of a
//!    probe write); the speedup column is the reason the epoch scheduler
//!    exists, and at 8k facts and beyond a regression gate asserts every
//!    row keeps a ≥10x margin;
//! 4. **End-to-end HTTP** — boot the server on an ephemeral port and
//!    pump vote batches over keep-alive connections from concurrent
//!    clients, counting accepted mutations per second and 429 retries.
//!
//! Results are written as JSON to `BENCH_serve.json` at the repository
//! root.
//!
//! Flags:
//!
//! - `--report <path>` — dump a `RunReport` with every section's raw
//!   numbers plus the server's final `/metrics` document;
//! - `--quick` — smallest size only, fewer reps and HTTP posts, and do
//!   *not* overwrite `BENCH_serve.json` (the CI smoke mode).
//!
//! Run with `--release`; the JSON is the evidence artifact behind the
//! service claims in `docs/PERFORMANCE.md`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use corroborate_algorithms::inc::resolve_threads;
use corroborate_bench::Reporter;
use corroborate_core::ids::{FactId, SourceId};
use corroborate_core::vote::Vote;
use corroborate_datagen::synthetic::{generate, SyntheticConfig};
use corroborate_obs::Json;
use corroborate_serve::{
    start, DeltaDataset, EpochConfig, EpochEngine, EpochMode, Mutation, ServerConfig, Wal,
    WalConfig,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SIZES: [usize; 3] = [2_000, 8_000, 20_000];

/// One epoch-latency delta: `votes` random votes on known names, plus one
/// never-seen fact carrying the last of them when `new_fact` is set.
#[derive(Debug, Clone, Copy)]
struct DeltaShape {
    votes: usize,
    new_fact: bool,
}

const DELTAS: [DeltaShape; 4] = [
    DeltaShape { votes: 1, new_fact: false },
    DeltaShape { votes: 16, new_fact: false },
    DeltaShape { votes: 256, new_fact: false },
    DeltaShape { votes: 1, new_fact: true },
];

fn world_mutations(n_facts: usize) -> Vec<Mutation> {
    let cfg = SyntheticConfig { n_accurate: 8, n_inaccurate: 2, n_facts, eta: 0.02, seed: 42 };
    let world = generate(&cfg).expect("synthetic generation succeeds");
    DeltaDataset::mutations_of(&world.dataset)
}

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("corroborate-serve-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    dir
}

/// A random `Cast` over the engine's existing sources and facts — the
/// shape of a steady-state online update (no new entities, pure vote
/// churn).
fn random_cast(delta: &DeltaDataset, rng: &mut StdRng) -> Mutation {
    let source = delta.source_name(SourceId::new(rng.gen_range(0..delta.n_sources()))).to_string();
    let fact = delta.fact_name(FactId::new(rng.gen_range(0..delta.n_facts()))).to_string();
    let vote = if rng.gen_bool(0.8) { Vote::True } else { Vote::False };
    Mutation::Cast { source, fact, vote }
}

/// The mutations of one `shape` delta against the engine's current state.
/// A new fact is registered and then voted on by an existing source, the
/// way a probe write registers its fact.
fn delta_of(shape: DeltaShape, delta: &DeltaDataset, rng: &mut StdRng) -> Vec<Mutation> {
    let mut out: Vec<Mutation> = (0..shape.votes).map(|_| random_cast(delta, rng)).collect();
    if shape.new_fact {
        let name = format!("new-fact-{}", delta.n_facts());
        if let Some(Mutation::Cast { fact, .. }) = out.last_mut() {
            fact.clone_from(&name);
        }
        out.insert(0, Mutation::AddFact { name, label: None });
    }
    out
}

// --- section 1+2: streaming ingest and WAL, per world size --------------

fn bench_ingest(rep: &mut Reporter, n_facts: usize) -> Json {
    let mutations = world_mutations(n_facts);
    let n = mutations.len();

    // Delta maintenance alone: the per-mutation cost every ingested vote
    // pays before any scoring happens.
    let mut engine = EpochEngine::new(EpochConfig::default()).expect("engine");
    let apply_start = Instant::now();
    for m in &mutations {
        engine.apply(m).expect("apply");
    }
    let apply_s = apply_start.elapsed().as_secs_f64();

    // The first full epoch over the complete stream, for scale context.
    let epoch_start = Instant::now();
    let (view, stats) = engine.drain().expect("drain");
    let full_epoch_s = epoch_start.elapsed().as_secs_f64();
    std::hint::black_box(view.probabilities().count());

    // WAL group commit (buffered, no fsync — the default): the stream in
    // 1024-mutation frames over 256 KiB segments, then a cold replay that
    // decodes the segments in parallel.
    let dir = tempdir(&format!("wal-{n_facts}"));
    let config = WalConfig { segment_bytes: 256 << 10, ..WalConfig::default() };
    let (mut wal, _) = Wal::open(&dir, config).expect("wal open");
    let append_start = Instant::now();
    for batch in mutations.chunks(1024) {
        wal.append_batch(batch).expect("append");
    }
    drop(wal);
    let wal_append_s = append_start.elapsed().as_secs_f64();
    let replay_start = Instant::now();
    let (_, recovery) = Wal::open(&dir, config).expect("wal replay");
    let wal_replay_s = replay_start.elapsed().as_secs_f64();
    assert_eq!(recovery.replayed, n as u64, "replay must see every record");
    let segments = recovery.segments;
    let _ = std::fs::remove_dir_all(&dir);

    rep.say(format!(
        "  {n_facts:>6} facts: {n:>7} mutations | apply {:>9.0}/s | wal append {:>9.0}/s | \
         replay {:>9.0}/s ({segments} segs) | full epoch {full_epoch_s:.3}s ({} rounds)",
        n as f64 / apply_s,
        n as f64 / wal_append_s,
        n as f64 / wal_replay_s,
        stats.rounds,
    ));

    let mut row = Json::object();
    row.insert("n_facts", n_facts as i64);
    row.insert("mutations", n as i64);
    row.insert("apply_s", apply_s);
    row.insert("apply_per_s", n as f64 / apply_s);
    row.insert("wal_append_s", wal_append_s);
    row.insert("wal_append_per_s", n as f64 / wal_append_s);
    row.insert("wal_replay_s", wal_replay_s);
    row.insert("wal_replay_per_s", n as f64 / wal_replay_s);
    row.insert("wal_segments", segments as i64);
    row.insert("full_epoch_s", full_epoch_s);
    row.insert("full_epoch_rounds", stats.rounds as i64);
    row
}

// --- section 3: incremental vs full epoch latency -----------------------

fn bench_epoch_latency(rep: &mut Reporter, n_facts: usize, reps: usize) -> Json {
    let mutations = world_mutations(n_facts);
    let mut engine = EpochEngine::new(EpochConfig::default()).expect("engine");
    for m in &mutations {
        engine.apply(m).expect("apply");
    }
    engine.drain().expect("warm full epoch");
    let mut rng = StdRng::seed_from_u64(7);

    let mut rows = Vec::new();
    for shape in DELTAS {
        let mut best_incremental = f64::INFINITY;
        let mut best_full = f64::INFINITY;
        let mut rescored = 0;
        for _ in 0..reps {
            // Incremental: the delta scored under the cached trust.
            for m in &delta_of(shape, engine.delta(), &mut rng) {
                engine.apply(m).expect("apply");
            }
            let t = Instant::now();
            let (view, stats) = engine.run_epoch(EpochMode::Incremental).expect("incremental");
            best_incremental = best_incremental.min(t.elapsed().as_secs_f64());
            rescored = stats.facts_rescored;
            std::hint::black_box(view.epoch());

            // Full: the same delta shape through the escape hatch.
            for m in &delta_of(shape, engine.delta(), &mut rng) {
                engine.apply(m).expect("apply");
            }
            let t = Instant::now();
            let (view, _) = engine.run_epoch(EpochMode::Full).expect("full");
            best_full = best_full.min(t.elapsed().as_secs_f64());
            std::hint::black_box(view.epoch());
        }
        let speedup = best_full / best_incremental;
        let k = shape.votes;
        let label = if shape.new_fact { "votes + new fact" } else { "votes" };
        // Regression gate: at scale the incremental path must keep a wide
        // margin over the escape hatch — a small-delta epoch is O(k), not
        // O(dataset), whether or not it registers a name, and this is where
        // that claim is enforced.
        if n_facts >= 8_000 {
            assert!(
                speedup >= 10.0,
                "epoch latency regression: {k}-{label} delta at {n_facts} facts is only \
                 {speedup:.1}x faster incrementally (gate: 10x)"
            );
        }
        rep.say(format!(
            "  delta of {k:>3} {label:<16}: incremental {:>10.1}µs | full {:>10.1}ms | \
             {speedup:>7.0}x ({rescored} facts rescored)",
            best_incremental * 1e6,
            best_full * 1e3,
        ));
        let mut row = Json::object();
        row.insert("delta_votes", k as i64);
        row.insert("new_facts", i64::from(shape.new_fact));
        row.insert("incremental_s", best_incremental);
        row.insert("full_s", best_full);
        row.insert("speedup", speedup);
        row.insert("facts_rescored", rescored as i64);
        rows.push(row);
    }
    let mut section = Json::object();
    section.insert("n_facts", n_facts as i64);
    section.insert("reps", reps as i64);
    section.insert("deltas", Json::Arr(rows));
    section
}

// --- section 4: end-to-end HTTP -----------------------------------------

/// A keep-alive HTTP/1.1 client pinned to one connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone");
        Self { writer, reader: BufReader::new(stream) }
    }

    fn post(&mut self, path: &str, body: &str) -> u16 {
        write!(
            self.writer,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write request");
        self.writer.flush().expect("flush");
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("status line");
        let status: u16 =
            status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header");
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("content-length");
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        status
    }
}

fn vote_batch(client: usize, post: usize, votes_per_post: usize) -> String {
    let votes: Vec<String> = (0..votes_per_post)
        .map(|v| {
            let fact = (post * votes_per_post + v) % 509; // churn a bounded fact set
            format!(r#"{{"source":"c{client}v{v}","fact":"f{fact}","vote":"T"}}"#)
        })
        .collect();
    format!(r#"{{"votes":[{}]}}"#, votes.join(","))
}

fn bench_http(rep: &mut Reporter, clients: usize, posts_per_client: usize) -> (Json, Json) {
    const VOTES_PER_POST: usize = 32;
    let handle = start(ServerConfig {
        workers: 4,
        queue_capacity: 65_536,
        epoch_linger: Duration::from_millis(10),
        ..Default::default()
    })
    .expect("server start");
    let addr = handle.addr();

    let wall = Instant::now();
    let joins: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut retries = 0u64;
                for p in 0..posts_per_client {
                    let body = vote_batch(c, p, VOTES_PER_POST);
                    loop {
                        match client.post("/v1/votes", &body) {
                            202 => break,
                            429 => {
                                retries += 1;
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            other => panic!("unexpected ingest status {other}"),
                        }
                    }
                }
                retries
            })
        })
        .collect();
    let retries_429: u64 = joins.into_iter().map(|j| j.join().expect("client thread")).sum();
    let elapsed_s = wall.elapsed().as_secs_f64();

    let posts = (clients * posts_per_client) as f64;
    let votes = posts * VOTES_PER_POST as f64;
    rep.say(format!(
        "  {clients} clients × {posts_per_client} posts × {VOTES_PER_POST} votes: \
         {:.0} posts/s, {:.0} votes/s ({retries_429} transient 429s)",
        posts / elapsed_s,
        votes / elapsed_s,
    ));

    let metrics = handle.metrics_json();
    let drain_start = Instant::now();
    let view = handle.shutdown().expect("drain");
    let drain_s = drain_start.elapsed().as_secs_f64();
    rep.say(format!(
        "  drained in {drain_s:.3}s at epoch {} ({} facts, {} sources)",
        view.epoch(),
        view.dataset().n_facts(),
        view.dataset().n_sources(),
    ));

    let mut section = Json::object();
    section.insert("clients", clients as i64);
    section.insert("posts_per_client", posts_per_client as i64);
    section.insert("votes_per_post", VOTES_PER_POST as i64);
    section.insert("elapsed_s", elapsed_s);
    section.insert("posts_per_s", posts / elapsed_s);
    section.insert("votes_per_s", votes / elapsed_s);
    section.insert("retries_429", retries_429 as i64);
    section.insert("drain_s", drain_s);
    section.insert("final_epoch", view.epoch() as i64);
    (section, metrics)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = resolve_threads(0);
    let mut rep = Reporter::from_env("serve_throughput");
    rep.say(format!("corroborate-serve throughput bench (threads: {threads}, quick: {quick})"));
    rep.blank();

    let mut config = Json::object();
    config.insert("sizes", Json::Arr(SIZES.iter().map(|&n| Json::Int(n as i64)).collect()));
    config.insert("n_accurate", 8i64);
    config.insert("n_inaccurate", 2i64);
    config.insert("eta", 0.02);
    config.insert("seed", 42i64);
    config.insert("threads", threads as i64);
    rep.raw("config", config.clone());

    // --- streaming ingest + WAL ---------------------------------------
    rep.say("streaming ingest and WAL:");
    let sizes: &[usize] = if quick { &SIZES[..1] } else { &SIZES };
    let ingest: Vec<Json> = sizes.iter().map(|&n| bench_ingest(&mut rep, n)).collect();
    rep.raw("ingest", Json::Arr(ingest.clone()));

    // --- epoch latency -------------------------------------------------
    let (latency_n, reps) = if quick { (SIZES[0], 2) } else { (*SIZES.last().unwrap(), 5) };
    rep.blank();
    rep.say(format!("epoch latency at {latency_n} facts (best of {reps}):"));
    let latency = bench_epoch_latency(&mut rep, latency_n, reps);
    rep.raw("epoch_latency", latency.clone());

    // --- end-to-end HTTP -----------------------------------------------
    let (clients, posts) = if quick { (1, 40) } else { (2, 250) };
    rep.blank();
    rep.say("end-to-end HTTP ingest:");
    let (http, metrics) = bench_http(&mut rep, clients, posts);
    rep.raw("http", http.clone());
    rep.raw("server_metrics", metrics);

    if quick {
        rep.say("--quick: skipping BENCH_serve.json");
        rep.finish();
        return;
    }

    // --- BENCH_serve.json ----------------------------------------------
    let mut bench = Json::object();
    bench.insert("bench", "serve_throughput");
    bench.insert("config", config);
    bench.insert("ingest", Json::Arr(ingest));
    bench.insert("epoch_latency", latency);
    bench.insert("http", http);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, bench.to_json_pretty() + "\n").expect("write BENCH_serve.json");
    rep.blank();
    rep.say(format!("wrote {path}"));
    rep.finish();
}
