//! WAL crash-recovery integration tests: the fault-injection crash matrix
//! over every testkit archetype, torn tails, snapshot compaction, and
//! end-to-end recovery equivalence through the epoch engine.
//!
//! The matrix drives the group-commit WAL over [`FaultFs`] and asserts the
//! two recovery invariants for every injection shape:
//!
//! 1. recovery never panics and lands on the longest durable prefix of the
//!    appended batch stream (always a batch boundary — a torn batch is
//!    dropped as a unit, never partially applied), and
//! 2. the recovered state replays bit-identical to a reference append of
//!    that same prefix (drained `VerdictView` fingerprints).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use corroborate_obs::NOOP;
use corroborate_serve::{
    evaluate_batch, DeltaDataset, EpochConfig, EpochEngine, EpochMode, FaultFs, Mutation,
    ReplicaCore, ServeError, ShipLog, TailResponse, Wal, WalConfig, WalFs,
};
use corroborate_testkit::sim::{generate, standard_archetypes};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn tempdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("corroborate-walrec-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Drains a recovered dataset through the epoch engine and fingerprints
/// the published view — the bit-identical equivalence oracle.
fn drained_fingerprint(dataset: DeltaDataset) -> u64 {
    let mut engine = EpochEngine::from_recovered(dataset, EpochConfig::default()).unwrap();
    engine.drain().unwrap().0.fingerprint()
}

/// Reference fingerprint of the first `n` mutations applied directly.
fn prefix_fingerprint(mutations: &[Mutation], n: usize) -> u64 {
    let mut ds = DeltaDataset::new();
    ds.apply_all(&mutations[..n]).unwrap();
    drained_fingerprint(ds)
}

/// Name of the highest-numbered segment file in `dir` on `fs`.
fn last_segment(fs: &FaultFs, dir: &Path) -> PathBuf {
    let names = fs.list(dir).unwrap();
    let last = names
        .iter()
        .rfind(|n| n.starts_with("wal.") && n.ends_with(".seg"))
        .expect("at least one segment")
        .clone();
    dir.join(last)
}

/// The five crash-matrix injection shapes from the issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Tail truncated inside the last frame's 28-byte header.
    TornHeader,
    /// Tail truncated inside the last frame's mutation payload.
    TornPayload,
    /// Tail truncated inside the last frame's CRC field.
    TornCrc,
    /// Manifest chopped in half — recovery must fall back to the scan.
    TruncatedManifest,
    /// A seeded fsync failure that drops the unsynced suffix (fsync mode).
    FsyncFailure,
}

const SHAPES: [Shape; 5] = [
    Shape::TornHeader,
    Shape::TornPayload,
    Shape::TornCrc,
    Shape::TruncatedManifest,
    Shape::FsyncFailure,
];

/// Runs one (archetype, shape) cell: append the stream in group-commit
/// chunks over FaultFs with tiny segments, inject the fault, recover, and
/// check both matrix invariants. Returns (replayed, durable-boundary set).
fn run_cell(mutations: &[Mutation], shape: Shape) -> (usize, Vec<usize>) {
    const CHUNK: usize = 7;
    let fs = FaultFs::new();
    let dir = PathBuf::from("/wal");
    let config = WalConfig {
        segment_bytes: 256,
        fsync: shape == Shape::FsyncFailure,
        ..WalConfig::default()
    };

    // Cumulative mutation counts at every successfully-acked batch
    // boundary — the only legal recovery points.
    let mut acks: Vec<usize> = vec![0];
    let mut last_frame_bytes = 0u64;
    {
        let (mut wal, _) = Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
        if shape == Shape::FsyncFailure {
            // One-shot failure on the 5th fsync, dropping unsynced bytes —
            // the torn-cache shape real disks produce on power loss.
            fs.fail_fsync(5, true);
        }
        for chunk in mutations.chunks(CHUNK) {
            match wal.append_batch(chunk) {
                Ok(receipt) => {
                    acks.push(acks.last().unwrap() + chunk.len());
                    last_frame_bytes = receipt.bytes;
                }
                Err(_) => break, // fsync failure surfaced: stop appending
            }
        }
    }

    // Inject the crash artefact.
    match shape {
        Shape::TornHeader | Shape::TornPayload | Shape::TornCrc => {
            let seg = last_segment(&fs, &dir);
            let len = fs.len(&seg).unwrap() as u64;
            let frame_start = len - last_frame_bytes;
            let cut = match shape {
                Shape::TornHeader => frame_start + 10, // inside first_seq
                Shape::TornCrc => frame_start + 24,    // inside the crc field
                _ => frame_start + 29,                 // one byte into the payload
            };
            fs.truncate_raw(&seg, cut as usize);
        }
        Shape::TruncatedManifest => {
            let manifest = dir.join("wal.manifest.json");
            let half = fs.len(&manifest).unwrap() / 2;
            fs.truncate_raw(&manifest, half);
        }
        Shape::FsyncFailure => {} // injected live, above
    }

    fs.reset_faults();
    let (_, recovery) = Wal::open_with(&dir, config, Arc::new(fs), &NOOP)
        .expect("every matrix cell must recover without error");
    let replayed = recovery.replayed as usize;

    // Invariant 1: the longest durable prefix, always at a batch boundary.
    assert!(
        acks.contains(&replayed),
        "{shape:?}: recovered {replayed} mutations, not a batch boundary of {acks:?}"
    );
    match shape {
        Shape::TornHeader | Shape::TornPayload | Shape::TornCrc => {
            let total = *acks.last().unwrap();
            let last_chunk = total - acks[acks.len() - 2];
            assert!(recovery.dropped_torn_tail, "{shape:?}: torn tail must be detected");
            assert_eq!(replayed, total - last_chunk, "{shape:?}: exactly the torn batch is lost");
        }
        Shape::TruncatedManifest | Shape::FsyncFailure => {
            assert_eq!(replayed, *acks.last().unwrap(), "{shape:?}: an acked batch was lost");
        }
    }

    // Invariant 2: bit-identical to a reference append of that prefix.
    assert_eq!(
        drained_fingerprint(recovery.dataset),
        prefix_fingerprint(mutations, replayed),
        "{shape:?}: recovered state diverges from the reference prefix"
    );
    (replayed, acks)
}

#[test]
fn crash_matrix_recovers_the_longest_durable_prefix_on_all_archetypes() {
    for (name, archetype) in &standard_archetypes(90) {
        let world = generate(archetype);
        let mutations = DeltaDataset::mutations_of(&world.dataset);
        for shape in SHAPES {
            let (replayed, acks) = run_cell(&mutations, shape);
            assert!(
                replayed <= *acks.last().unwrap(),
                "{name}/{shape:?}: replayed more than was appended"
            );
        }
    }
}

/// Appends `mutations` in chunks over `fs` with frequent compaction —
/// each background snapshot waited home before the next append — then
/// drains with a final compaction. Stops at the first error. Returns the
/// cumulative mutation counts at every acked batch.
fn compacting_run(fs: &FaultFs, mutations: &[Mutation], config: WalConfig) -> Vec<usize> {
    let mut acks = vec![0];
    let Ok((mut wal, _)) = Wal::open_with(Path::new("/wal"), config, Arc::new(fs.clone()), &NOOP)
    else {
        return acks;
    };
    let mut live = DeltaDataset::new();
    let mut step = |chunk: &[Mutation], acks: &mut Vec<usize>| -> Result<(), ServeError> {
        wal.append_batch(chunk)?;
        acks.push(acks.last().unwrap() + chunk.len());
        live.apply_all(chunk)?;
        wal.maybe_compact(&live)?;
        while wal.compaction_in_flight() {
            std::thread::yield_now();
            wal.maybe_compact(&live)?;
        }
        Ok(())
    };
    for chunk in mutations.chunks(6) {
        if step(chunk, &mut acks).is_err() {
            return acks;
        }
    }
    let _ = wal.compact(&live);
    acks
}

#[test]
fn crashes_during_compaction_recover_exactly_the_acked_batches() {
    // A torn write at every point of a run that seals, snapshots, rewrites
    // the manifest and finally drains: recovery always succeeds — no
    // crash point leaves a manifest recording a snapshot that never
    // landed — and holds exactly the acked batches.
    let (_, archetype) = &standard_archetypes(53)[0];
    let world = generate(archetype);
    let all = DeltaDataset::mutations_of(&world.dataset);
    let mutations = &all[..all.len().min(96)];
    let config =
        WalConfig { compact_after_records: 20, segment_bytes: 512, ..WalConfig::default() };
    let mut budget = 0u64;
    loop {
        let fs = FaultFs::new();
        fs.set_crash_after_write_bytes(budget);
        let acks = compacting_run(&fs, mutations, config);
        let crashed = fs.crashed();
        fs.reset_faults();
        let (_, recovery) = Wal::open_with(Path::new("/wal"), config, Arc::new(fs), &NOOP)
            .unwrap_or_else(|e| panic!("crash after {budget} bytes: recovery failed: {e}"));
        let recovered = usize::try_from(recovery.next_seq - 1).unwrap();
        assert_eq!(recovered, *acks.last().unwrap(), "crash after {budget} bytes");
        assert_eq!(
            drained_fingerprint(recovery.dataset),
            prefix_fingerprint(mutations, recovered),
            "crash after {budget} bytes: recovered state diverges"
        );
        if !crashed {
            break; // the budget outlasted the whole run
        }
        budget += 23;
    }
    assert!(budget > 1000, "the sweep must cover compactions, not just the first frames");
}

#[test]
fn crash_replay_then_drain_matches_batch() {
    // Write an archetype's whole stream to the WAL, "crash" (drop without
    // compaction), recover, drain — must equal the one-shot batch run.
    let (_, archetype) = &standard_archetypes(50)[0];
    let world = generate(archetype);
    let mutations = DeltaDataset::mutations_of(&world.dataset);
    let dir = tempdir("replay-drain");

    {
        let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
        for m in &mutations {
            wal.append(m).unwrap();
        }
        // Dropped without compact(): recovery must come from the log alone.
    }

    let (_, recovery) = Wal::open(&dir, WalConfig::default()).unwrap();
    assert_eq!(recovery.replayed, mutations.len() as u64);
    assert!(!recovery.dropped_torn_tail);
    let mut engine = EpochEngine::from_recovered(recovery.dataset, EpochConfig::default()).unwrap();
    let (view, _) = engine.drain().unwrap();
    let batch = evaluate_batch(world.dataset, &EpochConfig::default()).unwrap();
    assert_eq!(view.fingerprint(), batch.fingerprint());
}

#[test]
fn segmented_replay_matches_single_segment_replay() {
    // The same stream through tiny segments and through one big segment
    // recovers to identical state — segmentation is invisible to replay.
    let (_, archetype) = &standard_archetypes(91)[1];
    let world = generate(archetype);
    let mutations = DeltaDataset::mutations_of(&world.dataset);
    let one_dir = tempdir("seg-one");
    let many_dir = tempdir("seg-many");
    let many_config = WalConfig { segment_bytes: 512, ..WalConfig::default() };

    {
        let (mut one, _) = Wal::open(&one_dir, WalConfig::default()).unwrap();
        let (mut many, _) = Wal::open(&many_dir, many_config).unwrap();
        for chunk in mutations.chunks(11) {
            one.append_batch(chunk).unwrap();
            many.append_batch(chunk).unwrap();
        }
    }

    let (_, from_one) = Wal::open(&one_dir, WalConfig::default()).unwrap();
    let (_, from_many) = Wal::open(&many_dir, many_config).unwrap();
    assert_eq!(from_one.segments, 1);
    assert!(from_many.segments > 2, "only {} segments", from_many.segments);
    assert_eq!(from_one.replayed, from_many.replayed);
    assert_eq!(from_one.next_seq, from_many.next_seq);
    assert_eq!(drained_fingerprint(from_one.dataset), drained_fingerprint(from_many.dataset));
}

#[test]
fn truncated_tail_recovers_the_prefix() {
    let (_, archetype) = &standard_archetypes(51)[1];
    let world = generate(archetype);
    let mutations = DeltaDataset::mutations_of(&world.dataset);
    let dir = tempdir("torn-prefix");

    // Append everything; the last record goes through append_batch so we
    // learn its framed size.
    let last_frame = {
        let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
        for m in &mutations[..mutations.len() - 1] {
            wal.append(m).unwrap();
        }
        wal.append_batch(&mutations[mutations.len() - 1..]).unwrap().bytes
    };
    // Crash mid-append: chop 1..frame_len bytes off the single segment, so
    // the cut always lands strictly inside the final record.
    let path = dir.join("wal.000001.seg");
    let bytes = std::fs::read(&path).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let cut = rng.gen_range(1u64..last_frame) as usize;
    std::fs::write(&path, &bytes[..bytes.len() - cut]).unwrap();

    let (_, recovery) = Wal::open(&dir, WalConfig::default()).unwrap();
    assert!(recovery.dropped_torn_tail);
    assert_eq!(recovery.replayed, mutations.len() as u64 - 1, "exactly the torn record is lost");

    // The recovered state equals applying the mutation prefix directly.
    let mut prefix = DeltaDataset::new();
    prefix.apply_all(&mutations[..mutations.len() - 1]).unwrap();
    assert_eq!(
        recovery.dataset.materialize().unwrap().votes(),
        prefix.materialize().unwrap().votes()
    );
}

#[test]
fn replay_then_snapshot_equivalence() {
    // Recovering from (snapshot + live log tail) must equal recovering
    // from the raw log alone — compaction is a pure space optimisation.
    let (_, archetype) = &standard_archetypes(52)[2];
    let world = generate(archetype);
    let mutations = DeltaDataset::mutations_of(&world.dataset);
    let raw_dir = tempdir("equiv-raw");
    let compact_dir = tempdir("equiv-compact");

    {
        let (mut raw, _) = Wal::open(&raw_dir, WalConfig::default()).unwrap();
        // Compact aggressively: every 32 records.
        let config = WalConfig { compact_after_records: 32, ..WalConfig::default() };
        let (mut compacting, _) = Wal::open(&compact_dir, config).unwrap();
        let mut live = DeltaDataset::new();
        let mut landed = false;
        for m in &mutations {
            raw.append(m).unwrap();
            compacting.append(m).unwrap();
            live.apply(m).unwrap();
            landed |= compacting.maybe_compact(&live).unwrap();
        }
        // Background compaction: wait for at least one snapshot to land so
        // the reopened replay is observably shorter.
        for _ in 0..500 {
            if landed {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            landed |= compacting.maybe_compact(&live).unwrap();
        }
        assert!(landed, "no snapshot landed");
    }
    assert!(compact_dir.join("snapshot.cwb").exists());

    let (_, from_raw) = Wal::open(&raw_dir, WalConfig::default()).unwrap();
    let (_, from_compact) = Wal::open(&compact_dir, WalConfig::default()).unwrap();
    assert!(from_compact.replayed < from_raw.replayed, "compaction must shrink the replay");
    assert_eq!(from_raw.next_seq, from_compact.next_seq);

    // Both recoveries drain to the same verdicts.
    assert_eq!(drained_fingerprint(from_raw.dataset), drained_fingerprint(from_compact.dataset));
}

/// Full-recompute fingerprint of the first `n` mutations — the oracle for
/// replica views (replicas publish via `run_epoch`, not `drain`; the two
/// agree because the fingerprint covers data, not epoch counters).
fn replica_prefix_fingerprint(mutations: &[Mutation], n: usize) -> u64 {
    let mut ds = DeltaDataset::new();
    ds.apply_all(&mutations[..n]).unwrap();
    let mut engine = EpochEngine::from_recovered(ds, EpochConfig::default()).unwrap();
    engine.run_epoch(EpochMode::Full).unwrap().0.fingerprint()
}

/// A primary-side WAL on `FaultFs` with an attached ship log, loaded with
/// `mutations` in group-commit chunks of `chunk`.
fn shipping_primary(
    mutations: &[Mutation],
    chunk: usize,
    config: WalConfig,
) -> (Wal, Arc<ShipLog>) {
    let fs: Arc<dyn WalFs> = Arc::new(FaultFs::new());
    let (mut wal, _) = Wal::open_with(Path::new("/primary"), config, fs, &NOOP).unwrap();
    let ship = Arc::new(ShipLog::new(64 << 20));
    wal.attach_shipper(Arc::clone(&ship)).unwrap();
    for batch in mutations.chunks(chunk) {
        wal.append_batch(batch).unwrap();
    }
    (wal, ship)
}

fn shipped_tail(ship: &ShipLog, from_seq: u64) -> Vec<u8> {
    match ship.tail_since(from_seq, u64::MAX) {
        TailResponse::Frames { bytes, .. } => bytes,
        other => panic!("expected frames from {from_seq}, got {other:?}"),
    }
}

#[test]
fn replica_killed_mid_apply_recovers_a_batch_boundary_and_resumes() {
    // Chaos case: the replica dies partway through journalling shipped
    // frames (a crash budget on its local FaultFs). On restart it must
    // recover to a consistent batch boundary — never a torn view — and
    // then converge by re-fetching the same shipped bytes.
    const CHUNK: usize = 7;
    for (name, archetype) in &standard_archetypes(92)[..2] {
        let world = generate(archetype);
        let mutations = DeltaDataset::mutations_of(&world.dataset);
        let (_primary, ship) = shipping_primary(&mutations, CHUNK, WalConfig::default());
        let shipped = shipped_tail(&ship, 1);

        let fs = Arc::new(FaultFs::new());
        let dir = Path::new("/replica");
        {
            let (mut core, _) = ReplicaCore::recover(
                dir,
                Arc::<FaultFs>::clone(&fs) as Arc<dyn WalFs>,
                WalConfig::default(),
                EpochConfig::default(),
                &NOOP,
            )
            .unwrap();
            // Kill mid-apply: the journal write tears once the budget runs
            // out, so the local WAL ends inside a record.
            fs.set_crash_after_write_bytes(shipped.len() as u64 / 2);
            let died = core.apply_shipped(&shipped, &NOOP);
            assert!(died.is_err(), "{name}: the crash budget must surface");
            assert!(fs.crashed(), "{name}: the injected crash must have fired");
        }

        fs.reset_faults();
        let (mut core, view) = ReplicaCore::recover(
            dir,
            Arc::<FaultFs>::clone(&fs) as Arc<dyn WalFs>,
            WalConfig::default(),
            EpochConfig::default(),
            &NOOP,
        )
        .expect("replica restart must recover without error");
        let applied = core.applied_seq() as usize;
        assert!(
            applied.is_multiple_of(CHUNK) || applied == mutations.len(),
            "{name}: recovered {applied} mutations, not a shipped-batch boundary"
        );
        assert!(applied < mutations.len(), "{name}: the crash should have lost the tail");
        assert_eq!(
            view.fingerprint(),
            replica_prefix_fingerprint(&mutations, applied),
            "{name}: restarted replica serves something other than the durable prefix"
        );

        // Resume: re-applying the full shipped stream skips the journalled
        // prefix and lands the rest, converging on the primary's state.
        let resumed = core.apply_shipped(&shipped, &NOOP).unwrap();
        assert!(resumed.skipped > 0, "{name}: duplicate batches must be skipped");
        assert!(resumed.torn.is_none());
        assert_eq!(core.applied_seq(), mutations.len() as u64);
        let view = core.publish_epoch(EpochMode::Full).unwrap();
        assert_eq!(
            view.fingerprint(),
            replica_prefix_fingerprint(&mutations, mutations.len()),
            "{name}: resumed replica diverges from the primary"
        );
    }
}

#[test]
fn truncated_shipped_segment_applies_only_a_consistent_prefix() {
    // Chaos case: a sealed segment arrives truncated mid-record (torn
    // transfer). The replica journals exactly the CRC-valid batch prefix,
    // publishes that prefix — never a torn view — refuses to skip the gap,
    // and converges once the segment is re-fetched intact.
    const CHUNK: usize = 7;
    let (_, archetype) = &standard_archetypes(93)[2];
    let world = generate(archetype);
    let mutations = DeltaDataset::mutations_of(&world.dataset);
    let config = WalConfig { segment_bytes: 512, ..WalConfig::default() };
    let (_primary, ship) = shipping_primary(&mutations, CHUNK, config);

    let index = ship.index_json();
    let segments = index.get("segments").unwrap().as_array().unwrap();
    assert!(segments.len() >= 2, "need sealed segments, got {}", segments.len());
    let seg_id = |s: &corroborate_obs::Json, key: &str| {
        u64::try_from(s.get(key).unwrap().as_i64().unwrap()).unwrap()
    };
    let first = &segments[0];
    let (id, seg_last) = (seg_id(first, "segment"), seg_id(first, "last_seq"));
    let intact = ship.read_segment(id).unwrap();

    let fs: Arc<dyn WalFs> = Arc::new(FaultFs::new());
    let (mut core, _) = ReplicaCore::recover(
        Path::new("/replica"),
        fs,
        WalConfig::default(),
        EpochConfig::default(),
        &NOOP,
    )
    .unwrap();

    // Chop 5 bytes off the end: far smaller than any frame, so the cut is
    // always strictly inside the segment's final record.
    let torn = &intact[..intact.len() - 5];
    let applied = core.apply_shipped(torn, &NOOP).unwrap();
    assert!(applied.torn.is_some(), "the torn frame must be detected");
    let boundary = core.applied_seq();
    assert!(boundary < seg_last, "the torn batch must not be applied");
    assert_eq!(boundary % CHUNK as u64, 0, "recovery point is a batch boundary");
    let view = core.publish_epoch(EpochMode::Full).unwrap();
    assert_eq!(
        view.fingerprint(),
        replica_prefix_fingerprint(&mutations, boundary as usize),
        "replica view after a torn segment is not the valid prefix"
    );

    // The replica refuses to jump the gap to later history.
    let later = shipped_tail(&ship, seg_last + 1);
    assert!(
        core.apply_shipped(&later, &NOOP).is_err(),
        "a sequence gap must be refused, not papered over"
    );
    assert_eq!(core.applied_seq(), boundary, "refused bytes must not move the applied seq");

    // Re-fetching the intact segment completes it; the tail then follows.
    let healed = core.apply_shipped(&intact, &NOOP).unwrap();
    assert!(healed.skipped > 0);
    assert_eq!(core.applied_seq(), seg_last);
    core.apply_shipped(&later, &NOOP).unwrap();
    assert_eq!(core.applied_seq(), mutations.len() as u64);
    let view = core.publish_epoch(EpochMode::Full).unwrap();
    assert_eq!(view.fingerprint(), replica_prefix_fingerprint(&mutations, mutations.len()));
}

#[test]
fn interrupted_recover_append_cycles_preserve_everything() {
    // Repeatedly: open, append a slice, drop (no compaction), reopen.
    // Nothing is lost or duplicated across the cycles.
    let (_, archetype) = &standard_archetypes(53)[3];
    let world = generate(archetype);
    let mutations = DeltaDataset::mutations_of(&world.dataset);
    let dir = tempdir("cycles");

    let mut written = 0;
    let mut rng = StdRng::seed_from_u64(17);
    while written < mutations.len() {
        let (mut wal, recovery) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(recovery.next_seq, written as u64 + 1, "no loss, no duplication");
        let n = rng.gen_range(1usize..=100).min(mutations.len() - written);
        wal.append_batch(&mutations[written..written + n]).unwrap();
        written += n;
    }

    let (_, recovery) = Wal::open(&dir, WalConfig::default()).unwrap();
    let mut whole = DeltaDataset::new();
    whole.apply_all(&mutations).unwrap();
    assert_eq!(
        recovery.dataset.materialize().unwrap().votes(),
        whole.materialize().unwrap().votes()
    );
}
