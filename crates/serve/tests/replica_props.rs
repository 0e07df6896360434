//! Property tests for the replication pipeline: for any archetype stream,
//! group-commit chunking, and crash point,
//! `replica_view(ship(crash(append(m))))` is fingerprint-identical to a
//! primary that applied the same acked prefix — at *every* acked batch
//! boundary, not just after a drain.
//!
//! The replica's epoch schedule mirrors the primary's (one `Auto` epoch
//! per applied batch when mutations are pending), so intermediate views
//! are bit-identical, which is exactly what `/cluster` in-sync reporting
//! and the ledger's primary == replica gate rely on.

use std::path::Path;
use std::sync::Arc;

use corroborate_obs::NOOP;
use corroborate_serve::{
    DeltaDataset, EpochConfig, EpochEngine, EpochMode, FaultFs, Mutation, ReplicaCore, ShipLog,
    TailResponse, Wal, WalConfig, WalFs,
};
use corroborate_testkit::sim::{generate, standard_archetypes};
use proptest::prelude::*;

/// Longest stream prefix a single case replays; bounds per-case epoch work
/// while still crossing many segment and batch boundaries.
const MAX_STREAM: usize = 120;

/// A primary-side engine that applies chunks on the same schedule the
/// serve loop uses: journal the batch, drop invalid mutations, run one
/// `Auto` epoch when anything is pending.
struct ReferencePrimary {
    engine: EpochEngine,
    fingerprint: u64,
}

impl ReferencePrimary {
    fn new() -> Self {
        let mut engine = EpochEngine::new(EpochConfig::default()).unwrap();
        let (view, _) = engine.run_epoch(EpochMode::Full).unwrap();
        Self { engine, fingerprint: view.fingerprint() }
    }

    fn apply_batch(&mut self, batch: &[Mutation]) {
        for m in batch {
            let _ = self.engine.apply(m);
        }
        if self.engine.pending() > 0 {
            let (view, _) = self.engine.run_epoch(EpochMode::Auto).unwrap();
            self.fingerprint = view.fingerprint();
        }
    }
}

/// One shipped frame starting at `from_seq` (max_bytes=1 keeps it single).
fn one_frame(ship: &ShipLog, from_seq: u64) -> Vec<u8> {
    match ship.tail_since(from_seq, 1) {
        TailResponse::Frames { bytes, frames, .. } => {
            assert_eq!(frames, 1, "expected a single frame");
            bytes
        }
        other => panic!("expected a frame at {from_seq}, got {other:?}"),
    }
}

proptest! {
    #[test]
    fn replica_matches_the_primary_at_every_acked_batch_boundary(
        pick in any::<u8>(),
        seed in 0u64..1_000,
        segment_bytes in 128u64..2048,
        chunk in 1usize..9,
        budget in 64u64..8192,
    ) {
        // Sweep the testkit archetypes: `pick` indexes into the standard
        // family, `seed` varies the generated world.
        let archetypes = standard_archetypes(seed);
        let (_, archetype) = &archetypes[pick as usize % archetypes.len()];
        let world = generate(archetype);
        let mut stream = DeltaDataset::mutations_of(&world.dataset);
        stream.truncate(MAX_STREAM);

        // crash(append(m)): group-commit the stream on the primary until
        // the write budget tears a batch; the ship log holds exactly the
        // acked (durable) frames.
        let primary_fs = FaultFs::new();
        let config = WalConfig { segment_bytes, ..WalConfig::default() };
        let ship = Arc::new(ShipLog::new(64 << 20));
        let mut acks = vec![0usize];
        {
            let (mut wal, _) = Wal::open_with(
                Path::new("/primary"),
                config,
                Arc::new(primary_fs.clone()),
                &NOOP,
            )
            .unwrap();
            wal.attach_shipper(Arc::clone(&ship)).unwrap();
            primary_fs.set_crash_after_write_bytes(budget);
            for batch in stream.chunks(chunk) {
                match wal.append_batch(batch) {
                    Ok(_) => acks.push(acks.last().unwrap() + batch.len()),
                    Err(_) => break,
                }
            }
        }
        prop_assert_eq!(ship.durable_seq() as usize, *acks.last().unwrap());

        // ship(..) → replica_view(..): feed the replica one shipped frame
        // at a time and pace a reference primary through the same acked
        // batches, comparing published fingerprints at every boundary.
        let replica_fs: Arc<dyn WalFs> = Arc::new(FaultFs::new());
        let (mut core, initial) = ReplicaCore::recover(
            Path::new("/replica"),
            replica_fs,
            WalConfig::default(),
            EpochConfig::default(),
            &NOOP,
        )
        .unwrap();
        let mut reference = ReferencePrimary::new();
        prop_assert_eq!(initial.fingerprint(), reference.fingerprint, "empty views diverge");

        let mut replica_fp = initial.fingerprint();
        for window in acks.windows(2) {
            let (lo, hi) = (window[0], window[1]);
            let frame = one_frame(&ship, lo as u64 + 1);
            let applied = core.apply_shipped(&frame, &NOOP).unwrap();
            prop_assert!(applied.torn.is_none(), "durable frames are never torn");
            prop_assert_eq!(core.applied_seq(), hi as u64);
            if let Some(view) = applied.view {
                replica_fp = view.fingerprint();
            }
            reference.apply_batch(&stream[lo..hi]);
            prop_assert_eq!(
                replica_fp,
                reference.fingerprint,
                "fingerprints diverge at acked boundary {}",
                hi
            );
        }

        // And the drain points agree too: a full epoch on both sides.
        let drained = core.publish_epoch(EpochMode::Full).unwrap();
        let (want, _) = reference.engine.run_epoch(EpochMode::Full).unwrap();
        prop_assert_eq!(drained.fingerprint(), want.fingerprint());
    }
}
