//! Property tests for the group-commit segmented WAL: for *any* mutation
//! stream, segment size, batching, and crash point,
//! `replay(crash(append(m)))` is a batch-boundary prefix of `m` — recovery
//! never loses a durable batch boundary and never resurrects a torn batch.
//!
//! Two crash models are swept:
//!
//! - **write-budget crashes** ([`FaultFs::set_crash_after_write_bytes`]):
//!   the byte stream tears mid-write at a seeded offset, exactly like a
//!   power cut during `write(2)`;
//! - **post-hoc truncation**: the highest segment is chopped at a random
//!   offset, the classic torn-tail artefact.
//!
//! The snapshot codec is checked here too: for any state, the snapshot
//! `Wal::compact` writes is byte-identical to the state's canonical
//! mutation stream framed as one batch (the encoding snapshots have always
//! had), recovery decodes it back to the same state, and re-encoding the
//! recovered state reproduces the bytes. A committed snapshot written by
//! that mutation-stream encoder (`fixtures/snapshot.cwb`) must still load
//! and re-encode byte for byte.
//!
//! Runs under the same `PROPTEST_CASES` boost the conformance CI job uses.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use corroborate_core::ids::{FactId, SourceId};
use corroborate_core::truth::Label;
use corroborate_core::vote::Vote;
use corroborate_obs::NOOP;
use corroborate_serve::{DeltaDataset, FaultFs, Mutation, Wal, WalConfig, WalFs};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    // Casts dominate (5/7), as in the real ingest mix; fact labels are a
    // function of the name so re-registration never conflicts.
    (0u8..7, 0usize..8, 0usize..10, any::<bool>()).prop_map(|(kind, s, f, v)| match kind {
        5 => Mutation::AddSource { name: format!("s{s}") },
        6 => Mutation::AddFact {
            name: format!("f{f}"),
            label: if v {
                Some(corroborate_core::truth::Label::from_bool(f % 2 == 0))
            } else {
                None
            },
        },
        _ => Mutation::Cast {
            source: format!("s{s}"),
            fact: format!("f{f}"),
            vote: if v { Vote::True } else { Vote::False },
        },
    })
}

fn arb_stream() -> impl Strategy<Value = Vec<Mutation>> {
    vec(arb_mutation(), 5..150)
}

/// Appends `stream` in `chunk`-sized group commits until a fault surfaces,
/// returning the cumulative mutation counts at every acked batch boundary.
fn append_until_fault(wal: &mut Wal, stream: &[Mutation], chunk: usize) -> Vec<usize> {
    let mut acks = vec![0usize];
    for batch in stream.chunks(chunk) {
        match wal.append_batch(batch) {
            Ok(_) => acks.push(acks.last().unwrap() + batch.len()),
            Err(_) => break,
        }
    }
    acks
}

/// Asserts the recovered dataset equals a direct apply of `stream[..n]`.
fn assert_prefix_equivalent(recovered: &DeltaDataset, stream: &[Mutation], n: usize) {
    let mut reference = DeltaDataset::new();
    reference.apply_all(&stream[..n]).unwrap();
    let got = recovered.clone().materialize().unwrap();
    let want = reference.materialize().unwrap();
    assert_eq!(got.votes(), want.votes(), "recovered votes diverge from the {n}-prefix");
    assert_eq!(got.n_sources(), want.n_sources());
    assert_eq!(got.n_facts(), want.n_facts());
}

/// Name of the highest-numbered segment currently in `dir`.
fn last_segment(fs: &FaultFs, dir: &Path) -> Option<PathBuf> {
    let names = fs.list(dir).ok()?;
    names.iter().rfind(|n| n.starts_with("wal.") && n.ends_with(".seg")).map(|n| dir.join(n))
}

proptest! {
    #[test]
    fn write_budget_crash_recovers_a_batch_boundary_prefix(
        stream in arb_stream(),
        segment_bytes in 64u64..1024,
        chunk in 1usize..9,
        budget in 16u64..4096,
    ) {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let config = WalConfig { segment_bytes, ..WalConfig::default() };
        let acks = {
            let (mut wal, _) =
                Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
            fs.set_crash_after_write_bytes(budget);
            append_until_fault(&mut wal, &stream, chunk)
        };
        fs.reset_faults();
        let (_, recovery) =
            Wal::open_with(&dir, config, Arc::new(fs), &NOOP).expect("recovery must not fail");
        let replayed = recovery.replayed as usize;
        prop_assert!(
            acks.contains(&replayed),
            "replayed {replayed} is not an acked batch boundary of {acks:?}"
        );
        assert_prefix_equivalent(&recovery.dataset, &stream, replayed);
    }

    #[test]
    fn truncation_crash_recovers_a_batch_boundary_prefix(
        stream in arb_stream(),
        segment_bytes in 64u64..1024,
        chunk in 1usize..9,
        cut_fraction in 0.0f64..1.0,
    ) {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let config = WalConfig { segment_bytes, ..WalConfig::default() };
        let acks = {
            let (mut wal, _) =
                Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
            append_until_fault(&mut wal, &stream, chunk)
        };
        // Chop the tail segment at a fraction of its length.
        if let Some(seg) = last_segment(&fs, &dir) {
            if let Some(len) = fs.len(&seg) {
                fs.truncate_raw(&seg, (len as f64 * cut_fraction) as usize);
            }
        }
        let (_, recovery) =
            Wal::open_with(&dir, config, Arc::new(fs), &NOOP).expect("recovery must not fail");
        let replayed = recovery.replayed as usize;
        prop_assert!(
            acks.contains(&replayed),
            "replayed {replayed} is not an acked batch boundary of {acks:?}"
        );
        assert_prefix_equivalent(&recovery.dataset, &stream, replayed);
    }

    #[test]
    fn faultless_append_replay_is_lossless(
        stream in arb_stream(),
        segment_bytes in 64u64..1024,
        chunk in 1usize..9,
    ) {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let config = WalConfig { segment_bytes, ..WalConfig::default() };
        {
            let (mut wal, _) =
                Wal::open_with(&dir, config, Arc::new(fs.clone()), &NOOP).unwrap();
            for batch in stream.chunks(chunk) {
                wal.append_batch(batch).unwrap();
            }
        }
        let (_, recovery) =
            Wal::open_with(&dir, config, Arc::new(fs), &NOOP).unwrap();
        prop_assert_eq!(recovery.replayed as usize, stream.len());
        prop_assert!(!recovery.dropped_torn_tail);
        assert_prefix_equivalent(&recovery.dataset, &stream, stream.len());
    }
}

/// Name stems with every shape the codec must carry: a quote, a comma,
/// surrounding whitespace, a newline, a leading `#` and multi-byte
/// characters.
const STEMS: [&str; 10] = [
    "a",
    "quo\"te",
    "com,ma",
    " lead",
    "trail ",
    "tab\there",
    "#hash",
    "ünï",
    "寿司 ✓",
    "new\nline",
];

fn arb_name(prefix: &'static str) -> impl Strategy<Value = String> {
    (0usize..STEMS.len(), 0u8..2).prop_map(move |(stem, n)| format!("{prefix}{}{n}", STEMS[stem]))
}

fn arb_codec_mutation() -> impl Strategy<Value = Mutation> {
    // Casts dominate; some sources and facts are only ever registered, so
    // voteless ones appear, and repeated casts override earlier votes.
    (0u8..8, arb_name("s"), arb_name("f"), any::<bool>()).prop_map(|(kind, s, f, v)| match kind {
        0 => Mutation::AddSource { name: s },
        1 => Mutation::AddFact { name: f, label: None },
        2 => Mutation::AddFact { name: f, label: Some(Label::from_bool(v)) },
        _ => Mutation::Cast { source: s, fact: f, vote: if v { Vote::True } else { Vote::False } },
    })
}

/// A snapshot as the codec encoded it through an owned mutation stream:
/// the state's canonical mutations (every source, every fact with its
/// label, then each fact's votes by source id), framed as one batch.
fn reference_snapshot(state: &DeltaDataset, seq: u64) -> Vec<u8> {
    let mut mutations = Vec::new();
    for s in (0..state.n_sources()).map(SourceId::new) {
        mutations.push(Mutation::AddSource { name: state.source_name(s).to_string() });
    }
    for f in (0..state.n_facts()).map(FactId::new) {
        mutations.push(Mutation::AddFact {
            name: state.fact_name(f).to_string(),
            label: state.label(f),
        });
    }
    for f in (0..state.n_facts()).map(FactId::new) {
        for sv in state.votes(f) {
            mutations.push(Mutation::Cast {
                source: state.source_name(sv.source).to_string(),
                fact: state.fact_name(f).to_string(),
                vote: sv.vote,
            });
        }
    }
    let put_str = |buf: &mut Vec<u8>, s: &str| {
        buf.extend_from_slice(&u32::try_from(s.len()).unwrap().to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    };
    let mut payload = Vec::new();
    for m in &mutations {
        match m {
            Mutation::AddSource { name } => {
                payload.push(0);
                put_str(&mut payload, name);
            }
            Mutation::AddFact { name, label } => {
                payload.push(1);
                put_str(&mut payload, name);
                payload.push(match label {
                    None => 0,
                    Some(l) if l.as_bool() => 1,
                    Some(_) => 2,
                });
            }
            Mutation::Cast { source, fact, vote } => {
                payload.push(2);
                put_str(&mut payload, source);
                put_str(&mut payload, fact);
                payload.push(u8::from(*vote == Vote::True));
            }
        }
    }
    let count = u32::try_from(mutations.len()).unwrap().to_le_bytes();
    let len = u32::try_from(payload.len()).unwrap().to_le_bytes();
    let mut crc: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in count.iter().chain(&seq.to_le_bytes()).chain(&len).chain(&payload) {
        crc = (crc ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    let mut frame = b"CWB1".to_vec();
    frame.extend_from_slice(&count);
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&len);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Asserts that `got` is `want`'s state: names and ids both ways, labels,
/// signatures, vote count, an equal materialization, and nothing dirty in
/// `got`.
fn assert_same_state(got: &DeltaDataset, want: &DeltaDataset) {
    assert_eq!((got.n_sources(), got.n_facts()), (want.n_sources(), want.n_facts()));
    assert_eq!(got.n_votes(), want.n_votes());
    for s in (0..want.n_sources()).map(SourceId::new) {
        assert_eq!(got.source_name(s), want.source_name(s));
        assert_eq!(got.source_id(want.source_name(s)), Some(s));
    }
    for f in (0..want.n_facts()).map(FactId::new) {
        assert_eq!(got.fact_name(f), want.fact_name(f));
        assert_eq!(got.fact_id(want.fact_name(f)), Some(f));
        assert_eq!(got.label(f), want.label(f));
        assert_eq!(got.votes(f), want.votes(f));
    }
    assert_eq!(got.dirty_count(), 0, "a recovered state has nothing dirty");
    let (got, want) = (got.materialize().unwrap(), want.materialize().unwrap());
    assert_eq!(got.votes(), want.votes());
    assert_eq!(got.ground_truth(), want.ground_truth());
    assert!(got.sources().all(|s| got.source_name(s) == want.source_name(s)));
    assert!(got.facts().all(|f| got.fact_name(f) == want.fact_name(f)));
}

fn snapshot_bytes(fs: &FaultFs, dir: &Path) -> Vec<u8> {
    fs.dump(&dir.join("snapshot.cwb")).expect("a snapshot on disk")
}

proptest! {
    #[test]
    fn snapshots_encode_like_the_mutation_stream_and_decode_to_the_applied_state(
        stream in vec(arb_codec_mutation(), 0..120),
        chunk in 1usize..9,
    ) {
        let fs = FaultFs::new();
        let dir = PathBuf::from("/wal");
        let open = || Wal::open_with(&dir, WalConfig::default(), Arc::new(fs.clone()), &NOOP);
        let mut live = DeltaDataset::new();
        {
            let (mut wal, _) = open().unwrap();
            for batch in stream.chunks(chunk) {
                wal.append_batch(batch).unwrap();
                live.apply_all(batch).unwrap();
            }
            wal.compact(&live).unwrap();
        }
        let bytes = snapshot_bytes(&fs, &dir);
        prop_assert!(bytes == reference_snapshot(&live, stream.len() as u64));

        let (mut wal, recovery) = open().unwrap();
        prop_assert_eq!(recovery.replayed, 0);
        assert_same_state(&recovery.dataset, &live);
        wal.compact(&recovery.dataset).unwrap();
        prop_assert!(snapshot_bytes(&fs, &dir) == bytes, "re-encoding changed the bytes");
    }
}

/// Source names with every shape the codec must carry: a quote, a comma,
/// surrounding whitespace, a leading `#` and multi-byte characters.
const FIXTURE_SOURCES: [&str; 6] =
    ["alpha", "quote\"d", "comma,src", " padded source ", "#hashed", "ünïcødé 寿司"];

/// The fixed stream behind `fixtures/snapshot.cwb`: a voteless source,
/// labelled and unlabelled facts, labels that arrive after a fact's
/// votes, vote overrides, voteless facts and awkward names.
fn fixture_stream() -> Vec<Mutation> {
    let facts: Vec<String> = (0..40)
        .map(|i| format!("f{i:02}"))
        .chain(
            ["fact, with comma", "\"quoted\" fact", "#not a comment", "  spaced\tfact\n", "寿司 ✓"]
                .map(String::from),
        )
        .collect();
    let mut out = vec![Mutation::AddSource { name: "voteless".into() }];
    for (i, name) in facts.iter().enumerate().step_by(5) {
        out.push(Mutation::AddFact {
            name: name.clone(),
            label: Some(Label::from_bool(i % 2 == 0)),
        });
    }
    let cast = |k: usize, flip: bool| Mutation::Cast {
        source: FIXTURE_SOURCES[k % FIXTURE_SOURCES.len()].to_string(),
        fact: facts[(k * 7) % facts.len()].clone(),
        vote: if k.is_multiple_of(3) == flip { Vote::True } else { Vote::False },
    };
    for k in 0..140 {
        out.push(cast(k, false));
        if k % 9 == 4 {
            out.push(cast(k, true));
        }
        if k % 31 == 30 {
            out.push(Mutation::AddFact { name: format!("silent-{k}"), label: None });
        }
    }
    out.push(Mutation::AddFact { name: "silent-labelled".into(), label: Some(Label::True) });
    for name in facts.iter().skip(1).step_by(6) {
        out.push(Mutation::AddFact { name: name.clone(), label: Some(Label::False) });
    }
    out
}

/// FNV-1a over a state's names, labels, signatures and vote count.
fn state_digest(state: &DeltaDataset) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for s in (0..state.n_sources()).map(SourceId::new) {
        eat(state.source_name(s).as_bytes());
        eat(&[0xff]);
    }
    for f in (0..state.n_facts()).map(FactId::new) {
        eat(state.fact_name(f).as_bytes());
        eat(&[0xff, state.label(f).map_or(0, |l| if l.as_bool() { 1 } else { 2 })]);
        for sv in state.votes(f) {
            eat(&(sv.source.index() as u64).to_le_bytes());
            eat(&[u8::from(sv.vote == Vote::True)]);
        }
        eat(&[0xfe]);
    }
    eat(&(state.n_votes() as u64).to_le_bytes());
    hash
}

/// `fixtures/snapshot.cwb`: `Wal::compact` of [`fixture_stream`], appended
/// in batches of 16, as the codec wrote it when snapshots were encoded
/// through an owned mutation stream.
const MUTATION_STREAM_SNAPSHOT: &[u8] = include_bytes!("fixtures/snapshot.cwb");

#[test]
fn a_snapshot_from_the_mutation_stream_encoder_loads_and_reencodes_byte_for_byte() {
    let fs = FaultFs::new();
    let dir = PathBuf::from("/wal");
    fs.create_dir_all(&dir).unwrap();
    let mut file = fs.create(&dir.join("snapshot.cwb")).unwrap();
    file.write_all(MUTATION_STREAM_SNAPSHOT).unwrap();
    drop(file);

    let (mut wal, recovery) =
        Wal::open_with(&dir, WalConfig::default(), Arc::new(fs.clone()), &NOOP).unwrap();
    let stream = fixture_stream();
    assert_eq!(recovery.next_seq, stream.len() as u64 + 1);
    let state = &recovery.dataset;
    assert_eq!((state.n_sources(), state.n_facts(), state.n_votes()), (7, 50, 90));
    assert_eq!(format!("{:016x}", state_digest(state)), "412464ddd74be666");
    let mut applied = DeltaDataset::new();
    applied.apply_all(&stream).unwrap();
    assert_same_state(state, &applied);

    wal.compact(state).unwrap();
    assert!(snapshot_bytes(&fs, &dir) == MUTATION_STREAM_SNAPSHOT, "re-encoding changed the bytes");
}
