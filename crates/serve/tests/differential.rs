//! The streamed-vs-batch differential gate.
//!
//! Every testkit archetype is converted to its mutation stream and fed
//! through the [`EpochEngine`] in randomized chunk sizes (seeded, so
//! failures reproduce). After the drain epoch — a forced full recompute —
//! the published [`VerdictView`] must fingerprint bit-identically to a
//! one-shot batch evaluation of the same dataset, whatever the chunking,
//! and whatever mix of incremental/full epochs the scheduler picked along
//! the way.

use corroborate_serve::{
    evaluate_batch, DeltaDataset, EpochConfig, EpochEngine, EpochMode, Mutation,
};
use corroborate_testkit::sim::{generate, standard_archetypes};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Streams `mutations` through an engine in random chunks, running one
/// Auto epoch per chunk, then drains.
fn stream_in_chunks(
    mutations: &[Mutation],
    config: EpochConfig,
    rng: &mut StdRng,
) -> (u64, usize, usize) {
    let mut engine = EpochEngine::new(config).unwrap();
    let mut full_epochs = 0;
    let mut incremental_epochs = 0;
    let mut i = 0;
    while i < mutations.len() {
        let chunk = rng.gen_range(1usize..=64);
        let end = (i + chunk).min(mutations.len());
        for m in &mutations[i..end] {
            engine.apply(m).unwrap();
        }
        if engine.pending() > 0 {
            let (_, stats) = engine.run_epoch(EpochMode::Auto).unwrap();
            if stats.full {
                full_epochs += 1;
            } else {
                incremental_epochs += 1;
            }
        }
        i = end;
    }
    let (view, stats) = engine.drain().unwrap();
    assert!(stats.full, "drain must be a full recompute");
    (view.fingerprint(), full_epochs, incremental_epochs)
}

#[test]
fn every_archetype_streams_to_the_batch_fingerprint() {
    let config = EpochConfig::default();
    for (name, archetype) in standard_archetypes(41) {
        let world = generate(&archetype);
        let mutations = DeltaDataset::mutations_of(&world.dataset);
        let batch = evaluate_batch(world.dataset, &config).unwrap();
        let expected = batch.fingerprint();

        let mut rng = StdRng::seed_from_u64(0xd1ff ^ name.len() as u64);
        for trial in 0..3 {
            let (got, _, _) = stream_in_chunks(&mutations, config, &mut rng);
            assert_eq!(
                got, expected,
                "archetype {name}, trial {trial}: streamed fingerprint diverged from batch"
            );
        }
    }
}

#[test]
fn chunking_exercises_both_epoch_modes() {
    // With the default threshold, big archetypes streamed in small chunks
    // must actually take the incremental path some of the time — otherwise
    // the differential gate would only ever test full recomputes.
    let (_, archetype) = &standard_archetypes(42)[0];
    let world = generate(archetype);
    let mutations = DeltaDataset::mutations_of(&world.dataset);
    let mut rng = StdRng::seed_from_u64(7);
    let (_, full, incremental) = stream_in_chunks(&mutations, EpochConfig::default(), &mut rng);
    assert!(full >= 1, "the first epoch is always full");
    assert!(incremental >= 1, "expected at least one incremental epoch, got {incremental}");
}

#[test]
fn single_chunk_stream_equals_batch_exactly() {
    // Degenerate chunking: everything in one epoch. Beyond the
    // fingerprint, every probability and trust value matches bit-for-bit.
    let (_, archetype) = &standard_archetypes(43)[1];
    let world = generate(archetype);
    let mutations = DeltaDataset::mutations_of(&world.dataset);

    let mut engine = EpochEngine::new(EpochConfig::default()).unwrap();
    for m in &mutations {
        engine.apply(m).unwrap();
    }
    let (view, _) = engine.drain().unwrap();
    let batch = evaluate_batch(world.dataset, &EpochConfig::default()).unwrap();

    assert_eq!(view.fingerprint(), batch.fingerprint());
    let probs: Vec<u64> = view.probabilities().map(f64::to_bits).collect();
    let batch_probs: Vec<u64> = batch.probabilities().map(f64::to_bits).collect();
    assert_eq!(probs, batch_probs);
    let trust: Vec<u64> = view.trust().values().iter().map(|t| t.to_bits()).collect();
    let batch_trust: Vec<u64> = batch.trust().values().iter().map(|t| t.to_bits()).collect();
    assert_eq!(trust, batch_trust);
    assert_eq!(view.rounds(), batch.rounds());
}

#[test]
fn vote_overrides_converge_to_the_final_state() {
    // A stream that flips votes mid-way must converge to the batch result
    // of the *final* state (last writer wins), not any intermediate one.
    let (_, archetype) = &standard_archetypes(44)[2];
    let world = generate(archetype);
    let mutations = DeltaDataset::mutations_of(&world.dataset);

    // Prepend a contradicting copy of every vote: the final state is the
    // original dataset, reached through a full overwrite.
    let mut noisy: Vec<Mutation> = mutations
        .iter()
        .filter_map(|m| match m {
            Mutation::Cast { source, fact, vote } => Some(Mutation::Cast {
                source: source.clone(),
                fact: fact.clone(),
                vote: if vote.as_bool() {
                    corroborate_core::vote::Vote::False
                } else {
                    corroborate_core::vote::Vote::True
                },
            }),
            _ => None,
        })
        .collect();
    noisy.extend(mutations.iter().cloned());

    let mut rng = StdRng::seed_from_u64(99);
    let (got, _, _) = stream_in_chunks(&noisy, EpochConfig::default(), &mut rng);
    let batch = evaluate_batch(world.dataset, &EpochConfig::default()).unwrap();
    assert_eq!(got, batch.fingerprint());
}
