//! Seeded inputs. Every workload derives its world, its requests and its
//! write batches from the `--seed` argument alone; the program under test
//! only ever sees what these functions produce.

use corroborate_core::prelude::*;
use corroborate_datagen::synthetic::{generate, SyntheticConfig};
use corroborate_obs::Json;
use corroborate_serve::Mutation;

/// SplitMix64: a tiny deterministic generator for request streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and a per-purpose `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Generator seed of the paper's base-point world (as the engine's own
/// scaling bench uses).
pub const WORLD_SEED: u64 = 42;

/// The paper's synthetic world (§6.3.1 base point: 8 accurate and 2
/// inaccurate sources, η = 0.02) at `n_facts` candidate facts, drawn with
/// generator seed `world_seed`, with its facts shuffled and renamed by
/// `seed`.
///
/// The run seed deliberately does not redraw the world: with ten sources,
/// each seed's random trust and coverage draws change the signature-group
/// structure, and with it the engine's round count and run time, by a
/// third. Shuffling keeps that structure and still hands the program
/// different inputs for every seed: which name carries which votes, and
/// the order facts arrive in.
///
/// # Errors
/// Generator configuration failures.
pub fn world(n_facts: usize, world_seed: u64, seed: u64) -> Result<Dataset, String> {
    let config =
        SyntheticConfig { n_accurate: 8, n_inaccurate: 2, n_facts, eta: 0.02, seed: world_seed };
    let base = generate(&config).map_err(|e| format!("synthetic world: {e}"))?.dataset;
    let mut order: Vec<FactId> = base.facts().collect();
    let mut rng = Rng::new(seed, 0x5f);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut b = DatasetBuilder::new();
    for s in base.sources() {
        b.add_source(base.source_name(s).to_string());
    }
    let truth = base.ground_truth();
    let ids: Vec<FactId> = order
        .iter()
        .enumerate()
        .map(|(j, &f)| match truth {
            Some(t) => b.add_fact_with_truth(format!("f{j}"), t.label(f)),
            None => b.add_fact(format!("f{j}")),
        })
        .collect();
    for (&f, &id) in order.iter().zip(&ids) {
        for sv in base.votes().votes_on(f) {
            b.cast(sv.source, id, sv.vote).map_err(|e| format!("shuffled world: {e}"))?;
        }
    }
    b.build().map_err(|e| format!("shuffled world: {e}"))
}

/// Renders mutations as a `POST /v1/votes` body. The server applies the
/// sections in the order sources, facts, votes, so callers pass
/// mutations already in that order.
pub fn ingest_body(mutations: &[Mutation]) -> String {
    let mut sources = Vec::new();
    let mut facts = Vec::new();
    let mut votes = Vec::new();
    for m in mutations {
        match m {
            Mutation::AddSource { name } => sources.push(Json::from(name.as_str())),
            Mutation::AddFact { name, label } => {
                let mut f = Json::object();
                f.insert("name", name.as_str());
                f.insert("label", label.map_or(Json::Null, |l| Json::from(l.as_bool())));
                facts.push(f);
            }
            Mutation::Cast { source, fact, vote } => {
                let mut v = Json::object();
                v.insert("source", source.as_str());
                v.insert("fact", fact.as_str());
                v.insert("vote", vote.symbol().to_string());
                votes.push(v);
            }
        }
    }
    let mut body = Json::object();
    for (key, items) in [("sources", sources), ("facts", facts), ("votes", votes)] {
        if !items.is_empty() {
            body.insert(key, Json::Arr(items));
        }
    }
    body.to_json()
}

/// One write request: its mutations, the rendered body, and the probe
/// fact it carries, if any.
#[derive(Debug, Clone)]
pub struct WriteBatch {
    /// Mutations in application order.
    pub mutations: Vec<Mutation>,
    /// The JSON body sent.
    pub body: String,
    /// The never-seen fact whose visibility this write is probed by.
    pub probe: Option<String>,
}

impl WriteBatch {
    fn new(mutations: Vec<Mutation>, probe: Option<String>) -> Self {
        let body = ingest_body(&mutations);
        Self { mutations, body, probe }
    }
}

/// Vote churn on known names: `votes` random votes per batch by existing
/// sources on existing facts; every `probe_every`-th batch also registers
/// one never-seen probe fact with a vote.
pub fn churn_batches(
    world: &Dataset,
    seed: u64,
    count: usize,
    votes: usize,
    probe_every: usize,
) -> Vec<WriteBatch> {
    let mut rng = Rng::new(seed, 0xc4);
    let sources: Vec<&str> = world.sources().map(|s| world.source_name(s)).collect();
    (0..count)
        .map(|i| {
            let probe = ((i + 1) % probe_every == 0).then(|| format!("probe-{seed}-{i}"));
            let mut mutations = Vec::with_capacity(votes + 2);
            if let Some(name) = &probe {
                mutations.push(Mutation::AddFact { name: name.clone(), label: None });
            }
            for _ in 0..votes {
                let fact = FactId::new(rng.below(world.n_facts()));
                mutations.push(Mutation::Cast {
                    source: sources[rng.below(sources.len())].to_string(),
                    fact: world.fact_name(fact).to_string(),
                    vote: if rng.below(4) == 0 { Vote::False } else { Vote::True },
                });
            }
            if let Some(name) = &probe {
                mutations.push(Mutation::Cast {
                    source: sources[0].to_string(),
                    fact: name.clone(),
                    vote: Vote::True,
                });
            }
            WriteBatch::new(mutations, probe)
        })
        .collect()
}

/// Growth body `index`: a fresh synthetic sub-world of `n_facts` facts
/// (generator seed fixed per index, shuffled by `seed`) whose sources and
/// facts are all new (names prefixed `g{index}.`),
/// streamed as `DeltaDataset::mutations_of` orders it. Its last new fact
/// is the probe.
///
/// # Errors
/// Generator configuration failures.
pub fn growth_batch(seed: u64, index: usize, n_facts: usize) -> Result<WriteBatch, String> {
    let world = world(n_facts, WORLD_SEED + index as u64, seed)?;
    let prefix = |name: &str| format!("g{index}.{name}");
    let mutations: Vec<Mutation> = corroborate_serve::DeltaDataset::mutations_of(&world)
        .into_iter()
        .map(|m| match m {
            Mutation::AddSource { name } => Mutation::AddSource { name: prefix(&name) },
            Mutation::AddFact { name, label } => Mutation::AddFact { name: prefix(&name), label },
            Mutation::Cast { source, fact, vote } => {
                Mutation::Cast { source: prefix(&source), fact: prefix(&fact), vote }
            }
        })
        .collect();
    let probe = mutations.iter().rev().find_map(|m| match m {
        Mutation::AddFact { name, .. } => Some(name.clone()),
        _ => None,
    });
    Ok(WriteBatch::new(mutations, probe))
}

/// `count` fact names drawn uniformly from `world`.
pub fn read_names(world: &Dataset, seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x5ead);
    (0..count)
        .map(|_| world.fact_name(FactId::new(rng.below(world.n_facts()))).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corroborate_serve::DeltaDataset;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let w = world(500, WORLD_SEED, 3).unwrap();
        let a = churn_batches(&w, 3, 20, 5, 4);
        let b = churn_batches(&w, 3, 20, 5, 4);
        let c = churn_batches(&w, 4, 20, 5, 4);
        assert_eq!(
            a.iter().map(|x| &x.body).collect::<Vec<_>>(),
            b.iter().map(|x| &x.body).collect::<Vec<_>>()
        );
        assert_ne!(a[0].body, c[0].body);
        assert_eq!(a.iter().filter(|x| x.probe.is_some()).count(), 5);
        assert_eq!(read_names(&w, 3, 10), read_names(&w, 3, 10));
    }

    #[test]
    fn the_seed_shuffles_the_world_without_changing_its_shape() {
        let a = world(2000, WORLD_SEED, 1).unwrap();
        let b = world(2000, WORLD_SEED, 2).unwrap();
        assert_eq!((a.n_facts(), a.n_sources()), (b.n_facts(), b.n_sources()));
        assert_eq!(a.votes().n_votes(), b.votes().n_votes());
        let signature = |d: &Dataset, i: usize| {
            d.votes()
                .votes_on(FactId::new(i))
                .iter()
                .map(|sv| (sv.source, sv.vote))
                .collect::<Vec<_>>()
        };
        assert!((0..50).any(|i| signature(&a, i) != signature(&b, i)));
        let again = world(2000, WORLD_SEED, 1).unwrap();
        assert!((0..a.n_facts()).all(|i| signature(&a, i) == signature(&again, i)));
    }

    #[test]
    fn growth_bodies_bring_new_names_and_end_with_their_probe() {
        let b0 = growth_batch(9, 0, 200).unwrap();
        let b1 = growth_batch(9, 1, 200).unwrap();
        let probe = b0.probe.clone().unwrap();
        assert!(probe.starts_with("g0."));
        let mut d = DeltaDataset::new();
        d.apply_all(&b0.mutations).unwrap();
        let (sources, facts) = (d.n_sources(), d.n_facts());
        d.apply_all(&b1.mutations).unwrap();
        assert!(d.n_sources() > sources && d.n_facts() > facts);
        assert!(d.fact_id(&probe).is_some());
    }
}
