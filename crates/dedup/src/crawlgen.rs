//! Synthetic crawl generator: produces noisy raw-listing variants of a
//! known restaurant universe, so the dedup pipeline has realistic work to
//! do in examples and tests (the paper's crawl yielded 42,969
//! raw listings that deduplicated to 36,916 entities — ≈16% duplication).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::listing::RawListing;

/// A ground-truth restaurant used to seed the synthetic crawl.
#[derive(Debug, Clone)]
pub struct Restaurant {
    /// Canonical name.
    pub name: String,
    /// Canonical address.
    pub address: String,
    /// Whether the restaurant is actually open.
    pub open: bool,
}

/// Configuration of the synthetic crawl.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Source names; each lists a restaurant independently.
    pub sources: Vec<String>,
    /// Probability a source lists an open restaurant.
    pub coverage: f64,
    /// Probability a source (erroneously) lists a closed restaurant.
    pub stale_rate: f64,
    /// Probability a source that *knows* a restaurant closed marks it
    /// CLOSED instead of silently listing it.
    pub closed_flag_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        Self {
            sources: vec![
                "YellowPages".into(),
                "CitySearch".into(),
                "Yelp".into(),
                "MenuPages".into(),
            ],
            coverage: 0.7,
            stale_rate: 0.4,
            closed_flag_rate: 0.2,
            seed: 42,
        }
    }
}

/// Address presentation variants a crawler would observe.
fn vary_address(address: &str, rng: &mut StdRng) -> String {
    let mut out = String::new();
    for token in address.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        let varied = match token.to_lowercase().as_str() {
            "street" => ["St", "St.", "Street"][rng.gen_range(0..3)].to_string(),
            "west" => ["W", "W.", "West"][rng.gen_range(0..3)].to_string(),
            "east" => ["E", "E.", "East"][rng.gen_range(0..3)].to_string(),
            "avenue" => ["Ave", "Ave.", "Avenue"][rng.gen_range(0..3)].to_string(),
            _ => token.to_string(),
        };
        out.push_str(&varied);
    }
    out
}

/// Name presentation variants (possessive apostrophes, suffixes, case).
fn vary_name(name: &str, rng: &mut StdRng) -> String {
    let mut n = name.to_string();
    match rng.gen_range(0..4) {
        0 => {}
        1 => n = n.replace('\'', ""),
        2 => n = format!("{n} Restaurant"),
        _ => n = n.to_uppercase(),
    }
    n
}

/// Crawls the universe: every source independently lists restaurants with
/// noisy name/address presentation; closed restaurants may appear stale
/// (listed as open) or flagged CLOSED.
pub fn synthetic_crawl(universe: &[Restaurant], config: &CrawlConfig) -> Vec<RawListing> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut listings = Vec::new();
    for r in universe {
        for source in &config.sources {
            let (lists, closed_flag) = if r.open {
                (rng.gen_bool(config.coverage), false)
            } else if rng.gen_bool(config.stale_rate) {
                (true, rng.gen_bool(config.closed_flag_rate))
            } else {
                (false, false)
            };
            if !lists {
                continue;
            }
            listings.push(RawListing::new(
                vary_name(&r.name, &mut rng),
                vary_address(&r.address, &mut rng),
                source.clone(),
                closed_flag,
            ));
        }
    }
    listings
}

/// A small named universe handy for examples and tests.
pub fn demo_universe() -> Vec<Restaurant> {
    let spec: &[(&str, &str, bool)] = &[
        ("Danny's Grand Sea Palace", "346 West 46th Street", false),
        ("M Bar", "12 West 44th Street", true),
        ("Cafe Mogador", "101 Saint Marks Place", true),
        ("Joe's Pizza", "7 Carmine Street", true),
        ("Luna Trattoria", "224 East 14th Street", false),
        ("Golden Dragon", "58 Mott Street", true),
        ("The Brindle Room", "277 East 10th Street", true),
        ("Petit Oven", "276 Bay Ridge Avenue", false),
        ("Corner Bistro", "331 West 4th Street", true),
        ("Empire Diner", "210 Tenth Avenue", false),
    ];
    spec.iter()
        .map(|&(n, a, open)| Restaurant { name: n.into(), address: a.into(), open })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::dedup_to_dataset;

    #[test]
    fn crawl_is_deterministic() {
        let u = demo_universe();
        let a = synthetic_crawl(&u, &CrawlConfig::default());
        let b = synthetic_crawl(&u, &CrawlConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn open_restaurants_are_never_flagged_closed() {
        let u = demo_universe();
        let listings = synthetic_crawl(&u, &CrawlConfig::default());
        for l in &listings {
            if l.closed {
                let r = u.iter().find(|r| {
                    crate::similarity::listing_similarity(
                        &r.name.to_lowercase(),
                        &l.name.to_lowercase(),
                    ) > 0.6
                });
                assert!(r.is_none_or(|r| !r.open), "{l:?}");
            }
        }
    }

    #[test]
    fn dedup_recovers_roughly_the_universe_size() {
        let u = demo_universe();
        let listings = synthetic_crawl(&u, &CrawlConfig::default());
        assert!(listings.len() > u.len(), "crawl must contain duplicates");
        let out = dedup_to_dataset(&listings).unwrap();
        // Every recovered entity corresponds to one universe restaurant;
        // noise may split an entity occasionally but never explode.
        assert!(out.dataset.n_facts() <= listings.len());
        assert!(
            out.dataset.n_facts() <= u.len() + 3,
            "{} entities from {} restaurants",
            out.dataset.n_facts(),
            u.len()
        );
    }

    #[test]
    fn variants_normalise_to_the_same_address() {
        use crate::address::normalize_address;
        let mut rng = StdRng::seed_from_u64(1);
        let canonical = normalize_address("346 West 46th Street");
        for _ in 0..20 {
            let v = vary_address("346 West 46th Street", &mut rng);
            assert_eq!(normalize_address(&v), canonical, "{v}");
        }
    }
}
