//! # corroborate-dedup
//!
//! The data-cleaning substrate of the `corroborate` workspace — the
//! paper's §6.2.1 pipeline that turned 42,969 raw crawled listings into
//! 36,916 deduplicated restaurant entities:
//!
//! - [`address`] — rule-based street-address normalisation;
//! - [`similarity`] — term-level + character-3-gram cosine similarity
//!   (threshold 0.8);
//! - [`cluster`] — address-grouped union–find clustering;
//! - [`pipeline`] — raw listings → corroboration
//!   [`Dataset`](corroborate_core::dataset::Dataset) (CLOSED banners
//!   become `F` votes);
//! - [`crawlgen`] — a synthetic noisy crawl of a known universe, so the
//!   pipeline has realistic work in examples.
//!
//! ```
//! use corroborate_dedup::listing::RawListing;
//! use corroborate_dedup::pipeline::dedup_to_dataset;
//!
//! let crawl = vec![
//!     RawListing::new("M Bar", "12 W 44th St", "Yelp", false),
//!     RawListing::new("M Bar", "12 West 44th Street", "CitySearch", false),
//! ];
//! let out = dedup_to_dataset(&crawl).unwrap();
//! assert_eq!(out.dataset.n_facts(), 1); // one entity, two votes
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod address;
pub mod cluster;
pub mod crawlgen;
pub mod listing;
pub mod pipeline;
pub mod similarity;
