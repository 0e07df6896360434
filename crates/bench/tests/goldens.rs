//! Every report-writing bench bin is pinned by a golden: each bin under
//! `src/bin/` except the artifact checkers has an entry in
//! `tests/golden/manifest.json` whose golden it wrote (the golden's
//! `report` field names the bin), and every entry names an existing bin.

use std::collections::BTreeSet;
use std::path::Path;

use corroborate_obs::Json;

/// Bins that check artifacts instead of writing a report.
const CHECKERS: [&str; 2] = ["report_check", "trace_check"];

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
}

#[test]
fn every_bench_bin_has_a_golden() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden_dir = crate_dir.join("../../tests/golden");

    let bins: BTreeSet<String> = std::fs::read_dir(crate_dir.join("src/bin"))
        .expect("src/bin is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().expect("file name").to_string_lossy().into_owned())
        .filter(|name| !CHECKERS.contains(&name.as_str()))
        .collect();

    let manifest = read_json(&golden_dir.join("manifest.json"));
    let entries = manifest.get("goldens").and_then(Json::as_array).expect("goldens array");
    let mut pinned = BTreeSet::new();
    for entry in entries {
        let file = entry.get("golden").and_then(Json::as_str).expect("entry names its golden");
        let golden = read_json(&golden_dir.join(file));
        let report = golden.get("report").and_then(Json::as_str).expect("golden names its report");
        assert!(bins.contains(report), "{file} was written by `{report}`, which is no bench bin");
        pinned.insert(report.to_string());
    }

    let unpinned: Vec<&String> = bins.difference(&pinned).collect();
    assert!(
        unpinned.is_empty(),
        "bench bins with no golden in tests/golden/manifest.json: {unpinned:?} \
         (commit a --report output and a manifest entry; see docs/TESTING.md)"
    );
}
