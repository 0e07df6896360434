//! Determinism rules (D001–D003): the code paths that feed fingerprints,
//! golden reports, and selection decisions must be bit-identical across
//! runs, machines, and thread counts.
//!
//! The scope below is the workspace's reproducibility surface: the engines
//! (every selection and probability they emit is fingerprinted by the
//! conformance oracle), the golden-report differ, the JSON tree and record
//! types reports are rendered from, the deterministic planted-truth
//! simulator, and the serve layer's evaluated-state fingerprint and the
//! copy-on-write state it is computed from.

use crate::rules::Diagnostic;
use crate::workspace::{SourceFile, Workspace};

/// Path prefixes whose non-test code must be deterministic.
pub const SCOPE: &[&str] = &[
    "crates/algorithms/src/",
    "crates/core/src/shard.rs",
    "crates/testkit/src/golden.rs",
    "crates/testkit/src/oracle.rs",
    "crates/testkit/src/sim.rs",
    "crates/testkit/src/registry.rs",
    "crates/obs/src/report.rs",
    "crates/obs/src/json.rs",
    "crates/serve/src/epoch.rs",
    "crates/serve/src/delta.rs",
    "crates/serve/src/cow.rs",
    "crates/serve/src/replica.rs",
    "crates/serve/src/ship.rs",
    "crates/serve/src/cluster.rs",
];

/// Whether `rel_path` falls under the deterministic scope.
pub fn in_scope(rel_path: &str) -> bool {
    SCOPE.iter().any(|p| if p.ends_with('/') { rel_path.starts_with(p) } else { rel_path == *p })
}

/// Identifiers whose presence means hash-order iteration is possible.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Wall-clock types.
const CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

/// Identifiers that make behaviour depend on the machine's parallelism or
/// on an unseeded RNG.
const THREAD_SENSITIVE: &[&str] =
    &["available_parallelism", "num_cpus", "current_num_threads", "thread_rng"];

pub(crate) fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for file in ws.sources.iter().filter(|f| in_scope(&f.rel_path)) {
        check_file(file, out);
    }
}

fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        let in_test = file.in_test[i];
        if HASH_TYPES.contains(&tok.text.as_str()) {
            out.push(Diagnostic {
                rule: "D001",
                path: file.rel_path.clone(),
                line: tok.line,
                message: format!(
                    "`{}` in a deterministic path: iteration order varies between runs; \
                     use BTreeMap/BTreeSet or sort before anything ordered leaves this code",
                    tok.text
                ),
                in_test,
            });
        } else if CLOCK_TYPES.contains(&tok.text.as_str()) {
            out.push(Diagnostic {
                rule: "D002",
                path: file.rel_path.clone(),
                line: tok.line,
                message: format!(
                    "`{}` in a deterministic path: wall-clock readings belong in the \
                     observer layer, never in fingerprinted or golden-gated output",
                    tok.text
                ),
                in_test,
            });
        } else if THREAD_SENSITIVE.contains(&tok.text.as_str()) {
            out.push(Diagnostic {
                rule: "D003",
                path: file.rel_path.clone(),
                line: tok.line,
                message: format!(
                    "`{}` in a deterministic path: results must not depend on the \
                     machine's thread count or an unseeded RNG",
                    tok.text
                ),
                in_test,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn diags_for(path: &str, src: &str) -> Vec<Diagnostic> {
        let ws =
            Workspace { sources: vec![SourceFile::from_text(path, src)], ..Default::default() };
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    #[test]
    fn hash_map_in_engine_code_is_flagged() {
        let d = diags_for(
            "crates/algorithms/src/fake.rs",
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert!(d.iter().all(|d| d.rule == "D001"));
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        assert!(diags_for("crates/serve/src/queue.rs", "use std::time::Instant;").is_empty());
        assert!(diags_for("crates/obs/src/observer.rs", "Instant::now();").is_empty());
    }

    #[test]
    fn clock_and_thread_rules_fire_with_test_flag() {
        let src = "fn hot() { let t = Instant::now(); }\n\
                   #[cfg(test)]\nmod tests { fn f() { available_parallelism(); } }";
        let d = diags_for("crates/obs/src/report.rs", src);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].rule, "D002");
        assert!(!d[0].in_test);
        assert_eq!(d[1].rule, "D003");
        assert!(d[1].in_test);
    }

    #[test]
    fn replication_family_is_in_the_deterministic_scope() {
        // Replica views are fingerprint-compared against the primary, so
        // the whole replication family is clock- and hash-order-free.
        for path in [
            "crates/serve/src/replica.rs",
            "crates/serve/src/ship.rs",
            "crates/serve/src/cluster.rs",
        ] {
            assert!(in_scope(path), "{path} must be deterministic");
            let d = diags_for(path, "fn f() { let t = Instant::now(); }");
            assert_eq!(d.len(), 1, "{path}");
            assert_eq!(d[0].rule, "D002");
        }
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let src = "// HashMap here\nfn f() { let s = \"Instant::now\"; }";
        assert!(diags_for("crates/obs/src/json.rs", src).is_empty());
    }
}
