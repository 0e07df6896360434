//! The rule catalogue and the driver that runs every rule over a loaded
//! workspace.
//!
//! Rules fall into three families, mirroring the invariants the rest of
//! the workspace *claims* but the compiler cannot check:
//!
//! - **Determinism (D…)** — fingerprints, golden reports, and selections
//!   are bit-identical across runs and thread counts, so the code paths
//!   that feed them must not consult hash-order iteration, wall clocks, or
//!   the machine's parallelism.
//! - **Forbidden API (F…)** — the serve request/epoch/WAL hot paths shed
//!   load and return errors; they never panic, and WAL framing arithmetic
//!   is explicit about overflow.
//! - **Consistency (C…)** — cross-file facts that drift silently: the
//!   telemetry catalog vs its emission sites and docs, feature gates vs
//!   `Cargo.toml`, the engine roster vs the conformance oracle, and
//!   relative links in the markdown docs.
//! - **Lock order (L…)** — the lock-acquisition-order graph has no cycles,
//!   and nothing blocks (fsync, socket I/O, join, channel recv, injected
//!   callbacks, foreign condvar waits) while a guard is live.
//! - **Atomics (A…)** — every atomic access inside a declared
//!   `atomic_protocols` scope names a declared field and meets its
//!   declared ordering floor.
//! - **Threads (T…)** — spawned workers keep a join/drain path, and lock
//!   guards never cross a `spawn` closure boundary.

pub mod concurrency;
pub mod consistency;
pub mod determinism;
pub mod forbidden;

use crate::manifest::AtomicProtocol;
use crate::workspace::Workspace;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (`D001`, `F002`, `C003`…).
    pub rule: &'static str,
    /// `/`-separated path of the offending file, relative to the root.
    pub path: String,
    /// 1-based line (0 when the finding is file-level).
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Whether the offending token sits in test-only code (`#[cfg(test)]`
    /// region, `tests/` or `benches/` directory). Manifest allow-entries
    /// can blanket-accept these with `"where": "test-code"`.
    pub in_test: bool,
}

/// Severity a rule reports at (before manifest overrides).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Counts toward a nonzero exit.
    Error,
    /// Reported; promoted to error by `--strict`.
    Warn,
    /// Suppressed entirely.
    Off,
}

/// A catalogue entry describing one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id referenced by manifests (`D001`).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line description for `--list-rules` and docs.
    pub summary: &'static str,
    /// Severity when the manifest does not override it.
    pub default_severity: Severity,
}

/// Every rule the audit knows, in report order.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        name: "hash-order-iteration",
        summary: "no HashMap/HashSet/RandomState in deterministic fingerprint/report/selection \
                  paths (iteration order varies run to run; use BTreeMap or sort)",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "D002",
        name: "wall-clock",
        summary: "no Instant/SystemTime in deterministic paths (timing must stay in the \
                  observer layer)",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "D003",
        name: "thread-sensitive",
        summary: "no thread-count-dependent constructs (available_parallelism, thread_rng) \
                  in deterministic paths — reduction order must not depend on parallelism",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "F001",
        name: "panic-api",
        summary: "no unwrap/expect/panic!/unreachable!/todo! in the serve request/epoch/WAL \
                  hot paths — shed load and return errors instead",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "F002",
        name: "unchecked-arithmetic",
        summary: "WAL framing arithmetic must be explicit (checked_/saturating_/wrapping_) — \
                  sequence numbers and byte offsets come from untrusted files",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "C001",
        name: "counter-registry-drift",
        summary: "every Counter/Span variant is listed in its ALL array and emitted from \
                  non-test code somewhere outside the registry",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "C002",
        name: "obs-docs-drift",
        summary: "every counter/span/gauge key appears (backticked) in docs/OBSERVABILITY.md",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "C003",
        name: "undeclared-feature",
        summary: "every #[cfg(feature = …)] names a feature declared in that crate's Cargo.toml",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "C004",
        name: "unregistered-engine",
        summary: "every Corroborator impl in corroborate-algorithms is constructed in the \
                  roster the conformance oracle drives",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "C005",
        name: "broken-doc-link",
        summary: "every relative markdown link in README/docs resolves to a real file",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "L001",
        name: "lock-order-cycle",
        summary: "the workspace lock-acquisition-order graph is acyclic — opposed acquisition \
                  orders (or re-entrant acquisition) can deadlock",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "L002",
        name: "blocking-under-lock",
        summary: "no blocking operation (fsync, socket I/O, join, channel recv, injected \
                  callback, foreign condvar wait) while a lock guard is live",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "A001",
        name: "undeclared-atomic",
        summary: "every atomic access in an `atomic_protocols` scope names a declared field \
                  with a declared floor for its access kind",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "A002",
        name: "weak-atomic-ordering",
        summary: "every atomic access in an `atomic_protocols` scope meets the declared \
                  ordering floor (Relaxed only where the manifest says so, with a reason)",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "T001",
        name: "detached-thread",
        summary: "every spawned thread's JoinHandle is kept — a discarded handle has no \
                  join/drain path on shutdown",
        default_severity: Severity::Error,
    },
    RuleInfo {
        id: "T002",
        name: "guard-crosses-spawn",
        summary: "no lock guard binding is captured by a `spawn` closure — guards must not \
                  cross thread boundaries",
        default_severity: Severity::Error,
    },
];

/// Looks up a catalogue entry by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    CATALOG.iter().find(|r| r.id == id)
}

/// Runs every rule over the workspace, returning raw diagnostics (before
/// any manifest filtering), sorted by path then line then rule. The
/// A-rules are driven by the manifest's declared `atomic_protocols`.
pub fn run_all(ws: &Workspace, protocols: &[AtomicProtocol]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    determinism::check(ws, &mut diags);
    forbidden::check(ws, &mut diags);
    consistency::check(ws, &mut diags);
    concurrency::check(ws, protocols, &mut diags);
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_unique_and_resolvable() {
        let mut ids: Vec<&str> = CATALOG.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CATALOG.len());
        assert!(rule_info("D001").is_some());
        assert!(rule_info("Z999").is_none());
    }
}
