//! Concurrency-protocol rules (L001/L002, A001/A002, T001/T002), built on
//! the symbol/scope model in [`crate::model`].
//!
//! - **L-rules** — the lock-acquisition-order graph. L001 flags cycles
//!   (potential deadlock, including re-entrant acquisition of a
//!   non-reentrant mutex); L002 flags blocking operations — fsync, socket
//!   I/O, `JoinHandle::join`, channel recv, injected callbacks,
//!   `Condvar::wait` outside its own lock — while a guard is live, either
//!   directly or through resolved workspace calls.
//! - **A-rules** — every atomic access inside a declared
//!   `atomic_protocols` scope must name a declared field (A001) and meet
//!   its declared ordering floor (A002).
//! - **T-rules** — thread lifecycle. T001 flags spawns whose `JoinHandle`
//!   is discarded (no join/drain path); T002 flags a lock guard binding
//!   captured by a `spawn` closure.
//!
//! Everything here is heuristic: no type information, no alias analysis.
//! False positives are suppressed with reasoned manifest `allow` entries,
//! exactly like every other rule family.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::manifest::{ordering_rank, AtomicProtocol};
use crate::model::{self, AccessKind, BlockKind, Model};
use crate::rules::Diagnostic;
use crate::workspace::Workspace;

/// Method names too generic to resolve by name alone: calling `.get(…)` on
/// a map must not create a call edge to some unrelated `fn get` in the
/// same file. Free-function and `Type::assoc` calls are not filtered.
const COMMON_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "to_string",
    "to_owned",
    "to_vec",
    "as_str",
    "as_ref",
    "as_bytes",
    "as_slice",
    "map",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "filter",
    "filter_map",
    "find",
    "position",
    "fold",
    "collect",
    "extend",
    "entry",
    "or_insert",
    "or_insert_with",
    "retain",
    "drain",
    "take",
    "first",
    "last",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "splitn",
    "trim",
    "starts_with",
    "ends_with",
    "strip_prefix",
    "strip_suffix",
    "parse",
    "send",
    "flush",
    "push_str",
    "min",
    "max",
    "sum",
    "count",
    "rev",
    "chain",
    "zip",
    "enumerate",
    "keys",
    "values",
    "values_mut",
    "range",
    "append",
    "truncate",
    "resize",
    "reserve",
    "swap",
    "replace",
    "copied",
    "cloned",
    "any",
    "all",
    "skip",
    "flat_map",
    "flatten",
    "unwrap",
    "expect",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "then",
    "then_with",
    "cmp",
    "eq",
    "fmt",
    "hash",
    "finish",
    "field",
    "new",
    "default",
    "with_capacity",
    "from",
    "into",
    "abs",
    "floor",
    "ceil",
    "round",
    "sqrt",
    "ln",
    "log2",
    "powi",
    "powf",
    "min_by_key",
    "max_by_key",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "wrapping_add",
    "wrapping_sub",
    "to_le_bytes",
    "partial_cmp",
    "write_fmt",
    "seek",
];

/// One function's transitively derived facts.
#[derive(Debug, Default, Clone)]
struct Closure {
    /// Lock ids this function (or anything it calls) acquires.
    acquires: BTreeSet<String>,
    /// Labels of blocking operations this function (or anything it calls)
    /// can reach.
    blocks: BTreeSet<String>,
}

/// Call edges resolved to function indices, plus per-fn closures.
#[derive(Debug)]
struct Analysis {
    model: Model,
    /// For `fns[i]`: resolved callees as `(call-site token, fn index)`.
    callees: Vec<Vec<(usize, usize)>>,
    closures: Vec<Closure>,
}

fn block_label(op: &str, kind: BlockKind) -> String {
    match kind {
        BlockKind::Callback => format!("injected callback `{op}`"),
        _ => format!("`{op}`"),
    }
}

fn analyze(ws: &Workspace) -> Analysis {
    let model = model::build(ws);
    let mut callees: Vec<Vec<(usize, usize)>> = Vec::with_capacity(model.fns.len());
    for (i, facts) in model.facts.iter().enumerate() {
        let file = model.fns[i].file;
        let tokens = &ws.sources[file].tokens;
        let mut edges = Vec::new();
        for call in &facts.calls {
            let is_method = call.token > 0 && tokens[call.token - 1].is_punct(".");
            if is_method && COMMON_METHODS.contains(&call.name.as_str()) {
                continue;
            }
            for idx in model.resolve(ws, file, &call.name) {
                if idx != i {
                    edges.push((call.token, idx));
                }
            }
        }
        callees.push(edges);
    }
    // Direct facts, then a fixpoint over the call graph.
    let mut closures: Vec<Closure> = model
        .facts
        .iter()
        .map(|facts| Closure {
            acquires: facts.acquires.iter().map(|a| a.lock.clone()).collect(),
            blocks: facts.blocking.iter().map(|b| block_label(&b.op, b.kind)).collect(),
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..closures.len() {
            for &(_, callee) in &callees[i] {
                let (acq, blk) =
                    (closures[callee].acquires.clone(), closures[callee].blocks.clone());
                for a in acq {
                    changed |= closures[i].acquires.insert(a);
                }
                for b in blk {
                    changed |= closures[i].blocks.insert(b);
                }
            }
        }
        if !changed {
            break;
        }
    }
    Analysis { model, callees, closures }
}

/// The workspace lock-acquisition-order graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `(held, acquired)` → first site (`path`, line) establishing it.
    pub edges: BTreeMap<(String, String), (String, u32)>,
    /// Lock id → crate name, for DOT clustering.
    pub nodes: BTreeMap<String, String>,
    /// Nodes on some acquisition-order cycle.
    pub cyclic: BTreeSet<String>,
}

fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "root".to_string(),
    }
}

/// Lock id → crate, derived from the files that acquire each lock. A
/// stem alone is ambiguous (serve and dedup both own a `cluster.rs`), so
/// when several crates acquire the same id, the acquiring file whose stem
/// matches the id wins — that file minted the id.
fn lock_crates(ws: &Workspace, analysis: &Analysis) -> BTreeMap<String, String> {
    let mut crates: BTreeMap<String, String> = BTreeMap::new();
    for (i, facts) in analysis.model.facts.iter().enumerate() {
        let src = &ws.sources[analysis.model.fns[i].file];
        let krate = crate_of(&src.rel_path);
        for acq in &facts.acquires {
            let stem = acq.lock.split('.').next().unwrap_or(&acq.lock);
            let minted_here = model::file_stem(&src.rel_path) == stem;
            match crates.entry(acq.lock.clone()) {
                Entry::Vacant(e) => {
                    e.insert(krate.clone());
                }
                Entry::Occupied(mut e) => {
                    if minted_here {
                        e.insert(krate.clone());
                    }
                }
            }
        }
    }
    crates
}

impl LockGraph {
    fn add_node(&mut self, crates: &BTreeMap<String, String>, lock: &str) {
        self.nodes
            .entry(lock.to_string())
            .or_insert_with(|| crates.get(lock).cloned().unwrap_or_else(|| "root".to_string()));
    }

    fn add_edge(
        &mut self,
        crates: &BTreeMap<String, String>,
        from: &str,
        to: &str,
        path: &str,
        line: u32,
    ) {
        self.add_node(crates, from);
        self.add_node(crates, to);
        self.edges
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(|| (path.to_string(), line));
    }

    /// Strongly connected components with ≥2 nodes, plus self-loops,
    /// sorted; each is one potential-deadlock finding.
    fn cycles(&self) -> Vec<Vec<String>> {
        // Kosaraju: post-order on the graph, then components on the
        // transpose in reverse post-order.
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut radj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (from, to) in self.edges.keys() {
            adj.entry(from).or_default().insert(to);
            radj.entry(to).or_default().insert(from);
        }
        let mut order: Vec<&str> = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for start in self.nodes.keys() {
            if seen.contains(start.as_str()) {
                continue;
            }
            // Iterative DFS with an explicit "exit" marker for post-order.
            let mut stack: Vec<(&str, bool)> = vec![(start, false)];
            while let Some((node, exit)) = stack.pop() {
                if exit {
                    order.push(node);
                    continue;
                }
                if !seen.insert(node) {
                    continue;
                }
                stack.push((node, true));
                if let Some(next) = adj.get(node) {
                    for n in next {
                        if !seen.contains(n) {
                            stack.push((n, false));
                        }
                    }
                }
            }
        }
        let mut component: BTreeMap<&str, usize> = BTreeMap::new();
        let mut components: Vec<Vec<String>> = Vec::new();
        for &start in order.iter().rev() {
            if component.contains_key(start) {
                continue;
            }
            let id = components.len();
            let mut members = Vec::new();
            let mut stack = vec![start];
            while let Some(node) = stack.pop() {
                if component.contains_key(node) {
                    continue;
                }
                component.insert(node, id);
                members.push(node.to_string());
                if let Some(next) = radj.get(node) {
                    for n in next {
                        if !component.contains_key(n) {
                            stack.push(n);
                        }
                    }
                }
            }
            members.sort();
            components.push(members);
        }
        let mut out: Vec<Vec<String>> = components
            .into_iter()
            .filter(|c| c.len() > 1 || self.edges.contains_key(&(c[0].clone(), c[0].clone())))
            .collect();
        out.sort();
        out
    }

    /// Renders the graph as Graphviz DOT, one cluster per crate, cycle
    /// edges in red.
    pub fn to_dot(&self) -> String {
        let mut out = String::from(
            "// Lock-acquisition-order graph — generated by `corroborate_audit --lock-graph`.\n\
             // An edge A -> B means: B is acquired while a guard of A is live.\n\
             digraph lock_order {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n",
        );
        let mut by_crate: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (node, krate) in &self.nodes {
            by_crate.entry(krate).or_default().push(node);
        }
        for (krate, nodes) in &by_crate {
            out.push_str(&format!("  subgraph \"cluster_{krate}\" {{\n    label=\"{krate}\";\n"));
            for node in nodes {
                let style =
                    if self.cyclic.contains(*node) { " [color=red, penwidth=2]" } else { "" };
                out.push_str(&format!("    \"{node}\"{style};\n"));
            }
            out.push_str("  }\n");
        }
        for ((from, to), (path, line)) in &self.edges {
            let cyclic = self.cyclic.contains(from) && self.cyclic.contains(to);
            let color = if cyclic { ", color=red, penwidth=2" } else { "" };
            out.push_str(&format!("  \"{from}\" -> \"{to}\" [label=\"{path}:{line}\"{color}];\n"));
        }
        out.push_str("}\n");
        out
    }
}

/// Builds the lock-acquisition-order graph for a workspace (the same graph
/// L001 checks; exported by `--lock-graph`).
pub fn lock_graph(ws: &Workspace) -> LockGraph {
    let analysis = analyze(ws);
    build_graph(ws, &analysis)
}

fn build_graph(ws: &Workspace, analysis: &Analysis) -> LockGraph {
    let mut graph = LockGraph::default();
    let crates = lock_crates(ws, analysis);
    for (i, facts) in analysis.model.facts.iter().enumerate() {
        let def = &analysis.model.fns[i];
        let src = &ws.sources[def.file];
        // Every acquired lock is a node, even without ordering edges — an
        // exported graph that lists the locks but no edges is the useful
        // statement "nothing nests here".
        for acq in &facts.acquires {
            graph.add_node(&crates, &acq.lock);
        }
        for guard in &facts.guards {
            let Some(held) = guard.lock.as_deref() else { continue };
            // Direct acquisitions inside the live range (excluding the
            // acquisition that created this guard).
            for acq in &facts.acquires {
                if acq.token > guard.range.0
                    && acq.token < guard.range.1
                    && acq.token != guard.range.0
                {
                    graph.add_edge(&crates, held, &acq.lock, &src.rel_path, acq.line);
                }
            }
            // Calls inside the live range that transitively acquire.
            for &(token, callee) in &analysis.callees[i] {
                if token <= guard.range.0 || token >= guard.range.1 {
                    continue;
                }
                let line = src.tokens[token].line;
                for acquired in &analysis.closures[callee].acquires {
                    graph.add_edge(&crates, held, acquired, &src.rel_path, line);
                }
            }
        }
    }
    for cycle in graph.cycles() {
        for node in cycle {
            graph.cyclic.insert(node);
        }
    }
    graph
}

pub(crate) fn check(ws: &Workspace, protocols: &[AtomicProtocol], out: &mut Vec<Diagnostic>) {
    let analysis = analyze(ws);
    check_lock_order(ws, &analysis, out);
    check_blocking(ws, &analysis, out);
    check_threads(ws, &analysis, out);
    check_atomics(ws, &analysis, protocols, out);
}

fn check_lock_order(ws: &Workspace, analysis: &Analysis, out: &mut Vec<Diagnostic>) {
    let graph = build_graph(ws, analysis);
    for cycle in graph.cycles() {
        let ring = if cycle.len() == 1 {
            format!("`{0}` -> `{0}` (re-entrant acquisition of a non-reentrant lock)", cycle[0])
        } else {
            let mut ring = cycle.iter().map(|n| format!("`{n}`")).collect::<Vec<_>>().join(" -> ");
            ring.push_str(&format!(" -> `{}`", cycle[0]));
            ring
        };
        // Anchor the finding at the first edge site inside the cycle.
        let site = graph
            .edges
            .iter()
            .filter(|((f, t), _)| cycle.contains(f) && cycle.contains(t))
            .map(|(_, site)| site)
            .min()
            .cloned()
            .unwrap_or_default();
        out.push(Diagnostic {
            rule: "L001",
            path: site.0,
            line: site.1,
            message: format!(
                "lock-acquisition-order cycle: {ring} — two threads taking these locks in \
                 different orders can deadlock; pick one global order"
            ),
            in_test: false,
        });
    }
}

fn check_blocking(ws: &Workspace, analysis: &Analysis, out: &mut Vec<Diagnostic>) {
    for (i, facts) in analysis.model.facts.iter().enumerate() {
        let def = &analysis.model.fns[i];
        let src = &ws.sources[def.file];
        // Spawn argument ranges: code inside them runs on another thread,
        // so a live guard out here is not held in there (T002 covers the
        // capture case).
        let spawn_ranges: Vec<(usize, usize)> = facts.spawns.iter().map(|s| s.args).collect();
        let in_spawn = |token: usize| spawn_ranges.iter().any(|&(s, e)| token >= s && token < e);
        let live_guards = |token: usize| {
            facts
                .guards
                .iter()
                .filter(|g| g.range.0 < token && token < g.range.1)
                .collect::<Vec<_>>()
        };
        for b in &facts.blocking {
            if in_spawn(b.token) {
                continue;
            }
            let live = live_guards(b.token);
            if live.is_empty() {
                continue;
            }
            // Condvar waits block by design on their own (innermost) lock;
            // only a *second* live guard is a finding.
            if b.kind == BlockKind::CondvarWait && live.len() < 2 {
                continue;
            }
            let guard = live[0];
            let lock = guard.lock.as_deref().unwrap_or("<unresolved>");
            let message = match b.kind {
                BlockKind::Callback => format!(
                    "injected callback `{}` invoked in `{}` while `{lock}` guard (acquired \
                     line {}) is live — callbacks are opaque and may block or re-enter",
                    b.op, def.name, guard.line
                ),
                BlockKind::CondvarWait => format!(
                    "`{}` in `{}` waits while `{lock}` guard (acquired line {}) is also live — \
                     a condvar releases only its own lock while parked",
                    b.op, def.name, guard.line
                ),
                _ => format!(
                    "blocking `{}` in `{}` while `{lock}` guard (acquired line {}) is live — \
                     move the I/O outside the critical section",
                    b.op, def.name, guard.line
                ),
            };
            out.push(Diagnostic {
                rule: "L002",
                path: src.rel_path.clone(),
                line: b.line,
                message,
                in_test: src.in_test[b.token],
            });
        }
        for &(token, callee) in &analysis.callees[i] {
            if in_spawn(token) {
                continue;
            }
            let live = live_guards(token);
            if live.is_empty() {
                continue;
            }
            let blocks = &analysis.closures[callee].blocks;
            if blocks.is_empty() {
                continue;
            }
            let guard = live[0];
            let lock = guard.lock.as_deref().unwrap_or("<unresolved>");
            let labels: Vec<&str> = blocks.iter().map(String::as_str).take(4).collect();
            let callee_name = &analysis.model.fns[callee].name;
            out.push(Diagnostic {
                rule: "L002",
                path: src.rel_path.clone(),
                line: src.tokens[token].line,
                message: format!(
                    "call to `{callee_name}` in `{}` reaches blocking {} while `{lock}` guard \
                     (acquired line {}) is live",
                    def.name,
                    labels.join(", "),
                    guard.line
                ),
                in_test: src.in_test[token],
            });
        }
    }
}

fn check_threads(ws: &Workspace, analysis: &Analysis, out: &mut Vec<Diagnostic>) {
    for (i, facts) in analysis.model.facts.iter().enumerate() {
        let def = &analysis.model.fns[i];
        let src = &ws.sources[def.file];
        for spawn in &facts.spawns {
            if spawn.discarded {
                out.push(Diagnostic {
                    rule: "T001",
                    path: src.rel_path.clone(),
                    line: spawn.line,
                    message: format!(
                        "thread spawned in `{}` discards its JoinHandle — there is no \
                         join/drain path; bind the handle and join it on shutdown, or use \
                         a scoped thread",
                        def.name
                    ),
                    in_test: src.in_test[spawn.token],
                });
            }
            for guard in &facts.guards {
                let Some(binding) = guard.binding.as_deref() else { continue };
                if guard.range.0 >= spawn.token || spawn.token >= guard.range.1 {
                    continue;
                }
                let captured = (spawn.args.0..spawn.args.1.min(src.tokens.len()))
                    .any(|t| src.tokens[t].is_ident(binding));
                if captured {
                    let lock = guard.lock.as_deref().unwrap_or("<unresolved>");
                    out.push(Diagnostic {
                        rule: "T002",
                        path: src.rel_path.clone(),
                        line: spawn.line,
                        message: format!(
                            "lock guard `{binding}` of `{lock}` is captured by the spawn \
                             closure in `{}` — a MutexGuard must not cross a thread \
                             boundary; move the lock acquisition into the new thread",
                            def.name
                        ),
                        in_test: src.in_test[spawn.token],
                    });
                }
            }
        }
    }
}

fn kind_name(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Load => "load",
        AccessKind::Store => "store",
        AccessKind::Rmw => "rmw",
        AccessKind::Fence => "fence",
    }
}

fn check_atomics(
    ws: &Workspace,
    analysis: &Analysis,
    protocols: &[AtomicProtocol],
    out: &mut Vec<Diagnostic>,
) {
    for proto in protocols {
        for (file, access) in &analysis.model.atomics {
            let src = &ws.sources[*file];
            if !proto.path.matches(&src.rel_path) {
                continue;
            }
            let in_test = src.in_test[access.token];
            let fn_name = analysis
                .model
                .enclosing_fn(*file, access.token)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| "<top-level>".to_string());
            let Some(decl) = proto.fields.iter().find(|d| d.field == access.field) else {
                out.push(Diagnostic {
                    rule: "A001",
                    path: src.rel_path.clone(),
                    line: access.line,
                    message: format!(
                        "atomic `{}` ({} with {} in `{fn_name}`) is not declared in atomic \
                         protocol `{}` — declare its ordering floors and reason in the \
                         manifest's `atomic_protocols`",
                        access.field, access.op, access.ordering, proto.name
                    ),
                    in_test,
                });
                continue;
            };
            let floor = match access.kind {
                AccessKind::Load => &decl.load,
                AccessKind::Store => &decl.store,
                AccessKind::Rmw => &decl.rmw,
                AccessKind::Fence => &decl.fence,
            };
            let Some(floor) = floor else {
                out.push(Diagnostic {
                    rule: "A001",
                    path: src.rel_path.clone(),
                    line: access.line,
                    message: format!(
                        "atomic `{}.{}` in `{fn_name}` is a {} access, but protocol `{}` \
                         declares no {} floor for `{}` — declare one",
                        access.field,
                        access.op,
                        kind_name(access.kind),
                        proto.name,
                        kind_name(access.kind),
                        access.field
                    ),
                    in_test,
                });
                continue;
            };
            let (got, want) = (ordering_rank(&access.ordering), ordering_rank(floor));
            if got < want {
                out.push(Diagnostic {
                    rule: "A002",
                    path: src.rel_path.clone(),
                    line: access.line,
                    message: format!(
                        "`{}.{}({})` in `{fn_name}` is weaker than the declared {} floor \
                         `{floor}` of protocol `{}`",
                        access.field,
                        access.op,
                        access.ordering,
                        kind_name(access.kind),
                        proto.name
                    ),
                    in_test,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use crate::workspace::SourceFile;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            sources: files.iter().map(|(p, s)| SourceFile::from_text(p, s)).collect(),
            ..Default::default()
        }
    }

    fn diags(files: &[(&str, &str)], protocols: &[AtomicProtocol]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check(&ws(files), protocols, &mut out);
        out.sort_by(|a, b| (a.path.clone(), a.line, a.rule).cmp(&(b.path.clone(), b.line, b.rule)));
        out
    }

    #[test]
    fn l001_flags_opposed_lock_orders() {
        let src = r#"
            fn ab(a: &Mutex<u64>, b: &Mutex<u64>) {
                let ga = a.lock().unwrap();
                let gb = b.lock().unwrap();
                use_both(&ga, &gb);
            }
            fn ba(a: &Mutex<u64>, b: &Mutex<u64>) {
                let gb = b.lock().unwrap();
                let ga = a.lock().unwrap();
                use_both(&ga, &gb);
            }
        "#;
        let d = diags(&[("crates/serve/src/pair.rs", src)], &[]);
        let l001: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "L001").collect();
        assert_eq!(l001.len(), 1, "{d:?}");
        assert!(l001[0].message.contains("pair.a"));
        assert!(l001[0].message.contains("pair.b"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = r#"
            fn one(a: &Mutex<u64>, b: &Mutex<u64>) {
                let ga = a.lock().unwrap();
                let gb = b.lock().unwrap();
                use_both(&ga, &gb);
            }
            fn two(a: &Mutex<u64>, b: &Mutex<u64>) {
                let ga = a.lock().unwrap();
                let gb = b.lock().unwrap();
                use_both(&ga, &gb);
            }
        "#;
        let d = diags(&[("crates/serve/src/pair.rs", src)], &[]);
        assert!(d.iter().all(|d| d.rule != "L001"), "{d:?}");
    }

    #[test]
    fn l002_flags_fsync_and_callbacks_under_guard_directly_and_through_calls() {
        let src = r#"
            struct Log { state: Mutex<State>, clock: Box<dyn Fn() -> u64> }
            impl Log {
                fn now(&self) -> u64 { (self.clock)() }
                fn flush_locked(&self, file: &File) {
                    let inner = self.state.lock().unwrap();
                    file.sync_all().ok();
                    let t = self.now();
                    drop(inner);
                }
                fn clean(&self, file: &File) {
                    let t = self.now();
                    file.sync_all().ok();
                    let inner = self.state.lock().unwrap();
                    inner.touch();
                }
            }
        "#;
        let d = diags(&[("crates/serve/src/log.rs", src)], &[]);
        let l002: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "L002").collect();
        assert_eq!(l002.len(), 2, "{d:?}");
        assert!(l002[0].message.contains("sync_all"));
        assert!(l002[1].message.contains("injected callback `clock`"), "{}", l002[1].message);
        assert!(l002.iter().all(|d| d.message.contains("log.state")));
    }

    #[test]
    fn condvar_wait_on_its_own_lock_is_clean_but_a_second_guard_is_not() {
        let own = r#"
            fn park(m: &Mutex<bool>, cv: &Condvar) {
                let state = m.lock().unwrap();
                let state = cv.wait(state).unwrap();
            }
        "#;
        let d = diags(&[("crates/serve/src/q.rs", own)], &[]);
        assert!(d.iter().all(|d| d.rule != "L002"), "{d:?}");
        let foreign = r#"
            fn park(m: &Mutex<bool>, other: &Mutex<u64>, cv: &Condvar) {
                let outer = other.lock().unwrap();
                let state = m.lock().unwrap();
                let state = cv.wait(state).unwrap();
                touch(&outer);
            }
        "#;
        let d = diags(&[("crates/serve/src/q.rs", foreign)], &[]);
        assert_eq!(d.iter().filter(|d| d.rule == "L002").count(), 1, "{d:?}");
    }

    #[test]
    fn t001_flags_detached_spawns_only() {
        let src = r#"
            fn detached() {
                std::thread::spawn(move || work());
            }
            fn joined() -> JoinHandle<()> {
                std::thread::spawn(move || work())
            }
        "#;
        let d = diags(&[("crates/serve/src/threads.rs", src)], &[]);
        let t001: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "T001").collect();
        assert_eq!(t001.len(), 1, "{d:?}");
        assert!(t001[0].message.contains("detached"));
    }

    #[test]
    fn t002_flags_guard_captured_by_spawn() {
        let src = r#"
            fn bad(m: &'static Mutex<u64>) -> JoinHandle<()> {
                let guard = m.lock().unwrap();
                std::thread::spawn(move || consume(guard))
            }
        "#;
        let d = diags(&[("crates/serve/src/threads.rs", src)], &[]);
        assert_eq!(d.iter().filter(|d| d.rule == "T002").count(), 1, "{d:?}");
    }

    fn ring_protocols() -> Vec<AtomicProtocol> {
        Manifest::parse(
            r#"{
                "atomic_protocols": [
                    { "name": "ring", "path": "crates/obs/src/ring.rs",
                      "fields": {
                          "seq": { "store": "release", "load": "acquire", "rmw": "relaxed",
                                   "reason": "odd/even publication" }
                      } }
                ]
            }"#,
        )
        .unwrap()
        .atomic_protocols
    }

    #[test]
    fn a001_flags_undeclared_fields_and_kinds() {
        let src = r#"
            fn w(s: &Slot) {
                s.seq.store(1, Ordering::Release);
                s.extra.store(1, Ordering::Release);
                fence(Ordering::Acquire);
            }
        "#;
        let d = diags(&[("crates/obs/src/ring.rs", src)], &ring_protocols());
        let a001: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "A001").collect();
        assert_eq!(a001.len(), 2, "{d:?}");
        assert!(a001[0].message.contains("`extra`"));
        assert!(a001[1].message.contains("(fence)"), "{}", a001[1].message);
    }

    #[test]
    fn a002_flags_orderings_below_the_declared_floor() {
        let src = r#"
            fn w(s: &Slot) {
                s.seq.store(1, Ordering::Relaxed);
                s.seq.store(2, Ordering::SeqCst);
                s.seq.load(Ordering::Acquire);
                s.seq.fetch_max(3, Ordering::Relaxed);
            }
        "#;
        let d = diags(&[("crates/obs/src/ring.rs", src)], &ring_protocols());
        let a002: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "A002").collect();
        assert_eq!(a002.len(), 1, "{d:?}");
        assert!(a002[0].message.contains("seq.store(Relaxed)"), "{}", a002[0].message);
        assert!(a002[0].message.contains("`release`"));
    }

    #[test]
    fn files_outside_the_protocol_scope_are_ignored() {
        let src = "fn w(s: &Slot) { s.anything.store(1, Ordering::Relaxed); }";
        let d = diags(&[("crates/obs/src/other.rs", src)], &ring_protocols());
        assert!(d.iter().all(|d| d.rule != "A001" && d.rule != "A002"), "{d:?}");
    }

    #[test]
    fn lock_graph_dot_renders_clusters_and_edges() {
        let src = r#"
            fn ab(a: &Mutex<u64>, b: &Mutex<u64>) {
                let ga = a.lock().unwrap();
                let gb = b.lock().unwrap();
                use_both(&ga, &gb);
            }
        "#;
        let g = lock_graph(&ws(&[("crates/serve/src/pair.rs", src)]));
        assert_eq!(g.edges.len(), 1);
        let dot = g.to_dot();
        assert!(dot.contains("digraph lock_order"));
        assert!(dot.contains("cluster_serve"));
        assert!(dot.contains("\"pair.a\" -> \"pair.b\""));
        assert!(!dot.contains("color=red"));
    }

    #[test]
    fn a_plain_types_read_adds_no_lock_node() {
        let src = r#"
            struct TruthRows { bytes: Vec<u8> }
            impl TruthRows {
                fn read(&self) -> usize { self.bytes.len() }
            }
            fn load(rows: &TruthRows, m: &Mutex<u64>) -> usize {
                let g = m.lock().unwrap();
                rows.read() + *g as usize
            }
        "#;
        let g = lock_graph(&ws(&[("crates/core/src/io.rs", src)]));
        let dot = g.to_dot();
        assert!(dot.contains("\"io.m\";"), "{dot}");
        assert!(!dot.contains("io.rows"), "{dot}");
        assert!(g.edges.is_empty(), "{dot}");
    }
}
