//! A lightweight symbol/scope layer over the lexed token streams: item
//! boundaries, function bodies, intra-workspace call edges, lock-guard
//! live ranges, thread-spawn sites, and atomic accesses.
//!
//! Like the lexer this is deliberately *not* a parser — there is no type
//! information and no AST. Functions are found by scanning for `fn name`,
//! bodies by brace matching, lock acquisitions by the `.lock()` /
//! `.read()` / `.write()` shapes on a name the workspace declares with a
//! `Mutex`/`RwLock` type (plus helper functions whose signatures return a
//! `MutexGuard`/`RwLock*Guard`), and guard live ranges by the
//! enclosing block of the binding (or the end of the statement for
//! temporaries). Every consumer rule is heuristic and manifest-suppressible
//! — a wrong inference is recorded as a reasoned `allow` entry, never
//! hardcoded around.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};
use crate::workspace::{SourceFile, Workspace};

/// One `fn` item (free function or method) found in a source file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Plain function name (`lag_seconds`).
    pub name: String,
    /// The `impl` type the method lives in, when inside an impl block.
    pub owner: Option<String>,
    /// Index of the defining file in `Workspace::sources`.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body including both braces (`start == end` for
    /// bodyless trait declarations).
    pub body: (usize, usize),
    /// Whether the signature's return type names a guard
    /// (`MutexGuard`/`RwLockReadGuard`/`RwLockWriteGuard`) — calling such
    /// a helper acquires the lock it wraps.
    pub returns_guard: bool,
}

/// One direct lock acquisition (`expr.lock()` / `.read()` / `.write()`).
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Qualified lock identity, `file-stem.field` (`ship.inner`); resolved
    /// through same-file guard helpers when the receiver is `self`.
    pub lock: String,
    /// Token index of the `.` beginning the acquiring call.
    pub token: usize,
    /// 1-based line of the acquisition.
    pub line: u32,
}

/// A live range of one lock guard inside a function body.
#[derive(Debug, Clone)]
pub struct Guard {
    /// The lock held, when the acquisition could be resolved.
    pub lock: Option<String>,
    /// Binding name (`let guard = …`); `None` for temporaries.
    pub binding: Option<String>,
    /// Half-open token range (file token indices) the guard is live over.
    pub range: (usize, usize),
    /// 1-based line the guard is acquired on.
    pub line: u32,
}

/// What a blocking operation does, for L002 messages and the Condvar rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// File or socket I/O that can stall (`sync_data`, `write_all`, …).
    Io,
    /// `JoinHandle::join()` (argless `join()` only).
    Join,
    /// Channel receive (`recv`, `recv_timeout`).
    Recv,
    /// `Condvar::wait*` — blocking by design on its *own* lock; flagged
    /// only when another guard is live at the call.
    CondvarWait,
    /// Indirect call through a stored closure (`(self.clock)(…)`) — opaque
    /// code that must not run under a foreign lock.
    Callback,
}

/// One potentially blocking operation in a function body.
#[derive(Debug, Clone)]
pub struct Blocking {
    /// Operation name (`sync_data`, `recv`, or the callback field name).
    pub op: String,
    /// Classification for messages and the Condvar exception.
    pub kind: BlockKind,
    /// Token index of the operation identifier.
    pub token: usize,
    /// 1-based line of the operation.
    pub line: u32,
}

/// One `spawn(…)` site in a function body.
#[derive(Debug, Clone)]
pub struct Spawn {
    /// Token index of the `spawn` identifier.
    pub token: usize,
    /// 1-based line of the spawn.
    pub line: u32,
    /// Half-open token range of the spawn's argument list (inside parens).
    pub args: (usize, usize),
    /// The JoinHandle is discarded (statement position or `let _ =`) — no
    /// join/drain path can exist.
    pub discarded: bool,
}

/// One call site (`name(…)` or `expr.name(…)`), for workspace call edges.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name as written.
    pub name: String,
    /// Token index of the callee identifier.
    pub token: usize,
    /// 1-based line of the call.
    pub line: u32,
}

/// How an atomic access reads or writes its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// `load(…)`.
    Load,
    /// `store(…)`.
    Store,
    /// Read-modify-write (`fetch_*`, `swap`, `compare_exchange*`).
    Rmw,
    /// A standalone `fence(…)`.
    Fence,
}

/// One atomic access (or fence) with its written `Ordering`.
#[derive(Debug, Clone)]
pub struct AtomicAccess {
    /// Field the atomic lives in (`seq`, `count`); `(fence)` for fences.
    pub field: String,
    /// Method name as written (`fetch_max`, `load`, `fence`).
    pub op: String,
    /// Access classification.
    pub kind: AccessKind,
    /// The `Ordering` variant as written (`Relaxed`, `Acquire`, …); the
    /// first one in the call for `compare_exchange`.
    pub ordering: String,
    /// Token index of the operation identifier.
    pub token: usize,
    /// 1-based line of the access.
    pub line: u32,
}

/// Per-function facts extracted from one body.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Direct lock acquisitions anywhere in the body.
    pub acquires: Vec<Acquire>,
    /// Guard live ranges (bindings and temporaries).
    pub guards: Vec<Guard>,
    /// Direct blocking operations.
    pub blocking: Vec<Blocking>,
    /// `spawn` sites.
    pub spawns: Vec<Spawn>,
    /// Call sites, for intra-workspace call edges.
    pub calls: Vec<Call>,
}

/// The symbol/scope model of a whole workspace.
#[derive(Debug, Default)]
pub struct Model {
    /// Every function item, across all files.
    pub fns: Vec<FnDef>,
    /// Facts for `fns[i]`, index-parallel.
    pub facts: Vec<FnFacts>,
    /// Atomic accesses as `(file index, access)`.
    pub atomics: Vec<(usize, AtomicAccess)>,
}

const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Types whose `.lock()` / `.read()` / `.write()` acquire.
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock"];

/// Identifiers that look like calls but are control flow or constructors.
const NON_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "as", "in", "move", "else", "unsafe", "fn",
    "let", "mut", "ref", "pub", "impl", "use", "mod", "struct", "enum", "trait", "type", "where",
    "const", "static", "Some", "None", "Ok", "Err", "self", "Self", "super", "crate", "true",
    "false", "dyn", "box", "drop",
];

fn blocking_kind(name: &str) -> Option<BlockKind> {
    match name {
        "sync_all" | "sync_data" | "fsync" | "read_to_end" | "read_exact" | "write_all"
        | "accept" | "connect" | "sleep" => Some(BlockKind::Io),
        "recv" | "recv_timeout" => Some(BlockKind::Recv),
        "join" => Some(BlockKind::Join),
        "wait" | "wait_timeout" | "wait_while" => Some(BlockKind::CondvarWait),
        _ => None,
    }
}

fn atomic_kind(name: &str) -> Option<AccessKind> {
    match name {
        "load" => Some(AccessKind::Load),
        "store" => Some(AccessKind::Store),
        "swap"
        | "fetch_add"
        | "fetch_sub"
        | "fetch_and"
        | "fetch_or"
        | "fetch_xor"
        | "fetch_max"
        | "fetch_min"
        | "fetch_nand"
        | "fetch_update"
        | "compare_exchange"
        | "compare_exchange_weak" => Some(AccessKind::Rmw),
        _ => None,
    }
}

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The file-stem used to qualify lock identities (`ship` for
/// `crates/serve/src/ship.rs`).
pub fn file_stem(rel_path: &str) -> &str {
    let name = rel_path.rsplit('/').next().unwrap_or(rel_path);
    name.strip_suffix(".rs").unwrap_or(name)
}

/// Finds the token index one past the `)` matching the `(` at `open`.
fn close_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct("(") {
            depth += 1;
        } else if tokens[i].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Walks left from the `.` of a method call to the field identifier of the
/// receiver, skipping one balanced `[…]` index group (`slot.words[w]` →
/// `words`).
fn receiver_field(tokens: &[Token], dot: usize) -> Option<String> {
    let mut i = dot;
    if i == 0 {
        return None;
    }
    i -= 1;
    if tokens[i].is_punct("]") {
        let mut depth = 0usize;
        loop {
            if tokens[i].is_punct("]") {
                depth += 1;
            } else if tokens[i].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if i == 0 {
                return None;
            }
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
    (tokens[i].kind == TokenKind::Ident).then(|| tokens[i].text.clone())
}

/// Scans one file for `fn` items (with impl owners) and appends them.
fn scan_fns(src: &SourceFile, file: usize, out: &mut Vec<FnDef>) {
    let tokens = &src.tokens;
    // (owner name, brace depth the impl body opened at)
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            while impl_stack.last().is_some_and(|(_, d)| *d > depth) {
                impl_stack.pop();
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            // `impl<T> Trait for Type { … }` / `impl Type { … }`: the
            // implementing type is the first ident after `for`, or the
            // first ident after the (optional) generic group.
            let mut j = i + 1;
            let mut owner = None;
            let mut after_for = false;
            while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_ident("where") {
                if tokens[j].is_ident("for") {
                    after_for = true;
                    owner = None;
                } else if owner.is_none()
                    && tokens[j].kind == TokenKind::Ident
                    && (after_for || !tokens[j].text.is_empty())
                {
                    owner = Some(tokens[j].text.clone());
                }
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct("{") {
                if let Some(owner) = owner {
                    impl_stack.push((owner, depth + 1));
                }
                depth += 1;
            }
            i = j + 1;
            continue;
        }
        if t.is_ident("fn") && tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
            let name = tokens[i + 1].text.clone();
            // Signature runs to the body `{` or a `;` (trait declaration),
            // at paren depth 0.
            let mut j = i + 2;
            let mut paren = 0usize;
            let mut returns_guard = false;
            while j < tokens.len() {
                let s = &tokens[j];
                if s.is_punct("(") {
                    paren += 1;
                } else if s.is_punct(")") {
                    paren = paren.saturating_sub(1);
                } else if paren == 0 && (s.is_punct("{") || s.is_punct(";")) {
                    break;
                } else if s.kind == TokenKind::Ident && GUARD_TYPES.contains(&s.text.as_str()) {
                    returns_guard = true;
                }
                j += 1;
            }
            let body = if j < tokens.len() && tokens[j].is_punct("{") {
                let mut b = 0usize;
                let mut k = j;
                while k < tokens.len() {
                    if tokens[k].is_punct("{") {
                        b += 1;
                    } else if tokens[k].is_punct("}") {
                        b -= 1;
                        if b == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                (j, (k + 1).min(tokens.len()))
            } else {
                (j, j)
            };
            out.push(FnDef {
                name,
                owner: impl_stack.last().map(|(o, _)| o.clone()),
                file,
                line: t.line,
                body,
                returns_guard,
            });
            i = body.0.max(i + 2);
            continue;
        }
        i += 1;
    }
}

/// Is `tokens[i]` the `.` of the `.lock()` / `.read()` / `.write()`
/// shape (empty parens), whatever the receiver?
fn acquire_shape_at(tokens: &[Token], i: usize) -> bool {
    tokens[i].is_punct(".")
        && tokens
            .get(i + 1)
            .is_some_and(|t| t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct("("))
        && tokens.get(i + 3).is_some_and(|t| t.is_punct(")"))
}

/// Adds every name `src` declares with a lock type to `out`: a field,
/// parameter, static or binding annotated `name: …` with `Mutex` or
/// `RwLock` in its type (`&Mutex<…>`, `Arc<RwLock<…>>`, `Vec<Mutex<…>>`),
/// a struct-literal field initialised with one, or a `let name = …`
/// whose initializer names one (`Mutex::new(…)`).
fn scan_lock_names(src: &SourceFile, out: &mut BTreeSet<String>) {
    let tokens = &src.tokens;
    for i in 0..tokens.len() {
        let Some(next) = tokens.get(i + 1) else { break };
        if tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let after_let = |k: usize| k > 0 && tokens[k - 1].is_ident("let");
        let bound = next.is_punct("=")
            && (after_let(i) || (i > 0 && tokens[i - 1].is_ident("mut") && after_let(i - 1)));
        if !next.is_punct(":") && !bound {
            continue;
        }
        // The type or initializer runs to a `;`, `{` or `}`, or to a `,`,
        // `=` or closing bracket outside every bracket it opens.
        let mut depth = 0usize;
        for t in &tokens[i + 2..] {
            if t.kind == TokenKind::Ident && LOCK_TYPES.contains(&t.text.as_str()) {
                out.insert(tokens[i].text.clone());
                break;
            }
            if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                break;
            }
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") || t.is_punct(">>") {
                let closed = if t.is_punct(">>") { 2 } else { 1 };
                if depth < closed {
                    break;
                }
                depth -= closed;
            } else if depth == 0 && (t.is_punct(",") || t.is_punct("=")) {
                break;
            }
        }
    }
}

/// A builder with the cross-file context body extraction needs.
struct Extractor<'a> {
    ws: &'a Workspace,
    fns: &'a [FnDef],
    /// Names of functions whose signature returns a guard type.
    guard_fn_names: Vec<String>,
    /// Names the workspace declares with a lock type.
    lock_names: BTreeSet<String>,
}

impl<'a> Extractor<'a> {
    /// Is `tokens[i]` the `.` of a direct acquisition: the `.lock()` /
    /// `.read()` / `.write()` shape on a name declared with a lock type,
    /// or on `self` naming a guard-returning helper (`self.lock()`)? A
    /// plain type's `.read()` is an ordinary call.
    fn acquire_at(&self, tokens: &[Token], i: usize) -> bool {
        if !acquire_shape_at(tokens, i) {
            return false;
        }
        match receiver_field(tokens, i) {
            Some(receiver) if receiver == "self" => {
                self.guard_fn_names.iter().any(|n| *n == tokens[i + 1].text)
            }
            Some(receiver) => self.lock_names.contains(&receiver),
            None => false,
        }
    }

    /// Resolves a callee name from `file`: all same-file definitions win;
    /// otherwise a unique same-crate definition; otherwise a unique
    /// workspace-wide definition; otherwise unresolved (empty).
    fn resolve(&self, file: usize, name: &str) -> Vec<usize> {
        let same_file: Vec<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.name == name)
            .map(|(i, _)| i)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let crate_dir = self.ws.sources[file].crate_dir();
        let same_crate: Vec<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name && self.ws.sources[f.file].crate_dir() == crate_dir)
            .map(|(i, _)| i)
            .collect();
        if same_crate.len() == 1 {
            return same_crate;
        }
        if !same_crate.is_empty() {
            return Vec::new(); // ambiguous
        }
        let anywhere: Vec<usize> =
            self.fns.iter().enumerate().filter(|(_, f)| f.name == name).map(|(i, _)| i).collect();
        if anywhere.len() == 1 {
            anywhere
        } else {
            Vec::new()
        }
    }

    /// The lock a direct acquisition at `dot` acquires, resolving `self.X()`
    /// through same-file guard helpers (depth-limited).
    fn acquire_lock_id(&self, file: usize, dot: usize, depth: usize) -> Option<String> {
        let tokens = &self.ws.sources[file].tokens;
        let field = receiver_field(tokens, dot)?;
        if field != "self" {
            return Some(format!("{}.{}", file_stem(&self.ws.sources[file].rel_path), field));
        }
        if depth == 0 {
            return None;
        }
        // `self.lock()` — delegate to the same-file helper of that name.
        let method = &tokens[dot + 1].text;
        self.helper_lock_id(file, method, depth - 1)
    }

    /// The lock a guard-returning helper `name` (resolved from `file`)
    /// acquires: the first direct acquisition inside its body.
    fn helper_lock_id(&self, file: usize, name: &str, depth: usize) -> Option<String> {
        for idx in self.resolve(file, name) {
            let def = &self.fns[idx];
            if !def.returns_guard {
                continue;
            }
            let tokens = &self.ws.sources[def.file].tokens;
            for i in def.body.0..def.body.1 {
                if self.acquire_at(tokens, i) {
                    if let Some(id) = self.acquire_lock_id(def.file, i, depth) {
                        return Some(id);
                    }
                }
            }
        }
        None
    }

    /// Token index one past the end of the statement containing `from`:
    /// the first `;` at relative depth ≤ 0, or the `}` that closes the
    /// enclosing block. Used for temporary-guard live ranges.
    fn statement_end(tokens: &[Token], from: usize, limit: usize) -> usize {
        let mut paren = 0i32;
        let mut brace = 0i32;
        let mut i = from;
        while i < limit {
            let t = &tokens[i];
            if t.is_punct("(") || t.is_punct("[") {
                paren += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                paren -= 1;
                if paren < 0 {
                    return i + 1; // expression ends inside an outer call
                }
            } else if t.is_punct("{") {
                brace += 1;
            } else if t.is_punct("}") {
                brace -= 1;
                if brace < 0 {
                    return i; // tail expression of the enclosing block
                }
            } else if t.is_punct(";") && paren <= 0 && brace <= 0 {
                return i + 1;
            }
            i += 1;
        }
        limit
    }

    /// Token index of the `}` closing the block enclosing `from`.
    fn enclosing_block_end(tokens: &[Token], from: usize, limit: usize) -> usize {
        let mut depth = 0i32;
        let mut i = from;
        while i < limit {
            if tokens[i].is_punct("{") {
                depth += 1;
            } else if tokens[i].is_punct("}") {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            i += 1;
        }
        limit
    }

    /// Skips a `?`/`.unwrap()`/`.expect(…)`/`.unwrap_or_else(…)` chain
    /// after a call's closing paren; returns the next token index.
    fn skip_result_chain(tokens: &[Token], mut i: usize) -> usize {
        loop {
            if tokens.get(i).is_some_and(|t| t.is_punct("?")) {
                i += 1;
                continue;
            }
            let adapter = tokens.get(i).is_some_and(|t| t.is_punct("."))
                && tokens.get(i + 1).is_some_and(|t| {
                    t.is_ident("unwrap") || t.is_ident("expect") || t.is_ident("unwrap_or_else")
                })
                && tokens.get(i + 2).is_some_and(|t| t.is_punct("("));
            if adapter {
                i = close_paren(tokens, i + 2);
                continue;
            }
            return i;
        }
    }

    /// Whether a spawn's JoinHandle is discarded: the spawn is in statement
    /// position (or bound to `_`) rather than bound, assigned, or passed as
    /// an argument.
    fn spawn_discarded(tokens: &[Token], spawn: usize, body_start: usize) -> bool {
        let mut depth = 0i32;
        let mut i = spawn;
        let mut saw_eq = false;
        while i > body_start {
            i -= 1;
            let t = &tokens[i];
            if t.is_punct(")") || t.is_punct("]") {
                depth += 1;
            } else if t.is_punct("(") || t.is_punct("[") {
                if depth == 0 {
                    return false; // an argument — the callee keeps the handle
                }
                depth -= 1;
            } else if depth == 0 {
                if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                    break;
                }
                if t.is_punct("=") {
                    saw_eq = true;
                }
                if t.is_ident("let") {
                    let mut b = i + 1;
                    if tokens.get(b).is_some_and(|t| t.is_ident("mut")) {
                        b += 1;
                    }
                    return tokens.get(b).is_some_and(|t| t.is_ident("_"));
                }
            }
        }
        !saw_eq
    }

    /// Extracts all facts from one function body.
    fn extract(&self, def: &FnDef) -> FnFacts {
        let src = &self.ws.sources[def.file];
        let tokens = &src.tokens;
        let (start, end) = def.body;
        let mut facts = FnFacts::default();
        // Ranges of `scope(…)` calls — `scope.spawn` inside std::thread::scope
        // joins implicitly and is exempt from the detached-thread rule.
        let mut scoped: Vec<(usize, usize)> = Vec::new();
        for i in start..end {
            if tokens[i].is_ident("scope") && tokens.get(i + 1).is_some_and(|t| t.is_punct("(")) {
                scoped.push((i + 1, close_paren(tokens, i + 1)));
            }
        }
        // Acquire tokens consumed by a `let` guard binding, so the second
        // pass does not also record them as temporaries.
        let mut bound_acquires: Vec<usize> = Vec::new();

        // Pass 1: `let` guard bindings.
        let mut i = start;
        while i < end {
            let is_plain_let = tokens[i].is_ident("let")
                && !(i > 0 && (tokens[i - 1].is_ident("if") || tokens[i - 1].is_ident("while")));
            if !is_plain_let {
                i += 1;
                continue;
            }
            let mut b = i + 1;
            if tokens.get(b).is_some_and(|t| t.is_ident("mut")) {
                b += 1;
            }
            let Some(binding) = tokens.get(b).filter(|t| t.kind == TokenKind::Ident) else {
                i += 1;
                continue;
            };
            let binding = binding.text.clone();
            if !tokens.get(b + 1).is_some_and(|t| t.is_punct("=") || t.is_punct(":")) {
                i += 1;
                continue;
            }
            let stmt_end = Self::statement_end(tokens, b + 1, end);
            // First acquisition in the RHS at brace depth 0 (an acquire
            // nested in `{ … }` belongs to the inner block's own scan).
            let mut brace = 0i32;
            let mut acq: Option<(usize, usize, Option<String>)> = None; // (site, after, lock)
            let mut k = b + 1;
            while k < stmt_end {
                let t = &tokens[k];
                if t.is_punct("{") {
                    brace += 1;
                } else if t.is_punct("}") {
                    brace -= 1;
                } else if brace == 0 && self.acquire_at(tokens, k) {
                    let after = close_paren(tokens, k + 2);
                    acq = Some((k, after, self.acquire_lock_id(def.file, k, 3)));
                    break;
                } else if brace == 0
                    && t.kind == TokenKind::Ident
                    && self.guard_fn_names.iter().any(|n| n == &t.text)
                    && tokens.get(k + 1).is_some_and(|t| t.is_punct("("))
                    && !(k > 0 && tokens[k - 1].is_ident("fn"))
                    && !(k > 0 && tokens[k - 1].is_punct("."))
                {
                    // Free guard helper: `lock(&self.state)`.
                    let after = close_paren(tokens, k + 1);
                    acq = Some((k, after, self.helper_lock_id(def.file, &t.text, 3)));
                    break;
                }
                k += 1;
            }
            let Some((site, after, lock)) = acq else {
                i += 1;
                continue;
            };
            let chain_end = Self::skip_result_chain(tokens, after);
            if tokens.get(chain_end).is_some_and(|t| t.is_punct(";")) && chain_end + 1 >= stmt_end {
                // The binding *is* the guard: live to the enclosing block
                // end, or an earlier `drop(binding)`.
                let mut live_end = Self::enclosing_block_end(tokens, stmt_end, end);
                let mut d = stmt_end;
                while d + 3 < live_end {
                    if tokens[d].is_ident("drop")
                        && tokens[d + 1].is_punct("(")
                        && tokens[d + 2].is_ident(&binding)
                        && tokens[d + 3].is_punct(")")
                    {
                        live_end = d;
                        break;
                    }
                    d += 1;
                }
                facts.guards.push(Guard {
                    lock,
                    binding: Some(binding),
                    range: (stmt_end, live_end),
                    line: tokens[site].line,
                });
            } else {
                // Guard is a temporary inside a longer chain: live to the
                // end of this statement.
                facts.guards.push(Guard {
                    lock,
                    binding: None,
                    range: (site, stmt_end),
                    line: tokens[site].line,
                });
            }
            bound_acquires.push(site);
            i = stmt_end.max(i + 1);
        }

        // Pass 2: everything else, token by token.
        for i in start..end {
            let t = &tokens[i];
            // Direct acquisitions (including those consumed by pass 1 —
            // the acquire list feeds the lock-order graph either way).
            if self.acquire_at(tokens, i) {
                if let Some(lock) = self.acquire_lock_id(def.file, i, 3) {
                    facts.acquires.push(Acquire { lock: lock.clone(), token: i, line: t.line });
                    if !bound_acquires.contains(&i) {
                        facts.guards.push(Guard {
                            lock: Some(lock),
                            binding: None,
                            range: (i, Self::statement_end(tokens, i, end)),
                            line: t.line,
                        });
                    }
                }
                continue;
            }
            if t.kind != TokenKind::Ident {
                // Indirect call through a stored closure: `(self.field)(…)`.
                if t.is_punct("(")
                    && tokens.get(i + 1).is_some_and(|t| t.is_ident("self"))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct("."))
                    && tokens.get(i + 3).is_some_and(|t| t.kind == TokenKind::Ident)
                    && tokens.get(i + 4).is_some_and(|t| t.is_punct(")"))
                    && tokens.get(i + 5).is_some_and(|t| t.is_punct("("))
                {
                    facts.blocking.push(Blocking {
                        op: tokens[i + 3].text.clone(),
                        kind: BlockKind::Callback,
                        token: i,
                        line: t.line,
                    });
                }
                continue;
            }
            let followed_by_paren = tokens.get(i + 1).is_some_and(|t| t.is_punct("("));
            if !followed_by_paren || (i > 0 && tokens[i - 1].is_ident("fn")) {
                continue;
            }
            if i > 0 && self.acquire_at(tokens, i - 1) {
                // The `lock` ident of `.lock()` — already recorded as an
                // acquisition at the dot, not a call edge.
                continue;
            }
            let name = t.text.as_str();
            if name == "spawn" {
                let close = close_paren(tokens, i + 1);
                let args = (i + 2, close.saturating_sub(1));
                let in_scope = scoped.iter().any(|&(s, e)| i > s && i < e);
                if !in_scope {
                    // A spawn in tail-expression position returns its
                    // handle to the caller; only statement-position spawns
                    // (ending in `;`) can discard it.
                    let chain_end = Self::skip_result_chain(tokens, close);
                    let stmt = tokens.get(chain_end).is_some_and(|t| t.is_punct(";"));
                    facts.spawns.push(Spawn {
                        token: i,
                        line: t.line,
                        args,
                        discarded: stmt && Self::spawn_discarded(tokens, i, start),
                    });
                }
                continue;
            }
            if let Some(kind) = blocking_kind(name) {
                let argless = tokens.get(i + 2).is_some_and(|t| t.is_punct(")"));
                if kind != BlockKind::Join || argless {
                    facts.blocking.push(Blocking {
                        op: name.to_string(),
                        kind,
                        token: i,
                        line: t.line,
                    });
                }
                continue;
            }
            if atomic_kind(name).is_some() && i > 0 && tokens[i - 1].is_punct(".") {
                let close = close_paren(tokens, i + 1);
                let has_ordering = tokens[i + 1..close]
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && ORDERINGS.contains(&t.text.as_str()));
                if has_ordering {
                    // Atomic accesses are cataloged file-wide by
                    // `scan_atomics`; they are not workspace call edges.
                    continue;
                }
            }
            if !NON_CALLEES.contains(&name) {
                facts.calls.push(Call { name: name.to_string(), token: i, line: t.line });
            }
        }
        facts
    }
}

/// Scans one file for atomic accesses and fences (independent of function
/// structure — statics like `THREAD_IDS.fetch_add` live outside bodies).
fn scan_atomics(src: &SourceFile, file: usize, out: &mut Vec<(usize, AtomicAccess)>) {
    let tokens = &src.tokens;
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || !tokens.get(i + 1).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        if i > 0 && tokens[i - 1].is_ident("fn") {
            continue;
        }
        let close = close_paren(tokens, i + 1);
        let ordering = tokens[i + 1..close]
            .iter()
            .find(|t| t.kind == TokenKind::Ident && ORDERINGS.contains(&t.text.as_str()))
            .map(|t| t.text.clone());
        let Some(ordering) = ordering else { continue };
        if t.is_ident("fence") {
            out.push((
                file,
                AtomicAccess {
                    field: "(fence)".to_string(),
                    op: "fence".to_string(),
                    kind: AccessKind::Fence,
                    ordering,
                    token: i,
                    line: t.line,
                },
            ));
            continue;
        }
        let Some(kind) = atomic_kind(&t.text) else { continue };
        if i == 0 || !tokens[i - 1].is_punct(".") {
            continue;
        }
        let Some(field) = receiver_field(tokens, i - 1) else { continue };
        out.push((
            file,
            AtomicAccess { field, op: t.text.clone(), kind, ordering, token: i, line: t.line },
        ));
    }
}

/// Builds the symbol/scope model for a workspace.
pub fn build(ws: &Workspace) -> Model {
    let mut fns = Vec::new();
    for (file, src) in ws.sources.iter().enumerate() {
        scan_fns(src, file, &mut fns);
    }
    let guard_fn_names: Vec<String> =
        fns.iter().filter(|f| f.returns_guard).map(|f| f.name.clone()).collect();
    let mut lock_names = BTreeSet::new();
    for src in &ws.sources {
        scan_lock_names(src, &mut lock_names);
    }
    let extractor = Extractor { ws, fns: &fns, guard_fn_names, lock_names };
    let facts: Vec<FnFacts> = fns.iter().map(|def| extractor.extract(def)).collect();
    let mut atomics = Vec::new();
    for (file, src) in ws.sources.iter().enumerate() {
        scan_atomics(src, file, &mut atomics);
    }
    Model { fns, facts, atomics }
}

impl Model {
    /// The function whose body contains token `token` of file `file`, if
    /// any (innermost wins for nested items).
    pub fn enclosing_fn(&self, file: usize, token: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.file == file && f.body.0 <= token && token < f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }

    /// Resolves a callee name from `file` (same-file, then unique
    /// same-crate, then unique workspace-wide), returning fn indices.
    pub fn resolve(&self, ws: &Workspace, file: usize, name: &str) -> Vec<usize> {
        let extractor = Extractor {
            ws,
            fns: &self.fns,
            guard_fn_names: Vec::new(),
            lock_names: BTreeSet::new(),
        };
        extractor.resolve(file, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn model_for(path: &str, src: &str) -> (Workspace, Model) {
        let ws =
            Workspace { sources: vec![SourceFile::from_text(path, src)], ..Default::default() };
        let model = build(&ws);
        (ws, model)
    }

    #[test]
    fn fns_and_impl_owners_are_found() {
        let src = r#"
            pub fn free() {}
            impl ShipLog {
                fn lock(&self) -> MutexGuard<'_, Inner> { self.inner.lock().unwrap() }
                pub fn head(&self) -> u64 { self.lock().next_seq }
            }
            impl Drop for Wal {
                fn drop(&mut self) {}
            }
        "#;
        let (_, m) = model_for("crates/serve/src/ship.rs", src);
        let names: Vec<(&str, Option<&str>)> =
            m.fns.iter().map(|f| (f.name.as_str(), f.owner.as_deref())).collect();
        assert_eq!(
            names,
            [
                ("free", None),
                ("lock", Some("ShipLog")),
                ("head", Some("ShipLog")),
                ("drop", Some("Wal")),
            ]
        );
        assert!(m.fns[1].returns_guard);
        assert!(!m.fns[2].returns_guard);
    }

    #[test]
    fn direct_acquires_are_qualified_and_self_helpers_resolve() {
        let src = r#"
            struct ShipLog { inner: Mutex<Inner> }
            impl ShipLog {
                fn lock(&self) -> MutexGuard<'_, Inner> { self.inner.lock().unwrap() }
                fn head(&self) -> u64 { self.lock().next_seq }
            }
        "#;
        let (_, m) = model_for("crates/serve/src/ship.rs", src);
        let head = &m.facts[1];
        assert_eq!(head.acquires.len(), 1);
        assert_eq!(head.acquires[0].lock, "ship.inner");
    }

    #[test]
    fn a_plain_types_read_is_a_call_not_an_acquisition() {
        let src = r#"
            struct TruthRows { bytes: Vec<u8> }
            impl TruthRows {
                fn read(&self) -> usize { self.bytes.len() }
            }
            struct Shared { state: RwLock<u64> }
            fn f(rows: &TruthRows, shared: &Shared) -> usize {
                let n = rows.read();
                let g = shared.state.read().unwrap();
                n + *g as usize
            }
            fn g() -> u64 {
                let cell = Arc::new(Mutex::new(0));
                let v = *cell.lock().unwrap();
                v
            }
        "#;
        let (_, m) = model_for("crates/core/src/io.rs", src);
        let facts = |name: &str| &m.facts[m.fns.iter().position(|d| d.name == name).unwrap()];
        let f = facts("f");
        let locks: Vec<&str> = f.acquires.iter().map(|a| a.lock.as_str()).collect();
        assert_eq!(locks, ["io.state"], "rows.read() acquires nothing");
        assert_eq!(f.guards.len(), 1);
        assert!(f.calls.iter().any(|c| c.name == "read"), "rows.read() is an ordinary call");
        let g: Vec<&str> = facts("g").acquires.iter().map(|a| a.lock.as_str()).collect();
        assert_eq!(g, ["io.cell"], "a `let` built with Mutex::new declares a lock");
    }

    #[test]
    fn guard_bindings_live_to_block_end_and_temporaries_to_statement_end() {
        let src = r#"
            fn f(m: &Mutex<u64>) {
                let g = m.lock().unwrap();
                use_it(&g);
            }
            fn t(m: &Mutex<Vec<u64>>) -> usize {
                m.lock().unwrap().len()
            }
        "#;
        let (ws, m) = model_for("crates/serve/src/x.rs", src);
        let f = &m.facts[0];
        assert_eq!(f.guards.len(), 1);
        assert_eq!(f.guards[0].binding.as_deref(), Some("g"));
        assert_eq!(f.guards[0].lock.as_deref(), Some("x.m"));
        // `use_it` is inside the live range.
        let toks = &ws.sources[0].tokens;
        let use_it = toks.iter().position(|t| t.is_ident("use_it")).unwrap();
        assert!(f.guards[0].range.0 <= use_it && use_it < f.guards[0].range.1);

        let t = &m.facts[1];
        assert_eq!(t.guards.len(), 1);
        assert!(t.guards[0].binding.is_none(), "chained guard is a temporary");
    }

    #[test]
    fn inner_block_scopes_bound_the_guard() {
        let src = r#"
            fn f(rx: &Mutex<Receiver<u8>>) {
                let v = {
                    let guard = rx.lock().unwrap();
                    guard.recv()
                };
                handle(v);
            }
        "#;
        let (ws, m) = model_for("crates/serve/src/x.rs", src);
        let f = &m.facts[0];
        let named: Vec<&Guard> = f.guards.iter().filter(|g| g.binding.is_some()).collect();
        assert_eq!(named.len(), 1, "outer `let v` must not become a guard: {:?}", f.guards);
        let toks = &ws.sources[0].tokens;
        let handle = toks.iter().position(|t| t.is_ident("handle")).unwrap();
        assert!(handle >= named[0].range.1, "guard dies at the inner block end");
        // The recv is inside the guard range.
        let recv = f.blocking.iter().find(|b| b.op == "recv").unwrap();
        assert!(named[0].range.0 <= recv.token && recv.token < named[0].range.1);
    }

    #[test]
    fn drop_ends_the_live_range() {
        let src = r#"
            fn f(m: &Mutex<u64>) {
                let g = m.lock().unwrap();
                touch(&g);
                drop(g);
                after();
            }
        "#;
        let (ws, m) = model_for("crates/serve/src/x.rs", src);
        let g = &m.facts[0].guards[0];
        let toks = &ws.sources[0].tokens;
        let after = toks.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(after >= g.range.1, "drop(g) must end the guard range");
    }

    #[test]
    fn spawn_binding_detection() {
        let src = r#"
            fn ok() {
                let h = std::thread::Builder::new().name(n).spawn(move || work())?;
                keep(h);
            }
            fn pushed(v: &mut Vec<JoinHandle<()>>) {
                v.push(std::thread::spawn(move || work()));
            }
            fn detached() {
                std::thread::spawn(move || work());
            }
            fn underscore() {
                let _ = std::thread::spawn(move || work());
            }
            fn scoped() {
                std::thread::scope(|scope| {
                    scope.spawn(|| work());
                });
            }
        "#;
        let (_, m) = model_for("crates/serve/src/x.rs", src);
        assert!(!m.facts[0].spawns[0].discarded);
        assert!(!m.facts[1].spawns[0].discarded);
        assert!(m.facts[2].spawns[0].discarded);
        assert!(m.facts[3].spawns[0].discarded);
        assert!(m.facts[4].spawns.is_empty(), "scoped spawns join implicitly");
    }

    #[test]
    fn atomics_and_fences_are_cataloged_with_orderings() {
        let src = r#"
            fn w(slot: &Slot) {
                slot.seq.fetch_max(odd, Ordering::Relaxed);
                fence(Ordering::Release);
                slot.words[0].store(x, Ordering::Relaxed);
                slot.seq.fetch_max(even, Ordering::Release);
            }
            fn r(slot: &Slot) -> u64 {
                slot.seq.load(Ordering::Acquire)
            }
        "#;
        let (_, m) = model_for("crates/obs/src/trace.rs", src);
        let got: Vec<(String, String, String)> = m
            .atomics
            .iter()
            .map(|(_, a)| (a.field.clone(), a.op.clone(), a.ordering.clone()))
            .collect();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0], ("seq".into(), "fetch_max".into(), "Relaxed".into()));
        assert_eq!(got[1], ("(fence)".into(), "fence".into(), "Release".into()));
        assert_eq!(got[2], ("words".into(), "store".into(), "Relaxed".into()));
        assert_eq!(got[4], ("seq".into(), "load".into(), "Acquire".into()));
    }

    #[test]
    fn callback_calls_are_blocking_ops() {
        let src = r#"
            impl ShipLog {
                fn now_nanos(&self) -> u64 { (self.clock)() }
            }
        "#;
        let (_, m) = model_for("crates/serve/src/ship.rs", src);
        let b = &m.facts[0].blocking;
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].op, "clock");
        assert_eq!(b[0].kind, BlockKind::Callback);
    }
}
