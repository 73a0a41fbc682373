//! Per-function lock/blocking summaries, fixpoint propagation, and the
//! two interprocedural rule families built on top of them.
//!
//! For every serve-path function the event scan records, in token
//! order: lock acquisitions (`.lock()` / `.read()` / `.write()` with
//! empty parens, and the workspace's `lock_recover(…)` poison-recovery
//! wrapper), guard lifetimes (named `let` bindings vs. temporaries held
//! to the end of their statement, `drop(g)`, scope exit), blocking
//! operations (fsync-class calls, `write_all`/`flush`/`read_exact`,
//! channel `recv`/`send`, `accept`, `thread::sleep`, `Condvar::wait`,
//! and anything under an `fs::` path), and call sites with the set of
//! guards held at each. Summaries then propagate over the approximate
//! call graph ([`crate::callgraph`]) to a fixpoint:
//!
//! * `can_block` — the shortest known chain of calls from this function
//!   to a blocking operation;
//! * `acquires_reach` — every lock key this function may acquire,
//!   directly or transitively, each with a witness chain.
//!
//! Two ratcheted rules come out of the fixpoint. **blocking-under-lock**
//! fires when a blocking operation is performed or transitively
//! reachable while any guard is live (fsync-class calls under a *named*
//! guard in the same scope stay with the older `lock-across-sync` rule
//! to avoid double findings). **lock-order** builds the global
//! acquisition-order graph over lock keys (`Wal.inner`,
//! `OnlineHopi.engine`, …) from both same-function nesting and
//! calls-while-holding; every cycle — a potential deadlock — is
//! reported once per strongly connected component with the full witness
//! chain. Both rules honor a `// lint: allow(RULE)` comment on the
//! finding line or the line above (applied by the scan merge).

use crate::callgraph::{extract_fns, FnItem, SymbolTable};
use crate::lexer::{Tok, Token};
use crate::rules::{
    excerpt, ident_at, is_punct, statement_end, Finding, NON_INDEX_KEYWORDS, SYNC_FNS,
};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Methods that block the calling thread (beyond fsync, which
/// [`SYNC_FNS`] already names): file and socket I/O, channel waits,
/// thread joins. `read`/`write` block only when called *with*
/// arguments — the no-argument forms are `RwLock` guard acquisitions.
const BLOCKING_METHODS: &[&str] = &[
    "accept",
    "flush",
    "read_exact",
    "read_to_end",
    "recv",
    "recv_timeout",
    "send",
    "set_len",
    "sync_all",
    "sync_data",
    "write_all",
];

/// Free or path-qualified functions that block (`thread::sleep`, the
/// VFS fsync helpers). Any call under an `fs::` path qualifier is also
/// blocking regardless of name.
const BLOCKING_BARE: &[&str] = &["atomic_write_file", "fsync", "sleep", "sync_parent_dir"];

/// Method names so common on std containers/iterators that resolving
/// them by name would alias unrelated workspace functions (e.g. a JSON
/// body's `.get(…)` must not resolve to the test client's network
/// `get`). Calls to these never produce call-graph edges.
const UBIQUITOUS_METHODS: &[&str] = &[
    "as_mut",
    "as_ref",
    "borrow",
    "clone",
    "cmp",
    "contains",
    "default",
    "eq",
    "fmt",
    "from",
    "get",
    "get_mut",
    "hash",
    "index",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "len",
    "next",
    "partial_cmp",
    "pop",
    "push",
    "remove",
    "to_owned",
    "to_string",
];

/// Combinators that transform an acquisition result without ending the
/// guard's life: `m.lock().unwrap_or_else(…)` still yields the guard.
const GUARD_ADAPTERS: &[&str] = &[
    "expect",
    "map_err",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
];

/// One step of a witness chain: a human-readable description anchored
/// to a source location.
#[derive(Clone, Debug)]
pub struct Step {
    /// What happens here (`` `Wal::append` holds Wal.inner, … ``).
    pub desc: String,
    /// Index into the scanned file list.
    pub file: usize,
    /// 1-based source line.
    pub line: u32,
}

type Chain = Vec<Step>;

/// A live guard during the event scan.
struct Guard {
    /// Lock key (`Wal.inner`); `None` for unkeyable receivers.
    key: Option<String>,
    /// `let` binding name, when the guard is named.
    binding: Option<String>,
    /// Brace depth at acquisition (guards die on scope exit).
    depth: i32,
    /// For temporaries: the token index at which the guard dies.
    temp_end: Option<usize>,
}

struct AcquireEv {
    key: Option<String>,
    line: u32,
    /// Keys held *before* this acquisition (named keys only).
    held: Vec<String>,
}

struct BlockEv {
    label: String,
    line: u32,
    /// Keys of every live guard (`?` for unkeyable ones).
    held: Vec<String>,
    /// Fsync-class op — same-scope named-guard findings belong to the
    /// older `lock-across-sync` rule, so the direct check skips these.
    sync_domain: bool,
}

struct CallEv {
    name: String,
    qualifier: Option<String>,
    is_method: bool,
    argc: usize,
    line: u32,
    held: Vec<String>,
}

#[derive(Default)]
struct FnEvents {
    acquires: Vec<AcquireEv>,
    blocks: Vec<BlockEv>,
    calls: Vec<CallEv>,
}

/// The fixpoint result for one function.
#[derive(Default)]
struct Summary {
    /// Chain to the nearest known blocking operation, if any.
    can_block: Option<Chain>,
    /// Lock keys acquired directly or transitively, with witnesses.
    reach: BTreeMap<String, Chain>,
}

/// The whole interprocedural analysis over the serve-path files of one
/// scan: extracted functions, resolved calls, per-function events and
/// fixpoint summaries.
pub struct Analysis {
    fns: Vec<FnItem>,
    events: Vec<FnEvents>,
    /// Per function: (event index into `calls`, resolved target fns).
    resolved: Vec<Vec<(usize, Vec<usize>)>>,
    summaries: Vec<Summary>,
}

/// Runs the analysis over `serve` (indices into `files` of serve-path
/// crate sources).
pub fn analyze(files: &[SourceFile], serve: &[usize]) -> Analysis {
    let mut fns = Vec::new();
    for &fi in serve {
        let f = &files[fi];
        fns.extend(extract_fns(&f.tokens, &f.mask, fi));
    }
    let table = SymbolTable::new(&fns);
    let events: Vec<FnEvents> = fns
        .iter()
        .map(|f| {
            let file = &files[f.file];
            scan_fn(&file.tokens, &file.mask, f)
        })
        .collect();
    let resolved: Vec<Vec<(usize, Vec<usize>)>> = fns
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            events[fi]
                .calls
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    let q_owned = match c.qualifier.as_deref() {
                        Some("Self") => f.self_type.clone(),
                        other => other.map(str::to_string),
                    };
                    // Lowercase qualifiers are module paths — resolve by
                    // name. Uppercase ones are types: require a matching
                    // workspace impl, so `Vec::new(…)` stays unresolved
                    // instead of aliasing every workspace `new`.
                    let strict_type = q_owned
                        .as_deref()
                        .is_some_and(|q| q.chars().next().is_some_and(|c| c.is_uppercase()));
                    let qualifier = if strict_type {
                        q_owned.as_deref()
                    } else {
                        None
                    };
                    let mut targets = table.resolve(&fns, &c.name, qualifier, c.is_method, c.argc);
                    if strict_type {
                        targets.retain(|&t| fns[t].self_type.as_deref() == qualifier);
                    }
                    // A bare unqualified call can never be an inherent
                    // method (Rust requires `self.` or `Type::`), so
                    // same-name methods must not alias it — better to
                    // leave it unresolved than to invent an edge.
                    if !c.is_method && qualifier.is_none() {
                        targets.retain(|&t| !fns[t].has_self);
                    }
                    (ci, targets)
                })
                .collect()
        })
        .collect();
    let summaries = fixpoint(files, &fns, &events, &resolved);
    Analysis {
        fns,
        events,
        resolved,
        summaries,
    }
}

/// The two interprocedural rule families, as `(file index, finding)`
/// pairs for the scan to merge. Deterministic order: functions in
/// extraction order, events in token order, lock-order cycles last.
pub fn interproc_findings(files: &[SourceFile], serve: &[usize]) -> Vec<(usize, Finding)> {
    let a = analyze(files, serve);
    let mut out = Vec::new();
    blocking_findings(files, &a, &mut out);
    lock_order_findings(files, &a, &mut out);
    out
}

fn blocking_findings(files: &[SourceFile], a: &Analysis, out: &mut Vec<(usize, Finding)>) {
    for (fi, f) in a.fns.iter().enumerate() {
        let file = &files[f.file];
        let lines: Vec<&str> = file.text.lines().collect();
        for b in &a.events[fi].blocks {
            if b.held.is_empty() || b.sync_domain {
                continue;
            }
            out.push((
                f.file,
                Finding {
                    rule: "blocking-under-lock",
                    line: b.line,
                    excerpt: format!(
                        "`{}` holds [{}] across blocking {}: {}",
                        f.display(),
                        b.held.join(", "),
                        b.label,
                        excerpt(&lines, b.line)
                    ),
                },
            ));
        }
        for (ci, targets) in &a.resolved[fi] {
            let c = &a.events[fi].calls[*ci];
            if c.held.is_empty() {
                continue;
            }
            let Some((t, chain)) = targets
                .iter()
                .find_map(|&t| a.summaries[t].can_block.as_ref().map(|ch| (t, ch)))
            else {
                continue;
            };
            let mut full = vec![Step {
                desc: format!("`{}` calls `{}`", f.display(), a.fns[t].display()),
                file: f.file,
                line: c.line,
            }];
            full.extend(chain.iter().cloned());
            out.push((
                f.file,
                Finding {
                    rule: "blocking-under-lock",
                    line: c.line,
                    excerpt: format!(
                        "`{}` holds [{}] across a call that can block: {}",
                        f.display(),
                        c.held.join(", "),
                        render_chain(files, &full)
                    ),
                },
            ));
        }
    }
}

/// An acquisition-order edge `from → to` with its witness chain.
struct Edge {
    from: String,
    to: String,
    chain: Chain,
}

fn lock_order_findings(files: &[SourceFile], a: &Analysis, out: &mut Vec<(usize, Finding)>) {
    let mut edges: Vec<Edge> = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut push = |edges: &mut Vec<Edge>, e: Edge| {
        if seen.insert((e.from.clone(), e.to.clone())) {
            edges.push(e);
        }
    };
    for (fi, f) in a.fns.iter().enumerate() {
        for acq in &a.events[fi].acquires {
            let Some(to) = acq.key.as_ref().filter(|k| *k != "?") else {
                continue;
            };
            for from in named_keys(&acq.held) {
                push(
                    &mut edges,
                    Edge {
                        from: from.clone(),
                        to: to.clone(),
                        chain: vec![Step {
                            desc: format!("`{}` holds {from}, acquires {to}", f.display()),
                            file: f.file,
                            line: acq.line,
                        }],
                    },
                );
            }
        }
        for (ci, targets) in &a.resolved[fi] {
            let c = &a.events[fi].calls[*ci];
            let held = named_keys(&c.held);
            if held.is_empty() {
                continue;
            }
            for &t in targets {
                for (to, chain) in &a.summaries[t].reach {
                    for from in &held {
                        let mut full = vec![Step {
                            desc: format!(
                                "`{}` holds {from}, calls `{}`",
                                f.display(),
                                a.fns[t].display()
                            ),
                            file: f.file,
                            line: c.line,
                        }];
                        full.extend(chain.iter().cloned());
                        push(
                            &mut edges,
                            Edge {
                                from: (*from).clone(),
                                to: to.clone(),
                                chain: full,
                            },
                        );
                    }
                }
            }
        }
    }

    // Cycle detection over the key graph: a key is deadlock-capable iff
    // it can reach itself through at least one edge. Mutually-reachable
    // keys form one SCC and yield one finding, anchored at the first
    // edge of the cycle walk.
    let mut succ: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        succ.entry(&e.from).or_default().insert(&e.to);
    }
    let reach_from = |start: &str| -> BTreeSet<&str> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = succ.get(start).into_iter().flatten().copied().collect();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(succ.get(n).into_iter().flatten().copied());
            }
        }
        seen
    };
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for e in &edges {
        let r = reach_from(&e.from);
        if !r.contains(e.from.as_str()) {
            continue;
        }
        let scc: Vec<String> = r
            .iter()
            .filter(|&&n| n == e.from || reach_from(n).contains(e.from.as_str()))
            .map(|&n| n.to_string())
            .collect();
        // Only an edge that stays inside the SCC can start a cycle walk
        // (`engine → checkpoint_lock` is not part of an `engine →
        // engine` self-loop); a later in-SCC edge will report it.
        if !scc.contains(&e.to) {
            continue;
        }
        let mut key: Vec<String> = scc.clone();
        key.sort();
        if !reported.insert(key) {
            continue;
        }
        // Walk a concrete cycle through the SCC, starting from this
        // edge, preferring unvisited nodes and closing back on the
        // start. Bounded by the edge count, so malformed graphs cannot
        // spin.
        let mut cycle_edges: Vec<&Edge> = vec![e];
        let mut at = e.to.as_str();
        let mut visited: BTreeSet<&str> = BTreeSet::from([e.from.as_str(), e.to.as_str()]);
        while at != e.from && cycle_edges.len() <= edges.len() {
            let candidates: Vec<&Edge> = edges
                .iter()
                .filter(|x| x.from == at && scc.contains(&x.to))
                .collect();
            let next = candidates
                .iter()
                .find(|x| x.to == e.from)
                .or_else(|| candidates.iter().find(|x| !visited.contains(x.to.as_str())))
                .or_else(|| candidates.first());
            let Some(next) = next else { break };
            cycle_edges.push(next);
            visited.insert(next.to.as_str());
            at = &next.to;
        }
        let nodes: String = cycle_edges
            .iter()
            .map(|x| x.from.as_str())
            .chain([at])
            .collect::<Vec<_>>()
            .join(" → ");
        let witness: Vec<String> = cycle_edges
            .iter()
            .map(|x| render_chain(files, &x.chain))
            .collect();
        let anchor = &e.chain[0];
        out.push((
            anchor.file,
            Finding {
                rule: "lock-order",
                line: anchor.line,
                excerpt: format!("deadlock cycle {nodes}: {}", witness.join("; ")),
            },
        ));
    }
}

fn named_keys(held: &[String]) -> Vec<&String> {
    held.iter().filter(|k| k.as_str() != "?").collect()
}

fn render_chain(files: &[SourceFile], chain: &[Step]) -> String {
    chain
        .iter()
        .map(|s| format!("{} ({}:{})", s.desc, files[s.file].rel, s.line))
        .collect::<Vec<_>>()
        .join(" → ")
}

/// Renders the symbol table, call graph, and fixpoint summaries for
/// `--dump-callgraph`.
pub fn dump(files: &[SourceFile], serve: &[usize]) -> String {
    let a = analyze(files, serve);
    let mut out = String::new();
    for (fi, f) in a.fns.iter().enumerate() {
        out.push_str(&format!(
            "{}:{} `{}`/{}\n",
            files[f.file].rel,
            f.line,
            f.display(),
            f.arity
        ));
        let s = &a.summaries[fi];
        if !s.reach.is_empty() {
            let keys: Vec<&str> = s.reach.keys().map(String::as_str).collect();
            out.push_str(&format!("  locks: {}\n", keys.join(", ")));
        }
        if let Some(chain) = &s.can_block {
            out.push_str(&format!("  blocks: {}\n", render_chain(files, chain)));
        }
        let mut callees: Vec<String> = Vec::new();
        for (ci, targets) in &a.resolved[fi] {
            let c = &a.events[fi].calls[*ci];
            for &t in targets {
                let label = format!(
                    "`{}` ({}:{})",
                    a.fns[t].display(),
                    files[a.fns[t].file].rel,
                    a.fns[t].line
                );
                if !callees.contains(&label) {
                    callees.push(label);
                }
                let _ = c;
            }
        }
        if !callees.is_empty() {
            out.push_str(&format!("  calls: {}\n", callees.join(", ")));
        }
    }
    out.push_str(&format!("{} functions\n", a.fns.len()));
    out
}

fn fixpoint(
    files: &[SourceFile],
    fns: &[FnItem],
    events: &[FnEvents],
    resolved: &[Vec<(usize, Vec<usize>)>],
) -> Vec<Summary> {
    let mut sums: Vec<Summary> = fns
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            let mut s = Summary::default();
            if let Some(b) = events[fi].blocks.first() {
                s.can_block = Some(vec![Step {
                    desc: format!("`{}` does {}", f.display(), b.label),
                    file: f.file,
                    line: b.line,
                }]);
            }
            for acq in &events[fi].acquires {
                if let Some(k) = acq.key.as_ref().filter(|k| *k != "?") {
                    s.reach.entry(k.clone()).or_insert_with(|| {
                        vec![Step {
                            desc: format!("`{}` acquires {k}", f.display()),
                            file: f.file,
                            line: acq.line,
                        }]
                    });
                }
            }
            s
        })
        .collect();
    // Both facts are set-once per (fn, key): monotone, so this
    // terminates once no iteration adds anything.
    loop {
        let mut changed = false;
        for fi in 0..fns.len() {
            let mut new_block: Option<Chain> = None;
            let mut new_reach: Vec<(String, Chain)> = Vec::new();
            for (ci, targets) in &resolved[fi] {
                let c = &events[fi].calls[*ci];
                for &t in targets {
                    let step = |what: &FnItem| Step {
                        desc: format!("`{}` calls `{}`", fns[fi].display(), what.display()),
                        file: fns[fi].file,
                        line: c.line,
                    };
                    if sums[fi].can_block.is_none() && new_block.is_none() {
                        if let Some(ch) = &sums[t].can_block {
                            let mut full = vec![step(&fns[t])];
                            full.extend(ch.iter().cloned());
                            new_block = Some(full);
                        }
                    }
                    for (k, ch) in &sums[t].reach {
                        if !sums[fi].reach.contains_key(k)
                            && !new_reach.iter().any(|(nk, _)| nk == k)
                        {
                            let mut full = vec![step(&fns[t])];
                            full.extend(ch.iter().cloned());
                            new_reach.push((k.clone(), full));
                        }
                    }
                }
            }
            if let Some(ch) = new_block {
                sums[fi].can_block = Some(ch);
                changed = true;
            }
            for (k, ch) in new_reach {
                sums[fi].reach.entry(k).or_insert(ch);
                changed = true;
            }
        }
        if !changed {
            let _ = files;
            return sums;
        }
    }
}

/// The event scan over one function body.
fn scan_fn(tokens: &[Token], mask: &[bool], f: &FnItem) -> FnEvents {
    let mut ev = FnEvents::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // Active `let name =` / `name =` binding and the token index its
    // statement ends at, for naming the next acquisition.
    let mut pending: Option<(String, usize)> = None;
    let self_type = f.self_type.as_deref();
    let end = f.body_end.saturating_sub(1);
    let mut i = f.body_open + 1;
    while i < end {
        guards.retain(|g| g.temp_end.is_none_or(|te| i < te));
        if pending.as_ref().is_some_and(|(_, pe)| i >= *pe) {
            pending = None;
        }
        if mask.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        match &tokens[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            Tok::Ident(name) => {
                scan_ident(
                    tokens,
                    i,
                    name,
                    self_type,
                    &mut guards,
                    &mut pending,
                    depth,
                    &mut ev,
                );
            }
            _ => {}
        }
        i += 1;
    }
    ev
}

#[allow(clippy::too_many_arguments)]
fn scan_ident(
    tokens: &[Token],
    i: usize,
    name: &str,
    self_type: Option<&str>,
    guards: &mut Vec<Guard>,
    pending: &mut Option<(String, usize)>,
    depth: i32,
    ev: &mut FnEvents,
) {
    let line = tokens[i].line;
    let prev_dot = is_punct(tokens, i.wrapping_sub(1), '.');
    let open = is_punct(tokens, i + 1, '(');
    let empty_args = open && is_punct(tokens, i + 2, ')');

    // `let name =` / `name =` arms the binding for the next acquisition
    // in the same statement.
    if name == "let" {
        let mut j = i + 1;
        if ident_at(tokens, j) == Some("mut") {
            j += 1;
        }
        if let Some(bind) = ident_at(tokens, j) {
            if is_punct(tokens, j + 1, '=') && !is_punct(tokens, j + 2, '=') {
                *pending = Some((bind.to_string(), statement_end(tokens, j + 2)));
            }
        }
        return;
    }
    if !prev_dot
        && is_punct(tokens, i + 1, '=')
        && !is_punct(tokens, i + 2, '=')
        && ident_at(tokens, i.wrapping_sub(1)) != Some("let")
    {
        *pending = Some((name.to_string(), statement_end(tokens, i + 2)));
        return;
    }

    // Guard acquisition, method form: `recv.lock()` / `.read()` /
    // `.write()` with empty parens.
    if prev_dot && matches!(name, "lock" | "read" | "write") && empty_args {
        let key = receiver_key(tokens, i - 1, self_type);
        acquire(tokens, i, i + 3, key, guards, pending, depth, ev);
        return;
    }
    // Guard acquisition, wrapper form: `lock_recover(&self.inner)`.
    if !prev_dot && name == "lock_recover" && open {
        let key = arg_key(tokens, i + 2, self_type);
        let after = match_paren(tokens, i + 1);
        acquire(tokens, i, after, key, guards, pending, depth, ev);
        return;
    }
    // `drop(g)` ends a named guard.
    if !prev_dot && name == "drop" && open {
        if let Some(dropped) = ident_at(tokens, i + 2) {
            if is_punct(tokens, i + 3, ')') {
                guards.retain(|g| g.binding.as_deref() != Some(dropped));
            }
        }
        return;
    }
    // `cv.wait(g)` blocks with `g` consumed (atomically released).
    if prev_dot && matches!(name, "wait" | "wait_timeout") && open {
        let mut j = i + 2;
        while is_punct(tokens, j, '&') || ident_at(tokens, j) == Some("mut") {
            j += 1;
        }
        let consumed = ident_at(tokens, j);
        ev.blocks.push(BlockEv {
            label: format!("Condvar::{name}"),
            line,
            held: held_keys(guards, consumed),
            sync_domain: false,
        });
        return;
    }
    // Blocking methods; `read`/`write` only with arguments (the empty
    // forms were consumed above), `join` only without (path `.join("x")`
    // is not a thread join).
    if prev_dot
        && open
        && (BLOCKING_METHODS.contains(&name)
            || (matches!(name, "read" | "write") && !empty_args)
            || (name == "join" && empty_args))
    {
        ev.blocks.push(BlockEv {
            label: name.to_string(),
            line,
            held: held_keys(guards, None),
            sync_domain: SYNC_FNS.contains(&name),
        });
        return;
    }
    // Bare/path-qualified blocking calls, and anything under `fs::`.
    let fs_qualified = is_punct(tokens, i.wrapping_sub(1), ':')
        && is_punct(tokens, i.wrapping_sub(2), ':')
        && ident_at(tokens, i.wrapping_sub(3)) == Some("fs");
    if !prev_dot && open && (BLOCKING_BARE.contains(&name) || fs_qualified) {
        ev.blocks.push(BlockEv {
            label: if fs_qualified {
                format!("fs::{name}")
            } else {
                name.to_string()
            },
            line,
            held: held_keys(guards, None),
            sync_domain: SYNC_FNS.contains(&name),
        });
        return;
    }
    // Everything else with parens is a call site (macros have a `!`
    // before the paren and fail the `open` check; nested `fn` items are
    // definitions, not calls).
    if open
        && !NON_INDEX_KEYWORDS.contains(&name)
        && !UBIQUITOUS_METHODS.contains(&name)
        && ident_at(tokens, i.wrapping_sub(1)) != Some("fn")
    {
        let qualifier = if !prev_dot
            && is_punct(tokens, i.wrapping_sub(1), ':')
            && is_punct(tokens, i.wrapping_sub(2), ':')
        {
            ident_at(tokens, i.wrapping_sub(3)).map(str::to_string)
        } else {
            None
        };
        ev.calls.push(CallEv {
            name: name.to_string(),
            qualifier,
            is_method: prev_dot,
            argc: count_args(tokens, i + 1),
            line,
            held: held_keys(guards, None),
        });
    }
}

/// Records an acquisition at `i` whose call expression ends at `after`,
/// decides the guard's lifetime, and pushes it.
#[allow(clippy::too_many_arguments)]
fn acquire(
    tokens: &[Token],
    i: usize,
    after: usize,
    key: Option<String>,
    guards: &mut Vec<Guard>,
    pending: &mut Option<(String, usize)>,
    depth: i32,
    ev: &mut FnEvents,
) {
    ev.acquires.push(AcquireEv {
        key: key.clone(),
        line: tokens[i].line,
        held: held_keys(guards, None),
    });
    // Skip result adapters (`.unwrap_or_else(…)` and friends); if yet
    // another method call follows, the guard is a temporary consumed by
    // that call chain and lives only to the end of the statement.
    let mut j = after;
    loop {
        if is_punct(tokens, j, '.')
            && ident_at(tokens, j + 1).is_some_and(|n| GUARD_ADAPTERS.contains(&n))
            && is_punct(tokens, j + 2, '(')
        {
            j = match_paren(tokens, j + 2);
            continue;
        }
        break;
    }
    let chained_on = is_punct(tokens, j, '.') && ident_at(tokens, j + 1).is_some();
    let binding = if chained_on {
        None
    } else {
        pending.take().map(|(n, _)| n)
    };
    let temp_end = if binding.is_some() {
        None
    } else {
        Some(statement_end(tokens, i))
    };
    guards.push(Guard {
        key,
        binding,
        depth,
        temp_end,
    });
}

/// Keys of every live guard, `?` standing in for unkeyable receivers;
/// `minus` (a consumed `Condvar::wait` guard binding) is excluded.
fn held_keys(guards: &[Guard], minus: Option<&str>) -> Vec<String> {
    guards
        .iter()
        .filter(|g| minus.is_none() || g.binding.as_deref() != minus)
        .map(|g| g.key.clone().unwrap_or_else(|| "?".to_string()))
        .collect()
}

/// The lock key of a method receiver, walking the `a.b.c` ident chain
/// backward from the `.` at `dot`. A leading `self` becomes the impl
/// type (`self.inner` in `impl Wal` → `Wal.inner`); call or index
/// results (`)`/`]`) are unkeyable → `None`.
fn receiver_key(tokens: &[Token], dot: usize, self_type: Option<&str>) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot;
    loop {
        match tokens.get(j.wrapping_sub(1)).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => {
                parts.push(s.clone());
                if is_punct(tokens, j.wrapping_sub(2), '.') && j >= 2 {
                    j -= 2;
                } else {
                    break;
                }
            }
            _ => return None,
        }
    }
    parts.reverse();
    if parts.first().map(String::as_str) == Some("self") {
        match self_type {
            Some(t) => parts[0] = t.to_string(),
            None => return None,
        }
    }
    Some(parts.join("."))
}

/// The lock key of a `lock_recover(&self.inner)`-style first argument:
/// skip `&`/`mut`, then read the forward ident chain.
fn arg_key(tokens: &[Token], start: usize, self_type: Option<&str>) -> Option<String> {
    let mut j = start;
    while is_punct(tokens, j, '&') || ident_at(tokens, j) == Some("mut") {
        j += 1;
    }
    let mut parts: Vec<String> = Vec::new();
    while let Some(s) = ident_at(tokens, j) {
        parts.push(s.to_string());
        if is_punct(tokens, j + 1, '.') && ident_at(tokens, j + 2).is_some() {
            j += 2;
        } else {
            break;
        }
    }
    if parts.is_empty() {
        return None;
    }
    if parts.first().map(String::as_str) == Some("self") {
        match self_type {
            Some(t) => parts[0] = t.to_string(),
            None => return None,
        }
    }
    Some(parts.join("."))
}

/// Index just past the `)` matching the `(` at `open`.
fn match_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Argument count of the call whose `(` is at `open`: top-level commas
/// plus one (zero for empty parens). Closures with multi-parameter
/// pipes can overcount — resolution treats arity as a preference, not
/// a requirement, for exactly this reason.
fn count_args(tokens: &[Token], open: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct('(') => {
                paren += 1;
                if paren > 1 {
                    any = true;
                }
            }
            Tok::Punct(')') => {
                paren -= 1;
                if paren == 0 {
                    return if any { commas + 1 } else { 0 };
                }
                any = true;
            }
            Tok::Punct('[') => {
                bracket += 1;
                any = true;
            }
            Tok::Punct(']') => {
                bracket -= 1;
                any = true;
            }
            Tok::Punct('{') => {
                brace += 1;
                any = true;
            }
            Tok::Punct('}') => {
                brace -= 1;
                any = true;
            }
            Tok::Punct(',') if paren == 1 && bracket == 0 && brace == 0 => commas += 1,
            _ => any = true,
        }
        i += 1;
    }
    if any {
        commas + 1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    fn file(rel: &str, crate_name: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let mask = test_mask(&tokens);
        SourceFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            file_name: rel.rsplit('/').next().unwrap_or(rel).to_string(),
            is_crate_root: false,
            is_bin_root: false,
            text: src.to_string(),
            tokens,
            mask,
        }
    }

    fn findings_of(src: &str) -> Vec<(String, u32)> {
        let files = vec![file("crates/server/src/lib.rs", "server", src)];
        interproc_findings(&files, &[0])
            .into_iter()
            .map(|(_, f)| (f.rule.to_string(), f.line))
            .collect()
    }

    #[test]
    fn direct_blocking_under_named_guard() {
        let src = "\
use std::sync::Mutex;
pub fn f(m: &Mutex<u32>, s: &std::net::TcpStream) {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut s = s;
    std::io::Write::write_all(&mut s, b\"x\").ok();
    let _ = g;
}
";
        // `write_all` here is a path call, not a method — rewrite with a
        // method call to exercise the method path.
        let src2 = "\
pub fn f(m: &std::sync::Mutex<u32>, s: &mut std::net::TcpStream) {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    s.write_all(b\"x\").ok();
    drop(g);
    s.write_all(b\"y\").ok();
}
";
        let _ = src;
        let got = findings_of(src2);
        assert_eq!(got, vec![("blocking-under-lock".to_string(), 3)]);
    }

    #[test]
    fn temp_guard_holds_to_statement_end() {
        let src = "\
pub fn w(rx: &std::sync::Mutex<std::sync::mpsc::Receiver<u32>>) -> Option<u32> {
    let next = {
        rx.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .recv()
    };
    next.ok()
}
";
        let got = findings_of(src);
        assert_eq!(got, vec![("blocking-under-lock".to_string(), 5)]);
    }

    #[test]
    fn transitive_blocking_and_negative_drop() {
        let src = "\
pub fn top(m: &std::sync::Mutex<u32>, f: &std::fs::File) {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    mid(f);
    drop(g);
    mid(f);
}
fn mid(f: &std::fs::File) {
    bottom(f);
}
fn bottom(f: &std::fs::File) {
    let _ = f.sync_data();
}
";
        let got = findings_of(src);
        assert_eq!(got, vec![("blocking-under-lock".to_string(), 3)]);
    }

    #[test]
    fn sync_under_guard_stays_with_lock_across_sync() {
        let src = "\
pub fn f(m: &std::sync::Mutex<std::fs::File>) {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    g.sync_data().ok();
}
";
        assert!(findings_of(src).is_empty());
    }

    #[test]
    fn condvar_wait_releases_its_own_guard() {
        let src = "\
pub fn f(m: &std::sync::Mutex<u32>, cv: &std::sync::Condvar) {
    let mut g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    g = cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = g;
}
";
        assert!(findings_of(src).is_empty());
    }

    #[test]
    fn lock_order_cycle_with_witness() {
        let src = "\
pub fn a(x: &std::sync::Mutex<u32>, y: &std::sync::Mutex<u32>) {
    let gx = x.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let gy = y.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = (gx, gy);
}
pub fn b(x: &std::sync::Mutex<u32>, y: &std::sync::Mutex<u32>) {
    let gy = y.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let gx = x.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = (gx, gy);
}
";
        let files = vec![file("crates/server/src/lib.rs", "server", src)];
        let got = interproc_findings(&files, &[0]);
        assert_eq!(got.len(), 1);
        let f = &got[0].1;
        assert_eq!(f.rule, "lock-order");
        assert_eq!(f.line, 3);
        assert!(f.excerpt.contains("x → y → x"), "{}", f.excerpt);
        assert!(
            f.excerpt.contains("`a` holds x, acquires y"),
            "{}",
            f.excerpt
        );
        assert!(
            f.excerpt.contains("`b` holds y, acquires x"),
            "{}",
            f.excerpt
        );
    }

    #[test]
    fn interprocedural_lock_order_edge() {
        let src = "\
pub struct S { inner: std::sync::Mutex<u32> }
impl S {
    pub fn outer(&self, other: &std::sync::Mutex<u32>) {
        let g = other.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.tick();
        let _ = g;
    }
    pub fn reverse(&self, other: &std::sync::Mutex<u32>) {
        let g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let h = other.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = (g, h);
    }
    fn tick(&self) {
        let g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = g;
    }
}
";
        let files = vec![file("crates/server/src/lib.rs", "server", src)];
        let got = interproc_findings(&files, &[0]);
        let rules: Vec<&str> = got.iter().map(|(_, f)| f.rule).collect();
        assert_eq!(rules, vec!["lock-order"]);
        // other → S.inner (via the call in `outer`), S.inner → other
        // (direct nesting in `reverse`).
        assert!(
            got[0].1.excerpt.contains("calls `S::tick`"),
            "{}",
            got[0].1.excerpt
        );
    }

    #[test]
    fn self_receivers_key_by_impl_type() {
        let src = "\
pub struct Wal { inner: std::sync::Mutex<u32> }
impl Wal {
    pub fn spin(&self) {
        let a = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let b = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = (a, b);
    }
}
";
        let files = vec![file("crates/server/src/lib.rs", "server", src)];
        let got = interproc_findings(&files, &[0]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.rule, "lock-order");
        assert!(
            got[0].1.excerpt.contains("Wal.inner → Wal.inner"),
            "{}",
            got[0].1.excerpt
        );
    }

    #[test]
    fn uppercase_qualifier_does_not_alias_workspace_fns() {
        let src = "\
pub struct Db;
impl Db {
    pub fn new() -> Db {
        std::thread::sleep(std::time::Duration::from_millis(1));
        Db
    }
}
pub fn f(m: &std::sync::Mutex<u32>) {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let v: Vec<u32> = Vec::new();
    let _ = (g, v);
}
pub fn real(m: &std::sync::Mutex<u32>) -> Db {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let db = Db::new();
    drop(g);
    db
}
";
        let got = findings_of(src);
        // `Vec::new()` must not resolve to `Db::new` (which sleeps);
        // `Db::new()` under the guard in `real` must.
        assert_eq!(got, vec![("blocking-under-lock".to_string(), 15)]);
    }
}
