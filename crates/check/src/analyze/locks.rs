//! Pass 3 — lock-order checking for the serving layer.
//!
//! `crates/serve` is the only place in the workspace that holds blocking
//! locks (the scheduler/registry/checkpoint mutexes behind the
//! `lock(&…)` helper). This pass inventories every acquisition site,
//! tracks which guards are live across each statement (statement
//! temporaries die at the `;`, a bare `let g = lock(&x);` lives to the
//! end of its block or an explicit `drop(g)`), follows calls between
//! serve functions so *transitive* acquisitions count, and builds the
//! nested-acquisition digraph `A → B` = "B was acquired while A was
//! held". Any cycle in that graph — including the self-loop of
//! re-acquiring a mutex already held — is a potential deadlock and is
//! reported as `lock-order-cycle`.
//!
//! The analysis is conservative in the direction that matters: `if let`
//! / `while let` / `match` scrutinee temporaries are treated as held for
//! the whole dependent block (the Rust 2021 temporary-scope rule), and a
//! closure body is analyzed under its captor's held set.

use super::index::{calls_in, Index};
use super::tree::{Delim, Group, Node, Tok};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Free helpers that acquire; their own bodies are primitives and are
/// excluded from the walk.
const LOCK_FREE_FNS: &[&str] = &["lock", "try_lock"];
/// Method names that acquire when called on a known Mutex/RwLock field.
const LOCK_METHODS: &[&str] = &["lock", "try_lock", "read", "write"];

/// Is this file inside the lock-order scope? `crates/serve`, which holds
/// every blocking lock of the workspace.
pub fn in_scope(path: &str) -> bool {
    path.contains("crates/serve/src")
}

#[derive(Clone, Debug)]
struct Acq {
    key: String,
    /// 0-based line.
    line: usize,
}

#[derive(Default)]
struct FnSummary {
    /// Every lock key this fn may acquire directly.
    acquires: BTreeSet<String>,
    /// `(held keys, callee name, 0-based line)` for the transitive pass.
    calls: Vec<(Vec<String>, String, usize)>,
}

struct Walker<'a> {
    idx: &'a Index,
    /// `(from, to) → first site (0-based line)`.
    edges: &'a mut BTreeMap<(String, String), usize>,
    summary: FnSummary,
}

/// Derives a stable lock identity from the helper-call argument tokens:
/// `lock(&self.slots)` → `slots`, `lock(&sched.inner)` → `sched.inner`.
fn key_of_args(args: &Group) -> String {
    let mut idents: Vec<&str> = Vec::new();
    for n in &args.children {
        if let Node::Leaf(t) = n {
            if let Tok::Ident(w) = &t.tok {
                idents.push(w);
            }
        }
    }
    if idents.first() == Some(&"self") {
        idents.remove(0);
    }
    if idents.is_empty() {
        "<expr>".to_string()
    } else {
        idents.join(".")
    }
}

fn as_ident(n: &Node) -> Option<&str> {
    match n {
        Node::Leaf(t) => match &t.tok {
            Tok::Ident(w) => Some(w),
            _ => None,
        },
        _ => None,
    }
}

fn as_punct(n: &Node) -> Option<char> {
    match n {
        Node::Leaf(t) => match t.tok {
            Tok::Punct(c) => Some(c),
            _ => None,
        },
        _ => None,
    }
}

fn as_group(n: &Node) -> Option<&Group> {
    match n {
        Node::Group(g) => Some(g),
        _ => None,
    }
}

/// Detects an acquisition at position `i` of a statement's node list.
/// Returns the key and the paren-group index it consumed.
fn acquisition_at(idx: &Index, nodes: &[Node], i: usize) -> Option<(Acq, usize)> {
    let name = as_ident(&nodes[i])?;
    let args = nodes.get(i + 1).and_then(as_group)?;
    if args.delim != Delim::Paren {
        return None;
    }
    let is_method = i > 0 && as_punct(&nodes[i - 1]) == Some('.');
    if is_method {
        if !LOCK_METHODS.contains(&name) {
            return None;
        }
        // Backscan the receiver chain; the last field ident is the key,
        // and it must be a known Mutex/RwLock field so that plain
        // `reader.read()` style calls don't count.
        let mut j = i - 1;
        let mut chain: Vec<&str> = Vec::new();
        loop {
            if j == 0 {
                break;
            }
            let prev = &nodes[j - 1];
            if let Some(w) = as_ident(prev) {
                chain.push(w);
                if j == 1 {
                    break;
                }
                if as_punct(&nodes[j - 2]) == Some('.') {
                    j -= 2;
                    continue;
                }
            }
            break;
        }
        chain.retain(|w| *w != "self");
        let field = chain.first().copied()?;
        if !idx.mutex_fields.contains(field) {
            return None;
        }
        return Some((
            Acq {
                key: field.to_string(),
                line: nodes[i].line(),
            },
            i + 1,
        ));
    }
    if !LOCK_FREE_FNS.contains(&name) {
        return None;
    }
    // `foo::lock(...)` qualifier is fine; `Ordering::…` can't match here.
    Some((
        Acq {
            key: key_of_args(args),
            line: nodes[i].line(),
        },
        i + 1,
    ))
}

impl Walker<'_> {
    fn edge(&mut self, from: &str, to: &str, line: usize) {
        self.edges
            .entry((from.to_string(), to.to_string()))
            .or_insert(line);
    }

    /// Walks a block: splits statements at top-level `;`/`,`, tracks
    /// bare-`let` guards to block end or `drop(…)`.
    fn walk_block(&mut self, nodes: &[Node], inherited: &[String]) {
        // `(binding name or "" for inherited, key)`.
        let mut guards: Vec<(String, String)> = inherited
            .iter()
            .map(|k| (String::new(), k.clone()))
            .collect();
        let mut start = 0usize;
        for i in 0..=nodes.len() {
            let at_sep = i < nodes.len() && matches!(as_punct(&nodes[i]), Some(';') | Some(','));
            if !at_sep && i < nodes.len() {
                continue;
            }
            let stmt = &nodes[start..i];
            start = i + 1;
            if stmt.is_empty() {
                continue;
            }
            // `drop(g)` releases a named guard.
            if stmt.len() == 2 && as_ident(&stmt[0]) == Some("drop") {
                if let Some(g) = as_group(&stmt[1]) {
                    if g.delim == Delim::Paren && g.children.len() == 1 {
                        if let Some(name) = as_ident(&g.children[0]) {
                            guards.retain(|(n, _)| n != name);
                            continue;
                        }
                    }
                }
            }
            let held: Vec<String> = guards.iter().map(|(_, k)| k.clone()).collect();
            let (acqs, last_paren_is_acq) = self.walk_stmt(stmt, &held);
            // Bare `let g = lock(&x);` binds a guard for the rest of the
            // block; anything else was a statement temporary.
            if last_paren_is_acq && as_ident(&stmt[0]) == Some("let") {
                let mut k = 1;
                if as_ident(&stmt[k]) == Some("mut") {
                    k += 1;
                }
                if let (Some(name), Some(acq)) = (stmt.get(k).and_then(as_ident), acqs.last()) {
                    guards.push((name.to_string(), acq.key.clone()));
                }
            }
        }
    }

    /// Walks one statement. Returns the acquisitions made at this
    /// statement's temporary scope and whether the statement's final
    /// node is the paren of an acquisition (the bare-`let` shape).
    fn walk_stmt(&mut self, stmt: &[Node], held: &[String]) -> (Vec<Acq>, bool) {
        let mut acqs: Vec<Acq> = Vec::new();
        let mut last_paren_is_acq = false;
        let mut i = 0usize;
        while i < stmt.len() {
            if let Some((acq, consumed)) = acquisition_at(self.idx, stmt, i) {
                for h in held.iter().chain(acqs.iter().map(|a| &a.key)) {
                    self.edge(h, &acq.key, acq.line);
                }
                self.summary.acquires.insert(acq.key.clone());
                last_paren_is_acq = consumed == stmt.len() - 1;
                acqs.push(acq);
                i = consumed + 1;
                continue;
            }
            match &stmt[i] {
                Node::Group(g) if g.delim == Delim::Brace => {
                    // Dependent block (match arm / if body / closure):
                    // statement temporaries acquired so far are held
                    // across it (Rust 2021 temporary-scope rule).
                    let mut inner: Vec<String> = held.to_vec();
                    inner.extend(acqs.iter().map(|a| a.key.clone()));
                    self.walk_block(&g.children, &inner);
                    last_paren_is_acq = false;
                }
                Node::Group(g) => {
                    let mut inner: Vec<String> = held.to_vec();
                    inner.extend(acqs.iter().map(|a| a.key.clone()));
                    let (nested, _) = self.walk_stmt(&g.children, &inner);
                    acqs.extend(nested);
                    last_paren_is_acq = false;
                }
                n => {
                    // Call with a held set: recorded for the transitive
                    // pass (the callee's acquisitions nest under ours).
                    if let Some(name) = as_ident(n) {
                        let callish = stmt
                            .get(i + 1)
                            .and_then(as_group)
                            .is_some_and(|g| g.delim == Delim::Paren);
                        if callish
                            && !LOCK_FREE_FNS.contains(&name)
                            && (!held.is_empty() || !acqs.is_empty())
                        {
                            let mut h: Vec<String> = held.to_vec();
                            h.extend(acqs.iter().map(|a| a.key.clone()));
                            self.summary
                                .calls
                                .push((h, name.to_string(), stmt[i].line()));
                        }
                    }
                    last_paren_is_acq = false;
                }
            }
            i += 1;
        }
        (acqs, last_paren_is_acq)
    }
}

/// Where each nested acquisition `(held, acquired)` was first seen:
/// `(file index, 0-based line)`.
type Nesting = BTreeMap<(String, String), (usize, usize)>;

/// The nested-acquisition digraph over every in-scope non-test fn,
/// transitive through calls between them.
fn nesting(idx: &Index) -> Nesting {
    let mut edges: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut edge_file: HashMap<(String, String), usize> = HashMap::new();
    let mut summaries: HashMap<usize, FnSummary> = HashMap::new();
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();

    for (id, f) in idx.fns.iter().enumerate() {
        if f.in_test
            || f.body.is_empty()
            || !in_scope(&idx.files[f.file].path)
            || LOCK_FREE_FNS.contains(&f.name.as_str())
        {
            continue;
        }
        let mut local_edges: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut w = Walker {
            idx,
            edges: &mut local_edges,
            summary: FnSummary::default(),
        };
        w.walk_block(&f.body, &[]);
        let summary = w.summary;
        for (k, line) in local_edges {
            edge_file.entry(k.clone()).or_insert(f.file);
            edges.entry(k).or_insert(line);
        }
        by_name.entry(f.name.as_str()).or_default().push(id);
        summaries.insert(id, summary);
    }

    // Fixpoint: transitive acquisitions per fn (by-name resolution is
    // enough at serve's size and errs conservative).
    let mut trans: HashMap<usize, BTreeSet<String>> = summaries
        .iter()
        .map(|(&id, s)| (id, s.acquires.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (&id, s) in &summaries {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for (_, callee, _) in &s.calls {
                for &cid in by_name.get(callee.as_str()).into_iter().flatten() {
                    if cid != id {
                        if let Some(t) = trans.get(&cid) {
                            add.extend(t.iter().cloned());
                        }
                    }
                }
            }
            let t = trans.entry(id).or_default();
            let before = t.len();
            t.extend(add);
            if t.len() != before {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (&id, s) in &summaries {
        let file = idx.fns[id].file;
        for (held, callee, line) in &s.calls {
            for &cid in by_name.get(callee.as_str()).into_iter().flatten() {
                if cid == id {
                    continue;
                }
                if let Some(t) = trans.get(&cid) {
                    for k in t {
                        for h in held {
                            let key = (h.clone(), k.clone());
                            edge_file.entry(key.clone()).or_insert(file);
                            edges.entry(key).or_insert(*line);
                        }
                    }
                }
            }
        }
    }

    edges
        .into_iter()
        .map(|(k, line)| {
            let file = edge_file.get(&k).copied().unwrap_or(0);
            (k, (file, line))
        })
        .collect()
}

/// Runs the lock-order check over every in-scope non-test fn. Returns
/// the findings and every nested acquisition as `(held, acquired)` lock
/// keys — a key that never appears on the left is a leaf: nothing is
/// locked under it.
pub fn check(idx: &Index) -> (Vec<Diagnostic>, Vec<(String, String)>) {
    let edges = nesting(idx);
    // Cycle detection over the key digraph.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut diags = Vec::new();
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut path: Vec<&str> = Vec::new();
        dfs(start, &adj, &mut path, &mut |cycle: &[&str]| {
            let mut canon: Vec<String> = cycle.iter().map(|s| s.to_string()).collect();
            canon.sort();
            canon.dedup();
            if !seen_cycles.insert(canon) {
                return;
            }
            let first = (cycle[0].to_string(), cycle[1 % cycle.len()].to_string());
            let (file, line) = edges.get(&first).copied().unzip();
            let line = line.unwrap_or(0);
            let path_str = cycle
                .iter()
                .chain(std::iter::once(&cycle[0]))
                .map(|s| format!("`{s}`"))
                .collect::<Vec<_>>()
                .join(" → ");
            diags.push(Diagnostic {
                path: file
                    .map(|fi| idx.files[fi].path.clone())
                    .unwrap_or_else(|| "<serve>".to_string()),
                line: line + 1,
                rule: "lock-order-cycle",
                message: format!("lock acquisition cycle: {path_str}"),
                hint: Some(
                    "acquire these mutexes in one global order everywhere, or drop the first \
                     guard (scope it or `drop(g)`) before taking the second"
                        .to_string(),
                ),
            });
        });
    }
    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    (diags, edges.into_keys().collect())
}

/// DFS from `path[0]` reporting each simple cycle that returns to it.
fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    report: &mut impl FnMut(&[&str]),
) {
    path.push(node);
    for &next in adj.get(node).into_iter().flatten() {
        if next == path[0] {
            report(path);
        } else if !path.contains(&next) && path.len() < 16 {
            dfs(next, adj, path, report);
        }
    }
    path.pop();
}

/// The acquisition inventory (used by tests and `--json` mode to show
/// coverage even when the graph is acyclic).
pub fn acquisition_sites(idx: &Index) -> Vec<(String, usize, String)> {
    let mut out = Vec::new();
    for f in &idx.fns {
        if f.in_test || !in_scope(&idx.files[f.file].path) {
            continue;
        }
        for call in calls_in(&f.body) {
            if LOCK_FREE_FNS.contains(&call.name.as_str()) && !call.is_macro {
                out.push((
                    idx.files[f.file].path.clone(),
                    call.line + 1,
                    call.name.clone(),
                ));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}
