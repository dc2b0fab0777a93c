//! Pass 2 — hot-kernel purity proof.
//!
//! From the fast-path root set —
//!
//! * `SoaBorisKernel::apply_chunk` (the zero-gather SoA kernel),
//! * `DeviceExecutor::execute_chunk` (the device backend's kernel
//!   entry — what a `parallel_for` body would compile from),
//! * every `Pusher::push` impl (the scalar pushers),
//! * every `BatchSampler::sample_into` (batched field sampling,
//!   including the trait's default body),
//! * every `FieldSource::field_block` (per-chunk field production),
//!
//! — the pass walks the resolved call graph and reports any reachable
//!
//! * allocation (`Vec::…`, `Box::…`, `format!`, `.collect()`, …) —
//!   rule `purity-alloc`;
//! * locking / blocking (`lock`, `try_lock`, condvar waits) —
//!   rule `purity-lock`;
//! * I/O (`println!`, `File::…`, `stdout()`, …) — rule `purity-io`;
//! * panic-capable construct (`unwrap`, `expect("…")`, `panic!`-family
//!   macros, or indexing `x[i]` without a `// bounds:` justification) —
//!   rule `purity-panic` / `purity-index`.
//!
//! This is the static guarantee behind the paper's vectorization claim:
//! the hot loops stay straight-line, allocation-free and lock-free, so
//! the compiler's auto-vectorizer (the DPC++ role in the original) has
//! nothing to trip over.
//!
//! A `// bounds: …` comment justifies indexing either adjacently (≤ 3
//! lines above, comment lines free as in `pic-lint`) or *block-scoped*:
//! a `// bounds:` comment covers every index site from the comment to
//! the end of its innermost enclosing brace block — one proof per loop
//! body instead of one per line. `debug_assert!` is deliberately not a
//! needle (compiled out of release builds, which are what the paper
//! measures).

use super::atomics::find_comment;
use super::index::{calls_in, CallSite, Index, Recv};
use super::tree::{Delim, Group, Node, Tok};
use crate::Diagnostic;
use std::collections::{BTreeSet, HashMap, VecDeque};

const ADJACENT_LINES: usize = 3;

const ALLOC_MACROS: &[&str] = &["format", "vec"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];
const IO_MACROS: &[&str] = &[
    "println", "print", "eprintln", "eprint", "dbg", "write", "writeln",
];
const ALLOC_TYPES: &[&str] = &[
    "Vec", "Box", "String", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_string",
    "to_owned",
    "collect",
    "with_capacity",
    "push_str",
    "reserve",
    "into_boxed_slice",
];
const LOCK_NAMES: &[&str] = &["lock", "try_lock", "wait", "notify_all", "notify_one"];
const IO_TYPES: &[&str] = &[
    "File",
    "OpenOptions",
    "TcpStream",
    "UnixStream",
    "UnixListener",
];
const IO_FREE: &[&str] = &["stdout", "stderr", "stdin"];

/// The root set: fn ids the purity proof starts from.
pub fn roots(idx: &Index) -> Vec<usize> {
    idx.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            if f.in_test || f.body.is_empty() || idx.files[f.file].path.starts_with("vendor/") {
                return false;
            }
            (f.name == "apply_chunk" && f.impl_type.as_deref() == Some("SoaBorisKernel"))
                || (f.name == "execute_chunk" && f.impl_type.as_deref() == Some("DeviceExecutor"))
                || (f.name == "push" && f.impl_trait.as_deref() == Some("Pusher"))
                || (f.name == "sample_into" && f.impl_trait.as_deref() == Some("BatchSampler"))
                || (f.name == "field_block" && f.impl_trait.as_deref() == Some("FieldSource"))
        })
        .map(|(id, _)| id)
        .collect()
}

/// Classifies a call site as a purity needle.
fn needle(site: &CallSite) -> Option<(&'static str, String)> {
    let name = site.name.as_str();
    if site.is_macro {
        if ALLOC_MACROS.contains(&name) {
            return Some(("purity-alloc", format!("`{name}!` allocates")));
        }
        if PANIC_MACROS.contains(&name) {
            return Some(("purity-panic", format!("`{name}!` can panic")));
        }
        if IO_MACROS.contains(&name) {
            return Some(("purity-io", format!("`{name}!` performs I/O")));
        }
        return None;
    }
    if let Recv::Qualified(q) = &site.recv {
        if ALLOC_TYPES.contains(&q.as_str()) {
            return Some(("purity-alloc", format!("`{q}::{name}` allocates")));
        }
        if (q == "Arc" || q == "Rc") && (name == "new" || name == "from") {
            return Some(("purity-alloc", format!("`{q}::{name}` allocates")));
        }
        if IO_TYPES.contains(&q.as_str()) {
            return Some(("purity-io", format!("`{q}::{name}` performs I/O")));
        }
    }
    if matches!(site.recv, Recv::Free) && IO_FREE.contains(&name) {
        return Some((
            "purity-io",
            format!("`{name}()` reaches the standard streams"),
        ));
    }
    if LOCK_NAMES.contains(&name) {
        return Some(("purity-lock", format!("`{name}` blocks on a lock/condvar")));
    }
    if !matches!(site.recv, Recv::Free) && ALLOC_METHODS.contains(&name) {
        return Some(("purity-alloc", format!("`.{name}(…)` allocates")));
    }
    if name == "unwrap" && !matches!(site.recv, Recv::Free) {
        return Some(("purity-panic", "`.unwrap()` can panic".to_string()));
    }
    if name == "expect" {
        let first_is_str = site
            .args
            .as_ref()
            .and_then(|g| g.children.first())
            .is_some_and(|n| matches!(n, Node::Leaf(t) if t.tok == Tok::Str));
        if first_is_str {
            return Some(("purity-panic", "`.expect(\"…\")` can panic".to_string()));
        }
    }
    None
}

/// Index-site lines: bracket groups in expression position.
fn index_sites(nodes: &[Node], out: &mut Vec<usize>) {
    for (i, n) in nodes.iter().enumerate() {
        if let Node::Group(g) = n {
            if g.delim == Delim::Bracket && i > 0 && indexable(&nodes[i - 1]) && !full_range(g) {
                out.push(g.open_line);
            }
            index_sites(&g.children, out);
        }
    }
}

/// Can the node before a bracket group make it an index expression?
fn indexable(prev: &Node) -> bool {
    match prev {
        Node::Leaf(t) => match &t.tok {
            Tok::Ident(w) => ![
                "mut", "dyn", "in", "as", "ref", "else", "return", "box", "move", "impl", "where",
                "let",
            ]
            .contains(&w.as_str()),
            _ => false,
        },
        Node::Group(g) => g.delim != Delim::Brace,
    }
}

/// `&x[..]` — a full-range slice cannot panic.
fn full_range(g: &Group) -> bool {
    g.children.len() == 2
        && g.children
            .iter()
            .all(|n| matches!(n, Node::Leaf(t) if t.tok == Tok::Punct('.')))
}

/// Brace-group line spans in a tree (for block-scoped `// bounds:`).
fn brace_spans(nodes: &[Node], out: &mut Vec<(usize, usize)>) {
    for n in nodes {
        if let Node::Group(g) = n {
            if g.delim == Delim::Brace {
                out.push((g.open_line, g.close_line));
            }
            brace_spans(&g.children, out);
        }
    }
}

/// Per-file bounds-justification oracle.
struct BoundsScope {
    /// 0-based lines of `// bounds:` comments.
    comment_lines: Vec<usize>,
    /// Innermost brace span of each bounds comment.
    scopes: Vec<(usize, usize)>,
}

impl BoundsScope {
    fn build(idx: &Index, file: usize) -> BoundsScope {
        let info = &idx.files[file];
        let comment_lines: Vec<usize> = info
            .scanned
            .comments
            .iter()
            .enumerate()
            .filter(|(_, c)| super::atomics::strip_comment(c).starts_with("bounds:"))
            .map(|(l, _)| l)
            .collect();
        let mut spans = Vec::new();
        brace_spans(&info.tree, &mut spans);
        let scopes = comment_lines
            .iter()
            .map(|&c| {
                spans
                    .iter()
                    .filter(|&&(a, b)| a <= c && c <= b)
                    .min_by_key(|&&(a, b)| b - a)
                    .copied()
                    .unwrap_or((c, c))
            })
            .collect();
        BoundsScope {
            comment_lines,
            scopes,
        }
    }

    /// Is an index site at `line` covered by a bounds comment, either
    /// adjacently or block-scoped?
    fn covers(&self, scanned: &crate::scan::Scanned, line: usize) -> bool {
        if find_comment(scanned, line, ADJACENT_LINES, "bounds:").is_some() {
            return true;
        }
        self.comment_lines
            .iter()
            .zip(&self.scopes)
            .any(|(&c, &(_, end))| c <= line && line <= end)
    }
}

/// Runs the purity proof.
pub fn check(idx: &Index) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    let mut provenance: HashMap<usize, String> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut bounds_cache: HashMap<usize, BoundsScope> = HashMap::new();
    let mut reported: BTreeSet<(usize, usize, &'static str)> = BTreeSet::new();

    for root in roots(idx) {
        let label = root_label(idx, root);
        if visited.insert(root) {
            provenance.insert(root, label);
            queue.push_back(root);
        }
    }

    while let Some(id) = queue.pop_front() {
        let f = &idx.fns[id];
        let info = &idx.files[f.file];
        let via = provenance.get(&id).cloned().unwrap_or_default();
        let scanned = &info.scanned;

        // Needles in this body.
        for call in calls_in(&f.body) {
            if let Some((rule, what)) = needle(&call) {
                if scanned.comment_near(
                    call.line,
                    ADJACENT_LINES,
                    &format!("analyze: allow({rule})"),
                ) {
                    continue;
                }
                if reported.insert((f.file, call.line, rule)) {
                    diags.push(Diagnostic {
                        path: info.path.clone(),
                        line: call.line + 1,
                        rule,
                        message: format!("{what}, inside the hot kernel path ({via})"),
                        hint: Some(hint_for(rule)),
                    });
                }
            }
        }

        // Index sites in this body.
        let mut sites = Vec::new();
        index_sites(&f.body, &mut sites);
        if !sites.is_empty() {
            let scope = bounds_cache
                .entry(f.file)
                .or_insert_with(|| BoundsScope::build(idx, f.file));
            for line in sites {
                if scope.covers(scanned, line) {
                    continue;
                }
                if scanned.comment_near(line, ADJACENT_LINES, "analyze: allow(purity-index)") {
                    continue;
                }
                if reported.insert((f.file, line, "purity-index")) {
                    diags.push(Diagnostic {
                        path: info.path.clone(),
                        line: line + 1,
                        rule: "purity-index",
                        message: format!(
                            "indexing without a `// bounds:` justification in the hot kernel \
                             path ({via})"
                        ),
                        hint: Some(
                            "add `// bounds: <why the index is in range>` above the site or at \
                             the top of the enclosing block (covers the block), or restructure \
                             to iterators"
                                .to_string(),
                        ),
                    });
                }
            }
        }

        // Walk resolved callees. Vendored dependencies are external
        // code — the proof stops at their boundary (the atomics pass
        // still audits them).
        for call in calls_in(&f.body) {
            for callee in idx.resolve(&call, f) {
                let cf = &idx.fns[callee];
                if cf.in_test
                    || cf.body.is_empty()
                    || idx.files[cf.file].path.starts_with("vendor/")
                {
                    continue;
                }
                if visited.insert(callee) {
                    provenance.insert(callee, format!("{via} → `{}`", cf.name));
                    queue.push_back(callee);
                }
            }
        }
    }

    diags
}

fn root_label(idx: &Index, id: usize) -> String {
    let f = &idx.fns[id];
    match (&f.impl_type, &f.impl_trait) {
        (Some(t), _) => format!("reachable from `{t}::{}`", f.name),
        (None, Some(tr)) => format!("reachable from `{tr}::{}`", f.name),
        _ => format!("reachable from `{}`", f.name),
    }
}

fn hint_for(rule: &str) -> String {
    match rule {
        "purity-alloc" => {
            "hoist the allocation out of the kernel (preallocate in the caller and pass a \
             slice/buffer in)"
        }
        "purity-lock" => {
            "kernels must be lock-free: move synchronization to the sweep boundary or use the \
             telemetry-style per-thread slots"
        }
        "purity-io" => "move I/O to the telemetry/diagnostics layer outside the sweep",
        "purity-panic" => {
            "return an error at the boundary or prove the invariant and use a non-panicking \
             accessor"
        }
        _ => "see EXPERIMENTS.md, static analysis section",
    }
    .to_string()
}
