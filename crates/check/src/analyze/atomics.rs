//! Pass 1 — atomics ordering audit.
//!
//! Inventories every `Ordering::<Variant>` use site in the workspace
//! (the acceptance test cross-checks this count with an independent
//! text scan), then enforces:
//!
//! * **pairing** (`atomics-unpaired-release` / `atomics-unpaired-acquire`):
//!   a `Release`-side write to an atomic field must have an
//!   `Acquire`-or-stronger read of the *same field* somewhere in
//!   production code, and vice versa. RMW ops count for both sides;
//!   `SeqCst` satisfies either side (but does not demand a partner —
//!   it demands a justification instead).
//! * **justification** (`atomics-missing-justification`): every
//!   `Relaxed` or `SeqCst` use site binds to an adjacent
//!   `// ordering: …` comment (the adjacency walk of
//!   `Scanned::comment_near`, which `pic-lint`'s suppressions use).
//! * **comment grammar** (`atomics-malformed-justification`): a bound
//!   comment must follow `// ordering: <Ordering>[ / <Ordering>] — <reason>`;
//!   only variant names *before* the em-dash are binding, so prose may
//!   mention the partner ordering freely.
//! * **staleness** (`atomics-stale-justification`): the variants a
//!   comment names must match the variants actually used on the line
//!   it binds to — a comment left behind by an ordering change fails.
//! * **orphans** (`atomics-orphan-justification`): an `// ordering:`
//!   comment that no longer binds to any atomic-ordering use site is
//!   the limiting case of staleness (the code moved away).
//!
//! Pairing is keyed by *field name*: precise enough for this workspace
//! (field names are unique per concern) without a type checker, and a
//! name collision can only mask, never invent, a finding.

use super::index::{calls_in, Index};
use super::tree::{flatten, RawTok, Tok};
use crate::scan::Scanned;
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The five atomic memory orderings (`std::sync::atomic::Ordering`).
pub const VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

const ADJACENT_LINES: usize = 3;

/// One `Ordering::<Variant>` use site.
#[derive(Clone, Debug)]
pub struct OrderingSite {
    /// Workspace-relative path.
    pub path: String,
    /// 0-based line of the variant token.
    pub line: usize,
    pub variant: &'static str,
}

/// Token-pattern scan for `Ordering :: <Variant>` over one file.
pub fn ordering_sites(flat: &[RawTok], path: &str) -> Vec<OrderingSite> {
    let mut out = Vec::new();
    for i in 0..flat.len() {
        let Tok::Ident(w) = &flat[i].tok else {
            continue;
        };
        if w != "Ordering" {
            continue;
        }
        let colons = matches!(flat.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
            && matches!(flat.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':')));
        if !colons {
            continue;
        }
        if let Some(Tok::Ident(v)) = flat.get(i + 3).map(|t| &t.tok) {
            if let Some(variant) = VARIANTS.iter().find(|name| *name == v) {
                out.push(OrderingSite {
                    path: path.to_string(),
                    line: flat[i + 3].line,
                    variant,
                });
            }
        }
    }
    out
}

/// Atomic op kinds, for read/write side classification.
fn op_sides(name: &str) -> Option<(bool, bool)> {
    // (writes, reads)
    match name {
        "store" => Some((true, false)),
        "load" => Some((false, true)),
        "swap"
        | "fetch_add"
        | "fetch_sub"
        | "fetch_and"
        | "fetch_or"
        | "fetch_xor"
        | "fetch_nand"
        | "fetch_max"
        | "fetch_min"
        | "compare_exchange"
        | "compare_exchange_weak"
        | "fetch_update" => Some((true, true)),
        _ => None,
    }
}

struct Op {
    field: String,
    line: usize,
    path: String,
    /// Ordering of the write side, when the op writes.
    write_order: Option<&'static str>,
    /// Orderings any read of the op can use (success + failure).
    read_orders: Vec<&'static str>,
}

/// Strips `/`, `!` and whitespace off the front of a comment-channel
/// line, exposing the `ordering:` / `bounds:` prefix.
pub fn strip_comment(c: &str) -> &str {
    c.trim_start_matches(['/', '!', ' ', '\t'])
}

/// Walks upward from `line` exactly like `Scanned::comment_near`, but
/// returns the 0-based line of the first comment whose stripped text
/// starts with `prefix`.
pub fn find_comment(s: &Scanned, line: usize, above: usize, prefix: &str) -> Option<usize> {
    let hit = |l: usize| {
        s.comments
            .get(l)
            .is_some_and(|c| strip_comment(c).starts_with(prefix))
    };
    if hit(line) {
        return Some(line);
    }
    let mut budget = above;
    let mut l = line;
    while l > 0 {
        l -= 1;
        if hit(l) {
            return Some(l);
        }
        let is_comment = s.comments.get(l).is_some_and(|c| !c.trim().is_empty());
        if !is_comment {
            // A justification does not reach across a block boundary —
            // a comment covers its own statement group, not ops in a
            // different scope below it.
            let code = s.code.get(l).map(|c| c.trim()).unwrap_or("");
            if code.starts_with('}') {
                return None;
            }
            if budget == 0 {
                return None;
            }
            budget -= 1;
        }
    }
    None
}

/// Parses the binding variants of an `// ordering:` comment: the
/// variant names before the em-dash. `None` when the comment does not
/// follow the `ordering: <Ordering> — <reason>` grammar.
fn named_variants(comment: &str) -> Option<Vec<&'static str>> {
    let text = strip_comment(comment).strip_prefix("ordering:")?;
    let prefix = text.split('—').next().unwrap_or(text);
    // The grammar requires the em-dash separator.
    if !text.contains('—') {
        return None;
    }
    let named: Vec<&'static str> = VARIANTS
        .iter()
        .copied()
        .filter(|v| {
            prefix
                .split(|c: char| !c.is_alphanumeric())
                .any(|w| w == *v)
        })
        .collect();
    if named.is_empty() {
        None
    } else {
        Some(named)
    }
}

fn allow(s: &Scanned, line: usize, rule: &str) -> bool {
    s.comment_near(line, ADJACENT_LINES, &format!("analyze: allow({rule})"))
}

/// Runs the audit. Returns (diagnostics, full inventory).
pub fn check(idx: &Index) -> (Vec<Diagnostic>, Vec<OrderingSite>) {
    let mut inventory = Vec::new();
    let mut ops: Vec<Op> = Vec::new();
    let mut diags = Vec::new();

    for info in &idx.files {
        let mut flat = Vec::new();
        flatten(&info.tree, &mut flat);
        let sites = ordering_sites(&flat, &info.path);

        // Op extraction: atomic method calls whose args use Ordering.
        for call in calls_in(&info.tree) {
            let Some((writes, _reads)) = op_sides(&call.name) else {
                continue;
            };
            let Some(args) = &call.args else { continue };
            let mut arg_flat = Vec::new();
            flatten(&args.children, &mut arg_flat);
            let orders: Vec<&'static str> = ordering_sites(&arg_flat, &info.path)
                .into_iter()
                .map(|s| s.variant)
                .collect();
            if orders.is_empty() {
                continue; // forwarding wrapper (`self.v.load(order)`)
            }
            let Some(field) = call.chain_last.clone() else {
                continue;
            };
            if !idx.atomic_fields.contains(&field) {
                continue;
            }
            if info.line_in_test(call.line) {
                continue;
            }
            let (write_order, read_orders) = match call.name.as_str() {
                "store" => (Some(orders[0]), Vec::new()),
                "load" => (None, vec![orders[0]]),
                "compare_exchange" | "compare_exchange_weak" | "fetch_update" => {
                    (Some(orders[0]), orders.clone())
                }
                _ => (writes.then_some(orders[0]), vec![orders[0]]),
            };
            ops.push(Op {
                field,
                line: call.line,
                path: info.path.clone(),
                write_order,
                read_orders,
            });
        }

        // Justification / staleness / malformed-comment rules, per
        // variant-token line in production code.
        let s = &info.scanned;
        let mut by_line: BTreeMap<usize, Vec<&'static str>> = BTreeMap::new();
        for site in &sites {
            by_line.entry(site.line).or_default().push(site.variant);
        }
        let mut bound_comments: BTreeSet<usize> = BTreeSet::new();
        for (&line, variants) in &by_line {
            if info.line_in_test(line) {
                continue;
            }
            let comment = find_comment(s, line, ADJACENT_LINES, "ordering:");
            if let Some(c) = comment {
                bound_comments.insert(c);
                match named_variants(&s.comments[c]) {
                    None => {
                        if !allow(s, line, "atomics-malformed-justification") {
                            diags.push(Diagnostic {
                                path: info.path.clone(),
                                line: c + 1,
                                rule: "atomics-malformed-justification",
                                message: "`// ordering:` comment does not follow the \
                                          `ordering: <Ordering> — <reason>` grammar"
                                    .to_string(),
                                hint: Some(
                                    "name the ordering(s) the op uses, an em-dash, then the \
                                     reason; e.g. `// ordering: Release — publishes the slot \
                                     write to the Acquire load in pop()`"
                                        .to_string(),
                                ),
                            });
                        }
                    }
                    Some(named) => {
                        for v in variants {
                            if !named.contains(v) && !allow(s, line, "atomics-stale-justification")
                            {
                                diags.push(Diagnostic {
                                    path: info.path.clone(),
                                    line: line + 1,
                                    rule: "atomics-stale-justification",
                                    message: format!(
                                        "op uses Ordering::{v} but the justification on line \
                                         {} names {}; the comment is stale",
                                        c + 1,
                                        named.join("/")
                                    ),
                                    hint: Some(
                                        "update the comment to argue the ordering the code \
                                         actually uses (or fix the ordering)"
                                            .to_string(),
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            let needs = variants.iter().any(|v| *v == "Relaxed" || *v == "SeqCst");
            if needs && comment.is_none() && !allow(s, line, "atomics-missing-justification") {
                diags.push(Diagnostic {
                    path: info.path.clone(),
                    line: line + 1,
                    rule: "atomics-missing-justification",
                    message: format!(
                        "Ordering::{} without an adjacent `// ordering:` justification",
                        variants.join("/Ordering::")
                    ),
                    hint: Some(
                        "add `// ordering: <Ordering> — <reason>` within 3 lines above".to_string(),
                    ),
                });
            }
        }

        // Orphans: production `// ordering:` comments bound to nothing.
        for (l, c) in s.comments.iter().enumerate() {
            if !strip_comment(c).starts_with("ordering:") {
                continue;
            }
            if info.line_in_test(l) || bound_comments.contains(&l) {
                continue;
            }
            if allow(s, l, "atomics-orphan-justification") {
                continue;
            }
            diags.push(Diagnostic {
                path: info.path.clone(),
                line: l + 1,
                rule: "atomics-orphan-justification",
                message: "`// ordering:` justification no longer adjacent to any atomic \
                          ordering use site"
                    .to_string(),
                hint: Some("delete the comment or move it next to the op it justifies".to_string()),
            });
        }

        inventory.extend(sites);
    }

    // Pairing over the whole workspace, keyed by field name.
    let mut per_field: HashMap<&str, Vec<&Op>> = HashMap::new();
    for op in &ops {
        per_field.entry(op.field.as_str()).or_default().push(op);
    }
    let acq_side = |o: &str| o == "Acquire" || o == "AcqRel" || o == "SeqCst";
    let rel_side = |o: &str| o == "Release" || o == "AcqRel" || o == "SeqCst";
    for (field, fops) in &per_field {
        let has_acq_read = fops
            .iter()
            .any(|op| op.read_orders.iter().any(|o| acq_side(o)));
        let has_rel_write = fops.iter().any(|op| op.write_order.is_some_and(rel_side));
        for op in fops {
            if op
                .write_order
                .is_some_and(|o| o == "Release" || o == "AcqRel")
                && !has_acq_read
            {
                diags.push(Diagnostic {
                    path: op.path.clone(),
                    line: op.line + 1,
                    rule: "atomics-unpaired-release",
                    message: format!(
                        "Release-side write to `{field}` has no Acquire/SeqCst read of the \
                         same field anywhere in production code"
                    ),
                    hint: Some(format!(
                        "give `{field}` an Acquire (or SeqCst) load where the written value \
                         is consumed, or relax this write if nothing synchronizes on it"
                    )),
                });
            }
            if op
                .read_orders
                .iter()
                .any(|o| *o == "Acquire" || *o == "AcqRel")
                && !has_rel_write
            {
                diags.push(Diagnostic {
                    path: op.path.clone(),
                    line: op.line + 1,
                    rule: "atomics-unpaired-acquire",
                    message: format!(
                        "Acquire-side read of `{field}` has no Release/SeqCst write of the \
                         same field anywhere in production code"
                    ),
                    hint: Some(format!(
                        "make the producing write to `{field}` Release (or SeqCst), or relax \
                         this read if it observes no published data"
                    )),
                });
            }
        }
    }

    (diags, inventory)
}
