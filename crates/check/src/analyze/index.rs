//! Cross-file symbol index over the token trees.
//!
//! A deliberately shallow model of the workspace — enough name/type
//! structure to resolve call edges without a real type checker:
//!
//! * every `fn` (file, line, name, enclosing `impl` type/trait, generic
//!   bounds, parameter types, body token tree);
//! * every `struct` field, classified as atomic (`Atomic*`) or lock
//!   (`Mutex`/`RwLock`) for the atomics and lock-order passes;
//! * trait → impl and trait → default-method maps (with supertraits),
//!   so `self.sampler.sample_into(…)` where `S: BatchSampler` resolves
//!   to every implementor;
//! * call sites with a classified receiver shape (qualified path,
//!   `self`, `self.field`, plain variable, or unknown).
//!
//! Resolution is tiered: precise when the receiver's type is recoverable
//! from fields/params/bounds, falling back to name-only lookup when not.
//! The passes treat "resolved to a known type that lacks the method" as
//! *external* (std/primitive method — out of scope) rather than falling
//! back, which keeps the purity walk from exploding through common
//! method names like `len` or `get`.

use super::tree::{build, tokenize, Delim, Group, Node, Tok};
use crate::scan::{scan, Scanned};
use std::collections::{HashMap, HashSet};

/// One scanned + tree-built source file.
pub struct FileInfo {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    pub scanned: Scanned,
    pub tree: Vec<Node>,
    /// Whole file is test/bench/example code (by path segment).
    pub is_test: bool,
    /// 0-based inclusive line spans of `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(usize, usize)>,
}

impl FileInfo {
    /// True when `line` (0-based) is test code — test file or inside a
    /// `#[cfg(test)]` region.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.is_test
            || self
                .test_regions
                .iter()
                .any(|&(a, b)| line >= a && line <= b)
    }
}

/// One `fn` definition.
pub struct FnDef {
    pub file: usize,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    pub name: String,
    /// Self type of the enclosing `impl` block, when nameable.
    pub impl_type: Option<String>,
    /// Trait being implemented (`impl T for X`) or declared in
    /// (`trait T { fn … }`).
    pub impl_trait: Option<String>,
    /// Declared inside a `trait` block (default method or bare decl).
    pub is_trait_decl: bool,
    pub in_test: bool,
    /// Generic params with their bound trait idents (impl + fn level,
    /// including `where` clauses).
    pub bounds: Vec<(String, Vec<String>)>,
    /// Parameter names with their top-level type idents.
    pub params: Vec<(String, Vec<String>)>,
    /// Takes `self` (a genuine method — associated fns don't answer
    /// `.name()` calls).
    pub has_self: bool,
    /// Body token tree; empty for bodyless trait decls.
    pub body: Vec<Node>,
}

/// One struct field.
pub struct FieldDef {
    pub name: String,
    /// 0-based line.
    pub line: usize,
    /// Top-level type idents (for method resolution).
    pub type_idents: Vec<String>,
    /// Type mentions an `Atomic*` anywhere.
    pub atomic: bool,
    /// Type mentions `Mutex`/`RwLock` anywhere.
    pub mutex: bool,
}

/// One struct definition with named fields.
pub struct StructDef {
    pub name: String,
    pub file: usize,
    /// 0-based line of the `struct` keyword.
    pub line: usize,
    pub fields: Vec<FieldDef>,
}

/// Receiver shape of a call site.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum Recv {
    /// `name(…)` with no qualifier.
    Free,
    /// `Q::name(…)` — last path segment before the call.
    Qualified(String),
    /// `self.name(…)`.
    SelfRecv,
    /// `self.field.name(…)`.
    SelfField(String),
    /// `var.name(…)`.
    Var(String),
    /// Anything else (`expr.name(…)`, long chains, `<T as U>::…`).
    Unknown,
}

/// One call site found in a fn body.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub name: String,
    pub recv: Recv,
    /// 0-based line of the called name.
    pub line: usize,
    pub is_macro: bool,
    /// Last identifier of the receiver chain (`self.a.b.m()` → `b`) —
    /// the owning-field key the atomics pass uses.
    pub chain_last: Option<String>,
    /// The argument group (paren/bracket/brace for macros).
    pub args: Option<Group>,
}

/// The workspace symbol index.
pub struct Index {
    pub files: Vec<FileInfo>,
    pub fns: Vec<FnDef>,
    pub structs: Vec<StructDef>,
    pub fns_by_name: HashMap<String, Vec<usize>>,
    /// Type name → fn ids defined in impls of that type.
    pub type_fns: HashMap<String, Vec<usize>>,
    /// Trait name → fn ids defined in `impl Trait for …` blocks.
    pub trait_impl_fns: HashMap<String, Vec<usize>>,
    /// Trait name → default-method fn ids.
    pub trait_default_fns: HashMap<String, Vec<usize>>,
    /// Trait name → supertrait names.
    pub trait_supers: HashMap<String, Vec<String>>,
    /// Type name → traits it implements.
    pub type_traits: HashMap<String, Vec<String>>,
    /// Field name → union of top-level type idents across structs.
    pub field_types: HashMap<String, Vec<String>>,
    /// Names of fields with `Atomic*` type anywhere in the workspace.
    pub atomic_fields: HashSet<String>,
    /// Names of fields with `Mutex`/`RwLock` type.
    pub mutex_fields: HashSet<String>,
}

/// True for paths whose whole content is test/bench/example code.
pub fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Line spans (0-based, inclusive) of `#[cfg(test)]` / `#[test]` items,
/// found by brace matching on the blanked code channel.
fn test_regions(s: &Scanned) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, line) in s.code.iter().enumerate() {
        if line.contains("#[cfg(test)]") || line.contains("#[test]") {
            if let Some(end) = closing_brace_line(s, i) {
                out.push((i, end));
            }
        }
    }
    out
}

/// From line `start`, the line of the `}` that closes the first `{`;
/// `None` when a `;` ends the item before a `{` opens (`use` lines,
/// unit structs).
fn closing_brace_line(s: &Scanned, start: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (li, line) in s.code.iter().enumerate().skip(start) {
        for c in line.chars() {
            match c {
                ';' if depth == 0 => return None,
                '{' => depth += 1,
                '}' if depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(li);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

fn as_ident(n: &Node) -> Option<&str> {
    match n {
        Node::Leaf(t) => match &t.tok {
            Tok::Ident(s) => Some(s),
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

fn group_delim(n: &Node) -> Option<Delim> {
    as_group(n).map(|g| g.delim)
}

const TYPE_KEYWORDS: &[&str] = &["mut", "dyn", "impl", "ref", "const", "as", "where"];

/// Collects identifiers at angle-bracket depth 0 of a token slice,
/// skipping groups and keywords. `'>'` clamps at depth 0 so `->` in a
/// return type cannot underflow.
fn idents_at_depth0(nodes: &[Node]) -> Vec<String> {
    let mut depth = 0usize;
    let mut out = Vec::new();
    for n in nodes {
        match as_punct(n) {
            Some('<') => depth += 1,
            Some('>') => depth = depth.saturating_sub(1),
            _ => {
                if depth == 0 {
                    if let Some(w) = as_ident(n) {
                        if !TYPE_KEYWORDS.contains(&w) {
                            out.push(w.to_string());
                        }
                    }
                }
            }
        }
    }
    out
}

/// All identifiers anywhere in a token slice, descending into groups.
fn idents_anywhere(nodes: &[Node], out: &mut Vec<String>) {
    for n in nodes {
        match n {
            Node::Leaf(_) => {
                if let Some(w) = as_ident(n) {
                    out.push(w.to_string());
                }
            }
            Node::Group(g) => idents_anywhere(&g.children, out),
        }
    }
}

/// Splits a node slice on a punctuation char at angle-depth 0.
fn split_top(nodes: &[Node], sep: char) -> Vec<&[Node]> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, n) in nodes.iter().enumerate() {
        match as_punct(n) {
            Some('<') => depth += 1,
            Some('>') => depth = depth.saturating_sub(1),
            Some(c) if c == sep && depth == 0 => {
                out.push(&nodes[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < nodes.len() {
        out.push(&nodes[start..]);
    }
    out
}

/// Parses a generics region starting at the `<` at `nodes[i]`; returns
/// (param → bound idents, index just past the matching `>`).
fn parse_angles(nodes: &[Node], i: usize) -> (Vec<(String, Vec<String>)>, usize) {
    let mut bounds = Vec::new();
    let mut depth = 0usize;
    let mut j = i;
    let mut current: Option<(String, Vec<String>)> = None;
    while j < nodes.len() {
        match as_punct(&nodes[j]) {
            Some('<') => depth += 1,
            Some('>') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            Some(',') if depth == 1 => {
                if let Some(b) = current.take() {
                    bounds.push(b);
                }
            }
            Some(':') if depth == 1 => {
                // `P:` opens a bound list for the preceding ident.
                if current.is_none() {
                    if let Some(w) = (j > i).then(|| as_ident(&nodes[j - 1])).flatten() {
                        current = Some((w.to_string(), Vec::new()));
                        j += 1;
                        continue;
                    }
                }
            }
            _ => {
                if depth == 1 {
                    if let (Some(w), Some((_, tr))) = (as_ident(&nodes[j]), current.as_mut()) {
                        if !TYPE_KEYWORDS.contains(&w) {
                            tr.push(w.to_string());
                        }
                    }
                }
            }
        }
        j += 1;
    }
    if let Some(b) = current.take() {
        bounds.push(b);
    }
    (bounds, j)
}

/// Parses `where`-clause-shaped bounds (`Ident : Trait + Trait, …`) out
/// of a header token region.
fn parse_where_bounds(nodes: &[Node], out: &mut Vec<(String, Vec<String>)>) {
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < nodes.len() {
        match as_punct(&nodes[i]) {
            Some('<') => depth += 1,
            Some('>') => depth = depth.saturating_sub(1),
            Some(':') if depth == 0 => {
                let single = i + 1 >= nodes.len() || as_punct(&nodes[i + 1]) != Some(':');
                let prev_colon = i > 0 && as_punct(&nodes[i - 1]) == Some(':');
                if single && !prev_colon {
                    if let Some(w) = (i > 0).then(|| as_ident(&nodes[i - 1])).flatten() {
                        let mut traits = Vec::new();
                        let mut d2 = 0usize;
                        let mut j = i + 1;
                        while j < nodes.len() {
                            match as_punct(&nodes[j]) {
                                Some('<') => d2 += 1,
                                Some('>') => d2 = d2.saturating_sub(1),
                                Some(',') if d2 == 0 => break,
                                _ => {
                                    if d2 == 0 {
                                        if let Some(t) = as_ident(&nodes[j]) {
                                            if !TYPE_KEYWORDS.contains(&t) {
                                                traits.push(t.to_string());
                                            }
                                        }
                                    }
                                }
                            }
                            j += 1;
                        }
                        out.push((w.to_string(), traits));
                        i = j;
                        continue;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

#[derive(Clone, Default)]
struct Ctx {
    impl_type: Option<String>,
    impl_trait: Option<String>,
    in_trait: bool,
    in_test: bool,
    bounds: Vec<(String, Vec<String>)>,
}

impl Index {
    /// Builds the index from `(path, text)` pairs.
    pub fn build(sources: &[(String, String)]) -> Index {
        let mut idx = Index {
            files: Vec::new(),
            fns: Vec::new(),
            structs: Vec::new(),
            fns_by_name: HashMap::new(),
            type_fns: HashMap::new(),
            trait_impl_fns: HashMap::new(),
            trait_default_fns: HashMap::new(),
            trait_supers: HashMap::new(),
            type_traits: HashMap::new(),
            field_types: HashMap::new(),
            atomic_fields: HashSet::new(),
            mutex_fields: HashSet::new(),
        };
        for (path, text) in sources {
            let scanned = scan(text);
            let tree = build(&tokenize(&scanned));
            let test_regions = test_regions(&scanned);
            let file = idx.files.len();
            let info = FileInfo {
                path: path.clone(),
                scanned,
                tree,
                is_test: is_test_path(path),
                test_regions,
            };
            idx.files.push(info);
            let ctx = Ctx {
                in_test: idx.files[file].is_test,
                ..Ctx::default()
            };
            let tree = idx.files[file].tree.clone();
            idx.scan_items(&tree, file, &ctx);
        }
        idx.finish_maps();
        idx
    }

    fn finish_maps(&mut self) {
        for (id, f) in self.fns.iter().enumerate() {
            self.fns_by_name.entry(f.name.clone()).or_default().push(id);
            if let Some(t) = &f.impl_type {
                self.type_fns.entry(t.clone()).or_default().push(id);
            }
            if let Some(tr) = &f.impl_trait {
                if f.is_trait_decl {
                    if !f.body.is_empty() {
                        self.trait_default_fns
                            .entry(tr.clone())
                            .or_default()
                            .push(id);
                    }
                } else {
                    self.trait_impl_fns.entry(tr.clone()).or_default().push(id);
                    if let Some(t) = &f.impl_type {
                        let traits = self.type_traits.entry(t.clone()).or_default();
                        if !traits.contains(tr) {
                            traits.push(tr.clone());
                        }
                    }
                }
            }
        }
        for s in &self.structs {
            for fd in &s.fields {
                let types = self.field_types.entry(fd.name.clone()).or_default();
                for t in &fd.type_idents {
                    if !types.contains(t) {
                        types.push(t.clone());
                    }
                }
                if fd.atomic {
                    self.atomic_fields.insert(fd.name.clone());
                }
                if fd.mutex {
                    self.mutex_fields.insert(fd.name.clone());
                }
            }
        }
    }

    fn scan_items(&mut self, nodes: &[Node], file: usize, ctx: &Ctx) {
        let mut i = 0usize;
        let mut pending_test = false;
        while i < nodes.len() {
            // Attributes: `#[…]` or `#![…]`.
            if as_punct(&nodes[i]) == Some('#') {
                let mut j = i + 1;
                if as_punct(nodes.get(j).unwrap_or(&nodes[i])) == Some('!') {
                    j += 1;
                }
                if group_delim(nodes.get(j).unwrap_or(&nodes[i])) == Some(Delim::Bracket) {
                    if let Some(g) = as_group(&nodes[j]) {
                        let mut words = Vec::new();
                        idents_anywhere(&g.children, &mut words);
                        if words.iter().any(|w| w == "test") {
                            pending_test = true;
                        }
                    }
                    i = j + 1;
                    continue;
                }
            }
            let Some(word) = as_ident(&nodes[i]) else {
                i += 1;
                continue;
            };
            match word {
                "fn" => {
                    let item_test = ctx.in_test || pending_test;
                    pending_test = false;
                    i = self.parse_fn(nodes, i, file, ctx, item_test);
                }
                "impl" => {
                    let item_test = ctx.in_test || pending_test;
                    pending_test = false;
                    i = self.parse_impl(nodes, i, file, item_test);
                }
                "trait" => {
                    let item_test = ctx.in_test || pending_test;
                    pending_test = false;
                    i = self.parse_trait(nodes, i, file, item_test);
                }
                "struct" => {
                    pending_test = false;
                    i = self.parse_struct(nodes, i, file);
                }
                "mod" => {
                    let item_test = ctx.in_test || pending_test;
                    pending_test = false;
                    // `mod name { … }` or `mod name;`
                    let mut j = i + 1;
                    while j < nodes.len()
                        && group_delim(&nodes[j]) != Some(Delim::Brace)
                        && as_punct(&nodes[j]) != Some(';')
                    {
                        j += 1;
                    }
                    if let Some(g) = nodes.get(j).and_then(as_group) {
                        let inner = Ctx {
                            in_test: item_test,
                            ..ctx.clone()
                        };
                        let children = g.children.clone();
                        self.scan_items(&children, file, &inner);
                    }
                    i = j + 1;
                }
                "enum" | "union" => {
                    pending_test = false;
                    let mut j = i + 1;
                    while j < nodes.len()
                        && group_delim(&nodes[j]) != Some(Delim::Brace)
                        && as_punct(&nodes[j]) != Some(';')
                    {
                        j += 1;
                    }
                    i = j + 1;
                }
                _ => i += 1,
            }
        }
    }

    /// Parses a `fn` item at `nodes[i]`; returns the index just past it.
    fn parse_fn(
        &mut self,
        nodes: &[Node],
        i: usize,
        file: usize,
        ctx: &Ctx,
        in_test: bool,
    ) -> usize {
        let Some(name) = nodes.get(i + 1).and_then(as_ident) else {
            // `fn(usize) -> R` function-pointer type, or soup.
            return i + 1;
        };
        let line = nodes[i].line();
        let mut j = i + 2;
        let mut bounds = ctx.bounds.clone();
        if as_punct(nodes.get(j).unwrap_or(&nodes[i])) == Some('<') {
            let (b, nj) = parse_angles(nodes, j);
            bounds.extend(b);
            j = nj;
        }
        let Some(Delim::Paren) = nodes.get(j).and_then(group_delim) else {
            return i + 2;
        };
        let params = nodes
            .get(j)
            .and_then(as_group)
            .map(|g| parse_params(&g.children))
            .unwrap_or_default();
        let has_self = nodes.get(j).and_then(as_group).is_some_and(|g| {
            split_top(&g.children, ',')
                .first()
                .is_some_and(|p| p.iter().any(|n| as_ident(n) == Some("self")))
        });
        j += 1;
        // Return type / where clause up to the body or `;`.
        let tail_start = j;
        while j < nodes.len()
            && group_delim(&nodes[j]) != Some(Delim::Brace)
            && as_punct(&nodes[j]) != Some(';')
        {
            j += 1;
        }
        // `where` bounds (the region may also hold the return type;
        // `parse_where_bounds` only reacts to `Ident :` shapes).
        if let Some(wpos) = nodes[tail_start..j]
            .iter()
            .position(|n| as_ident(n) == Some("where"))
        {
            parse_where_bounds(&nodes[tail_start + wpos + 1..j], &mut bounds);
        }
        let body = nodes
            .get(j)
            .and_then(as_group)
            .map(|g| g.children.clone())
            .unwrap_or_default();
        let has_body = !body.is_empty()
            || group_delim(nodes.get(j).unwrap_or(&nodes[i])) == Some(Delim::Brace);
        self.fns.push(FnDef {
            file,
            line,
            name: name.to_string(),
            impl_type: ctx.impl_type.clone(),
            impl_trait: ctx.impl_trait.clone(),
            is_trait_decl: ctx.in_trait,
            in_test,
            bounds,
            params,
            has_self,
            body: body.clone(),
        });
        // Nested `fn` items inside the body are indexed as free fns.
        if has_body {
            let inner = Ctx {
                in_test,
                ..Ctx::default()
            };
            self.scan_items(&body, file, &inner);
        }
        j + 1
    }

    fn parse_impl(&mut self, nodes: &[Node], i: usize, file: usize, in_test: bool) -> usize {
        let mut j = i + 1;
        let mut bounds = Vec::new();
        if as_punct(nodes.get(j).unwrap_or(&nodes[i])) == Some('<') {
            let (b, nj) = parse_angles(nodes, j);
            bounds = b;
            j = nj;
        }
        // Header tokens up to the body brace.
        let header_start = j;
        while j < nodes.len() && group_delim(&nodes[j]) != Some(Delim::Brace) {
            j += 1;
        }
        let header = &nodes[header_start..j];
        let wpos = header.iter().position(|n| as_ident(n) == Some("where"));
        let (path_part, where_part) = match wpos {
            Some(w) => (&header[..w], &header[w + 1..]),
            None => (header, &header[header.len()..]),
        };
        parse_where_bounds(where_part, &mut bounds);
        let fpos = path_part.iter().position(|n| as_ident(n) == Some("for"));
        let (impl_trait, impl_type) = match fpos {
            Some(f) => {
                let tr = idents_at_depth0(&path_part[..f]).pop();
                let ty = idents_at_depth0(&path_part[f + 1..]).pop();
                (tr, ty)
            }
            None => (None, idents_at_depth0(path_part).pop()),
        };
        // A "type" that is one of the impl's own generic params is a
        // blanket impl (`impl<S: T> T for &S`): methods still register
        // under the trait, but not under a type name.
        let generic_self = impl_type
            .as_deref()
            .is_some_and(|t| bounds.iter().any(|(p, _)| p == t));
        let ctx = Ctx {
            impl_type: if generic_self { None } else { impl_type },
            impl_trait,
            in_trait: false,
            in_test,
            bounds,
        };
        if let Some(g) = nodes.get(j).and_then(as_group) {
            let children = g.children.clone();
            self.scan_items(&children, file, &ctx);
        }
        j + 1
    }

    fn parse_trait(&mut self, nodes: &[Node], i: usize, file: usize, in_test: bool) -> usize {
        let Some(name) = nodes.get(i + 1).and_then(as_ident) else {
            return i + 1;
        };
        let mut j = i + 2;
        let mut bounds = Vec::new();
        if as_punct(nodes.get(j).unwrap_or(&nodes[i])) == Some('<') {
            let (b, nj) = parse_angles(nodes, j);
            bounds = b;
            j = nj;
        }
        // Supertraits: `: Super + Super2` before the body.
        let header_start = j;
        while j < nodes.len() && group_delim(&nodes[j]) != Some(Delim::Brace) {
            j += 1;
        }
        let header = &nodes[header_start..j];
        if as_punct(header.first().unwrap_or(&nodes[i])) == Some(':') {
            let wend = header
                .iter()
                .position(|n| as_ident(n) == Some("where"))
                .unwrap_or(header.len());
            let supers = idents_at_depth0(&header[1..wend]);
            if !supers.is_empty() {
                self.trait_supers.insert(name.to_string(), supers);
            }
        }
        let ctx = Ctx {
            impl_type: None,
            impl_trait: Some(name.to_string()),
            in_trait: true,
            in_test,
            bounds,
        };
        if let Some(g) = nodes.get(j).and_then(as_group) {
            let children = g.children.clone();
            self.scan_items(&children, file, &ctx);
        }
        j + 1
    }

    fn parse_struct(&mut self, nodes: &[Node], i: usize, file: usize) -> usize {
        let Some(name) = nodes.get(i + 1).and_then(as_ident) else {
            return i + 1;
        };
        let line = nodes[i].line();
        let mut j = i + 2;
        if as_punct(nodes.get(j).unwrap_or(&nodes[i])) == Some('<') {
            let (_, nj) = parse_angles(nodes, j);
            j = nj;
        }
        while j < nodes.len()
            && group_delim(&nodes[j]) != Some(Delim::Brace)
            && group_delim(&nodes[j]) != Some(Delim::Paren)
            && as_punct(&nodes[j]) != Some(';')
        {
            j += 1;
        }
        let mut fields = Vec::new();
        if let Some(g) = nodes.get(j).and_then(as_group) {
            if g.delim == Delim::Brace {
                for field in split_top(&g.children, ',') {
                    if let Some(fd) = parse_field(field) {
                        fields.push(fd);
                    }
                }
            }
        }
        self.structs.push(StructDef {
            name: name.to_string(),
            file,
            line,
            fields,
        });
        j + 1
    }

    /// Fn ids of trait `tr` (impls + defaults, supertraits included)
    /// with the given method name.
    pub fn trait_method_fns(&self, tr: &str, name: &str) -> Vec<usize> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut queue = vec![tr.to_string()];
        while let Some(t) = queue.pop() {
            if !seen.insert(t.clone()) {
                continue;
            }
            for map in [&self.trait_impl_fns, &self.trait_default_fns] {
                if let Some(ids) = map.get(&t) {
                    out.extend(ids.iter().copied().filter(|&id| self.fns[id].name == name));
                }
            }
            if let Some(supers) = self.trait_supers.get(&t) {
                queue.extend(supers.iter().cloned());
            }
        }
        out
    }

    /// Is `name` a known trait?
    fn is_trait(&self, name: &str) -> bool {
        self.trait_impl_fns.contains_key(name)
            || self.trait_default_fns.contains_key(name)
            || self.trait_supers.contains_key(name)
    }

    /// Methods reachable on a type ident: inherent/trait-impl fns of the
    /// type plus default methods of the traits it implements.
    fn type_method_fns(&self, ty: &str, name: &str) -> (bool, Vec<usize>) {
        let known = self.type_fns.contains_key(ty);
        let mut out = Vec::new();
        if let Some(ids) = self.type_fns.get(ty) {
            out.extend(ids.iter().copied().filter(|&id| self.fns[id].name == name));
        }
        if out.is_empty() {
            if let Some(traits) = self.type_traits.get(ty) {
                for tr in traits {
                    out.extend(self.trait_method_fns(tr, name));
                }
            }
        }
        (known, out)
    }

    /// Resolves a set of candidate type idents (params/fields may list
    /// several path segments) to fns named `name`. Generic idents go
    /// through the caller's bounds. Returns `(had_type_info, fns)`.
    fn resolve_type_idents(
        &self,
        idents: &[String],
        name: &str,
        caller: &FnDef,
    ) -> (bool, Vec<usize>) {
        let mut any_known = false;
        let mut out = Vec::new();
        for ty in idents {
            let (known, fns) = self.type_method_fns(ty, name);
            any_known |= known;
            out.extend(fns);
            if self.is_trait(ty) {
                any_known = true;
                out.extend(self.trait_method_fns(ty, name));
            }
            if let Some((_, traits)) = caller.bounds.iter().find(|(p, _)| p == ty) {
                any_known = true;
                for tr in traits {
                    out.extend(self.trait_method_fns(tr, name));
                }
            }
        }
        (any_known, out)
    }

    fn by_name(&self, name: &str) -> Vec<usize> {
        self.fns_by_name.get(name).cloned().unwrap_or_default()
    }

    /// Last-resort fallback for a method call whose receiver type is
    /// unknown: only resolve when the name is *unique* in the workspace
    /// (`.len()`, `.push()` & co. would otherwise wire every hot path
    /// to every container impl).
    fn unique_by_name(&self, name: &str) -> Vec<usize> {
        let all: Vec<usize> = self
            .by_name(name)
            .into_iter()
            .filter(|&id| self.fns[id].has_self)
            .collect();
        if all.len() == 1 {
            all
        } else {
            Vec::new()
        }
    }

    fn free_by_name(&self, name: &str) -> Vec<usize> {
        let all = self.by_name(name);
        let free: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&id| {
                let f = &self.fns[id];
                f.impl_type.is_none() && f.impl_trait.is_none()
            })
            .collect();
        if free.is_empty() {
            all
        } else {
            free
        }
    }

    /// Resolves a call site to candidate fn ids. Empty means *external*
    /// (std or primitive method) — out of analysis scope.
    pub fn resolve(&self, site: &CallSite, caller: &FnDef) -> Vec<usize> {
        if site.is_macro {
            return Vec::new();
        }
        let name = site.name.as_str();
        match &site.recv {
            Recv::Qualified(q) => {
                let q = if q == "Self" {
                    match &caller.impl_type {
                        Some(t) => t.clone(),
                        None => return self.by_name(name),
                    }
                } else {
                    q.clone()
                };
                let (known, fns) = self.resolve_type_idents(&[q], name, caller);
                if known {
                    fns
                } else {
                    // Module-qualified free fn (`scheduler::lock(…)`).
                    self.free_by_name(name)
                }
            }
            Recv::SelfRecv => {
                if let Some(t) = &caller.impl_type {
                    let (known, fns) =
                        self.resolve_type_idents(std::slice::from_ref(t), name, caller);
                    if known && !fns.is_empty() {
                        return fns;
                    }
                }
                if let Some(tr) = &caller.impl_trait {
                    let fns = self.trait_method_fns(tr, name);
                    if !fns.is_empty() {
                        return fns;
                    }
                }
                if caller.impl_type.is_some() || caller.impl_trait.is_some() {
                    Vec::new()
                } else {
                    self.by_name(name)
                }
            }
            Recv::SelfField(f) => match self.field_types.get(f) {
                Some(types) => {
                    let types = types.clone();
                    let (known, fns) = self.resolve_type_idents(&types, name, caller);
                    if known {
                        fns
                    } else {
                        self.unique_by_name(name)
                    }
                }
                None => self.unique_by_name(name),
            },
            Recv::Var(v) => match caller.params.iter().find(|(p, _)| p == v) {
                Some((_, types)) => {
                    let types = types.clone();
                    let (known, fns) = self.resolve_type_idents(&types, name, caller);
                    if known {
                        fns
                    } else {
                        self.unique_by_name(name)
                    }
                }
                None => self.unique_by_name(name),
            },
            Recv::Free => self.free_by_name(name),
            Recv::Unknown => self.unique_by_name(name),
        }
    }
}

/// Parses a param list (children of the fn's paren group).
fn parse_params(nodes: &[Node]) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    for param in split_top(nodes, ',') {
        // Strip attributes.
        let mut skip = 0usize;
        while param.get(skip).and_then(as_punct) == Some('#')
            && param.get(skip + 1).and_then(group_delim) == Some(Delim::Bracket)
        {
            skip += 2;
        }
        let p = &param[skip..];
        let colon = {
            let mut depth = 0usize;
            let mut pos = None;
            for (i, n) in p.iter().enumerate() {
                match as_punct(n) {
                    Some('<') => depth += 1,
                    Some('>') => depth = depth.saturating_sub(1),
                    Some(':') if depth == 0 => {
                        let dbl = p.get(i + 1).and_then(as_punct) == Some(':')
                            || (i > 0 && as_punct(&p[i - 1]) == Some(':'));
                        if !dbl {
                            pos = Some(i);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            pos
        };
        let Some(c) = colon else {
            continue; // `self`, `&mut self`, or soup
        };
        let name = p[..c]
            .iter()
            .rev()
            .find_map(as_ident)
            .filter(|w| *w != "mut" && *w != "ref")
            .map(str::to_string);
        if let Some(name) = name {
            // Collect idents at any depth: `&mut [f64]`, `Box<dyn
            // FieldSource>` etc. keep their payload type visible.
            let mut types = Vec::new();
            idents_anywhere(&p[c + 1..], &mut types);
            out.push((name, types));
        }
    }
    out
}

/// Parses one struct field's tokens.
fn parse_field(nodes: &[Node]) -> Option<FieldDef> {
    // Skip attributes and visibility.
    let mut i = 0usize;
    loop {
        if as_punct(nodes.get(i)?) == Some('#')
            && group_delim(nodes.get(i + 1)?) == Some(Delim::Bracket)
        {
            i += 2;
        } else if as_ident(nodes.get(i)?) == Some("pub") {
            i += 1;
            if group_delim(nodes.get(i)?) == Some(Delim::Paren) {
                i += 1;
            }
        } else {
            break;
        }
    }
    let rest = &nodes[i..];
    let colon = rest.iter().position(|n| as_punct(n) == Some(':'))?;
    let name = rest[..colon].iter().rev().find_map(as_ident)?.to_string();
    let line = rest.first().map_or(0, Node::line);
    let ty = &rest[colon + 1..];
    let mut all = Vec::new();
    idents_anywhere(ty, &mut all);
    let atomic = all.iter().any(|w| w.starts_with("Atomic"));
    let mutex = all.iter().any(|w| w == "Mutex" || w == "RwLock");
    Some(FieldDef {
        name,
        line,
        type_idents: all.clone(),
        atomic,
        mutex,
    })
}

const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "move", "in", "as", "ref", "let", "else",
    "fn", "impl", "where", "pub", "use", "mod", "break", "continue", "unsafe", "dyn", "box",
];

/// Extracts every call site (function, method, macro) in a body.
pub fn calls_in(nodes: &[Node]) -> Vec<CallSite> {
    let mut out = Vec::new();
    walk_calls(nodes, &mut out);
    out
}

fn walk_calls(nodes: &[Node], out: &mut Vec<CallSite>) {
    for (i, n) in nodes.iter().enumerate() {
        if let Some(g) = as_group(n) {
            walk_calls(&g.children, out);
            continue;
        }
        let Some(w) = as_ident(n) else { continue };
        // Macro: `name ! ( … )` / `name ! [ … ]` / `name ! { … }`.
        if as_punct(nodes.get(i + 1).unwrap_or(n)) == Some('!') {
            if let Some(g) = nodes.get(i + 2).and_then(as_group) {
                out.push(CallSite {
                    name: w.to_string(),
                    recv: Recv::Free,
                    line: n.line(),
                    is_macro: true,
                    chain_last: None,
                    args: Some(g.clone()),
                });
            }
            continue;
        }
        if group_delim(nodes.get(i + 1).unwrap_or(n)) != Some(Delim::Paren)
            || CALL_KEYWORDS.contains(&w)
        {
            continue;
        }
        let args = nodes.get(i + 1).and_then(as_group).cloned();
        let (recv, chain_last) = receiver_of(nodes, i);
        out.push(CallSite {
            name: w.to_string(),
            recv,
            line: n.line(),
            is_macro: false,
            chain_last,
            args,
        });
    }
}

/// Classifies the receiver of the call whose name sits at `nodes[i]`.
fn receiver_of(nodes: &[Node], i: usize) -> (Recv, Option<String>) {
    // Qualified path: `… :: name (…)`.
    if i >= 2 && as_punct(&nodes[i - 1]) == Some(':') && as_punct(&nodes[i - 2]) == Some(':') {
        if i >= 3 {
            if let Some(q) = as_ident(&nodes[i - 3]) {
                return (Recv::Qualified(q.to_string()), None);
            }
        }
        return (Recv::Unknown, None);
    }
    // Method: `chain . name (…)`.
    if i >= 1 && as_punct(&nodes[i - 1]) == Some('.') {
        // A `..` range, not a method call.
        if i >= 2 && as_punct(&nodes[i - 2]) == Some('.') {
            return (Recv::Unknown, None);
        }
        let mut chain: Vec<String> = Vec::new();
        let mut k = i - 1; // at the '.'
        let mut pure = true;
        loop {
            if k == 0 {
                pure = false;
                break;
            }
            let prev = &nodes[k - 1];
            if let Some(v) = as_ident(prev) {
                chain.push(v.to_string());
                if k >= 3
                    && as_punct(&nodes[k - 2]) == Some('.')
                    && as_punct(&nodes[k - 3]) != Some('.')
                {
                    k -= 2;
                    continue;
                }
                break;
            }
            pure = false;
            break;
        }
        chain.reverse();
        let last = chain.last().cloned();
        if !pure {
            return (Recv::Unknown, last);
        }
        let recv = match chain.as_slice() {
            [one] if one == "self" => Recv::SelfRecv,
            [s, f] if s == "self" => Recv::SelfField(f.clone()),
            [one] => Recv::Var(one.clone()),
            _ => Recv::Unknown,
        };
        (recv, last)
    } else {
        (Recv::Free, None)
    }
}
