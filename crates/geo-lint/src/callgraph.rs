//! Cross-crate call graph over the parsed workspace.
//!
//! Nodes are `fn` items keyed by `crate_ident::module::[Type::]name`.
//! Resolution is best-effort and explicitly layered (see DESIGN §13):
//! same-module free functions, `use`-imported names, fully-qualified
//! paths (with `crate`/`self`/`super`/`Self` normalization), enclosing
//! `impl` for `self.method()` calls, the declared type of the receiver
//! for `self.field.method()` and `param.method()` calls, the target type
//! of a `type` alias for `Alias::f` paths and alias-typed receivers, and
//! unique-name matching for other method calls. What cannot be pinned
//! down is *recorded* as an unresolved call — never treated as
//! resolved-to-nothing-safe.

use crate::parser::{CallKind, FnItem, ParsedFile, Receiver, Sink};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Declared struct field types, keyed by (crate dir, struct, field), each
/// as (crate dir of the type, type); `None` when the crate declares the
/// struct name twice with different types for the field.
type FieldTypes = HashMap<(String, String, String), Option<(String, String)>>;

/// Module-level `type` aliases, keyed by (crate dir, alias), each as
/// (crate dir of the target, target type); `None` when the crate declares
/// the alias twice with different targets.
type Aliases = HashMap<(String, String), Option<(String, String)>>;

/// One function node in the graph.
#[derive(Debug)]
pub(crate) struct FnNode {
    /// Display key: `crate_ident::module::[Type::]name`.
    pub key: String,
    /// Root-relative file path.
    pub file: String,
    /// Crate directory name (`geo-serve`), if under `crates/`.
    pub crate_dir: Option<String>,
    /// True when the file is under the crate's `src/`.
    pub in_src: bool,
    pub impl_type: Option<String>,
    pub name: String,
    pub item_line: usize,
    pub sig_line: usize,
    pub markers: Vec<String>,
    pub sinks: Vec<Sink>,
}

/// One resolved call edge, with the token order of the call site (for
/// lock-order sequencing).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub target: usize,
    pub order: usize,
    pub line: usize,
}

/// One call the resolver could not pin to a workspace function (and could
/// not prove external either).
#[derive(Debug)]
pub(crate) struct UnresolvedEdge {
    pub from: usize,
    /// The call as written (`mystery::frobnicate`, `.lookup()`).
    pub name: String,
    pub line: usize,
    pub why: String,
}

/// The built graph.
#[derive(Debug)]
pub(crate) struct Graph {
    pub nodes: Vec<FnNode>,
    /// Per-node outgoing edges, sorted by (target, order), deduped by
    /// target keeping the earliest call site.
    pub edges: Vec<Vec<Edge>>,
    pub unresolved: Vec<UnresolvedEdge>,
    pub edge_count: usize,
}

/// Path heads that are known-external: std and friends, vendored crates,
/// primitives, and prelude types whose associated calls never target
/// workspace code. Workspace imports are consulted *before* this list, so
/// a real `use crate::…` alias always wins.
const EXTERNAL_HEADS: &[&str] = &[
    "std",
    "core",
    "alloc",
    "rand",
    "proptest",
    "criterion",
    // primitives
    "u8",
    "u16",
    "u32",
    "u64",
    "u128",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "i128",
    "isize",
    "f32",
    "f64",
    "bool",
    "char",
    "str",
    // prelude
    "String",
    "Vec",
    "Box",
    "Option",
    "Result",
    "Some",
    "Ok",
    "Err",
    "Iterator",
    "IntoIterator",
    "Default",
    "Clone",
    "Copy",
    "Drop",
    "Send",
    "Sync",
    "ToOwned",
    "ToString",
    "From",
    "Into",
    "TryFrom",
    "TryInto",
    "PartialEq",
    "PartialOrd",
    "Eq",
    "Ord",
    "Hash",
];

/// Method names owned by ubiquitous std types (slices, Vec, HashMap,
/// strings, atomics, locks, io traits, iterators, threads). A method
/// *call* with one of these names on an unknown receiver is
/// overwhelmingly more likely to target std than workspace code, so the
/// name-based fallback skips them — `self.method()` and fully-qualified
/// resolution still work, and a same-named workspace method called on an
/// unknown receiver simply never gets a name-guessed edge.
const STD_METHODS: &[&str] = &[
    // collections & slices
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
    "extend",
    "drain",
    "retain",
    "truncate",
    "resize",
    "reserve",
    "entry",
    "or_insert",
    "or_default",
    "keys",
    "values",
    "first",
    "last",
    "split_at",
    "chunks",
    "windows",
    "binary_search",
    "binary_search_by",
    "partition_point",
    "swap",
    "fill",
    "copy_from_slice",
    // iterators
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "collect",
    "map",
    "filter",
    "fold",
    "sum",
    "min",
    "max",
    "min_by",
    "max_by",
    "count",
    "any",
    "all",
    "position",
    "zip",
    "enumerate",
    "rev",
    "skip",
    "step_by",
    "copied",
    "cloned",
    "flatten",
    "flat_map",
    "chain",
    "take",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    // strings & conversions
    "to_vec",
    "to_string",
    "to_owned",
    "as_str",
    "as_slice",
    "as_bytes",
    "as_ref",
    "as_mut",
    "as_deref",
    "parse",
    "split",
    "split_once",
    "trim",
    "starts_with",
    "ends_with",
    "find",
    "replace",
    "chars",
    "bytes",
    "lines",
    "clone",
    // Option/Result plumbing
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "and_then",
    "or_else",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    // atomics, locks, cells
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    "lock",
    "get_or_init",
    "set",
    "wait",
    "notify_all",
    "notify_one",
    // io, net, threads
    "read",
    "write",
    "write_all",
    "flush",
    "read_line",
    "read_exact",
    "recv",
    "try_recv",
    "send",
    "join",
    "spawn",
    "accept",
    "connect",
    "shutdown",
    "set_nonblocking",
    "set_nodelay",
    "peer_addr",
    "local_addr",
    // math
    "abs",
    "floor",
    "ceil",
    "sqrt",
    "powi",
    "powf",
    "hypot",
    "to_radians",
];

/// Input slice for the builder: one file's identity and parse.
pub(crate) struct FileInput<'a> {
    pub rel: &'a str,
    pub parsed: &'a ParsedFile,
}

/// Builds the call graph. `crate_idents` maps crate directory names to
/// their lib identifiers (`core` → `ipgeo`), from `Cargo.toml` when
/// available, else `dir.replace('-', "_")`.
pub(crate) fn build(files: &[FileInput<'_>], crate_idents: &BTreeMap<String, String>) -> Graph {
    let ident_to_dir: HashMap<&str, &str> = crate_idents
        .iter()
        .map(|(d, i)| (i.as_str(), d.as_str()))
        .collect();

    // 1. Nodes, in (file, fn) order — deterministic because file lists are
    //    sorted upstream.
    let mut nodes: Vec<FnNode> = Vec::new();
    // (file index, fn index in parse) → node index, for the edge pass.
    let mut node_of: HashMap<(usize, usize), usize> = HashMap::new();
    for (fi, f) in files.iter().enumerate() {
        let (crate_dir, in_src, file_mods) = classify_path(f.rel);
        let crate_ident = crate_ident_for(f.rel, crate_dir.as_deref(), crate_idents);
        for (gi, item) in f.parsed.fns.iter().enumerate() {
            let mut segs: Vec<&str> = vec![&crate_ident];
            segs.extend(file_mods.iter().map(String::as_str));
            segs.extend(item.module.iter().map(String::as_str));
            if let Some(ty) = &item.impl_type {
                segs.push(ty);
            }
            segs.push(&item.name);
            node_of.insert((fi, gi), nodes.len());
            nodes.push(FnNode {
                key: segs.join("::"),
                file: f.rel.to_string(),
                crate_dir: crate_dir.clone(),
                in_src,
                impl_type: item.impl_type.clone(),
                name: item.name.clone(),
                item_line: item.item_line,
                sig_line: item.sig_line,
                markers: item.markers.clone(),
                sinks: item.sinks.clone(),
            });
        }
    }

    // 2. Resolution indexes. Name-based method fallback only consults
    //    `src/` nodes so integration-test helpers cannot capture calls.
    let mut by_path: HashMap<String, usize> = HashMap::new();
    let mut method_by_crate: HashMap<(String, String), Vec<usize>> = HashMap::new();
    let mut method_anywhere: HashMap<String, Vec<usize>> = HashMap::new();
    let mut typefn_by_crate: HashMap<(String, String, String), Vec<usize>> = HashMap::new();
    let mut freefn_by_crate: HashMap<(String, String), Vec<usize>> = HashMap::new();
    for (idx, n) in nodes.iter().enumerate() {
        by_path.entry(n.key.clone()).or_insert(idx);
        if !n.in_src {
            continue;
        }
        let Some(dir) = &n.crate_dir else { continue };
        if let Some(ty) = &n.impl_type {
            method_by_crate
                .entry((dir.clone(), n.name.clone()))
                .or_default()
                .push(idx);
            method_anywhere.entry(n.name.clone()).or_default().push(idx);
            typefn_by_crate
                .entry((dir.clone(), ty.clone(), n.name.clone()))
                .or_default()
                .push(idx);
        } else {
            freefn_by_crate
                .entry((dir.clone(), n.name.clone()))
                .or_default()
                .push(idx);
        }
    }

    // Declared field types and `type` alias targets of the crates' `src/`
    // files. A struct name declared twice in a crate with different field
    // types maps to `None`, and so does an alias declared twice with
    // different targets: they resolve by name only.
    let mut field_types: FieldTypes = HashMap::new();
    let mut aliases: Aliases = HashMap::new();
    for f in files {
        let (Some(dir), true, _) = classify_path(f.rel) else {
            continue;
        };
        let imports = import_map(f.parsed);
        let typed =
            |ty: &String| type_dir(ty, &dir, &imports, &ident_to_dir).map(|d| (d, ty.clone()));
        for (owner, field, ty) in &f.parsed.fields {
            merge(
                &mut field_types,
                (dir.clone(), owner.clone(), field.clone()),
                typed(ty),
            );
        }
        for (alias, target) in &f.parsed.aliases {
            merge(&mut aliases, (dir.clone(), alias.clone()), typed(target));
        }
    }

    // 3. Edges.
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
    let mut unresolved: Vec<UnresolvedEdge> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let (crate_dir, _, file_mods) = classify_path(f.rel);
        let crate_ident = crate_ident_for(f.rel, crate_dir.as_deref(), crate_idents);
        let imports = import_map(f.parsed);
        let scope = ResolveScope {
            crate_ident: &crate_ident,
            crate_dir: crate_dir.as_deref(),
            file_mods: &file_mods,
            imports: &imports,
            globs: &f.parsed.globs,
            ident_to_dir: &ident_to_dir,
            by_path: &by_path,
            method_by_crate: &method_by_crate,
            method_anywhere: &method_anywhere,
            typefn_by_crate: &typefn_by_crate,
            freefn_by_crate: &freefn_by_crate,
            field_types: &field_types,
            aliases: &aliases,
        };
        for (gi, item) in f.parsed.fns.iter().enumerate() {
            let from = node_of[&(fi, gi)];
            for call in &item.calls {
                match scope.resolve(&call.kind, item) {
                    Resolution::Target(to) => edges[from].push(Edge {
                        target: to,
                        order: call.order,
                        line: call.line,
                    }),
                    Resolution::External => {}
                    Resolution::Unresolved(name, why) => unresolved.push(UnresolvedEdge {
                        from,
                        name,
                        line: call.line,
                        why,
                    }),
                }
            }
        }
    }

    // Dedup per (from, target), keeping the earliest call site; sort for
    // deterministic traversal.
    let mut edge_count = 0usize;
    for list in &mut edges {
        list.sort_by_key(|e| (e.target, e.order));
        list.dedup_by_key(|e| e.target);
        edge_count += list.len();
    }
    unresolved.sort_by(|a, b| {
        (&nodes[a.from].file, a.line, &a.name).cmp(&(&nodes[b.from].file, b.line, &b.name))
    });

    Graph {
        nodes,
        edges,
        unresolved,
        edge_count,
    }
}

/// Records `typed` under `key`, or `None` when `key` already holds a
/// different type.
fn merge<K: std::hash::Hash + Eq>(
    map: &mut HashMap<K, Option<(String, String)>>,
    key: K,
    typed: Option<(String, String)>,
) {
    map.entry(key)
        .and_modify(|known| {
            if *known != typed {
                *known = None;
            }
        })
        .or_insert(typed);
}

/// (crate dir, in_src, module path) for a root-relative file path.
fn classify_path(rel: &str) -> (Option<String>, bool, Vec<String>) {
    let Some(rest) = rel.strip_prefix("crates/") else {
        return (None, false, Vec::new());
    };
    let Some((crate_dir, tail)) = rest.split_once('/') else {
        return (None, false, Vec::new());
    };
    let Some(src_tail) = tail.strip_prefix("src/") else {
        return (Some(crate_dir.to_string()), false, Vec::new());
    };
    let mut mods: Vec<String> = src_tail
        .trim_end_matches(".rs")
        .split('/')
        .map(str::to_string)
        .collect();
    match mods.last().map(String::as_str) {
        Some("lib") | Some("main") => {
            mods.pop();
        }
        Some("mod") => {
            mods.pop();
        }
        _ => {}
    }
    (Some(crate_dir.to_string()), true, mods)
}

/// A file's `use` aliases: local name → path as written.
fn import_map(parsed: &ParsedFile) -> HashMap<&str, &[String]> {
    parsed
        .imports
        .iter()
        .map(|(l, p)| (l.as_str(), p.as_slice()))
        .collect()
}

/// The crate directory that declares the type named `ty`, as seen from a
/// file of crate `dir` with `imports`: the workspace crate an import of
/// `ty` starts with, else `dir` itself (a type declared in the crate or
/// imported by a relative path, or a prelude type no workspace crate has
/// methods for). `None` when the import starts with a known-external
/// crate.
fn type_dir(
    ty: &str,
    dir: &str,
    imports: &HashMap<&str, &[String]>,
    ident_to_dir: &HashMap<&str, &str>,
) -> Option<String> {
    match imports
        .get(ty)
        .and_then(|path| path.first())
        .map(String::as_str)
    {
        Some(head) => match ident_to_dir.get(head) {
            Some(d) => Some(d.to_string()),
            None if EXTERNAL_HEADS.contains(&head) => None,
            None => Some(dir.to_string()),
        },
        None => Some(dir.to_string()),
    }
}

/// The crate identifier used in paths: the lib ident for `src/` files, a
/// per-file pseudo-crate for integration tests/examples/benches (each is
/// its own crate and must not alias the lib).
fn crate_ident_for(
    rel: &str,
    crate_dir: Option<&str>,
    crate_idents: &BTreeMap<String, String>,
) -> String {
    let in_src = crate_dir.is_some_and(|d| rel.starts_with(&format!("crates/{d}/src/")));
    if let (Some(dir), true) = (crate_dir, in_src) {
        return crate_idents
            .get(dir)
            .cloned()
            .unwrap_or_else(|| dir.replace('-', "_"));
    }
    // tests/examples/benches and workspace-level trees: unique pseudo-crate
    // per file so their helpers never collide with lib paths.
    format!("file:{rel}")
}

enum Resolution {
    Target(usize),
    External,
    Unresolved(String, String),
}

struct ResolveScope<'a> {
    crate_ident: &'a str,
    crate_dir: Option<&'a str>,
    file_mods: &'a [String],
    imports: &'a HashMap<&'a str, &'a [String]>,
    globs: &'a [Vec<String>],
    ident_to_dir: &'a HashMap<&'a str, &'a str>,
    by_path: &'a HashMap<String, usize>,
    method_by_crate: &'a HashMap<(String, String), Vec<usize>>,
    method_anywhere: &'a HashMap<String, Vec<usize>>,
    typefn_by_crate: &'a HashMap<(String, String, String), Vec<usize>>,
    freefn_by_crate: &'a HashMap<(String, String), Vec<usize>>,
    field_types: &'a FieldTypes,
    aliases: &'a Aliases,
}

impl ResolveScope<'_> {
    fn resolve(&self, kind: &CallKind, item: &FnItem) -> Resolution {
        match kind {
            CallKind::Bare(name) => self.resolve_bare(name, item),
            CallKind::SelfMethod(name) => self.resolve_self_method(name, item),
            CallKind::Method { name, recv } => self.resolve_typed_method(name, recv, item),
            CallKind::Path(segs) => self.resolve_path(segs, item, 0),
        }
    }

    /// The unique fn `name` in an impl of type `ty` in crate `dir`.
    fn type_fn(&self, dir: &str, ty: &str, name: &str) -> Option<usize> {
        match self
            .typefn_by_crate
            .get(&(dir.to_string(), ty.to_string(), name.to_string()))
            .map(Vec::as_slice)
        {
            Some([one]) => Some(*one),
            _ => None,
        }
    }

    /// [`Self::type_fn`] of the target type when `ty` is a `type` alias
    /// declared in crate `dir`.
    fn alias_fn(&self, dir: &str, ty: &str, name: &str) -> Option<usize> {
        let (target_dir, target) = self
            .aliases
            .get(&(dir.to_string(), ty.to_string()))?
            .as_ref()?;
        self.type_fn(target_dir, target, name)
    }

    /// `self.field.name()` and `param.name()`: the receiver's declared
    /// type (or the target of the alias it names) gives a crate and a
    /// type, and a unique `name` among that type's methods there is the
    /// target. Any other receiver, a type outside the workspace, or a
    /// method the type's crate does not define falls back to
    /// [`Self::resolve_method`].
    fn resolve_typed_method(&self, name: &str, recv: &Receiver, item: &FnItem) -> Resolution {
        let typed = match (recv, self.crate_dir) {
            (Receiver::SelfField(field), Some(dir)) => item.impl_type.as_ref().and_then(|owner| {
                self.field_types
                    .get(&(dir.to_string(), owner.clone(), field.clone()))
                    .cloned()
                    .flatten()
            }),
            (Receiver::Ident(var), Some(dir)) => {
                item.params
                    .iter()
                    .find(|(param, _)| param == var)
                    .and_then(|(_, ty)| match (ty.as_str(), &item.impl_type) {
                        ("Self", Some(owner)) => Some((dir.to_string(), owner.clone())),
                        _ => type_dir(ty, dir, self.imports, self.ident_to_dir)
                            .map(|d| (d, ty.clone())),
                    })
            }
            _ => None,
        };
        if let Some((dir, ty)) = typed {
            let found = self.type_fn(&dir, &ty, name);
            if let Some(one) = found.or_else(|| self.alias_fn(&dir, &ty, name)) {
                return Resolution::Target(one);
            }
        }
        self.resolve_method(name)
    }

    fn module_key<'b>(&'b self, item: &'b FnItem) -> Vec<&'b str> {
        let mut segs: Vec<&str> = vec![self.crate_ident];
        segs.extend(self.file_mods.iter().map(String::as_str));
        segs.extend(item.module.iter().map(String::as_str));
        segs
    }

    fn lookup(&self, segs: &[&str]) -> Option<usize> {
        self.by_path.get(&segs.join("::")).copied()
    }

    fn resolve_bare(&self, name: &str, item: &FnItem) -> Resolution {
        // Same module first.
        let mut segs = self.module_key(item);
        segs.push(name);
        if let Some(idx) = self.lookup(&segs) {
            return Resolution::Target(idx);
        }
        // `use`-imported name: the import path *is* the function path.
        if let Some(path) = self.imports.get(name) {
            let owned: Vec<String> = path.to_vec();
            return self.resolve_path(&owned, item, 1);
        }
        // Glob imports.
        for g in self.globs {
            let mut p: Vec<String> = g.clone();
            p.push(name.to_string());
            if let Resolution::Target(idx) = self.resolve_path(&p, item, 1) {
                return Resolution::Target(idx);
            }
        }
        // Unknown bare names are prelude functions, tuple-struct
        // constructors, or locals — external by construction.
        Resolution::External
    }

    fn resolve_self_method(&self, name: &str, item: &FnItem) -> Resolution {
        if let Some(ty) = &item.impl_type {
            // Same module, same type.
            let mut segs = self.module_key(item);
            segs.push(ty);
            segs.push(name);
            if let Some(idx) = self.lookup(&segs) {
                return Resolution::Target(idx);
            }
            // Another impl block of the same type elsewhere in the crate.
            if let Some(idx) = self.crate_dir.and_then(|dir| self.type_fn(dir, ty, name)) {
                return Resolution::Target(idx);
            }
        }
        self.resolve_method(name)
    }

    fn resolve_method(&self, name: &str) -> Resolution {
        // Std-owned method names never get a name-guessed edge: `.load()`
        // is an atomic, not `Dataset::load`; `.spawn()` is a thread scope,
        // not `QueryServer::spawn`.
        if STD_METHODS.contains(&name) {
            return Resolution::External;
        }
        // Same crate first, then workspace-wide; a unique name match
        // resolves, an ambiguous one is recorded, no match is external
        // (std/vendored methods).
        if let Some(dir) = self.crate_dir {
            if let Some(c) = self
                .method_by_crate
                .get(&(dir.to_string(), name.to_string()))
            {
                return match c.len() {
                    1 => Resolution::Target(c[0]),
                    n => Resolution::Unresolved(
                        format!(".{name}()"),
                        format!("ambiguous method: {n} candidates in this crate"),
                    ),
                };
            }
        }
        match self.method_anywhere.get(name).map(Vec::as_slice) {
            Some([one]) => Resolution::Target(*one),
            Some(many) => Resolution::Unresolved(
                format!(".{name}()"),
                format!(
                    "ambiguous method: {} candidates in the workspace",
                    many.len()
                ),
            ),
            None => Resolution::External,
        }
    }

    /// Resolves a path call. `hops` bounds import-chain recursion.
    fn resolve_path(&self, segs: &[String], item: &FnItem, hops: usize) -> Resolution {
        if hops > 4 || segs.is_empty() {
            return Resolution::Unresolved(segs.join("::"), "import chain too deep".into());
        }
        let head = segs[0].as_str();

        // Normalize relative heads.
        let abs: Option<Vec<String>> = match head {
            "crate" => {
                let mut p = vec![self.crate_ident.to_string()];
                p.extend(segs[1..].iter().cloned());
                Some(p)
            }
            "self" => {
                let mut p: Vec<String> = self
                    .module_key(item)
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                p.extend(segs[1..].iter().cloned());
                Some(p)
            }
            "super" => {
                let mut base: Vec<String> = self
                    .module_key(item)
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let mut k = 0;
                while k < segs.len() && segs[k] == "super" {
                    base.pop();
                    k += 1;
                }
                base.extend(segs[k..].iter().cloned());
                Some(base)
            }
            "Self" => match &item.impl_type {
                Some(ty) => {
                    let mut p: Vec<String> = self
                        .module_key(item)
                        .iter()
                        .map(|s| s.to_string())
                        .collect();
                    p.push(ty.clone());
                    p.extend(segs[1..].iter().cloned());
                    Some(p)
                }
                None => {
                    return Resolution::Unresolved(
                        segs.join("::"),
                        "`Self::` outside an impl block".into(),
                    )
                }
            },
            _ => None,
        };
        if let Some(abs) = abs {
            return self.resolve_absolute(&abs, segs);
        }

        // Import alias on the first segment.
        if let Some(path) = self.imports.get(head) {
            let mut p: Vec<String> = path.to_vec();
            p.extend(segs[1..].iter().cloned());
            return self.resolve_path(&p, item, hops + 1);
        }

        // A workspace crate identifier: already absolute.
        if self.ident_to_dir.contains_key(head) {
            return self.resolve_absolute(segs, segs);
        }

        // Known-external head.
        if EXTERNAL_HEADS.contains(&head) {
            return Resolution::External;
        }

        // Same-module type or sibling module of the current crate.
        let mut local: Vec<String> = self
            .module_key(item)
            .iter()
            .map(|s| s.to_string())
            .collect();
        local.extend(segs.iter().cloned());
        if let Some(idx) = self.lookup(&local.iter().map(String::as_str).collect::<Vec<_>>()) {
            return Resolution::Target(idx);
        }
        let mut rooted: Vec<String> = vec![self.crate_ident.to_string()];
        rooted.extend(segs.iter().cloned());
        if let Some(idx) = self.lookup(&rooted.iter().map(String::as_str).collect::<Vec<_>>()) {
            return Resolution::Target(idx);
        }

        // Glob imports may bring the head into scope.
        for g in self.globs {
            let mut p: Vec<String> = g.clone();
            p.extend(segs.iter().cloned());
            if let Resolution::Target(idx) = self.resolve_path(&p, item, hops + 1) {
                return Resolution::Target(idx);
            }
        }

        // `Alias::f` for an alias declared in this crate.
        if let (Some(dir), [alias, name]) = (self.crate_dir, segs) {
            if let Some(idx) = self.alias_fn(dir, alias, name) {
                return Resolution::Target(idx);
            }
        }

        path_fallback(segs)
    }

    /// Resolves an absolutized path, with re-export fallbacks.
    fn resolve_absolute(&self, abs: &[String], as_written: &[String]) -> Resolution {
        let refs: Vec<&str> = abs.iter().map(String::as_str).collect();
        if let Some(idx) = self.lookup(&refs) {
            return Resolution::Target(idx);
        }
        let head = abs[0].as_str();
        let Some(dir) = self.ident_to_dir.get(head) else {
            // Import chains can land on std (`use std::thread` → `thread::spawn`).
            if EXTERNAL_HEADS.contains(&head) {
                return Resolution::External;
            }
            return path_fallback(as_written);
        };
        // Re-export fallback: `crate::Type::f` where `Type` really lives in
        // `crate::module::Type` — match by (crate, Type, name), then through
        // `Type` as an alias, then by (crate, free fn name) when unique.
        let n = abs.len();
        if n >= 3 {
            let (ty, name) = (&abs[n - 2], &abs[n - 1]);
            let found = self.type_fn(dir, ty, name);
            if let Some(idx) = found.or_else(|| self.alias_fn(dir, ty, name)) {
                return Resolution::Target(idx);
            }
        }
        if n >= 2 {
            if let Some(c) = self
                .freefn_by_crate
                .get(&(dir.to_string(), abs[n - 1].clone()))
            {
                if c.len() == 1 {
                    return Resolution::Target(c[0]);
                }
            }
        }
        path_fallback(as_written)
    }
}

/// Last-resort classification of a path that matched no workspace `fn`.
/// A capitalized last segment is a tuple-struct or enum-variant
/// constructor (`CityId(7)`, `PingOutcome::Reply(ms)`), and a std trait
/// method (`T::default`, `T::from`) resolves to a derive or std impl —
/// neither can be a workspace `fn` item, so both are external rather than
/// blind spots worth reporting.
fn path_fallback(as_written: &[String]) -> Resolution {
    let last = as_written.last().map_or("", String::as_str);
    let constructor = last.chars().next().is_some_and(|c| c.is_ascii_uppercase());
    let std_trait = matches!(last, "default" | "from" | "clone" | "from_str");
    if constructor || std_trait {
        return Resolution::External;
    }
    Resolution::Unresolved(as_written.join("::"), "unresolved path".into())
}

/// Reads `crates/*/Cargo.toml` package names (hand-parsed: the `name =`
/// line inside `[package]`). Missing manifests fall back to the directory
/// name with `-` → `_`, which is what fixture trees rely on.
pub(crate) fn crate_idents(root: &std::path::Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return out;
    };
    let mut dirs: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    for dir in dirs {
        let ident = std::fs::read_to_string(crates_dir.join(&dir).join("Cargo.toml"))
            .ok()
            .and_then(|toml| package_name(&toml))
            .unwrap_or_else(|| dir.replace('-', "_"));
        out.insert(dir, ident.replace('-', "_"));
    }
    out
}

/// The `name = "…"` value inside the `[package]` section.
fn package_name(toml: &str) -> Option<String> {
    let mut in_package = false;
    for line in toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let v = rest.trim_start().strip_prefix('=')?.trim();
                return Some(v.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Convenience: the node key, shortened for chains by dropping nothing —
/// chains read better fully qualified.
pub(crate) fn key_of(g: &Graph, idx: usize) -> &str {
    &g.nodes[idx].key
}

/// All lock classes acquired anywhere in the closure of `start`
/// (memoized externally by the caller via `cache`).
pub(crate) fn lock_closure(
    g: &Graph,
    start: usize,
    cache: &mut HashMap<usize, BTreeSet<String>>,
) -> BTreeSet<String> {
    if let Some(c) = cache.get(&start) {
        return c.clone();
    }
    // Iterative DFS; seed the cache to cut cycles.
    cache.insert(start, BTreeSet::new());
    let mut acc: BTreeSet<String> = BTreeSet::new();
    let mut stack = vec![start];
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        for s in &g.nodes[n].sinks {
            if s.kind == crate::parser::SinkKind::LockAcquire {
                acc.insert(lock_class(&g.nodes[n]));
            }
        }
        for e in &g.edges[n] {
            stack.push(e.target);
        }
    }
    cache.insert(start, acc.clone());
    acc
}

/// The lock class a `.lock()` inside `node` acquires: the enclosing impl
/// type when there is one, else the function's own key (module-level
/// locking helper).
pub(crate) fn lock_class(node: &FnNode) -> String {
    node.impl_type.clone().unwrap_or_else(|| node.key.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::analyze_file;

    /// The graph of in-memory `(path, source)` files; crate idents are the
    /// directory names.
    fn graph(files: &[(&str, &str)]) -> Graph {
        let analyses: Vec<_> = files
            .iter()
            .map(|(rel, src)| analyze_file(rel, src))
            .collect();
        let inputs: Vec<FileInput<'_>> = analyses
            .iter()
            .map(|a| FileInput {
                rel: &a.rel,
                parsed: &a.parsed,
            })
            .collect();
        let idents = files
            .iter()
            .filter_map(|(rel, _)| rel.strip_prefix("crates/")?.split_once('/'))
            .map(|(dir, _)| (dir.to_string(), dir.replace('-', "_")))
            .collect();
        build(&inputs, &idents)
    }

    /// The keys `from` has edges to, and the names of its unresolved calls.
    fn calls_of<'g>(g: &'g Graph, from: &str) -> (Vec<&'g str>, Vec<&'g str>) {
        let idx = g
            .nodes
            .iter()
            .position(|n| n.key == from)
            .unwrap_or_else(|| panic!("no node {from}"));
        let targets = g.edges[idx].iter().map(|e| key_of(g, e.target)).collect();
        let unresolved = g
            .unresolved
            .iter()
            .filter(|u| u.from == idx)
            .map(|u| u.name.as_str())
            .collect();
        (targets, unresolved)
    }

    /// `prepare` is a method of three types in `lanes`, so only the
    /// receiver's declared type can pick one.
    const LANES: &str = "use std::sync::Arc;
pub struct Cache;
impl Cache {
    pub fn prepare(&self) {}
    pub fn get(&self) -> u32 { 0 }
}
pub struct Other;
impl Other {
    pub fn prepare(&self) {}
}
pub struct Net {
    cache: Arc<Cache>,
    pub(crate) other: Box<Other>,
}
impl Net {
    pub fn prepare(&self) {
        self.cache.prepare();
        self.other.prepare();
    }
    pub fn get(&self) -> u32 {
        self.cache.get()
    }
    pub fn merge(&self, peer: &Self) {
        peer.prepare();
    }
}
";

    const APP: &str = "use lanes::Net;
pub fn build(net: &Net, other: lanes::Other) {
    net.prepare();
    other.prepare();
    let local = net;
    local.prepare();
    local.only_here();
}
pub struct Helper;
impl Helper {
    pub fn only_here(&self) {}
}
";

    fn workspace() -> Graph {
        graph(&[
            ("crates/app/src/lib.rs", APP),
            ("crates/lanes/src/lib.rs", LANES),
        ])
    }

    #[test]
    fn self_field_calls_resolve_through_the_field_type() {
        let g = workspace();
        let (targets, unresolved) = calls_of(&g, "lanes::Net::prepare");
        assert_eq!(
            targets,
            vec!["lanes::Cache::prepare", "lanes::Other::prepare"]
        );
        assert!(unresolved.is_empty(), "{unresolved:?}");
        // A std-owned method name resolves too once the type is known.
        let (targets, _) = calls_of(&g, "lanes::Net::get");
        assert_eq!(targets, vec!["lanes::Cache::get"]);
    }

    #[test]
    fn param_calls_resolve_through_the_param_type() {
        let g = workspace();
        // An imported type names its crate; `Self` names the impl type.
        let (targets, _) = calls_of(&g, "app::build");
        assert!(targets.contains(&"lanes::Net::prepare"), "{targets:?}");
        let (targets, unresolved) = calls_of(&g, "lanes::Net::merge");
        assert_eq!(targets, vec!["lanes::Net::prepare"]);
        assert!(unresolved.is_empty(), "{unresolved:?}");
    }

    /// `Delays` aliases `Matrix<f64>`; `rows` is a method of two types,
    /// so only the alias target can pick one.
    const GRID: &str = "pub struct Matrix<T> {
    cells: Vec<T>,
}
impl<T> Matrix<T> {
    pub fn cell(v: f64) -> f64 { v }
    pub fn rows(&self) -> usize { 0 }
}
pub struct Other;
impl Other {
    pub fn rows(&self) -> usize { 1 }
}
pub type Delays = Matrix<f64>;
pub fn local() -> f64 {
    Delays::cell(1.0)
}
";

    const USER: &str = "use grid::Delays;
pub struct Holder {
    d: Delays,
}
impl Holder {
    pub fn rows(&self) -> usize {
        self.d.rows()
    }
}
pub fn fill(m: &Delays) -> f64 {
    m.rows();
    Delays::cell(2.0) + Delays::missing(3.0)
}
";

    fn aliased() -> Graph {
        graph(&[
            ("crates/grid/src/lib.rs", GRID),
            ("crates/user/src/lib.rs", USER),
        ])
    }

    #[test]
    fn alias_paths_resolve_through_the_target_type() {
        let g = aliased();
        let (targets, unresolved) = calls_of(&g, "grid::local");
        assert_eq!(targets, vec!["grid::Matrix::cell"]);
        assert!(unresolved.is_empty(), "{unresolved:?}");
        let (targets, _) = calls_of(&g, "user::fill");
        assert!(targets.contains(&"grid::Matrix::cell"), "{targets:?}");
    }

    #[test]
    fn alias_typed_receivers_resolve_through_the_target_type() {
        let g = aliased();
        let (targets, unresolved) = calls_of(&g, "user::Holder::rows");
        assert_eq!(targets, vec!["grid::Matrix::rows"]);
        assert!(unresolved.is_empty(), "{unresolved:?}");
        let (targets, _) = calls_of(&g, "user::fill");
        assert!(targets.contains(&"grid::Matrix::rows"), "{targets:?}");
    }

    #[test]
    fn alias_without_the_method_stays_unresolved() {
        let g = aliased();
        let (targets, unresolved) = calls_of(&g, "user::fill");
        assert_eq!(targets, vec!["grid::Matrix::cell", "grid::Matrix::rows"]);
        assert_eq!(unresolved, vec!["grid::Delays::missing"]);
    }

    #[test]
    fn other_receivers_fall_back_to_the_name_match() {
        let g = workspace();
        let (targets, unresolved) = calls_of(&g, "app::build");
        // `other: lanes::Other` keeps only `Other`, which `app` does not
        // declare, and `local` is no parameter: both stay ambiguous by
        // name; a name unique in the crate still resolves.
        assert_eq!(unresolved, vec![".prepare()", ".prepare()"]);
        assert_eq!(
            targets,
            vec!["app::Helper::only_here", "lanes::Net::prepare"]
        );
    }
}
