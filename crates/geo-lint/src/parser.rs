//! Item-level parser on top of [`crate::lexer`]: function items, inline
//! module nesting, `impl` blocks, `use` imports, call expressions, and the
//! rule-relevant "sink" constructs inside each function body.
//!
//! This is deliberately not a full Rust parser. It tracks exactly the
//! structure the graph rules need: which function a token belongs to,
//! what that function calls, and which panicking / blocking / clock /
//! allocating constructs its body contains. It is the only detector of
//! those constructs: D1, R1, R4 and P1 read nothing else. Everything it
//! cannot classify is preserved as an unresolved call downstream, never
//! silently dropped.
//!
//! Constructs outside every fn body are item-level sinks, which no graph
//! node owns: clock identifiers anywhere (imports, statics, signatures),
//! and every sink of a `macro_rules!` template outside the fns it
//! defines, since each expansion runs those tokens. Expansions stay
//! opaque: a `name!(…)` invocation is neither a call nor a sink.

use crate::lexer::{Comment, Token, TokenKind};

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct Call {
    pub kind: CallKind,
    pub line: usize,
    /// Token index inside the file, for lock-order sequencing.
    pub order: usize,
}

/// The syntactic shape of a call, which drives name resolution.
#[derive(Debug, Clone)]
pub(crate) enum CallKind {
    /// `name(…)` — same-module free fn, import, or prelude.
    Bare(String),
    /// `recv.name(…)` with a non-`self` receiver.
    Method { name: String, recv: Receiver },
    /// `self.name(…)` — resolved against the enclosing `impl` first.
    SelfMethod(String),
    /// `a::b::name(…)`, `Type::name(…)`, `Self::name(…)`, …
    Path(Vec<String>),
}

/// The receiver of a `recv.name(…)` call, in the two shapes whose type
/// the parser records: a field of `self`, or a plain identifier (which
/// resolves when it names a parameter of the enclosing fn).
#[derive(Debug, Clone)]
pub(crate) enum Receiver {
    /// `self.field.name(…)`.
    SelfField(String),
    /// `ident.name(…)`.
    Ident(String),
    /// Any other receiver (`a.b.name(…)`, `f().name(…)`, `xs[i].name(…)`).
    Other,
}

/// Rule-relevant constructs found inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SinkKind {
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`.
    Panic,
    /// `expr[…]` indexing, which panics out of bounds.
    Index,
    /// `thread::spawn`.
    Spawn,
    /// `.read_line(…)` / `.read_exact(…)`.
    BlockingRead,
    /// Wall clock or ambient entropy (`SystemTime`, `Instant::now`, …).
    Clock,
    /// Heap allocation (`Vec::new`, `vec!`, `.collect()`, …).
    Alloc,
    /// `.lock(…)` — a mutex acquisition (for R4/L1).
    LockAcquire,
    /// `.write(…)` / `.write_all(…)` — a socket/stream write (for R4).
    Write,
}

/// One sink occurrence.
#[derive(Debug, Clone)]
pub(crate) struct Sink {
    pub kind: SinkKind,
    pub line: usize,
    /// Token index inside the file, for lock-order sequencing.
    pub order: usize,
    /// Human-readable form of the construct (`.unwrap()`, `buf[…]`, …).
    pub what: String,
}

/// One parsed `fn` item with a body.
#[derive(Debug, Clone)]
pub(crate) struct FnItem {
    /// Name with any `r#` prefix stripped.
    pub name: String,
    /// Enclosing inherent/trait `impl` type, if any.
    pub impl_type: Option<String>,
    /// Inline `mod` path within the file (file-level module comes from the
    /// path and is added by the call-graph builder).
    pub module: Vec<String>,
    /// First line of the item (leading attribute if present, else the
    /// signature line) — the start of the fn-scoped allow window.
    pub item_line: usize,
    /// Line of the `fn` keyword.
    pub sig_line: usize,
    pub calls: Vec<Call>,
    pub sinks: Vec<Sink>,
    /// Parameters with a named type: `(name, type)`, the type as
    /// [`type_name`] reads it. `self` is not listed.
    pub params: Vec<(String, String)>,
    /// `geo-lint:` markers attached directly above (`hot-path`,
    /// `worker-bootstrap`, `serve-entry`).
    pub markers: Vec<String>,
}

#[cfg(test)]
impl FnItem {
    fn has_marker(&self, m: &str) -> bool {
        self.markers.iter().any(|x| x == m)
    }
}

/// The parsed form of one source file.
#[derive(Debug, Clone, Default)]
pub(crate) struct ParsedFile {
    pub fns: Vec<FnItem>,
    /// `use` aliases: local name → full path segments as written.
    pub imports: Vec<(String, Vec<String>)>,
    /// `use path::*` glob prefixes.
    pub globs: Vec<Vec<String>>,
    /// Named-struct fields with a named type: `(struct, field, type)`, the
    /// type as [`type_name`] reads it.
    pub fields: Vec<(String, String, String)>,
    /// Module-level `type Alias = Target<…>;` items: `(alias, target)`,
    /// the target as [`type_name`] reads it.
    pub aliases: Vec<(String, String)>,
    /// Sinks outside every fn body: clock identifiers anywhere, and all
    /// sinks of a `macro_rules!` template. The direct parts of D1, R1 and
    /// R4 flag the kinds they read; no graph node owns them.
    pub item_sinks: Vec<Sink>,
}

/// Marker comment spellings the parser attaches to functions.
const MARKERS: &[&str] = &["hot-path", "worker-bootstrap", "serve-entry"];

/// Keywords that must never be read as a call or an indexed expression.
const KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Strips a raw-identifier prefix so `r#fn` and `fn` items/calls unify.
fn plain(name: &str) -> &str {
    name.strip_prefix("r#").unwrap_or(name)
}

/// Wall-clock and ambient-entropy identifiers (D1), called or not.
const CLOCK_IDENTS: &[&str] = &["SystemTime", "UNIX_EPOCH", "thread_rng", "from_entropy"];

/// Allocating constructors/macros/chain methods (P1).
const ALLOC_CTOR_TYPES: &[&str] = &[
    "Vec", "String", "Box", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];
const ALLOC_CTOR_FNS: &[&str] = &["new", "with_capacity", "from", "default"];
const ALLOC_CHAIN_METHODS: &[&str] = &["collect", "to_vec", "to_string", "to_owned"];

/// Method names consumed as sinks, not emitted as method calls.
const SINK_ONLY_METHODS: &[&str] = &[
    "unwrap",
    "expect",
    "read_line",
    "read_exact",
    "lock",
    "collect",
    "to_vec",
    "to_string",
    "to_owned",
];

#[derive(Debug)]
enum ScopeKind {
    Mod(String),
    Impl(Option<String>),
    /// Index into the in-progress `fns` vec.
    Fn(usize),
    Other,
}

struct Scope {
    kind: ScopeKind,
    /// Brace depth immediately *after* this scope's opening `{`.
    depth: i32,
}

/// Parses the test-stripped token stream `code` of one file; `comments`
/// are the file's comments (for marker attachment).
pub(crate) fn parse(code: &[Token], comments: &[Comment]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth = 0i32;
    let mut pending_scope: Option<ScopeKind> = None;
    let mut pending_item_line: Option<usize> = None;
    // Tokens before this index are inside a `macro_rules!` template.
    let mut template_end = 0usize;
    let mut i = 0usize;

    while i < code.len() {
        let t = &code[i];
        match &t.kind {
            TokenKind::Punct('#') if code.get(i + 1).is_some_and(|x| x.is_punct('[')) => {
                // Attribute: remember where the item started, then skip the
                // whole `#[…]` so its contents never look like calls.
                if pending_item_line.is_none() {
                    pending_item_line = Some(t.line);
                }
                let mut j = i + 1;
                let mut d = 0i32;
                while j < code.len() {
                    if code[j].is_punct('[') {
                        d += 1;
                    } else if code[j].is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
                i = j;
            }
            TokenKind::Punct('{') => {
                depth += 1;
                scopes.push(Scope {
                    kind: pending_scope.take().unwrap_or(ScopeKind::Other),
                    depth,
                });
                pending_item_line = None;
                i += 1;
            }
            TokenKind::Punct('}') => {
                if scopes.last().is_some_and(|s| s.depth == depth) {
                    scopes.pop();
                }
                depth -= 1;
                pending_item_line = None;
                i += 1;
            }
            TokenKind::Punct(';') => {
                pending_item_line = None;
                i += 1;
            }
            TokenKind::Punct('[') => {
                if current_fn(&scopes).is_some() {
                    detect_index(code, i, &scopes, &mut out);
                }
                i += 1;
            }
            TokenKind::Ident(raw) => {
                let s = raw.as_str();
                let in_fn = current_fn(&scopes).is_some();
                match s {
                    "pub" if !in_fn => {
                        if pending_item_line.is_none() {
                            pending_item_line = Some(t.line);
                        }
                        i += 1;
                    }
                    "use" if !in_fn => {
                        let end = parse_use(code, i + 1, &mut out);
                        item_clocks(code, i + 1..end, &mut out);
                        i = end;
                        pending_item_line = None;
                    }
                    "mod"
                        if code.get(i + 1).is_some_and(|x| x.ident().is_some())
                            && code.get(i + 2).is_some_and(|x| x.is_punct('{')) =>
                    {
                        let name = code[i + 1].ident().unwrap_or_default().to_string();
                        pending_scope = Some(ScopeKind::Mod(plain(&name).to_string()));
                        pending_item_line = None;
                        i += 2; // land on `{`
                    }
                    "impl" if !in_fn => {
                        let (ty, brace) = parse_impl_header(code, i);
                        match brace {
                            Some(b) => {
                                item_clocks(code, i + 1..b, &mut out);
                                pending_scope = Some(ScopeKind::Impl(ty));
                                pending_item_line = None;
                                i = b; // land on `{`
                            }
                            None => i += 1,
                        }
                    }
                    "type" if scopes.iter().all(|s| matches!(s.kind, ScopeKind::Mod(_))) => {
                        // Associated types sit in impl and trait scopes;
                        // only module-level aliases name a type.
                        parse_type_alias(code, i, &mut out);
                        i += 1;
                    }
                    "struct" if !in_fn => {
                        // Fields are read ahead; the body is then scanned
                        // as before, so its clock types stay item sinks.
                        parse_struct_fields(code, i, &mut out);
                        i += 1;
                    }
                    "macro_rules" if !in_fn && code.get(i + 1).is_some_and(|x| x.is_punct('!')) => {
                        // `macro_rules! name { … }`: the template's body
                        // still parses as items, so fns it defines are
                        // graph nodes as before.
                        template_end = template_end.max(past_close(code, i + 3));
                        i += 1;
                    }
                    "fn" => {
                        match parse_fn_header(code, i) {
                            Some((name, body_brace)) => {
                                // A signature belongs to no body: its
                                // clock types are item-level.
                                item_clocks(code, i + 1..body_brace, &mut out);
                                let item_line = pending_item_line.take().unwrap_or(t.line);
                                let idx = out.fns.len();
                                out.fns.push(FnItem {
                                    name,
                                    impl_type: enclosing_impl(&scopes),
                                    module: module_path(&scopes),
                                    item_line,
                                    sig_line: t.line,
                                    calls: Vec::new(),
                                    sinks: Vec::new(),
                                    params: parse_params(code, i, body_brace),
                                    markers: Vec::new(),
                                });
                                pending_scope = Some(ScopeKind::Fn(idx));
                                i = body_brace; // land on `{`
                            }
                            // `fn(…)` pointer type or a bodyless trait decl.
                            None => i += 1,
                        }
                    }
                    _ if in_fn => {
                        i = detect_call_or_sink(code, i, &scopes, &mut out);
                    }
                    _ if i < template_end => {
                        template_sink(code, i, &mut out);
                        i += 1;
                    }
                    _ => {
                        item_clocks(code, i..i + 1, &mut out);
                        i += 1;
                    }
                }
            }
            _ => i += 1,
        }
    }

    attach_markers(&mut out, comments);
    out
}

/// The clock sink's `what` when `code[i]` starts a clock identifier.
fn clock_at(code: &[Token], i: usize) -> Option<String> {
    let name = plain(code[i].ident()?);
    if CLOCK_IDENTS.contains(&name) {
        return Some(format!("`{name}`"));
    }
    let now = name == "Instant"
        && code.get(i + 1).is_some_and(|x| x.is_punct(':'))
        && code.get(i + 2).is_some_and(|x| x.is_punct(':'))
        && code.get(i + 3).is_some_and(|x| x.is_ident("now"));
    now.then(|| "`Instant::now()`".to_string())
}

/// The sink a `name!` macro invocation is.
fn macro_sink(name: &str) -> Option<(SinkKind, String)> {
    match name {
        "panic" | "unreachable" | "todo" | "unimplemented" => {
            Some((SinkKind::Panic, format!("`{name}!`")))
        }
        "vec" | "format" => Some((SinkKind::Alloc, format!("`{name}!`"))),
        _ => None,
    }
}

/// The sink a `.name(…)` method call is.
fn method_sink(name: &str) -> Option<(SinkKind, String)> {
    let kind = match name {
        "unwrap" | "expect" => SinkKind::Panic,
        "read_line" | "read_exact" => SinkKind::BlockingRead,
        "lock" => SinkKind::LockAcquire,
        "write" | "write_all" => SinkKind::Write,
        m if ALLOC_CHAIN_METHODS.contains(&m) => SinkKind::Alloc,
        _ => return None,
    };
    Some((kind, format!("`.{name}()`")))
}

/// Records the clock identifiers in `range`, which no fn body owns.
fn item_clocks(code: &[Token], range: std::ops::Range<usize>, out: &mut ParsedFile) {
    for k in range {
        if let Some(what) = clock_at(code, k) {
            out.item_sinks.push(Sink {
                kind: SinkKind::Clock,
                line: code[k].line,
                order: k,
                what,
            });
        }
    }
}

/// Records the sink `code[i]` starts inside a `macro_rules!` template
/// and outside the fns it defines. Tokens are read one at a time, so a
/// path's inner segments (`std::thread::spawn`) are seen too.
fn template_sink(code: &[Token], i: usize, out: &mut ParsedFile) {
    let Some(name) = code[i].ident().map(plain) else {
        return;
    };
    let next_is = |c: char| code.get(i + 1).is_some_and(|x| x.is_punct(c));
    let back_is = |k: usize, c: char| i >= k && code[i - k].is_punct(c);
    let found = if let Some(what) = clock_at(code, i) {
        Some((SinkKind::Clock, what))
    } else if next_is('!') {
        macro_sink(name)
    } else if back_is(1, '.') && next_is('(') {
        method_sink(name)
    } else if name == "spawn"
        && next_is('(')
        && i >= 3
        && back_is(1, ':')
        && back_is(2, ':')
        && code[i - 3].is_ident("thread")
    {
        Some((SinkKind::Spawn, "`thread::spawn`".to_string()))
    } else {
        None
    };
    if let Some((kind, what)) = found {
        out.item_sinks.push(Sink {
            kind,
            line: code[i].line,
            order: i,
            what,
        });
    }
}

/// One past the bracket that closes the `(`, `[` or `{` at `open`,
/// counting all three alike; `open` itself when no bracket opens there,
/// and the end of the file when it never closes.
fn past_close(code: &[Token], open: usize) -> usize {
    let opens = |t: &Token| matches!(t.kind, TokenKind::Punct('(' | '[' | '{'));
    if !code.get(open).is_some_and(opens) {
        return open;
    }
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open) {
        if opens(t) {
            depth += 1;
        } else if matches!(t.kind, TokenKind::Punct(')' | ']' | '}')) {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    code.len()
}

/// The innermost enclosing fn index, if any.
fn current_fn(scopes: &[Scope]) -> Option<usize> {
    scopes.iter().rev().find_map(|s| match s.kind {
        ScopeKind::Fn(idx) => Some(idx),
        _ => None,
    })
}

/// The `impl` type a newly-declared fn belongs to: the innermost Impl
/// scope, unless a Fn scope sits between (a nested fn is free-standing).
fn enclosing_impl(scopes: &[Scope]) -> Option<String> {
    for s in scopes.iter().rev() {
        match &s.kind {
            ScopeKind::Impl(ty) => return ty.clone(),
            ScopeKind::Fn(_) => return None,
            _ => {}
        }
    }
    None
}

/// Inline-module path at the current scope position.
fn module_path(scopes: &[Scope]) -> Vec<String> {
    scopes
        .iter()
        .filter_map(|s| match &s.kind {
            ScopeKind::Mod(name) => Some(name.clone()),
            _ => None,
        })
        .collect()
}

/// Parses the tokens between `impl` (at `i`) and its opening brace.
/// Returns the self-type's last path segment and the brace index.
fn parse_impl_header(code: &[Token], i: usize) -> (Option<String>, Option<usize>) {
    let mut brace = None;
    let mut j = i + 1;
    while j < code.len() {
        if code[j].is_punct('{') {
            brace = Some(j);
            break;
        }
        if code[j].is_punct(';') {
            return (None, None); // `impl Trait for Type;` — not a block
        }
        j += 1;
    }
    let Some(brace) = brace else {
        return (None, None);
    };
    let header = &code[i + 1..brace];
    // `impl Trait for Type {` → the type follows the last top-level `for`;
    // `impl<T> Type<T> {` → the type is the first path after the generics.
    let mut angle = 0i32;
    let mut for_pos: Option<usize> = None;
    for (k, t) in header.iter().enumerate() {
        match t.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            _ if angle == 0 && t.is_ident("for") => for_pos = Some(k),
            _ => {}
        }
    }
    let tail = match for_pos {
        Some(k) => &header[k + 1..],
        None => {
            // Skip leading generic params `<…>`.
            let mut k = 0;
            if header.first().is_some_and(|t| t.is_punct('<')) {
                let mut a = 0i32;
                while k < header.len() {
                    match header[k].kind {
                        TokenKind::Punct('<') => a += 1,
                        TokenKind::Punct('>') => {
                            a -= 1;
                            if a == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            &header[k..]
        }
    };
    // The self type's last path segment before `<`, `where`, or the end.
    let mut ty: Option<String> = None;
    for t in tail {
        match &t.kind {
            TokenKind::Ident(s) if s == "where" => break,
            TokenKind::Punct('<') => break,
            TokenKind::Ident(s) if s != "mut" && s != "dyn" => {
                ty = Some(plain(s).to_string());
            }
            _ => {}
        }
    }
    (ty, Some(brace))
}

/// Parses a `fn` header starting at the `fn` keyword. Returns the name and
/// the index of the body's opening brace, or `None` for fn-pointer types
/// and bodyless declarations.
fn parse_fn_header(code: &[Token], i: usize) -> Option<(String, usize)> {
    let name = code.get(i + 1)?.ident()?;
    let mut j = i + 2;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while j < code.len() {
        match code[j].kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Punct('{') if paren == 0 && bracket == 0 => {
                return Some((plain(name).to_string(), j));
            }
            TokenKind::Punct(';') if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// True when the `>` at `k` closes an angle bracket (it is not the tail
/// of `->` or `=>`).
fn closes_angle(code: &[Token], k: usize) -> bool {
    code[k].is_punct('>') && !(k > 0 && (code[k - 1].is_punct('-') || code[k - 1].is_punct('=')))
}

/// Splits `code` at its commas outside every bracket pair, `<…>`
/// included; empty pieces (a trailing comma) are dropped.
fn split_top_level(code: &[Token]) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let (mut depth, mut start) = (0i32, 0usize);
    for (k, t) in code.iter().enumerate() {
        match t.kind {
            TokenKind::Punct('(' | '[' | '{' | '<') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => depth -= 1,
            TokenKind::Punct('>') if closes_angle(code, k) => depth -= 1,
            TokenKind::Punct(',') if depth == 0 => {
                out.push(&code[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    out.push(&code[start..]);
    out.retain(|piece| !piece.is_empty());
    out
}

/// The type a receiver declared as `ty` dispatches on: the last path
/// segment, past `&`, `mut`, lifetimes, `dyn` and `impl`, and inside
/// `Arc<…>`, `Box<…>` and `Rc<…>`. `None` for tuples, slices, arrays and
/// pointers.
fn type_name(ty: &[Token]) -> Option<String> {
    let mut k = 0;
    while let Some(t) = ty.get(k) {
        match &t.kind {
            TokenKind::Punct('&') | TokenKind::Lifetime => k += 1,
            TokenKind::Ident(s) if matches!(s.as_str(), "mut" | "dyn" | "impl") => k += 1,
            _ => break,
        }
    }
    let mut last: Option<&str> = None;
    while let Some(t) = ty.get(k) {
        match &t.kind {
            TokenKind::Ident(s) => last = Some(plain(s)),
            TokenKind::Punct(':') => {}
            _ => break,
        }
        k += 1;
    }
    let last = last.filter(|s| !is_keyword(s) || *s == "Self")?;
    if matches!(last, "Arc" | "Box" | "Rc") && ty.get(k).is_some_and(|t| t.is_punct('<')) {
        return type_name(&ty[k + 1..]);
    }
    Some(last.to_string())
}

/// One `name: Type` piece of a field or parameter list: the name (past
/// attributes, `pub(…)` and `mut`) and the [`type_name`] of its type.
/// `None` for patterns other than one identifier, and for `self`.
fn named_type(piece: &[Token]) -> Option<(String, String)> {
    let mut k = 0;
    loop {
        let head = piece.get(k);
        if head.is_some_and(|t| t.is_punct('#') || t.is_ident("pub")) {
            // `#[…]` or `pub(…)`: skip past the bracket (a bare `pub`
            // has none).
            k = past_close(piece, k + 1);
        } else if head.is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        } else {
            break;
        }
    }
    let name = plain(piece.get(k)?.ident()?);
    let colon = piece.get(k + 1).is_some_and(|t| t.is_punct(':'))
        && !piece.get(k + 2).is_some_and(|t| t.is_punct(':'));
    if !colon || is_keyword(name) {
        return None;
    }
    Some((name.to_string(), type_name(&piece[k + 2..])?))
}

/// Records the named-type fields of the `struct` item at `i`. Tuple and
/// unit structs have none.
fn parse_struct_fields(code: &[Token], i: usize, out: &mut ParsedFile) {
    let Some(name) = code.get(i + 1).and_then(Token::ident) else {
        return;
    };
    let mut angle = 0i32;
    let mut j = i + 2;
    let open = loop {
        match code.get(j).map(|t| &t.kind) {
            None => return,
            Some(TokenKind::Punct('<')) => angle += 1,
            Some(TokenKind::Punct('>')) if closes_angle(code, j) => angle -= 1,
            Some(TokenKind::Punct('{')) if angle == 0 => break j,
            Some(TokenKind::Punct('(' | ';')) if angle == 0 => return,
            _ => {}
        }
        j += 1;
    };
    let close = past_close(code, open) - 1;
    for piece in split_top_level(&code[open + 1..close.max(open + 1)]) {
        if let Some((field, ty)) = named_type(piece) {
            out.fields.push((plain(name).to_string(), field, ty));
        }
    }
}

/// Records the `type` alias item at `i`: its name and the [`type_name`]
/// of everything between the `=` outside its generics and the `;`.
fn parse_type_alias(code: &[Token], i: usize, out: &mut ParsedFile) {
    let Some(name) = code.get(i + 1).and_then(Token::ident) else {
        return;
    };
    let mut angle = 0i32;
    let mut j = i + 2;
    let eq = loop {
        match code.get(j).map(|t| &t.kind) {
            None | Some(TokenKind::Punct(';' | '{')) => return,
            Some(TokenKind::Punct('<')) => angle += 1,
            Some(TokenKind::Punct('>')) if closes_angle(code, j) => angle -= 1,
            Some(TokenKind::Punct('=')) if angle == 0 => break j,
            _ => {}
        }
        j += 1;
    };
    let end = (eq + 1..code.len())
        .find(|&k| code[k].is_punct(';'))
        .unwrap_or(code.len());
    if let Some(target) = type_name(&code[eq + 1..end]) {
        out.aliases.push((plain(name).to_string(), target));
    }
}

/// The named-type parameters of the fn whose `fn` keyword is at `i` and
/// whose body opens at `body`: the first parenthesized list outside the
/// generics.
fn parse_params(code: &[Token], i: usize, body: usize) -> Vec<(String, String)> {
    let mut angle = 0i32;
    let open = (i + 2..body).find(|&k| match code[k].kind {
        TokenKind::Punct('<') => {
            angle += 1;
            false
        }
        TokenKind::Punct('>') if closes_angle(code, k) => {
            angle -= 1;
            false
        }
        TokenKind::Punct('(') => angle == 0,
        _ => false,
    });
    let Some(open) = open else {
        return Vec::new();
    };
    let close = past_close(code, open) - 1;
    split_top_level(&code[open + 1..close.max(open + 1)])
        .into_iter()
        .filter_map(named_type)
        .collect()
}

/// Parses one `use …;` statement starting just after the `use` keyword.
/// Returns the index one past the terminating `;`.
fn parse_use(code: &[Token], start: usize, out: &mut ParsedFile) -> usize {
    let mut j = start;
    parse_use_tree(code, &mut j, Vec::new(), out);
    while j < code.len() && !code[j].is_punct(';') {
        j += 1;
    }
    j.saturating_add(1).min(code.len())
}

/// Recursive descent over one use-tree level.
fn parse_use_tree(code: &[Token], j: &mut usize, prefix: Vec<String>, out: &mut ParsedFile) {
    let mut path = prefix;
    loop {
        match code.get(*j).map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) if s == "as" => {
                *j += 1;
                if let Some(alias) = code.get(*j).and_then(|t| t.ident()) {
                    if alias != "_" {
                        out.imports.push((plain(alias).to_string(), path));
                    }
                    *j += 1;
                }
                return;
            }
            Some(TokenKind::Ident(s)) => {
                path.push(plain(s).to_string());
                *j += 1;
            }
            Some(TokenKind::Punct(':')) => *j += 1,
            Some(TokenKind::Punct('*')) => {
                out.globs.push(path);
                *j += 1;
                return;
            }
            Some(TokenKind::Punct('{')) => {
                *j += 1;
                loop {
                    match code.get(*j).map(|t| &t.kind) {
                        Some(TokenKind::Punct(',')) => *j += 1,
                        Some(TokenKind::Punct('}')) => {
                            *j += 1;
                            return;
                        }
                        Some(_) => parse_use_tree(code, j, path.clone(), out),
                        None => return,
                    }
                }
            }
            _ => {
                // End of this subtree (`,`, `}`, `;`): register the leaf.
                register_use_leaf(path, out);
                return;
            }
        }
    }
}

/// Registers a finished use-tree leaf: `a::b::c` binds `c`; `a::b::self`
/// binds `b`.
fn register_use_leaf(mut path: Vec<String>, out: &mut ParsedFile) {
    if path.last().is_some_and(|s| s == "self") {
        path.pop();
    }
    if let Some(local) = path.last().cloned() {
        out.imports.push((local, path));
    }
}

/// Handles an identifier token inside a fn body: emits calls and sinks.
/// Returns the next index to scan from.
fn detect_call_or_sink(code: &[Token], i: usize, scopes: &[Scope], out: &mut ParsedFile) -> usize {
    let Some(fn_idx) = current_fn(scopes) else {
        return i + 1;
    };
    let t = &code[i];
    let name_raw = t.ident().unwrap_or_default();
    let name = plain(name_raw);
    let line = t.line;
    let next_is = |k: usize, c: char| code.get(i + k).is_some_and(|x| x.is_punct(c));
    let prev_is = |c: char| i > 0 && code[i - 1].is_punct(c);

    let push_sink = |out: &mut ParsedFile, kind: SinkKind, what: String| {
        out.fns[fn_idx].sinks.push(Sink {
            kind,
            line,
            order: i,
            what,
        });
    };
    let push_call = |out: &mut ParsedFile, kind: CallKind| {
        out.fns[fn_idx].calls.push(Call {
            kind,
            line,
            order: i,
        });
    };

    if let Some(what) = clock_at(code, i) {
        push_sink(out, SinkKind::Clock, what);
    }

    // Macros: `name!…`.
    if next_is(1, '!') {
        if let Some((kind, what)) = macro_sink(name) {
            push_sink(out, kind, what);
        }
        return i + 2;
    }

    // Method call: `recv.name(…)`.
    if prev_is('.') && next_is(1, '(') {
        if let Some((kind, what)) = method_sink(name) {
            push_sink(out, kind, what);
        }
        if !SINK_ONLY_METHODS.contains(&name) {
            // The identifier `k` tokens back, and whether a `.` or `:`
            // sits there (the receiver is then part of a longer path).
            let back = |k: usize| i.checked_sub(k).and_then(|j| code[j].ident()).map(plain);
            let back_is = |k: usize, c: char| i >= k && code[i - k].is_punct(c);
            let in_path = |k: usize| back_is(k, '.') || back_is(k, ':');
            let recv_is_self = back(2) == Some("self") && !back_is(3, '.');
            if recv_is_self {
                push_call(out, CallKind::SelfMethod(name.to_string()));
            } else {
                let recv = match back(2) {
                    Some(field) if back_is(3, '.') && back(4) == Some("self") && !in_path(5) => {
                        Receiver::SelfField(field.to_string())
                    }
                    Some(var) if !is_keyword(var) && !in_path(3) => {
                        Receiver::Ident(var.to_string())
                    }
                    _ => Receiver::Other,
                };
                push_call(
                    out,
                    CallKind::Method {
                        name: name.to_string(),
                        recv,
                    },
                );
            }
        }
        return i + 1;
    }

    // Path or bare call: `name(…)` / `a::b::name::<T>(…)`. Skip when this
    // ident is itself a later path segment (prev `::`) or a method name.
    if is_keyword(name_raw) || prev_is('.') || (prev_is(':') && i >= 2 && code[i - 2].is_punct(':'))
    {
        return i + 1;
    }
    let mut segs = vec![name.to_string()];
    let mut j = i + 1;
    loop {
        if code.get(j).is_some_and(|x| x.is_punct(':'))
            && code.get(j + 1).is_some_and(|x| x.is_punct(':'))
        {
            match code.get(j + 2).map(|t| &t.kind) {
                Some(TokenKind::Ident(s)) => {
                    segs.push(plain(s).to_string());
                    j += 3;
                }
                Some(TokenKind::Punct('<')) => {
                    // Turbofish: skip the balanced `<…>` run.
                    let mut a = 0i32;
                    let mut k = j + 2;
                    while k < code.len() {
                        match code[k].kind {
                            TokenKind::Punct('<') => a += 1,
                            TokenKind::Punct('>') => {
                                a -= 1;
                                if a == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    j = k;
                    break;
                }
                _ => break,
            }
        } else {
            break;
        }
    }
    if !code.get(j).is_some_and(|x| x.is_punct('(')) {
        return i + 1;
    }

    // Clock sinks hide inside fully-qualified call paths: a call path is
    // consumed whole, so the head-ident check above never sees the inner
    // `Instant`/`SystemTime` segment of `std::time::Instant::now()`.
    // (Non-call paths return early above and rescan segment by segment,
    // which catches value constants like `std::time::UNIX_EPOCH`.) Paths
    // whose *head* segment is the clock identifier already fired above.
    if let Some(p) = segs
        .iter()
        .skip(1)
        .position(|s| CLOCK_IDENTS.contains(&s.as_str()))
    {
        let what = format!("`{}`", segs[p + 1]);
        push_sink(out, SinkKind::Clock, what);
    } else if segs.len() >= 2
        && segs[segs.len() - 2] == "Instant"
        && segs[segs.len() - 1] == "now"
        && segs[0] != "Instant"
    {
        push_sink(out, SinkKind::Clock, "`Instant::now()`".into());
    }

    // Sinks recognizable from the path shape.
    let n = segs.len();
    if n >= 2 && segs[n - 1] == "spawn" && segs[n - 2] == "thread" {
        push_sink(out, SinkKind::Spawn, "`thread::spawn`".into());
    }
    if n >= 2
        && ALLOC_CTOR_TYPES.contains(&segs[n - 2].as_str())
        && ALLOC_CTOR_FNS.contains(&segs[n - 1].as_str())
    {
        push_sink(
            out,
            SinkKind::Alloc,
            format!("`{}::{}`", segs[n - 2], segs[n - 1]),
        );
    }

    if n == 1 {
        push_call(out, CallKind::Bare(segs.pop().unwrap_or_default()));
    } else {
        push_call(out, CallKind::Path(segs));
    }
    // Continue from the segment after this ident so inner segments are not
    // re-scanned as fresh paths.
    (i + 1).max(j.min(code.len()))
}

/// Emits an Index sink for `expr[` shapes: the `[` at `i` follows an
/// identifier (not a keyword), `)` or `]`.
fn detect_index(code: &[Token], i: usize, scopes: &[Scope], out: &mut ParsedFile) {
    let Some(fn_idx) = current_fn(scopes) else {
        return;
    };
    let Some(prev) = i.checked_sub(1).map(|p| &code[p]) else {
        return;
    };
    let what = match &prev.kind {
        TokenKind::Ident(s) if !is_keyword(s) && s != "self" => format!("`{}[…]`", plain(s)),
        TokenKind::Punct(')') | TokenKind::Punct(']') => "`(…)[…]`".to_string(),
        _ => return,
    };
    out.fns[fn_idx].sinks.push(Sink {
        kind: SinkKind::Index,
        line: code[i].line,
        order: i,
        what,
    });
}

/// Attaches `geo-lint:` markers to the first fn whose signature starts
/// within 8 lines below the marker comment.
fn attach_markers(out: &mut ParsedFile, comments: &[Comment]) {
    for c in comments {
        let anchored = c.text.trim_start_matches(['/', '!', '*']).trim_start();
        let Some(body) = anchored.strip_prefix("geo-lint:") else {
            continue;
        };
        let marker = body.trim();
        if !MARKERS.contains(&marker) {
            continue;
        }
        let target = out
            .fns
            .iter_mut()
            .filter(|f| f.sig_line > c.line && f.sig_line <= c.line + 8)
            .min_by_key(|f| f.sig_line);
        if let Some(f) = target {
            f.markers.push(marker.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse_src(src: &str) -> ParsedFile {
        let lexed = lexer::lex(src);
        parse(&lexed.tokens, &lexed.comments)
    }

    #[test]
    fn extracts_fns_with_modules_and_impls() {
        let src = "mod inner {\n  struct S;\n  impl S {\n    fn method(&self) { helper(); }\n  }\n  fn helper() {}\n}\nfn top() {}";
        let p = parse_src(src);
        let names: Vec<(String, Option<String>, Vec<String>)> = p
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone(), f.module.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("method".into(), Some("S".into()), vec!["inner".into()]),
                ("helper".into(), None, vec!["inner".into()]),
                ("top".into(), None, vec![]),
            ]
        );
        assert!(matches!(
            &p.fns[0].calls[0].kind,
            CallKind::Bare(n) if n == "helper"
        ));
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let p = parse_src("impl Display for Foo {\n  fn fmt(&self) { self.go(); }\n}");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Foo"));
        assert!(matches!(
            &p.fns[0].calls[0].kind,
            CallKind::SelfMethod(n) if n == "go"
        ));
    }

    #[test]
    fn classifies_call_shapes() {
        let src = "fn f(s: &Store) {\n  bare();\n  s.method_call();\n  a::b::path_call();\n  Type::assoc();\n  chained::<u32>();\n}";
        let p = parse_src(src);
        let kinds: Vec<String> = p.fns[0]
            .calls
            .iter()
            .map(|c| match &c.kind {
                CallKind::Bare(n) => format!("bare:{n}"),
                CallKind::Method { name, .. } => format!("method:{name}"),
                CallKind::SelfMethod(n) => format!("self:{n}"),
                CallKind::Path(p) => format!("path:{}", p.join("::")),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "bare:bare",
                "method:method_call",
                "path:a::b::path_call",
                "path:Type::assoc",
                "bare:chained",
            ]
        );
    }

    #[test]
    fn records_sinks_with_lines() {
        let src = "fn f(xs: &[u32], i: usize) -> u32 {\n  let v = xs[i];\n  let o: Option<u32> = None;\n  o.unwrap();\n  panic!(\"no\");\n  v\n}";
        let p = parse_src(src);
        let sinks: Vec<(SinkKind, usize)> =
            p.fns[0].sinks.iter().map(|s| (s.kind, s.line)).collect();
        assert_eq!(
            sinks,
            vec![
                (SinkKind::Index, 2),
                (SinkKind::Panic, 4),
                (SinkKind::Panic, 5),
            ]
        );
    }

    #[test]
    fn index_detection_skips_types_attrs_and_macros() {
        let src = "fn f() {\n  let a: [u8; 4] = [0; 4];\n  #[allow(dead_code)]\n  let v = vec![1];\n  for x in [1, 2] { drop(x); }\n}";
        let p = parse_src(src);
        assert!(
            p.fns[0].sinks.iter().all(|s| s.kind != SinkKind::Index),
            "{:?}",
            p.fns[0].sinks
        );
    }

    #[test]
    fn parses_use_trees() {
        let src = "use crate::proto::{self, LocateRecord, encode_error as ee};\nuse geo_model::runtime::*;\nfn f() {}";
        let p = parse_src(src);
        let find = |n: &str| {
            p.imports
                .iter()
                .find(|(l, _)| l == n)
                .map(|(_, path)| path.join("::"))
        };
        assert_eq!(find("proto").as_deref(), Some("crate::proto"));
        assert_eq!(
            find("LocateRecord").as_deref(),
            Some("crate::proto::LocateRecord")
        );
        assert_eq!(find("ee").as_deref(), Some("crate::proto::encode_error"));
        assert_eq!(
            p.globs,
            vec![vec!["geo_model".to_string(), "runtime".into()]]
        );
    }

    #[test]
    fn raw_identifiers_unify_with_plain_names() {
        let p = parse_src("fn r#type() {}\nfn caller() { r#type(); }");
        assert_eq!(p.fns[0].name, "type");
        assert!(matches!(
            &p.fns[1].calls[0].kind,
            CallKind::Bare(n) if n == "type"
        ));
    }

    #[test]
    fn markers_attach_to_the_next_fn() {
        let src = "// geo-lint: serve-entry\nfn entry() {}\n\n// geo-lint: hot-path\n#[inline]\nfn hot() {}\nfn unmarked() {}";
        let p = parse_src(src);
        assert!(p.fns[0].has_marker("serve-entry"));
        assert!(p.fns[1].has_marker("hot-path"));
        assert_eq!(p.fns[1].item_line, 5, "attr line starts the item");
        assert!(p.fns[2].markers.is_empty());
    }

    #[test]
    fn bodyless_and_pointer_fns_are_skipped() {
        let src = "trait T { fn decl(&self); }\nfn real(cb: fn(u32) -> u32) { cb(1); }";
        let p = parse_src(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn clock_sinks_are_seen_through_qualified_paths() {
        let src = "fn f() -> u64 {\n  let t = std::time::Instant::now();\n  let s = std::time::SystemTime::now();\n  let e = std::time::UNIX_EPOCH;\n  0\n}\nfn bare() { let t = Instant::now(); }";
        let p = parse_src(src);
        let clocks: Vec<usize> = p.fns[0]
            .sinks
            .iter()
            .filter(|s| s.kind == SinkKind::Clock)
            .map(|s| s.line)
            .collect();
        assert_eq!(clocks, vec![2, 3, 4]);
        // The unqualified form keeps firing exactly once (no double count
        // between the head-ident check and the path check).
        let bare: Vec<_> = p.fns[1]
            .sinks
            .iter()
            .filter(|s| s.kind == SinkKind::Clock)
            .collect();
        assert_eq!(bare.len(), 1);
    }

    #[test]
    fn macro_templates_hold_item_sinks() {
        // Inside a template, outside its fns: every sink is item-level.
        // Outside a template: only clock identifiers are.
        let src = "macro_rules! m (\n  () => { x.expect(\"e\"); panic!(); std::thread::spawn(f); }\n);\nstatic S: u8 = panic!();\nmacro_rules! n { () => { fn f() { y.unwrap(); } } }";
        let p = parse_src(src);
        let items: Vec<(SinkKind, usize, &str)> = p
            .item_sinks
            .iter()
            .map(|s| (s.kind, s.line, s.what.as_str()))
            .collect();
        assert_eq!(
            items,
            vec![
                (SinkKind::Panic, 2, "`.expect()`"),
                (SinkKind::Panic, 2, "`panic!`"),
                (SinkKind::Spawn, 2, "`thread::spawn`"),
            ]
        );
        assert_eq!(p.fns.len(), 1, "a template's fn is still an item");
        assert_eq!(p.fns[0].sinks[0].kind, SinkKind::Panic);
    }

    #[test]
    fn lock_and_write_order_is_recorded() {
        let src = "fn f(m: &Mutex<u32>, s: &mut TcpStream) {\n  let g = m.lock();\n  s.write_all(b\"x\").ok();\n}";
        let p = parse_src(src);
        let lock = p.fns[0]
            .sinks
            .iter()
            .find(|s| s.kind == SinkKind::LockAcquire)
            .unwrap();
        let write = p.fns[0]
            .sinks
            .iter()
            .find(|s| s.kind == SinkKind::Write)
            .unwrap();
        assert!(lock.order < write.order);
    }

    #[test]
    fn records_struct_field_types() {
        let src = "pub struct S<T: Clone> {\n  a: Arc<Mutex<T>>,\n  pub b: &'static Foo,\n  pub(crate) c: Box<dyn Bar + Send>,\n  #[allow(dead_code)]\n  d: Option<Baz>,\n  e: (u8, u8),\n  f: [u8; 4],\n  g: fn(u32) -> u32,\n  h: Rc<Box<crate::x::Deep>>,\n  i: Box<dyn Fn(u32) -> u32>,\n  j: a::b::Last,\n}\nstruct Tuple(Foo);\nstruct Unit;";
        let p = parse_src(src);
        let fields: Vec<(&str, &str, &str)> = p
            .fields
            .iter()
            .map(|(s, f, t)| (s.as_str(), f.as_str(), t.as_str()))
            .collect();
        assert_eq!(
            fields,
            vec![
                ("S", "a", "Mutex"),
                ("S", "b", "Foo"),
                ("S", "c", "Bar"),
                ("S", "d", "Option"),
                ("S", "h", "Deep"),
                ("S", "i", "Fn"),
                ("S", "j", "Last"),
            ]
        );
    }

    #[test]
    fn records_module_level_type_aliases() {
        let src = "pub type DelayMatrix = Matrix<f64>;\ntype Map<K, V = u8> = std::collections::HashMap<K, V>;\ntype Shared = Arc<crate::x::Deep>;\ntype Pair = (u8, u8);\nmod inner {\n  pub(crate) type Tick = u64;\n}\nimpl Add for X {\n  type Output = X;\n}\ntrait T {\n  type Item = u8;\n}\nfn f() {\n  type Local = Vec<u8>;\n}";
        let p = parse_src(src);
        let aliases: Vec<(&str, &str)> = p
            .aliases
            .iter()
            .map(|(a, t)| (a.as_str(), t.as_str()))
            .collect();
        assert_eq!(
            aliases,
            vec![
                ("DelayMatrix", "Matrix"),
                ("Map", "HashMap"),
                ("Shared", "Deep"),
                ("Tick", "u64"),
            ]
        );
    }

    #[test]
    fn records_param_types() {
        let src = "impl T {\n  fn f<F: Fn(u32) -> u32>(&mut self, net: &'a mut Network, mut k: usize, (a, b): (u8, u8), cb: F, other: &Self) {}\n}\nfn g() {}";
        let p = parse_src(src);
        let params: Vec<(&str, &str)> = p.fns[0]
            .params
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        assert_eq!(
            params,
            vec![
                ("net", "Network"),
                ("k", "usize"),
                ("cb", "F"),
                ("other", "Self")
            ]
        );
        assert!(p.fns[1].params.is_empty());
    }

    #[test]
    fn classifies_method_receivers() {
        let src = "fn g(&self, p: P) {\n  self.field.m1();\n  p.m2();\n  self.a.b.m3();\n  f().m4();\n  xs[0].m5();\n  self.m6();\n  a::B.m7();\n}";
        let p = parse_src(src);
        let recvs: Vec<String> = p.fns[0]
            .calls
            .iter()
            .filter_map(|c| match &c.kind {
                CallKind::Method { name, recv } => Some(format!("{name}:{recv:?}")),
                CallKind::SelfMethod(name) => Some(format!("{name}:self")),
                _ => None,
            })
            .collect();
        assert_eq!(
            recvs,
            vec![
                "m1:SelfField(\"field\")",
                "m2:Ident(\"p\")",
                "m3:Other",
                "m4:Other",
                "m5:Other",
                "m6:self",
                "m7:Other",
            ]
        );
    }
}
