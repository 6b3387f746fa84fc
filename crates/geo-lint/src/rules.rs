//! The rule table, the per-file checking pass, and the merge that applies
//! allow directives.
//!
//! D2, D3, R2, R3 and R5 are scans over one file's token stream from
//! [`crate::lexer`]; D1, R1, R4, P1 and L1 read the parser's sinks over
//! the call graph (`reach`). Each rule is scoped by where a file
//! lives in the workspace (the crate lists below). `#[cfg(test)]` modules
//! and `#[test]` functions are stripped before any rule runs — tests may
//! time themselves and unwrap freely.

use crate::lexer::{self, Comment, FileLex, Token, TokenKind};
use crate::report::{Diagnostic, Report, Suppression};

/// Static description of one rule, for `geo-lint rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// All rules, including the meta-rules about allow directives themselves.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        summary: "no wall-clock or ambient entropy (SystemTime, Instant::now, thread_rng, \
                  from_entropy) in deterministic crates, nor in any function their public \
                  surface reaches through cross-crate calls",
    },
    RuleInfo {
        id: "D2",
        summary: "no iteration over HashMap/HashSet in deterministic crates outside \
                  sort-then-iterate (hash iteration order is unspecified)",
    },
    RuleInfo {
        id: "D3",
        summary: "RNG construction must flow through geo_model::rng (Seed::rng / KeyRng), \
                  not direct SeedableRng calls",
    },
    RuleInfo {
        id: "R1",
        summary: "no unwrap/expect/panic in geo-serve server and request paths, nor any \
                  panic or indexing-panic reachable (via the call graph) from a \
                  `// geo-lint: serve-entry` serving entry point — a bad request or \
                  poisoned lock must not kill the server",
    },
    RuleInfo {
        id: "R2",
        summary: "no `static mut` or `unsafe impl Send/Sync` — shared mutable state goes \
                  through std sync primitives",
    },
    RuleInfo {
        id: "R3",
        summary: "no unbounded retry loops: a `loop`/`while true` that handles retryable \
                  `ApiFault`s must bound its attempts with a counter or budget",
    },
    RuleInfo {
        id: "R4",
        summary: "no `thread::spawn` or blocking socket reads (`read_line`/`read_exact`) in \
                  geo-serve serving paths outside the `// geo-lint: worker-bootstrap` pool \
                  setup, nor any blocking construct or lock held across a write reachable \
                  from a serving entry point — the event loop must stay nonblocking",
    },
    RuleInfo {
        id: "R5",
        summary: "unbounded buffer growth in geo-serve serving paths: `.read_to_end()`/\
                  `.read_to_string()`, or a read loop that grows a buffer without \
                  comparing against a byte budget (an identifier naming a max/budget/\
                  limit/bound)",
    },
    RuleInfo {
        id: "P1",
        summary: "heap allocation (Vec/String constructors, vec!/format!, .collect/.to_vec/\
                  .to_string/.to_owned) inside a function marked `// geo-lint: hot-path`, \
                  or in any function it transitively calls",
    },
    RuleInfo {
        id: "L1",
        summary: "lock-acquisition-order cycle across HotCache/ServeStats/Registry-style \
                  mutex classes — opposite acquisition orders can deadlock",
    },
    RuleInfo {
        id: "X1",
        summary: "malformed or unknown-rule `geo-lint: allow(...)` directive",
    },
    RuleInfo {
        id: "X2",
        summary: "stale allow: the directive suppresses nothing on its target line",
    },
];

/// True when `id` names a suppressible (non-meta) rule.
fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id && !r.id.starts_with('X'))
}

/// Crates whose `src/` must be a pure function of the seed: D1's direct
/// part, D2 and D3.
pub(crate) const DETERMINISTIC_CRATES: &[&str] = &[
    "world-sim",
    "net-sim",
    "geo-model",
    "core",
    "eval",
    "geo-hints",
];

/// Crates whose `src/` is a serving path: R1's and R4's direct parts,
/// R5, and the home of the `serve-entry` roots.
pub(crate) const SERVER_CRATES: &[&str] = &["geo-serve"];

/// Crates whose `src/` talks to the fault-injecting platform and must
/// bound its retry loops (R3).
const RETRY_CRATES: &[&str] = &["core", "atlas-sim"];

/// Crates whose `src/` carries `// geo-lint: hot-path` markers that P1
/// enforces; markers elsewhere are inert documentation.
pub(crate) const HOT_PATH_CRATES: &[&str] = &["net-sim", "geo-model", "world-sim", "web-sim"];

/// Vendored stand-in crates, skipped entirely.
pub(crate) const VENDORED_CRATES: &[&str] = &["rand", "proptest", "criterion"];

/// Crates whose `src/` functions are D1's roots: anything they can reach
/// (in any crate) must stay clock/entropy-free. A superset of
/// [`DETERMINISTIC_CRATES`] — atlas-sim is seeded-deterministic too even
/// though its own body rules are scoped differently.
pub(crate) const CLOCK_ROOT_CRATES: &[&str] = &[
    "world-sim",
    "net-sim",
    "geo-model",
    "core",
    "eval",
    "geo-hints",
    "atlas-sim",
];

/// File exempt from D3: the one place allowed to touch `SeedableRng`
/// directly.
const RNG_MODULE: &str = "crates/geo-model/src/rng.rs";

/// True when the root-relative path `rel` lies under the `src/` tree of
/// one of `crates`.
pub(crate) fn in_src_of(rel: &str, crates: &[&str]) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split_once("/src/"))
        .is_some_and(|(name, _)| crates.contains(&name))
}

/// The per-file analysis result: raw diagnostics (snippets filled), parsed
/// allow directives, and the item-level parse used for the call graph.
/// Self-contained (owns its data) so the file pass can run in parallel.
pub(crate) struct FileAnalysis {
    pub rel: String,
    pub lines: Vec<String>,
    /// Per-file rule findings plus X1 directive errors.
    pub diags: Vec<Diagnostic>,
    pub allows: Vec<Allow>,
    pub parsed: crate::parser::ParsedFile,
}

/// Runs the per-file rules and the item parser over one file. Pure: no
/// report mutation, so calls are order-independent and parallelizable.
pub(crate) fn analyze_file(rel: &str, src: &str) -> FileAnalysis {
    let lexed = lexer::lex(src);
    let code = strip_test_regions(&lexed.tokens);
    let lines: Vec<String> = src.lines().map(str::to_string).collect();

    let mut diags: Vec<Diagnostic> = Vec::new();
    if in_src_of(rel, DETERMINISTIC_CRATES) {
        check_d2(&code, &mut diags);
        if rel != RNG_MODULE {
            check_d3(&code, &mut diags);
        }
    }
    if in_src_of(rel, SERVER_CRATES) {
        check_r5(&code, &mut diags);
    }
    check_r2(&code, &mut diags);
    if in_src_of(rel, RETRY_CRATES) {
        check_r3(&code, &mut diags);
    }

    for d in &mut diags {
        d.file = rel.to_string();
        d.snippet = snippet(&lines, d.line);
    }

    let mut allows = Vec::new();
    for c in &lexed.comments {
        parse_allows(c, &lexed, rel, &lines, &mut allows, &mut diags);
    }

    // Item parse on the test-stripped tokens: test fns stay out of the
    // call graph, as they stay out of every rule.
    let parsed = crate::parser::parse(&code, &lexed.comments);

    FileAnalysis {
        rel: rel.to_string(),
        lines,
        diags,
        allows,
        parsed,
    }
}

/// Line `line` (1-based) of `lines`, trimmed; empty past the end.
fn snippet(lines: &[String], line: usize) -> String {
    lines
        .get(line.saturating_sub(1))
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// Reconciles analyses and graph-rule findings against allow directives,
/// appending to `report`. A graph finding with a fn window (a reachable
/// one, or L1) may be suppressed either on the sink line or fn-scoped (a
/// standalone allow above the sink's `fn`); every other finding only on
/// its line. Unused allows become X2 — with a distinct rationale when the
/// allowed rule is not even checked for that file.
pub(crate) fn merge(
    analyses: Vec<FileAnalysis>,
    findings: Vec<crate::reach::Finding>,
    report: &mut Report,
) {
    let mut by_file: std::collections::BTreeMap<&str, Vec<&crate::reach::Finding>> =
        std::collections::BTreeMap::new();
    for f in &findings {
        by_file.entry(f.file.as_str()).or_default().push(f);
    }

    for mut a in analyses {
        // (diagnostic, fn allow-window).
        let mut candidates: Vec<(Diagnostic, Option<(usize, usize)>)> =
            a.diags.drain(..).map(|d| (d, None)).collect();
        for f in by_file.get(a.rel.as_str()).into_iter().flatten() {
            candidates.push((
                Diagnostic {
                    rule: f.rule.into(),
                    file: f.file.clone(),
                    line: f.line,
                    snippet: snippet(&a.lines, f.line),
                    rationale: f.rationale.clone(),
                    chain: f.chain.clone(),
                },
                f.fn_window,
            ));
        }

        'diag: for (d, window) in candidates {
            for al in &mut a.allows {
                let line_match = al.target_line == d.line;
                let fn_match =
                    window.is_some_and(|(lo, hi)| al.target_line >= lo && al.target_line <= hi);
                if al.rule == d.rule && (line_match || fn_match) {
                    report.suppressed.push(Suppression {
                        rule: d.rule.clone(),
                        file: a.rel.clone(),
                        line: d.line,
                        reason: al.reason.clone().unwrap_or_default(),
                    });
                    al.used = true;
                    continue 'diag;
                }
            }
            report.diagnostics.push(d);
        }

        for al in &a.allows {
            if al.used {
                continue;
            }
            let rationale = if rule_checked_here(&a.rel, &al.rule) {
                format!(
                    "stale allow: no {} violation on line {} — remove the directive",
                    al.rule, al.target_line
                )
            } else {
                format!(
                    "stale allow: rule {} is not checked for this file (out of scope \
                     for its crate), so the directive can never suppress anything — \
                     remove it",
                    al.rule
                )
            };
            report.diagnostics.push(Diagnostic {
                rule: "X2".into(),
                file: a.rel.clone(),
                line: al.directive_line,
                snippet: snippet(&a.lines, al.directive_line),
                rationale,
                chain: Vec::new(),
            });
        }

        report.files_scanned += 1;
    }
}

/// Whether `rule` actually runs for the file at `rel` — the X2 scoping
/// check for unused allows.
fn rule_checked_here(rel: &str, rule: &str) -> bool {
    match rule {
        "D2" => in_src_of(rel, DETERMINISTIC_CRATES),
        "D3" => in_src_of(rel, DETERMINISTIC_CRATES) && rel != RNG_MODULE,
        "R3" => in_src_of(rel, RETRY_CRATES),
        "R5" => in_src_of(rel, SERVER_CRATES),
        // R2 runs everywhere, and D1, R1, R4, P1 and L1 can fire in any
        // file the call graph reaches.
        _ => true,
    }
}

/// A parsed `// geo-lint: allow(RULE, reason = "...")` directive.
#[derive(Debug)]
pub(crate) struct Allow {
    rule: String,
    reason: Option<String>,
    /// Line of the comment itself.
    directive_line: usize,
    /// Line the allow applies to: the comment's own line for trailing
    /// comments, the next code line for standalone comment lines.
    target_line: usize,
    /// Set once the allow has suppressed at least one diagnostic.
    used: bool,
}

/// Parses every `geo-lint:` occurrence in one comment. Malformed or
/// unknown-rule directives are reported immediately as X1 into `diags`.
fn parse_allows(
    c: &Comment,
    lexed: &FileLex,
    rel: &str,
    lines: &[String],
    allows: &mut Vec<Allow>,
    diags: &mut Vec<Diagnostic>,
) {
    // A directive must *start* the comment (after doc-comment markers):
    // prose that merely mentions `geo-lint:` mid-sentence is not one.
    let anchored = c.text.trim_start_matches(['/', '!', '*']).trim_start();
    if !anchored.starts_with("geo-lint:") {
        return;
    }
    let mut rest = anchored;
    while let Some(pos) = rest.find("geo-lint:") {
        rest = &rest[pos + "geo-lint:".len()..];
        let body = rest.trim_start();
        let fail = |why: &str, diags: &mut Vec<Diagnostic>| {
            diags.push(Diagnostic {
                rule: "X1".into(),
                file: rel.to_string(),
                line: c.line,
                snippet: snippet(lines, c.line),
                rationale: format!(
                    "malformed geo-lint directive: {why} \
                     (expected `geo-lint: allow(<rule>, reason = \"...\")`)"
                ),
                chain: Vec::new(),
            });
        };
        if matches!(body.trim(), "hot-path" | "worker-bootstrap" | "serve-entry") {
            // Markers, not allows: the parser attaches them to the next fn.
            continue;
        }
        let Some(args) = body.strip_prefix("allow(") else {
            fail(
                "only `allow(...)` and the `hot-path`/`worker-bootstrap`/`serve-entry` \
                 markers are understood",
                diags,
            );
            continue;
        };
        // The reason string may itself contain `)` (code snippets like
        // `buf.len()`), so the directive ends at the first `)` that sits
        // outside a `"…"` span, not at the first `)` overall.
        let mut close = None;
        let mut in_str = false;
        for (i, ch) in args.char_indices() {
            match ch {
                '"' => in_str = !in_str,
                ')' if !in_str => {
                    close = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let Some(close) = close else {
            fail("unclosed `allow(`", diags);
            continue;
        };
        let inner = &args[..close];
        let (rule, reason_part) = match inner.split_once(',') {
            Some((r, rest)) => (r.trim(), Some(rest.trim())),
            None => (inner.trim(), None),
        };
        if !is_known_rule(rule) {
            fail(&format!("unknown rule id `{rule}`"), diags);
            continue;
        }
        let reason = reason_part
            .and_then(|r| r.strip_prefix("reason"))
            .map(|r| r.trim_start_matches(['=', ' ']))
            .map(|r| r.trim_matches('"').to_string());
        let Some(reason) = reason.filter(|r| !r.is_empty()) else {
            fail("missing `reason = \"...\"`", diags);
            continue;
        };
        let trailing = lexed.tokens.iter().any(|t| t.line == c.line);
        let target_line = if trailing {
            c.line
        } else {
            lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > c.line)
                .unwrap_or(usize::MAX)
        };
        allows.push(Allow {
            rule: rule.to_string(),
            reason: Some(reason),
            directive_line: c.line,
            target_line,
            used: false,
        });
    }
}

/// Removes tokens inside `#[cfg(test)]` items and `#[test]` functions.
fn strip_test_regions(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if is_test_attr(tokens, i) {
            // Skip to the end of the attribute's item: either a `;`
            // (e.g. `mod tests;`) or a balanced `{ ... }` block.
            let mut j = i;
            // Consume the attribute itself: `# [ ... ]`.
            j += 1; // '#'
            let mut depth = 0;
            while j < tokens.len() {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            // Now consume until the item ends.
            let mut brace = 0i32;
            let mut entered = false;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('{') {
                    brace += 1;
                    entered = true;
                } else if t.is_punct('}') {
                    brace -= 1;
                } else if t.is_punct(';') && !entered {
                    j += 1;
                    break;
                }
                j += 1;
                if entered && brace == 0 {
                    break;
                }
            }
            i = j;
        } else {
            out.push(tokens[i].clone());
            i += 1;
        }
    }
    out
}

/// True when `tokens[i..]` starts `#[cfg(test)]` or `#[test]`.
fn is_test_attr(tokens: &[Token], i: usize) -> bool {
    if !tokens[i].is_punct('#') {
        return false;
    }
    let t = |k: usize| tokens.get(i + k);
    let is = |k: usize, name: &str| t(k).is_some_and(|x| x.is_ident(name));
    let p = |k: usize, c: char| t(k).is_some_and(|x| x.is_punct(c));
    // #[test]
    if p(1, '[') && is(2, "test") && p(3, ']') {
        return true;
    }
    // #[cfg(test)]
    p(1, '[') && is(2, "cfg") && p(3, '(') && is(4, "test") && p(5, ')') && p(6, ']')
}

fn diag(rule: &str, line: usize, rationale: String) -> Diagnostic {
    Diagnostic {
        rule: rule.into(),
        file: String::new(),
        line,
        snippet: String::new(),
        rationale,
        chain: Vec::new(),
    }
}

/// Iterator-producing methods on hash collections.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Sorting calls that make hash-iteration output order-stable.
const SORT_METHODS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Chain members whose result does not depend on iteration order.
const ORDER_INSENSITIVE: &[&str] = &["count", "len", "any", "all", "is_empty", "contains"];

/// D2: iteration over HashMap/HashSet outside sort-then-iterate.
fn check_d2(tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    let bindings = collect_hash_bindings(tokens);
    if !bindings.iter().any(|b| b.hash) {
        return;
    }
    // Latest binding before the use site wins, so a name reused for a
    // BTree collection in a later function does not inherit hash-ness.
    let is_hash_at = |name: &str, use_tok: usize| {
        bindings
            .iter()
            .rev()
            .find(|b| b.tok < use_tok && b.name == name)
            .is_some_and(|b| b.hash)
    };
    let rationale = |name: &str, how: &str| {
        format!(
            "`{name}` is a HashMap/HashSet and {how} observes its unspecified iteration order; \
             sort the items (or collect into a BTree map/set) before consuming them"
        )
    };

    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if !is_hash_at(name, i) {
            continue;
        }
        // Chain form: `name.iter()`, `self.name.values_mut()`, …
        let chain = tokens.get(i + 1).is_some_and(|x| x.is_punct('.'))
            && tokens
                .get(i + 2)
                .is_some_and(|x| x.ident().is_some_and(|m| ITER_METHODS.contains(&m)))
            && tokens.get(i + 3).is_some_and(|x| x.is_punct('('));
        if chain {
            if !iteration_is_ordered(tokens, i) {
                let method = tokens[i + 2].ident().unwrap_or_default();
                diags.push(diag(
                    "D2",
                    t.line,
                    rationale(name, &format!("`.{method}()`")),
                ));
            }
            continue;
        }
        // Bare for-loop form: `for x in &name {` / `for x in name {`.
        if in_bare_for_loop(tokens, i) {
            diags.push(diag("D2", t.line, rationale(name, "`for … in`")));
        }
    }
}

/// One `name`-to-type fact, at the token index where `name` appears.
/// `hash: false` bindings record that the name was (re)bound to a
/// non-hash type, shadowing any earlier hash binding for later uses.
struct Binding {
    name: String,
    tok: usize,
    hash: bool,
}

/// Collects identifier bindings relevant to D2, in token order: typed
/// bindings/fields/params (`name: HashMap<…>`) and constructor bindings
/// (`name = HashMap::new()`).
fn collect_hash_bindings(tokens: &[Token]) -> Vec<Binding> {
    let mut out: Vec<Binding> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if name == "HashMap" || name == "HashSet" {
            continue;
        }
        let Some(next) = tokens.get(i + 1) else {
            continue;
        };
        // `name : HashMap<…>` — the *outermost* type must be the hash
        // collection (a `Vec<HashMap<…>>` is iterated in Vec order and is
        // fine). Skip reference/lifetime/mut prefixes and path segments.
        if next.is_punct(':') && !tokens.get(i + 2).is_some_and(|x| x.is_punct(':')) {
            let mut k = i + 2;
            loop {
                match tokens.get(k).map(|t| &t.kind) {
                    Some(TokenKind::Punct('&')) | Some(TokenKind::Lifetime) => k += 1,
                    Some(TokenKind::Ident(s)) if s == "mut" || s == "dyn" => k += 1,
                    Some(TokenKind::Ident(_))
                        if tokens.get(k + 1).is_some_and(|x| x.is_punct(':'))
                            && tokens.get(k + 2).is_some_and(|x| x.is_punct(':')) =>
                    {
                        // Path segment (`std::collections::…`): keep going.
                        k += 3;
                    }
                    Some(TokenKind::Ident(s)) => {
                        out.push(Binding {
                            name: name.to_string(),
                            tok: i,
                            hash: s == "HashMap" || s == "HashSet",
                        });
                        break;
                    }
                    _ => break,
                }
            }
        }
        // `name = [path::]HashMap::new(…)` — the initializer must *be* a
        // hash-collection constructor call, not merely contain one nested
        // somewhere (`Vec` of maps, closure bodies, …).
        if next.is_punct('=')
            && !tokens.get(i + 2).is_some_and(|x| x.is_punct('='))
            && !tokens.get(i.wrapping_sub(1)).is_some_and(|x| {
                x.is_punct('=') || x.is_punct('<') || x.is_punct('>') || x.is_punct('!')
            })
        {
            let mut k = i + 2;
            loop {
                match tokens.get(k).map(|t| &t.kind) {
                    Some(TokenKind::Ident(s)) if s == "HashMap" || s == "HashSet" => {
                        if tokens.get(k + 1).is_some_and(|x| x.is_punct(':')) {
                            out.push(Binding {
                                name: name.to_string(),
                                tok: i,
                                hash: true,
                            });
                        }
                        break;
                    }
                    Some(TokenKind::Ident(_))
                        if tokens.get(k + 1).is_some_and(|x| x.is_punct(':'))
                            && tokens.get(k + 2).is_some_and(|x| x.is_punct(':')) =>
                    {
                        k += 3;
                    }
                    _ => break,
                }
            }
        }
    }
    out
}

/// True when the hash iteration starting at token `i` (the collection
/// identifier) is made order-stable: the surrounding statement sorts,
/// collects into a BTree, or only computes order-insensitive aggregates —
/// or the statement `let`-binds a value that one of the next few
/// statements sorts.
fn iteration_is_ordered(tokens: &[Token], i: usize) -> bool {
    // Backward to the statement start (`;`, `{`, `}` boundary).
    let mut start = i;
    while start > 0 {
        let t = &tokens[start - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start -= 1;
    }
    // Forward to the statement end: `;` or `{` at relative depth 0.
    let mut end = i;
    let mut depth = 0i32;
    while end < tokens.len() {
        let t = &tokens[end];
        match t.kind {
            TokenKind::Punct('(' | '[') => depth += 1,
            TokenKind::Punct(')' | ']') => depth -= 1,
            TokenKind::Punct(';') if depth <= 0 => break,
            TokenKind::Punct('{') if depth <= 0 => break,
            _ => {}
        }
        end += 1;
    }

    let stmt = &tokens[start..end];
    let has = |names: &[&str]| {
        stmt.iter()
            .any(|t| t.ident().is_some_and(|s| names.contains(&s)))
    };
    if has(SORT_METHODS) || has(&["BTreeMap", "BTreeSet"]) || has(ORDER_INSENSITIVE) {
        return true;
    }

    // `let [mut] NAME = …collect…;` followed within three statements by
    // `NAME.sort*(…)` — the repo's canonical collect-then-sort idiom.
    let mut it = stmt.iter();
    if !it.next().is_some_and(|t| t.is_ident("let")) {
        return false;
    }
    let mut name = it.next().and_then(|t| t.ident());
    if name == Some("mut") {
        name = it.next().and_then(|t| t.ident());
    }
    let Some(name) = name else { return false };

    let mut stmts_seen = 0;
    let mut depth = 0i32;
    let mut j = end;
    while j + 2 < tokens.len() && stmts_seen < 4 {
        let t = &tokens[j];
        match t.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => depth -= 1,
            TokenKind::Punct(';') if depth <= 0 => stmts_seen += 1,
            _ => {}
        }
        if t.is_ident(name)
            && tokens[j + 1].is_punct('.')
            && tokens[j + 2]
                .ident()
                .is_some_and(|m| SORT_METHODS.contains(&m))
        {
            return true;
        }
        j += 1;
    }
    false
}

/// True when token `i` (a hash-collection identifier) is the bare iterated
/// expression of a `for` loop: `for PAT in [&][mut][self.]name {`.
fn in_bare_for_loop(tokens: &[Token], i: usize) -> bool {
    // The token after the collection must open the loop body (possibly
    // after a closing `)` for tuple patterns — not applicable here since
    // the collection ends the expression).
    if !tokens.get(i + 1).is_some_and(|t| t.is_punct('{')) {
        return false;
    }
    // Walk backward over `&`, `mut`, `self`, `.` to find `in` then `for`.
    let mut j = i;
    while j > 0 {
        let t = &tokens[j - 1];
        let passable =
            t.is_punct('&') || t.is_punct('.') || t.is_ident("mut") || t.is_ident("self");
        if passable {
            j -= 1;
            continue;
        }
        return t.is_ident("in") && {
            // Something before `in` must eventually be `for`; scan back a
            // bounded window over the pattern.
            tokens[..j - 1]
                .iter()
                .rev()
                .take(16)
                .any(|t| t.is_ident("for"))
        };
    }
    false
}

/// D3: direct `SeedableRng` construction outside `geo_model::rng`.
fn check_d3(tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    for t in tokens {
        let Some(name) = t.ident() else { continue };
        if matches!(
            name,
            "seed_from_u64" | "from_seed" | "from_rng" | "SeedableRng"
        ) {
            diags.push(diag(
                "D3",
                t.line,
                format!(
                    "`{name}` constructs an RNG directly; route seeding through \
                     `geo_model::rng` (`Seed::rng()` / `KeyRng::new`) so streams stay \
                     domain-separated"
                ),
            ));
        }
    }
}

/// Methods through which a read loop accumulates bytes into a buffer.
const GROW_METHODS: &[&str] = &["push", "extend", "extend_from_slice", "append", "push_str"];

/// Substrings that mark an identifier as a size budget. Matched
/// case-insensitively, so `MAX_INBUF`, `ReplyBudget` and `line_limit`
/// all count as bounds.
const BUDGET_MARKERS: &[&str] = &["max", "budget", "limit", "bound"];

/// True when any identifier in `body` names a budget (see
/// [`BUDGET_MARKERS`]).
fn mentions_budget(body: &[Token]) -> bool {
    body.iter().any(|t| {
        t.ident().is_some_and(|s| {
            let lower = s.to_ascii_lowercase();
            BUDGET_MARKERS.iter().any(|m| lower.contains(m))
        })
    })
}

/// R5: unbounded buffer growth in a serving path.
///
/// A server that buffers client bytes without a ceiling hands every
/// client a memory-exhaustion lever: `read_to_end`/`read_to_string`
/// wait for an EOF a hostile client never sends, and a chunked read
/// loop that only ever `extend`s its buffer grows without limit under
/// a slow drip that never completes a frame. The fix is a byte budget
/// (`proto::MAX_BODY`-style) compared inside the loop, with a typed
/// eviction when it trips — which is exactly what the rule looks for:
/// a loop containing both a `.read(…)` and a growth call is flagged
/// unless some identifier in the loop names a max/budget/limit/bound.
fn check_r5(tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    // Whole-stream slurps are unbounded by construction.
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if matches!(name, "read_to_end" | "read_to_string")
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|x| x.is_punct('('))
        {
            diags.push(diag(
                "R5",
                t.line,
                format!(
                    "`.{name}()` buffers until EOF with no size ceiling; a client that \
                     never closes its half of the socket exhausts memory — read bounded \
                     chunks against a byte budget and evict with a typed error"
                ),
            ));
        }
    }

    // Read loops that grow a buffer without ever consulting a budget.
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if !(t.is_ident("loop") || t.is_ident("while") || t.is_ident("for")) {
            i += 1;
            continue;
        }
        // The body opens at the first `{` outside the loop-head's
        // parens/brackets (closure bodies in the head are rare enough
        // that the paren guard covers the real cases).
        let mut depth = 0i32;
        let mut open = None;
        for (k, tok) in tokens.iter().enumerate().skip(i + 1) {
            match tok.kind {
                TokenKind::Punct('(' | '[') => depth += 1,
                TokenKind::Punct(')' | ']') => depth -= 1,
                TokenKind::Punct('{') if depth <= 0 => {
                    open = Some(k);
                    break;
                }
                TokenKind::Punct(';') if depth <= 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let mut brace = 0i32;
        let mut end = open;
        while end < tokens.len() {
            if tokens[end].is_punct('{') {
                brace += 1;
            } else if tokens[end].is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            }
            end += 1;
        }
        // Include the loop head: `while buf.len() < max && …` bounds the
        // loop just as well as a check inside the body.
        let scope = &tokens[i..end.min(tokens.len())];
        let method_call = |name: &str| {
            scope.iter().enumerate().any(|(k, tok)| {
                tok.is_ident(name)
                    && k > 0
                    && scope[k - 1].is_punct('.')
                    && scope.get(k + 1).is_some_and(|x| x.is_punct('('))
            })
        };
        let reads = method_call("read");
        let grows = GROW_METHODS.iter().any(|m| method_call(m));
        if reads && grows && !mentions_budget(scope) {
            diags.push(diag(
                "R5",
                t.line,
                "unbounded buffer growth: this loop reads from a stream and grows a \
                 buffer without comparing against a byte budget; a slow-drip client \
                 that never completes a frame exhausts memory — cap the buffer \
                 (`proto::MAX_BODY`-style) and evict the connection when it trips"
                    .into(),
            ));
        }
        // Advance one token only, so nested loops are still inspected.
        i += 1;
    }
}

/// Identifiers that signal a retry loop bounds its own attempts: a counter
/// compared or incremented inside the loop, or a budget being drawn down.
const ATTEMPT_MARKERS: &[&str] = &[
    "attempt",
    "attempts",
    "max_attempts",
    "tries",
    "retries",
    "budget",
    "remaining",
];

/// R3: a `loop { … }` / `while true { … }` whose body handles the
/// retryable `ApiFault`s of `atlas_sim::faults` without any bounded attempt
/// accounting. Under fault injection such a loop can spin forever on a
/// fault the plan keeps returning.
fn check_r3(tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        let open = if t.is_ident("loop") && tokens.get(i + 1).is_some_and(|x| x.is_punct('{')) {
            Some(i + 1)
        } else if t.is_ident("while")
            && tokens.get(i + 1).is_some_and(|x| x.is_ident("true"))
            && tokens.get(i + 2).is_some_and(|x| x.is_punct('{'))
        {
            Some(i + 2)
        } else {
            None
        };
        let Some(open) = open else {
            i += 1;
            continue;
        };
        // The loop's balanced body.
        let mut depth = 0i32;
        let mut j = open;
        while j < tokens.len() {
            if tokens[j].is_punct('{') {
                depth += 1;
            } else if tokens[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let body = &tokens[open..j.min(tokens.len())];
        let retryable = body.iter().any(|t| t.is_ident("ApiFault"));
        let bounded = body
            .iter()
            .any(|t| t.ident().is_some_and(|s| ATTEMPT_MARKERS.contains(&s)));
        if retryable && !bounded {
            diags.push(diag(
                "R3",
                t.line,
                "unbounded retry loop: it matches retryable `ApiFault`s but never counts \
                 attempts; bound it with an attempt counter or budget, as \
                 `ipgeo::resilient`'s attempt loop does (`for attempt in 0..MAX_ATTEMPTS`)"
                    .into(),
            ));
        }
        // Advance one token only, so nested loops are still inspected.
        i += 1;
    }
}

/// R2: mutable statics and hand-asserted thread-safety.
fn check_r2(tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("static") && tokens.get(i + 1).is_some_and(|x| x.is_ident("mut")) {
            diags.push(diag(
                "R2",
                t.line,
                "`static mut` is unsynchronized shared mutable state; use an atomic, a \
                 `Mutex`, or `OnceLock`"
                    .into(),
            ));
        }
        if t.is_ident("unsafe") && tokens.get(i + 1).is_some_and(|x| x.is_ident("impl")) {
            diags.push(diag(
                "R2",
                t.line,
                "`unsafe impl` hand-asserts a thread-safety contract the compiler cannot \
                 check; prefer types that are `Send`/`Sync` by construction"
                    .into(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lints `src` as the one file of a workspace, through the entry
    /// [`crate::check`] itself calls.
    fn run(rel: &str, src: &str) -> Report {
        crate::lint(&[(rel.into(), src.into())], &Default::default())
    }

    fn det(src: &str) -> Report {
        run("crates/core/src/lib.rs", src)
    }

    #[test]
    fn d1_fires_on_instant_now_in_deterministic_crate() {
        let r = det("fn f() { let t = std::time::Instant::now(); }");
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "D1");
        assert_eq!(r.diagnostics[0].line, 1);
    }

    #[test]
    fn d1_ignores_instant_elsewhere_and_outside_scope() {
        // `Instant` without `::now` (e.g. a stored field type) is fine.
        assert!(det("struct S { t: Instant }").is_clean());
        // The same code in a non-deterministic crate is fine.
        let r = run(
            "crates/bench/src/lib.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn d1_fires_outside_fn_bodies() {
        // Imports, statics and signatures are in no fn body, so no graph
        // node owns their clock identifiers; D1 still flags each one.
        let src = "use std::time::SystemTime;\nstatic S: SystemTime = UNIX_EPOCH;\nfn f(t: SystemTime) -> u64 { 0 }";
        let r = det(src);
        let lines: Vec<(&str, usize)> = r
            .diagnostics
            .iter()
            .map(|d| (d.rule.as_str(), d.line))
            .collect();
        assert_eq!(lines, [("D1", 1), ("D1", 2), ("D1", 2), ("D1", 3)]);
        assert!(r.diagnostics[2].rationale.contains("UNIX_EPOCH"));
        assert!(r.diagnostics.iter().all(|d| d.chain.is_empty()));
    }

    #[test]
    fn macro_templates_are_direct_scope() {
        // A template is no fn body and its expansions are opaque, so each
        // sink in it is reported once, at its own line, with no chain; a
        // fn the template defines keeps its sinks as a graph node's.
        let src = "macro_rules! m {\n  ($v:expr) => {\n    $v.unwrap();\n    std::thread::spawn(|| ());\n    r.read_line(&mut s);\n    todo!();\n    let t = std::time::Instant::now();\n    fn helper() { panic!(); }\n  };\n}\nfn after() {}";
        let r = run("crates/geo-serve/src/lib.rs", src);
        let found: Vec<(&str, usize)> = r
            .diagnostics
            .iter()
            .map(|d| (d.rule.as_str(), d.line))
            .collect();
        assert_eq!(
            found,
            [("R1", 3), ("R4", 4), ("R4", 5), ("R1", 6), ("R1", 8)],
            "{:?}",
            r.diagnostics
        );
        assert!(r.diagnostics.iter().all(|d| d.chain.is_empty()));
        assert_eq!(r.graph.functions, 2, "only `helper` and `after` are nodes");
        // The template's clock is D1's in a deterministic crate.
        let d = det(src);
        assert_eq!(d.diagnostics.len(), 1, "{:?}", d.diagnostics);
        assert_eq!(
            (d.diagnostics[0].rule.as_str(), d.diagnostics[0].line),
            ("D1", 7)
        );
    }

    #[test]
    fn d1_skips_cfg_test_modules() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n  fn f() { let t = Instant::now(); }\n}";
        assert!(det(src).is_clean());
    }

    #[test]
    fn d2_fires_on_unsorted_hash_iteration() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {\n  for v in m.values() { drop(v); }\n}";
        let r = det(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "D2");
        assert_eq!(r.diagnostics[0].line, 3);
    }

    #[test]
    fn d2_fires_on_bare_for_loop_over_hash() {
        let src = "use std::collections::HashSet;\nfn f(s: HashSet<u32>) {\n  for v in &s { drop(v); }\n}";
        let r = det(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "D2");
    }

    #[test]
    fn d2_allows_collect_then_sort() {
        let src = "fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n  let mut v: Vec<u32> = m.keys().copied().collect();\n  v.sort();\n  v\n}";
        assert!(det(src).is_clean(), "{:?}", det(src).diagnostics);
    }

    #[test]
    fn d2_allows_same_statement_sort_and_btree_collect() {
        let sorted = "fn f(m: &std::collections::HashMap<u32, u32>) {\n  let mut v: Vec<_> = m.keys().collect(); v.sort_unstable();\n}";
        assert!(det(sorted).is_clean(), "{:?}", det(sorted).diagnostics);
        let btree = "fn f(m: &std::collections::HashMap<u32, u32>) {\n  let b: std::collections::BTreeMap<_, _> = m.iter().collect();\n  for x in &b { drop(x); }\n}";
        assert!(det(btree).is_clean(), "{:?}", det(btree).diagnostics);
    }

    #[test]
    fn d2_allows_order_insensitive_aggregates() {
        let src =
            "fn f(m: &std::collections::HashMap<u32, u32>) -> usize {\n  m.values().count()\n}";
        assert!(det(src).is_clean(), "{:?}", det(src).diagnostics);
    }

    #[test]
    fn d2_tracks_constructor_bindings() {
        let src = "fn f() {\n  let mut m = std::collections::HashMap::new();\n  m.insert(1, 2);\n  for v in m.values() { drop(v); }\n}";
        let r = det(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].line, 4);
    }

    #[test]
    fn d2_ignores_lookups_and_inserts() {
        let src = "fn f(m: &mut std::collections::HashMap<u32, u32>) {\n  m.insert(1, 2);\n  let _ = m.get(&1);\n  let _ = m.len();\n}";
        assert!(det(src).is_clean(), "{:?}", det(src).diagnostics);
    }

    #[test]
    fn d3_fires_on_direct_seeding_but_not_in_rng_module() {
        let src = "fn f() { let r = StdRng::seed_from_u64(1); }";
        let r = det(src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "D3");
        let rng = run("crates/geo-model/src/rng.rs", src);
        assert!(rng.is_clean());
    }

    #[test]
    fn r1_fires_in_server_crate_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let r = run("crates/geo-serve/src/server.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "R1");
        assert!(run("crates/core/src/lib.rs", src).is_clean());
    }

    #[test]
    fn r1_fires_on_panic_macros_not_assert() {
        let src = "fn f() { assert!(true); panic!(\"boom\"); }";
        let r = run("crates/geo-serve/src/lib.rs", src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert!(r.diagnostics[0].rationale.contains("panic"));
    }

    #[test]
    fn r1_ignores_unwrap_or_else() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }";
        assert!(run("crates/geo-serve/src/lib.rs", src).is_clean());
    }

    #[test]
    fn r4_fires_on_spawn_and_blocking_reads_in_server_crate_only() {
        let src = "fn f(s: &mut TcpStream) {\n  std::thread::spawn(|| {});\n  let mut b = [0u8; 8];\n  s.read_exact(&mut b).ok();\n}";
        let r = run("crates/geo-serve/src/server.rs", src);
        assert_eq!(r.diagnostics.len(), 2, "{:?}", r.diagnostics);
        assert!(r.diagnostics.iter().all(|d| d.rule == "R4"));
        assert_eq!(r.diagnostics[0].line, 2);
        assert_eq!(r.diagnostics[1].line, 4);
        // The same code outside geo-serve is out of scope.
        assert!(run("crates/core/src/lib.rs", src).is_clean());
    }

    #[test]
    fn r4_fires_on_read_line() {
        let src = "fn f(r: &mut BufReader<TcpStream>) {\n  let mut line = String::new();\n  r.read_line(&mut line).ok();\n}";
        let r = run("crates/geo-serve/src/server.rs", src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "R4");
        assert!(r.diagnostics[0].rationale.contains("read_line"));
    }

    #[test]
    fn r4_exempts_the_worker_bootstrap_function_body() {
        let src = "// geo-lint: worker-bootstrap\nfn spawn_pool(n: usize) {\n  for _ in 0..n {\n    std::thread::spawn(|| {});\n  }\n}\nfn elsewhere() {\n  std::thread::spawn(|| {});\n}";
        let r = run("crates/geo-serve/src/server.rs", src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "R4");
        assert_eq!(r.diagnostics[0].line, 8);
    }

    #[test]
    fn r4_marker_must_sit_directly_above_a_fn() {
        // A detached marker exempts nothing (and is not an X1 either —
        // it is a known marker, just inert).
        let src = "// geo-lint: worker-bootstrap\nconst N: usize = 4;\n\n\n\n\n\n\n\n\nfn f() { std::thread::spawn(|| {}); }";
        let r = run("crates/geo-serve/src/server.rs", src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "R4");
    }

    #[test]
    fn r4_ignores_identifiers_that_merely_resemble_the_calls() {
        // A `spawn` that is not `thread::spawn`, and `read_exact` as a
        // bare name rather than a method call.
        let src = "fn f(scope: &Scope) {\n  scope.spawn(|| {});\n  let read_exact = 1;\n  drop(read_exact);\n}";
        let r = run("crates/geo-serve/src/server.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn r4_allow_directive_suppresses_with_reason() {
        let src = "fn f(s: &mut TcpStream) {\n  let mut b = [0u8; 8];\n  // geo-lint: allow(R4, reason = \"one-shot client, not the serving path\")\n  s.read_exact(&mut b).ok();\n}";
        let r = run("crates/geo-serve/src/server.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].rule, "R4");
    }

    #[test]
    fn r5_fires_on_read_to_end_in_server_crate_only() {
        let src = "fn f(s: &mut TcpStream) -> Vec<u8> {\n  let mut b = Vec::new();\n  s.read_to_end(&mut b).ok();\n  b\n}";
        let r = run("crates/geo-serve/src/server.rs", src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "R5");
        assert_eq!(r.diagnostics[0].line, 3);
        assert!(r.diagnostics[0].rationale.contains("read_to_end"));
        // The same code outside geo-serve is out of scope.
        assert!(run("crates/core/src/lib.rs", src).is_clean());
    }

    #[test]
    fn r5_fires_on_a_budget_less_read_loop() {
        let src = "fn f(s: &mut TcpStream, buf: &mut Vec<u8>) {\n  let mut chunk = [0u8; 4096];\n  loop {\n    let n = match s.read(&mut chunk) { Ok(0) | Err(_) => break, Ok(n) => n };\n    buf.extend_from_slice(&chunk[..n]);\n  }\n}";
        let r = run("crates/geo-serve/src/server.rs", src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "R5");
        assert_eq!(r.diagnostics[0].line, 3);
    }

    #[test]
    fn r5_accepts_a_loop_that_checks_a_budget() {
        // `MAX_INBUF` (case-insensitive `max`) marks the loop as bounded;
        // so would `budget`, `limit` or `bound` in any identifier.
        let src = "fn f(s: &mut TcpStream, buf: &mut Vec<u8>) {\n  let mut chunk = [0u8; 4096];\n  loop {\n    let n = match s.read(&mut chunk) { Ok(0) | Err(_) => break, Ok(n) => n };\n    if buf.len() + n > MAX_INBUF { break; }\n    buf.extend_from_slice(&chunk[..n]);\n  }\n}";
        assert!(run("crates/geo-serve/src/server.rs", src).is_clean());
        // A bound in the `while` head counts too.
        let head = "fn f(s: &mut TcpStream, buf: &mut Vec<u8>) {\n  let mut chunk = [0u8; 64];\n  while buf.len() < line_limit {\n    let n = match s.read(&mut chunk) { Ok(0) | Err(_) => break, Ok(n) => n };\n    buf.extend_from_slice(&chunk[..n]);\n  }\n}";
        assert!(run("crates/geo-serve/src/server.rs", head).is_clean());
    }

    #[test]
    fn r5_ignores_loops_that_do_not_both_read_and_grow() {
        // Growth without a read (building a reply) is fine...
        let grow_only =
            "fn f(out: &mut Vec<u8>, xs: &[u8]) {\n  for x in xs {\n    out.push(*x);\n  }\n}";
        assert!(run("crates/geo-serve/src/server.rs", grow_only).is_clean());
        // ...and so is a read into a fixed scratch that is never kept.
        let read_only = "fn f(s: &mut TcpStream) {\n  let mut chunk = [0u8; 64];\n  loop {\n    if s.read(&mut chunk).is_err() { break; }\n  }\n}";
        assert!(run("crates/geo-serve/src/server.rs", read_only).is_clean());
    }

    #[test]
    fn r5_allow_directive_suppresses_with_reason() {
        let src = "fn f(s: &mut TcpStream) -> Vec<u8> {\n  let mut b = Vec::new();\n  // geo-lint: allow(R5, reason = \"one-shot admin dump, bounded by the peer\")\n  s.read_to_end(&mut b).ok();\n  b\n}";
        let r = run("crates/geo-serve/src/server.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].rule, "R5");
    }

    #[test]
    fn r2_fires_everywhere() {
        let src = "static mut COUNTER: u32 = 0;";
        let r = run("crates/bench/src/lib.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "R2");
    }

    #[test]
    fn r3_fires_on_unbounded_retry_loops_in_retry_crates_only() {
        let src = "fn f() {\n  loop {\n    match ping() {\n      Err(ApiFault::ServerError) => continue,\n      _ => break,\n    }\n  }\n}";
        let r = det(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "R3");
        assert_eq!(r.diagnostics[0].line, 2);
        // atlas-sim is in scope too; bench is not.
        let atlas = run("crates/atlas-sim/src/platform.rs", src);
        assert_eq!(atlas.diagnostics.len(), 1, "{:?}", atlas.diagnostics);
        assert!(run("crates/bench/src/lib.rs", src).is_clean());
    }

    #[test]
    fn r3_fires_on_while_true_retry() {
        let src = "fn f() {\n  while true {\n    if matches!(call(), Err(ApiFault::Timeout)) { continue; }\n    break;\n  }\n}";
        let r = det(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "R3");
    }

    #[test]
    fn r3_fires_on_unbounded_api_fault_retry() {
        let src = "fn f() {\n  loop {\n    match call() {\n      Err(ApiFault::ServerError) => continue,\n      _ => break,\n    }\n  }\n}";
        let r = det(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "R3");
        let bounded = "fn f() {\n  let mut attempt = 0;\n  loop {\n    attempt += 1;\n    if attempt >= 4 { break; }\n    match call() {\n      Err(ApiFault::ServerError) => continue,\n      _ => break,\n    }\n  }\n}";
        assert!(det(bounded).is_clean(), "{:?}", det(bounded).diagnostics);
    }

    #[test]
    fn r3_allows_attempt_bounded_loops_and_fault_free_loops() {
        let bounded = "fn f() {\n  let mut attempt = 0;\n  loop {\n    attempt += 1;\n    if attempt >= 4 { break; }\n    match ping() {\n      Err(ApiFault::RateLimited) => continue,\n      _ => break,\n    }\n  }\n}";
        assert!(det(bounded).is_clean(), "{:?}", det(bounded).diagnostics);
        // A loop with no retryable error handling is not a retry loop.
        let plain = "fn f() { loop { if done() { break; } } }";
        assert!(det(plain).is_clean(), "{:?}", det(plain).diagnostics);
    }

    fn hot(src: &str) -> Report {
        run("crates/net-sim/src/hotpath.rs", src)
    }

    #[test]
    fn p1_fires_on_allocation_in_marked_function() {
        let src = "// geo-lint: hot-path\nfn f(xs: &[u32]) -> Vec<u32> {\n  xs.iter().map(|x| x * 2).collect()\n}";
        let r = hot(src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "P1");
        assert_eq!(r.diagnostics[0].line, 3);
        let ctor = "// geo-lint: hot-path\n#[inline]\nfn f() -> usize { let v = Vec::with_capacity(4); v.len() }";
        let r = hot(ctor);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert!(r.diagnostics[0].rationale.contains("Vec::with_capacity"));
        let mac = "// geo-lint: hot-path\nfn f(x: u32) -> usize { format!(\"{x}\").len() }";
        assert_eq!(hot(mac).diagnostics.len(), 1, "{:?}", hot(mac).diagnostics);
    }

    #[test]
    fn p1_ignores_unmarked_functions_and_out_of_scope_crates() {
        // Allocation without a marker is fine (types in signatures too).
        let unmarked = "fn f(out: &mut Vec<u32>) { out.push(1); }\nfn g() -> Vec<u8> { vec![0] }";
        assert!(hot(unmarked).is_clean(), "{:?}", hot(unmarked).diagnostics);
        // A marked clean function is fine.
        let clean = "// geo-lint: hot-path\nfn f(xs: &[f64]) -> f64 { xs.iter().sum() }";
        assert!(hot(clean).is_clean(), "{:?}", hot(clean).diagnostics);
        // Markers outside hot-path crates are inert documentation.
        let src = "// geo-lint: hot-path\nfn f() -> Vec<u8> { vec![0] }";
        let r = run("crates/core/src/lib.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn hot_path_marker_is_not_a_malformed_directive() {
        let r = hot("// geo-lint: hot-path\nfn f() -> u32 { 1 }");
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        // A detached marker (no function within reach) stays inert.
        let detached = "// geo-lint: hot-path\nconst X: u32 = 1;";
        assert!(hot(detached).is_clean(), "{:?}", hot(detached).diagnostics);
    }

    #[test]
    fn p1_can_be_allowed_with_reason() {
        let src = "// geo-lint: hot-path\nfn f() -> usize {\n  // geo-lint: allow(P1, reason = \"cold fallback\")\n  String::new().len()\n}";
        let r = hot(src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].rule, "P1");
    }

    #[test]
    fn allow_suppresses_exactly_its_rule_on_its_line() {
        let src = "fn f() { let t = Instant::now(); } // geo-lint: allow(D1, reason = \"demo\")";
        let r = det(src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].rule, "D1");
        assert_eq!(r.suppressed[0].reason, "demo");
        // An allow for a different rule does not suppress D1 and is stale.
        let wrong = "fn f() { let t = Instant::now(); } // geo-lint: allow(D3, reason = \"demo\")";
        let r = det(wrong);
        let rules: Vec<&str> = r.diagnostics.iter().map(|d| d.rule.as_str()).collect();
        assert_eq!(rules, vec!["D1", "X2"], "{:?}", r.diagnostics);
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let src = "// geo-lint: allow(D1, reason = \"demo\")\nfn f() { let t = Instant::now(); }";
        let r = det(src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].line, 2);
    }

    #[test]
    fn reason_may_contain_parens_and_commas() {
        let src = "fn f() { let t = Instant::now(); } \
                   // geo-lint: allow(D1, reason = \"bench probe (see bench.rs), uses len()\")";
        let r = det(src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(
            r.suppressed[0].reason,
            "bench probe (see bench.rs), uses len()"
        );
    }

    #[test]
    fn unknown_rule_and_missing_reason_are_errors() {
        let r = det("fn f() {} // geo-lint: allow(Z9, reason = \"x\")");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "X1");
        assert!(r.diagnostics[0].rationale.contains("Z9"));
        let r = det("fn f() {} // geo-lint: allow(D1)");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "X1");
        assert!(r.diagnostics[0].rationale.contains("reason"));
    }

    #[test]
    fn stale_allow_is_reported() {
        let r = det("fn f() {} // geo-lint: allow(D1, reason = \"nothing here\")");
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, "X2");
    }

    #[test]
    fn meta_rules_cannot_be_allowed() {
        let r = det("fn f() {} // geo-lint: allow(X2, reason = \"no\")");
        assert_eq!(r.diagnostics[0].rule, "X1");
    }
}
