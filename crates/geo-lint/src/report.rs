//! Diagnostics, suppressions, and report rendering (human and JSON).

use std::fmt::Write as _;

/// One finding: a rule fired at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`D1`, `D2`, `D3`, `R1`, `R2`, `X1`, `X2`).
    pub rule: String,
    /// Path relative to the checked root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// One-line rationale for why this is a violation.
    pub rationale: String,
    /// Witness call chain for transitive findings (root first, sink's
    /// function last); empty for per-file rules.
    pub chain: Vec<String>,
}

/// A recorded, *used* suppression: an allow directive that silenced at
/// least one diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    pub rule: String,
    pub file: String,
    /// Line of the suppressed violation.
    pub line: usize,
    pub reason: String,
}

/// A call the resolver could not pin down, reachable from a rule root.
/// Surfaced so a blind spot in the analysis is never mistaken for safety.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnresolvedCall {
    /// Key of the calling function (`geo_serve::server::sweep_conn`).
    pub from: String,
    /// The call as written (`mystery::frobnicate`, `.lookup()`).
    pub name: String,
    pub file: String,
    pub line: usize,
    /// Why resolution failed (`ambiguous method: 2 candidates …`).
    pub why: String,
}

/// Call-graph size summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphSummary {
    pub functions: usize,
    pub edges: usize,
    /// Total unresolved calls (including ones not reachable from any root).
    pub unresolved: usize,
}

/// The full result of a check run.
#[derive(Debug, Default)]
pub struct Report {
    /// Non-suppressed diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Allow directives that matched a violation.
    pub suppressed: Vec<Suppression>,
    /// Unresolved calls reachable from a rule root.
    pub unresolved: Vec<UnresolvedCall>,
    /// Size of the workspace call graph every check builds.
    pub graph: GraphSummary,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the run found nothing to complain about.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Canonical ordering so output is byte-stable across runs.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.suppressed
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.unresolved
            .sort_by(|a, b| (&a.file, a.line, &a.name).cmp(&(&b.file, b.line, &b.name)));
    }

    /// Human-readable rendering.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{} {}:{}: `{}`", d.rule, d.file, d.line, d.snippet);
            let _ = writeln!(out, "   {}", d.rationale);
            if !d.chain.is_empty() {
                let _ = writeln!(out, "   via {}", d.chain.join(" → "));
            }
        }
        if !self.unresolved.is_empty() {
            let _ = writeln!(out, "unresolved calls (reachable from rule roots):");
            for u in &self.unresolved {
                let _ = writeln!(
                    out,
                    "   {}:{}: `{}` in `{}` ({})",
                    u.file, u.line, u.name, u.from, u.why
                );
            }
        }
        if !self.suppressed.is_empty() {
            let _ = writeln!(out, "suppressed:");
            for s in &self.suppressed {
                let _ = writeln!(
                    out,
                    "   {} {}:{} (reason: {})",
                    s.rule, s.file, s.line, s.reason
                );
            }
        }
        let g = &self.graph;
        let _ = writeln!(
            out,
            "call graph: {} functions, {} edges, {} unresolved calls",
            g.functions, g.edges, g.unresolved
        );
        let _ = writeln!(
            out,
            "geo-lint: {} diagnostic{} ({} suppressed) across {} file{}",
            self.diagnostics.len(),
            if self.diagnostics.len() == 1 { "" } else { "s" },
            self.suppressed.len(),
            self.files_scanned,
            if self.files_scanned == 1 { "" } else { "s" },
        );
        out
    }

    /// JSON rendering (hand-rolled; the workspace has no serde).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"snippet\": {}, \"rationale\": {}",
                json_str(&d.rule),
                json_str(&d.file),
                d.line,
                json_str(&d.snippet),
                json_str(&d.rationale),
            );
            if !d.chain.is_empty() {
                out.push_str(", \"chain\": [");
                for (j, hop) in d.chain.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&json_str(hop));
                }
                out.push(']');
            }
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"unresolved\": [");
        for (i, u) in self.unresolved.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"from\": {}, \"name\": {}, \"file\": {}, \"line\": {}, \"why\": {}}}",
                json_str(&u.from),
                json_str(&u.name),
                json_str(&u.file),
                u.line,
                json_str(&u.why),
            );
        }
        if !self.unresolved.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                json_str(&s.rule),
                json_str(&s.file),
                s.line,
                json_str(&s.reason),
            );
        }
        if !self.suppressed.is_empty() {
            out.push_str("\n  ");
        }
        let g = &self.graph;
        let _ = write!(
            out,
            "],\n  \"call_graph\": {{\"functions\": {}, \"edges\": {}, \"unresolved\": {}}}",
            g.functions, g.edges, g.unresolved
        );
        let _ = write!(
            out,
            ",\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.is_clean()
        );
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            diagnostics: vec![Diagnostic {
                rule: "D1".into(),
                file: "crates/x/src/a.rs".into(),
                line: 3,
                snippet: "let t = Instant::now();".into(),
                rationale: "wall-clock read in a deterministic crate".into(),
                chain: Vec::new(),
            }],
            suppressed: vec![Suppression {
                rule: "R1".into(),
                file: "crates/y/src/b.rs".into(),
                line: 9,
                reason: "invariant: fresh encode always decodes".into(),
            }],
            unresolved: Vec::new(),
            graph: GraphSummary::default(),
            files_scanned: 2,
        };
        r.sort();
        r
    }

    #[test]
    fn human_output_mentions_everything() {
        let text = sample().render_human();
        assert!(text.contains("D1 crates/x/src/a.rs:3"), "{text}");
        assert!(text.contains("Instant::now"), "{text}");
        assert!(text.contains("suppressed:"), "{text}");
        assert!(text.contains("R1 crates/y/src/b.rs:9"), "{text}");
        assert!(
            text.contains("1 diagnostic (1 suppressed) across 2 files"),
            "{text}"
        );
    }

    #[test]
    fn json_escapes_and_structure() {
        let mut r = sample();
        r.diagnostics[0].snippet = "say \"hi\"\\path".into();
        let json = r.render_json();
        assert!(json.contains(r#""say \"hi\"\\path""#), "{json}");
        assert!(json.contains("\"files_scanned\": 2"), "{json}");
        assert!(json.contains("\"clean\": false"), "{json}");
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::default();
        assert!(r.is_clean());
        assert!(r.render_json().contains("\"clean\": true"));
        // An empty graph still renders its (zero) summary.
        assert!(r
            .render_json()
            .contains(r#""call_graph": {"functions": 0, "edges": 0, "unresolved": 0}"#));
        assert!(r
            .render_human()
            .contains("call graph: 0 functions, 0 edges, 0 unresolved calls"));
    }

    #[test]
    fn chains_unresolved_and_graph_render_in_both_formats() {
        let mut r = sample();
        r.diagnostics[0].rule = "R1".into();
        r.diagnostics[0].chain = vec![
            "geo_serve::server::worker_loop".into(),
            "geo_serve::store::Store::get".into(),
        ];
        r.unresolved.push(UnresolvedCall {
            from: "geo_serve::server::sweep_conn".into(),
            name: ".lookup()".into(),
            file: "crates/geo-serve/src/server.rs".into(),
            line: 41,
            why: "ambiguous method: 2 candidates in the workspace".into(),
        });
        r.graph = GraphSummary {
            functions: 10,
            edges: 7,
            unresolved: 3,
        };
        r.sort();

        let text = r.render_human();
        assert!(
            text.contains("via geo_serve::server::worker_loop → geo_serve::store::Store::get"),
            "{text}"
        );
        assert!(
            text.contains("unresolved calls (reachable from rule roots):"),
            "{text}"
        );
        assert!(
            text.contains("`.lookup()` in `geo_serve::server::sweep_conn`"),
            "{text}"
        );
        assert!(
            text.contains("call graph: 10 functions, 7 edges, 3 unresolved calls"),
            "{text}"
        );

        let json = r.render_json();
        assert!(
            json.contains(
                r#""chain": ["geo_serve::server::worker_loop", "geo_serve::store::Store::get"]"#
            ),
            "{json}"
        );
        assert!(
            json.contains(r#""why": "ambiguous method: 2 candidates in the workspace""#),
            "{json}"
        );
        assert!(
            json.contains(r#""call_graph": {"functions": 10, "edges": 7, "unresolved": 3}"#),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
