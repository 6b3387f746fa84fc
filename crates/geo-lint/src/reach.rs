//! The graph rules: D1, R1, R4 and P1 over the parser's sinks, plus L1.
//!
//! Each of D1, R1, R4 and P1 has two parts, and every sink falls under at
//! most one of them:
//!
//! - the **direct** part flags a sink inside the rule's own scope. Its
//!   finding has no chain and is suppressed on its line only;
//! - the **reachable** part flags a sink outside that scope whose function
//!   a multi-source BFS reaches from the rule's roots. Parent pointers give
//!   the finding the *shortest* witness call chain from a root, and an
//!   allow above the sink's `fn` covers the whole function.
//!
//! All traversal orders are index-based over deterministically-ordered
//! nodes/edges, so reports are byte-stable.
//!
//! | rule | direct scope | roots | sinks |
//! |------|--------------|-------|-------|
//! | `D1` | `src/` of deterministic crates, fn bodies and items | every `src/` fn of clock-sensitive crates | wall clock / ambient entropy |
//! | `R1` | `src/` of server crates, fn bodies and macro templates | `// geo-lint: serve-entry` fns there | panic family; `expr[…]` (reachable only) |
//! | `R4` | same, minus `// geo-lint: worker-bootstrap` fns | same | spawn/blocking reads; lock-across-write (reachable only) |
//! | `P1` | `// geo-lint: hot-path` fns of hot-path crates | those fns | heap allocation |
//! | `L1` | — | — | lock-acquisition-order cycles |
//!
//! A sink outside every fn body (the parser's item-level sinks: clock
//! identifiers anywhere, and every sink of a `macro_rules!` template) has
//! no graph node, so only a direct part reports it.

use crate::callgraph::{self, FileInput, FnNode, Graph};
use crate::parser::{Sink, SinkKind};
use crate::rules::{
    in_src_of, CLOCK_ROOT_CRATES, DETERMINISTIC_CRATES, HOT_PATH_CRATES, SERVER_CRATES,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One graph-rule finding, pre-snippet (the merge pass fills snippets and
/// applies allows).
#[derive(Debug)]
pub(crate) struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub rationale: String,
    /// Witness call chain, root first, sink function last; empty for a
    /// direct finding.
    pub chain: Vec<String>,
    /// Allow-scope window `[item_line, sig_line]` of the sink's function:
    /// a standalone allow targeting a line inside it suppresses fn-wide.
    /// `None` for a direct finding, which only its line's allow covers.
    pub fn_window: Option<(usize, usize)>,
}

/// An unresolved call that is reachable from at least one rule root — the
/// honest "this analysis has a blind spot here" record.
#[derive(Debug)]
pub(crate) struct ReachableUnresolved {
    pub from_key: String,
    pub name: String,
    pub file: String,
    pub line: usize,
    pub why: String,
}

pub(crate) struct Outcome {
    pub findings: Vec<Finding>,
    pub unresolved: Vec<ReachableUnresolved>,
    pub functions: usize,
    pub edges: usize,
    pub unresolved_total: usize,
}

/// Runs every graph rule. `files` are the inputs `graph` was built from;
/// D1, R1 and R4 also read their item-level sinks.
pub(crate) fn analyze(graph: &Graph, files: &[FileInput<'_>]) -> Outcome {
    let has = |n: &FnNode, marker: &str| n.markers.iter().any(|m| m == marker);
    let serve = bfs(graph, |n| {
        has(n, "serve-entry") && in_src_of(&n.file, SERVER_CRATES)
    });
    let clock = bfs(graph, |n| in_src_of(&n.file, CLOCK_ROOT_CRATES));
    let hot = bfs(graph, |n| {
        has(n, "hot-path") && in_src_of(&n.file, HOT_PATH_CRATES)
    });

    let mut findings: Vec<Finding> = Vec::new();
    run_d1(graph, files, &clock, &mut findings);
    run_r1(graph, files, &serve, &mut findings);
    run_r4(graph, files, &serve, &mut findings);
    run_p1(graph, &hot, &mut findings);
    run_l1(graph, &mut findings);
    // Direct findings first: where one line has a direct and a reachable
    // finding of the same rule, the report's stable sort keeps them so.
    findings.sort_by_key(|f| f.fn_window.is_some());

    // Unresolved calls reachable from any root set are surfaced; the rest
    // only count toward the summary total.
    let mut unresolved: Vec<ReachableUnresolved> = Vec::new();
    for u in &graph.unresolved {
        let reachable = serve[u.from].is_some() || clock[u.from].is_some() || hot[u.from].is_some();
        if reachable {
            let n = &graph.nodes[u.from];
            unresolved.push(ReachableUnresolved {
                from_key: n.key.clone(),
                name: u.name.clone(),
                file: n.file.clone(),
                line: u.line,
                why: u.why.clone(),
            });
        }
    }

    Outcome {
        findings,
        unresolved,
        functions: graph.nodes.len(),
        edges: graph.edge_count,
        unresolved_total: graph.unresolved.len(),
    }
}

/// Multi-source BFS from every node `is_root` accepts. Returns per-node
/// `Some(parent)` when reachable (a root's parent is itself). Roots are
/// visited in index order and each adjacency list is pre-sorted, so
/// shortest chains are deterministic.
fn bfs(graph: &Graph, is_root: impl Fn(&FnNode) -> bool) -> Vec<Option<usize>> {
    let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for (r, n) in graph.nodes.iter().enumerate() {
        if is_root(n) {
            parent[r] = Some(r);
            queue.push_back(r);
        }
    }
    while let Some(n) = queue.pop_front() {
        for e in &graph.edges[n] {
            if parent[e.target].is_none() {
                parent[e.target] = Some(n);
                queue.push_back(e.target);
            }
        }
    }
    parent
}

/// Witness chain from a root to `node`, keys root-first.
fn chain(graph: &Graph, parents: &[Option<usize>], node: usize) -> Vec<String> {
    let mut rev = vec![node];
    let mut cur = node;
    while let Some(p) = parents[cur] {
        if p == cur {
            break;
        }
        rev.push(p);
        cur = p;
    }
    rev.reverse();
    rev.into_iter()
        .map(|i| callgraph::key_of(graph, i).to_string())
        .collect()
}

/// One rule's view of the graph: the BFS parents from its roots and the
/// place phrase its rationales use for each part.
struct Rule<'g> {
    id: &'static str,
    graph: &'g Graph,
    parents: &'g [Option<usize>],
    /// `[direct, reachable]`.
    places: [&'static str; 2],
}

impl Rule<'_> {
    /// Pushes the finding for a sink at `line` in `node`: a direct one when
    /// `direct`, else a reachable one if a root reaches `node`. `why` words
    /// the rationale around the part's place phrase.
    fn push(
        &self,
        node: usize,
        direct: bool,
        line: usize,
        why: impl FnOnce(&str) -> String,
        out: &mut Vec<Finding>,
    ) {
        if !direct && self.parents[node].is_none() {
            return;
        }
        let n = &self.graph.nodes[node];
        out.push(Finding {
            rule: self.id,
            file: n.file.clone(),
            line,
            rationale: why(self.places[usize::from(!direct)]),
            chain: if direct {
                Vec::new()
            } else {
                chain(self.graph, self.parents, node)
            },
            fn_window: (!direct).then_some((n.item_line, n.sig_line)),
        });
    }

    /// Pushes a direct finding for every item-level sink that `keep`
    /// accepts in the files under the `src/` of `crates`. No graph node
    /// owns one, so the finding has no chain.
    fn push_items(
        &self,
        files: &[FileInput<'_>],
        crates: &[&str],
        keep: impl Fn(&Sink) -> bool,
        why: impl Fn(&Sink, &str) -> String,
        out: &mut Vec<Finding>,
    ) {
        for f in files.iter().filter(|f| in_src_of(f.rel, crates)) {
            for s in f.parsed.item_sinks.iter().filter(|s| keep(s)) {
                out.push(Finding {
                    rule: self.id,
                    file: f.rel.to_string(),
                    line: s.line,
                    rationale: why(s, self.places[0]),
                    chain: Vec::new(),
                    fn_window: None,
                });
            }
        }
    }
}

/// D1: wall-clock/entropy in a deterministic crate's `src/`, in a fn body
/// or an item-level sink (direct), or reachable from a clock-sensitive
/// crate.
fn run_d1(
    graph: &Graph,
    files: &[FileInput<'_>],
    parents: &[Option<usize>],
    out: &mut Vec<Finding>,
) {
    let rule = Rule {
        id: "D1",
        graph,
        parents,
        places: [
            "in a deterministic crate",
            "and is reachable from a deterministic crate",
        ],
    };
    let why = |what: &str, place: &str| {
        format!(
            "{what} reads the wall clock or ambient entropy {place}; the campaign output \
             would stop being a pure function of the seed"
        )
    };
    let clock = |s: &Sink| s.kind == SinkKind::Clock;
    let item_why = |s: &Sink, place: &str| why(&s.what, place);
    rule.push_items(files, DETERMINISTIC_CRATES, clock, item_why, out);
    for (node, n) in graph.nodes.iter().enumerate() {
        let direct = in_src_of(&n.file, DETERMINISTIC_CRATES);
        for s in n.sinks.iter().filter(|s| s.kind == SinkKind::Clock) {
            rule.push(node, direct, s.line, |place| why(&s.what, place), out);
        }
    }
}

/// R1: the panic family in a server crate's `src/`, in a fn body or a
/// macro template (direct), or reachable from a serving entry point, and
/// `expr[…]` indexing reachable from one.
fn run_r1(
    graph: &Graph,
    files: &[FileInput<'_>],
    parents: &[Option<usize>],
    out: &mut Vec<Finding>,
) {
    let rule = Rule {
        id: "R1",
        graph,
        parents,
        places: [
            "in a serving path",
            "and is reachable from a serving entry point",
        ],
    };
    let panic = |s: &Sink| s.kind == SinkKind::Panic;
    let why = |s: &Sink, place: &str| {
        format!(
            "{} can panic {place}; a bad request must not be able to kill a worker",
            s.what
        )
    };
    rule.push_items(files, SERVER_CRATES, panic, why, out);
    for (node, n) in graph.nodes.iter().enumerate() {
        let direct = in_src_of(&n.file, SERVER_CRATES);
        for s in &n.sinks {
            let what = &s.what;
            match s.kind {
                SinkKind::Panic => rule.push(node, direct, s.line, |place| why(s, place), out),
                SinkKind::Index => {
                    let why = |place: &str| {
                        format!(
                            "{what} indexing panics out of bounds {place}; use a checked \
                             `.get(…)` and handle the miss"
                        )
                    };
                    rule.push(node, false, s.line, why, out);
                }
                _ => {}
            }
        }
    }
}

/// R4: spawns and blocking reads in a server crate's `src/`, in a fn body
/// other than the `// geo-lint: worker-bootstrap` fn or in a macro
/// template (direct), or reachable from a serving entry point, and a
/// `.lock()` held across a later `.write*()` in the same function,
/// reachable from one.
fn run_r4(
    graph: &Graph,
    files: &[FileInput<'_>],
    parents: &[Option<usize>],
    out: &mut Vec<Finding>,
) {
    let rule = Rule {
        id: "R4",
        graph,
        parents,
        places: [
            "in a serving path",
            "and is reachable from the event-loop worker",
        ],
    };
    let blocking = |s: &Sink| matches!(s.kind, SinkKind::Spawn | SinkKind::BlockingRead);
    let why = |s: &Sink, place: &str| {
        format!(
            "{} blocks or respawns threads {place}; the serving path must stay nonblocking",
            s.what
        )
    };
    rule.push_items(files, SERVER_CRATES, blocking, why, out);
    for (node, n) in graph.nodes.iter().enumerate() {
        let direct = in_src_of(&n.file, SERVER_CRATES);
        let bootstrap = n.markers.iter().any(|m| m == "worker-bootstrap");
        for s in &n.sinks {
            match s.kind {
                SinkKind::Spawn | SinkKind::BlockingRead if !(direct && bootstrap) => {
                    rule.push(node, direct, s.line, |place| why(s, place), out);
                }
                SinkKind::LockAcquire
                    if n.sinks
                        .iter()
                        .any(|w| w.kind == SinkKind::Write && w.order > s.order) =>
                {
                    let why = |_: &str| {
                        "`.lock()` is held across a later `.write*()` in the same function, \
                         stalling every contender on socket backpressure; drop the guard \
                         before writing"
                            .to_string()
                    };
                    rule.push(node, false, s.line, why, out);
                }
                _ => {}
            }
        }
    }
}

/// P1: heap allocation in a `// geo-lint: hot-path` fn (direct) or in a
/// function one calls.
fn run_p1(graph: &Graph, parents: &[Option<usize>], out: &mut Vec<Finding>) {
    let rule = Rule {
        id: "P1",
        graph,
        parents,
        places: [
            "inside a `// geo-lint: hot-path` function",
            "in a function called from a `// geo-lint: hot-path` function",
        ],
    };
    for (node, n) in graph.nodes.iter().enumerate() {
        // The roots are exactly the direct scope.
        let direct = parents[node] == Some(node);
        for s in n.sinks.iter().filter(|s| s.kind == SinkKind::Alloc) {
            let why = |place: &str| {
                format!(
                    "{} heap-allocates {place}; hoist the buffer or pass scratch in",
                    s.what
                )
            };
            rule.push(node, direct, s.line, why, out);
        }
    }
}

/// L1: lock-acquisition-order cycles. Edge `A → B` exists when some
/// function acquires class `A` and, later in the same body, acquires class
/// `B` directly or calls into code that does. A cycle means two threads
/// can deadlock by taking the classes in opposite orders.
fn run_l1(graph: &Graph, out: &mut Vec<Finding>) {
    let mut class_edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut witness: BTreeMap<(String, String), Witness> = BTreeMap::new();
    let mut closure_cache: HashMap<usize, BTreeSet<String>> = HashMap::new();

    for node in 0..graph.nodes.len() {
        let n = &graph.nodes[node];
        let locks: Vec<&crate::parser::Sink> = n
            .sinks
            .iter()
            .filter(|s| s.kind == SinkKind::LockAcquire)
            .collect();
        if locks.is_empty() {
            continue;
        }
        let from_class = callgraph::lock_class(n);
        let mut add_edge = |a: &str, b: &str, line: usize| {
            if a == b {
                return;
            }
            class_edges
                .entry(a.to_string())
                .or_default()
                .insert(b.to_string());
            let w = (n.file.clone(), line, n.key.clone(), n.item_line, n.sig_line);
            witness
                .entry((a.to_string(), b.to_string()))
                .and_modify(|old| {
                    if (&w.0, w.1) < (&old.0, old.1) {
                        *old = w.clone();
                    }
                })
                .or_insert(w);
        };
        for l in &locks {
            // Calls made after the acquisition: everything their closure
            // locks is taken while this class is held. (Two `.lock()`s in
            // the same body share the function's class, so only calls can
            // introduce a cross-class edge.)
            for e in &graph.edges[node] {
                if e.order <= l.order {
                    continue;
                }
                for c in callgraph::lock_closure(graph, e.target, &mut closure_cache) {
                    add_edge(&from_class, &c, e.line);
                }
            }
        }
    }

    // Cycle detection: DFS over sorted classes; report each cycle once at
    // its lexicographically-smallest class.
    let classes: Vec<String> = class_edges.keys().cloned().collect();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in &classes {
        let mut path: Vec<String> = Vec::new();
        dfs_cycles(start, &class_edges, &mut path, &mut reported, &witness, out);
    }
}

/// Per-edge witness: (file, line, via-fn-key, fn_item_line, fn_sig_line).
type Witness = (String, usize, String, usize, usize);

fn dfs_cycles(
    cur: &String,
    edges: &BTreeMap<String, BTreeSet<String>>,
    path: &mut Vec<String>,
    reported: &mut BTreeSet<Vec<String>>,
    witness: &BTreeMap<(String, String), Witness>,
    out: &mut Vec<Finding>,
) {
    if let Some(pos) = path.iter().position(|c| c == cur) {
        // Found a cycle: path[pos..] + cur.
        let cycle: Vec<String> = path[pos..].to_vec();
        let mut canon = cycle.clone();
        canon.sort();
        if !reported.insert(canon) {
            return;
        }
        // Anchor the diagnostic at the witness of the first edge.
        let first = (
            cycle[0].clone(),
            cycle.get(1).cloned().unwrap_or_else(|| cycle[0].clone()),
        );
        let Some((file, line, via, item_line, sig_line)) = witness.get(&first).cloned() else {
            return;
        };
        let mut chain: Vec<String> = Vec::new();
        let mut desc: Vec<String> = Vec::new();
        for (i, a) in cycle.iter().enumerate() {
            let b = cycle.get(i + 1).unwrap_or(&cycle[0]);
            if let Some((wf, wl, wvia, _, _)) = witness.get(&(a.clone(), b.clone())) {
                chain.push(format!("{a} → {b} (in `{wvia}` at {wf}:{wl})"));
                desc.push(format!("`{a}` then `{b}`"));
            }
        }
        out.push(Finding {
            rule: "L1",
            file,
            line,
            rationale: format!(
                "lock-order cycle: {} — two threads taking these classes in opposite \
                 orders can deadlock; pick one global acquisition order (witness: `{via}`)",
                desc.join(", then ")
            ),
            chain,
            fn_window: Some((item_line, sig_line)),
        });
        return;
    }
    if path.len() > 32 {
        return;
    }
    path.push(cur.clone());
    if let Some(nexts) = edges.get(cur) {
        for n in nexts {
            dfs_cycles(n, edges, path, reported, witness, out);
        }
    }
    path.pop();
}
