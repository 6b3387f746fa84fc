//! The outside-in span recorder of the traced pass.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public functions: name, start, end, parent, thread and run id. Spans stay
//! in memory until the run ends; then they are written out as JSON lines and
//! reduced to each layer's self time.
//!
//! Self time is wall time. The interval between two consecutive span
//! boundaries is shared equally among the spans that are active and have no
//! active child (the leaves, one per busy thread), so the self times of one
//! root's spans add up to exactly the root's duration even when child spans
//! run on several worker threads at once. What a root keeps for itself is
//! the time no layer span covers: the `trace.residual`.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; `SpanId::ROOT` is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The parent of a root span.
    pub const ROOT: SpanId = SpanId(0);
}

#[derive(Debug, Clone)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans for one traced run.
#[derive(Debug)]
pub struct Tracer {
    run: u64,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// A small per-thread number, so spans of one thread can be told apart.
fn thread_key() -> u64 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static KEY: u64 = u64::from(NEXT.fetch_add(1, Ordering::Relaxed));
    }
    KEY.with(|k| *k)
}

impl Tracer {
    /// A recorder whose spans carry `run` as their run id.
    pub fn new(run: u64) -> Tracer {
        Tracer {
            run,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so calls it makes can be recorded as its children.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(SpanId(id));
        let end_ns = self.now_ns();
        self.push(id, parent, name, start_ns, end_ns);
        out
    }

    fn push(&self, id: u32, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) {
        let span = Span {
            id,
            parent: parent.0,
            name,
            thread: thread_key(),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer lock poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                self.run, s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Self time per span name, in seconds, for the spans under `root`
    /// (the root included, under its own name). The values add up to the
    /// root's duration.
    pub fn self_times(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let by_id: BTreeMap<u32, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        // Keep the spans that descend from `root`.
        let under_root = |mut i: usize| loop {
            if spans[i].id == root.0 {
                return true;
            }
            match by_id.get(&spans[i].parent) {
                Some(&p) => i = p,
                None => return false,
            }
        };
        let members: Vec<usize> = (0..spans.len()).filter(|&i| under_root(i)).collect();
        // Boundary events: (time, is_start, span index). Ends sort before
        // starts at the same instant, so zero-length gaps stay empty.
        let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(members.len() * 2);
        for &i in &members {
            events.push((spans[i].start_ns, true, i));
            events.push((spans[i].end_ns, false, i));
        }
        events.sort_unstable_by_key(|&(t, start, i)| (t, start, i));
        let mut active: Vec<usize> = Vec::new();
        let mut open_children: BTreeMap<u32, usize> = BTreeMap::new();
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut last = events.first().map_or(0, |e| e.0);
        for (t, is_start, i) in events {
            if t > last && !active.is_empty() {
                let leaves: Vec<usize> = active
                    .iter()
                    .copied()
                    .filter(|&a| open_children.get(&spans[a].id).copied().unwrap_or(0) == 0)
                    .collect();
                let share = (t - last) as f64 / leaves.len().max(1) as f64;
                for a in leaves {
                    *totals.entry(spans[a].name).or_default() += share * 1e-9;
                }
            }
            last = t;
            let parent = spans[i].parent;
            if is_start {
                active.push(i);
                *open_children.entry(parent).or_default() += 1;
            } else {
                active.retain(|&a| a != i);
                if let Some(n) = open_children.get_mut(&parent) {
                    *n -= 1;
                }
            }
        }
        totals
    }

    /// Duration of a recorded span, in seconds.
    pub fn duration_s(&self, id: SpanId) -> f64 {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        spans
            .iter()
            .find(|s| s.id == id.0)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let tr = Tracer::new(1);
        let root = tr.span("root", SpanId::ROOT, |root| {
            tr.span("a", root, |a| {
                tr.span("b", a, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(3))
                });
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        tr.span("c", root, |_| {
                            std::thread::sleep(std::time::Duration::from_millis(4))
                        })
                    });
                }
            });
            root
        });
        let times = tr.self_times(root);
        let sum: f64 = times.values().sum();
        assert!((sum - tr.duration_s(root)).abs() < 1e-6, "{times:?}");
        assert!(times["b"] >= 0.003 && times["a"] >= 0.002, "{times:?}");
        // Two parallel 4 ms spans share one wall interval.
        assert!(times["c"] >= 0.004 && times["c"] < 0.008, "{times:?}");
    }
}
