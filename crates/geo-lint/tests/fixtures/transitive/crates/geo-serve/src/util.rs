//! Fixture clock sink: outside D1's direct scope (deterministic crates),
//! caught only by D1's reachable part, because a deterministic crate
//! calls it. No allow: one above `stamp` would cover the whole fn and
//! hide that finding.

pub fn stamp() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_millis() as u64
}
