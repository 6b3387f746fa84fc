//! Fixture deterministic root: its own body is clock-free, but it calls
//! into geo-serve code that reads the wall clock — a D1 violation.

pub fn step(tick: u64) -> u64 {
    let s = geo_serve::util::stamp();
    tick + s
}
