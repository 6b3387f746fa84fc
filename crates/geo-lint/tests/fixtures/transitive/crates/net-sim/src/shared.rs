//! Fixture helpers a serving path can reach: an unchecked index and a
//! thread spawn, outside R1's and R4's direct scope (geo-serve), so only
//! their reachable parts see them. R5 never runs here: its allow is stale.
// geo-lint: allow(R5, reason = "R5 is scoped to geo-serve, so this can never suppress anything")
pub fn risky_get(items: &[u32], i: usize) -> u32 {
    items[i]
}

pub fn refresh() {
    std::thread::spawn(|| {});
}
