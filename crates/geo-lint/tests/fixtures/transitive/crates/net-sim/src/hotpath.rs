//! Fixture hot path: the marked function is clean in its own body, but
//! the helper it calls allocates — visible only to P1's reachable part.

// geo-lint: hot-path
pub fn hot(n: usize) -> usize {
    build_table(n).len()
}

fn build_table(n: usize) -> Vec<u32> {
    vec![0; n]
}
