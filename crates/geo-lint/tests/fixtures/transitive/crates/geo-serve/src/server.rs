//! Fixture serving path: the serve-entry root from which R1 and R4 walk.

use net_sim::shared::risky_get;

// geo-lint: serve-entry
fn worker_loop(state: &State) {
    let v = risky_get(&state.items, state.cursor);
    let w = pick(&state.items, state.cursor);
    net_sim::shared::refresh();
    mystery::frobnicate(v + w);
}

// geo-lint: allow(R1, reason = "index bounded by the caller contract (cursor < items.len() holds at every call site)")
fn pick(xs: &[u32], i: usize) -> u32 {
    xs[i]
}
