//! Deterministic data-parallel execution for the bulk measurement
//! campaigns.
//!
//! Every simulated measurement in this workspace is a pure function of
//! `(seed, src, dst, nonce)` (see `net-sim`), so a campaign loop over an
//! index range can be chunked across threads freely: each output slot is
//! written exactly once with a value that does not depend on scheduling,
//! which makes the parallel result **bit-identical** to the serial one
//! regardless of worker count. [`par_map_indexed`] packages that argument:
//! results land in pre-allocated slots (one disjoint chunk per worker via
//! `chunks_mut`), so no ordering, merging, or locking can perturb the
//! output. [`par_for_each_mut`] is the same argument over an existing
//! slice, each item updated in place.
//!
//! Worker count comes from the `IPGEO_THREADS` environment variable:
//! `IPGEO_THREADS=1` restores the fully serial behaviour, unset or `0`
//! means "use the machine" (`std::thread::available_parallelism`). The
//! variable is read per call, so tests can flip it between dataset builds.

/// The worker count in effect: `IPGEO_THREADS`, defaulting to the
/// machine's available parallelism (`1` if that cannot be determined).
pub fn threads() -> usize {
    match std::env::var("IPGEO_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) | Err(_) => default_threads(),
            Ok(n) => n,
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `0..n` into a `Vec`, in parallel across [`threads`]
/// workers, with output bit-identical to `(0..n).map(f).collect()`. The
/// workers fill one `Option<T>` slot per index through
/// [`par_for_each_mut`]; at one worker the map runs inline, with no slot
/// vector.
///
/// `f` must be a pure function of the index for the determinism guarantee
/// to hold; all campaign closures in this workspace are (they only read
/// the world and derive per-measurement keys from the index).
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n <= 1 || threads() <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    par_for_each_mut(&mut slots, |i, slot| *slot = Some(f(i)));
    slots
        .into_iter()
        .map(|s| s.expect("every slot is covered by exactly one worker chunk"))
        .collect()
}

/// Calls `f(i, &mut items[i])` for every item, in place, in parallel
/// across [`threads`] workers that each take one contiguous chunk. The
/// in-place twin of [`par_map_indexed`]: nothing is allocated and nothing
/// is moved, so a pass that fills one field of a large `Vec` of records
/// (web synthesis' entity zips) costs no second copy of the `Vec`.
///
/// Under the purity contract of [`par_map_indexed`] — `f` writes a value
/// that depends only on `i` and on what `items[i]` held before — the
/// result is bit-identical to the serial loop at any worker count.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let workers = threads().min(n.max(1));
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for (w, slice) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let base = w * chunk;
                for (off, item) in slice.iter_mut().enumerate() {
                    f(base + off, item);
                }
            });
        }
    });
}

/// Fills a `rows * cols` row-major arena in parallel: `f(r, row)` writes
/// row `r` into its pre-allocated slot. Unlike [`par_map_indexed`] over
/// per-row `Vec`s, the output lands directly in the final flat allocation —
/// one arena, no per-row allocations, no assembly copy — which is what the
/// campaign matrices (`geo_model::matrix`) are built from.
///
/// Every element starts as `init` (rows `f` leaves untouched stay `init`),
/// and the same purity contract as [`par_map_indexed`] makes the result
/// bit-identical at any worker count.
pub fn par_fill_rows<E, F>(rows: usize, cols: usize, init: E, f: F) -> Vec<E>
where
    E: Clone + Send,
    F: Fn(usize, &mut [E]) + Sync,
{
    par_fill_rows_with(rows, cols, init, || (), |_, r, row| f(r, row))
}

/// [`par_fill_rows`] with per-worker scratch state: each worker calls
/// `mk()` once and threads the value through `f` for every row of its
/// contiguous chunk. Serial execution uses a single state for all rows.
///
/// `f` must still be a pure function of the row index *as far as the
/// output is concerned* — the scratch may only carry memoized values that
/// are themselves index-determined (e.g. route sequences), so the result
/// stays bit-identical at any worker count.
pub fn par_fill_rows_with<E, S, M, F>(rows: usize, cols: usize, init: E, mk: M, f: F) -> Vec<E>
where
    E: Clone + Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [E]) + Sync,
{
    par_fill_rows_ordered(rows, cols, init, &(0..rows).collect::<Vec<_>>(), mk, f)
}

/// [`par_fill_rows_with`] visiting the rows in `order`: the workers split
/// `order` into contiguous chunks and each writes `f(state, r, row)` in
/// place into row `r` of the arena. An order that keeps rows sharing
/// scratch contents next to each other (campaign sources sorted by
/// attachment PoP) lets one worker's state serve them back to back,
/// without filling a permuted arena and copying it into row order.
///
/// `order` names each row at most once (a repeat panics); rows it omits
/// stay `init`. The purity contract of [`par_fill_rows_with`] makes the
/// result independent of both the order and the worker count.
pub fn par_fill_rows_ordered<E, S, M, F>(
    rows: usize,
    cols: usize,
    init: E,
    order: &[usize],
    mk: M,
    f: F,
) -> Vec<E>
where
    E: Clone + Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [E]) + Sync,
{
    let mut data = vec![init; rows * cols];
    if cols == 0 {
        return data;
    }
    let mut slots: Vec<Option<&mut [E]>> = data.chunks_mut(cols).map(Some).collect();
    let mut seq: Vec<(usize, &mut [E])> = order
        .iter()
        .map(|&r| (r, slots[r].take().expect("order names a row twice")))
        .collect();
    let workers = threads().min(seq.len());
    if workers <= 1 {
        let mut state = mk();
        for (r, row) in seq {
            f(&mut state, r, row);
        }
        return data;
    }
    let per = seq.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for block in seq.chunks_mut(per) {
            let (f, mk) = (&f, &mk);
            scope.spawn(move || {
                let mut state = mk();
                for (r, row) in block {
                    f(&mut state, *r, row);
                }
            });
        }
    });
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_serial_map() {
        let serial: Vec<u64> = (0..1000).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        let parallel = par_map_indexed(1000, |i| (i as u64).wrapping_mul(0x9E37));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn covers_every_index_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = par_map_indexed(537, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 537);
        assert_eq!(out, (0..537).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_ranges() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i * 2), vec![0]);
    }

    #[test]
    fn smaller_n_than_workers() {
        // Chunks never exceed n; no worker sees an out-of-range index.
        let out = par_map_indexed(3, |i| i + 10);
        assert_eq!(out, vec![10, 11, 12]);
    }

    #[test]
    fn non_send_free_closure_state_is_shared() {
        // The closure only needs Sync; captured reads are shared, not
        // cloned per worker.
        let data: Vec<usize> = (0..100).rev().collect();
        let out = par_map_indexed(100, |i| data[i]);
        assert_eq!(out, data);
    }

    #[test]
    fn for_each_mut_matches_serial_loop() {
        let mut serial: Vec<u64> = (0..1000).map(|i| i as u64 * 3).collect();
        for (i, x) in serial.iter_mut().enumerate() {
            *x = x.wrapping_mul(0x9E37) ^ i as u64;
        }
        let mut parallel: Vec<u64> = (0..1000).map(|i| i as u64 * 3).collect();
        par_for_each_mut(&mut parallel, |i, x| *x = x.wrapping_mul(0x9E37) ^ i as u64);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn for_each_mut_covers_every_index_exactly_once() {
        let count = AtomicUsize::new(0);
        let mut seen = vec![usize::MAX; 537];
        par_for_each_mut(&mut seen, |i, slot| {
            count.fetch_add(1, Ordering::Relaxed);
            assert_eq!(*slot, usize::MAX, "index {i} visited twice");
            *slot = i;
        });
        assert_eq!(count.load(Ordering::Relaxed), 537);
        assert_eq!(seen, (0..537).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_mut_empty_and_single_ranges() {
        let mut empty: Vec<usize> = Vec::new();
        par_for_each_mut(&mut empty, |_, _| panic!("no item to visit"));
        assert!(empty.is_empty());
        let mut one = vec![5usize];
        par_for_each_mut(&mut one, |i, x| *x = *x * 2 + i);
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn for_each_mut_fewer_items_than_workers() {
        // Chunks never exceed the slice; no worker sees an out-of-range
        // index.
        let mut items = vec![0usize; 3];
        par_for_each_mut(&mut items, |i, x| *x = i + 10);
        assert_eq!(items, vec![10, 11, 12]);
    }

    #[test]
    fn fill_rows_matches_serial_fill() {
        let serial = par_fill_rows(0, 0, 0u64, |_, _| {});
        assert!(serial.is_empty());
        let filled = par_fill_rows(53, 7, u64::MAX, |r, row| {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = (r as u64) << 32 | c as u64;
            }
        });
        assert_eq!(filled.len(), 53 * 7);
        for r in 0..53 {
            for c in 0..7 {
                assert_eq!(filled[r * 7 + c], (r as u64) << 32 | c as u64);
            }
        }
    }

    #[test]
    fn fill_rows_with_state_matches_stateless() {
        // The scratch here memoizes a pure function of the index, so the
        // output must be identical to the stateless fill at any width.
        let plain = par_fill_rows(37, 5, 0u64, |r, row| {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = (r * 5 + c) as u64;
            }
        });
        let with = par_fill_rows_with(
            37,
            5,
            0u64,
            || 0usize,
            |calls, r, row| {
                *calls += 1;
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = (r * 5 + c) as u64;
                }
            },
        );
        assert_eq!(plain, with);
    }

    #[test]
    fn fill_rows_ordered_matches_identity_order() {
        // Cells depend on the row index only, so every order must give the
        // identity order's arena, scratch state and all.
        let fill = |calls: &mut u64, r: usize, row: &mut [u64]| {
            *calls += 1;
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = (r as u64) << 32 | c as u64;
            }
        };
        let (rows, cols) = (41, 6);
        let identity = par_fill_rows_with(rows, cols, u64::MAX, || 0, fill);
        let reversed: Vec<usize> = (0..rows).rev().collect();
        let strided: Vec<usize> = (0..7).flat_map(|s| (s..rows).step_by(7)).collect();
        assert_eq!(strided.len(), rows);
        for order in [reversed, strided] {
            let got = par_fill_rows_ordered(rows, cols, u64::MAX, &order, || 0, fill);
            assert_eq!(got, identity);
        }
        let twice = std::panic::catch_unwind(|| {
            par_fill_rows_ordered(3, 2, 0u64, &[0, 2, 0], || (), |_, _, _| {})
        });
        assert!(twice.is_err(), "an order naming row 0 twice must panic");
    }

    #[test]
    fn fill_rows_untouched_rows_keep_init() {
        let data = par_fill_rows(10, 3, -1.0f64, |r, row| {
            if r % 2 == 0 {
                row.fill(r as f64);
            }
        });
        for r in 0..10 {
            let expect = if r % 2 == 0 { r as f64 } else { -1.0 };
            assert!(data[r * 3..(r + 1) * 3].iter().all(|&v| v == expect));
        }
    }
}
