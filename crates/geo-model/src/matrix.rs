//! Flat structure-of-arrays measurement matrices.
//!
//! Campaigns produce millions of min-RTT cells; experiments then read them
//! row by row. Both types here store one flat row-major arena (no
//! `Vec<Vec<…>>` indirection, no per-row allocations) and are built in
//! parallel directly into that arena via
//! [`crate::runtime::par_fill_rows`], so construction stays bit-identical
//! at any `IPGEO_THREADS`.
//!
//! - [`DelayMatrix`] is the `f64` staging format: campaign outputs at full
//!   measurement precision, consumed by the §4.3 sanitizers whose
//!   physics comparisons must see the exact measured bits.
//! - [`RttMatrix`] is the `f32` dense format the experiments iterate over
//!   (half the memory; the paper's error metrics are kilometers, far above
//!   `f32` RTT resolution).
//!
//! In both, `NaN` encodes "no measurement" (timeout or diagonal): real
//! RTTs are finite and positive, so the encoding is unambiguous.

use crate::runtime::{par_fill_rows, par_fill_rows_with};
use crate::units::Ms;

/// A dense `f64` measurement matrix (ms; NaN = timeout/no measurement).
#[derive(Debug, Clone, PartialEq)]
pub struct DelayMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DelayMatrix {
    /// An all-NaN (unmeasured) matrix.
    pub fn new(rows: usize, cols: usize) -> DelayMatrix {
        DelayMatrix {
            rows,
            cols,
            data: vec![f64::NAN; rows * cols],
        }
    }

    /// Builds the matrix in parallel: `fill(r, row)` writes row `r`
    /// directly into the arena (cells start NaN).
    pub fn par_build<F>(rows: usize, cols: usize, fill: F) -> DelayMatrix
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        DelayMatrix {
            rows,
            cols,
            data: par_fill_rows(rows, cols, f64::NAN, fill),
        }
    }

    /// [`DelayMatrix::par_build`] with per-worker scratch state (see
    /// [`crate::runtime::par_fill_rows_with`]): `mk()` is called once per
    /// worker, `fill(state, r, row)` per row of that worker's chunk.
    pub fn par_build_with<S, M, F>(rows: usize, cols: usize, mk: M, fill: F) -> DelayMatrix
    where
        M: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &mut [f64]) + Sync,
    {
        DelayMatrix {
            rows,
            cols,
            data: par_fill_rows_with(rows, cols, f64::NAN, mk, fill),
        }
    }

    /// Encodes one measurement as a cell (`NaN` = timeout).
    #[inline]
    pub fn cell(v: Option<Ms>) -> f64 {
        v.map_or(f64::NAN, |m| m.value())
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Option<Ms>) {
        self.data[r * self.cols + c] = DelayMatrix::cell(v);
    }

    /// The measured min-RTT, `None` on timeout.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<Ms> {
        let v = self.data[r * self.cols + c];
        if v.is_nan() {
            None
        } else {
            Some(Ms(v))
        }
    }

    /// One row of raw cells (`NaN` = timeout): a single bounds computation
    /// per row instead of one per cell.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// A dense `f32` min-RTT matrix (ms; NaN = timeout).
#[derive(Debug, Clone, PartialEq)]
pub struct RttMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl RttMatrix {
    /// An all-NaN (unmeasured) matrix.
    pub fn new(rows: usize, cols: usize) -> RttMatrix {
        RttMatrix {
            rows,
            cols,
            data: vec![f32::NAN; rows * cols],
        }
    }

    /// Builds the matrix in parallel: `fill(r, row)` writes row `r`
    /// directly into the arena (cells start NaN).
    pub fn par_build<F>(rows: usize, cols: usize, fill: F) -> RttMatrix
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        RttMatrix {
            rows,
            cols,
            data: par_fill_rows(rows, cols, f32::NAN, fill),
        }
    }

    /// [`RttMatrix::par_build`] with per-worker scratch state, as
    /// [`DelayMatrix::par_build_with`].
    pub fn par_build_with<S, M, F>(rows: usize, cols: usize, mk: M, fill: F) -> RttMatrix
    where
        M: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &mut [f32]) + Sync,
    {
        RttMatrix {
            rows,
            cols,
            data: par_fill_rows_with(rows, cols, f32::NAN, mk, fill),
        }
    }

    /// Encodes one measurement as a cell (`NaN` = timeout).
    #[inline]
    pub fn cell(v: Option<Ms>) -> f32 {
        v.map_or(f32::NAN, |m| m.value() as f32)
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Option<Ms>) {
        self.data[r * self.cols + c] = RttMatrix::cell(v);
    }

    /// The measured min-RTT, `None` on timeout.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<Ms> {
        let v = self.data[r * self.cols + c];
        if v.is_nan() {
            None
        } else {
            Some(Ms(v as f64))
        }
    }

    /// One row of raw cells (`NaN` = timeout): the hot-loop access path —
    /// a single bounds computation per row instead of one per cell.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Number of rows (vantage points).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (targets).
    pub fn cols(&self) -> usize {
        self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_matrix_round_trips_and_stages_exact_bits() {
        let mut m = DelayMatrix::new(2, 3);
        assert_eq!(m.get(1, 2), None);
        let v = 12.345678901234567;
        m.set(0, 1, Some(Ms(v)));
        m.set(1, 0, None);
        assert_eq!(m.get(0, 1).unwrap().value().to_bits(), v.to_bits());
        assert_eq!(m.get(1, 0), None);
        assert!(m.row(0)[0].is_nan());
        assert_eq!(m.row(0)[1].to_bits(), v.to_bits());
    }

    #[test]
    fn rtt_matrix_round_trips_through_f32() {
        let mut m = RttMatrix::new(2, 2);
        m.set(0, 0, Some(Ms(88.25)));
        assert_eq!(m.get(0, 0), Some(Ms(88.25)));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn par_build_fills_rows_in_place() {
        let m = RttMatrix::par_build(8, 4, |r, row| {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = (r * 4 + c) as f32;
            }
        });
        for r in 0..8 {
            assert_eq!(m.row(r)[3], (r * 4 + 3) as f32);
        }
        let d = DelayMatrix::par_build(3, 2, |r, row| row.fill(r as f64));
        assert_eq!(d.row(2), &[2.0, 2.0]);
    }
}
