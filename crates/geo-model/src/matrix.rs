//! Flat structure-of-arrays measurement matrices.
//!
//! Campaigns produce millions of min-RTT cells; experiments then read them
//! row by row. [`Matrix`] stores one flat row-major arena (no
//! `Vec<Vec<…>>` indirection, no per-row allocations) and is built in
//! parallel directly into that arena via
//! [`crate::runtime::par_fill_rows_ordered`], so construction stays
//! bit-identical at any `IPGEO_THREADS`. Its [`Cell`] type picks the
//! format:
//!
//! - [`DelayMatrix`] holds `f64` cells, the staging format: campaign
//!   outputs at full measurement precision, consumed by the §4.3
//!   sanitizers whose physics comparisons must see the exact measured
//!   bits.
//! - [`RttMatrix`] holds `f32` cells, the dense format the experiments
//!   iterate over (half the memory; the paper's error metrics are
//!   kilometers, far above `f32` RTT resolution).
//!
//! In both, `NaN` encodes "no measurement" (timeout or diagonal): real
//! RTTs are finite and positive, so the encoding is unambiguous.

use crate::runtime::{par_fill_rows, par_fill_rows_ordered, par_fill_rows_with};
use crate::units::Ms;

/// One matrix cell: a min-RTT in ms, `NaN` = no measurement.
pub trait Cell: Copy + Send + Sync {
    /// The "no measurement" cell.
    const NAN: Self;
    /// Encodes one measurement (`None` = timeout).
    fn of(v: Option<Ms>) -> Self;
    /// Decodes a cell, `None` for `NaN`.
    fn ms(self) -> Option<Ms>;
}

impl Cell for f64 {
    const NAN: f64 = f64::NAN;

    #[inline]
    fn of(v: Option<Ms>) -> f64 {
        v.map_or(f64::NAN, |m| m.value())
    }

    #[inline]
    fn ms(self) -> Option<Ms> {
        (!self.is_nan()).then_some(Ms(self))
    }
}

impl Cell for f32 {
    const NAN: f32 = f32::NAN;

    #[inline]
    fn of(v: Option<Ms>) -> f32 {
        v.map_or(f32::NAN, |m| m.value() as f32)
    }

    #[inline]
    fn ms(self) -> Option<Ms> {
        (!self.is_nan()).then_some(Ms(self as f64))
    }
}

/// A dense `f64` measurement matrix: the exact measured bits.
pub type DelayMatrix = Matrix<f64>;

/// A dense `f32` min-RTT matrix: the format experiments iterate over.
pub type RttMatrix = Matrix<f32>;

/// A dense row-major matrix of min-RTT cells (ms; NaN = timeout/no
/// measurement).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Cell> Matrix<T> {
    /// An all-NaN (unmeasured) matrix.
    pub fn new(rows: usize, cols: usize) -> Matrix<T> {
        Matrix {
            rows,
            cols,
            data: vec![T::NAN; rows * cols],
        }
    }

    /// Builds the matrix in parallel: `fill(r, row)` writes row `r`
    /// directly into the arena (cells start NaN).
    pub fn par_build<F>(rows: usize, cols: usize, fill: F) -> Matrix<T>
    where
        F: Fn(usize, &mut [T]) + Sync,
    {
        Matrix {
            rows,
            cols,
            data: par_fill_rows(rows, cols, T::NAN, fill),
        }
    }

    /// [`Matrix::par_build`] with per-worker scratch state (see
    /// [`crate::runtime::par_fill_rows_with`]): `mk()` is called once per
    /// worker, `fill(state, r, row)` per row of that worker's chunk.
    pub fn par_build_with<S, M, F>(rows: usize, cols: usize, mk: M, fill: F) -> Matrix<T>
    where
        M: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &mut [T]) + Sync,
    {
        Matrix {
            rows,
            cols,
            data: par_fill_rows_with(rows, cols, T::NAN, mk, fill),
        }
    }

    /// [`Matrix::par_build_with`] visiting the rows in `order` (see
    /// [`crate::runtime::par_fill_rows_ordered`]); each row is written in
    /// place, so the result is in row order whatever `order` is.
    pub fn par_build_ordered<S, M, F>(
        rows: usize,
        cols: usize,
        order: &[usize],
        mk: M,
        fill: F,
    ) -> Matrix<T>
    where
        M: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &mut [T]) + Sync,
    {
        Matrix {
            rows,
            cols,
            data: par_fill_rows_ordered(rows, cols, T::NAN, order, mk, fill),
        }
    }

    /// Encodes one measurement as a cell (`NaN` = timeout).
    #[inline]
    pub fn cell(v: Option<Ms>) -> T {
        T::of(v)
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Option<Ms>) {
        self.data[r * self.cols + c] = T::of(v);
    }

    /// The measured min-RTT, `None` on timeout.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<Ms> {
        self.data[r * self.cols + c].ms()
    }

    /// One row of raw cells (`NaN` = timeout): the hot-loop access path —
    /// a single bounds computation per row instead of one per cell.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
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
