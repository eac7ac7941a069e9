//! Dense square matrices of pairwise distances / path lengths.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{Metric, Point};

/// A dense square matrix of `f64` values indexed by node pairs.
///
/// This is the paper's geometric distance matrix `D[V][V]`, computed from
/// coordinates. Only the exact solvers (Gabow, BKEX, BKH2) and test
/// references materialize it; the paper's in-tree path matrix `P[V][V]` is
/// not kept at all (see `bmst_core::forest`).
///
/// Storage is a flat row-major `Vec<f64>`; indexing is `matrix[(i, j)]`.
///
/// # Examples
///
/// ```
/// use bmst_geom::{DistanceMatrix, Metric, Point};
///
/// let pts = [Point::new(0.0, 0.0), Point::new(1.0, 2.0)];
/// let d = DistanceMatrix::from_points(&pts, Metric::L1);
/// assert_eq!(d[(0, 1)], 3.0);
/// assert_eq!(d[(1, 0)], 3.0);
/// assert_eq!(d[(0, 0)], 0.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Creates an `n x n` matrix filled with zeros.
    pub fn zeros(n: usize) -> Self {
        DistanceMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Computes the full pairwise distance matrix of `points` under `metric`.
    ///
    /// This is the paper's `D[V][V]` matrix, "computed from the coordinates
    /// of nodes".
    pub fn from_points(points: &[Point], metric: Metric) -> Self {
        let n = points.len();
        let mut m = DistanceMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = metric.dist(points[i], points[j]);
                m[(i, j)] = d;
                m[(j, i)] = d;
            }
        }
        m
    }

    /// Number of rows (= columns).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when the matrix is `0 x 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Row `i` as a slice (entries `(i, 0..n)`).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }
}

impl Index<(usize, usize)> for DistanceMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl IndexMut<(usize, usize)> for DistanceMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

impl fmt::Debug for DistanceMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DistanceMatrix({}x{})", self.n, self.n)?;
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{:8.3} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    fn square_corners() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ]
    }

    #[test]
    fn zeros_matrix_is_all_zero() {
        let m = DistanceMatrix::zeros(3);
        assert_eq!(m.len(), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn from_points_is_symmetric_with_zero_diagonal() {
        let m = DistanceMatrix::from_points(&square_corners(), Metric::L1);
        for i in 0..4 {
            assert_eq!(m[(i, i)], 0.0);
            for j in 0..4 {
                assert_eq!(m[(i, j)], m[(j, i)]);
            }
        }
        assert_eq!(m[(0, 2)], 2.0); // opposite corners, Manhattan
        assert_eq!(m[(0, 1)], 1.0);
    }

    #[test]
    fn euclidean_matrix_diagonal_pair() {
        let m = DistanceMatrix::from_points(&square_corners(), Metric::L2);
        assert!((m[(0, 2)] - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix() {
        let m = DistanceMatrix::zeros(0);
        assert!(m.is_empty());
    }

    #[test]
    fn debug_render_contains_dimensions() {
        let m = DistanceMatrix::zeros(2);
        assert!(format!("{m:?}").contains("2x2"));
    }
}
