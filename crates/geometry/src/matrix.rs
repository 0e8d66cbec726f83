//! Exact rational matrices: row reduction, rank, null spaces, affine fits.

use crn_numeric::{NVec, QVec, Rational};

/// A dense matrix of exact rationals.
///
/// Used for three jobs in the characterization pipeline: computing the rank of
/// implicit-equality systems (recession-cone dimension), computing null-space
/// bases (the determined subspace `W = span(recc(U))`), and fitting affine
/// functions to the values of `f` on a region ∩ congruence class (Lemma 7.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QMatrix {
    rows: Vec<QVec>,
    cols: usize,
}

impl QMatrix {
    /// Creates a matrix from rows (all of the same dimension `cols`).
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent dimensions.
    #[must_use]
    pub fn from_rows(rows: Vec<QVec>, cols: usize) -> Self {
        assert!(rows.iter().all(|r| r.dim() == cols), "ragged rows");
        QMatrix { rows, cols }
    }

    /// The rows.
    #[must_use]
    pub fn rows(&self) -> &[QVec] {
        &self.rows
    }

    /// Returns the reduced row echelon form together with the pivot column of
    /// each nonzero row.
    #[must_use]
    pub fn reduced_row_echelon(&self) -> (QMatrix, Vec<usize>) {
        let mut rows: Vec<Vec<Rational>> =
            self.rows.iter().map(|r| r.as_slice().to_vec()).collect();
        let mut pivots = Vec::new();
        let mut pivot_row = 0usize;
        for col in 0..self.cols {
            if pivot_row >= rows.len() {
                break;
            }
            // Find a row with a nonzero entry in this column.
            let Some(found) = (pivot_row..rows.len()).find(|&r| !rows[r][col].is_zero()) else {
                continue;
            };
            rows.swap(pivot_row, found);
            // Normalize the pivot row.
            let pivot = rows[pivot_row][col];
            for entry in rows[pivot_row].iter_mut() {
                *entry /= pivot;
            }
            // Eliminate the column from every other row.
            let pivot_vals = rows[pivot_row].clone();
            for (r, row) in rows.iter_mut().enumerate() {
                if r != pivot_row && !row[col].is_zero() {
                    let factor = row[col];
                    for (entry, &p) in row.iter_mut().zip(&pivot_vals) {
                        *entry -= factor * p;
                    }
                }
            }
            pivots.push(col);
            pivot_row += 1;
        }
        (
            QMatrix {
                rows: rows.into_iter().map(QVec::from).collect(),
                cols: self.cols,
            },
            pivots,
        )
    }

    /// The rank of the matrix.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.reduced_row_echelon().1.len()
    }

    /// A basis of the null space `{y : A y = 0}`.
    #[must_use]
    pub fn nullspace_basis(&self) -> Vec<QVec> {
        let (rref, pivots) = self.reduced_row_echelon();
        let free_cols: Vec<usize> = (0..self.cols).filter(|c| !pivots.contains(c)).collect();
        let mut basis = Vec::new();
        for &free in &free_cols {
            let mut v = vec![Rational::ZERO; self.cols];
            v[free] = Rational::ONE;
            for (row_idx, &pivot_col) in pivots.iter().enumerate() {
                v[pivot_col] = -rref.rows[row_idx][free];
            }
            basis.push(QVec::from(v));
        }
        basis
    }

    /// Solves `A z = b`, returning `(solution, is_unique)` or `None` if the
    /// system is inconsistent.  Free variables are set to zero.
    #[must_use]
    pub fn solve(&self, b: &[Rational]) -> Option<(Vec<Rational>, bool)> {
        assert_eq!(b.len(), self.rows.len(), "right-hand side length mismatch");
        // Augment and reduce.
        let augmented_rows: Vec<QVec> = self
            .rows
            .iter()
            .zip(b)
            .map(|(row, &rhs)| {
                let mut v = row.as_slice().to_vec();
                v.push(rhs);
                QVec::from(v)
            })
            .collect();
        let augmented = QMatrix::from_rows(augmented_rows, self.cols + 1);
        let (rref, pivots) = augmented.reduced_row_echelon();
        // Inconsistent if some pivot is in the augmented column.
        if pivots.contains(&self.cols) {
            return None;
        }
        let mut solution = vec![Rational::ZERO; self.cols];
        for (row_idx, &pivot_col) in pivots.iter().enumerate() {
            solution[pivot_col] = rref.rows[row_idx][self.cols];
        }
        let unique = pivots.len() == self.cols;
        Some((solution, unique))
    }
}

/// Fits an affine function `x ↦ ∇·x + b` through the data points
/// `(points[k], values[k])`, returning `(∇, b, is_unique)` if an exact fit
/// exists.
///
/// This is how the characterization recovers the affine partial functions of
/// Lemma 7.3 from the values of `f` on a region ∩ congruence class.
#[must_use]
pub fn fit_affine(points: &[NVec], values: &[i64]) -> Option<(QVec, Rational, bool)> {
    assert_eq!(points.len(), values.len(), "points/values length mismatch");
    if points.is_empty() {
        return None;
    }
    let dim = points[0].dim();
    let rows: Vec<QVec> = points
        .iter()
        .map(|p| {
            let mut v: Vec<Rational> = p.iter().map(|&c| Rational::from(c)).collect();
            v.push(Rational::ONE);
            QVec::from(v)
        })
        .collect();
    let matrix = QMatrix::from_rows(rows, dim + 1);
    let rhs: Vec<Rational> = values.iter().map(|&v| Rational::from(v)).collect();
    let (solution, unique) = matrix.solve(&rhs)?;
    let gradient = QVec::from(solution[..dim].to_vec());
    let offset = solution[dim];
    Some((gradient, offset, unique))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn rank_of_simple_matrices() {
        let identity = QMatrix::from_rows(vec![QVec::from(vec![1, 0]), QVec::from(vec![0, 1])], 2);
        assert_eq!(identity.rank(), 2);
        let singular = QMatrix::from_rows(vec![QVec::from(vec![1, 2]), QVec::from(vec![2, 4])], 2);
        assert_eq!(singular.rank(), 1);
        let zero = QMatrix::from_rows(vec![QVec::from(vec![0, 0])], 2);
        assert_eq!(zero.rank(), 0);
    }

    #[test]
    fn nullspace_of_singular_matrix() {
        // x + y = 0 has null space spanned by (-1, 1)... in rref form (1,1) -> basis (-1,1).
        let m = QMatrix::from_rows(vec![QVec::from(vec![1, 1])], 2);
        let basis = m.nullspace_basis();
        assert_eq!(basis.len(), 1);
        // The basis vector satisfies the equation.
        let v = &basis[0];
        assert_eq!(v[0] + v[1], Rational::ZERO);
        assert!(!v.is_zero());
    }

    #[test]
    fn nullspace_of_full_rank_matrix_is_trivial() {
        let identity = QMatrix::from_rows(vec![QVec::from(vec![1, 0]), QVec::from(vec![0, 1])], 2);
        assert!(identity.nullspace_basis().is_empty());
    }

    #[test]
    fn solve_unique_system() {
        // x + y = 3, x - y = 1  =>  x = 2, y = 1.
        let m = QMatrix::from_rows(vec![QVec::from(vec![1, 1]), QVec::from(vec![1, -1])], 2);
        let (sol, unique) = m.solve(&[q(3, 1), q(1, 1)]).unwrap();
        assert!(unique);
        assert_eq!(sol, vec![q(2, 1), q(1, 1)]);
    }

    #[test]
    fn solve_inconsistent_system() {
        let m = QMatrix::from_rows(vec![QVec::from(vec![1, 1]), QVec::from(vec![1, 1])], 2);
        assert!(m.solve(&[q(1, 1), q(2, 1)]).is_none());
    }

    #[test]
    fn solve_underdetermined_system() {
        let m = QMatrix::from_rows(vec![QVec::from(vec![1, 1])], 2);
        let (sol, unique) = m.solve(&[q(5, 1)]).unwrap();
        assert!(!unique);
        assert_eq!(sol[0] + sol[1], q(5, 1));
    }

    #[test]
    fn fit_affine_recovers_plane() {
        // f(x1,x2) = 2x1 + 3x2 + 1 from four points.
        let points = vec![
            NVec::from(vec![0, 0]),
            NVec::from(vec![1, 0]),
            NVec::from(vec![0, 1]),
            NVec::from(vec![2, 2]),
        ];
        let values = vec![1, 3, 4, 11];
        let (gradient, offset, unique) = fit_affine(&points, &values).unwrap();
        assert!(unique);
        assert_eq!(gradient, QVec::from(vec![2, 3]));
        assert_eq!(offset, Rational::ONE);
    }

    #[test]
    fn fit_affine_rejects_nonaffine_data() {
        // f(x) = x^2 is not affine.
        let points: Vec<NVec> = (0..4u64).map(|x| NVec::from(vec![x])).collect();
        let values: Vec<i64> = (0..4i64).map(|x| x * x).collect();
        assert!(fit_affine(&points, &values).is_none());
    }

    #[test]
    fn fit_affine_collinear_points_not_unique() {
        // Points on a line in 2-D cannot pin down both gradient components.
        let points = vec![NVec::from(vec![0, 0]), NVec::from(vec![1, 1])];
        let values = vec![0, 2];
        let (_, _, unique) = fit_affine(&points, &values).unwrap();
        assert!(!unique);
    }

    proptest! {
        #[test]
        fn fit_affine_roundtrip(g1 in -4i64..5, g2 in -4i64..5, b in -5i64..6) {
            let points = vec![
                NVec::from(vec![0, 0]),
                NVec::from(vec![1, 0]),
                NVec::from(vec![0, 1]),
                NVec::from(vec![3, 2]),
                NVec::from(vec![2, 5]),
            ];
            let values: Vec<i64> = points
                .iter()
                .map(|p| g1 * p[0] as i64 + g2 * p[1] as i64 + b)
                .collect();
            let (gradient, offset, unique) = fit_affine(&points, &values).unwrap();
            prop_assert!(unique);
            prop_assert_eq!(gradient, QVec::from(vec![g1, g2]));
            prop_assert_eq!(offset, Rational::from(b));
        }

        #[test]
        fn rank_bounded_by_dimensions(entries in proptest::collection::vec(-3i64..4, 6)) {
            let m = QMatrix::from_rows(
                vec![
                    QVec::from(entries[0..3].to_vec()),
                    QVec::from(entries[3..6].to_vec()),
                ],
                3,
            );
            let r = m.rank();
            prop_assert!(r <= 2);
            // rank + nullity = number of columns.
            prop_assert_eq!(r + m.nullspace_basis().len(), 3);
        }
    }
}
