//! Minimal dense linear algebra: ridge regression via normal equations.
//!
//! Implemented in-tree (the sanctioned dependency list has no linear-algebra
//! crate); sizes here are tiny — the prophet-lite design matrix has at most a
//! few dozen columns — so an O(p³) solve is instant.

/// Solve `A x = b` for symmetric positive-definite `A` (row-major `p × p`)
/// by Gaussian elimination with partial pivoting. Returns `None` if singular.
#[allow(clippy::needless_range_loop)]
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    assert!(a.len() == n && a.iter().all(|row| row.len() == n));
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("finite matrix")
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut sum = b[col];
        for k in col + 1..n {
            sum -= a[col][k] * x[k];
        }
        x[col] = sum / a[col][col];
    }
    Some(x)
}

/// The ridge regularization strength `λ`.
const LAMBDA: f64 = 1e-3;

/// Ridge regression: minimize `‖Xβ − y‖² + λ‖β‖²` with `λ` = [`LAMBDA`].
///
/// `x` is row-major `n × p`; returns `β` of length `p`. The intercept column,
/// if any, should be part of `x` (it gets regularized too — acceptable at the
/// tiny λ used).
#[allow(clippy::needless_range_loop)]
pub fn ridge_fit(x: &[Vec<f64>], y: &[f64]) -> Option<Vec<f64>> {
    let n = x.len();
    assert_eq!(n, y.len());
    if n == 0 {
        return None;
    }
    let p = x[0].len();
    // Normal equations: (XᵀX + λI) β = Xᵀy.
    let mut xtx = vec![vec![0.0; p]; p];
    let mut xty = vec![0.0; p];
    for (row, &target) in x.iter().zip(y) {
        assert_eq!(row.len(), p);
        for i in 0..p {
            xty[i] += row[i] * target;
            for j in i..p {
                xtx[i][j] += row[i] * row[j];
            }
        }
    }
    for i in 0..p {
        for j in 0..i {
            xtx[i][j] = xtx[j][i];
        }
        xtx[i][i] += LAMBDA;
    }
    solve(xtx, xty)
}

/// Dot product of a design row with coefficients.
pub fn predict_row(row: &[f64], beta: &[f64]) -> f64 {
    row.iter().zip(beta).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_simple_system() {
        // 2x + y = 5 ; x + 3y = 10 → x = 1, y = 3.
        let x = solve(vec![vec![2.0, 1.0], vec![1.0, 3.0]], vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn singular_matrix_returns_none() {
        assert!(solve(vec![vec![1.0, 2.0], vec![2.0, 4.0]], vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn ridge_recovers_linear_trend() {
        // y = 3 + 2t fitted with design [1, t].
        let x: Vec<Vec<f64>> = (0..50).map(|t| vec![1.0, t as f64]).collect();
        let y: Vec<f64> = (0..50).map(|t| 3.0 + 2.0 * t as f64).collect();
        let beta = ridge_fit(&x, &y).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-3);
        assert!((beta[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn ridge_shrinks_under_collinearity() {
        // Two identical columns: OLS is singular; ridge resolves it.
        let x: Vec<Vec<f64>> = (0..20).map(|t| vec![t as f64, t as f64]).collect();
        let y: Vec<f64> = (0..20).map(|t| 4.0 * t as f64).collect();
        let beta = ridge_fit(&x, &y).unwrap();
        // Combined effect recovers slope 4 split across the twins.
        assert!((beta[0] + beta[1] - 4.0).abs() < 1e-2);
    }

    #[test]
    fn predict_row_is_dot_product() {
        assert_eq!(predict_row(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }
}
