//! Chebyshev-basis polynomials: interpolation, least-squares fitting,
//! Clenshaw evaluation.

/// A polynomial in the Chebyshev basis on `[-1, 1]`:
/// `p(x) = Σ_k c_k · T_k(x)`.
#[derive(Clone, Debug, PartialEq)]
pub struct ChebPoly {
    /// Chebyshev coefficients, `c[k]` multiplying `T_k`.
    pub coeffs: Vec<f64>,
}

impl ChebPoly {
    /// Wraps raw coefficients.
    pub fn new(coeffs: Vec<f64>) -> Self {
        Self { coeffs }
    }

    /// Degree of the polynomial.
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Multiplicative depth of its homomorphic evaluation
    /// ([`crate::eval::fhe_eval_depth`] of the trimmed degree).
    pub fn eval_depth(&self) -> usize {
        crate::eval::fhe_eval_depth(crate::eval::trimmed_degree(&self.coeffs))
    }

    /// Interpolates `f` at `degree+1` Chebyshev nodes of `[-1, 1]`.
    ///
    /// This is the paper's default activation-fitting path ("either through
    /// interpolation or by the Remez algorithm", §6); for smooth `f` it is
    /// within a factor `O(log d)` of the true minimax error.
    pub fn interpolate(f: impl Fn(f64) -> f64, degree: usize) -> Self {
        let n = degree + 1;
        // Chebyshev (first-kind) nodes and the DCT-like coefficient formula.
        let vals: Vec<f64> = (0..n)
            .map(|j| {
                let x = (std::f64::consts::PI * (j as f64 + 0.5) / n as f64).cos();
                f(x)
            })
            .collect();
        let coeffs = (0..n)
            .map(|k| {
                let mut acc = 0.0;
                for (j, &v) in vals.iter().enumerate() {
                    acc +=
                        v * (std::f64::consts::PI * k as f64 * (j as f64 + 0.5) / n as f64).cos();
                }
                acc * 2.0 / n as f64 * if k == 0 { 0.5 } else { 1.0 }
            })
            .collect();
        Self { coeffs }
    }

    /// Least-squares fit of `f` over explicit sample points (used by the
    /// composite-sign fitter, where the domain excludes a hole around 0).
    pub fn fit_least_squares(points: &[(f64, f64)], degree: usize) -> Self {
        let n = degree + 1;
        let m = points.len();
        assert!(m >= n, "need at least degree+1 sample points");
        // Design matrix in the Chebyshev basis (well-conditioned).
        let mut a = vec![vec![0.0f64; n]; m];
        for (row, &(x, _)) in a.iter_mut().zip(points) {
            let mut tkm1 = 1.0;
            let mut tk = x;
            row[0] = 1.0;
            if n > 1 {
                row[1] = x;
            }
            for item in row.iter_mut().take(n).skip(2) {
                let t = 2.0 * x * tk - tkm1;
                *item = t;
                tkm1 = tk;
                tk = t;
            }
        }
        // Normal equations AᵀA c = Aᵀy, solved by Gaussian elimination with
        // partial pivoting (systems are ≤ ~64×64).
        let mut ata = vec![vec![0.0f64; n + 1]; n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for r in 0..m {
                    s += a[r][i] * a[r][j];
                }
                ata[i][j] = s;
            }
            let mut s = 0.0;
            for (r, &(_, y)) in points.iter().enumerate() {
                s += a[r][i] * y;
            }
            ata[i][n] = s;
        }
        for col in 0..n {
            let piv = (col..n)
                .max_by(|&i, &j| ata[i][col].abs().partial_cmp(&ata[j][col].abs()).unwrap())
                .unwrap();
            ata.swap(col, piv);
            let d = ata[col][col];
            assert!(d.abs() > 1e-300, "singular normal equations");
            for j in col..=n {
                ata[col][j] /= d;
            }
            for i in 0..n {
                if i != col {
                    let f = ata[i][col];
                    for j in col..=n {
                        ata[i][j] -= f * ata[col][j];
                    }
                }
            }
        }
        Self {
            coeffs: (0..n).map(|i| ata[i][n]).collect(),
        }
    }

    /// Evaluates via the Clenshaw recurrence (cleartext reference).
    pub fn eval(&self, x: f64) -> f64 {
        clenshaw(&self.coeffs, x)
    }

    /// Maximum absolute error against `f` over a dense grid of `[-1, 1]`.
    pub fn max_error(&self, f: impl Fn(f64) -> f64, samples: usize) -> f64 {
        (0..samples)
            .map(|i| {
                let x = -1.0 + 2.0 * i as f64 / (samples - 1) as f64;
                (self.eval(x) - f(x)).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Zeroes even-index coefficients (enforces odd symmetry after a fit of
    /// an odd function).
    pub fn make_odd(&mut self) {
        for (k, c) in self.coeffs.iter_mut().enumerate() {
            if k % 2 == 0 {
                *c = 0.0;
            }
        }
    }

    /// Scales the polynomial's output by `s`.
    pub fn scale_output(&mut self, s: f64) {
        for c in self.coeffs.iter_mut() {
            *c *= s;
        }
    }
}

/// Evaluates `Σ_k coeffs[k] · T_k(x)` by the Clenshaw recurrence — the
/// body of [`ChebPoly::eval`], on borrowed coefficients.
pub fn clenshaw(coeffs: &[f64], x: f64) -> f64 {
    let mut b1 = 0.0;
    let mut b2 = 0.0;
    for &c in coeffs.iter().skip(1).rev() {
        let b0 = 2.0 * x * b1 - b2 + c;
        b2 = b1;
        b1 = b0;
    }
    coeffs[0] + x * b1 - b2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_polynomial_exactly() {
        // x^2 = (T_0 + T_2)/2
        let p = ChebPoly::interpolate(|x| x * x, 4);
        assert!((p.coeffs[0] - 0.5).abs() < 1e-12);
        assert!((p.coeffs[2] - 0.5).abs() < 1e-12);
        assert!(p.coeffs[1].abs() < 1e-12);
        assert!(p.max_error(|x| x * x, 101) < 1e-12);
    }

    #[test]
    fn interpolates_smooth_function_accurately() {
        let silu = |x: f64| x / (1.0 + (-4.0 * x).exp());
        let p = ChebPoly::interpolate(silu, 63);
        assert!(
            p.max_error(silu, 501) < 1e-6,
            "err = {}",
            p.max_error(silu, 501)
        );
    }

    #[test]
    fn clenshaw_matches_direct_basis_sum() {
        let p = ChebPoly::new(vec![0.5, -1.0, 0.25, 0.125]);
        for &x in &[-1.0, -0.3, 0.0, 0.7, 1.0] {
            // direct: T0..T3 = 1, x, 2x^2-1, 4x^3-3x
            let direct = 0.5 - x + 0.25 * (2.0 * x * x - 1.0) + 0.125 * (4.0 * x * x * x - 3.0 * x);
            assert!((p.eval(x) - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn least_squares_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = -1.0 + 0.04 * i as f64;
                (x, 3.0 * x)
            })
            .collect();
        let p = ChebPoly::fit_least_squares(&pts, 3);
        assert!((p.eval(0.5) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn eval_depth_formula() {
        // ⌈log₂(d+1)⌉, the paper's
        assert_eq!(ChebPoly::new(vec![1.0; 16]).eval_depth(), 4); // deg 15
        assert_eq!(ChebPoly::new(vec![1.0; 28]).eval_depth(), 5); // deg 27
        assert_eq!(ChebPoly::new(vec![1.0; 64]).eval_depth(), 6); // deg 63
        assert_eq!(ChebPoly::new(vec![1.0; 128]).eval_depth(), 7); // deg 127
    }
}
