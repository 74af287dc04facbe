//! Composite approximation of `sign(x)` and ReLU.
//!
//! CKKS evaluates ReLU as `x · sign(x)` with `sign` approximated by a
//! *composition* of low-degree odd polynomials (paper §7: degrees
//! \[15, 15, 27\] following Lee et al.'s minimax composition). Composing
//! keeps the homomorphic multiplication count logarithmic in the effective
//! degree: the paper's ReLU has multiplicative depth 14 (13 for sign + 1
//! for the final product).
//!
//! We fit each stage with dense weighted least squares over the current
//! uncertainty band — a practical stand-in for the exact Remez exchange
//! (see README, "Substitutions"); the resulting composite reaches the same
//! depth and comparable (slightly looser) error.

use crate::cheb::ChebPoly;

/// A composition of odd polynomials approximating `sign(x)` on
/// `[-1, -ε] ∪ [ε, 1]`.
#[derive(Clone, Debug)]
pub struct CompositeSign {
    /// The stage polynomials, applied left to right.
    pub stages: Vec<ChebPoly>,
    /// The half-width ε of the dead zone around zero.
    pub epsilon: f64,
}

impl CompositeSign {
    /// Fits a composite sign approximation with the given per-stage degrees
    /// (e.g. `[15, 15, 27]`, the paper's ReLU composition) accurate outside
    /// `[-epsilon, epsilon]`.
    pub fn fit(degrees: &[usize], epsilon: f64) -> Self {
        assert!(!degrees.is_empty());
        assert!(epsilon > 0.0 && epsilon < 1.0);
        let mut stages = Vec::with_capacity(degrees.len());
        // The current band [lo, 1] that positive inputs occupy.
        let mut lo = epsilon;
        for (si, &deg) in degrees.iter().enumerate() {
            assert!(deg >= 3 && deg % 2 == 1, "stages must be odd polynomials");
            // Sample the band densely (log-spaced toward lo where the
            // approximation is hardest), mirrored for odd symmetry. The
            // dead zone is *also* sampled, with a linear ramp target, so
            // the polynomial stays bounded there — iterates must remain in
            // [-1, 1] to stay in the next stage's domain.
            let m = deg * 40;
            let mut pts = Vec::with_capacity(3 * m);
            for j in 0..m {
                let t = j as f64 / (m - 1) as f64;
                let x = lo * (1.0 / lo).powf(t); // log spacing lo..1
                pts.push((x, 1.0));
                pts.push((-x, -1.0));
            }
            for j in 1..m / 2 {
                let x = lo * j as f64 / (m / 2) as f64;
                pts.push((x, x / lo));
                pts.push((-x, -x / lo));
            }
            let mut p = ChebPoly::fit_least_squares(&pts, deg);
            p.make_odd();
            // Measure the achieved band on [lo, 1] and the global magnitude
            // bound on [0, 1], then renormalize so outputs stay in [-1, 1]
            // (inputs to the next stage must remain in domain).
            let (mut pmin, mut pmax) = (f64::INFINITY, f64::NEG_INFINITY);
            for j in 0..4000 {
                let t = j as f64 / 3999.0;
                let x = lo * (1.0 / lo).powf(t);
                let y = p.eval(x);
                pmin = pmin.min(y);
                pmax = pmax.max(y);
            }
            for j in 0..1000 {
                let x = lo * j as f64 / 999.0;
                pmax = pmax.max(p.eval(x).abs());
            }
            assert!(
                pmin > 0.0,
                "stage {si} failed to separate signs (band [{lo}, 1])"
            );
            p.scale_output(1.0 / pmax);
            lo = pmin / pmax;
            stages.push(p);
        }
        Self { stages, epsilon }
    }

    /// The paper's ReLU composition: degrees \[15, 15, 27\].
    pub fn paper_relu() -> Self {
        Self::fit(&[15, 15, 27], 0.02)
    }

    /// Cleartext evaluation of the composite.
    pub fn eval(&self, x: f64) -> f64 {
        let mut y = x;
        for s in &self.stages {
            y = s.eval(y.clamp(-1.0, 1.0));
        }
        y
    }

    /// Cleartext ReLU through the composite: `x · (sign(x) + 1) / 2`.
    pub fn relu(&self, x: f64) -> f64 {
        x * (self.eval(x) + 1.0) * 0.5
    }

    /// Multiplicative depth of the sign composite (sum of stage depths).
    pub fn depth(&self) -> usize {
        self.stages.iter().map(|s| s.eval_depth()).sum()
    }

    /// Depth of the full ReLU (`sign` + the final `x ·` product).
    pub fn relu_depth(&self) -> usize {
        self.depth() + 1
    }

    /// Worst error of the sign approximation outside the dead zone.
    pub fn max_sign_error(&self, samples: usize) -> f64 {
        (0..samples)
            .map(|i| {
                let t = i as f64 / (samples - 1) as f64;
                let x = self.epsilon + (1.0 - self.epsilon) * t;
                (self.eval(x) - 1.0).abs().max((self.eval(-x) + 1.0).abs())
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_relu_composition_depth() {
        // paper: 13 + 1
        let c = CompositeSign::paper_relu();
        assert_eq!(c.depth(), 4 + 4 + 5, "sign depth");
        assert_eq!(c.relu_depth(), 14, "ReLU depth");
    }

    #[test]
    fn sign_is_accurate_outside_dead_zone() {
        let c = CompositeSign::paper_relu();
        let err = c.max_sign_error(2000);
        assert!(err < 0.05, "sign error too large: {err}");
    }

    #[test]
    fn relu_matches_true_relu() {
        let c = CompositeSign::paper_relu();
        for i in 0..200 {
            let x = -1.0 + 2.0 * i as f64 / 199.0;
            let expect = x.max(0.0);
            let got = c.relu(x);
            // Inside the dead zone |x| < eps the error is at most |x|.
            let tol = if x.abs() < c.epsilon { c.epsilon } else { 0.03 };
            assert!((got - expect).abs() < tol, "x={x}: {got} vs {expect}");
        }
    }

    #[test]
    fn two_stage_composition_also_works() {
        let c = CompositeSign::fit(&[15, 31], 0.05);
        assert!(c.max_sign_error(1000) < 0.1);
        assert_eq!(c.depth(), 4 + 5);
    }

    #[test]
    fn composition_sharpens_each_stage() {
        // A one-stage approximation must be worse than the full composite
        // at equal dead zone.
        let one = CompositeSign::fit(&[15], 0.02);
        let three = CompositeSign::fit(&[15, 15, 27], 0.02);
        assert!(three.max_sign_error(1500) < one.max_sign_error(1500));
    }
}
