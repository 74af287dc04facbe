//! Activation compilation: range-aware polynomial fitting (paper §6).
//!
//! `fit()` gives every activation an input range `m` and compiles it with
//! [`compile_activation`] as soon as `m` is known, so the activations
//! downstream of it are fitted on its polynomial's outputs. The activation
//! is evaluated as `f(m·u)` on the normalized `u = x/m ∈ [-1, 1]`:
//!
//! * a *scale-down* multiplication (`× 1/m`, one level — the paper's
//!   "scale-down PMults inserted directly into the computational graph"),
//! * the Chebyshev stages (for ReLU: the composite minimax sign),
//! * and for ReLU the final `m·u · (sign(u)+1)/2` product, whose alignment
//!   constant also restores the exact-Δ scale invariant.

use crate::layer::Layer;
use orion_poly::cheb::{clenshaw, ChebPoly};
use orion_poly::sign::CompositeSign;
use orion_tensor::Tensor;
use std::collections::HashMap;

/// A compiled activation.
#[derive(Clone, Debug)]
pub enum CompiledAct {
    /// Single-polynomial activation (SiLU / custom): `p(u) ≈ f(m·u)`.
    Poly {
        /// Fitted input range `m`.
        range: f64,
        /// Chebyshev coefficients of `p`.
        coeffs: Vec<f64>,
    },
    /// ReLU through the composite sign.
    Relu {
        /// Fitted input range `m`.
        range: f64,
        /// Per-stage Chebyshev coefficients of the sign composite.
        stages: Vec<Vec<f64>>,
    },
    /// The exact `x²` activation (no normalization required).
    Square,
}

impl CompiledAct {
    /// Cleartext evaluation (the ideal FHE semantics, no noise).
    pub fn eval(&self, x: f64) -> f64 {
        match self {
            CompiledAct::Poly { range, coeffs } => clenshaw(coeffs, x / range),
            CompiledAct::Relu { range, stages } => {
                let u = x / range;
                let mut s = u;
                for st in stages {
                    // no clamping: the homomorphic evaluation extrapolates
                    // the polynomial beyond [-1, 1] the same way
                    s = clenshaw(st, s);
                }
                range * u * (s + 1.0) * 0.5
            }
            CompiledAct::Square => x * x,
        }
    }
}

/// Fits one activation layer at the given input range.
pub fn compile_activation(layer: &Layer, range: f64) -> CompiledAct {
    assert!(range > 0.0);
    match layer {
        Layer::SiLU { degree } => {
            let m = range;
            let coeffs = ChebPoly::interpolate(|u| silu(m * u), *degree).coeffs;
            CompiledAct::Poly { range, coeffs }
        }
        Layer::Activation { degree, table, .. } => {
            let m = range;
            let f = *table;
            let coeffs = ChebPoly::interpolate(move |u| f(m * u), *degree).coeffs;
            CompiledAct::Poly { range, coeffs }
        }
        Layer::ReLU { degrees } => {
            let sign = CompositeSign::fit(degrees, 0.02);
            CompiledAct::Relu {
                range,
                stages: sign.stages.into_iter().map(|s| s.coeffs).collect(),
            }
        }
        Layer::Square => CompiledAct::Square,
        other => panic!("{} is not an activation", other.kind_name()),
    }
}

/// SiLU (a.k.a. swish): `x · σ(x)`.
pub fn silu(x: f64) -> f64 {
    x / (1.0 + (-x).exp())
}

/// All compiled activations of a network, keyed by node id.
#[derive(Clone, Debug, Default)]
pub struct CompiledActs {
    /// Node id → compiled activation.
    pub map: HashMap<usize, CompiledAct>,
}

impl CompiledActs {
    /// Applies the compiled activation of node `id` element-wise.
    pub fn apply(&self, id: usize, x: &Tensor) -> Tensor {
        let act = self.map.get(&id).expect("activation not compiled");
        x.map(|v| act.eval(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silu_poly_tracks_true_silu_within_range() {
        let act = compile_activation(&Layer::SiLU { degree: 63 }, 4.0);
        for i in 0..100 {
            let x = -4.0 + 8.0 * i as f64 / 99.0;
            assert!((act.eval(x) - silu(x)).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn relu_poly_tracks_true_relu_within_range() {
        let act = compile_activation(
            &Layer::ReLU {
                degrees: vec![15, 15, 27],
            },
            8.0,
        );
        for i in 0..100 {
            let x = -8.0 + 16.0 * i as f64 / 99.0;
            let tol = if x.abs() < 0.02 * 8.0 { 0.2 } else { 0.25 };
            assert!(
                (act.eval(x) - x.max(0.0)).abs() < tol,
                "x={x}: {}",
                act.eval(x)
            );
        }
    }

    #[test]
    fn square_is_exact() {
        let act = compile_activation(&Layer::Square, 1.0);
        assert_eq!(act.eval(3.0), 9.0);
        assert_eq!(act.eval(-0.5), 0.25);
    }
}
