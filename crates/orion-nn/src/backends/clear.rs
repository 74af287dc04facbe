//! [`ClearBackend`]: the cleartext engine.
//!
//! Values are plain `f64` slot vectors carrying the level the placement
//! policy assigned; activations are the same fitted polynomials every
//! engine evaluates. The one thing the constructor chooses is how a linear
//! layer is computed:
//!
//! * [`ClearBackend::reference`] — gather the wire's slots, run the
//!   reference `orion_tensor::{conv2d, linear}`, pack the result. No
//!   rotation algebra, so it is fast enough for the paper's
//!   ImageNet-scale reporting columns (see README, "Substitutions").
//! * [`ClearBackend::packed`] — the executor's exact rotation algebra on
//!   the executor's own baby-step schedule (`orion_linear::exec_plain`:
//!   each baby-step rotation once, giant-step group sums and rotations,
//!   row fold, bias), which makes the engine the end-to-end oracle for
//!   the packing math.
//!
//! Either runs a program through [`crate::backend::run_program`].
//!
//! Whether a program is *legal* FHE (no level underflow, rescales feasible,
//! scales matched) is certified on the plan by [`crate::verify`]; what the
//! engine still checks is what a walk can get wrong at run time: `HAdd`
//! operands at one level, no upward drop, and every depth paid out of a
//! level that has it.

use crate::backend::EvalBackend;
use crate::compile::{Compiled, Step};
use orion_linear::exec::exec_plain;
use orion_linear::TensorLayout;
use orion_poly::cheb::clenshaw;
use orion_tensor::{conv2d, linear, Conv2dParams, Tensor};
use std::borrow::Cow;

/// A "ciphertext" of the cleartext engine: slot values plus the mirrored
/// multiplicative level.
#[derive(Clone, Debug)]
pub struct ClearCiphertext {
    /// Slot values.
    pub slots: Vec<f64>,
    /// Mirrored multiplicative level ℓ.
    pub level: usize,
}

impl ClearCiphertext {
    /// `f` over the slots, at `level`.
    fn map(&self, level: usize, f: impl Fn(f64) -> f64) -> Self {
        Self {
            slots: self.slots.iter().map(|&x| f(x)).collect(),
            level,
        }
    }

    /// `f` over the slot pairs of `self` and `other`, at `level`.
    fn zip(&self, other: &Self, level: usize, f: impl Fn(f64, f64) -> f64) -> Self {
        let pairs = self.slots.iter().zip(&other.slots);
        Self {
            slots: pairs.map(|(&x, &y)| f(x, y)).collect(),
            level,
        }
    }
}

/// How [`ClearBackend`] computes a linear layer.
enum Linear {
    Reference,
    Packed,
}

/// The cleartext engine (see module docs).
pub struct ClearBackend {
    slots: usize,
    l_eff: usize,
    linear: Linear,
    prepared: bool,
}

impl ClearBackend {
    /// An engine for `c` whose linear layers are the reference
    /// convolution / matrix product on gathered slots.
    pub fn reference(c: &Compiled) -> Self {
        Self {
            slots: c.opts.slots,
            l_eff: c.opts.l_eff,
            linear: Linear::Reference,
            prepared: false,
        }
    }

    /// An engine for `c` whose linear layers run the executor's rotation
    /// algebra on the packed slots.
    pub fn packed(c: &Compiled) -> Self {
        Self {
            linear: Linear::Packed,
            ..Self::reference(c)
        }
    }

    /// Models the *prepared* serving mode: weight and bias encodes happen
    /// at setup, so the per-inference tally records zero encodes —
    /// mirroring `CkksBackend::with_prepared` so modeled and real runs stay
    /// counter-identical.
    pub fn prepared(self) -> Self {
        Self {
            prepared: true,
            ..self
        }
    }

    /// Splits a packed slot vector into ciphertext-sized blocks at `level`.
    fn chunk_blocks(&self, packed: &[f64], level: usize) -> Vec<ClearCiphertext> {
        packed
            .chunks(self.slots)
            .map(|chunk| self.encrypt(chunk, level))
            .collect()
    }

    /// Gather → reference `conv2d` / `linear` → pack.
    fn linear_reference(
        &self,
        step: &Step,
        inputs: &[ClearCiphertext],
        out_level: usize,
    ) -> Vec<ClearCiphertext> {
        let gather = |in_l: &TensorLayout| in_l.unpack(&gather_slots(inputs, in_l.total_slots()));
        match step {
            Step::Conv {
                spec,
                weight,
                bias,
                in_l,
                out_l,
                ..
            } => {
                let x = Tensor::from_vec(&[in_l.c, in_l.h, in_l.w], gather(in_l));
                let p = Conv2dParams {
                    stride: spec.stride,
                    padding: spec.padding,
                    dilation: spec.dilation,
                    groups: spec.groups,
                };
                let y = conv2d(&x, weight, bias, p);
                self.chunk_blocks(&out_l.pack(y.data()), out_level)
            }
            Step::Dense {
                weight, bias, in_l, ..
            } => self.chunk_blocks(&linear(&gather(in_l), weight, bias), out_level),
            _ => panic!("a linear layer"),
        }
    }

    /// The executor's rotation algebra on the packed blocks, bias included.
    fn linear_packed(
        &self,
        step: &Step,
        inputs: &[ClearCiphertext],
        out_level: usize,
    ) -> Vec<ClearCiphertext> {
        let plan = step.linear_plan().expect("a linear layer");
        let (src, bias) = step.linear_values(self.slots).expect("a linear layer");
        exec_plain(plan, &*src, Some(&bias), &block_slots(inputs))
            .into_iter()
            .map(|slots| ClearCiphertext {
                slots,
                level: out_level,
            })
            .collect()
    }
}

/// The level `depth` below `level`. A step the placement policy put at a
/// level that cannot pay its depth is a compiler bug; fail loudly in every
/// profile rather than wrap.
fn below(level: usize, depth: usize) -> usize {
    level.checked_sub(depth).unwrap_or_else(|| {
        panic!("depth {depth} at level {level}: bootstrap required first — placement violated")
    })
}

/// Concatenates the first `n` slots across a wire's ciphertexts.
fn gather_slots(cts: &[ClearCiphertext], n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    for ct in cts {
        out.extend_from_slice(&ct.slots);
    }
    out.resize(n, 0.0);
    out
}

fn block_slots(cts: &[ClearCiphertext]) -> Vec<Vec<f64>> {
    cts.iter().map(|ct| ct.slots.clone()).collect()
}

impl EvalBackend for ClearBackend {
    type Ciphertext = ClearCiphertext;

    fn slots(&self) -> usize {
        self.slots
    }

    fn level_of(&self, ct: &ClearCiphertext) -> usize {
        ct.level
    }

    fn encrypt(&self, vals: &[f64], level: usize) -> ClearCiphertext {
        let mut slots = vals.to_vec();
        slots.resize(self.slots, 0.0);
        ClearCiphertext { slots, level }
    }

    fn decrypt(&self, ct: &ClearCiphertext) -> Vec<f64> {
        ct.slots.clone()
    }

    fn add(&self, a: &ClearCiphertext, b: &ClearCiphertext) -> ClearCiphertext {
        assert_eq!(
            a.level, b.level,
            "HAdd level mismatch — the compiler must align levels"
        );
        a.zip(b, a.level, |x, y| x + y)
    }

    fn drop_to_level(&self, a: Cow<'_, ClearCiphertext>, level: usize) -> ClearCiphertext {
        assert!(level <= a.level, "cannot drop upward");
        ClearCiphertext {
            level,
            ..a.into_owned()
        }
    }

    fn bootstrap(&self, a: &ClearCiphertext) -> ClearCiphertext {
        ClearCiphertext {
            level: self.l_eff,
            ..a.clone()
        }
    }

    fn linear_encodes_per_inference(&self, _step: usize) -> bool {
        !self.prepared
    }

    fn linear_layer(
        &self,
        _node: usize,
        step: &Step,
        inputs: &[ClearCiphertext],
        level: usize,
    ) -> Vec<ClearCiphertext> {
        let out_level = below(level, 1);
        match self.linear {
            Linear::Reference => self.linear_reference(step, inputs, out_level),
            Linear::Packed => self.linear_packed(step, inputs, out_level),
        }
    }

    fn scale_down(&self, ct: &ClearCiphertext, factor: f64, level: usize) -> ClearCiphertext {
        ct.map(below(level, 1), |x| x * factor)
    }

    fn poly_stage(&self, ct: &ClearCiphertext, coeffs: &[f64], level: usize) -> ClearCiphertext {
        // the level the CKKS evaluation exits at
        let exit = orion_poly::eval::stage_ops(coeffs, level).exit_level;
        ct.map(exit, |x| clenshaw(coeffs, x))
    }

    fn relu_final(
        &self,
        u: &ClearCiphertext,
        sign: &ClearCiphertext,
        magnitude: f64,
        level: usize,
    ) -> ClearCiphertext {
        u.zip(sign, below(level, 2), |x, sg| {
            magnitude * x * (sg + 1.0) * 0.5
        })
    }

    fn square_activation(&self, ct: &ClearCiphertext, level: usize) -> ClearCiphertext {
        ct.map(below(level, 2), |x| x * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ClearBackend {
        ClearBackend {
            slots: 8,
            l_eff: 4,
            linear: Linear::Reference,
            prepared: false,
        }
    }

    #[test]
    fn bootstrap_restores_effective_level() {
        let e = engine();
        let b = e.bootstrap(&e.encrypt(&[0.5; 8], 0));
        assert_eq!(b.level, 4);
        assert_eq!(b.slots[0], 0.5);
    }

    #[test]
    fn poly_stage_exits_where_the_engine_does() {
        // A degree-9 stage reserves and spends 4 levels; coefficients
        // trimmed below 1e-13 do not count toward the degree (the padded
        // length, read as degree 17, would reserve 5).
        let e = engine();
        let mut coeffs = vec![0.1; 10];
        coeffs.extend([1e-14; 8]);
        let out = e.poly_stage(&e.encrypt(&[0.5; 8], 10), &coeffs, 10);
        assert_eq!(orion_poly::eval::fhe_eval_depth(9), 4);
        assert_eq!(out.level, 10 - 4);
        let step = crate::compile::Step::PolyStage { coeffs };
        assert_eq!(step.depth(), 4, "reserved == consumed");
    }

    #[test]
    #[should_panic(expected = "bootstrap required")]
    fn rescale_at_level_zero_is_illegal() {
        let e = engine();
        let _ = e.scale_down(&e.encrypt(&[1.0; 8], 0), 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "HAdd level mismatch")]
    fn hadd_level_mismatch_panics() {
        let e = engine();
        let _ = e.add(&e.encrypt(&[1.0; 8], 3), &e.encrypt(&[1.0; 8], 2));
    }

    #[test]
    #[should_panic(expected = "cannot drop upward")]
    fn drop_upward_panics() {
        let e = engine();
        let _ = e.drop_to_level(Cow::Owned(e.encrypt(&[1.0; 8], 2)), 3);
    }
}
