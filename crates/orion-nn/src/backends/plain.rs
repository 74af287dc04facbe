//! [`PlainBackend`]: the cleartext rotation-algebra oracle.
//!
//! Linear layers run through the *exact* executor rotation algebra
//! (`orion_linear::exec_plain_parallel_shared`: hoisted baby steps,
//! pre-rotated diagonals, giant-step group rotations, row fold — fanned out
//! on the shared rayon pool) instead of the reference convolution, making
//! this engine the correctness oracle for the packing math end-to-end.
//! Activations are evaluated with the same fitted polynomials as the other
//! engines; level bookkeeping mirrors the placement policy.

use crate::backend::{run_program, EvalBackend, LinearRef};
use crate::compile::Compiled;
use orion_linear::exec::{exec_plain_parallel_shared, shared_rot_plain};
use orion_poly::cheb::ChebPoly;
use orion_sim::OpCounter;
use orion_tensor::Tensor;

/// A "ciphertext" of the plain oracle: cleartext slots plus the mirrored
/// level for placement bookkeeping.
#[derive(Clone, Debug)]
pub struct PlainCiphertext {
    /// Slot values.
    pub slots: Vec<f64>,
    /// Mirrored multiplicative level.
    pub level: usize,
}

/// The cleartext rotation-algebra engine (see module docs).
pub struct PlainBackend {
    slots: usize,
    l_eff: usize,
    prepared: bool,
}

impl PlainBackend {
    /// Builds an oracle matching a compiled program's options.
    pub fn new(c: &Compiled) -> Self {
        Self {
            slots: c.opts.slots,
            l_eff: c.opts.l_eff,
            prepared: false,
        }
    }

    /// Builds an oracle with explicit geometry.
    pub fn with_geometry(slots: usize, l_eff: usize) -> Self {
        Self {
            slots,
            l_eff,
            prepared: false,
        }
    }

    /// Models the prepared serving mode (zero per-inference encodes in the
    /// tally); see `TraceBackend::prepared`.
    pub fn prepared(c: &Compiled) -> Self {
        Self {
            prepared: true,
            ..Self::new(c)
        }
    }
}

impl EvalBackend for PlainBackend {
    type Ciphertext = PlainCiphertext;
    type SharedRot = std::collections::HashMap<(u32, usize), Vec<f64>>;

    fn name(&self) -> &'static str {
        "plain"
    }

    fn slots(&self) -> usize {
        self.slots
    }

    fn level_of(&self, ct: &PlainCiphertext) -> usize {
        ct.level
    }

    fn encrypt(&self, vals: &[f64], level: usize) -> PlainCiphertext {
        let mut slots = vals.to_vec();
        slots.resize(self.slots, 0.0);
        PlainCiphertext { slots, level }
    }

    fn decrypt(&self, ct: &PlainCiphertext) -> Vec<f64> {
        ct.slots.clone()
    }

    fn add(&self, a: &PlainCiphertext, b: &PlainCiphertext) -> PlainCiphertext {
        assert_eq!(a.level, b.level, "HAdd level mismatch");
        PlainCiphertext {
            slots: a.slots.iter().zip(&b.slots).map(|(x, y)| x + y).collect(),
            level: a.level,
        }
    }

    fn drop_to_level(&self, a: &PlainCiphertext, level: usize) -> PlainCiphertext {
        assert!(level <= a.level, "cannot drop upward");
        PlainCiphertext {
            slots: a.slots.clone(),
            level,
        }
    }

    fn bootstrap(&self, a: &PlainCiphertext) -> PlainCiphertext {
        PlainCiphertext {
            slots: a.slots.clone(),
            level: self.l_eff,
        }
    }

    fn linear_encodes_per_inference(&self, _step: usize) -> bool {
        !self.prepared
    }

    fn activation_encodes_per_inference(&self, _step: usize) -> bool {
        !self.prepared
    }

    fn linear_layer(
        &self,
        layer: &LinearRef<'_>,
        inputs: &[PlainCiphertext],
        level: usize,
        shared: Option<&Self::SharedRot>,
    ) -> Vec<PlainCiphertext> {
        let plan = layer.plan();
        let blocks: Vec<Vec<f64>> = inputs.iter().map(|ct| ct.slots.clone()).collect();
        let (src, bias_blocks) = layer.values(self.slots);
        let private = Self::SharedRot::new();
        let out_blocks =
            exec_plain_parallel_shared(plan, &*src, &blocks, shared.unwrap_or(&private));
        out_blocks
            .into_iter()
            .enumerate()
            .map(|(b, mut block)| {
                if let Some(bias) = bias_blocks.get(b) {
                    // a folded dense output block is R-periodic, bias too
                    for (x, v) in block.iter_mut().zip(plan.periodic(bias)) {
                        *x += v;
                    }
                }
                PlainCiphertext {
                    slots: block,
                    level: level - 1,
                }
            })
            .collect()
    }

    fn hoist_rotations(
        &self,
        cts: &[PlainCiphertext],
        _level: usize,
        rots: &[(u32, usize)],
    ) -> Self::SharedRot {
        let blocks: Vec<Vec<f64>> = cts.iter().map(|ct| ct.slots.clone()).collect();
        shared_rot_plain(&blocks, rots)
    }

    fn scale_down(&self, ct: &PlainCiphertext, factor: f64, level: usize) -> PlainCiphertext {
        PlainCiphertext {
            slots: ct.slots.iter().map(|x| x * factor).collect(),
            level: level - 1,
        }
    }

    fn poly_stage(
        &self,
        ct: &PlainCiphertext,
        coeffs: &[f64],
        normalize: bool,
        level: usize,
        _step: usize,
    ) -> PlainCiphertext {
        let d = coeffs.len() - 1;
        let depth = orion_poly::eval::fhe_eval_depth(d) + usize::from(normalize);
        let p = ChebPoly::new(coeffs.to_vec());
        PlainCiphertext {
            slots: ct.slots.iter().map(|&x| p.eval(x)).collect(),
            level: level - depth,
        }
    }

    fn relu_final(
        &self,
        u: &PlainCiphertext,
        sign: &PlainCiphertext,
        magnitude: f64,
        level: usize,
    ) -> PlainCiphertext {
        PlainCiphertext {
            slots: u
                .slots
                .iter()
                .zip(&sign.slots)
                .map(|(&x, &sg)| magnitude * x * (sg + 1.0) * 0.5)
                .collect(),
            level: level - 2,
        }
    }

    fn square_activation(&self, ct: &PlainCiphertext, level: usize) -> PlainCiphertext {
        PlainCiphertext {
            slots: ct.slots.iter().map(|&x| x * x).collect(),
            level: level - 2,
        }
    }
}

/// Result of a plain-oracle run.
pub struct PlainRun {
    /// The network output.
    pub output: Tensor,
    /// Uniform operation statistics.
    pub counter: OpCounter,
}

/// Runs a compiled program through the plain rotation-algebra oracle with
/// uniform op-counting.
pub fn run_plain(c: &Compiled, input: &Tensor) -> PlainRun {
    let run = run_program(c, &PlainBackend::new(c), input);
    PlainRun {
        output: run.output,
        counter: run.counter,
    }
}
