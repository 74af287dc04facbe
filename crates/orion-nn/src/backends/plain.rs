//! [`PlainBackend`]: the cleartext rotation-algebra oracle.
//!
//! Linear layers run through the *exact* executor rotation algebra
//! (`orion_linear::exec_plain_parallel_shared`: hoisted baby steps,
//! pre-rotated diagonals, giant-step group rotations, row fold — fanned out
//! on the shared rayon pool) instead of the reference convolution, making this engine the
//! correctness oracle for the packing math end-to-end. Activations are
//! evaluated with the same fitted polynomials as the other engines;
//! level bookkeeping mirrors the placement policy so the [`Counting`]
//! decorator tallies identically.
//!
//! [`Counting`]: crate::backend::Counting

use crate::backend::{run_program, Counting, EvalBackend, LinearRef};
use crate::compile::Compiled;
use orion_linear::exec::{exec_plain_parallel_shared, shared_rot_plain};
use orion_linear::values::{BiasValues, ConvDiagSource, DenseDiagSource};
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

/// Cleartext `HRot` semantics: `out[i] = in[(i + k) mod n]`.
fn rot_slots(v: &[f64], k: isize) -> Vec<f64> {
    let n = v.len() as isize;
    (0..v.len())
        .map(|i| v[((i as isize + k).rem_euclid(n)) as usize])
        .collect()
}

impl EvalBackend for PlainBackend {
    type Ciphertext = PlainCiphertext;
    type Plaintext = Vec<f64>;
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

    fn encode(&self, vals: &[f64], _level: usize) -> Vec<f64> {
        vals.to_vec()
    }

    fn add(&self, a: &PlainCiphertext, b: &PlainCiphertext) -> PlainCiphertext {
        assert_eq!(a.level, b.level, "HAdd level mismatch");
        PlainCiphertext {
            slots: a.slots.iter().zip(&b.slots).map(|(x, y)| x + y).collect(),
            level: a.level,
        }
    }

    fn add_plain(&self, a: &PlainCiphertext, p: &Vec<f64>) -> PlainCiphertext {
        PlainCiphertext {
            slots: a
                .slots
                .iter()
                .enumerate()
                .map(|(i, x)| x + p.get(i).copied().unwrap_or(0.0))
                .collect(),
            level: a.level,
        }
    }

    fn pmult(&self, a: &PlainCiphertext, p: &Vec<f64>) -> PlainCiphertext {
        PlainCiphertext {
            slots: a
                .slots
                .iter()
                .enumerate()
                .map(|(i, x)| x * p.get(i).copied().unwrap_or(0.0))
                .collect(),
            level: a.level,
        }
    }

    fn hmult(&self, a: &PlainCiphertext, b: &PlainCiphertext) -> PlainCiphertext {
        assert_eq!(a.level, b.level, "HMult level mismatch");
        PlainCiphertext {
            slots: a.slots.iter().zip(&b.slots).map(|(x, y)| x * y).collect(),
            level: a.level,
        }
    }

    fn rotate(&self, a: &PlainCiphertext, k: isize) -> PlainCiphertext {
        PlainCiphertext {
            slots: rot_slots(&a.slots, k),
            level: a.level,
        }
    }

    fn rescale(&self, a: &PlainCiphertext) -> PlainCiphertext {
        assert!(a.level >= 1, "rescale at level 0 — bootstrap required");
        PlainCiphertext {
            slots: a.slots.clone(),
            level: a.level - 1,
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
    ) -> Vec<PlainCiphertext> {
        self.linear_layer_shared(layer, inputs, level, &Self::SharedRot::new())
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

    fn linear_layer_shared(
        &self,
        layer: &LinearRef<'_>,
        inputs: &[PlainCiphertext],
        level: usize,
        shared: &Self::SharedRot,
    ) -> Vec<PlainCiphertext> {
        let slots = self.slots;
        let blocks: Vec<Vec<f64>> = inputs.iter().map(|ct| ct.slots.clone()).collect();
        let (out_blocks, bias_blocks) = match layer {
            LinearRef::Conv {
                plan,
                spec,
                weight,
                bias,
                in_l,
                out_l,
                ..
            } => {
                let src = ConvDiagSource {
                    in_l: **in_l,
                    out_l: **out_l,
                    spec: **spec,
                    weights: weight,
                };
                (
                    exec_plain_parallel_shared(plan, &src, &blocks, shared),
                    BiasValues::conv(out_l, bias, slots),
                )
            }
            LinearRef::Dense {
                plan,
                weight,
                bias,
                in_l,
                n_out,
                ..
            } => {
                let src = DenseDiagSource::new((*weight).clone(), in_l);
                (
                    exec_plain_parallel_shared(plan, &src, &blocks, shared),
                    BiasValues::dense(*n_out, bias, slots),
                )
            }
        };
        out_blocks
            .into_iter()
            .enumerate()
            .map(|(b, mut block)| {
                if let Some(bias) = bias_blocks.get(b) {
                    // a folded dense output block is R-periodic, bias too
                    for (x, v) in block.iter_mut().zip(layer.plan().periodic(bias)) {
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
    /// Uniform operation statistics (from the [`Counting`] decorator).
    pub counter: OpCounter,
}

/// Runs a compiled program through the plain rotation-algebra oracle with
/// uniform op-counting.
pub fn run_plain(c: &Compiled, input: &Tensor) -> PlainRun {
    let backend = Counting::new(PlainBackend::new(c), c.opts.cost.clone(), c.opts.l_eff);
    let run = run_program(c, &backend, input);
    PlainRun {
        output: run.output,
        counter: backend.into_parts().1,
    }
}
