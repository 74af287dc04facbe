//! [`TraceBackend`]: the modeled cleartext engine.
//!
//! Values are computed exactly (reference convolutions + fitted
//! polynomial activations) on plain `f64` slot vectors while the
//! underlying [`TraceEngine`] enforces FHE legality — multiplications
//! must be rescaled, rescales consume levels, level-0 wires must
//! bootstrap. This is how the paper's ImageNet-scale reporting columns
//! are regenerated without hours of modular arithmetic
//! ([`crate::backend::ProgramRun::counter`]).

use crate::backend::{EvalBackend, LinearRef};
use crate::compile::Compiled;
use orion_poly::cheb::ChebPoly;
use orion_sim::trace::{TraceCiphertext, TraceEngine};
use orion_tensor::{conv2d, linear, Conv2dParams, Tensor};

/// The modeled cleartext engine (see module docs).
pub struct TraceBackend {
    /// The legality-enforcing trace engine.
    pub engine: TraceEngine,
    prepared: bool,
}

impl TraceBackend {
    /// Builds an engine matching a compiled program's options.
    pub fn new(c: &Compiled) -> Self {
        let l_eff = c.opts.l_eff;
        Self {
            engine: TraceEngine::new(c.opts.slots, l_eff, l_eff),
            prepared: false,
        }
    }

    /// Builds an engine that models the *prepared* serving mode: weight
    /// encodes happen at setup, so the per-inference tally records zero
    /// encodes — mirroring `CkksBackend::with_prepared` so modeled and
    /// real runs stay counter-identical.
    pub fn prepared(c: &Compiled) -> Self {
        Self {
            prepared: true,
            ..Self::new(c)
        }
    }
}

/// Splits a packed slot vector into ciphertext-sized blocks at `level`.
pub(crate) fn chunk_blocks(
    slots_vec: Vec<f64>,
    slots: usize,
    level: usize,
) -> Vec<TraceCiphertext> {
    let blocks = slots_vec.len().div_ceil(slots).max(1);
    (0..blocks)
        .map(|b| {
            let mut s = vec![0.0; slots];
            let lo = b * slots;
            let hi = ((b + 1) * slots).min(slots_vec.len());
            s[..hi - lo].copy_from_slice(&slots_vec[lo..hi]);
            TraceCiphertext {
                slots: s,
                level,
                pending: 0,
            }
        })
        .collect()
}

/// Concatenates the first `n` slots across a wire's ciphertexts.
pub(crate) fn gather_slots(cts: &[TraceCiphertext], n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    for ct in cts {
        out.extend_from_slice(&ct.slots);
    }
    out.resize(n, 0.0);
    out
}

impl EvalBackend for TraceBackend {
    type Ciphertext = TraceCiphertext;
    // The trace engine computes linear layers by reference convolution on
    // gathered slots — there is no rotation algebra to share, so the
    // shared-rotation handle is empty and ignored.
    type SharedRot = ();

    fn name(&self) -> &'static str {
        "trace"
    }

    fn slots(&self) -> usize {
        self.engine.slots
    }

    fn level_of(&self, ct: &TraceCiphertext) -> usize {
        ct.level
    }

    fn encrypt(&self, vals: &[f64], level: usize) -> TraceCiphertext {
        self.engine.encrypt(vals, level)
    }

    fn decrypt(&self, ct: &TraceCiphertext) -> Vec<f64> {
        self.engine.decrypt(ct)
    }

    fn add(&self, a: &TraceCiphertext, b: &TraceCiphertext) -> TraceCiphertext {
        self.engine.hadd(a, b)
    }

    fn drop_to_level(&self, a: &TraceCiphertext, level: usize) -> TraceCiphertext {
        self.engine.drop_to_level(a, level)
    }

    fn bootstrap(&self, a: &TraceCiphertext) -> TraceCiphertext {
        self.engine.bootstrap(a)
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
        inputs: &[TraceCiphertext],
        level: usize,
        _shared: Option<&Self::SharedRot>,
    ) -> Vec<TraceCiphertext> {
        let slots = self.engine.slots;
        match layer {
            LinearRef::Conv {
                spec,
                weight,
                bias,
                in_l,
                out_l,
                ..
            } => {
                let raster = in_l.unpack(&gather_slots(inputs, in_l.total_slots()));
                let x = Tensor::from_vec(&[in_l.c, in_l.h, in_l.w], raster);
                let p = Conv2dParams {
                    stride: spec.stride,
                    padding: spec.padding,
                    dilation: spec.dilation,
                    groups: spec.groups,
                };
                let y = conv2d(&x, weight, bias, p);
                chunk_blocks(out_l.pack(y.data()), slots, level - 1)
            }
            LinearRef::Dense {
                weight, bias, in_l, ..
            } => {
                let raster = in_l.unpack(&gather_slots(inputs, in_l.total_slots()));
                let y = linear(&raster, weight, bias);
                chunk_blocks(y, slots, level - 1)
            }
        }
    }

    fn hoist_rotations(
        &self,
        _cts: &[TraceCiphertext],
        _level: usize,
        _rots: &[(u32, usize)],
    ) -> Self::SharedRot {
    }

    fn scale_down(&self, ct: &TraceCiphertext, factor: f64, _level: usize) -> TraceCiphertext {
        let m = self.engine.pmult_scalar(ct, factor);
        self.engine.rescale(&m)
    }

    fn poly_stage(
        &self,
        ct: &TraceCiphertext,
        coeffs: &[f64],
        normalize: bool,
        level: usize,
        _step: usize,
    ) -> TraceCiphertext {
        let d = coeffs.len() - 1;
        let depth = orion_poly::eval::fhe_eval_depth(d) + usize::from(normalize);
        let p = ChebPoly::new(coeffs.to_vec());
        TraceCiphertext {
            slots: ct.slots.iter().map(|&x| p.eval(x)).collect(),
            level: level - depth,
            pending: 0,
        }
    }

    fn relu_final(
        &self,
        u: &TraceCiphertext,
        sign: &TraceCiphertext,
        magnitude: f64,
        level: usize,
    ) -> TraceCiphertext {
        TraceCiphertext {
            slots: u
                .slots
                .iter()
                .zip(&sign.slots)
                .map(|(&x, &sg)| magnitude * x * (sg + 1.0) * 0.5)
                .collect(),
            level: level - 2,
            pending: 0,
        }
    }

    fn square_activation(&self, ct: &TraceCiphertext, level: usize) -> TraceCiphertext {
        TraceCiphertext {
            slots: ct.slots.iter().map(|&x| x * x).collect(),
            level: level - 2,
            pending: 0,
        }
    }
}
