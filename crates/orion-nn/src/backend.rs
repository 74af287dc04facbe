//! The unified execution layer: one plan walk, pluggable engines.
//!
//! A compiled Orion program (`compile::Step` list + placement policy, and
//! the execution plan built from them once, `Compiled::plan`) runs on an
//! [`EvalBackend`]: an engine behind an associated `Ciphertext` type
//! and exactly the operations the plan walk ([`crate::sched`]) calls —
//! encrypt / decrypt, the free level drop, `HAdd`, bootstrap, and the
//! scale-schedule-aware composite steps (linear layer, scale-down,
//! activation stages). Engines are **`&self`**: keys,
//! encoders, and evaluators are read-only at run time and engines hold no
//! per-run state — which is what lets one engine value serve any number
//! of concurrent walks. The
//! walk itself ([`crate::sched::run_plan`]) is ciphertexts in, ciphertexts
//! out over the program's own plan; `encrypt` / `decrypt` are what
//! [`run_program`] wraps it with. Two
//! engines implement the trait (see [`crate::backends`]):
//!
//! * [`crate::backends::CkksBackend`] — real RNS-CKKS through
//!   `Evaluator`/`FheSession`,
//! * [`crate::backends::ClearBackend`] — cleartext `f64` slots with level
//!   bookkeeping, whose linear layers are either the reference
//!   convolution (`reference`, the paper-scale path) or the executor's
//!   rotation algebra (`packed`, `orion_linear::exec_plain`: the oracle
//!   for the packing math itself).
//!
//! Op counts are not measured, they are read off the plan: once bootstrap
//! placement has fixed every level an inference is a static program, so
//! the paper's "# Rots" / "# Boots" columns are a fold over the plan's
//! units ([`crate::sched::count_plan`]) that every [`ProgramRun`] carries —
//! identical for every engine and every thread a walk runs on by
//! construction, and what the CKKS engine executes (`tests/poly_counts.rs`).
//! Adding a GPU, multi-party, or sharded engine is one trait impl — the
//! walk, the counting, and the placement logic are shared.

use crate::compile::{Compiled, Step};
use crate::sched::run_plan;
use crate::sim::OpCounter;
use orion_ckks::precision::precision_bits;
use orion_linear::values::{BiasValues, ConvDiagSource, DenseDiagSource, DiagSource};
use orion_linear::{ConvSpec, LinearPlan, TensorLayout};
use orion_tensor::Tensor;
use std::borrow::Cow;

/// A borrowed view of one linear layer's parameters (conv or dense),
/// handed to [`EvalBackend::linear_layer`]. `step` is the program node id,
/// the key engines use to find the layer's setup-time artifacts in a
/// `PreparedProgram`.
pub enum LinearRef<'a> {
    /// A packed convolution (also pooling / folded batch-norm).
    Conv {
        /// Program step id.
        step: usize,
        /// The BSGS packing plan.
        plan: &'a LinearPlan,
        /// Convolution geometry.
        spec: &'a ConvSpec,
        /// Folded weights.
        weight: &'a Tensor,
        /// Folded bias.
        bias: &'a [f64],
        /// Input layout.
        in_l: &'a TensorLayout,
        /// Output layout.
        out_l: &'a TensorLayout,
    },
    /// A packed fully-connected layer.
    Dense {
        /// Program step id.
        step: usize,
        /// The BSGS packing plan.
        plan: &'a LinearPlan,
        /// Weights `(n_out, features)`.
        weight: &'a Tensor,
        /// Bias.
        bias: &'a [f64],
        /// Input layout (pre-flatten).
        in_l: &'a TensorLayout,
        /// Output width.
        n_out: usize,
    },
}

impl<'a> LinearRef<'a> {
    /// The view of program step `id`, or `None` when it is not a linear
    /// layer.
    pub fn of(id: usize, step: &'a Step) -> Option<Self> {
        match step {
            Step::Conv {
                plan,
                spec,
                weight,
                bias,
                in_l,
                out_l,
            } => Some(LinearRef::Conv {
                step: id,
                plan,
                spec,
                weight,
                bias,
                in_l,
                out_l,
            }),
            Step::Dense {
                plan,
                weight,
                bias,
                in_l,
                n_out,
            } => Some(LinearRef::Dense {
                step: id,
                plan,
                weight,
                bias,
                in_l,
                n_out: *n_out,
            }),
            _ => None,
        }
    }

    /// The layer's packing plan.
    pub fn plan(&self) -> &'a LinearPlan {
        match self {
            LinearRef::Conv { plan, .. } | LinearRef::Dense { plan, .. } => plan,
        }
    }

    /// The program step id.
    pub fn step(&self) -> usize {
        match self {
            LinearRef::Conv { step, .. } | LinearRef::Dense { step, .. } => *step,
        }
    }

    /// The layer's diagonal source and its bias blocks (one per output
    /// ciphertext of `slots` slots) — what every engine running the
    /// rotation algebra, and the setup-time encoder, feed the plan with.
    pub fn values(&self, slots: usize) -> (Box<dyn DiagSource + Sync + 'a>, Vec<Vec<f64>>) {
        match *self {
            LinearRef::Conv {
                spec,
                weight,
                bias,
                in_l,
                out_l,
                ..
            } => (
                Box::new(ConvDiagSource {
                    in_l: *in_l,
                    out_l: *out_l,
                    spec: *spec,
                    weights: weight,
                }),
                BiasValues::conv(out_l, bias, slots),
            ),
            LinearRef::Dense {
                weight,
                bias,
                in_l,
                n_out,
                ..
            } => (
                Box::new(DenseDiagSource::new(weight.clone(), in_l)),
                BiasValues::dense(n_out, bias, slots),
            ),
        }
    }
}

/// A homomorphic-evaluation engine a compiled program can run on: exactly
/// the operations the plan walk calls, nothing it does not.
///
/// The composite methods own the scale schedule of one program step (real
/// CKKS needs exact-Δ bookkeeping a generic recipe cannot express, and
/// modeled engines need to model at the step granularity). Levels passed
/// in are the placement policy's assignments — inputs have already been
/// dropped to the stated level by the walk.
///
/// All methods take `&self`: concurrent walks (serve workers, batch
/// inference) call them from several threads at once, beside the walks'
/// prefetch tasks, and every operation must be a pure, deterministic
/// function of its arguments — engines hold no per-run state.
pub trait EvalBackend {
    /// The engine's ciphertext representation (`Send + Sync`: walks run on
    /// pool threads and hand their outputs back across threads).
    type Ciphertext: Clone + Send + Sync;

    /// Slots per ciphertext.
    fn slots(&self) -> usize;
    /// Current level of a ciphertext.
    fn level_of(&self, ct: &Self::Ciphertext) -> usize;
    /// log₂ of the ciphertext's current scale, for the telemetry
    /// level/scale-drift trajectories. Engines without a real scale
    /// report 0.
    fn scale_log2_of(&self, ct: &Self::Ciphertext) -> f64 {
        let _ = ct;
        0.0
    }

    /// Encrypts one ciphertext's worth of slot values at `level`.
    fn encrypt(&self, vals: &[f64], level: usize) -> Self::Ciphertext;
    /// Decrypts and decodes one ciphertext.
    fn decrypt(&self, ct: &Self::Ciphertext) -> Vec<f64>;

    /// `HAdd`: ciphertext + ciphertext.
    fn add(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext;
    /// Free drop to a lower level. The walk hands the ciphertext over owned
    /// when this is the last read of its value slot — the engine may then
    /// drop the limbs in place instead of copying the ones it keeps — and
    /// borrowed otherwise; the result is the same either way.
    fn drop_to_level(&self, a: Cow<'_, Self::Ciphertext>, level: usize) -> Self::Ciphertext;
    /// Bootstrap: refreshes to the engine's effective level. Must be a
    /// deterministic function of the input ciphertext — concurrent walks
    /// bootstrap independent ciphertexts at once, and which walk runs first
    /// must not change results.
    fn bootstrap(&self, a: &Self::Ciphertext) -> Self::Ciphertext;

    /// Whether the linear layer at program step `step` encodes
    /// weight/bias plaintexts **per inference** (the on-the-fly path).
    /// Engines serving that step from a prepared cache return `false`, and
    /// [`crate::sched::count_plan`] then leaves the encode cost out of the
    /// per-inference tally (see `OpCounter::encodes`). Queried per step so
    /// a partially prepared cache is tallied honestly.
    fn linear_encodes_per_inference(&self, step: usize) -> bool {
        let _ = step;
        true
    }

    /// Advisory: the walk announces, from a pool task of its own, that the
    /// unit the linear layer at `step` depends on first is about to run, so
    /// a paging engine can start faulting the layer's prepared artifacts
    /// into residency off the critical path. Issued only on a pool wider
    /// than one thread, and never for a layer with no dependency. Default
    /// no-op; must not affect results.
    fn prefetch_linear(&self, step: usize) {
        let _ = step;
    }

    /// One packed linear layer over all input ciphertexts at `level`;
    /// returns the output wire one level lower at exactly scale Δ.
    fn linear_layer(
        &self,
        layer: &LinearRef<'_>,
        inputs: &[Self::Ciphertext],
        level: usize,
    ) -> Vec<Self::Ciphertext>;

    /// Multiplies by `factor ≤ 1` and rescales (activation normalization).
    fn scale_down(&self, ct: &Self::Ciphertext, factor: f64, level: usize) -> Self::Ciphertext;

    /// One Chebyshev stage; the output sits on exactly Δ.
    fn poly_stage(&self, ct: &Self::Ciphertext, coeffs: &[f64], level: usize) -> Self::Ciphertext;
    /// The final ReLU product `m·u·(s+1)/2` (`u` at `level`, `sign` at
    /// `level − 1`); depth 2.
    fn relu_final(
        &self,
        u: &Self::Ciphertext,
        sign: &Self::Ciphertext,
        magnitude: f64,
        level: usize,
    ) -> Self::Ciphertext;
    /// The `x²` activation (depth 2 including exact-Δ alignment).
    fn square_activation(&self, ct: &Self::Ciphertext, level: usize) -> Self::Ciphertext;
}

/// Result of interpreting a compiled program on some backend.
pub struct ProgramRun<Ct> {
    /// The decoded network output.
    pub output: Tensor,
    /// The raw output wire (still "encrypted" in the engine's terms).
    pub output_wire: Vec<Ct>,
    /// The run's op tallies with modeled latency — a property of the plan
    /// that ran ([`crate::sched::count_plan`]), not of the walk. Its
    /// `bootstraps()` counts per ciphertext, as the placement policy's
    /// `boot_count` does.
    pub counter: OpCounter,
    /// The most limb vectors the walk held at once
    /// ([`crate::sched::PlanRun::peak_live_limbs`]).
    pub peak_live_limbs: u64,
}

impl<Ct> ProgramRun<Ct> {
    /// Output precision in bits against a reference output.
    pub fn precision_vs(&self, reference: &Tensor) -> f64 {
        precision_bits(self.output.data(), reference.data())
    }
}

/// Runs a compiled program on `backend` through the plan walk — THE
/// tensor-in, tensor-out entry point, shared by every engine: encrypts the
/// packed input, walks the program's plan ([`Compiled::plan`]) in plan
/// order ([`run_plan`], following the placement policy exactly) and
/// decrypts the output wire. The backend's constructor names the engine and where its
/// weights come from: `CkksBackend::new` (encoded per inference),
/// `CkksBackend::with_prepared` / `with_source` (a prepared cache or a
/// pager), `ClearBackend::reference` (the paper-scale path) or
/// `ClearBackend::packed` (the packing-math oracle).
pub fn run_program<B: EvalBackend + Sync>(
    c: &Compiled,
    backend: &B,
    input: &Tensor,
) -> ProgramRun<B::Ciphertext> {
    let cts = encrypt_input(c, backend, input);
    let run = run_plan(c, backend, cts);
    ProgramRun {
        output: decrypt_output(c, backend, &run.output_wire),
        output_wire: run.output_wire,
        counter: run.counter,
        peak_live_limbs: run.peak_live_limbs,
    }
}

/// Packs `input` into ciphertext-sized slot chunks and encrypts each at
/// `L_eff` — the input wire [`run_plan`] takes. The one packing: the
/// client-side `FheSession::encrypt_input` is this function on the CKKS
/// engine (pre-encrypted requests are only checked for count and level).
pub fn encrypt_input<B: EvalBackend>(
    c: &Compiled,
    backend: &B,
    input: &Tensor,
) -> Vec<B::Ciphertext> {
    let slots = backend.slots();
    let mut packed = c.input_layout.pack(input.data());
    packed.resize(c.input_layout.num_ciphertexts(slots) * slots, 0.0);
    packed
        .chunks(slots)
        .map(|chunk| backend.encrypt(chunk, c.opts.l_eff))
        .collect()
}

/// Decrypts the output wire [`run_plan`] returns and unpacks it into the
/// network's output tensor.
pub fn decrypt_output<B: EvalBackend>(c: &Compiled, backend: &B, wire: &[B::Ciphertext]) -> Tensor {
    let out = c.prog.iter().find(|p| matches!(p.step, Step::Output));
    let layout = &out.expect("program has no output node").layout;
    let mut slots: Vec<f64> = wire.iter().flat_map(|ct| backend.decrypt(ct)).collect();
    slots.resize(layout.total_slots(), 0.0);
    Tensor::from_vec(&[layout.c, layout.h, layout.w], layout.unpack(&slots))
}
