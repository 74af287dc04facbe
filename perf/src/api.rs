//! The program surface the benchmark stands on — the **only** file that
//! names an item of the `orion` crates. Everything else in `perf/` calls
//! these functions and treats the re-exported types as opaque, so a PR
//! that renames or merges a program entry point re-points it here (through
//! a `benchmark` issue) and nowhere else. `perf/README.md` lists the
//! surface.
//!
//! Nothing here measures: timing, sampling and checking live in the
//! callers, around these calls.

use orion::ckks::hoist::{ExtAccumulator, RotatedExt};
use orion::ckks::{Decryptor, Encryptor, HoistedDigits, KeyGenerator, Plaintext};
use orion::core::serve::{ModelId, ServeConfig};
use orion::core::{CkksBackend, DiagStore, LayerSource, PagedProgram};
use orion::linear::exec::{exec_fhe, exec_fhe_prepared, FheLinearContext};
use orion::linear::values::{BiasValues, ConvDiagSource, DenseDiagSource};
use orion::models::Act;
use orion::nn::compile::Step;
use orion::sim::counter::OpKind;
use orion::telemetry::OpClass;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub use orion::ckks::{Ciphertext, CkksParams};
pub use orion::core::serve::{ClientId, Server, Ticket};
pub use orion::core::Orion as Compiler;
pub use orion::core::Prepared;
pub use orion::core::Session;
pub use orion::nn::fit::FitResult;
pub use orion::nn::{Compiled, ExecPlan, Network};
pub use orion::tensor::Tensor;

pub fn simd_dispatch() -> &'static str {
    orion::math::simd::dispatch_name()
}

/// Width of the shared pool; the first call fixes it for the process.
pub fn pool_width() -> usize {
    rayon::current_num_threads()
}

// ---------------------------------------------------------------- models

pub struct Model {
    pub net: Network,
    /// Input shape `(channels, height, width)`.
    pub input: (usize, usize, usize),
}

/// A zoo model with fixed weights. `silu_degree` picks the activation of
/// the models that take one (the CIFAR/ImageNet families).
pub fn zoo_model(name: &str, silu_degree: usize, weight_seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(weight_seed);
    let (net, info) = orion::models::build(name, Act::SiluDeg(silu_degree), &mut rng);
    Model {
        net,
        input: info.input,
    }
}

/// 4×8×8 input, 1×1-conv stem(8) + SiLU-15, then two residual blocks
/// [1×1 conv → ReLU{15,15,27} → 1×1 conv → add → SiLU-15].
pub fn resblock_model(weight_seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(weight_seed);
    let mut net = Network::new(4, 8, 8);
    let x = net.input();
    let stem = net.conv2d("stem", x, 8, 1, 1, 0, 1, &mut rng);
    let mut cur = net.silu("stem_act", stem, 15);
    for b in 0..2 {
        let c1 = net.conv2d(&format!("b{b}_conv1"), cur, 8, 1, 1, 0, 1, &mut rng);
        let r = net.relu(&format!("b{b}_relu"), c1, &[15, 15, 27]);
        let c2 = net.conv2d(&format!("b{b}_conv2"), r, 8, 1, 1, 0, 1, &mut rng);
        let sum = net.add(&format!("b{b}_add"), c2, cur);
        cur = net.silu(&format!("b{b}_act"), sum, 15);
    }
    net.output(cur);
    Model {
        net,
        input: (4, 8, 8),
    }
}

/// 64 → 16 → x² → 4 on a 1×8×8 input.
pub fn serve_mlp_model(weight_seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(weight_seed);
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 16, &mut rng);
    let a = net.square("act", l1);
    let l2 = net.linear("fc2", a, 4, &mut rng);
    net.output(l2);
    Model {
        net,
        input: (1, 8, 8),
    }
}

/// 3×3 conv(4) → x² → fc16 → x² → fc4 on a 1×8×8 input.
pub fn serve_conv_model(weight_seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(weight_seed);
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let c = net.conv2d("conv", x, 4, 3, 1, 1, 1, &mut rng);
    let a1 = net.square("act1", c);
    let f = net.flatten("flat", a1);
    let l1 = net.linear("fc1", f, 16, &mut rng);
    let a2 = net.square("act2", l1);
    let l2 = net.linear("fc2", a2, 4, &mut rng);
    net.output(l2);
    Model {
        net,
        input: (1, 8, 8),
    }
}

/// The serving parameter set: N = 2¹⁰, L = 6, one bootstrap level.
pub fn serve_params() -> CkksParams {
    CkksParams {
        n: 1 << 10,
        log_scale: 30,
        q0_bits: 45,
        max_level: 6,
        special_bits: 45,
        sigma: 3.2,
        boot_levels: 1,
    }
}

pub fn params_small() -> CkksParams {
    CkksParams::small()
}

/// `CkksParams::medium()` (Δ = 2⁴⁰, L = 12, four bootstrap levels) on the
/// ring N = 2¹¹: the chain and the precision of the examples' parameter
/// set, with ciphertexts a quarter the size, so that an inference of
/// `resblock_act` takes ~0.25 s instead of ~1.1 s (README, "Short ops").
pub fn resblock_params() -> CkksParams {
    CkksParams {
        n: 1 << 11,
        ..CkksParams::medium()
    }
}

pub fn images(shape: (usize, usize, usize), count: usize, seed: u64) -> Vec<Tensor> {
    orion::models::data::synthetic_images(shape.0, shape.1, shape.2, count, seed)
}

/// What the compiled program should output: the network evaluated in the
/// clear with the same polynomial activations.
pub fn reference(net: &Network, compiled: &Compiled, input: &Tensor) -> Tensor {
    net.forward_poly(input, &compiled.acts)
}

pub fn precision_bits(output: &Tensor, reference: &Tensor) -> f64 {
    orion::ckks::precision::precision_bits(output.data(), reference.data())
}

// --------------------------------------- compile · verify · plan · optimize

pub fn compiler_for(params: &CkksParams) -> Compiler {
    Compiler::for_params(params)
}

pub fn compiler_paper() -> Compiler {
    Compiler::paper_scale()
}

pub fn calibrate_batch_norm(net: &mut Network, calib: &[Tensor]) {
    orion::nn::fit::calibrate_batch_norm(net, calib);
}

pub fn fit_ranges(net: &Network, calib: &[Tensor]) -> FitResult {
    orion::nn::fit::fit_robust(net, calib, 4)
}

pub fn compile(compiler: &Compiler, net: &Network, ranges: &FitResult) -> Compiled {
    compiler.compile_with_ranges(net, ranges)
}

pub struct Verdict {
    pub errors: usize,
    pub certified_peak_limbs: u64,
}

pub fn verify(compiled: &Compiled) -> Verdict {
    let report = orion::nn::verify_compiled(compiled, &orion::nn::VerifyConfig::default());
    Verdict {
        errors: report.error_count(),
        certified_peak_limbs: report.peak_limbs.unwrap_or(0),
    }
}

pub fn plan_build(compiled: &Compiled) -> ExecPlan {
    ExecPlan::build(compiled)
}

pub fn plan_units(plan: &ExecPlan) -> usize {
    plan.units.len()
}

pub struct OptSummary {
    pub hoists_eliminated: u64,
    pub rejected_passes: u64,
}

pub fn plan_optimize(plan: &mut ExecPlan, compiled: &Compiled) -> OptSummary {
    let stats = orion::nn::optimize_plan(plan, compiled, orion::nn::OptConfig::default());
    OptSummary {
        hoists_eliminated: stats.rotation_cse.hoists_eliminated,
        rejected_passes: stats.rejected_passes,
    }
}

/// Deterministic facts of a compiled program.
pub struct PlanFacts {
    pub boot_count: u64,
    pub planned_rotations: usize,
    /// The cost model's seconds for one inference — modeled, not measured.
    pub modeled_latency_s: f64,
    pub placement_s: f64,
}

pub fn plan_facts(compiled: &Compiled) -> PlanFacts {
    PlanFacts {
        boot_count: compiled.placement.boot_count,
        planned_rotations: compiled.planned_rotations(),
        modeled_latency_s: compiled.placement.total_latency,
        placement_s: compiled.placement.placement_seconds,
    }
}

/// Output of a compiled program on the cleartext trace engine.
pub fn trace_output(compiled: &Compiled, input: &Tensor) -> Tensor {
    orion::core::trace_inference(compiled, input).output
}

// ------------------------------------------------------- encrypted inference

pub fn session(params: CkksParams, compiled: &Compiled, key_seed: u64) -> Session {
    orion::core::fhe_session(params, compiled, key_seed)
}

pub fn prepare(compiler: &Compiler, compiled: &Compiled, session: &Session) -> Arc<Prepared> {
    compiler.prepare_fhe(compiled, session)
}

/// Megabytes of evaluation-key material (parts and their Shoup tables).
pub fn eval_key_mb(session: &Session) -> f64 {
    let n = session.ctx.degree();
    let keys = session.eval.keys();
    let poly = |p: &orion::ckks::poly::RnsPoly| (p.limbs.len() + p.special.iter().len()) * n * 8;
    let key_bytes = |k: &orion::ckks::keys::KeySwitchKey| -> usize {
        k.parts
            .iter()
            .chain(&k.parts_shoup)
            .map(|(b, a)| poly(b) + poly(a))
            .sum()
    };
    let total: usize = std::iter::once(&keys.relin)
        .chain(keys.rot.values())
        .chain(keys.conj.iter())
        .map(key_bytes)
        .sum();
    total as f64 / 1e6
}

/// Number of key-switch keys the session generated.
pub fn eval_key_count(session: &Session) -> usize {
    let keys = session.eval.keys();
    1 + keys.rot.len() + keys.conj.iter().len()
}

/// One encrypted inference: encrypt, run on resident prepared weights,
/// decrypt.
pub fn infer(c: &Compiled, s: &Session, p: &Arc<Prepared>, input: &Tensor) -> Tensor {
    orion::core::fhe_inference_prepared(c, s, p, input).output
}

/// Independent inferences over pre-encrypted inputs, fanned out on the
/// shared pool exactly as `fhe_inference_batch_prepared` fans out — but
/// not through it. That function encrypts inside the pool, and
/// `CkksBackend::encrypt` holds the session's RNG mutex across the
/// limb-parallel NTTs of `Encryptor::encrypt`: at N ≥ 2¹² on a pool wider
/// than one thread, the waiting thread helps with queued work, can pick up
/// another inference of the batch, and then locks the same mutex again — a
/// self-deadlock this benchmark hit once in ~60 batches at width 2. With
/// the inputs encrypted beforehand no inference takes that lock.
pub fn infer_batch(
    c: &Compiled,
    s: &Session,
    p: &Arc<Prepared>,
    inputs: Vec<Vec<Ciphertext>>,
) -> Vec<Tensor> {
    inputs
        .into_par_iter()
        .map(|cts| {
            orion::nn::fhe_exec::run_fhe_prepared_cts(c, s, p, cts)
                .0
                .output
        })
        .collect()
}

pub fn encrypt_input(s: &Session, c: &Compiled, input: &Tensor) -> Vec<Ciphertext> {
    s.encrypt_input(c, input)
}

/// Homomorphic ops of one inference as the `OpCounter` tallies them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub hrot: u64,
    pub hrot_hoisted: u64,
    pub hoist: u64,
    pub moddown: u64,
    pub pmult: u64,
    pub hmult: u64,
    pub rescale: u64,
    pub bootstrap: u64,
    pub encodes: u64,
}

impl std::ops::AddAssign for OpCounts {
    fn add_assign(&mut self, o: OpCounts) {
        self.hrot += o.hrot;
        self.hrot_hoisted += o.hrot_hoisted;
        self.hoist += o.hoist;
        self.moddown += o.moddown;
        self.pmult += o.pmult;
        self.hmult += o.hmult;
        self.rescale += o.rescale;
        self.bootstrap += o.bootstrap;
        self.encodes += o.encodes;
    }
}

fn op_counts(counter: &orion::sim::OpCounter) -> OpCounts {
    OpCounts {
        hrot: counter.count(OpKind::HRot),
        hrot_hoisted: counter.count(OpKind::HRotHoisted),
        hoist: counter.count(OpKind::Hoist),
        moddown: counter.count(OpKind::ModDown),
        pmult: counter.count(OpKind::PMult),
        hmult: counter.count(OpKind::HMult),
        rescale: counter.count(OpKind::Rescale),
        bootstrap: counter.count(OpKind::Bootstrap),
        encodes: counter.encodes,
    }
}

/// One inference over pre-encrypted input, with its op tallies.
pub fn infer_counted(
    c: &Compiled,
    s: &Session,
    p: &Arc<Prepared>,
    cts: Vec<Ciphertext>,
) -> (Tensor, OpCounts) {
    let (run, counter) = orion::nn::fhe_exec::run_fhe_prepared_cts(c, s, p, cts);
    (run.output, op_counts(&counter))
}

/// Activation constants one inference had to encode because the prepared
/// recording did not hold them (0 on a fully prepared program).
pub fn act_cache_misses(c: &Compiled, s: &Session, p: &Arc<Prepared>, input: &Tensor) -> u64 {
    let backend = CkksBackend::with_prepared(s, Arc::clone(p));
    orion::core::run_program(c, &backend, input);
    backend.act_cache_misses()
}

// ------------------------------------------------------------- kernel probes

/// The workload's own ring: one NTT table and modulus of its context, and
/// the kernel table the process dispatched to.
pub struct MathProbe<'s> {
    s: &'s Session,
}

impl<'s> MathProbe<'s> {
    pub fn new(s: &'s Session) -> Self {
        Self { s }
    }

    pub fn degree(&self) -> usize {
        self.s.ctx.degree()
    }

    pub fn modulus(&self) -> u64 {
        self.s.ctx.moduli[0]
    }

    /// Gadget digits of a key switch at the top level.
    pub fn ks_digits(&self) -> usize {
        self.s.eval.keys().relin.parts.len()
    }

    pub fn ntt_fwd(&self, a: &mut [u64]) {
        self.s.ctx.ntt[0].forward_lazy(a);
    }

    pub fn ntt_inv(&self, a: &mut [u64]) {
        self.s.ctx.ntt[0].inverse_lazy(a);
    }

    pub fn pointwise_mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        (orion::math::simd::kernels().mul_pointwise)(out, a, b, self.modulus());
    }

    pub fn pointwise_mac(&self, acc: &mut [u64], a: &[u64], b: &[u64]) {
        (orion::math::simd::kernels().add_mul)(acc, a, b, self.modulus());
    }

    /// Fused key-switch inner product of one limb over `digits.len()`
    /// digits; `shoup` must hold the Shoup constants of `key`.
    pub fn ks_accum(&self, acc: &mut [u64], digits: &[&[u64]], key: &[&[u64]], shoup: &[&[u64]]) {
        (orion::math::simd::kernels().ks_accum)(acc, digits, key, shoup, self.modulus());
    }

    pub fn shoup(&self, x: u64) -> u64 {
        orion::math::modular::shoup_precompute(x, self.modulus())
    }

    /// Takes a limb-sized scratch buffer from the arena and gives it back.
    pub fn arena_take(&self) -> usize {
        let v = orion::math::arena::take_u64(self.degree());
        let p = v.as_ptr() as usize;
        orion::math::arena::recycle_u64(v);
        p
    }
}

// --------------------------------------------------------------- CKKS probes

/// Single CKKS operations on the workload's own keys, at the median
/// placement level of its program —
/// one per kind the op counter tallies, each in the form the BSGS executor
/// and the poly evaluator issue it. Encrypt/decrypt use a probe-private key
/// pair on the same context: they are client-side and need no evaluation
/// key.
pub struct CkksProbe<'s> {
    s: &'s Session,
    ct: Ciphertext,
    low: Ciphertext,
    product: Ciphertext,
    pt: Plaintext,
    /// A weight diagonal as the prepared path stores it (prime scale,
    /// with the special limb).
    diag: Plaintext,
    vals: Vec<f64>,
    step: isize,
    encryptor: Encryptor,
    decryptor: Decryptor,
}

impl<'s> CkksProbe<'s> {
    pub fn new(s: &'s Session, c: &Compiled, input: &Tensor) -> Self {
        // Cost grows with the level, so probe at the level the program's
        // steps typically run at: the median of their placement levels.
        let mut levels: Vec<usize> = c.placement.levels.iter().flatten().copied().collect();
        levels.sort_unstable();
        let typical = levels.get(levels.len() / 2).copied().unwrap_or(1).max(1);
        let mut ct = s.encrypt_input(c, input).swap_remove(0);
        s.eval.drop_to_level(&mut ct, typical);
        let mut low = ct.clone();
        s.eval.drop_to_level(&mut low, 1);
        let vals: Vec<f64> = (0..s.ctx.slots())
            .map(|i| (i % 17) as f64 / 17.0 - 0.5)
            .collect();
        let pt = s.enc.encode(&vals, s.ctx.scale(), ct.level(), false);
        let product = s.eval.mul_plain(&ct, &pt);
        let diag = s.enc.encode_at_prime_scale_ws(&vals, ct.level());
        let mut kg = KeyGenerator::new(s.ctx.clone(), StdRng::seed_from_u64(0x9e0b));
        let pk = Arc::new(kg.gen_public_key());
        Self {
            s,
            low,
            product,
            pt,
            diag,
            vals,
            step: c.rotation_steps().first().copied().unwrap_or(0),
            encryptor: Encryptor::with_public_key(s.ctx.clone(), pk),
            decryptor: Decryptor::new(s.ctx.clone(), kg.secret_key()),
            ct,
        }
    }

    pub fn rotate(&self) -> Ciphertext {
        self.s.eval.rotate(&self.ct, self.step)
    }

    pub fn hoist(&self) -> HoistedDigits {
        HoistedDigits::new(&self.s.ctx, &self.ct)
    }

    /// A hoisted rotation as the BSGS executor performs it: key-switch
    /// inner product kept in the extended basis, ModDown deferred.
    pub fn hoisted_rotate(&self, hoisted: &HoistedDigits) -> RotatedExt {
        hoisted.rotate_ext(&self.s.eval, self.step)
    }

    pub fn accumulator(&self) -> ExtAccumulator {
        ExtAccumulator::new(&self.s.ctx, self.ct.level())
    }

    /// One plaintext multiply-accumulate of a rotated input by a weight
    /// diagonal, in the extended basis.
    pub fn mul_plain(&self, acc: &mut ExtAccumulator, rotated: &RotatedExt) {
        acc.add_pmult_rotated(&self.s.eval, rotated, &self.diag);
    }

    /// The deferred ModDown that closes a giant-step group.
    pub fn moddown(&self, acc: ExtAccumulator) -> Ciphertext {
        acc.finalize(&self.s.eval)
    }

    pub fn mul_relin(&self) -> Ciphertext {
        self.s.eval.mul_relin(&self.ct, &self.ct)
    }

    pub fn rescale(&self) -> Ciphertext {
        let mut ct = self.product.clone();
        self.s.eval.rescale_assign(&mut ct);
        ct
    }

    /// The bootstrap *oracle* (decrypt, add noise, re-encrypt): its time
    /// is a stand-in, not the cost of a real bootstrap.
    pub fn bootstrap_oracle(&self) -> Ciphertext {
        self.s.oracle.refresh(&self.low)
    }

    pub fn encode(&self) -> Plaintext {
        self.s
            .enc
            .encode(&self.vals, self.s.ctx.scale(), self.ct.level(), false)
    }

    pub fn encrypt(&self, seed: u64) -> Ciphertext {
        self.encryptor
            .encrypt(&self.pt, &mut StdRng::seed_from_u64(seed))
    }

    pub fn decrypt_decode(&self, ct: &Ciphertext) -> Vec<f64> {
        self.s.enc.decode(&self.decryptor.decrypt(ct))
    }
}

// ------------------------------------------------------------- linear probes

/// Program steps that are linear layers, with the level placement gave
/// them.
pub fn linear_steps(c: &Compiled) -> Vec<usize> {
    (0..c.prog.len())
        .filter(|&id| {
            matches!(c.prog[id].step, Step::Conv { .. } | Step::Dense { .. })
                && c.placement.levels[id].is_some()
        })
        .collect()
}

fn linear_plan(c: &Compiled, step: usize) -> &orion::linear::LinearPlan {
    match &c.prog[step].step {
        Step::Conv { plan, .. } | Step::Dense { plan, .. } => plan,
        other => panic!("step {step} is not a linear layer: {other:?}"),
    }
}

/// Input ciphertexts for linear step `step`: `seed_cts` cycled to the
/// layer's block count and dropped to its level.
pub fn linear_inputs(
    c: &Compiled,
    s: &Session,
    step: usize,
    seed_cts: &[Ciphertext],
) -> Vec<Ciphertext> {
    let level = c.placement.levels[step].expect("linear step is placed");
    (0..linear_plan(c, step).in_blocks)
        .map(|i| {
            let mut ct = seed_cts[i % seed_cts.len()].clone();
            s.eval.drop_to_level(&mut ct, level);
            ct
        })
        .collect()
}

/// One linear layer from its prepared (setup-time encoded) weights.
pub fn linear_prepared(
    c: &Compiled,
    s: &Session,
    p: &Prepared,
    step: usize,
    inputs: &[Ciphertext],
) -> Vec<Ciphertext> {
    let ctx = FheLinearContext {
        eval: &s.eval,
        enc: &s.enc,
    };
    let layer = p
        .layer(step)
        .expect("prepared program holds every linear step");
    exec_fhe_prepared(&ctx, linear_plan(c, step), layer, inputs)
}

/// The same layer through the encode-per-call path.
pub fn linear_onthefly(
    c: &Compiled,
    s: &Session,
    step: usize,
    inputs: &[Ciphertext],
) -> Vec<Ciphertext> {
    let ctx = FheLinearContext {
        eval: &s.eval,
        enc: &s.enc,
    };
    let slots = s.ctx.slots();
    match &c.prog[step].step {
        Step::Conv {
            plan,
            spec,
            weight,
            bias,
            in_l,
            out_l,
        } => {
            let src = ConvDiagSource {
                in_l: *in_l,
                out_l: *out_l,
                spec: *spec,
                weights: weight,
            };
            let bias = BiasValues::conv(out_l, bias, slots);
            exec_fhe(&ctx, plan, &src, Some(&bias), inputs)
        }
        Step::Dense {
            plan,
            weight,
            bias,
            in_l,
            n_out,
        } => {
            let src = DenseDiagSource::new(weight.clone(), in_l);
            let bias = BiasValues::dense(*n_out, bias, slots);
            exec_fhe(&ctx, plan, &src, Some(&bias), inputs)
        }
        other => panic!("step {step} is not a linear layer: {other:?}"),
    }
}

// --------------------------------------------------------------------- pager

pub struct Pager(PagedProgram);

#[derive(Clone, Copy, Debug, Default)]
pub struct PageFacts {
    pub faults: u64,
    pub evictions: u64,
    pub prefetches: u64,
    pub prefetch_hits: u64,
    pub resident_mb: f64,
}

fn page_facts(p: orion::core::PageStats) -> PageFacts {
    PageFacts {
        faults: p.faults,
        evictions: p.evictions,
        prefetches: p.prefetches,
        prefetch_hits: p.prefetch_hits,
        resident_mb: p.resident_bytes as f64 / 1e6,
    }
}

/// Writes every prepared layer to spill files under `dir` and returns a
/// pager with an empty resident set.
pub fn page_out(p: &Prepared, dir: &Path, budget_bytes: usize) -> Result<Pager, String> {
    let store = DiagStore::open(dir).map_err(|e| e.to_string())?;
    PagedProgram::page_out(p, store, "probe", budget_bytes)
        .map(Pager)
        .map_err(|e| e.to_string())
}

/// Fetches one layer through the pager (a cold fetch reads the spill file).
pub fn page_fetch(pager: &Pager, step: usize) -> Result<bool, String> {
    pager
        .0
        .fetch_layer(step)
        .map(|l| l.is_some())
        .map_err(|e| e.to_string())
}

pub fn prepared_bytes(p: &Prepared) -> usize {
    p.approx_bytes()
}

// -------------------------------------------------------------------- server

pub fn server_new(
    workers: usize,
    max_batch: usize,
    max_wait_ms: u64,
    queue_capacity: usize,
) -> Server {
    Server::new(ServeConfig {
        max_batch,
        max_wait: Duration::from_millis(max_wait_ms),
        workers,
        queue_capacity,
    })
}

#[derive(Clone, Copy)]
pub struct ModelHandle(ModelId);

pub fn add_model_resident(
    server: &Server,
    name: &str,
    compiled: Compiled,
    params: CkksParams,
    prep_seed: u64,
) -> Result<ModelHandle, String> {
    server
        .add_model(name, compiled, params, prep_seed)
        .map(ModelHandle)
        .map_err(|e| e.to_string())
}

pub fn add_model_paged(
    server: &Server,
    name: &str,
    compiled: Compiled,
    params: CkksParams,
    prep_seed: u64,
    store_dir: &Path,
    budget_bytes: usize,
) -> Result<ModelHandle, String> {
    server
        .add_model_paged(name, compiled, params, prep_seed, store_dir, budget_bytes)
        .map(ModelHandle)
        .map_err(|e| e.to_string())
}

pub fn add_client(server: &Server, model: ModelHandle, key_seed: u64) -> Result<ClientId, String> {
    server
        .add_client(model.0, key_seed)
        .map_err(|e| e.to_string())
}

pub fn server_start(server: &mut Server) {
    server.start();
}

pub fn server_shutdown(server: &mut Server) {
    server.shutdown();
}

pub fn server_encrypt(
    server: &Server,
    client: ClientId,
    input: &Tensor,
) -> Result<Vec<Ciphertext>, String> {
    server.encrypt(client, input).map_err(|e| e.to_string())
}

/// Why a request did not produce an output.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Refusal {
    /// The admission queue was full.
    QueueFull,
    /// Any other typed serve error.
    Error,
}

fn refusal(e: orion::core::serve::ServeError) -> Refusal {
    match e {
        orion::core::serve::ServeError::QueueFull { .. } => Refusal::QueueFull,
        _ => Refusal::Error,
    }
}

pub fn submit(server: &Server, client: ClientId, cts: Vec<Ciphertext>) -> Result<Ticket, Refusal> {
    server.submit(client, cts).map_err(refusal)
}

/// What the harness reads from a served result.
pub struct Served {
    pub output: Tensor,
    pub queue_s: f64,
    pub exec_s: f64,
    pub counts: OpCounts,
}

pub fn wait(ticket: Ticket) -> Result<Served, Refusal> {
    ticket.wait().map_err(refusal).map(|o| Served {
        queue_s: o.queue_seconds,
        exec_s: o.wall_seconds,
        counts: op_counts(&o.counter),
        output: o.output,
    })
}

pub fn server_compiled(server: &Server, client: ClientId) -> Result<Arc<Compiled>, String> {
    server.compiled(client).map_err(|e| e.to_string())
}

pub fn server_session(server: &Server, client: ClientId) -> Result<Arc<Session>, String> {
    server.session(client).map_err(|e| e.to_string())
}

pub fn server_page_facts(server: &Server, model: ModelHandle) -> PageFacts {
    server
        .page_stats(model.0)
        .map(page_facts)
        .unwrap_or_default()
}

/// Counters the server keeps itself, summed or maxed over its models.
#[derive(Default, Debug)]
pub struct ServerFacts {
    pub batch_occupancy_avg: f64,
    pub peak_queue_depth: f64,
    pub errors: f64,
}

pub fn server_facts(server: &Server) -> ServerFacts {
    let snapshot = server.metrics();
    let mut facts = ServerFacts::default();
    let (mut batches, mut occupancy) = (0.0, 0.0);
    if let Some(serde_json::Value::Arr(models)) = snapshot.get("models") {
        for m in models {
            let f = |k: &str| m.get(k).and_then(serde_json::Value::as_f64).unwrap_or(0.0);
            batches += f("batches");
            occupancy += f("batch_occupancy_avg") * f("batches");
            facts.peak_queue_depth = facts.peak_queue_depth.max(f("peak_queue_depth"));
            facts.errors += f("errors");
        }
    }
    if batches > 0.0 {
        facts.batch_occupancy_avg = occupancy / batches;
    }
    facts
}

// ----------------------------------------------------------------- telemetry

pub fn telemetry_enable() {
    orion::telemetry::enable();
}

pub fn telemetry_disable() {
    orion::telemetry::disable();
}

/// The scheduler's own report of its most recent plan walk.
pub struct RunFacts {
    pub wall_ms: f64,
    pub busy_ms: f64,
    pub queue_ms: f64,
    pub critical_path_ms: f64,
    pub units: usize,
}

pub fn last_run() -> Option<RunFacts> {
    let ms = |ns: u64| ns as f64 / 1e6;
    orion::telemetry::last_run().map(|r| RunFacts {
        wall_ms: ms(r.wall_ns),
        busy_ms: ms(r.busy_ns),
        queue_ms: ms(r.queue_ns),
        critical_path_ms: ms(r.critical_path_ns),
        units: r.units,
    })
}

/// Running totals of the collector's op-class histograms, in ms.
#[derive(Clone, Copy, Default, Debug)]
pub struct ClassTotals {
    pub linear_ms: f64,
    pub poly_ms: f64,
    pub bootstrap_ms: f64,
}

impl ClassTotals {
    pub fn since(self, before: ClassTotals) -> ClassTotals {
        ClassTotals {
            linear_ms: self.linear_ms - before.linear_ms,
            poly_ms: self.poly_ms - before.poly_ms,
            bootstrap_ms: self.bootstrap_ms - before.bootstrap_ms,
        }
    }
}

pub fn class_totals() -> ClassTotals {
    let ms = |c: OpClass| orion::telemetry::op_histogram(c).sum() as f64 / 1e6;
    ClassTotals {
        linear_ms: ms(OpClass::LinearLayer),
        poly_ms: ms(OpClass::PolyStage),
        bootstrap_ms: ms(OpClass::Bootstrap),
    }
}

/// Drains the collector: `(events recorded, Chrome trace JSON)`.
pub fn drain_trace() -> (usize, String) {
    let events = orion::telemetry::drain();
    (
        events.len(),
        orion::telemetry::trace::chrome_trace_json(&events),
    )
}
