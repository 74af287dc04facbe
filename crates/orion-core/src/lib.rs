//! The top-level Orion API: one call from a PyTorch-like network to an
//! executable FHE program, plus convenience wrappers tying the whole
//! pipeline together (the `orion` package of the paper's Listing 1).
//!
//! ```no_run
//! use orion_core::Orion;
//! use orion_models::{build, Act};
//! use orion_models::data::synthetic_images;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let (net, info) = build("resnet20", Act::Silu, &mut rng);
//! let calib = synthetic_images(3, 32, 32, 4, 2);
//! let orion = Orion::paper_scale();
//! let compiled = orion.compile(&net, &calib);
//! println!("{}: {} rotations, {} bootstraps", info.name,
//!          compiled.planned_rotations(), compiled.placement.boot_count);
//! ```

use orion_ckks::CkksParams;
use orion_linear::prepared::PreparedProgram;
use orion_nn::backend::ProgramRun;
use orion_nn::backends::{run_plain, run_trace, ClearCiphertext};
use orion_nn::compile::{compile, CompileOptions, Compiled};
use orion_nn::fhe_exec::{run_fhe, run_fhe_prepared, FheRun, FheSession};
use orion_nn::fit::fit_robust;
use orion_nn::network::Network;
use orion_tensor::Tensor;
use rayon::prelude::*;
use std::sync::Arc;

pub use orion_linear::paged::{LayerSource, PageStats, PagedProgram};
pub use orion_linear::prepared::{PreparedLayer, PreparedProgram as Prepared};
pub use orion_linear::store::{DiagStore, StoreError};
pub use orion_nn::backend::{run_program, EvalBackend};
pub use orion_nn::backends::{CkksBackend, ClearBackend};
pub use orion_nn::compile::Step;
pub use orion_nn::fhe_exec::FheSession as Session;
pub use orion_nn::sched::ExecPlan;

/// The multi-tenant serving layer: session registry, admission queue +
/// worker pool, memory-capped paged weights, serving metrics. See
/// `orion-serve`'s crate docs; re-exported here so `orion_core` remains
/// the single public entry point.
pub mod serve {
    pub use orion_serve::{
        ClientId, ModelId, ModelMetrics, ServeConfig, ServeError, ServeOutput, Server, Ticket,
    };
}
pub use serve::{ServeConfig, Server};

/// The Orion compiler front end.
pub struct Orion {
    opts: CompileOptions,
}

impl Orion {
    /// Compiler targeting the paper's deployment parameters
    /// (N = 2¹⁶ model, L_eff = 10) — use with [`trace_inference`].
    pub fn paper_scale() -> Self {
        Self {
            opts: CompileOptions::paper(),
        }
    }

    /// Compiler matching a concrete CKKS parameter set — use for real FHE
    /// execution.
    pub fn for_params(params: &CkksParams) -> Self {
        Self {
            opts: CompileOptions::from_params(params),
        }
    }

    /// Compiler with explicit options.
    pub fn with_options(opts: CompileOptions) -> Self {
        Self { opts }
    }

    /// The options in use.
    pub fn options(&self) -> &CompileOptions {
        &self.opts
    }

    /// Fits activation ranges on `calibration` and compiles `net`
    /// (paper §6: `net.fit()` + compile).
    ///
    /// The compiled program is statically certified before being handed
    /// back ([`orion_nn::verify`]): scale/level typechecking, rotation-key
    /// coverage, and plan well-formedness. A program the runtime would
    /// reject mid-inference is rejected here instead.
    pub fn compile(&self, net: &Network, calibration: &[Tensor]) -> Compiled {
        let fitres = fit_robust(net, calibration, 4);
        let compiled = compile(net, &fitres, &self.opts);
        certify(&compiled, &orion_nn::VerifyConfig::default());
        compiled
    }

    /// Compiles with pre-computed ranges.
    pub fn compile_with_ranges(
        &self,
        net: &Network,
        fitres: &orion_nn::fit::FitResult,
    ) -> Compiled {
        compile(net, fitres, &self.opts)
    }

    /// [`trace_inference`] over a batch of inputs, one inference per input
    /// fanned out across the shared rayon pool (each inference builds its
    /// own engine; results are in input order).
    pub fn run_batch(
        &self,
        compiled: &Compiled,
        inputs: &[Tensor],
    ) -> Vec<ProgramRun<ClearCiphertext>> {
        inputs
            .par_iter()
            .map(|input| run_trace(compiled, input))
            .collect()
    }

    /// One-time setup of the serving path: encodes every linear layer's
    /// weight diagonals and bias blocks at their placement-assigned levels
    /// (the paper's offline weight artifacts, §6). The returned cache is
    /// `Arc`-shared — hand clones of it to any number of concurrent
    /// [`fhe_inference_prepared`] / [`fhe_inference_batch_prepared`] calls.
    pub fn prepare_fhe(&self, compiled: &Compiled, session: &FheSession) -> Arc<PreparedProgram> {
        // Pre-flight: with the session's concrete parameters in hand the
        // noise-budget pass joins the structural ones; a program that
        // would panic (or decrypt garbage) under these keys never gets
        // its weights encoded.
        certify(compiled, &orion_nn::VerifyConfig::with_ctx(&session.ctx));
        session.prepare(compiled)
    }
}

/// Panics (with the full diagnostic table) if `compiled` draws any
/// error-severity diagnostic. Warnings are tolerated — prepare-time noise
/// margins are advisory.
fn certify(compiled: &Compiled, cfg: &orion_nn::VerifyConfig<'_>) {
    let report = orion_nn::verify_compiled(compiled, cfg);
    assert!(
        !report.has_errors(),
        "compiled program failed static verification:\n{}",
        report.table()
    );
}

/// Runs a compiled program on the cleartext engine with reference linear
/// layers (`ClearBackend::reference`) — the paper-scale path.
pub fn trace_inference(compiled: &Compiled, input: &Tensor) -> ProgramRun<ClearCiphertext> {
    run_trace(compiled, input)
}

/// Creates an FHE session (keys + oracle) for a compiled program.
pub fn fhe_session(params: CkksParams, compiled: &Compiled, seed: u64) -> FheSession {
    FheSession::new(params, compiled, seed)
}

/// Runs a compiled program under real CKKS.
pub fn fhe_inference(compiled: &Compiled, session: &FheSession, input: &Tensor) -> FheRun {
    run_fhe(compiled, session, input)
}

/// Runs a compiled program on the cleartext engine with packed linear
/// layers (`ClearBackend::packed`) — the packing-math oracle.
pub fn plain_inference(compiled: &Compiled, input: &Tensor) -> ProgramRun<ClearCiphertext> {
    run_plain(compiled, input)
}

/// Runs a compiled program under real CKKS serving from a prepared cache
/// (zero per-inference weight encodes; see [`Orion::prepare_fhe`]).
pub fn fhe_inference_prepared(
    compiled: &Compiled,
    session: &FheSession,
    prepared: &Arc<PreparedProgram>,
    input: &Tensor,
) -> FheRun {
    run_fhe_prepared(compiled, session, prepared, input)
}

/// Real-CKKS inference over a batch of inputs sharing one session's key
/// material and one already-built prepared cache (the serving hot path:
/// setup cost fully off the request path), parallel across the shared
/// rayon pool — the evaluator is read-only during execution, the session
/// RNG is internally synchronized, and the bootstrap oracle is a
/// deterministic per-ciphertext function; each inference additionally runs
/// as a wire-level parallel dataflow plan. Results are in input order.
pub fn fhe_inference_batch_prepared(
    compiled: &Compiled,
    session: &FheSession,
    prepared: &Arc<PreparedProgram>,
    inputs: &[Tensor],
) -> Vec<FheRun> {
    inputs
        .par_iter()
        .map(|input| run_fhe_prepared(compiled, session, prepared, input))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_models::data::synthetic_images;
    use orion_models::{build, Act};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn compiles_resnet20_at_paper_scale() {
        let mut rng = StdRng::seed_from_u64(21);
        let (net, _) = build("resnet20", Act::SiluDeg(63), &mut rng);
        let calib = synthetic_images(3, 32, 32, 2, 22);
        let orion = Orion::paper_scale();
        let compiled = orion.compile(&net, &calib);
        // ResNet-20 fits in one ciphertext per wire at 2^15 slots and needs
        // bootstraps (depth far exceeds L_eff = 10).
        assert!(compiled.placement.boot_count > 0);
        assert!(compiled.planned_rotations() > 100);
        // placement is fast (paper: 1.94 s for ResNet-20)
        assert!(compiled.placement.placement_seconds < 30.0);
    }

    #[test]
    fn run_batch_matches_single_inference() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut net = orion_nn::Network::new(1, 8, 8);
        let x = net.input();
        let f = net.flatten("flat", x);
        let l1 = net.linear("fc1", f, 16, &mut rng);
        let a1 = net.square("act1", l1);
        let l2 = net.linear("fc2", a1, 4, &mut rng);
        net.output(l2);
        let calib = synthetic_images(1, 8, 8, 4, 78);
        let orion = Orion::with_options(orion_nn::compile::CompileOptions {
            slots: 256,
            l_eff: 10,
            cost: orion_sim::CostModel::for_degree(1 << 9, 4),
        });
        let compiled = orion.compile(&net, &calib);
        let inputs = synthetic_images(1, 8, 8, 3, 79);
        let batch = orion.run_batch(&compiled, &inputs);
        assert_eq!(batch.len(), inputs.len());
        for (run, input) in batch.iter().zip(&inputs) {
            let single = trace_inference(&compiled, input);
            for (a, b) in run.output.data().iter().zip(single.output.data()) {
                assert_eq!(a, b, "batched inference must match single inference");
            }
            assert_eq!(run.counter.rotations(), single.counter.rotations());
        }
        // the plain oracle agrees on the same program
        let plain = plain_inference(&compiled, &inputs[0]);
        let prec =
            orion_ckks::precision::precision_bits(plain.output.data(), batch[0].output.data());
        assert!(prec > 40.0, "plain oracle diverged: {prec} bits");
        assert_eq!(plain.counter.rotations(), batch[0].counter.rotations());
    }

    #[test]
    fn concurrent_prepared_batch_matches_sequential() {
        // A batch fanned out on the rayon pool, all workers sharing ONE
        // Arc'd PreparedProgram, must agree with sequential prepared
        // inference (same cache) on every input — and with the on-the-fly
        // path within CKKS noise.
        let mut rng = StdRng::seed_from_u64(91);
        let mut net = orion_nn::Network::new(1, 8, 8);
        let x = net.input();
        let f = net.flatten("flat", x);
        let l1 = net.linear("fc1", f, 16, &mut rng);
        let a1 = net.square("act1", l1);
        let l2 = net.linear("fc2", a1, 4, &mut rng);
        net.output(l2);
        let params = orion_ckks::CkksParams::tiny();
        let orion = Orion::for_params(&params);
        let calib = synthetic_images(1, 8, 8, 4, 92);
        let compiled = orion.compile(&net, &calib);
        let session = fhe_session(params, &compiled, 93);
        let prepared = orion.prepare_fhe(&compiled, &session);

        let inputs = synthetic_images(1, 8, 8, 3, 94);
        let batch = fhe_inference_batch_prepared(&compiled, &session, &prepared, &inputs);
        assert_eq!(batch.len(), inputs.len());
        for (run, input) in batch.iter().zip(&inputs) {
            let seq = fhe_inference_prepared(&compiled, &session, &prepared, input);
            let prec = orion_ckks::precision::precision_bits(run.output.data(), seq.output.data());
            assert!(prec > 8.0, "concurrent vs sequential prepared: {prec} bits");
            let cold = fhe_inference(&compiled, &session, input);
            let prec_cold =
                orion_ckks::precision::precision_bits(run.output.data(), cold.output.data());
            assert!(prec_cold > 8.0, "prepared vs on-the-fly: {prec_cold} bits");
            assert_eq!(run.bootstraps, cold.bootstraps);
        }
    }

    #[test]
    fn trace_inference_of_resnet20_is_accurate() {
        let mut rng = StdRng::seed_from_u64(23);
        let (mut net, _) = build("resnet20", Act::SiluDeg(63), &mut rng);
        let calib = synthetic_images(3, 32, 32, 16, 24);
        orion_nn::fit::calibrate_batch_norm(&mut net, &calib);
        let orion = Orion::paper_scale();
        let compiled = orion.compile(&net, &calib);
        let input = &synthetic_images(3, 32, 32, 1, 2525)[0];
        let run = trace_inference(&compiled, input);
        let reference = net.forward_poly(input, &compiled.acts);
        let prec = run.precision_vs(&reference);
        assert!(prec > 30.0, "trace ResNet-20 diverged: {prec} bits");
        assert_eq!(run.counter.bootstraps(), compiled.placement.boot_count);
    }
}
