//! The top-level Orion API: one call from a PyTorch-like network to an
//! executable FHE program (the `orion` package of the paper's Listing 1).
//! Run it with [`run_program`] on the engine the backend's constructor
//! names — [`CkksBackend::new`] / [`CkksBackend::with_prepared`] for real
//! CKKS, [`ClearBackend::reference`] / [`ClearBackend::packed`] in the
//! clear.
//!
//! ```no_run
//! use orion::core::Orion;
//! use orion::models::{build, Act};
//! use orion::models::data::synthetic_images;
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

use orion_ckks::{Ciphertext, CkksParams};
use orion_nn::backend::ProgramRun;
use orion_nn::backends::ClearCiphertext;
use orion_nn::compile::{compile, CompileOptions, Compiled};
use orion_nn::fit::fit;
use orion_nn::network::Network;
use orion_tensor::Tensor;
use std::sync::Arc;

pub use orion_linear::paged::{LayerSource, PageStats, PagedProgram};
pub use orion_linear::prepared::PreparedProgram as Prepared;
pub use orion_linear::store::DiagStore;
pub use orion_nn::backend::run_program;
pub use orion_nn::backends::{CkksBackend, ClearBackend};
pub use orion_nn::fhe_exec::FheSession as Session;

/// The multi-tenant serving layer: session registry, admission queue +
/// worker pool, memory-capped paged weights, serving metrics. See
/// `orion-serve`'s crate docs.
pub mod serve {
    pub use orion_serve::{
        ClientId, ModelId, ModelMetrics, ServeConfig, ServeError, ServeOutput, Server, Ticket,
    };
}

/// The Orion compiler front end.
pub struct Orion {
    opts: CompileOptions,
}

impl Orion {
    /// Compiler targeting the paper's deployment parameters
    /// (N = 2¹⁶ model, L_eff = 10) — run on [`ClearBackend::reference`].
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
        let fitres = fit(net, calibration);
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

    /// One-time setup of the serving path: encodes every linear layer's
    /// weight diagonals and bias blocks at their placement-assigned levels
    /// (the paper's offline weight artifacts, §6). The returned cache is
    /// `Arc`-shared — hand clones of it to any number of concurrent
    /// [`CkksBackend::with_prepared`] engines.
    pub fn prepare_fhe(&self, compiled: &Compiled, session: &Session) -> Arc<Prepared> {
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

/// [`run_program`] on [`ClearBackend::reference`]. Kept because the
/// `perf/` name pin calls it (ROADMAP item 7(b)).
pub fn trace_inference(compiled: &Compiled, input: &Tensor) -> ProgramRun<ClearCiphertext> {
    run_program(compiled, &ClearBackend::reference(compiled), input)
}

/// [`Session::new`]. Kept because the `perf/` name pin calls it (ROADMAP
/// item 7(b)).
pub fn fhe_session(params: CkksParams, compiled: &Compiled, seed: u64) -> Session {
    Session::new(params, compiled, seed)
}

/// [`run_program`] on [`CkksBackend::with_prepared`]. Kept because the
/// `perf/` name pin calls it (ROADMAP item 7(b)).
pub fn fhe_inference_prepared(
    compiled: &Compiled,
    session: &Session,
    prepared: &Arc<Prepared>,
    input: &Tensor,
) -> ProgramRun<Ciphertext> {
    let backend = CkksBackend::with_prepared(session, Arc::clone(prepared));
    run_program(compiled, &backend, input)
}
