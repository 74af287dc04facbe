//! PyTorch-like FHE neural network modules and the Orion compile pipeline
//! (paper §6, Listing 1).
//!
//! A [`network::Network`] is built with a PyTorch-flavoured builder
//! (`conv2d`, `batch_norm2d`, `relu`, `silu`, `avg_pool2d`, `linear`,
//! residual `add`, …), can run reference cleartext inference, and is
//! *compiled* for FHE:
//!
//! 1. batch-norm folding into the preceding convolution,
//! 2. range estimation over a calibration set (`fit()` — paper §6): one
//!    topological pass that fixes the normalization each activation needs
//!    to land in `[-1, 1]` under the polynomials fitted upstream of it,
//! 3. activation fitting (Chebyshev interpolation; ReLU as the composite
//!    minimax sign of Lee et al.),
//! 4. packing: one single-shot multiplexed [`orion_linear::LinearPlan`]
//!    per linear layer,
//! 5. automatic bootstrap placement over the level digraph
//!    (`orion_graph::place`), driven by the analytical cost model
//!    ([`sim::CostModel`]),
//! 6. emission of an executable program that [`run_program`] runs
//!    identically on every engine — the cleartext one
//!    ([`ClearBackend::reference`] / [`ClearBackend::packed`]) and real
//!    CKKS ([`CkksBackend::new`] / [`CkksBackend::with_prepared`]) — with
//!    the plan's op tallies ([`sim::OpCounter`]) alongside the output.

pub mod act;
pub mod backend;
pub mod backends;
pub mod compile;
pub mod fhe_exec;
pub mod fit;
pub mod layer;
pub mod network;
pub mod opt;
pub mod sched;
pub mod sim;
pub mod verify;

pub use backend::{run_program, EvalBackend, ProgramRun};
pub use backends::{CkksBackend, ClearBackend};
pub use compile::{compile, CompileOptions, Compiled};
pub use fhe_exec::FheSession;
pub use layer::Layer;
pub use network::{Network, NodeId};
pub use opt::{optimize_plan, OptConfig, OptStats};
pub use sched::ExecPlan;
pub use verify::{
    verify_compiled, Diagnostic, Provenance, Rule, Severity, VerifyConfig, VerifyReport,
};
