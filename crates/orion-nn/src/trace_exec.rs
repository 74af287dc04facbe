//! Trace-backend execution of compiled programs — a thin wrapper over the
//! unified dataflow scheduler ([`crate::backend::run_program`]) with the
//! [`TraceBackend`] engine.
//!
//! Values are computed exactly (reference semantics + fitted polynomial
//! activations), levels/bootstraps follow the placement policy, and the
//! run carries the plan's op tallies with their modeled latency —
//! regenerating the paper's reporting columns for networks far too large
//! to run through 64-bit modular arithmetic in CI (see README,
//! "Substitutions").

use crate::backend::run_program;
use crate::backends::TraceBackend;
use crate::compile::Compiled;
use orion_ckks::precision::precision_bits;
use orion_sim::OpCounter;
use orion_tensor::Tensor;

/// Result of a trace run.
pub struct TraceRun {
    /// The network output.
    pub output: Tensor,
    /// Operation statistics with modeled latency.
    pub counter: OpCounter,
}

impl TraceRun {
    /// Output precision in bits against a reference output.
    pub fn precision_vs(&self, reference: &Tensor) -> f64 {
        precision_bits(self.output.data(), reference.data())
    }
}

/// Runs a compiled program on the trace backend.
pub fn run_trace(c: &Compiled, input: &Tensor) -> TraceRun {
    let run = run_program(c, &TraceBackend::new(c), input);
    TraceRun {
        output: run.output,
        counter: run.counter,
    }
}
