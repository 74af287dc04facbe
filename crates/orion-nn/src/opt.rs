//! The plan optimizer's pinned names, inert.
//!
//! There is no plan rewrite: a built [`ExecPlan`] is the plan every engine
//! walks. The last pass, cross-wire rotation CSE (one digit decomposition
//! shared by the linear layers reading one wire), was removed because it
//! paid on no benchmarked plan — README "Why there is no plan rewrite"
//! has the census. Each linear layer still hoists its own baby-step
//! rotations once per input block inside the BSGS executor
//! (`orion_linear::exec::exec_bsgs`).
//!
//! [`optimize_plan`], [`OptConfig`], [`OptStats`] and [`RotationCseStats`]
//! are kept only because the `perf/` name pin calls them (ROADMAP item
//! 7(b)); no program code does.

use crate::compile::Compiled;
use crate::sched::ExecPlan;

/// No options. Kept for the `perf/` name pin (ROADMAP item 7(b)).
#[derive(Clone, Copy, Debug, Default)]
pub struct OptConfig;

/// Always zero: there is no rotation CSE. Kept for the `perf/` name pin
/// (ROADMAP item 7(b)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RotationCseStats {
    /// Always 0.
    pub hoists_eliminated: u64,
}

/// Always zero. Kept for the `perf/` name pin (ROADMAP item 7(b)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Always zero.
    pub rotation_cse: RotationCseStats,
    /// Always 0.
    pub rejected_passes: u64,
}

/// Leaves `plan` untouched and returns zeros. Kept for the `perf/` name pin
/// (ROADMAP item 7(b)), like `CkksBackend::act_cache_misses`.
pub fn optimize_plan(plan: &mut ExecPlan, c: &Compiled, cfg: OptConfig) -> OptStats {
    let _ = (plan, c, cfg);
    OptStats::default()
}
