//! Plan optimizer: rewrites an [`ExecPlan`] *before* execution, so every
//! engine (real CKKS, the cleartext reference) runs the same optimized DAG.
//!
//! The cost asymmetry it exploits is the paper's: a key switch (digit
//! decomposition + inner product + ModDown) is an order of magnitude
//! heavier than a rescale, which is itself far heavier than an add. There
//! is one rewrite, the one that removes key switches:
//!
//! **Cross-wire rotation CSE** ([`OptConfig::rotation_cse`]): linear
//! layers consuming the *same* (wire, version) buffer at the *same*
//! placement level each hoist and key-switch their own baby-step
//! rotations, even when the rotation sets overlap. The pass unions the
//! sets, and when the union holds strictly fewer digit decompositions or
//! rotations than the private hoists together, inserts one
//! [`UnitWork::SharedRot`] unit
//! that pays each digit decomposition and rotation key switch once; every
//! consumer then reads its rotations from the shared table instead of
//! hoisting. The rewrite records only that: it marks the consumers with
//! the unit's label ([`Unit::shared_rots`]) and splices the unit in before
//! the first of them. What the unit hoists — and the union the pass
//! weighs — is derived from the marked consumers
//! ([`ExecPlan::shared_hoist`]), so the plan holds no second copy of it to
//! drift. This extends the double-hoisting idea one level up: hoisted
//! *within* a layer by the BSGS executor, now hoisted *across* layers by
//! the plan. A plan with no two linear layers on one wire comes back
//! byte-identical.
//!
//! There is no pass that reorders units or retargets levels for memory.
//! The walk drops each value after its last reader, so plan order decides
//! what a run holds and the verifier's peak is what a run measures: such a
//! rewrite can now be proposed with a number (README "The plan optimizer"
//! has the measurements that retired the last two, ROADMAP item 1(d) the
//! method).
//!
//! The pass owns no level arithmetic: what a unit reads at which level is
//! [`ExecPlan::unit_io`] — the same record the walk executes and the
//! verifier that gates the rewrite interprets.
//!
//! The rewrite never changes results: it computes the identical rotations
//! once instead of `k` times. The op counter of the plan that ran
//! ([`crate::sched::count_plan`], carried by every
//! [`ProgramRun`](crate::backend::ProgramRun)) is the rewrite oracle the
//! test suite holds it to: strictly fewer rotations and key-switch
//! decompositions where it fires, every other count identical.

use crate::compile::{Compiled, Step};
use crate::sched::{ExecPlan, Unit, UnitWork};
use std::collections::{BTreeMap, BTreeSet};

/// The toggle of [`optimize_plan`]. `Default` enables the pass;
/// [`OptConfig::disabled`] turns the optimizer into a no-op.
#[derive(Clone, Copy, Debug)]
pub struct OptConfig {
    /// Enable cross-wire rotation CSE.
    pub rotation_cse: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self { rotation_cse: true }
    }
}

impl OptConfig {
    /// The pass off — the optimizer must leave the plan byte-identical.
    pub fn disabled() -> Self {
        Self {
            rotation_cse: false,
        }
    }
}

/// Stats from the rotation-CSE pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RotationCseStats {
    /// `SharedRot` units inserted.
    pub shared_units: u64,
    /// Digit decompositions eliminated (Σ private hoists − union hoists).
    pub hoists_eliminated: u64,
    /// Hoisted baby-step rotations eliminated (Σ private − union).
    pub baby_rots_eliminated: u64,
}

/// Statistics of one [`optimize_plan`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// What rotation CSE shared.
    pub rotation_cse: RotationCseStats,
    /// Rewrites whose plan failed static verification and was rolled back
    /// (should be 0; anything else is an optimizer bug that the rewrite
    /// safety net contained).
    pub rejected_passes: u64,
}

impl OptStats {
    /// Key/value rows for manual JSON serialization by reporting layers
    /// (neither `orion-nn` nor the plan optimizer depends on serde).
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("opt_shared_rot_units", self.rotation_cse.shared_units),
            ("opt_hoists_eliminated", self.rotation_cse.hoists_eliminated),
            (
                "opt_baby_rots_eliminated",
                self.rotation_cse.baby_rots_eliminated,
            ),
            ("opt_rejected_passes", self.rejected_passes),
        ]
    }
}

/// Optimizes `plan` and returns the stats; with the pass disabled the plan
/// is untouched.
///
/// The rewrite runs behind the [`checked_rewrite`] safety net: the
/// rewritten plan is statically re-verified, and one that draws an error
/// diagnostic is rolled back (counted in [`OptStats::rejected_passes`])
/// instead of shipped.
pub fn optimize_plan(plan: &mut ExecPlan, c: &Compiled, cfg: OptConfig) -> OptStats {
    let mut stats = OptStats::default();
    if cfg.rotation_cse {
        match checked_rewrite(plan, c, |p| rotation_cse(p, c)) {
            Ok(s) => stats.rotation_cse = s,
            Err(_) => stats.rejected_passes += 1,
        }
    }
    stats
}

/// Applies an arbitrary plan rewrite and statically re-verifies the
/// result — the safety net the optimizer's own rewrite runs behind. If
/// the rewritten plan draws any error-severity diagnostic, the plan is
/// rolled back to its pre-rewrite state and the report returned; warnings
/// alone do not reject a rewrite.
pub fn checked_rewrite<T>(
    plan: &mut ExecPlan,
    c: &Compiled,
    rewrite: impl FnOnce(&mut ExecPlan) -> T,
) -> Result<T, crate::verify::VerifyReport> {
    let snapshot = plan.clone();
    let out = rewrite(plan);
    let report = crate::verify::verify_plan(plan, c, &crate::verify::VerifyConfig::default());
    if report.has_errors() {
        *plan = snapshot;
        Err(report)
    } else {
        Ok(out)
    }
}

/// The linear plan of program node `id` (panics on non-linear nodes).
fn linear_plan_of(c: &Compiled, id: usize) -> &orion_linear::LinearPlan {
    match &c.prog[id].step {
        Step::Conv { plan, .. } | Step::Dense { plan, .. } => plan,
        other => panic!("node {id} ({other:?}) is not a linear layer"),
    }
}

// ---------------------------------------------------------------------
// Cross-wire rotation CSE
// ---------------------------------------------------------------------

fn rotation_cse(plan: &mut ExecPlan, c: &Compiled) -> RotationCseStats {
    // Group linear Step units by the (buffer, read level) they consume.
    // Buffer offsets are unique per (wire, version), so the offset alone
    // identifies the buffer.
    let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (uid, unit) in plan.units.iter().enumerate() {
        // a whole-step unit is a linear layer
        let UnitWork::Step { node } = unit.work else {
            continue;
        };
        if linear_plan_of(c, node).baby_rotations().is_empty() {
            continue;
        }
        let Some((buf, Some(lv))) = plan.io(c, uid).reads[0] else {
            unreachable!("a linear layer reads its input wire at its level")
        };
        groups.entry((buf.offset, lv)).or_default().push(uid);
    }

    let mut stats = RotationCseStats::default();
    // (the unit a shared unit goes before, its label): the group's first
    // member, which every producer of the buffer precedes
    let mut insertions: Vec<(usize, usize)> = Vec::new();
    for members in groups.into_values().filter(|members| members.len() >= 2) {
        // Mark the members with a fresh label and weigh the hoist they
        // derive; a losing group is unmarked.
        let spec = insertions.len();
        for &m in &members {
            plan.units[m].shared_rots = Some(spec);
        }
        let hoist = plan
            .shared_hoist(c, spec)
            .expect("a group reads one buffer at one level");
        let mut private_hoists = 0usize;
        let mut private_rots = 0usize;
        for &uid in &members {
            let UnitWork::Step { node } = plan.units[uid].work else {
                unreachable!()
            };
            let rots = linear_plan_of(c, node).baby_rotations();
            let blocks: BTreeSet<u32> = rots.iter().map(|&(b, _)| b).collect();
            private_hoists += blocks.len();
            private_rots += rots.len();
        }
        // Only rewrite when sharing strictly wins — the union drops a
        // digit decomposition or a rotation, both priced at this one level
        // and neither free; disjoint sets would merely serialize
        // independent hoists behind one unit.
        if hoist.hoists == private_hoists && hoist.rots.len() == private_rots {
            for &m in &members {
                plan.units[m].shared_rots = None;
            }
            continue;
        }
        stats.shared_units += 1;
        stats.hoists_eliminated += (private_hoists - hoist.hoists) as u64;
        stats.baby_rots_eliminated += (private_rots - hoist.rots.len()) as u64;
        // members are in plan order
        insertions.push((members[0], spec));
    }

    // Splice the shared units in, last first: an insert shifts only the
    // units after it, and no unit holds a unit id.
    insertions.sort_unstable();
    for &(at, spec) in insertions.iter().rev() {
        plan.units.insert(
            at,
            Unit {
                work: UnitWork::SharedRot { spec },
                out_slot: usize::MAX,
                out_len: 0,
                shared_rots: None,
            },
        );
    }
    stats
}
