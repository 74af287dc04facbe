//! Cost-driven plan optimizer: rewrites an [`ExecPlan`] under the explicit
//! latency model *before* execution, so every engine (real CKKS, plain
//! rotation-algebra oracle, modeled trace) runs the same optimized DAG.
//!
//! The cost asymmetry the passes exploit is the paper's: a key switch
//! (digit decomposition + inner product + ModDown) is an order of
//! magnitude heavier than a rescale, which is itself far heavier than an
//! add — and peak live-ciphertext memory is what caps batch size at
//! serving time. Three passes run behind [`PlanOptimizer`], each
//! individually toggleable and each reporting its own stats:
//!
//! 1. **Cross-wire rotation CSE** ([`OptConfig::rotation_cse`]): linear
//!    layers consuming the *same* (wire, version) buffer at the *same*
//!    placement level each hoist and key-switch their own baby-step
//!    rotations, even when the rotation sets overlap. The pass unions the
//!    sets, and when the cost model says the union is strictly cheaper
//!    than the sum of the private hoists, inserts one
//!    [`UnitWork::SharedRot`] unit that pays each digit decomposition and
//!    rotation key switch once; every consumer then reads its rotations
//!    from the shared table instead of hoisting. This extends the double-hoisting idea one
//!    level up: hoisted *within* a layer by the BSGS executor, now hoisted
//!    *across* layers by the plan.
//! 2. **Rescale/mod-switch chain fusion** ([`OptConfig::level_fusion`]):
//!    a scale-down's rescale output at level `L-1` is often immediately
//!    mod-switched far below by every consumer (and likewise a bootstrap's
//!    `L_eff` output). The pass computes each producer's highest consumer
//!    read level and, when it is strictly below the natural output level,
//!    marks the unit to produce there directly ([`Unit::fused_level`]) —
//!    the fused engine kernels (`scale_down_to` / `bootstrap_to`) fold the
//!    dropped limbs away without ever materializing them. Bit-exact by
//!    construction: mod-switching is limb truncation, so truncating at the
//!    producer equals truncating at every consumer.
//! 3. **Bootstrap sinking** ([`OptConfig::boot_sink`]): bootstrap outputs
//!    are the heaviest live values in the plan (fresh `L_eff`-level
//!    ciphertexts). The pass re-positions each bootstrap unit as late as
//!    its dependents allow and keeps the move when the estimated
//!    peak-live-limb count does not increase — shrinking the window during
//!    which the refreshed ciphertext coexists with everything else.
//!
//! The passes own no level arithmetic: what a unit reads at which level and
//! where it leaves its output is [`ExecPlan::unit_io`] — the same record
//! the walk executes and the verifier that gates every pass interprets.
//!
//! Rewrites never change results: pass 1 computes the identical rotations
//! once instead of `k` times, pass 2 commutes limb truncation across the
//! producer/consumer edge, pass 3 only permutes an order the scheduler
//! already treats as unordered (the DAG). The op counter of the plan that
//! ran ([`crate::sched::count_plan`], carried by every
//! [`ProgramRun`](crate::backend::ProgramRun)) is the rewrite oracle the
//! test suite holds the passes to: count-reducing rewrites (CSE) must show
//! strictly fewer rotations and key-switch decompositions, and
//! count-neutral rewrites (fusion, sinking) must leave every integer op
//! count identical.

use crate::compile::{Compiled, Step};
use crate::sched::{ExecPlan, SharedRotSpec, Unit, UnitWork};
use orion_sim::CostModel;
use std::collections::{BTreeMap, BTreeSet};

/// Per-pass toggles for [`PlanOptimizer`]. `Default` enables everything;
/// [`OptConfig::disabled`] turns the pipeline into a checked no-op.
#[derive(Clone, Copy, Debug)]
pub struct OptConfig {
    /// Enable cross-wire rotation CSE (pass 1).
    pub rotation_cse: bool,
    /// Enable rescale/mod-switch chain fusion (pass 2).
    pub level_fusion: bool,
    /// Enable bootstrap sinking (pass 3).
    pub boot_sink: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self {
            rotation_cse: true,
            level_fusion: true,
            boot_sink: true,
        }
    }
}

impl OptConfig {
    /// Every pass off — the optimizer must leave the plan byte-identical.
    pub fn disabled() -> Self {
        Self {
            rotation_cse: false,
            level_fusion: false,
            boot_sink: false,
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

/// Stats from the level-fusion pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelFusionStats {
    /// Scale-down units now producing at a fused level.
    pub fused_scale_downs: u64,
    /// Bootstrap units now producing at a fused level.
    pub fused_bootstraps: u64,
    /// Limb vectors (per-polynomial residue rows) that are no longer
    /// materialized: Σ 2 · (natural level − fused level) over fused units.
    pub limb_folds_eliminated: u64,
}

/// Stats from the bootstrap-sinking pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BootSinkStats {
    /// Bootstrap units moved later in the plan.
    pub bootstraps_moved: u64,
    /// Estimated peak live limb vectors before the pass.
    pub peak_limbs_before: u64,
    /// Estimated peak live limb vectors after the pass.
    pub peak_limbs_after: u64,
}

/// Per-pass statistics of one [`PlanOptimizer::optimize`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Pass 1.
    pub rotation_cse: RotationCseStats,
    /// Pass 2.
    pub level_fusion: LevelFusionStats,
    /// Pass 3.
    pub boot_sink: BootSinkStats,
    /// Passes whose rewritten plan failed static verification and was
    /// rolled back (should be 0; anything else is an optimizer bug that
    /// the rewrite safety net contained).
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
            ("opt_fused_scale_downs", self.level_fusion.fused_scale_downs),
            ("opt_fused_bootstraps", self.level_fusion.fused_bootstraps),
            (
                "opt_limb_folds_eliminated",
                self.level_fusion.limb_folds_eliminated,
            ),
            ("opt_bootstraps_moved", self.boot_sink.bootstraps_moved),
            ("opt_peak_limbs_before", self.boot_sink.peak_limbs_before),
            ("opt_peak_limbs_after", self.boot_sink.peak_limbs_after),
            ("opt_rejected_passes", self.rejected_passes),
        ]
    }
}

/// The pass driver (see module docs).
pub struct PlanOptimizer {
    cfg: OptConfig,
    cost: CostModel,
}

impl PlanOptimizer {
    /// A driver with explicit toggles and cost model.
    pub fn new(cfg: OptConfig, cost: CostModel) -> Self {
        Self { cfg, cost }
    }

    /// Runs the enabled passes in order (CSE → fusion → sinking) and
    /// returns per-pass stats. Disabled passes leave the plan untouched.
    ///
    /// Every pass runs behind the [`checked_rewrite`] safety net: the
    /// rewritten plan is statically re-verified, and a pass whose output
    /// draws an error diagnostic is rolled back (counted in
    /// [`OptStats::rejected_passes`]) instead of shipped.
    pub fn optimize(&self, plan: &mut ExecPlan, c: &Compiled) -> OptStats {
        let mut stats = OptStats::default();
        if self.cfg.rotation_cse {
            match checked_rewrite(plan, c, |p| rotation_cse(p, c, &self.cost)) {
                Ok(s) => stats.rotation_cse = s,
                Err(_) => stats.rejected_passes += 1,
            }
        }
        if self.cfg.level_fusion {
            match checked_rewrite(plan, c, |p| level_fusion(p, c)) {
                Ok(s) => stats.level_fusion = s,
                Err(_) => stats.rejected_passes += 1,
            }
        }
        if self.cfg.boot_sink {
            match checked_rewrite(plan, c, |p| boot_sink(p, c)) {
                Ok(s) => stats.boot_sink = s,
                Err(_) => stats.rejected_passes += 1,
            }
        }
        stats
    }
}

/// Applies an arbitrary plan rewrite and statically re-verifies the
/// result — the safety net every built-in optimizer pass runs behind. If
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

/// Convenience: optimize with the program's own cost model.
pub fn optimize_plan(plan: &mut ExecPlan, c: &Compiled, cfg: OptConfig) -> OptStats {
    PlanOptimizer::new(cfg, c.opts.cost.clone()).optimize(plan, c)
}

/// The linear plan of program node `id` (panics on non-linear nodes).
fn linear_plan_of(c: &Compiled, id: usize) -> &orion_linear::LinearPlan {
    match &c.prog[id].step {
        Step::Conv { plan, .. } | Step::Dense { plan, .. } => plan,
        other => panic!("node {id} ({other:?}) is not a linear layer"),
    }
}

// ---------------------------------------------------------------------
// Pass 1: cross-wire rotation CSE
// ---------------------------------------------------------------------

fn rotation_cse(plan: &mut ExecPlan, c: &Compiled, cost: &CostModel) -> RotationCseStats {
    // Group linear Step units by the (buffer, read level) they consume.
    // Buffer offsets are unique per (wire, version), so the offset alone
    // identifies the buffer.
    let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (uid, unit) in plan.units.iter().enumerate() {
        let UnitWork::Step { node } = unit.work else {
            continue;
        };
        if !matches!(c.prog[node].step, Step::Conv { .. } | Step::Dense { .. }) {
            continue;
        }
        if linear_plan_of(c, node).baby_rotations().is_empty() {
            continue;
        }
        let Some((buf, Some(lv))) = plan.io(c, uid).reads[0] else {
            unreachable!("a linear layer reads its input wire at its level")
        };
        groups.entry((buf.offset, lv)).or_default().push(uid);
    }

    struct Insertion {
        /// Old unit id the shared unit is inserted before (the group's
        /// first member — every producer dep precedes it).
        at: usize,
        spec: SharedRotSpec,
        members: Vec<usize>,
    }
    let mut stats = RotationCseStats::default();
    let mut insertions: Vec<Insertion> = Vec::new();
    for ((_, lv), members) in groups {
        if members.len() < 2 {
            continue;
        }
        let mut union: BTreeSet<(u32, usize)> = BTreeSet::new();
        let mut private_cost = 0.0;
        let mut private_hoists = 0u64;
        let mut private_rots = 0u64;
        for &uid in &members {
            let UnitWork::Step { node } = plan.units[uid].work else {
                unreachable!()
            };
            let rots = linear_plan_of(c, node).baby_rotations();
            let blocks: BTreeSet<u32> = rots.iter().map(|&(b, _)| b).collect();
            private_cost += blocks.len() as f64 * cost.ks_decompose(lv)
                + rots.len() as f64 * cost.hrot_hoisted(lv);
            private_hoists += blocks.len() as u64;
            private_rots += rots.len() as u64;
            union.extend(rots);
        }
        let union_blocks: BTreeSet<u32> = union.iter().map(|&(b, _)| b).collect();
        let shared_cost = union_blocks.len() as f64 * cost.ks_decompose(lv)
            + union.len() as f64 * cost.hrot_hoisted(lv);
        // Only rewrite when the model says sharing strictly wins (the
        // rotation sets overlap); disjoint sets would merely serialize
        // independent hoists behind one unit.
        if shared_cost >= private_cost {
            continue;
        }
        let UnitWork::Step { node } = plan.units[members[0]].work else {
            unreachable!()
        };
        stats.shared_units += 1;
        stats.hoists_eliminated += private_hoists - union_blocks.len() as u64;
        stats.baby_rots_eliminated += private_rots - union.len() as u64;
        insertions.push(Insertion {
            at: *members.iter().min().expect("nonempty group"),
            spec: SharedRotSpec {
                buf: plan.in_bufs[node][0],
                level: lv,
                rots: union.into_iter().collect(),
                hoists: union_blocks.len(),
            },
            members,
        });
    }
    if insertions.is_empty() {
        return stats;
    }
    insertions.sort_by_key(|i| i.at);

    // Rebuild the unit list with the shared units spliced in. Deps stay in
    // old ids until the whole list exists, then everything is remapped.
    let spec_base = plan.shared.len();
    let old_n = plan.units.len();
    let mut map = vec![usize::MAX; old_n];
    let mut shared_uid = vec![usize::MAX; insertions.len()];
    let mut new_units: Vec<Unit> = Vec::with_capacity(old_n + insertions.len());
    let mut next_ins = 0usize;
    for (old, unit) in plan.units.iter().enumerate() {
        while next_ins < insertions.len() && insertions[next_ins].at == old {
            let ins = &insertions[next_ins];
            shared_uid[next_ins] = new_units.len();
            new_units.push(Unit {
                work: UnitWork::SharedRot {
                    spec: spec_base + next_ins,
                },
                // Same producers the member layers wait on (old ids —
                // remapped below like everyone else's).
                deps: plan.units[ins.members[0]].deps.clone(),
                out_slot: usize::MAX,
                out_len: 0,
                in_slot: usize::MAX,
                fused_level: None,
                shared_rots: None,
            });
            next_ins += 1;
        }
        map[old] = new_units.len();
        new_units.push(unit.clone());
    }
    for u in &mut new_units {
        for d in &mut u.deps {
            *d = map[*d];
        }
    }
    for (i, ins) in insertions.iter().enumerate() {
        for &m in &ins.members {
            let u = &mut new_units[map[m]];
            u.shared_rots = Some(spec_base + i);
            u.deps.push(shared_uid[i]);
            u.deps.sort_unstable();
        }
        plan.shared.push(ins.spec.clone());
    }
    plan.units = new_units;
    rebuild_succs(plan);
    stats
}

// ---------------------------------------------------------------------
// Pass 2: rescale/mod-switch chain fusion
// ---------------------------------------------------------------------

fn level_fusion(plan: &mut ExecPlan, c: &Compiled) -> LevelFusionStats {
    let mut stats = LevelFusionStats::default();
    for uid in 0..plan.units.len() {
        let unit = &plan.units[uid];
        // Fusable producers: scale-downs (rescale + mod-switch) and
        // bootstraps (refresh + mod-switch). Both write exactly one slot.
        let is_boot = match unit.work {
            UnitWork::Boot { .. } => true,
            UnitWork::StepCt { node, .. }
                if matches!(c.prog[node].step, Step::ScaleDown { .. }) =>
            {
                false
            }
            _ => continue,
        };
        let natural = plan.io(c, uid).out_level;
        let slot = unit.out_slot;
        // The highest level any successor drops the slot to; a raw read
        // (bootstrap input, output wire) pins the natural level.
        let mut max_read: Option<usize> = None;
        let mut raw = false;
        for &s in &plan.succs[uid] {
            for (buf, level) in plan.io(c, s).reads.into_iter().flatten() {
                if !buf.slots().contains(&slot) {
                    continue;
                }
                match level {
                    None => raw = true,
                    Some(l) => max_read = Some(max_read.map_or(l, |m| m.max(l))),
                }
            }
        }
        let Some(fused) = max_read else { continue };
        if raw || fused >= natural {
            continue;
        }
        plan.units[uid].fused_level = Some(fused);
        // Two polynomials per ciphertext, one limb row per skipped level.
        stats.limb_folds_eliminated += 2 * (natural - fused) as u64;
        if is_boot {
            stats.fused_bootstraps += 1;
        } else {
            stats.fused_scale_downs += 1;
        }
    }
    stats
}

// ---------------------------------------------------------------------
// Pass 3: bootstrap sinking
// ---------------------------------------------------------------------

/// What the peak-live-limb estimate needs of a plan: each unit's output
/// weight and the units that consume it. Shared by the sinking pass and
/// the verifier's certificate ([`crate::verify`]).
pub(crate) struct LiveRanges {
    /// Estimated live weight of each unit's output, in limb vectors: 2
    /// polynomials × (output level + 1) rows per ciphertext.
    weights: Vec<u64>,
    /// Dependents that actually consume the value (deps model reads
    /// exactly, except Prefetch twins whose deps are advisory).
    readers: Vec<Vec<usize>>,
}

impl LiveRanges {
    pub(crate) fn of(plan: &ExecPlan, c: &Compiled) -> Self {
        let n = plan.units.len();
        let weights = (0..n)
            .map(|u| plan.units[u].out_len as u64 * 2 * (plan.io(c, u).out_level as u64 + 1))
            .collect();
        let readers = (0..n)
            .map(|u| {
                plan.succs[u]
                    .iter()
                    .copied()
                    .filter(|&s| !matches!(plan.units[s].work, UnitWork::Prefetch { .. }))
                    .collect()
            })
            .collect();
        Self { weights, readers }
    }

    /// Peak live limb vectors when unit `u` runs at position `pos[u]`:
    /// each producer's output is live from its position to its last
    /// reader's.
    pub(crate) fn peak(&self, pos: &[usize]) -> u64 {
        let n = pos.len();
        let mut delta = vec![0i64; n + 1];
        for uid in 0..n {
            let w = self.weights[uid];
            if w == 0 {
                continue;
            }
            let start = pos[uid];
            let end = self.readers[uid]
                .iter()
                .map(|&r| pos[r])
                .max()
                .unwrap_or(start);
            delta[start] += w as i64;
            delta[end + 1] -= w as i64;
        }
        let mut live = 0i64;
        let mut peak = 0i64;
        for d in delta {
            live += d;
            peak = peak.max(live);
        }
        peak as u64
    }
}

fn boot_sink(plan: &mut ExecPlan, c: &Compiled) -> BootSinkStats {
    let n = plan.units.len();
    let live = LiveRanges::of(plan, c);
    let mut order: Vec<usize> = (0..n).collect();
    let mut pos: Vec<usize> = (0..n).collect();
    let before = live.peak(&pos);
    let mut peak = before;
    let mut moved = 0u64;
    for uid in (0..n).rev() {
        if !matches!(plan.units[uid].work, UnitWork::Boot { .. }) {
            continue;
        }
        // Latest legal position: just before the earliest dependent
        // (including Prefetch twins — advisory edges still order the plan).
        let Some(min_succ) = plan.succs[uid].iter().map(|&s| pos[s]).min() else {
            continue;
        };
        let cur = pos[uid];
        if min_succ <= cur + 1 {
            continue;
        }
        let mut cand = order.clone();
        cand.remove(cur);
        cand.insert(min_succ - 1, uid);
        let mut cand_pos = vec![0usize; n];
        for (p, &u) in cand.iter().enumerate() {
            cand_pos[u] = p;
        }
        let cand_peak = live.peak(&cand_pos);
        // Sinking delays the heavy refreshed ciphertext and extends only
        // the cheap level-0 input's life; accept when peak memory does not
        // regress.
        if cand_peak <= peak {
            order = cand;
            pos = cand_pos;
            peak = cand_peak;
            moved += 1;
        }
    }
    if moved > 0 {
        let mut map = vec![0usize; n];
        for (p, &u) in order.iter().enumerate() {
            map[u] = p;
        }
        let mut new_units: Vec<Unit> = order.iter().map(|&old| plan.units[old].clone()).collect();
        for u in &mut new_units {
            for d in &mut u.deps {
                *d = map[*d];
            }
            u.deps.sort_unstable();
        }
        plan.units = new_units;
        rebuild_succs(plan);
    }
    BootSinkStats {
        bootstraps_moved: moved,
        peak_limbs_before: before,
        peak_limbs_after: peak,
    }
}

/// Rebuilds the reverse-edge table after a structural rewrite.
fn rebuild_succs(plan: &mut ExecPlan) {
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); plan.units.len()];
    for (uid, unit) in plan.units.iter().enumerate() {
        for &d in &unit.deps {
            assert!(d < uid, "optimizer broke topological order");
            succs[d].push(uid);
        }
    }
    plan.succs = succs;
}
