//! Static plan certification: pre-flight diagnostics over a compiled
//! program and the execution plan it carries.
//!
//! [`verify_compiled`] abstractly interprets [`Compiled::plan`] — the plan
//! every engine walks, so what is certified is what runs — without
//! executing any ciphertext math: a per-value-slot abstract state (level, predicted
//! noise) is pushed through every unit in plan order, and
//! anything that would make the runtime assert, panic, or silently decrypt
//! garbage becomes a typed [`Diagnostic`] *before* the first NTT runs.
//! Four pass families share one linear sweep:
//!
//! 1. **Level typechecking** — interprets each unit's signature
//!    ([`Compiled::unit_io`]: the read levels the walk drops inputs to, the
//!    depth it asserts, the exit level it holds the engine to — the same
//!    record, not a mirror of it), so the `drop_to_level` placement assert
//!    and a step placed below its depth are findings here first (a
//!    refreshed wire read above `L_eff` is [`Rule::BootstrapTarget`]).
//!    Scales need no tracking: every step, Chebyshev stages included,
//!    hands its consumers exactly Δ, so the runtime's
//!    `assert_scales_match` cannot fire on a plan whose levels check.
//! 2. **Evaluation-key coverage** — every key a unit applies
//!    ([`Compiled::for_each_key_use`]: BSGS baby + giant + fold steps per
//!    linear layer, the relinearization key of every activation unit that multiplies
//!    ciphertexts) is checked against the key manifest: a key must exist
//!    *and* have been generated at or above the level the unit applies it
//!    at. Two amounts share a key iff they are congruent modulo the slot
//!    count (`galois_element(k) = 5^(k mod N/2) mod 2N` with `N/2` slots),
//!    so coverage is a lookup by residue — the static version of the
//!    `EvalKeys::try_rotation` / `try_relin` miss.
//! 3. **Noise-budget certification** — drives the existing
//!    [`orion_ckks::NoiseEstimator`] as an abstract domain over (σ,
//!    magnitude) pairs, warning wherever predicted precision drops below
//!    [`VerifyConfig::noise_floor_bits`] entering a bootstrap or at the
//!    output. Runs only when [`VerifyConfig::ctx`] provides concrete CKKS
//!    parameters.
//! 4. **Well-formedness and memory** — checks what a walk reads, and
//!    certifies the peak live limbs of a walk in plan order
//!    ([`VerifyReport::peak_limbs`]): each ciphertext counts from its
//!    write to its last reader ([`Compiled::last_reads`]), where the walk
//!    releases it, so a run measures exactly this number. The plan stores
//!    no edges and no unit census to check: a unit reading a slot that no
//!    earlier unit wrote, a slot written twice and a unit naming what the
//!    program does not have are [`Rule::Coverage`] findings of the sweep —
//!    so a dropped or duplicated unit or bootstrap is found where the walk
//!    would fail. How many units `ExecPlan::build` emits per node is the
//!    constructor's property, held by the `sched_plan` proptest; a test
//!    that seeds a defect mutates the plan of a clone of the program.
//!
//! The sweep mirrors the walk ([`crate::sched::run_plan`], ciphertexts in,
//! ciphertexts out): the input buffer starts out holding fresh exact-Δ
//! ciphertexts at `L_eff`; the output buffer is the noise floor's decrypt
//! checkpoint and stays live to the end.
//!
//! The verifier runs by default at `Orion::compile` and `prepare_fhe` (the
//! facade's `orion::core`) and at orion-serve model registration
//! (unverifiable models are rejected with a typed `ServeError`). There is
//! no plan rewrite to re-verify and no second plan to pair with the
//! program: the plan it certifies is the plan a walk runs.
//!
//! # Adding a pass
//!
//! New checks slot into the private `Checker`'s one sweep: a per-unit
//! rule goes in `walk_unit()`, with a new [`Rule`] variant naming the
//! check — a rule about what the plan's constructor emits belongs in
//! its proptest (`sched_plan`), not here. The walk's feasibility check, reads
//! and write are generic over the unit's signature — a rule about levels
//! belongs in `Step::sig` / `Compiled::unit_io`, where the walk sees it
//! too; `walk_unit` keeps per step kind only the rule an infeasible
//! placement breaks and the noise transfer. Keep the walk allocation-free
//! per unit — serve registration verifies every model it admits.

use crate::compile::{Compiled, Step};
use crate::sched::{ct_limbs, KeyUse, UnitWork};
use orion_ckks::{Context, KeyManifest, NoiseEstimator};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The plan may run, but the result quality is at risk (e.g. the
    /// predicted precision dips below the configured floor).
    Warning,
    /// The plan would panic or decrypt garbage if executed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which check fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A unit reads a value slot no earlier unit wrote (a dropped or
    /// reordered producer, or an out-of-range slot), writes one twice (a
    /// duplicated unit), or names what the program or plan does not have
    /// (an unknown node or wire, the wrong unit kind for a step) — or the
    /// output wire is never written.
    Coverage,
    /// A wire is read above its producer's level, or a step is placed
    /// below the depth its runtime asserts demand.
    LevelUnderflow,
    /// A step would have to rescale at level 0 (the chain is exhausted —
    /// a bootstrap is required earlier).
    RescaleInfeasible,
    /// A refreshed wire is read above the bootstrap's target `L_eff`.
    BootstrapTarget,
    /// The plan applies a rotation no generated key covers: the step has
    /// no key, or its key was generated below the level it is applied at.
    MissingRotationKey,
    /// The plan relinearizes above the level the relinearization key was
    /// generated at.
    RelinKeyLevel,
    /// Predicted precision drops below the configured floor before a
    /// bootstrap or at the output.
    NoiseFloor,
}

impl Rule {
    /// Stable kebab-case name (used in tables and CI summaries).
    pub fn name(&self) -> &'static str {
        match self {
            Rule::Coverage => "coverage",
            Rule::LevelUnderflow => "level-underflow",
            Rule::RescaleInfeasible => "rescale-infeasible",
            Rule::BootstrapTarget => "bootstrap-target",
            Rule::MissingRotationKey => "missing-rotation-key",
            Rule::RelinKeyLevel => "relin-key-level",
            Rule::NoiseFloor => "noise-floor",
        }
    }

    /// All rules, in report order.
    pub fn all() -> &'static [Rule] {
        &[
            Rule::Coverage,
            Rule::LevelUnderflow,
            Rule::RescaleInfeasible,
            Rule::BootstrapTarget,
            Rule::MissingRotationKey,
            Rule::RelinKeyLevel,
            Rule::NoiseFloor,
        ]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a diagnostic anchors: plan unit, program node, ciphertext index
/// within the wire — whichever are meaningful for the rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Plan unit id.
    pub unit: Option<usize>,
    /// Program node id.
    pub node: Option<usize>,
    /// Ciphertext index within the wire.
    pub ct: Option<usize>,
}

impl Provenance {
    /// Anchored at a plan unit.
    pub fn unit(unit: usize) -> Self {
        Self {
            unit: Some(unit),
            ..Self::default()
        }
    }

    /// Anchored at a program node.
    pub fn node(node: usize) -> Self {
        Self {
            node: Some(node),
            ..Self::default()
        }
    }

    /// Adds a program node.
    pub fn at_node(mut self, node: usize) -> Self {
        self.node = Some(node);
        self
    }

    /// Adds a ciphertext index.
    pub fn at_ct(mut self, ct: usize) -> Self {
        self.ct = Some(ct);
        self
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        if let Some(u) = self.unit {
            write!(f, "unit {u}")?;
            any = true;
        }
        if let Some(n) = self.node {
            write!(f, "{}node {n}", if any { " " } else { "" })?;
            any = true;
        }
        if let Some(c) = self.ct {
            write!(f, "{}ct {c}", if any { " " } else { "" })?;
            any = true;
        }
        if !any {
            write!(f, "plan")?;
        }
        Ok(())
    }
}

/// One verifier finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which check fired.
    pub rule: Rule,
    /// Error (would panic / corrupt) or warning (quality at risk).
    pub severity: Severity,
    /// Step/wire/unit provenance.
    pub at: Provenance,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.rule, self.at, self.message
        )
    }
}

/// Verifier configuration. `Default` is the structural profile every
/// choke point can afford: level typechecking, key coverage against
/// the compiled key manifest, and memory/well-formedness — no concrete
/// CKKS context required.
#[derive(Clone, Copy, Debug)]
pub struct VerifyConfig<'a> {
    /// The evaluation keys that will exist, each with the level it is
    /// generated at. `None` checks against the compiled program's own
    /// manifest (`Compiled::key_manifest`), which is what
    /// `FheSession::new` generates.
    pub available_rotations: Option<&'a KeyManifest>,
    /// CKKS context for the noise-budget pass; `None` skips it (levels and
    /// scales are parameter-free, noise is not).
    pub ctx: Option<&'a Context>,
    /// Precision floor in bits for the noise pass: a wire predicted below
    /// this entering a bootstrap (or at the output) draws a warning.
    pub noise_floor_bits: f64,
}

impl Default for VerifyConfig<'_> {
    fn default() -> Self {
        Self {
            available_rotations: None,
            ctx: None,
            noise_floor_bits: 2.0,
        }
    }
}

impl<'a> VerifyConfig<'a> {
    /// The default profile plus the noise pass under `ctx`'s parameters.
    pub fn with_ctx(ctx: &'a Context) -> Self {
        Self {
            ctx: Some(ctx),
            ..Self::default()
        }
    }
}

/// The verifier's output: diagnostics plus the certified quantities.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Everything that fired, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Plan units examined.
    pub units: usize,
    /// Certified peak live limb vectors of a walk in plan order — what the
    /// walk measures (`PlanRun::peak_live_limbs`). Only on structurally
    /// clean plans: the certificate trusts every unit's signature.
    pub peak_limbs: Option<u64>,
    /// Worst predicted precision at any bootstrap input or output slot
    /// (noise pass only).
    pub min_precision_bits: Option<f64>,
    /// Rotation-coverage memberships checked.
    pub rotations_checked: usize,
}

impl VerifyReport {
    /// Error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// No error-severity diagnostics?
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// No diagnostics at all?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `(rule name, count)` rows for every rule that fired.
    pub fn counts_by_rule(&self) -> Vec<(&'static str, usize)> {
        Rule::all()
            .iter()
            .filter_map(|r| {
                let n = self.diagnostics.iter().filter(|d| d.rule == *r).count();
                (n > 0).then_some((r.name(), n))
            })
            .collect()
    }

    /// One-line summary for compilation reports.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            let mut s = format!(
                "verification: certified clean ({} units, {} rotation checks",
                self.units, self.rotations_checked
            );
            if let Some(p) = self.peak_limbs {
                s.push_str(&format!(", peak {p} live limbs"));
            }
            if let Some(b) = self.min_precision_bits {
                s.push_str(&format!(", min precision {b:.1} b"));
            }
            s.push(')');
            s
        } else {
            let first = &self.diagnostics[0];
            format!(
                "verification: {} error(s), {} warning(s) — first: {first}",
                self.error_count(),
                self.warning_count()
            )
        }
    }

    /// A human-readable diagnostic table (or the clean summary).
    pub fn table(&self) -> String {
        if self.is_clean() {
            return self.summary();
        }
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<8} {:<22} {:<18} message",
            "severity", "rule", "provenance"
        );
        for d in &self.diagnostics {
            let _ = writeln!(
                s,
                "{:<8} {:<22} {:<18} {}",
                d.severity.to_string(),
                d.rule.name(),
                d.at.to_string(),
                d.message
            );
        }
        s.push_str(&self.summary());
        s
    }
}

/// Verifies a compiled program: certifies the plan it carries
/// ([`Compiled::plan`]) against its step list and placement.
pub fn verify_compiled(c: &Compiled, cfg: &VerifyConfig<'_>) -> VerifyReport {
    let mut checker = Checker::new(c, cfg);
    checker.walk();
    checker.finish()
}

/// Per-value-slot abstract state.
#[derive(Clone, Copy, Debug)]
struct SlotState {
    level: usize,
    /// Producer was a bootstrap unit (refines underflow diagnostics into
    /// bootstrap-target violations).
    from_boot: bool,
}

struct Checker<'a> {
    c: &'a Compiled,
    /// The keys that exist, rotation steps reduced modulo the slot count.
    avail: KeyManifest,
    est: Option<NoiseEstimator<'a>>,
    floor: f64,
    st: Vec<Option<SlotState>>,
    /// Parallel per-slot noise state: (σ, magnitude bound).
    noise: Vec<Option<(f64, f64)>>,
    diags: Vec<Diagnostic>,
    min_prec: Option<f64>,
    rotations_checked: usize,
}

/// Magnitude bounds fold through multiplications; keep them finite.
fn clamp_mag(m: f64) -> f64 {
    m.clamp(1e-6, 1e12)
}

impl<'a> Checker<'a> {
    fn new(c: &'a Compiled, cfg: &VerifyConfig<'a>) -> Self {
        let slots = c.opts.slots as isize;
        let avail = match cfg.available_rotations {
            Some(given) => {
                let mut avail = KeyManifest {
                    relin: given.relin,
                    ..KeyManifest::default()
                };
                for (&k, &level) in &given.rotations {
                    avail.use_rotation(k.rem_euclid(slots), level);
                }
                avail
            }
            None => c.key_manifest(),
        };
        let mut est = None;
        let mut diags = Vec::new();
        if let Some(ctx) = cfg.ctx {
            // The noise estimator indexes the modulus chain by level; a
            // context whose chain is shorter than the program's level
            // budget cannot run the program at all.
            if ctx.params.max_level < c.opts.l_eff {
                diags.push(Diagnostic {
                    rule: Rule::RescaleInfeasible,
                    severity: Severity::Error,
                    at: Provenance::default(),
                    message: format!(
                        "program level budget L_eff={} exceeds the parameter chain (max level {})",
                        c.opts.l_eff, ctx.params.max_level
                    ),
                });
            } else {
                est = Some(NoiseEstimator::new(ctx));
            }
        }
        Self {
            c,
            avail,
            est,
            floor: cfg.noise_floor_bits,
            st: vec![None; c.plan.value_slots()],
            noise: vec![None; c.plan.value_slots()],
            diags,
            min_prec: None,
            rotations_checked: 0,
        }
    }

    fn push(&mut self, rule: Rule, severity: Severity, at: Provenance, message: String) {
        self.diags.push(Diagnostic {
            rule,
            severity,
            at,
            message,
        });
    }

    fn error(&mut self, rule: Rule, at: Provenance, message: String) {
        self.push(rule, Severity::Error, at, message);
    }

    // -----------------------------------------------------------------
    // Pass family 2: evaluation-key coverage.
    // -----------------------------------------------------------------

    /// Checks that a rotation by `k` slots of a level-`lv` ciphertext is
    /// covered by a generated key.
    fn check_rotation(&mut self, k: isize, lv: usize, at: Provenance) {
        self.rotations_checked += 1;
        let slots = self.c.opts.slots;
        let r = k.rem_euclid(slots as isize);
        let key_level = self.avail.rotations.get(&r).copied();
        if r == 0 || key_level.is_some_and(|kl| lv <= kl) {
            return;
        }
        // The Galois element the runtime would look up (and fail on):
        // 5^(k mod N/2) mod 2N with N = 2·slots.
        let g = orion_math::modular::pow_mod(5, r as u64, 4 * slots as u64);
        let why = match key_level {
            None => "has no generated key".to_string(),
            Some(kl) => format!("is applied at level {lv}, its key covers levels ≤ {kl}"),
        };
        self.error(
            Rule::MissingRotationKey,
            at,
            format!("rotation by {k} (galois element {g}) {why}"),
        );
    }

    /// Checks that a relinearization at level `lv` is within the key's.
    fn check_relin(&mut self, lv: usize, at: Provenance) {
        let kl = self.avail.relin;
        if lv > kl {
            self.error(
                Rule::RelinKeyLevel,
                at,
                format!("relinearizes at level {lv}, the key covers levels ≤ {kl}"),
            );
        }
    }

    // -----------------------------------------------------------------
    // Pass families 1 + 3: the per-unit dataflow walk.
    // -----------------------------------------------------------------

    /// Reads `slot` at `level` (`None` = raw read).
    fn read(&mut self, slot: usize, level: Option<usize>, at: Provenance) {
        let Some(state) = self.st.get(slot).copied().flatten() else {
            self.error(
                Rule::Coverage,
                at,
                format!("reads value slot {slot}, which no earlier unit produces"),
            );
            return;
        };
        if let Some(need) = level {
            if state.level < need {
                let rule = if state.from_boot {
                    Rule::BootstrapTarget
                } else {
                    Rule::LevelUnderflow
                };
                self.error(
                    rule,
                    at,
                    format!(
                        "wire at level {} but the policy needs {need} — placement violated",
                        state.level
                    ),
                );
            }
        }
    }

    /// Writes `slot`'s abstract state and predicted noise.
    fn write(&mut self, slot: usize, state: SlotState, noise: Option<(f64, f64)>, at: Provenance) {
        if slot >= self.st.len() {
            self.error(
                Rule::Coverage,
                at,
                format!("writes value slot {slot} beyond the plan's slot count"),
            );
            return;
        }
        if self.st[slot].is_some() {
            self.error(
                Rule::Coverage,
                at,
                format!("value slot {slot} written twice"),
            );
        }
        self.st[slot] = Some(state);
        self.noise[slot] = noise;
    }

    /// Folds the predicted precision at a checkpoint (bootstrap input or
    /// output) into the floor check.
    fn check_floor(&mut self, slot: usize, at: Provenance, what: &str) {
        let Some((sigma, _)) = self.noise.get(slot).copied().flatten() else {
            return;
        };
        let prec = -sigma.log2();
        self.min_prec = Some(self.min_prec.map_or(prec, |m| m.min(prec)));
        if prec < self.floor {
            self.push(
                Rule::NoiseFloor,
                Severity::Warning,
                at,
                format!(
                    "{what} at ~{prec:.1} predicted bits of precision (floor {:.1})",
                    self.floor
                ),
            );
        }
    }

    fn walk(&mut self) {
        let (c, plan) = (self.c, &self.c.plan);
        // What the caller hands the walk: fresh ciphertexts at `L_eff`.
        let fresh = SlotState {
            level: c.opts.l_eff,
            from_boot: false,
        };
        let noise = self.est.as_ref().map(|est| (est.fresh().sigma, 1.0));
        for slot in plan.input.slots() {
            self.write(slot, fresh, noise, Provenance::default());
        }
        for uid in 0..plan.units.len() {
            self.walk_unit(uid);
        }
        // What it hands back: the output wire as it sits, to be decrypted.
        let out = c.prog.iter().position(|p| matches!(p.step, Step::Output));
        for (i, slot) in plan.output.slots().enumerate() {
            let at = out.map_or(Provenance::default(), Provenance::node).at_ct(i);
            self.read(slot, None, at);
            self.check_floor(slot, at, "output wire decrypts");
        }
    }

    /// One unit of the dataflow walk: feasibility, reads and the write are
    /// the unit's signature ([`Compiled::unit_io`]) interpreted generically;
    /// what stays per kind is the rule an infeasible placement breaks and
    /// the noise transfer.
    fn walk_unit(&mut self, uid: usize) {
        let c = self.c;
        let unit = &c.plan.units[uid];
        let at = match unit.work {
            UnitWork::Step { node } => Provenance::unit(uid).at_node(node),
            UnitWork::StepCt { node, ct } => Provenance::unit(uid).at_node(node).at_ct(ct),
            UnitWork::Boot { wire, ct, .. } => Provenance::unit(uid).at_node(wire).at_ct(ct),
        };
        let io = match c.unit_io(uid) {
            Ok(io) => io,
            Err(why) => {
                self.error(Rule::Coverage, at, why.to_string());
                // its outputs count as written, so that its readers do not
                // repeat the finding
                let written = SlotState {
                    level: c.opts.l_eff,
                    from_boot: false,
                };
                for slot in unit.out_slot..unit.out_slot + unit.out_len {
                    self.write(slot, written, None, at);
                }
                return;
            }
        };
        let step = match unit.work {
            UnitWork::Step { node } | UnitWork::StepCt { node, .. } => Some(&c.prog[node].step),
            UnitWork::Boot { .. } => None,
        };
        // Per kind: the rule a placement below the step's depth breaks.
        let (rule, kind) = match step {
            Some(Step::Conv { .. } | Step::Dense { .. }) => {
                (Rule::RescaleInfeasible, "linear layer")
            }
            Some(Step::ScaleDown { .. }) => (Rule::RescaleInfeasible, "scale-down"),
            Some(Step::PolyStage { .. }) => (Rule::RescaleInfeasible, "chebyshev stage"),
            Some(Step::ReluFinal { .. }) => (Rule::LevelUnderflow, "relu final"),
            Some(Step::Square) => (Rule::LevelUnderflow, "square"),
            Some(Step::Add) => (Rule::LevelUnderflow, "residual add"),
            _ => (Rule::LevelUnderflow, "unit"),
        };
        let lv = io.level;
        if lv < io.depth {
            self.error(
                rule,
                at,
                format!(
                    "{kind} needs {} level(s), placed at level {lv} — the rescale chain runs out",
                    io.depth
                ),
            );
            return;
        }

        // Reads. Per input position: the worst predicted noise over the
        // slots read.
        let mut noise: [Option<(f64, f64)>; 2] = [None; 2];
        for (pos, read) in io.reads.iter().enumerate() {
            let Some((buf, level)) = *read else { continue };
            for s in buf.slots() {
                self.read(s, level, at);
                // a raw read leaves the level schedule: a checkpoint
                if level.is_none() {
                    self.check_floor(s, at, "wire enters bootstrap");
                }
                if let Some((sig, mag)) = self.noise.get(s).copied().flatten() {
                    noise[pos] = Some(noise[pos].map_or((sig, mag), |(ws, wm): (f64, f64)| {
                        (ws.max(sig), wm.max(mag))
                    }));
                }
            }
        }

        c.for_each_key_use(uid, &io, |key, lv| match key {
            KeyUse::Rotation(k) => self.check_rotation(k, lv, at),
            KeyUse::Relin => self.check_relin(lv, at),
        });

        // The noise transfer.
        let est = self.est.as_ref();
        let ne = |sigma: f64| orion_ckks::NoiseEstimate { sigma };
        let linear = step.and_then(|s| s.linear_plan().zip(s.linear_weight()));
        let out_noise = match (&unit.work, linear, step) {
            (UnitWork::Boot { .. }, ..) => {
                est.map(|est| (est.fresh().sigma, noise[0].map_or(1.0, |(_, m)| m)))
            }
            (_, Some((plan, weight)), _) => {
                est.zip(noise[0]).map(|(est, (sig, mag))| {
                    // Worst case per output: every rotation's key-switch
                    // error lands in the accumulation (RSS), then the
                    // weight pmult + rescale.
                    let rots = plan.counts.rotations() as f64;
                    let ks = est.key_switch(ne(0.0), lv).sigma;
                    let acc = ne((sig * sig + rots * ks * ks).sqrt());
                    let w_max = weight
                        .data()
                        .iter()
                        .fold(0.0f64, |m, &w| m.max(w.abs()))
                        .max(1e-12);
                    let out = est.pmult_rescale(acc, w_max, lv);
                    (out.sigma, clamp_mag(mag * w_max))
                })
            }
            (.., Some(Step::ScaleDown { factor })) => est.zip(noise[0]).map(|(est, (sig, mag))| {
                let out = est.pmult_rescale(ne(sig), *factor, lv);
                (out.sigma, clamp_mag(mag * factor.abs()))
            }),
            (.., Some(Step::PolyStage { .. })) => est.zip(noise[0]).map(|(est, (sig, _))| {
                let mut ns = ne(sig);
                for i in 0..io.depth {
                    ns = est.hmult_rescale(ns, ns, 1.0, 1.0, lv - i);
                }
                (ns.sigma, 1.0)
            }),
            (.., Some(Step::ReluFinal { magnitude })) => {
                est.zip(noise[0].zip(noise[1]))
                    .map(|(est, ((us, _), (ss, _)))| {
                        let prod = est.hmult_rescale(ne(us), ne(ss), 1.0, 1.0, lv);
                        let out = est.pmult_rescale(prod, *magnitude, lv - 1);
                        (out.sigma, clamp_mag(*magnitude))
                    })
            }
            (.., Some(Step::Square)) => est.zip(noise[0]).map(|(est, (sig, mag))| {
                let prod = est.hmult_rescale(ne(sig), ne(sig), mag, mag, lv);
                let out = est.pmult_rescale(prod, 1.0, lv - 1);
                (out.sigma, clamp_mag(mag * mag))
            }),
            (.., Some(Step::Add)) => {
                est.zip(noise[0].zip(noise[1]))
                    .map(|(est, ((sa, ma), (sb, mb)))| {
                        (est.add(ne(sa), ne(sb)).sigma, clamp_mag(ma + mb))
                    })
            }
            _ => None,
        };
        for i in 0..unit.out_len {
            let state = SlotState {
                level: io.out_level,
                from_boot: matches!(unit.work, UnitWork::Boot { .. }),
            };
            self.write(unit.out_slot + i, state, out_noise, at);
        }
    }

    // -----------------------------------------------------------------
    // Pass family 4: the peak-live-limb certificate.
    // -----------------------------------------------------------------

    /// The most limb vectors a walk in plan order holds at once — what
    /// [`crate::sched::run_plan`] measures
    /// ([`PlanRun::peak_live_limbs`](crate::sched::PlanRun::peak_live_limbs)),
    /// because both release a value slot where [`Compiled::last_reads`]
    /// says. A ciphertext weighs `2·(level + 1)` at the level it is
    /// written at, from its write — the input wire's before the first
    /// unit — until its last reader has run; one nothing reads only at the
    /// unit that writes it (an input one not at all), the output wire to
    /// the end. The peak is taken after each unit's writes. The levels are
    /// the slot states this checker's walk wrote; `last_reads` is the one
    /// extra pass over the units.
    fn peak_live_limbs(&self) -> u64 {
        let (c, plan) = (self.c, &self.c.plan);
        let last = c.last_reads();
        let held = |s: usize| plan.output.slots().contains(&s);
        let limbs = |s: usize| {
            let state = self.st[s].expect("a clean plan writes every slot");
            ct_limbs(state.level)
        };
        // per unit: the limb vectors released once it has run
        let mut freed = vec![0u64; plan.units.len()];
        let mut live = 0;
        for s in plan.input.slots() {
            match last[s] {
                Some(reader) => freed[reader] += limbs(s),
                None if !held(s) => continue,
                None => {}
            }
            live += limbs(s);
        }
        let mut peak = 0;
        for (uid, unit) in plan.units.iter().enumerate() {
            for s in unit.out_slot..unit.out_slot + unit.out_len {
                live += limbs(s);
                match last[s] {
                    Some(reader) => freed[reader] += limbs(s),
                    None if !held(s) => freed[uid] += limbs(s),
                    None => {}
                }
            }
            peak = peak.max(live);
            live -= freed[uid];
        }
        peak
    }

    fn finish(self) -> VerifyReport {
        let errors = self.diags.iter().any(|d| d.severity == Severity::Error);
        // The certificate is only meaningful on a well-formed plan (it
        // trusts every unit's signature).
        let peak_limbs = (!errors).then(|| self.peak_live_limbs());
        VerifyReport {
            units: self.c.plan.units.len(),
            peak_limbs,
            diagnostics: self.diags,
            min_precision_bits: self.min_prec,
            rotations_checked: self.rotations_checked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_renders_compactly() {
        assert_eq!(Provenance::default().to_string(), "plan");
        assert_eq!(Provenance::unit(3).to_string(), "unit 3");
        assert_eq!(
            Provenance::unit(3).at_node(7).at_ct(1).to_string(),
            "unit 3 node 7 ct 1"
        );
    }

    #[test]
    fn report_counts_and_summary() {
        let mut r = VerifyReport {
            units: 5,
            ..VerifyReport::default()
        };
        assert!(r.is_clean());
        assert!(r.summary().contains("certified clean"));
        r.diagnostics.push(Diagnostic {
            rule: Rule::LevelUnderflow,
            severity: Severity::Error,
            at: Provenance::node(2),
            message: "wire at level 0 but the policy needs 3".into(),
        });
        r.diagnostics.push(Diagnostic {
            rule: Rule::NoiseFloor,
            severity: Severity::Warning,
            at: Provenance::unit(1),
            message: "precision".into(),
        });
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert_eq!(
            r.counts_by_rule(),
            vec![("level-underflow", 1), ("noise-floor", 1)]
        );
        assert!(r.table().contains("level-underflow"));
    }
}
