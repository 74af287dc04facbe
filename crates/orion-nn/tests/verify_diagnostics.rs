//! Negative tests for the static plan verifier: one hand-seeded defect
//! per rule family, each asserting the exact diagnostic rule *and*
//! provenance — plus a property test that randomly compiled valid models
//! certify clean.

use orion_ckks::{CkksParams, Context, KeyManifest};
use orion_nn::compile::{compile, CompileOptions, Step};
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_nn::sched::UnitWork;
use orion_nn::sim::CostModel;
use orion_nn::verify::{verify_compiled, Rule, Severity, VerifyConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_opts() -> CompileOptions {
    CompileOptions {
        slots: 128,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    }
}

/// A conv→activation chain (mirrors the sched_plan generator): `act_kind`
/// 0 = square, 1 = silu, 2 = relu; optional residual add around block 0.
fn conv_net(seed: u64, blocks: usize, act_kind: usize, residual: bool) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let ch = 2 + (seed as usize % 3);
    let mut net = Network::new(ch, 8, 8);
    let x = net.input();
    let mut cur = x;
    let mut anchor = None;
    for b in 0..blocks {
        let conv = net.conv2d(&format!("c{b}"), cur, ch, 3, 1, 1, 1, &mut rng);
        cur = match act_kind % 3 {
            0 => net.square(&format!("a{b}"), conv),
            1 => net.silu(&format!("a{b}"), conv, 7),
            _ => net.relu(&format!("a{b}"), conv, &[15, 27]),
        };
        if residual && b == 0 {
            anchor = Some(cur);
        }
    }
    if let (true, Some(a)) = (residual && blocks >= 2, anchor) {
        cur = net.add("res", cur, a);
    }
    net.output(cur);
    net
}

fn node_of(c: &orion_nn::Compiled, pred: impl Fn(&Step) -> bool) -> usize {
    c.prog
        .iter()
        .position(|p| pred(&p.step))
        .expect("expected step kind present")
}

// ---------------------------------------------------------------------
// Seeded defect 1: missing rotation key.
// ---------------------------------------------------------------------

#[test]
fn missing_rotation_key_is_flagged_at_the_linear_node() {
    let net = conv_net(3, 1, 0, false);
    let c = compile(&net, &fixed_ranges(&net, 4.0), &small_opts());
    let conv = node_of(&c, |s| matches!(s, Step::Conv { .. }));
    // Keygen covered nothing: every rotation the conv's BSGS plan touches
    // must surface as a pre-flight error, anchored at the conv node.
    let report = verify_compiled(
        &c,
        &VerifyConfig {
            available_rotations: Some(&KeyManifest::default()),
            ..VerifyConfig::default()
        },
    );
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::MissingRotationKey)
        .expect("missing-rotation-key diagnostic");
    assert_eq!(hit.severity, Severity::Error);
    assert_eq!(
        hit.at.node,
        Some(conv),
        "provenance must name the conv node"
    );
    assert!(hit.message.contains("galois element"), "{}", hit.message);
    // The same program against its own keygen set is covered.
    assert!(
        !verify_compiled(&c, &VerifyConfig::default()).has_errors(),
        "self-keyed program must be covered"
    );
}

// ---------------------------------------------------------------------
// Seeded defect 1b: a key generated one level below where the plan
// applies it — a rotation step's, then the relinearization key's.
// ---------------------------------------------------------------------

#[test]
fn a_key_one_level_too_low_is_flagged_at_the_unit_that_applies_it() {
    let net = conv_net(3, 1, 0, false); // conv → square
    let c = compile(&net, &fixed_ranges(&net, 4.0), &small_opts());
    let plan = &c.plan;
    let conv = node_of(&c, |s| matches!(s, Step::Conv { .. }));
    let square = node_of(&c, |s| matches!(s, Step::Square));
    let unit_of = |node: usize| {
        plan.units
            .iter()
            .position(|u| {
                matches!(u.work, UnitWork::Step { node: n } | UnitWork::StepCt { node: n, .. } if n == node)
            })
            .expect("node has a unit")
    };
    let generated = c.key_manifest();
    let with = |manifest: &_| {
        verify_compiled(
            &c,
            &VerifyConfig {
                available_rotations: Some(manifest),
                ..VerifyConfig::default()
            },
        )
    };
    assert!(with(&generated).is_clean(), "the generated manifest covers");

    // One rotation step of the conv, one level short.
    let (&step, &level) = generated.rotations.iter().next().expect("conv rotates");
    assert_eq!(Some(level), c.placement.levels[conv]);
    let mut low = generated.clone();
    low.rotations.insert(step, level - 1);
    let report = with(&low);
    assert_eq!(report.error_count(), 1, "{}", report.table());
    let hit = &report.diagnostics[0];
    assert_eq!(hit.rule, Rule::MissingRotationKey);
    assert_eq!(
        (hit.at.unit, hit.at.node),
        (Some(unit_of(conv)), Some(conv))
    );
    assert!(
        hit.message.contains(&format!("rotation by {step} "))
            && hit.message.contains(&format!("applied at level {level}"))
            && hit.message.contains(&format!("levels ≤ {}", level - 1)),
        "{}",
        hit.message
    );

    // The relinearization key, one level short of the square.
    let product_level = c.placement.levels[square].expect("square is placed");
    assert!(product_level <= generated.relin);
    let mut low = generated.clone();
    low.relin = product_level - 1;
    let report = with(&low);
    assert_eq!(report.error_count(), 1, "{}", report.table());
    let hit = &report.diagnostics[0];
    assert_eq!(hit.rule, Rule::RelinKeyLevel);
    assert_eq!(
        (hit.at.unit, hit.at.node, hit.at.ct),
        (Some(unit_of(square)), Some(square), Some(0))
    );
}

// ---------------------------------------------------------------------
// Seeded defect 3: level underflow (square placed below its depth).
// ---------------------------------------------------------------------

#[test]
fn square_placed_below_its_depth_is_a_level_underflow_at_the_square_node() {
    let net = conv_net(7, 1, 0, false);
    let mut c = compile(&net, &fixed_ranges(&net, 4.0), &small_opts());
    let square = node_of(&c, |s| matches!(s, Step::Square));
    // A square consumes two levels; placement at level 1 would hit the
    // executor's `lv >= 2` assert mid-inference.
    c.placement.levels[square] = Some(1);
    let report = verify_compiled(&c, &VerifyConfig::default());
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::LevelUnderflow)
        .expect("level-underflow diagnostic");
    assert_eq!(hit.severity, Severity::Error);
    assert_eq!(
        hit.at.node,
        Some(square),
        "provenance must name the square node"
    );
}

// ---------------------------------------------------------------------
// Seeded defect 3, every kind × every level: the step signature is total
// and consistent with its depth, and a placement below the depth is the
// verifier's finding — the kind's feasibility rule, at that node.
// ---------------------------------------------------------------------

#[test]
fn every_step_kind_below_its_depth_draws_its_feasibility_rule() {
    // One net holding every step kind.
    let mut rng = StdRng::seed_from_u64(17);
    let mut net = Network::new(2, 8, 8);
    let x = net.input();
    let c0 = net.conv2d("c0", x, 2, 3, 1, 1, 1, &mut rng);
    let relu = net.relu("relu", c0, &[15, 27]);
    let c1 = net.conv2d("c1", relu, 2, 3, 1, 1, 1, &mut rng);
    let res = net.add("res", c1, relu);
    let silu = net.silu("silu", res, 7);
    let sq = net.square("sq", silu);
    let flat = net.flatten("flat", sq);
    let fc = net.linear("fc", flat, 4, &mut rng);
    net.output(fc);
    let mut c = compile(&net, &fixed_ranges(&net, 4.0), &small_opts());
    assert!(!verify_compiled(&c, &VerifyConfig::default()).has_errors());

    // (rule an infeasible placement breaks, consumes exactly its depth)
    let table = |step: &Step| match step {
        Step::Conv { .. } | Step::Dense { .. } | Step::ScaleDown { .. } => {
            (Some(Rule::RescaleInfeasible), true)
        }
        Step::PolyStage { .. } => (Some(Rule::RescaleInfeasible), false),
        Step::ReluFinal { .. } | Step::Square => (Some(Rule::LevelUnderflow), true),
        Step::Input | Step::Output | Step::Add => (None, true),
    };
    let mut kinds = std::collections::HashSet::new();
    for id in 0..c.prog.len() {
        let step = c.prog[id].step.clone();
        kinds.insert(std::mem::discriminant(&step));
        let (rule, exact) = table(&step);
        let depth = step.depth();
        assert_eq!(depth == 0, rule.is_none(), "{step:?}");
        let placed = c.placement.levels[id];
        for lv in 0..=c.opts.l_eff {
            let sig = step.sig(lv); // total: no panic below the depth
            if lv >= depth {
                let consumed = lv - sig.exit_level;
                assert!(consumed <= depth, "{step:?} at {lv}");
                assert!(!exact || consumed == depth, "{step:?} at {lv}");
            }
            c.placement.levels[id] = Some(lv);
            let report = verify_compiled(&c, &VerifyConfig::default());
            let found = report
                .diagnostics
                .iter()
                .find(|d| d.at.node == Some(id) && d.message.contains("placed at level"));
            assert_eq!(
                found.map(|d| (d.rule, d.severity)),
                rule.filter(|_| lv < depth).map(|r| (r, Severity::Error)),
                "{} at level {lv}: {}",
                c.prog[id].name,
                report.table()
            );
        }
        c.placement.levels[id] = placed;
    }
    assert_eq!(kinds.len(), 9, "the net must hold every step kind");
}

// ---------------------------------------------------------------------
// Seeded defect 4: noise-floor breach.
// ---------------------------------------------------------------------

#[test]
fn unreachable_noise_floor_draws_a_warning_not_an_error() {
    let params = CkksParams::tiny();
    let net = conv_net(9, 1, 0, false);
    let c = compile(
        &net,
        &fixed_ranges(&net, 4.0),
        &CompileOptions::from_params(&params),
    );
    let ctx = Context::new(params);
    // A 1000-bit floor is unsatisfiable by construction: every checkpoint
    // (bootstrap input / output wire) must breach it.
    let report = verify_compiled(
        &c,
        &VerifyConfig {
            ctx: Some(&ctx),
            noise_floor_bits: 1000.0,
            ..VerifyConfig::default()
        },
    );
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::NoiseFloor)
        .expect("noise-floor diagnostic");
    assert_eq!(hit.severity, Severity::Warning, "floor breach is advisory");
    assert!(
        hit.at.unit.is_some() || hit.at.node.is_some(),
        "floor breach carries provenance"
    );
    assert!(
        report.min_precision_bits.is_some(),
        "noise pass records worst-case precision"
    );
    assert!(!report.has_errors(), "warnings alone are not errors");
    // The same program under the default (2-bit) floor is quiet.
    let relaxed = verify_compiled(&c, &VerifyConfig::with_ctx(&ctx));
    assert!(
        relaxed
            .diagnostics
            .iter()
            .all(|d| d.rule != Rule::NoiseFloor),
        "tiny-params square net keeps >2 bits of precision"
    );
}

// ---------------------------------------------------------------------
// Seeded defect 6: a unit moved ahead of the unit producing what it reads.
// The plan stores no edges; the read of an unwritten slot is the finding.
// Every seeded plan defect is made in a clone of the compiled program.
// ---------------------------------------------------------------------

#[test]
fn a_read_before_its_producer_runs_is_a_coverage_error_at_the_reader() {
    let net = conv_net(3, 1, 0, false); // conv → square
    let c = compile(&net, &fixed_ranges(&net, 4.0), &small_opts());
    let square = node_of(&c, |s| matches!(s, Step::Square));
    assert!(verify_compiled(&c, &VerifyConfig::default()).is_clean());
    // unit 0 is the conv, unit 1 the square's first ciphertext
    let mut swapped = c.clone();
    assert!(matches!(swapped.plan.units[0].work, UnitWork::Step { .. }));
    swapped.plan.units.swap(0, 1);
    let report = verify_compiled(&swapped, &VerifyConfig::default());
    assert_eq!(report.error_count(), 1, "{}", report.table());
    let hit = &report.diagnostics[0];
    assert_eq!(hit.rule, Rule::Coverage);
    assert_eq!(
        (hit.at.unit, hit.at.node, hit.at.ct),
        (Some(0), Some(square), Some(0))
    );
    assert!(hit.message.contains("no earlier unit"), "{}", hit.message);
}

// ---------------------------------------------------------------------
// Seeded defect 7: a unit or a bootstrap dropped, duplicated or pointed
// outside the program. The plan carries no census of its units; each
// defect is found where a walk would fail — the read of a slot nothing
// wrote, a slot written twice, a unit `unit_io` cannot describe.
// ---------------------------------------------------------------------

/// The one error-severity diagnostic of `c`'s plan, as (rule, unit, node,
/// ct).
fn one_error(c: &orion_nn::Compiled) -> (Rule, Option<usize>, Option<usize>, Option<usize>) {
    let report = verify_compiled(c, &VerifyConfig::default());
    assert_eq!(report.error_count(), 1, "{}", report.table());
    let hit = &report.diagnostics[0];
    assert_eq!(hit.severity, Severity::Error);
    (hit.rule, hit.at.unit, hit.at.node, hit.at.ct)
}

/// The units whose signature reads `slot`.
fn readers(c: &orion_nn::Compiled, slot: usize) -> Vec<usize> {
    (0..c.plan.units.len())
        .filter(|&uid| {
            let io = c.unit_io(uid).expect("well-formed unit");
            io.reads
                .iter()
                .flatten()
                .any(|(buf, _)| buf.slots().contains(&slot))
        })
        .collect()
}

#[test]
fn a_dropped_or_duplicated_elementwise_unit_is_a_coverage_error() {
    let net = conv_net(3, 2, 0, false); // conv → square → conv → square
    let c = compile(&net, &fixed_ranges(&net, 4.0), &small_opts());
    let plan = &c.plan;
    assert!(verify_compiled(&c, &VerifyConfig::default()).is_clean());
    let square = node_of(&c, |s| matches!(s, Step::Square));
    let sq = plan
        .units
        .iter()
        .position(|u| matches!(u.work, UnitWork::StepCt { node, .. } if node == square))
        .expect("the first square's unit");
    let readers = readers(&c, plan.units[sq].out_slot);
    assert_eq!(readers.len(), 1, "the second conv reads the square");
    let reader = readers[0];
    let UnitWork::Step { node: conv } = plan.units[reader].work else {
        panic!("the square's reader is a conv");
    };

    // dropped: its reader reads a slot nothing wrote (and moves up one)
    let mut dropped = c.clone();
    dropped.plan.units.remove(sq);
    assert_eq!(
        one_error(&dropped),
        (Rule::Coverage, Some(reader - 1), Some(conv), None)
    );

    // duplicated: the copy writes the slot a second time
    let mut doubled = c.clone();
    doubled.plan.units.insert(sq + 1, plan.units[sq].clone());
    assert_eq!(
        one_error(&doubled),
        (Rule::Coverage, Some(sq + 1), Some(square), Some(0))
    );
}

#[test]
fn a_dropped_duplicated_or_foreign_bootstrap_is_a_coverage_error() {
    let net = conv_net(5, 2, 2, false); // conv → ReLU, twice: bootstrap-deep
    let c = compile(&net, &fixed_ranges(&net, 4.0), &small_opts());
    let plan = &c.plan;
    assert!(verify_compiled(&c, &VerifyConfig::default()).is_clean());
    // a bootstrap unit whose refreshed ciphertext has one reader
    let (boot, reader) = (0..plan.units.len())
        .filter(|&u| matches!(plan.units[u].work, UnitWork::Boot { .. }))
        .find_map(|u| match readers(&c, plan.units[u].out_slot)[..] {
            [r] => Some((u, r)),
            _ => None,
        })
        .expect("a bootstrap read once");
    let UnitWork::Boot { wire, ct, .. } = plan.units[boot].work else {
        unreachable!()
    };
    let at_reader = |uid: usize| {
        let (node, ct) = match plan.units[reader].work {
            UnitWork::Step { node } => (node, None),
            UnitWork::StepCt { node, ct } => (node, Some(ct)),
            _ => panic!("a bootstrap's reader is a step"),
        };
        (Rule::Coverage, Some(uid), Some(node), ct)
    };

    // dropped: its reader reads a slot nothing wrote
    let mut dropped = c.clone();
    dropped.plan.units.remove(boot);
    assert_eq!(one_error(&dropped), at_reader(reader - 1));

    // duplicated: the copy writes the refreshed slot a second time
    let mut doubled = c.clone();
    doubled
        .plan
        .units
        .insert(boot + 1, plan.units[boot].clone());
    assert_eq!(
        one_error(&doubled),
        (Rule::Coverage, Some(boot + 1), Some(wire), Some(ct))
    );

    // a wire outside the program: `unit_io` cannot describe the unit, and
    // its reader does not repeat the finding
    let mut foreign = c.clone();
    let outside = c.prog.len() + 3;
    if let UnitWork::Boot { wire, .. } = &mut foreign.plan.units[boot].work {
        *wire = outside;
    }
    assert_eq!(
        one_error(&foreign),
        (Rule::Coverage, Some(boot), Some(outside), Some(ct))
    );
}

// ---------------------------------------------------------------------
// Property: every randomly compiled valid model certifies clean.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_valid_models_verify_clean(
        seed in 0u64..1000,
        blocks in 1usize..4,
        act_kind in 0usize..3,
        residual in prop::sample::select(vec![false, true]),
    ) {
        let net = conv_net(seed, blocks, act_kind, residual);
        let c = compile(&net, &fixed_ranges(&net, 4.0), &small_opts());
        let report = verify_compiled(&c, &VerifyConfig::default());
        prop_assert!(report.is_clean(), "{}", report.table());
        prop_assert!(report.peak_limbs.is_some(), "clean plans get certified peaks");
    }
}
