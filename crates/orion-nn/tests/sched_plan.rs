//! Property tests for the dataflow plan builder: every `ExecPlan`
//! generated from a random compiled network must be a valid topological
//! order of the step DAG — deps strictly precede their dependents, every
//! program step is covered by exactly the right units, bootstrap units
//! match the placement, and the sequential and parallel walks agree on
//! the trace engine.

use orion_nn::backend::{run_program_mode, run_program_opt};
use orion_nn::backends::ClearBackend;
use orion_nn::compile::{compile, CompileOptions, Step};
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_nn::opt::{optimize_plan, OptConfig, OptStats};
use orion_nn::sched::{ExecPlan, SchedMode, UnitWork};
use orion_sim::CostModel;
use orion_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random small network: a chain of conv/dense blocks with a
/// random activation after each, optionally closed by a residual add
/// around the middle.
fn random_net(seed: u64, blocks: usize, act_kind: usize, residual: bool) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let ch = 2 + (seed as usize % 3); // 2..=4 channels
    let mut net = Network::new(ch, 8, 8);
    let x = net.input();
    let mut cur = x;
    let mut res_anchor = None;
    for b in 0..blocks {
        let conv = net.conv2d(&format!("c{b}"), cur, ch, 3, 1, 1, 1, &mut rng);
        cur = match act_kind % 3 {
            0 => net.square(&format!("a{b}"), conv),
            1 => net.silu(&format!("a{b}"), conv, 7),
            _ => net.relu(&format!("a{b}"), conv, &[15, 27]),
        };
        if residual && b == 0 {
            res_anchor = Some(cur);
        }
    }
    if let (true, Some(anchor)) = (residual && blocks >= 2, res_anchor) {
        cur = net.add("res", cur, anchor);
    }
    net.output(cur);
    net
}

fn validate_plan(plan: &ExecPlan, c: &orion_nn::Compiled) {
    // 1. topological: every dependency strictly precedes its dependent
    for (uid, unit) in plan.units.iter().enumerate() {
        for &d in &unit.deps {
            assert!(
                d < uid,
                "unit {uid} ({:?}) depends on later/equal unit {d}",
                unit.work
            );
        }
    }
    // 2. coverage: each program node appears as exactly one whole-step
    //    unit or exactly n_cts per-ciphertext units
    for (id, node) in c.prog.iter().enumerate() {
        let whole = plan
            .units
            .iter()
            .filter(|u| matches!(u.work, UnitWork::Step { node } if node == id))
            .count();
        let per_ct = plan
            .units
            .iter()
            .filter(|u| matches!(u.work, UnitWork::StepCt { node, .. } if node == id))
            .count();
        match node.step {
            Step::Input | Step::Output | Step::Conv { .. } | Step::Dense { .. } => {
                assert_eq!((whole, per_ct), (1, 0), "node {id} miscovered");
            }
            _ => {
                assert_eq!(whole, 0, "elementwise node {id} has a whole-step unit");
                assert_eq!(per_ct, node.n_cts.max(1), "node {id} ct coverage");
            }
        }
    }
    // 3. bootstrap units replicate the placement's per-wire refreshes
    let mut want = 0u64;
    for (id, node) in c.prog.iter().enumerate() {
        if c.placement.boots_before[id] > 0 {
            for &w in &node.inputs {
                want += c.prog[w].n_cts.max(1) as u64;
            }
        }
    }
    let boot_units = plan
        .units
        .iter()
        .filter(|u| matches!(u.work, UnitWork::Boot { .. }))
        .count() as u64;
    assert_eq!(boot_units, want, "bootstrap units vs placement");
    assert_eq!(plan.bootstraps(), want);
    // 4. every boot unit has exactly one dependency (the version below it)
    for unit in &plan.units {
        if matches!(unit.work, UnitWork::Boot { .. }) {
            assert_eq!(unit.deps.len(), 1, "boot unit with {:?}", unit.deps);
        }
    }
    // 5. prefetch twins: one per linear step, ready no later than the
    //    step itself (its deps are ancestors of the step unit — the
    //    one-step lookahead), so the advisory load can only start early
    for (id, node) in c.prog.iter().enumerate() {
        if matches!(node.step, Step::Conv { .. } | Step::Dense { .. }) {
            let twins: Vec<&orion_nn::sched::Unit> = plan
                .units
                .iter()
                .filter(|u| matches!(u.work, UnitWork::Prefetch { node } if node == id))
                .collect();
            assert_eq!(twins.len(), 1, "node {id} prefetch twins");
            let step_unit = plan
                .units
                .iter()
                .find(|u| matches!(u.work, UnitWork::Step { node } if node == id))
                .unwrap();
            // transitive ancestors of the step unit
            let mut anc = std::collections::HashSet::new();
            let mut stack = step_unit.deps.clone();
            while let Some(u) = stack.pop() {
                if anc.insert(u) {
                    stack.extend(plan.units[u].deps.iter().copied());
                }
            }
            for &d in &twins[0].deps {
                assert!(
                    anc.contains(&d),
                    "node {id}: prefetch dep {d} is not an ancestor of the step unit"
                );
            }
        }
    }
}

/// Extra invariants an *optimized* plan must uphold on top of
/// `validate_plan` (which it must still pass wholesale — the optimizer
/// never breaks topology, coverage, bootstrap replication, or the
/// prefetch-twin lookahead property).
fn validate_optimized(plan: &ExecPlan, c: &orion_nn::Compiled) {
    validate_plan(plan, c);
    // Shared-rotation specs are well-formed: nonzero rotation amounts on
    // in-range blocks, hoist count = distinct blocks.
    for sp in plan.shared_specs() {
        assert!(!sp.rots.is_empty(), "empty shared-rotation spec");
        let blocks: std::collections::BTreeSet<u32> = sp.rots.iter().map(|&(b, _)| b).collect();
        assert_eq!(sp.hoists, blocks.len(), "spec hoists vs distinct blocks");
        for &(b, i) in &sp.rots {
            assert_ne!(i, 0, "identity rotation in a shared spec");
            assert!((b as usize) < sp.buf.len, "spec block out of range");
        }
    }
    for (uid, unit) in plan.units.iter().enumerate() {
        // Each SharedRot unit's spec index is valid and at least two
        // linear consumers point back at it through a dependency edge.
        if let UnitWork::SharedRot { spec } = unit.work {
            assert!(spec < plan.shared_specs().len(), "dangling spec index");
            let consumers = plan
                .units
                .iter()
                .filter(|u| u.shared_rots == Some(spec) && u.deps.contains(&uid))
                .count();
            assert!(
                consumers >= 2,
                "shared unit {uid} has {consumers} consumers — sharing needs ≥ 2"
            );
        }
        // Consumers marked shared are linear step units.
        if unit.shared_rots.is_some() {
            let UnitWork::Step { node } = unit.work else {
                panic!("non-step unit {uid} marked shared");
            };
            assert!(
                matches!(c.prog[node].step, Step::Conv { .. } | Step::Dense { .. }),
                "non-linear node {node} marked shared"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random nets compile to valid plans, and the two scheduler walks
    /// agree exactly on the trace engine.
    #[test]
    fn random_programs_build_valid_plans(
        seed in 0u64..1000,
        blocks in 1usize..4,
        act_kind in 0usize..3,
        residual in prop::sample::select(vec![false, true]),
    ) {
        let net = random_net(seed, blocks, act_kind, residual);
        let opts = CompileOptions {
            slots: 128,
            l_eff: 10,
            cost: CostModel::for_degree(1 << 9, 4),
        };
        let c = compile(&net, &fixed_ranges(&net, 4.0), &opts);
        let plan = ExecPlan::build(&c);
        validate_plan(&plan, &c);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let shape = c.input_layout;
        let n = shape.c * shape.h * shape.w;
        let input = Tensor::from_vec(
            &[shape.c, shape.h, shape.w],
            (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let backend = ClearBackend::reference(&c);
        let seq = run_program_mode(&c, &backend, &input, SchedMode::Sequential);
        let par = run_program_mode(&c, &backend, &input, SchedMode::Parallel);
        prop_assert_eq!(seq.output.data(), par.output.data());
        prop_assert_eq!(seq.bootstraps, par.bootstraps);

        // The optimizer preserves every plan invariant, and changes a plan
        // only where it removes rotations…
        let mut oplan = ExecPlan::build(&c);
        let stats = optimize_plan(&mut oplan, &c, OptConfig::default());
        validate_optimized(&oplan, &c);
        if stats.rotation_cse.shared_units == 0 {
            prop_assert_eq!(oplan.digest(), plan.digest());
        }

        // …and the optimized plan computes the same bits in both walks.
        let (oseq, _) = run_program_opt(
            &c, &backend, &input, SchedMode::Sequential, OptConfig::default());
        let (opar, _) = run_program_opt(
            &c, &backend, &input, SchedMode::Parallel, OptConfig::default());
        prop_assert_eq!(seq.output.data(), oseq.output.data());
        prop_assert_eq!(seq.output.data(), opar.output.data());
        prop_assert_eq!(seq.bootstraps, oseq.bootstraps);
    }

    /// With every pass disabled the optimizer is a byte-identical no-op:
    /// the plan digest is unchanged and all stats stay zero.
    #[test]
    fn disabled_pipeline_is_byte_identical_noop(
        seed in 0u64..1000,
        blocks in 1usize..4,
        act_kind in 0usize..3,
    ) {
        let net = random_net(seed, blocks, act_kind, false);
        let opts = CompileOptions {
            slots: 128,
            l_eff: 10,
            cost: CostModel::for_degree(1 << 9, 4),
        };
        let c = compile(&net, &fixed_ranges(&net, 4.0), &opts);
        let mut plan = ExecPlan::build(&c);
        let before = plan.digest();
        let stats = optimize_plan(&mut plan, &c, OptConfig::disabled());
        prop_assert_eq!(stats, OptStats::default());
        prop_assert_eq!(plan.digest(), before);
    }
}
