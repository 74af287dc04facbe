//! Property tests for the dataflow plan builder: every `ExecPlan`
//! generated from a random compiled network must be a valid topological
//! order of the step DAG — every slot is written before it is read, so the
//! producers `Compiled::deps` derives from the reads precede them, every
//! program step is covered by exactly the right units, bootstrap units
//! match the placement, every linear layer hoists its own rotations — also
//! where two layers read one wire — and a walk on the trace engine holds
//! at its peak exactly the live limbs the verifier certifies. Prefetch is not part of the plan:
//! the last test holds the walk to announcing exactly the layers its rule
//! names.

use orion_ckks::CkksParams;
use orion_linear::paged::{LayerSource, PagedProgram};
use orion_linear::prepared::PreparedLayer;
use orion_linear::store::{DiagStore, StoreError};
use orion_nn::backend::encrypt_input;
use orion_nn::backends::{CkksBackend, ClearBackend};
use orion_nn::compile::{compile, CompileOptions, Step};
use orion_nn::fhe_exec::FheSession;
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_nn::sched::{run_plan, UnitWork};
use orion_nn::sim::{CostModel, OpKind};
use orion_nn::verify::{verify_compiled, VerifyConfig};
use orion_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Builds a random small network: a chain of conv/dense blocks with a
/// random activation after each, optionally closed by a residual add
/// around the middle, and optionally with a twin conv on the first block's
/// input wire (added to the first conv), so two layers read one wire.
fn random_net(seed: u64, blocks: usize, act_kind: usize, residual: bool, fork: bool) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let ch = 2 + (seed as usize % 3); // 2..=4 channels
    let mut net = Network::new(ch, 8, 8);
    let x = net.input();
    let mut cur = x;
    let mut res_anchor = None;
    for b in 0..blocks {
        // the twin is 1×1 and comes first: its rotations are not the 3×3
        // conv's
        let twin = (fork && b == 0).then(|| net.conv2d("twin", cur, ch, 1, 1, 0, 1, &mut rng));
        let mut conv = net.conv2d(&format!("c{b}"), cur, ch, 3, 1, 1, 1, &mut rng);
        if let Some(twin) = twin {
            conv = net.add("fork", twin, conv);
        }
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

fn validate_plan(c: &orion_nn::Compiled) {
    let (plan, deps) = (&c.plan, c.deps());
    // 1. topological: every slot a unit reads is the input wire's or
    //    written by an earlier unit, and every producer derived from the
    //    reads strictly precedes its reader
    let mut written = vec![false; plan.value_slots()];
    written[plan.input.slots()].fill(true);
    for (uid, unit) in plan.units.iter().enumerate() {
        let io = c.unit_io(uid).expect("well-formed unit");
        for (buf, _) in io.reads.iter().flatten() {
            assert!(
                written[buf.slots()].iter().all(|&w| w),
                "unit {uid} ({:?}) reads {buf:?} before it is written",
                unit.work
            );
        }
        written[unit.out_slot..unit.out_slot + unit.out_len].fill(true);
        for &d in &deps[uid] {
            assert!(
                d < uid,
                "unit {uid} ({:?}) depends on later/equal unit {d}",
                unit.work
            );
        }
    }
    // 2. coverage: each linear layer appears as exactly one whole-step
    //    unit, each elementwise step as exactly n_cts per-ciphertext units,
    //    and the input and the output — buffers, not work — as none
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
            Step::Input | Step::Output => {
                assert_eq!((whole, per_ct), (0, 0), "node {id} is not work");
            }
            Step::Conv { .. } | Step::Dense { .. } => {
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
    // 4. every boot unit has exactly one producer (the version below it) —
    //    none when it refreshes the input wire, which no unit produces
    for (uid, unit) in plan.units.iter().enumerate() {
        if let UnitWork::Boot { in_slot, .. } = unit.work {
            let want = usize::from(!plan.input.slots().contains(&in_slot));
            assert_eq!(deps[uid].len(), want, "boot unit with {:?}", deps[uid]);
        }
    }
    // 5. units are released by the units producing what they read: a unit
    //    has no producer iff everything it reads is the input wire
    for (uid, deps) in deps.iter().enumerate() {
        let io = c.unit_io(uid).expect("well-formed unit");
        let reads_only_input =
            (io.reads.iter().flatten()).all(|(buf, _)| plan.input.slots().contains(&buf.offset));
        assert_eq!(deps.is_empty(), reads_only_input, "unit {uid}");
    }
    // 6. every unit is a layer, an elementwise ciphertext or a bootstrap,
    //    and each linear layer pays its own digit decompositions — two
    //    layers reading one wire hoist it twice
    for (uid, unit) in plan.units.iter().enumerate() {
        let io = c.unit_io(uid).expect("well-formed unit");
        match unit.work {
            UnitWork::Step { node } => {
                let Some(layer) = c.prog[node].step.linear_plan() else {
                    panic!("whole-step unit {uid} is no linear layer");
                };
                assert_eq!(io.count(OpKind::Hoist), layer.counts.hoists as u64);
            }
            UnitWork::StepCt { .. } | UnitWork::Boot { .. } => {
                assert_eq!(io.count(OpKind::Hoist), 0, "unit {uid} hoists");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random nets compile to valid plans, and a walk on the trace engine
    /// measures the peak live limbs the verifier certifies for the plan.
    #[test]
    fn random_programs_build_valid_plans(
        seed in 0u64..1000,
        blocks in 1usize..4,
        act_kind in 0usize..3,
        residual in prop::sample::select(vec![false, true]),
        fork in prop::sample::select(vec![false, true]),
    ) {
        let net = random_net(seed, blocks, act_kind, residual, fork);
        let opts = CompileOptions {
            slots: 128,
            l_eff: 10,
            cost: CostModel::for_degree(1 << 9, 4),
        };
        let c = compile(&net, &fixed_ranges(&net, 4.0), &opts);
        validate_plan(&c);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let shape = c.input_layout;
        let n = shape.c * shape.h * shape.w;
        let input = Tensor::from_vec(
            &[shape.c, shape.h, shape.w],
            (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let backend = ClearBackend::reference(&c);
        let cts = encrypt_input(&c, &backend, &input);
        let run = run_plan(&c, &backend, cts);
        let certified = verify_compiled(&c, &VerifyConfig::default()).peak_limbs;
        prop_assert_eq!(Some(run.peak_live_limbs), certified, "measured vs certified peak");
        let boot_units = (c.plan.units.iter())
            .filter(|u| matches!(u.work, UnitWork::Boot { .. }))
            .count();
        prop_assert_eq!(run.counter.bootstraps(), boot_units as u64);
    }
}

/// A paged source that counts the walk's prefetch announcements per layer
/// and holds the fetch of layer `gate` until its announcement has been
/// served — the order is forced, not assumed from timing.
struct Announced {
    pager: PagedProgram,
    served: Mutex<HashMap<usize, usize>>,
    wake: Condvar,
    gate: Option<usize>,
}

impl LayerSource for Announced {
    fn contains_layer(&self, step: usize) -> bool {
        self.pager.contains_layer(step)
    }

    fn fetch_layer(&self, step: usize) -> Result<Option<Arc<PreparedLayer>>, StoreError> {
        if self.gate == Some(step) {
            let served = self.served.lock().unwrap();
            let wait = Duration::from_secs(60);
            let (_served, late) = (self.wake)
                .wait_timeout_while(served, wait, |s| !s.contains_key(&step))
                .unwrap();
            assert!(!late.timed_out(), "layer {step} ran unannounced");
        }
        self.pager.fetch_layer(step)
    }

    fn prefetch(&self, step: usize) {
        self.pager.prefetch(step);
        *self.served.lock().unwrap().entry(step).or_default() += 1;
        self.wake.notify_all();
    }
}

/// Prefetch is an effect of the walk, not a plan unit: on a pool wider than
/// one thread, the unit a linear layer depends on first announces the
/// layer to the engine once, before it runs — on fc1 → x² → fc2, fc2 is
/// announced by the square's first unit and its load is a prefetch, its
/// fetch a prefetch hit. fc1 reads only the input wire: it runs first,
/// before anything could overlap its load, so it is not announced and pays
/// a blocking fault. A one-thread pool has nothing to overlap a load with
/// and announces nothing. CI runs this at the default pool width and at
/// `RAYON_NUM_THREADS=1`.
#[test]
fn prefetch_is_announced_by_a_layers_first_dependency_on_a_wide_pool_only() {
    let params = CkksParams::tiny();
    let mut rng = StdRng::seed_from_u64(0x9f3);
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 16, &mut rng);
    let a = net.square("act", l1);
    let l2 = net.linear("fc2", a, 4, &mut rng);
    net.output(l2);
    let c = compile(
        &net,
        &fixed_ranges(&net, 2.0),
        &CompileOptions::from_params(&params),
    );
    let session = FheSession::new(params, &c, 5);
    let prepared = session.prepare(&c);
    let input = Tensor::from_vec(&[1, 8, 8], (0..64).map(|i| i as f64 / 64.0 - 0.5).collect());
    let cts = session.encrypt_input(&c, &input);
    let dir = std::env::temp_dir().join(format!("orion_sched_prefetch_{}", std::process::id()));

    let announces = rayon::current_num_threads() > 1;
    // the one layer the walk announces, on a wide pool
    let fc2 = c.prog.iter().position(|p| p.name == "fc2");
    let announced_layer = fc2.filter(|_| announces);
    // a cold pager with room for every layer
    let store = DiagStore::open(&dir).unwrap();
    let source = Arc::new(Announced {
        pager: PagedProgram::page_out(&prepared, store, "m", usize::MAX).unwrap(),
        served: Mutex::default(),
        wake: Condvar::new(),
        gate: announced_layer,
    });
    let backend = CkksBackend::with_source(&session, source.clone());
    run_plan(&c, &backend, cts);

    // (layers announced, announcements, loads by prefetch, the fetches
    // those served, blocking faults) of the two layers fc1, fc2
    let (stats, served) = (source.pager.stats(), source.served.lock().unwrap());
    let announced = (served.len() as u64, served.values().sum::<usize>() as u64);
    let got = (
        announced,
        stats.prefetches,
        stats.prefetch_hits,
        stats.faults,
    );
    let want = if announces {
        ((1, 1), 1, 1, 1)
    } else {
        ((0, 0), 0, 0, 2)
    };
    assert_eq!(got, want, "{stats:?}");
    assert_eq!(served.keys().next().copied(), announced_layer);
    let _ = std::fs::remove_dir_all(&dir);
}
