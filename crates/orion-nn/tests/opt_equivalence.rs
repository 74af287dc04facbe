//! Plan-optimizer equivalence and strict-improvement suite.
//!
//! The optimizer's contract has two halves, and the op counter each run
//! carries is the rewrite oracle for both:
//!
//! * **bit-exactness** — the optimized plan computes the identical output
//!   (down to raw ciphertext bits on real CKKS) on every engine;
//! * **counter discipline** — rotation CSE shows strictly fewer rotations
//!   and key-switch decompositions, with the delta exactly matching its
//!   reported stats, and every other integer op count unchanged.

use orion_ckks::CkksParams;
use orion_nn::backend::{decrypt_output, encrypt_input};
use orion_nn::backends::{CkksBackend, ClearBackend};
use orion_nn::compile::{compile, CompileOptions, Compiled};
use orion_nn::fhe_exec::FheSession;
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_nn::opt::{optimize_plan, OptConfig};
use orion_nn::sched::{run_plan, ExecPlan, PlanRun};
use orion_sim::counter::OpKind;
use orion_sim::{CostModel, OpCounter};
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_input(c: usize, h: usize, w: usize, rng: &mut StdRng) -> Tensor {
    let n = c * h * w;
    Tensor::from_vec(
        &[c, h, w],
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// A resnet_cifar-style block head: one wire fanning out into two
/// same-spec 3×3 convolutions whose results merge in a residual add. The
/// identical specs guarantee identical packing plans, hence identical
/// baby-rotation sets — the rotation-CSE pass must fire.
fn fork_net(rng: &mut StdRng) -> Network {
    let mut net = Network::new(4, 8, 8);
    let x = net.input();
    let a = net.conv2d("c2a", x, 4, 3, 1, 1, 1, rng);
    let b = net.conv2d("c2b", x, 4, 3, 1, 1, 1, rng);
    let add = net.add("res", a, b);
    net.output(add);
    net
}

/// The fork head behind a ReLU — bootstrap-deep at these options, so the
/// shared hoist sits downstream of scale-downs and bootstrap units.
fn fork_relu_net(rng: &mut StdRng) -> Network {
    let mut net = Network::new(4, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("c1", x, 4, 3, 1, 1, 1, rng);
    let r1 = net.relu("a1", c1, &[15, 15, 27]);
    let a = net.conv2d("c2a", r1, 4, 3, 1, 1, 1, rng);
    let b = net.conv2d("c2b", r1, 4, 3, 1, 1, 1, rng);
    let add = net.add("res", a, b);
    let a2 = net.square("a2", add);
    net.output(a2);
    net
}

fn opts() -> CompileOptions {
    CompileOptions {
        slots: 128,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    }
}

/// Walks `c`'s plan as built and as the optimizer rewrites it over `cts`;
/// returns the two runs plus the optimizer stats.
fn walk_pair<B: orion_nn::EvalBackend + Sync>(
    c: &Compiled,
    backend: &B,
    cts: &[B::Ciphertext],
) -> (
    PlanRun<B::Ciphertext>,
    PlanRun<B::Ciphertext>,
    orion_nn::OptStats,
) {
    let mut plan = ExecPlan::build(c);
    let base = run_plan(&plan, c, backend, cts.to_vec());
    let stats = optimize_plan(&mut plan, c, OptConfig::default());
    // rotation CSE shares a rotation at its consumers' read level, so the
    // keys generated for the built plan are the keys the optimized one needs
    assert_eq!(plan.key_manifest(c), c.key_manifest(), "key manifest");
    let optimized = run_plan(&plan, c, backend, cts.to_vec());
    (base, optimized, stats)
}

/// [`walk_pair`] of `input` on `backend`; asserts bit-exact outputs and
/// returns the two counters plus the optimizer stats.
fn run_pair<B: orion_nn::EvalBackend + Sync>(
    c: &Compiled,
    input: &Tensor,
    what: &str,
    backend: B,
) -> (OpCounter, OpCounter, orion_nn::OptStats) {
    let cts = encrypt_input(c, &backend, input);
    let (base, optimized, stats) = walk_pair(c, &backend, &cts);
    assert_eq!(
        decrypt_output(c, &backend, &base.output_wire).data(),
        decrypt_output(c, &backend, &optimized.output_wire).data(),
        "{what}: optimized output diverged"
    );
    assert_eq!(base.bootstraps, optimized.bootstraps, "{what}: bootstraps");
    (base.counter, optimized.counter, stats)
}

/// Raw CKKS output wires, not just their decodes, bit for bit.
fn assert_wires_bit_identical(
    session: &FheSession,
    c: &Compiled,
    base: &PlanRun<orion_ckks::Ciphertext>,
    opt: &PlanRun<orion_ckks::Ciphertext>,
    what: &str,
) {
    assert_eq!(
        session.decrypt_output(c, &base.output_wire).data(),
        session.decrypt_output(c, &opt.output_wire).data()
    );
    assert_eq!(base.output_wire.len(), opt.output_wire.len());
    for (a, b) in base.output_wire.iter().zip(&opt.output_wire) {
        assert_eq!(a.c0, b.c0, "{what}: optimized output ciphertext diverged");
        assert_eq!(a.c1, b.c1);
        assert_eq!(a.scale.to_bits(), b.scale.to_bits());
    }
}

/// Rotation CSE on the fork head: the plan stays bit-exact, and the
/// plain-oracle counters show strictly fewer
/// rotations and strictly fewer key-switch decompositions, with the deltas
/// exactly equal to the pass's reported stats.
#[test]
fn rotation_cse_strictly_reduces_rotations_and_decompositions() {
    let mut rng = StdRng::seed_from_u64(0x09717);
    let net = fork_net(&mut rng);
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts());
    let input = random_input(4, 8, 8, &mut rng);

    let (base, opt, stats) = run_pair(
        &compiled,
        &input,
        "plain fork",
        ClearBackend::packed(&compiled),
    );
    assert!(
        stats.rotation_cse.shared_units >= 1,
        "same-spec fork must trigger CSE (stats: {stats:?})"
    );
    assert!(
        stats.rotation_cse.baby_rots_eliminated > 0,
        "identical rotation sets must overlap"
    );
    // Strictly fewer rotations…
    assert!(
        opt.rotations() < base.rotations(),
        "rotations: {} !< {}",
        opt.rotations(),
        base.rotations()
    );
    // …and strictly fewer key-switch decompositions (hoisted digit
    // decompositions + full giant-step key switches).
    let decomp = |c: &OpCounter| c.count(OpKind::Hoist) + c.count(OpKind::HRot);
    assert!(
        decomp(&opt) < decomp(&base),
        "decompositions: {} !< {}",
        decomp(&opt),
        decomp(&base)
    );
    // The eliminated ops are exactly what the pass reported.
    let saved = base.diff(&opt);
    assert_eq!(
        saved.count(OpKind::Hoist),
        stats.rotation_cse.hoists_eliminated
    );
    assert_eq!(
        saved.count(OpKind::HRotHoisted),
        stats.rotation_cse.baby_rots_eliminated
    );
    // Nothing else moved.
    assert_eq!(saved.count(OpKind::HRot), 0);
    assert_eq!(saved.count(OpKind::PMult), 0);
    assert_eq!(saved.count(OpKind::Rescale), 0);
    assert_eq!(saved.count(OpKind::Bootstrap), 0);
}

/// Rotation CSE moves hoists out of the consumer layers into a shared
/// unit, and the shared unit's modeled time is linear-layer time like
/// theirs: what the rewrite saves in `seconds` it saves in
/// `linear_seconds`, so Table 4's "other" (`seconds − linear_seconds −
/// bootstrap_seconds`) does not absorb it.
#[test]
fn shared_hoists_are_attributed_to_linear_seconds() {
    for (what, mk_net) in [
        ("fork", fork_net as fn(&mut StdRng) -> Network),
        ("fork behind relu", fork_relu_net),
    ] {
        let mut rng = StdRng::seed_from_u64(0x0971b);
        let net = mk_net(&mut rng);
        let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts());
        let input = random_input(4, 8, 8, &mut rng);
        let (base, opt, stats) = run_pair(&compiled, &input, what, ClearBackend::packed(&compiled));
        assert!(
            stats.rotation_cse.shared_units >= 1,
            "{what}: CSE must fire"
        );
        let saved = base.seconds - opt.seconds;
        let saved_linear = base.linear_seconds - opt.linear_seconds;
        assert!(saved > 0.0, "{what}: sharing must save modeled time");
        assert!(
            (saved - saved_linear).abs() <= 1e-12 * saved,
            "{what}: {saved} s saved overall, {saved_linear} s of it linear"
        );
        assert_eq!(
            base.bootstrap_seconds.to_bits(),
            opt.bootstrap_seconds.to_bits(),
            "{what}: bootstrap seconds moved"
        );
    }
}

/// The full pipeline on the bootstrap-deep fork net, all three engines:
/// bit-exact everywhere, strictly fewer rotations.
#[test]
fn full_pipeline_bit_exact_on_all_three_engines() {
    let mut rng = StdRng::seed_from_u64(0x09719);
    let net = fork_relu_net(&mut rng);
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts());
    assert!(compiled.placement.boot_count > 0);
    let input = random_input(4, 8, 8, &mut rng);

    let (base, opt, stats) = run_pair(
        &compiled,
        &input,
        "plain full",
        ClearBackend::packed(&compiled),
    );
    assert!(stats.rotation_cse.shared_units >= 1);
    assert!(opt.rotations() < base.rotations());
    run_pair(
        &compiled,
        &input,
        "trace full",
        ClearBackend::reference(&compiled),
    );
}

/// Real CKKS, on-the-fly weights: the optimized plan's raw output
/// ciphertexts must match the unoptimized run bit for bit (c0, c1, scale) —
/// rotation sharing is an exact rewrite.
#[test]
fn ckks_optimized_output_wire_is_bit_identical() {
    let params = CkksParams::tiny();
    let mut rng = StdRng::seed_from_u64(0x0971a);
    let net = fork_net(&mut rng);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    let session = FheSession::new(params, &compiled, 41);
    let input = random_input(4, 8, 8, &mut rng);
    let cts = session.encrypt_input(&compiled, &input);
    let backend = CkksBackend::new(&session);

    let (base, opt, stats) = walk_pair(&compiled, &backend, &cts);
    assert!(
        stats.rotation_cse.shared_units >= 1,
        "fork must share rotations on CKKS too"
    );
    assert_wires_bit_identical(&session, &compiled, &base, &opt, "on the fly");
}

/// Real CKKS through the *prepared* executor (the serving path) on a
/// bootstrap-deep net: shared rotations across bootstrap units, still
/// bit-exact against the unoptimized prepared run.
#[test]
fn ckks_prepared_bootstrap_deep_optimized_bit_identical() {
    let params = CkksParams::tiny();
    let mut rng = StdRng::seed_from_u64(0x0971b);
    let mut net = Network::new(2, 8, 8);
    let x = net.input();
    let a = net.conv2d("c2a", x, 4, 3, 2, 1, 1, &mut rng);
    let b = net.conv2d("c2b", x, 4, 3, 2, 1, 1, &mut rng);
    let add = net.add("res", a, b);
    let s = net.square("act", add);
    let f = net.flatten("flat", s);
    let l = net.linear("fc", f, 6, &mut rng);
    net.output(l);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    assert!(
        compiled.placement.boot_count > 0,
        "want bootstrap units on the real engine"
    );
    let session = FheSession::new(params, &compiled, 43);
    let prepared = session.prepare(&compiled);
    let input = random_input(2, 8, 8, &mut rng);
    let cts = session.encrypt_input(&compiled, &input);
    let backend = CkksBackend::with_prepared(&session, prepared);

    let (base, opt, stats) = walk_pair(&compiled, &backend, &cts);
    assert!(stats.rotation_cse.shared_units >= 1);
    assert_wires_bit_identical(&session, &compiled, &base, &opt, "prepared");
}
