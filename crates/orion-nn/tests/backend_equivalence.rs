//! Backend equivalence: the SAME compiled program run through the
//! [`ClearBackend`] (reference and packed linear layers) and
//! [`CkksBackend`] engines under the single generic interpreter must agree on outputs (within each
//! engine's precision) and carry IDENTICAL op-counter tallies — the
//! refactor's core invariant.

use orion_ckks::precision::precision_bits;
use orion_ckks::CkksParams;
use orion_nn::backend::run_program;
use orion_nn::backends::{CkksBackend, ClearBackend};
use orion_nn::compile::{compile, CompileOptions, Compiled, Step};
use orion_nn::fhe_exec::FheSession;
use orion_nn::fit::{fit, fixed_ranges};
use orion_nn::network::Network;
use orion_nn::sched::{run_plan, ExecPlan, PlanRun};
use orion_nn::sim::{CostModel, OpCounter, OpKind};
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

fn assert_counters_identical(a: &OpCounter, b: &OpCounter, what: &str) {
    assert_eq!(a.all(), b.all(), "{what}: op tallies diverged");
    assert_eq!(a.encodes, b.encodes, "{what}: encode tallies diverged");
    assert_eq!(
        a.rotations(),
        b.rotations(),
        "{what}: rotation tallies diverged"
    );
    assert_eq!(
        a.bootstraps(),
        b.bootstraps(),
        "{what}: bootstrap tallies diverged"
    );
    assert!(
        (a.seconds - b.seconds).abs() < 1e-9,
        "{what}: modeled latency diverged ({} vs {})",
        a.seconds,
        b.seconds
    );
}

/// A tiny MLP with a square activation through all three engines on real
/// tiny CKKS parameters: outputs agree within precision bounds, tallies
/// agree exactly.
#[test]
fn mlp_agrees_across_all_three_backends() {
    let params = CkksParams::tiny();
    let mut rng = StdRng::seed_from_u64(0xe9_0700);
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 16, &mut rng);
    let a1 = net.square("act1", l1);
    let l2 = net.linear("fc2", a1, 4, &mut rng);
    net.output(l2);

    let samples: Vec<Tensor> = (0..2).map(|_| random_input(1, 8, 8, &mut rng)).collect();
    let fitres = fit(&net, &samples);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fitres, &opts);
    assert!(
        compiled.placement.boot_count > 0,
        "test should exercise bootstraps"
    );
    let input = random_input(1, 8, 8, &mut rng);
    let plain_run = run_program(&compiled, &ClearBackend::packed(&compiled), &input);

    let trace_run = run_program(&compiled, &ClearBackend::reference(&compiled), &input);

    let session = FheSession::new(params, &compiled, 42);
    let ckks_run = run_program(&compiled, &CkksBackend::new(&session), &input);

    // Values: plain (exact rotation algebra) vs trace (reference linear
    // algebra) agree to float precision; CKKS carries encryption noise.
    let plain_vs_trace = precision_bits(plain_run.output.data(), trace_run.output.data());
    assert!(
        plain_vs_trace > 40.0,
        "plain vs trace: only {plain_vs_trace} bits"
    );
    let ckks_vs_trace = precision_bits(ckks_run.output.data(), trace_run.output.data());
    assert!(
        ckks_vs_trace > 8.0,
        "ckks vs trace: only {ckks_vs_trace} bits"
    );

    // Tallies: identical regardless of engine.
    assert_counters_identical(&plain_run.counter, &trace_run.counter, "plain vs trace");
    assert_counters_identical(&ckks_run.counter, &trace_run.counter, "ckks vs trace");
    assert!(trace_run.counter.rotations() > 0, "program should rotate");
    assert!(
        trace_run.counter.encodes > 0,
        "on-the-fly engines pay per-inference encodes"
    );
    assert_eq!(
        trace_run.counter.bootstraps(),
        compiled.placement.boot_count
    );
    assert_eq!(
        trace_run.counter.bootstraps(),
        ExecPlan::build(&compiled).bootstraps()
    );
}

/// A convolutional network with a SiLU activation through the two
/// cleartext engines (no key material needed): rotation-algebra packing
/// equals the reference convolution end to end, and the op counter is
/// engine-independent.
#[test]
fn conv_net_plain_oracle_matches_trace_reference() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut net = Network::new(2, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 4, 3, 1, 1, 1, &mut rng);
    let a1 = net.silu("act1", c1, 15);
    let c2 = net.conv2d("conv2", a1, 4, 3, 2, 1, 1, &mut rng);
    let a2 = net.square("act2", c2);
    net.output(a2);

    let fitres = fixed_ranges(&net, 6.0);
    let opts = CompileOptions {
        slots: 128,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    };
    let compiled = compile(&net, &fitres, &opts);
    let input = random_input(2, 8, 8, &mut rng);
    let plain_run = run_program(&compiled, &ClearBackend::packed(&compiled), &input);
    let trace_run = run_program(&compiled, &ClearBackend::reference(&compiled), &input);

    let prec = precision_bits(plain_run.output.data(), trace_run.output.data());
    assert!(
        prec > 35.0,
        "conv packing oracle diverged from reference: {prec} bits"
    );
    assert_counters_identical(
        &plain_run.counter,
        &trace_run.counter,
        "conv plain vs trace",
    );
    // Multi-ciphertext wires were actually exercised.
    assert!(
        compiled.prog.iter().any(|p| p.n_cts >= 2),
        "test needs a multi-ct wire"
    );
}

/// A resnet_cifar-style block head: one wire fanning out into two
/// same-spec 3×3 convolutions whose results merge in a residual add — two
/// layers with identical baby-step rotations reading one wire.
fn fork_net(rng: &mut StdRng) -> Network {
    let mut net = Network::new(4, 8, 8);
    let x = net.input();
    let a = net.conv2d("c2a", x, 4, 3, 1, 1, 1, rng);
    let b = net.conv2d("c2b", x, 4, 3, 1, 1, 1, rng);
    let add = net.add("res", a, b);
    net.output(add);
    net
}

/// The fork head behind a ReLU — bootstrap-deep, so the forked wire is a
/// refreshed one.
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

/// What a plan counts is what its nodes' signatures list: one op list per
/// linear layer, one per ciphertext of an elementwise step, one bootstrap
/// per refreshed ciphertext — so each of a fork's convs pays its own
/// hoists and baby-step rotations.
fn assert_counted_per_node(c: &Compiled, counter: &OpCounter, what: &str) {
    let mut want = OpCounter::new();
    for (id, node) in c.prog.iter().enumerate() {
        if c.placement.boots_before[id] > 0 {
            for &w in &node.inputs {
                want.record(OpKind::Bootstrap, c.prog[w].n_cts.max(1) as u64, 0.0);
            }
        }
        let units = match node.step {
            Step::Input | Step::Output => continue,
            Step::Conv { .. } | Step::Dense { .. } => 1,
            _ => node.n_cts.max(1) as u64,
        };
        let lv = c.placement.levels[id].expect("a placed step");
        for (kind, n) in node.step.sig(lv).ops {
            want.record(kind, n * units, 0.0);
        }
    }
    assert_eq!(counter.all(), want.all(), "{what}: per-node ops");
    let convs: Vec<u64> = (c.prog.iter())
        .filter_map(|p| match &p.step {
            Step::Conv { plan, .. } if p.name.starts_with("c2") => Some(plan.counts.hoists as u64),
            _ => None,
        })
        .collect();
    assert_eq!(convs.len(), 2, "{what}: the fork's two convs");
    assert!(
        convs.iter().all(|&h| h > 0),
        "{what}: the fork's convs rotate"
    );
}

/// A fork net through the two linear semantics on the plan as built: the
/// packing algebra equals the reference convolution, the tallies are
/// engine-independent, and each fork conv hoists its own rotations.
fn fork_agrees_across_linear_semantics(net: &Network, deep: bool, what: &str) {
    let opts = CompileOptions {
        slots: 128,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    };
    let compiled = compile(net, &fixed_ranges(net, 4.0), &opts);
    let bootstraps = compiled.placement.boot_count > 0;
    assert_eq!(bootstraps, deep, "{what}: bootstraps");
    let input = random_input(4, 8, 8, &mut StdRng::seed_from_u64(0xc1fb));
    let packed = run_program(&compiled, &ClearBackend::packed(&compiled), &input);
    let reference = run_program(&compiled, &ClearBackend::reference(&compiled), &input);
    let prec = precision_bits(packed.output.data(), reference.output.data());
    assert!(prec > 40.0, "{what}: packed vs reference only {prec} bits");
    assert_counters_identical(&packed.counter, &reference.counter, what);
    assert_counted_per_node(&compiled, &packed.counter, what);
}

#[test]
fn fork_net_agrees_across_linear_semantics() {
    let net = fork_net(&mut StdRng::seed_from_u64(0xc1fa));
    fork_agrees_across_linear_semantics(&net, false, "fork");
}

/// Bootstrap-deep: the forked wire is a refreshed one.
#[test]
fn fork_relu_net_agrees_across_linear_semantics() {
    let net = fork_relu_net(&mut StdRng::seed_from_u64(0xc1fa));
    fork_agrees_across_linear_semantics(&net, true, "fork behind relu");
}

/// `net`'s built plan under `params` on `CkksBackend::new`,
/// `CkksBackend::with_prepared` and `ClearBackend::packed`: over one
/// encrypted input the two CKKS engines hand back the same output
/// ciphertexts bit for bit (c0, c1, scale), the packed engine decodes to
/// the same values within CKKS precision, and the three counters are the
/// plan's — identical but for the prepared engine's zero encodes.
fn fork_is_bit_identical_on_both_ckks_engines(
    net: &Network,
    params: CkksParams,
    deep: bool,
    what: &str,
) {
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(net, &fixed_ranges(net, 4.0), &opts);
    let bootstraps = compiled.placement.boot_count > 0;
    assert_eq!(bootstraps, deep, "{what}: bootstraps");
    let session = FheSession::new(params, &compiled, 41);
    let input = random_input(4, 8, 8, &mut StdRng::seed_from_u64(0x0971c));
    let plan = ExecPlan::build(&compiled);
    let cts = session.encrypt_input(&compiled, &input);
    let fly = run_plan(&plan, &compiled, &CkksBackend::new(&session), cts.clone());
    let prepared = CkksBackend::with_prepared(&session, session.prepare(&compiled));
    let prep = run_plan(&plan, &compiled, &prepared, cts);
    let packed = run_program(&compiled, &ClearBackend::packed(&compiled), &input);

    assert_wires_bit_identical(&fly, &prep, what);
    let decoded = session.decrypt_output(&compiled, &fly.output_wire);
    let prec = precision_bits(decoded.data(), packed.output.data());
    assert!(prec > 8.0, "{what}: ckks vs packed only {prec} bits");
    assert_counters_identical(&fly.counter, &packed.counter, what);
    assert_eq!(
        fly.counter.all(),
        prep.counter.all(),
        "{what}: prepared tallies"
    );
    assert_eq!(prep.counter.encodes, 0, "{what}: prepared engine encodes");
    assert_counted_per_node(&compiled, &fly.counter, what);
}

/// Raw CKKS output wires, not just their decodes, bit for bit.
fn assert_wires_bit_identical(
    a: &PlanRun<orion_ckks::Ciphertext>,
    b: &PlanRun<orion_ckks::Ciphertext>,
    what: &str,
) {
    assert_eq!(a.output_wire.len(), b.output_wire.len());
    for (x, y) in a.output_wire.iter().zip(&b.output_wire) {
        assert_eq!(x.c0, y.c0, "{what}: output ciphertext diverged");
        assert_eq!(x.c1, y.c1, "{what}: output ciphertext diverged");
        assert_eq!(x.scale.to_bits(), y.scale.to_bits());
    }
}

/// The two-conv fork on real tiny CKKS parameters.
#[test]
fn fork_net_is_bit_identical_on_both_ckks_engines() {
    let net = fork_net(&mut StdRng::seed_from_u64(0x0971a));
    fork_is_bit_identical_on_both_ckks_engines(&net, CkksParams::tiny(), false, "fork");
}

/// The fork behind a ReLU on the medium chain at N = 2¹¹: bootstrap units
/// refresh the wire both convs read.
#[test]
fn fork_relu_net_is_bit_identical_on_both_ckks_engines() {
    let net = fork_relu_net(&mut StdRng::seed_from_u64(0x0971b));
    let params = CkksParams {
        n: 1 << 11,
        ..CkksParams::medium()
    };
    fork_is_bit_identical_on_both_ckks_engines(&net, params, true, "fork behind relu");
}
