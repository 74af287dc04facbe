//! Backend equivalence: the SAME compiled program run through the
//! [`ClearBackend`] (reference and packed linear layers) and
//! [`CkksBackend`] engines under the single generic interpreter must agree on outputs (within each
//! engine's precision) and carry IDENTICAL op-counter tallies — the
//! refactor's core invariant.

use orion_ckks::precision::precision_bits;
use orion_ckks::CkksParams;
use orion_nn::backend::{decrypt_output, encrypt_input, run_program, EvalBackend};
use orion_nn::backends::{CkksBackend, ClearBackend};
use orion_nn::compile::{compile, CompileOptions};
use orion_nn::fhe_exec::FheSession;
use orion_nn::fit::{fit, fixed_ranges};
use orion_nn::network::Network;
use orion_nn::opt::{optimize_plan, OptConfig};
use orion_nn::sched::{run_plan, ExecPlan};
use orion_nn::sim::{CostModel, OpCounter};
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

/// A residual fork on an optimized plan (rotation CSE on): the two linear
/// semantics still agree, and the shared-rotation unit is real work for
/// the packed engine and none for the reference one.
#[test]
fn optimized_fork_agrees_across_linear_semantics() {
    let mut rng = StdRng::seed_from_u64(0xc1fa);
    let mut net = Network::new(3, 8, 8);
    let x = net.input();
    let stem = net.conv2d("stem", x, 4, 3, 1, 1, 1, &mut rng);
    let b1 = net.conv2d("branch1", stem, 4, 3, 1, 1, 1, &mut rng);
    let b2 = net.conv2d("branch2", stem, 4, 3, 1, 1, 1, &mut rng);
    let sum = net.add("res", b1, b2);
    net.output(sum);
    let opts = CompileOptions {
        slots: 128,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    };
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    let mut plan = ExecPlan::build(&compiled);
    let stats = optimize_plan(&mut plan, &compiled, OptConfig::default());
    assert!(stats.rotation_cse.shared_units > 0, "fork must share");

    let input = random_input(3, 8, 8, &mut rng);
    let reference = ClearBackend::reference(&compiled);
    let packed = ClearBackend::packed(&compiled);
    let cts = encrypt_input(&compiled, &packed, &input);
    let ref_run = run_plan(&plan, &compiled, &reference, cts.clone());
    let packed_run = run_plan(&plan, &compiled, &packed, cts);
    let prec = precision_bits(
        decrypt_output(&compiled, &packed, &packed_run.output_wire).data(),
        decrypt_output(&compiled, &reference, &ref_run.output_wire).data(),
    );
    assert!(prec > 40.0, "packed vs reference: only {prec} bits");
    assert_counters_identical(&packed_run.counter, &ref_run.counter, "packed vs reference");

    let spec = &plan.shared_specs()[0];
    let wire: Vec<_> = (0..spec.buf.len)
        .map(|_| packed.encrypt(&[], spec.level))
        .collect();
    let table = packed.hoist_rotations(&wire, spec.level, &spec.rots);
    assert_eq!(table.len(), spec.rots.len());
    assert!(!table.is_empty());
    assert!(reference
        .hoist_rotations(&wire, spec.level, &spec.rots)
        .is_empty());
}
