//! End-to-end pipeline tests: build → fit → compile → execute on the trace
//! backend and on real CKKS, validating against the cleartext reference
//! (the paper's validation methodology, §7).

use orion_ckks::precision::precision_bits;
use orion_ckks::CkksParams;
use orion_nn::backends::{CkksBackend, ClearBackend};
use orion_nn::compile::{compile, CompileOptions, Step};
use orion_nn::fhe_exec::FheSession;
use orion_nn::fit::{fit, fixed_ranges};
use orion_nn::network::Network;
use orion_nn::run_program;
use orion_nn::sched::UnitWork;
use orion_nn::sim::CostModel;
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

#[test]
fn trace_run_matches_polynomial_reference() {
    let mut rng = StdRng::seed_from_u64(100);
    let mut net = Network::new(3, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 8, 3, 1, 1, 1, &mut rng);
    let a1 = net.silu("act1", c1, 31);
    let c2 = net.conv2d("conv2", a1, 8, 3, 2, 1, 1, &mut rng);
    let a2 = net.silu("act2", c2, 31);
    let f = net.flatten("flat", a2);
    let l = net.linear("fc", f, 10, &mut rng);
    net.output(l);

    let samples: Vec<Tensor> = (0..4).map(|_| random_input(3, 8, 8, &mut rng)).collect();
    let fitres = fit(&net, &samples);
    let opts = CompileOptions {
        slots: 1024,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 11, 4),
    };
    let compiled = compile(&net, &fitres, &opts);

    let input = random_input(3, 8, 8, &mut rng);
    let run = run_program(&compiled, &ClearBackend::reference(&compiled), &input);
    // The trace backend computes the fitted-polynomial semantics exactly.
    let reference = net.forward_poly(&input, &compiled.acts);
    let prec = precision_bits(run.output.data(), reference.data());
    assert!(prec > 40.0, "trace should be near-exact, got {prec} bits");
    // And close to the true cleartext network (dominated by approximation
    // error of the activations).
    let exact = net.forward_exact(&input);
    let prec_exact = precision_bits(run.output.data(), exact.data());
    assert!(
        prec_exact > 4.0,
        "polynomial approximation too loose: {prec_exact} bits"
    );
    // Statistics flowed.
    assert!(run.counter.rotations() > 0);
    assert!(run.counter.seconds > 0.0);
}

#[test]
fn trace_run_places_bootstraps_on_deep_networks() {
    let mut rng = StdRng::seed_from_u64(101);
    let mut net = Network::new(2, 8, 8);
    let x = net.input();
    let mut cur = x;
    for i in 0..4 {
        cur = net.conv2d(&format!("conv{i}"), cur, 2, 3, 1, 1, 1, &mut rng);
        cur = net.silu(&format!("act{i}"), cur, 31);
    }
    net.output(cur);
    let fitres = fixed_ranges(&net, 8.0);
    // Each conv(1) + scale(1) + silu(d31: 6+1) = 9 levels per block; with
    // l_eff = 9 bootstraps are mandatory.
    let opts = CompileOptions {
        slots: 256,
        l_eff: 9,
        cost: CostModel::for_degree(1 << 9, 4),
    };
    let compiled = compile(&net, &fitres, &opts);
    assert!(compiled.placement.boot_count > 0);
    let input = random_input(2, 8, 8, &mut rng);
    let run = run_program(&compiled, &ClearBackend::reference(&compiled), &input);
    assert_eq!(run.counter.bootstraps(), compiled.placement.boot_count);
    let reference = net.forward_poly(&input, &compiled.acts);
    let prec = precision_bits(run.output.data(), reference.data());
    assert!(prec > 40.0, "got {prec} bits");
}

#[test]
fn fhe_mlp_with_square_activation_end_to_end() {
    // Runs REAL CKKS: tiny ring, bootstraps through the oracle.
    let params = CkksParams::tiny(); // N=2^10, L=4, L_eff=2
    let mut rng = StdRng::seed_from_u64(102);
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
    // depth fc1(1)+sq(2)+fc2(1)=4 > l_eff=2 → bootstraps
    assert!(compiled.placement.boot_count > 0);

    let session = FheSession::new(params, &compiled, 103);
    let input = random_input(1, 8, 8, &mut rng);
    let run = run_program(&compiled, &CkksBackend::new(&session), &input);
    assert_eq!(run.counter.bootstraps(), compiled.placement.boot_count);
    let plan_boots = (compiled.plan.units.iter())
        .filter(|u| matches!(u.work, UnitWork::Boot { .. }))
        .count();
    assert_eq!(run.counter.bootstraps(), plan_boots as u64);

    let reference = net.forward_poly(&input, &compiled.acts);
    let prec = run.precision_vs(&reference);
    assert!(prec > 8.0, "FHE output too imprecise: {prec} bits");
}

#[test]
fn fhe_conv_silu_network_end_to_end() {
    // A convolutional network with a SiLU activation on real CKKS.
    let params = CkksParams {
        max_level: 10,
        boot_levels: 2,
        ..CkksParams::tiny()
    };
    let mut rng = StdRng::seed_from_u64(104);
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 4, 3, 1, 1, 1, &mut rng);
    let a1 = net.silu("act1", c1, 15);
    let c2 = net.conv2d("conv2", a1, 4, 3, 2, 1, 1, &mut rng);
    let f = net.flatten("flat", c2);
    let l = net.linear("fc", f, 4, &mut rng);
    net.output(l);

    let samples: Vec<Tensor> = (0..2).map(|_| random_input(1, 8, 8, &mut rng)).collect();
    let fitres = fit(&net, &samples);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fitres, &opts);
    let session = FheSession::new(params, &compiled, 105);
    let input = random_input(1, 8, 8, &mut rng);
    let run = run_program(&compiled, &CkksBackend::new(&session), &input);
    let reference = net.forward_poly(&input, &compiled.acts);
    let prec = run.precision_vs(&reference);
    assert!(prec > 8.0, "FHE conv net too imprecise: {prec} bits");
}

#[test]
fn fhe_folded_dense_feeds_a_range_fitted_activation() {
    // dense (row-folded) → SiLU → dense on real CKKS, with a bias far
    // larger than the SiLU's fitted range: inputs sit within 1 % of 1 and
    // each bias cancels its row's weight sum (hundreds), leaving outputs
    // of a few units. The fold leaves S/R copies of the output block and
    // the SiLU evaluates its Chebyshev polynomial on every slot. A copy
    // holding "y without bias" would sit dozens of range-widths outside
    // the fitted interval, where T₁₅ outgrows the modulus and the wrapped
    // coefficients corrupt every slot; with the bias replicated at period
    // R every copy equals a real output and stays in range.
    let params = CkksParams {
        max_level: 8,
        boot_levels: 2,
        ..CkksParams::tiny()
    };
    let mut rng = StdRng::seed_from_u64(108);
    let near_one = |rng: &mut StdRng| {
        Tensor::from_vec(
            &[1, 8, 8],
            (0..64).map(|_| rng.gen_range(0.99..1.01)).collect(),
        )
    };
    let w1 = Tensor::from_vec(
        &[16, 64],
        (0..16 * 64).map(|_| rng.gen_range(-50.0..50.0)).collect(),
    );
    let b1: Vec<f64> = w1
        .data()
        .chunks(64)
        .map(|row| -row.iter().sum::<f64>())
        .collect();
    let smallest_bias = b1.iter().fold(f64::INFINITY, |m, b| m.min(b.abs()));
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear_with("fc1", f, w1, b1);
    let a = net.silu("act", l1, 15);
    let l2 = net.linear("fc2", a, 4, &mut rng);
    net.output(l2);

    let samples: Vec<Tensor> = (0..4).map(|_| near_one(&mut rng)).collect();
    let fitres = fit(&net, &samples);
    let range = fitres.ranges[&a];
    assert!(
        smallest_bias > range,
        "every bias must exceed the fitted range: {smallest_bias} vs {range}"
    );
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fitres, &opts);
    let folded = compiled
        .prog
        .iter()
        .any(|node| matches!(&node.step, Step::Dense { plan, .. } if plan.fold < plan.slots));
    assert!(folded, "fc1 (64 → 16 at S = 512) must fold");
    let session = FheSession::new(params, &compiled, 109);
    let input = near_one(&mut rng);
    let run = run_program(&compiled, &CkksBackend::new(&session), &input);
    let reference = net.forward_poly(&input, &compiled.acts);
    let prec = run.precision_vs(&reference);
    assert!(prec > 8.0, "folded dense → SiLU too imprecise: {prec} bits");
}

#[test]
fn fhe_relu_network_end_to_end() {
    // ReLU through the composite sign, on real CKKS, with a residual skip.
    let params = CkksParams {
        max_level: 12,
        boot_levels: 2,
        ..CkksParams::tiny()
    };
    let mut rng = StdRng::seed_from_u64(106);
    let mut net = Network::new(2, 4, 4);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 2, 3, 1, 1, 1, &mut rng);
    let a1 = net.relu("act1", c1, &[15]);
    let add = net.add("res", a1, x);
    net.output(add);

    let samples: Vec<Tensor> = (0..2).map(|_| random_input(2, 4, 4, &mut rng)).collect();
    let fitres = fit(&net, &samples);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fitres, &opts);
    let session = FheSession::new(params, &compiled, 107);
    let input = random_input(2, 4, 4, &mut rng);
    let run = run_program(&compiled, &CkksBackend::new(&session), &input);
    let reference = net.forward_poly(&input, &compiled.acts);
    let prec = run.precision_vs(&reference);
    assert!(prec > 5.0, "FHE ReLU net too imprecise: {prec} bits");
}

#[test]
fn trace_and_fhe_agree() {
    let params = CkksParams::tiny();
    let mut rng = StdRng::seed_from_u64(108);
    let mut net = Network::new(1, 4, 4);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 8, &mut rng);
    let a = net.square("sq", l1);
    let l2 = net.linear("fc2", a, 3, &mut rng);
    net.output(l2);
    let fitres = fixed_ranges(&net, 4.0);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fitres, &opts);
    let input = random_input(1, 4, 4, &mut rng);
    let trace = run_program(&compiled, &ClearBackend::reference(&compiled), &input);
    let session = FheSession::new(params, &compiled, 109);
    let fhe = run_program(&compiled, &CkksBackend::new(&session), &input);
    let prec = precision_bits(fhe.output.data(), trace.output.data());
    assert!(prec > 8.0, "trace and FHE disagree: {prec} bits");
    assert_eq!(trace.counter.bootstraps(), fhe.counter.bootstraps());
}

#[test]
fn fhe_multi_ciphertext_wire() {
    // Input tensor spans TWO ciphertexts (4·16·16 = 1024 > 512 slots at
    // N = 2^10): the blocked matvec, residual adds, and activations must
    // all handle multi-ciphertext wires on real CKKS.
    let params = CkksParams {
        max_level: 8,
        boot_levels: 2,
        ..CkksParams::tiny()
    };
    let mut rng = StdRng::seed_from_u64(200);
    let mut net = Network::new(4, 16, 16);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 4, 3, 1, 1, 1, &mut rng);
    let add = net.add("res", c1, x);
    let c2 = net.conv2d("conv2", add, 8, 3, 2, 1, 1, &mut rng); // strided
    let f = net.flatten("flat", c2);
    let l = net.linear("fc", f, 4, &mut rng);
    net.output(l);
    let samples: Vec<Tensor> = (0..2).map(|_| random_input(4, 16, 16, &mut rng)).collect();
    let fitres = fit(&net, &samples);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fitres, &opts);
    // verify the wire really spans 2 ciphertexts
    assert!(
        compiled.prog.iter().any(|p| p.n_cts >= 2),
        "test needs a multi-ct wire"
    );
    let session = FheSession::new(params, &compiled, 201);
    let input = random_input(4, 16, 16, &mut rng);
    let run = run_program(&compiled, &CkksBackend::new(&session), &input);
    let reference = net.forward_poly(&input, &compiled.acts);
    let prec = run.precision_vs(&reference);
    assert!(prec > 8.0, "multi-ct FHE diverged: {prec} bits");
}

#[test]
fn report_and_dot_render() {
    let mut rng = StdRng::seed_from_u64(210);
    let mut net = Network::new(2, 8, 8);
    let x = net.input();
    let c = net.conv2d("conv", x, 2, 3, 1, 1, 1, &mut rng);
    let a = net.silu("act", c, 15);
    net.output(a);
    let opts = CompileOptions {
        slots: 256,
        l_eff: 8,
        cost: CostModel::for_degree(1 << 9, 3),
    };
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    let report = compiled.report();
    assert!(report.contains("conv 3x3"));
    assert!(report.contains("chebyshev deg 15"));
    let dot = compiled.to_dot();
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("act.poly"));
}
