//! Cross-crate integration tests: the full Orion pipeline from the facade
//! crate, plus paper-claim checks that span subsystems.

use orion::ckks::CkksParams;
use orion::core::{run_program, CkksBackend, ClearBackend, Orion, Session};
use orion::models::data::{synthetic_digits, synthetic_images};
use orion::models::train::{train_mlp, TrainConfig};
use orion::models::{build, Act};
use orion::nn::fit::calibrate_batch_norm;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's central validation: a trained network classifies the same
/// way encrypted as in the clear (Table 2 accuracy parity), end to end on
/// real CKKS.
#[test]
fn trained_mlp_fhe_accuracy_matches_cleartext() {
    let data = synthetic_digits(8, 8, 4, 80, 21);
    let (net, acc) = train_mlp(
        &data,
        TrainConfig {
            epochs: 40,
            ..Default::default()
        },
    );
    assert!(acc > 0.9);
    let params = CkksParams::tiny();
    let orion = Orion::for_params(&params);
    let compiled = orion.compile(&net, &data.images[..6]);
    let session = Session::new(params, &compiled, 22);
    let backend = CkksBackend::new(&session);
    let mut agree = 0;
    for img in data.images.iter().take(6) {
        let run = run_program(&compiled, &backend, img);
        if run.output.argmax() == net.forward_exact(img).argmax() {
            agree += 1;
        }
    }
    assert!(agree >= 5, "FHE classification diverged: {agree}/6");
}

/// Single-shot multiplexing claim (paper contribution 2): a network with
/// strided convolutions consumes exactly one level per linear layer —
/// verified through the compiled IR depths.
#[test]
fn every_linear_layer_has_depth_one() {
    let mut rng = StdRng::seed_from_u64(31);
    let (mut net, _) = build("resnet20", Act::SiluDeg(31), &mut rng);
    let calib = synthetic_images(3, 32, 32, 2, 32);
    calibrate_batch_norm(&mut net, &calib);
    let compiled = Orion::paper_scale().compile(&net, &calib);
    for (node, prog) in compiled.graph.nodes.iter().zip(&compiled.prog) {
        if prog.step.linear_plan().is_some() {
            assert_eq!(node.depth, 1, "{} is not depth-1", prog.name);
        }
    }
}

/// Bootstrap placement claim (paper contribution 3): the shortest-path
/// policy's modeled latency is never worse than the lazy baseline's.
#[test]
fn placement_beats_lazy_on_resnet() {
    let mut rng = StdRng::seed_from_u64(41);
    let (mut net, _) = build("resnet20", Act::SiluDeg(31), &mut rng);
    let calib = synthetic_images(3, 32, 32, 2, 42);
    calibrate_batch_norm(&mut net, &calib);
    let compiled = Orion::paper_scale().compile(&net, &calib);
    let lazy = orion::graph::place_lazy(
        &compiled.graph,
        compiled.opts.l_eff,
        compiled.opts.cost.bootstrap(compiled.opts.l_eff),
    );
    assert!(
        compiled.placement.total_latency <= lazy.total_latency + 1e-6,
        "shortest path {} vs lazy {}",
        compiled.placement.total_latency,
        lazy.total_latency
    );
}

/// SiLU-vs-ReLU trade-off (paper §8.2): SiLU halves activation depth and
/// reduces bootstrap count.
#[test]
fn silu_cuts_depth_and_bootstraps_vs_relu() {
    let prep = |act: Act| {
        let mut rng = StdRng::seed_from_u64(51);
        let (mut net, _) = build("resnet20", act, &mut rng);
        let calib = synthetic_images(3, 32, 32, 2, 52);
        calibrate_batch_norm(&mut net, &calib);
        Orion::paper_scale().compile(&net, &calib)
    };
    let relu = prep(Act::Relu);
    let silu = prep(Act::SiluDeg(63));
    assert!(silu.activation_depth() * 2 <= relu.activation_depth() + 10);
    assert!(silu.placement.boot_count < relu.placement.boot_count);
}

/// ReLU ResNet-`name` compiled at `CompileOptions::paper()`: its bootstraps.
fn relu_resnet_bootstraps(name: &str) -> u64 {
    let mut rng = StdRng::seed_from_u64(7);
    let (mut net, _) = build(name, Act::Relu, &mut rng);
    let calib = synthetic_images(3, 32, 32, 2, 8);
    calibrate_batch_norm(&mut net, &calib);
    Orion::paper_scale()
        .compile(&net, &calib)
        .placement
        .boot_count
}

/// Paper Table 5, "# bootstraps": a Chebyshev stage costs `⌈log₂(d+1)⌉`
/// levels (ReLU [15, 15, 27] is 13 + 1), so at `L_eff = 10` the placement
/// lands on the paper's counts.
#[test]
fn relu_resnets_place_the_papers_table5_bootstraps() {
    assert_eq!(relu_resnet_bootstraps("resnet20"), 37);
    assert_eq!(relu_resnet_bootstraps("resnet32"), 61);
}

/// The rest of the row (seconds of compile each in the test profile).
#[test]
#[ignore]
fn deeper_relu_resnets_place_the_papers_table5_bootstraps() {
    assert_eq!(relu_resnet_bootstraps("resnet44"), 85);
    assert_eq!(relu_resnet_bootstraps("resnet56"), 109);
    assert_eq!(relu_resnet_bootstraps("resnet110"), 217);
}

/// Trace and real-FHE backends execute the same compiled program and
/// agree on both values and bootstrap counts (the substitution argument
/// of README, "Substitutions").
#[test]
fn trace_and_fhe_backends_agree_on_conv_net() {
    let params = CkksParams {
        max_level: 10,
        boot_levels: 2,
        ..CkksParams::tiny()
    };
    let mut rng = StdRng::seed_from_u64(61);
    let mut net = orion::nn::Network::new(1, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 4, 3, 2, 1, 1, &mut rng);
    let a1 = net.silu("act1", c1, 15);
    let f = net.flatten("flat", a1);
    let l = net.linear("fc", f, 4, &mut rng);
    net.output(l);
    let calib = synthetic_images(1, 8, 8, 4, 62);
    let orion = Orion::for_params(&params);
    let compiled = orion.compile(&net, &calib);
    let input = &synthetic_images(1, 8, 8, 1, 63)[0];
    let trace = run_program(&compiled, &ClearBackend::reference(&compiled), input);
    let session = Session::new(params, &compiled, 64);
    let fhe = run_program(&compiled, &CkksBackend::new(&session), input);
    let prec = orion::ckks::precision::precision_bits(fhe.output.data(), trace.output.data());
    assert!(prec > 6.0, "backends disagree: {prec} bits");
    assert_eq!(trace.counter.bootstraps(), fhe.counter.bootstraps());
}

/// The compiler rejects networks without fitted activation ranges.
#[test]
#[should_panic(expected = "no fitted range")]
fn compile_requires_fit() {
    let mut rng = StdRng::seed_from_u64(71);
    let mut net = orion::nn::Network::new(1, 4, 4);
    let x = net.input();
    let c = net.conv2d("c", x, 2, 3, 1, 1, 1, &mut rng);
    let a = net.silu("a", c, 15);
    net.output(a);
    let opts = orion::nn::compile::CompileOptions::paper();
    orion::nn::compile::compile(&net, &orion::nn::fit::FitResult::default(), &opts);
}
