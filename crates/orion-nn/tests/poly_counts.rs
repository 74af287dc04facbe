//! Counted = executed: the op tallies a run carries (`count_plan`, a fold
//! over the static plan) must be the operations the real CKKS engine
//! issues. The engine's key-switch and rescale entry points are timed into
//! the telemetry class histograms, so their sample counts over one
//! inference are the executed totals: every `mul_relin` and every full
//! rotation is one key-switch, every rescale is one rescale.
//!
//! Its own binary: the telemetry collector is process-global.

use orion_ckks::CkksParams;
use orion_nn::backend::run_program;
use orion_nn::backends::CkksBackend;
use orion_nn::compile::{compile, CompileOptions};
use orion_nn::fhe_exec::FheSession;
use orion_nn::fit::fit;
use orion_nn::network::Network;
use orion_nn::sim::counter::OpKind;
use orion_telemetry::{op_histogram, OpClass};
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static TELEMETRY: Mutex<()> = Mutex::new(());

/// Two residual blocks [1×1 conv → ReLU{15,15,27} → 1×1 conv → add →
/// SiLU-15] behind a 1×1-conv stem + SiLU-15 on a 4×8×8 input.
fn resblock_net(rng: &mut StdRng) -> Network {
    let mut net = Network::new(4, 8, 8);
    let x = net.input();
    let stem = net.conv2d("stem", x, 8, 1, 1, 0, 1, rng);
    let mut cur = net.silu("stem_act", stem, 15);
    for b in 0..2 {
        let c1 = net.conv2d(&format!("b{b}_conv1"), cur, 8, 1, 1, 0, 1, rng);
        let r = net.relu(&format!("b{b}_relu"), c1, &[15, 15, 27]);
        let c2 = net.conv2d(&format!("b{b}_conv2"), r, 8, 1, 1, 0, 1, rng);
        let sum = net.add(&format!("b{b}_add"), c2, cur);
        cur = net.silu(&format!("b{b}_act"), sum, 15);
    }
    net.output(cur);
    net
}

/// 5×5 conv(5) → x² → fc100 → x² → fc10 on a 1×28×28 input.
fn lola_net(rng: &mut StdRng) -> Network {
    let mut net = Network::new(1, 28, 28);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 5, 5, 2, 2, 1, rng);
    let a1 = net.square("act1", c1);
    let f = net.flatten("flat", a1);
    let l1 = net.linear("fc1", f, 100, rng);
    let a2 = net.square("act2", l1);
    let l2 = net.linear("fc2", a2, 10, rng);
    net.output(l2);
    net
}

/// One prepared CKKS inference with telemetry on; asserts the counted
/// key-switches and rescales are the executed ones.
fn assert_counted_is_executed(net: &Network, shape: [usize; 3], params: CkksParams, seed: u64) {
    let _g = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut image = || {
        let n = shape.iter().product();
        Tensor::from_vec(&shape, (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
    };
    let samples: Vec<Tensor> = (0..2).map(|_| image()).collect();
    let c = compile(
        net,
        &fit(net, &samples),
        &CompileOptions::from_params(&params),
    );
    let session = FheSession::new(params, &c, seed ^ 0xff);
    let prepared = session.prepare(&c);
    let input = image();

    let executed = |class| op_histogram(class).count();
    let before = (executed(OpClass::KeySwitch), executed(OpClass::Rescale));
    orion_telemetry::enable();
    let run = run_program(&c, &CkksBackend::with_prepared(&session, prepared), &input);
    orion_telemetry::disable();
    orion_telemetry::drain();
    let key_switches = executed(OpClass::KeySwitch) - before.0;
    let rescales = executed(OpClass::Rescale) - before.1;

    let ctr = &run.counter;
    assert_eq!(
        key_switches,
        ctr.count(OpKind::HMult) + ctr.count(OpKind::HRot),
        "key-switches: executed vs counted HMult + HRot"
    );
    assert_eq!(
        rescales,
        ctr.count(OpKind::Rescale),
        "rescales: executed vs counted"
    );
    assert_eq!(ctr.encodes, 0, "prepared run encodes nothing per inference");
}

#[test]
fn resblock_activations_count_what_the_engine_executes() {
    let net = resblock_net(&mut StdRng::seed_from_u64(0x4e5b));
    let params = CkksParams {
        n: 1 << 11,
        ..CkksParams::medium()
    };
    assert_counted_is_executed(&net, [4, 8, 8], params, 0xac7);
}

#[test]
fn lola_squares_count_what_the_engine_executes() {
    let net = lola_net(&mut StdRng::seed_from_u64(0x101a));
    assert_counted_is_executed(&net, [1, 28, 28], CkksParams::small(), 0x101b);
}
