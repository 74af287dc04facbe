//! Trace one ResNet-style forked inference with the telemetry collector
//! enabled: every plan unit becomes a span, wire level/scale
//! trajectories become instants, and the run's critical path is computed
//! from the measured per-unit durations. The run report also carries the
//! most live limb vectors the walk held, printed against the verifier's
//! certified peak.
//!
//! Writes `target/trace_resnet.json` — open it at <https://ui.perfetto.dev>
//! (or `chrome://tracing`) to see the per-thread span tracks — and prints
//! the top-10 critical-path units as a table.
//!
//! ```sh
//! cargo run --release --example trace_resnet
//! ```

use orion::nn::backend::{decrypt_output, encrypt_input};
use orion::nn::backends::ClearBackend;
use orion::nn::compile::{compile, CompileOptions};
use orion::nn::fit::fixed_ranges;
use orion::nn::network::Network;
use orion::nn::sched::{run_plan, ExecPlan};
use orion::nn::verify::{verify_plan, VerifyConfig};
use orion::sim::CostModel;
use orion::telemetry;
use orion::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Widen the shared pool before its first use so the walk runs inside
    // its prefetch scope even on a small runner.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    }

    // A small ResNet-style net: conv stem, two residual blocks (each a
    // conv→ReLU→conv fork rejoined by an add), square activations.
    let mut rng = StdRng::seed_from_u64(0x2e5);
    let mut net = Network::new(4, 8, 8);
    let x = net.input();
    let stem = net.conv2d("stem", x, 4, 3, 1, 1, 1, &mut rng);
    let mut h = net.square("stem_act", stem);
    for b in 0..2 {
        let c1 = net.conv2d(&format!("b{b}_conv1"), h, 4, 3, 1, 1, 1, &mut rng);
        let a1 = net.relu(&format!("b{b}_relu"), c1, &[15, 15, 27]);
        let c2 = net.conv2d(&format!("b{b}_conv2"), a1, 4, 3, 1, 1, 1, &mut rng);
        let sum = net.add(&format!("b{b}_res"), c2, h);
        h = net.square(&format!("b{b}_act"), sum);
    }
    let f = net.flatten("flat", h);
    let logits = net.linear("fc", f, 10, &mut rng);
    net.output(logits);

    let opts = CompileOptions {
        slots: 128,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    };
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    let input = Tensor::from_vec(
        &[4, 8, 8],
        (0..4 * 8 * 8).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    );

    let backend = ClearBackend::packed(&compiled);
    let plan = ExecPlan::build(&compiled);
    let cts = encrypt_input(&compiled, &backend, &input);
    telemetry::enable();
    let run = run_plan(&plan, &compiled, &backend, cts);
    telemetry::disable();
    let output = decrypt_output(&compiled, &backend, &run.output_wire);

    let events = telemetry::drain();
    let json = telemetry::trace::chrome_trace_json(&events);
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/trace_resnet.json", &json).expect("write trace");
    println!(
        "traced inference: {} output values, {} events",
        output.data().len(),
        events.len()
    );
    println!("wrote target/trace_resnet.json — load it at https://ui.perfetto.dev");

    let report = telemetry::last_run().expect("an enabled run records a report");
    println!(
        "\nrun: threads={} units={} wall={:.2} ms busy={:.2} ms ({:.0}% of wall)",
        report.threads,
        report.units,
        report.wall_ns as f64 / 1e6,
        report.busy_ns as f64 / 1e6,
        100.0 * report.busy_ns as f64 / report.wall_ns.max(1) as f64,
    );
    let certified = verify_plan(&plan, &compiled, &VerifyConfig::default()).peak_limbs;
    let certified = certified.expect("the traced plan certifies clean");
    let rel = if report.peak_live_limbs == certified {
        "=="
    } else {
        "!="
    };
    println!(
        "measured peak {} {rel} certified {certified} live limbs",
        report.peak_live_limbs
    );
    println!(
        "critical path: {:.2} ms ({:.0}% of wall)\n",
        report.critical_path_ns as f64 / 1e6,
        100.0 * report.critical_path_ns as f64 / report.wall_ns.max(1) as f64,
    );
    println!("{:<6} {:<24} {:>10}", "unit", "label", "exec ms");
    for u in report.top.iter().take(10) {
        println!(
            "{:<6} {:<24} {:>10.3}",
            u.unit,
            u.label,
            u.dur_ns as f64 / 1e6
        );
    }
}
