//! Table 2: the full benchmark sweep — MNIST MLP through ImageNet
//! ResNet-50 — reporting parameters, FLOPs, rotations, activation depth,
//! bootstrap count, output precision, and modeled single-threaded latency.
//!
//! Networks run on the trace backend at the paper's deployment scale
//! (N = 2¹⁶ cost model, L_eff = 10); the MNIST networks additionally run
//! under **real CKKS** with `--fhe` (paper §8.1 runs them without
//! bootstrapping at a reduced ring degree — ours bootstraps through the
//! oracle at N = 2¹³).
//!
//! Heavy rows (ResNet-34/50) are skipped unless `--large` is given.

use orion_bench::{fmt_secs, prepare_model, Table};
use orion_models::data::synthetic_images;
use orion_models::Act;
use orion_nn::{run_program, ClearBackend};

fn main() {
    let large = std::env::args().any(|a| a == "--large");
    let fhe = std::env::args().any(|a| a == "--fhe");
    println!(
        "Table 2: Orion across networks and datasets (trace backend, paper-scale cost model)\n"
    );
    let mut t = Table::new(&[
        "dataset",
        "model",
        "act",
        "params(M)",
        "FLOPs(M)",
        "# rots",
        "act depth",
        "# boots",
        "prec (b)",
        "time (modeled)",
    ]);

    let mut rows: Vec<(&str, Act, &str)> = vec![
        ("mlp", Act::Square, "x^2"),
        ("lola", Act::Square, "x^2"),
        ("lenet5", Act::Square, "x^2"),
        ("alexnet", Act::Relu, "ReLU"),
        ("alexnet", Act::SiluDeg(63), "SiLU"),
        ("vgg16", Act::Relu, "ReLU"),
        ("vgg16", Act::SiluDeg(63), "SiLU"),
        ("resnet20", Act::Relu, "ReLU"),
        ("resnet20", Act::SiluDeg(63), "SiLU"),
        ("mobilenet", Act::SiluDeg(63), "SiLU"),
        ("resnet18", Act::SiluDeg(63), "SiLU"),
    ];
    if large {
        rows.push(("resnet34", Act::SiluDeg(63), "SiLU"));
        rows.push(("resnet50", Act::SiluDeg(63), "SiLU"));
    }

    for (name, act, act_name) in rows {
        let calib = if matches!(name, "resnet34" | "resnet50") {
            4
        } else {
            16
        };
        let (net, compiled, _) = prepare_model(name, act, calib, 1000);
        let (c, h, w) = {
            let s = net.shape(net.input());
            (s.0, s.1, s.2)
        };
        let input = &synthetic_images(c, h, w, 1, 77)[0];
        let run = run_program(&compiled, &ClearBackend::reference(&compiled), input);
        let exact = net.forward_exact(input);
        let prec = run.precision_vs(&exact);
        let dataset = match name {
            "mlp" | "lola" | "lenet5" => "MNIST",
            "mobilenet" | "resnet18" => "Tiny",
            "resnet34" | "resnet50" => "IMNet",
            _ => "CIFAR-10",
        };
        t.row(vec![
            dataset.into(),
            name.into(),
            act_name.into(),
            format!("{:.2}", net.param_count() as f64 / 1e6),
            format!("{:.0}", net.flop_count() as f64 / 1e6),
            run.counter.rotations().to_string(),
            compiled.activation_depth().to_string(),
            run.counter.bootstraps().to_string(),
            format!("{prec:.1}"),
            fmt_secs(run.counter.seconds),
        ]);
    }
    t.print();
    println!("\npaper shapes to check:");
    println!(" * SiLU halves activation depth vs ReLU and cuts bootstraps ~2x (§8.2),");
    println!(" * rotations track FLOPs, not parameters (§8.3: MobileNet/ResNet-18 vs VGG),");
    println!(" * MNIST nets need no bootstraps at paper scale and run in seconds,");
    println!(" * ResNet-50 needs hundreds of bootstraps and runs for hours (§8.4).");

    if fhe {
        real_fhe_mnist();
    } else {
        println!("\n(run with --fhe for real-CKKS MNIST rows, --large for ResNet-34/50)");
    }
}

/// Real-CKKS runs of the MNIST networks at N = 2¹³ (paper §8.1 runs these
/// at N = 2¹³/2¹⁴ without bootstrapping; our reduced-depth parameters
/// bootstrap through the oracle instead).
fn real_fhe_mnist() {
    use orion::core::{CkksBackend, Orion, Session};
    use orion_ckks::CkksParams;
    use orion_nn::fit::fit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    println!("\nReal-CKKS MNIST runs (N = 2^13, Δ = 2^40, single-threaded):\n");
    let mut t = Table::new(&["model", "# boots", "prec (b)", "wall time"]);
    for name in ["mlp", "lola"] {
        let params = CkksParams::medium();
        let mut rng = StdRng::seed_from_u64(5);
        let (net, _) = orion_models::build(name, Act::Square, &mut rng);
        let calib = synthetic_images(1, 28, 28, 2, 6);
        let fitres = fit(&net, &calib);
        let orion = Orion::for_params(&params);
        let compiled = orion.compile_with_ranges(&net, &fitres);
        let session = Session::new(params, &compiled, 7);
        let input = &synthetic_images(1, 28, 28, 1, 8)[0];
        let t0 = std::time::Instant::now();
        let run = run_program(&compiled, &CkksBackend::new(&session), input);
        let wall = t0.elapsed().as_secs_f64();
        let exact = net.forward_exact(input);
        t.row(vec![
            name.into(),
            run.counter.bootstraps().to_string(),
            format!("{:.1}", run.precision_vs(&exact)),
            fmt_secs(wall),
        ]);
    }
    t.print();
}
