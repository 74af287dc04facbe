//! ResNet-20 on CIFAR-10-sized inputs: the paper's headline benchmark,
//! compiled at deployment scale and executed on the cleartext engine
//! (identical plans/placement to the real backend; see README,
//! "Substitutions").
//!
//! Also demonstrates the ReLU-vs-SiLU latency/accuracy trade-off (§8.2).
//!
//! ```sh
//! cargo run --release --example resnet_cifar
//! ```

use orion::core::{run_program, ClearBackend, Orion};
use orion::models::data::synthetic_images;
use orion::models::{build, Act};
use orion::nn::fit::calibrate_batch_norm;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(act: Act, label: &str) {
    let mut rng = StdRng::seed_from_u64(11);
    let (mut net, info) = build("resnet20", act, &mut rng);
    let calib = synthetic_images(3, 32, 32, 8, 12);
    calibrate_batch_norm(&mut net, &calib);
    let orion = Orion::paper_scale();
    let compiled = orion.compile(&net, &calib);
    let input = &synthetic_images(3, 32, 32, 1, 13)[0];
    let run = run_program(&compiled, &ClearBackend::reference(&compiled), input);
    let exact = net.forward_exact(input);
    println!("\nResNet-20 / {label}:");
    println!(
        "  params {:.2}M, FLOPs {:.0}M",
        info.params as f64 / 1e6,
        info.flops as f64 / 1e6
    );
    println!("  rotations        {}", run.counter.rotations());
    println!("  activation depth {}", compiled.activation_depth());
    println!("  bootstraps       {}", run.counter.bootstraps());
    println!(
        "  precision        {:.1} bits vs cleartext",
        run.precision_vs(&exact)
    );
    println!(
        "  modeled latency  {:.0} s single-threaded (paper {}: {})",
        run.counter.seconds,
        label,
        if matches!(act, Act::Relu) {
            "618 s"
        } else {
            "301 s"
        }
    );
    println!(
        "  placement took   {:.2} s (paper: 1.94 s)",
        compiled.placement.placement_seconds
    );
}

fn main() {
    println!("ResNet-20 under Orion at paper scale (N = 2^16 cost model, L_eff = 10)");
    run(Act::Relu, "ReLU [15,15,27]");
    run(Act::SiluDeg(63), "SiLU-63");
    println!("\nexpected shape (paper §8.2): SiLU roughly halves activation depth,");
    println!("cuts bootstraps ~2x, and speeds the network up 1.5–2x.");
}
