//! Arbitrary activation functions (paper §6): "Orion is able to support
//! arbitrary activation functions that can be fit with high-degree
//! polynomials" — here GELU, fit with Chebyshev interpolation and run on
//! REAL CKKS next to its cleartext reference.
//!
//! ```sh
//! cargo run --release --example custom_activation
//! ```

use orion::ckks::CkksParams;
use orion::core::{run_program, CkksBackend, Orion, Session};
use orion::models::data::synthetic_images;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GELU (tanh approximation, as used by transformer stacks).
fn gelu(x: f64) -> f64 {
    0.5 * x * (1.0 + ((2.0 / std::f64::consts::PI).sqrt() * (x + 0.044715 * x * x * x)).tanh())
}

fn main() {
    let params = CkksParams {
        max_level: 10,
        boot_levels: 2,
        ..CkksParams::tiny()
    };
    let mut rng = StdRng::seed_from_u64(9);

    // A small conv net with a GELU activation — one extra builder call is
    // all a new activation needs (the paper's extensibility claim).
    let mut net = orion::nn::Network::new(1, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 4, 3, 1, 1, 1, &mut rng);
    let g = net.activation("gelu1", c1, 31, gelu);
    let f = net.flatten("flat", g);
    let l = net.linear("fc", f, 4, &mut rng);
    net.output(l);

    let calib = synthetic_images(1, 8, 8, 6, 10);
    let orion = Orion::for_params(&params);
    let compiled = orion.compile(&net, &calib);
    println!(
        "compiled: GELU fit as a degree-31 Chebyshev over the fitted range, depth {}",
        compiled.activation_depth()
    );

    let session = Session::new(params, &compiled, 11);
    let input = &synthetic_images(1, 8, 8, 1, 12)[0];
    let t0 = std::time::Instant::now();
    let run = run_program(&compiled, &CkksBackend::new(&session), input);
    let wall = t0.elapsed().as_secs_f64();
    let exact = net.forward_exact(input);
    println!(
        "encrypted output:  {:?}",
        run.output
            .data()
            .iter()
            .map(|x| (x * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!(
        "cleartext output:  {:?}",
        exact
            .data()
            .iter()
            .map(|x| (x * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!(
        "precision: {:.1} bits, {} bootstraps, {:.2}s wall",
        run.precision_vs(&exact),
        run.counter.bootstraps(),
        wall
    );
    assert!(run.precision_vs(&exact) > 5.0);
}
