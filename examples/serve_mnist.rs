//! Multi-tenant serving end to end: two MNIST-shaped MLPs hosted side by
//! side, three clients with their own keys submitting encrypted requests
//! concurrently through the admission queue onto the worker pool — one
//! model paged under a memory cap smaller than its encoded-weight
//! footprint, the other fully resident.
//!
//! Run with `cargo run --release --example serve_mnist`.

use orion::core::serve::{ServeConfig, Server};
use orion::core::Orion;
use orion_models::data::synthetic_images;
use orion_nn::fhe_exec::prepare_program;
use orion_nn::network::Network;
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Insecure demo parameters (N = 2¹¹) with enough level headroom that both
/// nets run bootstrap-free, keeping served requests fully deterministic.
fn demo_params(max_level: usize) -> orion_ckks::CkksParams {
    orion_ckks::CkksParams {
        n: 1 << 11,
        log_scale: 30,
        q0_bits: 45,
        max_level,
        special_bits: 45,
        sigma: 3.2,
        boot_levels: 1,
    }
}

/// A 14×14 ("downsampled MNIST") MLP with the exact x² activation.
fn mlp_square(rng: &mut StdRng) -> (Network, orion_ckks::CkksParams) {
    let mut net = Network::new(1, 14, 14);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 32, rng);
    let a = net.square("act", l1);
    let l2 = net.linear("fc2", a, 10, rng);
    net.output(l2);
    (net, demo_params(6))
}

/// The same shape with a degree-3 SiLU (a real Chebyshev poly stage on
/// the serving path).
fn mlp_silu(rng: &mut StdRng) -> (Network, orion_ckks::CkksParams) {
    let mut net = Network::new(1, 14, 14);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 32, rng);
    let a = net.silu("act", l1, 3);
    let l2 = net.linear("fc2", a, 10, rng);
    net.output(l2);
    (net, demo_params(9))
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0x5e11e);
    let calib = synthetic_images(1, 14, 14, 4, 1);

    let mut server = Server::new(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServeConfig::default()
    });

    // Tenant 0: paged under a cap ~2/3 of its encoded-weight footprint.
    let (net_a, params_a) = mlp_square(&mut rng);
    let compiled_a = Orion::for_params(&params_a).compile(&net_a, &calib);
    // weight encodings need no key: an encoder on the context is enough
    let footprint = {
        let ctx = orion_ckks::params::Context::new(params_a.clone());
        prepare_program(&compiled_a, &orion_ckks::Encoder::new(ctx)).approx_bytes()
    };
    // one directory per process: a concurrent run must not delete this
    // run's spill files
    let store_dir =
        std::env::temp_dir().join(format!("orion_serve_mnist_store_{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    let model_a = server
        .add_model_paged(
            "mnist-square",
            compiled_a,
            params_a,
            2,
            &store_dir,
            footprint * 2 / 3,
        )
        .expect("register paged model");
    println!(
        "mnist-square: paged, footprint {footprint} B, budget {} B",
        footprint * 2 / 3
    );

    // Tenant 1: fully resident.
    let (net_b, params_b) = mlp_silu(&mut rng);
    let compiled_b = Orion::for_params(&params_b).compile(&net_b, &calib);
    let model_b = server
        .add_model("mnist-silu", compiled_b, params_b, 3)
        .expect("model verifies");
    println!("mnist-silu: resident");

    // Three clients, each with its own keys (two tenants share model A's
    // paged weight set — encodings are key-independent).
    let clients = [
        server.add_client(model_a, 10).unwrap(),
        server.add_client(model_a, 11).unwrap(),
        server.add_client(model_b, 12).unwrap(),
    ];

    server.start();

    std::thread::scope(|scope| {
        for (tid, &client) in clients.iter().enumerate() {
            let server = &server;
            scope.spawn(move || {
                let images = synthetic_images(1, 14, 14, 4, 100 + tid as u64);
                for (i, img) in images.iter().enumerate() {
                    let cts = server.encrypt(client, img).expect("encrypt");
                    let out = server.infer(client, cts).expect("serve");
                    let class = argmax(&out.output);
                    println!(
                        "client {tid} req {i}: class {class}, queue {:.1} ms, \
                         exec {:.1} ms, encodes {}",
                        out.queue_seconds * 1e3,
                        out.wall_seconds * 1e3,
                        out.counter.encodes,
                    );
                }
            });
        }
    });

    println!(
        "\npage stats (mnist-square): {:?}",
        server.page_stats(model_a)
    );
    println!("\nmetrics snapshot:\n{}", server.metrics_json());
    server.shutdown();
    std::fs::remove_dir_all(&store_dir).ok();
}

fn argmax(t: &Tensor) -> usize {
    t.data()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}
