//! # Orion
//!
//! A Rust reproduction of *"Orion: A Fully Homomorphic Encryption Framework
//! for Deep Learning"* (Ebel, Garimella, Reagen — ASPLOS 2025).
//!
//! This facade crate holds the top-level API ([`core`]: compile, run,
//! serve) and re-exports the whole workspace; see the README for a tour
//! and `examples/` for runnable programs.
//!
//! ```no_run
//! use orion::nn::Network;
//! use orion::core::Orion;
//! use orion::tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Network::new(1, 8, 8);
//! let x = net.input();
//! let c = net.conv2d("conv", x, 4, 3, 1, 1, 1, &mut rng);
//! let a = net.silu("act", c, 63);
//! net.output(a);
//!
//! let calib = vec![Tensor::zeros(&[1, 8, 8])];
//! let compiled = Orion::paper_scale().compile(&net, &calib);
//! println!("{}", compiled.report());
//! ```

pub mod core;

pub use orion_ckks as ckks;
pub use orion_graph as graph;
pub use orion_linear as linear;
pub use orion_math as math;
pub use orion_models as models;
pub use orion_nn as nn;
/// `orion_nn::sim` under its own name, kept because the `perf/` name pin
/// reads it here (ROADMAP item 7(b)).
pub use orion_nn::sim;
pub use orion_poly as poly;
pub use orion_telemetry as telemetry;
pub use orion_tensor as tensor;

#[cfg(test)]
mod tests {
    use crate::core::{trace_inference, Orion};
    use orion_models::data::synthetic_images;
    use orion_models::{build, Act};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn compiles_resnet20_at_paper_scale() {
        let mut rng = StdRng::seed_from_u64(21);
        let (net, _) = build("resnet20", Act::SiluDeg(63), &mut rng);
        let calib = synthetic_images(3, 32, 32, 2, 22);
        let orion = Orion::paper_scale();
        let compiled = orion.compile(&net, &calib);
        // ResNet-20 fits in one ciphertext per wire at 2^15 slots and needs
        // bootstraps (depth far exceeds L_eff = 10).
        assert!(compiled.placement.boot_count > 0);
        assert!(compiled.planned_rotations() > 100);
        // placement is fast (paper: 1.94 s for ResNet-20)
        assert!(compiled.placement.placement_seconds < 30.0);
    }

    #[test]
    fn trace_inference_of_resnet20_is_accurate() {
        let mut rng = StdRng::seed_from_u64(23);
        let (mut net, _) = build("resnet20", Act::SiluDeg(63), &mut rng);
        let calib = synthetic_images(3, 32, 32, 16, 24);
        orion_nn::fit::calibrate_batch_norm(&mut net, &calib);
        let orion = Orion::paper_scale();
        let compiled = orion.compile(&net, &calib);
        let input = &synthetic_images(3, 32, 32, 1, 2525)[0];
        let run = trace_inference(&compiled, input);
        let reference = net.forward_poly(input, &compiled.acts);
        let prec = run.precision_vs(&reference);
        assert!(prec > 30.0, "trace ResNet-20 diverged: {prec} bits");
        assert_eq!(run.counter.bootstraps(), compiled.placement.boot_count);
    }
}
