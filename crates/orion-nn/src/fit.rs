//! Range estimation (`net.fit()`, paper §6).
//!
//! "Orion handles this process automatically through `net.fit()`, which
//! accepts the entire training dataset as input, calculates per layer
//! scaling factors, and inserts scale-down multiplications directly into
//! the computational graph." — we run the exact reference forward pass
//! over a calibration set and record, for every activation, the largest
//! absolute input it will see (with a safety margin).

use crate::layer::Layer;
use crate::network::Network;
use orion_tensor::Tensor;
use std::collections::HashMap;

/// Fitted per-activation input ranges.
#[derive(Clone, Debug, Default)]
pub struct FitResult {
    /// Activation node id → input range `m` (inputs land in `[-m, m]`).
    pub ranges: HashMap<usize, f64>,
}

/// Safety margin applied on top of the observed maxima.
pub const RANGE_MARGIN: f64 = 1.5;

/// Runs the calibration set through the exact network, recording every
/// activation's input range.
pub fn fit(net: &Network, samples: &[Tensor]) -> FitResult {
    assert!(
        !samples.is_empty(),
        "fit needs at least one calibration sample"
    );
    let mut maxima: HashMap<usize, f64> = HashMap::new();
    for s in samples {
        let outs = net.forward_all_exact(s);
        for (id, node) in net.nodes.iter().enumerate() {
            if node.layer.is_activation() {
                let input = &outs[node.inputs[0]];
                let m = input.max_abs();
                let e = maxima.entry(id).or_insert(0.0);
                *e = e.max(m);
            }
        }
    }
    FitResult {
        ranges: maxima
            .into_iter()
            .map(|(id, m)| (id, (m * RANGE_MARGIN).max(1e-6)))
            .collect(),
    }
}

/// Poly-aware range estimation: after the initial exact-activation fit,
/// re-runs the calibration set through the *fitted polynomial* network and
/// widens any range the polynomial semantics exceed. High-degree Chebyshev
/// extrapolation beyond `[-1, 1]` is catastrophic (T₆₃ grows like
/// `cosh(63·acosh(u))`), so ranges must bound the polynomial forward, not
/// just the exact one — activation approximation errors compound through
/// deep networks.
pub fn fit_robust(net: &Network, samples: &[Tensor], iterations: usize) -> FitResult {
    let mut fitres = fit(net, samples);
    for _ in 0..iterations {
        let acts = compile_all_acts(net, &fitres);
        let mut changed = false;
        for s in samples {
            let outs = net.forward_all_poly(s, &acts);
            for (id, node) in net.nodes.iter().enumerate() {
                if node.layer.is_activation() {
                    let observed = outs[node.inputs[0]].max_abs();
                    let e = fitres.ranges.get_mut(&id).expect("fit covers activations");
                    // Cap the growth: a downstream explosion (Chebyshev
                    // extrapolation gone non-linear) must not poison the
                    // range with astronomically large values — grow
                    // geometrically and let the next iteration re-measure.
                    let m = if observed.is_finite() {
                        (observed * RANGE_MARGIN).min(*e * 8.0)
                    } else {
                        *e * 8.0
                    };
                    if m > *e {
                        *e = m;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    fitres
}

fn compile_all_acts(net: &Network, fitres: &FitResult) -> crate::act::CompiledActs {
    let mut acts = crate::act::CompiledActs::default();
    for (id, node) in net.nodes.iter().enumerate() {
        if node.layer.is_activation() {
            acts.map.insert(
                id,
                crate::act::compile_activation(&node.layer, fitres.ranges[&id]),
            );
        }
    }
    acts
}

/// Calibrates every batch-norm layer's statistics from data, in one
/// forward pass per sample (walking the graph and normalizing as we go —
/// the stand-in for loading *trained* running statistics, which is what
/// keeps activations well-scaled through deep networks).
pub fn calibrate_batch_norm(net: &mut Network, samples: &[Tensor]) {
    assert!(!samples.is_empty());
    let node_count = net.nodes.len();
    // Evaluate nodes in order, updating BN layers as their inputs become
    // available. We process per-node across the whole batch.
    let mut vals: Vec<Vec<Tensor>> = vec![Vec::new(); node_count];
    vals[0] = samples.to_vec();
    for id in 1..node_count {
        // Compute per-channel statistics for BN nodes before evaluating.
        if let Layer::BatchNorm2d(_) = &net.nodes[id].layer {
            let src = net.nodes[id].inputs[0];
            let c = net.nodes[id].shape.0;
            let mut mean = vec![0.0f64; c];
            let mut var = vec![0.0f64; c];
            let mut n = 0usize;
            for t in &vals[src] {
                let (h, w) = (t.shape()[1], t.shape()[2]);
                n += h * w;
                for ch in 0..c {
                    for i in 0..h * w {
                        mean[ch] += t.data()[ch * h * w + i];
                    }
                }
            }
            let denom = (n as f64).max(1.0);
            for m in mean.iter_mut() {
                *m /= denom;
            }
            for t in &vals[src] {
                let (h, w) = (t.shape()[1], t.shape()[2]);
                for ch in 0..c {
                    for i in 0..h * w {
                        let d = t.data()[ch * h * w + i] - mean[ch];
                        var[ch] += d * d;
                    }
                }
            }
            for v in var.iter_mut() {
                *v = (*v / denom).max(1e-12);
            }
            if let Layer::BatchNorm2d(bn) = &mut net.nodes[id].layer {
                bn.mean = mean;
                bn.var = var;
                bn.gamma = vec![1.0; c];
                bn.beta = vec![0.0; c];
            }
        }
        // Evaluate this node for every sample using (possibly updated)
        // parameters, on the cached inputs.
        let outs: Vec<Tensor> = (0..samples.len())
            .map(|s| {
                let ins: Vec<&Tensor> = net.nodes[id].inputs.iter().map(|&i| &vals[i][s]).collect();
                net.eval_node(id, &ins, None)
            })
            .collect();
        vals[id] = outs;
    }
}

/// A default range assignment (all ranges = `r`) for compiling without a
/// calibration set.
pub fn fixed_ranges(net: &Network, r: f64) -> FitResult {
    let ranges = net
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.layer.is_activation())
        .map(|(id, _)| (id, r))
        .collect();
    FitResult { ranges }
}

/// Activation nodes of a network, in id order.
pub fn activation_nodes(net: &Network) -> Vec<usize> {
    net.nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.layer.is_activation())
        .map(|(id, _)| id)
        .collect()
}

/// Convenience check used by compile: ranges must cover every activation.
pub fn validate(net: &Network, fitres: &FitResult) {
    for id in activation_nodes(net) {
        assert!(
            fitres.ranges.contains_key(&id),
            "activation node {id} ({}) has no fitted range — call fit() first",
            net.nodes[id].name
        );
        if let Layer::Square = net.nodes[id].layer {
            // square needs no range, but having one is harmless
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net_with_act() -> (Network, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Network::new(1, 4, 4);
        let x = net.input();
        let c = net.conv2d("c", x, 2, 3, 1, 1, 1, &mut rng);
        let a = net.silu("act", c, 15);
        net.output(a);
        (net, rng)
    }

    #[test]
    fn fit_records_activation_ranges() {
        let (net, mut rng) = net_with_act();
        let samples: Vec<Tensor> = (0..4)
            .map(|_| Tensor::kaiming(&[1, 4, 4], 16, &mut rng))
            .collect();
        let f = fit(&net, &samples);
        assert_eq!(f.ranges.len(), 1);
        let &m = f.ranges.values().next().unwrap();
        assert!(m > 0.0 && m < 10.0);
        // The margin means m strictly exceeds the observed max.
        let observed = samples
            .iter()
            .map(|s| net.forward_all_exact(s)[1].max_abs())
            .fold(0.0, f64::max);
        assert!(m > observed);
    }

    #[test]
    fn fixed_ranges_cover_all_activations() {
        let (net, _) = net_with_act();
        let f = fixed_ranges(&net, 2.0);
        validate(&net, &f);
    }

    #[test]
    #[should_panic(expected = "no fitted range")]
    fn validate_rejects_missing_ranges() {
        let (net, _) = net_with_act();
        validate(&net, &FitResult::default());
    }
}

#[cfg(test)]
mod bn_tests {
    use super::*;
    use orion_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn calibrated_bn_normalizes_activations() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut net = Network::new(2, 8, 8);
        let x = net.input();
        // a conv with deliberately large weights: without calibration the
        // BN output would be far from unit scale
        let w = Tensor::from_vec(
            &[4, 2, 3, 3],
            (0..72).map(|_| rng.gen_range(-3.0..3.0)).collect(),
        );
        let c = net.conv2d_with("conv", x, w, vec![0.5; 4], 1, 1, 1, 1);
        let b = net.batch_norm2d("bn", c);
        net.output(b);
        let samples: Vec<Tensor> = (0..6)
            .map(|_| {
                Tensor::from_vec(
                    &[2, 8, 8],
                    (0..128).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                )
            })
            .collect();
        calibrate_batch_norm(&mut net, &samples);
        // After calibration, per-channel statistics of the BN output over
        // the calibration set are ~N(0, 1).
        let mut sum = [0.0f64; 4];
        let mut sumsq = [0.0f64; 4];
        let mut n = 0usize;
        for s in &samples {
            let out = net.forward_exact(s);
            let (h, w) = (out.shape()[1], out.shape()[2]);
            n += h * w;
            for ch in 0..4 {
                for i in 0..h * w {
                    let v = out.data()[ch * h * w + i];
                    sum[ch] += v;
                    sumsq[ch] += v * v;
                }
            }
        }
        for ch in 0..4 {
            let mean = sum[ch] / n as f64;
            let var = sumsq[ch] / n as f64 - mean * mean;
            assert!(mean.abs() < 0.05, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 0.1, "channel {ch} var {var}");
        }
    }

    #[test]
    fn calibration_keeps_deep_activations_healthy() {
        // The motivating failure: without calibrated BN, random-weight
        // SiLU stacks decay toward zero; with it, magnitudes stay O(1).
        let mut rng = StdRng::seed_from_u64(100);
        let mut net = Network::new(2, 8, 8);
        let x = net.input();
        let mut cur = x;
        for i in 0..6 {
            cur = net.conv2d(&format!("c{i}"), cur, 4.min(2 + i), 3, 1, 1, 1, &mut rng);
            cur = net.batch_norm2d(&format!("b{i}"), cur);
            cur = net.silu(&format!("a{i}"), cur, 15);
        }
        net.output(cur);
        let samples: Vec<Tensor> = (0..4)
            .map(|_| {
                Tensor::from_vec(
                    &[2, 8, 8],
                    (0..128).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                )
            })
            .collect();
        let before = net.forward_exact(&samples[0]).max_abs();
        calibrate_batch_norm(&mut net, &samples);
        let after = net.forward_exact(&samples[0]).max_abs();
        assert!(
            after > before,
            "calibration should prevent decay: {before} -> {after}"
        );
        assert!(after > 0.1, "deep output still healthy: {after}");
    }
}
