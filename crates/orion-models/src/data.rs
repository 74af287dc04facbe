//! Synthetic datasets (README, "Substitutions": no dataset downloads; the paper's
//! FHE-vs-cleartext validation metric is preserved).

use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random smooth "natural-ish" images: mixtures of Gaussian bumps per
/// channel, normalized to roughly `[-1, 1]`.
pub fn synthetic_images(c: usize, h: usize, w: usize, count: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut t = Tensor::zeros(&[c, h, w]);
            for ch in 0..c {
                for _ in 0..4 {
                    let cy = rng.gen_range(0.0..h as f64);
                    let cx = rng.gen_range(0.0..w as f64);
                    let amp = rng.gen_range(-1.0..1.0);
                    let s2 = rng.gen_range(1.0..(h as f64 / 2.0)).powi(2);
                    for y in 0..h {
                        for x in 0..w {
                            let d2 = (y as f64 - cy).powi(2) + (x as f64 - cx).powi(2);
                            t.data_mut()[(ch * h + y) * w + x] += amp * (-d2 / s2).exp();
                        }
                    }
                }
            }
            let m = t.max_abs().max(1e-9);
            t.map(|v| v / m)
        })
        .collect()
}

/// A labelled synthetic "digits" task: `classes` prototype patterns on a
/// `h × w` grid plus pixel noise. Linearly non-separable enough that the
/// MLP must actually learn, easy enough to reach high accuracy quickly.
pub struct Digits {
    /// Input images (1 × h × w).
    pub images: Vec<Tensor>,
    /// Labels in `0..classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

/// Generates the synthetic digits dataset.
pub fn synthetic_digits(h: usize, w: usize, classes: usize, count: usize, seed: u64) -> Digits {
    let mut rng = StdRng::seed_from_u64(seed);
    // Class prototypes: random fixed patterns.
    let protos: Vec<Vec<f64>> = (0..classes)
        .map(|_| (0..h * w).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let mut images = Vec::with_capacity(count);
    let mut labels = Vec::with_capacity(count);
    for i in 0..count {
        let cls = i % classes;
        let data: Vec<f64> = protos[cls]
            .iter()
            .map(|&p| (p * 0.5 + rng.gen_range(-0.35..0.35)).clamp(-1.0, 1.0))
            .collect();
        images.push(Tensor::from_vec(&[1, h, w], data));
        labels.push(cls);
    }
    Digits {
        images,
        labels,
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_are_normalized() {
        let imgs = synthetic_images(3, 16, 16, 5, 42);
        assert_eq!(imgs.len(), 5);
        for t in &imgs {
            assert!(t.max_abs() <= 1.0 + 1e-9);
            assert!(t.max_abs() > 0.5);
        }
    }

    #[test]
    fn digits_are_balanced() {
        let d = synthetic_digits(8, 8, 4, 40, 1);
        let mut counts = [0usize; 4];
        for &l in &d.labels {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn digits_are_reproducible() {
        let a = synthetic_digits(8, 8, 3, 9, 7);
        let b = synthetic_digits(8, 8, 3, 9, 7);
        assert_eq!(a.images[0].data(), b.images[0].data());
    }
}
