//! Analytical noise tracking.
//!
//! CKKS is approximate: every operation adds bounded error (paper §2.3
//! "both rounding during encoding and the addition of noise during
//! encryption introduce small errors"). This module tracks the predicted
//! standard deviation of the *slot-value* error through a computation,
//! using the standard heuristics (errors as independent zero-mean
//! variables, canonical-embedding norm √N):
//!
//! * fresh encryption: encoding rounding (½ per coefficient → `√(N/12)/Δ`
//!   per slot) + encryption noise `σ·√(2N/3)`-ish,
//! * `HAdd`: variances add,
//! * `PMult` by a plaintext with max magnitude `w`: error scales by `w`,
//!   plus the plaintext's own rounding against the ciphertext magnitude,
//! * key-switching (`HMult`/`HRot`): adds the hybrid term — `dnum` digits
//!   each below `α·Q_g`, times key errors of std σ, divided by `P` — plus
//!   the ModDown's rounding,
//! * rescale: divides by `q_ℓ` and adds a rounding term.
//!
//! [`NoiseEstimator`] is *predictive* — tests validate it against the
//! noise actually measured on the real backend (within an order of
//! magnitude, which is what a budget estimator needs; the key-switch term
//! is held to be an upper bound of what is measured at every level).

use crate::params::Context;

/// Predicted slot-error standard deviation for one ciphertext.
#[derive(Clone, Copy, Debug)]
pub struct NoiseEstimate {
    /// Standard deviation of the per-slot error (cleartext units).
    pub sigma: f64,
}

impl NoiseEstimate {
    /// Approximate error bound (6σ).
    pub fn bound(&self) -> f64 {
        6.0 * self.sigma
    }

    /// Bits of precision this noise supports for unit-scale values.
    pub fn precision_bits(&self) -> f64 {
        -self.sigma.log2()
    }
}

/// Tracks noise through homomorphic operations.
pub struct NoiseEstimator<'a> {
    ctx: &'a Context,
}

impl<'a> NoiseEstimator<'a> {
    /// Creates an estimator for `ctx`.
    pub fn new(ctx: &'a Context) -> Self {
        Self { ctx }
    }

    /// Noise of a freshly encrypted ciphertext at scale Δ.
    pub fn fresh(&self) -> NoiseEstimate {
        let n = self.ctx.degree() as f64;
        let delta = self.ctx.scale();
        // encoding rounding: each coefficient off by U(±1/2); through the
        // decode FFT a slot sees ~√N·(1/√12) of it.
        let encode = (n / 12.0).sqrt() / delta;
        // encryption: e0 + v·e1-ish, coefficients ~σ; slots see √(2N/3)·σ.
        let encrypt = self.ctx.params.sigma * (2.0 * n / 3.0).sqrt() / delta;
        NoiseEstimate {
            sigma: (encode * encode + encrypt * encrypt).sqrt(),
        }
    }

    /// Noise after `HAdd`.
    pub fn add(&self, a: NoiseEstimate, b: NoiseEstimate) -> NoiseEstimate {
        NoiseEstimate {
            sigma: (a.sigma * a.sigma + b.sigma * b.sigma).sqrt(),
        }
    }

    /// Noise after `PMult` by a plaintext of max magnitude `w_max` encoded
    /// at prime scale, *followed by rescale*: the input error scales by
    /// `w_max`; rescaling adds a rounding term.
    pub fn pmult_rescale(&self, a: NoiseEstimate, w_max: f64, level: usize) -> NoiseEstimate {
        let n = self.ctx.degree() as f64;
        let delta = self.ctx.scale();
        let scaled = a.sigma * w_max.max(1e-12);
        // rescale rounding: coefficients gain U(±1/2) after division by q_ℓ
        let _ = level;
        let rounding = (n / 12.0).sqrt() / delta;
        NoiseEstimate {
            sigma: (scaled * scaled + rounding * rounding).sqrt(),
        }
    }

    /// Noise added by one key-switch (rotation or relinearization) at
    /// level ℓ, by a key generated at any level `≥ ℓ` — whose α may be any
    /// of `α(ℓ)…α(L)`, so the largest of those terms. With digits of α
    /// limbs, digit `g` (limbs `G`) is the centred fast base conversion of
    /// `c mod Q_G`, a zero-mean sum of `|G|` terms below `Q_G/2` each (the
    /// ModUp's conversion error is the multiple of `Q_G` it adds), so its
    /// variance is below `(|G|·Q_G)²/12`; `Σ_g d_g·e_g` with key errors of
    /// std σ has coefficient variance `N·σ²·Σ_g (|G|·Q_G)²/12`, divided by
    /// `P = p_0⋯p_{α−1}`. The ModDown's centred conversion adds up to α
    /// rounding terms of variance 1/12 to each half, the `a` half's times
    /// the ternary `s` (`2N/3` of them). Slots see `√N` times a
    /// coefficient's standard deviation.
    pub fn key_switch(&self, a: NoiseEstimate, level: usize) -> NoiseEstimate {
        let ctx = self.ctx;
        let n = ctx.degree() as f64;
        let sigma = ctx.params.sigma;
        let coeff_var = |alpha: usize| {
            let p: f64 = ctx.special[..alpha].iter().map(|&p| p as f64).product();
            let digits: f64 = (ctx.moduli[..=level].chunks(alpha))
                .map(|g| {
                    let bound = g.len() as f64 * g.iter().map(|&q| q as f64).product::<f64>();
                    bound * bound / 12.0
                })
                .sum();
            let inner = n * sigma * sigma * digits / (p * p);
            let rounding = alpha as f64 / 12.0 * (1.0 + 2.0 * n / 3.0);
            inner + rounding
        };
        let worst = (ctx.alpha(level)..=ctx.alpha(ctx.max_level()))
            .map(coeff_var)
            .fold(0.0, f64::max);
        let ks = (n * worst).sqrt() / ctx.scale();
        NoiseEstimate {
            sigma: (a.sigma * a.sigma + ks * ks).sqrt(),
        }
    }

    /// Noise after `HMult` of two ciphertexts with value bounds `ma`, `mb`,
    /// followed by rescale.
    pub fn hmult_rescale(
        &self,
        a: NoiseEstimate,
        b: NoiseEstimate,
        ma: f64,
        mb: f64,
        level: usize,
    ) -> NoiseEstimate {
        // cross terms: a's error times b's magnitude and vice versa
        let cross = (a.sigma * mb).hypot(b.sigma * ma);
        let ks = self.key_switch(NoiseEstimate { sigma: 0.0 }, level);
        let n = self.ctx.degree() as f64;
        let rounding = (n / 12.0).sqrt() / self.ctx.scale();
        NoiseEstimate {
            sigma: (cross * cross + ks.sigma * ks.sigma + rounding * rounding).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    struct H {
        ctx: Arc<Context>,
        enc: Encoder,
        encryptor: Encryptor,
        dec: Decryptor,
        eval: crate::eval::Evaluator,
    }

    fn setup() -> H {
        let ctx = Context::new(CkksParams::tiny());
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(1));
        let pk = Arc::new(kg.gen_public_key());
        let keys = Arc::new(kg.gen_eval_keys(&[1]));
        let sk = kg.secret_key();
        H {
            enc: Encoder::new(ctx.clone()),
            encryptor: Encryptor::with_public_key(ctx.clone(), pk),
            dec: Decryptor::new(ctx.clone(), sk),
            eval: crate::eval::Evaluator::new(ctx.clone(), keys),
            ctx,
        }
    }

    fn measured_sigma(vals: &[f64], out: &[f64]) -> f64 {
        let n = vals.len() as f64;
        (vals
            .iter()
            .zip(out)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / n)
            .sqrt()
    }

    fn within_two_orders(predicted: f64, measured: f64) -> bool {
        // an estimator is useful if it brackets reality within ~2 orders
        measured < predicted * 100.0 && measured > predicted / 100.0
    }

    #[test]
    fn fresh_encryption_noise_predicted() {
        let h = setup();
        let est = NoiseEstimator::new(&h.ctx);
        let mut rng = StdRng::seed_from_u64(2);
        let vals: Vec<f64> = (0..h.ctx.slots())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&vals, h.ctx.scale(), 2, false), &mut rng);
        let out = h.enc.decode(&h.dec.decrypt(&ct));
        let measured = measured_sigma(&vals, &out);
        let predicted = est.fresh().sigma;
        assert!(
            within_two_orders(predicted, measured),
            "predicted {predicted:.3e} vs measured {measured:.3e}"
        );
    }

    #[test]
    fn rotation_noise_predicted() {
        let h = setup();
        let est = NoiseEstimator::new(&h.ctx);
        let mut rng = StdRng::seed_from_u64(3);
        let vals: Vec<f64> = (0..h.ctx.slots())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let level = 2;
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&vals, h.ctx.scale(), level, false), &mut rng);
        let rot = h.eval.rotate(&ct, 1);
        let out = h.enc.decode(&h.dec.decrypt(&rot));
        let expect: Vec<f64> = (0..vals.len())
            .map(|i| vals[(i + 1) % vals.len()])
            .collect();
        let measured = measured_sigma(&expect, &out);
        let predicted = est.key_switch(est.fresh(), level).sigma;
        assert!(
            within_two_orders(predicted, measured),
            "predicted {predicted:.3e} vs measured {measured:.3e}"
        );
    }

    /// The slot error a key switch adds, alone: a rotation's decryption
    /// against the same rotation of the source's decryption (exact in the
    /// clear), RMS over the slots, at every level of `tiny` and `small`
    /// with the rotation key and the relinearization key at that level and
    /// at the top one. The estimate must bound it.
    #[test]
    fn measured_key_switch_noise_is_below_the_estimate_at_every_level() {
        for params in [CkksParams::tiny(), CkksParams::small()] {
            let ctx = Context::new(params);
            let est = NoiseEstimator::new(&ctx);
            let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(5));
            let pk = Arc::new(kg.gen_public_key());
            let sk = kg.secret_key();
            let (enc, encryptor) = (
                Encoder::new(ctx.clone()),
                Encryptor::with_public_key(ctx.clone(), pk),
            );
            let dec = Decryptor::new(ctx.clone(), sk);
            let mut rng = StdRng::seed_from_u64(6);
            let n = ctx.slots();
            for level in 0..=ctx.max_level() {
                for key_level in [level, ctx.max_level()] {
                    let manifest = crate::keys::KeyManifest::uniform(&[1], key_level);
                    let eval = crate::eval::Evaluator::new(
                        ctx.clone(),
                        Arc::new(kg.gen_eval_keys_at(&manifest)),
                    );
                    let vals: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let ct =
                        encryptor.encrypt(&enc.encode(&vals, ctx.scale(), level, false), &mut rng);
                    let before = enc.decode(&dec.decrypt(&ct));
                    let rotated: Vec<f64> = (0..n).map(|i| before[(i + 1) % n]).collect();
                    let after = enc.decode(&dec.decrypt(&eval.rotate(&ct, 1)));
                    let measured = measured_sigma(&rotated, &after);
                    let predicted = est.key_switch(NoiseEstimate { sigma: 0.0 }, level).sigma;
                    assert!(
                        measured <= predicted,
                        "N = {}, level {level}, key level {key_level}: measured {measured:.3e} > estimate {predicted:.3e}",
                        ctx.degree()
                    );
                }
            }
        }
    }

    #[test]
    fn pmult_noise_predicted() {
        let h = setup();
        let est = NoiseEstimator::new(&h.ctx);
        let mut rng = StdRng::seed_from_u64(4);
        let vals: Vec<f64> = (0..h.ctx.slots())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let w: Vec<f64> = (0..h.ctx.slots())
            .map(|_| rng.gen_range(-2.0..2.0))
            .collect();
        let level = 3;
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&vals, h.ctx.scale(), level, false), &mut rng);
        let pt = h.enc.encode_at_prime_scale(&w, level, false);
        let mut prod = h.eval.mul_plain(&ct, &pt);
        h.eval.rescale_assign(&mut prod);
        let out = h.enc.decode(&h.dec.decrypt(&prod));
        let expect: Vec<f64> = vals.iter().zip(&w).map(|(a, b)| a * b).collect();
        let measured = measured_sigma(&expect, &out);
        let predicted = est.pmult_rescale(est.fresh(), 2.0, level).sigma;
        assert!(
            within_two_orders(predicted, measured),
            "predicted {predicted:.3e} vs measured {measured:.3e}"
        );
    }

    #[test]
    fn noise_grows_monotonically_through_a_pipeline() {
        let ctx = Context::new(CkksParams::tiny());
        let est = NoiseEstimator::new(&ctx);
        let fresh = est.fresh();
        let after_rot = est.key_switch(fresh, 3);
        let after_mult = est.hmult_rescale(after_rot, fresh, 1.0, 1.0, 3);
        assert!(after_rot.sigma >= fresh.sigma);
        assert!(after_mult.sigma >= after_rot.sigma);
        assert!(after_mult.precision_bits() < fresh.precision_bits());
        assert!(fresh.bound() > fresh.sigma);
    }
}
