//! The bootstrap substitute (see README, "Substitutions").
//!
//! The paper's backend (Lattigo) implements full CKKS bootstrapping —
//! ModRaise, CoeffToSlot, EvalMod, SlotToCoeff — consuming `L_boot ≈ 13–15`
//! levels and dominating runtime (paper Figure 1c). Orion the *compiler*
//! only interacts with bootstrapping through three facts:
//!
//! 1. a ciphertext at any level is refreshed to `L_eff = L − L_boot`,
//! 2. the operation costs `latency(L_eff)` (superlinear — Figure 1c),
//! 3. the refreshed ciphertext loses a bounded amount of precision.
//!
//! [`BootstrapOracle`] preserves all three: it holds the secret key (as a
//! client-side oracle), decrypts, injects bootstrap-magnitude noise,
//! re-encrypts at `L_eff`, and tallies the op in its counter. Latency is
//! supplied by the cost model (`orion_nn::sim`), which the placement
//! algorithm uses exactly as the paper does (§5.2 "we estimate the
//! latencies … with an analytical model").

use crate::encoder::Encoder;
use crate::encrypt::{Ciphertext, Decryptor, Encryptor};
use crate::keys::SecretKey;
use crate::params::Context;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Level-reset oracle standing in for true CKKS bootstrapping.
///
/// `refresh` is a **pure function** of the input ciphertext: the noise and
/// re-encryption randomness are drawn from an RNG seeded by hashing the
/// ciphertext's limbs with the oracle's base seed. Refreshing the same
/// ciphertext always yields the same result, no matter which thread does
/// it or in what order — the property the wire-level parallel scheduler
/// needs (bootstraps of independent ciphertexts run concurrently, and
/// scheduler order must not change results), and what makes
/// bootstrap-deep models serve bit-reproducibly.
pub struct BootstrapOracle {
    ctx: Arc<Context>,
    encoder: Encoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    seed: u64,
    /// Relative precision of the simulated bootstrap (bits); real
    /// high-precision CKKS bootstraps land around 20–30 bits.
    pub precision_bits: f64,
    count: std::sync::atomic::AtomicU64,
}

impl BootstrapOracle {
    /// Creates the oracle from the secret key.
    pub fn new(ctx: Arc<Context>, sk: Arc<SecretKey>) -> Self {
        Self {
            encoder: Encoder::new(ctx.clone()),
            encryptor: Encryptor::with_secret_key(ctx.clone(), sk.clone()),
            decryptor: Decryptor::new(ctx.clone(), sk),
            ctx,
            seed: 0x0b007,
            precision_bits: 24.0,
            count: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// FNV-1a over the ciphertext's content — the per-refresh RNG seed, so
    /// identical inputs refresh identically (determinism, not security:
    /// the oracle already holds the secret key).
    fn ct_seed(&self, ct: &Ciphertext) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.seed);
        mix(ct.scale.to_bits());
        for poly in [&ct.c0, &ct.c1] {
            for limb in &poly.limbs {
                for &v in limb {
                    mix(v);
                }
            }
        }
        h
    }

    /// Refreshes `ct` to level `L_eff` at scale Δ, adding
    /// bootstrap-magnitude noise. The input may be at any level (normally
    /// 0 or close to it).
    ///
    /// Like real bootstrapping, the slot values are assumed to lie within
    /// the EvalMod range (|x| ≲ 1 after Orion's range estimation); values
    /// far outside would decode incorrectly in a real bootstrap, so the
    /// oracle does **not** clamp them — range bugs stay observable.
    pub fn refresh(&self, ct: &Ciphertext) -> Ciphertext {
        orion_telemetry::time_class(orion_telemetry::OpClass::Bootstrap, || {
            self.refresh_impl(ct)
        })
    }

    fn refresh_impl(&self, ct: &Ciphertext) -> Ciphertext {
        self.count
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let vals = self.encoder.decode_complex(&self.decryptor.decrypt(ct));
        let sigma = (-self.precision_bits).exp2();
        let mut rng = StdRng::seed_from_u64(self.ct_seed(ct));
        let noisy: Vec<orion_math::fft::Complex> = vals
            .iter()
            .map(|v| {
                let n1: f64 = rng.gen::<f64>() - 0.5;
                let n2: f64 = rng.gen::<f64>() - 0.5;
                orion_math::fft::Complex::new(v.re + n1 * sigma, v.im + n2 * sigma)
            })
            .collect();
        let level = self.ctx.params.effective_level();
        let pt = self
            .encoder
            .encode_complex(&noisy, self.ctx.scale(), level, false);
        self.encryptor.encrypt(&pt, &mut rng)
    }

    /// Number of refreshes performed so far.
    pub fn count(&self) -> u64 {
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;

    #[test]
    fn refresh_restores_effective_level() {
        let ctx = Context::new(CkksParams::tiny());
        let kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(41));
        let sk = kg.secret_key();
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::with_secret_key(ctx.clone(), sk.clone());
        let oracle = BootstrapOracle::new(ctx.clone(), sk.clone());
        let dec = Decryptor::new(ctx.clone(), sk);
        let mut rng = StdRng::seed_from_u64(42);

        let vals: Vec<f64> = (0..ctx.slots())
            .map(|i| ((i % 8) as f64) / 8.0 - 0.5)
            .collect();
        let ct = encryptor.encrypt(&enc.encode(&vals, ctx.scale(), 0, false), &mut rng);
        assert_eq!(ct.level(), 0);
        let fresh = oracle.refresh(&ct);
        assert_eq!(fresh.level(), ctx.params.effective_level());
        assert_eq!(fresh.scale, ctx.scale());
        assert_eq!(oracle.count(), 1);
        let out = enc.decode(&dec.decrypt(&fresh));
        for (a, b) in vals.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn refresh_is_a_pure_function_of_the_ciphertext() {
        let ctx = Context::new(CkksParams::tiny());
        let kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(45));
        let sk = kg.secret_key();
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::with_secret_key(ctx.clone(), sk.clone());
        let oracle = BootstrapOracle::new(ctx.clone(), sk);
        let mut rng = StdRng::seed_from_u64(46);
        let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i % 5) as f64 * 0.1).collect();
        let ct = encryptor.encrypt(&enc.encode(&vals, ctx.scale(), 0, false), &mut rng);
        // same input → bit-identical refresh, regardless of call order
        let a = oracle.refresh(&ct);
        let other = encryptor.encrypt(&enc.encode(&vals, ctx.scale(), 1, false), &mut rng);
        let interleaved = oracle.refresh(&other);
        let b = oracle.refresh(&ct);
        assert_eq!(a.c0, b.c0, "refresh must be deterministic per ciphertext");
        assert_eq!(a.c1, b.c1);
        assert_eq!(a.scale, b.scale);
        // distinct inputs draw distinct noise streams
        assert_ne!(a.c0, interleaved.c0);
    }

    #[test]
    fn refresh_noise_is_bounded_by_precision() {
        let ctx = Context::new(CkksParams::tiny());
        let kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(43));
        let sk = kg.secret_key();
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::with_secret_key(ctx.clone(), sk.clone());
        let oracle = BootstrapOracle::new(ctx.clone(), sk.clone());
        let dec = Decryptor::new(ctx.clone(), sk);
        let mut rng = StdRng::seed_from_u64(44);
        let vals = vec![0.25f64; ctx.slots()];
        let ct = encryptor.encrypt(&enc.encode(&vals, ctx.scale(), 1, false), &mut rng);
        let out = enc.decode(&dec.decrypt(&oracle.refresh(&ct)));
        let max_err = out.iter().map(|x| (x - 0.25).abs()).fold(0.0, f64::max);
        // Injected noise (2^-24) plus the tiny-parameter encryption noise
        // floor; the combined error must stay far below working precision.
        assert!(max_err < 1e-3, "refresh error too large: {max_err}");

        // A deliberately low-precision oracle must produce visibly more
        // error, and about the requested magnitude.
        let mut coarse = BootstrapOracle::new(ctx.clone(), kg.secret_key());
        coarse.precision_bits = 8.0;
        let out = enc.decode(&dec.decrypt(&coarse.refresh(&ct)));
        let coarse_err = out.iter().map(|x| (x - 0.25).abs()).fold(0.0, f64::max);
        assert!(coarse_err > max_err, "coarser oracle should be noisier");
        assert!(
            coarse_err < (-6.0f64).exp2(),
            "but still bounded by ~2^-8 half-width"
        );
    }
}
