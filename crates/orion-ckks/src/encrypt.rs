//! Plaintexts, ciphertexts, encryption, and decryption (paper §2.3).

use crate::keys::{PublicKey, SecretKey};
use crate::params::Context;
use crate::poly::{Form, RnsPoly};
use rand::Rng;
use std::sync::Arc;

/// An encoded (but unencrypted) polynomial `[m]` with its scaling factor.
#[derive(Clone, Debug)]
pub struct Plaintext {
    /// The encoding polynomial (usually evaluation form).
    pub poly: RnsPoly,
    /// Scaling factor Δ used at encoding time.
    pub scale: f64,
}

impl Plaintext {
    /// Level of the underlying polynomial.
    pub fn level(&self) -> usize {
        self.poly.level()
    }
}

/// A CKKS ciphertext `[[m]] = (c0, c1)` with `c0 + c1·s ≈ [m]`.
#[derive(Clone, Debug)]
pub struct Ciphertext {
    /// First component, evaluation form.
    pub c0: RnsPoly,
    /// Second component, evaluation form.
    pub c1: RnsPoly,
    /// Current scaling factor.
    pub scale: f64,
}

impl Ciphertext {
    /// Current multiplicative level ℓ.
    pub fn level(&self) -> usize {
        self.c0.level()
    }

    /// A copy of `self` at `level` — `clone` then `Evaluator::drop_to_level`
    /// (a free level drop, no scaling), minus the copy of the dropped limbs.
    pub fn dropped_to_level(&self, level: usize) -> Self {
        Self {
            c0: self.c0.dropped_to_level(level),
            c1: self.c1.dropped_to_level(level),
            scale: self.scale,
        }
    }

    /// Approximate size in bytes (paper §2.1 notes ciphertexts are KBs–MBs).
    pub fn size_bytes(&self) -> usize {
        2 * (self.level() + 1) * self.c0.limbs[0].len() * std::mem::size_of::<u64>()
    }
}

/// Encrypts plaintexts under either the public or the secret key.
pub enum Encryptor {
    /// Public-key encryption (the usual client setup).
    Public {
        ctx: Arc<Context>,
        pk: Arc<PublicKey>,
    },
    /// Secret-key encryption (used by the bootstrap oracle).
    Secret {
        ctx: Arc<Context>,
        sk: Arc<SecretKey>,
    },
}

impl Encryptor {
    /// Public-key encryptor.
    pub fn with_public_key(ctx: Arc<Context>, pk: Arc<PublicKey>) -> Self {
        Self::Public { ctx, pk }
    }

    /// Secret-key encryptor.
    pub fn with_secret_key(ctx: Arc<Context>, sk: Arc<SecretKey>) -> Self {
        Self::Secret { ctx, sk }
    }

    fn ctx(&self) -> &Arc<Context> {
        match self {
            Self::Public { ctx, .. } | Self::Secret { ctx, .. } => ctx,
        }
    }

    /// Draws the randomness of one encryption at `level`. This is the only
    /// part of an encryption that reads the RNG, so a caller sharing one
    /// RNG behind a lock holds the lock across this call only.
    pub fn sample<R: Rng>(&self, level: usize, rng: &mut R) -> EncryptionNoise {
        let ctx = self.ctx();
        match self {
            Self::Public { .. } => EncryptionNoise::Public {
                v: RnsPoly::sample_ternary(ctx, level, 0, rng),
                e0: RnsPoly::sample_gaussian(ctx, level, 0, rng),
                e1: RnsPoly::sample_gaussian(ctx, level, 0, rng),
            },
            Self::Secret { .. } => EncryptionNoise::Secret {
                a: RnsPoly::sample_uniform(ctx, level, Form::Eval, 0, rng),
                e: RnsPoly::sample_gaussian(ctx, level, 0, rng),
            },
        }
    }

    /// Transforms `noise` and assembles the ciphertext of `pt` from it.
    /// Deterministic: every NTT of an encryption happens here, none of
    /// them under a caller's RNG lock.
    pub fn encrypt_with(&self, pt: &Plaintext, noise: EncryptionNoise) -> Ciphertext {
        let ctx = self.ctx();
        let level = pt.level();
        let mut m = pt.poly.clone();
        m.to_eval(ctx);
        m.special.clear();
        match (self, noise) {
            (
                Self::Public { pk, .. },
                EncryptionNoise::Public {
                    mut v,
                    mut e0,
                    mut e1,
                },
            ) => {
                assert_eq!(v.level(), level, "noise sampled at another level");
                v.to_eval(ctx);
                e0.to_eval(ctx);
                e1.to_eval(ctx);
                let pk_b = pk.b.chain_to_level(level);
                let pk_a = pk.a.chain_to_level(level);
                let mut c0 = v.mul_pointwise(&pk_b, ctx);
                c0.add_assign(&e0, ctx);
                c0.add_assign(&m, ctx);
                let mut c1 = v.mul_pointwise(&pk_a, ctx);
                c1.add_assign(&e1, ctx);
                Ciphertext {
                    c0,
                    c1,
                    scale: pt.scale,
                }
            }
            (Self::Secret { sk, .. }, EncryptionNoise::Secret { a, mut e }) => {
                assert_eq!(a.level(), level, "noise sampled at another level");
                e.to_eval(ctx);
                let s = sk.s.chain_to_level(level);
                // c0 = -a·s + e + m, c1 = a
                let mut c0 = a.mul_pointwise(&s, ctx);
                c0.neg_assign(ctx);
                c0.add_assign(&e, ctx);
                c0.add_assign(&m, ctx);
                Ciphertext {
                    c0,
                    c1: a,
                    scale: pt.scale,
                }
            }
            _ => panic!("noise sampled by the other kind of encryptor"),
        }
    }

    /// Encrypts `pt` at the plaintext's level.
    pub fn encrypt<R: Rng>(&self, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        self.encrypt_with(pt, self.sample(pt.level(), rng))
    }
}

/// The randomness of one encryption, as [`Encryptor::sample`] draws it
/// (error and mask polynomials still in coefficient form).
pub enum EncryptionNoise {
    /// Public-key encryption: ternary mask `v` and the two error terms.
    Public {
        v: RnsPoly,
        e0: RnsPoly,
        e1: RnsPoly,
    },
    /// Secret-key encryption: uniform `a` and the error term.
    Secret { a: RnsPoly, e: RnsPoly },
}

/// Decrypts ciphertexts with the secret key.
pub struct Decryptor {
    ctx: Arc<Context>,
    sk: Arc<SecretKey>,
}

impl Decryptor {
    /// Creates a decryptor.
    pub fn new(ctx: Arc<Context>, sk: Arc<SecretKey>) -> Self {
        Self { ctx, sk }
    }

    /// Decrypts to a plaintext (`m ≈ c0 + c1·s`), in coefficient form.
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        let s = self.sk.s.chain_to_level(ct.level());
        let mut m = ct.c1.mul_pointwise(&s, &self.ctx);
        m.add_assign(&ct.c0, &self.ctx);
        m.to_coeff(&self.ctx);
        Plaintext {
            poly: m,
            scale: ct.scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Arc<Context>, Encoder, Encryptor, Encryptor, Decryptor) {
        let ctx = Context::new(CkksParams::tiny());
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(11));
        let pk = Arc::new(kg.gen_public_key());
        let sk = kg.secret_key();
        let enc = Encoder::new(ctx.clone());
        let e_pub = Encryptor::with_public_key(ctx.clone(), pk);
        let e_sec = Encryptor::with_secret_key(ctx.clone(), sk.clone());
        let dec = Decryptor::new(ctx.clone(), sk);
        (ctx, enc, e_pub, e_sec, dec)
    }

    #[test]
    fn public_encrypt_decrypt_roundtrip() {
        let (ctx, enc, e_pub, _, dec) = setup();
        let mut rng = StdRng::seed_from_u64(12);
        let vals: Vec<f64> = (0..ctx.slots()).map(|i| ((i % 8) as f64) - 3.5).collect();
        let pt = enc.encode(&vals, ctx.scale(), 2, false);
        let ct = e_pub.encrypt(&pt, &mut rng);
        assert_eq!(ct.level(), 2);
        let out = enc.decode(&dec.decrypt(&ct));
        for (a, b) in vals.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn secret_encrypt_decrypt_roundtrip() {
        let (ctx, enc, _, e_sec, dec) = setup();
        let mut rng = StdRng::seed_from_u64(13);
        let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i as f64 * 0.3).cos()).collect();
        let pt = enc.encode(&vals, ctx.scale(), 1, false);
        let ct = e_sec.encrypt(&pt, &mut rng);
        let out = enc.decode(&dec.decrypt(&ct));
        for (a, b) in vals.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn fresh_ciphertexts_at_different_levels() {
        let (ctx, enc, e_pub, _, dec) = setup();
        let mut rng = StdRng::seed_from_u64(14);
        for level in 0..=ctx.max_level() {
            let pt = enc.encode(&[1.5, -2.5], ctx.scale(), level, false);
            let ct = e_pub.encrypt(&pt, &mut rng);
            assert_eq!(ct.level(), level);
            let out = enc.decode(&dec.decrypt(&ct));
            assert!((out[0] - 1.5).abs() < 1e-4);
            assert!((out[1] + 2.5).abs() < 1e-4);
        }
    }

    #[test]
    fn ciphertext_size_tracks_level() {
        let (ctx, enc, e_pub, _, _) = setup();
        let mut rng = StdRng::seed_from_u64(15);
        let hi = e_pub.encrypt(&enc.encode(&[1.0], ctx.scale(), 3, false), &mut rng);
        let lo = e_pub.encrypt(&enc.encode(&[1.0], ctx.scale(), 1, false), &mut rng);
        assert!(hi.size_bytes() > lo.size_bytes());
    }

    /// FNV-1a over every limb word of `(c0, c1)`.
    fn fingerprint(ct: &Ciphertext) -> u64 {
        let words = ct.c0.limbs.iter().chain(&ct.c1.limbs).flatten();
        words.fold(0xcbf2_9ce4_8422_2325, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn ciphertexts_per_seed_are_pinned() {
        // Recorded before `encrypt` was split into `sample` +
        // `encrypt_with`: the split must draw the same values in the same
        // order. Two encryptions per encryptor from one RNG, so the second
        // of each pair also pins how much of the stream the first consumed.
        let (ctx, enc, e_pub, e_sec, _) = setup();
        let pt = enc.encode(&[0.25, -1.5, 3.0], ctx.scale(), 2, false);
        let mut rng = StdRng::seed_from_u64(16);
        let got = [&e_pub, &e_pub, &e_sec, &e_sec].map(|e| fingerprint(&e.encrypt(&pt, &mut rng)));
        assert_eq!(
            got,
            [
                16795971889581436139,
                2779591450510069833,
                5684272639126794510,
                11276307734516484355
            ]
        );
    }
}
