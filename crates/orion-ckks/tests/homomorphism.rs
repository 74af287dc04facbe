//! Property-based homomorphism tests: for random cleartext vectors, the
//! decrypted results of homomorphic operations match the cleartext
//! semantics within the scheme's noise budget.

use orion_ckks::keys::KeyGenerator;
use orion_ckks::params::{CkksParams, Context};
use orion_ckks::{Decryptor, Encoder, Encryptor, Evaluator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

struct H {
    ctx: Arc<Context>,
    enc: Encoder,
    encryptor: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
}

fn harness() -> H {
    let ctx = Context::new(CkksParams::tiny());
    let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(0xC0FFEE));
    let pk = Arc::new(kg.gen_public_key());
    let keys = Arc::new(kg.gen_eval_keys(&[1, 2, 3, 5, 8]));
    let sk = kg.secret_key();
    H {
        enc: Encoder::new(ctx.clone()),
        encryptor: Encryptor::with_public_key(ctx.clone(), pk),
        dec: Decryptor::new(ctx.clone(), sk),
        eval: Evaluator::new(ctx.clone(), keys),
        ctx,
    }
}

fn vec_from_seed(h: &H, seed: u64, amp: f64) -> Vec<f64> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..h.ctx.slots())
        .map(|_| rng.gen_range(-amp..amp))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// decode(decrypt(HAdd(ct_a, ct_b))) ≈ a ⊕ b (paper §2.5.1).
    #[test]
    fn hadd_homomorphism(seed in 0u64..10_000) {
        let h = harness();
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let a = vec_from_seed(&h, seed, 4.0);
        let b = vec_from_seed(&h, seed + 1, 4.0);
        let ca = h.encryptor.encrypt(&h.enc.encode(&a, h.ctx.scale(), 2, false), &mut rng);
        let cb = h.encryptor.encrypt(&h.enc.encode(&b, h.ctx.scale(), 2, false), &mut rng);
        let out = h.enc.decode(&h.dec.decrypt(&h.eval.add(&ca, &cb)));
        for i in (0..a.len()).step_by(41) {
            prop_assert!((out[i] - (a[i] + b[i])).abs() < 1e-3);
        }
    }

    /// decode(decrypt(rescale(HMult(ct_a, ct_b)))) ≈ a ⊙ b (paper §2.5.2).
    #[test]
    fn hmult_homomorphism(seed in 0u64..10_000) {
        let h = harness();
        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let a = vec_from_seed(&h, seed + 2, 2.0);
        let b = vec_from_seed(&h, seed + 3, 2.0);
        let ca = h.encryptor.encrypt(&h.enc.encode(&a, h.ctx.scale(), 2, false), &mut rng);
        let cb = h.encryptor.encrypt(&h.enc.encode(&b, h.ctx.scale(), 2, false), &mut rng);
        let mut prod = h.eval.mul_relin(&ca, &cb);
        h.eval.rescale_assign(&mut prod);
        let out = h.enc.decode(&h.dec.decrypt(&prod));
        for i in (0..a.len()).step_by(53) {
            prop_assert!((out[i] - a[i] * b[i]).abs() < 1e-2, "{} vs {}", out[i], a[i] * b[i]);
        }
    }

    /// HRot_k then HRot_{-k} is the identity.
    #[test]
    fn rotation_inverse(seed in 0u64..10_000, k in prop::sample::select(vec![1isize, 2, 3, 5, 8])) {
        let h = harness();
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let a = vec_from_seed(&h, seed + 4, 3.0);
        let ct = h.encryptor.encrypt(&h.enc.encode(&a, h.ctx.scale(), 1, false), &mut rng);
        let n = h.ctx.slots() as isize;
        let up = h.eval.rotate(&ct, k);
        let out = h.enc.decode(&h.dec.decrypt(&up));
        for i in (0..a.len()).step_by(67) {
            let src = (i as isize + k).rem_euclid(n) as usize;
            prop_assert!((out[i] - a[src]).abs() < 1e-2);
        }
    }

    /// PMult with the errorless prime-scale encoding returns exactly to Δ
    /// and computes a ⊙ w (paper §6, Figure 7).
    #[test]
    fn errorless_pmult(seed in 0u64..10_000, level in 1usize..4) {
        let h = harness();
        let mut rng = StdRng::seed_from_u64(seed ^ 4);
        let a = vec_from_seed(&h, seed + 5, 2.0);
        let w = vec_from_seed(&h, seed + 6, 1.0);
        let ct = h.encryptor.encrypt(&h.enc.encode(&a, h.ctx.scale(), level, false), &mut rng);
        let pt = h.enc.encode_at_prime_scale(&w, level, false);
        let mut out_ct = h.eval.mul_plain(&ct, &pt);
        h.eval.rescale_assign(&mut out_ct);
        prop_assert_eq!(out_ct.scale, h.ctx.scale());
        prop_assert_eq!(out_ct.level(), level - 1);
        let out = h.enc.decode(&h.dec.decrypt(&out_ct));
        for i in (0..a.len()).step_by(71) {
            prop_assert!((out[i] - a[i] * w[i]).abs() < 1e-2);
        }
    }

    /// Homomorphic linearity: c1·a + c2·b computed encrypted matches the
    /// cleartext affine combination.
    #[test]
    fn affine_combination(seed in 0u64..10_000, c1 in -2.0f64..2.0, c2 in -2.0f64..2.0) {
        let h = harness();
        let mut rng = StdRng::seed_from_u64(seed ^ 5);
        let a = vec_from_seed(&h, seed + 7, 1.0);
        let b = vec_from_seed(&h, seed + 8, 1.0);
        let level = 2;
        let ql = h.ctx.moduli[level] as f64;
        let ca = h.encryptor.encrypt(&h.enc.encode(&a, h.ctx.scale(), level, false), &mut rng);
        let cb = h.encryptor.encrypt(&h.enc.encode(&b, h.ctx.scale(), level, false), &mut rng);
        let mut t1 = h.eval.mul_scalar(&ca, c1, ql);
        h.eval.rescale_assign(&mut t1);
        let mut t2 = h.eval.mul_scalar(&cb, c2, ql);
        h.eval.rescale_assign(&mut t2);
        let out = h.enc.decode(&h.dec.decrypt(&h.eval.add(&t1, &t2)));
        for i in (0..a.len()).step_by(83) {
            let expect = c1 * a[i] + c2 * b[i];
            prop_assert!((out[i] - expect).abs() < 1e-2, "{} vs {expect}", out[i]);
        }
    }
}

/// A replicated constant is one integer at every evaluation point, so the
/// scalar primitives must reproduce the constant-plaintext path bit for
/// bit: same residues in `c0` / `c1`, same tracked scale — at every level,
/// for the constants and scales the poly stages and scale-downs present.
#[test]
fn scalar_ops_are_bit_identical_to_constant_plaintexts() {
    let h = harness();
    let mut rng = StdRng::seed_from_u64(0x5ca1a4);
    let delta = h.ctx.scale();
    let vals = vec_from_seed(&h, 11, 1.0);
    for level in 0..=h.ctx.max_level() {
        // off-Δ like a wire inside a Chebyshev scale schedule
        let ct_scale = delta * 1.000_37;
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&vals, ct_scale, level, false), &mut rng);
        let ql = h.ctx.moduli[level] as f64;
        for v in [0.0, 1.0, -1.0, 0.5 * 0.75, 1e-9, -3.75] {
            for s in [delta, ql, ql * delta / ct.scale] {
                let got = h.eval.mul_scalar(&ct, v, s);
                let want = h
                    .eval
                    .mul_plain(&ct, &h.enc.encode_constant(v, s, level, false));
                assert_eq!(got.c0, want.c0, "mul c0: level {level} v {v} scale {s}");
                assert_eq!(got.c1, want.c1, "mul c1: level {level} v {v} scale {s}");
                assert_eq!(got.scale.to_bits(), want.scale.to_bits());
            }
            let got = h.eval.add_scalar(&ct, v);
            let want = h
                .eval
                .add_plain(&ct, &h.enc.encode_constant(v, ct.scale, level, false));
            assert_eq!(got.c0, want.c0, "add c0: level {level} v {v}");
            assert_eq!(got.c1, want.c1, "add c1: level {level} v {v}");
            assert_eq!(got.scale.to_bits(), want.scale.to_bits());
        }
    }
}
