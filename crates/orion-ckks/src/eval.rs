//! The homomorphic evaluator: `HAdd`, `PAdd`, `PMult`, `HMult`, rescaling,
//! level management, and Galois rotations (paper §2.5).

use crate::encrypt::{Ciphertext, Plaintext};
use crate::keys::{EvalKeys, KeySwitchKey};
use crate::params::Context;
use crate::poly::RnsPoly;
use std::sync::Arc;

/// True when two scales agree to within relative precision, computed as a
/// difference against the larger magnitude rather than a quotient — safe
/// when either operand is zero (a zero scale then *fails* the check with a
/// finite message instead of producing NaN/∞ inside the comparison).
pub(crate) fn scales_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Evaluator bound to a context and evaluation keys.
pub struct Evaluator {
    ctx: Arc<Context>,
    keys: Arc<EvalKeys>,
}

impl Evaluator {
    /// Creates an evaluator.
    pub fn new(ctx: Arc<Context>, keys: Arc<EvalKeys>) -> Self {
        Self { ctx, keys }
    }

    /// The bound context.
    pub fn context(&self) -> &Arc<Context> {
        &self.ctx
    }

    /// The bound evaluation keys.
    pub fn keys(&self) -> &Arc<EvalKeys> {
        &self.keys
    }

    fn assert_scales_match(a: f64, b: f64) {
        assert!(
            scales_close(a, b),
            "operand scales must match (got {a} vs {b}); rescale or adjust first"
        );
    }

    /// `HAdd`: ciphertext + ciphertext (same level, same scale).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        assert_eq!(a.level(), b.level(), "HAdd level mismatch");
        Self::assert_scales_match(a.scale, b.scale);
        let mut c0 = a.c0.clone();
        c0.add_assign(&b.c0, &self.ctx);
        let mut c1 = a.c1.clone();
        c1.add_assign(&b.c1, &self.ctx);
        Ciphertext {
            c0,
            c1,
            scale: a.scale,
        }
    }

    /// Ciphertext − ciphertext.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        assert_eq!(a.level(), b.level(), "HSub level mismatch");
        Self::assert_scales_match(a.scale, b.scale);
        let mut c0 = a.c0.clone();
        c0.sub_assign(&b.c0, &self.ctx);
        let mut c1 = a.c1.clone();
        c1.sub_assign(&b.c1, &self.ctx);
        Ciphertext {
            c0,
            c1,
            scale: a.scale,
        }
    }

    /// Negation.
    pub fn neg(&self, a: &Ciphertext) -> Ciphertext {
        let mut c0 = a.c0.clone();
        c0.neg_assign(&self.ctx);
        let mut c1 = a.c1.clone();
        c1.neg_assign(&self.ctx);
        Ciphertext {
            c0,
            c1,
            scale: a.scale,
        }
    }

    /// `PAdd`: ciphertext + plaintext.
    pub fn add_plain(&self, a: &Ciphertext, p: &Plaintext) -> Ciphertext {
        assert_eq!(a.level(), p.level(), "PAdd level mismatch");
        Self::assert_scales_match(a.scale, p.scale);
        let mut m = p.poly.clone();
        m.to_eval(&self.ctx);
        m.special = None;
        let mut c0 = a.c0.clone();
        c0.add_assign(&m, &self.ctx);
        Ciphertext {
            c0,
            c1: a.c1.clone(),
            scale: a.scale,
        }
    }

    /// `PMult`: ciphertext × plaintext. Output scale is the product of
    /// scales; the caller usually rescales next.
    pub fn mul_plain(&self, a: &Ciphertext, p: &Plaintext) -> Ciphertext {
        assert_eq!(a.level(), p.level(), "PMult level mismatch");
        let mut m = p.poly.clone();
        m.to_eval(&self.ctx);
        m.special = None;
        let c0 = a.c0.mul_pointwise(&m, &self.ctx);
        let c1 = a.c1.mul_pointwise(&m, &self.ctx);
        Ciphertext {
            c0,
            c1,
            scale: a.scale * p.scale,
        }
    }

    /// Multiplies by the scalar `v` carried at `aux_scale` (typically `q_ℓ`
    /// for the errorless path): every residue of both components times the
    /// integer `round(v·aux_scale)`. Bit-identical to a `PMult` by the
    /// encoder's constant plaintext for `(v, aux_scale)` — a replicated
    /// constant is that one integer at every evaluation point.
    pub fn mul_scalar(&self, a: &Ciphertext, v: f64, aux_scale: f64) -> Ciphertext {
        let k = (v * aux_scale).round() as i128;
        let mut c0 = a.c0.clone();
        c0.mul_scalar_assign(k, &self.ctx);
        let mut c1 = a.c1.clone();
        c1.mul_scalar_assign(k, &self.ctx);
        Ciphertext {
            c0,
            c1,
            scale: a.scale * aux_scale,
        }
    }

    /// Adds the scalar `v` to every slot: `round(v·a.scale)` joins every
    /// residue of `c0`. Bit-identical to a `PAdd` of the constant plaintext
    /// encoded at the ciphertext's own scale and level.
    pub fn add_scalar(&self, a: &Ciphertext, v: f64) -> Ciphertext {
        let mut c0 = a.c0.clone();
        c0.add_scalar_assign((v * a.scale).round() as i128, &self.ctx);
        Ciphertext {
            c0,
            c1: a.c1.clone(),
            scale: a.scale,
        }
    }

    /// The core key-switch: given `c` (evaluation form, no special limb) and
    /// a key for `s' → s`, returns `(B, A)` over the extended basis such
    /// that after ModDown `B + A·s ≈ c·s'`.
    ///
    /// This is the expensive primitive behind `HMult` and `HRot`
    /// (paper §2.5.2: "many NTTs and RNS basis conversions").
    pub fn key_switch_raw(&self, c: &RnsPoly, key: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
        orion_telemetry::time_class(orion_telemetry::OpClass::KeySwitch, || {
            let ctx = &self.ctx;
            let digits = crate::hoist::decompose_digits(ctx, c);
            let (acc_b, acc_a) = key.inner_product(ctx, &digits);
            for digit in digits {
                digit.recycle();
            }
            (acc_b, acc_a)
        })
    }

    /// Full key-switch including the final ModDown.
    pub fn key_switch(&self, c: &RnsPoly, key: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
        let (mut b, mut a) = self.key_switch_raw(c, key);
        b.mod_down_special_assign(&self.ctx);
        a.mod_down_special_assign(&self.ctx);
        (b, a)
    }

    /// `HMult` with relinearization. Output scale is the product; the
    /// caller usually rescales next.
    ///
    /// Panics with the typed [`crate::keys::RelinKeyLevel`] message if the
    /// relinearization key was generated below the operands' level;
    /// statically unreachable on verified plans.
    pub fn mul_relin(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        assert_eq!(a.level(), b.level(), "HMult level mismatch");
        let ctx = &self.ctx;
        let relin = self
            .keys
            .try_relin(a.level())
            .unwrap_or_else(|e| panic!("{e}"));
        let d0 = a.c0.mul_pointwise(&b.c0, ctx);
        let mut d1 = a.c0.mul_pointwise(&b.c1, ctx);
        d1.add_assign(&a.c1.mul_pointwise(&b.c0, ctx), ctx);
        let d2 = a.c1.mul_pointwise(&b.c1, ctx);
        let (ks_b, ks_a) = self.key_switch(&d2, relin);
        let mut c0 = d0;
        c0.add_assign(&ks_b, ctx);
        let mut c1 = d1;
        c1.add_assign(&ks_a, ctx);
        Ciphertext {
            c0,
            c1,
            scale: a.scale * b.scale,
        }
    }

    /// Squares a ciphertext (one key-switch, like `HMult`).
    pub fn square(&self, a: &Ciphertext) -> Ciphertext {
        self.mul_relin(a, a)
    }

    /// Rescales in place: divides the scale by the top chain prime and
    /// drops one level (paper §2.5.2). Snaps the tracked scale to Δ when
    /// the result is within floating-point noise of it, preserving the
    /// errorless invariant exactly.
    pub fn rescale_assign(&self, ct: &mut Ciphertext) {
        orion_telemetry::time_class(orion_telemetry::OpClass::Rescale, || {
            let l = ct.level();
            assert!(l >= 1, "cannot rescale at level 0 — bootstrap required");
            let ql = self.ctx.moduli[l] as f64;
            ct.c0.rescale_assign(&self.ctx);
            ct.c1.rescale_assign(&self.ctx);
            let new_scale = ct.scale / ql;
            let delta = self.ctx.scale();
            ct.scale = if (new_scale / delta - 1.0).abs() < 1e-9 {
                delta
            } else {
                new_scale
            };
        })
    }

    /// Drops a ciphertext to a lower level without scaling (free level
    /// adjustment used by the level-management policy).
    pub fn drop_to_level(&self, ct: &mut Ciphertext, level: usize) {
        ct.c0.drop_to_level(level);
        ct.c1.drop_to_level(level);
    }

    /// `HRot`: rotates slots "up" by `k` (slot `i` of the output holds slot
    /// `i+k` of the input), via the Galois automorphism and one key-switch.
    ///
    /// Panics if the rotation key was not generated, or was generated
    /// below the ciphertext's level; statically unreachable on verified
    /// plans (see [`Self::try_rotate`]).
    pub fn rotate(&self, ct: &Ciphertext, k: isize) -> Ciphertext {
        self.try_rotate(ct, k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::rotate`] with a typed error on a missing or too-low rotation
    /// key, for callers that handle key coverage themselves instead of
    /// relying on pre-flight verification.
    pub fn try_rotate(
        &self,
        ct: &Ciphertext,
        k: isize,
    ) -> Result<Ciphertext, crate::keys::MissingRotationKey> {
        if k == 0 {
            return Ok(ct.clone());
        }
        let g = self.ctx.galois_element(k);
        let key = self.keys.try_rotation(g, ct.level())?;
        let perm = self.ctx.galois_permutation(g);
        let sc0 = ct.c0.automorphism_eval(&perm);
        let sc1 = ct.c1.automorphism_eval(&perm);
        let (ks_b, ks_a) = self.key_switch(&sc1, key);
        let mut c0 = sc0;
        c0.add_assign(&ks_b, &self.ctx);
        Ok(Ciphertext {
            c0,
            c1: ks_a,
            scale: ct.scale,
        })
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
    use rand::SeedableRng;

    struct Harness {
        ctx: Arc<Context>,
        enc: Encoder,
        encryptor: Encryptor,
        dec: Decryptor,
        eval: Evaluator,
        rng: StdRng,
    }

    fn setup(rotations: &[isize]) -> Harness {
        let ctx = Context::new(CkksParams::tiny());
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(21));
        let pk = Arc::new(kg.gen_public_key());
        let keys = Arc::new(kg.gen_eval_keys(rotations));
        let sk = kg.secret_key();
        Harness {
            ctx: ctx.clone(),
            enc: Encoder::new(ctx.clone()),
            encryptor: Encryptor::with_public_key(ctx.clone(), pk),
            dec: Decryptor::new(ctx.clone(), sk),
            eval: Evaluator::new(ctx, keys),
            rng: StdRng::seed_from_u64(22),
        }
    }

    fn ramp(h: &Harness) -> Vec<f64> {
        (0..h.ctx.slots())
            .map(|i| ((i % 16) as f64) * 0.25 - 2.0)
            .collect()
    }

    #[test]
    fn hadd_adds_slotwise() {
        let mut h = setup(&[]);
        let a = ramp(&h);
        let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let ca = h
            .encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), 2, false), &mut h.rng);
        let cb = h
            .encryptor
            .encrypt(&h.enc.encode(&b, h.ctx.scale(), 2, false), &mut h.rng);
        let out = h.enc.decode(&h.dec.decrypt(&h.eval.add(&ca, &cb)));
        for i in 0..h.ctx.slots() {
            assert!((out[i] - (a[i] + b[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn pmult_rescale_is_errorless_in_scale() {
        let mut h = setup(&[]);
        let a = ramp(&h);
        let w: Vec<f64> = (0..h.ctx.slots()).map(|i| ((i % 5) as f64) * 0.1).collect();
        let level = 3;
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), level, false), &mut h.rng);
        // Errorless path: weights at scale q_level.
        let pw = h.enc.encode_at_prime_scale(&w, level, false);
        let mut prod = h.eval.mul_plain(&ct, &pw);
        h.eval.rescale_assign(&mut prod);
        assert_eq!(prod.scale, h.ctx.scale(), "scale must return exactly to Δ");
        assert_eq!(prod.level(), level - 1);
        let out = h.enc.decode(&h.dec.decrypt(&prod));
        for i in 0..h.ctx.slots() {
            assert!(
                (out[i] - a[i] * w[i]).abs() < 1e-2,
                "slot {i}: {} vs {}",
                out[i],
                a[i] * w[i]
            );
        }
    }

    #[test]
    fn hmult_multiplies_slotwise() {
        let mut h = setup(&[]);
        let a = ramp(&h);
        let b: Vec<f64> = a.iter().map(|x| 0.5 - x * 0.25).collect();
        let level = 2;
        let ca = h
            .encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), level, false), &mut h.rng);
        let cb = h
            .encryptor
            .encrypt(&h.enc.encode(&b, h.ctx.scale(), level, false), &mut h.rng);
        let mut prod = h.eval.mul_relin(&ca, &cb);
        h.eval.rescale_assign(&mut prod);
        let out = h.enc.decode(&h.dec.decrypt(&prod));
        for i in (0..h.ctx.slots()).step_by(13) {
            assert!(
                (out[i] - a[i] * b[i]).abs() < 1e-2,
                "slot {i}: {} vs {}",
                out[i],
                a[i] * b[i]
            );
        }
    }

    #[test]
    fn rotation_shifts_slots_up() {
        let mut h = setup(&[1, 5, -3]);
        let n = h.ctx.slots();
        let a: Vec<f64> = (0..n).map(|i| (i % 32) as f64 * 0.1).collect();
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), 1, false), &mut h.rng);
        for k in [1isize, 5, -3] {
            let out = h.enc.decode(&h.dec.decrypt(&h.eval.rotate(&ct, k)));
            for i in (0..n).step_by(17) {
                let src = (i as isize + k).rem_euclid(n as isize) as usize;
                assert!(
                    (out[i] - a[src]).abs() < 1e-2,
                    "k={k} slot {i}: {} vs {}",
                    out[i],
                    a[src]
                );
            }
        }
    }

    #[test]
    fn rotation_preserves_scale_and_level() {
        let mut h = setup(&[2]);
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&[1.0], h.ctx.scale(), 2, false), &mut h.rng);
        let rot = h.eval.rotate(&ct, 2);
        assert_eq!(rot.level(), ct.level());
        assert_eq!(rot.scale, ct.scale);
    }

    #[test]
    fn deep_multiplication_chain() {
        // Square repeatedly down to level 0: (x^2)^2 = x^4.
        let mut h = setup(&[]);
        let n = h.ctx.slots();
        let a: Vec<f64> = (0..n).map(|i| 0.5 + (i % 4) as f64 * 0.1).collect();
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), 2, false), &mut h.rng);
        let mut sq = h.eval.square(&ct);
        h.eval.rescale_assign(&mut sq);
        let mut q4 = h.eval.square(&sq);
        h.eval.rescale_assign(&mut q4);
        assert_eq!(q4.level(), 0);
        let out = h.enc.decode(&h.dec.decrypt(&q4));
        for i in (0..n).step_by(29) {
            assert!(
                (out[i] - a[i].powi(4)).abs() < 5e-2,
                "slot {i}: {} vs {}",
                out[i],
                a[i].powi(4)
            );
        }
    }

    #[test]
    fn mul_scalar_scales_values() {
        let mut h = setup(&[]);
        let a = ramp(&h);
        let level = 2;
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), level, false), &mut h.rng);
        let ql = h.ctx.moduli[level] as f64;
        let mut out_ct = h.eval.mul_scalar(&ct, 0.125, ql);
        h.eval.rescale_assign(&mut out_ct);
        assert_eq!(out_ct.scale, h.ctx.scale());
        let out = h.enc.decode(&h.dec.decrypt(&out_ct));
        for i in (0..h.ctx.slots()).step_by(11) {
            assert!((out[i] - a[i] * 0.125).abs() < 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "scales must match")]
    fn mismatched_scales_rejected() {
        let mut h = setup(&[]);
        let ca = h
            .encryptor
            .encrypt(&h.enc.encode(&[1.0], h.ctx.scale(), 1, false), &mut h.rng);
        let cb = h.encryptor.encrypt(
            &h.enc.encode(&[1.0], h.ctx.scale() * 2.0, 1, false),
            &mut h.rng,
        );
        let _ = h.eval.add(&ca, &cb);
    }

    #[test]
    fn level_drop_preserves_value() {
        let mut h = setup(&[]);
        let a = ramp(&h);
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), 3, false), &mut h.rng);
        let mut dropped = ct.clone();
        h.eval.drop_to_level(&mut dropped, 1);
        assert_eq!(dropped.level(), 1);
        // the by-reference drop is clone + drop, limb for limb
        let by_ref = ct.dropped_to_level(1);
        assert_eq!((&by_ref.c0, &by_ref.c1), (&dropped.c0, &dropped.c1));
        assert_eq!(by_ref.scale.to_bits(), dropped.scale.to_bits());
        let out = h.enc.decode(&h.dec.decrypt(&dropped));
        for i in (0..h.ctx.slots()).step_by(19) {
            assert!((out[i] - a[i]).abs() < 1e-3);
        }
    }
}
