//! Hoisted rotations and the lazy-ModDown accumulator (double-hoisting).
//!
//! Hoisting (paper §3.3) reuses the expensive digit decomposition of a
//! ciphertext across many rotations of that same ciphertext — exactly the
//! baby-step pattern of BSGS matrix–vector products. Double-hoisting
//! additionally keeps the inner-product accumulation in the extended basis
//! `Q·p`, performing a single ModDown per giant-step group instead of one
//! per rotation (Bossuat et al., Algorithm 6).

use crate::encrypt::{Ciphertext, Plaintext};
use crate::eval::Evaluator;
use crate::keys::MissingRotationKey;
use crate::params::Context;
use crate::poly::{Form, RnsPoly};
use orion_math::simd;
use orion_telemetry::{time_class, OpClass};

/// Decomposes `c` (evaluation form, no special limb) into per-limb digits
/// extended to the full basis `{q_0…q_ℓ, p}`, NTT'd and ready for
/// key-switch inner products.
///
/// Because each digit is a *single-limb* value (`< q_i`), basis extension
/// is exact integer reduction — no approximate CRT is needed (README,
/// "Kernel layer").
pub fn decompose_digits(ctx: &Context, c: &RnsPoly) -> Vec<RnsPoly> {
    assert_eq!(c.form, Form::Eval);
    assert!(!c.has_special());
    let level = c.level();
    let p = ctx.special;
    // Each digit's basis extension performs one inverse and `level + 1`
    // forward NTTs: this is the key-switch hot loop.
    let n = ctx.degree();
    let extended_digit = |i: usize| {
        // Bring limb i to coefficient form (arena scratch, lazy NTT).
        let mut digit = orion_math::arena::scratch_u64_raw(n);
        digit.copy_from_slice(&c.limbs[i]);
        ctx.ntt[i].inverse_lazy(&mut digit);
        // Extend to every chain modulus and the special prime.
        let k = orion_math::simd::kernels();
        let extend = |q: u64, table: &orion_math::NttTable| -> Vec<u64> {
            let mut l = orion_math::arena::take_u64_raw(n);
            (k.mod_reduce)(&mut l, &digit, q);
            table.forward_lazy(&mut l);
            l
        };
        // Digit i's own limb is c.limbs[i] itself: inverse NTT, reduction
        // by q_i and forward NTT are the identity on a canonical limb.
        let limbs: Vec<Vec<u64>> = (0..=level)
            .map(|j| {
                if j == i {
                    let mut l = orion_math::arena::take_u64_raw(n);
                    l.copy_from_slice(&c.limbs[i]);
                    l
                } else {
                    extend(ctx.moduli[j], &ctx.ntt[j])
                }
            })
            .collect();
        let sp = extend(p, &ctx.ntt_special);
        RnsPoly {
            limbs,
            special: Some(sp),
            form: Form::Eval,
        }
    };
    (0..=level).map(extended_digit).collect()
}

/// A ciphertext with its key-switch digit decomposition precomputed, ready
/// for cheap repeated rotations.
pub struct HoistedDigits {
    /// Extended, NTT'd digits of `c1`.
    digits: Vec<RnsPoly>,
    /// Original `c0` (evaluation form).
    c0: RnsPoly,
    /// `P·c0` (base basis): what every non-zero rotation seeds the `b` part
    /// of its key-switch with, so `σ(c0)` rides through the extended basis
    /// and comes back out of the ModDown exactly (see [`Self::key_switch_ext`]).
    c0_p: RnsPoly,
    /// Original `c1` (needed for the rotation-by-zero fast path).
    c1: RnsPoly,
    /// Ciphertext scale.
    scale: f64,
}

impl HoistedDigits {
    /// Precomputes the decomposition of `ct` (the "hoisted" part).
    pub fn new(ctx: &Context, ct: &Ciphertext) -> Self {
        let mut c0_p = ct.c0.clone();
        c0_p.mul_scalar_assign(ctx.special as i128, ctx);
        Self {
            digits: decompose_digits(ctx, &ct.c1),
            c0: ct.c0.clone(),
            c0_p,
            c1: ct.c1.clone(),
            scale: ct.scale,
        }
    }

    /// Ciphertext level.
    pub fn level(&self) -> usize {
        self.c0.level()
    }

    /// Ciphertext scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The rotation by `k ≠ 0` in the extended basis `Q·P`, ModDown
    /// deferred: `(ks_b + P·σ(c0), ks_a)` where `(ks_b, ks_a)` is the
    /// key-switch inner product of the permuted digits.
    ///
    /// `P·σ(c0)` is 0 in the special limb, so ModDown subtracts the same
    /// lift as without it and then multiplies by `P⁻¹ mod q_j`:
    /// `ModDown(x + P·y) = ModDown(x) + y` limb for limb. Consumers
    /// therefore never handle `σ(c0)` in the base basis.
    fn key_switch_ext(
        &self,
        eval: &Evaluator,
        k: isize,
    ) -> Result<(RnsPoly, RnsPoly), MissingRotationKey> {
        let ctx = eval.context();
        let g = ctx.galois_element(k);
        let key = eval.keys().try_rotation(g, self.level())?;
        let perm = ctx.galois_permutation(g);
        let pds: Vec<RnsPoly> = self
            .digits
            .iter()
            .map(|d| d.automorphism_eval(&perm))
            .collect();
        let mut ks_b = self.c0_p.automorphism_eval(&perm);
        ks_b.special = Some(orion_math::arena::take_u64(ctx.degree()));
        let mut ks_a = RnsPoly::zero(ctx, self.level(), Form::Eval, true);
        key.accumulate_inner_product(ctx, &pds, &mut ks_b, &mut ks_a);
        for pd in pds {
            pd.recycle();
        }
        Ok((ks_b, ks_a))
    }

    /// Rotates by `k` using the precomputed digits (one automorphism
    /// permutation + key inner product + ModDown; no per-rotation NTTs
    /// except inside ModDown): the reference the tests hold a hoisted
    /// rotation to against `Evaluator::rotate`.
    ///
    /// Panics on a missing or too-low rotation key, like
    /// [`Self::rotate_ext`].
    #[cfg(test)]
    pub fn rotate(&self, eval: &Evaluator, k: isize) -> Ciphertext {
        let ctx = eval.context();
        let RotatedExt {
            mut b,
            mut a,
            scale,
        } = self.rotate_ext(eval, k);
        if k != 0 {
            b.mod_down_special_assign(ctx);
            a.mod_down_special_assign(ctx);
        }
        Ciphertext {
            c0: b,
            c1: a,
            scale,
        }
    }

    /// Computes the rotation's key-switch inner product once, leaving the
    /// result in the extended basis for reuse across many diagonals.
    ///
    /// Panics if the rotation key was not generated, or was generated
    /// below the ciphertext's level; statically unreachable on verified
    /// plans (the `orion_nn::verify` key-coverage pass checks every
    /// hoisted rotation and its level) — see [`Self::try_rotate_ext`].
    pub fn rotate_ext(&self, eval: &Evaluator, k: isize) -> RotatedExt {
        self.try_rotate_ext(eval, k)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::rotate_ext`] with a typed error on a missing or too-low
    /// rotation key.
    pub fn try_rotate_ext(
        &self,
        eval: &Evaluator,
        k: isize,
    ) -> Result<RotatedExt, MissingRotationKey> {
        let (b, a) = if k == 0 {
            (self.c0.clone(), self.c1.clone())
        } else {
            self.key_switch_ext(eval, k)?
        };
        Ok(RotatedExt {
            b,
            a,
            scale: self.scale,
        })
    }
}

/// A rotation of a hoisted ciphertext kept in the extended basis — the
/// shareable unit of double-hoisting: computed once per distinct rotation
/// step, then multiplied by many plaintext diagonals.
pub struct RotatedExt {
    /// Rotation by 0: `c0` itself, base basis. Otherwise the `b` part of
    /// `HoistedDigits::key_switch_ext`, extended basis.
    b: RnsPoly,
    /// Rotation by 0: `c1` itself. Otherwise the `a` part, extended basis.
    a: RnsPoly,
    /// Source ciphertext scale.
    scale: f64,
}

impl RotatedExt {
    /// The rotation-by-0 view of a ciphertext — bit-identical to
    /// `HoistedDigits::rotate_ext(eval, 0)` but without paying the digit
    /// decomposition (rotation by 0 never touches the key-switch, so a
    /// consumer holding the ciphertext itself can build this directly).
    pub fn identity(ct: &Ciphertext) -> Self {
        RotatedExt {
            b: ct.c0.clone(),
            a: ct.c1.clone(),
            scale: ct.scale,
        }
    }
}

/// One limb of a [`WidePoly`].
struct WideLimb {
    /// Low and high words of the per-coefficient 128-bit lanes.
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// The limb's modulus.
    q: u64,
    /// Products currently summed in each lane (a folded lane counts one).
    terms: u64,
}

/// `Σ_k x_k ⊙ y_k` over one RNS basis, held as unreduced 128-bit lanes:
/// each term costs one widening multiply and an add-with-carry per
/// coefficient, and the Barrett reduction runs once per coefficient in
/// [`WidePoly::into_poly`] instead of once per term.
struct WidePoly {
    /// Chain limbs `0..=level`, then the special limb if extended.
    limbs: Vec<WideLimb>,
    n_chain: usize,
}

impl WidePoly {
    fn zero(ctx: &Context, level: usize, with_special: bool) -> Self {
        let n = ctx.degree();
        let moduli = ctx.moduli[..=level]
            .iter()
            .chain(with_special.then_some(&ctx.special));
        Self {
            limbs: moduli
                .map(|&q| WideLimb {
                    lo: orion_math::arena::take_u64(n),
                    hi: orion_math::arena::take_u64(n),
                    q,
                    terms: 0,
                })
                .collect(),
            n_chain: level + 1,
        }
    }

    /// `self += x ⊙ y` in one sequential pass over each limb. `y` may sit
    /// at a higher level or carry a special limb `self` lacks; the extra
    /// limbs are not read.
    fn mac(&mut self, x: &RnsPoly, y: &RnsPoly) {
        assert_eq!(x.form, Form::Eval);
        assert_eq!(y.form, Form::Eval);
        assert_eq!(x.limbs.len(), self.n_chain, "level mismatch");
        assert!(y.limbs.len() >= self.n_chain, "level mismatch");
        let n_chain = self.n_chain;
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            for (j, w) in self.limbs.iter_mut().enumerate() {
                let (a, b) = if j < n_chain {
                    (&x.limbs[j], &y.limbs[j])
                } else {
                    (
                        x.special.as_ref().expect("extended operand"),
                        y.special.as_ref().expect("extended plaintext"),
                    )
                };
                if w.terms == simd::wide_fold_bound(w.q) {
                    (k.fold_wide)(&mut w.lo, &mut w.hi, w.q);
                    w.terms = 1;
                }
                (k.mac_wide)(&mut w.lo, &mut w.hi, a, b);
                w.terms += 1;
            }
        });
    }

    /// The single Barrett reduction per coefficient: folds every lane and
    /// hands the low words over as the limbs of an ordinary polynomial.
    fn into_poly(mut self) -> RnsPoly {
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            for w in &mut self.limbs {
                (k.fold_wide)(&mut w.lo, &mut w.hi, w.q);
            }
        });
        let mut limbs: Vec<Vec<u64>> = self
            .limbs
            .into_iter()
            .map(|w| {
                orion_math::arena::recycle_u64(w.hi);
                w.lo
            })
            .collect();
        let special = (limbs.len() > self.n_chain).then(|| limbs.pop().expect("special limb"));
        RnsPoly {
            limbs,
            special,
            form: Form::Eval,
        }
    }
}

/// The `(b, a)` lanes of one basis.
type WidePair = (WidePoly, WidePoly);

/// Lazy-ModDown accumulator: sums `pt_k ⊙ HRot_k(ct)` terms while keeping
/// the key-switch parts in the extended basis; a single ModDown happens in
/// [`ExtAccumulator::finalize`]. This is the double-hoisting inner loop of
/// the BSGS matvec (paper §3.3, Equation 1).
///
/// Terms are summed as unreduced 128-bit lanes (`WidePoly`); both the
/// modular reduction and the ModDown are deferred to `finalize`.
pub struct ExtAccumulator {
    level: usize,
    /// Extended-basis lanes: every non-zero-rotation term (its `σ(c0)`
    /// rides in the `b` part as `P·σ(c0)`). Allocated by the first one.
    ext: Option<WidePair>,
    /// Base-basis lanes: rotation-by-0 terms only. Allocated by the first.
    base: Option<WidePair>,
    scale: Option<f64>,
}

impl ExtAccumulator {
    /// Creates an empty accumulator at `level`.
    pub fn new(ctx: &Context, level: usize) -> Self {
        assert!(level <= ctx.max_level(), "level above the chain");
        Self {
            level,
            ext: None,
            base: None,
            scale: None,
        }
    }

    /// Adds `pt ⊙ (b, a)`, into the extended lanes when the pair carries a
    /// special limb and into the base lanes otherwise.
    fn accumulate(
        &mut self,
        ctx: &Context,
        b: &RnsPoly,
        a: &RnsPoly,
        term_scale: f64,
        pt: &Plaintext,
    ) {
        match self.scale {
            None => self.scale = Some(term_scale),
            Some(prev) => assert!(
                crate::eval::scales_close(prev, term_scale),
                "accumulator terms must share one scale"
            ),
        }
        let extended = b.has_special();
        assert!(
            !extended || pt.poly.has_special(),
            "double-hoisting needs extended-basis plaintexts"
        );
        let level = self.level;
        let lanes = if extended {
            &mut self.ext
        } else {
            &mut self.base
        };
        let (acc_b, acc_a) = lanes.get_or_insert_with(|| {
            (
                WidePoly::zero(ctx, level, extended),
                WidePoly::zero(ctx, level, extended),
            )
        });
        acc_b.mac(b, &pt.poly);
        acc_a.mac(a, &pt.poly);
    }

    /// Accumulates `pt ⊙ HRot_k(hoisted)`, one rotation per term: the
    /// per-term reference the tests hold the shared-rotation path
    /// ([`HoistedDigits::rotate_ext`] + [`Self::add_pmult_rotated`]) to.
    ///
    /// For `k ≠ 0` the plaintext must carry a special limb (encode with
    /// `with_special = true`); the rotation's key-switch output is consumed
    /// lazily in the extended basis.
    #[cfg(test)]
    pub fn add_rotated_pmult(
        &mut self,
        eval: &Evaluator,
        h: &HoistedDigits,
        k: isize,
        pt: &Plaintext,
    ) {
        let ctx = eval.context();
        let term_scale = h.scale * pt.scale;
        if k == 0 {
            self.accumulate(ctx, &h.c0, &h.c1, term_scale, pt);
            return;
        }
        let rot = h.rotate_ext(eval, k);
        self.accumulate(ctx, &rot.b, &rot.a, term_scale, pt);
        rot.b.recycle();
        rot.a.recycle();
    }

    /// Accumulates `pt ⊙ rot` where `rot` is a precomputed [`RotatedExt`]
    /// (the key-switch inner product is shared across all diagonals using
    /// the same rotation step — Bossuat et al. Algorithm 6).
    pub fn add_pmult_rotated(&mut self, eval: &Evaluator, rot: &RotatedExt, pt: &Plaintext) {
        self.accumulate(eval.context(), &rot.b, &rot.a, rot.scale * pt.scale, pt);
    }

    /// Reduces the lanes, performs the deferred ModDown and returns the
    /// accumulated ciphertext. A basis that received no term is skipped
    /// (its fold, and for the extended one both ModDowns, would produce
    /// zeros).
    pub fn finalize(self, eval: &Evaluator) -> Ciphertext {
        let ctx = eval.context();
        let scale = self.scale.expect("empty accumulator");
        let ext = self.ext.map(|(b, a)| {
            let (mut b, mut a) = (b.into_poly(), a.into_poly());
            b.mod_down_special_assign(ctx);
            a.mod_down_special_assign(ctx);
            (b, a)
        });
        let base = self.base.map(|(b, a)| (b.into_poly(), a.into_poly()));
        let (c0, c1) = match (base, ext) {
            (Some((mut c0, mut c1)), Some((b, a))) => {
                c0.add_assign(&b, ctx);
                c1.add_assign(&a, ctx);
                b.recycle();
                a.recycle();
                (c0, c1)
            }
            (Some(pair), None) | (None, Some(pair)) => pair,
            (None, None) => unreachable!("a scale is set only by a term"),
        };
        Ciphertext { c0, c1, scale }
    }
}

/// [`decompose_digits`] with every limb of every digit taken through
/// inverse NTT, reduction and forward NTT: the reference the own-limb
/// copy is held to.
#[cfg(test)]
fn decompose_digits_reference(ctx: &Context, c: &RnsPoly) -> Vec<RnsPoly> {
    let level = c.level();
    let extended_digit = |i: usize| {
        let mut digit = c.limbs[i].clone();
        ctx.ntt[i].inverse_lazy(&mut digit);
        let k = simd::kernels();
        let extend = |q: u64, table: &orion_math::NttTable| -> Vec<u64> {
            let mut l = vec![0u64; digit.len()];
            (k.mod_reduce)(&mut l, &digit, q);
            table.forward_lazy(&mut l);
            l
        };
        RnsPoly {
            limbs: (0..=level)
                .map(|j| extend(ctx.moduli[j], &ctx.ntt[j]))
                .collect(),
            special: Some(extend(ctx.special, &ctx.ntt_special)),
            form: Form::Eval,
        }
    };
    (0..=level).map(extended_digit).collect()
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
    use std::sync::Arc;

    struct H {
        ctx: Arc<Context>,
        enc: Encoder,
        encryptor: Encryptor,
        dec: Decryptor,
        eval: Evaluator,
        rng: StdRng,
    }

    fn setup(rotations: &[isize]) -> H {
        setup_with(CkksParams::tiny(), rotations)
    }

    fn setup_with(params: CkksParams, rotations: &[isize]) -> H {
        let ctx = Context::new(params);
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(31));
        let pk = Arc::new(kg.gen_public_key());
        let keys = Arc::new(kg.gen_eval_keys(rotations));
        let sk = kg.secret_key();
        H {
            ctx: ctx.clone(),
            enc: Encoder::new(ctx.clone()),
            encryptor: Encryptor::with_public_key(ctx.clone(), pk),
            dec: Decryptor::new(ctx.clone(), sk),
            eval: Evaluator::new(ctx, keys),
            rng: StdRng::seed_from_u64(32),
        }
    }

    #[test]
    fn hoisted_rotation_matches_plain_rotation() {
        let mut h = setup(&[1, 7]);
        let n = h.ctx.slots();
        let a: Vec<f64> = (0..n).map(|i| ((i * 3) % 11) as f64 * 0.2).collect();
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), 2, false), &mut h.rng);
        let hd = HoistedDigits::new(&h.ctx, &ct);
        for k in [0isize, 1, 7] {
            let via_hoist = h.enc.decode(&h.dec.decrypt(&hd.rotate(&h.eval, k)));
            let via_plain = h.enc.decode(&h.dec.decrypt(&h.eval.rotate(&ct, k)));
            for i in (0..n).step_by(23) {
                assert!(
                    (via_hoist[i] - via_plain[i]).abs() < 1e-2,
                    "k={k} slot {i}: {} vs {}",
                    via_hoist[i],
                    via_plain[i]
                );
            }
        }
    }

    #[test]
    fn double_hoisted_inner_sum_matches_naive() {
        // sum_k pt_k ⊙ rot_k(ct), k in {0, 1, 2}.
        let mut h = setup(&[1, 2]);
        let n = h.ctx.slots();
        let level = 2;
        let a: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) * 0.3 - 1.0).collect();
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), level, false), &mut h.rng);
        let weights: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..n).map(|i| (((i + k) % 5) as f64) * 0.15).collect())
            .collect();

        // Naive computation.
        let mut naive = vec![0.0f64; n];
        for (k, w) in weights.iter().enumerate() {
            for i in 0..n {
                naive[i] += w[i] * a[(i + k) % n];
            }
        }

        let hd = HoistedDigits::new(&h.ctx, &ct);
        let mut acc = ExtAccumulator::new(&h.ctx, level);
        for (k, w) in weights.iter().enumerate() {
            let pt = h.enc.encode_at_prime_scale_ws(w, level);
            acc.add_rotated_pmult(&h.eval, &hd, k as isize, &pt);
        }
        let mut out_ct = acc.finalize(&h.eval);
        h.eval.rescale_assign(&mut out_ct);
        assert_eq!(out_ct.scale, h.ctx.scale());
        let out = h.enc.decode(&h.dec.decrypt(&out_ct));
        for i in (0..n).step_by(31) {
            assert!(
                (out[i] - naive[i]).abs() < 2e-2,
                "slot {i}: {} vs {}",
                out[i],
                naive[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "share one scale")]
    fn accumulator_rejects_mixed_scales() {
        let mut h = setup(&[1]);
        let level = 1;
        let ct = h.encryptor.encrypt(
            &h.enc.encode(&[1.0], h.ctx.scale(), level, false),
            &mut h.rng,
        );
        let hd = HoistedDigits::new(&h.ctx, &ct);
        let mut acc = ExtAccumulator::new(&h.ctx, level);
        let p1 = h.enc.encode(&[1.0], h.ctx.scale(), level, true);
        let p2 = h.enc.encode(&[1.0], h.ctx.scale() * 4.0, level, true);
        acc.add_rotated_pmult(&h.eval, &hd, 1, &p1);
        acc.add_rotated_pmult(&h.eval, &hd, 1, &p2);
    }

    #[test]
    #[should_panic(expected = "share one scale")]
    fn shared_rotation_accumulator_rejects_mixed_scales() {
        let mut h = setup(&[1]);
        let level = 1;
        let ct = h.encryptor.encrypt(
            &h.enc.encode(&[1.0], h.ctx.scale(), level, false),
            &mut h.rng,
        );
        let rot = HoistedDigits::new(&h.ctx, &ct).rotate_ext(&h.eval, 1);
        let mut acc = ExtAccumulator::new(&h.ctx, level);
        let p1 = h.enc.encode(&[1.0], h.ctx.scale(), level, true);
        let p2 = h.enc.encode(&[1.0], h.ctx.scale() * 4.0, level, true);
        acc.add_pmult_rotated(&h.eval, &rot, &p1);
        acc.add_pmult_rotated(&h.eval, &rot, &p2);
    }

    /// A full-range plaintext: uniform residues in every limb, so products
    /// reach `(q−1)²`-sized values and the lane carries are exercised.
    fn uniform_pt(h: &mut H, level: usize) -> Plaintext {
        Plaintext {
            poly: RnsPoly::sample_uniform(&h.ctx, level, Form::Eval, true, &mut h.rng),
            scale: 1.0,
        }
    }

    fn fresh_ct(h: &mut H, level: usize) -> Ciphertext {
        let n = h.ctx.slots();
        let a: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.1 - 0.6).collect();
        h.encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), level, false), &mut h.rng)
    }

    /// `acc += x ⊙ y`, one strict `mul_mod`/`add_mod` per coefficient, over
    /// the limbs `acc` has.
    fn strict_mac(ctx: &Context, acc: &mut RnsPoly, x: &RnsPoly, y: &RnsPoly) {
        use orion_math::modular::{add_mod, mul_mod};
        let mac = |dst: &mut [u64], a: &[u64], b: &[u64], q: u64| {
            for ((d, &a), &b) in dst.iter_mut().zip(a).zip(b) {
                *d = add_mod(*d, mul_mod(a, b, q), q);
            }
        };
        for (j, dst) in acc.limbs.iter_mut().enumerate() {
            mac(dst, &x.limbs[j], &y.limbs[j], ctx.moduli[j]);
        }
        if let Some(dst) = acc.special.as_mut() {
            let (a, b) = (x.special.as_ref().unwrap(), y.special.as_ref().unwrap());
            mac(dst, a, b, ctx.special);
        }
    }

    /// The key-switch inner product of rotation `k` alone, without the
    /// `P·σ(c0)` seed, and the permutation it used.
    fn bare_key_switch(h: &H, hd: &HoistedDigits, k: isize) -> (RnsPoly, RnsPoly, Vec<usize>) {
        let g = h.ctx.galois_element(k);
        let perm = h.ctx.galois_permutation(g);
        let pds: Vec<RnsPoly> = hd
            .digits
            .iter()
            .map(|d| d.automorphism_eval(&perm))
            .collect();
        let key = h.eval.keys().try_rotation(g, hd.level()).unwrap();
        let (ks_b, ks_a) = key.inner_product(&h.ctx, &pds);
        (ks_b, ks_a, perm.to_vec())
    }

    /// The accumulation as it was before the wide lanes, strictly: every
    /// term reduced as it is added, key-switch parts in the extended basis,
    /// every `pt ⊙ σ(c0)` in the base basis, then ModDown and add.
    fn strict_reference(h: &H, hd: &HoistedDigits, terms: &[(isize, Plaintext)]) -> Ciphertext {
        let ctx = &h.ctx;
        let level = hd.level();
        let mut b_ext = RnsPoly::zero(ctx, level, Form::Eval, true);
        let mut a_ext = RnsPoly::zero(ctx, level, Form::Eval, true);
        let mut b_base = RnsPoly::zero(ctx, level, Form::Eval, false);
        let mut a_base = RnsPoly::zero(ctx, level, Form::Eval, false);
        for (k, pt) in terms {
            if *k == 0 {
                strict_mac(ctx, &mut b_base, &hd.c0, &pt.poly);
                strict_mac(ctx, &mut a_base, &hd.c1, &pt.poly);
            } else {
                let (ks_b, ks_a, perm) = bare_key_switch(h, hd, *k);
                strict_mac(ctx, &mut b_ext, &ks_b, &pt.poly);
                strict_mac(ctx, &mut a_ext, &ks_a, &pt.poly);
                strict_mac(ctx, &mut b_base, &hd.c0.automorphism_eval(&perm), &pt.poly);
            }
        }
        b_ext.mod_down_special_assign(ctx);
        a_ext.mod_down_special_assign(ctx);
        b_base.add_assign(&b_ext, ctx);
        a_base.add_assign(&a_ext, ctx);
        Ciphertext {
            c0: b_base,
            c1: a_base,
            scale: hd.scale,
        }
    }

    /// Accumulates `terms` through both entry points — per-term key-switch,
    /// and one shared `RotatedExt` per distinct rotation — and checks both
    /// against the strict reference, limb for limb.
    fn assert_matches_reference(h: &H, ct: &Ciphertext, terms: &[(isize, Plaintext)]) {
        let level = ct.level();
        let hd = HoistedDigits::new(&h.ctx, ct);
        let mut per_term = ExtAccumulator::new(&h.ctx, level);
        let mut shared = ExtAccumulator::new(&h.ctx, level);
        let mut rotations: std::collections::HashMap<isize, RotatedExt> = Default::default();
        for (k, pt) in terms {
            per_term.add_rotated_pmult(&h.eval, &hd, *k, pt);
            let rot = rotations.entry(*k).or_insert_with(|| {
                if *k == 0 {
                    RotatedExt::identity(ct)
                } else {
                    hd.rotate_ext(&h.eval, *k)
                }
            });
            shared.add_pmult_rotated(&h.eval, rot, pt);
        }
        let per_term = per_term.finalize(&h.eval);
        let shared = shared.finalize(&h.eval);
        let want = strict_reference(h, &hd, terms);
        for (name, got) in [
            ("add_rotated_pmult", &per_term),
            ("add_pmult_rotated", &shared),
        ] {
            assert!(got.c0 == want.c0, "{name}: c0 differs at level {level}");
            assert!(got.c1 == want.c1, "{name}: c1 differs at level {level}");
            assert_eq!(got.scale, want.scale);
        }
    }

    #[test]
    fn wide_accumulation_is_bit_exact_at_every_level() {
        let mut h = setup(&[1, 2]);
        for level in 0..=h.ctx.max_level() {
            let ct = fresh_ct(&mut h, level);
            // Mixed, identity-only and extended-only groups.
            for ks in [&[0isize, 1, 2, 1, 0, 2, 1][..], &[0, 0, 0], &[1, 2, 1]] {
                let terms: Vec<(isize, Plaintext)> =
                    ks.iter().map(|&k| (k, uniform_pt(&mut h, level))).collect();
                assert_matches_reference(&h, &ct, &terms);
            }
        }
    }

    #[test]
    fn rotate_equals_permuted_c0_plus_moddown() {
        let mut h = setup(&[1, 2]);
        for level in 0..=h.ctx.max_level() {
            let ct = fresh_ct(&mut h, level);
            let hd = HoistedDigits::new(&h.ctx, &ct);
            for k in [1isize, 2] {
                let (mut ks_b, mut ks_a, perm) = bare_key_switch(&h, &hd, k);
                ks_b.mod_down_special_assign(&h.ctx);
                ks_a.mod_down_special_assign(&h.ctx);
                let mut c0 = ct.c0.automorphism_eval(&perm);
                c0.add_assign(&ks_b, &h.ctx);
                let got = hd.rotate(&h.eval, k);
                assert!(got.c0 == c0 && got.c1 == ks_a, "k={k} level {level}");
            }
        }
    }

    #[test]
    fn accumulator_folds_before_the_lanes_overflow() {
        // 61-bit q0 and special prime: their lanes may sum only a handful
        // of products between folds, so a few dozen terms cross the bound
        // several times (the 30-bit limbs never fold).
        let params = CkksParams {
            q0_bits: 61,
            special_bits: 61,
            max_level: 2,
            ..CkksParams::tiny()
        };
        let mut h = setup_with(params, &[1]);
        let bound = simd::wide_fold_bound(h.ctx.special.max(h.ctx.moduli[0]));
        assert!((4..=8).contains(&bound), "bound {bound}");
        let level = 2;
        let ct = fresh_ct(&mut h, level);
        let terms: Vec<(isize, Plaintext)> = (0..3 * bound + 2)
            .map(|t| ((t % 3 != 0) as isize, uniform_pt(&mut h, level)))
            .collect();
        assert_matches_reference(&h, &ct, &terms);
    }

    #[test]
    fn own_limb_copy_matches_the_all_limb_decomposition() {
        let medium_2_11 = CkksParams {
            n: 1 << 11,
            ..CkksParams::medium()
        };
        for params in [CkksParams::tiny(), CkksParams::small(), medium_2_11] {
            let ctx = Context::new(params);
            let mut rng = StdRng::seed_from_u64(0xd161);
            for level in 0..=ctx.max_level() {
                let c = RnsPoly::sample_uniform(&ctx, level, Form::Eval, false, &mut rng);
                let got = decompose_digits(&ctx, &c);
                let want = decompose_digits_reference(&ctx, &c);
                assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.limbs, w.limbs, "digit {i} at level {level}");
                    assert_eq!(g.special, w.special, "digit {i} at level {level}");
                }
            }
        }
    }
}
