//! Hoisted rotations and the lazy-ModDown accumulator (double-hoisting).
//!
//! Hoisting (paper §3.3) reuses the expensive digit decomposition of a
//! ciphertext across many rotations of that same ciphertext — exactly the
//! baby-step pattern of BSGS matrix–vector products. Double-hoisting
//! additionally keeps the inner-product accumulation in the extended basis
//! `Q·p`, performing a single ModDown per giant-step group instead of one
//! per rotation (Bossuat et al., Algorithm 6). Every term sits in that one
//! basis: a rotation by 0 enters as `P·c`, whose ModDown is `c`.

use crate::encrypt::{Ciphertext, Plaintext};
use crate::eval::Evaluator;
use crate::keys::{KeySwitchKey, MissingRotationKey};
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

/// The one key-switch body: `(b + ks_b, ks_a)` in the extended basis `Q·P`,
/// ModDown left to the caller, where `(ks_b, ks_a)` is `key`'s inner product
/// with `digits` read through the Galois permutation `perm` (the identity
/// when `None`; no digit is copied). `b` seeds the `b` lane in the base
/// basis: `P·σ(c0)` for a rotation, `P·d0` for relinearisation. `P·y` is 0 in
/// the special limb, so `ModDown(x + P·y) = ModDown(x) + y` limb for limb.
pub(crate) fn key_switch_ext(
    ctx: &Context,
    digits: &[RnsPoly],
    key: &KeySwitchKey,
    perm: Option<&simd::Permutation>,
    mut b: RnsPoly,
) -> (RnsPoly, RnsPoly) {
    b.special = Some(orion_math::arena::take_u64(ctx.degree()));
    let mut a = RnsPoly::zero(ctx, b.level(), Form::Eval, true);
    key.accumulate_inner_product(ctx, digits, perm, &mut b, &mut a);
    (b, a)
}

/// `P·c` in the base basis.
fn times_special(ctx: &Context, c: &RnsPoly) -> RnsPoly {
    let mut x = c.clone();
    x.mul_scalar_assign(ctx.special as i128, ctx);
    x
}

/// A ciphertext with its key-switch digit decomposition precomputed, ready
/// for cheap repeated rotations. It borrows the ciphertext it was built
/// from, which a rotation by a multiple of the slot count lifts to `P·c`.
pub struct HoistedDigits<'c> {
    /// Extended, NTT'd digits of `c1`.
    digits: Vec<RnsPoly>,
    /// `P·c0` (base basis): what every non-zero rotation seeds the `b` part
    /// of its key-switch with, so `σ(c0)` rides through the extended basis
    /// and comes back out of the ModDown exactly (see [`key_switch_ext`]).
    c0_p: RnsPoly,
    /// The source ciphertext.
    ct: &'c Ciphertext,
}

impl<'c> HoistedDigits<'c> {
    /// Precomputes the decomposition of `ct` (the "hoisted" part).
    pub fn new(ctx: &Context, ct: &'c Ciphertext) -> Self {
        Self {
            digits: decompose_digits(ctx, &ct.c1),
            c0_p: times_special(ctx, &ct.c0),
            ct,
        }
    }

    /// Ciphertext level.
    pub fn level(&self) -> usize {
        self.c0_p.level()
    }

    /// Ciphertext scale.
    pub fn scale(&self) -> f64 {
        self.ct.scale
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
    /// rotation key. A rotation by a multiple of the slot count is the
    /// identity, [`RotatedExt::identity`] of the source ciphertext, and
    /// needs no key.
    pub fn try_rotate_ext(
        &self,
        eval: &Evaluator,
        k: isize,
    ) -> Result<RotatedExt, MissingRotationKey> {
        let ctx = eval.context();
        let g = ctx.galois_element(k);
        if g == 1 {
            return Ok(RotatedExt::identity(ctx, self.ct));
        }
        let key = eval.keys().try_rotation(g, self.level())?;
        let perm = ctx.galois_permutation(g);
        let seed = self.c0_p.automorphism_eval(&perm);
        let (b, a) = key_switch_ext(ctx, &self.digits, key, Some(&perm), seed);
        Ok(RotatedExt {
            b,
            a,
            scale: self.ct.scale,
        })
    }
}

/// A rotation of a hoisted ciphertext kept in the extended basis `Q·P` —
/// the shareable unit of double-hoisting: computed once per distinct
/// rotation step, then multiplied by many plaintext diagonals. Its ModDown
/// is the rotated ciphertext.
pub struct RotatedExt {
    /// The `b` part of [`key_switch_ext`]; `P·c0` for the identity.
    b: RnsPoly,
    /// The `a` part; `P·c1` for the identity.
    a: RnsPoly,
    /// Source ciphertext scale.
    scale: f64,
}

impl RotatedExt {
    /// The rotation-by-0 view of a ciphertext, `(P·c0, P·c1)` with a zero
    /// special limb: the shape of every key-switched rotation, whose `b`
    /// part is seeded with `P·σ(c0)`, without a digit decomposition. Its
    /// ModDown is `ct` bit for bit, so a consumer holding the ciphertext
    /// itself can build this directly.
    pub fn identity(ctx: &Context, ct: &Ciphertext) -> Self {
        let extend = |c: &RnsPoly| RnsPoly {
            special: Some(orion_math::arena::take_u64(ctx.degree())),
            ..times_special(ctx, c)
        };
        RotatedExt {
            b: extend(&ct.c0),
            a: extend(&ct.c1),
            scale: ct.scale,
        }
    }

    /// Returns both parts' limbs to the thread-local arena, for the next
    /// rotation to reuse.
    pub fn recycle(self) {
        self.b.recycle();
        self.a.recycle();
    }
}

/// One limb of a [`WidePoly`].
struct WideLimb {
    /// Low and high words of the per-coefficient wide lanes, in the
    /// dispatch class's format (`simd::Kernels::mac_wide`).
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// The limb's modulus.
    q: u64,
    /// Products currently summed in each lane (a folded lane counts one).
    terms: u64,
}

/// `Σ_k x_k ⊙ y_k` over the extended basis `Q·P`, held as unreduced wide
/// lanes (a `lo` / `hi` word pair per coefficient): each term costs one
/// widening multiply and a two-word add per coefficient, and the reduction
/// runs once per coefficient in [`WidePoly::into_poly`] instead of once per
/// term.
struct WidePoly {
    /// Chain limbs `0..=level`, then the special limb.
    limbs: Vec<WideLimb>,
}

impl WidePoly {
    fn zero(ctx: &Context, level: usize) -> Self {
        let n = ctx.degree();
        let moduli = ctx.moduli[..=level].iter().chain([&ctx.special]);
        Self {
            limbs: moduli
                .map(|&q| WideLimb {
                    lo: orion_math::arena::take_u64(n),
                    hi: orion_math::arena::take_u64(n),
                    q,
                    terms: 0,
                })
                .collect(),
        }
    }

    /// `self += x ⊙ y` in one sequential pass over each limb. `y` may sit
    /// at a higher level; its extra chain limbs are not read.
    fn mac(&mut self, x: &RnsPoly, y: &RnsPoly) {
        assert_eq!(x.form, Form::Eval);
        assert_eq!(y.form, Form::Eval);
        let n_chain = self.limbs.len() - 1;
        assert_eq!(x.limbs.len(), n_chain, "level mismatch");
        assert!(y.limbs.len() >= n_chain, "level mismatch");
        assert!(x.has_special(), "extended operand");
        assert!(
            y.has_special(),
            "double-hoisting needs extended-basis plaintexts"
        );
        let xs = x.limbs.iter().chain(&x.special);
        let ys = y.limbs[..n_chain].iter().chain(&y.special);
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            for ((w, a), b) in self.limbs.iter_mut().zip(xs).zip(ys) {
                if w.terms == simd::wide_fold_bound(w.q) {
                    (k.fold_wide)(&mut w.lo, &mut w.hi, w.q);
                    w.terms = 1;
                }
                (k.mac_wide)(&mut w.lo, &mut w.hi, a, b, w.q);
                w.terms += 1;
            }
        });
    }

    /// `self += other`, exactly: both lanes of each limb fold into
    /// `[0, q)` and add mod `q` (a folded lane counts one term), and
    /// `other`'s words go back to the arena.
    fn merge(&mut self, other: WidePoly) {
        assert_eq!(
            self.limbs.len(),
            other.limbs.len(),
            "accumulator level mismatch"
        );
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            for (w, mut o) in self.limbs.iter_mut().zip(other.limbs) {
                (k.fold_wide)(&mut w.lo, &mut w.hi, w.q);
                (k.fold_wide)(&mut o.lo, &mut o.hi, o.q);
                (k.add_assign)(&mut w.lo, &o.lo, w.q);
                w.terms = 1;
                orion_math::arena::recycle_u64(o.lo);
                orion_math::arena::recycle_u64(o.hi);
            }
        });
    }

    /// The single Barrett reduction per coefficient: folds every lane and
    /// hands the low words over as the limbs of an extended-basis
    /// polynomial.
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
        let special = limbs.pop();
        RnsPoly {
            limbs,
            special,
            form: Form::Eval,
        }
    }
}

/// Lazy-ModDown accumulator: sums `pt_k ⊙ HRot_k(ct)` terms in the
/// extended basis `Q·P` — a rotation by 0 enters as `P·c` — and performs
/// one ModDown in [`ExtAccumulator::finalize`]. This is the double-hoisting
/// inner loop of the BSGS matvec (paper §3.3, Equation 1).
///
/// Terms are summed as unreduced wide lanes (`WidePoly`); both the
/// modular reduction and the ModDown are deferred to `finalize`.
pub struct ExtAccumulator {
    /// `Σ pt_k ⊙ b_k` and `Σ pt_k ⊙ a_k`.
    b: WidePoly,
    a: WidePoly,
    scale: Option<f64>,
}

impl ExtAccumulator {
    /// Creates an empty accumulator at `level`.
    pub fn new(ctx: &Context, level: usize) -> Self {
        assert!(level <= ctx.max_level(), "level above the chain");
        Self {
            b: WidePoly::zero(ctx, level),
            a: WidePoly::zero(ctx, level),
            scale: None,
        }
    }

    /// Sets the accumulator's scale from its first term, and holds every
    /// later term to it.
    fn check_scale(&mut self, term_scale: f64) {
        match self.scale {
            None => self.scale = Some(term_scale),
            Some(prev) => assert!(
                crate::eval::scales_close(prev, term_scale),
                "accumulator terms must share one scale"
            ),
        }
    }

    /// Accumulates `pt ⊙ HRot_k(hoisted)`, one rotation per term: the
    /// per-term reference the tests hold the shared-rotation path
    /// ([`HoistedDigits::rotate_ext`] + [`Self::add_pmult_rotated`]) to.
    #[cfg(test)]
    pub fn add_rotated_pmult(
        &mut self,
        eval: &Evaluator,
        h: &HoistedDigits,
        k: isize,
        pt: &Plaintext,
    ) {
        let rot = h.rotate_ext(eval, k);
        self.add_pmult_rotated(eval, &rot, pt);
        rot.recycle();
    }

    /// Accumulates `pt ⊙ rot` where `rot` is a precomputed [`RotatedExt`]
    /// (the key-switch inner product is shared across all diagonals using
    /// the same rotation step — Bossuat et al. Algorithm 6). The plaintext
    /// must carry a special limb (encode with `with_special = true`).
    /// `_eval` is unread; the `perf/` pin names this signature.
    pub fn add_pmult_rotated(&mut self, _eval: &Evaluator, rot: &RotatedExt, pt: &Plaintext) {
        self.check_scale(rot.scale * pt.scale);
        self.b.mac(&rot.b, &pt.poly);
        self.a.mac(&rot.a, &pt.poly);
    }

    /// Adds `other`'s terms to this accumulator's, exactly: merging the
    /// partial sums of any split of a term list, in any order, gives the
    /// bits of one accumulator fed the whole list. The lanes fold into
    /// `[0, q)` and add mod `q`.
    pub fn merge(&mut self, other: ExtAccumulator) {
        if let Some(s) = other.scale {
            self.check_scale(s);
        }
        self.b.merge(other.b);
        self.a.merge(other.a);
    }

    /// Reduces the lanes, performs the deferred ModDown and returns the
    /// accumulated ciphertext.
    pub fn finalize(self, eval: &Evaluator) -> Ciphertext {
        let ctx = eval.context();
        let scale = self.scale.expect("empty accumulator");
        let (mut c0, mut c1) = (self.b.into_poly(), self.a.into_poly());
        c0.mod_down_special_assign(ctx);
        c1.mod_down_special_assign(ctx);
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

    /// A hoisted rotation out of the extended basis.
    fn mod_down(ctx: &Context, rot: RotatedExt) -> Ciphertext {
        let RotatedExt {
            mut b,
            mut a,
            scale,
        } = rot;
        b.mod_down_special_assign(ctx);
        a.mod_down_special_assign(ctx);
        Ciphertext {
            c0: b,
            c1: a,
            scale,
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
            let via_hoist = mod_down(&h.ctx, hd.rotate_ext(&h.eval, k));
            let via_plain = h.eval.rotate(&ct, k);
            assert!(via_hoist.c0 == via_plain.c0, "k={k}: c0 differs");
            assert!(via_hoist.c1 == via_plain.c1, "k={k}: c1 differs");
            assert_eq!(via_hoist.scale.to_bits(), via_plain.scale.to_bits());
        }
    }

    #[test]
    fn a_slot_multiple_rotation_is_the_source_ciphertext() {
        // No rotation keys at all: the identity needs none, and its ModDown
        // is the source.
        let mut h = setup(&[]);
        let slots = h.ctx.slots() as isize;
        let ct = fresh_ct(&mut h, 2);
        let hd = HoistedDigits::new(&h.ctx, &ct);
        for k in [0, slots, -slots, 3 * slots] {
            let rot = hd.try_rotate_ext(&h.eval, k).expect("identity rotation");
            let got = mod_down(&h.ctx, rot);
            assert!(got.c0 == ct.c0 && got.c1 == ct.c1, "k={k}");
            assert_eq!(got.scale.to_bits(), ct.scale.to_bits());
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
    fn bare_key_switch(
        h: &H,
        hd: &HoistedDigits,
        k: isize,
    ) -> (RnsPoly, RnsPoly, Arc<simd::Permutation>) {
        let g = h.ctx.galois_element(k);
        let perm = h.ctx.galois_permutation(g);
        let pds: Vec<RnsPoly> = hd
            .digits
            .iter()
            .map(|d| d.automorphism_eval(&perm))
            .collect();
        let key = h.eval.keys().try_rotation(g, hd.level()).unwrap();
        let (ks_b, ks_a) = key.inner_product(&h.ctx, &pds);
        (ks_b, ks_a, perm)
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
                strict_mac(ctx, &mut b_base, &hd.ct.c0, &pt.poly);
                strict_mac(ctx, &mut a_base, &hd.ct.c1, &pt.poly);
            } else {
                let (ks_b, ks_a, perm) = bare_key_switch(h, hd, *k);
                strict_mac(ctx, &mut b_ext, &ks_b, &pt.poly);
                strict_mac(ctx, &mut a_ext, &ks_a, &pt.poly);
                strict_mac(
                    ctx,
                    &mut b_base,
                    &hd.ct.c0.automorphism_eval(&perm),
                    &pt.poly,
                );
            }
        }
        b_ext.mod_down_special_assign(ctx);
        a_ext.mod_down_special_assign(ctx);
        b_base.add_assign(&b_ext, ctx);
        a_base.add_assign(&a_ext, ctx);
        Ciphertext {
            c0: b_base,
            c1: a_base,
            scale: hd.scale(),
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
                    RotatedExt::identity(&h.ctx, ct)
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
                let hoisted = mod_down(&h.ctx, hd.rotate_ext(&h.eval, k));
                for (name, got) in [("hoisted", hoisted), ("plain", h.eval.rotate(&ct, k))] {
                    assert!(
                        got.c0 == c0 && got.c1 == ks_a,
                        "{name}: k={k} level {level}"
                    );
                }
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
    fn merged_partials_equal_one_accumulator() {
        // The 61-bit q0 and special prime fold every few terms, so the
        // middle partial's extended lanes cross the bound on their own.
        let params = CkksParams {
            q0_bits: 61,
            special_bits: 61,
            max_level: 2,
            ..CkksParams::tiny()
        };
        let mut h = setup_with(params, &[1]);
        let bound = simd::wide_fold_bound(h.ctx.special.max(h.ctx.moduli[0])) as usize;
        let level = 2;
        let ct = fresh_ct(&mut h, level);
        let hd = HoistedDigits::new(&h.ctx, &ct);
        let rots = [hd.rotate_ext(&h.eval, 0), hd.rotate_ext(&h.eval, 1)];
        // identity terms only (base lanes), then extended-only terms past
        // the bound, then both kinds mixed
        let (a, b) = (3, 3 + bound + 2);
        let terms: Vec<(usize, Plaintext)> = (0..b + 2 * bound)
            .map(|t| {
                (
                    usize::from(t >= a && (t < b || t % 2 == 1)),
                    uniform_pt(&mut h, level),
                )
            })
            .collect();
        let feed = |range: std::ops::Range<usize>| {
            let mut acc = ExtAccumulator::new(&h.ctx, level);
            for (r, pt) in &terms[range] {
                acc.add_pmult_rotated(&h.eval, &rots[*r], pt);
            }
            acc
        };
        let want = feed(0..terms.len()).finalize(&h.eval);
        let splits = || [feed(0..a), feed(a..a), feed(a..b), feed(b..terms.len())];
        let in_order = splits().into_iter().reduce(|mut acc, part| {
            acc.merge(part);
            acc
        });
        let reversed = splits().into_iter().rev().reduce(|mut acc, part| {
            acc.merge(part);
            acc
        });
        for (name, got) in [("in order", in_order), ("reversed", reversed)] {
            let got = got.expect("four partials").finalize(&h.eval);
            assert!(got.c0 == want.c0 && got.c1 == want.c1, "{name}");
            assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "{name}");
        }
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
