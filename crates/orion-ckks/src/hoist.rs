//! Hoisted rotations and the lazy-ModDown accumulator (double-hoisting).
//!
//! Hoisting (paper §3.3) reuses the expensive digit decomposition of a
//! ciphertext across many rotations of that same ciphertext — exactly the
//! baby-step pattern of BSGS matrix–vector products. Double-hoisting
//! additionally keeps the inner-product accumulation in the extended basis
//! `Q·P`, performing a single ModDown per giant-step group instead of one
//! per rotation (Bossuat et al., Algorithm 6). Every term sits in that one
//! basis: a rotation by 0 enters as `P·c`, whose ModDown is `c`.
//!
//! Key switching is hybrid (Han–Ki, CT-RSA 2020): at level ℓ, `c1` splits
//! into `⌈(ℓ+1)/α⌉` digits of α consecutive limbs, each extended by a fast
//! base conversion (ModUp) to `Q_ℓ·P_α`, the chain plus the first α special
//! primes; `α = α(ℓ)` ([`crate::params::digit_alpha`]) gives two digits at
//! every level up to `L_eff`.

use crate::encrypt::{Ciphertext, Plaintext};
use crate::eval::Evaluator;
use crate::keys::{KeySwitchKey, MissingRotationKey};
use crate::params::{digit_count, Context};
use crate::poly::{BaseConv, Form, RnsPoly};
use orion_math::simd;
use orion_telemetry::{time_class, OpClass};
use std::sync::OnceLock;

/// The chain limbs of digit `g` of a level-`level` polynomial split into
/// groups of `alpha`.
fn digit_limbs(g: usize, alpha: usize, level: usize) -> std::ops::Range<usize> {
    g * alpha..((g + 1) * alpha).min(level + 1)
}

/// Decomposes `c` (evaluation form, no special limb) into its
/// `⌈(ℓ+1)/α⌉` hybrid digits, each extended to the basis `{q_0…q_ℓ,
/// p_0…p_{α−1}}`, NTT'd and ready for key-switch inner products.
///
/// Digit `g` is the value of `c`'s limbs `gα…` (at most α of them) mod
/// their product `Q_g`; its ModUp to every other limb is the centred fast
/// base conversion `Σ_k c([c_k·(Q_g/q_k)⁻¹]_{q_k})·(Q_g/q_k)`, `c` the
/// centring into `(−q_k/2, q_k/2]`: the digit, centred, plus `u·Q_g` for
/// some `|u| ≤ α/2` — a multiple of `Q_g` the key's gadget sends to 0 mod
/// `Q`. Centred digits have zero mean and half the magnitude of `[0,
/// Q_g)` ones. The digit's own limbs are `c`'s: inverse NTT, conversion
/// and forward NTT are the identity on them. With α = 1 the conversion is
/// the centred reduction of one limb.
pub fn decompose_digits(ctx: &Context, c: &RnsPoly, alpha: usize) -> Vec<RnsPoly> {
    assert_eq!(c.form, Form::Eval);
    assert!(!c.has_special());
    let level = c.level();
    let n = ctx.degree();
    let k = simd::kernels();
    // Each digit performs one inverse NTT per own limb and one forward NTT
    // per other limb: this is the key-switch hot loop.
    let extended_digit = |g: usize| {
        let own = digit_limbs(g, alpha, level);
        let moduli = &ctx.moduli[own.clone()];
        let conv = BaseConv::new(moduli);
        let mut src: Vec<Vec<u64>> = own
            .clone()
            .map(|i| {
                let mut limb = orion_math::arena::take_u64_raw(n);
                limb.copy_from_slice(&c.limbs[i]);
                ctx.ntt[i].inverse_lazy(&mut limb);
                limb
            })
            .collect();
        conv.scale(&mut src);
        let srcs: Vec<&[u64]> = src.iter().map(Vec::as_slice).collect();
        let extend = |q: u64, table: &orion_math::NttTable| -> Vec<u64> {
            let mut l = orion_math::arena::take_u64_raw(n);
            (k.base_conv)(&mut l, &srcs, moduli, &conv.hat(q), true, q);
            table.forward_lazy(&mut l);
            l
        };
        let limbs = (0..=level)
            .map(|j| match own.contains(&j) {
                true => {
                    let mut l = orion_math::arena::take_u64_raw(n);
                    l.copy_from_slice(&c.limbs[j]);
                    l
                }
                false => extend(ctx.moduli[j], &ctx.ntt[j]),
            })
            .collect();
        let special = (ctx.special[..alpha].iter().zip(&ctx.special_ntt))
            .map(|(&p, table)| extend(p, table))
            .collect();
        for limb in src {
            orion_math::arena::recycle_u64(limb);
        }
        RnsPoly {
            limbs,
            special,
            form: Form::Eval,
        }
    };
    (0..digit_count(level, alpha)).map(extended_digit).collect()
}

/// The one key-switch body: `(b + ks_b, ks_a)` in the extended basis
/// `Q_ℓ·P_basis` (ℓ the level of `b`, `P_basis = p_0⋯p_{basis−1}`), ModDown
/// left to the caller, where `(ks_b, ks_a)` is `key`'s inner product with
/// `digits` (decomposed with the α of the key's gadget for their level,
/// [`KeySwitchKey::alpha_at`]) read through the Galois permutation `perm`
/// (the identity when `None`; no digit is copied). `b` seeds the `b` lane in the base basis:
/// `P_basis·σ(c0)` for a rotation, `P_basis·d0` for relinearisation.
/// `P·y` is 0 in the special limbs, so `ModDown(x + P·y) = ModDown(x) + y`
/// limb for limb.
///
/// `basis` is at most the digits' α. A rotation asks for its level's
/// α(ℓ), the basis of the BSGS accumulator; a relinearisation for the
/// digits' α. They differ only when the key holds no gadget of the
/// level's class (the plan never applies it there): the sum then runs in
/// the larger basis with the seed scaled by `P_α/P_basis`, and a ModDown by
/// that quotient ([`RnsPoly::mod_down_to`]) brings it to `basis` — exact on
/// the seed, one rounding on the inner product.
pub(crate) fn key_switch_ext(
    ctx: &Context,
    digits: &[RnsPoly],
    key: &KeySwitchKey,
    perm: Option<&simd::Permutation>,
    mut b: RnsPoly,
    basis: usize,
) -> (RnsPoly, RnsPoly) {
    let alpha = digits[0].special.len();
    assert!(
        basis <= alpha,
        "a key switch lands in a basis of its gadget's primes"
    );
    if alpha > basis {
        b.mul_special_product_assign(ctx, basis..alpha);
    }
    b.special = (0..alpha)
        .map(|_| orion_math::arena::take_u64(ctx.degree()))
        .collect();
    let mut a = RnsPoly::zero(ctx, b.level(), Form::Eval, alpha);
    key.accumulate_inner_product(ctx, digits, perm, &mut b, &mut a);
    if alpha > basis {
        b.mod_down_to(ctx, basis);
        a.mod_down_to(ctx, basis);
    }
    (b, a)
}

/// `P_α·c` in the base basis.
fn times_special(ctx: &Context, c: &RnsPoly, alpha: usize) -> RnsPoly {
    let mut x = c.clone();
    x.mul_special_product_assign(ctx, 0..alpha);
    x
}

/// A ciphertext with its key-switch digit decomposition precomputed, ready
/// for cheap repeated rotations. It borrows the ciphertext it was built
/// from, which a rotation by a multiple of the slot count lifts to `P·c`.
pub struct HoistedDigits<'c> {
    /// Extended, NTT'd digits of `c1` in groups of α limbs, `digits[α−1]`:
    /// the level's own α(ℓ) decomposed by [`Self::new`], another α (a key
    /// with no gadget of this level's class) on its first rotation.
    digits: Vec<OnceLock<Vec<RnsPoly>>>,
    /// `P·c0` (base basis, `P = P_α(ℓ)`): what every non-zero rotation
    /// seeds the `b` part of its key-switch with, so `σ(c0)` rides through
    /// the extended basis and comes back out of the ModDown exactly (see
    /// [`key_switch_ext`]).
    c0_p: RnsPoly,
    /// The source ciphertext.
    ct: &'c Ciphertext,
}

impl<'c> HoistedDigits<'c> {
    /// Precomputes the decomposition of `ct` (the "hoisted" part), in
    /// digits of `α(ℓ)` limbs over `Q_ℓ·P_α(ℓ)`.
    pub fn new(ctx: &Context, ct: &'c Ciphertext) -> Self {
        let alpha = ctx.alpha(ct.level());
        let digits: Vec<OnceLock<Vec<RnsPoly>>> =
            ctx.special.iter().map(|_| OnceLock::new()).collect();
        let _ = digits[alpha - 1].set(decompose_digits(ctx, &ct.c1, alpha));
        Self {
            digits,
            c0_p: times_special(ctx, &ct.c0, alpha),
            ct,
        }
    }

    /// The digits in groups of `alpha` limbs, decomposed on first use.
    fn digits(&self, ctx: &Context, alpha: usize) -> &[RnsPoly] {
        self.digits[alpha - 1].get_or_init(|| decompose_digits(ctx, &self.ct.c1, alpha))
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
        let digits = self.digits(ctx, key.alpha_at(ctx, self.level()));
        let basis = ctx.alpha(self.level());
        let (b, a) = key_switch_ext(ctx, digits, key, Some(&perm), seed, basis);
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
    /// The rotation-by-0 view of a ciphertext at level ℓ, `(P·c0, P·c1)`
    /// with `P = P_α(ℓ)` and zero special limbs: the shape of every
    /// key-switched rotation, whose `b` part is seeded with `P·σ(c0)`,
    /// without a digit decomposition. Its ModDown is `ct` bit for bit, so a
    /// consumer holding the ciphertext itself can build this directly.
    pub fn identity(ctx: &Context, ct: &Ciphertext) -> Self {
        let alpha = ctx.alpha(ct.level());
        let extend = |c: &RnsPoly| RnsPoly {
            special: (0..alpha)
                .map(|_| orion_math::arena::take_u64(ctx.degree()))
                .collect(),
            ..times_special(ctx, c, alpha)
        };
        RotatedExt {
            b: extend(&ct.c0),
            a: extend(&ct.c1),
            scale: ct.scale,
        }
    }

    /// The rotated ciphertext: both parts out of the extended basis.
    #[cfg(test)]
    pub(crate) fn mod_down(self, ctx: &Context) -> Ciphertext {
        let (mut c0, mut c1) = (self.b, self.a);
        c0.mod_down_special_assign(ctx);
        c1.mod_down_special_assign(ctx);
        Ciphertext {
            c0,
            c1,
            scale: self.scale,
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
    /// Chain limbs `0..=level`, then the special limbs.
    limbs: Vec<WideLimb>,
    /// How many of `limbs` are chain limbs.
    n_chain: usize,
}

impl WidePoly {
    fn zero(ctx: &Context, level: usize) -> Self {
        let n = ctx.degree();
        let special = &ctx.special[..ctx.alpha(level)];
        let moduli = ctx.moduli[..=level].iter().chain(special);
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
    /// at a higher level; its extra chain limbs are not read.
    fn mac(&mut self, x: &RnsPoly, y: &RnsPoly) {
        assert_eq!(x.form, Form::Eval);
        assert_eq!(y.form, Form::Eval);
        let n_chain = self.n_chain;
        let n_special = self.limbs.len() - n_chain;
        assert_eq!(x.limbs.len(), n_chain, "level mismatch");
        assert!(y.limbs.len() >= n_chain, "level mismatch");
        assert_eq!(x.special.len(), n_special, "extended operand");
        assert_eq!(
            y.special.len(),
            n_special,
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
        let special = limbs.split_off(self.n_chain);
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
    /// must carry the level's special limbs (encode with `with_special = true`).
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

/// [`decompose_digits`] by exact integers: digit `g`'s value `Σ_k
/// c([c_k·(Q_g/q_k)⁻¹]_{q_k})·(Q_g/q_k)` (the centred CRT sum before its
/// reduction mod `Q_g`, which is what the fast conversion extends)
/// evaluated as a signed multiprecision integer and reduced with `%` into
/// every limb, own limbs included, then transformed: the strict reference
/// of the ModUp.
#[cfg(test)]
pub(crate) fn decompose_digits_reference(ctx: &Context, c: &RnsPoly, alpha: usize) -> Vec<RnsPoly> {
    use orion_math::modular::{inv_mod, mul_mod, sub_mod};
    /// `x·m` on little-endian 64-bit words.
    fn mul(x: &[u64], m: u64) -> Vec<u64> {
        let mut carry = 0u128;
        let mut out: Vec<u64> = x
            .iter()
            .map(|&w| {
                let t = w as u128 * m as u128 + carry;
                carry = t >> 64;
                t as u64
            })
            .collect();
        out.push(carry as u64);
        out
    }
    fn add(x: &mut Vec<u64>, y: &[u64]) {
        x.resize(x.len().max(y.len()) + 1, 0);
        let mut carry = 0u128;
        for (i, w) in x.iter_mut().enumerate() {
            let t = *w as u128 + *y.get(i).unwrap_or(&0) as u128 + carry;
            *w = t as u64;
            carry = t >> 64;
        }
    }
    fn rem(x: &[u64], q: u64) -> u64 {
        x.iter()
            .rev()
            .fold(0u128, |r, &w| ((r << 64) | w as u128) % q as u128) as u64
    }
    let level = c.level();
    let n = ctx.degree();
    let extended_digit = |g: usize| {
        let own = digit_limbs(g, alpha, level);
        let moduli = &ctx.moduli[own.clone()];
        // Q_g / q_k as an integer
        let hat: Vec<Vec<u64>> = (0..moduli.len())
            .map(|k| {
                let others = moduli.iter().enumerate().filter(|&(i, _)| i != k);
                others.fold(vec![1u64], |h, (_, &q)| mul(&h, q))
            })
            .collect();
        let coeffs: Vec<Vec<u64>> = own
            .clone()
            .map(|i| {
                let mut limb = c.limbs[i].clone();
                ctx.ntt[i].inverse_lazy(&mut limb);
                limb
            })
            .collect();
        // every coefficient's value as (positive part, negative part)
        let values: Vec<(Vec<u64>, Vec<u64>)> = (0..n)
            .map(|t| {
                let (mut pos, mut neg) = (vec![0u64], vec![0u64]);
                for (k, &q) in moduli.iter().enumerate() {
                    let v = mul_mod(coeffs[k][t], inv_mod(rem(&hat[k], q), q), q);
                    match v > q / 2 {
                        false => add(&mut pos, &mul(&hat[k], v)),
                        true => add(&mut neg, &mul(&hat[k], q - v)),
                    }
                }
                (pos, neg)
            })
            .collect();
        let extend = |q: u64, table: &orion_math::NttTable| -> Vec<u64> {
            let mut l: Vec<u64> = (values.iter())
                .map(|(pos, neg)| sub_mod(rem(pos, q), rem(neg, q), q))
                .collect();
            table.forward_lazy(&mut l);
            l
        };
        RnsPoly {
            limbs: (0..=level)
                .map(|j| extend(ctx.moduli[j], &ctx.ntt[j]))
                .collect(),
            special: (0..alpha)
                .map(|s| extend(ctx.special[s], &ctx.special_ntt[s]))
                .collect(),
            form: Form::Eval,
        }
    };
    (0..digit_count(level, alpha)).map(extended_digit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::{KeyGenerator, KeyManifest};
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
        kg: KeyGenerator<StdRng>,
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
            kg,
            rng: StdRng::seed_from_u64(32),
        }
    }

    /// An evaluator whose keys for `rotations` sit at `level`.
    fn keyed_at(h: &mut H, rotations: &[isize], level: usize) -> Evaluator {
        let keys =
            h.kg.gen_eval_keys_at(&KeyManifest::uniform(rotations, level));
        Evaluator::new(h.ctx.clone(), Arc::new(keys))
    }

    #[test]
    fn hoisted_rotation_matches_plain_rotation() {
        // Top-level keys: below level 2 their α differs from the
        // ciphertext's, and the hoisted rotation is the plain one lifted.
        let mut h = setup(&[1, 7]);
        let n = h.ctx.slots();
        let a: Vec<f64> = (0..n).map(|i| ((i * 3) % 11) as f64 * 0.2).collect();
        for level in 0..=h.ctx.max_level() {
            let ct = h
                .encryptor
                .encrypt(&h.enc.encode(&a, h.ctx.scale(), level, false), &mut h.rng);
            let hd = HoistedDigits::new(&h.ctx, &ct);
            for k in [0isize, 1, 7] {
                let via_hoist = hd.rotate_ext(&h.eval, k).mod_down(&h.ctx);
                let via_plain = h.eval.rotate(&ct, k);
                assert!(
                    via_hoist.c0 == via_plain.c0,
                    "k={k} level {level}: c0 differs"
                );
                assert!(
                    via_hoist.c1 == via_plain.c1,
                    "k={k} level {level}: c1 differs"
                );
                assert_eq!(via_hoist.scale.to_bits(), via_plain.scale.to_bits());
            }
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
            let got = rot.mod_down(&h.ctx);
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
        let alpha = h.ctx.alpha(level);
        Plaintext {
            poly: RnsPoly::sample_uniform(&h.ctx, level, Form::Eval, alpha, &mut h.rng),
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
        for (s, dst) in acc.special.iter_mut().enumerate() {
            mac(dst, &x.special[s], &y.special[s], ctx.special[s]);
        }
    }

    /// The key-switch inner product of rotation `k` of `ct` alone, without
    /// the `P·σ(c0)` seed, by the strict references — the exact-integer
    /// ModUp with the key's α, the digits permuted, then
    /// [`KeySwitchKey::inner_product`] — in the key's basis, and the
    /// permutation it used.
    fn bare_key_switch(
        ctx: &Context,
        eval: &Evaluator,
        ct: &Ciphertext,
        k: isize,
    ) -> (RnsPoly, RnsPoly, Arc<simd::Permutation>) {
        let g = ctx.galois_element(k);
        let perm = ctx.galois_permutation(g);
        let key = eval.keys().try_rotation(g, ct.level()).unwrap();
        let digits = decompose_digits_reference(ctx, &ct.c1, key.alpha_at(ctx, ct.level()));
        let pds: Vec<RnsPoly> = digits.iter().map(|d| d.automorphism_eval(&perm)).collect();
        let (ks_b, ks_a) = key.inner_product(ctx, &pds);
        (ks_b, ks_a, perm)
    }

    /// The accumulation as it was before the wide lanes, strictly: every
    /// term reduced as it is added, key-switch parts in the extended basis,
    /// every `pt ⊙ σ(c0)` in the base basis, then ModDown and add. The keys
    /// must share the ciphertext level's α.
    fn strict_reference(
        h: &H,
        eval: &Evaluator,
        ct: &Ciphertext,
        terms: &[(isize, Plaintext)],
    ) -> Ciphertext {
        let ctx = &h.ctx;
        let level = ct.level();
        let alpha = ctx.alpha(level);
        let mut b_ext = RnsPoly::zero(ctx, level, Form::Eval, alpha);
        let mut a_ext = RnsPoly::zero(ctx, level, Form::Eval, alpha);
        let mut b_base = RnsPoly::zero(ctx, level, Form::Eval, 0);
        let mut a_base = RnsPoly::zero(ctx, level, Form::Eval, 0);
        for (k, pt) in terms {
            if *k == 0 {
                strict_mac(ctx, &mut b_base, &ct.c0, &pt.poly);
                strict_mac(ctx, &mut a_base, &ct.c1, &pt.poly);
            } else {
                let (ks_b, ks_a, perm) = bare_key_switch(ctx, eval, ct, *k);
                strict_mac(ctx, &mut b_ext, &ks_b, &pt.poly);
                strict_mac(ctx, &mut a_ext, &ks_a, &pt.poly);
                strict_mac(ctx, &mut b_base, &ct.c0.automorphism_eval(&perm), &pt.poly);
            }
        }
        b_ext.mod_down_special_assign(ctx);
        a_ext.mod_down_special_assign(ctx);
        b_base.add_assign(&b_ext, ctx);
        a_base.add_assign(&a_ext, ctx);
        Ciphertext {
            c0: b_base,
            c1: a_base,
            scale: ct.scale,
        }
    }

    /// Accumulates `terms` through both entry points — per-term key-switch,
    /// and one shared `RotatedExt` per distinct rotation — and checks both
    /// against the strict reference, limb for limb.
    fn assert_matches_reference(
        h: &H,
        eval: &Evaluator,
        ct: &Ciphertext,
        terms: &[(isize, Plaintext)],
    ) {
        let level = ct.level();
        let hd = HoistedDigits::new(&h.ctx, ct);
        let mut per_term = ExtAccumulator::new(&h.ctx, level);
        let mut shared = ExtAccumulator::new(&h.ctx, level);
        let mut rotations: std::collections::HashMap<isize, RotatedExt> = Default::default();
        for (k, pt) in terms {
            per_term.add_rotated_pmult(eval, &hd, *k, pt);
            let rot = rotations.entry(*k).or_insert_with(|| {
                if *k == 0 {
                    RotatedExt::identity(&h.ctx, ct)
                } else {
                    hd.rotate_ext(eval, *k)
                }
            });
            shared.add_pmult_rotated(eval, rot, pt);
        }
        let per_term = per_term.finalize(eval);
        let shared = shared.finalize(eval);
        let want = strict_reference(h, eval, ct, terms);
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
        let mut h = setup(&[]);
        for level in 0..=h.ctx.max_level() {
            let eval = keyed_at(&mut h, &[1, 2], level);
            let ct = fresh_ct(&mut h, level);
            // Mixed, identity-only and extended-only groups.
            for ks in [&[0isize, 1, 2, 1, 0, 2, 1][..], &[0, 0, 0], &[1, 2, 1]] {
                let terms: Vec<(isize, Plaintext)> =
                    ks.iter().map(|&k| (k, uniform_pt(&mut h, level))).collect();
                assert_matches_reference(&h, &eval, &ct, &terms);
            }
        }
    }

    #[test]
    fn rotate_equals_permuted_c0_plus_moddown() {
        // The hybrid key switch against its strict reference (exact-integer
        // ModUp + `KeySwitchKey::inner_product`) at every level, with keys
        // at that level and at the top, on 45-bit limbs and with a 61-bit
        // q₀ and special primes (the scalar bodies).
        let wide = CkksParams {
            q0_bits: 61,
            special_bits: 61,
            ..CkksParams::tiny()
        };
        for params in [CkksParams::tiny(), wide] {
            let mut h = setup_with(params, &[1, 2]);
            for level in 0..=h.ctx.max_level() {
                let at_level = keyed_at(&mut h, &[1, 2], level);
                let ct = fresh_ct(&mut h, level);
                let hd = HoistedDigits::new(&h.ctx, &ct);
                for eval in [&at_level, &h.eval] {
                    for k in [1isize, 2] {
                        let (mut ks_b, mut ks_a, perm) = bare_key_switch(&h.ctx, eval, &ct, k);
                        // to the level's basis, then out of it
                        let level_alpha = h.ctx.alpha(level);
                        for ks in [&mut ks_b, &mut ks_a] {
                            if ks.special.len() > level_alpha {
                                ks.mod_down_to(&h.ctx, level_alpha);
                            }
                            ks.mod_down_special_assign(&h.ctx);
                        }
                        let mut c0 = ct.c0.automorphism_eval(&perm);
                        c0.add_assign(&ks_b, &h.ctx);
                        let hoisted = hd.rotate_ext(eval, k).mod_down(&h.ctx);
                        for (name, got) in [("hoisted", hoisted), ("plain", eval.rotate(&ct, k))] {
                            assert!(
                                got.c0 == c0 && got.c1 == ks_a,
                                "{name}: k={k} level {level}, q0 = {}",
                                h.ctx.moduli[0]
                            );
                        }
                    }
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
        let bound = simd::wide_fold_bound(h.ctx.special[0].max(h.ctx.moduli[0]));
        assert!((4..=8).contains(&bound), "bound {bound}");
        let level = 2;
        let ct = fresh_ct(&mut h, level);
        let terms: Vec<(isize, Plaintext)> = (0..3 * bound + 2)
            .map(|t| ((t % 3 != 0) as isize, uniform_pt(&mut h, level)))
            .collect();
        assert_matches_reference(&h, &h.eval, &ct, &terms);
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
        let bound = simd::wide_fold_bound(h.ctx.special[0].max(h.ctx.moduli[0])) as usize;
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
        // The fast ModUp (own limbs copied, the others converted) against
        // the exact-integer reference, for every α a key of the chain can
        // have, at every level.
        let medium_2_11 = CkksParams {
            n: 1 << 11,
            ..CkksParams::medium()
        };
        for params in [CkksParams::tiny(), CkksParams::small(), medium_2_11] {
            let ctx = Context::new(params);
            let mut rng = StdRng::seed_from_u64(0xd161);
            for level in 0..=ctx.max_level() {
                let c = RnsPoly::sample_uniform(&ctx, level, Form::Eval, 0, &mut rng);
                for alpha in 1..=ctx.special.len() {
                    let got = decompose_digits(&ctx, &c, alpha);
                    let want = decompose_digits_reference(&ctx, &c, alpha);
                    assert_eq!(got.len(), digit_count(level, alpha));
                    assert_eq!(got.len(), want.len());
                    for (g, (x, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(x.limbs, w.limbs, "digit {g} at level {level}, α {alpha}");
                        assert_eq!(
                            x.special, w.special,
                            "digit {g} at level {level}, α {alpha}"
                        );
                    }
                }
            }
        }
    }
}
