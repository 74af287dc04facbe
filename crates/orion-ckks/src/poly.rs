//! RNS polynomials in `Z_Q[X]/(X^N + 1)`.
//!
//! A polynomial at level ℓ is stored as ℓ+1 limbs (one residue vector per
//! chain modulus), optionally extended by limbs over the first α special
//! primes (the basis `Q·P_α` of key switching). Limbs live either in
//! coefficient or evaluation (NTT) representation; see paper §2.4–2.5.

use crate::params::Context;
use orion_math::modular::{
    add_mod, inv_mod, mul_mod, neg_mod, reduce_i128, shoup_precompute, Barrett,
};
use orion_math::ntt::NttTable;
use orion_math::simd;
use orion_telemetry::{time_class, OpClass};
use rand::Rng;

/// Representation of the limbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// Coefficient representation.
    Coeff,
    /// Evaluation (NTT) representation.
    Eval,
}

/// An RNS polynomial. `limbs[j]` holds the residues modulo `ctx.moduli[j]`
/// for `j ≤ level`; `special[k]` holds the residues modulo
/// `ctx.special[k]`, for the first `special.len()` special primes.
#[derive(Clone, Debug, PartialEq)]
pub struct RnsPoly {
    /// Chain limbs, lowest modulus first. `limbs.len() == level + 1`.
    pub limbs: Vec<Vec<u64>>,
    /// Special-prime limbs (key-switching basis extension), `p_0` first;
    /// empty in the base basis.
    pub special: Vec<Vec<u64>>,
    /// Current representation of every limb.
    pub form: Form,
}

/// The fast base conversion out of the limbs over `src` (Halevi–Polyakov–
/// Shoup; the ModUp and ModDown of hybrid key switching): a value `x` mod
/// `S = Π s_k`, its limbs first scaled by `(S/s_k)⁻¹ mod s_k`
/// ([`Self::scale`]), becomes `Σ_k c(v_k)·(S/s_k)` mod any target `q`
/// through [`simd::Kernels::base_conv`] with the factors [`Self::hat`].
pub(crate) struct BaseConv<'a> {
    src: &'a [u64],
    /// `(S/s_k)⁻¹ mod s_k`.
    inv: Vec<u64>,
}

impl<'a> BaseConv<'a> {
    pub(crate) fn new(src: &'a [u64]) -> Self {
        let inv = (0..src.len())
            .map(|k| inv_mod(Self::hat_k(src, k, src[k]), src[k]))
            .collect();
        Self { src, inv }
    }

    /// `S/s_k mod q`.
    fn hat_k(src: &[u64], k: usize, q: u64) -> u64 {
        let others = src.iter().enumerate().filter(|&(i, _)| i != k);
        others.fold(1 % q, |acc, (_, &s)| mul_mod(acc, s % q, q))
    }

    /// Multiplies limb `k` (coefficient form) by `(S/s_k)⁻¹ mod s_k` in
    /// place — nothing to do for one limb, whose factor is 1.
    pub(crate) fn scale(&self, limbs: &mut [impl AsMut<[u64]>]) {
        if self.src.len() == 1 {
            return;
        }
        let k = simd::kernels();
        for ((limb, &s), &inv) in limbs.iter_mut().zip(self.src).zip(&self.inv) {
            (k.scalar_mul_assign)(limb.as_mut(), inv, shoup_precompute(inv, s), s);
        }
    }

    /// The factors `S/s_k mod q` of a conversion into `q`.
    pub(crate) fn hat(&self, q: u64) -> Vec<u64> {
        (0..self.src.len())
            .map(|k| Self::hat_k(self.src, k, q))
            .collect()
    }
}

impl RnsPoly {
    /// The all-zero polynomial at `level` with `specials` special limbs.
    /// Limb buffers come from the thread-local arena, so accumulator-heavy
    /// loops (key-switching) recycle instead of allocating.
    pub fn zero(ctx: &Context, level: usize, form: Form, specials: usize) -> Self {
        let n = ctx.degree();
        let take = |_| orion_math::arena::take_u64(n);
        Self {
            limbs: (0..=level).map(take).collect(),
            special: (0..specials).map(take).collect(),
            form,
        }
    }

    /// Returns every limb buffer to the thread-local arena. Calling this on
    /// hot-loop temporaries is what makes [`RnsPoly::zero`] (and the arena
    /// paths in `automorphism_eval`/`mul_pointwise`) allocation-free in
    /// steady state; dropping a polynomial normally is always still
    /// correct, just a missed reuse.
    pub fn recycle(self) {
        for limb in self.limbs.into_iter().chain(self.special) {
            orion_math::arena::recycle_u64(limb);
        }
    }

    /// Current level ℓ (= number of limbs − 1).
    pub fn level(&self) -> usize {
        self.limbs.len() - 1
    }

    /// Whether any special limb is present.
    pub fn has_special(&self) -> bool {
        !self.special.is_empty()
    }

    /// Limb `j` counting the chain limbs first, then the special ones.
    fn limb(&self, j: usize) -> &[u64] {
        match j.checked_sub(self.limbs.len()) {
            None => &self.limbs[j],
            Some(k) => &self.special[k],
        }
    }

    /// Builds a polynomial from signed coefficients (reduced per modulus,
    /// one [`Barrett`] constant per limb) at `level`, with `specials`
    /// special limbs.
    pub fn from_signed(ctx: &Context, coeffs: &[i128], level: usize, specials: usize) -> Self {
        let n = ctx.degree();
        assert_eq!(coeffs.len(), n);
        let reduce = |&q: &u64| -> Vec<u64> {
            let br = Barrett::new(q);
            coeffs.iter().map(|&c| br.reduce_i128(c)).collect()
        };
        Self {
            limbs: ctx.moduli[..=level].iter().map(reduce).collect(),
            special: ctx.special[..specials].iter().map(reduce).collect(),
            form: Form::Coeff,
        }
    }

    /// Samples every limb uniformly (already valid in either form; we tag
    /// the requested one), chain limbs first.
    pub fn sample_uniform<R: Rng>(
        ctx: &Context,
        level: usize,
        form: Form,
        specials: usize,
        rng: &mut R,
    ) -> Self {
        let n = ctx.degree();
        let mut draw = |&q: &u64| -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..q)).collect() };
        let limbs = ctx.moduli[..=level].iter().map(&mut draw).collect();
        let special = ctx.special[..specials].iter().map(&mut draw).collect();
        Self {
            limbs,
            special,
            form,
        }
    }

    /// Samples a ternary polynomial (coefficients in {−1, 0, 1}) in
    /// coefficient form, replicated across all limbs.
    pub fn sample_ternary<R: Rng>(
        ctx: &Context,
        level: usize,
        specials: usize,
        rng: &mut R,
    ) -> Self {
        let n = ctx.degree();
        let signed: Vec<i128> = (0..n).map(|_| rng.gen_range(-1i128..=1)).collect();
        Self::from_signed(ctx, &signed, level, specials)
    }

    /// Samples a rounded-Gaussian error polynomial (σ from the params).
    pub fn sample_gaussian<R: Rng>(
        ctx: &Context,
        level: usize,
        specials: usize,
        rng: &mut R,
    ) -> Self {
        let n = ctx.degree();
        let sigma = ctx.params.sigma;
        let signed: Vec<i128> = (0..n)
            .map(|_| {
                // Box–Muller
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen::<f64>();
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (g * sigma).round() as i128
            })
            .collect();
        Self::from_signed(ctx, &signed, level, specials)
    }

    /// One `(table, limb)` NTT job per limb (special included).
    fn ntt_jobs<'a>(
        &'a mut self,
        ctx: &'a Context,
    ) -> impl Iterator<Item = (&'a NttTable, &'a mut Vec<u64>)> {
        let special = ctx.special_ntt.iter().zip(&mut self.special);
        ctx.ntt.iter().zip(&mut self.limbs).chain(special)
    }

    /// Converts all limbs to evaluation form (no-op if already there),
    /// with the lazy-reduction butterflies (bit-identical to the strict
    /// path).
    pub fn to_eval(&mut self, ctx: &Context) {
        if self.form == Form::Eval {
            return;
        }
        time_class(OpClass::NttFwd, || {
            for (t, a) in self.ntt_jobs(ctx) {
                t.forward_lazy(a);
            }
        });
        self.form = Form::Eval;
    }

    /// Converts all limbs to coefficient form (no-op if already there).
    pub fn to_coeff(&mut self, ctx: &Context) {
        if self.form == Form::Coeff {
            return;
        }
        time_class(OpClass::NttInv, || {
            for (t, a) in self.ntt_jobs(ctx) {
                t.inverse_lazy(a);
            }
        });
        self.form = Form::Coeff;
    }

    fn check_compat(&self, other: &Self) {
        assert_eq!(self.form, other.form, "form mismatch");
        assert_eq!(self.limbs.len(), other.limbs.len(), "level mismatch");
        assert_eq!(
            self.special.len(),
            other.special.len(),
            "special-limb mismatch"
        );
    }

    /// Runs `op(modulus, dst_limb, j)` over every chain limb, then the
    /// special ones (with `j = limbs.len() + k` for special limb `k`).
    pub(crate) fn for_each_limb_mut(
        &mut self,
        ctx: &Context,
        mut op: impl FnMut(u64, &mut [u64], usize),
    ) {
        let n_chain = self.limbs.len();
        for (j, limb) in self.limbs.iter_mut().enumerate() {
            op(ctx.moduli[j], limb, j);
        }
        for (k, limb) in self.special.iter_mut().enumerate() {
            op(ctx.special[k], limb, n_chain + k);
        }
    }

    /// `self += other` (limbwise).
    pub fn add_assign(&mut self, other: &Self, ctx: &Context) {
        self.check_compat(other);
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            self.for_each_limb_mut(ctx, |q, a, j| (k.add_assign)(a, other.limb(j), q));
        });
    }

    /// `self -= other` (limbwise).
    pub fn sub_assign(&mut self, other: &Self, ctx: &Context) {
        self.check_compat(other);
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            self.for_each_limb_mut(ctx, |q, a, j| (k.sub_assign)(a, other.limb(j), q));
        });
    }

    /// Negates in place.
    pub fn neg_assign(&mut self, ctx: &Context) {
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            self.for_each_limb_mut(ctx, |q, a, _| {
                (k.neg_assign)(a, q);
            });
        });
    }

    /// Pointwise product (both operands must be in evaluation form).
    pub fn mul_pointwise(&self, other: &Self, ctx: &Context) -> Self {
        assert_eq!(self.form, Form::Eval);
        self.check_compat(other);
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            let product = |((a, b), &q): ((&Vec<u64>, &Vec<u64>), &u64)| -> Vec<u64> {
                let mut out = orion_math::arena::take_u64_raw(a.len());
                (k.mul_pointwise)(&mut out, a, b, q);
                out
            };
            let limbs = self.limbs.iter().zip(&other.limbs).zip(&ctx.moduli);
            let special = self.special.iter().zip(&other.special).zip(&ctx.special);
            Self {
                limbs: limbs.map(product).collect(),
                special: special.map(product).collect(),
                form: Form::Eval,
            }
        })
    }

    /// Multiplies every limb by `scalar mod q_j`. The per-limb residue is
    /// fixed, so each limb runs on a vectorized Shoup multiply (one
    /// precompute division per limb, amortized over the degree).
    pub fn mul_scalar_assign(&mut self, scalar: i128, ctx: &Context) {
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            self.for_each_limb_mut(ctx, |q, a, _| {
                let s = reduce_i128(scalar, q);
                let s_sh = shoup_precompute(s, q);
                (k.scalar_mul_assign)(a, s, s_sh, q);
            });
        });
    }

    /// Multiplies a base-basis polynomial by `Π_{s ∈ primes} p_s`, one
    /// scalar per limb: with `primes = 0..α`, `P_α·x`, whose ModDown by
    /// `P_α` is `x` exactly.
    pub fn mul_special_product_assign(&mut self, ctx: &Context, primes: std::ops::Range<usize>) {
        assert!(self.special.is_empty(), "P·x is taken in the base basis");
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            self.for_each_limb_mut(ctx, |q, a, _| {
                let s = ctx.special_product(primes.clone(), q);
                (k.scalar_mul_assign)(a, s, shoup_precompute(s, q), q);
            });
        });
    }

    /// Puts every limb (special included) into Montgomery form,
    /// `x·2⁶⁴ mod q_j` — the form key-switching keys are stored in.
    pub fn to_montgomery_assign(&mut self, ctx: &Context) {
        time_class(OpClass::Pointwise, || {
            self.for_each_limb_mut(ctx, |q, a, _| simd::to_montgomery(a, q));
        });
    }

    /// Adds the constant polynomial `scalar` (evaluation form only: a
    /// constant evaluates to itself at every point, so every entry of every
    /// limb gains `scalar mod q_j`).
    pub fn add_scalar_assign(&mut self, scalar: i128, ctx: &Context) {
        assert_eq!(self.form, Form::Eval);
        time_class(OpClass::Pointwise, || {
            self.for_each_limb_mut(ctx, |q, a, _| {
                let s = reduce_i128(scalar, q);
                for x in a.iter_mut() {
                    *x = add_mod(*x, s, q);
                }
            });
        });
    }

    /// Applies the Galois automorphism `a(X) → a(X^g)` in coefficient form.
    pub fn automorphism_coeff(&self, g: usize, ctx: &Context) -> Self {
        assert_eq!(self.form, Form::Coeff);
        let n = ctx.degree();
        let m = 2 * n;
        let map: Vec<(usize, bool)> = (0..n)
            .map(|j| {
                let t = (j * g) % m;
                if t < n {
                    (t, false)
                } else {
                    (t - n, true)
                }
            })
            .collect();
        let mut out = self.clone();
        out.for_each_limb_mut(ctx, |q, dst, jq| {
            let src = self.limb(jq);
            for (j, &(t, negate)) in map.iter().enumerate() {
                dst[t] = if negate { neg_mod(src[j], q) } else { src[j] };
            }
        });
        out
    }

    /// Applies a Galois automorphism in evaluation form via the context's
    /// permutation table: `out[i] = in[perm[i]]` in every limb.
    pub fn automorphism_eval(&self, perm: &simd::Permutation) -> Self {
        assert_eq!(self.form, Form::Eval);
        let apply = |src: &Vec<u64>| -> Vec<u64> {
            let mut out = orion_math::arena::take_u64_raw(src.len());
            for (o, &j) in out.iter_mut().zip(perm.iter()) {
                *o = src[j as usize];
            }
            out
        };
        Self {
            limbs: self.limbs.iter().map(apply).collect(),
            special: self.special.iter().map(apply).collect(),
            form: Form::Eval,
        }
    }

    /// Divides by the top chain modulus and drops it (the CKKS rescale on
    /// one polynomial; paper §2.5.2). Works in evaluation form.
    pub fn rescale_assign(&mut self, ctx: &Context) {
        assert!(self.level() >= 1, "cannot rescale at level 0");
        assert!(self.special.is_empty(), "ModDown the special limbs first");
        let l = self.level();
        let top = self.limbs.pop().expect("top limb");
        self.divide_by_dropped(ctx, vec![top], &ctx.moduli[l..=l], &ctx.ntt[l..=l], |j| {
            ctx.rescale_constant(l, j)
        });
    }

    /// Removes the special limbs, dividing the polynomial by their product
    /// `P_α` with rounding (the ModDown step after key-switching).
    pub fn mod_down_special_assign(&mut self, ctx: &Context) {
        assert!(self.has_special(), "no special limb to remove");
        self.mod_down_to(ctx, 0);
    }

    /// Removes the special limbs `keep..`, dividing the polynomial by
    /// their product with rounding: from `Q·P_α` to `Q·P_keep`.
    pub fn mod_down_to(&mut self, ctx: &Context, keep: usize) {
        let alpha = self.special.len();
        assert!(keep < alpha, "no special limb above {keep} to remove");
        let dropped = self.special.split_off(keep);
        let (moduli, ntt) = (&ctx.special[keep..alpha], &ctx.special_ntt[keep..alpha]);
        // kept limb j is modulus j of the chain, then p_{j − n_chain}
        let n_chain = self.limbs.len();
        let shift = ctx.moduli.len() - n_chain;
        self.divide_by_dropped(ctx, dropped, moduli, ntt, |j| {
            let m = if j < n_chain { j } else { j + shift };
            ctx.special_product_inv(keep..alpha, m)
        });
    }

    /// The one divide-and-drop body: `dropped` are limbs already taken off
    /// `self` (evaluation form, over `moduli` with NTT tables `ntt`, whose
    /// product is `D`) and `inv(j)` is `D⁻¹` modulo kept limb `j`'s modulus
    /// (chain limbs, then special ones); every kept limb becomes `(limb −
    /// [dropped]_D) · inv`, where `[dropped]_D` is the centred fast base
    /// conversion of the dropped limbs ([`BaseConv`]): `≡ x (mod D)`, so
    /// the difference divides exactly, and within `|dropped|/2` of the
    /// rounded quotient (exact rounding for one limb).
    fn divide_by_dropped(
        &mut self,
        ctx: &Context,
        mut dropped: Vec<Vec<u64>>,
        moduli: &[u64],
        ntt: &[NttTable],
        inv: impl Fn(usize) -> u64,
    ) {
        assert_eq!(self.form, Form::Eval);
        // Bring the dropped limbs to coefficient form, pre-scaled for the
        // conversion.
        for (limb, table) in dropped.iter_mut().zip(ntt) {
            table.inverse_lazy(limb);
        }
        let conv = BaseConv::new(moduli);
        conv.scale(&mut dropped);
        let src: Vec<&[u64]> = dropped.iter().map(Vec::as_slice).collect();
        // Every kept limb converts the dropped ones directly into one
        // reused buffer, then folds it in after one forward NTT.
        let k = simd::kernels();
        let mut lifted = orion_math::arena::scratch_u64_raw(ctx.degree());
        let kept = (ctx.moduli.iter().zip(&ctx.ntt).zip(&mut self.limbs)).chain(
            ctx.special
                .iter()
                .zip(&ctx.special_ntt)
                .zip(&mut self.special),
        );
        for (j, ((&q, table), limb)) in kept.enumerate() {
            let inv = inv(j);
            (k.base_conv)(&mut lifted, &src, moduli, &conv.hat(q), true, q);
            table.forward_lazy(&mut lifted);
            (k.sub_mul_assign)(limb, &lifted, inv, shoup_precompute(inv, q), q);
        }
        for limb in dropped {
            orion_math::arena::recycle_u64(limb);
        }
    }

    /// Drops limbs above `level` (a free level drop — no scaling).
    pub fn drop_to_level(&mut self, level: usize) {
        assert!(level <= self.level());
        self.limbs.truncate(level + 1);
    }

    /// A copy of `self` at `level`: `clone` + [`RnsPoly::drop_to_level`]
    /// without copying the limbs the drop throws away.
    pub fn dropped_to_level(&self, level: usize) -> Self {
        self.restricted(level, self.special.len())
    }

    /// [`RnsPoly::dropped_to_level`] without the special limbs: the chain
    /// limbs `0..=level` alone, what a client-side op (encryption,
    /// decryption) reads of the secret key.
    pub fn chain_to_level(&self, level: usize) -> Self {
        self.restricted(level, 0)
    }

    /// A copy of the chain limbs `0..=level` and the first `specials`
    /// special limbs: `self` in the basis `Q_level·P_specials`.
    pub fn restricted(&self, level: usize, specials: usize) -> Self {
        assert!(level <= self.level() && specials <= self.special.len());
        Self {
            limbs: self.limbs[..=level].to_vec(),
            special: self.special[..specials].to_vec(),
            form: self.form,
        }
    }

    /// Centered coefficient reconstruction from the lowest one or two
    /// limbs ([`orion_math::rns::crt_lift_centered`]). Only meaningful in
    /// coefficient form; used by decoding and tests.
    pub fn lift_centered(&self, ctx: &Context) -> Vec<i128> {
        assert_eq!(self.form, Form::Coeff);
        let use_limbs = self.limbs.len().min(2);
        let limbs: Vec<&[u64]> = self.limbs[..use_limbs].iter().map(Vec::as_slice).collect();
        orion_math::rns::crt_lift_centered(&limbs, &ctx.moduli[..use_limbs])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> std::sync::Arc<Context> {
        Context::new(CkksParams::tiny())
    }

    #[test]
    fn ntt_roundtrip_all_limbs() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let orig = RnsPoly::sample_uniform(&ctx, 3, Form::Coeff, 2, &mut rng);
        let mut p = orig.clone();
        p.to_eval(&ctx);
        assert_ne!(p, orig);
        p.to_coeff(&ctx);
        assert_eq!(p, orig);
    }

    #[test]
    fn add_sub_cancel() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let a = RnsPoly::sample_uniform(&ctx, 2, Form::Eval, 0, &mut rng);
        let b = RnsPoly::sample_uniform(&ctx, 2, Form::Eval, 0, &mut rng);
        let mut c = a.clone();
        c.add_assign(&b, &ctx);
        c.sub_assign(&b, &ctx);
        assert_eq!(c, a);
    }

    #[test]
    fn automorphism_coeff_matches_eval_permutation() {
        // The evaluation-domain permutation must agree with the coefficient
        // definition of a(X) -> a(X^g).
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let g = ctx.galois_element(1);
        let a = RnsPoly::sample_uniform(&ctx, 1, Form::Coeff, 0, &mut rng);
        let mut via_coeff = a.automorphism_coeff(g, &ctx);
        via_coeff.to_eval(&ctx);
        let mut ae = a.clone();
        ae.to_eval(&ctx);
        let via_eval = ae.automorphism_eval(&ctx.galois_permutation(g));
        assert_eq!(via_coeff, via_eval);
    }

    #[test]
    fn rescale_divides_by_top_modulus() {
        let ctx = ctx();
        // Construct a poly whose coefficients are exact multiples of q_l.
        let l = 2;
        let ql = ctx.moduli[l] as i128;
        let n = ctx.degree();
        let coeffs: Vec<i128> = (0..n).map(|i| (i as i128 % 17 - 8) * ql).collect();
        let mut p = RnsPoly::from_signed(&ctx, &coeffs, l, 0);
        p.to_eval(&ctx);
        p.rescale_assign(&ctx);
        p.to_coeff(&ctx);
        let lifted = p.lift_centered(&ctx);
        for (i, &c) in lifted.iter().enumerate() {
            assert_eq!(c, coeffs[i] / ql, "coeff {i}");
        }
    }

    #[test]
    fn mod_down_special_divides_by_p() {
        // by p_0, and by P = p_0·p_1
        let ctx = ctx();
        for alpha in 1..=ctx.special.len() {
            let p: i128 = ctx.special[..alpha].iter().map(|&p| p as i128).product();
            let n = ctx.degree();
            let coeffs: Vec<i128> = (0..n).map(|i| ((i as i128 % 11) - 5) * p).collect();
            let mut poly = RnsPoly::from_signed(&ctx, &coeffs, 1, alpha);
            poly.to_eval(&ctx);
            poly.mod_down_special_assign(&ctx);
            poly.to_coeff(&ctx);
            let lifted = poly.lift_centered(&ctx);
            for (i, &c) in lifted.iter().enumerate() {
                assert_eq!(c, coeffs[i] / p, "α = {alpha}");
            }
        }
    }

    #[test]
    fn mod_down_rounds_non_multiples() {
        // P·k + r maps to k when |r| < P/2 for one special prime, and to
        // within the α/2 of the centred conversion for two.
        let ctx = ctx();
        for alpha in 1..=ctx.special.len() {
            let p: i128 = ctx.special[..alpha].iter().map(|&p| p as i128).product();
            let n = ctx.degree();
            let coeffs: Vec<i128> = (0..n).map(|i| 7 * p + (i as i128 % 100) - 50).collect();
            let mut poly = RnsPoly::from_signed(&ctx, &coeffs, 0, alpha);
            poly.to_eval(&ctx);
            poly.mod_down_special_assign(&ctx);
            poly.to_coeff(&ctx);
            for &c in &poly.lift_centered(&ctx) {
                match alpha {
                    1 => assert_eq!(c, 7),
                    _ => assert!((c - 7).abs() <= 1, "α = {alpha}: {c}"),
                }
            }
        }
    }

    #[test]
    fn pointwise_mul_is_negacyclic() {
        // (X^{n/2})^2 = -1
        let ctx = ctx();
        let n = ctx.degree();
        let mut coeffs = vec![0i128; n];
        coeffs[n / 2] = 1;
        let mut a = RnsPoly::from_signed(&ctx, &coeffs, 1, 0);
        a.to_eval(&ctx);
        let mut sq = a.mul_pointwise(&a, &ctx);
        sq.to_coeff(&ctx);
        let lifted = sq.lift_centered(&ctx);
        assert_eq!(lifted[0], -1);
        assert!(lifted[1..].iter().all(|&c| c == 0));
    }
}
