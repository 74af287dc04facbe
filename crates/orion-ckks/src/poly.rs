//! RNS polynomials in `Z_Q[X]/(X^N + 1)`.
//!
//! A polynomial at level ℓ is stored as ℓ+1 limbs (one residue vector per
//! chain modulus), optionally extended by a limb over the special prime
//! (used inside key-switching). Limbs live either in coefficient or
//! evaluation (NTT) representation; see paper §2.4–2.5.

use crate::params::Context;
use orion_math::modular::{add_mod, neg_mod, reduce_i128, shoup_precompute, Barrett};
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
/// for `j ≤ level`; `special` (if present) holds residues modulo the
/// special prime.
#[derive(Clone, Debug, PartialEq)]
pub struct RnsPoly {
    /// Chain limbs, lowest modulus first. `limbs.len() == level + 1`.
    pub limbs: Vec<Vec<u64>>,
    /// Optional special-prime limb (key-switching basis extension).
    pub special: Option<Vec<u64>>,
    /// Current representation of every limb.
    pub form: Form,
}

impl RnsPoly {
    /// The all-zero polynomial at `level` (with a special limb if requested).
    /// Limb buffers come from the thread-local arena, so accumulator-heavy
    /// loops (key-switching) recycle instead of allocating.
    pub fn zero(ctx: &Context, level: usize, form: Form, with_special: bool) -> Self {
        let n = ctx.degree();
        Self {
            limbs: (0..=level)
                .map(|_| orion_math::arena::take_u64(n))
                .collect(),
            special: with_special.then(|| orion_math::arena::take_u64(n)),
            form,
        }
    }

    /// Returns every limb buffer to the thread-local arena. Calling this on
    /// hot-loop temporaries is what makes [`RnsPoly::zero`] (and the arena
    /// paths in `automorphism_eval`/`mul_pointwise`) allocation-free in
    /// steady state; dropping a polynomial normally is always still
    /// correct, just a missed reuse.
    pub fn recycle(self) {
        for limb in self.limbs {
            orion_math::arena::recycle_u64(limb);
        }
        if let Some(s) = self.special {
            orion_math::arena::recycle_u64(s);
        }
    }

    /// Current level ℓ (= number of limbs − 1).
    pub fn level(&self) -> usize {
        self.limbs.len() - 1
    }

    /// Whether the special limb is present.
    pub fn has_special(&self) -> bool {
        self.special.is_some()
    }

    /// Builds a polynomial from signed coefficients (reduced per modulus,
    /// one [`Barrett`] constant per limb).
    pub fn from_signed(ctx: &Context, coeffs: &[i128], level: usize, with_special: bool) -> Self {
        let n = ctx.degree();
        assert_eq!(coeffs.len(), n);
        let reduce = |q: u64| -> Vec<u64> {
            let br = Barrett::new(q);
            coeffs.iter().map(|&c| br.reduce_i128(c)).collect()
        };
        let limbs = ctx.moduli[..=level].iter().map(|&q| reduce(q)).collect();
        let special = with_special.then(|| reduce(ctx.special));
        Self {
            limbs,
            special,
            form: Form::Coeff,
        }
    }

    /// Samples every limb uniformly (already valid in either form; we tag
    /// the requested one).
    pub fn sample_uniform<R: Rng>(
        ctx: &Context,
        level: usize,
        form: Form,
        with_special: bool,
        rng: &mut R,
    ) -> Self {
        let n = ctx.degree();
        let limbs = (0..=level)
            .map(|j| {
                let q = ctx.moduli[j];
                (0..n).map(|_| rng.gen_range(0..q)).collect()
            })
            .collect();
        let special = with_special.then(|| {
            let p = ctx.special;
            (0..n).map(|_| rng.gen_range(0..p)).collect()
        });
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
        with_special: bool,
        rng: &mut R,
    ) -> Self {
        let n = ctx.degree();
        let signed: Vec<i128> = (0..n).map(|_| rng.gen_range(-1i128..=1)).collect();
        Self::from_signed(ctx, &signed, level, with_special)
    }

    /// Samples a rounded-Gaussian error polynomial (σ from the params).
    pub fn sample_gaussian<R: Rng>(
        ctx: &Context,
        level: usize,
        with_special: bool,
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
        Self::from_signed(ctx, &signed, level, with_special)
    }

    /// One `(table, limb)` NTT job per limb (special included).
    fn ntt_jobs<'a>(
        &'a mut self,
        ctx: &'a Context,
    ) -> impl Iterator<Item = (&'a NttTable, &'a mut Vec<u64>)> {
        let special = self.special.as_mut().map(|s| (&ctx.ntt_special, s));
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
            self.has_special(),
            other.has_special(),
            "special-limb mismatch"
        );
    }

    /// Runs `op(modulus, dst_limb, j)` over every chain limb, then the
    /// special one (with `j = limbs.len()`).
    pub(crate) fn for_each_limb_mut(
        &mut self,
        ctx: &Context,
        mut op: impl FnMut(u64, &mut [u64], usize),
    ) {
        let n_chain = self.limbs.len();
        for (j, limb) in self.limbs.iter_mut().enumerate() {
            op(ctx.moduli[j], limb, j);
        }
        if let Some(s) = &mut self.special {
            op(ctx.special, s, n_chain);
        }
    }

    /// `self += other` (limbwise).
    pub fn add_assign(&mut self, other: &Self, ctx: &Context) {
        self.check_compat(other);
        let n_chain = self.limbs.len();
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            self.for_each_limb_mut(ctx, |q, a, j| {
                let b = if j < n_chain {
                    &other.limbs[j]
                } else {
                    other.special.as_ref().unwrap()
                };
                (k.add_assign)(a, b, q);
            });
        });
    }

    /// `self -= other` (limbwise).
    pub fn sub_assign(&mut self, other: &Self, ctx: &Context) {
        self.check_compat(other);
        let n_chain = self.limbs.len();
        let k = simd::kernels();
        time_class(OpClass::Pointwise, || {
            self.for_each_limb_mut(ctx, |q, a, j| {
                let b = if j < n_chain {
                    &other.limbs[j]
                } else {
                    other.special.as_ref().unwrap()
                };
                (k.sub_assign)(a, b, q);
            });
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
            let product = |a: &[u64], b: &[u64], q: u64| -> Vec<u64> {
                let mut out = orion_math::arena::take_u64_raw(a.len());
                (k.mul_pointwise)(&mut out, a, b, q);
                out
            };
            let limbs = self
                .limbs
                .iter()
                .zip(&other.limbs)
                .zip(&ctx.moduli)
                .map(|((a, b), &q)| product(a, b, q))
                .collect();
            let special = match (&self.special, &other.special) {
                (Some(a), Some(b)) => Some(product(a, b, ctx.special)),
                _ => None,
            };
            Self {
                limbs,
                special,
                form: Form::Eval,
            }
        })
    }

    /// Multiplies every limb by a per-limb scalar (`scalars[j]` mod `q_j`,
    /// last entry for the special limb if present). The per-limb residue is
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
        for (jq, (src, dst)) in self.limbs.iter().zip(&mut out.limbs).enumerate() {
            let q = ctx.moduli[jq];
            for (j, &(t, negate)) in map.iter().enumerate() {
                dst[t] = if negate { neg_mod(src[j], q) } else { src[j] };
            }
        }
        if let (Some(src), Some(dst)) = (&self.special, &mut out.special) {
            let p = ctx.special;
            for (j, &(t, negate)) in map.iter().enumerate() {
                dst[t] = if negate { neg_mod(src[j], p) } else { src[j] };
            }
        }
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
            special: self.special.as_ref().map(apply),
            form: Form::Eval,
        }
    }

    /// Divides by the top chain modulus and drops it (the CKKS rescale on
    /// one polynomial; paper §2.5.2). Works in evaluation form.
    pub fn rescale_assign(&mut self, ctx: &Context) {
        assert!(self.level() >= 1, "cannot rescale at level 0");
        assert!(self.special.is_none(), "ModDown the special limb first");
        let l = self.level();
        let top = self.limbs.pop().expect("top limb");
        self.divide_by_dropped(ctx, top, ctx.moduli[l], &ctx.ntt[l], |j| {
            ctx.rescale_constant(l, j)
        });
    }

    /// Removes the special limb, dividing the polynomial by `p` with
    /// rounding (the ModDown step after key-switching).
    pub fn mod_down_special_assign(&mut self, ctx: &Context) {
        let sp = self.special.take().expect("no special limb to remove");
        self.divide_by_dropped(ctx, sp, ctx.special, &ctx.ntt_special, |j| {
            ctx.special_constant(j)
        });
    }

    /// The one divide-and-drop body: `dropped` is a limb already popped off
    /// `self` (evaluation form, modulus `q`, NTT table `ntt`) and `inv(j)`
    /// is `q⁻¹ mod q_j`; every kept limb becomes `(limb − [dropped]) · inv`.
    fn divide_by_dropped(
        &mut self,
        ctx: &Context,
        mut dropped: Vec<u64>,
        q: u64,
        ntt: &NttTable,
        inv: impl Fn(usize) -> u64,
    ) {
        assert_eq!(self.form, Form::Eval);
        // Bring the dropped limb to coefficient form.
        ntt.inverse_lazy(&mut dropped);
        // Every kept limb centers-and-reduces the shared dropped limb
        // directly (no i128 materialization) into one reused buffer, then
        // folds it in after one forward NTT.
        let k = simd::kernels();
        let mut lifted = orion_math::arena::scratch_u64_raw(dropped.len());
        for (j, limb) in self.limbs.iter_mut().enumerate() {
            let qj = ctx.moduli[j];
            let inv = inv(j);
            (k.centered_reduce)(&mut lifted, &dropped, q, qj);
            ctx.ntt[j].forward_lazy(&mut lifted);
            (k.sub_mul_assign)(limb, &lifted, inv, shoup_precompute(inv, qj), qj);
        }
        orion_math::arena::recycle_u64(dropped);
    }

    /// Drops limbs above `level` (a free level drop — no scaling).
    pub fn drop_to_level(&mut self, level: usize) {
        assert!(level <= self.level());
        self.limbs.truncate(level + 1);
    }

    /// A copy of `self` at `level`: `clone` + [`RnsPoly::drop_to_level`]
    /// without copying the limbs the drop throws away.
    pub fn dropped_to_level(&self, level: usize) -> Self {
        Self {
            special: self.special.clone(),
            ..self.chain_to_level(level)
        }
    }

    /// [`RnsPoly::dropped_to_level`] without the special limb: the chain
    /// limbs `0..=level` alone, what a client-side op (encryption,
    /// decryption) reads of the secret key.
    pub fn chain_to_level(&self, level: usize) -> Self {
        assert!(level <= self.level());
        Self {
            limbs: self.limbs[..=level].to_vec(),
            special: None,
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
        let orig = RnsPoly::sample_uniform(&ctx, 3, Form::Coeff, true, &mut rng);
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
        let a = RnsPoly::sample_uniform(&ctx, 2, Form::Eval, false, &mut rng);
        let b = RnsPoly::sample_uniform(&ctx, 2, Form::Eval, false, &mut rng);
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
        let a = RnsPoly::sample_uniform(&ctx, 1, Form::Coeff, false, &mut rng);
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
        let mut p = RnsPoly::from_signed(&ctx, &coeffs, l, false);
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
        let ctx = ctx();
        let p = ctx.special as i128;
        let n = ctx.degree();
        let coeffs: Vec<i128> = (0..n).map(|i| ((i as i128 % 11) - 5) * p).collect();
        let mut poly = RnsPoly::from_signed(&ctx, &coeffs, 1, true);
        poly.to_eval(&ctx);
        poly.mod_down_special_assign(&ctx);
        poly.to_coeff(&ctx);
        let lifted = poly.lift_centered(&ctx);
        for (i, &c) in lifted.iter().enumerate() {
            assert_eq!(c, coeffs[i] / p);
        }
    }

    #[test]
    fn mod_down_rounds_non_multiples() {
        // p*k + r maps to k when |r| < p/2.
        let ctx = ctx();
        let p = ctx.special as i128;
        let n = ctx.degree();
        let coeffs: Vec<i128> = (0..n).map(|i| 7 * p + (i as i128 % 100) - 50).collect();
        let mut poly = RnsPoly::from_signed(&ctx, &coeffs, 0, true);
        poly.to_eval(&ctx);
        poly.mod_down_special_assign(&ctx);
        poly.to_coeff(&ctx);
        for &c in &poly.lift_centered(&ctx) {
            assert_eq!(c, 7);
        }
    }

    #[test]
    fn pointwise_mul_is_negacyclic() {
        // (X^{n/2})^2 = -1
        let ctx = ctx();
        let n = ctx.degree();
        let mut coeffs = vec![0i128; n];
        coeffs[n / 2] = 1;
        let mut a = RnsPoly::from_signed(&ctx, &coeffs, 1, false);
        a.to_eval(&ctx);
        let mut sq = a.mul_pointwise(&a, &ctx);
        sq.to_coeff(&ctx);
        let lifted = sq.lift_centered(&ctx);
        assert_eq!(lifted[0], -1);
        assert!(lifted[1..].iter().all(|&c| c == 0));
    }
}
