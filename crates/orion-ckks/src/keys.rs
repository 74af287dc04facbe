//! Key material: secret, public, relinearization, and rotation keys.
//!
//! Key-switching keys use per-limb digit decomposition with one special
//! prime `p` (README, "Kernel layer"): the key for re-keying `s' → s` has one part
//! per chain limb `i`, each a pair over the extended basis `{q_0…q_L, p}`
//! encrypting `p·D_i·s'` where `D_i ≡ δ_ij (mod q_j)`.

use crate::params::Context;
use crate::poly::{Form, RnsPoly};
use orion_math::modular::{add_mod, mul_mod, shoup_precompute};
use orion_math::parallel::pointwise_parallel;
use orion_math::simd;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// The secret key: a ternary polynomial, stored in evaluation form over the
/// full basis (all chain limbs + special).
pub struct SecretKey {
    /// `s` in evaluation form, full basis.
    pub s: RnsPoly,
}

/// The public encryption key `(b, a) = (−a·s + e, a)` at the top level.
pub struct PublicKey {
    /// `−a·s + e`, evaluation form, full chain (no special limb).
    pub b: RnsPoly,
    /// Uniform `a`, evaluation form, full chain.
    pub a: RnsPoly,
}

/// A key-switching key for some `s' → s`: one `(b_i, a_i)` pair per chain
/// limb, each over the extended basis.
pub struct KeySwitchKey {
    /// `parts[i] = (b_i, a_i)` in evaluation form over `{q_0…q_L, p}`.
    pub parts: Vec<(RnsPoly, RnsPoly)>,
    /// Element-wise Shoup constants for every limb of every part, computed
    /// once at keygen. Key limbs are the *fixed* operand of the key-switch
    /// inner product, so the fused accumulation kernel can run on lazy
    /// Shoup products instead of 128-bit divisions.
    pub parts_shoup: Vec<(RnsPoly, RnsPoly)>,
}

impl KeySwitchKey {
    /// Builds the Shoup tables for freshly generated parts.
    fn with_shoup(ctx: &Context, parts: Vec<(RnsPoly, RnsPoly)>) -> Self {
        let shoup_poly = |p: &RnsPoly| -> RnsPoly {
            let precompute = |limb: &Vec<u64>, q: u64| -> Vec<u64> {
                limb.iter().map(|&x| shoup_precompute(x, q)).collect()
            };
            RnsPoly {
                limbs: p
                    .limbs
                    .iter()
                    .enumerate()
                    .map(|(j, limb)| precompute(limb, ctx.moduli[j]))
                    .collect(),
                special: p.special.as_ref().map(|s| precompute(s, ctx.special)),
                form: Form::Eval,
            }
        };
        let parts_shoup = parts
            .iter()
            .map(|(b, a)| (shoup_poly(b), shoup_poly(a)))
            .collect();
        Self { parts, parts_shoup }
    }

    /// Fused key-switch inner product: accumulates `Σ_i digits[i] ⊙
    /// parts[i]` into `(acc_b, acc_a)` over every limb (special included),
    /// keeping the per-element accumulator in lazy `[0, 2q)` form across
    /// *all* gadget digits and fully reducing once per element — the
    /// per-digit reduction sweeps of the unfused loop disappear. The
    /// accumulators must be in evaluation form, `[0, q)`, at the digits'
    /// level, with special limbs.
    pub fn accumulate_inner_product(
        &self,
        ctx: &Context,
        digits: &[RnsPoly],
        acc_b: &mut RnsPoly,
        acc_a: &mut RnsPoly,
    ) {
        let d = digits.len();
        assert!(d <= self.parts.len(), "more digits than key parts");
        assert!(d > 0, "empty digit decomposition");
        let n_chain = acc_b.limbs.len();
        assert_eq!(acc_a.limbs.len(), n_chain);
        let k = simd::kernels();
        // One job per (part, limb): 2·(level+2) fused accumulations, each
        // walking all digits. Fans out on the shared pool like the rest of
        // the pointwise layer.
        let degree = ctx.degree();
        let par = pointwise_parallel(degree, 2 * (n_chain + 1));
        let mut jobs: Vec<(u64, usize, bool, &mut Vec<u64>)> = Vec::with_capacity(2 * n_chain + 2);
        for (which, acc) in [(true, &mut *acc_b), (false, &mut *acc_a)] {
            for (j, limb) in acc.limbs.iter_mut().enumerate() {
                jobs.push((ctx.moduli[j], j, which, limb));
            }
            if let Some(s) = acc.special.as_mut() {
                jobs.push((ctx.special, n_chain, which, s));
            }
        }
        orion_math::parallel::for_each_mut(&mut jobs, par, |_, (q, j, is_b, dst)| {
            let mut ds: Vec<&[u64]> = Vec::with_capacity(d);
            let mut ks: Vec<&[u64]> = Vec::with_capacity(d);
            let mut kss: Vec<&[u64]> = Vec::with_capacity(d);
            for i in 0..d {
                let (part, part_sh) = if *is_b {
                    (&self.parts[i].0, &self.parts_shoup[i].0)
                } else {
                    (&self.parts[i].1, &self.parts_shoup[i].1)
                };
                let (dig, key, key_sh) = if *j < n_chain {
                    (&digits[i].limbs[*j], &part.limbs[*j], &part_sh.limbs[*j])
                } else {
                    (
                        digits[i].special.as_ref().expect("digit special limb"),
                        part.special.as_ref().expect("key special limb"),
                        part_sh.special.as_ref().expect("key shoup special limb"),
                    )
                };
                ds.push(dig);
                ks.push(key);
                kss.push(key_sh);
            }
            (k.ks_accum)(dst, &ds, &ks, &kss, *q);
        });
    }

    /// Fused inner product into fresh zero accumulators: returns `(b, a)`
    /// at the digits' level, evaluation form, with special limbs.
    pub fn inner_product(&self, ctx: &Context, digits: &[RnsPoly]) -> (RnsPoly, RnsPoly) {
        let level = digits[0].limbs.len() - 1;
        let mut acc_b = RnsPoly::zero(ctx, level, Form::Eval, true);
        let mut acc_a = RnsPoly::zero(ctx, level, Form::Eval, true);
        self.accumulate_inner_product(ctx, digits, &mut acc_b, &mut acc_a);
        (acc_b, acc_a)
    }
}

/// Evaluation keys: relinearization + rotation (+ conjugation) keys.
pub struct EvalKeys {
    /// Key for `s² → s` (used by `HMult`).
    pub relin: KeySwitchKey,
    /// Rotation keys, indexed by Galois element.
    pub rot: HashMap<usize, KeySwitchKey>,
    /// Conjugation key (Galois element `2N−1`), if generated.
    pub conj: Option<KeySwitchKey>,
}

/// A rotation was requested whose Galois element has no generated key.
///
/// Statically unreachable on certified programs: the `orion_nn::verify`
/// key-coverage pass enumerates every Galois element a plan touches
/// (BSGS baby/giant steps, optimizer shared-rotation units) and checks it
/// against keygen before any ciphertext math runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissingRotationKey {
    /// The Galois element that was looked up.
    pub galois: usize,
}

impl std::fmt::Display for MissingRotationKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "missing rotation key for galois element {}", self.galois)
    }
}

impl std::error::Error for MissingRotationKey {}

impl EvalKeys {
    /// Looks up the rotation key for Galois element `g`, with a typed
    /// error on a miss.
    pub fn try_rotation(&self, g: usize) -> Result<&KeySwitchKey, MissingRotationKey> {
        self.rot.get(&g).ok_or(MissingRotationKey { galois: g })
    }

    /// Looks up the rotation key for Galois element `g`.
    ///
    /// Panics on a miss. The static verifier's key-coverage pass makes a
    /// miss unreachable for any certified plan — the `debug_assert`
    /// documents that contract; fallible callers use [`Self::try_rotation`].
    pub fn rotation(&self, g: usize) -> &KeySwitchKey {
        debug_assert!(
            self.rot.contains_key(&g),
            "rotation key miss for galois element {g} — the plan was not verified \
             (orion_nn::verify key-coverage would have rejected it pre-flight)"
        );
        match self.try_rotation(g) {
            Ok(key) => key,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Generates all key material from a fresh ternary secret.
pub struct KeyGenerator<R: Rng> {
    ctx: Arc<Context>,
    rng: R,
    sk: Arc<SecretKey>,
}

impl<R: Rng> KeyGenerator<R> {
    /// Samples a fresh secret key.
    pub fn new(ctx: Arc<Context>, mut rng: R) -> Self {
        let max = ctx.max_level();
        let mut s = RnsPoly::sample_ternary(&ctx, max, true, &mut rng);
        s.to_eval(&ctx);
        Self {
            ctx,
            rng,
            sk: Arc::new(SecretKey { s }),
        }
    }

    /// The secret key (shared handle).
    pub fn secret_key(&self) -> Arc<SecretKey> {
        self.sk.clone()
    }

    /// Generates the public key.
    pub fn gen_public_key(&mut self) -> PublicKey {
        let max = self.ctx.max_level();
        let a = RnsPoly::sample_uniform(&self.ctx, max, Form::Eval, false, &mut self.rng);
        let mut e = RnsPoly::sample_gaussian(&self.ctx, max, false, &mut self.rng);
        e.to_eval(&self.ctx);
        // b = -a*s + e
        let mut s_trunc = self.sk.s.clone();
        s_trunc.special = None;
        let mut b = a.mul_pointwise(&s_trunc, &self.ctx);
        b.neg_assign(&self.ctx);
        b.add_assign(&e, &self.ctx);
        PublicKey { b, a }
    }

    /// Generates a key-switching key re-keying `s_from → s` where `s_from`
    /// is given in evaluation form over the full basis.
    pub fn gen_ksw_key(&mut self, s_from: &RnsPoly) -> KeySwitchKey {
        let ctx = &self.ctx;
        let max = ctx.max_level();
        let p = ctx.special;
        let parts = (0..=max)
            .map(|i| {
                let a_i = RnsPoly::sample_uniform(ctx, max, Form::Eval, true, &mut self.rng);
                let mut e_i = RnsPoly::sample_gaussian(ctx, max, true, &mut self.rng);
                e_i.to_eval(ctx);
                // b_i = -a_i*s + e_i + p·D_i·s_from
                let mut b_i = a_i.mul_pointwise(&self.sk.s, ctx);
                b_i.neg_assign(ctx);
                b_i.add_assign(&e_i, ctx);
                // p·D_i ≡ p (mod q_i), ≡ 0 (mod q_j, j≠i), ≡ 0 (mod p):
                // only limb i receives a contribution.
                let qi = ctx.moduli[i];
                let p_mod = p % qi;
                let src = &s_from.limbs[i];
                let dst = &mut b_i.limbs[i];
                for (x, &sv) in dst.iter_mut().zip(src) {
                    *x = add_mod(*x, mul_mod(p_mod, sv, qi), qi);
                }
                (b_i, a_i)
            })
            .collect();
        KeySwitchKey::with_shoup(ctx, parts)
    }

    /// Generates the relinearization key (`s² → s`).
    pub fn gen_relin_key(&mut self) -> KeySwitchKey {
        let s2 = self.sk.s.mul_pointwise(&self.sk.s, &self.ctx);
        self.gen_ksw_key(&s2)
    }

    /// Generates the rotation key for a slot rotation by `k`.
    pub fn gen_rotation_key(&mut self, k: isize) -> (usize, KeySwitchKey) {
        let g = self.ctx.galois_element(k);
        let perm = self.ctx.galois_permutation(g);
        let s_rot = self.sk.s.automorphism_eval(&perm);
        (g, self.gen_ksw_key(&s_rot))
    }

    /// Generates the conjugation key.
    pub fn gen_conjugation_key(&mut self) -> KeySwitchKey {
        let g = self.ctx.galois_element_conj();
        let perm = self.ctx.galois_permutation(g);
        let s_conj = self.sk.s.automorphism_eval(&perm);
        self.gen_ksw_key(&s_conj)
    }

    /// Generates the full evaluation-key set for the given rotation steps.
    pub fn gen_eval_keys(&mut self, rotations: &[isize]) -> EvalKeys {
        let relin = self.gen_relin_key();
        let mut rot = HashMap::new();
        for &k in rotations {
            if k == 0 {
                continue;
            }
            let (g, key) = self.gen_rotation_key(k);
            rot.insert(g, key);
        }
        EvalKeys {
            relin,
            rot,
            conj: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn public_key_decrypts_to_small_error() {
        // b + a*s = e must be small.
        let ctx = Context::new(CkksParams::tiny());
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(7));
        let pk = kg.gen_public_key();
        let sk = kg.secret_key();
        let mut s = sk.s.clone();
        s.special = None;
        let mut chk = pk.a.mul_pointwise(&s, &ctx);
        chk.add_assign(&pk.b, &ctx);
        chk.to_coeff(&ctx);
        let lifted = chk.lift_centered(&ctx);
        let max = lifted.iter().map(|x| x.unsigned_abs()).max().unwrap();
        assert!(
            max < (ctx.params.sigma * 8.0) as u128 + 1,
            "pk error too large: {max}"
        );
    }

    #[test]
    fn eval_keys_indexable_by_galois_element() {
        let ctx = Context::new(CkksParams::tiny());
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(8));
        let keys = kg.gen_eval_keys(&[1, -1, 4]);
        assert!(keys.rot.contains_key(&ctx.galois_element(1)));
        assert!(keys.rot.contains_key(&ctx.galois_element(-1)));
        assert!(keys.rot.contains_key(&ctx.galois_element(4)));
        assert_eq!(keys.relin.parts.len(), ctx.max_level() + 1);
    }
}
