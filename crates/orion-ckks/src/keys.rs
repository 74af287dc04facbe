//! Key material: secret, public, relinearization, and rotation keys.
//!
//! Key-switching keys use per-limb digit decomposition with one special
//! prime `p` (README, "Kernel layer"): the key for re-keying `s' → s` at
//! level `ℓ` has one part per chain limb `i ≤ ℓ`, each a pair over the
//! extended basis `{q_0…q_ℓ, p}` encrypting `p·D_i·s'` where
//! `D_i ≡ δ_ij (mod q_j)`.
//!
//! A key-switch of a level-`ℓ'` ciphertext reads parts `0..=ℓ'` and, of
//! each, limbs `0..=ℓ'` plus the special one — so a key generated at level
//! `ℓ` serves every level `≤ ℓ` and holds `(ℓ+1)(ℓ+2)` limbs ×2 (`b`, `a`):
//! quadratic in the level. Every key limb is stored in Montgomery form,
//! `x·2⁶⁴ mod q_j`, which is what the key-switch kernel `ks_accum` reads:
//! a 128-bit register sum of `digit × key` products and one Montgomery
//! reduction per coefficient, with no second table beside the key.
//!
//! A program is static once placed, so the highest level each key is
//! applied at is a compile-time fact ([`KeyManifest`]); keys are generated
//! at exactly that level, and a key-switch above it is a typed error
//! ([`MissingRotationKey`], [`RelinKeyLevel`]) the `orion_nn::verify`
//! coverage pass certifies unreachable.

use crate::params::Context;
use crate::poly::{Form, RnsPoly};
use orion_math::modular::{add_mod, mul_mod};
use orion_math::simd;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
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

/// A key-switching key for some `s' → s` at level `ℓ`: one `(b_i, a_i)`
/// pair per chain limb `i ≤ ℓ`, each over the extended basis.
pub struct KeySwitchKey {
    /// `parts[i] = (b_i, a_i)` in evaluation form over `{q_0…q_ℓ, p}`, every
    /// limb in Montgomery form (`x·2⁶⁴ mod q_j`, special limb included;
    /// [`simd::montgomery_radix`] says how to read it back).
    pub parts: Vec<(RnsPoly, RnsPoly)>,
    /// Ignored, and always empty: the key-switch kernel reads no table
    /// beside the key. The field stays because the `perf/` name pin counts
    /// key bytes through it (ROADMAP item 7(b)).
    pub parts_shoup: Vec<(RnsPoly, RnsPoly)>,
}

impl KeySwitchKey {
    /// The highest ciphertext level this key can switch.
    pub fn level(&self) -> usize {
        self.parts.len() - 1
    }

    /// Fused key-switch inner product: accumulates `Σ_i digits[i] ⊙
    /// parts[i]` (the parts taken out of Montgomery form) into `(acc_b,
    /// acc_a)` over every limb (special included), summing *all* gadget
    /// digits of a coefficient in a 128-bit register and reducing once per
    /// coefficient — the per-digit reduction sweeps of the unfused loop
    /// disappear. The accumulators must be in evaluation form, `[0, q)`,
    /// at the digits' level, with special limbs. The digits' level must
    /// not exceed [`Self::level`] — callers look keys up through
    /// [`EvalKeys::try_rotation`] / [`EvalKeys::try_relin`], which check it.
    pub fn accumulate_inner_product(
        &self,
        ctx: &Context,
        digits: &[RnsPoly],
        acc_b: &mut RnsPoly,
        acc_a: &mut RnsPoly,
    ) {
        let d = digits.len();
        debug_assert!(d <= self.parts.len(), "more digits than key parts");
        assert!(d > 0, "empty digit decomposition");
        let n_chain = acc_b.limbs.len();
        assert_eq!(acc_a.limbs.len(), n_chain);
        assert!(
            acc_b.has_special() && acc_a.has_special(),
            "key-switch accumulators live in the extended basis"
        );
        // The kernel's operand tables, built once per call and sliced per
        // job: `[limb][digit]`, limb `n_chain` being the special one
        // whatever level an operand sits at.
        fn table<'p>(
            polys: impl ExactSizeIterator<Item = &'p RnsPoly> + Clone,
            n_chain: usize,
        ) -> Vec<&'p [u64]> {
            let mut rows = Vec::with_capacity((n_chain + 1) * polys.len());
            for j in 0..=n_chain {
                rows.extend(polys.clone().map(|p| match j < n_chain {
                    true => &p.limbs[j][..],
                    false => p.special.as_deref().expect("extended-basis operand"),
                }));
            }
            rows
        }
        let parts = &self.parts[..d];
        let ds = table(digits.iter(), n_chain);
        let keys = [
            table(parts.iter().map(|(b, _)| b), n_chain),
            table(parts.iter().map(|(_, a)| a), n_chain),
        ];
        let k = simd::kernels();
        // One fused accumulation per (part, limb), each walking all digits.
        for (acc, key) in [acc_b, acc_a].into_iter().zip(&keys) {
            acc.for_each_limb_mut(ctx, |q, dst, j| {
                let row = j * d..(j + 1) * d;
                (k.ks_accum)(dst, &ds[row.clone()], &key[row], &[], q);
            });
        }
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

/// Evaluation keys: relinearization + rotation keys.
pub struct EvalKeys {
    /// Key for `s² → s` (used by `HMult`).
    pub relin: KeySwitchKey,
    /// Rotation keys, indexed by Galois element.
    pub rot: HashMap<usize, KeySwitchKey>,
    /// Always `None`: nothing conjugates slots. Kept because the benchmark
    /// harness's API pin reads it.
    pub conj: Option<KeySwitchKey>,
}

/// Which evaluation keys a program needs, each with the highest level it
/// is ever applied at — what [`KeyGenerator::gen_eval_keys_at`] generates
/// and what the `orion_nn::verify` coverage pass checks a plan against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyManifest {
    /// Level of the relinearization key (0 when the program multiplies no
    /// ciphertexts: [`EvalKeys`] always holds one, the smallest).
    pub relin: usize,
    /// Level per rotation step.
    pub rotations: BTreeMap<isize, usize>,
}

impl KeyManifest {
    /// Every listed step, and the relinearization key, at `level`.
    pub fn uniform(rotations: &[isize], level: usize) -> Self {
        Self {
            relin: level,
            rotations: rotations.iter().map(|&k| (k, level)).collect(),
        }
    }

    /// Records that the rotation by `k` is applied at `level`.
    pub fn use_rotation(&mut self, k: isize, level: usize) {
        let at = self.rotations.entry(k).or_insert(level);
        *at = level.max(*at);
    }

    /// Records a relinearization at `level`.
    pub fn use_relin(&mut self, level: usize) {
        self.relin = self.relin.max(level);
    }

    /// Bytes of key material at ring degree `n`: a level-`ℓ` key is
    /// `(ℓ+1)` parts × 2 polynomials × `(ℓ+2)` limbs.
    pub fn key_bytes(&self, n: usize) -> u64 {
        let levels = std::iter::once(&self.relin).chain(self.rotations.values());
        levels.map(|&l| Self::bytes_per_key(n, l)).sum()
    }

    fn bytes_per_key(n: usize, level: usize) -> u64 {
        2 * 8 * (n * (level + 1) * (level + 2)) as u64
    }

    /// One report line at ring degree `n`: key count, bytes at the
    /// manifest's levels, bytes were every key generated at level `flat`
    /// (the chain's top level is what sizing by the worst case costs), and
    /// the rotation keys by level.
    pub fn summary(&self, n: usize, flat: usize) -> String {
        let keys = 1 + self.rotations.len();
        let mut by_level: BTreeMap<usize, usize> = BTreeMap::new();
        for &level in self.rotations.values() {
            *by_level.entry(level).or_default() += 1;
        }
        let by_level: Vec<String> = by_level
            .iter()
            .map(|(level, keys)| format!("{keys} @L{level}"))
            .collect();
        format!(
            "evaluation keys: {} keys, {:.1} MB at their plan levels ({:.1} MB all at L{flat}); \
             rotation {}; relin @L{}",
            keys,
            self.key_bytes(n) as f64 / 1e6,
            (keys as u64 * Self::bytes_per_key(n, flat)) as f64 / 1e6,
            if by_level.is_empty() {
                "none".to_string()
            } else {
                by_level.join(", ")
            },
            self.relin,
        )
    }
}

/// A rotation was requested that no generated key can switch: the Galois
/// element has no key (`key_level: None`), or its key was generated below
/// the ciphertext's level.
///
/// Statically unreachable on certified programs: the `orion_nn::verify`
/// key-coverage pass enumerates every rotation a plan applies (BSGS
/// baby/giant steps, optimizer shared-rotation units) with the level it
/// applies it at and checks both against keygen before any ciphertext math
/// runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissingRotationKey {
    /// The Galois element that was looked up.
    pub galois: usize,
    /// The level of the ciphertext to be rotated.
    pub level: usize,
    /// The level the element's key was generated at, if it has one.
    pub key_level: Option<usize>,
}

impl std::fmt::Display for MissingRotationKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { galois, level, .. } = self;
        match self.key_level {
            None => write!(f, "missing rotation key for galois element {galois}"),
            Some(kl) => write!(
                f,
                "rotation key for galois element {galois} covers levels ≤ {kl}, applied at level {level}"
            ),
        }
    }
}

impl std::error::Error for MissingRotationKey {}

/// A relinearization was requested above the level the relinearization key
/// was generated at. Certified unreachable like [`MissingRotationKey`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RelinKeyLevel {
    /// The level of the product to be relinearized.
    pub level: usize,
    /// The level the key was generated at.
    pub key_level: usize,
}

impl std::fmt::Display for RelinKeyLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "relinearization key covers levels ≤ {}, applied at level {}",
            self.key_level, self.level
        )
    }
}

impl std::error::Error for RelinKeyLevel {}

impl EvalKeys {
    /// The rotation key for Galois element `g`, to switch a ciphertext at
    /// `level`; a typed error when there is none or it sits below `level`.
    pub fn try_rotation(
        &self,
        g: usize,
        level: usize,
    ) -> Result<&KeySwitchKey, MissingRotationKey> {
        match self.rot.get(&g) {
            Some(key) if level <= key.level() => Ok(key),
            key => Err(MissingRotationKey {
                galois: g,
                level,
                key_level: key.map(KeySwitchKey::level),
            }),
        }
    }

    /// The relinearization key, to switch a product at `level`.
    pub fn try_relin(&self, level: usize) -> Result<&KeySwitchKey, RelinKeyLevel> {
        let key_level = self.relin.level();
        if level <= key_level {
            Ok(&self.relin)
        } else {
            Err(RelinKeyLevel { level, key_level })
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

    /// Generates a key-switching key re-keying `s_from → s` for
    /// ciphertexts at levels `≤ level`, where `s_from` is given in
    /// evaluation form over the full basis: parts `0..=level`, each over
    /// `{q_0…q_level, p}`.
    pub fn gen_ksw_key(&mut self, s_from: &RnsPoly, level: usize) -> KeySwitchKey {
        let ctx = &self.ctx;
        let p = ctx.special;
        let s = self.sk.s.dropped_to_level(level);
        let parts = (0..=level)
            .map(|i| {
                let mut a_i = RnsPoly::sample_uniform(ctx, level, Form::Eval, true, &mut self.rng);
                let mut e_i = RnsPoly::sample_gaussian(ctx, level, true, &mut self.rng);
                e_i.to_eval(ctx);
                // b_i = -a_i*s + e_i + p·D_i·s_from
                let mut b_i = a_i.mul_pointwise(&s, ctx);
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
                b_i.to_montgomery_assign(ctx);
                a_i.to_montgomery_assign(ctx);
                (b_i, a_i)
            })
            .collect();
        KeySwitchKey {
            parts,
            parts_shoup: Vec::new(),
        }
    }

    /// Generates the relinearization key (`s² → s`) at `level`.
    pub fn gen_relin_key(&mut self, level: usize) -> KeySwitchKey {
        let s2 = self.sk.s.mul_pointwise(&self.sk.s, &self.ctx);
        self.gen_ksw_key(&s2, level)
    }

    /// Generates the key for the Galois element `g` at `level`.
    fn gen_galois_key(&mut self, g: usize, level: usize) -> KeySwitchKey {
        let perm = self.ctx.galois_permutation(g);
        let s_g = self.sk.s.automorphism_eval(&perm);
        self.gen_ksw_key(&s_g, level)
    }

    /// Generates the rotation key for a slot rotation by `k` at `level`.
    pub fn gen_rotation_key(&mut self, k: isize, level: usize) -> (usize, KeySwitchKey) {
        let g = self.ctx.galois_element(k);
        (g, self.gen_galois_key(g, level))
    }

    /// Generates exactly the keys `manifest` lists, each at its level.
    pub fn gen_eval_keys_at(&mut self, manifest: &KeyManifest) -> EvalKeys {
        let relin = self.gen_relin_key(manifest.relin);
        let mut rot: HashMap<usize, KeySwitchKey> = HashMap::new();
        for (&k, &level) in &manifest.rotations {
            let g = self.ctx.galois_element(k);
            // two steps congruent modulo the slot count share one key
            if k == 0 || rot.get(&g).is_some_and(|key| key.level() >= level) {
                continue;
            }
            rot.insert(g, self.gen_galois_key(g, level));
        }
        EvalKeys {
            relin,
            rot,
            conj: None,
        }
    }

    /// Generates the relinearization key and a key per rotation step, all
    /// at the top level — for callers with no plan to size them by.
    pub fn gen_eval_keys(&mut self, rotations: &[isize]) -> EvalKeys {
        self.gen_eval_keys_at(&KeyManifest::uniform(rotations, self.ctx.max_level()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::eval::Evaluator;
    use crate::hoist::HoistedDigits;
    use crate::params::CkksParams;
    use orion_math::modular::inv_mod;
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
        let mut all = std::iter::once(&keys.relin).chain(keys.rot.values());
        assert!(all.all(|k| k.parts_shoup.is_empty()));
    }

    #[test]
    fn the_inner_product_is_the_strict_one_over_keys_out_of_montgomery_form() {
        let wide = CkksParams {
            q0_bits: 61,
            special_bits: 61,
            ..CkksParams::tiny()
        };
        for params in [CkksParams::tiny(), wide] {
            let ctx = Context::new(params);
            let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(13));
            let (_, key) = kg.gen_rotation_key(1, ctx.max_level());
            assert!(key.parts_shoup.is_empty());
            let mut rng = StdRng::seed_from_u64(14);
            for level in 0..=ctx.max_level() {
                let c = RnsPoly::sample_uniform(&ctx, level, Form::Eval, false, &mut rng);
                let digits = crate::hoist::decompose_digits(&ctx, &c);
                let (got_b, got_a) = key.inner_product(&ctx, &digits);
                // limb j of any operand: chain limbs to `level`, then special
                fn limb(p: &RnsPoly, j: usize, level: usize) -> &[u64] {
                    match j <= level {
                        true => &p.limbs[j],
                        false => p.special.as_deref().expect("extended basis"),
                    }
                }
                for j in 0..=level + 1 {
                    let q = if j <= level {
                        ctx.moduli[j]
                    } else {
                        ctx.special
                    };
                    let r_inv = inv_mod(simd::montgomery_radix(q), q);
                    let (mut want_b, mut want_a) = (vec![0; ctx.degree()], vec![0; ctx.degree()]);
                    for (digit, (b, a)) in digits.iter().zip(&key.parts) {
                        for (want, part) in [(&mut want_b, b), (&mut want_a, a)] {
                            let terms = limb(digit, j, level).iter().zip(limb(part, j, level));
                            for (w, (&d, &k)) in want.iter_mut().zip(terms) {
                                *w = add_mod(*w, mul_mod(d, mul_mod(k, r_inv, q), q), q);
                            }
                        }
                    }
                    let got = (limb(&got_b, j, level), limb(&got_a, j, level));
                    assert!(
                        got == (&want_b, &want_a),
                        "q = {q}, level {level}, limb {j}"
                    );
                }
            }
        }
    }

    /// A session whose relinearization key and rotation-by-1 key sit at
    /// `key_level`.
    fn level_keyed(key_level: usize) -> (Arc<Context>, Encoder, Encryptor, Decryptor, Evaluator) {
        let ctx = Context::new(CkksParams::tiny());
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(9));
        let pk = Arc::new(kg.gen_public_key());
        let manifest = KeyManifest::uniform(&[1], key_level);
        let keys = Arc::new(kg.gen_eval_keys_at(&manifest));
        assert_eq!(keys.relin.level(), key_level);
        assert_eq!(
            manifest.key_bytes(ctx.degree()),
            2 * 2 * 8 * (ctx.degree() * (key_level + 1) * (key_level + 2)) as u64
        );
        (
            ctx.clone(),
            Encoder::new(ctx.clone()),
            Encryptor::with_public_key(ctx.clone(), pk),
            Decryptor::new(ctx.clone(), kg.secret_key()),
            Evaluator::new(ctx, keys),
        )
    }

    #[test]
    fn a_level_key_serves_every_level_up_to_its_own_and_no_higher() {
        let key_level = 2;
        let (ctx, enc, encryptor, dec, eval) = level_keyed(key_level);
        let mut rng = StdRng::seed_from_u64(10);
        let n = ctx.slots();
        let a: Vec<f64> = (0..n).map(|i| (i % 16) as f64 * 0.125 - 1.0).collect();
        let fresh = |level: usize, rng: &mut StdRng| {
            encryptor.encrypt(&enc.encode(&a, ctx.scale(), level, false), rng)
        };
        let g = ctx.galois_element(1);
        for level in 0..=key_level {
            let ct = fresh(level, &mut rng);
            // plain and hoisted rotation
            let hoisted = HoistedDigits::new(&ctx, &ct).rotate(&eval, 1);
            for rotated in [eval.rotate(&ct, 1), hoisted] {
                let out = enc.decode(&dec.decrypt(&rotated));
                for i in (0..n).step_by(37) {
                    assert!(
                        (out[i] - a[(i + 1) % n]).abs() < 1e-2,
                        "level {level} slot {i}"
                    );
                }
            }
            // relinearization (a product needs a level to rescale into)
            assert!(eval.keys().try_relin(level).is_ok());
            if level >= 1 {
                let mut sq = eval.mul_relin(&ct, &ct);
                eval.rescale_assign(&mut sq);
                let out = enc.decode(&dec.decrypt(&sq));
                for i in (0..n).step_by(37) {
                    assert!(
                        (out[i] - a[i] * a[i]).abs() < 1e-2,
                        "level {level} slot {i}"
                    );
                }
            }
        }
        // One level up, both lookups are typed errors — at every call site.
        let above = fresh(key_level + 1, &mut rng);
        let miss = MissingRotationKey {
            galois: g,
            level: key_level + 1,
            key_level: Some(key_level),
        };
        assert_eq!(eval.try_rotate(&above, 1).err(), Some(miss));
        let hoisted = HoistedDigits::new(&ctx, &above);
        assert_eq!(hoisted.try_rotate_ext(&eval, 1).err(), Some(miss));
        assert_eq!(
            eval.keys().try_relin(key_level + 1).err(),
            Some(RelinKeyLevel {
                level: key_level + 1,
                key_level
            })
        );
        // A step with no key at all says so.
        let absent = eval.try_rotate(&fresh(0, &mut rng), 2).err();
        assert_eq!(absent.map(|e| (e.level, e.key_level)), Some((0, None)));
    }

    #[test]
    fn a_truncated_top_level_key_switches_bit_identically() {
        // What a key-switch at level ≤ ℓ reads of a top-level key is its
        // first ℓ+1 parts × (ℓ+1 chain limbs + special): cutting the rest
        // away — what keygen at level ℓ no longer generates — changes no
        // output bit.
        let ctx = Context::new(CkksParams::tiny());
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(11));
        let (_, full) = kg.gen_rotation_key(1, ctx.max_level());
        let mut rng = StdRng::seed_from_u64(12);
        for key_level in 0..=ctx.max_level() {
            let cut = |parts: &[(RnsPoly, RnsPoly)]| -> Vec<(RnsPoly, RnsPoly)> {
                let poly = |p: &RnsPoly| p.dropped_to_level(key_level);
                parts[..=key_level]
                    .iter()
                    .map(|(b, a)| (poly(b), poly(a)))
                    .collect()
            };
            let truncated = KeySwitchKey {
                parts: cut(&full.parts),
                parts_shoup: Vec::new(),
            };
            assert_eq!(truncated.level(), key_level);
            for level in 0..=key_level {
                let c = RnsPoly::sample_uniform(&ctx, level, Form::Eval, false, &mut rng);
                let digits = crate::hoist::decompose_digits(&ctx, &c);
                let want = full.inner_product(&ctx, &digits);
                let got = truncated.inner_product(&ctx, &digits);
                assert!(
                    got == want,
                    "key level {key_level}, ciphertext level {level}"
                );
            }
        }
    }
}
