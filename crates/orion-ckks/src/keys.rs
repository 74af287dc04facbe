//! Key material: secret, public, relinearization, and rotation keys.
//!
//! Key-switching keys are hybrid (Han–Ki, CT-RSA 2020; README, "Kernel
//! layer"): a key for re-keying `s' → s` generated at level `ℓ` takes
//! `α = α(ℓ)` special primes `P = p_0⋯p_{α−1}` and has one part per digit
//! `g < ⌈(ℓ+1)/α⌉`, each a pair over the extended basis `{q_0…q_ℓ,
//! p_0…p_{α−1}}` encrypting `P·D_g·s'`, where `D_g ≡ 1 (mod q_j)` for the
//! digit's limbs `j ∈ [gα, (g+1)α)` and `≡ 0` for every other chain limb.
//!
//! A key-switch of a level-`ℓ'` ciphertext, `ℓ' ≤ ℓ`, runs in the key's
//! basis: digits of α limbs, parts `0..⌈(ℓ'+1)/α⌉` and, of each, limbs
//! `0..=ℓ'` plus the special ones — so a key generated at level `ℓ` serves
//! every level `≤ ℓ` and holds `⌈(ℓ+1)/α⌉·(ℓ+1+α)` limbs ×2 (`b`, `a`).
//! Those parts are one *gadget*; a key the plan also applies at levels of
//! a smaller α holds one more gadget per such class, generated at the
//! highest level of the class it is applied at ([`KeyManifest::gadget_levels`]),
//! so every switch runs in its own level's α.
//! Every key limb is stored in Montgomery form,
//! `x·2⁶⁴ mod q_j`, which is what the key-switch kernel `ks_accum_pair`
//! reads: a register sum of `digit × key` products for both key halves
//! and one reduction per coefficient, with no second table beside the key.
//!
//! A program is static once placed, so the highest level each key is
//! applied at is a compile-time fact ([`KeyManifest`]); keys are generated
//! at exactly that level, and a key-switch above it is a typed error
//! ([`MissingRotationKey`], [`RelinKeyLevel`]) the `orion_nn::verify`
//! coverage pass certifies unreachable.

use crate::params::{digit_alpha, digit_count, Context};
use crate::poly::{Form, RnsPoly};
use orion_math::modular::{add_mod, mul_mod};
use orion_math::simd;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// A key-switching key for some `s' → s` at level `ℓ`: one `(b_g, a_g)`
/// pair per hybrid digit `g < ⌈(ℓ+1)/α(ℓ)⌉`, each over the extended basis
/// — the top gadget — then the same for each lower gadget.
pub struct KeySwitchKey {
    /// The gadgets' parts, the top one first: `(b_g, a_g)` in evaluation
    /// form over `{q_0…q_ℓ, p_0…p_{α−1}}` for the gadget's level ℓ and α,
    /// every limb in Montgomery form (`x·2⁶⁴ mod q_j`, special limbs
    /// included; [`simd::montgomery_radix`] says how to read it back).
    pub parts: Vec<(RnsPoly, RnsPoly)>,
    /// Ignored, and always empty: the key-switch kernel reads no table
    /// beside the key. The field stays because the `perf/` name pin counts
    /// key bytes through it (ROADMAP item 7(b)).
    pub parts_shoup: Vec<(RnsPoly, RnsPoly)>,
    /// Where each gadget's parts start in `parts`, the top gadget's at 0.
    gadgets: Vec<usize>,
}

impl KeySwitchKey {
    /// The highest ciphertext level this key can switch: its top gadget's.
    pub fn level(&self) -> usize {
        self.parts[0].0.level()
    }

    /// The top gadget's α: chain limbs per digit, and special primes of its
    /// basis.
    pub fn alpha(&self) -> usize {
        self.parts[0].0.special.len()
    }

    /// Every gadget's parts, the top one first.
    fn gadgets(&self) -> impl Iterator<Item = &[(RnsPoly, RnsPoly)]> {
        let ends = self.gadgets[1..].iter().copied().chain([self.parts.len()]);
        (self.gadgets.iter().zip(ends)).map(|(&start, end)| &self.parts[start..end])
    }

    /// The gadget of α `alpha` that reaches `level`.
    fn gadget(&self, alpha: usize, level: usize) -> Option<&[(RnsPoly, RnsPoly)]> {
        (self.gadgets()).find(|g| g[0].0.special.len() == alpha && g[0].0.level() >= level)
    }

    /// The α of the gadget a switch at `level` runs, what its digits are
    /// decomposed with: `level`'s own α when the key holds a gadget of that
    /// class reaching `level`, else the top gadget's.
    pub fn alpha_at(&self, ctx: &Context, level: usize) -> usize {
        let own = ctx.alpha(level);
        match self.gadget(own, level) {
            Some(_) => own,
            None => self.alpha(),
        }
    }

    /// Fused key-switch inner product: accumulates `Σ_g σ(digits[g]) ⊙
    /// parts[g]` (the parts taken out of Montgomery form) into `(acc_b,
    /// acc_a)` over every limb (special included), where `σ` reads
    /// coefficient `perm[j]` of a digit for output `j` — a Galois
    /// automorphism in evaluation form — or is the identity when `perm` is
    /// `None`. One kernel call per limb walks all gadget digits for both
    /// halves and reduces once per coefficient (per digit chunk). The
    /// digits are [`crate::hoist::decompose_digits`]'s with the α of a
    /// gadget that reaches their level ([`Self::alpha_at`]), whose parts
    /// are read. The accumulators must be in evaluation form, `[0, q)`, at
    /// the digits' level, with that gadget's special limbs. The digits'
    /// level must not exceed [`Self::level`] — callers look keys up through
    /// [`EvalKeys::try_rotation`] / [`EvalKeys::try_relin`], which check it.
    pub fn accumulate_inner_product(
        &self,
        ctx: &Context,
        digits: &[RnsPoly],
        perm: Option<&simd::Permutation>,
        acc_b: &mut RnsPoly,
        acc_a: &mut RnsPoly,
    ) {
        let d = digits.len();
        let alpha = digits[0].special.len();
        let n_chain = acc_b.limbs.len();
        assert_eq!(d, digit_count(n_chain - 1, alpha), "digits of one α");
        let gadget = self.gadget(alpha, n_chain - 1);
        let gadget = gadget.expect("a gadget of the digits' α reaching their level");
        assert_eq!(acc_a.limbs.len(), n_chain);
        assert!(
            [&*acc_b, &*acc_a].iter().all(|p| p.special.len() == alpha)
                && digits.iter().all(|p| p.special.len() == alpha),
            "key-switch operands live in the gadget's extended basis"
        );
        // The kernel's operand tables, built once per call and sliced per
        // limb: `[limb][digit]`, chain limbs `0..n_chain` (whatever level
        // an operand sits at), then the special ones.
        fn table<'p>(
            polys: impl ExactSizeIterator<Item = &'p RnsPoly> + Clone,
            n_chain: usize,
            alpha: usize,
        ) -> Vec<&'p [u64]> {
            let mut rows = Vec::with_capacity((n_chain + alpha) * polys.len());
            for j in 0..n_chain {
                rows.extend(polys.clone().map(|p| &p.limbs[j][..]));
            }
            for s in 0..alpha {
                rows.extend(polys.clone().map(|p| &p.special[s][..]));
            }
            rows
        }
        fn limbs_mut(p: &mut RnsPoly) -> impl Iterator<Item = &mut [u64]> {
            let special = p.special.iter_mut().map(Vec::as_mut_slice);
            p.limbs.iter_mut().map(Vec::as_mut_slice).chain(special)
        }
        let parts = &gadget[..d];
        let ds = table(digits.iter(), n_chain, alpha);
        let kb = table(parts.iter().map(|(b, _)| b), n_chain, alpha);
        let ka = table(parts.iter().map(|(_, a)| a), n_chain, alpha);
        let k = simd::kernels();
        // One kernel call per limb over all digits, for both halves.
        let moduli = ctx.moduli[..n_chain].iter().chain(&ctx.special[..alpha]);
        let limbs = moduli.zip(limbs_mut(acc_b)).zip(limbs_mut(acc_a));
        for (j, ((&q, b), a)) in limbs.enumerate() {
            let row = j * d..(j + 1) * d;
            (k.ks_accum_pair)(b, a, &ds[row.clone()], &kb[row.clone()], &ka[row], perm, q);
        }
    }

    /// Fused inner product into fresh zero accumulators: returns `(b, a)`
    /// at the digits' level, evaluation form, with the digits' special
    /// limbs. The reference the tests hold the key-switch body to.
    #[cfg(test)]
    pub fn inner_product(&self, ctx: &Context, digits: &[RnsPoly]) -> (RnsPoly, RnsPoly) {
        let level = digits[0].limbs.len() - 1;
        let alpha = digits[0].special.len();
        let mut acc_b = RnsPoly::zero(ctx, level, Form::Eval, alpha);
        let mut acc_a = RnsPoly::zero(ctx, level, Form::Eval, alpha);
        self.accumulate_inner_product(ctx, digits, None, &mut acc_b, &mut acc_a);
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
    /// Every level each key is applied at (the relinearization key under
    /// `None`), which sizes its lower gadgets ([`Self::gadget_levels`]).
    pub uses: BTreeMap<Option<isize>, BTreeSet<usize>>,
}

impl KeyManifest {
    /// Every listed step, and the relinearization key, at `level`.
    pub fn uniform(rotations: &[isize], level: usize) -> Self {
        let mut manifest = Self::default();
        manifest.use_relin(level);
        for &k in rotations {
            manifest.use_rotation(k, level);
        }
        manifest
    }

    /// Records that the rotation by `k` is applied at `level`.
    pub fn use_rotation(&mut self, k: isize, level: usize) {
        let at = self.rotations.entry(k).or_insert(level);
        *at = level.max(*at);
        self.uses.entry(Some(k)).or_default().insert(level);
    }

    /// Records a relinearization at `level`.
    pub fn use_relin(&mut self, level: usize) {
        self.relin = self.relin.max(level);
        self.uses.entry(None).or_default().insert(level);
    }

    /// The levels the gadgets of `key` (`None`: the relinearization key)
    /// are generated at, on a chain with top level `l_eff` after
    /// bootstrapping: the key's own level, then, for each digit class α
    /// below that level's that the plan applies the key in, the highest
    /// level of the class it is applied at.
    pub fn gadget_levels(&self, key: Option<isize>, l_eff: usize) -> Vec<usize> {
        let top = match key {
            None => self.relin,
            Some(k) => self.rotations[&k],
        };
        let mut levels = vec![top];
        for &level in self.uses.get(&key).into_iter().flatten().rev() {
            let last = *levels.last().expect("the top level");
            if digit_alpha(level, l_eff) < digit_alpha(last, l_eff) {
                levels.push(level);
            }
        }
        levels
    }

    /// Bytes of key material at ring degree `n` on a chain whose top level
    /// after bootstrapping is `l_eff`: a level-`ℓ` gadget is `dnum(ℓ) =
    /// ⌈(ℓ+1)/α(ℓ)⌉` parts × 2 polynomials × `(ℓ+1+α(ℓ))` limbs, summed over
    /// every key's [`Self::gadget_levels`].
    pub fn key_bytes(&self, n: usize, l_eff: usize) -> u64 {
        let keys = std::iter::once(None).chain(self.rotations.keys().map(|&k| Some(k)));
        keys.flat_map(|key| self.gadget_levels(key, l_eff))
            .map(|l| Self::bytes_per_key(n, l, l_eff))
            .sum()
    }

    fn bytes_per_key(n: usize, level: usize, l_eff: usize) -> u64 {
        let alpha = digit_alpha(level, l_eff);
        let dnum = digit_count(level, alpha);
        2 * 8 * (n * dnum * (level + 1 + alpha)) as u64
    }

    /// One report line at ring degree `n` on a chain with top level
    /// `l_eff` after bootstrapping: key count, bytes at the manifest's
    /// levels, bytes were every key generated at level `flat` (the chain's
    /// top level is what sizing by the worst case costs), and the rotation
    /// keys by level.
    pub fn summary(&self, n: usize, l_eff: usize, flat: usize) -> String {
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
            self.key_bytes(n, l_eff) as f64 / 1e6,
            (keys as u64 * Self::bytes_per_key(n, flat, l_eff)) as f64 / 1e6,
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
/// baby/giant/fold steps) with the level it applies it at and checks both against keygen before any ciphertext math
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
        let mut s = RnsPoly::sample_ternary(&ctx, max, ctx.special.len(), &mut rng);
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
        let a = RnsPoly::sample_uniform(&self.ctx, max, Form::Eval, 0, &mut self.rng);
        let mut e = RnsPoly::sample_gaussian(&self.ctx, max, 0, &mut self.rng);
        e.to_eval(&self.ctx);
        // b = -a*s + e
        let mut b = a.mul_pointwise(&self.sk.s.chain_to_level(max), &self.ctx);
        b.neg_assign(&self.ctx);
        b.add_assign(&e, &self.ctx);
        PublicKey { b, a }
    }

    /// Generates a key-switching key re-keying `s_from → s` for
    /// ciphertexts at levels `≤ level`, where `s_from` is given in
    /// evaluation form over the full basis: one gadget at `level`.
    pub fn gen_ksw_key(&mut self, s_from: &RnsPoly, level: usize) -> KeySwitchKey {
        self.gen_gadgets(s_from, &[level])
    }

    /// A key with one gadget per level of `levels`, the top one first.
    fn gen_gadgets(&mut self, s_from: &RnsPoly, levels: &[usize]) -> KeySwitchKey {
        let mut parts = Vec::new();
        let mut gadgets = Vec::new();
        for &level in levels {
            gadgets.push(parts.len());
            parts.extend(self.gadget(s_from, level));
        }
        KeySwitchKey {
            parts,
            parts_shoup: Vec::new(),
            gadgets,
        }
    }

    /// One gadget at `level`: with `α = α(level)` and `P = p_0⋯p_{α−1}`,
    /// one part per digit `g`, over `{q_0…q_level, p_0…p_{α−1}}`.
    fn gadget(&mut self, s_from: &RnsPoly, level: usize) -> Vec<(RnsPoly, RnsPoly)> {
        let ctx = &self.ctx;
        let alpha = ctx.alpha(level);
        let s = self.sk.s.restricted(level, alpha);
        (0..digit_count(level, alpha))
            .map(|g| {
                let mut a_g = RnsPoly::sample_uniform(ctx, level, Form::Eval, alpha, &mut self.rng);
                let mut e_g = RnsPoly::sample_gaussian(ctx, level, alpha, &mut self.rng);
                e_g.to_eval(ctx);
                // b_g = -a_g*s + e_g + P·D_g·s_from
                let mut b_g = a_g.mul_pointwise(&s, ctx);
                b_g.neg_assign(ctx);
                b_g.add_assign(&e_g, ctx);
                // P·D_g ≡ P (mod q_j) for the digit's limbs j, ≡ 0 (mod
                // every other q_j), ≡ 0 (mod p_k): only the digit's limbs
                // receive a contribution.
                for j in g * alpha..((g + 1) * alpha).min(level + 1) {
                    let qj = ctx.moduli[j];
                    let p_mod = ctx.special_product(0..alpha, qj);
                    let src = &s_from.limbs[j];
                    let dst = &mut b_g.limbs[j];
                    for (x, &sv) in dst.iter_mut().zip(src) {
                        *x = add_mod(*x, mul_mod(p_mod, sv, qj), qj);
                    }
                }
                b_g.to_montgomery_assign(ctx);
                a_g.to_montgomery_assign(ctx);
                (b_g, a_g)
            })
            .collect()
    }

    /// Generates the relinearization key (`s² → s`) at `level`.
    pub fn gen_relin_key(&mut self, level: usize) -> KeySwitchKey {
        self.gen_relin_gadgets(&[level])
    }

    fn gen_relin_gadgets(&mut self, levels: &[usize]) -> KeySwitchKey {
        let s2 = self.sk.s.mul_pointwise(&self.sk.s, &self.ctx);
        self.gen_gadgets(&s2, levels)
    }

    /// Generates the key for the Galois element `g` with gadgets at
    /// `levels`.
    fn gen_galois_key(&mut self, g: usize, levels: &[usize]) -> KeySwitchKey {
        let perm = self.ctx.galois_permutation(g);
        let s_g = self.sk.s.automorphism_eval(&perm);
        self.gen_gadgets(&s_g, levels)
    }

    /// Generates the rotation key for a slot rotation by `k` at `level`.
    pub fn gen_rotation_key(&mut self, k: isize, level: usize) -> (usize, KeySwitchKey) {
        let g = self.ctx.galois_element(k);
        (g, self.gen_galois_key(g, &[level]))
    }

    /// Generates exactly the keys `manifest` lists, each at its level,
    /// with the lower gadgets [`KeyManifest::gadget_levels`] sizes.
    pub fn gen_eval_keys_at(&mut self, manifest: &KeyManifest) -> EvalKeys {
        let l_eff = self.ctx.params.effective_level();
        let relin = self.gen_relin_gadgets(&manifest.gadget_levels(None, l_eff));
        let mut rot: HashMap<usize, KeySwitchKey> = HashMap::new();
        for (&k, &level) in &manifest.rotations {
            let g = self.ctx.galois_element(k);
            // two steps congruent modulo the slot count share one key
            if k == 0 || rot.get(&g).is_some_and(|key| key.level() >= level) {
                continue;
            }
            let levels = manifest.gadget_levels(Some(k), l_eff);
            rot.insert(g, self.gen_galois_key(g, &levels));
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
        let s = sk.s.chain_to_level(ctx.max_level());
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
        let top = ctx.max_level();
        assert_eq!(
            keys.relin.parts.len(),
            crate::params::digit_count(top, ctx.alpha(top))
        );
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
            let alpha = key.alpha();
            assert_eq!(alpha, ctx.alpha(ctx.max_level()));
            let mut rng = StdRng::seed_from_u64(14);
            for level in 0..=ctx.max_level() {
                let c = RnsPoly::sample_uniform(&ctx, level, Form::Eval, 0, &mut rng);
                let digits = crate::hoist::decompose_digits(&ctx, &c, alpha);
                let (got_b, got_a) = key.inner_product(&ctx, &digits);
                // limb j of any operand: chain limbs to `level`, then special
                fn limb(p: &RnsPoly, j: usize, level: usize) -> &[u64] {
                    match j <= level {
                        true => &p.limbs[j],
                        false => &p.special[j - level - 1],
                    }
                }
                for j in 0..=level + alpha {
                    let q = match j <= level {
                        true => ctx.moduli[j],
                        false => ctx.special[j - level - 1],
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
        let alpha = ctx.alpha(key_level);
        let dnum = crate::params::digit_count(key_level, alpha);
        assert_eq!(
            manifest.key_bytes(ctx.degree(), ctx.params.effective_level()),
            2 * 2 * 8 * (ctx.degree() * dnum * (key_level + 1 + alpha)) as u64
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
            // plain and hoisted rotation (bit-identical: `hoist`'s tests)
            assert!(HoistedDigits::new(&ctx, &ct)
                .try_rotate_ext(&eval, 1)
                .is_ok());
            let out = enc.decode(&dec.decrypt(&eval.rotate(&ct, 1)));
            for i in (0..n).step_by(37) {
                assert!(
                    (out[i] - a[(i + 1) % n]).abs() < 1e-2,
                    "level {level} slot {i}"
                );
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
    fn a_key_applied_in_two_digit_classes_holds_a_gadget_for_each() {
        // tiny: L_eff = 2, α(4) = 2, α(1) = 1. A rotation applied at 1 and
        // 4 gets a gadget at each; one applied at 3 and 4 only the top.
        let ctx = Context::new(CkksParams::tiny());
        let l_eff = ctx.params.effective_level();
        let mut manifest = KeyManifest::default();
        for (k, level) in [(1, 4), (1, 1), (2, 4), (2, 3)] {
            manifest.use_rotation(k, level);
        }
        manifest.use_relin(2);
        assert_eq!(manifest.gadget_levels(Some(1), l_eff), [4, 1]);
        assert_eq!(manifest.gadget_levels(Some(2), l_eff), [4]);
        assert_eq!(manifest.gadget_levels(None, l_eff), [2]);
        let n = ctx.degree() as u64;
        // 2·8·N·dnum·(ℓ+1+α): 3·7 at 4 (three digits above L_eff), 2·3 at
        // 1, 2·5 at 2
        let pairs = (21 + 6) + 21 + 10;
        assert_eq!(manifest.key_bytes(ctx.degree(), l_eff), 2 * 8 * n * pairs);
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(15));
        let pk = Arc::new(kg.gen_public_key());
        let keys = Arc::new(kg.gen_eval_keys_at(&manifest));
        let key = &keys.rot[&ctx.galois_element(1)];
        let limbs: usize = key
            .parts
            .iter()
            .map(|(b, _)| b.limbs.len() + b.special.len())
            .sum();
        assert_eq!((key.level(), key.alpha(), limbs), (4, 2, 27));
        assert_eq!(
            (0..=4).map(|l| key.alpha_at(&ctx, l)).collect::<Vec<_>>(),
            [1, 1, 2, 2, 2]
        );
        let other = &keys.rot[&ctx.galois_element(2)];
        assert_eq!(other.alpha_at(&ctx, 1), 2, "no gadget of α 1: the top one");
        let (enc, eval) = (Encoder::new(ctx.clone()), Evaluator::new(ctx.clone(), keys));
        let (encryptor, dec) = (
            Encryptor::with_public_key(ctx.clone(), pk),
            Decryptor::new(ctx.clone(), kg.secret_key()),
        );
        let mut rng = StdRng::seed_from_u64(16);
        let slots = ctx.slots();
        let a: Vec<f64> = (0..slots).map(|i| (i % 8) as f64 * 0.25 - 1.0).collect();
        for level in 0..=4 {
            let ct = encryptor.encrypt(&enc.encode(&a, ctx.scale(), level, false), &mut rng);
            let hd = HoistedDigits::new(&ctx, &ct);
            for k in [1isize, 2] {
                let plain = eval.rotate(&ct, k);
                let hoisted = hd.rotate_ext(&eval, k).mod_down(&ctx);
                assert!(
                    hoisted.c0 == plain.c0 && hoisted.c1 == plain.c1,
                    "k={k} level {level}"
                );
                let out = enc.decode(&dec.decrypt(&plain));
                for i in (0..slots).step_by(41) {
                    let want = a[(i + k as usize) % slots];
                    assert!((out[i] - want).abs() < 1e-2, "k={k} level {level} slot {i}");
                }
            }
        }
    }

    #[test]
    fn a_truncated_top_level_key_switches_bit_identically() {
        // What a key-switch at level ≤ ℓ reads of a top-level key is its
        // first ⌈(ℓ+1)/α⌉ parts × (ℓ+1 chain limbs + its α special ones):
        // cutting the rest away changes no output bit.
        let ctx = Context::new(CkksParams::tiny());
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(11));
        let (_, full) = kg.gen_rotation_key(1, ctx.max_level());
        let mut rng = StdRng::seed_from_u64(12);
        for key_level in 0..=ctx.max_level() {
            let cut = |parts: &[(RnsPoly, RnsPoly)]| -> Vec<(RnsPoly, RnsPoly)> {
                let poly = |p: &RnsPoly| p.dropped_to_level(key_level);
                parts[..crate::params::digit_count(key_level, full.alpha())]
                    .iter()
                    .map(|(b, a)| (poly(b), poly(a)))
                    .collect()
            };
            let truncated = KeySwitchKey {
                parts: cut(&full.parts),
                parts_shoup: Vec::new(),
                gadgets: vec![0],
            };
            assert_eq!(truncated.level(), key_level);
            for level in 0..=key_level {
                let c = RnsPoly::sample_uniform(&ctx, level, Form::Eval, 0, &mut rng);
                let digits = crate::hoist::decompose_digits(&ctx, &c, full.alpha());
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
