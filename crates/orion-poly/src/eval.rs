//! Homomorphic evaluation of Chebyshev expansions.
//!
//! Uses the baby-step giant-step (Paterson–Stockmeyer) recursion over the
//! Chebyshev basis: baby steps `T_1…T_m` and giants `T_{2m}, T_{4m}, …` are
//! built with the three-term product identity `T_{a+b} = 2·T_a·T_b −
//! T_{|a−b|}`, and the polynomial is recursively split as
//! `p = q·T_N + r` via Chebyshev division. The scale schedule follows
//! Bossuat et al.'s errorless approach, adapted to our per-limb
//! key-switching: every level has one target scale `S[ℓ]` (`S` at the
//! entry level is the input scale; `S[ℓ−1] = S[ℓ]²/q_ℓ`), and all plaintext
//! constants are encoded at exactly the scale that lands the next rescale
//! on schedule.
//!
//! Depth: `⌈log₂(d+1)⌉ + 1` levels for degree `d` (the `+1` pays for the
//! base-case coefficient products; the paper's backend fuses this level
//! away with Lattigo's fused constant path — see README,
//! "Substitutions", depth accounting).

use orion_ckks::encoder::Encoder;
use orion_ckks::encrypt::{Ciphertext, Plaintext};
use orion_ckks::eval::Evaluator;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The identity of one constant plaintext a Chebyshev stage consumes:
/// the replicated slot value, the encoding scale, and the level. Constants
/// are produced in a deterministic order fixed by the recursion, so a
/// recorded `Vec<(StageConst, Plaintext)>` replays exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageConst {
    /// The replicated slot value.
    pub value: f64,
    /// The encoding scale (schedule-derived, bit-reproducible).
    pub scale: f64,
    /// The chain level the plaintext lives at.
    pub level: usize,
}

/// Where a Chebyshev stage's constant plaintexts come from. The on-the-fly
/// path encodes them per inference; the prepared serving path replays a
/// setup-time recording so activations hit zero per-inference encodes
/// (tallied through `OpCounter::encodes`).
///
/// Sources are `Sync` (counters are atomics, recordings sit behind a
/// mutex): the wire-level parallel scheduler evaluates independent
/// ciphertexts' stages concurrently, and a source must tolerate being
/// shared across those units.
pub trait ConstSource: Sync {
    /// Returns the plaintext for `value` replicated at (`scale`, `level`).
    fn constant(&self, enc: &Encoder, value: f64, scale: f64, level: usize) -> Plaintext;
}

/// Encodes every constant fresh and counts how many (the on-the-fly path;
/// the count cross-checks [`stage_const_count`]).
#[derive(Default)]
pub struct FreshConsts {
    count: AtomicU64,
}

impl FreshConsts {
    /// A fresh, zero-count source.
    pub fn new() -> Self {
        Self::default()
    }

    /// Constants encoded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl ConstSource for FreshConsts {
    fn constant(&self, enc: &Encoder, value: f64, scale: f64, level: usize) -> Plaintext {
        self.count.fetch_add(1, Ordering::Relaxed);
        enc.encode_constant(value, scale, level, false)
    }
}

/// Encodes every constant fresh *and* records it, in evaluation order —
/// the prepare-time pass that builds a stage's cached constants.
#[derive(Default)]
pub struct RecordingConsts {
    out: Mutex<Vec<(StageConst, Plaintext)>>,
}

impl RecordingConsts {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded constants, in the order the stage consumed them.
    pub fn into_consts(self) -> Vec<(StageConst, Plaintext)> {
        self.out.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl ConstSource for RecordingConsts {
    fn constant(&self, enc: &Encoder, value: f64, scale: f64, level: usize) -> Plaintext {
        let pt = enc.encode_constant(value, scale, level, false);
        self.out.lock().unwrap_or_else(|e| e.into_inner()).push((
            StageConst {
                value,
                scale,
                level,
            },
            pt.clone(),
        ));
        pt
    }
}

/// Serves constants from a setup-time recording in evaluation order. Every
/// request is checked (bit-exact value/scale, exact level) against the
/// recording; a mismatch falls back to a fresh encode and is counted as a
/// miss, so a drifted cache degrades to the on-the-fly path instead of
/// corrupting the result.
pub struct CachedConsts<'a> {
    consts: &'a [(StageConst, Plaintext)],
    next: AtomicUsize,
    misses: AtomicU64,
}

impl<'a> CachedConsts<'a> {
    /// Serves from `consts` (a [`RecordingConsts`] recording).
    pub fn new(consts: &'a [(StageConst, Plaintext)]) -> Self {
        Self {
            consts,
            next: AtomicUsize::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Cache misses (0 on a faithful replay).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl ConstSource for CachedConsts<'_> {
    fn constant(&self, enc: &Encoder, value: f64, scale: f64, level: usize) -> Plaintext {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if let Some((spec, pt)) = self.consts.get(i) {
            if spec.value.to_bits() == value.to_bits()
                && spec.scale.to_bits() == scale.to_bits()
                && spec.level == level
            {
                return pt.clone();
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        enc.encode_constant(value, scale, level, false)
    }
}

/// Multiplicative depth consumed by [`evaluate_chebyshev`] for degree `d`.
pub fn fhe_eval_depth(d: usize) -> usize {
    assert!(d >= 1);
    let log = usize::BITS as usize - (d.max(1)).leading_zeros() as usize; // ceil(log2(d+1)) for d>=1
    log + 1
}

/// Per-level target scales for one polynomial evaluation.
struct Schedule {
    s: Vec<f64>,
}

impl Schedule {
    fn new(eval: &Evaluator, entry_level: usize, entry_scale: f64) -> Self {
        let ctx = eval.context();
        let mut s = vec![0.0; entry_level + 1];
        s[entry_level] = entry_scale;
        for l in (1..=entry_level).rev() {
            s[l - 1] = s[l] * s[l] / ctx.moduli[l] as f64;
        }
        Self { s }
    }
}

/// Brings `ct` to exactly `(level, target_scale)`, spending one of its
/// levels on a scalar multiplication when needed.
pub fn set_level_scale(eval: &Evaluator, ct: &Ciphertext, level: usize, target: f64) -> Ciphertext {
    let ctx = eval.context();
    if ct.level() == level {
        assert!(
            (ct.scale / target - 1.0).abs() < 1e-9,
            "cannot adjust scale without a spare level ({} vs {target} at level {level})",
            ct.scale
        );
        return ct.clone();
    }
    assert!(ct.level() > level, "cannot raise a ciphertext's level");
    let mut c = ct.clone();
    eval.drop_to_level(&mut c, level + 1);
    let q = ctx.moduli[level + 1] as f64;
    let aux = q * target / c.scale;
    let mut out = eval.mul_scalar(&c, 1.0, aux);
    eval.rescale_assign(&mut out);
    out.scale = target; // snap within float ulps of the true value
    out
}

/// Chebyshev division: `p = q·T_n + r` with `deg q, deg r < n`.
fn cheb_divide(coeffs: &[f64], n: usize) -> (Vec<f64>, Vec<f64>) {
    let len = coeffs.len();
    assert!(len > n && len <= 2 * n);
    let mut q = vec![0.0; len - n];
    let mut r = coeffs[..n].to_vec();
    for k in (n..len).rev() {
        let c = coeffs[k];
        if k == n {
            q[0] += c;
        } else {
            q[k - n] += 2.0 * c;
            r[2 * n - k] -= c;
        }
    }
    (q, r)
}

/// The stage geometry shared by the evaluator and its counting replica:
/// trimmed coefficient count, baby-step count `m`, and baby depth.
fn stage_shape(coeffs: &[f64]) -> (usize, usize, usize) {
    let mut len = coeffs.len();
    while len > 1 && coeffs[len - 1].abs() < 1e-13 {
        len -= 1;
    }
    let d = len - 1;
    assert!(
        d >= 1,
        "constant polynomials need no homomorphic evaluation"
    );
    let logd = usize::BITS as usize - d.leading_zeros() as usize;
    let m = 1usize << logd.div_ceil(2).max(1);
    let baby_depth = usize::BITS as usize - (m - 1).max(1).leading_zeros() as usize;
    (len, m, baby_depth)
}

struct PolyEvaluator<'a> {
    eval: &'a Evaluator,
    enc: &'a Encoder,
    src: &'a dyn ConstSource,
    sched: Schedule,
    /// Memoized Chebyshev basis ciphertexts T_k.
    basis: HashMap<usize, Ciphertext>,
    entry_level: usize,
    baby_m: usize,
    baby_depth: usize,
}

impl PolyEvaluator<'_> {
    /// [`set_level_scale`] with the constant plaintext routed through the
    /// stage's [`ConstSource`] (bit-identical result).
    fn set_ls(&mut self, ct: &Ciphertext, level: usize, target: f64) -> Ciphertext {
        set_level_scale_src(self.eval, self.enc, self.src, ct, level, target)
    }

    /// T_k via T_{a+b} = 2·T_a·T_b − T_{|a−b|}, a = ⌈k/2⌉ (depth ⌈log₂ k⌉).
    fn basis_ct(&mut self, k: usize) -> Ciphertext {
        if let Some(c) = self.basis.get(&k) {
            return c.clone();
        }
        assert!(k >= 2);
        let a = k.div_ceil(2);
        let b = k / 2;
        let ta = self.basis_ct(a);
        let tb = self.basis_ct(b);
        let lc = ta.level().min(tb.level());
        let ta = self.set_ls(&ta, lc, self.sched.s[lc]);
        let tb = self.set_ls(&tb, lc, self.sched.s[lc]);
        let mut prod = self.eval.mul_relin(&ta, &tb);
        self.eval.rescale_assign(&mut prod);
        prod.scale = self.sched.s[lc - 1];
        let two_prod = self.eval.add(&prod, &prod);
        let out = if a == b {
            // T_{2a} = 2·T_a² − 1
            let neg_one = self
                .src
                .constant(self.enc, -1.0, two_prod.scale, two_prod.level());
            self.eval.add_plain(&two_prod, &neg_one)
        } else {
            // T_{a+b} = 2·T_a·T_b − T_{a−b}; a−b = 1 by construction.
            debug_assert_eq!(a - b, 1);
            let t1 = self.basis_ct(1);
            let t1 = self.set_ls(&t1, two_prod.level(), two_prod.scale);
            self.eval.sub(&two_prod, &t1)
        };
        self.basis.insert(k, out.clone());
        out
    }

    /// Σ_k c_k T_k for a short chunk (degree < baby_m), landing at the base
    /// level with the scheduled scale.
    fn base_case(&mut self, coeffs: &[f64]) -> Ciphertext {
        let lb = self.entry_level - self.baby_depth;
        let target_level = lb - 1;
        let target_scale = self.sched.s[target_level];
        let ctx = self.eval.context();
        let q = ctx.moduli[lb] as f64;
        let pt_scale = q * target_scale / self.sched.s[lb];
        // Start from the constant term.
        let t1 = self.basis_ct(1);
        let t1b = self.set_ls(&t1, lb, self.sched.s[lb]);
        let zero = self.src.constant(self.enc, 0.0, pt_scale, t1b.level());
        let mut acc = self.eval.mul_plain(&t1b, &zero);
        self.eval.rescale_assign(&mut acc);
        acc.scale = target_scale;
        if coeffs[0] != 0.0 {
            let c0 = self
                .src
                .constant(self.enc, coeffs[0], target_scale, target_level);
            acc = self.eval.add_plain(&acc, &c0);
        }
        for (k, &c) in coeffs.iter().enumerate().skip(1) {
            if c.abs() < 1e-13 {
                continue;
            }
            let tk = self.basis_ct(k);
            let tk = self.set_ls(&tk, lb, self.sched.s[lb]);
            let ck = self.src.constant(self.enc, c, pt_scale, tk.level());
            let mut term = self.eval.mul_plain(&tk, &ck);
            self.eval.rescale_assign(&mut term);
            term.scale = target_scale;
            acc = self.eval.add(&acc, &term);
        }
        acc
    }

    fn rec(&mut self, coeffs: &[f64]) -> Ciphertext {
        if coeffs.len() <= self.baby_m {
            return self.base_case(coeffs);
        }
        // Largest giant N = m·2^j with N < len.
        let mut n = self.baby_m;
        while 2 * n < coeffs.len() {
            n *= 2;
        }
        let (q, r) = cheb_divide(coeffs, n);
        let cq = self.rec(&q);
        let cr = self.rec(&r);
        let tn = self.basis_ct(n);
        let lc = cq.level().min(tn.level());
        let cq = self.set_ls(&cq, lc, self.sched.s[lc]);
        let tn = self.set_ls(&tn, lc, self.sched.s[lc]);
        let mut prod = self.eval.mul_relin(&cq, &tn);
        self.eval.rescale_assign(&mut prod);
        prod.scale = self.sched.s[lc - 1];
        let cr = self.set_ls(&cr, prod.level(), prod.scale);
        self.eval.add(&prod, &cr)
    }
}

/// Evaluates `Σ_k coeffs[k]·T_k(ct)` homomorphically. The input must hold
/// values in `[-1, 1]` (Orion's range estimation guarantees this upstream —
/// paper §6). The output scale is the schedule's value at the exit level
/// (≈ Δ, exactly consistent for all same-level ciphertexts).
pub fn evaluate_chebyshev(
    eval: &Evaluator,
    enc: &Encoder,
    ct: &Ciphertext,
    coeffs: &[f64],
) -> Ciphertext {
    evaluate_chebyshev_src(eval, enc, &FreshConsts::new(), ct, coeffs)
}

/// [`evaluate_chebyshev`] with every constant plaintext routed through
/// `src` — the prepared serving path passes a [`CachedConsts`] recording so
/// the stage performs zero per-inference encodes; the result is
/// bit-identical no matter the source.
pub fn evaluate_chebyshev_src(
    eval: &Evaluator,
    enc: &Encoder,
    src: &dyn ConstSource,
    ct: &Ciphertext,
    coeffs: &[f64],
) -> Ciphertext {
    let (len, m, baby_depth) = stage_shape(coeffs);
    let coeffs = &coeffs[..len];
    let d = len - 1;
    assert!(
        ct.level() >= fhe_eval_depth(d),
        "level {} too low for degree-{d} evaluation (need {})",
        ct.level(),
        fhe_eval_depth(d)
    );
    let entry = ct.level();
    let sched = Schedule::new(eval, entry, ct.scale);
    let mut pe = PolyEvaluator {
        eval,
        enc,
        src,
        sched,
        basis: HashMap::from([(1, ct.clone())]),
        entry_level: entry,
        baby_m: m,
        baby_depth,
    };
    pe.rec(coeffs)
}

/// [`set_level_scale`] with the alignment constant routed through `src`
/// (bit-identical result; used by the prepared activation path for the
/// output-normalization constant).
pub fn set_level_scale_src(
    eval: &Evaluator,
    enc: &Encoder,
    src: &dyn ConstSource,
    ct: &Ciphertext,
    level: usize,
    target: f64,
) -> Ciphertext {
    let ctx = eval.context();
    if ct.level() == level {
        assert!(
            (ct.scale / target - 1.0).abs() < 1e-9,
            "cannot adjust scale without a spare level ({} vs {target} at level {level})",
            ct.scale
        );
        return ct.clone();
    }
    assert!(ct.level() > level, "cannot raise a ciphertext's level");
    let mut c = ct.clone();
    eval.drop_to_level(&mut c, level + 1);
    let q = ctx.moduli[level + 1] as f64;
    let aux = q * target / c.scale;
    let one = src.constant(enc, 1.0, aux, c.level());
    let mut out = eval.mul_plain(&c, &one);
    eval.rescale_assign(&mut out);
    out.scale = target; // snap within float ulps of the true value
    out
}

/// The number of constant plaintexts [`evaluate_chebyshev`] (plus the
/// optional output normalization) consumes for `coeffs` entered at
/// `entry_level` — a cheap level-only replay of the recursion, used by the
/// op-counting decorator to charge on-the-fly engines without running any
/// crypto. Scale values never influence the count, only levels do.
pub fn stage_const_count(coeffs: &[f64], normalize: bool, entry_level: usize) -> u64 {
    let (len, m, baby_depth) = stage_shape(coeffs);
    let coeffs = &coeffs[..len];
    let mut replay = CountReplay {
        basis: HashMap::from([(1usize, entry_level)]),
        entry_level,
        baby_m: m,
        baby_depth,
        consts: 0,
    };
    let exit = replay.rec(coeffs);
    if normalize {
        // set_level_scale to (exit − 1, Δ) always spends the alignment
        // constant because the level strictly drops
        debug_assert!(exit >= 1);
        replay.consts += 1;
    }
    replay.consts
}

/// Level-only mirror of [`PolyEvaluator`]: same recursion, same branch
/// structure, no ciphertexts — it counts [`ConstSource::constant`] calls.
/// `recorded_counts_match_replay` in the tests pins the two together.
struct CountReplay {
    basis: HashMap<usize, usize>,
    entry_level: usize,
    baby_m: usize,
    baby_depth: usize,
    consts: u64,
}

impl CountReplay {
    /// Mirrors `set_level_scale`: one constant when the level drops.
    fn set_ls(&mut self, ct_level: usize, level: usize) -> usize {
        if ct_level == level {
            return level;
        }
        assert!(ct_level > level, "cannot raise a ciphertext's level");
        self.consts += 1;
        level
    }

    fn basis_ct(&mut self, k: usize) -> usize {
        if let Some(&l) = self.basis.get(&k) {
            return l;
        }
        assert!(k >= 2);
        let a = k.div_ceil(2);
        let b = k / 2;
        let la = self.basis_ct(a);
        let lb = self.basis_ct(b);
        let lc = la.min(lb);
        self.set_ls(la, lc);
        self.set_ls(lb, lc);
        let l_prod = lc - 1;
        if a == b {
            self.consts += 1; // the −1 constant of T_{2a} = 2·T_a² − 1
        } else {
            let l1 = self.basis_ct(1);
            self.set_ls(l1, l_prod);
        }
        self.basis.insert(k, l_prod);
        l_prod
    }

    fn base_case(&mut self, coeffs: &[f64]) -> usize {
        let lb = self.entry_level - self.baby_depth;
        let target_level = lb - 1;
        let l1 = self.basis_ct(1);
        self.set_ls(l1, lb);
        self.consts += 1; // the zero accumulator seed
        if coeffs[0] != 0.0 {
            self.consts += 1;
        }
        for (k, &c) in coeffs.iter().enumerate().skip(1) {
            if c.abs() < 1e-13 {
                continue;
            }
            let lk = self.basis_ct(k);
            self.set_ls(lk, lb);
            self.consts += 1; // the coefficient plaintext
        }
        target_level
    }

    fn rec(&mut self, coeffs: &[f64]) -> usize {
        if coeffs.len() <= self.baby_m {
            return self.base_case(coeffs);
        }
        let mut n = self.baby_m;
        while 2 * n < coeffs.len() {
            n *= 2;
        }
        let (q, r) = cheb_divide(coeffs, n);
        let lq = self.rec(&q);
        let lr = self.rec(&r);
        let ln = self.basis_ct(n);
        let lc = lq.min(ln);
        self.set_ls(lq, lc);
        self.set_ls(ln, lc);
        let l_prod = lc - 1;
        self.set_ls(lr, l_prod);
        l_prod
    }
}

/// Homomorphic ReLU: evaluates the composite sign stages, then the final
/// `x · (sign(x)+1)/2` product. The alignment constant of `x` is chosen so
/// the output scale is exactly Δ (no extra normalization level).
pub fn relu_fhe(
    eval: &Evaluator,
    enc: &Encoder,
    ct: &Ciphertext,
    sign: &crate::sign::CompositeSign,
) -> Ciphertext {
    let ctx = eval.context();
    let mut s = ct.clone();
    for stage in &sign.stages {
        s = evaluate_chebyshev(eval, enc, &s, &stage.coeffs);
    }
    // (s + 1)/2 folded into the product: relu = (x/2)·s + x/2.
    let lc = s.level();
    assert!(lc >= 1, "no level left for the final ReLU product");
    assert!(ct.level() > lc, "input consumed too many levels");
    let q = ctx.moduli[lc] as f64;
    let delta = ctx.scale();
    // Choose x/2's scale so the product rescales to exactly Δ.
    let x_scale = delta * q / s.scale;
    let half_x_hi = {
        let mut c = ct.clone();
        eval.drop_to_level(&mut c, lc + 1);
        let qa = ctx.moduli[lc + 1] as f64;
        let aux = qa * x_scale / c.scale;
        let mut out = eval.mul_scalar(&c, 0.5, aux);
        eval.rescale_assign(&mut out);
        out.scale = x_scale; // value is x/2 at scale x_scale
        out
    };
    let mut prod = eval.mul_relin(&half_x_hi, &s);
    eval.rescale_assign(&mut prod);
    prod.scale = delta; // x_scale·s.scale/q by construction
                        // + x/2 at (prod.level, Δ): produce raw x·(Δ/2) and read it at Δ.
    let mut half_x = set_level_scale(eval, ct, prod.level(), delta * 0.5);
    half_x.scale = delta;
    eval.add(&prod, &half_x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheb::ChebPoly;
    use crate::sign::CompositeSign;
    use orion_ckks::keys::KeyGenerator;
    use orion_ckks::params::{CkksParams, Context};
    use orion_ckks::{Decryptor, Encryptor};
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

    fn setup() -> H {
        let ctx = Context::new(CkksParams::small());
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(51));
        let pk = Arc::new(kg.gen_public_key());
        let keys = Arc::new(kg.gen_eval_keys(&[]));
        let sk = kg.secret_key();
        H {
            ctx: ctx.clone(),
            enc: Encoder::new(ctx.clone()),
            encryptor: Encryptor::with_public_key(ctx.clone(), pk),
            dec: Decryptor::new(ctx.clone(), sk),
            eval: Evaluator::new(ctx, keys),
            rng: StdRng::seed_from_u64(52),
        }
    }

    fn test_inputs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| -0.95 + 1.9 * (i % 97) as f64 / 96.0)
            .collect()
    }

    #[test]
    fn depth_formula() {
        assert_eq!(fhe_eval_depth(3), 3);
        assert_eq!(fhe_eval_depth(15), 5);
        assert_eq!(fhe_eval_depth(27), 6);
        assert_eq!(fhe_eval_depth(63), 7);
        assert_eq!(fhe_eval_depth(127), 8);
    }

    #[test]
    fn evaluates_low_degree_chebyshev() {
        let mut h = setup();
        let poly = ChebPoly::interpolate(|x| 0.5 * x * x * x - 0.25 * x, 3);
        let vals = test_inputs(h.ctx.slots());
        let level = h.ctx.max_level();
        let ct = h.encryptor.encrypt(
            &h.enc.encode(&vals, h.ctx.scale(), level, false),
            &mut h.rng,
        );
        let out_ct = evaluate_chebyshev(&h.eval, &h.enc, &ct, &poly.coeffs);
        let out = h.enc.decode(&h.dec.decrypt(&out_ct));
        for i in (0..vals.len()).step_by(101) {
            let expect = poly.eval(vals[i]);
            assert!(
                (out[i] - expect).abs() < 1e-3,
                "slot {i}: {} vs {expect}",
                out[i]
            );
        }
    }

    #[test]
    fn evaluates_degree_15_silu() {
        let mut h = setup();
        let silu = |x: f64| x / (1.0 + (-4.0 * x).exp());
        let poly = ChebPoly::interpolate(silu, 15);
        let vals = test_inputs(h.ctx.slots());
        let level = h.ctx.max_level();
        let ct = h.encryptor.encrypt(
            &h.enc.encode(&vals, h.ctx.scale(), level, false),
            &mut h.rng,
        );
        let out_ct = evaluate_chebyshev(&h.eval, &h.enc, &ct, &poly.coeffs);
        assert_eq!(out_ct.level(), level - fhe_eval_depth(15));
        let out = h.enc.decode(&h.dec.decrypt(&out_ct));
        for i in (0..vals.len()).step_by(97) {
            let expect = poly.eval(vals[i]);
            assert!(
                (out[i] - expect).abs() < 5e-3,
                "slot {i}: {} vs {expect}",
                out[i]
            );
        }
    }

    #[test]
    fn evaluates_degree_31() {
        let mut h = setup();
        let f = |x: f64| (3.0 * x).sin() * 0.3;
        let poly = ChebPoly::interpolate(f, 31);
        let vals = test_inputs(h.ctx.slots());
        let level = h.ctx.max_level();
        let ct = h.encryptor.encrypt(
            &h.enc.encode(&vals, h.ctx.scale(), level, false),
            &mut h.rng,
        );
        let out_ct = evaluate_chebyshev(&h.eval, &h.enc, &ct, &poly.coeffs);
        let out = h.enc.decode(&h.dec.decrypt(&out_ct));
        for i in (0..vals.len()).step_by(89) {
            let expect = poly.eval(vals[i]);
            assert!(
                (out[i] - expect).abs() < 1e-2,
                "slot {i}: {} vs {expect}",
                out[i]
            );
        }
    }

    #[test]
    fn recorded_counts_match_replay_and_cache_replays_bit_exact() {
        // The level-only counting replay, the fresh-encode counter, and a
        // real recording must all agree — and replaying the recording must
        // reproduce the ciphertext bit-for-bit with zero cache misses.
        let mut h = setup();
        let vals = test_inputs(h.ctx.slots());
        let level = h.ctx.max_level();
        let delta = h.ctx.scale();
        for (degree, normalize) in [(3usize, true), (7, false), (15, true), (31, false)] {
            let f = |x: f64| x / (1.0 + (-3.0 * x).exp());
            let poly = ChebPoly::interpolate(f, degree);
            let ct = h
                .encryptor
                .encrypt(&h.enc.encode(&vals, delta, level, false), &mut h.rng);
            let run = |src: &dyn ConstSource| -> Ciphertext {
                let out = evaluate_chebyshev_src(&h.eval, &h.enc, src, &ct, &poly.coeffs);
                if normalize {
                    set_level_scale_src(&h.eval, &h.enc, src, &out, out.level() - 1, delta)
                } else {
                    out
                }
            };
            let rec = RecordingConsts::new();
            let out_rec = run(&rec);
            let consts = rec.into_consts();
            assert_eq!(
                consts.len() as u64,
                stage_const_count(&poly.coeffs, normalize, level),
                "replay diverged from recording at degree {degree}"
            );
            let fresh = FreshConsts::new();
            let out_fresh = run(&fresh);
            assert_eq!(fresh.count(), consts.len() as u64, "degree {degree}");
            let cached = CachedConsts::new(&consts);
            let out_cached = run(&cached);
            assert_eq!(cached.misses(), 0, "degree {degree}: cache must replay");
            for (a, b) in [(&out_fresh, &out_rec), (&out_cached, &out_rec)] {
                assert_eq!(a.c0, b.c0, "degree {degree}: sources must be bit-exact");
                assert_eq!(a.c1, b.c1, "degree {degree}");
                assert_eq!(a.scale, b.scale, "degree {degree}");
            }
        }
    }

    #[test]
    fn cache_miss_degrades_to_fresh_encode() {
        let mut h = setup();
        let poly = ChebPoly::interpolate(|x| 0.5 * x * x * x - 0.25 * x, 3);
        let vals = test_inputs(h.ctx.slots());
        let level = h.ctx.max_level();
        let ct = h.encryptor.encrypt(
            &h.enc.encode(&vals, h.ctx.scale(), level, false),
            &mut h.rng,
        );
        let rec = RecordingConsts::new();
        let expect = evaluate_chebyshev_src(&h.eval, &h.enc, &rec, &ct, &poly.coeffs);
        let mut consts = rec.into_consts();
        // corrupt one entry's spec so the replay must re-encode it
        consts[1].0.value += 1.0;
        let cached = CachedConsts::new(&consts);
        let out = evaluate_chebyshev_src(&h.eval, &h.enc, &cached, &ct, &poly.coeffs);
        assert_eq!(cached.misses(), 1);
        assert_eq!(out.c0, expect.c0, "miss fallback must stay bit-exact");
        assert_eq!(out.c1, expect.c1);
    }

    #[test]
    fn relu_via_single_stage_sign() {
        // One degree-15 stage keeps the test fast; accuracy is the
        // composite's job, tested in sign.rs.
        let mut h = setup();
        let sign = CompositeSign::fit(&[15], 0.15);
        let vals = test_inputs(h.ctx.slots());
        let level = h.ctx.max_level();
        let ct = h.encryptor.encrypt(
            &h.enc.encode(&vals, h.ctx.scale(), level, false),
            &mut h.rng,
        );
        let out_ct = relu_fhe(&h.eval, &h.enc, &ct, &sign);
        let out = h.enc.decode(&h.dec.decrypt(&out_ct));
        for i in (0..vals.len()).step_by(61) {
            let expect = sign.relu(vals[i]);
            assert!(
                (out[i] - expect).abs() < 2e-2,
                "slot {i} (x={}): {} vs {expect}",
                vals[i],
                out[i]
            );
        }
    }
}
