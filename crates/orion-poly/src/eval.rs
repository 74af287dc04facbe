//! Homomorphic evaluation of Chebyshev expansions.
//!
//! Uses the baby-step giant-step (Paterson–Stockmeyer) recursion over the
//! Chebyshev basis: baby steps `T_1…T_m` and giants `T_{2m}, T_{4m}, …` are
//! built with the three-term product identity `T_{a+b} = 2·T_a·T_b −
//! T_{|a−b|}`, and the polynomial is recursively split as
//! `p = q·T_N + r` via Chebyshev division. The scale schedule follows
//! Bossuat et al.'s errorless approach, adapted to our per-limb
//! key-switching: every level has one target scale `S[ℓ]` (`S` at the
//! entry level is the input scale; `S[ℓ−1] = S[ℓ]²/q_ℓ`), and every
//! constant is carried at exactly the scale that lands the next rescale on
//! schedule.
//!
//! Depth: at most `⌈log₂(d+1)⌉ + 1` levels for degree `d`
//! ([`fhe_eval_depth`], the depth placement reserves; the `+1` pays for
//! the base-case coefficient products; the paper's backend fuses this
//! level away with Lattigo's fused constant path — see README,
//! "Substitutions", depth accounting).
//!
//! The recursion is written **once**, over a private value domain
//! (`Domain`) with two instances: CKKS ciphertexts, and bare levels with a
//! tally. [`evaluate_chebyshev`] runs it on the first, [`stage_ops`] on the
//! second — so a stage's op counts and its exit level are by construction
//! what the engine executes. The two fixed recipes around the stages
//! ([`relu_product`], [`square`]) sit beside their constant [`StageOps`].
//!
//! Constants are scalars, as in the paper's backend: a Chebyshev
//! coefficient or an alignment `1.0` multiplies through
//! [`Evaluator::mul_scalar`] and adds through [`Evaluator::add_scalar`] —
//! one integer per limb, never an encoded plaintext — so a stage needs
//! nothing but the evaluator and has no setup-time artifact.

use orion_ckks::encrypt::Ciphertext;
use orion_ckks::eval::Evaluator;
use std::collections::HashMap;

/// The depth **reserved** for a degree-`d` stage — what compile and
/// placement budget before any level exists. It is an upper bound on what
/// [`evaluate_chebyshev`] consumes, tight for d ∈ {1–7, 12–15, 24–31,
/// 56–63}; for d ∈ {8–11, 16–23, 32–55} the recursion exits one level
/// higher. What a stage really consumes at a given entry level is
/// `entry − stage_ops(..).exit_level`.
pub fn fhe_eval_depth(d: usize) -> usize {
    assert!(d >= 1);
    let log = usize::BITS as usize - (d.max(1)).leading_zeros() as usize; // ceil(log2(d+1)) for d>=1
    log + 1
}

/// The homomorphic operations one activation step issues and the level it
/// leaves its output at — for a Chebyshev stage, a fold of the very
/// recursion that evaluates it ([`stage_ops`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageOps {
    /// Ciphertext products (`mul_relin`: one key-switch each).
    pub hmult: u64,
    /// Constant (scalar) products.
    pub pmult: u64,
    /// Rescales (one per product of either kind).
    pub rescale: u64,
    /// Ciphertext additions and subtractions.
    pub hadd: u64,
    /// Constant (scalar) additions.
    pub padd: u64,
    /// The level of the step's output.
    pub exit_level: usize,
}

/// What the Paterson–Stockmeyer recursion computes on: ciphertexts
/// ([`Scheduled`]) or bare levels (the [`StageOps`] tally). Each method is
/// one engine primitive; what decides *which* primitives run is [`Stage`].
trait Domain {
    type V: Clone;
    fn level(v: &Self::V) -> usize;
    /// `v` at exactly `level` on the scale schedule: a constant product
    /// and rescale iff the level drops.
    fn align(&mut self, v: &Self::V, level: usize) -> Self::V;
    /// `v` one level down at exactly scale Δ (the output normalization).
    fn normalize(&mut self, v: &Self::V) -> Self::V;
    /// `a·b` relinearised and rescaled onto the schedule.
    fn mul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `c·v` rescaled onto the schedule.
    fn mul_const(&mut self, v: &Self::V, c: f64) -> Self::V;
    fn add(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    fn sub(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `v + c`.
    fn add_const(&mut self, v: &Self::V, c: f64) -> Self::V;
}

/// `a·b` relinearised, one level down at exactly `out_scale`.
fn mul_to(eval: &Evaluator, a: &Ciphertext, b: &Ciphertext, out_scale: f64) -> Ciphertext {
    let mut prod = eval.mul_relin(a, b);
    eval.rescale_assign(&mut prod);
    prod.scale = out_scale;
    prod
}

/// `value · ct` one level down at exactly `out_scale`: the scalar is
/// carried at the scale that lands the rescale there.
fn mul_const_to(eval: &Evaluator, ct: &Ciphertext, value: f64, out_scale: f64) -> Ciphertext {
    let q = eval.context().moduli[ct.level()] as f64;
    let mut out = eval.mul_scalar(ct, value, q * out_scale / ct.scale);
    eval.rescale_assign(&mut out);
    out.scale = out_scale; // snap within float ulps of the true value
    out
}

/// Brings `ct` to exactly `(level, target)`, spending one of its levels on
/// a constant product when the level drops.
fn set_level_scale(eval: &Evaluator, ct: &Ciphertext, level: usize, target: f64) -> Ciphertext {
    if ct.level() == level {
        assert!(
            (ct.scale / target - 1.0).abs() < 1e-9,
            "cannot adjust scale without a spare level ({} vs {target} at level {level})",
            ct.scale
        );
        return ct.clone();
    }
    assert!(ct.level() > level, "cannot raise a ciphertext's level");
    mul_const_to(eval, &ct.dropped_to_level(level + 1), 1.0, target)
}

/// The ciphertext domain: every result is snapped onto `s`, the per-level
/// scale schedule of the module docs.
struct Scheduled<'a> {
    eval: &'a Evaluator,
    s: Vec<f64>,
}

impl Domain for Scheduled<'_> {
    type V = Ciphertext;

    fn level(v: &Ciphertext) -> usize {
        v.level()
    }

    fn align(&mut self, v: &Ciphertext, level: usize) -> Ciphertext {
        set_level_scale(self.eval, v, level, self.s[level])
    }

    fn normalize(&mut self, v: &Ciphertext) -> Ciphertext {
        let delta = self.eval.context().scale();
        set_level_scale(self.eval, v, v.level() - 1, delta)
    }

    fn mul(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        mul_to(self.eval, a, b, self.s[a.level() - 1])
    }

    fn mul_const(&mut self, v: &Ciphertext, c: f64) -> Ciphertext {
        mul_const_to(self.eval, v, c, self.s[v.level() - 1])
    }

    fn add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.eval.add(a, b)
    }

    fn sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.eval.sub(a, b)
    }

    fn add_const(&mut self, v: &Ciphertext, c: f64) -> Ciphertext {
        self.eval.add_scalar(v, c)
    }
}

/// The level-only domain: a value is its level, an operation is a tally.
impl Domain for StageOps {
    type V = usize;

    fn level(v: &usize) -> usize {
        *v
    }

    fn align(&mut self, v: &usize, level: usize) -> usize {
        assert!(*v >= level, "cannot raise a ciphertext's level");
        if *v > level {
            self.mul_const(&(level + 1), 1.0)
        } else {
            level
        }
    }

    fn normalize(&mut self, v: &usize) -> usize {
        self.mul_const(v, 1.0)
    }

    fn mul(&mut self, a: &usize, b: &usize) -> usize {
        assert_eq!(a, b, "HMult level mismatch");
        self.hmult += 1;
        self.rescale += 1;
        a.checked_sub(1).expect("cannot rescale at level 0")
    }

    fn mul_const(&mut self, v: &usize, _c: f64) -> usize {
        self.pmult += 1;
        self.rescale += 1;
        v.checked_sub(1).expect("cannot rescale at level 0")
    }

    fn add(&mut self, a: &usize, b: &usize) -> usize {
        assert_eq!(a, b, "HAdd level mismatch");
        self.hadd += 1;
        *a
    }

    fn sub(&mut self, a: &usize, b: &usize) -> usize {
        self.add(a, b)
    }

    fn add_const(&mut self, v: &usize, _c: f64) -> usize {
        self.padd += 1;
        *v
    }
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

/// One stage's evaluation state: the recursion, written once over a
/// [`Domain`].
struct Stage<'d, D: Domain> {
    dom: &'d mut D,
    /// Memoized Chebyshev basis values T_k.
    basis: HashMap<usize, D::V>,
    baby_m: usize,
    /// Where the babies are read: the entry level minus the baby depth.
    base_level: usize,
}

impl<D: Domain> Stage<'_, D> {
    /// T_k via T_{a+b} = 2·T_a·T_b − T_{|a−b|}, a = ⌈k/2⌉ (depth ⌈log₂ k⌉).
    fn basis_ct(&mut self, k: usize) -> D::V {
        if let Some(c) = self.basis.get(&k) {
            return c.clone();
        }
        assert!(k >= 2);
        let a = k.div_ceil(2);
        let b = k / 2;
        let ta = self.basis_ct(a);
        let tb = self.basis_ct(b);
        let lc = D::level(&ta).min(D::level(&tb));
        let ta = self.dom.align(&ta, lc);
        let tb = self.dom.align(&tb, lc);
        let prod = self.dom.mul(&ta, &tb);
        let two_prod = self.dom.add(&prod, &prod);
        let out = if a == b {
            // T_{2a} = 2·T_a² − 1
            self.dom.add_const(&two_prod, -1.0)
        } else {
            // T_{a+b} = 2·T_a·T_b − T_{a−b}; a−b = 1 by construction.
            debug_assert_eq!(a - b, 1);
            let t1 = self.basis_ct(1);
            let t1 = self.dom.align(&t1, D::level(&two_prod));
            self.dom.sub(&two_prod, &t1)
        };
        self.basis.insert(k, out.clone());
        out
    }

    /// Σ_k c_k T_k for a short chunk (degree < baby_m), landing one level
    /// below the babies on the scheduled scale.
    fn base_case(&mut self, coeffs: &[f64]) -> D::V {
        let lb = self.base_level;
        // Start from the constant term, on a zero accumulator.
        let t1 = self.basis_ct(1);
        let t1 = self.dom.align(&t1, lb);
        let mut acc = self.dom.mul_const(&t1, 0.0);
        if coeffs[0] != 0.0 {
            acc = self.dom.add_const(&acc, coeffs[0]);
        }
        for (k, &c) in coeffs.iter().enumerate().skip(1) {
            if c.abs() < 1e-13 {
                continue;
            }
            let tk = self.basis_ct(k);
            let tk = self.dom.align(&tk, lb);
            let term = self.dom.mul_const(&tk, c);
            acc = self.dom.add(&acc, &term);
        }
        acc
    }

    fn rec(&mut self, coeffs: &[f64]) -> D::V {
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
        let lc = D::level(&cq).min(D::level(&tn));
        let cq = self.dom.align(&cq, lc);
        let tn = self.dom.align(&tn, lc);
        let prod = self.dom.mul(&cq, &tn);
        let cr = self.dom.align(&cr, D::level(&prod));
        self.dom.add(&prod, &cr)
    }
}

/// `Σ_k coeffs[k]·T_k(x)` plus the optional exact-Δ normalization, over
/// either domain.
fn run_stage<D: Domain>(dom: &mut D, x: D::V, coeffs: &[f64], normalize: bool) -> D::V {
    // trim to the true degree; coefficients below 1e-13 are skipped
    let mut len = coeffs.len();
    while len > 1 && coeffs[len - 1].abs() < 1e-13 {
        len -= 1;
    }
    let d = len - 1;
    assert!(
        d >= 1,
        "constant polynomials need no homomorphic evaluation"
    );
    let entry_level = D::level(&x);
    assert!(
        entry_level >= fhe_eval_depth(d),
        "level {entry_level} too low for degree-{d} evaluation (need {})",
        fhe_eval_depth(d)
    );
    let logd = usize::BITS as usize - d.leading_zeros() as usize;
    let baby_m = 1usize << logd.div_ceil(2).max(1);
    let baby_depth = usize::BITS as usize - (baby_m - 1).max(1).leading_zeros() as usize;
    let mut stage = Stage {
        dom,
        basis: HashMap::from([(1, x)]),
        baby_m,
        base_level: entry_level - baby_depth,
    };
    let out = stage.rec(&coeffs[..len]);
    if normalize {
        stage.dom.normalize(&out)
    } else {
        out
    }
}

/// Evaluates `Σ_k coeffs[k]·T_k(ct)` homomorphically. The input must hold
/// values in `[-1, 1]` (Orion's range estimation guarantees this upstream —
/// paper §6). The output scale is the schedule's value at the exit level
/// (≈ Δ, exactly consistent for all same-level ciphertexts); with
/// `normalize` the output spends one more level to land on exactly Δ.
pub fn evaluate_chebyshev(
    eval: &Evaluator,
    ct: &Ciphertext,
    coeffs: &[f64],
    normalize: bool,
) -> Ciphertext {
    let mut s = vec![0.0; ct.level() + 1];
    s[ct.level()] = ct.scale;
    for l in (1..=ct.level()).rev() {
        s[l - 1] = s[l] * s[l] / eval.context().moduli[l] as f64;
    }
    run_stage(&mut Scheduled { eval, s }, ct.clone(), coeffs, normalize)
}

/// What [`evaluate_chebyshev`] issues for `coeffs` entered at
/// `entry_level`, and where it exits: the same recursion run on levels
/// alone (scale values never influence which operations run). The plan's
/// op counts, the verifier's wire levels and the cleartext engine all read
/// this.
pub fn stage_ops(coeffs: &[f64], normalize: bool, entry_level: usize) -> StageOps {
    let mut ops = StageOps::default();
    ops.exit_level = run_stage(&mut ops, entry_level, coeffs, normalize);
    ops
}

/// The final ReLU product `magnitude · x · (sign + 1)/2`, computed as
/// `(m·x/2)·sign + m·x/2` with `x` one level above `sign`. The alignment
/// constant of `x` is chosen so the output scale is exactly Δ (no extra
/// normalization level).
pub fn relu_product(
    eval: &Evaluator,
    x: &Ciphertext,
    sign: &Ciphertext,
    magnitude: f64,
) -> Ciphertext {
    let lc = sign.level();
    assert!(lc >= 1, "no level left for the final ReLU product");
    assert_eq!(x.level(), lc + 1, "x sits one level above its sign");
    let delta = eval.context().scale();
    // (m·x/2) at a scale making the product land on Δ.
    let x_scale = delta * eval.context().moduli[lc] as f64 / sign.scale;
    let half = mul_const_to(eval, x, 0.5 * magnitude, x_scale);
    let prod = mul_to(eval, &half, sign, delta); // x_scale·sign.scale/q by construction

    // + m·x/2 at (prod.level, Δ): produce raw x·(Δ·m/2) and read it at Δ.
    let mut half_x = set_level_scale(eval, x, prod.level(), delta * magnitude * 0.5);
    half_x.scale = delta;
    eval.add(&prod, &half_x)
}

/// What [`relu_product`] issues with `x` at `entry_level`.
pub fn relu_product_ops(entry_level: usize) -> StageOps {
    let mut ops = StageOps::default();
    let half = ops.mul_const(&entry_level, 0.5);
    let prod = ops.mul(&half, &half);
    let half_x = ops.align(&entry_level, prod);
    ops.exit_level = ops.add(&prod, &half_x);
    ops
}

/// `ct²` at exactly scale Δ, two levels down: one copy is aligned to
/// scale `q` a level below so the product rescales onto Δ.
pub fn square(eval: &Evaluator, ct: &Ciphertext) -> Ciphertext {
    let level = ct.level();
    let q = eval.context().moduli[level - 1] as f64;
    let aligned = set_level_scale(eval, ct, level - 1, q);
    let base = ct.dropped_to_level(level - 1);
    mul_to(eval, &base, &aligned, eval.context().scale())
}

/// What [`square`] issues with `ct` at `entry_level`.
pub fn square_ops(entry_level: usize) -> StageOps {
    let mut ops = StageOps::default();
    let aligned = ops.align(&entry_level, entry_level - 1);
    ops.exit_level = ops.mul(&aligned, &aligned);
    ops
}

/// Homomorphic ReLU: the composite sign stages, then [`relu_product`].
pub fn relu_fhe(
    eval: &Evaluator,
    ct: &Ciphertext,
    sign: &crate::sign::CompositeSign,
) -> Ciphertext {
    let mut s = ct.clone();
    for stage in &sign.stages {
        s = evaluate_chebyshev(eval, &s, &stage.coeffs, false);
    }
    assert!(ct.level() > s.level(), "input consumed too many levels");
    let x = ct.dropped_to_level(s.level() + 1);
    relu_product(eval, &x, &s, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheb::ChebPoly;
    use crate::sign::CompositeSign;
    use orion_ckks::encoder::Encoder;
    use orion_ckks::keys::KeyGenerator;
    use orion_ckks::params::{CkksParams, Context};
    use orion_ckks::{Decryptor, Encryptor};
    use proptest::prelude::*;
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
        let out_ct = evaluate_chebyshev(&h.eval, &ct, &poly.coeffs, false);
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
        let out_ct = evaluate_chebyshev(&h.eval, &ct, &poly.coeffs, false);
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
        let out_ct = evaluate_chebyshev(&h.eval, &ct, &poly.coeffs, false);
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
    fn stage_exits_where_stage_ops_says() {
        // The level-only run of the recursion and the ciphertext run are
        // one body: the level the engine leaves a stage at is the tally's.
        let mut h = setup();
        let vals = test_inputs(h.ctx.slots());
        let level = h.ctx.max_level();
        let delta = h.ctx.scale();
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&vals, delta, level, false), &mut h.rng);
        // degree 9 exits one level above the reserved depth
        for degree in [3usize, 7, 9, 15, 31] {
            let f = |x: f64| x / (1.0 + (-3.0 * x).exp());
            let poly = ChebPoly::interpolate(f, degree);
            for normalize in [false, true] {
                let out = evaluate_chebyshev(&h.eval, &ct, &poly.coeffs, normalize);
                let ops = stage_ops(&poly.coeffs, normalize, level);
                assert_eq!(out.level(), ops.exit_level, "degree {degree}");
                if normalize {
                    assert_eq!(out.scale.to_bits(), delta.to_bits(), "degree {degree}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn consumed_depth_within_reserved(
            d in 1usize..=63,
            spare in 0usize..4,
            normalize in 0usize..2,
        ) {
            let normalize = normalize == 1;
            // all-non-zero coefficients: the trimmed degree is `d`
            let coeffs: Vec<f64> = (0..=d).map(|k| 1.0 / (k + 1) as f64).collect();
            let reserved = fhe_eval_depth(d) + usize::from(normalize);
            let entry = reserved + spare;
            let ops = stage_ops(&coeffs, normalize, entry);
            let consumed = entry - ops.exit_level;
            prop_assert!(consumed <= reserved, "degree {}: {} > {}", d, consumed, reserved);
            if [7, 15, 27, 31, 63].contains(&d) {
                prop_assert_eq!(consumed, reserved, "zoo degree {}", d);
            }
            prop_assert_eq!(ops.rescale, ops.hmult + ops.pmult);
        }
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
        let out_ct = relu_fhe(&h.eval, &ct, &sign);
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

    /// The ReLU tail as `relu_fhe` computed it before it shared
    /// [`relu_product`] with the engine: written out primitive by
    /// primitive, `x` above the product level.
    fn relu_tail_reference(eval: &Evaluator, ct: &Ciphertext, s: &Ciphertext) -> Ciphertext {
        let ctx = eval.context();
        let lc = s.level();
        let delta = ctx.scale();
        let x_scale = delta * ctx.moduli[lc] as f64 / s.scale;
        let mut c = ct.clone();
        eval.drop_to_level(&mut c, lc + 1);
        let aux = ctx.moduli[lc + 1] as f64 * x_scale / c.scale;
        let mut half_hi = eval.mul_scalar(&c, 0.5, aux);
        eval.rescale_assign(&mut half_hi);
        half_hi.scale = x_scale;
        let mut prod = eval.mul_relin(&half_hi, s);
        eval.rescale_assign(&mut prod);
        prod.scale = delta;
        let mut half_x = ct.clone();
        eval.drop_to_level(&mut half_x, lc);
        let aux = ctx.moduli[lc] as f64 * (delta * 0.5) / half_x.scale;
        let mut half_x = eval.mul_scalar(&half_x, 1.0, aux);
        eval.rescale_assign(&mut half_x);
        half_x.scale = delta;
        eval.add(&prod, &half_x)
    }

    #[test]
    fn shared_relu_product_is_bit_identical_to_the_scalar_tail() {
        let mut h = setup();
        let sign = CompositeSign::fit(&[7], 0.15);
        let vals = test_inputs(h.ctx.slots());
        let level = h.ctx.max_level();
        let ct = h.encryptor.encrypt(
            &h.enc.encode(&vals, h.ctx.scale(), level, false),
            &mut h.rng,
        );
        let s = evaluate_chebyshev(&h.eval, &ct, &sign.stages[0].coeffs, false);
        let expect = relu_tail_reference(&h.eval, &ct, &s);
        let got = relu_fhe(&h.eval, &ct, &sign);
        assert_eq!(got.c0, expect.c0);
        assert_eq!(got.c1, expect.c1);
        assert_eq!(got.scale.to_bits(), expect.scale.to_bits());
        assert_eq!(got.level(), relu_product_ops(s.level() + 1).exit_level);
    }

    #[test]
    fn recipe_tallies_match_what_the_recipes_consume() {
        // `relu_product_ops` / `square_ops` are written by hand beside the
        // ciphertext recipes: hold their exit levels to the real engine and
        // their op mix to one rescale per product (the executed counts are
        // held end to end by orion-nn's `tests/poly_counts.rs`).
        let mut h = setup();
        let vals = test_inputs(h.ctx.slots());
        let level = h.ctx.max_level();
        let x = h.encryptor.encrypt(
            &h.enc.encode(&vals, h.ctx.scale(), level, false),
            &mut h.rng,
        );
        let mut sign = x.clone();
        h.eval.drop_to_level(&mut sign, level - 1);

        let out = relu_product(&h.eval, &x, &sign, 0.75);
        let ops = relu_product_ops(level);
        assert_eq!(out.level(), ops.exit_level);
        assert_eq!((ops.hmult, ops.pmult, ops.hadd, ops.padd), (1, 2, 1, 0));
        assert_eq!(ops.rescale, ops.hmult + ops.pmult);

        let out = square(&h.eval, &x);
        let ops = square_ops(level);
        assert_eq!(out.level(), ops.exit_level);
        assert_eq!((ops.hmult, ops.pmult, ops.hadd, ops.padd), (1, 1, 0, 0));
        assert_eq!(ops.rescale, ops.hmult + ops.pmult);
    }
}
