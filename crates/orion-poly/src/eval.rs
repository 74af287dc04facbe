//! Homomorphic evaluation of Chebyshev expansions.
//!
//! Uses the baby-step giant-step (Paterson–Stockmeyer) recursion over the
//! Chebyshev basis: baby steps `T_1…T_m` and giants `T_{2m}, T_{4m}, …` are
//! built with the three-term product identity `T_{a+b} = 2·T_a·T_b −
//! T_{|a−b|}`, and the polynomial is recursively split as
//! `p = q·T_n + r` via Chebyshev division.
//!
//! **Target (level, scale).** Every node of the recursion is asked to land
//! on a level and a scale chosen by its consumer — the recursion of the
//! paper's backend (Lattigo's polynomial evaluator, after Bossuat et al.).
//! A basis value `T_k` keeps the level and scale it was born with
//! (`entry − ⌈log₂ k⌉`, whatever its rescale left) and is read lower by a
//! free mod-drop; a coefficient multiplies at whatever auxiliary scale makes
//! the term land on target; a chunk `q·T_n + r` is summed *unrescaled* —
//! `q` is asked for `scale / scale(T_n)`, `r` for the raw product's own
//! `(level, scale)` — and rescaled once. The top call asks for exactly Δ.
//!
//! Depth: exactly `⌈log₂(d+1)⌉` levels for degree `d`
//! ([`fhe_eval_depth`]) — the paper's. A leaf `Σ c_k·T_k` can be asked for
//! above the level its highest `T_k` was born at only on the pure `q`-chain
//! of a full-depth split; there the same chunk is re-split with half the
//! baby width (degree 7: `((c·T₁ + c')·T₂ + r')·T₄ + r`), which costs at
//! most `log₂ m − 1` extra ciphertext products per stage.
//!
//! The recursion is written **once**, over a private value domain
//! (`Domain`) with two instances: CKKS ciphertexts, and bare levels with a
//! tally. [`evaluate_chebyshev`] runs it on the first, [`stage_ops`] on the
//! second — so a stage's op counts and its exit level are by construction
//! what the engine executes. The two fixed recipes around the stages
//! ([`relu_product`], [`square`]) sit beside their constant [`StageOps`].
//!
//! Constants are scalars, as in the paper's backend: a Chebyshev
//! coefficient multiplies through [`Evaluator::mul_scalar`] and adds
//! through [`Evaluator::add_scalar`] — one integer per limb, never an
//! encoded plaintext — so a stage needs nothing but the evaluator and has
//! no setup-time artifact.

use orion_ckks::encrypt::Ciphertext;
use orion_ckks::eval::Evaluator;
use std::collections::HashMap;

/// `⌈log₂ k⌉` for `k ≥ 1`.
fn ceil_log2(k: usize) -> usize {
    k.next_power_of_two().trailing_zeros() as usize
}

/// The degree a stage evaluates: trailing coefficients below `1e-13` are
/// not part of the polynomial (0 for a constant).
pub fn trimmed_degree(coeffs: &[f64]) -> usize {
    coeffs.iter().rposition(|c| c.abs() >= 1e-13).unwrap_or(0)
}

/// The depth of a degree-`d` stage, `⌈log₂(d+1)⌉` (`d` the
/// [`trimmed_degree`]): what compile and placement reserve before any level
/// exists **equals** what [`evaluate_chebyshev`] consumes,
/// `entry − stage_ops(..).exit_level`, for every polynomial.
pub fn fhe_eval_depth(d: usize) -> usize {
    assert!(d >= 1);
    ceil_log2(d + 1)
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
    /// Rescales (a stage: one per ciphertext product plus the exit — a
    /// chunk's scalar products share its one rescale).
    pub rescale: u64,
    /// Ciphertext additions and subtractions.
    pub hadd: u64,
    /// Constant (scalar) additions.
    pub padd: u64,
    /// The level of the step's output.
    pub exit_level: usize,
}

/// What the Paterson–Stockmeyer recursion computes on: ciphertexts
/// ([`Cts`]) or bare levels (the [`StageOps`] tally). Each method is one
/// engine primitive; what decides *which* primitives run is [`Stage`], and
/// it never branches on a scale value.
trait Domain {
    type V: Clone;
    fn level(v: &Self::V) -> usize;
    fn scale(v: &Self::V) -> f64;
    /// The chain prime a rescale from `level` divides by.
    fn modulus(&self, level: usize) -> f64;
    /// `v` read at `level`, at or below its own: a free mod-drop.
    fn drop(&mut self, v: &Self::V, level: usize) -> Self::V;
    /// `a·b` relinearised, not rescaled.
    fn mul_raw(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `c·v` at exactly `out_scale`, not rescaled.
    fn mul_const_raw(&mut self, v: &Self::V, c: f64, out_scale: f64) -> Self::V;
    /// `v` one level down, read at exactly `out_scale`.
    fn rescale(&mut self, v: Self::V, out_scale: f64) -> Self::V;
    fn add(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    fn sub(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `v + c`.
    fn add_const(&mut self, v: &Self::V, c: f64) -> Self::V;
}

/// `value · ct` at exactly `out_scale`, not rescaled: the scalar is carried
/// at the auxiliary scale that lands the product there.
fn mul_const_raw(eval: &Evaluator, ct: &Ciphertext, value: f64, out_scale: f64) -> Ciphertext {
    let mut out = eval.mul_scalar(ct, value, out_scale / ct.scale);
    out.scale = out_scale; // snap within float ulps of the true value
    out
}

/// `ct` one level down, read at exactly `out_scale`.
fn rescale_to(eval: &Evaluator, mut ct: Ciphertext, out_scale: f64) -> Ciphertext {
    eval.rescale_assign(&mut ct);
    ct.scale = out_scale;
    ct
}

/// `a·b` relinearised, one level down at exactly `out_scale`.
fn mul_to(eval: &Evaluator, a: &Ciphertext, b: &Ciphertext, out_scale: f64) -> Ciphertext {
    rescale_to(eval, eval.mul_relin(a, b), out_scale)
}

/// `value · ct` one level down at exactly `out_scale`.
fn mul_const_to(eval: &Evaluator, ct: &Ciphertext, value: f64, out_scale: f64) -> Ciphertext {
    let q = eval.context().moduli[ct.level()] as f64;
    rescale_to(
        eval,
        mul_const_raw(eval, ct, value, q * out_scale),
        out_scale,
    )
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

/// The ciphertext domain.
struct Cts<'a>(&'a Evaluator);

impl Domain for Cts<'_> {
    type V = Ciphertext;

    fn level(v: &Ciphertext) -> usize {
        v.level()
    }

    fn scale(v: &Ciphertext) -> f64 {
        v.scale
    }

    fn modulus(&self, level: usize) -> f64 {
        self.0.context().moduli[level] as f64
    }

    fn drop(&mut self, v: &Ciphertext, level: usize) -> Ciphertext {
        v.dropped_to_level(level)
    }

    fn mul_raw(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.0.mul_relin(a, b)
    }

    fn mul_const_raw(&mut self, v: &Ciphertext, c: f64, out_scale: f64) -> Ciphertext {
        mul_const_raw(self.0, v, c, out_scale)
    }

    fn rescale(&mut self, v: Ciphertext, out_scale: f64) -> Ciphertext {
        rescale_to(self.0, v, out_scale)
    }

    fn add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.0.add(a, b)
    }

    fn sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.0.sub(a, b)
    }

    fn add_const(&mut self, v: &Ciphertext, c: f64) -> Ciphertext {
        self.0.add_scalar(v, c)
    }
}

/// The level-only domain: a value is its level, every scale is `1.0`, an
/// operation is a tally.
impl Domain for StageOps {
    type V = usize;

    fn level(v: &usize) -> usize {
        *v
    }

    fn scale(_: &usize) -> f64 {
        1.0
    }

    fn modulus(&self, _level: usize) -> f64 {
        1.0
    }

    fn drop(&mut self, v: &usize, level: usize) -> usize {
        assert!(*v >= level, "cannot raise a ciphertext's level");
        level
    }

    fn mul_raw(&mut self, a: &usize, b: &usize) -> usize {
        assert_eq!(a, b, "HMult level mismatch");
        self.hmult += 1;
        *a
    }

    fn mul_const_raw(&mut self, v: &usize, _c: f64, _out_scale: f64) -> usize {
        self.pmult += 1;
        *v
    }

    fn rescale(&mut self, v: usize, _out_scale: f64) -> usize {
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

/// What a chunk of the recursion evaluates to. A chunk that trims to a
/// constant stays a number until it meets a ciphertext: `c·T_n` is a scalar
/// product, `+ c` a scalar addition.
enum Chunk<V> {
    Const(f64),
    Val(V),
}

/// One stage's evaluation state: the recursion, written once over a
/// [`Domain`].
struct Stage<'d, D: Domain> {
    dom: &'d mut D,
    /// Memoized Chebyshev basis values: `T_k` at level
    /// `entry_level − ⌈log₂ k⌉`, at the scale its one rescale left.
    basis: HashMap<usize, D::V>,
    entry_level: usize,
}

impl<D: Domain> Stage<'_, D> {
    /// `T_k` read at `level`: built on first use, then a free mod-drop from
    /// the level it was born at.
    fn basis_at(&mut self, k: usize, level: usize) -> D::V {
        if !self.basis.contains_key(&k) {
            let tk = self.build_basis(k);
            self.basis.insert(k, tk);
        }
        self.dom.drop(&self.basis[&k], level)
    }

    /// T_k via T_{a+b} = 2·T_a·T_b − T_{|a−b|}, a = ⌈k/2⌉ (depth ⌈log₂ k⌉).
    fn build_basis(&mut self, k: usize) -> D::V {
        assert!(k >= 2);
        let a = k.div_ceil(2);
        let b = k / 2;
        // b ≤ a: T_b was born at or above T_a's level
        let lc = self.entry_level - ceil_log2(a);
        let ta = self.basis_at(a, lc);
        let tb = self.basis_at(b, lc);
        let prod = self.dom.mul_raw(&ta, &tb);
        let two_prod = self.dom.add(&prod, &prod);
        let raw = if a == b {
            // T_{2a} = 2·T_a² − 1
            self.dom.add_const(&two_prod, -1.0)
        } else {
            // T_{a+b} = 2·T_a·T_b − T_{a−b}; a−b = 1 by construction, and
            // T_1 joins the raw product before its one rescale.
            debug_assert_eq!(a - b, 1);
            let t1 = self.basis_at(1, lc);
            let t1 = self.dom.mul_const_raw(&t1, 1.0, D::scale(&two_prod));
            self.dom.sub(&two_prod, &t1)
        };
        let out_scale = D::scale(&raw) / self.dom.modulus(lc);
        self.dom.rescale(raw, out_scale)
    }

    fn add_const(&mut self, v: D::V, c: f64) -> D::V {
        if c == 0.0 {
            v
        } else {
            self.dom.add_const(&v, c)
        }
    }

    /// `Σ_k coeffs[k]·T_k` rescaled onto exactly `(level, scale)`.
    fn rec(&mut self, coeffs: &[f64], m: usize, level: usize, scale: f64) -> Chunk<D::V> {
        let raw_scale = scale * self.dom.modulus(level + 1);
        match self.rec_raw(coeffs, m, level + 1, raw_scale) {
            Chunk::Val(v) => Chunk::Val(self.dom.rescale(v, scale)),
            constant => constant,
        }
    }

    /// `Σ_k coeffs[k]·T_k` unrescaled at exactly `(level, scale)`; chunks of
    /// up to `m` coefficients are leaves.
    fn rec_raw(&mut self, coeffs: &[f64], m: usize, level: usize, scale: f64) -> Chunk<D::V> {
        let coeffs = &coeffs[..=trimmed_degree(coeffs)];
        let deg = coeffs.len() - 1;
        if deg == 0 {
            return Chunk::Const(coeffs[0]);
        }
        if coeffs.len() <= m {
            if level + ceil_log2(deg) > self.entry_level {
                // T_deg is born below `level` (only ever on the pure
                // q-chain): split the same chunk with half the baby width.
                return self.rec_raw(coeffs, m / 2, level, scale);
            }
            let mut acc: Option<D::V> = None;
            for (k, &c) in coeffs.iter().enumerate().skip(1) {
                if c.abs() < 1e-13 {
                    continue;
                }
                let tk = self.basis_at(k, level);
                let term = self.dom.mul_const_raw(&tk, c, scale);
                acc = Some(match acc {
                    None => term,
                    Some(acc) => self.dom.add(&acc, &term),
                });
            }
            let acc = acc.expect("a trimmed chunk of degree ≥ 1 has a term");
            return Chunk::Val(self.add_const(acc, coeffs[0]));
        }
        // Largest giant n = m·2^j with n < len.
        let mut n = m;
        while 2 * n < coeffs.len() {
            n *= 2;
        }
        let (q, r) = cheb_divide(coeffs, n);
        let tn = self.basis_at(n, level);
        let prod = match self.rec(&q, m, level, scale / D::scale(&tn)) {
            Chunk::Const(c) => self.dom.mul_const_raw(&tn, c, scale),
            Chunk::Val(q) => self.dom.mul_raw(&q, &tn),
        };
        // `r` joins the raw product: the chunk is rescaled once, by `rec`.
        Chunk::Val(match self.rec_raw(&r, m, level, scale) {
            Chunk::Const(c) => self.add_const(prod, c),
            Chunk::Val(r) => self.dom.add(&prod, &r),
        })
    }
}

/// `Σ_k coeffs[k]·T_k(x)` at exactly `out_scale`, [`fhe_eval_depth`] levels
/// below `x`, over either domain.
fn run_stage<D: Domain>(dom: &mut D, x: D::V, coeffs: &[f64], out_scale: f64) -> D::V {
    let d = trimmed_degree(coeffs);
    assert!(
        d >= 1,
        "constant polynomials need no homomorphic evaluation"
    );
    let entry_level = D::level(&x);
    let depth = fhe_eval_depth(d);
    assert!(
        entry_level >= depth,
        "level {entry_level} too low for degree-{d} evaluation (need {depth})"
    );
    let logd = usize::BITS as usize - d.leading_zeros() as usize;
    let baby_m = 1usize << logd.div_ceil(2).max(1);
    let mut stage = Stage {
        dom,
        basis: HashMap::from([(1, x)]),
        entry_level,
    };
    match stage.rec(coeffs, baby_m, entry_level - depth, out_scale) {
        Chunk::Val(out) => out,
        Chunk::Const(_) => unreachable!("degree ≥ 1"),
    }
}

/// Evaluates `Σ_k coeffs[k]·T_k(ct)` homomorphically. The input must hold
/// values in `[-1, 1]` (Orion's range estimation guarantees this upstream —
/// paper §6); its scale may be anything near Δ. The output sits
/// [`fhe_eval_depth`] levels below `ct` at exactly scale Δ.
pub fn evaluate_chebyshev(eval: &Evaluator, ct: &Ciphertext, coeffs: &[f64]) -> Ciphertext {
    let delta = eval.context().scale();
    run_stage(&mut Cts(eval), ct.clone(), coeffs, delta)
}

/// What [`evaluate_chebyshev`] issues for `coeffs` entered at
/// `entry_level`, and where it exits: the same recursion run on levels
/// alone (scale values never influence which operations run). The plan's
/// op counts, the verifier's wire levels and the cleartext engine all read
/// this.
pub fn stage_ops(coeffs: &[f64], entry_level: usize) -> StageOps {
    let mut ops = StageOps::default();
    ops.exit_level = run_stage(&mut ops, entry_level, coeffs, 1.0);
    ops
}

/// The final ReLU product `magnitude · x · (sign + 1)/2`, computed as
/// `(m·x/2)·sign + m·x/2` with `x` one level above `sign`. The alignment
/// constant of `x` is chosen so the output scale is exactly Δ (no extra
/// level).
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
    // m·x/2 at both levels, the product, a rescale each, the sum
    StageOps {
        hmult: 1,
        pmult: 2,
        rescale: 3,
        hadd: 1,
        exit_level: entry_level - 2,
        ..StageOps::default()
    }
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
    // the aligned copy, the product, a rescale each
    StageOps {
        hmult: 1,
        pmult: 1,
        rescale: 2,
        exit_level: entry_level - 2,
        ..StageOps::default()
    }
}

/// Homomorphic ReLU: the composite sign stages, then [`relu_product`].
pub fn relu_fhe(
    eval: &Evaluator,
    ct: &Ciphertext,
    sign: &crate::sign::CompositeSign,
) -> Ciphertext {
    let mut s = ct.clone();
    for stage in &sign.stages {
        s = evaluate_chebyshev(eval, &s, &stage.coeffs);
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

    /// Max slot error allowed of a stage of a smooth interpolant at
    /// `CkksParams::small()`: twice the worst measured (1.5e-6, degree 63).
    const TOL: f64 = 3e-6;

    /// The largest slot error of `got` against `poly` on `vals`.
    fn max_error(poly: &ChebPoly, vals: &[f64], got: &[f64]) -> f64 {
        vals.iter()
            .zip(got)
            .map(|(&x, &y)| (y - poly.eval(x)).abs())
            .fold(0.0, f64::max)
    }

    fn test_inputs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| -0.95 + 1.9 * (i % 97) as f64 / 96.0)
            .collect()
    }

    #[test]
    fn depth_formula() {
        // ⌈log₂(d+1)⌉, the paper's: ReLU [15, 15, 27] is 4 + 4 + 5 = 13
        assert_eq!(fhe_eval_depth(1), 1);
        assert_eq!(fhe_eval_depth(3), 2);
        assert_eq!(fhe_eval_depth(15), 4);
        assert_eq!(fhe_eval_depth(16), 5);
        assert_eq!(fhe_eval_depth(27), 5);
        assert_eq!(fhe_eval_depth(63), 6);
        assert_eq!(fhe_eval_depth(127), 7);
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
        let out_ct = evaluate_chebyshev(&h.eval, &ct, &poly.coeffs);
        let out = h.enc.decode(&h.dec.decrypt(&out_ct));
        let err = max_error(&poly, &vals, &out);
        assert!(err < TOL, "max slot error {err}");
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
        let out_ct = evaluate_chebyshev(&h.eval, &ct, &poly.coeffs);
        assert_eq!(out_ct.level(), level - fhe_eval_depth(15));
        let out = h.enc.decode(&h.dec.decrypt(&out_ct));
        let err = max_error(&poly, &vals, &out);
        assert!(err < TOL, "max slot error {err}");
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
        let out_ct = evaluate_chebyshev(&h.eval, &ct, &poly.coeffs);
        let out = h.enc.decode(&h.dec.decrypt(&out_ct));
        let err = max_error(&poly, &vals, &out);
        assert!(err < TOL, "max slot error {err}");
    }

    #[test]
    fn stage_exits_where_stage_ops_says() {
        // The level-only run of the recursion and the ciphertext run are
        // one body: the level the engine leaves a stage at is the tally's,
        // the reserved depth exactly, on exactly Δ.
        let mut h = setup();
        let vals = test_inputs(h.ctx.slots());
        let level = h.ctx.max_level();
        let delta = h.ctx.scale();
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&vals, delta, level, false), &mut h.rng);
        let f = |x: f64| x / (1.0 + (-3.0 * x).exp());
        let mut cases: Vec<(ChebPoly, f64)> = [3, 7, 9, 15, 31, 63]
            .map(|d| (ChebPoly::interpolate(f, d), TOL))
            .into();
        // an odd sign stage: every even coefficient is zero, the others
        // reach ~10 (measured 1.0e-5)
        cases.push((CompositeSign::fit(&[27], 0.15).stages.remove(0), 2e-5));
        for (poly, tol) in &cases {
            let degree = poly.degree();
            let out = evaluate_chebyshev(&h.eval, &ct, &poly.coeffs);
            let ops = stage_ops(&poly.coeffs, level);
            assert_eq!(out.level(), ops.exit_level, "degree {degree}");
            assert_eq!(level - out.level(), fhe_eval_depth(degree));
            assert_eq!(out.scale.to_bits(), delta.to_bits(), "degree {degree}");
            let got = h.enc.decode(&h.dec.decrypt(&out));
            let err = max_error(poly, &vals, &got);
            assert!(err < *tol, "degree {degree}: max slot error {err}");
        }
    }

    /// `d + 1` coefficients, non-zero where `keep(k)`, the top one always.
    fn pattern(d: usize, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        (0..=d)
            .map(|k| {
                if k == d || keep(k) {
                    1.0 / (k + 1) as f64
                } else {
                    0.0
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn consumed_depth_within_reserved(spare in 0usize..4, mask in 0u64..1 << 62) {
            // reserved == consumed, for every degree and zero pattern
            for d in 1usize..=255 {
                for coeffs in [
                    pattern(d, |_| true),
                    pattern(d, |k| k % 2 == 1),
                    pattern(d, |k| k % 2 == 0),
                    pattern(d, |k| mask >> (k % 62) & 1 == 1),
                    // padded past the true degree with what the stage trims
                    [pattern(d, |_| true), vec![1e-14; 1 + (mask % 40) as usize]].concat(),
                ] {
                    prop_assert_eq!(trimmed_degree(&coeffs), d);
                    let reserved = fhe_eval_depth(d);
                    let entry = reserved + spare;
                    let ops = stage_ops(&coeffs, entry);
                    prop_assert_eq!(entry - ops.exit_level, reserved, "degree {}", d);
                    // one rescale per ciphertext product plus the exit
                    prop_assert!(ops.rescale <= ops.hmult + 2, "degree {}: {:?}", d, ops);
                }
            }
        }
    }

    #[test]
    fn stage_tallies_stay_within_their_pins() {
        // (hmult, pmult, rescale) upper bounds: a better split may beat
        // them, none may exceed them.
        let odd = |d| pattern(d, |k| k % 2 == 1);
        let dense = |d| pattern(d, |_| true);
        for (coeffs, pin) in [
            (dense(1), (0, 1, 1)),
            (dense(7), (5, 6, 6)),
            (dense(15), (8, 12, 9)),
            (odd(15), (8, 9, 9)),
            (odd(27), (10, 17, 11)),
            (dense(31), (13, 29, 14)),
            (dense(63), (18, 57, 19)),
            (dense(127), (27, 124, 28)),
        ] {
            let d = coeffs.len() - 1;
            let ops = stage_ops(&coeffs, fhe_eval_depth(d));
            assert!(
                ops.hmult <= pin.0 && ops.pmult <= pin.1 && ops.rescale <= pin.2,
                "degree {d}: {ops:?} exceeds {pin:?}"
            );
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
        let s = evaluate_chebyshev(&h.eval, &ct, &sign.stages[0].coeffs);
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
