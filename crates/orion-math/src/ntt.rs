//! Negacyclic Number Theoretic Transform over a single RNS prime.
//!
//! A polynomial in `Z_q[X]/(X^N + 1)` is moved between its coefficient
//! representation and its evaluation representation (values at the odd
//! powers of a primitive `2N`-th root of unity ψ). Pointwise products in the
//! evaluation domain are negacyclic convolutions in the coefficient domain,
//! which is what makes CKKS multiplication `O(N log N)` (paper §2.5).
//!
//! The butterflies follow Longa–Naehrig with Shoup precomputation. The
//! `*_lazy` entry points additionally use Harvey's lazy reduction: forward
//! butterflies keep values in `[0, 4q)` and inverse butterflies in
//! `[0, 2q)`, deferring the per-butterfly corrections to one final sweep.
//! Both paths produce bit-identical fully-reduced output.

use crate::modular::{
    add_mod, inv_mod, mul_mod, mul_mod_shoup, pow_mod, shoup_precompute, sub_mod,
};
use crate::primes::primitive_2n_root;
use crate::simd::{self, InvScale, Twiddles, IFMA_Q_BOUND};
use std::sync::OnceLock;

/// Precomputed twiddle tables for the negacyclic NTT modulo one prime.
///
/// Only the forward tables are built eagerly; the inverse tables (needed by
/// decryption/rescale/decompose but not by encode-only paths) are built on
/// first use, halving `new`'s cost in prepare-time profiles.
#[derive(Clone)]
pub struct NttTable {
    /// Ring degree (power of two).
    pub n: usize,
    /// The prime modulus.
    pub q: u64,
    /// ψ, a primitive 2N-th root of unity mod q.
    pub psi: u64,
    /// ψ powers in bit-reversed order.
    psi_brv: TwiddleTable,
    /// Inverse-direction tables, built lazily on first inverse transform.
    inv: OnceLock<InvTables>,
}

/// ψ⁻¹ twiddles and the N⁻¹ scaling constants, including N⁻¹
/// pre-multiplied into the single last-stage twiddle `ψ⁻¹_brv[1]` so the
/// lazy kernel can fold the scaling into the final butterfly stage.
#[derive(Clone)]
struct InvTables {
    inv_psi_brv: TwiddleTable,
    scale: InvScale,
}

/// One direction's twiddles with their 64-bit Shoup pairs and, for a prime
/// below [`IFMA_Q_BOUND`], their 52-bit twins (empty otherwise): the
/// owned form of [`Twiddles`].
#[derive(Clone)]
struct TwiddleTable {
    w: Vec<u64>,
    shoup: Vec<u64>,
    shoup52: Vec<u64>,
}

impl TwiddleTable {
    fn view(&self) -> Twiddles<'_> {
        Twiddles {
            w: &self.w,
            shoup: &self.shoup,
            shoup52: &self.shoup52,
        }
    }
}

/// The 52-bit Shoup twin of `w` when `q` is below the IFMA bound, else 0
/// (no kernel reads it).
fn shoup52_or_zero(w: u64, q: u64) -> u64 {
    if q < IFMA_Q_BOUND {
        simd::shoup52(w, q)
    } else {
        0
    }
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Successive powers of `base` (starting at 1) in bit-reversed order, each
/// paired with its Shoup constants. The power chain itself runs on Shoup
/// multiplication — no `u128 %` in the loop.
fn powers_brv(base: u64, n: usize, q: u64) -> TwiddleTable {
    let bits = n.trailing_zeros();
    let base_shoup = shoup_precompute(base, q);
    let mut pows = vec![0u64; n];
    let mut p = 1u64;
    for slot in pows.iter_mut() {
        *slot = p;
        p = mul_mod_shoup(p, base, base_shoup, q);
    }
    let w: Vec<u64> = (0..n).map(|i| pows[bit_reverse(i, bits)]).collect();
    let shoup = w.iter().map(|&x| shoup_precompute(x, q)).collect();
    let shoup52 = if q < IFMA_Q_BOUND {
        w.iter().map(|&x| simd::shoup52(x, q)).collect()
    } else {
        Vec::new()
    };
    TwiddleTable { w, shoup, shoup52 }
}

impl NttTable {
    /// Builds the table for ring degree `n` and prime `q ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two `≥ 2` and `q < 2⁶²`: the lazy
    /// butterflies hold values up to `4q`, which must not wrap a `u64`.
    pub fn new(n: usize, q: u64) -> Self {
        assert!(n.is_power_of_two() && n >= 2);
        assert!(q < 1 << 62, "lazy reduction needs 4q < 2^64");
        let psi = primitive_2n_root(q, n);
        Self {
            n,
            q,
            psi,
            psi_brv: powers_brv(psi, n, q),
            inv: OnceLock::new(),
        }
    }

    /// Inverse-table access: the hot path is one atomic load plus a
    /// predictable branch; the one-time build lives out of line.
    #[inline]
    fn inv_tables(&self) -> &InvTables {
        match self.inv.get() {
            Some(t) => t,
            None => self.build_inv_tables(),
        }
    }

    #[cold]
    fn build_inv_tables(&self) -> &InvTables {
        self.inv.get_or_init(|| {
            let (n, q) = (self.n, self.q);
            let inv_psi = inv_mod(self.psi, q);
            let inv_psi_brv = powers_brv(inv_psi, n, q);
            let n_inv = inv_mod(n as u64 % q, q);
            // ψ⁻¹_brv[1]·N⁻¹: the last inverse stage has exactly one
            // twiddle, so N⁻¹ folds into it for free.
            let s_n_inv = mul_mod(inv_psi_brv.w[1], n_inv, q);
            InvTables {
                inv_psi_brv,
                scale: InvScale {
                    n_inv,
                    n_inv_shoup: shoup_precompute(n_inv, q),
                    n_inv_shoup52: shoup52_or_zero(n_inv, q),
                    s_n_inv,
                    s_n_inv_shoup: shoup_precompute(s_n_inv, q),
                    s_n_inv_shoup52: shoup52_or_zero(s_n_inv, q),
                },
            }
        })
    }

    /// In-place forward NTT: coefficient → evaluation representation.
    pub fn forward(&self, a: &mut [u64]) {
        debug_assert_eq!(a.len(), self.n);
        let q = self.q;
        let n = self.n;
        let mut t = n;
        let mut m = 1;
        while m < n {
            t >>= 1;
            // Per-stage twiddle subslices keep the inner loop free of
            // table-offset arithmetic the compiler can't hoist itself.
            let tw = &self.psi_brv.w[m..2 * m];
            let tw_sh = &self.psi_brv.shoup[m..2 * m];
            for i in 0..m {
                let j1 = 2 * i * t;
                let (s, s_sh) = (tw[i], tw_sh[i]);
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = mul_mod_shoup(a[j + t], s, s_sh, q);
                    a[j] = add_mod(u, v, q);
                    a[j + t] = sub_mod(u, v, q);
                }
            }
            m <<= 1;
        }
    }

    /// In-place inverse NTT: evaluation → coefficient representation.
    pub fn inverse(&self, a: &mut [u64]) {
        debug_assert_eq!(a.len(), self.n);
        let it = self.inv_tables();
        let q = self.q;
        let n = self.n;
        let mut t = 1;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let tw = &it.inv_psi_brv.w[h..2 * h];
            let tw_sh = &it.inv_psi_brv.shoup[h..2 * h];
            let mut j1 = 0;
            for i in 0..h {
                let (s, s_sh) = (tw[i], tw_sh[i]);
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = add_mod(u, v, q);
                    a[j + t] = mul_mod_shoup(sub_mod(u, v, q), s, s_sh, q);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for x in a.iter_mut() {
            *x = mul_mod_shoup(*x, it.scale.n_inv, it.scale.n_inv_shoup, q);
        }
    }

    /// In-place forward NTT with Harvey lazy reduction, dispatched to the
    /// process-wide kernel class (AVX-512 IFMA, AVX2 or unrolled scalar;
    /// see [`simd`]). Butterflies keep values in `[0, 4q)`; the final
    /// full-reduction sweep is folded into the last butterfly stage.
    /// Bit-identical to [`NttTable::forward`] on every dispatch class.
    pub fn forward_lazy(&self, a: &mut [u64]) {
        self.forward_lazy_with(simd::kernels(), a);
    }

    /// In-place inverse NTT with lazy reduction, dispatched like
    /// [`NttTable::forward_lazy`]. Butterflies keep values in `[0, 2q)`;
    /// the N⁻¹ scaling is folded into the single-twiddle last stage.
    /// Bit-identical to [`NttTable::inverse`] on every dispatch class.
    pub fn inverse_lazy(&self, a: &mut [u64]) {
        self.inverse_lazy_with(simd::kernels(), a);
    }

    /// Like [`NttTable::forward_lazy`] but with an explicit kernel table —
    /// used by equivalence tests and simd-vs-scalar benches.
    pub fn forward_lazy_with(&self, k: &simd::Kernels, a: &mut [u64]) {
        debug_assert_eq!(a.len(), self.n);
        (k.ntt_fwd_lazy)(a, self.psi_brv.view(), self.q);
    }

    /// Like [`NttTable::inverse_lazy`] but with an explicit kernel table.
    pub fn inverse_lazy_with(&self, k: &simd::Kernels, a: &mut [u64]) {
        debug_assert_eq!(a.len(), self.n);
        let it = self.inv_tables();
        (k.ntt_inv_lazy)(a, it.inv_psi_brv.view(), it.scale, self.q);
    }

    /// Returns, for each evaluation-domain index `i`, the exponent `e(i)`
    /// (odd, in `[0, 2N)`) such that slot `i` holds the polynomial evaluated
    /// at ψ^e(i).
    ///
    /// This map is what lets Galois automorphisms `X → X^g` be applied in
    /// the evaluation domain as a pure index permutation (used by hoisted
    /// rotations): the automorphism moves the value at point ψ^{g·e} to the
    /// slot evaluating at ψ^{e}. The map is derived by probing the transform
    /// with the monomial `X`, making it robust to the butterfly ordering.
    pub fn exponent_map(&self) -> Vec<usize> {
        let n = self.n;
        // value → exponent lookup for odd exponents
        let mut val_to_exp = std::collections::HashMap::with_capacity(n);
        for e in (1..2 * n).step_by(2) {
            val_to_exp.insert(pow_mod(self.psi, e as u64, self.q), e);
        }
        let mut x = vec![0u64; n];
        x[1] = 1; // the monomial X
        self.forward(&mut x);
        x.iter()
            .map(|v| {
                *val_to_exp
                    .get(v)
                    .expect("NTT output must be a power of psi")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::mul_mod;
    use crate::primes::generate_ntt_primes;

    fn naive_negacyclic(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
        let n = a.len();
        let mut c = vec![0i128; n];
        for i in 0..n {
            for j in 0..n {
                let prod = mul_mod(a[i], b[j], q) as i128;
                let k = i + j;
                if k < n {
                    c[k] += prod;
                } else {
                    c[k - n] -= prod;
                }
            }
        }
        c.into_iter()
            .map(|x| crate::modular::reduce_i128(x, q))
            .collect()
    }

    #[test]
    fn roundtrip() {
        let n = 1 << 8;
        let q = generate_ntt_primes(n, 50, 1, &[])[0];
        let t = NttTable::new(n, q);
        let orig: Vec<u64> = (0..n as u64).map(|i| (i * i + 7) % q).collect();
        let mut a = orig.clone();
        t.forward(&mut a);
        assert_ne!(a, orig);
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn pointwise_is_negacyclic_convolution() {
        let n = 64;
        let q = generate_ntt_primes(n, 45, 1, &[])[0];
        let t = NttTable::new(n, q);
        let a: Vec<u64> = (0..n as u64).map(|i| (3 * i + 1) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * i + 5) % q).collect();
        let expect = naive_negacyclic(&a, &b, q);
        let mut ea = a.clone();
        let mut eb = b.clone();
        t.forward(&mut ea);
        t.forward(&mut eb);
        let mut ec: Vec<u64> = ea
            .iter()
            .zip(&eb)
            .map(|(&x, &y)| mul_mod(x, y, q))
            .collect();
        t.inverse(&mut ec);
        assert_eq!(ec, expect);
    }

    #[test]
    fn x_to_the_n_is_minus_one() {
        // (X^{n/2})² = X^n ≡ -1 in the negacyclic ring.
        let n = 32;
        let q = generate_ntt_primes(n, 40, 1, &[])[0];
        let t = NttTable::new(n, q);
        let mut a = vec![0u64; n];
        a[n / 2] = 1;
        let mut ea = a.clone();
        t.forward(&mut ea);
        let mut sq: Vec<u64> = ea.iter().map(|&x| mul_mod(x, x, q)).collect();
        t.inverse(&mut sq);
        let mut expect = vec![0u64; n];
        expect[0] = q - 1;
        assert_eq!(sq, expect);
    }

    #[test]
    fn lazy_paths_match_strict_bit_exact() {
        for n in [16usize, 256, 1 << 10] {
            let q = generate_ntt_primes(n, 55, 1, &[])[0];
            let t = NttTable::new(n, q);
            let orig: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % q)
                .collect();
            let mut strict = orig.clone();
            let mut lazy = orig.clone();
            t.forward(&mut strict);
            t.forward_lazy(&mut lazy);
            assert_eq!(strict, lazy, "forward n={n}");
            t.inverse(&mut strict);
            t.inverse_lazy(&mut lazy);
            assert_eq!(strict, lazy, "inverse n={n}");
            assert_eq!(lazy, orig, "roundtrip n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "lazy reduction needs 4q < 2^64")]
    fn modulus_whose_lazy_range_wraps_is_rejected() {
        // 2⁶² + 2⁵ + 1 is ≡ 1 mod 32: an NTT modulus shape for n = 16
        // whose [0, 4q) range no longer fits a u64.
        NttTable::new(16, (1 << 62) + 33);
    }

    #[test]
    fn exponent_map_is_consistent() {
        let n = 64;
        let q = generate_ntt_primes(n, 40, 1, &[])[0];
        let t = NttTable::new(n, q);
        let em = t.exponent_map();
        // All odd, all distinct, covering each residue class once.
        let mut seen = std::collections::HashSet::new();
        for &e in &em {
            assert_eq!(e % 2, 1);
            assert!(seen.insert(e));
        }
        assert_eq!(seen.len(), n);
        // Check against a random polynomial: slot i must equal p(psi^{e(i)}).
        let poly: Vec<u64> = (0..n as u64).map(|i| (5 * i + 2) % q).collect();
        let mut ev = poly.clone();
        t.forward(&mut ev);
        for i in (0..n).step_by(7) {
            let point = pow_mod(t.psi, em[i] as u64, q);
            let mut acc = 0u64;
            for j in (0..n).rev() {
                acc = add_mod(mul_mod(acc, point, q), poly[j], q);
            }
            assert_eq!(ev[i], acc);
        }
    }
}
