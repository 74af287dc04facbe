//! Arithmetic over `u64` prime moduli.
//!
//! All moduli used in Orion are < 2⁶², so products fit comfortably in
//! `u128`. Inputs are assumed fully reduced (`x < q`) unless a function says
//! otherwise; outputs are always fully reduced.

/// Adds two residues modulo `q`.
#[inline(always)]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    let s = a + b;
    if s >= q {
        s - q
    } else {
        s
    }
}

/// Subtracts `b` from `a` modulo `q`.
#[inline(always)]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Negates `a` modulo `q`.
#[inline(always)]
pub fn neg_mod(a: u64, q: u64) -> u64 {
    debug_assert!(a < q);
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Multiplies two residues modulo `q` via 128-bit widening.
#[inline(always)]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Precomputed constant for Shoup multiplication: `⌊b·2⁶⁴/q⌋`.
///
/// Shoup's trick turns a multiplication by a *fixed* operand `b` into one
/// `u128` high-multiply and one correction, which is what makes the NTT
/// butterflies fast.
#[inline(always)]
pub fn shoup_precompute(b: u64, q: u64) -> u64 {
    (((b as u128) << 64) / q as u128) as u64
}

/// Multiplies `a` by a fixed operand `b` with its Shoup precomputation
/// `b_shoup = ⌊b·2⁶⁴/q⌋`. Requires `b < q`.
#[inline(always)]
pub fn mul_mod_shoup(a: u64, b: u64, b_shoup: u64, q: u64) -> u64 {
    let hi = ((a as u128 * b_shoup as u128) >> 64) as u64;
    let r = (a.wrapping_mul(b)).wrapping_sub(hi.wrapping_mul(q));
    if r >= q {
        r - q
    } else {
        r
    }
}

/// Shoup multiplication *without* the final correction: returns a value
/// congruent to `a·b (mod q)` in `[0, 2q)`.
///
/// This is the Harvey lazy-butterfly primitive. Unlike [`mul_mod_shoup`],
/// the input `a` may be **any** `u64` (in particular a lazily-reduced value
/// in `[0, 4q)`): with `h = ⌊a·b_shoup/2⁶⁴⌋` the remainder
/// `a·b − h·q` always lies in `[0, a·q/2⁶⁴ + q) ⊆ [0, 2q)`. Requires
/// `b < q` and `q < 2⁶³` so the result is unambiguous in wrapping `u64`
/// arithmetic (Orion moduli are < 2⁶²).
#[inline(always)]
pub fn mul_mod_shoup_lazy(a: u64, b: u64, b_shoup: u64, q: u64) -> u64 {
    let hi = ((a as u128 * b_shoup as u128) >> 64) as u64;
    a.wrapping_mul(b).wrapping_sub(hi.wrapping_mul(q))
}

/// Precomputed Barrett constant `⌊2¹²⁸/q⌋` for exact division-free
/// reduction of products `a·b` with both operands *variable* (Shoup
/// multiplication needs one operand fixed; this does not).
///
/// For any `x < q·2⁶⁴` the quotient estimate
/// `e = ⌊x·⌊2¹²⁸/q⌋ / 2¹²⁸⌋` satisfies `⌊x/q⌋ − 1 ≤ e ≤ ⌊x/q⌋`, so a
/// single conditional subtract makes the remainder exact. Requires `q`
/// odd (true for every NTT prime), which guarantees `⌊2¹²⁸/q⌋ =
/// ⌊(2¹²⁸−1)/q⌋` and lets the constant be computed in `u128`.
#[derive(Clone, Copy, Debug)]
pub struct Barrett {
    pub q: u64,
    ratio_lo: u64,
    ratio_hi: u64,
}

impl Barrett {
    /// Builds the constant for an odd modulus `q < 2⁶²`.
    #[inline]
    pub fn new(q: u64) -> Self {
        debug_assert!(q & 1 == 1, "Barrett constant requires an odd modulus");
        debug_assert!(q < 1 << 62);
        let ratio = u128::MAX / q as u128; // == ⌊2¹²⁸/q⌋ for odd q
        Self {
            q,
            ratio_lo: ratio as u64,
            ratio_hi: (ratio >> 64) as u64,
        }
    }

    /// Reduces `x < q·2⁶⁴` into `[0, q)`. Exact (error of the quotient
    /// estimate is at most 1, fixed by one conditional subtract).
    #[inline(always)]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        let (x_lo, x_hi) = (x as u64, (x >> 64) as u64);
        // 192-bit estimate of ⌊x·ratio / 2¹²⁸⌋, keeping only the low 64
        // bits of the quotient (the true quotient fits: x/q < 2⁶⁴).
        let carry = ((x_lo as u128 * self.ratio_lo as u128) >> 64) as u64;
        let b = x_lo as u128 * self.ratio_hi as u128;
        let (mid, c1) = (b as u64).overflowing_add(carry);
        let b_hi = (b >> 64) as u64 + c1 as u64;
        let c = x_hi as u128 * self.ratio_lo as u128;
        let (_, c2) = mid.overflowing_add(c as u64);
        let carry2 = (c >> 64) as u64 + c2 as u64;
        let est = x_hi
            .wrapping_mul(self.ratio_hi)
            .wrapping_add(b_hi)
            .wrapping_add(carry2);
        let r = x_lo.wrapping_sub(est.wrapping_mul(self.q));
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Multiplies two residues (`a, b < q`) modulo `q` without division.
    /// Bit-identical to [`mul_mod`].
    #[inline(always)]
    pub fn mul_mod(&self, a: u64, b: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Reduces an arbitrary `u64` into `[0, q)`. Bit-identical to `x % q`.
    #[inline(always)]
    pub fn reduce_u64(&self, x: u64) -> u64 {
        self.reduce_u128(x as u128)
    }

    /// Reduces a signed integer into `[0, q)`. Bit-identical to
    /// [`reduce_i128`]: `|x|` goes through [`Barrett::reduce_u128`] and is
    /// negated for `x < 0`; only `|x| ≥ q·2⁶⁴` pays the `i128` division.
    #[inline(always)]
    pub fn reduce_i128(&self, x: i128) -> u64 {
        let abs = x.unsigned_abs();
        if abs >= (self.q as u128) << 64 {
            return reduce_i128(x, self.q);
        }
        let r = self.reduce_u128(abs);
        if x < 0 {
            neg_mod(r, self.q)
        } else {
            r
        }
    }
}

/// Raises `a` to the power `e` modulo `q` by square-and-multiply.
pub fn pow_mod(mut a: u64, mut e: u64, q: u64) -> u64 {
    let mut r: u64 = 1 % q;
    a %= q;
    while e > 0 {
        if e & 1 == 1 {
            r = mul_mod(r, a, q);
        }
        a = mul_mod(a, a, q);
        e >>= 1;
    }
    r
}

/// Computes the multiplicative inverse of `a` modulo prime `q` via Fermat's
/// little theorem. Panics if `a == 0`.
pub fn inv_mod(a: u64, q: u64) -> u64 {
    assert!(!a.is_multiple_of(q), "zero has no modular inverse");
    pow_mod(a, q - 2, q)
}

/// Reduces a signed integer into `[0, q)`.
#[inline(always)]
pub fn reduce_i128(x: i128, q: u64) -> u64 {
    let r = x.rem_euclid(q as i128);
    r as u64
}

/// Centers a residue into `(-q/2, q/2]` as a signed integer.
#[inline(always)]
pub fn center(x: u64, q: u64) -> i64 {
    debug_assert!(x < q);
    if x > q / 2 {
        x as i64 - q as i64
    } else {
        x as i64
    }
}

/// Deterministic Miller–Rabin primality test, exact for all `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    // This witness set is exact for all 64-bit integers.
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = (1 << 40) + 0x6001; // not prime necessarily; fine for add/sub

    #[test]
    fn add_wraps() {
        assert_eq!(add_mod(Q - 1, 1, Q), 0);
        assert_eq!(add_mod(Q - 1, 2, Q), 1);
        assert_eq!(add_mod(0, 0, Q), 0);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(sub_mod(0, 1, Q), Q - 1);
        assert_eq!(sub_mod(5, 3, Q), 2);
    }

    #[test]
    fn neg_is_additive_inverse() {
        for a in [0u64, 1, 17, Q - 1] {
            assert_eq!(add_mod(a, neg_mod(a, Q), Q), 0);
        }
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(pow_mod(2, 10, 1_000_003), 1024);
        assert_eq!(pow_mod(7, 0, 11), 1);
        assert_eq!(pow_mod(0, 5, 11), 0);
    }

    #[test]
    fn inverse_roundtrip() {
        let q = 1_000_003; // prime
        for a in [1u64, 2, 999_999, 123_456] {
            let inv = inv_mod(a, q);
            assert_eq!(mul_mod(a, inv, q), 1);
        }
    }

    #[test]
    fn shoup_matches_plain_mul() {
        let q = 0x1fff_ffff_ffe0_0001u64; // a 61-bit prime used by SEAL
        assert!(is_prime(q));
        let b = 0x1234_5678_9abc_def0 % q;
        let bs = shoup_precompute(b, q);
        for a in [0u64, 1, q - 1, q / 2, 0xdead_beef] {
            assert_eq!(mul_mod_shoup(a, b, bs, q), mul_mod(a, b, q));
        }
    }

    #[test]
    fn lazy_shoup_stays_below_2q_for_unreduced_inputs() {
        let q = 0x1fff_ffff_ffe0_0001u64; // 61-bit prime
        let b = 0x00da_bbad_00b5_00b5_u64 % q;
        let bs = shoup_precompute(b, q);
        // `a` ranges over fully-reduced, lazily-reduced ([0, 4q)) and
        // arbitrary u64 values — the lazy product must stay in [0, 2q)
        // and agree with plain multiplication mod q.
        for a in [0u64, 1, q - 1, q, 2 * q - 1, 3 * q + 17, u64::MAX] {
            let r = mul_mod_shoup_lazy(a, b, bs, q);
            assert!(r < 2 * q, "a={a}: lazy result {r} out of [0, 2q)");
            assert_eq!(r % q, mul_mod(a % q, b, q), "a={a}");
        }
    }

    #[test]
    fn center_symmetry() {
        let q = 101;
        assert_eq!(center(0, q), 0);
        assert_eq!(center(50, q), 50);
        assert_eq!(center(51, q), -50);
        assert_eq!(center(100, q), -1);
    }

    #[test]
    fn miller_rabin_known_values() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(1));
        assert!(!is_prime(561)); // Carmichael
        assert!(is_prime(0x1fff_ffff_ffe0_0001));
        assert!(!is_prime((1u64 << 40) + 2));
    }

    #[test]
    fn reduce_negative() {
        assert_eq!(reduce_i128(-1, 7), 6);
        assert_eq!(reduce_i128(-14, 7), 0);
        assert_eq!(reduce_i128(15, 7), 1);
    }
}
