//! NTT-friendly prime generation.
//!
//! RNS-CKKS needs a chain of primes `q_i ≡ 1 (mod 2N)` so that the
//! negacyclic NTT exists modulo each one, with `log2(q_i)` close to the
//! scaling factor Δ so rescaling keeps the scale stable (paper §2.4).

use crate::modular::is_prime;

/// Generates `count` distinct primes `p ≡ 1 (mod 2n)` with `log2(p)` near
/// `bits`. The search alternates between two cursors, one candidate each
/// per round: one walks down from the largest candidate at or below
/// `2^bits`, the other up from the next candidate above it. So a prime
/// **above** `2^bits` can come back, even first (a `bits = 50` prime may
/// not sit below `2⁵⁰`), and the list is not sorted.
///
/// Returned primes are distinct from every element of `exclude`.
///
/// # Panics
/// Panics if `bits >= 62` (products must fit our `u128` arithmetic
/// comfortably) or if not enough primes exist in range (never happens for
/// realistic `n`, `bits`).
pub fn generate_ntt_primes(n: usize, bits: u32, count: usize, exclude: &[u64]) -> Vec<u64> {
    assert!(
        (20..62).contains(&bits),
        "prime size out of supported range"
    );
    assert!(n.is_power_of_two());
    let step = 2 * n as u64;
    let target = 1u64 << bits;
    // First candidate ≡ 1 mod 2N at or below the target.
    let mut down = target - (target % step) + 1;
    if down > target {
        down -= step;
    }
    let mut up = down + step;
    let mut found = Vec::with_capacity(count);
    let lo = target >> 1;
    let hi = target << 1;
    while found.len() < count {
        if down > lo {
            if is_prime(down) && !exclude.contains(&down) && !found.contains(&down) {
                found.push(down);
                if found.len() == count {
                    break;
                }
            }
            down -= step;
        }
        if up < hi {
            if is_prime(up) && !exclude.contains(&up) && !found.contains(&up) {
                found.push(up);
            }
            up += step;
        }
        assert!(
            down > lo || up < hi,
            "exhausted prime search range for n={n} bits={bits}"
        );
    }
    found
}

/// The largest prime `p ≡ 1 (mod 2n)` below `2^bits` that is not in
/// `exclude`: a `bits`-bit prime, unlike [`generate_ntt_primes`]' nearest
/// one. The special (key-switching) prime is chosen this way, so that
/// `bits ≤ 50` keeps it under [`crate::simd::IFMA_Q_BOUND`].
///
/// # Panics
/// Panics if `bits` is outside `20..62` (as [`generate_ntt_primes`]) or
/// if no such prime lies in `(2^(bits−1), 2^bits)`.
pub fn largest_ntt_prime_below(n: usize, bits: u32, exclude: &[u64]) -> u64 {
    assert!(
        (20..62).contains(&bits),
        "prime size out of supported range"
    );
    assert!(n.is_power_of_two());
    let step = 2 * n as u64;
    let target = 1u64 << bits;
    // The largest candidate ≡ 1 mod 2N below the target.
    let first = (target - 2) / step * step + 1;
    (target >> 1..=first)
        .rev()
        .step_by(step as usize)
        .find(|&p| is_prime(p) && !exclude.contains(&p))
        .unwrap_or_else(|| panic!("no NTT prime below 2^{bits} for n={n}"))
}

/// Finds a generator of the multiplicative group of `Z_q` (`q` prime).
pub fn primitive_root(q: u64) -> u64 {
    // Factor q-1 (trial division is fine for our 40-60 bit primes because
    // q-1 is divisible by a large power of two, leaving a small cofactor).
    let mut factors = Vec::new();
    let mut m = q - 1;
    let mut d = 2u64;
    while d * d <= m {
        if m.is_multiple_of(d) {
            factors.push(d);
            while m.is_multiple_of(d) {
                m /= d;
            }
        }
        d += 1;
    }
    if m > 1 {
        factors.push(m);
    }
    'cand: for g in 2..q {
        for &f in &factors {
            if crate::modular::pow_mod(g, (q - 1) / f, q) == 1 {
                continue 'cand;
            }
        }
        return g;
    }
    unreachable!("prime fields always have generators")
}

/// Returns a primitive `2n`-th root of unity modulo `q` (requires
/// `q ≡ 1 mod 2n`).
pub fn primitive_2n_root(q: u64, n: usize) -> u64 {
    let order = 2 * n as u64;
    assert_eq!((q - 1) % order, 0, "q is not NTT-friendly for this n");
    let g = primitive_root(q);
    let root = crate::modular::pow_mod(g, (q - 1) / order, q);
    debug_assert_eq!(crate::modular::pow_mod(root, order, q), 1);
    debug_assert_ne!(crate::modular::pow_mod(root, order / 2, q), 1);
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::pow_mod;

    #[test]
    fn generates_requested_count() {
        let ps = generate_ntt_primes(1 << 10, 40, 8, &[]);
        assert_eq!(ps.len(), 8);
        for &p in &ps {
            assert!(is_prime(p));
            assert_eq!((p - 1) % (2 << 10), 0);
            // within a factor of 2 of the target
            assert!(p > (1 << 39) && p < (1 << 41));
        }
        // all distinct
        let mut s = ps.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn respects_exclusions() {
        let first = generate_ntt_primes(1 << 8, 30, 3, &[]);
        let second = generate_ntt_primes(1 << 8, 30, 3, &first);
        for p in &second {
            assert!(!first.contains(p));
        }
    }

    #[test]
    fn largest_below_is_the_largest_prime_below_outside_the_exclusions() {
        for (n, bits) in [
            (1 << 10, 45),
            (1 << 11, 50),
            (1 << 12, 50),
            (1 << 13, 50),
            (1 << 10, 61),
        ] {
            let step = 2 * n as u64;
            // nothing excluded, then the chain's nearest primes plus the
            // first answer: the search must walk past every exclusion
            let nearest = generate_ntt_primes(n, bits, 2, &[]);
            let free = largest_ntt_prime_below(n, bits, &[]);
            let past_free = [nearest.clone(), vec![free]].concat();
            for excl in [vec![], nearest, past_free] {
                let p = largest_ntt_prime_below(n, bits, &excl);
                assert!(is_prime(p) && p % step == 1, "n={n} bits={bits}: {p}");
                assert!(p >> (bits - 1) == 1, "{p} is not a {bits}-bit prime");
                assert!(!excl.contains(&p));
                for c in (p + step..1 << bits).step_by(step as usize) {
                    assert!(!is_prime(c) || excl.contains(&c), "{c} > {p} qualifies");
                }
            }
        }
    }

    #[test]
    fn roots_have_exact_order() {
        let n = 1 << 8;
        for &p in &generate_ntt_primes(n, 45, 3, &[]) {
            let w = primitive_2n_root(p, n);
            assert_eq!(pow_mod(w, 2 * n as u64, p), 1);
            assert_ne!(pow_mod(w, n as u64, p), 1);
            // order exactly 2n: w^n must be -1
            assert_eq!(pow_mod(w, n as u64, p), p - 1);
        }
    }
}
