//! Residue Number System helpers.
//!
//! RNS-CKKS represents each big-integer polynomial coefficient as its
//! residues modulo a chain of word-sized primes (paper §2.4). Evaluation
//! never leaves that form; decoding does. Every decode — each decrypted
//! output and each bootstrap-oracle refresh — lifts the lowest one or two
//! limbs of a coefficient-form plaintext back to centered integers with
//! [`crt_lift_centered`], Garner's two-modulus CRT over whole limb slices
//! with its constants computed once per call. [`crt_reconstruct_centered`]
//! is the general per-value reconstruction that lift is tested against
//! (`i128` accumulation, a modular inverse per limb, exact only while the
//! product of the moduli stays below 2¹²⁶); the scheme never calls it.

use crate::modular::{center, inv_mod, mul_mod_shoup, shoup_precompute, sub_mod, Barrett};

/// Reconstructs the centered value of an RNS residue vector over the first
/// `limbs.len()` moduli of `chain`, as an `i128`.
///
/// Exact only while `∏ q_i < 2¹²⁶`. The reference for
/// [`crt_lift_centered`]: it recomputes `Q`, each `Q/q_i` and each
/// inverse on every call.
pub fn crt_reconstruct_centered(limbs: &[u64], moduli: &[u64]) -> i128 {
    assert_eq!(limbs.len(), moduli.len());
    let mut q_prod: i128 = 1;
    for &m in moduli {
        q_prod = q_prod
            .checked_mul(m as i128)
            .expect("CRT overflow: too many limbs");
    }
    let mut acc: i128 = 0;
    for (i, (&r, &qi)) in limbs.iter().zip(moduli).enumerate() {
        let _ = i;
        let qhat = q_prod / qi as i128;
        // (qhat)^{-1} mod qi
        let qhat_mod_qi = (qhat % qi as i128) as u64;
        let inv = inv_mod(qhat_mod_qi, qi) as i128;
        let term = (r as i128 % qi as i128) * inv % qi as i128;
        acc = (acc + qhat % q_prod * term) % q_prod;
    }
    acc = acc.rem_euclid(q_prod);
    if acc > q_prod / 2 {
        acc - q_prod
    } else {
        acc
    }
}

/// Centered CRT lift of one or two residue slices: entry `k` is the
/// integer in `(−Q/2, Q/2]` congruent to `limbs[j][k]` modulo
/// `moduli[j]` for every `j`, `Q = ∏ moduli` — what
/// [`crt_reconstruct_centered`] returns for that column.
///
/// Two limbs run Garner's formula with `q₀⁻¹ mod q₁` (and its Shoup
/// twin), `Q` and `⌊Q/2⌋` computed once: `t = (r₁ − r₀)·q₀⁻¹ mod q₁`,
/// then `x = r₀ + q₀·t ∈ [0, Q)`, centred as `x − Q` above `⌊Q/2⌋`.
/// One limb centres each residue on `q₀`.
///
/// Preconditions: residues reduced (`limbs[j][k] < moduli[j]`), `q₁` an
/// odd prime below 2⁶² distinct from `q₀`, and `q₀q₁ < 2¹²⁶` (asserted).
///
/// # Panics
/// Panics on zero or more than two limbs, or on slices of unequal length.
pub fn crt_lift_centered(limbs: &[&[u64]], moduli: &[u64]) -> Vec<i128> {
    assert_eq!(limbs.len(), moduli.len());
    match (limbs, moduli) {
        (&[r0], &[q0]) => r0.iter().map(|&r| center(r, q0) as i128).collect(),
        (&[r0, r1], &[q0, q1]) => {
            assert_eq!(r0.len(), r1.len());
            let q = q0 as u128 * q1 as u128;
            assert!(q < 1 << 126, "CRT lift overflow: q0·q1 ≥ 2¹²⁶");
            let half = q / 2;
            let br = Barrett::new(q1);
            let inv = inv_mod(br.reduce_u64(q0), q1);
            let inv_shoup = shoup_precompute(inv, q1);
            r0.iter()
                .zip(r1)
                .map(|(&a, &b)| {
                    let t = mul_mod_shoup(sub_mod(b, br.reduce_u64(a), q1), inv, inv_shoup, q1);
                    let x = a as u128 + q0 as u128 * t as u128;
                    if x > half {
                        x as i128 - q as i128
                    } else {
                        x as i128
                    }
                })
                .collect()
        }
        _ => panic!("the CRT lift takes one or two limbs, got {}", limbs.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crt_roundtrip_small() {
        let moduli = [97u64, 101, 103];
        for x in [-5000i128, -1, 0, 1, 424242, -300000] {
            let limbs: Vec<u64> = moduli
                .iter()
                .map(|&q| x.rem_euclid(q as i128) as u64)
                .collect();
            assert_eq!(crt_reconstruct_centered(&limbs, &moduli), x);
        }
    }
}
