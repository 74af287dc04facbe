//! Residue Number System helpers.
//!
//! RNS-CKKS represents each big-integer polynomial coefficient as its
//! residues modulo a chain of word-sized primes (paper §2.4). The scheme
//! itself never reconstructs big integers; CRT reconstruction here is
//! provided for tests and debugging (it uses `i128` accumulation and is
//! only exact while the product of moduli fits 127 bits, which covers the
//! 2–3 limb cases tests exercise).

use crate::modular::{inv_mod, Barrett};

/// A chain of RNS moduli `q_0, …, q_L` with cached pairwise data.
#[derive(Clone, Debug)]
pub struct ModulusChain {
    /// The moduli, index 0 first.
    pub moduli: Vec<u64>,
}

impl ModulusChain {
    /// Creates a chain; all moduli must be distinct primes.
    pub fn new(moduli: Vec<u64>) -> Self {
        let mut sorted = moduli.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), moduli.len(), "RNS moduli must be distinct");
        Self { moduli }
    }

    /// Number of limbs.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// True when the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// `(Q_ℓ / q_i)⁻¹ mod q_i` for the sub-chain `q_0..=q_ℓ`; the classic
    /// CRT "hat inverse" used to build key-switching gadget constants.
    pub fn hat_inv(&self, i: usize, level: usize) -> u64 {
        let qi = self.moduli[i];
        let br = Barrett::new(qi);
        let mut prod = 1u64;
        for (j, &qj) in self.moduli.iter().enumerate().take(level + 1) {
            if j != i {
                prod = br.mul_mod(prod, br.reduce_u64(qj));
            }
        }
        inv_mod(prod, qi)
    }
}

/// Reconstructs the centered value of an RNS residue vector over the first
/// `limbs.len()` moduli of `chain`, as an `i128`.
///
/// Exact only while `∏ q_i < 2¹²⁶`; intended for tests with ≤ 2 limbs of
/// ≤ 60 bits (or more, smaller limbs).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::mul_mod;
    use crate::primes::generate_ntt_primes;

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

    #[test]
    fn hat_inv_property() {
        let moduli = generate_ntt_primes(64, 40, 4, &[]);
        let chain = ModulusChain::new(moduli.clone());
        let level = 3;
        for i in 0..=level {
            let hi = chain.hat_inv(i, level);
            // (Q/qi mod qi) * hat_inv ≡ 1 mod qi
            let mut prod = 1u64;
            for j in 0..=level {
                if j != i {
                    prod = mul_mod(prod, moduli[j] % moduli[i], moduli[i]);
                }
            }
            assert_eq!(mul_mod(prod, hi, moduli[i]), 1);
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_moduli_rejected() {
        ModulusChain::new(vec![97, 97]);
    }
}
