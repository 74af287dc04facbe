//! CKKS parameter sets and the shared evaluation context.

use orion_math::fft::SpecialFft;
use orion_math::ntt::NttTable;
use orion_math::primes::generate_ntt_primes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// User-facing CKKS parameters (paper Table 1).
#[derive(Clone, Debug)]
pub struct CkksParams {
    /// Power-of-two ring degree `N`.
    pub n: usize,
    /// `log2` of the scaling factor Δ.
    pub log_scale: u32,
    /// Bit size of the base modulus `q_0` (must exceed `log_scale` by the
    /// integer-part headroom of the messages).
    pub q0_bits: u32,
    /// Maximum multiplicative level `L` (the chain has `L + 1` primes).
    pub max_level: usize,
    /// Bit size of the special (key-switching) prime `p`.
    pub special_bits: u32,
    /// Gaussian error standard deviation.
    pub sigma: f64,
    /// Levels consumed by bootstrapping (`L_boot`, paper: 13–15); the
    /// bootstrap oracle refreshes ciphertexts to `L_eff = L − L_boot`.
    pub boot_levels: usize,
}

impl CkksParams {
    /// Tiny parameters for fast unit tests (N = 2¹⁰). Not secure.
    pub fn tiny() -> Self {
        Self {
            n: 1 << 10,
            log_scale: 30,
            q0_bits: 45,
            max_level: 4,
            special_bits: 45,
            sigma: 3.2,
            boot_levels: 2,
        }
    }

    /// Small demo parameters (N = 2¹², Δ = 2³⁵). Not secure.
    pub fn small() -> Self {
        Self {
            n: 1 << 12,
            log_scale: 35,
            q0_bits: 50,
            max_level: 8,
            special_bits: 50,
            sigma: 3.2,
            boot_levels: 3,
        }
    }

    /// Medium demo parameters (N = 2¹³, Δ = 2⁴⁰), used by the examples and
    /// the real-FHE MNIST runs. Not secure.
    pub fn medium() -> Self {
        Self {
            n: 1 << 13,
            log_scale: 40,
            q0_bits: 55,
            max_level: 12,
            special_bits: 55,
            sigma: 3.2,
            boot_levels: 4,
        }
    }

    /// Deployment-scale parameters matching the paper's evaluation
    /// (N = 2¹⁶, Δ ≈ 2⁴⁰, L_eff = 10 after a 14-level bootstrap). 128-bit
    /// secure by the homomorphic encryption standard tables; constructing
    /// the context is slow and is only exercised by ignored tests and the
    /// figure harnesses.
    pub fn secure_n16() -> Self {
        Self {
            n: 1 << 16,
            log_scale: 40,
            q0_bits: 60,
            max_level: 24,
            special_bits: 60,
            sigma: 3.2,
            boot_levels: 14,
        }
    }

    /// Number of plaintext slots (`N/2`, paper §2.2).
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// `L_eff = L − L_boot`, the top level after bootstrapping.
    pub fn effective_level(&self) -> usize {
        self.max_level - self.boot_levels
    }

    /// Total bit length of `Q·p`, the quantity that (with `N`) determines
    /// security.
    pub fn log_qp(&self) -> u32 {
        self.q0_bits + self.log_scale * self.max_level as u32 + self.special_bits
    }

    /// A coarse security estimate from the homomorphic-encryption-standard
    /// tables (ternary secret, classical): the largest `log Q·p` considered
    /// 128-bit secure for each `N`. Returns `true` when the parameters are
    /// within the table bound.
    pub fn is_128_bit_secure(&self) -> bool {
        let bound = match self.n {
            0x2000 => 218,   // N = 2^13
            0x4000 => 438,   // N = 2^14
            0x8000 => 881,   // N = 2^15
            0x10000 => 1772, // N = 2^16
            0x20000 => 3576, // N = 2^17
            _ => 0,
        };
        (self.log_qp() as usize) <= bound
    }
}

/// The shared CKKS context: modulus chain, NTT tables, encoder FFT, and
/// Galois permutation caches. Cheap to clone (everything is `Arc`ed at the
/// call sites that need it); typically wrapped in `Arc<Context>`.
pub struct Context {
    /// The originating parameters.
    pub params: CkksParams,
    /// Modulus chain `q_0 … q_L` (index = level).
    pub moduli: Vec<u64>,
    /// The special key-switching prime `p`.
    pub special: u64,
    /// NTT tables, one per chain modulus (same index as `moduli`).
    pub ntt: Vec<NttTable>,
    /// NTT table for the special prime.
    pub ntt_special: NttTable,
    /// Encoder FFT tables over `N/2` slots.
    pub fft: SpecialFft,
    /// Evaluation-domain exponent map `e(i)` shared by all primes.
    exp_map: Vec<usize>,
    /// Inverse of the exponent map: `exp_index[e] = i` for odd `e`.
    exp_index: Vec<usize>,
    /// Cache of evaluation-domain permutations per Galois element.
    galois_perm: RwLock<HashMap<usize, Arc<Vec<usize>>>>,
    /// `q_ℓ⁻¹ mod q_j` for rescaling: `rescale_inv[l][j]`, j < l.
    rescale_inv: Vec<Vec<u64>>,
    /// `p⁻¹ mod q_j` for ModDown.
    special_inv: Vec<u64>,
}

impl Context {
    /// Builds the full context (prime search + NTT tables + encoder).
    pub fn new(params: CkksParams) -> Arc<Self> {
        let n = params.n;
        // q0 first, then L scale-sized primes, then the special prime.
        let q0 = generate_ntt_primes(n, params.q0_bits, 1, &[]);
        let mut scale_primes = generate_ntt_primes(n, params.log_scale, params.max_level, &q0);
        let mut moduli = q0;
        moduli.append(&mut scale_primes);
        let special = generate_ntt_primes(n, params.special_bits, 1, &moduli)[0];
        let ntt: Vec<NttTable> = moduli.iter().map(|&q| NttTable::new(n, q)).collect();
        let ntt_special = NttTable::new(n, special);
        let fft = SpecialFft::new(n / 2);
        let exp_map = ntt[0].exponent_map();
        debug_assert_eq!(
            exp_map,
            ntt_special.exponent_map(),
            "exponent map must be prime-independent"
        );
        let mut exp_index = vec![usize::MAX; 2 * n];
        for (i, &e) in exp_map.iter().enumerate() {
            exp_index[e] = i;
        }
        let rescale_inv: Vec<Vec<u64>> = (0..moduli.len())
            .map(|l| {
                (0..l)
                    .map(|j| orion_math::modular::inv_mod(moduli[l] % moduli[j], moduli[j]))
                    .collect()
            })
            .collect();
        let special_inv = moduli
            .iter()
            .map(|&q| orion_math::modular::inv_mod(special % q, q))
            .collect();
        Arc::new(Self {
            params,
            moduli,
            special,
            ntt,
            ntt_special,
            fft,
            exp_map,
            exp_index,
            galois_perm: RwLock::new(HashMap::new()),
            rescale_inv,
            special_inv,
        })
    }

    /// Ring degree.
    pub fn degree(&self) -> usize {
        self.params.n
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.params.n / 2
    }

    /// Maximum level `L`.
    pub fn max_level(&self) -> usize {
        self.params.max_level
    }

    /// The scaling factor Δ.
    pub fn scale(&self) -> f64 {
        (self.params.log_scale as f64).exp2()
    }

    /// The Galois element for a cyclic slot rotation by `k` (may be
    /// negative): `5^k mod 2N`.
    pub fn galois_element(&self, k: isize) -> usize {
        let m = 2 * self.params.n;
        let order = self.params.n / 2; // order of 5 in the slot group
        let k = k.rem_euclid(order as isize) as u64;
        orion_math::modular::pow_mod(5, k, m as u64) as usize
    }

    /// Evaluation-domain permutation for Galois element `g`: applying the
    /// automorphism `a(X) → a(X^g)` in the evaluation representation sends
    /// `new[i] = old[perm[i]]`.
    pub fn galois_permutation(&self, g: usize) -> Arc<Vec<usize>> {
        if let Some(p) = self.galois_perm.read().get(&g) {
            return p.clone();
        }
        let m = 2 * self.params.n;
        let perm: Vec<usize> = (0..self.params.n)
            .map(|i| self.exp_index[(self.exp_map[i] * g) % m])
            .collect();
        let arc = Arc::new(perm);
        self.galois_perm.write().insert(g, arc.clone());
        arc
    }

    /// `q_level⁻¹ mod q_j` (rescale constant).
    pub fn rescale_constant(&self, level: usize, j: usize) -> u64 {
        self.rescale_inv[level][j]
    }

    /// `p⁻¹ mod q_j` (ModDown constant).
    pub fn special_constant(&self, j: usize) -> u64 {
        self.special_inv[j]
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("n", &self.params.n)
            .field("levels", &self.moduli.len())
            .field("log_qp", &self.params.log_qp())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_tiny_context() {
        let ctx = Context::new(CkksParams::tiny());
        assert_eq!(ctx.moduli.len(), 5);
        assert_eq!(ctx.slots(), 512);
        for &q in &ctx.moduli {
            assert_eq!((q - 1) % (2 * ctx.degree() as u64), 0);
        }
        assert!(!ctx.moduli.contains(&ctx.special));
    }

    #[test]
    fn galois_elements_form_rotation_group() {
        let ctx = Context::new(CkksParams::tiny());
        let g1 = ctx.galois_element(1);
        assert_eq!(g1, 5);
        // rotation by 0 is identity
        assert_eq!(ctx.galois_element(0), 1);
        // rotation by -1 composed with +1 is identity mod 2N
        let gm1 = ctx.galois_element(-1);
        assert_eq!((g1 * gm1) % (2 * ctx.degree()), 1);
    }

    #[test]
    fn galois_permutation_is_bijective() {
        let ctx = Context::new(CkksParams::tiny());
        for k in [1isize, 3, -2] {
            let g = ctx.galois_element(k);
            let p = ctx.galois_permutation(g);
            let mut seen = vec![false; ctx.degree()];
            for &i in p.iter() {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
    }

    #[test]
    fn security_table() {
        assert!(CkksParams::secure_n16().is_128_bit_secure());
        assert!(!CkksParams::medium().is_128_bit_secure());
    }
}
