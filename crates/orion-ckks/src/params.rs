//! CKKS parameter sets and the shared evaluation context.

use orion_math::fft::SpecialFft;
use orion_math::modular::{inv_mod, mul_mod};
use orion_math::ntt::NttTable;
use orion_math::primes::{generate_ntt_primes, largest_ntt_prime_below};
use orion_math::simd::Permutation;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// User-facing CKKS parameters (paper Table 1).
#[derive(Clone, Debug)]
pub struct CkksParams {
    /// Power-of-two ring degree `N`.
    pub n: usize,
    /// `log2` of the scaling factor Δ.
    pub log_scale: u32,
    /// Bit size of the base modulus `q_0` (must exceed `log_scale` by the
    /// integer-part headroom of the messages). `q_0` is the NTT prime
    /// nearest `2^q0_bits`, and may lie above it.
    pub q0_bits: u32,
    /// Maximum multiplicative level `L` (the chain has `L + 1` primes).
    pub max_level: usize,
    /// Bit size of the special (key-switching) primes `p_0 > p_1 > …`: the
    /// largest NTT primes below `2^special_bits` that are not in the
    /// chain, [`CkksParams::special_primes`] of them.
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
    /// the real-FHE MNIST runs. Not secure. `q_0` and `p` lie below 2⁵⁰,
    /// so every limb runs the 52-bit kernels, and `q_0` keeps 2¹⁰ of
    /// headroom over Δ for a message's integer part.
    pub fn medium() -> Self {
        Self {
            n: 1 << 13,
            log_scale: 40,
            q0_bits: 50,
            max_level: 12,
            special_bits: 50,
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

    /// Number of special primes `α_max = ⌈(L_eff+1)/2⌉`: enough for a
    /// two-digit key switch at every level up to `L_eff`.
    pub fn special_primes(&self) -> usize {
        special_primes(self.effective_level())
    }

    /// Total bit length of `Q·P` over every chain and special prime, the
    /// quantity that (with `N`) determines security.
    pub fn log_qp(&self) -> u32 {
        let special = self.special_bits * self.special_primes() as u32;
        self.q0_bits + self.log_scale * self.max_level as u32 + special
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

/// `α_max = ⌈(l_eff+1)/2⌉`, the special primes of a chain whose top level
/// after bootstrapping is `l_eff`.
pub fn special_primes(l_eff: usize) -> usize {
    l_eff / 2 + 1
}

/// `α(ℓ) = min(⌈(ℓ+1)/2⌉, α_max)`: the chain limbs per key-switch digit
/// and the special primes `P_ℓ = p_0⋯p_{α−1}` of a key generated at
/// `level` on a chain with top level `l_eff` after bootstrapping. Every
/// level up to `l_eff` then has two digits (one at level 0), and levels 0
/// and 1 switch with one special prime and one digit per limb.
pub fn digit_alpha(level: usize, l_eff: usize) -> usize {
    (level / 2 + 1).min(special_primes(l_eff))
}

/// `⌈(level+1)/α⌉`: digits of a level-`level` polynomial split into groups
/// of `alpha` consecutive limbs.
pub fn digit_count(level: usize, alpha: usize) -> usize {
    (level + 1).div_ceil(alpha)
}

/// The chain `q_0 … q_L` and the special primes of `params`: q₀ first,
/// then L scale-sized primes (each nearest its target, the scale primes
/// alternating about Δ), then the special primes below their bound,
/// largest first.
fn primes(params: &CkksParams) -> (Vec<u64>, Vec<u64>) {
    let n = params.n;
    let q0 = generate_ntt_primes(n, params.q0_bits, 1, &[]);
    let mut scale_primes = generate_ntt_primes(n, params.log_scale, params.max_level, &q0);
    let mut moduli = q0;
    moduli.append(&mut scale_primes);
    let mut taken = moduli.clone();
    let special = (0..params.special_primes())
        .map(|_| {
            let p = largest_ntt_prime_below(n, params.special_bits, &taken);
            taken.push(p);
            p
        })
        .collect();
    (moduli, special)
}

/// The shared CKKS context: modulus chain, NTT tables, encoder FFT, and
/// Galois permutation caches. Cheap to clone (everything is `Arc`ed at the
/// call sites that need it); typically wrapped in `Arc<Context>`.
pub struct Context {
    /// The originating parameters.
    pub params: CkksParams,
    /// Modulus chain `q_0 … q_L` (index = level).
    pub moduli: Vec<u64>,
    /// The special key-switching primes `p_0 > p_1 > …`, `α_max` of them.
    pub special: Vec<u64>,
    /// NTT tables, one per chain modulus (same index as `moduli`).
    pub ntt: Vec<NttTable>,
    /// NTT tables, one per special prime (same index as `special`).
    pub special_ntt: Vec<NttTable>,
    /// Encoder FFT tables over `N/2` slots.
    pub fft: SpecialFft,
    /// Evaluation-domain exponent map `e(i)` shared by all primes.
    exp_map: Vec<usize>,
    /// Inverse of the exponent map: `exp_index[e] = i` for odd `e`.
    exp_index: Vec<usize>,
    /// Cache of evaluation-domain permutations per Galois element.
    galois_perm: RwLock<HashMap<usize, Arc<Permutation>>>,
    /// `q_ℓ⁻¹ mod q_j` for rescaling: `rescale_inv[l][j]`, j < l.
    rescale_inv: Vec<Vec<u64>>,
    /// `p_s⁻¹ mod m`, `special_inv[s][m]`, for every modulus `m` of the
    /// chain and then of the special primes (0 at `p_s` itself).
    special_inv: Vec<Vec<u64>>,
}

impl Context {
    /// Builds the full context (prime search + NTT tables + encoder).
    pub fn new(params: CkksParams) -> Arc<Self> {
        let n = params.n;
        let (moduli, special) = primes(&params);
        let ntt: Vec<NttTable> = moduli.iter().map(|&q| NttTable::new(n, q)).collect();
        let special_ntt: Vec<NttTable> = special.iter().map(|&p| NttTable::new(n, p)).collect();
        let fft = SpecialFft::new(n / 2);
        let exp_map = ntt[0].exponent_map();
        debug_assert!(
            special_ntt.iter().all(|t| t.exponent_map() == exp_map),
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
        let special_inv = special
            .iter()
            .map(|&p| {
                let all = moduli.iter().chain(&special);
                all.map(|&q| if q == p { 0 } else { inv_mod(p % q, q) })
                    .collect()
            })
            .collect();
        Arc::new(Self {
            params,
            moduli,
            special,
            ntt,
            special_ntt,
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
    /// `new[i] = old[perm[i]]`. Checked once, here, to be a bijection on
    /// `0..N` ([`Permutation::new`]); cached per `g`.
    pub fn galois_permutation(&self, g: usize) -> Arc<Permutation> {
        if let Some(p) = self.galois_perm.read().get(&g) {
            return p.clone();
        }
        let m = 2 * self.params.n;
        let perm: Vec<u32> = (0..self.params.n)
            .map(|i| self.exp_index[(self.exp_map[i] * g) % m] as u32)
            .collect();
        let arc = Arc::new(Permutation::new(perm));
        self.galois_perm.write().insert(g, arc.clone());
        arc
    }

    /// `q_level⁻¹ mod q_j` (rescale constant).
    pub fn rescale_constant(&self, level: usize, j: usize) -> u64 {
        self.rescale_inv[level][j]
    }

    /// `α(level)`: the limbs per key-switch digit and the special primes
    /// of a key generated at `level` ([`digit_alpha`]), and the special
    /// limbs of an extended-basis polynomial at `level`.
    pub fn alpha(&self, level: usize) -> usize {
        digit_alpha(level, self.params.effective_level())
    }

    /// `Π_{s ∈ primes} p_s mod q`: with `primes = 0..α`, what a base-basis
    /// value is multiplied by to enter the extended basis `Q·P_α`.
    pub fn special_product(&self, primes: Range<usize>, q: u64) -> u64 {
        (self.special[primes].iter()).fold(1 % q, |acc, &p| mul_mod(acc, p % q, q))
    }

    /// `Π_{s ∈ primes} p_s⁻¹` modulo modulus `m` of the chain then the
    /// special primes (`m = moduli.len() + s'` for `p_{s'}`, which must not
    /// be in `primes`): the constant of a ModDown by those primes.
    pub fn special_product_inv(&self, primes: Range<usize>, m: usize) -> u64 {
        let all = self.moduli.len();
        let q = if m < all {
            self.moduli[m]
        } else {
            self.special[m - all]
        };
        (self.special_inv[primes].iter()).fold(1 % q, |acc, inv| mul_mod(acc, inv[m], q))
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
        assert_eq!(ctx.special.len(), 2);
        assert!(ctx.special.iter().all(|p| !ctx.moduli.contains(p)));
        assert!(ctx.special.windows(2).all(|w| w[0] > w[1]), "largest first");
    }

    #[test]
    fn benchmark_chains_sit_below_the_ifma_bound() {
        use orion_math::simd::IFMA_Q_BOUND;
        let medium_at = |n| CkksParams {
            n,
            ..CkksParams::medium()
        };
        let chains = [
            CkksParams::small(),
            medium_at(1 << 11),
            medium_at(1 << 12),
            medium_at(1 << 13),
        ];
        for params in chains {
            let n = params.n;
            let ctx = Context::new(params);
            for &q in ctx.moduli.iter().chain(&ctx.special) {
                assert!(q < IFMA_Q_BOUND, "N = {n}: {q} ≥ 2⁵⁰");
            }
            // q₀ is the nearest prime, just below 2⁵⁰; P lies below it
            assert_eq!(
                (ctx.moduli[0], ctx.special[0] < ctx.moduli[0]),
                (1125899906826241, true),
                "N = {n}"
            );
        }
        let small = Context::new(CkksParams::small());
        assert_eq!(small.special[0], 1125899906629633);
        // `tiny` and the serving chain (`tiny`'s ring and prime sizes at
        // L = 6) keep q₀ above 2⁴⁵ and p₀ below it: their digests hold.
        let serve = CkksParams {
            max_level: 6,
            boot_levels: 1,
            ..CkksParams::tiny()
        };
        for params in [CkksParams::tiny(), serve] {
            let ctx = Context::new(params);
            assert_eq!(
                (ctx.moduli[0], ctx.special[0]),
                (35184372103169, 35184372060161)
            );
        }
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
            for i in p.iter().map(|&i| i as usize) {
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

    #[test]
    fn log_qp_counts_every_special_prime_and_bounds_the_actual_primes() {
        // secure_n16: L_eff = 10, so six special primes: 60 + 24·40 + 6·60
        let secure = CkksParams::secure_n16();
        assert_eq!(secure.special_primes(), 6);
        assert_eq!(secure.log_qp(), 1380);
        assert!(secure.is_128_bit_secure(), "1380 ≤ 1772");
        // q₀ and the scale primes may lie above their targets: the bit
        // length of the product of the primes the context takes stays
        // within log_qp all the same.
        let (moduli, special) = primes(&secure);
        assert_eq!(special.len(), 6);
        let log2: f64 = moduli
            .iter()
            .chain(&special)
            .map(|&q| (q as f64).log2())
            .sum();
        let bits = log2.floor() as u32 + 1;
        assert!(bits <= secure.log_qp(), "{bits} bits > {}", secure.log_qp());
    }

    #[test]
    fn every_level_up_to_l_eff_has_two_digits() {
        for params in [
            CkksParams::tiny(),
            CkksParams::small(),
            CkksParams::medium(),
            CkksParams::secure_n16(),
        ] {
            let l_eff = params.effective_level();
            for level in 0..=params.max_level {
                let alpha = digit_alpha(level, l_eff);
                assert!(alpha <= params.special_primes());
                let dnum = digit_count(level, alpha);
                match level {
                    0 => assert_eq!((alpha, dnum), (1, 1)),
                    1 => assert_eq!((alpha, dnum), (1, 2)),
                    l if l <= l_eff => assert_eq!(dnum, 2, "level {l}"),
                    l => assert!(dnum >= 2, "level {l}"),
                }
            }
        }
    }
}
