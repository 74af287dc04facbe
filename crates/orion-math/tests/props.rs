//! Property-based tests for the math substrate.

use orion_math::fft::{Complex, SpecialFft};
use orion_math::modular::{
    add_mod, inv_mod, is_prime, mul_mod, neg_mod, pow_mod, sub_mod, Barrett,
};
use orion_math::ntt::NttTable;
use orion_math::primes::generate_ntt_primes;
use orion_math::rns::{crt_lift_centered, crt_reconstruct_centered};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const Q: u64 = 0x1fff_ffff_ffe0_0001; // 61-bit prime

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn add_sub_inverse(a in 0..Q, b in 0..Q) {
        prop_assert_eq!(sub_mod(add_mod(a, b, Q), b, Q), a);
        prop_assert_eq!(add_mod(a, neg_mod(a, Q), Q), 0);
    }

    #[test]
    fn mul_distributes_over_add(a in 0..Q, b in 0..Q, c in 0..Q) {
        let lhs = mul_mod(a, add_mod(b, c, Q), Q);
        let rhs = add_mod(mul_mod(a, b, Q), mul_mod(a, c, Q), Q);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn fermat_inverse(a in 1..Q) {
        prop_assert_eq!(mul_mod(a, inv_mod(a, Q), Q), 1);
    }

    #[test]
    fn pow_is_repeated_multiplication(a in 0..Q, e in 0u64..16) {
        let mut expect = 1u64;
        for _ in 0..e {
            expect = mul_mod(expect, a, Q);
        }
        prop_assert_eq!(pow_mod(a, e, Q), expect);
    }

    /// NTT is linear: NTT(a + b) = NTT(a) + NTT(b).
    #[test]
    fn ntt_is_linear(seed in 0u64..5000) {
        let n = 64;
        let q = generate_ntt_primes(n, 45, 1, &[])[0];
        let table = NttTable::new(n, q);
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| add_mod(x, y, q)).collect();
        let mut ea = a.clone();
        let mut eb = b.clone();
        let mut es = sum.clone();
        table.forward(&mut ea);
        table.forward(&mut eb);
        table.forward(&mut es);
        for i in 0..n {
            prop_assert_eq!(es[i], add_mod(ea[i], eb[i], q));
        }
    }

    /// Harvey lazy-reduction NTT is bit-exact against the strict path for
    /// random primes (30–59 bits) and degrees (16–1024), both directions,
    /// including the roundtrip back to the original coefficients.
    #[test]
    fn lazy_ntt_matches_strict(log_n in 4usize..11, bits_off in 0u32..30, seed in 0u64..1_000_000) {
        let n = 1usize << log_n;
        let bits = 30 + bits_off; // prime size in [30, 60)
        let q = generate_ntt_primes(n, bits, 1, &[])[0];
        let table = NttTable::new(n, q);
        let mut rng = StdRng::seed_from_u64(seed);
        let orig: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut strict = orig.clone();
        let mut lazy = orig.clone();
        table.forward(&mut strict);
        table.forward_lazy(&mut lazy);
        prop_assert_eq!(&strict, &lazy);
        prop_assert!(lazy.iter().all(|&x| x < q));
        table.inverse(&mut strict);
        table.inverse_lazy(&mut lazy);
        prop_assert_eq!(&strict, &lazy);
        prop_assert_eq!(&lazy, &orig);
    }

    /// Negacyclic wrap: X^{n-1} · X = -1 in the ring.
    #[test]
    fn negacyclic_wraparound(c in 1u64..1000) {
        let n = 32;
        let q = generate_ntt_primes(n, 40, 1, &[])[0];
        let table = NttTable::new(n, q);
        let mut a = vec![0u64; n];
        a[n - 1] = c; // c·X^{n-1}
        let mut x = vec![0u64; n];
        x[1] = 1; // X
        table.forward(&mut a);
        table.forward(&mut x);
        let mut prod: Vec<u64> = a.iter().zip(&x).map(|(&u, &v)| mul_mod(u, v, q)).collect();
        table.inverse(&mut prod);
        prop_assert_eq!(prod[0], q - c); // -c
        prop_assert!(prod[1..].iter().all(|&v| v == 0));
    }

    /// Special FFT: Parseval-ish energy preservation under round-trip.
    #[test]
    fn special_fft_roundtrip_arbitrary(seed in 0u64..5000) {
        let n = 128;
        let fft = SpecialFft::new(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let orig: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)))
            .collect();
        let mut v = orig.clone();
        fft.inverse(&mut v);
        fft.forward(&mut v);
        for (a, b) in v.iter().zip(&orig) {
            prop_assert!((*a - *b).norm_sqr().sqrt() < 1e-8);
        }
    }

    /// CRT reconstruction matches direct arithmetic for 2-limb cases.
    #[test]
    fn crt_two_limbs(x in -1_000_000_000i64..1_000_000_000) {
        let moduli = [2_147_483_647u64, 2_147_483_629]; // both prime
        let limbs: Vec<u64> = moduli.iter().map(|&q| (x as i128).rem_euclid(q as i128) as u64).collect();
        prop_assert_eq!(crt_reconstruct_centered(&limbs, &moduli), x as i128);
    }
}

/// `(q₀, q₁)` of a CKKS preset: the first prime of `q0_bits`, then the
/// first scale prime of `log_scale` that differs from it — the two limbs
/// every decode lifts.
fn chain_pair(n: usize, q0_bits: u32, log_scale: u32) -> (u64, u64) {
    let q0 = generate_ntt_primes(n, q0_bits, 1, &[]);
    (q0[0], generate_ntt_primes(n, log_scale, 1, &q0)[0])
}

/// The lowest limb pairs of `tiny` (and the serving set, the same chain),
/// `small`, `medium`, `medium` on the ring N = 2¹¹, and `secure_n16`, whose
/// 60-bit q₀ keeps a lift with a limb above 2⁵⁰ in the set.
fn preset_pairs() -> Vec<(u64, u64)> {
    vec![
        chain_pair(1 << 10, 45, 30),
        chain_pair(1 << 12, 50, 35),
        chain_pair(1 << 13, 50, 40),
        chain_pair(1 << 11, 50, 40),
        chain_pair(1 << 16, 60, 40),
    ]
}

/// A random odd prime of `bits` bits.
fn random_prime(bits: u32, rng: &mut StdRng) -> u64 {
    let mut q = rng.gen_range(1u64 << (bits - 1)..1u64 << bits) | 1;
    while !is_prime(q) {
        q += 2;
    }
    q
}

/// Holds [`crt_lift_centered`] to [`crt_reconstruct_centered`] element by
/// element on two limbs over `(q0, q1)` and on `q0` alone: residues 0 and
/// `q − 1`, the integers on each side of `⌊Q/2⌋` (and of `⌊q₀/2⌋` for one
/// limb), `Q − 1`, and 64 random columns.
fn check_lift(q0: u64, q1: u64, rng: &mut StdRng) -> Result<(), String> {
    let q = q0 as u128 * q1 as u128;
    let mut xs: Vec<u128> = vec![0, 1, q - 1, q0 as u128 - 1, q1 as u128 - 1];
    xs.extend((0..5).map(|d| q / 2 - 2 + d));
    xs.extend((0..3).map(|d| (q0 / 2 - 1 + d) as u128));
    xs.extend((0..64).map(|_| rng.gen_range(0..q)));
    let mut r0: Vec<u64> = xs.iter().map(|&x| (x % q0 as u128) as u64).collect();
    let mut r1: Vec<u64> = xs.iter().map(|&x| (x % q1 as u128) as u64).collect();
    // Residue 0 on one limb against q − 1 on the other.
    r0.extend([0, q0 - 1]);
    r1.extend([q1 - 1, 0]);
    let two = crt_lift_centered(&[&r0, &r1], &[q0, q1]);
    let one = crt_lift_centered(&[&r0], &[q0]);
    prop_assert_eq!(two.len(), r0.len());
    for k in 0..r0.len() {
        let want = crt_reconstruct_centered(&[r0[k], r1[k]], &[q0, q1]);
        prop_assert_eq!(two[k], want, "({q0}, {q1}) residues ({}, {})", r0[k], r1[k]);
        let want = crt_reconstruct_centered(&[r0[k]], &[q0]);
        prop_assert_eq!(one[k], want, "{q0} residue {}", r0[k]);
    }
    Ok(())
}

/// The integers where [`Barrett::reduce_i128`] changes path or sign, for
/// modulus `q`.
fn signed_edges(q: u64) -> Vec<i128> {
    let wide = (q as i128) << 64;
    let mut xs = vec![0, i128::MIN + 1, i128::MAX, i128::MIN];
    for x in [
        1,
        2,
        1 << 63,
        wide - 1,
        wide,
        wide + 1,
        q as i128 - 1,
        q as i128,
    ] {
        xs.extend([x, -x]);
    }
    xs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slice lift equals the per-value reference on every preset's
    /// lowest two limbs.
    #[test]
    fn crt_lift_matches_reference_on_preset_chains(
        pair in prop::sample::select(preset_pairs()),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_lift(pair.0, pair.1, &mut rng)?;
        check_lift(pair.1, pair.0, &mut rng)?;
    }

    /// The slice lift equals the per-value reference on random 30–61-bit
    /// prime pairs, both orders.
    #[test]
    fn crt_lift_matches_reference_on_random_primes(
        bits0 in 30u32..62,
        bits1 in 30u32..62,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q0 = random_prime(bits0, &mut rng);
        let q1 = random_prime(bits1, &mut rng);
        prop_assume!(q0 != q1);
        check_lift(q0, q1, &mut rng)?;
        check_lift(q1, q0, &mut rng)?;
    }

    /// `Barrett::reduce_i128` equals `rem_euclid` at its path and sign
    /// edges and at random integers of every magnitude.
    #[test]
    fn signed_barrett_matches_rem_euclid(bits in 30u32..62, seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_prime(bits, &mut rng);
        let mut xs = signed_edges(q);
        for shift in [0, 32, 60, 64, 100, 126] {
            let x: i128 = rng.gen_range(i128::MIN..i128::MAX);
            xs.extend([x >> shift, (x >> shift).wrapping_add((q as i128) * (x >> 120))]);
        }
        let br = Barrett::new(q);
        for x in xs {
            prop_assert_eq!(br.reduce_i128(x), x.rem_euclid(q as i128) as u64, "{x} mod {q}");
        }
    }
}

/// The same edges on the presets' own moduli.
#[test]
fn signed_barrett_matches_rem_euclid_on_preset_moduli() {
    for (q0, q1) in preset_pairs() {
        for q in [q0, q1] {
            let br = Barrett::new(q);
            for x in signed_edges(q) {
                assert_eq!(
                    br.reduce_i128(x),
                    x.rem_euclid(q as i128) as u64,
                    "{x} mod {q}"
                );
            }
        }
    }
}
