//! SIMD-vs-scalar bit-exactness properties.
//!
//! Every kernel variant reachable on this host (`simd::variants()`: scalar,
//! AVX2, AVX-512 IFMA) must be bit-identical to the strict scalar reference
//! for random primes across the full supported size range (30–62 bits,
//! both sides of the IFMA class's 2⁵⁰ gate), all transform degrees, and
//! buffer lengths that are not multiples of the vector lane count (tail
//! handling). These run regardless of `ORION_SIMD`, so the vector paths
//! are exercised even when dispatch is forced off.

use orion_math::modular::{add_mod, mul_mod, neg_mod, reduce_i128, shoup_precompute, sub_mod};
use orion_math::ntt::NttTable;
use orion_math::primes::generate_ntt_primes;
use orion_math::simd;
use proptest::prelude::*;

fn random_prime(n: usize, bits_off: u32, seed: u64) -> u64 {
    // Prime size in [30, 62): the full range the kernels support.
    let bits = 30 + bits_off % 32;
    generate_ntt_primes(n.max(16), bits, 1, &[seed % 2])[0]
}

fn fill(rng: &mut impl rand::Rng, len: usize, bound: u64) -> Vec<u64> {
    (0..len).map(|_| rng.gen_range(0..bound)).collect()
}

/// The centered base change by `i128`: `x mod src_q` lifted to
/// `(−src_q/2, src_q/2]`, then reduced mod `q`.
fn centered_lift(x: u64, src_q: u64, q: u64) -> u64 {
    let c = if x > src_q / 2 {
        x as i128 - src_q as i128
    } else {
        x as i128
    };
    reduce_i128(c, q)
}

/// Sums `terms` through `mac_wide`, folding whenever a lane has reached
/// `wide_fold_bound(q)` products (a folded lane counts as one) and once at
/// the end — the discipline the hoisting accumulator follows.
fn wide_sum(k: &simd::Kernels, terms: &[(Vec<u64>, Vec<u64>)], q: u64) -> Vec<u64> {
    let len = terms[0].0.len();
    let (mut lo, mut hi) = (vec![0u64; len], vec![0u64; len]);
    let mut summed = 0u64;
    for (a, b) in terms {
        if summed == simd::wide_fold_bound(q) {
            (k.fold_wide)(&mut lo, &mut hi, q);
            summed = 1;
        }
        (k.mac_wide)(&mut lo, &mut hi, a, b, q);
        summed += 1;
    }
    (k.fold_wide)(&mut lo, &mut hi, q);
    assert!(
        hi.iter().all(|&h| h == 0),
        "{}: fold leaves hi clear",
        k.name
    );
    lo
}

/// The same sum as one strict `add_mul` per term.
fn strict_sum(terms: &[(Vec<u64>, Vec<u64>)], q: u64) -> Vec<u64> {
    let mut acc = vec![0u64; terms[0].0.len()];
    for (a, b) in terms {
        for ((d, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *d = add_mod(*d, mul_mod(x, y, q), q);
        }
    }
    acc
}

/// Term counts straddling the fold bound, on the largest operands there
/// are (every residue `q − 1`, so every product carries into `hi` and the
/// lanes sit as close to their limit as the bound allows) and on random
/// ones, for the largest prime below 2⁶² (bound 4) and a 61-bit NTT prime,
/// and — at the 4095-term cap the IFMA class's 52-bit lanes need — for
/// the largest NTT prime below 2⁵⁰ and the primes on each side of 2¹²,
/// where that class's wide lanes start.
#[test]
fn wide_lanes_survive_the_fold_bound_on_extreme_operands() {
    use rand::{rngs::StdRng, SeedableRng};
    let below_2_62 = (0..)
        .map(|d| (1u64 << 62) - 1 - 2 * d)
        .find(|&c| orion_math::modular::is_prime(c))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0x71de);
    for q in [below_2_62, generate_ntt_primes(16, 61, 1, &[])[0]] {
        let bound = simd::wide_fold_bound(q);
        assert!((4..=8).contains(&bound), "bound {bound} for q {q}");
        for t in [bound - 1, bound, bound + 1, 3 * bound] {
            let extreme = vec![(vec![q - 1; 37], vec![q - 1; 37]); t as usize];
            let random: Vec<_> = (0..t)
                .map(|_| (fill(&mut rng, 37, q), fill(&mut rng, 37, q)))
                .collect();
            for terms in [&extreme, &random] {
                let want = strict_sum(terms, q);
                for k in simd::variants() {
                    assert_eq!(wide_sum(k, terms, q), want, "{} q {q} T {t}", k.name);
                }
            }
        }
    }
    for q in [ifma_gate_primes()[0], 4093, 4099] {
        assert_eq!(simd::wide_fold_bound(q), 4095, "q {q}");
        for t in [4094, 4095, 4096, 3 * 4095] {
            let extreme = vec![(vec![q - 1; 37], vec![q - 1; 37]); t];
            let want = strict_sum(&extreme, q);
            for k in simd::variants() {
                assert_eq!(wide_sum(k, &extreme, q), want, "{} q {q} T {t}", k.name);
            }
        }
    }
}

/// The NTT primes (`≡ 1 mod 2¹⁴`, so they serve every N ≤ 2¹³) on each
/// side of the IFMA class's gate: the largest below `IFMA_Q_BOUND` and the
/// smallest above it.
fn ifma_gate_primes() -> [u64; 2] {
    let (bound, step) = (simd::IFMA_Q_BOUND, 1u64 << 14);
    let below = (1..)
        .map(|k| bound - k * step + 1)
        .find(|&c| orion_math::modular::is_prime(c))
        .unwrap();
    let above = (0..)
        .map(|k| bound + k * step + 1)
        .find(|&c| orion_math::modular::is_prime(c))
        .unwrap();
    [below, above]
}

/// All-zero, all-`(bound − 1)` and random buffers of length `len`.
fn edge_inputs(rng: &mut impl rand::Rng, len: usize, bound: u64) -> [Vec<u64>; 3] {
    [vec![0; len], vec![bound - 1; len], fill(rng, len, bound)]
}

#[test]
fn variants_list_ifma_exactly_when_the_cpu_has_it() {
    #[cfg(target_arch = "x86_64")]
    let has = std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512ifma");
    #[cfg(not(target_arch = "x86_64"))]
    let has = false;
    let names: Vec<&str> = simd::variants().iter().map(|k| k.name).collect();
    assert_eq!(names.contains(&"avx512ifma"), has, "{names:?}");
    assert_eq!(simd::ifma().is_some(), has);
}

/// The NTT pair on every class is bit-identical to the strict transform on
/// both sides of the 2⁵⁰ gate, for N = 2³…2¹³ (below 16 the IFMA class
/// runs the AVX2 body) and inputs all 0, all `q − 1` and random.
#[test]
fn ntt_pair_matches_strict_on_both_sides_of_the_ifma_gate() {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x1f3a);
    for q in ifma_gate_primes() {
        for log_n in 3..=13 {
            let n = 1usize << log_n;
            let table = NttTable::new(n, q);
            for input in edge_inputs(&mut rng, n, q) {
                let mut strict = input.clone();
                table.forward(&mut strict);
                for k in simd::variants() {
                    let mut v = input.clone();
                    table.forward_lazy_with(k, &mut v);
                    assert_eq!(v, strict, "forward {} q {q} n {n}", k.name);
                    table.inverse_lazy_with(k, &mut v);
                    assert_eq!(v, input, "inverse {} q {q} n {n}", k.name);
                }
            }
        }
    }
}

/// Every elementwise kernel with an IFMA body matches the strict reference
/// on both sides of the 2⁵⁰ gate and on both sides of the wide fold's
/// 2¹² floor, on all-0, all-`(q − 1)` and random operands, at lengths
/// around the 8-lane width, and the one-source base conversion, plain and
/// centred, from the other gate prime.
#[test]
fn elementwise_kernels_match_reference_at_the_ifma_gates() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x9a7e);
    let [below, above] = ifma_gate_primes();
    for q in [below, above, 4093, 4099] {
        for len in [1usize, 7, 8, 9, 67] {
            let s = rng.gen_range(0..q);
            let s_sh = shoup_precompute(s, q);
            let ops = edge_inputs(&mut rng, len, q);
            for k in simd::variants() {
                for (a, b) in ops.iter().zip(ops.iter().rev()) {
                    let mut v = vec![0u64; len];
                    (k.mul_pointwise)(&mut v, a, b, q);
                    let want: Vec<u64> = a.iter().zip(b).map(|(&x, &y)| mul_mod(x, y, q)).collect();
                    assert_eq!(v, want, "{} mul q {q} len {len}", k.name);
                    let mut v = a.clone();
                    (k.scalar_mul_assign)(&mut v, s, s_sh, q);
                    let want: Vec<u64> = a.iter().map(|&x| mul_mod(x, s, q)).collect();
                    assert_eq!(v, want, "{} smul q {q} len {len}", k.name);
                    let mut v = a.clone();
                    (k.sub_mul_assign)(&mut v, b, s, s_sh, q);
                    let want: Vec<u64> = a
                        .iter()
                        .zip(b)
                        .map(|(&x, &y)| mul_mod(sub_mod(x, y, q), s, q))
                        .collect();
                    assert_eq!(v, want, "{} submul q {q} len {len}", k.name);
                }
                // One-source base change from the other gate prime into q.
                let src_q = if q == below { above } else { below };
                for src in edge_inputs(&mut rng, len, src_q) {
                    for centered in [false, true] {
                        let mut v = vec![0u64; len];
                        (k.base_conv)(&mut v, &[&src], &[src_q], &[1], centered, q);
                        let want: Vec<u64> = (src.iter())
                            .map(|&x| match centered {
                                true => centered_lift(x, src_q, q),
                                false => x % q,
                            })
                            .collect();
                        assert_eq!(v, want, "{} conv q {q} len {len}", k.name);
                    }
                }
            }
        }
    }
}

/// The one-source base conversion between the lola chain's q₀ and its
/// first special prime P < q₀ (`CkksParams::small()`), both IFMA limbs, in
/// both directions: a one-limb ModUp extends q₀'s digit into P, a ModDown
/// lifts P into q₀, each plain and centred. On every class, residues 0,
/// `q − 1`, the centering threshold, `src_q − 1` and random ones.
#[test]
fn base_changes_between_the_lola_limbs_match_reference() {
    use rand::{rngs::StdRng, SeedableRng};
    let (q0, p) = (1125899906826241, 1125899906629633);
    assert!(p < q0 && q0 < simd::IFMA_Q_BOUND);
    let mut rng = StdRng::seed_from_u64(0x10_1a);
    for (src_q, q) in [(q0, p), (p, q0)] {
        let mut src: Vec<u64> = vec![0, 1, q.min(src_q) - 1, src_q / 2, src_q / 2 + 1, src_q - 1];
        src.extend(fill(&mut rng, 67, src_q));
        let reduced: Vec<u64> = src.iter().map(|&x| x % q).collect();
        let centered: Vec<u64> = src.iter().map(|&x| centered_lift(x, src_q, q)).collect();
        for k in simd::variants() {
            for len in [1, 7, 8, 9, src.len()] {
                for (centred, want) in [(false, &reduced), (true, &centered)] {
                    let mut v = vec![0u64; len];
                    (k.base_conv)(&mut v, &[&src[..len]], &[src_q], &[1], centred, q);
                    assert_eq!(
                        v,
                        want[..len],
                        "{} {src_q} → {q} centred {centred} len {len}",
                        k.name
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whole-transform lazy NTT kernels (every variant) are bit-exact
    /// against the strict per-butterfly path, both directions, for all
    /// degrees 4..2048 — including the sub-vector sizes that take the
    /// scalar fallback inside the AVX2 table.
    #[test]
    fn ntt_kernels_match_strict(log_n in 2usize..12, bits_off in 0u32..32, seed in 0u64..1_000_000) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 1usize << log_n;
        let q = random_prime(n, bits_off, seed);
        let table = NttTable::new(n, q);
        let mut rng = StdRng::seed_from_u64(seed);
        let orig: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut strict = orig.clone();
        table.forward(&mut strict);
        for k in simd::variants() {
            let mut v = orig.clone();
            table.forward_lazy_with(k, &mut v);
            prop_assert_eq!(&v, &strict, "forward mismatch for {}", k.name);
        }
        let mut inv_strict = strict.clone();
        table.inverse(&mut inv_strict);
        prop_assert_eq!(&inv_strict, &orig);
        for k in simd::variants() {
            let mut v = strict.clone();
            table.inverse_lazy_with(k, &mut v);
            prop_assert_eq!(&v, &orig, "inverse mismatch for {}", k.name);
        }
    }

    /// Elementwise kernels match the strict modular reference on lengths
    /// that are not multiples of the 4-lane width (tail handling), for
    /// random primes across the supported size range.
    #[test]
    fn pointwise_kernels_match_reference(len in 1usize..130, bits_off in 0u32..32, seed in 0u64..1_000_000) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let q = random_prime(16, bits_off, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let a = fill(&mut rng, len, q);
        let b = fill(&mut rng, len, q);
        let d = fill(&mut rng, len, q);
        let s = rng.gen_range(0..q);
        let s_sh = shoup_precompute(s, q);
        for k in simd::variants() {
            let mut v = a.clone();
            (k.add_assign)(&mut v, &b, q);
            for i in 0..len {
                prop_assert_eq!(v[i], add_mod(a[i], b[i], q), "{} add[{}]", k.name, i);
            }
            let mut v = a.clone();
            (k.sub_assign)(&mut v, &b, q);
            for i in 0..len {
                prop_assert_eq!(v[i], sub_mod(a[i], b[i], q), "{} sub[{}]", k.name, i);
            }
            let mut v = a.clone();
            (k.neg_assign)(&mut v, q);
            for i in 0..len {
                prop_assert_eq!(v[i], neg_mod(a[i], q), "{} neg[{}]", k.name, i);
            }
            let mut v = vec![0u64; len];
            (k.mul_pointwise)(&mut v, &a, &b, q);
            for i in 0..len {
                prop_assert_eq!(v[i], mul_mod(a[i], b[i], q), "{} mul[{}]", k.name, i);
            }
            let mut v = d.clone();
            (k.add_mul)(&mut v, &a, &b, q);
            for i in 0..len {
                prop_assert_eq!(v[i], add_mod(d[i], mul_mod(a[i], b[i], q), q), "{} mac[{}]", k.name, i);
            }
            let mut v = a.clone();
            (k.scalar_mul_assign)(&mut v, s, s_sh, q);
            for i in 0..len {
                prop_assert_eq!(v[i], mul_mod(a[i], s, q), "{} smul[{}]", k.name, i);
            }
            let mut v = a.clone();
            (k.sub_mul_assign)(&mut v, &b, s, s_sh, q);
            for i in 0..len {
                prop_assert_eq!(v[i], mul_mod(sub_mod(a[i], b[i], q), s, q), "{} submul[{}]", k.name, i);
            }
        }
    }

    /// Lazy 128-bit accumulation followed by one fold equals one strict
    /// `add_mul` per term, for primes from 30 bits (the bound is never
    /// reached) to 61 bits (a few dozen terms cross it several times).
    #[test]
    fn wide_mac_fold_matches_strict_add_mul(
        len in 1usize..70,
        terms in 1usize..40,
        bits_off in 0u32..32,
        seed in 0u64..1_000_000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let q = random_prime(16, bits_off, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x71de);
        let terms: Vec<_> = (0..terms)
            .map(|_| (fill(&mut rng, len, q), fill(&mut rng, len, q)))
            .collect();
        let want = strict_sum(&terms, q);
        for k in simd::variants() {
            prop_assert_eq!(&wide_sum(k, &terms, q), &want, "{} wide", k.name);
        }
    }

    /// The base conversion equals the strict `Σ_k c(v_k)·hat_k mod q` in
    /// `i128`, plain and centered, from one to six 30–61-bit source primes
    /// into a 30–61-bit target, on every class: IFMA runs its body when
    /// every modulus is below 2⁵⁰ and must agree with the scalar one.
    /// Sources include 0, each centring threshold and `s − 1`.
    #[test]
    fn base_conv_matches_strict_sum(
        len in 1usize..70,
        m in 1usize..7,
        bits_off in 0u32..32,
        wide in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbc0e);
        // 30–49-bit primes (the IFMA body), or the full range
        let span = if wide == 1 { 32 } else { 20 };
        let prime = |rng: &mut rand::rngs::StdRng, exclude: &[u64]| {
            let bits = 30 + (bits_off + rng.gen_range(0..span)) % span;
            generate_ntt_primes(16, bits, 1, exclude)[0]
        };
        let mut moduli: Vec<u64> = Vec::new();
        for _ in 0..=m {
            let p = prime(&mut rng, &moduli);
            moduli.push(p);
        }
        let q = moduli.pop().unwrap();
        let src: Vec<Vec<u64>> = moduli
            .iter()
            .map(|&s| {
                let mut v = fill(&mut rng, len, s);
                let edges = [0, s / 2, s / 2 + 1, s - 1];
                for (x, e) in v.iter_mut().zip(edges) {
                    *x = e;
                }
                v
            })
            .collect();
        let hat: Vec<u64> = moduli.iter().map(|_| rng.gen_range(0..q)).collect();
        let src_refs: Vec<&[u64]> = src.iter().map(Vec::as_slice).collect();
        for centered in [false, true] {
            let want: Vec<u64> = (0..len)
                .map(|i| {
                    let terms = src.iter().zip(&moduli).zip(&hat);
                    terms.fold(0, |acc, ((v, &s), &h)| {
                        let c = match centered {
                            true => centered_lift(v[i], s, q),
                            false => v[i] % q,
                        };
                        add_mod(acc, mul_mod(c, h, q), q)
                    })
                })
                .collect();
            for k in simd::variants() {
                let mut got = vec![u64::MAX; len];
                (k.base_conv)(&mut got, &src_refs, &moduli, &hat, centered, q);
                prop_assert_eq!(&got, &want, "{} centered={}", k.name, centered);
            }
        }
    }

    /// The fused key-switch accumulator over Montgomery-form keys
    /// (`k·2⁶⁴ mod q`) equals the strict `Σ d·k mod q` for 30–61-bit primes
    /// and up to `3·min(wide_fold_bound(q), 8) + 2` digits, so 60–61-bit
    /// primes cross the REDC bound and run the chunked path (three chunks
    /// and a tail where the bound is 8).
    #[test]
    fn ks_accum_matches_strict_inner_product(
        len in 1usize..70,
        digit_sel in 0usize..1000,
        bits_off in 0u32..32,
        seed in 0u64..1_000_000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let q = random_prime(16, bits_off, seed);
        let bound = simd::wide_fold_bound(q) as usize;
        let digits = 1 + digit_sel % (3 * bound.min(8) + 2);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5);
        let acc0 = fill(&mut rng, len, q);
        let ds: Vec<Vec<u64>> = (0..digits).map(|_| fill(&mut rng, len, q)).collect();
        let ks: Vec<Vec<u64>> = (0..digits).map(|_| fill(&mut rng, len, q)).collect();
        let mut mont = ks.clone();
        for kv in &mut mont {
            simd::to_montgomery(kv, q);
        }
        let mut expect = acc0.clone();
        for d in 0..digits {
            for i in 0..len {
                expect[i] = add_mod(expect[i], mul_mod(ds[d][i], ks[d][i], q), q);
            }
        }
        let dsl: Vec<&[u64]> = ds.iter().map(|v| v.as_slice()).collect();
        let ksl: Vec<&[u64]> = mont.iter().map(|v| v.as_slice()).collect();
        for k in simd::variants() {
            let mut v = acc0.clone();
            (k.ks_accum)(&mut v, &dsl, &ksl, &[], q);
            prop_assert_eq!(&v, &expect, "{} ks_accum, {} digits", k.name, digits);
        }
    }

    /// The two-half key-switch pass equals the strict `Σ d[σ(i)]·k[i] mod
    /// q` for each half, read straight or through a random permutation,
    /// on every class: for the primes on each side of 2⁵⁰ and of 2¹² and
    /// random 30–61-bit ones, 1–40 digits (across the IFMA body's 15-digit
    /// chunks), lengths 1–69 (masked tails), on random and all-`(q − 1)`
    /// operands. The one-half `ks_accum` matches the `b` half.
    #[test]
    fn ks_accum_pair_matches_strict_inner_product(
        len in 1usize..70,
        digits in 1usize..41,
        prime_sel in 0usize..5,
        permuted in 0u32..2,
        extreme in 0u32..2,
        seed in 0u64..1_000_000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let [below, above] = ifma_gate_primes();
        let q = [below, above, 4093, 4099, random_prime(16, seed as u32, seed)][prime_sel];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a1f);
        let operand = |rng: &mut StdRng| match extreme {
            1 => vec![q - 1; len],
            _ => fill(rng, len, q),
        };
        let acc0 = [operand(&mut rng), operand(&mut rng)];
        let ds: Vec<Vec<u64>> = (0..digits).map(|_| operand(&mut rng)).collect();
        let ks: [Vec<Vec<u64>>; 2] =
            std::array::from_fn(|_| (0..digits).map(|_| operand(&mut rng)).collect());
        let mut order: Vec<u32> = (0..len as u32).collect();
        if permuted == 1 {
            for i in (1..len).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
        }
        let perm = simd::Permutation::new(order.clone());
        let expect: Vec<Vec<u64>> = (0..2)
            .map(|h| {
                (0..len)
                    .map(|i| {
                        (0..digits).fold(acc0[h][i], |s, d| {
                            add_mod(s, mul_mod(ds[d][order[i] as usize], ks[h][d][i], q), q)
                        })
                    })
                    .collect()
            })
            .collect();
        // The kernel reads keys in Montgomery form.
        let mont = ks.clone().map(|half| {
            half.into_iter()
                .map(|mut v| {
                    simd::to_montgomery(&mut v, q);
                    v
                })
                .collect::<Vec<_>>()
        });
        let dsl: Vec<&[u64]> = ds.iter().map(|v| v.as_slice()).collect();
        let [kb, ka] = [0, 1].map(|h| mont[h].iter().map(|v| v.as_slice()).collect::<Vec<_>>());
        let perm = (permuted == 1).then_some(&perm);
        for k in simd::variants() {
            let (mut b, mut a) = (acc0[0].clone(), acc0[1].clone());
            (k.ks_accum_pair)(&mut b, &mut a, &dsl, &kb, &ka, perm, q);
            prop_assert_eq!(&b, &expect[0], "{} b half, q {}, {} digits", k.name, q, digits);
            prop_assert_eq!(&a, &expect[1], "{} a half, q {}, {} digits", k.name, q, digits);
            if perm.is_none() {
                let mut v = acc0[0].clone();
                (k.ks_accum)(&mut v, &dsl, &kb, &[], q);
                prop_assert_eq!(&v, &expect[0], "{} ks_accum, q {}", k.name, q);
            }
        }
    }
}
