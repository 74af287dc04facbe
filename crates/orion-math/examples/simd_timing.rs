//! Quick per-kernel timing table of every dispatch class (dev aid, not a
//! gate) at primes near 2⁴⁰ and 2⁵⁹ — both sides of the IFMA class's
//! `q < 2⁵⁰` gate — then, at the limb shape of `CkksParams::small()` (N =
//! 2¹²) and one prime on each side of 2⁵⁰, the key-switch inner product
//! in ns per digit·coefficient at 2, 5 and 8 digits (`ks_accum`, one key
//! half, and `ks_accum_pair`, both halves through a Galois permutation)
//! and the wide lanes (`mac_wide` + `fold_wide`) in ns per
//! term·coefficient — each on one operand set reused (hot in cache) and
//! cycling through 64 MiB of operand sets (larger than L2, as a session's
//! rotation keys and a layer's plaintexts are).
//!
//! Run with `cargo run --release -p orion-math --example simd_timing`.

use orion_math::modular::shoup_precompute;
use orion_math::ntt::NttTable;
use orion_math::primes::generate_ntt_primes;
use orion_math::simd;
use std::hint::black_box;
use std::time::Instant;

fn time_ns(mut f: impl FnMut()) -> f64 {
    // Warm up, then take the best of 7 timed batches.
    for _ in 0..3 {
        f();
    }
    let mut best = f64::MAX;
    for _ in 0..7 {
        let iters = 40;
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn main() {
    let names: Vec<&str> = simd::variants().iter().map(|k| k.name).collect();
    println!(
        "dispatch: {}  variants: {}",
        simd::dispatch_name(),
        names.join(", ")
    );
    if simd::ifma().is_none() {
        println!("avx512ifma: absent from variants() (the CPU lacks avx512f/vl/ifma)");
    }
    // One prime on each side of the IFMA class's 2⁵⁰ gate (the search for
    // 59 bits lands just above 2⁵⁹): above the gate the IFMA row repeats
    // the AVX2 bodies.
    for bits in [40, 59] {
        kernel_table(8192, bits);
    }
    // The 50-bit search lands just below 2⁵⁰ at N = 2¹², the 51-bit one
    // above it (lola's special prime is 51 bits).
    for bits in [50, 51] {
        key_switch_table(4096, bits);
    }
}

/// Every elementwise kernel and the NTT pair on every dispatch class, at
/// ring degree `n` and one `bits`-bit NTT prime, in ns per call.
fn kernel_table(n: usize, bits: u32) {
    let q = generate_ntt_primes(n, bits, 1, &[])[0];
    let t = NttTable::new(n, q);
    t.inverse(&mut vec![0u64; n]);
    let mut x = 1u64;
    let data: Vec<u64> = (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x % q
        })
        .collect();
    let other: Vec<u64> = data.iter().map(|&v| (v * 7 + 13) % q).collect();
    let s = data[17];
    let s_sh = shoup_precompute(s, q);
    let mut buf = data.clone();
    let mut out = vec![0u64; n];
    println!("n={n} q={q} ({} bits)", 64 - q.leading_zeros());
    for k in simd::variants() {
        let fwd = time_ns(|| {
            buf.copy_from_slice(&data);
            t.forward_lazy_with(k, &mut buf);
            black_box(buf[0]);
        });
        let inv = time_ns(|| {
            buf.copy_from_slice(&data);
            t.inverse_lazy_with(k, &mut buf);
            black_box(buf[0]);
        });
        let mul = time_ns(|| {
            (k.mul_pointwise)(&mut out, &data, &other, q);
            black_box(out[0]);
        });
        let mac = time_ns(|| {
            (k.add_mul)(&mut out, &data, &other, q);
            black_box(out[0]);
        });
        let add = time_ns(|| {
            (k.add_assign)(&mut buf, &data, q);
            black_box(buf[0]);
        });
        let smul = time_ns(|| {
            (k.scalar_mul_assign)(&mut buf, s, s_sh, q);
            black_box(buf[0]);
        });
        let submul = time_ns(|| {
            buf.copy_from_slice(&data);
            (k.sub_mul_assign)(&mut buf, &other, s, s_sh, q);
            black_box(buf[0]);
        });
        // one source (a rescale's lift) and three (an L4 ModUp digit of
        // `small`), centred, into a neighbouring prime
        let dst_q = q - 2 * n as u64;
        let (src_q, hat) = ([q; 3], [s, other[3], other[5]].map(|h| h % dst_q));
        let mut conv = |m: usize| {
            time_ns(|| {
                let src = [&data[..], &other[..], &buf[..]];
                (k.base_conv)(&mut out, &src[..m], &src_q[..m], &hat[..m], true, dst_q);
                black_box(out[0]);
            })
        };
        let (conv1, conv3) = (conv(1), conv(3));
        println!(
            "{:>10}: fwd {fwd:7.0}  inv {inv:7.0}  mul {mul:6.0}  mac {mac:6.0}  add {add:6.0}  \
             smul {smul:6.0}  submul {submul:6.0}  conv1 {conv1:6.0}  conv3 {conv3:6.0}  (ns)",
            k.name
        );
    }
}

/// Operand sets cycled through for the "cold" columns.
const COLD_BYTES: usize = 64 << 20;

/// Residues `< q` from a fixed LCG, `n` at a time.
fn residues(q: u64, seed: u64) -> impl FnMut(usize) -> Vec<u64> {
    let mut x = seed;
    move |n| {
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x % q
            })
            .collect()
    }
}

/// The key-switch kernels and the wide lanes on every class at ring
/// degree `n` and one `bits`-bit NTT prime, hot and cold.
fn key_switch_table(n: usize, bits: u32) {
    let q = generate_ntt_primes(n, bits, 1, &[])[0];
    let mut limb = residues(q, 7);
    // Rotation by one slot: the Galois element 5, as an evaluation-domain
    // permutation `new[i] = old[perm[i]]` (what `Context::galois_permutation`
    // builds from the same exponent map).
    let exp_map = NttTable::new(n, q).exponent_map();
    let mut exp_index = vec![0u32; 2 * n];
    for (i, &e) in exp_map.iter().enumerate() {
        exp_index[e] = i as u32;
    }
    let perm = simd::Permutation::new(
        exp_map
            .iter()
            .map(|&e| exp_index[e * 5 % (2 * n)])
            .collect(),
    );
    println!(
        "n={n} q={q} ({} bits): ns per digit·coefficient (pair: both halves) and \
         per term·coefficient (wide); hot = one operand set, cold = {} MiB of sets",
        64 - q.leading_zeros(),
        COLD_BYTES >> 20
    );
    for digits in [2usize, 5, 8] {
        let ds: Vec<Vec<u64>> = (0..digits).map(|_| limb(n)).collect();
        let sets = COLD_BYTES / (digits * n * 8);
        let keys: Vec<Vec<u64>> = (0..sets * digits).map(|_| limb(n)).collect();
        let d_refs: Vec<&[u64]> = ds.iter().map(|v| v.as_slice()).collect();
        let k_refs: Vec<&[u64]> = keys.iter().map(|v| v.as_slice()).collect();
        let set = |s: usize| &k_refs[s % sets * digits..(s % sets + 1) * digits];
        let (mut acc_b, mut acc_a) = (limb(n), limb(n));
        let per = (digits * n) as f64;
        for k in simd::variants() {
            let one = time_hot_cold(|s| {
                (k.ks_accum)(&mut acc_b, &d_refs, set(s), &[], q);
                black_box(acc_b[0]);
            });
            let pair = time_hot_cold(|s| {
                let (kb, ka) = (set(2 * s), set(2 * s + 1));
                (k.ks_accum_pair)(&mut acc_b, &mut acc_a, &d_refs, kb, ka, Some(&perm), q);
                black_box(acc_a[0]);
            });
            println!(
                "{digits} digits {:>10}: ks_accum hot {:6.3} cold {:6.3}   \
                 ks_accum_pair hot {:6.3} cold {:6.3}",
                k.name,
                one.0 / per,
                one.1 / per,
                pair.0 / per,
                pair.1 / per,
            );
        }
    }
    // The wide lanes as a BSGS group uses them: `terms` products summed
    // into one limb's lanes, then one fold.
    let terms = 8;
    let sets = COLD_BYTES / (2 * terms * n * 8);
    let ops: Vec<Vec<u64>> = (0..2 * terms * sets).map(|_| limb(n)).collect();
    let (mut lo, mut hi) = (vec![0u64; n], vec![0u64; n]);
    for k in simd::variants() {
        let (hot, cold) = time_hot_cold(|s| {
            let s = s % sets;
            for t in 0..terms {
                let (a, b) = (&ops[2 * (s * terms + t)], &ops[2 * (s * terms + t) + 1]);
                (k.mac_wide)(&mut lo, &mut hi, a, b, q);
            }
            (k.fold_wide)(&mut lo, &mut hi, q);
            black_box(lo[0]);
        });
        let per = (terms * n) as f64;
        println!(
            "{terms} terms  {:>10}: mac_wide + fold_wide hot {:6.3} cold {:6.3}",
            k.name,
            hot / per,
            cold / per
        );
    }
}

/// `f(set)` timed on set 0 every call (hot) and on a new set each call
/// (cold), in ns per call.
fn time_hot_cold(mut f: impl FnMut(usize)) -> (f64, f64) {
    let hot = time_ns(|| f(0));
    let mut set = 0;
    let cold = time_ns(|| {
        set += 1;
        f(set);
    });
    (hot, cold)
}
