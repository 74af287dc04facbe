//! Quick per-kernel timing table of every dispatch class (dev aid, not a
//! gate) at primes near 2⁴⁰ and 2⁵⁹ — both sides of the IFMA class's
//! `q < 2⁵⁰` gate — then the key-switch inner product `ks_accum` in ns per
//! digit·coefficient at 2, 5 and 8 digits — on one key set reused (hot in
//! cache) and cycling through 64 MiB of key sets (larger than L2, as a
//! session's rotation keys are).
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
    ks_accum_table();
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
    let wide: Vec<u64> = data
        .iter()
        .map(|&v| v.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
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
        let mred = time_ns(|| {
            (k.mod_reduce)(&mut out, &wide, q);
            black_box(out[0]);
        });
        let cred = time_ns(|| {
            (k.centered_reduce)(&mut out, &data, q, q - 2 * n as u64);
            black_box(out[0]);
        });
        println!(
            "{:>10}: fwd {fwd:7.0}  inv {inv:7.0}  mul {mul:6.0}  mac {mac:6.0}  add {add:6.0}  \
             smul {smul:6.0}  submul {submul:6.0}  mred {mred:6.0}  cred {cred:6.0}  (ns)",
            k.name
        );
    }
}

/// `ks_accum` at the limb shape of `CkksParams::small()` (N = 2¹², a
/// 50-bit prime), per digit·coefficient. Both dispatch classes share one
/// body, so it is timed once.
fn ks_accum_table() {
    const COLD_BYTES: usize = 64 << 20;
    let ks_accum = simd::kernels().ks_accum;
    let n = 4096;
    let q = generate_ntt_primes(n, 50, 1, &[])[0];
    let mut x = 7u64;
    let mut limb = || -> Vec<u64> {
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x % q
            })
            .collect()
    };
    println!(
        "ks_accum, ns per digit·coefficient (n={n}, 50-bit q; \
         hot = one key set, cold = {} MiB of key sets)",
        COLD_BYTES >> 20
    );
    for digits in [2usize, 5, 8] {
        let ds: Vec<Vec<u64>> = (0..digits).map(|_| limb()).collect();
        let sets = COLD_BYTES / (digits * n * 8);
        let keys: Vec<Vec<u64>> = (0..sets * digits).map(|_| limb()).collect();
        let d_refs: Vec<&[u64]> = ds.iter().map(|v| v.as_slice()).collect();
        let k_refs: Vec<&[u64]> = keys.iter().map(|v| v.as_slice()).collect();
        let mut acc = limb();
        let per = (digits * n) as f64;
        let hot = time_ns(|| {
            ks_accum(&mut acc, &d_refs, &k_refs[..digits], &[], q);
            black_box(acc[0]);
        });
        let mut set = 0;
        let cold = time_ns(|| {
            set = (set + 1) % sets;
            let key = &k_refs[set * digits..(set + 1) * digits];
            ks_accum(&mut acc, &d_refs, key, &[], q);
            black_box(acc[0]);
        });
        println!(
            "{digits} digits  hot {:6.3}  cold {:6.3}",
            hot / per,
            cold / per
        );
    }
}
