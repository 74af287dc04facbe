//! Vectorized kernel layer with runtime CPU dispatch.
//!
//! Every hot inner loop in Orion — NTT butterflies, Shoup pointwise
//! multiplies, and the key-switch digit accumulation — funnels through the
//! [`Kernels`] table of function pointers. The table is chosen **once per
//! process** (the same pattern as the thread pool's width env read):
//!
//! * `ORION_SIMD` unset → auto-detect the best class the CPU has:
//!   AVX-512 IFMA ([`ifma`]: `avx512f` + `avx512vl` + `avx512ifma`), else
//!   AVX2 ([`avx2`]), else the portable 4-wide unrolled scalar path.
//! * `ORION_SIMD=force` → require an accelerated class (the best one
//!   present; panics only on x86-64 without AVX2; on other architectures
//!   the scalar path *is* the accelerated path).
//! * `ORION_SIMD=off` → scalar, for A/B testing and bit-exactness gates.
//!
//! Every class stays reachable in-process via [`scalar`], [`avx2`] and
//! [`ifma`] ([`variants`] lists those the host has) so proptests can pin
//! bit-exactness and benches can measure the ratio without re-exec'ing
//! under a different environment.
//!
//! The IFMA class multiplies on the native 52-bit multiplier
//! (`vpmadd52lo/hiuq`), so it applies only to limbs whose prime is below
//! [`IFMA_Q_BOUND`] `= 2⁵⁰`: there the lazy NTT range `[0, 4q)` fits in 52
//! bits. Each of its kernels branches once per call on `q`; a limb at or
//! above the bound runs the AVX2 body. Its Shoup constants are the 52-bit
//! twins `⌊w·2⁵²/q⌋` ([`shoup52`]), which [`crate::NttTable`] precomputes
//! for every prime below the bound.
//!
//! # Lazy-form invariants
//!
//! | kernel              | accepts            | emits        |
//! |---------------------|--------------------|--------------|
//! | `ntt_fwd_lazy`      | `[0, q)`           | `[0, q)` (internal stages `[0, 4q)`) |
//! | `ntt_inv_lazy`      | `[0, q)`           | `[0, q)` (internal stages `[0, 2q)`) |
//! | IFMA `ntt_*_lazy`, `q < 2⁵⁰` | `[0, q)`  | `[0, q)` (internal stages as above; `4q < 2⁵²`, so every multiplier input fits 52 bits) |
//! | `ks_accum`, `ks_accum_pair` | digits, Montgomery-form keys `[0, q)` | `[0, q)` (128-bit register sums `< q·2⁶⁴` per digit chunk, one REDC each) |
//! | IFMA `ks_accum*`, `q < 2⁵⁰` | as above | `[0, q)` (52-bit lane sums over at most [`KS52_CHUNK`] `= 15` digits: `lo < 15·2⁵²`, `hi < 15·2⁴⁸`; two Shoup products fold them) |
//! | `mac_wide`          | operands `[0, q)`  | lanes `hi·2⁶⁴ + lo`, unreduced; caller keeps them `< q·2⁶⁴` |
//! | IFMA `mac_wide`, `q ∈ [2¹², 2⁵⁰)` | operands `[0, q)` | lanes `hi·2⁵² + lo`, unreduced; `lo < 4095·2⁵²` |
//! | `fold_wide`         | lanes its own class's `mac_wide` wrote, at most [`wide_fold_bound`] terms | `[0, q)` in `lo`, `hi` zeroed |
//! | everything else     | `[0, q)`           | `[0, q)`     |
//!
//! A transform that fully reduces its output is an exact linear map mod
//! `q`, so every class returns the same words even where their lazy
//! intermediates differ by a multiple of `q`.
//!
//! The wide lanes are safe at any term count as long as the caller folds
//! in time ([`wide_fold_bound`]): a lane summing `T` products of residues
//! holds at most `T·(q−1)²`, a folded residue (`≤ q−1`) counts as one
//! product, and `T ≤ ⌊(2⁶⁴−2)/q⌋` gives `T·(q−1)² < (2⁶⁴−2)·q < q·2⁶⁴`,
//! which is exactly what `Barrett::reduce_u128` needs (and keeps `hi`
//! below `q < 2⁶²`, so the carry into it cannot overflow). Moduli are
//! `< 2⁶²`, so the bound is at least 4. The IFMA class keeps the lanes of
//! a prime in `[2¹², 2⁵⁰)` as `hi·2⁵² + lo` instead, each product's two
//! 52-bit halves added natively: `lo` gains less than 2⁵² a term, so the
//! bound is also capped at 4095 terms (`lo < 2⁶⁴`). Its fold reduces `hi +
//! (lo >> 52)` by Barrett, multiplies by `2⁵² mod q` (Shoup), adds `lo`'s
//! low 52 bits and reduces again. `mac_wide` and `fold_wide` branch on the
//! same predicate, so a lane is always read in the format it was written.
//!
//! The fused key-switch accumulator is safe at any digit count by the same
//! bound: it sums at most [`wide_fold_bound`] digits per coefficient in a
//! `u128` register and hands the sum (`< q·2⁶⁴`) to one Montgomery REDC,
//! which needs exactly that. Its keys are stored times `2⁶⁴ mod q`
//! ([`montgomery_radix`], applied by [`to_montgomery`]), so the
//! REDC's `2⁻⁶⁴` cancels and the result is the canonical `Σ d·k mod q`.
//! The IFMA body (`q < 2⁵⁰`) sums the low and high 52-bit halves of at
//! most [`KS52_CHUNK`] products per lane; with `H = hi + (lo >> 52) < 2⁵²`
//! and `L = lo mod 2⁵²`, `Σ d·k̃·2⁻⁶⁴ ≡ H·2⁻¹² + L·2⁻⁶⁴ (mod q)`: two lazy
//! Shoup products by those constants and conditional subtracts give the
//! residue the REDC gives. [`Kernels::ks_accum_pair`] accumulates both key
//! halves in one call and may read digit coefficient `perm[i]` for output
//! `i` through a Galois [`Permutation`], so a hoisted rotation needs no
//! permuted copy of its digits. The IFMA body loads (or gathers) each
//! digit coefficient once for both halves; the scalar body sweeps once per
//! half, re-reading the digits from L1, because both halves' `u128` sums
//! do not fit the registers.

use crate::modular::{mul_mod_shoup, mul_mod_shoup_lazy, Barrett};
use std::sync::OnceLock;

/// Primes below this bound run the IFMA class's 52-bit bodies: the lazy
/// NTT range `[0, 4q)` must fit the multiplier's 52-bit inputs.
pub const IFMA_Q_BOUND: u64 = 1 << 50;

/// Digits the IFMA key-switch body sums per 52-bit lane before it folds:
/// products of residues below 2⁵⁰ have a high half below 2⁴⁸, so 15 of
/// them keep `hi + (lo >> 52) < 15·2⁴⁸ + 15 < 2⁵²`, the Shoup product's
/// input bound.
pub const KS52_CHUNK: usize = 15;

/// A permutation of `0..n` as `u32` indices, checked once, on
/// construction, to be a bijection with `n ≤ 2³¹`: every index is below
/// the length `n` and fits a signed 32-bit gather offset. The key-switch
/// kernels read `src[perm[i]]` from any `n`-word slice on that invariant
/// alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation(Box<[u32]>);

impl Permutation {
    /// Wraps `indices`. Panics unless they are a bijection on
    /// `0..indices.len()` and that length is at most 2³¹.
    pub fn new(indices: Vec<u32>) -> Self {
        let n = indices.len();
        assert!(n <= 1 << 31, "a permutation indexes at most 2³¹ words");
        let mut seen = vec![false; n];
        for &i in &indices {
            let i = i as usize;
            assert!(i < n && !seen[i], "not a permutation of 0..{n}");
            seen[i] = true;
        }
        Self(indices.into_boxed_slice())
    }
}

impl std::ops::Deref for Permutation {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.0
    }
}

/// The 52-bit Shoup twin `⌊w·2⁵²/q⌋` of a constant `w < q`, the form the
/// IFMA class multiplies with (the 64-bit pair is
/// [`crate::modular::shoup_precompute`]).
pub fn shoup52(w: u64, q: u64) -> u64 {
    debug_assert!(w < q);
    (((w as u128) << 52) / q as u128) as u64
}

/// One direction's NTT twiddles in the order the butterflies read them,
/// with their Shoup pairs: `shoup[i] = ⌊w[i]·2⁶⁴/q⌋` and, for `q <
/// IFMA_Q_BOUND` only, `shoup52[i] = ⌊w[i]·2⁵²/q⌋` (empty otherwise).
#[derive(Clone, Copy, Debug)]
pub struct Twiddles<'a> {
    pub w: &'a [u64],
    pub shoup: &'a [u64],
    pub shoup52: &'a [u64],
}

/// Constants for the folded final stage of the inverse NTT: the plain N⁻¹
/// scaling and N⁻¹ pre-multiplied into the last-stage twiddle
/// (`s_n_inv = ψ⁻¹_brv[1]·N⁻¹ mod q`), each with its 64-bit Shoup pair and
/// its 52-bit twin (0 when `q ≥ IFMA_Q_BOUND`).
#[derive(Clone, Copy, Debug)]
pub struct InvScale {
    pub n_inv: u64,
    pub n_inv_shoup: u64,
    pub n_inv_shoup52: u64,
    pub s_n_inv: u64,
    pub s_n_inv_shoup: u64,
    pub s_n_inv_shoup52: u64,
}

/// One dispatch class: a full table of kernel entry points. All variants
/// are bit-identical for in-range inputs; only the instruction mix differs.
pub struct Kernels {
    /// Dispatch-class label surfaced in telemetry and bench artifacts.
    pub name: &'static str,
    /// Whole-transform lazy forward NTT, final full-reduction sweep folded
    /// into the last butterfly stage. `(a, ψ_brv twiddles, q)`.
    pub ntt_fwd_lazy: fn(&mut [u64], Twiddles, u64),
    /// Whole-transform lazy inverse NTT, N⁻¹ scaling folded into the last
    /// stage. `(a, ψ⁻¹_brv twiddles, scale, q)`.
    pub ntt_inv_lazy: fn(&mut [u64], Twiddles, InvScale, u64),
    /// `a[i] = (a[i] + b[i]) mod q`
    pub add_assign: fn(&mut [u64], &[u64], u64),
    /// `a[i] = (a[i] - b[i]) mod q`
    pub sub_assign: fn(&mut [u64], &[u64], u64),
    /// `a[i] = (-a[i]) mod q`
    pub neg_assign: fn(&mut [u64], u64),
    /// `dst[i] = a[i]·b[i] mod q` (Barrett; both operands variable)
    pub mul_pointwise: fn(&mut [u64], &[u64], &[u64], u64),
    /// `dst[i] = (dst[i] + a[i]·b[i]) mod q`
    pub add_mul: fn(&mut [u64], &[u64], &[u64], u64),
    /// `a[i] = a[i]·s mod q` with `s_shoup` precomputed
    pub scalar_mul_assign: fn(&mut [u64], u64, u64, u64),
    /// `a[i] = (a[i] - b[i])·s mod q` (the rescale fold) with Shoup `s`
    pub sub_mul_assign: fn(&mut [u64], &[u64], u64, u64, u64),
    /// Fast RNS base conversion into one target modulus: `dst[i] = Σ_k
    /// c_k(src[k][i])·hat[k] mod q`, where `c_k(v) = v`, or, when
    /// `centered`, `v − src_q[k]` for `v > src_q[k]/2`. With `src[k]` the
    /// residues `x_k·(S/s_k)⁻¹ mod s_k` of a value `x` mod `S = Π s_k` and
    /// `hat[k] = S/s_k mod q`, `dst` is `x + u·S mod q` for a small
    /// integer `u` (`0 ≤ u < m` plain, `|u| ≤ m/2` centered): the ModUp of
    /// a key-switch digit, and the lift of the dropped limbs of a ModDown
    /// or a rescale (one source, centred: the exact rounding).
    /// `(dst, src, src_q, hat, centered, q)`; `src[k]` in `[0, src_q[k])`,
    /// `hat[k] < q`.
    pub base_conv: BaseConvFn,
    /// Fused key-switch inner product over Montgomery-form keys
    /// (`k̃ = k·2⁶⁴ mod q`, [`to_montgomery`]): `dst[i] = (dst[i] + Σ_d
    /// digits[d][i]·k[d][i]) mod q`. `(dst, digits, keys, key_shoups, q)`;
    /// `dst`, digits and keys must be in `[0, q)`; `key_shoups` is not
    /// read. The one-half, unpermuted entry into [`Self::ks_accum_pair`]'s
    /// body.
    pub ks_accum: KsAccumFn,
    /// Both halves of a key switch in one call: `dst_b[i] += Σ_d
    /// d[d][σ(i)]·kb[d][i]` and `dst_a[i] += Σ_d d[d][σ(i)]·ka[d][i]` mod
    /// `q`, where `σ(i) = perm[i]` or `i` when `perm` is `None`. The sums are held
    /// in 128-bit registers and reduced once per [`wide_fold_bound`] digits
    /// by a Montgomery REDC, or on the IFMA class (`q < 2⁵⁰`) in 52-bit
    /// halves folded once per [`KS52_CHUNK`] digits.
    /// `(dst_b, dst_a, digits, keys_b, keys_a, perm, q)`.
    pub ks_accum_pair: KsPairFn,
    /// Lazy multiply-accumulate into wide lanes: `lanes[i] += a[i]·b[i]`
    /// with no reduction. `(lo, hi, a, b, q)`; at most [`wide_fold_bound`]
    /// products may be summed between two folds. The lane format is the
    /// class's own (`hi·2⁶⁴ + lo`, or `hi·2⁵² + lo` on the IFMA class for
    /// `q ∈ [2¹², 2⁵⁰)`): only the same class's `fold_wide` reads it.
    pub mac_wide: MacWideFn,
    /// Folds the lanes in place: `lo[i] = lanes[i] mod q`, `hi[i] = 0`.
    /// `(lo, hi, q)`; the lanes must hold at most [`wide_fold_bound`]
    /// terms.
    pub fold_wide: fn(&mut [u64], &mut [u64], u64),
}

/// Signature of the lazy wide multiply-accumulate: `(lo, hi, a, b, q)`.
pub type MacWideFn = fn(&mut [u64], &mut [u64], &[u64], &[u64], u64);

/// Terms a lane of the IFMA class's 52-bit wide format may hold: each adds
/// less than 2⁵² to `lo`, which must stay below 2⁶⁴.
const WIDE52_TERMS: u64 = 4095;

/// How many products of residues mod `q` (a folded lane counts as one) a
/// `mac_wide` lane may sum before `fold_wide` must run — see the
/// lazy-form invariants in the module docs.
pub fn wide_fold_bound(q: u64) -> u64 {
    ((u64::MAX - 1) / q).min(WIDE52_TERMS)
}

/// Signature of the fused key-switch accumulation kernel:
/// `(dst, digits, keys, key_shoups, q)`. `key_shoups` is unread and may be
/// empty; the argument stays because the `perf/` name pin calls the kernel
/// with five arguments (ROADMAP item 7(b)).
pub type KsAccumFn = fn(&mut [u64], &[&[u64]], &[&[u64]], &[&[u64]], u64);

/// Signature of the base conversion:
/// `(dst, src, src_q, hat, centered, q)`.
pub type BaseConvFn = fn(&mut [u64], &[&[u64]], &[u64], &[u64], bool, u64);

/// Signature of the two-half key-switch pass:
/// `(dst_b, dst_a, digits, keys_b, keys_a, perm, q)`.
pub type KsPairFn =
    fn(&mut [u64], &mut [u64], &[&[u64]], &[&[u64]], &[&[u64]], Option<&Permutation>, u64);

/// The portable scalar table (4-wide unrolled loops; NEON-friendly shapes
/// that LLVM auto-vectorizes on aarch64).
pub fn scalar() -> &'static Kernels {
    &SCALAR
}

/// The AVX2 table, or `None` when the CPU (or target) lacks AVX2. The
/// returned table is safe to call: availability has been verified here.
pub fn avx2() -> Option<&'static Kernels> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(&avx2_impl::AVX2);
        }
    }
    None
}

/// The AVX-512 IFMA table, or `None` when the CPU (or target) lacks any of
/// `avx512f`, `avx512vl`, `avx512ifma` (or AVX2, whose bodies it runs for
/// primes at or above [`IFMA_Q_BOUND`]). The returned table is safe to
/// call: availability has been verified here.
pub fn ifma() -> Option<&'static Kernels> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512ifma")
        {
            return Some(&ifma_impl::IFMA);
        }
    }
    None
}

/// Every dispatch class available on this host, slowest first, for
/// equivalence tests and simd-vs-scalar benches.
pub fn variants() -> Vec<&'static Kernels> {
    [Some(scalar()), avx2(), ifma()]
        .into_iter()
        .flatten()
        .collect()
}

/// The process-wide kernel table, chosen once from `ORION_SIMD` + CPU
/// detection and cached (fn-pointer table behind a `OnceLock`, mirroring
/// the thread pool's width env read).
pub fn kernels() -> &'static Kernels {
    static CHOSEN: OnceLock<&'static Kernels> = OnceLock::new();
    CHOSEN.get_or_init(|| {
        let k = match std::env::var("ORION_SIMD").as_deref() {
            Ok("off") => scalar(),
            Ok("force") => {
                if cfg!(target_arch = "x86_64") {
                    ifma().or_else(avx2).expect(
                        "ORION_SIMD=force: this x86-64 CPU does not support AVX2; \
                         unset ORION_SIMD or set ORION_SIMD=off",
                    )
                } else {
                    // Off x86-64 the unrolled scalar path is the
                    // accelerated path; force is satisfied trivially.
                    scalar()
                }
            }
            _ => ifma().or_else(avx2).unwrap_or_else(scalar),
        };
        orion_telemetry::set_kernel_dispatch(k.name);
        k
    })
}

/// Label of the process-wide dispatch class (`"avx512ifma"`, `"avx2"` or
/// `"scalar"`).
pub fn dispatch_name() -> &'static str {
    kernels().name
}

static SCALAR: Kernels = Kernels {
    name: "scalar",
    ntt_fwd_lazy: scalar_impl::ntt_fwd_lazy,
    ntt_inv_lazy: scalar_impl::ntt_inv_lazy,
    add_assign: scalar_impl::add_assign,
    sub_assign: scalar_impl::sub_assign,
    neg_assign: scalar_impl::neg_assign,
    mul_pointwise: scalar_impl::mul_pointwise,
    add_mul: scalar_impl::add_mul,
    scalar_mul_assign: scalar_impl::scalar_mul_assign,
    sub_mul_assign: scalar_impl::sub_mul_assign,
    base_conv: scalar_impl::base_conv,
    ks_accum: scalar_impl::ks_accum,
    ks_accum_pair: scalar_impl::ks_accum_pair,
    mac_wide: scalar_impl::mac_wide,
    fold_wide: scalar_impl::fold_wide,
};

/// Reduces a lazy value in `[0, 4q)` to `[0, q)`.
#[inline(always)]
fn reduce4(mut x: u64, q: u64, two_q: u64) -> u64 {
    if x >= two_q {
        x -= two_q;
    }
    if x >= q {
        x -= q;
    }
    x
}

/// `q⁻¹ mod 2⁶⁴` for odd `q`, by Newton iteration (each step doubles the
/// correct low bits; `q·q ≡ 1 mod 8` seeds three).
fn inv_mod_2_64(q: u64) -> u64 {
    debug_assert!(q & 1 == 1);
    let mut inv = q;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(inv)));
    }
    inv
}

/// `2⁶⁴ mod q`: the Montgomery radix. A key limb `x` is stored as
/// `x·montgomery_radix(q) mod q` ([`to_montgomery`]), the form
/// [`Kernels::ks_accum`] reads; multiplying by its inverse mod `q` reads
/// the plain residue back.
pub fn montgomery_radix(q: u64) -> u64 {
    ((1u128 << 64) % q as u128) as u64
}

/// Puts a limb of residues mod `q` into Montgomery form in place:
/// `a[i] = a[i]·2⁶⁴ mod q`, one Shoup scalar multiply per coefficient.
pub fn to_montgomery(a: &mut [u64], q: u64) {
    let r = montgomery_radix(q);
    (kernels().scalar_mul_assign)(a, r, crate::modular::shoup_precompute(r, q), q);
}

/// Montgomery reduction: `x·2⁻⁶⁴ mod q` in `[0, q)` for `x < q·2⁶⁴`, in
/// two multiplies. With `m = x·q⁻¹ mod 2⁶⁴`, `m·q` agrees with `x` in the
/// low word, so `(x − m·q)/2⁶⁴` is the difference of the high words; both
/// terms are below `q·2⁶⁴`, so it lies in `(−q, q)`: one conditional add.
#[inline(always)]
fn redc(x: u128, q: u64, q_inv: u64) -> u64 {
    let m = (x as u64).wrapping_mul(q_inv);
    let mq_hi = ((m as u128 * q as u128) >> 64) as u64;
    let (t, borrow) = ((x >> 64) as u64).overflowing_sub(mq_hi);
    if borrow {
        t.wrapping_add(q)
    } else {
        t
    }
}

/// Checks the operand shapes of a base conversion into an `n`-word `dst`:
/// at least one source, every source `n` words, one modulus and one
/// factor per source.
fn base_conv_shape(n: usize, src: &[&[u64]], src_q: &[u64], hat: &[u64]) {
    assert!(!src.is_empty(), "base conversion from no limb");
    assert!(src.len() == src_q.len() && src.len() == hat.len());
    assert!(src.iter().all(|s| s.len() == n), "limb length mismatch");
}

/// Checks the operand shapes of a key-switch pass over the key halves
/// `keys` into accumulators of lengths `dst` and returns the limb length
/// `n`: every accumulator, digit and key slice is `n` words, each half has
/// one key per digit, and a permutation permutes `0..n` — so any `perm[i]`
/// indexes every digit.
fn ks_shape(
    dst: &[usize],
    digits: &[&[u64]],
    keys: &[&[&[u64]]],
    perm: Option<&Permutation>,
) -> usize {
    let n = dst[0];
    assert!(dst.iter().all(|&len| len == n));
    for k in keys {
        assert_eq!(k.len(), digits.len(), "one key per digit");
    }
    for s in digits.iter().chain(keys.iter().flat_map(|k| k.iter())) {
        assert_eq!(s.len(), n);
    }
    if let Some(p) = perm {
        assert_eq!(p.len(), n, "the permutation permutes the limb");
    }
    n
}

mod scalar_impl {
    use super::*;

    /// Runs `f` over both slices in lockstep, 4 elements at a time with a
    /// scalar tail — the unroll shape NEON/auto-vectorizers like.
    #[inline(always)]
    fn zip4(a: &mut [u64], b: &[u64], mut f: impl FnMut(&mut u64, u64)) {
        debug_assert_eq!(a.len(), b.len());
        let mut ac = a.chunks_exact_mut(4);
        let mut bc = b.chunks_exact(4);
        for (a4, b4) in (&mut ac).zip(&mut bc) {
            for k in 0..4 {
                f(&mut a4[k], b4[k]);
            }
        }
        for (x, &y) in ac.into_remainder().iter_mut().zip(bc.remainder()) {
            f(x, y);
        }
    }

    pub(super) fn add_assign(a: &mut [u64], b: &[u64], q: u64) {
        zip4(a, b, |x, y| {
            let s = *x + y;
            *x = if s >= q { s - q } else { s };
        });
    }

    pub(super) fn sub_assign(a: &mut [u64], b: &[u64], q: u64) {
        zip4(a, b, |x, y| {
            *x = if *x >= y { *x - y } else { *x + q - y };
        });
    }

    pub(super) fn neg_assign(a: &mut [u64], q: u64) {
        for x in a.iter_mut() {
            *x = if *x == 0 { 0 } else { q - *x };
        }
    }

    pub(super) fn mul_pointwise(dst: &mut [u64], a: &[u64], b: &[u64], q: u64) {
        debug_assert!(dst.len() == a.len() && a.len() == b.len());
        let br = Barrett::new(q);
        let mut dc = dst.chunks_exact_mut(4);
        let mut ac = a.chunks_exact(4);
        let mut bc = b.chunks_exact(4);
        for ((d4, a4), b4) in (&mut dc).zip(&mut ac).zip(&mut bc) {
            for k in 0..4 {
                d4[k] = br.mul_mod(a4[k], b4[k]);
            }
        }
        for ((d, &x), &y) in dc
            .into_remainder()
            .iter_mut()
            .zip(ac.remainder())
            .zip(bc.remainder())
        {
            *d = br.mul_mod(x, y);
        }
    }

    pub(super) fn add_mul(dst: &mut [u64], a: &[u64], b: &[u64], q: u64) {
        debug_assert!(dst.len() == a.len() && a.len() == b.len());
        let br = Barrett::new(q);
        let mut dc = dst.chunks_exact_mut(4);
        let mut ac = a.chunks_exact(4);
        let mut bc = b.chunks_exact(4);
        for ((d4, a4), b4) in (&mut dc).zip(&mut ac).zip(&mut bc) {
            for k in 0..4 {
                let s = d4[k] + br.mul_mod(a4[k], b4[k]);
                d4[k] = if s >= q { s - q } else { s };
            }
        }
        for ((d, &x), &y) in dc
            .into_remainder()
            .iter_mut()
            .zip(ac.remainder())
            .zip(bc.remainder())
        {
            let s = *d + br.mul_mod(x, y);
            *d = if s >= q { s - q } else { s };
        }
    }

    pub(super) fn scalar_mul_assign(a: &mut [u64], s: u64, s_sh: u64, q: u64) {
        for x in a.iter_mut() {
            *x = mul_mod_shoup(*x, s, s_sh, q);
        }
    }

    pub(super) fn sub_mul_assign(a: &mut [u64], b: &[u64], s: u64, s_sh: u64, q: u64) {
        zip4(a, b, |x, y| {
            let d = if *x >= y { *x - y } else { *x + q - y };
            *x = mul_mod_shoup(d, s, s_sh, q);
        });
    }

    pub(super) fn base_conv(
        dst: &mut [u64],
        src: &[&[u64]],
        src_q: &[u64],
        hat: &[u64],
        centered: bool,
        q: u64,
    ) {
        base_conv_shape(dst.len(), src, src_q, hat);
        for (k, ((s, &sq), &h)) in src.iter().zip(src_q).zip(hat).enumerate() {
            let h_sh = crate::modular::shoup_precompute(h, q);
            // c(v)·h ≡ v·h − [v > sq/2]·(sq·h) (mod q)
            let half = if centered { sq >> 1 } else { u64::MAX };
            let delta = crate::modular::mul_mod(sq % q, h, q);
            for (d, &v) in dst.iter_mut().zip(*s) {
                let mut t = mul_mod_shoup(v, h, h_sh, q);
                if v > half {
                    t = if t >= delta { t - delta } else { t + q - delta };
                }
                *d = match k {
                    0 => t,
                    _ => crate::modular::add_mod(*d, t, q),
                };
            }
        }
    }

    pub(super) fn ks_accum(
        dst: &mut [u64],
        digits: &[&[u64]],
        keys: &[&[u64]],
        _key_shoups: &[&[u64]],
        q: u64,
    ) {
        ks_shape(&[dst.len()], digits, &[keys], None);
        ks_half(dst, digits, keys, None, q);
    }

    /// One sweep per half: the four `u128` sums of a half's block fit the
    /// registers, both halves' eight spill, and re-reading a digit limb
    /// from L1 costs less than that (a fused body measured 10–20 % slower
    /// at N = 2¹²).
    pub(super) fn ks_accum_pair(
        dst_b: &mut [u64],
        dst_a: &mut [u64],
        digits: &[&[u64]],
        keys_b: &[&[u64]],
        keys_a: &[&[u64]],
        perm: Option<&Permutation>,
        q: u64,
    ) {
        ks_shape(&[dst_b.len(), dst_a.len()], digits, &[keys_b, keys_a], perm);
        ks_half(dst_b, digits, keys_b, perm, q);
        ks_half(dst_a, digits, keys_a, perm, q);
    }

    /// The key-switch body of this class for one key half, reading the
    /// digits straight or through `perm`; the caller has checked the
    /// shapes.
    fn ks_half(
        dst: &mut [u64],
        digits: &[&[u64]],
        keys: &[&[u64]],
        perm: Option<&Permutation>,
        q: u64,
    ) {
        match perm {
            None => ks_chunks(dst, digits, keys, q, |d, at, out| {
                out.copy_from_slice(&d[at..at + out.len()])
            }),
            Some(p) => ks_chunks(dst, digits, keys, q, |d, at, out| {
                let p = &p[at..at + out.len()];
                for (o, &j) in out.iter_mut().zip(p) {
                    *o = d[j as usize];
                }
            }),
        }
    }

    /// [`ks_half`] with `src(d, at, out)` reading coefficients `at..` of
    /// digit `d` into `out`: digit chunks of at most `wide_fold_bound(q)`
    /// products of residues sum below `q·2⁶⁴`, what one REDC accepts.
    #[inline(always)]
    fn ks_chunks(
        dst: &mut [u64],
        digits: &[&[u64]],
        keys: &[&[u64]],
        q: u64,
        src: impl Fn(&[u64], usize, &mut [u64]) + Copy,
    ) {
        let n = dst.len();
        let q_inv = inv_mod_2_64(q);
        let bound = wide_fold_bound(q) as usize;
        let tail = n / 4 * 4;
        for (ds, ks) in digits.chunks(bound).zip(keys.chunks(bound)) {
            for at in (0..tail).step_by(4) {
                ks_block::<4>(dst, at, ds, ks, src, q, q_inv);
            }
            for at in tail..n {
                ks_block::<1>(dst, at, ds, ks, src, q, q_inv);
            }
        }
    }

    /// One `W`-coefficient block of [`ks_chunks`] over one digit chunk: the
    /// sums live in `u128` registers, one REDC per coefficient maps `Σ
    /// d·k·2⁶⁴` back to `Σ d·k`, added into `dst` mod `q`.
    #[inline(always)]
    fn ks_block<const W: usize>(
        dst: &mut [u64],
        at: usize,
        ds: &[&[u64]],
        ks: &[&[u64]],
        src: impl Fn(&[u64], usize, &mut [u64]),
        q: u64,
        q_inv: u64,
    ) {
        let dst = &mut dst[at..at + W];
        let mut acc = [0u128; W];
        let mut d = [0u64; W];
        for (digit, k) in ds.iter().zip(ks) {
            src(digit, at, &mut d);
            let k = &k[at..at + W];
            for t in 0..W {
                debug_assert!(d[t] < q && k[t] < q, "ks_accum operands must be < q");
                acc[t] += d[t] as u128 * k[t] as u128;
            }
        }
        for t in 0..W {
            let s = dst[t] + redc(acc[t], q, q_inv);
            dst[t] = if s >= q { s - q } else { s };
        }
    }

    pub(super) fn mac_wide(lo: &mut [u64], hi: &mut [u64], a: &[u64], b: &[u64], _q: u64) {
        debug_assert!(lo.len() == hi.len() && lo.len() == a.len() && a.len() == b.len());
        for (((l, h), &x), &y) in lo.iter_mut().zip(hi.iter_mut()).zip(a).zip(b) {
            let p = x as u128 * y as u128;
            let (s, carry) = l.overflowing_add(p as u64);
            *l = s;
            *h += (p >> 64) as u64 + carry as u64;
        }
    }

    pub(super) fn fold_wide(lo: &mut [u64], hi: &mut [u64], q: u64) {
        debug_assert_eq!(lo.len(), hi.len());
        let br = Barrett::new(q);
        for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
            debug_assert!(*h < q, "wide lane exceeds q·2⁶⁴: fold bound missed");
            *l = br.reduce_u128((*h as u128) << 64 | *l as u128);
            *h = 0;
        }
    }

    /// Lazy forward butterfly over a split block: `u ∈ [0,4q) → [0,2q)`,
    /// lazy product of `v`, outputs `< 4q`.
    #[inline(always)]
    fn fwd_span(us: &mut [u64], vs: &mut [u64], s: u64, s_sh: u64, q: u64, two_q: u64) {
        let mut uc = us.chunks_exact_mut(4);
        let mut vc = vs.chunks_exact_mut(4);
        for (u4, v4) in (&mut uc).zip(&mut vc) {
            for k in 0..4 {
                let mut u = u4[k];
                if u >= two_q {
                    u -= two_q;
                }
                let v = mul_mod_shoup_lazy(v4[k], s, s_sh, q);
                u4[k] = u + v;
                v4[k] = u + two_q - v;
            }
        }
        for (up, vp) in uc.into_remainder().iter_mut().zip(vc.into_remainder()) {
            let mut u = *up;
            if u >= two_q {
                u -= two_q;
            }
            let v = mul_mod_shoup_lazy(*vp, s, s_sh, q);
            *up = u + v;
            *vp = u + two_q - v;
        }
    }

    pub(super) fn ntt_fwd_lazy(a: &mut [u64], tw: Twiddles, q: u64) {
        let (psi, psi_sh) = (tw.w, tw.shoup);
        let n = a.len();
        debug_assert!(n.is_power_of_two() && n >= 2);
        debug_assert_eq!(psi.len(), n);
        let two_q = 2 * q;
        let mut t = n;
        let mut m = 1;
        // All stages except the last keep outputs lazy in [0, 4q). The
        // per-stage twiddle/shoup pairs are hoisted into subslices so the
        // inner loop carries no table indexing.
        while m < n / 2 {
            t >>= 1;
            let tw = &psi[m..2 * m];
            let tw_sh = &psi_sh[m..2 * m];
            for i in 0..m {
                let j1 = 2 * i * t;
                let (us, vs) = a[j1..j1 + 2 * t].split_at_mut(t);
                fwd_span(us, vs, tw[i], tw_sh[i], q, two_q);
            }
            m <<= 1;
        }
        // Last stage (t == 1): fold the full-reduction sweep into the
        // butterfly instead of a separate pass over the limb.
        let m = n / 2;
        let tw = &psi[m..2 * m];
        let tw_sh = &psi_sh[m..2 * m];
        for (i, pair) in a.chunks_exact_mut(2).enumerate() {
            let mut u = pair[0];
            if u >= two_q {
                u -= two_q;
            }
            let v = mul_mod_shoup_lazy(pair[1], tw[i], tw_sh[i], q);
            pair[0] = reduce4(u + v, q, two_q);
            pair[1] = reduce4(u + two_q - v, q, two_q);
        }
    }

    /// Lazy inverse butterfly over a split block: `u, v ∈ [0,2q)`, outputs
    /// stay in `[0,2q)`.
    #[inline(always)]
    fn inv_span(us: &mut [u64], vs: &mut [u64], s: u64, s_sh: u64, q: u64, two_q: u64) {
        let mut uc = us.chunks_exact_mut(4);
        let mut vc = vs.chunks_exact_mut(4);
        for (u4, v4) in (&mut uc).zip(&mut vc) {
            for k in 0..4 {
                let (u, v) = (u4[k], v4[k]);
                let mut s0 = u + v;
                if s0 >= two_q {
                    s0 -= two_q;
                }
                u4[k] = s0;
                v4[k] = mul_mod_shoup_lazy(u + two_q - v, s, s_sh, q);
            }
        }
        for (up, vp) in uc.into_remainder().iter_mut().zip(vc.into_remainder()) {
            let (u, v) = (*up, *vp);
            let mut s0 = u + v;
            if s0 >= two_q {
                s0 -= two_q;
            }
            *up = s0;
            *vp = mul_mod_shoup_lazy(u + two_q - v, s, s_sh, q);
        }
    }

    pub(super) fn ntt_inv_lazy(a: &mut [u64], tw: Twiddles, sc: InvScale, q: u64) {
        let (ipsi, ipsi_sh) = (tw.w, tw.shoup);
        let n = a.len();
        debug_assert!(n.is_power_of_two() && n >= 2);
        debug_assert_eq!(ipsi.len(), n);
        let two_q = 2 * q;
        let mut t = 1;
        let mut m = n;
        while m > 2 {
            let h = m >> 1;
            let tw = &ipsi[h..2 * h];
            let tw_sh = &ipsi_sh[h..2 * h];
            let mut j1 = 0;
            for i in 0..h {
                let (us, vs) = a[j1..j1 + 2 * t].split_at_mut(t);
                inv_span(us, vs, tw[i], tw_sh[i], q, two_q);
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        // Last stage (m == 2, single twiddle ψ⁻¹_brv[1]): fold the N⁻¹
        // scaling in. The strict Shoup product accepts any u64 input (the
        // lazy sums here are < 4q) and fully reduces, so this is
        // bit-identical to butterfly-then-scale.
        let t = n / 2;
        let (us, vs) = a.split_at_mut(t);
        for (up, vp) in us.iter_mut().zip(vs.iter_mut()) {
            let (u, v) = (*up, *vp);
            *up = mul_mod_shoup(u + v, sc.n_inv, sc.n_inv_shoup, q);
            *vp = mul_mod_shoup(u + two_q - v, sc.s_n_inv, sc.s_n_inv_shoup, q);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2_impl {
    use super::*;
    use core::arch::x86_64::*;

    pub(super) static AVX2: Kernels = Kernels {
        name: "avx2",
        ntt_fwd_lazy,
        ntt_inv_lazy,
        add_assign,
        sub_assign,
        neg_assign,
        // The pure-Barrett elementwise kernels deliberately reuse the
        // scalar bodies: their 4-wide chunked loops auto-vectorize, and a
        // hand-written schoolbook 64×64 emulation (7 32-bit multiplies per
        // lane) measures slower than what LLVM emits for them. Handwritten
        // AVX2 stays where the compiler cannot vectorize — the butterfly
        // shuffle structure. `add_mul` has no program caller (the MAC stage
        // runs on `mac_wide`); only a benchmark probe and the strict test
        // references call it.
        mul_pointwise: super::scalar_impl::mul_pointwise,
        add_mul: super::scalar_impl::add_mul,
        scalar_mul_assign,
        sub_mul_assign,
        base_conv: super::scalar_impl::base_conv,
        // AVX2 has no 64×64→128 multiply: the scalar `mul`/`add`/`adc`
        // bodies are the fast path here — for the key-switch inner product
        // too, whose register-resident 128-bit sums read 16 B per
        // digit·coefficient where a lazy Shoup lane needs the key's Shoup
        // twin as well (24 B).
        ks_accum: super::scalar_impl::ks_accum,
        ks_accum_pair: super::scalar_impl::ks_accum_pair,
        mac_wide: super::scalar_impl::mac_wide,
        fold_wide: super::scalar_impl::fold_wide,
    };

    /// Sign-bit constant for unsigned 64-bit comparison via signed compare.
    #[inline(always)]
    unsafe fn sign_bit() -> __m256i {
        // SAFETY: register-only broadcast, no memory access; the caller
        // guarantees AVX2 (all helpers in this module are reached only
        // through kernels gated on `is_x86_feature_detected!("avx2")`).
        unsafe { _mm256_set1_epi64x(i64::MIN) }
    }

    /// Lane-wise `a - m` where `a >= m`, else `a` (unsigned conditional
    /// subtract; compare is signed-with-bias).
    #[inline(always)]
    unsafe fn csub(a: __m256i, m: __m256i, sign: __m256i) -> __m256i {
        // SAFETY: pure lane arithmetic on register values (no memory
        // access); caller guarantees AVX2. The signed-with-bias compare is
        // exact for any u64 lanes, so the conditional subtract keeps the
        // advertised `[0, m)` range whenever `a < 2m`.
        unsafe {
            let lt = _mm256_cmpgt_epi64(_mm256_xor_si256(m, sign), _mm256_xor_si256(a, sign));
            _mm256_sub_epi64(a, _mm256_andnot_si256(lt, m))
        }
    }

    /// Low 64 bits of the lane-wise 64×64 product (AVX2 has no native
    /// 64-bit multiply; three 32×32 products assemble it).
    #[inline(always)]
    unsafe fn mullo64(a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: pure lane arithmetic on register values; caller
        // guarantees AVX2. Wrapping adds are the intended semantics — only
        // the low 64 bits of the product are kept.
        unsafe {
            let a_hi = _mm256_srli_epi64(a, 32);
            let b_hi = _mm256_srli_epi64(b, 32);
            let lo = _mm256_mul_epu32(a, b);
            let mid = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
            _mm256_add_epi64(lo, _mm256_slli_epi64(mid, 32))
        }
    }

    /// High 64 bits of the lane-wise 64×64 product (four 32×32 schoolbook
    /// partials with exact carry assembly; no partial sum overflows u64).
    #[inline(always)]
    unsafe fn mulhi64(a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: pure lane arithmetic on register values; caller
        // guarantees AVX2. Each 32×32 partial is ≤ (2³²−1)², so none of
        // the carry-assembly sums can overflow a u64 lane.
        unsafe {
            let a_hi = _mm256_srli_epi64(a, 32);
            let b_hi = _mm256_srli_epi64(b, 32);
            let mask = _mm256_set1_epi64x(0xffff_ffff);
            let ll = _mm256_mul_epu32(a, b);
            let lh = _mm256_mul_epu32(a, b_hi);
            let hl = _mm256_mul_epu32(a_hi, b);
            let hh = _mm256_mul_epu32(a_hi, b_hi);
            let t = _mm256_add_epi64(lh, _mm256_srli_epi64(ll, 32));
            let u = _mm256_add_epi64(hl, _mm256_and_si256(t, mask));
            _mm256_add_epi64(
                hh,
                _mm256_add_epi64(_mm256_srli_epi64(t, 32), _mm256_srli_epi64(u, 32)),
            )
        }
    }

    /// Lazy Shoup product: congruent to `a·b mod q`, in `[0, 2q)`; `a` may
    /// be any u64, `(b, b_sh)` are the fixed operand and its Shoup pair.
    #[inline(always)]
    unsafe fn mul_shoup_lazy(a: __m256i, b: __m256i, b_sh: __m256i, qv: __m256i) -> __m256i {
        // SAFETY: register-only arithmetic; caller guarantees AVX2 and
        // that `b_sh = ⌊b·2⁶⁴/q⌋` (the Shoup pair), which bounds the lazy
        // result to `[0, 2q)` — the documented output range.
        unsafe {
            let hi = mulhi64(a, b_sh);
            _mm256_sub_epi64(mullo64(a, b), mullo64(hi, qv))
        }
    }

    /// Strict Shoup product: `a·b mod q` in `[0, q)` for any u64 `a`.
    #[inline(always)]
    unsafe fn mul_shoup(
        a: __m256i,
        b: __m256i,
        b_sh: __m256i,
        qv: __m256i,
        sign: __m256i,
    ) -> __m256i {
        // SAFETY: register-only arithmetic; caller guarantees AVX2. The
        // lazy product is `< 2q`, so one conditional subtract lands in
        // `[0, q)`.
        unsafe { csub(mul_shoup_lazy(a, b, b_sh, qv), qv, sign) }
    }

    // SAFETY note shared by every `*_avx2` target-feature function below:
    // they are reachable only through the `AVX2` kernel table, which
    // `super::avx2()` hands out after `is_x86_feature_detected!("avx2")`
    // has confirmed support, so the intrinsics are always executed on a
    // CPU that has them. Loads and stores use the unaligned variants on
    // in-bounds chunk pointers produced by safe slice iteration. The thin
    // safe wrappers exist because the dispatch table stores plain `fn`
    // pointers, which a `#[target_feature]` function cannot coerce to.

    /// Declares the safe `fn`-pointer-compatible wrapper for one
    /// target-feature kernel body (visible to the IFMA table, which reuses
    /// the AVX2 entries).
    macro_rules! wrap_avx2 {
        ($(#[$doc:meta])* $name:ident => $body:ident ( $($arg:ident : $ty:ty),* )) => {
            $(#[$doc])*
            pub(super) fn $name($($arg: $ty),*) {
                // SAFETY: see the module safety note — this table is only
                // handed out after AVX2 detection.
                unsafe { $body($($arg),*) }
            }
        };
    }

    wrap_avx2!(add_assign => add_assign_avx2(a: &mut [u64], b: &[u64], q: u64));
    wrap_avx2!(sub_assign => sub_assign_avx2(a: &mut [u64], b: &[u64], q: u64));
    wrap_avx2!(neg_assign => neg_assign_avx2(a: &mut [u64], q: u64));
    wrap_avx2!(scalar_mul_assign => scalar_mul_assign_avx2(a: &mut [u64], s: u64, s_sh: u64, q: u64));
    wrap_avx2!(sub_mul_assign => sub_mul_assign_avx2(a: &mut [u64], b: &[u64], s: u64, s_sh: u64, q: u64));
    wrap_avx2!(ntt_fwd_lazy => ntt_fwd_lazy_avx2(a: &mut [u64], tw: Twiddles, q: u64));
    wrap_avx2!(ntt_inv_lazy => ntt_inv_lazy_avx2(a: &mut [u64], tw: Twiddles, sc: InvScale, q: u64));

    #[target_feature(enable = "avx2")]
    unsafe fn add_assign_avx2(a: &mut [u64], b: &[u64], q: u64) {
        debug_assert_eq!(a.len(), b.len());
        // SAFETY: AVX2 verified by dispatch (see module note); pointers
        // come from exact 4-element chunks of the slices.
        unsafe {
            let qv = _mm256_set1_epi64x(q as i64);
            let sign = sign_bit();
            let mut ac = a.chunks_exact_mut(4);
            let mut bc = b.chunks_exact(4);
            for (a4, b4) in (&mut ac).zip(&mut bc) {
                let av = _mm256_loadu_si256(a4.as_ptr() as *const __m256i);
                let bv = _mm256_loadu_si256(b4.as_ptr() as *const __m256i);
                let s = csub(_mm256_add_epi64(av, bv), qv, sign);
                _mm256_storeu_si256(a4.as_mut_ptr() as *mut __m256i, s);
            }
            for (x, &y) in ac.into_remainder().iter_mut().zip(bc.remainder()) {
                let s = *x + y;
                *x = if s >= q { s - q } else { s };
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn sub_assign_avx2(a: &mut [u64], b: &[u64], q: u64) {
        debug_assert_eq!(a.len(), b.len());
        // SAFETY: AVX2 verified by dispatch; in-bounds chunk pointers.
        unsafe {
            let qv = _mm256_set1_epi64x(q as i64);
            let sign = sign_bit();
            let mut ac = a.chunks_exact_mut(4);
            let mut bc = b.chunks_exact(4);
            for (a4, b4) in (&mut ac).zip(&mut bc) {
                let av = _mm256_loadu_si256(a4.as_ptr() as *const __m256i);
                let bv = _mm256_loadu_si256(b4.as_ptr() as *const __m256i);
                // a - b + q, then subtract q back where the sum is >= q.
                let s = csub(_mm256_sub_epi64(_mm256_add_epi64(av, qv), bv), qv, sign);
                _mm256_storeu_si256(a4.as_mut_ptr() as *mut __m256i, s);
            }
            for (x, &y) in ac.into_remainder().iter_mut().zip(bc.remainder()) {
                *x = if *x >= y { *x - y } else { *x + q - y };
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn neg_assign_avx2(a: &mut [u64], q: u64) {
        // SAFETY: AVX2 verified by dispatch; in-bounds chunk pointers.
        unsafe {
            let qv = _mm256_set1_epi64x(q as i64);
            let zero = _mm256_setzero_si256();
            let mut ac = a.chunks_exact_mut(4);
            for a4 in &mut ac {
                let av = _mm256_loadu_si256(a4.as_ptr() as *const __m256i);
                // q - a, masked to 0 where a == 0.
                let nz = _mm256_cmpeq_epi64(av, zero);
                let r = _mm256_andnot_si256(nz, _mm256_sub_epi64(qv, av));
                _mm256_storeu_si256(a4.as_mut_ptr() as *mut __m256i, r);
            }
            for x in ac.into_remainder() {
                *x = if *x == 0 { 0 } else { q - *x };
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn scalar_mul_assign_avx2(a: &mut [u64], s: u64, s_sh: u64, q: u64) {
        // SAFETY: AVX2 verified by dispatch; in-bounds chunk pointers.
        unsafe {
            let qv = _mm256_set1_epi64x(q as i64);
            let sv = _mm256_set1_epi64x(s as i64);
            let sshv = _mm256_set1_epi64x(s_sh as i64);
            let sign = sign_bit();
            let mut ac = a.chunks_exact_mut(4);
            for a4 in &mut ac {
                let av = _mm256_loadu_si256(a4.as_ptr() as *const __m256i);
                let r = mul_shoup(av, sv, sshv, qv, sign);
                _mm256_storeu_si256(a4.as_mut_ptr() as *mut __m256i, r);
            }
            for x in ac.into_remainder() {
                *x = mul_mod_shoup(*x, s, s_sh, q);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn sub_mul_assign_avx2(a: &mut [u64], b: &[u64], s: u64, s_sh: u64, q: u64) {
        debug_assert_eq!(a.len(), b.len());
        // SAFETY: AVX2 verified by dispatch; in-bounds chunk pointers.
        unsafe {
            let qv = _mm256_set1_epi64x(q as i64);
            let sv = _mm256_set1_epi64x(s as i64);
            let sshv = _mm256_set1_epi64x(s_sh as i64);
            let sign = sign_bit();
            let mut ac = a.chunks_exact_mut(4);
            let mut bc = b.chunks_exact(4);
            for (a4, b4) in (&mut ac).zip(&mut bc) {
                let av = _mm256_loadu_si256(a4.as_ptr() as *const __m256i);
                let bvv = _mm256_loadu_si256(b4.as_ptr() as *const __m256i);
                let d = csub(_mm256_sub_epi64(_mm256_add_epi64(av, qv), bvv), qv, sign);
                let r = mul_shoup(d, sv, sshv, qv, sign);
                _mm256_storeu_si256(a4.as_mut_ptr() as *mut __m256i, r);
            }
            for (x, &y) in ac.into_remainder().iter_mut().zip(bc.remainder()) {
                let d = if *x >= y { *x - y } else { *x + q - y };
                *x = mul_mod_shoup(d, s, s_sh, q);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn ntt_fwd_lazy_avx2(a: &mut [u64], tw: Twiddles, q: u64) {
        let n = a.len();
        debug_assert!(n.is_power_of_two() && n >= 2);
        debug_assert_eq!(tw.w.len(), n);
        if n < 8 {
            return super::scalar_impl::ntt_fwd_lazy(a, tw, q);
        }
        let (psi, psi_sh) = (tw.w, tw.shoup);
        let two_q = 2 * q;
        // SAFETY: AVX2 verified by dispatch. Pointer arithmetic stays in
        // bounds: every stage partitions the length-n slice into disjoint
        // blocks whose u/v halves are multiples of 4 lanes (t >= 4), pairs
        // of 2-element blocks (t == 2, m = n/4 >= 2 even), or 4
        // interleaved pairs (t == 1, m = n/2 >= 4 a multiple of 4).
        unsafe {
            let qv = _mm256_set1_epi64x(q as i64);
            let two_qv = _mm256_set1_epi64x(two_q as i64);
            let sign = sign_bit();
            let ap = a.as_mut_ptr();
            let mut t = n;
            let mut m = 1;
            // Stages with t >= 4: contiguous u/v spans, one broadcast
            // twiddle per block.
            while m < n / 2 && t > 8 {
                t >>= 1;
                let tw = &psi[m..2 * m];
                let tw_sh = &psi_sh[m..2 * m];
                for i in 0..m {
                    let j1 = 2 * i * t;
                    let sv = _mm256_set1_epi64x(tw[i] as i64);
                    let sshv = _mm256_set1_epi64x(tw_sh[i] as i64);
                    let mut j = 0;
                    while j < t {
                        let up = ap.add(j1 + j) as *mut __m256i;
                        let vp = ap.add(j1 + j + t) as *mut __m256i;
                        let u = csub(_mm256_loadu_si256(up as *const _), two_qv, sign);
                        let v = mul_shoup_lazy(_mm256_loadu_si256(vp as *const _), sv, sshv, qv);
                        _mm256_storeu_si256(up, _mm256_add_epi64(u, v));
                        _mm256_storeu_si256(vp, _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v));
                        j += 4;
                    }
                }
                m <<= 1;
            }
            // t == 4 stage (if not the last): same span code, exactly one
            // vector per block half.
            if m < n / 2 {
                t >>= 1;
                debug_assert_eq!(t, 4);
                let tw = &psi[m..2 * m];
                let tw_sh = &psi_sh[m..2 * m];
                for i in 0..m {
                    let j1 = 8 * i;
                    let sv = _mm256_set1_epi64x(tw[i] as i64);
                    let sshv = _mm256_set1_epi64x(tw_sh[i] as i64);
                    let up = ap.add(j1) as *mut __m256i;
                    let vp = ap.add(j1 + 4) as *mut __m256i;
                    let u = csub(_mm256_loadu_si256(up as *const _), two_qv, sign);
                    let v = mul_shoup_lazy(_mm256_loadu_si256(vp as *const _), sv, sshv, qv);
                    _mm256_storeu_si256(up, _mm256_add_epi64(u, v));
                    _mm256_storeu_si256(vp, _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v));
                }
                m <<= 1;
            }
            // t == 2 stage (if not the last): two blocks per vector pair,
            // twiddles duplicated into [s0 s0 s1 s1].
            if m < n / 2 {
                t >>= 1;
                debug_assert_eq!(t, 2);
                let tw = &psi[m..2 * m];
                let tw_sh = &psi_sh[m..2 * m];
                let mut i = 0;
                while i < m {
                    let j1 = 4 * i;
                    let r0 = _mm256_loadu_si256(ap.add(j1) as *const __m256i);
                    let r1 = _mm256_loadu_si256(ap.add(j1 + 4) as *const __m256i);
                    let u = csub(_mm256_permute2x128_si256(r0, r1, 0x20), two_qv, sign);
                    let vraw = _mm256_permute2x128_si256(r0, r1, 0x31);
                    // only two twiddles are needed: a 128-bit load keeps
                    // the read inside the slice, the permute duplicates
                    // each into its block's lane pair [s0 s0 s1 s1]
                    let tp = _mm256_castsi128_si256(_mm_loadu_si128(
                        tw.as_ptr().add(i) as *const __m128i
                    ));
                    let tsp = _mm256_castsi128_si256(_mm_loadu_si128(
                        tw_sh.as_ptr().add(i) as *const __m128i
                    ));
                    let sv = _mm256_permute4x64_epi64(tp, 0x50);
                    let sshv = _mm256_permute4x64_epi64(tsp, 0x50);
                    let v = mul_shoup_lazy(vraw, sv, sshv, qv);
                    let uo = _mm256_add_epi64(u, v);
                    let vo = _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v);
                    _mm256_storeu_si256(
                        ap.add(j1) as *mut __m256i,
                        _mm256_permute2x128_si256(uo, vo, 0x20),
                    );
                    _mm256_storeu_si256(
                        ap.add(j1 + 4) as *mut __m256i,
                        _mm256_permute2x128_si256(uo, vo, 0x31),
                    );
                    i += 2;
                }
                m <<= 1;
            }
            // Last stage (t == 1): interleaved pairs, folded full
            // reduction — outputs land in [0, q) with no extra sweep.
            debug_assert_eq!(m, n / 2);
            let tw = &psi[m..2 * m];
            let tw_sh = &psi_sh[m..2 * m];
            let mut i = 0;
            while i < m {
                let j1 = 2 * i;
                let r0 = _mm256_loadu_si256(ap.add(j1) as *const __m256i);
                let r1 = _mm256_loadu_si256(ap.add(j1 + 4) as *const __m256i);
                // deinterleave: u = [u0 u2 u1 u3], v = [v0 v2 v1 v3]
                let u = csub(_mm256_unpacklo_epi64(r0, r1), two_qv, sign);
                let vraw = _mm256_unpackhi_epi64(r0, r1);
                let tp = _mm256_loadu_si256(tw.as_ptr().add(i) as *const __m256i);
                let tsp = _mm256_loadu_si256(tw_sh.as_ptr().add(i) as *const __m256i);
                // match the [s0 s2 s1 s3] lane order of the unpack
                let sv = _mm256_permute4x64_epi64(tp, 0xD8);
                let sshv = _mm256_permute4x64_epi64(tsp, 0xD8);
                let v = mul_shoup_lazy(vraw, sv, sshv, qv);
                let uo = csub(csub(_mm256_add_epi64(u, v), two_qv, sign), qv, sign);
                let vo = csub(
                    csub(
                        _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v),
                        two_qv,
                        sign,
                    ),
                    qv,
                    sign,
                );
                _mm256_storeu_si256(ap.add(j1) as *mut __m256i, _mm256_unpacklo_epi64(uo, vo));
                _mm256_storeu_si256(
                    ap.add(j1 + 4) as *mut __m256i,
                    _mm256_unpackhi_epi64(uo, vo),
                );
                i += 4;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn ntt_inv_lazy_avx2(a: &mut [u64], tw: Twiddles, sc: InvScale, q: u64) {
        let n = a.len();
        debug_assert!(n.is_power_of_two() && n >= 2);
        debug_assert_eq!(tw.w.len(), n);
        if n < 8 {
            return super::scalar_impl::ntt_inv_lazy(a, tw, sc, q);
        }
        let (ipsi, ipsi_sh) = (tw.w, tw.shoup);
        let two_q = 2 * q;
        // SAFETY: AVX2 verified by dispatch; same block-partition bounds
        // argument as the forward transform, traversed in reverse order.
        unsafe {
            let qv = _mm256_set1_epi64x(q as i64);
            let two_qv = _mm256_set1_epi64x(two_q as i64);
            let sign = sign_bit();
            let ap = a.as_mut_ptr();
            let mut t = 1;
            let mut m = n;
            // First stage (t == 1): interleaved pairs.
            {
                let h = m >> 1;
                let tw = &ipsi[h..2 * h];
                let tw_sh = &ipsi_sh[h..2 * h];
                let mut i = 0;
                while i < h {
                    let j1 = 2 * i;
                    let r0 = _mm256_loadu_si256(ap.add(j1) as *const __m256i);
                    let r1 = _mm256_loadu_si256(ap.add(j1 + 4) as *const __m256i);
                    let u = _mm256_unpacklo_epi64(r0, r1);
                    let v = _mm256_unpackhi_epi64(r0, r1);
                    let tp = _mm256_loadu_si256(tw.as_ptr().add(i) as *const __m256i);
                    let tsp = _mm256_loadu_si256(tw_sh.as_ptr().add(i) as *const __m256i);
                    let sv = _mm256_permute4x64_epi64(tp, 0xD8);
                    let sshv = _mm256_permute4x64_epi64(tsp, 0xD8);
                    let s0 = csub(_mm256_add_epi64(u, v), two_qv, sign);
                    let d = _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v);
                    let vo = mul_shoup_lazy(d, sv, sshv, qv);
                    _mm256_storeu_si256(ap.add(j1) as *mut __m256i, _mm256_unpacklo_epi64(s0, vo));
                    _mm256_storeu_si256(
                        ap.add(j1 + 4) as *mut __m256i,
                        _mm256_unpackhi_epi64(s0, vo),
                    );
                    i += 4;
                }
                t <<= 1;
                m = h;
            }
            // t == 2 stage: paired blocks via 128-bit lane permutes.
            if m > 2 {
                let h = m >> 1;
                let tw = &ipsi[h..2 * h];
                let tw_sh = &ipsi_sh[h..2 * h];
                let mut i = 0;
                while i < h {
                    let j1 = 4 * i;
                    let r0 = _mm256_loadu_si256(ap.add(j1) as *const __m256i);
                    let r1 = _mm256_loadu_si256(ap.add(j1 + 4) as *const __m256i);
                    let u = _mm256_permute2x128_si256(r0, r1, 0x20);
                    let v = _mm256_permute2x128_si256(r0, r1, 0x31);
                    // only two twiddles are needed: a 128-bit load keeps
                    // the read inside the slice, the permute duplicates
                    // each into its block's lane pair [s0 s0 s1 s1]
                    let tp = _mm256_castsi128_si256(_mm_loadu_si128(
                        tw.as_ptr().add(i) as *const __m128i
                    ));
                    let tsp = _mm256_castsi128_si256(_mm_loadu_si128(
                        tw_sh.as_ptr().add(i) as *const __m128i
                    ));
                    let sv = _mm256_permute4x64_epi64(tp, 0x50);
                    let sshv = _mm256_permute4x64_epi64(tsp, 0x50);
                    let s0 = csub(_mm256_add_epi64(u, v), two_qv, sign);
                    let d = _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v);
                    let vo = mul_shoup_lazy(d, sv, sshv, qv);
                    _mm256_storeu_si256(
                        ap.add(j1) as *mut __m256i,
                        _mm256_permute2x128_si256(s0, vo, 0x20),
                    );
                    _mm256_storeu_si256(
                        ap.add(j1 + 4) as *mut __m256i,
                        _mm256_permute2x128_si256(s0, vo, 0x31),
                    );
                    i += 2;
                }
                t <<= 1;
                m = h;
            }
            // Stages with t >= 4, stopping before the last (m == 2).
            while m > 2 {
                let h = m >> 1;
                let tw = &ipsi[h..2 * h];
                let tw_sh = &ipsi_sh[h..2 * h];
                let mut j1 = 0;
                for i in 0..h {
                    let sv = _mm256_set1_epi64x(tw[i] as i64);
                    let sshv = _mm256_set1_epi64x(tw_sh[i] as i64);
                    let mut j = 0;
                    while j < t {
                        let up = ap.add(j1 + j) as *mut __m256i;
                        let vp = ap.add(j1 + j + t) as *mut __m256i;
                        let u = _mm256_loadu_si256(up as *const _);
                        let v = _mm256_loadu_si256(vp as *const _);
                        let s0 = csub(_mm256_add_epi64(u, v), two_qv, sign);
                        let d = _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v);
                        _mm256_storeu_si256(up, s0);
                        _mm256_storeu_si256(vp, mul_shoup_lazy(d, sv, sshv, qv));
                        j += 4;
                    }
                    j1 += 2 * t;
                }
                t <<= 1;
                m = h;
            }
            // Last stage (m == 2): fold the N⁻¹ scaling. The strict Shoup
            // product fully reduces any u64 input, so outputs are [0, q).
            let half = n / 2;
            let ni = _mm256_set1_epi64x(sc.n_inv as i64);
            let ni_sh = _mm256_set1_epi64x(sc.n_inv_shoup as i64);
            let sni = _mm256_set1_epi64x(sc.s_n_inv as i64);
            let sni_sh = _mm256_set1_epi64x(sc.s_n_inv_shoup as i64);
            let mut j = 0;
            while j < half {
                let up = ap.add(j) as *mut __m256i;
                let vp = ap.add(j + half) as *mut __m256i;
                let u = _mm256_loadu_si256(up as *const _);
                let v = _mm256_loadu_si256(vp as *const _);
                let s0 = _mm256_add_epi64(u, v);
                let d = _mm256_sub_epi64(_mm256_add_epi64(u, two_qv), v);
                _mm256_storeu_si256(up, mul_shoup(s0, ni, ni_sh, qv, sign));
                _mm256_storeu_si256(vp, mul_shoup(d, sni, sni_sh, qv, sign));
                j += 4;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod ifma_impl {
    use super::*;
    use crate::modular::pow_mod;
    use core::arch::x86_64::*;

    pub(super) static IFMA: Kernels = Kernels {
        name: "avx512ifma",
        ntt_fwd_lazy,
        ntt_inv_lazy,
        add_assign: avx2_impl::add_assign,
        sub_assign: avx2_impl::sub_assign,
        neg_assign: avx2_impl::neg_assign,
        mul_pointwise,
        // Only a benchmark probe and the tests call `add_mul`.
        add_mul: super::scalar_impl::add_mul,
        scalar_mul_assign,
        sub_mul_assign,
        base_conv,
        ks_accum,
        ks_accum_pair,
        mac_wide,
        fold_wide,
    };

    const MASK52: u64 = (1 << 52) - 1;

    /// Smallest modulus whose Barrett body takes any `u64` word: it needs
    /// `x >> (bitlen(q) − 1) < 2⁵²`.
    const REDUCE_Q_MIN: u64 = 1 << 12;

    /// Broadcast of one `u64` to all eight lanes.
    #[inline(always)]
    unsafe fn splat(x: u64) -> __m512i {
        // SAFETY: register-only broadcast; the caller guarantees AVX-512F
        // (every helper here is reached only through the `IFMA` table).
        unsafe { _mm512_set1_epi64(x as i64) }
    }

    /// Lane-wise `a − m` where `a ≥ m`, else `a`: when `a < m` the wrapped
    /// difference exceeds `a`, so the unsigned minimum picks the right one.
    #[inline(always)]
    unsafe fn csub(a: __m512i, m: __m512i) -> __m512i {
        // SAFETY: register-only lane arithmetic; caller guarantees AVX-512F.
        unsafe { _mm512_min_epu64(a, _mm512_sub_epi64(a, m)) }
    }

    /// Broadcast constants of one modulus `q < IFMA_Q_BOUND`.
    struct Mod52 {
        q: __m512i,
        two_q: __m512i,
        /// `2⁵² − q`: adding `lo₅₂(h·(2⁵² − q))` subtracts `h·q` mod 2⁵².
        neg_q: __m512i,
        mask: __m512i,
    }

    impl Mod52 {
        #[inline(always)]
        unsafe fn new(q: u64) -> Self {
            debug_assert!(q < IFMA_Q_BOUND);
            // SAFETY: register-only broadcasts; caller guarantees AVX-512F.
            unsafe {
                Self {
                    q: splat(q),
                    two_q: splat(2 * q),
                    neg_q: splat((1 << 52) - q),
                    mask: splat(MASK52),
                }
            }
        }

        /// Lazy Shoup product on the 52-bit multiplier: `≡ a·w (mod q)`, in
        /// `[0, 2q)`, for `a < 2⁵²`, `w < q` and `w52 = ⌊w·2⁵²/q⌋`. The
        /// quotient estimate `h = ⌊a·w52/2⁵²⌋` is at most 1 below
        /// `⌊a·w/q⌋`, so `a·w − h·q < 2q < 2⁵²` is exact in the low 52 bits.
        #[inline(always)]
        unsafe fn mul_shoup_lazy(&self, a: __m512i, w: __m512i, w52: __m512i) -> __m512i {
            // SAFETY: register-only lane arithmetic; caller guarantees
            // AVX-512F + IFMA and the input bounds above.
            unsafe {
                let zero = _mm512_setzero_si512();
                let h = _mm512_madd52hi_epu64(zero, a, w52);
                let lo = _mm512_madd52lo_epu64(zero, a, w);
                _mm512_and_si512(_mm512_madd52lo_epu64(lo, h, self.neg_q), self.mask)
            }
        }

        /// Harvey forward butterfly: `u, v ∈ [0, 4q)` → `u + wv, u − wv`,
        /// both in `[0, 4q)`.
        #[inline(always)]
        unsafe fn fwd(
            &self,
            u: __m512i,
            v: __m512i,
            w: __m512i,
            w52: __m512i,
        ) -> (__m512i, __m512i) {
            // SAFETY: register-only lane arithmetic; caller guarantees
            // AVX-512F + IFMA. `v < 4q < 2⁵²` meets the product's bound.
            unsafe {
                let u = csub(u, self.two_q);
                let v = self.mul_shoup_lazy(v, w, w52);
                (
                    _mm512_add_epi64(u, v),
                    _mm512_sub_epi64(_mm512_add_epi64(u, self.two_q), v),
                )
            }
        }

        /// Harvey inverse butterfly: `u, v ∈ [0, 2q)` → `u + v, (u − v)·w`,
        /// both in `[0, 2q)`.
        #[inline(always)]
        unsafe fn inv(
            &self,
            u: __m512i,
            v: __m512i,
            w: __m512i,
            w52: __m512i,
        ) -> (__m512i, __m512i) {
            // SAFETY: register-only lane arithmetic; caller guarantees
            // AVX-512F + IFMA. `u + 2q − v < 4q < 2⁵²` meets the product's
            // bound.
            unsafe {
                let s = csub(_mm512_add_epi64(u, v), self.two_q);
                let d = _mm512_sub_epi64(_mm512_add_epi64(u, self.two_q), v);
                (s, self.mul_shoup_lazy(d, w, w52))
            }
        }
    }

    /// Barrett reduction by `q < IFMA_Q_BOUND` on the 52-bit multiplier.
    /// With `s = bitlen(q) − 1` and `μ = ⌊2⁵²⁺ˢ/q⌋ < 2⁵²`, the estimate
    /// `⌊⌊x/2ˢ⌋·μ/2⁵²⌋` of `⌊x/q⌋` is at most 2 low for any `x` with
    /// `⌊x/2ˢ⌋ < 2⁵²`, so `x` minus its multiple of `q` is in `[0, 3q)`.
    struct Barrett52 {
        m: Mod52,
        mu: __m512i,
        shift: __m128i,
        /// `52 − s`: the left shift that aligns a product's high half.
        up: __m128i,
    }

    impl Barrett52 {
        #[inline(always)]
        unsafe fn new(q: u64) -> Self {
            let s = 63 - q.leading_zeros();
            // SAFETY: register-only broadcasts; caller guarantees AVX-512F
            // and `q < IFMA_Q_BOUND`.
            unsafe {
                Self {
                    m: Mod52::new(q),
                    mu: splat(((1u128 << (52 + s)) / q as u128) as u64),
                    shift: _mm_cvtsi64_si128(s as i64),
                    up: _mm_cvtsi64_si128(52 - s as i64),
                }
            }
        }

        /// `x mod q` from `x`'s low 52 bits and `⌊x/2ˢ⌋ < 2⁵²`.
        #[inline(always)]
        unsafe fn finish(&self, lo: __m512i, xs: __m512i) -> __m512i {
            // SAFETY: register-only lane arithmetic; caller guarantees
            // AVX-512F + IFMA. The remainder is `< 3q < 2⁵²`, exact in the
            // low 52 bits; two conditional subtracts reduce it.
            unsafe {
                let est = _mm512_madd52hi_epu64(_mm512_setzero_si512(), xs, self.mu);
                let r = _mm512_and_si512(_mm512_madd52lo_epu64(lo, est, self.m.neg_q), self.m.mask);
                csub(csub(r, self.m.two_q), self.m.q)
            }
        }

        /// `a·b mod q` for `a, b < q`: the 100-bit product is `hi·2⁵² + lo`.
        #[inline(always)]
        unsafe fn mul(&self, a: __m512i, b: __m512i) -> __m512i {
            // SAFETY: register-only lane arithmetic; caller guarantees
            // AVX-512F + IFMA and `a, b < q`, so `⌊a·b/2ˢ⌋ < 2⁵¹`.
            unsafe {
                let zero = _mm512_setzero_si512();
                let lo = _mm512_madd52lo_epu64(zero, a, b);
                let hi = _mm512_madd52hi_epu64(zero, a, b);
                let xs = _mm512_or_si512(
                    _mm512_srl_epi64(lo, self.shift),
                    _mm512_sll_epi64(hi, self.up),
                );
                self.finish(lo, xs)
            }
        }

        /// `x mod q` for any `u64` word; needs `q ≥ REDUCE_Q_MIN`.
        #[inline(always)]
        unsafe fn reduce(&self, x: __m512i) -> __m512i {
            // SAFETY: register-only lane arithmetic; caller guarantees
            // AVX-512F + IFMA and `s ≥ 12`, so `x >> s < 2⁵²`.
            unsafe {
                self.finish(
                    _mm512_and_si512(x, self.m.mask),
                    _mm512_srl_epi64(x, self.shift),
                )
            }
        }
    }

    /// Calls `f(i, k)` on each 8-lane block starting at word `i` of a
    /// `len`-word buffer; `k` masks the lanes inside it (all eight, but
    /// fewer in a last, partial block).
    #[inline(always)]
    fn for_blocks(len: usize, mut f: impl FnMut(usize, __mmask8)) {
        let full = len / 8 * 8;
        for i in (0..full).step_by(8) {
            f(i, 0xff);
        }
        if full < len {
            f(full, 0xff >> (8 - (len - full)));
        }
    }

    /// The blocks of [`for_blocks`] as an iterator, for a body too large
    /// to be inlined as a closure (the constant full mask of `for_blocks`
    /// keeps the short elementwise bodies faster).
    #[inline(always)]
    fn blocks(len: usize) -> impl Iterator<Item = (usize, __mmask8)> {
        (0..len)
            .step_by(8)
            .map(move |i| (i, 0xff >> (8 - (len - i).min(8))))
    }

    /// Masked load of the block at word `i`; lanes outside `k` read as 0
    /// and do not touch memory.
    #[inline(always)]
    unsafe fn load(s: &[u64], i: usize, k: __mmask8) -> __m512i {
        // SAFETY: the caller passes a block of `for_blocks(s.len(), ..)`,
        // so every lane in `k` is inside `s`; masked-off lanes are not
        // accessed (AVX-512 fault suppression).
        unsafe { _mm512_maskz_loadu_epi64(k, s.as_ptr().add(i) as *const i64) }
    }

    /// Masked store of the block at word `i`, the counterpart of [`load`].
    #[inline(always)]
    unsafe fn store(s: &mut [u64], i: usize, k: __mmask8, v: __m512i) {
        // SAFETY: as for `load`: lanes in `k` are inside `s`, the others
        // are not written.
        unsafe { _mm512_mask_storeu_epi64(s.as_mut_ptr().add(i) as *mut i64, k, v) }
    }

    /// Lane `k` of the u (`odd = false`) or v (`odd = true`) register of a
    /// stage whose blocks are `t` u-words then `t` v-words, as an index
    /// into the 16 words two registers hold.
    const fn split_idx(t: usize, odd: bool) -> [i64; 8] {
        let mut r = [0; 8];
        let mut k = 0;
        while k < 8 {
            r[k] = ((k / t) * 2 * t + k % t + if odd { t } else { 0 }) as i64;
            k += 1;
        }
        r
    }

    /// The inverse of [`split_idx`]: lane `k` of the low (`hi = false`) or
    /// high stored register as an index into `u` (`< 8`) or `v` (`≥ 8`).
    const fn join_idx(t: usize, hi: bool) -> [i64; 8] {
        let mut r = [0; 8];
        let mut k = 0;
        while k < 8 {
            let s = k + if hi { 8 } else { 0 };
            let (b, p) = (s / (2 * t), s % (2 * t));
            r[k] = if p < t { b * t + p } else { 8 + b * t + p - t } as i64;
            k += 1;
        }
        r
    }

    #[inline(always)]
    unsafe fn idx(r: [i64; 8]) -> __m512i {
        // SAFETY: reads the eight words of a local array; caller
        // guarantees AVX-512F.
        unsafe { _mm512_loadu_epi64(r.as_ptr()) }
    }

    /// One NTT stage whose blocks are `T ≤ 4` u-words then `T` v-words:
    /// 16 words (`8/T` blocks) per step, split into a u and a v register,
    /// each lane paired with its block's twiddle, and stored back
    /// interleaved. `w` / `w52` are the stage's `n/2T` twiddles.
    #[inline(always)]
    unsafe fn small_stage<const T: usize>(
        a: &mut [u64],
        w: &[u64],
        w52: &[u64],
        bfly: impl Fn(__m512i, __m512i, __m512i, __m512i) -> (__m512i, __m512i),
    ) {
        let n = a.len();
        assert!(n.is_multiple_of(16) && w.len() * 2 * T == n && w52.len() == w.len());
        // SAFETY: caller guarantees AVX-512F + IFMA. Step `j` reads and
        // writes words `[j, j + 16)` of `a` (n is a multiple of 16) and
        // twiddles `[j/2T, j/2T + 8/T)` of `w` / `w52`, whose length
        // `n/2T` the assert pins.
        unsafe {
            let (su, sv) = (idx(split_idx(T, false)), idx(split_idx(T, true)));
            let (jl, jh) = (idx(join_idx(T, false)), idx(join_idx(T, true)));
            let spread = idx(split_idx(T, false).map(|k| k / (2 * T as i64)));
            let twiddles = |s: &[u64], b: usize| {
                if T == 1 {
                    _mm512_loadu_epi64(s.as_ptr().add(b) as *const i64)
                } else {
                    let part = _mm512_maskz_loadu_epi64(
                        0xff >> (8 - 8 / T),
                        s.as_ptr().add(b) as *const i64,
                    );
                    _mm512_permutexvar_epi64(spread, part)
                }
            };
            let ap = a.as_mut_ptr() as *mut i64;
            for j in (0..n).step_by(16) {
                let (r0, r1) = (
                    _mm512_loadu_epi64(ap.add(j)),
                    _mm512_loadu_epi64(ap.add(j + 8)),
                );
                let u = _mm512_permutex2var_epi64(r0, su, r1);
                let v = _mm512_permutex2var_epi64(r0, sv, r1);
                let b = j / (2 * T);
                let (uo, vo) = bfly(u, v, twiddles(w, b), twiddles(w52, b));
                _mm512_storeu_epi64(ap.add(j), _mm512_permutex2var_epi64(uo, jl, vo));
                _mm512_storeu_epi64(ap.add(j + 8), _mm512_permutex2var_epi64(uo, jh, vo));
            }
        }
    }

    /// One NTT stage whose blocks are `t ≥ 8` u-words then `t` v-words:
    /// whole registers, one broadcast twiddle per block.
    #[inline(always)]
    unsafe fn span_stage(
        a: &mut [u64],
        t: usize,
        w: &[u64],
        w52: &[u64],
        bfly: impl Fn(__m512i, __m512i, __m512i, __m512i) -> (__m512i, __m512i),
    ) {
        let n = a.len();
        assert!(t.is_multiple_of(8) && w.len() * 2 * t == n && w52.len() == w.len());
        // SAFETY: caller guarantees AVX-512F + IFMA. Block `i` covers words
        // `[2it, 2it + 2t)`, inside `a` by the assert, in whole registers.
        unsafe {
            let ap = a.as_mut_ptr() as *mut i64;
            for (i, (&wi, &wi52)) in w.iter().zip(w52).enumerate() {
                let (wv, w52v) = (splat(wi), splat(wi52));
                let base = ap.add(2 * i * t);
                for j in (0..t).step_by(8) {
                    let (up, vp) = (base.add(j), base.add(j + t));
                    let (u, v) = bfly(_mm512_loadu_epi64(up), _mm512_loadu_epi64(vp), wv, w52v);
                    _mm512_storeu_epi64(up, u);
                    _mm512_storeu_epi64(vp, v);
                }
            }
        }
    }

    // SAFETY note shared by every `*_ifma` target-feature function below:
    // they are reachable only through the `IFMA` kernel table, which
    // `super::ifma()` hands out after `is_x86_feature_detected!` has
    // confirmed AVX2, AVX-512F, AVX-512VL and AVX-512IFMA, so the
    // intrinsics always run on a CPU that has them. Each wrapper calls its
    // body only when the modulus meets the body's bound (`q <
    // IFMA_Q_BOUND`, plus `q ≥ REDUCE_Q_MIN` for the wide-lane fold, and
    // every source modulus below the bound for the base conversion) and
    // runs the AVX2 table's entry otherwise.

    /// Declares the safe `fn`-pointer-compatible table entry for one IFMA
    /// body, gated on `$gate`, with `$fallback` (the AVX2 table's entry)
    /// for every other call.
    macro_rules! wrap_ifma {
        ($name:ident => $body:ident if $gate:expr, else $fallback:path; ($($arg:ident : $ty:ty),*)) => {
            fn $name($($arg: $ty),*) {
                if $gate {
                    // SAFETY: see the module safety note — this table is
                    // only handed out after IFMA detection, and `$gate`
                    // holds the body's modulus bound.
                    unsafe { $body($($arg),*) }
                } else {
                    $fallback($($arg),*)
                }
            }
        };
    }

    wrap_ifma!(ntt_fwd_lazy => ntt_fwd_ifma if q < IFMA_Q_BOUND && a.len() >= 16,
        else avx2_impl::ntt_fwd_lazy; (a: &mut [u64], tw: Twiddles, q: u64));
    wrap_ifma!(ntt_inv_lazy => ntt_inv_ifma if q < IFMA_Q_BOUND && a.len() >= 16,
        else avx2_impl::ntt_inv_lazy; (a: &mut [u64], tw: Twiddles, sc: InvScale, q: u64));
    wrap_ifma!(mul_pointwise => mul_pointwise_ifma if q < IFMA_Q_BOUND,
        else scalar_impl::mul_pointwise; (dst: &mut [u64], a: &[u64], b: &[u64], q: u64));
    wrap_ifma!(scalar_mul_assign => scalar_mul_assign_ifma if q < IFMA_Q_BOUND,
        else avx2_impl::scalar_mul_assign; (a: &mut [u64], s: u64, s_sh: u64, q: u64));
    wrap_ifma!(sub_mul_assign => sub_mul_assign_ifma if q < IFMA_Q_BOUND,
        else avx2_impl::sub_mul_assign; (a: &mut [u64], b: &[u64], s: u64, s_sh: u64, q: u64));
    wrap_ifma!(base_conv => base_conv_ifma
        if q < IFMA_Q_BOUND && src_q.iter().all(|&s| s < IFMA_Q_BOUND),
        else scalar_impl::base_conv;
        (dst: &mut [u64], src: &[&[u64]], src_q: &[u64], hat: &[u64], centered: bool, q: u64));
    wrap_ifma!(ks_accum => ks_accum_ifma if q < IFMA_Q_BOUND,
        else scalar_impl::ks_accum;
        (dst: &mut [u64], digits: &[&[u64]], keys: &[&[u64]], key_shoups: &[&[u64]], q: u64));
    wrap_ifma!(ks_accum_pair => ks_accum_pair_ifma if q < IFMA_Q_BOUND,
        else scalar_impl::ks_accum_pair;
        (dst_b: &mut [u64], dst_a: &mut [u64], digits: &[&[u64]], keys_b: &[&[u64]],
         keys_a: &[&[u64]], perm: Option<&Permutation>, q: u64));
    wrap_ifma!(mac_wide => mac_wide_ifma if wide52(q),
        else scalar_impl::mac_wide; (lo: &mut [u64], hi: &mut [u64], a: &[u64], b: &[u64], q: u64));
    wrap_ifma!(fold_wide => fold_wide_ifma if wide52(q),
        else scalar_impl::fold_wide; (lo: &mut [u64], hi: &mut [u64], q: u64));

    /// Whether `q`'s wide lanes take the 52-bit format: `mac_wide` and
    /// `fold_wide` must agree on it, so both branch here.
    fn wide52(q: u64) -> bool {
        (REDUCE_Q_MIN..IFMA_Q_BOUND).contains(&q)
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn ntt_fwd_ifma(a: &mut [u64], tw: Twiddles, q: u64) {
        let n = a.len();
        debug_assert!(n.is_power_of_two() && n >= 16);
        // SAFETY: AVX-512F + IFMA verified by dispatch, `q < IFMA_Q_BOUND`
        // by the wrapper; the stage helpers bound their own accesses.
        unsafe {
            let c = Mod52::new(q);
            let bfly = |u, v, w, w52| c.fwd(u, v, w, w52);
            let (mut t, mut m) = (n, 1);
            while t >= 16 {
                t >>= 1;
                span_stage(a, t, &tw.w[m..2 * m], &tw.shoup52[m..2 * m], bfly);
                m <<= 1;
            }
            small_stage::<4>(a, &tw.w[m..2 * m], &tw.shoup52[m..2 * m], bfly);
            m <<= 1;
            small_stage::<2>(a, &tw.w[m..2 * m], &tw.shoup52[m..2 * m], bfly);
            m <<= 1;
            // Last stage (t == 1): fold the full reduction into the
            // butterfly, so outputs land in [0, q) with no extra sweep.
            small_stage::<1>(a, &tw.w[m..2 * m], &tw.shoup52[m..2 * m], |u, v, w, w52| {
                let (u, v) = c.fwd(u, v, w, w52);
                (csub(csub(u, c.two_q), c.q), csub(csub(v, c.two_q), c.q))
            });
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn ntt_inv_ifma(a: &mut [u64], tw: Twiddles, sc: InvScale, q: u64) {
        let n = a.len();
        debug_assert!(n.is_power_of_two() && n >= 16);
        // SAFETY: AVX-512F + IFMA verified by dispatch, `q < IFMA_Q_BOUND`
        // by the wrapper; the stage helpers bound their own accesses, and
        // the last stage's loop covers `[0, n)` in whole registers.
        unsafe {
            let c = Mod52::new(q);
            let bfly = |u, v, w, w52| c.inv(u, v, w, w52);
            let mut h = n / 2;
            small_stage::<1>(a, &tw.w[h..2 * h], &tw.shoup52[h..2 * h], bfly);
            h >>= 1;
            small_stage::<2>(a, &tw.w[h..2 * h], &tw.shoup52[h..2 * h], bfly);
            h >>= 1;
            small_stage::<4>(a, &tw.w[h..2 * h], &tw.shoup52[h..2 * h], bfly);
            h >>= 1;
            let mut t = 8;
            while h > 1 {
                span_stage(a, t, &tw.w[h..2 * h], &tw.shoup52[h..2 * h], bfly);
                t <<= 1;
                h >>= 1;
            }
            // Last stage (one twiddle): fold the N⁻¹ scaling in. The lazy
            // sums are < 4q < 2⁵², and one conditional subtract turns the
            // lazy product into the strict one.
            let (ni, ni52) = (splat(sc.n_inv), splat(sc.n_inv_shoup52));
            let (sni, sni52) = (splat(sc.s_n_inv), splat(sc.s_n_inv_shoup52));
            let half = n / 2;
            let ap = a.as_mut_ptr() as *mut i64;
            for j in (0..half).step_by(8) {
                let (up, vp) = (ap.add(j), ap.add(j + half));
                let (u, v) = (_mm512_loadu_epi64(up), _mm512_loadu_epi64(vp));
                let s = _mm512_add_epi64(u, v);
                let d = _mm512_sub_epi64(_mm512_add_epi64(u, c.two_q), v);
                _mm512_storeu_epi64(up, csub(c.mul_shoup_lazy(s, ni, ni52), c.q));
                _mm512_storeu_epi64(vp, csub(c.mul_shoup_lazy(d, sni, sni52), c.q));
            }
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn mul_pointwise_ifma(dst: &mut [u64], a: &[u64], b: &[u64], q: u64) {
        assert!(dst.len() == a.len() && a.len() == b.len());
        // SAFETY: AVX-512F + IFMA verified by dispatch; the blocks cover
        // the common length of the three slices.
        unsafe {
            let br = Barrett52::new(q);
            for_blocks(dst.len(), |i, k| {
                let r = br.mul(load(a, i, k), load(b, i, k));
                store(dst, i, k, r);
            });
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn scalar_mul_assign_ifma(a: &mut [u64], s: u64, _s_sh: u64, q: u64) {
        // SAFETY: AVX-512F + IFMA verified by dispatch; the blocks cover
        // `a`, whose residues `< q < 2⁵²` meet the product's bound.
        unsafe {
            let c = Mod52::new(q);
            let (sv, s52) = (splat(s), splat(shoup52(s, q)));
            for_blocks(a.len(), |i, k| {
                let r = csub(c.mul_shoup_lazy(load(a, i, k), sv, s52), c.q);
                store(a, i, k, r);
            });
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn sub_mul_assign_ifma(a: &mut [u64], b: &[u64], s: u64, _s_sh: u64, q: u64) {
        assert_eq!(a.len(), b.len());
        // SAFETY: AVX-512F + IFMA verified by dispatch; the blocks cover
        // the common length of both slices.
        unsafe {
            let c = Mod52::new(q);
            let (sv, s52) = (splat(s), splat(shoup52(s, q)));
            for_blocks(a.len(), |i, k| {
                let d = csub(
                    _mm512_sub_epi64(_mm512_add_epi64(load(a, i, k), c.q), load(b, i, k)),
                    c.q,
                );
                store(a, i, k, csub(c.mul_shoup_lazy(d, sv, s52), c.q));
            });
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn base_conv_ifma(
        dst: &mut [u64],
        src: &[&[u64]],
        src_q: &[u64],
        hat: &[u64],
        centered: bool,
        q: u64,
    ) {
        base_conv_shape(dst.len(), src, src_q, hat);
        // Per source: the factor, its 52-bit Shoup twin, the centring
        // threshold and `src_q·hat mod q`, subtracted above it.
        let consts: Vec<[u64; 4]> = (src_q.iter().zip(hat))
            .map(|(&sq, &h)| {
                let half = if centered { sq >> 1 } else { u64::MAX };
                [
                    h,
                    shoup52(h, q),
                    half,
                    crate::modular::mul_mod(sq % q, h, q),
                ]
            })
            .collect();
        // SAFETY: AVX-512F + IFMA verified by dispatch; `q` and every
        // source modulus are below `IFMA_Q_BOUND` by the wrapper, so each
        // source word `v < 2⁵⁰` and each factor `h < q` meet the lazy
        // Shoup product's bounds. The blocks cover `dst`, and every source
        // has its length (`base_conv_shape`).
        unsafe {
            let c = Mod52::new(q);
            for_blocks(dst.len(), |i, k| {
                let mut acc = _mm512_setzero_si512();
                for (s, &[h, h52, half, delta]) in src.iter().zip(&consts) {
                    let v = load(s, i, k);
                    // [0, 2q), then [0, q) less `delta` where `v > half`,
                    // plus q: (0, 2q) either way
                    let t = csub(c.mul_shoup_lazy(v, splat(h), splat(h52)), c.q);
                    let off = _mm512_maskz_mov_epi64(
                        _mm512_cmpgt_epu64_mask(v, splat(half)),
                        splat(delta),
                    );
                    let t = _mm512_sub_epi64(_mm512_add_epi64(t, c.q), off);
                    acc = csub(_mm512_add_epi64(acc, t), c.two_q);
                }
                store(dst, i, k, csub(acc, c.q));
            });
        }
    }

    #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
    unsafe fn ks_accum_ifma(
        dst: &mut [u64],
        digits: &[&[u64]],
        keys: &[&[u64]],
        _key_shoups: &[&[u64]],
        q: u64,
    ) {
        // SAFETY: AVX-512F/VL + IFMA verified by dispatch, `q <
        // IFMA_Q_BOUND` by the wrapper.
        unsafe { ks_pass([dst], digits, [keys], None, q) }
    }

    #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
    unsafe fn ks_accum_pair_ifma(
        dst_b: &mut [u64],
        dst_a: &mut [u64],
        digits: &[&[u64]],
        keys_b: &[&[u64]],
        keys_a: &[&[u64]],
        perm: Option<&Permutation>,
        q: u64,
    ) {
        // SAFETY: AVX-512F/VL + IFMA verified by dispatch, `q <
        // IFMA_Q_BOUND` by the wrapper.
        unsafe { ks_pass([dst_b, dst_a], digits, [keys_b, keys_a], perm, q) }
    }

    /// The key-switch body for `H` key halves on the 52-bit multiplier:
    /// per 8-lane block, each chunk of at most [`KS52_CHUNK`] digits sums
    /// the low and high halves of its products `d·k̃` in `lo` / `hi`, and
    /// `H = hi + (lo >> 52)`, `L = lo mod 2⁵²` fold as `H·2⁻¹² + L·2⁻⁶⁴`
    /// — the REDC's `Σ d·k̃·2⁻⁶⁴ mod q` (module docs). A digit coefficient
    /// is loaded, or gathered through `perm`, once for every half.
    #[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
    unsafe fn ks_pass<const H: usize>(
        dst: [&mut [u64]; H],
        digits: &[&[u64]],
        keys: [&[&[u64]]; H],
        perm: Option<&Permutation>,
        q: u64,
    ) {
        let n = ks_shape(&dst.each_ref().map(|d| d.len()), digits, &keys, perm);
        // 2⁻¹ mod q, for odd q
        let half = q.div_ceil(2);
        let (r12, r64) = (pow_mod(half, 12, q), pow_mod(half, 64, q));
        // Operands are residues `< q < 2⁵⁰`, so each product's high half
        // is `< 2⁴⁸` and `H < 15·2⁴⁸ + 15 < 2⁵²` meets the Shoup product's
        // input bound, as does `L < 2⁵²`.
        // SAFETY: caller guarantees AVX-512F/VL + IFMA and `q <
        // IFMA_Q_BOUND`. Loads and stores cover the blocks of `n`-word
        // slices (`ks_shape`). A gather reads lanes in the mask only, at
        // `perm[i]`: a `Permutation` of length `n`, so below `n =
        // digits[j].len()` and 2³¹ (a valid `i32` offset).
        unsafe {
            let c = Mod52::new(q);
            let zero = _mm512_setzero_si512();
            let (w12, w12s) = (splat(r12), splat(shoup52(r12, q)));
            let (w64, w64s) = (splat(r64), splat(shoup52(r64, q)));
            // A plain loop: as a `for_blocks` closure the two-half body is
            // not inlined and its sums live on the stack.
            for (i, k) in blocks(n) {
                let idx =
                    perm.map(|p| _mm256_maskz_loadu_epi32(k, p.as_ptr().add(i) as *const i32));
                let mut acc = [zero; H];
                for h in 0..H {
                    acc[h] = load(dst[h], i, k);
                }
                for (ds, c0) in digits.chunks(KS52_CHUNK).zip((0..).step_by(KS52_CHUNK)) {
                    let (mut lo, mut hi) = ([zero; H], [zero; H]);
                    for (j, d) in ds.iter().enumerate() {
                        let d = match idx {
                            None => load(d, i, k),
                            Some(ix) => _mm512_mask_i32gather_epi64::<8>(
                                zero,
                                k,
                                ix,
                                d.as_ptr() as *const i64,
                            ),
                        };
                        for h in 0..H {
                            let kv = load(keys[h][c0 + j], i, k);
                            lo[h] = _mm512_madd52lo_epu64(lo[h], d, kv);
                            hi[h] = _mm512_madd52hi_epu64(hi[h], d, kv);
                        }
                    }
                    for h in 0..H {
                        let top = _mm512_add_epi64(hi[h], _mm512_srli_epi64::<52>(lo[h]));
                        let low = _mm512_and_si512(lo[h], c.mask);
                        let r = _mm512_add_epi64(
                            c.mul_shoup_lazy(top, w12, w12s),
                            c.mul_shoup_lazy(low, w64, w64s),
                        );
                        let r = csub(csub(r, c.two_q), c.q);
                        acc[h] = csub(_mm512_add_epi64(acc[h], r), c.q);
                    }
                }
                for (h, v) in acc.into_iter().enumerate() {
                    store(dst[h], i, k, v);
                }
            }
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn mac_wide_ifma(lo: &mut [u64], hi: &mut [u64], a: &[u64], b: &[u64], _q: u64) {
        assert!(lo.len() == hi.len() && lo.len() == a.len() && a.len() == b.len());
        // SAFETY: AVX-512F + IFMA verified by dispatch; the blocks cover
        // the common length of the four slices, and the operands are
        // residues `< q < 2⁵⁰`, inside the multiplier's 52-bit inputs.
        unsafe {
            for_blocks(lo.len(), |i, k| {
                let (x, y) = (load(a, i, k), load(b, i, k));
                store(lo, i, k, _mm512_madd52lo_epu64(load(lo, i, k), x, y));
                store(hi, i, k, _mm512_madd52hi_epu64(load(hi, i, k), x, y));
            });
        }
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn fold_wide_ifma(lo: &mut [u64], hi: &mut [u64], q: u64) {
        assert_eq!(lo.len(), hi.len());
        let r52 = ((1u128 << 52) % q as u128) as u64;
        // SAFETY: AVX-512F + IFMA verified by dispatch, `q ∈ [REDUCE_Q_MIN,
        // IFMA_Q_BOUND)` by the wrapper; the blocks cover both slices. At
        // most `WIDE52_TERMS` terms give `hi < 2⁶⁰`, any word `Barrett52::
        // reduce` takes; its residue `< q` meets the Shoup bound, and the
        // lazy product plus `lo`'s low 52 bits is `< 2q + 2⁵²`, a word.
        unsafe {
            let br = Barrett52::new(q);
            let (w, w52) = (splat(r52), splat(shoup52(r52, q)));
            for_blocks(lo.len(), |i, k| {
                let (l, h) = (load(lo, i, k), load(hi, i, k));
                debug_assert_eq!(
                    _mm512_mask_cmpge_epu64_mask(k, h, splat(WIDE52_TERMS << 48)),
                    0,
                    "wide lane exceeds {WIDE52_TERMS} terms: fold bound missed"
                );
                let top = br.reduce(_mm512_add_epi64(h, _mm512_srli_epi64::<52>(l)));
                let t = br.m.mul_shoup_lazy(top, w, w52);
                let r = br.reduce(_mm512_add_epi64(t, _mm512_and_si512(l, br.m.mask)));
                store(lo, i, k, r);
                store(hi, i, k, _mm512_setzero_si512());
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::{add_mod, mul_mod, neg_mod, shoup_precompute, sub_mod};

    const Q: u64 = 0x1fff_ffff_ffe0_0001; // 61-bit NTT prime

    fn rng_seq(seed: u64, len: usize, bound: u64) -> Vec<u64> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s % bound
            })
            .collect()
    }

    #[test]
    fn barrett_vector_matches_scalar_everywhere() {
        // Exercises the vector Barrett path (through mul_pointwise) on
        // every variant, including the non-multiple-of-4 tail.
        for k in variants() {
            for len in [1usize, 3, 4, 7, 64, 65] {
                let a = rng_seq(1, len, Q);
                let b = rng_seq(2, len, Q);
                let mut dst = vec![0u64; len];
                (k.mul_pointwise)(&mut dst, &a, &b, Q);
                for i in 0..len {
                    assert_eq!(dst[i], mul_mod(a[i], b[i], Q), "{} len={len}", k.name);
                }
            }
        }
    }

    #[test]
    fn elementwise_kernels_match_reference() {
        for k in variants() {
            let len = 67; // deliberately not a multiple of the lane count
            let a0 = rng_seq(3, len, Q);
            let b = rng_seq(4, len, Q);
            let s = 0x1234_5678_9abc % Q;
            let s_sh = shoup_precompute(s, Q);

            let mut a = a0.clone();
            (k.add_assign)(&mut a, &b, Q);
            for i in 0..len {
                assert_eq!(a[i], add_mod(a0[i], b[i], Q), "add {}", k.name);
            }

            let mut a = a0.clone();
            (k.sub_assign)(&mut a, &b, Q);
            for i in 0..len {
                assert_eq!(a[i], sub_mod(a0[i], b[i], Q), "sub {}", k.name);
            }

            let mut a = a0.clone();
            a[0] = 0; // exercise the zero special-case
            let az = a.clone();
            (k.neg_assign)(&mut a, Q);
            for i in 0..len {
                assert_eq!(a[i], neg_mod(az[i], Q), "neg {}", k.name);
            }

            let mut d = rng_seq(5, len, Q);
            let d0 = d.clone();
            (k.add_mul)(&mut d, &a0, &b, Q);
            for i in 0..len {
                assert_eq!(
                    d[i],
                    add_mod(d0[i], mul_mod(a0[i], b[i], Q), Q),
                    "add_mul {}",
                    k.name
                );
            }

            let mut a = a0.clone();
            (k.scalar_mul_assign)(&mut a, s, s_sh, Q);
            for i in 0..len {
                assert_eq!(a[i], mul_mod(a0[i], s, Q), "scalar_mul {}", k.name);
            }

            let mut a = a0.clone();
            (k.sub_mul_assign)(&mut a, &b, s, s_sh, Q);
            for i in 0..len {
                assert_eq!(
                    a[i],
                    mul_mod(sub_mod(a0[i], b[i], Q), s, Q),
                    "sub_mul {}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn ks_accum_matches_strict_inner_product() {
        // Keys go in Montgomery form (`k·2⁶⁴ mod q`); the result is the
        // strict `Σ d·k mod q`. At 61 bits a REDC takes 8 digits, so 17
        // and 19 run three chunks.
        assert_eq!(wide_fold_bound(Q), 8);
        for k in variants() {
            for (len, digits) in [
                (1usize, 1usize),
                (5, 2),
                (64, 3),
                (67, 7),
                (9, 17),
                (66, 19),
            ] {
                let ds: Vec<Vec<u64>> = (0..digits)
                    .map(|i| rng_seq(10 + i as u64, len, Q))
                    .collect();
                let ks: Vec<Vec<u64>> = (0..digits)
                    .map(|i| rng_seq(20 + i as u64, len, Q))
                    .collect();
                let mut mont = ks.clone();
                for kv in &mut mont {
                    to_montgomery(kv, Q);
                }
                let mut dst = rng_seq(30, len, Q);
                let d0 = dst.clone();
                let dref: Vec<&[u64]> = ds.iter().map(|v| v.as_slice()).collect();
                let kref: Vec<&[u64]> = mont.iter().map(|v| v.as_slice()).collect();
                (k.ks_accum)(&mut dst, &dref, &kref, &[], Q);
                for j in 0..len {
                    let mut expect = d0[j];
                    for i in 0..digits {
                        expect = add_mod(expect, mul_mod(ds[i][j], ks[i][j], Q), Q);
                    }
                    assert_eq!(dst[j], expect, "{} len={len} digits={digits}", k.name);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permutation_rejects_a_repeated_index() {
        Permutation::new(vec![0, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permutation_rejects_an_index_out_of_range() {
        Permutation::new(vec![0, 3, 1]);
    }

    #[test]
    fn redc_inverts_the_montgomery_radix() {
        for q in [Q, 0x0fff_ffff_ff00_0001u64, 1_000_003] {
            let inv = inv_mod_2_64(q);
            assert_eq!(q.wrapping_mul(inv), 1, "q·q⁻¹ ≡ 1");
            let r = montgomery_radix(q);
            for x in [0u64, 1, q / 2, q - 1] {
                assert_eq!(redc(x as u128 * r as u128, q, inv), x);
            }
            // the largest input a REDC accepts: y = x·2⁻⁶⁴ iff y·2⁶⁴ ≡ x
            let top = ((q as u128) << 64) - 1;
            let y = redc(top, q, inv);
            assert!(y < q);
            assert_eq!(mul_mod(y, r, q) as u128, top % q as u128);
        }
    }

    #[test]
    fn dispatch_is_cached_and_labeled() {
        let k = kernels();
        assert!(
            ["avx512ifma", "avx2", "scalar"].contains(&k.name),
            "{}",
            k.name
        );
        // Unset or forced, dispatch picks the best class the host has.
        if std::env::var("ORION_SIMD").as_deref() != Ok("off") {
            assert!(std::ptr::eq(k, *variants().last().unwrap()));
        }
        // Second call must hand back the identical table.
        assert!(std::ptr::eq(k, kernels()));
        assert_eq!(dispatch_name(), k.name);
    }
}
