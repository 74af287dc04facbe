//! Lock-free log-bucketed histogram (HDR-style) plus the per-op-class
//! histogram set the kernel layers record into.
//!
//! Buckets are logarithmic with `SUB_BITS` (= 6) bits of sub-bucket
//! resolution per octave: values up to 2·2^`SUB_BITS` are exact, and
//! above that the relative quantization error is bounded by
//! 2^-(`SUB_BITS`+1) ≈ 0.8%. Recording is one `leading_zeros` plus a
//! handful of relaxed atomic RMWs — safe from any thread, no locks.

use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Sub-bucket resolution bits: 64 sub-buckets per octave.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range at this resolution.
const N_BUCKETS: usize = (((64 - SUB_BITS) as usize) << SUB_BITS) + SUB as usize;

/// Lock-free log-bucketed histogram over `u64` samples (we record
/// nanoseconds). Exact min/max are tracked alongside the buckets so
/// single-sample and extreme quantiles stay exact after quantization.
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        let buckets = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        LogHistogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = msb - SUB_BITS;
        let mant = ((v >> shift) - SUB) as usize; // 0..SUB
        (((shift + 1) as usize) << SUB_BITS) + mant
    }

    /// Midpoint of bucket `i`'s value range (exact for the linear region).
    fn bucket_rep(i: usize) -> u64 {
        if i < SUB as usize {
            return i as u64;
        }
        let shift = ((i >> SUB_BITS) - 1) as u32;
        let mant = (i & (SUB as usize - 1)) as u64;
        let lo = (SUB + mant) << shift;
        lo + (1u64 << shift) / 2
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in seconds (stored as nanoseconds).
    pub fn record_secs(&self, secs: f64) {
        self.record((secs.max(0.0) * 1e9) as u64);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample (exact), or 0 when empty.
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest sample (exact), or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Ceil-based nearest-rank quantile: the smallest bucket value such
    /// that at least ⌈p·n⌉ samples are ≤ it (matching the serving
    /// metrics' percentile semantics), clamped to the exact observed
    /// [min, max] so quantization never reports an impossible value.
    pub fn value_at_quantile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_rep(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Reset all buckets and stats to empty.
    pub fn clear(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// JSON summary with quantiles scaled by `scale` (e.g. `1e-6` to
    /// report nanosecond samples in milliseconds).
    pub fn to_value(&self, scale: f64) -> Value {
        let s = |v: u64| Value::Num(v as f64 * scale);
        Value::Obj(vec![
            ("count".to_string(), Value::Num(self.count() as f64)),
            ("mean".to_string(), Value::Num(self.mean() * scale)),
            ("p50".to_string(), s(self.value_at_quantile(0.50))),
            ("p95".to_string(), s(self.value_at_quantile(0.95))),
            ("p99".to_string(), s(self.value_at_quantile(0.99))),
            ("min".to_string(), s(self.min())),
            ("max".to_string(), s(self.max())),
            ("total".to_string(), s(self.sum())),
        ])
    }
}

/// Operation classes timed by the kernel and scheduler layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Forward NTT of every limb of a polynomial (`RnsPoly::to_eval`).
    NttFwd,
    /// Inverse NTT of every limb of a polynomial (`RnsPoly::to_coeff`).
    NttInv,
    /// Key-switch core (covers relinearization, rotation, conjugation).
    KeySwitch,
    /// Rescale / level-drop.
    Rescale,
    /// Bootstrap refresh.
    Bootstrap,
    /// Whole prepared linear layer (scheduler unit granularity).
    LinearLayer,
    /// Polynomial activation stage (scheduler unit granularity).
    PolyStage,
    /// Paged prepared-layer load from the spill store.
    PageLoad,
    /// Pointwise limb arithmetic (add/sub/neg/mul/MAC) — the kernel work
    /// between NTT and key-switch spans.
    Pointwise,
}

impl OpClass {
    /// All classes, in export order.
    pub const ALL: [OpClass; 9] = [
        OpClass::NttFwd,
        OpClass::NttInv,
        OpClass::KeySwitch,
        OpClass::Rescale,
        OpClass::Bootstrap,
        OpClass::LinearLayer,
        OpClass::PolyStage,
        OpClass::PageLoad,
        OpClass::Pointwise,
    ];

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::NttFwd => "ntt_fwd",
            OpClass::NttInv => "ntt_inv",
            OpClass::KeySwitch => "key_switch",
            OpClass::Rescale => "rescale",
            OpClass::Bootstrap => "bootstrap",
            OpClass::LinearLayer => "linear_layer",
            OpClass::PolyStage => "poly_stage",
            OpClass::PageLoad => "page_load",
            OpClass::Pointwise => "pointwise",
        }
    }
}

static OP_HISTS: OnceLock<[LogHistogram; 9]> = OnceLock::new();

fn op_hists() -> &'static [LogHistogram; 9] {
    OP_HISTS.get_or_init(|| std::array::from_fn(|_| LogHistogram::new()))
}

/// The process-wide nanosecond histogram for `class`.
pub fn op_histogram(class: OpClass) -> &'static LogHistogram {
    &op_hists()[class as usize]
}

/// Time `f` into `class`'s histogram. When the collector is disabled
/// this is one relaxed load — no clock reads.
#[inline]
pub fn time_class<R>(class: OpClass, f: impl FnOnce() -> R) -> R {
    if !crate::enabled() {
        return f();
    }
    let t0 = crate::now_ns();
    let r = f();
    op_histogram(class).record(crate::now_ns() - t0);
    r
}

/// Clear every op-class histogram (tests and fresh trace sessions).
pub fn clear_op_histograms() {
    for h in op_hists() {
        h.clear();
    }
}

/// JSON object mapping op-class name → histogram summary in
/// milliseconds. Empty classes are omitted. When the kernel layer has
/// registered its dispatch class (avx2/scalar), a `simd_dispatch` label is
/// attached so traces record which instruction mix produced the timings.
pub fn op_histograms_value() -> Value {
    let mut entries: Vec<(String, Value)> = OpClass::ALL
        .iter()
        .filter(|c| op_histogram(**c).count() > 0)
        .map(|c| (c.name().to_string(), op_histogram(*c).to_value(1e-6)))
        .collect();
    if let Some(d) = crate::kernel_dispatch() {
        entries.push(("simd_dispatch".to_string(), Value::Str(d.to_string())));
    }
    Value::Obj(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in 0..128u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 128);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
        // Linear + first octave regions are exact: p50 of 0..=127 is
        // rank 64 → value 63.
        assert_eq!(h.value_at_quantile(0.5), 63);
        assert_eq!(h.value_at_quantile(1.0), 127);
    }

    #[test]
    fn quantization_error_is_bounded() {
        let h = LogHistogram::new();
        let mut x = 1u64;
        let mut vals = Vec::new();
        // Geometric sweep across many octaves.
        while x < 1 << 58 {
            h.record(x);
            vals.push(x);
            x = x / 16 * 21 + x % 16 + 1;
        }
        vals.sort_unstable();
        for p in [0.5, 0.95, 0.99] {
            let rank = ((p * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1] as f64;
            let got = h.value_at_quantile(p) as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.01, "p{p}: exact {exact}, got {got}, rel {rel}");
        }
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let h = LogHistogram::new();
        h.record(123_456_789);
        for p in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.value_at_quantile(p), 123_456_789);
        }
    }

    #[test]
    fn nearest_rank_matches_serving_semantics() {
        // Mirror of orion-serve's boundary cases, on exact small values.
        let pctl = |n: u64, p: f64| -> u64 {
            let h = LogHistogram::new();
            for v in 1..=n {
                h.record(v);
            }
            h.value_at_quantile(p)
        };
        assert_eq!(pctl(4, 0.50), 2);
        assert_eq!(pctl(9, 0.50), 5);
        assert_eq!(pctl(10, 0.95), 10);
        assert_eq!(pctl(67, 0.99), 67);
        assert_eq!(pctl(100, 0.99), 99);
        assert_eq!(pctl(100, 0.95), 95);
    }

    #[test]
    fn clear_resets_everything() {
        let h = LogHistogram::new();
        h.record(5);
        h.record(1 << 40);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.value_at_quantile(0.99), 0);
    }
}
