//! Serving metrics: per-model counters the operator watches to know the
//! queue is healthy — depth, a typed error taxonomy, latency percentiles,
//! per-request encode tallies, and the pager's fault/eviction counters —
//! exported as one JSON snapshot (`Server::metrics_json`).
//!
//! Latencies are recorded into a lock-free log-bucketed histogram
//! ([`orion_telemetry::LogHistogram`]): O(1) memory and record cost no
//! matter how many requests the server has served, no lock on the worker
//! hot path, and ceil-based nearest-rank percentile semantics (values are
//! bucket midpoints, exact up to 127 ns and within ~0.8% relative error
//! above; min/max stay exact).

use orion_linear::paged::PageStats;
use orion_telemetry::LogHistogram;
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a request failed — each class is counted separately so an operator
/// can tell backpressure (queue full) from infrastructure trouble (store
/// faults), malformed traffic (bad input), and genuine bugs (panics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// Rejected at admission: the queue was at capacity.
    QueueFull,
    /// A prepared layer could not be faulted in from the spill store.
    Store,
    /// The worker panicked for a non-store reason.
    Panic,
    /// The request was malformed (wrong ciphertext count, level or scale).
    BadInput,
}

impl ErrorClass {
    /// All classes, in export order.
    pub const ALL: [ErrorClass; 4] = [
        ErrorClass::QueueFull,
        ErrorClass::Store,
        ErrorClass::Panic,
        ErrorClass::BadInput,
    ];

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorClass::QueueFull => "queue_full",
            ErrorClass::Store => "store_fault",
            ErrorClass::Panic => "panic",
            ErrorClass::BadInput => "bad_input",
        }
    }
}

/// Lock-free per-model counters plus a latency histogram. Writers are the
/// admission path and the workers; readers take snapshots.
#[derive(Default)]
pub struct ModelMetrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    errors: [AtomicU64; 4],
    queue_depth: AtomicU64,
    peak_queue_depth: AtomicU64,
    encodes: AtomicU64,
    /// End-to-end (queue + execution) latency of every completed request,
    /// in nanoseconds.
    latencies: LogHistogram,
}

impl ModelMetrics {
    /// One request admitted to the queue.
    pub fn note_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// One request left the queue for a worker.
    pub fn note_dequeue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// One request finished successfully.
    pub fn note_done(&self, total_seconds: f64, encodes: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.encodes.fetch_add(encodes, Ordering::Relaxed);
        self.latencies.record_secs(total_seconds);
    }

    /// One request failed, for the given reason.
    pub fn note_error(&self, class: ErrorClass) {
        self.errors[class as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Current queue depth (requests admitted but not yet taken by a worker).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Completed requests so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Failed requests so far, across every error class.
    pub fn errors(&self) -> u64 {
        self.errors.iter().map(|e| e.load(Ordering::Relaxed)).sum()
    }

    /// Failed requests of one class.
    pub fn errors_of(&self, class: ErrorClass) -> u64 {
        self.errors[class as usize].load(Ordering::Relaxed)
    }

    /// Total per-request encodes observed (0 for a fully prepared model).
    pub fn encodes(&self) -> u64 {
        self.encodes.load(Ordering::Relaxed)
    }

    /// JSON snapshot of this model's counters, with `page` stats when the
    /// model serves from a memory-capped pager.
    pub fn snapshot(&self, name: &str, page: Option<PageStats>) -> Value {
        let mut fields = vec![
            ("model".to_string(), Value::Str(name.to_string())),
            num("submitted", self.submitted.load(Ordering::Relaxed)),
            num("completed", self.completed.load(Ordering::Relaxed)),
            num("errors", self.errors()),
            (
                "errors_by_class".to_string(),
                Value::Obj(
                    ErrorClass::ALL
                        .iter()
                        .map(|&c| num(c.name(), self.errors_of(c)))
                        .collect(),
                ),
            ),
            num("queue_depth", self.queue_depth.load(Ordering::Relaxed)),
            num(
                "peak_queue_depth",
                self.peak_queue_depth.load(Ordering::Relaxed),
            ),
            num(
                "encodes_per_inference_total",
                self.encodes.load(Ordering::Relaxed),
            ),
            (
                "latency_ms".to_string(),
                latency_percentiles(&self.latencies),
            ),
        ];
        if let Some(p) = page {
            fields.push((
                "page".to_string(),
                Value::Obj(vec![
                    num("faults", p.faults),
                    num("evictions", p.evictions),
                    num("hits", p.hits),
                    num("prefetches", p.prefetches),
                    num("prefetch_hits", p.prefetch_hits),
                    num("resident_bytes", p.resident_bytes),
                    num("resident_layers", p.resident_layers),
                ]),
            ));
        }
        Value::Obj(fields)
    }
}

fn num(key: &str, v: u64) -> (String, Value) {
    (key.to_string(), Value::Num(v as f64))
}

/// p50/p95/p99/max in milliseconds over every completed request.
///
/// Ceil-based nearest-rank: the smallest sample ≥ fraction p of the
/// population, rank ⌈p·n⌉ (1-based) — the histogram's quantile is built
/// on exactly these semantics, quantized to its bucket midpoints (≤0.8%
/// relative error) with `max` exact.
fn latency_percentiles(lat: &LogHistogram) -> Value {
    if lat.count() == 0 {
        return Value::Null;
    }
    let pick = |p: f64| Value::Num(lat.value_at_quantile(p) as f64 * 1e-6);
    Value::Obj(vec![
        ("p50".to_string(), pick(0.50)),
        ("p95".to_string(), pick(0.95)),
        ("p99".to_string(), pick(0.99)),
        ("max".to_string(), Value::Num(lat.max() as f64 * 1e-6)),
        ("count".to_string(), Value::Num(lat.count() as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Percentile of `n` synthetic samples `1..=n` ms, in ms, through the
    /// full `note_done` → snapshot path.
    fn pctl(n: usize, key: &str) -> f64 {
        let m = ModelMetrics::default();
        for i in 1..=n {
            m.note_done(i as f64 * 1e-3, 0);
        }
        m.snapshot("m", None)
            .get("latency_ms")
            .and_then(|l| l.get(key))
            .and_then(Value::as_f64)
            .unwrap()
    }

    /// Bucket-midpoint quantization bounds the histogram's relative error
    /// by 2^-7 ≈ 0.8%; assert within 1%.
    fn close(got: f64, want: f64) -> bool {
        (got - want).abs() <= want * 0.01
    }

    #[test]
    fn nearest_rank_boundaries() {
        // one sample: every percentile is that sample (min==max ⇒ exact)
        for key in ["p50", "p95", "p99", "max"] {
            assert_eq!(pctl(1, key), 1.0, "{key} of a single sample");
        }
        // p50 of 4 = rank ⌈2⌉ = sample 2 (round-half selection picked 3)
        assert!(close(pctl(4, "p50"), 2.0), "got {}", pctl(4, "p50"));
        // p50 of an odd window is the true median
        assert!(close(pctl(9, "p50"), 5.0), "got {}", pctl(9, "p50"));
        // p95 of 10 = rank ⌈9.5⌉ = sample 10
        assert!(close(pctl(10, "p95"), 10.0), "got {}", pctl(10, "p95"));
        // p99 of 67 = rank ⌈66.33⌉ = sample 67 (round-half selection
        // under-reported the tail as sample 66)
        assert!(close(pctl(67, "p99"), 67.0), "got {}", pctl(67, "p99"));
        // p99 of 100 = rank 99 exactly — NOT the max
        assert!(close(pctl(100, "p99"), 99.0), "got {}", pctl(100, "p99"));
        assert!(close(pctl(100, "max"), 100.0), "got {}", pctl(100, "max"));
        // p95 of 100 = rank 95
        assert!(close(pctl(100, "p95"), 95.0), "got {}", pctl(100, "p95"));
        // tail percentiles are monotone in p
        for n in [2, 3, 10, 50, 101] {
            assert!(pctl(n, "p50") <= pctl(n, "p95"));
            assert!(pctl(n, "p95") <= pctl(n, "p99"));
            assert!(pctl(n, "p99") <= pctl(n, "max"));
        }
    }

    #[test]
    fn depth_tracks_queue_flow() {
        let m = ModelMetrics::default();
        for _ in 0..5 {
            m.note_submit();
        }
        assert_eq!(m.queue_depth(), 5);
        for _ in 0..5 {
            m.note_dequeue();
        }
        assert_eq!(m.queue_depth(), 0);
        m.note_done(0.010, 0);
        m.note_done(0.020, 0);
        m.note_error(ErrorClass::Panic);
        let snap = m.snapshot("m", None);
        let get = |k: &str| snap.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(get("submitted"), 5.0);
        assert_eq!(get("completed"), 2.0);
        assert_eq!(get("errors"), 1.0);
        assert_eq!(get("peak_queue_depth"), 5.0);
        let p50 = snap
            .get("latency_ms")
            .and_then(|l| l.get("p50"))
            .and_then(Value::as_f64)
            .unwrap();
        assert!((10.0..=20.0).contains(&p50));
    }

    #[test]
    fn error_classes_tally_independently() {
        let m = ModelMetrics::default();
        m.note_error(ErrorClass::QueueFull);
        m.note_error(ErrorClass::Store);
        m.note_error(ErrorClass::Store);
        m.note_error(ErrorClass::Panic);
        m.note_error(ErrorClass::BadInput);
        assert_eq!(m.errors(), 5, "total is the sum over classes");
        assert_eq!(m.errors_of(ErrorClass::Store), 2);
        let snap = m.snapshot("m", None);
        assert_eq!(snap.get("errors").and_then(Value::as_f64), Some(5.0));
        let by = snap.get("errors_by_class").expect("errors_by_class");
        let get = |k: &str| by.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(get("queue_full"), 1.0);
        assert_eq!(get("store_fault"), 2.0);
        assert_eq!(get("panic"), 1.0);
        assert_eq!(get("bad_input"), 1.0);
    }
}
