//! What every workload shares: the child's configuration, the partial
//! result a child hands back, op checking, and timing helpers.

use crate::stats::median;
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One child process: a workload's phase group at one pool width.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    /// `w1` (pool width 1) or `wn` (pool width `nproc`).
    pub group: String,
    pub seed: u64,
    /// Seconds the workload's timed phases share.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny op counts, one set-up: same code paths, no steady numbers.
    pub smoke: bool,
}

impl Config {
    pub fn warmup_ops(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// How often set-up runs for the `setup_s` median. A traced run wants
    /// the layers, not a steady `setup_s`, so it sets up once.
    pub fn setup_reps(&self, steady: usize) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            steady
        }
    }

    /// Fewest ops a timed phase runs, however short `--seconds` is.
    pub fn min_ops(&self, steady: usize) -> usize {
        if self.smoke {
            1
        } else {
            steady
        }
    }

    /// Rounds a run's timed phases are split into. The phases take turns
    /// (latency, throughput, latency, …), so that each metric samples the
    /// whole run: a neighbour that is busy for ten seconds slows a third of
    /// every metric's samples instead of all of one metric's.
    pub fn rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// One round's slice of a phase that gets `share` of `--seconds`.
    pub fn slice(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share / self.rounds() as f64)
    }
}

/// What a child reports. Metric names are those of `spec`; `aux` carries
/// values the parent combines across groups.
#[derive(Default, Debug)]
pub struct Partial {
    pub metrics: BTreeMap<String, f64>,
    pub aux: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Cleared by any check that is not about a single op (a count that
    /// must be 0, a share outside its design range).
    pub invariants_hold: bool,
    pub notes: Vec<String>,
}

impl Partial {
    pub fn new() -> Self {
        Self {
            invariants_hold: true,
            ..Self::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::spec::find(name).is_some(),
            "undeclared metric {name}"
        );
        self.metrics.insert(name.to_string(), value);
    }

    pub fn aux(&mut self, name: &str, value: f64) {
        self.aux.insert(name.to_string(), value);
    }

    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.invariants_hold = false;
            self.notes.push(what());
        }
    }

    pub fn to_json(&self) -> Value {
        let map = |m: &BTreeMap<String, f64>| {
            Value::Obj(m.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect())
        };
        Value::Obj(vec![
            ("metrics".into(), map(&self.metrics)),
            ("aux".into(), map(&self.aux)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("invariants_hold".into(), Value::Bool(self.invariants_hold)),
            (
                "notes".into(),
                Value::Arr(self.notes.iter().map(|n| Value::Str(n.clone())).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let map = |key: &str| -> Result<BTreeMap<String, f64>, String> {
            match v.get(key) {
                Some(Value::Obj(fields)) => fields
                    .iter()
                    .map(|(k, x)| {
                        // the shim renders non-finite numbers as null
                        Ok((k.clone(), x.as_f64().unwrap_or(f64::NAN)))
                    })
                    .collect(),
                _ => Err(format!("child result lacks {key}")),
            }
        };
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("child result lacks {key}"))
        };
        Ok(Self {
            metrics: map("metrics")?,
            aux: map("aux")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            invariants_hold: matches!(v.get("invariants_hold"), Some(Value::Bool(true))),
            notes: match v.get("notes") {
                Some(Value::Arr(items)) => items
                    .iter()
                    .filter_map(|n| n.as_str().map(str::to_string))
                    .collect(),
                _ => Vec::new(),
            },
        })
    }
}

/// Tally of checked ops and the precision floor they are held to.
pub struct Checker {
    pub floor_bits: f64,
    pub attempted: u64,
    pub failed: u64,
    pub min_bits: f64,
}

impl Checker {
    pub fn new(floor_bits: f64) -> Self {
        Self {
            floor_bits,
            attempted: 0,
            failed: 0,
            min_bits: f64::INFINITY,
        }
    }

    /// Counts one op whose output precision is `bits` (`None`: it errored,
    /// was refused or panicked).
    pub fn op(&mut self, bits: Option<f64>) {
        self.attempted += 1;
        match bits {
            Some(b) if b >= self.floor_bits => self.min_bits = self.min_bits.min(b),
            Some(b) if b.is_finite() => {
                self.min_bits = self.min_bits.min(b);
                self.failed += 1;
            }
            _ => self.failed += 1,
        }
    }

    /// Adds the tally of another thread's checker to this one.
    pub fn absorb(&mut self, other: &Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.min_bits = self.min_bits.min(other.min_bits);
    }

    pub fn fold_into(&self, partial: &mut Partial) {
        partial.attempted += self.attempted;
        partial.failed += self.failed;
        if self.min_bits.is_finite() {
            partial.set("precision_bits_min", self.min_bits);
        }
    }
}

/// Runs `f`, turning a panic inside the program into `None` so that one
/// bad op is counted as failed instead of ending the run.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Median seconds of `reps` timed calls after one discarded call.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The op time the gated timings are built on: the fastest of the run.
/// An op is deterministic work, so whatever a sample reads above the fastest
/// one was added by the host — on the reference host a neighbour on the
/// sibling hardware thread, for seconds to minutes at a time, up to 3× on
/// the NTT-bound ops. Over two ten-seed sets of `lola_linear` an hour apart
/// the fastest op spread 9.9 % and 4.7 % and its median moved 13.5 %; the
/// median op spread 28.7 % and 4.6 % and moved 18.6 % (README, "Five
/// designs"). 0 for no samples.
pub fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Calls `op` until `phase` has elapsed and at least `min_ops` ran;
/// returns each call's seconds.
pub fn timed_loop(phase: Duration, min_ops: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_ops || start.elapsed() < phase {
        let t = Instant::now();
        op(samples.len());
        samples.push(t.elapsed().as_secs_f64());
    }
    samples
}

/// The throughput phase of ops that never enter the shared pool: `threads`
/// harness threads each call `op(thread, i, checker)` until `phase` has
/// elapsed, and at least once. Returns the merged tally and, per thread,
/// the seconds each of its ops took while `threads` ops were in flight.
pub fn thread_fanout(
    threads: usize,
    phase: Duration,
    floor_bits: f64,
    op: impl Fn(usize, usize, &mut Checker) + Sync,
) -> (Checker, Vec<Vec<f64>>) {
    let start = Instant::now();
    let per_thread: Vec<(Checker, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let op = &op;
                scope.spawn(move || {
                    let mut check = Checker::new(floor_bits);
                    let mut took = Vec::new();
                    while took.is_empty() || start.elapsed() < phase {
                        let began = Instant::now();
                        op(t, took.len(), &mut check);
                        took.push(began.elapsed().as_secs_f64());
                    }
                    (check, took)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("throughput thread"))
            .collect()
    });
    let mut all = Checker::new(floor_bits);
    let mut took = Vec::new();
    for (check, t) in per_thread {
        all.absorb(&check);
        took.push(t);
    }
    (all, took)
}

/// The op times of the `thread_fanout` slices of a run, per thread, and the
/// rate they amount to.
#[derive(Default)]
pub struct Fanned {
    per_thread: Vec<Vec<f64>>,
}

impl Fanned {
    pub fn absorb(&mut self, slice: Vec<Vec<f64>>) {
        self.per_thread
            .resize(slice.len().max(self.per_thread.len()), Vec::new());
        for (all, took) in self.per_thread.iter_mut().zip(slice) {
            all.extend(took);
        }
    }

    /// Ops per second with one op in flight on every thread: Σ over the
    /// threads of 1 ÷ the thread's fastest op. What the threads take from
    /// one another all the time (memory bandwidth, a lock every op passes)
    /// is in every op and so in the fastest; what the host takes now and
    /// then is not — ops ÷ wall moved 36 % between two states of the
    /// reference host, this 18 %.
    pub fn rate(&self) -> f64 {
        self.per_thread.iter().map(|t| 1.0 / fastest(t)).sum()
    }

    /// Ops completed ÷ wall, for the results file: threads × ops ÷ Σ of the
    /// ops' seconds, which leaves out the tail a thread idles through after
    /// its last op of a slice while another finishes.
    pub fn completed_rate(&self) -> f64 {
        let ops: usize = self.per_thread.iter().map(Vec::len).sum();
        let seconds: f64 = self.per_thread.iter().flatten().sum();
        self.per_thread.len() as f64 * ops as f64 / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_fanout_times_every_op_and_merges_the_tallies() {
        let (check, took) = thread_fanout(2, Duration::from_millis(30), 10.0, |t, _, c| {
            std::thread::sleep(Duration::from_millis(5));
            c.op(Some(if t == 0 { 20.0 } else { 12.0 }));
        });
        assert!(check.attempted >= 2 && check.failed == 0);
        assert_eq!(check.min_bits, 12.0);
        assert_eq!(took.len(), 2);
        let ops: usize = took.iter().map(Vec::len).sum();
        assert_eq!(ops as u64, check.attempted);
        assert!(took.iter().flatten().all(|&s| s >= 0.005));
        // two threads, each op at least 5 ms: under 400 ops/s
        let mut fanned = Fanned::default();
        fanned.absorb(took);
        assert!(fanned.rate() > 0.0 && fanned.rate() < 400.0);
    }

    #[test]
    fn fanned_rate_adds_each_threads_fastest_op_over_all_slices() {
        let mut fanned = Fanned::default();
        fanned.absorb(vec![vec![0.5, 0.9], vec![0.8]]);
        fanned.absorb(vec![vec![0.7], vec![0.25, 0.4]]);
        assert_eq!(fanned.rate(), 1.0 / 0.5 + 1.0 / 0.25);
        assert!((fanned.completed_rate() - 2.0 * 6.0 / 3.55).abs() < 1e-9);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn checker_counts_low_precision_and_missing_outputs_as_failed() {
        let mut c = Checker::new(10.0);
        c.op(Some(20.0));
        c.op(Some(9.0));
        c.op(Some(f64::NAN));
        c.op(None);
        assert_eq!((c.attempted, c.failed, c.min_bits), (4, 3, 9.0));
    }

    #[test]
    fn partial_round_trips_through_json() {
        let mut p = Partial::new();
        p.set("setup_s", 1.25);
        p.aux("single_p50_ms", 3.5);
        p.attempted = 7;
        p.require(false, || "broken".into());
        let text = serde_json::to_string(&p.to_json()).unwrap();
        let q = Partial::from_json(&serde_json::parse_value(&text).unwrap()).unwrap();
        assert_eq!(q.metrics["setup_s"], 1.25);
        assert_eq!(q.aux["single_p50_ms"], 3.5);
        assert_eq!((q.attempted, q.failed, q.invariants_hold), (7, 0, false));
        assert_eq!(q.notes, vec!["broken".to_string()]);
    }

    #[test]
    fn guarded_turns_a_panic_into_none() {
        assert_eq!(guarded(|| 3), Some(3));
        assert_eq!(guarded(|| -> i32 { panic!("op failed") }), None);
    }

    #[test]
    fn timed_loop_honours_the_minimum() {
        let samples = timed_loop(Duration::ZERO, 3, |_| {});
        assert_eq!(samples.len(), 3);
    }
}
