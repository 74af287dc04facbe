//! Critical-path analysis over scheduler runs: a longest-path DP over
//! the executed unit DAG weighted by measured per-unit durations, plus a
//! bounded in-memory log of per-run reports the serve metrics export.

use parking_lot::Mutex;
use serde::Value;
use std::collections::VecDeque;
use std::sync::LazyLock;

/// Run reports retained in memory (ring buffer; serving keeps the tail).
const MAX_RUNS: usize = 64;

/// One unit on (or near) the critical path of a run.
#[derive(Clone, Debug)]
pub struct CritUnit {
    /// Plan index of the unit.
    pub unit: usize,
    /// Human label, e.g. `"step_ct conv1 ct2"`.
    pub label: String,
    /// Measured execution time.
    pub dur_ns: u64,
}

/// Timing summary of one `run_plan` execution.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Request id the run served, when executed by the serve layer.
    pub req: Option<u64>,
    /// Pool width (`rayon::current_num_threads()`) during the run.
    pub threads: usize,
    /// Units in the executed plan.
    pub units: usize,
    /// Wall-clock time of the whole walk.
    pub wall_ns: u64,
    /// Σ per-unit execution time (≤ `wall_ns`: the walk runs its units
    /// one after another).
    pub busy_ns: u64,
    /// Inert, always 0: a walk runs each unit as soon as the one before it
    /// finishes, so no unit waits in a ready queue. Kept only because the
    /// benchmark's pinned program surface reads it.
    pub queue_ns: u64,
    /// Longest dependency-ordered execution chain (the lower bound on
    /// wall time at infinite parallelism).
    pub critical_path_ns: u64,
    /// Heaviest units on the critical path, descending by duration.
    pub top: Vec<CritUnit>,
}

impl RunReport {
    /// JSON form for `Server::metrics_json` and the flat summary.
    pub fn to_value(&self) -> Value {
        let ms = |ns: u64| Value::Num(ns as f64 * 1e-6);
        let mut fields = vec![
            ("threads".to_string(), Value::Num(self.threads as f64)),
            ("units".to_string(), Value::Num(self.units as f64)),
            ("wall_ms".to_string(), ms(self.wall_ns)),
            ("busy_ms".to_string(), ms(self.busy_ns)),
            ("critical_path_ms".to_string(), ms(self.critical_path_ns)),
            (
                "parallelism".to_string(),
                Value::Num(if self.wall_ns == 0 {
                    0.0
                } else {
                    self.busy_ns as f64 / self.wall_ns as f64
                }),
            ),
            (
                "critical_path_top".to_string(),
                Value::Arr(
                    self.top
                        .iter()
                        .map(|u| {
                            Value::Obj(vec![
                                ("unit".to_string(), Value::Num(u.unit as f64)),
                                ("label".to_string(), Value::Str(u.label.clone())),
                                ("dur_ms".to_string(), ms(u.dur_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(req) = self.req {
            fields.insert(0, ("req".to_string(), Value::Num(req as f64)));
        }
        Value::Obj(fields)
    }
}

/// Longest path through a DAG of `dur[i]`-weighted nodes. `deps[i]`
/// must reference earlier indices only (plan order is topological).
/// Returns the path weight and the node indices along it, in execution
/// order.
pub fn critical_path(dur: &[u64], deps: &[&[usize]]) -> (u64, Vec<usize>) {
    assert_eq!(dur.len(), deps.len());
    if dur.is_empty() {
        return (0, Vec::new());
    }
    let n = dur.len();
    let mut finish = vec![0u64; n];
    let mut pred = vec![usize::MAX; n];
    for i in 0..n {
        let mut start = 0u64;
        for &d in deps[i] {
            debug_assert!(d < i, "deps must be topologically ordered");
            if finish[d] > start {
                start = finish[d];
                pred[i] = d;
            }
        }
        finish[i] = start + dur[i];
    }
    let mut end = 0;
    for i in 1..n {
        if finish[i] > finish[end] {
            end = i;
        }
    }
    let total = finish[end];
    let mut path = Vec::new();
    let mut cur = end;
    loop {
        path.push(cur);
        if pred[cur] == usize::MAX {
            break;
        }
        cur = pred[cur];
    }
    path.reverse();
    (total, path)
}

static RUNS: LazyLock<Mutex<VecDeque<RunReport>>> = LazyLock::new(|| Mutex::new(VecDeque::new()));

/// Append a run report to the bounded in-memory log.
pub fn record_run(report: RunReport) {
    let mut runs = RUNS.lock();
    if runs.len() == MAX_RUNS {
        runs.pop_front();
    }
    runs.push_back(report);
}

/// All retained run reports, oldest first.
pub fn runs() -> Vec<RunReport> {
    RUNS.lock().iter().cloned().collect()
}

/// The most recent run report.
pub fn last_run() -> Option<RunReport> {
    RUNS.lock().back().cloned()
}

/// Clear the run log (tests and fresh trace sessions).
pub fn clear_runs() {
    RUNS.lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_path_picks_the_heavy_chain() {
        // 0 → 1 → 3 (durations 10, 1, 5) and 0 → 2 → 3 (10, 20, 5):
        // the heavy chain goes through 2.
        let dur = [10, 1, 20, 5];
        let d0: &[usize] = &[];
        let d1: &[usize] = &[0];
        let d2: &[usize] = &[0];
        let d3: &[usize] = &[1, 2];
        let (total, path) = critical_path(&dur, &[d0, d1, d2, d3]);
        assert_eq!(total, 35);
        assert_eq!(path, vec![0, 2, 3]);
    }

    #[test]
    fn independent_nodes_pick_the_heaviest() {
        let dur = [3, 9, 4];
        let e: &[usize] = &[];
        let (total, path) = critical_path(&dur, &[e, e, e]);
        assert_eq!(total, 9);
        assert_eq!(path, vec![1]);
    }

    #[test]
    fn empty_dag() {
        let (total, path) = critical_path(&[], &[]);
        assert_eq!(total, 0);
        assert!(path.is_empty());
    }

    #[test]
    fn run_log_is_bounded() {
        clear_runs();
        for i in 0..(MAX_RUNS + 5) {
            record_run(RunReport {
                req: Some(i as u64),
                threads: 1,
                units: 1,
                wall_ns: 1,
                busy_ns: 1,
                queue_ns: 0,
                critical_path_ns: 1,
                top: Vec::new(),
            });
        }
        let runs = runs();
        assert_eq!(runs.len(), MAX_RUNS);
        assert_eq!(runs.last().unwrap().req, Some((MAX_RUNS + 4) as u64));
        clear_runs();
    }
}
