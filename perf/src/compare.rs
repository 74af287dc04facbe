//! `perf compare A.json B.json`: judges B against A, one row per
//! (workload, metric), by the direction and the gate `spec::END_TO_END`
//! gives each end-to-end metric; `failed_share` is gated on any increase
//! and the counts the program makes must repeat exactly.

use crate::spec::{self, Better, Gate};
use crate::stats::{median, quartiles};
use serde_json::Value;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the gate.
    Regression,
    /// The run-to-run spread exceeds the gate, so "no worse" cannot be
    /// told from noise (and B does not beat A on every run).
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// In the gate's terms — a share of `reference` or the metric's own unit.
fn in_terms_of(gate: Gate, amount: f64, reference: f64) -> f64 {
    match gate {
        Gate::Absolute(_) => amount,
        Gate::Share(_) if reference == 0.0 => 0.0,
        Gate::Share(_) => amount / reference.abs(),
    }
}

/// By how much B's median is worse than A's (negative: better).
pub fn worse_by(a_median: f64, b_median: f64, better: Better, gate: Gate) -> f64 {
    let amount = match better {
        Better::Lower => b_median - a_median,
        Better::Higher => a_median - b_median,
    };
    in_terms_of(gate, amount, a_median)
}

pub fn judge(a: &[f64], b: &[f64], better: Better, gate: Gate) -> Verdict {
    let (Gate::Share(limit) | Gate::Absolute(limit)) = gate;
    if worse_by(median(a), median(b), better, gate) > limit {
        return Verdict::Regression;
    }
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        in_terms_of(gate, q3 - q1, median(v))
    };
    let b_always_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if spread(a).max(spread(b)) > limit && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn samples(file: &Value, workload: &str, tier: &str, metric: &str) -> Vec<f64> {
    match file
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(tier))
        .and_then(|t| t.get(metric))
    {
        Some(Value::Arr(xs)) => xs.iter().filter_map(Value::as_f64).collect(),
        Some(Value::Num(x)) => vec![*x],
        _ => Vec::new(),
    }
}

/// `(failed ÷ attempted, correct)` of one workload, if the file has it.
fn failed_share(file: &Value, workload: &str) -> Option<(f64, bool)> {
    let w = file.get("workloads")?.get(workload)?;
    let attempted = w.get("attempted")?.as_f64()?;
    let failed = w.get("failed")?.as_f64()?;
    let correct = matches!(w.get("correct")?, Value::Bool(true));
    (attempted > 0.0).then_some((failed / attempted, correct))
}

#[derive(Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    pub regressions: usize,
    pub unresolved: usize,
    /// Exact counts that differ; each is also tallied as unresolved, since
    /// whoever changed a count has to say why.
    pub counts_changed: usize,
}

impl Outcome {
    fn tally(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Regression => self.regressions += 1,
            Verdict::Unresolved => self.unresolved += 1,
            Verdict::Ok => {}
        }
    }
}

/// Run length is set by the benchmark and is the same on both sides: two
/// files taken at different seeds, rounds or seconds are not compared.
fn same_settings(a: &Value, b: &Value) -> Result<(), String> {
    for key in ["seed", "rounds", "seconds"] {
        let (x, y) = (
            a.get(key).and_then(Value::as_f64),
            b.get(key).and_then(Value::as_f64),
        );
        if x.is_none() || x != y {
            return Err(format!(
                "the files were not taken at the same {key} ({x:?} against {y:?})"
            ));
        }
    }
    Ok(())
}

/// Prints one row per (workload, metric) and returns the tallies.
pub fn compare(a: &Value, b: &Value) -> Result<Outcome, String> {
    same_settings(a, b)?;
    let mut outcome = Outcome::default();
    println!(
        "{:<14} {:<20} {:>11} {:>23} {:>11} {:>23} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "worse", "gate"
    );
    for workload in spec::workload_names() {
        for m in &spec::END_TO_END {
            let gate = m.gate.expect("every end-to-end metric has a gate");
            let (xa, xb) = (
                samples(a, workload, "end_to_end", m.name),
                samples(b, workload, "end_to_end", m.name),
            );
            if xa.is_empty() || xb.is_empty() {
                println!("{workload:<14} {:<20} missing from one file", m.name);
                outcome.unresolved += 1;
                continue;
            }
            let verdict = judge(&xa, &xb, m.better, gate);
            outcome.tally(verdict);
            let q = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("[{q1:.4}, {q3:.4}]")
            };
            let worse = worse_by(median(&xa), median(&xb), m.better, gate);
            let (worse, limit) = match gate {
                Gate::Share(g) => (
                    format!("{:+.1}%", worse * 100.0),
                    format!("{:.0}%", g * 100.0),
                ),
                Gate::Absolute(g) => (format!("{worse:+.2}"), format!("{g}")),
            };
            println!(
                "{workload:<14} {:<20} {:>11.4} {:>23} {:>11.4} {:>23} {worse:>8} {limit:>6}  {}",
                m.name,
                median(&xa),
                q(&xa),
                median(&xb),
                q(&xb),
                verdict.as_str()
            );
        }
        // ISSUE 11's sixth metric: a gain does not count when more ops fail
        match (failed_share(a, workload), failed_share(b, workload)) {
            (Some((fa, _)), Some((fb, b_correct))) => {
                let verdict = if fb > fa || !b_correct {
                    Verdict::Regression
                } else {
                    Verdict::Ok
                };
                outcome.tally(verdict);
                println!(
                    "{workload:<14} {:<20} {fa:>11.4} {:>23} {fb:>11.4} {:>23} {:>8} {:>6}  {}{}",
                    "failed_share",
                    "",
                    "",
                    "",
                    "any",
                    verdict.as_str(),
                    if b_correct { "" } else { " (B is incorrect)" }
                );
            }
            _ => {
                println!(
                    "{workload:<14} {:<20} missing from one file",
                    "failed_share"
                );
                outcome.unresolved += 1;
            }
        }
        // counts the program makes must repeat exactly between two builds
        for m in spec::PER_LAYER.iter().filter(|m| is_exact_count(m)) {
            let (xa, xb) = (
                samples(a, workload, "per_layer", m.name),
                samples(b, workload, "per_layer", m.name),
            );
            if !xa.is_empty() && !xb.is_empty() && xa != xb {
                println!(
                    "{workload:<14} {:<20} count changed: {xa:?} -> {xb:?}  unresolved",
                    m.name
                );
                outcome.counts_changed += 1;
                outcome.unresolved += 1;
            }
        }
    }
    println!(
        "{} regression(s), {} unresolved, {} exact count(s) changed",
        outcome.regressions, outcome.unresolved, outcome.counts_changed
    );
    Ok(outcome)
}

/// Counts that are a pure function of the compiled program (the others —
/// queue depths, page faults per request — depend on timing).
fn is_exact_count(m: &spec::Metric) -> bool {
    m.unit == "count"
        && (m.name.starts_with("ops.") || m.name.starts_with("nn.") || m.name == "sched.units")
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN: Gate = Gate::Share(0.10);

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(100.0, 112.0, Better::Lower, TEN) - 0.12).abs() < 1e-12);
        assert!((worse_by(100.0, 112.0, Better::Higher, TEN) + 0.12).abs() < 1e-12);
        assert!((worse_by(100.0, 88.0, Better::Higher, TEN) - 0.12).abs() < 1e-12);
        assert_eq!(
            worse_by(20.0, 18.5, Better::Higher, Gate::Absolute(1.0)),
            1.5
        );
    }

    #[test]
    fn gate_separates_ok_from_regression() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&a, &[109.0, 110.0, 108.0], Better::Lower, TEN),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[111.0, 112.0, 113.0], Better::Lower, TEN),
            Verdict::Regression
        );
        assert_eq!(
            judge(&a, &[89.0, 88.0, 87.0], Better::Higher, TEN),
            Verdict::Regression
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0], Better::Higher, TEN),
            Verdict::Ok
        );
    }

    #[test]
    fn an_absolute_gate_does_not_scale_with_the_median() {
        let one_bit = Gate::Absolute(1.0);
        // 0.9 bit is inside the gate at 8 bits and at 40 bits alike
        for base in [8.0, 40.0] {
            let a = [base, base + 0.1, base - 0.1];
            let lower = |d: f64| a.map(|x| x - d);
            assert_eq!(judge(&a, &lower(0.9), Better::Higher, one_bit), Verdict::Ok);
            assert_eq!(
                judge(&a, &lower(1.1), Better::Higher, one_bit),
                Verdict::Regression
            );
        }
        assert_eq!(
            judge(
                &[20.0, 21.5, 19.0],
                &[20.0, 20.0, 20.0],
                Better::Higher,
                one_bit
            ),
            Verdict::Unresolved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_always_wins() {
        let noisy = [80.0, 100.0, 125.0];
        assert_eq!(
            judge(&noisy, &[100.0, 101.0, 99.0], Better::Lower, TEN),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[70.0, 71.0, 69.0], Better::Lower, TEN),
            Verdict::Ok
        );
        // a regression stays a regression however noisy the runs were
        assert_eq!(
            judge(&noisy, &[150.0, 151.0, 149.0], Better::Lower, TEN),
            Verdict::Regression
        );
    }

    /// A results file in which every workload reads the same.
    fn file(latency: &str, failed: u64, correct: bool, hrot: u64, seconds: u64) -> Value {
        let workload = format!(
            r#"{{"end_to_end":{{"setup_s":[2,2,2],"latency_ms":{latency},
                "throughput_ips":[5,5,5],"peak_rss_mb":[90,90,90],
                "precision_bits_min":[21,21,21]}},
               "per_layer":{{"ops.hrot":{hrot},"serve.peak_queue_depth":{hrot},"nn.opt_ms":{hrot}}},
               "attempted":100,"failed":{failed},"correct":{correct}}}"#
        );
        let workloads: Vec<String> = spec::workload_names()
            .iter()
            .map(|w| format!("\"{w}\":{workload}"))
            .collect();
        serde_json::parse_value(&format!(
            r#"{{"seed":7,"rounds":3,"seconds":{seconds},"workloads":{{{}}}}}"#,
            workloads.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn compare_reads_results_files() {
        let a = file("[10, 10.1, 9.9]", 0, true, 3, 12);
        let n = spec::WORKLOADS.len();
        let same = compare(&a, &file("[10.2, 10.3, 10.1]", 0, true, 3, 12)).unwrap();
        assert_eq!(same, Outcome::default());
        let slower = compare(&a, &file("[12, 12.1, 11.9]", 0, true, 3, 12)).unwrap();
        assert_eq!((slower.regressions, slower.unresolved), (n, 0));
    }

    #[test]
    fn more_failures_or_an_incorrect_run_regress() {
        let a = file("[10, 10.1, 9.9]", 1, true, 3, 12);
        let n = spec::WORKLOADS.len();
        let same = compare(&a, &file("[10, 10.1, 9.9]", 1, true, 3, 12)).unwrap();
        assert_eq!(same.regressions, 0);
        let fewer = compare(&a, &file("[10, 10.1, 9.9]", 0, true, 3, 12)).unwrap();
        assert_eq!(fewer.regressions, 0);
        let more = compare(&a, &file("[10, 10.1, 9.9]", 2, true, 3, 12)).unwrap();
        assert_eq!(more.regressions, n);
        let broken = compare(&a, &file("[10, 10.1, 9.9]", 1, false, 3, 12)).unwrap();
        assert_eq!(broken.regressions, n);
    }

    #[test]
    fn a_changed_exact_count_is_tallied_and_a_timing_count_is_not() {
        let a = file("[10, 10.1, 9.9]", 0, true, 3, 12);
        // `file` moves serve.peak_queue_depth and nn.opt_ms along with
        // ops.hrot, but a queue depth depends on timing and a time is not a
        // count: only ops.hrot is held to repeat
        let o = compare(&a, &file("[10, 10.1, 9.9]", 0, true, 4, 12)).unwrap();
        let n = spec::WORKLOADS.len();
        assert_eq!((o.regressions, o.unresolved, o.counts_changed), (0, n, n));
    }

    #[test]
    fn files_taken_at_different_lengths_are_refused() {
        let a = file("[10, 10.1, 9.9]", 0, true, 3, 12);
        assert!(compare(&a, &file("[10, 10.1, 9.9]", 0, true, 3, 20)).is_err());
        let no_settings = serde_json::parse_value(r#"{"workloads":{}}"#).unwrap();
        assert!(compare(&no_settings, &no_settings).is_err());
    }
}
