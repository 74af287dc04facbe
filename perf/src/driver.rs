//! `perf run`: every workload, `spec::ROUNDS` interleaved rounds (A B C D,
//! A B C D, …) so that slow drift of the host falls on all workloads alike,
//! then one traced pass for the per-layer ledger. `perf selfcheck`: two
//! such suites on the same build, their rounds alternating, judged by
//! `compare`.

use crate::orchestrate::{run_workload, RunResult};
use crate::stats::{median, spread};
use crate::{api, compare, host, spec};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// A run is flagged unstable when the harness-only calibration loop moved
/// by more than this between rounds: the host changed, not the repo.
const CALIB_SPREAD_LIMIT: f64 = 0.10;
/// `--seconds` of a smoke run: enough for every code path, not for steady
/// numbers.
const SMOKE_SECONDS: f64 = 2.0;

#[derive(Default)]
struct WorkloadRows {
    end_to_end: BTreeMap<String, Vec<f64>>,
    per_layer: BTreeMap<String, f64>,
    info: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    correct: bool,
    notes: Vec<String>,
}

impl WorkloadRows {
    fn add(&mut self, r: RunResult, keep_end_to_end: bool) {
        if keep_end_to_end {
            for (k, v) in r.end_to_end {
                self.end_to_end.entry(k).or_default().push(v);
            }
        }
        if !r.per_layer.is_empty() {
            self.per_layer = r.per_layer;
        }
        self.info.extend(r.info);
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.correct &= r.correct;
        self.notes.extend(r.notes);
    }
}

fn obj<V>(map: &BTreeMap<String, V>, f: impl Fn(&V) -> Value) -> Value {
    Value::Obj(map.iter().map(|(k, v)| (k.clone(), f(v))).collect())
}

/// One pass of the suite over every workload, filled round by round.
struct Suite {
    seed: u64,
    smoke: bool,
    rows: BTreeMap<&'static str, WorkloadRows>,
    calib: Vec<f64>,
}

impl Suite {
    fn new(seed: u64, smoke: bool) -> Self {
        let rows = spec::workload_names()
            .into_iter()
            .map(|w| {
                let rows = WorkloadRows {
                    correct: true,
                    ..WorkloadRows::default()
                };
                (w, rows)
            })
            .collect();
        Self {
            seed,
            smoke,
            rows,
            calib: Vec::new(),
        }
    }

    fn seconds(&self) -> f64 {
        if self.smoke {
            SMOKE_SECONDS
        } else {
            spec::RUN_SECONDS as f64
        }
    }

    /// Smoke: the traced pass alone, and its end-to-end numbers stand in.
    fn untraced_rounds(&self) -> usize {
        if self.smoke {
            0
        } else {
            spec::ROUNDS
        }
    }

    fn untraced_round(&mut self, round: usize) -> Result<(), String> {
        self.calib.push(host::calib_ms());
        for w in spec::workload_names() {
            eprintln!("round {}/{}: {w}", round + 1, spec::ROUNDS);
            let r = run_workload(w, self.seed, self.seconds(), false, false)?;
            self.rows
                .get_mut(w)
                .expect("declared workload")
                .add(r, true);
        }
        Ok(())
    }

    fn traced_pass(&mut self) -> Result<(), String> {
        self.calib.push(host::calib_ms());
        for w in spec::workload_names() {
            eprintln!("traced pass: {w}");
            let r = run_workload(w, self.seed, self.seconds(), true, self.smoke)?;
            self.rows
                .get_mut(w)
                .expect("declared workload")
                .add(r, self.smoke);
        }
        Ok(())
    }

    /// Prints the tables and writes the results file `name` under
    /// `perf/results/`; returns the file's contents and whether every
    /// output was correct.
    fn finish(self, name: &str) -> Result<(Value, bool), String> {
        let Suite {
            seed,
            smoke,
            rows,
            calib,
        } = &self;
        let unstable = spread(calib) > CALIB_SPREAD_LIMIT;
        print_tables(rows, calib, unstable);

        let workloads = Value::Obj(
            spec::workload_names()
                .into_iter()
                .map(|w| {
                    let r = &rows[w];
                    (
                        w.to_string(),
                        Value::Obj(vec![
                            (
                                "end_to_end".into(),
                                obj(&r.end_to_end, |v| {
                                    Value::Arr(v.iter().map(|x| Value::Num(*x)).collect())
                                }),
                            ),
                            ("per_layer".into(), obj(&r.per_layer, |v| Value::Num(*v))),
                            ("info".into(), obj(&r.info, |v| Value::Num(*v))),
                            ("attempted".into(), Value::Num(r.attempted as f64)),
                            ("failed".into(), Value::Num(r.failed as f64)),
                            ("correct".into(), Value::Bool(r.correct)),
                            (
                                "notes".into(),
                                Value::Arr(r.notes.iter().map(|n| Value::Str(n.clone())).collect()),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let host_facts = Value::Obj(
            host::fingerprint(api::simd_dispatch())
                .into_iter()
                .map(|(k, v)| (k.to_string(), Value::Str(v)))
                .collect(),
        );
        let file = Value::Obj(vec![
            ("schema".into(), Value::Num(1.0)),
            ("host".into(), host_facts),
            ("seed".into(), Value::Num(*seed as f64)),
            (
                "rounds".into(),
                Value::Num(self.untraced_rounds().max(1) as f64),
            ),
            ("seconds".into(), Value::Num(self.seconds())),
            ("smoke".into(), Value::Bool(*smoke)),
            (
                "calib_ms".into(),
                Value::Arr(calib.iter().map(|x| Value::Num(*x)).collect()),
            ),
            ("unstable".into(), Value::Bool(unstable)),
            ("workloads".into(), workloads),
            // this benchmark measures; it claims no gain
            ("claim".into(), Value::Null),
        ]);
        let path = host::results_dir().join(name);
        write_json(&path, &file)?;
        println!("results: {}", path.display());
        Ok((file, rows.values().all(|r| r.correct)))
    }
}

/// Runs the suite and writes the results file; returns whether every
/// output was correct.
pub fn run(seed: u64, smoke: bool) -> Result<bool, String> {
    let mut suite = Suite::new(seed, smoke);
    for round in 0..suite.untraced_rounds() {
        suite.untraced_round(round)?;
    }
    suite.traced_pass()?;
    let tag = if smoke { "-smoke" } else { "" };
    let (_, correct) = suite.finish(&format!("run-seed{seed}{tag}.json"))?;
    Ok(correct)
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn print_tables(rows: &BTreeMap<&str, WorkloadRows>, calib: &[f64], unstable: bool) {
    println!("\nend to end (median over rounds; ± is the interquartile range as a share of it)");
    print!("{:<14}", "workload");
    for m in &spec::END_TO_END {
        print!(" {:>26}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>9} {:>7} {:>12}", "attempted", "failed", "failed_share");
    for w in spec::workload_names() {
        let r = &rows[w];
        print!("{w:<14}");
        for m in &spec::END_TO_END {
            let v = r.end_to_end.get(m.name).map_or(&[][..], Vec::as_slice);
            print!(
                " {:>26}",
                format!("{:.4} ±{:.1}%", median(v), spread(v) * 100.0)
            );
        }
        println!(
            " {:>9} {:>7} {:>12.4}{}",
            r.attempted,
            r.failed,
            r.failed as f64 / r.attempted.max(1) as f64,
            if r.correct { "" } else { "  INCORRECT" }
        );
        for note in &r.notes {
            println!("    note: {note}");
        }
    }
    println!("\nper layer (traced pass; 0 = the workload leaves that layer idle)");
    print!("{:<34} {:<15}", "metric", "unit");
    for w in spec::workload_names() {
        print!(" {w:>14}");
    }
    println!();
    for m in &spec::PER_LAYER {
        print!("{:<34} {:<15}", m.name, m.unit);
        for w in spec::workload_names() {
            print!(
                " {:>14.4}",
                rows[w].per_layer.get(m.name).copied().unwrap_or(0.0)
            );
        }
        println!();
    }
    println!(
        "\nhost.calib_ms per round: {calib:.2?} (spread {:.1}%){}",
        spread(calib) * 100.0,
        if unstable {
            "  UNSTABLE: the host moved during the run"
        } else {
            ""
        }
    );
}

pub fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the suite twice on this build and compares the two. The sides take
/// turns going first (a b, b a, a b), so that drift of the host over the
/// minutes a suite takes is not read as a difference between them.
/// `Ok(true)` when every output was correct, no metric regressed and every
/// exact count repeated; metrics `compare` calls unresolved do not fail it.
pub fn selfcheck(seed: u64) -> Result<bool, String> {
    let mut sides = [Suite::new(seed, false), Suite::new(seed, false)];
    for round in 0..spec::ROUNDS {
        for side in if round % 2 == 0 { [0, 1] } else { [1, 0] } {
            eprintln!("side {}", ["a", "b"][side]);
            sides[side].untraced_round(round)?;
        }
    }
    for side in &mut sides {
        side.traced_pass()?;
    }
    let [a, b] = sides;
    let (a, a_correct) = a.finish(&format!("selfcheck-seed{seed}-a.json"))?;
    let (b, b_correct) = b.finish(&format!("selfcheck-seed{seed}-b.json"))?;
    let outcome = compare::compare(&a, &b)?;
    Ok(a_correct && b_correct && outcome.regressions == 0 && outcome.counts_changed == 0)
}
