//! One benchmark run of one workload: a child process per phase group,
//! strictly one at a time, merged into the result the contract prints.
//!
//! Children exist because the program's shared pool fixes its width at
//! first use: the FHE workloads time at width 1 and the server runs at
//! width `nproc`, and a traced FHE run looks at both — and because
//! `peak_rss_mb` is then per workload.

use crate::common::{Config, Partial};
use crate::{host, spec};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longest the children of one run may take together: the contract wants
/// an exit within 180 s. A run takes 22–62 s; `lola_linear`'s set-up alone
/// has read 20 s on a busy host.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Phase groups of a workload as `(group, pool width)`.
pub fn groups(workload: &str, trace: bool) -> Result<Vec<(&'static str, usize)>, String> {
    let n = host::nproc();
    match workload {
        // both timed phases at width 1; the program's pool at width `nproc`
        // is looked at in the per-layer tier only
        "lola_linear" | "resblock_act" if trace => Ok(vec![("w1", 1), ("wn", n)]),
        "lola_linear" | "resblock_act" => Ok(vec![("w1", 1)]),
        // the server is a multi-threaded deployment: all phases at `nproc`
        "serve_mixed" => Ok(vec![("wn", n)]),
        // the compiler never touches the pool: one child runs both phases
        "compile_zoo" => Ok(vec![("w1", 1)]),
        other => Err(format!(
            "unknown workload {other}; the workloads are {:?}",
            spec::workload_names()
        )),
    }
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, f64>,
    /// Empty unless the run was traced.
    pub per_layer: BTreeMap<String, f64>,
    /// Sample counts and pool widths, for the results file.
    pub info: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

fn run_child(cfg: &Config, width: usize, deadline: Instant) -> Result<Partial, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", &cfg.workload, "--group", &cfg.group])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .env("RAYON_NUM_THREADS", width.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    // No process outlives this call: a child that overstays (the program
    // can deadlock, see `api::infer_batch`) is killed and waited for.
    while child.try_wait().map_err(|e| e.to_string())?.is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "child {}/{} killed: the run passed {RUN_LIMIT:?}",
                cfg.workload, cfg.group
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // the result is one short line, far below the pipe's capacity
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "child {}/{} ended with {}",
            cfg.workload, cfg.group, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let value = serde_json::parse_value(line).map_err(|e| format!("child result: {e}"))?;
    Partial::from_json(&value)
}

/// Folds the groups' partial results into one.
pub fn merge(partials: Vec<(&str, Partial)>, trace: bool) -> Result<RunResult, String> {
    let mut all: BTreeMap<String, f64> = BTreeMap::new();
    let mut res = RunResult {
        correct: true,
        ..RunResult::default()
    };
    // medians of a single op at width 1 and at width `nproc`
    let (mut single_p50_w1, mut single_p50_wn) = (None, None);
    for (group, p) in partials {
        for (k, v) in p.metrics {
            let merged = match (k.as_str(), all.get(&k)) {
                ("peak_rss_mb", Some(&old)) => old.max(v),
                ("precision_bits_min", Some(&old)) => old.min(v),
                _ => v,
            };
            all.insert(k, merged);
        }
        for (k, v) in p.aux {
            match k.as_str() {
                "latency_p50_ms" => single_p50_w1 = Some(v),
                "single_p50_ms" => single_p50_wn = Some(v),
                _ => {}
            }
            res.info.insert(format!("{group}.{k}"), v);
        }
        res.attempted += p.attempted;
        res.failed += p.failed;
        res.correct &= p.invariants_hold;
        res.notes.extend(p.notes);
    }
    if let (Some(single), Some(p50)) = (single_p50_wn, single_p50_w1) {
        if single > 0.0 {
            all.insert("sched.par_speedup".into(), p50 / single);
        }
    }
    for m in &spec::END_TO_END {
        let v = all
            .remove(m.name)
            .ok_or_else(|| format!("no child reported {}", m.name))?;
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("{} = {v} is not a positive number", m.name));
        }
        res.end_to_end.insert(m.name.to_string(), v);
    }
    if trace {
        for m in &spec::PER_LAYER {
            // a layer the workload leaves idle reads 0
            let v = all.remove(m.name).unwrap_or(0.0);
            if !v.is_finite() {
                res.notes.push(format!("{} was not finite", m.name));
                res.correct = false;
            }
            res.per_layer
                .insert(m.name.to_string(), if v.is_finite() { v } else { 0.0 });
        }
    }
    if let Some(stray) = all.keys().find(|k| spec::find(k).is_none()) {
        return Err(format!("a child reported undeclared metric {stray}"));
    }
    if res.attempted == 0 {
        return Err("no op was attempted".into());
    }
    res.correct &= res.failed == 0;
    Ok(res)
}

pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<RunResult, String> {
    let deadline = Instant::now() + RUN_LIMIT;
    let mut partials = Vec::new();
    for (group, width) in groups(workload, trace)? {
        let cfg = Config {
            workload: workload.to_string(),
            group: group.to_string(),
            seed,
            seconds,
            trace,
            smoke,
        };
        partials.push((group, run_child(&cfg, width, deadline)?));
    }
    merge(partials, trace)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` — the end-to-end tier untraced, the per-layer tier traced.
pub fn contract_json(res: &RunResult, trace: bool) -> Value {
    let tier = if trace {
        &res.per_layer
    } else {
        &res.end_to_end
    };
    let metrics = tier
        .iter()
        .map(|(name, &value)| {
            let unit = spec::find(name).map_or("", |m| m.unit);
            (
                name.clone(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(res.correct)),
        ("attempted".into(), Value::Num(res.attempted as f64)),
        ("failed".into(), Value::Num(res.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_partial() -> Partial {
        let mut p = Partial::new();
        for m in &spec::END_TO_END {
            p.set(m.name, 2.0);
        }
        p.attempted = 4;
        p
    }

    #[test]
    fn merge_takes_worst_rss_and_precision_and_sums_ops() {
        let mut b = Partial::new();
        b.set("peak_rss_mb", 9.0);
        b.set("precision_bits_min", 1.5);
        b.set("throughput_ips", 7.0);
        b.aux("single_p50_ms", 1.0);
        let mut a = full_partial();
        a.aux("latency_p50_ms", 2.0);
        b.attempted = 6;
        b.failed = 1;
        let r = merge(vec![("w1", a), ("wn", b)], true).unwrap();
        assert_eq!(r.end_to_end["peak_rss_mb"], 9.0);
        assert_eq!(r.end_to_end["precision_bits_min"], 1.5);
        assert_eq!(r.end_to_end["throughput_ips"], 7.0);
        assert_eq!((r.attempted, r.failed, r.correct), (10, 1, false));
        assert_eq!(r.per_layer["sched.par_speedup"], 2.0);
        assert_eq!(r.per_layer["serve.refused"], 0.0);
    }

    #[test]
    fn emitted_names_equal_the_declared_sets() {
        let r = merge(vec![("w1", full_partial())], true).unwrap();
        let declared =
            |ms: &[spec::Metric]| ms.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        let mut e2e = declared(&spec::END_TO_END);
        let mut layers = declared(&spec::PER_LAYER);
        e2e.sort();
        layers.sort();
        assert_eq!(r.end_to_end.keys().cloned().collect::<Vec<_>>(), e2e);
        assert_eq!(r.per_layer.keys().cloned().collect::<Vec<_>>(), layers);
        for (trace, tier) in [(false, &r.end_to_end), (true, &r.per_layer)] {
            let Value::Obj(top) = contract_json(&r, trace) else {
                panic!("result is an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Value::Obj(metrics)) =
                top.iter().find(|(k, _)| k == "metrics").map(|(_, v)| v)
            else {
                panic!("metrics is an object")
            };
            assert_eq!(metrics.len(), tier.len());
        }
    }

    #[test]
    fn merge_refuses_missing_zero_and_undeclared_metrics() {
        let mut p = full_partial();
        p.metrics.remove("setup_s");
        assert!(merge(vec![("w1", p)], false).is_err());
        let mut p = full_partial();
        p.set("latency_ms", 0.0);
        assert!(merge(vec![("w1", p)], false).is_err());
        let mut p = full_partial();
        p.metrics.insert("made.up".into(), 1.0);
        assert!(merge(vec![("w1", p)], false).is_err());
    }

    #[test]
    fn every_declared_workload_has_groups() {
        for w in spec::workload_names() {
            assert!(!groups(w, false).unwrap().is_empty());
            assert!(groups(w, true).unwrap().len() >= groups(w, false).unwrap().len());
        }
        assert!(groups("nope", false).is_err());
    }
}
