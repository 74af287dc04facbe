//! The repo benchmark. See `perf/README.md`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one contract run
//! perf run [--seed n] [--smoke]
//! perf compare A.json B.json
//! perf selfcheck [--seed n]
//! perf spec                                                    BENCHMARK.json
//! ```
//!
//! Rounds and run length are constants of the benchmark (`spec::ROUNDS`,
//! `spec::RUN_SECONDS`); only the contract form takes `--seconds`, because
//! the contract's driver passes it.

mod api;
mod common;
mod compare;
mod driver;
mod fhe;
mod host;
mod orchestrate;
mod probes;
mod schedule;
mod serve;
mod spec;
mod stats;
mod trace;
mod zoo;

use common::Config;
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        positional: Vec::new(),
        flags: BTreeMap::new(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.strip_prefix("--") {
            Some("smoke") => {
                parsed.flags.insert("smoke".into(), "1".into());
            }
            Some(key) => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                parsed.flags.insert(key.to_string(), value);
            }
            None => parsed.positional.push(arg),
        }
    }
    Ok(parsed)
}

impl Args {
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.flags
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")))
            .transpose()
    }

    fn need<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("--{key} is required"))
    }

    fn smoke(&self) -> bool {
        self.flags.contains_key("smoke")
    }

    fn trace(&self) -> Result<bool, String> {
        match self.need::<u8>("trace")? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("--trace is 0 or 1, not {other}")),
        }
    }

    /// Refuses a flag the command does not take, so that none is ignored
    /// in silence.
    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|k| !allowed.contains(&k.as_str())) {
            Some(stray) => Err(format!("this command takes no --{stray}")),
            None => Ok(()),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self.get("seed")?.unwrap_or(1))
    }
}

fn child(args: &Args) -> Result<(), String> {
    args.only(&["workload", "group", "seed", "seconds", "trace", "smoke"])?;
    let cfg = Config {
        workload: args.need("workload")?,
        group: args.need("group")?,
        seed: args.need("seed")?,
        seconds: args.need("seconds")?,
        trace: args.trace()?,
        smoke: args.smoke(),
    };
    let partial = match cfg.workload.as_str() {
        "lola_linear" => fhe::run_child(&fhe::LOLA, &cfg),
        "resblock_act" => fhe::run_child(&fhe::RESBLOCK, &cfg),
        "serve_mixed" => serve::run_child(&cfg),
        "compile_zoo" => zoo::run_child(&cfg),
        other => Err(format!("unknown workload {other}")),
    }?;
    println!(
        "{}",
        serde_json::to_string(&partial.to_json()).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn contract(args: &Args) -> Result<(), String> {
    args.only(&["workload", "seed", "seconds", "trace"])?;
    let trace = args.trace()?;
    let seconds: f64 = args.need("seconds")?;
    // the contract's `run_seconds` is a whole number from 1 to 60
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be above 0 and at most 60".into());
    }
    let workload: String = args.need("workload")?;
    let res = orchestrate::run_workload(&workload, args.need("seed")?, seconds, trace, false)?;
    for note in &res.notes {
        eprintln!("note: {note}");
    }
    let line = serde_json::to_string(&orchestrate::contract_json(&res, trace))
        .map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(())
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    let failed = ExitCode::from(1);
    match args.positional.first().map(String::as_str) {
        None => contract(args).map(|()| ExitCode::SUCCESS),
        Some("child") => child(args).map(|()| ExitCode::SUCCESS),
        Some("run") => {
            args.only(&["seed", "smoke"])?;
            let correct = driver::run(args.seed()?, args.smoke())?;
            Ok(if correct { ExitCode::SUCCESS } else { failed })
        }
        Some("selfcheck") => {
            args.only(&["seed"])?;
            let steady = driver::selfcheck(args.seed()?)?;
            Ok(if steady { ExitCode::SUCCESS } else { failed })
        }
        Some("compare") => {
            args.only(&[])?;
            let [_, a, b] = args.positional.as_slice() else {
                return Err("usage: perf compare A.json B.json".into());
            };
            let (a, b) = (driver::load(a.as_ref())?, driver::load(b.as_ref())?);
            let outcome = compare::compare(&a, &b)?;
            Ok(if outcome.regressions == 0 {
                ExitCode::SUCCESS
            } else {
                failed
            })
        }
        Some("spec") => {
            args.only(&[])?;
            let text =
                serde_json::to_string_pretty(&spec::benchmark_json()).map_err(|e| e.to_string())?;
            println!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other}; see perf/README.md")),
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
