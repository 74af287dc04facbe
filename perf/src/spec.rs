//! What the benchmark declares: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repo root is this
//! table rendered by `perf spec`; a unit test keeps the two equal.

use serde_json::Value;

/// Seconds the timed phases of one contract run share (`run_seconds`).
pub const RUN_SECONDS: u64 = 18;
/// Interleaved rounds of `perf run`. Like `RUN_SECONDS` it is part of the
/// benchmark, not an option: two results files are comparable only when
/// both were taken at these lengths.
pub const ROUNDS: usize = 3;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lola_linear",
        why: "zoo lola at N=2^12, 187 rotation keys: BSGS linear layers own ~97% of an inference; poly ~0, 1 bootstrap; carries the keygen and key-memory signal",
    },
    Workload {
        name: "resblock_act",
        why: "two residual blocks with ReLU/SiLU at N=2^11 on the medium chain: poly stages ~69% and 12 oracle bootstraps; a linear-layer win must show no change here",
    },
    Workload {
        name: "serve_mixed",
        why: "two models (one paged under LRU, one resident), four tenants through queue, batcher, workers and pager: open loop at two rates, then closed-loop saturation",
    },
    Workload {
        name: "compile_zoo",
        why: "compile + verify + plan + optimize resnet20, mobilenet, resnet110 at paper scale: every runtime layer idle, so a runtime change predicts no change here",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far `perf compare` lets B's median fall behind A's: ISSUE 11's
/// regression bounds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Gate {
    /// A share of A's median.
    Share(f64),
    /// An amount in the metric's own unit.
    Absolute(f64),
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `bound` of `BENCHMARK.json`, which the contract's driver judges by:
    /// one share of the parent's median per metric, at most 0.25, and wider
    /// than the seed-to-seed spread of the noisiest workload (the driver
    /// refuses the benchmark otherwise). `None` for per-layer metrics,
    /// which are not gated.
    pub bound: Option<f64>,
    /// What `perf compare` judges by. It is tighter than `bound` because
    /// `compare` can answer `unresolved` on a pairing whose runs spread
    /// wider than the gate, which the driver's single number cannot.
    pub gate: Option<Gate>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    gate: Gate,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        gate: Some(gate),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        gate: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        gate: None,
    }
}

/// Every workload reports all of these with `--trace 0`. None is ever 0,
/// which is why ISSUE 11's sixth metric, `failed_share`, travels as the
/// `failed`/`attempted` pair of the result line; `perf compare` gates it on
/// any increase.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Gate::Share(0.10)),
    e2e("latency_ms", "ms", Better::Lower, 0.25, Gate::Share(0.10)),
    e2e(
        "throughput_ips",
        "1/s",
        Better::Higher,
        0.25,
        Gate::Share(0.10),
    ),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.08, Gate::Share(0.05)),
    e2e(
        "precision_bits_min",
        "bits",
        Better::Higher,
        0.06,
        Gate::Absolute(1.0),
    ),
];

/// Every workload reports all of these with `--trace 1`; a layer that a
/// workload leaves idle reads 0. Units ending in `_modeled` or `_computed`
/// mark values that are not clock measurements of the real operation.
pub const PER_LAYER: [Metric; 93] = [
    // orion-math kernels, at the workload's own ring degree and modulus
    lo("math.ntt_fwd_ns_per_bfly", "ns"),
    lo("math.ntt_inv_ns_per_bfly", "ns"),
    lo("math.pointwise_mul_ns_per_coeff", "ns"),
    lo("math.pointwise_mac_ns_per_coeff", "ns"),
    lo("math.ks_accum_ns_per_coeff", "ns"),
    lo("math.arena_take_ns", "ns"),
    hi("math.ntt_bw_share", "ratio_computed"),
    // orion-ckks ops, on the workload's keys at its median placement level
    lo("ckks.rotate_ms", "ms"),
    lo("ckks.hoist_ms", "ms"),
    lo("ckks.hoisted_rotate_ms", "ms"),
    lo("ckks.mul_plain_ms", "ms"),
    lo("ckks.moddown_ms", "ms"),
    lo("ckks.mul_relin_ms", "ms"),
    lo("ckks.rescale_ms", "ms"),
    lo("ckks.bootstrap_oracle_ms", "ms_modeled"),
    lo("ckks.keygen_ms_per_key", "ms"),
    lo("ckks.eval_key_mb", "MB"),
    lo("ckks.encode_ms", "ms"),
    lo("ckks.encrypt_ms", "ms"),
    lo("ckks.decrypt_decode_ms", "ms"),
    // orion-sim counts of one op; they repeat exactly
    lo("ops.hrot", "count"),
    lo("ops.hrot_hoisted", "count"),
    lo("ops.hoist", "count"),
    lo("ops.moddown", "count"),
    lo("ops.pmult", "count"),
    lo("ops.hmult", "count"),
    lo("ops.rescale", "count"),
    lo("ops.bootstrap", "count"),
    lo("ops.encodes", "count"),
    hi("recon.accounted_share", "ratio"),
    // orion-linear
    lo("linear.layer_ms", "ms"),
    lo("linear.onthefly_ms", "ms"),
    lo("linear.prepare_s", "s"),
    lo("linear.prepared_mb", "MB"),
    lo("linear.page_faults_per_req", "count"),
    lo("linear.page_evictions_per_req", "count"),
    hi("linear.prefetch_hit_share", "ratio"),
    lo("linear.page_load_ms", "ms"),
    lo("linear.spill_s", "s"),
    lo("linear.resident_mb", "MB"),
    // orion-poly
    lo("poly.stage_ms", "ms"),
    lo("poly.hmults_per_op", "count"),
    lo("poly.const_cache_misses", "count"),
    // orion-graph / orion-nn compile, verify, optimize
    lo("nn.fit_s", "s"),
    lo("nn.compile_ms", "ms"),
    lo("graph.placement_ms", "ms"),
    lo("nn.verify_ms", "ms"),
    lo("nn.plan_build_ms", "ms"),
    lo("nn.opt_ms", "ms"),
    lo("nn.plan_units", "count"),
    lo("nn.boot_count", "count"),
    lo("nn.planned_rotations", "count"),
    hi("nn.opt_hoists_eliminated", "count"),
    lo("nn.opt_rejected_passes", "count"),
    lo("nn.certified_peak_limbs", "count"),
    lo("sim.modeled_latency_s", "s_modeled"),
    // orion-nn scheduler, from RunReport + op-class histograms
    lo("sched.wall_ms", "ms"),
    lo("sched.busy_ms", "ms"),
    lo("sched.queue_ms", "ms"),
    lo("sched.critical_path_ms", "ms"),
    lo("sched.units", "count"),
    lo("sched.share_linear", "ratio"),
    lo("sched.share_poly", "ratio"),
    lo("sched.share_bootstrap", "ratio_modeled"),
    lo("sched.share_other", "ratio"),
    lo("sched.overhead_ms", "ms"),
    hi("sched.par_speedup", "ratio"),
    hi("sched.parallelism", "ratio"),
    hi("sched.pool_batch_ips", "1/s"),
    // orion-serve
    lo("serve.queue_wait_p50_ms", "ms"),
    lo("serve.queue_wait_tail_ms", "ms"),
    lo("serve.exec_p50_ms", "ms"),
    lo("serve.latency_tail_ms", "ms"),
    hi("serve.tail_pct", "%"),
    lo("serve.slo_miss_share", "ratio"),
    lo("serve.high.latency_p50_ms", "ms"),
    lo("serve.high.latency_tail_ms", "ms"),
    lo("serve.high.slo_miss_share", "ratio"),
    hi("serve.batch_occupancy_avg", "count"),
    lo("serve.peak_queue_depth", "count"),
    lo("serve.refused", "count"),
    lo("serve.errors", "count"),
    lo("serve.submit_us", "us"),
    lo("serve.registration_s", "s"),
    lo("serve.gen_lateness_max_ms", "ms"),
    // orion-telemetry
    lo("telemetry.trace_overhead_ratio", "ratio"),
    lo("telemetry.events_per_op", "count"),
    // host and process
    lo("host.calib_ms", "ms"),
    hi("host.stream_copy_gbps", "GB/s"),
    lo("proc.cpu_s_per_op", "s"),
    lo("proc.sys_share", "ratio"),
    lo("proc.rss_after_setup_mb", "MB"),
    lo("proc.samples", "count"),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

fn s(x: &str) -> Value {
    Value::Str(x.to_string())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", s(m.name)),
            ("unit", s(m.unit)),
            ("better", s(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Value::Num(b)));
        }
        obj(fields)
    };
    obj(vec![
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "perf/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|a| s(a))
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![s("perf")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let names: Vec<&str> = workload_names()
            .into_iter()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25) && m.gate.is_some()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn benchmark_json_on_disk_equals_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = serde_json::parse_value(&text).expect("valid JSON");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `perf spec`");
        assert!(text.len() <= 64 * 1024);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
