//! Layer probes: the harness's own timings around single calls into each
//! layer, on the workload's own compiled program, keys and levels. They
//! run in the traced child only, after the end-to-end phases.

use crate::api::{self, CkksProbe, Compiled, MathProbe, OpCounts, Prepared, Session, Tensor};
use crate::common::{time_median, Partial};
use crate::host;
use crate::schedule::SplitMix64;
use crate::trace::Recorder;
use std::sync::Arc;

const KERNEL_REPS: usize = 31;
const CKKS_REPS: usize = 7;

/// Host baselines that run no program code.
pub fn host_layer(out: &mut Partial) -> f64 {
    out.set("host.calib_ms", host::calib_ms());
    let gbps = host::stream_copy_gbps();
    out.set("host.stream_copy_gbps", gbps);
    gbps
}

/// CPU accounting of the latency phase: `(user, sys)` seconds before it,
/// read again now, over `ops` ops.
pub fn proc_layer(out: &mut Partial, before: (f64, f64), ops: usize, rss_after_setup_mb: f64) {
    let (u1, s1) = host::cpu_seconds();
    let (user, sys) = (u1 - before.0, s1 - before.1);
    out.set("proc.cpu_s_per_op", (user + sys) / ops.max(1) as f64);
    out.set(
        "proc.sys_share",
        if user + sys > 0.0 {
            sys / (user + sys)
        } else {
            0.0
        },
    );
    out.set("proc.rss_after_setup_mb", rss_after_setup_mb);
    out.set("proc.samples", ops as f64);
}

/// orion-math kernels at the session's ring degree and first modulus.
pub fn math_layer(out: &mut Partial, s: &Session, stream_gbps: f64) {
    let m = MathProbe::new(s);
    let (n, q) = (m.degree(), m.modulus());
    let mut rng = SplitMix64(0x6d61_7468);
    let mut limb = || -> Vec<u64> { (0..n).map(|_| rng.next_u64() % q).collect() };
    let (a, b, mut buf, mut acc) = (limb(), limb(), limb(), limb());
    let butterflies = (n / 2) as f64 * n.trailing_zeros() as f64;

    let fwd = time_median(KERNEL_REPS, || m.ntt_fwd(&mut buf));
    out.set("math.ntt_fwd_ns_per_bfly", fwd * 1e9 / butterflies);
    let inv = time_median(KERNEL_REPS, || m.ntt_inv(&mut buf));
    out.set("math.ntt_inv_ns_per_bfly", inv * 1e9 / butterflies);
    // Computed, not measured: every stage reads and writes the whole limb.
    let ntt_bytes = 2.0 * 8.0 * n as f64 * n.trailing_zeros() as f64;
    out.set(
        "math.ntt_bw_share",
        if stream_gbps > 0.0 {
            ntt_bytes / fwd / 1e9 / stream_gbps
        } else {
            0.0
        },
    );

    let mul = time_median(KERNEL_REPS, || m.pointwise_mul(&mut buf, &a, &b));
    out.set("math.pointwise_mul_ns_per_coeff", mul * 1e9 / n as f64);
    let mac = time_median(KERNEL_REPS, || m.pointwise_mac(&mut acc, &a, &b));
    out.set("math.pointwise_mac_ns_per_coeff", mac * 1e9 / n as f64);

    let digits = m.ks_digits();
    let shoup: Vec<u64> = b.iter().map(|&x| m.shoup(x)).collect();
    let (d, k, sh) = (
        vec![&a[..]; digits],
        vec![&b[..]; digits],
        vec![&shoup[..]; digits],
    );
    let ks = time_median(KERNEL_REPS, || m.ks_accum(&mut acc, &d, &k, &sh));
    out.set("math.ks_accum_ns_per_coeff", ks * 1e9 / (digits * n) as f64);

    let take = time_median(KERNEL_REPS, || m.arena_take());
    out.set("math.arena_take_ns", take * 1e9);
}

/// Per-op milliseconds of the CKKS layer, kept for the reconciliation.
#[derive(Default)]
pub struct CkksTimes {
    pub rotate: f64,
    pub hoist: f64,
    pub hoisted_rotate: f64,
    pub mul_plain: f64,
    pub moddown: f64,
    pub mul_relin: f64,
    pub rescale: f64,
    pub bootstrap: f64,
    pub client: f64,
}

/// orion-ckks single operations on the session's keys.
pub fn ckks_layer(out: &mut Partial, s: &Session, c: &Compiled, input: &Tensor) -> CkksTimes {
    let p = CkksProbe::new(s, c, input);
    let ms = |f: &mut dyn FnMut()| time_median(CKKS_REPS, f) * 1e3;
    let hoisted = p.hoist();
    let rotated = p.hoisted_rotate(&hoisted);
    let mut acc = p.accumulator();
    let ct = p.encrypt(1);
    let mut seed = 0;
    let t = CkksTimes {
        rotate: ms(&mut || drop(p.rotate())),
        hoist: ms(&mut || drop(p.hoist())),
        hoisted_rotate: ms(&mut || drop(p.hoisted_rotate(&hoisted))),
        mul_plain: ms(&mut || p.mul_plain(&mut acc, &rotated)),
        // building the accumulator is part of closing a group
        moddown: ms(&mut || {
            let mut group = p.accumulator();
            p.mul_plain(&mut group, &rotated);
            drop(p.moddown(group));
        }),
        mul_relin: ms(&mut || drop(p.mul_relin())),
        rescale: ms(&mut || drop(p.rescale())),
        bootstrap: ms(&mut || drop(p.bootstrap_oracle())),
        client: 0.0,
    };
    let encode = ms(&mut || drop(p.encode()));
    let encrypt = ms(&mut || {
        seed += 1;
        drop(p.encrypt(seed));
    });
    let decrypt = ms(&mut || drop(p.decrypt_decode(&ct)));
    out.set("ckks.rotate_ms", t.rotate);
    out.set("ckks.hoist_ms", t.hoist);
    out.set("ckks.hoisted_rotate_ms", t.hoisted_rotate);
    out.set("ckks.mul_plain_ms", t.mul_plain);
    out.set("ckks.moddown_ms", t.moddown);
    out.set("ckks.mul_relin_ms", t.mul_relin);
    out.set("ckks.rescale_ms", t.rescale);
    out.set("ckks.bootstrap_oracle_ms", t.bootstrap);
    out.set("ckks.encode_ms", encode);
    out.set("ckks.encrypt_ms", encrypt);
    out.set("ckks.decrypt_decode_ms", decrypt);
    out.set("ckks.eval_key_mb", api::eval_key_mb(s));
    CkksTimes {
        client: encode + encrypt + decrypt,
        ..t
    }
}

/// Verify + plan build + optimize of compiled programs, timed from
/// outside, and the deterministic facts of their plans; sums over programs.
#[derive(Default, Clone, Copy)]
pub struct PlanCosts {
    pub placement_s: f64,
    pub verify_s: f64,
    pub plan_build_s: f64,
    pub opt_s: f64,
    pub modeled_latency_s: f64,
    pub units: usize,
    pub boot_count: u64,
    pub planned_rotations: usize,
    pub hoists_eliminated: u64,
    pub rejected_passes: u64,
    pub verify_errors: usize,
    pub certified_peak_limbs: u64,
}

impl PlanCosts {
    pub fn of(c: &Compiled, rec: &Recorder) -> Self {
        let (verdict, verify_s) = rec.span("nn.verify", None, || api::verify(c));
        let (mut plan, plan_build_s) = rec.span("nn.plan_build", None, || api::plan_build(c));
        let (opt, opt_s) = rec.span("nn.opt", None, || api::plan_optimize(&mut plan, c));
        let facts = api::plan_facts(c);
        Self {
            placement_s: facts.placement_s,
            verify_s,
            plan_build_s,
            opt_s,
            modeled_latency_s: facts.modeled_latency_s,
            units: api::plan_units(&plan),
            boot_count: facts.boot_count,
            planned_rotations: facts.planned_rotations,
            hoists_eliminated: opt.hoists_eliminated,
            rejected_passes: opt.rejected_passes,
            verify_errors: verdict.errors,
            certified_peak_limbs: verdict.certified_peak_limbs,
        }
    }

    /// Over several programs.
    pub fn sum(programs: &[&Compiled], rec: &Recorder) -> Self {
        let mut total = Self::default();
        for c in programs {
            total += Self::of(c, rec);
        }
        total
    }

    pub fn report(&self, out: &mut Partial) {
        out.set("graph.placement_ms", self.placement_s * 1e3);
        out.set("nn.verify_ms", self.verify_s * 1e3);
        out.set("nn.plan_build_ms", self.plan_build_s * 1e3);
        out.set("nn.opt_ms", self.opt_s * 1e3);
        out.set("nn.plan_units", self.units as f64);
        out.set("nn.boot_count", self.boot_count as f64);
        out.set("nn.planned_rotations", self.planned_rotations as f64);
        out.set("nn.opt_hoists_eliminated", self.hoists_eliminated as f64);
        out.set("nn.opt_rejected_passes", self.rejected_passes as f64);
        out.set("nn.certified_peak_limbs", self.certified_peak_limbs as f64);
        out.set("sim.modeled_latency_s", self.modeled_latency_s);
        out.require(self.verify_errors == 0 && self.rejected_passes == 0, || {
            format!(
                "{} verifier errors, {} optimizer passes rejected by the verifier",
                self.verify_errors, self.rejected_passes
            )
        });
    }
}

impl std::ops::AddAssign for PlanCosts {
    fn add_assign(&mut self, o: Self) {
        self.placement_s += o.placement_s;
        self.verify_s += o.verify_s;
        self.plan_build_s += o.plan_build_s;
        self.opt_s += o.opt_s;
        self.modeled_latency_s += o.modeled_latency_s;
        self.units += o.units;
        self.boot_count += o.boot_count;
        self.planned_rotations += o.planned_rotations;
        self.hoists_eliminated += o.hoists_eliminated;
        self.rejected_passes += o.rejected_passes;
        self.verify_errors += o.verify_errors;
        self.certified_peak_limbs += o.certified_peak_limbs;
    }
}

pub fn ops_layer(out: &mut Partial, counts: &OpCounts) {
    out.set("ops.hrot", counts.hrot as f64);
    out.set("ops.hrot_hoisted", counts.hrot_hoisted as f64);
    out.set("ops.hoist", counts.hoist as f64);
    out.set("ops.moddown", counts.moddown as f64);
    out.set("ops.pmult", counts.pmult as f64);
    out.set("ops.hmult", counts.hmult as f64);
    out.set("ops.rescale", counts.rescale as f64);
    out.set("ops.bootstrap", counts.bootstrap as f64);
    out.set("ops.encodes", counts.encodes as f64);
    out.set("poly.hmults_per_op", counts.hmult as f64);
    out.require(counts.encodes == 0, || {
        format!(
            "prepared path encoded {} plaintexts in one op",
            counts.encodes
        )
    });
}

/// Share of one op's latency that `counts × per-op times` accounts for;
/// the rest is time no probed operation owns.
pub fn accounted_share(counts: &OpCounts, t: &CkksTimes, latency_ms: f64) -> f64 {
    let explained = counts.hrot as f64 * t.rotate
        + counts.hrot_hoisted as f64 * t.hoisted_rotate
        + counts.hoist as f64 * t.hoist
        + counts.pmult as f64 * t.mul_plain
        + counts.moddown as f64 * t.moddown
        + counts.hmult as f64 * t.mul_relin
        + counts.rescale as f64 * t.rescale
        + counts.bootstrap as f64 * t.bootstrap
        + t.client;
    if latency_ms > 0.0 {
        explained / latency_ms
    } else {
        0.0
    }
}

/// orion-linear: every linear step of the program, prepared and
/// encode-per-call, on inputs at the step's own level.
pub fn linear_layer(
    out: &mut Partial,
    s: &Session,
    c: &Compiled,
    p: &Arc<Prepared>,
    input: &Tensor,
) {
    let seed_cts = api::encrypt_input(s, c, input);
    let (mut prepared_ms, mut onthefly_ms) = (0.0, 0.0);
    for step in api::linear_steps(c) {
        let inputs = api::linear_inputs(c, s, step, &seed_cts);
        prepared_ms += time_median(3, || api::linear_prepared(c, s, p, step, &inputs)) * 1e3;
        onthefly_ms += time_median(1, || api::linear_onthefly(c, s, step, &inputs)) * 1e3;
    }
    out.set("linear.layer_ms", prepared_ms);
    out.set("linear.onthefly_ms", onthefly_ms);
    out.set("linear.prepared_mb", api::prepared_bytes(p) as f64 / 1e6);
}

/// Medians of the scheduler's own run reports over traced ops, and the
/// share of unit time each op class took.
pub struct TracedOps {
    pub runs: Vec<api::RunFacts>,
    pub classes: api::ClassTotals,
    pub wall_ms: Vec<f64>,
}

impl TracedOps {
    /// Median busy ÷ wall of the traced plan walks.
    pub fn parallelism(&self) -> f64 {
        let ratios: Vec<f64> = self
            .runs
            .iter()
            .filter(|r| r.wall_ms > 0.0)
            .map(|r| r.busy_ms / r.wall_ms)
            .collect();
        crate::stats::median(&ratios)
    }
}

pub fn sched_layer(out: &mut Partial, traced: &TracedOps, width: usize) {
    let med = |f: &dyn Fn(&api::RunFacts) -> f64| {
        crate::stats::median(&traced.runs.iter().map(f).collect::<Vec<_>>())
    };
    let busy: f64 = traced.runs.iter().map(|r| r.busy_ms).sum();
    let share = |ms: f64| if busy > 0.0 { ms / busy } else { 0.0 };
    let (lin, poly, boot) = (
        share(traced.classes.linear_ms),
        share(traced.classes.poly_ms),
        share(traced.classes.bootstrap_ms),
    );
    out.set("sched.wall_ms", med(&|r| r.wall_ms));
    out.set("sched.busy_ms", med(&|r| r.busy_ms));
    out.set("sched.queue_ms", med(&|r| r.queue_ms));
    out.set("sched.critical_path_ms", med(&|r| r.critical_path_ms));
    out.set("sched.units", med(&|r| r.units as f64));
    out.set("sched.share_linear", lin);
    out.set("sched.share_poly", poly);
    out.set("sched.share_bootstrap", boot);
    out.set("sched.share_other", (1.0 - lin - poly - boot).max(0.0));
    if width == 1 {
        out.set("sched.overhead_ms", med(&|r| r.wall_ms - r.busy_ms));
    } else {
        out.set("sched.parallelism", traced.parallelism());
    }
    let ops = traced.runs.len().max(1) as f64;
    out.set("poly.stage_ms", traced.classes.poly_ms / ops);
}

/// Runs `ops` ops with the program's telemetry collector on, collecting
/// each op's wall time and the scheduler's report of it.
pub fn traced_ops(ops: usize, mut op: impl FnMut(usize)) -> TracedOps {
    api::telemetry_enable();
    let before = api::class_totals();
    let mut runs = Vec::new();
    let mut wall_ms = Vec::new();
    for i in 0..ops {
        let t = std::time::Instant::now();
        op(i);
        wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        runs.extend(api::last_run());
    }
    let classes = api::class_totals().since(before);
    api::telemetry_disable();
    TracedOps {
        runs,
        classes,
        wall_ms,
    }
}

/// Drains the collector, writes its Chrome trace next to the harness's own
/// spans, and reports the tracing cost.
pub fn telemetry_layer(
    out: &mut Partial,
    traced: &TracedOps,
    untraced_p50_ms: f64,
    recorder: &Recorder,
    label: &str,
) {
    let (events, program_trace) = api::drain_trace();
    let traced_p50 = crate::stats::median(&traced.wall_ms);
    out.set(
        "telemetry.trace_overhead_ratio",
        if untraced_p50_ms > 0.0 {
            traced_p50 / untraced_p50_ms
        } else {
            0.0
        },
    );
    out.set(
        "telemetry.events_per_op",
        events as f64 / traced.wall_ms.len().max(1) as f64,
    );
    write_traces(out, recorder, label, Some(program_trace));
}

/// Writes the harness's spans (and the program's own trace, when there is
/// one) under `perf/results/` and prints each span name's self time.
pub fn write_traces(out: &mut Partial, recorder: &Recorder, label: &str, program: Option<String>) {
    let dir = host::results_dir();
    let spans = serde_json::to_string(&recorder.chrome_trace()).unwrap_or_default();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("trace-{label}-harness.json")), spans))
        .and_then(|()| match program {
            Some(text) => std::fs::write(dir.join(format!("trace-{label}-program.json")), text),
            None => Ok(()),
        });
    if let Err(e) = written {
        out.notes.push(format!("could not write traces: {e}"));
    }
    for (name, ms) in recorder.self_time_ms() {
        eprintln!("{label}: span {name:<20} self {ms:>10.2} ms");
    }
}
