//! `compile_zoo`: the compiler, verifier and plan optimizer on paper-scale
//! models, with every runtime layer idle. One op is a cycle of compile +
//! verify + plan build + optimize over resnet20, mobilenet and resnet110
//! (SiLU-63). The activation ranges are fitted once, in set-up, on
//! calibration images drawn from `--seed`.
//!
//! Nothing here touches the shared pool, so one child (width 1) runs both
//! phases; the throughput phase is `nproc` harness threads cycling.

use crate::api::{self, Compiled, FitResult, Model, Tensor};
use crate::common::{
    fastest, guarded, thread_fanout, timed_loop, Checker, Config, Fanned, Partial,
};
use crate::host;
use crate::probes::{self, PlanCosts};
use crate::stats::median;
use crate::trace::Recorder;

const NETS: [&str; 3] = ["resnet20", "mobilenet", "resnet110"];
const SILU_DEGREE: usize = 63;
/// The trace engine computes in the clear, so its output should agree with
/// the reference far beyond any CKKS floor.
const FLOOR_BITS: f64 = 30.0;
/// Share of `--seconds` the latency phase takes; the throughput phase gets
/// the rest.
const LATENCY_SHARE: f64 = 0.5;

struct Fitted {
    model: Model,
    calib: Vec<Tensor>,
    ranges: FitResult,
}

/// Builds the three networks (fixed weights), calibrates their batch norms
/// and fits activation ranges on one image each. Returns `(nets, fit_s)`.
fn setup(seed: u64, rec: &Recorder, parent: usize) -> (Vec<Fitted>, f64) {
    let mut fit_s = 0.0;
    let nets = NETS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut model = api::zoo_model(name, SILU_DEGREE, 0x200 + i as u64);
            let calib = api::images(model.input, 1, seed.wrapping_add(i as u64));
            rec.span("nn.bn_calibrate", Some(parent), || {
                api::calibrate_batch_norm(&mut model.net, &calib)
            });
            let (ranges, dt) = rec.span("nn.fit", Some(parent), || {
                api::fit_ranges(&model.net, &calib)
            });
            fit_s += dt;
            Fitted {
                model,
                calib,
                ranges,
            }
        })
        .collect();
    (nets, fit_s)
}

/// One op: every net through compile, verify, plan build and optimize.
struct Cycle {
    compile_s: f64,
    /// Summed over the nets.
    costs: PlanCosts,
}

impl Cycle {
    /// Verified clean, no optimizer pass rolled back, and the same plans as
    /// the cycle whose programs were checked on the trace engine.
    fn passes(&self, checked: &Cycle) -> bool {
        let counts = |c: &PlanCosts| (c.units, c.boot_count, c.planned_rotations);
        self.costs.verify_errors == 0
            && self.costs.rejected_passes == 0
            && counts(&self.costs) == counts(&checked.costs)
    }
}

/// Runs one cycle; returns the compiled programs too, for the output check.
fn cycle(nets: &[Fitted], compiler: &api::Compiler, rec: &Recorder) -> (Cycle, Vec<Compiled>) {
    let mut c = Cycle {
        compile_s: 0.0,
        costs: PlanCosts::default(),
    };
    let mut keep = Vec::new();
    for net in nets {
        let (compiled, dt) = rec.span("nn.compile", None, || {
            api::compile(compiler, &net.model.net, &net.ranges)
        });
        c.compile_s += dt;
        c.costs += PlanCosts::of(&compiled, rec);
        keep.push(compiled);
    }
    (c, keep)
}

pub fn run_child(cfg: &Config) -> Result<Partial, String> {
    if cfg.group != "w1" {
        return Err(format!("compile_zoo has no phase group {}", cfg.group));
    }
    let rec = Recorder::new();
    let mut out = Partial::new();
    let mut check = Checker::new(FLOOR_BITS);

    let id = rec.begin("setup", None);
    let (nets, fit_s) = setup(cfg.seed, &rec, id);
    out.set("setup_s", rec.end(id));
    let rss_after_setup = host::rss_mb();
    let compiler = api::compiler_paper();

    // Output check, once: each compiled program on the trace engine against
    // the network evaluated in the clear with the same polynomials.
    let (first, compiled) = cycle(&nets, &compiler, &rec);
    let bits: Vec<f64> = nets
        .iter()
        .zip(&compiled)
        .map(|(net, c)| {
            let reference = api::reference(&net.model.net, c, &net.calib[0]);
            guarded(|| api::trace_output(c, &net.calib[0]))
                .map_or(f64::NAN, |o| api::precision_bits(&o, &reference))
        })
        .collect();
    // `f64::min` skips NaN, and a NaN here must fail every cycle
    let min_bits = if bits.iter().any(|b| b.is_nan()) {
        f64::NAN
    } else {
        bits.iter().copied().fold(f64::INFINITY, f64::min)
    };
    drop(compiled);
    // the checked cycle is the warm-up: the gated timings are built on the
    // fastest cycle, which a slow second one cannot move
    check.op(Some(if first.passes(&first) {
        min_bits
    } else {
        f64::NAN
    }));

    let one_cycle = |check: &mut Checker, cycles: &mut Vec<Cycle>| match guarded(|| {
        cycle(&nets, &compiler, &rec).0
    }) {
        Some(c) => {
            check.op(Some(if c.passes(&first) { min_bits } else { f64::NAN }));
            cycles.push(c);
        }
        None => check.op(None),
    };
    let mut cycles = Vec::new();
    let cpu_before = host::cpu_seconds();

    // The two phases take turns, `cfg.rounds()` times. Latency: one cycle
    // at a time. Throughput: `nproc` harness threads, each cycling until
    // the slice ends.
    let (mut samples, mut fanned) = (Vec::new(), Fanned::default());
    let mut fanned_check = Checker::new(FLOOR_BITS);
    for _ in 0..cfg.rounds() {
        let (lat, _) = rec.span("latency_slice", None, || {
            timed_loop(cfg.slice(LATENCY_SHARE), 1, |_| {
                one_cycle(&mut check, &mut cycles)
            })
        });
        samples.extend(lat);
        let ((tally, took), _) = rec.span("throughput_slice", None, || {
            thread_fanout(
                host::nproc(),
                cfg.slice(1.0 - LATENCY_SHARE),
                FLOOR_BITS,
                |_, _, check| {
                    let ok = guarded(|| cycle(&nets, &compiler, &rec).0)
                        .is_some_and(|c| c.passes(&first));
                    check.op(Some(if ok { min_bits } else { f64::NAN }));
                },
            )
        });
        fanned_check.absorb(&tally);
        fanned.absorb(took);
    }
    out.set("latency_ms", fastest(&samples) * 1e3);
    out.set("throughput_ips", fanned.rate());
    out.aux("latency_samples", samples.len() as f64);
    out.aux("latency_p50_ms", median(&samples) * 1e3);
    out.aux("throughput_ops", fanned_check.attempted as f64);
    out.aux("throughput_completed_ips", fanned.completed_rate());
    if cfg.trace {
        let timed_ops = samples.len() + fanned_check.attempted as usize;
        probes::proc_layer(&mut out, cpu_before, timed_ops, rss_after_setup);
    }
    check.absorb(&fanned_check);

    if cfg.trace {
        probes::host_layer(&mut out);
        let med = |f: &dyn Fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
        out.set("nn.fit_s", fit_s);
        out.set("nn.compile_ms", med(&|c| c.compile_s) * 1e3);
        // stage times: medians over the timed cycles; counts: the checked cycle's
        PlanCosts {
            placement_s: med(&|c| c.costs.placement_s),
            verify_s: med(&|c| c.costs.verify_s),
            plan_build_s: med(&|c| c.costs.plan_build_s),
            opt_s: med(&|c| c.costs.opt_s),
            ..first.costs
        }
        .report(&mut out);
        probes::write_traces(&mut out, &rec, "compile_zoo", None);
    }
    check.fold_into(&mut out);
    out.set("peak_rss_mb", host::peak_rss_mb());
    Ok(out)
}
