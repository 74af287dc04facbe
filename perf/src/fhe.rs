//! `lola_linear` and `resblock_act`: one encrypted inference of a fixed
//! model on resident prepared weights, through the real CKKS engine.
//! Both gated timings come from one child at pool width 1 (the paper's
//! single-threaded setting): latency with one op in flight, throughput as
//! `nproc` harness threads each running independent inferences on the
//! shared keys and weights. A traced run adds a child at pool width `nproc`
//! for what the program's own pool makes of one inference and of a batch.

use crate::api::{self, CkksParams, Compiled, Compiler, Model, Prepared, Session, Tensor};
use crate::common::{
    fastest, guarded, thread_fanout, timed_loop, Checker, Config, Fanned, Partial,
};
use crate::stats::median;
use crate::trace::Recorder;
use crate::{host, probes};
use std::sync::Arc;

pub struct FheWorkload {
    pub name: &'static str,
    model: fn() -> Model,
    params: fn() -> CkksParams,
    /// An op whose output falls below this many bits has failed.
    floor_bits: f64,
    /// Set-ups per untraced run: lola's 187 keys make one set-up a long,
    /// steady sample; the small key set of resblock needs the median.
    setup_reps: usize,
    /// Megabytes `host::pretouch` touches before the set-up: about the
    /// workload's peak resident set.
    pretouch_mb: usize,
    /// Design split the traced shares must reproduce: `(linear, poly +
    /// bootstrap)` lower bounds.
    design_share: (f64, f64),
}

pub const LOLA: FheWorkload = FheWorkload {
    name: "lola_linear",
    model: || api::zoo_model("lola", 0, 0x101a),
    params: api::params_small,
    floor_bits: 18.0,
    setup_reps: 1,
    pretouch_mb: 2600,
    design_share: (0.80, 0.0),
};

pub const RESBLOCK: FheWorkload = FheWorkload {
    name: "resblock_act",
    model: || api::resblock_model(0x4e5b),
    params: api::resblock_params,
    floor_bits: 20.0,
    setup_reps: 3,
    pretouch_mb: 300,
    design_share: (0.0, 0.65),
};

/// Calibration images are part of the model, so their seed is fixed; only
/// the inference inputs follow `--seed`.
const CALIB_SEED: u64 = 0xca11b;
const KEY_SEED: u64 = 0x5eed;
const INPUT_POOL: usize = 16;
const TRACED_OPS: usize = 5;
/// Share of `--seconds` the latency phase takes; the throughput phase gets
/// the rest.
const LATENCY_SHARE: f64 = 0.5;

struct SetupTimes {
    fit_s: f64,
    compile_s: f64,
    keygen_s: f64,
    prepare_s: f64,
}

struct Ready {
    model: Model,
    compiled: Compiled,
    session: Session,
    prepared: Arc<Prepared>,
    times: SetupTimes,
    verify_errors: usize,
}

/// Everything before the first op can be issued: fit + compile + verify,
/// key generation, weight preparation.
fn setup(w: &FheWorkload, rec: &Recorder, parent: usize) -> Ready {
    let model = (w.model)();
    let params = (w.params)();
    let compiler: Compiler = api::compiler_for(&params);
    let calib = api::images(model.input, 8, CALIB_SEED);
    let (ranges, fit_s) = rec.span("nn.fit", Some(parent), || {
        api::fit_ranges(&model.net, &calib)
    });
    let (compiled, compile_s) = rec.span("nn.compile", Some(parent), || {
        api::compile(&compiler, &model.net, &ranges)
    });
    let (verdict, _) = rec.span("nn.verify", Some(parent), || api::verify(&compiled));
    let (session, keygen_s) = rec.span("ckks.keygen", Some(parent), || {
        api::session(params, &compiled, KEY_SEED)
    });
    let (prepared, prepare_s) = rec.span("linear.prepare", Some(parent), || {
        api::prepare(&compiler, &compiled, &session)
    });
    Ready {
        model,
        compiled,
        session,
        prepared,
        times: SetupTimes {
            fit_s,
            compile_s,
            keygen_s,
            prepare_s,
        },
        verify_errors: verdict.errors,
    }
}

struct Inputs {
    tensors: Vec<Tensor>,
    references: Vec<Tensor>,
}

impl Ready {
    /// One encrypted inference of input `i` of the pool, checked.
    fn checked_op(&self, inp: &Inputs, i: usize, check: &mut Checker) {
        let k = i % INPUT_POOL;
        let out = guarded(|| {
            api::infer(
                &self.compiled,
                &self.session,
                &self.prepared,
                &inp.tensors[k],
            )
        });
        check.op(out.map(|o| api::precision_bits(&o, &inp.references[k])));
    }
}

fn inputs(r: &Ready, seed: u64) -> Inputs {
    let tensors = api::images(r.model.input, INPUT_POOL, seed);
    let references = tensors
        .iter()
        .map(|t| api::reference(&r.model.net, &r.compiled, t))
        .collect();
    Inputs {
        tensors,
        references,
    }
}

pub fn run_child(w: &FheWorkload, cfg: &Config) -> Result<Partial, String> {
    match cfg.group.as_str() {
        "w1" => Ok(timed_group(w, cfg)),
        "wn" if cfg.trace => Ok(pool_group(w, cfg)),
        g => Err(format!("{} has no phase group {g}", w.name)),
    }
}

fn timed_group(w: &FheWorkload, cfg: &Config) -> Partial {
    let rec = Recorder::new();
    let mut out = Partial::new();
    let mut check = Checker::new(w.floor_bits);

    host::pretouch(w.pretouch_mb);
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..cfg.setup_reps(w.setup_reps) {
        drop(ready.take());
        let id = rec.begin("setup", None);
        ready = Some(setup(w, &rec, id));
        setup_s.push(rec.end(id));
    }
    let r = ready.expect("set-up ran at least once");
    out.set("setup_s", median(&setup_s));
    out.require(r.verify_errors == 0, || {
        format!(
            "{} verifier errors on the compiled program",
            r.verify_errors
        )
    });
    let rss_after_setup = host::rss_mb();

    let inp = inputs(&r, cfg.seed);
    for i in 0..cfg.warmup_ops() {
        r.checked_op(&inp, i, &mut check);
    }
    let cpu_before = host::cpu_seconds();

    // The two phases take turns, `cfg.rounds()` times. Latency: one op in
    // flight. Throughput: `nproc` harness threads, each running inferences
    // of its own inputs until the slice ends; at pool width 1 an inference
    // runs inline on its thread, so the threads share keys, prepared
    // weights, the arena and the allocator, and nothing else.
    let threads = host::nproc();
    let (mut samples, mut fanned) = (Vec::new(), Fanned::default());
    let mut fanned_check = Checker::new(w.floor_bits);
    for _ in 0..cfg.rounds() {
        let (lat, _) = rec.span("latency_slice", None, || {
            timed_loop(cfg.slice(LATENCY_SHARE), 1, |i| {
                r.checked_op(&inp, samples.len() + i, &mut check)
            })
        });
        samples.extend(lat);
        let ((tally, took), _) = rec.span("throughput_slice", None, || {
            thread_fanout(
                threads,
                cfg.slice(1.0 - LATENCY_SHARE),
                w.floor_bits,
                |t, i, check| r.checked_op(&inp, t * INPUT_POOL / threads + i, check),
            )
        });
        fanned_check.absorb(&tally);
        fanned.absorb(took);
    }
    let p50_ms = median(&samples) * 1e3;
    out.set("latency_ms", fastest(&samples) * 1e3);
    out.set("throughput_ips", fanned.rate());
    out.aux("latency_samples", samples.len() as f64);
    out.aux("latency_p50_ms", p50_ms);
    out.aux("throughput_ops", fanned_check.attempted as f64);
    out.aux("throughput_completed_ips", fanned.completed_rate());
    let timed_ops = samples.len() + fanned_check.attempted as usize;
    check.absorb(&fanned_check);

    if cfg.trace {
        probes::proc_layer(&mut out, cpu_before, timed_ops, rss_after_setup);
        layers(w, cfg, &r, &inp, p50_ms, &rec, &mut out, &mut check);
    }
    check.fold_into(&mut out);
    out.set("peak_rss_mb", host::peak_rss_mb());
    out
}

/// The per-layer tier of the width-1 child.
#[allow(clippy::too_many_arguments)]
fn layers(
    w: &FheWorkload,
    cfg: &Config,
    r: &Ready,
    inp: &Inputs,
    p50_ms: f64,
    rec: &Recorder,
    out: &mut Partial,
    check: &mut Checker,
) {
    let (c, s, p) = (&r.compiled, &r.session, &r.prepared);
    let input = &inp.tensors[0];
    let stream = probes::host_layer(out);

    // compile · verify · plan · optimize, on this program
    out.set("nn.fit_s", r.times.fit_s);
    out.set("nn.compile_ms", r.times.compile_s * 1e3);
    probes::PlanCosts::of(c, rec).report(out);

    out.set(
        "ckks.keygen_ms_per_key",
        r.times.keygen_s * 1e3 / api::eval_key_count(s) as f64,
    );
    out.set("linear.prepare_s", r.times.prepare_s);

    rec.span("probe.math", None, || probes::math_layer(out, s, stream));
    let (times, _) = rec.span("probe.ckks", None, || probes::ckks_layer(out, s, c, input));
    rec.span("probe.linear", None, || {
        probes::linear_layer(out, s, c, p, input)
    });

    let cts = api::encrypt_input(s, c, input);
    let (_, counts) = api::infer_counted(c, s, p, cts);
    probes::ops_layer(out, &counts);
    out.set(
        "recon.accounted_share",
        probes::accounted_share(&counts, &times, p50_ms),
    );
    let misses = api::act_cache_misses(c, s, p, input);
    out.set("poly.const_cache_misses", misses as f64);
    out.require(misses == 0, || {
        format!("{misses} activation constants missed the prepared cache")
    });

    // K ops with the program's collector on
    let ops = if cfg.smoke { 2 } else { TRACED_OPS };
    let (traced, _) = rec.span("traced_ops", None, || {
        probes::traced_ops(ops, |i| r.checked_op(inp, i, check))
    });
    probes::sched_layer(out, &traced, 1);
    probes::telemetry_layer(out, &traced, p50_ms, rec, w.name);

    let linear = out.metrics["sched.share_linear"];
    let act = out.metrics["sched.share_poly"] + out.metrics["sched.share_bootstrap"];
    out.require(
        linear >= w.design_share.0 && act >= w.design_share.1,
        || {
            format!(
                "traced shares left the design split: linear {linear:.2}, poly+bootstrap {act:.2}"
            )
        },
    );
}

/// The traced child at pool width `nproc`: what the program's shared pool
/// makes of a batch of independent inferences and of a single one. Reported
/// in the per-layer tier only: batches through the pool vary ±15 % from one
/// to the next on the reference host (README, "Four designs").
fn pool_group(w: &FheWorkload, cfg: &Config) -> Partial {
    let rec = Recorder::new();
    let mut out = Partial::new();
    let mut check = Checker::new(w.floor_bits);
    let id = rec.begin("setup", None);
    let r = setup(w, &rec, id);
    rec.end(id);
    let inp = inputs(&r, cfg.seed);
    let batch = (if cfg.smoke { 1 } else { 2 } * host::nproc()).min(INPUT_POOL);

    // One batch = `2·nproc` independent inferences offered at once, their
    // inputs encrypted beforehand (see `api::infer_batch` for why).
    let encrypted: Vec<Vec<api::Ciphertext>> = inp
        .tensors
        .iter()
        .map(|t| api::encrypt_input(&r.session, &r.compiled, t))
        .collect();
    let one_batch = |i: usize, check: &mut Checker| {
        let lo = (i * batch) % INPUT_POOL;
        let idx: Vec<usize> = (0..batch).map(|j| (lo + j) % INPUT_POOL).collect();
        let cts = idx.iter().map(|&k| encrypted[k].clone()).collect();
        match guarded(|| api::infer_batch(&r.compiled, &r.session, &r.prepared, cts)) {
            Some(outs) => {
                for (o, &k) in outs.iter().zip(&idx) {
                    check.op(Some(api::precision_bits(o, &inp.references[k])));
                }
            }
            None => (0..batch).for_each(|_| check.op(None)),
        }
    };
    one_batch(0, &mut check);
    let (samples, _) = rec.span("pool_batches", None, || {
        timed_loop(std::time::Duration::ZERO, cfg.min_ops(3), |i| {
            one_batch(i + 1, &mut check)
        })
    });
    out.set(
        "sched.pool_batch_ips",
        (samples.len() * batch) as f64 / samples.iter().sum::<f64>(),
    );

    // single traced ops at this width: what one inference gains from the
    // pool (against the width-1 median) and how busy it keeps it
    let ops = if cfg.smoke { 2 } else { TRACED_OPS };
    let traced = probes::traced_ops(ops, |i| r.checked_op(&inp, i, &mut check));
    out.aux("single_p50_ms", median(&traced.wall_ms));
    out.set("sched.parallelism", traced.parallelism());
    api::drain_trace();
    check.fold_into(&mut out);
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.aux("pool_width", api::pool_width() as f64);
    out
}
