//! `serve_mixed`: the multi-tenant server under an arrival schedule — the
//! only workload through queue → batcher → worker pool → pager → spill
//! store, and the only one where requests contend.
//!
//! Two models at N = 2¹⁰: `mlp_paged` serves from spill files under an LRU
//! budget of ⅔ of its weights, `conv_resident` from memory; two tenants
//! each. Requests are encrypted before any phase starts. Phases:
//! `ref` (open loop, Poisson, 32 req/s), `high` (open loop, 56 req/s) and
//! `sat` (closed loop, 2·nproc clients with one request in flight each);
//! they take turns, `Config::rounds` times, each on its window of the run.
//! An open-loop request is timed from the moment it was *due*, so a stall
//! charges the requests behind it.

use crate::api::{self, Ciphertext, ClientId, Compiled, Refusal, Served, Server, Tensor};
use crate::common::{fastest, Checker, Config, Partial};
use crate::schedule::{poisson, window, Arrival};
use crate::stats::{median, tail};
use crate::trace::Recorder;
use crate::{host, probes};
use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const FLOOR_BITS: f64 = 8.0;
/// About 40 % and 70 % of the ~80 req/s this server saturates at on the
/// 2-vCPU reference host.
const REF_RATE: f64 = 32.0;
const HIGH_RATE: f64 = 56.0;
/// Latency limit from the due time; a refused or failed request misses it.
const SLO_MS: f64 = 250.0;
const MAX_BATCH: usize = 4;
const MAX_WAIT_MS: u64 = 2;
const QUEUE_CAPACITY: usize = 64;
const TENANTS_PER_MODEL: usize = 2;
const SETUP_REPS: usize = 3;
/// Shares of `--seconds` the three phases take.
const REF_SHARE: f64 = 0.4;
const HIGH_SHARE: f64 = 0.3;
const SAT_SHARE: f64 = 0.3;
const CALIB_SEED: u64 = 0xca11b;
/// Distinct pre-encrypted requests each closed-loop client cycles through.
const SAT_POOL: usize = 8;

struct Tenant {
    client: ClientId,
    net: Arc<api::Network>,
    compiled: Arc<Compiled>,
}

struct Ready {
    server: Server,
    tenants: Vec<Tenant>,
    models: Vec<api::ModelHandle>,
    /// Held so that the spill files outlive the server.
    _store: host::ScratchDir,
    fit_s: f64,
    compile_s: f64,
    registration_s: f64,
    verify_errors: usize,
}

fn setup(rec: &Recorder, parent: usize) -> Result<Ready, String> {
    let params = api::serve_params();
    let compiler = api::compiler_for(&params);
    let store = host::ScratchDir::new("serve").map_err(|e| e.to_string())?;
    let mut server = api::server_new(host::nproc(), MAX_BATCH, MAX_WAIT_MS, QUEUE_CAPACITY);
    let mut tenants = Vec::new();
    let mut models = Vec::new();
    let (mut fit_s, mut compile_s, mut registration_s, mut verify_errors) = (0.0, 0.0, 0.0, 0);
    for (m, (name, paged)) in [("mlp_paged", true), ("conv_resident", false)]
        .into_iter()
        .enumerate()
    {
        let build = if paged {
            api::serve_mlp_model
        } else {
            api::serve_conv_model
        };
        let model = build(0x5e7e + m as u64);
        let calib = api::images(model.input, 8, CALIB_SEED);
        let (ranges, dt) = rec.span("nn.fit", Some(parent), || {
            api::fit_ranges(&model.net, &calib)
        });
        fit_s += dt;
        let (compiled, dt) = rec.span("nn.compile", Some(parent), || {
            api::compile(&compiler, &model.net, &ranges)
        });
        compile_s += dt;
        verify_errors += api::verify(&compiled).errors;
        let (handle, dt) = rec.span("serve.registration", Some(parent), || {
            if paged {
                // the LRU budget is a share of the weights, so size them first
                let probe = api::session(params.clone(), &compiled, 1);
                let bytes = api::prepared_bytes(&api::prepare(&compiler, &compiled, &probe));
                let dir = store.path().join(name);
                api::add_model_paged(
                    &server,
                    name,
                    compiled,
                    params.clone(),
                    2,
                    &dir,
                    bytes * 2 / 3,
                )
            } else {
                api::add_model_resident(&server, name, compiled, params.clone(), 2)
            }
        });
        registration_s += dt;
        let handle = handle?;
        models.push(handle);
        let net = Arc::new(model.net);
        for t in 0..TENANTS_PER_MODEL {
            let client =
                api::add_client(&server, handle, 100 + (m * TENANTS_PER_MODEL + t) as u64)?;
            tenants.push(Tenant {
                client,
                net: net.clone(),
                compiled: api::server_compiled(&server, client)?,
            });
        }
    }
    api::server_start(&mut server);
    Ok(Ready {
        server,
        tenants,
        models,
        _store: store,
        fit_s,
        compile_s,
        registration_s,
        verify_errors,
    })
}

/// One request, encrypted ahead of time, with the output it should give.
struct Request {
    tenant: usize,
    cts: Vec<Ciphertext>,
    reference: Tensor,
}

fn requests(r: &Ready, tenants: &[usize], seed: u64) -> Result<Vec<Request>, String> {
    let inputs = api::images((1, 8, 8), tenants.len(), seed);
    tenants
        .iter()
        .zip(&inputs)
        .map(|(&tenant, input)| {
            let t = &r.tenants[tenant];
            Ok(Request {
                tenant,
                cts: api::server_encrypt(&r.server, t.client, input)?,
                reference: api::reference(&t.net, &t.compiled, input),
            })
        })
        .collect()
}

/// How one request ended, as seen from outside the server.
struct Outcome {
    /// Due (open loop) or submit (closed loop) to ticket resolution.
    latency_ms: f64,
    served: Result<Served, Refusal>,
    /// Index into the phase's request list.
    request: usize,
}

#[derive(Default)]
struct Phase {
    outcomes: Vec<Outcome>,
    wall_s: f64,
    submit_us: Vec<f64>,
    lateness_max_ms: f64,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.served.is_ok())
            .map(|o| o.latency_ms)
            .collect()
    }

    fn served(&self) -> impl Iterator<Item = &Served> {
        self.outcomes.iter().filter_map(|o| o.served.as_ref().ok())
    }

    fn slo_miss_share(&self) -> f64 {
        let missed = self
            .outcomes
            .iter()
            .filter(|o| o.served.is_err() || o.latency_ms > SLO_MS)
            .count();
        missed as f64 / self.outcomes.len().max(1) as f64
    }

    fn refused(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.served, Err(Refusal::QueueFull)))
            .count()
    }

    /// Adds another round of the same phase.
    fn absorb(&mut self, round: Phase) {
        self.outcomes.extend(round.outcomes);
        self.wall_s += round.wall_s;
        self.submit_us.extend(round.submit_us);
        self.lateness_max_ms = self.lateness_max_ms.max(round.lateness_max_ms);
    }

    /// Checks every outcome against its request's reference output.
    fn check(&self, reqs: &[Request], check: &mut Checker, out: &mut Partial) {
        for o in &self.outcomes {
            match &o.served {
                Ok(s) => {
                    check.op(Some(api::precision_bits(
                        &s.output,
                        &reqs[o.request].reference,
                    )));
                    out.require(s.counts.encodes == 0, || {
                        format!("a served request encoded {} plaintexts", s.counts.encodes)
                    });
                }
                Err(_) => check.op(None),
            }
        }
    }
}

/// Open loop over one window of a schedule: submits each request at its due
/// time (counted from `from_s`) whatever the server is doing. Every ticket
/// gets a blocked waiter thread of its own, so that a request is stamped the
/// moment it resolves even when the server finishes a tenant's requests out
/// of order.
fn open_loop(
    r: &Ready,
    reqs: &[Request],
    schedule: &[Arrival],
    window: Range<usize>,
    from_s: f64,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let resolved = std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<Outcome>();
        for request in window {
            let (arrival, req) = (&schedule[request], &reqs[request]);
            let due = start + Duration::from_secs_f64(arrival.due_s - from_s);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let late = due.elapsed().as_secs_f64() * 1e3;
            phase.lateness_max_ms = phase.lateness_max_ms.max(late);
            let t = Instant::now();
            let ticket = api::submit(&r.server, r.tenants[req.tenant].client, req.cts.clone());
            phase.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            match ticket {
                Ok(ticket) => {
                    let done = done_tx.clone();
                    scope.spawn(move || {
                        let served = api::wait(ticket);
                        let _ = done.send(Outcome {
                            latency_ms: due.elapsed().as_secs_f64() * 1e3,
                            served,
                            request,
                        });
                    });
                }
                Err(refusal) => phase.outcomes.push(Outcome {
                    latency_ms: due.elapsed().as_secs_f64() * 1e3,
                    served: Err(refusal),
                    request,
                }),
            }
        }
        drop(done_tx);
        done_rx.into_iter().collect::<Vec<_>>()
    });
    phase.outcomes.extend(resolved);
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Closed loop: `clients` threads, each with one request in flight, for
/// `duration`; `reqs` holds `SAT_POOL` requests per thread.
fn closed_loop(
    r: &Ready,
    reqs: &[Request],
    clients: usize,
    duration: Duration,
    min_ops: usize,
) -> Phase {
    let start = Instant::now();
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while mine.len() < min_ops || start.elapsed() < duration {
                        let request = c * SAT_POOL + mine.len() % SAT_POOL;
                        let req = &reqs[request];
                        let t = Instant::now();
                        let served =
                            api::submit(&r.server, r.tenants[req.tenant].client, req.cts.clone())
                                .and_then(api::wait);
                        mine.push(Outcome {
                            latency_ms: t.elapsed().as_secs_f64() * 1e3,
                            served,
                            request,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client thread"))
            .collect()
    });
    Phase {
        outcomes,
        wall_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    }
}

pub fn run_child(cfg: &Config) -> Result<Partial, String> {
    if cfg.group != "wn" {
        return Err(format!("serve_mixed has no phase group {}", cfg.group));
    }
    let rec = Recorder::new();
    let mut out = Partial::new();
    let mut check = Checker::new(FLOOR_BITS);

    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..cfg.setup_reps(SETUP_REPS) {
        drop(ready.take());
        let id = rec.begin("setup", None);
        ready = Some(setup(&rec, id)?);
        setup_s.push(rec.end(id));
    }
    let mut r = ready.expect("set-up ran at least once");
    out.set("setup_s", median(&setup_s));
    out.require(r.verify_errors == 0, || {
        format!("{} verifier errors", r.verify_errors)
    });
    let rss_after_setup = host::rss_mb();

    // inputs and arrival times from --seed; the program sees only requests
    let n_tenants = r.tenants.len();
    let (ref_s, high_s) = (cfg.seconds * REF_SHARE, cfg.seconds * HIGH_SHARE);
    let ref_schedule = poisson(cfg.seed, REF_RATE, ref_s, n_tenants);
    let high_schedule = poisson(cfg.seed ^ 0x4849, HIGH_RATE, high_s, n_tenants);
    let sat_clients = 2 * host::nproc();
    let tenants_of = |s: &[Arrival]| s.iter().map(|a| a.client).collect::<Vec<_>>();
    let warm_reqs = requests(&r, &(0..n_tenants).collect::<Vec<_>>(), cfg.seed ^ 0x7761)?;
    let ref_reqs = requests(&r, &tenants_of(&ref_schedule), cfg.seed ^ 0x7265)?;
    let high_reqs = requests(&r, &tenants_of(&high_schedule), cfg.seed ^ 0x6869)?;
    let sat_tenants: Vec<usize> = (0..sat_clients * SAT_POOL)
        .map(|i| (i / SAT_POOL) % n_tenants)
        .collect();
    let sat_reqs = requests(&r, &sat_tenants, cfg.seed ^ 0x7361)?;

    // warm-up: every tenant once, twice over, so both models have paged in
    for _ in 0..cfg.warmup_ops().min(2) {
        let warm = closed_loop(&r, &warm_reqs, 1, Duration::ZERO, n_tenants.min(SAT_POOL));
        warm.check(&warm_reqs, &mut check, &mut out);
    }
    let pages_before = api::server_page_facts(&r.server, r.models[0]);
    let cpu_before = host::cpu_seconds();

    // The three phases take turns; each round runs its window of the two
    // schedules and its slice of the closed loop. The closed loop ends with
    // nothing in flight, so every `ref` window starts on an empty queue.
    let rounds = cfg.rounds();
    let (mut reference, mut high, mut sat) = (Phase::default(), Phase::default(), Phase::default());
    let mut sat_rates = Vec::new();
    for round in 0..rounds {
        let (w, from_s) = window(&ref_schedule, round, rounds, ref_s);
        let (p, _) = rec.span("phase.ref", None, || {
            open_loop(&r, &ref_reqs, &ref_schedule, w, from_s)
        });
        reference.absorb(p);
        let (w, from_s) = window(&high_schedule, round, rounds, high_s);
        let (p, _) = rec.span("phase.high", None, || {
            open_loop(&r, &high_reqs, &high_schedule, w, from_s)
        });
        high.absorb(p);
        let (p, _) = rec.span("phase.sat", None, || {
            closed_loop(
                &r,
                &sat_reqs,
                sat_clients,
                cfg.slice(SAT_SHARE),
                cfg.min_ops(8),
            )
        });
        sat_rates.push(p.served().count() as f64 / p.wall_s);
        sat.absorb(p);
    }
    reference.check(&ref_reqs, &mut check, &mut out);
    high.check(&high_reqs, &mut check, &mut out);
    sat.check(&sat_reqs, &mut check, &mut out);

    let ref_lat = reference.latencies();
    // The mean over the two models of the model's fastest `ref` request: a
    // request that met an idle server on a quiet host, which is batching
    // wait + execution + resolution with nothing queued ahead. Per model,
    // because the fastest request of all is always one for the cheaper
    // model. The median of the open loop queues behind whatever the host
    // slows down: it moved 21 % between two states of the reference host,
    // the fastest request 2 % (README, "Five designs"); the queue is in
    // `serve.queue_wait_*` and `serve.latency_tail_ms`, per layer.
    let model_of = |o: &Outcome| ref_reqs[o.request].tenant / TENANTS_PER_MODEL;
    let fastest_of: Vec<f64> = (0..r.models.len())
        .map(|m| {
            let lat: Vec<f64> = reference
                .outcomes
                .iter()
                .filter(|o| o.served.is_ok() && model_of(o) == m)
                .map(|o| o.latency_ms)
                .collect();
            fastest(&lat)
        })
        .collect();
    out.set(
        "latency_ms",
        fastest_of.iter().sum::<f64>() / fastest_of.len() as f64,
    );
    // requests completed ÷ wall of the best `sat` slice
    out.set(
        "throughput_ips",
        sat_rates.iter().copied().fold(0.0, f64::max),
    );
    out.aux("latency_samples", ref_lat.len() as f64);
    out.aux("high_samples", high.outcomes.len() as f64);
    out.aux("sat_samples", sat.outcomes.len() as f64);

    if cfg.trace {
        let total = reference.outcomes.len() + high.outcomes.len() + sat.outcomes.len();
        probes::proc_layer(&mut out, cpu_before, total, rss_after_setup);
        serve_layer(&mut out, &r, &reference, &high, pages_before, total);
        layers(cfg, &r, &ref_reqs, &reference, &rec, &mut out, &mut check)?;
    }
    api::server_shutdown(&mut r.server);
    check.fold_into(&mut out);
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.aux("pool_width", api::pool_width() as f64);
    Ok(out)
}

/// orion-serve and pager metrics of the untraced phases.
fn serve_layer(
    out: &mut Partial,
    r: &Ready,
    reference: &Phase,
    high: &Phase,
    pages_before: api::PageFacts,
    total_requests: usize,
) {
    let ms =
        |f: &dyn Fn(&Served) -> f64| reference.served().map(|s| f(s) * 1e3).collect::<Vec<f64>>();
    let queue = ms(&|s| s.queue_s);
    let (tail_pct, latency_tail) = tail(&reference.latencies(), 0.95);
    out.set("serve.queue_wait_p50_ms", median(&queue));
    out.set("serve.queue_wait_tail_ms", tail(&queue, 0.95).1);
    out.set("serve.exec_p50_ms", median(&ms(&|s| s.exec_s)));
    out.set("serve.latency_tail_ms", latency_tail);
    out.set("serve.tail_pct", tail_pct * 100.0);
    out.set("serve.slo_miss_share", reference.slo_miss_share());
    out.set("serve.high.latency_p50_ms", median(&high.latencies()));
    out.set(
        "serve.high.latency_tail_ms",
        tail(&high.latencies(), 0.95).1,
    );
    out.set("serve.high.slo_miss_share", high.slo_miss_share());
    out.set(
        "serve.refused",
        (reference.refused() + high.refused()) as f64,
    );
    let submits: Vec<f64> = reference
        .submit_us
        .iter()
        .chain(&high.submit_us)
        .copied()
        .collect();
    out.set("serve.submit_us", median(&submits));
    out.set("serve.registration_s", r.registration_s);
    out.set(
        "serve.gen_lateness_max_ms",
        reference.lateness_max_ms.max(high.lateness_max_ms),
    );
    let facts = api::server_facts(&r.server);
    out.set("serve.batch_occupancy_avg", facts.batch_occupancy_avg);
    out.set("serve.peak_queue_depth", facts.peak_queue_depth);
    out.set("serve.errors", facts.errors);

    let pages = api::server_page_facts(&r.server, r.models[0]);
    let per_req = |after: u64, before: u64| (after - before) as f64 / total_requests.max(1) as f64;
    out.set(
        "linear.page_faults_per_req",
        per_req(pages.faults, pages_before.faults),
    );
    out.set(
        "linear.page_evictions_per_req",
        per_req(pages.evictions, pages_before.evictions),
    );
    let prefetches = pages.prefetches - pages_before.prefetches;
    out.set(
        "linear.prefetch_hit_share",
        if prefetches > 0 {
            (pages.prefetch_hits - pages_before.prefetch_hits) as f64 / prefetches as f64
        } else {
            0.0
        },
    );
    out.set("linear.resident_mb", pages.resident_mb);
}

/// The layers below the server, probed on the first tenant of each model.
fn layers(
    cfg: &Config,
    r: &Ready,
    ref_reqs: &[Request],
    reference: &Phase,
    rec: &Recorder,
    out: &mut Partial,
    check: &mut Checker,
) -> Result<(), String> {
    let stream = probes::host_layer(out);
    let input = &api::images((1, 8, 8), 1, cfg.seed)[0];
    out.set("nn.fit_s", r.fit_s);
    out.set("nn.compile_ms", r.compile_s * 1e3);
    let programs: Vec<&Compiled> = (0..r.models.len())
        .map(|m| &*r.tenants[m * TENANTS_PER_MODEL].compiled)
        .collect();
    probes::PlanCosts::sum(&programs, rec).report(out);

    // kernels, CKKS ops and the linear layers on the paged model's program
    let tenant = &r.tenants[0];
    let (c, s) = (
        &tenant.compiled,
        api::server_session(&r.server, tenant.client)?,
    );
    rec.span("probe.math", None, || probes::math_layer(out, &s, stream));
    rec.span("probe.ckks", None, || probes::ckks_layer(out, &s, c, input));
    let compiler = api::compiler_for(&api::serve_params());
    let (prepared, prepare_s) = rec.span("linear.prepare", None, || api::prepare(&compiler, c, &s));
    out.set("linear.prepare_s", prepare_s);
    rec.span("probe.linear", None, || {
        probes::linear_layer(out, &s, c, &prepared, input)
    });

    // the pager from outside: write the spill files, then fetch each layer cold
    let dir = host::ScratchDir::new("pager").map_err(|e| e.to_string())?;
    let (pager, spill_s) = rec.span("linear.spill", None, || {
        api::page_out(&prepared, dir.path(), api::prepared_bytes(&prepared))
    });
    let pager = pager?;
    out.set("linear.spill_s", spill_s);
    let steps = api::linear_steps(c);
    let mut load_ms = Vec::new();
    for &step in &steps {
        let (fetched, dt) = rec.span("linear.page_load", None, || api::page_fetch(&pager, step));
        out.require(fetched == Ok(true), || {
            format!("cold fetch of step {step}: {fetched:?}")
        });
        load_ms.push(dt * 1e3);
    }
    out.set("linear.page_load_ms", median(&load_ms));

    // one request per model: op counts (they repeat exactly), summed
    let mut counts = api::OpCounts::default();
    for m in 0..r.models.len() {
        if let Some(o) = reference
            .outcomes
            .iter()
            .find(|o| ref_reqs[o.request].tenant / TENANTS_PER_MODEL == m && o.served.is_ok())
        {
            counts += o.served.as_ref().expect("filtered on ok").counts;
        }
    }
    probes::ops_layer(out, &counts);

    // requests one at a time, first with the program's collector off, then
    // on: the same closed loop, so the ratio is the tracing cost alone
    let ops = if cfg.smoke { 2 } else { 8 };
    let mut one = |i: usize, exec_ms: &mut Vec<f64>| {
        let req = &ref_reqs[i % ref_reqs.len()];
        let served = api::submit(&r.server, r.tenants[req.tenant].client, req.cts.clone())
            .and_then(api::wait);
        check.op(served
            .as_ref()
            .ok()
            .map(|s| api::precision_bits(&s.output, &req.reference)));
        exec_ms.extend(served.ok().map(|s| s.exec_s * 1e3));
    };
    let (mut exec_untraced, mut exec_traced) = (Vec::new(), Vec::new());
    (0..ops).for_each(|i| one(i, &mut exec_untraced));
    let (mut traced, _) = rec.span("traced_ops", None, || {
        probes::traced_ops(ops, |i| one(i, &mut exec_traced))
    });
    probes::sched_layer(out, &traced, api::pool_width());
    // tracing cost on what the server itself executes, not on queueing
    traced.wall_ms = exec_traced;
    probes::telemetry_layer(out, &traced, median(&exec_untraced), rec, "serve_mixed");
    Ok(())
}
