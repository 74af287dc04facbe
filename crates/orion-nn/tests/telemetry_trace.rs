//! Tracing walks on a wide pool: the global collector records a
//! well-formed merged trace of two concurrent walks (spans nest per
//! thread, no orphan closes, monotone per-thread timestamps), the per-run
//! critical-path report is internally consistent, the Chrome export
//! parses, and — the deal the always-linked collector makes with the hot
//! path — a *disabled* collector costs under 3% of a walk micro-workload.
//!
//! The collector is process-global, so every test serializes on one lock
//! and drains the event log before and after its run.
//!
//! That concurrent walks on one engine value really overlap is forced
//! instead of observed: a level-only toy engine whose stages meet pairwise
//! on a barrier ([`LevelEngine`]), which also pins that an engine handing
//! back the wrong level is caught where the ciphertext is written.

use orion_nn::backend::{encrypt_input, EvalBackend};
use orion_nn::backends::ClearBackend;
use orion_nn::compile::{compile, CompileOptions, Compiled, Step};
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_nn::sched::run_plan;
use orion_nn::sim::CostModel;
use orion_nn::verify::{verify_compiled, VerifyConfig};
use orion_telemetry::Phase;
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// The container may expose a single core; the shared rayon pool reads
/// `RAYON_NUM_THREADS` once at first use, so pin a parallel width before
/// any test touches it.
fn lock_and_init() -> std::sync::MutexGuard<'static, ()> {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A conv/ReLU/residual net: multi-ciphertext wires, a forked region and
/// announced linear layers.
fn fork_workload() -> (Compiled, Tensor) {
    let mut rng = StdRng::seed_from_u64(0x7e1e);
    let mut net = Network::new(4, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("c1", x, 4, 3, 1, 1, 1, &mut rng);
    let a1 = net.relu("a1", c1, &[15, 15, 27]);
    let c2 = net.conv2d("c2", a1, 4, 3, 1, 1, 1, &mut rng);
    let add = net.add("res", c2, x);
    let a2 = net.square("a2", add);
    net.output(a2);
    let opts = CompileOptions {
        slots: 128,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    };
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    let input = Tensor::from_vec(
        &[4, 8, 8],
        (0..4 * 8 * 8).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    );
    (compiled, input)
}

/// Encrypts `input` on `backend` and walks `compiled`'s plan.
fn walk<B: EvalBackend + Sync>(compiled: &Compiled, backend: &B, input: &Tensor) {
    let cts = encrypt_input(compiled, backend, input);
    run_plan(compiled, backend, cts);
}

/// Two walks of `input` on one engine value, at once on two threads.
fn walk_twice_at_once<B: EvalBackend + Sync>(compiled: &Compiled, backend: &B, input: &Tensor) {
    let walk = || walk(compiled, backend, input);
    rayon::join(walk, walk);
}

fn run_workload(compiled: &Compiled, input: &Tensor) {
    walk(compiled, &ClearBackend::packed(compiled), input);
}

#[test]
fn parallel_trace_is_well_formed() {
    let _g = lock_and_init();
    let (compiled, input) = fork_workload();
    orion_telemetry::drain();
    orion_telemetry::enable();
    walk_twice_at_once(&compiled, &ClearBackend::packed(&compiled), &input);
    orion_telemetry::disable();
    let events = orion_telemetry::drain();
    assert!(!events.is_empty(), "an enabled run must record events");

    // Per thread: timestamps monotone, spans close LIFO, nothing orphaned.
    let mut stacks: HashMap<u64, Vec<&'static str>> = HashMap::new();
    let mut last_t: HashMap<u64, u64> = HashMap::new();
    for e in &events {
        let last = last_t.entry(e.tid).or_insert(0);
        assert!(
            e.t_ns >= *last,
            "thread {}: timestamps must be monotone ({} after {})",
            e.tid,
            e.t_ns,
            last
        );
        *last = e.t_ns;
        let stack = stacks.entry(e.tid).or_default();
        match e.phase {
            Phase::Begin => stack.push(e.kind),
            Phase::End => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!("thread {}: close of {:?} with no open span", e.tid, e.kind)
                });
                assert_eq!(open, e.kind, "thread {}: spans must close LIFO", e.tid);
            }
            Phase::Instant => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "thread {tid} left spans open: {stack:?}");
    }

    // The instrumentation we expect from a scheduler run is all present.
    assert!(events.iter().any(|e| e.kind == "run_plan"));
    assert!(
        events
            .iter()
            .any(|e| e.kind == "step" || e.kind == "step_ct"),
        "unit spans missing"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == "wire" && e.phase == Phase::Instant),
        "wire trajectory instants missing"
    );
}

/// The level-only engine: a ciphertext is its level and nothing else. With
/// `meet`, every `poly_stage` call waits on a 2-party barrier, so two walks
/// on one engine value can only finish if they really run on two threads
/// at once; `forget_rescale` makes `scale_down` hand back its input level.
struct LevelEngine<'a> {
    c: &'a Compiled,
    meet: Option<Barrier>,
    meetings: AtomicUsize,
    forget_rescale: bool,
}

impl EvalBackend for LevelEngine<'_> {
    type Ciphertext = usize;

    fn slots(&self) -> usize {
        self.c.opts.slots
    }
    fn level_of(&self, ct: &usize) -> usize {
        *ct
    }
    fn encrypt(&self, _vals: &[f64], level: usize) -> usize {
        level
    }
    fn decrypt(&self, _ct: &usize) -> Vec<f64> {
        vec![0.0; self.slots()]
    }
    fn add(&self, a: &usize, _b: &usize) -> usize {
        *a
    }
    fn drop_to_level(&self, _a: Cow<'_, usize>, level: usize) -> usize {
        level
    }
    fn bootstrap(&self, _a: &usize) -> usize {
        self.c.opts.l_eff
    }
    fn linear_layer(&self, _node: usize, step: &Step, _x: &[usize], level: usize) -> Vec<usize> {
        vec![level - 1; step.linear_plan().expect("a linear layer").out_blocks]
    }
    fn scale_down(&self, _ct: &usize, _factor: f64, level: usize) -> usize {
        level - usize::from(!self.forget_rescale)
    }
    fn poly_stage(&self, _ct: &usize, coeffs: &[f64], level: usize) -> usize {
        if let Some(meet) = &self.meet {
            if meet.wait().is_leader() {
                self.meetings.fetch_add(1, Ordering::Relaxed);
            }
        }
        orion_poly::eval::stage_ops(coeffs, level).exit_level
    }
    fn relu_final(&self, _u: &usize, _sign: &usize, _magnitude: f64, level: usize) -> usize {
        level - 2
    }
    fn square_activation(&self, _ct: &usize, level: usize) -> usize {
        level - 2
    }
}

#[test]
fn concurrent_walks_on_one_engine_run_on_different_threads() {
    let _g = lock_and_init();
    // Two-ciphertext wires through three sign stages: six stage units per
    // walk, and none returns until the other walk has entered its twin on
    // a second thread — nothing in a walk serializes it against another.
    let (compiled, input) = fork_workload();
    let engine = LevelEngine {
        c: &compiled,
        meet: Some(Barrier::new(2)),
        meetings: AtomicUsize::new(0),
        forget_rescale: false,
    };
    walk_twice_at_once(&compiled, &engine, &input);
    assert_eq!(engine.meetings.load(Ordering::Relaxed), 6);
}

#[test]
fn an_engine_writing_the_wrong_level_is_caught_where_it_is_written() {
    let _g = lock_and_init();
    let (compiled, input) = fork_workload();
    let engine = LevelEngine {
        c: &compiled,
        meet: None,
        meetings: AtomicUsize::new(0),
        forget_rescale: true,
    };
    let run = std::panic::AssertUnwindSafe(|| walk(&compiled, &engine, &input));
    let payload = std::panic::catch_unwind(run)
        .expect_err("the store assert must reject the un-rescaled ciphertext");
    let msg = payload.downcast_ref::<String>().expect("assert message");
    assert!(
        msg.contains("a1.scale") && msg.contains("wrong level"),
        "the assert names the unit: {msg}"
    );
}

#[test]
fn run_report_is_internally_consistent() {
    let _g = lock_and_init();
    let (compiled, input) = fork_workload();
    orion_telemetry::drain();
    orion_telemetry::path::clear_runs();
    orion_telemetry::enable();
    run_workload(&compiled, &input);
    orion_telemetry::disable();
    orion_telemetry::drain();

    let report = orion_telemetry::last_run().expect("enabled run records a report");
    assert!(report.threads > 1, "pinned pool width must be parallel");
    assert_eq!(report.queue_ns, 0, "a walk has no ready queue");
    assert!(report.units > 0);
    assert!(!report.top.is_empty(), "critical path must be non-empty");
    assert!(
        report.critical_path_ns <= report.wall_ns,
        "a dependency chain cannot exceed wall time ({} > {})",
        report.critical_path_ns,
        report.wall_ns
    );
    assert!(
        report.critical_path_ns <= report.busy_ns && report.busy_ns <= report.wall_ns,
        "a chain of units cannot outlast them all, nor units run one at a time \
         outlast the walk ({} / {} / {})",
        report.critical_path_ns,
        report.busy_ns,
        report.wall_ns
    );
    let certified = verify_compiled(&compiled, &VerifyConfig::default());
    assert_eq!(Some(report.peak_live_limbs), certified.peak_limbs);
    for u in &report.top {
        assert!(u.unit < report.units);
        assert!(!u.label.is_empty());
        assert!(u.dur_ns <= report.busy_ns);
    }
    orion_telemetry::path::clear_runs();
}

#[test]
fn chrome_export_parses_and_is_nonempty() {
    let _g = lock_and_init();
    let (compiled, input) = fork_workload();
    orion_telemetry::drain();
    orion_telemetry::enable();
    run_workload(&compiled, &input);
    orion_telemetry::disable();
    let events = orion_telemetry::drain();

    let json = orion_telemetry::trace::chrome_trace_json(&events);
    let v = serde_json::parse_value(&json).expect("exported trace must be valid JSON");
    let trace_events = match v.get("traceEvents") {
        Some(serde::Value::Arr(arr)) => arr,
        other => panic!("traceEvents array missing: {other:?}"),
    };
    assert!(!trace_events.is_empty());
    let ph = |e: &serde::Value| {
        e.get("ph")
            .and_then(|p| match p {
                serde::Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .unwrap_or_default()
    };
    assert!(trace_events.iter().any(|e| ph(e) == "M"), "want metadata");
    assert!(trace_events.iter().any(|e| ph(e) == "B"), "want spans");
    let begins = trace_events.iter().filter(|e| ph(e) == "B").count();
    let ends = trace_events.iter().filter(|e| ph(e) == "E").count();
    assert_eq!(begins, ends, "exported spans must balance");
}

#[test]
fn disabled_collector_overhead_is_under_3_percent() {
    let _g = lock_and_init();
    let (compiled, input) = fork_workload();
    orion_telemetry::disable();
    orion_telemetry::drain();

    // Median disabled-collector workload time.
    let mut times: Vec<u64> = (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            run_workload(&compiled, &input);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2].max(1);

    // Per-call cost of a disabled span (the only cost instrumentation adds
    // to a disabled run): one relaxed load and an early return.
    let calls: u64 = 1_000_000;
    let t0 = std::time::Instant::now();
    for i in 0..calls {
        drop(std::hint::black_box(orion_telemetry::span!("bench", i = i)));
    }
    let per_call_ns = (t0.elapsed().as_nanos() as u64).div_ceil(calls);

    // How many record sites one run executes = events an enabled run emits
    // (an overestimate: a span is two events but one disabled check).
    orion_telemetry::enable();
    run_workload(&compiled, &input);
    orion_telemetry::disable();
    let sites = orion_telemetry::drain().len() as u64;
    assert!(sites > 0);

    let overhead_ns = per_call_ns * sites;
    assert!(
        overhead_ns * 100 < median * 3,
        "disabled-collector overhead bound too high: {sites} sites × \
         {per_call_ns} ns = {overhead_ns} ns vs median run {median} ns"
    );
}
