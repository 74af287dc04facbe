//! End-to-end serving telemetry: with the collector enabled, a burst of
//! requests produces a Perfetto-loadable Chrome trace (written to
//! `target/trace_serve_smoke.json` — CI validates it structurally), the
//! request lifecycle spans correlate admission → execution by request id,
//! and `Server::metrics_json` carries per-op-class histograms, typed
//! error counts, and a non-empty critical path whose busy time is bounded
//! by wall × threads.

use orion_ckks::CkksParams;
use orion_nn::compile::{compile, CompileOptions, Compiled};
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_serve::{ServeConfig, ServeError, Server};
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Pin the shared rayon pool wide before its first use so runs report a
/// parallel pool (and walk inside their prefetch scope) even on a
/// single-core runner.
fn lock_and_init() -> std::sync::MutexGuard<'static, ()> {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bootstrap-free model at insecure test parameters (level headroom).
fn square_model(seed: u64) -> (Compiled, CkksParams, [usize; 3]) {
    let params = CkksParams {
        n: 1 << 10,
        log_scale: 30,
        q0_bits: 45,
        max_level: 6,
        special_bits: 45,
        sigma: 3.2,
        boot_levels: 1,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 16, &mut rng);
    let a = net.square("act", l1);
    let l2 = net.linear("fc2", a, 4, &mut rng);
    net.output(l2);
    let compiled = compile(
        &net,
        &fixed_ranges(&net, 4.0),
        &CompileOptions::from_params(&params),
    );
    (compiled, params, [1, 8, 8])
}

fn get_num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

#[test]
fn traced_serving_exports_spans_histograms_and_critical_path() {
    let _g = lock_and_init();
    orion_telemetry::drain();
    orion_telemetry::hist::clear_op_histograms();
    orion_telemetry::path::clear_runs();

    let mut server = Server::new(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    let (compiled, params, shape) = square_model(0x7e1e_5e01);
    let model = server
        .add_model("traced", compiled, params, 0xbeef)
        .expect("model verifies");
    let client = server.add_client(model, 0xc11e).expect("client");
    server.start();

    let mut rng = StdRng::seed_from_u64(0xfeed);
    let n: usize = shape.iter().product();
    let inputs: Vec<Tensor> = (0..4)
        .map(|_| {
            Tensor::from_vec(
                &shape[..],
                (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect(),
            )
        })
        .collect();

    orion_telemetry::enable();
    let tickets: Vec<_> = inputs
        .iter()
        .map(|input| {
            let cts = server.encrypt(client, input).expect("encrypt");
            server.submit(client, cts).expect("submit")
        })
        .collect();
    for t in tickets {
        t.wait().expect("serve result");
    }
    orion_telemetry::disable();

    // ---- lifecycle spans, correlated by request id -------------------
    let events = orion_telemetry::drain();
    let admits: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "req_admit" && e.phase == orion_telemetry::Phase::Begin)
        .filter_map(|e| e.args.get("req"))
        .collect();
    let execs: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "req_exec" && e.phase == orion_telemetry::Phase::Begin)
        .filter_map(|e| e.args.get("req"))
        .collect();
    assert_eq!(admits.len(), 4, "one admission span per request");
    assert_eq!(execs.len(), 4, "one execution span per request");
    for id in &admits {
        assert!(
            execs.contains(id),
            "request {id} admitted but never executed"
        );
    }
    assert!(
        events.iter().any(|e| e.kind == "req_done"),
        "completion instants missing"
    );

    // ---- trace export: parses, non-empty, flow arrows present --------
    let json = orion_telemetry::trace::chrome_trace_json(&events);
    let parsed = serde_json::parse_value(&json).expect("trace must be valid JSON");
    let trace_events = match parsed.get("traceEvents") {
        Some(Value::Arr(arr)) => arr,
        other => panic!("traceEvents missing: {other:?}"),
    };
    assert!(!trace_events.is_empty());
    let ph_count = |want: &str| {
        trace_events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(Value::Str(s)) if s == want))
            .count()
    };
    assert!(
        ph_count("s") > 0 && ph_count("f") > 0,
        "request-id flow arrows missing from export"
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    std::fs::create_dir_all(&out).ok();
    std::fs::write(out.join("trace_serve_smoke.json"), &json).expect("write trace artifact");

    // ---- metrics_json: histograms + critical path --------------------
    let metrics = server.metrics();
    let telemetry = metrics.get("telemetry").expect("telemetry section");
    let hists = telemetry
        .get("op_histograms_ms")
        .expect("op histogram section");
    for class in ["ntt_fwd", "ntt_inv", "key_switch", "rescale"] {
        let h = hists
            .get(class)
            .unwrap_or_else(|| panic!("{class} histogram missing: {hists:?}"));
        assert!(get_num(h, "count") > 0.0, "{class} never recorded");
        assert!(get_num(h, "p50") <= get_num(h, "p95"));
        assert!(get_num(h, "p95") <= get_num(h, "max"));
    }
    let runs = match telemetry.get("runs") {
        Some(Value::Arr(runs)) => runs,
        other => panic!("runs missing: {other:?}"),
    };
    assert_eq!(runs.len(), 4, "one run report per served request");
    for run in runs {
        assert!(run.get("req").is_some(), "serve runs must carry request id");
        let threads = get_num(run, "threads");
        assert!(threads > 1.0, "parallel pool expected");
        assert!(get_num(run, "busy_ms") <= get_num(run, "wall_ms") * threads);
        assert!(get_num(run, "critical_path_ms") <= get_num(run, "wall_ms"));
        match run.get("critical_path_top") {
            Some(Value::Arr(top)) => assert!(!top.is_empty(), "critical path empty"),
            other => panic!("critical_path_top missing: {other:?}"),
        }
    }
    let model_snap = match metrics.get("models") {
        Some(Value::Arr(models)) => &models[0],
        other => panic!("models missing: {other:?}"),
    };
    assert_eq!(get_num(model_snap, "completed"), 4.0);
    assert!(model_snap.get("errors_by_class").is_some());

    server.shutdown();
    orion_telemetry::path::clear_runs();
    orion_telemetry::hist::clear_op_histograms();
}

#[test]
fn bad_input_is_rejected_at_admission_and_typed() {
    let _g = lock_and_init();
    let mut server = Server::new(ServeConfig::default());
    let (compiled, params, shape) = square_model(0x7e1e_5e02);
    let model = server
        .add_model("strict", compiled, params, 0xbee2)
        .expect("model verifies");
    let client = server.add_client(model, 0xc12e).expect("client");
    server.start();

    let mut rng = StdRng::seed_from_u64(0xfee2);
    let n: usize = shape.iter().product();
    let input = Tensor::from_vec(
        &shape[..],
        (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect(),
    );
    let cts = server.encrypt(client, &input).expect("encrypt");

    // Too few ciphertexts: rejected before any FHE work, typed.
    match server.submit(client, Vec::new()) {
        Err(ServeError::BadInput { expected, got }) => {
            assert_eq!(expected, cts.len());
            assert_eq!(got, 0);
        }
        other => panic!("expected BadInput, got {:?}", other.is_ok()),
    }
    // Too many: also rejected.
    let mut doubled = cts.clone();
    doubled.extend(cts.iter().cloned());
    assert!(matches!(
        server.submit(client, doubled),
        Err(ServeError::BadInput { .. })
    ));
    // A well-formed request still serves.
    server.infer(client, cts).expect("healthy serve");

    let metrics = server.metrics();
    let model_snap = match metrics.get("models") {
        Some(Value::Arr(models)) => models[0].clone(),
        other => panic!("models missing: {other:?}"),
    };
    assert_eq!(get_num(&model_snap, "errors"), 2.0);
    let by_class = model_snap.get("errors_by_class").expect("errors_by_class");
    assert_eq!(get_num(by_class, "bad_input"), 2.0);
    assert_eq!(get_num(by_class, "store_fault"), 0.0);
    assert_eq!(get_num(by_class, "panic"), 0.0);
    assert_eq!(get_num(by_class, "queue_full"), 0.0);
    server.shutdown();
}
