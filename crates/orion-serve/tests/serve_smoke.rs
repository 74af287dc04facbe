//! The serving acceptance test: two models hosted side by side, two
//! concurrent clients per model, all requests flowing through the
//! admission queue onto two workers, weights served from LRU pagers
//! whose byte budgets are **smaller than the encoded-weight footprint** —
//! and every response bit-exact against the direct (no queue, no paging)
//! prepared path with zero per-inference encodes, linear *and* activation.

use orion_ckks::CkksParams;
use orion_nn::compile::{compile, CompileOptions, Compiled};
use orion_nn::fhe_exec::{run_fhe_prepared_cts, FheSession};
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_nn::sched::UnitWork;
use orion_nn::verify::{verify_compiled, Rule, VerifyConfig};
use orion_serve::{ClientId, ServeConfig, ServeError, Server};
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::time::Duration;

/// Insecure test parameters with enough level headroom that the nets below
/// run bootstrap-free (the bootstrap oracle draws shared randomness, which
/// would break request-level determinism).
fn headroom_params(max_level: usize) -> CkksParams {
    CkksParams {
        n: 1 << 10,
        log_scale: 30,
        q0_bits: 45,
        max_level,
        special_bits: 45,
        sigma: 3.2,
        boot_levels: 1,
    }
}

/// Model A: dense → square → dense on 1×8×8 (square activation).
fn square_model(seed: u64) -> (Compiled, CkksParams, [usize; 3]) {
    let params = headroom_params(6);
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

/// Model B: dense → SiLU(deg 3) → dense on 1×4×4 (a real poly stage, so
/// the zero-encode claim covers an activation's constants too).
fn silu_model(seed: u64) -> (Compiled, CkksParams, [usize; 3]) {
    let params = headroom_params(9);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Network::new(1, 4, 4);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 8, &mut rng);
    let a = net.silu("act", l1, 3);
    let l2 = net.linear("fc2", a, 3, &mut rng);
    net.output(l2);
    let compiled = compile(
        &net,
        &fixed_ranges(&net, 4.0),
        &CompileOptions::from_params(&params),
    );
    (compiled, params, [1, 4, 4])
}

fn one_worker() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServeConfig::default()
    }
}

fn random_input(shape: &[usize; 3], rng: &mut StdRng) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(
        &shape[..],
        (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect(),
    )
}

#[test]
fn serve_two_models_two_clients_under_memory_cap() {
    let mut server = Server::new(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServeConfig::default()
    });

    let mut model_ids = Vec::new();
    let mut references = Vec::new();
    let mut shapes = Vec::new();
    for (idx, (compiled, params, shape)) in [square_model(0x5e_001), silu_model(0x5e_002)]
        .into_iter()
        .enumerate()
    {
        assert_eq!(
            compiled.placement.boot_count, 0,
            "model {idx}: bit-exactness needs a bootstrap-free program"
        );
        // The direct-path reference cache; encodings are key-independent,
        // so this also tells us the footprint the pager's budget must undercut.
        let prep = FheSession::new(params.clone(), &compiled, 0x0eed + idx as u64);
        let reference = prep.prepare(&compiled);
        let footprint = reference.approx_bytes();
        assert!(footprint > 0);
        let dir =
            std::env::temp_dir().join(format!("orion_serve_smoke_m{idx}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let model = server
            .add_model_paged(
                &format!("model-{idx}"),
                compiled,
                params,
                0x9e_e0 + idx as u64,
                &dir,
                footprint * 2 / 3, // cap < total encoded-weight footprint
            )
            .expect("paged registration");
        model_ids.push(model);
        references.push(reference);
        shapes.push(shape);
    }

    // Two clients per model, each with its own keys.
    let clients: Vec<(usize, ClientId)> = (0..4)
        .map(|i| {
            let model_idx = i / 2;
            (
                model_idx,
                server
                    .add_client(model_ids[model_idx], 0xc11e_0000 + i as u64)
                    .expect("client registration"),
            )
        })
        .collect();

    server.start();

    const REQUESTS_PER_CLIENT: usize = 3;
    std::thread::scope(|scope| {
        for (tid, &(model_idx, client)) in clients.iter().enumerate() {
            let server = &server;
            let reference = &references[model_idx];
            let shape = shapes[model_idx];
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x1234_5678 + tid as u64);
                let session = server.session(client).expect("session");
                let compiled = server.compiled(client).expect("compiled");
                // Encrypt everything up front and submit before waiting, so
                // the queue sees genuine concurrency per model.
                let inputs: Vec<Tensor> = (0..REQUESTS_PER_CLIENT)
                    .map(|_| random_input(&shape, &mut rng))
                    .collect();
                let requests: Vec<_> = inputs
                    .iter()
                    .map(|input| server.encrypt(client, input).expect("encrypt"))
                    .collect();
                let tickets: Vec<_> = requests
                    .iter()
                    .map(|cts| server.submit(client, cts.clone()).expect("submit"))
                    .collect();
                for (ticket, cts) in tickets.into_iter().zip(requests) {
                    let served = ticket.wait().expect("serve result");
                    assert_eq!(
                        served.counter.encodes, 0,
                        "client {tid}: a prepared model must serve with zero \
                         per-inference encodes (linear and activation)"
                    );
                    // Bit-exact against the direct resident prepared path on
                    // the same encrypted request.
                    let (direct, direct_counter) =
                        run_fhe_prepared_cts(&compiled, &session, reference, cts);
                    assert_eq!(
                        served.output.data(),
                        direct.output.data(),
                        "client {tid}: paged serving must be bit-exact"
                    );
                    assert_eq!(served.counter.all(), direct_counter.all());
                }
            });
        }
    });

    // Paging really happened: the cap forced evictions on both models.
    // Loads arrive as blocking faults (always, on a single-threaded pool,
    // where no walk issues a prefetch) OR as the lookahead prefetches the
    // walk issues as a layer's first producer starts, which converted the
    // fault into a hit.
    for (idx, &model) in model_ids.iter().enumerate() {
        let stats = server.page_stats(model).expect("paged model has stats");
        assert!(
            stats.faults + stats.prefetches > 0,
            "model {idx}: no page loads recorded (stats: {stats:?})"
        );
        assert!(
            stats.evictions > 0,
            "model {idx}: a cap below the footprint must evict (stats: {stats:?})"
        );
        // Every consumed prefetch is credited at most once; under a tight
        // budget a prefetched layer can be evicted before its fetch, so
        // hits are bounded by, not equal to, the loads.
        assert!(
            stats.prefetch_hits <= stats.prefetches,
            "model {idx}: impossible prefetch accounting (stats: {stats:?})"
        );
    }

    // Metrics snapshot: everything completed, queues drained.
    let metrics = server.metrics();
    let models = match metrics.get("models") {
        Some(Value::Arr(models)) => models,
        other => panic!("metrics.models missing: {other:?}"),
    };
    let total_completed: f64 = models
        .iter()
        .map(|m| m.get("completed").and_then(Value::as_f64).unwrap())
        .sum();
    assert_eq!(
        total_completed,
        (clients.len() * REQUESTS_PER_CLIENT) as f64
    );
    for m in models {
        assert_eq!(m.get("errors").and_then(Value::as_f64).unwrap(), 0.0);
        assert_eq!(m.get("queue_depth").and_then(Value::as_f64).unwrap(), 0.0);
        assert!(m.get("page").is_some());
        assert_eq!(
            m.get("encodes_per_inference_total")
                .and_then(Value::as_f64)
                .unwrap(),
            0.0
        );
    }
    println!("{}", server.metrics_json());
    server.shutdown();
    for idx in 0..model_ids.len() {
        std::fs::remove_dir_all(
            std::env::temp_dir().join(format!("orion_serve_smoke_m{idx}_{}", std::process::id())),
        )
        .ok();
    }
}

#[test]
fn corrupt_spill_file_fails_one_request_not_the_pool() {
    let mut server = Server::new(one_worker());
    let (compiled, params, shape) = square_model(0x5e_003);
    let dir = std::env::temp_dir().join(format!("orion_serve_corrupt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let model = server
        .add_model_paged("fragile", compiled, params, 7, &dir, 1)
        .expect("register");
    let client = server.add_client(model, 8).expect("client");
    server.start();

    let mut rng = StdRng::seed_from_u64(9);
    let input = random_input(&shape, &mut rng);
    let cts = server.encrypt(client, &input).expect("encrypt");

    // Healthy request first.
    let ok = server.infer(client, cts.clone()).expect("healthy serve");
    assert_eq!(ok.counter.encodes, 0);

    // Truncate one layer's spill file behind the pager's back. Budget 1
    // byte ⇒ nothing stays resident, so the next request must re-fault it.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "prep"))
        .expect("a spill file exists");
    std::fs::write(&victim, b"ORIONPP2").unwrap();
    match server.infer(client, cts.clone()) {
        Err(ServeError::Store { .. }) => {}
        other => panic!(
            "expected a typed per-request store error, got {:?}",
            other.map(|o| o.counter.encodes)
        ),
    }

    // The worker survived: repair the file and serve again.
    std::fs::remove_dir_all(&dir).ok();
    // (file gone entirely now → still an error, but a *per-request* one)
    match server.infer(client, cts) {
        Err(ServeError::Store { .. }) => {}
        other => panic!("expected store error, got {:?}", other.is_ok()),
    }
    let metrics = server.metrics_json();
    assert!(metrics.contains("\"errors\": 2"));
    server.shutdown();
}

#[test]
fn wrong_level_request_is_rejected_at_admission() {
    let mut server = Server::new(one_worker());
    let (compiled, params, shape) = square_model(0x5e_004);
    assert_eq!(compiled.placement.boot_count, 0, "bit-exactness below");
    let l_eff = compiled.opts.l_eff;
    let model = server
        .add_model("strict", compiled, params, 0xbee3)
        .expect("register");
    let client = server.add_client(model, 0xc13e).expect("client");
    server.start();

    let mut rng = StdRng::seed_from_u64(0xfee3);
    let cts = server
        .encrypt(client, &random_input(&shape, &mut rng))
        .expect("encrypt");
    let before = server.infer(client, cts.clone()).expect("healthy serve");

    // Right count, but one level too low: must be refused at admission, not
    // admitted and turned into a worker panic.
    let mut dropped = cts.clone();
    for ct in &mut dropped {
        ct.c0.drop_to_level(l_eff - 1);
        ct.c1.drop_to_level(l_eff - 1);
    }
    match server.submit(client, dropped) {
        Err(ServeError::BadCiphertext {
            index,
            expected,
            got,
        }) => {
            assert_eq!(index, 0);
            assert_eq!(expected.0, l_eff);
            assert_eq!(got.0, l_eff - 1);
        }
        other => panic!("expected BadCiphertext, got ok={:?}", other.is_ok()),
    }
    // Right level, wrong scale: same.
    let mut rescaled = cts.clone();
    rescaled[0].scale *= 2.0;
    assert!(matches!(
        server.submit(client, rescaled),
        Err(ServeError::BadCiphertext { .. })
    ));

    // The server is untouched: the same request replays bit-exact.
    let after = server.infer(client, cts).expect("healthy serve");
    assert_eq!(after.output.data(), before.output.data());

    let metrics = server.metrics();
    let snap = match metrics.get("models") {
        Some(Value::Arr(models)) => models[0].clone(),
        other => panic!("models missing: {other:?}"),
    };
    let by_class = snap.get("errors_by_class").expect("errors_by_class");
    let class = |name: &str| by_class.get(name).and_then(Value::as_f64).unwrap();
    assert_eq!(class("bad_input"), 2.0);
    assert_eq!(class("panic"), 0.0);
    server.shutdown();
}

/// Parameters that do not give the level budget or slot count the program
/// was compiled for used to unwind out of registration (the encoder's
/// `assert_eq!` in `prepare_program`): both paths refuse them with a typed
/// error, and the server keeps registering.
#[test]
fn mis_parameterised_model_is_refused_at_registration() {
    let server = Server::new(ServeConfig::default());
    let model = || square_model(0x5e_005).0;
    let params = square_model(0x5e_005).1;
    let dir = std::env::temp_dir().join(format!("orion_serve_misparam_{}", std::process::id()));
    let register = |params: CkksParams, paged: bool| match paged {
        true => server.add_model_paged("m", model(), params, 0, &dir, 1 << 20),
        false => server.add_model("m", model(), params, 0),
    };
    let wider = CkksParams {
        n: 1 << 11,
        ..params.clone()
    };
    for wrong in [headroom_params(8), wider] {
        for paged in [false, true] {
            match register(wrong.clone(), paged) {
                Err(ServeError::Unverifiable {
                    errors: 1, detail, ..
                }) => assert!(detail.contains("compiled for"), "{detail}"),
                other => panic!("expected Unverifiable, got ok={:?}", other.is_ok()),
            }
        }
    }
    for paged in [false, true] {
        register(params.clone(), paged).expect("matching parameters still register");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Registration certifies the plan the compiled program carries — the plan
/// every request walks — not one it rebuilds: a clone whose plan runs the
/// square before the layer that feeds it draws a coverage error from the
/// verifier and a typed refusal from both registration paths.
#[test]
fn a_model_whose_carried_plan_is_out_of_order_is_refused_at_registration() {
    let (compiled, params, _) = square_model(0x5e_006);
    // unit 0 is fc1, unit 1 the square's first ciphertext, which reads it
    let mut swapped = compiled.clone();
    assert!(matches!(swapped.plan.units[0].work, UnitWork::Step { .. }));
    assert!(matches!(
        swapped.plan.units[1].work,
        UnitWork::StepCt { .. }
    ));
    swapped.plan.units.swap(0, 1);
    let report = verify_compiled(&swapped, &VerifyConfig::default());
    assert!(
        report.diagnostics.iter().any(|d| d.rule == Rule::Coverage),
        "{}",
        report.table()
    );

    let server = Server::new(ServeConfig::default());
    let dir = std::env::temp_dir().join(format!("orion_serve_swapped_plan_{}", std::process::id()));
    for paged in [false, true] {
        let refused = match paged {
            true => server.add_model_paged("m", swapped.clone(), params.clone(), 0, &dir, 1 << 20),
            false => server.add_model("m", swapped.clone(), params.clone(), 0),
        };
        match refused {
            Err(ServeError::Unverifiable { errors, detail, .. }) => {
                assert_eq!(errors, report.error_count());
                assert!(detail.contains(Rule::Coverage.name()), "{detail}");
            }
            other => panic!("expected Unverifiable, got ok={:?}", other.is_ok()),
        }
    }
    server
        .add_model("m", compiled, params, 0)
        .expect("the plan compile built registers");
    std::fs::remove_dir_all(&dir).ok();
}

/// A resident `square_model` with one client and one encrypted request.
fn one_client_server(
    cfg: ServeConfig,
    seed: u64,
) -> (Server, ClientId, Vec<orion_ckks::encrypt::Ciphertext>) {
    let server = Server::new(cfg);
    let (compiled, params, shape) = square_model(seed);
    let model = server
        .add_model("m", compiled, params, 0)
        .expect("register");
    let client = server.add_client(model, seed).expect("client");
    let mut rng = StdRng::seed_from_u64(seed);
    let cts = server
        .encrypt(client, &random_input(&shape, &mut rng))
        .expect("encrypt");
    (server, client, cts)
}

/// Nothing but the queue releases a request: on an idle server a worker is
/// asleep on the queue's condvar and starts the request when it is admitted,
/// not when a timer expires. The fastest of a few lone requests shows it
/// whatever else the host is running.
#[test]
fn an_idle_server_starts_a_request_at_once() {
    let (mut server, client, cts) = one_client_server(one_worker(), 0x5e_006);
    server.start();
    let fastest = (0..8)
        .map(|_| {
            server
                .infer(client, cts.clone())
                .expect("serve")
                .queue_seconds
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        fastest < 1e-3,
        "a lone request waited {:.2} ms for an idle worker",
        fastest * 1e3
    );
    server.shutdown();
}

/// Parallelism is inference-level: two requests of ONE model admitted back
/// to back run on two workers, so the later one starts while the earlier is
/// still executing instead of queueing behind it.
#[test]
fn two_requests_of_one_model_run_on_two_workers() {
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let (mut server, client, cts) = one_client_server(cfg, 0x5e_007);
    server.start();
    let earlier = server.submit(client, cts.clone()).expect("submit");
    let later = server.submit(client, cts).expect("submit");
    let (earlier, later) = (earlier.wait().expect("serve"), later.wait().expect("serve"));
    assert!(
        later.queue_seconds < earlier.wall_seconds,
        "the second request queued {:.2} ms behind a {:.2} ms inference",
        later.queue_seconds * 1e3,
        earlier.wall_seconds * 1e3
    );
    server.shutdown();
}

/// No waiter is stranded: a request admitted to a server whose workers
/// never ran resolves when the server shuts down, not when it is dropped.
#[test]
fn a_ticket_of_a_server_that_never_started_resolves_on_shutdown() {
    let (mut server, client, cts) = one_client_server(one_worker(), 0x5e_008);
    let ticket = server.submit(client, cts.clone()).expect("admitted");
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || tx.send(ticket.wait().map(|_| ())));
    server.shutdown();
    match rx.recv_timeout(Duration::from_secs(5)) {
        Ok(Err(ServeError::ShuttingDown)) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    waiter.join().expect("waiter").expect("sent");
    assert!(matches!(
        server.submit(client, cts),
        Err(ServeError::ShuttingDown)
    ));
    let snap = server.metrics();
    let depth = match snap.get("models") {
        Some(Value::Arr(models)) => models[0].get("queue_depth").and_then(Value::as_f64),
        other => panic!("models missing: {other:?}"),
    };
    assert_eq!(depth, Some(0.0), "the drained request left the depth gauge");
}
