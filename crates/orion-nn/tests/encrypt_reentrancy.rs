//! Encrypting under one session from inside the shared pool terminates.
//!
//! The session RNG sits behind a non-reentrant mutex. An encryption runs
//! its NTTs on its own thread and waits on the pool for nothing, so no
//! thread can pick up a queued encryption while it is inside another. This
//! test is the guard that it stays so: if an encryption ever waited on the
//! pool again, the waiting thread would help with queued work — in a batch
//! of inferences, another encryption under the same session — and, were
//! the RNG lock still held there, lock it twice and sleep for ever.
//!
//! This file is its own test binary with a single test, so the test fixes
//! the pool width itself before anything has touched the pool.

use orion_ckks::CkksParams;
use orion_nn::compile::{compile, CompileOptions, Compiled};
use orion_nn::fhe_exec::FheSession;
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Encryptions the test runs: two to start with, the rest each spawned by
/// one that has just finished.
const TASKS: usize = 6;

struct Batch {
    session: FheSession,
    compiled: Compiled,
    input: Tensor,
    spawned: AtomicUsize,
    finished: AtomicUsize,
    all_done: mpsc::Sender<()>,
}

/// Encrypts once, then queues a successor while budget remains.
fn encrypt_task<'s>(s: &rayon::Scope<'s>, b: &'s Batch) {
    drop(b.session.encrypt_input(&b.compiled, &b.input));
    if b.spawned.fetch_add(1, Ordering::SeqCst) < TASKS {
        s.spawn(move |s| encrypt_task(s, b));
    }
    if b.finished.fetch_add(1, Ordering::SeqCst) + 1 == TASKS {
        b.all_done.send(()).ok();
    }
}

#[test]
fn pool_tasks_encrypting_under_one_session_terminate() {
    std::env::set_var("RAYON_NUM_THREADS", "2");
    assert_eq!(rayon::current_num_threads(), 2);

    let params = CkksParams::small();
    assert!(
        params.n >= 1 << 12,
        "the guard needs a ring large enough that a pool fan-out inside an encryption would engage"
    );
    let mut rng = StdRng::seed_from_u64(0x10c);
    let mut net = Network::new(1, 4, 4);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l = net.linear("fc", f, 4, &mut rng);
    net.output(l);
    let compiled = compile(
        &net,
        &fixed_ranges(&net, 4.0),
        &CompileOptions::from_params(&params),
    );
    let (all_done, release) = mpsc::channel();
    let batch = Batch {
        session: FheSession::new(params, &compiled, 7),
        compiled,
        input: Tensor::from_vec(&[1, 4, 4], (0..16).map(|i| i as f64 / 16.0).collect()),
        spawned: AtomicUsize::new(2),
        finished: AtomicUsize::new(0),
        all_done,
    };

    // The scope runs on a thread of its own so that a deadlock fails the
    // test at the watchdog instead of hanging the suite.
    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        let batch = &batch;
        rayon::scope(|s| {
            // Park the pool's one worker until every encryption is done:
            // the scope thread then runs all of them itself, in an order
            // the FIFO queue fixes, each queued by one that has finished.
            // An encryption that waited on the pool would, on this one
            // thread, start the next encryption inside itself; had it
            // held the RNG lock there, this would never end.
            let (parked, worker_parked) = mpsc::channel();
            s.spawn(move |_| {
                parked.send(()).ok();
                release.recv().ok();
            });
            worker_parked
                .recv()
                .expect("worker picks the parking task up");
            for _ in 0..2 {
                s.spawn(move |s| encrypt_task(s, batch));
            }
        });
        done.send(()).ok();
    });
    watchdog
        .recv_timeout(Duration::from_secs(60))
        .expect("encryptions under one session deadlocked (or panicked) inside the pool");
}
