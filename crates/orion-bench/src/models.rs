//! Prepared + paged benchmark models shared by `benches/sched.rs` and the
//! `bench_matrix` thread-sweep binary: the same two workloads (an
//! end-to-end serving net and a bootstrap-heavy non-linear net) measured
//! under different scheduler modes and pool widths.

use criterion::Criterion;
use orion_ckks::CkksParams;
use orion_linear::paged::{LayerSource, PagedProgram};
use orion_linear::store::DiagStore;
use orion_nn::backend::run_program_mode;
use orion_nn::backends::{CkksBackend, ClearBackend};
use orion_nn::compile::{compile, CompileOptions, Compiled};
use orion_nn::fhe_exec::FheSession;
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_nn::opt::{optimize_plan, OptConfig, OptStats};
use orion_nn::sched::{count_plan, ExecPlan, SchedMode};
use orion_sim::{CostModel, OpCounter};
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A compiled network with a live session and a paged prepared-weight
/// source — everything one scheduler-mode inference needs.
pub struct Model {
    /// The compiled program.
    pub compiled: Compiled,
    /// The FHE session (keys, context).
    pub session: FheSession,
    /// Paged prepared weights (budget below full footprint).
    pub source: Arc<dyn LayerSource>,
    /// A pre-encrypted input.
    pub cts: Vec<orion_ckks::encrypt::Ciphertext>,
    /// Zero tensor with the input shape (the injected cts carry the data).
    pub dummy: Tensor,
    /// On-disk diagonal store backing the paged source.
    pub store_dir: std::path::PathBuf,
}

impl Model {
    /// One inference under the given scheduler mode.
    pub fn run(&self, mode: SchedMode) -> Tensor {
        let backend = CkksBackend::with_source(&self.session, self.source.clone())
            .inject_inputs(self.cts.clone());
        run_program_mode(&self.compiled, &backend, &self.dummy, mode).output
    }

    /// Removes the on-disk store.
    pub fn cleanup(&self) {
        std::fs::remove_dir_all(&self.store_dir).ok();
    }
}

/// Compiles `net`, prepares + pages its weights under
/// `footprint · budget_frac.0 / budget_frac.1`, and encrypts one input.
pub fn paged_model(
    name: &str,
    params: CkksParams,
    net: Network,
    shape: (usize, usize, usize),
    budget_frac: (usize, usize),
) -> Model {
    let compiled = compile(
        &net,
        &fixed_ranges(&net, 4.0),
        &CompileOptions::from_params(&params),
    );
    let session = FheSession::new(params, &compiled, 5);
    let prepared = session.prepare(&compiled);
    let footprint = prepared.approx_bytes();
    let store_dir = std::env::temp_dir().join(format!("orion_sched_bench_{name}"));
    std::fs::remove_dir_all(&store_dir).ok();
    let store = DiagStore::open(&store_dir).expect("open store");
    let paged = PagedProgram::page_out(
        &prepared,
        store,
        name,
        footprint * budget_frac.0 / budget_frac.1,
    )
    .expect("page out");
    let mut rng = StdRng::seed_from_u64(0x5c4e_dbe9);
    let (c, h, w) = shape;
    let input = Tensor::from_vec(
        &[c, h, w],
        (0..c * h * w).map(|_| rng.gen_range(-0.5..0.5)).collect(),
    );
    let cts = session.encrypt_input(&compiled, &input);
    Model {
        dummy: Tensor::from_vec(&[c, h, w], vec![0.0; c * h * w]),
        compiled,
        session,
        source: Arc::new(paged),
        cts,
        store_dir,
    }
}

/// End-to-end serving shape: conv + square + dense (bootstrap-deep at tiny
/// parameters), paged under a budget that forces eviction.
pub fn e2e_model() -> Model {
    let mut rng = StdRng::seed_from_u64(0xe2e);
    let mut net = Network::new(2, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 4, 3, 2, 1, 1, &mut rng);
    let a1 = net.square("act1", c1);
    let f = net.flatten("flat", a1);
    let l = net.linear("fc", f, 6, &mut rng);
    net.output(l);
    paged_model("e2e", CkksParams::tiny(), net, (2, 8, 8), (2, 3))
}

/// Non-linear shape: a 1×1 conv feeding multi-ciphertext SiLU wires —
/// runtime lives in the per-ciphertext Chebyshev stages and bootstraps the
/// event-driven scheduler fans out.
pub fn nonlinear_model() -> Model {
    // deg-15 SiLU stages need 7 levels; tiny's L_eff = 2 cannot hold
    // them, so give the ring more headroom (still N = 2¹⁰, 512 slots)
    let params = CkksParams {
        n: 1 << 10,
        log_scale: 30,
        q0_bits: 45,
        max_level: 8,
        special_bits: 45,
        sigma: 3.2,
        boot_levels: 1,
    };
    let mut rng = StdRng::seed_from_u64(0x41c7);
    // 4×16×16 = 1024 raster slots > 512 slots/ct → multi-ct wires
    let mut net = Network::new(4, 16, 16);
    let x = net.input();
    let c1 = net.conv2d("mix", x, 4, 1, 1, 0, 1, &mut rng);
    let a1 = net.silu("act1", c1, 15);
    let a2 = net.silu("act2", a1, 15);
    net.output(a2);
    let m = paged_model("nonlinear", params, net, (4, 16, 16), (1, 1));
    assert!(
        m.compiled.placement.boot_count > 0,
        "nonlinear bench must exercise bootstrap units"
    );
    assert!(
        m.compiled.prog.iter().any(|p| p.n_cts >= 2),
        "nonlinear bench needs multi-ciphertext wires"
    );
    m
}

/// Serving throughput (requests/second) through the orion-serve queue /
/// batcher / worker pool: the bootstrap-free square MLP of the serve
/// bench, paged under ⅔ of its weight footprint, `clients` concurrent
/// clients submitting `requests_per_client` requests each.
pub fn serve_throughput(clients: usize, requests_per_client: usize) -> f64 {
    use orion_serve::{ServeConfig, Server};
    use std::time::{Duration, Instant};

    let params = CkksParams {
        n: 1 << 10,
        log_scale: 30,
        q0_bits: 45,
        max_level: 6,
        special_bits: 45,
        sigma: 3.2,
        boot_levels: 1,
    };
    let mut rng = StdRng::seed_from_u64(0xbe_5e1);
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
    let session = FheSession::new(params.clone(), &compiled, 1);
    let footprint = session.prepare(&compiled).approx_bytes();
    let inputs: Vec<Tensor> = (0..clients * requests_per_client)
        .map(|_| {
            Tensor::from_vec(
                &[1, 8, 8],
                (0..64).map(|_| rng.gen_range(-0.5..0.5)).collect(),
            )
        })
        .collect();

    let mut server = Server::new(ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        workers: 2,
        queue_capacity: 64,
    });
    let store_dir = std::env::temp_dir().join("orion_bench_matrix_store");
    std::fs::remove_dir_all(&store_dir).ok();
    let model = server
        .add_model_paged("matrix", compiled, params, 2, &store_dir, footprint * 2 / 3)
        .expect("register");
    let handles: Vec<_> = (0..clients)
        .map(|i| server.add_client(model, 100 + i as u64).expect("client"))
        .collect();
    server.start();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (tid, &client) in handles.iter().enumerate() {
            let server = &server;
            let inputs = &inputs;
            scope.spawn(move || {
                let mine = &inputs[tid * requests_per_client..(tid + 1) * requests_per_client];
                let tickets: Vec<_> = mine
                    .iter()
                    .map(|input| {
                        let cts = server.encrypt(client, input).expect("encrypt");
                        server.submit(client, cts).expect("submit")
                    })
                    .collect();
                for t in tickets {
                    t.wait().expect("serve");
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    server.shutdown();
    std::fs::remove_dir_all(&store_dir).ok();
    (clients * requests_per_client) as f64 / secs
}

/// ResNet-CIFAR-style residual fork: one stem conv whose output feeds two
/// same-spec 3×3 branch convs merged by an add. Both branches rotate the
/// same ciphertexts by identical baby-step amounts — the canonical
/// cross-wire rotation-CSE win.
pub fn resnet_fork_net() -> Network {
    let mut rng = StdRng::seed_from_u64(0xc1fa);
    let mut net = Network::new(3, 8, 8);
    let x = net.input();
    let stem = net.conv2d("stem", x, 4, 3, 1, 1, 1, &mut rng);
    let b1 = net.conv2d("branch1", stem, 4, 3, 1, 1, 1, &mut rng);
    let b2 = net.conv2d("branch2", stem, 4, 3, 1, 1, 1, &mut rng);
    let sum = net.add("res", b1, b2);
    net.output(sum);
    net
}

/// Bootstrap-deep fork: a ReLU before the residual fork and a square after
/// it push level consumption past L_eff, so the plan carries bootstrap
/// units (for the sinking pass) and fusable scale-down chains on top of
/// the CSE-friendly fork.
pub fn boot_deep_fork_net() -> Network {
    let mut rng = StdRng::seed_from_u64(0xb007);
    let mut net = Network::new(2, 8, 8);
    let x = net.input();
    let stem = net.conv2d("stem", x, 4, 3, 1, 1, 1, &mut rng);
    let act = net.relu("act0", stem, &[15, 27]);
    let b1 = net.conv2d("branch1", act, 4, 3, 1, 1, 1, &mut rng);
    let b2 = net.conv2d("branch2", act, 4, 3, 1, 1, 1, &mut rng);
    let sum = net.add("res", b1, b2);
    let sq = net.square("act1", sum);
    net.output(sq);
    net
}

/// Unoptimized vs optimized integer op tallies of one execution.
pub struct OptComparison {
    /// Tallies of the plan as built.
    pub noopt: OpCounter,
    /// Tallies of the plan after the full optimizer pipeline.
    pub opt: OpCounter,
    /// Per-pass optimizer stats.
    pub stats: OptStats,
    /// Bootstrap sites in the placement (sanity: the deep model must
    /// exercise the sinking pass).
    pub boot_count: u64,
}

/// Counts `net`'s execution plan as built and after the full optimizer
/// pipeline. Op tallies are a fold over the plan
/// ([`orion_nn::sched::count_plan`]) — no inference runs — so the rotation /
/// key-switch ratios hold verbatim for every engine.
pub fn opt_comparison(net: &Network) -> OptComparison {
    let opts = CompileOptions {
        slots: 128,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    };
    let c = compile(net, &fixed_ranges(net, 4.0), &opts);
    let backend = ClearBackend::reference(&c);
    let mut plan = ExecPlan::build(&c);
    let noopt = count_plan(&plan, &c, &backend);
    let stats = optimize_plan(&mut plan, &c, OptConfig::default());
    OptComparison {
        noopt,
        opt: count_plan(&plan, &c, &backend),
        stats,
        boot_count: c.placement.boot_count,
    }
}

/// Measures `m` under each `(id, mode)` pair into group `group`.
pub fn measure_model(
    c: &mut Criterion,
    group: &str,
    m: &Model,
    modes: &[(&str, SchedMode)],
    samples: usize,
) {
    let mut g = c.benchmark_group(group);
    g.sample_size(samples);
    for &(id, mode) in modes {
        g.bench_function(id, |b| b.iter(|| m.run(mode)));
    }
    g.finish();
}
