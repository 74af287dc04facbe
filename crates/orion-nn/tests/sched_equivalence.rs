//! Walk equivalence: walks running in parallel on the shared pool — as
//! serve workers and batch inference run them — must be **bit-exact** and
//! **counter-identical** to a walk alone on the calling thread, on every
//! engine. Per-(wire, version, ct) value slots owned by each walk make the
//! data flow explicit, every backend op (including the bootstrap oracle)
//! is a pure function of its inputs, and the op counter is a fold over the
//! plan's units in plan order, so even the accumulated `f64` model seconds
//! agree to the last bit. Every walk also frees each value after its last
//! reader, and the most limb vectors it holds at once is the peak the
//! verifier certifies for its plan — on both engines, to the limb.

use orion_ckks::CkksParams;
use orion_nn::backend::{decrypt_output, encrypt_input};
use orion_nn::backends::{CkksBackend, ClearBackend};
use orion_nn::compile::{compile, CompileOptions, Compiled};
use orion_nn::fhe_exec::FheSession;
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_nn::sched::{run_plan, PlanRun, UnitWork};
use orion_nn::sim::{CostModel, OpCounter};
use orion_nn::verify::{verify_compiled, VerifyConfig};
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

fn random_input(c: usize, h: usize, w: usize, rng: &mut StdRng) -> Tensor {
    let n = c * h * w;
    Tensor::from_vec(
        &[c, h, w],
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// Counters must agree EXACTLY — counts, encodes, and the accumulated
/// floating-point model seconds down to the bit (the shard-merge order is
/// deterministic, so any drift is a scheduler bug).
fn assert_counters_bit_identical(a: &OpCounter, b: &OpCounter, what: &str) {
    assert_eq!(a.all(), b.all(), "{what}: op tallies diverged");
    assert_eq!(a.encodes, b.encodes, "{what}: encode tallies diverged");
    assert_eq!(
        a.seconds.to_bits(),
        b.seconds.to_bits(),
        "{what}: modeled seconds drifted ({} vs {})",
        a.seconds,
        b.seconds
    );
    assert_eq!(
        a.linear_seconds.to_bits(),
        b.linear_seconds.to_bits(),
        "{what}: linear seconds drifted"
    );
    assert_eq!(
        a.bootstrap_seconds.to_bits(),
        b.bootstrap_seconds.to_bits(),
        "{what}: bootstrap seconds drifted"
    );
}

/// The walk's measured peak live limbs are the verifier's certificate of
/// its plan — equal, not merely bounded.
fn assert_peak_certified<Ct>(run: &PlanRun<Ct>, c: &Compiled, what: &str) {
    let certified = verify_compiled(c, &VerifyConfig::default()).peak_limbs;
    assert_eq!(
        Some(run.peak_live_limbs),
        certified,
        "{what}: measured vs certified peak live limbs"
    );
}

/// Walks `c`'s plan over `cts` on `backend` alone, then twice at once on
/// two threads; returns the lone walk and the two parallel ones.
fn walk_alone_and_in_parallel<B>(
    c: &Compiled,
    backend: &B,
    cts: &[B::Ciphertext],
) -> (PlanRun<B::Ciphertext>, [PlanRun<B::Ciphertext>; 2])
where
    B: orion_nn::EvalBackend + Sync,
{
    let walk = || run_plan(c, backend, cts.to_vec());
    let alone = walk();
    let (a, b) = rayon::join(walk, walk);
    (alone, [a, b])
}

/// Checks the walks of [`walk_alone_and_in_parallel`] for bit-exact
/// outputs and bit-identical counters. Returns the lone walk's bootstraps.
fn check_walks<B>(c: &Compiled, backend: &B, cts: &[B::Ciphertext], what: &str) -> u64
where
    B: orion_nn::EvalBackend + Sync,
{
    let (seq_run, par_runs) = walk_alone_and_in_parallel(c, backend, cts);
    assert_peak_certified(&seq_run, c, what);
    for par_run in &par_runs {
        assert_peak_certified(par_run, c, what);
        assert_eq!(
            decrypt_output(c, backend, &seq_run.output_wire).data(),
            decrypt_output(c, backend, &par_run.output_wire).data(),
            "{what}: parallel output diverged from the lone walk"
        );
        assert_counters_bit_identical(&seq_run.counter, &par_run.counter, what);
    }
    let boots = seq_run.counter.bootstraps();
    let is_boot = |u: &&orion_nn::sched::Unit| matches!(u.work, UnitWork::Boot { .. });
    let plan_boots = c.plan.units.iter().filter(is_boot).count() as u64;
    assert_eq!(boots, plan_boots, "{what}: bootstraps");
    boots
}

fn mlp(rng: &mut StdRng) -> Network {
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 16, rng);
    let a1 = net.square("act1", l1);
    let l2 = net.linear("fc2", a1, 4, rng);
    net.output(l2);
    net
}

/// The MLP at tiny real-CKKS parameters is bootstrap-deep; all three
/// engines must agree with themselves whether a walk runs alone or beside
/// another, bit for bit. CKKS runs on pre-encrypted inputs so every walk
/// sees identical request ciphertexts (the bootstrap oracle derives its
/// noise from the ciphertext being refreshed, so bootstraps replay
/// deterministically).
#[test]
fn mlp_parallel_matches_sequential_on_all_three_engines() {
    let params = CkksParams::tiny();
    let mut rng = StdRng::seed_from_u64(0x5c4ed);
    let net = mlp(&mut rng);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fixed_ranges(&net, 2.0), &opts);
    assert!(
        compiled.placement.boot_count > 0,
        "test must exercise bootstrap units"
    );
    let input = random_input(1, 8, 8, &mut rng);

    let packed = ClearBackend::packed(&compiled);
    let cts = encrypt_input(&compiled, &packed, &input);
    let boots = check_walks(&compiled, &packed, &cts, "plain mlp");
    assert_eq!(boots, compiled.placement.boot_count);
    let reference = ClearBackend::reference(&compiled);
    check_walks(&compiled, &reference, &cts, "trace mlp");

    let session = FheSession::new(params, &compiled, 99);
    let cts = session.encrypt_input(&compiled, &input);
    let boots = check_walks(&compiled, &CkksBackend::new(&session), &cts, "ckks mlp");
    assert_eq!(boots, compiled.placement.boot_count);
}

/// A conv net with a ReLU (scale-down fork → sign chain → final product:
/// the SESE region whose shared wire gets bootstrapped mid-region, so the
/// plan's wire *versioning* is on trial) and a residual add, on the two
/// cleartext engines — multi-ciphertext wires, ≥1 bootstrap site.
#[test]
fn conv_relu_residual_parallel_matches_sequential() {
    let mut rng = StdRng::seed_from_u64(0x5c4ee);
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
    assert!(compiled.placement.boot_count > 0, "want bootstrap sites");
    assert!(
        compiled.prog.iter().any(|p| p.n_cts >= 2),
        "want multi-ciphertext wires"
    );
    let input = random_input(4, 8, 8, &mut rng);
    let packed = ClearBackend::packed(&compiled);
    let cts = encrypt_input(&compiled, &packed, &input);
    check_walks(&compiled, &packed, &cts, "plain conv");
    let reference = ClearBackend::reference(&compiled);
    check_walks(&compiled, &reference, &cts, "trace conv");
}

/// A bootstrap-deep CKKS conv net (square activations keep the depth
/// affordable at tiny parameters): the real-crypto engine, prepared mode,
/// pre-encrypted inputs — the serving hot path — must replay bit-exactly
/// when two walks run at once, with zero per-inference encodes in every
/// walk.
#[test]
fn ckks_prepared_conv_parallel_matches_sequential() {
    let params = CkksParams::tiny();
    let mut rng = StdRng::seed_from_u64(0x5c4ef);
    let mut net = Network::new(2, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 4, 3, 2, 1, 1, &mut rng);
    let a1 = net.square("act1", c1);
    let f = net.flatten("flat", a1);
    let l = net.linear("fc", f, 6, &mut rng);
    net.output(l);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    assert!(compiled.placement.boot_count > 0, "want bootstrap units");
    let session = FheSession::new(params, &compiled, 17);
    let prepared = session.prepare(&compiled);
    let input = random_input(2, 8, 8, &mut rng);
    let cts = session.encrypt_input(&compiled, &input);
    let backend = CkksBackend::with_prepared(&session, prepared);
    let (seq_run, par_runs) = walk_alone_and_in_parallel(&compiled, &backend, &cts);
    for par_run in &par_runs {
        assert_eq!(
            session
                .decrypt_output(&compiled, &seq_run.output_wire)
                .data(),
            session
                .decrypt_output(&compiled, &par_run.output_wire)
                .data()
        );
        // raw output ciphertexts, not just decodes, must match bit for bit
        assert_wires_bit_identical(&seq_run.output_wire, &par_run.output_wire);
        assert_counters_bit_identical(&seq_run.counter, &par_run.counter, "ckks prepared conv");
    }
    assert_eq!(seq_run.counter.encodes, 0, "prepared path must not encode");
}

fn assert_wires_bit_identical(a: &[orion_ckks::Ciphertext], b: &[orion_ckks::Ciphertext]) {
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.c0, b.c0, "output ciphertext diverged");
        assert_eq!(a.c1, b.c1);
        assert_eq!(a.scale, b.scale);
    }
}

/// An engine holds no per-run state: ONE `CkksBackend` value walked over
/// three different encrypted inputs concurrently equals three separate
/// walks, each on an engine of its own, bit for bit.
#[test]
fn one_engine_value_serves_concurrent_walks() {
    let params = CkksParams::tiny();
    let mut rng = StdRng::seed_from_u64(0x5c4f0);
    let net = mlp(&mut rng);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fixed_ranges(&net, 2.0), &opts);
    let session = FheSession::new(params, &compiled, 23);
    let prepared = session.prepare(&compiled);
    let requests: Vec<_> = (0..3)
        .map(|_| session.encrypt_input(&compiled, &random_input(1, 8, 8, &mut rng)))
        .collect();

    let shared = CkksBackend::with_prepared(&session, prepared.clone());
    let together: Vec<_> = requests
        .par_iter()
        .map(|cts| run_plan(&compiled, &shared, cts.clone()))
        .collect();
    for (cts, got) in requests.iter().zip(&together) {
        let own = CkksBackend::with_prepared(&session, prepared.clone());
        let alone = run_plan(&compiled, &own, cts.clone());
        assert_wires_bit_identical(&alone.output_wire, &got.output_wire);
        assert_counters_bit_identical(&alone.counter, &got.counter, "concurrent walk");
    }
    // three different requests, three different answers
    assert_ne!(together[0].output_wire[0].c0, together[1].output_wire[0].c0);
    assert_ne!(together[1].output_wire[0].c0, together[2].output_wire[0].c0);
}

/// Walks `net`'s plan once on the real engine and holds its measured peak
/// live limbs to the certificate.
fn ckks_peak_is_certified(net: &Network, params: CkksParams, what: &str) {
    let c = compile(
        net,
        &fixed_ranges(net, 4.0),
        &CompileOptions::from_params(&params),
    );
    let session = FheSession::new(params, &c, 0x9ea4);
    let shape = c.input_layout;
    let input = random_input(
        shape.c,
        shape.h,
        shape.w,
        &mut StdRng::seed_from_u64(0x9ea5),
    );
    let cts = session.encrypt_input(&c, &input);
    let run = run_plan(&c, &CkksBackend::new(&session), cts);
    assert_peak_certified(&run, &c, what);
}

/// The real engine moves each slot's last read and frees it after: the
/// peak it holds is the certificate on the benchmark's residual-block net
/// (two blocks of 1×1 conv → ReLU{15,15,27} → 1×1 conv → add → SiLU-15, on
/// the medium chain at N = 2¹¹), the bootstrap-deep MLP at `tiny`, and a
/// fork whose two convs read one wire — the first borrows it, the second
/// moves it.
#[test]
fn ckks_walks_hold_the_certified_peak() {
    let mut rng = StdRng::seed_from_u64(0x5c4f1);
    let mut net = Network::new(4, 8, 8);
    let x = net.input();
    let stem = net.conv2d("stem", x, 8, 1, 1, 0, 1, &mut rng);
    let mut cur = net.silu("stem_act", stem, 15);
    for b in 0..2 {
        let c1 = net.conv2d(&format!("b{b}_conv1"), cur, 8, 1, 1, 0, 1, &mut rng);
        let r = net.relu(&format!("b{b}_relu"), c1, &[15, 15, 27]);
        let c2 = net.conv2d(&format!("b{b}_conv2"), r, 8, 1, 1, 0, 1, &mut rng);
        let sum = net.add(&format!("b{b}_add"), c2, cur);
        cur = net.silu(&format!("b{b}_act"), sum, 15);
    }
    net.output(cur);
    let medium_n11 = CkksParams {
        n: 1 << 11,
        ..CkksParams::medium()
    };
    ckks_peak_is_certified(&net, medium_n11, "resblock");

    ckks_peak_is_certified(&mlp(&mut rng), CkksParams::tiny(), "mlp");

    let mut net = Network::new(4, 8, 8);
    let x = net.input();
    let a = net.conv2d("c2a", x, 4, 3, 1, 1, 1, &mut rng);
    let b = net.conv2d("c2b", x, 4, 3, 1, 1, 1, &mut rng);
    let add = net.add("res", a, b);
    net.output(add);
    ckks_peak_is_certified(&net, CkksParams::tiny(), "fork");
}

/// A unit reading one slot at both inputs (`x + x`) borrows it for the
/// first read and moves it for the second: the walk neither panics on the
/// slot the second read emptied nor changes a bit — the cleartext engine
/// computes the network's own `x + x` — and holds the certified peak on
/// both engines.
#[test]
fn a_unit_reading_one_slot_twice_borrows_then_moves() {
    let mut rng = StdRng::seed_from_u64(0x5c4f2);
    let mut net = Network::new(2, 8, 8);
    let x = net.input();
    let a = net.conv2d("c1", x, 2, 3, 1, 1, 1, &mut rng);
    let dbl = net.add("dbl", a, a);
    net.output(dbl);
    let params = CkksParams::tiny();
    let c = compile(
        &net,
        &fixed_ranges(&net, 4.0),
        &CompileOptions::from_params(&params),
    );
    let input = random_input(2, 8, 8, &mut rng);

    let clear = ClearBackend::reference(&c);
    let run = run_plan(&c, &clear, encrypt_input(&c, &clear, &input));
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&decrypt_output(&c, &clear, &run.output_wire)),
        bits(&net.forward_poly(&input, &c.acts)),
        "x + x on the cleartext engine"
    );
    assert_peak_certified(&run, &c, "clear dbl");

    let session = FheSession::new(params, &c, 0xdb1);
    let cts = session.encrypt_input(&c, &input);
    let run = run_plan(&c, &CkksBackend::new(&session), cts);
    assert_peak_certified(&run, &c, "ckks dbl");
}
