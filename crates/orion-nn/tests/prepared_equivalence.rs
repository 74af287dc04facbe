//! The prepared serving path end to end: `run_program` on
//! `CkksBackend::with_prepared` computes the same function as on
//! `CkksBackend::new` on a real conv + dense network, the run's
//! op counter machine-checks the zero-per-inference-encodes claim, and
//! prepared engines stay counter-identical across CKKS and the modeled
//! backends.

use orion_ckks::precision::precision_bits;
use orion_ckks::CkksParams;
use orion_nn::backend::run_program;
use orion_nn::backends::{CkksBackend, ClearBackend};
use orion_nn::compile::{compile, CompileOptions, Step};
use orion_nn::fhe_exec::{run_fhe_prepared_cts, FheSession};
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_nn::sched::run_plan;
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Insecure test parameters with `l_eff = max_level − 1` headroom so small
/// nets run bootstrap-free and cheap. (Bootstraps are deterministic per
/// ciphertext since the oracle derives its noise from the input, so they
/// no longer break replay determinism — see `sched_equivalence` — but
/// skipping them keeps these tests fast.)
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

fn conv_dense_net(rng: &mut StdRng) -> Network {
    let mut net = Network::new(2, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 4, 3, 2, 1, 1, rng);
    let a1 = net.square("act1", c1);
    let f = net.flatten("flat", a1);
    let l = net.linear("fc", f, 6, rng);
    net.output(l);
    net
}

#[test]
fn prepared_run_matches_on_the_fly_with_zero_encodes() {
    let params = CkksParams::tiny();
    let mut rng = StdRng::seed_from_u64(0x9e_0001);
    let net = conv_dense_net(&mut rng);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    let session = FheSession::new(params, &compiled, 7);
    let prepared = session.prepare(&compiled);
    assert!(
        prepared.len() >= 2,
        "conv and dense should both be prepared"
    );
    assert!(prepared.num_plaintexts() > 0);

    let input = Tensor::from_vec(
        &[2, 8, 8],
        (0..128).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    );

    // Both paths compute the same function (fresh encryption randomness
    // per run, so compare decrypted values, not ciphertext bits — the
    // bit-exact executor check lives in orion-linear's prepared_exec).
    let on_the_fly = run_program(&compiled, &CkksBackend::new(&session), &input);
    let served = CkksBackend::with_prepared(&session, prepared.clone());
    let served = run_program(&compiled, &served, &input);
    let prec = precision_bits(served.output.data(), on_the_fly.output.data());
    assert!(prec > 8.0, "prepared diverged from on-the-fly: {prec} bits");

    // Op tallies: the prepared run records ZERO per-inference encodes,
    // everything else (bootstraps included) identical to the on-the-fly run.
    let (cold, warm) = (on_the_fly.counter, served.counter);
    assert!(cold.encodes > 0, "on-the-fly path must encode");
    assert_eq!(
        warm.encodes, 0,
        "prepared path must encode NOTHING per inference"
    );
    assert_eq!(cold.all(), warm.all());
    assert_eq!(cold.rotations(), warm.rotations());

    // The modeled trace engine mirrors the serving mode, so prepared CKKS
    // and prepared trace stay counter-identical (including encodes).
    let trace = run_program(
        &compiled,
        &ClearBackend::reference(&compiled).prepared(),
        &input,
    )
    .counter;
    assert_eq!(trace.encodes, 0);
    assert_eq!(trace.all(), warm.all());
}

#[test]
fn prepared_poly_net_is_bit_identical_and_encodes_only_weights() {
    // A SiLU net compiles to a real PolyStage. Its constants are scalars,
    // so the only per-inference encodes anywhere are the on-the-fly
    // engine's weight diagonals and biases — and on the same request
    // ciphertexts the prepared and on-the-fly engines agree bit for bit.
    let params = headroom_params(8); // depth 7: dense + scale-down + deg-3 stage(+norm) + dense
    let mut rng = StdRng::seed_from_u64(0x9e_0003);
    let mut net = Network::new(1, 4, 4);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 8, &mut rng);
    let a = net.silu("act", l1, 3);
    let l2 = net.linear("fc2", a, 3, &mut rng);
    net.output(l2);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    assert!(
        compiled
            .prog
            .iter()
            .any(|n| matches!(n.step, Step::PolyStage { .. })),
        "net must compile to a real poly stage"
    );
    let weight_encodes: u64 = compiled
        .prog
        .iter()
        .filter_map(|node| node.step.linear_plan())
        .map(|plan| (plan.counts.pmults + plan.out_blocks) as u64)
        .sum();

    let session = FheSession::new(params.clone(), &compiled, 11);
    let prepared = session.prepare(&compiled);
    let input = Tensor::from_vec(
        &[1, 4, 4],
        (0..16).map(|i| (i as f64) * 0.05 - 0.4).collect(),
    );
    let cts = session.encrypt_input(&compiled, &input);
    // `prepare` is encoder-only: a session that prepared first encrypts
    // exactly what an equally seeded one that never prepared does
    let unprepared = FheSession::new(params, &compiled, 11);
    for (a, b) in cts.iter().zip(unprepared.encrypt_input(&compiled, &input)) {
        assert_eq!((&a.c0, &a.c1), (&b.c0, &b.c1), "prepare advanced the RNG");
    }
    let cold = CkksBackend::new(&session);
    let cold = run_plan(&compiled, &cold, cts.clone());
    let warm = CkksBackend::with_prepared(&session, prepared.clone());
    let warm = run_plan(&compiled, &warm, cts);
    assert_eq!(
        cold.counter.encodes, weight_encodes,
        "weights and biases only"
    );
    assert_eq!(warm.counter.encodes, 0, "a prepared run encodes nothing");
    assert_eq!(cold.counter.all(), warm.counter.all());
    assert_eq!(cold.output_wire.len(), warm.output_wire.len());
    for (a, b) in cold.output_wire.iter().zip(&warm.output_wire) {
        assert_eq!(
            a.c0, b.c0,
            "prepared and on-the-fly wires must be bit-identical"
        );
        assert_eq!(a.c1, b.c1);
        assert_eq!(a.scale.to_bits(), b.scale.to_bits());
    }

    // modeled prepared engines stay counter-identical
    let trace = run_program(
        &compiled,
        &ClearBackend::reference(&compiled).prepared(),
        &input,
    )
    .counter;
    assert_eq!(trace.encodes, 0);
    assert_eq!(trace.all(), warm.counter.all());
}

#[test]
fn preencrypted_requests_replay_bit_exact() {
    // The serving path takes pre-encrypted inputs; with no bootstraps the
    // server side is fully deterministic, so the same request ciphertexts
    // must produce bit-identical outputs on every run.
    let params = headroom_params(6); // dense + square + dense, one level spare
    let mut rng = StdRng::seed_from_u64(0x9e_0004);
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 16, &mut rng);
    let a = net.square("act", l1);
    let l2 = net.linear("fc2", a, 4, &mut rng);
    net.output(l2);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    assert_eq!(
        compiled.placement.boot_count, 0,
        "determinism needs a bootstrap-free program"
    );
    let session = FheSession::new(params, &compiled, 12);
    let prepared = session.prepare(&compiled);
    let input = Tensor::from_vec(
        &[1, 8, 8],
        (0..64).map(|_| rng.gen_range(-0.5..0.5)).collect(),
    );
    let cts = session.encrypt_input(&compiled, &input);
    let (a_run, a_counter) = run_fhe_prepared_cts(&compiled, &session, &prepared, cts.clone());
    let (b_run, b_counter) = run_fhe_prepared_cts(&compiled, &session, &prepared, cts);
    assert_eq!(
        a_run.output.data(),
        b_run.output.data(),
        "not deterministic"
    );
    assert_eq!(a_counter.encodes, 0);
    assert_eq!(b_counter.encodes, 0);
    // and the decrypted result matches a plaintext-input prepared run
    let direct = CkksBackend::with_prepared(&session, prepared);
    let direct = run_program(&compiled, &direct, &input);
    let prec = precision_bits(a_run.output.data(), direct.output.data());
    assert!(prec > 8.0, "pre-encrypted diverged: {prec} bits");
}

#[test]
fn partially_prepared_cache_is_tallied_honestly() {
    // Encode accounting is per step: a cache covering only some linear
    // layers must still charge the uncached steps' on-the-fly encodes.
    let params = CkksParams::tiny();
    let mut rng = StdRng::seed_from_u64(0x9e_0002);
    let net = conv_dense_net(&mut rng);
    let opts = CompileOptions::from_params(&params);
    let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    let session = FheSession::new(params, &compiled, 8);
    let full = session.prepare(&compiled);
    assert!(full.len() >= 2);

    // Rebuild a cache holding only ONE of the prepared steps.
    let some_step = (0..compiled.prog.len())
        .find(|&id| full.layer(id).is_some())
        .unwrap();
    let mut partial = orion_linear::prepared::PreparedProgram::new();
    {
        use orion_linear::values::{BiasValues, ConvDiagSource};
        use orion_nn::compile::Step;
        let Step::Conv {
            plan,
            spec,
            weight,
            bias,
            in_l,
            out_l,
        } = &compiled.prog[some_step].step
        else {
            panic!("first prepared step should be the conv");
        };
        let src = ConvDiagSource {
            in_l: *in_l,
            out_l: *out_l,
            spec: *spec,
            weights: weight,
        };
        let bias_blocks = BiasValues::conv(out_l, bias, session.ctx.slots());
        partial.insert(
            some_step,
            orion_linear::prepared::PreparedLayer::build(
                &session.enc,
                plan,
                &src,
                Some(&bias_blocks),
                compiled.placement.levels[some_step].unwrap(),
            ),
        );
    }
    let partial = std::sync::Arc::new(partial);

    let input = Tensor::from_vec(
        &[2, 8, 8],
        (0..128).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    );
    let encodes =
        |backend: CkksBackend<'_>| run_program(&compiled, &backend, &input).counter.encodes;
    let cold = encodes(CkksBackend::new(&session));
    let mixed = encodes(CkksBackend::with_prepared(&session, partial));
    let warm = encodes(CkksBackend::with_prepared(&session, full));
    assert_eq!(warm, 0);
    assert!(
        mixed > 0 && mixed < cold,
        "partial cache must charge only the uncached steps: {mixed} vs cold {cold}"
    );
}
