//! Prepared-vs-on-the-fly equivalence: `exec_fhe_prepared` consumes
//! setup-time encodings and parallel group scheduling, but the modular
//! arithmetic is exact — so on the *same* input ciphertext it must be
//! **bit-for-bit** identical to `exec_fhe`, on a convolution and on a
//! (row-folded) dense layer, including the spill-to-disk round trip.

use orion_ckks::encoder::Encoder;
use orion_ckks::encrypt::{Ciphertext, Decryptor, Encryptor};
use orion_ckks::eval::Evaluator;
use orion_ckks::keys::KeyGenerator;
use orion_ckks::params::{CkksParams, Context};
use orion_linear::exec::{exec_fhe, exec_fhe_prepared, FheLinearContext};
use orion_linear::layout::TensorLayout;
use orion_linear::plan::{conv_plan, dense_plan, ConvSpec};
use orion_linear::prepared::PreparedLayer;
use orion_linear::store::DiagStore;
use orion_linear::values::{BiasValues, ConvDiagSource, DenseDiagSource, DiagSource};
use orion_linear::LinearPlan;
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Harness {
    ctx: std::sync::Arc<Context>,
    enc: Encoder,
    encryptor: Encryptor,
    #[allow(dead_code)]
    dec: Decryptor,
    eval: Evaluator,
    rng: StdRng,
}

fn setup(rotations: &[isize], seed: u64) -> Harness {
    let ctx = Context::new(CkksParams::tiny());
    let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(seed));
    let pk = std::sync::Arc::new(kg.gen_public_key());
    let keys = std::sync::Arc::new(kg.gen_eval_keys(rotations));
    let sk = kg.secret_key();
    Harness {
        enc: Encoder::new(ctx.clone()),
        encryptor: Encryptor::with_public_key(ctx.clone(), pk),
        dec: Decryptor::new(ctx.clone(), sk),
        eval: Evaluator::new(ctx.clone(), keys),
        ctx,
        rng: StdRng::seed_from_u64(seed ^ 0xabcd),
    }
}

fn assert_bit_exact(a: &[Ciphertext], b: &[Ciphertext], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: block count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.c0, y.c0, "{what}: block {i} c0 diverged");
        assert_eq!(x.c1, y.c1, "{what}: block {i} c1 diverged");
        assert_eq!(x.scale, y.scale, "{what}: block {i} scale diverged");
    }
}

fn run_both(
    h: &mut Harness,
    plan: &LinearPlan,
    source: &(dyn DiagSource + Sync),
    bias: Option<&[Vec<f64>]>,
    packed: &[f64],
    level: usize,
    what: &str,
) -> PreparedLayer {
    let slots = h.ctx.slots();
    let mut inputs = Vec::new();
    for b in 0..plan.in_blocks {
        let lo = b * slots;
        let hi = ((b + 1) * slots).min(packed.len());
        let mut chunk = packed[lo..hi].to_vec();
        chunk.resize(slots, 0.0);
        let pt = h.enc.encode(&chunk, h.ctx.scale(), level, false);
        inputs.push(h.encryptor.encrypt(&pt, &mut h.rng));
    }
    let fctx = FheLinearContext {
        eval: &h.eval,
        enc: &h.enc,
    };
    let on_the_fly = exec_fhe(&fctx, plan, source, bias, &inputs);
    let prepared = PreparedLayer::build(&h.enc, plan, source, bias, level);
    assert!(prepared.num_plaintexts() > 0, "{what}: empty cache");
    let cached = exec_fhe_prepared(&fctx, plan, &prepared, &inputs);
    assert_bit_exact(&on_the_fly, &cached, what);
    prepared
}

#[test]
fn prepared_conv_is_bit_exact_and_survives_disk() {
    let mut rng = StdRng::seed_from_u64(501);
    let in_l = TensorLayout::raster(8, 8, 8);
    let spec = ConvSpec {
        co: 8,
        ci: 8,
        kh: 3,
        kw: 3,
        stride: 2,
        padding: 1,
        dilation: 1,
        groups: 1,
    };
    // slots = 512 at tiny params → one in-block; use full ring
    let ctx = Context::new(CkksParams::tiny());
    let slots = ctx.slots();
    let (plan, out_l) = conv_plan(&in_l, &spec, slots);
    let weights = Tensor::from_vec(
        &[8, 8, 3, 3],
        (0..576).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    );
    let bias: Vec<f64> = (0..8).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let src = ConvDiagSource {
        in_l,
        out_l,
        spec,
        weights: &weights,
    };
    let bias_blocks = BiasValues::conv(&out_l, &bias, slots);
    let mut h = setup(&plan.rotation_steps(), 502);
    let input: Vec<f64> = (0..in_l.total_slots())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let packed = in_l.pack(&input);
    let prepared = run_both(&mut h, &plan, &src, Some(&bias_blocks), &packed, 2, "conv");

    // spill → load → the reloaded cache is still bit-exact
    let dir = std::env::temp_dir().join(format!("orion_prepared_exec_test_{}", std::process::id()));
    let store = DiagStore::open(&dir).unwrap();
    prepared.spill(&store, "conv").unwrap();
    let reloaded = PreparedLayer::load(&store, "conv").unwrap();
    assert_eq!(reloaded.level, prepared.level);
    assert_eq!(reloaded.num_plaintexts(), prepared.num_plaintexts());
    let slots_v = h.ctx.slots();
    let mut chunk = packed.clone();
    chunk.resize(slots_v, 0.0);
    let pt = h.enc.encode(&chunk, h.ctx.scale(), 2, false);
    let ct = h.encryptor.encrypt(&pt, &mut h.rng);
    let fctx = FheLinearContext {
        eval: &h.eval,
        enc: &h.enc,
    };
    let from_mem = exec_fhe_prepared(&fctx, &plan, &prepared, std::slice::from_ref(&ct));
    let from_disk = exec_fhe_prepared(&fctx, &plan, &reloaded, std::slice::from_ref(&ct));
    assert_bit_exact(&from_mem, &from_disk, "conv reloaded");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn prepared_dense_is_bit_exact() {
    let mut rng = StdRng::seed_from_u64(601);
    let in_l = TensorLayout::raster(16, 4, 4); // 256 features
    let n_out = 10;
    let ctx = Context::new(CkksParams::tiny());
    let slots = ctx.slots();
    let (plan, _) = dense_plan(&in_l, n_out, slots);
    let w = Tensor::from_vec(
        &[n_out, 256],
        (0..n_out * 256).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    );
    let bias: Vec<f64> = (0..n_out).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let src = DenseDiagSource::new(w, &in_l);
    let bias_blocks = BiasValues::dense(n_out, &bias, slots);
    let mut h = setup(&plan.rotation_steps(), 602);
    let input: Vec<f64> = (0..256).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let packed = in_l.pack(&input);
    // 256 → 10 at S = 512 folds (R = 16): the shared tail's rotate-and-sum
    // steps and the R-periodic bias ride both paths.
    assert!(plan.fold < slots, "the dense case must cover a folded plan");
    let prepared = run_both(&mut h, &plan, &src, Some(&bias_blocks), &packed, 1, "dense");

    let dir = std::env::temp_dir().join(format!(
        "orion_prepared_exec_dense_test_{}",
        std::process::id()
    ));
    let store = DiagStore::open(&dir).unwrap();
    prepared.spill(&store, "dense").unwrap();
    let reloaded = PreparedLayer::load(&store, "dense").unwrap();
    let mut chunk = packed.clone();
    chunk.resize(slots, 0.0);
    let pt = h.enc.encode(&chunk, h.ctx.scale(), 1, false);
    let ct = h.encryptor.encrypt(&pt, &mut h.rng);
    let fctx = FheLinearContext {
        eval: &h.eval,
        enc: &h.enc,
    };
    let on_the_fly = exec_fhe(
        &fctx,
        &plan,
        &src,
        Some(&bias_blocks),
        std::slice::from_ref(&ct),
    );
    let from_disk = exec_fhe_prepared(&fctx, &plan, &reloaded, std::slice::from_ref(&ct));
    assert_bit_exact(&on_the_fly, &from_disk, "dense reloaded");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn untouched_output_block_is_the_zero_plaintext_product() {
    // Channels 8..16 of a 1×1 conv have all-zero weights, so no diagonal
    // touches output block 1. The executor makes that block from an input
    // times the scalar 0 — bit for bit what multiplying by the all-zero
    // prime-scale plaintext, rescaling and adding the bias gives.
    let mut rng = StdRng::seed_from_u64(701);
    let in_l = TensorLayout::raster(2, 8, 8);
    let spec = ConvSpec {
        co: 16,
        ci: 2,
        kh: 1,
        kw: 1,
        stride: 1,
        padding: 0,
        dilation: 1,
        groups: 1,
    };
    let slots = Context::new(CkksParams::tiny()).slots();
    let (plan, out_l) = conv_plan(&in_l, &spec, slots);
    assert_eq!(plan.out_blocks, 2);
    let weights = Tensor::from_vec(
        &[16, 2, 1, 1],
        (0..32)
            .map(|i| {
                if i < 16 {
                    rng.gen_range(-1.0..1.0)
                } else {
                    0.0
                }
            })
            .collect(),
    );
    let bias: Vec<f64> = (0..16).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let src = ConvDiagSource {
        in_l,
        out_l,
        spec,
        weights: &weights,
    };
    let bias_blocks = BiasValues::conv(&out_l, &bias, slots);
    let mut h = setup(&plan.rotation_steps(), 702);
    let input: Vec<f64> = (0..in_l.total_slots())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let level = 2;
    let pt = h
        .enc
        .encode(&in_l.pack(&input), h.ctx.scale(), level, false);
    let ct = h.encryptor.encrypt(&pt, &mut h.rng);
    let fctx = FheLinearContext {
        eval: &h.eval,
        enc: &h.enc,
    };
    let prepared = PreparedLayer::build(&h.enc, &plan, &src, Some(&bias_blocks), level);
    let mut diags = plan.diagonals().zip(&prepared.diags);
    assert!(diags.all(|((i_blk, _, _), pt)| pt.is_none() || i_blk == 0));
    let out = exec_fhe_prepared(&fctx, &plan, &prepared, std::slice::from_ref(&ct));

    let zero = h.enc.encode_at_prime_scale_ws(&vec![0.0; slots], level);
    let mut expect = h.eval.mul_plain(&ct, &zero);
    h.eval.rescale_assign(&mut expect);
    let bias_pt = h
        .enc
        .encode(&bias_blocks[1], h.ctx.scale(), level - 1, false);
    let expect = h.eval.add_plain(&expect, &bias_pt);
    assert_bit_exact(&out[1..], std::slice::from_ref(&expect), "zero block");
}
