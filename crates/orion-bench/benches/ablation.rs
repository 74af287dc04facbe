//! Ablation: hoisted + lazy-ModDown BSGS vs the unhoisted/on-the-fly
//! baseline, measured wall-clock on the real CKKS backend.
//!
//! This is the *measured* counterpart of Table 4's "Convs. (s)" mechanism:
//! the same plan, same diagonals, same rotations counts — only hoisting
//! and plaintext precomputation differ.

use orion_bench::bench;
use orion_ckks::keys::KeyGenerator;
use orion_ckks::params::{CkksParams, Context};
use orion_ckks::{Encoder, Encryptor, Evaluator};
use orion_linear::exec::{exec_fhe, exec_fhe_unhoisted, FheLinearContext};
use orion_linear::plan::{conv_plan, ConvSpec};
use orion_linear::values::ConvDiagSource;
use orion_linear::TensorLayout;
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() {
    let ctx = Context::new(CkksParams::small());
    let slots = ctx.slots();
    let mut rng = StdRng::seed_from_u64(1);
    let in_l = TensorLayout::raster(4, 16, 16);
    let spec = ConvSpec {
        co: 4,
        ci: 4,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        dilation: 1,
        groups: 1,
    };
    let (plan, out_l) = conv_plan(&in_l, &spec, slots);
    let weights = Tensor::from_vec(
        &[4, 4, 3, 3],
        (0..144).map(|_| rng.gen_range(-0.5..0.5)).collect(),
    );
    let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(2));
    let pk = Arc::new(kg.gen_public_key());
    let keys = Arc::new(kg.gen_eval_keys(&plan.rotation_steps()));
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::with_public_key(ctx.clone(), pk);
    let eval = Evaluator::new(ctx.clone(), keys);
    let src = ConvDiagSource {
        in_l,
        out_l,
        spec,
        weights: &weights,
    };
    let packed = in_l.pack(&vec![0.25; 4 * 16 * 16]);
    let ct = encryptor.encrypt(&enc.encode(&packed, ctx.scale(), 4, false), &mut rng);
    let fctx = FheLinearContext {
        eval: &eval,
        enc: &enc,
    };

    let input = std::slice::from_ref(&ct);
    bench("conv_4ch_16x16_fhe/double_hoisted", 10, || {
        exec_fhe(&fctx, &plan, &src, None, input)
    });
    bench("conv_4ch_16x16_fhe/unhoisted_otf_encoding", 10, || {
        exec_fhe_unhoisted(&fctx, &plan, &src, input)
    });
}
