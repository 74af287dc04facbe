//! Benchmarks of the packing engine: plan construction speed
//! (the "compile" cost of Table 5) and plan execution on the cleartext
//! path. The hoisting ablation on the real backend is `ablation.rs`.

use orion_bench::bench;
use orion_linear::exec::exec_plain;
use orion_linear::plan::{conv_plan, dense_plan, ConvSpec};
use orion_linear::values::ConvDiagSource;
use orion_linear::TensorLayout;
use orion_tensor::Tensor;

fn main() {
    let in_l = TensorLayout::raster(64, 56, 56); // an ImageNet-scale layer
    let spec = ConvSpec {
        co: 64,
        ci: 64,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        dilation: 1,
        groups: 1,
    };
    bench("conv_plan_imagenet_layer", 10, || {
        conv_plan(&in_l, &spec, 1 << 15)
    });
    let strided = ConvSpec {
        co: 128,
        ci: 64,
        kh: 3,
        kw: 3,
        stride: 2,
        padding: 1,
        dilation: 1,
        groups: 1,
    };
    bench("conv_plan_strided", 10, || {
        conv_plan(&in_l, &strided, 1 << 15)
    });

    let dense_in = TensorLayout::raster(512, 1, 1);
    bench("dense_plan_512x512", 10, || {
        dense_plan(&dense_in, 512, 1 << 12)
    });

    let in_l = TensorLayout::raster(8, 16, 16);
    let spec = ConvSpec {
        co: 8,
        ci: 8,
        kh: 3,
        kw: 3,
        stride: 1,
        padding: 1,
        dilation: 1,
        groups: 1,
    };
    let slots = 2048;
    let (plan, out_l) = conv_plan(&in_l, &spec, slots);
    let weights = Tensor::from_vec(&[8, 8, 3, 3], (0..576).map(|i| i as f64 * 0.01).collect());
    let src = ConvDiagSource {
        in_l,
        out_l,
        spec,
        weights: &weights,
    };
    let input: Vec<Vec<f64>> = vec![(0..slots).map(|i| (i % 13) as f64 * 0.1).collect()];
    bench("exec_plain_conv_8ch_16x16", 10, || {
        exec_plain(&plan, &src, None, &input)
    });
}
