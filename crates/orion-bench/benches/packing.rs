//! Criterion benchmarks of the packing engine: plan construction speed
//! (the "compile" cost of Table 5) and plan execution on the cleartext
//! path, plus the ablation of BSGS and hoisting on the real backend.

use criterion::{criterion_group, criterion_main, Criterion};
use orion_linear::plan::{conv_plan, dense_plan, ConvSpec};
use orion_linear::TensorLayout;

fn bench_plan_building(c: &mut Criterion) {
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
    c.bench_function("conv_plan_imagenet_layer", |b| {
        b.iter(|| conv_plan(&in_l, &spec, 1 << 15))
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
    c.bench_function("conv_plan_strided", |b| {
        b.iter(|| conv_plan(&in_l, &strided, 1 << 15))
    });
}

fn bench_dense_plan(c: &mut Criterion) {
    let in_l = TensorLayout::raster(512, 1, 1);
    c.bench_function("dense_plan_512x512", |b| {
        b.iter(|| dense_plan(&in_l, 512, 1 << 12))
    });
}

fn bench_exec_plain(c: &mut Criterion) {
    use orion_linear::exec::exec_plain;
    use orion_linear::values::ConvDiagSource;
    use orion_tensor::Tensor;
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
    c.bench_function("exec_plain_conv_8ch_16x16", |b| {
        b.iter(|| exec_plain(&plan, &src, &input))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_plan_building, bench_dense_plan, bench_exec_plain
}
criterion_main!(benches);
