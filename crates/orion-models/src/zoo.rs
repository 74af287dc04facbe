//! The network zoo (paper Table 2).
//!
//! All builders take an [`Act`] selecting the activation family (the paper
//! evaluates ReLU \[15,15,27\] vs SiLU-127 on CIFAR-10 and SiLU on the
//! larger datasets) and an RNG for Kaiming weight initialization — weights
//! are synthetic (see README, "Substitutions"), but sizes track the paper's
//! "Params (M)" column.

use orion_nn::network::{Network, NodeId};
use rand::Rng;

/// Activation family for a model build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Act {
    /// ReLU via composite sign degrees \[15, 15, 27\].
    Relu,
    /// SiLU via a degree-127 Chebyshev polynomial.
    Silu,
    /// SiLU with a custom degree (latency/accuracy trade-off, §8.2).
    SiluDeg(usize),
    /// The `x²` activation (MNIST networks).
    Square,
}

impl Act {
    fn apply<R: Rng>(self, net: &mut Network, name: &str, prev: NodeId, _rng: &mut R) -> NodeId {
        match self {
            Act::Relu => net.relu(name, prev, &[15, 15, 27]),
            Act::Silu => net.silu(name, prev, 127),
            Act::SiluDeg(d) => net.silu(name, prev, d),
            Act::Square => net.square(name, prev),
        }
    }
}

/// Metadata for reporting (paper Table 2 columns).
#[derive(Clone, Debug)]
pub struct ModelInfo {
    /// Model name.
    pub name: String,
    /// Dataset / input size the paper pairs it with.
    pub dataset: &'static str,
    /// Input shape.
    pub input: (usize, usize, usize),
    /// Parameter count.
    pub params: usize,
    /// Multiply-accumulate count.
    pub flops: usize,
}

/// Builds a model by name:
/// `mlp`, `lola`, `lenet5`, `alexnet`, `vgg16`, `resnet20/32/44/56/110/1202`,
/// `resnet18`, `resnet34`, `resnet50`, `mobilenet`, `yolo_v1`.
pub fn build<R: Rng>(name: &str, act: Act, rng: &mut R) -> (Network, ModelInfo) {
    let net = match name {
        "mlp" => mlp(rng),
        "lola" => lola(rng),
        "lenet5" => lenet5(rng),
        "alexnet" => alexnet(act, rng),
        "vgg16" => vgg16(act, rng),
        "resnet20" => resnet_cifar(3, act, rng),
        "resnet32" => resnet_cifar(5, act, rng),
        "resnet44" => resnet_cifar(7, act, rng),
        "resnet56" => resnet_cifar(9, act, rng),
        "resnet110" => resnet_cifar(18, act, rng),
        "resnet1202" => resnet_cifar(200, act, rng),
        "resnet18" => resnet_imagenet(&[2, 2, 2, 2], false, 200, 64, act, rng),
        "resnet34" => resnet_imagenet(&[3, 4, 6, 3], false, 1000, 224, act, rng),
        "resnet50" => resnet_imagenet(&[3, 4, 6, 3], true, 1000, 224, act, rng),
        "mobilenet" => mobilenet_v1(act, rng),
        "yolo_v1" => yolo_v1(act, rng),
        other => panic!("unknown model {other}"),
    };
    let (c, h, w) = net.shape(net.input());
    let dataset = match name {
        "mlp" | "lola" | "lenet5" => "MNIST",
        "alexnet" | "vgg16" | "resnet20" | "resnet32" | "resnet44" | "resnet56" | "resnet110"
        | "resnet1202" => "CIFAR-10",
        "resnet18" | "mobilenet" => "Tiny ImageNet",
        "resnet34" | "resnet50" => "ImageNet",
        _ => "PASCAL-VOC",
    };
    let info = ModelInfo {
        name: name.to_string(),
        dataset,
        input: (c, h, w),
        params: net.param_count(),
        flops: net.flop_count(),
    };
    (net, info)
}

/// SecureML's 3-layer MLP: 784-128-128-10, square activations.
pub fn mlp<R: Rng>(rng: &mut R) -> Network {
    let mut net = Network::new(1, 28, 28);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc1", f, 128, rng);
    let a1 = net.square("act1", l1);
    let l2 = net.linear("fc2", a1, 128, rng);
    let a2 = net.square("act2", l2);
    let l3 = net.linear("fc3", a2, 10, rng);
    net.output(l3);
    net
}

/// LoLA CryptoNets' 3-layer CNN: conv(5×5, stride 2) → square → fc →
/// square → fc.
pub fn lola<R: Rng>(rng: &mut R) -> Network {
    let mut net = Network::new(1, 28, 28);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 5, 5, 2, 2, 1, rng); // 5 maps, 14×14
    let a1 = net.square("act1", c1);
    let f = net.flatten("flat", a1);
    let l1 = net.linear("fc1", f, 100, rng);
    let a2 = net.square("act2", l1);
    let l2 = net.linear("fc2", a2, 10, rng);
    net.output(l2);
    net
}

/// The large LeNet-5 variant from CHET/EVA (~1.66 M parameters).
pub fn lenet5<R: Rng>(rng: &mut R) -> Network {
    let mut net = Network::new(1, 28, 28);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 32, 5, 1, 2, 1, rng);
    let a1 = net.square("act1", c1);
    let p1 = net.avg_pool2d("pool1", a1, 2, 2); // 14×14
    let c2 = net.conv2d("conv2", p1, 64, 5, 1, 2, 1, rng);
    let a2 = net.square("act2", c2);
    let p2 = net.avg_pool2d("pool2", a2, 2, 2); // 7×7
    let f = net.flatten("flat", p2);
    let l1 = net.linear("fc1", f, 512, rng);
    let a3 = net.square("act3", l1);
    let l2 = net.linear("fc2", a3, 10, rng);
    net.output(l2);
    net
}

/// CIFAR-10 AlexNet (~23 M parameters; the big classifier dominates).
pub fn alexnet<R: Rng>(act: Act, rng: &mut R) -> Network {
    let mut net = Network::new(3, 32, 32);
    let x = net.input();
    let mut cur = net.conv2d("conv1", x, 64, 3, 2, 1, 1, rng); // 16
    cur = net.batch_norm2d("bn1", cur);
    cur = act.apply(&mut net, "act1", cur, rng);
    cur = net.avg_pool2d("pool1", cur, 2, 2); // 8
    cur = net.conv2d("conv2", cur, 192, 3, 1, 1, 1, rng);
    cur = net.batch_norm2d("bn2", cur);
    cur = act.apply(&mut net, "act2", cur, rng);
    cur = net.avg_pool2d("pool2", cur, 2, 2); // 4
    cur = net.conv2d("conv3", cur, 384, 3, 1, 1, 1, rng);
    cur = act.apply(&mut net, "act3", cur, rng);
    cur = net.conv2d("conv4", cur, 256, 3, 1, 1, 1, rng);
    cur = act.apply(&mut net, "act4", cur, rng);
    cur = net.conv2d("conv5", cur, 256, 3, 1, 1, 1, rng);
    cur = act.apply(&mut net, "act5", cur, rng);
    cur = net.avg_pool2d("pool3", cur, 2, 2); // 2
    let f = net.flatten("flat", cur);
    let mut fc = net.linear("fc1", f, 4096, rng);
    fc = act.apply(&mut net, "act6", fc, rng);
    fc = net.linear("fc2", fc, 4096, rng);
    fc = act.apply(&mut net, "act7", fc, rng);
    fc = net.linear("fc3", fc, 10, rng);
    net.output(fc);
    net
}

/// CIFAR-10 VGG-16 (~14.7 M parameters).
pub fn vgg16<R: Rng>(act: Act, rng: &mut R) -> Network {
    let cfg: &[&[usize]] = &[
        &[64, 64],
        &[128, 128],
        &[256, 256, 256],
        &[512, 512, 512],
        &[512, 512, 512],
    ];
    let mut net = Network::new(3, 32, 32);
    let mut cur = net.input();
    let mut idx = 0;
    for (b, block) in cfg.iter().enumerate() {
        for &ch in block.iter() {
            cur = net.conv2d(&format!("conv{idx}"), cur, ch, 3, 1, 1, 1, rng);
            cur = net.batch_norm2d(&format!("bn{idx}"), cur);
            cur = act.apply(&mut net, &format!("act{idx}"), cur, rng);
            idx += 1;
        }
        cur = net.avg_pool2d(&format!("pool{b}"), cur, 2, 2);
    }
    let f = net.flatten("flat", cur); // 512×1×1
    let fc = net.linear("fc", f, 10, rng);
    net.output(fc);
    net
}

fn basic_block<R: Rng>(
    net: &mut Network,
    name: &str,
    mut x: NodeId,
    co: usize,
    stride: usize,
    act: Act,
    rng: &mut R,
) -> NodeId {
    let input = x;
    let (ci, _, _) = net.shape(x);
    x = net.conv2d(&format!("{name}.conv1"), x, co, 3, stride, 1, 1, rng);
    x = net.batch_norm2d(&format!("{name}.bn1"), x);
    x = act.apply(net, &format!("{name}.act1"), x, rng);
    x = net.conv2d(&format!("{name}.conv2"), x, co, 3, 1, 1, 1, rng);
    x = net.batch_norm2d(&format!("{name}.bn2"), x);
    let shortcut = if stride != 1 || ci != co {
        let s = net.conv2d(&format!("{name}.down"), input, co, 1, stride, 0, 1, rng);
        net.batch_norm2d(&format!("{name}.downbn"), s)
    } else {
        input
    };
    let sum = net.add(&format!("{name}.add"), x, shortcut);
    act.apply(net, &format!("{name}.act2"), sum, rng)
}

fn bottleneck_block<R: Rng>(
    net: &mut Network,
    name: &str,
    mut x: NodeId,
    width: usize,
    stride: usize,
    act: Act,
    rng: &mut R,
) -> NodeId {
    let input = x;
    let (ci, _, _) = net.shape(x);
    let co = width * 4;
    x = net.conv2d(&format!("{name}.conv1"), x, width, 1, 1, 0, 1, rng);
    x = net.batch_norm2d(&format!("{name}.bn1"), x);
    x = act.apply(net, &format!("{name}.act1"), x, rng);
    x = net.conv2d(&format!("{name}.conv2"), x, width, 3, stride, 1, 1, rng);
    x = net.batch_norm2d(&format!("{name}.bn2"), x);
    x = act.apply(net, &format!("{name}.act2"), x, rng);
    x = net.conv2d(&format!("{name}.conv3"), x, co, 1, 1, 0, 1, rng);
    x = net.batch_norm2d(&format!("{name}.bn3"), x);
    let shortcut = if stride != 1 || ci != co {
        let s = net.conv2d(&format!("{name}.down"), input, co, 1, stride, 0, 1, rng);
        net.batch_norm2d(&format!("{name}.downbn"), s)
    } else {
        input
    };
    let sum = net.add(&format!("{name}.add"), x, shortcut);
    act.apply(net, &format!("{name}.act3"), sum, rng)
}

/// CIFAR ResNet family: depth = 6n + 2 (`n` blocks per stage).
pub fn resnet_cifar<R: Rng>(n: usize, act: Act, rng: &mut R) -> Network {
    let mut net = Network::new(3, 32, 32);
    let x = net.input();
    let mut cur = net.conv2d("conv1", x, 16, 3, 1, 1, 1, rng);
    cur = net.batch_norm2d("bn1", cur);
    cur = act.apply(&mut net, "act1", cur, rng);
    for (stage, (co, s0)) in [(16usize, 1usize), (32, 2), (64, 2)]
        .into_iter()
        .enumerate()
    {
        for b in 0..n {
            let stride = if b == 0 { s0 } else { 1 };
            cur = basic_block(
                &mut net,
                &format!("layer{}.{}", stage + 1, b),
                cur,
                co,
                stride,
                act,
                rng,
            );
        }
    }
    cur = net.global_avg_pool("gap", cur);
    let f = net.flatten("flat", cur);
    let fc = net.linear("fc", f, 10, rng);
    net.output(fc);
    net
}

/// ImageNet-style ResNet (18/34: basic blocks; 50: bottlenecks).
pub fn resnet_imagenet<R: Rng>(
    blocks: &[usize; 4],
    bottleneck: bool,
    classes: usize,
    input_hw: usize,
    act: Act,
    rng: &mut R,
) -> Network {
    let mut net = Network::new(3, input_hw, input_hw);
    let x = net.input();
    let mut cur = if input_hw >= 128 {
        let c = net.conv2d("conv1", x, 64, 7, 2, 3, 1, rng);
        let b = net.batch_norm2d("bn1", c);
        let a = act.apply(&mut net, "act1", b, rng);
        net.avg_pool2d_pad("pool1", a, 3, 2, 1)
    } else {
        // Tiny-ImageNet-style stem (64×64 inputs keep more resolution).
        let c = net.conv2d("conv1", x, 64, 3, 2, 1, 1, rng);
        let b = net.batch_norm2d("bn1", c);
        act.apply(&mut net, "act1", b, rng)
    };
    let widths = [64usize, 128, 256, 512];
    for (stage, (&n, &w)) in blocks.iter().zip(&widths).enumerate() {
        for b in 0..n {
            let stride = if b == 0 && stage > 0 { 2 } else { 1 };
            let name = format!("layer{}.{}", stage + 1, b);
            cur = if bottleneck {
                bottleneck_block(&mut net, &name, cur, w, stride, act, rng)
            } else {
                basic_block(&mut net, &name, cur, w, stride, act, rng)
            };
        }
    }
    cur = net.global_avg_pool("gap", cur);
    let f = net.flatten("flat", cur);
    let fc = net.linear("fc", f, classes, rng);
    net.output(fc);
    net
}

/// MobileNet-v1 for Tiny ImageNet (64×64), depthwise-separable convolutions.
pub fn mobilenet_v1<R: Rng>(act: Act, rng: &mut R) -> Network {
    let mut net = Network::new(3, 64, 64);
    let x = net.input();
    let mut cur = net.conv2d("conv1", x, 32, 3, 2, 1, 1, rng); // 32
    cur = net.batch_norm2d("bn1", cur);
    cur = act.apply(&mut net, "act1", cur, rng);
    // (channels, stride) of each depthwise-separable block
    let cfg: &[(usize, usize)] = &[
        (64, 1),
        (128, 2),
        (128, 1),
        (256, 2),
        (256, 1),
        (512, 2),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (1024, 2),
        (1024, 1),
    ];
    for (i, &(co, s)) in cfg.iter().enumerate() {
        let (ci, _, _) = net.shape(cur);
        // depthwise
        cur = net.conv2d(&format!("dw{i}"), cur, ci, 3, s, 1, ci, rng);
        cur = net.batch_norm2d(&format!("dwbn{i}"), cur);
        cur = act.apply(&mut net, &format!("dwact{i}"), cur, rng);
        // pointwise
        cur = net.conv2d(&format!("pw{i}"), cur, co, 1, 1, 0, 1, rng);
        cur = net.batch_norm2d(&format!("pwbn{i}"), cur);
        cur = act.apply(&mut net, &format!("pwact{i}"), cur, rng);
    }
    cur = net.global_avg_pool("gap", cur);
    let f = net.flatten("flat", cur);
    let fc = net.linear("fc", f, 200, rng);
    net.output(fc);
    net
}

/// YOLO-v1 with a ResNet-34 backbone on 448×448×3 (paper §8.6; ~139 M
/// parameters, the largest FHE inference reported).
pub fn yolo_v1<R: Rng>(act: Act, rng: &mut R) -> Network {
    let mut net = Network::new(3, 448, 448);
    let x = net.input();
    // ResNet-34 backbone (stem + 4 stages), ending 512×14×14.
    let mut cur = net.conv2d("conv1", x, 64, 7, 2, 3, 1, rng);
    cur = net.batch_norm2d("bn1", cur);
    cur = act.apply(&mut net, "act1", cur, rng);
    cur = net.avg_pool2d_pad("pool1", cur, 3, 2, 1); // 112
    let blocks = [3usize, 4, 6, 3];
    let widths = [64usize, 128, 256, 512];
    for (stage, (&n, &w)) in blocks.iter().zip(&widths).enumerate() {
        for b in 0..n {
            let stride = if b == 0 && stage > 0 { 2 } else { 1 };
            cur = basic_block(
                &mut net,
                &format!("layer{}.{}", stage + 1, b),
                cur,
                w,
                stride,
                act,
                rng,
            );
        }
    }
    // Detection head: two stride/size reductions to 7×7, then FCs to the
    // 7×7×30 prediction tensor.
    cur = net.conv2d("head.conv1", cur, 1024, 3, 2, 1, 1, rng); // 7×7
    cur = net.batch_norm2d("head.bn1", cur);
    cur = act.apply(&mut net, "head.act1", cur, rng);
    cur = net.conv2d("head.conv2", cur, 1024, 3, 1, 1, 1, rng);
    cur = net.batch_norm2d("head.bn2", cur);
    cur = act.apply(&mut net, "head.act2", cur, rng);
    let f = net.flatten("head.flat", cur); // 1024·7·7 = 50176
    let mut fc = net.linear("head.fc1", f, 2048, rng);
    fc = act.apply(&mut net, "head.act3", fc, rng);
    fc = net.linear("head.fc2", fc, 7 * 7 * 30, rng);
    net.output(fc);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params_m(name: &str) -> f64 {
        let mut rng = StdRng::seed_from_u64(1);
        let (_, info) = build(name, Act::Silu, &mut rng);
        info.params as f64 / 1e6
    }

    #[test]
    fn mnist_model_sizes_match_paper() {
        // Paper Table 2: MLP 0.12M, LoLA 0.10M, LeNet 1.66M.
        assert!((params_m("mlp") - 0.12).abs() < 0.02, "{}", params_m("mlp"));
        assert!(
            (params_m("lola") - 0.10).abs() < 0.03,
            "{}",
            params_m("lola")
        );
        assert!(
            (params_m("lenet5") - 1.66).abs() < 0.3,
            "{}",
            params_m("lenet5")
        );
    }

    #[test]
    fn cifar_model_sizes_match_paper() {
        // AlexNet 23.3M, VGG-16 14.7M, ResNet-20 0.27M.
        assert!(
            (params_m("alexnet") - 23.3).abs() < 2.0,
            "{}",
            params_m("alexnet")
        );
        assert!(
            (params_m("vgg16") - 14.7).abs() < 1.0,
            "{}",
            params_m("vgg16")
        );
        assert!(
            (params_m("resnet20") - 0.27).abs() < 0.05,
            "{}",
            params_m("resnet20")
        );
    }

    #[test]
    fn large_model_sizes_match_paper() {
        // MobileNet 3.25M, ResNet-18 11.3M (200 classes).
        assert!(
            (params_m("mobilenet") - 3.25).abs() < 0.7,
            "{}",
            params_m("mobilenet")
        );
        assert!(
            (params_m("resnet18") - 11.3).abs() < 1.0,
            "{}",
            params_m("resnet18")
        );
    }

    #[test]
    fn resnet_depths() {
        let mut rng = StdRng::seed_from_u64(2);
        // ResNet-20 = 6·3+2 → 19 convs + downsamples + fc.
        let (net, _) = build("resnet20", Act::Relu, &mut rng);
        let convs = net
            .nodes
            .iter()
            .filter(|n| matches!(n.layer, orion_nn::layer::Layer::Conv2d { .. }))
            .count();
        // 1 stem + 18 block convs + 2 downsamples = 21
        assert_eq!(convs, 21);
    }

    #[test]
    fn cifar_resnet_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let (net, _) = build("resnet20", Act::Silu, &mut rng);
        let out_shape = net.shape(net.output_node());
        assert_eq!(out_shape, (10, 1, 1));
    }

    #[test]
    fn mobilenet_uses_depthwise_convolutions() {
        let mut rng = StdRng::seed_from_u64(4);
        let (net, _) = build("mobilenet", Act::Silu, &mut rng);
        let depthwise = net
            .nodes
            .iter()
            .filter(
                |n| matches!(n.layer, orion_nn::layer::Layer::Conv2d { groups, .. } if groups > 1),
            )
            .count();
        assert_eq!(depthwise, 13);
    }

    #[test]
    fn yolo_is_the_largest_model() {
        let mut rng = StdRng::seed_from_u64(5);
        let (net, info) = build("yolo_v1", Act::Silu, &mut rng);
        // Paper: 139M parameters; ours lands in the same regime.
        assert!(info.params > 100_000_000, "{}", info.params);
        assert_eq!(net.shape(net.output_node()), (7 * 7 * 30, 1, 1));
    }
}
