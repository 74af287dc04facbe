//! Why a linear layer has one execution order: `exec_bsgs` streams each
//! baby-step rotation into the giant-step groups that read it, so besides
//! its hoisted digits a layer holds every group's wide lanes and one
//! rotation per thread. The rotation-major order it replaced held every
//! baby step and one group's lanes. The streamed set is the smaller on
//! every linear layer of the benchmark's four FHE programs and of the zoo
//! at paper scale, but for two ImageNet-scale layers; on those two networks
//! the peak over their layers still drops, by 3.6× and 5×.

use orion::ckks::CkksParams;
use orion::linear::plan::LinearPlan;
use orion::models::{build, Act};
use orion::nn::compile::{compile, CompileOptions};
use orion::nn::fit::fixed_ranges;
use orion::nn::{Compiled, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// `(streamed, rotation-major)` extended polys a layer holds per thread
/// besides its hoists. Streamed: `b` and `a` wide lanes, a `lo` and a `hi`
/// word each, per `(output block, giant step)` group, plus one rotation.
/// Rotation-major: both parts of every baby step `(input block, i)`, the
/// `i = 0` views included, plus one group's lanes.
fn live_sets(plan: &LinearPlan) -> (usize, usize) {
    let steps: BTreeSet<(u32, usize)> = plan
        .diagonals()
        .map(|(_, j_blk, k)| (j_blk, k as usize % plan.n1))
        .collect();
    (plan.counts.moddowns * 4 + 2, steps.len() * 2 + 4)
}

/// The layers where the streamed set is the larger: wide ImageNet-scale
/// convs whose giant-step groups outnumber half their baby steps.
const LARGER_WHEN_STREAMED: [(&str, &str); 2] =
    [("resnet34", "layer4.0.down"), ("yolo_v1", "layer4.0.conv1")];

/// Asserts the streamed set is no larger on every linear layer of `c` but
/// those [`LARGER_WHEN_STREAMED`] names, which must still be larger, and
/// that the peak over the layers is no larger either way.
fn check(name: &str, c: &Compiled) {
    let mut peaks = (0, 0);
    for node in &c.prog {
        if let Some(plan) = node.step.linear_plan() {
            let (streamed, rotation_major) = live_sets(plan);
            peaks = (peaks.0.max(streamed), peaks.1.max(rotation_major));
            let larger = LARGER_WHEN_STREAMED.contains(&(name, node.name.as_str()));
            assert_eq!(
                streamed > rotation_major,
                larger,
                "{name} {}: streamed {streamed}, rotation-major {rotation_major} polys ({:?})",
                node.name,
                plan.counts
            );
        }
    }
    assert!(peaks.0 > 0, "{name} has no linear layer");
    assert!(peaks.0 <= peaks.1, "{name}: peak {peaks:?}");
}

fn compile_at(net: &Network, opts: &CompileOptions) -> Compiled {
    compile(net, &fixed_ranges(net, 4.0), opts)
}

fn zoo(name: &str, opts: &CompileOptions) -> Compiled {
    let (net, _) = build(name, Act::SiluDeg(15), &mut StdRng::seed_from_u64(7));
    compile_at(&net, opts)
}

/// The networks whose layers size the claim: MNIST and CIFAR-10 scale.
#[test]
fn streamed_live_set_is_smaller_on_the_paper_zoo() {
    for name in ["mlp", "lola", "lenet5", "resnet20", "mobilenet", "alexnet"] {
        check(name, &zoo(name, &CompileOptions::paper()));
    }
}

/// Every other zoo network (about half a minute of planning in release).
#[test]
#[ignore = "paper-scale planning of the large networks; run with --release -- --ignored"]
fn streamed_live_set_is_smaller_on_the_rest_of_the_zoo() {
    let rest = [
        "vgg16",
        "resnet32",
        "resnet44",
        "resnet56",
        "resnet110",
        "resnet1202",
        "resnet18",
        "resnet34",
        "resnet50",
        "yolo_v1",
    ];
    for name in rest {
        check(name, &zoo(name, &CompileOptions::paper()));
    }
}

/// The 4×8×8 residual program of `resblock_act`: a 1×1-conv stem + SiLU,
/// then two blocks [conv → ReLU → conv → add → SiLU], on the medium chain
/// at N = 2¹¹.
fn resblock() -> Network {
    let mut rng = StdRng::seed_from_u64(7);
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
    net
}

/// `serve_mixed`'s two models on a 1×8×8 input: `64 → 16 → x² → 4`, and
/// `3×3 conv(4) → x² → fc16 → x² → fc4`.
fn serve_models() -> [Network; 2] {
    let mut rng = StdRng::seed_from_u64(7);
    let mut mlp = Network::new(1, 8, 8);
    let x = mlp.input();
    let f = mlp.flatten("flat", x);
    let l1 = mlp.linear("fc1", f, 16, &mut rng);
    let a = mlp.square("act", l1);
    let l2 = mlp.linear("fc2", a, 4, &mut rng);
    mlp.output(l2);

    let mut conv = Network::new(1, 8, 8);
    let x = conv.input();
    let c = conv.conv2d("conv", x, 4, 3, 1, 1, 1, &mut rng);
    let a1 = conv.square("act1", c);
    let f = conv.flatten("flat", a1);
    let l1 = conv.linear("fc1", f, 16, &mut rng);
    let a2 = conv.square("act2", l1);
    let l2 = conv.linear("fc2", a2, 4, &mut rng);
    conv.output(l2);
    [mlp, conv]
}

#[test]
fn streamed_live_set_is_smaller_on_the_benchmark_programs() {
    let small = CompileOptions::from_params(&CkksParams::small());
    check("lola (small)", &zoo("lola", &small));
    let medium_2_11 = CkksParams {
        n: 1 << 11,
        ..CkksParams::medium()
    };
    check(
        "resblock",
        &compile_at(&resblock(), &CompileOptions::from_params(&medium_2_11)),
    );
    let serve = CkksParams {
        n: 1 << 10,
        log_scale: 30,
        q0_bits: 45,
        max_level: 6,
        special_bits: 45,
        sigma: 3.2,
        boot_levels: 1,
    };
    for (name, net) in ["serve mlp", "serve conv"].into_iter().zip(serve_models()) {
        check(
            name,
            &compile_at(&net, &CompileOptions::from_params(&serve)),
        );
    }
}
