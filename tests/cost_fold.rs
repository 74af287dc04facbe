//! What an op costs is said once: placement's objective and the op
//! counter's modeled seconds are folds of the same per-unit op list at the
//! same price (`CostModel::op`), so the latency placement minimised is the
//! latency the built plan is counted at — and re-pricing the activation
//! nodes from their own op lists moved no placement. A bootstrap is priced
//! at the ciphertexts it refreshes too: every input wire of its node.

use orion::ckks::CkksParams;
use orion::core::Orion;
use orion::models::data::synthetic_images;
use orion::models::{build, Act};
use orion::nn::backends::ClearBackend;
use orion::nn::compile::{compile, CompileOptions};
use orion::nn::fit::{calibrate_batch_norm, fixed_ranges};
use orion::nn::sched::{count_plan, ExecPlan, UnitWork};
use orion::nn::{Compiled, Network};
use orion::sim::CostModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The ledger's `lola_linear` program: zoo lola at `CkksParams::small()`.
fn lola_small() -> Compiled {
    let mut rng = StdRng::seed_from_u64(7);
    let (net, info) = build("lola", Act::SiluDeg(63), &mut rng);
    let (c, h, w) = info.input;
    Orion::for_params(&CkksParams::small()).compile(&net, &synthetic_images(c, h, w, 2, 8))
}

/// The ledger's `resblock_act` program: a 1×1-conv stem + SiLU-15, then
/// two residual blocks [conv → ReLU{15,15,27} → conv → add → SiLU-15], on
/// the medium chain at N = 2¹¹.
fn resblock() -> Compiled {
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
    let params = CkksParams {
        n: 1 << 11,
        ..CkksParams::medium()
    };
    Orion::for_params(&params).compile(&net, &synthetic_images(4, 8, 8, 2, 8))
}

/// ReLU ResNet-20 at paper scale (Table 5's 37 bootstraps).
fn relu_resnet20() -> Compiled {
    let mut rng = StdRng::seed_from_u64(7);
    let (mut net, _) = build("resnet20", Act::Relu, &mut rng);
    let calib = synthetic_images(3, 32, 32, 2, 8);
    calibrate_batch_norm(&mut net, &calib);
    Orion::paper_scale().compile(&net, &calib)
}

/// FNV-1a over `(placement.levels, placement.boots_before)`.
fn placement_digest(c: &Compiled) -> u64 {
    let levels = c
        .placement
        .levels
        .iter()
        .map(|l| l.map_or(u64::MAX, |l| l as u64));
    let boots = c.placement.boots_before.iter().copied();
    levels
        .chain(boots)
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Modeled (what placement minimised) == counted (the fold of the built
/// plan), and the placement is the one the digest was taken from.
fn check(name: &str, c: &Compiled, digest: u64) {
    assert_eq!(
        placement_digest(c),
        digest,
        "{name}: placement moved ({:#018x})",
        placement_digest(c)
    );
    let modeled = c.placement.total_latency;
    let counted = count_plan(c, &ClearBackend::reference(c)).seconds;
    assert!(
        (modeled - counted).abs() <= 1e-9 * counted,
        "{name}: modeled {modeled:.6} s, counted {counted:.6} s"
    );
}

// The digests were taken at the parent of the commit that made placement's
// price a fold of the op list: pricing `ReluFinal` from `relu_product_ops`
// and a stage's additions moved no level and no bootstrap.

#[test]
fn lola_is_counted_at_the_latency_placement_minimised() {
    check("lola@small", &lola_small(), 0x1ec1_0b70_615f_b8bc);
}

#[test]
fn resblock_is_counted_at_the_latency_placement_minimised() {
    check("resblock_act", &resblock(), 0x435c_0084_dc7b_fe3c);
}

#[test]
fn relu_resnet20_is_counted_at_the_latency_placement_minimised() {
    check(
        "relu resnet20@paper",
        &relu_resnet20(),
        0x2090_1062_c6d8_5167,
    );
}

/// conv → ReLU → conv closed by a residual add, on two-ciphertext wires:
/// the ReLU's final product and the add each join two wires.
fn residual_relu() -> Compiled {
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = Network::new(4, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("c1", x, 4, 3, 1, 1, 1, &mut rng);
    let r = net.relu("r1", c1, &[15, 15, 27]);
    let c2 = net.conv2d("c2", r, 4, 3, 1, 1, 1, &mut rng);
    let sum = net.add("res", c2, x);
    net.output(sum);
    let opts = CompileOptions {
        slots: 128,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    };
    compile(&net, &fixed_ranges(&net, 4.0), &opts)
}

/// With a bootstrap placed before every node, the plan refreshes exactly
/// the ciphertexts placement priced each node's bootstrap at — at a join
/// (`ReluFinal`, `Add`) that is both input wires, not one.
fn check_boots_priced_per_wire(name: &str, mut c: Compiled) {
    c.placement.boots_before.iter_mut().for_each(|b| *b = 1);
    c.plan = ExecPlan::build(&c);
    let plan = &c.plan;
    for (id, node) in c
        .prog
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.inputs.is_empty())
    {
        let refreshed = (plan.units.iter())
            .filter(|u| matches!(u.work, UnitWork::Boot { consumer, .. } if consumer == id))
            .count();
        assert_eq!(
            c.graph.nodes[id].n_cts, refreshed,
            "{name}: {} priced at {} bootstraps, refreshes {refreshed}",
            node.name, c.graph.nodes[id].n_cts
        );
    }
}

#[test]
fn join_bootstraps_are_priced_per_wire() {
    check_boots_priced_per_wire("resblock_act", resblock());
    check_boots_priced_per_wire("residual relu", residual_relu());
}
