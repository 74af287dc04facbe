//! The hoisting-aware BSGS chooser must actually cut key-switch digit
//! decompositions per linear layer, and the run's op counter must see the
//! drop: conv layers (sparse diagonal structure) hoist *every*
//! rotation, so an executed conv network performs zero full `HRot`s and
//! exactly one `Hoist` per rotating input block. Dense layers embed with
//! the hybrid (row-folded) diagonal method; the fold's rotate-and-sum steps
//! are full `HRot`s and must show up in the executed tally.

use orion_ckks::CkksParams;
use orion_nn::backend::run_program;
use orion_nn::backends::{CkksBackend, ClearBackend};
use orion_nn::compile::{compile, CompileOptions, Step};
use orion_nn::fhe_exec::FheSession;
use orion_nn::fit::{fit, fixed_ranges};
use orion_nn::network::Network;
use orion_nn::sched::count_plan;
use orion_nn::sim::counter::OpKind;
use orion_nn::sim::CostModel;
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Three stacked single-channel 3×3 convs with square activations — each
/// plan has ≤ 9 diagonals (SISO sparsity, paper Figure 3), so every plan
/// should pick a fully-hoisted split.
fn conv_net(rng: &mut StdRng) -> Network {
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("c1", x, 1, 3, 1, 1, 1, rng);
    let a1 = net.square("a1", c1);
    let c2 = net.conv2d("c2", a1, 1, 3, 1, 1, 1, rng);
    let a2 = net.square("a2", c2);
    let c3 = net.conv2d("c3", a2, 1, 3, 1, 1, 1, rng);
    net.output(c3);
    net
}

#[test]
fn conv_layers_hoist_every_rotation() {
    let mut rng = StdRng::seed_from_u64(0x601d);
    let net = conv_net(&mut rng);
    let opts = CompileOptions {
        slots: 64,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    };
    let c = compile(&net, &fixed_ranges(&net, 4.0), &opts);

    // Static check: every conv plan hoists all its rotations — no giant
    // steps, so decompositions == hoists (one per rotating input block).
    let mut want_hoists = 0u64;
    let mut conv_layers = 0usize;
    for node in c.prog.iter() {
        if let Step::Conv { plan, .. } = &node.step {
            conv_layers += 1;
            assert_eq!(
                plan.counts.giant_rots, 0,
                "conv plan kept giant steps (n1 = {})",
                plan.n1
            );
            assert_eq!(plan.counts.decompositions(), plan.counts.hoists);
            want_hoists += plan.counts.hoists as u64;
        }
    }
    assert_eq!(conv_layers, 3);
    assert!(want_hoists >= 3, "each conv must hoist its rotating inputs");

    // The plan's tally agrees — zero full rotations, exactly the planned
    // number of digit decompositions.
    let ctr = count_plan(&c, &ClearBackend::reference(&c));
    assert_eq!(ctr.count(OpKind::HRot), 0, "full rotations slipped through");
    assert_eq!(ctr.count(OpKind::Hoist), want_hoists);
    assert!(
        ctr.count(OpKind::HRotHoisted) > 0,
        "convs must still rotate"
    );
}

/// Recomputes (hoists, baby, giant) for an arbitrary split from a plan's
/// public diagonal structure — the same accounting `counts_for` uses.
fn counts_at(plan: &orion_linear::plan::LinearPlan, n1: usize) -> (usize, usize, usize) {
    use std::collections::{BTreeSet, HashMap};
    let mut babies: HashMap<u32, BTreeSet<usize>> = HashMap::new();
    let mut giants: HashMap<u32, BTreeSet<usize>> = HashMap::new();
    for (&(i_blk, j_blk), diags) in &plan.blocks {
        for &k in diags {
            let i = (k as usize) % n1;
            let j = (k as usize) / n1;
            if i != 0 {
                babies.entry(j_blk).or_default().insert(i);
            }
            if j != 0 {
                giants.entry(i_blk).or_default().insert(j);
            }
        }
    }
    (
        babies.len(),
        babies.values().map(|s| s.len()).sum(),
        giants.values().map(|s| s.len()).sum(),
    )
}

#[test]
fn multichannel_conv_never_pays_more_decompositions_than_rotation_min() {
    // Multi-channel convs have too many diagonals to hoist outright (the
    // key-count term pushes back), but the chooser must still match or
    // beat the classic rotation-minimizing split on decompositions.
    let mut rng = StdRng::seed_from_u64(0xc0de);
    let mut net = Network::new(2, 8, 8);
    let x = net.input();
    let c1 = net.conv2d("c1", x, 4, 3, 1, 1, 1, &mut rng);
    net.output(c1);
    let opts = CompileOptions {
        slots: 128,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    };
    let c = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    for node in c.prog.iter() {
        if let Step::Conv { plan, .. } = &node.step {
            let mut best: Option<(usize, usize)> = None; // (rots, decomps)
            let mut n1 = 1usize;
            while n1 <= plan.slots {
                let (h, b, g) = counts_at(plan, n1);
                let cand = (b + g, h + g);
                if best.map(|(r, _)| cand.0 < r).unwrap_or(true) {
                    best = Some(cand);
                }
                n1 *= 2;
            }
            let (_, rotmin_decomps) = best.unwrap();
            assert!(
                plan.counts.decompositions() <= rotmin_decomps,
                "chosen {} vs rotation-min {} (n1 = {})",
                plan.counts.decompositions(),
                rotmin_decomps,
                plan.n1
            );
        }
    }
}

#[test]
fn dense_layer_decompositions_stay_below_giant_step_count() {
    // A dense head keeps a real BSGS split, but the chooser must not pay
    // more decompositions than the classic rotation-minimizing split
    // (n1 = √n → 1 hoist + √n−1 giant steps).
    let mut rng = StdRng::seed_from_u64(0xfeed);
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let f = net.flatten("flat", x);
    let l1 = net.linear("fc", f, 64, &mut rng);
    net.output(l1);
    let opts = CompileOptions {
        slots: 64,
        l_eff: 10,
        cost: CostModel::for_degree(1 << 9, 4),
    };
    let c = compile(&net, &fixed_ranges(&net, 4.0), &opts);
    for node in c.prog.iter() {
        if let Step::Dense { plan, .. } = &node.step {
            let sqrt_split = 1 + ((plan.slots as f64).sqrt() as usize - 1);
            assert!(
                plan.counts.decompositions() <= sqrt_split,
                "dense decompositions {} vs √n split {}",
                plan.counts.decompositions(),
                sqrt_split
            );
        }
    }
}

#[test]
fn lola_on_the_real_engine_counts_its_fold_rotations() {
    // The repo benchmark's setting: zoo `lola` at `CkksParams::small()`
    // (N = 2¹², S = 2048). Both dense layers fold — fc1 (100 × 980 over the
    // 1568-slot multiplexed conv output) to R = 128, fc2 (10 × 100) to
    // R = 16 — and the tally of an inference on the real CKKS engine is the
    // plans' counts, fold rotations included.
    let params = CkksParams::small();
    let mut rng = StdRng::seed_from_u64(0x101a);
    let mut net = Network::new(1, 28, 28);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 5, 5, 2, 2, 1, &mut rng);
    let a1 = net.square("act1", c1);
    let f = net.flatten("flat", a1);
    let l1 = net.linear("fc1", f, 100, &mut rng);
    let a2 = net.square("act2", l1);
    let l2 = net.linear("fc2", a2, 10, &mut rng);
    net.output(l2);
    let image = |rng: &mut StdRng| {
        Tensor::from_vec(
            &[1, 28, 28],
            (0..784).map(|_| rng.gen_range(0.0..1.0)).collect(),
        )
    };
    let samples: Vec<Tensor> = (0..2).map(|_| image(&mut rng)).collect();
    let c = compile(
        &net,
        &fit(&net, &samples),
        &CompileOptions::from_params(&params),
    );

    let (mut hrot, mut hoisted, mut pmult, mut rescale, mut fold_rots) = (0, 0, 0, 0, 0);
    let mut folds = Vec::new();
    for node in c.prog.iter() {
        if let Step::Conv { plan, .. } | Step::Dense { plan, .. } = &node.step {
            hrot += plan.counts.giant_rots as u64;
            hoisted += plan.counts.baby_rots as u64;
            pmult += plan.counts.pmults as u64;
            rescale += plan.counts.rescales as u64;
            fold_rots += plan.fold_steps().count() as u64;
            if matches!(node.step, Step::Dense { .. }) {
                folds.push((plan.fold, plan.n1));
            }
        }
    }
    assert_eq!(folds, vec![(128, 32), (16, 8)]);
    assert_eq!(fold_rots, 4 + 7);
    assert_eq!((hrot, hoisted, pmult), (15, 98, 205));
    assert_eq!(c.rotation_steps().len(), 90, "one key per distinct step");

    let session = FheSession::new(params, &c, 0x101b);
    let input = image(&mut rng);
    let run = run_program(&c, &CkksBackend::new(&session), &input);
    let ctr = &run.counter;
    assert_eq!(ctr.count(OpKind::HRot), hrot);
    assert_eq!(ctr.count(OpKind::HRotHoisted), hoisted);
    // each x² pays one alignment product, the ciphertext product, and a
    // rescale for both
    assert_eq!(ctr.count(OpKind::PMult), pmult + 2);
    assert_eq!(ctr.count(OpKind::HMult), 2);
    assert_eq!(ctr.count(OpKind::Rescale), rescale + 2 * 2);
    let reference = net.forward_poly(&input, &c.acts);
    let bits = orion_ckks::precision::precision_bits(run.output.data(), reference.data());
    assert!(
        bits > 10.0,
        "folded lola too imprecise on CKKS: {bits} bits"
    );
}
