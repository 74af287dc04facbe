//! The key manifest of the ledger's programs: `Compiled::key_manifest` is
//! the fold of `unit_io` over the plan that is served, `FheSession::new`
//! generates exactly it — every key at its manifest level, to the byte —
//! and the levels and byte counts of the `lola_linear` / `resblock_act`
//! programs are the ones the ledger reports. `serve_mixed`'s conv model
//! is the shape where the relinearization key's listing at the top rotation
//! level matters: its products sit one level below its layers;
//! `resblock_act` is the opposite shape, a product above every layer.

use orion_ckks::{CkksParams, KeyManifest};
use orion_nn::compile::{compile, CompileOptions, Compiled, Step};
use orion_nn::fhe_exec::FheSession;
use orion_nn::fit::fixed_ranges;
use orion_nn::network::Network;
use orion_nn::sched::UnitWork;
use orion_nn::sim::OpKind;
use orion_nn::verify::{verify_compiled, VerifyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The zoo's `lola`: conv5×5/2(5) → x² → fc100 → x² → fc10 on 1×28×28.
fn lola(rng: &mut StdRng) -> Network {
    let mut net = Network::new(1, 28, 28);
    let x = net.input();
    let c1 = net.conv2d("conv1", x, 5, 5, 2, 2, 1, rng);
    let a1 = net.square("act1", c1);
    let f = net.flatten("flat", a1);
    let l1 = net.linear("fc1", f, 100, rng);
    let a2 = net.square("act2", l1);
    let l2 = net.linear("fc2", a2, 10, rng);
    net.output(l2);
    net
}

/// `resblock_act`'s network: 1×1-conv stem(8) + SiLU-15, then two residual
/// blocks [1×1 conv → ReLU{15,15,27} → 1×1 conv → add → SiLU-15] on 4×8×8.
fn resblock(rng: &mut StdRng) -> Network {
    let mut net = Network::new(4, 8, 8);
    let x = net.input();
    let stem = net.conv2d("stem", x, 8, 1, 1, 0, 1, rng);
    let mut cur = net.silu("stem_act", stem, 15);
    for b in 0..2 {
        let c1 = net.conv2d(&format!("b{b}_conv1"), cur, 8, 1, 1, 0, 1, rng);
        let r = net.relu(&format!("b{b}_relu"), c1, &[15, 15, 27]);
        let c2 = net.conv2d(&format!("b{b}_conv2"), r, 8, 1, 1, 0, 1, rng);
        let sum = net.add(&format!("b{b}_add"), c2, cur);
        cur = net.silu(&format!("b{b}_act"), sum, 15);
    }
    net.output(cur);
    net
}

/// `serve_mixed`'s conv model: 3×3 conv(4) → x² → fc16 → x² → fc4 on 1×8×8.
fn serve_conv(rng: &mut StdRng) -> Network {
    let mut net = Network::new(1, 8, 8);
    let x = net.input();
    let c = net.conv2d("conv", x, 4, 3, 1, 1, 1, rng);
    let a1 = net.square("act1", c);
    let f = net.flatten("flat", a1);
    let l1 = net.linear("fc1", f, 16, rng);
    let a2 = net.square("act2", l1);
    let l2 = net.linear("fc2", a2, 4, rng);
    net.output(l2);
    net
}

fn compile_under(net: &Network, params: &CkksParams) -> Compiled {
    compile(
        net,
        &fixed_ranges(net, 4.0),
        &CompileOptions::from_params(params),
    )
}

/// The manifest, restated from the per-unit record alone: every rotation a
/// linear layer performs at the level it reads its input
/// at; the relinearization key at the entry level of every activation unit
/// that multiplies ciphertexts — returned beside the manifest, which lists
/// that one key no lower than its top rotation level.
fn fold_unit_io(c: &Compiled) -> (KeyManifest, usize) {
    let mut manifest = KeyManifest::default();
    for (uid, unit) in c.plan.units.iter().enumerate() {
        let io = c.unit_io(uid).expect("well-formed plan");
        let read = io.reads[0].and_then(|(_, level)| level);
        match unit.work {
            UnitWork::Step { node } => {
                let (Step::Conv { plan: layer, .. } | Step::Dense { plan: layer, .. }) =
                    &c.prog[node].step
                else {
                    panic!("a whole-step unit is a linear layer");
                };
                for k in layer.rotation_steps() {
                    manifest.use_rotation(k, read.expect("a layer reads at its level"));
                }
            }
            UnitWork::StepCt { .. } if io.count(OpKind::HMult) > 0 => manifest.use_relin(io.level),
            _ => {}
        }
    }
    let product_level = manifest.relin;
    let top = manifest.rotations.values().copied().max().unwrap_or(0);
    manifest.use_relin(top);
    (manifest, product_level)
}

/// Bytes a session's evaluation keys occupy, counted limb by limb.
fn measured_key_bytes(session: &FheSession) -> u64 {
    let n = session.ctx.degree();
    let keys = session.eval.keys();
    std::iter::once(&keys.relin)
        .chain(keys.rot.values())
        .flat_map(|k| &k.parts)
        .flat_map(|(b, a)| [b, a])
        .map(|p| ((p.limbs.len() + usize::from(p.has_special())) * n * 8) as u64)
        .sum()
}

/// Checks one program end to end and returns `(rotation keys by level,
/// highest product level, key bytes)`.
fn check(net: &Network, params: CkksParams) -> (BTreeMap<usize, usize>, usize, u64) {
    let c = compile_under(net, &params);
    let manifest = c.key_manifest();

    // The manifest is read off the plan that is served.
    let (restated, product_level) = fold_unit_io(&c);
    assert_eq!(manifest, restated, "the served plan, restated");
    assert!(verify_compiled(&c, &VerifyConfig::default()).is_clean());

    // Its key set is `rotation_steps`, and no level exceeds `L_eff`.
    let steps: Vec<isize> = manifest.rotations.keys().copied().collect();
    assert_eq!(steps, c.rotation_steps());
    let top = manifest.rotations.values().copied().max().unwrap_or(0);
    assert_eq!(manifest.relin, top.max(product_level));
    assert!(manifest.relin <= c.opts.l_eff);

    // The session holds exactly the manifest, each key at its level.
    let n = params.n;
    let session = FheSession::new(params, &c, 0x4e75);
    let keys = session.eval.keys();
    assert_eq!(keys.relin.level(), manifest.relin);
    assert_eq!(keys.rot.len(), manifest.rotations.len());
    for (&k, &level) in &manifest.rotations {
        let key = &keys.rot[&session.ctx.galois_element(k)];
        assert_eq!(key.level(), level, "rotation by {k}");
    }
    let bytes = manifest.key_bytes(n);
    let by_formula: u64 = std::iter::once(manifest.relin)
        .chain(manifest.rotations.values().copied())
        .map(|l| (2 * n * 8 * (l + 1) * (l + 2)) as u64)
        .sum();
    assert_eq!(bytes, by_formula);
    assert_eq!(bytes, measured_key_bytes(&session));

    let mut by_level = BTreeMap::new();
    for &level in manifest.rotations.values() {
        *by_level.entry(level).or_insert(0) += 1;
    }
    (by_level, product_level, bytes)
}

#[test]
fn lola_keys_sit_at_their_plan_levels() {
    let net = lola(&mut StdRng::seed_from_u64(0x101a));
    let (by_level, product_level, bytes) = check(&net, CkksParams::small());
    assert_eq!(by_level, BTreeMap::from([(1, 30), (4, 60)]));
    assert_eq!(product_level, 3);
    // 60 keys of 5·6 and 30 of 2·3 limb pairs, the relin key with the 60
    assert_eq!(bytes, 2 * 4096 * 8 * (61 * 30 + 30 * 6));
    assert_eq!(bytes, 131_727_360, "the ledger's ckks.eval_key_mb = 131.7");
}

#[test]
fn resblock_keys_sit_at_their_plan_levels() {
    let net = resblock(&mut StdRng::seed_from_u64(7));
    let params = CkksParams {
        n: 1 << 11,
        ..CkksParams::medium()
    };
    let (by_level, product_level, bytes) = check(&net, params);
    // the stem's ten steps at 7, the five only the block convs add at 1;
    // the last sign stage runs at 8, above every linear layer
    assert_eq!(by_level, BTreeMap::from([(1, 5), (7, 10)]));
    assert_eq!(product_level, 8);
    assert_eq!(bytes, 2 * 2048 * 8 * (90 + 10 * 72 + 5 * 6));
    assert_eq!(bytes, 27_525_120, "the ledger's ckks.eval_key_mb = 27.53");
}

#[test]
fn serve_conv_keys_sit_at_their_plan_levels() {
    let net = serve_conv(&mut StdRng::seed_from_u64(7));
    let params = CkksParams {
        n: 1 << 10,
        log_scale: 30,
        q0_bits: 45,
        max_level: 6,
        special_bits: 45,
        sigma: 3.2,
        boot_levels: 1,
    };
    let l_eff = params.effective_level();
    let (by_level, product_level, _) = check(&net, params);
    assert!(by_level.keys().all(|&l| l < l_eff));
    assert_eq!(product_level, 3, "both squares below the layers' level 4");
}
