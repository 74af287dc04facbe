//! Property-based tests on the core invariants, spanning crates.

use orion::linear::exec::exec_plain;
use orion::linear::plan::{conv_plan, ConvSpec};
use orion::linear::values::ConvDiagSource;
use orion::linear::TensorLayout;
use orion::math::modular::{add_mod, inv_mod, mul_mod, pow_mod};
use orion::poly::cheb::ChebPoly;
use orion::tensor::{conv2d, Conv2dParams, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Modular arithmetic laws over a real NTT prime.
    #[test]
    fn modular_field_laws(a in 0u64..0x3fff_ffff, b in 0u64..0x3fff_ffff) {
        let q = (0x3fff_ffff_ffe8_0001u64 % (1u64 << 50)) | 1; // arbitrary odd modulus for add/mul laws
        let q = if q < 3 { 3 } else { q };
        let (a, b) = (a % q, b % q);
        prop_assert_eq!(add_mod(a, b, q), add_mod(b, a, q));
        prop_assert_eq!(mul_mod(a, b, q), mul_mod(b, a, q));
    }

    /// Fermat inverses under a known prime.
    #[test]
    fn modular_inverse_roundtrip(a in 1u64..1_000_002) {
        let q = 1_000_003u64; // prime
        let a = a % q;
        prop_assume!(a != 0);
        prop_assert_eq!(mul_mod(a, inv_mod(a, q), q), 1);
        prop_assert_eq!(pow_mod(a, q - 1, q), 1);
    }

    /// The multiplexed layout is a bijection: pack/unpack round-trips for
    /// arbitrary shapes and gaps.
    #[test]
    fn layout_pack_roundtrip(c in 1usize..12, h in 1usize..8, w in 1usize..8, log_t in 0u32..3) {
        let t = 1usize << log_t;
        let l = TensorLayout { c, h, w, t };
        let data: Vec<f64> = (0..c * h * w).map(|i| i as f64 + 1.0).collect();
        prop_assert_eq!(l.unpack(&l.pack(&data)), data);
    }

    /// THE packing correctness property (paper §4): an arbitrary
    /// convolution evaluated through the single-shot multiplexed plan
    /// equals the reference convolution.
    #[test]
    fn arbitrary_convolutions_match_reference(
        ci in 1usize..5,
        co in 1usize..5,
        k in prop::sample::select(vec![1usize, 2, 3]),
        stride in 1usize..3,
        padding in 0usize..2,
        hw in prop::sample::select(vec![4usize, 6, 8]),
        seed in 0u64..1000,
    ) {
        prop_assume!(hw + 2 * padding >= k);
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let in_l = TensorLayout::raster(ci, hw, hw);
        let spec = ConvSpec { co, ci, kh: k, kw: k, stride, padding, dilation: 1, groups: 1 };
        let slots = (ci.max(co * stride * stride) * (hw + 4) * (hw + 4)).next_power_of_two();
        let (plan, out_l) = conv_plan(&in_l, &spec, slots);
        let input = Tensor::from_vec(&[ci, hw, hw], (0..ci * hw * hw).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let weights = Tensor::from_vec(&[co, ci, k, k], (0..co * ci * k * k).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let src = ConvDiagSource { in_l, out_l, spec, weights: &weights };
        let packed = in_l.pack(input.data());
        let mut blocks = vec![vec![0.0; slots]; plan.in_blocks];
        for (i, &v) in packed.iter().enumerate() {
            blocks[i / slots][i % slots] = v;
        }
        let out_blocks = exec_plain(&plan, &src, None, &blocks);
        let mut out_slots = Vec::new();
        for b in &out_blocks {
            out_slots.extend_from_slice(b);
        }
        out_slots.resize(out_l.total_slots(), 0.0);
        let got = out_l.unpack(&out_slots);
        let p = Conv2dParams { stride, padding, dilation: 1, groups: 1 };
        let expect = conv2d(&input, &weights, &[], p);
        for (a, b) in got.iter().zip(expect.data()) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// Chebyshev interpolation reproduces polynomials of matching degree
    /// exactly (up to float error).
    #[test]
    fn chebyshev_interpolation_exact_on_polynomials(c0 in -1.0f64..1.0, c1 in -1.0f64..1.0, c2 in -1.0f64..1.0) {
        let f = move |x: f64| c0 + c1 * x + c2 * x * x;
        let p = ChebPoly::interpolate(f, 4);
        for i in 0..20 {
            let x = -1.0 + 2.0 * i as f64 / 19.0;
            prop_assert!((p.eval(x) - f(x)).abs() < 1e-10);
        }
    }

    /// Placement level assignments always respect depth feasibility and
    /// the level budget.
    #[test]
    fn placement_respects_budget(depth in 1usize..30, l_eff in 4usize..12, act_depth in 2usize..6) {
        use orion::graph::ir::{chain, NodeKind};
        prop_assume!(act_depth <= l_eff);
        let layers: Vec<(NodeKind, usize, f64)> = (0..depth)
            .map(|i| if i % 2 == 0 { (NodeKind::Linear, 1, 0.1) } else { (NodeKind::Activation, act_depth, 0.3) })
            .collect();
        let g = chain(&layers, l_eff, 1);
        let r = orion::graph::place(&g, l_eff, 10.0);
        for (id, level) in r.levels.iter().enumerate() {
            if let Some(l) = level {
                prop_assert!(*l <= l_eff);
                prop_assert!(*l >= g.nodes[id].depth);
            }
        }
    }
}
