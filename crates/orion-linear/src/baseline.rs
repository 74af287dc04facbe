//! Packing baselines the paper compares against.
//!
//! * **Naive Toeplitz** (paper Figure 5a): strided convolutions evaluated
//!   against the raster-ordered output produce `O(c_i·h_i·w_i)` sparse
//!   non-zero diagonals — the problem single-shot multiplexing solves.
//! * **Lee et al. \[52\] multiplexed parallel convolutions** (Table 3): the
//!   same multiplexed layout but evaluated as the classic packed-SISO
//!   method — one rotation per distinct diagonal (no BSGS, §4.1's
//!   observation), plus a mask-and-collect pass after every strided
//!   convolution that costs extra rotations and a second multiplicative
//!   level (paper §4.3).

use crate::layout::TensorLayout;
use crate::plan::{ConvSpec, LinearPlan, PlanBuilder};

impl LinearPlan {
    /// Rotation count if evaluated with a fixed `n1` (e.g. `1` for the
    /// plain diagonal method).
    pub fn rotations_with_n1(&self, n1: usize) -> usize {
        PlanBuilder::counts_for(&self.blocks, self.slots, n1, self.out_blocks)
            .0
            .rotations()
    }
}

/// Rotation count of the Lee et al. \[52\] multiplexed parallel convolution.
///
/// Their packed-SISO evaluation rotates the input once per kernel offset
/// *and* per multiplexed channel group (`q = ⌈c_i/t²⌉` — input channels
/// beyond the grid capacity sit at different slot offsets and must each be
/// aligned), so a convolution costs about `f_h·f_w·q − 1` input rotations
/// per input ciphertext; strided convolutions add a mask-and-collect
/// gather of `⌈log₂ t_out²⌉` rotations per output ciphertext (and a second
/// level — see [`lee_level_cost`]).
pub fn lee_et_al_rotations(
    in_l: &TensorLayout,
    out_l: &TensorLayout,
    spec: &ConvSpec,
    slots: usize,
) -> usize {
    let q = (spec.ci / spec.groups).div_ceil(in_l.t * in_l.t).max(1);
    let n_in = in_l.num_ciphertexts(slots);
    let per_ct = spec.kh * spec.kw * q - 1;
    let mut rots = n_in * per_ct;
    if spec.stride > 1 {
        let gather = (out_l.t * out_l.t).next_power_of_two().trailing_zeros() as usize;
        rots += out_l.num_ciphertexts(slots) * gather;
    }
    rots
}

/// Multiplicative levels a convolution costs under Lee et al.: 2 for
/// strided (convolve + mask-and-collect), 1 otherwise. Orion's single-shot
/// multiplexing always costs 1 (paper contribution (i)).
pub fn lee_level_cost(stride: usize) -> usize {
    if stride > 1 {
        2
    } else {
        1
    }
}

/// Statistics of the naive strided Toeplitz formulation (Figure 5a):
/// raster-ordered output rows against the input layout.
pub struct NaiveToeplitz {
    /// Number of distinct non-zero generalized diagonals.
    pub diagonals: usize,
    /// Rotations with the plain diagonal method.
    pub rotations: usize,
}

/// Builds the naive plan by brute-force row enumeration (the diff is *not*
/// constant across a row segment, which is exactly the problem).
pub fn naive_toeplitz(in_l: &TensorLayout, spec: &ConvSpec, slots: usize) -> NaiveToeplitz {
    assert_eq!(
        in_l.t, 1,
        "the naive formulation starts from raster layouts"
    );
    let (ho, wo) = spec.out_hw(in_l.h, in_l.w);
    let out_l = TensorLayout::raster(spec.co, ho, wo);
    let ci_per_g = spec.ci / spec.groups;
    let co_per_g = spec.co / spec.groups;
    let mut b = PlanBuilder::new(
        slots,
        in_l.num_ciphertexts(slots),
        out_l.num_ciphertexts(slots),
    );
    for g in 0..spec.groups {
        for oc in 0..co_per_g {
            let co = g * co_per_g + oc;
            for oy in 0..ho {
                for ox in 0..wo {
                    let row = out_l.slot_of(co, oy, ox);
                    for ic in 0..ci_per_g {
                        let ci = g * ci_per_g + ic;
                        for ky in 0..spec.kh {
                            let iy = (oy * spec.stride + ky * spec.dilation) as isize
                                - spec.padding as isize;
                            if iy < 0 || iy >= in_l.h as isize {
                                continue;
                            }
                            for kx in 0..spec.kw {
                                let ix = (ox * spec.stride + kx * spec.dilation) as isize
                                    - spec.padding as isize;
                                if ix < 0 || ix >= in_l.w as isize {
                                    continue;
                                }
                                let col = in_l.slot_of(ci, iy as usize, ix as usize);
                                let delta = col as i64 - row as i64;
                                b.add_segment(row, delta, 1, 1);
                            }
                        }
                    }
                }
            }
        }
    }
    let plan = b.finish();
    let diagonals: usize = plan.blocks.values().map(|d| d.len()).sum();
    NaiveToeplitz {
        diagonals,
        rotations: plan.rotations_with_n1(plan.slots),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::conv_plan;

    fn strided_spec() -> ConvSpec {
        ConvSpec {
            co: 4,
            ci: 1,
            kh: 2,
            kw: 2,
            stride: 2,
            padding: 0,
            dilation: 1,
            groups: 1,
        }
    }

    #[test]
    fn naive_strided_toeplitz_has_many_diagonals() {
        // Paper Figure 5: stride creates ~c_i·h_i·w_i sparse diagonals in
        // the naive formulation, but stays O(f·c) with multiplexing.
        let in_l = TensorLayout::raster(1, 8, 8);
        let spec = strided_spec();
        let naive = naive_toeplitz(&in_l, &spec, 256);
        let (mux, _) = conv_plan(&in_l, &spec, 256);
        let mux_diags: usize = mux.blocks.values().map(|d| d.len()).sum();
        assert!(
            naive.diagonals > 3 * mux_diags,
            "naive {} vs multiplexed {mux_diags}",
            naive.diagonals
        );
    }

    #[test]
    fn same_style_conv_naive_equals_multiplexed() {
        // With stride 1 the naive Toeplitz IS the multiplexed plan.
        let in_l = TensorLayout::raster(2, 8, 8);
        let spec = ConvSpec {
            co: 2,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let naive = naive_toeplitz(&in_l, &spec, 512);
        let (mux, _) = conv_plan(&in_l, &spec, 512);
        let mux_diags: usize = mux.blocks.values().map(|d| d.len()).sum();
        assert_eq!(naive.diagonals, mux_diags);
    }

    #[test]
    fn bsgs_beats_lee_rotations() {
        // Orion (BSGS over the same matrix) must use fewer rotations than
        // the packed-SISO evaluation (Table 3's mechanism).
        let in_l = TensorLayout::raster(8, 8, 8);
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
        let (plan, out_l) = conv_plan(&in_l, &spec, 4096);
        let lee = lee_et_al_rotations(&in_l, &out_l, &spec, 4096);
        let orion = plan.counts.rotations();
        assert!(orion < lee, "orion {orion} vs lee {lee}");
    }

    #[test]
    fn improvement_grows_with_filter_size() {
        // Paper §8.2: "our improvement over prior work increases with model
        // complexity" because BSGS saves O(f) → O(√f).
        let in_l = TensorLayout::raster(4, 8, 8);
        let small = ConvSpec {
            co: 4,
            ci: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let big = ConvSpec {
            co: 4,
            ci: 4,
            kh: 7,
            kw: 7,
            stride: 1,
            padding: 3,
            dilation: 1,
            groups: 1,
        };
        let (p_small, l_small) = conv_plan(&in_l, &small, 2048);
        let (p_big, l_big) = conv_plan(&in_l, &big, 2048);
        let ratio_small = lee_et_al_rotations(&in_l, &l_small, &small, 2048) as f64
            / p_small.counts.rotations() as f64;
        let ratio_big =
            lee_et_al_rotations(&in_l, &l_big, &big, 2048) as f64 / p_big.counts.rotations() as f64;
        assert!(ratio_big > ratio_small, "{ratio_big} vs {ratio_small}");
    }

    #[test]
    fn lee_strided_costs_two_levels() {
        assert_eq!(lee_level_cost(2), 2);
        assert_eq!(lee_level_cost(1), 1);
    }
}
