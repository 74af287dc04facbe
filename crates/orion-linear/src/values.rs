//! Diagonal plaintext materialization.
//!
//! Plans (structure only) are enough for counting and placement; actual
//! execution needs the diagonal *values*. A [`DiagSource`] produces a
//! layer's values as one list in [`LinearPlan::diagonals`] order — the
//! order the prepared plaintexts, the executors and the spill file share —
//! each vector **pre-rotated** by its giant step (`rot_{−j·n1}`) so the
//! executor can apply Equation (1) of the paper directly.

use crate::layout::TensorLayout;
use crate::plan::{for_each_block_run, for_each_conv_segment, ConvSpec, LinearPlan};
use orion_tensor::Tensor;

/// Supplies a layer's diagonal values.
pub trait DiagSource {
    /// The pre-rotated vector of every [`LinearPlan::diagonals`] entry, in
    /// that order; `None` where these weights leave the diagonal all zero.
    fn diagonals(&self, plan: &LinearPlan) -> Vec<Option<Vec<f64>>>;
}

/// Diagonal values of a convolution under the single-shot multiplexed
/// layout.
pub struct ConvDiagSource<'a> {
    /// Input layout.
    pub in_l: TensorLayout,
    /// Output layout.
    pub out_l: TensorLayout,
    /// Convolution spec.
    pub spec: ConvSpec,
    /// Weights in PyTorch order `(C_out, C_in/groups, K_h, K_w)`.
    pub weights: &'a Tensor,
}

impl DiagSource for ConvDiagSource<'_> {
    /// One walk over the layer's segments: each block run adds its weight
    /// to the diagonal it lies on, found at its block pair's offset in the
    /// list plus `k`'s rank among the pair's sorted diagonals.
    fn diagonals(&self, plan: &LinearPlan) -> Vec<Option<Vec<f64>>> {
        let (slots, n1, step) = (plan.slots, plan.n1, self.out_l.t);
        let ci_per_g = self.spec.ci / self.spec.groups;
        let (kh, kw) = (self.spec.kh, self.spec.kw);
        // (list offset, sorted diagonals) per pair, indexed
        // `out_block · in_blocks + in_block`
        let mut pairs = vec![(0, &[][..]); plan.out_blocks * plan.in_blocks];
        let mut len = 0;
        for (&(i, j), ks) in &plan.blocks {
            pairs[i as usize * plan.in_blocks + j as usize] = (len, &ks[..]);
            len += ks.len();
        }
        let mut out = vec![None; len];
        for_each_conv_segment(
            &self.in_l,
            &self.out_l,
            &self.spec,
            |co, ci, ky, kx, row, delta, count| {
                let w =
                    self.weights.data()[((co * ci_per_g + (ci % ci_per_g)) * kh + ky) * kw + kx];
                if w == 0.0 {
                    // zero weights still occupy plan diagonals (structure is
                    // weight-independent); write nothing.
                    return;
                }
                for_each_block_run(slots, row, delta, step, count, |i, j, k, r0, take| {
                    let (first, ks) = pairs[i * plan.in_blocks + j];
                    let rank = (ks.binary_search(&(k as u32)))
                        .expect("the plan holds every diagonal of its layer");
                    let pre_rot = (k / n1 * n1) % slots;
                    let vec: &mut Vec<f64> =
                        out[first + rank].get_or_insert_with(|| vec![0.0; slots]);
                    for m in 0..take {
                        vec[(r0 + m * step + pre_rot) % slots] += w;
                    }
                });
            },
        );
        out
    }
}

/// Diagonal values of a dense fully-connected layer whose input arrives in
/// an arbitrary (possibly multiplexed) layout.
pub struct DenseDiagSource {
    /// Weights `(N_out, N_features)` with features in raster `(c, y, x)`
    /// order.
    weights: Tensor,
    /// `col_to_feature[slot] = Some(feature index)`.
    col_to_feature: Vec<Option<usize>>,
    n_out: usize,
}

impl DenseDiagSource {
    /// Builds the source from weights and the input layout.
    pub fn new(weights: Tensor, in_l: &TensorLayout) -> Self {
        let n_out = weights.shape()[0];
        let n_feat = weights.shape()[1];
        assert_eq!(n_feat, in_l.c * in_l.h * in_l.w, "weight/input mismatch");
        let mut col_to_feature = vec![None; in_l.total_slots()];
        for c in 0..in_l.c {
            for y in 0..in_l.h {
                for x in 0..in_l.w {
                    let feat = (c * in_l.h + y) * in_l.w + x;
                    col_to_feature[in_l.slot_of(c, y, x)] = Some(feat);
                }
            }
        }
        Self {
            weights,
            col_to_feature,
            n_out,
        }
    }
}

impl DiagSource for DenseDiagSource {
    /// The hybrid embedding's one formula: under row fold `R`,
    /// `d_k[t] = W[t mod R][col((t + k) mod S)]` over all `S` slots (zero
    /// where the row is past `n_out` or the column names no feature). With
    /// `R = S` this is the plain diagonal of the zero-padded square block.
    fn diagonals(&self, plan: &LinearPlan) -> Vec<Option<Vec<f64>>> {
        let (slots, n1) = (plan.slots, plan.n1);
        let n_feat = self.weights.shape()[1];
        (plan.diagonals())
            .map(|(i_blk, j_blk, k)| {
                let row0 = i_blk as usize * slots;
                let rows = plan.fold.min(self.n_out.saturating_sub(row0));
                let pre_rot = (k as usize / n1 * n1) % slots;
                let mut vec = vec![0.0; slots];
                let mut any = false;
                for copy in (0..slots).step_by(plan.fold) {
                    for r in 0..rows {
                        let t = copy + r;
                        let col = j_blk as usize * slots + (t + k as usize) % slots;
                        let Some(&Some(feat)) = self.col_to_feature.get(col) else {
                            continue;
                        };
                        let w = self.weights.data()[(row0 + r) * n_feat + feat];
                        if w != 0.0 {
                            vec[(t + pre_rot) % slots] = w;
                            any = true;
                        }
                    }
                }
                any.then_some(vec)
            })
            .collect()
    }
}

/// Bias plaintext vectors, one per output ciphertext block.
pub struct BiasValues;

impl BiasValues {
    /// Per-channel convolution bias scattered into the output layout.
    pub fn conv(out_l: &TensorLayout, bias: &[f64], slots: usize) -> Vec<Vec<f64>> {
        assert_eq!(bias.len(), out_l.c);
        let blocks = out_l.num_ciphertexts(slots);
        let mut out = vec![vec![0.0; slots]; blocks];
        for c in 0..out_l.c {
            if bias[c] == 0.0 {
                continue;
            }
            for y in 0..out_l.h {
                for x in 0..out_l.w {
                    let s = out_l.slot_of(c, y, x);
                    out[s / slots][s % slots] = bias[c];
                }
            }
        }
        out
    }

    /// Fully-connected bias (raster output layout).
    pub fn dense(n_out: usize, bias: &[f64], slots: usize) -> Vec<Vec<f64>> {
        assert_eq!(bias.len(), n_out);
        let blocks = n_out.div_ceil(slots);
        let mut out = vec![vec![0.0; slots]; blocks];
        for (i, &b) in bias.iter().enumerate() {
            out[i / slots][i % slots] = b;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{conv_plan, dense_candidates};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The per-pair extraction the one-pass sources replaced: block pair
    /// `(i_blk, j_blk)`'s `k → diagonal`, one whole walk of the layer per
    /// pair keeping that pair's runs (conv), or the formula over the pair's
    /// plan diagonals (dense).
    fn conv_per_pair_reference(
        src: &ConvDiagSource<'_>,
        plan: &LinearPlan,
        i_blk: u32,
        j_blk: u32,
    ) -> HashMap<u32, Vec<f64>> {
        let slots = plan.slots;
        let n1 = plan.n1;
        let ci_per_g = src.spec.ci / src.spec.groups;
        let (kh, kw) = (src.spec.kh, src.spec.kw);
        let mut out: HashMap<u32, Vec<f64>> = HashMap::new();
        let step = src.out_l.t;
        for_each_conv_segment(
            &src.in_l,
            &src.out_l,
            &src.spec,
            |co, ci, ky, kx, row, delta, count| {
                let w = src.weights.data()[((co * ci_per_g + (ci % ci_per_g)) * kh + ky) * kw + kx];
                if w == 0.0 {
                    return;
                }
                for_each_block_run(slots, row, delta, step, count, |i, j, k, r0, take| {
                    if (i as u32, j as u32) != (i_blk, j_blk) {
                        return;
                    }
                    let pre_rot = (k / n1 * n1) % slots;
                    let vec = out.entry(k as u32).or_insert_with(|| vec![0.0; slots]);
                    for m in 0..take {
                        vec[(r0 + m * step + pre_rot) % slots] += w;
                    }
                });
            },
        );
        out
    }

    fn dense_per_pair_reference(
        src: &DenseDiagSource,
        plan: &LinearPlan,
        i_blk: u32,
        j_blk: u32,
    ) -> HashMap<u32, Vec<f64>> {
        let slots = plan.slots;
        let n1 = plan.n1;
        let n_feat = src.weights.shape()[1];
        let mut out = HashMap::new();
        let row0 = i_blk as usize * slots;
        let rows = plan.fold.min(src.n_out.saturating_sub(row0));
        for &k in &plan.blocks[&(i_blk, j_blk)] {
            let j = (k as usize) / n1;
            let pre_rot = (j * n1) % slots;
            let mut vec = vec![0.0; slots];
            let mut any = false;
            for copy in (0..slots).step_by(plan.fold) {
                for r in 0..rows {
                    let t = copy + r;
                    let col = j_blk as usize * slots + (t + k as usize) % slots;
                    let Some(&Some(feat)) = src.col_to_feature.get(col) else {
                        continue;
                    };
                    let w = src.weights.data()[(row0 + r) * n_feat + feat];
                    if w != 0.0 {
                        vec[(t + pre_rot) % slots] = w;
                        any = true;
                    }
                }
            }
            if any {
                out.insert(k, vec);
            }
        }
        out
    }

    /// `got` equals the per-pair reference laid out in plan order, bit for
    /// bit, and the reference names no diagonal outside the plan.
    fn assert_matches_per_pair(
        plan: &LinearPlan,
        got: &[Option<Vec<f64>>],
        per_pair: impl Fn(u32, u32) -> HashMap<u32, Vec<f64>>,
    ) {
        assert_eq!(got.len(), plan.counts.pmults);
        let mut want = Vec::new();
        for (&(i, j), ks) in &plan.blocks {
            let mut vals = per_pair(i, j);
            want.extend(ks.iter().map(|k| vals.remove(k)));
            assert!(vals.is_empty(), "pair ({i},{j}) has off-plan diagonals");
        }
        let bits = |v: &[Option<Vec<f64>>]| -> Vec<Option<Vec<u64>>> {
            (v.iter())
                .map(|d| d.as_ref().map(|d| d.iter().map(|x| x.to_bits()).collect()))
                .collect()
        };
        assert_eq!(bits(got), bits(&want));
    }

    /// Weights in `[-1, 1)`, each zero with probability `zero_share / 4`.
    fn weights(shape: &[usize], seed: u64, zero_share: u32) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = shape.iter().product();
        let data = (0..n).map(|_| {
            if rng.gen_range(0..4) < zero_share {
                0.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        });
        Tensor::from_vec(shape, data.collect())
    }

    #[test]
    fn conv_diags_match_plan_structure() {
        let in_l = TensorLayout::raster(2, 6, 6);
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
        let (plan, out_l) = conv_plan(&in_l, &spec, 128);
        let w = Tensor::from_vec(&[2, 2, 3, 3], (1..=36).map(|x| x as f64 * 0.1).collect());
        let src = ConvDiagSource {
            in_l,
            out_l,
            spec,
            weights: &w,
        };
        let vals = src.diagonals(&plan);
        // with all-nonzero weights, every plan diagonal has values
        assert_eq!(vals.len(), plan.diagonals().count());
        for d in vals {
            assert!(d.unwrap().iter().any(|&x| x != 0.0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one conv walk equals the per-pair walks on the layouts
        /// `conv_plan`'s brute-force proptest draws, at slot counts that
        /// split them over several blocks, with some zero weights.
        #[test]
        fn one_pass_conv_matches_per_pair_reference(
            groups in 1usize..=2,
            co_per_g in 1usize..=3,
            ci_per_g in 1usize..=3,
            kh in 1usize..=3,
            kw in 1usize..=3,
            stride in 1usize..=3,
            padding in 0usize..=2,
            dilation in 1usize..=2,
            t in 1usize..=3,
            extra_h in 0usize..5,
            extra_w in 0usize..5,
            slots in 4usize..=96,
            zero_share in 0u32..=2,
            seed in 0u64..1 << 32,
        ) {
            let min = |k: usize| (dilation * (k - 1) + 1).saturating_sub(2 * padding).max(1);
            let spec = ConvSpec {
                co: groups * co_per_g,
                ci: groups * ci_per_g,
                kh,
                kw,
                stride,
                padding,
                dilation,
                groups,
            };
            let in_l = TensorLayout { c: spec.ci, h: min(kh) + extra_h, w: min(kw) + extra_w, t };
            let (plan, out_l) = conv_plan(&in_l, &spec, slots);
            let w = weights(&[spec.co, ci_per_g, kh, kw], seed, zero_share);
            let src = ConvDiagSource { in_l, out_l, spec, weights: &w };
            let got = src.diagonals(&plan);
            assert_matches_per_pair(&plan, &got, |i, j| conv_per_pair_reference(&src, &plan, i, j));
        }

        /// The per-diagonal dense formula equals the per-pair one on every
        /// fold `dense_plan` ranks — unfolded `R = S` and folded alike.
        #[test]
        fn one_pass_dense_matches_per_pair_reference(
            n_out in 1usize..80,
            c in 1usize..8,
            h in 1usize..6,
            w in 1usize..6,
            log_t in 0u32..3,
            log_slots in 3u32..8,
            zero_share in 0u32..=2,
            seed in 0u64..1 << 32,
        ) {
            let in_l = TensorLayout { c, h, w, t: 1 << log_t };
            let src = DenseDiagSource::new(weights(&[n_out, c * h * w], seed, zero_share), &in_l);
            for (_, plan) in dense_candidates(&in_l, n_out, 1 << log_slots) {
                let got = src.diagonals(&plan);
                assert_matches_per_pair(&plan, &got, |i, j| dense_per_pair_reference(&src, &plan, i, j));
            }
        }
    }

    #[test]
    fn bias_lands_on_layout_slots() {
        let out_l = TensorLayout {
            c: 4,
            h: 2,
            w: 2,
            t: 2,
        };
        let b = BiasValues::conv(&out_l, &[1.0, 2.0, 3.0, 4.0], 16);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0][out_l.slot_of(2, 1, 1)], 3.0);
        let total: f64 = b[0].iter().sum();
        assert_eq!(total, (1.0 + 2.0 + 3.0 + 4.0) * 4.0);
    }
}
