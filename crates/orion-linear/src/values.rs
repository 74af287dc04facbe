//! Diagonal plaintext materialization.
//!
//! Plans (structure only) are enough for counting and placement; actual
//! execution needs the diagonal *values*. These are produced block-by-block
//! so ciphertext-sized vectors are only alive transiently, and are
//! **pre-rotated** by their giant step (`rot_{−j·n1}`) so the executor can
//! apply Equation (1) of the paper directly.

use crate::layout::TensorLayout;
use crate::plan::{for_each_block_run, for_each_conv_segment, ConvSpec, LinearPlan};
use orion_tensor::Tensor;
use std::collections::HashMap;

/// Supplies diagonal values for a plan, block by block.
pub trait DiagSource {
    /// Returns `k → pre-rotated diagonal vector` for ciphertext block pair
    /// `(i_blk, j_blk)`; keys must match the plan's diagonal set.
    fn block_diags(&self, plan: &LinearPlan, i_blk: u32, j_blk: u32) -> HashMap<u32, Vec<f64>>;
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
    fn block_diags(&self, plan: &LinearPlan, i_blk: u32, j_blk: u32) -> HashMap<u32, Vec<f64>> {
        let slots = plan.slots;
        let n1 = plan.n1;
        let ci_per_g = self.spec.ci / self.spec.groups;
        let (kh, kw) = (self.spec.kh, self.spec.kw);
        let mut out: HashMap<u32, Vec<f64>> = HashMap::new();
        let step = self.out_l.t;
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
    fn block_diags(&self, plan: &LinearPlan, i_blk: u32, j_blk: u32) -> HashMap<u32, Vec<f64>> {
        let slots = plan.slots;
        let n1 = plan.n1;
        let n_feat = self.weights.shape()[1];
        let mut out = HashMap::new();
        let Some(diags) = plan.blocks.get(&(i_blk, j_blk)) else {
            return out;
        };
        let row0 = i_blk as usize * slots;
        let rows = plan.fold.min(self.n_out.saturating_sub(row0));
        for &k in diags {
            let j = (k as usize) / n1;
            let pre_rot = (j * n1) % slots;
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
            if any {
                out.insert(k, vec);
            }
        }
        out
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
    use crate::plan::conv_plan;

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
        for (&(i, j), diags) in &plan.blocks {
            let vals = src.block_diags(&plan, i, j);
            // with all-nonzero weights, every plan diagonal has values
            assert_eq!(vals.len(), diags.len());
            for k in diags {
                assert!(vals.contains_key(k));
                assert!(vals[k].iter().any(|&x| x != 0.0));
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
