//! Reference (cleartext) layer semantics.
//!
//! These are the ground truth every FHE execution is compared against.
//! Conventions match PyTorch: tensors are `(C, H, W)`, convolution weights
//! `(C_out, C_in/groups, K_h, K_w)`.

use crate::tensor::Tensor;
use std::ops::Range;

/// Convolution hyper-parameters (PyTorch's `Conv2d` argument set —
/// paper §4 "supports convolutions with arbitrary parameters").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
    /// Dilation.
    pub dilation: usize,
    /// Channel groups.
    pub groups: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Self {
            stride: 1,
            padding: 0,
            dilation: 1,
            groups: 1,
        }
    }
}

impl Conv2dParams {
    /// Output spatial size of `layer` (named in the panic message) for an
    /// input extent `n` and kernel extent `k` — the one output-size formula
    /// of every convolution and pooling window. Panics when the stride,
    /// the dilation or the kernel extent is zero, or the dilated window is
    /// wider than the padded input.
    pub fn out_size(&self, layer: &str, n: usize, k: usize) -> usize {
        assert!(self.stride > 0, "{layer}: stride must be nonzero");
        assert!(self.dilation > 0, "{layer}: dilation must be nonzero");
        assert!(k > 0, "{layer}: kernel extent must be nonzero");
        let eff_k = self.dilation * (k - 1) + 1;
        let padded = n + 2 * self.padding;
        assert!(
            eff_k <= padded,
            "{layer}: a {eff_k}-wide window (kernel {k}, dilation {}) does not fit a {n}-wide input padded by {}",
            self.dilation,
            self.padding
        );
        (padded - eff_k) / self.stride + 1
    }

    /// The outputs `lo..hi` along one axis (input extent `n`, output extent
    /// `n_out`) whose kernel tap `k` reads inside the input, and the input
    /// coordinate `lo` reads (`0..0` and `0` when no output does).
    fn valid_taps(&self, n: usize, n_out: usize, k: usize) -> (Range<usize>, usize) {
        let (off, s) = (k * self.dilation, self.stride);
        let lo = self.padding.saturating_sub(off).div_ceil(s);
        let hi = match (n + self.padding).checked_sub(off + 1) {
            Some(last) => (last / s + 1).min(n_out),
            None => 0,
        };
        if lo >= hi {
            return (0..0, 0);
        }
        (lo..hi, lo * s + off - self.padding)
    }
}

/// Reference 2-D convolution. `input` is `(C_in, H, W)`, `weight` is
/// `(C_out, C_in/groups, K_h, K_w)`, `bias` has `C_out` entries (or is
/// empty). Returns `(C_out, H_out, W_out)`.
///
/// Every output is its bias (or `0.0`) plus its valid taps, added one at a
/// time in `(ic, ky, kx)` order; a tap that lands in the padding is skipped,
/// not added as a zero. The loop runs tap-major — each tap is one
/// multiply-add over a run of an output row, its valid rows and columns
/// found once per layer — but that order per output is what fixes every
/// value to the bit.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &[f64], p: Conv2dParams) -> Tensor {
    let (ci, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (co, cig, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(ci, cig * p.groups, "channel/group mismatch");
    assert_eq!(co % p.groups, 0);
    assert!(bias.is_empty() || bias.len() == co);
    let ho = p.out_size("conv2d", h, kh);
    let wo = p.out_size("conv2d", w, kw);
    let co_per_g = co / p.groups;
    let rows: Vec<_> = (0..kh).map(|ky| p.valid_taps(h, ho, ky)).collect();
    let cols: Vec<_> = (0..kw).map(|kx| p.valid_taps(w, wo, kx)).collect();
    let (x, wt) = (input.data(), weight.data());
    let mut out = Tensor::zeros(&[co, ho, wo]);
    for (oc, plane) in out.data_mut().chunks_exact_mut(ho * wo).enumerate() {
        if !bias.is_empty() {
            plane.fill(bias[oc]);
        }
        let chans = &x[(oc / co_per_g) * cig * h * w..];
        for ic in 0..cig {
            let chan = &chans[ic * h * w..(ic + 1) * h * w];
            for ky in 0..kh {
                let (oys, iy0) = rows[ky].clone();
                let taps = &wt[((oc * cig + ic) * kh + ky) * kw..][..kw];
                for (r, oy) in oys.enumerate() {
                    let src = &chan[(iy0 + r * p.stride) * w..][..w];
                    let dst = &mut plane[oy * wo..(oy + 1) * wo];
                    for (&wv, (oxs, ix0)) in taps.iter().zip(&cols) {
                        let (dst, src) = (&mut dst[oxs.clone()], &src[*ix0..]);
                        if p.stride == 1 {
                            for (o, &v) in dst.iter_mut().zip(src) {
                                *o += wv * v;
                            }
                        } else {
                            for (o, &v) in dst.iter_mut().zip(src.iter().step_by(p.stride)) {
                                *o += wv * v;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Reference fully-connected layer: `weight` is `(N_out, N_in)`, `input`
/// is flat.
pub fn linear(input: &[f64], weight: &Tensor, bias: &[f64]) -> Vec<f64> {
    let (n_out, n_in) = (weight.shape()[0], weight.shape()[1]);
    assert_eq!(input.len(), n_in, "linear input size mismatch");
    assert!(bias.is_empty() || bias.len() == n_out);
    (0..n_out)
        .map(|o| {
            let row = &weight.data()[o * n_in..(o + 1) * n_in];
            let mut acc = if bias.is_empty() { 0.0 } else { bias[o] };
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            acc
        })
        .collect()
}

/// Reference average pooling (`k × k`, given stride, optional padding).
pub fn avg_pool2d(input: &Tensor, k: usize, stride: usize, padding: usize) -> Tensor {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let p = Conv2dParams {
        stride,
        padding,
        ..Default::default()
    };
    let (ho, wo) = (
        p.out_size("avg_pool2d", h, k),
        p.out_size("avg_pool2d", w, k),
    );
    let mut out = Tensor::zeros(&[c, ho, wo]);
    let inv = 1.0 / (k * k) as f64;
    for ch in 0..c {
        for oy in 0..ho {
            for ox in 0..wo {
                let mut acc = 0.0;
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        acc += input.at3(ch, iy as usize, ix as usize);
                    }
                }
                out.data_mut()[(ch * ho + oy) * wo + ox] = acc * inv;
            }
        }
    }
    out
}

/// Applies batch-norm as the affine map `y = gamma·(x−mean)/√(var+eps) + beta`
/// per channel (inference mode, running statistics).
pub fn batch_norm2d(
    input: &Tensor,
    gamma: &[f64],
    beta: &[f64],
    mean: &[f64],
    var: &[f64],
    eps: f64,
) -> Tensor {
    let c = input.shape()[0];
    assert!(gamma.len() == c && beta.len() == c && mean.len() == c && var.len() == c);
    let mut out = input.clone();
    let (h, w) = (input.shape()[1], input.shape()[2]);
    for ch in 0..c {
        let scale = gamma[ch] / (var[ch] + eps).sqrt();
        let shift = beta[ch] - mean[ch] * scale;
        for i in 0..h * w {
            let idx = ch * h * w + i;
            out.data_mut()[idx] = input.data()[idx] * scale + shift;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The output-major convolution `conv2d` replaced, kept verbatim as
    /// its bit-exactness reference.
    fn reference_conv2d(input: &Tensor, weight: &Tensor, bias: &[f64], p: Conv2dParams) -> Tensor {
        let (ci, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (co, cig, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        assert_eq!(ci, cig * p.groups, "channel/group mismatch");
        assert_eq!(co % p.groups, 0);
        assert!(bias.is_empty() || bias.len() == co);
        let ho = p.out_size("conv2d", h, kh);
        let wo = p.out_size("conv2d", w, kw);
        let co_per_g = co / p.groups;
        let mut out = Tensor::zeros(&[co, ho, wo]);
        for g in 0..p.groups {
            for oc in 0..co_per_g {
                let co_idx = g * co_per_g + oc;
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = if bias.is_empty() { 0.0 } else { bias[co_idx] };
                        for ic in 0..cig {
                            let ci_idx = g * cig + ic;
                            for ky in 0..kh {
                                let iy =
                                    (oy * p.stride + ky * p.dilation) as isize - p.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..kw {
                                    let ix = (ox * p.stride + kx * p.dilation) as isize
                                        - p.padding as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let wv =
                                        weight.data()[((co_idx * cig + ic) * kh + ky) * kw + kx];
                                    acc += wv * input.at3(ci_idx, iy as usize, ix as usize);
                                }
                            }
                        }
                        out.data_mut()[(co_idx * ho + oy) * wo + ox] = acc;
                    }
                }
            }
        }
        out
    }

    /// `conv2d` and the reference agree to the bit, shape included.
    fn assert_bit_identical(input: &Tensor, weight: &Tensor, bias: &[f64], p: Conv2dParams) {
        let (got, want) = (
            conv2d(input, weight, bias, p),
            reference_conv2d(input, weight, bias, p),
        );
        assert_eq!(got.shape(), want.shape(), "{p:?}");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{p:?}");
    }

    fn random(shape: &[usize], rng: &mut StdRng) -> Tensor {
        let n = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every output sums its bias and valid taps in the reference's
        /// order: grouped, strided, padded, dilated, non-square kernels and
        /// inputs, with and without bias.
        #[test]
        fn conv2d_is_bit_identical_to_the_reference(
            groups in 1usize..=3,
            cig in 1usize..=2,
            co_per_g in 1usize..=2,
            kh in 1usize..=5,
            kw in 1usize..=5,
            h in 1usize..=9,
            w in 1usize..=9,
            stride in 1usize..=3,
            padding in 0usize..=2,
            dilation in 1usize..=2,
            with_bias in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let p = Conv2dParams { stride, padding, dilation, groups };
            let fits = |n: usize, k: usize| dilation * (k - 1) < n + 2 * padding;
            prop_assume!(fits(h, kh) && fits(w, kw));
            let mut rng = StdRng::seed_from_u64(seed);
            let co = groups * co_per_g;
            let input = random(&[groups * cig, h, w], &mut rng);
            let weight = random(&[co, cig, kh, kw], &mut rng);
            let bias: Vec<f64> = if with_bias == 1 {
                (0..co).map(|_| rng.gen_range(-1.0..1.0)).collect()
            } else {
                Vec::new()
            };
            assert_bit_identical(&input, &weight, &bias, p);
        }
    }

    #[test]
    fn depthwise_stride_two_is_bit_identical() {
        // mobilenet's downsampling depthwise 3×3: groups = channels,
        // stride 2, padding 1, on an even and an odd input width
        let mut rng = StdRng::seed_from_u64(11);
        let p = Conv2dParams {
            stride: 2,
            padding: 1,
            groups: 8,
            ..Default::default()
        };
        for (h, w) in [(16, 16), (15, 9)] {
            let input = random(&[8, h, w], &mut rng);
            let weight = random(&[8, 1, 3, 3], &mut rng);
            let bias: Vec<f64> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            assert_bit_identical(&input, &weight, &bias, p);
        }
    }

    #[test]
    fn outputs_that_see_only_padding_are_their_bias() {
        // a 1×1 kernel at stride 1 and padding 2: the two-pixel frame of
        // the output reads nothing but padding
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let weight = Tensor::from_vec(&[2, 1, 1, 1], vec![10.0, 3.0]);
        let p = Conv2dParams {
            padding: 2,
            ..Default::default()
        };
        let out = conv2d(&input, &weight, &[0.5, -0.0], p);
        assert_eq!(out.shape(), &[2, 6, 6]);
        assert_eq!(out.data()[0], 0.5);
        assert_eq!(out.data()[2 * 6 + 2], 10.5);
        // the bias −0.0 survives: nothing, not 3·0.0 = +0.0, is added to it
        assert_eq!(out.data()[36].to_bits(), (-0.0f64).to_bits());
        assert_bit_identical(&input, &weight, &[0.5, -0.0], p);
    }

    #[test]
    fn negative_zero_sums_keep_their_sign() {
        // −0.0 + w·(−0.0) stays −0.0 for w > 0, and so does −0.0 +
        // (−0.0)·0.0; a padded tap added as w·0.0 would flip the first to
        // +0.0, and one added as a literal +0.0 both
        let p = Conv2dParams {
            padding: 1,
            ..Default::default()
        };
        let cases = [(-0.0, 0.5), (0.0, -0.0)];
        for (x, wv) in cases {
            let input = Tensor::from_vec(&[1, 3, 4], vec![x; 12]);
            let weight = Tensor::from_vec(&[1, 1, 3, 3], vec![wv; 9]);
            let out = conv2d(&input, &weight, &[-0.0], p);
            assert!(
                out.data()
                    .iter()
                    .all(|v| v.to_bits() == (-0.0f64).to_bits()),
                "x {x:?} w {wv:?}: {:?}",
                out.data()
            );
            assert_bit_identical(&input, &weight, &[-0.0], p);
        }
    }

    #[test]
    fn identity_kernel_passes_through() {
        let input = Tensor::from_vec(&[1, 3, 3], (1..=9).map(|x| x as f64).collect());
        let weight = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let out = conv2d(&input, &weight, &[], Conv2dParams::default());
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn known_3x3_same_convolution() {
        // Matches the paper's Figure 3 example: 3×3 input, 3×3 kernel,
        // stride 1, padding 1 (same-style).
        let input = Tensor::from_vec(&[1, 3, 3], (1..=9).map(|x| x as f64).collect()); // a..i = 1..9
        let weight = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|x| x as f64).collect());
        let p = Conv2dParams {
            padding: 1,
            ..Default::default()
        };
        let out = conv2d(&input, &weight, &[], p);
        // Top-left output: filter {5,6,8,9} over pixels {1,2,4,5}.
        assert_eq!(out.data()[0], 5.0 * 1.0 + 6.0 * 2.0 + 8.0 * 4.0 + 9.0 * 5.0);
        assert_eq!(out.shape(), &[1, 3, 3]);
    }

    #[test]
    fn stride_reduces_output() {
        let input = Tensor::zeros(&[2, 8, 8]);
        let weight = Tensor::zeros(&[4, 2, 3, 3]);
        let p = Conv2dParams {
            stride: 2,
            padding: 1,
            ..Default::default()
        };
        let out = conv2d(&input, &weight, &[], p);
        assert_eq!(out.shape(), &[4, 4, 4]);
    }

    #[test]
    fn grouped_convolution_partitions_channels() {
        // Depthwise: groups == channels; each output only sees its own
        // input channel.
        let input = Tensor::from_vec(&[2, 2, 2], vec![1.0, 1.0, 1.0, 1.0, 10.0, 10.0, 10.0, 10.0]);
        let weight = Tensor::from_vec(&[2, 1, 1, 1], vec![2.0, 3.0]);
        let p = Conv2dParams {
            groups: 2,
            ..Default::default()
        };
        let out = conv2d(&input, &weight, &[], p);
        assert_eq!(out.data()[0], 2.0);
        assert_eq!(out.data()[4], 30.0);
    }

    #[test]
    fn dilation_enlarges_receptive_field() {
        let input = Tensor::from_vec(&[1, 5, 5], (0..25).map(|x| x as f64).collect());
        let weight = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0; 4]);
        let p = Conv2dParams {
            dilation: 2,
            ..Default::default()
        };
        let out = conv2d(&input, &weight, &[], p);
        // out[0,0,0] = in[0,0] + in[0,2] + in[2,0] + in[2,2]
        assert_eq!(out.data()[0], 0.0 + 2.0 + 10.0 + 12.0);
        assert_eq!(out.shape(), &[1, 3, 3]);
    }

    #[test]
    fn bias_is_added() {
        let input = Tensor::zeros(&[1, 2, 2]);
        let weight = Tensor::zeros(&[3, 1, 1, 1]);
        let out = conv2d(&input, &weight, &[1.0, 2.0, 3.0], Conv2dParams::default());
        assert_eq!(out.data()[0], 1.0);
        assert_eq!(out.data()[4], 2.0);
        assert_eq!(out.data()[8], 3.0);
    }

    #[test]
    fn linear_matches_manual_dot() {
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = linear(&[1.0, 0.5, -1.0], &w, &[10.0, 20.0]);
        assert_eq!(out, vec![10.0 + 1.0 + 1.0 - 3.0, 20.0 + 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn avg_pool_averages() {
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let out = avg_pool2d(&input, 2, 2, 0);
        assert_eq!(out.data(), &[2.5]);
    }

    #[test]
    fn batch_norm_affine() {
        let input = Tensor::from_vec(&[1, 1, 2], vec![2.0, 4.0]);
        let out = batch_norm2d(&input, &[2.0], &[1.0], &[3.0], &[4.0 - 1e-5], 1e-5);
        // scale = 2/√4 = 1, shift = 1 − 3·1 = −2 → y = x − 2
        assert!((out.data()[0] - 0.0).abs() < 1e-9);
        assert!((out.data()[1] - 2.0).abs() < 1e-9);
    }
}
