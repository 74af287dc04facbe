//! Plan executors.
//!
//! Every executor walks one schedule of a layer, `baby_steps`: the
//! diagonals grouped by baby step `(input block, i)`, each step with the
//! `(output block, giant step)` groups that read its rotation. It is the
//! only place a layer's diagonals are split into baby steps and giant-step
//! groups.
//!
//! [`exec_plain`] runs the schedule on cleartext slot vectors using exactly
//! the executor's rotation algebra (each baby-step rotation computed once,
//! group sums, giant-step rotations, row fold, bias) — it is the
//! correctness oracle for the packing math, compared against reference
//! convolutions in tests.
//!
//! [`exec_bsgs`] is the real thing, and the only copy of it: double-hoisted
//! BSGS over CKKS ciphertexts (paper Equation (1)). Baby-step rotations
//! share one digit decomposition per rotating input ciphertext of the
//! call and stream, one at a time per thread, into the giant-step groups
//! that read them; the groups accumulate in the extended basis with one
//! deferred ModDown each. Weights come encoded at prime scale in a
//! [`PreparedLayer`], so each linear layer consumes exactly one level and
//! returns the ciphertext scale to precisely Δ. [`exec_fhe_prepared`] is the
//! call with a setup-time cache, [`exec_fhe`] the call that encodes the
//! layer first; [`exec_fhe_unhoisted`], one full rotation per step, is the
//! independent reference the tests hold the body to.

use crate::plan::LinearPlan;
use crate::prepared::PreparedLayer;
use crate::values::DiagSource;
use orion_ckks::encoder::Encoder;
use orion_ckks::encrypt::Ciphertext;
use orion_ckks::eval::Evaluator;
use orion_ckks::hoist::{ExtAccumulator, HoistedDigits, RotatedExt};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// `out += rot(v, k)` on cleartext slots.
fn add_rotated(out: &mut [f64], v: &[f64], k: usize) {
    for (t, o) in out.iter_mut().enumerate() {
        *o += v[(t + k) % v.len()];
    }
}

/// One baby step of a layer, `(input block, i)`, with the terms that read
/// it: `((output block, giant step), value)` in plan order.
type BabyStep<'v, T> = ((u32, usize), Vec<((u32, usize), &'v T)>);

/// A layer's values zipped with [`LinearPlan::diagonals`] and grouped by
/// baby step, `(input block, i)` ascending — the one schedule every
/// executor walks. An all-zero diagonal (`None`) is no term, but a step
/// whose diagonals are all zero keeps its place, so there is one step per
/// distinct `(input block, k mod n1)` of the plan. A group's terms arrive
/// in plan order (`blocks` ascending, then `k`). Asserts there is one
/// value per plan diagonal.
fn baby_steps<'v, T>(plan: &LinearPlan, values: &'v [Option<T>]) -> Vec<BabyStep<'v, T>> {
    assert_eq!(
        values.len(),
        plan.counts.pmults,
        "one value per plan diagonal"
    );
    let mut steps: BTreeMap<(u32, usize), Vec<_>> = BTreeMap::new();
    for ((i_blk, j_blk, k), v) in plan.diagonals().zip(values) {
        let (i, j) = ((k as usize) % plan.n1, (k as usize) / plan.n1);
        let terms = steps.entry((j_blk, i)).or_default();
        terms.extend(v.as_ref().map(|v| ((i_blk, j), v)));
    }
    steps.into_iter().collect()
}

/// Executes a plan on cleartext slot blocks — [`exec_bsgs`]'s algebra term
/// for term, on its schedule: each baby-step rotation computed once and
/// multiplied into the sum of every `(output block, giant step)` group
/// that reads it, then per output block the giant-step rotations of its
/// groups, the row fold's rotate-and-sum steps and the bias, extended
/// with the row fold's period as [`PreparedLayer::build`] encodes it.
/// Sequential: `f64` sums are not associative, so each group sums its
/// terms in plan order and the output does not depend on the pool.
pub fn exec_plain(
    plan: &LinearPlan,
    source: &dyn DiagSource,
    bias: Option<&[Vec<f64>]>,
    inputs: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    assert_eq!(inputs.len(), plan.in_blocks);
    let (slots, n1) = (plan.slots, plan.n1);
    let diags = source.diagonals(plan);
    let mut groups: BTreeMap<(u32, usize), Vec<f64>> = BTreeMap::new();
    for ((j_blk, i), terms) in baby_steps(plan, &diags) {
        let mut rot = inputs[j_blk as usize].clone();
        rot.rotate_left(i);
        for (group, d) in terms {
            let acc = groups.entry(group).or_insert_with(|| vec![0.0; slots]);
            for ((a, &dv), &xv) in acc.iter_mut().zip(d).zip(&rot) {
                *a += dv * xv;
            }
        }
    }
    let mut out = vec![vec![0.0; slots]; plan.out_blocks];
    for ((i_blk, j), acc) in groups {
        add_rotated(&mut out[i_blk as usize], &acc, (j * n1) % slots);
    }
    for (i_blk, block) in out.iter_mut().enumerate() {
        for s in plan.fold_steps() {
            let partial = block.clone();
            add_rotated(block, &partial, s);
        }
        if let Some(bias) = bias {
            for (x, v) in block.iter_mut().zip(plan.periodic(&bias[i_blk])) {
                *x += v;
            }
        }
    }
    out
}

/// Handles bundling the CKKS evaluator and encoder for FHE execution.
pub struct FheLinearContext<'a> {
    /// The evaluator (must hold rotation keys for `plan.rotation_steps()`,
    /// generated at or above the level of the layer's input).
    pub eval: &'a Evaluator,
    /// The encoder.
    pub enc: &'a Encoder,
}

/// Applies giant step `j`'s rotation `rot_{j·n1}` to its group's result.
fn giant_rotate(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    j: usize,
    part: Ciphertext,
) -> Ciphertext {
    match (j * plan.n1) % plan.slots {
        0 => part,
        g => ctx.eval.rotate(&part, g as isize),
    }
}

/// The tail both FHE executors share. Sums the giant-rotated group results
/// per output block in the order given, runs the row fold's rotate-and-sum
/// steps, rescales, and adds the bias with period `R`, so the output block
/// is exactly `R`-periodic. The fold precedes the rescale so that its
/// key-switch errors are divided by `q_ℓ` with the rest. The bias comes
/// from `prepared`; the unhoisted reference has none.
fn finish_fhe(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    inputs: &[Ciphertext],
    parts: impl IntoIterator<Item = (u32, Ciphertext)>,
    prepared: Option<&PreparedLayer>,
) -> Vec<Ciphertext> {
    let mut out: Vec<Option<Ciphertext>> = vec![None; plan.out_blocks];
    for (i_blk, part) in parts {
        let slot_ref = &mut out[i_blk as usize];
        *slot_ref = Some(match slot_ref.take() {
            None => part,
            Some(prev) => ctx.eval.add(&prev, &part),
        });
    }
    out.into_iter()
        .enumerate()
        .map(|(i_blk, o)| {
            // an output block no diagonal touches: encrypt-free zero, an
            // input times the scalar 0 carried at the layer's prime scale
            let mut ct = o.unwrap_or_else(|| {
                let q = ctx.eval.context().moduli[inputs[0].level()] as f64;
                ctx.eval.mul_scalar(&inputs[0], 0.0, q)
            });
            for s in plan.fold_steps() {
                ct = ctx.eval.add(&ct, &ctx.eval.rotate(&ct, s as isize));
            }
            ctx.eval.rescale_assign(&mut ct);
            match prepared.and_then(|p| p.bias.as_ref()) {
                Some(bias) => ctx.eval.add_plain(&ct, &bias[i_blk]),
                None => ct,
            }
        })
        .collect()
}

/// Executes a plan homomorphically **without** hoisting or lazy ModDown —
/// each baby step of the schedule pays one full key-switch, every term a
/// plaintext product in the base basis, and diagonals are encoded on the
/// fly. This is the ablation baseline for the paper's Table 4 mechanism
/// ("our convolutional runtime is 11.2× faster … all ciphertext rotations
/// in Orion are performed with double-hoisting"), and, beyond the shared
/// schedule, the one ciphertext implementation independent of
/// [`exec_bsgs`].
pub fn exec_fhe_unhoisted(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    source: &dyn DiagSource,
    inputs: &[Ciphertext],
) -> Vec<Ciphertext> {
    assert_eq!(inputs.len(), plan.in_blocks);
    let level = inputs[0].level();
    let mut groups: BTreeMap<(u32, usize), Ciphertext> = BTreeMap::new();
    let diags = source.diagonals(plan);
    for ((j_blk, i), terms) in baby_steps(plan, &diags) {
        // a full key-switch per baby step: no hoist, no deferred ModDown
        let rot = ctx.eval.rotate(&inputs[j_blk as usize], i as isize);
        for (group, d) in terms {
            // on-the-fly encoding (the ablation's point)
            let pt = ctx.enc.encode_at_prime_scale(d, level, false);
            let term = ctx.eval.mul_plain(&rot, &pt);
            (groups.entry(group))
                .and_modify(|acc| *acc = ctx.eval.add(acc, &term))
                .or_insert(term);
        }
    }
    let parts = groups
        .into_iter()
        .map(|((i_blk, j), part)| (i_blk, giant_rotate(ctx, plan, j, part)));
    finish_fhe(ctx, plan, inputs, parts, None)
}

/// One [`HoistedDigits`] per input block with a non-zero baby step, built in
/// parallel (Bossuat et al. Algorithm 6); `None` for a block whose every
/// diagonal sits on a giant step, which is never decomposed.
fn hoist<'c, T: Sync>(
    ctx: &FheLinearContext<'_>,
    inputs: &'c [Ciphertext],
    steps: &[BabyStep<'_, T>],
) -> Vec<Option<HoistedDigits<'c>>> {
    (0..inputs.len())
        .into_par_iter()
        .map(|j_blk| {
            let rotates = (steps.iter()).any(|&((b, i), _)| b as usize == j_blk && i != 0);
            rotates.then(|| HoistedDigits::new(ctx.eval.context(), &inputs[j_blk]))
        })
        .collect()
}

/// Executes a plan homomorphically — THE double-hoisted BSGS body. Inputs
/// must share the prepared level and scale Δ; outputs are one level lower
/// at exactly scale Δ (single-shot: even strided convolutions consume one
/// level — paper §4). Every plaintext comes from `prepared`. The baby steps
/// stream into the giant-step groups, so no rotation outlives the diagonals
/// that read it:
///
/// 1. one digit decomposition per rotating input block, in parallel;
/// 2. the baby steps `(input block, i)` in one contiguous chunk per pool
///    thread: each rotation is computed once, multiplied into the chunk's
///    partial [`ExtAccumulator`] of every `(output block, giant step)`
///    group that reads it, and its limbs recycled before the next;
/// 3. per group, in parallel, the partials merged in chunk order, one
///    deferred ModDown and the giant rotation.
///
/// Group sums are exact modular sums, so neither the MAC order nor the
/// chunk count changes a bit of the result.
pub fn exec_bsgs(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    prepared: &PreparedLayer,
    inputs: &[Ciphertext],
) -> Vec<Ciphertext> {
    exec_streamed(ctx, plan, prepared, inputs, rayon::current_num_threads())
}

/// [`exec_bsgs`] with its baby steps split into `chunks` chunks.
fn exec_streamed(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    prepared: &PreparedLayer,
    inputs: &[Ciphertext],
    chunks: usize,
) -> Vec<Ciphertext> {
    assert_eq!(inputs.len(), plan.in_blocks);
    let level = inputs[0].level();
    assert_eq!(level, prepared.level, "inputs off the prepared level");
    assert_eq!(plan.slots, ctx.eval.context().slots(), "slot mismatch");
    let steps = baby_steps(plan, &prepared.diags);
    let hoisted = hoist(ctx, inputs, &steps);
    let chunk_len = steps.len().div_ceil(chunks).max(1);
    let partials: Vec<BTreeMap<(u32, usize), ExtAccumulator>> = (steps.chunks(chunk_len))
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|chunk| {
            let mut accs = BTreeMap::new();
            for &((j_blk, i), ref terms) in chunk {
                let rot = match (i, &hoisted[j_blk as usize]) {
                    (0, _) => RotatedExt::identity(ctx.eval.context(), &inputs[j_blk as usize]),
                    (_, h) => (h.as_ref().expect("a rotating block is hoisted"))
                        .rotate_ext(ctx.eval, i as isize),
                };
                for &(group, pt) in terms {
                    (accs.entry(group))
                        .or_insert_with(|| ExtAccumulator::new(ctx.eval.context(), level))
                        .add_pmult_rotated(ctx.eval, &rot, pt);
                }
                rot.recycle();
            }
            accs
        })
        .collect();
    drop(hoisted);
    let mut groups: BTreeMap<(u32, usize), Vec<ExtAccumulator>> = BTreeMap::new();
    for (group, acc) in partials.into_iter().flatten() {
        groups.entry(group).or_default().push(acc);
    }
    let parts: Vec<(u32, Ciphertext)> = (groups.into_iter().collect::<Vec<_>>())
        .into_par_iter()
        .map(|((i_blk, j), partials)| {
            let mut partials = partials.into_iter();
            let mut acc = partials.next().expect("a group has a term");
            partials.for_each(|part| acc.merge(part));
            (i_blk, giant_rotate(ctx, plan, j, acc.finalize(ctx.eval)))
        })
        .collect();
    finish_fhe(ctx, plan, inputs, parts, Some(prepared))
}

/// [`exec_bsgs`] with the weights encoded per call (the on-the-fly path):
/// the whole layer is encoded at the inputs' level, used once and dropped.
pub fn exec_fhe(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    source: &(dyn DiagSource + Sync),
    bias: Option<&[Vec<f64>]>,
    inputs: &[Ciphertext],
) -> Vec<Ciphertext> {
    let prepared = PreparedLayer::build(ctx.enc, plan, source, bias, inputs[0].level());
    exec_bsgs(ctx, plan, &prepared, inputs)
}

/// [`exec_bsgs`] from a setup-time [`PreparedLayer`]: **zero plaintext
/// encodes** per request — the serving path.
pub fn exec_fhe_prepared(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    prepared: &PreparedLayer,
    inputs: &[Ciphertext],
) -> Vec<Ciphertext> {
    exec_bsgs(ctx, plan, prepared, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TensorLayout;
    use crate::plan::{conv_plan, dense_candidates, dense_plan, ConvSpec, PlanBuilder, PlanCounts};
    use crate::values::{BiasValues, ConvDiagSource, DenseDiagSource};
    use orion_ckks::keys::KeyGenerator;
    use orion_ckks::params::{CkksParams, Context};
    use orion_ckks::{Decryptor, Encryptor};
    use orion_tensor::{conv2d, linear, Conv2dParams, Tensor};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn random_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    /// Runs one conv config through exec_plain and compares with the
    /// reference convolution.
    fn check_conv_plain(c_in: usize, h: usize, w: usize, spec: ConvSpec, slots: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let in_l = TensorLayout::raster(c_in, h, w);
        let input = random_tensor(&[c_in, h, w], &mut rng);
        let weights = random_tensor(
            &[spec.co, spec.ci / spec.groups, spec.kh, spec.kw],
            &mut rng,
        );
        let (plan, out_l) = conv_plan(&in_l, &spec, slots);
        let src = ConvDiagSource {
            in_l,
            out_l,
            spec,
            weights: &weights,
        };

        // pack input into blocks
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
        let got = out_l.unpack(&out_slots[..]);

        let p = Conv2dParams {
            stride: spec.stride,
            padding: spec.padding,
            dilation: spec.dilation,
            groups: spec.groups,
        };
        let expect = conv2d(&input, &weights, &[], p);
        assert_eq!(got.len(), expect.len());
        for (idx, (a, b)) in got.iter().zip(expect.data()).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "mismatch at {idx}: {a} vs {b} (spec {spec:?})"
            );
        }
    }

    #[test]
    fn plain_same_conv_matches_reference() {
        let spec = ConvSpec {
            co: 4,
            ci: 3,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        check_conv_plain(3, 8, 8, spec, 512, 1);
    }

    #[test]
    fn plain_strided_conv_matches_reference() {
        let spec = ConvSpec {
            co: 8,
            ci: 4,
            kh: 3,
            kw: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        check_conv_plain(4, 8, 8, spec, 512, 2);
    }

    #[test]
    fn plain_stride3_valid_conv_matches_reference() {
        let spec = ConvSpec {
            co: 2,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 3,
            padding: 0,
            dilation: 1,
            groups: 1,
        };
        check_conv_plain(2, 9, 9, spec, 256, 3);
    }

    #[test]
    fn plain_dilated_conv_matches_reference() {
        let spec = ConvSpec {
            co: 3,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 2,
            dilation: 2,
            groups: 1,
        };
        check_conv_plain(2, 8, 8, spec, 256, 4);
    }

    #[test]
    fn plain_grouped_conv_matches_reference() {
        let spec = ConvSpec {
            co: 8,
            ci: 8,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 4,
        };
        check_conv_plain(8, 6, 6, spec, 512, 5);
    }

    #[test]
    fn plain_depthwise_strided_matches_reference() {
        let spec = ConvSpec {
            co: 4,
            ci: 4,
            kh: 3,
            kw: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 4,
        };
        check_conv_plain(4, 8, 8, spec, 512, 6);
    }

    #[test]
    fn plain_multi_block_conv_matches_reference() {
        // Input spans 2 ciphertexts, output spans 2.
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
        check_conv_plain(8, 8, 8, spec, 256, 7);
    }

    #[test]
    fn plain_1x1_downsample_matches_reference() {
        // ResNet shortcut: 1×1 stride-2.
        let spec = ConvSpec {
            co: 8,
            ci: 4,
            kh: 1,
            kw: 1,
            stride: 2,
            padding: 0,
            dilation: 1,
            groups: 1,
        };
        check_conv_plain(4, 8, 8, spec, 256, 8);
    }

    #[test]
    fn plain_cascaded_strided_convs_match_reference() {
        // Two strided convolutions back to back: the multiplexed layout of
        // the first output (t = 2) feeds the second (t = 4).
        let mut rng = StdRng::seed_from_u64(9);
        let in_l = TensorLayout::raster(2, 8, 8);
        let s1 = ConvSpec {
            co: 4,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let s2 = ConvSpec {
            co: 8,
            ci: 4,
            kh: 3,
            kw: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let input = random_tensor(&[2, 8, 8], &mut rng);
        let w1 = random_tensor(&[4, 2, 3, 3], &mut rng);
        let w2 = random_tensor(&[8, 4, 3, 3], &mut rng);
        let slots = 256;
        let (p1, l1) = conv_plan(&in_l, &s1, slots);
        let (p2, l2) = conv_plan(&l1, &s2, slots);
        let src1 = ConvDiagSource {
            in_l,
            out_l: l1,
            spec: s1,
            weights: &w1,
        };
        let src2 = ConvDiagSource {
            in_l: l1,
            out_l: l2,
            spec: s2,
            weights: &w2,
        };
        let packed = in_l.pack(input.data());
        let mut blocks = vec![vec![0.0; slots]; p1.in_blocks];
        for (i, &v) in packed.iter().enumerate() {
            blocks[i / slots][i % slots] = v;
        }
        let mid = exec_plain(&p1, &src1, None, &blocks);
        let out = exec_plain(&p2, &src2, None, &mid);
        let mut out_slots = Vec::new();
        for b in &out {
            out_slots.extend_from_slice(b);
        }
        let got = l2.unpack(&out_slots);
        let params = |s: &ConvSpec| Conv2dParams {
            stride: s.stride,
            padding: s.padding,
            dilation: s.dilation,
            groups: s.groups,
        };
        let expect = conv2d(
            &conv2d(&input, &w1, &[], params(&s1)),
            &w2,
            &[],
            params(&s2),
        );
        for (a, b) in got.iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn plain_dense_matches_reference() {
        let mut rng = StdRng::seed_from_u64(10);
        let in_l = TensorLayout {
            c: 8,
            h: 2,
            w: 2,
            t: 2,
        }; // multiplexed input
        let n_out = 10;
        let w = random_tensor(&[n_out, 32], &mut rng);
        let input: Vec<f64> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let slots = 64;
        let (plan, _) = dense_plan(&in_l, n_out, slots);
        let src = DenseDiagSource::new(w.clone(), &in_l);
        let packed = in_l.pack(&input);
        let mut blocks = vec![vec![0.0; slots]; plan.in_blocks];
        for (i, &v) in packed.iter().enumerate() {
            blocks[i / slots][i % slots] = v;
        }
        let out = exec_plain(&plan, &src, None, &blocks);
        let expect = linear(&input, &w, &[]);
        for (i, e) in expect.iter().enumerate() {
            assert!(
                (out[0][i] - e).abs() < 1e-9,
                "row {i}: {} vs {e}",
                out[0][i]
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The hybrid embedding computes the layer under **every**
        /// admissible row fold: `exec_plain` equals the reference on the
        /// layout slots, and each full output block, bias included, is the
        /// `R`-periodic extension of its first `R` slots (zero in rows
        /// `n_out..R`).
        #[test]
        fn dense_matches_reference_under_every_fold(
            n_out in 1usize..40,
            c in 1usize..7,
            h in 1usize..5,
            w in 1usize..5,
            log_t in 0u32..3,
            log_slots in 3u32..8,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let in_l = TensorLayout { c, h, w, t: 1 << log_t };
            let slots = 1usize << log_slots;
            let n_feat = c * h * w;
            let weights = random_tensor(&[n_out, n_feat], &mut rng);
            let bias: Vec<f64> = (0..n_out).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let input: Vec<f64> = (0..n_feat).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let expect = linear(&input, &weights, &bias);
            let src = DenseDiagSource::new(weights, &in_l);
            let bias_blocks = BiasValues::dense(n_out, &bias, slots);
            let mut blocks = vec![vec![0.0; slots]; in_l.num_ciphertexts(slots)];
            for (i, &v) in in_l.pack(&input).iter().enumerate() {
                blocks[i / slots][i % slots] = v;
            }
            for (_, plan) in dense_candidates(&in_l, n_out, slots) {
                let fold = plan.fold;
                let out = exec_plain(&plan, &src, Some(&bias_blocks), &blocks);
                prop_assert_eq!(out.len(), bias_blocks.len());
                for (b, block) in out.iter().enumerate() {
                    for t in 0..slots {
                        let row = b * slots + t % fold;
                        let want = if row < n_out { expect[row] } else { 0.0 };
                        let got = block[t];
                        prop_assert!(
                            (got - want).abs() < 1e-9,
                            "fold {} n1 {} block {} slot {}: {} vs {}", fold, plan.n1, b, t, got, want
                        );
                    }
                }
            }
        }
    }

    /// The headline single-shot claim, on real FHE: a stride-2 convolution
    /// consumes exactly ONE level and matches the reference.
    #[test]
    fn fhe_strided_conv_one_level() {
        let ctx = Context::new(CkksParams::tiny());
        let slots = ctx.slots(); // 512
        let mut rng = StdRng::seed_from_u64(11);
        let in_l = TensorLayout::raster(2, 8, 8);
        let spec = ConvSpec {
            co: 4,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let input = random_tensor(&[2, 8, 8], &mut rng);
        let weights = random_tensor(&[4, 2, 3, 3], &mut rng);
        let bias = vec![0.1, -0.2, 0.3, 0.05];
        let (plan, out_l) = conv_plan(&in_l, &spec, slots);
        assert_eq!(plan.in_blocks, 1);

        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(12));
        let pk = std::sync::Arc::new(kg.gen_public_key());
        let keys = std::sync::Arc::new(kg.gen_eval_keys(&plan.rotation_steps()));
        let sk = kg.secret_key();
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::with_public_key(ctx.clone(), pk);
        let dec = Decryptor::new(ctx.clone(), sk);
        let eval = Evaluator::new(ctx.clone(), keys);

        let packed = in_l.pack(input.data());
        let level = 2;
        let ct = encryptor.encrypt(&enc.encode(&packed, ctx.scale(), level, false), &mut rng);
        let src = ConvDiagSource {
            in_l,
            out_l,
            spec,
            weights: &weights,
        };
        let bias_blocks = BiasValues::conv(&out_l, &bias, slots);
        let fhe_ctx = FheLinearContext {
            eval: &eval,
            enc: &enc,
        };
        let out = exec_fhe(&fhe_ctx, &plan, &src, Some(&bias_blocks), &[ct]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].level(), level - 1, "single-shot: exactly one level");
        assert_eq!(out[0].scale, ctx.scale(), "errorless: scale returns to Δ");

        let got_slots = enc.decode(&dec.decrypt(&out[0]));
        let got = out_l.unpack(&got_slots);
        let p = Conv2dParams {
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let expect = conv2d(&input, &weights, &bias, p);
        for (i, (a, b)) in got.iter().zip(expect.data()).enumerate() {
            assert!((a - b).abs() < 1e-2, "slot {i}: {a} vs {b}");
        }
    }

    /// Keys for `steps`, an encryptor and a decryptor on `ctx`.
    fn fhe_setup(
        ctx: &std::sync::Arc<Context>,
        steps: &[isize],
        seed: u64,
    ) -> (Encoder, Encryptor, Decryptor, Evaluator) {
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(seed));
        let pk = std::sync::Arc::new(kg.gen_public_key());
        let keys = std::sync::Arc::new(kg.gen_eval_keys(steps));
        let sk = kg.secret_key();
        (
            Encoder::new(ctx.clone()),
            Encryptor::with_public_key(ctx.clone(), pk),
            Decryptor::new(ctx.clone(), sk),
            Evaluator::new(ctx.clone(), keys),
        )
    }

    /// `packed` split into ciphertext blocks and encrypted at `level`.
    fn encrypt_blocks(
        ctx: &Context,
        enc: &Encoder,
        encryptor: &Encryptor,
        packed: &[f64],
        blocks: usize,
        level: usize,
        rng: &mut StdRng,
    ) -> Vec<Ciphertext> {
        let slots = ctx.slots();
        (0..blocks)
            .map(|b| {
                let lo = (b * slots).min(packed.len());
                let hi = ((b + 1) * slots).min(packed.len());
                encryptor.encrypt(&enc.encode(&packed[lo..hi], ctx.scale(), level, false), rng)
            })
            .collect()
    }

    /// The ablation path — the one ciphertext implementation independent
    /// of `exec_bsgs` — must compute the same function on every slot of
    /// every output block, at the same level and scale.
    fn check_unhoisted_matches_hoisted(
        plan: &LinearPlan,
        src: &(dyn DiagSource + Sync),
        packed: &[f64],
        seed: u64,
    ) {
        let ctx = Context::new(CkksParams::tiny());
        let mut rng = StdRng::seed_from_u64(seed);
        let (enc, encryptor, dec, eval) = fhe_setup(&ctx, &plan.rotation_steps(), seed + 1);
        let cts = encrypt_blocks(&ctx, &enc, &encryptor, packed, plan.in_blocks, 2, &mut rng);
        let fhe_ctx = FheLinearContext {
            eval: &eval,
            enc: &enc,
        };
        let hoisted = exec_fhe(&fhe_ctx, plan, src, None, &cts);
        let unhoisted = exec_fhe_unhoisted(&fhe_ctx, plan, src, &cts);
        assert_eq!(hoisted.len(), plan.out_blocks);
        assert_eq!(unhoisted.len(), plan.out_blocks);
        for (blk, (h, u)) in hoisted.iter().zip(&unhoisted).enumerate() {
            assert_eq!(h.level(), u.level(), "block {blk}: level");
            assert_eq!(h.scale, u.scale, "block {blk}: scale");
            let a = enc.decode(&dec.decrypt(h));
            let b = enc.decode(&dec.decrypt(u));
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert!((x - y).abs() < 2e-2, "block {blk} slot {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn fhe_unhoisted_matches_hoisted() {
        let slots = Context::new(CkksParams::tiny()).slots();
        let mut rng = StdRng::seed_from_u64(21);
        // single-block 3×3 conv
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
        let input = random_tensor(&[2, 8, 8], &mut rng);
        let weights = random_tensor(&[2, 2, 3, 3], &mut rng);
        let (plan, out_l) = conv_plan(&in_l, &spec, slots);
        let src = ConvDiagSource {
            in_l,
            out_l,
            spec,
            weights: &weights,
        };
        check_unhoisted_matches_hoisted(&plan, &src, &in_l.pack(input.data()), 22);

        // 3×3 conv spanning two input and two output ciphertexts
        let in_l = TensorLayout::raster(4, 16, 16);
        let spec = ConvSpec {
            co: 4,
            ci: 4,
            ..spec
        };
        let input = random_tensor(&[4, 16, 16], &mut rng);
        let weights = random_tensor(&[4, 4, 3, 3], &mut rng);
        let (plan, out_l) = conv_plan(&in_l, &spec, slots);
        assert!(plan.in_blocks > 1 && plan.out_blocks > 1);
        let src = ConvDiagSource {
            in_l,
            out_l,
            spec,
            weights: &weights,
        };
        check_unhoisted_matches_hoisted(&plan, &src, &in_l.pack(input.data()), 24);

        // row-folded dense layer: the fold's rotate-and-sum tail included
        let in_l = TensorLayout::raster(16, 4, 4);
        let weights = random_tensor(&[10, 256], &mut rng);
        let input: Vec<f64> = (0..256).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (plan, _) = dense_plan(&in_l, 10, slots);
        assert!(plan.fold < slots, "want a folded plan");
        let src = DenseDiagSource::new(weights, &in_l);
        check_unhoisted_matches_hoisted(&plan, &src, &in_l.pack(&input), 26);
    }

    /// An FNV-style fold of 64-bit words.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        (words.into_iter()).fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// [`fnv`] of every limb word and the scale of each output.
    fn ct_digest(cts: &[Ciphertext]) -> u64 {
        fnv(cts.iter().flat_map(|ct| {
            let limbs = ct.c0.limbs.iter().chain(&ct.c1.limbs).flatten().copied();
            limbs.chain([ct.scale.to_bits()])
        }))
    }

    /// Every diagonal of a plan drawn from one seed, the one at index
    /// `zero` left all-zero (`None`).
    struct SeededDiags {
        seed: u64,
        zero: usize,
    }

    impl DiagSource for SeededDiags {
        fn diagonals(&self, plan: &LinearPlan) -> Vec<Option<Vec<f64>>> {
            let mut rng = StdRng::seed_from_u64(self.seed);
            (0..plan.counts.pmults)
                .map(|d| {
                    let v: Vec<f64> = (0..plan.slots).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    (d != self.zero).then_some(v)
                })
                .collect()
        }
    }

    /// The digests of `exec_fhe` (the pool's width) and of the streamed
    /// body at one and at three chunks, on `plan` at `CkksParams::tiny()`,
    /// keys, inputs and encryption all seeded from `seed`; and the digest
    /// of `exec_plain`'s output bits on the same input slots.
    fn bsgs_digests(
        plan: &LinearPlan,
        src: &(dyn DiagSource + Sync),
        bias: Option<&[Vec<f64>]>,
        seed: u64,
    ) -> ([u64; 3], u64) {
        let ctx = Context::new(CkksParams::tiny());
        let mut rng = StdRng::seed_from_u64(seed);
        let packed: Vec<f64> = (0..plan.in_blocks * plan.slots)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let blocks: Vec<Vec<f64>> = packed.chunks(plan.slots).map(<[f64]>::to_vec).collect();
        let plain = exec_plain(plan, src, bias, &blocks);
        let (enc, encryptor, _, eval) = fhe_setup(&ctx, &plan.rotation_steps(), seed + 1);
        let cts = encrypt_blocks(&ctx, &enc, &encryptor, &packed, plan.in_blocks, 2, &mut rng);
        let fhe_ctx = FheLinearContext {
            eval: &eval,
            enc: &enc,
        };
        let prepared = PreparedLayer::build(&enc, plan, src, bias, 2);
        let fhe = [
            ct_digest(&exec_fhe(&fhe_ctx, plan, src, bias, &cts)),
            ct_digest(&exec_streamed(&fhe_ctx, plan, &prepared, &cts, 1)),
            ct_digest(&exec_streamed(&fhe_ctx, plan, &prepared, &cts, 3)),
        ];
        (fhe, fnv(plain.iter().flatten().map(|x| x.to_bits())))
    }

    /// `exec_bsgs`'s output bits, pinned by digest on four plans: a 3×3
    /// conv spanning two input and two output blocks, a row-folded dense
    /// layer with bias, a plan whose input block 0 has only `i = 0`
    /// diagonals (one diagonal all-zero), and a one-block plan with no
    /// hoist at all. The first three digests were re-recorded when key
    /// switching became hybrid (two digits of α(2) = 2 limbs on `tiny`),
    /// with `hoist`'s accumulator held to its strict reference at every
    /// level; the fourth, which switches no key, was recorded from the
    /// accumulator that summed rotation-by-0 terms in separate base-basis
    /// lanes. The streamed body reproduces them at every chunk count. The
    /// cleartext oracle's output bits are pinned beside them: recorded from
    /// the `exec_plain` that pre-rotated its inputs into a table and walked
    /// each output block's diagonals, bias added by its caller.
    #[test]
    fn fhe_bsgs_output_bits_are_pinned() {
        let slots = Context::new(CkksParams::tiny()).slots();
        let mut rng = StdRng::seed_from_u64(41);
        let in_l = TensorLayout::raster(4, 16, 16);
        let spec = ConvSpec {
            co: 4,
            ci: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let weights = random_tensor(&[4, 4, 3, 3], &mut rng);
        let (conv, out_l) = conv_plan(&in_l, &spec, slots);
        assert!(conv.in_blocks == 2 && conv.out_blocks == 2);
        let conv_src = ConvDiagSource {
            in_l,
            out_l,
            spec,
            weights: &weights,
        };

        let in_l = TensorLayout::raster(16, 4, 4);
        let (dense, _) = dense_plan(&in_l, 10, slots);
        assert!(dense.fold < slots, "want a folded plan");
        let dense_src = DenseDiagSource::new(random_tensor(&[10, 256], &mut rng), &in_l);
        let bias: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bias = BiasValues::dense(10, &bias, slots);

        let mut b = PlanBuilder::new(slots, 2, 1);
        b.add_segment(0, 0, 1, slots);
        b.add_segment(0, slots as i64 + 1, 1, 8);
        b.add_segment(0, slots as i64 + 3, 1, 8);
        let identity_block = b.finish();
        assert_eq!(identity_block.counts.hoists, 1);
        let seeded = SeededDiags { seed: 43, zero: 1 };

        // one input block, diagonal 0 of two output blocks: no hoist, and
        // each group holds one rotation-by-0 term
        let mut b = PlanBuilder::new(slots, 1, 2);
        b.add_segment(0, 0, 1, slots);
        b.add_segment(slots, -(slots as i64), 1, slots);
        let unhoisted = b.finish();
        assert_eq!(unhoisted.counts.hoists, 0);
        assert!(unhoisted.counts.moddowns > 1, "{:?}", unhoisted.counts);
        let unhoisted_src = SeededDiags {
            seed: 47,
            zero: usize::MAX,
        };

        let cases = [
            (
                "conv",
                bsgs_digests(&conv, &conv_src, None, 44),
                0xe931_12c6_e425_b83b,
                0xcb37_3e54_0817_ff13,
            ),
            (
                "dense",
                bsgs_digests(&dense, &dense_src, Some(&bias), 45),
                0x71c7_0238_d175_ccc3,
                0xc4f3_d02e_a4db_dca5,
            ),
            (
                "identity block",
                bsgs_digests(&identity_block, &seeded, None, 46),
                0xccec_a018_7c7c_9d4b,
                0x164a_9829_dd25_c3e1,
            ),
            (
                "no hoist",
                bsgs_digests(&unhoisted, &unhoisted_src, None, 48),
                0x0989_a405_be3d_ae79,
                0x7296_fea7_3ab8_74bb,
            ),
        ];
        for (name, (fhe, plain), want, want_plain) in cases {
            assert_eq!(
                fhe, [want; 3],
                "{name}: pool width, one chunk, three chunks"
            );
            assert_eq!(plain, want_plain, "{name}: exec_plain");
        }
    }

    /// Every count of a plan is what its schedule walks: one plaintext
    /// product per term, one hoisted rotation per step with `i ≠ 0`, one
    /// ModDown per group, one giant rotation per group with `j ≠ 0` plus
    /// each output block's fold steps, one rescale per output block — and
    /// what the streamed body executes for the layer's hoist, one digit
    /// decomposition per input block with a non-zero baby step. Every
    /// diagonal is a term.
    fn check_private_hoist_matches_counts(plan: &LinearPlan) {
        let ctx = Context::new(CkksParams::tiny());
        let (enc, encryptor, _, eval) = fhe_setup(&ctx, &[], 31);
        let zeros = vec![0.0; plan.in_blocks * plan.slots];
        let mut rng = StdRng::seed_from_u64(32);
        let cts = encrypt_blocks(&ctx, &enc, &encryptor, &zeros, plan.in_blocks, 1, &mut rng);
        let fhe_ctx = FheLinearContext {
            eval: &eval,
            enc: &enc,
        };
        let units = vec![Some(()); plan.counts.pmults];
        let steps = baby_steps(plan, &units);
        let terms = || steps.iter().flat_map(|(_, terms)| terms);
        let groups: BTreeSet<(u32, usize)> = terms().map(|&(group, _)| group).collect();
        let walked = PlanCounts {
            hoists: hoist(&fhe_ctx, &cts, &steps).iter().flatten().count(),
            baby_rots: steps.iter().filter(|&&((_, i), _)| i != 0).count(),
            giant_rots: groups.iter().filter(|&&(_, j)| j != 0).count()
                + plan.out_blocks * plan.fold_steps().count(),
            pmults: terms().count(),
            moddowns: groups.len(),
            rescales: plan.out_blocks,
        };
        assert_eq!(walked, plan.counts, "{plan:?}");
        assert_eq!(walked.baby_rots == 0, walked.hoists == 0);
    }

    #[test]
    fn private_hoist_skips_blocks_without_baby_steps() {
        let slots = Context::new(CkksParams::tiny()).slots();
        // input block 0 touches only diagonal 0 (k % n1 == 0 under every
        // split); block 1 carries the baby steps
        let mut b = PlanBuilder::new(slots, 2, 1);
        b.add_segment(0, 0, 1, slots);
        b.add_segment(0, slots as i64 + 1, 1, 8);
        b.add_segment(0, slots as i64 + 3, 1, 8);
        let plan = b.finish();
        assert_eq!(plan.in_blocks, 2);
        assert_eq!(plan.counts.hoists, 1, "only block 1 rotates");
        check_private_hoist_matches_counts(&plan);

        // no non-zero baby step at all: empty table, zero decompositions
        let mut b = PlanBuilder::new(slots, 1, 1);
        b.add_segment(0, 0, 1, slots);
        let plan = b.finish();
        assert_eq!((plan.counts.hoists, plan.counts.baby_rots), (0, 0));
        check_private_hoist_matches_counts(&plan);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn private_hoist_matches_plan_counts(
            c in 1usize..9,
            log_hw in 2u32..5,
            co in 1usize..9,
            k in 0usize..2,
            stride in 1usize..3,
            n_out in 1usize..40,
        ) {
            let slots = Context::new(CkksParams::tiny()).slots();
            let hw = 1usize << log_hw;
            let in_l = TensorLayout::raster(c, hw, hw);
            let spec = ConvSpec {
                co,
                ci: c,
                kh: 2 * k + 1,
                kw: 2 * k + 1,
                stride,
                padding: k,
                dilation: 1,
                groups: 1,
            };
            check_private_hoist_matches_counts(&conv_plan(&in_l, &spec, slots).0);
            check_private_hoist_matches_counts(&dense_plan(&in_l, n_out, slots).0);
        }
    }

    #[test]
    fn fhe_dense_layer_matches_reference() {
        let ctx = Context::new(CkksParams::tiny());
        let slots = ctx.slots();
        let mut rng = StdRng::seed_from_u64(13);
        let in_l = TensorLayout::raster(16, 4, 4); // 256 features
        let n_out = 10;
        let w = random_tensor(&[n_out, 256], &mut rng);
        let input: Vec<f64> = (0..256).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (plan, _) = dense_plan(&in_l, n_out, slots);
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(14));
        let pk = std::sync::Arc::new(kg.gen_public_key());
        let keys = std::sync::Arc::new(kg.gen_eval_keys(&plan.rotation_steps()));
        let sk = kg.secret_key();
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::with_public_key(ctx.clone(), pk);
        let dec = Decryptor::new(ctx.clone(), sk);
        let eval = Evaluator::new(ctx.clone(), keys);
        let packed = in_l.pack(&input);
        let ct = encryptor.encrypt(&enc.encode(&packed, ctx.scale(), 1, false), &mut rng);
        let src = DenseDiagSource::new(w.clone(), &in_l);
        let fhe_ctx = FheLinearContext {
            eval: &eval,
            enc: &enc,
        };
        let bias: Vec<f64> = (0..n_out).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let bias_blocks = BiasValues::dense(n_out, &bias, slots);
        let out = exec_fhe(&fhe_ctx, &plan, &src, Some(&bias_blocks), &[ct]);
        let got = enc.decode(&dec.decrypt(&out[0]));
        let expect = linear(&input, &w, &bias);
        // 256 → 10 at S = 512 folds: the whole block is R-periodic, bias
        // included, with zeros in rows n_out..R.
        assert!(plan.fold < slots);
        for (t, g) in got.iter().enumerate() {
            let e = expect.get(t % plan.fold).copied().unwrap_or(0.0);
            assert!((g - e).abs() < 5e-2, "slot {t}: {g} vs {e}");
        }
    }
}
