//! Diagonal-structure planning for packed linear layers.
//!
//! A plan records, for every `(output block, input block)` ciphertext pair,
//! the set of non-zero generalized diagonals of the (row-permuted) Toeplitz
//! matrix, plus the BSGS split that minimizes ciphertext rotations. Plans
//! are built **without materializing the matrix**: under the multiplexed
//! layout the slot-index difference between an output row and the input
//! column it reads is constant along each row segment (paper §4), and
//! along a whole kernel tap when the input and output base grids are
//! equally wide, so [`conv_plan`] records most taps as one bit of a
//! per-block-pair bitset — `O(c_o·c_i·k_h·k_w)` work — and walks only the
//! rest as `O(c_o·c_i·k_h·k_w·h_o)` row segments. [`dense_plan`] adds each
//! block as one cyclic interval of diagonals per row fold. One split
//! chooser, [`PlanBuilder::finish`], ranks both by one bitset pass.
//!
//! Planning every linear layer at paper parameters (2-vCPU Xeon, AVX2,
//! best of 5): resnet20 / mobilenet / resnet110 take 12 / 123 / 73 ms,
//! against 204 / 823 / 1212 ms when every row segment went into a
//! `BTreeSet`. Every tap of those networks takes the one-bit path.
//! ResNet-50 takes 4.9 s (22.9 s before): its taps span several blocks
//! and still walk rows. A zoo dense layer takes 0.07–2.4 ms, every fold
//! counted, and yolo_v1's `head.fc1` (seven input blocks) 39 ms.

use crate::layout::TensorLayout;
use orion_tensor::Conv2dParams;
use std::collections::{BTreeMap, BTreeSet};

/// Convolution hyper-parameters for planning (mirrors
/// `orion_tensor::Conv2dParams` plus channel counts).
#[derive(Clone, Copy, Debug)]
pub struct ConvSpec {
    /// Output channels.
    pub co: usize,
    /// Input channels.
    pub ci: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Dilation.
    pub dilation: usize,
    /// Channel groups.
    pub groups: usize,
}

impl ConvSpec {
    /// Output `(h, w)` for an input `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let p = Conv2dParams {
            stride: self.stride,
            padding: self.padding,
            dilation: self.dilation,
            groups: self.groups,
        };
        (
            p.out_size("convolution", h, self.kh),
            p.out_size("convolution", w, self.kw),
        )
    }
}

/// Operation counts of a plan: the op list of the layer's plan unit, priced
/// per kind by the compiler's cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCounts {
    /// Digit decompositions (one per input ciphertext that rotates).
    pub hoists: usize,
    /// Hoisted baby-step rotations.
    pub baby_rots: usize,
    /// Full rotations (`HRot`): one per non-zero giant step of every output
    /// block, plus the row fold's `log₂(S/R)` rotate-and-sum steps.
    pub giant_rots: usize,
    /// Plaintext multiplications (one per non-zero block diagonal).
    pub pmults: usize,
    /// Deferred ModDowns (one per giant-step group).
    pub moddowns: usize,
    /// Rescales (one per output ciphertext).
    pub rescales: usize,
}

impl PlanCounts {
    /// Total ciphertext rotations (the paper's "# Rots" accounting).
    pub fn rotations(&self) -> usize {
        self.baby_rots + self.giant_rots
    }

    /// Key-switch digit decompositions the executor performs: one hoist
    /// per rotating input block, plus one *fresh* decomposition inside
    /// every giant-step or fold rotation (a full `HRot` — its key-switch
    /// cannot reuse the input's hoisted digits). This is the quantity the
    /// hoisting-aware split chooser drives down.
    pub fn decompositions(&self) -> usize {
        self.hoists + self.giant_rots
    }
}

/// The packed evaluation plan of one linear layer.
#[derive(Clone, Debug)]
pub struct LinearPlan {
    /// Slots per ciphertext.
    pub slots: usize,
    /// Input ciphertext count.
    pub in_blocks: usize,
    /// Output ciphertext count.
    pub out_blocks: usize,
    /// Baby-step size of the BSGS split.
    pub n1: usize,
    /// Row fold `R` (divides `slots`). `R = slots` is the plain diagonal
    /// embedding; a dense layer with `R < slots` embeds its rows with
    /// period `R` (see [`dense_plan`]), so the BSGS leaves partial sums
    /// that [`LinearPlan::fold_steps`] rotate-and-sum into an `R`-periodic
    /// output block.
    pub fold: usize,
    /// `(out_block, in_block) → sorted non-zero diagonal indices`.
    pub blocks: BTreeMap<(u32, u32), Vec<u32>>,
    /// Operation counts under the chosen split.
    pub counts: PlanCounts,
}

impl LinearPlan {
    /// Every diagonal as `(out_block, in_block, k)`, in `blocks` order:
    /// block pairs ascending, then `k` ascending. This is the one order of
    /// a layer's diagonal values ([`crate::values::DiagSource`]), its
    /// encoded plaintexts and its spill file; its length is
    /// `counts.pmults`.
    pub fn diagonals(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (self.blocks.iter()).flat_map(|(&(i, j), ks)| ks.iter().map(move |&k| (i, j, k)))
    }

    /// The fold's rotate-and-sum steps `S/2, S/4, …, R`, in execution
    /// order: after `ct += HRot(ct, s)` for each, slot `t` holds the sum of
    /// the `S/R` partial sums at `t + m·R`. Empty when `R = S`.
    pub fn fold_steps(&self) -> impl Iterator<Item = usize> {
        let fold = self.fold;
        std::iter::successors(Some(self.slots / 2), |s| Some(s / 2)).take_while(move |&s| s >= fold)
    }

    /// Extends the first `R` slots of an output-block vector with period
    /// `R` — the shape of every folded output block, so the bias must have
    /// it too or the copies would hold "output without bias". The identity
    /// when `R = S`.
    pub fn periodic(&self, block: &[f64]) -> Vec<f64> {
        (0..self.slots).map(|t| block[t % self.fold]).collect()
    }

    /// Every rotation step the executor will perform (for rotation-key
    /// generation): baby steps `i`, giant steps `j·n1` and the fold steps.
    pub fn rotation_steps(&self) -> Vec<isize> {
        let mut steps: BTreeSet<isize> = self.fold_steps().map(|s| s as isize).collect();
        for (_, _, k) in self.diagonals() {
            let (i, j) = (k as usize % self.n1, k as usize / self.n1);
            if i != 0 {
                steps.insert(i as isize);
            }
            if j != 0 {
                steps.insert((j * self.n1) as isize);
            }
        }
        steps.into_iter().collect()
    }
}

/// A fixed-length bit set over `0..len`: a block pair's diagonals, or one
/// split's baby or giant steps.
#[derive(Clone)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(len: usize) -> Self {
        Bits(vec![0; len.div_ceil(64)])
    }

    /// Sets bit `k`; true when it was clear.
    fn insert(&mut self, k: usize) -> bool {
        let (word, mask) = (&mut self.0[k / 64], 1u64 << (k % 64));
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// The set bits, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &w)| {
            let nonzero = |w: u64| (w != 0).then_some(w);
            std::iter::successors(nonzero(w), move |&w| nonzero(w & (w - 1)))
                .map(move |w| i * 64 + w.trailing_zeros() as usize)
        })
    }
}

/// Splits a run of `count` matrix entries — the first at `(row, row+delta)`,
/// each next `step` slots further along both — at ciphertext-block
/// boundaries: `f(out_block, in_block, diagonal, first row's slot in its
/// block, entries)` once per piece, in order.
pub(crate) fn for_each_block_run<F>(
    slots: usize,
    mut row: usize,
    delta: i64,
    step: usize,
    mut count: usize,
    mut f: F,
) where
    F: FnMut(usize, usize, usize, usize, usize),
{
    while count > 0 {
        let col = (row as i64 + delta) as usize;
        let r0 = row % slots;
        let c0 = col % slots;
        // steps until row or col crosses into the next block
        let sr = (slots - 1 - r0) / step + 1;
        let sc = (slots - 1 - c0) / step + 1;
        let take = count.min(sr).min(sc);
        let k = (c0 + slots - r0) % slots;
        f(row / slots, col / slots, k, r0, take);
        row += take * step;
        count -= take;
    }
}

/// Builds a layer's diagonal structure and chooses the BSGS split.
///
/// Each `(output block, input block)` pair holds its diagonals as one
/// `S`-bit set (diagonal `k` is bit `k`), allocated on the pair's first
/// diagonal, so recording a diagonal is one bit write wherever it comes
/// from: [`conv_plan`] adds most convolution taps as one diagonal and
/// walks the rest row by row ([`Self::add_segment`]); [`dense_plan`] adds
/// each block's band, once per row fold. [`Self::finish`] reads the sorted
/// diagonal lists off the bits.
pub struct PlanBuilder {
    slots: usize,
    in_blocks: usize,
    out_blocks: usize,
    /// Indexed `out_block · in_blocks + in_block`; `None` until the pair
    /// gets a diagonal.
    blocks: Vec<Option<Bits>>,
}

impl PlanBuilder {
    /// An empty structure of `out_blocks × in_blocks` ciphertext pairs of
    /// `slots` slots each.
    pub fn new(slots: usize, in_blocks: usize, out_blocks: usize) -> Self {
        PlanBuilder {
            slots,
            in_blocks,
            out_blocks,
            blocks: vec![None; in_blocks * out_blocks],
        }
    }

    /// Records diagonal `k < slots` of block pair `(i_blk, j_blk)`.
    fn add_diagonal(&mut self, i_blk: usize, j_blk: usize, k: usize) {
        let slots = self.slots;
        assert!(k < slots, "diagonal {k} of a {slots}-slot block");
        self.blocks[i_blk * self.in_blocks + j_blk]
            .get_or_insert_with(|| Bits::new(slots))
            .insert(k);
    }

    /// Records a run of `count` matrix entries starting at `(row, row+delta)`
    /// advancing by `step` slots per entry, splitting at ciphertext-block
    /// boundaries.
    pub fn add_segment(&mut self, row: usize, delta: i64, step: usize, count: usize) {
        let slots = self.slots;
        for_each_block_run(slots, row, delta, step, count, |i, j, k, _, _| {
            self.add_diagonal(i, j, k)
        });
    }

    /// Weighted NTT-count proxies for the split chooser, per operation.
    /// A *giant* rotation is a full `HRot`: fresh digit decomposition +
    /// key inner product + two ModDowns — an order of magnitude more NTTs
    /// than a hoisted baby rotation (permutation + inner product against
    /// already-decomposed digits). `W_KEY` charges each distinct rotation
    /// step for its rotation key (generation time and resident memory), so
    /// dense layers with hundreds of diagonals keep a classic two-level
    /// BSGS instead of hoisting every diagonal into its own key. A PMult
    /// is `W_PMULT_NUM / W_PMULT_DEN` = 0.4 units: `ckks.mul_plain_ms`
    /// 0.058 against `ckks.hoisted_rotate_ms` 0.30 (= `W_BABY`) in the
    /// `lola_linear` ledger. It is constant across `n1` and separates
    /// candidates that differ in the row fold.
    const W_BABY: usize = 2;
    const W_GIANT: usize = 18;
    const W_MODDOWN: usize = 3;
    const W_HOIST: usize = 10;
    const W_KEY: usize = 2;
    const W_PMULT_NUM: usize = 2;
    const W_PMULT_DEN: usize = 5;

    /// Finishes the plan: reads each block pair's sorted diagonals off its
    /// bits, then chooses the power-of-two `n1` minimizing a
    /// key-switch-aware cost (not raw rotation count — giant-step
    /// rotations pay their hidden digit decompositions, so splits that
    /// hoist *all* rotations of a sparse layer win even with a few more
    /// total rotations), one `counts_for` pass per candidate. Ties
    /// prefer the smaller `n1`.
    pub fn finish(self) -> LinearPlan {
        let slots = self.slots;
        self.finish_folded(slots).1
    }

    /// [`Self::finish`] for rows folded with period `fold` (a power of two
    /// dividing `slots`, or `slots` itself): the candidates are `n1 ≤ fold`,
    /// and each also pays the fold's `log₂(S/R)` rotate-and-sum steps, one
    /// full rotation and one key per step. Returns the winner's cost too.
    fn finish_folded(self, fold: usize) -> (usize, LinearPlan) {
        let (slots, in_blocks, out_blocks) = (self.slots, self.in_blocks, self.out_blocks);
        let fold_steps = (slots / fold).trailing_zeros() as usize;
        let blocks: BTreeMap<(u32, u32), Vec<u32>> = (self.blocks.into_iter().enumerate())
            .filter_map(|(pair, bits)| {
                let key = ((pair / in_blocks) as u32, (pair % in_blocks) as u32);
                bits.map(|bits| (key, bits.iter().map(|k| k as u32).collect()))
            })
            .collect();
        let (cost, n1, counts) = std::iter::successors(Some(1usize), |n1| Some(n1 * 2))
            .take_while(|&n1| n1 <= fold)
            .map(|n1| {
                let (mut counts, keys) = Self::counts_for(&blocks, slots, n1, out_blocks);
                counts.giant_rots += fold_steps;
                (Self::weighted_cost(&counts, keys + fold_steps), n1, counts)
            })
            .min_by_key(|&(cost, ..)| cost)
            .expect("fold must be >= 1");
        let plan = LinearPlan {
            slots,
            in_blocks,
            out_blocks,
            n1,
            fold,
            blocks,
            counts,
        };
        (cost, plan)
    }

    /// The one cost every `(fold, n1)` candidate is ranked by; `keys` is
    /// the number of distinct rotation steps, fold steps included (as they
    /// are in `counts.giant_rots`: a fold step is a full `HRot` with a key
    /// of its own).
    fn weighted_cost(counts: &PlanCounts, keys: usize) -> usize {
        counts.hoists * Self::W_HOIST
            + counts.baby_rots * Self::W_BABY
            + counts.giant_rots * Self::W_GIANT
            + counts.moddowns * Self::W_MODDOWN
            + keys * Self::W_KEY
            + counts.pmults * Self::W_PMULT_NUM / Self::W_PMULT_DEN
    }

    /// The counts of split `n1` over diagonals `k < slots` (fold steps
    /// excluded), and its distinct rotation steps (= rotation keys), in
    /// one pass over the diagonal lists. Diagonal `k` is baby step
    /// `k mod n1` of its input block and giant step `⌊k/n1⌋` of its output
    /// block: each input block keeps an `n1`-bit set of its baby steps,
    /// the current output block (the lists arrive grouped by it) an
    /// `⌈S/n1⌉`-bit set of its giant steps, and two more sets of those
    /// sizes collect the steps that need keys.
    pub(crate) fn counts_for(
        blocks: &BTreeMap<(u32, u32), Vec<u32>>,
        slots: usize,
        n1: usize,
        out_blocks: usize,
    ) -> (PlanCounts, usize) {
        let in_blocks = blocks
            .keys()
            .map(|&(_, j)| j as usize + 1)
            .max()
            .unwrap_or(0);
        let giant_len = slots.div_ceil(n1);
        let mut babies = vec![Bits::new(n1); in_blocks];
        let mut giants = Bits::new(giant_len);
        let mut baby_keys = Bits::new(n1);
        let mut giant_keys = Bits::new(giant_len);
        let mut c = PlanCounts {
            rescales: out_blocks,
            ..PlanCounts::default()
        };
        let mut keys = 0;
        let mut current = None;
        for (&(i_blk, j_blk), diags) in blocks {
            if current.replace(i_blk) != Some(i_blk) {
                giants.clear();
            }
            c.pmults += diags.len();
            for &k in diags {
                let (i, j) = (k as usize % n1, k as usize / n1);
                if i != 0 {
                    c.baby_rots += usize::from(babies[j_blk as usize].insert(i));
                    keys += usize::from(baby_keys.insert(i));
                }
                if giants.insert(j) {
                    c.moddowns += 1;
                    c.giant_rots += usize::from(j != 0);
                }
                if j != 0 {
                    keys += usize::from(giant_keys.insert(j));
                }
            }
        }
        c.hoists = babies.iter().filter(|b| !b.is_empty()).count();
        (c, keys)
    }
}

/// One kernel tap `(co, ci, ky, kx)` of a convolution with a non-empty
/// footprint: output rows `oy_lo..=oy_hi`, each reading one row segment of
/// `count` entries from output column `ox_lo` (input column `ix0`).
struct ConvTap {
    co: usize,
    ci: usize,
    ky: usize,
    kx: usize,
    ox_lo: usize,
    ix0: usize,
    count: usize,
    oy_lo: usize,
    oy_hi: usize,
    /// Input row of output row 0: `iy = oy·stride + off_y`.
    off_y: isize,
}

impl ConvTap {
    /// `(row, delta)` of output row `oy`'s segment: its entries are
    /// `(row + m·t_out, row + m·t_out + delta)` for `m < count`.
    fn segment(
        &self,
        in_l: &TensorLayout,
        out_l: &TensorLayout,
        stride: usize,
        oy: usize,
    ) -> (usize, i64) {
        let iy = (oy * stride) as isize + self.off_y;
        let row = out_l.slot_of(self.co, oy, self.ox_lo);
        let col = in_l.slot_of(self.ci, iy as usize, self.ix0);
        (row, col as i64 - row as i64)
    }
}

/// The first and last output index `o` whose input index `o·s + off` lies
/// in `0..n`, capped at `n_out − 1`; `None` when there is none.
fn tap_range(off: isize, s: usize, n: usize, n_out: usize) -> Option<(usize, usize)> {
    let lo = if off < 0 {
        ((-off) as usize).div_ceil(s)
    } else {
        0
    };
    let hi = n as isize - 1 - off;
    if hi < 0 {
        return None;
    }
    let hi = ((hi as usize) / s).min(n_out - 1);
    (lo <= hi).then_some((lo, hi))
}

/// Calls `f` once per kernel tap whose footprint is not empty.
fn for_each_conv_tap<F>(in_l: &TensorLayout, out_l: &TensorLayout, spec: &ConvSpec, mut f: F)
where
    F: FnMut(&ConvTap),
{
    assert_eq!(
        out_l.t,
        in_l.t * spec.stride,
        "output gap must be stride × input gap"
    );
    assert_eq!(in_l.c, spec.ci);
    assert_eq!(out_l.c, spec.co);
    let co_per_g = spec.co / spec.groups;
    let ci_per_g = spec.ci / spec.groups;
    let s = spec.stride;
    let d = spec.dilation;
    let p = spec.padding as isize;
    for g in 0..spec.groups {
        for oc in 0..co_per_g {
            let co = g * co_per_g + oc;
            for ic in 0..ci_per_g {
                let ci = g * ci_per_g + ic;
                for ky in 0..spec.kh {
                    let off_y = (ky * d) as isize - p;
                    let Some((oy_lo, oy_hi)) = tap_range(off_y, s, in_l.h, out_l.h) else {
                        continue;
                    };
                    for kx in 0..spec.kw {
                        let off_x = (kx * d) as isize - p;
                        let Some((ox_lo, ox_hi)) = tap_range(off_x, s, in_l.w, out_l.w) else {
                            continue;
                        };
                        f(&ConvTap {
                            co,
                            ci,
                            ky,
                            kx,
                            ox_lo,
                            ix0: (ox_lo as isize * s as isize + off_x) as usize,
                            count: ox_hi - ox_lo + 1,
                            oy_lo,
                            oy_hi,
                            off_y,
                        });
                    }
                }
            }
        }
    }
}

/// Iterates the Toeplitz entries of a convolution as row segments:
/// `f(co, ci, ky, kx, row, delta, count)` where the segment's entries are
/// `(row + m·t_out, row + m·t_out + delta)` for `m < count`.
pub fn for_each_conv_segment<F>(
    in_l: &TensorLayout,
    out_l: &TensorLayout,
    spec: &ConvSpec,
    mut f: F,
) where
    F: FnMut(usize, usize, usize, usize, usize, i64, usize),
{
    for_each_conv_tap(in_l, out_l, spec, |tap| {
        for oy in tap.oy_lo..=tap.oy_hi {
            let (row, delta) = tap.segment(in_l, out_l, spec.stride, oy);
            f(tap.co, tap.ci, tap.ky, tap.kx, row, delta, tap.count);
        }
    });
}

/// Builds the single-shot multiplexed plan of a convolution; returns the
/// plan and the output layout. One multiplicative level, any stride.
///
/// The structure is built once per kernel tap, not once per output row.
/// A tap's slot offset `delta = col − row` is affine in `oy`, and constant
/// when the output and input base grids are equally wide — every
/// "same"-padded convolution, strided or not. A tap whose `delta` is
/// constant and whose rows stay in one output block and columns in one
/// input block adds exactly one diagonal, `delta mod S`, to that pair.
/// Every other tap ("valid" convolutions, taps crossing a block boundary)
/// walks its rows through [`PlanBuilder::add_segment`].
pub fn conv_plan(in_l: &TensorLayout, spec: &ConvSpec, slots: usize) -> (LinearPlan, TensorLayout) {
    let (ho, wo) = spec.out_hw(in_l.h, in_l.w);
    let out_l = in_l.after_conv(spec.co, ho, wo, spec.stride);
    let step = out_l.t;
    let mut b = PlanBuilder::new(
        slots,
        in_l.num_ciphertexts(slots),
        out_l.num_ciphertexts(slots),
    );
    for_each_conv_tap(in_l, &out_l, spec, |tap| {
        let segment = |oy| tap.segment(in_l, &out_l, spec.stride, oy);
        let span = ((tap.count - 1) * step) as i64;
        let (first, delta) = segment(tap.oy_lo);
        let (last, delta_hi) = segment(tap.oy_hi);
        let constant =
            delta == delta_hi && (tap.oy_lo == tap.oy_hi || segment(tap.oy_lo + 1).1 == delta);
        let (first, last) = (first as i64, last as i64 + span);
        let block = |slot: i64| slot as usize / slots;
        if constant && block(first) == block(last) && block(first + delta) == block(last + delta) {
            b.add_diagonal(
                block(first),
                block(first + delta),
                delta.rem_euclid(slots as i64) as usize,
            );
        } else {
            for oy in tap.oy_lo..=tap.oy_hi {
                let (row, delta) = segment(oy);
                b.add_segment(row, delta, step, tap.count);
            }
        }
    });
    (b.finish(), out_l)
}

/// Every admissible row fold of a dense layer with its cheapest split and
/// that split's cost, `R = S` first and each next fold half the last, down
/// to `n_out` (only `R = S` when `n_out > S`). One [`PlanBuilder`] per fold
/// holds each `rb × cb` block's band — the diagonals
/// `{(c − r) mod R : r < rb, c < cb}`, a cyclic interval of
/// `min(R, rb + cb − 1)` residues starting at `R − rb + 1` — over every
/// slot of the input layout, named or not.
pub(crate) fn dense_candidates(
    in_l: &TensorLayout,
    n_out: usize,
    slots: usize,
) -> impl Iterator<Item = (usize, LinearPlan)> {
    assert!(
        slots.is_power_of_two(),
        "a dense layer's slot count is a CKKS ring's N/2, a power of two"
    );
    let cols = in_l.total_slots();
    let (in_blocks, out_blocks) = (cols.div_ceil(slots), n_out.div_ceil(slots));
    std::iter::successors(Some(slots), |r| Some(r / 2))
        .take_while(move |&r| r >= n_out.min(slots))
        .map(move |fold| {
            let mut b = PlanBuilder::new(slots, in_blocks, out_blocks);
            for i in 0..out_blocks {
                let rb = slots.min(n_out - i * slots);
                for j in 0..in_blocks {
                    let cb = slots.min(cols - j * slots);
                    for m in 0..fold.min(rb + cb - 1) {
                        b.add_diagonal(i, j, (fold + 1 - rb + m) % fold);
                    }
                }
            }
            b.finish_folded(fold)
        })
}

/// Builds the plan of a dense fully-connected layer reading a (possibly
/// multiplexed) input layout, with the hybrid (row-folded) diagonal
/// embedding: for a row fold `R` (a power of two, `n_out ≤ R ≤ S`) the
/// layer's diagonals are `k ∈ 0..R` with
/// `d_k[t] = W[t mod R][col((t + k) mod S)]` over all `S` slots, the BSGS
/// runs over those, and `log₂(S/R)` rotate-and-sum steps
/// ([`LinearPlan::fold_steps`]) finish the product — `R` PMults instead of
/// `rows + cols − 1`. The one split chooser, [`PlanBuilder::finish`], ranks
/// every fold: each admissible fold gets a builder of its own, and the
/// cheapest fold wins, the larger one on a tie. `R = S` (no fold, the
/// zero-padded square block's `cols + rows − 1` diagonals) wins wherever
/// the fold's full rotations cost more than the PMults they save, and is
/// the only choice when `n_out > S`.
///
/// **Output contract:** the output block is exactly `R`-periodic — slot
/// `t` holds output `t mod R` (bias included), zero for `t mod R ≥ n_out`.
/// The returned layout names slots `0..n_out`; consumers read layout slots
/// only, which every linear layer does (its diagonals are zero at columns
/// the input layout does not name).
pub fn dense_plan(in_l: &TensorLayout, n_out: usize, slots: usize) -> (LinearPlan, TensorLayout) {
    // `min_by_key` keeps the first minimum: the larger fold on a tie
    let (_, plan) = dense_candidates(in_l, n_out, slots)
        .min_by_key(|&(cost, _)| cost)
        .expect("S is always admissible");
    (plan, TensorLayout::raster(n_out, 1, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn siso_same() -> (TensorLayout, ConvSpec) {
        (
            TensorLayout::raster(1, 8, 8),
            ConvSpec {
                co: 1,
                ci: 1,
                kh: 3,
                kw: 3,
                stride: 1,
                padding: 1,
                dilation: 1,
                groups: 1,
            },
        )
    }

    #[test]
    fn siso_same_conv_has_at_most_f_diagonals() {
        // Paper Figure 3: a same-style SISO 3×3 convolution has exactly
        // f_h·f_w = 9 generalized diagonals.
        let (l, spec) = siso_same();
        let (plan, out_l) = conv_plan(&l, &spec, 64);
        assert_eq!(out_l.h, 8);
        let total: usize = plan.blocks.values().map(|d| d.len()).sum();
        assert_eq!(total, 9);
        assert_eq!(plan.counts.rescales, 1);
    }

    #[test]
    fn bsgs_reduces_rotations_on_dense_matvec() {
        // Dense n×n in one block: diagonal method needs n−1 rotations; BSGS
        // stays O(√n) (paper §3.2). The key-switch-aware chooser may shift
        // the split one notch toward fewer giant steps, so allow 3√n.
        let n = 256;
        let (plan, _) = dense_plan(&TensorLayout::raster(n, 1, 1), n, n);
        assert!(plan.n1 > 1 && plan.n1 < n, "dense must keep a real split");
        let rots = plan.counts.rotations();
        assert!(rots <= 3 * ((n as f64).sqrt() as usize), "rots = {rots}");
        assert!(rots < n - 1);
        assert_eq!(plan.counts.pmults, n);
        // The chooser's whole point: fewer digit decompositions than the
        // raw rotation-minimizing split (n1 = 16 → 1 + 15 decompositions).
        assert!(
            plan.counts.decompositions() <= 16,
            "decompositions = {}",
            plan.counts.decompositions()
        );
    }

    /// A builder holding exactly `blocks`' diagonals.
    fn builder_of(
        blocks: &BTreeMap<(u32, u32), Vec<u32>>,
        slots: usize,
        in_blocks: usize,
        out_blocks: usize,
    ) -> PlanBuilder {
        let mut b = PlanBuilder::new(slots, in_blocks, out_blocks);
        for (&(i, j), diags) in blocks {
            for &k in diags {
                b.add_diagonal(i as usize, j as usize, k as usize);
            }
        }
        b
    }

    fn counts(hoists: usize, baby: usize, giant: usize, pmults: usize, md: usize) -> PlanCounts {
        PlanCounts {
            hoists,
            baby_rots: baby,
            giant_rots: giant,
            pmults,
            moddowns: md,
            rescales: 1,
        }
    }

    #[test]
    fn dense_keeps_the_unfolded_plan_where_folding_does_not_pay() {
        // ResNet's 64 → 10 head at S = 2¹⁵: folding to R = 16 would trade
        // 57 PMults for 11 full rotations. The plan is the zero-padded
        // square block's, field for field.
        let slots = 1usize << 15;
        let (plan, out_l) = dense_plan(&TensorLayout::raster(64, 1, 1), 10, slots);
        assert_eq!(out_l, TensorLayout::raster(10, 1, 1));
        assert_eq!((plan.fold, plan.n1), (slots, 16));
        assert_eq!((plan.in_blocks, plan.out_blocks), (1, 1));
        assert_eq!(plan.counts, counts(1, 15, 4, 73, 5));
        let band: Vec<u32> = (0..64).chain(slots as u32 - 9..slots as u32).collect();
        assert_eq!(plan.blocks, BTreeMap::from([((0, 0), band)]));
        assert_eq!(plan.fold_steps().count(), 0);
        assert_eq!(plan.rotation_steps().len(), 15 + 4);
    }

    #[test]
    fn lola_dense_layers_fold() {
        // The benchmark's setting (`CkksParams::small()`, S = 2048). fc1
        // reads conv1's multiplexed output (5 × 14 × 14 at gap 2: 1568
        // slots): 128 diagonals and 4 fold steps instead of 1667 diagonals.
        let fc1_in = TensorLayout {
            c: 5,
            h: 14,
            w: 14,
            t: 2,
        };
        let (fc1, fc1_out) = dense_plan(&fc1_in, 100, 2048);
        assert_eq!((fc1.fold, fc1.n1), (128, 32));
        assert_eq!(fc1.counts, counts(1, 31, 3 + 4, 128, 4));
        assert_eq!(fc1.blocks[&(0, 0)], (0..128).collect::<Vec<u32>>());
        assert_eq!(
            fc1.fold_steps().collect::<Vec<_>>(),
            vec![1024, 512, 256, 128]
        );
        assert_eq!(fc1.rotation_steps().len(), 31 + 3 + 4);
        let (fc2, _) = dense_plan(&fc1_out, 10, 2048);
        assert_eq!((fc2.fold, fc2.n1), (16, 8));
        assert_eq!(fc2.counts, counts(1, 7, 1 + 7, 16, 2));
    }

    /// The cheapest split of `blocks` under row fold `fold` by the parent
    /// planner's set logic, `(cost, n1, counts)`: every `n1 ≤ fold` is
    /// counted with per-block sets of baby and giant steps, plus one full
    /// rotation and one key per fold step `S/2, S/4, …, R`; ties go to the
    /// smaller `n1`.
    fn brute_force_split(
        blocks: &BTreeMap<(u32, u32), Vec<u32>>,
        slots: usize,
        fold: usize,
        out_blocks: usize,
    ) -> (usize, usize, PlanCounts) {
        let mut best: Option<(usize, usize, PlanCounts)> = None;
        let mut n1 = 1;
        while n1 <= fold {
            let mut babies: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
            let mut giants: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
            let mut steps = BTreeSet::new();
            let mut pmults = 0;
            for (&(i_blk, j_blk), diags) in blocks {
                pmults += diags.len();
                for &k in diags {
                    let (i, j) = (k as usize % n1, k as usize / n1);
                    if i != 0 {
                        babies.entry(j_blk).or_default().insert(i);
                        steps.insert(i);
                    }
                    if j != 0 {
                        steps.insert(j * n1);
                    }
                    giants.entry(i_blk).or_default().insert(j);
                }
            }
            let mut fold_rots = 0;
            let mut s = slots / 2;
            while s >= fold {
                fold_rots += 1;
                steps.insert(s);
                s /= 2;
            }
            let counts = PlanCounts {
                hoists: babies.len(),
                baby_rots: babies.values().map(BTreeSet::len).sum(),
                giant_rots: fold_rots
                    + giants
                        .values()
                        .map(|g| g.iter().filter(|&&j| j != 0).count())
                        .sum::<usize>(),
                pmults,
                moddowns: giants.values().map(BTreeSet::len).sum(),
                rescales: out_blocks,
            };
            let cost = PlanBuilder::weighted_cost(&counts, steps.len());
            if best.is_none_or(|(c, ..)| cost < c) {
                best = Some((cost, n1, counts));
            }
            n1 *= 2;
        }
        best.unwrap()
    }

    /// The planner's answer by brute force: every `(row, col)` entry of
    /// [`for_each_conv_segment`] goes into a set of `(out block, in block,
    /// diagonal)`, and [`brute_force_split`] ranks the splits.
    fn brute_force_conv_plan(
        in_l: &TensorLayout,
        spec: &ConvSpec,
        slots: usize,
    ) -> (BTreeMap<(u32, u32), Vec<u32>>, usize, PlanCounts) {
        let (ho, wo) = spec.out_hw(in_l.h, in_l.w);
        let out_l = in_l.after_conv(spec.co, ho, wo, spec.stride);
        let mut entries = BTreeSet::new();
        for_each_conv_segment(in_l, &out_l, spec, |_, _, _, _, row, delta, count| {
            for m in 0..count {
                let r = row + m * out_l.t;
                let c = (r as i64 + delta) as usize;
                let k = (c % slots + slots - r % slots) % slots;
                entries.insert(((r / slots) as u32, (c / slots) as u32, k as u32));
            }
        });
        let mut blocks: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
        for (i, j, k) in entries {
            blocks.entry((i, j)).or_default().push(k);
        }
        let out_blocks = out_l.num_ciphertexts(slots);
        let (_, n1, counts) = brute_force_split(&blocks, slots, slots, out_blocks);
        (blocks, n1, counts)
    }

    /// A dense layer's diagonals under row fold `fold` by brute force:
    /// every entry `(r, c)`, `r < n_out` and `c` any slot of the input
    /// layout, is diagonal `(c − r) mod R` of its block pair, `r` and `c`
    /// taken within their blocks.
    fn brute_force_dense_blocks(
        in_l: &TensorLayout,
        n_out: usize,
        slots: usize,
        fold: usize,
    ) -> BTreeMap<(u32, u32), Vec<u32>> {
        let cols = in_l.total_slots();
        let in_blocks = cols.div_ceil(slots);
        let mut seen = vec![vec![false; fold]; n_out.div_ceil(slots) * in_blocks];
        for r in 0..n_out {
            for c in 0..cols {
                let k = ((c % slots) as i64 - (r % slots) as i64).rem_euclid(fold as i64);
                seen[r / slots * in_blocks + c / slots][k as usize] = true;
            }
        }
        let mut blocks = BTreeMap::new();
        for (pair, diags) in seen.iter().enumerate() {
            let key = ((pair / in_blocks) as u32, (pair % in_blocks) as u32);
            blocks.insert(
                key,
                (0..fold as u32).filter(|&k| diags[k as usize]).collect(),
            );
        }
        blocks
    }

    #[test]
    fn zoo_dense_plans_are_pinned() {
        // Every distinct dense layer of the zoo, `(c, h, w, t) → n_out` at
        // `S`: lola at the benchmark's S = 2048, then every network at
        // paper scale — mlp, lola, lenet5, resnet20/110, alexnet,
        // mobilenet, vgg16, resnet18, yolo_v1 (head.fc1, head.fc2) and
        // resnet50. Recorded from the closed-form band counter dense
        // layers were once planned by.
        let paper = 1usize << 15;
        #[rustfmt::skip]
        let table = [
            ((5, 14, 14, 2), 100, 2048, 128, 32, counts(1, 31, 7, 128, 4)),
            ((100, 1, 1, 1), 10, 2048, 16, 8, counts(1, 7, 8, 16, 2)),
            ((1, 28, 28, 1), 128, paper, 128, 32, counts(1, 31, 11, 128, 4)),
            ((128, 1, 1, 1), 128, paper, paper, 32, counts(1, 31, 7, 255, 8)),
            ((128, 1, 1, 1), 10, paper, paper, 32, counts(1, 31, 4, 137, 5)),
            ((5, 14, 14, 2), 100, paper, 128, 32, counts(1, 31, 11, 128, 4)),
            ((100, 1, 1, 1), 10, paper, paper, 32, counts(1, 31, 4, 109, 5)),
            ((64, 7, 7, 4), 512, paper, 512, 64, counts(1, 63, 13, 512, 8)),
            ((512, 1, 1, 1), 10, paper, 16, 8, counts(1, 7, 12, 16, 2)),
            ((64, 1, 1, 4), 10, paper, paper, 16, counts(1, 15, 4, 73, 5)),
            ((256, 2, 2, 16), 4096, paper, 4096, 128, counts(1, 127, 34, 4096, 32)),
            ((4096, 1, 1, 1), 4096, paper, 4096, 128, counts(1, 127, 34, 4096, 32)),
            ((4096, 1, 1, 1), 10, paper, 16, 8, counts(1, 7, 12, 16, 2)),
            ((1024, 1, 1, 32), 200, paper, 256, 32, counts(1, 31, 14, 256, 8)),
            ((512, 1, 1, 32), 10, paper, 16, 8, counts(1, 7, 12, 16, 2)),
            ((512, 1, 1, 16), 200, paper, 256, 32, counts(1, 31, 14, 256, 8)),
            ((1024, 7, 7, 64), 2048, paper, 2048, 64, counts(7, 441, 35, 14336, 32)),
            ((2048, 1, 1, 1), 1470, paper, 2048, 128, counts(1, 127, 19, 2048, 16)),
            ((2048, 1, 1, 32), 1000, paper, 1024, 64, counts(1, 63, 20, 1024, 16)),
        ];
        for ((c, h, w, t), n_out, slots, fold, n1, counts) in table {
            let in_l = TensorLayout { c, h, w, t };
            let (plan, _) = dense_plan(&in_l, n_out, slots);
            let case = format!("{in_l:?} -> {n_out} at S = {slots}");
            assert_eq!(
                (plan.fold, plan.n1, plan.counts),
                (fold, n1, counts),
                "{case}"
            );
        }
    }

    /// Every admissible fold's candidate holds the brute-force diagonals
    /// and the set logic's split, and `dense_plan` keeps the cheapest fold,
    /// the larger on a tie. Returns how many folds tie for the cheapest.
    fn check_dense_against_brute_force(in_l: &TensorLayout, n_out: usize, slots: usize) -> usize {
        let case = format!("{in_l:?} -> {n_out} at S = {slots}");
        let out_blocks = n_out.div_ceil(slots);
        let folds: Vec<usize> = (0..=slots.trailing_zeros())
            .rev()
            .map(|e| 1 << e)
            .filter(|&r| r >= n_out.min(slots))
            .collect();
        let candidates: Vec<(usize, LinearPlan)> = dense_candidates(in_l, n_out, slots).collect();
        let candidate_folds: Vec<usize> = candidates.iter().map(|(_, p)| p.fold).collect();
        assert_eq!(candidate_folds, folds, "{case}");
        let mut best: Option<(usize, &LinearPlan)> = None;
        for (cost, plan) in &candidates {
            let fold = plan.fold;
            let blocks = brute_force_dense_blocks(in_l, n_out, slots, fold);
            let (bf_cost, n1, counts) = brute_force_split(&blocks, slots, fold, out_blocks);
            assert_eq!(plan.blocks, blocks, "{case} fold {fold}");
            let got = (*cost, plan.n1, plan.counts);
            assert_eq!(got, (bf_cost, n1, counts), "{case} fold {fold}");
            let blocks = (plan.in_blocks, plan.out_blocks);
            assert_eq!(blocks, (in_l.num_ciphertexts(slots), out_blocks), "{case}");
            assert_eq!(slots >> plan.fold_steps().count(), fold, "{case}");
            if best.is_none_or(|(c, _)| bf_cost < c) {
                best = Some((bf_cost, plan));
            }
        }
        let (cost, best) = best.unwrap();
        let (plan, out_l) = dense_plan(in_l, n_out, slots);
        assert_eq!(out_l, TensorLayout::raster(n_out, 1, 1));
        assert_eq!(
            (plan.fold, plan.n1, plan.counts, &plan.blocks),
            (best.fold, best.n1, best.counts, &best.blocks),
            "{case}"
        );
        candidates.iter().filter(|(c, _)| *c == cost).count()
    }

    #[test]
    fn dense_plan_keeps_the_larger_fold_on_a_tie() {
        // R = 8 and R = 4 both cost 64 units here; ties are rare (85 of
        // the 207 375 shapes the proptest below samples from).
        let in_l = TensorLayout::raster(1, 3, 4);
        assert_eq!(check_dense_against_brute_force(&in_l, 2, 8), 2);
        assert_eq!(dense_plan(&in_l, 2, 8).0.fold, 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `dense_plan` against brute force — multiplexed gaps, several
        /// input and output blocks and bands that do not fill their fold
        /// included.
        #[test]
        fn dense_plan_matches_brute_force(
            n_out in 1usize..80,
            c in 1usize..8,
            h in 1usize..6,
            w in 1usize..6,
            log_t in 0u32..3,
            log_slots in 3u32..8,
        ) {
            let in_l = TensorLayout { c, h, w, t: 1 << log_t };
            check_dense_against_brute_force(&in_l, n_out, 1 << log_slots);
        }
    }

    /// `conv_plan` equals the brute-force plan, field for field.
    fn check_against_brute_force(in_l: &TensorLayout, spec: &ConvSpec, slots: usize) {
        let (plan, out_l) = conv_plan(in_l, spec, slots);
        let (blocks, n1, counts) = brute_force_conv_plan(in_l, spec, slots);
        let case = format!("{in_l:?} {spec:?} slots {slots}");
        assert_eq!(plan.blocks, blocks, "{case}");
        assert_eq!(
            (plan.n1, plan.fold, plan.counts),
            (n1, slots, counts),
            "{case}"
        );
        assert_eq!(
            (plan.in_blocks, plan.out_blocks),
            (in_l.num_ciphertexts(slots), out_l.num_ciphertexts(slots)),
            "{case}"
        );
    }

    fn conv(co: usize, ci: usize, k: usize, stride: usize, padding: usize) -> ConvSpec {
        ConvSpec {
            co,
            ci,
            kh: k,
            kw: k,
            stride,
            padding,
            dilation: 1,
            groups: 1,
        }
    }

    #[test]
    fn valid_and_multi_block_convs_match_brute_force() {
        // The cases no zoo network plans: "valid" convolutions, whose
        // `delta` moves with the output row (w_o·s ≠ w_i), and layouts over
        // several blocks, whose taps cross block boundaries — both walk rows.
        let grouped = ConvSpec {
            dilation: 2,
            groups: 2,
            ..conv(4, 4, 3, 1, 2)
        };
        let cases = [
            (TensorLayout::raster(2, 8, 8), conv(2, 2, 3, 1, 0), 256),
            (TensorLayout::raster(2, 8, 8), conv(2, 2, 3, 1, 0), 32),
            (TensorLayout::raster(1, 9, 9), conv(3, 1, 3, 2, 0), 16),
            (TensorLayout::raster(4, 8, 8), conv(4, 4, 3, 2, 1), 64),
            (
                TensorLayout {
                    c: 4,
                    h: 5,
                    w: 7,
                    t: 2,
                },
                conv(6, 4, 2, 3, 1),
                48,
            ),
            (TensorLayout::raster(4, 6, 6), grouped, 40),
        ];
        let (mut valid, mut multi_block) = (0, 0);
        for (in_l, spec, slots) in cases {
            let (_, wo) = spec.out_hw(in_l.h, in_l.w);
            valid += usize::from(wo * spec.stride != in_l.w);
            multi_block += usize::from(in_l.num_ciphertexts(slots) > 1);
            check_against_brute_force(&in_l, &spec, slots);
        }
        assert_eq!((valid, multi_block), (4, 5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tap walk builds the brute-force diagonal set and the set
        /// logic's split on random convolutions: strided, dilated, grouped,
        /// padded or "valid", multiplexed inputs, one block or many, and
        /// slot counts that are not powers of two.
        #[test]
        fn conv_plan_matches_brute_force(
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
            log_slots in 2u32..=9,
            any_slots in 4usize..=512,
            pow2 in 0u32..2,
        ) {
            let slots = if pow2 == 1 { 1 << log_slots } else { any_slots };
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
            let in_l = TensorLayout {
                c: spec.ci,
                h: min(kh) + extra_h,
                w: min(kw) + extra_w,
                t,
            };
            check_against_brute_force(&in_l, &spec, slots);
        }
    }

    #[test]
    fn sparse_conv_hoists_all_rotations() {
        // A SISO 3×3 conv has ≤ 9 diagonals: hoisting every one of them as
        // a baby step (n1 = slots) costs at most 8 keys but eliminates the
        // giant-step rotations — and with them all per-rotation digit
        // decompositions. One hoist per layer remains.
        let (l, spec) = siso_same();
        let (plan, _) = conv_plan(&l, &spec, 64);
        assert_eq!(plan.counts.giant_rots, 0, "n1 = {}", plan.n1);
        assert_eq!(plan.counts.decompositions(), plan.counts.hoists);
        assert_eq!(plan.counts.hoists, 1);
        assert_eq!(plan.counts.moddowns, 1);
    }

    #[test]
    fn chooser_never_loses_to_rotation_min_on_decompositions() {
        // Against the old rotation-count objective, the weighted chooser
        // must never *increase* decompositions, and must strictly reduce
        // them on sparse conv structure.
        let shapes = {
            let (l, spec) = siso_same();
            let (conv, _) = conv_plan(&l, &spec, 64);
            let (dense, _) = dense_plan(&TensorLayout::raster(256, 1, 1), 256, 256);
            vec![(conv.blocks, 64usize), (dense.blocks, 256usize)]
        };
        for (blocks, slots) in shapes {
            let chosen = builder_of(&blocks, slots, 1, 1).finish().counts;
            // Re-derive the rotation-minimizing split by hand.
            let mut rotmin: Option<PlanCounts> = None;
            let mut n1 = 1usize;
            while n1 <= slots {
                let (c, _) = PlanBuilder::counts_for(&blocks, slots, n1, 1);
                if rotmin
                    .map(|r| c.rotations() < r.rotations())
                    .unwrap_or(true)
                {
                    rotmin = Some(c);
                }
                n1 *= 2;
            }
            let rotmin = rotmin.unwrap();
            assert!(
                chosen.decompositions() <= rotmin.decompositions(),
                "chosen {chosen:?} vs rotation-min {rotmin:?}"
            );
        }
    }

    #[test]
    fn strided_conv_stays_dense() {
        // Stride-2 single-shot multiplexed conv: diagonal count stays
        // O(f·c) — NOT O(c·h·w) as the naive Toeplitz would (Figure 5).
        let l = TensorLayout::raster(4, 8, 8);
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
        let (plan, out_l) = conv_plan(&l, &spec, 512);
        assert_eq!(out_l.t, 2);
        assert_eq!(out_l.h, 4);
        let total: usize = plan.blocks.values().map(|d| d.len()).sum();
        // combos = co·ci·kh·kw = 288 is a hard upper bound; boundary rows
        // may split a few, but we must be far from ci·hi·wi·… scale.
        assert!(total <= 8 * 4 * 9 * 2, "diagonals exploded: {total}");
    }

    #[test]
    fn multi_block_plan_covers_all_blocks() {
        // Force multiple ciphertexts: 4×8×8 = 256 slots with 128-slot cts.
        let l = TensorLayout::raster(4, 8, 8);
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
        let (plan, _) = conv_plan(&l, &spec, 128);
        assert_eq!(plan.in_blocks, 2);
        assert_eq!(plan.out_blocks, 2);
        let i_blocks: std::collections::BTreeSet<u32> =
            plan.blocks.keys().map(|&(i, _)| i).collect();
        assert_eq!(i_blocks.len(), 2);
    }

    #[test]
    fn grouped_conv_has_fewer_diagonals() {
        let l = TensorLayout::raster(8, 8, 8);
        let full = ConvSpec {
            co: 8,
            ci: 8,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let depthwise = ConvSpec { groups: 8, ..full };
        let (plan_full, _) = conv_plan(&l, &full, 1024);
        let (plan_dw, _) = conv_plan(&l, &depthwise, 1024);
        let full_diags: usize = plan_full.blocks.values().map(|d| d.len()).sum();
        let dw_diags: usize = plan_dw.blocks.values().map(|d| d.len()).sum();
        assert!(dw_diags < full_diags / 4, "{dw_diags} vs {full_diags}");
    }

    #[test]
    fn rotation_steps_cover_plan() {
        let (l, spec) = siso_same();
        let (plan, _) = conv_plan(&l, &spec, 64);
        let steps = plan.rotation_steps();
        assert!(!steps.is_empty());
        for &s in &steps {
            assert!(s > 0 && (s as usize) < 64);
        }
    }
}
