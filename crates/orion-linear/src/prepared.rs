//! Prepared inference plans: one-time weight encoding (paper §6 "Handling
//! large data structures").
//!
//! The paper treats weight diagonals as offline artifacts: a fixed model's
//! diagonal plaintexts never change between inferences, so extracting and
//! FFT-encoding them per request is pure waste. A [`PreparedLayer`] holds
//! one linear layer's diagonals *already encoded* at its placement-assigned
//! level (prime scale, extended basis, evaluation form), one list in
//! [`LinearPlan::diagonals`] order, together with its bias plaintexts; a
//! [`PreparedProgram`] maps program step ids to shared
//! prepared layers so a whole compiled network can be served with **zero
//! per-inference encodes** (machine-checked through `OpCounter::encodes`).
//! Slot vectors are the only setup-time artifacts: activation constants
//! and the zero of an untouched output block are scalars, multiplied in
//! as one integer per limb, and have nothing to prepare.
//!
//! Layers are `Arc`-shared and immutable after build, so any number of
//! concurrent inferences can consume one cache; [`PreparedLayer::spill`] /
//! [`PreparedLayer::load`] integrate with [`crate::store::DiagStore`] so
//! ImageNet-scale weight sets can live on disk, one file per layer, and be
//! loaded per layer.

use crate::plan::LinearPlan;
use crate::store::{DiagStore, StoreError};
use crate::values::DiagSource;
use orion_ckks::encoder::Encoder;
use orion_ckks::encrypt::Plaintext;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Approximate heap footprint of one encoded plaintext: every chain and
/// special limb, 8 bytes per coefficient. Used by the paging
/// byte budget, so it only needs to be proportional and stable.
pub(crate) fn plaintext_bytes(pt: &Plaintext) -> usize {
    let degree = pt.poly.limbs.first().map(Vec::len).unwrap_or(0);
    let limbs = pt.poly.limbs.len() + pt.poly.special.len();
    limbs * degree * 8
}

/// One linear layer's setup-time artifacts: every weight-diagonal
/// plaintext encoded once, in plan order.
pub struct PreparedLayer {
    /// The level the inputs must arrive at (the placement assignment).
    pub level: usize,
    /// One entry per [`LinearPlan::diagonals`] entry, in that order: the
    /// encoded plaintext (prime scale, special limb, evaluation form —
    /// ready for `ExtAccumulator::add_pmult_rotated`), or `None` where the
    /// weights leave the diagonal all zero.
    pub diags: Vec<Option<Plaintext>>,
    /// Per-output-block bias plaintexts at scale Δ, `level − 1`, periodic
    /// with the plan's row fold.
    pub bias: Option<Vec<Plaintext>>,
}

impl PreparedLayer {
    /// Extracts and encodes every diagonal of `plan` once: the source's
    /// list, then one encode per diagonal on the shared rayon pool. The
    /// result is bit-identical to what the on-the-fly executor would
    /// encode per request.
    pub fn build(
        enc: &Encoder,
        plan: &LinearPlan,
        source: &(dyn DiagSource + Sync),
        bias: Option<&[Vec<f64>]>,
        level: usize,
    ) -> Self {
        assert!(level >= 1, "a linear layer consumes one level");
        let diags = (source.diagonals(plan).into_par_iter())
            .map(|d| d.map(|d| enc.encode_at_prime_scale_ws(&d, level)))
            .collect();
        let delta = enc.context().scale();
        let bias = bias.map(|blocks| {
            blocks
                .iter()
                .map(|b| enc.encode(&plan.periodic(b), delta, level - 1, false))
                .collect()
        });
        Self { level, diags, bias }
    }

    /// Total encoded diagonal plaintexts held (diagnostics / memory
    /// accounting).
    pub fn num_plaintexts(&self) -> usize {
        self.diags.iter().flatten().count()
    }

    /// Approximate in-memory footprint of the layer's encoded plaintexts,
    /// the quantity the paging byte budget caps.
    pub fn approx_bytes(&self) -> usize {
        let bias = self.bias.iter().flatten();
        (self.diags.iter().flatten().chain(bias))
            .map(plaintext_bytes)
            .sum()
    }

    /// Spills the layer to `store` under `name` (one file), so large weight
    /// sets can be dropped from memory and reloaded per layer during
    /// inference.
    pub fn spill(&self, store: &DiagStore, name: &str) -> Result<(), StoreError> {
        store.save_prepared(name, self.level, &self.diags, self.bias.as_deref())
    }

    /// Loads a layer previously written by [`PreparedLayer::spill`].
    pub fn load(store: &DiagStore, name: &str) -> Result<Self, StoreError> {
        let (level, diags, bias) = store.load_prepared(name)?;
        Ok(Self { level, diags, bias })
    }
}

/// A compiled program's full cache of prepared layers, keyed by program
/// step id. Immutable and `Arc`-shared after build: one cache serves any
/// number of concurrent inferences.
#[derive(Default)]
pub struct PreparedProgram {
    layers: HashMap<usize, Arc<PreparedLayer>>,
}

impl PreparedProgram {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `layer` for program step `step`.
    pub fn insert(&mut self, step: usize, layer: PreparedLayer) {
        self.layers.insert(step, Arc::new(layer));
    }

    /// The prepared layer for `step`, if any.
    pub fn layer(&self, step: usize) -> Option<&PreparedLayer> {
        self.layers.get(&step).map(Arc::as_ref)
    }

    /// The prepared layer for `step` as a shared handle.
    pub fn layer_arc(&self, step: usize) -> Option<Arc<PreparedLayer>> {
        self.layers.get(&step).cloned()
    }

    /// Step ids with a prepared layer, ascending.
    pub fn steps(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.layers.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of prepared layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total encoded diagonal plaintexts across all layers.
    pub fn num_plaintexts(&self) -> usize {
        self.layers.values().map(|l| l.num_plaintexts()).sum()
    }

    /// Approximate in-memory footprint of every prepared layer (the
    /// encoded-weight bytes a [`crate::paged::PagedProgram`] budget caps).
    pub fn approx_bytes(&self) -> usize {
        self.layers.values().map(|l| l.approx_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TensorLayout;
    use crate::plan::{conv_plan, ConvSpec};
    use crate::values::ConvDiagSource;
    use orion_ckks::params::{CkksParams, Context};
    use orion_tensor::Tensor;

    /// A 2→4-channel 3×3 conv on an 8×8 image with all-nonzero weights.
    fn conv_fixture<'w>(ctx: &Context, weights: &'w Tensor) -> (LinearPlan, ConvDiagSource<'w>) {
        let in_l = TensorLayout::raster(2, 8, 8);
        let spec = ConvSpec {
            co: 4,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let (plan, out_l) = conv_plan(&in_l, &spec, ctx.slots());
        let src = ConvDiagSource {
            in_l,
            out_l,
            spec,
            weights,
        };
        (plan, src)
    }

    fn conv_weights() -> Tensor {
        Tensor::from_vec(&[4, 2, 3, 3], (1..=72).map(|x| x as f64 * 0.05).collect())
    }

    #[test]
    fn build_covers_every_plan_diagonal() {
        let ctx = Context::new(CkksParams::tiny());
        let enc = Encoder::new(ctx.clone());
        let weights = conv_weights();
        let (plan, src) = conv_fixture(&ctx, &weights);
        let prepared = PreparedLayer::build(&enc, &plan, &src, None, 2);
        // all-nonzero weights: every plan diagonal must be cached
        assert_eq!(prepared.diags.len(), plan.counts.pmults);
        assert_eq!(prepared.num_plaintexts(), plan.counts.pmults);
        assert_eq!(prepared.level, 2);
        for ((i, j, k), pt) in plan.diagonals().zip(&prepared.diags) {
            let pt = pt.as_ref().unwrap();
            assert!(pt.poly.has_special(), "block ({i},{j}) diag {k} not ws");
            assert_eq!(pt.scale, ctx.moduli[2] as f64);
        }
    }

    #[test]
    fn pool_encoded_layer_matches_per_diagonal_encodes() {
        // Whatever the pool width, the build's fan-out must hand back the
        // plaintexts one `encode_at_prime_scale_ws` per diagonal encodes.
        let ctx = Context::new(CkksParams::tiny());
        let enc = Encoder::new(ctx.clone());
        let weights = conv_weights();
        let (plan, src) = conv_fixture(&ctx, &weights);
        let prepared = PreparedLayer::build(&enc, &plan, &src, None, 2);
        let diags = src.diagonals(&plan);
        for (((i, j, k), d), pt) in plan.diagonals().zip(&diags).zip(&prepared.diags) {
            let single = enc.encode_at_prime_scale_ws(d.as_ref().unwrap(), 2);
            let pt = pt.as_ref().unwrap();
            assert_eq!(pt.poly, single.poly, "block ({i},{j}) diag {k}");
            assert_eq!(pt.scale.to_bits(), single.scale.to_bits());
        }
    }
}
