//! Prepared inference plans: one-time weight encoding (paper §6 "Handling
//! large data structures").
//!
//! The paper treats weight diagonals as offline artifacts: a fixed model's
//! diagonal plaintexts never change between inferences, so extracting and
//! FFT-encoding them per request is pure waste. A [`PreparedLayer`] holds
//! one linear layer's diagonals *already encoded* at its placement-assigned
//! level (prime scale, extended basis, evaluation form) together with its
//! bias plaintexts; a [`PreparedProgram`] maps program step ids to shared
//! prepared layers so a whole compiled network can be served with **zero
//! per-inference encodes** (machine-checked through `OpCounter::encodes`).
//! Slot vectors are the only setup-time artifacts: activation constants
//! and the zero of an untouched output block are scalars, multiplied in
//! as one integer per limb, and have nothing to prepare.
//!
//! Layers are `Arc`-shared and immutable after build, so any number of
//! concurrent inferences can consume one cache; [`PreparedLayer::spill`] /
//! [`PreparedLayer::load`] integrate with [`crate::store::DiagStore`] so
//! ImageNet-scale weight sets can live on disk and be loaded per layer.

use crate::plan::LinearPlan;
use crate::store::{DiagStore, StoreError};
use crate::values::DiagSource;
use orion_ckks::encoder::Encoder;
use orion_ckks::encrypt::Plaintext;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Approximate heap footprint of one encoded plaintext: every limb plus
/// the optional special limb, 8 bytes per coefficient. Used by the paging
/// byte budget, so it only needs to be proportional and stable.
pub(crate) fn plaintext_bytes(pt: &Plaintext) -> usize {
    let degree = pt.poly.limbs.first().map(Vec::len).unwrap_or(0);
    let limbs = pt.poly.limbs.len() + usize::from(pt.poly.special.is_some());
    limbs * degree * 8
}

/// One linear layer's setup-time artifacts: every weight-diagonal
/// plaintext encoded once, keyed by ciphertext-block pair and diagonal.
pub struct PreparedLayer {
    /// The level the inputs must arrive at (the placement assignment).
    pub level: usize,
    /// `(out_block, in_block) → diagonal k → encoded plaintext` (prime
    /// scale, special limb, evaluation form — ready for
    /// `ExtAccumulator::add_pmult_rotated`).
    pub diags: HashMap<(u32, u32), HashMap<u32, Plaintext>>,
    /// Per-output-block bias plaintexts at scale Δ, `level − 1`, periodic
    /// with the plan's row fold.
    pub bias: Option<Vec<Plaintext>>,
}

impl PreparedLayer {
    /// Extracts and encodes every diagonal of `plan` once. Extraction fans
    /// out per block pair and encoding per diagonal on the shared rayon
    /// pool; the result is bit-identical to what the on-the-fly executor
    /// would encode per request.
    pub fn build(
        enc: &Encoder,
        plan: &LinearPlan,
        source: &(dyn DiagSource + Sync),
        bias: Option<&[Vec<f64>]>,
        level: usize,
    ) -> Self {
        assert!(level >= 1, "a linear layer consumes one level");
        let block_keys: Vec<(u32, u32)> = plan.blocks.keys().copied().collect();
        type RawBlock = ((u32, u32), HashMap<u32, Vec<f64>>);
        let extracted: Vec<RawBlock> = block_keys
            .par_iter()
            .map(|&(i, j)| ((i, j), source.block_diags(plan, i, j)))
            .collect();
        // Flatten in plan order (deterministic), encode, regroup.
        let mut meta: Vec<((u32, u32), u32)> = Vec::new();
        let mut flat: Vec<Vec<f64>> = Vec::new();
        for ((i, j), mut vals) in extracted {
            for &k in &plan.blocks[&(i, j)] {
                if let Some(d) = vals.remove(&k) {
                    meta.push(((i, j), k));
                    flat.push(d);
                }
            }
        }
        let encoded: Vec<Plaintext> = flat
            .par_iter()
            .map(|d| enc.encode_at_prime_scale_ws(d, level))
            .collect();
        let mut diags: HashMap<(u32, u32), HashMap<u32, Plaintext>> = HashMap::new();
        for ((blk, k), pt) in meta.into_iter().zip(encoded) {
            diags.entry(blk).or_default().insert(k, pt);
        }
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
        self.diags.values().map(|m| m.len()).sum()
    }

    /// Approximate in-memory footprint of the layer's encoded plaintexts,
    /// the quantity the paging byte budget caps.
    pub fn approx_bytes(&self) -> usize {
        let diag_bytes: usize = self
            .diags
            .values()
            .flat_map(|m| m.values())
            .map(plaintext_bytes)
            .sum();
        let bias_bytes: usize = self
            .bias
            .iter()
            .flat_map(|b| b.iter())
            .map(plaintext_bytes)
            .sum();
        diag_bytes + bias_bytes
    }

    /// Spills the layer to `store` under `name` (one file per ciphertext
    /// block pair plus one bias/meta file), so large weight sets can
    /// be dropped from memory and reloaded per layer during inference.
    pub fn spill(&self, store: &DiagStore, name: &str) -> Result<(), StoreError> {
        let mut blocks: Vec<(u32, u32)> = self.diags.keys().copied().collect();
        blocks.sort_unstable();
        store.save_prepared_meta(name, self.level, &blocks, self.bias.as_deref())?;
        for &(i, j) in &blocks {
            store.save_prepared_block(name, i, j, &self.diags[&(i, j)])?;
        }
        Ok(())
    }

    /// Loads a layer previously written by [`PreparedLayer::spill`].
    pub fn load(store: &DiagStore, name: &str) -> Result<Self, StoreError> {
        let (level, blocks, bias) = store.load_prepared_meta(name)?;
        let mut diags = HashMap::with_capacity(blocks.len());
        for (i, j) in blocks {
            diags.insert((i, j), store.load_prepared_block(name, i, j)?);
        }
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
        let plan_diags: usize = plan.blocks.values().map(|d| d.len()).sum();
        assert_eq!(prepared.num_plaintexts(), plan_diags);
        assert_eq!(prepared.level, 2);
        for ((i, j), m) in &prepared.diags {
            for (k, pt) in m {
                assert!(pt.poly.has_special(), "block ({i},{j}) diag {k} not ws");
                assert_eq!(pt.scale, ctx.moduli[2] as f64);
            }
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
        for (&(i, j), ks) in &plan.blocks {
            let diags = src.block_diags(&plan, i, j);
            for k in ks {
                let single = enc.encode_at_prime_scale_ws(&diags[k], 2);
                let pt = &prepared.diags[&(i, j)][k];
                assert_eq!(pt.poly, single.poly, "block ({i},{j}) diag {k}");
                assert_eq!(pt.scale.to_bits(), single.scale.to_bits());
            }
        }
    }
}
