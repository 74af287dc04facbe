//! Single-shot multiplexed packing: Orion's convolution engine (paper §3–4).
//!
//! Every linear layer — convolution with arbitrary stride / padding /
//! dilation / groups, fully-connected, average pooling — is expressed as a
//! matrix–vector product against a (row-permuted) Toeplitz matrix and
//! evaluated with the diagonal method + baby-step giant-step +
//! double-hoisting:
//!
//! * [`layout`] — the multiplexed tensor layout (paper Figure 5b): strided
//!   convolutions increase the interleaving gap `t` by the stride instead
//!   of leaving holes, so the mask-and-collect step of Lee et al. is fused
//!   into the (pre-processable) weight matrix and every convolution
//!   consumes exactly **one** multiplicative level;
//! * [`plan`] — computes, without materializing the Toeplitz matrix, the
//!   per-ciphertext-block generalized-diagonal structure and the BSGS
//!   split `n1 × n2` minimizing rotations (the slot-index difference
//!   between an output row and its input column is constant along a row
//!   segment, so plans for ImageNet-scale layers build in milliseconds);
//!   dense layers use the hybrid (row-folded) diagonal embedding — `R`
//!   diagonals plus `log₂(S/R)` rotate-and-sum steps, `R` chosen with the
//!   split;
//! * [`values`] — materializes a layer's diagonal vectors as one list in
//!   [`LinearPlan::diagonals`] order, the order prepared plaintexts, the
//!   executors and the spill file share (only needed by the real-FHE and
//!   plan-validation paths);
//! * [`exec`] — executors, all walking one baby-step schedule of the
//!   plan: `exec_plain` (cleartext slots through the exact plan,
//!   sequential — the packing correctness oracle) and `exec_bsgs`, the
//!   one real-CKKS body (baby steps hoisted once per rotating input block
//!   and lazy-ModDown giant groups, fanned out on the shared rayon pool,
//!   every plaintext from a [`prepared`] layer); `exec_fhe_prepared` is
//!   that body on the serving path's setup-time cache (zero per-inference
//!   encodes), `exec_fhe` the same body after encoding the layer on the
//!   fly, and `exec_fhe_unhoisted` the unhoisted reference and ablation
//!   baseline;
//! * [`prepared`] — the setup-time weight-encoding cache
//!   (`PreparedLayer` / `PreparedProgram`, paper §6: weight diagonals as
//!   offline artifacts), spillable to disk through [`store`], one file per
//!   layer;
//! * [`baseline`] — rotation-count baselines: the diagonal method without
//!   BSGS (Lee et al.-style multiplexed parallel convolutions, Table 3)
//!   and the naive strided Toeplitz with maximal diagonals (Figure 5a).

pub mod baseline;
pub mod exec;
pub mod layout;
pub mod paged;
pub mod plan;
pub mod prepared;
pub mod store;
pub mod values;

pub use exec::{
    exec_bsgs, exec_fhe, exec_fhe_prepared, exec_fhe_unhoisted, exec_plain, FheLinearContext,
};
pub use layout::TensorLayout;
pub use paged::{LayerSource, PageStats, PagedProgram};
pub use plan::{ConvSpec, LinearPlan, PlanCounts};
pub use prepared::{PreparedLayer, PreparedProgram};
pub use store::{DiagStore, StoreError};
pub use values::{BiasValues, ConvDiagSource, DenseDiagSource, DiagSource};
