//! Network IR and automatic bootstrap placement (paper §5).
//!
//! Orion expresses a neural network as a DAG of layers — linear transforms
//! (depth 1) and polynomial activations (depth d) — and decides, for every
//! layer, the level at which to perform it and where to insert bootstrap
//! operations, minimizing modeled end-to-end latency. The algorithm:
//!
//! 1. every residual connection forms a single-entry single-exit (SESE)
//!    region bounded by a fork node and its immediate post-dominator
//!    ([`sese::immediate_post_dominators`]);
//! 2. regions are collapsed innermost-first into pseudo-nodes carrying an
//!    `(ℓ_in, ℓ_out)` cost matrix obtained by solving a *joint* shortest
//!    path over their branches ([`placement`], paper Figure 6d);
//! 3. the resulting chain's *level digraph* — nodes are (layer, level)
//!    pairs weighted by the cost model, red edges carry bootstrap latency —
//!    is solved by topological-order relaxation, which is linear in network
//!    depth: `O(L_eff² · d)` (paper §8.5).
//!
//! The same IR also drives the *lazy* baseline ("bootstrap only when
//! forced"), which the paper shows places more bootstraps on residual
//! networks (§5.1, Fhelipe's Figure 10 observation).

pub mod dot;
pub mod ir;
pub mod lazy;
pub mod placement;
pub mod sese;

pub use dot::to_dot;
pub use ir::{Graph, Node, NodeId, NodeKind};
pub use lazy::place_lazy;
pub use placement::{place, PlacementResult};
