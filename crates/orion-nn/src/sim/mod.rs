//! Cost model and operation counters.
//!
//! The Orion paper drives its bootstrap-placement objective with "an
//! analytical model" of operation latencies (§5.2) whose shapes are shown
//! in Figure 1: `PMult`/`HAdd` linear in the ciphertext level, `HRot`
//! super-linear (the key-switch digit count grows with level), and
//! bootstrapping super-linear in `L_eff`. [`cost::CostModel`] reproduces
//! those curves.
//!
//! [`counter::OpCounter`] is the tally the paper's reporting columns are
//! read from ("# Rots", "# Boots", modeled latency). It is filled by a fold
//! over the execution plan ([`crate::sched::count_plan`]), not by an
//! engine, which is how the ImageNet-scale rows of Table 2 are regenerated
//! without hours of 64-bit modular arithmetic — the *plans* are identical
//! to the real backend's (see README, "Substitutions").

pub mod cost;
pub mod counter;

pub use cost::CostModel;
pub use counter::{OpCounter, OpKind};
