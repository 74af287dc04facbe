//! The two [`EvalBackend`](crate::backend::EvalBackend) engines.
//!
//! | engine | ciphertext | linear layers | use |
//! |---|---|---|---|
//! | [`CkksBackend`] | real RNS-CKKS | double-hoisted BSGS over ciphertexts | encrypted inference |
//! | [`ClearBackend::reference`] | `f64` slots + level | reference conv/linear | paper-scale modeling |
//! | [`ClearBackend::packed`] | `f64` slots + level | exact rotation algebra on `exec_bsgs`'s schedule (`exec_plain`) | packing-math oracle |
//!
//! Both are `&self` engines driven by the one plan walk
//! ([`crate::backend::run_program`] over [`crate::sched`]); their op counts
//! are identical because they are a fold over the plan
//! ([`crate::sched::count_plan`]), not something an engine does.

pub mod ckks;
pub mod clear;

pub use ckks::{CkksBackend, PreparedLayerFault};
pub use clear::{ClearBackend, ClearCiphertext};
