//! The three [`EvalBackend`](crate::backend::EvalBackend) engines.
//!
//! | engine | ciphertext | linear layers | use |
//! |---|---|---|---|
//! | [`CkksBackend`] | real RNS-CKKS | double-hoisted BSGS over ciphertexts | encrypted inference |
//! | [`TraceBackend`] | `f64` slots + level bookkeeping | reference conv/linear | paper-scale modeling |
//! | [`PlainBackend`] | `f64` slots + level bookkeeping | exact rotation algebra (`exec_plain_parallel_shared`) | packing-math oracle |
//!
//! All three are `&self` engines driven by the single dataflow scheduler
//! ([`crate::backend::run_program`] over [`crate::sched`]); their op counts
//! are identical because they are a fold over the plan
//! ([`crate::sched::count_plan`]), not something an engine does.

pub mod ckks;
pub mod plain;
pub mod trace;

pub use ckks::{CkksBackend, PreparedLayerFault};
pub use plain::{run_plain, PlainBackend, PlainCiphertext, PlainRun};
pub use trace::TraceBackend;
