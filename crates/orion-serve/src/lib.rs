//! `orion-serve`: a multi-tenant FHE inference server over prepared
//! inference plans.
//!
//! The compiler produces fast single-request primitives — a
//! `PreparedProgram` and `run_program` on `CkksBackend::with_prepared` (or
//! `run_fhe_plan` over pre-encrypted requests) — but a production deployment
//! needs a layer above them: many clients with their own keys, several
//! models hosted side by side, admission control under load, and weight
//! sets larger than RAM. This crate is that layer:
//!
//! * **Session registry** — models (compiled program + shared prepared
//!   weights; encodings are key-independent) and clients (one
//!   `FheSession` each, bound to a model). See [`Server::add_model`],
//!   [`Server::add_model_paged`], [`Server::add_client`].
//! * **Admission queue + worker pool** — a bounded queue of encrypted
//!   requests in per-model FIFOs ([`ServeConfig`]); each worker pops one
//!   request at a time, round-robin across models, and runs it over the
//!   shared rayon pool. Parallelism is inference-level: nothing waits for
//!   a batch to form.
//! * **Memory-capped paging** — models registered with
//!   [`Server::add_model_paged`] serve from an
//!   `orion_linear::paged::PagedProgram`: prepared layers live in spill
//!   files, fault in on first touch, and are LRU-evicted under a byte
//!   budget, bit-exact versus the fully-resident path.
//! * **Serving metrics** — per-model queue depth, page faults/evictions,
//!   latency percentiles, and per-request encode tallies as a JSON
//!   snapshot ([`Server::metrics_json`]).
//!
//! The serving contract, machine-checked by the smoke tests: a fully
//! prepared model serves every request with **zero per-inference encodes**,
//! and a paged model's outputs are **bit-exact** against the direct
//! resident path.

pub mod metrics;
pub mod server;

pub use metrics::{ErrorClass, ModelMetrics};
pub use server::{ClientId, ModelId, ServeConfig, ServeError, ServeOutput, Server, Ticket};
