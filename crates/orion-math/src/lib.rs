//! Mathematical substrates for Orion's RNS-CKKS implementation.
//!
//! This crate provides the low-level machinery the rest of the workspace is
//! built on:
//!
//! * [`modular`] — arithmetic over `u64` prime moduli (add/sub/mul/pow/inv
//!   via `u128` widening, centered reductions),
//! * [`primes`] — generation of NTT-friendly primes (`p ≡ 1 mod 2N`),
//! * [`ntt`] — negacyclic Number Theoretic Transform over each RNS prime,
//! * [`fft`] — complex FFT plus the CKKS *special* FFT used by the
//!   canonical-embedding encoder,
//! * [`rns`] — Residue Number System helpers (the centered CRT lift every
//!   decode runs, and the reconstruction it is tested against),
//! * [`simd`] — the kernel dispatch table every hot limb loop runs on,
//! * [`arena`] — thread-local recycling of limb buffers.
//!
//! Everything here is deterministic and sequential: a limb loop runs on
//! the thread that calls it (parallelism lives a level up, in the linear
//! layers' block fan-out). NTT tables are precomputed once per `(N, q)`
//! pair and shared.
//!
//! The crate contains the workspace's only `unsafe` code (the SIMD kernel
//! layer in [`simd`]): every unsafe operation must sit in an explicit
//! `unsafe {}` block carrying a `// SAFETY:` comment stating its invariant
//! (lazy-range bound, pointer provenance, or feature detection) — enforced
//! by `deny(unsafe_op_in_unsafe_fn)` below and a CI grep.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod fft;
pub mod modular;
pub mod ntt;
pub mod primes;
pub mod rns;
pub mod simd;

pub use fft::{Complex, SpecialFft};
pub use ntt::NttTable;
pub use primes::generate_ntt_primes;
