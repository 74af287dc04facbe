//! A from-scratch RNS-CKKS implementation — the FHE substrate beneath Orion.
//!
//! This crate implements the scheme described in §2 of the Orion paper
//! (Cheon–Kim–Kim–Song over RNS, following the full-RNS variant):
//!
//! * [`params`] — parameter sets, the shared [`params::Context`] holding the
//!   modulus chain, NTT tables, encoder tables, and Galois permutations,
//! * [`poly`] — [`poly::RnsPoly`], polynomials in `Z_Q[X]/(X^N+1)` stored as
//!   RNS limbs in coefficient or evaluation form,
//! * [`encoder`] — cleartext ↔ plaintext conversion through the canonical
//!   embedding (paper §2.2), including *errorless* weight encoding at scale
//!   `q_j` (paper §6, Figure 7),
//! * [`keys`] — secret/public/relinearization/rotation keys; key-switching
//!   keys are hybrid: two digits of α(ℓ) limbs per level over α(ℓ) special
//!   primes,
//! * [`encrypt`] — encryption (public or secret key) and decryption,
//! * [`eval`] — the homomorphic evaluator: `HAdd`, `PAdd`, `PMult`, `HMult`
//!   (+relinearize), rescaling, level drops, Galois rotations,
//! * [`hoist`] — hoisted rotations (shared digit decomposition) and the
//!   lazy-ModDown accumulator that implements double-hoisting (paper §3.3),
//! * [`bootstrap`] — the bootstrap substitute: a key-holding oracle that
//!   resets levels with bootstrap-faithful precision loss (see README,
//!   "Substitutions"),
//! * [`precision`] — output-precision measurement (paper §7, "Prec. (b)").
//!
//! # Security note
//!
//! Test/demo parameter sets here use reduced ring degrees (N = 2¹⁰…2¹³) so
//! the whole workspace runs in CI; they are **not** 128-bit secure. The
//! [`params::CkksParams::secure_n16`] preset matches the paper's deployment
//! scale.

pub mod bootstrap;
pub mod encoder;
pub mod encrypt;
pub mod eval;
pub mod hoist;
pub mod keys;
pub mod noise;
pub mod params;
pub mod poly;
pub mod precision;

pub use bootstrap::BootstrapOracle;
pub use encoder::Encoder;
pub use encrypt::{Ciphertext, Decryptor, Encryptor, Plaintext};
pub use eval::Evaluator;
pub use hoist::HoistedDigits;
pub use keys::{
    EvalKeys, KeyGenerator, KeyManifest, MissingRotationKey, PublicKey, RelinKeyLevel, SecretKey,
};
pub use noise::{NoiseEstimate, NoiseEstimator};
pub use params::{CkksParams, Context};
