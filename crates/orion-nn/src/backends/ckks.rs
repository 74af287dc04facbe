//! [`CkksBackend`]: the real RNS-CKKS engine.
//!
//! Borrows an [`FheSession`] (keys, encoder, evaluator, bootstrap oracle)
//! and executes program steps homomorphically, keeping every wire at
//! exactly scale Δ: linear layers run the double-hoisted BSGS executor
//! with weights encoded at prime scale, activation stages follow the
//! errorless Chebyshev scale schedule. A request's ciphertexts are
//! arguments of the walk ([`crate::sched::run_plan`]), never engine state.

use crate::backend::EvalBackend;
use crate::compile::Step;
use crate::fhe_exec::FheSession;
use orion_ckks::encrypt::Ciphertext;
use orion_linear::exec::{exec_bsgs, FheLinearContext};
use orion_linear::paged::LayerSource;
use orion_linear::prepared::{PreparedLayer, PreparedProgram};
use orion_linear::store::StoreError;
use orion_poly::eval::{evaluate_chebyshev, relu_product, square};
use std::borrow::Cow;
use std::sync::Arc;

/// Panic payload thrown when a paged prepared layer cannot be faulted in
/// (corrupt or missing spill file). `EvalBackend::linear_layer` cannot
/// return a `Result`, so the engine unwinds with this typed payload; the
/// serving layer catches the unwind and turns it into a per-request error
/// instead of letting it kill a worker pool.
#[derive(Debug)]
pub struct PreparedLayerFault {
    /// The program step whose layer failed to load.
    pub step: usize,
    /// The underlying store failure.
    pub error: StoreError,
}

/// The real-CKKS engine (see module docs). With a prepared source attached
/// ([`CkksBackend::with_prepared`] / [`CkksBackend::with_source`]) linear
/// layers consume setup-time weight encodings through the parallel BSGS
/// executor — possibly faulted in from disk under a memory cap. Activation
/// steps multiply and add their constants as scalars and encode nothing
/// either way.
///
/// The engine is a stateless `(session, source)` pair and `Sync`: a walk
/// runs on its calling thread, and one value serves any number of
/// concurrent walks, one per thread.
pub struct CkksBackend<'s> {
    session: &'s FheSession,
    prepared: Option<Arc<dyn LayerSource>>,
}

impl<'s> CkksBackend<'s> {
    /// Wraps a session (on-the-fly weight encoding).
    pub fn new(session: &'s FheSession) -> Self {
        Self {
            session,
            prepared: None,
        }
    }

    /// Wraps a session with a fully-resident prepared cache: linear layers
    /// whose step id is in the cache run with zero per-inference encodes.
    pub fn with_prepared(session: &'s FheSession, prepared: Arc<PreparedProgram>) -> Self {
        Self::with_source(session, prepared)
    }

    /// Wraps a session with any [`LayerSource`] — a resident
    /// `PreparedProgram` or a memory-capped `PagedProgram` that faults
    /// layers in from disk.
    pub fn with_source(session: &'s FheSession, source: Arc<dyn LayerSource>) -> Self {
        Self {
            session,
            prepared: Some(source),
        }
    }

    /// Always 0: activation constants are scalars, so there is no constant
    /// cache to miss. Kept because the `perf/` name pin reads it
    /// (`poly.const_cache_misses`; ROADMAP item 7(b) re-points the pin).
    pub fn act_cache_misses(&self) -> u64 {
        0
    }

    /// The underlying session.
    pub fn session(&self) -> &'s FheSession {
        self.session
    }
}

impl EvalBackend for CkksBackend<'_> {
    type Ciphertext = Ciphertext;

    fn slots(&self) -> usize {
        self.session.ctx.slots()
    }

    fn level_of(&self, ct: &Ciphertext) -> usize {
        ct.level()
    }

    fn scale_log2_of(&self, ct: &Ciphertext) -> f64 {
        ct.scale.log2()
    }

    fn encrypt(&self, vals: &[f64], level: usize) -> Ciphertext {
        let s = self.session;
        s.encrypt(&s.enc.encode(vals, s.ctx.scale(), level, false))
    }

    fn decrypt(&self, ct: &Ciphertext) -> Vec<f64> {
        let s = self.session;
        s.enc.decode(&s.decryptor.decrypt(ct))
    }

    fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.session.eval.add(a, b)
    }

    fn drop_to_level(&self, a: Cow<'_, Ciphertext>, level: usize) -> Ciphertext {
        match a {
            // the slot's last read: its dropped limbs are freed, not copied
            Cow::Owned(mut ct) => {
                self.session.eval.drop_to_level(&mut ct, level);
                ct
            }
            Cow::Borrowed(ct) => ct.dropped_to_level(level),
        }
    }

    fn bootstrap(&self, a: &Ciphertext) -> Ciphertext {
        self.session.oracle.refresh(a)
    }

    fn linear_encodes_per_inference(&self, step: usize) -> bool {
        // per step: a partially populated cache still encodes on the fly
        // for the steps it misses, and the tally must say so
        self.prepared
            .as_ref()
            .is_none_or(|p| !p.contains_layer(step))
    }

    fn prefetch_linear(&self, step: usize) {
        // Advisory: start faulting the layer into residency (a no-op for
        // resident sources). The walk spawns it as a task of its own on
        // the pool, so execution never blocks on it; the real
        // `fetch_layer` below surfaces any store error.
        if let Some(src) = self.prepared.as_ref() {
            src.prefetch(step);
        }
    }

    fn linear_layer(
        &self,
        node: usize,
        step: &Step,
        inputs: &[Ciphertext],
        level: usize,
    ) -> Vec<Ciphertext> {
        let s = self.session;
        let fctx = FheLinearContext {
            eval: &s.eval,
            enc: &s.enc,
        };
        let plan = step.linear_plan().expect("a linear layer");
        // Serving path: consume the setup-time cache when this step has
        // one, faulting it in from disk if the source pages. A failed
        // fault unwinds with a typed payload (see [`PreparedLayerFault`]).
        let cached = self.prepared.as_ref().and_then(|src| {
            src.fetch_layer(node).unwrap_or_else(|error| {
                std::panic::panic_any(PreparedLayerFault { step: node, error })
            })
        });
        // On the fly: the same layer, encoded now and dropped after use.
        let prepared = cached.unwrap_or_else(|| {
            let (src, bias) = step.linear_values(s.ctx.slots()).expect("a linear layer");
            Arc::new(PreparedLayer::build(
                &s.enc,
                plan,
                &*src,
                Some(&bias),
                level,
            ))
        });
        exec_bsgs(&fctx, plan, &prepared, inputs)
    }

    fn scale_down(&self, ct: &Ciphertext, factor: f64, level: usize) -> Ciphertext {
        let s = self.session;
        let q = s.ctx.moduli[level] as f64;
        let mut m = s.eval.mul_scalar(ct, factor, q);
        s.eval.rescale_assign(&mut m);
        m
    }

    fn poly_stage(&self, ct: &Ciphertext, coeffs: &[f64], _level: usize) -> Ciphertext {
        evaluate_chebyshev(&self.session.eval, ct, coeffs)
    }

    fn relu_final(
        &self,
        uc: &Ciphertext,
        sc: &Ciphertext,
        magnitude: f64,
        _level: usize,
    ) -> Ciphertext {
        relu_product(&self.session.eval, uc, sc, magnitude)
    }

    fn square_activation(&self, ct: &Ciphertext, _level: usize) -> Ciphertext {
        square(&self.session.eval, ct)
    }
}
