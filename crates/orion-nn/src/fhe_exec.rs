//! Real-CKKS key material and the serving path. A tensor-in run is
//! [`crate::backend::run_program`] on a [`CkksBackend`] built from the
//! session — `CkksBackend::new` (weights encoded per inference) or
//! `CkksBackend::with_prepared` (the cache [`FheSession::prepare`] builds);
//! a served request is [`run_fhe_plan`], ciphertexts in. Both walk the plan
//! the program carries ([`Compiled::plan`]): nothing here builds one.
//!
//! An [`FheSession`] owns the key material (public, relinearization, and
//! exactly the rotation keys the compiled plans need, each generated at
//! exactly the highest level the plan applies it at —
//! [`Compiled::key_manifest`]), the bootstrap oracle, and the evaluator. Every run is the same three steps: encrypt
//! the packed input ([`FheSession::encrypt_input`] — the client's half;
//! the serve path is handed its result), walk the plan over ciphertexts
//! following the placement policy (drop to the assigned level, bootstrap
//! where the policy says, keep every wire at exactly scale Δ — one unit at
//! a time in plan order on the calling thread, an RNS op's limbs there
//! too, only a linear layer's BSGS blocks fanned out on the shared pool),
//! and decrypt the output wire
//! ([`FheSession::decrypt_output`]) — besides the bootstrap oracle, the
//! one place a run touches the secret key.

use crate::backend::{decrypt_output, encrypt_input, LinearRef};
use crate::backends::CkksBackend;
use crate::compile::Compiled;
use crate::sched::run_plan;
use crate::sim::OpCounter;
use orion_ckks::bootstrap::BootstrapOracle;
use orion_ckks::encoder::Encoder;
use orion_ckks::encrypt::{Ciphertext, Decryptor, Encryptor, Plaintext};
use orion_ckks::eval::Evaluator;
use orion_ckks::keys::KeyGenerator;
use orion_ckks::params::{CkksParams, Context};
use orion_linear::paged::LayerSource;
use orion_linear::prepared::{PreparedLayer, PreparedProgram};
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Key material and helpers for running compiled programs on real CKKS.
pub struct FheSession {
    /// The CKKS context.
    pub ctx: Arc<Context>,
    /// Encoder.
    pub enc: Encoder,
    /// Evaluator with all required rotation keys.
    pub eval: Evaluator,
    pub(crate) encryptor: Encryptor,
    pub(crate) decryptor: Decryptor,
    /// The bootstrap oracle (level reset; see README, "Substitutions").
    pub oracle: BootstrapOracle,
    pub(crate) rng: parking_lot::Mutex<StdRng>,
}

impl FheSession {
    /// Generates all key material for `compiled` under `params`: the
    /// evaluation keys of its [`Compiled::key_manifest`], each at its
    /// manifest level — a key-switch the plan never performs has no key,
    /// and none reaches above the level the plan applies it at.
    pub fn new(params: CkksParams, compiled: &Compiled, seed: u64) -> Self {
        assert_eq!(
            params.effective_level(),
            compiled.opts.l_eff,
            "session parameters must match the compiled level budget"
        );
        assert_eq!(params.slots(), compiled.opts.slots, "slot-count mismatch");
        let ctx = Context::new(params);
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(seed));
        let pk = Arc::new(kg.gen_public_key());
        let keys = Arc::new(kg.gen_eval_keys_at(&compiled.key_manifest()));
        let sk = kg.secret_key();
        Self {
            enc: Encoder::new(ctx.clone()),
            eval: Evaluator::new(ctx.clone(), keys),
            encryptor: Encryptor::with_public_key(ctx.clone(), pk),
            decryptor: Decryptor::new(ctx.clone(), sk.clone()),
            oracle: BootstrapOracle::new(ctx.clone(), sk),
            ctx,
            rng: parking_lot::Mutex::new(StdRng::seed_from_u64(seed ^ 0x5eed)),
        }
    }

    /// Builds the compiled program's setup-time weight cache (see
    /// [`prepare_program`]), `Arc`-shared so any number of concurrent
    /// inferences can serve from it. Uses the encoder alone: no key and no
    /// session randomness is touched.
    pub fn prepare(&self, compiled: &Compiled) -> Arc<PreparedProgram> {
        Arc::new(prepare_program(compiled, &self.enc))
    }

    /// Encrypts `pt` with the session RNG. The lock covers the sampling
    /// only, so the NTTs that follow run outside it and encryptions under
    /// one session overlap. The lock is not reentrant; nothing under it
    /// waits on the pool, so a pool task cannot run a second encryption
    /// on a thread that already holds it.
    pub(crate) fn encrypt(&self, pt: &Plaintext) -> Ciphertext {
        let noise = self.encryptor.sample(pt.level(), &mut *self.rng.lock());
        self.encryptor.encrypt_with(pt, noise)
    }

    /// Packs and encrypts `input` into the program's input wire — the
    /// client-side half of the serving path, where requests arrive already
    /// encrypted and the server only ever touches ciphertexts (run them
    /// with [`run_fhe_plan`]).
    pub fn encrypt_input(&self, c: &Compiled, input: &Tensor) -> Vec<Ciphertext> {
        encrypt_input(c, &CkksBackend::new(self), input)
    }

    /// Decrypts a walk's output wire into the network's output tensor.
    pub fn decrypt_output(&self, c: &Compiled, wire: &[Ciphertext]) -> Tensor {
        decrypt_output(c, &CkksBackend::new(self), wire)
    }
}

/// Walks a compiled program once and encodes every linear layer's weight
/// diagonals and bias blocks at their placement-assigned levels (paper §6:
/// weight diagonals as offline artifacts). Encoding needs no key, so the
/// cache is the same for every client of a model. It is keyed by program
/// step id; serve with [`CkksBackend::with_prepared`].
pub fn prepare_program(c: &Compiled, enc: &Encoder) -> PreparedProgram {
    let ctx = enc.context();
    assert_eq!(
        ctx.params.effective_level(),
        c.opts.l_eff,
        "encoder parameters must match the compiled level budget"
    );
    let slots = ctx.slots();
    assert_eq!(slots, c.opts.slots, "slot-count mismatch");
    let mut prog = PreparedProgram::new();
    for (id, node) in c.prog.iter().enumerate() {
        let (Some(level), Some(layer)) = (c.placement.levels[id], LinearRef::of(id, &node.step))
        else {
            continue;
        };
        let (src, bias_blocks) = layer.values(slots);
        prog.insert(
            id,
            PreparedLayer::build(enc, layer.plan(), &*src, Some(&bias_blocks), level),
        );
    }
    prog
}

/// Result of a served request.
pub struct FheRun {
    /// The decrypted network output.
    pub output: Tensor,
    /// Wall-clock seconds of the walk and the output decryption.
    pub wall_seconds: f64,
}

/// The serving hot path: walks `c`'s plan — built once by `compile`,
/// certified once per model at registration, not per request — over
/// **pre-encrypted** input ciphertexts (see [`FheSession::encrypt_input`])
/// against any prepared-layer source, resident or memory-capped paged,
/// decrypts the output wire ([`FheSession::decrypt_output`], inside the
/// timed region) and returns the run and its op counter. The counter's
/// `encodes` field is the complete per-request encode tally (the weight and
/// bias encodes of every layer `source` does not hold), so a fully prepared
/// model serves with `encodes == 0`, machine-checked.
pub fn run_fhe_plan(
    c: &Compiled,
    s: &FheSession,
    source: Arc<dyn LayerSource>,
    input_cts: Vec<Ciphertext>,
) -> (FheRun, OpCounter) {
    let t0 = std::time::Instant::now();
    let backend = CkksBackend::with_source(s, source);
    let run = run_plan(c, &backend, input_cts);
    (
        FheRun {
            output: s.decrypt_output(c, &run.output_wire),
            wall_seconds: t0.elapsed().as_secs_f64(),
        },
        run.counter,
    )
}

/// [`run_fhe_plan`] against a fully-resident prepared cache — the direct (no queue, no paging)
/// reference the serve smoke tests compare bit-exactly against. Kept
/// because the `perf/` name pin calls it (ROADMAP item 7(b)).
pub fn run_fhe_prepared_cts(
    c: &Compiled,
    s: &FheSession,
    prepared: &Arc<PreparedProgram>,
    input_cts: Vec<Ciphertext>,
) -> (FheRun, OpCounter) {
    let source = Arc::clone(prepared) as Arc<dyn LayerSource>;
    run_fhe_plan(c, s, source, input_cts)
}
