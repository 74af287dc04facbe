//! The server: session registry → admission queue → worker pool, over
//! prepared (optionally memory-capped paged) weights.
//!
//! ```text
//!  clients (own keys, encrypt locally)
//!     │ submit(ClientId, Vec<Ciphertext>)
//!     ▼
//!  bounded admission queue (per-model FIFOs)
//!     │ an idle worker pops the front request of the next non-empty
//!     ▼ model, round-robin — one request per worker, no timer
//!  workers (catch_unwind per request)
//!     │ run_fhe_plan (the plan the model carries, certified once)
//!     ▼
//!  LayerSource: resident PreparedProgram
//!               or LRU PagedProgram under a byte budget
//! ```
//!
//! Registration certifies the plan the compiled program carries
//! (`Compiled::plan`, built once by `compile`) and every request walks that
//! same plan: the server stores no plan of its own, and admission checks a
//! request against the plan's input wire — the width the walk asserts.
//!
//! Tenancy model: a *model* is a compiled program plus one shared
//! prepared-weight source (weight encodings are key-independent, so every
//! client of a model serves from the same artifacts — that is what makes
//! multi-tenant serving affordable); a *client* is an [`FheSession`] with
//! its own keys bound to one model. Requests arrive already encrypted and
//! the server never touches client plaintexts on the request path.

use crate::metrics::{ErrorClass, ModelMetrics};
use orion_ckks::encoder::Encoder;
use orion_ckks::encrypt::Ciphertext;
use orion_ckks::params::Context;
use orion_ckks::CkksParams;
use orion_linear::paged::{LayerSource, PageStats, PagedProgram};
use orion_linear::store::{DiagStore, StoreError};
use orion_nn::backends::PreparedLayerFault;
use orion_nn::compile::Compiled;
use orion_nn::fhe_exec::{prepare_program, run_fhe_plan, FheSession};
use orion_nn::sim::OpCounter;
use orion_tensor::Tensor;
use parking_lot::{Condvar, Mutex, RwLock};
use serde::Value;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A hosted model's handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModelId(pub usize);

/// A registered client's handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClientId(pub usize);

/// Admission policy and pool size.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Ignored: requests are not batched, a worker takes one at a time. The
    /// field stays because the `perf/` name pin builds this struct with a
    /// four-field literal (ROADMAP item 7(b)).
    pub max_batch: usize,
    /// Ignored, and kept, like [`ServeConfig::max_batch`]: no request waits
    /// on a timer.
    pub max_wait: Duration,
    /// Worker threads, each running one request at a time (an inference
    /// additionally parallelizes internally on the shared rayon pool).
    pub workers: usize,
    /// Admission-queue capacity across all models; submissions beyond it
    /// are rejected with [`ServeError::QueueFull`] (backpressure).
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 4,
            max_wait: Duration::from_millis(2),
            workers: 2,
            queue_capacity: 64,
        }
    }
}

/// Why a request (or registration) failed.
#[derive(Debug)]
pub enum ServeError {
    /// No such model.
    UnknownModel(ModelId),
    /// No such client.
    UnknownClient(ClientId),
    /// The admission queue is at capacity — retry later.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// A prepared layer could not be faulted in (corrupt/missing spill
    /// file); only this request failed, the workers keep serving.
    Store {
        /// The program step whose layer failed to load.
        step: usize,
        /// The underlying store failure.
        error: StoreError,
    },
    /// The inference panicked for a reason other than a store fault.
    WorkerPanic(String),
    /// The request's ciphertext count does not match the width of the
    /// model's input wire — rejected at admission, before any FHE work.
    BadInput {
        /// Ciphertexts the model's input wire holds.
        expected: usize,
        /// Ciphertexts the request carried.
        got: usize,
    },
    /// A request ciphertext is not a fresh encryption at the model's input
    /// level and scale Δ (dropped, rescaled or mis-encoded client-side) —
    /// rejected at admission like [`ServeError::BadInput`], and counted in
    /// the same error class.
    BadCiphertext {
        /// Position of the offending ciphertext in the request.
        index: usize,
        /// `(level, scale)` the model's input wire starts at.
        expected: (usize, f64),
        /// `(level, scale)` the ciphertext carries.
        got: (usize, f64),
    },
    /// The server is shutting down (or already gone).
    ShuttingDown,
    /// The model failed static plan certification at registration
    /// (`orion_nn::verify`) — rejected up front instead of panicking in a
    /// worker mid-request.
    Unverifiable {
        /// The model name offered at registration.
        model: String,
        /// Error-severity diagnostics drawn.
        errors: usize,
        /// The full diagnostic table.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            ServeError::UnknownClient(c) => write!(f, "unknown client {c:?}"),
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} requests)")
            }
            ServeError::Store { step, error } => {
                write!(f, "prepared layer for step {step} unavailable: {error}")
            }
            ServeError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            ServeError::BadInput { expected, got } => {
                write!(
                    f,
                    "bad input: model expects {expected} ciphertexts, got {got}"
                )
            }
            ServeError::BadCiphertext {
                index,
                expected,
                got,
            } => {
                write!(
                    f,
                    "bad input: ciphertext {index} at level {} scale 2^{:.2}, model expects level {} scale 2^{:.2}",
                    got.0,
                    got.1.log2(),
                    expected.0,
                    expected.1.log2()
                )
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Unverifiable {
                model,
                errors,
                detail,
            } => {
                write!(
                    f,
                    "model {model:?} failed static verification with {errors} error(s):\n{detail}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Registration choke point: holds `params` to the level budget and slot
/// count the program was compiled for (`prepare_program` would assert it)
/// and certifies the plan the program carries statically (structural
/// profile — scale/level typechecking, key coverage, well-formedness; no
/// Context is built at registration; warnings are tolerated) — once: every
/// request walks that plan.
fn certify(name: &str, compiled: &Compiled, params: &CkksParams) -> Result<(), ServeError> {
    let got = (params.effective_level(), params.slots());
    let want = (compiled.opts.l_eff, compiled.opts.slots);
    if got != want {
        return Err(ServeError::Unverifiable {
            model: name.to_string(),
            errors: 1,
            detail: format!(
                "parameters give (L_eff, slots) = {got:?}, the program was compiled for {want:?}"
            ),
        });
    }
    let report = orion_nn::verify_compiled(compiled, &orion_nn::VerifyConfig::default());
    if report.has_errors() {
        return Err(ServeError::Unverifiable {
            model: name.to_string(),
            errors: report.error_count(),
            detail: report.table(),
        });
    }
    Ok(())
}

/// A served inference result.
pub struct ServeOutput {
    /// The decrypted network output.
    pub output: Tensor,
    /// Uniform per-request op tallies; `counter.encodes == 0` for a fully
    /// prepared model — the serving contract.
    pub counter: OpCounter,
    /// Execution seconds (excludes queueing).
    pub wall_seconds: f64,
    /// Seconds spent in the admission queue before execution started.
    pub queue_seconds: f64,
}

/// The receiving end of one submitted request.
pub struct Ticket {
    rx: mpsc::Receiver<Result<ServeOutput, ServeError>>,
}

impl Ticket {
    /// Blocks until the request completes (or the server goes away).
    pub fn wait(self) -> Result<ServeOutput, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }
}

struct Request {
    /// Server-wide request sequence number, correlating the admission and
    /// execution telemetry spans of one request.
    id: u64,
    /// What the request runs on, looked up once at admission: a worker runs
    /// seconds of FHE per request and touches neither registry lock.
    model: Arc<ModelEntry>,
    session: Arc<FheSession>,
    enqueued: Instant,
    cts: Vec<Ciphertext>,
    tx: mpsc::Sender<Result<ServeOutput, ServeError>>,
}

struct ModelEntry {
    name: String,
    /// The program and the certified plan every request walks.
    compiled: Arc<Compiled>,
    params: CkksParams,
    source: Arc<dyn LayerSource>,
    metrics: ModelMetrics,
}

struct ClientEntry {
    model: ModelId,
    session: Arc<FheSession>,
}

#[derive(Default)]
struct Admission {
    per_model: HashMap<usize, VecDeque<Request>>,
    total: usize,
    /// Round-robin cursor: the next pop starts looking at this model id.
    cursor: usize,
    /// Set by `shutdown`, under the queue lock — so a worker about to wait
    /// cannot miss it and `submit` cannot admit behind the drain.
    closed: bool,
}

impl Admission {
    /// The front request of the next non-empty model at cyclic distance
    /// from the cursor (so the rotation is fair even with sparse model
    /// ids), and that model's id. Strict oldest-first would hand every
    /// worker to a hot tenant whose queue always holds the oldest request,
    /// starving light tenants behind it.
    fn pop(&mut self) -> Option<(usize, Request)> {
        let cursor = self.cursor;
        let (&model, fifo) = self
            .per_model
            .iter_mut()
            .filter(|(_, fifo)| !fifo.is_empty())
            .min_by_key(|(&m, _)| m.wrapping_sub(cursor))?;
        let req = fifo.pop_front().expect("filtered on non-empty");
        self.cursor = model.wrapping_add(1);
        self.total -= 1;
        Some((model, req))
    }
}

struct Inner {
    cfg: ServeConfig,
    models: RwLock<Vec<Arc<ModelEntry>>>,
    clients: RwLock<Vec<ClientEntry>>,
    queue: Mutex<Admission>,
    queue_cv: Condvar,
    /// Monotone registration counter namespacing paged spill files, so
    /// same-named models sharing a store directory cannot clobber (and
    /// then silently serve) each other's weights.
    model_seq: std::sync::atomic::AtomicUsize,
    /// Monotone request id generator (telemetry correlation).
    req_seq: AtomicU64,
}

/// The multi-tenant inference server (see module docs). Register models
/// and clients, [`Server::start`] the workers, then submit
/// encrypted requests from any thread.
pub struct Server {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// A stopped server with the given policy.
    pub fn new(cfg: ServeConfig) -> Self {
        Self {
            inner: Arc::new(Inner {
                cfg,
                models: RwLock::new(Vec::new()),
                clients: RwLock::new(Vec::new()),
                queue: Mutex::new(Admission::default()),
                queue_cv: Condvar::new(),
                model_seq: std::sync::atomic::AtomicUsize::new(0),
                req_seq: AtomicU64::new(0),
            }),
            threads: Vec::new(),
        }
    }

    /// Hosts a compiled model with **fully resident** prepared weights.
    /// Weight encodings need an encoder and nothing else, so registration
    /// generates no key of any kind — the artifacts are key-independent and
    /// shared by every client of the model. `prep_seed` is ignored (there
    /// is no randomness left to seed); the parameter stays because the
    /// `perf/` name pin passes it (ROADMAP item 7(b)).
    ///
    /// The model is statically verified first ([`orion_nn::verify`]); an
    /// unverifiable program is rejected with [`ServeError::Unverifiable`]
    /// before any weight encoding is built.
    pub fn add_model(
        &self,
        name: &str,
        compiled: Compiled,
        params: CkksParams,
        _prep_seed: u64,
    ) -> Result<ModelId, ServeError> {
        certify(name, &compiled, &params)?;
        let enc = Encoder::new(Context::new(params.clone()));
        let prepared = Arc::new(prepare_program(&compiled, &enc));
        Ok(self.install_model(name, compiled, params, prepared))
    }

    /// Hosts a compiled model with **memory-capped paged** weights: the
    /// prepared layers are spilled into a [`DiagStore`] under `store_dir`
    /// and faulted in on demand, LRU-evicted beyond `budget_bytes` — so
    /// the model's encoded weight set may exceed RAM. `prep_seed` is ignored,
    /// as in [`Server::add_model`].
    pub fn add_model_paged(
        &self,
        name: &str,
        compiled: Compiled,
        params: CkksParams,
        _prep_seed: u64,
        store_dir: &Path,
        budget_bytes: usize,
    ) -> Result<ModelId, ServeError> {
        certify(name, &compiled, &params)?;
        let enc = Encoder::new(Context::new(params.clone()));
        let prepared = prepare_program(&compiled, &enc);
        let store = DiagStore::open(store_dir).map_err(|error| ServeError::Store {
            step: usize::MAX,
            error,
        })?;
        // Per-registration sequence in the spill prefix: two same-named
        // models sharing a store directory must not overwrite — and then
        // silently serve — each other's encoded weights.
        let seq = self
            .inner
            .model_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let prefix = format!("{name}.m{seq}");
        let paged =
            PagedProgram::page_out(&prepared, store, &prefix, budget_bytes).map_err(|error| {
                ServeError::Store {
                    step: usize::MAX,
                    error,
                }
            })?;
        // `prepared` (the resident copy) drops here: only the pager's
        // resident set occupies memory from now on.
        Ok(self.install_model(name, compiled, params, Arc::new(paged)))
    }

    fn install_model(
        &self,
        name: &str,
        compiled: Compiled,
        params: CkksParams,
        source: Arc<dyn LayerSource>,
    ) -> ModelId {
        let mut models = self.inner.models.write();
        models.push(Arc::new(ModelEntry {
            name: name.to_string(),
            compiled: Arc::new(compiled),
            params,
            source,
            metrics: ModelMetrics::default(),
        }));
        ModelId(models.len() - 1)
    }

    /// Registers a client of `model`: generates the client's own key
    /// material (seeded) and binds its session to the model's program.
    pub fn add_client(&self, model: ModelId, seed: u64) -> Result<ClientId, ServeError> {
        let models = self.inner.models.read();
        let entry = models.get(model.0).ok_or(ServeError::UnknownModel(model))?;
        let session = Arc::new(FheSession::new(entry.params.clone(), &entry.compiled, seed));
        drop(models);
        let mut clients = self.inner.clients.write();
        clients.push(ClientEntry { model, session });
        Ok(ClientId(clients.len() - 1))
    }

    /// The client's session (for client-side encrypt/decrypt in tests and
    /// examples; a real deployment keeps this on the client).
    pub fn session(&self, client: ClientId) -> Result<Arc<FheSession>, ServeError> {
        let clients = self.inner.clients.read();
        clients
            .get(client.0)
            .map(|c| c.session.clone())
            .ok_or(ServeError::UnknownClient(client))
    }

    /// The compiled program a client is bound to.
    pub fn compiled(&self, client: ClientId) -> Result<Arc<Compiled>, ServeError> {
        let clients = self.inner.clients.read();
        let entry = clients
            .get(client.0)
            .ok_or(ServeError::UnknownClient(client))?;
        let models = self.inner.models.read();
        Ok(models[entry.model.0].compiled.clone())
    }

    /// Client-side encryption helper: packs and encrypts `input` under the
    /// client's keys, ready for [`Server::submit`].
    pub fn encrypt(&self, client: ClientId, input: &Tensor) -> Result<Vec<Ciphertext>, ServeError> {
        let session = self.session(client)?;
        let compiled = self.compiled(client)?;
        Ok(session.encrypt_input(&compiled, input))
    }

    /// Paging counters for a model (`None` when it serves resident).
    pub fn page_stats(&self, model: ModelId) -> Option<PageStats> {
        let models = self.inner.models.read();
        models.get(model.0)?.source.page_stats()
    }

    /// Spawns the worker threads. Call once.
    pub fn start(&mut self) {
        assert!(self.threads.is_empty(), "server already started");
        for w in 0..self.inner.cfg.workers.max(1) {
            let inner = self.inner.clone();
            self.threads.push(
                std::thread::Builder::new()
                    .name(format!("orion-serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker"),
            );
        }
    }

    /// Submits one encrypted request for `client`'s model. Returns a
    /// [`Ticket`] immediately; rejects with [`ServeError::QueueFull`] when
    /// the admission queue is at capacity, and with
    /// [`ServeError::BadInput`] / [`ServeError::BadCiphertext`] when the
    /// request is not what the model's input wire takes.
    pub fn submit(&self, client: ClientId, cts: Vec<Ciphertext>) -> Result<Ticket, ServeError> {
        let inner = &self.inner;
        let (model_id, session) = {
            let clients = inner.clients.read();
            let entry = clients
                .get(client.0)
                .ok_or(ServeError::UnknownClient(client))?;
            (entry.model.0, entry.session.clone())
        };
        let model = inner.models.read()[model_id].clone();
        let metrics = &model.metrics;
        // the width `run_plan` asserts: the plan's input wire
        let expected_cts = model.compiled.plan.input.len;
        let (level, scale) = (model.compiled.opts.l_eff, session.ctx.scale());
        if cts.len() != expected_cts {
            metrics.note_error(ErrorClass::BadInput);
            return Err(ServeError::BadInput {
                expected: expected_cts,
                got: cts.len(),
            });
        }
        // The input wire starts at (L_eff, Δ): anything else would trip the
        // engine's injection assert inside a worker (level) or decrypt to
        // garbage (scale).
        if let Some((index, ct)) = cts
            .iter()
            .enumerate()
            .find(|(_, ct)| ct.level() != level || ct.scale != scale)
        {
            metrics.note_error(ErrorClass::BadInput);
            return Err(ServeError::BadCiphertext {
                index,
                expected: (level, scale),
                got: (ct.level(), ct.scale),
            });
        }
        let id = inner.req_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let (tx, rx) = mpsc::channel();
        {
            let mut q = inner.queue.lock();
            if q.closed {
                return Err(ServeError::ShuttingDown);
            }
            if q.total >= inner.cfg.queue_capacity {
                metrics.note_error(ErrorClass::QueueFull);
                return Err(ServeError::QueueFull {
                    capacity: inner.cfg.queue_capacity,
                });
            }
            // depth is bumped before the queue lock drops, so a worker can
            // never note_dequeue this request first and underflow the gauge
            metrics.note_submit();
            if orion_telemetry::enabled() {
                // A short-lived admission span: its Begin event carries the
                // request id, anchoring the flow arrow that connects
                // admission to the worker's execution span in the exported
                // trace. Recorded before a worker can pop the request, so
                // the arrow always points forward in time.
                orion_telemetry::set_request(Some(id));
                drop(orion_telemetry::span!(
                    "req_admit",
                    model = model_id,
                    cts = cts.len()
                ));
                orion_telemetry::set_request(None);
            }
            q.per_model.entry(model_id).or_default().push_back(Request {
                id,
                model,
                session,
                enqueued: Instant::now(),
                cts,
                tx,
            });
            q.total += 1;
        }
        inner.queue_cv.notify_one();
        Ok(Ticket { rx })
    }

    /// Convenience: submit and block until the result arrives.
    pub fn infer(&self, client: ClientId, cts: Vec<Ciphertext>) -> Result<ServeOutput, ServeError> {
        self.submit(client, cts)?.wait()
    }

    /// One JSON snapshot of every model's serving metrics.
    pub fn metrics(&self) -> Value {
        let queue_total = self.inner.queue.lock().total;
        let models = self.inner.models.read();
        Value::Obj(vec![
            ("queue_total".to_string(), Value::Num(queue_total as f64)),
            // the threads serving now: none before `start` or after
            // `shutdown`, and one for a `workers: 0` configuration
            ("workers".to_string(), Value::Num(self.threads.len() as f64)),
            (
                "models".to_string(),
                Value::Arr(
                    models
                        .iter()
                        .map(|m| m.metrics.snapshot(&m.name, m.source.page_stats()))
                        .collect(),
                ),
            ),
            (
                "telemetry".to_string(),
                Value::Obj(vec![
                    (
                        "enabled".to_string(),
                        Value::Bool(orion_telemetry::enabled()),
                    ),
                    (
                        "op_histograms_ms".to_string(),
                        orion_telemetry::hist::op_histograms_value(),
                    ),
                    (
                        "runs".to_string(),
                        Value::Arr(
                            orion_telemetry::runs()
                                .iter()
                                .map(|r| r.to_value())
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// [`Server::metrics`] pretty-printed.
    pub fn metrics_json(&self) -> String {
        serde_json::to_string_pretty(&self.metrics()).expect("metrics serialize")
    }

    /// Stops accepting requests and joins the workers, which drain the
    /// queue first: already-admitted requests complete. A request no worker
    /// is left to run (the server was never started) resolves with
    /// [`ServeError::ShuttingDown`], as does `wait()` on anything submitted
    /// afterwards.
    pub fn shutdown(&mut self) {
        let was_closed = std::mem::replace(&mut self.inner.queue.lock().closed, true);
        if was_closed {
            return;
        }
        self.inner.queue_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let mut queue = self.inner.queue.lock();
        while let Some((_, req)) = queue.pop() {
            req.model.metrics.note_dequeue();
            let _ = req.tx.send(Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One request per worker at a time, released by the queue alone: a worker
/// sleeps only while the queue is empty, and exits once it is both closed
/// and drained.
fn worker_loop(inner: &Inner) {
    let mut queue = inner.queue.lock();
    loop {
        if let Some((model_id, req)) = queue.pop() {
            drop(queue);
            run_request(model_id, req);
            queue = inner.queue.lock();
        } else if queue.closed {
            return;
        } else {
            inner.queue_cv.wait(&mut queue);
        }
    }
}

/// Executes one request, isolated with `catch_unwind`: a store fault (or
/// any panic) fails that request alone and the worker keeps serving.
fn run_request(model_id: usize, req: Request) {
    let model = &req.model;
    model.metrics.note_dequeue();
    let queue_seconds = req.enqueued.elapsed().as_secs_f64();
    // Tag this worker thread with the request id: the execution span
    // (and every scheduler/kernel span recorded inside the inference)
    // correlates back to the admission span via the "req" argument.
    orion_telemetry::set_request(Some(req.id));
    let exec_span = orion_telemetry::span!(
        "req_exec",
        model = model_id,
        queue_us = (queue_seconds * 1e6) as u64
    );
    let result = catch_unwind(AssertUnwindSafe(|| {
        let source = model.source.clone();
        run_fhe_plan(&model.compiled, &req.session, source, req.cts)
    }));
    drop(exec_span);
    let resp = match result {
        Ok((run, counter)) => {
            orion_telemetry::instant!(
                "req_done",
                wall_us = (run.wall_seconds * 1e6) as u64,
                queue_us = (queue_seconds * 1e6) as u64
            );
            model
                .metrics
                .note_done(queue_seconds + run.wall_seconds, counter.encodes);
            Ok(ServeOutput {
                output: run.output,
                counter,
                wall_seconds: run.wall_seconds,
                queue_seconds,
            })
        }
        Err(payload) => {
            let err = fault_to_error(payload);
            let class = match &err {
                ServeError::Store { .. } => ErrorClass::Store,
                _ => ErrorClass::Panic,
            };
            orion_telemetry::instant!("req_error", class = class as u64);
            model.metrics.note_error(class);
            Err(err)
        }
    };
    orion_telemetry::set_request(None);
    // a dropped ticket is fine — the client stopped listening
    let _ = req.tx.send(resp);
}

fn fault_to_error(payload: Box<dyn std::any::Any + Send>) -> ServeError {
    match payload.downcast::<PreparedLayerFault>() {
        Ok(fault) => ServeError::Store {
            step: fault.step,
            error: fault.error,
        },
        Err(other) => {
            let msg = other
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| other.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "opaque panic payload".to_string());
            ServeError::WorkerPanic(msg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_nn::compile::{compile, CompileOptions};
    use orion_nn::fit::fixed_ranges;
    use orion_nn::network::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Admits one request of model `m` per entry of `arrivals`, in that
    /// order, to a server that is never started (one-layer models, one
    /// client each), then pops the queue dry the way a worker does and
    /// returns the model of every request in pop order.
    fn pop_order(arrivals: &[usize]) -> Vec<usize> {
        let params = CkksParams {
            n: 1 << 10,
            log_scale: 30,
            q0_bits: 45,
            max_level: 3,
            special_bits: 45,
            sigma: 3.2,
            boot_levels: 1,
        };
        let server = Server::new(ServeConfig::default());
        let requests: Vec<(ClientId, Vec<Ciphertext>)> = (0..=*arrivals.iter().max().unwrap())
            .map(|m| {
                let mut net = Network::new(1, 2, 2);
                let x = net.input();
                let f = net.flatten("flat", x);
                let l = net.linear("fc", f, 2, &mut StdRng::seed_from_u64(m as u64));
                net.output(l);
                let opts = CompileOptions::from_params(&params);
                let compiled = compile(&net, &fixed_ranges(&net, 4.0), &opts);
                let model = server.add_model("m", compiled, params.clone(), 0).unwrap();
                assert_eq!(model, ModelId(m));
                let client = server.add_client(model, m as u64).unwrap();
                let input = Tensor::from_vec(&[1, 2, 2], vec![0.25; 4]);
                (client, server.encrypt(client, &input).unwrap())
            })
            .collect();
        for &m in arrivals {
            let (client, cts) = &requests[m];
            server.submit(*client, cts.clone()).expect("admitted");
        }
        let mut queue = server.inner.queue.lock();
        let order: Vec<usize> = std::iter::from_fn(|| queue.pop()).map(|(m, _)| m).collect();
        assert_eq!(queue.total, 0);
        order
    }

    #[test]
    fn round_robin_interleaves_a_hot_tenant_with_a_light_one() {
        // Model 0 is hot (12 queued, all OLDER than model 1's); model 1
        // has 2. Oldest-first would serve all of model 0 before model 1
        // sees a single worker; round-robin alternates while both wait.
        let mut arrivals = vec![0; 12];
        arrivals.extend([1, 1]);
        let order = pop_order(&arrivals);
        assert_eq!(order.len(), 14);
        assert_eq!(
            &order[..4],
            &[0, 1, 0, 1],
            "light tenant starved: pop order {order:?}"
        );
        assert!(order[4..].iter().all(|&m| m == 0));
    }

    #[test]
    fn round_robin_cycles_through_many_tenants() {
        // later models carry OLDER requests: oldest-first would always
        // pick model 3 first
        let order = pop_order(&[3, 3, 2, 2, 1, 1, 0, 0]);
        // each model gives up one request per full rotation
        assert_eq!(order, [0, 1, 2, 3, 0, 1, 2, 3], "rotation broken");
    }

    #[test]
    fn metrics_report_running_workers() {
        let workers = |server: &Server| server.metrics().get("workers").and_then(Value::as_f64);
        let mut server = Server::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        assert_eq!(workers(&server), Some(0.0), "nothing runs before start");
        server.start();
        assert_eq!(
            workers(&server),
            Some(1.0),
            "workers: 0 still serves on one"
        );
        server.shutdown();
        assert_eq!(workers(&server), Some(0.0), "shutdown joined the worker");
    }
}
