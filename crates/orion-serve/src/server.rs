//! The server: session registry → admission queue → dynamic batcher →
//! worker pool, over prepared (optionally memory-capped paged) weights.
//!
//! ```text
//!  clients (own keys, encrypt locally)
//!     │ submit(ClientId, Vec<Ciphertext>)
//!     ▼
//!  bounded admission queue (per-model FIFOs)
//!     │ scheduler: flush a model when its queue reaches max_batch
//!     ▼             or its oldest request waits past max_wait
//!  batch queue ──► workers (catch_unwind per request)
//!                     │ run_fhe_plan (the model's plan, optimized once)
//!                     ▼
//!                  LayerSource: resident PreparedProgram
//!                               or LRU PagedProgram under a byte budget
//! ```
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
use orion_nn::opt::{optimize_plan, OptConfig, OptStats};
use orion_nn::sched::ExecPlan;
use orion_sim::OpCounter;
use orion_tensor::Tensor;
use parking_lot::{Mutex, RwLock};
use serde::Value;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::time::{Duration, Instant};

/// A hosted model's handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModelId(pub usize);

/// A registered client's handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClientId(pub usize);

/// Admission and batching policy.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// How long the batcher holds a partial batch open waiting for
    /// more same-model requests.
    pub max_wait: Duration,
    /// Worker threads executing batches (each inference additionally
    /// parallelizes internally on the shared rayon pool).
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
    /// The request's ciphertext count does not match the model's input
    /// layout — rejected at admission, before any FHE work.
    BadInput {
        /// Ciphertexts the model's input layout packs into.
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
/// count the program was compiled for (`prepare_program` would assert it),
/// builds the model's execution plan, certifies it statically (structural
/// profile — scale/level typechecking, key coverage, well-formedness; no
/// Context is built at registration; warnings are tolerated) and optimizes
/// it — once: the plan is a property of the model, every request walks it.
fn certified_plan(
    name: &str,
    compiled: &Compiled,
    params: &CkksParams,
) -> Result<(ExecPlan, OptStats), ServeError> {
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
    let mut plan = ExecPlan::build(compiled);
    let report = orion_nn::verify_plan(&plan, compiled, &orion_nn::VerifyConfig::default());
    if report.has_errors() {
        return Err(ServeError::Unverifiable {
            model: name.to_string(),
            errors: report.error_count(),
            detail: report.table(),
        });
    }
    let stats = optimize_plan(&mut plan, compiled, OptConfig::default());
    Ok((plan, stats))
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
    /// Occupancy of the batch that carried this request.
    pub batch_size: usize,
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
    /// Server-wide request sequence number, correlating the admission,
    /// batching, and execution telemetry spans of one request.
    id: u64,
    client: ClientId,
    enqueued: Instant,
    cts: Vec<Ciphertext>,
    tx: mpsc::Sender<Result<ServeOutput, ServeError>>,
}

struct Batch {
    model: ModelId,
    reqs: Vec<Request>,
}

struct ModelEntry {
    name: String,
    compiled: Arc<Compiled>,
    /// The certified, optimized plan every request of the model walks,
    /// and what the optimizer did to it.
    plan: Arc<ExecPlan>,
    opt_stats: OptStats,
    params: CkksParams,
    source: Arc<dyn LayerSource>,
    /// Same object as `source` when the model pages, kept for stats.
    paged: Option<Arc<PagedProgram>>,
    /// `Arc` so writers can update counters without holding the registry
    /// lock (workers run seconds of FHE per request).
    metrics: Arc<ModelMetrics>,
}

struct ClientEntry {
    model: ModelId,
    session: Arc<FheSession>,
}

#[derive(Default)]
struct Admission {
    per_model: HashMap<usize, VecDeque<Request>>,
    total: usize,
}

struct Inner {
    cfg: ServeConfig,
    models: RwLock<Vec<ModelEntry>>,
    clients: RwLock<Vec<ClientEntry>>,
    queue: Mutex<Admission>,
    queue_cv: Condvar,
    batches: Mutex<VecDeque<Batch>>,
    batch_cv: Condvar,
    shutdown: AtomicBool,
    scheduler_done: AtomicBool,
    /// Monotone registration counter namespacing paged spill files, so
    /// same-named models sharing a store directory cannot clobber (and
    /// then silently serve) each other's weights.
    model_seq: std::sync::atomic::AtomicUsize,
    /// Monotone request id generator (telemetry correlation).
    req_seq: AtomicU64,
}

/// The multi-tenant inference server (see module docs). Register models
/// and clients, [`Server::start`] the scheduler + workers, then submit
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
                batches: Mutex::new(VecDeque::new()),
                batch_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                scheduler_done: AtomicBool::new(false),
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
    /// `perf/` name pin passes it (ROADMAP item 4(b)).
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
        let plan = certified_plan(name, &compiled, &params)?;
        let enc = Encoder::new(Context::new(params.clone()));
        let prepared = Arc::new(prepare_program(&compiled, &enc));
        Ok(self.install_model(name, compiled, plan, params, prepared, None))
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
        let plan = certified_plan(name, &compiled, &params)?;
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
        let paged = Arc::new(paged);
        Ok(self.install_model(name, compiled, plan, params, paged.clone(), Some(paged)))
    }

    fn install_model(
        &self,
        name: &str,
        compiled: Compiled,
        (plan, opt_stats): (ExecPlan, OptStats),
        params: CkksParams,
        source: Arc<dyn LayerSource>,
        paged: Option<Arc<PagedProgram>>,
    ) -> ModelId {
        let mut models = self.inner.models.write();
        models.push(ModelEntry {
            name: name.to_string(),
            compiled: Arc::new(compiled),
            plan: Arc::new(plan),
            opt_stats,
            params,
            source,
            paged,
            metrics: Arc::new(ModelMetrics::default()),
        });
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
        models.get(model.0)?.paged.as_ref().map(|p| p.stats())
    }

    /// Spawns the scheduler and worker threads. Idempotent-ish: call once.
    pub fn start(&mut self) {
        assert!(self.threads.is_empty(), "server already started");
        let workers = self.inner.cfg.workers.max(1);
        let inner = self.inner.clone();
        self.threads.push(
            std::thread::Builder::new()
                .name("orion-serve-scheduler".into())
                .spawn(move || scheduler_loop(&inner))
                .expect("spawn scheduler"),
        );
        for w in 0..workers {
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
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let (model, scale) = {
            let clients = inner.clients.read();
            let entry = clients
                .get(client.0)
                .ok_or(ServeError::UnknownClient(client))?;
            (entry.model, entry.session.ctx.scale())
        };
        let (metrics, expected_cts, level) = {
            let models = inner.models.read();
            let entry = &models[model.0];
            (
                entry.metrics.clone(),
                entry
                    .compiled
                    .input_layout
                    .num_ciphertexts(entry.params.slots()),
                entry.compiled.opts.l_eff,
            )
        };
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
        let n_cts = cts.len();
        let (tx, rx) = mpsc::channel();
        {
            let mut q = inner.queue.lock();
            // re-check under the lock: a request admitted after the
            // scheduler drains and exits would never be scheduled
            if inner.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            if q.total >= inner.cfg.queue_capacity {
                metrics.note_error(ErrorClass::QueueFull);
                return Err(ServeError::QueueFull {
                    capacity: inner.cfg.queue_capacity,
                });
            }
            q.per_model.entry(model.0).or_default().push_back(Request {
                id,
                client,
                enqueued: Instant::now(),
                cts,
                tx,
            });
            q.total += 1;
            // depth is bumped before the queue lock drops, so the scheduler
            // can never note_batch this request first and underflow the gauge
            metrics.note_submit();
        }
        if orion_telemetry::enabled() {
            // A short-lived admission span: its Begin event carries the
            // request id, anchoring the flow arrow that connects admission
            // to the worker's execution span in the exported trace.
            orion_telemetry::set_request(Some(id));
            drop(orion_telemetry::span!(
                "req_admit",
                model = model.0,
                cts = n_cts
            ));
            orion_telemetry::set_request(None);
        }
        inner.queue_cv.notify_all();
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
            (
                "workers".to_string(),
                Value::Num(self.inner.cfg.workers as f64),
            ),
            (
                "models".to_string(),
                Value::Arr(
                    models
                        .iter()
                        .map(|m| {
                            let page = m.paged.as_ref().map(|p| p.stats());
                            m.metrics.snapshot(&m.name, m.opt_stats, page)
                        })
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

    /// Stops accepting requests, drains the queue, and joins all threads.
    /// Already-admitted requests complete; `wait()` on anything submitted
    /// afterwards reports [`ServeError::ShuttingDown`].
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.queue_cv.notify_all();
        self.inner.batch_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Which model the batcher should flush next, round-robin across the
/// per-model FIFOs. A model *qualifies* when its queue reached
/// `max_batch`, its oldest request waited past `max_wait`, or the server
/// is draining. Among qualifying models the one closest after `cursor`
/// (cyclically, by model id) wins — strict oldest-front-first would hand
/// every slot to a hot tenant whose queue always holds the oldest
/// request, starving light tenants behind it. Returns the winning model
/// and, when nothing qualifies yet, the sleep until the nearest deadline.
fn pick_flush<R>(
    per_model: &HashMap<usize, VecDeque<R>>,
    enqueued_at: impl Fn(&R) -> Instant,
    cursor: usize,
    now: Instant,
    max_batch: usize,
    max_wait: Duration,
    draining: bool,
) -> (Option<usize>, Option<Duration>) {
    let mut flush: Option<usize> = None;
    let mut nearest: Option<Duration> = None;
    // cyclic distance from the cursor, so the rotation is fair even with
    // sparse/unbounded model ids
    let key = |m: usize| m.wrapping_sub(cursor);
    for (&m, q) in per_model.iter() {
        let Some(front) = q.front() else { continue };
        let waited = now.saturating_duration_since(enqueued_at(front));
        if draining || q.len() >= max_batch || waited >= max_wait {
            if flush.is_none_or(|best| key(m) < key(best)) {
                flush = Some(m);
            }
        } else {
            let remain = max_wait - waited;
            nearest = Some(nearest.map_or(remain, |d| d.min(remain)));
        }
    }
    (flush, nearest)
}

/// The batcher: flushes a model's FIFO when it reaches `max_batch` or its
/// oldest request has waited `max_wait`, rotating fairly across tenants
/// (see [`pick_flush`]); otherwise sleeps until the nearest deadline or a
/// new submission.
fn scheduler_loop(inner: &Inner) {
    let max_batch = inner.cfg.max_batch.max(1);
    let max_wait = inner.cfg.max_wait;
    // Round-robin cursor: the next flush starts looking just past the
    // last flushed model.
    let mut cursor = 0usize;
    let mut guard = inner.queue.lock();
    loop {
        let draining = inner.shutdown.load(Ordering::Acquire);
        let now = Instant::now();
        let (flush, nearest) = pick_flush(
            &guard.per_model,
            |r: &Request| r.enqueued,
            cursor,
            now,
            max_batch,
            max_wait,
            draining,
        );
        if let Some(m) = flush {
            cursor = m.wrapping_add(1);
            let q = guard.per_model.get_mut(&m).expect("flushable model");
            let n = q.len().min(max_batch);
            let reqs: Vec<Request> = q.drain(..n).collect();
            guard.total -= n;
            drop(guard);
            if orion_telemetry::enabled() {
                for r in &reqs {
                    orion_telemetry::set_request(Some(r.id));
                    orion_telemetry::instant!("req_batch", model = m, occupancy = reqs.len());
                }
                orion_telemetry::set_request(None);
            }
            inner.models.read()[m].metrics.note_batch(reqs.len());
            {
                let mut batches = inner.batches.lock();
                batches.push_back(Batch {
                    model: ModelId(m),
                    reqs,
                });
            }
            inner.batch_cv.notify_one();
            guard = inner.queue.lock();
            continue;
        }
        if draining {
            // queue fully drained into batches
            break;
        }
        guard = match nearest {
            Some(d) => {
                inner
                    .queue_cv
                    .wait_timeout(guard, d)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            None => inner
                .queue_cv
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner()),
        };
    }
    drop(guard);
    inner.scheduler_done.store(true, Ordering::Release);
    inner.batch_cv.notify_all();
}

fn worker_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut guard = inner.batches.lock();
            loop {
                if let Some(b) = guard.pop_front() {
                    break b;
                }
                if inner.scheduler_done.load(Ordering::Acquire) {
                    return;
                }
                guard = inner
                    .batch_cv
                    .wait(guard)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        run_batch(inner, batch);
    }
}

/// Executes a batch's requests in admission order. One shared fault of a
/// paged layer serves every request in the batch — the amortization
/// batching buys under a memory cap. Each request is isolated with
/// `catch_unwind`, so a store fault (or any panic) fails that request
/// alone and the worker keeps serving.
fn run_batch(inner: &Inner, batch: Batch) {
    let occupancy = batch.reqs.len();
    // Clone the model's shared handles and release the registry lock
    // before executing: a worker runs seconds of FHE per request, and
    // holding the read guard that long would stall model registration
    // (and, on writer-preferring RwLocks, every reader behind it).
    let (compiled, plan, source, metrics) = {
        let models = inner.models.read();
        let model = &models[batch.model.0];
        (
            model.compiled.clone(),
            model.plan.clone(),
            model.source.clone(),
            model.metrics.clone(),
        )
    };
    let model_id = batch.model.0 as u64;
    for req in batch.reqs {
        let Request {
            id,
            client,
            enqueued,
            cts,
            tx,
        } = req;
        let session = {
            let clients = inner.clients.read();
            clients[client.0].session.clone()
        };
        let queue_seconds = enqueued.elapsed().as_secs_f64();
        let (compiled, plan, source) = (compiled.clone(), plan.clone(), source.clone());
        // Tag this worker thread with the request id: the execution span
        // (and every scheduler/kernel span recorded inside the inference)
        // correlates back to the admission span via the "req" argument.
        orion_telemetry::set_request(Some(id));
        let exec_span = orion_telemetry::span!(
            "req_exec",
            model = model_id,
            queue_us = (queue_seconds * 1e6) as u64,
            batch = occupancy
        );
        let result = catch_unwind(AssertUnwindSafe(move || {
            run_fhe_plan(&compiled, &session, &plan, source, cts)
        }));
        drop(exec_span);
        let resp = match result {
            Ok((run, counter)) => {
                orion_telemetry::instant!(
                    "req_done",
                    wall_us = (run.wall_seconds * 1e6) as u64,
                    queue_us = (queue_seconds * 1e6) as u64
                );
                metrics.note_done(queue_seconds + run.wall_seconds, counter.encodes);
                Ok(ServeOutput {
                    output: run.output,
                    counter,
                    wall_seconds: run.wall_seconds,
                    queue_seconds,
                    batch_size: occupancy,
                })
            }
            Err(payload) => {
                let err = fault_to_error(payload);
                let class = match &err {
                    ServeError::Store { .. } => ErrorClass::Store,
                    _ => ErrorClass::Panic,
                };
                orion_telemetry::instant!("req_error", class = class as u64);
                metrics.note_error(class);
                Err(err)
            }
        };
        orion_telemetry::set_request(None);
        // a dropped ticket is fine — the client stopped listening
        let _ = tx.send(resp);
    }
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

    /// Drives [`pick_flush`] the way the scheduler does: drain up to
    /// `max_batch` from the winner, advance the cursor, repeat. Requests
    /// are bare timestamps.
    fn drain_order(queues: &mut HashMap<usize, VecDeque<Instant>>, max_batch: usize) -> Vec<usize> {
        let now = Instant::now();
        let mut cursor = 0usize;
        let mut order = Vec::new();
        loop {
            let (flush, _) = pick_flush(
                queues,
                |&t: &Instant| t,
                cursor,
                now,
                max_batch,
                Duration::ZERO, // everything has waited long enough
                false,
            );
            let Some(m) = flush else { break };
            cursor = m.wrapping_add(1);
            let q = queues.get_mut(&m).unwrap();
            let n = q.len().min(max_batch);
            q.drain(..n);
            order.push(m);
        }
        order
    }

    #[test]
    fn round_robin_interleaves_a_hot_tenant_with_a_light_one() {
        // Model 0 is hot (12 queued, all OLDER than model 1's); model 1
        // has 2. Oldest-front-first would serve every model-0 batch before
        // model 1 sees a single slot; round-robin alternates.
        let base = Instant::now() - Duration::from_secs(60);
        let mut queues: HashMap<usize, VecDeque<Instant>> = HashMap::new();
        queues.insert(
            0,
            (0..12).map(|i| base + Duration::from_millis(i)).collect(),
        );
        queues.insert(
            1,
            (0..2)
                .map(|i| base + Duration::from_secs(1) + Duration::from_millis(i))
                .collect(),
        );
        let order = drain_order(&mut queues, 4);
        // 12/4 = 3 batches of model 0, 2/4 → 1 batch of model 1
        assert_eq!(order.len(), 4);
        let first_light = order.iter().position(|&m| m == 1).unwrap();
        assert!(
            first_light <= 1,
            "light tenant starved: drain order {order:?}"
        );
        assert_eq!(order.iter().filter(|&&m| m == 0).count(), 3);
    }

    #[test]
    fn round_robin_cycles_through_many_tenants() {
        let base = Instant::now() - Duration::from_secs(60);
        let mut queues: HashMap<usize, VecDeque<Instant>> = HashMap::new();
        for m in 0..4usize {
            // later models carry OLDER requests: oldest-first would
            // always pick model 3 first
            queues.insert(
                m,
                (0..2)
                    .map(|i| base - Duration::from_secs(m as u64) + Duration::from_millis(i))
                    .collect(),
            );
        }
        let order = drain_order(&mut queues, 1);
        // each model drains one request per full rotation
        assert_eq!(order.len(), 8);
        assert_eq!(&order[..4], &[0, 1, 2, 3], "rotation broken: {order:?}");
        assert_eq!(&order[4..], &[0, 1, 2, 3]);
    }

    #[test]
    fn unqualified_models_report_the_nearest_deadline() {
        let now = Instant::now();
        let mut queues: HashMap<usize, VecDeque<Instant>> = HashMap::new();
        queues.insert(0, [now - Duration::from_millis(3)].into());
        queues.insert(1, [now - Duration::from_millis(7)].into());
        let max_wait = Duration::from_millis(10);
        let (flush, nearest) = pick_flush(&queues, |&t| t, 0, now, 8, max_wait, false);
        assert_eq!(flush, None);
        let d = nearest.expect("a deadline must be reported");
        assert_eq!(d, Duration::from_millis(3), "nearest deadline wins");
        // draining flushes regardless of deadlines
        let (flush, _) = pick_flush(&queues, |&t| t, 0, now, 8, max_wait, true);
        assert_eq!(flush, Some(0));
    }
}
