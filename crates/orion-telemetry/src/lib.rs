//! # orion-telemetry
//!
//! Observability for the Orion stack: a global, default-off span
//! collector with lock-free per-thread buffers, lock-free log-bucketed
//! histograms per op class, a Chrome trace-event exporter, and
//! critical-path analysis over scheduler runs.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** Every public recording entry
//!    point starts with one relaxed atomic load and returns. No clock
//!    reads, no allocation, no thread-local initialization. The sched
//!    test suite gates this at <3% of the micro-workload.
//! 2. **Lock-free on the hot path when enabled.** Spans and instants
//!    append to a plain thread-local `Vec`; the shared (mutexed) shard
//!    is only touched when a top-level span closes or the local buffer
//!    crosses a size threshold, so pool workers never contend per-op.
//! 3. **Static metadata.** Span kinds and argument names are
//!    `&'static str`, argument values are `u64` — an [`Event`] is
//!    `Copy` and recording never formats or allocates.
//!
//! The collector is a process-wide singleton: [`enable`] / [`disable`]
//! flip it, [`drain`] snapshots-and-clears the merged event log, and
//! the exporter in [`trace`] turns that log into Perfetto-loadable
//! Chrome trace JSON.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, OnceLock};
use std::time::Instant;

pub mod hist;
pub mod path;
pub mod trace;

pub use hist::{op_histogram, time_class, LogHistogram, OpClass};

/// Dispatch-class label of the kernel layer ("avx512ifma" / "avx2" /
/// "scalar"), set once by `orion_math::simd` when its dispatch table is
/// chosen. Kept here so kernel histograms and trace summaries can be
/// labeled with the class that produced them without a dependency cycle.
static KERNEL_DISPATCH: OnceLock<&'static str> = OnceLock::new();

/// Records the kernel dispatch class. First caller wins; later calls with
/// the same process-wide choice are no-ops.
pub fn set_kernel_dispatch(name: &'static str) {
    let _ = KERNEL_DISPATCH.set(name);
}

/// The kernel dispatch class, if the kernel layer has been exercised.
pub fn kernel_dispatch() -> Option<&'static str> {
    KERNEL_DISPATCH.get().copied()
}
pub use path::{critical_path, last_run, record_run, runs, CritUnit, RunReport};

/// How many events a thread buffers locally before force-flushing to its
/// shared shard even mid-span (bounds memory for very deep/long spans).
const LOCAL_FLUSH: usize = 1024;

/// One recorded trace event. `Copy` and allocation-free by construction:
/// kinds and argument names are static, values are `u64`.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Static event kind (span or instant name), e.g. `"step_ct"`.
    pub kind: &'static str,
    /// Begin / End / Instant.
    pub phase: Phase,
    /// Nanoseconds since the process-wide telemetry epoch.
    pub t_ns: u64,
    /// Dense per-thread id assigned at first record on that thread.
    pub tid: u64,
    /// Up to [`MAX_ARGS`] static-keyed integer arguments.
    pub args: Args,
}

/// Event phase, mirroring the Chrome trace-event phases we export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span open (`ph: "B"`).
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`).
    Instant,
}

/// Maximum arguments carried per event (fixed so [`Event`] stays `Copy`).
pub const MAX_ARGS: usize = 6;

/// Fixed-capacity argument list: static keys, `u64` values.
#[derive(Clone, Copy, Debug, Default)]
pub struct Args {
    items: [(&'static str, u64); MAX_ARGS],
    len: u8,
}

impl Args {
    fn from_slice(args: &[(&'static str, u64)]) -> Self {
        let mut a = Args::default();
        for &(k, v) in args.iter().take(MAX_ARGS) {
            a.items[a.len as usize] = (k, v);
            a.len += 1;
        }
        a
    }

    fn push(&mut self, key: &'static str, val: u64) {
        if (self.len as usize) < MAX_ARGS {
            self.items[self.len as usize] = (key, val);
            self.len += 1;
        }
    }

    /// The recorded `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.items[..self.len as usize].iter().copied()
    }

    /// Value of the argument named `key`, if recorded.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

type Shard = Arc<Mutex<Vec<Event>>>;

/// Every thread's shared shard plus its name, registered at the thread's
/// first record. Shards outlive their threads so no events are lost.
static SHARDS: LazyLock<Mutex<Vec<(u64, String, Shard)>>> =
    LazyLock::new(|| Mutex::new(Vec::new()));

struct LocalBuf {
    tid: u64,
    depth: u32,
    buf: Vec<Event>,
    shard: Shard,
}

impl LocalBuf {
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.shard.lock().append(&mut self.buf);
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
    static CURRENT_REQ: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Nanoseconds since the telemetry epoch (first clock read in-process).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn the collector on. Recording entry points start capturing from
/// the next call; previously buffered events are untouched.
pub fn enable() {
    // Pin the epoch before any event so timestamps are comparable.
    let _ = now_ns();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the collector off. In-flight span guards still emit their close
/// events so drained traces stay balanced.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the collector is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag the current thread's subsequent events with a request id (the
/// serve layer sets this around request execution so exported traces can
/// draw flow arrows from admission to the worker). `None` clears it.
pub fn set_request(id: Option<u64>) {
    CURRENT_REQ.with(|r| r.set(id));
}

/// The request id tagged on this thread, if any.
pub fn current_request() -> Option<u64> {
    CURRENT_REQ.with(|r| r.get())
}

fn with_local<R>(f: impl FnOnce(&mut LocalBuf) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let shard: Shard = Arc::new(Mutex::new(Vec::new()));
            SHARDS.lock().push((tid, name, shard.clone()));
            LocalBuf {
                tid,
                depth: 0,
                buf: Vec::with_capacity(LOCAL_FLUSH),
                shard,
            }
        });
        f(local)
    })
}

fn record(kind: &'static str, phase: Phase, mut args: Args) {
    if phase != Phase::End {
        if let Some(req) = current_request() {
            if args.get("req").is_none() {
                args.push("req", req);
            }
        }
    }
    let t_ns = now_ns();
    with_local(|local| {
        let tid = local.tid;
        match phase {
            Phase::Begin => local.depth += 1,
            Phase::End => local.depth = local.depth.saturating_sub(1),
            Phase::Instant => {}
        }
        local.buf.push(Event {
            kind,
            phase,
            t_ns,
            tid,
            args,
        });
        if local.depth == 0 || local.buf.len() >= LOCAL_FLUSH {
            local.flush();
        }
    });
}

/// RAII span guard returned by [`span()`]; emits the close event on drop.
#[must_use = "a span guard closes its span when dropped"]
pub struct SpanGuard {
    kind: Option<&'static str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(kind) = self.kind {
            record(kind, Phase::End, Args::default());
        }
    }
}

/// Open a span. Free when the collector is disabled (one relaxed load).
#[inline]
pub fn span(kind: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard { kind: None };
    }
    record(kind, Phase::Begin, Args::from_slice(args));
    SpanGuard { kind: Some(kind) }
}

/// Record a point event. Free when the collector is disabled.
#[inline]
pub fn instant(kind: &'static str, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    record(kind, Phase::Instant, Args::from_slice(args));
}

/// RAII span with named `u64` args: `span!("kind", node = 3, ct = 1)`.
#[macro_export]
macro_rules! span {
    ($kind:expr $(, $name:ident = $val:expr)* $(,)?) => {
        $crate::span($kind, &[$((stringify!($name), $val as u64)),*])
    };
}

/// Point event with named `u64` args: `instant!("kind", bytes = n)`.
#[macro_export]
macro_rules! instant {
    ($kind:expr $(, $name:ident = $val:expr)* $(,)?) => {
        $crate::instant($kind, &[$((stringify!($name), $val as u64)),*])
    };
}

/// Flush the calling thread's local buffer to its shared shard. Only
/// needed before [`drain`] when the caller recorded instants outside any
/// span on a long-lived thread; span closes at depth 0 flush implicitly.
pub fn flush_thread() {
    LOCAL.with(|slot| {
        if let Some(local) = slot.borrow_mut().as_mut() {
            local.flush();
        }
    });
}

/// Snapshot-and-clear the merged event log. Events a live thread has
/// buffered inside a still-open span are not included (they flush when
/// the span closes). Returned events are sorted by timestamp.
pub fn drain() -> Vec<Event> {
    flush_thread();
    let shards = SHARDS.lock();
    let mut all = Vec::new();
    for (_, _, shard) in shards.iter() {
        all.append(&mut shard.lock());
    }
    all.sort_by_key(|e| e.t_ns);
    all
}

/// Names of all threads that ever recorded, as `(tid, name)` pairs.
pub fn thread_names() -> Vec<(u64, String)> {
    SHARDS
        .lock()
        .iter()
        .map(|(tid, name, _)| (*tid, name.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is a process-wide singleton and Rust runs tests on
    // parallel threads: serialize every test that flips it.
    static TEST_LOCK: std::sync::LazyLock<Mutex<()>> = std::sync::LazyLock::new(|| Mutex::new(()));

    #[test]
    fn disabled_collector_records_nothing() {
        let _g = TEST_LOCK.lock();
        disable();
        drain();
        {
            let _s = span!("quiet", x = 1);
            instant!("quiet_i", y = 2);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_nest_and_balance() {
        let _g = TEST_LOCK.lock();
        enable();
        drain();
        {
            let _outer = span!("outer", a = 1);
            {
                let _inner = span!("inner", b = 2);
                instant!("tick", c = 3);
            }
        }
        disable();
        let ev = drain();
        let begins = ev.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends = ev.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
        assert_eq!(
            ev.iter().filter(|e| e.phase == Phase::Instant).count(),
            1,
            "one instant"
        );
        // LIFO per thread: inner closes before outer.
        let order: Vec<_> = ev.iter().map(|e| (e.kind, e.phase)).collect();
        assert_eq!(order[0], ("outer", Phase::Begin));
        assert_eq!(order[1], ("inner", Phase::Begin));
        assert_eq!(*order.last().unwrap(), ("outer", Phase::End));
        assert!(ev.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn request_tag_propagates_to_events() {
        let _g = TEST_LOCK.lock();
        enable();
        drain();
        set_request(Some(42));
        {
            let _s = span!("req_exec", model = 1);
        }
        set_request(None);
        disable();
        let ev = drain();
        let begin = ev.iter().find(|e| e.phase == Phase::Begin).unwrap();
        assert_eq!(begin.args.get("req"), Some(42));
    }
}
