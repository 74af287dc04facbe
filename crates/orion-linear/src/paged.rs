//! Memory-capped serving of prepared weight sets (paper §6 "Handling
//! large data structures", taken to its serving conclusion).
//!
//! A [`crate::prepared::PreparedProgram`] holds every layer's encoded
//! diagonals resident; at ImageNet scale those artifacts are "hundreds of
//! gigabytes" and cannot all live in RAM. [`PagedProgram`] keeps the
//! layers in [`DiagStore`] spill files and faults each one in on first
//! touch, evicting least-recently-used layers whenever the resident set
//! exceeds a configurable byte budget. Loads are bit-exact round trips of
//! the setup-time encodings, so a paged inference produces bit-identical
//! ciphertexts to the fully-resident path — the budget only trades memory
//! for fault latency.
//!
//! [`LayerSource`] is the engine-facing abstraction: the CKKS backend asks
//! it for a step's prepared layer without knowing whether the answer comes
//! from RAM or disk. A corrupt or missing spill file surfaces as a typed
//! [`StoreError`] the serving layer turns into a per-request error.
//!
//! **Wait protocol.** Disk reads run with the state lock *released*, so
//! loads of different layers (and hits on resident ones) always overlap.
//! A per-step `loading` marker keeps same-layer loads single-flight:
//! fetchers of an in-flight layer sleep on a condvar — no poll loop, no
//! CPU burn — and are woken by a drop-guard that clears the marker on
//! every exit path, including a load that returns a typed error or
//! panics, so waiters can never be stranded. On a failed load each woken
//! waiter retries the load itself and surfaces its own error. Recency is
//! a monotonic-stamp map (hit = restamp, O(log n); evict = min stamp), so
//! hot fetches no longer pay an O(n) scan of the recency list.

use crate::prepared::{PreparedLayer, PreparedProgram};
use crate::store::{DiagStore, StoreError};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a program's prepared artifacts come from: fully resident
/// ([`PreparedProgram`]) or faulted in under a byte budget
/// ([`PagedProgram`]). Engines hold `Arc<dyn LayerSource>` so the two are
/// interchangeable per model.
pub trait LayerSource: Send + Sync {
    /// Whether step `step` has a prepared layer, without faulting it in
    /// (drives per-step encode accounting).
    fn contains_layer(&self, step: usize) -> bool;

    /// The prepared layer for `step`, faulting it in if the source pages.
    fn fetch_layer(&self, step: usize) -> Result<Option<Arc<PreparedLayer>>, StoreError>;

    /// Advisory: the plan walk announces `step`'s layer while the layer's
    /// input is still being computed — as the first unit the layer waits
    /// on starts — so a paging source can fault it into residency off the
    /// execution path (the call runs as its own pool task; a walk on a
    /// one-thread pool announces nothing). Must not affect results; errors are swallowed here and surfaced by the real
    /// [`LayerSource::fetch_layer`]. Default: no-op (resident sources).
    fn prefetch(&self, step: usize) {
        let _ = step;
    }

    /// Paging counters, for a source that pages. Default: `None`
    /// (resident sources).
    fn page_stats(&self) -> Option<PageStats> {
        None
    }
}

impl LayerSource for PreparedProgram {
    fn contains_layer(&self, step: usize) -> bool {
        self.layer(step).is_some()
    }

    fn fetch_layer(&self, step: usize) -> Result<Option<Arc<PreparedLayer>>, StoreError> {
        Ok(self.layer_arc(step))
    }
}

/// Counters describing a pager's behaviour so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Blocking layer loads from disk on the fetch path (first touch or
    /// touch-after-eviction, paid for by an executing inference).
    pub faults: u64,
    /// Layers dropped from the resident set to respect the budget.
    pub evictions: u64,
    /// Fetches served from the resident set.
    pub hits: u64,
    /// Layer loads performed by [`LayerSource::prefetch`] off the
    /// execution path.
    pub prefetches: u64,
    /// Fetches whose layer had been brought resident by a prefetch — the
    /// blocking faults the prefetcher converted into hits.
    pub prefetch_hits: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Layers currently resident.
    pub resident_layers: u64,
}

#[derive(Default)]
struct Resident {
    map: HashMap<usize, Arc<PreparedLayer>>,
    /// Monotonic recency clock, bumped on every touch.
    clock: u64,
    /// Step → its last-touch stamp (every resident step has exactly one).
    stamp: HashMap<usize, u64>,
    /// Stamp → step, the mirror of `stamp`: the smallest key is the LRU
    /// victim, so a hit is O(log n) (restamp) instead of the old
    /// `VecDeque::retain` O(n) scan.
    by_stamp: BTreeMap<u64, usize>,
    bytes: usize,
    /// Steps whose resident copy was loaded by a prefetch and not yet
    /// touched by a fetch (each prefetch gets credited at most once).
    prefetched: HashSet<usize>,
    /// Steps with a disk load in flight — the lock is released during
    /// the read, and this set keeps same-layer loads single-flight.
    loading: HashSet<usize>,
}

impl Resident {
    /// Marks `step` most-recently-used.
    fn touch(&mut self, step: usize) {
        let now = self.clock;
        self.clock += 1;
        if let Some(old) = self.stamp.insert(step, now) {
            self.by_stamp.remove(&old);
        }
        self.by_stamp.insert(now, step);
    }

    /// Drops `step` from every recency structure.
    fn forget(&mut self, step: usize) {
        self.map.remove(&step);
        self.prefetched.remove(&step);
        if let Some(old) = self.stamp.remove(&step) {
            self.by_stamp.remove(&old);
        }
    }
}

struct PagedEntry {
    name: String,
    bytes: usize,
}

/// A prepared program whose layers live in [`DiagStore`] spill files and
/// are faulted in on first touch, LRU-evicted under `budget_bytes` (see
/// module docs). Encoded weights and biases are everything a prepared
/// program holds, so the budget covers all of it.
pub struct PagedProgram {
    store: DiagStore,
    budget_bytes: usize,
    entries: HashMap<usize, PagedEntry>,
    state: Mutex<Resident>,
    /// Signaled whenever an in-flight load finishes (success, error, or
    /// panic — see [`LoadingGuard`]); fetchers of a loading layer sleep
    /// here instead of poll-looping.
    load_done: Condvar,
    faults: AtomicU64,
    evictions: AtomicU64,
    hits: AtomicU64,
    prefetches: AtomicU64,
    prefetch_hits: AtomicU64,
}

impl PagedProgram {
    /// Spills every layer of `prepared` into `store` under
    /// `prefix.step<N>` names and returns a pager with an **empty**
    /// resident set capped at `budget_bytes`. The caller can drop the
    /// resident `PreparedProgram` afterwards — that is the point.
    pub fn page_out(
        prepared: &PreparedProgram,
        store: DiagStore,
        prefix: &str,
        budget_bytes: usize,
    ) -> Result<Self, StoreError> {
        let mut entries = HashMap::new();
        for step in prepared.steps() {
            let layer = prepared.layer(step).expect("steps() lists present layers");
            let name = format!("{prefix}.step{step}");
            layer.spill(&store, &name)?;
            entries.insert(
                step,
                PagedEntry {
                    name,
                    bytes: layer.approx_bytes(),
                },
            );
        }
        Ok(Self {
            store,
            budget_bytes,
            entries,
            state: Mutex::new(Resident::default()),
            load_done: Condvar::new(),
            faults: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            prefetches: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
        })
    }

    /// Total spilled weight bytes across all registered layers (the
    /// footprint a fully-resident cache would occupy).
    pub fn total_bytes(&self) -> usize {
        self.entries.values().map(|e| e.bytes).sum()
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Current paging counters.
    pub fn stats(&self) -> PageStats {
        let st = self.state.lock();
        PageStats {
            faults: self.faults.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            prefetches: self.prefetches.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            resident_bytes: st.bytes as u64,
            resident_layers: st.map.len() as u64,
        }
    }

    /// Inserts a freshly loaded layer into the resident set (caller holds
    /// the state lock), evicting LRU-first down to the budget. The
    /// just-inserted layer is never evicted here (an in-flight inference
    /// holds it anyway), so a single layer larger than the budget stays
    /// resident until the next load pushes it out.
    fn admit(&self, st: &mut Resident, step: usize, layer: Arc<PreparedLayer>, bytes: usize) {
        st.bytes += bytes;
        let prev = st.map.insert(step, layer);
        assert!(
            prev.is_none(),
            "layer {step} admitted twice (single-flight broken)"
        );
        st.touch(step);
        while st.bytes > self.budget_bytes && st.map.len() > 1 {
            // the just-admitted layer carries the max stamp, so with more
            // than one resident the minimum is never it
            let victim = *st.by_stamp.values().next().expect("len > 1");
            st.forget(victim);
            st.bytes -= self.entries[&victim].bytes;
            orion_telemetry::instant!(
                "page_evict",
                step = victim,
                bytes = self.entries[&victim].bytes
            );
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Clears a step's in-flight `loading` marker and wakes every fetcher
/// sleeping on [`PagedProgram::load_done`] when dropped — including during
/// an unwind, so a panicking or erroring [`PreparedLayer::load`] can never
/// strand waiters on a marker nobody will clear.
struct LoadingGuard<'a> {
    pager: &'a PagedProgram,
    step: usize,
}

impl Drop for LoadingGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.pager.state.lock();
        st.loading.remove(&self.step);
        drop(st);
        self.pager.load_done.notify_all();
    }
}

impl LayerSource for PagedProgram {
    fn contains_layer(&self, step: usize) -> bool {
        self.entries.contains_key(&step)
    }

    fn fetch_layer(&self, step: usize) -> Result<Option<Arc<PreparedLayer>>, StoreError> {
        let Some(entry) = self.entries.get(&step) else {
            return Ok(None);
        };
        // Disk loads happen OUTSIDE the lock (an in-flight load of one
        // layer must not stall hits on — or loads of — other layers); the
        // `loading` set keeps concurrent loads of the SAME layer
        // single-flight, so the resident accounting and the byte budget
        // stay exact.
        let mut st = self.state.lock();
        loop {
            if let Some(layer) = st.map.get(&step).cloned() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if st.prefetched.remove(&step) {
                    // a prefetch turned this blocking fault into a hit
                    self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                }
                st.touch(step);
                return Ok(Some(layer));
            }
            if !st.loading.contains(&step) {
                break;
            }
            // someone else (a prefetch or another fetch) is reading
            // this layer from disk — sleep until its LoadingGuard signals
            // completion, then re-check (the load may have failed, in
            // which case this fetch retries and surfaces its own error)
            self.load_done.wait(&mut st);
        }
        st.loading.insert(step);
        drop(st);
        // The guard clears `loading` and wakes waiters on EVERY exit path:
        // admitted, typed load error, or a panic unwinding through us.
        let _clear = LoadingGuard { pager: self, step };
        let t0 = orion_telemetry::now_ns();
        let layer = orion_telemetry::time_class(orion_telemetry::OpClass::PageLoad, || {
            PreparedLayer::load(&self.store, &entry.name).map(Arc::new)
        })?;
        orion_telemetry::instant!(
            "page_fault",
            step = step,
            bytes = entry.bytes,
            load_us = (orion_telemetry::now_ns() - t0) / 1_000
        );
        self.faults.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        self.admit(&mut st, step, layer.clone(), entry.bytes);
        drop(st);
        // `_clear` drops here — after the layer is resident — so woken
        // waiters always find it in the map
        Ok(Some(layer))
    }

    fn prefetch(&self, step: usize) {
        let Some(entry) = self.entries.get(&step) else {
            return;
        };
        {
            let mut st = self.state.lock();
            if st.map.contains_key(&step) || st.loading.contains(&step) {
                return; // resident or already being read — nothing to do
            }
            st.loading.insert(step);
        }
        // The read happens with the lock RELEASED: concurrent fetches of
        // other layers (hits AND loads) proceed; a fetch of THIS layer
        // sleeps on the condvar and then scores a prefetch hit. The guard
        // clears the marker even if the load errors or panics.
        let _clear = LoadingGuard { pager: self, step };
        let t0 = orion_telemetry::now_ns();
        let load = orion_telemetry::time_class(orion_telemetry::OpClass::PageLoad, || {
            PreparedLayer::load(&self.store, &entry.name)
        });
        let Ok(layer) = load else {
            return; // the consuming fetch will retry and surface the error
        };
        orion_telemetry::instant!(
            "page_prefetch",
            step = step,
            bytes = entry.bytes,
            load_us = (orion_telemetry::now_ns() - t0) / 1_000
        );
        self.prefetches.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        self.admit(&mut st, step, Arc::new(layer), entry.bytes);
        st.prefetched.insert(step);
    }

    fn page_stats(&self) -> Option<PageStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TensorLayout;
    use crate::plan::{conv_plan, ConvSpec};
    use crate::values::ConvDiagSource;
    use orion_ckks::encoder::Encoder;
    use orion_ckks::params::{CkksParams, Context};
    use orion_tensor::Tensor;

    fn sample_program(enc: &Encoder, n_layers: usize) -> PreparedProgram {
        let in_l = TensorLayout::raster(2, 8, 8);
        let spec = ConvSpec {
            co: 2,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let (plan, out_l) = conv_plan(&in_l, &spec, enc.context().slots());
        let mut prog = PreparedProgram::new();
        for step in 0..n_layers {
            let weights = Tensor::from_vec(
                &[2, 2, 3, 3],
                (0..36).map(|x| (x + step) as f64 * 0.05).collect(),
            );
            let src = ConvDiagSource {
                in_l,
                out_l,
                spec,
                weights: &weights,
            };
            prog.insert(step, PreparedLayer::build(enc, &plan, &src, None, 2));
        }
        prog
    }

    #[test]
    fn paged_fetch_is_bit_exact_and_evicts_under_budget() {
        let ctx = Context::new(CkksParams::tiny());
        let enc = Encoder::new(ctx);
        let prog = sample_program(&enc, 3);
        let layer_bytes = prog.layer(0).unwrap().approx_bytes();
        assert!(layer_bytes > 0);

        let dir = std::env::temp_dir().join("orion_paged_test");
        std::fs::remove_dir_all(&dir).ok();
        let store = DiagStore::open(&dir).unwrap();
        // Budget fits ~1.5 layers: every cross-layer access pattern faults.
        let paged = PagedProgram::page_out(&prog, store, "m", layer_bytes * 3 / 2).unwrap();
        assert_eq!(paged.total_bytes(), 3 * layer_bytes);
        assert!(!paged.contains_layer(99));
        assert!(paged.fetch_layer(99).unwrap().is_none());

        // Touch 0, 1 (evicts 0), 0 again (re-fault, evicts 1), 0 (hit).
        for (step, want_faults, want_evicts) in [(0, 1, 0), (1, 2, 1), (0, 3, 2), (0, 3, 2)] {
            let got = paged.fetch_layer(step).unwrap().unwrap();
            let want = prog.layer(step).unwrap();
            assert_eq!(got.level, want.level);
            assert_eq!(got.num_plaintexts(), want.num_plaintexts());
            for (blk, diags) in &want.diags {
                for (k, pt) in diags {
                    assert_eq!(
                        got.diags[blk][k].poly, pt.poly,
                        "paged layer {step} block {blk:?} diag {k} diverged"
                    );
                }
            }
            let stats = paged.stats();
            assert_eq!(stats.faults, want_faults, "after touching {step}");
            assert_eq!(stats.evictions, want_evicts, "after touching {step}");
            assert!(stats.resident_bytes <= (layer_bytes * 3 / 2) as u64);
        }
        assert_eq!(paged.stats().hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefetch_converts_blocking_faults_into_hits() {
        let ctx = Context::new(CkksParams::tiny());
        let enc = Encoder::new(ctx);
        let prog = sample_program(&enc, 3);
        let layer_bytes = prog.layer(0).unwrap().approx_bytes();
        let dir = std::env::temp_dir().join("orion_paged_prefetch_test");
        std::fs::remove_dir_all(&dir).ok();
        let store = DiagStore::open(&dir).unwrap();
        let paged = PagedProgram::page_out(&prog, store, "m", layer_bytes * 3 / 2).unwrap();

        // prefetch then fetch: the load is a prefetch, the fetch a hit
        paged.prefetch(0);
        let s = paged.stats();
        assert_eq!((s.prefetches, s.faults, s.prefetch_hits), (1, 0, 0));
        let a = paged.fetch_layer(0).unwrap().unwrap();
        let s = paged.stats();
        assert_eq!(
            (s.prefetches, s.faults, s.prefetch_hits, s.hits),
            (1, 0, 1, 1)
        );
        // the prefetched copy is bit-identical to the spilled layer
        let want = prog.layer(0).unwrap();
        for (blk, diags) in &want.diags {
            for (k, pt) in diags {
                assert_eq!(a.diags[blk][k].poly, pt.poly);
            }
        }
        // prefetching a resident layer is a no-op; a later plain fetch of
        // an unprefetched layer is a blocking fault
        paged.prefetch(0);
        paged.fetch_layer(1).unwrap().unwrap();
        let s = paged.stats();
        assert_eq!((s.prefetches, s.faults), (1, 1));
        // a prefetched layer evicted before use never earns a hit credit
        paged.prefetch(2); // evicts 0 (budget ~1.5 layers holds 1,2)
        paged.fetch_layer(0).unwrap().unwrap(); // blocking re-fault
        let s = paged.stats();
        assert_eq!(s.prefetches, 2);
        assert_eq!(s.prefetch_hits, 1, "evicted prefetch must not be credited");
        assert!(s.faults >= 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_spill_file_surfaces_as_store_error() {
        let ctx = Context::new(CkksParams::tiny());
        let enc = Encoder::new(ctx);
        let prog = sample_program(&enc, 1);
        let dir = std::env::temp_dir().join("orion_paged_corrupt_test");
        std::fs::remove_dir_all(&dir).ok();
        let store = DiagStore::open(&dir).unwrap();
        let paged = PagedProgram::page_out(&prog, store, "m", usize::MAX).unwrap();
        // Truncate the layer's meta file behind the pager's back.
        std::fs::write(dir.join("m.step0.prep.meta"), b"ORIONPP1").unwrap();
        match paged.fetch_layer(0) {
            Err(StoreError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {:?}", other.map(|o| o.is_some())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
