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
//! **State.** One mutex guards one map with at most one `Slot` per
//! step — `Loading` while its disk read is in flight, or `Resident` with
//! its layer, last use and prefetch credit — and the [`PageStats`], so a
//! [`PagedProgram::stats`] snapshot is consistent.
//!
//! **Wait protocol.** Disk reads run with the lock *released*, so loads
//! of different layers and hits overlap. A `Loading` slot keeps
//! same-layer loads single-flight: a fetch of it sleeps on a condvar (a
//! prefetch returns) until a drop-guard wakes it on every exit path,
//! including a load that errors or panics; a woken fetch that finds no
//! slot retries the load and surfaces its own error.
//!
//! **Recency.** A hit sets its slot's `last_use`, O(1); each load evicts
//! `min_by_key(last_use)` over the other resident slots until the budget
//! holds — one scan per load, over at most the model's linear layers.

use crate::prepared::{PreparedLayer, PreparedProgram};
use crate::store::{DiagStore, StoreError};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
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

/// A registered step's place in the resident set (absent: on disk only).
enum Slot {
    /// Being read from disk; a fetch waits on [`PagedProgram::load_done`].
    Loading,
    Resident {
        layer: Arc<PreparedLayer>,
        /// The [`State::clock`] at its last fetch or load: the LRU key.
        last_use: u64,
        /// Loaded by a prefetch and not yet fetched.
        prefetched: bool,
    },
}

#[derive(Default)]
struct State {
    slots: HashMap<usize, Slot>,
    /// The counters and the resident totals, as [`PagedProgram::stats`]
    /// returns them.
    stats: PageStats,
}

impl State {
    /// Every hit, fault and prefetch counts one event before it stamps a
    /// slot, so their sum orders last uses without a clock of its own.
    fn clock(&self) -> u64 {
        self.stats.hits + self.stats.faults + self.stats.prefetches
    }
}

struct PagedEntry {
    name: String,
    bytes: usize,
    /// The spilled layer's [`shape`]; a reload must match it.
    shape: Shape,
}

/// A prepared layer's level, diagonal count, bias block count (`None`:
/// no bias) and the special-limb counts of its diagonals (each distinct
/// count once: `[α(level)]` for a layer its context encoded).
type Shape = (usize, usize, Option<usize>, Vec<usize>);

fn shape(layer: &PreparedLayer) -> Shape {
    let bias = layer.bias.as_ref().map(Vec::len);
    let mut specials: Vec<usize> = (layer.diags.iter().flatten())
        .map(|pt| pt.poly.special.len())
        .collect();
    specials.sort_unstable();
    specials.dedup();
    (layer.level, layer.diags.len(), bias, specials)
}

/// A prepared program whose layers live in [`DiagStore`] spill files and
/// are faulted in on first touch, LRU-evicted under `budget_bytes` (see
/// module docs). Encoded weights and biases are everything a prepared
/// program holds, so the budget covers all of it.
pub struct PagedProgram {
    store: DiagStore,
    budget_bytes: usize,
    entries: HashMap<usize, PagedEntry>,
    state: Mutex<State>,
    /// Signaled whenever a load ends, however it ends (see
    /// [`LoadingGuard`]); fetches of a `Loading` slot sleep here.
    load_done: Condvar,
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
                    shape: shape(layer),
                },
            );
        }
        Ok(Self {
            store,
            budget_bytes,
            entries,
            state: Mutex::new(State::default()),
            load_done: Condvar::new(),
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
        self.state.lock().stats
    }

    /// Reads `entry`'s layer from disk, refusing a file whose level,
    /// diagonal count, bias blocks or diagonals' special-limb count are not
    /// the ones spilled: the executors read the list against the plan, so
    /// a short list would silently drop diagonals, a layer that lost its
    /// bias would be served without one, and a diagonal whose special limbs
    /// are not its level's `α` cannot multiply that level's hoisted
    /// rotations.
    fn load(&self, entry: &PagedEntry) -> Result<PreparedLayer, StoreError> {
        let layer = PreparedLayer::load(&self.store, &entry.name)?;
        let (got, spilled) = (shape(&layer), &entry.shape);
        if got != *spilled {
            let what = format!(
                "{}: (level, diagonals, bias blocks, special limbs) {got:?}, {spilled:?} spilled",
                entry.name
            );
            return Err(StoreError::malformed(what));
        }
        Ok(layer)
    }

    /// The one load body of [`LayerSource::fetch_layer`] and
    /// [`LayerSource::prefetch`], on a `Loading` slot: reads the layer
    /// unlocked, admits it and evicts LRU-first down to the budget — never
    /// the layer just admitted, which an inference holds anyway.
    fn load_and_admit(
        &self,
        step: usize,
        entry: &PagedEntry,
        prefetched: bool,
    ) -> Result<Arc<PreparedLayer>, StoreError> {
        let mut guard = LoadingGuard {
            pager: self,
            step,
            admitted: false,
        };
        let t0 = orion_telemetry::now_ns();
        let layer = orion_telemetry::time_class(orion_telemetry::OpClass::PageLoad, || {
            self.load(entry).map(Arc::new)
        })?;
        let kind = match prefetched {
            true => "page_prefetch",
            false => "page_fault",
        };
        let load_us = (orion_telemetry::now_ns() - t0) / 1_000;
        orion_telemetry::instant!(kind, step = step, bytes = entry.bytes, load_us = load_us);
        let mut st = self.state.lock();
        st.stats.prefetches += u64::from(prefetched);
        st.stats.faults += u64::from(!prefetched);
        let last_use = st.clock();
        let slot = Slot::Resident {
            layer: layer.clone(),
            last_use,
            prefetched,
        };
        let was_loading = matches!(st.slots.insert(step, slot), Some(Slot::Loading));
        guard.admitted = true;
        assert!(was_loading, "layer {step} admitted twice");
        st.stats.resident_bytes += entry.bytes as u64;
        st.stats.resident_layers += 1;
        while st.stats.resident_bytes > self.budget_bytes as u64 {
            let lru = st.slots.iter().filter_map(|(&s, slot)| match slot {
                Slot::Resident { last_use, .. } if s != step => Some((s, *last_use)),
                _ => None,
            });
            let Some((victim, _)) = lru.min_by_key(|&(_, last_use)| last_use) else {
                break;
            };
            st.slots.remove(&victim);
            let bytes = self.entries[&victim].bytes;
            st.stats.resident_bytes -= bytes as u64;
            st.stats.resident_layers -= 1;
            st.stats.evictions += 1;
            orion_telemetry::instant!("page_evict", step = victim, bytes = bytes);
        }
        drop(st);
        Ok(layer) // `guard` wakes the waiters now, with the layer resident
    }
}

/// Wakes every fetcher sleeping on [`PagedProgram::load_done`] when
/// dropped (unwinding too), first removing the `Loading` slot of a load
/// that was not admitted. Only the flag tells the cases apart: once
/// admitted, the layer may be evicted and a new load of the step begun.
struct LoadingGuard<'a> {
    pager: &'a PagedProgram,
    step: usize,
    admitted: bool,
}

impl Drop for LoadingGuard<'_> {
    fn drop(&mut self) {
        if !self.admitted {
            self.pager.state.lock().slots.remove(&self.step);
        }
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
        let mut st = self.state.lock();
        loop {
            let clock = st.clock() + 1;
            let State { slots, stats, .. } = &mut *st;
            match slots.get_mut(&step) {
                Some(Slot::Resident {
                    layer,
                    last_use,
                    prefetched,
                }) => {
                    stats.hits += 1;
                    // a prefetch turned this blocking fault into a hit
                    stats.prefetch_hits += u64::from(std::mem::take(prefetched));
                    *last_use = clock;
                    return Ok(Some(layer.clone()));
                }
                Some(Slot::Loading) => self.load_done.wait(&mut st),
                None => break,
            }
        }
        st.slots.insert(step, Slot::Loading);
        drop(st);
        self.load_and_admit(step, entry, false).map(Some)
    }

    fn prefetch(&self, step: usize) {
        let Some(entry) = self.entries.get(&step) else {
            return;
        };
        let mut st = self.state.lock();
        if st.slots.contains_key(&step) {
            return; // resident or already being read
        }
        st.slots.insert(step, Slot::Loading);
        drop(st);
        // an error is surfaced by the consuming fetch, which retries
        let _ = self.load_and_admit(step, entry, true);
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

    fn test_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("{name}_{}", std::process::id()))
    }

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

        let dir = test_dir("orion_paged_test");
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
            assert_eq!(got.diags.len(), want.diags.len());
            for (at, (a, b)) in got.diags.iter().zip(&want.diags).enumerate() {
                assert_eq!(
                    a.as_ref().map(|pt| &pt.poly),
                    b.as_ref().map(|pt| &pt.poly),
                    "paged layer {step} diagonal {at} diverged"
                );
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
        let dir = test_dir("orion_paged_prefetch_test");
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
        assert_eq!(a.diags.len(), want.diags.len());
        for (a, b) in a.diags.iter().zip(&want.diags) {
            assert_eq!(a.as_ref().map(|pt| &pt.poly), b.as_ref().map(|pt| &pt.poly));
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
        let dir = test_dir("orion_paged_corrupt_test");
        std::fs::remove_dir_all(&dir).ok();
        let store = DiagStore::open(&dir).unwrap();
        let paged = PagedProgram::page_out(&prog, store, "m", usize::MAX).unwrap();
        // Truncate the layer's file behind the pager's back.
        std::fs::write(dir.join("m.step0.prep"), b"ORIONPP2").unwrap();
        match paged.fetch_layer(0) {
            Err(StoreError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {:?}", other.map(|o| o.is_some())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reloaded_layer_with_a_missing_diagonal_is_refused() {
        let ctx = Context::new(CkksParams::tiny());
        let enc = Encoder::new(ctx);
        let prog = sample_program(&enc, 1);
        let dir = test_dir("orion_paged_short_test");
        std::fs::remove_dir_all(&dir).ok();
        let paged =
            PagedProgram::page_out(&prog, DiagStore::open(&dir).unwrap(), "m", usize::MAX).unwrap();
        // A well-formed file for the same layer with its last diagonal cut.
        let layer = prog.layer(0).unwrap();
        let short = &layer.diags[..layer.diags.len() - 1];
        let store = DiagStore::open(&dir).unwrap();
        (store.save_prepared("m.step0", layer.level, short, layer.bias.as_deref())).unwrap();
        match paged.fetch_layer(0) {
            Err(StoreError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {:?}", other.map(|o| o.is_some())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reloaded_layer_with_another_special_limb_count_is_refused() {
        // A well-formed file for the same layer whose diagonals carry one
        // special limb fewer than their level's α: the key-switch basis of
        // another chain.
        let ctx = Context::new(CkksParams::tiny());
        let enc = Encoder::new(ctx.clone());
        let prog = sample_program(&enc, 1);
        let layer = prog.layer(0).unwrap();
        let dir = test_dir("orion_paged_special_test");
        std::fs::remove_dir_all(&dir).ok();
        let paged =
            PagedProgram::page_out(&prog, DiagStore::open(&dir).unwrap(), "m", usize::MAX).unwrap();
        let mut fewer = layer.diags.clone();
        for pt in fewer.iter_mut().flatten() {
            pt.poly.special.pop();
        }
        let store = DiagStore::open(&dir).unwrap();
        (store.save_prepared("m.step0", layer.level, &fewer, layer.bias.as_deref())).unwrap();
        match paged.fetch_layer(0) {
            Err(StoreError::Malformed { what }) => assert!(what.contains("special"), "{what}"),
            other => panic!("expected Malformed, got {:?}", other.map(|o| o.is_some())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reloaded_layer_at_another_level_or_bias_is_refused() {
        let ctx = Context::new(CkksParams::tiny());
        let enc = Encoder::new(ctx.clone());
        let unbiased = sample_program(&enc, 1);
        let layer = unbiased.layer(0).unwrap();
        let bias = vec![enc.encode(&[0.5], ctx.scale(), layer.level - 1, false)];
        let mut biased = PreparedProgram::new();
        let with_bias = PreparedLayer {
            level: layer.level,
            diags: layer.diags.clone(),
            bias: Some(bias.clone()),
        };
        biased.insert(0, with_bias);
        let dir = test_dir("orion_paged_shape_test");
        // (what changed, the program spilled, the level and bias re-saved)
        let cases = [
            ("level + 1", &unbiased, layer.level + 1, None),
            (
                "a bias it never had",
                &unbiased,
                layer.level,
                Some(&bias[..]),
            ),
            ("its bias dropped", &biased, layer.level, None),
        ];
        for (what, prog, level, bias) in cases {
            std::fs::remove_dir_all(&dir).ok();
            let store = DiagStore::open(&dir).unwrap();
            let paged = PagedProgram::page_out(prog, store, "m", usize::MAX).unwrap();
            let store = DiagStore::open(&dir).unwrap();
            (store.save_prepared("m.step0", level, &layer.diags, bias)).unwrap();
            match paged.fetch_layer(0) {
                Err(StoreError::Malformed { .. }) => {}
                other => panic!(
                    "{what}: expected Malformed, got {:?}",
                    other.map(|o| o.is_some())
                ),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
