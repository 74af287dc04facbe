//! Concurrent paging stress: many threads fetching and prefetching
//! overlapping layer sets against one [`PagedProgram`]. What must hold
//! under contention:
//!
//! * **Single-flight** — concurrent touches of one layer perform exactly
//!   one disk load (fault/prefetch count == distinct loads when nothing
//!   is evicted).
//! * **Budget** — the resident set never exceeds the byte budget in any
//!   observed snapshot (the stats lock makes each snapshot consistent).
//! * **Liveness** — condvar waiters always wake (the tests would hang CI
//!   otherwise), including when a load returns a typed error.
//! * **Bit-exactness** — every fetched layer is identical to the
//!   resident original, no matter which thread faulted it in.

use orion_ckks::encoder::Encoder;
use orion_ckks::params::{CkksParams, Context};
use orion_linear::layout::TensorLayout;
use orion_linear::paged::{LayerSource, PagedProgram};
use orion_linear::plan::{conv_plan, ConvSpec};
use orion_linear::prepared::{PreparedLayer, PreparedProgram};
use orion_linear::store::{DiagStore, StoreError};
use orion_linear::values::ConvDiagSource;
use orion_tensor::Tensor;
use std::sync::Arc;

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

fn assert_bit_exact(got: &PreparedLayer, want: &PreparedLayer, step: usize) {
    assert_eq!(got.level, want.level, "layer {step} level diverged");
    assert_eq!(got.num_plaintexts(), want.num_plaintexts());
    assert_eq!(got.diags.len(), want.diags.len());
    for (at, (a, b)) in got.diags.iter().zip(&want.diags).enumerate() {
        assert_eq!(
            a.as_ref().map(|pt| &pt.poly),
            b.as_ref().map(|pt| &pt.poly),
            "layer {step} diagonal {at} diverged"
        );
    }
}

struct TempPager {
    paged: Arc<PagedProgram>,
    dir: std::path::PathBuf,
}

impl Drop for TempPager {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn paged(name: &str, prog: &PreparedProgram, budget_bytes: usize) -> TempPager {
    let dir =
        std::env::temp_dir().join(format!("orion_paged_stress_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = DiagStore::open(&dir).unwrap();
    let paged = Arc::new(PagedProgram::page_out(prog, store, "m", budget_bytes).unwrap());
    TempPager { paged, dir }
}

/// Everything fits: no matter how many threads hammer the same layers
/// (with prefetches racing the fetches), each layer is read from disk
/// exactly once.
#[test]
fn concurrent_fetches_are_single_flight() {
    const THREADS: usize = 8;
    const LAYERS: usize = 3;
    let ctx = Context::new(CkksParams::tiny());
    let enc = Encoder::new(ctx);
    let prog = sample_program(&enc, LAYERS);
    let t = paged("single_flight", &prog, usize::MAX);

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let pager = t.paged.clone();
            let prog = &prog;
            s.spawn(move || {
                for i in 0..LAYERS {
                    // stagger per-thread orders so loads genuinely race
                    let step = (i + tid) % LAYERS;
                    if tid % 2 == 0 {
                        pager.prefetch(step);
                    }
                    let got = pager.fetch_layer(step).unwrap().unwrap();
                    assert_bit_exact(&got, prog.layer(step).unwrap(), step);
                }
            });
        }
    });

    let stats = t.paged.stats();
    // single-flight: with no evictions possible, total disk loads
    // (blocking faults + prefetch loads) == distinct layers
    assert_eq!(stats.evictions, 0);
    assert_eq!(
        stats.faults + stats.prefetches,
        LAYERS as u64,
        "duplicate loads under contention: {stats:?}"
    );
    // every fetch either faulted or hit
    assert_eq!(stats.hits + stats.faults, (THREADS * LAYERS) as u64);
    assert_eq!(stats.resident_layers, LAYERS as u64);
}

/// Overlapping working sets under a budget that holds ~1.5 of 4 layers:
/// eviction storms, re-faults, and prefetches racing fetches. The budget
/// must hold in every snapshot and every fetched layer stays bit-exact.
#[test]
fn tight_budget_stress_stays_exact_and_bounded() {
    const THREADS: usize = 8;
    const ITERS: usize = 25;
    const LAYERS: usize = 4;
    let ctx = Context::new(CkksParams::tiny());
    let enc = Encoder::new(ctx);
    let prog = sample_program(&enc, LAYERS);
    let layer_bytes = prog.layer(0).unwrap().approx_bytes();
    let budget = layer_bytes * 3 / 2;
    let t = paged("tight_budget", &prog, budget);

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let pager = t.paged.clone();
            let prog = &prog;
            s.spawn(move || {
                for i in 0..ITERS {
                    let step = (i + tid) % LAYERS;
                    if i % 3 == 0 {
                        pager.prefetch((step + 1) % LAYERS);
                    }
                    let got = pager.fetch_layer(step).unwrap().unwrap();
                    assert_bit_exact(&got, prog.layer(step).unwrap(), step);
                    let snap = pager.stats();
                    assert!(
                        snap.resident_bytes <= budget as u64,
                        "budget exceeded: {} > {budget}",
                        snap.resident_bytes
                    );
                }
            });
        }
    });

    let stats = t.paged.stats();
    // conservation: every fetch_layer call was either a hit or a fault
    assert_eq!(stats.hits + stats.faults, (THREADS * ITERS) as u64);
    // the budget forced evictions and re-faults
    assert!(stats.evictions > 0, "stress never evicted: {stats:?}");
    assert!(stats.resident_bytes <= budget as u64);
    // a load is only ever dropped by an eviction
    assert!(stats.faults + stats.prefetches <= stats.evictions + stats.resident_layers);
}

/// A layer whose spill file is corrupt: every concurrent fetcher gets the
/// typed error and RETURNS — the failing load's guard must clear the
/// single-flight marker and wake waiters, or this test hangs.
#[test]
fn erroring_load_wakes_waiters_and_clears_single_flight() {
    const THREADS: usize = 4;
    let ctx = Context::new(CkksParams::tiny());
    let enc = Encoder::new(ctx);
    let prog = sample_program(&enc, 1);
    let t = paged("corrupt", &prog, usize::MAX);
    // truncate the layer's file behind the pager's back
    std::fs::write(t.dir.join("m.step0.prep"), b"ORIONPP2").unwrap();

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let pager = t.paged.clone();
            s.spawn(move || match pager.fetch_layer(0) {
                Err(StoreError::Malformed { .. }) => {}
                other => panic!("expected Malformed, got {:?}", other.map(|o| o.is_some())),
            });
        }
    });
    // the marker is clear: a later fetch still fails typed, not hangs
    assert!(matches!(
        t.paged.fetch_layer(0),
        Err(StoreError::Malformed { .. })
    ));
    assert_eq!(t.paged.stats().resident_layers, 0);
}
