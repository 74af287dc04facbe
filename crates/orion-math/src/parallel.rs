//! The shared limb-parallel engine.
//!
//! RNS-CKKS spends almost all of its time in loops that are independent
//! *per limb* (one residue vector per chain modulus): NTTs, pointwise
//! modular arithmetic, key-switch digit decomposition. This module is the
//! single place that decides when such a loop is worth fanning out onto
//! the shared rayon pool and runs it there, so callers (`orion-ckks`'s
//! `RnsPoly`, hoisting, the linear executors) never spawn threads
//! themselves.
//!
//! The gate matters: at the tiny test ring (N = 2¹⁰, ≤ 5 limbs) dispatch
//! overhead would dominate, so small workloads stay sequential and the
//! unit-test suite is unaffected. Demo rings (N ≥ 2¹²) and paper-scale
//! parameters clear the threshold and use every core.

use crate::ntt::NttTable;
use rayon::prelude::*;

/// Minimum total element count (`degree × limbs`) before a pointwise
/// limb loop is fanned out.
pub const PAR_POINTWISE_MIN: usize = 1 << 15;

/// Minimum ring degree before per-limb NTT batches are fanned out (an NTT
/// is `O(N log N)`, so it clears overhead at a smaller element count).
pub const PAR_NTT_MIN_DEGREE: usize = 1 << 12;

/// Whether a pointwise loop over `limbs` vectors of `degree` elements
/// should run in parallel.
pub fn pointwise_parallel(degree: usize, limbs: usize) -> bool {
    limbs >= 2 && degree * limbs >= PAR_POINTWISE_MIN && rayon::current_num_threads() > 1
}

/// Whether a batch of `limbs` NTTs of `degree` points should run in
/// parallel.
pub fn ntt_parallel(degree: usize, limbs: usize) -> bool {
    limbs >= 2 && degree >= PAR_NTT_MIN_DEGREE && rayon::current_num_threads() > 1
}

/// Runs `f(index, item)` over every item, in parallel when `parallel`.
pub fn for_each_mut<T, F>(items: &mut [T], parallel: bool, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if parallel {
        items.par_iter_mut().enumerate().for_each(|(i, x)| f(i, x));
    } else {
        for (i, x) in items.iter_mut().enumerate() {
            f(i, x);
        }
    }
}

/// Runs `f(index, item, scratch)` over every item with a reusable scratch
/// buffer, so per-item allocations are hoisted out of hot loops: one
/// scratch per worker chunk in parallel mode, a single scratch for the
/// whole loop sequentially.
pub fn for_each_mut_scratch<T, S, I, F>(items: &mut [T], parallel: bool, init: I, f: F)
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut T, &mut S) + Sync,
{
    if parallel && items.len() > 1 {
        let chunk = items.len().div_ceil(rayon::current_num_threads().max(1));
        items
            .par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(ci, part)| {
                let mut scratch = init();
                for (k, x) in part.iter_mut().enumerate() {
                    f(ci * chunk + k, x, &mut scratch);
                }
            });
    } else {
        let mut scratch = init();
        for (i, x) in items.iter_mut().enumerate() {
            f(i, x, &mut scratch);
        }
    }
}

/// Whether a batch of `n` independent coarse-grained jobs (e.g. plaintext
/// encodes at setup time) is worth fanning out.
pub fn batch_parallel(n: usize) -> bool {
    n >= 4 && rayon::current_num_threads() > 1
}

/// Builds a `Vec` from `f(0..n)`, in parallel when `parallel`. Order is
/// preserved either way.
pub fn map_indexed<T, F>(n: usize, parallel: bool, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if parallel {
        (0..n).into_par_iter().map(f).collect()
    } else {
        (0..n).map(f).collect()
    }
}

/// A spawn scope on the shared pool — see [`rayon::Scope`].
pub use rayon::Scope;

/// Runs `op` with a spawn [`Scope`] on the shared pool and waits (by
/// helping with queued work, not spin-sleeping) until every task spawned
/// on the scope has completed.
///
/// It complements the fork-join shape of [`map_indexed`]: `op` keeps
/// running on the calling thread while the tasks it spawns — which may
/// borrow from the caller's frame, and may spawn further tasks onto the
/// same scope — run beside it on the pool. The plan walk runs inside one
/// and spawns a pager's prefetch of each upcoming linear layer onto it. A
/// panic in `op` or any task is rethrown at scope exit, after all spawned
/// tasks have drained.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    rayon::scope(op)
}

/// Forward-NTTs every `(table, limb)` pair, fanning out across limbs when
/// the ring is large enough. Uses the lazy-reduction butterflies
/// (bit-identical to the strict path).
pub fn ntt_forward_batch(pairs: Vec<(&NttTable, &mut [u64])>) {
    orion_telemetry::time_class(orion_telemetry::OpClass::NttFwd, || {
        let degree = pairs.first().map(|(t, _)| t.n).unwrap_or(0);
        if ntt_parallel(degree, pairs.len()) {
            pairs.into_par_iter().for_each(|(t, a)| t.forward_lazy(a));
        } else {
            for (t, a) in pairs {
                t.forward_lazy(a);
            }
        }
    })
}

/// Inverse-NTTs every `(table, limb)` pair (see [`ntt_forward_batch`]).
pub fn ntt_inverse_batch(pairs: Vec<(&NttTable, &mut [u64])>) {
    orion_telemetry::time_class(orion_telemetry::OpClass::NttInv, || {
        let degree = pairs.first().map(|(t, _)| t.n).unwrap_or(0);
        if ntt_parallel(degree, pairs.len()) {
            pairs.into_par_iter().for_each(|(t, a)| t.inverse_lazy(a));
        } else {
            for (t, a) in pairs {
                t.inverse_lazy(a);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;

    #[test]
    fn gates_respect_thresholds() {
        // tiny test ring stays sequential
        assert!(!pointwise_parallel(1 << 10, 5));
        assert!(!ntt_parallel(1 << 10, 5));
        // single limb never parallelizes
        assert!(!ntt_parallel(1 << 13, 1));
    }

    #[test]
    fn ntt_batch_matches_sequential() {
        let n = 1 << 12; // above PAR_NTT_MIN_DEGREE → parallel path
        let primes = generate_ntt_primes(n, 45, 3, &[]);
        let tables: Vec<NttTable> = primes.iter().map(|&q| NttTable::new(n, q)).collect();
        let mk = |seed: u64| -> Vec<Vec<u64>> {
            tables
                .iter()
                .map(|t| (0..n as u64).map(|i| (i * i + seed) % t.q).collect())
                .collect()
        };
        let mut par = mk(7);
        let mut seq = mk(7);
        ntt_forward_batch(
            tables
                .iter()
                .zip(par.iter_mut().map(|v| &mut v[..]))
                .collect(),
        );
        for (t, a) in tables.iter().zip(seq.iter_mut()) {
            t.forward(a);
        }
        assert_eq!(par, seq);
        ntt_inverse_batch(
            tables
                .iter()
                .zip(par.iter_mut().map(|v| &mut v[..]))
                .collect(),
        );
        for (i, limb) in par.iter().enumerate() {
            let orig: Vec<u64> = (0..n as u64).map(|k| (k * k + 7) % tables[i].q).collect();
            assert_eq!(*limb, orig);
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        let v = map_indexed(100, true, |i| i * 3);
        assert_eq!(v, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_loop_matches_plain_loop_both_modes() {
        for parallel in [false, true] {
            let mut items: Vec<u64> = (0..97).collect();
            for_each_mut_scratch(&mut items, parallel, Vec::<u64>::new, |i, x, scratch| {
                scratch.clear();
                scratch.extend((0..4).map(|k| i as u64 + k));
                *x += scratch.iter().sum::<u64>();
            });
            let expect: Vec<u64> = (0..97u64).map(|i| i + 4 * i + 6).collect();
            assert_eq!(items, expect, "parallel={parallel}");
        }
    }

    #[test]
    fn batch_gate_needs_multiple_jobs() {
        assert!(!batch_parallel(1));
        assert!(!batch_parallel(3));
    }

    #[test]
    fn scope_drains_spawned_and_respawned_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                let hits = &hits;
                s.spawn(move |s| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    // a task enqueues a successor
                    s.spawn(move |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }
}
