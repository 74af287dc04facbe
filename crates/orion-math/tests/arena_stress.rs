//! Concurrency stress for the limb arena: many threads borrowing and
//! returning buffers at once. Verifies the arena's invariants under
//! contention — exact lengths, zeroing of non-raw takes, and no two live
//! buffers sharing storage.

use orion_math::arena;

#[test]
fn concurrent_take_recycle_holds_invariants() {
    let tags: Vec<u64> = (0..64).map(|i| 0x1000 + i).collect();
    std::thread::scope(|s| {
        for &tag in &tags {
            s.spawn(move || {
                for round in 0..50u32 {
                    // Two live u64 buffers of the same length must be
                    // distinct storage (the freelist pops, never shares).
                    let mut a = arena::take_u64(777);
                    let mut b = arena::take_u64_raw(777);
                    assert_ne!(a.as_ptr(), b.as_ptr(), "aliased buffers");
                    assert_eq!(a.len(), 777);
                    assert_eq!(b.len(), 777);
                    assert!(
                        a.iter().all(|&x| x == 0),
                        "take_u64 returned dirty buffer (round {round})"
                    );
                    a.fill(tag);
                    b.fill(tag ^ 0xffff);
                    assert!(a.iter().all(|&x| x == tag));
                    assert!(b.iter().all(|&x| x == tag ^ 0xffff));
                    arena::recycle_u64(a);
                    arena::recycle_u64(b);

                    // Mixed lengths and element types in flight at once.
                    let mut c = arena::take_i128(33);
                    let d = arena::take_i128_raw(65);
                    assert!(c.iter().all(|&x| x == 0));
                    assert_eq!(d.len(), 65);
                    c.fill(tag as i128);
                    arena::recycle_i128(c);
                    arena::recycle_i128(d);

                    // Guards recycle through drop under contention too.
                    let mut g = arena::scratch_u64(129);
                    g[128] = tag;
                    drop(g);
                }
            });
        }
    });
}

#[test]
fn recycled_buffers_are_actually_reused() {
    // Sequential sanity: a take after a recycle of the same length is a
    // pool hit, and its contents were re-zeroed.
    let mut b = arena::take_u64(12_345);
    b.fill(u64::MAX);
    arena::recycle_u64(b);
    let before = arena::stats_u64();
    let b2 = arena::take_u64(12_345);
    let after = arena::stats_u64();
    assert_eq!(after.hits, before.hits + 1);
    assert!(b2.iter().all(|&x| x == 0));
}
