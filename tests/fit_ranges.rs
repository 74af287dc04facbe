//! The activation ranges `compile_zoo` fits, pinned to the bit. Range
//! fitting runs the network in the clear twice (BN calibration, then one
//! pass under the polynomials fitted so far), so any drift in the
//! cleartext conv, pooling or activation evaluation moves a range here —
//! which `cost_fold`'s plan and placement digests cannot see, since those
//! depend on degrees, not ranges.
//!
//! resnet20 runs in the default suite; the two larger networks,
//! mobilenet and resnet110, are `#[ignore]`d to keep it short and run in
//! release: `cargo test --release --test fit_ranges -- --ignored`.

use orion::models::data::synthetic_images;
use orion::models::{build, Act};
use orion::nn::fit::{calibrate_batch_norm, fit};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    (words.into_iter())
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `compile_zoo`'s set-up for its `i`-th network at `--seed 7` — SiLU-63,
/// weights from seed `0x200 + i`, one calibration image from seed `7 + i`,
/// BN calibration then `fit` — digested as FNV-1a over
/// `(node id, range.to_bits())` in node order.
fn range_digest(name: &str, i: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x200 + i);
    let (mut net, info) = build(name, Act::SiluDeg(63), &mut rng);
    let (c, h, w) = info.input;
    let calib = synthetic_images(c, h, w, 1, 7 + i);
    calibrate_batch_norm(&mut net, &calib);
    let mut ranges: Vec<_> = fit(&net, &calib).ranges.into_iter().collect();
    ranges.sort_by_key(|&(id, _)| id);
    fnv(ranges
        .into_iter()
        .flat_map(|(id, m)| [id as u64, m.to_bits()]))
}

#[test]
fn resnet20_ranges_are_pinned() {
    assert_eq!(range_digest("resnet20", 0), 0x16d7_f56f_4c13_9ae2);
}

#[test]
#[ignore = "a larger network; run in release with --ignored"]
fn mobilenet_ranges_are_pinned() {
    assert_eq!(range_digest("mobilenet", 1), 0x40dd_36b4_efe4_65f2);
}

#[test]
#[ignore = "a larger network; run in release with --ignored"]
fn resnet110_ranges_are_pinned() {
    assert_eq!(range_digest("resnet110", 2), 0x88af_84e8_f2a5_684b);
}
