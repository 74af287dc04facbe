//! Shared helpers for the table/figure harnesses.
//!
//! Each paper artifact has a dedicated binary (see README, "Reproducing
//! paper artifacts"):
//!
//! | artifact | binary |
//! |---|---|
//! | Figure 1 (op latencies vs level) | `fig1_latency` |
//! | Figure 2 / §3 (BSGS savings) | `fig2_bsgs` |
//! | Figure 5 (single-shot multiplexing) | `fig5_multiplex` |
//! | Table 2 (all networks) | `table2_networks` |
//! | Table 3 (packing vs Lee et al.) | `table3_packing` |
//! | Table 4 (ResNet-20 vs Fhelipe-style baseline) | `table4_resnet20` |
//! | Table 5 (placement scalability) | `table5_scaling` |
//! | Figure 8 (YOLO-v1 detection) | `fig8_yolo` |
//!
//! The benches in `benches/` (`cargo bench -p orion-bench`) cover the
//! paper mechanisms the repo benchmark (`perf/`) does not measure:
//! packing, placement and the ablations. Each is a plain `main` over
//! [`bench()`], a `std` timer. Kernel, op and scheduler timings are
//! `perf`'s `math.*`, `ckks.*` and `sched.*` metrics.

use orion::core::Orion;
use orion_models::data::synthetic_images;
use orion_nn::compile::Compiled;
use orion_nn::fit::calibrate_batch_norm;
use orion_nn::network::Network;
use orion_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Builds, BN-calibrates, and compiles a zoo model at paper scale.
/// Returns the network, the compiled program, and the calibration set.
pub fn prepare_model(
    name: &str,
    act: orion_models::Act,
    calib_count: usize,
    seed: u64,
) -> (Network, Compiled, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut net, info) = orion_models::build(name, act, &mut rng);
    let (c, h, w) = info.input;
    let calib = synthetic_images(c, h, w, calib_count, seed + 1);
    calibrate_batch_norm(&mut net, &calib);
    let orion = Orion::paper_scale();
    let compiled = orion.compile(&net, &calib);
    (net, compiled, calib)
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!("{:>w$}  ", c, w = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.2}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else if s < 600.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.2}h", s / 3600.0)
    }
}

/// Times `f`: one warm-up call, then `samples` timed calls, each result
/// passed through [`black_box`]. Prints the median and the fastest call
/// under `name` and returns them, in seconds.
pub fn bench<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) -> (f64, f64) {
    black_box(f());
    let mut secs: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    let (median, fastest) = (secs[secs.len() / 2], secs[0]);
    println!(
        "bench {name:<44} median {:>10}  fastest {:>10}  ({} samples)",
        fmt_secs(median),
        fmt_secs(fastest),
        secs.len()
    );
    (median, fastest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn bench_warms_up_once_then_times_every_sample() {
        let mut calls = 0;
        let (median, fastest) = bench("count", 5, || calls += 1);
        assert_eq!(calls, 1 + 5);
        assert!(0.0 <= fastest && fastest <= median);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(0.000_01).ends_with("µs"));
        assert!(fmt_secs(0.001).ends_with("ms"));
        assert!(fmt_secs(5.0).ends_with('s'));
        assert!(fmt_secs(7200.0).ends_with('h'));
    }
}
