//! What the harness learns about the machine and its own process without
//! calling any program code: `/proc` accounting, a fixed calibration loop,
//! a streaming-copy bandwidth baseline, and scratch directories.

use crate::stats::median;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_field_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field_kb("VmHWM:") / 1000.0
}

/// Current resident set, in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_field_kb("VmRSS:") / 1000.0
}

/// `(user, system)` CPU seconds of this process, all threads.
pub fn cpu_seconds() -> (f64, f64) {
    // Fields 14 and 15 of /proc/self/stat, counted after the ")" that ends
    // the command name, in clock ticks; Linux fixes USER_HZ at 100.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut f = rest.split_whitespace().skip(11);
    let tick = |x: Option<&str>| x.and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0) / 100.0;
    let user = tick(f.next());
    (user, tick(f.next()))
}

/// A fixed integer mul-add + memcpy loop, in ms. It runs no program code,
/// so a change in it between rounds is the host, not the repo.
pub fn calib_ms() -> f64 {
    let src = vec![1u64; 1 << 17];
    let mut dst = vec![0u64; 1 << 17];
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0x9e37_79b9u64;
            for i in 0..6_000_000u64 {
                acc = black_box(acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
            for _ in 0..24 {
                dst.copy_from_slice(black_box(&src));
                black_box(&mut dst);
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Writes one byte into every page of a fresh `mb`-megabyte allocation,
/// frees it, and resets the peak the kernel keeps for `peak_rss_mb`. A
/// process that first touches memory pays the hypervisor for backing it,
/// and on the reference host that cost swings between 1.5 and 14 s for
/// `lola_linear`'s 2.2 GB of keys; after this the set-up that is timed pays
/// only the guest's own page faults, which repeat. Does nothing where the
/// peak cannot be reset, so that `peak_rss_mb` never reads this block.
pub fn pretouch(mb: usize) {
    // "5" clears the peak resident set size (proc(5), Linux 4.0)
    let reset_peak = || std::fs::write("/proc/self/clear_refs", "5").is_ok();
    if !reset_peak() {
        return;
    }
    let mut block = vec![0u8; mb << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    black_box(&mut block);
    drop(block);
    reset_peak();
}

/// Last-level cache size in bytes, if the kernel exposes it.
pub fn llc_bytes() -> Option<usize> {
    (0..=4).rev().find_map(|i| {
        let s =
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()?;
        let s = s.trim();
        let (num, mul) = match s.chars().last()? {
            'K' => (&s[..s.len() - 1], 1 << 10),
            'M' => (&s[..s.len() - 1], 1 << 20),
            _ => (s, 1),
        };
        Some(num.parse::<usize>().ok()? * mul)
    })
}

pub const STREAM_ARRAY_BYTES: usize = 32 << 20;

/// Streaming copy bandwidth in GB/s (bytes read + bytes written per
/// second), the baseline `math.ntt_bw_share` is a share of.
pub fn stream_copy_gbps() -> f64 {
    let n = STREAM_ARRAY_BYTES / 8;
    let src = vec![3u64; n];
    let mut dst = vec![0u64; n];
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            (2 * STREAM_ARRAY_BYTES) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&samples)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host facts every results file carries, as `(key, value)` rows.
pub fn fingerprint(simd_dispatch: &str) -> Vec<(&'static str, String)> {
    let llc = llc_bytes();
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu_model()),
        ("simd_dispatch", simd_dispatch.to_string()),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
        ("llc_bytes", llc.map_or("unknown".into(), |b| b.to_string())),
        ("stream_array_bytes", STREAM_ARRAY_BYTES.to_string()),
        (
            "stream_copy_is",
            match llc {
                Some(b) if STREAM_ARRAY_BYTES < 4 * b => "cache-resident".into(),
                Some(_) => "memory-bound".into(),
                None => "unknown".into(),
            },
        ),
    ]
}

/// A scratch directory unique to this process, removed on drop. It lives
/// under the benchmark's own `perf/results/`, so nothing is written outside
/// the checkout and concurrent runs cannot collide on a shared `/tmp` path.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = results_dir().join(format!("tmp-{label}-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `perf/results/` next to this crate's manifest (git-ignored).
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_numbers() {
        assert!(peak_rss_mb() >= rss_mb() * 0.5 && rss_mb() > 0.0);
        let (u, s) = cpu_seconds();
        assert!(u >= 0.0 && s >= 0.0);
    }

    #[test]
    fn pretouch_leaves_no_trace_in_the_peak() {
        pretouch(64);
        // a block of 64 MB was resident a moment ago
        assert!(peak_rss_mb() < rss_mb() + 32.0, "{}", peak_rss_mb());
    }

    #[test]
    fn scratch_dirs_are_unique_and_removed() {
        let a = ScratchDir::new("t").unwrap();
        let b = ScratchDir::new("t").unwrap();
        assert_ne!(a.path(), b.path());
        let p = a.path().to_path_buf();
        assert!(p.is_dir());
        drop(a);
        assert!(!p.exists());
    }
}
