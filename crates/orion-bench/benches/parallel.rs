//! Sequential vs. rayon limb-parallel comparison for the RNS hot paths
//! (per-limb NTT batches, key-switch digit decomposition), with a
//! machine-readable JSON summary for the perf trajectory written to
//! `target/parallel_bench.json`.
//!
//! Run with `cargo bench --bench parallel`.

use criterion::Criterion;
use orion_ckks::hoist::decompose_digits;
use orion_ckks::params::{CkksParams, Context};
use orion_ckks::poly::{Form, RnsPoly};
use orion_math::generate_ntt_primes;
use orion_math::ntt::NttTable;
use orion_math::parallel::ntt_forward_batch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

const DEGREE: usize = 1 << 13;
const LIMBS: usize = 12;

fn make_tables() -> Vec<NttTable> {
    generate_ntt_primes(DEGREE, 45, LIMBS, &[])
        .into_iter()
        .map(|q| NttTable::new(DEGREE, q))
        .collect()
}

fn make_limbs(tables: &[NttTable], seed: u64) -> Vec<Vec<u64>> {
    tables
        .iter()
        .map(|t| {
            (0..DEGREE as u64)
                .map(|i| (i.wrapping_mul(i) ^ seed) % t.q)
                .collect()
        })
        .collect()
}

fn bench_ntt_batch(c: &mut Criterion) {
    let tables = make_tables();
    let data = make_limbs(&tables, 7);
    let mut g = c.benchmark_group("ntt_batch");
    g.sample_size(15);
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let mut limbs = data.clone();
            for (t, a) in tables.iter().zip(limbs.iter_mut()) {
                t.forward(a);
            }
            limbs
        })
    });
    g.bench_function("parallel", |b| {
        b.iter(|| {
            let mut limbs = data.clone();
            ntt_forward_batch(
                tables
                    .iter()
                    .zip(limbs.iter_mut().map(|v| &mut v[..]))
                    .collect(),
            );
            limbs
        })
    });
    g.finish();
}

fn bench_digit_decomposition(c: &mut Criterion) {
    let ctx = Context::new(CkksParams::medium());
    let mut rng = StdRng::seed_from_u64(13);
    let poly = RnsPoly::sample_uniform(&ctx, ctx.max_level(), Form::Eval, false, &mut rng);
    let mut g = c.benchmark_group("ks_decompose");
    g.sample_size(10);
    g.bench_function("parallel", |b| b.iter(|| decompose_digits(&ctx, &poly)));
    g.finish();
}

fn median_of(c: &Criterion, name: &str) -> Option<f64> {
    c.measurements
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.median_ns)
}

fn write_summary(c: &Criterion) {
    let speedup = |base: &str| -> Option<f64> {
        let seq = median_of(c, &format!("{base}/sequential"))?;
        let par = median_of(c, &format!("{base}/parallel"))?;
        Some(seq / par)
    };
    let benches: Vec<Value> = c
        .measurements
        .iter()
        .map(|m| {
            Value::Obj(vec![
                ("name".into(), Value::Str(m.name.clone())),
                ("median_ns".into(), Value::Num(m.median_ns)),
                ("mean_ns".into(), Value::Num(m.mean_ns)),
                ("samples".into(), Value::Num(m.samples as f64)),
            ])
        })
        .collect();
    let mut speedups = Vec::new();
    if let Some(s) = speedup("ntt_batch") {
        println!("speedup ntt_batch: {s:.2}x over sequential");
        speedups.push((
            "ntt_batch".to_string(),
            Value::Num((s * 100.0).round() / 100.0),
        ));
    }
    let summary = Value::Obj(vec![
        ("degree".into(), Value::Num(DEGREE as f64)),
        ("limbs".into(), Value::Num(LIMBS as f64)),
        (
            "threads".into(),
            Value::Num(rayon::current_num_threads() as f64),
        ),
        ("benches".into(), Value::Arr(benches)),
        ("speedup".into(), Value::Obj(speedups)),
    ]);
    let text = serde_json::to_string_pretty(&summary).expect("summary serializes");
    let path = orion_bench::workspace_target_dir();
    std::fs::create_dir_all(&path).ok();
    let file = path.join("parallel_bench.json");
    match std::fs::write(&file, &text) {
        Ok(()) => println!("wrote {}", file.display()),
        Err(e) => eprintln!("could not write {}: {e}", file.display()),
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_ntt_batch(&mut c);
    bench_digit_decomposition(&mut c);
    write_summary(&c);
}
