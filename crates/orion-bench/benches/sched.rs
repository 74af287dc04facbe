//! Wire-level scheduler: sequential vs event-driven dataflow execution of
//! the same compiled programs on real CKKS, with a machine-readable summary
//! written to `target/sched_bench.json`.
//!
//! Two programs are measured, both served from a prepared + memory-capped
//! paged weight source (the serving hot path) — see
//! [`orion_bench::models`] for the workload definitions; the same models
//! feed the `bench_matrix` thread sweep.
//!
//! Run with `cargo bench --bench sched`.

use criterion::Criterion;
use orion_bench::models::{
    boot_deep_fork_net, e2e_model, measure_model, nonlinear_model, opt_comparison, resnet_fork_net,
};
use orion_nn::sched::SchedMode;
use orion_sim::{OpCounter, OpKind};
use serde::Value;

const MODES: [(&str, SchedMode); 2] = [
    ("sequential", SchedMode::Sequential),
    ("parallel", SchedMode::Parallel),
];

fn main() {
    let e2e = e2e_model();
    let nonlinear = nonlinear_model();

    let mut c = Criterion::default();
    measure_model(&mut c, "serve_e2e", &e2e, &MODES, 5);
    measure_model(&mut c, "nonlinear", &nonlinear, &MODES, 5);

    let median = |name: &str| -> f64 {
        c.measurements
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.median_ns)
            .unwrap_or(f64::NAN)
    };
    let mut fields = vec![
        (
            "threads".to_string(),
            Value::Num(rayon::current_num_threads() as f64),
        ),
        (
            "boot_sites_nonlinear".to_string(),
            Value::Num(nonlinear.compiled.placement.boot_count as f64),
        ),
    ];
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    for group in ["serve_e2e", "nonlinear"] {
        let seq = median(&format!("{group}/sequential"));
        let par = median(&format!("{group}/parallel"));
        let speedup = seq / par;
        println!("{group}: seq {seq:.0} ns, event {par:.0} ns, {speedup:.2}x vs seq");
        fields.push((format!("{group}_sequential_ns"), Value::Num(seq)));
        fields.push((format!("{group}_parallel_ns"), Value::Num(par)));
        fields.push((format!("{group}_speedup"), Value::Num(round2(speedup))));
    }
    // Plan-optimizer ratios: unoptimized / optimized op tallies of the
    // residual-fork models (≥ 1.0 by construction; strictly > 1.0 for
    // rotations and key-switch decompositions — both forks share their
    // branches' rotation sets, the guaranteed CSE win).
    for (name, net) in [
        ("resnet_fork", resnet_fork_net()),
        ("boot_deep", boot_deep_fork_net()),
    ] {
        let cmp = opt_comparison(&net);
        if name == "boot_deep" {
            assert!(cmp.boot_count > 0, "boot_deep model must bootstrap");
        }
        let ks = |c: &OpCounter| c.count(OpKind::Hoist) + c.count(OpKind::HRot);
        let rot_ratio = cmp.noopt.rotations() as f64 / cmp.opt.rotations() as f64;
        let ks_ratio = ks(&cmp.noopt) as f64 / ks(&cmp.opt) as f64;
        assert!(
            rot_ratio > 1.0 && ks_ratio > 1.0,
            "{name}: optimizer must strictly reduce rotations \
             ({rot_ratio:.2}) and key-switch decompositions ({ks_ratio:.2})"
        );
        println!(
            "{name}: opt-vs-noopt rotations {rot_ratio:.2}x, \
             key-switch decompositions {ks_ratio:.2}x"
        );
        fields.push((
            format!("opt_vs_noopt_{name}_rotations"),
            Value::Num(round2(rot_ratio)),
        ));
        fields.push((
            format!("opt_vs_noopt_{name}_keyswitch_decomps"),
            Value::Num(round2(ks_ratio)),
        ));
        fields.push((
            format!("opt_stats_{name}"),
            Value::Obj(
                cmp.stats
                    .fields()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(v as f64)))
                    .collect(),
            ),
        ));
    }
    let summary = Value::Obj(fields);
    let text = serde_json::to_string_pretty(&summary).expect("summary serializes");
    let path = orion_bench::workspace_target_dir();
    std::fs::create_dir_all(&path).ok();
    let file = path.join("sched_bench.json");
    match std::fs::write(&file, &text) {
        Ok(()) => println!("wrote {}", file.display()),
        Err(e) => eprintln!("could not write {}: {e}", file.display()),
    }
    e2e.cleanup();
    nonlinear.cleanup();
}
