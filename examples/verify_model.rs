//! The human entry point to the static plan verifier: compiles a model
//! from the zoo and prints its certification — a diagnostic table when
//! anything fires, "certified clean" otherwise. The plan it certifies is
//! the one the compiled program carries (`compiled.plan`) — the plan that
//! is served: there is no rewrite between compile and walk. It then walks
//! the plan once on the cleartext reference engine and prints
//! the most live limb vectors the walk held against the peak the verifier
//! certified — the walk frees what the certificate stops counting, so they
//! are equal. The last line holds the latency placement minimised against
//! the plan's counted seconds — one fold of one op list at one price, so
//! they are equal too. Exits nonzero on any error-severity diagnostic,
//! `measured != certified` or `modeled != counted`, so it doubles as a CI
//! gate.
//!
//! ```sh
//! cargo run --release --example verify_model -- resnet20
//! cargo run --release --example verify_model -- mlp medium
//! cargo run --release --example verify_model -- resnet20 paper relu
//! ```
//!
//! The first argument is a zoo model name (`mlp`, `lenet5`, `resnet20`,
//! …; default `resnet20`). The second selects parameters: `paper`
//! (default — N = 2¹⁶ planning scale, structural passes only) or
//! `tiny`/`small`/`medium` (concrete CKKS parameters; the noise-budget pass
//! joins in under the matching `Context`, and one more line states the key
//! manifest `FheSession::new` would generate — keys, bytes at their plan
//! levels against bytes at the chain's top level, keys by level). The
//! third picks the activation of models that take one: `silu` (default,
//! degree 63) or `relu` (composite sign [15, 15, 27] + the final product).

use orion::ckks::{CkksParams, Context};
use orion::models::data::synthetic_images;
use orion::models::{build, Act};
use orion::nn::backend::encrypt_input;
use orion::nn::backends::ClearBackend;
use orion::nn::compile::{compile, CompileOptions};
use orion::nn::fit::fit;
use orion::nn::sched::{count_plan, run_plan};
use orion::nn::verify::{verify_compiled, VerifyConfig, VerifyReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let model = args.get(1).map(String::as_str).unwrap_or("resnet20");
    let preset = args.get(2).map(String::as_str).unwrap_or("paper");
    let act = match args.get(3).map(String::as_str).unwrap_or("silu") {
        "silu" => Act::SiluDeg(63),
        "relu" => Act::Relu,
        other => {
            eprintln!("unknown activation {other:?} (expected relu|silu)");
            std::process::exit(2);
        }
    };

    let mut rng = StdRng::seed_from_u64(0x7e11);
    let (net, info) = build(model, act, &mut rng);
    let (c, h, w) = info.input;
    let calib = synthetic_images(c, h, w, 2, 0x5eed);

    let params = match preset {
        "paper" => None,
        "tiny" => Some(CkksParams::tiny()),
        "small" => Some(CkksParams::small()),
        "medium" => Some(CkksParams::medium()),
        other => {
            eprintln!("unknown parameter preset {other:?} (expected paper|tiny|small|medium)");
            std::process::exit(2);
        }
    };
    let opts = params
        .as_ref()
        .map_or_else(CompileOptions::paper, CompileOptions::from_params);
    let ctx = params.map(Context::new);

    // Compile directly (not through `Orion::compile`, which would panic on
    // an unverifiable program — this tool's job is to *show* the table).
    let fitres = fit(&net, &calib);
    let compiled = compile(&net, &fitres, &opts);

    let cfg = match &ctx {
        Some(ctx) => VerifyConfig::with_ctx(ctx),
        None => VerifyConfig::default(),
    };
    // `compiled.plan` is the plan certified here, counted here, walked
    // here — and served
    let report = verify_compiled(&compiled, &cfg);
    let modeled = compiled.placement.total_latency;
    let counted = count_plan(&compiled, &ClearBackend::reference(&compiled)).seconds;
    // (measured, certified) peak live limbs of the plan
    let peaks = (!report.has_errors()).then(|| {
        let backend = ClearBackend::reference(&compiled);
        let cts = encrypt_input(&compiled, &backend, &calib[0]);
        let measured = run_plan(&compiled, &backend, cts).peak_live_limbs;
        (
            measured,
            report
                .peak_limbs
                .expect("a plan without errors is certified"),
        )
    });

    println!(
        "{model} ({}, {} steps, {} rotations, {} bootstraps) under {preset} parameters:",
        info.dataset,
        compiled.prog.len(),
        compiled.planned_rotations(),
        compiled.placement.boot_count,
    );
    print_report(&report);
    if let Some(ctx) = &ctx {
        let keys = compiled.key_manifest();
        let l_eff = ctx.params.effective_level();
        println!("{}", keys.summary(ctx.degree(), l_eff, ctx.max_level()));
    }
    if let Some((measured, certified)) = peaks {
        let rel = if measured == certified { "==" } else { "!=" };
        println!("measured peak {measured} {rel} certified {certified} live limbs");
    }
    let held = peaks.is_none_or(|(measured, certified)| measured == certified);
    let agree = (modeled - counted).abs() <= 1e-9 * counted;
    let rel = if agree { "==" } else { "!=" };
    println!("modeled {modeled:.6} s {rel} counted {counted:.6} s");
    if report.has_errors() || !held || !agree {
        std::process::exit(1);
    }
}

fn print_report(report: &VerifyReport) {
    if report.is_clean() {
        println!("certified clean — {}", report.summary());
    } else {
        println!("{}", report.table());
        for (rule, n) in report.counts_by_rule() {
            println!("  {rule}: {n}");
        }
    }
}
