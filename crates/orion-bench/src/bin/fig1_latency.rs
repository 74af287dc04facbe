//! Figure 1: latencies of key homomorphic operations vs ciphertext level.
//!
//! Prints (a) PMult, (b) HRot, (c) bootstrap curves from the analytical
//! cost model at the paper's parameters (N = 2¹⁶, Δ ≈ 2⁴⁰), then — with
//! `--measure` — wall-clock measurements of the real CKKS implementation
//! at a reduced ring degree (N = 2¹³) to confirm the *shapes*: PMult
//! linear in ℓ, HRot super-linear (dnum growth), bootstrap super-linear
//! in L_eff.

use orion_bench::Table;
use orion_nn::sim::CostModel;

fn model_tables() {
    let m = CostModel::paper();
    println!("Figure 1 (analytical model, N = 2^16):\n");
    let mut t = Table::new(&[
        "level",
        "PMult (ms)",
        "HAdd (ms)",
        "HRot (ms)",
        "HRot hoisted (ms)",
    ]);
    for l in (0..=24).step_by(2) {
        t.row(vec![
            l.to_string(),
            format!("{:.3}", m.pmult(l) * 1e3),
            format!("{:.3}", m.hadd(l) * 1e3),
            format!("{:.1}", m.hrot(l) * 1e3),
            format!("{:.2}", m.hrot_hoisted(l) * 1e3),
        ]);
    }
    t.print();
    println!("\nFigure 1c (bootstrap vs L_eff, L_boot = 14):\n");
    let mut t = Table::new(&["L_eff", "bootstrap (s)"]);
    for l_eff in (2..=20).step_by(2) {
        t.row(vec![
            l_eff.to_string(),
            format!("{:.2}", m.bootstrap(l_eff)),
        ]);
    }
    t.print();
    println!();
    println!(
        "shape checks: pmult(20)/pmult(10) = {:.2} (expect ~1.9, linear)",
        m.pmult(20) / m.pmult(10)
    );
    println!(
        "              hrot(20)/hrot(10)  = {:.2} (expect >2, super-linear)",
        m.hrot(20) / m.hrot(10)
    );
    println!(
        "              boot(20)/boot(10)  = {:.2} (expect >1.5, super-linear)",
        m.bootstrap(20) / m.bootstrap(10)
    );
}

fn measure() {
    use orion_ckks::keys::KeyGenerator;
    use orion_ckks::params::{CkksParams, Context};
    use orion_ckks::{Encoder, Encryptor, Evaluator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use std::time::Instant;

    println!("\nMeasured on the real CKKS backend (N = 2^13, single-threaded):\n");
    let params = CkksParams::medium();
    let ctx = Context::new(params);
    let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(1));
    let pk = Arc::new(kg.gen_public_key());
    let keys = Arc::new(kg.gen_eval_keys(&[1]));
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::with_public_key(ctx.clone(), pk);
    let eval = Evaluator::new(ctx.clone(), keys);
    let mut rng = StdRng::seed_from_u64(2);
    let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i % 7) as f64 * 0.1).collect();

    let mut t = Table::new(&["level", "PMult (ms)", "HRot (ms)", "rescale (ms)"]);
    for level in [2usize, 4, 6, 8, 10, 12] {
        let ct = encryptor.encrypt(&enc.encode(&vals, ctx.scale(), level, false), &mut rng);
        let pt = enc.encode_at_prime_scale(&vals, level, false);
        let reps = 5;
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = eval.mul_plain(&ct, &pt);
        }
        let pmult_ms = t0.elapsed().as_secs_f64() / reps as f64 * 1e3;
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = eval.rotate(&ct, 1);
        }
        let rot_ms = t0.elapsed().as_secs_f64() / reps as f64 * 1e3;
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut c = eval.mul_plain(&ct, &pt);
            eval.rescale_assign(&mut c);
        }
        let rescale_ms = t0.elapsed().as_secs_f64() / reps as f64 * 1e3 - pmult_ms;
        t.row(vec![
            level.to_string(),
            format!("{pmult_ms:.2}"),
            format!("{rot_ms:.1}"),
            format!("{:.1}", rescale_ms.max(0.0)),
        ]);
    }
    t.print();
}

fn main() {
    model_tables();
    if std::env::args().any(|a| a == "--measure") {
        measure();
    } else {
        println!("\n(run with --measure for wall-clock numbers from the real backend)");
    }
}
