//! The paper's MNIST MLP benchmark, end to end on REAL FHE:
//! train a square-activation MLP with pure-Rust SGD on a synthetic digits
//! task, compile it with Orion, run encrypted inference, and show that
//! FHE accuracy matches cleartext accuracy (Table 2's "Clear Acc." vs
//! "FHE Acc." validation).
//!
//! ```sh
//! cargo run --release --example mnist_mlp
//! ```

use orion::ckks::CkksParams;
use orion::core::{run_program, CkksBackend, Orion, Session};
use orion::models::data::synthetic_digits;
use orion::models::train::{accuracy_of_outputs, train_mlp, TrainConfig};

fn main() {
    // 1. Synthetic digits (this repo ships no MNIST download; the task is
    //    learnable and the validation methodology is the paper's). One
    //    generator call, split into train/test.
    let all = synthetic_digits(8, 8, 4, 136, 42);
    let split = 120;
    let train = orion::models::data::Digits {
        images: all.images[..split].to_vec(),
        labels: all.labels[..split].to_vec(),
        classes: all.classes,
    };
    let test = orion::models::data::Digits {
        images: all.images[split..].to_vec(),
        labels: all.labels[split..].to_vec(),
        classes: all.classes,
    };

    // 2. Train in the clear (pure-Rust SGD).
    println!("training a 64-32-32-4 square-activation MLP…");
    let (net, train_acc) = train_mlp(&train, TrainConfig::default());
    println!("  training accuracy: {:.1}%", train_acc * 100.0);
    let clear_correct = test
        .images
        .iter()
        .zip(&test.labels)
        .filter(|(img, &l)| net.forward_exact(img).argmax() == l)
        .count();
    println!(
        "  cleartext test accuracy: {}/{}",
        clear_correct,
        test.images.len()
    );

    // 3. Compile for FHE and create a session (keys, oracle).
    let params = CkksParams::medium(); // N = 2^13, Δ = 2^40 (demo scale)
    let orion = Orion::for_params(&params);
    let compiled = orion.compile(&net, &train.images[..8]);
    println!(
        "\ncompiled: {} rotations planned, {} bootstraps placed, act depth {}",
        compiled.planned_rotations(),
        compiled.placement.boot_count,
        compiled.activation_depth()
    );
    let session = Session::new(params, &compiled, 7);

    // 4. Prepare once (the serving split: weight diagonals become offline
    //    artifacts), then serve the whole test set from the shared cache
    //    with zero per-request encodes.
    let t0 = std::time::Instant::now();
    let prepared = orion.prepare_fhe(&compiled, &session);
    println!(
        "\nprepared {} weight plaintexts across {} linear layers in {:.2} s",
        prepared.num_plaintexts(),
        prepared.len(),
        t0.elapsed().as_secs_f64()
    );

    // 5. Encrypted inference over the test set (first one also measured
    //    cold for comparison).
    println!("running {} encrypted inferences…", test.images.len());
    let t0 = std::time::Instant::now();
    run_program(&compiled, &CkksBackend::new(&session), &test.images[0]);
    let cold_secs = t0.elapsed().as_secs_f64();
    let served = CkksBackend::with_prepared(&session, prepared);
    let mut outputs = Vec::new();
    let mut total_secs = 0.0;
    let mut precisions = Vec::new();
    for img in &test.images {
        let t0 = std::time::Instant::now();
        let run = run_program(&compiled, &served, img);
        total_secs += t0.elapsed().as_secs_f64();
        precisions.push(run.precision_vs(&net.forward_exact(img)));
        outputs.push(run.output);
    }
    let fhe_acc = accuracy_of_outputs(&outputs, &test);
    let mean_prec = precisions.iter().sum::<f64>() / precisions.len() as f64;
    println!(
        "  FHE test accuracy:       {}/{}",
        (fhe_acc * test.images.len() as f64).round() as usize,
        test.images.len()
    );
    println!("  mean output precision:   {mean_prec:.1} bits");
    println!(
        "  served latency:          {:.2} s/inference (on-the-fly: {:.2} s)",
        total_secs / test.images.len() as f64,
        cold_secs
    );
    println!("\nFHE and cleartext classification agree — the paper's validation result.");
    assert!(fhe_acc * test.images.len() as f64 >= clear_correct as f64 - 1.0);
}
