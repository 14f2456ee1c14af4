//! The paper's full physics-aware optimization pipeline on one dataset:
//! baseline vs Ours-A (roughness-aware) vs Ours-C (SLR sparsification +
//! roughness) with the 2π post-optimization — one row block of Table II.
//!
//! ```sh
//! cargo run --release --example physics_aware_pipeline
//! ```

use photonn_datasets::Family;
use photonn_donn::pipeline::{run_variant_on, ExperimentConfig, Variant};
use photonn_donn::report::{pct, reduction_pct, score, Table};

fn main() {
    let cfg = ExperimentConfig::scaled(Family::Mnist);
    println!(
        "physics-aware pipeline | {} | grid {} | {} train / {} test samples",
        cfg.family.name(),
        cfg.grid,
        cfg.train_samples,
        cfg.test_samples
    );
    println!("(use the photonn-bench table binaries for all five variants / four datasets)\n");

    let (train_set, test_set) = cfg.datasets();
    let mut table = Table::new(&[
        "Model",
        "Accuracy (%)",
        "R_overall before 2π",
        "R_overall after 2π",
        "Δ roughness",
        "sparsity",
    ]);

    for variant in [Variant::Baseline, Variant::OursA, Variant::OursC] {
        let r = run_variant_on(&cfg, variant, &train_set, &test_set);
        println!(
            "{:<14} done: acc {:.1}%, R {:.1} -> {:.1}",
            r.variant.label(),
            r.accuracy * 100.0,
            r.r_before,
            r.r_after
        );
        table.row_owned(vec![
            r.variant.label().to_string(),
            pct(r.accuracy),
            score(r.r_before),
            score(r.r_after),
            reduction_pct(r.r_before, r.r_after),
            format!("{:.2}", r.sparsity),
        ]);
    }

    println!("\n{}", table.to_markdown());
    println!("Paper (MNIST, Table II): baseline 466.39 -> 460.85; Ours-C 409.41 -> 299.87 (−35.7% vs baseline).");
    println!("Absolute numbers differ (scaled CPU system, synthetic data); the ordering and the");
    println!("who-wins structure are the reproduction target.");
}
