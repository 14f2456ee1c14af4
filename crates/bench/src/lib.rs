//! # photonn-bench
//!
//! Experiment and benchmark binaries for the DAC'23 DONN
//! roughness-optimization reproduction — every number the repository
//! publishes is regenerated by a binary in `src/bin/`:
//!
//! * **paper artifacts** — `table1`–`table5`, `fig2`–`fig6` and
//!   `two_pi_ablation` re-run the paper's experiments (scaled by default,
//!   `--full` for the exact 200×200 / 60 k-sample setup);
//! * **throughput trackers** — `bench_batched_step` writes
//!   `BENCH_batched_step.json` (training steps/sec: per-sample oracle vs
//!   batched, one entry per `--grid` and `--threads`),
//!   `bench_serving` writes `BENCH_serving.json` (served req/s and
//!   latency percentiles under dynamic batching policies) and
//!   `bench_dist_step` writes `BENCH_dist.json` (sharded data-parallel
//!   steps/sec and `speedup_vs_single` per grid/batch/worker
//!   configuration, with a `--check-speedup` CI gate). CI runs them as
//!   smoke jobs, gates them against the committed baselines
//!   ([`regression`]), uploads the JSON as artifacts, and renders the
//!   committed trackers into the job summary with [`report`] (the
//!   `photonn bench-report` subcommand).
//!
//! This library crate holds the shared harness: the [`Cli`] flag parser
//! and the scaled-vs-full [`ExperimentConfig`] construction, so every
//! binary resolves the same flags the same way.
//!
//! Every experiment binary accepts the same flags:
//!
//! * `--full` — the paper's exact scale (200×200 grid, 60 k samples, paper
//!   epoch counts). Expect GPU-class runtimes on CPU; the default scaled
//!   system preserves the paper's orderings at laptop cost.
//! * `--grid N`, `--train N`, `--test N`, `--epochs N`, `--seed N` —
//!   override individual knobs.
//! * `--panel a|b|c|d` — sweep selector (fig6).
//! * `--out DIR` — output directory (fig5).
//!
//! # Examples
//!
//! ```
//! use photonn_bench::Cli;
//! use photonn_datasets::Family;
//!
//! // Flags come from std::env::args; defaults are the scaled system.
//! let cli = Cli::default();
//! let config = cli.experiment(Family::Mnist);
//! assert!(config.grid >= 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use photonn_datasets::Family;
use photonn_donn::pipeline::ExperimentConfig;

pub mod regression;
pub mod report;

/// Parsed command-line options for experiment binaries.
#[derive(Clone, Debug, Default)]
pub struct Cli {
    /// Paper-scale run requested.
    pub full: bool,
    /// Grid-size override.
    pub grid: Option<usize>,
    /// Train-sample override.
    pub train: Option<usize>,
    /// Test-sample override.
    pub test: Option<usize>,
    /// Epoch override.
    pub epochs: Option<usize>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Sweep-panel selector (fig6).
    pub panel: Option<String>,
    /// Output directory (fig5).
    pub out: Option<String>,
}

impl Cli {
    /// Parses `std::env::args`, ignoring unknown flags.
    pub fn parse() -> Self {
        let mut cli = Cli::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => cli.full = true,
                "--grid" => cli.grid = next_parse(&args, &mut i),
                "--train" => cli.train = next_parse(&args, &mut i),
                "--test" => cli.test = next_parse(&args, &mut i),
                "--epochs" => cli.epochs = next_parse(&args, &mut i),
                "--seed" => cli.seed = next_parse(&args, &mut i),
                "--panel" => cli.panel = next_string(&args, &mut i),
                "--out" => cli.out = next_string(&args, &mut i),
                _ => {}
            }
            i += 1;
        }
        cli
    }

    /// Builds the experiment configuration for a dataset family, applying
    /// `--full` and the individual overrides.
    pub fn experiment(&self, family: Family) -> ExperimentConfig {
        let mut cfg = if self.full {
            ExperimentConfig::paper(family)
        } else {
            ExperimentConfig::scaled(family)
        };
        if let Some(g) = self.grid {
            cfg.grid = g;
            // Keep the block size a useful fraction of the grid.
            cfg.slr.block = (g / 4).max(2);
        }
        if let Some(t) = self.train {
            cfg.train_samples = t;
        }
        if let Some(t) = self.test {
            cfg.test_samples = t;
        }
        if let Some(e) = self.epochs {
            cfg.baseline_epochs = e;
        }
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        cfg
    }
}

fn next_parse<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Option<T> {
    *i += 1;
    args.get(*i).and_then(|s| s.parse().ok())
}

fn next_string(args: &[String], i: &mut usize) -> Option<String> {
    *i += 1;
    args.get(*i).cloned()
}

/// Prints the standard banner describing the run scale.
pub fn banner(name: &str, cfg: &ExperimentConfig) {
    println!("== photonn-bench :: {name} ==");
    println!(
        "dataset {} | grid {}x{} | {} train / {} test | {} epochs | block {} | sparsity {} | seed {}",
        cfg.family.name(),
        cfg.grid,
        cfg.grid,
        cfg.train_samples,
        cfg.test_samples,
        cfg.baseline_epochs,
        cfg.slr.block,
        cfg.slr.sparsity,
        cfg.seed
    );
    if cfg.grid == 200 {
        println!("(paper scale — this will take a long time on CPU)");
    } else {
        println!("(scaled run — pass --full for the paper's 200x200 / 60k configuration)");
    }
    println!();
}

/// Runs one full table (five variants) and prints it in the paper's format
/// together with the paper's reference numbers.
///
/// `paper_rows` holds `(label, accuracy %, R before, R after)` from the
/// corresponding table of the paper (`None` after-value = the dash the
/// paper prints for Ours-A).
pub fn run_table(
    name: &str,
    family: Family,
    cli: &Cli,
    paper_rows: &[(&str, f64, f64, Option<f64>)],
) {
    use photonn_donn::pipeline::{run_variant_on, Variant};
    use photonn_donn::report::{pct, score, Table};

    let cfg = cli.experiment(family);
    banner(name, &cfg);
    let (train_set, test_set) = cfg.datasets();

    let mut table = Table::new(&[
        "Model",
        "Accuracy (%)",
        "R_overall before 2π",
        "R_overall after 2π",
    ]);
    let mut baseline_r_after = None;
    for variant in Variant::all() {
        let start = std::time::Instant::now();
        let r = run_variant_on(&cfg, variant, &train_set, &test_set);
        eprintln!(
            "  {:<14} acc {:>5.1}% | R {:>8.2} -> {:>8.2} | {:.1}s",
            r.variant.label(),
            r.accuracy * 100.0,
            r.r_before,
            r.r_after,
            start.elapsed().as_secs_f64()
        );
        if variant == Variant::Baseline {
            baseline_r_after = Some(r.r_after);
        }
        // The paper leaves Ours-A's after-2π cell blank.
        let after_cell = if variant == Variant::OursA {
            "–".to_string()
        } else {
            score(r.r_after)
        };
        table.row_owned(vec![
            r.variant.label().to_string(),
            pct(r.accuracy),
            score(r.r_before),
            after_cell,
        ]);
        if variant == Variant::OursC {
            if let Some(base) = baseline_r_after {
                eprintln!(
                    "  Ours-C roughness reduction vs baseline (after 2π): {:.1}%",
                    (base - r.r_after) / base * 100.0
                );
            }
        }
    }

    println!("{}", table.to_markdown());
    println!("Paper reference ({name}):");
    let mut paper = Table::new(&[
        "Model",
        "Accuracy (%)",
        "R_overall before 2π",
        "R_overall after 2π",
    ]);
    for (label, acc, before, after) in paper_rows {
        paper.row_owned(vec![
            label.to_string(),
            format!("{acc:.2}"),
            format!("{before:.2}"),
            after.map_or("–".to_string(), |a| format!("{a:.2}")),
        ]);
    }
    println!("{}", paper.to_markdown());
    println!("Shape targets: baseline has the highest roughness; 2π barely moves the dense");
    println!("baseline (<2%); Ours-C after 2π is the big drop at near-baseline accuracy;");
    println!("Ours-D trades ~2% accuracy for the lowest roughness. Absolute values differ");
    println!("(simulated substrate, scaled data).");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_override_applies() {
        let cli = Cli {
            grid: Some(48),
            train: Some(100),
            seed: Some(9),
            ..Cli::default()
        };
        let cfg = cli.experiment(Family::Mnist);
        assert_eq!(cfg.grid, 48);
        assert_eq!(cfg.train_samples, 100);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.slr.block, 12);
    }

    #[test]
    fn full_flag_selects_paper_scale() {
        let cli = Cli {
            full: true,
            ..Cli::default()
        };
        let cfg = cli.experiment(Family::Fmnist);
        assert_eq!(cfg.grid, 200);
        assert_eq!(cfg.baseline_epochs, 150);
    }
}
