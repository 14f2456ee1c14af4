//! `paper_table`: the scaled Table II (MNIST) — grid 32, 800/300 samples,
//! batch 50 — with `threads` pinned to 1. All five variants go through
//! training, SLR, frozen fine-tune, accuracy and Gumbel-then-greedy 2π.
//!
//! It is the paper's artifact and the only workload where small-grid tape
//! bookkeeping, regularizer gradients, SLR and 2π do most of the work.
//! One FFT thread makes it repeat: with more, every grid-32 hop spawns its
//! threads anew and the table time measures the scheduler.

use std::time::Instant;

use photonn_autodiff::{Adam, Tape};
use photonn_datasets::{BatchIter, Dataset, Family};
use photonn_donn::pipeline::{run_variant_on, ExperimentConfig, Variant};
use photonn_donn::roughness::r_overall;
use photonn_donn::slr::slr_train;
use photonn_donn::train::{train_with, Regularization, TrainOptions};
use photonn_donn::two_pi::optimize_all;
use photonn_donn::{Donn, DonnConfig};
use photonn_math::{CGrid, Grid, Rng};

use crate::procfs::{quiet_median, StealMeter};
use crate::report::Report;
use crate::spans::{self, Spans};
use crate::stats::median;
use crate::{repeat_setup, Args};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Fewest timed tables per run, whatever the budget.
const MIN_TABLES: usize = 3;

/// The workload's configuration: the scaled MNIST table at one thread,
/// its data and initialisation drawn from `seed`.
fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        threads: 1,
        ..ExperimentConfig::scaled(Family::Mnist)
    }
}

/// One scored variant: the table's cells plus the masks the 2π check
/// needs.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    accuracy: f64,
    r_before: f64,
    r_after: f64,
    masks: Vec<Grid>,
    masks_two_pi: Vec<Grid>,
}

/// The five rows through the pipeline's own entry point.
fn table(cfg: &ExperimentConfig, train: &Dataset, test: &Dataset) -> Vec<Row> {
    Variant::all()
        .into_iter()
        .map(|v| {
            let r = run_variant_on(cfg, v, train, test);
            Row {
                accuracy: r.accuracy,
                r_before: r.r_before,
                r_after: r.r_after,
                masks: r.masks,
                masks_two_pi: r.masks_two_pi,
            }
        })
        .collect()
}

/// Records the table itself beside the metrics, with the paper's two
/// headline figures: Ours-C's R_overall reduction against the baseline
/// after 2π, and Ours-C's test accuracy.
fn detail_rows(rows: &[Row], report: &mut Report) {
    for (v, row) in Variant::all().into_iter().zip(rows) {
        let label = v.label().replace(", ", "/");
        report.detail_num(&format!("{label}.acc_pct"), row.accuracy * 100.0);
        report.detail_num(&format!("{label}.r_before"), row.r_before);
        report.detail_num(&format!("{label}.r_after"), row.r_after);
    }
    let (reduction, accuracy) = headline(rows);
    report.detail_num("r_reduction_pct", reduction);
    report.detail_num("ours_c_acc_pct", accuracy);
}

/// Ours-C's R_overall reduction against the baseline after 2π, and its
/// test accuracy, both in percent.
fn headline(rows: &[Row]) -> (f64, f64) {
    let (base, c) = (&rows[0], &rows[3]);
    (
        (base.r_after - c.r_after) / base.r_after * 100.0,
        c.accuracy * 100.0,
    )
}

/// Checks one table against the paper's shape targets.
fn check_shape(rows: &[Row], report: &mut Report) {
    let (base, c, d) = (&rows[0], &rows[3], &rows[4]);
    let gain = (base.r_before - base.r_after) / base.r_before * 100.0;
    report.check(
        gain < 2.0,
        format!("baseline 2π gain {gain:.3}% is not < 2%"),
    );
    report.check(
        c.r_after < base.r_after,
        format!(
            "Ours-C after 2π ({}) is not below the baseline ({})",
            c.r_after, base.r_after
        ),
    );
    // The paper's after-2π column: it leaves Ours-A's cell blank.
    report.check(
        [0, 2, 3].iter().all(|&i| d.r_after < rows[i].r_after),
        format!(
            "Ours-D after 2π ({}) is not the lowest R_overall of the after-2π column",
            d.r_after
        ),
    );
    for (v, row) in Variant::all().into_iter().zip(rows) {
        let worst = row
            .masks
            .iter()
            .zip(&row.masks_two_pi)
            .map(|(a, b)| CGrid::from_phase(a).max_abs_diff(&CGrid::from_phase(b)))
            .fold(0.0, f64::max);
        report.check(
            worst < 1e-9,
            format!("{} 2π masks change the transmission by {worst}", v.label()),
        );
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let cfg = config(args.seed);
    let (setup_s, (train, test)) = repeat_setup(SETUPS, || cfg.datasets());
    if args.trace {
        return traced(args, &cfg, &train, &test, setup_s, report);
    }
    let start = Instant::now();
    let (mut walls, mut steal) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<Row>> = None;
    loop {
        let meter = StealMeter::start();
        let t = Instant::now();
        let rows = table(&cfg, &train, &test);
        walls.push(t.elapsed().as_secs_f64());
        steal.push(meter.pct());
        report.ops(1, 0);
        check_shape(&rows, report);
        match &first {
            None => first = Some(rows),
            Some(f) => {
                report.check(&rows == f, "a repeated table differs from the first");
            }
        }
        let next_end = start.elapsed().as_secs_f64() + median(&walls);
        if walls.len() >= MIN_TABLES && next_end > args.seconds {
            break;
        }
    }
    let rows = first.expect("at least one table");
    detail_rows(&rows, report);
    report.metric("setup_s", setup_s);
    let table_s = quiet_median(&walls, &steal);
    report.metric("latency_ms", table_s * 1e3);
    report.metric("throughput_per_s", 1.0 / table_s);
    report.detail_num("tables", walls.len() as f64);
    report.detail_range("table_s", &walls);
    report.detail_range("table_steal_pct", &steal);
}

/// Work counts gathered by a traced table.
#[derive(Debug, Default)]
struct Tally {
    steps: usize,
    slr_iterations: usize,
    slr_accepted: usize,
    masks: usize,
    masks_improved: usize,
}

/// The pipeline's private per-variant regularization, restated so the
/// traced table can call each stage itself. The traced run checks that
/// it reproduces the pipeline's rows exactly.
fn regularization(cfg: &ExperimentConfig, variant: Variant) -> Regularization {
    match variant {
        Variant::Baseline | Variant::OursB => Regularization::none(),
        Variant::OursA | Variant::OursC => Regularization {
            roughness_weight: cfg.p,
            roughness: cfg.roughness,
            ..Regularization::none()
        },
        Variant::OursD => Regularization {
            roughness_weight: cfg.p,
            roughness: cfg.roughness,
            intra_weight: cfg.q,
            intra_block: cfg.slr.block,
        },
    }
}

/// `train` restated step by step so each step's forward, backward,
/// regularizer gradient and Adam update get their own span. Same calls
/// and order as the trainer, so the masks come out bit-identical.
fn traced_train(donn: &mut Donn, data: &Dataset, opts: &TrainOptions, spans: &mut Spans) -> usize {
    let n = donn.config().grid();
    let mut adam = Adam::new(opts.learning_rate);
    let mut batches = BatchIter::new(data.len(), opts.batch_size, opts.seed);
    let mut steps = 0;
    for epoch in 0..opts.epochs {
        if opts.epochs > 1 {
            let t = epoch as f64 / (opts.epochs - 1) as f64;
            adam.set_learning_rate(opts.learning_rate * opts.lr_final_fraction.powf(t));
        }
        for batch in batches.epoch() {
            let start = Instant::now();
            let images: Vec<&Grid> = batch.iter().map(|&i| data.image(i)).collect();
            let labels: Vec<usize> = batch.iter().map(|&i| data.label(i)).collect();
            let mut tape = Tape::new();
            let (loss, mask_vars) =
                donn.build_batch_loss(&mut tape, &images, &labels, None, opts.threads);
            std::hint::black_box(tape.scalar(loss));
            spans.record("autodiff.g32.forward", start);

            let start = Instant::now();
            let g = tape.backward(loss);
            let mut grads: Vec<Grid> = mask_vars
                .iter()
                .map(|v| g.real(*v).cloned().unwrap_or_else(|| Grid::zeros(n, n)))
                .collect();
            drop((g, tape));
            spans.record("autodiff.g32.backward", start);

            let start = Instant::now();
            for (g, mask) in grads.iter_mut().zip(donn.masks()) {
                g.axpy(1.0, &opts.regularization.gradient(mask));
            }
            spans.record("donn.g32.reg_grad", start);

            let start = Instant::now();
            adam.step(donn.masks_mut(), &grads);
            spans.record("autodiff.g32.adam", start);
            steps += 1;
        }
    }
    steps
}

/// `run_variant_on` with every stage called from here inside its own span.
fn traced_variant(
    cfg: &ExperimentConfig,
    variant: Variant,
    train: &Dataset,
    test: &Dataset,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Row {
    let mut donn = Donn::random(DonnConfig::scaled(cfg.grid), &mut Rng::seed_from(cfg.seed));
    let reg = regularization(cfg, variant);
    let batches_per_epoch = train.len().div_ceil(cfg.batch_size);
    let base_opts = TrainOptions {
        epochs: cfg.baseline_epochs,
        batch_size: cfg.batch_size,
        learning_rate: cfg.baseline_lr,
        seed: cfg.seed,
        threads: cfg.threads,
        regularization: reg,
        lr_final_fraction: 0.05,
    };
    let start = Instant::now();
    tally.steps += traced_train(&mut donn, train, &base_opts, spans);
    spans.record("donn.train", start);

    if variant.sparsifies() {
        let slr_opts = TrainOptions {
            epochs: cfg.sparsify_epochs_per_iter,
            batch_size: cfg.batch_size,
            learning_rate: cfg.sparsify_lr,
            seed: cfg.seed ^ 0x51a5,
            threads: cfg.threads,
            regularization: reg,
            lr_final_fraction: 1.0,
        };
        let outcome = spans.time("donn.slr", || {
            slr_train(&mut donn, train, &slr_opts, &cfg.slr)
        });
        tally.steps += outcome.history.len() * slr_opts.epochs * batches_per_epoch;
        tally.slr_iterations += outcome.history.len();
        tally.slr_accepted += outcome.history.iter().filter(|h| h.surrogate_ok).count();
        let ft_opts = TrainOptions {
            epochs: 2,
            ..slr_opts
        };
        spans.time("donn.finetune", || {
            train_with(&mut donn, train, &ft_opts, Some(&outcome.keep), None)
        });
        tally.steps += ft_opts.epochs * batches_per_epoch;
    }

    let accuracy = spans.time("donn.accuracy", || donn.accuracy(test, cfg.threads));
    let start = Instant::now();
    let r_before = r_overall(donn.masks(), cfg.roughness);
    let results = optimize_all(donn.masks(), cfg.roughness, &cfg.two_pi);
    let masks_two_pi: Vec<Grid> = results.iter().map(|r| r.mask.clone()).collect();
    let r_after = r_overall(&masks_two_pi, cfg.roughness);
    spans.record("donn.two_pi", start);
    tally.masks += results.len();
    tally.masks_improved += results
        .iter()
        .filter(|r| r.roughness_after < r.roughness_before)
        .count();

    Row {
        accuracy,
        r_before,
        r_after,
        masks: donn.masks().to_vec(),
        masks_two_pi,
    }
}

const STAGES: [(&str, &str); 5] = [
    ("donn.train", "donn.train_s"),
    ("donn.slr", "donn.slr_s"),
    ("donn.finetune", "donn.finetune_s"),
    ("donn.accuracy", "donn.accuracy_s"),
    ("donn.two_pi", "donn.two_pi_s"),
];

/// The traced run: untraced reference tables alternating with traced
/// tables whose every stage is a span, each traced table checked row for
/// row against the first reference.
fn traced(
    args: &Args,
    cfg: &ExperimentConfig,
    train: &Dataset,
    test: &Dataset,
    setup_s: f64,
    report: &mut Report,
) {
    let start = Instant::now();
    let mut reference: Option<Vec<Row>> = None;
    let mut untraced_walls = Vec::new();
    let mut spans = Spans::default();
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    // Per traced table, each stage's summed time in seconds.
    let mut stage_totals: Vec<[f64; 5]> = Vec::new();
    loop {
        let t = Instant::now();
        let rows = table(cfg, train, test);
        untraced_walls.push(t.elapsed().as_secs_f64());
        report.ops(1, 0);
        if reference.is_none() {
            check_shape(&rows, report);
            reference = Some(rows);
        }

        let before: Vec<f64> = STAGES.iter().map(|(s, _)| spans.total_ms(s)).collect();
        let t = Instant::now();
        let rows: Vec<Row> = Variant::all()
            .into_iter()
            .map(|v| traced_variant(cfg, v, train, test, &mut spans, &mut tally))
            .collect();
        walls.push(t.elapsed().as_secs_f64());
        let mut totals = [0.0; 5];
        for (i, (s, _)) in STAGES.iter().enumerate() {
            totals[i] = (spans.total_ms(s) - before[i]) / 1e3;
        }
        stage_totals.push(totals);
        report.check(
            reference.as_ref() == Some(&rows),
            "traced stage calls do not reproduce the untraced table exactly",
        );
        let next_end = start.elapsed().as_secs_f64() + median(&untraced_walls) + median(&walls);
        if next_end > args.seconds {
            break;
        }
    }
    let reference = reference.expect("at least one untraced table");
    let table_s = median(&untraced_walls);
    let tables = walls.len();
    let traced_wall = median(&walls);
    let mut stage_sum = 0.0;
    for (i, (_, metric)) in STAGES.iter().enumerate() {
        let per_table: Vec<f64> = stage_totals.iter().map(|t| t[i]).collect();
        let v = median(&per_table);
        stage_sum += v;
        report.metric(metric, v);
    }
    report.metric("datasets.synth_s", setup_s);
    report.metric("donn.steps", (tally.steps / tables) as f64);
    report.metric(
        "slr.accepted_ratio",
        tally.slr_accepted as f64 / tally.slr_iterations.max(1) as f64,
    );
    report.metric(
        "two_pi.improved_ratio",
        tally.masks_improved as f64 / tally.masks.max(1) as f64,
    );
    let (reduction, accuracy) = headline(&reference);
    report.metric("r_reduction_pct", reduction);
    report.metric("ours_c_acc_pct", accuracy);
    for (span, metric) in [
        ("autodiff.g32.forward", "autodiff.g32.forward_ms"),
        ("autodiff.g32.backward", "autodiff.g32.backward_ms"),
        ("autodiff.g32.adam", "autodiff.g32.adam_ms"),
        ("donn.g32.reg_grad", "donn.g32.reg_grad_ms"),
    ] {
        report.metric(metric, spans.mean_ms(span));
    }

    // Accounting: the stages partition a traced table, the per-step spans
    // partition the training stage, and the stages add up to the
    // untraced table time within host noise. Coverage is a ratio of sums
    // over every traced table, so it cannot pass 1 by mixing medians.
    let stages_total: f64 = stage_totals.iter().flatten().sum();
    let coverage = stages_total / walls.iter().sum::<f64>();
    report.check(
        (0.97..=1.0001).contains(&coverage),
        format!("stage spans cover {coverage:.4} of a traced table"),
    );
    let step_ms: f64 = [
        "autodiff.g32.forward",
        "autodiff.g32.backward",
        "donn.g32.reg_grad",
        "autodiff.g32.adam",
    ]
    .iter()
    .map(|s| spans.total_ms(s))
    .sum();
    let step_cover = step_ms / spans.total_ms("donn.train");
    report.check(
        (0.95..=1.0001).contains(&step_cover),
        format!("per-step spans cover {step_cover:.4} of donn.train"),
    );
    // Medians of a few tables each, interleaved so both see the same host
    // drift; the range is wide so only a gross gap (a stage missing from
    // the restated pipeline) fails, host noise does not.
    let vs_untraced = stage_sum / table_s;
    report.check(
        (0.5..=2.0).contains(&vs_untraced),
        format!("stage times sum to {vs_untraced:.3} of the untraced table time"),
    );
    let overhead = spans::overhead_pct(spans.records(), walls.iter().sum());
    report.metric("trace.overhead_pct", overhead);
    report.detail_num("tables", tables as f64);
    report.detail_num("untraced_tables", untraced_walls.len() as f64);
    report.detail_num("untraced_table_s", table_s);
    report.detail_num("traced_table_s", traced_wall);
    report.detail_num("stage_coverage", coverage);
    report.detail_num("step_coverage", step_cover);
    report.detail_num("stages_vs_untraced", vs_untraced);
}
