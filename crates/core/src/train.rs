//! Mini-batch training of DONN phase masks (paper §III-B, Eq. 5/8).
//!
//! The default path is the **batched propagation engine**: every step
//! builds *one* autodiff tape for the whole mini-batch
//! ([`crate::Donn::build_batch_loss`]) — fields travel as contiguous
//! `[batch, n, n]` stacks, each free-space hop is a single fused tape node
//! whose FFT work is chunked over worker threads, and one backward sweep
//! produces batch-averaged mask gradients directly. Those are combined
//! with the roughness / intra-block regularizer gradients and any
//! caller-supplied extra term (the SLR multiplier forces), then applied
//! with Adam.
//!
//! The seed implementation — one tape per *sample*, gradients averaged by
//! hand — is kept as [`per_sample_batch_gradients`]: it is the correctness
//! oracle for the batched engine (see the gradient-parity test below) and
//! the baseline for the `BENCH_batched_step` benchmark.

use photonn_autodiff::penalty::{block_variance_grad, roughness_grad};
use photonn_autodiff::{Adam, BlockReduce, MaskGrads, RoughnessConfig, Tape};
use photonn_datasets::{BatchIter, Dataset};
use photonn_math::block::BlockPartition;
use photonn_math::Grid;
use std::sync::Arc;

use crate::model::Donn;

/// Caller-supplied per-step gradient hook (the SLR multiplier forces).
pub type ExtraGradFn<'a> = &'a mut dyn FnMut(&[Grid]) -> Vec<Grid>;

/// Per-epoch observer hook: called with each epoch's [`EpochStats`] as it
/// completes (progress logging, early-stopping probes, CI smoke output).
pub type EpochHookFn<'a> = &'a mut dyn FnMut(&EpochStats);

/// Strengths and shapes of the paper's training-time regularizers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Regularization {
    /// Roughness weight `p` in Eq. 5 (0 disables).
    pub roughness_weight: f64,
    /// Roughness model for the penalty.
    pub roughness: RoughnessConfig,
    /// Intra-block smoothness weight `q` in Eq. 8 (0 disables).
    pub intra_weight: f64,
    /// Block size of the intra-block variance penalty.
    pub intra_block: usize,
}

impl Default for Regularization {
    fn default() -> Self {
        Regularization {
            roughness_weight: 0.0,
            roughness: RoughnessConfig::paper(),
            intra_weight: 0.0,
            intra_block: 1,
        }
    }
}

impl Regularization {
    /// No regularization (the `[5]/[6]/[8]` baseline).
    pub fn none() -> Self {
        Regularization::default()
    }

    /// Roughness-only regularization with weight `p` (Ours-A/C).
    pub fn roughness_only(p: f64) -> Self {
        Regularization {
            roughness_weight: p,
            ..Regularization::default()
        }
    }

    /// Roughness + intra-block smoothness (Ours-D).
    pub fn with_intra(p: f64, q: f64, block: usize) -> Self {
        Regularization {
            roughness_weight: p,
            intra_weight: q,
            intra_block: block,
            ..Regularization::default()
        }
    }

    /// The regularizer's loss value for one mask.
    pub fn penalty(&self, mask: &Grid) -> f64 {
        let mut total = 0.0;
        if self.roughness_weight != 0.0 {
            total += self.roughness_weight
                * photonn_autodiff::penalty::roughness_value(mask, self.roughness);
        }
        if self.intra_weight != 0.0 {
            let p = BlockPartition::square(mask.rows(), mask.cols(), self.intra_block);
            total += self.intra_weight
                * photonn_autodiff::penalty::block_variance_value(mask, p, BlockReduce::Sum);
        }
        total
    }

    /// The regularizer's gradient for one mask.
    pub fn gradient(&self, mask: &Grid) -> Grid {
        let mut grad = Grid::zeros(mask.rows(), mask.cols());
        if self.roughness_weight != 0.0 {
            grad += &roughness_grad(mask, self.roughness, self.roughness_weight);
        }
        if self.intra_weight != 0.0 {
            let p = BlockPartition::square(mask.rows(), mask.cols(), self.intra_block);
            grad += &block_variance_grad(mask, p, BlockReduce::Sum, self.intra_weight);
        }
        grad
    }
}

/// Training hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainOptions {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (paper: 200).
    pub batch_size: usize,
    /// Adam learning rate (paper: 0.2 baseline, 0.001 sparsification).
    pub learning_rate: f64,
    /// Shuffling seed.
    pub seed: u64,
    /// Worker threads for per-sample gradients.
    pub threads: usize,
    /// Regularization terms.
    pub regularization: Regularization,
    /// Geometric learning-rate decay: the final epoch runs at
    /// `learning_rate · lr_final_fraction` with per-epoch geometric
    /// interpolation. `1.0` disables decay. Converging the step size is
    /// what keeps trained masks pixel-smooth (Adam's late oscillation
    /// otherwise injects per-pixel phase noise at the `lr` scale).
    pub lr_final_fraction: f64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 5,
            batch_size: 32,
            learning_rate: 0.05,
            seed: 0,
            threads: 2,
            regularization: Regularization::none(),
            lr_final_fraction: 1.0,
        }
    }
}

/// Per-epoch training statistics.
///
/// Equality compares only the *deterministic* fields — everything except
/// [`steps_per_sec`](EpochStats::steps_per_sec), which is wall-clock
/// throughput and varies run to run on identical numerics.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean per-sample data loss over the epoch.
    pub mean_loss: f64,
    /// Regularization penalty at epoch end (summed over layers).
    pub penalty: f64,
    /// Mean L2 norm of the applied per-batch update gradient (data +
    /// regularization + extra forces, after freeze masking) over the
    /// epoch — the signal the robustness matrix compares across training
    /// modes.
    pub grad_norm: f64,
    /// Optimizer steps (mini-batches) per wall-clock second this epoch.
    pub steps_per_sec: f64,
    /// Fraction of mask pixels whose phase lies outside the fabrication
    /// band `[0, 2π)` at epoch end. Masks initialize inside the band (see
    /// `MaskInit`) and the optimizer is free to walk out of it, so this is
    /// the wrapping pressure on the 2π-periodic parameterization — how
    /// much of the trained mask a fabricated device would have to wrap or
    /// heal with +2π steps.
    pub phase_saturation: f64,
}

impl PartialEq for EpochStats {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.mean_loss == other.mean_loss
            && self.penalty == other.penalty
            && self.grad_norm == other.grad_norm
            && self.phase_saturation == other.phase_saturation
    }
}

/// Averaged data-loss gradients for one batch, plus the batch's mean loss,
/// through the batched engine: one tape for the whole mini-batch, one
/// backward sweep for all mask gradients. This is the default path of
/// [`train_with`]; it is public so benchmarks and downstream tooling can
/// drive single steps.
pub fn batched_gradients(
    donn: &Donn,
    data: &Dataset,
    batch: &[usize],
    freeze: Option<&[Arc<Grid>]>,
    threads: usize,
) -> (Vec<Grid>, f64) {
    let n = donn.config().grid();
    let images: Vec<&Grid> = batch.iter().map(|&i| data.image(i)).collect();
    let labels: Vec<usize> = batch.iter().map(|&i| data.label(i)).collect();
    let mut tape = Tape::new();
    let (loss, mask_vars) = donn.build_batch_loss(&mut tape, &images, &labels, freeze, threads);
    let mean_loss = tape.scalar(loss);
    let g = tape.backward(loss);
    let grads = mask_vars
        .iter()
        .map(|var| g.real(*var).cloned().unwrap_or_else(|| Grid::zeros(n, n)))
        .collect();
    (grads, mean_loss)
}

/// One shard's gradient contribution for distributed data-parallel
/// training: a single batched tape over `shard`, built with the *global*
/// batch size `denom` as the loss denominator, its backward sweep
/// extracted into a reduction-ready [`MaskGrads`] buffer (complex
/// mask-space adjoints + the shard's `Σ l_i / denom` loss term).
///
/// `MaskGrads::tree_reduce` over the per-shard buffers followed by
/// `MaskGrads::phase_gradients` reproduces [`batched_gradients`] on the
/// concatenated batch — bit-identically when the shards are an equal
/// contiguous split with a power-of-two shard count, and to within
/// floating-point reassociation (≤1e-12 in the `photonn-dist` property
/// tests) otherwise.
///
/// # Panics
///
/// Panics if `shard` is empty, `denom == 0`, or on the shape mismatches of
/// [`Donn::build_batch_loss_parts`].
pub fn shard_gradients(
    donn: &Donn,
    data: &Dataset,
    shard: &[usize],
    freeze: Option<&[Arc<Grid>]>,
    threads: usize,
    denom: usize,
) -> MaskGrads {
    assert!(!shard.is_empty(), "empty shard");
    let n = donn.config().grid();
    let images: Vec<&Grid> = shard.iter().map(|&i| data.image(i)).collect();
    let labels: Vec<usize> = shard.iter().map(|&i| data.label(i)).collect();
    let mut tape = Tape::new();
    let parts = donn.build_batch_loss_parts(&mut tape, &images, &labels, freeze, threads, denom);
    let loss = tape.scalar(parts.loss);
    let g = tape.backward(parts.loss);
    MaskGrads::extract(&g, &parts.trans_vars, n, loss, shard.len())
}

/// The seed per-sample gradient path, kept as the batched engine's test
/// oracle and benchmark baseline: one tape per sample on `threads` worker
/// threads, gradients summed and divided by the batch size. Returns the
/// same `(averaged gradients, mean loss)` contract as the batched default.
pub fn per_sample_batch_gradients(
    donn: &Donn,
    data: &Dataset,
    batch: &[usize],
    freeze: Option<&[Arc<Grid>]>,
    threads: usize,
) -> (Vec<Grid>, f64) {
    let n = donn.config().grid();
    let layers = donn.config().num_layers;
    let threads = threads.max(1).min(batch.len());
    let chunk = batch.len().div_ceil(threads);

    let results: Vec<(Vec<Grid>, f64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(batch.len());
            if lo >= hi {
                break;
            }
            let idx = &batch[lo..hi];
            handles.push(scope.spawn(move || {
                let mut grads = vec![Grid::zeros(n, n); layers];
                let mut loss_sum = 0.0;
                for &i in idx {
                    let mut tape = Tape::new();
                    let (loss, mask_vars) =
                        donn.build_sample_loss(&mut tape, data.image(i), data.label(i), freeze);
                    loss_sum += tape.scalar(loss);
                    let g = tape.backward(loss);
                    for (layer, var) in mask_vars.iter().enumerate() {
                        if let Some(gm) = g.real(*var) {
                            grads[layer].axpy(1.0, gm);
                        }
                    }
                }
                (grads, loss_sum)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("gradient worker panicked"))
            .collect()
    });

    let mut grads = vec![Grid::zeros(n, n); layers];
    let mut loss_sum = 0.0;
    for (g, l) in results {
        for (acc, gi) in grads.iter_mut().zip(&g) {
            acc.axpy(1.0, gi);
        }
        loss_sum += l;
    }
    let scale = 1.0 / batch.len() as f64;
    for g in &mut grads {
        g.scale_inplace(scale);
    }
    (grads, loss_sum * scale)
}

/// Trains `donn` in place. `freeze` optionally pins pruned pixels to zero
/// phase (0/1 keep-mask per layer); `extra_grad` lets the SLR optimizer
/// inject its multiplier/penalty forces, called once per step with the
/// current masks.
///
/// Returns per-epoch statistics.
///
/// # Panics
///
/// Panics on shape mismatches between the dataset, model and freeze masks.
pub fn train_with(
    donn: &mut Donn,
    data: &Dataset,
    opts: &TrainOptions,
    freeze: Option<&[Arc<Grid>]>,
    extra_grad: Option<ExtraGradFn<'_>>,
) -> Vec<EpochStats> {
    train_with_grad_source(
        donn,
        data,
        opts,
        freeze,
        extra_grad,
        |donn, data, batch| batched_gradients(donn, data, batch, freeze, opts.threads),
        None,
    )
}

/// The training loop with a pluggable per-batch gradient source — the seam
/// the distributed trainer (`photonn-dist`) plugs into. Everything around
/// the data gradient stays here, on the coordinating process: shuffling,
/// learning-rate schedule, regularizer gradients, the extra-force hook,
/// freeze masking, and the Adam update. `grad_source` is called once per
/// mini-batch with the current model and must return the batch-averaged
/// data-loss gradients and the batch mean loss in the
/// [`batched_gradients`] contract; `epoch_hook` (if any) observes each
/// [`EpochStats`] as the epoch completes.
///
/// [`train_with`] is exactly this loop with [`batched_gradients`] as the
/// source; [`try_train_with_grad_source`] is the fallible form.
///
/// # Panics
///
/// Panics on shape mismatches between the dataset, model, freeze masks and
/// gradient-source output.
pub fn train_with_grad_source(
    donn: &mut Donn,
    data: &Dataset,
    opts: &TrainOptions,
    freeze: Option<&[Arc<Grid>]>,
    extra_grad: Option<ExtraGradFn<'_>>,
    mut grad_source: impl FnMut(&Donn, &Dataset, &[usize]) -> (Vec<Grid>, f64),
    epoch_hook: Option<EpochHookFn<'_>>,
) -> Vec<EpochStats> {
    let result: Result<Vec<EpochStats>, std::convert::Infallible> = try_train_with_grad_source(
        donn,
        data,
        opts,
        freeze,
        extra_grad,
        |donn, data, batch| Ok(grad_source(donn, data, batch)),
        epoch_hook,
    );
    match result {
        Ok(stats) => stats,
        Err(never) => match never {},
    }
}

/// [`train_with_grad_source`] with a *fallible* gradient source — the seam
/// fault-tolerant distributed training plugs into. The first `Err` from
/// `grad_source` aborts the loop and is returned as-is; the model is then
/// left at the last successfully applied optimizer step (every step either
/// fully applies or not at all — the error surfaces *before* the Adam
/// update for its batch).
///
/// # Errors
///
/// Propagates the first error returned by `grad_source`.
///
/// # Panics
///
/// Panics on shape mismatches between the dataset, model, freeze masks and
/// gradient-source output.
pub fn try_train_with_grad_source<E>(
    donn: &mut Donn,
    data: &Dataset,
    opts: &TrainOptions,
    freeze: Option<&[Arc<Grid>]>,
    mut extra_grad: Option<ExtraGradFn<'_>>,
    mut grad_source: impl FnMut(&Donn, &Dataset, &[usize]) -> Result<(Vec<Grid>, f64), E>,
    mut epoch_hook: Option<EpochHookFn<'_>>,
) -> Result<Vec<EpochStats>, E> {
    assert!(opts.epochs > 0, "epochs must be positive");
    assert!(
        opts.lr_final_fraction > 0.0 && opts.lr_final_fraction <= 1.0,
        "lr_final_fraction must be in (0, 1]"
    );
    let mut adam = Adam::new(opts.learning_rate);
    let mut batches = BatchIter::new(data.len(), opts.batch_size, opts.seed);
    let mut stats = Vec::with_capacity(opts.epochs);

    for epoch in 0..opts.epochs {
        if opts.epochs > 1 {
            let t = epoch as f64 / (opts.epochs - 1) as f64;
            adam.set_learning_rate(opts.learning_rate * opts.lr_final_fraction.powf(t));
        }
        let mut epoch_loss = 0.0;
        let mut batch_count = 0usize;
        let mut grad_norm_sum = 0.0;
        let epoch_start = std::time::Instant::now();
        for batch in batches.epoch() {
            let _step_span = photonn_trace::span("train.step");
            let (mut grads, loss) = grad_source(donn, data, &batch)?;
            assert_eq!(grads.len(), donn.masks().len(), "gradient count mismatch");
            epoch_loss += loss;
            batch_count += 1;

            // Regularization gradients at full strength (Eq. 5/8).
            for (g, mask) in grads.iter_mut().zip(donn.masks()) {
                let rg = opts.regularization.gradient(mask);
                g.axpy(1.0, &rg);
            }
            // Caller-injected forces (SLR multipliers).
            if let Some(hook) = extra_grad.as_mut() {
                let extra = hook(donn.masks());
                assert_eq!(extra.len(), grads.len(), "extra gradient count mismatch");
                for (g, e) in grads.iter_mut().zip(&extra) {
                    g.axpy(1.0, e);
                }
            }
            // Frozen pixels receive no update and stay at zero.
            if let Some(fz) = freeze {
                for (g, k) in grads.iter_mut().zip(fz) {
                    *g = g.hadamard(k);
                }
            }
            grad_norm_sum += grads
                .iter()
                .map(|g| g.as_slice().iter().map(|v| v * v).sum::<f64>())
                .sum::<f64>()
                .sqrt();
            adam.step(donn.masks_mut(), &grads);
            if let Some(fz) = freeze {
                for (mask, k) in donn.masks_mut().iter_mut().zip(fz) {
                    *mask = mask.hadamard(k);
                }
            }
        }
        let penalty: f64 = donn
            .masks()
            .iter()
            .map(|m| opts.regularization.penalty(m))
            .sum();
        let elapsed = epoch_start.elapsed().as_secs_f64();
        let (saturated, total) = donn.masks().iter().fold((0usize, 0usize), |(s, t), m| {
            let sat = m
                .as_slice()
                .iter()
                .filter(|&&phi| !(0.0..photonn_math::TWO_PI).contains(&phi))
                .count();
            (s + sat, t + m.as_slice().len())
        });
        let epoch_stats = EpochStats {
            epoch,
            mean_loss: epoch_loss / batch_count.max(1) as f64,
            penalty,
            grad_norm: grad_norm_sum / batch_count.max(1) as f64,
            steps_per_sec: if elapsed > 0.0 {
                batch_count as f64 / elapsed
            } else {
                0.0
            },
            phase_saturation: saturated as f64 / total.max(1) as f64,
        };
        if let Some(hook) = epoch_hook.as_mut() {
            hook(&epoch_stats);
        }
        stats.push(epoch_stats);
    }
    Ok(stats)
}

/// Trains without freezing or extra forces — the baseline/Ours-A path.
pub fn train(donn: &mut Donn, data: &Dataset, opts: &TrainOptions) -> Vec<EpochStats> {
    train_with(donn, data, opts, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DonnConfig;
    use photonn_datasets::Family;
    use photonn_math::Rng;

    fn tiny_setup(seed: u64) -> (Donn, Dataset, Dataset) {
        let mut rng = Rng::seed_from(seed);
        let donn = Donn::random(DonnConfig::scaled(32), &mut rng);
        let data = Dataset::synthetic(Family::Mnist, 120, seed).resized(32);
        let (train, test) = data.split(100);
        (donn, train, test)
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let (mut donn, train_data, test_data) = tiny_setup(1);
        let before_acc = donn.accuracy(&test_data, 2);
        let opts = TrainOptions {
            epochs: 4,
            batch_size: 20,
            learning_rate: 0.08,
            ..TrainOptions::default()
        };
        let stats = train(&mut donn, &train_data, &opts);
        assert!(
            stats.last().unwrap().mean_loss < stats[0].mean_loss,
            "loss did not decrease: {stats:?}"
        );
        let after_acc = donn.accuracy(&test_data, 2);
        // 10 balanced classes: chance = 0.1. Expect clear learning.
        assert!(
            after_acc > 0.25 && after_acc >= before_acc,
            "accuracy before {before_acc}, after {after_acc}"
        );
    }

    #[test]
    fn roughness_regularization_smooths_masks() {
        let (mut donn_plain, train_data, _) = tiny_setup(2);
        let mut donn_reg = donn_plain.clone();
        let base = TrainOptions {
            epochs: 2,
            batch_size: 20,
            learning_rate: 0.08,
            ..TrainOptions::default()
        };
        train(&mut donn_plain, &train_data, &base);
        let reg_opts = TrainOptions {
            regularization: Regularization::roughness_only(0.02),
            ..base
        };
        train(&mut donn_reg, &train_data, &reg_opts);
        let cfg = RoughnessConfig::paper();
        let r_plain = crate::roughness::r_overall(donn_plain.masks(), cfg);
        let r_reg = crate::roughness::r_overall(donn_reg.masks(), cfg);
        assert!(
            r_reg < r_plain,
            "regularized roughness {r_reg} !< plain {r_plain}"
        );
    }

    #[test]
    fn freeze_keeps_pixels_zero_through_training() {
        let (mut donn, train_data, _) = tiny_setup(3);
        // Zero phase in a block and freeze it.
        let n = 32;
        let mut keep = Grid::full(n, n, 1.0);
        for r in 8..16 {
            for c in 8..16 {
                keep[(r, c)] = 0.0;
            }
        }
        let shared = Arc::new(keep.clone());
        let freeze: Vec<Arc<Grid>> = vec![shared.clone(), shared.clone(), shared];
        for mask in donn.masks_mut() {
            *mask = mask.hadamard(&keep);
        }
        let opts = TrainOptions {
            epochs: 1,
            batch_size: 25,
            ..TrainOptions::default()
        };
        train_with(&mut donn, &train_data, &opts, Some(&freeze), None);
        for mask in donn.masks() {
            for r in 8..16 {
                for c in 8..16 {
                    assert_eq!(mask[(r, c)], 0.0);
                }
            }
            // Unfrozen pixels moved.
            assert!(mask.as_slice().iter().any(|&v| v != 0.0));
        }
    }

    #[test]
    fn extra_grad_hook_is_applied() {
        let (mut donn, train_data, _) = tiny_setup(4);
        let before = donn.masks()[0].clone();
        // A huge constant extra gradient must dominate the update
        // direction: all pixels of layer 0 move down.
        let opts = TrainOptions {
            epochs: 1,
            batch_size: 120,
            learning_rate: 0.05,
            ..TrainOptions::default()
        };
        let mut hook = |masks: &[Grid]| -> Vec<Grid> {
            let mut extra: Vec<Grid> = masks
                .iter()
                .map(|m| Grid::zeros(m.rows(), m.cols()))
                .collect();
            extra[0] = Grid::full(32, 32, 1e6);
            extra
        };
        train_with(&mut donn, &train_data, &opts, None, Some(&mut hook));
        let after = &donn.masks()[0];
        let moved_down = before
            .as_slice()
            .iter()
            .zip(after.as_slice())
            .filter(|(b, a)| a < b)
            .count();
        assert!(
            moved_down as f64 > 0.99 * before.len() as f64,
            "only {moved_down} pixels moved down"
        );
    }

    /// The acceptance bar for the batched engine: 3 layers, batch 8 — the
    /// one-tape-per-batch gradients must equal the per-sample-averaged
    /// oracle within 1e-9, at 1 and 3 threads.
    fn assert_batched_matches_oracle(grid: usize, seed: u64) {
        let mut rng = Rng::seed_from(seed);
        let donn = Donn::random(DonnConfig::scaled(grid), &mut rng);
        assert_eq!(donn.config().num_layers, 3);
        let data = Dataset::synthetic(Family::Mnist, 8, seed).resized(grid);
        let batch: Vec<usize> = (0..8).collect();

        for threads in [1usize, 3] {
            let (g_batched, l_batched) =
                super::batched_gradients(&donn, &data, &batch, None, threads);
            let (g_oracle, l_oracle) =
                per_sample_batch_gradients(&donn, &data, &batch, None, threads);
            assert!(
                (l_batched - l_oracle).abs() < 1e-9,
                "grid {grid}: loss mismatch at {threads} threads: {l_batched} vs {l_oracle}"
            );
            assert_eq!(g_batched.len(), 3);
            for (layer, (gb, go)) in g_batched.iter().zip(&g_oracle).enumerate() {
                let diff = gb.max_abs_diff(go);
                assert!(
                    diff < 1e-9,
                    "grid {grid}: layer {layer} gradient mismatch at {threads} threads: {diff}"
                );
                // And the gradients are non-trivial.
                assert!(gb.as_slice().iter().any(|&v| v != 0.0));
            }
        }
    }

    #[test]
    fn batched_gradients_match_per_sample_oracle() {
        assert_batched_matches_oracle(16, 17);
    }

    #[test]
    fn batched_gradients_match_per_sample_oracle_on_mixed_radix_grid() {
        // Grid 20 (= 2²·5) runs the planar vectorized mixed-radix engine
        // against the oracle's scalar recursive one — the paper-native
        // 200-grid path in miniature; grid 12 (= 2²·3) takes the scalar
        // batched fallback.
        assert_batched_matches_oracle(20, 29);
        assert_batched_matches_oracle(12, 31);
    }

    #[test]
    fn batched_gradients_match_oracle_with_freeze() {
        let mut rng = Rng::seed_from(23);
        let donn = Donn::random(DonnConfig::scaled(16), &mut rng);
        let data = Dataset::synthetic(Family::Mnist, 6, 23).resized(16);
        let batch: Vec<usize> = (0..6).collect();
        let mut keep = Grid::full(16, 16, 1.0);
        keep[(4, 4)] = 0.0;
        keep[(9, 2)] = 0.0;
        let shared = Arc::new(keep);
        let freeze: Vec<Arc<Grid>> = vec![shared.clone(), shared.clone(), shared];

        let (g_batched, _) = super::batched_gradients(&donn, &data, &batch, Some(&freeze), 2);
        let (g_oracle, _) = per_sample_batch_gradients(&donn, &data, &batch, Some(&freeze), 2);
        for (gb, go) in g_batched.iter().zip(&g_oracle) {
            assert!(gb.max_abs_diff(go) < 1e-9);
            assert_eq!(gb[(4, 4)], 0.0);
            assert_eq!(gb[(9, 2)], 0.0);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (mut a, data, _) = tiny_setup(5);
        let mut b = a.clone();
        let opts = TrainOptions {
            epochs: 1,
            batch_size: 16,
            ..TrainOptions::default()
        };
        let sa = train(&mut a, &data, &opts);
        let sb = train(&mut b, &data, &opts);
        assert_eq!(sa, sb);
        for (ma, mb) in a.masks().iter().zip(b.masks()) {
            assert_eq!(ma, mb);
        }
    }
}
