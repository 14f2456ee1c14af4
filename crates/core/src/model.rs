//! The DONN model: a stack of `DiffMod` stages (free-space propagation +
//! phase modulation, paper Eq. 2) with a detector-plane readout.

use photonn_autodiff::{CVar, RVar, Region, SVar, Tape};
use photonn_datasets::Dataset;
use photonn_fft::Fft2;
use photonn_math::{BatchCGrid, CGrid, Grid, Rng, TWO_PI};
use photonn_optics::{encode_amplitude, transfer_function};
use std::sync::Arc;

use crate::config::{DonnConfig, LossKind, MaskInit};
use crate::detector::argmax;

/// A low-frequency random phase field in the *upper* phase band
/// `[0.55·2π, 0.98·2π)`: coarse uniform noise bilinearly upsampled, plus
/// light pixel noise. See [`MaskInit::SmoothRandom`].
///
/// The band is biased high for two reasons. Physically, a fabricated mask
/// sits on a positive substrate thickness, so working-point phases are
/// large and positive; and the paper's §III-D2 premise — "pixels around
/// the sparsified blocks can have high positive values", which is what
/// makes the 0 ↔ high steps healable by adding 2π to the zeros — is a
/// statement about exactly this regime of trained masks.
fn smooth_random_mask(n: usize, rng: &mut Rng) -> Grid {
    let cells = (n / 8).max(2);
    let (lo, hi) = (0.55 * TWO_PI, 0.98 * TWO_PI);
    let coarse = Grid::from_fn(cells, cells, |_, _| rng.uniform_in(lo, hi));
    let mut mask = photonn_math::interp::bilinear_resize(&coarse, n, n);
    for v in mask.as_mut_slice() {
        // Clamp rather than wrap: wrapping would create the very 2π-scale
        // steps this initialization exists to avoid.
        *v = (*v + rng.normal_with(0.0, 0.05)).clamp(0.0, TWO_PI - 1e-9);
    }
    mask
}

/// Scale applied inside `normalize_detector` so MSE-softmax keeps useful
/// gradient dynamics: detector fractions (≤ 1) are mapped to logits with a
/// spread comparable to PyTorch DONN implementations.
const DETECTOR_LOGIT_GAIN: f64 = 10.0;

/// The tape handles of one batched loss graph
/// ([`Donn::build_batch_loss_parts`]): the scalar loss, the phase-mask
/// leaves, and the per-layer transmission nodes `w = e^{iφ}` whose complex
/// adjoints a distributed trainer all-reduces across shards
/// (`photonn_autodiff::MaskGrads`).
#[derive(Clone, Debug)]
pub struct BatchLossParts {
    /// The (scaled) batch-mean loss node.
    pub loss: SVar,
    /// Phase-mask leaf handles, in layer order.
    pub mask_vars: Vec<RVar>,
    /// `phase_to_complex` output handles, in layer order.
    pub trans_vars: Vec<CVar>,
}

/// A diffractive optical neural network with trainable phase masks.
///
/// # Examples
///
/// ```
/// use photonn_donn::{Donn, DonnConfig};
/// use photonn_math::{Grid, Rng};
///
/// let mut rng = Rng::seed_from(1);
/// let donn = Donn::random(DonnConfig::scaled(32), &mut rng);
/// let image = Grid::full(32, 32, 0.5);
/// let class = donn.predict(&image);
/// assert!(class < 10);
/// ```
#[derive(Clone, Debug)]
pub struct Donn {
    config: DonnConfig,
    masks: Vec<Grid>,
    kernel: Arc<CGrid>,
    /// Conjugate of `kernel`, precomputed once: the adjoint of a free-space
    /// hop is the same hop with the conjugated transfer function, so the
    /// batched backward sweep reuses the fused propagate path.
    kernel_conj: Arc<CGrid>,
    plan: Arc<Fft2>,
    regions: Arc<Vec<Region>>,
}

impl Donn {
    /// Creates a DONN with all-zero phase masks.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`DonnConfig::validate`]).
    pub fn new(config: DonnConfig) -> Self {
        config.validate();
        let n = config.grid();
        let padded = config.padding.padded_size(n);
        // The paper uses one uniform spacing; build the kernel once. If a
        // non-uniform spacing is configured, the per-hop kernels would
        // differ — assert uniformity to keep the invariant explicit.
        let d = config.distances;
        assert!(
            d.is_uniform(),
            "Donn currently assumes the paper's uniform plane spacing"
        );
        let kernel = Arc::new(transfer_function(
            &config.geometry,
            padded,
            d.between_layers,
            config.kernel_options,
        ));
        let kernel_conj = Arc::new(kernel.conj());
        let plan = Arc::new(Fft2::new(padded, padded));
        let regions = Arc::new(config.detector.regions(n));
        Donn {
            masks: vec![Grid::zeros(n, n); config.num_layers],
            config,
            kernel,
            kernel_conj,
            plan,
            regions,
        }
    }

    /// Creates a DONN with randomly initialized masks according to the
    /// configuration's [`MaskInit`] policy.
    pub fn random(config: DonnConfig, rng: &mut Rng) -> Self {
        let init = config.init;
        let mut donn = Donn::new(config);
        let n = donn.config.grid();
        for mask in &mut donn.masks {
            *mask = match init {
                MaskInit::Zeros => Grid::zeros(n, n),
                MaskInit::UniformRandom => Grid::from_fn(n, n, |_, _| rng.uniform_in(0.0, TWO_PI)),
                MaskInit::SmoothRandom => smooth_random_mask(n, rng),
            };
        }
        donn
    }

    /// System configuration.
    pub fn config(&self) -> &DonnConfig {
        &self.config
    }

    /// The phase masks (radians), one per diffractive layer.
    pub fn masks(&self) -> &[Grid] {
        &self.masks
    }

    /// Mutable access to the phase masks (the trainer's parameter vector).
    pub fn masks_mut(&mut self) -> &mut [Grid] {
        &mut self.masks
    }

    /// Replaces all masks.
    ///
    /// # Panics
    ///
    /// Panics if the count or shapes differ from the configuration.
    pub fn set_masks(&mut self, masks: Vec<Grid>) {
        let n = self.config.grid();
        assert_eq!(masks.len(), self.config.num_layers, "wrong mask count");
        assert!(
            masks.iter().all(|m| m.shape() == (n, n)),
            "mask shape mismatch"
        );
        self.masks = masks;
    }

    /// The shared frequency-domain transfer function (padded size).
    pub fn kernel(&self) -> &Arc<CGrid> {
        &self.kernel
    }

    /// Detector regions on the output plane.
    pub fn regions(&self) -> &Arc<Vec<Region>> {
        &self.regions
    }

    /// The FFT plan used by both inference and training paths.
    pub fn plan(&self) -> &Arc<Fft2> {
        &self.plan
    }

    // ------------------------------------------------------------ inference

    /// One free-space hop (pad → FFT → ⊙H → iFFT → crop), inference path.
    fn propagate(&self, field: &CGrid) -> CGrid {
        let n = self.config.grid();
        let padded = self.config.padding.padded_size(n);
        let mut work = if padded == n {
            field.clone()
        } else {
            field.pad_centered(padded, padded)
        };
        self.plan.forward(&mut work);
        work.hadamard_inplace(&self.kernel);
        self.plan.inverse(&mut work);
        if padded == n {
            work
        } else {
            work.crop_centered(n, n)
        }
    }

    /// Full optical forward pass from an encoded input field to the
    /// complex field at the detector plane.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not grid-sized.
    pub fn forward_field(&self, input: &CGrid) -> CGrid {
        let n = self.config.grid();
        assert_eq!(input.shape(), (n, n), "input field shape mismatch");
        let mut field = self.propagate(input);
        for mask in &self.masks {
            field.hadamard_inplace(&CGrid::from_phase(mask));
            field = self.propagate(&field);
        }
        field
    }

    /// Detector-plane intensity for an image in `[0, 1]` (amplitude
    /// encoding, paper §III-A).
    ///
    /// # Panics
    ///
    /// Panics if the image is not grid-sized.
    pub fn forward_intensity(&self, image: &Grid) -> Grid {
        self.forward_field(&encode_amplitude(image)).intensity()
    }

    /// Raw detector sums (one per class), routed through the batched
    /// propagation engine with a batch of one. The engine is per-sample
    /// deterministic across batch sizes and thread counts, so these logits
    /// are bit-identical to the matching entry of any
    /// [`Donn::logits_batch`] call containing the same image — the
    /// invariant the serving layer's end-to-end tests pin down.
    ///
    /// # Panics
    ///
    /// Panics if the image is not grid-sized.
    pub fn logits(&self, image: &Grid) -> Vec<f64> {
        self.logits_batch(&[image], 1).pop().expect("one sample")
    }

    /// Batched inference: detector sums for a mini-batch of images through
    /// the batched propagation engine (one contiguous field stack, FFT
    /// batch chunks on `threads` workers; `threads == 0` is treated as 1).
    /// Returns one logits vector per image, bit-identical to per-image
    /// [`Donn::logits`], and an empty vector for an empty batch (a serving
    /// dispatcher must survive a degenerate flush).
    ///
    /// # Panics
    ///
    /// Panics if any image is not grid-sized.
    pub fn logits_batch(&self, images: &[&Grid], threads: usize) -> Vec<Vec<f64>> {
        if images.is_empty() {
            return Vec::new();
        }
        let field = self.first_hop_batch(images, threads);
        self.logits_batch_from_first_hop(field, threads)
    }

    /// The mask-independent first free-space hop for one image:
    /// `P(encode(image))`. Every DONN forward pass starts with this hop
    /// before any trainable mask touches the field, so its result can be
    /// cached per image and shared across model variants with the same
    /// optics (see `photonn-serve`'s input-hop cache).
    ///
    /// # Panics
    ///
    /// Panics if the image is not grid-sized.
    pub fn first_hop(&self, image: &Grid) -> CGrid {
        self.first_hop_batch(&[image], 1).to_cgrid(0)
    }

    /// Batched first hop: amplitude-encodes a mini-batch and runs the
    /// mask-independent free-space hop (`threads == 0` is treated as 1).
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or any image is not grid-sized.
    pub fn first_hop_batch(&self, images: &[&Grid], threads: usize) -> BatchCGrid {
        let n = self.config.grid();
        assert!(!images.is_empty(), "empty image batch");
        for img in images {
            assert_eq!(img.shape(), (n, n), "image shape mismatch");
        }
        let field = photonn_optics::encode_amplitude_batch(images);
        self.plan
            .apply_transfer_batch_owned(field, &self.kernel, n, threads.max(1))
    }

    /// Detector sums for a batch of *already propagated* first-hop fields —
    /// the serving batch-entry point that lets an input-hop cache skip
    /// [`Donn::first_hop_batch`] for repeated images.
    ///
    /// # Panics
    ///
    /// Panics if the fields are not grid-sized.
    pub fn logits_batch_from_first_hop(&self, field: BatchCGrid, threads: usize) -> Vec<Vec<f64>> {
        let transmissions: Vec<CGrid> = self.masks.iter().map(CGrid::from_phase).collect();
        self.logits_batch_with_transmissions(&transmissions, field, threads)
    }

    /// Modulate-and-read-out over arbitrary per-layer complex
    /// transmissions: applies each transmission to the (post-first-hop)
    /// field stack, propagates between layers, and returns per-sample
    /// detector sums. With `transmissions[l] = e^{iφ_l}` this is exactly
    /// the ideal readout; a fabrication model substitutes its
    /// crosstalk-corrupted transmissions to serve *deployed* predictions
    /// from the same batched engine (`threads == 0` is treated as 1).
    ///
    /// # Panics
    ///
    /// Panics if the transmission count differs from the layer count or
    /// any shape is not grid-sized.
    pub fn logits_batch_with_transmissions(
        &self,
        transmissions: &[CGrid],
        field: BatchCGrid,
        threads: usize,
    ) -> Vec<Vec<f64>> {
        let intensity = self.intensity_batch_with_transmissions(transmissions, field, threads);
        let cols = intensity.cols();
        intensity
            .samples()
            .map(|sample| crate::detector::region_sums_planar(sample, cols, &self.regions))
            .collect()
    }

    /// The detector-plane intensity stack behind
    /// [`Donn::logits_batch_with_transmissions`]: modulates and propagates
    /// the (post-first-hop) field stack through arbitrary per-layer complex
    /// transmissions and returns per-sample `|z|²` planes *before* any
    /// readout. Callers that aggregate detector intensity differently from
    /// the paper's plain region sums — e.g. a serving-side differential
    /// detection head — read out from this stack; summing each detector
    /// region reproduces the logits path bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the transmission count differs from the layer count or
    /// any shape is not grid-sized.
    pub fn intensity_batch_with_transmissions(
        &self,
        transmissions: &[CGrid],
        mut field: BatchCGrid,
        threads: usize,
    ) -> photonn_math::BatchGrid {
        let n = self.config.grid();
        assert_eq!(
            transmissions.len(),
            self.masks.len(),
            "transmission count mismatch"
        );
        assert_eq!((field.rows(), field.cols()), (n, n), "field shape mismatch");
        // Each layer is one fused modulate+hop pass: the broadcast
        // transmission multiply rides inside the per-sample worker sweep.
        let inner = self.config.grid();
        for t in transmissions {
            field = self.plan.modulate_transfer_batch_owned(
                field,
                t,
                &self.kernel,
                inner,
                threads.max(1),
            );
        }
        // Detector intensity straight from the planar field stack: |z|²
        // per sample, no per-sample grid copies. Readout is real-valued,
        // so no interleaved view is needed at all here.
        field.intensity()
    }

    /// Predicted class (`argmax` over detector sums).
    pub fn predict(&self, image: &Grid) -> usize {
        argmax(&self.logits(image))
    }

    /// Predicted classes for a mini-batch of images (batched inference
    /// engine; `threads == 0` is treated as 1). Returns an empty vector for
    /// an empty batch.
    ///
    /// # Panics
    ///
    /// Panics if any image is not grid-sized.
    pub fn predict_batch(&self, images: &[&Grid], threads: usize) -> Vec<usize> {
        self.logits_batch(images, threads)
            .iter()
            .map(|l| argmax(l))
            .collect()
    }

    /// Mini-batch size used by [`Donn::accuracy`]: large enough to amortize
    /// batched-engine setup, small enough to keep the field stack cheap.
    const ACCURACY_BATCH: usize = 64;

    /// Classification accuracy over a dataset, evaluated through the
    /// batched inference engine in fixed-size mini-batches whose FFT work
    /// is spread over `threads` workers (deterministic: samples are
    /// chunked, not raced; `threads == 0` is treated as 1).
    ///
    /// Returns `0.0` for an empty dataset instead of `NaN`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset images are not grid-sized.
    pub fn accuracy(&self, dataset: &Dataset, threads: usize) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let threads = threads.max(1);
        let mut correct = 0usize;
        let mut at = 0usize;
        while at < dataset.len() {
            let hi = (at + Self::ACCURACY_BATCH).min(dataset.len());
            let images: Vec<&Grid> = (at..hi).map(|i| dataset.image(i)).collect();
            correct += self
                .predict_batch(&images, threads)
                .into_iter()
                .zip(at..hi)
                .filter(|(p, i)| *p == dataset.label(*i))
                .count();
            at = hi;
        }
        correct as f64 / dataset.len() as f64
    }

    // ------------------------------------------------------------- training

    /// Builds the differentiable per-sample data loss on `tape`.
    ///
    /// Returns the loss node and the mask leaf handles (in layer order)
    /// whose gradients the trainer reads back. `freeze` optionally holds a
    /// 0/1 keep-mask per layer; zeroed pixels then stay at exactly zero
    /// phase through training (frozen sparsity).
    ///
    /// # Panics
    ///
    /// Panics on image shape mismatch or a label outside the detector
    /// classes.
    pub fn build_sample_loss(
        &self,
        tape: &mut Tape,
        image: &Grid,
        label: usize,
        freeze: Option<&[Arc<Grid>]>,
    ) -> (SVar, Vec<RVar>) {
        let n = self.config.grid();
        assert_eq!(image.shape(), (n, n), "image shape mismatch");
        assert!(
            label < self.config.detector.num_classes,
            "label {label} outside {} classes",
            self.config.detector.num_classes
        );
        if let Some(fz) = freeze {
            assert_eq!(fz.len(), self.masks.len(), "freeze mask count mismatch");
        }
        let padded = self.config.padding.padded_size(n);

        let mut mask_vars = Vec::with_capacity(self.masks.len());
        let input = tape.constant_complex(encode_amplitude(image));
        let mut field = self.tape_propagate(tape, input, n, padded);
        for (l, mask) in self.masks.iter().enumerate() {
            let phi = tape.leaf_real(mask.clone());
            mask_vars.push(phi);
            let phi_eff = match freeze {
                Some(fz) => tape.mul_const_r(phi, &fz[l]),
                None => phi,
            };
            let w = tape.phase_to_complex(phi_eff);
            let modulated = tape.mul_cc(field, w);
            field = self.tape_propagate(tape, modulated, n, padded);
        }
        let intensity = tape.intensity(field);
        let sums = tape.region_sums(intensity, &self.regions);
        let scores = if self.config.normalize_detector {
            // softmax(k · x/Σx): the normalization keeps logits in [0, k]
            // regardless of absolute optical power, and the gain k restores
            // enough spread for MSE-softmax to have useful gradients.
            let norm = tape.normalize_sum(sums, 1e-12);
            let gained = tape.scale_v(norm, DETECTOR_LOGIT_GAIN);
            tape.softmax(gained)
        } else {
            tape.softmax(sums)
        };
        let loss = match self.config.loss {
            LossKind::MseSoftmax => tape.mse_onehot(scores, label),
            LossKind::CrossEntropy => tape.cross_entropy_onehot(scores, label),
        };
        (loss, mask_vars)
    }

    fn tape_propagate(
        &self,
        tape: &mut Tape,
        field: photonn_autodiff::CVar,
        n: usize,
        padded: usize,
    ) -> photonn_autodiff::CVar {
        let f = if padded == n {
            field
        } else {
            tape.pad_centered(field, padded, padded)
        };
        let spec = tape.fft2(f, &self.plan);
        let filtered = tape.mul_const_c(spec, &self.kernel);
        let out = tape.ifft2(filtered, &self.plan);
        if padded == n {
            out
        } else {
            tape.crop_centered(out, n, n)
        }
    }

    /// Builds the differentiable mean data loss of a whole mini-batch on
    /// **one** tape — the batched propagation engine's training entry
    /// point. The phase-mask leaves are shared across the batch, every
    /// field op carries a `[batch, n, n]` stack, each free-space hop is one
    /// fused pad→FFT→⊙H→iFFT→crop node with FFT work spread over `threads`
    /// workers, and the backward sweep accumulates each mask's gradient
    /// over the whole batch in a single pass. The returned loss is the
    /// batch *mean*, so mask gradients come out batch-averaged exactly like
    /// the per-sample oracle ([`Donn::build_sample_loss`] + averaging).
    ///
    /// `freeze` has the same meaning as in [`Donn::build_sample_loss`].
    ///
    /// # Panics
    ///
    /// Panics if `images` and `labels` differ in length or are empty, on
    /// image shape mismatch, or on a label outside the detector classes.
    pub fn build_batch_loss(
        &self,
        tape: &mut Tape,
        images: &[&Grid],
        labels: &[usize],
        freeze: Option<&[Arc<Grid>]>,
        threads: usize,
    ) -> (SVar, Vec<RVar>) {
        let parts =
            self.build_batch_loss_parts(tape, images, labels, freeze, threads, images.len());
        (parts.loss, parts.mask_vars)
    }

    /// [`Donn::build_batch_loss`], exposing every handle a distributed
    /// trainer needs ([`BatchLossParts`]) and taking an explicit mean
    /// denominator. With `denom` equal to the batch length this is the
    /// ordinary batch mean; a data-parallel worker instead passes the
    /// *global* batch size so its shard's loss is `Σ_{i∈shard} l_i / B` —
    /// every backward contribution then carries exactly the single-tape
    /// `1/B` seed and the cross-shard all-reduce is a plain sum (see
    /// `photonn-dist`).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Donn::build_batch_loss`], plus `denom == 0`.
    pub fn build_batch_loss_parts(
        &self,
        tape: &mut Tape,
        images: &[&Grid],
        labels: &[usize],
        freeze: Option<&[Arc<Grid>]>,
        threads: usize,
        denom: usize,
    ) -> BatchLossParts {
        let _span = photonn_trace::span("tape.forward");
        let n = self.config.grid();
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(!images.is_empty(), "empty batch");
        for img in images {
            assert_eq!(img.shape(), (n, n), "image shape mismatch");
        }
        for label in labels {
            assert!(
                *label < self.config.detector.num_classes,
                "label {label} outside {} classes",
                self.config.detector.num_classes
            );
        }
        if let Some(fz) = freeze {
            assert_eq!(fz.len(), self.masks.len(), "freeze mask count mismatch");
        }

        let mut mask_vars = Vec::with_capacity(self.masks.len());
        let mut trans_vars = Vec::with_capacity(self.masks.len());
        let input = tape.constant_batch_complex(photonn_optics::encode_amplitude_batch(images));
        let mut field = self.tape_propagate_batch(tape, input, threads);
        for (l, mask) in self.masks.iter().enumerate() {
            let phi = tape.leaf_real(mask.clone());
            mask_vars.push(phi);
            let phi_eff = match freeze {
                Some(fz) => tape.mul_const_r(phi, &fz[l]),
                None => phi,
            };
            let w = tape.phase_to_complex(phi_eff);
            trans_vars.push(w);
            field = tape.modulate_propagate_batch(
                field,
                w,
                &self.kernel,
                &self.kernel_conj,
                &self.plan,
                threads,
            );
        }
        let sums = tape.region_intensity_batch(field, &self.regions);
        let scores = if self.config.normalize_detector {
            let norm = tape.normalize_sum_rows(sums, 1e-12);
            let gained = tape.scale_r(norm, DETECTOR_LOGIT_GAIN);
            tape.softmax_rows(gained)
        } else {
            tape.softmax_rows(sums)
        };
        let targets = Arc::new(labels.to_vec());
        let loss = match self.config.loss {
            LossKind::MseSoftmax => tape.mse_onehot_mean_rows_with_denom(scores, &targets, denom),
            LossKind::CrossEntropy => {
                tape.cross_entropy_mean_rows_with_denom(scores, &targets, denom)
            }
        };
        BatchLossParts {
            loss,
            mask_vars,
            trans_vars,
        }
    }

    fn tape_propagate_batch(
        &self,
        tape: &mut Tape,
        field: photonn_autodiff::BCVar,
        threads: usize,
    ) -> photonn_autodiff::BCVar {
        tape.propagate_batch(field, &self.kernel, &self.kernel_conj, &self.plan, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photonn_datasets::Family;

    fn small() -> Donn {
        let mut rng = Rng::seed_from(3);
        Donn::random(DonnConfig::scaled(32), &mut rng)
    }

    #[test]
    fn forward_conserves_or_loses_energy() {
        let donn = small();
        let img = Grid::full(32, 32, 0.5);
        let input = encode_amplitude(&img);
        let out = donn.forward_field(&input);
        // Phase masks are unitary; band-limited propagation only removes.
        assert!(out.total_power() <= input.total_power() * (1.0 + 1e-9));
        assert!(out.total_power() > 0.0);
    }

    #[test]
    fn zero_mask_donn_equals_pure_propagation() {
        let cfg = DonnConfig::scaled(32);
        let donn = Donn::new(cfg);
        let img = Grid::from_fn(32, 32, |r, c| ((r + c) % 3) as f64 / 2.0);
        let input = encode_amplitude(&img);
        // 4 hops of the same kernel == kernel applied 4 times.
        let mut expected = input.clone();
        for _ in 0..4 {
            expected = donn.propagate(&expected);
        }
        let got = donn.forward_field(&input);
        assert!(got.max_abs_diff(&expected) < 1e-9);
    }

    #[test]
    fn predict_is_deterministic_and_in_range() {
        let donn = small();
        let data = Dataset::synthetic(Family::Mnist, 10, 5).resized(32);
        for i in 0..10 {
            let p1 = donn.predict(data.image(i));
            let p2 = donn.predict(data.image(i));
            assert_eq!(p1, p2);
            assert!(p1 < 10);
        }
    }

    #[test]
    fn accuracy_parallel_matches_serial() {
        let donn = small();
        let data = Dataset::synthetic(Family::Mnist, 20, 9).resized(32);
        let serial = donn.accuracy(&data, 1);
        let parallel = donn.accuracy(&data, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn accuracy_of_empty_dataset_is_zero_not_nan() {
        // `Dataset::default()` is the one constructible empty dataset;
        // accuracy used to divide by len() and return NaN on it.
        let donn = small();
        let empty = Dataset::default();
        let acc = donn.accuracy(&empty, 2);
        assert_eq!(acc, 0.0);
        assert!(!acc.is_nan());
    }

    #[test]
    fn batched_logits_are_bit_identical_to_per_sample_logits() {
        let donn = small();
        let data = Dataset::synthetic(Family::Mnist, 7, 4).resized(32);
        let images: Vec<&Grid> = (0..7).map(|i| data.image(i)).collect();
        for threads in [1usize, 3] {
            let batched = donn.logits_batch(&images, threads);
            for (i, logits) in batched.iter().enumerate() {
                let single = donn.logits(images[i]);
                for (a, b) in logits.iter().zip(&single) {
                    assert_eq!(a, b, "sample {i} at {threads} threads: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_returns_empty_not_panic() {
        let donn = small();
        assert!(donn.logits_batch(&[], 2).is_empty());
        assert!(donn.predict_batch(&[], 2).is_empty());
    }

    #[test]
    fn zero_threads_normalized_to_one() {
        let donn = small();
        let data = Dataset::synthetic(Family::Mnist, 4, 5).resized(32);
        let images: Vec<&Grid> = (0..4).map(|i| data.image(i)).collect();
        assert_eq!(donn.logits_batch(&images, 0), donn.logits_batch(&images, 1));
        assert_eq!(donn.accuracy(&data, 0), donn.accuracy(&data, 1));
    }

    #[test]
    fn first_hop_cache_path_matches_direct_batch() {
        // Assembling a batch from individually computed (cacheable) first
        // hops must reproduce the direct batched path bit-for-bit.
        let donn = small();
        let data = Dataset::synthetic(Family::Mnist, 5, 8).resized(32);
        let images: Vec<&Grid> = (0..5).map(|i| data.image(i)).collect();
        let direct = donn.logits_batch(&images, 3);
        let hops: Vec<CGrid> = images.iter().map(|img| donn.first_hop(img)).collect();
        let assembled = BatchCGrid::from_samples(&hops);
        let via_cache = donn.logits_batch_from_first_hop(assembled, 3);
        assert_eq!(direct, via_cache);
    }

    #[test]
    fn identity_transmissions_reproduce_ideal_logits() {
        let donn = small();
        let data = Dataset::synthetic(Family::Mnist, 3, 2).resized(32);
        let images: Vec<&Grid> = (0..3).map(|i| data.image(i)).collect();
        let transmissions: Vec<CGrid> = donn.masks().iter().map(CGrid::from_phase).collect();
        let field = donn.first_hop_batch(&images, 2);
        let via = donn.logits_batch_with_transmissions(&transmissions, field, 2);
        assert_eq!(via, donn.logits_batch(&images, 2));
    }

    #[test]
    fn batch_loss_matches_sample_loss_mean() {
        let donn = small();
        let data = Dataset::synthetic(Family::Mnist, 5, 6).resized(32);
        let images: Vec<&Grid> = (0..5).map(|i| data.image(i)).collect();
        let labels: Vec<usize> = (0..5).map(|i| data.label(i)).collect();

        let mut tape = Tape::new();
        let (loss, masks) = donn.build_batch_loss(&mut tape, &images, &labels, None, 2);
        assert_eq!(masks.len(), 3);
        let batched = tape.scalar(loss);

        let mut mean = 0.0;
        for (img, &label) in images.iter().zip(&labels) {
            let mut t = Tape::new();
            let (l, _) = donn.build_sample_loss(&mut t, img, label, None);
            mean += t.scalar(l);
        }
        mean /= 5.0;
        assert!(
            (batched - mean).abs() < 1e-12,
            "batched {batched} vs mean {mean}"
        );
    }

    #[test]
    fn tape_forward_matches_inference_loss_free_path() {
        // The tape's intensity must equal the inference intensity.
        let donn = small();
        let img = Grid::from_fn(32, 32, |r, c| ((r * c) % 5) as f64 / 4.0);
        let mut tape = Tape::new();
        let (_, _) = donn.build_sample_loss(&mut tape, &img, 0, None);
        // Reconstruct intensity from logits: compare detector sums.
        let inference = donn.logits(&img);
        // Find the region_sums node values through a fresh forward:
        // easiest check — rebuild and compare loss against a manual
        // computation from inference logits.
        let mut tape2 = Tape::new();
        let (loss_var, _) = donn.build_sample_loss(&mut tape2, &img, 0, None);
        let loss_tape = tape2.scalar(loss_var);

        let total: f64 = inference.iter().sum::<f64>() + 1e-12;
        let normed: Vec<f64> = inference.iter().map(|s| s / total * 10.0).collect();
        let max = normed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = normed.iter().map(|v| (v - max).exp()).collect();
        let sum_e: f64 = exps.iter().sum();
        let probs: Vec<f64> = exps.iter().map(|e| e / sum_e).collect();
        let manual: f64 = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let t = if i == 0 { 1.0 } else { 0.0 };
                (p - t) * (p - t)
            })
            .sum();
        assert!(
            (loss_tape - manual).abs() < 1e-9,
            "tape {loss_tape} vs manual {manual}"
        );
    }

    #[test]
    fn frozen_pixels_receive_zero_gradient() {
        let donn = small();
        let img = Grid::full(32, 32, 0.3);
        let mut keep = Grid::full(32, 32, 1.0);
        keep[(10, 10)] = 0.0;
        keep[(20, 5)] = 0.0;
        let shared = Arc::new(keep.clone());
        let freeze: Vec<Arc<Grid>> = vec![shared.clone(), shared.clone(), shared];
        let mut tape = Tape::new();
        let (loss, masks) = donn.build_sample_loss(&mut tape, &img, 1, Some(&freeze));
        let grads = tape.backward(loss);
        for m in &masks {
            let g = grads.real(*m).unwrap();
            assert_eq!(g[(10, 10)], 0.0);
            assert_eq!(g[(20, 5)], 0.0);
            // And some unfrozen pixel carries gradient.
            assert!(g.as_slice().iter().any(|&v| v != 0.0));
        }
    }

    #[test]
    fn init_modes_differ_as_documented() {
        let mut rng = Rng::seed_from(8);
        let mut cfg = DonnConfig::scaled(32);
        cfg.init = MaskInit::Zeros;
        let zeros = Donn::random(cfg, &mut rng);
        assert_eq!(zeros.masks()[0].sum(), 0.0);

        cfg.init = MaskInit::UniformRandom;
        let uniform = Donn::random(cfg, &mut rng);
        cfg.init = MaskInit::SmoothRandom;
        let smooth = Donn::random(cfg, &mut rng);
        // Smooth init is much less rough than uniform, and sits in the
        // upper phase band.
        let rc = photonn_autodiff::RoughnessConfig::paper();
        let r_uniform = photonn_autodiff::penalty::roughness_value(&uniform.masks()[0], rc);
        let r_smooth = photonn_autodiff::penalty::roughness_value(&smooth.masks()[0], rc);
        assert!(
            r_smooth < r_uniform / 2.0,
            "smooth {r_smooth} not < uniform {r_uniform} / 2"
        );
        assert!(smooth.masks()[0].min() > 2.0, "not in the upper band");
        assert!(smooth.masks()[0].max() < TWO_PI);
    }

    #[test]
    fn cross_entropy_loss_kind_trains_gradients() {
        let mut cfg = DonnConfig::scaled(32);
        cfg.loss = LossKind::CrossEntropy;
        let mut rng = Rng::seed_from(12);
        let donn = Donn::random(cfg, &mut rng);
        let img = Grid::full(32, 32, 0.4);
        let mut tape = Tape::new();
        let (loss, masks) = donn.build_sample_loss(&mut tape, &img, 2, None);
        assert!(tape.scalar(loss) > 0.0);
        let grads = tape.backward(loss);
        assert!(grads
            .real(masks[0])
            .unwrap()
            .as_slice()
            .iter()
            .any(|&g| g != 0.0));
    }

    #[test]
    fn padded_model_matches_propagator_physics() {
        // With Padding::Double the tape path and inference path must agree
        // with each other (both route through the same kernel/plan).
        let mut cfg = DonnConfig::scaled(16);
        cfg.padding = photonn_optics::Padding::Double;
        let mut rng = Rng::seed_from(21);
        let donn = Donn::random(cfg, &mut rng);
        let img = Grid::from_fn(16, 16, |r, c| ((r + 2 * c) % 5) as f64 / 4.0);

        let inference_logits = donn.logits(&img);
        let mut tape = Tape::new();
        let (loss, _) = donn.build_sample_loss(&mut tape, &img, 0, None);
        let tape_loss = tape.scalar(loss);

        // Recompute the loss from inference logits, mirroring the model's
        // normalize → gain → softmax → MSE pipeline.
        let total: f64 = inference_logits.iter().sum::<f64>() + 1e-12;
        let normed: Vec<f64> = inference_logits.iter().map(|s| s / total * 10.0).collect();
        let max = normed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = normed.iter().map(|v| (v - max).exp()).collect();
        let sum_e: f64 = exps.iter().sum();
        let manual: f64 = exps
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                let p = e / sum_e;
                let t = if i == 0 { 1.0 } else { 0.0 };
                (p - t) * (p - t)
            })
            .sum();
        assert!(
            (tape_loss - manual).abs() < 1e-9,
            "padded tape {tape_loss} vs manual {manual}"
        );
    }

    #[test]
    #[should_panic(expected = "label")]
    fn out_of_range_label_panics() {
        let donn = small();
        let mut tape = Tape::new();
        let img = Grid::zeros(32, 32);
        let _ = donn.build_sample_loss(&mut tape, &img, 10, None);
    }
}
