//! Planned 2-D FFT over [`CGrid`] by row-column decomposition, with batched
//! execute paths over [`BatchCGrid`] for the mini-batch training engine.

use photonn_math::planar::{deinterleave, hadamard, hadamard_scale, interleave, transpose_plane};
use photonn_math::{BatchCGrid, CGrid, Complex64};
use std::sync::Arc;

use crate::vecmixed::VecMixed2d;
use crate::Fft;

/// A reusable 2-D FFT plan for a fixed `rows × cols` shape.
///
/// Forward is unnormalized; [`Fft2::inverse`] divides by `rows·cols` so the
/// pair round-trips. [`Fft2::inverse_unnormalized`] is the exact adjoint of
/// [`Fft2::forward`] (needed by reverse-mode AD).
///
/// # Examples
///
/// ```
/// use photonn_fft::Fft2;
/// use photonn_math::{CGrid, Complex64};
///
/// let plan = Fft2::new(4, 8);
/// let mut field = CGrid::full(4, 8, Complex64::ONE);
/// plan.forward(&mut field);
/// // DC bin collects everything.
/// assert!((field[(0, 0)].re - 32.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Fft2 {
    rows: usize,
    cols: usize,
    row_plan: Arc<Fft>,
    col_plan: Arc<Fft>,
    /// Vectorized square mixed-radix engine for the batched execute paths
    /// (`None` for shapes it cannot handle — non-square, or a side length
    /// with a prime factor other than 2 or 5).
    vec2d: Option<Arc<VecMixed2d>>,
}

impl Fft2 {
    /// Plans a 2-D transform for `rows × cols` grids.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "FFT2 dimensions must be positive");
        let row_plan = Arc::new(Fft::new(cols));
        let col_plan = if rows == cols {
            Arc::clone(&row_plan)
        } else {
            Arc::new(Fft::new(rows))
        };
        // The grid alone picks the batched path: square 2^a·5^b shapes
        // (every power of two, plus the paper's native 200 and its padded
        // companions) get the planar vectorized engine, every other shape
        // the scalar per-sample path.
        let vec2d =
            (rows == cols && VecMixed2d::supports(rows)).then(|| Arc::new(VecMixed2d::new(rows)));
        Fft2 {
            rows,
            cols,
            row_plan,
            col_plan,
            vec2d,
        }
    }

    /// Planned shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// In-place unnormalized forward 2-D DFT.
    ///
    /// # Panics
    ///
    /// Panics if `grid` does not have the planned shape.
    pub fn forward(&self, grid: &mut CGrid) {
        self.check(grid);
        for r in 0..self.rows {
            self.row_plan.forward(grid.row_mut(r));
        }
        self.columns(grid, |plan, buf| plan.forward(buf));
    }

    /// In-place inverse 2-D DFT including the `1/(rows·cols)` factor.
    ///
    /// # Panics
    ///
    /// Panics if `grid` does not have the planned shape.
    pub fn inverse(&self, grid: &mut CGrid) {
        self.inverse_unnormalized(grid);
        grid.scale_inplace(1.0 / (self.rows * self.cols) as f64);
    }

    /// In-place inverse 2-D DFT without normalization — the adjoint of
    /// [`Fft2::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `grid` does not have the planned shape.
    pub fn inverse_unnormalized(&self, grid: &mut CGrid) {
        self.check(grid);
        for r in 0..self.rows {
            self.row_plan.inverse_unnormalized(grid.row_mut(r));
        }
        self.columns(grid, |plan, buf| plan.inverse_unnormalized(buf));
    }

    fn check(&self, grid: &CGrid) {
        assert_eq!(
            grid.shape(),
            (self.rows, self.cols),
            "grid shape {:?} != planned {:?}",
            grid.shape(),
            (self.rows, self.cols)
        );
    }

    /// Applies `f` to every column through a gather/scatter buffer.
    fn columns(&self, grid: &mut CGrid, f: impl Fn(&Fft, &mut [Complex64])) {
        let mut buf = vec![Complex64::ZERO; self.rows];
        for c in 0..self.cols {
            for (r, b) in buf.iter_mut().enumerate() {
                *b = grid[(r, c)];
            }
            f(&self.col_plan, &mut buf);
            for (r, &b) in buf.iter().enumerate() {
                grid[(r, c)] = b;
            }
        }
    }

    // ------------------------------------------------------------ batched

    /// In-place unnormalized forward 2-D DFT of every sample, with batch
    /// chunks distributed over `threads` worker threads.
    ///
    /// The batch's split re/im planes are the native working set: on
    /// shapes with a vectorized engine the butterflies run directly on
    /// per-sample plane views — no layout conversion anywhere. Results are
    /// deterministic — independent of the thread count and of what else
    /// shares the batch — because batch work is chunked, never raced. The
    /// vectorized stage schedule (radix-8/4/2/5 Stockham) differs from the
    /// scalar 1-D engines, so per-sample results agree with
    /// [`Fft2::forward`] to rounding error (~1e-13 relative) rather than
    /// bit-for-bit; on other shapes the same 1-D engines run (through an
    /// interleave shim at the engine boundary) and results are
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the per-sample shape does not match the plan.
    pub fn forward_batch(&self, batch: &mut BatchCGrid, threads: usize) {
        let _span = photonn_trace::span("fft.forward_batch");
        self.batch_apply(batch, threads, |ctx, re, im| ctx.forward(re, im));
    }

    /// In-place normalized inverse 2-D DFT of every sample (batched
    /// [`Fft2::inverse`]).
    ///
    /// # Panics
    ///
    /// Panics if the per-sample shape does not match the plan.
    pub fn inverse_batch(&self, batch: &mut BatchCGrid, threads: usize) {
        self.inverse_unnormalized_batch(batch, threads);
        batch.scale_inplace(1.0 / (self.rows * self.cols) as f64);
    }

    /// In-place unnormalized inverse 2-D DFT of every sample — the adjoint
    /// of [`Fft2::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the per-sample shape does not match the plan.
    pub fn inverse_unnormalized_batch(&self, batch: &mut BatchCGrid, threads: usize) {
        let _span = photonn_trace::span("fft.inverse_batch");
        self.batch_apply(batch, threads, |ctx, re, im| {
            ctx.inverse_unnormalized(re, im)
        });
    }

    /// One frequency-domain transfer application for a whole batch:
    /// `crop(ifft2(fft2(pad(x)) ⊙ K))` per sample, sharing this plan and
    /// one kernel. `inner` is the native (pre-pad / post-crop) side length;
    /// when it equals the planned size the pad/crop are skipped.
    ///
    /// This is the fused hot path of the batched propagation engine: one
    /// scratch pipeline instead of five tape-visible intermediates.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not square, `kernel` does not match the
    /// planned shape, or the batch samples are not `inner × inner`.
    pub fn apply_transfer_batch(
        &self,
        field: &BatchCGrid,
        kernel: &CGrid,
        inner: usize,
        threads: usize,
    ) -> BatchCGrid {
        self.apply_transfer_batch_owned(field.clone(), kernel, inner, threads)
    }

    /// Like [`Fft2::apply_transfer_batch`] but consumes the batch,
    /// avoiding the defensive copy when the caller owns a scratch batch
    /// (the fused modulate-propagate op of the autodiff layer).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Fft2::apply_transfer_batch`].
    pub fn apply_transfer_batch_owned(
        &self,
        work: BatchCGrid,
        kernel: &CGrid,
        inner: usize,
        threads: usize,
    ) -> BatchCGrid {
        let _span = photonn_trace::span("hop.transfer");
        assert_eq!(
            self.rows, self.cols,
            "transfer application needs a square plan"
        );
        assert_eq!(
            kernel.shape(),
            (self.rows, self.cols),
            "kernel shape {:?} != planned {:?}",
            kernel.shape(),
            (self.rows, self.cols)
        );
        assert_eq!(
            (work.rows(), work.cols()),
            (inner, inner),
            "batch sample shape {:?} != ({inner}, {inner})",
            (work.rows(), work.cols()),
        );
        let mut work = if inner == self.rows {
            work
        } else {
            work.pad_centered(self.rows, self.cols)
        };
        // The 1/N normalization is folded into the kernel-multiply pass
        // (linearity lets it commute with the inverse transform), saving a
        // full sweep over the batch per hop.
        let scale = 1.0 / (self.rows * self.cols) as f64;
        if self.vec2d.is_some() {
            // Planar fast path: the batch's own re/im planes are the
            // working set — no layout conversion anywhere in the hop, and
            // only two plane transposes (the kernel is applied
            // pre-transposed while the planes sit in column-major
            // orientation).
            let kt = kernel.transpose();
            let (kr, ki): (Vec<f64>, Vec<f64>) = kt.as_slice().iter().map(|z| (z.re, z.im)).unzip();
            self.batch_apply(&mut work, threads, |ctx, re, im| {
                ctx.planar_transfer(re, im, &kr, &ki, scale);
            });
        } else {
            self.batch_apply(&mut work, threads, |ctx, re, im| {
                ctx.scalar_transfer(re, im, kernel, scale);
            });
        }
        if inner == self.rows {
            work
        } else {
            work.crop_centered(inner, inner)
        }
    }

    /// One fused diffractive-layer hop for a whole batch:
    /// `crop(ifft2(fft2(pad(x_b ⊙ m)) ⊙ K))` with a single mask shared
    /// across the batch. The broadcast modulation runs *inside* the
    /// per-sample worker pass, immediately before the sample's planes
    /// enter the butterflies — elementwise-identical to
    /// `hadamard_bcast_inplace` followed by
    /// [`Fft2::apply_transfer_batch_owned`], but it saves one full-batch
    /// memory sweep per layer (the modulation touches each sample while
    /// its planes are cache-hot anyway).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Fft2::apply_transfer_batch`], plus `mask` must
    /// be `inner × inner`.
    pub fn modulate_transfer_batch_owned(
        &self,
        mut work: BatchCGrid,
        mask: &CGrid,
        kernel: &CGrid,
        inner: usize,
        threads: usize,
    ) -> BatchCGrid {
        let _span = photonn_trace::span("hop.fused");
        assert_eq!(
            mask.shape(),
            (inner, inner),
            "mask shape {:?} != ({inner}, {inner})",
            mask.shape(),
        );
        if inner != self.rows {
            // Padded hop: the modulation applies at the native size, so it
            // cannot ride inside the padded per-sample pass.
            work.hadamard_bcast_inplace(mask);
            return self.apply_transfer_batch_owned(work, kernel, inner, threads);
        }
        assert_eq!(
            kernel.shape(),
            (self.rows, self.cols),
            "kernel shape {:?} != planned {:?}",
            kernel.shape(),
            (self.rows, self.cols)
        );
        assert_eq!(
            (work.rows(), work.cols()),
            (inner, inner),
            "batch sample shape {:?} != ({inner}, {inner})",
            (work.rows(), work.cols()),
        );
        let (mr, mi): (Vec<f64>, Vec<f64>) = mask.as_slice().iter().map(|z| (z.re, z.im)).unzip();
        let scale = 1.0 / (self.rows * self.cols) as f64;
        if self.vec2d.is_some() {
            let kt = kernel.transpose();
            let (kr, ki): (Vec<f64>, Vec<f64>) = kt.as_slice().iter().map(|z| (z.re, z.im)).unzip();
            self.batch_apply(&mut work, threads, |ctx, re, im| {
                hadamard(re, im, &mr, &mi);
                ctx.planar_transfer(re, im, &kr, &ki, scale);
            });
        } else {
            self.batch_apply(&mut work, threads, |ctx, re, im| {
                hadamard(re, im, &mr, &mi);
                ctx.scalar_transfer(re, im, kernel, scale);
            });
        }
        work
    }

    /// Runs `f` over every sample's re/im plane pair, chunking samples
    /// across scoped worker threads. `f` receives a [`SampleFft`] bound to
    /// this plan plus the sample's row-major plane views.
    fn batch_apply(
        &self,
        batch: &mut BatchCGrid,
        threads: usize,
        f: impl Fn(&mut SampleFft<'_>, &mut [f64], &mut [f64]) + Sync,
    ) {
        assert_eq!(
            (batch.rows(), batch.cols()),
            (self.rows, self.cols),
            "batch sample shape {:?} != planned {:?}",
            (batch.rows(), batch.cols()),
            (self.rows, self.cols)
        );
        let sample_len = batch.sample_len();
        let threads = threads.max(1).min(batch.batch());
        if threads == 1 {
            let mut ctx = SampleFft::new(self);
            for (re, im) in batch.samples_mut() {
                f(&mut ctx, re, im);
            }
            return;
        }
        let chunk_samples = batch.batch().div_ceil(threads);
        let f = &f;
        let (re_all, im_all) = batch.planes_mut();
        std::thread::scope(|scope| {
            let chunk_len = chunk_samples * sample_len;
            for (re_chunk, im_chunk) in re_all
                .chunks_mut(chunk_len)
                .zip(im_all.chunks_mut(chunk_len))
            {
                scope.spawn(move || {
                    let mut ctx = SampleFft::new(self);
                    for (re, im) in re_chunk
                        .chunks_mut(sample_len)
                        .zip(im_chunk.chunks_mut(sample_len))
                    {
                        f(&mut ctx, re, im);
                    }
                });
            }
        });
    }
}

/// Per-worker execution context for one [`Fft2`] plan: owns the scratch
/// buffers so batched workers never contend. The sample's own re/im planes
/// (views into the planar `BatchCGrid`) are the primary working set; the
/// vectorized path needs only one spare plane pair for Stockham ping-pong
/// and transposes, and the scalar fallback an interleaved pair for the 1-D
/// engines' boundary shim.
struct SampleFft<'a> {
    plan: &'a Fft2,
    /// Interleaved scratch pair for the scalar-engine fallback path
    /// (`None` when the vectorized engine covers this shape).
    scalar: Option<ScalarScratch>,
    /// Spare plane pair for the vectorized path (`None` otherwise).
    planar: Option<PlanarScratch>,
}

/// Interleaved working pair for the scalar 1-D engines: `buf` holds the
/// sample (interleaved at the shim boundary), `t` its transpose.
struct ScalarScratch {
    buf: Vec<Complex64>,
    t: Vec<Complex64>,
}

/// The spare split re/im plane pair of the vectorized path. Together with
/// the sample's own planes it forms the two-buffer working set: Stockham
/// stages ping-pong between the pairs and every transpose writes into the
/// currently-dead pair. Callers track which pair is live by swapping their
/// `&mut` bindings — O(1), so parity never forces a plane copy.
struct PlanarScratch {
    sre: Vec<f64>,
    sim: Vec<f64>,
}

impl<'a> SampleFft<'a> {
    fn new(plan: &'a Fft2) -> Self {
        let len = plan.rows * plan.cols;
        if plan.vec2d.is_some() {
            SampleFft {
                plan,
                scalar: None,
                planar: Some(PlanarScratch {
                    sre: vec![0.0; len],
                    sim: vec![0.0; len],
                }),
            }
        } else {
            SampleFft {
                plan,
                scalar: Some(ScalarScratch {
                    buf: vec![Complex64::ZERO; len],
                    t: vec![Complex64::ZERO; len],
                }),
                planar: None,
            }
        }
    }

    /// Unnormalized forward 2-D DFT of one sample's plane pair.
    fn forward(&mut self, re: &mut [f64], im: &mut [f64]) {
        if self.plan.vec2d.is_some() {
            self.planar_transform(re, im, false);
        } else {
            self.apply_scalar(re, im, |plan, buf| plan.forward(buf));
        }
    }

    /// Unnormalized inverse 2-D DFT of one sample's plane pair.
    fn inverse_unnormalized(&mut self, re: &mut [f64], im: &mut [f64]) {
        if self.plan.vec2d.is_some() {
            self.planar_transform(re, im, true);
        } else {
            self.apply_scalar(re, im, |plan, buf| plan.inverse_unnormalized(buf));
        }
    }

    /// Unnormalized 2-D DFT through the vectorized engine, in place on the
    /// sample's planes: row transform as a column pass over the transposed
    /// planes, then the column transform directly (the same order as the
    /// scalar path). `inverse` computes the unnormalized adjoint.
    fn planar_transform(&mut self, re: &mut [f64], im: &mut [f64], inverse: bool) {
        let v = self.plan.vec2d.as_ref().expect("planar path");
        let p = self.planar.as_mut().expect("planar scratch");
        let n = v.n();
        let odd = v.odd_stages();
        let re_ptr = re.as_ptr();
        let (mut live_re, mut live_im): (&mut [f64], &mut [f64]) = (re, im);
        let (mut spare_re, mut spare_im): (&mut [f64], &mut [f64]) = (&mut p.sre, &mut p.sim);

        transpose_plane(live_re, n, spare_re);
        transpose_plane(live_im, n, spare_im);
        std::mem::swap(&mut live_re, &mut spare_re);
        std::mem::swap(&mut live_im, &mut spare_im);
        v.column_pass(live_re, live_im, spare_re, spare_im, inverse);
        if odd {
            std::mem::swap(&mut live_re, &mut spare_re);
            std::mem::swap(&mut live_im, &mut spare_im);
        }
        transpose_plane(live_re, n, spare_re);
        transpose_plane(live_im, n, spare_im);
        std::mem::swap(&mut live_re, &mut spare_re);
        std::mem::swap(&mut live_im, &mut spare_im);
        v.column_pass(live_re, live_im, spare_re, spare_im, inverse);
        if odd {
            std::mem::swap(&mut live_re, &mut spare_re);
            std::mem::swap(&mut live_im, &mut spare_im);
        }
        // Two transposes + 2·(odd stages) buffer flips — always an even
        // count, so the result is back in the sample's own planes. The
        // copy branch is a safety net for future stage schedules only.
        if !std::ptr::eq(live_re.as_ptr(), re_ptr) {
            spare_re.copy_from_slice(live_re);
            spare_im.copy_from_slice(live_im);
        }
    }

    /// Fused planar transfer application, in place on one sample's planes:
    /// `(re, im) ← ifft2(fft2(re, im) ⊙ K)·scale` with **zero** layout
    /// conversions and only two plane transposes. The 2-D DFT axes
    /// commute, so the hop is evaluated as
    /// `invF_cols ∘ T ∘ invF_rows ∘ Kᵀ ∘ F_rows ∘ T ∘ F_cols`: the row
    /// transforms and the kernel product all happen while the planes are
    /// in column-major orientation — `kr`/`ki` must therefore hold the
    /// **transposed** kernel.
    ///
    /// Only callable on plans with a vectorized engine.
    fn planar_transfer(
        &mut self,
        re: &mut [f64],
        im: &mut [f64],
        kr: &[f64],
        ki: &[f64],
        scale: f64,
    ) {
        let v = self.plan.vec2d.as_ref().expect("planar path");
        let p = self.planar.as_mut().expect("planar scratch");
        let n = v.n();
        let odd = v.odd_stages();
        let re_ptr = re.as_ptr();
        let (mut live_re, mut live_im): (&mut [f64], &mut [f64]) = (re, im);
        let (mut spare_re, mut spare_im): (&mut [f64], &mut [f64]) = (&mut p.sre, &mut p.sim);
        macro_rules! flip {
            () => {
                std::mem::swap(&mut live_re, &mut spare_re);
                std::mem::swap(&mut live_im, &mut spare_im);
            };
        }

        // Forward column transform in natural orientation.
        v.column_pass(live_re, live_im, spare_re, spare_im, false);
        if odd {
            flip!();
        }
        // Forward row transform on the transposed planes.
        transpose_plane(live_re, n, spare_re);
        transpose_plane(live_im, n, spare_im);
        flip!();
        v.column_pass(live_re, live_im, spare_re, spare_im, false);
        if odd {
            flip!();
        }
        // Kernel product (kernel pre-transposed to this orientation) with
        // the 1/N normalization folded in.
        hadamard_scale(live_re, live_im, kr, ki, scale);
        // Inverse row transform, back to natural orientation, inverse
        // column transform.
        v.column_pass(live_re, live_im, spare_re, spare_im, true);
        if odd {
            flip!();
        }
        transpose_plane(live_re, n, spare_re);
        transpose_plane(live_im, n, spare_im);
        flip!();
        v.column_pass(live_re, live_im, spare_re, spare_im, true);
        if odd {
            flip!();
        }
        // 2 transposes + 4·(odd stages) flips — even, so the result ends
        // in the sample's own planes; the copy is future-proofing only.
        if !std::ptr::eq(live_re.as_ptr(), re_ptr) {
            spare_re.copy_from_slice(live_re);
            spare_im.copy_from_slice(live_im);
        }
    }

    /// One full transfer hop through the scalar 1-D engines:
    /// interleave shim in, `forward → ⊙K·scale → inverse_unnormalized`,
    /// shim back out. This is the fallback for shapes the vectorized
    /// engine cannot cover (side lengths with prime factors other than 2
    /// and 5).
    fn scalar_transfer(&mut self, re: &mut [f64], im: &mut [f64], kernel: &CGrid, scale: f64) {
        let scratch = self.scalar.as_mut().expect("scalar scratch");
        interleave(re, im, &mut scratch.buf);
        apply_interleaved(self.plan, scratch, |plan, buf| plan.forward(buf));
        for (z, &k) in scratch.buf.iter_mut().zip(kernel.as_slice()) {
            *z = (*z * k).scale(scale);
        }
        apply_interleaved(self.plan, scratch, |plan, buf| {
            plan.inverse_unnormalized(buf)
        });
        deinterleave(&scratch.buf, re, im);
    }

    /// One 2-D pass through the scalar 1-D engines with the interleave
    /// shim at the boundary.
    fn apply_scalar(&mut self, re: &mut [f64], im: &mut [f64], f: impl Fn(&Fft, &mut [Complex64])) {
        let scratch = self.scalar.as_mut().expect("scalar scratch");
        interleave(re, im, &mut scratch.buf);
        apply_interleaved(self.plan, scratch, f);
        deinterleave(&scratch.buf, re, im);
    }
}

/// Row pass, then the column pass as contiguous rows of the transposed
/// scratch buffer (cache-friendlier than per-column gather/scatter).
/// Operates in place on `scratch.buf`.
fn apply_interleaved(plan: &Fft2, scratch: &mut ScalarScratch, f: impl Fn(&Fft, &mut [Complex64])) {
    let (rows, cols) = (plan.rows, plan.cols);
    debug_assert_eq!(scratch.buf.len(), rows * cols);
    for row in scratch.buf.chunks_mut(cols) {
        f(&plan.row_plan, row);
    }
    transpose_into(&scratch.buf, rows, cols, &mut scratch.t);
    for col in scratch.t.chunks_mut(rows) {
        f(&plan.col_plan, col);
    }
    transpose_into(&scratch.t, cols, rows, &mut scratch.buf);
}

/// Transposes a row-major `rows × cols` buffer into a `cols × rows` one.
fn transpose_into(src: &[Complex64], rows: usize, cols: usize, dst: &mut [Complex64]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// Convenience one-shot forward 2-D FFT (plans internally).
pub fn fft2(grid: &CGrid) -> CGrid {
    let mut out = grid.clone();
    Fft2::new(grid.rows(), grid.cols()).forward(&mut out);
    out
}

/// Convenience one-shot normalized inverse 2-D FFT (plans internally).
pub fn ifft2(grid: &CGrid) -> CGrid {
    let mut out = grid.clone();
    Fft2::new(grid.rows(), grid.cols()).inverse(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use photonn_math::Grid;

    fn naive_dft2(g: &CGrid) -> CGrid {
        let (rows, cols) = g.shape();
        CGrid::from_fn(rows, cols, |kr, kc| {
            let mut acc = Complex64::ZERO;
            for r in 0..rows {
                for c in 0..cols {
                    let angle = -2.0
                        * std::f64::consts::PI
                        * (kr as f64 * r as f64 / rows as f64 + kc as f64 * c as f64 / cols as f64);
                    acc += g[(r, c)] * Complex64::cis(angle);
                }
            }
            acc
        })
    }

    #[test]
    fn matches_naive_2d_dft() {
        for (rows, cols) in [(4usize, 4usize), (8, 6), (5, 7), (10, 16)] {
            let g = CGrid::from_fn(rows, cols, |r, c| {
                Complex64::new((r as f64 * 0.8).sin(), (c as f64 * 1.7).cos())
            });
            let expected = naive_dft2(&g);
            let got = fft2(&g);
            assert!(
                got.max_abs_diff(&expected) < 1e-9,
                "({rows},{cols}): {}",
                got.max_abs_diff(&expected)
            );
        }
    }

    #[test]
    fn roundtrip() {
        let g = CGrid::from_fn(16, 12, |r, c| Complex64::new(r as f64, -(c as f64)));
        let back = ifft2(&fft2(&g));
        assert!(back.max_abs_diff(&g) < 1e-9);
    }

    #[test]
    fn parseval_2d() {
        // With unnormalized forward: Σ|X|² = N·Σ|x|².
        let g = CGrid::from_fn(8, 8, |r, c| Complex64::new((r + c) as f64, 1.0));
        let spec = fft2(&g);
        let n = 64.0;
        assert!((spec.total_power() - n * g.total_power()).abs() / (n * g.total_power()) < 1e-12);
    }

    #[test]
    fn adjoint_property_2d() {
        let x = CGrid::from_fn(6, 10, |r, c| Complex64::new(r as f64, c as f64));
        let y = CGrid::from_fn(6, 10, |r, c| Complex64::new(c as f64 - 1.0, r as f64 * 0.5));
        let plan = Fft2::new(6, 10);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fhy = y.clone();
        plan.inverse_unnormalized(&mut fhy);
        let inner = |a: &CGrid, b: &CGrid| -> Complex64 {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(p, q)| *p * q.conj())
                .sum()
        };
        let lhs = inner(&fx, &y);
        let rhs = inner(&x, &fhy);
        assert!((lhs - rhs).norm() < 1e-8);
    }

    #[test]
    fn separable_input_has_separable_spectrum() {
        // x[r,c] = f[r]·g[c] ⇒ X = F ⊗ G; check against 1-D transforms.
        let rows = 8;
        let cols = 5;
        let f: Vec<Complex64> = (0..rows).map(|r| Complex64::new(r as f64, 0.3)).collect();
        let gv: Vec<Complex64> = (0..cols).map(|c| Complex64::new(1.0, c as f64)).collect();
        let grid = CGrid::from_fn(rows, cols, |r, c| f[r] * gv[c]);
        let spec = fft2(&grid);
        let mut ff = f.clone();
        Fft::new(rows).forward(&mut ff);
        let mut fg = gv.clone();
        Fft::new(cols).forward(&mut fg);
        for r in 0..rows {
            for c in 0..cols {
                assert!((spec[(r, c)] - ff[r] * fg[c]).norm() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "grid shape")]
    fn shape_mismatch_panics() {
        let plan = Fft2::new(4, 4);
        let mut g = CGrid::zeros(4, 5);
        plan.forward(&mut g);
    }

    fn random_batch(batch: usize, n: usize) -> BatchCGrid {
        BatchCGrid::from_fn(batch, n, n, |b, r, c| {
            Complex64::new(
                ((b * 31 + r * 7 + c) as f64 * 0.37).sin(),
                ((b * 17 + r + c * 5) as f64 * 0.71).cos(),
            )
        })
    }

    #[test]
    fn forward_batch_matches_per_sample_forward() {
        for n in [8usize, 6, 5] {
            let plan = Fft2::new(n, n);
            let mut batch = random_batch(5, n);
            let expected: Vec<CGrid> = (0..5)
                .map(|b| {
                    let mut g = batch.to_cgrid(b);
                    plan.forward(&mut g);
                    g
                })
                .collect();
            plan.forward_batch(&mut batch, 1);
            for (b, e) in expected.iter().enumerate() {
                assert!(
                    batch.to_cgrid(b).max_abs_diff(e) < 1e-12,
                    "n {n} sample {b}: {}",
                    batch.to_cgrid(b).max_abs_diff(e)
                );
                // Shapes the vectorized engine does not cover run the same
                // 1-D engines as the unbatched path, bit for bit.
                if !VecMixed2d::supports(n) {
                    assert_eq!(batch.to_cgrid(b), *e, "n {n} sample {b}");
                }
            }
        }
    }

    #[test]
    fn batch_threading_is_deterministic() {
        let plan = Fft2::new(8, 8);
        let mut serial = random_batch(7, 8);
        let mut threaded = serial.clone();
        plan.forward_batch(&mut serial, 1);
        plan.forward_batch(&mut threaded, 4);
        assert_eq!(serial, threaded);
        plan.inverse_batch(&mut serial, 1);
        plan.inverse_batch(&mut threaded, 3);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn batch_roundtrip() {
        let plan = Fft2::new(10, 10);
        let original = random_batch(4, 10);
        let mut batch = original.clone();
        plan.forward_batch(&mut batch, 2);
        plan.inverse_batch(&mut batch, 2);
        assert!(batch.max_abs_diff(&original) < 1e-9);
    }

    #[test]
    fn inverse_unnormalized_batch_is_adjoint_scale() {
        let plan = Fft2::new(6, 6);
        let original = random_batch(3, 6);
        let mut batch = original.clone();
        plan.forward_batch(&mut batch, 2);
        plan.inverse_unnormalized_batch(&mut batch, 2);
        batch.scale_inplace(1.0 / 36.0);
        assert!(batch.max_abs_diff(&original) < 1e-9);
    }

    #[test]
    fn apply_transfer_batch_matches_manual_pipeline() {
        for (n, padded) in [(8usize, 8usize), (8, 16), (6, 6), (6, 12), (12, 12)] {
            let plan = Fft2::new(padded, padded);
            let kernel = CGrid::from_fn(padded, padded, |r, c| {
                Complex64::cis((r as f64 * 0.3 - c as f64 * 0.5).sin())
            });
            let batch = random_batch(4, n);
            let out = plan.apply_transfer_batch(&batch, &kernel, n, 2);
            for b in 0..4 {
                let mut manual = if padded == n {
                    batch.to_cgrid(b)
                } else {
                    batch.to_cgrid(b).pad_centered(padded, padded)
                };
                plan.forward(&mut manual);
                manual.hadamard_inplace(&kernel);
                plan.inverse(&mut manual);
                if padded != n {
                    manual = manual.crop_centered(n, n);
                }
                assert!(
                    out.to_cgrid(b).max_abs_diff(&manual) < 1e-12,
                    "padded {padded} sample {b}"
                );
            }
        }
    }

    #[test]
    fn vectorized_cross_engine_parity_at_paper_sizes() {
        // The planar mixed-radix engine (batched path) against the scalar
        // 1-D engines (unbatched path) at the paper-relevant non-power-of-
        // two sizes, forward and round-trip. Spectral magnitudes grow like
        // n², so the absolute tolerance scales with the grid.
        for n in [20usize, 40, 100, 200] {
            let plan = Fft2::new(n, n);
            let original = random_batch(2, n);
            let mut batch = original.clone();
            let expected: Vec<CGrid> = (0..2)
                .map(|b| {
                    let mut g = batch.to_cgrid(b);
                    plan.forward(&mut g); // scalar mixed-radix engine
                    g
                })
                .collect();
            plan.forward_batch(&mut batch, 1); // vectorized engine
            let tol = 1e-11 * (n * n) as f64;
            for (b, e) in expected.iter().enumerate() {
                let diff = batch.to_cgrid(b).max_abs_diff(e);
                assert!(diff < tol, "n {n} sample {b}: {diff} > {tol}");
            }
            plan.inverse_batch(&mut batch, 1);
            let diff = batch.max_abs_diff(&original);
            assert!(diff < 1e-9, "n {n} roundtrip: {diff}");
        }
    }

    #[test]
    fn apply_transfer_batch_matches_manual_pipeline_on_mixed_radix_grids() {
        // The fused planar hop at the paper's native (unpadded) and
        // double-padded non-power-of-two shapes, against the scalar
        // pad → fft2 → ⊙K → ifft2 → crop pipeline.
        for (n, padded) in [(20usize, 20usize), (20, 40), (25, 50), (50, 50)] {
            let plan = Fft2::new(padded, padded);
            let kernel = CGrid::from_fn(padded, padded, |r, c| {
                Complex64::cis((r as f64 * 0.3 - c as f64 * 0.5).sin())
            });
            let batch = random_batch(3, n);
            let out = plan.apply_transfer_batch(&batch, &kernel, n, 2);
            for b in 0..3 {
                let mut manual = if padded == n {
                    batch.to_cgrid(b)
                } else {
                    batch.to_cgrid(b).pad_centered(padded, padded)
                };
                plan.forward(&mut manual);
                manual.hadamard_inplace(&kernel);
                plan.inverse(&mut manual);
                if padded != n {
                    manual = manual.crop_centered(n, n);
                }
                let diff = out.to_cgrid(b).max_abs_diff(&manual);
                assert!(diff < 1e-12, "inner {n} padded {padded} sample {b}: {diff}");
            }
        }
    }

    /// PR-3-style transfer hop on one interleaved sample: deinterleave,
    /// the identical column-pass/transpose/kernel pipeline with Vec-swap
    /// ping-pong, reinterleave. The planar-native path must reproduce this
    /// **bit-for-bit** — same arithmetic in the same order, only the
    /// storage layout changed.
    fn interleaved_reference_hop(
        n: usize,
        sample: &[Complex64],
        kr: &[f64],
        ki: &[f64],
        scale: f64,
    ) -> Vec<Complex64> {
        let v = VecMixed2d::new(n);
        let cp = |re: &mut Vec<f64>,
                  im: &mut Vec<f64>,
                  sre: &mut Vec<f64>,
                  sim: &mut Vec<f64>,
                  inverse: bool| {
            v.column_pass(re, im, sre, sim, inverse);
            if v.odd_stages() {
                std::mem::swap(re, sre);
                std::mem::swap(im, sim);
            }
        };
        let mut re = vec![0.0; n * n];
        let mut im = vec![0.0; n * n];
        deinterleave(sample, &mut re, &mut im);
        let mut sre = vec![0.0; n * n];
        let mut sim = vec![0.0; n * n];
        cp(&mut re, &mut im, &mut sre, &mut sim, false);
        transpose_plane(&re, n, &mut sre);
        transpose_plane(&im, n, &mut sim);
        std::mem::swap(&mut re, &mut sre);
        std::mem::swap(&mut im, &mut sim);
        cp(&mut re, &mut im, &mut sre, &mut sim, false);
        hadamard_scale(&mut re, &mut im, kr, ki, scale);
        cp(&mut re, &mut im, &mut sre, &mut sim, true);
        transpose_plane(&re, n, &mut sre);
        transpose_plane(&im, n, &mut sim);
        std::mem::swap(&mut re, &mut sre);
        std::mem::swap(&mut im, &mut sim);
        cp(&mut re, &mut im, &mut sre, &mut sim, true);
        let mut out = vec![Complex64::ZERO; n * n];
        interleave(&re, &im, &mut out);
        out
    }

    #[test]
    fn planar_hop_is_bit_identical_to_interleaved_reference() {
        // The planar-native storage refactor must not change a single bit
        // of the hop's output versus the PR-3 interleaved pipeline, at the
        // paper-relevant grids (20 mixed-radix miniature, 32 power of two,
        // 200 paper-native).
        for n in [20usize, 32, 200] {
            let plan = Fft2::new(n, n);
            let kernel = CGrid::from_fn(n, n, |r, c| {
                Complex64::cis((r as f64 * 0.23 - c as f64 * 0.41).sin())
            });
            let batch = random_batch(3, n);
            let out = plan.apply_transfer_batch(&batch, &kernel, n, 2);

            let kt = kernel.transpose();
            let (kr, ki): (Vec<f64>, Vec<f64>) = kt.as_slice().iter().map(|z| (z.re, z.im)).unzip();
            let scale = 1.0 / (n * n) as f64;
            for b in 0..3 {
                let reference =
                    interleaved_reference_hop(n, batch.to_cgrid(b).as_slice(), &kr, &ki, scale);
                let got = out.to_cgrid(b);
                assert_eq!(
                    got.as_slice(),
                    &reference[..],
                    "grid {n} sample {b}: planar hop diverged from the interleaved reference"
                );
            }
        }
    }

    #[test]
    fn fused_modulate_hop_is_bit_identical_to_unfused() {
        // modulate_transfer_batch_owned must equal hadamard_bcast followed
        // by the plain hop bit-for-bit — the modulation is the identical
        // elementwise product, just moved inside the worker sweep.
        for (n, padded) in [(20usize, 20usize), (32, 32), (8, 16), (6, 6), (12, 12)] {
            let plan = Fft2::new(padded, padded);
            let kernel = CGrid::from_fn(padded, padded, |r, c| {
                Complex64::cis((r as f64 * 0.31 - c as f64 * 0.17).sin())
            });
            let mask = CGrid::from_fn(n, n, |r, c| Complex64::cis((r * 3 + c) as f64 * 0.9));
            let batch = random_batch(3, n);

            let mut unfused = batch.clone();
            unfused.hadamard_bcast_inplace(&mask);
            let unfused = plan.apply_transfer_batch_owned(unfused, &kernel, n, 2);
            let fused = plan.modulate_transfer_batch_owned(batch.clone(), &mask, &kernel, n, 2);
            assert_eq!(fused, unfused, "inner {n} padded {padded}");
        }
    }

    #[test]
    fn batched_hop_is_bit_identical_to_single_sample_hops() {
        // Batching must be a pure layout concern: the N-sample planar hop
        // and N single-sample hops produce bit-identical fields.
        for n in [20usize, 32, 6, 12] {
            let plan = Fft2::new(n, n);
            let kernel = CGrid::from_fn(n, n, |r, c| {
                Complex64::cis((r as f64 * 0.37 + c as f64 * 0.19).cos())
            });
            let batch = random_batch(4, n);
            let together = plan.apply_transfer_batch(&batch, &kernel, n, 2);
            for b in 0..4 {
                let single = BatchCGrid::from_samples(&[batch.to_cgrid(b)]);
                let alone = plan.apply_transfer_batch(&single, &kernel, n, 1);
                assert_eq!(
                    together.to_cgrid(b),
                    alone.to_cgrid(0),
                    "grid {n} sample {b}: batched hop != single-sample hop"
                );
            }
        }
    }

    #[test]
    fn batch_threading_is_deterministic_on_mixed_radix_grid() {
        for n in [20usize, 6, 12] {
            let plan = Fft2::new(n, n);
            let mut serial = random_batch(7, n);
            let mut threaded = serial.clone();
            plan.forward_batch(&mut serial, 1);
            plan.forward_batch(&mut threaded, 4);
            assert_eq!(serial, threaded, "grid {n}");
        }
    }

    #[test]
    #[should_panic(expected = "batch sample shape")]
    fn batch_shape_mismatch_panics() {
        let plan = Fft2::new(4, 4);
        let mut batch = BatchCGrid::zeros(2, 4, 5);
        plan.forward_batch(&mut batch, 1);
    }

    #[test]
    fn real_even_input_gives_real_spectrum_dc() {
        let img = Grid::from_fn(8, 8, |r, c| ((r * 8 + c) % 5) as f64);
        let spec = fft2(&CGrid::from_amplitude(&img));
        assert!((spec[(0, 0)].re - img.sum()).abs() < 1e-9);
        assert!(spec[(0, 0)].im.abs() < 1e-9);
    }
}
