//! Planar vectorized mixed-radix column-transform engine (radix-8/4/2/5).
//!
//! This is the batched hot-loop engine behind [`crate::Fft2`]'s planar
//! execute paths. It computes `n` simultaneous length-`n` DFTs along the
//! *column axis* of a square `n × n` plane pair (split re/im `f64`
//! planes): a butterfly combines whole rows elementwise, so every complex
//! operation is shuffle-free `f64` arithmetic over contiguous lanes. The
//! inner loops are the radix kernels of the process-wide
//! [`photonn_math::simd`] kernel table — explicit AVX2+FMA or NEON where
//! the CPU has them, the scalar expression trees otherwise — bound once at
//! plan time. The row pass of a 2-D transform runs as a column pass over
//! transposed planes (see `Fft2`).
//!
//! Where the old power-of-two-only engine used bit-reversal plus iterative
//! radix-2 stages, this one is a **self-sorting Stockham** pipeline:
//! every stage reads one plane pair and writes a second (ping-pong), and
//! the inter-stage permutation is folded into the write pattern, so no
//! digit-reversal pass exists and non-power-of-two lengths need no extra
//! machinery. A length decomposes greedily into radix-8 stages (triples
//! of twos — every stage is one full memory pass over the planes, so
//! fewer, fatter stages win on bandwidth-bound grids), one radix-4 or
//! radix-2 stage for the leftover twos, and radix-5 stages — covering
//! every `n = 2^a·5^b`, in particular the paper's native mask size
//! `200 = 2³·5²` (one radix-8 + two radix-5 passes) and its double-padded
//! companion `400`, which previously fell back to the scalar recursive
//! mixed-radix engine per sample.
//!
//! One Stockham stage with radix `p`, `l` remaining groups and `m`
//! already-combined transforms (invariant `p·l·m = n`) maps, for
//! `j ∈ [0,l)`, `s ∈ [0,p)`:
//!
//! ```text
//! dst[(p·j + s)·m .. +m] = ω_{p·l}^{j·s} · Σ_q ω_p^{q·s} · src[(j + q·l)·m .. +m]
//! ```
//!
//! where the `m`-row blocks are contiguous `m·n`-lane ranges of the plane
//! — the butterfly is a handful of elementwise passes over whole blocks,
//! and the per-(j,s) twiddle is a scalar held in registers across the
//! sweep. The inverse transform uses conjugated twiddles and butterfly
//! constants directly (via the kernel `sgn` argument) instead of the
//! scalar engines' conjugate–forward–conjugate detour.
//!
//! # Cache-blocked stage fusion
//!
//! A butterfly permutes *row* indices only: column `c` of the output
//! depends exclusively on column `c` of the input, at every stage. The
//! column pass can therefore be strip-mined — split the planes into
//! column strips of width `W` and run **all** stages on one strip while
//! it is cache-resident, instead of round-tripping each full plane pair
//! through DRAM once per stage. At the training grid's padded side
//! `n = 400`, the four ping-pong planes total 5 MB (far beyond a 1–2 MB
//! L2) while one 80-column strip's working set is 1 MB, cutting DRAM
//! traffic roughly 4× across the 4-stage pipeline. Because no lane ever
//! crosses a column and strip widths stay multiples of the SIMD width,
//! the result is **bit-identical** to the unfused pass (covered by a
//! test). Strips are only used when `n` is a multiple of 4 so SIMD
//! remainder tails cannot differ between fused and unfused sweeps.

use photonn_math::simd::{self, KernelTable};
use photonn_math::Complex64;

/// One self-sorting Stockham stage: radix plus its twiddle table.
#[derive(Debug)]
struct Stage {
    /// Butterfly radix (2, 4, 5 or 8).
    p: usize,
    /// Number of butterfly groups at this stage.
    l: usize,
    /// Transform length already combined before this stage.
    m: usize,
    /// Forward twiddles `ω_{p·l}^{j·s}` for `j ∈ [0,l)`, `s ∈ [1,p)`,
    /// flattened as `[j·(p-1) + (s-1)]`. Inverse negates the imaginary
    /// part at use.
    twr: Vec<f64>,
    twi: Vec<f64>,
}

/// Planar vectorized mixed-radix engine for square 2-D transforms of side
/// `n = 2^a·5^b` (see the module docs).
#[derive(Debug)]
pub(crate) struct VecMixed2d {
    n: usize,
    stages: Vec<Stage>,
    /// Column-strip width for cache-blocked stage fusion; `0` = run each
    /// stage over the full plane (small grids, or fusion disabled).
    strip: usize,
    /// The kernel table every butterfly dispatches through, bound at plan
    /// time (one table per process — see [`photonn_math::simd::active`]).
    kernels: &'static KernelTable,
}

impl VecMixed2d {
    /// `true` if this engine can transform side length `n`: at least 2,
    /// with no prime factor other than 2 and 5 (the radices it emits).
    pub(crate) fn supports(n: usize) -> bool {
        if n < 2 {
            return false;
        }
        let mut n = n;
        for p in [2usize, 5] {
            while n.is_multiple_of(p) {
                n /= p;
            }
        }
        n == 1
    }

    /// The radix schedule for length `n`: greedy radix-8 stages (every
    /// stage is one full memory pass over the planes, so fewer, fatter
    /// stages win on the bandwidth-bound grids), a radix-4 or radix-2 for
    /// the remaining twos, then the radix-5 stages.
    /// `schedule(200) == [8, 5, 5]`, `schedule(32) == [8, 4]`.
    ///
    /// # Panics
    ///
    /// Panics if [`VecMixed2d::supports`] is false for `n`.
    pub(crate) fn schedule(n: usize) -> Vec<usize> {
        assert!(Self::supports(n), "unsupported vectorized length {n}");
        let (mut twos, mut fives, mut rest) = (0usize, 0usize, n);
        while rest.is_multiple_of(2) {
            twos += 1;
            rest /= 2;
        }
        while rest.is_multiple_of(5) {
            fives += 1;
            rest /= 5;
        }
        let mut radices = vec![8; twos / 3];
        match twos % 3 {
            1 => radices.push(2),
            2 => radices.push(4),
            _ => {}
        }
        radices.extend(std::iter::repeat_n(5, fives));
        radices
    }

    /// The column-strip width used for stage fusion at side `n`: `0`
    /// (fusion off) unless the four ping-pong planes overflow L2 and `n`
    /// is a multiple of 4, in which case a width that keeps one strip's
    /// working set near 1 MB, rounded to a multiple of 8 lanes.
    fn default_strip(n: usize) -> usize {
        // 4 planes × n² lanes × 8 bytes per full ping-pong pass.
        if !n.is_multiple_of(4) || 32 * n * n <= 1_500_000 {
            0
        } else {
            // ~1 MB strip working set: 4 planes × n rows × W × 8 B.
            ((32768 / n) & !7).max(16)
        }
    }

    /// Plans the stage pipeline for side length `n`.
    ///
    /// # Panics
    ///
    /// Panics if [`VecMixed2d::supports`] is false for `n`.
    pub(crate) fn new(n: usize) -> Self {
        Self::with_config(n, Self::default_strip(n), simd::active())
    }

    /// Plans with an explicit strip width and kernel table (the
    /// building block behind [`VecMixed2d::new`]; tests use it to pin
    /// configurations).
    fn with_config(n: usize, strip: usize, kernels: &'static KernelTable) -> Self {
        let radices = Self::schedule(n);
        let mut stages = Vec::with_capacity(radices.len());
        let mut m = 1;
        for p in radices {
            let l = n / (m * p);
            let mut twr = Vec::with_capacity(l * (p - 1));
            let mut twi = Vec::with_capacity(l * (p - 1));
            for j in 0..l {
                for s in 1..p {
                    let w = Complex64::cis(
                        -2.0 * std::f64::consts::PI * (j * s) as f64 / (p * l) as f64,
                    );
                    twr.push(w.re);
                    twi.push(w.im);
                }
            }
            stages.push(Stage { p, l, m, twr, twi });
            m *= p;
        }
        debug_assert_eq!(m, n);
        VecMixed2d {
            n,
            stages,
            strip,
            kernels,
        }
    }

    /// Side length this engine was planned for.
    #[inline]
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// `true` if the stage pipeline has an odd number of stages — i.e.
    /// [`VecMixed2d::column_pass`] leaves its result in the scratch pair
    /// instead of the primary pair. Callers juggle which buffer is "live"
    /// by swapping their own `&mut` bindings (an O(1) pointer move), so no
    /// plane is ever copied to compensate for parity.
    #[inline]
    pub(crate) fn odd_stages(&self) -> bool {
        self.stages.len() % 2 == 1
    }

    /// Unnormalized DFT along the column axis of the `n × n` plane pair
    /// `(re, im)`, vectorized across each row. `(sre, sim)` is same-sized
    /// ping-pong scratch. Stages alternate between the two pairs, so the
    /// result lands in `(re, im)` for an even stage count and in
    /// `(sre, sim)` for an odd one (see [`VecMixed2d::odd_stages`]);
    /// operating on plain slices keeps the pass usable directly on plane
    /// views into a planar `BatchCGrid`, where a buffer swap is
    /// impossible. `inverse` computes the unnormalized adjoint.
    ///
    /// When stage fusion is active the plane is walked in column strips,
    /// each strip running the whole stage pipeline while cache-resident —
    /// bit-identical to the unfused sweep (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any plane is not `n²` long.
    pub(crate) fn column_pass(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        sre: &mut [f64],
        sim: &mut [f64],
        inverse: bool,
    ) {
        let _span = photonn_trace::span("fft.column_pass");
        let n = self.n;
        debug_assert_eq!(re.len(), n * n);
        debug_assert_eq!(im.len(), n * n);
        debug_assert_eq!(sre.len(), n * n);
        debug_assert_eq!(sim.len(), n * n);
        if self.strip == 0 || self.strip >= n {
            self.strip_pass(re, im, sre, sim, inverse, 0, n);
        } else {
            let mut c0 = 0;
            while c0 < n {
                let w = self.strip.min(n - c0);
                self.strip_pass(re, im, sre, sim, inverse, c0, w);
                c0 += w;
            }
        }
    }

    /// Runs every stage over columns `c0 .. c0 + w` of the plane pair.
    #[allow(clippy::too_many_arguments)]
    fn strip_pass(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        sre: &mut [f64],
        sim: &mut [f64],
        inverse: bool,
        c0: usize,
        w: usize,
    ) {
        let ctx = StripCtx {
            n: self.n,
            c0,
            w,
            kt: self.kernels,
        };
        let mut in_primary = true;
        for stage in &self.stages {
            if in_primary {
                run_stage(stage, re, im, sre, sim, ctx, inverse);
            } else {
                run_stage(stage, sre, sim, re, im, ctx, inverse);
            }
            in_primary = !in_primary;
        }
    }
}

/// Per-call context of one stage sweep: plane side, the column strip to
/// process, and the kernel table the butterflies dispatch through.
#[derive(Clone, Copy)]
struct StripCtx<'a> {
    n: usize,
    c0: usize,
    w: usize,
    kt: &'a KernelTable,
}

impl StripCtx<'_> {
    /// The `(offset, len)` row-runs a butterfly visits inside one
    /// contiguous `m`-row block: the whole block when the strip spans
    /// every column, else `m` runs of `w` lanes at stride `n`.
    #[inline]
    fn runs(&self, m: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let full = self.w == self.n;
        let count = if full { 1 } else { m };
        let mn = m * self.n;
        (0..count).map(move |r| {
            if full {
                (0, mn)
            } else {
                (r * self.n + self.c0, self.w)
            }
        })
    }
}

// Stage-sweep dispatch counters (`fft.radixN_stage` in the trace
// inventory): one increment per stage sweep over a strip, showing which
// butterfly radices a workload's schedule actually exercises.
static CTR_RADIX2: photonn_trace::Counter = photonn_trace::Counter::new("fft.radix2_stage");
static CTR_RADIX4: photonn_trace::Counter = photonn_trace::Counter::new("fft.radix4_stage");
static CTR_RADIX5: photonn_trace::Counter = photonn_trace::Counter::new("fft.radix5_stage");
static CTR_RADIX8: photonn_trace::Counter = photonn_trace::Counter::new("fft.radix8_stage");

/// Dispatches one stage from `(sr, si)` into `(dr, di)`.
fn run_stage(
    stage: &Stage,
    sr: &[f64],
    si: &[f64],
    dr: &mut [f64],
    di: &mut [f64],
    ctx: StripCtx<'_>,
    inverse: bool,
) {
    match stage.p {
        2 => CTR_RADIX2.add(1),
        4 => CTR_RADIX4.add(1),
        5 => CTR_RADIX5.add(1),
        _ => CTR_RADIX8.add(1),
    }
    match (stage.p, inverse) {
        (2, false) => stage_radix2::<false>(stage, sr, si, dr, di, ctx),
        (2, true) => stage_radix2::<true>(stage, sr, si, dr, di, ctx),
        (4, false) => stage_radix4::<false>(stage, sr, si, dr, di, ctx),
        (4, true) => stage_radix4::<true>(stage, sr, si, dr, di, ctx),
        (5, false) => stage_radix5::<false>(stage, sr, si, dr, di, ctx),
        (5, true) => stage_radix5::<true>(stage, sr, si, dr, di, ctx),
        (8, false) => stage_radix8::<false>(stage, sr, si, dr, di, ctx),
        (8, true) => stage_radix8::<true>(stage, sr, si, dr, di, ctx),
        (p, _) => unreachable!("unsupported radix {p}"),
    }
}

impl Stage {
    /// Twiddle `ω_{p·l}^{j·s}` (conjugated when `INV`), `s ≥ 1`.
    #[inline]
    fn tw<const INV: bool>(&self, j: usize, s: usize) -> (f64, f64) {
        let idx = j * (self.p - 1) + (s - 1);
        let wi = self.twi[idx];
        (self.twr[idx], if INV { -wi } else { wi })
    }
}

/// The forward/inverse `±i` recombination sign the radix kernels take.
#[inline]
fn sgn<const INV: bool>() -> f64 {
    if INV {
        -1.0
    } else {
        1.0
    }
}

/// Splits one contiguous `P·mn` group into its `P` `mn`-row blocks.
fn split_rows<const P: usize>(buf: &mut [f64], mn: usize) -> [&mut [f64]; P] {
    debug_assert_eq!(buf.len(), P * mn);
    let mut rest = buf;
    std::array::from_fn(|_| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(mn);
        rest = tail;
        head
    })
}

fn stage_radix2<const INV: bool>(
    st: &Stage,
    sr: &[f64],
    si: &[f64],
    dr: &mut [f64],
    di: &mut [f64],
    ctx: StripCtx<'_>,
) {
    let (l, m) = (st.l, st.m);
    let mn = m * ctx.n;
    for j in 0..l {
        let x0r = &sr[j * mn..][..mn];
        let x0i = &si[j * mn..][..mn];
        let x1r = &sr[(j + l) * mn..][..mn];
        let x1i = &si[(j + l) * mn..][..mn];
        let w = [st.tw::<INV>(j, 1)];
        let [y0r, y1r] = split_rows::<2>(&mut dr[2 * j * mn..][..2 * mn], mn);
        let [y0i, y1i] = split_rows::<2>(&mut di[2 * j * mn..][..2 * mn], mn);
        for (o, len) in ctx.runs(m) {
            (ctx.kt.radix2)(
                [
                    &x0r[o..o + len],
                    &x0i[o..o + len],
                    &x1r[o..o + len],
                    &x1i[o..o + len],
                ],
                [
                    &mut y0r[o..o + len],
                    &mut y0i[o..o + len],
                    &mut y1r[o..o + len],
                    &mut y1i[o..o + len],
                ],
                &w,
            );
        }
    }
}

fn stage_radix4<const INV: bool>(
    st: &Stage,
    sr: &[f64],
    si: &[f64],
    dr: &mut [f64],
    di: &mut [f64],
    ctx: StripCtx<'_>,
) {
    let (l, m) = (st.l, st.m);
    let mn = m * ctx.n;
    for j in 0..l {
        let x0r = &sr[j * mn..][..mn];
        let x0i = &si[j * mn..][..mn];
        let x1r = &sr[(j + l) * mn..][..mn];
        let x1i = &si[(j + l) * mn..][..mn];
        let x2r = &sr[(j + 2 * l) * mn..][..mn];
        let x2i = &si[(j + 2 * l) * mn..][..mn];
        let x3r = &sr[(j + 3 * l) * mn..][..mn];
        let x3i = &si[(j + 3 * l) * mn..][..mn];
        let w = [st.tw::<INV>(j, 1), st.tw::<INV>(j, 2), st.tw::<INV>(j, 3)];
        let [y0r, y1r, y2r, y3r] = split_rows::<4>(&mut dr[4 * j * mn..][..4 * mn], mn);
        let [y0i, y1i, y2i, y3i] = split_rows::<4>(&mut di[4 * j * mn..][..4 * mn], mn);
        for (o, len) in ctx.runs(m) {
            (ctx.kt.radix4)(
                [
                    &x0r[o..o + len],
                    &x0i[o..o + len],
                    &x1r[o..o + len],
                    &x1i[o..o + len],
                    &x2r[o..o + len],
                    &x2i[o..o + len],
                    &x3r[o..o + len],
                    &x3i[o..o + len],
                ],
                [
                    &mut y0r[o..o + len],
                    &mut y0i[o..o + len],
                    &mut y1r[o..o + len],
                    &mut y1i[o..o + len],
                    &mut y2r[o..o + len],
                    &mut y2i[o..o + len],
                    &mut y3r[o..o + len],
                    &mut y3i[o..o + len],
                ],
                &w,
                sgn::<INV>(),
            );
        }
    }
}

fn stage_radix5<const INV: bool>(
    st: &Stage,
    sr: &[f64],
    si: &[f64],
    dr: &mut [f64],
    di: &mut [f64],
    ctx: StripCtx<'_>,
) {
    let (l, m) = (st.l, st.m);
    let mn = m * ctx.n;
    for j in 0..l {
        let x0r = &sr[j * mn..][..mn];
        let x0i = &si[j * mn..][..mn];
        let x1r = &sr[(j + l) * mn..][..mn];
        let x1i = &si[(j + l) * mn..][..mn];
        let x2r = &sr[(j + 2 * l) * mn..][..mn];
        let x2i = &si[(j + 2 * l) * mn..][..mn];
        let x3r = &sr[(j + 3 * l) * mn..][..mn];
        let x3i = &si[(j + 3 * l) * mn..][..mn];
        let x4r = &sr[(j + 4 * l) * mn..][..mn];
        let x4i = &si[(j + 4 * l) * mn..][..mn];
        let w = [
            st.tw::<INV>(j, 1),
            st.tw::<INV>(j, 2),
            st.tw::<INV>(j, 3),
            st.tw::<INV>(j, 4),
        ];
        let [y0r, y1r, y2r, y3r, y4r] = split_rows::<5>(&mut dr[5 * j * mn..][..5 * mn], mn);
        let [y0i, y1i, y2i, y3i, y4i] = split_rows::<5>(&mut di[5 * j * mn..][..5 * mn], mn);
        for (o, len) in ctx.runs(m) {
            (ctx.kt.radix5)(
                [
                    &x0r[o..o + len],
                    &x0i[o..o + len],
                    &x1r[o..o + len],
                    &x1i[o..o + len],
                    &x2r[o..o + len],
                    &x2i[o..o + len],
                    &x3r[o..o + len],
                    &x3i[o..o + len],
                    &x4r[o..o + len],
                    &x4i[o..o + len],
                ],
                [
                    &mut y0r[o..o + len],
                    &mut y0i[o..o + len],
                    &mut y1r[o..o + len],
                    &mut y1i[o..o + len],
                    &mut y2r[o..o + len],
                    &mut y2i[o..o + len],
                    &mut y3r[o..o + len],
                    &mut y3i[o..o + len],
                    &mut y4r[o..o + len],
                    &mut y4i[o..o + len],
                ],
                &w,
                sgn::<INV>(),
            );
        }
    }
}

fn stage_radix8<const INV: bool>(
    st: &Stage,
    sr: &[f64],
    si: &[f64],
    dr: &mut [f64],
    di: &mut [f64],
    ctx: StripCtx<'_>,
) {
    let (l, m) = (st.l, st.m);
    let mn = m * ctx.n;
    for j in 0..l {
        let x0r = &sr[j * mn..][..mn];
        let x0i = &si[j * mn..][..mn];
        let x1r = &sr[(j + l) * mn..][..mn];
        let x1i = &si[(j + l) * mn..][..mn];
        let x2r = &sr[(j + 2 * l) * mn..][..mn];
        let x2i = &si[(j + 2 * l) * mn..][..mn];
        let x3r = &sr[(j + 3 * l) * mn..][..mn];
        let x3i = &si[(j + 3 * l) * mn..][..mn];
        let x4r = &sr[(j + 4 * l) * mn..][..mn];
        let x4i = &si[(j + 4 * l) * mn..][..mn];
        let x5r = &sr[(j + 5 * l) * mn..][..mn];
        let x5i = &si[(j + 5 * l) * mn..][..mn];
        let x6r = &sr[(j + 6 * l) * mn..][..mn];
        let x6i = &si[(j + 6 * l) * mn..][..mn];
        let x7r = &sr[(j + 7 * l) * mn..][..mn];
        let x7i = &si[(j + 7 * l) * mn..][..mn];
        let w = [
            st.tw::<INV>(j, 1),
            st.tw::<INV>(j, 2),
            st.tw::<INV>(j, 3),
            st.tw::<INV>(j, 4),
            st.tw::<INV>(j, 5),
            st.tw::<INV>(j, 6),
            st.tw::<INV>(j, 7),
        ];
        let [y0r, y1r, y2r, y3r, y4r, y5r, y6r, y7r] =
            split_rows::<8>(&mut dr[8 * j * mn..][..8 * mn], mn);
        let [y0i, y1i, y2i, y3i, y4i, y5i, y6i, y7i] =
            split_rows::<8>(&mut di[8 * j * mn..][..8 * mn], mn);
        for (o, len) in ctx.runs(m) {
            (ctx.kt.radix8)(
                [
                    &x0r[o..o + len],
                    &x0i[o..o + len],
                    &x1r[o..o + len],
                    &x1i[o..o + len],
                    &x2r[o..o + len],
                    &x2i[o..o + len],
                    &x3r[o..o + len],
                    &x3i[o..o + len],
                    &x4r[o..o + len],
                    &x4i[o..o + len],
                    &x5r[o..o + len],
                    &x5i[o..o + len],
                    &x6r[o..o + len],
                    &x6i[o..o + len],
                    &x7r[o..o + len],
                    &x7i[o..o + len],
                ],
                [
                    &mut y0r[o..o + len],
                    &mut y0i[o..o + len],
                    &mut y1r[o..o + len],
                    &mut y1i[o..o + len],
                    &mut y2r[o..o + len],
                    &mut y2i[o..o + len],
                    &mut y3r[o..o + len],
                    &mut y3i[o..o + len],
                    &mut y4r[o..o + len],
                    &mut y4i[o..o + len],
                    &mut y5r[o..o + len],
                    &mut y5i[o..o + len],
                    &mut y6r[o..o + len],
                    &mut y6i[o..o + len],
                    &mut y7r[o..o + len],
                    &mut y7i[o..o + len],
                ],
                &w,
                sgn::<INV>(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::naive_dft;
    use photonn_math::planar::{deinterleave, interleave};

    /// Sizes the engine supports, spanning every radix combination.
    const SIZES: [usize; 16] = [
        2, 4, 5, 8, 10, 16, 20, 25, 32, 40, 50, 64, 100, 125, 200, 400,
    ];

    #[test]
    fn supports_exactly_two_five_smooth_lengths() {
        for n in SIZES {
            assert!(VecMixed2d::supports(n), "{n} should be supported");
        }
        for n in [0usize, 1, 3, 6, 7, 12, 48, 97, 127, 200 * 3] {
            assert!(!VecMixed2d::supports(n), "{n} should not be supported");
        }
    }

    #[test]
    fn schedule_shapes() {
        assert_eq!(VecMixed2d::schedule(2), vec![2]);
        assert_eq!(VecMixed2d::schedule(4), vec![4]);
        assert_eq!(VecMixed2d::schedule(5), vec![5]);
        assert_eq!(VecMixed2d::schedule(8), vec![8]);
        assert_eq!(VecMixed2d::schedule(20), vec![4, 5]);
        assert_eq!(VecMixed2d::schedule(32), vec![8, 4]);
        assert_eq!(VecMixed2d::schedule(40), vec![8, 5]);
        assert_eq!(VecMixed2d::schedule(64), vec![8, 8]);
        assert_eq!(VecMixed2d::schedule(100), vec![4, 5, 5]);
        // The paper's native grid: 200 = 2³·5² → one radix-8 and two
        // radix-5 stages (three full plane passes, down from four).
        assert_eq!(VecMixed2d::schedule(200), vec![8, 5, 5]);
        assert_eq!(VecMixed2d::schedule(256), vec![8, 8, 4]);
        for n in SIZES {
            assert_eq!(
                VecMixed2d::schedule(n).iter().product::<usize>(),
                n,
                "schedule({n}) must multiply back to n"
            );
        }
    }

    /// Test convenience: a column pass whose result always ends in the
    /// primary Vec pair (swapping the Vecs when the stage count is odd).
    fn column_pass_vecs(
        engine: &VecMixed2d,
        re: &mut Vec<f64>,
        im: &mut Vec<f64>,
        sre: &mut Vec<f64>,
        sim: &mut Vec<f64>,
        inverse: bool,
    ) {
        engine.column_pass(re, im, sre, sim, inverse);
        if engine.odd_stages() {
            std::mem::swap(re, sre);
            std::mem::swap(im, sim);
        }
    }

    /// Runs the engine's column pass on a plane whose every column is an
    /// independent signal, and checks each column against the naive DFT.
    fn check_column_pass(n: usize, inverse: bool) {
        let engine = VecMixed2d::new(n);
        // Column c carries signal x_c[r] (distinct per column).
        let data: Vec<Complex64> = (0..n * n)
            .map(|idx| {
                let (r, c) = (idx / n, idx % n);
                Complex64::new(
                    ((r * 13 + c * 7) as f64 * 0.61).sin(),
                    ((r * 3 + c * 11) as f64 * 0.29).cos(),
                )
            })
            .collect();
        let mut re = vec![0.0; n * n];
        let mut im = vec![0.0; n * n];
        deinterleave(&data, &mut re, &mut im);
        let mut sre = vec![0.0; n * n];
        let mut sim = vec![0.0; n * n];
        column_pass_vecs(&engine, &mut re, &mut im, &mut sre, &mut sim, inverse);
        let mut got = vec![Complex64::ZERO; n * n];
        interleave(&re, &im, &mut got);

        for c in 0..n.min(7) {
            let column: Vec<Complex64> = (0..n).map(|r| data[r * n + c]).collect();
            let expected = if inverse {
                // Unnormalized adjoint = conj ∘ forward ∘ conj.
                let conj: Vec<Complex64> = column.iter().map(|z| z.conj()).collect();
                naive_dft(&conj).iter().map(|z| z.conj()).collect()
            } else {
                naive_dft(&column)
            };
            for (r, e) in expected.iter().enumerate() {
                let g = got[r * n + c];
                assert!(
                    (g - *e).norm() < 1e-9 * n as f64,
                    "n={n} inverse={inverse} col {c} row {r}: {:?} vs {:?}",
                    g,
                    e
                );
            }
        }
    }

    #[test]
    fn column_pass_matches_naive_dft() {
        for n in SIZES {
            check_column_pass(n, false);
        }
    }

    #[test]
    fn column_pass_inverse_is_adjoint() {
        for n in SIZES {
            check_column_pass(n, true);
        }
    }

    #[test]
    fn forward_then_inverse_roundtrips() {
        for n in [8usize, 20, 40, 100, 200] {
            let engine = VecMixed2d::new(n);
            let orig_re: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.13).sin()).collect();
            let orig_im: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.41).cos()).collect();
            let mut re = orig_re.clone();
            let mut im = orig_im.clone();
            let mut sre = vec![0.0; n * n];
            let mut sim = vec![0.0; n * n];
            column_pass_vecs(&engine, &mut re, &mut im, &mut sre, &mut sim, false);
            column_pass_vecs(&engine, &mut re, &mut im, &mut sre, &mut sim, true);
            let scale = 1.0 / n as f64;
            for i in 0..n * n {
                assert!(
                    (re[i] * scale - orig_re[i]).abs() < 1e-9
                        && (im[i] * scale - orig_im[i]).abs() < 1e-9,
                    "n={n} roundtrip failed at {i}"
                );
            }
        }
    }

    /// Strip-mined stage fusion must be bit-identical to the unfused
    /// sweep: butterflies never cross columns, and strip widths are
    /// multiples of the SIMD width so vector/tail splits agree.
    #[test]
    fn strip_fusion_is_bit_identical_to_full_pass() {
        for (n, strip) in [(40usize, 8usize), (100, 20), (400, 80)] {
            let kt = simd::active();
            let full = VecMixed2d::with_config(n, 0, kt);
            let fused = VecMixed2d::with_config(n, strip, kt);
            let orig_re: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.37).sin()).collect();
            let orig_im: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.23).cos()).collect();
            for inverse in [false, true] {
                let mut re_a = orig_re.clone();
                let mut im_a = orig_im.clone();
                let mut sre_a = vec![0.0; n * n];
                let mut sim_a = vec![0.0; n * n];
                column_pass_vecs(&full, &mut re_a, &mut im_a, &mut sre_a, &mut sim_a, inverse);
                let mut re_b = orig_re.clone();
                let mut im_b = orig_im.clone();
                let mut sre_b = vec![0.0; n * n];
                let mut sim_b = vec![0.0; n * n];
                column_pass_vecs(
                    &fused, &mut re_b, &mut im_b, &mut sre_b, &mut sim_b, inverse,
                );
                for i in 0..n * n {
                    assert!(
                        re_a[i].to_bits() == re_b[i].to_bits()
                            && im_a[i].to_bits() == im_b[i].to_bits(),
                        "n={n} strip={strip} inverse={inverse}: fused differs at {i}"
                    );
                }
            }
        }
    }

    /// The default strip heuristic: off below the L2 threshold or when
    /// `n % 4 != 0`, a multiple of 8 that bounds the working set above it.
    #[test]
    fn default_strip_heuristic_shapes() {
        assert_eq!(VecMixed2d::default_strip(200), 0, "200 fits in L2");
        assert_eq!(VecMixed2d::default_strip(64), 0);
        let w400 = VecMixed2d::default_strip(400);
        assert!(
            w400 > 0 && w400.is_multiple_of(8),
            "400 should strip (got {w400})"
        );
        assert!(32 * 400 * w400 <= 1 << 20, "strip working set ≤ 1 MB");
        assert_eq!(VecMixed2d::default_strip(250), 0, "250 % 4 != 0");
    }

    #[test]
    #[should_panic(expected = "unsupported vectorized length")]
    fn unsupported_length_panics() {
        let _ = VecMixed2d::new(6);
    }
}
