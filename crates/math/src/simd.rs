//! Runtime-dispatched SIMD kernel table for the planar hot path.
//!
//! Every planar primitive ([`crate::planar`]) and every Stockham butterfly
//! inner loop (`photonn-fft`'s vectorized mixed-radix engine) funnels
//! through one [`KernelTable`] of plain function pointers, selected **once
//! per process** by [`active`]:
//!
//! * **x86_64** — an AVX2+FMA table when `is_x86_feature_detected!`
//!   reports both features at startup (independent of compile-time
//!   `target-cpu` flags, so a portable binary still runs wide on capable
//!   hosts);
//! * **aarch64** — a NEON table unconditionally (NEON is a baseline
//!   feature of the target, no runtime probe needed);
//! * **anything else, or `PHOTONN_SIMD=off`** — the portable scalar
//!   table, whose kernels are the exact expression trees the pre-SIMD
//!   code used.
//!
//! The kill switch shares the workspace vocabulary ([`crate::envswitch`],
//! same as `PHOTONN_TRACE`): set `PHOTONN_SIMD` to any falsy value
//! (`off`/`0`/`false`/`no`, case-insensitive) to pin the scalar table
//! (read once, at first dispatch).
//!
//! # Numerical contract
//!
//! Each SIMD kernel is generated from the *same* generic element body as
//! its scalar fallback (see `Lanes`), with remainder tails that run the
//! scalar body verbatim — so tails are **bit-identical** to the scalar
//! table at every length, and the vector body differs only where the ISA
//! contracts a `mul` + `add`/`sub` pair into one fused-multiply-add
//! ([`KernelTable::fma`]). FMA keeps the intermediate product unrounded,
//! so affected lanes can differ from scalar by about one ulp (relative
//! ~1e-16, bounded well under 1e-15 for the unit-modulus fields the
//! optical stack propagates). [`transpose`](KernelTable::transpose) is
//! pure data movement and is bit-identical on every table. Kernels index
//! by element offset and use unaligned loads, so results never depend on
//! pointer alignment — batched planes and standalone planes agree
//! bit-for-bit.

#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Planar in-place complex multiply: `fn(re, im, kr, ki)`.
pub type HadamardFn = fn(&mut [f64], &mut [f64], &[f64], &[f64]);
/// Planar complex multiply with a folded real scale:
/// `fn(re, im, kr, ki, scale)`.
pub type HadamardScaleFn = fn(&mut [f64], &mut [f64], &[f64], &[f64], f64);
/// Accumulating conjugate product `out += g·conj(x)`:
/// `fn(gr, gi, xr, xi, out_re, out_im)`.
pub type AccMulConjFn = fn(&[f64], &[f64], &[f64], &[f64], &mut [f64], &mut [f64]);
/// Detector intensity `|z|²`: `fn(re, im, out)`.
pub type IntensityFn = fn(&[f64], &[f64], &mut [f64]);
/// Square plane transpose: `fn(src, n, dst)`.
pub type TransposeFn = fn(&[f64], usize, &mut [f64]);
/// Radix-2 Stockham butterfly over split-plane rows. Inputs/outputs are
/// re/im pairs in order `[x0r, x0i, x1r, x1i]`; the last argument is the
/// stage twiddle `ω^{j·1}` (already conjugated for inverse transforms).
pub type Radix2Fn = fn([&[f64]; 4], [&mut [f64]; 4], &[(f64, f64); 1]);
/// Radix-4 butterfly: pairs `[x0r, x0i, …, x3r, x3i]`, twiddles for
/// `s = 1..4`, and `sgn` = `1.0` forward / `-1.0` inverse (the `±i`
/// recombination sign).
pub type Radix4Fn = fn([&[f64]; 8], [&mut [f64]; 8], &[(f64, f64); 3], f64);
/// Radix-5 butterfly: pairs `[x0r, x0i, …, x4r, x4i]`, twiddles for
/// `s = 1..5`, and the forward/inverse sign.
pub type Radix5Fn = fn([&[f64]; 10], [&mut [f64]; 10], &[(f64, f64); 4], f64);
/// Radix-8 butterfly: pairs `[x0r, x0i, …, x7r, x7i]`, twiddles for
/// `s = 1..8`, and the forward/inverse sign.
pub type Radix8Fn = fn([&[f64]; 16], [&mut [f64]; 16], &[(f64, f64); 7], f64);

/// One complete kernel set. [`active`] picks a table at startup; callers
/// hold `&'static KernelTable` and invoke fields directly, so dispatch is
/// one indirect call per row-run, never per element.
pub struct KernelTable {
    /// Human-readable table name (`"scalar"`, `"avx2+fma"`, `"neon"`) —
    /// recorded by the benches as provenance.
    pub name: &'static str,
    /// Vector width in `f64` lanes (1 for scalar). Remainder tails start
    /// at `len - len % width` and run the scalar element body.
    pub width: usize,
    /// `true` if the vector body contracts multiply-add pairs into FMA —
    /// the only sanctioned deviation from the scalar table (≈1 ulp; see
    /// the module docs). Tables with `fma == false` are bit-identical to
    /// scalar everywhere.
    pub fma: bool,
    /// Elementwise complex multiply (see [`crate::planar::hadamard`]).
    pub hadamard: HadamardFn,
    /// Elementwise conjugate multiply ([`crate::planar::hadamard_conj`]).
    pub hadamard_conj: HadamardFn,
    /// Complex multiply with folded scale ([`crate::planar::hadamard_scale`]).
    pub hadamard_scale: HadamardScaleFn,
    /// Accumulating conjugate product ([`crate::planar::acc_mul_conj`]).
    pub acc_mul_conj: AccMulConjFn,
    /// Detector intensity ([`crate::planar::intensity`]).
    pub intensity: IntensityFn,
    /// Square plane transpose ([`crate::planar::transpose_plane`]).
    pub transpose: TransposeFn,
    /// Radix-2 butterfly inner loop.
    pub radix2: Radix2Fn,
    /// Radix-4 butterfly inner loop.
    pub radix4: Radix4Fn,
    /// Radix-5 butterfly inner loop.
    pub radix5: Radix5Fn,
    /// Radix-8 butterfly inner loop.
    pub radix8: Radix8Fn,
}

impl std::fmt::Debug for KernelTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelTable")
            .field("name", &self.name)
            .field("width", &self.width)
            .field("fma", &self.fma)
            .finish()
    }
}

/// The portable fallback table: exactly the expression trees the scalar
/// planar/butterfly code has always used, width 1, no FMA. Exposed so
/// property tests (and anything needing a reference result) can compare
/// any other table against it.
pub static SCALAR: KernelTable = KernelTable {
    name: "scalar",
    width: 1,
    fma: false,
    hadamard: d_hadamard::<f64>,
    hadamard_conj: d_hadamard_conj::<f64>,
    hadamard_scale: d_hadamard_scale::<f64>,
    acc_mul_conj: d_acc_mul_conj::<f64>,
    intensity: d_intensity::<f64>,
    transpose: transpose_scalar,
    radix2: d_radix2::<f64>,
    radix4: d_radix4::<f64>,
    radix5: d_radix5::<f64>,
    radix8: d_radix8::<f64>,
};

#[cfg(target_arch = "x86_64")]
static AVX2_FMA: KernelTable = KernelTable {
    name: "avx2+fma",
    width: 4,
    fma: true,
    hadamard: avx2::hadamard,
    hadamard_conj: avx2::hadamard_conj,
    hadamard_scale: avx2::hadamard_scale,
    acc_mul_conj: avx2::acc_mul_conj,
    intensity: avx2::intensity,
    transpose: avx2::transpose,
    radix2: avx2::radix2,
    radix4: avx2::radix4,
    radix5: avx2::radix5,
    radix8: avx2::radix8,
};

#[cfg(target_arch = "aarch64")]
static NEON: KernelTable = KernelTable {
    name: "neon",
    width: 2,
    fma: true,
    hadamard: neon::hadamard,
    hadamard_conj: neon::hadamard_conj,
    hadamard_scale: neon::hadamard_scale,
    acc_mul_conj: neon::acc_mul_conj,
    intensity: neon::intensity,
    transpose: neon::transpose,
    radix2: neon::radix2,
    radix4: neon::radix4,
    radix5: neon::radix5,
    radix8: neon::radix8,
};

/// The best table this CPU supports, ignoring `PHOTONN_SIMD`. Property
/// tests use this to exercise the SIMD kernels even when the environment
/// pins [`active`] to scalar.
pub fn detected() -> &'static KernelTable {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return &AVX2_FMA;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return &NEON;
    }
    #[allow(unreachable_code)]
    &SCALAR
}

/// The process-wide kernel table: [`detected`] unless `PHOTONN_SIMD` is
/// `off`/`0`/`false`, cached on first call. The env var is read exactly
/// once, so flipping it mid-process has no effect.
pub fn active() -> &'static KernelTable {
    static ACTIVE: OnceLock<&'static KernelTable> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        // The shared switch vocabulary (crate::envswitch): falsy values
        // pin the scalar table; unset or anything else keeps SIMD on.
        if crate::envswitch::engaged("PHOTONN_SIMD", true) {
            detected()
        } else {
            &SCALAR
        }
    })
}

/// The CPU features relevant to kernel selection that this host actually
/// reports — provenance fields for the bench JSON, so a recorded number
/// can never be mistaken for one measured on a different ISA level.
pub fn cpu_features() -> Vec<&'static str> {
    let mut feats = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, have) in [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if have {
                feats.push(name);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        feats.push("neon");
    }
    feats
}

// ---------------------------------------------------------------------------
// Lane abstraction: one generic element body per kernel, instantiated for
// f64 (the scalar table and every remainder tail), AVX2 f64×4 and NEON
// f64×2. `mul_add`/`mul_sub`/`mul_neg_add` are the only operations whose
// SIMD instantiations fuse; their f64 instantiations are the plain
// two-rounding expressions, keeping the scalar table bit-identical to the
// pre-SIMD code.
// ---------------------------------------------------------------------------

trait Lanes: Copy {
    /// Lanes per vector.
    const WIDTH: usize;
    fn splat(x: f64) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn neg(self) -> Self;
    /// `a·b + c` — fused on SIMD tables, `(a*b) + c` on scalar.
    fn mul_add(a: Self, b: Self, c: Self) -> Self;
    /// `a·b − c` — fused on SIMD tables, `(a*b) - c` on scalar.
    fn mul_sub(a: Self, b: Self, c: Self) -> Self;
    /// `c − a·b` — fused on SIMD tables, `c - (a*b)` on scalar.
    fn mul_neg_add(a: Self, b: Self, c: Self) -> Self;
    /// # Safety
    /// `p..p+WIDTH` must be in bounds.
    unsafe fn load(p: *const f64) -> Self;
    /// # Safety
    /// `p..p+WIDTH` must be in bounds.
    unsafe fn store(self, p: *mut f64);
}

impl Lanes for f64 {
    const WIDTH: usize = 1;
    #[inline(always)]
    fn splat(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    fn neg(self) -> Self {
        -self
    }
    #[inline(always)]
    fn mul_add(a: Self, b: Self, c: Self) -> Self {
        a * b + c
    }
    #[inline(always)]
    fn mul_sub(a: Self, b: Self, c: Self) -> Self {
        a * b - c
    }
    #[inline(always)]
    fn mul_neg_add(a: Self, b: Self, c: Self) -> Self {
        c - a * b
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        unsafe { *p }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        unsafe { *p = self }
    }
}

/// Complex multiply `(ar + i·ai)·(br + i·bi)`:
/// `re = ar·br − ai·bi`, `im = ar·bi + ai·br`.
#[inline(always)]
fn cmul<S: Lanes>(ar: S, ai: S, br: S, bi: S) -> (S, S) {
    (
        S::mul_sub(ar, br, ai.mul(bi)),
        S::mul_add(ar, bi, ai.mul(br)),
    )
}

// --- planar element bodies -------------------------------------------------

#[inline(always)]
fn hadamard_conj_elem<S: Lanes>(zr: S, zi: S, kr: S, ki: S) -> (S, S) {
    // re = zr·kr + zi·ki, im = zi·kr − zr·ki  (multiply by conj(k)).
    (
        S::mul_add(zr, kr, zi.mul(ki)),
        S::mul_sub(zi, kr, zr.mul(ki)),
    )
}

// --- planar drivers --------------------------------------------------------
//
// Each driver runs the vector body over whole WIDTH-lane chunks and the
// f64 body over the remainder, indexing by element offset so the chunk
// boundary depends only on the slice length, never on alignment.
//
// Every driver hard-asserts (release builds included) that all slices
// share the first slice's length *before* entering its unsafe loop: the
// table's fn-pointer fields are `pub` and reachable from safe code, so a
// mismatched length must panic — exactly like the indexed scalar loops
// these kernels replaced — never read or write out of bounds.

#[inline(always)]
fn d_hadamard<S: Lanes>(re: &mut [f64], im: &mut [f64], kr: &[f64], ki: &[f64]) {
    let n = re.len();
    assert_eq!(im.len(), n);
    assert_eq!(kr.len(), n);
    assert_eq!(ki.len(), n);
    let mut i = 0;
    while i + S::WIDTH <= n {
        // SAFETY: i + WIDTH ≤ n on every slice checked above.
        unsafe {
            let zr = S::load(re.as_ptr().add(i));
            let zi = S::load(im.as_ptr().add(i));
            let a = S::load(kr.as_ptr().add(i));
            let b = S::load(ki.as_ptr().add(i));
            let (rr, ri) = cmul(zr, zi, a, b);
            rr.store(re.as_mut_ptr().add(i));
            ri.store(im.as_mut_ptr().add(i));
        }
        i += S::WIDTH;
    }
    while i < n {
        let (rr, ri) = cmul::<f64>(re[i], im[i], kr[i], ki[i]);
        re[i] = rr;
        im[i] = ri;
        i += 1;
    }
}

#[inline(always)]
fn d_hadamard_conj<S: Lanes>(re: &mut [f64], im: &mut [f64], kr: &[f64], ki: &[f64]) {
    let n = re.len();
    assert_eq!(im.len(), n);
    assert_eq!(kr.len(), n);
    assert_eq!(ki.len(), n);
    let mut i = 0;
    while i + S::WIDTH <= n {
        // SAFETY: i + WIDTH ≤ n on every slice checked above.
        unsafe {
            let zr = S::load(re.as_ptr().add(i));
            let zi = S::load(im.as_ptr().add(i));
            let a = S::load(kr.as_ptr().add(i));
            let b = S::load(ki.as_ptr().add(i));
            let (rr, ri) = hadamard_conj_elem(zr, zi, a, b);
            rr.store(re.as_mut_ptr().add(i));
            ri.store(im.as_mut_ptr().add(i));
        }
        i += S::WIDTH;
    }
    while i < n {
        let (rr, ri) = hadamard_conj_elem::<f64>(re[i], im[i], kr[i], ki[i]);
        re[i] = rr;
        im[i] = ri;
        i += 1;
    }
}

#[inline(always)]
fn d_hadamard_scale<S: Lanes>(re: &mut [f64], im: &mut [f64], kr: &[f64], ki: &[f64], scale: f64) {
    let n = re.len();
    assert_eq!(im.len(), n);
    assert_eq!(kr.len(), n);
    assert_eq!(ki.len(), n);
    let sv = S::splat(scale);
    let mut i = 0;
    while i + S::WIDTH <= n {
        // SAFETY: i + WIDTH ≤ n on every slice checked above.
        unsafe {
            let zr = S::load(re.as_ptr().add(i));
            let zi = S::load(im.as_ptr().add(i));
            let a = S::load(kr.as_ptr().add(i));
            let b = S::load(ki.as_ptr().add(i));
            let (rr, ri) = cmul(zr, zi, a, b);
            rr.mul(sv).store(re.as_mut_ptr().add(i));
            ri.mul(sv).store(im.as_mut_ptr().add(i));
        }
        i += S::WIDTH;
    }
    while i < n {
        let (rr, ri) = cmul::<f64>(re[i], im[i], kr[i], ki[i]);
        re[i] = rr * scale;
        im[i] = ri * scale;
        i += 1;
    }
}

#[inline(always)]
fn d_acc_mul_conj<S: Lanes>(
    gr: &[f64],
    gi: &[f64],
    xr: &[f64],
    xi: &[f64],
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    let n = gr.len();
    assert_eq!(gi.len(), n);
    assert_eq!(xr.len(), n);
    assert_eq!(xi.len(), n);
    assert_eq!(out_re.len(), n);
    assert_eq!(out_im.len(), n);
    let mut i = 0;
    while i + S::WIDTH <= n {
        // SAFETY: i + WIDTH ≤ n on every slice checked above.
        unsafe {
            let a = S::load(gr.as_ptr().add(i));
            let b = S::load(gi.as_ptr().add(i));
            let x = S::load(xr.as_ptr().add(i));
            let y = S::load(xi.as_ptr().add(i));
            let or = S::load(out_re.as_ptr().add(i));
            let oi = S::load(out_im.as_ptr().add(i));
            // out_re += gr·xr + gi·xi ; out_im += gi·xr − gr·xi.
            or.add(S::mul_add(a, x, b.mul(y)))
                .store(out_re.as_mut_ptr().add(i));
            oi.add(S::mul_sub(b, x, a.mul(y)))
                .store(out_im.as_mut_ptr().add(i));
        }
        i += S::WIDTH;
    }
    while i < n {
        out_re[i] += gr[i] * xr[i] + gi[i] * xi[i];
        out_im[i] += gi[i] * xr[i] - gr[i] * xi[i];
        i += 1;
    }
}

#[inline(always)]
fn d_intensity<S: Lanes>(re: &[f64], im: &[f64], out: &mut [f64]) {
    let n = re.len();
    assert_eq!(im.len(), n);
    assert_eq!(out.len(), n);
    let mut i = 0;
    while i + S::WIDTH <= n {
        // SAFETY: i + WIDTH ≤ n on every slice checked above.
        unsafe {
            let r = S::load(re.as_ptr().add(i));
            let m = S::load(im.as_ptr().add(i));
            S::mul_add(r, r, m.mul(m)).store(out.as_mut_ptr().add(i));
        }
        i += S::WIDTH;
    }
    while i < n {
        out[i] = re[i] * re[i] + im[i] * im[i];
        i += 1;
    }
}

/// Tiled scalar transpose — the exact loop `planar::transpose_plane` has
/// always run (pure data movement, bit-identical under any tiling).
fn transpose_scalar(src: &[f64], n: usize, dst: &mut [f64]) {
    assert_eq!(src.len(), n * n);
    assert_eq!(dst.len(), n * n);
    const TILE: usize = 32;
    for rb in (0..n).step_by(TILE) {
        let r_end = (rb + TILE).min(n);
        for cb in (0..n).step_by(TILE) {
            let c_end = (cb + TILE).min(n);
            for r in rb..r_end {
                let row = &src[r * n..(r + 1) * n];
                for c in cb..c_end {
                    dst[c * n + r] = row[c];
                }
            }
        }
    }
}

// --- butterfly bodies ------------------------------------------------------
//
// Direct transliterations of the Stockham stage inner loops in
// `photonn-fft::vecmixed`, one complex element (per lane) at a time.
// `sgn` carries the forward/inverse `±i` recombination sign the engine
// used to monomorphize; the stage twiddles arrive pre-conjugated.

#[inline(always)]
fn radix2_body<S: Lanes>(x: [S; 4], w1: (S, S)) -> [S; 4] {
    let [ar, ai, br, bi] = x;
    let (ur, ui) = (ar.sub(br), ai.sub(bi));
    let (y1r, y1i) = cmul(ur, ui, w1.0, w1.1);
    [ar.add(br), ai.add(bi), y1r, y1i]
}

#[inline(always)]
fn radix4_body<S: Lanes>(x: [S; 8], w: &[(S, S); 3], sgn: S) -> [S; 8] {
    let [x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i] = x;
    let (t0r, t0i) = (x0r.add(x2r), x0i.add(x2i));
    let (t1r, t1i) = (x0r.sub(x2r), x0i.sub(x2i));
    let (t2r, t2i) = (x1r.add(x3r), x1i.add(x3i));
    // t3 multiplied by ∓i (forward: -i): (r, i) ↦ ±(i, -r).
    let (t3r, t3i) = (sgn.mul(x1i.sub(x3i)), sgn.mul(x3r.sub(x1r)));
    let (y1r, y1i) = cmul(t1r.add(t3r), t1i.add(t3i), w[0].0, w[0].1);
    let (y2r, y2i) = cmul(t0r.sub(t2r), t0i.sub(t2i), w[1].0, w[1].1);
    let (y3r, y3i) = cmul(t1r.sub(t3r), t1i.sub(t3i), w[2].0, w[2].1);
    [t0r.add(t2r), t0i.add(t2i), y1r, y1i, y2r, y2i, y3r, y3i]
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn radix5_body<S: Lanes>(
    x: [S; 10],
    w: &[(S, S); 4],
    c1: S,
    s1: S,
    c2: S,
    s2: S,
    sgn: S,
) -> [S; 10] {
    let [x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i, x4r, x4i] = x;
    // Conjugate-pair sums/differences of the outer inputs.
    let (t1r, t1i) = (x1r.add(x4r), x1i.add(x4i));
    let (t2r, t2i) = (x2r.add(x3r), x2i.add(x3i));
    let (t3r, t3i) = (x1r.sub(x4r), x1i.sub(x4i));
    let (t4r, t4i) = (x2r.sub(x3r), x2i.sub(x3i));
    let (ar, ai) = (x0r, x0i);
    let y0r = ar.add(t1r).add(t2r);
    let y0i = ai.add(t1i).add(t2i);
    let m1r = S::mul_add(c2, t2r, S::mul_add(c1, t1r, ar));
    let m1i = S::mul_add(c2, t2i, S::mul_add(c1, t1i, ai));
    let m2r = S::mul_add(c1, t2r, S::mul_add(c2, t1r, ar));
    let m2i = S::mul_add(c1, t2i, S::mul_add(c2, t1i, ai));
    let m3r = S::mul_add(s1, t3r, s2.mul(t4r));
    let m3i = S::mul_add(s1, t3i, s2.mul(t4i));
    let m4r = S::mul_sub(s2, t3r, s1.mul(t4r));
    let m4i = S::mul_sub(s2, t3i, s1.mul(t4i));
    // d1/d4 = m1 ∓ i·m3, d2/d3 = m2 ∓ i·m4 (forward signs).
    let (d1r, d1i) = (S::mul_add(sgn, m3i, m1r), S::mul_neg_add(sgn, m3r, m1i));
    let (d4r, d4i) = (S::mul_neg_add(sgn, m3i, m1r), S::mul_add(sgn, m3r, m1i));
    let (d2r, d2i) = (S::mul_add(sgn, m4i, m2r), S::mul_neg_add(sgn, m4r, m2i));
    let (d3r, d3i) = (S::mul_neg_add(sgn, m4i, m2r), S::mul_add(sgn, m4r, m2i));
    let (y1r, y1i) = cmul(d1r, d1i, w[0].0, w[0].1);
    let (y2r, y2i) = cmul(d2r, d2i, w[1].0, w[1].1);
    let (y3r, y3i) = cmul(d3r, d3i, w[2].0, w[2].1);
    let (y4r, y4i) = cmul(d4r, d4i, w[3].0, w[3].1);
    [y0r, y0i, y1r, y1i, y2r, y2i, y3r, y3i, y4r, y4i]
}

#[inline(always)]
fn radix8_body<S: Lanes>(x: [S; 16], w: &[(S, S); 7], c: S, sgn: S) -> [S; 16] {
    let [x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i, x4r, x4i, x5r, x5i, x6r, x6i, x7r, x7i] = x;
    // 4-point DFT of the even inputs (x0, x2, x4, x6).
    let (t0r, t0i) = (x0r.add(x4r), x0i.add(x4i));
    let (t1r, t1i) = (x0r.sub(x4r), x0i.sub(x4i));
    let (t2r, t2i) = (x2r.add(x6r), x2i.add(x6i));
    let (t3r, t3i) = (sgn.mul(x2i.sub(x6i)), sgn.mul(x6r.sub(x2r)));
    let (e0r, e0i) = (t0r.add(t2r), t0i.add(t2i));
    let (e1r, e1i) = (t1r.add(t3r), t1i.add(t3i));
    let (e2r, e2i) = (t0r.sub(t2r), t0i.sub(t2i));
    let (e3r, e3i) = (t1r.sub(t3r), t1i.sub(t3i));
    // 4-point DFT of the odd inputs (x1, x3, x5, x7).
    let (u0r, u0i) = (x1r.add(x5r), x1i.add(x5i));
    let (u1r, u1i) = (x1r.sub(x5r), x1i.sub(x5i));
    let (u2r, u2i) = (x3r.add(x7r), x3i.add(x7i));
    let (u3r, u3i) = (sgn.mul(x3i.sub(x7i)), sgn.mul(x7r.sub(x3r)));
    let (o0r, o0i) = (u0r.add(u2r), u0i.add(u2i));
    let (o1r, o1i) = (u1r.add(u3r), u1i.add(u3i));
    let (o2r, o2i) = (u0r.sub(u2r), u0i.sub(u2i));
    let (o3r, o3i) = (u1r.sub(u3r), u1i.sub(u3i));
    // Rotate the odd outputs by ω₈^s (s = 0..3):
    // ω₈⁰ = 1, ω₈¹ = (1 ∓ i)/√2, ω₈² = ∓i, ω₈³ = −(1 ± i)/√2.
    let (v1r, v1i) = (
        c.mul(S::mul_add(sgn, o1i, o1r)),
        c.mul(S::mul_neg_add(sgn, o1r, o1i)),
    );
    let (v2r, v2i) = (sgn.mul(o2i), sgn.mul(o2r).neg());
    let (v3r, v3i) = (
        c.mul(S::mul_sub(sgn, o3i, o3r)),
        c.mul(S::mul_add(sgn, o3r, o3i)).neg(),
    );
    // Recombine, then apply the stage twiddles.
    let (y1r, y1i) = cmul(e1r.add(v1r), e1i.add(v1i), w[0].0, w[0].1);
    let (y2r, y2i) = cmul(e2r.add(v2r), e2i.add(v2i), w[1].0, w[1].1);
    let (y3r, y3i) = cmul(e3r.add(v3r), e3i.add(v3i), w[2].0, w[2].1);
    let (y4r, y4i) = cmul(e0r.sub(o0r), e0i.sub(o0i), w[3].0, w[3].1);
    let (y5r, y5i) = cmul(e1r.sub(v1r), e1i.sub(v1i), w[4].0, w[4].1);
    let (y6r, y6i) = cmul(e2r.sub(v2r), e2i.sub(v2i), w[5].0, w[5].1);
    let (y7r, y7i) = cmul(e3r.sub(v3r), e3i.sub(v3i), w[6].0, w[6].1);
    [
        e0r.add(o0r),
        e0i.add(o0i),
        y1r,
        y1i,
        y2r,
        y2i,
        y3r,
        y3i,
        y4r,
        y4i,
        y5r,
        y5i,
        y6r,
        y6i,
        y7r,
        y7i,
    ]
}

// --- butterfly drivers -----------------------------------------------------

#[inline(always)]
fn d_radix2<S: Lanes>(x: [&[f64]; 4], y: [&mut [f64]; 4], w: &[(f64, f64); 1]) {
    let [x0r, x0i, x1r, x1i] = x;
    let [y0r, y0i, y1r, y1i] = y;
    let n = x0r.len();
    assert!(
        [x0i, x1r, x1i].iter().all(|s| s.len() == n)
            && [&y0r, &y0i, &y1r, &y1i].iter().all(|s| s.len() == n)
    );
    let wv = (S::splat(w[0].0), S::splat(w[0].1));
    let mut i = 0;
    while i + S::WIDTH <= n {
        // SAFETY: i + WIDTH ≤ n on every slice checked above.
        unsafe {
            let xv = [
                S::load(x0r.as_ptr().add(i)),
                S::load(x0i.as_ptr().add(i)),
                S::load(x1r.as_ptr().add(i)),
                S::load(x1i.as_ptr().add(i)),
            ];
            let o = radix2_body(xv, wv);
            o[0].store(y0r.as_mut_ptr().add(i));
            o[1].store(y0i.as_mut_ptr().add(i));
            o[2].store(y1r.as_mut_ptr().add(i));
            o[3].store(y1i.as_mut_ptr().add(i));
        }
        i += S::WIDTH;
    }
    while i < n {
        let o = radix2_body::<f64>([x0r[i], x0i[i], x1r[i], x1i[i]], w[0]);
        y0r[i] = o[0];
        y0i[i] = o[1];
        y1r[i] = o[2];
        y1i[i] = o[3];
        i += 1;
    }
}

#[inline(always)]
fn d_radix4<S: Lanes>(x: [&[f64]; 8], y: [&mut [f64]; 8], w: &[(f64, f64); 3], sgn: f64) {
    let [x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i] = x;
    let [y0r, y0i, y1r, y1i, y2r, y2i, y3r, y3i] = y;
    let n = x0r.len();
    assert!([x0i, x1r, x1i, x2r, x2i, x3r, x3i]
        .iter()
        .all(|s| s.len() == n));
    assert!([&y0r, &y0i, &y1r, &y1i, &y2r, &y2i, &y3r, &y3i]
        .iter()
        .all(|s| s.len() == n));
    let sv = S::splat(sgn);
    let wv = [
        (S::splat(w[0].0), S::splat(w[0].1)),
        (S::splat(w[1].0), S::splat(w[1].1)),
        (S::splat(w[2].0), S::splat(w[2].1)),
    ];
    let mut i = 0;
    while i + S::WIDTH <= n {
        // SAFETY: i + WIDTH ≤ n on every slice checked above.
        unsafe {
            let xv = [
                S::load(x0r.as_ptr().add(i)),
                S::load(x0i.as_ptr().add(i)),
                S::load(x1r.as_ptr().add(i)),
                S::load(x1i.as_ptr().add(i)),
                S::load(x2r.as_ptr().add(i)),
                S::load(x2i.as_ptr().add(i)),
                S::load(x3r.as_ptr().add(i)),
                S::load(x3i.as_ptr().add(i)),
            ];
            let o = radix4_body(xv, &wv, sv);
            o[0].store(y0r.as_mut_ptr().add(i));
            o[1].store(y0i.as_mut_ptr().add(i));
            o[2].store(y1r.as_mut_ptr().add(i));
            o[3].store(y1i.as_mut_ptr().add(i));
            o[4].store(y2r.as_mut_ptr().add(i));
            o[5].store(y2i.as_mut_ptr().add(i));
            o[6].store(y3r.as_mut_ptr().add(i));
            o[7].store(y3i.as_mut_ptr().add(i));
        }
        i += S::WIDTH;
    }
    let ws = [(w[0].0, w[0].1), (w[1].0, w[1].1), (w[2].0, w[2].1)];
    while i < n {
        let o = radix4_body::<f64>(
            [
                x0r[i], x0i[i], x1r[i], x1i[i], x2r[i], x2i[i], x3r[i], x3i[i],
            ],
            &ws,
            sgn,
        );
        y0r[i] = o[0];
        y0i[i] = o[1];
        y1r[i] = o[2];
        y1i[i] = o[3];
        y2r[i] = o[4];
        y2i[i] = o[5];
        y3r[i] = o[6];
        y3i[i] = o[7];
        i += 1;
    }
}

/// `[cos, sin]` of 2π/5 and 4π/5 for the radix-5 butterfly, computed once
/// per process. The kernel fires once per j-group per strip, so per-call
/// libm would be hot-path work; the values are not const-evaluable, and
/// spelling them as literals could drift from this platform's libm (the
/// scalar stage has always obtained them through these calls).
fn radix5_trig() -> &'static [f64; 4] {
    static TRIG: OnceLock<[f64; 4]> = OnceLock::new();
    TRIG.get_or_init(|| {
        let th = 2.0 * std::f64::consts::PI / 5.0;
        [th.cos(), th.sin(), (2.0 * th).cos(), (2.0 * th).sin()]
    })
}

#[inline(always)]
fn d_radix5<S: Lanes>(x: [&[f64]; 10], y: [&mut [f64]; 10], w: &[(f64, f64); 4], sgn: f64) {
    let [x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i, x4r, x4i] = x;
    let [y0r, y0i, y1r, y1i, y2r, y2i, y3r, y3i, y4r, y4i] = y;
    let n = x0r.len();
    assert!([x0i, x1r, x1i, x2r, x2i, x3r, x3i, x4r, x4i]
        .iter()
        .all(|s| s.len() == n));
    assert!([&y0r, &y0i, &y1r, &y1i, &y2r, &y2i, &y3r, &y3i, &y4r, &y4i]
        .iter()
        .all(|s| s.len() == n));
    // 5-point DFT via the conjugate-pair split — same constants (and the
    // same libm calls) as the scalar stage has always used, computed once
    // per process (see `radix5_trig`).
    let &[c1, s1, c2, s2] = radix5_trig();
    let (c1v, s1v) = (S::splat(c1), S::splat(s1));
    let (c2v, s2v) = (S::splat(c2), S::splat(s2));
    let sv = S::splat(sgn);
    let wv = [
        (S::splat(w[0].0), S::splat(w[0].1)),
        (S::splat(w[1].0), S::splat(w[1].1)),
        (S::splat(w[2].0), S::splat(w[2].1)),
        (S::splat(w[3].0), S::splat(w[3].1)),
    ];
    let mut i = 0;
    while i + S::WIDTH <= n {
        // SAFETY: i + WIDTH ≤ n on every slice checked above.
        unsafe {
            let xv = [
                S::load(x0r.as_ptr().add(i)),
                S::load(x0i.as_ptr().add(i)),
                S::load(x1r.as_ptr().add(i)),
                S::load(x1i.as_ptr().add(i)),
                S::load(x2r.as_ptr().add(i)),
                S::load(x2i.as_ptr().add(i)),
                S::load(x3r.as_ptr().add(i)),
                S::load(x3i.as_ptr().add(i)),
                S::load(x4r.as_ptr().add(i)),
                S::load(x4i.as_ptr().add(i)),
            ];
            let o = radix5_body(xv, &wv, c1v, s1v, c2v, s2v, sv);
            o[0].store(y0r.as_mut_ptr().add(i));
            o[1].store(y0i.as_mut_ptr().add(i));
            o[2].store(y1r.as_mut_ptr().add(i));
            o[3].store(y1i.as_mut_ptr().add(i));
            o[4].store(y2r.as_mut_ptr().add(i));
            o[5].store(y2i.as_mut_ptr().add(i));
            o[6].store(y3r.as_mut_ptr().add(i));
            o[7].store(y3i.as_mut_ptr().add(i));
            o[8].store(y4r.as_mut_ptr().add(i));
            o[9].store(y4i.as_mut_ptr().add(i));
        }
        i += S::WIDTH;
    }
    while i < n {
        let o = radix5_body::<f64>(
            [
                x0r[i], x0i[i], x1r[i], x1i[i], x2r[i], x2i[i], x3r[i], x3i[i], x4r[i], x4i[i],
            ],
            w,
            c1,
            s1,
            c2,
            s2,
            sgn,
        );
        y0r[i] = o[0];
        y0i[i] = o[1];
        y1r[i] = o[2];
        y1i[i] = o[3];
        y2r[i] = o[4];
        y2i[i] = o[5];
        y3r[i] = o[6];
        y3i[i] = o[7];
        y4r[i] = o[8];
        y4i[i] = o[9];
        i += 1;
    }
}

#[inline(always)]
fn d_radix8<S: Lanes>(x: [&[f64]; 16], y: [&mut [f64]; 16], w: &[(f64, f64); 7], sgn: f64) {
    let [x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i, x4r, x4i, x5r, x5i, x6r, x6i, x7r, x7i] = x;
    let [y0r, y0i, y1r, y1i, y2r, y2i, y3r, y3i, y4r, y4i, y5r, y5i, y6r, y6i, y7r, y7i] = y;
    let n = x0r.len();
    assert!(
        [x0i, x1r, x1i, x2r, x2i, x3r, x3i, x4r, x4i, x5r, x5i, x6r, x6i, x7r, x7i]
            .iter()
            .all(|s| s.len() == n)
    );
    assert!([
        &y0r, &y0i, &y1r, &y1i, &y2r, &y2i, &y3r, &y3i, &y4r, &y4i, &y5r, &y5i, &y6r, &y6i, &y7r,
        &y7i
    ]
    .iter()
    .all(|s| s.len() == n));
    let c = std::f64::consts::FRAC_1_SQRT_2;
    let cv = S::splat(c);
    let sv = S::splat(sgn);
    let wv = [
        (S::splat(w[0].0), S::splat(w[0].1)),
        (S::splat(w[1].0), S::splat(w[1].1)),
        (S::splat(w[2].0), S::splat(w[2].1)),
        (S::splat(w[3].0), S::splat(w[3].1)),
        (S::splat(w[4].0), S::splat(w[4].1)),
        (S::splat(w[5].0), S::splat(w[5].1)),
        (S::splat(w[6].0), S::splat(w[6].1)),
    ];
    let mut i = 0;
    while i + S::WIDTH <= n {
        // SAFETY: i + WIDTH ≤ n on every slice checked above.
        unsafe {
            let xv = [
                S::load(x0r.as_ptr().add(i)),
                S::load(x0i.as_ptr().add(i)),
                S::load(x1r.as_ptr().add(i)),
                S::load(x1i.as_ptr().add(i)),
                S::load(x2r.as_ptr().add(i)),
                S::load(x2i.as_ptr().add(i)),
                S::load(x3r.as_ptr().add(i)),
                S::load(x3i.as_ptr().add(i)),
                S::load(x4r.as_ptr().add(i)),
                S::load(x4i.as_ptr().add(i)),
                S::load(x5r.as_ptr().add(i)),
                S::load(x5i.as_ptr().add(i)),
                S::load(x6r.as_ptr().add(i)),
                S::load(x6i.as_ptr().add(i)),
                S::load(x7r.as_ptr().add(i)),
                S::load(x7i.as_ptr().add(i)),
            ];
            let o = radix8_body(xv, &wv, cv, sv);
            o[0].store(y0r.as_mut_ptr().add(i));
            o[1].store(y0i.as_mut_ptr().add(i));
            o[2].store(y1r.as_mut_ptr().add(i));
            o[3].store(y1i.as_mut_ptr().add(i));
            o[4].store(y2r.as_mut_ptr().add(i));
            o[5].store(y2i.as_mut_ptr().add(i));
            o[6].store(y3r.as_mut_ptr().add(i));
            o[7].store(y3i.as_mut_ptr().add(i));
            o[8].store(y4r.as_mut_ptr().add(i));
            o[9].store(y4i.as_mut_ptr().add(i));
            o[10].store(y5r.as_mut_ptr().add(i));
            o[11].store(y5i.as_mut_ptr().add(i));
            o[12].store(y6r.as_mut_ptr().add(i));
            o[13].store(y6i.as_mut_ptr().add(i));
            o[14].store(y7r.as_mut_ptr().add(i));
            o[15].store(y7i.as_mut_ptr().add(i));
        }
        i += S::WIDTH;
    }
    while i < n {
        let o = radix8_body::<f64>(
            [
                x0r[i], x0i[i], x1r[i], x1i[i], x2r[i], x2i[i], x3r[i], x3i[i], x4r[i], x4i[i],
                x5r[i], x5i[i], x6r[i], x6i[i], x7r[i], x7i[i],
            ],
            w,
            c,
            sgn,
        );
        y0r[i] = o[0];
        y0i[i] = o[1];
        y1r[i] = o[2];
        y1i[i] = o[3];
        y2r[i] = o[4];
        y2i[i] = o[5];
        y3r[i] = o[6];
        y3i[i] = o[7];
        y4r[i] = o[8];
        y4i[i] = o[9];
        y5r[i] = o[10];
        y5i[i] = o[11];
        y6r[i] = o[12];
        y6i[i] = o[13];
        y7r[i] = o[14];
        y7i[i] = o[15];
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// AVX2+FMA table (x86_64). Entry points are thin safe wrappers over
// `#[target_feature(enable = "avx2,fma")]` shims; the generic drivers and
// the `V4` lane methods are `#[inline(always)]`, so the whole loop body
// collapses into the feature-enabled shim and the intrinsics compile to
// bare instructions, not calls.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        d_acc_mul_conj, d_hadamard, d_hadamard_conj, d_hadamard_scale, d_intensity, d_radix2,
        d_radix4, d_radix5, d_radix8, Lanes,
    };
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub(super) struct V4(__m256d);

    impl Lanes for V4 {
        const WIDTH: usize = 4;
        #[inline(always)]
        fn splat(x: f64) -> Self {
            // SAFETY: callers of every V4 code path hold the avx2+fma
            // detection invariant documented on the wrappers below.
            V4(unsafe { _mm256_set1_pd(x) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            V4(unsafe { _mm256_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            V4(unsafe { _mm256_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            V4(unsafe { _mm256_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            // XOR with the sign mask — an exact sign flip, like scalar `-x`
            // (a subtraction from zero would mishandle -0.0).
            V4(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }
        #[inline(always)]
        fn mul_add(a: Self, b: Self, c: Self) -> Self {
            V4(unsafe { _mm256_fmadd_pd(a.0, b.0, c.0) })
        }
        #[inline(always)]
        fn mul_sub(a: Self, b: Self, c: Self) -> Self {
            V4(unsafe { _mm256_fmsub_pd(a.0, b.0, c.0) })
        }
        #[inline(always)]
        fn mul_neg_add(a: Self, b: Self, c: Self) -> Self {
            V4(unsafe { _mm256_fnmadd_pd(a.0, b.0, c.0) })
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            // Unaligned load: lane placement must not depend on pointer
            // alignment (see the module's numerical contract).
            V4(unsafe { _mm256_loadu_pd(p) })
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            unsafe { _mm256_storeu_pd(p, self.0) }
        }
    }

    /// Declares the `#[target_feature]` shim plus the plain-`fn` wrapper
    /// that the AVX2 table stores.
    macro_rules! avx2_kernel {
        ($wrapper:ident, $shim:ident, $driver:ident, ($($a:ident: $t:ty),*)) => {
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $shim($($a: $t),*) {
                $driver::<V4>($($a),*)
            }
            pub(super) fn $wrapper($($a: $t),*) {
                // SAFETY: this fn is only reachable through the AVX2_FMA
                // table, which `detected()` installs after runtime
                // `is_x86_feature_detected!("avx2")`/`("fma")` both pass.
                unsafe { $shim($($a),*) }
            }
        };
    }

    avx2_kernel!(hadamard, hadamard_tf, d_hadamard,
        (re: &mut [f64], im: &mut [f64], kr: &[f64], ki: &[f64]));
    avx2_kernel!(hadamard_conj, hadamard_conj_tf, d_hadamard_conj,
        (re: &mut [f64], im: &mut [f64], kr: &[f64], ki: &[f64]));
    avx2_kernel!(hadamard_scale, hadamard_scale_tf, d_hadamard_scale,
        (re: &mut [f64], im: &mut [f64], kr: &[f64], ki: &[f64], scale: f64));
    avx2_kernel!(acc_mul_conj, acc_mul_conj_tf, d_acc_mul_conj,
        (gr: &[f64], gi: &[f64], xr: &[f64], xi: &[f64], out_re: &mut [f64], out_im: &mut [f64]));
    avx2_kernel!(intensity, intensity_tf, d_intensity,
        (re: &[f64], im: &[f64], out: &mut [f64]));
    avx2_kernel!(radix2, radix2_tf, d_radix2,
        (x: [&[f64]; 4], y: [&mut [f64]; 4], w: &[(f64, f64); 1]));
    avx2_kernel!(radix4, radix4_tf, d_radix4,
        (x: [&[f64]; 8], y: [&mut [f64]; 8], w: &[(f64, f64); 3], sgn: f64));
    avx2_kernel!(radix5, radix5_tf, d_radix5,
        (x: [&[f64]; 10], y: [&mut [f64]; 10], w: &[(f64, f64); 4], sgn: f64));
    avx2_kernel!(radix8, radix8_tf, d_radix8,
        (x: [&[f64]; 16], y: [&mut [f64]; 16], w: &[(f64, f64); 7], sgn: f64));

    /// 4×4 in-register micro-transpose inside the usual 32-wide tiles;
    /// edge remainders fall back to the scalar scatter. Pure data
    /// movement — bit-identical to the scalar transpose.
    #[target_feature(enable = "avx2")]
    unsafe fn transpose_tf(src: &[f64], n: usize, dst: &mut [f64]) {
        assert_eq!(src.len(), n * n);
        assert_eq!(dst.len(), n * n);
        const TILE: usize = 32;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for rb in (0..n).step_by(TILE) {
            let r_end = (rb + TILE).min(n);
            for cb in (0..n).step_by(TILE) {
                let c_end = (cb + TILE).min(n);
                let mut r = rb;
                while r + 4 <= r_end {
                    let mut c = cb;
                    while c + 4 <= c_end {
                        // SAFETY: r+3 < n and c+3 < n, so every 4-lane
                        // row/column segment below is in bounds.
                        unsafe {
                            let a = _mm256_loadu_pd(sp.add(r * n + c));
                            let b = _mm256_loadu_pd(sp.add((r + 1) * n + c));
                            let cc = _mm256_loadu_pd(sp.add((r + 2) * n + c));
                            let d = _mm256_loadu_pd(sp.add((r + 3) * n + c));
                            let t0 = _mm256_unpacklo_pd(a, b);
                            let t1 = _mm256_unpackhi_pd(a, b);
                            let t2 = _mm256_unpacklo_pd(cc, d);
                            let t3 = _mm256_unpackhi_pd(cc, d);
                            _mm256_storeu_pd(
                                dp.add(c * n + r),
                                _mm256_permute2f128_pd(t0, t2, 0x20),
                            );
                            _mm256_storeu_pd(
                                dp.add((c + 1) * n + r),
                                _mm256_permute2f128_pd(t1, t3, 0x20),
                            );
                            _mm256_storeu_pd(
                                dp.add((c + 2) * n + r),
                                _mm256_permute2f128_pd(t0, t2, 0x31),
                            );
                            _mm256_storeu_pd(
                                dp.add((c + 3) * n + r),
                                _mm256_permute2f128_pd(t1, t3, 0x31),
                            );
                        }
                        c += 4;
                    }
                    for rr in r..r + 4 {
                        for ccol in c..c_end {
                            dst[ccol * n + rr] = src[rr * n + ccol];
                        }
                    }
                    r += 4;
                }
                for rr in r..r_end {
                    for ccol in cb..c_end {
                        dst[ccol * n + rr] = src[rr * n + ccol];
                    }
                }
            }
        }
    }

    pub(super) fn transpose(src: &[f64], n: usize, dst: &mut [f64]) {
        // SAFETY: reachable only through the AVX2_FMA table (see above).
        unsafe { transpose_tf(src, n, dst) }
    }
}

// ---------------------------------------------------------------------------
// NEON table (aarch64). NEON is a baseline feature of every aarch64
// target rustc ships, so no runtime probe or target_feature shim is
// needed — the drivers instantiate directly over the 2-lane type.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
#[allow(unused_unsafe)]
mod neon {
    use super::{
        d_acc_mul_conj, d_hadamard, d_hadamard_conj, d_hadamard_scale, d_intensity, d_radix2,
        d_radix4, d_radix5, d_radix8, Lanes,
    };
    use std::arch::aarch64::*;

    #[derive(Clone, Copy)]
    pub(super) struct V2(float64x2_t);

    impl Lanes for V2 {
        const WIDTH: usize = 2;
        #[inline(always)]
        fn splat(x: f64) -> Self {
            // SAFETY: NEON is statically enabled on every aarch64 target.
            V2(unsafe { vdupq_n_f64(x) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            V2(unsafe { vaddq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            V2(unsafe { vsubq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            V2(unsafe { vmulq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            V2(unsafe { vnegq_f64(self.0) })
        }
        #[inline(always)]
        fn mul_add(a: Self, b: Self, c: Self) -> Self {
            // vfmaq(c, a, b) = c + a·b, fused.
            V2(unsafe { vfmaq_f64(c.0, a.0, b.0) })
        }
        #[inline(always)]
        fn mul_sub(a: Self, b: Self, c: Self) -> Self {
            // a·b − c = (−c) + a·b, fused.
            V2(unsafe { vfmaq_f64(vnegq_f64(c.0), a.0, b.0) })
        }
        #[inline(always)]
        fn mul_neg_add(a: Self, b: Self, c: Self) -> Self {
            // vfmsq(c, a, b) = c − a·b, fused.
            V2(unsafe { vfmsq_f64(c.0, a.0, b.0) })
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            V2(unsafe { vld1q_f64(p) })
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            unsafe { vst1q_f64(p, self.0) }
        }
    }

    macro_rules! neon_kernel {
        ($wrapper:ident, $driver:ident, ($($a:ident: $t:ty),*)) => {
            pub(super) fn $wrapper($($a: $t),*) {
                $driver::<V2>($($a),*)
            }
        };
    }

    neon_kernel!(hadamard, d_hadamard,
        (re: &mut [f64], im: &mut [f64], kr: &[f64], ki: &[f64]));
    neon_kernel!(hadamard_conj, d_hadamard_conj,
        (re: &mut [f64], im: &mut [f64], kr: &[f64], ki: &[f64]));
    neon_kernel!(hadamard_scale, d_hadamard_scale,
        (re: &mut [f64], im: &mut [f64], kr: &[f64], ki: &[f64], scale: f64));
    neon_kernel!(acc_mul_conj, d_acc_mul_conj,
        (gr: &[f64], gi: &[f64], xr: &[f64], xi: &[f64], out_re: &mut [f64], out_im: &mut [f64]));
    neon_kernel!(intensity, d_intensity,
        (re: &[f64], im: &[f64], out: &mut [f64]));
    neon_kernel!(radix2, d_radix2,
        (x: [&[f64]; 4], y: [&mut [f64]; 4], w: &[(f64, f64); 1]));
    neon_kernel!(radix4, d_radix4,
        (x: [&[f64]; 8], y: [&mut [f64]; 8], w: &[(f64, f64); 3], sgn: f64));
    neon_kernel!(radix5, d_radix5,
        (x: [&[f64]; 10], y: [&mut [f64]; 10], w: &[(f64, f64); 4], sgn: f64));
    neon_kernel!(radix8, d_radix8,
        (x: [&[f64]; 16], y: [&mut [f64]; 16], w: &[(f64, f64); 7], sgn: f64));

    /// 2×2 in-register micro-transpose inside 32-wide tiles; edge
    /// remainders fall back to the scalar scatter. Bit-identical to the
    /// scalar transpose (pure data movement).
    pub(super) fn transpose(src: &[f64], n: usize, dst: &mut [f64]) {
        assert_eq!(src.len(), n * n);
        assert_eq!(dst.len(), n * n);
        const TILE: usize = 32;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for rb in (0..n).step_by(TILE) {
            let r_end = (rb + TILE).min(n);
            for cb in (0..n).step_by(TILE) {
                let c_end = (cb + TILE).min(n);
                let mut r = rb;
                while r + 2 <= r_end {
                    let mut c = cb;
                    while c + 2 <= c_end {
                        // SAFETY: r+1 < n and c+1 < n, so every 2-lane
                        // segment below is in bounds.
                        unsafe {
                            let a = vld1q_f64(sp.add(r * n + c));
                            let b = vld1q_f64(sp.add((r + 1) * n + c));
                            vst1q_f64(dp.add(c * n + r), vzip1q_f64(a, b));
                            vst1q_f64(dp.add((c + 1) * n + r), vzip2q_f64(a, b));
                        }
                        c += 2;
                    }
                    for rr in r..r + 2 {
                        for ccol in c..c_end {
                            dst[ccol * n + rr] = src[rr * n + ccol];
                        }
                    }
                    r += 2;
                }
                for rr in r..r_end {
                    for ccol in cb..c_end {
                        dst[ccol * n + rr] = src[rr * n + ccol];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    /// Lengths that exercise full vectors, remainder tails of every
    /// phase, odd lengths, and the paper's native row width.
    const LENGTHS: [usize; 16] = [1, 2, 3, 4, 5, 7, 8, 15, 16, 19, 20, 25, 31, 33, 100, 200];

    fn fill(rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect()
    }

    /// Asserts `got` matches `want` within the table's contract: tail
    /// elements (the last `len % width`) bit-identical, vector-body
    /// elements within ~1 ulp relative when the table fuses, bit-identical
    /// otherwise.
    fn assert_kernel_match(got: &[f64], want: &[f64], table: &KernelTable, what: &str) {
        let n = got.len();
        let tail_start = n - n % table.width;
        for i in 0..n {
            let (g, w) = (got[i], want[i]);
            if i >= tail_start || !table.fma {
                assert!(
                    g.to_bits() == w.to_bits(),
                    "{what}[{i}] (len {n}, table {}): {g:e} not bit-identical to scalar {w:e}",
                    table.name
                );
            } else {
                let tol = 1e-15 * w.abs().max(1.0);
                assert!(
                    (g - w).abs() <= tol,
                    "{what}[{i}] (len {n}, table {}): {g:e} vs scalar {w:e}",
                    table.name
                );
            }
        }
    }

    #[test]
    fn env_kill_switch_values() {
        use crate::envswitch::parse;
        for v in ["off", "OFF", "Off", "0", "false", "False", "FALSE"] {
            assert_eq!(parse(v), Some(false), "{v} should disable SIMD");
        }
        for v in ["on", "1", "ON", "true"] {
            assert_eq!(parse(v), Some(true), "{v} should keep SIMD on");
        }
        // Unrecognised values fall back to the switch default (SIMD on).
        for v in ["", "2", "fast"] {
            assert_eq!(parse(v), None, "{v:?} should not disable SIMD");
        }
    }

    // Mismatched slice lengths must panic on every table — in release
    // builds too — because the fn-pointer fields are `pub` and reachable
    // from safe code; a silent out-of-bounds access would be UB.

    #[test]
    #[should_panic]
    fn hadamard_panics_on_short_kernel_plane() {
        let (mut re, mut im) = (vec![0.0; 8], vec![0.0; 8]);
        (detected().hadamard)(&mut re, &mut im, &[0.0; 7], &[0.0; 8]);
    }

    #[test]
    #[should_panic]
    fn scalar_intensity_panics_on_short_out() {
        let mut out = vec![0.0; 3];
        (SCALAR.intensity)(&[0.0; 4], &[0.0; 4], &mut out);
    }

    #[test]
    #[should_panic]
    fn acc_mul_conj_panics_on_short_accumulator() {
        let (mut or, mut oi) = (vec![0.0; 8], vec![0.0; 7]);
        (detected().acc_mul_conj)(&[0.0; 8], &[0.0; 8], &[0.0; 8], &[0.0; 8], &mut or, &mut oi);
    }

    #[test]
    #[should_panic]
    fn radix2_panics_on_short_output_row() {
        let x = vec![0.0; 8];
        let mut y = [vec![0.0; 8], vec![0.0; 8], vec![0.0; 8], vec![0.0; 7]];
        let mut yi = y.iter_mut().map(|v| v.as_mut_slice());
        (detected().radix2)(
            std::array::from_fn(|_| x.as_slice()),
            std::array::from_fn(|_| yi.next().unwrap()),
            &[(1.0, 0.0)],
        );
    }

    #[test]
    #[should_panic]
    fn radix5_panics_on_short_input_row() {
        let (x, short) = (vec![0.0; 8], vec![0.0; 7]);
        let mut y: Vec<Vec<f64>> = (0..10).map(|_| vec![0.0; 8]).collect();
        let mut yi = y.iter_mut().map(|v| v.as_mut_slice());
        (detected().radix5)(
            std::array::from_fn(|i| {
                if i == 9 {
                    short.as_slice()
                } else {
                    x.as_slice()
                }
            }),
            std::array::from_fn(|_| yi.next().unwrap()),
            &[(1.0, 0.0); 4],
            1.0,
        );
    }

    #[test]
    #[should_panic]
    fn transpose_panics_on_short_dst() {
        let src = vec![0.0; 25];
        let mut dst = vec![0.0; 24];
        (detected().transpose)(&src, 5, &mut dst);
    }

    #[test]
    fn active_is_scalar_or_detected() {
        let a = active();
        assert!(std::ptr::eq(a, &SCALAR) || std::ptr::eq(a, detected()));
        assert!(a.width >= 1);
    }

    #[test]
    fn planar_kernels_match_scalar_across_lengths_and_tails() {
        let t = detected();
        let mut rng = Rng::seed_from(0x51D0);
        for n in LENGTHS {
            let kr = fill(&mut rng, n);
            let ki = fill(&mut rng, n);
            let re0 = fill(&mut rng, n);
            let im0 = fill(&mut rng, n);

            type Case<'a> = (
                &'a str,
                Box<dyn Fn(&KernelTable, &mut [f64], &mut [f64]) + 'a>,
            );
            let cases: [Case; 3] = [
                ("hadamard", Box::new(|t, r, i| (t.hadamard)(r, i, &kr, &ki))),
                (
                    "hadamard_conj",
                    Box::new(|t, r, i| (t.hadamard_conj)(r, i, &kr, &ki)),
                ),
                (
                    "hadamard_scale",
                    Box::new(|t, r, i| (t.hadamard_scale)(r, i, &kr, &ki, 0.37)),
                ),
            ];
            for (name, run) in &cases {
                let (mut gr, mut gi) = (re0.clone(), im0.clone());
                run(t, &mut gr, &mut gi);
                let (mut wr, mut wi) = (re0.clone(), im0.clone());
                run(&SCALAR, &mut wr, &mut wi);
                assert_kernel_match(&gr, &wr, t, &format!("{name}.re"));
                assert_kernel_match(&gi, &wi, t, &format!("{name}.im"));
            }

            let xr = fill(&mut rng, n);
            let xi = fill(&mut rng, n);
            let acc_r = fill(&mut rng, n);
            let acc_i = fill(&mut rng, n);
            let (mut gor, mut goi) = (acc_r.clone(), acc_i.clone());
            (t.acc_mul_conj)(&re0, &im0, &xr, &xi, &mut gor, &mut goi);
            let (mut wor, mut woi) = (acc_r.clone(), acc_i.clone());
            (SCALAR.acc_mul_conj)(&re0, &im0, &xr, &xi, &mut wor, &mut woi);
            assert_kernel_match(&gor, &wor, t, "acc_mul_conj.re");
            assert_kernel_match(&goi, &woi, t, "acc_mul_conj.im");

            let mut gout = vec![0.0; n];
            let mut wout = vec![0.0; n];
            (t.intensity)(&re0, &im0, &mut gout);
            (SCALAR.intensity)(&re0, &im0, &mut wout);
            assert_kernel_match(&gout, &wout, t, "intensity");
        }
    }

    #[test]
    fn transpose_is_bit_identical_at_all_sizes() {
        let t = detected();
        let mut rng = Rng::seed_from(0x7A05);
        // Sizes straddling the 32-tile and the 4/2-lane micro-blocks.
        for n in [1usize, 2, 3, 4, 5, 7, 8, 20, 25, 31, 32, 33, 37, 64, 200] {
            let src = fill(&mut rng, n * n);
            let mut got = vec![0.0; n * n];
            let mut want = vec![0.0; n * n];
            (t.transpose)(&src, n, &mut got);
            (SCALAR.transpose)(&src, n, &mut want);
            for i in 0..n * n {
                assert!(
                    got[i].to_bits() == want[i].to_bits(),
                    "transpose n={n} differs at {i} on table {}",
                    t.name
                );
            }
        }
    }

    /// Runs one radix butterfly on both tables and compares.
    fn check_radix(p: usize, n: usize, rng: &mut Rng) {
        let t = detected();
        let xs: Vec<Vec<f64>> = (0..2 * p).map(|_| fill(rng, n)).collect();
        let w: Vec<(f64, f64)> = (1..p)
            .map(|s| {
                let a = -2.0 * std::f64::consts::PI * s as f64 / (p as f64 * 3.0);
                (a.cos(), a.sin())
            })
            .collect();
        for sgn in [1.0, -1.0] {
            let mut got: Vec<Vec<f64>> = vec![vec![0.0; n]; 2 * p];
            let mut want: Vec<Vec<f64>> = vec![vec![0.0; n]; 2 * p];
            run_radix(t, p, &xs, &mut got, &w, sgn);
            run_radix(&SCALAR, p, &xs, &mut want, &w, sgn);
            for (k, (g, wv)) in got.iter().zip(&want).enumerate() {
                assert_kernel_match(g, wv, t, &format!("radix{p} out[{k}] sgn={sgn}"));
            }
        }
    }

    fn run_radix(
        t: &KernelTable,
        p: usize,
        xs: &[Vec<f64>],
        ys: &mut [Vec<f64>],
        w: &[(f64, f64)],
        sgn: f64,
    ) {
        let mut yi = ys.iter_mut().map(|v| v.as_mut_slice());
        match p {
            2 => (t.radix2)(
                std::array::from_fn(|i| xs[i].as_slice()),
                std::array::from_fn(|_| yi.next().unwrap()),
                &[w[0]],
            ),
            4 => (t.radix4)(
                std::array::from_fn(|i| xs[i].as_slice()),
                std::array::from_fn(|_| yi.next().unwrap()),
                &[w[0], w[1], w[2]],
                sgn,
            ),
            5 => (t.radix5)(
                std::array::from_fn(|i| xs[i].as_slice()),
                std::array::from_fn(|_| yi.next().unwrap()),
                &[w[0], w[1], w[2], w[3]],
                sgn,
            ),
            8 => (t.radix8)(
                std::array::from_fn(|i| xs[i].as_slice()),
                std::array::from_fn(|_| yi.next().unwrap()),
                &[w[0], w[1], w[2], w[3], w[4], w[5], w[6]],
                sgn,
            ),
            _ => unreachable!(),
        }
    }

    #[test]
    fn butterflies_match_scalar_across_lengths_and_tails() {
        let mut rng = Rng::seed_from(0xB0F1);
        for p in [2usize, 4, 5, 8] {
            for n in LENGTHS {
                check_radix(p, n, &mut rng);
            }
        }
    }

    #[test]
    fn scalar_table_reports_exact_contract() {
        assert_eq!(SCALAR.name, "scalar");
        assert_eq!(SCALAR.width, 1);
        assert!(!SCALAR.fma);
    }
}
