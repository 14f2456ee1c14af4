//! # photonn-fft
//!
//! From-scratch FFT engines for the `photonn` workspace (the DAC'23
//! roughness-optimization reproduction). Free-space diffraction is computed
//! in the frequency domain (paper Eq. 1), so the FFT is the innermost hot
//! loop of every DONN forward and backward pass.
//!
//! Three scalar 1-D engines are selected automatically by [`Fft::new`]:
//!
//! * **radix-2** — iterative in-place for powers of two (the padded path);
//! * **mixed-radix** — recursive Cooley–Tukey for smooth composites such as
//!   the paper's native 200 = 2³·5² (every prime factor ≤ 61);
//! * **Bluestein** — chirp-z fallback for lengths with larger prime
//!   factors ([`Fft::new`] reroutes automatically; no length errors out).
//!
//! On top of them, [`Fft2`]'s batched execute paths
//! ([`Fft2::forward_batch`], [`Fft2::apply_transfer_batch`]) carry a
//! fourth, *planar vectorized* engine for square grids of side
//! `n = 2^a·5^b`: a self-sorting Stockham pipeline of radix-8/4/2/5 stages
//! whose butterflies combine whole rows of split re/im `f64` planes —
//! contiguous, shuffle-free arithmetic the compiler autovectorizes. It
//! covers every power of two **and** the paper's native 200 grid (plus its
//! double-padded 400), so paper-scale batches never fall back to the
//! scalar per-sample path. The grid alone picks the path: a square side
//! with a prime factor other than 2 and 5 (or a non-square shape) runs the
//! scalar 1-D engines per sample instead.
//!
//! Conventions: forward is the unnormalized engineering DFT
//! `X[k] = Σ x[j]·e^{-2πi jk/n}`; [`Fft::inverse`] carries the `1/n`. The
//! unnormalized inverse (exact adjoint of forward) is exposed separately for
//! reverse-mode autodiff.
//!
//! # Examples
//!
//! ```
//! use photonn_fft::{fft2, ifft2};
//! use photonn_math::{CGrid, Complex64};
//!
//! let field = CGrid::from_fn(8, 8, |r, c| Complex64::new((r + c) as f64, 0.0));
//! let back = ifft2(&fft2(&field));
//! assert!(back.max_abs_diff(&field) < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bluestein;
mod fft2;
mod mixed;
mod plan;
mod radix2;
mod shift;
#[cfg(test)]
mod testing;
mod vecmixed;

pub use fft2::{fft2, ifft2, Fft2};
pub use mixed::factorize;
pub use plan::Fft;
pub use shift::{fftfreq, fftshift, fftshift_real, ifftshift};
