//! FFT plans: per-length precomputation (twiddle factors, bit-reversal
//! permutations, Bluestein chirps) reused across many transforms.

use photonn_math::Complex64;

use crate::bluestein::Bluestein;
use crate::mixed::MixedRadix;
use crate::radix2::Radix2;

#[derive(Debug)]
enum Engine {
    /// n == 1.
    Identity,
    /// Iterative in-place radix-2 for powers of two.
    Radix2(Radix2),
    /// Recursive mixed-radix Cooley–Tukey for smooth composites.
    Mixed(MixedRadix),
    /// Chirp-z transform for lengths with a large prime factor.
    Bluestein(Bluestein),
}

/// A reusable FFT plan for a fixed transform length.
///
/// Forward transforms use the engineering sign convention
/// `X[k] = Σ x[j]·exp(-2πi·jk/n)` (unnormalized); [`Fft::inverse`] applies
/// the `1/n` factor so `inverse(forward(x)) == x`.
///
/// # Examples
///
/// ```
/// use photonn_fft::Fft;
/// use photonn_math::Complex64;
///
/// let fft = Fft::new(8);
/// let mut data = vec![Complex64::ZERO; 8];
/// data[0] = Complex64::ONE; // unit impulse
/// fft.forward(&mut data);
/// // The spectrum of an impulse is flat.
/// assert!(data.iter().all(|z| (*z - Complex64::ONE).norm() < 1e-12));
/// ```
#[derive(Debug)]
pub struct Fft {
    n: usize,
    engine: Engine,
}

impl Fft {
    /// Plans a transform of length `n`, selecting the engine
    /// automatically: identity for `n == 1`, iterative radix-2 for powers
    /// of two, recursive mixed-radix for smooth composites (every prime
    /// factor ≤ 61), and Bluestein's chirp-z algorithm for anything with a
    /// larger prime factor — the fallback is automatic, so no length ever
    /// reaches the mixed-radix engine's internal prime limit.
    ///
    /// ```
    /// use photonn_fft::Fft;
    /// use photonn_math::Complex64;
    ///
    /// // 134 = 2·67 has a prime factor past the mixed-radix limit; the
    /// // plan transparently uses Bluestein and still round-trips.
    /// let fft = Fft::new(134);
    /// let input: Vec<Complex64> = (0..134).map(|j| Complex64::new(j as f64, 0.0)).collect();
    /// let mut buf = input.clone();
    /// fft.forward(&mut buf);
    /// fft.inverse(&mut buf);
    /// assert!(buf.iter().zip(&input).all(|(a, b)| (*a - *b).norm() < 1e-9));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let engine = if n == 1 {
            Engine::Identity
        } else if n.is_power_of_two() {
            Engine::Radix2(Radix2::new(n))
        } else if MixedRadix::supports(n) {
            Engine::Mixed(MixedRadix::new(n))
        } else {
            Engine::Bluestein(Bluestein::new(n))
        };
        Fft { n, engine }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: a plan has length at least 1 (provided for
    /// completeness alongside [`Fft::len`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place unnormalized forward DFT.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "buffer length != plan length");
        match &self.engine {
            Engine::Identity => {}
            Engine::Radix2(r) => r.process(data),
            Engine::Mixed(m) => m.process(data),
            Engine::Bluestein(b) => b.process(data),
        }
    }

    /// In-place inverse DFT including the `1/n` normalization, so that
    /// `inverse ∘ forward` is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.inverse_unnormalized(data);
        let s = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(s);
        }
    }

    /// In-place inverse DFT *without* the `1/n` factor. This is exactly the
    /// adjoint (conjugate transpose) of [`Fft::forward`], which is what
    /// reverse-mode differentiation of an FFT needs.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse_unnormalized(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "buffer length != plan length");
        // ifft(x) = conj(fft(conj(x))) — avoids a second twiddle table.
        for z in data.iter_mut() {
            *z = z.conj();
        }
        self.forward(data);
        for z in data.iter_mut() {
            *z = z.conj();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{assert_spectra_close, naive_dft};

    #[test]
    fn plan_picks_engines() {
        assert!(matches!(Fft::new(1).engine, Engine::Identity));
        assert!(matches!(Fft::new(256).engine, Engine::Radix2(_)));
        assert!(matches!(Fft::new(200).engine, Engine::Mixed(_)));
        assert!(matches!(
            Fft::new(6),
            Fft {
                engine: Engine::Mixed(_),
                ..
            }
        ));
        // 127 is prime and > 61 → Bluestein.
        assert!(matches!(Fft::new(127).engine, Engine::Bluestein(_)));
        // 61 is exactly the mixed-radix prime limit; 67 is past it.
        assert!(matches!(Fft::new(61).engine, Engine::Mixed(_)));
        assert!(matches!(Fft::new(67).engine, Engine::Bluestein(_)));
    }

    #[test]
    fn large_prime_factors_fall_back_to_bluestein_automatically() {
        // Composite lengths with one factor past MixedRadix::MAX_PRIME
        // must never reach the mixed-radix constructor (whose internal
        // assert says "use Bluestein") — `Fft::new` does that rerouting.
        for n in [2 * 67, 3 * 71, 5 * 101, 2 * 2 * 127] {
            assert!(!MixedRadix::supports(n), "{n} should exceed the limit");
            let fft = Fft::new(n);
            assert!(
                matches!(fft.engine, Engine::Bluestein(_)),
                "{n} should plan as Bluestein"
            );
            // And the fallback engine is actually correct at that length.
            let input: Vec<Complex64> = (0..n)
                .map(|j| Complex64::new((j as f64 * 0.77).sin(), (j as f64 * 0.13).cos()))
                .collect();
            let mut got = input.clone();
            fft.forward(&mut got);
            assert_spectra_close(&got, &naive_dft(&input), 1e-9, &format!("bluestein n={n}"));
        }
    }

    #[test]
    fn mixed_radix_supports_matches_factor_limit() {
        assert!(!MixedRadix::supports(0));
        assert!(!MixedRadix::supports(1)); // identity engine's job
        assert!(MixedRadix::supports(2));
        assert!(MixedRadix::supports(200));
        assert!(MixedRadix::supports(61 * 4));
        assert!(!MixedRadix::supports(67));
        assert!(!MixedRadix::supports(2 * 67));
    }

    #[test]
    fn forward_matches_naive_dft_across_engines() {
        for n in [
            1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 20, 25, 32, 48, 97, 127, 200,
        ] {
            let input: Vec<Complex64> = (0..n)
                .map(|j| Complex64::new((j as f64 * 0.37).sin(), (j as f64 * 0.11).cos()))
                .collect();
            let expected = naive_dft(&input);
            let mut got = input.clone();
            Fft::new(n).forward(&mut got);
            assert_spectra_close(&got, &expected, 1e-9, &format!("n={n}"));
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for n in [2usize, 15, 64, 200, 101] {
            let input: Vec<Complex64> = (0..n)
                .map(|j| Complex64::new(j as f64, -(j as f64) * 0.5))
                .collect();
            let fft = Fft::new(n);
            let mut buf = input.clone();
            fft.forward(&mut buf);
            fft.inverse(&mut buf);
            for (a, b) in buf.iter().zip(&input) {
                assert!((*a - *b).norm() < 1e-9 * n as f64);
            }
        }
    }

    #[test]
    fn inverse_unnormalized_is_adjoint() {
        // <Fx, y> == <x, F^H y> for the unnormalized pair.
        let n = 24;
        let x: Vec<Complex64> = (0..n).map(|j| Complex64::new(j as f64, 1.0)).collect();
        let y: Vec<Complex64> = (0..n).map(|j| Complex64::new(0.5, -(j as f64))).collect();
        let fft = Fft::new(n);
        let mut fx = x.clone();
        fft.forward(&mut fx);
        let mut fhy = y.clone();
        fft.inverse_unnormalized(&mut fhy);
        let lhs: Complex64 = fx.iter().zip(&y).map(|(a, b)| *a * b.conj()).sum();
        let rhs: Complex64 = x.iter().zip(&fhy).map(|(a, b)| *a * b.conj()).sum();
        assert!((lhs - rhs).norm() < 1e-9 * n as f64);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_panics() {
        let _ = Fft::new(0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_panics() {
        let fft = Fft::new(8);
        let mut buf = vec![Complex64::ZERO; 4];
        fft.forward(&mut buf);
    }
}
