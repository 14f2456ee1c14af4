//! Physical system geometry of a DONN: grid resolution, pixel pitch,
//! wavelength and inter-plane distances.

/// The paper's wavelength: a 532 nm green laser.
pub const PAPER_WAVELENGTH: f64 = 532e-9;
/// The paper's diffractive-pixel pitch: 36 µm.
pub const PAPER_PIXEL_PITCH: f64 = 36e-6;
/// The paper's grid resolution: 200 × 200 pixels per layer.
pub const PAPER_GRID: usize = 200;
/// The paper's uniform plane spacing: 27.94 cm between source, layers and
/// detector.
pub const PAPER_DISTANCE: f64 = 0.2794;

/// Sampled geometry of one optical plane.
///
/// All distances are in meters. The physical aperture is
/// `grid · pixel_pitch` (720 µm × 720 µm in the paper).
///
/// # Examples
///
/// ```
/// use photonn_optics::Geometry;
///
/// let geom = Geometry::paper();
/// assert_eq!(geom.grid, 200);
/// assert!((geom.aperture() - 7.2e-3).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Geometry {
    /// Number of pixels per side (the plane is `grid × grid`).
    pub grid: usize,
    /// Pixel pitch in meters.
    pub pixel_pitch: f64,
    /// Source wavelength in meters.
    pub wavelength: f64,
}

impl Geometry {
    /// Creates a geometry, validating physical plausibility.
    ///
    /// # Panics
    ///
    /// Panics if `grid == 0`, or pitch/wavelength are not strictly positive
    /// and finite.
    pub fn new(grid: usize, pixel_pitch: f64, wavelength: f64) -> Self {
        assert!(grid > 0, "grid must be non-zero");
        assert!(
            pixel_pitch > 0.0 && pixel_pitch.is_finite(),
            "pixel pitch must be positive and finite"
        );
        assert!(
            wavelength > 0.0 && wavelength.is_finite(),
            "wavelength must be positive and finite"
        );
        Geometry {
            grid,
            pixel_pitch,
            wavelength,
        }
    }

    /// The paper's system: 200 × 200 pixels of 36 µm at 532 nm.
    pub fn paper() -> Self {
        Geometry::new(PAPER_GRID, PAPER_PIXEL_PITCH, PAPER_WAVELENGTH)
    }

    /// A scaled-down system with `grid` pixels per side that keeps the
    /// paper's physical *aperture* (720 µm) and wavelength, so diffraction
    /// angles stay comparable while compute shrinks. Used by the default
    /// (CPU-friendly) experiment configuration.
    pub fn paper_scaled(grid: usize) -> Self {
        assert!(grid > 0, "grid must be non-zero");
        let aperture = PAPER_GRID as f64 * PAPER_PIXEL_PITCH;
        Geometry::new(grid, aperture / grid as f64, PAPER_WAVELENGTH)
    }

    /// Physical side length of the plane in meters.
    pub fn aperture(&self) -> f64 {
        self.grid as f64 * self.pixel_pitch
    }

    /// Wavenumber `k = 2π/λ`.
    pub fn wavenumber(&self) -> f64 {
        std::f64::consts::TAU / self.wavelength
    }

    /// Spatial sampling frequency `1/pitch` (cycles per meter).
    pub fn sampling_frequency(&self) -> f64 {
        1.0 / self.pixel_pitch
    }

    /// The Fresnel number `a²/(λz)` for an aperture half-width `a`;
    /// `≫ 1` means near field, `≪ 1` far field. Useful for choosing between
    /// propagation models.
    pub fn fresnel_number(&self, z: f64) -> f64 {
        let a = self.aperture() / 2.0;
        a * a / (self.wavelength * z)
    }

    /// `true` when the pixel pitch resolves all propagating spatial
    /// frequencies (pitch ≤ λ/2 is *sub*-wavelength; the paper's 36 µm at
    /// 532 nm is far from it, which is why angular-spectrum sampling is
    /// safe).
    pub fn is_subwavelength(&self) -> bool {
        self.pixel_pitch <= self.wavelength / 2.0
    }
}

impl Default for Geometry {
    /// Defaults to the paper's geometry.
    fn default() -> Self {
        Geometry::paper()
    }
}

/// Distances between the planes of a DONN: source → L1, L_i → L_{i+1}, and
/// L_last → detector. The paper uses 27.94 cm uniformly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Distances {
    /// Laser/input plane to the first diffractive layer (m).
    pub source_to_first: f64,
    /// Between consecutive diffractive layers (m).
    pub between_layers: f64,
    /// Last diffractive layer to the detector plane (m).
    pub last_to_detector: f64,
}

impl Distances {
    /// Uniform spacing `z` for all three gaps.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not strictly positive and finite.
    pub fn uniform(z: f64) -> Self {
        assert!(
            z > 0.0 && z.is_finite(),
            "distance must be positive and finite"
        );
        Distances {
            source_to_first: z,
            between_layers: z,
            last_to_detector: z,
        }
    }

    /// The paper's 27.94 cm uniform spacing.
    pub fn paper() -> Self {
        Distances::uniform(PAPER_DISTANCE)
    }

    /// Whether all three gaps are equal (within 1e-12 m), so one transfer
    /// function serves every hop.
    pub fn is_uniform(&self) -> bool {
        (self.source_to_first - self.between_layers).abs() < 1e-12
            && (self.between_layers - self.last_to_detector).abs() < 1e-12
    }
}

impl Default for Distances {
    fn default() -> Self {
        Distances::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let g = Geometry::paper();
        assert_eq!(g.grid, 200);
        assert_eq!(g.pixel_pitch, 36e-6);
        assert_eq!(g.wavelength, 532e-9);
        // Paper: "dimension of each fabricated diffractive layer is
        // 720µm × 720µm" — note the paper's text says 720 µm but
        // 200 × 36 µm = 7.2 mm; we keep the product of the stated numbers.
        assert!((g.aperture() - 200.0 * 36e-6).abs() < 1e-15);
    }

    #[test]
    fn scaled_preserves_aperture() {
        let full = Geometry::paper();
        let small = Geometry::paper_scaled(64);
        assert!((full.aperture() - small.aperture()).abs() < 1e-12);
        assert_eq!(small.grid, 64);
        assert!(small.pixel_pitch > full.pixel_pitch);
    }

    #[test]
    fn wavenumber_and_sampling() {
        let g = Geometry::paper();
        assert!((g.wavenumber() - std::f64::consts::TAU / 532e-9).abs() < 1.0);
        assert!((g.sampling_frequency() - 1.0 / 36e-6).abs() < 1e-6);
        assert!(!g.is_subwavelength());
    }

    #[test]
    fn fresnel_number_regimes() {
        let g = Geometry::paper();
        // At the paper's 27.94 cm the system is moderately near-field.
        let nf = g.fresnel_number(PAPER_DISTANCE);
        assert!(nf > 0.05 && nf < 100.0, "Fresnel number {nf}");
    }

    #[test]
    #[should_panic(expected = "wavelength")]
    fn rejects_bad_wavelength() {
        let _ = Geometry::new(10, 1e-6, -1.0);
    }

    #[test]
    #[should_panic(expected = "distance")]
    fn rejects_bad_distance() {
        let _ = Distances::uniform(0.0);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(Geometry::default(), Geometry::paper());
        assert_eq!(Distances::default(), Distances::paper());
    }
}
