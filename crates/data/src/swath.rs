//! Satellite swath simulator.
//!
//! MISR-like instruments cover "stripes" of the earth while the planet
//! rotates underneath (paper §3.1, Figure 1), so the observations belonging
//! to one grid cell end up scattered across many stripe files, out of
//! spatial order. This module synthesizes that acquisition geometry: each
//! orbit pass lays a swath of observations along a ground track, the track
//! shifting westward per orbit; every observation's attribute vector is
//! drawn from the deterministic per-cell mixture, so the *same* cell
//! distribution is observable whether data is read from stripes or
//! generated directly (which is what lets the binner be validated).
//!
//! Stripe file layout (little-endian):
//!
//! ```text
//! magic   8 B  "PMKMSW01"
//! dim     4 B  u32 attributes per observation
//! count   8 B  u64 observations
//! records count × (2 + dim) × 8 B   lat, lon, attrs…
//! ```

use crate::codec::LeCursor;
use crate::error::{DataError, Result};
use crate::grid::GridCell;
use crate::mixture::Mixture;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Stripe file magic.
pub const STRIPE_MAGIC: [u8; 8] = *b"PMKMSW01";

/// One observation: a ground position plus its measured attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Attribute vector (radiances etc.).
    pub attrs: Vec<f64>,
}

/// Swath acquisition geometry and attribute model parameters.
#[derive(Debug, Clone)]
pub struct SwathConfig {
    /// Number of orbit passes to simulate.
    pub orbits: usize,
    /// Cross-track swath width in degrees of longitude (MISR ≈ 3.3°).
    pub swath_width_deg: f64,
    /// Along-track sampling step in degrees of latitude.
    pub along_track_step_deg: f64,
    /// Samples across the swath at each along-track step.
    pub cross_track_samples: usize,
    /// Simulated latitude band (min, max), degrees.
    pub lat_range: (f64, f64),
    /// Westward shift of the ground track per orbit (earth rotation during
    /// one ~99-minute orbit ≈ 24.7°).
    pub lon_shift_per_orbit_deg: f64,
    /// Attributes per observation (the paper uses 6).
    pub attrs_dim: usize,
    /// Mixture components per cell's attribute distribution.
    pub components_per_cell: usize,
    /// Base seed; per-cell attribute models derive from `(seed, cell)`.
    pub seed: u64,
}

impl Default for SwathConfig {
    fn default() -> Self {
        Self {
            orbits: 4,
            swath_width_deg: 3.3,
            along_track_step_deg: 0.25,
            cross_track_samples: 8,
            lat_range: (-70.0, 70.0),
            lon_shift_per_orbit_deg: 24.7,
            attrs_dim: 6,
            components_per_cell: 6,
            seed: 0,
        }
    }
}

impl SwathConfig {
    fn validate(&self) -> Result<()> {
        if self.orbits == 0 || self.cross_track_samples == 0 || self.attrs_dim == 0 {
            return Err(DataError::Invalid(
                "orbits, cross_track_samples and attrs_dim must be >= 1".into(),
            ));
        }
        if !(self.along_track_step_deg > 0.0 && self.swath_width_deg > 0.0) {
            return Err(DataError::Invalid("steps and widths must be positive".into()));
        }
        if self.lat_range.0 >= self.lat_range.1 {
            return Err(DataError::Invalid("empty latitude range".into()));
        }
        Ok(())
    }
}

/// The simulator. Caches per-cell attribute mixtures so repeated coverage of
/// a cell samples one consistent distribution.
pub struct SwathSimulator {
    cfg: SwathConfig,
    cell_models: HashMap<GridCell, Mixture>,
}

impl SwathSimulator {
    /// Creates a simulator after validating the config.
    pub fn new(cfg: SwathConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Self { cfg, cell_models: HashMap::new() })
    }

    /// The deterministic attribute mixture of a cell (derived from
    /// `(seed, cell.index())`, MISR-like radiance ranges).
    pub fn cell_mixture(&mut self, cell: GridCell) -> Result<&Mixture> {
        let cfg = &self.cfg;
        if let std::collections::hash_map::Entry::Vacant(e) = self.cell_models.entry(cell) {
            let seed = pmkm_core::seeding::derive_seed(cfg.seed, cell.index() as u64);
            e.insert(Mixture::random(
                cfg.attrs_dim,
                cfg.components_per_cell,
                0.0..800.0,
                5.0..40.0,
                seed,
            )?);
        }
        Ok(&self.cell_models[&cell])
    }

    /// Simulates one orbit pass, producing observations along the ground
    /// track in acquisition order (south→north, west→east across the swath).
    pub fn simulate_orbit(&mut self, orbit: usize) -> Result<Vec<Observation>> {
        if orbit >= self.cfg.orbits {
            return Err(DataError::Invalid(format!(
                "orbit {orbit} out of range 0..{}",
                self.cfg.orbits
            )));
        }
        let cfg = self.cfg.clone();
        let mut rng = StdRng::seed_from_u64(pmkm_core::seeding::derive_seed(
            cfg.seed,
            0x4F52_4249_5400 | orbit as u64, // "ORBIT" | orbit
        ));
        let mut bm = crate::gaussian::BoxMuller::new();
        let track_lon = -180.0 + (orbit as f64 * cfg.lon_shift_per_orbit_deg).rem_euclid(360.0);
        let mut out = Vec::new();
        let mut lat = cfg.lat_range.0;
        let mut attr_buf = vec![0.0; cfg.attrs_dim];
        while lat <= cfg.lat_range.1 {
            for s in 0..cfg.cross_track_samples {
                let frac = if cfg.cross_track_samples == 1 {
                    0.5
                } else {
                    s as f64 / (cfg.cross_track_samples - 1) as f64
                };
                // Cross-track offset plus a little pointing jitter.
                let lon =
                    track_lon + (frac - 0.5) * cfg.swath_width_deg + rng.gen_range(-0.01..0.01);
                let jlat = lat + rng.gen_range(-0.01..0.01);
                let cell = GridCell::containing(jlat, lon)?;
                let mixture = self.cell_mixture(cell)?;
                mixture.sample_into(&mut rng, &mut bm, &mut attr_buf);
                out.push(Observation { lat: jlat, lon, attrs: attr_buf.clone() });
            }
            lat += cfg.along_track_step_deg;
        }
        Ok(out)
    }

    /// Simulates every orbit and writes one stripe file per orbit into
    /// `dir`, returning the file paths in orbit order.
    pub fn write_stripes(&mut self, dir: &Path) -> Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(self.cfg.orbits);
        for orbit in 0..self.cfg.orbits {
            let obs = self.simulate_orbit(orbit)?;
            let path = dir.join(format!("stripe_{orbit:04}.sw"));
            write_stripe(&path, self.cfg.attrs_dim, &obs)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// The configured attribute dimensionality.
    pub fn attrs_dim(&self) -> usize {
        self.cfg.attrs_dim
    }
}

/// Writes observations to a stripe file.
pub fn write_stripe(path: &Path, dim: usize, obs: &[Observation]) -> Result<()> {
    let mut buf = Vec::with_capacity(20 + obs.len() * (2 + dim) * 8);
    buf.extend_from_slice(&STRIPE_MAGIC);
    buf.extend_from_slice(&(dim as u32).to_le_bytes());
    buf.extend_from_slice(&(obs.len() as u64).to_le_bytes());
    for o in obs {
        if o.attrs.len() != dim {
            return Err(DataError::Invalid(format!(
                "observation has {} attrs, stripe declares {dim}",
                o.attrs.len()
            )));
        }
        buf.extend_from_slice(&o.lat.to_le_bytes());
        buf.extend_from_slice(&o.lon.to_le_bytes());
        for a in &o.attrs {
            buf.extend_from_slice(&a.to_le_bytes());
        }
    }
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Reads a stripe file fully.
pub fn read_stripe(path: &Path) -> Result<Vec<Observation>> {
    let mut r = BufReader::new(File::open(path)?);
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    if raw.len() < 20 {
        return Err(DataError::Format("stripe shorter than header".into()));
    }
    let mut cur = LeCursor::new(&raw);
    if cur.array() != STRIPE_MAGIC {
        return Err(DataError::Format("bad magic; not a PMKMSW01 stripe".into()));
    }
    let dim = cur.u32() as usize;
    let count = cur.u64() as usize;
    // The payload length check bounds `count` by the file size before
    // anything is allocated for it.
    let expect = dim
        .checked_add(2)
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| n.checked_mul(count))
        .ok_or_else(|| DataError::Format("stripe payload size overflows".into()))?;
    if cur.rest().len() != expect {
        return Err(DataError::Format(format!(
            "stripe payload is {} bytes, header promises {expect}",
            cur.rest().len()
        )));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let lat = cur.f64();
        let lon = cur.f64();
        let attrs: Vec<f64> = (0..dim).map(|_| cur.f64()).collect();
        out.push(Observation { lat, lon, attrs });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SwathConfig {
        SwathConfig {
            orbits: 3,
            swath_width_deg: 2.0,
            along_track_step_deg: 1.0,
            cross_track_samples: 4,
            lat_range: (-5.0, 5.0),
            attrs_dim: 3,
            components_per_cell: 2,
            seed: 77,
            ..SwathConfig::default()
        }
    }

    #[test]
    fn orbit_produces_expected_sample_count() {
        let mut sim = SwathSimulator::new(small_cfg()).unwrap();
        let obs = sim.simulate_orbit(0).unwrap();
        // 11 along-track steps (-5..=5) × 4 cross-track samples.
        assert_eq!(obs.len(), 11 * 4);
        for o in &obs {
            assert_eq!(o.attrs.len(), 3);
            assert!(o.lat >= -5.1 && o.lat <= 5.1);
        }
    }

    #[test]
    fn orbits_shift_in_longitude() {
        let mut sim = SwathSimulator::new(small_cfg()).unwrap();
        let a = sim.simulate_orbit(0).unwrap();
        let b = sim.simulate_orbit(1).unwrap();
        let mean_lon = |v: &[Observation]| v.iter().map(|o| o.lon).sum::<f64>() / v.len() as f64;
        let shift = mean_lon(&b) - mean_lon(&a);
        assert!((shift - 24.7).abs() < 0.5, "shift = {shift}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let mut s1 = SwathSimulator::new(small_cfg()).unwrap();
        let mut s2 = SwathSimulator::new(small_cfg()).unwrap();
        assert_eq!(s1.simulate_orbit(2).unwrap(), s2.simulate_orbit(2).unwrap());
    }

    #[test]
    fn out_of_range_orbit_is_error() {
        let mut sim = SwathSimulator::new(small_cfg()).unwrap();
        assert!(sim.simulate_orbit(3).is_err());
    }

    #[test]
    fn stripe_file_round_trips() {
        let dir = std::env::temp_dir().join("pmkm_swath_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.sw");
        let obs = vec![
            Observation { lat: 1.0, lon: 2.0, attrs: vec![3.0, 4.0] },
            Observation { lat: -1.0, lon: -2.0, attrs: vec![5.0, 6.0] },
        ];
        write_stripe(&path, 2, &obs).unwrap();
        assert_eq!(read_stripe(&path).unwrap(), obs);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stripe_header_whose_payload_size_overflows_is_a_format_error() {
        let dir = std::env::temp_dir().join("pmkm_swath_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hostile.sw");
        // Magic, dim 0, count 2^60: 2^60 points of 16 bytes overflow usize.
        let mut bytes = STRIPE_MAGIC.to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 60).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_stripe(&path), Err(DataError::Format(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stripe_write_rejects_ragged_attrs() {
        let dir = std::env::temp_dir().join("pmkm_swath_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.sw");
        let obs = vec![Observation { lat: 0.0, lon: 0.0, attrs: vec![1.0] }];
        assert!(write_stripe(&path, 2, &obs).is_err());
    }

    #[test]
    fn write_stripes_creates_one_file_per_orbit() {
        let dir = std::env::temp_dir().join(format!("pmkm_swath_{}", std::process::id()));
        let mut sim = SwathSimulator::new(small_cfg()).unwrap();
        let paths = sim.write_stripes(&dir).unwrap();
        assert_eq!(paths.len(), 3);
        for p in &paths {
            assert!(!read_stripe(p).unwrap().is_empty());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cell_mixture_is_cached_and_consistent() {
        let mut sim = SwathSimulator::new(small_cfg()).unwrap();
        let cell = GridCell::new(90, 180).unwrap();
        let a = sim.cell_mixture(cell).unwrap().sample_dataset(5, 1).unwrap();
        let b = sim.cell_mixture(cell).unwrap().sample_dataset(5, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn config_validation() {
        assert!(SwathSimulator::new(SwathConfig { orbits: 0, ..small_cfg() }).is_err());
        assert!(
            SwathSimulator::new(SwathConfig { along_track_step_deg: 0.0, ..small_cfg() }).is_err()
        );
        assert!(SwathSimulator::new(SwathConfig { lat_range: (5.0, -5.0), ..small_cfg() }).is_err());
    }
}
