//! Geographic placement of network nodes and propagation delays.
//!
//! Nodes live on the globe; link propagation delay is derived from
//! great-circle distance at roughly two-thirds the speed of light (the
//! usual fiber approximation). Continental regions reproduce the geographic
//! mix described for each of the paper's data sets (e.g. "90 % of NLANR
//! hosts are in North America").

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A point on the globe (degrees).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees, range [-90, 90].
    pub lat: f64,
    /// Longitude in degrees, range [-180, 180].
    pub lon: f64,
}

/// Mean Earth radius in kilometers.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// Signal speed in fiber, km per millisecond (~2/3 c).
pub const FIBER_KM_PER_MS: f64 = 200.0;

impl GeoPoint {
    /// Creates a point, clamping latitude and wrapping longitude.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0) % 360.0;
        if lon < 0.0 {
            lon += 360.0;
        }
        GeoPoint {
            lat,
            lon: lon - 180.0,
        }
    }

    /// Great-circle distance to `other` in kilometers (haversine formula).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().min(1.0).asin()
    }

    /// One-way propagation delay to `other` in milliseconds over fiber laid
    /// along the great circle (a lower bound for real paths).
    pub fn propagation_ms(&self, other: &GeoPoint) -> f64 {
        self.distance_km(other) / FIBER_KM_PER_MS
    }
}

/// A rectangular continental region used for random node placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Human-readable name ("north-america", …).
    pub name: &'static str,
    /// Latitude range (degrees).
    pub lat_range: (f64, f64),
    /// Longitude range (degrees).
    pub lon_range: (f64, f64),
}

impl Region {
    /// Samples a uniform random point inside the region.
    pub fn sample(&self, rng: &mut StdRng) -> GeoPoint {
        GeoPoint::new(
            rng.gen_range(self.lat_range.0..self.lat_range.1),
            rng.gen_range(self.lon_range.0..self.lon_range.1),
        )
    }
}

/// North America (contiguous US / southern Canada band).
pub const NORTH_AMERICA: Region = Region {
    name: "north-america",
    lat_range: (30.0, 50.0),
    lon_range: (-122.0, -72.0),
};
/// Western / central Europe.
pub const EUROPE: Region = Region {
    name: "europe",
    lat_range: (38.0, 58.0),
    lon_range: (-8.0, 25.0),
};
/// East / south-east Asia.
pub const ASIA: Region = Region {
    name: "asia",
    lat_range: (5.0, 42.0),
    lon_range: (95.0, 140.0),
};
/// South America.
pub const SOUTH_AMERICA: Region = Region {
    name: "south-america",
    lat_range: (-35.0, 5.0),
    lon_range: (-72.0, -40.0),
};
/// Australia / Oceania.
pub const OCEANIA: Region = Region {
    name: "oceania",
    lat_range: (-40.0, -15.0),
    lon_range: (115.0, 153.0),
};

/// All five modeled continental regions, in a fixed order.
pub const ALL_REGIONS: [Region; 5] = [NORTH_AMERICA, EUROPE, ASIA, SOUTH_AMERICA, OCEANIA];

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn distance_zero_to_self() {
        let p = GeoPoint::new(40.0, -75.0);
        assert_eq!(p.distance_km(&p), 0.0);
        assert_eq!(p.propagation_ms(&p), 0.0);
    }

    #[test]
    fn distance_symmetric() {
        let a = GeoPoint::new(40.0, -75.0); // ~Philadelphia
        let b = GeoPoint::new(51.5, 0.0); // ~London
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn known_distance_philadelphia_london() {
        let phl = GeoPoint::new(39.95, -75.17);
        let lon = GeoPoint::new(51.51, -0.13);
        let d = phl.distance_km(&lon);
        // True great-circle distance is ~5,700 km.
        assert!((5500.0..5900.0).contains(&d), "distance {d}");
        // One-way fiber propagation ~28 ms; round trip of the order of 60–90 ms
        // matches transatlantic RTTs once routing overhead is added.
        let ms = phl.propagation_ms(&lon);
        assert!((26.0..31.0).contains(&ms), "propagation {ms} ms");
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = a.distance_km(&b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "distance {d} vs {half}");
    }

    #[test]
    fn triangle_inequality_of_great_circle() {
        // Great-circle distance is a metric; the *network* violates the
        // triangle inequality only through routing policy, never geometry.
        let a = GeoPoint::new(40.0, -75.0);
        let b = GeoPoint::new(48.0, 2.0);
        let c = GeoPoint::new(35.0, 139.0);
        assert!(a.distance_km(&c) <= a.distance_km(&b) + b.distance_km(&c) + 1e-9);
    }

    #[test]
    fn constructor_clamps() {
        let p = GeoPoint::new(95.0, 200.0);
        assert_eq!(p.lat, 90.0);
        assert!((-180.0..=180.0).contains(&p.lon));
    }

    #[test]
    fn region_sampling_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for region in ALL_REGIONS {
            for _ in 0..50 {
                let p = region.sample(&mut rng);
                assert!(p.lat >= region.lat_range.0 && p.lat <= region.lat_range.1);
                assert!(p.lon >= region.lon_range.0 && p.lon <= region.lon_range.1);
            }
        }
    }

    #[test]
    fn regions_are_far_apart() {
        // Sanity: inter-region distances dominate intra-region ones.
        let center = |r: &Region| {
            GeoPoint::new(
                (r.lat_range.0 + r.lat_range.1) / 2.0,
                (r.lon_range.0 + r.lon_range.1) / 2.0,
            )
        };
        let na = center(&NORTH_AMERICA);
        let eu = center(&EUROPE);
        let asia = center(&ASIA);
        assert!(na.distance_km(&eu) > 5000.0);
        assert!(na.distance_km(&asia) > 8000.0);
        assert!(eu.distance_km(&asia) > 7000.0);
    }
}
