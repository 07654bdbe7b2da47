//! Accelerator micro-architecture configuration.

use tia_accel::{MacKind, MacUnit};

/// A concrete accelerator instance: MAC array + memory hierarchy.
///
/// Comparisons in the paper hold the MAC-array area and memory area equal
/// across designs (§4.1.2), so configs are built from an *area budget*: the
/// unit count is whatever the design's MAC unit area affords.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchConfig {
    /// MAC-unit model.
    pub mac: MacUnit,
    /// Number of MAC units in the array.
    pub units: usize,
    /// Global buffer capacity in bytes.
    pub gb_bytes: usize,
    /// Per-PE register-file capacity in bytes.
    pub rf_bytes: usize,
    /// DRAM bandwidth, bytes/cycle.
    pub dram_bw: f64,
    /// Global-buffer bandwidth, bytes/cycle.
    pub gb_bw: f64,
    /// NoC aggregate bandwidth, bytes/cycle.
    pub noc_bw: f64,
    /// Clock frequency in GHz (28 nm designs in this class run ~1 GHz).
    pub freq_ghz: f64,
}

impl ArchConfig {
    /// Builds a config whose MAC array fills `area_budget` (normalized
    /// units; a standard 8-bit MAC = 1.0) with the given design, and default
    /// Bit-Fusion-class memory parameters (512 KiB global buffer, 512 B RF,
    /// 16 B/cycle DRAM).
    pub fn with_mac_area_budget(kind: MacKind, area_budget: f64) -> Self {
        let mac = MacUnit::new(kind);
        let units = (area_budget / mac.area()).floor().max(1.0) as usize;
        // On-chip bandwidths scale with the array: the global buffer is
        // banked and the NoC wire count grows with the PE count, so a design
        // that affords more (smaller) units also affords wider distribution.
        Self {
            mac,
            units,
            gb_bytes: 512 * 1024,
            rf_bytes: 512,
            dram_bw: 64.0,
            gb_bw: (units as f64 / 8.0).max(128.0),
            noc_bw: (units as f64 / 4.0).max(256.0),
            freq_ghz: 1.0,
        }
    }

    /// The paper's default comparison budget: the area of a 1024-unit Bit
    /// Fusion array (4.4 × 1024 normalized units).
    pub fn paper_budget(kind: MacKind) -> Self {
        Self::with_mac_area_budget(kind, 4.4 * 1024.0)
    }

    /// Overrides the global buffer size (micro-architecture search).
    pub fn with_gb_bytes(mut self, bytes: usize) -> Self {
        self.gb_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total MAC-array area actually used.
    fn mac_array_area(cfg: &ArchConfig) -> f64 {
        cfg.units as f64 * cfg.mac.area()
    }

    #[test]
    fn budget_divides_by_unit_area() {
        let bf = ArchConfig::paper_budget(MacKind::Spatial);
        assert_eq!(bf.units, 1024);
        let ours = ArchConfig::paper_budget(MacKind::spatial_temporal());
        // Smaller unit -> more units under the same budget.
        assert!(ours.units > 8000 && ours.units < 10000, "{}", ours.units);
        let st = ArchConfig::paper_budget(MacKind::Temporal);
        assert!(st.units > bf.units);
    }

    #[test]
    fn areas_match_within_one_unit() {
        for kind in [
            MacKind::Spatial,
            MacKind::Temporal,
            MacKind::spatial_temporal(),
        ] {
            let cfg = ArchConfig::paper_budget(kind);
            let budget = 4.4 * 1024.0;
            assert!(mac_array_area(&cfg) <= budget);
            assert!(mac_array_area(&cfg) >= budget - cfg.mac.area());
        }
    }
}
