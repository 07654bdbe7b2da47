//! Shared memory-hierarchy energy model.
//!
//! Eyeriss-style relative access energies, expressed per *bit* so that
//! precision scaling falls out naturally (an 8-bit access moves half the
//! bits of a 16-bit access). Normalization matches `mac.rs`: a Bit Fusion
//! 8×8-bit MAC op = 1.0 energy unit. DRAM access is ~200× a MAC at matched
//! width, consistent with the DRAM-dominant energy breakdowns of Fig. 9.

/// A level of the accelerator memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemLevel {
    /// Off-chip DRAM.
    Dram,
    /// On-chip global buffer (SRAM).
    GlobalBuffer,
    /// Network-on-chip transfer (global buffer ↔ PE array).
    Noc,
    /// Per-PE register file.
    Rf,
}

impl MemLevel {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            MemLevel::Dram => "DRAM",
            MemLevel::GlobalBuffer => "SRAM",
            MemLevel::Noc => "NoC",
            MemLevel::Rf => "RF",
        }
    }
}

/// Energy per bit moved at a memory level (normalized units).
pub fn mem_energy_per_bit(level: MemLevel) -> f64 {
    match level {
        MemLevel::Dram => 1.6,
        MemLevel::GlobalBuffer => 0.048,
        MemLevel::Noc => 0.016,
        MemLevel::Rf => 0.008,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All levels, outermost first.
    const MEM_LEVELS: [MemLevel; 4] = [
        MemLevel::Dram,
        MemLevel::GlobalBuffer,
        MemLevel::Noc,
        MemLevel::Rf,
    ];

    #[test]
    fn hierarchy_energy_is_monotone() {
        let e: Vec<f64> = MEM_LEVELS.iter().map(|&l| mem_energy_per_bit(l)).collect();
        for w in e.windows(2) {
            assert!(w[0] > w[1], "outer levels must cost more per bit");
        }
    }

    #[test]
    fn dram_dominates_mac_energy() {
        // A 16-bit DRAM word ~ 25.6 units >> 1.0 MAC unit, consistent with
        // Eyeriss's ~200x at matched operand width.
        assert!(mem_energy_per_bit(MemLevel::Dram) * 16.0 > 20.0);
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<&str> = MEM_LEVELS.iter().map(|l| l.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
