//! Aggregated network-level performance reports.

use tia_accel::PrecisionPair;
use tia_dataflow::PerfReport;

/// Performance of one network at one precision on one accelerator.
#[derive(Debug, Clone)]
pub struct NetworkPerf {
    /// Accelerator name.
    pub accelerator: String,
    /// Network name.
    pub network: String,
    /// Execution precision.
    pub precision: PrecisionPair,
    /// Total cycles for one inference (batch 1).
    pub total_cycles: f64,
    /// Pure compute cycles.
    pub compute_cycles: f64,
    /// Frames per second at the configured clock.
    pub fps: f64,
    /// Energy per inference split by level `[DRAM, SRAM, NoC, RF]`.
    pub mem_energy: [f64; 4],
    /// MAC energy per inference.
    pub mac_energy: f64,
}

impl NetworkPerf {
    /// Aggregates per-layer reports.
    pub fn from_layers(
        accelerator: impl Into<String>,
        network: impl Into<String>,
        precision: PrecisionPair,
        freq_ghz: f64,
        layers: &[PerfReport],
    ) -> Self {
        let total_cycles: f64 = layers.iter().map(|l| l.total_cycles).sum();
        let compute_cycles: f64 = layers.iter().map(|l| l.compute_cycles).sum();
        let mut mem_energy = [0.0f64; 4];
        for l in layers {
            for (acc, &e) in mem_energy.iter_mut().zip(&l.mem_energy) {
                *acc += e;
            }
        }
        let mac_energy = layers.iter().map(|l| l.mac_energy).sum();
        Self {
            accelerator: accelerator.into(),
            network: network.into(),
            precision,
            total_cycles,
            compute_cycles,
            fps: freq_ghz * 1e9 / total_cycles.max(1.0),
            mem_energy,
            mac_energy,
        }
    }

    /// Total energy per inference.
    pub fn total_energy(&self) -> f64 {
        self.mem_energy.iter().sum::<f64>() + self.mac_energy
    }

    /// Fraction of cycles lost to memory stalls.
    pub fn stall_fraction(&self) -> f64 {
        (self.total_cycles - self.compute_cycles).max(0.0) / self.total_cycles.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_layer(cycles: f64) -> PerfReport {
        PerfReport {
            total_cycles: cycles,
            compute_cycles: cycles * 0.8,
            stall_cycles: cycles * 0.2,
            bits_moved: [1.0; 4],
            mem_energy: [4.0, 2.0, 1.0, 1.0],
            mac_energy: 2.0,
            utilization: 1.0,
        }
    }

    #[test]
    fn aggregation_sums_layers() {
        let p = NetworkPerf::from_layers(
            "A",
            "N",
            PrecisionPair::symmetric(8),
            1.0,
            &[fake_layer(100.0), fake_layer(300.0)],
        );
        assert_eq!(p.total_cycles, 400.0);
        assert_eq!(p.mem_energy, [8.0, 4.0, 2.0, 2.0]);
        assert_eq!(p.mac_energy, 4.0);
        assert!((p.total_energy() - 20.0).abs() < 1e-9);
        assert!((p.fps - 2.5e6).abs() < 1.0);
        assert!((p.stall_fraction() - 0.2).abs() < 1e-9);
    }
}
