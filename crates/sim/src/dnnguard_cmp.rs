//! DNNGuard comparison (paper §4.3.2).

use tia_accel::DnnGuardModel;
use tia_nn::workload::NetworkSpec;

/// Area of a fixed 16-bit MAC unit relative to the standard 8-bit reference
/// (quadratic multiplier scaling would give 4x; synthesized 16-bit MACs land
/// near 1.8x once registers/control are included).
const MAC16_AREA: f64 = 1.8;

/// Throughput (FPS) of a DNNGuard-style robustness-aware accelerator
/// running `net`.
///
/// Model (see `tia-accel::DnnGuardModel` docs): a fixed-16-bit MAC array
/// under the same area budget co-executes the target DNN and a ResNet-18
/// class detection network; elastic orchestration taxes the array; weights
/// of both networks stream from DRAM at 16-bit. This models DNNGuard's
/// *structural* costs charitably (it gets our memory system for free), so
/// the measured advantage of the 2-in-1 Accelerator is a lower bound on the
/// paper's published ratios — the orderings across networks and precision
/// sets are what reproduce (docs/ARCHITECTURE.md "Substitutions").
pub fn dnnguard_throughput(net: &NetworkSpec, area_budget: f64, freq_ghz: f64) -> f64 {
    let model = DnnGuardModel::default();
    let units = (area_budget / MAC16_AREA).floor().max(1.0);
    let ppc = units * (1.0 - model.orchestration_tax);
    let detector = NetworkSpec::resnet18_imagenet();
    let work = (net.total_macs() + detector.total_macs()) as f64;
    let compute_cycles = work / ppc.max(1e-9);
    // 16-bit weights of both networks stream from DRAM (batch-1 inference).
    let dram_bytes = (net.total_weights() + detector.total_weights()) as f64 * 2.0;
    let dram_cycles = dram_bytes / 64.0;
    let cycles = compute_cycles.max(dram_cycles);
    freq_ghz * 1e9 / cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_network_runs_faster() {
        let a = dnnguard_throughput(&NetworkSpec::alexnet(), 4.4 * 1024.0, 1.0);
        let v = dnnguard_throughput(&NetworkSpec::vgg16(), 4.4 * 1024.0, 1.0);
        assert!(
            a > v,
            "AlexNet should be faster than VGG-16: {} vs {}",
            a,
            v
        );
    }

    #[test]
    fn detector_and_16bit_cost_throughput() {
        let net = NetworkSpec::alexnet();
        let guarded = dnnguard_throughput(&net, 1024.0, 1.0);
        // An unguarded standard-8-bit array of the same budget, compute only.
        let unguarded = 1.0e9 * 1024.0 / net.total_macs() as f64;
        assert!(guarded < unguarded * 0.5, "{} vs {}", guarded, unguarded);
    }
}
