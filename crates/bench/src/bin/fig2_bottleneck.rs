//! Figure 2: the flexibility-vs-performance dilemma of existing
//! precision-scalable accelerators — Bit Fusion vs Stripes throughput
//! across 1–16-bit execution of ResNet-50/ImageNet.

use tia_accel::PrecisionPair;
use tia_bench::banner;
use tia_nn::workload::NetworkSpec;
use tia_sim::Accelerator;

fn main() {
    banner(
        "Figure 2: Bit Fusion vs Stripes, ResNet-50/ImageNet, 1-16 bit",
        "analytical simulator calibrated per docs/ARCHITECTURE.md \"Substitutions\"",
    );
    let net = NetworkSpec::resnet50_imagenet();
    let mut bf = Accelerator::bitfusion();
    let mut st = Accelerator::stripes();
    println!(
        "{:>9} {:>14} {:>14}",
        "Precision", "BitFusion FPS", "Stripes FPS"
    );
    for b in 1..=16u8 {
        let p = PrecisionPair::symmetric(b);
        println!(
            "{:>9} {:>14.2} {:>14.2}",
            format!("{}-bit", b),
            bf.simulate_network(&net, p).fps,
            st.simulate_network(&net, p).fps
        );
    }
    println!("\nPaper (Fig.2): Bit Fusion wins below 8-bit but flatlines across");
    println!("unsupported precisions (3,5,6,7) and collapses above 8-bit;");
    println!("Stripes scales smoothly with precision.");
}
