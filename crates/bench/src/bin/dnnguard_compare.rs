//! §4.3.2: throughput vs the robustness-aware DNNGuard baseline, for
//! AlexNet / VGG-16 / ResNet-50 with RPS precision sets 4~8 and 4~16 bit.

use tia_bench::banner;
use tia_nn::workload::NetworkSpec;
use tia_quant::PrecisionSet;
use tia_sim::{dnnguard_throughput, Accelerator};

fn main() {
    banner(
        "Sec 4.3.2: 2-in-1 Accelerator vs DNNGuard",
        "DNNGuard modelled charitably (shares our memory system); see docs/ARCHITECTURE.md \"Substitutions\"",
    );
    let mut ours = Accelerator::ours();
    let budget = 4.4 * 1024.0;
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "Network", "DNNGuard FPS", "Ours 4~8 FPS", "Ours 4~16 FPS", "4~8 ratio", "4~16 ratio"
    );
    for net in [
        NetworkSpec::alexnet(),
        NetworkSpec::vgg16(),
        NetworkSpec::resnet50_imagenet(),
    ] {
        let dg = dnnguard_throughput(&net, budget, 1.0);
        let (f48, _) = ours.average_over_set(&net, &PrecisionSet::range(4, 8));
        let (f416, _) = ours.average_over_set(&net, &PrecisionSet::range(4, 16));
        println!(
            "{:<12} {:>14.1} {:>14.1} {:>14.1} {:>9.1}x {:>9.1}x",
            net.name,
            dg,
            f48,
            f416,
            f48 / dg,
            f416 / dg
        );
    }
    println!("\nPaper (Sec 4.3.2): 36.5x/17.9x (AlexNet), 19.3x/9.5x (VGG-16),");
    println!("12.8x/6.4x (ResNet-50) at 4~8 / 4~16 bit. Our charitable DNNGuard");
    println!("model compresses the magnitudes; the orderings (AlexNet > VGG-16 >");
    println!("ResNet-50; 4~8 > 4~16) reproduce.");
}
