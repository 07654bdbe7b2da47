//! # tia-bench
//!
//! Experiment regenerators: one binary per table/figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index) plus Criterion
//! microbenchmarks.
//!
//! Algorithm-side experiments train reduced-scale models on synthetic data
//! (DESIGN.md "Substitutions"); set `TIA_QUICK=1` to shrink them further for
//! smoke runs. Architecture-side experiments run the full-size layer-shape
//! workloads through the analytical simulator and are fast regardless.

pub mod harness;

use tia_attack::Pgd;
use tia_core::{
    adversarial_train, natural_accuracy, robust_accuracy, AdvMethod, PrecisionPolicy, TrainConfig,
};
use tia_data::{generate, Dataset, DatasetProfile};
use tia_nn::zoo::{preact_resnet, BnKind, PreActResNetConfig};
use tia_nn::Network;
use tia_quant::PrecisionSet;
use tia_tensor::SeededRng;

/// The reproduction's CIFAR-class attack budget. The paper uses ε = 8/255 on
/// natural images; our synthetic classes have wider margins than CIFAR, so ε
/// is scaled 1.5x to keep the attack strength comparable *relative to the
/// class margin* — chosen by the `calib_check` sweep (see EXPERIMENTS.md).
pub const EPS_CIFAR: f32 = 12.0 / 255.0;
/// ImageNet-class budget, scaled from the paper's 4/255 by the same factor.
pub const EPS_IMAGENET: f32 = 6.0 / 255.0;

/// Experiment scale knobs (reduced-scale reproduction; `TIA_QUICK=1`
/// shrinks further for smoke testing).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Training samples.
    pub train: usize,
    /// Test samples generated.
    pub test: usize,
    /// Samples actually evaluated per cell (attacks are expensive).
    pub eval: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Model base width.
    pub width: usize,
}

impl Scale {
    /// Standard reproduction scale (minutes per table).
    pub fn standard() -> Self {
        Self {
            train: 384,
            test: 192,
            eval: 96,
            epochs: 6,
            batch: 24,
            width: 6,
        }
    }

    /// Quick smoke scale (seconds per table).
    pub fn quick() -> Self {
        Self {
            train: 96,
            test: 48,
            eval: 24,
            epochs: 2,
            batch: 16,
            width: 4,
        }
    }

    /// Reads `TIA_QUICK` from the environment.
    pub fn from_env() -> Self {
        if std::env::var("TIA_QUICK").is_ok_and(|v| v != "0" && !v.is_empty()) {
            Self::quick()
        } else {
            Self::standard()
        }
    }
}

/// Model architectures used in the algorithm tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// PreActResNet-18 topology.
    PreActResNet18,
    /// WideResNet-32 (reduced-depth) topology.
    WideResNet32,
    /// ResNet-50-lite topology.
    ResNet50,
}

impl Arch {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::PreActResNet18 => "PreActResNet-18",
            Arch::WideResNet32 => "WideResNet-32",
            Arch::ResNet50 => "ResNet-50",
        }
    }

    /// Builds the (lite) network, plain BN or switchable BN.
    pub fn build(
        &self,
        classes: usize,
        width: usize,
        rps: Option<PrecisionSet>,
        rng: &mut SeededRng,
    ) -> Network {
        let bn = match rps {
            Some(set) => BnKind::Switchable(set),
            None => BnKind::Plain,
        };
        let cfg = match self {
            Arch::PreActResNet18 => PreActResNetConfig::resnet18(3, width, classes, bn),
            Arch::WideResNet32 => PreActResNetConfig::wide_resnet32_lite(3, width, classes, bn),
            Arch::ResNet50 => PreActResNetConfig::resnet50(3, width, classes, bn),
        };
        preact_resnet(&cfg, rng)
    }
}

/// Trains one model (± RPS) on a dataset profile; returns the model and the
/// test set. The RPS precision set follows the paper default 4–16 bit unless
/// overridden.
pub fn train_model(
    profile: &DatasetProfile,
    arch: Arch,
    method: AdvMethod,
    rps: Option<PrecisionSet>,
    eps: f32,
    scale: Scale,
    seed: u64,
) -> (Network, Dataset) {
    let profile = profile.clone().with_sizes(scale.train, scale.test);
    let (train, test) = generate(&profile, seed);
    let mut rng = SeededRng::new(seed ^ 0x5EED);
    let mut net = arch.build(profile.classes, scale.width, rps.clone(), &mut rng);
    let mut cfg = TrainConfig::with_method(method, eps)
        .with_epochs(scale.epochs)
        .with_batch_size(scale.batch)
        .with_seed(seed);
    if let Some(set) = rps {
        cfg = cfg.with_rps(set);
    }
    adversarial_train(&mut net, &train, &cfg);
    (net, test)
}

/// The RPS inference/training set used throughout the tables. The paper
/// trains over every precision in 4~16-bit; at this reproduction's reduced
/// epoch budget each switchable-BN slot must still receive enough updates to
/// converge, so we span the same 4~16-bit range with five slots.
pub fn default_rps_set() -> PrecisionSet {
    PrecisionSet::new(&[4, 6, 8, 12, 16])
}

/// Formats a fraction as `xx.xx` percent.
pub fn pct(x: f32) -> String {
    format!("{:.2}", x * 100.0)
}

/// Prints a standard experiment banner.
pub fn banner(title: &str, substitution_note: &str) {
    println!("================================================================");
    println!("{}", title);
    println!("(reduced-scale reproduction; {})", substitution_note);
    println!("================================================================");
}

/// Runs one of the paper's RPS accuracy tables (Tab. 1–3): natural and
/// PGD-20/PGD-100 robust accuracy for PreActResNet-18 and WideResNet-32
/// under FGSM / FGSM-RS / PGD-7 adversarial training, with and without RPS,
/// on `profile`. `paper_note` is the table's headline result in the paper,
/// printed under the reproduction's numbers.
pub fn run_rps_table(title: &str, profile: &DatasetProfile, paper_note: &str) {
    let scale = Scale::from_env();
    banner(title, "synthetic dataset stands in for the original corpus");
    let methods = [
        AdvMethod::Fgsm,
        AdvMethod::FgsmRs,
        AdvMethod::Pgd { steps: 7 },
    ];
    for arch in [Arch::PreActResNet18, Arch::WideResNet32] {
        println!("\n--- {} ---", arch.name());
        println!(
            "{:<18} {:>9} {:>9} {:>9}",
            "Method", "Natural", "PGD-20", "PGD-100"
        );
        for method in methods {
            for rps in [false, true] {
                let set = rps.then(default_rps_set);
                let (mut net, test) =
                    train_model(profile, arch, method, set.clone(), EPS_CIFAR, scale, 42);
                let eval = test.take(scale.eval);
                let mut rng = SeededRng::new(7);
                let policy = match &set {
                    Some(s) => PrecisionPolicy::Random(s.clone()),
                    None => PrecisionPolicy::Fixed(None),
                };
                let nat = natural_accuracy(&mut net, &eval, &policy, &mut rng);
                let mut robs = vec![];
                for steps in [20usize, 100] {
                    let attack = Pgd::new(EPS_CIFAR, steps);
                    robs.push(robust_accuracy(
                        &mut net, &eval, &attack, &policy, &policy, 12, &mut rng,
                    ));
                }
                let label = if rps {
                    format!("{}+RPS", method.name())
                } else {
                    method.name()
                };
                println!(
                    "{:<18} {:>9} {:>9} {:>9}",
                    label,
                    pct(nat),
                    pct(robs[0]),
                    pct(robs[1])
                );
            }
        }
    }
    println!("\n{paper_note}");
    println!("robust accuracy over each adversarial-training baseline.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales() {
        let s = Scale::standard();
        let q = Scale::quick();
        assert!(s.train > q.train);
        assert!(s.epochs > q.epochs);
    }

    #[test]
    fn arch_names() {
        assert_eq!(Arch::PreActResNet18.name(), "PreActResNet-18");
        assert_eq!(Arch::WideResNet32.name(), "WideResNet-32");
    }

    #[test]
    fn build_all_archs() {
        let mut rng = SeededRng::new(1);
        for a in [Arch::PreActResNet18, Arch::WideResNet32, Arch::ResNet50] {
            let net = a.build(4, 4, None, &mut rng);
            assert!(net.depth() > 5);
        }
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.5123), "51.23");
    }

    #[test]
    fn quick_training_roundtrip() {
        let (mut net, test) = train_model(
            &DatasetProfile::tiny(3, 8, 32, 16),
            Arch::PreActResNet18,
            AdvMethod::Fgsm,
            None,
            EPS_CIFAR,
            Scale {
                train: 32,
                test: 16,
                eval: 8,
                epochs: 1,
                batch: 16,
                width: 4,
            },
            7,
        );
        assert_eq!(test.len(), 16);
        assert!(net.param_count() > 0);
    }
}
