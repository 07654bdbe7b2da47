//! Table 5: stronger attacks — AutoAttack(APGD), CW-∞ and Bandits at
//! ε = 8/255 and 12/255 on PGD-7 (± RPS) trained models.

use tia_attack::{Apgd, Attack, Bandits, CwInf};
use tia_bench::{banner, default_rps_set, pct, train_model, Arch, Scale, EPS_CIFAR};
use tia_core::{robust_accuracy, AdvMethod, PrecisionPolicy};
use tia_data::DatasetProfile;
use tia_tensor::SeededRng;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Table 5: stronger attacks on CIFAR-10-like (PGD-7 vs PGD-7+RPS)",
        "AutoAttack represented by its APGD-CE core; see docs/ARCHITECTURE.md \"Substitutions\"",
    );
    let profile = DatasetProfile::cifar10_like();
    for arch in [Arch::PreActResNet18, Arch::WideResNet32] {
        println!("\n--- {} ---", arch.name());
        println!("{:<22} {:>10} {:>12}", "Attack", "PGD-7", "PGD-7+RPS");
        let (mut base, test) = train_model(
            &profile,
            arch,
            AdvMethod::Pgd { steps: 7 },
            None,
            EPS_CIFAR,
            scale,
            42,
        );
        let set = default_rps_set();
        let (mut rps, _) = train_model(
            &profile,
            arch,
            AdvMethod::Pgd { steps: 7 },
            Some(set.clone()),
            EPS_CIFAR,
            scale,
            42,
        );
        let eval = test.take(scale.eval / 2);
        for eps_mult in [1.0f32, 1.5] {
            let eps = EPS_CIFAR * eps_mult; // 8/255 and 12/255
            let attacks: Vec<Box<dyn Attack>> = vec![
                Box::new(Apgd::new(eps, 20)),
                Box::new(CwInf::new(eps, 20)),
                Box::new(Bandits::new(eps, 20)),
            ];
            for attack in attacks {
                let mut rng = SeededRng::new(7);
                let fixed = PrecisionPolicy::Fixed(None);
                let acc_base = robust_accuracy(
                    &mut base,
                    &eval,
                    attack.as_ref(),
                    &fixed,
                    &fixed,
                    12,
                    &mut rng,
                );
                let policy = PrecisionPolicy::Random(set.clone());
                let acc_rps = robust_accuracy(
                    &mut rps,
                    &eval,
                    attack.as_ref(),
                    &policy,
                    &policy,
                    12,
                    &mut rng,
                );
                println!(
                    "{:<22} {:>10} {:>12}",
                    format!("{} (e={:.0}/255)", attack.name(), eps * 255.0),
                    pct(acc_base),
                    pct(acc_rps)
                );
            }
        }
    }
    println!("\nPaper (Tab.5): RPS adds +6.9~9.1 (AutoAttack), +10.0~18.9 (CW-Inf),");
    println!("+5.0~24.5 (Bandits) points of robust accuracy.");
}
