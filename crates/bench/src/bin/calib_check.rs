//! Calibration utility: sweeps the attack budget and prints natural/robust
//! accuracy for PGD-7 training with and without RPS, plus a small
//! transferability diagnostic. Used to pick the reduced-scale experiment
//! constants documented in docs/ARCHITECTURE.md "Substitutions"; kept for
//! re-calibration when dataset profiles change.

use tia_attack::Pgd;
use tia_bench::{default_rps_set, pct, train_model, Arch, Scale};
use tia_core::{natural_accuracy, robust_accuracy, transfer_matrix, AdvMethod, PrecisionPolicy};
use tia_data::DatasetProfile;
use tia_quant::Precision;
use tia_tensor::SeededRng;

fn main() {
    let scale = Scale::standard();
    let profile = DatasetProfile::cifar10_like();
    for eps255 in [8.0f32, 12.0, 16.0] {
        let eps = eps255 / 255.0;
        println!("--- eps = {}/255 ---", eps255);
        for rps in [false, true] {
            let set = rps.then(default_rps_set);
            let (mut net, test) = train_model(
                &profile,
                Arch::PreActResNet18,
                AdvMethod::Pgd { steps: 7 },
                set.clone(),
                eps,
                scale,
                42,
            );
            let eval = test.take(scale.eval);
            let mut rng = SeededRng::new(7);
            let policy = match &set {
                Some(s) => PrecisionPolicy::Random(s.clone()),
                None => PrecisionPolicy::Fixed(None),
            };
            let nat = natural_accuracy(&mut net, &eval, &policy, &mut rng);
            let rob = robust_accuracy(
                &mut net,
                &eval,
                &Pgd::new(eps, 20),
                &policy,
                &policy,
                12,
                &mut rng,
            );
            println!("  rps={} natural {} pgd20 {}", rps, pct(nat), pct(rob));
            if rps {
                let ps: Vec<Precision> = [4u8, 8, 16].iter().map(|&b| Precision::new(b)).collect();
                let m = transfer_matrix(
                    &mut net,
                    &eval.take(48),
                    &Pgd::new(eps, 10),
                    &ps,
                    12,
                    &mut rng,
                );
                println!(
                    "  transfer: diag {} offdiag {}",
                    pct(m.diagonal_mean()),
                    pct(m.off_diagonal_mean())
                );
            }
        }
    }
}
