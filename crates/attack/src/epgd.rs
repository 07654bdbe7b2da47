//! E-PGD: the paper's customized adaptive attack (§4.2.3).
//!
//! The adversary is assumed to *know the candidate precision set* of the RPS
//! defense and attacks the ensemble: at every PGD step the input gradient is
//! averaged over the model quantized to **every** precision in the set, so
//! the perturbation is aware of all precisions at once. This is the standard
//! "expectation over transformation" adaptive-attack recipe of Tramer et al.
//! 2020 applied to RPS.

use crate::model::{LossKind, TargetModel};
use crate::{project, Attack};
use tia_quant::PrecisionSet;
use tia_tensor::{SeededRng, Tensor};

/// Ensemble-PGD over a candidate precision set.
#[derive(Debug, Clone)]
pub struct EPgd {
    eps: f32,
    alpha: f32,
    steps: usize,
    set: PrecisionSet,
}

impl EPgd {
    /// Creates E-PGD-`steps` aware of `set`.
    pub fn new(eps: f32, steps: usize, set: PrecisionSet) -> Self {
        Self {
            eps,
            alpha: 2.5 * eps / steps.max(1) as f32,
            steps,
            set,
        }
    }
}

impl Attack for EPgd {
    fn name(&self) -> String {
        format!("E-PGD-{}", self.steps)
    }

    fn epsilon(&self) -> f32 {
        self.eps
    }

    fn perturb(
        &self,
        model: &mut dyn TargetModel,
        x: &Tensor,
        labels: &[usize],
        rng: &mut SeededRng,
    ) -> Tensor {
        let saved = model.precision();
        let init = Tensor::rand_uniform(x.shape(), -self.eps, self.eps, rng);
        let mut adv = project(x, &x.add(&init), self.eps);
        let inv = 1.0 / self.set.len() as f32;
        for _ in 0..self.steps {
            let mut g = Tensor::zeros(x.shape());
            for p in self.set.iter() {
                model.set_precision(Some(p));
                let (_, gi) = model.loss_and_input_grad(&adv, labels, LossKind::CrossEntropy);
                g.axpy(inv, &gi);
            }
            let step = g.map(|v| self.alpha * v.signum());
            adv = project(x, &adv.add(&step), self.eps);
        }
        model.set_precision(saved);
        adv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_nn::zoo;
    use tia_quant::Precision;

    const EPS: f32 = 8.0 / 255.0;

    #[test]
    fn epgd_stays_in_ball_and_restores_precision() {
        let mut rng = SeededRng::new(5);
        let set = PrecisionSet::new(&[4, 8]);
        let mut net = zoo::preact_resnet18_rps(3, 4, 3, set.clone(), &mut rng);
        net.set_precision(Some(Precision::new(8)));
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let adv = EPgd::new(EPS, 5, set).perturb(&mut net, &x, &[0, 1], &mut rng);
        assert!(x.sub(&adv).abs_max() <= EPS + 1e-6);
        assert_eq!(
            net.precision(),
            Some(Precision::new(8)),
            "precision must be restored"
        );
    }

    #[test]
    fn epgd_raises_loss_across_precisions() {
        let mut rng = SeededRng::new(6);
        let set = PrecisionSet::new(&[4, 6, 8]);
        let mut net = zoo::preact_resnet18_rps(3, 6, 3, set.clone(), &mut rng);
        let x = Tensor::rand_uniform(&[3, 3, 8, 8], 0.0, 1.0, &mut rng);
        let labels = vec![0, 1, 2];
        let adv = EPgd::new(EPS, 10, set.clone()).perturb(&mut net, &x, &labels, &mut rng);
        // Averaged over the set, the adversarial loss must exceed clean loss.
        let mut clean = 0.0;
        let mut attacked = 0.0;
        for p in set.iter() {
            net.set_precision(Some(p));
            clean += TargetModel::loss_value(&mut net, &x, &labels, LossKind::CrossEntropy);
            attacked += TargetModel::loss_value(&mut net, &adv, &labels, LossKind::CrossEntropy);
        }
        assert!(
            attacked > clean,
            "E-PGD should raise ensemble loss: {} -> {}",
            clean,
            attacked
        );
    }

    #[test]
    fn name() {
        let set = PrecisionSet::new(&[4, 8]);
        assert_eq!(EPgd::new(EPS, 20, set).name(), "E-PGD-20");
    }
}
