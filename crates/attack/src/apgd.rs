//! APGD: Auto-PGD with momentum and adaptive step halving (Croce & Hein,
//! 2020) — the core white-box component of AutoAttack.
//!
//! This reproduction implements APGD-CE with the paper's momentum rule
//! `z = adv + α·sign(g); adv' = adv + 0.75(z − adv) + 0.25(adv − adv_prev)`
//! and halves the step size whenever a checkpoint window fails to improve
//! the best loss, restarting from the best-so-far point. Multiple random
//! restarts keep the strongest example (per batch). The full AutoAttack
//! suite additionally runs APGD-T/FAB/Square; APGD-CE with restarts is the
//! dominant component against undefended gradients and serves the same
//! "strong adaptive attack" role here (docs/ARCHITECTURE.md "Substitutions").

use crate::model::{LossKind, TargetModel};
use crate::{project, Attack};
use tia_tensor::{SeededRng, Tensor};

/// Auto-PGD with cross-entropy loss.
#[derive(Debug, Clone, Copy)]
pub struct Apgd {
    eps: f32,
    steps: usize,
    restarts: usize,
}

impl Apgd {
    /// Creates APGD-CE with the given budget and iteration count.
    pub fn new(eps: f32, steps: usize) -> Self {
        Self {
            eps,
            steps,
            restarts: 1,
        }
    }

    /// Sets the number of random restarts.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    fn run_once(
        &self,
        model: &mut dyn TargetModel,
        x: &Tensor,
        labels: &[usize],
        rng: &mut SeededRng,
    ) -> Tensor {
        let mut alpha = 2.0 * self.eps;
        let init = Tensor::rand_uniform(x.shape(), -self.eps, self.eps, rng);
        let mut adv = project(x, &x.add(&init), self.eps);
        let mut adv_prev = adv.clone();
        let mut best = adv.clone();
        let mut best_loss = model.loss_value(&adv, labels, LossKind::CrossEntropy);
        // Checkpoint bookkeeping for step halving.
        let window = (self.steps / 5).max(2);
        let mut improved_in_window = 0usize;
        let mut since_checkpoint = 0usize;
        for _ in 0..self.steps {
            let (_, g) = model.loss_and_input_grad(&adv, labels, LossKind::CrossEntropy);
            let z = project(x, &adv.add(&g.map(|v| alpha * v.signum())), self.eps);
            // Momentum combination.
            let mut next = Tensor::zeros(adv.shape());
            for i in 0..next.len() {
                next.data_mut()[i] = adv.data()[i]
                    + 0.75 * (z.data()[i] - adv.data()[i])
                    + 0.25 * (adv.data()[i] - adv_prev.data()[i]);
            }
            let next = project(x, &next, self.eps);
            adv_prev = adv;
            adv = next;
            let l = model.loss_value(&adv, labels, LossKind::CrossEntropy);
            if l > best_loss {
                best_loss = l;
                best = adv.clone();
                improved_in_window += 1;
            }
            since_checkpoint += 1;
            if since_checkpoint >= window {
                // Condition: too few improvements in the window -> halve α and
                // restart from the best point.
                if improved_in_window * 4 < window {
                    alpha *= 0.5;
                    adv = best.clone();
                    adv_prev = best.clone();
                }
                improved_in_window = 0;
                since_checkpoint = 0;
            }
        }
        best
    }
}

impl Attack for Apgd {
    fn name(&self) -> String {
        if self.restarts > 1 {
            format!("AutoAttack(APGD-{}x{})", self.steps, self.restarts)
        } else {
            format!("AutoAttack(APGD-{})", self.steps)
        }
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
        let mut best = self.run_once(model, x, labels, rng);
        let mut best_loss = model.loss_value(&best, labels, LossKind::CrossEntropy);
        for _ in 1..self.restarts {
            let cand = self.run_once(model, x, labels, rng);
            let l = model.loss_value(&cand, labels, LossKind::CrossEntropy);
            if l > best_loss {
                best_loss = l;
                best = cand;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::Fgsm;
    use tia_nn::zoo;

    const EPS: f32 = 8.0 / 255.0;

    #[test]
    fn apgd_stays_in_ball() {
        let mut rng = SeededRng::new(1);
        let mut net = zoo::preact_resnet18_lite(3, 4, 4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let adv = Apgd::new(EPS, 10).perturb(&mut net, &x, &[0, 1], &mut rng);
        assert!(x.sub(&adv).abs_max() <= EPS + 1e-6);
        assert!(adv.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn apgd_at_least_as_strong_as_fgsm() {
        let mut rng = SeededRng::new(2);
        let mut net = zoo::preact_resnet18_lite(3, 4, 4, &mut rng);
        let x = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let labels = vec![0, 1, 2, 3];
        let a_fgsm = Fgsm::new(EPS).perturb(&mut net, &x, &labels, &mut rng);
        let a_apgd = Apgd::new(EPS, 20).perturb(&mut net, &x, &labels, &mut rng);
        let lf = TargetModel::loss_value(&mut net, &a_fgsm, &labels, LossKind::CrossEntropy);
        let la = TargetModel::loss_value(&mut net, &a_apgd, &labels, LossKind::CrossEntropy);
        assert!(
            la >= lf * 0.9,
            "APGD should match or beat FGSM: {} vs {}",
            la,
            lf
        );
    }

    #[test]
    fn names() {
        assert_eq!(Apgd::new(EPS, 50).name(), "AutoAttack(APGD-50)");
        assert_eq!(
            Apgd::new(EPS, 50).with_restarts(3).name(),
            "AutoAttack(APGD-50x3)"
        );
    }
}
