//! First-order white-box attacks: FGSM, FGSM-RS, PGD-k, CW-∞.

use crate::model::{LossKind, TargetModel};
use crate::{project, Attack};
use tia_tensor::{SeededRng, Tensor};

/// Fast Gradient Sign Method (Goodfellow et al., 2014): one signed-gradient
/// step of size ε.
#[derive(Debug, Clone, Copy)]
pub struct Fgsm {
    eps: f32,
}

impl Fgsm {
    /// Creates an FGSM attack with budget `eps`.
    pub fn new(eps: f32) -> Self {
        Self { eps }
    }
}

impl Attack for Fgsm {
    fn name(&self) -> String {
        "FGSM".into()
    }

    fn epsilon(&self) -> f32 {
        self.eps
    }

    fn perturb(
        &self,
        model: &mut dyn TargetModel,
        x: &Tensor,
        labels: &[usize],
        _rng: &mut SeededRng,
    ) -> Tensor {
        let (_, g) = model.loss_and_input_grad(x, labels, LossKind::CrossEntropy);
        let step = g.map(|v| self.eps * v.signum());
        project(x, &x.add(&step), self.eps)
    }
}

/// FGSM with random start (Wong et al., "Fast is better than free", 2020):
/// uniform init in the ε-ball, then one step of size α = 1.25ε.
#[derive(Debug, Clone, Copy)]
pub struct FgsmRs {
    eps: f32,
    alpha: f32,
}

impl FgsmRs {
    /// Creates FGSM-RS with the paper's α = 1.25 ε.
    pub fn new(eps: f32) -> Self {
        Self {
            eps,
            alpha: 1.25 * eps,
        }
    }
}

impl Attack for FgsmRs {
    fn name(&self) -> String {
        "FGSM-RS".into()
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
        let init = Tensor::rand_uniform(x.shape(), -self.eps, self.eps, rng);
        let start = project(x, &x.add(&init), self.eps);
        let (_, g) = model.loss_and_input_grad(&start, labels, LossKind::CrossEntropy);
        let step = g.map(|v| self.alpha * v.signum());
        project(x, &start.add(&step), self.eps)
    }
}

/// Projected Gradient Descent (Madry et al., 2017): `steps` signed-gradient
/// steps with per-step size α, random start, optional restarts keeping the
/// strongest example per restart.
#[derive(Debug, Clone, Copy)]
pub struct Pgd {
    eps: f32,
    alpha: f32,
    steps: usize,
    restarts: usize,
    loss: LossKind,
}

impl Pgd {
    /// PGD-`steps` with the conventional α = 2.5 ε / steps and 1 restart.
    pub fn new(eps: f32, steps: usize) -> Self {
        Self {
            eps,
            alpha: 2.5 * eps / steps.max(1) as f32,
            steps,
            restarts: 1,
            loss: LossKind::CrossEntropy,
        }
    }

    /// Sets the number of random restarts.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Switches the loss the attack climbs (used by CW-∞).
    pub fn with_loss(mut self, loss: LossKind) -> Self {
        self.loss = loss;
        self
    }

    /// Number of gradient steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    fn run_once(
        &self,
        model: &mut dyn TargetModel,
        x: &Tensor,
        labels: &[usize],
        rng: &mut SeededRng,
    ) -> Tensor {
        let init = Tensor::rand_uniform(x.shape(), -self.eps, self.eps, rng);
        let mut adv = project(x, &x.add(&init), self.eps);
        for _ in 0..self.steps {
            let (_, g) = model.loss_and_input_grad(&adv, labels, self.loss);
            let step = g.map(|v| self.alpha * v.signum());
            adv = project(x, &adv.add(&step), self.eps);
        }
        adv
    }
}

impl Attack for Pgd {
    fn name(&self) -> String {
        match self.loss {
            LossKind::CrossEntropy => format!("PGD-{}", self.steps),
            LossKind::CwMargin => format!("CW-Inf-{}", self.steps),
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
        if self.restarts > 1 {
            let mut best_loss = model.loss_value(&best, labels, self.loss);
            for _ in 1..self.restarts {
                let cand = self.run_once(model, x, labels, rng);
                let l = model.loss_value(&cand, labels, self.loss);
                if l > best_loss {
                    best_loss = l;
                    best = cand;
                }
            }
        }
        best
    }
}

/// Carlini-Wagner ℓ∞ attack implemented as PGD on the CW margin loss, the
/// formulation the robustness literature (and the paper) uses for "CW-Inf".
#[derive(Debug, Clone, Copy)]
pub struct CwInf {
    inner: Pgd,
}

impl CwInf {
    /// CW-∞ with the given budget and step count.
    pub fn new(eps: f32, steps: usize) -> Self {
        Self {
            inner: Pgd::new(eps, steps).with_loss(LossKind::CwMargin),
        }
    }
}

impl Attack for CwInf {
    fn name(&self) -> String {
        format!("CW-Inf-{}", self.inner.steps())
    }

    fn epsilon(&self) -> f32 {
        self.inner.epsilon()
    }

    fn perturb(
        &self,
        model: &mut dyn TargetModel,
        x: &Tensor,
        labels: &[usize],
        rng: &mut SeededRng,
    ) -> Tensor {
        self.inner.perturb(model, x, labels, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_nn::zoo;

    const EPS: f32 = 8.0 / 255.0;

    fn setup() -> (tia_nn::Network, Tensor, Vec<usize>, SeededRng) {
        let mut rng = SeededRng::new(7);
        let net = zoo::preact_resnet18_lite(3, 4, 4, &mut rng);
        let x = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let labels = vec![0, 1, 2, 3];
        (net, x, labels, rng)
    }

    #[test]
    fn fgsm_stays_in_ball() {
        let (mut net, x, labels, mut rng) = setup();
        let adv = Fgsm::new(EPS).perturb(&mut net, &x, &labels, &mut rng);
        assert!(x.sub(&adv).abs_max() <= EPS + 1e-6);
        assert!(adv.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn fgsm_rs_stays_in_ball() {
        let (mut net, x, labels, mut rng) = setup();
        let adv = FgsmRs::new(EPS).perturb(&mut net, &x, &labels, &mut rng);
        assert!(x.sub(&adv).abs_max() <= EPS + 1e-6);
    }

    #[test]
    fn pgd_increases_loss() {
        let (mut net, x, labels, mut rng) = setup();
        let clean_loss = TargetModel::loss_value(&mut net, &x, &labels, LossKind::CrossEntropy);
        let adv = Pgd::new(EPS, 10).perturb(&mut net, &x, &labels, &mut rng);
        let adv_loss = TargetModel::loss_value(&mut net, &adv, &labels, LossKind::CrossEntropy);
        assert!(
            adv_loss > clean_loss,
            "PGD must increase loss: {} -> {}",
            clean_loss,
            adv_loss
        );
    }

    #[test]
    fn pgd_stronger_than_fgsm() {
        let (mut net, x, labels, mut rng) = setup();
        let fgsm_adv = Fgsm::new(EPS).perturb(&mut net, &x, &labels, &mut rng);
        let pgd_adv = Pgd::new(EPS, 20).perturb(&mut net, &x, &labels, &mut rng);
        let lf = TargetModel::loss_value(&mut net, &fgsm_adv, &labels, LossKind::CrossEntropy);
        let lp = TargetModel::loss_value(&mut net, &pgd_adv, &labels, LossKind::CrossEntropy);
        assert!(
            lp >= lf * 0.9,
            "PGD-20 should be at least as strong: {} vs {}",
            lp,
            lf
        );
    }

    #[test]
    fn cw_uses_margin_name() {
        assert_eq!(CwInf::new(EPS, 30).name(), "CW-Inf-30");
        assert_eq!(Pgd::new(EPS, 20).name(), "PGD-20");
    }

    #[test]
    fn restarts_keep_strongest() {
        let (mut net, x, labels, mut rng) = setup();
        let adv1 = Pgd::new(EPS, 5).perturb(&mut net, &x, &labels, &mut rng);
        let adv3 = Pgd::new(EPS, 5)
            .with_restarts(3)
            .perturb(&mut net, &x, &labels, &mut rng);
        let l1 = TargetModel::loss_value(&mut net, &adv1, &labels, LossKind::CrossEntropy);
        let l3 = TargetModel::loss_value(&mut net, &adv3, &labels, LossKind::CrossEntropy);
        assert!(
            l3 >= l1 * 0.8,
            "restarts should not be much weaker: {} vs {}",
            l3,
            l1
        );
    }

    #[test]
    fn zero_eps_is_identity() {
        let (mut net, x, labels, mut rng) = setup();
        let adv = Pgd::new(0.0, 5).perturb(&mut net, &x, &labels, &mut rng);
        assert!(x.sub(&adv).abs_max() < 1e-6);
    }
}
