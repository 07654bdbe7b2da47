//! Stochastic gradient descent with momentum and decoupled weight decay.

use crate::network::Network;

/// SGD optimizer configuration. Follows the training setups of Madry et al.
/// and Wong et al. used in the paper (momentum 0.9, weight decay on conv/fc
/// weights only).
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay applied to parameters flagged `decay`.
    pub weight_decay: f32,
}

impl Sgd {
    /// Creates an optimizer with the common defaults (momentum 0.9,
    /// weight decay 5e-4).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.9,
            weight_decay: 5e-4,
        }
    }

    /// Applies one update step to every parameter of `net` using the
    /// currently accumulated gradients, then zeroes the gradients.
    pub fn step(&self, net: &mut Network) {
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        net.visit_params(&mut |p| {
            let n = p.value.len();
            for i in 0..n {
                let mut g = p.grad.data()[i];
                if p.decay {
                    g += wd * p.value.data()[i];
                }
                let v = mu * p.velocity.data()[i] + g;
                p.velocity.data_mut()[i] = v;
                p.value.data_mut()[i] -= lr * v;
            }
        });
        net.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::linear::Linear;
    use tia_tensor::{SeededRng, Tensor};

    #[test]
    fn sgd_trains_linear_classifier() {
        let mut rng = SeededRng::new(7);
        let mut net = Network::new();
        net.push(Box::new(Linear::new(4, 2, true, &mut rng)));
        // Two separable clusters.
        let mut xs = vec![];
        let mut labels = vec![];
        for i in 0..16 {
            let cls = i % 2;
            let base = if cls == 0 { 1.0 } else { -1.0 };
            xs.push(Tensor::from_vec(
                (0..4).map(|_| base + 0.1 * rng.normal()).collect(),
                &[1, 4],
            ));
            labels.push(cls);
        }
        let x = Tensor::stack(&xs).reshape(&[16, 4]);
        let opt = Sgd::new(0.1);
        let (loss0, _) = net.loss_and_input_grad(&x, &labels, Mode::Train);
        net.zero_grad();
        for _ in 0..40 {
            let _ = net.loss_and_input_grad(&x, &labels, Mode::Train);
            opt.step(&mut net);
        }
        let (loss1, _) = net.loss_and_input_grad(&x, &labels, Mode::Train);
        assert!(loss1 < loss0 * 0.2, "{} -> {}", loss0, loss1);
        assert_eq!(net.correct_count(&x, &labels), 16);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = SeededRng::new(8);
        let mut net = Network::new();
        net.push(Box::new(Linear::new(2, 2, false, &mut rng)));
        let x = Tensor::ones(&[1, 2]);
        let _ = net.loss_and_input_grad(&x, &[0], Mode::Train);
        Sgd::new(0.01).step(&mut net);
        let mut g = 0.0;
        net.visit_params(&mut |p| g += p.grad.norm());
        assert_eq!(g, 0.0);
    }
}
