//! The execution backend abstraction every inference consumer sits on.

use crate::BatchCost;
use tia_nn::{cross_entropy, cw_margin_loss, Mode, Network};
use tia_quant::Precision;
use tia_tensor::{KernelMode, Tensor};

/// Which scalar loss a gradient query climbs.
///
/// Lives here (rather than in `tia-attack`) because the loss surface is a
/// property of the execution backend; `tia-attack` re-exports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Cross-entropy (FGSM/PGD/APGD/Bandits/E-PGD).
    CrossEntropy,
    /// Carlini-Wagner margin `max_{j≠y} z_j − z_y` (CW-∞).
    CwMargin,
}

/// A batched, precision-switchable inference executor.
///
/// This is the one serving surface of the workspace: `tia_nn::Network`
/// implements it directly (software path), [`crate::SimBacked`] implements
/// it with hardware co-simulation, and everything downstream — the
/// micro-batching [`crate::Engine`], the `tia-attack` `TargetModel` blanket
/// impl, and the `tia-core` evaluation harness — is generic over it.
///
/// All inference runs in evaluation mode (frozen BN statistics). The
/// `precision` argument *replaces* the backend's active precision for the
/// batch and leaves it set, exactly like `Network::set_precision`; callers
/// that must preserve the caller-visible precision (the engine, the eval
/// harness) save and restore around their batches.
pub trait Backend {
    /// Runs one `[N, C, H, W]` batch at the given precision (`None` = full
    /// precision), returning `[N, classes]` logits.
    fn infer_batch(&mut self, x: &Tensor, precision: Option<Precision>) -> Tensor;

    /// Prices a batch of `frames` inferences at a precision *without*
    /// executing it. Backends without a hardware model report
    /// [`BatchCost::unmodeled`].
    ///
    /// Implementations must price **linearly in `frames`** (per-frame cost
    /// times the frame count, as [`BatchCost::modeled`] does): the engine
    /// bills each request at `cost(1, p)` and merges in request-id order,
    /// while a backend's own ledger ([`crate::SimBacked`]) bills
    /// `cost(n, p)` per micro-batch — a nonlinear model (batching
    /// discounts, per-batch overheads) would make the two disagree.
    fn cost(&self, frames: usize, precision: Option<Precision>) -> BatchCost {
        let _ = precision;
        BatchCost::unmodeled(frames)
    }

    /// `(loss, d loss / d x)` at the backend's current precision — the
    /// primitive behind every gradient-based adversarial attack. Must leave
    /// parameter gradients untouched.
    fn loss_and_input_grad(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        loss: LossKind,
    ) -> (f32, Tensor);

    /// Loss only (black-box attacks). Default routes through the gradient
    /// path; implementations may override with something cheaper.
    fn loss_value(&mut self, x: &Tensor, labels: &[usize], loss: LossKind) -> f32 {
        self.loss_and_input_grad(x, labels, loss).0
    }

    /// Switches the active execution precision (`None` = full precision).
    fn set_precision(&mut self, p: Option<Precision>);

    /// The currently active precision.
    fn precision(&self) -> Option<Precision>;

    /// Selects the kernel dispatch mode (`Scalar` = the portable loops,
    /// `Native` = runtime SIMD dispatch), a speed choice that must not move
    /// a logit. Backends without a kernel notion ignore it (the default).
    fn set_kernel(&mut self, k: KernelMode) {
        let _ = k;
    }

    /// Hands a logits tensor from [`Backend::infer_batch`] back to the
    /// backend for storage reuse once the caller is done reading it. The
    /// engine calls this after splitting a batch into responses; backends
    /// without an arena just drop the tensor (the default).
    fn recycle_output(&mut self, logits: Tensor) {
        let _ = logits;
    }
}

/// Mutable references are backends too, so the engine and evaluation
/// harness can borrow a backend instead of consuming it.
impl<B: Backend + ?Sized> Backend for &mut B {
    fn infer_batch(&mut self, x: &Tensor, precision: Option<Precision>) -> Tensor {
        (**self).infer_batch(x, precision)
    }

    fn cost(&self, frames: usize, precision: Option<Precision>) -> BatchCost {
        (**self).cost(frames, precision)
    }

    fn loss_and_input_grad(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        loss: LossKind,
    ) -> (f32, Tensor) {
        (**self).loss_and_input_grad(x, labels, loss)
    }

    fn loss_value(&mut self, x: &Tensor, labels: &[usize], loss: LossKind) -> f32 {
        (**self).loss_value(x, labels, loss)
    }

    fn set_precision(&mut self, p: Option<Precision>) {
        (**self).set_precision(p);
    }

    fn precision(&self) -> Option<Precision> {
        (**self).precision()
    }

    fn set_kernel(&mut self, k: KernelMode) {
        (**self).set_kernel(k);
    }

    fn recycle_output(&mut self, logits: Tensor) {
        (**self).recycle_output(logits);
    }
}

/// The software path: run the layer graph directly.
impl Backend for Network {
    fn infer_batch(&mut self, x: &Tensor, precision: Option<Precision>) -> Tensor {
        Network::set_precision(self, precision);
        // Serving mode: layers skip every backward cache and recycle all
        // intermediates — the zero-allocation steady state. Quantized
        // layers at 2–8 bits past the crossover depth take the
        // true-integer path (a different, still per-sample-deterministic
        // numeric than Eval); which path runs depends on the mode and the
        // depth, never on the kernel mode.
        self.forward(x, Mode::Infer)
    }

    fn loss_and_input_grad(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        loss: LossKind,
    ) -> (f32, Tensor) {
        // Attack queries must not pollute parameter gradients used by
        // training, so bracket the backward pass with zero_grad.
        self.zero_grad();
        let logits = self.forward(x, Mode::Eval);
        let lg = match loss {
            LossKind::CrossEntropy => cross_entropy(&logits, labels),
            LossKind::CwMargin => cw_margin_loss(&logits, labels),
        };
        let gx = self.backward(&lg.grad);
        self.zero_grad();
        (lg.loss, gx)
    }

    fn loss_value(&mut self, x: &Tensor, labels: &[usize], loss: LossKind) -> f32 {
        let logits = self.forward(x, Mode::Eval);
        match loss {
            LossKind::CrossEntropy => cross_entropy(&logits, labels).loss,
            LossKind::CwMargin => cw_margin_loss(&logits, labels).loss,
        }
    }

    fn set_precision(&mut self, p: Option<Precision>) {
        Network::set_precision(self, p);
    }

    fn precision(&self) -> Option<Precision> {
        Network::precision(self)
    }

    fn set_kernel(&mut self, k: KernelMode) {
        Network::set_kernel(self, k);
    }

    fn recycle_output(&mut self, logits: Tensor) {
        Network::recycle(self, logits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_nn::zoo;
    use tia_tensor::SeededRng;

    #[test]
    fn network_backend_runs_batches() {
        let mut rng = SeededRng::new(1);
        let mut net = zoo::preact_resnet18_lite(3, 4, 3, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = Backend::infer_batch(&mut net, &x, Some(Precision::new(8)));
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(Backend::precision(&net), Some(Precision::new(8)));
    }

    #[test]
    fn network_backend_cost_is_unmodeled() {
        let mut rng = SeededRng::new(2);
        let net = zoo::preact_resnet18_lite(3, 4, 3, &mut rng);
        let c = net.cost(16, None);
        assert_eq!(c.frames, 16);
        assert!(!c.modeled);
    }

    #[test]
    fn grad_queries_leave_param_grads_clean() {
        let mut rng = SeededRng::new(3);
        let mut net = zoo::preact_resnet18_lite(3, 4, 3, &mut rng);
        let x = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng);
        let (loss, gx) = Backend::loss_and_input_grad(&mut net, &x, &[0], LossKind::CrossEntropy);
        assert!(loss.is_finite());
        assert_eq!(gx.shape(), x.shape());
        let mut g = 0.0;
        net.visit_params(&mut |p| g += p.grad.norm());
        assert_eq!(g, 0.0);
    }

    #[test]
    fn mut_ref_is_a_backend() {
        let mut rng = SeededRng::new(4);
        let mut net = zoo::preact_resnet18_lite(3, 4, 3, &mut rng);
        let mut r = &mut net;
        Backend::set_precision(&mut r, Some(Precision::new(4)));
        assert_eq!(Backend::precision(&r), Some(Precision::new(4)));
    }
}
