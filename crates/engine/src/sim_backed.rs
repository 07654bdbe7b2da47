//! Hardware co-simulation wrapper: serve batches *and* price them.

use crate::{Backend, BatchCost, LossKind};
use std::cell::RefCell;
use tia_accel::PrecisionPair;
use tia_nn::workload::NetworkSpec;
use tia_quant::Precision;
use tia_sim::Accelerator;
use tia_tensor::Tensor;

/// A backend that co-simulates every served batch through a
/// [`tia_sim::Accelerator`], so the serving path reports cycles, energy and
/// sustained FPS alongside logits.
///
/// The trainable model (reduced scale) and the accelerator workload (true
/// layer geometry, a [`NetworkSpec`]) are decoupled exactly as in the rest
/// of the reproduction: the wrapper executes `inner` for numerics and prices
/// each batch against `spec` on `accel`. Per-(layer, precision) simulation
/// results are memoized inside the accelerator, so only the first batch at a
/// new precision pays for the dataflow search.
///
/// Full precision (`None`) is priced at 16-bit, the accelerator's highest
/// supported execution precision (see `Precision::highest`).
#[derive(Debug)]
pub struct SimBacked<B> {
    inner: B,
    // RefCell: `Backend::cost` takes `&self`, but the accelerator memoizes
    // per-layer searches in an internal cache behind `&mut self`.
    accel: RefCell<Accelerator>,
    spec: NetworkSpec,
    ledger: BatchCost,
}

impl<B: Backend> SimBacked<B> {
    /// Wraps a backend with an accelerator cost model for `spec`.
    pub fn new(inner: B, accel: Accelerator, spec: NetworkSpec) -> Self {
        Self {
            inner,
            accel: RefCell::new(accel),
            spec,
            ledger: BatchCost::default(),
        }
    }

    /// Total cost of everything served so far.
    ///
    /// "Served" means every [`Backend::infer_batch`] execution — engine
    /// traffic *and* direct evaluation scans (e.g. a transfer-matrix sweep)
    /// both accrue here, since each runs the priced forward pass. Gradient
    /// queries (`loss_and_input_grad` / `loss_value`) are deliberately not
    /// billed: they model the *attacker's* compute, not the defender's
    /// accelerator.
    pub fn ledger(&self) -> BatchCost {
        self.ledger
    }

    /// The workload priced by the cost model.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Borrows the wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn per_frame(&self, precision: Option<Precision>) -> (f64, f64, f64) {
        let bits = precision.map_or(Precision::MAX_BITS, Precision::bits);
        let perf = self
            .accel
            .borrow_mut()
            .simulate_network(&self.spec, PrecisionPair::symmetric(bits));
        (perf.total_cycles, perf.total_energy(), perf.fps)
    }
}

impl<B: Backend> Backend for SimBacked<B> {
    fn infer_batch(&mut self, x: &Tensor, precision: Option<Precision>) -> Tensor {
        let logits = self.inner.infer_batch(x, precision);
        let cost = self.cost(x.shape()[0], precision);
        self.ledger.accumulate(&cost);
        logits
    }

    fn cost(&self, frames: usize, precision: Option<Precision>) -> BatchCost {
        let (cycles, energy, fps) = self.per_frame(precision);
        BatchCost::modeled(frames, cycles, energy, fps)
    }

    fn loss_and_input_grad(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        loss: LossKind,
    ) -> (f32, Tensor) {
        self.inner.loss_and_input_grad(x, labels, loss)
    }

    fn loss_value(&mut self, x: &Tensor, labels: &[usize], loss: LossKind) -> f32 {
        self.inner.loss_value(x, labels, loss)
    }

    fn set_precision(&mut self, p: Option<Precision>) {
        self.inner.set_precision(p);
    }

    fn precision(&self) -> Option<Precision> {
        self.inner.precision()
    }

    fn recycle_output(&mut self, logits: Tensor) {
        self.inner.recycle_output(logits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_dataflow::{EvoSearch, SearchMode};
    use tia_nn::zoo;
    use tia_tensor::SeededRng;

    fn small_sim() -> Accelerator {
        Accelerator::ours().with_search(EvoSearch {
            population: 8,
            cycles: 3,
            mode: SearchMode::Full,
        })
    }

    fn wrapped() -> SimBacked<tia_nn::Network> {
        let mut rng = SeededRng::new(1);
        let net = zoo::preact_resnet18_lite(3, 4, 4, &mut rng);
        SimBacked::new(net, small_sim(), NetworkSpec::resnet18_cifar())
    }

    #[test]
    fn logits_match_inner_backend() {
        let mut rng = SeededRng::new(2);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let mut sim = wrapped();
        let y_sim = sim.infer_batch(&x, Some(Precision::new(8)));
        let mut plain = sim.inner;
        let y_plain = plain.infer_batch(&x, Some(Precision::new(8)));
        assert_eq!(
            y_sim.data(),
            y_plain.data(),
            "co-simulation must not change numerics"
        );
    }

    #[test]
    fn ledger_matches_simulate_network() {
        let mut rng = SeededRng::new(3);
        let x = Tensor::rand_uniform(&[3, 3, 8, 8], 0.0, 1.0, &mut rng);
        let mut sim = wrapped();
        let _ = sim.infer_batch(&x, Some(Precision::new(4)));
        let perf = small_sim()
            .simulate_network(&NetworkSpec::resnet18_cifar(), PrecisionPair::symmetric(4));
        let ledger = sim.ledger();
        assert_eq!(ledger.frames, 3);
        assert!((ledger.cycles - 3.0 * perf.total_cycles).abs() < 1e-6 * ledger.cycles.abs());
        assert!((ledger.energy - 3.0 * perf.total_energy()).abs() < 1e-6 * ledger.energy.abs());
        assert!(ledger.modeled);
    }

    #[test]
    fn lower_precision_is_cheaper() {
        let sim = wrapped();
        let c4 = sim.cost(8, Some(Precision::new(4)));
        let c16 = sim.cost(8, Some(Precision::new(16)));
        assert!(
            c4.cycles < c16.cycles,
            "4-bit should cost fewer cycles than 16-bit"
        );
        assert!(c4.fps > c16.fps);
    }

    #[test]
    fn full_precision_priced_as_16_bit() {
        let sim = wrapped();
        let fp = sim.cost(1, None);
        let b16 = sim.cost(1, Some(Precision::new(16)));
        assert_eq!(fp.cycles, b16.cycles);
    }
}
