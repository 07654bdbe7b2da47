//! Output verification and the timed backend wrapper.
//!
//! Served logits are compared **bitwise** with per-sample
//! `Network::forward(.., Mode::Infer)` references at the precision each
//! response reports: batching, sharding and the wire must not change a
//! single bit. References are computed once, outside every timed span.

use crate::clock::now_ns;
use crate::spans::{new_id, SpanBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tia_engine::{Backend, BatchCost, LossKind};
use tia_nn::{Mode, Network};
use tia_quant::{Precision, PrecisionSet};
use tia_tensor::{argmax, KernelMode, Tensor};

/// Per-sample reference logits for every (image, precision) pair.
#[derive(Debug, Clone)]
pub struct References {
    classes: usize,
    bits: Vec<u8>,
    /// `[image][precision slot][class]`, as raw bit patterns.
    logits: Vec<u32>,
}

impl References {
    /// Runs `net` on every image of `[n, c, h, w]` `images`, one at a time,
    /// at every precision of `set`, in serving mode under the kernel mode
    /// the engines use.
    pub fn build(net: &mut Network, images: &Tensor, set: &PrecisionSet) -> Self {
        let saved = net.precision();
        net.set_kernel(KernelMode::global_default());
        let bits: Vec<u8> = set.iter().map(Precision::bits).collect();
        let n = images.shape()[0];
        let mut classes = 0;
        let mut logits = Vec::new();
        for i in 0..n {
            let x = images.index_axis0(i);
            let s = x.shape().to_vec();
            let x = x.reshape(&[1, s[0], s[1], s[2]]);
            for p in set.iter() {
                net.set_precision(Some(p));
                let y = net.forward(&x, Mode::Infer);
                classes = y.len();
                logits.extend(y.data().iter().map(|v| v.to_bits()));
                net.recycle(y);
            }
        }
        net.set_precision(saved);
        Self {
            classes,
            bits,
            logits,
        }
    }

    fn row(&self, image: usize, precision: Option<Precision>) -> Option<&[u32]> {
        let slot = self
            .bits
            .iter()
            .position(|&b| Some(b) == precision.map(Precision::bits))?;
        let at = (image * self.bits.len() + slot) * self.classes;
        self.logits.get(at..at + self.classes)
    }

    /// Whether `logits` and `top1` are exactly what the reference network
    /// produced for `image` at `precision`. A precision outside the set, a
    /// wrong length or any differing bit is a mismatch.
    pub fn matches(
        &self,
        image: usize,
        precision: Option<Precision>,
        logits: &[f32],
        top1: usize,
    ) -> bool {
        match self.row(image, precision) {
            Some(want) => {
                want.len() == logits.len()
                    && want.iter().zip(logits).all(|(&w, g)| w == g.to_bits())
                    && top1 == argmax(logits)
            }
            None => false,
        }
    }

    /// Flips one bit of one stored reference (tests only: proves the
    /// comparison is sensitive to it).
    #[cfg(test)]
    pub fn flip_bit(&mut self, image: usize, slot: usize, class: usize, bit: u32) {
        self.logits[(image * self.bits.len() + slot) * self.classes + class] ^= 1 << bit;
    }
}

/// Where a [`TimedBackend`] records, and the span its calls belong to.
#[derive(Debug, Clone)]
pub struct Tap {
    buf: Arc<Mutex<SpanBuf>>,
    parent: Arc<AtomicU64>,
}

impl Tap {
    pub fn new(tid: u32, capacity: usize) -> Self {
        Self {
            buf: Arc::new(Mutex::new(SpanBuf::with_capacity(tid, capacity))),
            parent: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Names the span that backend calls from now on are children of.
    pub fn set_parent(&self, id: u64) {
        // Release/Acquire pair with `record`: the generator publishes the id
        // before it hands the engine work; the worker reads it inside.
        self.parent.store(id, Ordering::Release);
    }

    fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, arg: u64) {
        let parent = self.parent.load(Ordering::Acquire);
        // A poisoned lock means a recorder panicked; losing spans is the
        // least bad outcome, and `take` reports what was kept.
        if let Ok(mut buf) = self.buf.lock() {
            buf.record(name, new_id(), parent, start_ns, end_ns, arg);
        }
    }

    /// Forgets what was recorded so far (set-up and warm-up calls), keeping
    /// the capacity: a traced loop calls this as it starts.
    pub fn clear(&self) {
        if let Ok(mut buf) = self.buf.lock() {
            buf.clear();
        }
    }

    /// Takes the recorded spans out, leaving an empty zero-capacity buffer.
    pub fn take(&self) -> SpanBuf {
        match self.buf.lock() {
            Ok(mut buf) => std::mem::replace(&mut *buf, SpanBuf::with_capacity(0, 0)),
            Err(_) => SpanBuf::with_capacity(0, 0),
        }
    }
}

/// A [`Backend`] that times every call into the wrapped one. It is what the
/// benchmark hands to engines and servers in place of the bare `Network`,
/// so `nn` time is measured from outside the crates; it changes no
/// argument and no result. Without a [`Tap`] it only forwards.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    tap: Option<Tap>,
}

impl<B: Backend> TimedBackend<B> {
    pub fn new(inner: B, tap: Option<Tap>) -> Self {
        Self { inner, tap }
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn infer_batch(&mut self, x: &Tensor, precision: Option<Precision>) -> Tensor {
        let Some(tap) = &self.tap else {
            return self.inner.infer_batch(x, precision);
        };
        let start = now_ns();
        let y = self.inner.infer_batch(x, precision);
        tap.record("nn.infer_batch", start, now_ns(), x.shape()[0] as u64);
        y
    }

    fn cost(&self, frames: usize, precision: Option<Precision>) -> BatchCost {
        self.inner.cost(frames, precision)
    }

    fn loss_and_input_grad(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        loss: LossKind,
    ) -> (f32, Tensor) {
        let Some(tap) = &self.tap else {
            return self.inner.loss_and_input_grad(x, labels, loss);
        };
        let start = now_ns();
        let out = self.inner.loss_and_input_grad(x, labels, loss);
        tap.record(
            "nn.loss_and_input_grad",
            start,
            now_ns(),
            labels.len() as u64,
        );
        out
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

    fn set_kernel(&mut self, k: KernelMode) {
        self.inner.set_kernel(k);
    }

    fn recycle_output(&mut self, logits: Tensor) {
        self.inner.recycle_output(logits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{rps_set, SMALL};
    use tia_engine::{EngineConfig, PrecisionPolicy, ShardedEngine};

    #[test]
    fn a_one_bit_flip_in_a_reference_is_caught() {
        let set = rps_set();
        let images = SMALL.images(3, 4);
        let mut refs = References::build(&mut SMALL.build(3), &images, &set);
        let mut engine = ShardedEngine::new(
            vec![SMALL.build(3)],
            PrecisionPolicy::Random(set),
            EngineConfig::default().with_max_batch(8).with_seed(3),
        );
        let responses = engine.serve(&images);
        assert_eq!(responses.len(), 4);
        for (i, r) in responses.iter().enumerate() {
            assert!(refs.matches(i, r.precision, r.logits.data(), r.top1));
        }
        // Flip the lowest mantissa bit of one logit of image 2 at the
        // precision it was served at: only that comparison must fail.
        let r = &responses[2];
        let slot = (r.precision.expect("rps").bits() - 4) as usize;
        refs.flip_bit(2, slot, 5, 0);
        assert!(!refs.matches(2, r.precision, r.logits.data(), r.top1));
        assert!(refs.matches(
            1,
            responses[1].precision,
            responses[1].logits.data(),
            responses[1].top1
        ));
        // A precision outside the set, a short row and a wrong top-1 all fail.
        let ok = &responses[0];
        assert!(!refs.matches(0, None, ok.logits.data(), ok.top1));
        assert!(!refs.matches(0, ok.precision, &ok.logits.data()[1..], ok.top1));
        assert!(!refs.matches(0, ok.precision, ok.logits.data(), (ok.top1 + 1) % 10));
    }

    #[test]
    fn timed_backend_leaves_logits_bit_identical_and_records_each_batch() {
        let images = SMALL.images(5, 8);
        let p = Some(Precision::new(6));
        let mut bare = SMALL.build(5);
        let want = Backend::infer_batch(&mut bare, &images, p);

        let tap = Tap::new(9, 16);
        tap.set_parent(77);
        let mut timed = TimedBackend::new(SMALL.build(5), Some(tap.clone()));
        let got = timed.infer_batch(&images, p);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&want), bits(&got));
        assert_eq!(Backend::precision(&timed), p);

        let mut untapped = TimedBackend::new(SMALL.build(5), None);
        assert_eq!(bits(&want), bits(&untapped.infer_batch(&images, p)));

        let mut trace = crate::spans::Trace::default();
        trace.absorb("worker", tap.take());
        let spans: Vec<_> = trace.named("nn.infer_batch").collect();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].parent, spans[0].arg), (77, 8));
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }
}
