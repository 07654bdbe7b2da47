//! The N-thread executor behind [`ShardedEngine`]: plain `std::thread`
//! worker shards, each owning a [`Backend`] replica and looping the
//! [`Inline`] executor over the request lists the coordinator sends it.
//!
//! The coordinator fixed every request's id and precision at submit time,
//! so thread interleaving can change *when* a shard runs, never *what* it
//! computes — see the determinism contract on [`Coordinator`].

use crate::engine::{Coordinator, Executor, Inline, Request, Served};
use crate::{Backend, EngineConfig, PrecisionPolicy};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A shard's answer to one flush: the requests it was handed (their images
/// travel back for reuse), what it served, and how many micro-batches it ran.
struct Reply {
    reqs: Vec<Request>,
    served: Vec<Served>,
    batches: usize,
}

/// The N-thread [`Executor`]: partitions each flush across worker shards by
/// `request_id % workers` (deterministic round-robin) and gathers their
/// replies.
pub struct Shards<B> {
    senders: Vec<Sender<Vec<Request>>>,
    replies: Receiver<Reply>,
    handles: Vec<JoinHandle<B>>,
}

/// The sharded, multi-threaded engine: a [`Coordinator`] executing on N
/// worker threads, one backend replica each, behind the same
/// submit/flush/serve surface as [`crate::Engine`].
///
/// Replicas must be *identical* (same weights, same cost model) for the
/// determinism contract to hold — build them from the same constructor with
/// the same seed, as [`ShardedEngine::with_factory`] encourages.
///
/// # Example
///
/// ```
/// use tia_engine::{EngineConfig, PrecisionPolicy, ShardedEngine};
/// use tia_nn::zoo;
/// use tia_quant::PrecisionSet;
/// use tia_tensor::{SeededRng, Tensor};
///
/// let set = PrecisionSet::range(4, 8);
/// // Four identical replicas: same constructor, same seed.
/// let mut engine = ShardedEngine::with_factory(
///     4,
///     |_| zoo::preact_resnet18_rps(3, 4, 10, PrecisionSet::range(4, 8), &mut SeededRng::new(1)),
///     PrecisionPolicy::Random(set),
///     EngineConfig::default().with_max_batch(8).with_seed(7),
/// );
/// let mut rng = SeededRng::new(2);
/// let x = Tensor::rand_uniform(&[12, 3, 8, 8], 0.0, 1.0, &mut rng);
/// let responses = engine.serve(&x);
/// assert_eq!(responses.len(), 12);
/// assert_eq!(engine.stats().requests, 12);
/// let _replicas = engine.shutdown();
/// ```
pub type ShardedEngine<B> = Coordinator<Shards<B>>;

impl<B: Backend + Send + 'static> Coordinator<Shards<B>> {
    /// Spawns one worker thread per replica and returns the coordinator.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<B>, policy: PrecisionPolicy, cfg: EngineConfig) -> Self {
        assert!(
            !replicas.is_empty(),
            "ShardedEngine needs at least one replica"
        );
        let (reply_tx, replies) = channel();
        let (senders, handles) = replicas
            .into_iter()
            .map(|backend| {
                let (tx, jobs) = channel();
                let (lane, reply_tx) = (Inline::new(backend, &cfg), reply_tx.clone());
                (tx, std::thread::spawn(move || worker(lane, jobs, reply_tx)))
            })
            .unzip();
        let shards = Shards {
            senders,
            replies,
            handles,
        };
        Self::over(shards, policy, cfg.seed)
    }

    /// Builds `workers` replicas from a factory (called with the shard
    /// index) and spawns the runtime. The factory must produce *identical*
    /// backends — reconstruct from the same seed rather than splitting one
    /// RNG across calls.
    pub fn with_factory(
        workers: usize,
        mut factory: impl FnMut(usize) -> B,
        policy: PrecisionPolicy,
        cfg: EngineConfig,
    ) -> Self {
        Self::new((0..workers).map(&mut factory).collect(), policy, cfg)
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.exec.senders.len()
    }

    /// Shuts the runtime down and returns the backend replicas (shard
    /// order), e.g. to inspect per-shard `SimBacked` ledgers.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn shutdown(mut self) -> Vec<B> {
        self.exec.senders.clear(); // Closing the channels ends the workers.
        std::mem::take(&mut self.exec.handles)
            .into_iter()
            .map(|h| h.join().expect("sharded engine worker panicked"))
            .collect()
    }
}

impl<B> Executor for Shards<B> {
    /// # Panics
    ///
    /// Panics if a worker thread has died (a backend panicked mid-batch).
    fn execute(&mut self, reqs: &mut Vec<Request>, out: &mut Vec<Served>) -> usize {
        let workers = self.senders.len();
        let mut jobs: Vec<Vec<Request>> = (0..workers)
            .map(|_| Vec::with_capacity(reqs.len().div_ceil(workers)))
            .collect();
        for req in reqs.drain(..) {
            jobs[(req.id % workers as u64) as usize].push(req);
        }
        let mut outstanding = 0;
        for (tx, job) in self.senders.iter().zip(jobs) {
            if job.is_empty() {
                continue;
            }
            tx.send(job).expect("sharded engine worker thread died");
            outstanding += 1;
        }
        let mut batches = 0;
        for _ in 0..outstanding {
            let mut reply = self
                .replies
                .recv()
                .expect("sharded engine worker thread died");
            reqs.append(&mut reply.reqs);
            out.append(&mut reply.served);
            batches += reply.batches;
        }
        batches
    }
}

impl<B> Drop for Shards<B> {
    fn drop(&mut self) {
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The shard body: the inline executor in a loop, until the coordinator
/// hangs up. Returns the backend so `shutdown` can hand the replicas back.
fn worker<B: Backend>(
    mut lane: Inline<B>,
    jobs: Receiver<Vec<Request>>,
    replies: Sender<Reply>,
) -> B {
    while let Ok(mut reqs) = jobs.recv() {
        let mut served = Vec::with_capacity(reqs.len());
        let batches = lane.execute(&mut reqs, &mut served);
        let reply = Reply {
            reqs,
            served,
            batches,
        };
        if replies.send(reply).is_err() {
            break; // Coordinator dropped mid-flush; shut down.
        }
    }
    lane.backend
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_nn::zoo;
    use tia_quant::PrecisionSet;
    use tia_tensor::SeededRng;

    fn replica() -> tia_nn::Network {
        zoo::preact_resnet18_rps(3, 4, 3, PrecisionSet::range(4, 8), &mut SeededRng::new(1))
    }

    #[test]
    fn shutdown_returns_all_replicas() {
        let eng = ShardedEngine::with_factory(
            3,
            |_| replica(),
            PrecisionPolicy::Fixed(None),
            EngineConfig::default(),
        );
        assert_eq!(eng.workers(), 3);
        assert_eq!(eng.shutdown().len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = ShardedEngine::<tia_nn::Network>::new(
            Vec::new(),
            PrecisionPolicy::Fixed(None),
            EngineConfig::default(),
        );
    }
}
