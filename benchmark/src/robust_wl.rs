//! The robustness workload (`robust_eval`): the paper's headline
//! measurement. Set-up adversarially trains the small model (FGSM-RS with
//! RPS over 4–8 bit) on a synthetic CIFAR-10-like profile; an operation is
//! `robust_accuracy` under PGD-10 on one 24-image slice of the test set,
//! attacker and defender both switching precision at random. It drives the
//! `nn`/`tensor`/`quant` layers the way no serving workload does:
//! `Mode::Eval` forward + backward through f32 fake-quant, input gradients,
//! a precision switch per batch. One thread, closed loop.

use crate::clock::now_ns;
use crate::harness::{LoopOutcome, OpenWindow, Workload};
use crate::model::{rps_set, POLICY_SEED, SMALL};
use crate::spans::{new_id, SpanBuf, GEN_TID};
use crate::stats::{sample_store, Completion};
use crate::verify::{Tap, TimedBackend};
use tia_attack::{Attack, Pgd};
use tia_core::{adversarial_train, natural_accuracy, robust_accuracy, AdvMethod, TrainConfig};
use tia_data::{generate, Dataset, DatasetProfile};
use tia_engine::{Backend, Engine, EngineConfig, PrecisionPolicy};
use tia_nn::Network;
use tia_tensor::SeededRng;

pub const EPS: f32 = 8.0 / 255.0;
pub const PGD_STEPS: usize = 10;
pub const SLICE: usize = 24;
pub const SLICES: usize = 4;
const TRAIN_SIZE: usize = 128;
const TRAIN_EPOCHS: usize = 4;
const TRAIN_LR: f32 = 0.1;
const TRAIN_BATCH: usize = 32;

pub struct RobustWorkload {
    seed: u64,
}

pub struct RobustInstance {
    net: TimedBackend<Network>,
    tap: Option<Tap>,
    slices: Vec<Dataset>,
    test: Dataset,
    /// Correct count of each slice as first measured; every later cycle
    /// must reproduce it exactly.
    expected: [Option<usize>; SLICES],
    /// The slice the next operation evaluates.
    cursor: usize,
    pub generate_s: f64,
    pub train_s: f64,
}

impl RobustInstance {
    /// Whether `got` is a possible count and the one slice `k` gave the
    /// first time (which this call records, if it is the first).
    fn count_ok(&mut self, k: usize, got: usize) -> bool {
        got <= SLICE && *self.expected[k].get_or_insert(got) == got
    }
}

impl RobustWorkload {
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn policy() -> PrecisionPolicy {
        PrecisionPolicy::Random(rps_set())
    }

    /// One operation: robust accuracy on slice `k`, with the RNG (attacker's
    /// precision and random start, defender's schedule) reseeded per slice
    /// so that every cycle over the slices repeats exactly. Returns the
    /// correct count.
    fn evaluate(&self, inst: &mut RobustInstance, k: usize) -> usize {
        let mut rng = SeededRng::new(POLICY_SEED ^ ((k as u64 + 1) << 40));
        let acc = robust_accuracy(
            &mut inst.net,
            &inst.slices[k],
            &Pgd::new(EPS, PGD_STEPS),
            &Self::policy(),
            &Self::policy(),
            SLICE,
            &mut rng,
        );
        (acc * SLICE as f32).round() as usize
    }

    /// Runs operation `k`, and checks its count against the first time.
    fn checked(&self, inst: &mut RobustInstance, k: usize) -> bool {
        let got = self.evaluate(inst, k);
        inst.count_ok(k, got)
    }
}

impl Workload for RobustWorkload {
    type Instance = RobustInstance;

    fn name(&self) -> &'static str {
        "robust_eval"
    }

    fn generators(&self) -> (usize, usize) {
        (1, 0)
    }

    fn setup(&self, tap: Option<Tap>) -> Result<RobustInstance, String> {
        let t = now_ns();
        let profile = DatasetProfile::cifar10_like().with_sizes(TRAIN_SIZE, SLICE * SLICES);
        if (profile.height, profile.classes) != (SMALL.hw, crate::model::CLASSES) {
            return Err("the cifar10-like profile no longer matches the small model".into());
        }
        let (train, test) = generate(&profile, self.seed);
        let generate_s = (now_ns() - t) as f64 / 1e9;

        let t = now_ns();
        let mut net = SMALL.build(self.seed);
        let cfg = TrainConfig::with_method(AdvMethod::FgsmRs, EPS)
            .with_rps(rps_set())
            .with_epochs(TRAIN_EPOCHS)
            .with_batch_size(TRAIN_BATCH)
            .with_lr(TRAIN_LR)
            .with_seed(self.seed);
        adversarial_train(&mut net, &train, &cfg);
        let train_s = (now_ns() - t) as f64 / 1e9;

        let slices = (0..SLICES)
            .map(|k| {
                let idx: Vec<usize> = (k * SLICE..(k + 1) * SLICE).collect();
                let (x, labels) = test.batch(&idx);
                Dataset::new(x, labels, profile.classes)
            })
            .collect();
        let mut inst = RobustInstance {
            net: TimedBackend::new(net, tap.clone()),
            tap,
            slices,
            test,
            expected: [None; SLICES],
            cursor: 0,
            generate_s,
            train_s,
        };
        // Memo fill for the defender's serving path at all five precisions.
        let one = inst.test.image(0);
        let s = one.shape().to_vec();
        let one = one.reshape(&[1, s[0], s[1], s[2]]);
        for p in rps_set().iter() {
            let y = inst.net.infer_batch(&one, Some(p));
            inst.net.recycle_output(y);
        }
        inst.net.set_precision(None);
        // Warm-up: one operation (a fixed count), which also pins slice 0.
        if !self.checked(&mut inst, 0) {
            return Err("warm-up operation produced an impossible count".into());
        }
        Ok(inst)
    }

    fn run(&self, inst: &mut RobustInstance, seconds: f64, trace: bool) -> LoopOutcome {
        let budget = (seconds * 1e9) as u64;
        let capacity = (seconds * 100.0) as usize + 64;
        let mut out = LoopOutcome {
            completions: sample_store(capacity),
            items_per_op: SLICE as u32,
            ..LoopOutcome::default()
        };
        let mut gen = trace.then(|| SpanBuf::with_capacity(GEN_TID, capacity * 2));
        if let (true, Some(tap)) = (trace, &inst.tap) {
            tap.clear();
        }
        let window = OpenWindow::open(trace);
        let t0 = window.start_ns();
        loop {
            let k = inst.cursor % SLICES;
            inst.cursor += 1;
            let (op, eval) = (new_id(), new_id());
            if let Some(tap) = &inst.tap {
                tap.set_parent(eval);
            }
            let start = now_ns();
            let got = self.evaluate(inst, k);
            let end = now_ns();
            if let Some(gen) = &mut gen {
                gen.record("core.robust_accuracy", eval, op, start, end, SLICE as u64);
                gen.record("bench.op", op, 0, start, end, SLICE as u64);
            }
            out.completions.push(Completion::new(end - t0, end - start));
            out.attempted += 1;
            if !inst.count_ok(k, got) {
                out.failed += 1;
            }
            out.check_ns += now_ns() - end;
            if end - t0 >= budget {
                break;
            }
        }
        out.window = window.close();
        if let Some(gen) = gen {
            out.spans.push(("generator".into(), gen));
        }
        if let Some(tap) = &inst.tap {
            out.spans.push(("network".into(), tap.take()));
        }
        out
    }

    fn teardown(&self, inst: RobustInstance) -> Result<(), String> {
        drop(inst);
        Ok(())
    }
}

/// The `attack` / `core` / `data` numbers, measured on a ready instance.
pub struct RobustProbe {
    pub perturb_ms: f64,
    pub classify_ms: f64,
    pub robust_acc: f64,
    pub natural_acc: f64,
    pub failed: u64,
    pub attempted: u64,
}

impl RobustWorkload {
    /// One full cycle over the slices (for the exact robust accuracy), then the attack and the defender's classification timed
    /// apart on slice 0, then natural accuracy on the whole test set.
    pub fn probe(&self, inst: &mut RobustInstance, reps: usize) -> RobustProbe {
        let (mut failed, mut attempted) = (0, 0);
        for k in 0..SLICES {
            attempted += 1;
            failed += u64::from(!self.checked(inst, k));
        }
        let correct: usize = inst.expected.iter().map(|c| c.unwrap_or(0)).sum();

        let (x, labels) = inst.slices[0].batch(&(0..SLICE).collect::<Vec<_>>());
        let attack = Pgd::new(EPS, PGD_STEPS);
        let (mut perturb_ns, mut classify_ns) = (Vec::new(), Vec::new());
        for rep in 0..reps.max(1) {
            let mut rng = SeededRng::new(POLICY_SEED ^ 0xA77A_C000 ^ rep as u64);
            inst.net.set_precision(Self::policy().sample(&mut rng));
            let t = now_ns();
            let x_adv = attack.perturb(&mut inst.net, &x, &labels, &mut rng);
            perturb_ns.push(now_ns() - t);
            // The defender's half of `robust_accuracy`: per-request RPS
            // through the engine in one micro-batch window.
            let cfg = EngineConfig::default()
                .with_max_batch(SLICE)
                .with_seed(rng.next_u64());
            let t = now_ns();
            let mut engine = Engine::new(&mut inst.net, Self::policy(), cfg);
            let served = engine.serve(&x_adv);
            drop(engine);
            classify_ns.push(now_ns() - t);
            std::hint::black_box(served);
        }
        inst.net.set_precision(None);
        let natural_acc = natural_accuracy(
            &mut inst.net,
            &inst.test,
            &Self::policy(),
            &mut SeededRng::new(POLICY_SEED ^ 0x0A7C),
        );
        let ms = |v: &[u64]| crate::stats::median_u64(v) / 1e6;
        RobustProbe {
            perturb_ms: ms(&perturb_ns),
            classify_ms: ms(&classify_ns),
            robust_acc: correct as f64 / (SLICE * SLICES) as f64,
            natural_acc: f64::from(natural_acc),
            failed,
            attempted,
        }
    }
}
