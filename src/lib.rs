//! # two-in-one-accel
//!
//! A from-scratch Rust reproduction of **"2-in-1 Accelerator: Enabling
//! Random Precision Switch for Winning Both Adversarial Robustness and
//! Efficiency"** (Fu, Zhao, Yu, Li, Lin — MICRO 2021).
//!
//! The paper co-designs an algorithm and an accelerator:
//!
//! * **RPS (Random Precision Switch)** — adversarially train a quantized DNN
//!   while randomly switching its precision every iteration (with switchable
//!   batch-norm), then randomly switch precision at inference. Adversarial
//!   examples crafted at one precision transfer poorly to another, so the
//!   switch acts as an in-situ ensemble defense that *also* cuts compute.
//! * **A precision-scalable accelerator** whose MAC unit spatially tiles
//!   small bit-serial units (marrying temporal flexibility with spatial
//!   efficiency), plus an evolutionary dataflow/micro-architecture optimizer.
//!
//! This crate is a facade over the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`tensor`] | dense tensors, GEMM, im2col, seeded RNG |
//! | [`data`] | synthetic dataset profiles (CIFAR-10/100-, SVHN-, ImageNet-like) |
//! | [`nn`] | layers, switchable BN, model zoo, workload shape tables |
//! | [`quant`] | linear quantizers and precision sets |
//! | [`engine`] | batched, policy-driven serving: `Backend`, `Engine`, `ShardedEngine`, `SimBacked` |
//! | [`serve`] | TCP serving front-end: wire protocol, admission control, metrics |
//! | [`attack`] | FGSM, FGSM-RS, PGD, CW-∞, APGD, Bandits, E-PGD |
//! | [`core`] | RPS training/inference, robust evaluation, transfer matrices |
//! | [`accel`] | MAC-unit models (temporal/spatial/spatial-temporal), DNNGuard |
//! | [`dataflow`] | loop-nest dataflows, performance predictor, Alg. 2 search |
//! | [`sim`] | end-to-end accelerator simulation (Figs. 2, 7–10) |
//!
//! # Quickstart
//!
//! ```
//! use two_in_one_accel::prelude::*;
//!
//! // Train a tiny RPS model on synthetic data...
//! let profile = DatasetProfile::tiny(3, 8, 48, 24);
//! let (train, test) = generate(&profile, 0);
//! let set = PrecisionSet::new(&[4, 6, 8]);
//! let mut rng = SeededRng::new(1);
//! let mut net = zoo::preact_resnet18_rps(3, 4, 3, set.clone(), &mut rng);
//! let cfg = TrainConfig::pgd7(8.0 / 255.0).with_rps(set.clone()).with_epochs(1);
//! adversarial_train(&mut net, &train, &cfg);
//!
//! // ...and measure robust accuracy under RPS inference (served batched
//! // through the engine).
//! let attack = Pgd::new(8.0 / 255.0, 3);
//! let policy = PrecisionPolicy::Random(set);
//! let acc = robust_accuracy(&mut net, &test.take(8), &attack, &policy, &policy, 4, &mut rng);
//! assert!((0.0..=1.0).contains(&acc));
//! ```

pub use tia_accel as accel;
pub use tia_attack as attack;
pub use tia_core as core;
pub use tia_data as data;
pub use tia_dataflow as dataflow;
pub use tia_engine as engine;
pub use tia_nn as nn;
pub use tia_quant as quant;
pub use tia_serve as serve;
pub use tia_sim as sim;
pub use tia_tensor as tensor;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use tia_accel::{MacKind, MacUnit, PrecisionPair};
    pub use tia_attack::{Apgd, Attack, Bandits, CwInf, EPgd, Fgsm, FgsmRs, Pgd, TargetModel};
    pub use tia_core::{
        adversarial_train, natural_accuracy, robust_accuracy, tradeoff_curve, transfer_matrix,
        AdvMethod, TrainConfig,
    };
    pub use tia_data::{generate, Dataset, DatasetProfile};
    pub use tia_dataflow::{ArchConfig, Dataflow, EvoSearch, SearchMode, Workload};
    pub use tia_engine::{
        Backend, BatchCost, Engine, EngineConfig, PrecisionPolicy, ShardedEngine, SimBacked,
    };
    pub use tia_nn::{workload::NetworkSpec, zoo, Mode, Network};
    pub use tia_quant::{Precision, PrecisionSet};
    pub use tia_serve::{Client, Server, ServerConfig, WirePolicy};
    pub use tia_sim::{dnnguard_throughput, Accelerator};
    pub use tia_tensor::{KernelMode, SeededRng, Tensor};
}
