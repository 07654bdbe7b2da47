//! # tia-data
//!
//! Synthetic image-classification datasets for the RPS experiments.
//!
//! The paper evaluates on CIFAR-10/100, SVHN and ImageNet. Those corpora are
//! not available to this reproduction, so we substitute *synthetic* datasets
//! that preserve what the experiments actually exercise:
//!
//! * images in `[0, 1]` with the same channel count (so `ε = 8/255`-style
//!   attack budgets carry over),
//! * a configurable number of classes and spatial resolution,
//! * classes that are separable but noisy — each class is a smooth random
//!   prototype field, and samples are contrast/shift-jittered noisy copies —
//!   so adversarial training has a real margin structure to robustify.
//!
//! The RPS mechanism under test (poor transferability of gradient attacks
//! across quantization precisions) is a property of quantized networks, not
//! of natural images, so the qualitative orderings reproduce on this
//! substrate. See docs/ARCHITECTURE.md ("Substitutions").
//!
//! # Example
//!
//! ```
//! use tia_data::{DatasetProfile, generate};
//! let profile = DatasetProfile::tiny(4, 8, 64, 32);
//! let (train, test) = generate(&profile, 42);
//! assert_eq!(train.len(), 64);
//! assert_eq!(test.len(), 32);
//! assert!(train.images().data().iter().all(|&v| (0.0..=1.0).contains(&v)));
//! ```

#![deny(missing_docs)]

mod dataset;
mod profile;
mod synth;

pub use dataset::{BatchIter, Dataset};
pub use profile::DatasetProfile;
pub use synth::generate;
