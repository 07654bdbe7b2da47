//! # tia-accel
//!
//! Analytical models of precision-scalable MAC-unit architectures — the
//! hardware half of the 2-in-1 Accelerator paper (§3):
//!
//! * **Temporal** (Stripes-style): bit-serial units; any precision, but
//!   shifter/accumulator area is set by the highest supported precision.
//! * **Spatial** (Bit Fusion-style): 16 composable 2-bit BitBricks; native
//!   2/4/8-bit, four temporal passes above 8-bit, unsupported precisions
//!   round up.
//! * **Spatial-temporal** (the paper's proposal, §3.2): four bit-serial
//!   units of ≤4×4 bit spatially tiled and dynamically composed, with
//!   **Opt-1** (reorganized bit-level split/allocation: partial sums of the
//!   *same* output share one accumulator, removing 1/n of the inter-unit
//!   shifters) and **Opt-2** (group shift-add fusion: all intra-group
//!   shifters fused into one, removing another 1/n) available as ablation
//!   switches.
//!
//! Calibration: cycle counts follow the paper's §3.2.1 scheduling exactly;
//! area/energy scalars are anchored to the published numbers — the Fig. 3
//! area fractions, "2.3× throughput/area and 4.88× energy-efficiency/op vs
//! Bit Fusion at 8-bit×8-bit" (§3.2.3) and "shifter+accumulator ≈ 90 % of a
//! 16-bit bit-serial unit" (§3.1.2). We cannot re-run 28 nm synthesis, so
//! these scalars stand in for the gate-level netlists (see
//! docs/ARCHITECTURE.md "Substitutions").
//!
//! The crate also provides the shared memory-energy model and the DNNGuard
//! robustness-aware baseline used in §4.3.2.
//!
//! # Example
//!
//! ```
//! use tia_accel::{MacKind, MacUnit, PrecisionPair};
//!
//! let ours = MacUnit::new(MacKind::spatial_temporal());
//! let bf = MacUnit::new(MacKind::Spatial);
//! let p8 = PrecisionPair::symmetric(8);
//! let ratio = (ours.products_per_cycle(p8) / ours.area())
//!     / (bf.products_per_cycle(p8) / bf.area());
//! assert!(ratio > 2.2 && ratio < 2.4); // the paper's 2.3x
//! ```

#![deny(missing_docs)]

mod area;
mod dnnguard;
mod energy;
mod mac;

pub use area::AreaBreakdown;
pub use dnnguard::DnnGuardModel;
pub use energy::{mem_energy_per_bit, MemLevel};
pub use mac::{MacKind, MacUnit, PrecisionPair};
