//! Portable SIMD kernel layer: one trait, runtime-dispatched backends.
//!
//! Every hot kernel in the workspace — the `MR×NR` GEMM micro-kernel and
//! its pack routines, quantized integer dot products, BN row passes and the
//! softmax/exp tails — is expressed against [`SimdOps`] and resolved at
//! runtime from a [`KernelMode`]:
//!
//! * **`scalar`** — the original portable Rust loops, unchanged. This is
//!   the *bitwise-pinned reference tier*: same seed ⇒ same logits on every
//!   platform, forever. CI and the chaos harness re-verify it each run.
//! * **`native`** — the best backend the host exposes (AVX2 on `x86_64`
//!   after `is_x86_feature_detected!`, NEON on `aarch64`, scalar
//!   otherwise). Integer kernels accumulate exactly in `i32`, so their
//!   results are **bitwise identical** to scalar on every arch. `f32`
//!   kernels fall in two tiers: the micro-kernel/BN/pack paths replay the
//!   scalar rounding sequence exactly (multiply then add per lane, no FMA,
//!   no reassociation — bitwise tier), while transcendental tails
//!   (vectorized `exp`) are only ULP-bounded against scalar (tolerance
//!   tier). The differential suite in `crates/tensor/tests` enforces both
//!   tiers per backend.
//!
//! The mode travels with the [`crate::Workspace`] each kernel already
//! receives (`EngineConfig` → `ServerConfig` → `tia-served --kernel`);
//! free-standing entry points use the process-wide [`KernelMode::global_default`],
//! which reads `TIA_KERNEL=scalar|native` once (default: `native`).
//!
//! Adding an arch = one file implementing [`SimdOps`] + one arm in
//! [`detect`]; the differential suite picks it up automatically.

mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

#[cfg(target_arch = "aarch64")]
mod neon;

use std::sync::OnceLock;

/// Rows of the register-held GEMM output block (micro-panel height of `A`).
pub const MR: usize = 4;
/// Columns of the register-held GEMM output block (micro-panel width of `B`).
pub const NR: usize = 8;

/// One SIMD backend: the complete set of dispatched micro-kernels.
///
/// Implementations must follow the determinism tiers documented at the
/// module level: integer kernels and the f32 micro-kernel/BN/pack kernels
/// must be bitwise identical to [`SCALAR`]'s results; `exp_sub_sum` may
/// differ from scalar by a small ULP bound.
pub trait SimdOps: Sync {
    /// Stable identifier of the backend (`"scalar"`, `"avx2"`, `"neon"`).
    fn name(&self) -> &'static str;

    /// The register-blocked GEMM inner kernel:
    /// `acc[i][j] += Σ_p ap[p*MR + i] · bp[p*NR + j]`, accumulated in
    /// increasing-`p` order with one multiply and one add per term —
    /// the exact scalar rounding sequence (bitwise tier).
    fn micro_kernel_f32(&self, kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]);

    /// Contiguous row copy used by the GEMM pack routines' fast paths
    /// (`dst.len() == src.len()`; a copy is trivially bitwise).
    fn pack_row_f32(&self, src: &[f32], dst: &mut [f32]);

    /// Widening dot product of unsigned activation levels against signed
    /// `i8` weights (`w` bytes are two's-complement `i8`), accumulated
    /// exactly in `i32` — order-independent, hence bitwise on every arch.
    ///
    /// `a.len() ≤ 2^16` keeps `Σ 255·127` inside `i32`; the integer
    /// operands' one constructor (`tia_quant::QuantizedWeights::
    /// quantize_rows`) refuses deeper rows, so no caller can exceed it.
    fn dot_u8i8(&self, a: &[u8], w: &[u8]) -> i32;

    /// Four [`SimdOps::dot_u8i8`] dots sharing one activation row — the
    /// quantized GEMM inner loop calls this so backends can amortize the
    /// activation widening across weight rows. Exact `i32` accumulation
    /// like the single dot, so the grouping cannot change any result bit.
    fn dot_u8i8_x4(&self, a: &[u8], w0: &[u8], w1: &[u8], w2: &[u8], w3: &[u8]) -> [i32; 4] {
        [
            self.dot_u8i8(a, w0),
            self.dot_u8i8(a, w1),
            self.dot_u8i8(a, w2),
            self.dot_u8i8(a, w3),
        ]
    }

    /// Packed sub-byte dot product: `k` unsigned activation levels
    /// (each `0..=15`) against `k` signed 4-bit weights packed two per
    /// byte (element `2i` in the low nibble of `w_packed[i]`, element
    /// `2i+1` in the high nibble; nibbles decode as `(n ^ 8) - 8`).
    /// Exact `i32` accumulation — bitwise on every arch.
    fn dot_u4i4(&self, k: usize, a: &[u8], w_packed: &[u8]) -> i32;

    /// Four [`SimdOps::dot_u4i4`] dots sharing one activation row — same
    /// amortization contract as [`SimdOps::dot_u8i8_x4`], same exactness.
    fn dot_u4i4_x4(
        &self,
        k: usize,
        a: &[u8],
        w0: &[u8],
        w1: &[u8],
        w2: &[u8],
        w3: &[u8],
    ) -> [i32; 4] {
        [
            self.dot_u4i4(k, a, w0),
            self.dot_u4i4(k, a, w1),
            self.dot_u4i4(k, a, w2),
            self.dot_u4i4(k, a, w3),
        ]
    }

    /// One batch-norm inference row: `y[j] = g·((x[j] − mean)·inv_std) + b`
    /// with exactly that operation order per element (bitwise tier).
    fn bn_row(&self, x: &[f32], y: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32);

    /// Maximum element (`NEG_INFINITY` for an empty slice). `max` is exact,
    /// so every association gives the same result on NaN-free input.
    fn max_f32(&self, x: &[f32]) -> f32;

    /// The softmax tail: `out[j] = exp(x[j] − m)`, returning `Σ out[j]`.
    /// The only tolerance-tier kernel: vectorized backends may use a
    /// polynomial `exp` and a reassociated sum, ULP-bounded against scalar.
    fn exp_sub_sum(&self, x: &[f32], m: f32, out: &mut [f32]) -> f32;
}

/// Which kernel tier a workspace dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// The pinned scalar reference: bitwise-reproducible everywhere.
    Scalar,
    /// Runtime-detected best backend for the host (falls back to scalar).
    #[default]
    Native,
}

impl KernelMode {
    /// Parses a mode name as accepted by `TIA_KERNEL` / `--kernel`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(Self::Scalar),
            "native" => Some(Self::Native),
            _ => None,
        }
    }

    /// The process-wide default mode: `TIA_KERNEL=scalar|native`, read once
    /// (default `native`).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized `TIA_KERNEL` value — a misspelled mode
    /// silently falling back to `native` would void the determinism
    /// contract the caller asked for, so the failure is loud and at
    /// startup.
    pub fn global_default() -> Self {
        static MODE: OnceLock<KernelMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("TIA_KERNEL") {
            Err(_) => Self::Native,
            Ok(s) => Self::parse(&s).unwrap_or_else(|| {
                // tia-lint: allow(panic-freedom, startup config error — a typo silently falling back to native would void the requested determinism tier)
                panic!("TIA_KERNEL must be \"scalar\" or \"native\", got {s:?}")
            }),
        })
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Scalar => "scalar",
            Self::Native => "native",
        })
    }
}

/// The pinned scalar reference backend.
pub static SCALAR: scalar::ScalarOps = scalar::ScalarOps;

/// Resolves a mode to its backend. `Scalar` always returns the pinned
/// reference; `Native` returns [`detect`]'s choice for this host.
pub fn backend(mode: KernelMode) -> &'static dyn SimdOps {
    match mode {
        KernelMode::Scalar => &SCALAR,
        KernelMode::Native => detect(),
    }
}

/// Runtime-detects the best backend for this host (done once, cached).
pub fn detect() -> &'static dyn SimdOps {
    static FOUND: OnceLock<&'static dyn SimdOps> = OnceLock::new();
    *FOUND.get_or_init(native)
}

/// The name of the backend `Native` dispatches to on this host — logged by
/// `tia-served` at startup and recorded in bench metadata.
pub fn detect_name() -> &'static str {
    detect().name()
}

#[cfg(target_arch = "x86_64")]
fn native() -> &'static dyn SimdOps {
    if is_x86_feature_detected!("avx2") {
        static AVX2: avx2::Avx2Ops = avx2::Avx2Ops;
        &AVX2
    } else {
        &SCALAR
    }
}

#[cfg(target_arch = "aarch64")]
fn native() -> &'static dyn SimdOps {
    // NEON is baseline on aarch64 — no runtime probe needed.
    static NEON: neon::NeonOps = neon::NeonOps;
    &NEON
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn native() -> &'static dyn SimdOps {
    &SCALAR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_mode_always_resolves_to_scalar() {
        assert_eq!(backend(KernelMode::Scalar).name(), "scalar");
    }

    #[test]
    fn native_detection_is_stable() {
        assert_eq!(detect_name(), detect_name());
        assert_eq!(backend(KernelMode::Native).name(), detect_name());
    }

    #[test]
    fn mode_parse_roundtrip() {
        assert_eq!(KernelMode::parse("scalar"), Some(KernelMode::Scalar));
        assert_eq!(KernelMode::parse("native"), Some(KernelMode::Native));
        assert_eq!(KernelMode::parse("avx2"), None);
        assert_eq!(KernelMode::Scalar.to_string(), "scalar");
        assert_eq!(KernelMode::Native.to_string(), "native");
    }
}
