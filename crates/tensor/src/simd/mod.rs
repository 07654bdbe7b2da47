//! Portable SIMD kernel layer: one trait, runtime-dispatched backends.
//!
//! Every hot kernel in the workspace — the `MR×NR` GEMM micro-kernel and
//! its pack routines, the quantized integer GEMM's `INT_MR×INT_NR` tile, BN
//! row passes and the softmax/exp tails — is expressed against [`SimdOps`]
//! and resolved at runtime from a [`KernelMode`]:
//!
//! * **`scalar`** — the original portable Rust loops, unchanged. This is
//!   the *bitwise-pinned reference tier*: same seed ⇒ same logits on every
//!   platform, forever. CI and the chaos harness re-verify it each run.
//! * **`native`** — the best backend the host exposes (AVX2 on `x86_64`
//!   after `is_x86_feature_detected!`, scalar everywhere else: the tree
//!   holds only backends CI can build and test). The integer tile
//!   accumulates exactly in `i32`, so its results are **bitwise
//!   identical** to scalar on every arch. `f32`
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

use std::sync::OnceLock;

/// Rows of the register-held GEMM output block (micro-panel height of `A`).
pub const MR: usize = 4;
/// Columns of the register-held GEMM output block (micro-panel width of `B`).
pub const NR: usize = 8;

/// Activation rows of the integer GEMM's register tile.
pub const INT_MR: usize = 4;
/// Weight rows (output features) per integer panel and register tile: two
/// 8-lane `i32` vectors per activation row on AVX2.
pub const INT_NR: usize = 16;
/// Depth of one `K` block of the integer GEMM: the largest multiple of 256
/// for which a block of widened activations (`INT_MR · INT_KC` `i16`s,
/// 10 KiB) plus the panel slice it meets (`INT_NR · INT_KC` bytes, 20 KiB)
/// fit a 32 KiB L1. Even, so every block starts on a whole `K` pair.
pub const INT_KC: usize = 1280;

/// Byte offset of weight `(p, j)` — depth `p`, column `j < INT_NR` — inside
/// one integer weight panel: `K` pairs outermost, then the columns, then
/// the pair's two depths, so the 32 bytes at `32·(p/2)` are everything one
/// `vpmaddwd` step of the tile needs.
pub const fn int_panel_index(p: usize, j: usize) -> usize {
    (p / 2) * 2 * INT_NR + 2 * j + p % 2
}

/// Bytes of one integer weight panel of depth `k` (odd depths are padded to
/// a whole pair with a zero weight).
pub const fn int_panel_len(k: usize) -> usize {
    k.div_ceil(2) * 2 * INT_NR
}

/// One SIMD backend: the complete set of dispatched micro-kernels.
///
/// Implementations must follow the determinism tiers documented at the
/// module level: the integer tile and the f32 micro-kernel/BN/pack kernels
/// must be bitwise identical to [`SCALAR`]'s results; `exp_sub_sum` may
/// differ from scalar by a small ULP bound.
pub trait SimdOps: Sync {
    /// Stable identifier of the backend (`"scalar"`, `"avx2"`).
    fn name(&self) -> &'static str;

    /// The register-blocked GEMM inner kernel:
    /// `acc[i][j] += Σ_p ap[p*MR + i] · bp[p*NR + j]`, accumulated in
    /// increasing-`p` order with one multiply and one add per term —
    /// the exact scalar rounding sequence (bitwise tier).
    fn micro_kernel_f32(&self, kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]);

    /// Contiguous row copy used by the GEMM pack routines' fast paths
    /// (`dst.len() == src.len()`; a copy is trivially bitwise).
    fn pack_row_f32(&self, src: &[f32], dst: &mut [f32]);

    /// The register-blocked integer GEMM inner kernel, shaped like
    /// [`SimdOps::micro_kernel_f32`]:
    /// `acc[i][j] += Σ_{p < kc} a[i][p] · w(p, j)`, where `a` holds
    /// [`INT_MR`] rows of unsigned activation levels widened to `i16` and
    /// `w` is (a `K` slice of) one weight panel in the layout of
    /// [`int_panel_index`]: two's-complement `i8` bytes, [`INT_NR`] columns
    /// wide, consecutive `K` pairs interleaved per column. Accumulation is
    /// exact in `i32` — order-independent, hence bitwise on every arch and
    /// under any tiling or `K`-blocking the caller chooses.
    ///
    /// `w` must hold `kc` rounded up to a whole pair. A backend may multiply
    /// through the last pair of an odd `kc` in full, so that pair's second
    /// weight must be the zero padding the layout prescribes; what `a` holds
    /// past `kc` is then irrelevant. Levels are `0..=255`, and
    /// the total depth accumulated into one `acc` stays `≤ 2^16`, which
    /// keeps `Σ 255·127` inside `i32`; the integer operands' one
    /// constructor (`tia_quant::QuantizedWeights::quantize_rows`) refuses
    /// deeper rows, so no caller can exceed it.
    ///
    /// # Panics
    ///
    /// Panics if `kc > INT_KC` or `w` is shorter than [`int_panel_len`]`(kc)`.
    fn micro_kernel_i32(
        &self,
        kc: usize,
        a: &[[i16; INT_KC]; INT_MR],
        w: &[u8],
        acc: &mut [[i32; INT_NR]; INT_MR],
    );

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

#[cfg(not(target_arch = "x86_64"))]
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
    fn panel_index_is_a_bijection_onto_the_padded_panel() {
        for k in [1usize, 2, 5, 16] {
            let mut seen = vec![false; int_panel_len(k)];
            for p in 0..k.div_ceil(2) * 2 {
                for j in 0..INT_NR {
                    assert!(!std::mem::replace(&mut seen[int_panel_index(p, j)], true));
                }
            }
            assert!(seen.iter().all(|&s| s), "k={k}");
        }
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
