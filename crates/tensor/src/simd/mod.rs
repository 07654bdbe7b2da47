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
//! * **`native`** — the best backend the host exposes: on `x86_64`,
//!   `avx2-vnni` when `is_x86_feature_detected!` finds both AVX2 and
//!   AVX-VNNI, `avx2` when it finds AVX2 alone, scalar everywhere else (the
//!   tree holds only backends CI can build and test). Both AVX2 backends are
//!   one type whose `f32` kernels are shared; they differ only in the
//!   integer tile's body (`vpdpbusd` against `vpmaddwd`). The integer tile
//!   accumulates exactly in `i32`, so its results are **bitwise
//!   identical** to scalar on every arch. `f32`
//!   kernels fall in two tiers: the micro-kernel/BN/pack paths replay the
//!   scalar rounding sequence exactly (multiply then add per lane, no FMA,
//!   no reassociation — bitwise tier), while transcendental tails
//!   (vectorized `exp`) are only ULP-bounded against scalar (tolerance
//!   tier). The differential suite in `crates/tensor/tests` enforces both
//!   tiers on every backend [`available`] lists, so a host with VNNI also
//!   runs the plain-AVX2 tile it would never dispatch to.
//!
//! The mode travels with the [`crate::Workspace`] each kernel already
//! receives (`EngineConfig` → `ServerConfig` → `tia-served --kernel`);
//! free-standing entry points use the process-wide [`KernelMode::global_default`],
//! which reads `TIA_KERNEL=scalar|native` once (default: `native`).
//!
//! Adding an arch = one file implementing [`SimdOps`] + its entries in
//! [`available`]; the differential suite picks it up automatically.

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
/// Depth of one `K` block of the integer GEMM: the block of raw activation
/// levels (`INT_MR · INT_KC` bytes, 5 KiB) plus the panel slice it meets
/// (`INT_NR · INT_KC` bytes, 20 KiB) fit a 32 KiB L1. No served layer is
/// deeper than 1152, so every one runs as a single block.
pub const INT_KC: usize = 1280;

// Every K block must start on a whole quad: the driver hands the tile
// `&panel[k0 * INT_NR..]`, which is a quad boundary only if `k0 % 4 == 0`.
const _: () = assert!(INT_KC.is_multiple_of(4));

/// Byte offset of weight `(p, j)` — depth `p`, column `j < INT_NR` — inside
/// one integer weight panel: `K` quads outermost, then the columns, then
/// the quad's four depths. So the 64 bytes at `64·(p/4)` are one tile step:
/// each 32-byte half is eight columns' four-depth dot-product operands,
/// exactly what one `vpdpbusd` multiplies against a broadcast quad of levels.
pub const fn int_panel_index(p: usize, j: usize) -> usize {
    (p / 4) * 4 * INT_NR + 4 * j + p % 4
}

/// Bytes of one integer weight panel of depth `k`: `ceil(k/4)·4·INT_NR`
/// (a depth that is not a multiple of 4 is padded to a whole quad with zero
/// weights).
pub const fn int_panel_len(k: usize) -> usize {
    k.div_ceil(4) * 4 * INT_NR
}

/// One SIMD backend: the complete set of dispatched micro-kernels.
///
/// Implementations must follow the determinism tiers documented at the
/// module level: the integer tile and the f32 micro-kernel/BN/pack kernels
/// must be bitwise identical to [`SCALAR`]'s results; `exp_sub_sum` may
/// differ from scalar by a small ULP bound.
pub trait SimdOps: Sync {
    /// Stable identifier of the backend (`"scalar"`, `"avx2"`,
    /// `"avx2-vnni"`).
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
    /// [`INT_MR`] rows of raw unsigned activation levels (`u8`, as the
    /// quantizer wrote them) and `w` is (a `K` slice of) one weight panel in
    /// the layout of [`int_panel_index`]: two's-complement `i8` bytes,
    /// [`INT_NR`] columns wide, consecutive `K` quads interleaved per column.
    /// Accumulation is exact in `i32` — order-independent, hence bitwise on
    /// every arch and under any tiling or `K`-blocking the caller chooses.
    ///
    /// `w` must hold `kc` rounded up to a whole quad. A backend may multiply
    /// through the last quad of a `kc` that is not a multiple of 4 in full,
    /// so that quad's 1–3 trailing weights must be the zero padding the
    /// layout prescribes; what `a` holds past `kc` (always inside the row,
    /// since `INT_KC` is a multiple of 4) is then irrelevant. Levels are
    /// `0..=255` and weights `-127..=127`, and the total depth accumulated
    /// into one `acc` stays `≤ 2^16`: `2^16 · 255 · 127 < 2^31` keeps every
    /// partial sum inside `i32`. The integer operands' one constructor
    /// (`tia_quant::QuantizedWeights::quantize_rows`) refuses deeper rows,
    /// so no caller can exceed it.
    ///
    /// # Panics
    ///
    /// Panics if `kc > INT_KC` or `w` is shorter than [`int_panel_len`]`(kc)`.
    fn micro_kernel_i32(
        &self,
        kc: usize,
        a: &[[u8; INT_KC]; INT_MR],
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

/// Runtime-detects the best backend for this host (done once, cached): the
/// last entry of [`available`].
pub fn detect() -> &'static dyn SimdOps {
    static FOUND: OnceLock<&'static dyn SimdOps> = OnceLock::new();
    *FOUND.get_or_init(|| available().pop().unwrap_or(&SCALAR))
}

/// Every backend this host can run, scalar first and best last: `scalar`,
/// then `avx2` if AVX2 is detected, then `avx2-vnni` if AVX-VNNI is too.
/// `native` dispatches to the last; the differential suites run them all,
/// so the bodies a better host never dispatches to are still tested on it.
pub fn available() -> Vec<&'static dyn SimdOps> {
    let mut found: Vec<&'static dyn SimdOps> = vec![&SCALAR];
    #[cfg(target_arch = "x86_64")]
    for ops in avx2::detected() {
        found.push(ops);
    }
    found
}

/// The name of the backend `Native` dispatches to on this host — logged by
/// `tia-served` at startup and recorded in bench metadata.
pub fn detect_name() -> &'static str {
    detect().name()
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
    fn native_is_the_last_available_backend() {
        let all: Vec<_> = available().iter().map(|ops| ops.name()).collect();
        assert_eq!(all[0], "scalar");
        assert_eq!(all.last(), Some(&detect_name()));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vnni_is_available_exactly_when_the_host_has_it() {
        let names: Vec<_> = available().iter().map(|ops| ops.name()).collect();
        let avx2 = is_x86_feature_detected!("avx2");
        let vnni = avx2 && is_x86_feature_detected!("avxvnni");
        assert_eq!(names.contains(&"avx2"), avx2, "{names:?}");
        assert_eq!(names.contains(&"avx2-vnni"), vnni, "{names:?}");
    }

    #[test]
    fn panel_index_is_a_bijection_onto_the_padded_panel() {
        for k in [1usize, 2, 3, 4, 5, 6, 16, 146] {
            let mut seen = vec![false; int_panel_len(k)];
            for p in 0..k.div_ceil(4) * 4 {
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
