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
//!   accumulates exactly in `i32` and dequantizes in the scalar
//!   expression's operation order, so its results are **bitwise
//!   identical** to scalar on every arch. `f32` kernels fall in two tiers:
//!   the micro-kernel/BN/pack paths replay the scalar rounding sequence
//!   exactly (multiply then add per lane, no FMA, no reassociation —
//!   bitwise tier), while transcendental tails
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
/// Deepest reduction an integer tile takes: `2^16 · 255 · 128 < 2^31`, so
/// no `i32` sum of `u8` levels against `i8` weights, and no zero-point
/// correction of one, can leave `i32` (see [`SimdOps::int_tile`]).
pub const INT_MAX_DEPTH: usize = 1 << 16;

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

/// One activation row of an integer tile: the affine grid its levels were
/// quantized on, and where its column-0 output goes.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntRow {
    /// Grid step `s_a`.
    pub scale: f32,
    /// Level `z` that represents `0.0` (`0..=255`).
    pub zero_point: i32,
    /// Index in `out` of the row's output for column 0.
    pub out: usize,
}

/// The weight rows (output columns) of an integer tile, one entry per
/// valid column, `nc ≤ INT_NR` of them.
#[derive(Debug, Clone, Copy)]
pub struct IntCols<'a> {
    /// Per-column grid step `s_w`.
    pub scales: &'a [f32],
    /// Per-column weight sum `Σt`, for the zero-point correction.
    pub row_sums: &'a [i32],
    /// Per-column bias, added last.
    pub bias: Option<&'a [f32]>,
    /// Distance in `out` between consecutive columns' outputs.
    pub stride: usize,
}

/// The preconditions of [`SimdOps::int_tile`], checked in full before any
/// backend touches memory. Returns whether the tile has anything to store.
fn check_int_tile(
    k: usize,
    a: &[u8],
    w: &[u8],
    rows: &[IntRow],
    cols: &IntCols<'_>,
    out: &[f32],
) -> bool {
    let (mr, nc) = (rows.len(), cols.scales.len());
    assert!(
        mr <= INT_MR && nc <= INT_NR,
        "int_tile: {mr}x{nc} exceeds the tile"
    );
    assert!(k <= INT_MAX_DEPTH, "int_tile: depth {k} could overflow i32");
    assert!(
        a.len() >= mr * k && w.len() >= int_panel_len(k),
        "int_tile: operands shorter than {mr} rows of depth {k}"
    );
    assert!(
        cols.row_sums.len() == nc && cols.bias.is_none_or(|b| b.len() == nc),
        "int_tile: column operands differ in length"
    );
    if mr == 0 || nc == 0 {
        return false;
    }
    let span = (nc - 1).checked_mul(cols.stride);
    assert!(
        rows.iter().all(|r| span
            .and_then(|s| s.checked_add(r.out))
            .is_some_and(|last| last < out.len())),
        "int_tile: an output index is outside `out`"
    );
    true
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

    /// One integer GEMM tile, from activation levels to stored floats: for
    /// each tile row `i < rows.len()` (at most [`INT_MR`]) and column
    /// `j < nc = cols.scales.len()` (at most [`INT_NR`]),
    ///
    /// ```text
    /// acc = Σ_{p < k} a[i·k + p] · w(p, j)
    /// out[rows[i].out + j·cols.stride] = (s_a · s_w) · ((acc − z·Σt) as f32) (+ b)
    /// ```
    ///
    /// with `s_a`, `z` from `rows[i]` and `s_w`, `Σt`, `b` from `cols` at
    /// `j`. `a` holds the tile's rows of raw unsigned levels in place, `k`
    /// bytes apart (a level matrix `[m, k]` sliced at the tile's first row),
    /// and is never read past row `rows.len() − 1`'s byte `k`. `w` is one
    /// weight panel in the layout of [`int_panel_index`]: two's-complement
    /// `i8` bytes, [`INT_NR`] columns wide, `K` quads interleaved, the 1–3
    /// padding weights of a partial last quad zero.
    ///
    /// The sums are exact in `i32`, so every backend and every summation
    /// order gives the same bits. The correction `acc − z·Σt = Σ(q − z)·t`
    /// stays in `i32` too: with levels and `z` in `0..=255`, weights in
    /// `-128..=127` and `k ≤` [`INT_MAX_DEPTH`], `|z·Σt|` and `|Σ(q − z)·t|`
    /// are below `2^16 · 255 · 128 < 2^31`, and `i32 → f32` rounds as any
    /// wider integer of the same value would. The scalar backend holds the
    /// expression; a vector backend replays its operation order per lane.
    ///
    /// # Panics
    ///
    /// Panics if the tile exceeds `INT_MR × INT_NR`, `k > INT_MAX_DEPTH`,
    /// `a` is shorter than `rows.len()·k` or `w` than [`int_panel_len`]`(k)`,
    /// the column operands differ in length, or an output index is outside
    /// `out`.
    fn int_tile(
        &self,
        k: usize,
        a: &[u8],
        w: &[u8],
        rows: &[IntRow],
        cols: IntCols<'_>,
        out: &mut [f32],
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
