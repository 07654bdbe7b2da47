//! Per-precision quantized + prepacked weight memoization of the
//! quantization-aware [`crate::Conv2d`] (and so of [`crate::Linear`], a 1×1
//! `Conv2d`).
//!
//! The memo is what makes the paper's random precision switch ~free at
//! serving time: the first forward at a precision quantizes the fp32
//! master weights and packs them into GEMM panels (or, on the integer
//! serving path, into the integer tile's byte-wide panels); every later
//! forward at that precision is a linear-scan lookup over a handful of
//! entries.
//! Invalidation is the owner's job: whenever `visit_params` hands out
//! `&mut Param` the master weights may change, so owners call
//! [`PackMemo::clear`] there.

use crate::layer::Mode;
use tia_quant::{Precision, QuantizedWeights};
use tia_tensor::{PackedMatrix, Tensor};

/// One memo entry: the fake-quantized weight tensor (backward passes
/// multiply by it) and the same values prepacked for the forward GEMM.
#[derive(Debug, Clone)]
pub(crate) struct PackedWeight {
    /// Quantized (or raw fp32) weight matrix.
    pub wq: Tensor,
    /// The identical values as prepacked micro-kernel panels.
    pub packed: PackedMatrix,
}

/// A small per-precision memo (`None` = full precision). Linear scan — the
/// candidate set is a handful of precisions, and scan beats hashing at
/// that size while staying allocation-free on hits.
///
/// The fake-quant f32 entries and the true-integer entries are memoized
/// independently: a serving process on the integer path never builds f32
/// panels, and a training process never packs integers. The two kinds
/// need not share a feature order either: f32 entries keep the master
/// `[K, C·KH·KW]` layout backward passes multiply by, while a conv's
/// integer entry is built from rows permuted to channel-last
/// `[K, KH·KW·C]` (the builder closure owns that choice; the memo only
/// stores the result).
#[derive(Debug, Clone, Default)]
pub(crate) struct PackMemo {
    entries: Vec<(Option<Precision>, PackedWeight)>,
    ints: Vec<(Precision, QuantizedWeights)>,
}

impl PackMemo {
    /// Number of distinct memoized precisions across both memo kinds
    /// (tests/diagnostics).
    pub fn len(&self) -> usize {
        self.entries.len()
            + self
                .ints
                .iter()
                .filter(|(p, _)| self.entries.iter().all(|(q, _)| *q != Some(*p)))
                .count()
    }

    /// The f32 entry for `p`, if present. Borrows only the memo, so owners
    /// can populate via [`PackMemo::entry_or_insert`] first and then hold
    /// this shared view alongside mutable borrows of their other fields.
    pub fn get(&self, p: Option<Precision>) -> Option<&PackedWeight> {
        self.entries.iter().find(|(q, _)| *q == p).map(|(_, w)| w)
    }

    /// The f32 entry for `p`, built via `build` on first use. The miss path
    /// allocates (the artifact is persistent); hits are free.
    pub fn entry_or_insert(
        &mut self,
        p: Option<Precision>,
        build: impl FnOnce() -> PackedWeight,
    ) -> &PackedWeight {
        if let Some(i) = self.entries.iter().position(|(q, _)| *q == p) {
            return &self.entries[i].1;
        }
        self.entries.push((p, build()));
        &self.entries.last().expect("just pushed").1
    }

    /// The integer entry for `p`, if present (same borrow discipline as
    /// [`PackMemo::get`]).
    pub fn get_int(&self, p: Precision) -> Option<&QuantizedWeights> {
        self.ints.iter().find(|(q, _)| *q == p).map(|(_, w)| w)
    }

    /// The integer entry for `p`, built via `build` on first use.
    pub fn int_entry_or_insert(
        &mut self,
        p: Precision,
        build: impl FnOnce() -> QuantizedWeights,
    ) -> &QuantizedWeights {
        if let Some(i) = self.ints.iter().position(|(q, _)| *q == p) {
            return &self.ints[i].1;
        }
        self.ints.push((p, build()));
        &self.ints.last().expect("just pushed").1
    }

    /// Drops every entry — called when the master weights may have changed.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.ints.clear();
    }
}

/// Crossover depth for the integer path: layers with a shallower reduction
/// stay on the f32 fake-quant path, deeper ones take the integer GEMM;
/// ≤ 4-bit precisions cross over higher. Both values were measured against
/// the row-at-a-time integer kernels the tiled GEMM replaced and are speed
/// choices of that time — the tile, which runs every precision at one
/// speed, is ahead of the f32 panels well below either.
/// They stay as they are because, while the integer grid and the fake-quant
/// grid differ, moving a layer across the crossover changes its logits
/// (ROADMAP item 1 makes that numerically free; re-measure then).
const INT_CROSSOVER_K: usize = 48;
const INT_CROSSOVER_K_SUB_BYTE: usize = 96;

/// Whether a forward call takes the true-integer serving path: inference
/// mode, a precision whose levels fit the byte-wide kernels, and a
/// reduction depth `k` past the crossover. Everything else (training,
/// eval/attack passes, >8-bit grids, shallow reductions) keeps the f32
/// fake-quant path. The kernel mode plays no part: the integer tile gives
/// the same bits on every backend, so `scalar` serves the very network
/// `native` does, only slower. The choice is a pure function of the layer
/// shape, never of the batch, so batched ≡ per-sample bitwise identity
/// survives the selection.
pub(crate) fn integer_path(mode: Mode, p: Option<Precision>, k: usize) -> Option<Precision> {
    match p {
        Some(prec)
            if mode == Mode::Infer
                && (2..=8).contains(&prec.bits())
                && k >= if prec.bits() <= 4 {
                    INT_CROSSOVER_K_SUB_BYTE
                } else {
                    INT_CROSSOVER_K
                } =>
        {
            Some(prec)
        }
        _ => None,
    }
}
