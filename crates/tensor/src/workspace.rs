//! Reusable scratch-buffer arena for allocation-free hot paths.
//!
//! Serving the same model shape over and over makes every intermediate
//! buffer — im2col columns, GEMM pack panels, quantized activations, layer
//! outputs — a fixed-size request repeated each batch. [`Workspace`] turns
//! that repetition into reuse: buffers are *taken* from a pool, used, and
//! *recycled* back, so after a warmup pass the steady state performs no
//! heap allocation at all (a buffer whose capacity already suffices is
//! resized in place).
//!
//! The pool is deliberately dumb — one flat list of [`AlignedBuf<T>`] per
//! element type (`f32` activations, `u8` quantized levels, `i32` zero
//! points), all three served by the same best-fit `take` and capped `put`.
//! The take/recycle sequence of a fixed model shape is itself fixed, so
//! the pool converges to one buffer per concurrently live request after at
//! most a few iterations, and stays there. Every pooled buffer is 64-byte
//! aligned, the contract SIMD panel loads build on (see [`crate::simd`]).
//!
//! Recycling is cooperative, not tracked: a buffer that escapes (a logits
//! tensor handed to a caller) is simply never returned, and the pool
//! replaces it on the next take. Nothing breaks — one allocation happens.
//!
//! The workspace also carries the session's [`KernelMode`]: every GEMM and
//! row-pass kernel that receives a workspace resolves its SIMD backend from
//! it, so one flag threaded through `EngineConfig` switches the whole layer
//! stack between the portable scalar loops and native dispatch — a speed
//! choice, with the same bits either way.

use crate::buf::{AlignedBuf, AlignedBytes, AlignedInts, Elem};
use crate::simd::KernelMode;
use crate::tensor::Tensor;

/// A pool of reusable 64-byte-aligned scratch buffers.
///
/// # Example
///
/// ```
/// use tia_tensor::Workspace;
/// let mut ws = Workspace::new();
/// let a = ws.take_zeroed(128);
/// assert_eq!(a.len(), 128);
/// ws.recycle(a);
/// let b = ws.take_zeroed(64); // reuses the 128-capacity buffer
/// assert!(b.capacity() >= 128);
/// ```
#[derive(Debug)]
pub struct Workspace {
    pool: Vec<AlignedBuf>,
    byte_pool: Vec<AlignedBytes>,
    int_pool: Vec<AlignedInts>,
    kernel: KernelMode,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Cloning a workspace yields an *empty* one with the same kernel mode:
/// scratch contents are meaningless across owners, and a cloned `Network`
/// replica must not drag another replica's warm buffers (each shard warms
/// its own).
impl Clone for Workspace {
    fn clone(&self) -> Self {
        let mut ws = Self::new();
        ws.kernel = self.kernel;
        ws
    }
}

/// Pops the best-fitting pooled buffer (smallest capacity `>= n`), or
/// allocates a fresh one when nothing fits, and sizes it to `n` elements of
/// unspecified contents.
fn take<T: Elem>(pool: &mut Vec<AlignedBuf<T>>, n: usize) -> AlignedBuf<T> {
    let mut best: Option<(usize, usize)> = None;
    for (i, b) in pool.iter().enumerate() {
        let cap = b.capacity();
        if cap >= n && best.is_none_or(|(_, bc)| cap < bc) {
            best = Some((i, cap));
        }
    }
    let mut b = match best {
        Some((i, _)) => pool.swap_remove(i),
        None => AlignedBuf::with_capacity(n),
    };
    b.resize(n, T::default());
    b
}

/// Parks a buffer for reuse. Zero-capacity buffers and buffers beyond
/// [`Workspace::MAX_POOLED`] are dropped instead.
fn put<T: Elem>(pool: &mut Vec<AlignedBuf<T>>, buf: AlignedBuf<T>) {
    if buf.capacity() > 0 && pool.len() < Workspace::MAX_POOLED {
        pool.push(buf);
    }
}

impl Workspace {
    /// Hard cap on the buffers parked per pool. Paths that recycle more than
    /// they take (e.g. a server handed externally allocated request tensors
    /// every burst) must not grow the pool without bound: beyond the cap,
    /// recycled buffers are simply dropped — a later take allocates, which
    /// is graceful degradation, not a leak. The cap is far above any layer
    /// stack's steady-state working set, so hot paths never hit it.
    pub const MAX_POOLED: usize = 256;

    /// Creates an empty workspace with the process-wide default kernel
    /// mode (`TIA_KERNEL`). Allocation-free until the first take.
    pub fn new() -> Self {
        Self {
            pool: Vec::new(),
            byte_pool: Vec::new(),
            int_pool: Vec::new(),
            kernel: KernelMode::global_default(),
        }
    }

    /// The kernel dispatch mode kernels resolve their SIMD backend from.
    pub fn kernel(&self) -> KernelMode {
        self.kernel
    }

    /// Sets the kernel dispatch mode for every kernel that runs over this
    /// workspace.
    pub fn set_kernel(&mut self, kernel: KernelMode) {
        self.kernel = kernel;
    }

    /// Number of `f32` buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Takes a buffer of exactly `n` zeros.
    pub fn take_zeroed(&mut self, n: usize) -> AlignedBuf {
        let mut b = take(&mut self.pool, n);
        b.fill(0.0);
        b
    }

    /// Takes a buffer of length `n` with *unspecified contents* — for
    /// scratch that is fully overwritten before being read (GEMM pack
    /// panels, quantized-activation staging). Skips the zero fill.
    pub fn take_spare(&mut self, n: usize) -> AlignedBuf {
        take(&mut self.pool, n)
    }

    /// Takes a buffer holding a copy of `src`.
    pub fn take_copy(&mut self, src: &[f32]) -> AlignedBuf {
        let mut b = take(&mut self.pool, src.len());
        b.copy_from_slice(src);
        b
    }

    /// Returns a buffer to the pool for reuse. Zero-capacity buffers and
    /// buffers beyond the pool cap are dropped instead of parked.
    pub fn recycle(&mut self, buf: AlignedBuf) {
        put(&mut self.pool, buf);
    }

    /// Takes a byte buffer of length `n` with unspecified contents — the
    /// integer twin of [`Self::take_spare`], staging quantized activation
    /// levels and packed panels.
    pub fn take_bytes_spare(&mut self, n: usize) -> AlignedBytes {
        take(&mut self.byte_pool, n)
    }

    /// Returns a byte buffer to the pool for reuse (the twin of
    /// [`Self::recycle`]).
    pub fn recycle_bytes(&mut self, buf: AlignedBytes) {
        put(&mut self.byte_pool, buf);
    }

    /// Takes an `i32` buffer of length `n` with unspecified contents —
    /// zero-point staging for the integer serving path.
    pub fn take_ints_spare(&mut self, n: usize) -> AlignedInts {
        take(&mut self.int_pool, n)
    }

    /// Returns an `i32` buffer to the pool for reuse.
    pub fn recycle_ints(&mut self, buf: AlignedInts) {
        put(&mut self.int_pool, buf);
    }

    /// Takes a zero-filled tensor whose storage comes from the pool.
    pub fn tensor_zeroed(&mut self, shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        Tensor::from_buf(self.take_zeroed(n), shape)
    }

    /// Takes a tensor with unspecified contents (see [`Self::take_spare`]).
    pub fn tensor_spare(&mut self, shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        Tensor::from_buf(self.take_spare(n), shape)
    }

    /// Takes a tensor holding a copy of `src`'s data under a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn tensor_copy(&mut self, src: &Tensor, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(src.len(), n, "tensor_copy element count mismatch");
        Tensor::from_buf(self.take_copy(src.data()), shape)
    }

    /// Recycles a tensor's storage back into the pool.
    pub fn recycle_tensor(&mut self, t: Tensor) {
        self.recycle(t.into_buf());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_reuses_capacity() {
        let mut ws = Workspace::new();
        let a = ws.take_zeroed(100);
        let ptr = a.as_ptr();
        ws.recycle(a);
        let b = ws.take_zeroed(50);
        assert_eq!(b.as_ptr(), ptr, "smaller request must reuse the buffer");
        assert_eq!(b.len(), 50);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn every_pooled_buffer_is_64_byte_aligned() {
        // The SIMD alignment contract: whatever the request size and however
        // buffers cycle through the pool, storage stays cacheline-aligned.
        let mut ws = Workspace::new();
        for n in [1usize, 7, 64, 100, 1023] {
            let f = ws.take_spare(n);
            assert_eq!(f.as_ptr() as usize % 64, 0, "f32 buffer misaligned");
            let y = ws.take_bytes_spare(n);
            assert_eq!(y.as_ptr() as usize % 64, 0, "byte buffer misaligned");
            ws.recycle(f);
            ws.recycle_bytes(y);
        }
        let t = ws.tensor_zeroed(&[3, 5]);
        assert_eq!(t.data().as_ptr() as usize % 64, 0, "tensor misaligned");
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        let small = ws.take_zeroed(10);
        let big = ws.take_zeroed(1000);
        let (sp, bp) = (small.as_ptr(), big.as_ptr());
        ws.recycle(big);
        ws.recycle(small);
        let first = ws.take_zeroed(5);
        let second = ws.take_zeroed(5);
        assert_eq!(first.as_ptr(), sp);
        assert_eq!(second.as_ptr(), bp, "only the big one is left");
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let mut ws = Workspace::new();
        let mut a = ws.take_zeroed(4);
        a.iter_mut().for_each(|v| *v = 7.0);
        ws.recycle(a);
        assert!(ws.take_zeroed(4).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn typed_entry_points_share_one_pool_policy() {
        // take / put / take hands the same storage back, whatever the type.
        let mut ws = Workspace::new();
        let f = ws.take_spare(128);
        let y = ws.take_bytes_spare(128);
        let z = ws.take_ints_spare(128);
        let ptrs = (f.as_ptr(), y.as_ptr(), z.as_ptr());
        ws.recycle(f);
        ws.recycle_bytes(y);
        ws.recycle_ints(z);
        assert_eq!((ws.pooled(), ws.byte_pool.len()), (1, 1));
        let (f, y, z) = (
            ws.take_spare(64),
            ws.take_bytes_spare(64),
            ws.take_ints_spare(64),
        );
        assert_eq!((f.as_ptr(), y.as_ptr(), z.as_ptr()), ptrs);
        assert_eq!((f.len(), y.len(), z.len()), (64, 64, 64));
        assert_eq!((ws.pooled(), ws.byte_pool.len()), (0, 0));
    }

    #[test]
    fn take_copy_and_tensors() {
        let mut ws = Workspace::new();
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = ws.tensor_copy(&t, &[4]);
        assert_eq!(c.data(), t.data());
        assert_eq!(c.shape(), &[4]);
        ws.recycle_tensor(c);
        let z = ws.tensor_zeroed(&[2, 2]);
        assert_eq!(z.shape(), &[2, 2]);
        assert!(z.data().iter().all(|&v| v == 0.0));
        assert_eq!(ws.pooled(), 0);
        ws.recycle_tensor(z);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn clone_is_empty_but_keeps_kernel() {
        let mut ws = Workspace::new();
        ws.set_kernel(KernelMode::Scalar);
        ws.recycle(AlignedBuf::zeroed(64));
        let c = ws.clone();
        assert_eq!(c.pooled(), 0);
        assert_eq!(c.kernel(), KernelMode::Scalar);
    }

    #[test]
    fn pool_is_bounded() {
        // Recycling more than the cap (a server fed externally allocated
        // tensors every burst) must not grow the pool without bound.
        let mut ws = Workspace::new();
        for _ in 0..2 * Workspace::MAX_POOLED {
            ws.recycle(AlignedBuf::zeroed(8));
            ws.recycle_bytes(AlignedBytes::zeroed(8));
        }
        assert_eq!(ws.pooled(), Workspace::MAX_POOLED);
        assert_eq!(ws.byte_pool.len(), Workspace::MAX_POOLED);
    }

    #[test]
    fn steady_state_stops_allocating() {
        // A fixed take/recycle cycle converges: after the first pass every
        // request finds a pooled fit, so capacities (and pointers) stabilise.
        let mut ws = Workspace::new();
        let sizes = [100usize, 30, 470, 30, 12];
        let run = |ws: &mut Workspace| {
            let bufs: Vec<AlignedBuf> = sizes.iter().map(|&n| ws.take_spare(n)).collect();
            let ptrs: Vec<*const f32> = bufs.iter().map(|b| b.as_ptr()).collect();
            for b in bufs {
                ws.recycle(b);
            }
            ptrs
        };
        let _ = run(&mut ws); // warmup
        let a = run(&mut ws);
        let b = run(&mut ws);
        assert_eq!(a, b, "steady-state buffer assignment must be stable");
    }
}
