//! 64-byte-aligned growable buffers backing every pooled/tensor allocation.
//!
//! SIMD backends (see [`crate::simd`]) load panel data with full cachelines;
//! guaranteeing 64-byte base alignment for all tensor, packed-panel and
//! workspace storage keeps those loads split-free and makes the alignment
//! contract checkable (the workspace asserts it in tests) instead of UB.
//!
//! There is one buffer type, [`AlignedBuf<T>`], generic over the three
//! element types the stack stores ([`Elem`]: `f32`, `u8`, `i32`);
//! [`AlignedBytes`] and [`AlignedInts`] are aliases of it. Data lives in a
//! `Vec` of 64-byte `#[repr(align(64))]` byte chunks with an element-typed
//! slice view over the prefix. All element access goes through safe slices;
//! the only `unsafe` is the chunk-to-element reinterpret in the two `Deref`
//! bodies, sound by the [`Elem`] contract.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// One cacheline of storage.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Chunk([u8; 64]);

impl Chunk {
    const ZERO: Self = Self([0; 64]);
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for u8 {}
    impl Sealed for i32 {}
}

/// An element type [`AlignedBuf`] can store. Sealed: `f32`, `u8` and `i32`
/// are the only implementors.
///
/// # Safety
///
/// An implementor is a plain number: every bit pattern of its
/// `size_of::<Self>()` bytes is a valid value and all-zero bytes are its
/// zero, its size divides 64, and its alignment is at most 64 — so any run
/// of initialised 64-byte-aligned chunks can be viewed as a slice of it.
// safety: the contract above is the whole argument the two `Deref` bodies
// below rest on; the trait is sealed, so the three impls are all there are.
pub unsafe trait Elem: Copy + Default + PartialEq + fmt::Debug + sealed::Sealed {}

unsafe impl Elem for f32 {} // safety: 4 bytes, align 4, every bit pattern a float, zero bits = 0.0.
unsafe impl Elem for u8 {} // safety: 1 byte, align 1, every bit pattern a value, zero bits = 0.
unsafe impl Elem for i32 {} // safety: 4 bytes, align 4, every bit pattern a value, zero bits = 0.

/// A growable buffer of `T` (default `f32`) whose storage is always
/// 64-byte aligned.
#[derive(Clone, Default)]
pub struct AlignedBuf<T: Elem = f32> {
    chunks: Vec<Chunk>,
    len: usize,
    elem: PhantomData<T>,
}

/// A growable `u8` buffer whose storage is always 64-byte aligned —
/// backing store for quantized integer panels and level matrices.
pub type AlignedBytes = AlignedBuf<u8>;

/// A growable `i32` buffer whose storage is always 64-byte aligned —
/// zero-point and accumulator scratch for the integer serving path.
pub type AlignedInts = AlignedBuf<i32>;

impl<T: Elem> AlignedBuf<T> {
    /// Number of elements per 64-byte chunk.
    const LANES: usize = 64 / std::mem::size_of::<T>();

    fn from_chunks(chunks: Vec<Chunk>, len: usize) -> Self {
        Self {
            chunks,
            len,
            elem: PhantomData,
        }
    }

    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::from_chunks(Vec::new(), 0)
    }

    /// Creates an empty buffer with room for at least `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        Self::from_chunks(Vec::with_capacity(cap.div_ceil(Self::LANES)), 0)
    }

    /// Creates a zero-filled buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        Self::from_chunks(vec![Chunk::ZERO; len.div_ceil(Self::LANES)], len)
    }

    /// Creates a buffer holding a copy of `src`.
    pub fn from_slice(src: &[T]) -> Self {
        let mut b = Self::zeroed(src.len());
        b.copy_from_slice(src);
        b
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element capacity before the chunk vector must reallocate.
    pub fn capacity(&self) -> usize {
        self.chunks.capacity() * Self::LANES
    }

    /// Grows the live region to `n` elements without initialising
    /// the new tail beyond chunk-granular zeroing of fresh chunks.
    /// Callers overwrite the exposed tail before reading it.
    fn grow_to(&mut self, n: usize) {
        let need = n.div_ceil(Self::LANES);
        if need > self.chunks.len() {
            self.chunks.resize(need, Chunk::ZERO);
        }
        self.len = n;
    }

    /// Appends one element.
    pub fn push(&mut self, v: T) {
        let i = self.len;
        self.grow_to(i + 1);
        self[i] = v;
    }

    /// Appends a copy of `src`.
    pub fn extend_from_slice(&mut self, src: &[T]) {
        let i = self.len;
        self.grow_to(i + src.len());
        self[i..].copy_from_slice(src);
    }

    /// Resizes to `n` elements, filling any new tail with `v`.
    pub fn resize(&mut self, n: usize, v: T) {
        let old = self.len;
        if n > old {
            self.grow_to(n);
            self[old..].fill(v);
        } else {
            self.truncate(n);
        }
    }

    /// Shortens to `n` elements (no-op if already shorter).
    pub fn truncate(&mut self, n: usize) {
        if n < self.len {
            self.len = n;
            self.chunks.truncate(n.div_ceil(Self::LANES));
        }
    }

    /// Empties the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.len = 0;
        self.chunks.clear();
    }

    /// The live elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        self
    }

    /// The live elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self
    }
}

impl<T: Elem> Deref for AlignedBuf<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // safety: by the `Elem` contract initialised chunk bytes are valid
        // `T`s and the chunk base is aligned for `T`; `repr(C)` chunks are
        // contiguous with no padding, the chunk vector owns
        // `chunks.len() * LANES >= len` initialised elements, and the
        // pointer is valid for the lifetime of `&self`.
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr().cast(), self.len) }
    }
}

impl<T: Elem> DerefMut for AlignedBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // safety: same layout argument as `deref`; `&mut self` guarantees
        // exclusive access to the chunk storage, and any `T` written through
        // the slice leaves the chunk bytes initialised.
        unsafe { std::slice::from_raw_parts_mut(self.chunks.as_mut_ptr().cast(), self.len) }
    }
}

impl<T: Elem> From<Vec<T>> for AlignedBuf<T> {
    fn from(v: Vec<T>) -> Self {
        Self::from_slice(&v)
    }
}

impl<T: Elem> From<&[T]> for AlignedBuf<T> {
    fn from(v: &[T]) -> Self {
        Self::from_slice(v)
    }
}

impl<'a, T: Elem> IntoIterator for &'a AlignedBuf<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a, T: Elem> IntoIterator for &'a mut AlignedBuf<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

impl<T: Elem> FromIterator<T> for AlignedBuf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut b = Self::with_capacity(iter.size_hint().0);
        for v in iter {
            b.push(v);
        }
        b
    }
}

impl<T: Elem> PartialEq for AlignedBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Elem> fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_pointer_is_64_byte_aligned() {
        for n in [1usize, 15, 16, 17, 1000] {
            assert_eq!(AlignedBuf::<f32>::zeroed(n).as_ptr() as usize % 64, 0);
            assert_eq!(AlignedBytes::zeroed(n).as_ptr() as usize % 64, 0);
            assert_eq!(AlignedInts::zeroed(n).as_ptr() as usize % 64, 0);
        }
    }

    #[test]
    fn push_extend_resize_roundtrip() {
        let mut b = AlignedBuf::new();
        assert!(b.is_empty());
        for i in 0..40 {
            b.push(i as f32);
        }
        assert_eq!(b.len(), 40);
        assert_eq!(b[17], 17.0);
        b.extend_from_slice(&[100.0, 101.0]);
        assert_eq!(b[41], 101.0);
        b.resize(5, 0.0);
        assert_eq!(b.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        b.resize(8, 9.0);
        assert_eq!(&b[5..], &[9.0, 9.0, 9.0]);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn from_and_to_vec_preserve_contents() {
        let v = vec![1.0f32, -2.5, 3.25];
        let b = AlignedBuf::from(v.clone());
        assert_eq!(b.to_vec(), v);
        let c: AlignedBuf = v.iter().copied().collect();
        assert_eq!(b, c);
        assert_eq!(format!("{:?}", AlignedBuf::from_slice(&[1.0])), "[1.0]");
    }

    #[test]
    fn truncate_then_grow_stays_consistent() {
        let mut b = AlignedBuf::from_slice(&(0..33).map(|v| v as f32).collect::<Vec<_>>());
        b.truncate(10);
        assert_eq!(b.len(), 10);
        b.resize(20, -1.0);
        assert_eq!(b[9], 9.0);
        assert!(b[10..].iter().all(|&v| v == -1.0));
    }

    #[test]
    fn byte_buffer_holds_levels() {
        let mut b = AlignedBytes::with_capacity(3);
        b.extend_from_slice(&[7, 255, 0]);
        assert_eq!(b.as_slice(), &[7, 255, 0]);
        assert!(b.capacity() >= 64);
    }
}
