//! The core dense tensor type.

use crate::buf::AlignedBuf;
use crate::rng::SeededRng;

/// Maximum tensor rank. Everything in the workspace is rank 4 or below
/// (NCHW); 8 leaves headroom without bloating the inline representation.
const MAX_RANK: usize = 8;

/// An inline, copyable shape: `MAX_RANK` dims plus a rank, with unused dims
/// zeroed so derived equality is sound. Keeping the shape out of the heap
/// means constructing, cloning or reshaping a tensor never allocates for
/// its metadata — one of the invariants the allocation-free serving hot
/// path rests on.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ShapeVec {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl ShapeVec {
    /// Builds a shape from a slice.
    ///
    /// # Panics
    ///
    /// Panics if the rank exceeds [`MAX_RANK`].
    fn from_slice(shape: &[usize]) -> Self {
        assert!(
            shape.len() <= MAX_RANK,
            "tensor rank {} exceeds the supported maximum {}",
            shape.len(),
            MAX_RANK
        );
        let mut dims = [0usize; MAX_RANK];
        dims[..shape.len()].copy_from_slice(shape);
        Self {
            dims,
            rank: shape.len(),
        }
    }

    fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank]
    }
}

impl std::ops::Deref for ShapeVec {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl std::fmt::Debug for ShapeVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A dense, row-major, `f32` n-dimensional tensor.
///
/// The representation is a flat 64-byte-aligned buffer plus a shape;
/// strides are always
/// the canonical row-major strides of the shape. This keeps every operation
/// simple and predictable — ideal for a reproduction codebase where kernels
/// must be auditable against the paper's equations.
///
/// # Example
///
/// ```
/// use tia_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: ShapeVec,
    data: AlignedBuf,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(shape={:?}, data[..{}]={:?}{})",
            self.shape,
            preview.len(),
            preview,
            if self.data.len() > 8 { ", ..." } else { "" }
        )
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Self {
            shape: ShapeVec::from_slice(shape),
            data: AlignedBuf::zeroed(n),
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        let mut data = AlignedBuf::zeroed(n);
        data.fill(value);
        Self {
            shape: ShapeVec::from_slice(shape),
            data,
        }
    }

    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} != shape product {}",
            data.len(),
            n
        );
        Self {
            shape: ShapeVec::from_slice(shape),
            data: AlignedBuf::from(data),
        }
    }

    /// Creates a tensor from a flat aligned buffer and a shape — the
    /// move-in counterpart of [`Tensor::from_vec`] used by the workspace
    /// arena (no copy, alignment preserved).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_buf(data: AlignedBuf, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} != shape product {}",
            data.len(),
            n
        );
        Self {
            shape: ShapeVec::from_slice(shape),
            data,
        }
    }

    /// Creates a tensor with elements drawn from N(0, std^2).
    pub fn randn(shape: &[usize], std: f32, rng: &mut SeededRng) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.normal() * std).collect();
        Self {
            shape: ShapeVec::from_slice(shape),
            data,
        }
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut SeededRng) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| lo + (hi - lo) * rng.uniform()).collect();
        Self {
            shape: ShapeVec::from_slice(shape),
            data,
        }
    }

    /// Kaiming/He normal initialisation for a weight of the given fan-in.
    pub fn kaiming(shape: &[usize], fan_in: usize, rng: &mut SeededRng) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Self::randn(shape, std, rng)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat data as a plain `Vec`
    /// (copies out of the aligned storage).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.to_vec()
    }

    /// Consumes the tensor, returning its aligned storage (no copy) — the
    /// recycling counterpart of [`Tensor::from_buf`].
    pub fn into_buf(self) -> AlignedBuf {
        self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            n,
            "reshape {} -> {:?} invalid",
            self.data.len(),
            shape
        );
        Self {
            shape: ShapeVec::from_slice(shape),
            data: self.data.clone(),
        }
    }

    /// Element at a 2-D index (row-major).
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Element at a 4-D index (row-major, NCHW convention).
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cs, hs, ws) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cs + c) * hs + h) * ws + w]
    }

    /// Mutable element at a 4-D index.
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cs, hs, ws) = (self.shape[1], self.shape[2], self.shape[3]);
        &mut self.data[((n * cs + c) * hs + h) * ws + w]
    }

    /// Elementwise `self + other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise `self * other` (Hadamard).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise combine with a binary closure.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_with shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise map to a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place elementwise map.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Scales all elements by `s` in place.
    pub fn scale(&mut self, s: f32) {
        self.map_in_place(|v| v * s);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for the empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for the empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for the empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute value.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Clamps every element to `[lo, hi]` in place.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        self.map_in_place(|v| v.clamp(lo, hi));
    }

    /// Extracts the `n`-th slice along the first axis as a tensor of one
    /// fewer dimension.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds or the tensor is 0-D.
    pub fn index_axis0(&self, n: usize) -> Tensor {
        assert!(
            !self.shape.is_empty() && n < self.shape[0],
            "index_axis0 out of bounds"
        );
        let inner: usize = self.shape[1..].iter().product();
        let data = AlignedBuf::from_slice(&self.data[n * inner..(n + 1) * inner]);
        Tensor {
            shape: ShapeVec::from_slice(&self.shape[1..]),
            data,
        }
    }

    /// Writes `src` into the `n`-th slice along the first axis.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn set_axis0(&mut self, n: usize, src: &Tensor) {
        let inner: usize = self.shape[1..].iter().product();
        assert_eq!(src.len(), inner, "set_axis0 size mismatch");
        self.data[n * inner..(n + 1) * inner].copy_from_slice(&src.data);
    }

    /// Stacks tensors of identical shape along a new first axis.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes differ.
    pub fn stack(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "stack of zero tensors");
        let inner_shape = items[0].shape;
        let mut shape = vec![items.len()];
        shape.extend_from_slice(&inner_shape);
        let mut out = Tensor::zeros(&shape);
        for (i, t) in items.iter().enumerate() {
            assert_eq!(t.shape, inner_shape, "stack shape mismatch");
            out.set_axis0(i, t);
        }
        out
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let b = Tensor::from_vec(vec![2.0, 4.0], &[2]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = SeededRng::new(7);
        let a = Tensor::randn(&[4, 4], 1.0, &mut rng);
        let mut i = vec![0.0; 16];
        for d in 0..4 {
            i[d * 5] = 1.0;
        }
        let mut c = vec![0.0; 16];
        crate::gemm::gemm(4, 4, 4, a.data(), &i, &mut c);
        for (x, y) in c.iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let mut c = vec![0.0; 4];
        crate::gemm::gemm(2, 2, 2, a.data(), b.data(), &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn stack_and_index() {
        let a = Tensor::full(&[2, 2], 1.0);
        let b = Tensor::full(&[2, 2], 2.0);
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.index_axis0(0), a);
        assert_eq!(s.index_axis0(1), b);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]);
        let r = t.reshape(&[2, 6]);
        assert_eq!(r.shape(), &[2, 6]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn stats() {
        let t = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.abs_max(), 3.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }

    #[test]
    fn clamp_bounds() {
        let mut t = Tensor::from_vec(vec![-2.0, 0.5, 9.0], &[3]);
        t.clamp_in_place(-1.0, 1.0);
        assert_eq!(t.data(), &[-1.0, 0.5, 1.0]);
    }
}
