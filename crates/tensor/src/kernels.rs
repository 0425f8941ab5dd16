//! Compute kernels: GEMM, convolution lowering (im2col/col2im), pooling,
//! upsampling, permutation, concatenation.
//!
//! Every kernel is reachable as an inherent method on [`Tensor`] so it is
//! discoverable from the type. The forward kernels themselves live in
//! [`crate::lowlevel`] (shared with the compiled plan); the methods here
//! check shapes, allocate the output and call them. Shape preconditions are
//! documented per method and violations panic — these are internal hot
//! paths where a malformed shape is a programming error, not a recoverable
//! condition.
//!
//! # Parallel dispatch and serial equivalence
//!
//! The hot kernels (GEMM, batched GEMM, im2col/col2im, pooling,
//! upsampling) route through [`mfaplace_rt::pool`] when the work exceeds
//! the `PAR_*` thresholds below. Every dispatch splits the **output**
//! buffer into disjoint chunks and keeps the per-element computation —
//! including the order of floating-point accumulation — identical to the
//! serial loop, so results are bitwise identical at any thread count
//! (`MFAPLACE_THREADS=1` vs. N is exact, not approximate). The thresholds
//! keep small tensors on the serial path where thread spawn overhead would
//! dominate.

use mfaplace_rt::pool;

use crate::lowlevel::{self, BmmKind};
use crate::{strides_for, Tensor};

/// Minimum multiply-add count before a GEMM fans out to the pool.
pub(crate) const PAR_GEMM_FLOPS: usize = 1 << 19;
/// Minimum element count before data-movement kernels (im2col, col2im,
/// pooling, upsampling) fan out to the pool.
pub(crate) const PAR_ELEMS: usize = 1 << 16;

impl Tensor {
    // ------------------------------------------------------------- matmul

    /// Matrix product of `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching inner dimension.
    pub fn matmul2d(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul2d lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul2d rhs must be rank-2");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul2d inner dimension mismatch");
        let mut out = vec![0.0f32; m * n];
        gemm(self.data(), other.data(), &mut out, m, k, n, false);
        Tensor::from_vec(vec![m, n], out).expect("matmul2d shape")
    }

    /// Batched matrix product of `[b, m, k] x [b, k, n] -> [b, m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-3 with matching batch and inner
    /// dimensions.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        self.bmm_kind(other, BmmKind::Nn)
    }

    /// [`Tensor::matmul2d`] writing into a caller-provided buffer (any
    /// contents; it is overwritten). This is the allocation-free entry point
    /// used by the autograd tape's buffer pool.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch or if `out.len() != m * n`.
    pub fn matmul2d_into(&self, other: &Tensor, out: &mut [f32]) {
        assert_eq!(self.rank(), 2, "matmul2d lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul2d rhs must be rank-2");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul2d inner dimension mismatch");
        assert_eq!(out.len(), m * n, "matmul2d_into output length mismatch");
        gemm(self.data(), other.data(), out, m, k, n, false);
    }

    /// Transpose-aware matrix product `a x b^T`: `[m, k] x [n, k] -> [m, n]`.
    ///
    /// Bitwise identical to `self.matmul2d(&other.transpose2d())` — the
    /// per-element reduction runs over `k` in increasing index order with
    /// the same lhs zero-skip as [`Tensor::matmul2d`] — without
    /// materializing the transposed copy.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching trailing
    /// dimension.
    pub fn matmul2d_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul2d_nt lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul2d_nt rhs must be rank-2");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul2d_nt inner dimension mismatch");
        let mut out = vec![0.0f32; m * n];
        gemm_nt(self.data(), other.data(), &mut out, m, k, n);
        Tensor::from_vec(vec![m, n], out).expect("matmul2d_nt shape")
    }

    /// Transpose-aware matrix product `a^T x b`: `[k, m] x [k, n] -> [m, n]`.
    ///
    /// Bitwise identical to `self.transpose2d().matmul2d(&other)` (same
    /// reduction order and zero-skip on the transposed-lhs element) without
    /// materializing the transposed copy.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching leading
    /// dimension.
    pub fn matmul2d_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul2d_tn lhs must be rank-2");
        assert_eq!(other.rank(), 2, "matmul2d_tn rhs must be rank-2");
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul2d_tn inner dimension mismatch");
        let mut out = vec![0.0f32; m * n];
        gemm_tn(self.data(), other.data(), &mut out, m, k, n);
        Tensor::from_vec(vec![m, n], out).expect("matmul2d_tn shape")
    }

    /// Batched `a x b^T`: `[b, m, k] x [b, n, k] -> [b, m, n]`.
    ///
    /// Bitwise identical to `self.bmm(&other.permute(&[0, 2, 1]))` without
    /// materializing the permuted copy.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-3 with matching batch and
    /// trailing dimensions, or if `out.len()` mismatches in the `_into`
    /// variant.
    pub fn bmm_nt(&self, other: &Tensor) -> Tensor {
        self.bmm_kind(other, BmmKind::Nt)
    }

    /// [`Tensor::bmm_nt`] writing into a caller-provided buffer (any
    /// contents; every element is overwritten).
    pub fn bmm_nt_into(&self, other: &Tensor, out: &mut [f32]) {
        self.bmm_kind_into(other, BmmKind::Nt, out);
    }

    /// Batched `a^T x b`: `[b, k, m] x [b, k, n] -> [b, m, n]`.
    ///
    /// Bitwise identical to `self.permute(&[0, 2, 1]).bmm(&other)` without
    /// materializing the permuted copy.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-3 with matching batch and
    /// leading dimensions, or if `out.len()` mismatches in the `_into`
    /// variant.
    pub fn bmm_tn(&self, other: &Tensor) -> Tensor {
        self.bmm_kind(other, BmmKind::Tn)
    }

    /// [`Tensor::bmm_tn`] writing into a caller-provided buffer (any
    /// contents; every element is overwritten).
    pub fn bmm_tn_into(&self, other: &Tensor, out: &mut [f32]) {
        self.bmm_kind_into(other, BmmKind::Tn, out);
    }

    fn bmm_kind(&self, other: &Tensor, kind: BmmKind) -> Tensor {
        let (b, m, _, n) = self.bmm_dims(other, kind);
        let mut out = vec![0.0f32; b * m * n];
        self.bmm_kind_into(other, kind, &mut out);
        Tensor::from_vec(vec![b, m, n], out).expect("bmm shape")
    }

    fn bmm_kind_into(&self, other: &Tensor, kind: BmmKind, out: &mut [f32]) {
        let (b, m, k, n) = self.bmm_dims(other, kind);
        lowlevel::bmm_into(kind, self.data(), other.data(), out, b, m, k, n);
    }

    /// `(batch, m, k, n)` of a batched product in the given layout.
    fn bmm_dims(&self, other: &Tensor, kind: BmmKind) -> (usize, usize, usize, usize) {
        assert_eq!(self.rank(), 3, "{kind:?} bmm lhs must be rank-3");
        assert_eq!(other.rank(), 3, "{kind:?} bmm rhs must be rank-3");
        let (sa, sb) = (self.shape(), other.shape());
        let (m, k) = match kind {
            BmmKind::Tn => (sa[2], sa[1]),
            BmmKind::Nn | BmmKind::Nt => (sa[1], sa[2]),
        };
        let (k2, n) = match kind {
            BmmKind::Nt => (sb[2], sb[1]),
            BmmKind::Nn | BmmKind::Tn => (sb[1], sb[2]),
        };
        assert_eq!(sa[0], sb[0], "{kind:?} bmm batch mismatch");
        assert_eq!(k, k2, "{kind:?} bmm inner dimension mismatch");
        (sa[0], m, k, n)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// Cache-blocked: the matrix is walked in `TILE x TILE` tiles so both
    /// the strided reads and the strided writes stay within a tile that
    /// fits in L1, instead of streaming one side with a full-column stride.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-2.
    pub fn transpose2d(&self) -> Tensor {
        const TILE: usize = 32;
        assert_eq!(self.rank(), 2, "transpose2d requires rank-2");
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let src = self.data();
        let mut out = vec![0.0f32; m * n];
        for i0 in (0..m).step_by(TILE) {
            let i1 = (i0 + TILE).min(m);
            for j0 in (0..n).step_by(TILE) {
                let j1 = (j0 + TILE).min(n);
                for i in i0..i1 {
                    for j in j0..j1 {
                        out[j * m + i] = src[i * n + j];
                    }
                }
            }
        }
        Tensor::from_vec(vec![n, m], out).expect("transpose2d shape")
    }

    /// General axis permutation (like `np.transpose`).
    ///
    /// # Panics
    ///
    /// Panics if `axes` is not a permutation of `0..rank`.
    pub fn permute(&self, axes: &[usize]) -> Tensor {
        let rank = self.rank();
        assert_eq!(axes.len(), rank, "permute axes rank mismatch");
        let mut seen = vec![false; rank];
        for &a in axes {
            assert!(a < rank && !seen[a], "permute axes must be a permutation");
            seen[a] = true;
        }
        let in_strides = strides_for(self.shape());
        let out_shape: Vec<usize> = axes.iter().map(|&a| self.shape()[a]).collect();
        let stride_axes: Vec<usize> = axes.iter().map(|&a| in_strides[a]).collect();
        let mut out = vec![0.0f32; self.numel()];
        let mut idx = vec![0usize; rank];
        lowlevel::permute_into(self.data(), &stride_axes, &out_shape, &mut idx, &mut out);
        Tensor::from_vec(out_shape, out).expect("permute shape")
    }

    // ------------------------------------------------------ conv lowering

    /// Lowers a `[B, C, H, W]` input to the im2col matrix
    /// `[C*kh*kw, B*oh*ow]` for a convolution with the given kernel, stride
    /// and zero padding.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-4 and the output size is positive.
    pub fn im2col(&self, kh: usize, kw: usize, stride: usize, pad: usize) -> Tensor {
        let (b, c, h, w) = self.dims4();
        let (oh, ow) = conv_out_size(h, w, kh, kw, stride, pad);
        let rows = c * kh * kw;
        let cols = b * oh * ow;
        let mut out = vec![0.0f32; rows * cols];
        self.im2col_into(kh, kw, stride, pad, &mut out);
        Tensor::from_vec(vec![rows, cols], out).expect("im2col shape")
    }

    /// [`Tensor::im2col`] writing into a caller-provided buffer (any
    /// contents; it is cleared first).
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-4 and `out` has exactly
    /// `C*kh*kw * B*oh*ow` elements.
    pub fn im2col_into(&self, kh: usize, kw: usize, stride: usize, pad: usize, out: &mut [f32]) {
        let (b, c, h, w) = self.dims4();
        lowlevel::im2col_into(self.data(), b, c, h, w, kh, kw, stride, pad, out);
    }

    /// Inverse of [`Tensor::im2col`]: scatters a `[C*kh*kw, B*oh*ow]` matrix
    /// back into a `[B, C, H, W]` tensor, accumulating overlaps. Used by the
    /// convolution backward pass.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes.
    #[allow(clippy::too_many_arguments)]
    pub fn col2im(
        &self,
        b: usize,
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (oh, ow) = conv_out_size(h, w, kh, kw, stride, pad);
        let rows = c * kh * kw;
        let cols = b * oh * ow;
        assert_eq!(self.shape(), &[rows, cols], "col2im input shape mismatch");
        let mut out = vec![0.0f32; b * c * h * w];
        let src = self.data();
        // Each (batch, channel) image plane accumulates independently; the
        // inner (ki, kj, oi, oj) accumulation order matches the serial
        // loop nest exactly, so results are bitwise identical at any
        // thread count.
        let fill_plane = |bc: usize, plane: &mut [f32]| {
            let bi = bc / c;
            let ci = bc % c;
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = ci * kh * kw + ki * kw + kj;
                    for oi in 0..oh {
                        let iy = (oi * stride + ki) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for oj in 0..ow {
                            let ix = (oj * stride + kj) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = bi * oh * ow + oi * ow + oj;
                            plane[iy * w + ix as usize] += src[row * cols + col];
                        }
                    }
                }
            }
        };
        if b * c * h * w >= PAR_ELEMS {
            pool::parallel_chunks_mut(&mut out, h * w, fill_plane);
        } else {
            for (bc, plane) in out.chunks_mut(h * w).enumerate() {
                fill_plane(bc, plane);
            }
        }
        Tensor::from_vec(vec![b, c, h, w], out).expect("col2im shape")
    }

    // ------------------------------------------------------------ pooling

    /// 2×2 max pooling with stride 2 on a `[B, C, H, W]` tensor with even
    /// `H`, `W`. Returns the pooled tensor and the flat argmax index of each
    /// output element (into the input buffer), for use by the backward pass.
    ///
    /// # Panics
    ///
    /// Panics unless rank-4 with even spatial dimensions.
    pub fn maxpool2x2(&self) -> (Tensor, Vec<usize>) {
        let (b, c, h, w) = self.dims4();
        let mut out = vec![0.0f32; b * c * (h / 2) * (w / 2)];
        let mut arg = vec![0usize; out.len()];
        lowlevel::maxpool2x2_into(self.data(), b * c, h, w, &mut out, Some(&mut arg));
        (
            Tensor::from_vec(vec![b, c, h / 2, w / 2], out).expect("maxpool shape"),
            arg,
        )
    }

    /// Nearest-neighbour 2× upsampling of a `[B, C, H, W]` tensor.
    ///
    /// # Panics
    ///
    /// Panics unless rank-4.
    pub fn upsample2x(&self) -> Tensor {
        let (b, c, h, w) = self.dims4();
        let mut out = vec![0.0f32; b * c * 4 * h * w];
        lowlevel::upsample2x_into(self.data(), b * c, h, w, &mut out);
        Tensor::from_vec(vec![b, c, 2 * h, 2 * w], out).expect("upsample shape")
    }

    /// Adjoint of [`Tensor::upsample2x`]: sums each 2×2 block of a
    /// `[B, C, 2H, 2W]` tensor into `[B, C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics unless rank-4 with even spatial dimensions.
    pub fn downsample2x_sum(&self) -> Tensor {
        let (b, c, h2, w2) = self.dims4();
        assert!(h2 % 2 == 0 && w2 % 2 == 0, "downsample needs even H, W");
        let (h, w) = (h2 / 2, w2 / 2);
        let mut out = vec![0.0f32; b * c * h * w];
        let src = self.data();
        // Per-plane 2x2 block sums; the (i, j) accumulation order within a
        // plane matches the serial loop, keeping results bitwise identical.
        let fill_plane = |bc: usize, plane: &mut [f32]| {
            for i in 0..h2 {
                for j in 0..w2 {
                    plane[(i / 2) * w + j / 2] += src[bc * h2 * w2 + i * w2 + j];
                }
            }
        };
        if src.len() >= PAR_ELEMS {
            pool::parallel_chunks_mut(&mut out, h * w, fill_plane);
        } else {
            for (bc, plane) in out.chunks_mut(h * w).enumerate() {
                fill_plane(bc, plane);
            }
        }
        Tensor::from_vec(vec![b, c, h, w], out).expect("downsample shape")
    }

    // ------------------------------------------------------ concat / split

    /// Concatenates rank-4 tensors along the channel axis (axis 1).
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or batch/spatial dimensions differ.
    pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_channels needs at least one part");
        let (b, _, h, w) = parts[0].dims4();
        let total_c: usize = parts
            .iter()
            .map(|p| {
                let (pb, pc, ph, pw) = p.dims4();
                assert_eq!((pb, ph, pw), (b, h, w), "concat_channels dim mismatch");
                pc
            })
            .sum();
        let mut out = vec![0.0f32; b * total_c * h * w];
        let srcs = parts.iter().map(|p| (p.data(), p.shape()[1]));
        lowlevel::concat_channels_into(srcs, b, h * w, total_c, &mut out);
        Tensor::from_vec(vec![b, total_c, h, w], out).expect("concat shape")
    }

    /// Extracts channels `[c0, c1)` from a rank-4 tensor.
    ///
    /// # Panics
    ///
    /// Panics unless rank-4 and `c0 <= c1 <= C`.
    pub fn slice_channels(&self, c0: usize, c1: usize) -> Tensor {
        let (b, c, h, w) = self.dims4();
        assert!(c0 <= c1 && c1 <= c, "slice_channels out of range");
        let mut out = vec![0.0f32; b * (c1 - c0) * h * w];
        lowlevel::slice_channels_into(self.data(), b, c, h * w, c0, c1, &mut out);
        Tensor::from_vec(vec![b, c1 - c0, h, w], out).expect("slice shape")
    }

    /// Softmax over the last axis through [`lowlevel::softmax_last_into`]:
    /// every row runs the shared dispatched [`crate::softmax_row`], so the
    /// composed tape op, the fused attention kernels and the plan executor
    /// all use the exact same per-row arithmetic on every kernel backend.
    pub fn softmax_lastdim(&self) -> Tensor {
        let n = *self.shape().last().expect("softmax needs rank >= 1");
        let mut out = vec![0.0f32; self.numel()];
        lowlevel::softmax_last_into(self.data(), n, &mut out);
        Tensor::from_vec(self.shape().to_vec(), out).expect("softmax shape")
    }

    /// Destructures the shape of a rank-4 tensor as `(B, C, H, W)`.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-4.
    pub fn dims4(&self) -> (usize, usize, usize, usize) {
        assert_eq!(
            self.rank(),
            4,
            "expected rank-4 tensor, got {:?}",
            self.shape()
        );
        (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        )
    }
}

/// Output spatial size of a convolution.
pub fn conv_out_size(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (w + 2 * pad - kw) / stride + 1;
    (oh, ow)
}

/// GEMM `out (+)= a[m,k] * b[k,n]`, dispatched to the active kernel
/// backend: the scalar reference below, or the packed-panel vector
/// microkernels in [`crate::simd`]. If `accumulate` is false, `out` is
/// overwritten.
pub(crate) fn gemm(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    crate::simd::gemm_with(crate::simd::active(), a, b, out, m, k, n, accumulate);
}

/// Scalar reference GEMM — the bitwise-golden path. Large products are
/// split over output-row blocks on the worker pool; each row's i-k-j
/// reduction order is unchanged, so the result is bitwise identical to
/// the serial path.
pub(crate) fn gemm_scalar(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    // Degenerate dims: nothing to compute, and the row workers divide by
    // `n` (and fan out on `out` chunks), so bail out before they would.
    if m == 0 || n == 0 {
        return;
    }
    let nt = if m * k * n >= PAR_GEMM_FLOPS {
        pool::max_threads().min(m)
    } else {
        1
    };
    if nt <= 1 {
        gemm_rows(a, b, out, 0, k, n, accumulate);
        return;
    }
    let rows_per = m.div_ceil(nt);
    pool::parallel_chunks_mut(out, rows_per * n, |ci, chunk| {
        gemm_rows(a, b, chunk, ci * rows_per, k, n, accumulate);
    });
}

/// Column-block width for [`gemm_rows`]: chosen so a `k x GEMM_COL_BLOCK`
/// slab of `b` stays cache-resident while every output row reuses it.
/// Without blocking, wide products (e.g. batched-inference GEMMs, where
/// `n` scales with the batch) re-stream all of `b` from memory once per
/// output row.
const GEMM_COL_BLOCK: usize = 512;

/// GEMM over the row block starting at `row0` whose output rows occupy
/// `out` (`out.len() / n` rows). i-k-j loop order within each column
/// block: for any output element the reduction over `p` runs in the same
/// order as the unblocked serial loop, so blocking (and thread count)
/// never changes results bitwise.
fn gemm_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if !accumulate {
        out.fill(0.0);
    }
    let rows = out.len() / n;
    for j0 in (0..n).step_by(GEMM_COL_BLOCK) {
        let j1 = (j0 + GEMM_COL_BLOCK).min(n);
        for r in 0..rows {
            let i = row0 + r;
            let out_row = &mut out[r * n + j0..r * n + j1];
            for p in 0..k {
                let aik = a[i * k + p];
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b[p * n + j0..p * n + j1];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bv;
                }
            }
        }
    }
}

/// `out = a x b^T` for `a: [m, k]`, `b: [n, k]`, dispatched to the active
/// kernel backend.
pub(crate) fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    crate::simd::gemm_nt_with(crate::simd::active(), a, b, out, m, k, n);
}

/// Scalar reference `a x b^T` without materializing the transpose. Each
/// output element is a contiguous-row dot product whose reduction over `p`
/// runs in increasing order with the lhs zero-skip of [`gemm_rows`], so
/// the result is bitwise identical to `gemm(a, transpose(b))`. Large
/// products split over output-row blocks.
pub(crate) fn gemm_nt_scalar(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    let nt = if m * k * n >= PAR_GEMM_FLOPS {
        pool::max_threads().min(m)
    } else {
        1
    };
    if nt <= 1 {
        gemm_nt_rows(a, b, out, 0, k, n);
        return;
    }
    let rows_per = m.div_ceil(nt);
    pool::parallel_chunks_mut(out, rows_per * n, |ci, chunk| {
        gemm_nt_rows(a, b, chunk, ci * rows_per, k, n);
    });
}

fn gemm_nt_rows(a: &[f32], b: &[f32], out: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = out.len() / n;
    for r in 0..rows {
        let arow = &a[(row0 + r) * k..(row0 + r + 1) * k];
        let orow = &mut out[r * n..(r + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                if av == 0.0 {
                    continue;
                }
                acc += av * bv;
            }
            *o = acc;
        }
    }
}

/// `out = a^T x b` for `a: [k, m]`, `b: [k, n]`, dispatched to the active
/// kernel backend.
pub(crate) fn gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    crate::simd::gemm_tn_with(crate::simd::active(), a, b, out, m, k, n);
}

/// Scalar reference `a^T x b` without materializing the transpose. The `p`
/// (contraction) loop is outermost so both operand rows stream
/// contiguously; for any output element the reduction over `p` still runs
/// in increasing order with the transposed-lhs zero-skip, bitwise
/// identical to `gemm(transpose(a), b)`. Large products split over
/// output-row blocks.
pub(crate) fn gemm_tn_scalar(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    let nt = if m * k * n >= PAR_GEMM_FLOPS {
        pool::max_threads().min(m)
    } else {
        1
    };
    if nt <= 1 {
        gemm_tn_rows(a, b, out, 0, m, k, n);
        return;
    }
    let rows_per = m.div_ceil(nt);
    pool::parallel_chunks_mut(out, rows_per * n, |ci, chunk| {
        gemm_tn_rows(a, b, chunk, ci * rows_per, m, k, n);
    });
}

fn gemm_tn_rows(a: &[f32], b: &[f32], out: &mut [f32], row0: usize, m: usize, k: usize, n: usize) {
    out.fill(0.0);
    let rows = out.len() / n;
    for p in 0..k {
        let brow = &b[p * n..(p + 1) * n];
        for r in 0..rows {
            let av = a[p * m + row0 + r];
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[r * n..(r + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul2d(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::from_fn(vec![2, 2, 3], |i| i as f32);
        let b = Tensor::from_fn(vec![2, 3, 2], |i| (i as f32) * 0.5);
        let c = a.bmm(&b);
        for bi in 0..2 {
            let a2 = Tensor::from_vec(vec![2, 3], a.data()[bi * 6..(bi + 1) * 6].to_vec()).unwrap();
            let b2 = Tensor::from_vec(vec![3, 2], b.data()[bi * 6..(bi + 1) * 6].to_vec()).unwrap();
            let c2 = a2.matmul2d(&b2);
            assert_eq!(&c.data()[bi * 4..(bi + 1) * 4], c2.data());
        }
    }

    #[test]
    fn bmm_nt_bitwise_matches_permuted_bmm() {
        // Includes a size large enough to cross the parallel thresholds and
        // an odd (non-multiple-of-block) shape; equality must be bitwise.
        for (b, m, k, n) in [(1, 2, 3, 4), (3, 7, 5, 9), (2, 96, 64, 96)] {
            let a = Tensor::from_fn(vec![b, m, k], |i| ((i * 37 % 19) as f32 - 9.0) * 0.13);
            let bt = Tensor::from_fn(vec![b, n, k], |i| ((i * 23 % 17) as f32 - 8.0) * 0.07);
            let fused = a.bmm_nt(&bt);
            let composed = a.bmm(&bt.permute(&[0, 2, 1]));
            assert_eq!(fused.shape(), &[b, m, n]);
            for (x, y) in fused.data().iter().zip(composed.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn bmm_tn_bitwise_matches_permuted_bmm() {
        for (b, m, k, n) in [(1, 2, 3, 4), (3, 7, 5, 9), (2, 96, 64, 96)] {
            let a = Tensor::from_fn(vec![b, k, m], |i| ((i * 41 % 23) as f32 - 11.0) * 0.11);
            let bt = Tensor::from_fn(vec![b, k, n], |i| ((i * 29 % 13) as f32 - 6.0) * 0.17);
            let fused = a.bmm_tn(&bt);
            let composed = a.permute(&[0, 2, 1]).bmm(&bt);
            assert_eq!(fused.shape(), &[b, m, n]);
            for (x, y) in fused.data().iter().zip(composed.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn matmul2d_nt_tn_bitwise_match_transposed_matmul() {
        let a = Tensor::from_fn(vec![5, 7], |i| ((i * 31 % 11) as f32 - 5.0) * 0.19);
        let b = Tensor::from_fn(vec![4, 7], |i| ((i * 13 % 9) as f32 - 4.0) * 0.23);
        let nt = a.matmul2d_nt(&b);
        let nt_ref = a.matmul2d(&b.transpose2d());
        for (x, y) in nt.data().iter().zip(nt_ref.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let c = Tensor::from_fn(vec![7, 5], |i| ((i * 17 % 13) as f32 - 6.0) * 0.29);
        let d = Tensor::from_fn(vec![7, 4], |i| ((i * 19 % 15) as f32 - 7.0) * 0.31);
        let tn = c.matmul2d_tn(&d);
        let tn_ref = c.transpose2d().matmul2d(&d);
        for (x, y) in tn.data().iter().zip(tn_ref.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn im2col_into_matches_im2col() {
        let x = Tensor::from_fn(vec![2, 3, 5, 5], |i| (i as f32 * 0.7).sin());
        let cols = x.im2col(3, 3, 1, 1);
        let mut buf = vec![0.0f32; cols.numel()];
        x.im2col_into(3, 3, 1, 1, &mut buf);
        assert_eq!(cols.data(), &buf[..]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_fn(vec![3, 4], |i| i as f32);
        let back = a.transpose2d().transpose2d();
        assert_eq!(back.data(), a.data());
    }

    #[test]
    fn permute_matches_transpose_for_rank2() {
        let a = Tensor::from_fn(vec![3, 4], |i| i as f32);
        assert_eq!(a.permute(&[1, 0]).data(), a.transpose2d().data());
    }

    #[test]
    fn permute_rank4() {
        let a = Tensor::from_fn(vec![2, 3, 4, 5], |i| i as f32);
        let p = a.permute(&[0, 2, 3, 1]);
        assert_eq!(p.shape(), &[2, 4, 5, 3]);
        assert_eq!(p.at(&[1, 2, 3, 1]), a.at(&[1, 1, 2, 3]));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: im2col is just a reshape.
        let a = Tensor::from_fn(vec![1, 2, 3, 3], |i| i as f32);
        let cols = a.im2col(1, 1, 1, 0);
        assert_eq!(cols.shape(), &[2, 9]);
        assert_eq!(cols.data(), a.data());
    }

    #[test]
    fn conv_via_im2col_known_values() {
        // 3x3 input, 2x2 kernel of ones: output = 2x2 block sums.
        let x = Tensor::from_fn(vec![1, 1, 3, 3], |i| i as f32);
        let cols = x.im2col(2, 2, 1, 0);
        let w = Tensor::ones(vec![1, 4]);
        let y = w.matmul2d(&cols);
        assert_eq!(
            y.data(),
            &[
                0. + 1. + 3. + 4.,
                1. + 2. + 4. + 5.,
                3. + 4. + 6. + 7.,
                4. + 5. + 7. + 8.
            ]
        );
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let x = Tensor::from_fn(vec![1, 2, 4, 4], |i| (i as f32 * 0.37).sin());
        let cols = x.im2col(3, 3, 1, 1);
        let y = Tensor::from_fn(cols.shape().to_vec(), |i| (i as f32 * 0.11).cos());
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = y.col2im(1, 2, 4, 4, 3, 3, 1, 1);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn maxpool_picks_max_and_indices() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, 2.0, 3.0]).unwrap();
        let (y, arg) = x.maxpool2x2();
        assert_eq!(y.data(), &[5.0]);
        assert_eq!(arg, vec![1]);
    }

    #[test]
    fn upsample_downsample_adjoint() {
        let x = Tensor::from_fn(vec![1, 1, 2, 2], |i| i as f32 + 1.0);
        let up = x.upsample2x();
        assert_eq!(up.shape(), &[1, 1, 4, 4]);
        assert_eq!(up.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(up.at(&[0, 0, 0, 1]), 1.0);
        assert_eq!(up.at(&[0, 0, 3, 3]), 4.0);
        let down = up.downsample2x_sum();
        assert_eq!(down.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn concat_and_slice_channels_round_trip() {
        let a = Tensor::from_fn(vec![2, 2, 2, 2], |i| i as f32);
        let b = Tensor::from_fn(vec![2, 3, 2, 2], |i| -(i as f32));
        let cat = Tensor::concat_channels(&[&a, &b]);
        assert_eq!(cat.shape(), &[2, 5, 2, 2]);
        assert_eq!(cat.slice_channels(0, 2).data(), a.data());
        assert_eq!(cat.slice_channels(2, 5).data(), b.data());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_fn(vec![3, 5], |i| (i as f32) * 0.3 - 2.0);
        let s = x.softmax_lastdim();
        for r in 0..3 {
            let sum: f32 = s.data()[r * 5..(r + 1) * 5].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_out_size_matches_formula() {
        assert_eq!(conv_out_size(8, 8, 3, 3, 1, 1), (8, 8));
        assert_eq!(conv_out_size(8, 8, 3, 3, 2, 1), (4, 4));
        assert_eq!(conv_out_size(7, 7, 3, 3, 2, 1), (4, 4));
    }
}
