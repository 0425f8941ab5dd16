//! Slice-level forward kernels: the one implementation of every op the
//! compiled inference plan runs.
//!
//! The plan executor (`mfaplace-infer`) holds every activation in one
//! pre-sized arena and therefore works on raw `&[f32]` slices plus
//! explicit dimensions. The autograd tape (`mfaplace-autograd`) and the
//! [`Tensor`](crate::Tensor) methods are thin shape-checking wrappers
//! around the **same** functions, so a plan forward is bitwise identical
//! to the recorded tape forward because both run one kernel — including
//! the parallel/serial dispatch thresholds — not because two copies are
//! kept in sync.
//!
//! The kernels here cover convolution (im2col → GEMM → reorder with the
//! optional fused epilogue), the GEMM family, data movement (permute,
//! channel concat/slice, 2× upsample, 2×2 max-pool), the per-channel ops
//! and the last-axis softmax. Layer norm ([`crate::layer_norm_rows`]) and
//! fused attention (the `attention_*_slices` entry points) live next to
//! their backward passes and are shared the same way. Only the pure
//! elementwise ops (add, relu, sigmoid, …) are written inline by each
//! engine: one expression per element, so equal expressions are equal
//! bits.
//!
//! Every kernel overwrites its whole output (and scratch); no caller
//! needs to clear a buffer first.

use mfaplace_rt::pool;

use crate::kernels::{self, PAR_ELEMS, PAR_GEMM_FLOPS};
use crate::{conv_out_size, softmax_row};

/// `out = a[m,k] x b[k,n]`, overwriting `out`.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn gemm_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_into lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_into rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_into output length mismatch");
    kernels::gemm(a, b, out, m, k, n, false);
}

/// Operand layout of a batched GEMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BmmKind {
    /// `[bt, m, k] x [bt, k, n]`.
    Nn,
    /// `a x bᵀ`: `[bt, m, k] x [bt, n, k]`.
    Nt,
    /// `aᵀ x b`: `[bt, k, m] x [bt, k, n]`.
    Tn,
}

/// Batched GEMM `-> [bt, m, n]` with operands laid out as `kind` says.
///
/// With at least one batch per worker and enough work, batches fan out
/// across the pool (each inner GEMM pinned serial to avoid nested
/// spawning); otherwise each batch's GEMM decides its own row-level
/// parallelism. Either way every output element sees the same reduction.
///
/// # Panics
///
/// Panics on slice-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn bmm_into(
    kind: BmmKind,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), bt * m * k, "bmm lhs length mismatch");
    assert_eq!(b.len(), bt * k * n, "bmm rhs length mismatch");
    assert_eq!(out.len(), bt * m * n, "bmm output length mismatch");
    let one = |i: usize, out: &mut [f32]| {
        let ai = &a[i * m * k..(i + 1) * m * k];
        let bi = &b[i * k * n..(i + 1) * k * n];
        match kind {
            BmmKind::Nn => kernels::gemm(ai, bi, out, m, k, n, false),
            BmmKind::Nt => kernels::gemm_nt(ai, bi, out, m, k, n),
            BmmKind::Tn => kernels::gemm_tn(ai, bi, out, m, k, n),
        }
    };
    if bt >= pool::max_threads() && bt * m * k * n >= PAR_GEMM_FLOPS {
        pool::parallel_chunks_mut(out, m * n, |i, chunk| {
            pool::with_threads(1, || one(i, chunk));
        });
    } else {
        for i in 0..bt {
            one(i, &mut out[i * m * n..(i + 1) * m * n]);
        }
    }
}

/// Lowers a `[b, c, h, w]` input to the `[c*kh*kw, b*oh*ow]` im2col
/// matrix. `out` may hold any contents: it is cleared to `T::default()`
/// (zero) first, because the gather never writes padding positions.
/// Generic so the int8 plan lowers its quantized activations with the
/// same gather.
///
/// # Panics
///
/// Panics on slice-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn im2col_into<T: Copy + Default + Send + Sync>(
    src: &[T],
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    out: &mut [T],
) {
    let (oh, ow) = conv_out_size(h, w, kh, kw, stride, pad);
    let rows = c * kh * kw;
    let cols = b * oh * ow;
    assert_eq!(src.len(), b * c * h * w, "im2col input length mismatch");
    assert_eq!(out.len(), rows * cols, "im2col output length mismatch");
    out.fill(T::default());
    // Each output row (ci, ki, kj) gathers independently; rows fan out
    // to the pool when the matrix is large. Every element is written at
    // most once, so parallel and serial results are bitwise identical.
    let fill_row = |row: usize, out_row: &mut [T]| {
        let ci = row / (kh * kw);
        let ki = (row / kw) % kh;
        let kj = row % kw;
        for bi in 0..b {
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
                    out_row[bi * oh * ow + oi * ow + oj] =
                        src[((bi * c + ci) * h + iy) * w + ix as usize];
                }
            }
        }
    };
    if rows * cols >= PAR_ELEMS {
        pool::parallel_chunks_mut(out, cols, fill_row);
    } else {
        for (row, out_row) in out.chunks_mut(cols).enumerate() {
            fill_row(row, out_row);
        }
    }
}

/// Geometry of a 2-D convolution of `x: [b, c, h, w]` with
/// `w: [oc, c, kh, kw]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dShape {
    pub b: usize,
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub oc: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
}

impl Conv2dShape {
    /// The geometry of convolving an `x_shape` input with a `w_shape`
    /// weight, or `None` unless both are rank-4.
    pub fn of(x_shape: &[usize], w_shape: &[usize], stride: usize, pad: usize) -> Option<Self> {
        let (&[b, c, h, w], &[oc, _, kh, kw]) = (x_shape, w_shape) else {
            return None;
        };
        Some(Conv2dShape {
            b,
            c,
            h,
            w,
            oc,
            kh,
            kw,
            stride,
            pad,
        })
    }

    /// Output spatial size `(oh, ow)`.
    pub fn out_hw(&self) -> (usize, usize) {
        conv_out_size(self.h, self.w, self.kh, self.kw, self.stride, self.pad)
    }

    /// Elements of the `[c*kh*kw, b*oh*ow]` im2col lowering buffer.
    pub fn cols_len(&self) -> usize {
        let (oh, ow) = self.out_hw();
        self.c * self.kh * self.kw * self.b * oh * ow
    }

    /// Elements of the output (and of the `[oc, b*oh*ow]` GEMM result).
    pub fn out_len(&self) -> usize {
        let (oh, ow) = self.out_hw();
        self.oc * self.b * oh * ow
    }
}

/// Convolution forward `out: [b, oc, oh, ow]` with the optional fused
/// epilogue of [`conv_reorder_epilogue`]: im2col into `cols`, GEMM into
/// `ymat`, then the reorder pass. `cols` holds the lowering afterwards
/// (the tape keeps it for backward).
///
/// # Panics
///
/// Panics on slice-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    x: &[f32],
    weight: &[f32],
    s: Conv2dShape,
    bias: Option<&[f32]>,
    affine: Option<(&[f32], &[f32])>,
    relu: bool,
    cols: &mut [f32],
    ymat: &mut [f32],
    out: &mut [f32],
) {
    let (oh, ow) = s.out_hw();
    im2col_into(x, s.b, s.c, s.h, s.w, s.kh, s.kw, s.stride, s.pad, cols);
    gemm_into(weight, cols, ymat, s.oc, s.c * s.kh * s.kw, s.b * oh * ow);
    conv_reorder_epilogue(ymat, out, s.b, s.oc, oh * ow, bias, affine, relu);
}

/// Reorders a conv GEMM result `y_mat: [oc, b*ohow]` into the `[b, oc,
/// ohow]` output layout, applying the optional fused epilogue in the same
/// pass: `v = y; v += bias[c]; v = scale[c]*v + shift[c]; v = v.max(0.0)` —
/// per element exactly the sequence of the tape's `AddBiasChannel`,
/// `ChannelAffine` and `Relu` nodes, so the fused result is bitwise
/// identical to the composed chain. With no epilogue it is a plain copy.
///
/// # Panics
///
/// Panics on slice-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn conv_reorder_epilogue(
    y_mat: &[f32],
    out: &mut [f32],
    b: usize,
    oc: usize,
    ohow: usize,
    bias: Option<&[f32]>,
    affine: Option<(&[f32], &[f32])>,
    relu: bool,
) {
    assert_eq!(y_mat.len(), oc * b * ohow, "conv epilogue y_mat mismatch");
    assert_eq!(out.len(), b * oc * ohow, "conv epilogue output mismatch");
    if let Some(bv) = bias {
        assert_eq!(bv.len(), oc, "conv epilogue bias length mismatch");
    }
    if let Some((sc, sh)) = affine {
        assert_eq!(sc.len(), oc, "conv epilogue scale length mismatch");
        assert_eq!(sh.len(), oc, "conv epilogue shift length mismatch");
    }
    // The epilogue is elementwise, so the vector backends are bitwise
    // identical to the scalar loop (same IEEE add/mul/add/max per element);
    // dispatching per contiguous run costs one branch per (oc, b) pair.
    let bk = crate::simd::active();
    for ocx in 0..oc {
        let bias_v = bias.map(|bv| bv[ocx]);
        let aff = affine.map(|(sc, sh)| (sc[ocx], sh[ocx]));
        for bi in 0..b {
            let src = &y_mat[(ocx * b + bi) * ohow..(ocx * b + bi + 1) * ohow];
            let dst = &mut out[(bi * oc + ocx) * ohow..(bi * oc + ocx + 1) * ohow];
            crate::simd::conv_epilogue_with(bk, src, dst, bias_v, aff, relu);
        }
    }
}

/// `out = x + bias[c]` over `[b, c, hw]`.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn add_bias_channel_into(
    src: &[f32],
    bias: &[f32],
    b: usize,
    c: usize,
    hw: usize,
    out: &mut [f32],
) {
    assert_eq!(bias.len(), c, "channel bias length mismatch");
    assert_eq!(src.len(), b * c * hw, "channel bias input length mismatch");
    assert_eq!(out.len(), src.len(), "channel bias output length mismatch");
    for bi in 0..b {
        for (ci, &add) in bias.iter().enumerate() {
            let base = (bi * c + ci) * hw;
            for (o, &xv) in out[base..base + hw].iter_mut().zip(&src[base..base + hw]) {
                *o = xv + add;
            }
        }
    }
}

/// `out = x + bias` broadcast over the rows of `x: [.., bias.len()]`.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn add_bias_row_into(src: &[f32], bias: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), src.len(), "row bias output length mismatch");
    for (row_o, row_x) in out.chunks_mut(bias.len()).zip(src.chunks(bias.len())) {
        for ((o, &xv), &bv) in row_o.iter_mut().zip(row_x).zip(bias) {
            *o = xv + bv;
        }
    }
}

/// `out = scale[c] * x + shift[c]` over `[b, c, hw]` — the inference form
/// of batch norm.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn channel_affine_into(
    src: &[f32],
    scale: &[f32],
    shift: &[f32],
    b: usize,
    c: usize,
    hw: usize,
    out: &mut [f32],
) {
    assert_eq!(scale.len(), c, "channel_affine scale length");
    assert_eq!(shift.len(), c, "channel_affine shift length");
    assert_eq!(
        src.len(),
        b * c * hw,
        "channel_affine input length mismatch"
    );
    assert_eq!(
        out.len(),
        src.len(),
        "channel_affine output length mismatch"
    );
    for bi in 0..b {
        for ci in 0..c {
            let base = (bi * c + ci) * hw;
            let (sc, sh) = (scale[ci], shift[ci]);
            for (o, &xv) in out[base..base + hw].iter_mut().zip(&src[base..base + hw]) {
                *o = sc * xv + sh;
            }
        }
    }
}

/// Softmax over rows of width `d`: copies `src` to `out`, then runs the
/// shared dispatched [`softmax_row`] on each row.
///
/// # Panics
///
/// Panics on slice-length mismatch.
pub fn softmax_last_into(src: &[f32], d: usize, out: &mut [f32]) {
    out.copy_from_slice(src);
    if d > 0 {
        for row in out.chunks_mut(d) {
            softmax_row(row);
        }
    }
}

/// Axis permutation: `out` has dims `out_dims`, and `stride_axes[i]` is
/// the input stride of output axis `i` (`in_strides[axes[i]]`). `idx` is
/// caller-provided multi-index scratch of at least `out_dims.len()`
/// elements (any contents), so the walk itself allocates nothing.
///
/// # Panics
///
/// Panics on slice-length mismatches or if `idx` is too short.
pub fn permute_into(
    src: &[f32],
    stride_axes: &[usize],
    out_dims: &[usize],
    idx: &mut [usize],
    out: &mut [f32],
) {
    let rank = out_dims.len();
    assert_eq!(stride_axes.len(), rank, "permute stride rank mismatch");
    assert_eq!(
        out.len(),
        crate::numel(out_dims),
        "permute output length mismatch"
    );
    assert_eq!(src.len(), out.len(), "permute input length mismatch");
    let idx = &mut idx[..rank];
    idx.fill(0);
    // Walk output indices in order; compute the matching input offset.
    for o in out.iter_mut() {
        let off: usize = idx.iter().zip(stride_axes).map(|(i, s)| i * s).sum();
        *o = src[off];
        for d in (0..rank).rev() {
            idx[d] += 1;
            if idx[d] < out_dims[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// Concatenates `[b, pc, hw]` parts, given as `(data, pc)`, along the
/// channel axis into `out: [b, total_c, hw]`.
///
/// # Panics
///
/// Panics on slice-length mismatches or if the part channels do not sum
/// to `total_c`.
pub fn concat_channels_into<'a>(
    parts: impl IntoIterator<Item = (&'a [f32], usize)>,
    b: usize,
    hw: usize,
    total_c: usize,
    out: &mut [f32],
) {
    assert_eq!(out.len(), b * total_c * hw, "concat output length mismatch");
    let mut c_off = 0usize;
    for (src, pc) in parts {
        assert_eq!(src.len(), b * pc * hw, "concat part length mismatch");
        for bi in 0..b {
            out[(bi * total_c + c_off) * hw..(bi * total_c + c_off + pc) * hw]
                .copy_from_slice(&src[bi * pc * hw..(bi + 1) * pc * hw]);
        }
        c_off += pc;
    }
    assert_eq!(c_off, total_c, "concat part channels do not sum to total");
}

/// Extracts channels `[c0, c1)` of `src: [b, c, hw]` into
/// `out: [b, c1 - c0, hw]`.
///
/// # Panics
///
/// Panics on an out-of-range channel span or slice-length mismatches.
pub fn slice_channels_into(
    src: &[f32],
    b: usize,
    c: usize,
    hw: usize,
    c0: usize,
    c1: usize,
    out: &mut [f32],
) {
    assert!(c0 <= c1 && c1 <= c, "slice_channels out of range");
    assert_eq!(
        src.len(),
        b * c * hw,
        "slice_channels input length mismatch"
    );
    let nc = c1 - c0;
    assert_eq!(
        out.len(),
        b * nc * hw,
        "slice_channels output length mismatch"
    );
    for bi in 0..b {
        out[bi * nc * hw..(bi + 1) * nc * hw]
            .copy_from_slice(&src[(bi * c + c0) * hw..(bi * c + c1) * hw]);
    }
}

/// Nearest-neighbour 2× upsampling of `planes` planes of `h x w`.
/// Planes fan out to the pool when the output is large.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn upsample2x_into(src: &[f32], planes: usize, h: usize, w: usize, out: &mut [f32]) {
    assert_eq!(src.len(), planes * h * w, "upsample input length mismatch");
    assert_eq!(out.len(), 4 * src.len(), "upsample output length mismatch");
    let fill_plane = |bc: usize, plane: &mut [f32]| {
        for i in 0..h {
            for j in 0..w {
                let v = src[bc * h * w + i * w + j];
                for di in 0..2 {
                    for dj in 0..2 {
                        plane[(i * 2 + di) * 2 * w + (j * 2 + dj)] = v;
                    }
                }
            }
        }
    };
    if out.len() >= PAR_ELEMS {
        pool::parallel_chunks_mut(out, 4 * h * w, fill_plane);
    } else {
        for (bc, plane) in out.chunks_mut(4 * h * w).enumerate() {
            fill_plane(bc, plane);
        }
    }
}

/// 2×2 stride-2 max pooling of `planes` planes of `h x w` (both even).
/// When `arg` is given it receives the flat input index of each output's
/// maximum, for the backward pass. Planes fan out to the pool when the
/// input is large.
///
/// # Panics
///
/// Panics on odd spatial dimensions or slice-length mismatches.
pub fn maxpool2x2_into(
    src: &[f32],
    planes: usize,
    h: usize,
    w: usize,
    out: &mut [f32],
    arg: Option<&mut [usize]>,
) {
    assert!(
        h.is_multiple_of(2) && w.is_multiple_of(2),
        "maxpool2x2 needs even H, W"
    );
    let (oh, ow) = (h / 2, w / 2);
    assert_eq!(src.len(), planes * h * w, "maxpool input length mismatch");
    assert_eq!(
        out.len(),
        planes * oh * ow,
        "maxpool output length mismatch"
    );
    let pool_plane = |bc: usize, out_plane: &mut [f32], mut arg_plane: Option<&mut [usize]>| {
        let base = bc * h * w;
        for oi in 0..oh {
            for oj in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for di in 0..2 {
                    for dj in 0..2 {
                        let idx = base + (oi * 2 + di) * w + (oj * 2 + dj);
                        if src[idx] > best {
                            best = src[idx];
                            best_idx = idx;
                        }
                    }
                }
                out_plane[oi * ow + oj] = best;
                if let Some(a) = arg_plane.as_deref_mut() {
                    a[oi * ow + oj] = best_idx;
                }
            }
        }
    };
    let par = src.len() >= PAR_ELEMS;
    match arg {
        Some(arg) => {
            assert_eq!(arg.len(), out.len(), "maxpool argmax length mismatch");
            if par {
                pool::parallel_chunks2_mut(out, arg, oh * ow, oh * ow, |bc, o, a| {
                    pool_plane(bc, o, Some(a));
                });
            } else {
                for (bc, (o, a)) in out
                    .chunks_mut(oh * ow)
                    .zip(arg.chunks_mut(oh * ow))
                    .enumerate()
                {
                    pool_plane(bc, o, Some(a));
                }
            }
        }
        None if par => pool::parallel_chunks_mut(out, oh * ow, |bc, o| pool_plane(bc, o, None)),
        None => {
            for (bc, o) in out.chunks_mut(oh * ow).enumerate() {
                pool_plane(bc, o, None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn tensor(shape: Vec<usize>, seed: usize) -> Tensor {
        Tensor::from_fn(shape, |i| {
            (((i * 2_654_435_761 + seed * 131) % 997) as f32 / 498.0 - 1.0) * 0.6
        })
    }

    #[test]
    fn conv_epilogue_matches_composed_chain() {
        let (b, oc, ohow) = (2, 3, 4);
        let y = tensor(vec![oc, b * ohow], 8);
        let bias = [0.3f32, -0.6, 0.1];
        let scale = [1.2f32, -0.8, 0.5];
        let shift = [-0.2f32, 0.4, 0.0];
        // Composed reference: reorder, then +=bias, then affine, then relu.
        let mut reference = vec![0.0f32; b * oc * ohow];
        for o in 0..oc {
            for bi in 0..b {
                for k in 0..ohow {
                    reference[(bi * oc + o) * ohow + k] = y.data()[(o * b + bi) * ohow + k];
                }
            }
        }
        for bi in 0..b {
            for o in 0..oc {
                for k in 0..ohow {
                    let v = &mut reference[(bi * oc + o) * ohow + k];
                    *v += bias[o];
                    *v = scale[o] * *v + shift[o];
                    *v = v.max(0.0);
                }
            }
        }
        let mut out = vec![f32::NAN; b * oc * ohow];
        conv_reorder_epilogue(
            y.data(),
            &mut out,
            b,
            oc,
            ohow,
            Some(&bias),
            Some((&scale, &shift)),
            true,
        );
        for (x, r) in out.iter().zip(&reference) {
            assert_eq!(x.to_bits(), r.to_bits());
        }
    }
}
