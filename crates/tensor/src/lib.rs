//! Dense `f32` N-dimensional tensors for the `mfaplace` reproduction.
//!
//! This crate is the numeric foundation of the from-scratch deep-learning
//! stack: a row-major, heap-allocated tensor plus the handful of kernels the
//! congestion-prediction models need (GEMM, im2col convolution lowering,
//! pooling, nearest-neighbour upsampling, reductions, permutation).
//!
//! The offline crate set contains no deep-learning framework, so everything
//! downstream (`mfaplace-autograd`, `mfaplace-nn`, the models) is built on
//! these kernels.
//!
//! # Example
//!
//! ```
//! use mfaplace_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul2d(&b);
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), mfaplace_tensor::TensorError>(())
//! ```

mod attention;
mod error;
pub mod half;
mod init;
mod kernels;
pub mod lowlevel;
pub mod simd;
mod tensor;

pub use attention::{
    attention_fm, attention_fm_backward, attention_fm_backward_with, attention_fm_slices,
    attention_fm_slices_with, attention_tm, attention_tm_backward, attention_tm_backward_with,
    attention_tm_slices, attention_tm_slices_with, softmax_row, ATTN_TILE,
};
pub use error::TensorError;
pub use init::{kaiming_normal, xavier_uniform};
pub use kernels::conv_out_size;
pub use tensor::Tensor;

/// Layer norm over rows of width `d` through the active kernel backend;
/// the tape forward and the plan executor both call this, so tape-vs-plan
/// stays bitwise under every backend. Optional `xhat`/`inv_std` outputs
/// serve the tape backward; filling them never changes `out`. See
/// [`simd::layer_norm_rows_with`] for the per-backend numeric contract.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_rows(
    src: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    d: usize,
    out: &mut [f32],
    xhat: Option<&mut [f32]>,
    inv_std: Option<&mut [f32]>,
) {
    simd::layer_norm_rows_with(simd::active(), src, gamma, beta, eps, d, out, xhat, inv_std);
}

/// Row-major strides for a shape.
///
/// ```
/// assert_eq!(mfaplace_tensor::strides_for(&[2, 3, 4]), vec![12, 4, 1]);
/// ```
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Number of elements implied by a shape.
///
/// ```
/// assert_eq!(mfaplace_tensor::numel(&[2, 3, 4]), 24);
/// assert_eq!(mfaplace_tensor::numel(&[]), 1);
/// ```
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}
