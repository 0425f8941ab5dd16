use mfaplace_tensor::lowlevel::{self, Conv2dShape};
use mfaplace_tensor::{
    attention_fm_backward, attention_fm_slices, attention_tm_backward, attention_tm_slices, numel,
    Tensor,
};

use crate::recycle::BufferPool;

/// Handle to a node in a [`Graph`].
///
/// `Var`s are cheap copyable indices; they are only meaningful for the graph
/// that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The raw tape index (stable for persistent parameters).
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Clone)]
enum Op {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Neg(Var),
    Scale(Var, f32),
    AddScalar(Var),
    Matmul(Var, Var),
    Bmm(Var, Var),
    BmmNT(Var, Var),
    BmmTN(Var, Var),
    Attention {
        q: Var,
        k: Var,
        v: Var,
        scale: f32,
        feature_major: bool,
    },
    Conv2d {
        x: Var,
        w: Var,
        stride: usize,
        pad: usize,
        /// im2col lowering, retained only when the op requires grad — the
        /// inference path drops it (recycled into the buffer pool) instead
        /// of keeping `C·KH·KW × B·OH·OW` floats alive per conv.
        cols: Option<Tensor>,
    },
    AddBiasChannel(Var, Var),
    AddBiasRow(Var, Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Sigmoid(Var),
    Gelu(Var),
    BatchNorm2d {
        x: Var,
        gamma: Var,
        beta: Var,
        xhat: Tensor,
        inv_std: Vec<f32>,
    },
    ChannelAffine {
        x: Var,
        scale: Vec<f32>,
        /// Backward only needs `scale`; `shift` rides the node so the plan
        /// capture can reconstruct the full affine.
        shift: Vec<f32>,
    },
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        xhat: Tensor,
        inv_std: Vec<f32>,
        /// Backward reads `inv_std`; `eps` rides the node for plan capture.
        eps: f32,
    },
    SoftmaxLast(Var),
    CrossEntropy2d {
        logits: Var,
        labels: Vec<u8>,
        class_weights: Option<Vec<f32>>,
        probs: Tensor,
        weight_sum: f32,
    },
    MseLoss {
        pred: Var,
        target: Tensor,
    },
    Reshape(Var),
    Permute {
        x: Var,
        axes: Vec<usize>,
    },
    ConcatChannels(Vec<Var>),
    SliceChannels {
        x: Var,
        c0: usize,
        c1: usize,
    },
    Upsample2x(Var),
    MaxPool2x2 {
        x: Var,
        arg: Vec<usize>,
    },
    Mean(Var),
    Sum(Var),
    MulScalarVar(Var, Var),
}

#[derive(Clone)]
struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    requires_grad: bool,
}

/// Arena tape holding values, gradients and the recorded operations.
///
/// See the [crate-level documentation](crate) for the usage pattern.
///
/// `Graph` is `Clone`: a clone is an independent tape whose `Var` handles
/// coincide with the original's — cloning a params-only graph is how the
/// data-parallel trainer builds worker-local replicas that accept the same
/// parameter `Var`s as the primary.
#[derive(Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Size-keyed free list fed by [`Graph::truncate`]/[`Graph::zero_grads`]
    /// and drained by the forward ops — mark/forward/truncate loops stop
    /// round-tripping activations through the allocator. Cloned graphs
    /// (trainer replicas) start with an empty pool.
    pool: BufferPool,
    /// When `false`, every pushed node records `requires_grad = false`, so
    /// backward-only storage (conv `cols`) is dropped at creation. The
    /// inference `Predictor` disables grads after building its model.
    grad_enabled: bool,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph({} nodes)", self.nodes.len())
    }
}

impl Graph {
    /// Creates an empty graph (gradients enabled).
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            pool: BufferPool::default(),
            grad_enabled: true,
        }
    }

    /// Enables or disables gradient recording for subsequently pushed
    /// nodes. With grads disabled every new node has
    /// `requires_grad = false` and ops skip retaining backward-only
    /// storage (the conv `cols` buffers); existing nodes are untouched, so
    /// a predictor can build its parameters first and then switch the
    /// graph to inference mode.
    pub fn set_grad_enabled(&mut self, enabled: bool) {
        self.grad_enabled = enabled;
    }

    /// Whether new nodes currently record gradients.
    pub fn grad_enabled(&self) -> bool {
        self.grad_enabled
    }

    /// Buffer-pool counters `(hits, misses, recycled_bytes, retained)`.
    pub fn pool_stats(&self) -> (u64, u64, u64, usize) {
        (
            self.pool.hits(),
            self.pool.misses(),
            self.pool.recycled_bytes(),
            self.pool.retained(),
        )
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            requires_grad: requires_grad && self.grad_enabled,
        });
        Var(self.nodes.len() - 1)
    }

    /// Pooled elementwise map: same results as `Tensor::map`, storage from
    /// the free list.
    fn pooled_map(&mut self, x: Var, f: impl Fn(f32) -> f32) -> Tensor {
        let n = self.nodes[x.0].value.numel();
        let mut buf = self.pool.take_any(n);
        let xv = &self.nodes[x.0].value;
        for (o, &s) in buf.iter_mut().zip(xv.data()) {
            *o = f(s);
        }
        Tensor::from_vec(xv.shape().to_vec(), buf).expect("pooled map")
    }

    /// Pooled elementwise zip of two same-shape nodes.
    fn pooled_zip(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let n = self.nodes[a.0].value.numel();
        let mut buf = self.pool.take_any(n);
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(av.shape(), bv.shape(), "elementwise shape mismatch");
        for ((o, &x), &y) in buf.iter_mut().zip(av.data()).zip(bv.data()) {
            *o = f(x, y);
        }
        Tensor::from_vec(av.shape().to_vec(), buf).expect("pooled zip")
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Inserts a trainable leaf (a parameter). Persistent across truncation
    /// as long as it was created before the mark.
    pub fn param(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, true)
    }

    /// Inserts a non-trainable leaf (an input or constant).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, false)
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Mutable access to a node's value (used by optimizers on parameters).
    pub fn value_mut(&mut self, v: Var) -> &mut Tensor {
        &mut self.nodes[v.0].value
    }

    /// The accumulated gradient of a node, if any was produced by
    /// [`Graph::backward`].
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Clears all gradients (recycling their storage).
    pub fn zero_grads(&mut self) {
        for n in &mut self.nodes {
            if let Some(g) = n.grad.take() {
                self.pool.give(g.into_vec());
            }
        }
    }

    /// Overwrites a node's gradient accumulator directly.
    ///
    /// This is the injection point for externally-combined gradients: a
    /// data-parallel trainer runs backward on worker replicas, tree-reduces
    /// the per-shard gradients, and stores the result here so a stock
    /// optimizer `step` on this graph sees them as if `backward` had run.
    ///
    /// # Panics
    ///
    /// Panics if `g` is `Some` with a shape different from the node value.
    pub fn set_grad(&mut self, v: Var, g: Option<Tensor>) {
        if let Some(t) = &g {
            assert_eq!(
                t.shape(),
                self.nodes[v.0].value.shape(),
                "set_grad shape mismatch"
            );
        }
        self.nodes[v.0].grad = g;
    }

    /// Returns a mark for later [`Graph::truncate`].
    pub fn mark(&self) -> usize {
        self.nodes.len()
    }

    /// Drops every node created after `mark`, freeing per-step activations
    /// while keeping parameters created before the mark.
    ///
    /// # Panics
    ///
    /// Panics if `mark` exceeds the current length.
    pub fn truncate(&mut self, mark: usize) {
        assert!(mark <= self.nodes.len(), "truncate beyond tape length");
        for node in self.nodes.drain(mark..) {
            match node.op {
                Op::Conv2d {
                    cols: Some(cols), ..
                } => self.pool.give(cols.into_vec()),
                Op::BatchNorm2d { xhat, .. } | Op::LayerNorm { xhat, .. } => {
                    self.pool.give(xhat.into_vec());
                }
                Op::CrossEntropy2d { probs, .. } => self.pool.give(probs.into_vec()),
                Op::MseLoss { target, .. } => self.pool.give(target.into_vec()),
                _ => {}
            }
            if let Some(g) = node.grad {
                self.pool.give(g.into_vec());
            }
            self.pool.give(node.value.into_vec());
        }
        self.pool.flush_counters();
    }

    // ----------------------------------------------------------------- ops

    /// Element-wise sum of two same-shape nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.pooled_zip(a, b, |x, y| x + y);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Add(a, b), rg)
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.pooled_zip(a, b, |x, y| x - y);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Sub(a, b), rg)
    }

    /// Element-wise product of two same-shape nodes.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.pooled_zip(a, b, |x, y| x * y);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Mul(a, b), rg)
    }

    /// Negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.pooled_map(a, |x| -x);
        let rg = self.rg(a);
        self.push(v, Op::Neg(a), rg)
    }

    /// Multiplication by a compile-time scalar.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.pooled_map(a, |x| x * c);
        let rg = self.rg(a);
        self.push(v, Op::Scale(a, c), rg)
    }

    /// Addition of a compile-time scalar.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.pooled_map(a, |x| x + c);
        let rg = self.rg(a);
        self.push(v, Op::AddScalar(a), rg)
    }

    /// 2-D matrix product `[m,k] x [k,n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = (self.value(a).shape()[0], self.value(b).shape()[1]);
        let mut out = self.pool.take_any(m * n);
        self.nodes[a.0]
            .value
            .matmul2d_into(&self.nodes[b.0].value, &mut out);
        let v = Tensor::from_vec(vec![m, n], out).expect("matmul out");
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Matmul(a, b), rg)
    }

    /// Batched matrix product `[b,m,k] x [b,k,n]`.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).bmm(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Bmm(a, b), rg)
    }

    /// Batched transpose-aware product `a · bᵀ`:
    /// `[b,m,k] x [b,n,k] -> [b,m,n]`, bitwise identical to
    /// `bmm(a, permute(b, [0,2,1]))` without materializing the permuted
    /// copy.
    pub fn bmm_nt(&mut self, a: Var, b: Var) -> Var {
        let (ba, m) = (self.value(a).shape()[0], self.value(a).shape()[1]);
        let n = self.value(b).shape()[1];
        let mut out = self.pool.take_any(ba * m * n);
        self.nodes[a.0]
            .value
            .bmm_nt_into(&self.nodes[b.0].value, &mut out);
        let v = Tensor::from_vec(vec![ba, m, n], out).expect("bmm_nt out");
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::BmmNT(a, b), rg)
    }

    /// Batched transpose-aware product `aᵀ · b`:
    /// `[b,k,m] x [b,k,n] -> [b,m,n]`, bitwise identical to
    /// `bmm(permute(a, [0,2,1]), b)` without materializing the permuted
    /// copy.
    pub fn bmm_tn(&mut self, a: Var, b: Var) -> Var {
        let (ba, m) = (self.value(a).shape()[0], self.value(a).shape()[2]);
        let n = self.value(b).shape()[2];
        let mut out = self.pool.take_any(ba * m * n);
        self.nodes[a.0]
            .value
            .bmm_tn_into(&self.nodes[b.0].value, &mut out);
        let v = Tensor::from_vec(vec![ba, m, n], out).expect("bmm_tn out");
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::BmmTN(a, b), rg)
    }

    /// Fused token-major attention `softmax(q·kᵀ·scale)·v` for
    /// `q: [B,Lq,D]`, `k: [B,Lk,D]`, `v: [B,Lk,Dv]`.
    ///
    /// Forward streams query row-tiles (the `[Lq, Lk]` score/softmax
    /// matrices are never materialized — peak activation memory drops from
    /// `O(L²)` to `O(tile·L)`), and backward recomputes score rows instead
    /// of storing the softmax on the tape. Output and all three gradients
    /// are bitwise identical to the composed
    /// `permute → bmm → scale → softmax_last → bmm` chain, including when
    /// `q`, `k`, `v` alias the same node (gradient contributions accumulate
    /// in the composed order: v, then k, then q).
    pub fn attention(&mut self, q: Var, k: Var, v: Var, scale: f32) -> Var {
        let &[b, lq, d] = self.value(q).shape() else {
            panic!("attention q must be [B,Lq,D]");
        };
        let (lk, dv) = (self.value(k).shape()[1], self.value(v).shape()[2]);
        let mut out = self.pool.take_any(b * lq * dv);
        // A plain Vec, not a pool buffer: a small pooled buffer outlives
        // the forward and keeps freed heap memory from being returned,
        // which measurably raised the serve process's peak RSS.
        let mut scores = vec![0.0f32; lk];
        attention_tm_slices(
            self.value(q).data(),
            self.value(k).data(),
            self.value(v).data(),
            b,
            lq,
            lk,
            d,
            dv,
            scale,
            &mut out,
            &mut scores,
        );
        let val = Tensor::from_vec(vec![b, lq, dv], out).expect("attention out");
        let rg = self.rg(q) || self.rg(k) || self.rg(v);
        self.push(
            val,
            Op::Attention {
                q,
                k,
                v,
                scale,
                feature_major: false,
            },
            rg,
        )
    }

    /// Fused feature-major attention for `q, k: [B,D,L]`, `v: [B,Dv,L]`
    /// (the PAM position-attention layout: channels outermost, attention
    /// over spatial positions).
    ///
    /// `out[b,c,y] = Σ_x softmax_x(Σ_p q[b,p,y]·k[b,p,x]·scale) · v[b,c,x]`,
    /// bitwise identical to the composed PAM chain
    /// `bmm(kᵀ, q) → permute → softmax_last → permute → bmm(v, ·)`.
    pub fn attention_fm(&mut self, q: Var, k: Var, v: Var, scale: f32) -> Var {
        let &[b, n, l] = self.value(q).shape() else {
            panic!("attention_fm q must be [B,D,L]");
        };
        let nv = self.value(v).shape()[1];
        let mut out = self.pool.take_any(b * nv * l);
        let mut scores = vec![0.0f32; l]; // not pooled: see `attention`
        attention_fm_slices(
            self.value(q).data(),
            self.value(k).data(),
            self.value(v).data(),
            b,
            n,
            nv,
            l,
            scale,
            &mut out,
            &mut scores,
        );
        let val = Tensor::from_vec(vec![b, nv, l], out).expect("attention_fm out");
        let rg = self.rg(q) || self.rg(k) || self.rg(v);
        self.push(
            val,
            Op::Attention {
                q,
                k,
                v,
                scale,
                feature_major: true,
            },
            rg,
        )
    }

    /// 2-D convolution of `x: [B,C,H,W]` with `w: [OC,C,KH,KW]`.
    pub fn conv2d(&mut self, x: Var, w: Var, stride: usize, pad: usize) -> Var {
        let shape = Conv2dShape::of(self.value(x).shape(), self.value(w).shape(), stride, pad)
            .expect("conv2d needs x: [B,C,H,W] and w: [OC,C,KH,KW]");
        let (oh, ow) = shape.out_hw();
        let Conv2dShape {
            b, c, oc, kh, kw, ..
        } = shape;
        let mut cols_buf = self.pool.take_any(shape.cols_len());
        let mut y_mat = self.pool.take_any(shape.out_len());
        let mut out = self.pool.take_any(shape.out_len());
        lowlevel::conv2d_into(
            self.value(x).data(),
            self.value(w).data(),
            shape,
            None,
            None,
            false,
            &mut cols_buf,
            &mut y_mat,
            &mut out,
        );
        self.pool.give(y_mat);
        let cols =
            Tensor::from_vec(vec![c * kh * kw, b * oh * ow], cols_buf).expect("conv2d cols shape");
        let v = Tensor::from_vec(vec![b, oc, oh, ow], out).expect("conv2d output");
        let rg = (self.rg(x) || self.rg(w)) && self.grad_enabled;
        // The lowering is backward-only state: on the inference path it is
        // recycled immediately instead of riding the tape node.
        let cols = if rg {
            Some(cols)
        } else {
            self.pool.give(cols.into_vec());
            None
        };
        self.push(
            v,
            Op::Conv2d {
                x,
                w,
                stride,
                pad,
                cols,
            },
            rg,
        )
    }

    /// Adds a per-channel bias `b: [C]` to `x: [B,C,H,W]`.
    pub fn add_bias_channel(&mut self, x: Var, b: Var) -> Var {
        let (bs, c, h, w) = self.value(x).dims4();
        assert_eq!(self.value(b).shape(), &[c], "bias shape mismatch");
        let mut out = self.pool.take_any(self.value(x).numel());
        let (xd, bd) = (self.value(x).data(), self.value(b).data());
        lowlevel::add_bias_channel_into(xd, bd, bs, c, h * w, &mut out);
        let v = Tensor::from_vec(vec![bs, c, h, w], out).expect("bias output");
        let rg = self.rg(x) || self.rg(b);
        self.push(v, Op::AddBiasChannel(x, b), rg)
    }

    /// Adds a bias `b: [D]` to the last axis of `x: [..., D]`.
    pub fn add_bias_row(&mut self, x: Var, b: Var) -> Var {
        let d = *self.value(x).shape().last().expect("rank >= 1");
        assert_eq!(self.value(b).shape(), &[d], "row bias shape mismatch");
        let mut out = self.pool.take_any(self.value(x).numel());
        lowlevel::add_bias_row_into(self.value(x).data(), self.value(b).data(), &mut out);
        let v = Tensor::from_vec(self.value(x).shape().to_vec(), out).expect("row bias output");
        let rg = self.rg(x) || self.rg(b);
        self.push(v, Op::AddBiasRow(x, b), rg)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.pooled_map(x, |a| a.max(0.0));
        let rg = self.rg(x);
        self.push(v, Op::Relu(x), rg)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        let v = self.pooled_map(x, |a| if a > 0.0 { a } else { slope * a });
        let rg = self.rg(x);
        self.push(v, Op::LeakyRelu(x, slope), rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let v = self.pooled_map(x, |a| 1.0 / (1.0 + (-a).exp()));
        let rg = self.rg(x);
        self.push(v, Op::Sigmoid(x), rg)
    }

    /// GELU activation (tanh approximation), used in transformer MLPs.
    pub fn gelu(&mut self, x: Var) -> Var {
        let v = self.pooled_map(x, gelu_fwd);
        let rg = self.rg(x);
        self.push(v, Op::Gelu(x), rg)
    }

    /// Batch normalization over `(B, H, W)` per channel using batch
    /// statistics, with affine parameters `gamma, beta: [C]`.
    ///
    /// Returns the normalized output plus the per-channel batch mean and
    /// variance (for running-statistic tracking by the layer).
    pub fn batch_norm2d(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    ) -> (Var, Vec<f32>, Vec<f32>) {
        let (b, c, h, w) = self.value(x).dims4();
        let n = (b * h * w) as f32;
        let src = self.nodes[x.0].value.data();
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for bi in 0..b {
            for ci in 0..c {
                for &v in &src[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w] {
                    mean[ci] += v;
                }
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        for bi in 0..b {
            for ci in 0..c {
                for &v in &src[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w] {
                    let d = v - mean[ci];
                    var[ci] += d * d;
                }
            }
        }
        for v in &mut var {
            *v /= n;
        }
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let mut xhat = self.pool.take_any(src.len());
        let g = self.value(gamma).data().to_vec();
        let be = self.value(beta).data().to_vec();
        let mut out = self.pool.take_any(src.len());
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * h * w;
                for k in 0..h * w {
                    let xh = (src[base + k] - mean[ci]) * inv_std[ci];
                    xhat[base + k] = xh;
                    out[base + k] = g[ci] * xh + be[ci];
                }
            }
        }
        let xhat = Tensor::from_vec(vec![b, c, h, w], xhat).expect("bn xhat");
        let v = Tensor::from_vec(vec![b, c, h, w], out).expect("bn out");
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        let var_out = var.clone();
        let node = self.push(
            v,
            Op::BatchNorm2d {
                x,
                gamma,
                beta,
                xhat,
                inv_std,
            },
            rg,
        );
        (node, mean, var_out)
    }

    /// Per-channel affine transform `y = scale_c * x + shift_c` with
    /// *constant* (non-differentiable) coefficients — the inference-mode form
    /// of batch normalization with running statistics folded in.
    pub fn channel_affine(&mut self, x: Var, scale: Vec<f32>, shift: Vec<f32>) -> Var {
        let (b, c, h, w) = self.value(x).dims4();
        let mut out = self.pool.take_any(self.value(x).numel());
        let xd = self.value(x).data();
        lowlevel::channel_affine_into(xd, &scale, &shift, b, c, h * w, &mut out);
        let v = Tensor::from_vec(vec![b, c, h, w], out).expect("affine out");
        let rg = self.rg(x);
        self.push(v, Op::ChannelAffine { x, scale, shift }, rg)
    }

    /// Layer normalization over the last axis with affine `gamma, beta: [D]`.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let d = *self.value(x).shape().last().expect("rank >= 1");
        let src = self.nodes[x.0].value.data();
        let rows = src.len() / d;
        let g = self.value(gamma).data().to_vec();
        let be = self.value(beta).data().to_vec();
        let mut xhat = self.pool.take_any(src.len());
        let mut out = self.pool.take_any(src.len());
        let mut inv_std = vec![0.0f32; rows];
        // Dispatched kernel shared with the plan executor: scalar backend
        // is the verbatim reference loop, vector backends vectorize the
        // row reductions (see `mfaplace_tensor::simd`).
        mfaplace_tensor::layer_norm_rows(
            src,
            &g,
            &be,
            eps,
            d,
            &mut out,
            Some(&mut xhat),
            Some(&mut inv_std),
        );
        let xhat = Tensor::from_vec(self.value(x).shape().to_vec(), xhat).expect("ln xhat");
        let v = Tensor::from_vec(self.value(x).shape().to_vec(), out).expect("ln out");
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        self.push(
            v,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                xhat,
                inv_std,
                eps,
            },
            rg,
        )
    }

    /// Softmax over the last axis.
    pub fn softmax_last(&mut self, x: Var) -> Var {
        let v = self.value(x).softmax_lastdim();
        let rg = self.rg(x);
        self.push(v, Op::SoftmaxLast(x), rg)
    }

    /// Pixel-wise multi-class cross entropy between `logits: [B,K,H,W]` and
    /// integer `labels` (length `B*H*W`, values `< K`), optionally weighted
    /// per class. Returns a scalar loss node.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes or out-of-range labels.
    pub fn cross_entropy2d(
        &mut self,
        logits: Var,
        labels: &[u8],
        class_weights: Option<&[f32]>,
    ) -> Var {
        self.cross_entropy2d_impl(logits, labels, class_weights, true)
    }

    /// Un-normalized variant of [`Graph::cross_entropy2d`]: the node value
    /// is the **weighted loss sum** (not divided by the weight sum), and
    /// backward propagates the upstream gradient unscaled.
    ///
    /// This is the per-shard loss of the data-parallel trainer: each shard
    /// contributes its loss sum, the trainer divides by a weight
    /// denominator it computes serially from the labels (see
    /// [`Graph::backward_seeded`]), so the combined gradient is independent
    /// of how samples were sharded.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes or out-of-range labels.
    pub fn cross_entropy2d_sum(
        &mut self,
        logits: Var,
        labels: &[u8],
        class_weights: Option<&[f32]>,
    ) -> Var {
        self.cross_entropy2d_impl(logits, labels, class_weights, false)
    }

    fn cross_entropy2d_impl(
        &mut self,
        logits: Var,
        labels: &[u8],
        class_weights: Option<&[f32]>,
        normalize: bool,
    ) -> Var {
        let (b, k, h, w) = self.value(logits).dims4();
        assert_eq!(labels.len(), b * h * w, "label count mismatch");
        if let Some(cw) = class_weights {
            assert_eq!(cw.len(), k, "class weight count mismatch");
        }
        let src = self.nodes[logits.0].value.data();
        let hw = h * w;
        let mut probs = self.pool.take_any(src.len());
        let mut loss = 0.0f64;
        let mut weight_sum = 0.0f64;
        for bi in 0..b {
            for p in 0..hw {
                // softmax over k at pixel p
                let mut m = f32::NEG_INFINITY;
                for ki in 0..k {
                    m = m.max(src[(bi * k + ki) * hw + p]);
                }
                let mut z = 0.0f32;
                for ki in 0..k {
                    let e = (src[(bi * k + ki) * hw + p] - m).exp();
                    probs[(bi * k + ki) * hw + p] = e;
                    z += e;
                }
                let y = labels[bi * hw + p] as usize;
                assert!(y < k, "label {y} out of range for {k} classes");
                let wgt = class_weights.map_or(1.0, |cw| cw[y]);
                let py = probs[(bi * k + y) * hw + p] / z;
                loss += wgt as f64 * -(py.max(1e-12).ln() as f64);
                weight_sum += wgt as f64;
                for ki in 0..k {
                    probs[(bi * k + ki) * hw + p] /= z;
                }
            }
        }
        let weight_sum = if normalize {
            weight_sum.max(1e-12) as f32
        } else {
            1.0
        };
        let v = Tensor::scalar((loss / weight_sum as f64) as f32);
        let probs = Tensor::from_vec(vec![b, k, h, w], probs).expect("ce probs");
        let rg = self.rg(logits);
        self.push(
            v,
            Op::CrossEntropy2d {
                logits,
                labels: labels.to_vec(),
                class_weights: class_weights.map(<[f32]>::to_vec),
                probs,
                weight_sum,
            },
            rg,
        )
    }

    /// Mean-squared-error loss against a constant target of the same shape.
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        assert_eq!(
            self.value(pred).shape(),
            target.shape(),
            "mse target shape mismatch"
        );
        let diff = self.value(pred).sub(target);
        let v = Tensor::scalar(diff.sq_norm() / diff.numel().max(1) as f32);
        let rg = self.rg(pred);
        self.push(
            v,
            Op::MseLoss {
                pred,
                target: target.clone(),
            },
            rg,
        )
    }

    /// Reshape (element count preserved).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&mut self, x: Var, shape: Vec<usize>) -> Var {
        assert_eq!(
            numel(&shape),
            self.value(x).numel(),
            "reshape element mismatch"
        );
        let mut buf = self.pool.take_any(self.nodes[x.0].value.numel());
        buf.copy_from_slice(self.nodes[x.0].value.data());
        let v = Tensor::from_vec(shape, buf).expect("reshape");
        let rg = self.rg(x);
        self.push(v, Op::Reshape(x), rg)
    }

    /// General axis permutation.
    pub fn permute(&mut self, x: Var, axes: &[usize]) -> Var {
        let v = self.value(x).permute(axes);
        let rg = self.rg(x);
        self.push(
            v,
            Op::Permute {
                x,
                axes: axes.to_vec(),
            },
            rg,
        )
    }

    /// Channel-axis concatenation of rank-4 nodes.
    pub fn concat_channels(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_channels(&tensors);
        let rg = parts.iter().any(|&p| self.rg(p));
        self.push(v, Op::ConcatChannels(parts.to_vec()), rg)
    }

    /// Extracts channels `[c0, c1)` of a rank-4 node.
    pub fn slice_channels(&mut self, x: Var, c0: usize, c1: usize) -> Var {
        let v = self.value(x).slice_channels(c0, c1);
        let rg = self.rg(x);
        self.push(v, Op::SliceChannels { x, c0, c1 }, rg)
    }

    /// Nearest-neighbour 2× upsampling.
    pub fn upsample2x(&mut self, x: Var) -> Var {
        let v = self.value(x).upsample2x();
        let rg = self.rg(x);
        self.push(v, Op::Upsample2x(x), rg)
    }

    /// 2×2 max pooling with stride 2.
    pub fn maxpool2x2(&mut self, x: Var) -> Var {
        let (v, arg) = self.value(x).maxpool2x2();
        let rg = self.rg(x);
        self.push(v, Op::MaxPool2x2 { x, arg }, rg)
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(self.value(x).mean());
        let rg = self.rg(x);
        self.push(v, Op::Mean(x), rg)
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(self.value(x).sum());
        let rg = self.rg(x);
        self.push(v, Op::Sum(x), rg)
    }

    /// Broadcast product with a single-element node (e.g. the learnable
    /// `alpha`/`beta` of the PAM/CAM blocks).
    pub fn mul_scalar_var(&mut self, x: Var, s: Var) -> Var {
        assert_eq!(self.value(s).numel(), 1, "scalar var must hold one element");
        let sv = self.value(s).item();
        let v = self.pooled_map(x, |a| a * sv);
        let rg = self.rg(x) || self.rg(s);
        self.push(v, Op::MulScalarVar(x, s), rg)
    }

    // ------------------------------------------------------------ backward

    /// Runs reverse-mode differentiation from a scalar `loss` node,
    /// accumulating gradients into every node with `requires_grad`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&mut self, loss: Var) {
        self.backward_seeded(loss, 1.0);
    }

    /// Read-only access to a node value by raw tape index (the plan
    /// capture walks exported [`TapeOp`] operand indices, which are raw
    /// `usize`s rather than `Var` handles).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn value_at(&self, index: usize) -> &Tensor {
        &self.nodes[index].value
    }

    /// Exports the tape segment `[from, len)` as a list of [`TapeNode`]s —
    /// the capture hook of the compiled inference plan (`mfaplace-infer`).
    ///
    /// Operand indices are raw tape indices; indices `< from` refer to
    /// pre-existing leaves (parameters), indices `>= from` to nodes inside
    /// the segment (including constants materialized mid-forward, e.g. the
    /// PGNN aggregation kernels). Returns `Err` naming the offending op if
    /// the segment contains a training-only op that has no inference-plan
    /// equivalent (batch-stats BatchNorm, losses, reductions, `add_scalar`
    /// whose scalar is not recorded on the tape).
    pub fn export_segment(&self, from: usize) -> Result<Vec<TapeNode>, String> {
        assert!(from <= self.nodes.len(), "export beyond tape length");
        let mut out = Vec::with_capacity(self.nodes.len() - from);
        for (i, node) in self.nodes.iter().enumerate().skip(from) {
            let op = match &node.op {
                Op::Leaf => TapeOp::Leaf,
                Op::Add(a, b) => TapeOp::Add(a.0, b.0),
                Op::Sub(a, b) => TapeOp::Sub(a.0, b.0),
                Op::Mul(a, b) => TapeOp::Mul(a.0, b.0),
                Op::Neg(a) => TapeOp::Neg(a.0),
                Op::Scale(a, c) => TapeOp::Scale(a.0, *c),
                Op::Matmul(a, b) => TapeOp::Matmul(a.0, b.0),
                Op::Bmm(a, b) => TapeOp::Bmm(a.0, b.0),
                Op::BmmNT(a, b) => TapeOp::BmmNT(a.0, b.0),
                Op::BmmTN(a, b) => TapeOp::BmmTN(a.0, b.0),
                Op::Attention {
                    q,
                    k,
                    v,
                    scale,
                    feature_major,
                } => TapeOp::Attention {
                    q: q.0,
                    k: k.0,
                    v: v.0,
                    scale: *scale,
                    feature_major: *feature_major,
                },
                Op::Conv2d {
                    x, w, stride, pad, ..
                } => TapeOp::Conv2d {
                    x: x.0,
                    w: w.0,
                    stride: *stride,
                    pad: *pad,
                },
                Op::AddBiasChannel(x, b) => TapeOp::AddBiasChannel(x.0, b.0),
                Op::AddBiasRow(x, b) => TapeOp::AddBiasRow(x.0, b.0),
                Op::Relu(x) => TapeOp::Relu(x.0),
                Op::LeakyRelu(x, s) => TapeOp::LeakyRelu(x.0, *s),
                Op::Sigmoid(x) => TapeOp::Sigmoid(x.0),
                Op::Gelu(x) => TapeOp::Gelu(x.0),
                Op::ChannelAffine { x, scale, shift } => TapeOp::ChannelAffine {
                    x: x.0,
                    scale: scale.clone(),
                    shift: shift.clone(),
                },
                Op::LayerNorm {
                    x,
                    gamma,
                    beta,
                    eps,
                    ..
                } => TapeOp::LayerNorm {
                    x: x.0,
                    gamma: gamma.0,
                    beta: beta.0,
                    eps: *eps,
                },
                Op::SoftmaxLast(x) => TapeOp::SoftmaxLast(x.0),
                Op::Reshape(x) => TapeOp::Reshape(x.0),
                Op::Permute { x, axes } => TapeOp::Permute {
                    x: x.0,
                    axes: axes.clone(),
                },
                Op::ConcatChannels(parts) => {
                    TapeOp::ConcatChannels(parts.iter().map(|p| p.0).collect())
                }
                Op::SliceChannels { x, c0, c1 } => TapeOp::SliceChannels {
                    x: x.0,
                    c0: *c0,
                    c1: *c1,
                },
                Op::Upsample2x(x) => TapeOp::Upsample2x(x.0),
                Op::MaxPool2x2 { x, .. } => TapeOp::MaxPool2x2(x.0),
                Op::MulScalarVar(x, s) => TapeOp::MulScalarVar(x.0, s.0),
                Op::AddScalar(_) => {
                    return Err(format!(
                        "node {i}: add_scalar is not plan-exportable (scalar not on the tape)"
                    ))
                }
                Op::BatchNorm2d { .. } => {
                    return Err(format!(
                        "node {i}: batch-stats batch_norm2d is training-only; \
                         inference forwards record channel_affine instead"
                    ))
                }
                Op::CrossEntropy2d { .. } => {
                    return Err(format!("node {i}: cross_entropy2d is training-only"))
                }
                Op::MseLoss { .. } => return Err(format!("node {i}: mse_loss is training-only")),
                Op::Mean(_) => return Err(format!("node {i}: mean reduction is training-only")),
                Op::Sum(_) => return Err(format!("node {i}: sum reduction is training-only")),
            };
            out.push(TapeNode {
                index: i,
                shape: node.value.shape().to_vec(),
                op,
            });
        }
        Ok(out)
    }

    /// [`Graph::backward`] with an explicit seed gradient `d(out)/d(loss)`
    /// instead of `1.0`.
    ///
    /// Seeding with a reciprocal denominator turns a loss-**sum** node
    /// (e.g. [`Graph::cross_entropy2d_sum`]) into the exact gradient of
    /// `sum / denom` without adding the division to the tape — the
    /// data-parallel trainer uses this with a denominator computed serially
    /// over the whole minibatch so per-shard gradients are shard-invariant.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward_seeded(&mut self, loss: Var, seed: f32) {
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward requires a scalar loss"
        );
        let seed = Tensor::from_vec(self.nodes[loss.0].value.shape().to_vec(), vec![seed])
            .expect("seed gradient");
        accum_into(&mut self.nodes[loss.0], seed);
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].requires_grad || self.nodes[i].grad.is_none() {
                continue;
            }
            let (parents, me) = self.nodes.split_at_mut(i);
            let node = &mut me[0];
            let dy = node.grad.as_ref().expect("checked above").clone();
            backward_op(node, &dy, parents);
        }
    }
}

/// Adds `g` into a node's gradient accumulator (if it requires grad).
fn accum(parents: &mut [Node], v: Var, g: Tensor) {
    if parents[v.0].requires_grad {
        accum_into(&mut parents[v.0], g);
    }
}

fn accum_into(node: &mut Node, g: Tensor) {
    match &mut node.grad {
        Some(acc) => acc.add_scaled_assign(&g, 1.0),
        slot @ None => *slot = Some(g),
    }
}

/// Forward GELU nonlinearity (tanh approximation), public so the plan
/// executor applies the exact same per-element arithmetic as the tape's
/// `Gelu` node — sharing the function is what keeps the compiled plan
/// bitwise identical to the recorded forward.
pub fn gelu_fwd(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

fn gelu_bwd(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044_715 * x * x * x);
    let t = u.tanh();
    let du = C * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[allow(clippy::too_many_lines)]
fn backward_op(node: &Node, dy: &Tensor, parents: &mut [Node]) {
    match &node.op {
        Op::Leaf => {}
        Op::Add(a, b) => {
            accum(parents, *a, dy.clone());
            accum(parents, *b, dy.clone());
        }
        Op::Sub(a, b) => {
            accum(parents, *a, dy.clone());
            accum(parents, *b, dy.scale(-1.0));
        }
        Op::Mul(a, b) => {
            let ga = dy.mul(&parents[b.0].value);
            let gb = dy.mul(&parents[a.0].value);
            accum(parents, *a, ga);
            accum(parents, *b, gb);
        }
        Op::Neg(a) => accum(parents, *a, dy.scale(-1.0)),
        Op::Scale(a, c) => accum(parents, *a, dy.scale(*c)),
        Op::AddScalar(a) => accum(parents, *a, dy.clone()),
        Op::Matmul(a, b) => {
            let av = &parents[a.0].value;
            let bv = &parents[b.0].value;
            // Transpose-aware kernels: bitwise identical to
            // dy·bᵀ / aᵀ·dy via materialized transposes, without the copies.
            let ga = dy.matmul2d_nt(bv);
            let gb = av.matmul2d_tn(dy);
            accum(parents, *a, ga);
            accum(parents, *b, gb);
        }
        Op::Bmm(a, b) => {
            let av = &parents[a.0].value;
            let bv = &parents[b.0].value;
            let ga = dy.bmm_nt(bv);
            let gb = av.bmm_tn(dy);
            accum(parents, *a, ga);
            accum(parents, *b, gb);
        }
        Op::BmmNT(a, b) => {
            // y = a·bᵀ ⇒ da = dy·b, db = dyᵀ·a.
            let av = &parents[a.0].value;
            let bv = &parents[b.0].value;
            let ga = dy.bmm(bv);
            let gb = dy.bmm_tn(av);
            accum(parents, *a, ga);
            accum(parents, *b, gb);
        }
        Op::BmmTN(a, b) => {
            // y = aᵀ·b ⇒ da = b·dyᵀ, db = a·dy.
            let av = &parents[a.0].value;
            let bv = &parents[b.0].value;
            let ga = bv.bmm_nt(dy);
            let gb = av.bmm(dy);
            accum(parents, *a, ga);
            accum(parents, *b, gb);
        }
        Op::Attention {
            q,
            k,
            v,
            scale,
            feature_major,
        } => {
            let (dq, dk, dv) = if *feature_major {
                attention_fm_backward(
                    &parents[q.0].value,
                    &parents[k.0].value,
                    &parents[v.0].value,
                    *scale,
                    dy,
                )
            } else {
                attention_tm_backward(
                    &parents[q.0].value,
                    &parents[k.0].value,
                    &parents[v.0].value,
                    *scale,
                    dy,
                )
            };
            // Accumulation order v, k, q replicates the composed chain's
            // backward sequence (softmax·v bmm, then the key permute, then
            // the score bmm), which is what makes gradients bitwise
            // identical when q/k/v alias one node (CAM's self-attention).
            accum(parents, *v, dv);
            accum(parents, *k, dk);
            accum(parents, *q, dq);
        }
        Op::Conv2d {
            x,
            w,
            stride,
            pad,
            cols,
        } => {
            let (b, oc, oh, ow) = node.value.dims4();
            let (xb, c, h, wd) = parents[x.0].value.dims4();
            debug_assert_eq!(b, xb);
            let (kh, kw) = {
                let ws = parents[w.0].value.shape();
                (ws[2], ws[3])
            };
            let ohow = oh * ow;
            // reorder dy [B,OC,OH,OW] -> dy_mat [OC, B*OH*OW]
            let mut dym = vec![0.0f32; dy.numel()];
            for bi in 0..b {
                for ocx in 0..oc {
                    let src = &dy.data()[(bi * oc + ocx) * ohow..(bi * oc + ocx + 1) * ohow];
                    dym[(ocx * b + bi) * ohow..(ocx * b + bi + 1) * ohow].copy_from_slice(src);
                }
            }
            let dym = Tensor::from_vec(vec![oc, b * ohow], dym).expect("conv dym");
            let cols = cols
                .as_ref()
                .expect("conv2d cols retained for grad-requiring ops");
            if parents[w.0].requires_grad {
                let dwm = dym.matmul2d_nt(cols);
                let dw = dwm.reshaped(vec![oc, c, kh, kw]);
                accum(parents, *w, dw);
            }
            if parents[x.0].requires_grad {
                let ckk = c * kh * kw;
                let wm = parents[w.0].value.reshape(vec![oc, ckk]).expect("conv wm");
                let dcols = wm.matmul2d_tn(&dym);
                let dx = dcols.col2im(b, c, h, wd, kh, kw, *stride, *pad);
                accum(parents, *x, dx);
            }
        }
        Op::AddBiasChannel(x, bias) => {
            let (b, c, h, w) = node.value.dims4();
            if parents[bias.0].requires_grad {
                let mut db = vec![0.0f32; c];
                for bi in 0..b {
                    for (ci, dbv) in db.iter_mut().enumerate() {
                        for &g in &dy.data()[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w] {
                            *dbv += g;
                        }
                    }
                }
                accum(
                    parents,
                    *bias,
                    Tensor::from_vec(vec![c], db).expect("bias grad"),
                );
            }
            accum(parents, *x, dy.clone());
        }
        Op::AddBiasRow(x, bias) => {
            let d = *node.value.shape().last().expect("rank >= 1");
            if parents[bias.0].requires_grad {
                let mut db = vec![0.0f32; d];
                for row in dy.data().chunks(d) {
                    for (acc, &g) in db.iter_mut().zip(row) {
                        *acc += g;
                    }
                }
                accum(
                    parents,
                    *bias,
                    Tensor::from_vec(vec![d], db).expect("row bias grad"),
                );
            }
            accum(parents, *x, dy.clone());
        }
        Op::Relu(x) => {
            let xv = &parents[x.0].value;
            let g = dy.zip_map(xv, |g, x| if x > 0.0 { g } else { 0.0 });
            accum(parents, *x, g);
        }
        Op::LeakyRelu(x, slope) => {
            let xv = &parents[x.0].value;
            let s = *slope;
            let g = dy.zip_map(xv, |g, x| if x > 0.0 { g } else { s * g });
            accum(parents, *x, g);
        }
        Op::Sigmoid(x) => {
            let g = dy.zip_map(&node.value, |g, s| g * s * (1.0 - s));
            accum(parents, *x, g);
        }
        Op::Gelu(x) => {
            let xv = &parents[x.0].value;
            let g = dy.zip_map(xv, |g, x| g * gelu_bwd(x));
            accum(parents, *x, g);
        }
        Op::BatchNorm2d {
            x,
            gamma,
            beta,
            xhat,
            inv_std,
        } => {
            let (b, c, h, w) = node.value.dims4();
            let n = (b * h * w) as f32;
            let gval = parents[gamma.0].value.data().to_vec();
            let mut dgamma = vec![0.0f32; c];
            let mut dbeta = vec![0.0f32; c];
            let mut sum_dxhat = vec![0.0f32; c];
            let mut sum_dxhat_xhat = vec![0.0f32; c];
            for bi in 0..b {
                for ci in 0..c {
                    let base = (bi * c + ci) * h * w;
                    for k in 0..h * w {
                        let g = dy.data()[base + k];
                        let xh = xhat.data()[base + k];
                        dgamma[ci] += g * xh;
                        dbeta[ci] += g;
                        let dxh = g * gval[ci];
                        sum_dxhat[ci] += dxh;
                        sum_dxhat_xhat[ci] += dxh * xh;
                    }
                }
            }
            if parents[x.0].requires_grad {
                let mut dx = vec![0.0f32; dy.numel()];
                for bi in 0..b {
                    for ci in 0..c {
                        let base = (bi * c + ci) * h * w;
                        for k in 0..h * w {
                            let g = dy.data()[base + k];
                            let xh = xhat.data()[base + k];
                            let dxh = g * gval[ci];
                            dx[base + k] = inv_std[ci] / n
                                * (n * dxh - sum_dxhat[ci] - xh * sum_dxhat_xhat[ci]);
                        }
                    }
                }
                accum(
                    parents,
                    *x,
                    Tensor::from_vec(vec![b, c, h, w], dx).expect("bn dx"),
                );
            }
            accum(
                parents,
                *gamma,
                Tensor::from_vec(vec![c], dgamma).expect("bn dgamma"),
            );
            accum(
                parents,
                *beta,
                Tensor::from_vec(vec![c], dbeta).expect("bn dbeta"),
            );
        }
        Op::ChannelAffine { x, scale, .. } => {
            let (b, c, h, w) = node.value.dims4();
            let mut dx = vec![0.0f32; dy.numel()];
            for bi in 0..b {
                for (ci, &sc) in scale.iter().enumerate() {
                    let base = (bi * c + ci) * h * w;
                    for k in 0..h * w {
                        dx[base + k] = dy.data()[base + k] * sc;
                    }
                }
            }
            accum(
                parents,
                *x,
                Tensor::from_vec(vec![b, c, h, w], dx).expect("affine dx"),
            );
        }
        Op::LayerNorm {
            x,
            gamma,
            beta,
            xhat,
            inv_std,
            ..
        } => {
            let d = *node.value.shape().last().expect("rank >= 1");
            let rows = node.value.numel() / d;
            let gval = parents[gamma.0].value.data().to_vec();
            let mut dgamma = vec![0.0f32; d];
            let mut dbeta = vec![0.0f32; d];
            let mut dx = vec![0.0f32; dy.numel()];
            for r in 0..rows {
                let mut sum_dxh = 0.0f32;
                let mut sum_dxh_xh = 0.0f32;
                for k in 0..d {
                    let g = dy.data()[r * d + k];
                    let xh = xhat.data()[r * d + k];
                    dgamma[k] += g * xh;
                    dbeta[k] += g;
                    let dxh = g * gval[k];
                    sum_dxh += dxh;
                    sum_dxh_xh += dxh * xh;
                }
                for k in 0..d {
                    let g = dy.data()[r * d + k];
                    let xh = xhat.data()[r * d + k];
                    let dxh = g * gval[k];
                    dx[r * d + k] =
                        inv_std[r] / d as f32 * (d as f32 * dxh - sum_dxh - xh * sum_dxh_xh);
                }
            }
            if parents[x.0].requires_grad {
                accum(
                    parents,
                    *x,
                    Tensor::from_vec(node.value.shape().to_vec(), dx).expect("ln dx"),
                );
            }
            accum(
                parents,
                *gamma,
                Tensor::from_vec(vec![d], dgamma).expect("ln dgamma"),
            );
            accum(
                parents,
                *beta,
                Tensor::from_vec(vec![d], dbeta).expect("ln dbeta"),
            );
        }
        Op::SoftmaxLast(x) => {
            let s = &node.value;
            let d = *s.shape().last().expect("rank >= 1");
            let mut dx = vec![0.0f32; s.numel()];
            for (r, (srow, grow)) in s.data().chunks(d).zip(dy.data().chunks(d)).enumerate() {
                let dot: f32 = srow.iter().zip(grow).map(|(&a, &b)| a * b).sum();
                for k in 0..d {
                    dx[r * d + k] = srow[k] * (grow[k] - dot);
                }
            }
            accum(
                parents,
                *x,
                Tensor::from_vec(s.shape().to_vec(), dx).expect("softmax dx"),
            );
        }
        Op::CrossEntropy2d {
            logits,
            labels,
            class_weights,
            probs,
            weight_sum,
        } => {
            let (b, k, h, w) = probs.dims4();
            let hw = h * w;
            let gy = dy.item();
            let mut dx = vec![0.0f32; probs.numel()];
            for bi in 0..b {
                for p in 0..hw {
                    let y = labels[bi * hw + p] as usize;
                    let wgt = class_weights.as_ref().map_or(1.0, |cw| cw[y]);
                    for ki in 0..k {
                        let indicator = if ki == y { 1.0 } else { 0.0 };
                        dx[(bi * k + ki) * hw + p] =
                            gy * wgt * (probs.data()[(bi * k + ki) * hw + p] - indicator)
                                / weight_sum;
                    }
                }
            }
            accum(
                parents,
                *logits,
                Tensor::from_vec(vec![b, k, h, w], dx).expect("ce dx"),
            );
        }
        Op::MseLoss { pred, target } => {
            let n = target.numel().max(1) as f32;
            let gy = dy.item();
            let g = parents[pred.0]
                .value
                .zip_map(target, |p, t| gy * 2.0 * (p - t) / n);
            accum(parents, *pred, g);
        }
        Op::Reshape(x) => {
            let shape = parents[x.0].value.shape().to_vec();
            accum(parents, *x, dy.clone().reshaped(shape));
        }
        Op::Permute { x, axes } => {
            let mut inv = vec![0usize; axes.len()];
            for (i, &a) in axes.iter().enumerate() {
                inv[a] = i;
            }
            accum(parents, *x, dy.permute(&inv));
        }
        Op::ConcatChannels(parts) => {
            let mut c0 = 0usize;
            for &p in parts {
                let pc = parents[p.0].value.shape()[1];
                let g = dy.slice_channels(c0, c0 + pc);
                accum(parents, p, g);
                c0 += pc;
            }
        }
        Op::SliceChannels { x, c0, c1 } => {
            let (b, c, h, w) = parents[x.0].value.dims4();
            let hw = h * w;
            let nc = c1 - c0;
            let mut dx = vec![0.0f32; b * c * hw];
            for bi in 0..b {
                dx[(bi * c + c0) * hw..(bi * c + c1) * hw]
                    .copy_from_slice(&dy.data()[bi * nc * hw..(bi + 1) * nc * hw]);
            }
            accum(
                parents,
                *x,
                Tensor::from_vec(vec![b, c, h, w], dx).expect("slice dx"),
            );
        }
        Op::Upsample2x(x) => {
            accum(parents, *x, dy.downsample2x_sum());
        }
        Op::MaxPool2x2 { x, arg } => {
            let shape = parents[x.0].value.shape().to_vec();
            let mut dx = vec![0.0f32; parents[x.0].value.numel()];
            for (o, &src_idx) in arg.iter().enumerate() {
                dx[src_idx] += dy.data()[o];
            }
            accum(
                parents,
                *x,
                Tensor::from_vec(shape, dx).expect("maxpool dx"),
            );
        }
        Op::Mean(x) => {
            let n = parents[x.0].value.numel().max(1) as f32;
            let g = Tensor::full(parents[x.0].value.shape().to_vec(), dy.item() / n);
            accum(parents, *x, g);
        }
        Op::Sum(x) => {
            let g = Tensor::full(parents[x.0].value.shape().to_vec(), dy.item());
            accum(parents, *x, g);
        }
        Op::MulScalarVar(x, s) => {
            let sv = parents[s.0].value.item();
            if parents[s.0].requires_grad {
                let ds: f32 = dy
                    .data()
                    .iter()
                    .zip(parents[x.0].value.data())
                    .map(|(&g, &xv)| g * xv)
                    .sum();
                accum(
                    parents,
                    *s,
                    Tensor::from_vec(parents[s.0].value.shape().to_vec(), vec![ds])
                        .expect("scalar grad"),
                );
            }
            accum(parents, *x, dy.scale(sv));
        }
    }
}

// ------------------------------------------------------------- plan export

/// Exported view of one tape node's operation, with operands as raw tape
/// indices. Produced by [`Graph::export_segment`] and consumed by the plan
/// compiler in `mfaplace-infer`; tape-internal backward state (conv `cols`,
/// normalization `xhat`, pool argmaxes) is deliberately not exported — the
/// plan re-derives what it needs from shapes.
#[derive(Clone, Debug)]
pub enum TapeOp {
    /// A leaf created inside the segment (an input or a constant
    /// materialized mid-forward, e.g. PGNN's aggregation kernels).
    Leaf,
    /// Elementwise `a + b`.
    Add(usize, usize),
    /// Elementwise `a - b`.
    Sub(usize, usize),
    /// Elementwise `a * b`.
    Mul(usize, usize),
    /// Elementwise negation.
    Neg(usize),
    /// Elementwise `x * c` for a compile-time scalar.
    Scale(usize, f32),
    /// `[m,k] x [k,n]` matrix product.
    Matmul(usize, usize),
    /// Batched `[b,m,k] x [b,k,n]`.
    Bmm(usize, usize),
    /// Batched `a · bᵀ`.
    BmmNT(usize, usize),
    /// Batched `aᵀ · b`.
    BmmTN(usize, usize),
    /// Fused attention (token-major when `feature_major` is false).
    Attention {
        q: usize,
        k: usize,
        v: usize,
        scale: f32,
        feature_major: bool,
    },
    /// 2-D convolution of `x` with weight `w`.
    Conv2d {
        x: usize,
        w: usize,
        stride: usize,
        pad: usize,
    },
    /// Per-channel bias add on a rank-4 tensor.
    AddBiasChannel(usize, usize),
    /// Last-axis bias add.
    AddBiasRow(usize, usize),
    /// Rectified linear unit.
    Relu(usize),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(usize, f32),
    /// Logistic sigmoid.
    Sigmoid(usize),
    /// GELU (tanh approximation, [`gelu_fwd`]).
    Gelu(usize),
    /// Constant per-channel affine (inference-mode batch norm).
    ChannelAffine {
        x: usize,
        scale: Vec<f32>,
        shift: Vec<f32>,
    },
    /// Last-axis layer normalization.
    LayerNorm {
        x: usize,
        gamma: usize,
        beta: usize,
        eps: f32,
    },
    /// Softmax over the last axis.
    SoftmaxLast(usize),
    /// Reshape (tape semantics: a copy).
    Reshape(usize),
    /// General axis permutation.
    Permute { x: usize, axes: Vec<usize> },
    /// Channel-axis concatenation.
    ConcatChannels(Vec<usize>),
    /// Channel slice `[c0, c1)`.
    SliceChannels { x: usize, c0: usize, c1: usize },
    /// Nearest-neighbour 2× upsampling.
    Upsample2x(usize),
    /// 2×2 max pooling with stride 2.
    MaxPool2x2(usize),
    /// Broadcast product with a single-element node.
    MulScalarVar(usize, usize),
}

/// One exported tape node: its raw index, output shape, and operation.
#[derive(Clone, Debug)]
pub struct TapeNode {
    /// Raw tape index of this node.
    pub index: usize,
    /// Output shape of the node value.
    pub shape: Vec<usize>,
    /// The recorded operation.
    pub op: TapeOp,
}
