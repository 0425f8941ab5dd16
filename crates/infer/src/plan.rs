//! Plan compilation: tape capture, fusion passes, BN folding and the
//! liveness-packed activation arena.
//!
//! A [`Plan`] is compiled from **one** recording of a model forward on the
//! dynamic autograd tape ([`Graph::export_segment`]). Because every zoo
//! model's control flow depends only on input *shape* (never on input
//! *values*), a single recording at a given `[B, C, H, W]` is a faithful
//! static program for every batch of that shape.
//!
//! Compilation runs these passes over the exported segment:
//!
//! 1. **Lowering** — tape nodes become [`IrOp`]s with all shapes baked in;
//!    pre-mark operands (parameters) and mid-segment constants (e.g. the
//!    PGNN aggregation kernels) are snapshotted into a weight table of
//!    `Arc<Tensor>` (shared across per-batch-size plans via a caller cache).
//! 2. **Fusion** — a conv's single-consumer chain of
//!    `add_bias_channel → channel_affine → relu` collapses into the conv's
//!    epilogue (executed by `conv_reorder_epilogue`, whose per-element
//!    arithmetic is exactly the tape's op sequence, keeping outputs
//!    bitwise); `add → relu` pairs fuse the same way.
//! 3. **BN folding** (optional, [`PlanOptions::fold_bn`]) — a fused
//!    `channel_affine` epilogue is folded into the conv weight/bias through
//!    an f64 refold. This changes weight values, so it is off by default:
//!    the bitwise contract becomes a ≤1e-6 one.
//! 4. **Copy elision** — pure-reshape [`IrOp::Copy`] steps are rewritten
//!    into *aliases* of their source value: no op in the IR ever mutates an
//!    existing span, so a reshape output can share its source's storage as
//!    long as the liveness pass keeps the shared span alive until the last
//!    reader of **either** value (a write-after-read extension of the
//!    plain per-value liveness).
//! 5. **Arena assignment** — liveness intervals for every intermediate plus
//!    op-local scratch (conv im2col/GEMM buffers, attention score rows) are
//!    packed by a first-fit free list with coalescing into a single arena
//!    whose peak size is known at compile time. The executor replays the
//!    steps serially in tape order and runs every forward with zero heap
//!    allocations.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use mfaplace_autograd::{Graph, TapeOp, Var};
use mfaplace_tensor::lowlevel::{BmmKind, Conv2dShape};
use mfaplace_tensor::{strides_for, Tensor};

/// Compile-time options for [`Plan::capture`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanOptions {
    /// Fold the fused inference-mode batch-norm epilogue
    /// (`channel_affine`) into the preceding conv's weight and bias using
    /// f64 intermediate arithmetic. Saves one multiply-add per output
    /// element but changes weight values, so plan outputs are no longer
    /// bitwise identical to the tape — only within 1e-6 of the output
    /// scale in max-norm (asserted by the equivalence suite). Default
    /// **off** to preserve the bitwise contract.
    pub fold_bn: bool,
}

/// Counters describing a compiled plan, for `/metrics` and `model-info`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Executable ops after fusion.
    pub ops: usize,
    /// Bias adds absorbed into conv epilogues.
    pub fused_conv_bias: usize,
    /// Channel affines (inference BN) absorbed into conv epilogues.
    pub fused_conv_affine: usize,
    /// ReLUs absorbed into conv epilogues.
    pub fused_conv_relu: usize,
    /// `add → relu` pairs fused.
    pub fused_add_relu: usize,
    /// Conv weights rewritten by BN folding.
    pub folded_bn: usize,
    /// Activation arena size in bytes (peak, fixed at compile time).
    pub arena_bytes: usize,
    /// Weight-table tensors.
    pub weights: usize,
    /// Weight-table bytes (shared `Arc`s counted once per plan).
    pub weight_bytes: usize,
    /// Pure-reshape `Copy` steps elided into arena aliases.
    pub copies_elided: usize,
}

pub(crate) type ValId = usize;

/// Highest permute rank a plan captures: the executor walks a permute with
/// a fixed-size stack index of this many axes, so it allocates nothing.
pub(crate) const MAX_PERMUTE_RANK: usize = 8;

/// Where a plan value lives at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Loc {
    /// The forward input slice passed to `run_batch`.
    Input,
    /// Index into the plan weight table.
    Weight(usize),
    /// `[off, off+len)` in the execution arena.
    Arena { off: usize, len: usize },
    /// Not yet placed (pre-arena pass) or fused away.
    Unassigned,
}

#[derive(Clone, Debug)]
pub(crate) struct ValueInfo {
    pub shape: Vec<usize>,
    pub numel: usize,
    pub loc: Loc,
}

/// An op-local scratch span in the arena (live only during its op).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ArenaRange {
    pub off: usize,
    pub len: usize,
}

/// One executable plan op, with all dims resolved at compile time.
///
/// Each variant carries the arguments of the kernel the matching tape
/// forward in `mfaplace_autograd::Graph` calls. Every non-elementwise op
/// runs that same `mfaplace_tensor` kernel (`lowlevel`, `layer_norm_rows`,
/// `attention_*_slices`); the elementwise ops (`Add` … `Gelu`,
/// `MulScalarVar`, `Copy`) are inline one-expression loops in `exec.rs`.
#[derive(Clone, Debug)]
pub(crate) enum IrOp {
    Conv2d {
        x: ValId,
        w: ValId,
        /// Fused per-channel bias (weight-table value), if absorbed.
        bias: Option<ValId>,
        /// Fused inference-BN affine `(scale, shift)`, if absorbed.
        affine: Option<(Vec<f32>, Vec<f32>)>,
        /// Fused trailing ReLU.
        relu: bool,
        shape: Conv2dShape,
        /// im2col lowering buffer.
        cols: ArenaRange,
        /// `[OC, B*OH*OW]` GEMM result before the batch-major reorder.
        ymat: ArenaRange,
    },
    AddBiasChannel {
        x: ValId,
        bias: ValId,
        b: usize,
        c: usize,
        hw: usize,
    },
    AddBiasRow {
        x: ValId,
        bias: ValId,
    },
    Add {
        a: ValId,
        b: ValId,
        /// Fused trailing ReLU.
        relu: bool,
    },
    Sub {
        a: ValId,
        b: ValId,
    },
    Mul {
        a: ValId,
        b: ValId,
    },
    Neg {
        x: ValId,
    },
    Scale {
        x: ValId,
        c: f32,
    },
    Relu {
        x: ValId,
    },
    LeakyRelu {
        x: ValId,
        slope: f32,
    },
    Sigmoid {
        x: ValId,
    },
    Gelu {
        x: ValId,
    },
    ChannelAffine {
        x: ValId,
        scale: Vec<f32>,
        shift: Vec<f32>,
        b: usize,
        c: usize,
        hw: usize,
    },
    LayerNorm {
        x: ValId,
        gamma: ValId,
        beta: ValId,
        eps: f32,
        d: usize,
    },
    SoftmaxLast {
        x: ValId,
        d: usize,
    },
    Matmul {
        a: ValId,
        b: ValId,
        m: usize,
        k: usize,
        n: usize,
    },
    Bmm {
        kind: BmmKind,
        a: ValId,
        b: ValId,
        bt: usize,
        m: usize,
        k: usize,
        n: usize,
    },
    AttentionTm {
        q: ValId,
        k: ValId,
        v: ValId,
        scale: f32,
        b: usize,
        lq: usize,
        lk: usize,
        d: usize,
        dv: usize,
        /// One `[Lk]` score row (the fused kernel's streaming scratch).
        scratch: ArenaRange,
    },
    AttentionFm {
        q: ValId,
        k: ValId,
        v: ValId,
        scale: f32,
        b: usize,
        n: usize,
        nv: usize,
        l: usize,
        /// One `[L]` score row.
        scratch: ArenaRange,
    },
    /// Reshape: tape semantics are a copy, so the plan copies too.
    Copy {
        x: ValId,
    },
    Permute {
        x: ValId,
        /// Input stride for each *output* axis (`in_strides[axes[d]]`),
        /// precomputed so the runtime walk allocates nothing.
        stride_axes: Vec<usize>,
        out_dims: Vec<usize>,
    },
    ConcatChannels {
        parts: Vec<ValId>,
        part_c: Vec<usize>,
        b: usize,
        hw: usize,
        total_c: usize,
    },
    SliceChannels {
        x: ValId,
        c0: usize,
        c1: usize,
        b: usize,
        c: usize,
        hw: usize,
    },
    Upsample2x {
        x: ValId,
        planes: usize,
        h: usize,
        w: usize,
    },
    MaxPool2x2 {
        x: ValId,
        planes: usize,
        h: usize,
        w: usize,
    },
    MulScalarVar {
        x: ValId,
        s: ValId,
    },
}

/// One scheduled op and the value it defines.
#[derive(Clone, Debug)]
pub(crate) struct Step {
    pub op: IrOp,
    pub out: ValId,
}

/// A compiled, shape-specialized inference program.
///
/// Immutable once compiled; pair it with a [`crate::PlanExecutor`] (which
/// owns the mutable arena) to run forwards.
#[derive(Clone, Debug)]
pub struct Plan {
    pub(crate) steps: Vec<Step>,
    pub(crate) values: Vec<ValueInfo>,
    pub(crate) weights: Vec<Arc<Tensor>>,
    pub(crate) input: ValId,
    pub(crate) output: ValId,
    pub(crate) arena_len: usize,
    /// Storage root per value (`alias[v] == v` unless `v` is an elided
    /// reshape of another value). Kept so alternative arena layouts —
    /// the quantized byte arena — can redo liveness with different
    /// per-value sizes while honouring the same sharing.
    pub(crate) alias: Vec<ValId>,
    stats: PlanStats,
}

impl Plan {
    /// Compiles the tape segment `[mark, ..)` of `g` into a plan mapping
    /// `input` to `output`.
    ///
    /// See [`Plan::capture_cached`]; this variant snapshots parameters into
    /// a private weight table (no sharing across plans).
    pub fn capture(
        g: &Graph,
        mark: usize,
        input: Var,
        output: Var,
        opts: PlanOptions,
    ) -> Result<Plan, String> {
        let mut cache = HashMap::new();
        Self::capture_cached(g, mark, input, output, opts, &mut cache)
    }

    /// [`Plan::capture`] with a caller-owned parameter snapshot cache,
    /// keyed by pre-mark tape index (stable for persistent parameters).
    ///
    /// Plans for different batch sizes of the same model share one cache so
    /// the weight `Arc`s — the dominant memory cost — are stored once.
    /// Anything recorded *before* `mark` is treated as a constant and
    /// snapshotted at capture time; the plan is invalidated by later weight
    /// mutation (recompile after training steps).
    pub fn capture_cached(
        g: &Graph,
        mark: usize,
        input: Var,
        output: Var,
        opts: PlanOptions,
        weight_cache: &mut HashMap<usize, Arc<Tensor>>,
    ) -> Result<Plan, String> {
        let nodes = g.export_segment(mark)?;
        let mut values: Vec<ValueInfo> = Vec::new();
        let mut weights: Vec<Arc<Tensor>> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        let mut tape2val: HashMap<usize, ValId> = HashMap::new();
        let mut input_val: Option<ValId> = None;

        for node in &nodes {
            if matches!(node.op, TapeOp::Leaf) {
                if node.index == input.index() {
                    let id = values.len();
                    values.push(ValueInfo {
                        shape: node.shape.clone(),
                        numel: node.shape.iter().product(),
                        loc: Loc::Input,
                    });
                    tape2val.insert(node.index, id);
                    input_val = Some(id);
                } else {
                    // A constant materialized mid-forward (PGNN kernels).
                    // Not shared through the cache: post-mark tape indices
                    // are not stable across captures.
                    let t = Arc::new(g.value_at(node.index).clone());
                    let id = push_weight(&mut values, &mut weights, t);
                    tape2val.insert(node.index, id);
                }
                continue;
            }
            let out = values.len();
            values.push(ValueInfo {
                shape: node.shape.clone(),
                numel: node.shape.iter().product(),
                loc: Loc::Unassigned,
            });
            tape2val.insert(node.index, out);
            let op = lower_op(
                node.index,
                &node.op,
                &node.shape,
                LowerCtx {
                    g,
                    mark,
                    tape2val: &mut tape2val,
                    weight_cache,
                    values: &mut values,
                    weights: &mut weights,
                },
            )?;
            steps.push(Step { op, out });
        }

        let input_val = input_val
            .ok_or_else(|| "plan input is not a leaf of the captured segment".to_string())?;
        let output_val = *tape2val
            .get(&output.index())
            .ok_or_else(|| "plan output is not in the captured segment".to_string())?;
        if !matches!(values[output_val].loc, Loc::Unassigned) {
            return Err("plan output must be computed inside the captured segment".to_string());
        }

        let mut stats = PlanStats::default();
        fuse(&mut steps, output_val, &mut stats);
        if opts.fold_bn {
            fold_bn(&mut steps, &mut values, &mut weights, &mut stats);
        }
        let alias = elide_copies(&mut steps, &values, output_val, &mut stats);
        let arena_len = assign_arena(&mut steps, &mut values, output_val, &alias);

        stats.ops = steps.len();
        stats.arena_bytes = arena_len * std::mem::size_of::<f32>();
        stats.weights = weights.len();
        stats.weight_bytes = weights
            .iter()
            .map(|w| w.numel() * std::mem::size_of::<f32>())
            .sum();

        Ok(Plan {
            steps,
            values,
            weights,
            input: input_val,
            output: output_val,
            arena_len,
            alias,
            stats,
        })
    }

    /// Compile-time counters (op/fusion/arena sizes).
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// Shape of the input the plan was specialized for.
    pub fn input_shape(&self) -> &[usize] {
        &self.values[self.input].shape
    }

    /// Shape of the plan output.
    pub fn output_shape(&self) -> &[usize] {
        &self.values[self.output].shape
    }

    /// Arena length in `f32` elements.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Number of elements the forward input must have.
    pub fn input_numel(&self) -> usize {
        self.values[self.input].numel
    }

    /// Estimated bytes of the plan's own metadata: op list, value table,
    /// alias map and per-op heap vectors (fused affines,
    /// permute strides, concat part lists). Weight tensor *data* is
    /// excluded — it is accounted separately via
    /// [`PlanStats::weight_bytes`]. The plan cache charges this so
    /// `MFAPLACE_PLAN_CACHE_MB` bounds what the process actually holds,
    /// not just arenas and weights.
    pub fn metadata_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = self.steps.len() * size_of::<Step>()
            + self.values.len() * size_of::<ValueInfo>()
            + self.alias.len() * size_of::<ValId>()
            + self.weights.len() * size_of::<Arc<Tensor>>();
        for v in &self.values {
            b += v.shape.len() * size_of::<usize>();
        }
        for step in &self.steps {
            b += match &step.op {
                IrOp::Conv2d { affine, .. } => affine
                    .as_ref()
                    .map_or(0, |(sc, sh)| (sc.len() + sh.len()) * size_of::<f32>()),
                IrOp::ChannelAffine { scale, shift, .. } => {
                    (scale.len() + shift.len()) * size_of::<f32>()
                }
                IrOp::Permute {
                    stride_axes,
                    out_dims,
                    ..
                } => (stride_axes.len() + out_dims.len()) * size_of::<usize>(),
                IrOp::ConcatChannels { parts, part_c, .. } => {
                    (parts.len() + part_c.len()) * size_of::<usize>()
                }
                _ => 0,
            };
        }
        b
    }

    /// Human-readable multi-line summary (the `model-info` output).
    pub fn summary(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "compiled plan: {} ops, arena {:.2} MiB ({} floats)",
            s.ops,
            s.arena_bytes as f64 / (1024.0 * 1024.0),
            self.arena_len,
        );
        let _ = writeln!(
            out,
            "  weights: {} tensors, {:.2} MiB",
            s.weights,
            s.weight_bytes as f64 / (1024.0 * 1024.0),
        );
        let _ = writeln!(
            out,
            "  fusions: conv+bias {}, conv+affine {}, conv+relu {}, add+relu {}, bn-folded {}",
            s.fused_conv_bias,
            s.fused_conv_affine,
            s.fused_conv_relu,
            s.fused_add_relu,
            s.folded_bn,
        );
        let _ = writeln!(out, "  copies elided: {}", s.copies_elided);
        let _ = write!(
            out,
            "  input {:?} -> output {:?}",
            self.input_shape(),
            self.output_shape(),
        );
        out
    }
}

fn push_weight(
    values: &mut Vec<ValueInfo>,
    weights: &mut Vec<Arc<Tensor>>,
    t: Arc<Tensor>,
) -> ValId {
    let id = values.len();
    values.push(ValueInfo {
        shape: t.shape().to_vec(),
        numel: t.numel(),
        loc: Loc::Weight(weights.len()),
    });
    weights.push(t);
    id
}

struct LowerCtx<'a> {
    g: &'a Graph,
    mark: usize,
    tape2val: &'a mut HashMap<usize, ValId>,
    weight_cache: &'a mut HashMap<usize, Arc<Tensor>>,
    values: &'a mut Vec<ValueInfo>,
    weights: &'a mut Vec<Arc<Tensor>>,
}

impl LowerCtx<'_> {
    /// Resolves a tape operand index to a plan value, snapshotting pre-mark
    /// nodes (parameters) into the weight table on first sight.
    fn resolve(&mut self, ti: usize) -> Result<ValId, String> {
        if let Some(&v) = self.tape2val.get(&ti) {
            return Ok(v);
        }
        if ti >= self.mark {
            return Err(format!(
                "operand {ti} references a segment node before its definition"
            ));
        }
        let t = self
            .weight_cache
            .entry(ti)
            .or_insert_with(|| Arc::new(self.g.value_at(ti).clone()))
            .clone();
        let id = push_weight(self.values, self.weights, t);
        self.tape2val.insert(ti, id);
        Ok(id)
    }

    fn shape(&self, v: ValId) -> &[usize] {
        &self.values[v].shape
    }

    fn dims4(&self, v: ValId) -> Result<(usize, usize, usize, usize), String> {
        let s = self.shape(v);
        if s.len() != 4 {
            return Err(format!("expected rank-4 operand, got {s:?}"));
        }
        Ok((s[0], s[1], s[2], s[3]))
    }
}

/// Lowers one exported tape op to an [`IrOp`] with baked dims.
fn lower_op(
    index: usize,
    op: &TapeOp,
    out_shape: &[usize],
    mut cx: LowerCtx<'_>,
) -> Result<IrOp, String> {
    let ir = match op {
        TapeOp::Leaf => unreachable!("leaves are handled by the capture loop"),
        TapeOp::Add(a, b) => IrOp::Add {
            a: cx.resolve(*a)?,
            b: cx.resolve(*b)?,
            relu: false,
        },
        TapeOp::Sub(a, b) => IrOp::Sub {
            a: cx.resolve(*a)?,
            b: cx.resolve(*b)?,
        },
        TapeOp::Mul(a, b) => IrOp::Mul {
            a: cx.resolve(*a)?,
            b: cx.resolve(*b)?,
        },
        TapeOp::Neg(x) => IrOp::Neg { x: cx.resolve(*x)? },
        TapeOp::Scale(x, c) => IrOp::Scale {
            x: cx.resolve(*x)?,
            c: *c,
        },
        TapeOp::Matmul(a, b) => {
            let (a, b) = (cx.resolve(*a)?, cx.resolve(*b)?);
            let (m, k) = (cx.shape(a)[0], cx.shape(a)[1]);
            let n = cx.shape(b)[1];
            IrOp::Matmul { a, b, m, k, n }
        }
        TapeOp::Bmm(a, b) | TapeOp::BmmNT(a, b) | TapeOp::BmmTN(a, b) => {
            let kind = match op {
                TapeOp::Bmm(..) => BmmKind::Nn,
                TapeOp::BmmNT(..) => BmmKind::Nt,
                _ => BmmKind::Tn,
            };
            let (a, b) = (cx.resolve(*a)?, cx.resolve(*b)?);
            let sa = cx.shape(a);
            let (bt, m, k) = match kind {
                // a: [bt, m, k] for NN/NT; [bt, k, m] for TN.
                BmmKind::Nn | BmmKind::Nt => (sa[0], sa[1], sa[2]),
                BmmKind::Tn => (sa[0], sa[2], sa[1]),
            };
            let sb = cx.shape(b);
            let n = match kind {
                BmmKind::Nn | BmmKind::Tn => sb[2],
                BmmKind::Nt => sb[1],
            };
            IrOp::Bmm {
                kind,
                a,
                b,
                bt,
                m,
                k,
                n,
            }
        }
        TapeOp::Attention {
            q,
            k,
            v,
            scale,
            feature_major,
        } => {
            let (q, k, v) = (cx.resolve(*q)?, cx.resolve(*k)?, cx.resolve(*v)?);
            if *feature_major {
                let (b, n, l) = {
                    let s = cx.shape(q);
                    (s[0], s[1], s[2])
                };
                let nv = cx.shape(v)[1];
                IrOp::AttentionFm {
                    q,
                    k,
                    v,
                    scale: *scale,
                    b,
                    n,
                    nv,
                    l,
                    scratch: ArenaRange::default(),
                }
            } else {
                let (b, lq, d) = {
                    let s = cx.shape(q);
                    (s[0], s[1], s[2])
                };
                let lk = cx.shape(k)[1];
                let dv = cx.shape(v)[2];
                IrOp::AttentionTm {
                    q,
                    k,
                    v,
                    scale: *scale,
                    b,
                    lq,
                    lk,
                    d,
                    dv,
                    scratch: ArenaRange::default(),
                }
            }
        }
        TapeOp::Conv2d { x, w, stride, pad } => {
            let (x, w) = (cx.resolve(*x)?, cx.resolve(*w)?);
            let Some(shape) = Conv2dShape::of(cx.shape(x), cx.shape(w), *stride, *pad) else {
                return Err(format!("node {index}: conv operands must be rank-4"));
            };
            IrOp::Conv2d {
                x,
                w,
                bias: None,
                affine: None,
                relu: false,
                shape,
                cols: ArenaRange::default(),
                ymat: ArenaRange::default(),
            }
        }
        TapeOp::AddBiasChannel(x, bias) => {
            let (x, bias) = (cx.resolve(*x)?, cx.resolve(*bias)?);
            let (b, c, h, w) = cx.dims4(x)?;
            IrOp::AddBiasChannel {
                x,
                bias,
                b,
                c,
                hw: h * w,
            }
        }
        TapeOp::AddBiasRow(x, bias) => IrOp::AddBiasRow {
            x: cx.resolve(*x)?,
            bias: cx.resolve(*bias)?,
        },
        TapeOp::Relu(x) => IrOp::Relu { x: cx.resolve(*x)? },
        TapeOp::LeakyRelu(x, slope) => IrOp::LeakyRelu {
            x: cx.resolve(*x)?,
            slope: *slope,
        },
        TapeOp::Sigmoid(x) => IrOp::Sigmoid { x: cx.resolve(*x)? },
        TapeOp::Gelu(x) => IrOp::Gelu { x: cx.resolve(*x)? },
        TapeOp::ChannelAffine { x, scale, shift } => {
            let x = cx.resolve(*x)?;
            let (b, c, h, w) = cx.dims4(x)?;
            IrOp::ChannelAffine {
                x,
                scale: scale.clone(),
                shift: shift.clone(),
                b,
                c,
                hw: h * w,
            }
        }
        TapeOp::LayerNorm {
            x,
            gamma,
            beta,
            eps,
        } => {
            let (x, gamma, beta) = (cx.resolve(*x)?, cx.resolve(*gamma)?, cx.resolve(*beta)?);
            let d = *cx.shape(x).last().expect("rank >= 1");
            IrOp::LayerNorm {
                x,
                gamma,
                beta,
                eps: *eps,
                d,
            }
        }
        TapeOp::SoftmaxLast(x) => {
            let x = cx.resolve(*x)?;
            let d = *cx.shape(x).last().expect("rank >= 1");
            IrOp::SoftmaxLast { x, d }
        }
        TapeOp::Reshape(x) => IrOp::Copy { x: cx.resolve(*x)? },
        TapeOp::Permute { x, axes } => {
            let x = cx.resolve(*x)?;
            let in_strides = strides_for(cx.shape(x));
            if axes.len() > MAX_PERMUTE_RANK {
                return Err(format!(
                    "node {index}: permute rank > {MAX_PERMUTE_RANK} unsupported"
                ));
            }
            IrOp::Permute {
                x,
                stride_axes: axes.iter().map(|&a| in_strides[a]).collect(),
                out_dims: out_shape.to_vec(),
            }
        }
        TapeOp::ConcatChannels(parts) => {
            let parts = parts
                .iter()
                .map(|&p| cx.resolve(p))
                .collect::<Result<Vec<_>, _>>()?;
            let (b, _, h, w) = cx.dims4(parts[0])?;
            let part_c: Vec<usize> = parts.iter().map(|&p| cx.shape(p)[1]).collect();
            let total_c = part_c.iter().sum();
            IrOp::ConcatChannels {
                parts,
                part_c,
                b,
                hw: h * w,
                total_c,
            }
        }
        TapeOp::SliceChannels { x, c0, c1 } => {
            let x = cx.resolve(*x)?;
            let (b, c, h, w) = cx.dims4(x)?;
            IrOp::SliceChannels {
                x,
                c0: *c0,
                c1: *c1,
                b,
                c,
                hw: h * w,
            }
        }
        TapeOp::Upsample2x(x) => {
            let x = cx.resolve(*x)?;
            let (b, c, h, w) = cx.dims4(x)?;
            IrOp::Upsample2x {
                x,
                planes: b * c,
                h,
                w,
            }
        }
        TapeOp::MaxPool2x2(x) => {
            let x = cx.resolve(*x)?;
            let (b, c, h, w) = cx.dims4(x)?;
            IrOp::MaxPool2x2 {
                x,
                planes: b * c,
                h,
                w,
            }
        }
        TapeOp::MulScalarVar(x, s) => IrOp::MulScalarVar {
            x: cx.resolve(*x)?,
            s: cx.resolve(*s)?,
        },
    };
    Ok(ir)
}

/// Calls `f` for every operand value of `op` (with repeats if aliased).
pub(crate) fn for_each_operand(op: &IrOp, f: &mut dyn FnMut(ValId)) {
    match op {
        IrOp::Conv2d { x, w, bias, .. } => {
            f(*x);
            f(*w);
            if let Some(b) = bias {
                f(*b);
            }
        }
        IrOp::AddBiasChannel { x, bias, .. } | IrOp::AddBiasRow { x, bias, .. } => {
            f(*x);
            f(*bias);
        }
        IrOp::Add { a, b, .. } | IrOp::Sub { a, b } | IrOp::Mul { a, b } => {
            f(*a);
            f(*b);
        }
        IrOp::Neg { x }
        | IrOp::Scale { x, .. }
        | IrOp::Relu { x }
        | IrOp::LeakyRelu { x, .. }
        | IrOp::Sigmoid { x }
        | IrOp::Gelu { x }
        | IrOp::ChannelAffine { x, .. }
        | IrOp::SoftmaxLast { x, .. }
        | IrOp::Copy { x }
        | IrOp::Permute { x, .. }
        | IrOp::SliceChannels { x, .. }
        | IrOp::Upsample2x { x, .. }
        | IrOp::MaxPool2x2 { x, .. } => f(*x),
        IrOp::LayerNorm { x, gamma, beta, .. } => {
            f(*x);
            f(*gamma);
            f(*beta);
        }
        IrOp::Matmul { a, b, .. } | IrOp::Bmm { a, b, .. } => {
            f(*a);
            f(*b);
        }
        IrOp::AttentionTm { q, k, v, .. } | IrOp::AttentionFm { q, k, v, .. } => {
            f(*q);
            f(*k);
            f(*v);
        }
        IrOp::ConcatChannels { parts, .. } => {
            for &p in parts {
                f(p);
            }
        }
        IrOp::MulScalarVar { x, s } => {
            f(*x);
            f(*s);
        }
    }
}

/// What a conv (or add) chain step absorbs during fusion.
enum Absorb {
    Bias(ValId),
    Affine(Vec<f32>, Vec<f32>),
    Relu,
}

/// Fuses single-consumer `conv → bias → affine → relu` chains into the
/// conv's epilogue, and `add → relu` pairs.
///
/// Safe for the bitwise contract: the fused epilogue applies the exact
/// per-element op sequence the tape recorded (see
/// `mfaplace_tensor::lowlevel::conv_reorder_epilogue`).
fn fuse(steps: &mut Vec<Step>, output: ValId, stats: &mut PlanStats) {
    // consumers[v] = indices of steps reading v.
    let max_val = steps.iter().map(|s| s.out + 1).max().unwrap_or(0);
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); max_val];
    for (i, step) in steps.iter().enumerate() {
        for_each_operand(&step.op, &mut |v| {
            if v < max_val {
                consumers[v].push(i);
            }
        });
    }
    let mut removed = vec![false; steps.len()];
    for i in 0..steps.len() {
        if removed[i] {
            continue;
        }
        let is_conv = matches!(steps[i].op, IrOp::Conv2d { .. });
        let is_add = matches!(steps[i].op, IrOp::Add { relu: false, .. });
        if !is_conv && !is_add {
            continue;
        }
        loop {
            let out = steps[i].out;
            if out == output || consumers[out].len() != 1 {
                break;
            }
            let j = consumers[out][0];
            if removed[j] {
                break;
            }
            let absorb = if is_conv {
                let IrOp::Conv2d {
                    bias, affine, relu, ..
                } = &steps[i].op
                else {
                    unreachable!()
                };
                match &steps[j].op {
                    IrOp::AddBiasChannel { x, bias: bv, .. }
                        if *x == out && bias.is_none() && affine.is_none() && !relu =>
                    {
                        Some(Absorb::Bias(*bv))
                    }
                    IrOp::ChannelAffine {
                        x, scale, shift, ..
                    } if *x == out && !relu => Some(Absorb::Affine(scale.clone(), shift.clone())),
                    IrOp::Relu { x } if *x == out && !relu => Some(Absorb::Relu),
                    _ => None,
                }
            } else {
                match &steps[j].op {
                    IrOp::Relu { x } if *x == out => Some(Absorb::Relu),
                    _ => None,
                }
            };
            let Some(absorb) = absorb else { break };
            let new_out = steps[j].out;
            match (&mut steps[i].op, absorb) {
                (IrOp::Conv2d { bias, .. }, Absorb::Bias(bv)) => {
                    *bias = Some(bv);
                    stats.fused_conv_bias += 1;
                }
                (IrOp::Conv2d { affine, .. }, Absorb::Affine(sc, sh)) => {
                    *affine = Some((sc, sh));
                    stats.fused_conv_affine += 1;
                }
                (IrOp::Conv2d { relu, .. }, Absorb::Relu) => {
                    *relu = true;
                    stats.fused_conv_relu += 1;
                }
                (IrOp::Add { relu, .. }, Absorb::Relu) => {
                    *relu = true;
                    stats.fused_add_relu += 1;
                }
                _ => unreachable!(),
            }
            steps[i].out = new_out;
            removed[j] = true;
            if is_add {
                break; // add absorbs at most the one trailing relu
            }
        }
    }
    let mut keep = removed.iter().map(|r| !r);
    steps.retain(|_| keep.next().expect("keep mask length"));
}

/// Folds fused `channel_affine` epilogues into conv weights/bias via f64
/// intermediates. Only runs when the conv weight (and bias) are
/// weight-table constants — always true for captured model forwards.
fn fold_bn(
    steps: &mut [Step],
    values: &mut Vec<ValueInfo>,
    weights: &mut Vec<Arc<Tensor>>,
    stats: &mut PlanStats,
) {
    for step in steps.iter_mut() {
        let IrOp::Conv2d {
            w,
            bias,
            affine,
            shape,
            ..
        } = &mut step.op
        else {
            continue;
        };
        if affine.is_none() {
            continue;
        }
        let Loc::Weight(widx) = values[*w].loc else {
            continue;
        };
        let bias_data: Option<Vec<f32>> = match bias {
            Some(bid) => match values[*bid].loc {
                Loc::Weight(bidx) => Some(weights[bidx].data().to_vec()),
                _ => continue,
            },
            None => None,
        };
        let (scale, shift) = affine.take().expect("checked above");
        let oc = shape.oc;
        let wt = &weights[widx];
        let mut wd: Vec<f32> = wt.data().to_vec();
        let per_oc = wd.len() / oc;
        for o in 0..oc {
            let s = f64::from(scale[o]);
            for v in &mut wd[o * per_oc..(o + 1) * per_oc] {
                *v = (s * f64::from(*v)) as f32;
            }
        }
        let new_w = Tensor::from_vec(wt.shape().to_vec(), wd).expect("folded conv weight");
        *w = push_weight(values, weights, Arc::new(new_w));
        let new_bias: Vec<f32> = match &bias_data {
            Some(bd) => (0..oc)
                .map(|o| (f64::from(scale[o]) * f64::from(bd[o]) + f64::from(shift[o])) as f32)
                .collect(),
            // No pre-existing bias: the folded bias is the shift exactly.
            None => shift.clone(),
        };
        let new_bias = Tensor::from_vec(vec![oc], new_bias).expect("folded conv bias");
        *bias = Some(push_weight(values, weights, Arc::new(new_bias)));
        stats.folded_bn += 1;
    }
}

/// First-fit arena allocator over `(off, len)` holes, with coalescing.
/// Unit-agnostic: the f32 arena allocates in floats, the quantized byte
/// arena in 64-byte blocks.
#[derive(Default)]
pub(crate) struct FreeList {
    /// Free holes sorted by offset, pairwise non-adjacent.
    free: Vec<(usize, usize)>,
    /// High-water mark: total arena length.
    high: usize,
}

impl FreeList {
    pub(crate) fn alloc(&mut self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        for i in 0..self.free.len() {
            let (off, hole) = self.free[i];
            if hole >= len {
                if hole == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + len, hole - len);
                }
                return off;
            }
        }
        let off = self.high;
        self.high += len;
        off
    }

    /// High-water mark: total allocated length so far.
    pub(crate) fn high(&self) -> usize {
        self.high
    }

    pub(crate) fn release(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let pos = self.free.partition_point(|&(o, _)| o < off);
        self.free.insert(pos, (off, len));
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
    }
}

/// Rewrites pure-reshape [`IrOp::Copy`] steps into aliases of their source
/// value and removes them from the step list.
///
/// Returns `alias`, mapping every value to its storage root (`alias[v] ==
/// v` for non-aliased values; chains are collapsed at build time). Safe
/// because no IR op ever mutates an existing span — a reshape output is
/// byte-identical to its source forever — provided the liveness pass keeps
/// the shared span alive until the last reader of *any* member of the
/// alias class ([`assign_arena`] resolves reads through `alias` for
/// exactly this write-after-read extension).
///
/// The one copy kept: a reshape **of the input or a weight** that is the
/// plan output, because the executor's output getter requires an
/// arena-resident span.
fn elide_copies(
    steps: &mut Vec<Step>,
    values: &[ValueInfo],
    output: ValId,
    stats: &mut PlanStats,
) -> Vec<ValId> {
    let mut alias: Vec<ValId> = (0..values.len()).collect();
    let mut removed: Vec<bool> = Vec::with_capacity(steps.len());
    for step in steps.iter() {
        let IrOp::Copy { x } = step.op else {
            removed.push(false);
            continue;
        };
        let root = alias[x];
        let root_in_arena = matches!(values[root].loc, Loc::Unassigned);
        if step.out == output && !root_in_arena {
            removed.push(false);
            continue;
        }
        debug_assert_eq!(values[step.out].numel, values[root].numel);
        alias[step.out] = root;
        stats.copies_elided += 1;
        removed.push(true);
    }
    let mut rm = removed.into_iter();
    steps.retain(|_| !rm.next().expect("removal mask covers all steps"));
    alias
}

/// Last read of every storage root, by step index: `last_read[r]` is the
/// index of the final step with an operand in `r`'s alias class, `None`
/// for roots nothing reads. The plan output's root is pinned live to the
/// end (`usize::MAX`). Reads resolve through `alias`, so an elided
/// reshape extends its source's lifetime to the last reader of the whole
/// alias class. Shared by the f32 arena and the quantized byte arena.
pub(crate) fn last_reads(steps: &[Step], alias: &[ValId], output: ValId) -> Vec<Option<usize>> {
    let mut last_read: Vec<Option<usize>> = vec![None; alias.len()];
    for (i, step) in steps.iter().enumerate() {
        for_each_operand(&step.op, &mut |v| last_read[alias[v]] = Some(i));
    }
    last_read[alias[output]] = Some(usize::MAX);
    last_read
}

/// Roots whose storage dies after step `i`: the operands it read last
/// (deduplicated — `q = k = v` aliases) and its own output when nothing
/// ever reads it.
pub(crate) fn dying_after(
    i: usize,
    step: &Step,
    alias: &[ValId],
    last_read: &[Option<usize>],
) -> Vec<ValId> {
    let mut dying: Vec<ValId> = Vec::new();
    for_each_operand(&step.op, &mut |v| {
        let r = alias[v];
        if last_read[r] == Some(i) && !dying.contains(&r) {
            dying.push(r);
        }
    });
    if last_read[step.out].is_none() {
        dying.push(step.out);
    }
    dying
}

/// Assigns every intermediate (and op-local scratch) an arena span from
/// per-op liveness intervals, first fit; returns the arena length in
/// floats.
///
/// Each op's output and scratch are placed while its operands are still
/// held, so a destination/scratch span never overlaps a live source span
/// — the invariant the executor's raw-pointer slicing relies on. Scratch
/// is released right after its op; operands after their last read.
fn assign_arena(
    steps: &mut [Step],
    values: &mut [ValueInfo],
    output: ValId,
    alias: &[ValId],
) -> usize {
    let last_read = last_reads(steps, alias, output);
    let mut fl = FreeList::default();
    for (i, step) in steps.iter_mut().enumerate() {
        let out = step.out;
        let out_len = values[out].numel;
        let off = fl.alloc(out_len);
        values[out].loc = Loc::Arena { off, len: out_len };
        let mut scratch: Vec<ArenaRange> = Vec::new();
        match &mut step.op {
            IrOp::Conv2d {
                cols, ymat, shape, ..
            } => {
                let (cl, yl) = (shape.cols_len(), shape.out_len());
                *cols = ArenaRange {
                    off: fl.alloc(cl),
                    len: cl,
                };
                *ymat = ArenaRange {
                    off: fl.alloc(yl),
                    len: yl,
                };
                scratch.push(*cols);
                scratch.push(*ymat);
            }
            IrOp::AttentionTm { scratch: s, lk, .. } => {
                *s = ArenaRange {
                    off: fl.alloc(*lk),
                    len: *lk,
                };
                scratch.push(*s);
            }
            IrOp::AttentionFm { scratch: s, l, .. } => {
                *s = ArenaRange {
                    off: fl.alloc(*l),
                    len: *l,
                };
                scratch.push(*s);
            }
            _ => {}
        }
        for s in scratch {
            fl.release(s.off, s.len);
        }
        for r in dying_after(i, step, alias, &last_read) {
            if let Loc::Arena { off, len } = values[r].loc {
                fl.release(off, len);
            }
        }
    }
    // Aliased values share their root's storage (same byte length — a
    // reshape preserves numel; roots that are weights or the input keep
    // their non-arena loc).
    for v in 0..values.len() {
        if alias[v] != v {
            values[v].loc = values[alias[v]].loc;
        }
    }
    fl.high
}
