//! The plan executor: runs a compiled [`Plan`] with zero per-forward heap
//! allocations, writing every intermediate into the pre-sized arena.
//!
//! # Bitwise contract
//!
//! Every op except the pure elementwise ones is one call into the kernel
//! the tape forward calls: `mfaplace_tensor::lowlevel` (conv, GEMM family,
//! per-channel ops, softmax, data movement), `layer_norm_rows` and the
//! `attention_*_slices` entry points. Plan and tape therefore run the same
//! function, with the same parallel dispatch. The elementwise arms (`Add`,
//! `Sub`, `Mul`, `Neg`, `Scale`, `Relu`, `LeakyRelu`, `Sigmoid`, `Gelu`,
//! `MulScalarVar`, `Copy`) are written inline as the same one expression
//! per element the tape applies. The equivalence suite asserts bit
//! equality against the tape for every zoo architecture.
//!
//! # Allocation contract
//!
//! `run_batch` performs no heap allocation once warm: outputs and op-local
//! scratch (conv lowering buffers, attention score rows) live at
//! plan-assigned arena offsets, and the per-forward counter allocates its
//! key only on first use. `tests/plan_alloc.rs` pins this with a counting
//! allocator. The one documented exception matches the tape path:
//! when an attention call is large enough to take the parallel tile path,
//! each worker allocates its private score row (identical behaviour and
//! threshold as the tape kernel, so tape-vs-plan comparisons stay fair).
//!
//! # Safety
//!
//! Ops borrow disjoint arena spans mutably and immutably at once through
//! raw pointers. Soundness rests on the allocator invariant (an op's
//! output/scratch spans never overlap a live operand span — see
//! `assign_arena`), which is re-checked per op in debug builds.

use std::sync::Arc;

use mfaplace_autograd::gelu_fwd;
use mfaplace_tensor::{attention_fm_slices, attention_tm_slices, layer_norm_rows, lowlevel};

#[cfg(debug_assertions)]
use crate::plan::for_each_operand;
use crate::plan::{ArenaRange, IrOp, Loc, Plan, Step, ValId, MAX_PERMUTE_RANK};

/// Owns the mutable state (activation arena) needed to run a [`Plan`].
///
/// The plan itself is held through an `Arc`, so many executors (or a
/// shared [`crate::PlanCache`]) can reference one compiled plan while each
/// keeps its own private arena.
#[derive(Debug)]
pub struct PlanExecutor {
    plan: Arc<Plan>,
    arena: Vec<f32>,
    runs: u64,
}

impl PlanExecutor {
    /// Builds an executor, allocating the arena once up front. Accepts a
    /// bare `Plan` or an `Arc<Plan>` (e.g. out of a [`crate::PlanCache`]).
    pub fn new(plan: impl Into<Arc<Plan>>) -> PlanExecutor {
        let plan = plan.into();
        let arena = vec![0.0f32; plan.arena_len()];
        PlanExecutor {
            plan,
            arena,
            runs: 0,
        }
    }

    /// The compiled plan this executor runs.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Number of completed forwards.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Arena base address — exposed so tests can assert the buffer is
    /// reused (stable) across forwards rather than reallocated.
    pub fn arena_ptr(&self) -> *const f32 {
        self.arena.as_ptr()
    }

    /// Runs one forward over `input` (row-major, must match the captured
    /// input shape) and returns the output slice, valid until the next
    /// call. Allocation-free: every write lands in the arena.
    pub fn run_batch(&mut self, input: &[f32]) -> &[f32] {
        self.runs += 1;
        run_plan(&self.plan, &mut self.arena, input)
    }
}

/// Runs one forward of `plan` over `input` using `arena` for every
/// intermediate, growing (never shrinking) the arena to the plan's
/// requirement first. Returns the output slice, valid until the arena is
/// next written.
///
/// This is the executor's run loop exposed over caller-owned storage, so
/// one arena can be reused across *different* plans (the predictor keeps
/// one arena per model while plans live in a shared cache). Safe because
/// every plan op either fully overwrites its destination span or
/// explicitly clears it first — stale data from a previous plan is never
/// observable.
pub fn run_plan<'a>(plan: &Plan, arena: &'a mut Vec<f32>, input: &[f32]) -> &'a [f32] {
    let out = run_plan_observed(plan, arena, input, &mut |_, _| {});
    mfaplace_rt::timer::count("infer/plan_forwards", 1);
    out
}

/// Immutable view of a plan value.
///
/// # Safety
///
/// For arena values the returned slice aliases `base`; the caller must not
/// hold a mutable span overlapping it (guaranteed by `assign_arena`).
unsafe fn src<'a>(plan: &'a Plan, input: &'a [f32], base: *const f32, v: ValId) -> &'a [f32] {
    match plan.values[v].loc {
        Loc::Input => input,
        Loc::Weight(i) => plan.weights[i].data(),
        Loc::Arena { off, len } => std::slice::from_raw_parts(base.add(off), len),
        Loc::Unassigned => unreachable!("read of a fused-away value"),
    }
}

/// Mutable view of an arena span.
///
/// # Safety
///
/// The span must be disjoint from every other span borrowed for the same
/// op (allocator invariant, debug-asserted by `check_disjoint`).
unsafe fn span_mut<'a>(base: *mut f32, r: ArenaRange) -> &'a mut [f32] {
    std::slice::from_raw_parts_mut(base.add(r.off), r.len)
}

/// Debug re-check of the allocator invariant: the op's output and scratch
/// spans overlap neither each other nor any operand span. Allocation-free
/// (a fixed array, not a `Vec`), so debug builds keep the forward's
/// allocation contract too.
#[cfg(debug_assertions)]
fn check_disjoint(plan: &Plan, step: &Step) {
    let out = match plan.values[step.out].loc {
        Loc::Arena { off, len } => Some(ArenaRange { off, len }),
        _ => None,
    };
    let (s1, s2) = match &step.op {
        IrOp::Conv2d { cols, ymat, .. } => (Some(*cols), Some(*ymat)),
        IrOp::AttentionTm { scratch, .. } | IrOp::AttentionFm { scratch, .. } => {
            (Some(*scratch), None)
        }
        _ => (None, None),
    };
    let writes = [out, s1, s2];
    let overlap = |a: ArenaRange, b: ArenaRange| a.off < b.off + b.len && b.off < a.off + a.len;
    for (i, wa) in writes.iter().enumerate() {
        let Some(wa) = wa else { continue };
        for wb in writes[i + 1..].iter().flatten() {
            assert!(!overlap(*wa, *wb), "write spans overlap in step {step:?}");
        }
    }
    for_each_operand(&step.op, &mut |v| {
        if let Loc::Arena { off, len } = plan.values[v].loc {
            for w in writes.iter().flatten() {
                assert!(
                    !overlap(*w, ArenaRange { off, len }),
                    "operand span overlaps a write span in step {step:?}"
                );
            }
        }
    });
}

/// Serial replay of `plan` in step order that calls
/// `observe(step_index, out_slice)` after each step — [`run_plan`]'s loop
/// and the quantization calibrator's hook for collecting per-value
/// activation ranges; the observer only reads.
pub(crate) fn run_plan_observed<'a>(
    plan: &Plan,
    arena: &'a mut Vec<f32>,
    input: &[f32],
    observe: &mut dyn FnMut(usize, &[f32]),
) -> &'a [f32] {
    assert_eq!(
        input.len(),
        plan.input_numel(),
        "plan input length mismatch (plan compiled for shape {:?})",
        plan.input_shape(),
    );
    if arena.len() < plan.arena_len() {
        arena.resize(plan.arena_len(), 0.0);
    }
    let base = arena.as_mut_ptr();
    for (i, step) in plan.steps.iter().enumerate() {
        #[cfg(debug_assertions)]
        check_disjoint(plan, step);
        exec_step(plan, input, base, step);
        if let Loc::Arena { off, len } = plan.values[step.out].loc {
            // SAFETY: the step finished; its output span is initialized
            // and no mutable borrow of the arena is live.
            observe(i, unsafe { std::slice::from_raw_parts(base.add(off), len) });
        }
    }
    let Loc::Arena { off, len } = plan.values[plan.output].loc else {
        unreachable!("plan output is always arena-resident");
    };
    &arena[off..off + len]
}

/// Op-local scratch views an [`exec_op`] call may need beyond its
/// destination: the conv im2col/GEMM buffers and the attention score row.
/// The f32 executor carves these from plan-assigned arena spans; the
/// quantized executor carves them from its shared per-step scratch region.
#[derive(Default)]
pub(crate) struct OpScratch<'a> {
    pub cols: Option<&'a mut [f32]>,
    pub ymat: Option<&'a mut [f32]>,
    pub att: Option<&'a mut [f32]>,
}

/// Executes one step. `base` points at the executor's arena.
fn exec_step(plan: &Plan, input: &[f32], base: *mut f32, step: &Step) {
    // SAFETY: all spans handed out below are either weight/input borrows or
    // arena spans that `assign_arena` guarantees disjoint for this op; the
    // debug assertion above re-checks the invariant.
    let s = |v: ValId| unsafe { src(plan, input, base, v) };
    let dst: &mut [f32] = {
        let Loc::Arena { off, len } = plan.values[step.out].loc else {
            unreachable!("step outputs are always arena-resident");
        };
        unsafe { span_mut(base, ArenaRange { off, len }) }
    };
    let scratch = match &step.op {
        IrOp::Conv2d { cols, ymat, .. } => OpScratch {
            cols: Some(unsafe { span_mut(base, *cols) }),
            ymat: Some(unsafe { span_mut(base, *ymat) }),
            att: None,
        },
        IrOp::AttentionTm { scratch, .. } | IrOp::AttentionFm { scratch, .. } => OpScratch {
            att: Some(unsafe { span_mut(base, *scratch) }),
            ..OpScratch::default()
        },
        _ => OpScratch::default(),
    };
    exec_op(&step.op, &s, dst, scratch);
}

/// Executes one op's f32 arithmetic against caller-resolved operand views.
///
/// The f32 executor calls it with arena-resident views, and the quantized
/// executor calls it for every op that runs on the f32 fallback path, with
/// operands dequantized into scratch. Each non-elementwise arm is a single
/// call into the kernel the tape forward runs (see the module docs).
pub(crate) fn exec_op<'a>(
    op: &IrOp,
    s: &impl Fn(ValId) -> &'a [f32],
    dst: &mut [f32],
    scratch: OpScratch<'_>,
) {
    match op {
        IrOp::Conv2d {
            x,
            w,
            bias,
            affine,
            relu,
            shape,
            ..
        } => lowlevel::conv2d_into(
            s(*x),
            s(*w),
            *shape,
            bias.map(s),
            affine
                .as_ref()
                .map(|(sc, sh)| (sc.as_slice(), sh.as_slice())),
            *relu,
            scratch.cols.expect("conv cols scratch"),
            scratch.ymat.expect("conv ymat scratch"),
            dst,
        ),
        IrOp::AddBiasChannel { x, bias, b, c, hw } => {
            lowlevel::add_bias_channel_into(s(*x), s(*bias), *b, *c, *hw, dst);
        }
        IrOp::AddBiasRow { x, bias } => lowlevel::add_bias_row_into(s(*x), s(*bias), dst),
        IrOp::Add { a, b, relu } => {
            let (av, bv) = (s(*a), s(*b));
            if *relu {
                for ((o, &x), &y) in dst.iter_mut().zip(av).zip(bv) {
                    *o = (x + y).max(0.0);
                }
            } else {
                for ((o, &x), &y) in dst.iter_mut().zip(av).zip(bv) {
                    *o = x + y;
                }
            }
        }
        IrOp::Sub { a, b } => {
            let (av, bv) = (s(*a), s(*b));
            for ((o, &x), &y) in dst.iter_mut().zip(av).zip(bv) {
                *o = x - y;
            }
        }
        IrOp::Mul { a, b } => {
            let (av, bv) = (s(*a), s(*b));
            for ((o, &x), &y) in dst.iter_mut().zip(av).zip(bv) {
                *o = x * y;
            }
        }
        IrOp::Neg { x } => {
            for (o, &v) in dst.iter_mut().zip(s(*x)) {
                *o = -v;
            }
        }
        IrOp::Scale { x, c } => {
            for (o, &v) in dst.iter_mut().zip(s(*x)) {
                *o = v * c;
            }
        }
        IrOp::Relu { x } => {
            for (o, &v) in dst.iter_mut().zip(s(*x)) {
                *o = v.max(0.0);
            }
        }
        IrOp::LeakyRelu { x, slope } => {
            for (o, &v) in dst.iter_mut().zip(s(*x)) {
                *o = if v > 0.0 { v } else { slope * v };
            }
        }
        IrOp::Sigmoid { x } => {
            for (o, &v) in dst.iter_mut().zip(s(*x)) {
                *o = 1.0 / (1.0 + (-v).exp());
            }
        }
        IrOp::Gelu { x } => {
            for (o, &v) in dst.iter_mut().zip(s(*x)) {
                *o = gelu_fwd(v);
            }
        }
        IrOp::ChannelAffine {
            x,
            scale,
            shift,
            b,
            c,
            hw,
        } => lowlevel::channel_affine_into(s(*x), scale, shift, *b, *c, *hw, dst),
        IrOp::LayerNorm {
            x,
            gamma,
            beta,
            eps,
            d,
        } => layer_norm_rows(s(*x), s(*gamma), s(*beta), *eps, *d, dst, None, None),
        IrOp::SoftmaxLast { x, d } => lowlevel::softmax_last_into(s(*x), *d, dst),
        IrOp::Matmul { a, b, m, k, n } => lowlevel::gemm_into(s(*a), s(*b), dst, *m, *k, *n),
        IrOp::Bmm {
            kind,
            a,
            b,
            bt,
            m,
            k,
            n,
        } => lowlevel::bmm_into(*kind, s(*a), s(*b), dst, *bt, *m, *k, *n),
        IrOp::AttentionTm {
            q,
            k,
            v,
            scale,
            b,
            lq,
            lk,
            d,
            dv,
            ..
        } => attention_tm_slices(
            s(*q),
            s(*k),
            s(*v),
            *b,
            *lq,
            *lk,
            *d,
            *dv,
            *scale,
            dst,
            scratch.att.expect("attention score-row scratch"),
        ),
        IrOp::AttentionFm {
            q,
            k,
            v,
            scale,
            b,
            n,
            nv,
            l,
            ..
        } => attention_fm_slices(
            s(*q),
            s(*k),
            s(*v),
            *b,
            *n,
            *nv,
            *l,
            *scale,
            dst,
            scratch.att.expect("attention score-row scratch"),
        ),
        IrOp::Copy { x } => {
            dst.copy_from_slice(s(*x));
        }
        IrOp::Permute {
            x,
            stride_axes,
            out_dims,
        } => lowlevel::permute_into(
            s(*x),
            stride_axes,
            out_dims,
            &mut [0; MAX_PERMUTE_RANK],
            dst,
        ),
        IrOp::ConcatChannels {
            parts,
            part_c,
            b,
            hw,
            total_c,
        } => {
            let srcs = parts.iter().zip(part_c).map(|(&p, &pc)| (s(p), pc));
            lowlevel::concat_channels_into(srcs, *b, *hw, *total_c, dst);
        }
        IrOp::SliceChannels {
            x,
            c0,
            c1,
            b,
            c,
            hw,
        } => lowlevel::slice_channels_into(s(*x), *b, *c, *hw, *c0, *c1, dst),
        IrOp::Upsample2x { x, planes, h, w } => {
            lowlevel::upsample2x_into(s(*x), *planes, *h, *w, dst);
        }
        IrOp::MaxPool2x2 { x, planes, h, w } => {
            lowlevel::maxpool2x2_into(s(*x), *planes, *h, *w, dst, None);
        }
        IrOp::MulScalarVar { x, s: sv } => {
            let scalar = s(*sv)[0];
            for (o, &v) in dst.iter_mut().zip(s(*x)) {
                *o = v * scalar;
            }
        }
    }
}
