//! Quantized compiled plans: an int8 activation arena (with f16 islands)
//! built from offline calibration, and a byte-arena executor.
//!
//! A [`QuantPlan`] is built *from* a compiled f32 [`Plan`] plus a
//! [`Calibration`] (per-step activation abs-max ranges collected by
//! replaying the f32 plan over representative inputs). It reuses the f32
//! plan's step list and alias classes unchanged, and re-derives only the
//! storage layer:
//!
//! - every intermediate gets a **storage class** ([`Store`]): `i8`
//!   (symmetric per-tensor scale, zero-point 0) for conv-trunk values,
//!   IEEE binary16 for transformer-ish values (attention, softmax,
//!   layer-norm, GELU neighbourhoods — where 8-bit dynamic range is not
//!   enough), and f32 where calibration marks a value unquantizable
//!   (non-finite range) or for the plan output (the level-map acceptance
//!   contract is stated against f32 logits);
//! - conv and linear **weights** are quantized per output channel
//!   (`scale[oc] = absmax(row)/127`), so one i8×i8→i32 GEMM with a
//!   per-row dequant epilogue replaces the f32 GEMM — the epilogue fuses
//!   bias/affine/ReLU exactly like the f32 conv epilogue;
//! - every step compiles to a [`StepPlan`]: `ConvI8`/`MatmulI8` run
//!   dequant-free on the exact int8 kernels in `mfaplace_tensor::simd`
//!   (bitwise identical across scalar/AVX2/NEON — integer accumulation
//!   has no rounding), everything else runs `Generic`: operands are
//!   dequantized into scratch and the op executes the *same* f32
//!   arithmetic as the f32 plan ([`crate::exec::exec_op`]).
//!
//! # Arena
//!
//! Activations live in a byte-granular arena (backed by `Vec<u64>` for
//! 8-byte alignment; spans are allocated in 64-byte blocks, so every
//! typed view is aligned). Liveness re-runs the f32 plan's per-op
//! first-fit scheme (the same last-read walk) with per-value byte sizes.
//! A single shared scratch region at the arena tail — sized to the
//! largest per-step need — holds quantize/dequant/im2col/GEMM
//! temporaries.
//!
//! # Determinism
//!
//! Calibration is a serial replay, so collected ranges — and therefore
//! scales, quantized weights and the serving artifact built from them —
//! are bitwise-reproducible for a given checkpoint, input set and kernel
//! backend.

use std::sync::Arc;

use mfaplace_tensor::half::{f16_bits_to_f32, f32_to_f16_bits};
use mfaplace_tensor::{lowlevel, simd};

use crate::exec::{exec_op, run_plan_observed, OpScratch};
use crate::plan::{
    dying_after, for_each_operand, last_reads, FreeList, IrOp, Loc, Plan, PlanStats, Step, ValId,
};

/// Byte-span allocation granularity: every arena span starts on a
/// 64-byte boundary, so f32/f16/i32 views over the `u64` backing are
/// always aligned.
const BLOCK: usize = 64;

/// Per-step activation ranges collected by replaying a compiled f32 plan
/// over representative inputs (the offline calibration pass).
///
/// Indexed by **compiled step order** and tagged with each step's op
/// kind. Step order is a deterministic function of the captured graph
/// structure, but it is *not* perfectly batch-independent (e.g. the
/// ViT positional embedding tiles itself with an extra concat at batch
/// 2+), so [`QuantPlan::build`] aligns calibration entries to the
/// target plan by op-kind sequence: an exact kind match applies
/// directly, a near match (at least 90% of steps align under a
/// longest-common-subsequence pairing — batch-bucket variants of one
/// model) leaves the unmatched steps unquantized (f32), and anything
/// worse — a different checkpoint or grid — is rejected as stale. A
/// non-finite range entry marks the value unquantizable (it stays f32
/// in the quantized plan).
#[derive(Clone, Debug, PartialEq)]
pub struct Calibration {
    pub(crate) input_absmax: f32,
    pub(crate) step_absmax: Vec<f32>,
    /// [`op_kind`] of the step each range was recorded from.
    pub(crate) kinds: Vec<u8>,
}

/// Version 02: ranges are indexed by tape-order steps. Version 01 blobs
/// were indexed by a level-major step order whose same-kind ops sit in
/// other positions, so they fail the magic check rather than being
/// silently misapplied.
const CALIB_MAGIC: &[u8; 8] = b"MFACAL02";

impl Calibration {
    /// Replays `plan` serially over every batch in `batches` (each a
    /// row-major input of the plan's captured shape) and records the
    /// running abs-max of the input and of every step output.
    pub fn collect<'a, I>(plan: &Plan, batches: I) -> Result<Calibration, String>
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut input_absmax = 0.0f32;
        let mut step_absmax = vec![0.0f32; plan.steps.len()];
        let mut arena = Vec::new();
        let mut n = 0usize;
        for input in batches {
            n += 1;
            input_absmax = fold_absmax(input_absmax, input);
            run_plan_observed(plan, &mut arena, input, &mut |i, out| {
                step_absmax[i] = fold_absmax(step_absmax[i], out);
            });
        }
        if n == 0 {
            return Err("calibration needs at least one input batch".into());
        }
        Ok(Calibration {
            input_absmax,
            step_absmax,
            kinds: plan.steps.iter().map(|s| op_kind(&s.op)).collect(),
        })
    }

    /// Number of plan steps this calibration covers.
    pub fn steps(&self) -> usize {
        self.step_absmax.len()
    }

    /// Serializes to a little-endian byte blob (bitwise-deterministic):
    /// magic, step count, input range, per-step ranges, per-step kinds.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.step_absmax.len();
        let mut out = Vec::with_capacity(16 + 5 * n);
        out.extend_from_slice(CALIB_MAGIC);
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&self.input_absmax.to_le_bytes());
        for &v in &self.step_absmax {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.kinds);
        out
    }

    /// Parses [`Calibration::to_bytes`] output.
    pub fn from_bytes(b: &[u8]) -> Result<Calibration, String> {
        if b.len() < 16 || &b[..8] != CALIB_MAGIC {
            return Err("not a calibration blob (bad magic)".into());
        }
        let n = u32::from_le_bytes(b[8..12].try_into().unwrap()) as usize;
        if b.len() != 16 + 5 * n {
            return Err(format!(
                "calibration blob length mismatch: {} bytes for {n} steps",
                b.len()
            ));
        }
        let input_absmax = f32::from_le_bytes(b[12..16].try_into().unwrap());
        let step_absmax = b[16..16 + 4 * n]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Calibration {
            input_absmax,
            step_absmax,
            kinds: b[16 + 4 * n..].to_vec(),
        })
    }
}

/// Stable numeric tag of an op variant, used to align calibration
/// entries with a plan whose step list differs (batch-bucket variants
/// emit e.g. an extra positional-embedding concat at batch > 1).
fn op_kind(op: &IrOp) -> u8 {
    match op {
        IrOp::Conv2d { .. } => 0,
        IrOp::AddBiasChannel { .. } => 1,
        IrOp::AddBiasRow { .. } => 2,
        IrOp::Add { .. } => 3,
        IrOp::Sub { .. } => 4,
        IrOp::Mul { .. } => 5,
        IrOp::Neg { .. } => 6,
        IrOp::Scale { .. } => 7,
        IrOp::Relu { .. } => 8,
        IrOp::LeakyRelu { .. } => 9,
        IrOp::Sigmoid { .. } => 10,
        IrOp::Gelu { .. } => 11,
        IrOp::ChannelAffine { .. } => 12,
        IrOp::LayerNorm { .. } => 13,
        IrOp::SoftmaxLast { .. } => 14,
        IrOp::Matmul { .. } => 15,
        IrOp::Bmm { .. } => 16,
        IrOp::AttentionTm { .. } => 17,
        IrOp::AttentionFm { .. } => 18,
        IrOp::Copy { .. } => 19,
        IrOp::Permute { .. } => 20,
        IrOp::ConcatChannels { .. } => 21,
        IrOp::SliceChannels { .. } => 22,
        IrOp::Upsample2x { .. } => 23,
        IrOp::MaxPool2x2 { .. } => 24,
        IrOp::MulScalarVar { .. } => 25,
    }
}

/// Maps `calib`'s per-step ranges onto `base`'s step list: identity when
/// the op-kind sequences match exactly, an LCS pairing when they nearly
/// match (unpaired steps get a `+inf` range and stay f32), an error when
/// fewer than 90% of steps pair up (stale calibration).
fn align_calibration(calib: &Calibration, base: &Plan) -> Result<Vec<f32>, String> {
    let tgt: Vec<u8> = base.steps.iter().map(|s| op_kind(&s.op)).collect();
    if calib.kinds == tgt {
        return Ok(calib.step_absmax.clone());
    }
    let (n, m) = (calib.kinds.len(), tgt.len());
    let w = m + 1;
    // dp[i][j] = LCS length of calib.kinds[i..] and tgt[j..].
    let mut dp = vec![0u32; (n + 1) * w];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[i * w + j] = if calib.kinds[i] == tgt[j] {
                dp[(i + 1) * w + j + 1] + 1
            } else {
                dp[(i + 1) * w + j].max(dp[i * w + j + 1])
            };
        }
    }
    let matched = dp[0] as usize;
    if matched * 10 < n.max(m) * 9 {
        return Err(format!(
            "calibration covers {n} steps but the plan has {m} and only {matched} align — \
             stale calibration (different checkpoint or grid): recalibrate"
        ));
    }
    let mut out = vec![f32::INFINITY; m];
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if calib.kinds[i] == tgt[j] && dp[i * w + j] == dp[(i + 1) * w + j + 1] + 1 {
            out[j] = calib.step_absmax[i];
            i += 1;
            j += 1;
        } else if dp[(i + 1) * w + j] >= dp[i * w + j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    Ok(out)
}

/// Running abs-max fold; any non-finite sample poisons the range to
/// `+inf`, which later marks the value unquantizable.
fn fold_absmax(mut acc: f32, xs: &[f32]) -> f32 {
    for &v in xs {
        if v.is_finite() {
            let a = v.abs();
            if a > acc {
                acc = a;
            }
        } else {
            acc = f32::INFINITY;
        }
    }
    acc
}

/// Symmetric per-tensor scale: `q = clamp(round(x/scale), ±127)`.
/// A zero range quantizes everything to 0 under scale 1.
fn absmax_to_scale(absmax: f32) -> f32 {
    if absmax == 0.0 {
        1.0
    } else {
        absmax / 127.0
    }
}

#[inline]
fn quantize_one(v: f32, inv_scale: f32) -> i8 {
    (v * inv_scale).round().clamp(-127.0, 127.0) as i8
}

/// Storage class of one plan value inside the quantized arena.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Store {
    F32,
    F16,
    I8 { scale: f32 },
}

impl Store {
    fn elem_bytes(self) -> usize {
        match self {
            Store::F32 => 4,
            Store::F16 => 2,
            Store::I8 { .. } => 1,
        }
    }
}

/// A byte span in the quantized arena.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ByteRange {
    pub off: usize,
    pub len: usize,
}

/// How one step executes in the quantized plan.
#[derive(Clone, Debug)]
pub(crate) enum StepPlan {
    /// Conv on the exact int8 GEMM: per-OC weight scales, fused
    /// bias/affine/ReLU dequant epilogue.
    ConvI8 {
        qw: Vec<i8>,
        wscale: Vec<f32>,
        x_scale: f32,
    },
    /// `x @ W` on the exact int8 GEMM: per-column weight scales.
    MatmulI8 {
        qb: Vec<i8>,
        bscale: Vec<f32>,
        a_scale: f32,
    },
    /// f32 fallback: dequantize operands, run [`exec_op`], requantize.
    Generic,
}

/// Counters specific to a quantized plan, surfaced by `model-info`,
/// `/metrics` and the plan summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuantStats {
    /// Step outputs stored as i8 / f16 / f32.
    pub i8_values: usize,
    pub f16_values: usize,
    pub f32_values: usize,
    /// Steps running on the int8 GEMM path (`ConvI8` + `MatmulI8`).
    pub i8_steps: usize,
    /// Steps on the dequantize→f32→requantize fallback path.
    pub generic_steps: usize,
    /// Quantized arena bytes (value spans + shared scratch region).
    pub arena_bytes: usize,
    /// The source f32 plan's arena bytes, for the ≤0.5× contract.
    pub f32_arena_bytes: usize,
    /// Bytes held by quantized weight copies (i8 data + scales).
    pub qweight_bytes: usize,
    /// Bytes of the shared per-step scratch region (included in
    /// `arena_bytes`).
    pub scratch_bytes: usize,
}

/// A quantized compiled plan: the f32 [`Plan`]'s program with an
/// int8/f16 storage layer and int8 compute for conv/linear GEMMs.
#[derive(Clone, Debug)]
pub struct QuantPlan {
    pub(crate) base: Arc<Plan>,
    pub(crate) store: Vec<Store>,
    pub(crate) spans: Vec<Option<ByteRange>>,
    pub(crate) qsteps: Vec<StepPlan>,
    /// Shared per-step scratch region at the arena tail.
    pub(crate) scratch: ByteRange,
    arena_bytes: usize,
    stats: PlanStats,
    qstats: QuantStats,
}

impl QuantPlan {
    /// Builds a quantized plan from a compiled f32 plan and a
    /// calibration collected over the same model (any batch bucket —
    /// entries are aligned to this plan's step list by op kind; see
    /// [`Calibration`]). A calibration that does not align — e.g. from a
    /// different checkpoint or grid — is an error whose message says to
    /// recalibrate, and callers fall back to f32.
    pub fn build(base: Arc<Plan>, calib: &Calibration) -> Result<QuantPlan, String> {
        let step_absmax = align_calibration(calib, &base)?;
        let n_vals = base.values.len();

        // Per-root activation abs-max: the input from the calibration's
        // input range, every step output from its step entry.
        let mut val_absmax: Vec<Option<f32>> = vec![None; n_vals];
        val_absmax[base.input] = Some(calib.input_absmax);
        for (i, step) in base.steps.iter().enumerate() {
            val_absmax[step.out] = Some(step_absmax[i]);
        }

        // Storage classes. The output root stays f32 (the acceptance
        // contract compares f32 logits); non-finite ranges stay f32.
        let out_root = base.alias[base.output];
        let mut store = vec![Store::F32; n_vals];
        for (i, step) in base.steps.iter().enumerate() {
            let r = step.out;
            let am = step_absmax[i];
            store[r] = if r == out_root || !am.is_finite() {
                Store::F32
            } else if conv_trunk(&step.op) {
                Store::I8 {
                    scale: absmax_to_scale(am),
                }
            } else {
                Store::F16
            };
        }
        for v in 0..n_vals {
            if base.alias[v] != v {
                store[v] = store[base.alias[v]];
            }
        }

        // Step compilation: int8 kernel paths where eligible.
        let mut qsteps = Vec::with_capacity(base.steps.len());
        let mut qweight_bytes = 0usize;
        for step in base.steps.iter() {
            let sp = compile_i8_step(&base, &val_absmax, step).unwrap_or(StepPlan::Generic);
            match &sp {
                StepPlan::ConvI8 { qw, wscale, .. } => {
                    qweight_bytes += qw.len() + 4 * wscale.len();
                }
                StepPlan::MatmulI8 { qb, bscale, .. } => {
                    qweight_bytes += qb.len() + 4 * bscale.len();
                }
                StepPlan::Generic => {}
            }
            qsteps.push(sp);
        }

        // Byte arena: the f32 plan's per-op liveness with per-value byte
        // sizes, plus the shared scratch tail.
        let (spans, data_bytes) = assign_byte_arena(&base, &store);
        let scratch_len = base
            .steps
            .iter()
            .zip(&qsteps)
            .map(|(step, q)| step_scratch_bytes(&base, &store, q, step))
            .max()
            .unwrap_or(0);
        let scratch = ByteRange {
            off: data_bytes,
            len: scratch_len,
        };
        let arena_bytes = data_bytes + scratch_len;

        let mut qstats = QuantStats {
            arena_bytes,
            f32_arena_bytes: base.stats().arena_bytes,
            qweight_bytes,
            scratch_bytes: scratch_len,
            ..QuantStats::default()
        };
        for step in base.steps.iter() {
            match store[step.out] {
                Store::I8 { .. } => qstats.i8_values += 1,
                Store::F16 => qstats.f16_values += 1,
                Store::F32 => qstats.f32_values += 1,
            }
        }
        for q in &qsteps {
            match q {
                StepPlan::Generic => qstats.generic_steps += 1,
                _ => qstats.i8_steps += 1,
            }
        }

        let mut stats = base.stats().clone();
        stats.arena_bytes = arena_bytes;
        stats.weight_bytes += qweight_bytes;

        Ok(QuantPlan {
            base,
            store,
            spans,
            qsteps,
            scratch,
            arena_bytes,
            stats,
            qstats,
        })
    }

    /// The f32 plan this quantized plan was built from.
    pub fn base(&self) -> &Arc<Plan> {
        &self.base
    }

    /// Plan counters with `arena_bytes`/`weight_bytes` reflecting the
    /// quantized storage (op structure counters match the f32 plan).
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// Quantization-specific counters.
    pub fn quant_stats(&self) -> &QuantStats {
        &self.qstats
    }

    /// Total arena bytes (value spans + shared scratch).
    pub fn arena_bytes(&self) -> usize {
        self.arena_bytes
    }

    /// Arena length in `u64` backing words.
    pub fn arena_words(&self) -> usize {
        self.arena_bytes.div_ceil(8)
    }

    /// Captured input shape `[B, C, H, W]`.
    pub fn input_shape(&self) -> &[usize] {
        self.base.input_shape()
    }

    /// Output shape.
    pub fn output_shape(&self) -> &[usize] {
        self.base.output_shape()
    }

    /// Elements in one forward's input.
    pub fn input_numel(&self) -> usize {
        self.base.input_numel()
    }

    /// Estimated bytes of this plan's own metadata (the base plan's
    /// metadata plus the storage/step tables). Quantized weight *data*
    /// is excluded — it is in [`QuantStats::qweight_bytes`].
    pub fn metadata_bytes(&self) -> usize {
        use std::mem::size_of;
        self.base.metadata_bytes()
            + self.store.len() * size_of::<Store>()
            + self.spans.len() * size_of::<Option<ByteRange>>()
            + self.qsteps.len() * size_of::<StepPlan>()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "quant[int8] {} ops ({} int8-gemm, {} generic); values i8/f16/f32 {}/{}/{}; arena {} B ({} B scratch) vs f32 {} B; qweights {} B",
            self.base.stats().ops,
            self.qstats.i8_steps,
            self.qstats.generic_steps,
            self.qstats.i8_values,
            self.qstats.f16_values,
            self.qstats.f32_values,
            self.qstats.arena_bytes,
            self.qstats.scratch_bytes,
            self.qstats.f32_arena_bytes,
            self.qstats.qweight_bytes,
        )
    }
}

/// Ops whose outputs tolerate 8-bit storage: the conv trunk. Attention /
/// normalization / softmax neighbourhoods keep f16 — their dynamic range
/// (probabilities near 0, normalized values, GELU tails) degrades badly
/// at 8 bits.
fn conv_trunk(op: &IrOp) -> bool {
    matches!(
        op,
        IrOp::Conv2d { .. }
            | IrOp::Relu { .. }
            | IrOp::LeakyRelu { .. }
            | IrOp::Add { .. }
            | IrOp::ConcatChannels { .. }
            | IrOp::SliceChannels { .. }
            | IrOp::MaxPool2x2 { .. }
            | IrOp::Upsample2x { .. }
            | IrOp::AddBiasChannel { .. }
            | IrOp::ChannelAffine { .. }
    )
}

/// Tries to compile one step onto the exact int8 GEMM path. `None`
/// means the step runs `Generic` (weight not a table entry, contraction
/// too long for exact i32, or a non-finite range somewhere).
fn compile_i8_step(base: &Plan, val_absmax: &[Option<f32>], step: &Step) -> Option<StepPlan> {
    match &step.op {
        IrOp::Conv2d { x, w, shape, .. } => {
            let (k, oc) = (shape.c * shape.kh * shape.kw, shape.oc);
            if k == 0 || k > simd::I8_GEMM_MAX_K {
                return None;
            }
            let Loc::Weight(wi) = base.values[*w].loc else {
                return None;
            };
            let x_am = val_absmax[base.alias[*x]]?;
            if !x_am.is_finite() {
                return None;
            }
            let wd = base.weights[wi].data();
            let mut qw = vec![0i8; oc * k];
            let mut wscale = vec![1.0f32; oc];
            for row in 0..oc {
                let src = &wd[row * k..(row + 1) * k];
                let am = fold_absmax(0.0, src);
                if !am.is_finite() {
                    return None;
                }
                let s = absmax_to_scale(am);
                wscale[row] = s;
                let inv = 1.0 / s;
                for (q, &v) in qw[row * k..(row + 1) * k].iter_mut().zip(src) {
                    *q = quantize_one(v, inv);
                }
            }
            Some(StepPlan::ConvI8 {
                qw,
                wscale,
                x_scale: absmax_to_scale(x_am),
            })
        }
        IrOp::Matmul { a, b, k, n, .. } => {
            if *k == 0 || *k > simd::I8_GEMM_MAX_K {
                return None;
            }
            let Loc::Weight(wi) = base.values[*b].loc else {
                return None;
            };
            let a_am = val_absmax[base.alias[*a]]?;
            if !a_am.is_finite() {
                return None;
            }
            let wd = base.weights[wi].data();
            let mut qb = vec![0i8; k * n];
            let mut bscale = vec![1.0f32; *n];
            for j in 0..*n {
                let mut am = 0.0f32;
                for p in 0..*k {
                    am = fold_absmax(am, &wd[p * n + j..p * n + j + 1]);
                }
                if !am.is_finite() {
                    return None;
                }
                let s = absmax_to_scale(am);
                bscale[j] = s;
                let inv = 1.0 / s;
                for p in 0..*k {
                    qb[p * n + j] = quantize_one(wd[p * n + j], inv);
                }
            }
            Some(StepPlan::MatmulI8 {
                qb,
                bscale,
                a_scale: absmax_to_scale(a_am),
            })
        }
        _ => None,
    }
}

fn align8(bytes: usize) -> usize {
    (bytes + 7) & !7
}

/// Scratch bytes one step's execution carves from the shared region.
/// Must upper-bound (here: exactly match) the executor's carving.
fn step_scratch_bytes(base: &Plan, store: &[Store], q: &StepPlan, step: &Step) -> usize {
    match q {
        StepPlan::ConvI8 { .. } => {
            let IrOp::Conv2d { x, shape, .. } = &step.op else {
                unreachable!("ConvI8 compiles only from Conv2d");
            };
            let mut s = 0usize;
            if !matches!(store[*x], Store::I8 { .. }) {
                s += align8(base.values[*x].numel);
            }
            s += align8(shape.cols_len()); // i8 im2col matrix
            s += align8(shape.out_len() * 4); // i32 GEMM result
            s
        }
        StepPlan::MatmulI8 { .. } => {
            let IrOp::Matmul { a, m, k, n, .. } = &step.op else {
                unreachable!("MatmulI8 compiles only from Matmul");
            };
            let mut s = 0usize;
            if !matches!(store[*a], Store::I8 { .. }) {
                s += align8(m * k);
            }
            s += align8(m * n * 4);
            s
        }
        StepPlan::Generic => {
            let mut s = 0usize;
            let mut seen: Vec<ValId> = Vec::new();
            for_each_operand(&step.op, &mut |v| {
                if seen.contains(&v) {
                    return;
                }
                seen.push(v);
                if matches!(base.values[v].loc, Loc::Arena { .. })
                    && !matches!(store[v], Store::F32)
                {
                    s += align8(base.values[v].numel * 4);
                }
            });
            if !matches!(store[step.out], Store::F32) {
                s += align8(base.values[step.out].numel * 4);
            }
            match &step.op {
                IrOp::Conv2d { cols, ymat, .. } => {
                    s += align8(cols.len * 4) + align8(ymat.len * 4);
                }
                IrOp::AttentionTm { scratch, .. } | IrOp::AttentionFm { scratch, .. } => {
                    s += align8(scratch.len * 4);
                }
                _ => {}
            }
            s
        }
    }
}

/// Byte-arena assignment: the f32 plan's per-op first-fit liveness
/// ([`last_reads`] / [`dying_after`]) re-run with per-value byte sizes
/// (in 64-byte blocks). Returns per-value spans and the data-region byte
/// length.
fn assign_byte_arena(base: &Plan, store: &[Store]) -> (Vec<Option<ByteRange>>, usize) {
    let values = &base.values;
    let alias = &base.alias;
    let last_read = last_reads(&base.steps, alias, base.output);
    let mut fl = FreeList::default();
    let mut spans: Vec<Option<ByteRange>> = vec![None; values.len()];
    for (i, step) in base.steps.iter().enumerate() {
        let out = step.out;
        let bytes = values[out].numel * store[out].elem_bytes();
        let off = fl.alloc(bytes.div_ceil(BLOCK));
        spans[out] = Some(ByteRange {
            off: off * BLOCK,
            len: bytes,
        });
        for r in dying_after(i, step, alias, &last_read) {
            if let Some(sp) = spans[r] {
                fl.release(sp.off / BLOCK, sp.len.div_ceil(BLOCK));
            }
        }
    }
    for v in 0..values.len() {
        if alias[v] != v {
            spans[v] = spans[alias[v]];
        }
    }
    (spans, fl.high() * BLOCK)
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Owns the mutable byte arena needed to run a [`QuantPlan`].
#[derive(Debug)]
pub struct QuantExecutor {
    plan: Arc<QuantPlan>,
    arena: Vec<u64>,
    runs: u64,
}

impl QuantExecutor {
    /// Builds an executor, allocating the byte arena once up front.
    pub fn new(plan: impl Into<Arc<QuantPlan>>) -> QuantExecutor {
        let plan = plan.into();
        let arena = vec![0u64; plan.arena_words()];
        QuantExecutor {
            plan,
            arena,
            runs: 0,
        }
    }

    /// The quantized plan this executor runs.
    pub fn plan(&self) -> &QuantPlan {
        &self.plan
    }

    /// Number of completed forwards.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Runs one forward; the returned f32 output slice is valid until the
    /// next call.
    pub fn run_batch(&mut self, input: &[f32]) -> &[f32] {
        self.runs += 1;
        run_quant_plan(&self.plan, &mut self.arena, input)
    }
}

/// Runs one forward of a quantized plan over caller-owned backing
/// storage (grown to the plan's requirement, never shrunk). Serial only:
/// all steps share the plan's single scratch region.
pub fn run_quant_plan<'a>(qp: &QuantPlan, arena: &'a mut Vec<u64>, input: &[f32]) -> &'a [f32] {
    assert_eq!(
        input.len(),
        qp.input_numel(),
        "quant plan input length mismatch (plan compiled for shape {:?})",
        qp.input_shape(),
    );
    let words = qp.arena_words();
    if arena.len() < words {
        arena.resize(words, 0);
    }
    let bytes = arena.as_mut_ptr() as *mut u8;
    for (step, q) in qp.base.steps.iter().zip(&qp.qsteps) {
        exec_quant_step(qp, input, bytes, step, q);
    }
    mfaplace_rt::timer::count("infer/quant_plan_forwards", 1);
    let out = qp.base.output;
    let sp = qp.spans[out].expect("quant plan output is arena-resident");
    debug_assert!(matches!(qp.store[out], Store::F32));
    // SAFETY: the output span is 64-byte aligned, initialized by the last
    // step, inside the arena allocation, and borrowed for `'a`.
    unsafe {
        std::slice::from_raw_parts(bytes.add(sp.off) as *const f32, qp.base.values[out].numel)
    }
}

/// Bump cursor over the plan's shared scratch region; all carves are
/// 8-byte aligned and bounds-checked against the build-time sizing.
struct Cursor {
    base: *mut u8,
    off: usize,
    end: usize,
}

impl Cursor {
    fn new(bytes: *mut u8, region: ByteRange) -> Cursor {
        Cursor {
            base: bytes,
            off: region.off,
            end: region.off + region.len,
        }
    }
}

/// Carves `n` elements of `T` from the scratch cursor.
///
/// # Safety
///
/// Every carve in one step must be from a distinct cursor range (the
/// bump guarantees it); the caller must not let two live carves alias.
unsafe fn take<'x, T>(cur: &mut Cursor, n: usize) -> &'x mut [T] {
    let sz = align8(n * std::mem::size_of::<T>());
    assert!(cur.off + sz <= cur.end, "quant scratch overflow");
    let p = cur.base.add(cur.off) as *mut T;
    cur.off += sz;
    std::slice::from_raw_parts_mut(p, n)
}

/// f32 view of value `v` when no conversion is needed: the forward
/// input, a weight-table tensor, or an f32-stored arena span.
///
/// # Safety
///
/// Arena views alias `bytes`; the caller must not hold an overlapping
/// mutable span (liveness invariant, inherited from the f32 allocator).
unsafe fn direct_f32<'x>(
    qp: &'x QuantPlan,
    input: &'x [f32],
    bytes: *const u8,
    v: ValId,
) -> Option<&'x [f32]> {
    match qp.base.values[v].loc {
        Loc::Input => Some(input),
        Loc::Weight(i) => Some(qp.base.weights[i].data()),
        Loc::Arena { .. } => match qp.store[v] {
            Store::F32 => {
                let sp = qp.spans[v].expect("f32-stored value has a span");
                Some(std::slice::from_raw_parts(
                    bytes.add(sp.off) as *const f32,
                    qp.base.values[v].numel,
                ))
            }
            _ => None,
        },
        Loc::Unassigned => unreachable!("read of a fused-away value"),
    }
}

/// i8 view of an i8-stored arena value.
unsafe fn i8_view<'x>(qp: &QuantPlan, bytes: *const u8, v: ValId) -> &'x [i8] {
    let sp = qp.spans[v].expect("i8-stored value has a span");
    std::slice::from_raw_parts(bytes.add(sp.off) as *const i8, qp.base.values[v].numel)
}

/// Dequantizes arena value `v` (f16 or i8 storage) into `dst`.
unsafe fn dequant_into(qp: &QuantPlan, bytes: *const u8, v: ValId, dst: &mut [f32]) {
    let sp = qp.spans[v].expect("quantized value has a span");
    let n = qp.base.values[v].numel;
    match qp.store[v] {
        Store::F32 => unreachable!("f32 values are viewed, not dequantized"),
        Store::F16 => {
            let src = std::slice::from_raw_parts(bytes.add(sp.off) as *const u16, n);
            for (d, &h) in dst.iter_mut().zip(src) {
                *d = f16_bits_to_f32(h);
            }
        }
        Store::I8 { scale } => {
            let src = std::slice::from_raw_parts(bytes.add(sp.off) as *const i8, n);
            for (d, &q) in dst.iter_mut().zip(src) {
                *d = f32::from(q) * scale;
            }
        }
    }
}

/// Quantizes value `v` to i8 under `inv_scale`, reading straight from
/// its storage (f32 view or f16 bits) with no f32 staging buffer.
unsafe fn quantize_value_into(
    qp: &QuantPlan,
    input: &[f32],
    bytes: *const u8,
    v: ValId,
    inv_scale: f32,
    dst: &mut [i8],
) {
    if let Some(src) = direct_f32(qp, input, bytes, v) {
        for (q, &x) in dst.iter_mut().zip(src) {
            *q = quantize_one(x, inv_scale);
        }
        return;
    }
    match qp.store[v] {
        Store::F16 => {
            let sp = qp.spans[v].expect("f16-stored value has a span");
            let src = std::slice::from_raw_parts(
                bytes.add(sp.off) as *const u16,
                qp.base.values[v].numel,
            );
            for (q, &h) in dst.iter_mut().zip(src) {
                *q = quantize_one(f16_bits_to_f32(h), inv_scale);
            }
        }
        // An i8-stored operand is read directly by the caller; f32 is
        // covered by `direct_f32` above.
        s => unreachable!("quantize from unexpected store {s:?}"),
    }
}

/// Typed mutable view of a step's destination span.
enum DstView<'x> {
    F32(&'x mut [f32]),
    F16(&'x mut [u16]),
    I8 { q: &'x mut [i8], inv: f32 },
}

/// # Safety
///
/// The destination span must be disjoint from every operand span read by
/// the same step (liveness invariant).
unsafe fn dst_view<'x>(qp: &QuantPlan, bytes: *mut u8, v: ValId) -> DstView<'x> {
    let sp = qp.spans[v].expect("step outputs are arena-resident");
    let n = qp.base.values[v].numel;
    let p = bytes.add(sp.off);
    match qp.store[v] {
        Store::F32 => DstView::F32(std::slice::from_raw_parts_mut(p as *mut f32, n)),
        Store::F16 => DstView::F16(std::slice::from_raw_parts_mut(p as *mut u16, n)),
        Store::I8 { scale } => DstView::I8 {
            q: std::slice::from_raw_parts_mut(p as *mut i8, n),
            inv: 1.0 / scale,
        },
    }
}

#[inline]
fn put(dv: &mut DstView<'_>, idx: usize, v: f32) {
    match dv {
        DstView::F32(s) => s[idx] = v,
        DstView::F16(s) => s[idx] = f32_to_f16_bits(v),
        DstView::I8 { q, inv } => q[idx] = quantize_one(v, *inv),
    }
}

/// Stores an f32 buffer into a (non-f32) destination span.
unsafe fn store_into(qp: &QuantPlan, bytes: *mut u8, v: ValId, src: &[f32]) {
    match dst_view(qp, bytes, v) {
        DstView::F32(d) => d.copy_from_slice(src),
        DstView::F16(d) => {
            for (h, &x) in d.iter_mut().zip(src) {
                *h = f32_to_f16_bits(x);
            }
        }
        DstView::I8 { q, inv } => {
            for (qq, &x) in q.iter_mut().zip(src) {
                *qq = quantize_one(x, inv);
            }
        }
    }
}

fn exec_quant_step(qp: &QuantPlan, input: &[f32], bytes: *mut u8, step: &Step, q: &StepPlan) {
    match q {
        StepPlan::ConvI8 {
            qw,
            wscale,
            x_scale,
        } => {
            let IrOp::Conv2d {
                x,
                bias,
                affine,
                relu,
                shape,
                ..
            } = &step.op
            else {
                unreachable!("ConvI8 compiles only from Conv2d");
            };
            let (b, oc) = (shape.b, shape.oc);
            let (oh, ow) = shape.out_hw();
            let k = shape.c * shape.kh * shape.kw;
            let ncols = b * oh * ow;
            let ohow = oh * ow;
            let mut cur = Cursor::new(bytes, qp.scratch);
            // SAFETY: carves are disjoint by the bump cursor; arena views
            // are disjoint from the scratch region and from the dst span
            // by the liveness invariant.
            unsafe {
                let qx: &[i8] = if matches!(qp.store[*x], Store::I8 { .. }) {
                    i8_view(qp, bytes, *x)
                } else {
                    let buf: &mut [i8] = take(&mut cur, qp.base.values[*x].numel);
                    quantize_value_into(qp, input, bytes, *x, 1.0 / x_scale, buf);
                    buf
                };
                // The f32 gather over i8 data: symmetric quantization keeps
                // the zero padding exact (q=0 dequantizes to 0.0).
                let cols: &mut [i8] = take(&mut cur, k * ncols);
                let s = shape;
                lowlevel::im2col_into(qx, b, s.c, s.h, s.w, s.kh, s.kw, s.stride, s.pad, cols);
                let ymat: &mut [i32] = take(&mut cur, oc * ncols);
                simd::i8_gemm(qw, cols, ymat, oc, k, ncols);
                let bias_s =
                    bias.map(|bv| direct_f32(qp, input, bytes, bv).expect("conv bias is a weight"));
                let mut dv = dst_view(qp, bytes, step.out);
                for ocx in 0..oc {
                    // Exact dequant factor for this output channel; the
                    // epilogue then replays the f32 epilogue's
                    // bias→affine→relu sequence per element.
                    let sc_q = x_scale * wscale[ocx];
                    let bias_v = bias_s.map(|bv| bv[ocx]);
                    let aff = affine.as_ref().map(|(sc, sh)| (sc[ocx], sh[ocx]));
                    for bi in 0..b {
                        let src_base = (ocx * b + bi) * ohow;
                        let dst_base = (bi * oc + ocx) * ohow;
                        for p in 0..ohow {
                            let mut v = ymat[src_base + p] as f32 * sc_q;
                            if let Some(bw) = bias_v {
                                v += bw;
                            }
                            if let Some((a, s)) = aff {
                                v = a * v + s;
                            }
                            if *relu {
                                v = v.max(0.0);
                            }
                            put(&mut dv, dst_base + p, v);
                        }
                    }
                }
            }
        }
        StepPlan::MatmulI8 {
            qb,
            bscale,
            a_scale,
        } => {
            let IrOp::Matmul { a, m, k, n, .. } = &step.op else {
                unreachable!("MatmulI8 compiles only from Matmul");
            };
            let (m, k, n) = (*m, *k, *n);
            let mut cur = Cursor::new(bytes, qp.scratch);
            // SAFETY: as in ConvI8.
            unsafe {
                let qa: &[i8] = if matches!(qp.store[*a], Store::I8 { .. }) {
                    i8_view(qp, bytes, *a)
                } else {
                    let buf: &mut [i8] = take(&mut cur, m * k);
                    quantize_value_into(qp, input, bytes, *a, 1.0 / a_scale, buf);
                    buf
                };
                let acc: &mut [i32] = take(&mut cur, m * n);
                simd::i8_gemm(qa, qb, acc, m, k, n);
                let mut dv = dst_view(qp, bytes, step.out);
                for i in 0..m {
                    for j in 0..n {
                        put(
                            &mut dv,
                            i * n + j,
                            acc[i * n + j] as f32 * (a_scale * bscale[j]),
                        );
                    }
                }
            }
        }
        StepPlan::Generic => {
            let mut cur = Cursor::new(bytes, qp.scratch);
            let mut operands: Vec<ValId> = Vec::new();
            for_each_operand(&step.op, &mut |v| {
                if !operands.contains(&v) {
                    operands.push(v);
                }
            });
            // SAFETY: dequant buffers are disjoint cursor carves; direct
            // views never overlap the dst span (liveness invariant).
            unsafe {
                let mut resolved: Vec<(ValId, *const f32, usize)> =
                    Vec::with_capacity(operands.len());
                for &v in &operands {
                    let view: &[f32] = match direct_f32(qp, input, bytes, v) {
                        Some(s) => s,
                        None => {
                            let buf: &mut [f32] = take(&mut cur, qp.base.values[v].numel);
                            dequant_into(qp, bytes, v, buf);
                            buf
                        }
                    };
                    resolved.push((v, view.as_ptr(), view.len()));
                }
                let out = step.out;
                let out_numel = qp.base.values[out].numel;
                let direct_out = matches!(qp.store[out], Store::F32);
                let dst: &mut [f32] = if direct_out {
                    let sp = qp.spans[out].expect("step outputs are arena-resident");
                    std::slice::from_raw_parts_mut(bytes.add(sp.off) as *mut f32, out_numel)
                } else {
                    take(&mut cur, out_numel)
                };
                let scratch = match &step.op {
                    IrOp::Conv2d { cols, ymat, .. } => OpScratch {
                        cols: Some(take(&mut cur, cols.len)),
                        ymat: Some(take(&mut cur, ymat.len)),
                        att: None,
                    },
                    IrOp::AttentionTm { scratch, .. } | IrOp::AttentionFm { scratch, .. } => {
                        OpScratch {
                            att: Some(take(&mut cur, scratch.len)),
                            ..OpScratch::default()
                        }
                    }
                    _ => OpScratch::default(),
                };
                let s = |v: ValId| -> &[f32] {
                    let &(_, p, len) = resolved
                        .iter()
                        .find(|e| e.0 == v)
                        .expect("operand resolved before exec");
                    std::slice::from_raw_parts(p, len)
                };
                exec_op(&step.op, &s, dst, scratch);
                if !direct_out {
                    store_into(qp, bytes, out, dst);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanOptions;
    use mfaplace_autograd::Graph;
    use mfaplace_tensor::Tensor;

    /// conv(3→4, relu) → sigmoid → conv(4→2): exercises an i8-stored
    /// value (conv1 out), an f16-stored value (sigmoid out, consumed by
    /// an int8 conv) and the f32 output store.
    fn conv_net(b: usize) -> (Arc<Plan>, Vec<f32>) {
        let mut g = Graph::new();
        g.set_grad_enabled(false);
        let w1 = g.param(Tensor::from_fn(vec![4, 3, 3, 3], |i| {
            (((i * 37 + 11) % 41) as f32 / 20.5 - 1.0) * 0.35
        }));
        let b1 = g.param(Tensor::from_fn(vec![4], |i| 0.05 * i as f32 - 0.1));
        let w2 = g.param(Tensor::from_fn(vec![2, 4, 1, 1], |i| {
            (((i * 53 + 5) % 29) as f32 / 14.5 - 1.0) * 0.5
        }));
        let mark = g.mark();
        let x = g.constant(Tensor::zeros(vec![b, 3, 8, 8]));
        let y = g.conv2d(x, w1, 1, 1);
        let y = g.add_bias_channel(y, b1);
        let y = g.relu(y);
        let y = g.sigmoid(y);
        let y = g.conv2d(y, w2, 1, 0);
        let plan = Plan::capture(&g, mark, x, y, PlanOptions::default()).unwrap();
        let input: Vec<f32> = (0..b * 3 * 8 * 8)
            .map(|i| (((i * 131 + 7) % 257) as f32 / 128.0 - 1.0) * 0.9)
            .collect();
        (Arc::new(plan), input)
    }

    fn max_abs(xs: &[f32]) -> f32 {
        xs.iter().fold(0.0f32, |a, &v| a.max(v.abs()))
    }

    #[test]
    fn int8_plan_tracks_f32_plan() {
        let (plan, input) = conv_net(2);
        let calib = Calibration::collect(&plan, [input.as_slice()]).unwrap();
        let qp = QuantPlan::build(plan.clone(), &calib).unwrap();
        assert!(qp.quant_stats().i8_steps >= 2, "{}", qp.summary());
        assert!(qp.quant_stats().i8_values >= 1, "{}", qp.summary());
        assert!(qp.quant_stats().f16_values >= 1, "{}", qp.summary());

        let mut arena = Vec::new();
        let f32_out = crate::run_plan(&plan, &mut arena, &input).to_vec();
        let mut qx = QuantExecutor::new(qp);
        let q_out = qx.run_batch(&input).to_vec();
        assert_eq!(f32_out.len(), q_out.len());
        let tol = 0.05 * max_abs(&f32_out) + 1e-3;
        for (i, (a, b)) in f32_out.iter().zip(&q_out).enumerate() {
            assert!((a - b).abs() <= tol, "elem {i}: f32 {a} vs int8 {b}");
        }
        // Re-running over the same arena must be deterministic.
        let again = qx.run_batch(&input).to_vec();
        assert_eq!(q_out, again);
    }

    #[test]
    fn int8_arena_is_at_most_half_of_f32() {
        let (plan, input) = conv_net(4);
        let calib = Calibration::collect(&plan, [input.as_slice()]).unwrap();
        let qp = QuantPlan::build(plan, &calib).unwrap();
        let qs = qp.quant_stats();
        assert!(
            qs.arena_bytes * 2 <= qs.f32_arena_bytes,
            "quant arena {} B vs f32 {} B — {}",
            qs.arena_bytes,
            qs.f32_arena_bytes,
            qp.summary()
        );
    }

    #[test]
    fn calibration_serializes_bitwise() {
        let (plan, input) = conv_net(1);
        let c1 = Calibration::collect(&plan, [input.as_slice()]).unwrap();
        let c2 = Calibration::collect(&plan, [input.as_slice()]).unwrap();
        assert_eq!(c1.to_bytes(), c2.to_bytes());
        let rt = Calibration::from_bytes(&c1.to_bytes()).unwrap();
        assert_eq!(rt.to_bytes(), c1.to_bytes());
        assert_eq!(rt.steps(), plan.stats().ops);
    }

    #[test]
    fn calibration_in_the_level_major_step_order_is_refused() {
        let (plan, input) = conv_net(1);
        let mut old = Calibration::collect(&plan, [input.as_slice()])
            .unwrap()
            .to_bytes();
        old[..8].copy_from_slice(b"MFACAL01");
        let err = Calibration::from_bytes(&old).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
    }

    #[test]
    fn stale_calibration_is_rejected() {
        let (plan, input) = conv_net(1);
        let calib = Calibration::collect(&plan, [input.as_slice()]).unwrap();
        let stale = Calibration {
            input_absmax: calib.input_absmax,
            step_absmax: calib.step_absmax[..calib.steps() - 1].to_vec(),
            kinds: calib.kinds[..calib.steps() - 1].to_vec(),
        };
        let err = QuantPlan::build(plan, &stale).unwrap_err();
        assert!(err.contains("recalibrate"), "{err}");
    }
}
