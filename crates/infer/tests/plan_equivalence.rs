//! Plan-vs-tape equivalence across the whole model zoo.
//!
//! The contract under test: with default options a compiled plan's output
//! is **bitwise identical** to the dynamic tape forward for every zoo
//! architecture, batch size and grid size; with `fold_bn` it agrees to
//! ≤1e-6. Also asserts the zero-allocation contract (stable arena, no
//! regrowth across forwards), the fusion/stats counters, and the
//! copy-elision aliasing rules: eliding a reshape never changes outputs,
//! even when the elided source is read again *after* the alias is created.

use std::collections::HashMap;

use mfaplace_autograd::Graph;
use mfaplace_infer::{run_plan, Plan, PlanExecutor, PlanOptions};
use mfaplace_models::{AnyModel, Arch, ArchSpec, CongestionModel};
use mfaplace_rt::pool;
use mfaplace_rt::rng::{SeedableRng, StdRng};
use mfaplace_tensor::Tensor;

const ARCHS: [Arch; 4] = [Arch::Ours, Arch::UNet, Arch::Pgnn, Arch::Pros2];

/// Small-but-complete spec: every structural feature on (MFA, ViT) at a
/// test-friendly width.
fn spec_for(arch: Arch, grid: usize) -> ArchSpec {
    let mut spec = ArchSpec::new(arch, grid);
    spec.base_channels = 2;
    spec.vit_layers = 1;
    spec.vit_heads = 2;
    spec.use_mfa = true;
    spec.mfa_reduction = 4;
    spec
}

/// Deterministic pseudo-random `[b, 6, grid, grid]` input.
fn input_for(b: usize, grid: usize) -> Tensor {
    let n = b * 6 * grid * grid;
    let data: Vec<f32> = (0..n)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2_654_435_761);
            (h >> 8) as f32 / (1 << 24) as f32 * 2.0 - 1.0
        })
        .collect();
    Tensor::from_vec(vec![b, 6, grid, grid], data).expect("input tensor")
}

struct Recorded {
    tape_out: Vec<f32>,
    plan: Plan,
}

/// Records one eval-mode forward on the tape and compiles it.
fn record(
    g: &mut Graph,
    model: &mut AnyModel,
    x: &Tensor,
    opts: PlanOptions,
    cache: &mut HashMap<usize, std::sync::Arc<Tensor>>,
) -> Recorded {
    let mark = g.mark();
    let xv = g.constant(x.clone());
    let y = model.forward(g, xv, false);
    let tape_out = g.value(y).data().to_vec();
    let plan = Plan::capture_cached(g, mark, xv, y, opts, cache).expect("plan capture");
    g.truncate(mark);
    Recorded { tape_out, plan }
}

fn build(arch: Arch, grid: usize) -> (Graph, AnyModel) {
    build_spec(&spec_for(arch, grid))
}

fn build_spec(spec: &ArchSpec) -> (Graph, AnyModel) {
    let mut g = Graph::new();
    let mut rng = StdRng::seed_from_u64(7);
    let model = spec.build(&mut g, &mut rng).expect("build model");
    g.set_grad_enabled(false);
    (g, model)
}

fn assert_bitwise(arch: Arch, b: usize, grid: usize, tape: &[f32], plan: &[f32]) {
    assert_eq!(tape.len(), plan.len(), "{arch:?} b={b} grid={grid}: length");
    for (i, (t, p)) in tape.iter().zip(plan).enumerate() {
        assert_eq!(
            t.to_bits(),
            p.to_bits(),
            "{arch:?} b={b} grid={grid}: output[{i}] tape={t} plan={p}"
        );
    }
}

#[test]
fn plan_matches_tape_bitwise_across_zoo_batches_and_grids() {
    for arch in ARCHS {
        for grid in [16, 32] {
            let (mut g, mut model) = build(arch, grid);
            let mut cache = HashMap::new();
            for b in [1, 3, 8] {
                let x = input_for(b, grid);
                let rec = record(&mut g, &mut model, &x, PlanOptions::default(), &mut cache);
                let mut exec = PlanExecutor::new(rec.plan);
                let got = exec.run_batch(x.data());
                assert_bitwise(arch, b, grid, &rec.tape_out, got);
            }
            // The per-model weight snapshot cache deduplicates parameters
            // across the three per-batch-size plans.
            assert!(!cache.is_empty(), "{arch:?}: weight cache unused");
        }
    }
    // UNet with 8 base channels at grid 32, batch 8: its max-pool input and
    // last upsample output are exactly 65,536 elements each, the data-
    // movement fan-out threshold, so both take the parallel branch here.
    pool::with_threads(2, || {
        let mut spec = spec_for(Arch::UNet, 32);
        spec.base_channels = 8;
        let (mut g, mut model) = build_spec(&spec);
        let x = input_for(8, 32);
        let rec = record(
            &mut g,
            &mut model,
            &x,
            PlanOptions::default(),
            &mut HashMap::new(),
        );
        let got = PlanExecutor::new(rec.plan).run_batch(x.data()).to_vec();
        assert_bitwise(Arch::UNet, 8, 32, &rec.tape_out, &got);
    });
}

#[test]
fn repeated_runs_reuse_the_arena_and_stay_bitwise_stable() {
    let (mut g, mut model) = build(Arch::Ours, 16);
    let x = input_for(3, 16);
    let mut cache = HashMap::new();
    let rec = record(&mut g, &mut model, &x, PlanOptions::default(), &mut cache);
    let mut exec = PlanExecutor::new(rec.plan);
    let first = exec.run_batch(x.data()).to_vec();
    let ptr = exec.arena_ptr();
    for _ in 0..3 {
        let again = exec.run_batch(x.data());
        assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            again.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "outputs drifted across arena reuse"
        );
    }
    assert_eq!(ptr, exec.arena_ptr(), "arena was reallocated between runs");
    assert_eq!(exec.runs(), 4);
}

#[test]
fn fusion_collapses_conv_chains_and_reports_stats() {
    let (mut g, mut model) = build(Arch::Ours, 16);
    let x = input_for(2, 16);
    let mut cache = HashMap::new();
    let rec = record(&mut g, &mut model, &x, PlanOptions::default(), &mut cache);
    let s = rec.plan.stats();
    assert!(s.ops > 0);
    assert!(s.fused_conv_bias > 0, "no conv+bias fusions: {s:?}");
    assert!(s.fused_conv_affine > 0, "no conv+affine fusions: {s:?}");
    assert!(s.fused_conv_relu > 0, "no conv+relu fusions: {s:?}");
    assert!(s.folded_bn == 0, "fold_bn off by default: {s:?}");
    // The paper's architecture reshapes between its conv trunk and the
    // ViT; every such reshape elides into an alias.
    assert!(s.copies_elided > 0, "no reshapes elided: {s:?}");
    assert!(s.arena_bytes > 0 && s.weight_bytes > 0);
    assert_eq!(rec.plan.input_shape(), &[2, 6, 16, 16]);
    assert_eq!(rec.plan.output_shape(), &[2, 8, 16, 16]);
    let summary = rec.plan.summary();
    assert!(summary.contains("compiled plan"), "summary: {summary}");
    assert!(summary.contains("arena"), "summary: {summary}");
}

#[test]
fn fold_bn_rewrites_weights_and_stays_within_1e6() {
    for arch in ARCHS {
        let (mut g, mut model) = build(arch, 16);
        let x = input_for(2, 16);
        let mut cache = HashMap::new();
        let rec = record(
            &mut g,
            &mut model,
            &x,
            PlanOptions { fold_bn: true },
            &mut cache,
        );
        assert!(
            rec.plan.stats().folded_bn > 0,
            "{arch:?}: no BN epilogues folded: {:?}",
            rec.plan.stats()
        );
        let mut exec = PlanExecutor::new(rec.plan);
        let got = exec.run_batch(x.data());
        // ≤1e-6 in max-norm relative terms: pre-scaling the weights changes
        // conv accumulation rounding by a few ulps, and that error
        // propagates *additively* through later layers, so it is bounded
        // relative to the output scale rather than each element.
        let scale = rec.tape_out.iter().fold(1.0f32, |m, t| m.max(t.abs()));
        let max_err = rec
            .tape_out
            .iter()
            .zip(got)
            .map(|(t, p)| (t - p).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_err <= 1e-6 * scale,
            "{arch:?}: fold_bn deviates by {max_err} (> 1e-6 of output scale {scale})"
        );
    }
}

#[test]
fn capture_rejects_training_only_tapes() {
    let mut g = Graph::new();
    let w = g.param(Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap());
    let mark = g.mark();
    let x = g.constant(Tensor::from_vec(vec![2], vec![3.0, 4.0]).unwrap());
    let y = g.mul(w, x);
    let loss = g.mean(y);
    let err = Plan::capture(&g, mark, x, loss, PlanOptions::default()).unwrap_err();
    assert!(err.contains("training-only"), "unexpected error: {err}");
}

/// Regression: a reshape whose *source* is read again after the alias is
/// created. Eliding `b = reshape(a)` makes `b` an alias of `a`'s span; if
/// liveness were computed per-value instead of per-alias-class, `a`'s span
/// could be freed and recycled while `b` still needs it, or the later
/// `scale(a)` read could observe a clobbered span.
#[test]
fn copy_elision_is_safe_when_source_is_read_after_the_alias() {
    let mut g = Graph::new();
    g.set_grad_enabled(false);
    let mark = g.mark();
    let x = g.constant(input_for(1, 4)); // [1, 6, 4, 4], 96 elements
    let a = g.relu(x);
    let b = g.reshape(a, vec![1, 96]); // alias candidate for a's span
    let c = g.scale(a, 2.0); // reads a AFTER b aliased it
    let b2 = g.reshape(b, vec![1, 6, 4, 4]); // alias chain through b
    let y = g.add(b2, c);
    let tape_out = g.value(y).data().to_vec();

    let plan = Plan::capture(&g, mark, x, y, PlanOptions::default()).expect("capture");
    let s = plan.stats();
    assert!(s.copies_elided >= 2, "reshapes not elided: {s:?}");
    let mut arena = Vec::new();
    let got = run_plan(&plan, &mut arena, g.value(x).data());
    assert_bitwise(Arch::Ours, 1, 4, &tape_out, got);
}

/// A reshape that *is* the plan output and roots at the input must keep
/// its Copy: the executor hands out an arena slice, so the output has to
/// live in the arena even when the data is just the input reinterpreted.
#[test]
fn output_reshape_of_the_input_keeps_its_copy() {
    let mut g = Graph::new();
    g.set_grad_enabled(false);
    let mark = g.mark();
    let x = g.constant(input_for(1, 4));
    let y = g.reshape(x, vec![96]);
    let tape_out = g.value(y).data().to_vec();

    let plan = Plan::capture(&g, mark, x, y, PlanOptions::default()).expect("capture");
    assert_eq!(plan.stats().copies_elided, 0, "{:?}", plan.stats());
    let mut arena = Vec::new();
    let got = run_plan(&plan, &mut arena, g.value(x).data());
    assert_bitwise(Arch::Ours, 1, 4, &tape_out, got);
}
