//! The `place` workload: the paper's Fig. 6 flow in process, one flow at
//! a time, with a compiled-plan `ModelPredictor` driving inflation.

use std::time::Instant;

use mfaplace_core::flow::{
    calibrated_router_for, FlowConfig, FlowOutcome, FlowProgress, MacroPlacementFlow,
};
use mfaplace_core::loader::{load_predictor, LoadOptions};
use mfaplace_core::predictor::ModelPredictor;
use mfaplace_fpga::design::Design;
use mfaplace_fpga::gridmap::GridMap;
use mfaplace_fpga::io::write_placement;
use mfaplace_fpga::placement::Placement;
use mfaplace_jobs::engine::progress_line;
use mfaplace_models::AnyModel;
use mfaplace_placer::flows::{CongestionPredictor, FlowConfig as PlacerFlowConfig, FlowEvent};

use crate::harness::{self, Op, Report, RunConfig, Tail, Timers};
use crate::inputs::{Fnv, Inputs, MEDIUM};
use crate::stats;
use crate::trace::Trace;

/// Designs per preset (Design_180 and Design_120 each), at `MEDIUM`
/// scale: `large` designs spread 28% between runs of the same code on a
/// 2-vCPU VM, beyond the 25% bound. Flow time varies by design, so the
/// run's median rests on twelve designs.
const VARIANTS: usize = 6;
/// Grid of the checkpoint, the placer's congestion map and the router.
const GRID: usize = 64;
/// A run places about twenty flows, too few for a tail beyond the
/// median: p50 needs 20 flows to leave 10 beyond it.
const TAIL: Tail = Tail {
    percentile: 50.0,
    windows: 1,
};
/// Router capacity calibration target, as in the Table II harness.
const TARGET_UTIL: f32 = 0.95;

struct Setup {
    cases: Vec<(Design, u64, MacroPlacementFlow)>,
    predictor: ModelPredictor<AnyModel>,
}

/// What must repeat exactly for one (design, seed): the score and the
/// legalized placement.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Outcome {
    s_score: f64,
    placement: u64,
}

impl Outcome {
    fn of(out: &FlowOutcome) -> Outcome {
        Outcome {
            s_score: out.score.s_score(),
            placement: Fnv::of(write_placement(&out.placement.placement).as_bytes()),
        }
    }
}

fn setup(cfg: &RunConfig) -> Result<Setup, String> {
    let inputs = Inputs::placement(cfg.seed, MEDIUM, VARIANTS, GRID, &cfg.workdir)?;
    let (spec, mut predictor) = load_predictor(&inputs.checkpoint, LoadOptions::default())?;
    let cases = inputs
        .cases
        .into_iter()
        .map(|case| {
            let router = calibrated_router_for(&case.design, spec.grid, TARGET_UTIL, 99);
            let mut placer = PlacerFlowConfig::model_driven();
            placer.grid_w = spec.grid;
            placer.grid_h = spec.grid;
            let flow = MacroPlacementFlow::new(FlowConfig { placer, router });
            (case.design, case.flow_seed, flow)
        })
        .collect::<Vec<_>>();
    // Warm: the first flow compiles the predictor's plan.
    let (design, seed, flow) = &cases[0];
    flow.run_with(design, &mut predictor, *seed);
    Ok(Setup { cases, predictor })
}

/// A predictor wrapper that stamps every call.
struct Timed<'a> {
    inner: &'a mut ModelPredictor<AnyModel>,
    calls: Vec<(Instant, Instant)>,
}

impl CongestionPredictor for Timed<'_> {
    fn predict(
        &mut self,
        design: &Design,
        placement: &Placement,
        grid_w: usize,
        grid_h: usize,
    ) -> GridMap {
        let start = Instant::now();
        let out = self.inner.predict(design, placement, grid_w, grid_h);
        self.calls.push((start, Instant::now()));
        out
    }
}

/// Runs one observed flow and turns its event times into spans:
/// `gp_stage1` from flow start to the last stage-1 iteration, `predict`
/// per predictor call, `inflate` from the call's end to the inflation
/// event, `gp_stage2` from there to the stage's last iteration,
/// `legalize` from the last iteration to legalization, and `route_score`
/// from legalization to scoring. Returns the outcome, the NDJSON event
/// stream, the GP iteration count and the flow's wall time in ms.
fn traced_flow(
    id: u64,
    setup: &mut Setup,
    case: usize,
    trace: &mut Trace,
) -> (FlowOutcome, String, usize, f64) {
    let (design, seed, flow) = &setup.cases[case];
    let mut timed = Timed {
        inner: &mut setup.predictor,
        calls: Vec::new(),
    };
    let mut events = String::new();
    let mut marks: Vec<(Instant, FlowProgress)> = Vec::new();
    let start = Instant::now();
    let out = flow
        .run_with_observer(design, &mut timed, *seed, &mut |p| {
            marks.push((Instant::now(), p.clone()));
            events.push_str(&progress_line(p));
            events.push('\n');
            true
        })
        .expect("an observer that never aborts");
    let end = Instant::now();

    let root = "flow";
    trace.push(id, root, None, start, end);
    let mut span = |name, a, b| trace.push(id, name, Some(root), a, b);
    let mut stage = ("placer.gp_stage1", start);
    let mut last_iter = start;
    let mut legalized = start;
    let mut iterations = 0;
    let mut calls = timed.calls.iter();
    let mut call_end = start;
    for (t, p) in &marks {
        match p {
            FlowProgress::Placement(FlowEvent::GpIteration { .. }) => {
                last_iter = *t;
                iterations += 1;
            }
            FlowProgress::Placement(FlowEvent::Predicted { .. }) => {
                span(stage.0, stage.1, last_iter);
                if let Some(&(a, b)) = calls.next() {
                    span("core.predict", a, b);
                    call_end = b;
                }
            }
            FlowProgress::Placement(FlowEvent::Inflated { .. }) => {
                span("placer.inflate", call_end, *t);
                stage = ("placer.gp_stage2", *t);
                last_iter = *t;
            }
            FlowProgress::Placement(FlowEvent::Legalized { .. }) => {
                span(stage.0, stage.1, last_iter);
                span("placer.legalize", last_iter, *t);
                legalized = *t;
            }
            FlowProgress::Scored { .. } => span("router.route_score", legalized, *t),
            _ => {}
        }
    }
    let wall_ms = end.duration_since(start).as_secs_f64() * 1e3;
    (out, events, iterations, wall_ms)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let (mut setup, setup_s) = harness::setup_repeated(cfg.setups(), || setup(cfg))?;
    let mut report = Report::default();
    let n = setup.cases.len();
    let mut reference: Vec<Option<Outcome>> = vec![None; n];
    let mut streams: Vec<Option<String>> = vec![None; n];
    let mut ops = Vec::new();
    let mut t_macro_ms = Vec::new();
    let mut iterations = 0usize;
    let mut traced_flows = 0usize;
    let cache0 = setup.predictor.plan_cache().stats();
    let timers0 = Timers::now();
    let start = Instant::now();
    let window = std::time::Duration::from_secs_f64(cfg.seconds);
    let min_ops = TAIL.min_ops() as u64;
    let mut k = 0u64;
    while start.elapsed() < window || (k < min_ops && start.elapsed() < window * 3) {
        let (case, traced) = harness::pick(k, n, cfg.trace);
        let (out, latency_ms) = if traced {
            let (out, events, iters, wall_ms) = traced_flow(k, &mut setup, case, &mut report.trace);
            iterations += iters;
            traced_flows += 1;
            match &streams[case] {
                None => streams[case] = Some(events),
                Some(first) if *first != events => report.mismatch(format!(
                    "event stream of case {case} differs between repeats"
                )),
                Some(_) => {}
            }
            (out, wall_ms)
        } else {
            let (design, seed, flow) = &setup.cases[case];
            let t = Instant::now();
            let out = flow.run_with(design, &mut setup.predictor, *seed);
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            t_macro_ms.push(out.placement.t_macro_min * 60e3);
            (out, wall_ms)
        };
        // Hashing the placement is the benchmark's work, outside the timed
        // flow.
        let outcome = Outcome::of(&out);
        match reference[case] {
            None => reference[case] = Some(outcome),
            Some(first) if first != outcome => report.mismatch(format!(
                "case {case}: {outcome:?} differs from the first flow's {first:?}"
            )),
            Some(_) => {}
        }
        ops.push(Op {
            latency_ms: Some(latency_ms),
            traced,
            done: Instant::now(),
        });
        k += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let timers1 = Timers::now();

    harness::summarize_ops(&mut report, &ops, wall, TAIL, cfg.trace);
    let scores: Vec<f64> = reference.iter().flatten().map(|o| o.s_score).collect();
    let s_score = stats::geomean(&scores);
    let t_macro = stats::median(&t_macro_ms);
    report.set("flow.s_score", s_score);
    report.set("flow.t_macro_p50_ms", t_macro);
    report.notes.push(format!(
        "t_macro_p50_ms {t_macro} ms; s_score {s_score} (geometric mean over {} (design, seed) pairs)",
        scores.len()
    ));
    if cfg.trace {
        let flows = traced_flows.max(1) as f64;
        let totals = report.trace.totals();
        let total = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
        let stage1 = total("placer.gp_stage1");
        let stage2 = total("placer.gp_stage2");
        report.set("placer.gp_stage1_ms", stage1 / flows);
        report.set("placer.gp_stage2_ms", stage2 / flows);
        report.set(
            "placer.gp_iter_ms",
            (stage1 + stage2) / iterations.max(1) as f64,
        );
        report.set("placer.gp_iterations", iterations as f64 / flows);
        report.set("placer.inflate_ms", total("placer.inflate") / flows);
        report.set("placer.legalize_ms", total("placer.legalize") / flows);
        report.set("router.route_score_ms", total("router.route_score") / flows);
        report.set("core.predict_ms", report.trace.mean_ms("core.predict"));
        report.set(
            "core.predict_calls",
            totals.get("core.predict").map_or(0.0, |t| t.1 as f64) / flows,
        );
        report.set("trace.unattributed_pct", report.trace.unattributed_pct());
        harness::infer_layers(&mut report, &timers0, &timers1, ops.len());
        let cache1 = setup.predictor.plan_cache().stats();
        let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
        if hits + misses > 0 {
            report.set(
                "infer.plan_cache_hit_ratio",
                hits as f64 / (hits + misses) as f64,
            );
        }
        if let Some(stats) = setup.predictor.active_plan_stats() {
            report.set("infer.arena_bytes", stats.arena_bytes as f64);
        }
    } else {
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", harness::peak_rss_mb());
    }
    Ok(report)
}
