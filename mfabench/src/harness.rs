//! Pieces every workload shares: the in-process server, counter deltas,
//! repeated set-up, the closed-loop clients and the run report.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfaplace_core::loader::LoadOptions;
use mfaplace_jobs::{JobEngine, JobsConfig, JobsExtension};
use mfaplace_rt::timer;
use mfaplace_serve::{
    serve_fleet_with, Metrics, ModelFleet, ServeConfig, ServerHandle, SlotLimits, DEFAULT_SLOT,
};

use crate::client;
use crate::scrape::Scrape;
use crate::stats;
use crate::trace::Trace;

/// What one run was asked to do.
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Measured window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory inside the checkout for generated files.
    pub workdir: std::path::PathBuf,
}

impl RunConfig {
    /// Set-ups per run: several for an untraced run, whose `setup_s` is
    /// their median; one for a traced run, which reports no `setup_s`.
    pub fn setups(&self) -> Setups {
        if self.trace {
            Setups {
                min: 1,
                max: 1,
                min_total_s: 0.0,
            }
        } else {
            Setups {
                min: 3,
                max: 15,
                min_total_s: 1.5,
            }
        }
    }
}

/// How many times a run sets up: at least `min` times and until
/// `min_total_s` seconds were spent setting up, at most `max` times, so
/// a cheap set-up's median rests on more samples.
pub struct Setups {
    min: usize,
    max: usize,
    min_total_s: f64,
}

/// Everything a workload measured.
#[derive(Default)]
pub struct Report {
    /// Operations started in the measured window.
    pub attempted: u64,
    /// Operations that failed (non-200, refusal, transport error, a job
    /// that did not complete).
    pub failed: u64,
    /// Output mismatches; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Metric name → value, in the units the metric tables fix.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub trace: Trace,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a mismatch, keeping the first few for the log.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        } else if self.mismatches.len() == 8 {
            self.mismatches.push("…further mismatches omitted".into());
        }
    }

    /// Records the latency metrics of a sample in completion order
    /// (failures as infinities): the median and the workload's tail.
    pub fn latency(&mut self, in_order: &[f64], tail: Tail) {
        let n = in_order.len();
        if n == 0 {
            return;
        }
        let (p, windows) = (tail.percentile, tail.windows);
        let s = stats::sorted(in_order.to_vec());
        self.set("latency_p50_ms", stats::percentile(&s, 50.0));
        self.set(
            "latency_tail_ms",
            stats::windowed_percentile(in_order, p, windows),
        );
        let ladder: Vec<String> = [50.0, 90.0, 99.0, 99.9]
            .iter()
            .map(|&q| format!("p{q} {}", stats::percentile(&s, q)))
            .collect();
        let reportable =
            stats::highest_reportable(n).map_or_else(|| "none".to_owned(), |q| format!("p{q}"));
        let per_window = n / windows;
        self.notes.push(format!(
            "latency_tail_ms is the median over {windows} windows of p{p}: {n} samples, {per_window} a window, \
             {} beyond p{p} in each; over the whole run the highest percentile with {} beyond is {reportable}",
            stats::beyond(per_window, p),
            stats::MIN_BEYOND
        ));
        self.notes
            .push(format!("latency ladder (ms): {}", ladder.join(", ")));
    }
}

/// Runs `setup` as often as `setups` says, dropping all but the last
/// instance, and returns it with the median set-up time in seconds.
/// Tear-down (the drop) is not timed.
pub fn setup_repeated<S>(
    setups: Setups,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut kept = None;
    let mut times: Vec<f64> = Vec::new();
    while times.len() < setups.min
        || (times.len() < setups.max && times.iter().sum::<f64>() < setups.min_total_s)
    {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), stats::median(&times)))
}

/// Peak resident set (VmHWM) of this process in MiB, which the server and
/// the load generator share.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The server `mfaplace serve` runs: one fleet slot named `default` on
/// `checkpoint` plus the `/jobs` extension, with the shipped defaults.
pub struct Server {
    handle: Option<ServerHandle>,
    /// Bound loopback address.
    pub addr: SocketAddr,
}

impl Server {
    /// Loads `checkpoint` and starts serving on an ephemeral loopback port.
    pub fn start(checkpoint: &str) -> Result<Server, String> {
        let metrics = Arc::new(Metrics::new());
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        };
        let fleet = Arc::new(ModelFleet::new(metrics.clone(), cfg.batch));
        fleet.add_slot(
            DEFAULT_SLOT,
            checkpoint,
            LoadOptions::default(),
            SlotLimits::default(),
        )?;
        let engine = JobEngine::start(Arc::clone(&fleet), JobsConfig::default());
        engine.register_metrics(&metrics);
        let handle = serve_fleet_with(
            fleet,
            metrics,
            cfg,
            vec![Arc::new(JobsExtension::new(engine))],
        )
        .map_err(|e| format!("bind: {e}"))?;
        Ok(Server {
            addr: handle.addr(),
            handle: Some(handle),
        })
    }

    /// Scrapes `GET /metrics`.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let ex = client::exchange(self.addr, &client::build_request("GET", "/metrics", b""))?;
        if ex.status != 200 {
            return Err(format!("/metrics answered {}", ex.status));
        }
        Ok(Scrape::parse(&ex.text()))
    }
}

impl Drop for Server {
    /// Graceful shutdown: stop accepting, drain jobs and slots, join.
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.join();
        }
    }
}

/// A point-in-time copy of the program's `rt::timer` registry.
pub struct Timers(timer::Snapshot);

impl Timers {
    /// Snapshots the registry now.
    pub fn now() -> Timers {
        Timers(timer::snapshot())
    }

    /// `(total ms, calls)` recorded under `scope` since `self`.
    pub fn delta(&self, later: &Timers, scope: &str) -> (f64, u64) {
        let get = |s: &timer::Snapshot| {
            s.timers
                .get(scope)
                .map_or((0.0, 0), |t| (t.total.as_secs_f64() * 1e3, t.calls))
        };
        let (a, b) = (get(&self.0), get(&later.0));
        (b.0 - a.0, b.1 - a.1)
    }

    /// Counter increase under `name` since `self`.
    pub fn count(&self, later: &Timers, name: &str) -> u64 {
        let get = |s: &timer::Snapshot| s.counters.get(name).copied().unwrap_or(0);
        get(&later.0) - get(&self.0)
    }
}

/// The `infer.*` layer metrics every workload reads from the program's
/// own `rt::timer` scopes, per plan forward and per operation.
pub fn infer_layers(report: &mut Report, before: &Timers, after: &Timers, ops: usize) {
    let (plan_ms, plan_calls) = before.delta(after, "core/forward_plan");
    let (level_ms, _) = before.delta(after, "core/forward_plan_level");
    let forwards = before.count(after, "infer/plan_forwards");
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    report.set("infer.forward_ms", per(plan_ms, ops as u64));
    report.set("infer.forward_plan_ms", per(plan_ms, plan_calls));
    report.set("infer.plan_level_ms", per(level_ms, forwards));
    report.set("infer.plan_forwards", forwards as f64);
    report.set(
        "infer.plan_fallbacks",
        before.count(after, "infer/plan_fallback") as f64,
    );
}

/// Serve-side layer metrics shared by the server workloads: batching,
/// forward time, plan cache, arena and refusals, from `/metrics` and
/// `rt::timer` deltas.
pub fn serve_layers(
    report: &mut Report,
    (scrape0, scrape1): (&Scrape, &Scrape),
    (timers0, timers1): (&Timers, &Timers),
) {
    let batches = scrape0.delta(scrape1, "mfaplace_batch_size_count", &[]);
    let items = scrape0.delta(scrape1, "mfaplace_batch_size_sum", &[]);
    report.set("serve.batches", batches);
    report.set(
        "serve.batch_size_mean",
        if batches > 0.0 { items / batches } else { 0.0 },
    );
    let slot = ["slot=\"default\""];
    let slot_batches = scrape0.delta(scrape1, "mfaplace_slot_batches_total", &slot);
    let slot_items = scrape0.delta(scrape1, "mfaplace_slot_batched_items_total", &slot);
    report.set(
        "serve.slot_batch_mean",
        if slot_batches > 0.0 {
            slot_items / slot_batches
        } else {
            0.0
        },
    );
    let (fwd_ms, fwd_calls) = timers0.delta(timers1, "serve/forward");
    report.set(
        "serve.forward_ms",
        if fwd_calls == 0 {
            0.0
        } else {
            fwd_ms / fwd_calls as f64
        },
    );
    let hits = scrape0.delta(scrape1, "mfaplace_plan_cache_hits_total", &[]);
    let misses = scrape0.delta(scrape1, "mfaplace_plan_cache_misses_total", &[]);
    report.set(
        "infer.plan_cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    report.set(
        "infer.arena_bytes",
        scrape1.get("mfaplace_infer_plan_arena_bytes"),
    );
    report.set(
        "serve.rejected",
        [
            "mfaplace_queue_rejections_total",
            "mfaplace_deadline_misses_total",
            "mfaplace_jobs_rejected_total",
        ]
        .iter()
        .map(|m| scrape0.delta(scrape1, m, &[]))
        .sum(),
    );
}

/// The input and tracing of operation `k` over `n` inputs. A traced run
/// alternates plain and traced operations on each input in turn, so both
/// halves see the same inputs and their difference is the tracing
/// overhead.
pub fn pick(k: u64, n: usize, traced_run: bool) -> (usize, bool) {
    if traced_run {
        ((k / 2) as usize % n, k % 2 == 1)
    } else {
        (k as usize % n, false)
    }
}

/// One closed-loop operation's outcome.
pub struct Op {
    /// Latency in ms; `None` when the operation failed.
    pub latency_ms: Option<f64>,
    /// Whether it ran traced (alternate operations do in a traced run).
    pub traced: bool,
    /// When it finished.
    pub done: Instant,
}

/// How a workload reports its latency tail.
#[derive(Clone, Copy)]
pub struct Tail {
    /// The percentile reported as `latency_tail_ms`.
    pub percentile: f64,
    /// Consecutive windows the run is split into (see
    /// [`stats::windowed_percentile`]); each must hold enough samples to
    /// leave ten beyond the percentile.
    pub windows: usize,
}

impl Tail {
    /// Operations a run needs before it may stop.
    pub fn min_ops(self) -> usize {
        self.windows * stats::min_samples(self.percentile)
    }
}

/// Drives `clients` closed-loop clients: each runs `op(k)` back to back,
/// `k` counting operations across clients, until `seconds` have passed
/// and at least `min_ops` operations finished (capped at three times the
/// window). Returns the outcomes in completion order and the wall time
/// of the whole loop.
pub fn closed_loop<T: Send>(
    clients: usize,
    seconds: f64,
    min_ops: usize,
    op: impl Fn(u64, &mut T) -> Op + Sync,
    mut state: Vec<T>,
) -> (Vec<Op>, Vec<T>, f64) {
    assert_eq!(state.len(), clients, "one state per client");
    let next = AtomicU64::new(0);
    let finished = AtomicU64::new(0);
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let keep_going = || {
        let elapsed = start.elapsed();
        elapsed < window
            || (finished.load(Ordering::Relaxed) < min_ops as u64 && elapsed < window * 3)
    };
    let ops: Vec<Vec<Op>> = std::thread::scope(|s| {
        let handles: Vec<_> = state
            .iter_mut()
            .map(|st| {
                let (op, next, finished, keep_going) = (&op, &next, &finished, &keep_going);
                s.spawn(move || {
                    let mut out = Vec::new();
                    while keep_going() {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        out.push(op(k, st));
                        finished.fetch_add(1, Ordering::Relaxed);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut ops: Vec<Op> = ops.into_iter().flatten().collect();
    ops.sort_by_key(|o| o.done);
    (ops, state, wall)
}

/// Records attempted/failed counts, end-to-end latency and throughput
/// (untraced run) or `trace.overhead_pct` (traced run) from `ops`.
pub fn summarize_ops(report: &mut Report, ops: &[Op], wall_s: f64, tail: Tail, traced_run: bool) {
    report.attempted = ops.len() as u64;
    report.failed = ops.iter().filter(|o| o.latency_ms.is_none()).count() as u64;
    let sample = |traced: bool| -> Vec<f64> {
        ops.iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.latency_ms.unwrap_or(f64::INFINITY))
            .collect()
    };
    if traced_run {
        let (plain, traced) = (sample(false), sample(true));
        if !plain.is_empty() && !traced.is_empty() {
            let p50 = |v: Vec<f64>| stats::percentile(&stats::sorted(v), 50.0);
            let (plain, traced) = (p50(plain), p50(traced));
            report.set("trace.overhead_pct", 100.0 * (traced / plain - 1.0));
        }
    } else {
        report.latency(&sample(false), tail);
        let completed = ops.iter().filter(|o| o.latency_ms.is_some()).count();
        report.set("throughput_per_s", completed as f64 / wall_s);
    }
}
