//! The `predict_lone` and `predict_pair` workloads: closed-loop clients
//! sending pre-featurized `POST /predict` requests, each response checked
//! bitwise against an in-process reference forward.

use std::sync::Mutex;
use std::time::Instant;

use mfaplace_core::loader::{load_predictor, LoadOptions};
use mfaplace_serve::protocol::{encode_features, encode_levels};

use crate::client::{self, ms};
use crate::harness::{self, Op, Report, RunConfig, Server, Tail, Timers};
use crate::inputs::Inputs;
use crate::trace::Trace;

/// Shape of one `/predict` workload.
pub struct Shape {
    /// Closed-loop clients (and connections in flight).
    pub clients: usize,
    /// Feature-stack and checkpoint grid.
    pub grid: usize,
    /// The reported tail: the median over five windows of p90. p99 tracks
    /// host scheduling noise (on a 2-vCPU VM it spread 29% between runs
    /// while p50 spread 4%), and so does a whole-run p90 (19%) when a run
    /// catches a burst; a 25% bound holds neither. Every run still prints
    /// the whole-run p99 and p99.9.
    pub tail: Tail,
}

/// One client sending `[6,16,16]` stacks to a grid-16 checkpoint.
pub const LONE: Shape = Shape {
    clients: 1,
    grid: 16,
    tail: TAIL,
};

/// Two clients sending `[6,64,64]` stacks to a grid-64 checkpoint.
pub const PAIR: Shape = Shape {
    clients: 2,
    grid: 64,
    tail: TAIL,
};

const TAIL: Tail = Tail {
    percentile: 90.0,
    windows: 5,
};

/// Distinct feature stacks per run, sent round-robin.
const STACKS: usize = 8;

struct Setup {
    server: Server,
    requests: Vec<Vec<u8>>,
    inputs: Inputs,
}

fn setup(cfg: &RunConfig, shape: &Shape) -> Result<Setup, String> {
    let inputs = Inputs::features(cfg.seed, shape.grid, STACKS, &cfg.workdir)?;
    let requests = inputs
        .features
        .iter()
        .map(|x| client::build_request("POST", "/predict", &encode_features(x)))
        .collect::<Vec<_>>();
    let server = Server::start(&inputs.checkpoint)?;
    // Warm: the first request compiles the slot's plan.
    let first = client::exchange(server.addr, &requests[0])?;
    if first.status != 200 {
        return Err(format!(
            "first /predict answered {}: {}",
            first.status,
            first.text()
        ));
    }
    Ok(Setup {
        server,
        requests,
        inputs,
    })
}

/// The expected response body of every input: a single-item
/// `predict_batch_tensors` forward in process, which batched serving must
/// reproduce bit for bit.
fn references(setup: &Setup) -> Result<Vec<Vec<u8>>, String> {
    let (_, mut predictor) = load_predictor(&setup.inputs.checkpoint, LoadOptions::default())?;
    Ok(setup
        .inputs
        .features
        .iter()
        .map(|x| {
            let levels = predictor.predict_batch_tensors(std::slice::from_ref(x));
            encode_levels(&levels[0])
        })
        .collect())
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, shape: &Shape) -> Result<Report, String> {
    let (setup, setup_s) = harness::setup_repeated(cfg.setups(), || setup(cfg, shape))?;
    let expected = references(&setup)?;
    let mut report = Report::default();
    let mismatches = Mutex::new(Vec::new());
    let scrape0 = setup.server.scrape()?;
    let timers0 = Timers::now();
    let (ops, states, wall) = harness::closed_loop(
        shape.clients,
        cfg.seconds,
        shape.tail.min_ops(),
        |k, trace: &mut Trace| {
            let (input, traced) = harness::pick(k, expected.len(), cfg.trace);
            let ex = match client::exchange(setup.server.addr, &setup.requests[input]) {
                Ok(ex) if ex.status == 200 => ex,
                _ => {
                    return Op {
                        latency_ms: None,
                        traced,
                        done: Instant::now(),
                    }
                }
            };
            if ex.body != expected[input] {
                let mut log = mismatches.lock().expect("mismatch log");
                if log.len() < 16 {
                    log.push(format!(
                        "request {k}: response to input {input} differs from the reference"
                    ));
                }
            }
            if traced {
                trace.push(k, "request", None, ex.start, ex.done);
                trace.push(k, "serve.connect", Some("request"), ex.start, ex.connected);
                trace.push(k, "serve.send", Some("request"), ex.connected, ex.sent);
                trace.push(k, "serve.wait", Some("request"), ex.sent, ex.first_byte);
                trace.push(k, "serve.recv", Some("request"), ex.first_byte, ex.done);
            }
            Op {
                latency_ms: Some(ms(ex.start, ex.done)),
                traced,
                done: ex.done,
            }
        },
        (0..shape.clients).map(|_| Trace::default()).collect(),
    );
    let timers1 = Timers::now();
    let scrape1 = setup.server.scrape()?;

    for m in mismatches.into_inner().expect("mismatch log") {
        report.mismatch(m);
    }
    harness::summarize_ops(&mut report, &ops, wall, shape.tail, cfg.trace);
    if cfg.trace {
        for trace in states {
            report.trace.absorb(trace);
        }
        for (name, span) in [
            ("serve.connect_ms", "serve.connect"),
            ("serve.send_ms", "serve.send"),
            ("serve.wait_ms", "serve.wait"),
            ("serve.recv_ms", "serve.recv"),
        ] {
            report.set(name, report.trace.mean_ms(span));
        }
        report.set("trace.unattributed_pct", report.trace.unattributed_pct());
        harness::infer_layers(&mut report, &timers0, &timers1, ops.len());
        harness::serve_layers(&mut report, (&scrape0, &scrape1), (&timers0, &timers1));
        let server_p50 = 1e3 * scrape1.get("mfaplace_request_latency_seconds{quantile=\"0.5\"}");
        report.set("serve.server_p50_ms", server_p50);
        let forward = report
            .values
            .get("serve.forward_ms")
            .copied()
            .unwrap_or(0.0);
        report.set("serve.nonforward_ms", server_p50 - forward);
    } else {
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", harness::peak_rss_mb());
    }
    Ok(report)
}
