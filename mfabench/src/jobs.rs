//! The `jobs` workload: two closed-loop clients, each submitting a
//! placement job with its design inline (`POST /jobs`) and streaming
//! `/jobs/<id>/events` until the terminal `done` line.

use std::sync::Mutex;
use std::time::Instant;

use mfaplace_fpga::io::write_design;

use crate::client::{self, ms};
use crate::harness::{self, Op, Report, RunConfig, Server, Tail, Timers};
use crate::inputs::{Fnv, Inputs, SMALL};
use crate::stats;
use crate::trace::Trace;

/// Closed-loop clients (and connections in flight).
const CLIENTS: usize = 2;
/// Designs per preset (Design_180 and Design_120 each).
const VARIANTS: usize = 4;
/// Grid of the served checkpoint, which jobs place and route on.
const GRID: usize = 32;
/// p90 over the run: its ~130 jobs leave 13 beyond it.
const TAIL: Tail = Tail {
    percentile: 90.0,
    windows: 1,
};
/// The terminal line of a job that completed.
const DONE: &str = "{\"event\":\"done\",\"state\":\"completed\"}";

struct Setup {
    server: Server,
    /// `POST /jobs` request per case.
    submits: Vec<Vec<u8>>,
}

/// What must repeat exactly for one (design, seed): the whole NDJSON
/// stream, and with it the score.
struct Reference {
    stream: u64,
    s_score: f64,
}

/// One job, submit to `done`, checked and timed.
struct JobRun {
    stream: String,
    submit: client::Exchange,
    events: client::Exchange,
}

fn run_job(server: &Server, submit: &[u8]) -> Result<JobRun, String> {
    let sub = client::exchange(server.addr, submit)?;
    if sub.status != 200 {
        return Err(format!(
            "POST /jobs answered {}: {}",
            sub.status,
            sub.text()
        ));
    }
    let text = sub.text();
    let id = text
        .lines()
        .find_map(|l| l.strip_prefix("id "))
        .ok_or_else(|| format!("no job id in {text:?}"))?;
    let path = format!("/jobs/{id}/events");
    let events = client::exchange(server.addr, &client::build_request("GET", &path, b""))?;
    if events.status != 200 {
        return Err(format!("GET {path} answered {}", events.status));
    }
    let stream = events.text();
    let last = stream.lines().last().unwrap_or_default();
    if last != DONE {
        return Err(format!("job {id} ended with {last:?}"));
    }
    Ok(JobRun {
        stream,
        submit: sub,
        events,
    })
}

/// The `s_score` of a job's `scored` event.
fn s_score(stream: &str) -> Option<f64> {
    let line = stream
        .lines()
        .find(|l| l.starts_with("{\"event\":\"scored\""))?;
    let at = line.find("\"s_score\":")? + "\"s_score\":".len();
    line[at..].trim_end_matches('}').parse().ok()
}

fn setup(cfg: &RunConfig) -> Result<Setup, String> {
    let inputs = Inputs::placement(cfg.seed, SMALL, VARIANTS, GRID, &cfg.workdir)?;
    let submits = inputs
        .cases
        .iter()
        .map(|case| {
            let body = format!(
                "seed={}\n---DESIGN---\n{}",
                case.flow_seed,
                write_design(&case.design)
            );
            client::build_request("POST", "/jobs", body.as_bytes())
        })
        .collect::<Vec<_>>();
    let server = Server::start(&inputs.checkpoint)?;
    // Warm: the first job compiles the slot's plan.
    run_job(&server, &submits[0])?;
    Ok(Setup { server, submits })
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let (setup, setup_s) = harness::setup_repeated(cfg.setups(), || setup(cfg))?;
    let n = setup.submits.len();
    let references: Vec<Mutex<Option<Reference>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let mut report = Report::default();
    let mismatches = Mutex::new(Vec::new());
    let failures = Mutex::new(Vec::new());
    let scrape0 = setup.server.scrape()?;
    let timers0 = Timers::now();
    let (ops, states, wall) = harness::closed_loop(
        CLIENTS,
        cfg.seconds,
        TAIL.min_ops(),
        |k, state: &mut (Trace, Vec<f64>)| {
            // A traced run alternates plain and traced jobs over the same
            // (design, seed), so the pair measures the tracing overhead.
            let (case, traced) = harness::pick(k, n, cfg.trace);
            let job = match run_job(&setup.server, &setup.submits[case]) {
                Ok(job) => job,
                Err(e) => {
                    failures.lock().expect("failure log").push(e);
                    return Op {
                        latency_ms: None,
                        traced,
                        done: Instant::now(),
                    };
                }
            };
            let (sub, ev) = (&job.submit, &job.events);
            let latency_ms = ms(sub.start, ev.done);
            let this = Reference {
                stream: Fnv::of(job.stream.as_bytes()),
                s_score: s_score(&job.stream).unwrap_or(f64::NAN),
            };
            {
                let mut r = references[case].lock().expect("reference lock");
                match &*r {
                    None => *r = Some(this),
                    Some(first) if first.stream != this.stream => mismatches
                        .lock()
                        .expect("mismatch log")
                        .push(format!("case {case}: event stream differs between repeats")),
                    Some(_) => {}
                }
            }
            if traced {
                let (trace, events) = state;
                trace.push(k, "job", None, sub.start, ev.done);
                trace.push(k, "jobs.submit", Some("job"), sub.start, sub.done);
                trace.push(k, "jobs.queue_wait", Some("job"), sub.done, ev.first_line);
                trace.push(k, "jobs.run", Some("job"), ev.first_line, ev.done);
                events.push(job.stream.lines().count() as f64);
            }
            Op {
                latency_ms: Some(latency_ms),
                traced,
                done: ev.done,
            }
        },
        (0..CLIENTS).map(|_| Default::default()).collect(),
    );
    let timers1 = Timers::now();
    let scrape1 = setup.server.scrape()?;

    for m in mismatches.into_inner().expect("mismatch log") {
        report.mismatch(m);
    }
    // Failed jobs are counted by `summarize_ops`; only wrong outputs make
    // the run incorrect.
    for e in failures
        .into_inner()
        .expect("failure log")
        .into_iter()
        .take(4)
    {
        report.notes.push(format!("failed job: {e}"));
    }
    harness::summarize_ops(&mut report, &ops, wall, TAIL, cfg.trace);
    let scores: Vec<f64> = references
        .iter()
        .filter_map(|r| {
            r.lock()
                .expect("reference lock")
                .as_ref()
                .map(|r| r.s_score)
        })
        .collect();
    if scores.iter().any(|s| !s.is_finite()) {
        report.mismatch("a completed job's stream has no s_score".into());
    }
    let s_score = stats::geomean(&scores);
    report.set("flow.s_score", s_score);
    report.notes.push(format!(
        "s_score {s_score} (geometric mean over {} (design, seed) pairs; default router)",
        scores.len()
    ));
    if cfg.trace {
        let mut events = Vec::new();
        for (trace, ev) in states {
            report.trace.absorb(trace);
            events.extend(ev);
        }
        report.set("jobs.submit_ms", report.trace.mean_ms("jobs.submit"));
        report.set(
            "jobs.queue_wait_ms",
            report.trace.mean_ms("jobs.queue_wait"),
        );
        report.set("jobs.run_ms", report.trace.mean_ms("jobs.run"));
        report.set("jobs.events_per_job", stats::mean(&events));
        report.set("trace.unattributed_pct", report.trace.unattributed_pct());
        harness::infer_layers(&mut report, &timers0, &timers1, ops.len());
        harness::serve_layers(&mut report, (&scrape0, &scrape1), (&timers0, &timers1));
    } else {
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", harness::peak_rss_mb());
    }
    Ok(report)
}
