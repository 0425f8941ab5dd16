//! `mfabench` — the end-to-end and per-layer benchmark of mfaplace.
//!
//! ```text
//! cargo run --release --manifest-path mfabench/Cargo.toml -- \
//!     --workload place|jobs|predict_lone|predict_pair --seed N --seconds S --trace 0|1
//! ```
//!
//! Everything runs in this process: the in-tree library, and for the
//! server workloads an in-process server on loopback with the shipped
//! defaults. The load comes from here, closed loop. The untraced run
//! (`--trace 0`) prints the end-to-end metrics; the traced run (`--trace
//! 1`) prints the per-layer metrics and writes its spans to
//! `.bench_out/`. The last stdout line is the JSON result. See NOTES.md
//! for why each workload exists and which end-to-end metric each layer
//! metric should move.

mod client;
mod harness;
mod inputs;
mod jobs;
mod place;
mod predict;
mod scrape;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Report, RunConfig};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["place", "jobs", "predict_lone", "predict_pair"];

/// End-to-end metrics (name, unit), reported by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (name, unit), reported by every traced run; a layer
/// a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("placer.gp_stage1_ms", "ms"),
    ("placer.gp_stage2_ms", "ms"),
    ("placer.gp_iter_ms", "ms"),
    ("placer.gp_iterations", "count"),
    ("placer.inflate_ms", "ms"),
    ("placer.legalize_ms", "ms"),
    ("router.route_score_ms", "ms"),
    ("core.predict_ms", "ms"),
    ("core.predict_calls", "count"),
    ("infer.forward_ms", "ms"),
    ("flow.t_macro_p50_ms", "ms"),
    ("flow.s_score", "score"),
    ("jobs.submit_ms", "ms"),
    ("jobs.queue_wait_ms", "ms"),
    ("jobs.run_ms", "ms"),
    ("jobs.events_per_job", "count"),
    ("serve.slot_batch_mean", "count"),
    ("serve.connect_ms", "ms"),
    ("serve.send_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.recv_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.forward_ms", "ms"),
    ("serve.nonforward_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.batches", "count"),
    ("serve.rejected", "count"),
    ("infer.forward_plan_ms", "ms"),
    ("infer.plan_level_ms", "ms"),
    ("infer.plan_forwards", "count"),
    ("infer.plan_fallbacks", "count"),
    ("infer.plan_cache_hit_ratio", "ratio"),
    ("infer.arena_bytes", "bytes"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The `MFAPLACE_*` knobs change the program under test (batching,
/// engine, threads, kernels, timers); a run with any of them set would
/// measure a different program without saying so.
fn refuse_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MFAPLACE_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the shipped defaults",
            set.join(", ")
        ))
    }
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host and build stamp printed with every result.
fn stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "stamp git_rev={} nproc={nproc} kernel_backend={} rustc=\"{}\"",
        // Only this checkout's own history: never a repository above it.
        if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "--short=12", "HEAD"])
        } else {
            "unknown".into()
        },
        mfaplace_tensor::simd::active().name(),
        command_line("rustc", &["-V"]),
    )
}

/// A JSON number: finite values as Rust prints them (shortest
/// round-trip form); a failure-dominated infinite percentile as the
/// largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

fn run(args: &Args, workdir: PathBuf) -> Result<Report, String> {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workdir,
    };
    match args.workload.as_str() {
        "place" => place::run(&cfg),
        "jobs" => jobs::run(&cfg),
        "predict_lone" => predict::run(&cfg, &predict::LONE),
        _ => predict::run(&cfg, &predict::PAIR),
    }
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| refuse_knobs().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mfabench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", stamp());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let workdir = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("mfabench: cannot create {}: {e}", workdir.display());
        return ExitCode::FAILURE;
    }
    let origin = Instant::now();
    let result = run(&args, workdir.clone());
    let _ = std::fs::remove_dir_all(&workdir);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mfabench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("run took {:.1} s", origin.elapsed().as_secs_f64());

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = report.mismatches.is_empty();
    let mut metrics = String::new();
    for (i, &(name, unit)) in table.iter().enumerate() {
        let value = match report.values.get(name) {
            Some(&v) => v,
            // A layer this workload does not exercise reads 0.
            None if args.trace => 0.0,
            None => {
                eprintln!("mfabench: no value for end-to-end metric {name}");
                correct = false;
                0.0
            }
        };
        println!("{name} {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for m in &report.mismatches {
        println!("MISMATCH: {m}");
    }
    if args.trace {
        let dir = PathBuf::from(".bench_out");
        let path = dir.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, report.trace.to_tsv(origin)))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("mfabench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted, report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn metric_tables_match_benchmark_json() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(SPEC.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(SPEC.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        let entries = SPEC.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn infinite_percentiles_stay_valid_json_numbers() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::INFINITY), "1.7976931348623157e308");
    }
}
