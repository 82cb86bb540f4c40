//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-d2c|serve-read-d2c|serve-mixed-d1c> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload generates its input bundle
//! from the seed with `er-datagen` (never timed), hands the program only
//! that bundle, drives the layers through their public functions, checks
//! the outputs, and prints one JSON line last: `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` records spans around every layer call and reports the
//! per-layer metrics instead. The metric names and units are checked
//! against `BENCHMARK.json` before anything runs. Any wrong output makes
//! the run exit non-zero.

mod batch;
mod common;
mod heap;
mod loadgen;
mod reference;
mod schema;
mod serve;
mod stats;
mod trace;

use common::Report;
use mb_observe::json::Json;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::HighWater<mb_observe::alloc_track::TrackingAllocator<std::alloc::System>> =
    heap::HighWater::new(mb_observe::alloc_track::TrackingAllocator::new(std::alloc::System));

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1`. A traced run
/// drives the layers its own load leaves idle briefly on its own input, so
/// every figure is measured on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.bundle_load_ms", "ms"),
    ("blocking.token_ms", "ms"),
    ("blocking.purge_ms", "ms"),
    ("blocking.comparisons_out", "count"),
    ("blocking.allocs", "count"),
    ("core.filter_ms", "ms"),
    ("core.filter_comparisons_out", "count"),
    ("core.context_ms", "ms"),
    ("core.prune_ms", "ms"),
    ("core.retained", "count"),
    ("core.pq", "ratio"),
    ("core.pc", "ratio"),
    ("core.allocs", "count"),
    ("serve.snapshot.build_ms", "ms"),
    ("serve.snapshot.write_ms", "ms"),
    ("serve.snapshot.load_ms", "ms"),
    ("serve.snapshot.bytes", "bytes"),
    ("serve.server.start_ms", "ms"),
    ("serve.engine.execute_p50_us", "us"),
    ("serve.engine.execute_p99_us", "us"),
    ("serve.engine.probe_p50_us", "us"),
    ("serve.engine.candidates_mean", "count"),
    ("serve.protocol.request_encode_us", "us"),
    ("serve.protocol.request_decode_us", "us"),
    ("serve.protocol.response_encode_us", "us"),
    ("serve.protocol.response_decode_us", "us"),
    ("serve.protocol.response_bytes", "bytes"),
    ("serve.client.rtt_p50_us", "us"),
    ("serve.wire.outside_engine_share", "ratio"),
    ("serve.engine.build_us", "us"),
    ("serve.generation.published", "count"),
    ("serve.delta.apply_p50_us", "us"),
    ("serve.delta.apply_p99_us", "us"),
    ("serve.delta.merge_ms", "ms"),
    ("serve.compact_ms", "ms"),
    ("loadgen.write_p50_us", "us"),
    ("loadgen.write_p99_us", "us"),
    ("loadgen.write_lag_p99_ms", "ms"),
    ("trace.layer_sum_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Checks that `BENCHMARK.json` in the working directory declares exactly
/// the metrics this program emits, and the workload asked for.
fn check_declared(workload: &str) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json in the working directory: {e}"))?;
    let declared = schema::validate(&text).map_err(|e| e.join("; "))?;
    let matches = |decl: &[schema::Metric], table: &[(&str, &str)]| {
        decl.len() == table.len()
            && table.iter().all(|(n, u)| decl.iter().any(|m| m.name == *n && m.unit == *u))
    };
    if !matches(&declared.end_to_end, END_TO_END) || !matches(&declared.per_layer, PER_LAYER) {
        return Err("BENCHMARK.json metrics differ from the ones this benchmark emits".into());
    }
    if !declared.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload}; BENCHMARK.json declares {:?}",
            declared.workloads
        ));
    }
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    check_declared(&args.workload)?;
    let work = common::WorkDir::create(&args.workload, args.seed)?;
    match args.workload.as_str() {
        "batch-d2c" => batch::run(args, &work),
        "serve-read-d2c" => serve::read::run(args, &work),
        "serve-mixed-d1c" => serve::mixed::run(args, &work),
        other => Err(format!("no workload named {other}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for problem in &report.problems {
        eprintln!("perfbench: wrong output: {problem}");
    }
    println!("{}", Json::Obj(report.meta.clone()).render());
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Json::obj();
    for (name, unit) in table {
        let Some(value) = report.metric(name) else {
            eprintln!("perfbench: metric {name} was not measured");
            return ExitCode::from(1);
        };
        let mut m = Json::obj();
        m.push("value", Json::Num(value));
        m.push("unit", Json::Str((*unit).to_owned()));
        metrics.push(name, m);
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let mut out = Json::obj();
    out.push("correct", Json::Bool(correct));
    out.push("attempted", Json::Uint(report.attempted.max(1)));
    out.push("failed", Json::Uint(report.failed));
    out.push("metrics", metrics);
    println!("{}", out.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload batch-d2c --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("batch-d2c", 7, 10.0, true));
        assert!(parse_args(&argv("--workload x --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --bogus 3")).is_err());
    }

    #[test]
    fn metric_tables_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
