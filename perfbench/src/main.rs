//! End-to-end benchmark of the YellowFin workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench summary <results-dir> [<results-dir>]
//! ```
//!
//! Workloads: `train-cifar10`, `fleet-ptb`, `serve-durable`,
//! `serve-volatile` (see README.md). A run prints human-readable lines,
//! then, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Each run also writes its result,
//! with the environment it ran in, under `.bench_out/results/`, and a
//! traced run writes its spans under `.bench_out/traces/`.
//!
//! The binary doubles as the fleet worker: the fleet coordinator spawns
//! it with `--transport tcp --connect <addr>`.

mod checks;
mod envinfo;
mod fleet;
mod serve;
mod stats;
mod summary;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload never calls
/// reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("data.batch_us", "us/step"),
    ("nn.load_params_us", "us/step"),
    ("autograd.forward_us", "us/step"),
    ("autograd.backward_us", "us/step"),
    ("nn.grad_collect_us", "us/step"),
    ("autograd.tape_nodes", "count/step"),
    ("tensor.fanouts_per_step", "count/step"),
    ("optim.observe_us", "us/step"),
    ("optim.apply_us", "us/step"),
    ("train.unaccounted_us", "us/step"),
    ("fleet.cell_compute_s", "s"),
    ("fleet.overhead_per_cell_ms", "ms"),
    ("fleet.journal_events", "count"),
    ("fleet.leases_per_cell", "count"),
    ("fleet.checkpoint_encode_us", "us"),
    ("fleet.checkpoint_bytes", "bytes"),
    ("wire.sealed_write_us", "us"),
    ("snapshot.encode_us", "us"),
    ("snapshot.bytes", "bytes"),
    ("session.measure_us", "us"),
    ("wire.encode_measure_us", "us"),
    ("wire.decode_measure_us", "us"),
    ("serve.rtt_us", "us"),
    ("serve.transport_us", "us"),
    ("serve_client.shadow_us", "us"),
    ("serve_client.apply_us", "us"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// The workloads. `BENCHMARK.json` lists all but `serve-durable`, whose
/// fsync-bound timings spread too widely between runs on a shared disk
/// to gate on (see README.md); it stays runnable by hand.
pub const WORKLOADS: [&str; 4] = [
    "train-cifar10",
    "fleet-ptb",
    "serve-durable",
    "serve-volatile",
];

/// Parsed command line of a measuring run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for this run (sweep directories, snapshots).
    pub work: PathBuf,
}

/// What a workload hands back: counts, failed checks, metrics, notes.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    e2e: Vec<(&'static str, f64)>,
    layers: Vec<(&'static str, f64)>,
    notes: Vec<(String, String)>,
}

impl Report {
    /// Records a check's verdict; a failed check makes the run incorrect.
    pub fn check<T>(&mut self, what: &str, verdict: Result<T, String>) {
        if let Err(e) = verdict {
            eprintln!("perfbench: check failed: {what}: {e}");
            self.errors.push(format!("{what}: {e}"));
        }
    }

    /// Records an operation that failed (it still counts as attempted).
    pub fn fail(&mut self, what: &str, error: impl std::fmt::Display) {
        eprintln!("perfbench: operation failed: {what}: {error}");
        self.failed += 1;
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.push((key.to_string(), value.into()));
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench summary <results-dir> [<results-dir>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String], root: &Path) -> Option<Args> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return None,
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()))?;
    let trace = trace?;
    let work = root
        .join(".bench_work")
        .join(format!("{workload}-{}", std::process::id()));
    Some(Args {
        seed: seed?,
        seconds: seconds?,
        trace,
        workload,
        work,
    })
}

/// Renders the closing JSON object, or says which metric is missing or
/// not finite.
fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let (catalog, measured): (&[(&str, &str)], _) = if trace {
        (&PER_LAYER, &report.layers)
    } else {
        (&END_TO_END, &report.e2e)
    };
    let mut metrics = Vec::new();
    for &(name, unit) in catalog {
        let value = match measured.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) => v,
            // A layer this workload never calls.
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.errors.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn json_str(s: &str) -> String {
    yf_wire::Json::str(s).to_string()
}

fn write_result(root: &Path, args: &Args, report: &Report, facts: &[(String, String)], line: &str) {
    let dir = root.join(".bench_out").join("results");
    let path = dir.join(format!(
        "{}-s{}-t{}-{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    let kv = |pairs: &[(String, String)]| {
        pairs
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let errors: Vec<String> = report.errors.iter().map(|e| json_str(e)).collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"facts\": {{{}}}, \"notes\": {{{}}}, \"errors\": [{}], \"result\": {line}}}\n",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        kv(facts),
        kv(&report.notes),
        errors.join(", ")
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

fn run(args: &Args, root: &Path) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: creating {}: {e}", args.work.display());
        return ExitCode::from(1);
    }
    let facts = envinfo::facts(root, &args.work);
    let mut report = Report::default();
    let mut tracer = trace::Tracer::default();
    match (args.workload.as_str(), args.trace) {
        ("train-cifar10", false) => train::run(args, &mut report),
        ("train-cifar10", true) => train::run_traced(args, &mut report, &mut tracer),
        ("fleet-ptb", false) => fleet::run(args, &mut report),
        ("fleet-ptb", true) => fleet::run_traced(args, &mut report, &mut tracer),
        (_, false) => serve::run(args, &mut report),
        (_, true) => serve::run_traced(args, &mut report, &mut tracer),
    }
    report.e2e("peak_rss_mb", envinfo::peak_rss_mb());
    let _ = std::fs::remove_dir_all(&args.work);
    let _ = std::fs::remove_dir(root.join(".bench_work"));

    for (k, v) in &facts {
        println!("{k}: {v}");
    }
    for (k, v) in &report.notes {
        println!("{k}: {v}");
    }
    let (catalog, measured) = if args.trace {
        (&PER_LAYER[..], &report.layers)
    } else {
        (&END_TO_END[..], &report.e2e)
    };
    for (name, value) in measured {
        let unit = catalog
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| *u);
        println!("{name}: {value} {unit}");
    }
    if args.trace {
        let dir = root.join(".bench_out").join("traces");
        let path = dir.join(format!("{}-s{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| tracer.write_chrome(&path)) {
            Ok(()) => println!("trace: {} ({} spans)", path.display(), tracer.span_count()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("attempted: {}, failed: {}", report.attempted, report.failed);
    match result_line(&report, args.trace) {
        Ok(line) => {
            write_result(root, args, &report, &facts, &line);
            println!("{line}");
            if report.errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--transport") {
        return fleet::worker_main(&args);
    }
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    if args.first().map(String::as_str) == Some("summary") {
        return summary::main(&args[1..], &root);
    }
    let Some(parsed) = parse_args(&args, &root) else {
        return usage();
    };
    let refused = envinfo::refused_variables();
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the benchmark sets every server, client, fleet and pool option itself",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }
    envinfo::pin_pool_width();
    run(&parsed, &root)
}
