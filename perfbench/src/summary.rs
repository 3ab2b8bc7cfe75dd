//! `perfbench summary <dir> [<dir>]`: reads the result files of repeated
//! runs and prints, per workload and metric, the median and quartiles
//! and the interquartile spread as a share of the median. Given a second
//! directory, it also says whether the two sets agree: each end-to-end
//! median may be worse than the first set's by at most the metric's
//! `bound` in `BENCHMARK.json`, each spread must stay within the bound
//! (`setup_s` excepted), and the share of failed operations must match.

use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use yf_wire::Json;

/// A metric's contract from `BENCHMARK.json`.
struct Contract {
    lower_is_better: bool,
    bound: Option<f64>,
}

/// Runs of one `(workload, trace)` pair: metric samples plus counts.
#[derive(Default)]
struct Set {
    metrics: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    incorrect: usize,
    runs: usize,
}

fn num(j: Option<&Json>) -> Option<f64> {
    match j? {
        Json::Num(s) => s.parse().ok(),
        _ => None,
    }
}

fn load_contracts(root: &Path) -> Result<BTreeMap<String, Contract>, String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = yf_wire::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        if let Some(Json::Arr(items)) = doc.get(key) {
            for m in items {
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                out.insert(
                    name,
                    Contract {
                        lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                        bound: num(m.get("bound")),
                    },
                );
            }
        }
    }
    Ok(out)
}

fn load_sets(dir: &Path) -> Result<BTreeMap<(String, String), Set>, String> {
    let mut sets: BTreeMap<(String, String), Set> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc =
            yf_wire::json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let trace = if num(doc.get("trace")) == Some(1.0) {
            "trace"
        } else {
            "e2e"
        };
        let Some(result) = doc.get("result") else {
            continue;
        };
        let set = sets.entry((workload, trace.to_string())).or_default();
        set.runs += 1;
        set.attempted += num(result.get("attempted")).unwrap_or(0.0) as u64;
        set.failed += num(result.get("failed")).unwrap_or(0.0) as u64;
        if result.get("correct") != Some(&Json::Bool(true)) {
            set.incorrect += 1;
        }
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = num(m.get("value")) {
                    set.metrics.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(sets)
}

/// `(median, q1, q3, spread)`; quartiles need two samples.
fn describe(xs: &[f64]) -> (f64, f64, f64, f64) {
    let m = stats::median(xs);
    let (q1, q3) = if xs.len() >= 2 {
        stats::quartiles(xs)
    } else {
        (m, m)
    };
    let spread = if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
    (m, q1, q3, spread)
}

pub fn main(args: &[String], root: &Path) -> ExitCode {
    let dirs: Vec<&Path> = args.iter().map(Path::new).collect();
    if dirs.is_empty() || dirs.len() > 2 {
        eprintln!("usage: perfbench summary <results-dir> [<results-dir>]");
        return ExitCode::from(2);
    }
    let contracts = match load_contracts(root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench summary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut sets = Vec::new();
    for d in &dirs {
        match load_sets(d) {
            Ok(s) => sets.push(s),
            Err(e) => {
                eprintln!("perfbench summary: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut agree = true;
    for (key, a) in &sets[0] {
        let share = |s: &Set| s.failed as f64 / s.attempted.max(1) as f64;
        println!(
            "{} [{}]: {} runs, {} incorrect, failed share {}",
            key.0,
            key.1,
            a.runs,
            a.incorrect,
            share(a)
        );
        let b = sets.get(1).and_then(|s| s.get(key));
        if let Some(b) = b {
            println!(
                "  second set: {} runs, {} incorrect, failed share {}",
                b.runs,
                b.incorrect,
                share(b)
            );
            if share(a) != share(b) || b.incorrect > 0 {
                agree = false;
            }
        }
        if a.incorrect > 0 {
            agree = false;
        }
        for (name, xs) in &a.metrics {
            let (m, q1, q3, spread) = describe(xs);
            let contract = contracts.get(name);
            let bound = contract.and_then(|c| c.bound);
            let mut line = format!(
                "  {name}: median {m:.6} q1 {q1:.6} q3 {q3:.6} spread {:.2}%",
                spread * 100.0
            );
            if let Some(bound) = bound {
                let ok = name == "setup_s" || spread <= bound;
                line += &format!(
                    " (bound {:.0}%{})",
                    bound * 100.0,
                    if ok { "" } else { ", SPREAD TOO WIDE" }
                );
                agree &= ok;
            }
            if let (Some(b), Some(c)) = (b, contract) {
                if let Some(ys) = b.metrics.get(name) {
                    let (m2, _, _, spread2) = describe(ys);
                    let worse = if c.lower_is_better {
                        (m2 - m) / m
                    } else {
                        (m - m2) / m
                    };
                    line += &format!(
                        " | second median {m2:.6} spread {:.2}% worse by {:+.2}%",
                        spread2 * 100.0,
                        worse * 100.0
                    );
                    if let Some(bound) = c.bound {
                        let ok = worse <= bound && (name == "setup_s" || spread2 <= bound);
                        line += if ok { " agree" } else { " DISAGREE" };
                        agree &= ok;
                    }
                }
            }
            println!("{line}");
        }
    }
    if agree {
        ExitCode::SUCCESS
    } else {
        println!("summary: some set disagrees with BENCHMARK.json's bounds");
        ExitCode::from(1)
    }
}
