//! `fleet-ptb`: `fleet::run_fleet` sweeping a YellowFin lr-factor grid ×
//! seeds on the PTB-like 2-layer LSTM over TCP, one fresh sweep
//! directory per sweep, plus the traced run (the in-process cell
//! composed from public calls, the checkpoint codec, the sealed write,
//! and the journal's counts).

use crate::checks;
use crate::envinfo;
use crate::stats::{self, Fnv};
use crate::trace::Tracer;
use crate::train::{report_step_layers, traced_step};
use crate::{Args, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use yellowfin::{YellowFin, YellowFinConfig};
use yf_data::text::{LmSample, TextSource, ZipfBigramText};
use yf_experiments::fleet::{
    codec, fsio, result_path, FleetConfig, FleetReport, FleetSpec, WorkerTransport,
};
use yf_experiments::grid::GridOutcome;
use yf_experiments::trainer::{self, RunConfig, TrainCheckpoint};
use yf_experiments::workloads::{self, SEQ_BATCH};
use yf_nn::{flat_params, LmBatch, LstmLm, LstmLmConfig};
use yf_optim::{sharded, Optimizer};
use yf_tensor::rng::Pcg32;

/// YellowFin learning-rate factors swept (Appendix J.4's grid axis).
pub const VALUES: [f32; 3] = [0.5, 1.0, 2.0];
/// Iterations per cell.
pub const ITERS: usize = 60;
/// Scoring window: the repository's `len / 30` rule, floored at 5.
pub const WINDOW: usize = 5;
/// Sequence length of the PTB-like batches.
const TIME: usize = 12;

/// The grid: `VALUES` × two seeds derived from the run seed.
pub fn spec(seed: u64) -> FleetSpec {
    FleetSpec {
        task: "ptb".to_string(),
        opt: "yellowfin".to_string(),
        values: VALUES.to_vec(),
        seeds: vec![seed, seed.wrapping_add(1)],
        iters: ITERS,
        eval_every: 0,
        window: WINDOW,
    }
}

/// Every fleet option, set here: TCP workers, one per core, the default
/// checkpoint cadence, no injected faults or chaos.
pub fn config() -> FleetConfig {
    FleetConfig {
        workers: envinfo::nproc(),
        transport: WorkerTransport::Tcp,
        max_attempts: 3,
        lease_timeout: Duration::from_secs(30),
        backoff_base: Duration::from_millis(20),
        checkpoint_every: FleetConfig::default().checkpoint_every,
        fault_spec: None,
        chaos_spec: None,
    }
}

/// The fleet worker entry: the coordinator spawns this binary with
/// `--transport tcp --connect <addr>`.
pub fn worker_main(args: &[String]) -> ExitCode {
    yf_wire::sigpipe::ignore();
    match args {
        [t, tcp, c, addr] if t == "--transport" && tcp == "tcp" && c == "--connect" => {
            let code = yf_experiments::fleet::worker::worker_tcp(addr);
            ExitCode::from(u8::try_from(code).unwrap_or(1))
        }
        _ => {
            eprintln!("perfbench worker: expected --transport tcp --connect <addr>");
            ExitCode::from(2)
        }
    }
}

fn own_binary() -> PathBuf {
    std::env::current_exe().expect("perfbench: locating its own binary")
}

/// The in-process YellowFin for grid value `value`, built here rather
/// than through the fleet registry.
fn yellowfin(value: f32) -> YellowFin {
    YellowFin::new(YellowFinConfig {
        lr_factor: f64::from(value),
        ..YellowFinConfig::default()
    })
}

/// One cell trained in process through the trainer: its loss curve,
/// final parameters, and wall time.
fn cell_in_process(value: f32, seed: u64) -> (Vec<f32>, Vec<f32>, f64) {
    let t = Instant::now();
    let mut task = workloads::ptb_like(seed);
    let mut opt = yellowfin(value);
    let r = trainer::train(task.as_mut(), &mut opt, &RunConfig::plain(ITERS));
    (r.losses, r.final_params, t.elapsed().as_secs_f64())
}

/// The PTB-like model and batch stream, built the way
/// `workloads::ptb_like` builds them (the validation batch is drawn
/// first, as there).
fn ptb_parts(seed: u64) -> (LstmLm, impl FnMut() -> LmBatch) {
    let vocab = 48;
    let mut rng = Pcg32::seed_stream(seed, 0x13);
    let model = LstmLm::new(LstmLmConfig::word_like(vocab), &mut rng);
    let mut source = ZipfBigramText::new(vocab, 1.0, seed ^ 0xd0);
    let _validation = source.lm_arrays(LmSample {
        batch: 16,
        time: TIME,
    });
    let spec = LmSample {
        batch: SEQ_BATCH,
        time: TIME,
    };
    let batches = move || {
        let (i, t) = source.lm_arrays(spec);
        LmBatch::new(i, t, spec.batch, spec.time)
    };
    (model, batches)
}

/// Lines in the sweep's journal and its `lease` events per cell.
fn journal_counts(dir: &Path, cells: usize) -> (usize, f64) {
    let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap_or_default();
    let events = text.lines().count();
    let leases = text
        .lines()
        .filter_map(|l| yf_wire::json::parse(l).ok())
        .filter(|j| j.get("e").and_then(yf_wire::Json::as_str) == Some("lease"))
        .count();
    (events, leases as f64 / cells as f64)
}

/// The sealed result of every cell, decoded.
fn sealed_results(
    dir: &Path,
    cells: usize,
) -> Result<Vec<yf_experiments::trainer::RunResult>, String> {
    (0..cells)
        .map(|c| {
            let text =
                fsio::read_sealed(&result_path(dir, c)).map_err(|e| format!("cell {c}: {e}"))?;
            codec::decode_result(&text).map_err(|e| format!("cell {c}: {e}"))
        })
        .collect()
}

/// Checks one finished sweep against its durable state.
fn check_sweep(
    spec: &FleetSpec,
    dir: &Path,
    report: &FleetReport,
) -> Result<Vec<Vec<f32>>, String> {
    let cells = spec.values.len() * spec.seeds.len();
    if report.executed_cells != cells || report.retries != 0 || report.recovered_results != 0 {
        return Err(format!(
            "expected {cells} cells run once each: executed {}, retries {}, recovered {}",
            report.executed_cells, report.retries, report.recovered_results
        ));
    }
    let (_, leases) = journal_counts(dir, cells);
    if leases != 1.0 {
        return Err(format!("{leases} leases per cell, expected exactly 1"));
    }
    let curves: Vec<Vec<f32>> = sealed_results(dir, cells)?
        .into_iter()
        .map(|r| r.losses)
        .collect();
    for (c, curve) in curves.iter().enumerate() {
        if curve.len() != spec.iters {
            return Err(format!(
                "cell {c} sealed {} losses, expected {}",
                curve.len(),
                spec.iters
            ));
        }
        checks::all_finite(&format!("cell {c} loss"), curve)?;
    }
    let derived = checks::grid_scores(&spec.values, spec.seeds.len(), spec.window, &curves);
    checks::grid_outcome_agrees(&report.outcome.scores, report.outcome.best_value, &derived)?;
    Ok(curves)
}

/// A sealed cell equals the same `(value, seed)` cell trained in
/// process, bit for bit.
fn check_cell_in_process(spec: &FleetSpec, dir: &Path, cell: usize) -> Result<(), String> {
    let seeds = spec.seeds.len();
    let (value, seed) = (spec.values[cell / seeds], spec.seeds[cell % seeds]);
    let sealed = fsio::read_sealed(&result_path(dir, cell)).map_err(|e| e.to_string())?;
    let sealed = codec::decode_result(&sealed).map_err(|e| e.to_string())?;
    let (losses, params, _) = cell_in_process(value, seed);
    checks::bitwise_equal(&format!("cell {cell} sealed loss"), &sealed.losses, &losses)?;
    checks::bitwise_equal(
        &format!("cell {cell} sealed params"),
        &sealed.final_params,
        &params,
    )
}

fn same_outcome(a: &GridOutcome, b: &GridOutcome) -> Result<(), String> {
    let bits = |o: &GridOutcome| -> Vec<u64> {
        o.scores
            .iter()
            .flat_map(|&(v, s)| [u64::from(v.to_bits()), s.to_bits()])
            .chain(o.best_curve.iter().map(|c| c.to_bits()))
            .collect()
    };
    if bits(a) == bits(b) && a.best_value.to_bits() == b.best_value.to_bits() {
        Ok(())
    } else {
        Err("a repeated sweep of the same grid merged a different outcome".to_string())
    }
}

/// One timed sweep in a fresh directory.
fn sweep(spec: &FleetSpec, dir: &Path) -> (Result<FleetReport, String>, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let r = yf_experiments::fleet::run_fleet(spec, &config(), dir, &own_binary());
    (r.map_err(|e| e.to_string()), t.elapsed().as_secs_f64())
}

/// Set-up: a one-cell warm-up sweep (worker spawn, TCP dial-back,
/// journal creation, one checkpoint interval of training).
fn setup_once(args: &Args, i: usize) -> Result<f64, String> {
    let warm = FleetSpec {
        values: vec![1.0],
        seeds: vec![args.seed],
        iters: FleetConfig::default().checkpoint_every,
        ..spec(args.seed)
    };
    let dir = args.work.join(format!("setup-{i}"));
    let (r, secs) = sweep(&warm, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    r.map(|_| secs)
}

/// The end-to-end run: sweeps until `--seconds` elapse.
pub fn run(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    for i in 0..crate::SETUPS {
        match setup_once(args, i) {
            Ok(s) => setups.push(s),
            Err(e) => report.check("set-up sweep", Err::<(), _>(e)),
        }
    }
    let spec = spec(args.seed);
    let cells = spec.values.len() * spec.seeds.len();
    let mut sweep_s = Vec::new();
    let mut first: Option<GridOutcome> = None;
    let mut hash = String::new();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let dir = args.work.join(format!("sweep-{i}"));
        let (r, secs) = sweep(&spec, &dir);
        report.attempted += 1;
        match r {
            Err(e) => report.fail("fleet sweep", e),
            Ok(rep) => {
                sweep_s.push(secs);
                match check_sweep(&spec, &dir, &rep) {
                    Err(e) => report.check("fleet sweep", Err::<(), _>(e)),
                    Ok(curves) => match &first {
                        None => {
                            let cell = (args.seed % cells as u64) as usize;
                            report.check(
                                "sealed cell equals in-process cell",
                                check_cell_in_process(&spec, &dir, cell),
                            );
                            let mut h = Fnv::default();
                            curves.iter().for_each(|c| h.f32s(c));
                            hash = format!("{:016x}", h.finish());
                            first = Some(rep.outcome);
                        }
                        Some(f) => report.check("repeated sweep", same_outcome(&rep.outcome, f)),
                    },
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        i += 1;
    }
    if sweep_s.is_empty() || setups.is_empty() {
        report.check("fleet", Err::<(), _>("no sweep completed".to_string()));
        return;
    }
    let p50 = stats::median(&sweep_s);
    // Cells per second of the median sweep: one sweep runs at a time.
    let throughput = cells as f64 / p50;
    report.e2e("setup_s", stats::median(&setups));
    report.e2e("throughput_per_s", throughput);
    report.e2e("latency_p50_ms", p50 * 1e3);
    report.note(
        "fleet.sweep_s",
        format!("{p50:.5} s (median of {} sweeps)", sweep_s.len()),
    );
    report.note("fleet.cells_per_s", format!("{throughput:.4} cells/s"));
    if let Some(o) = &first {
        report.note("fleet.best_value", format!("{}", o.best_value));
    }
    report.note("fleet.hash", hash);
}

/// The traced run: the in-process cell composed stage by stage (its
/// losses must equal the trainer's bit for bit), the checkpoint codec
/// and sealed write at the fleet's cadence, and sweeps for the
/// journal's counts and the per-cell overhead.
pub fn run_traced(args: &Args, report: &mut Report, tr: &mut Tracer) {
    let spec = spec(args.seed);
    let cells = spec.values.len() * spec.seeds.len();
    let cadence = config().checkpoint_every;
    let (value, seed) = (spec.values[1], spec.seeds[0]);
    let ckpt_path = args.work.join("ckpt-probe.txt");
    let (mut cell_s, mut sweep_s) = (vec![], vec![]);
    let (mut ckpt_bytes, mut journal_events, mut leases) = (0usize, 0usize, 0.0f64);
    let mut fanouts = vec![];
    let mut tape = 0;
    let mut id = 0u64;
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let (ref_losses, ref_params, secs) = cell_in_process(value, seed);
        cell_s.push(secs);
        report.attempted += 1;

        let (mut model, mut batches) = ptb_parts(seed);
        let mut params = flat_params(&model);
        let mut opt = yellowfin(value);
        let base_lr = opt.learning_rate();
        let shards = sharded::auto_shards(0, params.len());
        let mut losses = Vec::with_capacity(ITERS);
        for step in 0..ITERS {
            let (loss, f, n) = traced_step(
                tr,
                id,
                &mut model,
                &mut batches,
                &mut params,
                &mut opt,
                shards,
            );
            losses.push(loss);
            fanouts.push(f as f64);
            tape = n;
            id += 1;
            if (step + 1) % cadence == 0 && step + 1 < ITERS {
                let mut s = tr.open("fleet.checkpoint", id - 1);
                let text = tr.stage(&mut s, "fleet.checkpoint_encode", || {
                    codec::encode_checkpoint(&TrainCheckpoint {
                        step: step as u64 + 1,
                        base_lr,
                        params: params.clone(),
                        losses: losses.clone(),
                        metrics: Vec::new(),
                        opt_state: opt.checkpoint_state().unwrap_or_default(),
                    })
                });
                let written = tr.stage(&mut s, "wire.sealed_write", || {
                    fsio::write_sealed(&ckpt_path, &text)
                });
                tr.close(s);
                report.check(
                    "sealed checkpoint write",
                    written.map_err(|e| e.to_string()),
                );
                ckpt_bytes = text.len();
            }
        }
        report.check(
            "traced cell losses",
            checks::bitwise_equal("traced loss", &losses, &ref_losses),
        );
        report.check(
            "traced cell params",
            checks::bitwise_equal("traced params", &params, &ref_params),
        );

        let dir = args.work.join(format!("sweep-{round}"));
        let (r, secs) = sweep(&spec, &dir);
        report.attempted += 1;
        match r {
            Err(e) => report.fail("fleet sweep", e),
            Ok(rep) => {
                sweep_s.push(secs);
                report.check("fleet sweep", check_sweep(&spec, &dir, &rep));
                (journal_events, leases) = journal_counts(&dir, cells);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        round += 1;
    }
    let cell = stats::median(&cell_s);
    report_step_layers(report, tr, tape, &fanouts);
    report.layer(
        "fleet.checkpoint_encode_us",
        tr.median_us("fleet.checkpoint_encode"),
    );
    report.layer("wire.sealed_write_us", tr.median_us("wire.sealed_write"));
    report.layer("fleet.cell_compute_s", cell);
    report.layer("fleet.checkpoint_bytes", ckpt_bytes as f64);
    report.layer("fleet.journal_events", journal_events as f64);
    report.layer("fleet.leases_per_cell", leases);
    if !sweep_s.is_empty() {
        // Worker-seconds per cell beyond what the cell costs in process.
        let workers = config().workers as f64;
        let per_cell = stats::median(&sweep_s) * workers / cells as f64;
        report.layer("fleet.overhead_per_cell_ms", (per_cell - cell) * 1e3);
    }
}
