//! `train-cifar10`: the Table 3 CIFAR10-like ResNet trained in process
//! with `YellowFin::default()` through `yf_optim::sharded`, one closed
//! loop of iterations, plus the traced run that composes each step from
//! the same public calls the task makes.

use crate::checks;
use crate::stats::{self, Fnv};
use crate::trace::Tracer;
use crate::{Args, Report};
use std::time::Instant;
use yellowfin::YellowFin;
use yf_autograd::Graph;
use yf_data::images::SyntheticImages;
use yf_experiments::workloads::{self, IMAGE_BATCH};
use yf_nn::{
    collect_grads, flat_params, load_flat, loss_and_grad, ResNet, ResNetConfig, SupervisedModel,
};
use yf_optim::{sharded, Optimizer};
use yf_tensor::parallel;
use yf_tensor::rng::Pcg32;

/// Iterations per round. Every round retrains the same seed from
/// scratch, so rounds are whole, identical units of work.
pub const ROUND_STEPS: usize = 300;
/// Smoothing window: the repository's `len / 30` rule for a 300-step run.
pub const WINDOW: usize = 10;
/// Smoothed training loss every seed reaches well inside a round
/// (chance level is ln 10 ≈ 2.30).
pub const TARGET_LOSS: f64 = 1.0;
/// Validation accuracy a round must end above (chance is 0.10).
pub const MIN_VAL_ACCURACY: f64 = 0.5;
/// Throwaway steps each set-up takes.
const WARMUP_STEPS: u64 = 20;
/// Gradient coordinates probed by finite differences.
const FD_COORDS: usize = 12;
/// Finite-difference step: small against the ReLU kinks, large against
/// the f32 round-off of the loss.
const FD_STEP: f32 = 1e-3;

/// The CIFAR10-like model and data stream, built the way
/// `workloads::cifar10_like` builds them (the traced run checks that
/// its losses equal the task's bit for bit).
pub fn cifar_parts(seed: u64) -> (ResNet, SyntheticImages) {
    let mut rng = Pcg32::seed_stream(seed, 0x10);
    let net = ResNet::new(&ResNetConfig::cifar10_like(10), &mut rng);
    let data = SyntheticImages::new(10, 3, 10, 0.35, seed ^ 0xa0);
    (net, data)
}

/// One round through the task interface: per-step wall times (µs), the
/// loss curve, the final parameters, the trained tuner, and the wall
/// time until the smoothed loss reached the target.
struct Round {
    step_us: Vec<f64>,
    losses: Vec<f32>,
    params: Vec<f32>,
    opt: YellowFin,
    to_target_s: Option<f64>,
    val_accuracy: f64,
}

fn round(seed: u64) -> Round {
    let mut task = workloads::cifar10_like(seed);
    let mut opt = YellowFin::default();
    let mut params = task.init_params();
    let shards = sharded::auto_shards(0, params.len());
    let mut step_us = Vec::with_capacity(ROUND_STEPS);
    let mut losses = Vec::with_capacity(ROUND_STEPS);
    let mut to_target_s = None;
    let mut window_sum = 0.0f64;
    let start = Instant::now();
    for step in 0..ROUND_STEPS {
        let t = Instant::now();
        let (loss, grad) = task.loss_grad_at(&params, step as u64);
        sharded::step_sharded(&mut opt, &mut params, &grad, shards);
        step_us.push(t.elapsed().as_secs_f64() * 1e6);
        losses.push(loss);
        window_sum += f64::from(loss);
        if step >= WINDOW {
            window_sum -= f64::from(losses[step - WINDOW]);
        }
        if to_target_s.is_none() && window_sum / (step + 1).min(WINDOW) as f64 <= TARGET_LOSS {
            to_target_s = Some(start.elapsed().as_secs_f64());
        }
    }
    let val_accuracy = task.validate(&params);
    Round {
        step_us,
        losses,
        params,
        opt,
        to_target_s,
        val_accuracy,
    }
}

/// One fully composed, traced step: batch → `load_flat` → `model.loss`
/// → `Graph::backward` → `collect_grads` → `observe_sharded` →
/// `apply_sharded`. Returns the loss and the step's pool fan-outs and
/// tape length.
pub fn traced_step<M: SupervisedModel>(
    tr: &mut Tracer,
    id: u64,
    model: &mut M,
    mut batch: impl FnMut() -> M::Batch,
    params: &mut [f32],
    opt: &mut dyn Optimizer,
    shards: usize,
) -> (f32, u64, usize) {
    let fanouts = parallel::fanout_count();
    let mut step = tr.open("train.step", id);
    let b = tr.stage(&mut step, "data.batch", &mut batch);
    tr.stage(&mut step, "nn.load_params", || load_flat(model, params));
    let (mut g, loss, nodes) = tr.stage(&mut step, "autograd.forward", || {
        let mut g = Graph::new();
        let (loss, nodes) = model.loss(&mut g, &b);
        (g, loss, nodes)
    });
    let loss_value = g.value(loss).data()[0];
    let tape = g.len();
    tr.stage(&mut step, "autograd.backward", || g.backward(loss));
    // Collecting the flat gradient also releases the tape, as the
    // task's `loss_and_grad` does on return.
    let grads = tr.stage(&mut step, "nn.grad_collect", || {
        let grads = collect_grads(model, &g, &nodes);
        drop(g);
        grads
    });
    let hyper = tr.stage(&mut step, "optim.observe", || {
        sharded::observe_sharded(opt, params, &grads, shards)
    });
    tr.stage(&mut step, "optim.apply", || {
        sharded::apply_sharded(&*opt, params, &grads, hyper, shards);
        drop(grads);
        drop(b);
    });
    tr.close(step);
    (loss_value, parallel::fanout_count() - fanouts, tape)
}

/// Task construction plus a few throwaway steps, so the pool, the GEMM
/// blocking and the scratch buffers are live before timing starts.
fn setup_once(seed: u64) -> f64 {
    let t = Instant::now();
    let mut task = workloads::cifar10_like(seed);
    let mut opt = YellowFin::default();
    let mut params = task.init_params();
    let shards = sharded::auto_shards(0, params.len());
    for step in 0..WARMUP_STEPS {
        let (_, grad) = task.loss_grad_at(&params, step);
        sharded::step_sharded(&mut opt, &mut params, &grad, shards);
    }
    t.elapsed().as_secs_f64()
}

/// The analytic gradient on a fixed batch agrees with central finite
/// differences of the model loss: along the gradient itself, and at the
/// coordinates where the gradient is largest (at small-gradient
/// coordinates a ReLU kink inside the step dominates the difference).
fn gradient_check(seed: u64) -> Result<(), String> {
    let (mut model, mut data) = cifar_parts(seed);
    let batch = data.batch(IMAGE_BATCH);
    let params = flat_params(&model);
    let (_, grad) = loss_and_grad(&model, &batch);
    let mut coords: Vec<usize> = (0..grad.len()).collect();
    coords.sort_by(|&a, &b| grad[b].abs().total_cmp(&grad[a].abs()));
    coords.truncate(FD_COORDS);
    let mut loss = |x: &[f32]| {
        load_flat(&mut model, x);
        let mut g = Graph::new();
        let (l, _) = model.loss(&mut g, &batch);
        g.value(l).data()[0]
    };
    checks::directional_derivative(&mut loss, &params, &grad, FD_STEP)?;
    checks::finite_differences(&mut loss, &params, &grad, &coords, FD_STEP)
}

/// Checks one untraced round's outputs.
fn check_round(r: &Round, first: Option<&Round>) -> Result<(), String> {
    checks::all_finite("loss", &r.losses)?;
    checks::all_finite("params", &r.params)?;
    checks::descends_to(&r.losses, WINDOW, TARGET_LOSS)?;
    if r.val_accuracy <= MIN_VAL_ACCURACY {
        return Err(format!(
            "validation accuracy {:.3} not above {MIN_VAL_ACCURACY}",
            r.val_accuracy
        ));
    }
    match first {
        Some(f) => {
            // Every round retrains the same seed: same bits.
            checks::bitwise_equal("round loss", &r.losses, &f.losses)?;
            checks::bitwise_equal("round params", &r.params, &f.params)
        }
        None => {
            let m = r
                .opt
                .measurements()
                .ok_or("tuner has no measurements after a round")?;
            let (h_min, h_max, c, d) = m;
            let s = yellowfin::cubic::single_step(c, d, h_min, h_max);
            checks::single_step_agrees(m, s.mu, s.lr)
        }
    }
}

fn trajectory_hash(r: &Round) -> String {
    let mut h = Fnv::default();
    h.f32s(&r.losses);
    h.f32s(&r.params);
    format!("{:016x}", h.finish())
}

/// The end-to-end run.
pub fn run(args: &Args, report: &mut Report) {
    let setups: Vec<f64> = (0..crate::SETUPS).map(|_| setup_once(args.seed)).collect();
    report.check("finite-difference gradient", gradient_check(args.seed));
    let start = Instant::now();
    let mut first: Option<Round> = None;
    let (mut step_us, mut to_target, mut round_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let r = round(args.seed);
        report.attempted += r.step_us.len() as u64;
        report.check("training round", check_round(&r, first.as_ref()));
        step_us.extend_from_slice(&r.step_us);
        to_target.extend(r.to_target_s);
        round_rates
            .push((ROUND_STEPS * IMAGE_BATCH) as f64 / (r.step_us.iter().sum::<f64>() / 1e6));
        rounds += 1;
        // Round 0 is the reference every later round must equal.
        first.get_or_insert(r);
    }
    let first = first.expect("at least one round ran");
    // Throughput is the median of the rounds' own, so a round caught by
    // contention on the host does not swing it.
    let samples_per_s = stats::median(&round_rates);
    let p50_ms = stats::median(&step_us) / 1e3;

    report.e2e("setup_s", stats::median(&setups));
    report.e2e("throughput_per_s", samples_per_s);
    report.e2e("latency_p50_ms", p50_ms);
    report.note(
        "train.samples_per_s",
        format!("{samples_per_s:.3} samples/s"),
    );
    report.note("train.step_p50_ms", format!("{p50_ms:.5} ms"));
    report.note(
        "train.step_p99_ms",
        stats::p99(&step_us).map_or("n/a (fewer than 10 samples beyond p99)".into(), |v| {
            format!("{:.5} ms", v / 1e3)
        }),
    );
    if !to_target.is_empty() {
        report.note(
            "train.time_to_target_s",
            format!("{:.5} s", stats::median(&to_target)),
        );
    }
    report.note("train.rounds", format!("{rounds} x {ROUND_STEPS} steps"));
    report.note("train.val_accuracy", format!("{:.4}", first.val_accuracy));
    report.note("train.hash", trajectory_hash(&first));
}

/// The traced run: untraced rounds through the task alternate with
/// traced rounds composed from the same public calls, whose losses and
/// parameters must equal the untraced ones bit for bit. The two kinds
/// of rounds interleave, so their step-time difference is the tracing
/// overhead rather than drift of the machine.
pub fn run_traced(args: &Args, report: &mut Report, tr: &mut Tracer) {
    setup_once(args.seed);
    let (mut untraced_us, mut traced_us, mut fanouts) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Round> = None;
    let mut tape = 0usize;
    let mut id = 0u64;
    let start = Instant::now();
    while traced_us.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let reference = round(args.seed);
        report.attempted += reference.step_us.len() as u64;
        report.check("untraced round", check_round(&reference, first.as_ref()));
        untraced_us.extend_from_slice(&reference.step_us);

        let (mut model, mut data) = cifar_parts(args.seed);
        let mut params = flat_params(&model);
        let mut opt = YellowFin::default();
        let shards = sharded::auto_shards(0, params.len());
        let mut losses = Vec::with_capacity(ROUND_STEPS);
        for _ in 0..ROUND_STEPS {
            let t = Instant::now();
            let (loss, f, n) = traced_step(
                tr,
                id,
                &mut model,
                || data.batch(IMAGE_BATCH),
                &mut params,
                &mut opt,
                shards,
            );
            traced_us.push(t.elapsed().as_secs_f64() * 1e6);
            fanouts.push(f as f64);
            tape = n;
            losses.push(loss);
            id += 1;
        }
        report.attempted += ROUND_STEPS as u64;
        report.check(
            "traced losses equal untraced",
            checks::bitwise_equal("traced loss", &losses, &reference.losses),
        );
        report.check(
            "traced params equal untraced",
            checks::bitwise_equal("traced params", &params, &reference.params),
        );
        first.get_or_insert(reference);
    }
    let untraced = stats::median(&untraced_us);
    let traced = stats::median(&traced_us);
    report_step_layers(report, tr, tape, &fanouts);
    report.note(
        "trace.step_p50_us",
        format!("traced {traced:.3}, untraced {untraced:.3}"),
    );
    report.note(
        "trace.overhead",
        format!(
            "{:+.2}% of the untraced step",
            100.0 * (traced / untraced - 1.0)
        ),
    );
}

/// The composed step's stages, each with the per-layer metric it feeds.
const STEP_STAGES: [(&str, &str); 7] = [
    ("data.batch_us", "data.batch"),
    ("nn.load_params_us", "nn.load_params"),
    ("autograd.forward_us", "autograd.forward"),
    ("autograd.backward_us", "autograd.backward"),
    ("nn.grad_collect_us", "nn.grad_collect"),
    ("optim.observe_us", "optim.observe"),
    ("optim.apply_us", "optim.apply"),
];

/// Reports the traced steps' per-layer metrics: each stage's median,
/// the step time no stage covers (which must stay under 5%), the tape
/// length and the pool fan-outs.
pub fn report_step_layers(report: &mut Report, tr: &Tracer, tape: usize, fanouts: &[f64]) {
    let mut staged = 0.0;
    for (metric, stage) in STEP_STAGES {
        let us = tr.median_us(stage);
        staged += us;
        report.layer(metric, us);
    }
    let unaccounted = tr.unaccounted_us("train.step");
    report.layer("train.unaccounted_us", unaccounted);
    report.layer("autograd.tape_nodes", tape as f64);
    report.layer("tensor.fanouts_per_step", stats::median(fanouts));
    let share = unaccounted / (staged + unaccounted);
    report.note(
        "trace.unaccounted",
        format!("{:.3}% of the traced step", 100.0 * share),
    );
    let covered = if share <= 0.05 {
        Ok(())
    } else {
        Err(format!(
            "{:.2}% of the step is outside every stage",
            100.0 * share
        ))
    };
    report.check("stages account for 95% of the step", covered);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_step_equals_the_task_step() {
        let seed = 3;
        let mut task = workloads::cifar10_like(seed);
        let mut p_task = task.init_params();
        let mut opt_task = YellowFin::default();
        let (mut model, mut data) = cifar_parts(seed);
        let mut p_comp = flat_params(&model);
        let mut opt_comp = YellowFin::default();
        checks::bitwise_equal("init", &p_comp, &p_task).unwrap();
        let shards = sharded::auto_shards(0, p_task.len());
        let mut tr = Tracer::default();
        for step in 0..3 {
            let (l_task, g) = task.loss_grad_at(&p_task, step);
            sharded::step_sharded(&mut opt_task, &mut p_task, &g, shards);
            let (l_comp, _, _) = traced_step(
                &mut tr,
                step,
                &mut model,
                || data.batch(IMAGE_BATCH),
                &mut p_comp,
                &mut opt_comp,
                shards,
            );
            assert_eq!(l_task.to_bits(), l_comp.to_bits(), "step {step}");
        }
        checks::bitwise_equal("params", &p_comp, &p_task).unwrap();
    }
}
