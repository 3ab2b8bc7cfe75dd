//! `serve-durable` and `serve-volatile`: an in-process
//! `yf_serve::Server` (with or without a snapshot directory) driven by
//! up to `nproc` `RemoteTuner` clients, each streaming a seeded dim-4096
//! gradient stream over the binary dialect, plus the traced run that
//! replays each server and client stage on the same stream.

use crate::checks;
use crate::envinfo;
use crate::stats::{self, Fnv, Reservoir};
use crate::trace::Tracer;
use crate::{Args, Report};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use yellowfin::YellowFin;
use yf_experiments::serve_client::{RemoteTuner, RemoteTunerConfig};
use yf_optim::{Hyper, MomentumSgd, Optimizer, ParamShard};
use yf_serve::proto::{self, BinMeasure};
use yf_serve::{
    snapshot, Authority, Backoff, Client, ClientConfig, FilterSpec, MeasureReply, OpenSpec,
    Outcome, ServeConfig, Server, Session, WireDialect,
};
use yf_tensor::rng::Pcg32;
use yf_wire::{binary, fsio};

/// Gradient dimension of every stream.
pub const DIM: usize = 4096;
/// Measurements each client sends during set-up.
const WARMUP: u64 = 64;
/// Trajectory chunks (of `CHUNK` steps) the printed hash covers.
const HASHED_CHUNKS: usize = 64;
/// Latencies each client keeps (a uniform sample of all it measured),
/// so the benchmark's memory does not grow with the program's speed.
const LATENCY_SAMPLE: usize = 1 << 14;
/// Noise vectors per stream, cycled by step.
const NOISE_BANK: usize = 16;
/// Steps per trajectory chunk: a chunk hashes the served hypers of its
/// steps and the parameters at its end, so a client's record stays a few
/// bytes per step however fast it runs.
const CHUNK: u64 = 32;

/// A seeded noisy quadratic `½ Σ h_i x_i²`: the gradient at `x` is
/// `h ⊙ x` plus a noise vector cycled from a fixed bank, so a stream is
/// a pure function of the seed, the client, and the parameters.
pub struct Stream {
    h: Vec<f32>,
    x0: Vec<f32>,
    noise: Vec<Vec<f32>>,
}

impl Stream {
    pub fn new(seed: u64, client: usize) -> Stream {
        let mut rng = Pcg32::seed_stream(seed, 0x5e00 + client as u64);
        let h = (0..DIM).map(|_| rng.uniform_in(0.1, 1.0)).collect();
        let x0 = (0..DIM).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let noise = (0..NOISE_BANK)
            .map(|_| (0..DIM).map(|_| 0.05 * rng.normal()).collect())
            .collect();
        Stream { h, x0, noise }
    }

    /// Writes the gradient of step `step` at `x` into `g`; returns the loss.
    pub fn measure(&self, step: u64, x: &[f32], g: &mut [f32]) -> f32 {
        let noise = &self.noise[step as usize % NOISE_BANK];
        let mut loss = 0.0f64;
        for i in 0..DIM {
            g[i] = self.h[i] * x[i] + noise[i];
            loss += 0.5 * f64::from(self.h[i] * x[i] * x[i]);
        }
        loss as f32
    }
}

/// The session every client opens: YellowFin at lr factor 1 and a
/// wide-open authority, so the served stream is the raw tuner output.
pub fn open_spec(name: String) -> OpenSpec {
    OpenSpec {
        session: name,
        optimizer: "yellowfin".to_string(),
        value: 1.0,
        dim: DIM,
        authority: Authority {
            max_lr_step: 1e9,
            max_momentum_step: 1.0,
            lr_min: f32::MIN_POSITIVE,
            lr_max: 1e9,
            momentum_min: 0.0,
            momentum_max: 0.9999,
        },
        filter: FilterSpec {
            window: 20,
            beta: 0.999,
            tolerance: 10.0,
        },
    }
}

/// Every server option, set here.
fn serve_config(snapshot_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        snapshot_dir,
        max_sessions: 64,
        permits: envinfo::nproc(),
        outbound_queue: 256,
        idle_timeout: Duration::from_secs(300),
        reap_tick: Duration::from_millis(500),
        snapshot_every: 1,
    }
}

/// Every client option, set here: the binary dialect, lock-step.
fn client_config(wire: WireDialect) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(5),
        wire,
        window: 1,
    }
}

fn tuner_config(wire: WireDialect) -> RemoteTunerConfig {
    RemoteTunerConfig {
        client: client_config(wire),
        backoff: Backoff {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
        },
        degrade_after: Duration::from_secs(10),
        resync_limit: 4096,
        probe_cap: 64,
    }
}

fn session_name(seed: u64, client: usize) -> String {
    format!("bench-s{seed}-c{client}")
}

/// A served trajectory, chunk by chunk: FNV-1a over every served
/// `(lr, momentum, grad_scale)` of a chunk's steps and the parameter
/// vector after its last step.
#[derive(Default)]
struct Trajectory {
    open: Fnv,
    chunks: Vec<u64>,
}

impl Trajectory {
    fn record(&mut self, step: u64, hyper: Hyper, params: &[f32]) {
        for w in [hyper.lr, hyper.momentum, hyper.grad_scale] {
            self.open.bytes(&w.to_bits().to_le_bytes());
        }
        if (step + 1).is_multiple_of(CHUNK) {
            self.open.f32s(params);
            self.chunks.push(std::mem::take(&mut self.open).finish());
        }
    }

    /// The whole trajectory, including the unfinished chunk.
    fn hash(&self) -> u64 {
        let mut h = self.open;
        self.chunks.iter().for_each(|c| h.bytes(&c.to_le_bytes()));
        h.finish()
    }
}

/// One client's side of a run: its tuner, stream, and what it saw.
struct ClientRun {
    /// Taken at tear-down, when the session is detached.
    tuner: Option<RemoteTuner>,
    stream: Stream,
    params: Vec<f32>,
    grads: Vec<f32>,
    step: u64,
    latency_us: Reservoir,
    /// Timed measurements completed in each second of the run.
    per_second: Vec<u64>,
    trajectory: Trajectory,
}

impl ClientRun {
    fn step(&mut self, timed: bool) {
        let loss = self
            .stream
            .measure(self.step, &self.params, &mut self.grads);
        let tuner = self.tuner.as_mut().expect("tuner lives until tear-down");
        tuner.set_loss(loss);
        let t = Instant::now();
        tuner.step(&mut self.params, &self.grads);
        if timed {
            self.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        self.trajectory
            .record(self.step, tuner.last_hyper(), &self.params);
        self.step += 1;
    }
}

/// A started server with its clients connected, opened, and warmed up.
struct Live {
    server: Server,
    clients: Vec<ClientRun>,
    snapshot_dir: Option<PathBuf>,
}

fn set_up(args: &Args, durable: bool, k: usize) -> Result<(Live, f64), String> {
    let t = Instant::now();
    let snapshot_dir = durable.then(|| args.work.join(format!("snapshots-{k}")));
    let server = Server::start(serve_config(snapshot_dir.clone()))
        .map_err(|e| format!("server start: {e}"))?;
    let mut clients = Vec::new();
    for c in 0..envinfo::nproc() {
        let tuner = RemoteTuner::connect_with(
            server.local_addr(),
            open_spec(session_name(args.seed, c)),
            tuner_config(WireDialect::Binary),
        )
        .map_err(|e| format!("client {c} connect: {e}"))?;
        let stream = Stream::new(args.seed, c);
        let params = stream.x0.clone();
        clients.push(ClientRun {
            tuner: Some(tuner),
            stream,
            params,
            grads: vec![0.0; DIM],
            step: 0,
            latency_us: Reservoir::new(LATENCY_SAMPLE, args.seed ^ c as u64),
            per_second: Vec::new(),
            trajectory: Trajectory::default(),
        });
    }
    // The clients warm up together, as they are timed: one client alone
    // in lock-step waits on idle-CPU wake-ups and times far less steadily.
    std::thread::scope(|s| {
        for c in &mut clients {
            s.spawn(move || (0..WARMUP).for_each(|_| c.step(false)));
        }
    });
    Ok((
        Live {
            server,
            clients,
            snapshot_dir,
        },
        t.elapsed().as_secs_f64(),
    ))
}

/// Detaches every session and drains the server.
fn tear_down(live: Live) -> Result<(Vec<ClientRun>, Option<PathBuf>), String> {
    let Live {
        server,
        mut clients,
        snapshot_dir,
    } = live;
    let mut verdict = Ok(());
    for c in &mut clients {
        let Some(tuner) = c.tuner.take() else {
            continue;
        };
        if tuner.degraded_steps() > 0 {
            verdict = Err(format!("{} steps served degraded", tuner.degraded_steps()));
        }
        if let Err(e) = tuner.detach() {
            verdict = Err(format!("detach: {e}"));
        }
    }
    server.drain();
    server.wait();
    verdict.map(|()| (clients, snapshot_dir))
}

/// In-process YellowFin stepped on the same stream.
struct Reference {
    opt: YellowFin,
    params: Vec<f32>,
    grads: Vec<f32>,
}

impl Reference {
    fn new(stream: &Stream) -> Reference {
        Reference {
            opt: YellowFin::default(),
            params: stream.x0.clone(),
            grads: vec![0.0; DIM],
        }
    }

    /// One in-process step: the tuned hyperparameters it applied.
    fn step(&mut self, stream: &Stream, step: u64) -> Hyper {
        stream.measure(step, &self.params, &mut self.grads);
        let hyper = self.opt.observe(&self.params, &self.grads);
        self.opt
            .step_shard(ParamShard::whole(DIM), &mut self.params, &self.grads, hyper);
        hyper
    }
}

fn same_hyper(step: u64, got: Hyper, want: Hyper) -> Result<(), String> {
    let bits = |h: Hyper| [h.lr.to_bits(), h.momentum.to_bits(), h.grad_scale.to_bits()];
    if bits(got) == bits(want) {
        Ok(())
    } else {
        Err(format!("step {step}: served {got:?}, in-process {want:?}"))
    }
}

/// A client's served trajectory equals in-process YellowFin on the same
/// stream, bit for bit: every chunk of served hypers and the parameters
/// after it, and the final parameters. Returns the reference, advanced
/// to the end of the stream.
fn check_trajectory(c: &ClientRun) -> Result<Reference, String> {
    let mut r = Reference::new(&c.stream);
    let mut want = Trajectory::default();
    for step in 0..c.step {
        let hyper = r.step(&c.stream, step);
        want.record(step, hyper, &r.params);
    }
    same_trajectory(&c.trajectory, &want)?;
    checks::bitwise_equal("final params", &c.params, &r.params)?;
    checks::all_finite("final params", &c.params)?;
    Ok(r)
}

fn same_trajectory(got: &Trajectory, want: &Trajectory) -> Result<(), String> {
    if let Some(i) = got
        .chunks
        .iter()
        .zip(&want.chunks)
        .position(|(a, b)| a != b)
    {
        return Err(format!(
            "served steps {}..{} or the parameters after them differ from in-process YellowFin",
            i as u64 * CHUNK,
            (i as u64 + 1) * CHUNK
        ));
    }
    if got.chunks.len() != want.chunks.len() || got.hash() != want.hash() {
        return Err("the served trajectory's tail differs from in-process YellowFin".to_string());
    }
    Ok(())
}

/// After drain: the session's sealed snapshot decodes at the last
/// acknowledged step, and a session restored from it answers one more
/// measurement exactly as in-process YellowFin does.
fn check_snapshot(
    dir: &Path,
    c: &ClientRun,
    mut r: Reference,
    client: usize,
    seed: u64,
) -> Result<(), String> {
    let name = session_name(seed, client);
    let text =
        fsio::read_sealed(&dir.join(format!("{name}.session"))).map_err(|e| e.to_string())?;
    let snap = snapshot::decode(&text).map_err(|e| e.to_string())?;
    if snap.step != c.step {
        return Err(format!(
            "snapshot at step {}, last acknowledged {}",
            snap.step, c.step
        ));
    }
    let mut restored = Session::restore(snap)?;
    let loss = c.stream.measure(c.step, &r.params, &mut r.grads);
    let grads = r.grads.clone();
    let want = r.step(&c.stream, c.step);
    match restored.measure(c.step, loss, &grads)? {
        Outcome::Tuned { hyper, .. } => same_hyper(c.step, hyper, want),
        Outcome::Rejected { reason } => Err(format!(
            "restored session rejected step {}: {reason}",
            c.step
        )),
    }
}

/// FNV-1a over the first `HASHED_CHUNKS` chunks of every client's
/// trajectory: a fixed prefix, so the same seed prints the same hash
/// however many measurements the run makes.
fn served_hash(clients: &[ClientRun]) -> String {
    let mut h = Fnv::default();
    for c in clients {
        for chunk in c.trajectory.chunks.iter().take(HASHED_CHUNKS) {
            h.bytes(&chunk.to_le_bytes());
        }
    }
    format!("{:016x}", h.finish())
}

/// The end-to-end run.
pub fn run(args: &Args, report: &mut Report) {
    let durable = args.workload == "serve-durable";
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..crate::SETUPS {
        match set_up(args, durable, k) {
            Err(e) => report.fail("set-up", e),
            Ok((l, secs)) => {
                setups.push(secs);
                if let Some(prev) = live.replace(l) {
                    report.check("set-up teardown", tear_down(prev).map(|_| ()));
                }
            }
        }
    }
    let Some(mut live) = live else {
        report.check("serve", Err::<(), _>("no set-up succeeded".to_string()));
        return;
    };
    let seconds = args.seconds;
    let barrier = Barrier::new(live.clients.len() + 1);
    let start = std::thread::scope(|s| {
        for c in &mut live.clients {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let start = Instant::now();
                while c.latency_us.seen() == 0 || start.elapsed().as_secs_f64() < seconds {
                    c.step(true);
                    let second = start.elapsed().as_secs() as usize;
                    if c.per_second.len() <= second {
                        c.per_second.resize(second + 1, 0);
                    }
                    c.per_second[second] += 1;
                }
            });
        }
        barrier.wait();
        // Taken as the clients start; the scope joins them all before
        // returning it.
        Instant::now()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (clients, dir) = match tear_down(live) {
        Ok(x) => x,
        Err(e) => {
            report.check("drain", Err::<(), _>(e));
            return;
        }
    };
    for (i, c) in clients.iter().enumerate() {
        report.attempted += c.latency_us.seen();
        match check_trajectory(c) {
            Err(e) => report.check(&format!("client {i} trajectory"), Err::<(), _>(e)),
            Ok(r) => {
                if let Some(dir) = &dir {
                    report.check(
                        &format!("client {i} snapshot"),
                        check_snapshot(dir, c, r, i, args.seed),
                    );
                }
            }
        }
    }
    let latency: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.latency_us.sample().iter().copied())
        .collect();
    // Throughput is the median over the run's whole seconds of the
    // measurements all clients completed in that second, so a stall of a
    // second or two (an fsync caught behind other disk traffic) does not
    // swing it.
    let whole_seconds: Vec<f64> = (0..seconds as usize)
        .map(|i| {
            clients
                .iter()
                .map(|c| c.per_second.get(i).copied().unwrap_or(0))
                .sum::<u64>() as f64
        })
        .collect();
    let measures_per_s = if whole_seconds.is_empty() {
        clients.iter().map(|c| c.latency_us.seen()).sum::<u64>() as f64 / wall_s
    } else {
        stats::median(&whole_seconds)
    };
    let p50 = stats::median(&latency);
    report.e2e("setup_s", stats::median(&setups));
    report.e2e("throughput_per_s", measures_per_s);
    report.e2e("latency_p50_ms", p50 / 1e3);
    report.note("serve.clients", clients.len().to_string());
    report.note("serve.measures_per_s", format!("{measures_per_s:.3} 1/s"));
    report.note("serve.measure_p50_us", format!("{p50:.3} us"));
    report.note(
        "serve.measure_p99_us",
        stats::p99(&latency).map_or("n/a (fewer than 10 samples beyond p99)".into(), |v| {
            format!("{v:.3} us")
        }),
    );
    report.note("serve.hash", served_hash(&clients));
}

/// The traced run: each stage replayed on client 0's stream —
/// `encode_measure` → decode → `Session::measure` → `snapshot::encode` →
/// `write_sealed` — next to a raw `Client::measure` round trip against a
/// server configured like the workload, the client's shadow session, and
/// its local apply.
pub fn run_traced(args: &Args, report: &mut Report, tr: &mut Tracer) {
    let durable = args.workload == "serve-durable";
    let snapshot_dir = durable.then(|| args.work.join("snapshots-trace"));
    let server = match Server::start(serve_config(snapshot_dir.clone())) {
        Ok(s) => s,
        Err(e) => return report.fail("server start", e),
    };
    let name = session_name(args.seed, 0);
    let spec = open_spec(name.clone());
    let mut client =
        match Client::connect_with(server.local_addr(), &client_config(WireDialect::Binary)) {
            Ok(c) => c,
            Err(e) => return report.fail("client connect", e),
        };
    if let Err(e) = client.open(spec.clone()) {
        return report.fail("session open", e);
    }
    let (mut session, mut shadow) = match (Session::new(spec.clone()), Session::new(spec)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return report.fail("session", e),
    };
    let replay_path = args.work.join("replay.session");
    let stream = Stream::new(args.seed, 0);
    let mut reference = Reference::new(&stream);
    let apply = MomentumSgd::new(0.0, 0.0);
    let mut params = stream.x0.clone();
    let mut grads = vec![0.0; DIM];
    let mut snapshot_bytes = 0usize;
    let start = Instant::now();
    let mut step = 0u64;
    let mut verdict: Result<(), String> = Ok(());
    while step == 0 || start.elapsed().as_secs_f64() < args.seconds {
        report.attempted += 1;
        let loss = stream.measure(step, &params, &mut grads);
        let mut m = tr.open("serve.measure", step);
        let frame = tr.stage(&mut m, "wire.encode_measure", || {
            proto::encode_measure(&name, step, loss, &grads)
        });
        let decoded = tr.stage(&mut m, "wire.decode_measure", || {
            let (tag, payload) = binary::decode(&frame).map_err(|e| e.to_string())?;
            proto::decode_bin_measure(tag, payload).map_err(|e| e.to_string())
        });
        let outcome = tr.stage(&mut m, "session.measure", || match decoded {
            Ok(BinMeasure::Full {
                step, loss, grads, ..
            }) => session.measure(step, loss, &grads),
            Ok(BinMeasure::Delta { .. }) => Err("full frame decoded as a delta".to_string()),
            Err(e) => Err(e),
        });
        // What a durable server does after each measurement. On
        // serve-volatile the round trip below does not contain it: there
        // it is the cost durability would add.
        let text = tr.stage(&mut m, "snapshot.encode", || {
            snapshot::encode(&session.snapshot())
        });
        snapshot_bytes = text.len();
        let written = tr.stage(&mut m, "wire.sealed_write", || {
            fsio::write_sealed(&replay_path, &text)
        });
        if let Err(e) = written {
            verdict = verdict.and(Err(format!("sealed write: {e}")));
        }
        let reply = tr.stage(&mut m, "serve.rtt", || {
            client.measure(&name, step, loss, &grads)
        });
        let shadowed = tr.stage(&mut m, "serve_client.shadow", || {
            shadow.measure(step, loss, &grads)
        });
        let want = reference.step(&stream, step);
        let served = match (&outcome, &reply, &shadowed) {
            (
                Ok(Outcome::Tuned { hyper: a, .. }),
                Ok(MeasureReply::Tuned { hyper: b, .. }),
                Ok(Outcome::Tuned { hyper: c, .. }),
            ) => same_hyper(step, *a, want)
                .and(same_hyper(step, *b, want))
                .and(same_hyper(step, *c, want))
                .map(|_| *b),
            other => Err(format!("step {step}: not tuned everywhere: {other:?}")),
        };
        match served {
            Ok(hyper) => tr.stage(&mut m, "serve_client.apply", || {
                apply.step_shard(ParamShard::whole(DIM), &mut params, &grads, hyper)
            }),
            Err(e) => verdict = verdict.and(Err(e)),
        }
        tr.close(m);
        if verdict.is_err() {
            break;
        }
        step += 1;
    }
    report.check("replayed stages agree with in-process YellowFin", verdict);
    report.check(
        "replayed params",
        checks::bitwise_equal("params", &params, &reference.params),
    );
    let _ = client.close_session(&name);
    drop(client);
    server.drain();
    server.wait();

    let stages = [
        "wire.encode_measure",
        "wire.decode_measure",
        "session.measure",
        "snapshot.encode",
        "wire.sealed_write",
    ];
    for (metric, stage) in [
        ("wire.encode_measure_us", stages[0]),
        ("wire.decode_measure_us", stages[1]),
        ("session.measure_us", stages[2]),
        ("snapshot.encode_us", stages[3]),
        ("wire.sealed_write_us", stages[4]),
        ("serve.rtt_us", "serve.rtt"),
        ("serve_client.shadow_us", "serve_client.shadow"),
        ("serve_client.apply_us", "serve_client.apply"),
    ] {
        report.layer(metric, tr.median_us(stage));
    }
    report.layer("snapshot.bytes", snapshot_bytes as f64);
    // Round trip minus the server-side stages it contains.
    let in_round_trip = if durable { &stages[1..] } else { &stages[1..3] };
    let server_side: f64 = in_round_trip.iter().map(|s| tr.median_us(s)).sum();
    report.layer(
        "serve.transport_us",
        tr.median_us("serve.rtt") - server_side,
    );
    if !durable {
        json_measure_cost(args, report);
    }
}

/// What one `RemoteTuner` measurement costs in the JSON dialect (the
/// `ClientConfig::default()` dialect) in the serve-volatile setting.
fn json_measure_cost(args: &Args, report: &mut Report) {
    let server = match Server::start(serve_config(None)) {
        Ok(s) => s,
        Err(e) => return report.fail("server start", e),
    };
    let spec = open_spec(format!("json-s{}", args.seed));
    let stream = Stream::new(args.seed, 0);
    let result =
        RemoteTuner::connect_with(server.local_addr(), spec, tuner_config(WireDialect::Json)).map(
            |mut tuner| {
                let mut params = stream.x0.clone();
                let mut grads = vec![0.0; DIM];
                let mut lat = Vec::new();
                for step in 0..400 {
                    tuner.set_loss(stream.measure(step, &params, &mut grads));
                    let t = Instant::now();
                    tuner.step(&mut params, &grads);
                    lat.push(t.elapsed().as_secs_f64() * 1e6);
                }
                let _ = tuner.detach();
                stats::median(&lat)
            },
        );
    server.drain();
    server.wait();
    match result {
        Ok(us) => report.note(
            "serve.json_measure_p50_us",
            format!("{us:.3} us (400 lock-step JSON measurements, 1 client)"),
        ),
        Err(e) => report.fail("json client", e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps `n` measurements of client 0's stream in process, recording
    /// the trajectory; `flip` flips one parameter bit after that step.
    fn in_process(n: u64, flip: Option<u64>) -> Trajectory {
        let stream = Stream::new(9, 0);
        let mut r = Reference::new(&stream);
        let mut t = Trajectory::default();
        for step in 0..n {
            let hyper = r.step(&stream, step);
            if flip == Some(step) {
                r.params[100] = f32::from_bits(r.params[100].to_bits() ^ 1);
            }
            t.record(step, hyper, &r.params);
        }
        t
    }

    #[test]
    fn trajectory_check_rejects_one_flipped_parameter_bit() {
        let want = in_process(70, None);
        same_trajectory(&in_process(70, None), &want).unwrap();
        // A bit flipped mid-chunk propagates; one flipped in a chunk's
        // last step is caught by that chunk's parameter hash.
        assert!(same_trajectory(&in_process(70, Some(40)), &want).is_err());
        assert!(same_trajectory(&in_process(70, Some(31)), &want).is_err());
    }
}
