//! The three workloads: their inputs (made from the seed), the timed
//! phase, and the output check that follows it.

use std::collections::BTreeMap;
use std::error::Error;
use std::fs;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use lowvcc_bench::experiments::{point_from, point_json, run_all, SweepPoint};
use lowvcc_bench::{json, ExperimentContext, ResultStore, StoreStats};
use lowvcc_core::{
    speedup, MechanismComparison, Parallelism, SimConfig, SimResult, Simulator, SuiteResult,
};
use lowvcc_serve::Daemon;
use lowvcc_sram::PAPER_SWEEP;
use lowvcc_trace::{TraceSpec, WorkloadFamily};

use crate::client::{normalized, Client, Req, Served, OPS};
use crate::layers::{self, csv_digest, Metrics, CSV_FILES};
use crate::trace::{SpanId, Tracer};
use crate::util::{fnv1a64, iq_mean, median, peak_rss_mb, quantile, Rng, Scratch};

type Res<T> = Result<T, Box<dyn Error>>;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_SAMPLES: usize = 10;
/// `serve_warm` set-ups (each warms a store from scratch).
const WARM_SETUP_SAMPLES: usize = 3;
/// Fewest timed repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Requests each `serve_warm` client sends per round.
const WARM_ROUND_PER_CLIENT: usize = 250;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExperimentsCold,
    ServeCold,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ExperimentsCold,
        Workload::ServeCold,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExperimentsCold => "experiments_cold",
            Workload::ServeCold => "serve_cold",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The latency percentile `req_tail_ms` reports per unit of work: the
    /// 99th of a `serve_warm` round's 500 requests (inside the 10%
    /// full-grid class), the 90th of a `serve_cold` session's 32 (its
    /// 99th is the single slowest request, which swings with where the
    /// permutation puts the full sweep). A `run_all` is one sample.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::ServeCold => 0.90,
            Workload::ExperimentsCold | Workload::ServeWarm => 0.99,
        }
    }

    /// `(traces per family, uops per trace)`; `toy` is the self-test size.
    pub fn shape(self, toy: bool) -> (u32, usize) {
        match (self, toy) {
            (Workload::ExperimentsCold, false) => (1, 200_000),
            (Workload::ServeCold, false) => (1, 20_000),
            (Workload::ServeWarm, false) => (7, 2_000),
            (Workload::ExperimentsCold, true) => (1, 3_000),
            (Workload::ServeCold, true) => (1, 1_500),
            (Workload::ServeWarm, true) => (2, 500),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
    /// Recorded digest of the outputs for this seed, when there is one.
    pub expected: Option<u64>,
    /// Re-simulate a sample of operating points with the reference
    /// stepper.
    pub naive: bool,
    pub nproc: usize,
}

impl Params {
    fn clients(&self) -> usize {
        self.nproc.clamp(1, 2)
    }

    /// Fewest timed units of work; `--seconds 0` asks for exactly one.
    fn min_reps(&self) -> usize {
        if self.seconds > 0.0 {
            MIN_REPS
        } else {
            1
        }
    }

    /// Whether to start another unit of work after `done` units, the last
    /// taking `last_s`, `elapsed_s` into the timed phase: at least
    /// [`MIN_REPS`], then until the phase ends closest to `--seconds`.
    fn more(&self, done: usize, elapsed_s: f64, last_s: f64) -> bool {
        done < self.min_reps() || elapsed_s + last_s / 2.0 < self.seconds
    }

    /// Set-up repetitions: `full`, or one with `--seconds 0`.
    fn setups(&self, full: usize) -> usize {
        if self.seconds > 0.0 {
            full
        } else {
            1
        }
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub digest: u64,
    pub notes: Vec<String>,
}

/// Counts checked operations and the ones that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), what);
    }

    fn count(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 20 {
            self.notes.push(format!("FAILED ({failed}): {}", what()));
        }
    }
}

/// The suite for a seed: every family, trace seeds drawn from `seed`.
fn specs_for(workload: Workload, seed: u64, toy: bool) -> Vec<TraceSpec> {
    let (per_family, len) = workload.shape(toy);
    let mut rng = Rng::new(seed, 0x7ace);
    WorkloadFamily::all()
        .into_iter()
        .flat_map(|family| {
            (0..per_family)
                .map(|_| TraceSpec::new(family, rng.next_u64() >> 16, len))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The unambiguous suite label, e.g. `7×200000 uops`.
pub fn suite_label(p: &Params) -> String {
    let (per_family, len) = p.workload.shape(p.toy);
    format!(
        "{}×{len} uops",
        per_family as usize * WorkloadFamily::all().len()
    )
}

/// Synthesizes the workload's suite into a context with the CLI's
/// default engine parallelism.
fn build_ctx(p: &Params) -> Res<ExperimentContext> {
    let specs = specs_for(p.workload, p.seed, p.toy);
    Ok(ExperimentContext::from_specs(&specs, &suite_label(p))?
        .with_parallelism(Parallelism::threads(p.nproc)))
}

/// One timed unit of work: its operation latencies (ms) and wall time (s).
type Unit = (Vec<f64>, f64);

/// `run_s` (median), `req_tail_ms` and `req_per_s` (interquartile means)
/// over units of work, so a slow stretch of the host during part of a
/// run moves them little. A `serve_cold` session's tail depends on where
/// its permutation puts the full sweep, which gives two modes: hence the
/// interquartile mean rather than the median. The `req.*` entries pool
/// every latency sample: the per-layer view.
fn unit_metrics(workload: Workload, units: &[Unit], m: &mut Metrics) {
    let per_unit = |f: &dyn Fn(&Unit) -> f64| units.iter().map(f).collect::<Vec<_>>();
    let tail = workload.tail_quantile();
    m.insert("run_s".into(), median(&per_unit(&|u| u.1)));
    m.insert(
        "req_tail_ms".into(),
        iq_mean(&per_unit(&|u| quantile(&u.0, tail))),
    );
    m.insert(
        "req_per_s".into(),
        iq_mean(&per_unit(&|u| u.0.len() as f64 / u.1.max(1e-9))),
    );
    let all: Vec<f64> = units.iter().flat_map(|u| u.0.iter().copied()).collect();
    m.insert("req.p50_ms".into(), quantile(&all, 0.50));
    m.insert("req.p90_ms".into(), quantile(&all, 0.90));
    m.insert("req.p99_ms".into(), quantile(&all, 0.99));
    m.insert("req.samples".into(), all.len() as f64);
}

/// One grid point recomputed with the reference stepper
/// (`Simulator::run_naive`), traces spread over `nproc` threads.
fn naive_point(ctx: &ExperimentContext, index: usize, nproc: usize) -> Res<SweepPoint> {
    let vcc = PAPER_SWEEP
        .iter()
        .nth(index)
        .ok_or("grid index out of range")?;
    let (base, iraw) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, vcc);
    let suite = |cfg: &SimConfig| -> Res<SuiteResult> {
        let workers = nproc.clamp(1, ctx.suite.len().max(1));
        let mut slots: Vec<Option<SimResult>> = vec![None; ctx.suite.len()];
        std::thread::scope(|s| -> Res<()> {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || -> Result<Vec<(usize, SimResult)>, String> {
                        let sim = Simulator::new(cfg.clone()).map_err(|e| e.to_string())?;
                        (w..ctx.suite.len())
                            .step_by(workers)
                            .map(|i| {
                                Ok((i, sim.run_naive(&ctx.suite[i]).map_err(|e| e.to_string())?))
                            })
                            .collect()
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().map_err(|_| "naive worker panicked")?? {
                    slots[i] = Some(r);
                }
            }
            Ok(())
        })?;
        Ok(SuiteResult {
            per_trace: ctx
                .suite
                .iter()
                .map(|t| t.name.clone())
                .zip(slots.into_iter().map(|s| s.expect("every trace simulated")))
                .collect(),
        })
    };
    let (baseline, iraw) = (suite(&base)?, suite(&iraw)?);
    let cmp = MechanismComparison {
        vcc,
        frequency_gain: ctx.timing.frequency_gain(vcc),
        speedup: speedup(&iraw, &baseline),
        baseline,
        iraw,
    };
    Ok(point_from(ctx, &cmp))
}

/// Grid indices the reference stepper re-checks for this seed.
fn naive_sample(seed: u64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..PAPER_SWEEP.iter().count()).collect();
    Rng::new(seed, 0xc4ec).shuffle(&mut idx);
    idx.truncate(n);
    idx
}

pub fn run(p: &Params) -> Res<Outcome> {
    let scratch = Scratch::new(p.workload.name())?;
    let tracer = Tracer::new(p.trace);
    let mut out = match p.workload {
        Workload::ExperimentsCold => experiments_cold(p, &scratch, &tracer)?,
        Workload::ServeCold => serve_cold(p, &scratch, &tracer)?,
        Workload::ServeWarm => serve_warm(p, &scratch, &tracer)?,
    };
    if p.trace {
        let req: Vec<(String, f64)> = out
            .e2e
            .iter()
            .filter(|(k, _)| k.starts_with("req."))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.layers.extend(req);
        out.layers.insert(
            "error_rate".into(),
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        let times = tracer.layer_times();
        let summary: Vec<String> = times
            .iter()
            .map(|(name, t)| format!("{name}={:.6}s/{}", t.self_s, t.count))
            .collect();
        out.notes
            .push(format!("self time per span: {}", summary.join(" ")));
        let path = std::path::Path::new(crate::util::OUT_ROOT)
            .join("traces")
            .join(format!("{}-seed{}.jsonl", p.workload.name(), p.seed));
        let header = format!(
            "{{\"workload\": {}, \"seed\": {}, \"suite\": {}}}",
            json::string(p.workload.name()),
            p.seed,
            json::string(&suite_label(p))
        );
        tracer.write(&path, &header)?;
        out.notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(out)
}

/// Zero for every serve-layer metric: the workload sends no requests.
fn no_serve_layer(m: &mut Metrics) {
    for k in [
        "store.hits",
        "store.misses",
        "store.coalesced",
        "store.hit_ratio",
        "store.retries",
        "store.write_failures",
        "store.quarantined",
        "serve.queue_peak",
    ] {
        m.insert(k.into(), 0.0);
    }
    for op in OPS {
        for kind in ["handle_us", "transport_us", "server_p50_us"] {
            m.insert(format!("serve.{kind}.{op}"), 0.0);
        }
    }
}

fn experiments_cold(p: &Params, scratch: &Scratch, tracer: &Tracer) -> Res<Outcome> {
    let mut setup = Vec::new();
    let mut ctx = None;
    for _ in 0..p.setups(SETUP_SAMPLES) {
        // Drop the previous suite first: one suite resident at a time.
        drop(ctx.take());
        let t0 = Instant::now();
        ctx = Some(build_ctx(p)?);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let ctx = ctx.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut lat = Vec::new();
    let mut muops = Vec::new();
    let mut first: Option<(u64, Vec<SweepPoint>)> = None;
    let start = Instant::now();
    while p.more(
        lat.len(),
        start.elapsed().as_secs_f64(),
        lat.last().copied().unwrap_or(0.0),
    ) {
        let dir = scratch.child(&format!("csv-{}", lat.len()));
        fs::create_dir_all(&dir)?;
        let t0 = Instant::now();
        let result = run_all(&ctx, &dir);
        lat.push(t0.elapsed().as_secs_f64());
        let files = CSV_FILES.len() as u64;
        match result {
            Ok(summary) => {
                muops.push(summary.uops_per_second() / 1e6);
                let (digest, missing) = csv_digest(&dir);
                tally.count(files, missing, || format!("{missing} CSV files missing"));
                match &first {
                    None => first = Some((digest, summary.sweep)),
                    Some((d0, _)) => tally.check(digest == *d0, || {
                        "CSV bytes differ between repetitions".into()
                    }),
                }
            }
            Err(e) => tally.count(files, files, || format!("run_all failed: {e}")),
        }
        fs::remove_dir_all(&dir)?;
    }
    let rss = peak_rss_mb();

    let (digest, points) = first.ok_or("run_all never succeeded")?;
    check_digest(p, digest, &mut tally);
    if p.naive {
        for i in naive_sample(p.seed, 1) {
            let reference = naive_point(&ctx, i, p.nproc)?;
            tally.check(reference == points[i], || {
                format!("sweep point {i} differs from the reference stepper")
            });
        }
    }

    let mut e2e = Metrics::new();
    e2e.insert("setup_s".into(), median(&setup));
    let units: Vec<Unit> = lat.iter().map(|&s| (vec![s * 1e3], s)).collect();
    unit_metrics(p.workload, &units, &mut e2e);
    e2e.insert("peak_rss_mb".into(), rss);

    let mut lay = Metrics::new();
    if p.trace {
        let dir = scratch.child("csv-traced");
        fs::create_dir_all(&dir)?;
        let replay = layers::replay_run_all(&ctx, &dir, tracer)?;
        tally.check(csv_digest(&dir).0 == digest, || {
            "traced replay CSVs differ from run_all's".into()
        });
        lay.extend(replay.phases);
        lay.insert("tracing_overhead_s".into(), replay.wall_s - median(&lat));
        lay.insert("sim_muops_per_s".into(), median(&muops));
        no_serve_layer(&mut lay);
        let lines: Vec<String> = Req::all().into_iter().map(Req::line).collect();
        let (a, f) = layers::measure(
            &ctx,
            p.nproc,
            &replay.points,
            &lines,
            scratch,
            tracer,
            &mut lay,
        )?;
        tally.count(a, f, || "layer self-checks".into());
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        e2e,
        layers: lay,
        digest,
        notes: tally.notes,
    })
}

fn check_digest(p: &Params, digest: u64, tally: &mut Tally) {
    if let Some(expected) = p.expected {
        tally.check(digest == expected, || {
            format!("output digest {digest:016x} differs from the recorded {expected:016x}")
        });
    }
}

/// Digest of the normalized response to every distinct request.
fn response_digest(responses: &BTreeMap<Req, String>) -> u64 {
    let mut bytes = Vec::new();
    for (req, resp) in responses {
        bytes.extend_from_slice(req.line().as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(resp.as_bytes());
        bytes.push(b'\n');
    }
    fnv1a64(&bytes)
}

/// One client's timed requests: `(request, latency ms, response)`.
type ClientLog = Vec<(Req, f64, String)>;

/// Runs one closed loop per client over its request list; returns the
/// makespan (first send to last response) and each client's log.
fn drive(
    clients: &mut [Client],
    orders: &[Vec<(Req, String)>],
    tracer: &Tracer,
    parent: Option<SpanId>,
    request_base: u64,
) -> Res<(f64, Vec<ClientLog>)> {
    let barrier = Barrier::new(clients.len());
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(orders)
            .enumerate()
            .map(|(c, (client, order))| {
                let barrier = &barrier;
                s.spawn(move || -> Result<(Instant, Instant, ClientLog), String> {
                    barrier.wait();
                    let start = Instant::now();
                    let mut log = Vec::with_capacity(order.len());
                    tracer.span("client", parent, None, |span| -> Result<(), String> {
                        for (k, (req, line)) in order.iter().enumerate() {
                            let id = request_base + ((c as u64) << 20) + k as u64;
                            let t0 = Instant::now();
                            let resp = tracer
                                .span("request", span, Some(id), |_| client.call(line))
                                .map_err(|e| e.to_string())?;
                            log.push((*req, t0.elapsed().as_secs_f64() * 1e3, resp));
                        }
                        Ok(())
                    })?;
                    Ok((start, Instant::now(), log))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let first = results.iter().map(|r| r.0).min().ok_or("no clients")?;
    let last = results.iter().map(|r| r.1).max().ok_or("no clients")?;
    let makespan = last.duration_since(first).as_secs_f64();
    Ok((makespan, results.into_iter().map(|r| r.2).collect()))
}

fn connect_all(served: &Served, n: usize) -> Res<Vec<Client>> {
    (0..n)
        .map(|_| -> Res<Client> {
            let mut c = Client::connect(served.addr)?;
            c.call("{\"experiment\": \"ping\"}")?;
            Ok(c)
        })
        .collect()
}

/// `queue_peak` and the per-op server-side p50 (µs) from the daemon's
/// own `metrics` response.
fn server_metrics(client: &mut Client) -> Res<(f64, [f64; 4])> {
    let v = json::parse(&client.call("{\"experiment\": \"metrics\"}")?)?;
    let peak = v
        .get("queue_peak")
        .and_then(json::Value::as_u64)
        .unwrap_or(0) as f64;
    let mut p50 = [0.0; 4];
    for op in v.get("ops").and_then(json::Value::as_array).unwrap_or(&[]) {
        let label = op.get("op").and_then(json::Value::as_str).unwrap_or("");
        if let Some(i) = OPS.iter().position(|o| *o == label) {
            p50[i] = op.get("p50_us").and_then(json::Value::as_u64).unwrap_or(0) as f64;
        }
    }
    Ok((peak, p50))
}

/// Checks every logged response and folds it into `seen` (the first
/// normalized response per request); later responses must match it.
fn check_responses(
    logs: &[ClientLog],
    must_be_cached: bool,
    seen: &mut BTreeMap<Req, String>,
    tally: &mut Tally,
) {
    for (req, _, resp) in logs.iter().flatten() {
        let ok = resp.starts_with("{\"ok\": true");
        let cached_ok = !must_be_cached || resp.contains("\"cached\": true");
        let norm = normalized(resp);
        let same = match seen.get(req) {
            Some(prev) => *prev == norm,
            None => {
                seen.insert(*req, norm);
                true
            }
        };
        tally.check(ok && cached_ok && same, || {
            let head: String = resp.chars().take(120).collect();
            format!("{} -> {head}", req.line())
        });
    }
}

/// Latencies (ms) per op class over every log.
fn per_op_ms(logs: &[ClientLog], out: &mut [Vec<f64>; 4]) {
    for (req, ms, _) in logs.iter().flatten() {
        out[req.op()].push(*ms);
    }
}

/// Replays `lines` through `Daemon::handle_line` in-process and returns
/// the p50 handling time per op class, in µs.
fn handle_replay(daemon: &Daemon, lines: &[(Req, String)], tracer: &Tracer) -> [f64; 4] {
    let mut per_op: [Vec<f64>; 4] = Default::default();
    for (k, (req, line)) in lines.iter().enumerate() {
        let t0 = Instant::now();
        let (resp, _) = tracer.span("serve.handle", None, Some(k as u64), |_| {
            daemon.handle_line(line)
        });
        per_op[req.op()].push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(resp);
    }
    per_op.map(|v| median(&v))
}

/// Client orders interleaved request by request: the sequence one
/// in-process caller replays.
fn interleave(orders: &[Vec<(Req, String)>]) -> Vec<(Req, String)> {
    let longest = orders.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|k| orders.iter().filter_map(move |o| o.get(k).cloned()))
        .collect()
}

fn add_store_stats(total: &mut StoreStats, s: &StoreStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.coalesced += s.coalesced;
    total.retries += s.retries;
    total.write_failures += s.write_failures;
    total.quarantined += s.quarantined;
    total.simulated_uops += s.simulated_uops;
}

/// What a serve workload observed, for its per-layer report.
struct ServeView {
    /// The daemon store counters over the timed phase.
    store: StoreStats,
    /// Client round-trip latencies (ms) per op class.
    client_ms: [Vec<f64>; 4],
    /// `Daemon::handle_line` replay p50 (µs) per op class.
    handle_us: [f64; 4],
    /// `queue_peak` and the server-side p50 (µs) per op class.
    server: (f64, [f64; 4]),
    /// The replayed request lines.
    lines: Vec<String>,
}

/// Per-layer metrics common to both serve workloads.
fn serve_layers(
    p: &Params,
    view: &ServeView,
    scratch: &Scratch,
    tracer: &Tracer,
    tally: &mut Tally,
    lay: &mut Metrics,
) -> Res<()> {
    let ServeView {
        store,
        client_ms,
        handle_us,
        server,
        lines,
    } = view;
    lay.insert("store.hits".into(), store.hits as f64);
    lay.insert("store.misses".into(), store.misses as f64);
    lay.insert("store.coalesced".into(), store.coalesced as f64);
    lay.insert(
        "store.hit_ratio".into(),
        store.hits as f64 / (store.hits + store.misses).max(1) as f64,
    );
    lay.insert("store.retries".into(), store.retries as f64);
    lay.insert("store.write_failures".into(), store.write_failures as f64);
    lay.insert("store.quarantined".into(), store.quarantined as f64);
    lay.insert("serve.queue_peak".into(), server.0);
    for (i, op) in OPS.iter().enumerate() {
        let client_us = median(&client_ms[i]) * 1e3;
        lay.insert(format!("serve.handle_us.{op}"), handle_us[i]);
        lay.insert(format!("serve.transport_us.{op}"), client_us - handle_us[i]);
        lay.insert(format!("serve.server_p50_us.{op}"), server.1[i]);
    }
    // The experiment-assembly layer over this workload's suite.
    let ctx = build_ctx(p)?;
    let dir = scratch.child("csv-layers");
    fs::create_dir_all(&dir)?;
    let replay = layers::replay_run_all(&ctx, &dir, tracer)?;
    lay.extend(replay.phases);
    let (a, f) = layers::measure(&ctx, p.nproc, &replay.points, lines, scratch, tracer, lay)?;
    tally.count(a, f, || "layer self-checks".into());
    Ok(())
}

/// The naive-stepper check against served responses.
fn naive_check_served(p: &Params, responses: &BTreeMap<Req, String>, tally: &mut Tally) -> Res<()> {
    if !p.naive {
        return Ok(());
    }
    let ctx = build_ctx(p)?;
    for i in naive_sample(p.seed, 2) {
        let rendered = point_json(&naive_point(&ctx, i, p.nproc)?);
        let single = responses
            .get(&Req::Point(i))
            .is_some_and(|r| r.contains(&format!("\"point\": {rendered}")));
        let full = responses
            .get(&Req::Full)
            .is_some_and(|r| r.contains(&rendered));
        tally.check(single, || {
            format!("served point {i} differs from the reference stepper")
        });
        tally.check(full, || {
            format!("full sweep point {i} differs from the reference stepper")
        });
    }
    Ok(())
}

struct ColdSession {
    setup_s: f64,
    makespan_s: f64,
    logs: Vec<ClientLog>,
    orders: Vec<Vec<(Req, String)>>,
    store: StoreStats,
    server: (f64, [f64; 4]),
}

/// One cold session: a fresh daemon on an empty on-disk store; every
/// client sends its own seeded permutation of all distinct requests.
fn cold_session(p: &Params, index: u64, scratch: &Scratch, tracer: &Tracer) -> Res<ColdSession> {
    let dir = scratch.child(&format!("store-{index}"));
    let session = tracer.span("session", None, Some(index << 40), |root| -> Res<_> {
        let t0 = Instant::now();
        let ctx = tracer.span("setup.synth", root, None, |_| build_ctx(p))?;
        let store = tracer.span("setup.store_open", root, None, |_| ResultStore::open(&dir))?;
        let (served, mut clients) =
            tracer.span("setup.daemon_start", root, None, |_| -> Res<_> {
                let served = Served::start(ctx, store)?;
                let clients = connect_all(&served, p.clients())?;
                Ok((served, clients))
            })?;
        let setup_s = t0.elapsed().as_secs_f64();
        let orders: Vec<Vec<(Req, String)>> = (0..clients.len() as u64)
            .map(|c| {
                let mut o = Req::all();
                Rng::new(p.seed, (index << 8) | c).shuffle(&mut o);
                o.into_iter().map(|r| (r, r.line())).collect()
            })
            .collect();
        let (makespan_s, logs) = drive(&mut clients, &orders, tracer, root, index << 40)?;
        let server = server_metrics(&mut clients[0])?;
        let store = served.store().stats();
        drop(clients);
        served.stop()?;
        Ok(ColdSession {
            setup_s,
            makespan_s,
            logs,
            orders,
            store,
            server,
        })
    })?;
    fs::remove_dir_all(&dir)?;
    Ok(session)
}

fn serve_cold(p: &Params, scratch: &Scratch, tracer: &Tracer) -> Res<Outcome> {
    let off = Tracer::new(false);
    let mut tally = Tally::default();
    let mut sessions = Vec::new();
    let mut digests = Vec::new();
    let mut first_responses = BTreeMap::new();
    let start = Instant::now();
    while p.more(
        sessions.len(),
        start.elapsed().as_secs_f64(),
        sessions.last().map_or(0.0, |s: &ColdSession| s.makespan_s),
    ) {
        let s = cold_session(p, sessions.len() as u64, scratch, &off)?;
        let mut seen = BTreeMap::new();
        check_responses(&s.logs, false, &mut seen, &mut tally);
        digests.push(response_digest(&seen));
        if first_responses.is_empty() {
            first_responses = seen;
        }
        sessions.push(s);
    }
    let rss = peak_rss_mb();

    let digest = digests[0];
    for d in &digests[1..] {
        tally.check(*d == digest, || "responses differ between sessions".into());
    }
    check_digest(p, digest, &mut tally);
    naive_check_served(p, &first_responses, &mut tally)?;

    let setup: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    let makespans: Vec<f64> = sessions.iter().map(|s| s.makespan_s).collect();
    let units: Vec<Unit> = sessions
        .iter()
        .map(|s| (s.logs.iter().flatten().map(|r| r.1).collect(), s.makespan_s))
        .collect();
    let mut e2e = Metrics::new();
    e2e.insert("setup_s".into(), median(&setup));
    unit_metrics(p.workload, &units, &mut e2e);
    e2e.insert("peak_rss_mb".into(), rss);

    let mut lay = Metrics::new();
    if p.trace {
        let traced = cold_session(p, sessions.len() as u64, scratch, tracer)?;
        lay.insert(
            "tracing_overhead_s".into(),
            traced.makespan_s - median(&makespans),
        );
        let muops: Vec<f64> = sessions
            .iter()
            .map(|s| s.store.simulated_uops as f64 / s.makespan_s.max(1e-9) / 1e6)
            .collect();
        lay.insert("sim_muops_per_s".into(), median(&muops));
        let mut store = StoreStats::default();
        let mut client_ms: [Vec<f64>; 4] = Default::default();
        for s in &sessions {
            add_store_stats(&mut store, &s.store);
            per_op_ms(&s.logs, &mut client_ms);
        }
        // Cold replay of the traced session's sequence on a fresh store.
        let dir = scratch.child("store-replay");
        let ctx = build_ctx(p)?;
        let daemon = Daemon::new(ctx.with_cache(Arc::new(ResultStore::open(&dir)?)));
        let sequence = interleave(&traced.orders);
        let handle_us = handle_replay(&daemon, &sequence, tracer);
        drop(daemon);
        fs::remove_dir_all(&dir)?;
        let lines: Vec<String> = sequence.into_iter().map(|(_, l)| l).collect();
        let server = sessions.last().map_or((0.0, [0.0; 4]), |s| s.server);
        let view = ServeView {
            store,
            client_ms,
            handle_us,
            server,
            lines,
        };
        serve_layers(p, &view, scratch, tracer, &mut tally, &mut lay)?;
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        e2e,
        layers: lay,
        digest,
        notes: tally.notes,
    })
}

/// The `serve_warm` request mix: 70% single points, 10% each full
/// sweep, stalls and Table 1.
fn warm_order(seed: u64, round: u64, client: u64, n: usize) -> Vec<(Req, String)> {
    let mut rng = Rng::new(seed, (round << 8) | client | (1 << 62));
    let points = PAPER_SWEEP.iter().count();
    (0..n)
        .map(|_| {
            let req = match rng.below(10) {
                0..=6 => Req::Point(rng.below(points)),
                7 => Req::Full,
                8 => Req::Stalls,
                _ => Req::Table1,
            };
            (req, req.line())
        })
        .collect()
}

/// Synthesizes the suite, warms a fresh on-disk store with
/// `Daemon::warm`, then starts a fresh daemon over that store.
fn warm_setup(p: &Params, scratch: &Scratch, index: usize) -> Res<(Served, Vec<Client>)> {
    let ctx = build_ctx(p)?;
    let dir = scratch.child(&format!("warm-{index}"));
    Daemon::new(ctx.clone().with_cache(Arc::new(ResultStore::open(&dir)?))).warm()?;
    let served = Served::start(ctx, ResultStore::open(&dir)?)?;
    let clients = connect_all(&served, p.clients())?;
    Ok((served, clients))
}

fn serve_warm(p: &Params, scratch: &Scratch, tracer: &Tracer) -> Res<Outcome> {
    let mut setup = Vec::new();
    let mut live = None;
    for k in 0..p.setups(WARM_SETUP_SAMPLES) {
        if let Some((served, clients)) = live.take() {
            drop::<Vec<Client>>(clients);
            Served::stop(served)?;
        }
        let t0 = Instant::now();
        live = Some(warm_setup(p, scratch, k)?);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let (served, mut clients) = live.expect("at least one set-up");

    let off = Tracer::new(false);
    let mut tally = Tally::default();
    let mut seen = BTreeMap::new();
    let mut rounds = Vec::new();
    let mut units: Vec<Unit> = Vec::new();
    let mut client_ms: [Vec<f64>; 4] = Default::default();
    let mut first_orders = Vec::new();
    let start = Instant::now();
    while p.more(
        rounds.len(),
        start.elapsed().as_secs_f64(),
        rounds.last().copied().unwrap_or(0.0),
    ) {
        let r = rounds.len() as u64;
        let orders: Vec<_> = (0..clients.len() as u64)
            .map(|c| warm_order(p.seed, r, c, WARM_ROUND_PER_CLIENT))
            .collect();
        let (makespan, logs) = drive(&mut clients, &orders, &off, None, r << 40)?;
        rounds.push(makespan);
        check_responses(&logs, true, &mut seen, &mut tally);
        units.push((logs.iter().flatten().map(|l| l.1).collect(), makespan));
        per_op_ms(&logs, &mut client_ms);
        if first_orders.is_empty() {
            first_orders = orders;
        }
    }
    let rss = peak_rss_mb();

    // Every distinct request once more, outside the timed phase: the
    // reference set for the digest and the naive check.
    let mut canonical = BTreeMap::new();
    for req in Req::all() {
        let norm = normalized(&clients[0].call(&req.line())?);
        if let Some(prev) = seen.get(&req) {
            tally.check(*prev == norm, || {
                format!("{} answered inconsistently", req.line())
            });
        }
        canonical.insert(req, norm);
    }
    let digest = response_digest(&canonical);
    check_digest(p, digest, &mut tally);
    naive_check_served(p, &canonical, &mut tally)?;

    let mut e2e = Metrics::new();
    e2e.insert("setup_s".into(), median(&setup));
    unit_metrics(p.workload, &units, &mut e2e);
    e2e.insert("peak_rss_mb".into(), rss);

    let mut lay = Metrics::new();
    if p.trace {
        let r = rounds.len() as u64;
        let orders: Vec<_> = (0..clients.len() as u64)
            .map(|c| warm_order(p.seed, r, c, WARM_ROUND_PER_CLIENT))
            .collect();
        let (traced, logs) = tracer.span("round", None, Some(r << 40), |root| {
            drive(&mut clients, &orders, tracer, root, r << 40)
        })?;
        check_responses(&logs, true, &mut seen, &mut tally);
        lay.insert("tracing_overhead_s".into(), traced - median(&rounds));
        let simulated = served.store().stats().simulated_uops as f64;
        lay.insert(
            "sim_muops_per_s".into(),
            simulated / rounds.iter().sum::<f64>().max(1e-9) / 1e6,
        );
        let handle_us = handle_replay(&served.daemon, &interleave(&first_orders), tracer);
        let server = server_metrics(&mut clients[0])?;
        let store = served.store().stats();
        let lines: Vec<String> = interleave(&first_orders)
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        let view = ServeView {
            store,
            client_ms,
            handle_us,
            server,
            lines,
        };
        serve_layers(p, &view, scratch, tracer, &mut tally, &mut lay)?;
    }
    drop(clients);
    served.stop()?;
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        e2e,
        layers: lay,
        digest,
        notes: tally.notes,
    })
}
