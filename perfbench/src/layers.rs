//! Per-layer measurements, made in the traced run from the benchmark's
//! side of each layer's public interface: trace synthesis and decode,
//! the engine, canonical encoding, the result store, the experiment
//! assembly and the JSON layer. Every measurement runs on the
//! workload's own trace suite.

use std::collections::BTreeMap;
use std::error::Error;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use lowvcc_bench::experiments::{
    fig1, fig11a, point_from, point_json, scalars, stalls, sweep, table1, SweepPoint,
};
use lowvcc_bench::{ExperimentContext, ResultStore, TextTable};
use lowvcc_core::{
    decode_sim_result, encode_sim_result, sim_key, speedup, EngineWorkspace, MechanismComparison,
    Parallelism, SimConfig, SimResult, SuiteResult,
};
use lowvcc_serve::parse_request;
use lowvcc_sram::Millivolts;
use lowvcc_trace::TraceArena;

use crate::trace::{SpanId, Tracer};
use crate::util::Scratch;

pub type Metrics = BTreeMap<String, f64>;
type Res<T> = Result<T, Box<dyn Error>>;

/// The CSV files one `run_all` writes.
pub const CSV_FILES: [&str; 8] = [
    "fig1.csv",
    "fig11a.csv",
    "fig11b.csv",
    "fig12.csv",
    "table1_qualitative.csv",
    "table1_quantitative.csv",
    "stalls_575mv.csv",
    "scalars.csv",
];

/// Digest of the CSVs under `dir` (name and bytes, in [`CSV_FILES`]
/// order) and the number of expected files that are missing.
pub fn csv_digest(dir: &Path) -> (u64, u64) {
    let mut bytes = Vec::new();
    let mut missing = 0;
    for name in CSV_FILES {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        match fs::read(dir.join(name)) {
            Ok(b) => bytes.extend_from_slice(&b),
            Err(_) => missing += 1,
        }
        bytes.push(0);
    }
    (crate::util::fnv1a64(&bytes), missing)
}

/// Phase times of one traced `run_all` replay.
pub struct Replay {
    pub wall_s: f64,
    pub points: Vec<SweepPoint>,
    pub phases: Metrics,
}

/// `experiments::run_all`, step by step through the same public
/// functions, with a span around each layer call: the traced twin of the
/// `experiments_cold` operation. Writes the same CSVs to `out`.
pub fn replay_run_all(ctx: &ExperimentContext, out: &Path, tracer: &Tracer) -> Res<Replay> {
    let mut phases = Metrics::new();
    let mut add = |k: &str, s: f64| *phases.entry(k.to_string()).or_default() += s;
    let start = Instant::now();
    let points = tracer.span("run_all", None, None, |root| -> Res<Vec<SweepPoint>> {
        let mut report = String::new();
        let mut emit = |t: &TextTable, name: &str, add: &mut dyn FnMut(&str, f64)| -> Res<()> {
            let t0 = Instant::now();
            tracer.span("report.csv_write", root, None, |_| {
                t.write_csv(&out.join(name))
            })?;
            add("experiments.csv_write_s", t0.elapsed().as_secs_f64());
            tracer.span("report.render", root, None, |_| {
                report.push_str(&t.render())
            });
            Ok(())
        };
        let t0 = Instant::now();
        let (f1, f11a) = tracer.span("experiments.figures", root, None, |_| {
            (fig1::table(ctx), fig11a::table(ctx))
        });
        add("experiments.figures_s", t0.elapsed().as_secs_f64());
        emit(&f1, "fig1.csv", &mut add)?;
        emit(&f11a, "fig11a.csv", &mut add)?;

        let t0 = Instant::now();
        let points = tracer.span("experiments.sweep", root, None, |_| sweep::run_sweep(ctx))?;
        add("experiments.sweep_s", t0.elapsed().as_secs_f64());
        emit(&sweep::fig11b_table(&points), "fig11b.csv", &mut add)?;
        emit(&sweep::fig12_table(&points), "fig12.csv", &mut add)?;

        let t0 = Instant::now();
        let (qual, quant) = tracer.span("experiments.table1", root, None, |_| {
            table1::quantitative(ctx).map(|q| (table1::qualitative(), q))
        })?;
        add("experiments.table1_s", t0.elapsed().as_secs_f64());
        emit(&qual, "table1_qualitative.csv", &mut add)?;
        emit(&quant, "table1_quantitative.csv", &mut add)?;

        let t0 = Instant::now();
        let (st, _) = tracer.span("experiments.stalls", root, None, |_| stalls::table(ctx))?;
        add("experiments.stalls_s", t0.elapsed().as_secs_f64());
        emit(&st, "stalls_575mv.csv", &mut add)?;

        let sc = tracer.span("experiments.scalars", root, None, |_| {
            scalars::table(ctx, &points)
        })?;
        emit(&sc, "scalars.csv", &mut add)?;
        black_box(report);
        Ok(points)
    })?;
    Ok(Replay {
        wall_s: start.elapsed().as_secs_f64(),
        points,
        phases,
    })
}

/// Mean microseconds per call of `f` over `n` calls.
fn mean_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

/// The engine configurations the core measurements run: the mechanism
/// pair at 575 mV (the stall-study voltage) and at 500 mV (Table 1).
pub fn core_configs(ctx: &ExperimentContext) -> Vec<SimConfig> {
    [575, 500]
        .into_iter()
        .flat_map(|mv| {
            let vcc = Millivolts::new(mv).expect("grid voltage");
            let (base, iraw) = SimConfig::mechanism_pair(ctx.core, &ctx.timing, vcc);
            [base, iraw]
        })
        .collect()
}

/// Trace, core, canon, store, experiment-assembly and JSON measurements
/// on the workload's suite. Returns `(attempted, failed)` checks: the
/// batched engine must agree with the sequential one and the store must
/// return what was put.
pub fn measure(
    ctx: &ExperimentContext,
    nproc: usize,
    points: &[SweepPoint],
    request_lines: &[String],
    scratch: &Scratch,
    tracer: &Tracer,
    m: &mut Metrics,
) -> Res<(u64, u64)> {
    let parent: Option<SpanId> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    // trace: synthesis and decode.
    let t0 = Instant::now();
    let traces = tracer.span("trace.synth", parent, None, |_| {
        ctx.specs
            .iter()
            .map(|s| s.build())
            .collect::<Result<Vec<_>, _>>()
    })?;
    put("trace.synth_s", t0.elapsed().as_secs_f64());
    put(
        "trace.synth_uops",
        traces.iter().map(|t| t.len() as f64).sum(),
    );
    let t0 = Instant::now();
    let arenas: Vec<TraceArena> = tracer.span("trace.arena_decode", parent, None, |_| {
        traces.iter().map(TraceArena::from_trace).collect()
    });
    let decode_s = t0.elapsed().as_secs_f64();
    put("trace.arena_decode_s", decode_s);

    // core: the engine, sequentially, one workspace.
    let cfgs = core_configs(ctx);
    let mut ws = EngineWorkspace::new();
    let mut grid: Vec<Vec<SimResult>> = vec![Vec::new(); cfgs.len()];
    let t0 = Instant::now();
    tracer.span("core.engine", parent, None, |_| -> Res<()> {
        for arena in &arenas {
            for (c, cfg) in cfgs.iter().enumerate() {
                grid[c].push(ws.run(cfg, arena)?);
            }
        }
        Ok(())
    })?;
    let engine_s = t0.elapsed().as_secs_f64();
    let all = || grid.iter().flatten();
    let uops: u64 = all().map(|r| r.stats.instructions).sum();
    let cycles: u64 = all().map(|r| r.stats.cycles).sum();
    put("core.engine_s", engine_s);
    put("core.engine_runs", (cfgs.len() * arenas.len()) as f64);
    put("core.sim_uops", uops as f64);
    put("core.sim_cycles", cycles as f64);
    put(
        "core.ns_per_sim_cycle",
        engine_s * 1e9 / cycles.max(1) as f64,
    );
    put("core.ns_per_uop", engine_s * 1e9 / uops.max(1) as f64);
    let sum = |f: &dyn Fn(&SimResult) -> u64| all().map(f).sum::<u64>() as f64;
    put(
        "core.iraw_delayed_uops",
        sum(&|r| r.stats.iraw_delayed_instructions),
    );
    put("core.stall_rf_cycles", sum(&|r| r.stats.stalls.rf_iraw));
    put("core.stall_iq_cycles", sum(&|r| r.stats.stalls.iq_iraw));
    put(
        "core.stall_dl0_cycles",
        sum(&|r| r.stats.stalls.dl0_total()),
    );
    put(
        "core.stall_other_cycles",
        sum(&|r| r.stats.stalls.other_fill),
    );

    // core: the parallel batch runner over the same grid.
    let t0 = Instant::now();
    let batch = tracer.span("core.batch", parent, None, |_| {
        lowvcc_core::run_suite_batch(&cfgs, &ctx.suite, Parallelism::threads(nproc))
    })?;
    let batch_s = t0.elapsed().as_secs_f64();
    put("core.batch_wall_s", batch_s);
    put(
        "core.parallel_speedup",
        (decode_s + engine_s) / batch_s.max(1e-9),
    );
    for (suite, seq) in batch.iter().zip(&grid) {
        for ((_, b), s) in suite.per_trace.iter().zip(seq) {
            attempted += 1;
            failed += u64::from(b != s);
        }
    }

    // core: canonical keys and records.
    let n = 20_000;
    let pairs: Vec<(usize, usize)> = (0..cfgs.len())
        .flat_map(|c| (0..ctx.specs.len()).map(move |t| (c, t)))
        .collect();
    let us = tracer.span("core.canon", parent, None, |_| {
        let key = mean_us(n, |i| {
            let (c, t) = pairs[i % pairs.len()];
            black_box(sim_key(black_box(&cfgs[c]), &ctx.specs[t]));
        });
        let encoded: Vec<Vec<u8>> = all().map(encode_sim_result).collect();
        let enc = mean_us(n, |i| {
            let (c, t) = pairs[i % pairs.len()];
            black_box(encode_sim_result(black_box(&grid[c][t])));
        });
        let dec = mean_us(n, |i| {
            black_box(decode_sim_result(black_box(&encoded[i % encoded.len()])).ok());
        });
        (key, enc, dec)
    });
    put("core.sim_key_us", us.0);
    put("core.canon_encode_us", us.1);
    put("core.canon_decode_us", us.2);

    // bench.store: put (with publish), LRU get, get from a fresh open.
    let dir = scratch.child("layer-store");
    let keyed: Vec<_> = pairs
        .iter()
        .map(|&(c, t)| (sim_key(&cfgs[c], &ctx.specs[t]), &grid[c][t]))
        .collect();
    let (put_us, mem_us, disk_us, mismatches) =
        tracer.span("store", parent, None, |_| -> Res<_> {
            let store = ResultStore::open(&dir)?;
            let put_us = mean_us(keyed.len(), |i| store.put(keyed[i].0, keyed[i].1));
            let mut bad = 0u64;
            let mem_us = mean_us(keyed.len(), |i| {
                bad += u64::from(store.get(keyed[i].0).as_ref() != Some(keyed[i].1));
            });
            drop(store);
            let fresh = ResultStore::open(&dir)?;
            let disk_us = mean_us(keyed.len(), |i| {
                bad += u64::from(fresh.get(keyed[i].0).as_ref() != Some(keyed[i].1));
            });
            Ok((put_us, mem_us, disk_us, bad))
        })?;
    let _ = fs::remove_dir_all(&dir);
    attempted += 2 * keyed.len() as u64;
    failed += mismatches;
    put("store.put_us", put_us);
    put("store.get_mem_us", mem_us);
    put("store.get_disk_us", disk_us);

    // bench.experiments: sweep-point assembly from a finished comparison.
    let named = |c: usize| SuiteResult {
        per_trace: traces
            .iter()
            .map(|t| t.name.clone())
            .zip(grid[c].iter().cloned())
            .collect(),
    };
    let (baseline, iraw) = (named(0), named(1));
    let cmp = MechanismComparison {
        vcc: Millivolts::new(575).expect("grid voltage"),
        frequency_gain: ctx
            .timing
            .frequency_gain(Millivolts::new(575).expect("grid voltage")),
        speedup: speedup(&iraw, &baseline),
        baseline,
        iraw,
    };
    let us = tracer.span("experiments.point_from", parent, None, |_| {
        mean_us(2_000, |_| {
            black_box(point_from(ctx, black_box(&cmp)));
        })
    });
    put("experiments.point_from_us", us);

    // bench.json: request parsing and point rendering.
    let (parse, render) = tracer.span("json", parent, None, |_| {
        let parse = mean_us(n, |i| {
            black_box(parse_request(black_box(&request_lines[i % request_lines.len()])).ok());
        });
        let render = mean_us(n, |i| {
            black_box(point_json(black_box(&points[i % points.len()])));
        });
        (parse, render)
    });
    put("json.parse_us", parse);
    put("json.render_us", render);
    Ok((attempted, failed))
}
