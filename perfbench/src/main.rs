//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds N --trace 0|1
//! perfbench --selftest
//! perfbench --record-digests FIRST-LAST
//! ```
//!
//! Links the workspace crates and times calls into their public
//! functions from outside the program. The seed makes the inputs (trace
//! specs and request lines); the program sees nothing else. Workloads:
//!
//! - `experiments_cold`: `experiments::run_all` on 7 traces × 200 000
//!   uops, uncached, CSVs into a scratch directory;
//! - `serve_cold`: sessions of a fresh in-process daemon on an empty
//!   on-disk store over 7 × 20 000 uops, two closed-loop TCP clients
//!   each sending a permutation of all 16 distinct requests;
//! - `serve_warm`: a fresh daemon over a store warmed by `Daemon::warm`
//!   (49 × 2 000 uops), two closed-loop clients sending a 70/10/10/10
//!   mix of single points, full sweeps, stalls and Table 1.
//!
//! Each run prints human-readable lines, then as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. See `README.md` beside this package.

mod client;
mod layers;
mod trace;
mod util;
mod workloads;

use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode};

use lowvcc_bench::json;

use crate::client::OPS;
use crate::workloads::{Outcome, Params, Workload};

/// End-to-end metrics (tracing off), with units.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("req_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with units (the `serve.*.<op>`
/// families are expanded by [`layer_metrics`]).
const LAYERS: [(&str, &str); 45] = [
    ("trace.synth_s", "s"),
    ("trace.synth_uops", "count"),
    ("trace.arena_decode_s", "s"),
    ("core.engine_s", "s"),
    ("core.engine_runs", "count"),
    ("core.sim_uops", "count"),
    ("core.sim_cycles", "count"),
    ("core.ns_per_sim_cycle", "ns"),
    ("core.ns_per_uop", "ns"),
    ("core.batch_wall_s", "s"),
    ("core.parallel_speedup", "x"),
    ("core.iraw_delayed_uops", "count"),
    ("core.stall_rf_cycles", "count"),
    ("core.stall_iq_cycles", "count"),
    ("core.stall_dl0_cycles", "count"),
    ("core.stall_other_cycles", "count"),
    ("core.sim_key_us", "us"),
    ("core.canon_encode_us", "us"),
    ("core.canon_decode_us", "us"),
    ("store.get_mem_us", "us"),
    ("store.get_disk_us", "us"),
    ("store.put_us", "us"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.coalesced", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.retries", "count"),
    ("store.write_failures", "count"),
    ("store.quarantined", "count"),
    ("experiments.sweep_s", "s"),
    ("experiments.stalls_s", "s"),
    ("experiments.table1_s", "s"),
    ("experiments.figures_s", "s"),
    ("experiments.csv_write_s", "s"),
    ("experiments.point_from_us", "us"),
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("serve.queue_peak", "count"),
    ("req.p50_ms", "ms"),
    ("req.p90_ms", "ms"),
    ("req.p99_ms", "ms"),
    ("req.samples", "count"),
    ("sim_muops_per_s", "Muops/s"),
    ("error_rate", "ratio"),
    ("tracing_overhead_s", "s"),
];

fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for kind in ["handle_us", "transport_us", "server_p50_us"] {
        for op in OPS {
            v.push((format!("serve.{kind}.{op}"), "us"));
        }
    }
    v
}

/// Recorded output digests: `workload seed hex` per line.
const DIGESTS: &str = include_str!("../digests.txt");

fn recorded_digest(workload: Workload, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload.name() && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

enum Mode {
    Run(Params),
    SelfTest,
    Record(u64, u64),
}

const USAGE: &str = "usage: perfbench --workload experiments_cold|serve_cold|serve_warm \
                     --seed N --seconds N --trace 0|1 | --selftest | --record-digests FIRST-LAST";

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--selftest" => return Ok(Mode::SelfTest),
            "--record-digests" => {
                let v = value()?;
                let (a, b) = v.split_once('-').ok_or("want FIRST-LAST")?;
                let parse = |s: &str| s.parse::<u64>().map_err(|e| e.to_string());
                return Ok(Mode::Record(parse(a)?, parse(b)?));
            }
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Mode::Run(Params {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        toy: false,
        expected: recorded_digest(workload, seed),
        naive: true,
        nproc: nproc(),
    }))
}

/// Output of a helper command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(parent) = cwd.parent() {
        // Never let git look above the working directory.
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match cmd.output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// The run's identity: exact argv, seed, commit, host and toolchain.
fn identity(args: &[String], p: &Params, suite: &str) -> String {
    let argv: Vec<String> = args.iter().map(|a| json::string(a)).collect();
    json::object(&[
        ("argv", json::array(&argv)),
        ("workload", json::string(p.workload.name())),
        ("seed", p.seed.to_string()),
        ("suite", json::string(suite)),
        (
            "commit",
            json::string(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("cpu", json::string(&cpu_model())),
        ("nproc", p.nproc.to_string()),
        ("rustc", json::string(&command_line("rustc", &["-V"]))),
        ("trace", json::boolean(p.trace)),
    ])
}

fn value_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `(name, unit, value)` of every metric a run reports: the end-to-end
/// set, or the per-layer set of a traced run. A metric the workload did
/// not produce reads NaN (printed as `null`).
fn emitted(out: &Outcome, trace: bool) -> Vec<(String, &'static str, f64)> {
    let (values, names) = if trace {
        (&out.layers, layer_metrics())
    } else {
        (
            &out.e2e,
            E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect(),
        )
    };
    names
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(f64::NAN);
            (name, unit, v)
        })
        .collect()
}

/// The final line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<(String, String)> = emitted(out, trace)
        .into_iter()
        .map(|(name, unit, v)| {
            let body = json::object(&[("value", value_json(v)), ("unit", json::string(unit))]);
            (name, body)
        })
        .collect();
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    json::object(&[
        ("correct", json::boolean(out.failed == 0)),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
        ("metrics", json::object(&fields)),
    ])
}

fn report(args: &[String], p: &Params, out: &Outcome) {
    for n in &out.notes {
        println!("# {n}");
    }
    println!(
        "# identity {}",
        identity(args, p, &workloads::suite_label(p))
    );
    let reference = p
        .expected
        .map_or_else(|| "none recorded".to_string(), |d| format!("{d:016x}"));
    println!(
        "# output digest {:016x} (reference {reference}); {} of {} checked operations failed",
        out.digest, out.failed, out.attempted
    );
    for (name, unit, v) in emitted(out, p.trace) {
        println!("# {name} = {v} {unit}");
    }
    println!("{}", result_line(out, p.trace));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match parse_args(&args[1..]) {
        Ok(Mode::Run(p)) => match workloads::run(&p) {
            Ok(out) => {
                report(&args, &p, &out);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {} failed: {e}", p.workload.name());
                ExitCode::FAILURE
            }
        },
        Ok(Mode::SelfTest) => selftest(),
        Ok(Mode::Record(first, last)) => match record(first, last) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Writes `digests.txt` beside the manifest for seeds `first..=last` of
/// every workload at full size.
fn record(first: u64, last: u64) -> Result<(), Box<dyn std::error::Error>> {
    let mut text = String::from(
        "# Output digests per workload and seed: FNV-1a 64 over the CSV bytes\n\
         # (experiments_cold) or the normalized responses to every distinct\n\
         # request (serve_*). Regenerate with `perfbench --record-digests 0-31`.\n",
    );
    for w in Workload::ALL {
        for seed in first..=last {
            let p = Params {
                workload: w,
                seed,
                seconds: 0.0,
                trace: false,
                toy: false,
                expected: None,
                naive: false,
                nproc: nproc(),
            };
            let out = workloads::run(&p)?;
            if out.failed > 0 {
                return Err(format!("{} seed {seed}: {:?}", w.name(), out.notes).into());
            }
            eprintln!("{} {seed} {:016x}", w.name(), out.digest);
            text.push_str(&format!("{} {seed} {:016x}\n", w.name(), out.digest));
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("digests.txt");
    fs::write(&path, text)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Toy-size run of every workload: every metric named in
/// `BENCHMARK.json` is printed with its unit, nothing fails, and a
/// wrong reference digest is caught.
fn selftest() -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    match declared_metrics() {
        Ok((e2e, per_layer)) => {
            let mine: Vec<(String, String)> = E2E
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            if e2e != mine {
                problems.push(format!("BENCHMARK.json end_to_end {e2e:?} != {mine:?}"));
            }
            let mine: Vec<(String, String)> = layer_metrics()
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect();
            if per_layer != mine {
                problems.push("BENCHMARK.json per_layer differs from the emitted set".into());
            }
        }
        Err(e) => problems.push(format!("BENCHMARK.json: {e}")),
    }
    for w in Workload::ALL {
        let base = Params {
            workload: w,
            seed: 7,
            seconds: 0.5,
            trace: false,
            toy: true,
            expected: None,
            naive: true,
            nproc: nproc(),
        };
        // Untraced with no reference, then traced against the digest the
        // first run produced.
        let mut digest = None;
        for trace in [false, true] {
            let p = Params {
                trace,
                expected: digest,
                ..base.clone()
            };
            match workloads::run(&p) {
                Ok(out) => {
                    let line = result_line(&out, p.trace);
                    let ok = out.failed == 0 && !line.contains("null");
                    println!(
                        "selftest {} trace={} failed={}/{} metrics-complete={}",
                        w.name(),
                        u8::from(p.trace),
                        out.failed,
                        out.attempted,
                        !line.contains("null")
                    );
                    if !ok {
                        problems.push(format!(
                            "{} trace={}: {:?} {line}",
                            w.name(),
                            p.trace,
                            out.notes
                        ));
                    }
                    digest.get_or_insert(out.digest);
                }
                Err(e) => problems.push(format!("{}: {e}", w.name())),
            }
        }
        // A deliberately wrong reference digest must be caught.
        let wrong = Params {
            expected: digest.map(|d| d ^ 1),
            naive: false,
            ..base
        };
        match workloads::run(&wrong) {
            Ok(out) => {
                let rate = out.failed as f64 / out.attempted.max(1) as f64;
                println!("selftest {} wrong-digest error_rate={rate}", w.name());
                if out.failed == 0 {
                    problems.push(format!("{}: wrong digest not detected", w.name()));
                }
            }
            Err(e) => problems.push(format!("{}: {e}", w.name())),
        }
    }
    if problems.is_empty() {
        println!("selftest passed");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("selftest: {p}");
        }
        ExitCode::FAILURE
    }
}

type NamedUnits = Vec<(String, String)>;

/// `(name, unit)` lists of `BENCHMARK.json` in the working directory.
fn declared_metrics() -> Result<(NamedUnits, NamedUnits), String> {
    let text = fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
    let v = json::parse(&text).map_err(|e| e.to_string())?;
    let list = |key: &str| -> Result<NamedUnits, String> {
        v.get(key)
            .and_then(json::Value::as_array)
            .ok_or(format!("no {key}"))?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(json::Value::as_str)
                        .map(str::to_string)
                        .ok_or(format!("{key} entry without {f}"))
                };
                Ok((field("name")?, field("unit")?))
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}
