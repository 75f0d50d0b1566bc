//! The `lowvcc-serve` binary: bind, optionally pre-fill, serve.
//!
//! ```text
//! lowvcc-serve [--suite quick|standard|paper|NxLEN] [--cache DIR]
//!              [--jobs N] [--threads N] [--max-connections N]
//!              [--addr HOST:PORT] [--warm]
//! ```
//!
//! Defaults: quick suite, in-memory store, all hardware threads for
//! simulation (`--jobs`), `max(4, hardware threads)` compute permits
//! (`--threads`: requests answered at once), 64 open connections
//! (`--max-connections`), `127.0.0.1:0` (ephemeral port). The bound
//! address is announced on stdout as `lowvcc-serve listening on
//! HOST:PORT` so harnesses can scrape the port. Excess clients beyond
//! the connection cap receive the typed
//! `{"ok": false, "error": "busy: …", "busy": true}` refusal instead of
//! queueing unboundedly. `--warm` runs the full sweep grid plus Table 1
//! and the stall study at their default voltages once before
//! accepting, so sweep queries (and default-voltage table1/stalls
//! queries) are cache hits from the first request; non-default
//! table1/stalls voltages simulate once on demand.
//! `--cache DIR` shares the store with `experiments --cache DIR` —
//! either can warm it for the other.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary owns the terminal"
)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use lowvcc_bench::{ResultStore, SuiteChoice};
use lowvcc_core::Parallelism;
use lowvcc_serve::{Daemon, ServeOptions};

const USAGE: &str = "usage: lowvcc-serve [--suite quick|standard|paper|NxLEN] [--cache DIR] \
                     [--jobs N] [--threads N] [--max-connections N] [--addr HOST:PORT] [--warm]";

#[derive(Debug)]
struct Options {
    suite: String,
    cache: Option<PathBuf>,
    jobs: usize,
    serve: ServeOptions,
    addr: String,
    warm: bool,
    help: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        suite: "quick".to_string(),
        cache: None,
        jobs: Parallelism::available().count(),
        serve: ServeOptions::default(),
        addr: "127.0.0.1:0".to_string(),
        warm: false,
        help: false,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--suite" => match args.next() {
                Some(v) => o.suite = v,
                None => return Err("--suite needs a value".into()),
            },
            "--cache" => match args.next() {
                Some(v) => o.cache = Some(PathBuf::from(v)),
                None => return Err("--cache needs a value".into()),
            },
            "--addr" => match args.next() {
                Some(v) => o.addr = v,
                None => return Err("--addr needs a value".into()),
            },
            "--jobs" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => o.jobs = n,
                Some(_) => return Err("--jobs needs a positive integer".into()),
                None => return Err("--jobs needs a value".into()),
            },
            "--threads" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => o.serve.threads = n,
                Some(_) => return Err("--threads needs a positive integer".into()),
                None => return Err("--threads needs a value".into()),
            },
            "--max-connections" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => o.serve.max_connections = n,
                Some(_) => return Err("--max-connections needs a positive integer".into()),
                None => return Err("--max-connections needs a value".into()),
            },
            "--warm" => o.warm = true,
            "--help" | "-h" => o.help = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(o)
}

fn run() -> Result<(), String> {
    let opts = parse_args(std::env::args().skip(1))?;
    if opts.help {
        println!("{USAGE}");
        return Ok(());
    }
    // Same grammar and degenerate-input rejections as `experiments`.
    let ctx = SuiteChoice::parse(&opts.suite)
        .map_err(|e| e.to_string())?
        .build()
        .map_err(|e| e.to_string())?
        .with_parallelism(Parallelism::threads(opts.jobs));
    let store = match &opts.cache {
        Some(dir) => ResultStore::open(dir).map_err(|e| e.to_string())?,
        None => ResultStore::ephemeral(),
    };
    let daemon = Daemon::new(ctx.with_cache(Arc::new(store)));
    if opts.warm {
        eprintln!("warming the store (full sweep grid + Table 1 + stall study)…");
        daemon.warm().map_err(|e| e.to_string())?;
        eprintln!("store warm");
    }
    let listener =
        TcpListener::bind(&opts.addr).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("no local address: {e}"))?;
    println!("lowvcc-serve listening on {local}");
    eprintln!(
        "suite {} ({} uops), store {}, {} jobs, {} compute permits (max {} connections); \
         send {{\"experiment\":\"shutdown\"}} to stop",
        daemon.context().suite_label,
        daemon.context().total_uops(),
        daemon
            .context()
            .cache
            .as_ref()
            .and_then(|s| s.dir())
            .map_or_else(|| "in-memory".to_string(), |d| d.display().to_string()),
        opts.jobs,
        opts.serve.threads,
        opts.serve.max_connections,
    );
    daemon
        .serve_with(&listener, opts.serve)
        .map_err(|e| e.to_string())?;
    eprintln!("shutdown requested; exiting cleanly");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.suite, "quick");
        assert_eq!(o.cache, None);
        assert_eq!(o.jobs, Parallelism::available().count());
        assert_eq!(o.serve, ServeOptions::default());
        assert_eq!(o.addr, "127.0.0.1:0");
        assert!(!o.warm);
        assert!(!o.help);
    }

    #[test]
    fn every_flag_sets_its_option() {
        let o = parse(&[
            "--suite",
            "1x5000",
            "--cache",
            "c",
            "--jobs",
            "3",
            "--threads",
            "2",
            "--max-connections",
            "9",
            "--addr",
            "127.0.0.1:7000",
            "--warm",
            "--help",
        ])
        .unwrap();
        assert_eq!(o.suite, "1x5000");
        assert_eq!(o.cache, Some(PathBuf::from("c")));
        assert_eq!(o.jobs, 3);
        assert_eq!((o.serve.threads, o.serve.max_connections), (2, 9));
        assert_eq!(o.addr, "127.0.0.1:7000");
        assert!(o.warm && o.help);
    }

    #[test]
    fn value_flags_without_a_value_are_rejected() {
        for flag in [
            "--suite",
            "--cache",
            "--addr",
            "--jobs",
            "--threads",
            "--max-connections",
        ] {
            let err = parse(&[flag]).unwrap_err();
            assert!(err.starts_with(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn zero_workers_are_rejected() {
        for flag in ["--jobs", "--threads", "--max-connections"] {
            let err = parse(&[flag, "0"]).unwrap_err();
            assert_eq!(err, format!("{flag} needs a positive integer"));
        }
    }

    #[test]
    fn fleet_flags_are_unknown_arguments() {
        for args in [
            ["--shards", "2"],
            ["--route", "a:1"],
            ["--peers", "a:1"],
            ["--warm-bundle", "w.lvcb"],
        ] {
            let err = parse(&args).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown argument {}\n{USAGE}", args[0])),
                "{err}"
            );
        }
    }
}
