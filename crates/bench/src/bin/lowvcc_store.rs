//! Admin tool for the content-addressed result store.
//!
//! Usage:
//!
//! ```text
//! lowvcc-store stats DIR
//! lowvcc-store verify DIR
//! lowvcc-store vacuum --max-bytes N[k|m|g] DIR
//! lowvcc-store quarantine list DIR
//! lowvcc-store quarantine purge DIR
//! ```
//!
//! `stats` sizes up the store (live entries/bytes, quarantine, orphan
//! sweep count). `verify` is a full checksum scrub: every record is read
//! and decoded, failures are moved to `quarantine/` — exit code 1 flags
//! that something was quarantined, so a cron'd scrub alerts on bit rot.
//! `vacuum` collects the store down to a byte budget, least recently
//! used records first. `quarantine list`/`purge` inspect and empty the
//! quarantine directory. DIR must already exist: a mistyped path or a
//! copy that never landed is an error, not a clean empty store.
//!
//! Exit codes: 0 clean, 1 `verify` quarantined at least one record, 2
//! usage or I/O errors.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary owns the terminal"
)]

use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;

use lowvcc_bench::{ResultStore, StoreError};

const USAGE: &str = "usage: lowvcc-store <stats|verify|quarantine list|quarantine purge> DIR\n\
                     \x20      lowvcc-store vacuum --max-bytes N[k|m|g] DIR";

/// Binary-local error: either a usage problem or a store failure.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Store(StoreError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(msg) => f.write_str(msg),
            Self::Store(e) => write!(f, "store operation failed: {e}"),
        }
    }
}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

fn usage<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(msg.into()))
}

/// A validated command — pure function of the argument list, so the
/// grammar is unit-testable without touching a disk.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    Stats(PathBuf),
    Verify(PathBuf),
    Vacuum { dir: PathBuf, max_bytes: u64 },
    QuarantineList(PathBuf),
    QuarantinePurge(PathBuf),
    Help,
}

/// Parses a byte budget with an optional `k`/`m`/`g` suffix (powers of
/// 1024, case-insensitive): `500m` is 500 MiB.
fn parse_bytes(arg: &str) -> Result<u64, CliError> {
    let (digits, shift) = match arg.to_ascii_lowercase().strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d.to_string(),
            match arg.chars().last().map(|c| c.to_ascii_lowercase()) {
                Some('k') => 10,
                Some('m') => 20,
                _ => 30,
            },
        ),
        None => (arg.to_string(), 0),
    };
    match digits.parse::<u64>() {
        // checked_mul, not a shift: bits shifted out the top must be an
        // error, not a silently tiny budget.
        Ok(n) => n
            .checked_mul(1u64 << shift)
            .ok_or(())
            .or_else(|()| usage(format!("bad byte budget {arg}: overflows u64"))),
        Err(_) => usage(format!(
            "bad byte budget {arg}; want e.g. 500m or 1073741824"
        )),
    }
}

/// Parses the argument list (everything after argv[0]).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, CliError> {
    let args: Vec<String> = args.into_iter().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    match args.first().map(String::as_str) {
        Some("stats") => match &args[1..] {
            [dir] => Ok(Command::Stats(PathBuf::from(dir))),
            _ => usage(format!("stats takes exactly one DIR\n{USAGE}")),
        },
        Some("verify") => match &args[1..] {
            [dir] => Ok(Command::Verify(PathBuf::from(dir))),
            _ => usage(format!("verify takes exactly one DIR\n{USAGE}")),
        },
        Some("vacuum") => match &args[1..] {
            [flag, budget, dir] if flag == "--max-bytes" => Ok(Command::Vacuum {
                dir: PathBuf::from(dir),
                max_bytes: parse_bytes(budget)?,
            }),
            _ => usage(format!("vacuum needs --max-bytes N and a DIR\n{USAGE}")),
        },
        Some("quarantine") => match &args[1..] {
            [sub, dir] if sub == "list" => Ok(Command::QuarantineList(PathBuf::from(dir))),
            [sub, dir] if sub == "purge" => Ok(Command::QuarantinePurge(PathBuf::from(dir))),
            _ => usage(format!("quarantine takes list|purge and a DIR\n{USAGE}")),
        },
        Some(other) => usage(format!("unknown command {other}\n{USAGE}")),
        None => usage(USAGE),
    }
}

/// Opens the store at `dir`, which must already be a directory.
/// [`ResultStore::open`] creates a missing root, which suits writers but
/// would let a scrub of a mistyped path report a clean, empty store.
fn open_existing(dir: PathBuf) -> Result<ResultStore, CliError> {
    if !dir.is_dir() {
        return usage(format!(
            "{}: not an existing store directory",
            dir.display()
        ));
    }
    Ok(ResultStore::open(dir)?)
}

/// Runs a validated command; returns the process exit code.
fn run(cmd: Command) -> Result<ExitCode, CliError> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Command::Stats(dir) => {
            let store = open_existing(dir)?;
            let s = store.summary()?;
            println!("entries:             {}", s.entries);
            println!("entry bytes:         {}", s.entry_bytes);
            println!("quarantined entries: {}", s.quarantined_entries);
            println!("quarantined bytes:   {}", s.quarantined_bytes);
            println!("orphans swept:       {}", s.orphans_swept);
            println!("degraded:            {}", s.degraded);
            Ok(ExitCode::SUCCESS)
        }
        Command::Verify(dir) => {
            let store = open_existing(dir)?;
            let r = store.verify()?;
            println!(
                "scanned {} records: {} ok ({} bytes), {} quarantined",
                r.scanned, r.ok, r.ok_bytes, r.quarantined
            );
            Ok(if r.quarantined == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        Command::Vacuum { dir, max_bytes } => {
            let store = open_existing(dir)?;
            let r = store.vacuum(max_bytes)?;
            println!(
                "kept {} records ({} bytes), removed {} ({} bytes) to fit {max_bytes} bytes",
                r.kept, r.kept_bytes, r.removed, r.removed_bytes
            );
            Ok(ExitCode::SUCCESS)
        }
        Command::QuarantineList(dir) => {
            let store = open_existing(dir)?;
            let entries = store.quarantine_list()?;
            for e in &entries {
                println!("{}\t{}", e.bytes, e.path.display());
            }
            println!("{} quarantined record(s)", entries.len());
            Ok(ExitCode::SUCCESS)
        }
        Command::QuarantinePurge(dir) => {
            let store = open_existing(dir)?;
            let purged = store.quarantine_purge()?;
            println!("purged {purged} quarantined record(s)");
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, CliError> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    fn usage_of(args: &[&str]) -> String {
        match parse(args) {
            Err(CliError::Usage(msg)) => msg,
            Ok(c) => panic!("{args:?} accepted: {c:?}"),
            Err(CliError::Store(e)) => panic!("{args:?} hit the store: {e}"),
        }
    }

    #[test]
    fn subcommands_parse() {
        assert_eq!(
            parse(&["stats", "d"]).unwrap(),
            Command::Stats(PathBuf::from("d"))
        );
        assert_eq!(
            parse(&["verify", "d"]).unwrap(),
            Command::Verify(PathBuf::from("d"))
        );
        assert_eq!(
            parse(&["vacuum", "--max-bytes", "2k", "d"]).unwrap(),
            Command::Vacuum {
                dir: PathBuf::from("d"),
                max_bytes: 2048
            }
        );
        assert_eq!(
            parse(&["quarantine", "list", "d"]).unwrap(),
            Command::QuarantineList(PathBuf::from("d"))
        );
        assert_eq!(
            parse(&["quarantine", "purge", "d"]).unwrap(),
            Command::QuarantinePurge(PathBuf::from("d"))
        );
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["-h"]).unwrap(), Command::Help);
    }

    #[test]
    fn byte_budgets_accept_binary_suffixes() {
        assert_eq!(parse_bytes("0").unwrap(), 0);
        assert_eq!(parse_bytes("123").unwrap(), 123);
        assert_eq!(parse_bytes("2k").unwrap(), 2 << 10);
        assert_eq!(parse_bytes("500m").unwrap(), 500 << 20);
        assert_eq!(parse_bytes("3G").unwrap(), 3u64 << 30);
        assert!(parse_bytes("banana").is_err());
        assert!(parse_bytes("9999999999999999999g").is_err());
        assert!(parse_bytes("").is_err());
    }

    #[test]
    fn malformed_invocations_are_usage_errors() {
        assert!(usage_of(&[]).contains("usage:"));
        assert!(usage_of(&["frobnicate", "d"]).contains("unknown command"));
        assert!(usage_of(&["stats"]).contains("exactly one DIR"));
        assert!(usage_of(&["stats", "a", "b"]).contains("exactly one DIR"));
        assert!(usage_of(&["verify"]).contains("exactly one DIR"));
        assert!(usage_of(&["vacuum", "d"]).contains("--max-bytes"));
        assert!(usage_of(&["vacuum", "--max-bytes", "x", "d"]).contains("bad byte budget"));
        assert!(usage_of(&["quarantine", "d"]).contains("list|purge"));
        assert!(usage_of(&["quarantine", "drop", "d"]).contains("list|purge"));
        assert!(usage_of(&["export", "--out", "f", "d"]).contains("unknown command"));
        assert!(usage_of(&["import", "f", "d"]).contains("unknown command"));
    }

    #[test]
    fn missing_store_dirs_are_refused_and_never_created() {
        let missing =
            std::env::temp_dir().join(format!("lowvcc_store_cli_missing_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&missing);
        let commands = [
            Command::Stats(missing.clone()),
            Command::Verify(missing.clone()),
            Command::Vacuum {
                dir: missing.clone(),
                max_bytes: 0,
            },
            Command::QuarantineList(missing.clone()),
            Command::QuarantinePurge(missing.clone()),
        ];
        for cmd in commands {
            match run(cmd.clone()) {
                Err(e) => assert!(e.to_string().contains(&*missing.to_string_lossy()), "{e}"),
                Ok(code) => panic!("{cmd:?} succeeded ({code:?}) on a missing root"),
            }
            assert!(!missing.exists(), "{cmd:?} created the missing root");
        }
    }
}
