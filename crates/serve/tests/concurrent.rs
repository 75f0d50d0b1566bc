//! Concurrency tests for the thread-per-connection serve loop: a
//! stalled client must not block others, shutdown must drain with a
//! deadline, excess clients get the typed `busy` refusal, identical
//! cold queries are single-flighted, concurrent answers are
//! byte-identical to the sequential daemon's, and a machine shared by
//! several labels is simulated (and stored) once. Over real sockets, a
//! client that never reads is cut at the write-stall deadline,
//! pipelined lines answer in order (refused once shutdown begins), and
//! over-long or non-UTF-8 lines close their connection as errors.

#![expect(clippy::disallowed_methods, reason = "times client deadlines")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use lowvcc_bench::experiments::{point_json, sweep};
use lowvcc_bench::{json, ExperimentContext};
use lowvcc_serve::conn::MAX_LINE;
use lowvcc_serve::{Daemon, ServeOptions, ServeSnapshot};
use lowvcc_sram::{Millivolts, PAPER_SWEEP};

fn tiny_daemon() -> Daemon {
    Daemon::new(ExperimentContext::sized(1, 2_000).expect("tiny suite builds"))
}

fn opts() -> ServeOptions {
    ServeOptions {
        threads: 3,
        max_connections: 16,
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        drain_deadline: Duration::from_millis(300),
    }
}

/// Sends one request line and reads one response line.
fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

fn client(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

const SWEEP_575: &str = r#"{"experiment":"sweep","vcc":575}"#;
const PING: &str = r#"{"experiment":"ping"}"#;
const SHUTDOWN: &str = r#"{"experiment":"shutdown"}"#;
const METRICS: &str = r#"{"experiment":"metrics"}"#;

/// Every accepted connection ends in exactly one terminal bucket.
fn assert_reconciles(c: &ServeSnapshot) {
    assert_eq!(
        c.accepted,
        c.completed + c.connection_errors + c.timeouts + c.worker_panics + c.force_closed,
        "terminal buckets must add up to accepted: {c:?}"
    );
}

/// Reads until the daemon closes the connection, asserting it sends
/// nothing first. A reset counts as closed: the daemon may drop a
/// socket with request bytes still unread.
fn assert_closed_silently(stream: &TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = Vec::new();
    match (&mut { stream }).read_to_end(&mut buf) {
        Ok(_) => assert!(buf.is_empty(), "closed with {} bytes sent", buf.len()),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
}

/// The largest size (the third field) of a `tcp_rmem`/`tcp_wmem`
/// triple under `/proc/sys/net/ipv4`, or `fallback` off Linux.
fn tcp_buffer_max(name: &str, fallback: usize) -> usize {
    std::fs::read_to_string(format!("/proc/sys/net/ipv4/{name}"))
        .ok()
        .and_then(|s| s.split_whitespace().nth(2)?.parse().ok())
        .unwrap_or(fallback)
}

#[test]
fn stalled_client_does_not_block_others() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, opts()));

        // A client that connects and never sends a byte — under the old
        // sequential accept loop this wedged every other query.
        let stalled = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(150));

        let start = Instant::now();
        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, PING)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "ping took {:?} with a stalled client connected",
            start.elapsed()
        );

        // Real work is also unblocked, not just liveness probes.
        let v = json::parse(&request(&mut c, &mut r, SWEEP_575)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));

        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("shutdown").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
        drop(stalled);
    });
}

#[test]
fn shutdown_drain_deadline_cuts_stalled_clients_loose() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, opts()));

        // Regression: shutdown used to take effect only after the
        // in-progress connection completed, so a stalled peer could
        // postpone exit indefinitely (until its 30 s read timeout).
        let stalled = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(150));

        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));

        // The serve loop must return within the drain deadline (plus
        // slack), with the stalled client still connected.
        let start = Instant::now();
        handle.join().unwrap().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "drain took {:?}; a stalled peer postponed shutdown",
            start.elapsed()
        );
        drop(stalled);
    });
    let c = daemon.serve_counters();
    assert!(
        c.force_closed >= 1,
        "the stalled connection must have been force-closed at the deadline: {c:?}"
    );
}

#[test]
fn excess_clients_get_the_typed_busy_refusal() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let tight = ServeOptions {
        threads: 1,
        max_connections: 1,
        ..opts()
    };
    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, tight));

        // Fill the single connection slot with a stalled client…
        let stalled = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(200));

        // …so the next client is refused at the accept gate.
        let (c, mut r) = client(addr);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let v = json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("busy").unwrap().as_bool(), Some(true));
        assert!(v
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("busy:"));
        // The refusal closes the connection.
        let mut rest = String::new();
        assert_eq!(r.read_to_string(&mut rest).unwrap(), 0);
        drop(c);

        // Freeing the slot lets the next client in for a clean shutdown.
        drop(stalled);
        std::thread::sleep(Duration::from_millis(200));
        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
    });
    assert!(daemon.serve_counters().refused_busy >= 1);
}

#[test]
fn identical_concurrent_cold_sweeps_are_single_flighted() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let clients = 4;
    let responses: Vec<json::Value> = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            daemon.serve_with(
                &listener,
                ServeOptions {
                    threads: clients,
                    ..opts()
                },
            )
        });
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let (mut c, mut r) = client(addr);
                    json::parse(&request(&mut c, &mut r, SWEEP_575)).unwrap()
                })
            })
            .collect();
        let responses: Vec<json::Value> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
        responses
    });

    // One sweep point = 2 mechanisms × 7 traces = 14 keys. N identical
    // concurrent cold queries must perform exactly one engine
    // simulation per key — the single-flight acceptance criterion.
    let stats = daemon.context().cache.as_ref().unwrap().stats();
    assert_eq!(stats.misses, 14, "one simulation per key: {stats:?}");
    assert_eq!(stats.stores, 14);

    // Every client got the same answer, and it is byte-identical to
    // what a sequential daemon computes for the same query.
    let sequential = tiny_daemon();
    let (expected, _) = sequential.handle_line(SWEEP_575);
    let expected_point = json::parse(&expected)
        .unwrap()
        .get("point")
        .unwrap()
        .clone();
    for v in &responses {
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("point"), Some(&expected_point));
    }
}

#[test]
fn concurrent_hammer_matches_sequential_byte_for_byte() {
    let daemon = tiny_daemon();
    // Warm the 575 mV point, then capture the steady-state (cached)
    // response the sequential daemon gives.
    let (_cold, _) = daemon.handle_line(SWEEP_575);
    let (expected_sweep, _) = daemon.handle_line(SWEEP_575);
    assert!(expected_sweep.contains("\"cached\": true"));
    let (expected_ping, _) = daemon.handle_line(PING);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            daemon.serve_with(
                &listener,
                ServeOptions {
                    threads: 4,
                    ..opts()
                },
            )
        });
        let hammers: Vec<_> = (0..6)
            .map(|_| {
                let expected_sweep = &expected_sweep;
                let expected_ping = &expected_ping;
                s.spawn(move || {
                    let (mut c, mut r) = client(addr);
                    for _ in 0..4 {
                        assert_eq!(request(&mut c, &mut r, PING), *expected_ping);
                        assert_eq!(request(&mut c, &mut r, SWEEP_575), *expected_sweep);
                    }
                })
            })
            .collect();
        for h in hammers {
            h.join().unwrap();
        }
        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
    });
    let c = daemon.serve_counters();
    assert_eq!(c.accepted, 7, "6 hammer clients + the shutdown client");
    assert_eq!(c.refused_busy, 0);
    assert_eq!(c.connection_errors, 0);
    assert_eq!(c.worker_panics, 0);
}

#[test]
fn silent_clients_are_disconnected_at_the_read_timeout() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let quick_timeout = ServeOptions {
        read_timeout: Duration::from_millis(200),
        ..opts()
    };
    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, quick_timeout));

        // Connect, send nothing: the daemon must cut us loose at the
        // read timeout rather than holding the worker for 30 s.
        let mut silent = TcpStream::connect(addr).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let start = Instant::now();
        let mut buf = Vec::new();
        let n = silent.read_to_end(&mut buf).unwrap();
        assert_eq!(n, 0, "timeout close is silent — no bytes");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "disconnect took {:?}",
            start.elapsed()
        );

        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
    });
    assert_eq!(daemon.serve_counters().timeouts, 1);
}

#[test]
fn cold_point_of_one_machine_simulates_once_per_trace() {
    // At 650 mV IRAW has N = 0 and the baseline's memory latency in
    // cycles: both mechanisms run one machine, so a cold point costs
    // 1 machine × 7 traces = 7 simulations, not 14.
    let daemon = tiny_daemon();
    let (response, _) = daemon.handle_line(r#"{"experiment": "sweep", "vcc": 650}"#);
    let stats = daemon.context().cache.as_ref().unwrap().stats();
    assert_eq!(stats.misses, 7, "one simulation per machine key: {stats:?}");
    assert_eq!(stats.stores, 7);

    let v = json::parse(&response).unwrap();
    assert_eq!(v.get("cached").unwrap().as_bool(), Some(false));
    let uncached = ExperimentContext::sized(1, 2_000).expect("tiny suite builds");
    let vcc = Millivolts::new(650).expect("grid voltage");
    let expected = point_json(&sweep::point(&uncached, vcc).expect("uncached point"));
    assert_eq!(v.get("point"), Some(&json::parse(&expected).unwrap()));
}

#[test]
fn warmed_daemon_answers_every_benchmark_request_from_the_store() {
    let daemon = tiny_daemon();
    daemon.warm().expect("warm-up runs");
    let stats = || daemon.context().cache.as_ref().unwrap().stats();
    // One planned batch: 25 distinct machines × 7 traces.
    assert_eq!(stats().misses, 175);
    // The 16 distinct requests the benchmark sends: every grid point,
    // the full sweep, stalls at 575 mV and Table 1 at 500 mV.
    let mut lines: Vec<String> = PAPER_SWEEP
        .iter()
        .map(|mv| format!(r#"{{"experiment": "sweep", "vcc": {}}}"#, mv.millivolts()))
        .collect();
    lines.extend([
        r#"{"experiment": "sweep"}"#.to_string(),
        r#"{"experiment": "stalls", "vcc": 575}"#.to_string(),
        r#"{"experiment": "table1", "vcc": 500}"#.to_string(),
    ]);
    assert_eq!(lines.len(), 16);
    for line in &lines {
        let (response, _) = daemon.handle_line(line);
        assert!(response.contains("\"cached\": true"), "{line}: {response}");
    }
    assert_eq!(stats().misses, 175, "no request simulated after warm-up");
}

#[test]
fn a_client_that_never_reads_is_cut_at_the_write_stall_deadline() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = ServeOptions {
        write_timeout: Duration::from_millis(500),
        ..opts()
    };
    // The responses must overflow every kernel buffer between daemon
    // and client twice over, so the daemon's writes really stop; the
    // requests stay well inside those buffers. A `metrics` body only
    // grows as requests are counted, so the first one bounds the size
    // of the rest from below.
    let buffers = tcp_buffer_max("tcp_rmem", 6 << 20) + tcp_buffer_max("tcp_wmem", 4 << 20);
    let (first, _) = daemon.handle_line(METRICS);
    let lines = 2 * buffers / first.len() + 1;
    let requests = format!("{METRICS}\n").repeat(lines);
    assert!(requests.len() < buffers, "{} request bytes", requests.len());

    let cut = std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, stall));
        let started = Instant::now();
        // Pipelines every request and never reads. The socket is
        // handed back open: a close would end the connection as an
        // error rather than a stall. Its own write timeout keeps a
        // daemon that never cuts it from hanging the test.
        let hog = s.spawn(move || {
            let hog = TcpStream::connect(addr).unwrap();
            hog.set_write_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let _ = (&hog).write_all(requests.as_bytes());
            hog
        });

        // Another client is served while the hog's responses back up.
        while daemon.serve_counters().accepted == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, PING)).unwrap();
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));

        let limit = stall.write_timeout + Duration::from_secs(5);
        while daemon.serve_counters().timeouts == 0 && started.elapsed() < limit {
            std::thread::sleep(Duration::from_millis(20));
        }
        let cut = daemon.serve_counters().timeouts == 1;
        // Closing the hog ends a daemon write that never timed out, so
        // a failure below is reported instead of hanging the scope.
        drop(hog.join().unwrap());

        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("shutdown").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
        cut
    });
    assert!(cut, "the hog was not cut within the write timeout + 5 s");
    let c = daemon.serve_counters();
    assert_eq!((c.timeouts, c.idle_reaped), (1, 0), "{c:?}");
    assert_reconciles(&c);
}

#[test]
fn pipelined_lines_answer_in_order_and_lines_after_shutdown_are_refused() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, opts()));
        let (mut c, mut r) = client(addr);
        c.write_all(format!("{PING}\n{SWEEP_575}\n{SHUTDOWN}\n{PING}\n").as_bytes())
            .unwrap();
        let responses: Vec<json::Value> = (0..4)
            .map(|_| {
                let mut line = String::new();
                r.read_line(&mut line).unwrap();
                json::parse(line.trim_end()).unwrap()
            })
            .collect();
        assert_eq!(responses[0].get("pong").unwrap().as_bool(), Some(true));
        assert_eq!(
            responses[1].get("experiment").unwrap().as_str(),
            Some("sweep")
        );
        assert!(responses[1].get("point").is_some());
        assert_eq!(responses[2].get("shutdown").unwrap().as_bool(), Some(true));
        assert_eq!(responses[3].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            responses[3].get("error").unwrap().as_str(),
            Some("daemon is shutting down")
        );
        handle.join().unwrap().unwrap();
    });
    let c = daemon.serve_counters();
    assert_eq!(c.drain_refused, 1, "{c:?}");
    assert_reconciles(&c);
}

#[test]
fn over_long_and_non_utf8_lines_close_the_connection_as_errors() {
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, opts()));

        let long = TcpStream::connect(addr).unwrap();
        (&long).write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
        let garbled = TcpStream::connect(addr).unwrap();
        (&garbled)
            .write_all(b"{\"experiment\": \"\xff\"}\n")
            .unwrap();
        assert_closed_silently(&long);
        assert_closed_silently(&garbled);

        // The daemon serves the next client as if nothing happened.
        let (mut c, mut r) = client(addr);
        let v = json::parse(&request(&mut c, &mut r, PING)).unwrap();
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));
        let v = json::parse(&request(&mut c, &mut r, SHUTDOWN)).unwrap();
        assert_eq!(v.get("shutdown").unwrap().as_bool(), Some(true));
        handle.join().unwrap().unwrap();
    });
    let c = daemon.serve_counters();
    assert_eq!(c.connection_errors, 2, "{c:?}");
    assert_reconciles(&c);
}
