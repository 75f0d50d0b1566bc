//! Load-behaviour test for the serve loop: hundreds of idle and
//! slow-loris connections must not hold up compute — a concurrent
//! `ping` stays fast with only two compute permits, the idle deadline
//! reaps the dead weight, and the reaps are visible in the `metrics`
//! response.

#![expect(clippy::disallowed_methods, reason = "times client deadlines")]

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use lowvcc_bench::{json, ExperimentContext};
use lowvcc_serve::{Daemon, ServeOptions};

fn tiny_daemon() -> Daemon {
    Daemon::new(ExperimentContext::sized(1, 2_000).expect("tiny suite builds"))
}

fn request(addr: std::net::SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    {
        let mut w = &stream;
        w.write_all(line.as_bytes()).expect("send");
        w.write_all(b"\n").expect("send");
    }
    let mut resp = String::new();
    BufReader::new(&stream)
        .read_line(&mut resp)
        .expect("receive");
    resp.trim_end().to_string()
}

#[test]
fn two_workers_survive_two_hundred_idle_and_loris_connections() {
    const IDLE: usize = 100;
    const LORIS: usize = 100;
    let daemon = tiny_daemon();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let opts = ServeOptions {
        threads: 2,
        max_connections: 300,
        read_timeout: Duration::from_millis(900),
        write_timeout: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(2),
    };

    std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_with(&listener, opts));

        // 100 connections that never send a byte, plus 100 slow-loris
        // peers that send a partial request line and stall mid-frame.
        // Each parks a connection thread on its socket, never one of
        // the 2 compute permits.
        let mut dead_weight = Vec::with_capacity(IDLE + LORIS);
        for i in 0..IDLE + LORIS {
            let stream = TcpStream::connect(addr).expect("idle connect");
            if i >= IDLE {
                let mut w = &stream;
                w.write_all(b"{\"experiment\": \"pi").expect("partial send");
            }
            dead_weight.push(stream);
        }

        // With all 200 parked, a real client still gets through fast:
        // a parked socket holds no compute permit.
        let started = Instant::now();
        let resp = request(addr, "{\"experiment\": \"ping\"}");
        let elapsed = started.elapsed();
        let v = json::parse(&resp).expect("ping response parses");
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
        assert!(
            elapsed < Duration::from_secs(1),
            "ping took {elapsed:?} with 200 idle connections parked"
        );

        // The idle deadline reaps all 200, and the reaps are visible in
        // the metrics response. Poll: reaping happens on loop wakeups.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut reaped = 0;
        while Instant::now() < deadline {
            let resp = request(addr, "{\"experiment\": \"metrics\"}");
            let v = json::parse(&resp).expect("metrics response parses");
            reaped = v
                .get("idle_reaped")
                .and_then(json::Value::as_u64)
                .expect("metrics carries idle_reaped");
            if reaped >= (IDLE + LORIS) as u64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        assert_eq!(
            reaped,
            (IDLE + LORIS) as u64,
            "every idle and loris connection must be reaped"
        );

        // Reaped means actually closed: the parked sockets read EOF.
        for stream in &dead_weight {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            let mut buf = Vec::new();
            let n = std::io::Read::read_to_end(&mut { stream }, &mut buf).unwrap_or(0);
            assert_eq!(n, 0, "reaped connection must be closed, not answered");
        }

        let resp = request(addr, "{\"experiment\": \"shutdown\"}");
        let v = json::parse(&resp).expect("shutdown response parses");
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));
        handle.join().expect("serve thread").expect("serve loop");

        // The reap count also lands in the daemon-side snapshot, and
        // reaps are a subset of timeouts.
        let c = daemon.serve_counters();
        assert_eq!(c.idle_reaped, (IDLE + LORIS) as u64);
        assert!(c.timeouts >= c.idle_reaped);
    });
}
