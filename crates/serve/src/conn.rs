//! The serve loop: one blocking thread per connection, a bounded set
//! of compute permits, and a shutdown drain with a deadline.
//!
//! The calling thread blocks in `accept`. Each admitted connection gets
//! one scoped thread that reads NDJSON request lines through a
//! `BufReader`, answers them in order and writes each response with one
//! `write_all`. The socket's read timeout is the idle deadline and its
//! write timeout the write-stall deadline, so both restart on every
//! byte of progress. The thread does not read while it computes and
//! blocks in `write_all` while the peer does not drain, so a client
//! that pipelines requests and reads slowly meets TCP backpressure
//! instead of growing daemon buffers.
//!
//! Request *compute* is bounded apart from connections: a thread holds
//! one of [`ServeOptions::threads`] permits while
//! [`Daemon::handle_line`]'s request path runs (a simulating request
//! additionally fans out over the context's own parallelism). An idle
//! or slow-loris client parks a thread on its socket, never a permit,
//! and is cut at its deadline.
//!
//! Shutdown: the thread answering `shutdown` sets the drain flag, calls
//! `shutdown(Read)` on every registered socket so blocked readers see
//! EOF, and wakes `accept` by connecting to the listener. Lines already
//! read are answered with the shutting-down error. The accept thread
//! then waits until every connection has ended or the drain deadline
//! passes, and shuts the stragglers down. A request already inside the
//! engine still runs to completion (simulations have no cancellation
//! point) and publishes its result before its thread is joined.

use std::collections::HashMap;
use std::io::{self, BufRead as _, BufReader, Read as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Scope};
use std::time::{Duration, Instant};

use lowvcc_bench::json;

use crate::metrics::{Metrics, Op};
use crate::{Daemon, ServeOptions};

/// Longest accepted request line (bytes, newline excluded). A peer that
/// exceeds it is a protocol error, not a memory commitment.
pub const MAX_LINE: usize = 1 << 20;

/// How long the drain waits to connect to its own listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How one connection ended. Every accepted connection lands in
/// exactly one of these, so the counters reconcile against `accepted`.
enum End {
    Completed,
    IdleReaped,
    WriteStalled,
    Error(String),
    ForceClosed,
    Panicked,
}

/// What the accept thread and every connection thread share.
struct Shared<'a> {
    daemon: &'a Daemon,
    metrics: &'a Metrics,
    opts: ServeOptions,
    /// Where the drain connects to wake a blocked `accept`.
    wake: SocketAddr,
    /// A `try_clone` of each live connection's socket, by id, so the
    /// drain can shut it down from outside the connection's thread.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled whenever a connection leaves `conns`.
    closed: Condvar,
    /// Set once, under the `conns` lock, when the drain begins.
    draining: AtomicBool,
    /// Set once, under the `conns` lock, when the drain deadline shuts
    /// the stragglers down: whatever leaves `conns` afterwards was one,
    /// and counts as force-closed however its thread ends.
    cut_off: AtomicBool,
    /// Compute permits not held.
    permits: Mutex<usize>,
    /// Signalled when a permit comes back or the drain begins.
    permit_freed: Condvar,
}

/// Runs the serve loop over `listener` until a request returns `stop`
/// (or `accept` fails), answering each connection's lines on its own
/// thread with `daemon`, at most `opts.threads` at a time. Connection
/// outcomes, queue depth and per-op latencies land in the daemon's
/// [`Metrics`].
///
/// # Errors
///
/// Propagates listener failures. Per-connection failures only end that
/// connection, counted and logged.
pub fn run(daemon: &Daemon, listener: &TcpListener, opts: ServeOptions) -> io::Result<()> {
    let opts = opts.clamped();
    listener.set_nonblocking(false)?;
    let mut wake = listener.local_addr()?;
    if wake.ip().is_unspecified() {
        wake.set_ip(if wake.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    let shared = Shared {
        daemon,
        metrics: daemon.metrics(),
        opts,
        wake,
        conns: Mutex::new(HashMap::new()),
        closed: Condvar::new(),
        draining: AtomicBool::new(false),
        cut_off: AtomicBool::new(false),
        permits: Mutex::new(opts.threads),
        permit_freed: Condvar::new(),
    };
    thread::scope(|s| {
        let result = shared.accept_loop(s, listener);
        shared.begin_drain();
        shared.await_drain();
        // The scope joins every connection thread: a request already in
        // the engine completes and publishes.
        result
    })
}

/// Renders the protocol error line `{"ok": false, "error": …}` (with
/// `"busy": true` for accept-gate refusals).
pub(crate) fn error_line(error: &str, busy: bool) -> String {
    let mut fields = vec![("ok", json::boolean(false)), ("error", json::string(error))];
    if busy {
        fields.push(("busy", json::boolean(true)));
    }
    json::object(&fields)
}

impl<'env> Shared<'env> {
    /// Accepts until the drain begins or `accept` fails, refusing peers
    /// beyond `max_connections` with the typed busy line.
    fn accept_loop<'scope>(
        &'env self,
        s: &'scope Scope<'scope, 'env>,
        listener: &TcpListener,
    ) -> io::Result<()> {
        let mut next_id = 0u64;
        loop {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let mut conns = lock(&self.conns);
            if self.draining.load(Ordering::SeqCst) {
                // The drain's wake-up connection, or a peer that raced
                // it: dropped, never counted as accepted.
                return Ok(());
            }
            if conns.len() >= self.opts.max_connections {
                drop(conns);
                self.metrics.refused_busy.fetch_add(1, Ordering::Relaxed);
                let max = self.opts.max_connections;
                let busy = format!("busy: {max} connections already in flight, retry later");
                refuse(&stream, &error_line(&busy, true));
                continue;
            }
            self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
            next_id += 1;
            let id = next_id;
            match stream.try_clone() {
                Ok(clone) => conns.insert(id, clone),
                Err(e) => {
                    drop(conns);
                    self.finish(id, &End::Error(format!("cannot clone socket: {e}")));
                    continue;
                }
            };
            drop(conns);
            let spawned = thread::Builder::new()
                .name(format!("lowvcc-conn-{id}"))
                .spawn_scoped(s, move || {
                    let end = match self.converse(&stream) {
                        Ok(()) if self.draining.load(Ordering::SeqCst) => End::ForceClosed,
                        Ok(()) => End::Completed,
                        Err(end) => end,
                    };
                    self.finish(id, &end);
                });
            if let Err(e) = spawned {
                self.finish(id, &End::Error(format!("cannot spawn a thread: {e}")));
            }
        }
    }

    /// Answers one connection's lines in order until the peer's EOF
    /// (`Ok`) or the end that cut it short.
    fn converse(&self, stream: &TcpStream) -> Result<(), End> {
        stream
            .set_read_timeout(Some(self.opts.read_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.opts.write_timeout)))
            .map_err(|e| End::Error(format!("cannot set socket timeouts: {e}")))?;
        let mut reader = BufReader::new(stream);
        let mut raw = Vec::new();
        loop {
            raw.clear();
            let cap = MAX_LINE as u64 + 1;
            if let Err(e) = (&mut reader).take(cap).read_until(b'\n', &mut raw) {
                return Err(if timed_out(&e) {
                    End::IdleReaped
                } else {
                    End::Error(format!("read: {e}"))
                });
            }
            if raw.last() != Some(&b'\n') {
                if raw.len() > MAX_LINE {
                    return Err(End::Error(format!(
                        "request line exceeds {MAX_LINE} bytes without a newline"
                    )));
                }
                // EOF, perhaps after a line the peer never finished.
                return Ok(());
            }
            let Ok(line) = std::str::from_utf8(&raw) else {
                return Err(End::Error("request line is not valid UTF-8".into()));
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            self.metrics.job_enqueued();
            #[expect(clippy::disallowed_methods, reason = "request latency for metrics")]
            let enqueued = Instant::now();
            let answered = self.answer(line);
            self.metrics.job_done();
            let body = match answered {
                None => {
                    self.metrics.drain_refused.fetch_add(1, Ordering::Relaxed);
                    error_line("daemon is shutting down", false)
                }
                Some(Err(_)) => return Err(End::Panicked),
                Some(Ok((body, stop, op))) => {
                    self.metrics.record(op, enqueued.elapsed());
                    if stop {
                        self.begin_drain();
                        self.wake_accept();
                    }
                    body
                }
            };
            send(stream, body)?;
        }
    }

    /// Answers `line` holding a compute permit, catching a panicking
    /// handler; `None`, without answering, once the drain has begun.
    fn answer(&self, line: &str) -> Option<thread::Result<(String, bool, Op)>> {
        let mut free = lock(&self.permits);
        while *free == 0 && !self.draining.load(Ordering::SeqCst) {
            free = self
                .permit_freed
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if self.draining.load(Ordering::SeqCst) {
            return None;
        }
        *free -= 1;
        drop(free);
        let answered = catch_unwind(AssertUnwindSafe(|| self.daemon.answer(line)));
        *lock(&self.permits) += 1;
        self.permit_freed.notify_one();
        Some(answered)
    }

    /// Sets the drain flag and cuts every registered socket's read side,
    /// so blocked readers see EOF and permit waiters give up.
    fn begin_drain(&self) {
        let conns = lock(&self.conns);
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        drop(conns);
        // A waiter checks the flag under the permit lock, so taking it
        // here keeps this wake-up from slipping in before its wait.
        drop(lock(&self.permits));
        self.permit_freed.notify_all();
    }

    /// Unblocks `accept` by connecting to the listener.
    #[expect(clippy::print_stderr, reason = "operator-facing daemon log")]
    fn wake_accept(&self) {
        if let Err(e) = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT) {
            eprintln!("lowvcc-serve: cannot wake the accept loop ({e}); it stops at the next peer");
        }
    }

    /// Waits until every connection has ended or the drain deadline
    /// passes, then shuts the stragglers down.
    #[expect(clippy::disallowed_methods, reason = "drain deadlines are wall-clock")]
    fn await_drain(&self) {
        let deadline = Instant::now() + self.opts.drain_deadline;
        let mut conns = lock(&self.conns);
        while !conns.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            conns = self
                .closed
                .wait_timeout(conns, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        self.cut_off.store(true, Ordering::SeqCst);
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Deregisters a connection and tallies its end.
    fn finish(&self, id: u64, end: &End) {
        let cut = {
            let mut conns = lock(&self.conns);
            conns.remove(&id);
            self.cut_off.load(Ordering::SeqCst)
        };
        self.closed.notify_all();
        count_end(self.metrics, id, if cut { &End::ForceClosed } else { end });
    }
}

/// Locks a serve mutex. A poisoned lock is recovered: the guarded
/// state is bookkeeping that must outlive a panicking thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether `e` is a socket timeout (Linux reports `WouldBlock`).
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Writes one response line. Body and newline leave in one `write_all`:
/// two small writes would stall on Nagle and delayed ACKs.
fn send(mut stream: &TcpStream, mut body: String) -> Result<(), End> {
    body.push('\n');
    stream.write_all(body.as_bytes()).map_err(|e| {
        if timed_out(&e) {
            End::WriteStalled
        } else {
            End::Error(format!("write: {e}"))
        }
    })
}

/// Best-effort, nonblocking refusal at the accept gate: write the
/// error line if the fresh socket buffer takes it, then close. Must
/// never be able to wedge the accept loop on a slow client.
fn refuse(mut stream: &TcpStream, line: &str) {
    let _ = stream.set_nonblocking(true);
    let _ = stream.write(format!("{line}\n").as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Tallies (and logs) one connection outcome. Every accepted
/// connection reaches this exactly once.
#[expect(clippy::print_stderr, reason = "operator log; also counted in stats")]
fn count_end(m: &Metrics, id: u64, end: &End) {
    let (counter, what) = match end {
        End::Completed => (&m.completed, ""),
        End::IdleReaped => {
            m.idle_reaped.fetch_add(1, Ordering::Relaxed);
            (&m.timeouts, "timed out waiting on the peer")
        }
        End::WriteStalled => (&m.timeouts, "peer stopped draining its response"),
        End::Error(what) => (&m.connection_errors, what.as_str()),
        End::ForceClosed => (&m.force_closed, "closed by the shutdown drain"),
        End::Panicked => (&m.worker_panics, "handler panicked (daemon recovered)"),
    };
    counter.fetch_add(1, Ordering::Relaxed);
    if !what.is_empty() {
        eprintln!("lowvcc-serve: connection {id}: {what}");
    }
}
