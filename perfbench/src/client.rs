//! The in-process daemon under test and the closed-loop clients that
//! drive it over loopback TCP.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use lowvcc_bench::{ExperimentContext, ResultStore};
use lowvcc_serve::{Daemon, ServeOptions};
use lowvcc_sram::PAPER_SWEEP;

/// One request kind of the protocol the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Req {
    /// `sweep` at one grid voltage (index into the 13-point grid).
    Point(usize),
    /// The full 13-point `sweep`.
    Full,
    /// `stalls` at 575 mV.
    Stalls,
    /// `table1` at 500 mV.
    Table1,
}

/// Request classes, named as the daemon's `metrics` response names them.
pub const OPS: [&str; 4] = ["sweep_point", "sweep_full", "stalls", "table1"];

impl Req {
    pub fn line(self) -> String {
        match self {
            Req::Point(i) => {
                let mv = PAPER_SWEEP.iter().nth(i).expect("grid index in range");
                format!(
                    "{{\"experiment\": \"sweep\", \"vcc\": {}}}",
                    mv.millivolts()
                )
            }
            Req::Full => "{\"experiment\": \"sweep\"}".to_string(),
            Req::Stalls => "{\"experiment\": \"stalls\", \"vcc\": 575}".to_string(),
            Req::Table1 => "{\"experiment\": \"table1\", \"vcc\": 500}".to_string(),
        }
    }

    /// Index into [`OPS`].
    pub fn op(self) -> usize {
        match self {
            Req::Point(_) => 0,
            Req::Full => 1,
            Req::Stalls => 2,
            Req::Table1 => 3,
        }
    }

    /// Every distinct request: 13 single points, the full grid, stalls
    /// and Table 1.
    pub fn all() -> Vec<Req> {
        let mut v: Vec<Req> = (0..PAPER_SWEEP.iter().count()).map(Req::Point).collect();
        v.extend([Req::Full, Req::Stalls, Req::Table1]);
        v
    }
}

/// A response with its `"cached"` flag removed: the flag depends on
/// which client won a race, everything else is a pure function of the
/// inputs.
pub fn normalized(response: &str) -> String {
    response
        .replace("\"cached\": true, ", "")
        .replace("\"cached\": false, ", "")
}

/// A daemon serving on an ephemeral loopback port from its own thread.
pub struct Served {
    pub daemon: Arc<Daemon>,
    pub addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Served {
    /// Starts `ctx` (with `store` attached) behind `serve_with` and the
    /// serve CLI's default options.
    pub fn start(ctx: ExperimentContext, store: ResultStore) -> io::Result<Self> {
        let daemon = Arc::new(Daemon::new(ctx.with_cache(Arc::new(store))));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let d = Arc::clone(&daemon);
        let thread = std::thread::spawn(move || d.serve_with(&listener, ServeOptions::default()));
        Ok(Self {
            daemon,
            addr,
            thread: Some(thread),
        })
    }

    pub fn store(&self) -> &ResultStore {
        self.daemon
            .context()
            .cache
            .as_deref()
            .expect("Daemon::new always attaches a store")
    }

    /// Sends `shutdown` and waits for the serve thread to exit.
    pub fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent =
            Client::connect(self.addr).and_then(|mut c| c.call("{\"experiment\": \"shutdown\"}"));
        let joined = thread
            .join()
            .map_err(|_| io::Error::other("serve thread panicked"))?;
        sent.map(drop).and(joined)
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One blocking NDJSON connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    /// Sends one request line and returns the response line.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.buf.trim_end().to_string())
    }
}
