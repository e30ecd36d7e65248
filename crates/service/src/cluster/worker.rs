//! Worker daemons and the coordinator's deadline-aware wire client.
//!
//! A cluster worker is an ordinary `covern_cli serve` process speaking
//! `covern-protocol-v1` over TCP — the cluster layer adds nothing to the
//! daemon itself. [`WorkerHandle`] either spawns one (port 0, address
//! parsed from the daemon's startup line) or wraps an externally managed
//! address (used by the fault-injection tests to stand up deliberately
//! slow or garbage-speaking workers).
//!
//! [`WireClient`] is the coordinator's own client rather than
//! [`crate::client::Client`] because fault detection needs what the
//! polite client lacks: a read deadline on every reply. Every failure is
//! classified by [`WireFault`] so the router can tell a *worker* fault
//! (connect/timeout/disconnect/garbage → mark dead, reroute, replay)
//! from a *session* fault reported by a healthy worker (`DeltaFailed`
//! etc. → record the scenario error exactly like the single-process
//! engine).

use crate::protocol::{
    decode, write_frame, Command, DeltaParams, ErrorInfo, OpenParams, Reply, Request, ResumeParams,
    SessionOpened, SessionRef, StatsSnapshot,
};
use covern_campaign::report::EventRecord;
use covern_campaign::DeltaEvent;
use covern_observe::{metrics, obs_info, obs_warn};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::process::{Child, Command as ProcessCommand, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How a coordinator request failed.
#[derive(Debug, Clone)]
pub enum WireFault {
    /// Could not connect to the worker at all.
    Connect(String),
    /// The per-request deadline elapsed with no reply.
    Timeout,
    /// The connection dropped mid-request (worker death shows up here).
    Disconnected,
    /// The worker replied with bytes that do not decode, or with a reply
    /// variant the request cannot accept.
    Malformed(String),
    /// A healthy worker reported a protocol-level error; the session —
    /// not the worker — is at fault.
    Remote(ErrorInfo),
}

impl WireFault {
    /// Whether this failure indicts the *worker* (reroute + replay)
    /// rather than the session.
    #[must_use]
    pub fn is_worker_fault(&self) -> bool {
        !matches!(self, WireFault::Remote(_))
    }
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFault::Connect(e) => write!(f, "connect failed: {e}"),
            WireFault::Timeout => write!(f, "deadline elapsed"),
            WireFault::Disconnected => write!(f, "connection lost"),
            WireFault::Malformed(e) => write!(f, "malformed reply: {e}"),
            WireFault::Remote(e) => write!(f, "remote error [{}]: {}", e.code, e.message),
        }
    }
}

/// Everything needed to spawn (or re-spawn) a worker daemon process.
///
/// Kept by [`WorkerHandle::spawn`]ed workers so the health monitor can
/// launch a replacement after a retirement; external workers carry none
/// and are never respawned.
#[derive(Debug, Clone)]
pub struct SpawnSpec {
    binary: std::path::PathBuf,
    session_threads: usize,
    splits: usize,
}

/// One worker daemon as the coordinator sees it: an address, a liveness
/// flag, and — when the coordinator spawned it — the child process plus
/// the spec needed to spawn a replacement.
#[derive(Debug)]
pub struct WorkerHandle {
    index: usize,
    /// Current TCP address; replaced wholesale on respawn (the daemon
    /// binds port 0, so every incarnation gets a fresh port).
    addr: Mutex<String>,
    alive: AtomicBool,
    child: Mutex<Option<Child>>,
    stderr_drain: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// `Some` for coordinator-spawned workers (respawnable), `None` for
    /// external ones.
    spawn_spec: Option<SpawnSpec>,
}

/// Launches one `serve` daemon and parses its bound address, returning the
/// pieces a [`WorkerHandle`] tracks.
fn launch_daemon(
    index: usize,
    spec: &SpawnSpec,
) -> std::io::Result<(Child, String, std::thread::JoinHandle<()>)> {
    let mut child = ProcessCommand::new(&spec.binary)
        .args([
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--refine-strategy",
            "refine",
            "--splits",
            &spec.splits.to_string(),
            "--session-threads",
            &spec.session_threads.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()?;
    let stderr = child.stderr.take().expect("stderr was piped");
    let mut reader = BufReader::new(stderr);
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("worker {index} exited before announcing its address"),
            ));
        }
        if let Some(rest) = line.trim().strip_prefix("covern-service listening on ") {
            break rest.to_owned();
        }
    };
    let drain = std::thread::spawn(move || {
        let mut sink = [0u8; 4096];
        while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
    });
    Ok((child, addr, drain))
}

impl WorkerHandle {
    /// Spawns `binary serve --tcp 127.0.0.1:0 ...` and parses the bound
    /// address from the daemon's startup line on stderr. The rest of the
    /// child's stderr (its structured log) is drained by a background
    /// thread so a chatty worker can never block on a full pipe.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the child cannot be spawned or exits
    /// before announcing its address.
    pub fn spawn(
        index: usize,
        binary: &Path,
        session_threads: usize,
        splits: usize,
    ) -> std::io::Result<Self> {
        let spec = SpawnSpec { binary: binary.to_path_buf(), session_threads, splits };
        let (child, addr, drain) = launch_daemon(index, &spec)?;
        obs_info!("cluster worker spawned", worker = index, addr = addr);
        Ok(Self {
            index,
            addr: Mutex::new(addr),
            alive: AtomicBool::new(true),
            child: Mutex::new(Some(child)),
            stderr_drain: Mutex::new(Some(drain)),
            spawn_spec: Some(spec),
        })
    }

    /// Wraps an externally managed worker address (nothing to spawn, kill,
    /// or respawn; liveness tracking still applies).
    #[must_use]
    pub fn external(index: usize, addr: impl Into<String>) -> Self {
        Self {
            index,
            addr: Mutex::new(addr.into()),
            alive: AtomicBool::new(true),
            child: Mutex::new(None),
            stderr_drain: Mutex::new(None),
            spawn_spec: None,
        }
    }

    /// The worker's position in the cluster (its ring identity).
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The worker's current TCP address (owned: a respawn replaces it).
    #[must_use]
    pub fn addr(&self) -> String {
        self.addr.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Whether the coordinator still considers this worker live.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Whether a replacement daemon can be spawned for this slot (the
    /// coordinator spawned the original; external workers stay dead).
    #[must_use]
    pub fn respawnable(&self) -> bool {
        self.spawn_spec.is_some()
    }

    /// Marks the worker dead. Returns `true` on the first transition —
    /// exactly one caller (health monitor or a faulted request) does the
    /// death accounting, however many observe the same corpse.
    pub fn mark_dead(&self) -> bool {
        let first = self.alive.swap(false, Ordering::SeqCst);
        if first {
            metrics().cluster_worker_deaths_total.inc();
            metrics().cluster_workers_active.dec();
            obs_warn!("cluster worker marked dead", worker = self.index, addr = self.addr());
        }
        first
    }

    /// Spawns a replacement daemon for a retired slot and swings the
    /// handle over to it: new child, new address, liveness back on. The
    /// ring needs no mutation — routing goes through an `is_alive`
    /// predicate, so flipping liveness re-admits the slot to every arc it
    /// already owns. The replacement daemon starts with empty sessions;
    /// in-flight work was already replayed elsewhere from checkpoints, and
    /// future scenarios routed here open fresh sessions.
    ///
    /// No-op (returns `Ok(false)`) for external workers and for workers
    /// that are still alive.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the replacement cannot be spawned; the
    /// worker stays dead and the caller's respawn budget should still be
    /// charged (a crash-looping binary must not retry forever).
    pub fn respawn(&self) -> std::io::Result<bool> {
        let Some(spec) = &self.spawn_spec else {
            return Ok(false);
        };
        if self.is_alive() {
            return Ok(false);
        }
        // Reap the corpse (and its stderr drain) before replacing it.
        self.kill();
        let (child, addr, drain) = launch_daemon(self.index, spec)?;
        *self.addr.lock().unwrap_or_else(|p| p.into_inner()) = addr.clone();
        *self.child.lock().unwrap_or_else(|p| p.into_inner()) = Some(child);
        *self.stderr_drain.lock().unwrap_or_else(|p| p.into_inner()) = Some(drain);
        // Liveness flips last: nobody routes here until the address and
        // child are in place.
        self.alive.store(true, Ordering::SeqCst);
        metrics().cluster_worker_respawns_total.inc();
        metrics().cluster_workers_active.inc();
        obs_info!("cluster worker respawned", worker = self.index, addr = addr);
        Ok(true)
    }

    /// SIGKILLs the spawned child, if any (no-op for external workers).
    pub fn kill(&self) {
        if let Some(mut child) = self.child.lock().unwrap_or_else(|p| p.into_inner()).take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.stderr_drain.lock().unwrap_or_else(|p| p.into_inner()).take() {
            let _ = drain.join();
        }
    }

    /// Graceful stop: a polite protocol `Shutdown` (bounded by `deadline`),
    /// then the kill.
    pub fn shutdown(&self, deadline: Duration) {
        if self.is_alive() {
            if let Ok(mut wire) = WireClient::connect(&self.addr(), deadline) {
                let _ = wire.shutdown();
            }
        }
        self.kill();
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A blocking protocol client with a per-request read deadline (see
/// module docs).
pub struct WireClient {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    next_id: u64,
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient").field("next_id", &self.next_id).finish()
    }
}

impl WireClient {
    /// Connects with `deadline` as both the connect and per-reply read
    /// timeout.
    ///
    /// # Errors
    ///
    /// Returns [`WireFault::Connect`] when the worker is unreachable.
    pub fn connect(addr: &str, deadline: Duration) -> Result<Self, WireFault> {
        let sockaddr = addr
            .to_socket_addrs()
            .map_err(|e| WireFault::Connect(e.to_string()))?
            .next()
            .ok_or_else(|| WireFault::Connect(format!("no address for {addr}")))?;
        let stream = dial(&sockaddr, deadline).map_err(|e| WireFault::Connect(e.to_string()))?;
        let writer = stream.try_clone().map_err(|e| WireFault::Connect(e.to_string()))?;
        Ok(Self::over(Box::new(stream), Box::new(writer)))
    }

    /// Builds a client over arbitrary transport halves.
    fn over(reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) -> Self {
        Self { reader: BufReader::new(reader), writer, next_id: 0 }
    }

    /// Sends one command and blocks for its reply (replies with other
    /// correlation ids are skipped). `Reply::Error` becomes
    /// [`WireFault::Remote`]; everything transport-shaped becomes a
    /// worker fault.
    ///
    /// # Errors
    ///
    /// See [`WireFault`].
    pub fn request(&mut self, cmd: Command) -> Result<Reply, WireFault> {
        self.next_id += 1;
        let id = self.next_id;
        write_frame(&mut self.writer, &Request::new(id, cmd)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                WireFault::Malformed(e.to_string())
            } else {
                WireFault::Disconnected
            }
        })?;
        loop {
            let mut reply_line = String::new();
            match self.reader.read_line(&mut reply_line) {
                Ok(0) => return Err(WireFault::Disconnected),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(WireFault::Timeout)
                }
                Err(_) => return Err(WireFault::Disconnected),
            }
            let response = decode::<crate::protocol::Response>(&reply_line)
                .map_err(|e| WireFault::Malformed(e.to_string()))?;
            if response.id != id {
                continue;
            }
            return match response.reply {
                Reply::Error(e) => Err(WireFault::Remote(e)),
                reply => Ok(reply),
            };
        }
    }

    /// Opens a session.
    ///
    /// # Errors
    ///
    /// `InvalidProblem` arrives as [`WireFault::Remote`].
    pub fn open(&mut self, params: OpenParams) -> Result<SessionOpened, WireFault> {
        match self.request(Command::Open(params))? {
            Reply::Opened(o) => Ok(o),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Resumes a session from checkpoint JSON.
    ///
    /// # Errors
    ///
    /// Corrupt state arrives as [`WireFault::Remote`].
    pub fn resume(&mut self, label: &str, state: String) -> Result<SessionOpened, WireFault> {
        match self.request(Command::Resume(ResumeParams { label: label.to_owned(), state }))? {
            Reply::Opened(o) => Ok(o),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Applies one delta and waits for its verdict, absorbing `Busy`
    /// backpressure with a short retry sleep (the cluster drives each
    /// session window-1, so `Busy` only appears under inbox contention
    /// from other coordinator threads on the same worker).
    ///
    /// # Errors
    ///
    /// `DeltaFailed` arrives as [`WireFault::Remote`].
    pub fn delta(&mut self, session: u64, delta: &DeltaEvent) -> Result<EventRecord, WireFault> {
        loop {
            let cmd = Command::Delta(DeltaParams { session, delta: delta.clone() });
            match self.request(cmd)? {
                Reply::Verdict(v) => return Ok(v.record),
                Reply::Busy(_) => std::thread::sleep(Duration::from_millis(2)),
                other => return Err(unexpected("Verdict", &other)),
            }
        }
    }

    /// Takes a checkpoint of `session`, returning the state JSON.
    ///
    /// # Errors
    ///
    /// See [`WireFault`].
    pub fn checkpoint(&mut self, session: u64) -> Result<String, WireFault> {
        match self.request(Command::Checkpoint(SessionRef { session }))? {
            Reply::Checkpoint(c) => Ok(c.state),
            other => Err(unexpected("Checkpoint", &other)),
        }
    }

    /// Closes `session` (best-effort from the router's point of view).
    ///
    /// # Errors
    ///
    /// See [`WireFault`].
    pub fn close(&mut self, session: u64) -> Result<(), WireFault> {
        match self.request(Command::Close(SessionRef { session }))? {
            Reply::Closed(_) => Ok(()),
            other => Err(unexpected("Closed", &other)),
        }
    }

    /// Fetches the worker's process-wide counters.
    ///
    /// # Errors
    ///
    /// See [`WireFault`].
    pub fn stats(&mut self) -> Result<StatsSnapshot, WireFault> {
        match self.request(Command::Stats)? {
            Reply::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Pings the worker (protocol `Hello`).
    ///
    /// # Errors
    ///
    /// See [`WireFault`].
    pub fn hello(&mut self) -> Result<(), WireFault> {
        match self.request(Command::Hello)? {
            Reply::Hello(_) => Ok(()),
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// Asks the worker to drain and stop.
    ///
    /// # Errors
    ///
    /// See [`WireFault`].
    pub fn shutdown(&mut self) -> Result<(), WireFault> {
        match self.request(Command::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Reply) -> WireFault {
    WireFault::Malformed(format!("expected {wanted}, got {got:?}"))
}

/// Opens a coordinator→worker stream: `deadline` bounds the connect and
/// every reply read, and Nagle's algorithm is off — the coordinator waits
/// on each single-write request's reply, so coalescing only adds the
/// worker's delayed-ACK time to every round trip.
fn dial(addr: &std::net::SocketAddr, deadline: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(addr, deadline)?;
    stream.set_read_timeout(Some(deadline))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode, CountingWriter, Response};

    #[test]
    fn coordinator_streams_have_nagle_off() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = dial(&listener.local_addr().unwrap(), Duration::from_secs(5)).unwrap();
        assert!(stream.nodelay().unwrap());
        assert_eq!(stream.read_timeout().unwrap(), Some(Duration::from_secs(5)));
    }

    #[test]
    fn every_request_is_one_write() {
        let replies = format!(
            "{}\n{}\n",
            encode(&Response::new(1, Reply::ShuttingDown)).unwrap(),
            encode(&Response::new(2, Reply::ShuttingDown)).unwrap()
        );
        let wire = CountingWriter::default();
        let mut client = WireClient::over(
            Box::new(std::io::Cursor::new(replies.into_bytes())),
            Box::new(wire.clone()),
        );
        client.shutdown().unwrap();
        assert_eq!(wire.writes(), 1, "one write per frame");
        client.shutdown().unwrap();
        assert_eq!(wire.writes(), 2);
        let text = String::from_utf8(wire.bytes()).unwrap();
        let ids: Vec<u64> = text.lines().map(|l| decode::<Request>(l).unwrap().id).collect();
        assert_eq!(ids, [1, 2]);
    }
}
