//! A blocking `covern-protocol-v1` client, plus campaign-corpus replay.
//!
//! [`Client`] works over any reader/writer pair — a [`TcpStream`], a
//! spawned daemon's stdio, or an in-process pipe — and offers both the
//! low-level [`send`](Client::send)/[`recv`](Client::recv) pair (for
//! pipelining) and typed one-call helpers ([`open`](Client::open),
//! [`delta`](Client::delta), [`stats`](Client::stats), …) that
//! send-and-wait, stashing any out-of-order responses for later `recv`s.
//!
//! [`replay_corpus`] drives a whole campaign corpus through a client —
//! the load-testing bridge between `covern-campaign`'s seeded scenario
//! generator and a running daemon: spin up N threads with one client
//! each, hand every thread a slice of the corpus, and the daemon's
//! process-wide cache sees the same fine-tune-family sharing a local
//! campaign run would.

use crate::error::ServiceError;
use crate::protocol::{
    decode, write_frame, CheckpointState, Command, DeltaParams, OpenParams, Reply, Request,
    Response, ServerInfo, SessionOpened, SessionRef, SessionSummary, StatsSnapshot, VerdictEvent,
};
use covern_campaign::{DeltaEvent, Scenario};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking protocol client (see module docs).
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    next_id: u64,
    /// Responses read while waiting for a different correlation id.
    stashed: Vec<Response>,
}

impl Client {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] if the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        let stream = dial(addr)?;
        let write_half = stream.try_clone()?;
        Ok(Self::over(Box::new(stream), Box::new(write_half)))
    }

    /// Builds a client over arbitrary transport halves (a child daemon's
    /// stdout/stdin, an in-process pipe, …).
    pub fn over(reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) -> Self {
        Self { reader: BufReader::new(reader), writer, next_id: 1, stashed: Vec::new() }
    }

    /// Sends a command and returns its correlation id without waiting.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] on write failure (including a
    /// command that does not serialize).
    pub fn send(&mut self, cmd: Command) -> Result<u64, ServiceError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.writer, &Request::new(id, cmd))?;
        Ok(id)
    }

    /// Reads the next response off the wire (stashed responses first).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] on EOF or read failure, and
    /// [`ServiceError::Encode`] on an unparseable line.
    pub fn recv(&mut self) -> Result<Response, ServiceError> {
        if !self.stashed.is_empty() {
            return Ok(self.stashed.remove(0));
        }
        self.read_wire()
    }

    fn read_wire(&mut self) -> Result<Response, ServiceError> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ServiceError::Io("connection closed by server".into()));
            }
            if line.trim().is_empty() {
                continue;
            }
            return decode(&line).map_err(|e| ServiceError::Encode(e.to_string()));
        }
    }

    /// Reads until the response with correlation id `id` arrives, stashing
    /// every other response for later [`recv`](Self::recv)s.
    ///
    /// # Errors
    ///
    /// Propagates [`recv`](Self::recv) failures.
    pub fn wait_for(&mut self, id: u64) -> Result<Reply, ServiceError> {
        if let Some(i) = self.stashed.iter().position(|r| r.id == id) {
            return Ok(self.stashed.remove(i).reply);
        }
        loop {
            let response = self.read_wire()?;
            if response.id == id {
                return Ok(response.reply);
            }
            self.stashed.push(response);
        }
    }

    /// Sends a command and waits for its reply.
    ///
    /// # Errors
    ///
    /// Propagates [`send`](Self::send)/[`wait_for`](Self::wait_for)
    /// failures.
    pub fn request(&mut self, cmd: Command) -> Result<Reply, ServiceError> {
        let id = self.send(cmd)?;
        self.wait_for(id)
    }

    /// `Hello` round trip.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Remote`] on an error reply, or transport
    /// failures.
    pub fn hello(&mut self) -> Result<ServerInfo, ServiceError> {
        match self.request(Command::Hello)? {
            Reply::Hello(info) => Ok(info),
            other => Self::unexpected(other),
        }
    }

    /// Opens a session; blocks through the original verification.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Remote`] on an error reply (e.g. an
    /// invalid problem), or transport failures.
    pub fn open(&mut self, params: OpenParams) -> Result<SessionOpened, ServiceError> {
        match self.request(Command::Open(params))? {
            Reply::Opened(o) => Ok(o),
            other => Self::unexpected(other),
        }
    }

    /// Re-opens a session from a checkpoint string.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Remote`] on an error reply, or transport
    /// failures.
    pub fn resume(&mut self, label: &str, state: String) -> Result<SessionOpened, ServiceError> {
        let params = crate::protocol::ResumeParams { label: label.to_owned(), state };
        match self.request(Command::Resume(params))? {
            Reply::Opened(o) => Ok(o),
            other => Self::unexpected(other),
        }
    }

    /// Streams one delta and waits for its verdict, retrying (with a short
    /// pause) while the session inbox answers `Busy`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Remote`] on an error reply (unknown
    /// session, inapplicable delta), or transport failures.
    pub fn delta(&mut self, session: u64, delta: DeltaEvent) -> Result<VerdictEvent, ServiceError> {
        loop {
            let params = DeltaParams { session, delta: delta.clone() };
            match self.request(Command::Delta(params))? {
                Reply::Verdict(v) => return Ok(v),
                Reply::Busy(_) => std::thread::sleep(Duration::from_millis(5)),
                other => return Self::unexpected(other),
            }
        }
    }

    /// Checkpoints a session.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Remote`] on an error reply, or transport
    /// failures.
    pub fn checkpoint(&mut self, session: u64) -> Result<CheckpointState, ServiceError> {
        match self.request(Command::Checkpoint(SessionRef { session }))? {
            Reply::Checkpoint(c) => Ok(c),
            other => Self::unexpected(other),
        }
    }

    /// Fetches the process-wide counters.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Remote`] on an error reply, or transport
    /// failures.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServiceError> {
        match self.request(Command::Stats)? {
            Reply::Stats(s) => Ok(s),
            other => Self::unexpected(other),
        }
    }

    /// Fetches the process-wide metrics registry rendered as Prometheus
    /// text.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Remote`] on an error reply, or transport
    /// failures.
    pub fn metrics(&mut self) -> Result<crate::protocol::MetricsText, ServiceError> {
        match self.request(Command::Metrics)? {
            Reply::Metrics(m) => Ok(m),
            other => Self::unexpected(other),
        }
    }

    /// Closes a session and returns its summary.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Remote`] on an error reply, or transport
    /// failures.
    pub fn close(&mut self, session: u64) -> Result<SessionSummary, ServiceError> {
        match self.request(Command::Close(SessionRef { session }))? {
            Reply::Closed(s) => Ok(s),
            other => Self::unexpected(other),
        }
    }

    /// Asks the server to drain and stop; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Remote`] on an error reply, or transport
    /// failures.
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        match self.request(Command::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            other => Self::unexpected(other),
        }
    }

    fn unexpected<T>(reply: Reply) -> Result<T, ServiceError> {
        match reply {
            Reply::Error(e) => Err(ServiceError::Remote(e)),
            other => Err(ServiceError::UnexpectedReply(format!("{other:?}"))),
        }
    }
}

/// Opens a client TCP stream with Nagle's algorithm off: requests are
/// single-write frames, and a closed-loop client waits on each reply, so
/// holding a frame back for coalescing only adds the peer's delayed-ACK
/// time to every round trip.
fn dial(addr: impl ToSocketAddrs) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("next_id", &self.next_id)
            .field("stashed", &self.stashed.len())
            .finish()
    }
}

/// Tally of a corpus replay through a service client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Scenarios replayed (sessions opened and closed).
    pub scenarios: u64,
    /// Deltas streamed.
    pub deltas: u64,
    /// Verdicts that proved.
    pub proved: u64,
    /// Verdicts that refuted.
    pub refuted: u64,
    /// Verdicts that stayed unknown.
    pub unknown: u64,
}

/// Replays one campaign scenario through a client: open a session on the
/// scenario's original problem, stream its delta events in order, close.
///
/// # Errors
///
/// Propagates client/transport failures; a delta the session rejects
/// ([`ServiceError::Remote`]) aborts the scenario.
pub fn replay_scenario(
    client: &mut Client,
    scenario: &Scenario,
) -> Result<ReplayOutcome, ServiceError> {
    let opened = client.open(OpenParams {
        label: scenario.name.clone(),
        network: scenario.network.clone(),
        din: scenario.din.clone(),
        dout: scenario.dout.clone(),
        domain: scenario.domain,
        margin: scenario.margin,
        closed_loop: scenario.closed_loop.clone(),
    })?;
    let mut outcome = ReplayOutcome { scenarios: 1, ..ReplayOutcome::default() };
    for event in &scenario.events {
        let verdict = client.delta(opened.session, event.clone())?;
        outcome.deltas += 1;
        match verdict.record.outcome.as_str() {
            "proved" => outcome.proved += 1,
            "refuted" => outcome.refuted += 1,
            _ => outcome.unknown += 1,
        }
    }
    client.close(opened.session)?;
    Ok(outcome)
}

/// Replays a whole corpus sequentially through one client (run several
/// clients in parallel threads for load testing).
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn replay_corpus(
    client: &mut Client,
    corpus: &[Scenario],
) -> Result<ReplayOutcome, ServiceError> {
    let mut total = ReplayOutcome::default();
    for scenario in corpus {
        let one = replay_scenario(client, scenario)?;
        total.scenarios += one.scenarios;
        total.deltas += one.deltas;
        total.proved += one.proved;
        total.refuted += one.refuted;
        total.unknown += one.unknown;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CountingWriter;

    #[test]
    fn tcp_client_streams_have_nagle_off() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = dial(listener.local_addr().unwrap()).unwrap();
        assert!(stream.nodelay().unwrap());
    }

    #[test]
    fn every_request_is_one_write() {
        let wire = CountingWriter::default();
        let mut client = Client::over(Box::new(std::io::empty()), Box::new(wire.clone()));
        for (i, cmd) in [Command::Hello, Command::Stats, Command::Metrics].into_iter().enumerate() {
            client.send(cmd).unwrap();
            assert_eq!(wire.writes(), i + 1, "one write per frame");
        }
        let text = String::from_utf8(wire.bytes()).unwrap();
        let ids: Vec<u64> = text.lines().map(|l| decode::<Request>(l).unwrap().id).collect();
        assert_eq!(ids, [1, 2, 3]);
    }
}
