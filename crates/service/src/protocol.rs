//! `covern-protocol-v1`: the wire types of the verification service.
//!
//! The protocol is **newline-delimited JSON**: every request and every
//! response is one JSON object on one `\n`-terminated UTF-8 line. Requests
//! carry a client-chosen correlation `id`, echoed verbatim on the
//! response; a client may pipeline requests and match replies by id
//! (per-session replies additionally arrive in submission order). The full
//! message-by-message specification with examples, error codes, and
//! versioning rules lives in `docs/PROTOCOL.md`; the serde types here are
//! the single source of truth the doc's examples are tested against.
//!
//! Enum payloads use serde's externally-tagged convention: a unit variant
//! is its name as a string (`"Hello"`), a data variant is a single-key
//! object (`{"Open": {…}}`). Every struct field is always present on the
//! wire (optional values are `null`), which keeps the hand-rolled parsers
//! of non-Rust clients trivial.

use covern_absint::{BoxDomain, DomainKind};
use covern_campaign::report::EventRecord;
use covern_campaign::DeltaEvent;
use covern_core::artifact::Margin;
use covern_nn::Network;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The protocol version tag; every message's `v` field must equal it.
pub const PROTOCOL_VERSION: &str = "covern-protocol-v1";

/// One client → server message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Protocol version tag ([`PROTOCOL_VERSION`]).
    pub v: String,
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The command to execute.
    pub cmd: Command,
}

impl Request {
    /// Wraps a command in a versioned envelope.
    pub fn new(id: u64, cmd: Command) -> Self {
        Self { v: PROTOCOL_VERSION.to_owned(), id, cmd }
    }
}

/// The commands of `covern-protocol-v1`.
//
// `Open` carries the whole problem (network + boxes + optional
// closed-loop spec) inline, which dwarfs the other variants. A command
// is decoded once per request line and consumed immediately — it is
// never stored in bulk — and the wire shim does not model smart
// pointers, so boxing the payload would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Command {
    /// Identify the server; the canonical first message of a connection.
    Hello,
    /// Open a session: run (or dedupe through the process-wide cache) the
    /// original verification of the carried problem.
    Open(OpenParams),
    /// Re-open a session from a checkpoint string (see
    /// [`Command::Checkpoint`]) without re-verifying.
    Resume(ResumeParams),
    /// Stream one delta into a session; answered by a
    /// [`Reply::Verdict`] once the session worker has absorbed it.
    Delta(DeltaParams),
    /// Serialize a session's verifier state to a checkpoint string.
    Checkpoint(SessionRef),
    /// Process-wide counters: sessions, deltas, shared-cache hit/miss.
    Stats,
    /// The full metrics registry rendered in Prometheus text format
    /// (the in-band twin of the `--metrics-http` scrape endpoint).
    Metrics,
    /// Close a session and return its summary.
    Close(SessionRef),
    /// Drain every session's in-flight work, then stop the server.
    Shutdown,
}

/// Parameters of [`Command::Open`].
#[derive(Debug, Clone, Serialize)]
pub struct OpenParams {
    /// Client-side label, echoed in replies and summaries.
    pub label: String,
    /// The network `f` of the original verification — or, when
    /// `closed_loop` is set, the **controller**. It travels in its derived
    /// shape, `{"layers":[{"weights":{"rows","cols","data"},"bias",
    /// "activation"}]}`, with every weight and bias a shortest round-trip
    /// decimal float (exact on decode), not in the bit-pattern
    /// `covern-network-v1` file form.
    pub network: Network,
    /// The input domain `Din` (closed loop: mirrors the initial set).
    pub din: BoxDomain,
    /// The safety set `Dout` (closed loop: mirrors the unsafe region).
    pub dout: BoxDomain,
    /// Abstract domain for artifact construction.
    pub domain: DomainKind,
    /// Artifact buffering margin (`{"rel": 0.0, "abs": 0.0}` for none).
    pub margin: Margin,
    /// When non-`null`, the session is **closed-loop**: the server
    /// propagates a reach tube through controller + plant per this spec
    /// instead of running the open-loop pipeline. Absent (pre-closed-loop
    /// clients) decodes as `null`.
    pub closed_loop: Option<covern_closedloop::ClosedLoopSpec>,
}

impl Deserialize for OpenParams {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            label: Deserialize::from_value(value.field("label")?)?,
            network: Deserialize::from_value(value.field("network")?)?,
            din: Deserialize::from_value(value.field("din")?)?,
            dout: Deserialize::from_value(value.field("dout")?)?,
            domain: Deserialize::from_value(value.field("domain")?)?,
            margin: Deserialize::from_value(value.field("margin")?)?,
            // Absent on pre-closed-loop clients; tolerated so their
            // `covern-protocol-v1` Open lines keep decoding.
            closed_loop: match value.field("closed_loop") {
                Ok(v) => Deserialize::from_value(v)?,
                Err(_) => None,
            },
        })
    }
}

/// Parameters of [`Command::Resume`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResumeParams {
    /// Client-side label, echoed in replies and summaries.
    pub label: String,
    /// A checkpoint string previously returned by
    /// [`Reply::Checkpoint`] (the `covern-verifier-v1` JSON form).
    pub state: String,
}

/// Parameters of [`Command::Delta`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeltaParams {
    /// The target session id.
    pub session: u64,
    /// The delta to absorb, in the order sent.
    pub delta: DeltaEvent,
}

/// A bare session reference ([`Command::Checkpoint`], [`Command::Close`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionRef {
    /// The target session id.
    pub session: u64,
}

/// One server → client message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version tag ([`PROTOCOL_VERSION`]).
    pub v: String,
    /// The correlation id of the request this answers (`0` when the
    /// request was too malformed to extract one).
    pub id: u64,
    /// The payload.
    pub reply: Reply,
}

impl Response {
    /// Wraps a reply in a versioned envelope.
    pub fn new(id: u64, reply: Reply) -> Self {
        Self { v: PROTOCOL_VERSION.to_owned(), id, reply }
    }
}

/// The reply payloads of `covern-protocol-v1`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Reply {
    /// Answer to [`Command::Hello`].
    Hello(ServerInfo),
    /// Answer to [`Command::Open`] / [`Command::Resume`]: the session is
    /// registered and its original verification (or checkpoint restore)
    /// completed.
    Opened(SessionOpened),
    /// Answer to [`Command::Delta`]: the verdict of the deciding strategy.
    Verdict(VerdictEvent),
    /// Answer to [`Command::Checkpoint`].
    Checkpoint(CheckpointState),
    /// Answer to [`Command::Stats`].
    Stats(StatsSnapshot),
    /// Answer to [`Command::Metrics`].
    Metrics(MetricsText),
    /// Answer to [`Command::Close`].
    Closed(SessionSummary),
    /// Answer to [`Command::Shutdown`], sent *after* every session's
    /// queued work has drained.
    ShuttingDown,
    /// Backpressure: the session's bounded inbox is full; retry after
    /// outstanding verdicts arrive.
    Busy(BusyInfo),
    /// Any request-level failure; see [`ErrorCode`].
    Error(ErrorInfo),
}

/// Server identification ([`Reply::Hello`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerInfo {
    /// The protocol version the server speaks.
    pub protocol: String,
    /// Server implementation and version, e.g. `covern-service/0.1.0`.
    pub server: String,
    /// Per-session verifier thread budget the server grants.
    pub session_threads: u64,
    /// Bounded-inbox capacity per session (backpressure threshold).
    pub inbox_capacity: u64,
}

/// A successfully opened (or resumed) session ([`Reply::Opened`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionOpened {
    /// The server-assigned session id (process-unique).
    pub session: u64,
    /// The client's label, echoed.
    pub label: String,
    /// Outcome of the original verification (`proved` | `refuted` |
    /// `unknown`); for [`Command::Resume`] the checkpointed status.
    pub outcome: String,
    /// Wall time of the original verification in microseconds. For a
    /// process-wide cache hit this is what the shared instance originally
    /// cost, not the lookup.
    pub wall_us: u64,
}

/// One absorbed delta's verdict ([`Reply::Verdict`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerdictEvent {
    /// The session that absorbed the delta.
    pub session: u64,
    /// Per-session sequence number, starting at 0 — deltas are absorbed
    /// and answered in submission order.
    pub seq: u64,
    /// Kind, deciding strategy, outcome, optional witness, and the
    /// footnote-3 time accounting (same shape as campaign reports).
    pub record: EventRecord,
}

/// A serialized session ([`Reply::Checkpoint`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointState {
    /// The checkpointed session id.
    pub session: u64,
    /// Self-contained verifier state (`covern-verifier-v1` JSON); feed it
    /// back through [`Command::Resume`] — on this server or another.
    pub state: String,
}

/// Process-wide counters ([`Reply::Stats`]). All counters are monotone
/// over a server's lifetime except `sessions_open`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Sessions currently registered.
    pub sessions_open: u64,
    /// Sessions ever opened (including resumed and since-closed ones).
    pub sessions_opened: u64,
    /// Deltas absorbed across all sessions.
    pub deltas_applied: u64,
    /// Shared-cache requests served from a stored artifact.
    pub cache_hits: u64,
    /// Shared-cache requests that ran the underlying full verification.
    pub cache_misses: u64,
    /// Distinct content addresses in the shared cache.
    pub cache_entries: u64,
}

/// A metrics render ([`Reply::Metrics`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsText {
    /// The exposition format version (`0.0.4`, the Prometheus text
    /// format).
    pub format: String,
    /// The registry rendered as Prometheus text: `# HELP`/`# TYPE`
    /// comment pairs followed by one sample line per series. Newlines are
    /// JSON-escaped on the wire; unescape to feed a Prometheus parser.
    pub text: String,
}

/// The exposition format tag of [`MetricsText::format`].
pub const METRICS_FORMAT: &str = "0.0.4";

/// A closed session's tally ([`Reply::Closed`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSummary {
    /// The closed session id.
    pub session: u64,
    /// The client's label, echoed.
    pub label: String,
    /// Deltas absorbed over the session's lifetime.
    pub deltas: u64,
    /// Deltas whose verdict was `proved`.
    pub proved: u64,
    /// Deltas whose verdict was `refuted`.
    pub refuted: u64,
    /// Deltas whose verdict was `unknown`.
    pub unknown: u64,
}

/// Backpressure details ([`Reply::Busy`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BusyInfo {
    /// The session whose inbox is full.
    pub session: u64,
    /// Deltas currently queued (equals `capacity` when busy).
    pub pending: u64,
    /// The inbox bound.
    pub capacity: u64,
}

/// Machine-readable failure class ([`Reply::Error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The line was not a well-formed `Request` (unparseable JSON, missing
    /// fields, an unknown command tag, or a network with no layers or
    /// inconsistent shapes).
    MalformedRequest,
    /// The `v` field named a protocol this server does not speak.
    UnsupportedVersion,
    /// The referenced session id is not (or no longer) registered.
    UnknownSession,
    /// The opened problem is invalid (a network that does not fit its
    /// boxes, malformed boxes) or a resume checkpoint failed to decode.
    InvalidProblem,
    /// A delta was structurally inapplicable to its session (architecture
    /// change, non-enlargement, wrong arity) — the session stays usable.
    DeltaFailed,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self {
            ErrorCode::MalformedRequest => "malformed-request",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::InvalidProblem => "invalid-problem",
            ErrorCode::DeltaFailed => "delta-failed",
            ErrorCode::ShuttingDown => "shutting-down",
        };
        f.write_str(tag)
    }
}

/// Failure details ([`Reply::Error`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorInfo {
    /// The failure class.
    pub code: ErrorCode,
    /// Human-readable context (never required for dispatch).
    pub message: String,
}

impl ErrorInfo {
    /// Builds failure details.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self { code, message: message.into() }
    }
}

/// Serializes a message to its one-line wire form (no trailing newline).
///
/// # Errors
///
/// Returns [`serde_json::Error`] if encoding fails.
pub fn encode<T: Serialize>(msg: &T) -> Result<String, serde_json::Error> {
    serde_json::to_string(msg)
}

/// Writes one message as one wire frame: the encoded line and its `\n`
/// terminator leave in a single `write_all`, then the writer is flushed.
///
/// One frame is one write. A frame written in two pieces (body, then
/// `\n`) on a TCP stream sends the one-byte tail as a second small
/// segment, which Nagle's algorithm holds until the peer's delayed ACK —
/// tens of milliseconds per round trip. Every sender in the crate (client,
/// server responder, cluster coordinator) goes through this function.
///
/// [`serde_json::to_string`] sizes its buffer with a spare byte, so the
/// terminator is appended in place: a 185 KB `Open` frame is built once
/// and never copied.
///
/// # Errors
///
/// Returns the writer's [`std::io::Error`]; an encoding failure is
/// reported as [`std::io::ErrorKind::InvalidData`].
pub fn write_frame<T: Serialize>(
    w: &mut (impl std::io::Write + ?Sized),
    msg: &T,
) -> std::io::Result<()> {
    let mut frame = encode(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    frame.push('\n');
    w.write_all(frame.as_bytes())?;
    w.flush()
}

/// Parses one wire line as a message.
///
/// # Errors
///
/// Returns [`serde_json::Error`] on malformed JSON or a shape mismatch.
pub fn decode<T: Deserialize>(line: &str) -> Result<T, serde_json::Error> {
    serde_json::from_str(line.trim())
}

/// A [`std::io::Write`] that records every `write` call, for asserting
/// that each sender puts one frame on the wire in one write.
#[cfg(test)]
#[derive(Clone, Default)]
pub(crate) struct CountingWriter(std::sync::Arc<std::sync::Mutex<(usize, Vec<u8>)>>);

#[cfg(test)]
impl CountingWriter {
    /// Number of `write` calls so far.
    pub(crate) fn writes(&self) -> usize {
        self.0.lock().unwrap().0
    }

    /// Everything written so far.
    pub(crate) fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().1.clone()
    }
}

#[cfg(test)]
impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut state = self.0.lock().unwrap();
        state.0 += 1;
        state.1.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covern_nn::{Activation, NetworkBuilder};

    fn tiny_net() -> Network {
        NetworkBuilder::new(1).dense_from_rows(&[&[2.0]], &[0.5], Activation::Relu).build().unwrap()
    }

    #[test]
    fn requests_roundtrip_all_commands() {
        let net = tiny_net();
        let b = BoxDomain::from_bounds(&[(-1.0, 1.0)]).unwrap();
        let cmds = vec![
            Command::Hello,
            Command::Open(OpenParams {
                label: "s".into(),
                network: net.clone(),
                din: b.clone(),
                dout: b.clone(),
                domain: DomainKind::Box,
                margin: Margin::NONE,
                closed_loop: None,
            }),
            Command::Resume(ResumeParams { label: "r".into(), state: "{}".into() }),
            Command::Delta(DeltaParams { session: 7, delta: DeltaEvent::DomainEnlarged(b) }),
            Command::Checkpoint(SessionRef { session: 7 }),
            Command::Stats,
            Command::Metrics,
            Command::Close(SessionRef { session: 7 }),
            Command::Shutdown,
        ];
        for (i, cmd) in cmds.into_iter().enumerate() {
            let line = encode(&Request::new(i as u64, cmd)).unwrap();
            assert!(!line.contains('\n'), "wire form must be one line");
            let back: Request = decode(&line).unwrap();
            assert_eq!(back.id, i as u64);
            assert_eq!(back.v, PROTOCOL_VERSION);
        }
    }

    #[test]
    fn replies_roundtrip() {
        let replies = vec![
            Reply::Hello(ServerInfo {
                protocol: PROTOCOL_VERSION.into(),
                server: "covern-service/0.1.0".into(),
                session_threads: 2,
                inbox_capacity: 32,
            }),
            Reply::Opened(SessionOpened {
                session: 1,
                label: "s".into(),
                outcome: "proved".into(),
                wall_us: 99,
            }),
            Reply::Stats(StatsSnapshot {
                sessions_open: 1,
                sessions_opened: 2,
                deltas_applied: 3,
                cache_hits: 4,
                cache_misses: 5,
                cache_entries: 5,
            }),
            Reply::Metrics(MetricsText {
                format: METRICS_FORMAT.into(),
                text: "# TYPE covern_sessions_open gauge\ncovern_sessions_open 1\n".into(),
            }),
            Reply::ShuttingDown,
            Reply::Busy(BusyInfo { session: 1, pending: 32, capacity: 32 }),
            Reply::Error(ErrorInfo::new(ErrorCode::UnknownSession, "no session 9")),
        ];
        for (i, reply) in replies.into_iter().enumerate() {
            let line = encode(&Response::new(i as u64, reply)).unwrap();
            let back: Response = decode(&line).unwrap();
            assert_eq!(back.id, i as u64);
        }
    }

    #[test]
    fn error_codes_have_stable_display_tags() {
        assert_eq!(ErrorCode::MalformedRequest.to_string(), "malformed-request");
        assert_eq!(ErrorCode::ShuttingDown.to_string(), "shutting-down");
        // The wire form is the variant name (externally tagged).
        assert_eq!(encode(&ErrorCode::UnknownSession).unwrap(), "\"UnknownSession\"");
    }

    #[test]
    fn open_params_tolerate_missing_closed_loop_and_roundtrip_specs() {
        // A pre-closed-loop client's Open line (no `closed_loop` key)
        // still decodes, as None.
        let b = BoxDomain::from_bounds(&[(-1.0, 1.0)]).unwrap();
        let legacy = Command::Open(OpenParams {
            label: "legacy".into(),
            network: tiny_net(),
            din: b.clone(),
            dout: b.clone(),
            domain: DomainKind::Box,
            margin: Margin::NONE,
            closed_loop: None,
        });
        let line = encode(&Request::new(1, legacy)).unwrap();
        let stripped = line.replace(",\"closed_loop\":null", "");
        assert_ne!(stripped, line, "the optional field is always present on the wire");
        let back: Request = decode(&stripped).unwrap();
        let Command::Open(p) = back.cmd else { panic!("kind changed in flight") };
        assert!(p.closed_loop.is_none());

        // A closed-loop spec survives the wire bit-exactly.
        let spec = covern_closedloop::ClosedLoopSpec {
            plant: covern_closedloop::AffinePlant::new(
                &covern_tensor::Matrix::from_rows(&[&[0.5]]),
                &covern_tensor::Matrix::from_rows(&[&[0.25]]),
                &[0.0],
            )
            .unwrap(),
            init: BoxDomain::from_bounds(&[(-0.5, 0.5)]).unwrap(),
            unsafe_region: BoxDomain::from_bounds(&[(0.9, 10.0)]).unwrap(),
            horizon: 10,
            max_generators: 12,
            sample_limit: 16,
        };
        let looped = Command::Open(OpenParams {
            label: "loop".into(),
            network: tiny_net(),
            din: spec.init.clone(),
            dout: spec.unsafe_region.clone(),
            domain: DomainKind::Zonotope,
            margin: Margin::NONE,
            closed_loop: Some(spec.clone()),
        });
        let line = encode(&Request::new(2, looped)).unwrap();
        let back: Request = decode(&line).unwrap();
        let Command::Open(p) = back.cmd else { panic!("kind changed in flight") };
        assert_eq!(p.closed_loop.as_ref(), Some(&spec));
    }

    #[test]
    fn unknown_command_tags_fail_to_decode() {
        let line = format!("{{\"v\":\"{PROTOCOL_VERSION}\",\"id\":1,\"cmd\":\"Explode\"}}");
        assert!(decode::<Request>(&line).is_err());
        assert!(decode::<Request>("not json").is_err());
    }

    #[test]
    fn write_frame_is_one_terminated_line_in_one_write() {
        let mut w = CountingWriter::default();
        let req = Request::new(7, Command::Stats);
        write_frame(&mut w, &req).unwrap();
        assert_eq!(w.writes(), 1, "body and newline leave together");
        let bytes = w.bytes();
        assert_eq!(bytes, format!("{}\n", encode(&req).unwrap()).into_bytes());
        let back: Request = decode(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(back.id, 7);
    }
}
