//! The request dispatcher: protocol commands → session work.
//!
//! One [`Service`] lives per daemon process and is shared by every
//! transport connection. It owns:
//!
//! * the **process-wide** content-addressed [`ArtifactCache`] — every
//!   session's original verification and full fallbacks route through it,
//!   so fine-tune families dedupe full verifications *across clients*;
//! * the [`SessionRegistry`] of live sessions;
//! * a persistent [`WorkerPool`] on which session **drain tasks** run.
//!
//! Execution model: `Open`/`Resume` run on the calling transport thread
//! (two clients opening concurrently are concurrent; the cache's
//! single-flight slots dedupe identical instances). `Delta` only *queues*:
//! the session's drain task — at most one per session, submitted to the
//! pool on demand — absorbs queued deltas strictly in submission order and
//! pushes each verdict to the responder that sent it. `Shutdown` flips the
//! draining flag (new work is refused with `ShuttingDown`), waits until
//! every drain task has finished, and only then acknowledges — in-flight
//! verifications are never abandoned.

use crate::protocol::{
    BusyInfo, CheckpointState, Command, ErrorCode, ErrorInfo, MetricsText, OpenParams, Reply,
    Request, Response, ResumeParams, ServerInfo, SessionOpened, StatsSnapshot, METRICS_FORMAT,
    PROTOCOL_VERSION,
};
use crate::session::{Enqueue, QueuedDelta, Session, SessionRegistry, SessionVerifier};
use covern_absint::DomainKind;
use covern_campaign::ArtifactCache;
use covern_closedloop::{is_loop_checkpoint, LoopVerifier, TubeCache};
use covern_core::cache::VerifyCache;
use covern_core::method::LocalMethod;
use covern_core::parallel::WorkerPool;
use covern_core::pipeline::ContinuousVerifier;
use covern_core::problem::VerificationProblem;
use covern_observe::{metrics, obs_debug, obs_info, obs_warn};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// Server configuration (host-side; never on the wire).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker-pool size for session drain tasks; `0` uses the machine's
    /// parallelism.
    pub workers: usize,
    /// Per-session verifier thread budget for local subproblems.
    pub session_threads: usize,
    /// Bounded-inbox capacity per session; a full inbox answers `Busy`.
    pub inbox_capacity: usize,
    /// Local method for the propositions' exact checks.
    pub method: LocalMethod,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            session_threads: 1,
            inbox_capacity: 32,
            method: LocalMethod::Refine { domain: DomainKind::Symbolic, max_splits: 256 },
        }
    }
}

/// A reply sink. Transports hand one per connection to the dispatcher;
/// drain tasks keep a clone per queued delta, so a verdict always returns
/// to the connection that sent its delta.
pub trait Respond: Send + Sync {
    /// Delivers one response line. Implementations swallow I/O failures
    /// (a vanished client must not kill its session's drain task).
    fn send(&self, response: &Response);
}

/// A [`Respond`] writing newline-delimited JSON to any writer.
pub struct WriterResponder {
    writer: Mutex<Box<dyn std::io::Write + Send>>,
}

impl WriterResponder {
    /// Wraps a writer (one per connection).
    pub fn new(writer: Box<dyn std::io::Write + Send>) -> Self {
        Self { writer: Mutex::new(writer) }
    }
}

impl Respond for WriterResponder {
    fn send(&self, response: &Response) {
        let mut w = self.writer.lock().expect("responder lock");
        let _ = crate::protocol::write_frame(&mut *w, response);
    }
}

/// State shared with drain tasks (kept apart from [`Service`] so tasks
/// need no `Arc<Service>` receiver).
struct Shared {
    method: LocalMethod,
    deltas_applied: AtomicU64,
    /// Number of drain tasks submitted but not yet finished, and the
    /// condvar `Shutdown` waits on for it to reach zero.
    drains: Mutex<u64>,
    idle: Condvar,
}

impl Shared {
    fn drain_started(&self) {
        *self.drains.lock().expect("drain gauge lock") += 1;
        metrics().drain_tasks_active.inc();
    }

    fn drain_finished(&self) {
        let mut d = self.drains.lock().expect("drain gauge lock");
        *d -= 1;
        metrics().drain_tasks_active.dec();
        if *d == 0 {
            self.idle.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut d = self.drains.lock().expect("drain gauge lock");
        while *d > 0 {
            d = self.idle.wait(d).expect("drain gauge lock");
        }
    }
}

/// The daemon's dispatcher (see module docs).
pub struct Service {
    config: ServiceConfig,
    cache: Arc<ArtifactCache>,
    /// The process-wide closed-loop tube cache: per-step checkpoints and
    /// controller layer prefixes shared by every closed-loop session, so
    /// fine-tune siblings warm-start across clients just like open-loop
    /// sessions dedupe through the artifact cache.
    tube_cache: Arc<TubeCache>,
    registry: SessionRegistry,
    pool: WorkerPool,
    shared: Arc<Shared>,
    /// The admission gate: `Open`/`Resume`/`Delta` hold the read half
    /// across their check-then-admit sequence; `Shutdown` sets the flag
    /// under the write half. This makes flag-set atomic with admissions —
    /// work is either fully admitted *before* the flag (so the drain
    /// gauge counts it and `wait_idle` waits for it) or observes the flag
    /// and is refused; nothing slips in after the `ShuttingDown` ack.
    admission: RwLock<()>,
    shutting_down: AtomicBool,
}

impl Service {
    /// Builds a service with a fresh process-wide cache.
    pub fn new(config: ServiceConfig) -> Arc<Self> {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            config.workers
        };
        Arc::new(Self {
            shared: Arc::new(Shared {
                method: config.method,
                deltas_applied: AtomicU64::new(0),
                drains: Mutex::new(0),
                idle: Condvar::new(),
            }),
            config,
            cache: Arc::new(ArtifactCache::new()),
            tube_cache: Arc::new(TubeCache::new()),
            registry: SessionRegistry::new(),
            pool: WorkerPool::new(workers),
            admission: RwLock::new(()),
            shutting_down: AtomicBool::new(false),
        })
    }

    /// The process-wide artifact cache.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// The process-wide closed-loop tube cache.
    pub fn tube_cache(&self) -> &Arc<TubeCache> {
        &self.tube_cache
    }

    /// The live-session registry.
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Whether `Shutdown` has been received.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Current process-wide counters.
    pub fn stats(&self) -> StatsSnapshot {
        let cache = self.cache.stats();
        StatsSnapshot {
            sessions_open: self.registry.open_count(),
            sessions_opened: self.registry.opened_total(),
            deltas_applied: self.shared.deltas_applied.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: self.cache.len() as u64,
        }
    }

    /// Parses and dispatches one wire line. `Break` means the transport
    /// must stop serving (shutdown acknowledged).
    pub fn handle_line(&self, line: &str, responder: &Arc<dyn Respond>) -> ControlFlow<()> {
        match crate::protocol::decode::<Request>(line) {
            Ok(req) => self.handle_request(req, responder),
            Err(e) => {
                metrics().requests_total.inc();
                metrics().protocol_errors_total.inc();
                obs_warn!("malformed request", error = e);
                // Best effort: salvage the correlation id so the client can
                // still match the failure to its request.
                let id = serde_json::parse(line.trim())
                    .ok()
                    .and_then(|v| {
                        v.field("id")
                            .ok()
                            .and_then(|f| <u64 as serde::Deserialize>::from_value(f).ok())
                    })
                    .unwrap_or(0);
                responder.send(&Response::new(
                    id,
                    Reply::Error(ErrorInfo::new(ErrorCode::MalformedRequest, e.to_string())),
                ));
                ControlFlow::Continue(())
            }
        }
    }

    /// Dispatches one parsed request. `Break` means the transport must
    /// stop serving (shutdown acknowledged).
    pub fn handle_request(&self, req: Request, responder: &Arc<dyn Respond>) -> ControlFlow<()> {
        metrics().requests_total.inc();
        let id = req.id;
        if req.v != PROTOCOL_VERSION {
            metrics().protocol_errors_total.inc();
            responder.send(&Response::new(
                id,
                Reply::Error(ErrorInfo::new(
                    ErrorCode::UnsupportedVersion,
                    format!("server speaks {PROTOCOL_VERSION}, request said {:?}", req.v),
                )),
            ));
            return ControlFlow::Continue(());
        }
        let reply = match req.cmd {
            Command::Hello => Reply::Hello(ServerInfo {
                protocol: PROTOCOL_VERSION.to_owned(),
                server: concat!("covern-service/", env!("CARGO_PKG_VERSION")).to_owned(),
                session_threads: self.config.session_threads as u64,
                inbox_capacity: self.config.inbox_capacity as u64,
            }),
            Command::Open(params) => self.open(params),
            Command::Resume(params) => self.resume(params),
            Command::Delta(params) => {
                // Queuing replies (Busy/Error) return here; the verdict
                // itself is pushed by the drain task.
                match self.delta(id, params, responder) {
                    Some(reply) => reply,
                    None => return ControlFlow::Continue(()),
                }
            }
            Command::Checkpoint(r) => self.checkpoint(r.session),
            Command::Stats => Reply::Stats(self.stats()),
            Command::Metrics => {
                let m = metrics();
                m.metrics_scrapes_total.inc();
                Reply::Metrics(MetricsText {
                    format: METRICS_FORMAT.to_owned(),
                    text: m.render_prometheus(),
                })
            }
            Command::Close(r) => match self.registry.remove(r.session) {
                Some(session) => {
                    metrics().sessions_closed_total.inc();
                    metrics().sessions_open.dec();
                    obs_info!("session closed", session = r.session, label = session.label());
                    Reply::Closed(session.summary())
                }
                None => unknown_session(r.session),
            },
            Command::Shutdown => {
                // The write half waits out any admission in flight, so
                // everything admitted before the flag is visible to the
                // drain gauge below; everything after is refused.
                {
                    let _gate = self.admission.write().unwrap_or_else(|p| p.into_inner());
                    self.shutting_down.store(true, Ordering::SeqCst);
                }
                obs_info!("shutdown requested, draining", open = self.registry.open_count());
                // Drain every queued delta before acknowledging: clients
                // that pipelined deltas get all their verdicts, then the
                // ack, in order.
                self.shared.wait_idle();
                obs_info!("shutdown drain complete");
                responder.send(&Response::new(id, Reply::ShuttingDown));
                return ControlFlow::Break(());
            }
        };
        if matches!(reply, Reply::Error(_)) {
            metrics().protocol_errors_total.inc();
        }
        if matches!(reply, Reply::Busy(_)) {
            metrics().busy_replies_total.inc();
        }
        responder.send(&Response::new(id, reply));
        ControlFlow::Continue(())
    }

    /// Blocks until every submitted drain task has finished.
    pub fn wait_idle(&self) {
        self.shared.wait_idle();
    }

    fn open(&self, params: OpenParams) -> Reply {
        let _gate = self.admission.read().unwrap_or_else(|p| p.into_inner());
        if self.is_shutting_down() {
            return shutting_down();
        }
        let t0 = Instant::now();
        if let Some(spec) = params.closed_loop {
            return self.open_loop_session(params.label, spec, params.network, params.domain, t0);
        }
        let problem = match VerificationProblem::new(params.network, params.din, params.dout) {
            Ok(p) => p,
            Err(e) => return invalid_problem(e.to_string()),
        };
        let verifier = match ContinuousVerifier::with_margin_cached(
            problem,
            params.domain,
            params.margin,
            Some(Arc::clone(&self.cache) as Arc<dyn VerifyCache>),
            self.config.session_threads,
        ) {
            Ok(v) => v,
            Err(e) => return invalid_problem(e.to_string()),
        };
        let outcome = verifier.initial_report().outcome.to_string();
        let wall_us = verifier.initial_report().wall.as_micros() as u64;
        let session = self.registry.insert(params.label, SessionVerifier::Continuous(verifier));
        metrics().open_latency_seconds.observe_duration(t0.elapsed());
        metrics().sessions_opened_total.inc();
        metrics().sessions_open.inc();
        obs_info!(
            "session opened",
            session = session.id(),
            label = session.label(),
            outcome = outcome
        );
        Reply::Opened(SessionOpened {
            session: session.id(),
            label: session.label().to_owned(),
            outcome,
            wall_us,
        })
    }

    /// Opens a **closed-loop** session: validates the spec against the
    /// controller, runs the initial tube propagation through the
    /// process-wide tube cache, and registers the session.
    fn open_loop_session(
        &self,
        label: String,
        spec: covern_closedloop::ClosedLoopSpec,
        controller: covern_nn::Network,
        domain: DomainKind,
        t0: Instant,
    ) -> Reply {
        let mut verifier = match LoopVerifier::new(spec, controller, domain) {
            Ok(v) => v,
            Err(e) => return invalid_problem(e.to_string()),
        };
        verifier.set_cache(Some(Arc::clone(&self.tube_cache)));
        let report = match verifier.verify() {
            Ok(r) => r,
            Err(e) => return invalid_problem(e.to_string()),
        };
        let session = self.registry.insert(label, SessionVerifier::Loop(verifier));
        metrics().open_latency_seconds.observe_duration(t0.elapsed());
        metrics().sessions_opened_total.inc();
        metrics().sessions_open.inc();
        obs_info!(
            "closed-loop session opened",
            session = session.id(),
            label = session.label(),
            outcome = report.outcome
        );
        Reply::Opened(SessionOpened {
            session: session.id(),
            label: session.label().to_owned(),
            outcome: report.outcome,
            wall_us: report.wall_us,
        })
    }

    fn resume(&self, params: ResumeParams) -> Reply {
        let _gate = self.admission.read().unwrap_or_else(|p| p.into_inner());
        if self.is_shutting_down() {
            return shutting_down();
        }
        let t0 = Instant::now();
        if is_loop_checkpoint(&params.state) {
            let mut verifier = match LoopVerifier::from_checkpoint_json(&params.state) {
                Ok(v) => v,
                Err(e) => return invalid_problem(e.to_string()),
            };
            verifier.set_cache(Some(Arc::clone(&self.tube_cache)));
            // A loop checkpoint carries no stored report; re-propagating
            // through the shared tube cache restores the outcome (and is
            // step-for-step warm when this server verified the tube
            // before).
            let report = match verifier.verify() {
                Ok(r) => r,
                Err(e) => return invalid_problem(e.to_string()),
            };
            let session = self.registry.insert(params.label, SessionVerifier::Loop(verifier));
            metrics().open_latency_seconds.observe_duration(t0.elapsed());
            metrics().sessions_opened_total.inc();
            metrics().sessions_open.inc();
            obs_info!(
                "closed-loop session resumed",
                session = session.id(),
                label = session.label(),
                outcome = report.outcome
            );
            return Reply::Opened(SessionOpened {
                session: session.id(),
                label: session.label().to_owned(),
                outcome: report.outcome,
                wall_us: 0,
            });
        }
        let mut verifier = match ContinuousVerifier::from_checkpoint_json(&params.state) {
            Ok(v) => v,
            Err(e) => return invalid_problem(e.to_string()),
        };
        verifier.set_cache(Some(Arc::clone(&self.cache) as Arc<dyn VerifyCache>));
        verifier.set_threads(self.config.session_threads);
        let outcome = verifier.initial_report().outcome.to_string();
        let session = self.registry.insert(params.label, SessionVerifier::Continuous(verifier));
        metrics().open_latency_seconds.observe_duration(t0.elapsed());
        metrics().sessions_opened_total.inc();
        metrics().sessions_open.inc();
        obs_info!(
            "session resumed",
            session = session.id(),
            label = session.label(),
            outcome = outcome
        );
        Reply::Opened(SessionOpened {
            session: session.id(),
            label: session.label().to_owned(),
            outcome,
            wall_us: 0,
        })
    }

    /// Queues a delta. Returns `Some(reply)` for immediate answers
    /// (unknown session, busy, shutting down); `None` when the verdict
    /// will be pushed asynchronously by the drain task.
    fn delta(
        &self,
        id: u64,
        params: crate::protocol::DeltaParams,
        responder: &Arc<dyn Respond>,
    ) -> Option<Reply> {
        let _gate = self.admission.read().unwrap_or_else(|p| p.into_inner());
        if self.is_shutting_down() {
            return Some(shutting_down());
        }
        let Some(session) = self.registry.get(params.session) else {
            return Some(unknown_session(params.session));
        };
        let item = QueuedDelta { id, delta: params.delta, responder: Arc::clone(responder) };
        match session.try_enqueue(item, self.config.inbox_capacity) {
            Enqueue::Busy { pending } => Some(Reply::Busy(BusyInfo {
                session: params.session,
                pending,
                capacity: self.config.inbox_capacity as u64,
            })),
            Enqueue::Queued => None,
            Enqueue::StartDrain => {
                let shared = Arc::clone(&self.shared);
                shared.drain_started();
                self.pool.submit(move || drain_session(&shared, &session));
                None
            }
        }
    }

    fn checkpoint(&self, session_id: u64) -> Reply {
        let Some(session) = self.registry.get(session_id) else {
            return unknown_session(session_id);
        };
        match session.checkpoint() {
            Ok(state) => Reply::Checkpoint(CheckpointState { session: session_id, state }),
            Err(e) => invalid_problem(e.to_string()),
        }
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.config)
            .field("sessions_open", &self.registry.open_count())
            .field("shutting_down", &self.is_shutting_down())
            .finish()
    }
}

/// A session's drain task: absorbs queued deltas in order until the inbox
/// is empty. Runs on the service's worker pool.
///
/// Every apply is panic-contained ([`WorkerPool`]'s contract: hosts that
/// must survive arbitrary jobs catch panics inside the closure): a panic
/// — a verifier bug on an adversarial input, a lock poisoned by an
/// earlier one — answers that delta with `DeltaFailed` and moves on, so
/// the session never wedges and the shutdown drain gauge always reaches
/// zero.
fn drain_session(shared: &Shared, session: &Arc<Session>) {
    while let Some(item) = session.pop_or_finish() {
        let t0 = Instant::now();
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.apply(&item.delta, &shared.method)
        }));
        let reply = match applied {
            Ok(Ok(event)) => {
                shared.deltas_applied.fetch_add(1, Ordering::Relaxed);
                let m = metrics();
                m.deltas_applied_total.inc();
                m.verdict_latency_seconds.observe_duration(t0.elapsed());
                match event.record.outcome.as_str() {
                    "proved" => &m.verdicts_proved_total,
                    "refuted" => &m.verdicts_refuted_total,
                    _ => &m.verdicts_unknown_total,
                }
                .inc();
                obs_debug!(
                    "verdict",
                    session = event.session,
                    seq = event.seq,
                    outcome = event.record.outcome
                );
                Reply::Verdict(event)
            }
            Ok(Err(e)) => {
                metrics().delta_failures_total.inc();
                obs_warn!("delta failed", session = session.id(), error = e);
                Reply::Error(ErrorInfo::new(ErrorCode::DeltaFailed, e))
            }
            Err(panic) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                metrics().delta_failures_total.inc();
                obs_warn!("delta panicked", session = session.id(), panic = what);
                Reply::Error(ErrorInfo::new(
                    ErrorCode::DeltaFailed,
                    format!("internal panic while applying delta: {what}"),
                ))
            }
        };
        item.responder.send(&Response::new(item.id, reply));
    }
    shared.drain_finished();
}

fn unknown_session(id: u64) -> Reply {
    Reply::Error(ErrorInfo::new(ErrorCode::UnknownSession, format!("no session {id}")))
}

fn invalid_problem(message: String) -> Reply {
    Reply::Error(ErrorInfo::new(ErrorCode::InvalidProblem, message))
}

fn shutting_down() -> Reply {
    Reply::Error(ErrorInfo::new(ErrorCode::ShuttingDown, "server is draining for shutdown"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use covern_absint::BoxDomain;
    use covern_campaign::DeltaEvent;
    use covern_core::artifact::Margin;
    use covern_nn::{Activation, Network, NetworkBuilder};

    /// Collects every response for assertion.
    #[derive(Default)]
    pub(crate) struct RecordingResponder {
        pub responses: Mutex<Vec<Response>>,
    }

    impl Respond for RecordingResponder {
        fn send(&self, response: &Response) {
            self.responses.lock().unwrap().push(response.clone());
        }
    }

    fn fig2_net() -> Network {
        NetworkBuilder::new(2)
            .dense_from_rows(
                &[&[1.0, -2.0], &[-2.0, 1.0], &[1.0, -1.0]],
                &[0.0; 3],
                Activation::Relu,
            )
            .dense_from_rows(&[&[2.0, 2.0, -1.0]], &[0.0], Activation::Relu)
            .build()
            .unwrap()
    }

    fn open_params(label: &str) -> OpenParams {
        OpenParams {
            label: label.into(),
            network: fig2_net(),
            din: BoxDomain::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]).unwrap(),
            dout: BoxDomain::from_bounds(&[(-0.5, 12.0)]).unwrap(),
            domain: DomainKind::Box,
            margin: Margin::NONE,
            closed_loop: None,
        }
    }

    fn wait_for_responses(rec: &RecordingResponder, n: usize) {
        for _ in 0..2_000 {
            if rec.responses.lock().unwrap().len() >= n {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!(
            "timed out waiting for {n} responses; got {:?}",
            rec.responses.lock().unwrap().len()
        );
    }

    #[test]
    fn writer_responder_sends_each_response_in_one_write() {
        let wire = crate::protocol::CountingWriter::default();
        let responder = WriterResponder::new(Box::new(wire.clone()));
        responder.send(&Response::new(1, Reply::ShuttingDown));
        let info = ErrorInfo::new(ErrorCode::UnknownSession, "no such session");
        responder.send(&Response::new(2, Reply::Error(info)));
        assert_eq!(wire.writes(), 2, "one write per frame");
        let text = String::from_utf8(wire.bytes()).unwrap();
        let ids: Vec<u64> =
            text.lines().map(|l| crate::protocol::decode::<Response>(l).unwrap().id).collect();
        assert_eq!(ids, [1, 2]);
    }

    #[test]
    fn open_delta_verdict_flow() {
        let service = Service::new(ServiceConfig::default());
        let rec = Arc::new(RecordingResponder::default());
        let responder: Arc<dyn Respond> = rec.clone();

        let _ =
            service.handle_request(Request::new(1, Command::Open(open_params("t"))), &responder);
        let opened = {
            let rs = rec.responses.lock().unwrap();
            let Reply::Opened(o) = &rs[0].reply else { panic!("expected Opened, got {:?}", rs[0]) };
            assert_eq!(o.outcome, "proved");
            o.clone()
        };

        let enlarged = BoxDomain::from_bounds(&[(-1.0, 1.1), (-1.0, 1.1)]).unwrap();
        let _ = service.handle_request(
            Request::new(
                2,
                Command::Delta(crate::protocol::DeltaParams {
                    session: opened.session,
                    delta: DeltaEvent::DomainEnlarged(enlarged),
                }),
            ),
            &responder,
        );
        wait_for_responses(&rec, 2);
        let rs = rec.responses.lock().unwrap();
        let Reply::Verdict(v) = &rs[1].reply else { panic!("expected Verdict, got {:?}", rs[1]) };
        assert_eq!(rs[1].id, 2);
        assert_eq!(v.seq, 0);
        assert_eq!(v.record.outcome, "proved");
        assert_eq!(v.record.kind, "domain-enlarged");
    }

    #[test]
    fn closed_loop_session_opens_deltas_and_resumes() {
        use covern_closedloop::{AffinePlant, ClosedLoopSpec};
        use covern_tensor::Matrix;

        // `x' = 0.5·x + 0.25·u`, `u = -gain·x` realized as
        // relu(x) − relu(−x): contracting for gain 1, divergent for −4.
        let controller = |gain: f64| -> Network {
            NetworkBuilder::new(1)
                .dense_from_rows(&[&[1.0], &[-1.0]], &[0.0, 0.0], Activation::Relu)
                .dense_from_rows(&[&[-gain, gain]], &[0.0], Activation::Identity)
                .build()
                .unwrap()
        };
        let spec = ClosedLoopSpec {
            plant: AffinePlant::new(
                &Matrix::from_rows(&[&[0.5]]),
                &Matrix::from_rows(&[&[0.25]]),
                &[0.0],
            )
            .unwrap(),
            init: BoxDomain::from_bounds(&[(-0.5, 0.5)]).unwrap(),
            unsafe_region: BoxDomain::from_bounds(&[(0.9, 10.0)]).unwrap(),
            horizon: 8,
            max_generators: 12,
            sample_limit: 16,
        };
        let service = Service::new(ServiceConfig::default());
        let rec = Arc::new(RecordingResponder::default());
        let responder: Arc<dyn Respond> = rec.clone();
        let params = OpenParams {
            label: "loop".into(),
            network: controller(1.0),
            din: spec.init.clone(),
            dout: spec.unsafe_region.clone(),
            domain: DomainKind::Zonotope,
            margin: Margin::NONE,
            closed_loop: Some(spec),
        };
        let _ = service.handle_request(Request::new(1, Command::Open(params)), &responder);
        let session = {
            let rs = rec.responses.lock().unwrap();
            let Reply::Opened(o) = &rs[0].reply else { panic!("{:?}", rs[0]) };
            assert_eq!(o.outcome, "proved");
            o.session
        };
        // A destabilizing fine-tune delta flips the verdict to refuted.
        let _ = service.handle_request(
            Request::new(
                2,
                Command::Delta(crate::protocol::DeltaParams {
                    session,
                    delta: DeltaEvent::ModelUpdated(controller(-4.0)),
                }),
            ),
            &responder,
        );
        wait_for_responses(&rec, 2);
        {
            let rs = rec.responses.lock().unwrap();
            let Reply::Verdict(v) = &rs[1].reply else { panic!("{:?}", rs[1]) };
            assert_eq!(v.record.outcome, "refuted");
            assert_eq!(v.record.strategy, "closed-loop");
            assert!(v.record.witness.is_some(), "refutations carry a witness");
        }
        // Checkpoint → resume restores the tuned controller's verdict.
        let _ = service.handle_request(
            Request::new(3, Command::Checkpoint(crate::protocol::SessionRef { session })),
            &responder,
        );
        let state = {
            let rs = rec.responses.lock().unwrap();
            let Reply::Checkpoint(c) = &rs[2].reply else { panic!("{:?}", rs[2]) };
            assert!(covern_closedloop::is_loop_checkpoint(&c.state));
            c.state.clone()
        };
        let _ = service.handle_request(
            Request::new(4, Command::Resume(ResumeParams { label: "loop-2".into(), state })),
            &responder,
        );
        let rs = rec.responses.lock().unwrap();
        let Reply::Opened(o) = &rs[3].reply else { panic!("{:?}", rs[3]) };
        assert_eq!(o.outcome, "refuted", "resume re-propagates the tuned tube");
    }

    #[test]
    fn busy_backpressure_when_inbox_full() {
        // One pool worker, occupied by a sleeper: queued deltas cannot
        // drain, so the second delta finds the capacity-1 inbox full.
        let service =
            Service::new(ServiceConfig { workers: 1, inbox_capacity: 1, ..Default::default() });
        let rec = Arc::new(RecordingResponder::default());
        let responder: Arc<dyn Respond> = rec.clone();
        let _ =
            service.handle_request(Request::new(1, Command::Open(open_params("t"))), &responder);
        let session = {
            let rs = rec.responses.lock().unwrap();
            let Reply::Opened(o) = &rs[0].reply else { panic!("open failed: {:?}", rs[0]) };
            o.session
        };
        service.pool.submit(|| std::thread::sleep(std::time::Duration::from_millis(150)));

        let delta = |id| {
            Request::new(
                id,
                Command::Delta(crate::protocol::DeltaParams {
                    session,
                    delta: DeltaEvent::DomainEnlarged(
                        BoxDomain::from_bounds(&[(-1.0, 1.05), (-1.0, 1.05)]).unwrap(),
                    ),
                }),
            )
        };
        let _ = service.handle_request(delta(2), &responder);
        let _ = service.handle_request(delta(3), &responder);
        // The second delta is answered immediately with Busy.
        wait_for_responses(&rec, 2);
        {
            let rs = rec.responses.lock().unwrap();
            let busy = rs.iter().find(|r| r.id == 3).expect("busy reply");
            let Reply::Busy(b) = &busy.reply else { panic!("expected Busy, got {busy:?}") };
            assert_eq!(b.capacity, 1);
            assert_eq!(b.pending, 1);
        }
        // Once the sleeper releases the worker, the queued delta drains.
        wait_for_responses(&rec, 3);
        let rs = rec.responses.lock().unwrap();
        let verdict = rs.iter().find(|r| r.id == 2).expect("verdict reply");
        assert!(matches!(verdict.reply, Reply::Verdict(_)), "got {verdict:?}");
    }

    #[test]
    fn unknown_session_and_malformed_lines_error_cleanly() {
        let service = Service::new(ServiceConfig::default());
        let rec = Arc::new(RecordingResponder::default());
        let responder: Arc<dyn Respond> = rec.clone();
        let _ = service.handle_request(
            Request::new(
                5,
                Command::Delta(crate::protocol::DeltaParams {
                    session: 99,
                    delta: DeltaEvent::DomainEnlarged(
                        BoxDomain::from_bounds(&[(-1.0, 1.0)]).unwrap(),
                    ),
                }),
            ),
            &responder,
        );
        let _ = service.handle_line("{\"id\": 7, \"v\":", &responder);
        let _ = service
            .handle_line("{\"v\":\"covern-protocol-v0\",\"id\":8,\"cmd\":\"Hello\"}", &responder);
        let rs = rec.responses.lock().unwrap();
        let Reply::Error(e) = &rs[0].reply else { panic!("{:?}", rs[0]) };
        assert_eq!(e.code, ErrorCode::UnknownSession);
        assert_eq!(rs[0].id, 5);
        let Reply::Error(e) = &rs[1].reply else { panic!("{:?}", rs[1]) };
        assert_eq!(e.code, ErrorCode::MalformedRequest);
        let Reply::Error(e) = &rs[2].reply else { panic!("{:?}", rs[2]) };
        assert_eq!(e.code, ErrorCode::UnsupportedVersion);
        assert_eq!(rs[2].id, 8);
    }

    #[test]
    fn malformed_problem_is_rejected_as_invalid() {
        let service = Service::new(ServiceConfig::default());
        let rec = Arc::new(RecordingResponder::default());
        let responder: Arc<dyn Respond> = rec.clone();
        // Din arity 3 against a 2-input network.
        let mut params = open_params("bad");
        params.din = BoxDomain::from_bounds(&[(-1.0, 1.0); 3]).unwrap();
        let _ = service.handle_request(Request::new(1, Command::Open(params)), &responder);
        let rs = rec.responses.lock().unwrap();
        let Reply::Error(e) = &rs[0].reply else { panic!("{:?}", rs[0]) };
        assert_eq!(e.code, ErrorCode::InvalidProblem);
        assert_eq!(service.stats().sessions_open, 0);
    }

    #[test]
    fn malformed_networks_get_error_replies_and_the_connection_keeps_serving() {
        let service = Service::new(ServiceConfig::default());
        let rec = Arc::new(RecordingResponder::default());
        let responder: Arc<dyn Respond> = rec.clone();
        let open_line =
            crate::protocol::encode(&Request::new(1, Command::Open(open_params("ok")))).unwrap();
        let net = crate::protocol::encode(&fig2_net()).unwrap();
        assert!(open_line.contains(&net));
        let bad_nets = [
            // No layers.
            r#"{"layers":[]}"#.to_owned(),
            // Weight data shorter than rows x cols.
            net.replacen("[1.0,-2.0,-2.0,1.0,1.0,-1.0]", "[1.0,-2.0]", 1),
            // rows x cols overflows usize.
            net.replacen(r#""rows":3,"cols":2"#, r#""rows":4294967296,"cols":4294967297"#, 1),
            // Bias length differs from the weight rows.
            net.replacen(r#""bias":[0.0,0.0,0.0]"#, r#""bias":[0.0]"#, 1),
            // Consecutive layers disagree on their shared dimension.
            net.replacen(
                r#""rows":1,"cols":3,"data":[2.0,2.0,-1.0]"#,
                r#""rows":1,"cols":2,"data":[2.0,2.0]"#,
                1,
            ),
        ];
        let _ = service.handle_line(&open_line, &responder);
        let session = {
            let rs = rec.responses.lock().unwrap();
            let Reply::Opened(o) = &rs[0].reply else { panic!("{:?}", rs[0]) };
            o.session
        };
        let mut ids = Vec::new();
        for (i, bad) in bad_nets.iter().enumerate() {
            assert_ne!(bad, &net, "case {i} must change the network");
            let id = 10 + i as u64;
            let open = open_line.replacen(&net, bad, 1).replacen(
                r#""id":1,"#,
                &format!("\"id\":{id},"),
                1,
            );
            let _ = service.handle_line(&open, &responder);
            let delta = format!(
                r#"{{"v":"{PROTOCOL_VERSION}","id":{},"cmd":{{"Delta":{{"session":{session},"delta":{{"ModelUpdated":{bad}}}}}}}}}"#,
                id + 100
            );
            let _ = service.handle_line(&delta, &responder);
            ids.extend([id, id + 100]);
        }
        let hello = format!(r#"{{"v":"{PROTOCOL_VERSION}","id":999,"cmd":"Hello"}}"#);
        let _ = service.handle_line(&hello, &responder);
        // A well-formed Open of the same problem still opens.
        let _ = service.handle_line(&open_line, &responder);
        let rs = rec.responses.lock().unwrap();
        assert_eq!(rs.len(), 1 + ids.len() + 2);
        for (r, id) in rs[1..].iter().zip(&ids) {
            assert_eq!(r.id, *id);
            let Reply::Error(e) = &r.reply else { panic!("id {id}: {r:?}") };
            assert_eq!(e.code, ErrorCode::MalformedRequest, "id {id}: {}", e.message);
        }
        assert!(matches!(rs[rs.len() - 2].reply, Reply::Hello(_)), "{:?}", rs[rs.len() - 2]);
        assert!(matches!(rs[rs.len() - 1].reply, Reply::Opened(_)), "{:?}", rs[rs.len() - 1]);
        assert_eq!(service.stats().sessions_open, 2);
        assert_eq!(service.stats().deltas_applied, 0);
    }

    #[test]
    fn checkpoint_resume_roundtrip_preserves_session_state() {
        let service = Service::new(ServiceConfig::default());
        let rec = Arc::new(RecordingResponder::default());
        let responder: Arc<dyn Respond> = rec.clone();
        let _ =
            service.handle_request(Request::new(1, Command::Open(open_params("a"))), &responder);
        let session = {
            let rs = rec.responses.lock().unwrap();
            let Reply::Opened(o) = &rs[0].reply else { panic!() };
            o.session
        };
        let _ = service.handle_request(
            Request::new(2, Command::Checkpoint(crate::protocol::SessionRef { session })),
            &responder,
        );
        let state = {
            let rs = rec.responses.lock().unwrap();
            let Reply::Checkpoint(c) = &rs[1].reply else { panic!("{:?}", rs[1]) };
            c.state.clone()
        };
        let _ = service.handle_request(
            Request::new(3, Command::Resume(ResumeParams { label: "a-restored".into(), state })),
            &responder,
        );
        let rs = rec.responses.lock().unwrap();
        let Reply::Opened(o) = &rs[2].reply else { panic!("{:?}", rs[2]) };
        assert_eq!(o.outcome, "proved");
        assert_ne!(o.session, session, "resume registers a fresh session id");
        assert_eq!(service.stats().sessions_opened, 2);
    }

    #[test]
    fn shutdown_drains_queued_deltas_before_acknowledging() {
        let service = Service::new(ServiceConfig { workers: 2, ..Default::default() });
        let rec = Arc::new(RecordingResponder::default());
        let responder: Arc<dyn Respond> = rec.clone();
        let _ =
            service.handle_request(Request::new(1, Command::Open(open_params("t"))), &responder);
        let session = {
            let rs = rec.responses.lock().unwrap();
            let Reply::Opened(o) = &rs[0].reply else { panic!() };
            o.session
        };
        // Pipeline three deltas, then shut down immediately.
        for (i, hi) in [(2u64, 1.02), (3, 1.05), (4, 1.08)] {
            let _ = service.handle_request(
                Request::new(
                    i,
                    Command::Delta(crate::protocol::DeltaParams {
                        session,
                        delta: DeltaEvent::DomainEnlarged(
                            BoxDomain::from_bounds(&[(-1.0, hi), (-1.0, hi)]).unwrap(),
                        ),
                    }),
                ),
                &responder,
            );
        }
        let flow = service.handle_request(Request::new(9, Command::Shutdown), &responder);
        assert!(flow.is_break());
        let rs = rec.responses.lock().unwrap();
        // All three verdicts arrived, and the shutdown ack came last.
        assert_eq!(rs.len(), 5);
        for id in [2u64, 3, 4] {
            let r = rs.iter().find(|r| r.id == id).expect("verdict");
            assert!(matches!(r.reply, Reply::Verdict(_)), "id {id}: {r:?}");
        }
        assert!(matches!(rs.last().unwrap().reply, Reply::ShuttingDown));
        // New work is refused while (and after) draining.
        drop(rs);
        let _ = service
            .handle_request(Request::new(10, Command::Open(open_params("late"))), &responder);
        let rs = rec.responses.lock().unwrap();
        let Reply::Error(e) = &rs.last().unwrap().reply else { panic!() };
        assert_eq!(e.code, ErrorCode::ShuttingDown);
    }
}
