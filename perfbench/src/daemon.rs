//! `daemon-sessions` and `daemon-cold`: fleet-shaped sessions replayed
//! through a separate `covern_cli serve --tcp` process by closed-loop
//! client connections, opening on cached families or on fresh ones.

use crate::corpus::{self, delta_count};
use crate::gate::{self, Tally};
use crate::output::{json_str, Outcome};
use crate::stats::{deciles_json, mean, median, percentile};
use crate::trace::{self, Tracer};
use crate::{cluster, inproc, probes, prom, sys, Ctx, THREADS};
use covern_campaign::report::ScenarioReport;
use covern_campaign::Scenario;
use covern_service::protocol::OpenParams;
use covern_service::Client;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scenarios in the warm replay pool; clients cycle through it.
const POOL: usize = 48;
/// Scenarios in each cold pool, one fresh family each; clients stop when
/// it runs out, so no family recurs however fast the daemon answers.
const COLD_POOL: usize = 512;
/// Fresh families opened and closed during a cold set-up: as many as a
/// cached set-up opens, so both set-ups span the same number of round
/// trips and a few slow ones do not set the figure.
const COLD_WARMUPS: usize = corpus::FLEET_FAMILIES + 2;
/// First family index of the cold set-up's warm-up sessions.
const COLD_WARMUP_FAMILY: u64 = 1 << 32;
/// Set-ups per run (launch, connects, cache warm-up); the median is
/// `setup_s`.
const SETUP_REPS: usize = 5;
/// Stats round trips sampled for `service.rtt_p50_ms`.
const RTT_SAMPLES: usize = 20;
const VERDICT_HIST: &str = "covern_verdict_latency_seconds";
const OPEN_HIST: &str = "covern_open_latency_seconds";

/// A running daemon and the clients connected to it.
struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    addr: String,
    /// One closed-loop client per connection.
    clients: Vec<Client>,
}

impl Daemon {
    /// Launches `cli serve` on a loopback port and connects `connections`
    /// clients; returns the daemon and each connect's duration.
    fn launch(cli: &Path, connections: usize) -> std::io::Result<(Self, Vec<Duration>)> {
        let mut child = Command::new(cli)
            .args([
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--workers",
                &THREADS.to_string(),
                "--session-threads",
                "1",
                "--refine-strategy",
                "refine",
                "--splits",
                "256",
            ])
            .env("COVERN_LOG", "off")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other("daemon exited before announcing its address"));
            }
            if let Some(rest) = line.trim().strip_prefix("covern-service listening on ") {
                break rest.to_owned();
            }
        };
        let drain = std::thread::spawn(move || {
            let mut sink = [0u8; 4096];
            while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
        });
        let mut daemon = Self { child, drain: Some(drain), addr, clients: Vec::new() };
        let mut connects = Vec::new();
        for _ in 0..connections {
            let t = Instant::now();
            let mut client =
                Client::connect(daemon.addr.as_str()).map_err(std::io::Error::other)?;
            connects.push(t.elapsed());
            client.hello().map_err(std::io::Error::other)?;
            daemon.clients.push(client);
        }
        Ok((daemon, connects))
    }

    /// Process id of the daemon.
    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to stop, then waits for it and its stderr drain.
    fn stop(mut self) {
        let asked = self.clients.first_mut().is_some_and(|c| c.shutdown().is_ok());
        self.clients.clear();
        if !asked {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One replayed session, as the client saw it.
struct Session {
    pool_index: usize,
    report: ScenarioReport,
    open_ms: Option<f64>,
    verdict_ms: Vec<f64>,
}

fn open_params(s: &Scenario) -> OpenParams {
    OpenParams {
        label: s.name.clone(),
        network: s.network.clone(),
        din: s.din.clone(),
        dout: s.dout.clone(),
        domain: s.domain,
        margin: s.margin,
        closed_loop: s.closed_loop.clone(),
    }
}

/// Replays one scenario: open, ordered deltas, close; spans go to `tr`.
fn replay(
    client: &mut Client,
    s: &Scenario,
    pool_index: usize,
    tr: &mut Option<&mut Tracer>,
) -> Session {
    let span = |tr: &mut Option<&mut Tracer>, name: &'static str| {
        if let Some(t) = tr.as_deref_mut() {
            t.enter(name, Some(pool_index as u64));
        }
    };
    let close = |tr: &mut Option<&mut Tracer>| {
        if let Some(t) = tr.as_deref_mut() {
            t.close();
        }
    };
    let mut out = Session {
        pool_index,
        report: ScenarioReport {
            name: s.name.clone(),
            initial_outcome: "unknown".into(),
            initial_wall_us: 0,
            events: Vec::new(),
            wall_us: 0,
            error: None,
        },
        open_ms: None,
        verdict_ms: Vec::new(),
    };
    span(tr, "service.open");
    let t = Instant::now();
    let opened = client.open(open_params(s));
    let elapsed = t.elapsed().as_secs_f64() * 1e3;
    close(tr);
    let session = match opened {
        Ok(o) => {
            out.open_ms = Some(elapsed);
            out.report.initial_outcome = o.outcome;
            o.session
        }
        Err(e) => {
            out.report.error = Some(e.to_string());
            return out;
        }
    };
    for ev in &s.events {
        span(tr, "service.delta");
        let t = Instant::now();
        let verdict = client.delta(session, ev.clone());
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        close(tr);
        match verdict {
            Ok(v) => {
                out.verdict_ms.push(elapsed);
                out.report.events.push(v.record);
            }
            Err(e) => {
                out.report.error = Some(format!("event {}: {e}", out.report.events.len()));
                break;
            }
        }
    }
    span(tr, "service.close");
    if let Err(e) = client.close(session) {
        out.report.error.get_or_insert(e.to_string());
    }
    close(tr);
    out
}

/// Drives every client in a closed loop over the pool until `seconds`
/// have passed, cycling the pool when `cycle` is set and stopping when it
/// runs out otherwise; each client finishes its current session. Returns
/// the sessions and the phase's wall time.
fn drive(
    clients: &mut [Client],
    pool: &[Scenario],
    cycle: bool,
    seconds: f64,
    traced: bool,
) -> (Vec<Session>, f64, Vec<trace::Span>) {
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let results: Vec<(Vec<Session>, Vec<trace::Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let next = &next;
                scope.spawn(move || {
                    let mut tracer = traced.then(|| Tracer::new(epoch, lane as u64 + 1));
                    let mut sessions = Vec::new();
                    while epoch.elapsed().as_secs_f64() < seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if !cycle && i >= pool.len() {
                            break;
                        }
                        let mut tr = tracer.as_mut();
                        sessions.push(replay(
                            client,
                            &pool[i % pool.len()],
                            i % pool.len(),
                            &mut tr,
                        ));
                    }
                    (sessions, tracer.map(Tracer::finish).unwrap_or_default())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = epoch.elapsed().as_secs_f64();
    let (mut sessions, mut spans) = (Vec::new(), Vec::new());
    for (s, sp) in results {
        sessions.extend(s);
        spans.extend(sp);
    }
    (sessions, wall, spans)
}

/// How a daemon workload's sessions open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opens {
    /// A 50-scenario pool over 12 families whose every distinct open is
    /// made during set-up: every timed open is a cache hit.
    Cached,
    /// One fresh family per session: every timed open is an original
    /// verification.
    Fresh,
}

/// The workload's inputs.
struct Inputs {
    /// Scenarios the untraced phase replays.
    pool: Vec<Scenario>,
    /// Scenarios each set-up opens and closes.
    warmups: Vec<Scenario>,
    /// Whether clients cycle the pool.
    cycle: bool,
}

/// `COLD_POOL` scenarios, scenario `i` on fresh family `first + i`.
fn cold_pool(seed: u64, first: u64, count: usize) -> Vec<Scenario> {
    let fams: Vec<_> =
        (first..first + count as u64).map(|f| corpus::fleet_family(seed, f)).collect();
    corpus::fleet_batch(seed, first, count, corpus::FLEET_EVENTS, &fams, false)
}

fn inputs(seed: u64, opens: Opens) -> Inputs {
    match opens {
        Opens::Cached => {
            let fams = corpus::fleet_families(seed, corpus::FLEET_FAMILIES);
            let pool = corpus::fleet_batch(seed, 0, POOL, corpus::FLEET_EVENTS, &fams, true);
            // One scenario per family (the first `FLEET_FAMILIES` are dealt
            // one to each) and every closed-loop scenario.
            let warmups = pool
                .iter()
                .enumerate()
                .filter(|(i, s)| *i < corpus::FLEET_FAMILIES || s.closed_loop.is_some())
                .map(|(_, s)| s.clone())
                .collect();
            Inputs { pool, warmups, cycle: true }
        }
        Opens::Fresh => Inputs {
            pool: cold_pool(seed, 0, COLD_POOL),
            warmups: cold_pool(seed, COLD_WARMUP_FAMILY, COLD_WARMUPS),
            cycle: false,
        },
    }
}

/// Opens and closes one session per warm-up scenario, spread over the
/// clients. Returns `(warm-up index, open outcome)`.
fn warm(clients: &mut [Client], warmups: &[Scenario]) -> Vec<(usize, String)> {
    let opens: Vec<usize> = (0..warmups.len()).collect();
    let lanes = clients.len();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let opens = &opens;
                scope.spawn(move || {
                    opens
                        .iter()
                        .skip(lane)
                        .step_by(lanes)
                        .map(|&i| {
                            let outcome = client.open(open_params(&warmups[i])).map_or_else(
                                |e| format!("error: {e}"),
                                |o| {
                                    let _ = client.close(o.session);
                                    o.outcome
                                },
                            );
                            (i, outcome)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("warm-up client")).collect()
    })
}

fn verdicts(sessions: &[Session]) -> f64 {
    sessions.iter().map(|s| s.verdict_ms.len()).sum::<usize>() as f64
}

/// Checks replayed sessions against the reference keys of their pool.
fn check(sessions: &[Session], pool: &[Scenario], reference: &[String]) -> Tally {
    let mut tally = Tally::default();
    for s in sessions {
        tally.observe(
            &s.report,
            1 + pool[s.pool_index].events.len() as u64,
            &reference[s.pool_index],
        );
    }
    tally
}

/// Runs the workload.
pub fn run(ctx: &Ctx, opens: Opens) -> Outcome {
    let mut out = Outcome::default();
    let t_gen = Instant::now();
    let inp = inputs(ctx.seed, opens);
    let pool = &inp.pool;
    let gen_s = t_gen.elapsed().as_secs_f64();

    let mut setups = Vec::new();
    let mut connects = Vec::new();
    let mut warm_opens = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (mut d, c) = Daemon::launch(&ctx.cli, THREADS).expect("daemon launches");
        warm_opens.extend(warm(&mut d.clients, &inp.warmups));
        setups.push(t.elapsed().as_secs_f64());
        connects.extend(c.iter().map(|d| d.as_secs_f64() * 1e3));
        if rep + 1 < SETUP_REPS {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one launch");

    let mut scrapes = Vec::new();
    let mut scrape = |client: &mut Client| {
        let t = Instant::now();
        let text = client.metrics().map(|m| m.text).unwrap_or_default();
        scrapes.push(t.elapsed().as_secs_f64() * 1e3);
        text
    };
    let before = scrape(&mut daemon.clients[0]);
    let (sessions, wall, _) = drive(&mut daemon.clients, pool, inp.cycle, ctx.seconds, false);
    let after = scrape(&mut daemon.clients[0]);
    let peak = sys::peak_rss_mib(daemon.pid()).unwrap_or(0.0);

    let reference = gate::reference_keys(pool, THREADS);
    let tally = check(&sessions, pool, &reference);
    let verdict_ms: Vec<f64> = sessions.iter().flat_map(|s| s.verdict_ms.iter().copied()).collect();
    let open_ms: Vec<f64> = sessions.iter().filter_map(|s| s.open_ms).collect();
    let p50 = percentile(&verdict_ms, 50.0);
    let p90 = percentile(&verdict_ms, 90.0);
    let open = percentile(&open_ms, 50.0);
    let rate = verdicts(&sessions) / wall;
    out.set("setup_s", median(&setups).unwrap_or(0.0));
    out.set("deltas_per_s", rate);
    out.set("verdict_p50_ms", p50.map_or(0.0, |p| p.value));
    out.set("verdict_p90_ms", p90.map_or(0.0, |p| p.value));
    out.set("open_p50_ms", open.map_or(0.0, |p| p.value));
    out.set("decided_share", tally.decided_share());
    out.set("peak_rss_mb", peak);
    out.attempted = tally.attempted;
    out.failed = tally.failed();
    // The warm-up opens must agree with the reference's original verdicts.
    let warm_reference = gate::reference_report(&inp.warmups, THREADS);
    let warm_mismatched = warm_opens
        .iter()
        .filter(|(i, outcome)| warm_reference.scenarios[*i].initial_outcome != *outcome)
        .count();
    out.correct = tally.mismatched == 0 && tally.errors == 0 && warm_mismatched == 0;

    out.note_num("threads", THREADS as f64);
    out.note_num("connections", daemon.clients.len() as f64);
    out.note_num("daemon_workers", THREADS as f64);
    out.note_num("input_gen_s", gen_s);
    out.note_num("pool_scenarios", pool.len() as f64);
    out.note_num("pool_deltas", delta_count(pool) as f64);
    out.note(
        "opens",
        json_str(match opens {
            Opens::Cached => "cache hits: every family is opened during set-up",
            Opens::Fresh => "original verifications: one fresh family per session",
        }),
    );
    out.note("network_dims", json_str(&format!("{:?}", corpus::FLEET_DIMS)));
    out.note_num("sessions", sessions.len() as f64);
    out.note_num("verdict_samples", verdict_ms.len() as f64);
    out.note_num("verdict_p90_beyond", p90.map_or(0.0, |p| p.beyond as f64));
    out.note("verdict_deciles_ms", deciles_json(&verdict_ms));
    out.note_num("open_samples", open_ms.len() as f64);
    out.note("latency_source", json_str("client-observed, send to reply"));
    out.note("load", json_str("closed loop, one session per scenario, no pipelining"));
    out.note_num("mismatched_scenarios", tally.mismatched as f64);
    out.note_num("warmup_opens", inp.warmups.len() as f64);
    out.note_num("warmup_mismatched_opens", warm_mismatched as f64);
    out.note_num("setup_samples", setups.len() as f64);
    // The daemon's cache counters over the timed phase show whether the
    // timed opens hit.
    for (key, series) in [
        ("server_cache_hits", "covern_cache_hits_total"),
        ("server_cache_misses", "covern_cache_misses_total"),
    ] {
        let growth = prom::sample(&after, series).zip(prom::sample(&before, series));
        out.note_num(key, growth.map_or(0.0, |(a, b)| a - b));
    }

    if ctx.trace {
        let server_verdict = prom::window_mean(&before, &after, VERDICT_HIST).map(|s| s * 1e3);
        let server_open = prom::window_mean(&before, &after, OPEN_HIST).map(|s| s * 1e3);
        out.set("service.server_verdict_mean_ms", server_verdict.unwrap_or(0.0));
        out.set("service.server_open_mean_ms", server_open.unwrap_or(0.0));
        let client_verdict = mean(&verdict_ms).unwrap_or(0.0);
        out.set("service.transport_gap_ms", client_verdict - server_verdict.unwrap_or(0.0));
        out.note_num("client_verdict_mean_ms", client_verdict);
        let rtts: Vec<f64> = (0..RTT_SAMPLES)
            .map(|_| {
                let t = Instant::now();
                daemon.clients[0].stats().expect("stats round trip");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("service.rtt_p50_ms", median(&rtts).unwrap_or(0.0));
        out.set("service.connect_ms", median(&connects).unwrap_or(0.0));
        for _ in 0..3 {
            scrape(&mut daemon.clients[0]);
        }
        out.set("observe.scrape_ms", median(&scrapes).unwrap_or(0.0));

        // Traced replay of the same load: spans around every client call.
        // A fresh pool keeps the traced pass's opens cold too.
        let (traced_pool, traced_reference) = match opens {
            Opens::Cached => (inp.pool.clone(), reference.clone()),
            Opens::Fresh => {
                let p = cold_pool(ctx.seed, COLD_POOL as u64, COLD_POOL);
                let r = gate::reference_keys(&p, THREADS);
                (p, r)
            }
        };
        let (traced, traced_wall, spans) =
            drive(&mut daemon.clients, &traced_pool, inp.cycle, ctx.seconds, true);
        let traced_tally = check(&traced, &traced_pool, &traced_reference);
        if traced_tally.mismatched > 0 {
            out.correct = false;
            out.failed = out.attempted;
        }
        out.note_num("traced_mismatched_scenarios", traced_tally.mismatched as f64);
        let traced_rate = verdicts(&traced) / traced_wall;
        out.set("bench.trace_overhead_share", 1.0 - crate::stats::ratio(traced_rate, rate));
        out.note_num("traced_deltas_per_s", traced_rate);
        let by_name = trace::self_ms_by_name(&spans);
        let counts: Vec<String> =
            by_name.iter().map(|(k, v)| format!("{}:{}", json_str(k), v.len())).collect();
        out.note("span_counts", format!("{{{}}}", counts.join(",")));
        let path = ctx.scratch.join(format!("trace-{}-{}.jsonl", ctx.workload, ctx.seed));
        if trace::write_jsonl(&spans, &path).is_ok() {
            out.note("trace_file", json_str(&path.display().to_string()));
        }

        match opens {
            // The in-process fleet: core, campaign, closed-loop and absint.
            Opens::Cached => inproc::probe(ctx, ctx.seconds / 3.0, &mut out),
            // The cluster: routing, coordinator sockets, checkpoint store.
            Opens::Fresh => cluster::probe(ctx, ctx.seconds / 3.0, &mut out),
        }
        probes::interval_matvec(pool, &mut out);
        probes::layer_transformers(pool, &mut out);
        if !probes::network_codec(pool, &mut out) {
            out.correct = false;
        }
        probes::protocol_codec(pool, &mut out);
    }
    daemon.stop();
    out
}
