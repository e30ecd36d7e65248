//! The in-process fleet probe of the `daemon-sessions` traced run: rounds
//! of `CampaignEngine::run` at thread budget 2 (each round runs every
//! batch once, each batch on a fresh engine), then the traced pass that
//! replays every delta's escalation chain through the public stage
//! functions. It measures the core, campaign, closed-loop and absint
//! layers; its own throughput and latencies are provenance, not gated
//! figures (see `perfbench/README.md` for why).

use crate::corpus::{self, delta_count};
use crate::gate::{self, scenario_key, Tally};
use crate::output::{json_str, Outcome};
use crate::stats::{deciles_json, median, percentile, ratio, Round};
use crate::trace::{self, Tracer};
use crate::{probes, sys, Ctx, THREADS};
use covern_absint::bnb::{self, BnbConfig};
use covern_absint::box_domain::BoxDomain;
use covern_absint::DomainKind;
use covern_campaign::report::{EventRecord, ScenarioReport};
use covern_campaign::runner::apply_event;
use covern_campaign::{
    ArtifactCache, CampaignConfig, CampaignEngine, CampaignReport, DeltaEvent, Scenario,
};
use covern_closedloop::{ClosedLoopSpec, LoopVerifier, TubeCache};
use covern_core::artifact::{BnbProofArtifact, Margin, ProofArtifacts};
use covern_core::cache::{FullVerifyFn, VerifyCache};
use covern_core::fixing::incremental_fix;
use covern_core::method::{check_local_containment_threads, LocalMethod, CONTAIN_TOL};
use covern_core::pipeline::{ContinuousVerifier, DEFAULT_REFINE_SPLITS};
use covern_core::problem::VerificationProblem;
use covern_core::prop_domain::{prop1_threads, prop2_threads, prop3};
use covern_core::prop_model::{prop4, prop5, suggest_cuts};
use covern_core::report::VerifyReport;
use covern_core::{CoreError, StateAbstractionArtifact};
use covern_nn::Network;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fleet batches; a round runs each once.
const FLEET_BATCHES: u64 = 4;
/// Fine-tune families: twice the service workloads' pool, so a seed's
/// draw of networks moves the tail latencies less.
const FAMILIES: usize = 2 * corpus::FLEET_FAMILIES;
/// Synthetic scenarios per fleet batch (plus the two closed-loop ones).
const FLEET_SCENARIOS: usize = 2 * FAMILIES;

struct Inputs {
    batches: Vec<Vec<Scenario>>,
    /// One scenario per family with no deltas: the cold start.
    warm: Vec<Scenario>,
}

fn inputs(seed: u64) -> Inputs {
    let fams = corpus::fleet_families(seed, FAMILIES);
    let batches: Vec<Vec<Scenario>> = (0..FLEET_BATCHES)
        .map(|b| corpus::fleet_batch(seed, b, FLEET_SCENARIOS, corpus::FLEET_EVENTS, &fams, true))
        .collect();
    let warm = batches[0]
        .iter()
        .take(FAMILIES)
        .map(|s| Scenario { name: format!("warm-{}", s.name), events: Vec::new(), ..s.clone() })
        .collect();
    Inputs { batches, warm }
}

fn engine(threads: usize) -> CampaignEngine {
    CampaignEngine::new(CampaignConfig { threads, ..CampaignConfig::default() })
}

/// What the untraced rounds observed.
#[derive(Default)]
struct Rounds {
    rounds: Vec<Round>,
    /// (batch, per-scenario verdict keys) of every campaign run.
    keys: Vec<(usize, Vec<String>)>,
    tally: Tally,
    hits: u64,
    misses: u64,
    proof_hits: u64,
    proof_misses: u64,
    tube_hits: u64,
    tube_misses: u64,
    singleflight_waits: u64,
}

impl Rounds {
    /// Adds one campaign run's verdict and cache counts.
    fn absorb(&mut self, report: &CampaignReport) {
        self.tally.decided += report.scenarios.iter().map(gate::decided_ops).sum::<u64>();
        self.tally.errors += report.errors as u64;
        self.hits += report.cache.hits;
        self.misses += report.cache.misses;
        self.proof_hits += report.cache.proof_hits;
        self.proof_misses += report.cache.proof_misses;
        self.tube_hits += report.cache.tube_step_hits;
        self.tube_misses += report.cache.tube_step_misses;
    }
}

/// One set-up: engine build plus the cold start of every family (the
/// original verifications).
fn setup(inp: &Inputs) -> f64 {
    let t = Instant::now();
    engine(THREADS).run(&inp.warm).expect("warm-up campaign");
    t.elapsed().as_secs_f64()
}

/// Runs timed rounds for `seconds`, with one set-up after each (outside
/// the rounds' walls), so the set-ups sample the whole run rather than
/// its first fraction of a second.
fn timed_rounds(inp: &Inputs, seconds: f64, setups: &mut Vec<f64>) -> Rounds {
    let mut r = Rounds::default();
    let waits0 = covern_observe::metrics().cache_singleflight_waits_total.get();
    let start = Instant::now();
    while r.rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut round = Round::default();
        for (b, batch) in inp.batches.iter().enumerate() {
            let eng = engine(THREADS);
            let t = Instant::now();
            let report = eng.run(batch).expect("campaign over a non-empty corpus");
            round.wall += t.elapsed().as_secs_f64();
            round.deltas += delta_count(batch);
            for s in &report.scenarios {
                round.open_ms.push(s.initial_wall_us as f64 / 1e3);
                round.verdict_ms.extend(s.events.iter().map(|e| e.wall_us as f64 / 1e3));
            }
            r.keys.push((b, report.scenarios.iter().map(scenario_key).collect()));
            r.absorb(&report);
        }
        r.rounds.push(round);
        setups.push(setup(inp));
    }
    r.singleflight_waits = covern_observe::metrics().cache_singleflight_waits_total.get() - waits0;
    r
}

/// Checks every round against the 1-thread engine's canonical verdicts
/// (computed once per batch used).
fn gate_rounds(inp: &Inputs, rounds: &mut Rounds, refs: &mut [Option<Vec<String>>]) {
    for (b, keys) in &rounds.keys {
        let reference = refs[*b].get_or_insert_with(|| gate::reference_keys(&inp.batches[*b], 1));
        for ((s, key), want) in inp.batches[*b].iter().zip(keys).zip(reference.iter()) {
            rounds.tally.attempted += 1 + s.events.len() as u64;
            rounds.tally.mismatched += u64::from(key != want);
        }
    }
}

/// Runs the probe for `seconds` untraced and as long traced. Per-layer
/// metrics go into `out`, the probe's own figures into its provenance
/// under `fleet_probe`; a verdict mismatch fails the whole run.
pub fn probe(ctx: &Ctx, seconds: f64, out: &mut Outcome) {
    let fleet = measure(ctx, seconds);
    for (name, value) in &fleet.metrics {
        out.set(name, *value);
    }
    if !fleet.correct {
        out.correct = false;
        out.failed = out.attempted;
    }
    out.note_num("fleet_probe_attempted", fleet.attempted as f64);
    out.note("fleet_probe", fleet.provenance_object());
}

fn measure(ctx: &Ctx, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let t_gen = Instant::now();
    let inp = inputs(ctx.seed);
    let gen_s = t_gen.elapsed().as_secs_f64();

    // The first set-up also finishes the process's lazy initialisation.
    let mut setups = vec![setup(&inp)];
    let mut rounds = timed_rounds(&inp, seconds, &mut setups);
    let peak = sys::own_peak_rss_mib();
    let mut refs: Vec<Option<Vec<String>>> = vec![None; inp.batches.len()];
    gate_rounds(&inp, &mut rounds, &mut refs);

    let all = Round::pooled(&rounds.rounds);
    let p50 = percentile(&all.verdict_ms, 50.0);
    let p90 = percentile(&all.verdict_ms, 90.0);
    let open = percentile(&all.open_ms, 50.0);
    let untraced_rate = all.rate();
    out.note_num("setup_s", median(&setups).unwrap_or(0.0));
    out.note_num("deltas_per_s", untraced_rate);
    out.note_num("verdict_p50_ms", p50.map_or(0.0, |p| p.value));
    out.note_num("verdict_p90_ms", p90.map_or(0.0, |p| p.value));
    out.note_num("open_p50_ms", open.map_or(0.0, |p| p.value));
    out.note_num("decided_share", rounds.tally.decided_share());
    out.note_num("peak_rss_mb", peak);
    out.attempted = rounds.tally.attempted;
    out.failed = rounds.tally.failed();
    out.correct = rounds.tally.mismatched == 0 && rounds.tally.errors == 0;

    let batch0 = &inp.batches[0];
    out.note_num("threads", THREADS as f64);
    out.note_num("connections", 0.0);
    out.note_num("input_gen_s", gen_s);
    out.note_num("batches", inp.batches.len() as f64);
    out.note_num("scenarios_per_batch", batch0.len() as f64);
    out.note_num("deltas_per_batch", delta_count(batch0) as f64);
    out.note("network_dims", json_str(&format!("{:?}", corpus::FLEET_DIMS)));
    out.note_num("rounds", rounds.rounds.len() as f64);
    out.note_num("setup_samples", setups.len() as f64);
    out.note_num("verdict_samples", all.verdict_ms.len() as f64);
    out.note_num("verdict_p90_beyond", p90.map_or(0.0, |p| p.beyond as f64));
    out.note("verdict_deciles_ms", deciles_json(&all.verdict_ms));
    out.note_num("open_samples", all.open_ms.len() as f64);
    out.note(
        "latency_source",
        json_str("verifier-recorded walls (EventRecord.wall_us, initial_wall_us)"),
    );
    out.note_num("mismatched_scenarios", rounds.tally.mismatched as f64);

    traced(ctx, seconds, &inp, &rounds, &mut refs, untraced_rate, &mut out);
    out
}

// ---------------------------------------------------------------------
// Traced pass.

/// `VerifyCache` wrapper timing each call into the artifact cache, with
/// the wrapped computation's own time excluded.
#[derive(Debug)]
struct TimingCache {
    inner: ArtifactCache,
    call_us: Mutex<Vec<f64>>,
}

impl TimingCache {
    fn new() -> Self {
        Self { inner: ArtifactCache::new(), call_us: Mutex::new(Vec::new()) }
    }

    fn record(&self, d: Duration) {
        self.call_us.lock().expect("timing cache samples").push(d.as_secs_f64() * 1e6);
    }
}

impl VerifyCache for TimingCache {
    fn full_verify(
        &self,
        problem: &VerificationProblem,
        domain: DomainKind,
        margin: Margin,
        compute: &mut FullVerifyFn<'_>,
    ) -> Result<(VerifyReport, ProofArtifacts), CoreError> {
        let mut inside = Duration::ZERO;
        let t = Instant::now();
        let result = {
            let mut timed = || {
                let c = Instant::now();
                let r = compute();
                inside += c.elapsed();
                r
            };
            self.inner.full_verify(problem, domain, margin, &mut timed)
        };
        self.record(t.elapsed().saturating_sub(inside));
        result
    }

    fn load_proof(
        &self,
        problem: &VerificationProblem,
        domain: DomainKind,
        margin: Margin,
    ) -> Option<BnbProofArtifact> {
        let t = Instant::now();
        let r = self.inner.load_proof(problem, domain, margin);
        self.record(t.elapsed());
        r
    }

    fn store_proof(
        &self,
        problem: &VerificationProblem,
        domain: DomainKind,
        margin: Margin,
        proof: &BnbProofArtifact,
    ) {
        let t = Instant::now();
        self.inner.store_proof(problem, domain, margin, proof);
        self.record(t.elapsed());
    }
}

/// Counts the traced pass collects next to its spans.
#[derive(Default)]
struct Acc {
    deltas: u64,
    reused: u64,
    fallthrough_ns: u64,
    prop4_overhead_ms: Vec<f64>,
    bnb_runs: u64,
    bnb_splits: u64,
    revalidated: u64,
    reseeded: u64,
    replay_agree: u64,
}

impl Acc {
    fn merge(&mut self, o: Acc) {
        self.deltas += o.deltas;
        self.reused += o.reused;
        self.fallthrough_ns += o.fallthrough_ns;
        self.prop4_overhead_ms.extend(o.prop4_overhead_ms);
        self.bnb_runs += o.bnb_runs;
        self.bnb_splits += o.bnb_splits;
        self.revalidated += o.revalidated;
        self.reseeded += o.reseeded;
        self.replay_agree += o.replay_agree;
    }
}

fn proved(r: Result<VerifyReport, CoreError>) -> bool {
    r.is_ok_and(|r| r.outcome.is_proved())
}

/// Times one escalation stage; a stage that does not decide adds its
/// time to the delta's fall-through.
fn attempt(
    tr: &mut Tracer,
    acc: &mut Acc,
    name: &'static str,
    d: u64,
    f: impl FnOnce() -> bool,
) -> bool {
    let t = Instant::now();
    let ok = tr.span(name, Some(d), f);
    if !ok {
        acc.fallthrough_ns += t.elapsed().as_nanos() as u64;
    }
    ok
}

/// The per-layer checks of Prop 4, each timed alone on one thread.
fn prop4_checks_alone(
    f: &Network,
    state: &StateAbstractionArtifact,
    din: &BoxDomain,
    method: &LocalMethod,
) -> Duration {
    let n = f.num_layers();
    let boxes = |k: usize| state.layers().layer_box(k).expect("stored layer box").clone();
    let mut checks = vec![(f.slice(1, 1), din.clone(), boxes(1))];
    for i in 1..=n.saturating_sub(2) {
        checks.push((f.slice(i + 1, i + 1), boxes(i), boxes(i + 1)));
    }
    if n >= 2 {
        checks.push((f.slice(n, n), boxes(n - 1), state.dout().clone()));
    }
    checks
        .iter()
        .map(|(net, input, target)| {
            let t = Instant::now();
            let _ = check_local_containment_threads(net, input, target, method, 1);
            t.elapsed()
        })
        .sum()
}

/// Replays full re-verification (and, when it needs branch and bound,
/// the B&B run alone) as the pipeline would seed it from the session's
/// own artifacts.
#[allow(clippy::too_many_arguments)]
fn replay_full(
    tr: &mut Tracer,
    acc: &mut Acc,
    v: &ContinuousVerifier,
    s: &Scenario,
    problem: Result<VerificationProblem, CoreError>,
    threads: usize,
    d: u64,
) -> &'static str {
    let Ok(problem) = problem else { return "full" };
    let arts = v.artifacts();
    let warm = arts
        .bnb_proof
        .as_ref()
        .filter(|p| p.applies_to(problem.network(), problem.din(), problem.dout(), s.domain));
    let full = tr.span("core.stage_full", Some(d), || {
        problem.verify_full_seeded(
            s.domain,
            DEFAULT_REFINE_SPLITS,
            s.margin,
            threads,
            warm,
            arts.state.as_ref(),
        )
    });
    if matches!(&full, Ok((_, a)) if a.state.is_none()) {
        let cfg = BnbConfig::new(s.domain, DEFAULT_REFINE_SPLITS)
            .with_threads(threads)
            .with_checkpoint_collection(true);
        let r = tr.span("absint.bnb", Some(d), || {
            bnb::decide_with_checkpoint(
                problem.network(),
                problem.din(),
                problem.dout(),
                &cfg,
                warm.map(BnbProofArtifact::checkpoint),
                None,
            )
        });
        if let Ok(r) = r {
            acc.bnb_runs += 1;
            acc.bnb_splits += r.splits as u64;
            acc.revalidated += r.leaves_revalidated as u64;
            acc.reseeded += r.leaves_reseeded as u64;
        }
    }
    "full"
}

/// Replays a delta's escalation chain (the order `ContinuousVerifier`
/// tries) through the public stage functions, before the real call.
/// Returns the stage that decided the replay.
fn replay(
    tr: &mut Tracer,
    acc: &mut Acc,
    v: &ContinuousVerifier,
    s: &Scenario,
    ev: &DeltaEvent,
    threads: usize,
    d: u64,
) -> &'static str {
    let method = CampaignConfig::default().method;
    let net = v.problem().network();
    let arts = v.artifacts();
    match ev {
        DeltaEvent::DomainEnlarged(din) => {
            if let Ok(state) = arts.state() {
                if net.num_layers() >= 2
                    && attempt(tr, acc, "core.stage_prop1", d, || {
                        proved(prop1_threads(net, state, din, &method, threads))
                    })
                {
                    return "prop1";
                }
                if let Ok(ell) = arts.lipschitz() {
                    if attempt(tr, acc, "core.stage_prop3", d, || {
                        proved(prop3(state, ell, din, v.problem().dout()))
                    }) {
                        return "prop3";
                    }
                }
                if attempt(tr, acc, "core.stage_prop2", d, || {
                    proved(prop2_threads(net, state, din, &method, threads))
                }) {
                    return "prop2";
                }
            }
            let problem =
                VerificationProblem::new(net.clone(), din.clone(), v.problem().dout().clone());
            replay_full(tr, acc, v, s, problem, threads, d)
        }
        DeltaEvent::ModelUpdated(f) => {
            let din = v.problem().din();
            if let Ok(state) = arts.state() {
                let t = Instant::now();
                let ok = tr.span("core.stage_prop4", Some(d), || {
                    proved(prop4(f, state, din, &method, threads))
                });
                let wall = t.elapsed();
                let alone = tr.span("core.prop4_checks_alone", Some(d), || {
                    prop4_checks_alone(f, state, din, &method)
                });
                acc.prop4_overhead_ms.push((wall.as_secs_f64() - alone.as_secs_f64()) * 1e3);
                if ok {
                    return "prop4";
                }
                acc.fallthrough_ns += wall.as_nanos() as u64;
                let cuts = suggest_cuts(f, 1);
                if !cuts.is_empty()
                    && attempt(tr, acc, "core.stage_prop5", d, || {
                        proved(prop5(f, state, din, &cuts, &method, threads))
                    })
                {
                    return "prop5";
                }
                if attempt(tr, acc, "core.stage_fix", d, || {
                    incremental_fix(f, state, din, &method, threads)
                        .is_ok_and(|r| r.report.outcome.is_proved())
                }) {
                    return "fixing";
                }
            }
            let problem =
                VerificationProblem::new(f.clone(), din.clone(), v.problem().dout().clone());
            replay_full(tr, acc, v, s, problem, threads, d)
        }
        DeltaEvent::PropertyChanged(dout) => {
            let proved_now =
                v.history().last().map_or(&v.initial_report().outcome, |r| &r.outcome).is_proved();
            if proved_now && dout.dilate(CONTAIN_TOL).contains_box(v.problem().dout()) {
                tr.span("core.stage_retarget", Some(d), || {
                    arts.state.as_ref().map(|st| st.retarget_threads(net, dout, threads))
                });
                return "retarget";
            }
            if let Some(state) = &arts.state {
                if attempt(tr, acc, "core.stage_retarget", d, || {
                    state.retarget_threads(net, dout, threads).is_ok_and(|r| r.proof_established())
                }) {
                    return "retarget";
                }
            }
            let problem =
                VerificationProblem::new(net.clone(), v.problem().din().clone(), dout.clone());
            replay_full(tr, acc, v, s, problem, threads, d)
        }
    }
}

fn empty_report(s: &Scenario) -> ScenarioReport {
    ScenarioReport {
        name: s.name.clone(),
        initial_outcome: "unknown".into(),
        initial_wall_us: 0,
        events: Vec::with_capacity(s.events.len()),
        wall_us: 0,
        error: None,
    }
}

fn traced_loop(
    tr: &mut Tracer,
    s: &Scenario,
    spec: &ClosedLoopSpec,
    tubes: &Arc<TubeCache>,
    ids: &AtomicU64,
) -> ScenarioReport {
    let mut report = empty_report(s);
    let mut v = match LoopVerifier::new(spec.clone(), s.network.clone(), s.domain) {
        Ok(v) => v,
        Err(e) => {
            report.error = Some(e.to_string());
            return report;
        }
    };
    v.set_cache(Some(Arc::clone(tubes)));
    let id = ids.fetch_add(1, Ordering::Relaxed);
    match tr.span("closedloop.tube", Some(id), || v.verify()) {
        Ok(r) => report.initial_outcome = r.outcome,
        Err(e) => {
            report.error = Some(e.to_string());
            return report;
        }
    }
    for ev in &s.events {
        let id = ids.fetch_add(1, Ordering::Relaxed);
        tr.enter("delta", Some(id));
        let set = match ev {
            DeltaEvent::DomainEnlarged(b) => v.set_init(b.clone()),
            DeltaEvent::ModelUpdated(n) => v.set_controller(n.clone()),
            DeltaEvent::PropertyChanged(b) => v.set_unsafe_region(b.clone()),
        };
        let r = set.and_then(|()| tr.span("closedloop.tube", Some(id), || v.verify()));
        tr.close();
        match r {
            Ok(r) => report.events.push(EventRecord::from_loop_report(&ev.kind(), &r)),
            Err(e) => {
                report.error = Some(format!("event {}: {e}", report.events.len()));
                break;
            }
        }
    }
    report
}

fn traced_scenario(
    tr: &mut Tracer,
    acc: &mut Acc,
    s: &Scenario,
    cache: &Arc<TimingCache>,
    tubes: &Arc<TubeCache>,
    ids: &AtomicU64,
) -> ScenarioReport {
    if let Some(spec) = &s.closed_loop {
        return traced_loop(tr, s, spec, tubes, ids);
    }
    let threads = (THREADS / 2).max(1);
    let method = CampaignConfig::default().method;
    let mut report = empty_report(s);
    let problem = match VerificationProblem::new(s.network.clone(), s.din.clone(), s.dout.clone()) {
        Ok(p) => p,
        Err(e) => {
            report.error = Some(e.to_string());
            return report;
        }
    };
    let id = ids.fetch_add(1, Ordering::Relaxed);
    let shared = Some(Arc::clone(cache) as Arc<dyn VerifyCache>);
    let opened = tr.span("core.open", Some(id), || {
        ContinuousVerifier::with_margin_cached(problem, s.domain, s.margin, shared, threads)
    });
    let mut v = match opened {
        Ok(v) => v,
        Err(e) => {
            report.error = Some(e.to_string());
            return report;
        }
    };
    report.initial_outcome = v.initial_report().outcome.to_string();
    for ev in &s.events {
        let d = ids.fetch_add(1, Ordering::Relaxed);
        tr.enter("delta", Some(d));
        let stage = replay(tr, acc, &v, s, ev, threads, d);
        let real = tr.span("core.apply", Some(d), || apply_event(&mut v, ev, &method));
        tr.close();
        match real {
            Ok(r) => {
                let strategy = r.strategy.to_string();
                acc.deltas += 1;
                acc.reused += u64::from(strategy != "full");
                acc.replay_agree +=
                    u64::from(stage == strategy || (stage == "retarget" && strategy == "prop3"));
                report.events.push(EventRecord::from_report(&ev.kind(), &r));
            }
            Err(e) => {
                report.error = Some(format!("event {}: {e}", report.events.len()));
                break;
            }
        }
    }
    report
}

/// One traced round over a batch: two harness workers pull scenarios,
/// as the engine's scenario workers would.
struct TracedRound {
    reports: Vec<ScenarioReport>,
    spans: Vec<trace::Span>,
    acc: Acc,
    cache_call_us: Vec<f64>,
    wall: f64,
}

fn traced_round(
    batch: &[Scenario],
    epoch: Instant,
    lane_base: u64,
    ids: &AtomicU64,
) -> TracedRound {
    let cache = Arc::new(TimingCache::new());
    let tubes = Arc::new(TubeCache::new());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ScenarioReport>>> =
        batch.iter().map(|_| Mutex::new(None)).collect();
    let t = Instant::now();
    let lanes: Vec<(Vec<trace::Span>, Acc)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|lane| {
                let (cache, tubes, next, slots) = (&cache, &tubes, &next, &slots);
                scope.spawn(move || {
                    let mut tr = Tracer::new(epoch, lane_base + lane);
                    let mut acc = Acc::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(s) = batch.get(i) else { break };
                        tr.enter("scenario", None);
                        let r = traced_scenario(&mut tr, &mut acc, s, cache, tubes, ids);
                        tr.close();
                        *slots[i].lock().expect("slot") = Some(r);
                    }
                    (tr.finish(), acc)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("traced worker")).collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let mut spans = Vec::new();
    let mut acc = Acc::default();
    for (s, a) in lanes {
        spans.extend(s);
        acc.merge(a);
    }
    let reports = slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot").expect("every scenario ran"))
        .collect();
    let cache_call_us = std::mem::take(&mut *cache.call_us.lock().expect("timing cache samples"));
    TracedRound { reports, spans, acc, cache_call_us, wall }
}

fn traced(
    ctx: &Ctx,
    seconds: f64,
    inp: &Inputs,
    rounds: &Rounds,
    refs: &mut [Option<Vec<String>>],
    untraced_rate: f64,
    out: &mut Outcome,
) {
    let epoch = Instant::now();
    let ids = AtomicU64::new(0);
    let (mut spans, mut acc, mut call_us, mut passes) =
        (Vec::new(), Acc::default(), Vec::new(), Vec::new());
    let mut mismatched = 0u64;
    let start = Instant::now();
    let mut k = 0usize;
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut pass = Round::default();
        for (b, batch) in inp.batches.iter().enumerate() {
            let r = traced_round(batch, epoch, 1 + 2 * k as u64, &ids);
            k += 1;
            pass.wall += r.wall;
            pass.deltas += delta_count(batch);
            let reference = refs[b].get_or_insert_with(|| gate::reference_keys(batch, 1));
            mismatched += r
                .reports
                .iter()
                .zip(reference.iter())
                .filter(|(s, want)| &scenario_key(s) != *want)
                .count() as u64;
            spans.extend(r.spans);
            acc.merge(r.acc);
            call_us.extend(r.cache_call_us);
        }
        passes.push(pass);
    }
    // The traced verdicts must equal the canonical ones the timed rounds
    // were checked against.
    if mismatched > 0 {
        out.correct = false;
        out.failed = out.attempted;
    }
    out.note_num("traced_mismatched_scenarios", mismatched as f64);
    out.note_num("traced_rounds", passes.len() as f64);
    out.note_num("traced_deltas", acc.deltas as f64);
    out.note_num("replay_agreement_share", ratio(acc.replay_agree as f64, acc.deltas as f64));
    out.note(
        "stage_source",
        json_str("replay of each delta's escalation chain through the public stage functions"),
    );

    let by_name = trace::self_ms_by_name(&spans);
    for (metric, span) in [
        ("core.open_ms", "core.open"),
        ("core.stage_prop1_ms", "core.stage_prop1"),
        ("core.stage_prop2_ms", "core.stage_prop2"),
        ("core.stage_prop3_ms", "core.stage_prop3"),
        ("core.stage_prop4_ms", "core.stage_prop4"),
        ("core.stage_prop5_ms", "core.stage_prop5"),
        ("core.stage_fix_ms", "core.stage_fix"),
        ("core.stage_retarget_ms", "core.stage_retarget"),
        ("core.stage_full_ms", "core.stage_full"),
        ("absint.bnb_ms", "absint.bnb"),
        ("closedloop.tube_ms", "closedloop.tube"),
    ] {
        // A stage the fleet never reaches stays unmeasured here.
        if let Some(v) = by_name.get(span).and_then(|v| median(v)) {
            out.set(metric, v);
        }
    }
    let stage_counts: Vec<String> =
        by_name.iter().map(|(k, v)| format!("{}:{}", json_str(k), v.len())).collect();
    out.note("span_counts", format!("{{{}}}", stage_counts.join(",")));
    out.set("core.reuse_share", ratio(acc.reused as f64, acc.deltas as f64));
    out.set(
        "core.fallthrough_ms_per_delta",
        ratio(acc.fallthrough_ns as f64 / 1e6, acc.deltas as f64),
    );
    out.set("core.prop4_overhead_ms", median(&acc.prop4_overhead_ms).unwrap_or(0.0));
    if acc.bnb_runs > 0 {
        out.set("absint.bnb_splits_per_delta", ratio(acc.bnb_splits as f64, acc.deltas as f64));
        out.set(
            "absint.bnb_revalidated_share",
            ratio(acc.revalidated as f64, (acc.revalidated + acc.reseeded) as f64),
        );
    }
    out.set(
        "closedloop.step_cache_hit_share",
        ratio(rounds.tube_hits as f64, (rounds.tube_hits + rounds.tube_misses) as f64),
    );

    // Cache layer, from the real engine rounds (reads and writes) and the
    // timing wrapper (call cost without the wrapped compute).
    out.set(
        "campaign.cache_hit_share",
        ratio(rounds.hits as f64, (rounds.hits + rounds.misses) as f64),
    );
    out.set(
        "campaign.proof_hit_share",
        ratio(rounds.proof_hits as f64, (rounds.proof_hits + rounds.proof_misses) as f64),
    );
    out.set(
        "campaign.singleflight_waits",
        ratio(rounds.singleflight_waits as f64, rounds.keys.len() as f64),
    );
    out.set("campaign.cache_call_us", median(&call_us).unwrap_or(0.0));

    // Thread scaling of the real engine, alternating budgets.
    let (mut w1, mut w2) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (threads, walls) in [(1, &mut w1), (THREADS, &mut w2)] {
            let t = Instant::now();
            engine(threads).run(&inp.batches[0]).expect("scaling campaign");
            walls.push(t.elapsed().as_secs_f64());
        }
    }
    out.set("campaign.scaling_2v1", ratio(median(&w1).unwrap_or(0.0), median(&w2).unwrap_or(0.0)));

    let traced_rate = Round::pooled(&passes).rate();
    out.note_num("trace_overhead_share", 1.0 - ratio(traced_rate, untraced_rate));
    out.note_num("traced_deltas_per_s", traced_rate);

    if !probes::full_reverification(ctx.seed, out) {
        out.correct = false;
    }

    let path = ctx.scratch.join(format!("trace-fleet-probe-{}.jsonl", ctx.seed));
    match trace::write_jsonl(&spans, &path) {
        Ok(()) => out.note("trace_file", json_str(&path.display().to_string())),
        Err(e) => out.note("trace_file_error", json_str(&e.to_string())),
    }
}
