//! The cluster probe of the `daemon-cold` traced run: a fleet-shaped
//! corpus sharded through `Cluster` over spawned `covern_cli serve` worker
//! daemons. It measures the cluster layers; its own throughput and
//! latencies are provenance, not gated figures (see `perfbench/README.md`
//! for why).

use crate::corpus::{self, delta_count};
use crate::gate::{self, scenario_key, Tally};
use crate::output::{json_str, Outcome};
use crate::stats::{percentile, ratio, Round};
use crate::{probes, prom, sys, Ctx, THREADS};
use covern_campaign::{CampaignReport, Scenario};
use covern_service::{Client, Cluster, ClusterConfig, WorkerHandle};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Scenarios per campaign round: one per coordinator driver thread, so
/// every open meets the same concurrency (two opens start together).
const ROUND: usize = 2;
/// First family index of the warm-up round, far above any timed round's.
const WARM_FAMILY: u64 = 1 << 32;
/// Delta events per scenario, two of each kind.
const EVENTS: usize = 6;
/// Delta events per warm-up scenario.
const WARM_EVENTS: usize = 2;
/// Checkpoint blobs the store probe replays.
const STORE_BLOBS: usize = 32;
const VERDICT_HIST: &str = "covern_verdict_latency_seconds";
const OPEN_HIST: &str = "covern_open_latency_seconds";

fn launch(cli: &Path, store: PathBuf) -> (Cluster, Vec<String>) {
    let workers: Vec<WorkerHandle> = (0..THREADS)
        .map(|i| WorkerHandle::spawn(i, cli, 1, 256).expect("worker daemon spawns"))
        .collect();
    let addrs = workers.iter().map(WorkerHandle::addr).collect();
    let config = ClusterConfig {
        workers: THREADS,
        threads: THREADS,
        store_dir: Some(store),
        binary: Some(cli.to_path_buf()),
        ..ClusterConfig::default()
    };
    (Cluster::with_workers(config, workers).expect("cluster assembles"), addrs)
}

/// Each worker's metrics text.
fn scrape(addrs: &[String]) -> Vec<String> {
    addrs
        .iter()
        .map(|addr| {
            Client::connect(addr.as_str())
                .and_then(|mut c| c.metrics())
                .map(|m| m.text)
                .unwrap_or_default()
        })
        .collect()
}

/// Sum over workers of a counter's growth between scrapes.
fn counter_growth(before: &[String], after: &[String], name: &str) -> f64 {
    before
        .iter()
        .zip(after)
        .filter_map(|(b, a)| Some(prom::sample(a, name)? - prom::sample(b, name)?))
        .sum()
}

/// Sum over workers of a histogram's `(sum, count)` growth between scrapes.
fn window_totals(before: &[String], after: &[String], name: &str) -> (f64, u64) {
    before.iter().zip(after).fold((0.0, 0), |(s, c), (b, a)| {
        match (prom::histogram_sum_count(b, name), prom::histogram_sum_count(a, name)) {
            (Some((s0, c0)), Some((s1, c1))) => (s + s1 - s0, c + c1.saturating_sub(c0)),
            _ => (s, c),
        }
    })
}

/// `ROUND` scenarios over `ROUND` fresh families from index `first` on,
/// `events` deltas each.
fn batch(seed: u64, first: u64, events: usize) -> Vec<Scenario> {
    let fams: Vec<_> =
        (first..first + ROUND as u64).map(|f| corpus::fleet_family(seed, f)).collect();
    corpus::fleet_batch(seed, first, ROUND, events, &fams, false)
}

/// Campaign rounds, round `c` on families `c * ROUND ..`: no family
/// recurs, so every timed open is an original verification however many
/// rounds a run makes.
struct Rounds {
    /// Every round's scenarios and report.
    played: Vec<(Vec<Scenario>, CampaignReport)>,
    rounds: Vec<Round>,
    /// Wall time of the rounds' campaign calls.
    wall: f64,
    /// Harness time generating the rounds' inputs (outside `wall`).
    gen_s: f64,
}

/// Runs rounds from round `first` on until their campaign calls have
/// taken `seconds`.
fn rounds(cluster: &Cluster, seed: u64, first: usize, seconds: f64) -> Rounds {
    let mut r = Rounds { played: Vec::new(), rounds: Vec::new(), wall: 0.0, gen_s: 0.0 };
    let mut c = first as u64;
    while r.played.is_empty() || r.wall < seconds {
        let t = Instant::now();
        let scenarios = batch(seed, c * ROUND as u64, EVENTS);
        r.gen_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report =
            cluster.run_campaign(&scenarios).expect("cluster campaign over a non-empty corpus");
        let wall = t.elapsed().as_secs_f64();
        r.wall += wall;
        r.rounds.push(Round {
            wall,
            deltas: delta_count(&scenarios),
            verdict_ms: report
                .scenarios
                .iter()
                .flat_map(|s| s.events.iter().map(|e| e.wall_us as f64 / 1e3))
                .collect(),
            open_ms: report.scenarios.iter().map(|s| s.initial_wall_us as f64 / 1e3).collect(),
        });
        r.played.push((scenarios, report));
        c += 1;
    }
    r
}

/// Checks every round against the 2-thread in-process engine's canonical
/// verdicts on the same scenarios.
fn tally(rounds: &Rounds) -> Tally {
    let corpus: Vec<Scenario> = rounds.played.iter().flat_map(|(s, _)| s.clone()).collect();
    let reference = gate::reference_keys(&corpus, THREADS);
    let mut tally = Tally::default();
    let observed = rounds.played.iter().flat_map(|(s, r)| s.iter().zip(&r.scenarios));
    for ((s, r), want) in observed.zip(&reference) {
        tally.observe(r, 1 + s.events.len() as u64, want);
    }
    tally
}

/// Runs the probe: one cluster launch and warm-up round, then campaign
/// rounds for `seconds`. The cluster's per-layer metrics go into `out`,
/// its own figures into `out`'s provenance under `cluster_probe`; a
/// verdict mismatch fails the whole run.
pub fn probe(ctx: &Ctx, seconds: f64, out: &mut Outcome) {
    let mut own = Outcome::default();
    let t_gen = Instant::now();
    let warm = batch(ctx.seed, WARM_FAMILY, WARM_EVENTS);
    let warm_gen_s = t_gen.elapsed().as_secs_f64();

    let store_root = ctx.scratch.join(format!("cluster-{}", std::process::id()));
    let t = Instant::now();
    let (mut cluster, addrs) = launch(&ctx.cli, store_root.join("store"));
    let launch_s = t.elapsed().as_secs_f64();
    // One warm-up round on families of its own, so the timed opens do not
    // pay the fresh workers' first-use costs.
    let warm_report = cluster.run_campaign(&warm).expect("warm-up campaign");
    let setup_s = t.elapsed().as_secs_f64();
    let warm_ok =
        warm_report.scenarios.iter().map(scenario_key).eq(gate::reference_keys(&warm, THREADS));

    let before = scrape(&addrs);
    let reassigned0 = covern_observe::metrics().cluster_reassignments_total.get();
    let timed = rounds(&cluster, ctx.seed, 0, seconds);
    let reassignments = covern_observe::metrics().cluster_reassignments_total.get() - reassigned0;
    let after = scrape(&addrs);
    // The coordinator runs in the harness process.
    let harness_rss = sys::own_peak_rss_mib();
    let workers_rss: f64 = sys::child_pids().into_iter().filter_map(sys::peak_rss_mib).sum();

    let gated = tally(&timed);
    let all = Round::pooled(&timed.rounds);
    let p50 = percentile(&all.verdict_ms, 50.0);
    let p90 = percentile(&all.verdict_ms, 90.0);
    let open = percentile(&all.open_ms, 50.0);
    own.note_num("setup_s", setup_s);
    own.note_num("deltas_per_s", all.rate());
    own.note_num("verdict_p50_ms", p50.map_or(0.0, |p| p.value));
    own.note_num("verdict_p90_ms", p90.map_or(0.0, |p| p.value));
    own.note_num("verdict_p90_beyond", p90.map_or(0.0, |p| p.beyond as f64));
    own.note_num("open_p50_ms", open.map_or(0.0, |p| p.value));
    own.note_num("decided_share", gated.decided_share());
    own.note_num("harness_peak_rss_mb", harness_rss);
    own.note_num("workers_peak_rss_mb", workers_rss);
    own.note_num("attempted", gated.attempted as f64);
    own.note_num("mismatched_scenarios", gated.mismatched as f64);
    own.note_num("cluster_workers", THREADS as f64);
    own.note_num("threads", THREADS as f64);
    own.note_num("input_gen_s", warm_gen_s + timed.gen_s);
    own.note_num("scenarios_per_round", ROUND as f64);
    own.note_num("events_per_scenario", EVENTS as f64);
    own.note("network_dims", json_str(&format!("{:?}", corpus::FLEET_DIMS)));
    own.note_num("rounds", timed.rounds.len() as f64);
    own.note_num("verdict_samples", all.verdict_ms.len() as f64);
    own.note_num("open_samples", all.open_ms.len() as f64);
    own.note(
        "latency_source",
        json_str("worker-recorded walls (EventRecord.wall_us, initial_wall_us)"),
    );
    // Every timed open is its family's first (no family recurs), so the
    // cold-open share is 1 by construction; the workers' cache counters
    // over the timed phase show what was reused inside the sessions.
    own.note_num("cold_open_share", 1.0);
    for (key, series) in [
        ("worker_cache_hits", "covern_cache_hits_total"),
        ("worker_cache_misses", "covern_cache_misses_total"),
    ] {
        own.note_num(key, counter_growth(&before, &after, series));
    }

    out.set("cluster.launch_s", launch_s);
    out.set("cluster.reassignments", reassignments as f64);
    let (verdict_s, _) = window_totals(&before, &after, VERDICT_HIST);
    let (open_s, _) = window_totals(&before, &after, OPEN_HIST);
    out.set("cluster.worker_busy_share", ratio(verdict_s + open_s, timed.wall));
    let blobs: Vec<Vec<u8>> = std::fs::read_dir(cluster.store().dir())
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "blob"))
                .take(STORE_BLOBS)
                .filter_map(|e| std::fs::read(e.path()).ok())
                .collect()
        })
        .unwrap_or_default();
    own.note_num("store_probe_blobs", blobs.len() as f64);
    let store_ok = probes::disk_store(&blobs, &store_root.join("probe"), out);
    if !(store_ok && warm_ok && gated.mismatched == 0 && gated.errors == 0) {
        out.correct = false;
        out.failed = out.attempted;
    }
    out.note("cluster_probe", own.provenance_object());
    cluster.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&store_root);
}
