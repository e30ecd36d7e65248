//! The process-wide metrics registry.
//!
//! Three primitive instruments — [`Counter`], [`Gauge`], [`Histogram`] —
//! backed by atomics (no locks on the update path), plus the one
//! [`Metrics`] struct that declares every series the workspace emits.
//! Declaring the whole catalog in a single struct is deliberate: the
//! render order is stable, the `docs/OPERATIONS.md` catalog can be gated
//! one-to-one against [`Metrics::descriptors`], and a subsystem that
//! wants a new metric has exactly one place to add it (and one doc table
//! to extend, or the gate fails).
//!
//! Rendering follows the Prometheus text exposition format, version
//! 0.0.4: `# HELP` / `# TYPE` comment pairs followed by one sample line
//! per series, histograms expanded into cumulative `_bucket{le=…}`
//! series plus `_sum` and `_count`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency buckets in seconds: 100 µs to 10 s, roughly
/// quarter-decade spaced — wide enough for a cache-hit open (µs) and a
/// cold full verification (seconds) on the same axis.
pub const LATENCY_BUCKETS: [f64; 14] =
    [0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 10.0];

/// A fixed-bucket histogram (cumulative buckets, Prometheus-style).
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    buckets: Vec<AtomicU64>,
    /// Total observed value, as f64 bits (CAS-accumulated).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over `bounds` (ascending upper bounds; an implicit
    /// `+Inf` bucket is always appended).
    pub fn new(bounds: &'static [f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bucket bounds must ascend");
        Self {
            bounds,
            buckets: (0..bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        // Non-cumulative per-bucket counts internally; cumulated at
        // render time so the hot path touches exactly one bucket.
        let idx = self.bounds.partition_point(|&b| v > b);
        if let Some(b) = self.buckets.get(idx) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        // idx == bounds.len() means +Inf, tracked implicitly by `count`.
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut old = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(old) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                old,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => old = cur,
            }
        }
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Quantile estimate in `[0, 1]` by linear interpolation inside the
    /// containing bucket (the standard Prometheus `histogram_quantile`
    /// construction). Returns `None` with no observations.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cum = 0u64;
        let mut lower = 0.0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if (cum + in_bucket) as f64 >= rank {
                let frac = (rank - cum as f64) / in_bucket.max(1) as f64;
                return Some(lower + frac * (self.bounds[i] - lower));
            }
            cum += in_bucket;
            lower = self.bounds[i];
        }
        // Landed in +Inf: the last finite bound is the best estimate.
        Some(lower)
    }
}

/// The kind tag of a registered metric (drives the `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter (`_total` suffix by convention).
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` token.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registered metric's identity, as the doc gate consumes it.
#[derive(Debug, Clone, Copy)]
pub struct Descriptor {
    /// Full series name (e.g. `covern_cache_hits_total`). For labeled
    /// families this is the family name; labels are in `labels`.
    pub name: &'static str,
    /// The `# TYPE`.
    pub kind: MetricKind,
    /// The `# HELP` line.
    pub help: &'static str,
    /// Fixed label set rendered on the sample line (`[]` for none).
    pub labels: &'static [(&'static str, &'static str)],
}

/// Declares the `Metrics` struct, its constructor, its descriptor table,
/// and its Prometheus rendering from one specification, so the four can
/// never drift apart. Grouped label variants (`verdicts_total`) are
/// declared as separate fields sharing one family name.
macro_rules! declare_metrics {
    (
        $( counter $cfield:ident => $cname:literal $([$ck:literal = $cv:literal])? : $chelp:literal; )*
        ---
        $( gauge $gfield:ident => $gname:literal : $ghelp:literal; )*
        ---
        $( histogram $hfield:ident => $hname:literal : $hhelp:literal; )*
    ) => {
        /// Every metric the covern workspace emits (see module docs).
        #[derive(Debug)]
        #[allow(missing_docs)] // the descriptor table is the documentation
        pub struct Metrics {
            $( pub $cfield: Counter, )*
            $( pub $gfield: Gauge, )*
            $( pub $hfield: Histogram, )*
        }

        impl Metrics {
            /// A fresh registry with every series at zero.
            pub fn new() -> Self {
                Self {
                    $( $cfield: Counter::default(), )*
                    $( $gfield: Gauge::default(), )*
                    $( $hfield: Histogram::new(&LATENCY_BUCKETS), )*
                }
            }

            /// The full catalog, in render order.
            pub fn descriptors(&self) -> Vec<Descriptor> {
                vec![
                    $( Descriptor {
                        name: $cname,
                        kind: MetricKind::Counter,
                        help: $chelp,
                        labels: &[$( ($ck, $cv) )?],
                    }, )*
                    $( Descriptor {
                        name: $gname,
                        kind: MetricKind::Gauge,
                        help: $ghelp,
                        labels: &[],
                    }, )*
                    $( Descriptor {
                        name: $hname,
                        kind: MetricKind::Histogram,
                        help: $hhelp,
                        labels: &[],
                    }, )*
                ]
            }

            /// Renders the registry in the Prometheus text exposition
            /// format (version 0.0.4). Families sharing a name emit one
            /// `# HELP`/`# TYPE` pair.
            pub fn render_prometheus(&self) -> String {
                let mut out = String::with_capacity(4096);
                let mut last_family = "";
                $(
                    if last_family != $cname {
                        out.push_str(concat!("# HELP ", $cname, " ", $chelp, "\n"));
                        out.push_str(concat!("# TYPE ", $cname, " counter\n"));
                        last_family = $cname;
                    }
                    render_sample(&mut out, $cname, &[$( ($ck, $cv) )?], &self.$cfield.get().to_string());
                )*
                $(
                    {
                        out.push_str(concat!("# HELP ", $gname, " ", $ghelp, "\n"));
                        out.push_str(concat!("# TYPE ", $gname, " gauge\n"));
                        render_sample(&mut out, $gname, &[], &self.$gfield.get().to_string());
                    }
                )*
                $(
                    {
                        out.push_str(concat!("# HELP ", $hname, " ", $hhelp, "\n"));
                        out.push_str(concat!("# TYPE ", $hname, " histogram\n"));
                        render_histogram(&mut out, $hname, &self.$hfield);
                    }
                )*
                let _ = last_family;
                out
            }
        }

        impl Default for Metrics {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}

fn render_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Formats a float the way Prometheus expects (`1`, `0.25`, `+Inf`).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    let mut cum = 0u64;
    for (i, bound) in h.bounds.iter().enumerate() {
        cum += h.buckets[i].load(Ordering::Relaxed);
        render_sample(
            out,
            &format!("{name}_bucket"),
            &[("le", &fmt_f64(*bound))],
            &cum.to_string(),
        );
    }
    render_sample(out, &format!("{name}_bucket"), &[("le", "+Inf")], &h.count().to_string());
    render_sample(out, &format!("{name}_sum"), &[], &fmt_f64(h.sum()));
    render_sample(out, &format!("{name}_count"), &[], &h.count().to_string());
}

declare_metrics! {
    // -- service: sessions and deltas --------------------------------
    counter sessions_opened_total => "covern_sessions_opened_total":
        "Sessions ever opened (Open or Resume), including since-closed ones.";
    counter sessions_closed_total => "covern_sessions_closed_total":
        "Sessions closed by the client (Close).";
    counter deltas_applied_total => "covern_deltas_applied_total":
        "Deltas absorbed to a verdict across all sessions.";
    counter verdicts_proved_total => "covern_verdicts_total" ["outcome" = "proved"]:
        "Delta verdicts by outcome.";
    counter verdicts_refuted_total => "covern_verdicts_total" ["outcome" = "refuted"]:
        "Delta verdicts by outcome.";
    counter verdicts_unknown_total => "covern_verdicts_total" ["outcome" = "unknown"]:
        "Delta verdicts by outcome.";
    counter delta_failures_total => "covern_delta_failures_total":
        "Deltas answered with DeltaFailed (structurally inapplicable or internal panic).";
    counter busy_replies_total => "covern_busy_replies_total":
        "Deltas refused with Busy because the session inbox was full (backpressure).";
    counter requests_total => "covern_requests_total":
        "Protocol requests dispatched, across all connections and commands.";
    counter protocol_errors_total => "covern_protocol_errors_total":
        "Requests answered with an Error reply (malformed, bad version, unknown session, invalid problem, shutting down).";
    // -- shared artifact cache ---------------------------------------
    counter cache_hits_total => "covern_cache_hits_total":
        "Artifact-cache requests for an already verified key (served from a resident bundle, or recomputed after eviction).";
    counter cache_misses_total => "covern_cache_misses_total":
        "Artifact-cache requests that ran a key's first full verification.";
    counter cache_singleflight_waits_total => "covern_cache_singleflight_waits_total":
        "Cache requests that blocked on another requester computing the same key (schedule-dependent).";
    counter cache_evictions_total => "covern_cache_evictions_total":
        "Full-verification bundles dropped by the resident LRU bound; a later request for the key recomputes it (counted as a hit).";
    counter proof_warmstart_hits_total => "covern_proof_warmstart_hits_total":
        "Proof-cache lookups that found a reusable B&B checkpoint for the instance's fine-tune family.";
    counter proof_warmstart_misses_total => "covern_proof_warmstart_misses_total":
        "Proof-cache lookups that found no checkpoint (the B&B run starts cold from the root box).";
    // -- transports --------------------------------------------------
    counter connections_accepted_total => "covern_connections_accepted_total":
        "TCP connections accepted by the protocol listener.";
    counter metrics_scrapes_total => "covern_metrics_scrapes_total":
        "Metrics renders served (protocol Metrics requests plus HTTP /metrics scrapes).";
    counter metrics_scrape_errors_total => "covern_metrics_scrape_errors_total":
        "HTTP /metrics requests answered 400 (malformed request line, oversized or timed-out header block).";
    // -- verification engines ----------------------------------------
    counter bnb_runs_total => "covern_bnb_runs_total":
        "Branch-and-bound refinement runs (one per local check routed to the B&B engine).";
    counter bnb_splits_total => "covern_bnb_splits_total":
        "Input-box bisections performed across all branch-and-bound runs.";
    counter bnb_leaves_revalidated_total => "covern_bnb_leaves_revalidated_total":
        "Checkpointed proved leaves that re-validated against the updated weights during warm-started B&B runs.";
    counter bnb_leaves_reseeded_total => "covern_bnb_leaves_reseeded_total":
        "Checkpointed proved leaves that failed re-validation and were re-seeded into the warm frontier.";
    counter kernel_compiles_total => "covern_kernel_compiles_total":
        "Layer weight kernels compiled (sign-split + transpose packing; once per layer until invalidated).";
    counter kernel_invalidations_total => "covern_kernel_invalidations_total":
        "Compiled layer kernels invalidated by a weight mutation.";
    // -- cluster coordinator -----------------------------------------
    counter cluster_pings_total => "covern_cluster_pings_total":
        "Health-check pings the cluster coordinator sent to worker daemons (successful or not).";
    counter cluster_worker_deaths_total => "covern_cluster_worker_deaths_total":
        "Worker daemons the coordinator declared dead (connection loss, ping failure, or per-request deadline).";
    counter cluster_reassignments_total => "covern_cluster_reassignments_total":
        "In-flight sessions reassigned to another worker by checkpoint resume + delta-stream replay.";
    counter cluster_deadline_reroutes_total => "covern_cluster_deadline_reroutes_total":
        "Worker requests abandoned at the per-request deadline and rerouted to another worker.";
    counter cluster_malformed_responses_total => "covern_cluster_malformed_responses_total":
        "Worker response lines the coordinator could not decode (counted and survived, never a panic).";
    counter cluster_worker_respawns_total => "covern_cluster_worker_respawns_total":
        "Replacement worker daemons launched by the health monitor for dead coordinator-spawned slots.";
    counter store_spills_total => "covern_store_spills_total":
        "Blobs written to the coordinator's disk-backed content-addressed store (checkpoints and spilled proofs).";
    counter store_loads_total => "covern_store_loads_total":
        "Blobs served from the coordinator's disk-backed content-addressed store.";
    // -- closed-loop verification ------------------------------------
    counter closedloop_tubes_total => "covern_closedloop_tubes_total":
        "Closed-loop reach tubes propagated (one per initial verification or delta re-verification).";
    counter closedloop_steps_total => "covern_closedloop_steps_total":
        "Closed-loop plant steps propagated across all tubes, cache-served steps included.";
    counter closedloop_step_cache_hits_total => "covern_closedloop_step_cache_hits_total":
        "Tube-cache step lookups served from a per-step checkpoint (warmth- and schedule-dependent).";
    counter closedloop_step_cache_misses_total => "covern_closedloop_step_cache_misses_total":
        "Tube-cache step lookups that recomputed (and stored) their step (warmth- and schedule-dependent).";
    counter closedloop_layer_cache_hits_total => "covern_closedloop_layer_cache_hits_total":
        "Mid-controller layer-prefix snapshots reused during tube propagation (warmth- and schedule-dependent).";
    counter closedloop_order_reductions_total => "covern_closedloop_order_reductions_total":
        "Zonotope order reductions applied to cap generator growth across plant steps.";
    ---
    gauge sessions_open => "covern_sessions_open":
        "Sessions currently registered.";
    gauge inbox_depth => "covern_inbox_depth":
        "Deltas queued across all session inboxes, awaiting a drain task.";
    gauge drain_tasks_active => "covern_drain_tasks_active":
        "Session drain tasks submitted to the worker pool and not yet finished.";
    gauge cache_entries => "covern_cache_entries":
        "Distinct content addresses in the process-wide artifact cache (stored or in flight).";
    gauge connections_active => "covern_connections_active":
        "TCP protocol connections currently being served.";
    gauge cluster_workers_active => "covern_cluster_workers_active":
        "Worker daemons the cluster coordinator currently considers live.";
    gauge kernel_mode_outward => "covern_kernel_mode_outward":
        "1 when the process-global kernel mode is Outward (fast, containment-sound), 0 for Deterministic.";
    ---
    histogram open_latency_seconds => "covern_open_latency_seconds":
        "Wall time of Open/Resume handling, including the original verification or cache lookup.";
    histogram verdict_latency_seconds => "covern_verdict_latency_seconds":
        "Wall time applying one delta to a verdict (server side, excluding inbox queueing).";
}

static GLOBAL: OnceLock<Metrics> = OnceLock::new();

/// The process-wide registry. All instrumentation in the workspace
/// reports here; the service renders it for the `Metrics` protocol
/// command and the `/metrics` HTTP listener.
pub fn metrics() -> &'static Metrics {
    GLOBAL.get_or_init(Metrics::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let m = Metrics::new();
        m.cache_hits_total.inc();
        m.cache_hits_total.add(4);
        assert_eq!(m.cache_hits_total.get(), 5);
        m.sessions_open.inc();
        m.sessions_open.inc();
        m.sessions_open.dec();
        assert_eq!(m.sessions_open.get(), 1);
        m.sessions_open.set(-3);
        assert_eq!(m.sessions_open.get(), -3);
    }

    #[test]
    fn histogram_buckets_quantiles_and_sum() {
        let h = Histogram::new(&LATENCY_BUCKETS);
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..90 {
            h.observe(0.0008); // le=0.001 bucket
        }
        for _ in 0..10 {
            h.observe(0.2); // le=0.25 bucket
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum() - (90.0 * 0.0008 + 10.0 * 0.2)).abs() < 1e-9);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= 0.001, "p50 {p50} must sit in the le=0.001 bucket");
        let p99 = h.quantile(0.99).unwrap();
        assert!((0.1..=0.25).contains(&p99), "p99 {p99} must sit in the le=0.25 bucket");
    }

    #[test]
    fn histogram_overflow_lands_in_inf_bucket_only() {
        let h = Histogram::new(&LATENCY_BUCKETS);
        h.observe(99.0);
        let mut out = String::new();
        render_histogram(&mut out, "x", &h);
        assert!(out.contains("x_bucket{le=\"10\"} 0"));
        assert!(out.contains("x_bucket{le=\"+Inf\"} 1"));
        assert!(out.contains("x_count 1"));
    }

    #[test]
    fn render_is_well_formed_prometheus_text() {
        let m = Metrics::new();
        m.verdicts_proved_total.add(2);
        m.verdict_latency_seconds.observe(0.003);
        let text = m.render_prometheus();
        // Every descriptor's family appears with HELP and TYPE exactly once.
        let mut seen = std::collections::HashSet::new();
        for d in m.descriptors() {
            assert!(
                text.contains(&format!("# TYPE {} {}", d.name, d.kind.as_str())),
                "missing TYPE for {}",
                d.name
            );
            if seen.insert(d.name) {
                assert_eq!(
                    text.matches(&format!("# HELP {} ", d.name)).count(),
                    1,
                    "family {} must carry exactly one HELP line",
                    d.name
                );
            }
        }
        // Label families render with their fixed labels.
        assert!(text.contains("covern_verdicts_total{outcome=\"proved\"} 2"));
        assert!(text.contains("covern_verdicts_total{outcome=\"refuted\"} 0"));
        // Histograms expand into buckets + sum + count.
        assert!(text.contains("covern_verdict_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("covern_verdict_latency_seconds_count 1"));
        assert!(text.contains("covern_verdict_latency_seconds_sum 0.003"));
    }

    #[test]
    fn descriptor_names_are_prometheus_legal_and_deduplicated_per_family() {
        let m = Metrics::new();
        let descriptors = m.descriptors();
        assert!(descriptors.len() >= 20, "the catalog should stay substantial");
        for d in &descriptors {
            assert!(
                d.name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "illegal metric name {}",
                d.name
            );
            assert!(d.name.starts_with("covern_"), "{} must carry the covern_ prefix", d.name);
            assert!(!d.help.is_empty());
        }
        // Same family name may repeat only with distinct label sets.
        let mut series = std::collections::HashSet::new();
        for d in &descriptors {
            assert!(series.insert((d.name, d.labels)), "duplicate series {:?}", d.name);
        }
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = metrics() as *const Metrics;
        let b = metrics() as *const Metrics;
        assert_eq!(a, b);
    }
}
