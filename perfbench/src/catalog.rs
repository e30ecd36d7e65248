//! The benchmark's workloads and metrics, read from `BENCHMARK.json` at
//! the repository root (compiled in, so the file is the one source of
//! truth). The per-layer `moves` column, which that file has no field
//! for, lives here and in the traced run's provenance line.

use serde_json::Value;
use std::sync::OnceLock;

/// `BENCHMARK.json` as compiled into the harness.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
}

/// The workloads and metric tables of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    /// Workload names, as passed to `--workload`.
    pub workloads: Vec<String>,
    /// End-to-end metrics, printed by every untraced run.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, printed by every traced run.
    pub per_layer: Vec<Metric>,
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match v.field(key).map_err(|e| e.to_string())? {
        Value::Str(s) => Ok(s),
        other => Err(format!("`{key}` is not a string: {other:?}")),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.field(key).map_err(|e| e.to_string())? {
        Value::Array(items) => Ok(items),
        other => Err(format!("`{key}` is not an array: {other:?}")),
    }
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<Metric>, String> {
    list(doc, key)?
        .iter()
        .map(|m| {
            Ok(Metric { name: text(m, "name")?.to_owned(), unit: text(m, "unit")?.to_owned() })
        })
        .collect()
}

/// Parses a `BENCHMARK.json` document.
pub fn parse(json: &str) -> Result<Catalog, String> {
    let doc = serde_json::parse(json).map_err(|e| e.to_string())?;
    let workloads: Result<Vec<String>, String> =
        list(&doc, "workloads")?.iter().map(|w| text(w, "name").map(str::to_owned)).collect();
    Ok(Catalog {
        workloads: workloads?,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

/// The compiled-in catalogue.
pub fn get() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json parses"))
}

/// Whether `name` is a metric of either table.
pub fn has_metric(name: &str) -> bool {
    let c = get();
    c.end_to_end.iter().chain(&c.per_layer).any(|m| m.name == name)
}

/// In-process layers: the fleet probe's throughput (provenance of the
/// daemon-sessions traced run), and the daemon's latencies once the
/// transport stall no longer hides them.
const INPROC_RATE: &str =
    "fleet_probe.deltas_per_s; daemon-sessions/verdict_p50_ms once the transport stall is gone";
/// Full re-verification is rare on the fleet; its layers are probed on
/// re-proof instances in the fleet probe.
const FALLBACK: &str = "fleet_probe.deltas_per_s when deltas fall back to full re-verification";
const DAEMON_LAT: &str = "verdict_p50_ms and open_p50_ms on daemon-sessions and daemon-cold";
const SHIPPED_NETS: &str =
    "daemon-sessions/verdict_p50_ms, daemon-cold/open_p50_ms, cluster_probe.deltas_per_s";
/// Cluster layers: the cluster probe's throughput (provenance of the
/// daemon-cold traced run).
const CLUSTER_RATE: &str = "cluster_probe.deltas_per_s";

/// For every per-layer metric, the `workload/metric` pairs it should move.
pub const MOVES: &[(&str, &str)] = &[
    ("tensor.interval_matvec_us", INPROC_RATE),
    ("absint.layer_box_us", INPROC_RATE),
    ("absint.layer_symbolic_us", INPROC_RATE),
    ("absint.layer_zonotope_us", INPROC_RATE),
    ("absint.bnb_ms", FALLBACK),
    ("absint.bnb_splits_per_delta", FALLBACK),
    ("absint.bnb_revalidated_share", FALLBACK),
    ("core.open_ms", "daemon-cold/open_p50_ms"),
    ("core.stage_prop1_ms", INPROC_RATE),
    ("core.stage_prop2_ms", INPROC_RATE),
    ("core.stage_prop3_ms", INPROC_RATE),
    ("core.stage_prop4_ms", INPROC_RATE),
    ("core.stage_prop5_ms", INPROC_RATE),
    ("core.stage_fix_ms", INPROC_RATE),
    ("core.stage_retarget_ms", INPROC_RATE),
    ("core.stage_full_ms", FALLBACK),
    ("core.reuse_share", INPROC_RATE),
    ("core.fallthrough_ms_per_delta", INPROC_RATE),
    ("core.prop4_overhead_ms", INPROC_RATE),
    ("campaign.cache_hit_share", INPROC_RATE),
    ("campaign.proof_hit_share", INPROC_RATE),
    ("campaign.singleflight_waits", INPROC_RATE),
    ("campaign.cache_call_us", INPROC_RATE),
    ("campaign.scaling_2v1", INPROC_RATE),
    ("closedloop.tube_ms", INPROC_RATE),
    ("closedloop.step_cache_hit_share", INPROC_RATE),
    ("nn.encode_ms", SHIPPED_NETS),
    ("nn.decode_ms", SHIPPED_NETS),
    ("nn.snapshot_kb", SHIPPED_NETS),
    ("service.rtt_p50_ms", DAEMON_LAT),
    ("service.server_verdict_mean_ms", DAEMON_LAT),
    ("service.server_open_mean_ms", DAEMON_LAT),
    ("service.transport_gap_ms", DAEMON_LAT),
    ("service.encode_us", "daemon-sessions/verdict_p50_ms"),
    ("service.decode_us", "daemon-sessions/verdict_p50_ms"),
    ("service.connect_ms", "setup_s on daemon-sessions and daemon-cold"),
    ("cluster.launch_s", "cluster_probe.setup_s"),
    ("cluster.worker_busy_share", CLUSTER_RATE),
    ("cluster.store_put_us", CLUSTER_RATE),
    ("cluster.store_get_us", CLUSTER_RATE),
    ("cluster.reassignments", "cluster_probe.decided_share"),
    ("observe.scrape_ms", "none (guards against costly histograms)"),
    ("bench.trace_overhead_share", "none (harness overhead of the traced run)"),
];
