//! Unit tests of the harness's own arithmetic: percentile picking, the
//! Prometheus reader, self time over nested spans, and the catalogue read
//! from `BENCHMARK.json`.

use covern_perfbench::catalog::{self, MOVES};
use covern_perfbench::prom::{histogram_sum_count, sample, window_mean};
use covern_perfbench::stats::{median, percentile};
use covern_perfbench::trace::{self_ms_by_name, self_times, Span, Tracer};

#[test]
fn percentile_is_nearest_rank_with_counts() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let p50 = percentile(&samples, 50.0).unwrap();
    assert_eq!((p50.value, p50.count, p50.beyond), (50.0, 100, 50));
    let p90 = percentile(&samples, 90.0).unwrap();
    assert_eq!((p90.value, p90.beyond), (90.0, 10));
    let p99 = percentile(&samples, 99.0).unwrap();
    assert_eq!((p99.value, p99.beyond), (99.0, 1));
    assert_eq!(percentile(&samples, 0.0).unwrap().value, 1.0);
    assert_eq!(percentile(&samples, 100.0).unwrap().beyond, 0);
    // Ranks round up: p50 of three samples is the middle one.
    let three = [3.0, 1.0, 2.0];
    assert_eq!(percentile(&three, 50.0).unwrap().value, 2.0);
    assert!(percentile(&[], 50.0).is_none());
    assert!(percentile(&three, 101.0).is_none());
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

const SCRAPE: &str = "\
# HELP covern_verdict_latency_seconds Wall time applying one delta.
# TYPE covern_verdict_latency_seconds histogram
covern_verdict_latency_seconds_bucket{le=\"0.001\"} 3
covern_verdict_latency_seconds_bucket{le=\"+Inf\"} 4
covern_verdict_latency_seconds_sum 0.0125
covern_verdict_latency_seconds_count 4
covern_verdict_latency_seconds_sum_total 99
covern_open_latency_seconds_sum{session=\"a\"} 0.5
covern_open_latency_seconds_sum{session=\"b\"} 0.25 1700000000
covern_open_latency_seconds_count{session=\"a\"} 1
covern_open_latency_seconds_count{session=\"b\"} 2
";

#[test]
fn prometheus_sum_and_count() {
    assert_eq!(histogram_sum_count(SCRAPE, "covern_verdict_latency_seconds"), Some((0.0125, 4)));
    // Labelled series sum; a trailing timestamp is ignored.
    assert_eq!(histogram_sum_count(SCRAPE, "covern_open_latency_seconds"), Some((0.75, 3)));
    // A longer name sharing the prefix is not the series.
    assert_eq!(sample(SCRAPE, "covern_verdict_latency_seconds_sum"), Some(0.0125));
    assert_eq!(histogram_sum_count(SCRAPE, "covern_missing"), None);
    assert_eq!(sample("covern_x_sum not-a-number\n", "covern_x_sum"), None);
}

#[test]
fn prometheus_window_mean_between_scrapes() {
    let later = SCRAPE
        .replace("_sum 0.0125", "_sum 0.0325")
        .replace("_seconds_count 4", "_seconds_count 8");
    let mean = window_mean(SCRAPE, &later, "covern_verdict_latency_seconds").unwrap();
    assert!((mean - 0.005).abs() < 1e-12, "mean {mean}");
    assert_eq!(window_mean(SCRAPE, SCRAPE, "covern_verdict_latency_seconds"), None);
}

fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span { id, parent, name, start_ns, end_ns, delta: Some(7) }
}

#[test]
fn self_time_subtracts_covered_child_time_once() {
    let spans = vec![
        span(1, None, "delta", 0, 100),
        // Two overlapping children (parallel work) cover 10..50 once.
        span(2, Some(1), "core.stage_prop4", 10, 40),
        span(3, Some(1), "core.stage_prop5", 30, 50),
        // A child sticking out of its parent is clipped.
        span(4, Some(1), "core.apply", 90, 120),
        // A grandchild counts against its own parent only.
        span(5, Some(2), "check", 15, 25),
        span(6, None, "lonely", 200, 230),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 100 - 40 - 10);
    assert_eq!(selfs[&2], 30 - 10);
    assert_eq!(selfs[&3], 20);
    assert_eq!(selfs[&4], 30);
    assert_eq!(selfs[&5], 10);
    assert_eq!(selfs[&6], 30);
    let by_name = self_ms_by_name(&spans);
    assert_eq!(by_name["delta"], vec![50.0 / 1e6]);
}

#[test]
fn tracer_nests_spans_under_the_innermost_open_one() {
    let mut tr = Tracer::new(std::time::Instant::now(), 3);
    tr.enter("scenario", None);
    let v = tr.span("core.open", Some(1), || {
        std::thread::sleep(std::time::Duration::from_millis(2));
        41
    });
    tr.span("core.apply", Some(2), || ());
    tr.close();
    let spans = tr.finish();
    assert_eq!(v, 41);
    assert_eq!(spans.len(), 3);
    let scenario = spans.iter().find(|s| s.name == "scenario").unwrap();
    assert_eq!(scenario.parent, None);
    assert_eq!(scenario.id >> 40, 3, "ids come from the lane's range");
    for child in spans.iter().filter(|s| s.name != "scenario") {
        assert_eq!(child.parent, Some(scenario.id));
        assert!(child.start_ns >= scenario.start_ns && child.end_ns <= scenario.end_ns);
    }
    let open = spans.iter().find(|s| s.name == "core.open").unwrap();
    assert!(open.duration_ns() >= 2_000_000);
    assert!(self_times(&spans)[&scenario.id] < scenario.duration_ns());
}

#[test]
fn every_per_layer_metric_names_what_it_should_move() {
    let c = catalog::get();
    assert!(c.workloads.len() >= 2);
    assert!(c.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    let names: Vec<&str> = c.per_layer.iter().map(|m| m.name.as_str()).collect();
    let moved: Vec<&str> = MOVES.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, moved, "MOVES follows BENCHMARK.json's per_layer order");
    assert!(MOVES.iter().all(|(_, moves)| !moves.is_empty()));
}

#[test]
fn catalogue_parse_rejects_a_malformed_table() {
    assert!(catalog::parse("{\"workloads\": [], \"end_to_end\": 3}").is_err());
    assert!(catalog::parse("not json").is_err());
}
