//! The run's result: metrics, the gate's counts, and provenance, printed
//! as JSON lines (the result object last).

use crate::catalog;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits (non-finite values print as
/// 0, which the gate never produces for a time).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value, in the units `BENCHMARK.json` gives.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed or mismatched the reference.
    pub failed: u64,
    /// Whether every verdict matched the reference.
    pub correct: bool,
    /// Provenance entries: key → raw JSON value.
    pub provenance: BTreeMap<String, String>,
}

impl Outcome {
    /// Records a metric (must be in `BENCHMARK.json`).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(catalog::has_metric(name), "metric {name} is not in BENCHMARK.json");
        self.metrics.insert(name, value);
    }

    /// Records a metric unless the run already measured it.
    pub fn fill(&mut self, name: &'static str, value: f64) {
        if !self.metrics.contains_key(name) {
            self.set(name, value);
        }
    }

    /// Records a provenance entry from a raw JSON value.
    pub fn note(&mut self, key: &str, raw_json: String) {
        self.provenance.insert(key.to_owned(), raw_json);
    }

    /// Records a numeric provenance entry.
    pub fn note_num(&mut self, key: &str, v: f64) {
        self.note(key, json_num(v));
    }

    /// The provenance entries as one JSON object.
    pub fn provenance_object(&self) -> String {
        let body: Vec<String> =
            self.provenance.iter().map(|(k, v)| format!("{}:{}", json_str(k), v)).collect();
        format!("{{{}}}", body.join(","))
    }

    /// The provenance line.
    pub fn provenance_line(&self) -> String {
        format!("{{\"provenance\":{}}}", self.provenance_object())
    }

    /// The result line: the end-to-end metrics (untraced) or the
    /// per-layer metrics (traced), each with its unit. A metric the run
    /// did not measure prints as 0 and is listed in the provenance line.
    pub fn result_line(&mut self, traced: bool) -> String {
        let c = catalog::get();
        let table = if traced { &c.per_layer } else { &c.end_to_end };
        let missing: Vec<String> = table
            .iter()
            .filter(|m| !self.metrics.contains_key(m.name.as_str()))
            .map(|m| json_str(&m.name))
            .collect();
        self.note("not_measured", format!("[{}]", missing.join(",")));
        let body: Vec<String> = table
            .iter()
            .map(|m| {
                let v = self.metrics.get(m.name.as_str()).copied().unwrap_or(0.0);
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&m.name),
                    json_num(v),
                    json_str(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(",")
        )
    }
}
