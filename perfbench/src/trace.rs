//! In-memory spans recorded around the harness's own calls into each
//! layer, and the self-time computation over them.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` relative to the tracer epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within one run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.stage_prop4`.
    pub name: &'static str,
    /// Start, nanoseconds after the epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the epoch.
    pub end_ns: u64,
    /// The delta (or scenario-open) this span served.
    pub delta: Option<u64>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one thread. Tracers of one run share an epoch and
/// draw ids from disjoint ranges, so their spans merge into one log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    open: Vec<(u64, &'static str, u64, Option<u64>)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose ids start at `lane << 40`.
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Self { epoch, next_id: lane << 40, open: Vec::new(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, delta: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push((id, name, self.now_ns(), delta));
        let out = f();
        self.close();
        out
    }

    /// Opens a span that [`close`](Self::close) ends; for spans that
    /// enclose further traced calls.
    pub fn enter(&mut self, name: &'static str, delta: Option<u64>) {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push((id, name, self.now_ns(), delta));
    }

    /// Ends the innermost open span.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let (id, name, start_ns, delta) = self.open.pop().expect("close without an open span");
        let parent = self.open.last().map(|o| o.0);
        self.spans.push(Span { id, parent, name, start_ns, end_ns, delta });
    }

    /// The recorded spans (all spans must be closed).
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "tracer finished with open spans");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Self times grouped by span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(selfs[&s.id] as f64 / 1e6);
    }
    out
}

/// Writes spans as JSON lines (`id parent name start_ns end_ns delta`).
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"delta\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.delta)
        )?;
    }
    out.flush()
}
