//! Order statistics over latency and rate samples.

/// One percentile picked from a sample, with the counts needed to judge
/// whether it is trustworthy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// The sample value at the percentile (nearest rank).
    pub value: f64,
    /// Number of samples the percentile was picked from.
    pub count: usize,
    /// Number of samples strictly ranked above the pick.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in `0..=100`) of `samples`: the smallest
/// value with at least `p`% of the samples at or below it. `None` for an
/// empty sample or a `p` outside `0..=100`.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pick> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Pick { value: sorted[rank - 1], count: n, beyond: n - rank })
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one timed round observed.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Wall time of the round's timed calls.
    pub wall: f64,
    /// Delta verdicts in the round.
    pub deltas: usize,
    /// Per-delta latencies.
    pub verdict_ms: Vec<f64>,
    /// Session-open latencies.
    pub open_ms: Vec<f64>,
}

impl Round {
    /// Delta verdicts per second.
    pub fn rate(&self) -> f64 {
        ratio(self.deltas as f64, self.wall)
    }

    /// `rounds` merged into one: walls and deltas summed, samples pooled.
    pub fn pooled<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> Round {
        let mut out = Round::default();
        for r in rounds {
            out.wall += r.wall;
            out.deltas += r.deltas;
            out.verdict_ms.extend(&r.verdict_ms);
            out.open_ms.extend(&r.open_ms);
        }
        out
    }
}

/// The nine deciles of `samples` (nearest rank), as a JSON array.
pub fn deciles_json(samples: &[f64]) -> String {
    let d: Vec<String> = (1..10)
        .filter_map(|k| percentile(samples, 10.0 * f64::from(k)))
        .map(|p| crate::output::json_num(p.value))
        .collect();
    format!("[{}]", d.join(","))
}
