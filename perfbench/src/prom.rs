//! Minimal reader for the Prometheus text exposition format (0.0.4):
//! just enough to take a histogram's exact `_sum` and `_count`.

/// Value of the sample line for series `name` with no labels, or the sum
/// over every labelled variant of it when it has labels.
pub fn sample(text: &str, name: &str) -> Option<f64> {
    let mut total = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(rest) = line.strip_prefix(name) else { continue };
        // Reject longer names sharing the prefix (`x_sum` vs `x_sum_total`).
        let rest = match rest.chars().next() {
            Some('{') => match rest.find('}') {
                Some(end) => &rest[end + 1..],
                None => continue,
            },
            Some(c) if c.is_whitespace() => rest,
            _ => continue,
        };
        // Value, then an optional timestamp.
        let Some(value) = rest.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()) else {
            continue;
        };
        *total.get_or_insert(0.0) += value;
    }
    total
}

/// `(sum, count)` of histogram `name` (its `name_sum` and `name_count`
/// series).
pub fn histogram_sum_count(text: &str, name: &str) -> Option<(f64, u64)> {
    let sum = sample(text, &format!("{name}_sum"))?;
    let count = sample(text, &format!("{name}_count"))?;
    Some((sum, count as u64))
}

/// Exact mean of a histogram over the window between two scrapes, in the
/// histogram's unit; `None` when either scrape lacks it or nothing was
/// observed in between.
pub fn window_mean(before: &str, after: &str, name: &str) -> Option<f64> {
    let (s0, c0) = histogram_sum_count(before, name)?;
    let (s1, c1) = histogram_sum_count(after, name)?;
    (c1 > c0).then(|| (s1 - s0) / (c1 - c0) as f64)
}
