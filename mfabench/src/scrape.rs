//! Parsing `GET /metrics` scrapes and differencing two of them.
//!
//! A scrape is the Prometheus text format the server renders: `#` comment
//! lines and `series value` lines, where a series is a metric name with an
//! optional `{label="…",…}` set. Counters are read as deltas between a
//! scrape before and one after the measured window; gauges and quantiles
//! are read from the later scrape alone.

use std::collections::BTreeMap;

/// One parsed scrape: series (name plus labels, verbatim) → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses a scrape, skipping comments, blank lines and lines whose
    /// value is not a number.
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(key.trim().to_owned(), v);
                }
            }
        }
        Scrape(series)
    }

    /// The value of one exact series (`name` or `name{labels}`), 0 when
    /// the server did not render it.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum over every series of metric `name` whose labels contain all of
    /// `labels` (e.g. `status="429"`).
    pub fn sum(&self, name: &str, labels: &[&str]) -> f64 {
        self.0
            .iter()
            .filter(|(key, _)| {
                let (metric, rest) = key.split_once('{').unwrap_or((key.as_str(), ""));
                metric == name && labels.iter().all(|l| rest.contains(l))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// `later - self` for the series sum of `name` with `labels`.
    pub fn delta(&self, later: &Scrape, name: &str, labels: &[&str]) -> f64 {
        later.sum(name, labels) - self.sum(name, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = include_str!("../testdata/metrics_before.txt");
    const AFTER: &str = include_str!("../testdata/metrics_after.txt");

    #[test]
    fn parses_a_captured_scrape() {
        let s = Scrape::parse(AFTER);
        assert_eq!(s.get("mfaplace_infer_plan_arena_bytes"), 143_872.0);
        assert_eq!(
            s.get("mfaplace_request_latency_seconds{quantile=\"0.5\"}"),
            0.004787
        );
        assert_eq!(
            s.get("mfaplace_rt_timer_seconds_total{scope=\"serve/forward\"}"),
            0.055_717
        );
        assert_eq!(s.get("no_such_series"), 0.0);
    }

    #[test]
    fn deltas_between_captured_scrapes() {
        let before = Scrape::parse(BEFORE);
        let after = Scrape::parse(AFTER);
        assert_eq!(before.delta(&after, "mfaplace_batch_size_count", &[]), 20.0);
        assert_eq!(before.delta(&after, "mfaplace_batch_size_sum", &[]), 40.0);
        assert_eq!(
            before.delta(
                &after,
                "mfaplace_slot_batched_items_total",
                &["slot=\"default\""]
            ),
            40.0
        );
        // Sums across label sets: every /predict status counts.
        assert_eq!(
            before.delta(
                &after,
                "mfaplace_requests_total",
                &["endpoint=\"/predict\""]
            ),
            40.0
        );
        assert_eq!(
            before.delta(&after, "mfaplace_requests_total", &["status=\"429\""]),
            0.0
        );
        assert_eq!(
            before.delta(&after, "mfaplace_plan_cache_hits_total", &[]),
            19.0
        );
    }
}
