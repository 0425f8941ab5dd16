//! In-memory spans of a traced run.
//!
//! Each span is one layer boundary crossed by one operation (a flow, a
//! job or a request): its name, start, end and parent. Spans of one
//! operation share its id. They stay in memory during the run and are
//! written out as TSV when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id of the operation the span belongs to.
    pub id: u64,
    /// Layer metric the span feeds, e.g. `placer.gp_stage1`.
    pub name: &'static str,
    /// Name of the enclosing span; `None` for an operation's root span.
    pub parent: Option<&'static str>,
    /// Span start.
    pub start: Instant,
    /// Span end.
    pub end: Instant,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// The spans of a run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Records a span.
    pub fn push(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            name,
            parent,
            start,
            end,
        });
    }

    /// Moves every span of `other` into `self`.
    pub fn absorb(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// Summed milliseconds and span count per name.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.ms();
            e.1 += 1;
        }
        out
    }

    /// Mean duration of the spans named `name`, 0 when there are none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.totals()
            .get(name)
            .map_or(0.0, |&(ms, n)| ms / n as f64)
    }

    /// Percent of root-span time that no child span covers. Children of
    /// one root never overlap, so their durations add.
    pub fn unattributed_pct(&self) -> f64 {
        let (mut root, mut children) = (0.0, 0.0);
        for s in &self.spans {
            match s.parent {
                None => root += s.ms(),
                Some(_) => children += s.ms(),
            }
        }
        if root == 0.0 {
            0.0
        } else {
            (100.0 * (root - children) / root).max(0.0)
        }
    }

    /// Renders the spans as TSV (`id name parent start_us end_us`, times
    /// relative to `origin`), ordered by id then start.
    pub fn to_tsv(&self, origin: Instant) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.id, s.start));
        let us = |t: Instant| t.saturating_duration_since(origin).as_micros();
        let mut out = String::from("id\tname\tparent\tstart_us\tend_us\n");
        for s in spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id,
                s.name,
                s.parent.unwrap_or("-"),
                us(s.start),
                us(s.end)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unattributed_is_root_time_not_covered_by_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut trace = Trace::default();
        trace.push(1, "op", None, at(0), at(100));
        trace.push(1, "a", Some("op"), at(0), at(60));
        trace.push(1, "b", Some("op"), at(60), at(90));
        assert!((trace.unattributed_pct() - 10.0).abs() < 1e-9);
        assert!((trace.mean_ms("a") - 60.0).abs() < 1e-9);
        assert_eq!(trace.mean_ms("missing"), 0.0);
        let tsv = trace.to_tsv(t0);
        assert!(tsv.contains("1\tb\top\t60000\t90000\n"), "{tsv}");
    }
}
