//! Outside-in spans: recorded by the benchmark around its calls into
//! each layer, kept in memory, written out when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, request}`. A layer's self
//! time is its spans' duration minus the part their child spans cover.
//! Totals are kept for every span; the span file keeps the first
//! [`MAX_SPANS_KEPT`] only, so a ten-second run of 3 µs queries does not
//! write a gigabyte.
//!
//! A span marked `derived` is not an interval the benchmark bracketed:
//! its duration was measured elsewhere (by the interpreter's profile, or
//! on a twin in-process database) and it is laid at its parent's start
//! so that the subtraction still works.

use std::io::Write;
use std::time::{Duration, Instant};

/// Spans kept for the span file (totals cover all of them).
pub const MAX_SPANS_KEPT: usize = 100_000;

/// Handle on a recorded span, for use as a parent. It carries what a
/// child needs to know, so a parent beyond the kept window still works.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    index: u64,
    name: u16,
    start_ns: u64,
}

struct Span {
    name: u16,
    derived: bool,
    parent: Option<SpanId>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every span recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total: Duration,
    /// Sum of the durations of their direct children.
    pub children: Duration,
}

impl Total {
    /// Time spent in spans of this name and in none of their children;
    /// `None` when the children claim more than the span lasted.
    pub fn self_time(&self) -> Option<Duration> {
        self.total.checked_sub(self.children)
    }
}

/// The span store of one run.
pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    totals: Vec<Total>,
    spans: Vec<Span>,
    recorded: u64,
}

impl Tracer {
    /// An empty tracer; span times are relative to now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            totals: Vec::new(),
            spans: Vec::new(),
            recorded: 0,
        }
    }

    fn name_index(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                self.totals.push(Total::default());
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Record a span the caller bracketed with two clock reads.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.origin).as_nanos() as u64;
        self.record(name, false, start_ns, end_ns, parent, request)
    }

    /// Record a child whose duration was measured elsewhere, laid at its
    /// parent's start.
    pub fn derived(
        &mut self,
        name: &'static str,
        duration: Duration,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        let end_ns = parent.start_ns + duration.as_nanos() as u64;
        self.record(name, true, parent.start_ns, end_ns, Some(parent), request)
    }

    fn record(
        &mut self,
        name: &'static str,
        derived: bool,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let name = self.name_index(name);
        let duration = Duration::from_nanos(end_ns.saturating_sub(start_ns));
        let total = &mut self.totals[name as usize];
        total.count += 1;
        total.total += duration;
        if let Some(p) = parent {
            self.totals[p.name as usize].children += duration;
        }
        let id = SpanId {
            index: self.recorded,
            name,
            start_ns,
        };
        self.recorded += 1;
        if self.spans.len() < MAX_SPANS_KEPT {
            self.spans.push(Span {
                name,
                derived,
                parent,
                request,
                start_ns,
                end_ns,
            });
        }
        id
    }

    /// Totals of the spans called `name` (zero when none were recorded).
    pub fn total(&self, name: &str) -> Total {
        self.names
            .iter()
            .position(|n| *n == name)
            .map_or_else(Total::default, |i| self.totals[i])
    }

    /// Every span name with its totals, in first-seen order.
    pub fn totals(&self) -> impl Iterator<Item = (&'static str, Total)> + '_ {
        self.names.iter().copied().zip(self.totals.iter().copied())
    }

    /// Write the kept spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                self.names[s.name as usize], s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{}", p.index)?,
                None => write!(out, "null")?,
            }
            writeln!(
                out,
                ",\"request\":{},\"derived\":{}}}",
                s.request, s.derived
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = t.span("root", at(0), at(100), None, 1);
        let child = t.span("child", at(10), at(40), Some(root), 1);
        t.span("leaf", at(15), at(25), Some(child), 1);
        t.derived("measured-elsewhere", Duration::from_micros(20), root, 1);

        assert_eq!(t.total("root").self_time(), Some(Duration::from_micros(50)));
        assert_eq!(
            t.total("child").self_time(),
            Some(Duration::from_micros(20))
        );
        assert_eq!(t.total("leaf").self_time(), Some(Duration::from_micros(10)));
        // self times sum to the root span
        let sum: Duration = t.totals().filter_map(|(_, tot)| tot.self_time()).sum();
        assert_eq!(sum, Duration::from_micros(100));
    }

    #[test]
    fn children_longer_than_their_parent_are_reported_not_hidden() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        let root = t.span("root", t0, t0 + Duration::from_micros(5), None, 1);
        t.derived("too-long", Duration::from_micros(9), root, 1);
        assert_eq!(t.total("root").self_time(), None);
    }

    #[test]
    fn totals_cover_spans_beyond_the_kept_window() {
        let mut t = Tracer::new();
        let t0 = t.origin;
        let n = MAX_SPANS_KEPT as u64 + 10;
        for i in 0..n {
            let root = t.span("root", t0, t0 + Duration::from_nanos(10), None, i);
            t.derived("part", Duration::from_nanos(4), root, i);
        }
        assert_eq!(t.total("root").count, n);
        assert_eq!(
            t.total("root").self_time(),
            Some(Duration::from_nanos(6 * n))
        );
        let mut file = Vec::new();
        t.write_jsonl(&mut file).unwrap();
        assert_eq!(file.iter().filter(|b| **b == b'\n').count(), MAX_SPANS_KEPT);
    }
}
