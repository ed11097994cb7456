//! In-memory spans recorded by the harness around calls into each layer.
//!
//! Spans live in a `Vec` until the run ends and are then written to
//! `benchmark/out/trace.json`. A span's *self time* is its duration minus
//! the part of that interval its direct children cover, so nesting a
//! `runtime.execute` under `run.live` never counts the same nanosecond
//! twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// `parent` of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One closed or still-open span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// The unit of work (test, trace, file, frame) the span belongs to;
    /// spans of one unit share it.
    pub unit: u32,
}

/// Records spans against one clock origin.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanRecorder {
    pub fn with_capacity(n: usize) -> Self {
        SpanRecorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanRecorder::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, unit: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            unit,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        unit: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, unit);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// p99 duration of the spans called `name`, microseconds; 0 when there
    /// are too few for a p99 with ten samples beyond it.
    pub fn p99_us(&self, name: &str) -> f64 {
        let mut durations: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        durations.sort_unstable();
        crate::stats::percentile_sorted(&durations, 0.99).map_or(0.0, |ns| ns as f64 / 1e3)
    }

    /// Total self time per span name, nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        self_time_by_name(&self.spans)
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// The spans of one unit of work — or nothing at all, so that one code path
/// serves the traced pass and the untraced one it is compared with.
#[derive(Debug)]
pub struct UnitScope<'a> {
    traced: Option<(&'a mut SpanRecorder, SpanId)>,
    unit: u32,
}

impl<'a> UnitScope<'a> {
    /// Opens the unit's root span (`unit`) when there is a recorder.
    pub fn open(spans: Option<&'a mut SpanRecorder>, unit: u32) -> Self {
        UnitScope {
            traced: spans.map(|s| {
                let root = s.open("unit", NO_PARENT, unit);
                (s, root)
            }),
            unit,
        }
    }

    /// Runs `f`, as a child span of the unit when tracing.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &mut self.traced {
            Some((spans, root)) => spans.time(name, *root, self.unit, f),
            None => f(),
        }
    }

    pub fn close(self) {
        if let Some((spans, root)) = self.traced {
            spans.close(root);
        }
    }
}

/// Self time of every span, summed by name: duration minus the union of
/// the direct children's intervals (clipped to the parent).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        *by_name.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("unit", 0, 100, NO_PARENT),
            span("parse", 10, 30, 0),
            // Two overlapping children: their union [40, 80) counts once.
            span("run", 40, 70, 0),
            span("run", 60, 80, 0),
            // A grandchild shortens its parent, not the root.
            span("detect", 45, 55, 2),
        ];
        let t = self_time_by_name(&spans);
        assert_eq!(t["unit"], 100 - 20 - 40);
        assert_eq!(t["parse"], 20);
        assert_eq!(t["run"], (30 - 10) + 20);
        assert_eq!(t["detect"], 10);
        // Nothing is counted twice: self times add up to the root span.
        assert_eq!(t.values().sum::<u64>(), 100 + 10); // + the overlap of the two `run`s
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("unit", 10, 20, NO_PARENT), span("late", 15, 40, 0)];
        assert_eq!(self_time_by_name(&spans)["unit"], 5);
    }

    #[test]
    fn a_unit_scope_records_only_when_given_a_recorder() {
        let mut untraced = UnitScope::open(None, 3);
        assert_eq!(untraced.time("parse", || 7), 7);
        untraced.close();

        let mut rec = SpanRecorder::with_capacity(4);
        let mut traced = UnitScope::open(Some(&mut rec), 3);
        assert_eq!(traced.time("parse", || 7), 7);
        traced.close();
        let names: Vec<_> = rec
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.unit))
            .collect();
        assert_eq!(names, [("unit", NO_PARENT, 3), ("parse", 0, 3)]);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut rec = SpanRecorder::with_capacity(4);
        let root = rec.open("unit", NO_PARENT, 7);
        let x = rec.time("parse", root, 7, || 41 + 1);
        rec.close(root);
        assert_eq!(x, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = rec.to_json();
        assert!(json.contains("\"name\":\"parse\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"unit\":7"));
    }
}
