//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! workspace crates (the layers), never inside them. Each span keeps its
//! name, start, end, parent and request id; spans stay in memory until the
//! run ends and are then written out in one piece. A layer's *self time* is
//! its span's duration minus the part of that interval covered by its
//! children — children may overlap one another, so the covered part is the
//! length of the union of their intervals, clipped to the parent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `rev.stage.3.fwd`.
    pub name: String,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch (`start` until closed).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or step) id shared by all spans of one operation.
    pub req: u64,
}

thread_local! {
    /// Open scoped spans on this thread (innermost last).
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder; a disabled tracer runs closures without recording.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes through.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting at `start` under `parent`; returns its index
    /// (`usize::MAX` when disabled).
    pub fn open(&self, name: &str, start: Instant, parent: Option<usize>, req: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let s = self.ns(start);
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(Span {
            name: name.to_string(),
            start: s,
            end: s,
            parent,
            req,
        });
        spans.len() - 1
    }

    /// Closes span `idx` at `end`.
    pub fn close(&self, idx: usize, end: Instant) {
        if self.enabled {
            let e = self.ns(end);
            self.spans.lock().expect("span buffer poisoned")[idx].end = e;
        }
    }

    /// Runs `f` inside a span named `name`, nested under whatever scoped
    /// span is open on this thread.
    pub fn scope<R>(&self, name: &str, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        let idx = self.open(name, Instant::now(), parent, req);
        STACK.with(|s| s.borrow_mut().push(idx));
        let r = f();
        STACK.with(|s| s.borrow_mut().pop());
        self.close(idx, Instant::now());
        r
    }

    /// Copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Total length of the union of half-open intervals `[a, b)`.
pub fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.retain(|&(a, b)| b > a);
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time of every span, in span order: duration minus the union of
/// its children's intervals clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            children[p].push((s.start.max(ps.start), s.end.min(ps.end)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, ch)| (s.end - s.start).saturating_sub(union_len(ch)))
        .collect()
}

/// Per-name aggregate of self time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: usize,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Self time of each call, ms.
    pub per_call_ms: Vec<f64>,
}

/// Groups self times by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (s, st) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.clone()).or_default();
        e.calls += 1;
        e.self_ns += st;
        e.per_call_ms.push(st as f64 * 1e-6);
    }
    out
}

/// Serializes spans as a JSON array (one object per line).
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(vec![(20, 30), (0, 10)]), 20);
        assert_eq!(union_len(vec![(0, 10), (2, 3), (10, 12)]), 12);
        assert_eq!(union_len(vec![(5, 5), (7, 6)]), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Parent 0..100; children 10..50 and 30..70 overlap on 30..50, so
        // they cover 10..70 = 60 and the parent keeps 40.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("a.leaf", 20, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 35, 40, 5]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent (a response observed after the
        // parent closed) only removes the overlapping part.
        let spans = vec![span("root", 0, 100, None), span("late", 90, 150, Some(0))];
        assert_eq!(self_times(&spans), vec![90, 60]);
    }

    #[test]
    fn scopes_nest_and_aggregate_by_name() {
        let tr = Tracer::new(true);
        tr.scope("outer", 1, || {
            tr.scope("inner", 1, || std::hint::black_box(1 + 1));
            tr.scope("inner", 1, || std::hint::black_box(2 + 2));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let agg = by_name(&spans);
        assert_eq!(agg["inner"].calls, 2);
        let total: u64 = agg.values().map(|l| l.self_ns).sum();
        assert_eq!(total, spans[0].end - spans[0].start);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.scope("x", 0, || 7), 7);
        assert!(tr.spans().is_empty());
    }
}
