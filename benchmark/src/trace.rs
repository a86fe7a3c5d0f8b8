//! Spans recorded from the benchmark's side of each call into a layer.
//!
//! A span is a name, a start and end (ns since the tracer was made), the
//! span that caused it and the workload item it served. Spans stay in
//! memory until [`Tracer::write_jsonl`] at exit. A layer's self time is its
//! span's duration minus the time its child spans cover; what a parent's
//! children leave uncovered is reported as that parent's `unattributed`
//! remainder, so children plus `unattributed` always equal the parent's
//! wall time.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.prepare`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The workload item this call served.
    pub item: u64,
}

impl Span {
    /// Wall time in ns.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder; when disabled it only runs the closures.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can open children. Returns `f`'s result and the span's wall time
    /// in µs.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        item: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let t = Instant::now();
            let r = f(None);
            return (r, t.elapsed().as_secs_f64() * 1e6);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                item,
            });
            spans.len() - 1
        };
        let r = f(Some(id));
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans[id].end_ns = end;
        let us = spans[id].wall_ns() as f64 / 1e3;
        (r, us)
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"item":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.item
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-name self times and per-parent remainders of a span list.
#[derive(Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Self time in ns of every span, grouped by name.
    pub self_ns: BTreeMap<&'static str, Vec<u64>>,
    /// `unattributed` ns of every span that has children, grouped by name.
    pub unattributed_ns: BTreeMap<&'static str, Vec<u64>>,
}

/// Splits each span's wall time into the part its children cover and its
/// own remainder.
///
/// Children of one parent must not overlap and must lie inside it (the
/// benchmark opens them one after another on the parent's thread).
///
/// # Errors
///
/// Names the first span whose children break that rule.
pub fn breakdown(spans: &[Span]) -> Result<Breakdown, String> {
    let mut children: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out = Breakdown::default();
    for (id, s) in spans.iter().enumerate() {
        let wall = s.wall_ns();
        let kids = children.get(&id).map_or(&[][..], Vec::as_slice);
        let mut sorted: Vec<&Span> = kids.to_vec();
        sorted.sort_by_key(|c| c.start_ns);
        let mut covered = 0u64;
        let mut last_end = s.start_ns;
        for c in &sorted {
            if c.start_ns < last_end || c.end_ns > s.end_ns {
                return Err(format!(
                    "span {id} ({}): child {} overlaps a sibling or leaves the parent",
                    s.name, c.name
                ));
            }
            covered += c.wall_ns();
            last_end = c.end_ns;
        }
        // children are disjoint and inside the parent, so this cannot wrap
        let remainder = wall - covered;
        out.self_ns.entry(s.name).or_default().push(remainder);
        if !kids.is_empty() {
            out.unattributed_ns
                .entry(s.name)
                .or_default()
                .push(remainder);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            item: 0,
        }
    }

    #[test]
    fn self_time_and_unattributed_add_up() {
        // design [0,100): hierarchy [10,30), prepare [30,70) which holds
        // cdfg [35,60); forward [75,95)
        let spans = vec![
            span("design", 0, 100, None),
            span("hierarchy", 10, 30, Some(0)),
            span("prepare", 30, 70, Some(0)),
            span("cdfg", 35, 60, Some(2)),
            span("forward", 75, 95, Some(0)),
        ];
        let b = breakdown(&spans).unwrap();
        // design: 100 - (20 + 40 + 20) = 20 unattributed
        assert_eq!(b.unattributed_ns["design"], vec![20]);
        assert_eq!(b.self_ns["design"], vec![20]);
        // prepare: 40 - 25 = 15
        assert_eq!(b.self_ns["prepare"], vec![15]);
        assert_eq!(b.unattributed_ns["prepare"], vec![15]);
        // leaves: self time is their whole duration, no remainder entry
        assert_eq!(b.self_ns["cdfg"], vec![25]);
        assert_eq!(b.self_ns["hierarchy"], vec![20]);
        assert!(!b.unattributed_ns.contains_key("forward"));
        // children plus remainder equal every parent's wall time
        assert_eq!(20 + 40 + 20 + b.unattributed_ns["design"][0], 100);
        assert_eq!(25 + b.unattributed_ns["prepare"][0], 40);
    }

    #[test]
    fn overlapping_or_escaping_children_are_refused() {
        let overlap = vec![
            span("p", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 60, Some(0)),
        ];
        assert!(breakdown(&overlap).is_err());
        let escape = vec![span("p", 0, 100, None), span("a", 90, 110, Some(0))];
        assert!(breakdown(&escape).is_err());
    }

    #[test]
    fn recorded_spans_nest_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let ((), _) = t.span("outer", None, 7, |id| {
            t.span("inner", id, 7, |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].item, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let b = breakdown(&spans).unwrap();
        assert_eq!(
            b.unattributed_ns["outer"][0] + spans[1].wall_ns(),
            spans[0].wall_ns()
        );

        let off = Tracer::new(false);
        let (v, us) = off.span("x", None, 0, |id| {
            assert!(id.is_none());
            3
        });
        assert_eq!(v, 3);
        assert!(us >= 0.0);
        assert!(off.spans().is_empty());
    }
}
