//! Hierarchical wall-clock spans with RAII guards.
//!
//! A span is entered with [`crate::span`] (or the [`crate::span!`] macro when
//! attributes are attached at entry) and closed when the returned guard
//! drops or [`Span::finish`] returns its duration. Spans nest per thread: a
//! span entered while another is open on the same thread becomes its child.
//! Spans entered on freshly spawned threads start new roots in the same
//! global forest.
//!
//! A span reads the clock only when something uses its duration: the arena
//! (collection on), the thread's open [flight unit](crate::flight()) when
//! the span is one of its stages, or a [`crate::timer`] caller. Otherwise
//! entering it costs one relaxed atomic load and one thread-local read.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::flight::{self, Place};
use crate::json::Json;
use crate::{collecting, trace, trace_level};

/// One recorded span.
#[derive(Debug, Clone)]
pub(crate) struct SpanNode {
    pub name: String,
    pub parent: Option<usize>,
    pub depth: usize,
    /// The [`crate::trace`] context active at entry (0 = none).
    pub trace_id: u64,
    /// Nanoseconds since the process observability epoch.
    pub start_ns: u64,
    /// `None` while the span is still open.
    pub dur_ns: Option<u64>,
    pub attrs: Vec<(String, Json)>,
}

static ARENA: Mutex<Vec<SpanNode>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process observability epoch.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// RAII guard for an open span; the span closes when this drops.
///
/// A span closes on the thread that opened it, so the guard is not
/// `Send`. An inert guard (nothing records the span) does no work on drop.
#[must_use = "a span guard measures until it is dropped"]
pub struct Span {
    /// Clock reading at entry; `None` when the span reads no clock.
    start_ns: Option<u64>,
    /// Arena index when collection is on.
    idx: Option<usize>,
    /// Position under the thread's flight unit.
    place: Place,
    _thread: PhantomData<*const ()>,
}

impl Span {
    /// Attaches (or overwrites) an attribute on the span.
    pub fn attr(&self, key: &str, value: impl Into<Json>) {
        let Some(idx) = self.idx else { return };
        let mut arena = ARENA.lock().unwrap();
        let node = &mut arena[idx];
        let value = value.into();
        if let Some(slot) = node.attrs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            node.attrs.push((key.to_string(), value));
        }
    }

    /// Closes the span and returns the duration it measured: always real
    /// for a span entered with [`crate::timer`], zero for a [`crate::span()`]
    /// that nothing recorded.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let place = std::mem::replace(&mut self.place, Place::Outside);
        let dur_ns = self
            .start_ns
            .take()
            .map_or(0, |start| now_ns().saturating_sub(start));
        flight::exit(place, dur_ns);
        if let Some(idx) = self.idx.take() {
            STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // balanced by construction: the guard for `idx` is closed
                // at most once, and inner guards close first
                debug_assert_eq!(stack.last(), Some(&idx));
                stack.retain(|&i| i != idx);
            });
            let mut arena = ARENA.lock().unwrap();
            let node = &mut arena[idx];
            node.dur_ns = Some(dur_ns);
            if trace_level() >= 1 {
                let ms = dur_ns as f64 / 1e6;
                let indent = "  ".repeat(node.depth);
                if trace_level() >= 2 && !node.attrs.is_empty() {
                    let attrs: Vec<String> =
                        node.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    eprintln!("[obs] {indent}{} {ms:.3}ms {}", node.name, attrs.join(" "));
                } else {
                    eprintln!("[obs] {indent}{} {ms:.3}ms", node.name);
                }
            }
        }
        Duration::from_nanos(dur_ns)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Enters a span named `name`; see the [crate docs](crate).
pub fn span(name: &str) -> Span {
    enter(name, false)
}

/// Enters a span that reads the clock even when nothing records it, for
/// callers that use the duration [`Span::finish`] returns.
pub fn timer(name: &str) -> Span {
    enter(name, true)
}

fn enter(name: &str, timed: bool) -> Span {
    let place = flight::enter(name);
    let collect = collecting();
    let start_ns = (timed || collect || matches!(place, Place::Stage(_))).then(now_ns);
    let idx = start_ns.filter(|_| collect).map(|start_ns| {
        let (parent, depth) = STACK.with(|s| {
            let stack = s.borrow();
            (stack.last().copied(), stack.len())
        });
        let idx = {
            let mut arena = ARENA.lock().unwrap();
            arena.push(SpanNode {
                name: name.to_string(),
                parent,
                depth,
                trace_id: trace::current_raw(),
                start_ns,
                dur_ns: None,
                attrs: Vec::new(),
            });
            arena.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(idx));
        if trace_level() >= 2 {
            eprintln!("[obs] {}> {name}", "  ".repeat(depth));
        }
        idx
    });
    Span {
        start_ns,
        idx,
        place,
        _thread: PhantomData,
    }
}

/// Serializes the whole recorded span forest as a JSON array of trees.
pub(crate) fn forest_json() -> Json {
    let arena = ARENA.lock().unwrap();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); arena.len()];
    let mut roots = Vec::new();
    for (i, node) in arena.iter().enumerate() {
        match node.parent {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    fn node_json(arena: &[SpanNode], children: &[Vec<usize>], i: usize) -> Json {
        let node = &arena[i];
        let mut fields = vec![
            ("name".to_string(), Json::Str(node.name.clone())),
            ("start_us".to_string(), Json::UInt(node.start_ns / 1_000)),
        ];
        if node.trace_id != 0 {
            fields.push((
                "trace".to_string(),
                Json::Str(format!("{:016x}", node.trace_id)),
            ));
        }
        fields.push((
            "dur_us".to_string(),
            match node.dur_ns {
                Some(ns) => Json::UInt(ns / 1_000),
                None => Json::Null,
            },
        ));
        if !node.attrs.is_empty() {
            fields.push(("attrs".to_string(), Json::Obj(node.attrs.clone())));
        }
        if !children[i].is_empty() {
            fields.push((
                "children".to_string(),
                Json::Arr(
                    children[i]
                        .iter()
                        .map(|&c| node_json(arena, children, c))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }
    Json::Arr(
        roots
            .iter()
            .map(|&r| node_json(&arena, &children, r))
            .collect(),
    )
}

/// Clears all recorded spans (test support).
pub(crate) fn reset() {
    ARENA.lock().unwrap().clear();
    // per-thread stacks of balanced guards are empty between tests
}
