//! Request-scoped trace contexts.
//!
//! A [`TraceId`] identifies one logical request or job end-to-end: the
//! serving layer derives one per HTTP request (or adopts the id sent by an
//! upstream hop in the `x-qor-trace` header), the session and search
//! layers run under it, and every span ([`crate::span()`]), structured log
//! event ([`crate::log`]) and flight record ([`mod@crate::flight`]) produced
//! while it is active carries it. Ids are **FNV-1a derived**, never
//! random: deriving from the same parts yields the same id in every
//! process, which keeps recorded traces reproducible run over run.
//!
//! Propagation is by thread: [`adopt`] installs an id in a thread-local
//! slot and returns a guard that restores the previous id on drop. Code
//! that fans work out to other threads (e.g. a `par::map` batch) captures
//! [`current_raw`] before the fan-out and adopts it inside the worker
//! closure.
//!
//! Tracing is always on — reading the thread-local costs a few
//! nanoseconds and nothing is allocated, so there is no enable gate.

use std::cell::Cell;
use std::hash::Hasher;

use crate::hash::{Fnv1aHasher, FNV1A_OFFSET};

/// One end-to-end trace identifier. The all-zero id is reserved to mean
/// "no trace" and is never produced by [`derive()`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Canonical wire form: 16 lowercase hex digits (the form accepted in
    /// the `x-qor-trace` HTTP header and printed in logs and dumps).
    pub fn as_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the canonical hex form; rejects the reserved zero id.
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16)
            .ok()
            .filter(|&v| v != 0)
            .map(TraceId)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Derives a deterministic trace id with FNV-1a over `parts` (each part is
/// terminated so `["ab","c"]` and `["a","bc"]` differ).
pub fn derive(parts: &[&[u8]]) -> TraceId {
    let mut hasher = Fnv1aHasher::new();
    for part in parts {
        hasher.write(part);
        hasher.write(&[0xff]);
    }
    let mut h = hasher.finish();
    if h == 0 {
        h = FNV1A_OFFSET; // keep the "no trace" sentinel unreachable
    }
    TraceId(h)
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// The trace id active on this thread, if any.
pub fn current() -> Option<TraceId> {
    match current_raw() {
        0 => None,
        v => Some(TraceId(v)),
    }
}

/// The raw active trace id (0 = none). Cheap enough for hot paths; used
/// to capture the context before fanning work out to worker threads.
pub fn current_raw() -> u64 {
    CURRENT.with(Cell::get)
}

/// Restores the previously active trace id when dropped.
#[must_use = "the trace context is active until the guard drops"]
pub struct TraceGuard {
    prev: u64,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Makes `id` the active trace on this thread until the guard drops.
pub fn adopt(id: TraceId) -> TraceGuard {
    adopt_raw(id.0)
}

/// [`adopt`] for a raw id as captured by [`current_raw`]; adopting `0`
/// clears the context (the guard still restores the previous id).
pub fn adopt_raw(id: u64) -> TraceGuard {
    let prev = CURRENT.with(|c| c.replace(id));
    TraceGuard { prev }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_part_sensitive() {
        let a = derive(&[b"http", b"1"]);
        let b = derive(&[b"http", b"1"]);
        let c = derive(&[b"http", b"2"]);
        let d = derive(&[b"htt", b"p1"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a.0, 0);
    }

    #[test]
    fn hex_round_trips_and_rejects_junk() {
        let id = derive(&[b"job", b"job-7"]);
        assert_eq!(TraceId::parse_hex(&id.as_hex()), Some(id));
        assert_eq!(id.as_hex().len(), 16);
        for bad in ["", "zz", "0", "0000000000000000", "11112222333344445"] {
            assert_eq!(TraceId::parse_hex(bad), None, "{bad:?}");
        }
        // shorter hex strings are accepted (leading zeros implied)
        assert_eq!(TraceId::parse_hex("ff"), Some(TraceId(255)));
    }

    #[test]
    fn adopt_nests_and_restores() {
        assert_eq!(current(), None);
        let outer = derive(&[b"outer"]);
        let inner = derive(&[b"inner"]);
        {
            let _a = adopt(outer);
            assert_eq!(current(), Some(outer));
            {
                let _b = adopt(inner);
                assert_eq!(current(), Some(inner));
            }
            assert_eq!(current(), Some(outer));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn threads_do_not_inherit_but_can_adopt() {
        let id = derive(&[b"fanout"]);
        let _g = adopt(id);
        let raw = current_raw();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert_eq!(current(), None, "fresh threads start without a trace");
                let _w = adopt_raw(raw);
                assert_eq!(current(), Some(id));
            });
        });
        assert_eq!(current(), Some(id));
    }
}
