//! Leveled, structured JSON-lines event log.
//!
//! One event is one JSON object on one line:
//!
//! ```json
//! {"ts_us":184733,"level":"info","event":"http.request",
//!  "trace":"4be1a90cf2307d11","route":"predict","kind":"http",
//!  "label":"POST /v1/predict","outcome":"200","total_us":412,
//!  "unattributed_us":9,"stages":[{"stage":"decode","us":21},...],...}
//! ```
//!
//! (A unit of work's closing event carries its flight record's fields;
//! see [`mod@crate::flight`].)
//!
//! `ts_us` counts from the process observability epoch (same clock as span
//! `start_us`), `trace` is the active [`crate::trace`] context (omitted
//! when none is set), and the remaining fields come from the call site.
//!
//! The sink is configured once by the `QOR_LOG` environment variable:
//!
//! * unset / `off` — logging disabled (one relaxed atomic load per call);
//! * `error` | `warn` | `info` | `debug` — events at or above the level
//!   go to **stderr**;
//! * `<level>:<path>` (e.g. `QOR_LOG=debug:/tmp/qor.jsonl`) — events are
//!   **appended to `<path>`** instead.
//!
//! Emission is lock-light: the line is fully serialized into a local
//! buffer first, then written with a single call (stderr serializes
//! internally; a file sink takes one short mutex for the write only), so
//! concurrent events never interleave mid-line.

use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::Json;
use crate::{span, trace};

/// Event severity, ordered `Error < Warn < Info < Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// A failure the operator should look at.
    Error = 1,
    /// Unexpected but handled.
    Warn = 2,
    /// One line per request/job — the serving default.
    Info = 3,
    /// Per-stage detail (cache hits, search steps).
    Debug = 4,
}

impl Level {
    /// Stable lowercase name used in the `level` field.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// `QOR_LOG` not yet read.
const UNSET: u8 = 0xff;
/// Logging disabled.
const OFF: u8 = 0;

static LEVEL: AtomicU8 = AtomicU8::new(UNSET);
static FILE: OnceLock<Option<Mutex<std::fs::File>>> = OnceLock::new();

/// The configured maximum level (0 when logging is off), reading and
/// caching `QOR_LOG` on first use.
fn max_level() -> u8 {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != UNSET {
        return v;
    }
    let spec = std::env::var("QOR_LOG").unwrap_or_default();
    let spec = spec.trim();
    let (level_part, path) = match spec.split_once(':') {
        Some((l, p)) if !p.is_empty() => (l, Some(p)),
        _ => (spec, None),
    };
    let level = match Level::parse(level_part) {
        Some(l) => l as u8,
        None => OFF, // unset, "off", or unrecognized
    };
    let _ = FILE.get_or_init(|| {
        if level == OFF {
            return None;
        }
        path.and_then(|p| {
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
            {
                Ok(f) => Some(Mutex::new(f)),
                Err(e) => {
                    eprintln!("[obs] QOR_LOG: cannot open {p}: {e}; logging to stderr");
                    None
                }
            }
        })
    });
    LEVEL.store(level, Ordering::Relaxed);
    level
}

/// Whether events at `level` are being emitted — use to skip expensive
/// field construction.
pub fn enabled(level: Level) -> bool {
    level as u8 <= max_level()
}

/// Emits one structured event. `fields` are appended after the standard
/// `ts_us` / `level` / `event` / `trace` fields; non-finite floats
/// serialize as `null` per the JSON writer's contract.
pub fn event(level: Level, name: &str, fields: &[(&str, Json)]) {
    if !enabled(level) {
        return;
    }
    let mut obj: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 4);
    obj.push(("ts_us".to_string(), Json::UInt(span::now_ns() / 1_000)));
    obj.push(("level".to_string(), Json::str(level.name())));
    obj.push(("event".to_string(), Json::str(name)));
    if let Some(trace) = trace::current() {
        obj.push(("trace".to_string(), Json::Str(trace.as_hex())));
    }
    for (k, v) in fields {
        obj.push(((*k).to_string(), v.clone()));
    }
    let mut line = Json::Obj(obj).to_string();
    line.push('\n');
    match FILE.get().and_then(Option::as_ref) {
        Some(file) => {
            let mut file = file.lock().unwrap_or_else(|e| e.into_inner());
            let _ = file.write_all(line.as_bytes());
        }
        None => {
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
    }
}

/// The configured level name for diagnostics endpoints (`"off"` when
/// disabled).
pub fn level_name() -> &'static str {
    match max_level() {
        1 => "error",
        2 => "warn",
        3 => "info",
        4 => "debug",
        _ => "off",
    }
}

/// Emits a structured log event with inline fields:
///
/// ```
/// obs::logev!(obs::log::Level::Info, "dse.submit",
///             "job" => obs::Json::str("job-1"),
///             "budget" => obs::Json::UInt(64));
/// ```
#[macro_export]
macro_rules! logev {
    ($level:expr, $name:expr $(, $key:expr => $value:expr)* $(,)?) => {
        if $crate::log::enabled($level) {
            $crate::log::event($level, $name, &[$( ($key, $value) ),*]);
        }
    };
}
