//! The serving core: a typed route table over a versioned `/v1` HTTP
//! surface, dispatching predictions through the cross-request batcher and
//! the hot-reloadable model registry.
//!
//! # Endpoints
//!
//! | route                | method | body                                           |
//! |----------------------|--------|------------------------------------------------|
//! | `/v1/healthz`        | GET    | — → `{"status":"ok", ...}`                     |
//! | `/v1/metrics`        | GET    | — → Prometheus text exposition                 |
//! | `/v1/predict`        | POST   | one prediction, or `{"requests":[…]}`          |
//! | `/v1/models`         | GET    | — → registered model versions                  |
//! | `/v1/models/<name>`  | GET    | — → one model version                          |
//! | `/v1/models/<name>`  | PUT    | `{"checkpoint": "path.qorckpt"}` → hot-reload  |
//! | `/v1/models/<name>`  | DELETE | unregister (refused for the last model)        |
//! | `/v1/dse`            | POST   | submit a search job → `{"id":"job-1"}`         |
//! | `/v1/dse/<id>`       | GET    | — → job progress + incumbent Pareto front      |
//! | `/v1/dse/<id>`       | DELETE | cancel and forget the job                      |
//! | `/debug/requests`    | GET    | — → flight-recorder dump (unversioned)         |
//! | `/debug/vars`        | GET    | — → build info, config, counters (unversioned) |
//!
//! # Search jobs
//!
//! `POST /v1/dse` runs a budgeted search job on a background thread
//! through the default model's session (see [`search::JobRunner`]). With
//! [`ServerConfig::jobs_dir`] set, every step checkpoints a resumable
//! `.qorjob`; a job whose snapshot cannot be written ends `failed` with
//! the I/O error rather than running on without its recovery point.
//!
//! # Requests and batching
//!
//! A prediction names a bundled kernel (`{"kernel":"mvt"}`) or carries
//! inline source (`{"source":"...","top":"f"}`), plus an optional pragma
//! `"config"` and an optional `"model"` version name (default
//! `"default"`):
//!
//! ```json
//! {"kernel": "mvt", "model": "default",
//!  "config": {"loops":  [{"loop": [0,0], "pipeline": true, "unroll": 4}],
//!             "arrays": [{"array": "a", "dim": 1, "kind": "cyclic", "factor": 2}]}}
//! ```
//!
//! Under the default **batched** dispatch every decoded item — from any
//! connection — flows through the [`crate::batcher`] queue, which
//! coalesces concurrent items into micro-batches (flushing on `max_batch`
//! items or `max_wait` elapsed, whichever first), single-flights duplicate
//! designs, and fans unique work through the deterministic `par` executor.
//! Successful predictions carry the model version and batch that served
//! them:
//!
//! ```json
//! {"qor": {"latency": 412, "lut": 931, "ff": 604, "dsp": 3},
//!  "model": {"name": "default", "generation": 2},
//!  "batch": {"id": 17, "size": 8, "deduped": false},
//!  "cache": {"hits": 41, "misses": 7, ...}}
//! ```
//!
//! **Direct** dispatch ([`DispatchMode::Direct`]) bypasses the queue and
//! serves each request on its own connection thread (the pre-batching
//! behavior, kept as the benchmark baseline); responses then omit
//! `"batch"`.
//!
//! # Errors
//!
//! Every non-2xx response is the [`crate::error`] envelope
//! `{"code","message","trace"}`; in a batch response, failed items carry
//! the same envelope under `"error"` while the surrounding request stays
//! 200.
//!
//! # Tracing
//!
//! Every request runs under a trace context: the inbound `x-qor-trace`
//! header (16 hex digits) is honored when present, otherwise a
//! deterministic id is derived from the server instance and request
//! sequence. The id is echoed in the `x-qor-trace` response header and
//! stamped on all spans/log events/flight records the request produces —
//! including batcher workers, which adopt each item's originating trace
//! across the queue boundary.
//!
//! # Hot reload
//!
//! `PUT /v1/models/<name>` loads a checkpoint and atomically swaps the
//! name to a new generation (see [`crate::registry`]); in-flight requests
//! finish on the generation they resolved, new requests (and new DSE
//! jobs, via [`JobRunner::set_session`]) see the new one. Because batches
//! resolve their model once per flush group, a swap can never split a
//! batch across generations.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use obs::metrics::{HistogramDetail, LogHistogram};
use obs::{trace, Json};
use pragma::{ArrayPartition, LoopId, PartitionKind, PragmaConfig, Unroll};
use qor_core::{CacheStats, KindStats, PredictReport, Session};
use search::{JobProgress, JobRunner, SearchOptions, StrategyKind};

use crate::batcher::{BatchOptions, Batcher, ItemOutcome, PredictItem};
use crate::error::{ApiCode, ApiError};
use crate::http::{self, ParseError, Request};
use crate::json;
use crate::registry::ModelRegistry;

/// Per-process server-instance sequence, mixed into derived trace ids so
/// two servers in one test process never collide.
static INSTANCE_SEQ: AtomicU64 = AtomicU64::new(0);

/// How `/v1/predict` items reach a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Serve each request inline on its connection thread (the
    /// pre-batching behavior; the benchmark baseline).
    Direct,
    /// Coalesce items from all connections through the batching queue.
    Batched(BatchOptions),
}

/// Server construction knobs beyond the listen address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Prediction dispatch (default: batched, tuned by `QOR_BATCH_MAX` /
    /// `QOR_BATCH_WAIT_US`).
    pub dispatch: DispatchMode,
    /// When set, every DSE job step persists a
    /// resumable `.qorjob` snapshot under this directory.
    pub jobs_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            dispatch: DispatchMode::Batched(BatchOptions::from_env()),
            jobs_dir: None,
        }
    }
}

/// Shared state behind the accept loop and all connection threads.
struct ServeState {
    registry: Arc<ModelRegistry>,
    runner: Arc<JobRunner>,
    /// `Some` iff dispatch is [`DispatchMode::Batched`]. Dropped (and the
    /// dispatcher joined) when the last state reference goes away.
    batcher: Option<Batcher>,
    dispatch: DispatchMode,
    shutdown: AtomicBool,
    requests: AtomicU64,
    predictions: AtomicU64,
    /// Instance number of this server within the process.
    instance: u64,
    started: Instant,
    /// Per-`(route, status-class)` request-latency histograms in µs.
    ///
    /// Instance-local on purpose: the `obs` registry is process-global,
    /// so a test process running several servers would cross-contaminate
    /// registry-backed latency metrics. `/metrics` renders these.
    latency: Mutex<BTreeMap<(String, &'static str), LogHistogram>>,
    /// Per-route request counters (same instance-locality argument).
    route_hits: Mutex<BTreeMap<String, u64>>,
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
}

/// A bound (not yet running) server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

/// Handle to a running server: address + clean shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    join: JoinHandle<()>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) and serves
    /// `session` as the `"default"` model with default dispatch
    /// (the single-model convenience constructor).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, session: Session) -> std::io::Result<Server> {
        Server::bind_with(
            addr,
            Arc::new(ModelRegistry::from_session(session)),
            ServerConfig::default(),
        )
    }

    /// Binds to `addr` over an explicit model registry and configuration.
    ///
    /// # Errors
    ///
    /// Bind failures; `InvalidInput` when the registry has no resolvable
    /// default model (the DSE runner needs one).
    pub fn bind_with(
        addr: &str,
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        // a serving process wants live `/metrics` histograms regardless of
        // QOR_TRACE/QOR_REPORT (metrics are bounded; the span arena is not)
        obs::metrics::enable_always();
        let listener = TcpListener::bind(addr)?;
        let default = registry
            .default_entry()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let runner = match &config.jobs_dir {
            Some(dir) => JobRunner::with_jobs_dir(default.session().clone(), dir.clone()),
            None => JobRunner::new(default.session().clone()),
        };
        let batcher = match config.dispatch {
            DispatchMode::Batched(opts) => Some(Batcher::new(Arc::clone(&registry), opts)),
            DispatchMode::Direct => None,
        };
        Ok(Server {
            listener,
            state: Arc::new(ServeState {
                registry,
                runner,
                batcher,
                dispatch: config.dispatch,
                shutdown: AtomicBool::new(false),
                requests: AtomicU64::new(0),
                predictions: AtomicU64::new(0),
                instance: INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed),
                started: Instant::now(),
                latency: Mutex::new(BTreeMap::new()),
                route_hits: Mutex::new(BTreeMap::new()),
                status_2xx: AtomicU64::new(0),
                status_4xx: AtomicU64::new(0),
                status_5xx: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the calling thread until
    /// [`ServerHandle::shutdown`] (or [`Server::spawn`]'s handle) flags it.
    pub fn run(self) {
        let addr = self.listener.local_addr().ok();
        obs::tracef!(1, "qor-serve listening on {addr:?}");
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || handle_connection(stream, &state));
                }
                Err(e) => obs::tracef!(1, "accept failed: {e}"),
            }
        }
    }

    /// Moves the accept loop onto a background thread and returns a
    /// shutdown handle.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let join = std::thread::spawn(move || self.run());
        Ok(ServerHandle { addr, state, join })
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Cumulative statistics of the shared kernel cache.
    pub fn stats(&self) -> CacheStats {
        self.state.registry.cache().stats()
    }

    /// The server's model registry (tests drive hot-reloads through it).
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.state.registry)
    }

    /// Flags shutdown, wakes the accept loop with a self-connection, and
    /// joins the server thread.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // the accept loop only observes the flag on its next connection
        let _ = TcpStream::connect(self.addr);
        let _ = self.join.join();
    }
}

// ------------------------------------------------------------ route table

/// What a matched route does (the typed replacement for stringly path
/// dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Healthz,
    Metrics,
    Predict,
    ModelList,
    ModelGet,
    ModelPut,
    ModelDelete,
    DseSubmit,
    DseGet,
    DseDelete,
    DebugRequests,
    DebugVars,
}

/// One row of the route table.
struct RouteDef {
    method: &'static str,
    /// `/`-separated pattern; `:`-prefixed segments capture one path
    /// segment as a parameter.
    pattern: &'static str,
    endpoint: Endpoint,
    /// Low-cardinality metrics label (`/v1/dse/<id>` collapses to one).
    label: &'static str,
}

const fn v1(
    method: &'static str,
    pattern: &'static str,
    endpoint: Endpoint,
    label: &'static str,
) -> RouteDef {
    RouteDef {
        method,
        pattern,
        endpoint,
        label,
    }
}

/// The route table. Matching walks rows in order; the first
/// method+pattern hit wins.
const ROUTES: &[RouteDef] = &[
    v1("GET", "/v1/healthz", Endpoint::Healthz, "healthz"),
    v1("GET", "/v1/metrics", Endpoint::Metrics, "metrics"),
    v1("POST", "/v1/predict", Endpoint::Predict, "predict"),
    v1("GET", "/v1/models", Endpoint::ModelList, "models"),
    v1("GET", "/v1/models/:name", Endpoint::ModelGet, "model"),
    v1("PUT", "/v1/models/:name", Endpoint::ModelPut, "model"),
    v1("DELETE", "/v1/models/:name", Endpoint::ModelDelete, "model"),
    v1("POST", "/v1/dse", Endpoint::DseSubmit, "dse_submit"),
    v1("GET", "/v1/dse/:id", Endpoint::DseGet, "dse_job"),
    v1("DELETE", "/v1/dse/:id", Endpoint::DseDelete, "dse_job"),
    // the debug surface is operational, not part of the versioned API
    v1(
        "GET",
        "/debug/requests",
        Endpoint::DebugRequests,
        "debug_requests",
    ),
    v1("GET", "/debug/vars", Endpoint::DebugVars, "debug_vars"),
];

/// Route-table lookup result.
enum RouteMatch {
    /// Method+pattern hit; `params` holds captured segments in pattern
    /// order.
    Matched {
        def: &'static RouteDef,
        params: Vec<String>,
    },
    /// Some route matches the path but none with this method.
    MethodNotAllowed,
    NotFound,
}

/// Matches `pattern` against `path`, capturing `:param` segments.
fn match_pattern(pattern: &str, path: &str) -> Option<Vec<String>> {
    let mut params = Vec::new();
    let mut pat = pattern.split('/');
    let mut got = path.split('/');
    loop {
        match (pat.next(), got.next()) {
            (None, None) => return Some(params),
            (Some(p), Some(g)) => {
                if let Some(name) = p.strip_prefix(':') {
                    debug_assert!(!name.is_empty());
                    if g.is_empty() {
                        return None; // `/dse/` is not `/dse/:id`
                    }
                    params.push(g.to_string());
                } else if p != g {
                    return None;
                }
            }
            _ => return None,
        }
    }
}

/// Resolves `(method, path)` against [`ROUTES`].
fn match_route(method: &str, path: &str) -> RouteMatch {
    let mut path_known = false;
    for def in ROUTES {
        if let Some(params) = match_pattern(def.pattern, path) {
            if def.method == method {
                return RouteMatch::Matched { def, params };
            }
            path_known = true;
        }
    }
    if path_known {
        RouteMatch::MethodNotAllowed
    } else {
        RouteMatch::NotFound
    }
}

/// One rendered response (headers beyond the trace echo are added by the
/// connection handler from the matched route).
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok_json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body,
        }
    }

    fn from_error(err: &ApiError) -> Response {
        Response {
            status: err.status(),
            content_type: "application/json",
            body: err.body(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            _ => "Internal Server Error",
        }
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServeState) {
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(ParseError::Closed) => return, // shutdown poke or dropped peer
        Err(e @ (ParseError::Malformed(_) | ParseError::TooLarge(_))) => {
            state.status_4xx.fetch_add(1, Ordering::Relaxed);
            let code = if matches!(e, ParseError::TooLarge(_)) {
                ApiCode::PayloadTooLarge
            } else {
                ApiCode::BadRequest
            };
            let err = ApiError::new(code, e.to_string());
            let resp = Response::from_error(&err);
            let _ = http::write_response(
                &mut stream,
                resp.status,
                resp.reason(),
                resp.content_type,
                resp.body.as_bytes(),
            );
            return;
        }
        Err(ParseError::Io(_)) => return,
    };
    let seq = state.requests.fetch_add(1, Ordering::Relaxed);

    // trace context: honor an inbound x-qor-trace header, else derive a
    // deterministic id from (server instance, request sequence)
    let trace_id = request
        .header("x-qor-trace")
        .and_then(obs::TraceId::parse_hex)
        .unwrap_or_else(|| {
            trace::derive(&[b"http", &state.instance.to_be_bytes(), &seq.to_be_bytes()])
        });
    let _trace_guard = trace::adopt(trace_id);
    let trace_hex = trace_id.as_hex();

    let matched = match_route(&request.method, &request.path);
    let route_label = match &matched {
        RouteMatch::Matched { def, .. } => def.label,
        _ => "other",
    };
    // the request's unit of work: the spans the routes enter directly
    // under it become its flight record's stages
    let unit = obs::flight("http", &format!("{} {}", request.method, request.path));
    let response = match &matched {
        RouteMatch::Matched { def, params } => dispatch(state, def.endpoint, params, &request),
        RouteMatch::MethodNotAllowed => Response::from_error(&ApiError::new(
            ApiCode::MethodNotAllowed,
            format!("{} is not allowed on {}", request.method, request.path),
        )),
        RouteMatch::NotFound => Response::from_error(&ApiError::new(
            ApiCode::NotFound,
            format!("no route matches {}", request.path),
        )),
    };
    unit.outcome(&response.status.to_string());
    unit.bytes(request.body.len() as u64, response.body.len() as u64);
    let dur = unit.finish("http.request", &[("route", Json::str(route_label))]);
    observe_request(state, route_label, response.status, dur.as_micros() as u64);

    let _ = http::write_response_with(
        &mut stream,
        response.status,
        response.reason(),
        response.content_type,
        &[("x-qor-trace", &trace_hex)],
        response.body.as_bytes(),
    );
}

/// Status class token for counters and latency-histogram keys.
fn status_class(status: u16) -> &'static str {
    match status {
        200..=299 => "2xx",
        400..=499 => "4xx",
        _ => "5xx",
    }
}

/// Records one finished request into the instance-local latency/status
/// stores.
fn observe_request(state: &ServeState, route: &'static str, status: u16, dur_us: u64) {
    let class = status_class(status);
    match class {
        "2xx" => state.status_2xx.fetch_add(1, Ordering::Relaxed),
        "4xx" => state.status_4xx.fetch_add(1, Ordering::Relaxed),
        _ => state.status_5xx.fetch_add(1, Ordering::Relaxed),
    };
    state
        .latency
        .lock()
        .unwrap()
        .entry((route.to_string(), class))
        .or_default()
        .record(dur_us as f64);
    *state
        .route_hits
        .lock()
        .unwrap()
        .entry(route.to_string())
        .or_insert(0) += 1;
}

/// Executes a matched endpoint.
fn dispatch(
    state: &ServeState,
    endpoint: Endpoint,
    params: &[String],
    request: &Request,
) -> Response {
    let result = match endpoint {
        Endpoint::Healthz => Ok(Response::ok_json(healthz(state))),
        Endpoint::Metrics => Ok(Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: render_metrics(state),
        }),
        Endpoint::Predict => predict_route(state, &request.body).map(Response::ok_json),
        Endpoint::ModelList => Ok(Response::ok_json(model_list(state))),
        Endpoint::ModelGet => state
            .registry
            .get(&params[0])
            .map(|entry| Response::ok_json(entry.to_json().to_string())),
        Endpoint::ModelPut => model_put(state, &params[0], &request.body).map(Response::ok_json),
        Endpoint::ModelDelete => model_delete(state, &params[0]).map(Response::ok_json),
        Endpoint::DseSubmit => dse_submit(state, &request.body).map(Response::ok_json),
        Endpoint::DseGet => dse_get(state, &params[0]).map(Response::ok_json),
        Endpoint::DseDelete => dse_delete(state, &params[0]).map(Response::ok_json),
        Endpoint::DebugRequests => Ok(Response::ok_json(obs::flight::to_json().to_string())),
        Endpoint::DebugVars => Ok(Response::ok_json(debug_vars(state))),
    };
    result.unwrap_or_else(|e| Response::from_error(&e))
}

/// `GET /debug/vars`: build info, thread/cache/flight configuration and
/// coarse counters, for humans and smoke tests.
fn debug_vars(state: &ServeState) -> String {
    let stats = state.registry.cache().stats();
    let dse = state.runner.stats();
    let dispatch = match state.dispatch {
        DispatchMode::Direct => "direct",
        DispatchMode::Batched(_) => "batched",
    };
    let batcher = match (&state.batcher, state.dispatch) {
        (Some(b), DispatchMode::Batched(opts)) => {
            let s = b.stats();
            Json::obj(vec![
                ("max_batch", Json::UInt(opts.max_batch as u64)),
                ("max_wait_us", Json::UInt(opts.max_wait.as_micros() as u64)),
                ("batches", Json::UInt(s.batches)),
                ("flush_full", Json::UInt(s.flush_full)),
                ("flush_timeout", Json::UInt(s.flush_timeout)),
                ("items", Json::UInt(s.items)),
                ("deduped", Json::UInt(s.deduped)),
                ("max_batch_seen", Json::UInt(s.max_batch_seen)),
            ])
        }
        _ => Json::Null,
    };
    Json::obj(vec![
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("uptime_s", Json::UInt(state.started.elapsed().as_secs())),
        ("instance", Json::UInt(state.instance)),
        ("threads", Json::UInt(par::threads() as u64)),
        ("log_level", Json::str(obs::log::level_name())),
        ("dispatch", Json::str(dispatch)),
        ("batcher", batcher),
        (
            "requests",
            Json::UInt(state.requests.load(Ordering::Relaxed)),
        ),
        (
            "predictions",
            Json::UInt(state.predictions.load(Ordering::Relaxed)),
        ),
        (
            "status",
            Json::obj(vec![
                ("2xx", Json::UInt(state.status_2xx.load(Ordering::Relaxed))),
                ("4xx", Json::UInt(state.status_4xx.load(Ordering::Relaxed))),
                ("5xx", Json::UInt(state.status_5xx.load(Ordering::Relaxed))),
            ]),
        ),
        ("cache", cache_json(&stats)),
        (
            "models",
            Json::Arr(
                state
                    .registry
                    .list()
                    .iter()
                    .map(|e| Json::Str(e.tag()))
                    .collect(),
            ),
        ),
        (
            "dse",
            Json::obj(vec![
                ("submitted", Json::UInt(dse.submitted)),
                ("completed", Json::UInt(dse.completed)),
                ("failed", Json::UInt(dse.failed)),
                ("cancelled", Json::UInt(dse.cancelled)),
                ("evaluations", Json::UInt(dse.evaluations)),
            ]),
        ),
        (
            "flight",
            Json::obj(vec![
                ("capacity", Json::UInt(obs::flight::capacity() as u64)),
                ("recorded", Json::UInt(obs::flight::len() as u64)),
            ]),
        ),
    ])
    .to_string()
}

fn healthz(state: &ServeState) -> String {
    Json::obj(vec![
        ("status", Json::str("ok")),
        (
            "requests",
            Json::UInt(state.requests.load(Ordering::Relaxed)),
        ),
        (
            "predictions",
            Json::UInt(state.predictions.load(Ordering::Relaxed)),
        ),
        ("models", Json::UInt(state.registry.len() as u64)),
        ("cache", cache_json(&state.registry.cache().stats())),
    ])
    .to_string()
}

// ----------------------------------------------------------------- models

fn model_list(state: &ServeState) -> String {
    Json::obj(vec![
        (
            "models",
            Json::Arr(state.registry.list().iter().map(|e| e.to_json()).collect()),
        ),
        ("cache", cache_json(&state.registry.cache().stats())),
    ])
    .to_string()
}

/// `PUT /v1/models/<name>` with `{"checkpoint": "path.qorckpt"}`:
/// hot-reloads the named version from disk.
fn model_put(state: &ServeState, name: &str, body: &[u8]) -> Result<String, ApiError> {
    let doc = parse_body(body)?;
    let path = json::field(&doc, "checkpoint")
        .and_then(json::as_str)
        .ok_or_else(|| ApiError::bad_request("\"checkpoint\" must be a file path"))?;
    let entry = state.registry.load_file(name, path)?;
    sync_runner_session(state);
    Ok(Json::obj(vec![("model", entry.to_json())]).to_string())
}

/// `DELETE /v1/models/<name>`: unregisters a version (refused for the
/// last one).
fn model_delete(state: &ServeState, name: &str) -> Result<String, ApiError> {
    let entry = state.registry.remove(name)?;
    sync_runner_session(state);
    Ok(Json::obj(vec![
        ("removed", Json::Bool(true)),
        ("model", entry.to_json()),
    ])
    .to_string())
}

/// Points future DSE jobs at the current default model (in-flight jobs
/// keep the session they captured — see [`JobRunner::set_session`]).
fn sync_runner_session(state: &ServeState) {
    if let Ok(default) = state.registry.default_entry() {
        state.runner.set_session(default.session().clone());
    }
}

// ------------------------------------------------------------- predictions

fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body).map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    json::parse(text).map_err(|e| ApiError::bad_request(e.to_string()))
}

fn predict_route(state: &ServeState, body: &[u8]) -> Result<String, ApiError> {
    let decode = obs::span("decode");
    let doc = parse_body(body)?;
    // a top-level "model" is the default for every item in the request
    let default_model = match json::field(&doc, "model") {
        Some(v) => Some(
            json::as_str(v)
                .map(str::to_string)
                .ok_or_else(|| ApiError::bad_request("\"model\" must be a string"))?,
        ),
        None => None,
    };
    let (items, single) = if let Some(batch) = json::field(&doc, "requests") {
        let entries = json::as_array(batch)
            .ok_or_else(|| ApiError::bad_request("\"requests\" must be an array"))?;
        let items = entries
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                decode_request(entry, default_model.as_deref())
                    .map_err(|e| ApiError::new(e.code, format!("request {i}: {}", e.message)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        (items, false)
    } else {
        (vec![decode_request(&doc, default_model.as_deref())?], true)
    };
    drop(decode);
    state
        .predictions
        .fetch_add(items.len() as u64, Ordering::Relaxed);

    let outcomes = match (&state.batcher, state.dispatch) {
        (Some(batcher), DispatchMode::Batched(_)) => {
            let _batch = obs::span("batch");
            let req_trace = trace::current_raw();
            let items: Vec<PredictItem> = items
                .into_iter()
                .map(|mut item| {
                    item.trace = req_trace;
                    item
                })
                .collect();
            batcher.submit_wait(items)
        }
        _ => predict_direct(state, items, single),
    };

    if single {
        let outcome = &outcomes[0];
        obs::flight::attr("model", format!("{}@{}", outcome.model, outcome.generation));
        if outcome.batch_id != 0 {
            obs::flight::attr("batch", outcome.batch_id);
        }
    }
    let mut incr = KindStats::default();
    for report in outcomes
        .iter()
        .filter_map(|outcome| outcome.result.as_ref().ok())
    {
        obs::flight::cache(report.cache_hits(), report.cache_misses());
        incr.absorb(&report.incr);
    }
    incr.label_flight();
    if single {
        let outcome = &outcomes[0];
        // a failed single predict is the request's error
        let report = outcome.result.as_ref().map_err(ApiError::clone)?;
        let mut fields = item_fields(outcome, report);
        fields.push(("cache", cache_json(&state.registry.cache().stats())));
        Ok(Json::obj(fields).to_string())
    } else {
        let results: Vec<Json> = outcomes
            .iter()
            .map(|outcome| match &outcome.result {
                Ok(report) => Json::obj(item_fields(outcome, report)),
                Err(e) => Json::obj(vec![("error", e.envelope())]),
            })
            .collect();
        Ok(Json::obj(vec![
            ("results", Json::Arr(results)),
            ("cache", cache_json(&state.registry.cache().stats())),
        ])
        .to_string())
    }
}

/// Direct dispatch: resolve each item's model and serve inline on this
/// connection thread, fanning a multi-item request through `par::map`
/// (the pre-batching behavior).
fn predict_direct(state: &ServeState, items: Vec<PredictItem>, single: bool) -> Vec<ItemOutcome> {
    let run_one = |item: &PredictItem| -> ItemOutcome {
        let entry = match &item.model {
            Some(name) => state.registry.get(name),
            None => state.registry.default_entry(),
        };
        let (result, model, generation) = match entry {
            Ok(entry) => {
                entry.count_prediction();
                (
                    item.predict(entry.session()),
                    entry.name.clone(),
                    entry.generation,
                )
            }
            Err(e) => (Err(e), item.model.clone().unwrap_or_default(), 0),
        };
        ItemOutcome {
            result,
            model,
            generation,
            batch_id: 0,
            batch_size: 0,
            deduped: false,
        }
    };
    if single {
        vec![run_one(&items[0])]
    } else {
        // fan the request's own batch through the deterministic executor:
        // results come back in request order for any worker count; workers
        // adopt the request's trace so cache events stay attributable
        let _predict = obs::span("predict");
        let req_trace = trace::current_raw();
        par::map("serve/predict", &items, |_, item| {
            let _g = trace::adopt_raw(req_trace);
            run_one(item)
        })
    }
}

/// The response fields of one served item; `"batch"` only when a batch
/// served it (batch id 0 means direct dispatch).
fn item_fields(outcome: &ItemOutcome, report: &PredictReport) -> Vec<(&'static str, Json)> {
    let model = Json::obj(vec![
        ("name", Json::str(&outcome.model)),
        ("generation", Json::UInt(outcome.generation)),
    ]);
    let mut fields = vec![("qor", qor_json(&report.qor)), ("model", model)];
    if outcome.batch_id != 0 {
        let batch = Json::obj(vec![
            ("id", Json::UInt(outcome.batch_id)),
            ("size", Json::UInt(outcome.batch_size as u64)),
            ("deduped", Json::Bool(outcome.deduped)),
        ]);
        fields.push(("batch", batch));
    }
    fields.push(("incr", incr_json(&report.incr)));
    fields
}

/// Decodes one prediction item; `default_model` is the request-level
/// `"model"` fallback.
fn decode_request(doc: &Json, default_model: Option<&str>) -> Result<PredictItem, ApiError> {
    let bad = |m: &str| ApiError::bad_request(m);
    let model = match json::field(doc, "model") {
        Some(v) => Some(
            json::as_str(v)
                .map(str::to_string)
                .ok_or_else(|| bad("\"model\" must be a string"))?,
        ),
        None => default_model.map(str::to_string),
    };
    let kernel = json::field(doc, "kernel")
        .map(|v| {
            json::as_str(v)
                .map(str::to_string)
                .ok_or_else(|| bad("\"kernel\" must be a string"))
        })
        .transpose()?;
    let source = match json::field(doc, "source") {
        Some(v) => {
            let source = json::as_str(v).ok_or_else(|| bad("\"source\" must be a string"))?;
            let top = json::field(doc, "top")
                .and_then(json::as_str)
                .ok_or_else(|| bad("inline \"source\" requires a \"top\" function name"))?;
            Some((top.to_string(), source.to_string()))
        }
        None => None,
    };
    if kernel.is_some() == source.is_some() {
        return Err(bad("provide exactly one of \"kernel\" or \"source\""));
    }
    let cfg = match json::field(doc, "config") {
        Some(c) => decode_config(c).map_err(ApiError::bad_request)?,
        None => PragmaConfig::default(),
    };
    Ok(PredictItem {
        model,
        kernel,
        source,
        cfg,
        trace: 0,
    })
}

fn decode_config(doc: &Json) -> Result<PragmaConfig, String> {
    let mut cfg = PragmaConfig::default();
    if let Some(loops) = json::field(doc, "loops") {
        for (i, entry) in json::as_array(loops)
            .ok_or("\"loops\" must be an array")?
            .iter()
            .enumerate()
        {
            let at = |msg: &str| format!("loops[{i}]: {msg}");
            let path = json::field(entry, "loop").ok_or_else(|| at("missing \"loop\" path"))?;
            let segs: Vec<u16> = json::as_array(path)
                .ok_or_else(|| at("\"loop\" must be an array of indices"))?
                .iter()
                .map(|s| {
                    json::as_u64(s)
                        .and_then(|v| u16::try_from(v).ok())
                        .ok_or_else(|| at("loop index out of range"))
                })
                .collect::<Result<_, _>>()?;
            let id = LoopId::from_path(&segs);
            if let Some(v) = json::field(entry, "pipeline") {
                cfg.set_pipeline(
                    id.clone(),
                    json::as_bool(v).ok_or_else(|| at("\"pipeline\" must be a boolean"))?,
                );
            }
            if let Some(v) = json::field(entry, "flatten") {
                cfg.set_flatten(
                    id.clone(),
                    json::as_bool(v).ok_or_else(|| at("\"flatten\" must be a boolean"))?,
                );
            }
            if let Some(v) = json::field(entry, "unroll") {
                let unroll = match (json::as_str(v), json::as_u64(v)) {
                    (Some("full"), _) => Unroll::Full,
                    (_, Some(0 | 1)) => Unroll::Off,
                    (_, Some(f)) if f <= u64::from(u32::MAX) => Unroll::Factor(f as u32),
                    _ => return Err(at("\"unroll\" must be a factor or \"full\"")),
                };
                cfg.set_unroll(id.clone(), unroll);
            }
        }
    }
    if let Some(arrays) = json::field(doc, "arrays") {
        for (i, entry) in json::as_array(arrays)
            .ok_or("\"arrays\" must be an array")?
            .iter()
            .enumerate()
        {
            let at = |msg: &str| format!("arrays[{i}]: {msg}");
            let array = json::field(entry, "array")
                .and_then(json::as_str)
                .ok_or_else(|| at("missing \"array\" name"))?;
            let dim = json::field(entry, "dim")
                .and_then(json::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .filter(|&d| d >= 1)
                .ok_or_else(|| at("\"dim\" must be a 1-based integer"))?;
            let kind = match json::field(entry, "kind").and_then(json::as_str) {
                Some("cyclic") | None => PartitionKind::Cyclic,
                Some("block") => PartitionKind::Block,
                Some("complete") => PartitionKind::Complete,
                Some(other) => return Err(at(&format!("unknown partition kind {other:?}"))),
            };
            let factor = json::field(entry, "factor")
                .map(|v| {
                    json::as_u64(v)
                        .and_then(|f| u32::try_from(f).ok())
                        .ok_or_else(|| at("\"factor\" must be an integer"))
                })
                .transpose()?
                .unwrap_or(1);
            cfg.set_partition(array, dim, ArrayPartition { kind, factor });
        }
    }
    Ok(cfg)
}

fn qor_json(qor: &hlsim::Qor) -> Json {
    Json::obj(vec![
        ("latency", Json::UInt(qor.latency)),
        ("lut", Json::UInt(qor.lut)),
        ("ff", Json::UInt(qor.ff)),
        ("dsp", Json::UInt(qor.dsp)),
    ])
}

fn cache_json(stats: &CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::UInt(stats.hits)),
        ("misses", Json::UInt(stats.misses)),
        ("evictions", Json::UInt(stats.evictions)),
        ("kernel_hits", Json::UInt(stats.kernel_hits)),
        ("kernel_misses", Json::UInt(stats.kernel_misses)),
        ("incr_hits", Json::UInt(stats.incr_hits)),
        ("incr_misses", Json::UInt(stats.incr_misses)),
        ("incr_recomputes", Json::UInt(stats.incr_recomputes)),
        ("inner_hits", Json::UInt(stats.inner_hits)),
        ("inner_misses", Json::UInt(stats.inner_misses)),
        ("len", Json::UInt(stats.len as u64)),
        ("capacity", Json::UInt(stats.capacity as u64)),
    ])
}

/// Per-prediction incremental-query attribution: a whole-design repeat
/// shows hits only.
fn incr_json(incr: &incr::KindStats) -> Json {
    Json::obj(vec![
        ("hits", Json::UInt(incr.hits)),
        ("misses", Json::UInt(incr.misses)),
        ("recomputes", Json::UInt(incr.recomputes)),
    ])
}

// ---------------------------------------------------------------- dse jobs

/// Decodes a `POST /v1/dse` body and submits the job, returning
/// `{"id":"job-N"}`. Validation runs synchronously: bad kernels,
/// strategies, or spaces are a 400 and no job is created.
fn dse_submit(state: &ServeState, body: &[u8]) -> Result<String, ApiError> {
    let bad = |m: &str| ApiError::bad_request(m);
    let doc = parse_body(body)?;

    let kernel = json::field(&doc, "kernel")
        .and_then(json::as_str)
        .ok_or_else(|| bad("\"kernel\" must name a bundled kernel"))?;
    let strategy = match json::field(&doc, "strategy") {
        Some(v) => {
            let name = json::as_str(v).ok_or_else(|| bad("\"strategy\" must be a string"))?;
            StrategyKind::parse(name).ok_or_else(|| {
                bad(&format!(
                    "unknown strategy {name:?} (random|anneal|genetic)"
                ))
            })?
        }
        None => StrategyKind::Anneal,
    };
    let uint = |key: &str, default: u64| -> Result<u64, ApiError> {
        match json::field(&doc, key) {
            Some(v) => json::as_u64(v)
                .ok_or_else(|| bad(&format!("\"{key}\" must be a non-negative integer"))),
            None => Ok(default),
        }
    };
    let budget = uint("budget", 64)?;
    let seed = uint("seed", 0)?;
    let batch = uint("batch", 8)?;
    let batch = usize::try_from(batch)
        .ok()
        .filter(|&b| b >= 1)
        .ok_or_else(|| bad("\"batch\" must be at least 1"))?;

    let opts = SearchOptions::new(kernel, strategy, budget)
        .with_seed(seed)
        .with_batch(batch);
    let id = state.runner.submit(opts).map_err(ApiError::from)?;
    Ok(Json::obj(vec![("id", Json::str(id))]).to_string())
}

fn dse_get(state: &ServeState, id: &str) -> Result<String, ApiError> {
    state
        .runner
        .get(id)
        .map(|progress| progress_json(id, &progress).to_string())
        .ok_or_else(|| ApiError::new(ApiCode::UnknownJob, format!("no job {id:?}")))
}

fn dse_delete(state: &ServeState, id: &str) -> Result<String, ApiError> {
    if state.runner.delete(id) {
        Ok(Json::obj(vec![("deleted", Json::Bool(true))]).to_string())
    } else {
        Err(ApiError::new(ApiCode::UnknownJob, format!("no job {id:?}")))
    }
}

fn progress_json(id: &str, progress: &JobProgress) -> Json {
    let front: Vec<Json> = progress
        .front
        .iter()
        .map(|&(fingerprint, latency, area)| {
            Json::obj(vec![
                ("fingerprint", Json::UInt(fingerprint)),
                ("latency", Json::Float(latency)),
                ("area", Json::Float(area)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("id", Json::str(id)),
        ("trace", Json::Str(format!("{:016x}", progress.trace))),
        ("status", Json::str(progress.status.name())),
        ("kernel", Json::str(&progress.kernel)),
        ("strategy", Json::str(&progress.strategy)),
        ("budget", Json::UInt(progress.budget)),
        ("spent", Json::UInt(progress.spent)),
        ("iterations", Json::UInt(progress.iterations)),
        ("front", Json::Arr(front)),
    ];
    if let Some(error) = &progress.error {
        fields.push(("error", Json::str(error)));
    }
    Json::obj(fields)
}

// ----------------------------------------------------------------- metrics

/// Renders the `/metrics` body: server/session gauges first (always live,
/// independent of whether `obs` collection is enabled), then whatever the
/// `obs` registry holds, names sanitized to the Prometheus charset and
/// prefixed `qor_`.
fn render_metrics(state: &ServeState) -> String {
    let mut out = String::new();
    let stats = state.registry.cache().stats();
    let dse = state.runner.stats();
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let c = |name, value: u64| (name, "counter", value.to_string());
    let g = |name, value: f64| (name, "gauge", format_float(value));
    let mut series = vec![
        c("qor_http_requests_total", load(&state.requests)),
        c("qor_predictions_total", load(&state.predictions)),
        c("qor_session_cache_hits_total", stats.hits),
        c("qor_session_cache_misses_total", stats.misses),
        c("qor_session_cache_evictions_total", stats.evictions),
        c("qor_session_kernel_hits_total", stats.kernel_hits),
        c("qor_session_kernel_misses_total", stats.kernel_misses),
        c("qor_session_inner_hits_total", stats.inner_hits),
        c("qor_session_inner_misses_total", stats.inner_misses),
        g("qor_session_cache_size", stats.len as f64),
        g("qor_session_cache_capacity", stats.capacity as f64),
        c("qor_dse_jobs_submitted_total", dse.submitted),
        c("qor_dse_jobs_completed_total", dse.completed),
        c("qor_dse_jobs_failed_total", dse.failed),
        c("qor_dse_jobs_cancelled_total", dse.cancelled),
        c("qor_dse_evaluations_total", dse.evaluations),
        g("qor_dse_evals_per_second", dse.evals_per_sec),
        c("qor_http_responses_2xx_total", load(&state.status_2xx)),
        c("qor_http_responses_4xx_total", load(&state.status_4xx)),
        c("qor_http_responses_5xx_total", load(&state.status_5xx)),
    ];
    // batching-queue counters (only meaningful under batched dispatch)
    if let Some(batcher) = &state.batcher {
        let b = batcher.stats();
        series.extend([
            c("qor_batch_flushes_total", b.batches),
            c("qor_batch_flush_full_total", b.flush_full),
            c("qor_batch_flush_timeout_total", b.flush_timeout),
            c("qor_batch_items_total", b.items),
            c("qor_batch_deduped_total", b.deduped),
            g("qor_batch_max_size", b.max_batch_seen as f64),
        ]);
    }
    for (name, kind, value) in series {
        put_one(&mut out, name, kind, &value);
    }

    // incremental-query counters, one labeled series per query kind (the
    // unlabeled totals live in the cache stats above as incr_*)
    {
        let kinds = state.registry.cache().incr_kind_stats();
        if !kinds.is_empty() {
            for (family, pick) in [
                (
                    "qor_incr_query_hits_total",
                    (|s: &incr::KindStats| s.hits) as fn(&incr::KindStats) -> u64,
                ),
                ("qor_incr_query_misses_total", |s: &incr::KindStats| {
                    s.misses
                }),
                ("qor_incr_query_recomputes_total", |s: &incr::KindStats| {
                    s.recomputes
                }),
            ] {
                out.push_str(&format!("# TYPE {family} counter\n"));
                for (kind, stats) in &kinds {
                    out.push_str(&format!("{family}{{kind=\"{kind}\"}} {}\n", pick(stats)));
                }
            }
        }
    }

    // per-model-version series, labeled {model, generation}
    {
        let entries = state.registry.list();
        out.push_str("# TYPE qor_model_generation gauge\n");
        for entry in &entries {
            out.push_str(&format!(
                "qor_model_generation{{model=\"{}\"}} {}\n",
                entry.name, entry.generation
            ));
        }
        out.push_str("# TYPE qor_model_predictions_total counter\n");
        for entry in &entries {
            out.push_str(&format!(
                "qor_model_predictions_total{{model=\"{}\",generation=\"{}\"}} {}\n",
                entry.name,
                entry.generation,
                entry.predictions()
            ));
        }
    }

    {
        let route_hits = state.route_hits.lock().unwrap();
        if !route_hits.is_empty() {
            out.push_str("# TYPE qor_http_route_requests_total counter\n");
            for (route, hits) in route_hits.iter() {
                out.push_str(&format!(
                    "qor_http_route_requests_total{{route=\"{route}\"}} {hits}\n"
                ));
            }
        }
    }
    {
        // per-(route, status-class) request latency: one Prometheus
        // histogram family with labels, plus exact-quantile gauges
        let latency = state.latency.lock().unwrap();
        if !latency.is_empty() {
            out.push_str("# TYPE qor_http_request_duration_us histogram\n");
            for ((route, class), hist) in latency.iter() {
                let labels = format!("route=\"{route}\",status=\"{class}\"");
                render_histogram(
                    &mut out,
                    "qor_http_request_duration_us",
                    &labels,
                    &hist.detail(),
                );
            }
            out.push_str("# TYPE qor_http_request_duration_us_quantile gauge\n");
            for ((route, class), hist) in latency.iter() {
                let detail = hist.detail();
                for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                    out.push_str(&format!(
                        "qor_http_request_duration_us_quantile{{route=\"{route}\",status=\"{class}\",q=\"{tag}\"}} {}\n",
                        format_float(detail.quantile(q))
                    ));
                }
            }
        }
    }

    for (name, snap) in obs::metrics::snapshot() {
        // the session/* and incr/* counters above are authoritative; their
        // obs mirrors only move while collection is on and would shadow
        // them
        if name.starts_with("session/") || name.starts_with("incr/") {
            continue;
        }
        let clean = sanitize_metric_name(&name);
        match snap {
            obs::metrics::Snapshot::Counter(v) => {
                put_one(
                    &mut out,
                    &format!("qor_{clean}_total"),
                    "counter",
                    &v.to_string(),
                );
            }
            obs::metrics::Snapshot::Gauge(v) | obs::metrics::Snapshot::SeriesLast(_, v) => {
                put_one(&mut out, &format!("qor_{clean}"), "gauge", &format_float(v));
            }
            obs::metrics::Snapshot::Histogram { .. } => {
                // a histogram must never be misreported as a gauge or a
                // bare counter pair: emit full cumulative-bucket exposition
                if let Some(detail) = obs::metrics::histogram_detail(&name) {
                    out.push_str(&format!("# TYPE qor_{clean} histogram\n"));
                    render_histogram(&mut out, &format!("qor_{clean}"), "", &detail);
                }
            }
        }
    }
    out
}

/// Appends one `# TYPE` + value line.
fn put_one(out: &mut String, name: &str, kind: &str, value: &str) {
    out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
}

/// Appends the `_bucket{le=...}` / `_sum` / `_count` exposition of one
/// histogram (cumulative buckets, closed by `le="+Inf"`). `labels` is an
/// optional pre-rendered `key="value"` list joined into each bucket line.
fn render_histogram(out: &mut String, name: &str, labels: &str, detail: &HistogramDetail) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (le, cumulative) in &detail.buckets {
        let le = if le.is_finite() {
            format_float(*le)
        } else {
            "+Inf".to_string()
        };
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!(
        "{name}_sum{braces} {}\n",
        format_float(detail.sum)
    ));
    out.push_str(&format!("{name}_count{braces} {}\n", detail.count));
}

fn format_float(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "NaN".to_string()
    }
}

/// Maps an obs metric name (`dse/mvt/adrs_percent`, `cdfg.nodes_built`)
/// onto the Prometheus charset `[a-zA-Z0-9_]`.
fn sanitize_metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_decoding_covers_loops_and_arrays() {
        let doc = json::parse(
            r#"{"loops":[{"loop":[0,1],"pipeline":true,"unroll":4},
                        {"loop":[0],"unroll":"full","flatten":true}],
                "arrays":[{"array":"a","dim":1,"kind":"cyclic","factor":2},
                          {"array":"b","dim":2,"kind":"complete"}]}"#,
        )
        .unwrap();
        let cfg = decode_config(&doc).unwrap();
        let p01 = cfg.loop_pragma(&LoopId::from_path(&[0, 1]));
        assert!(p01.pipeline);
        assert_eq!(p01.unroll, Unroll::Factor(4));
        let p0 = cfg.loop_pragma(&LoopId::from_path(&[0]));
        assert!(p0.flatten);
        assert_eq!(p0.unroll, Unroll::Full);
        assert_eq!(
            cfg.partition("a", 1),
            ArrayPartition {
                kind: PartitionKind::Cyclic,
                factor: 2
            }
        );
        assert_eq!(cfg.partition("b", 2).kind, PartitionKind::Complete);
    }

    #[test]
    fn config_decoding_rejects_bad_shapes() {
        for (doc, needle) in [
            (r#"{"loops":[{"pipeline":true}]}"#, "loop"),
            (r#"{"loops":[{"loop":[0],"unroll":"half"}]}"#, "unroll"),
            (r#"{"loops":[{"loop":[99999999]}]}"#, "index"),
            (r#"{"arrays":[{"dim":1}]}"#, "array"),
            (r#"{"arrays":[{"array":"a","dim":0}]}"#, "dim"),
            (
                r#"{"arrays":[{"array":"a","dim":1,"kind":"diagonal"}]}"#,
                "kind",
            ),
        ] {
            let parsed = json::parse(doc).unwrap();
            let err = decode_config(&parsed).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn request_decoding_requires_exactly_one_input_form() {
        let both = json::parse(r#"{"kernel":"mvt","source":"void f(){}","top":"f"}"#).unwrap();
        assert!(decode_request(&both, None).is_err());
        let neither = json::parse(r#"{"config":{}}"#).unwrap();
        assert!(decode_request(&neither, None).is_err());
        let source_without_top = json::parse(r#"{"source":"void f(){}"}"#).unwrap();
        assert!(decode_request(&source_without_top, None).is_err());
        let ok = json::parse(r#"{"kernel":"mvt"}"#).unwrap();
        assert!(decode_request(&ok, None).is_ok());
    }

    #[test]
    fn request_decoding_resolves_model_precedence() {
        let inherited = json::parse(r#"{"kernel":"mvt"}"#).unwrap();
        let item = decode_request(&inherited, Some("batchwide")).unwrap();
        assert_eq!(item.model.as_deref(), Some("batchwide"));
        let own = json::parse(r#"{"kernel":"mvt","model":"mine"}"#).unwrap();
        let item = decode_request(&own, Some("batchwide")).unwrap();
        assert_eq!(item.model.as_deref(), Some("mine"));
        let none = decode_request(&inherited, None).unwrap();
        assert_eq!(none.model, None);
    }

    #[test]
    fn metric_names_sanitize_to_prometheus_charset() {
        assert_eq!(
            sanitize_metric_name("dse/mvt/adrs_percent"),
            "dse_mvt_adrs_percent"
        );
        assert_eq!(sanitize_metric_name("cdfg.nodes_built"), "cdfg_nodes_built");
        assert_eq!(sanitize_metric_name("2fast"), "_2fast");
    }

    #[test]
    fn route_table_matches_v1_legacy_and_params() {
        // v1 exact
        match match_route("GET", "/v1/healthz") {
            RouteMatch::Matched { def, params } => {
                assert_eq!(def.endpoint, Endpoint::Healthz);
                assert!(params.is_empty());
            }
            _ => panic!("GET /v1/healthz must match"),
        }
        // parameter capture
        match match_route("PUT", "/v1/models/paper") {
            RouteMatch::Matched { def, params } => {
                assert_eq!(def.endpoint, Endpoint::ModelPut);
                assert_eq!(params, vec!["paper".to_string()]);
            }
            _ => panic!("PUT /v1/models/:name must match"),
        }
        // wrong method on a known path
        assert!(matches!(
            match_route("DELETE", "/v1/predict"),
            RouteMatch::MethodNotAllowed
        ));
        // unknown paths, unversioned paths and empty params
        assert!(matches!(
            match_route("GET", "/v2/healthz"),
            RouteMatch::NotFound
        ));
        assert!(matches!(
            match_route("POST", "/predict"),
            RouteMatch::NotFound
        ));
        assert!(matches!(
            match_route("GET", "/dse/job-1"),
            RouteMatch::NotFound
        ));
        assert!(matches!(
            match_route("GET", "/v1/models/"),
            RouteMatch::NotFound
        ));
        assert!(matches!(
            match_route("GET", "/v1/dse/job-1/extra"),
            RouteMatch::NotFound
        ));
    }
}
