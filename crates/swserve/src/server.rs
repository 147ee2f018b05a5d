//! The HTTP server: routing, and the serving policies that tie the crate
//! together, run on the shared [`crate::http::serve`] loop.
//!
//! * `POST /v1/gate/eval` — behavioral gate/circuit evaluation, answered
//!   inline through the single-flight [`ResultCache`]: concurrent
//!   identical requests cost one evaluation, repeats are cache hits, and
//!   the `X-Cache` response header says which (`hit`/`miss`/`coalesced`)
//!   without perturbing the body (bodies stay byte-identical to the CLI
//!   `repro eval` output).
//! * `POST /v1/netlist/eval` — the circuit compiler: netlist text/JSON,
//!   truth tables, or demo names in; legalized, sized, CMOS-scored
//!   circuits out. Same cache, same single-flight policy, bodies
//!   byte-identical to `repro compile`.
//! * `POST /v1/jobs`, `GET /v1/jobs/:id` — micromagnetic evaluations
//!   dispatched onto the resident pool; see [`crate::jobs`].
//! * `GET /healthz`, `GET /metrics` — liveness and live counters.
//! * `POST /v1/admin/shutdown` — graceful drain: stop accepting work,
//!   finish in-flight requests and jobs, flush the manifest. (A pure-std
//!   binary cannot trap SIGTERM, so drain is an endpoint.)
//!
//! Backpressure: evaluation work (cache-miss leaders and job
//! submissions) passes admission control bounded by `queue_depth`;
//! beyond it requests are shed with `429` + `Retry-After` instead of
//! queueing unboundedly. Cache hits and coalesced followers bypass
//! admission — they cost no evaluation.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swjson::Json;
use swrun::ManifestWriter;
use swstore::{Store, StoreConfig};

use crate::cache::{content_key, Begin, FlightError, ResultCache};
use crate::eval;
use crate::http::{self, Handler, Request, Response};
use crate::jobs::{JobStore, SubmitError};
use crate::metrics::{EndpointMetrics, ServerMetrics};
use crate::netlist;

/// How a [`Server`] is configured; see `repro serve --help` for the
/// CLI surface.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads for micromagnetic jobs.
    pub workers: usize,
    /// Admission bound: concurrent evaluations (gate-eval leaders, and
    /// unfinished jobs) beyond this are shed with 429.
    pub queue_depth: usize,
    /// Result-cache capacity (distinct canonical requests).
    pub cache_capacity: usize,
    /// Manifest path for job results (`None` disables the manifest).
    pub manifest: Option<PathBuf>,
    /// Disk-store directory for the second cache level (`None` keeps the
    /// cache RAM-only, the pre-store behavior).
    pub store: Option<PathBuf>,
    /// Disk-store capacity in bytes (LRU compaction bound).
    pub store_capacity_bytes: u64,
    /// A JSON-lines manifest (or raw request log) replayed into the
    /// disk store at boot; requires `store`.
    pub prewarm: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            cache_capacity: 1024,
            manifest: None,
            store: None,
            store_capacity_bytes: 64 << 20,
            prewarm: None,
        }
    }
}

struct Shared {
    metrics: ServerMetrics,
    cache: ResultCache,
    /// The disk level of the cache hierarchy (None = RAM-only).
    store: Option<Arc<Store>>,
    jobs: JobStore,
    manifest: Option<Arc<ManifestWriter>>,
    queue_depth: usize,
    /// Gate-eval leader evaluations currently running.
    admitted: AtomicUsize,
    shutdown: AtomicBool,
}

/// A cheap handle onto a running server: its address, live metrics, and
/// the shutdown trigger. This is how in-process tests observe the
/// server without going through the socket.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's live metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Begins a graceful drain, as `POST /v1/admin/shutdown` would.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once a drain has begun.
    pub fn draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// The gate-evaluation service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl Server {
    /// Binds the listener and starts the job subsystem. The server does
    /// not serve until [`run`](Server::run).
    ///
    /// # Errors
    ///
    /// Socket bind failures and manifest-open failures.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let manifest = match &config.manifest {
            None => None,
            Some(path) => Some(Arc::new(ManifestWriter::open(path, false).map_err(
                |e| std::io::Error::other(format!("manifest `{}`: {e}", path.display())),
            )?)),
        };
        let store = match &config.store {
            None => None,
            Some(dir) => {
                let store =
                    Store::open(StoreConfig::new(dir).capacity_bytes(config.store_capacity_bytes))
                        .map_err(|e| {
                            std::io::Error::other(format!("store `{}`: {e}", dir.display()))
                        })?;
                let store = Arc::new(store);
                if let Some(manifest) = &config.prewarm {
                    let warmed = crate::store::prewarm(&store, manifest).map_err(|e| {
                        std::io::Error::other(format!("pre-warm `{}`: {e}", manifest.display()))
                    })?;
                    if warmed > 0 {
                        eprintln!(
                            "swserve: pre-warmed {warmed} result(s) from {}",
                            manifest.display()
                        );
                    }
                }
                Some(store)
            }
        };
        let shared = Arc::new(Shared {
            metrics: ServerMetrics::default(),
            cache: ResultCache::new(config.cache_capacity),
            jobs: JobStore::start(
                config.workers,
                config.queue_depth,
                manifest.clone(),
                store.clone(),
            ),
            store,
            manifest,
            queue_depth: config.queue_depth,
            admitted: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        Ok(Server {
            listener,
            shared,
            addr,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for observing and shutting down the server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until a drain is triggered (`POST /v1/admin/shutdown` or
    /// [`ServerHandle::shutdown`]), then drains gracefully: stops
    /// accepting connections, lets open connections and accepted jobs
    /// finish, and flushes a metrics summary to the manifest.
    ///
    /// # Errors
    ///
    /// Only listener-level failures; per-connection errors are contained.
    pub fn run(self) -> std::io::Result<()> {
        http::serve(&self.listener, &self.shared.shutdown, &*self.shared)?;
        self.shared.jobs.drain();
        sync_job_counters(&self.shared);
        if let Some(writer) = &self.shared.manifest {
            if let Err(e) = writer.summary(&self.shared.metrics.render()) {
                eprintln!("swserve: manifest summary failed: {e}");
            }
        }
        Ok(())
    }
}

/// Derives the `Retry-After` seconds for a 429: the time the current
/// backlog needs to drain at the observed mean per-item latency,
/// rounded up. Before any latency has been observed the estimate
/// defaults to 1 s, and the result is clamped to 1..=60 so a cold or
/// pathological estimate never turns clients away for minutes.
fn retry_after_secs(backlog: usize, mean: Option<Duration>) -> u64 {
    match mean {
        Some(mean) if mean > Duration::ZERO => {
            ((backlog as f64 * mean.as_secs_f64()).ceil() as u64).clamp(1, 60)
        }
        _ => 1,
    }
}

impl Shared {
    /// Retry hint for shed evaluations: the admitted-leader backlog
    /// drained at this endpoint's observed mean latency.
    fn eval_retry_after(&self, endpoint: &EndpointMetrics) -> u64 {
        let backlog = self.admitted.load(Ordering::SeqCst).max(self.queue_depth);
        retry_after_secs(backlog, endpoint.mean_latency())
    }

    /// Retry hint for shed job submissions: the unfinished-job backlog
    /// drained at the observed mean job wall time.
    fn jobs_retry_after(&self) -> u64 {
        retry_after_secs(self.jobs.in_flight(), self.jobs.mean_wall())
    }
}

/// Copies the job store's lifetime counts into the metrics atomics so
/// `/metrics` renders them without the store needing a metrics handle.
fn sync_job_counters(shared: &Shared) {
    let (accepted, done, failed) = shared.jobs.stats();
    shared
        .metrics
        .jobs_accepted
        .store(accepted, Ordering::Relaxed);
    shared.metrics.jobs_done.store(done, Ordering::Relaxed);
    shared.metrics.jobs_failed.store(failed, Ordering::Relaxed);
    if let Some(store) = &shared.store {
        shared.metrics.sync_store(&store.counters());
    }
}

/// A 429 telling the client when retrying should succeed.
fn shed(retry_secs: u64) -> Response {
    Response::error(429, "server overloaded; retry shortly")
        .with_header("retry-after", &retry_secs.to_string())
}

/// A 200 served through the cache; `x-cache` names the level.
fn cached(body: &str, x_cache: &str) -> Response {
    Response::json(200, body).with_header("x-cache", x_cache)
}

impl Handler for Shared {
    fn handle(&self, request: &Request) -> Response {
        let started = Instant::now();
        let (response, endpoint) = route(request, self);
        endpoint.observe(started.elapsed(), response.status >= 400);
        response
    }

    fn connected(&self) {
        self.metrics.connections.fetch_add(1, Ordering::Relaxed);
    }
}

/// Answers one request; also names the endpoint whose metrics it counts
/// toward.
fn route<'a>(request: &Request, shared: &'a Shared) -> (Response, &'a EndpointMetrics) {
    let m = &shared.metrics;
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (healthz(shared), &m.healthz),
        ("POST", "/v1/gate/eval") => (
            cached_eval(
                request,
                shared,
                &m.gate_eval,
                eval::normalize,
                eval::evaluate,
            ),
            &m.gate_eval,
        ),
        ("POST", "/v1/netlist/eval") => (
            cached_eval(
                request,
                shared,
                &m.netlist_eval,
                netlist::normalize,
                netlist::evaluate,
            ),
            &m.netlist_eval,
        ),
        ("POST", "/v1/jobs") => (jobs_submit(request, shared), &m.jobs_submit),
        ("GET", "/metrics") => (metrics_reply(shared), &m.metrics),
        ("POST", "/v1/admin/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (Response::json(200, r#"{"draining":true}"#), &m.other)
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let id = &path["/v1/jobs/".len()..];
            (jobs_get(id, shared), &m.jobs_get)
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/gate/eval" | "/v1/netlist/eval" | "/v1/jobs"
            | "/v1/admin/shutdown",
        ) => (Response::error(405, "method not allowed"), &m.other),
        _ => (Response::error(404, "no such endpoint"), &m.other),
    }
}

fn healthz(shared: &Shared) -> Response {
    let body = Json::obj([
        ("status", Json::str("ok")),
        (
            "draining",
            Json::Bool(shared.shutdown.load(Ordering::SeqCst)),
        ),
        ("jobs_in_flight", Json::Num(shared.jobs.in_flight() as f64)),
    ])
    .render();
    Response::json(200, &body)
}

fn metrics_reply(shared: &Shared) -> Response {
    sync_job_counters(shared);
    Response::json(200, &shared.metrics.render().render())
}

/// The canonicalize-then-cache serving policy shared by the gate and
/// netlist evaluation endpoints. Both stages are pure functions of the
/// request JSON, so distinct endpoints can share one [`ResultCache`]:
/// canonical forms are disjoint by construction (gate requests carry a
/// `kind`, netlist requests a `netlist`), and the single-flight
/// admission accounting applies across both.
fn cached_eval(
    request: &Request,
    shared: &Shared,
    endpoint: &EndpointMetrics,
    normalize: fn(&Json) -> Result<Json, eval::EvalError>,
    evaluate: fn(&Json) -> Result<Json, eval::EvalError>,
) -> Response {
    let parsed = match Json::parse_bytes(&request.body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let normalized = match normalize(&parsed) {
        Ok(normalized) => normalized,
        Err(e) => return Response::error(400, &e.message),
    };
    let key = content_key(&normalized.render());
    match shared.cache.begin(key) {
        Begin::Hit(body) => {
            shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            cached(&body, "ram")
        }
        Begin::Follower(flight) => match flight.wait() {
            Ok(body) => {
                shared
                    .metrics
                    .cache_coalesced
                    .fetch_add(1, Ordering::Relaxed);
                cached(&body, "coalesced")
            }
            Err(FlightError::Shed) => {
                shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
                shed(shared.eval_retry_after(endpoint))
            }
            Err(FlightError::Eval(message)) => Response::error(400, &message),
            Err(FlightError::Aborted) => Response::error(500, "evaluation aborted"),
        },
        Begin::Leader(token) => {
            if shared.shutdown.load(Ordering::SeqCst) {
                shared.cache.abandon(token, FlightError::Shed);
                return Response::error(503, "server is draining");
            }
            // Disk level, consulted under the leader token so N
            // concurrent identical requests still cost one disk read.
            // A disk hit promotes the body into RAM via `complete`
            // (followers and future repeats answer from RAM).
            if let Some(store) = &shared.store {
                if let Some(body) = store.get(key).and_then(|b| String::from_utf8(b).ok()) {
                    let body = shared.cache.complete(token, body);
                    return cached(&body, "disk");
                }
            }
            if shared.admitted.fetch_add(1, Ordering::SeqCst) >= shared.queue_depth {
                shared.admitted.fetch_sub(1, Ordering::SeqCst);
                shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
                shared.cache.abandon(token, FlightError::Shed);
                return shed(shared.eval_retry_after(endpoint));
            }
            let outcome = evaluate(&normalized).map(|result| result.render());
            shared.admitted.fetch_sub(1, Ordering::SeqCst);
            match outcome {
                Ok(body) => {
                    shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                    // Write through to disk so the result survives a
                    // restart; a store write failure only costs
                    // durability, never the response.
                    if let Some(store) = &shared.store {
                        if let Err(e) = store.put(key, body.as_bytes()) {
                            eprintln!("swserve: store write failed: {e}");
                        }
                    }
                    let body = shared.cache.complete(token, body);
                    cached(&body, "miss")
                }
                Err(e) => {
                    shared
                        .cache
                        .abandon(token, FlightError::Eval(e.message.clone()));
                    Response::error(400, &e.message)
                }
            }
        }
    }
}

fn jobs_submit(request: &Request, shared: &Shared) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::error(503, "server is draining");
    }
    let parsed = match Json::parse_bytes(&request.body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    match shared.jobs.submit(&parsed) {
        Ok((id, resubmitted)) => {
            let status = shared
                .jobs
                .status(&id)
                .and_then(|s| s.get("status").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_else(|| "queued".to_string());
            let body = Json::obj([
                ("id", Json::str(&id)),
                ("status", Json::str(&status)),
                ("resubmitted", Json::Bool(resubmitted)),
            ])
            .render();
            Response::json(202, &body)
        }
        Err(SubmitError::Invalid(e)) => Response::error(400, &e.message),
        Err(SubmitError::Overloaded) => {
            shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
            shed(shared.jobs_retry_after())
        }
        Err(SubmitError::Closed) => Response::error(503, "server is draining"),
    }
}

fn jobs_get(id: &str, shared: &Shared) -> Response {
    match shared.jobs.status(id) {
        Some(status) => Response::json(200, &status.render()),
        None => Response::error(404, "no such job"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared(queue_depth: usize) -> Arc<Shared> {
        Arc::new(Shared {
            metrics: ServerMetrics::default(),
            cache: ResultCache::new(8),
            jobs: JobStore::start(1, queue_depth, None, None),
            manifest: None,
            store: None,
            queue_depth,
            admitted: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        })
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn routes_and_statuses() {
        let shared = test_shared(4);
        let cases = [
            (get("/healthz"), 200),
            (get("/metrics"), 200),
            (get("/nope"), 404),
            (post("/healthz", ""), 405),
            (post("/v1/gate/eval", "not json"), 400),
            (post("/v1/gate/eval", r#"{"gate":"warp"}"#), 400),
            (post("/v1/netlist/eval", r#"{"demo":"alu"}"#), 400),
            (get("/v1/netlist/eval"), 405),
            (post("/v1/jobs", r#"{"kind":"explode"}"#), 400),
            (get("/v1/jobs/job-0-dead"), 404),
        ];
        for (request, expected) in cases {
            let (reply, _) = route(&request, &shared);
            assert_eq!(
                reply.status,
                expected,
                "{} {} → {}",
                request.method,
                request.path,
                reply.text()
            );
        }
    }

    #[test]
    fn gate_eval_miss_then_hit_with_identical_bodies() {
        let shared = test_shared(4);
        let request = post("/v1/gate/eval", r#"{"gate":"maj3","inputs":[0,1,1]}"#);
        let (first, _) = route(&request, &shared);
        assert_eq!(first.status, 200);
        assert_eq!(first.header("x-cache"), Some("miss"));
        // Same meaning, different field order — still the same entry.
        let reordered = post("/v1/gate/eval", r#"{"inputs":[0,1,1],"gate":"maj3"}"#);
        let (second, _) = route(&reordered, &shared);
        assert_eq!(second.status, 200);
        assert_eq!(second.header("x-cache"), Some("ram"));
        assert_eq!(first.body, second.body, "cache must not change bytes");
        assert_eq!(shared.metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(shared.metrics.cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn netlist_eval_coalesces_equivalent_spellings() {
        let shared = test_shared(4);
        let (first, endpoint) = route(&post("/v1/netlist/eval", r#"{"demo":"mul2"}"#), &shared);
        assert!(std::ptr::eq(endpoint, &shared.metrics.netlist_eval));
        assert_eq!(first.status, 200, "{}", first.text());
        assert_eq!(first.header("x-cache"), Some("miss"));
        // The same circuit spelled as netlist text lands on the same
        // cache entry: normalization compiles both to one canonical
        // form.
        let source = swnet::arith::array_multiplier(2).to_string();
        let spelled = Json::obj([("source", Json::str(&source))]).render();
        let (second, _) = route(&post("/v1/netlist/eval", &spelled), &shared);
        assert_eq!(second.status, 200);
        assert_eq!(second.header("x-cache"), Some("ram"));
        assert_eq!(first.body, second.body);
        // And the body matches the CLI responder byte for byte.
        let cli = netlist::respond(&Json::parse(r#"{"demo":"mul2"}"#).unwrap()).unwrap();
        assert_eq!(first.text(), cli);
    }

    #[test]
    fn gate_and_netlist_requests_do_not_collide_in_the_cache() {
        let shared = test_shared(4);
        let (gate, _) = route(
            &post(
                "/v1/gate/eval",
                r#"{"kind":"circuit","circuit":"full_adder"}"#,
            ),
            &shared,
        );
        let (net, _) = route(
            &post("/v1/netlist/eval", r#"{"demo":"full_adder"}"#),
            &shared,
        );
        assert_eq!(gate.status, 200);
        assert_eq!(net.status, 200);
        assert_eq!(net.header("x-cache"), Some("miss"));
        assert_ne!(gate.body, net.body);
        assert_eq!(shared.metrics.cache_misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn gate_eval_body_matches_cli_responder() {
        let shared = test_shared(4);
        let raw = r#"{"gate":"xor","inputs":[1,0],"backend":"paper"}"#;
        let (reply, _) = route(&post("/v1/gate/eval", raw), &shared);
        let cli = eval::respond(&Json::parse(raw).unwrap()).unwrap();
        assert_eq!(
            reply.text(),
            cli,
            "server and CLI must emit identical bytes"
        );
    }

    #[test]
    fn zero_queue_depth_sheds_every_evaluation() {
        let shared = test_shared(0);
        let (reply, _) = route(
            &post("/v1/gate/eval", r#"{"gate":"maj3","inputs":[0,1,1]}"#),
            &shared,
        );
        assert_eq!(reply.status, 429);
        // A cold server has no observed latency, so the derived
        // Retry-After falls back to its 1 s floor.
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert_eq!(shared.metrics.shed.load(Ordering::Relaxed), 1);
        // Errors/sheds are not cached: capacity remains unused.
        assert!(shared.cache.is_empty());
    }

    #[test]
    fn retry_after_grows_with_backlog_and_latency() {
        // No observation yet, or an empty queue: floor of 1 s.
        assert_eq!(retry_after_secs(4, None), 1);
        assert_eq!(retry_after_secs(0, Some(Duration::from_secs(10))), 1);
        // Drain-time estimate: backlog × mean latency, rounded up.
        assert_eq!(retry_after_secs(10, Some(Duration::from_millis(500))), 5);
        assert_eq!(retry_after_secs(3, Some(Duration::from_millis(400))), 2);
        // Pathological backlogs cap at a minute.
        assert_eq!(retry_after_secs(1000, Some(Duration::from_secs(2))), 60);
    }

    #[test]
    fn shed_evaluations_derive_retry_after_from_endpoint_latency() {
        let shared = test_shared(4);
        // Pretend past gate evaluations took 2 s each and every
        // admission slot is busy: 4 × 2 s = 8 s to drain.
        shared
            .metrics
            .gate_eval
            .observe(Duration::from_secs(2), false);
        shared.admitted.store(4, Ordering::SeqCst);
        let (reply, _) = route(
            &post("/v1/gate/eval", r#"{"gate":"maj3","inputs":[0,1,1]}"#),
            &shared,
        );
        assert_eq!(reply.status, 429);
        assert_eq!(
            reply.header("retry-after"),
            Some("8"),
            "headers: {:?}",
            reply.headers
        );
    }

    #[test]
    fn shed_job_submissions_derive_retry_after_from_observed_wall_time() {
        let shared = test_shared(1);
        // Teach the store that a job takes ~3 s.
        shared.jobs.record_wall(Duration::from_secs(3));
        // One long sleep fills the single admission slot; the next
        // distinct job is shed with a drain estimate of 1 × 3 s.
        let (hold, _) = route(
            &post("/v1/jobs", r#"{"kind":"sleep","ms":400,"tag":"hold"}"#),
            &shared,
        );
        assert_eq!(hold.status, 202);
        let (shed, _) = route(
            &post("/v1/jobs", r#"{"kind":"sleep","ms":400,"tag":"next"}"#),
            &shared,
        );
        assert_eq!(shed.status, 429);
        assert_eq!(
            shed.header("retry-after"),
            Some("3"),
            "headers: {:?}",
            shed.headers
        );
        let id = Json::parse(hold.text())
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        shared.jobs.wait(&id);
    }

    #[test]
    fn job_lifecycle_over_routes() {
        let shared = test_shared(4);
        let (submit, _) = route(&post("/v1/jobs", r#"{"kind":"sleep","ms":5}"#), &shared);
        assert_eq!(submit.status, 202);
        let body = Json::parse(submit.text()).unwrap();
        let id = body.get("id").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(body.get("resubmitted").and_then(Json::as_bool), Some(false));
        shared.jobs.wait(&id);
        let (status, _) = route(&get(&format!("/v1/jobs/{id}")), &shared);
        assert_eq!(status.status, 200);
        let status_body = Json::parse(status.text()).unwrap();
        assert_eq!(
            status_body.get("status").and_then(Json::as_str),
            Some("done")
        );
        // Resubmission returns the same id without new work.
        let (again, _) = route(&post("/v1/jobs", r#"{"kind":"sleep","ms":5}"#), &shared);
        let again_body = Json::parse(again.text()).unwrap();
        assert_eq!(
            again_body.get("id").and_then(Json::as_str),
            Some(id.as_str())
        );
        assert_eq!(
            again_body.get("resubmitted").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn draining_rejects_new_work() {
        let shared = test_shared(4);
        shared.shutdown.store(true, Ordering::SeqCst);
        let (eval_reply, _) = route(
            &post("/v1/gate/eval", r#"{"gate":"maj3","inputs":[0,1,1]}"#),
            &shared,
        );
        assert_eq!(eval_reply.status, 503);
        let (job_reply, _) = route(&post("/v1/jobs", r#"{"kind":"sleep","ms":1}"#), &shared);
        assert_eq!(job_reply.status, 503);
        // Health stays observable while draining.
        let (health, _) = route(&get("/healthz"), &shared);
        assert_eq!(health.status, 200);
        assert!(health.text().contains(r#""draining":true"#));
    }

    #[test]
    fn shutdown_endpoint_sets_the_flag() {
        let shared = test_shared(4);
        assert!(!shared.shutdown.load(Ordering::SeqCst));
        let (reply, _) = route(&post("/v1/admin/shutdown", ""), &shared);
        assert_eq!(reply.status, 200);
        assert!(shared.shutdown.load(Ordering::SeqCst));
    }
}
