//! The server: listener, admission queue, bounded worker pool, drain.
//!
//! Request lifecycle (DESIGN §5i):
//!
//! ```text
//! conn thread: read line → parse → admission (try_send, bounded)
//!                 │ full → typed `overloaded` response (shed)
//!                 ▼
//! queue (sync_channel, capacity = queue_capacity)
//!                 ▼
//! worker pool (N threads): cache lookup → route under CancelToken →
//!                          exactly one response line per accepted request
//! ```
//!
//! Shutdown (signal, `shutdown` request, or [`ServerHandle::shutdown`]):
//! stop accepting, answer new requests `shutting_down`, drain in-flight
//! work under the drain deadline, then cancel stragglers through their
//! tokens — they fail fast at the next ladder-rung check and still
//! produce their one response line.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use bmst_core::{BmstError, CancelToken};
use bmst_obs::json::Json;
use bmst_obs::Field;
use bmst_router::{Netlist, RouteAlgorithm, RouterConfig};

use crate::cache::{Fingerprint, ReportCache};
use crate::fault::Fault;
use crate::protocol::{self, Request, RouteRequest, MAX_LINE_BYTES};
use crate::signal;

/// How long blocking reads wait before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(25);
/// Accept-loop sleep when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// The retry hint attached to `overloaded` responses.
const RETRY_AFTER_MS: u64 = 50;

/// Server construction/configuration knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7463` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads routing admitted requests.
    pub workers: usize,
    /// Bounded admission-queue capacity; requests beyond it are shed.
    pub queue_capacity: usize,
    /// How long graceful shutdown waits for in-flight work before
    /// cancelling stragglers through their tokens.
    pub drain_ms: u64,
    /// LRU report-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Budget applied to requests that do not carry their own
    /// `budget_ms` (None = unbounded).
    pub default_budget_ms: Option<u64>,
    /// Seed for the deterministic fault-injection harness. Rejected at
    /// bind time unless the crate was built with `fault-inject`.
    pub fault_seed: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_capacity: 64,
            drain_ms: 2000,
            cache_entries: 128,
            default_budget_ms: None,
            fault_seed: None,
        }
    }
}

/// Errors from server construction and the run loop.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listener failed.
    Bind {
        /// The requested address.
        addr: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// The configuration is unusable as given.
    Config {
        /// What is wrong.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::Config { detail } => write!(f, "invalid serve configuration: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Totals reported after a clean shutdown (also the `status` payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests shed by admission control (`overloaded`).
    pub shed: u64,
    /// Admitted requests answered (every accepted request ends here).
    pub completed: u64,
    /// Lines that failed to parse as requests.
    pub malformed: u64,
    /// Requests whose report contains a `DeadlineExceeded` failure.
    pub deadline_exceeded: u64,
    /// Route responses served from the LRU report cache.
    pub cache_hits: u64,
    /// Route computations that went to the router.
    pub cache_misses: u64,
    /// Worker panics mapped to `internal` responses (fault injection or
    /// genuine builder bugs — either way the process survived).
    pub internal_errors: u64,
    /// In-flight requests cancelled at the drain deadline.
    pub cancelled_stragglers: u64,
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    malformed: AtomicU64,
    deadline_exceeded: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    internal_errors: AtomicU64,
    cancelled_stragglers: AtomicU64,
    queue_depth: AtomicU64,
}

/// Recovers from a poisoned lock: a worker panic (fault injection) must
/// not wedge the shared state it happened to hold.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct State {
    cfg: ServeConfig,
    shutdown: AtomicBool,
    counters: Counters,
    cache: Mutex<ReportCache>,
    inflight: Mutex<BTreeMap<u64, CancelToken>>,
    seq: AtomicU64,
}

impl State {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) && bmst_obs::enabled() {
            bmst_obs::event("serve.shutdown", &[("reason", Field::from("requested"))]);
        }
    }

    fn summary(&self) -> ServeSummary {
        let c = &self.counters;
        ServeSummary {
            accepted: c.accepted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            malformed: c.malformed.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            internal_errors: c.internal_errors.load(Ordering::Relaxed),
            cancelled_stragglers: c.cancelled_stragglers.load(Ordering::Relaxed),
        }
    }

    fn status_json(&self) -> Json {
        let s = self.summary();
        Json::Obj(vec![
            ("accepted".to_owned(), Json::from_u64(s.accepted)),
            ("shed".to_owned(), Json::from_u64(s.shed)),
            ("completed".to_owned(), Json::from_u64(s.completed)),
            ("malformed".to_owned(), Json::from_u64(s.malformed)),
            (
                "deadline_exceeded".to_owned(),
                Json::from_u64(s.deadline_exceeded),
            ),
            ("cache_hits".to_owned(), Json::from_u64(s.cache_hits)),
            ("cache_misses".to_owned(), Json::from_u64(s.cache_misses)),
            (
                "internal_errors".to_owned(),
                Json::from_u64(s.internal_errors),
            ),
            (
                "queue_depth".to_owned(),
                Json::from_u64(self.counters.queue_depth.load(Ordering::Relaxed)),
            ),
            (
                "cache_entries".to_owned(),
                Json::from_u64(lock_recover(&self.cache).len() as u64),
            ),
            (
                "workers".to_owned(),
                Json::from_u64(self.cfg.workers as u64),
            ),
            (
                "queue_capacity".to_owned(),
                Json::from_u64(self.cfg.queue_capacity as u64),
            ),
            ("draining".to_owned(), Json::Bool(self.is_shutdown())),
        ])
    }
}

/// One admitted request, queued for the worker pool.
struct Job {
    seq: u64,
    id: Json,
    req: Box<RouteRequest>,
    token: CancelToken,
    fault: Fault,
    out: ConnOut,
}

/// The write half of a connection, shared between its reader thread and
/// every worker holding one of its jobs. Response lines are written
/// whole under the lock, so pipelined responses never interleave.
#[derive(Clone)]
struct ConnOut {
    stream: Arc<Mutex<TcpStream>>,
}

impl ConnOut {
    fn write_line(&self, line: &str) {
        let mut guard = lock_recover(&self.stream);
        // A dead peer is not a server error: the response is simply lost
        // with its connection.
        let _ = guard.write_all(line.as_bytes()); // analyze: allow(blocking-discipline) — line atomicity: the response and its terminator are written whole under the lock so pipelined responses never interleave
        let _ = guard.write_all(b"\n");
        let _ = guard.flush(); // analyze: allow(blocking-discipline) — line atomicity: flush before release so the peer sees a complete line
    }
}

/// A handle for driving a bound server from another thread (tests, the
/// CLI's signal wiring).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
}

impl ServerHandle {
    /// Begins graceful shutdown, exactly as a SIGTERM would.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// A point-in-time snapshot of the server's counters.
    pub fn summary(&self) -> ServeSummary {
        self.state.summary()
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<State>,
}

impl Server {
    /// Binds the listener and validates the configuration. The server
    /// does not accept connections until [`Server::run`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for unusable knobs (zero workers/queue, or
    /// a fault seed without the `fault-inject` feature);
    /// [`ServeError::Bind`] when the OS refuses the address.
    pub fn bind(cfg: ServeConfig) -> Result<Server, ServeError> {
        if cfg.workers == 0 {
            return Err(ServeError::Config {
                detail: "workers must be at least 1".to_owned(),
            });
        }
        if cfg.queue_capacity == 0 {
            return Err(ServeError::Config {
                detail: "queue capacity must be at least 1".to_owned(),
            });
        }
        if cfg.fault_seed.is_some() && !cfg!(feature = "fault-inject") {
            return Err(ServeError::Config {
                detail: "fault_seed requires a server built with the fault-inject feature"
                    .to_owned(),
            });
        }
        let listener = TcpListener::bind(&cfg.addr).map_err(|source| ServeError::Bind {
            addr: cfg.addr.clone(),
            source,
        })?;
        let local_addr = listener.local_addr().map_err(|source| ServeError::Bind {
            addr: cfg.addr.clone(),
            source,
        })?;
        let cache = ReportCache::new(cfg.cache_entries);
        Ok(Server {
            listener,
            local_addr,
            state: Arc::new(State {
                cfg,
                shutdown: AtomicBool::new(false),
                counters: Counters::default(),
                cache: Mutex::new(cache),
                inflight: Mutex::new(BTreeMap::new()),
                seq: AtomicU64::new(0),
            }),
        })
    }

    /// The address the listener actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A cloneable control handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until shutdown is requested (signal, `shutdown` op, or
    /// [`ServerHandle::shutdown`]), then drains and returns the final
    /// counters.
    ///
    /// # Errors
    ///
    /// [`ServeError`] is reserved for future run-loop failures; the
    /// current loop treats per-connection errors as connection-local.
    pub fn run(self) -> Result<ServeSummary, ServeError> {
        let state = self.state;
        let (tx, rx) = mpsc::sync_channel::<Job>(state.cfg.queue_capacity);
        let rx = Arc::new(Mutex::new(rx));

        let workers: Vec<thread::JoinHandle<()>> = (0..state.cfg.workers)
            .map(|_| {
                let state = Arc::clone(&state);
                let rx = Arc::clone(&rx);
                thread::spawn(move || worker_loop(&state, &rx))
            })
            .collect();

        // Non-blocking accept so the loop can poll the shutdown sources.
        let _ = self.listener.set_nonblocking(true);
        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        loop {
            if signal::triggered() {
                state.begin_shutdown();
            }
            if state.is_shutdown() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&state);
                    let tx = tx.clone();
                    conns.push(thread::spawn(move || conn_loop(&state, &tx, stream)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
                Err(_) => thread::sleep(ACCEPT_POLL),
            }
            // Reap finished connection threads so a long-lived server
            // does not accumulate handles.
            conns.retain(|h| !h.is_finished());
        }

        // Drain: connection readers notice the flag within one read poll
        // and exit, dropping their queue senders.
        drop(tx);
        for c in conns {
            let _ = c.join();
        }
        let deadline = Instant::now() + Duration::from_millis(state.cfg.drain_ms);
        while Instant::now() < deadline {
            if lock_recover(&state.inflight).is_empty() {
                break;
            }
            thread::sleep(ACCEPT_POLL);
        }
        // Cancel stragglers: queued-but-unstarted and still-running jobs
        // alike fail fast at their next token check, each still emitting
        // its one response line.
        {
            let inflight = lock_recover(&state.inflight);
            for token in inflight.values() {
                token.cancel();
            }
            state
                .counters
                .cancelled_stragglers
                .fetch_add(inflight.len() as u64, Ordering::Relaxed);
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(state.summary())
    }
}

fn worker_loop(state: &Arc<State>, rx: &Mutex<Receiver<Job>>) {
    loop {
        // analyze: allow(blocking-discipline) — the locked receiver is the shared handoff point; a worker takes the lock only to block on the next job
        let job = lock_recover(rx).recv();
        let Ok(job) = job else {
            return; // all senders dropped and the queue is drained
        };
        state.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        handle_job(state, &job);
    }
}

/// Extracts a panic payload's message, mirroring `try_build`'s policy.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Routes one job and writes its single response line. Panics inside the
/// routing path (injected or genuine) are caught here and mapped into
/// [`BmstError::Internal`], so one poisoned request can never take down
/// the worker or the process.
fn handle_job(state: &Arc<State>, job: &Job) {
    let span = bmst_obs::span("serve.request");
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| route_job(state, job)));
    let line = match outcome {
        Ok(Ok((report_json, cached))) => protocol::render_route_ok(&job.id, cached, &report_json),
        Ok(Err(err)) => {
            let kind = match &err {
                BmstError::DegenerateInput { .. } => "bad_request",
                BmstError::DeadlineExceeded { .. } => "deadline_exceeded",
                _ => "internal",
            };
            if matches!(err, BmstError::Internal { .. }) {
                state
                    .counters
                    .internal_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
            protocol::render_error(&job.id, kind, &err.to_string(), None)
        }
        Err(payload) => {
            let err = BmstError::internal(format!(
                "worker panic contained: {}",
                panic_message(payload)
            ));
            state
                .counters
                .internal_errors
                .fetch_add(1, Ordering::Relaxed);
            protocol::render_error(&job.id, "internal", &err.to_string(), None)
        }
    };
    job.out.write_line(&line);
    lock_recover(&state.inflight).remove(&job.seq);
    state.counters.completed.fetch_add(1, Ordering::Relaxed);
    drop(span);
}

/// The fallible routing path: failpoints, cache lookup, route, cache
/// fill. Returns the rendered report plus whether it came from cache.
fn route_job(state: &Arc<State>, job: &Job) -> Result<(String, bool), BmstError> {
    // Injected delays land here — before the cache, like a slow builder.
    crate::failpoint!(job.fault, "worker.admitted");

    let config = request_config(&job.req, job.token.clone());
    let key = request_key(&job.req.netlist, &config);
    if job.req.use_cache {
        if let Some(hit) = lock_recover(&state.cache).get(key) {
            state.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            if bmst_obs::enabled() {
                bmst_obs::counter("serve.cache_hit", 1);
            }
            return Ok((hit.to_string(), true));
        }
    }
    state.counters.cache_misses.fetch_add(1, Ordering::Relaxed);

    // Injected builder panics / forced internals land here.
    crate::failpoint!(job.fault, "worker.route");

    let netlist =
        Netlist::from_str_block(&job.req.netlist).map_err(|e| BmstError::DegenerateInput {
            detail: format!("netlist parse failed: {e}"),
        })?;
    let report = netlist.route(&config);
    let rendered = report.to_json().to_string();

    let deadline_failures = report
        .failures
        .iter()
        .any(|f| matches!(f.error, BmstError::DeadlineExceeded { .. }));
    if deadline_failures {
        state
            .counters
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        if bmst_obs::enabled() {
            bmst_obs::counter("serve.deadline_exceeded", 1);
        }
    }
    // A deadline-shaped report reflects this request's budget, not the
    // problem — never cache it.
    if job.req.use_cache && !deadline_failures {
        lock_recover(&state.cache).insert(key, Arc::from(rendered.as_str()));
    }
    Ok((rendered, false))
}

/// Maps per-request knobs onto a `RouterConfig` (absent knobs keep the
/// router defaults; the server-level default budget is applied at
/// admission, where the token is armed).
fn request_config(req: &RouteRequest, token: CancelToken) -> RouterConfig {
    let mut config = RouterConfig {
        cancel: token,
        ..RouterConfig::default()
    };
    if let Some(name) = &req.algorithm {
        if let Some(algorithm) = RouteAlgorithm::from_name(name) {
            config.algorithm = algorithm;
        }
    }
    if let Some(e) = req.eps_critical {
        config.eps_critical = e;
    }
    if let Some(e) = req.eps_normal {
        config.eps_normal = e;
    }
    if let Some(e) = req.eps_relaxed {
        config.eps_relaxed = e;
    }
    if let Some(m) = req.max_relaxations {
        config.relaxation.max_relaxations = m;
    }
    config
}

/// Fingerprints every input that affects the rendered report: netlist
/// text plus the resolved routing knobs. The time budget is deliberately
/// excluded — budgets shape *whether* a report completes, not its bytes,
/// and deadline-shaped reports are never cached.
fn request_key(netlist: &str, config: &RouterConfig) -> u64 {
    let mut fp = Fingerprint::new();
    fp.field(netlist.as_bytes());
    fp.field(config.algorithm.name().as_bytes());
    fp.field(&config.eps_critical.to_bits().to_le_bytes());
    fp.field(&config.eps_normal.to_bits().to_le_bytes());
    fp.field(&config.eps_relaxed.to_bits().to_le_bytes());
    fp.field(&(config.relaxation.max_relaxations as u64).to_le_bytes());
    fp.finish()
}

/// Per-connection reader: accumulates lines, parses, admits. Exits on
/// EOF, an unrecoverable stream error, an oversized line, or shutdown.
fn conn_loop(state: &Arc<State>, tx: &SyncSender<Job>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // Response lines are small; without TCP_NODELAY they sit in Nagle's
    // buffer waiting on the peer's delayed ACK (~40ms per roundtrip).
    let _ = stream.set_nodelay(true);
    let out = match stream.try_clone() {
        Ok(w) => ConnOut {
            stream: Arc::new(Mutex::new(w)),
        },
        Err(_) => return,
    };
    let mut reader = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => break, // EOF: client closed its write half
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                if pending.len() > MAX_LINE_BYTES {
                    state.counters.malformed.fetch_add(1, Ordering::Relaxed);
                    out.write_line(&protocol::render_error(
                        &Json::Null,
                        "bad_request",
                        "request line too long; closing connection",
                        None,
                    ));
                    break;
                }
                drain_lines(state, tx, &out, &mut pending);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if state.is_shutdown() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Splits the accumulated bytes on `\n` and handles each complete line.
fn drain_lines(state: &Arc<State>, tx: &SyncSender<Job>, out: &ConnOut, pending: &mut Vec<u8>) {
    while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
        let raw: Vec<u8> = pending.drain(..=pos).collect();
        let line = String::from_utf8_lossy(&raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        handle_line(state, tx, out, line);
    }
}

/// Parses and dispatches one request line.
fn handle_line(state: &Arc<State>, tx: &SyncSender<Job>, out: &ConnOut, line: &str) {
    let envelope = match protocol::parse_line(line) {
        Ok(env) => env,
        Err((id, detail)) => {
            state.counters.malformed.fetch_add(1, Ordering::Relaxed);
            out.write_line(&protocol::render_error(&id, "bad_request", &detail, None));
            return;
        }
    };
    match envelope.request {
        Request::Status => {
            out.write_line(&protocol::render_ok(
                &envelope.id,
                "status",
                &state.status_json(),
            ));
        }
        Request::Shutdown => {
            state.begin_shutdown();
            out.write_line(&protocol::render_ok(
                &envelope.id,
                "shutdown",
                &Json::Obj(vec![("draining".to_owned(), Json::Bool(true))]),
            ));
        }
        Request::Route(req) => admit(state, tx, out, envelope.id, req),
    }
}

/// Admission control: arm the request's token, register it in-flight,
/// and try the bounded queue. Shedding and shutdown produce their typed
/// responses here; admitted requests are answered by a worker.
fn admit(
    state: &Arc<State>,
    tx: &SyncSender<Job>,
    out: &ConnOut,
    id: Json,
    req: Box<RouteRequest>,
) {
    if state.is_shutdown() {
        out.write_line(&protocol::render_error(
            &id,
            "shutting_down",
            "server is draining; no new work accepted",
            None,
        ));
        return;
    }
    let seq = state.seq.fetch_add(1, Ordering::Relaxed);
    // The budget clock starts at admission: queue wait counts against it.
    let token = match req.budget_ms.or(state.cfg.default_budget_ms) {
        Some(ms) => CancelToken::with_budget(Duration::from_millis(ms)),
        None => CancelToken::manual(), // still cancellable at drain time
    };
    let fault = request_fault(&state.cfg, seq);
    lock_recover(&state.inflight).insert(seq, token.clone());
    let job = Job {
        seq,
        id,
        req,
        token,
        fault,
        out: out.clone(),
    };
    // Count the job before it becomes visible to workers: a worker's
    // decrement can land as soon as `try_send` returns, and a decrement
    // ahead of its increment would wrap the unsigned depth.
    state.counters.queue_depth.fetch_add(1, Ordering::Relaxed);
    match tx.try_send(job) {
        Ok(()) => {
            state.counters.accepted.fetch_add(1, Ordering::Relaxed);
            if bmst_obs::enabled() {
                bmst_obs::counter("serve.accepted", 1);
            }
        }
        Err(TrySendError::Full(job)) => {
            state.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
            lock_recover(&state.inflight).remove(&seq);
            state.counters.shed.fetch_add(1, Ordering::Relaxed);
            if bmst_obs::enabled() {
                bmst_obs::counter("serve.shed", 1);
            }
            job.out.write_line(&protocol::render_error(
                &job.id,
                "overloaded",
                "admission queue full",
                Some(RETRY_AFTER_MS),
            ));
        }
        Err(TrySendError::Disconnected(job)) => {
            state.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
            lock_recover(&state.inflight).remove(&seq);
            job.out.write_line(&protocol::render_error(
                &job.id,
                "shutting_down",
                "server is draining; no new work accepted",
                None,
            ));
        }
    }
}

/// The fault assigned to request `seq` (always [`Fault::None`] without a
/// configured seed; the seed itself is rejected at bind time unless the
/// `fault-inject` feature is compiled in).
fn request_fault(cfg: &ServeConfig, seq: u64) -> Fault {
    match cfg.fault_seed {
        Some(seed) => crate::fault::FaultPlan { seed }.decide(seq),
        None => Fault::None,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic
    use super::*;

    #[test]
    fn bind_validates_config() {
        assert!(matches!(
            Server::bind(ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            }),
            Err(ServeError::Config { .. })
        ));
        assert!(matches!(
            Server::bind(ServeConfig {
                queue_capacity: 0,
                ..ServeConfig::default()
            }),
            Err(ServeError::Config { .. })
        ));
        if !cfg!(feature = "fault-inject") {
            assert!(matches!(
                Server::bind(ServeConfig {
                    fault_seed: Some(7),
                    ..ServeConfig::default()
                }),
                Err(ServeError::Config { .. })
            ));
        }
        let err = Server::bind(ServeConfig {
            addr: "definitely not an address".to_owned(),
            ..ServeConfig::default()
        })
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("cannot bind"), "{err}");
    }

    #[test]
    fn bind_resolves_port_zero() {
        let server = Server::bind(ServeConfig::default()).unwrap();
        assert_ne!(server.local_addr().port(), 0);
    }

    #[test]
    fn request_key_separates_knobs() {
        let base = RouterConfig::default();
        let tighter = RouterConfig {
            eps_critical: 0.2,
            ..RouterConfig::default()
        };
        let k1 = request_key("net a normal\n0 0\n1 1\nend\n", &base);
        let k2 = request_key("net a normal\n0 0\n1 1\nend\n", &tighter);
        let k3 = request_key("net b normal\n0 0\n1 1\nend\n", &base);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        // Budget is not part of the key: same knobs, same key.
        assert_eq!(k1, request_key("net a normal\n0 0\n1 1\nend\n", &base));
    }

    #[test]
    fn retired_supply_knob_is_ignored_and_shares_the_cache_entry() {
        let key = |line: &str| {
            let Request::Route(req) = protocol::parse_line(line).unwrap().request else {
                panic!("expected route")
            };
            request_key(&req.netlist, &request_config(&req, CancelToken::never()))
        };
        let plain =
            r#"{"op":"route","algorithm":"bprim","netlist":"net a normal\n0 0\n1 1\nend\n"}"#;
        let with_supply = r#"{"op":"route","algorithm":"bprim","supply":"dense","netlist":"net a normal\n0 0\n1 1\nend\n"}"#;
        assert_eq!(key(plain), key(with_supply));
    }
}
