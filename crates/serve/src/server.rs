//! The daemon: TCP + UDS acceptors, per-tenant work queues, sharded
//! worker pool.
//!
//! Life of a request: a connection thread parses the line (or frame —
//! see [`crate::transport`]), resolves the tenant it runs as, and — for
//! work ops — asks for admission. Admission is decided **under the
//! queue lock** in one linearized step: draining servers answer
//! `draining`, a full shared queue answers `overloaded`, and a tenant
//! that filled its own quota answers `quota_exceeded` while everyone
//! else keeps being admitted.
//!
//! A `predict` whose answer is already in the serve-level prediction
//! cache is answered **inline on the connection thread**: it passes that
//! same admission step and counts as in flight (so drain waits for it),
//! then splices its id into the cached, pre-rendered response body. A
//! hit never touches the job queue, the condvar, or a channel — the
//! thread hand-offs would otherwise cost more than the answer. Every
//! other admitted job goes onto the tenant's sub-queue, and the
//! connection thread parks on a channel while a worker picks it up.
//!
//! Dispatch is **deficit round-robin across tenants**: tenants with
//! pending jobs form a ring, each visit grants a quantum of
//! `batch_max` jobs, and unused credit carries (bounded) to the next
//! visit. A visit coalesces runs of adjacent `predict` jobs bound for
//! the *same device backend at the same precision* into one
//! [`Clara::predict`] call — coalescing never crosses
//! tenants. Workers are **sharded**: tenant *k* (registration order) is
//! pinned to shard `k % workers` and worker *i* serves shard
//! `i % min(workers, tenants)`, so a single tenant's burst occupies its
//! own slice of the pool while a lone-tenant workload still uses every
//! worker. `stats` is answered inline without queueing so it stays
//! responsive under load, and now carries per-tenant counters, the
//! `errors` total, and pairwise colocation-interference predictions.
//!
//! The server holds every backend in [`ServeOptions::backends`] warm
//! and routes each request by its `backend` field, falling back to the
//! tenant's registered default and then the server default; a name that
//! is not loaded is rejected before queueing with a typed
//! `unknown_backend` error.
//!
//! Drain (the `drain` op, [`ServerHandle::drain`], or SIGTERM via
//! [`install_sigterm_drain`]) flips the drain flag **while holding the
//! queue lock**, so it linearizes against admission: every job admitted
//! before the flip is answered by the worker pool, every request after
//! it gets the typed `draining` error, and drain always terminates.
//! (Checking the flag outside the lock used to leave a window where a
//! job could be pushed onto a queue whose workers had already observed
//! empty-and-draining and exited — `await_quiesce` then spun forever.)

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use clara_core::{
    difftest, engine, Clara, ClaraError, DifftestConfig, EngineOptions, NicConfig,
    PlacementFailure, PlacementRequest, Precision,
};
use clara_hal::{Backend as _, DeviceBackend};
use clara_obs as obs;
use nf_ir::Module;
use serde::Value;

use crate::protocol::{self, Envelope, ErrorKind, RegisterSpec, Request, WorkSpec};
use crate::tenant::{Registry, Tenant};
use crate::transport;

/// How the daemon is sized. Plain struct: every field has a sensible
/// default, override what you need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Also listen on a Unix-domain socket at this path, speaking
    /// length-prefixed frames (the `uds` transport). `None`: TCP only.
    pub uds_path: Option<String>,
    /// Worker threads executing queued jobs.
    pub workers: usize,
    /// Bounded queue capacity; beyond it requests get `overloaded`.
    pub queue_cap: usize,
    /// Most `predict` jobs coalesced into one batched engine stage;
    /// also the deficit-round-robin quantum.
    pub batch_max: usize,
    /// Per-request budget measured from enqueue. Also installed as the
    /// engine's `stage_deadline` so a wedged stage is cut short too.
    pub deadline: Option<Duration>,
    /// Built-in device backends held warm for per-request routing. The
    /// first entry serves requests that name no backend. Empty: the
    /// default device only.
    pub backends: Vec<String>,
    /// Inference precision for requests that do not name one.
    pub precision: Precision,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:4117".to_string(),
            uds_path: None,
            workers: 2,
            queue_cap: 64,
            batch_max: 8,
            deadline: None,
            backends: vec![clara_hal::DEFAULT_BACKEND.to_string()],
            precision: Precision::F64,
        }
    }
}

/// What the server did over its lifetime (returned by
/// [`ServerHandle::join`]). Summed per-tenant counters (wire `stats`)
/// reconcile exactly with these totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Work requests answered successfully.
    pub served: u64,
    /// Requests rejected by shared-queue admission control.
    pub overloaded: u64,
    /// Requests rejected by their tenant's own admission quota.
    pub quota_exceeded: u64,
    /// Requests that failed for any other reason.
    pub errors: u64,
}

enum JobKind {
    Predict(WorkSpec),
    Analyze(WorkSpec),
    Difftest { seeds: u64, start: u64, pkts: usize },
    Place(PlacementRequest),
}

struct Job {
    id: Option<u64>,
    tenant: Arc<Tenant>,
    kind: JobKind,
    enqueued: Instant,
    resp: mpsc::Sender<String>,
}

/// One tenant's sub-queue plus its deficit-round-robin credit.
struct TenantQueue {
    /// Latest registration of the owning tenant (refreshed at enqueue).
    tenant: Arc<Tenant>,
    jobs: VecDeque<Job>,
    deficit: u64,
}

/// Everything admission and dispatch agree on, under one lock: the
/// per-tenant sub-queues, the DRR ring of tenants with pending jobs,
/// the shared-capacity total, and the drain flag (in here precisely so
/// drain linearizes against admission).
struct QueueState {
    queues: BTreeMap<String, TenantQueue>,
    ring: VecDeque<String>,
    total: usize,
    draining: bool,
}

/// Why admission turned a work request away.
#[derive(Debug, Clone, Copy)]
enum Refusal {
    Draining,
    Overloaded,
    QuotaExceeded,
}

impl QueueState {
    /// The admission decision for one more request from `tenant`, made
    /// by the caller under the queue lock: the drain flag first, then
    /// the shared capacity, then the tenant's own quota. Queued jobs and
    /// inline cache hits both pass through here, so a hit is refused
    /// exactly where a queued predict would be.
    fn refusal(&self, tenant: &Tenant, queue_cap: usize) -> Option<Refusal> {
        if self.draining {
            Some(Refusal::Draining)
        } else if self.total >= queue_cap {
            Some(Refusal::Overloaded)
        } else if self.queues.get(&tenant.name).map_or(0, |tq| tq.jobs.len()) >= tenant.quota {
            Some(Refusal::QuotaExceeded)
        } else {
            None
        }
    }
}

/// A served prediction's identity: the materialized work spec plus the
/// route (device, precision) that executed it. The trained model is
/// fixed for the server's lifetime, so this key fully determines the
/// prediction — and it hashes in nanoseconds, unlike the engine's
/// serialize-and-FNV content fingerprints.
type PredictKey = (String, usize, u64, bool, &'static str, Precision);

/// Most entries the prediction cache holds; past it, CLOCK eviction
/// makes room (see [`ClockCache`]).
const PREDICT_CACHE_CAP: usize = 8192;

/// A fixed-capacity map with CLOCK (second-chance) eviction. A hit sets
/// the entry's reference bit; an insert into a full map sweeps the hand
/// past referenced entries, clearing their bits, and replaces the first
/// unreferenced one. A burst of one-off keys thus evicts other one-offs
/// before the working set that keeps hitting, and a shifted key space
/// is cached again instead of missing forever.
struct ClockCache<K, V> {
    cap: usize,
    index: HashMap<K, usize>,
    slots: Vec<ClockSlot<K, V>>,
    hand: usize,
}

struct ClockSlot<K, V> {
    key: K,
    value: V,
    referenced: bool,
}

impl<K: Hash + Eq + Clone, V> ClockCache<K, V> {
    fn new(cap: usize) -> ClockCache<K, V> {
        assert!(cap > 0, "a clock cache needs at least one slot");
        ClockCache {
            cap,
            index: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
        }
    }

    /// Looks `key` up and, on a hit, marks the entry referenced.
    fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.index.get(key)?;
        let slot = &mut self.slots[i];
        slot.referenced = true;
        Some(&slot.value)
    }

    /// Inserts (or overwrites) an entry, evicting one when full. New
    /// entries start unreferenced: only a later hit earns the second
    /// chance.
    fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.index.get(&key) {
            self.slots[i].value = value;
            return;
        }
        let slot = ClockSlot {
            key: key.clone(),
            value,
            referenced: false,
        };
        if self.slots.len() < self.cap {
            self.index.insert(key, self.slots.len());
            self.slots.push(slot);
            return;
        }
        while self.slots[self.hand].referenced {
            self.slots[self.hand].referenced = false;
            self.hand = (self.hand + 1) % self.cap;
        }
        let evicted = std::mem::replace(&mut self.slots[self.hand], slot);
        self.index.remove(&evicted.key);
        self.index.insert(key, self.hand);
        self.hand = (self.hand + 1) % self.cap;
    }
}

/// Metric handles on the per-request path, registered on first use and
/// then cached, so a hit pays an atomic add instead of a `format!` and
/// a registry lock per metric. Names are unchanged.
mod metric {
    use std::sync::OnceLock;

    use clara_obs as obs;

    use crate::protocol::Request;

    macro_rules! cached {
        ($name:ident: $ty:ident = $ctor:ident($metric:literal)) => {
            pub(super) fn $name() -> &'static obs::$ty {
                static HANDLE: OnceLock<obs::$ty> = OnceLock::new();
                HANDLE.get_or_init(|| obs::$ctor($metric))
            }
        };
    }

    cached!(predict_ops: Counter = counter("serve.ops.predict"));
    cached!(predict_hits: Counter = counter("serve.cache.predict_hits"));
    cached!(predict_misses: Counter = counter("serve.cache.predict_misses"));
    cached!(queue_depth: Gauge = volatile_gauge("serve.queue.depth"));

    /// `serve.op.<op>.latency_us` for the request's op.
    pub(super) fn op_latency(req: &Request) -> &'static obs::Histogram {
        const OPS: [&str; 7] = ["predict", "analyze", "difftest", "place", "register", "stats", "drain"];
        static HANDLES: OnceLock<Vec<obs::Histogram>> = OnceLock::new();
        let i = match req {
            Request::Predict(_) => 0,
            Request::Analyze(_) => 1,
            Request::Difftest { .. } => 2,
            Request::Place(_) => 3,
            Request::Register(_) => 4,
            Request::Stats => 5,
            Request::Drain => 6,
        };
        &HANDLES.get_or_init(|| {
            OPS.iter()
                .map(|op| obs::volatile_histogram(&format!("serve.op.{op}.latency_us")))
                .collect()
        })[i]
    }
}

struct Shared {
    clara: Arc<Clara>,
    /// Rendered `predict` response bodies (everything after
    /// `"ok":true,`, which does not depend on the request id) by spec +
    /// route. A hit is answered on the connection thread by splicing
    /// the id in front: no engine call, no trace synthesis, no content
    /// hashing (the engine keys its caches by fingerprints that
    /// serialize the module and trace, ~100us per request), no render.
    /// CLOCK eviction past [`PREDICT_CACHE_CAP`] entries.
    predict_cache: Mutex<ClockCache<PredictKey, Arc<str>>>,
    corpus: BTreeMap<String, Module>,
    /// Warm device backends, default (request names none) first.
    backends: Vec<&'static DeviceBackend>,
    registry: Registry,
    /// NIC model used for colocation-interference predictions.
    nic: NicConfig,
    queue: Mutex<QueueState>,
    cv: Condvar,
    stopped: AtomicBool,
    in_flight: AtomicUsize,
    served: AtomicU64,
    overloaded: AtomicU64,
    quota_exceeded: AtomicU64,
    errors: AtomicU64,
    opts: ServeOptions,
    root: obs::SpanHandle,
}

impl Shared {
    /// Resolves the backend a request routes to: the named warm device,
    /// or the default (first) one when the request names none. `None`
    /// means the name is not loaded. (Tenant defaults are already
    /// materialized into the spec at dispatch.)
    fn backend_of(&self, w: &WorkSpec) -> Option<&'static DeviceBackend> {
        match &w.backend {
            None => Some(self.backends[0]),
            Some(name) => self.backends.iter().copied().find(|b| b.name() == name),
        }
    }

    /// The backend name a spec effectively runs under (for coalescing).
    fn effective_backend<'a>(&self, w: &'a WorkSpec) -> &'a str {
        w.backend.as_deref().unwrap_or_else(|| self.backends[0].name())
    }

    /// The precision a spec effectively runs at: its own request field,
    /// or the server's configured default.
    fn effective_precision(&self, w: &WorkSpec) -> Precision {
        w.precision.unwrap_or(self.opts.precision)
    }

    /// The prediction-cache key of a validated predict spec.
    fn predict_key(&self, w: &WorkSpec) -> PredictKey {
        let backend = self.backend_of(w).expect("validated at admission").name();
        (
            w.nf.clone(),
            w.packets,
            w.seed,
            w.small_flows,
            backend,
            self.effective_precision(w),
        )
    }

    fn queue_gauge(&self, depth: usize) {
        metric::queue_depth().set(depth as f64);
    }

    /// Counts an admission refusal against the global total and the
    /// tenant, and renders its typed error.
    fn refuse(&self, id: Option<u64>, tenant: &Tenant, refusal: Refusal) -> String {
        match refusal {
            Refusal::Draining => {
                // A lifecycle refusal, not a failure: like `overloaded`
                // and `quota_exceeded` it stays out of `errors`, which
                // tallies client mistakes and internal faults only.
                obs::volatile_counter("serve.draining.rejected").incr();
                protocol::error_response(
                    id,
                    ErrorKind::Draining,
                    "server is draining and no longer admits work",
                )
            }
            Refusal::Overloaded => {
                self.overloaded.fetch_add(1, Ordering::SeqCst);
                tenant.stats.overloaded.fetch_add(1, Ordering::SeqCst);
                obs::volatile_counter("serve.overloaded").incr();
                protocol::error_response(
                    id,
                    ErrorKind::Overloaded,
                    &format!("queue at capacity ({})", self.opts.queue_cap),
                )
            }
            Refusal::QuotaExceeded => {
                self.quota_exceeded.fetch_add(1, Ordering::SeqCst);
                tenant.stats.quota_exceeded.fetch_add(1, Ordering::SeqCst);
                obs::volatile_counter("serve.quota_exceeded").incr();
                protocol::error_response(
                    id,
                    ErrorKind::QuotaExceeded,
                    &format!("tenant `{}` is at its quota ({})", tenant.name, tenant.quota),
                )
            }
        }
    }

    /// Counts one failed request against the global total and exactly
    /// one tenant (the invariant that keeps per-tenant counters summing
    /// to [`ServeSummary`]).
    fn count_error(&self, tenant: &Tenant) {
        self.errors.fetch_add(1, Ordering::SeqCst);
        tenant.stats.errors.fetch_add(1, Ordering::SeqCst);
    }

    /// The tenant to charge a failure to when the request's own tenant
    /// may not exist: the named one if registered, else the default.
    fn charge_tenant(&self, name: Option<&str>) -> Arc<Tenant> {
        self.registry
            .resolve(name)
            .unwrap_or_else(|| self.registry.default_tenant())
    }

    /// Stops admission — under the queue lock, so it linearizes against
    /// [`QueueState::refusal`] — and wakes everyone who might be waiting.
    fn begin_drain(&self) {
        self.queue.lock().expect("queue poisoned").draining = true;
        self.cv.notify_all();
    }

    /// Blocks until the queue is empty and nothing is in flight.
    fn await_quiesce(&self) {
        loop {
            let empty = self.queue.lock().expect("queue poisoned").total == 0;
            if empty && self.in_flight.load(Ordering::SeqCst) == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// The `clara serve` daemon.
pub struct Server;

/// A running server. Dropping the handle does not stop it; drain it
/// (wire op, [`ServerHandle::drain`], or SIGTERM) and [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    uds_path: Option<String>,
    /// Root span kept open for the server's lifetime so every request's
    /// spans parent under it; closed in [`ServerHandle::join`] right
    /// before the final report capture.
    root_guard: Option<obs::SpanGuard>,
}

impl Server {
    /// Binds, spawns the worker pool and acceptor(s), and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`ClaraError::Serve`] when the TCP address or UDS path cannot be
    /// bound or a worker or acceptor thread cannot be spawned (CLI exit
    /// code 7); [`ClaraError::Manifest`] when
    /// `opts.backends` names a device that is not built in (exit code 8).
    pub fn start(opts: ServeOptions, clara: Arc<Clara>) -> Result<ServerHandle, ClaraError> {
        let backend_names = if opts.backends.is_empty() {
            vec![clara_hal::DEFAULT_BACKEND.to_string()]
        } else {
            opts.backends.clone()
        };
        let backends = difftest::resolve_backends(&backend_names)?;
        let listener = TcpListener::bind(&opts.addr).map_err(|e| ClaraError::Serve {
            detail: format!("cannot bind {}: {e}", opts.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| ClaraError::Serve {
            detail: format!("cannot read bound address: {e}"),
        })?;
        listener.set_nonblocking(true).map_err(|e| ClaraError::Serve {
            detail: format!("cannot set nonblocking accept: {e}"),
        })?;
        #[cfg(unix)]
        let uds_listener = match &opts.uds_path {
            Some(path) => Some(bind_uds(path)?),
            None => None,
        };
        #[cfg(not(unix))]
        if let Some(path) = &opts.uds_path {
            return Err(ClaraError::Serve {
                detail: format!("unix-domain sockets are not available on this platform ({path})"),
            });
        }

        // Process-wide settings changed below, restored if a spawn fails.
        let prior_engine = opts.deadline.map(|_| engine::configured());
        let prior_obs = obs::enabled();
        if let Some(d) = opts.deadline {
            let mut eo = engine::configured();
            eo.stage_deadline = Some(d);
            engine::configure(&eo);
        }

        obs::enable();
        let root_guard = obs::span("clara-serve");
        let root = root_guard.handle();

        let corpus = click_model::extended_corpus()
            .into_iter()
            .map(|e| (e.name().to_string(), e.module))
            .collect();

        let workers = opts.workers.max(1);
        let shared = Arc::new(Shared {
            clara,
            predict_cache: Mutex::new(ClockCache::new(PREDICT_CACHE_CAP)),
            corpus,
            backends,
            registry: Registry::new(workers, opts.queue_cap),
            nic: NicConfig::default(),
            queue: Mutex::new(QueueState {
                queues: BTreeMap::new(),
                ring: VecDeque::new(),
                total: 0,
                draining: false,
            }),
            cv: Condvar::new(),
            stopped: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            quota_exceeded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            opts: opts.clone(),
            root,
        });

        // Workers first, then acceptors; a failed spawn stops and joins
        // every thread already started and restores the prior settings.
        let mut started = Vec::with_capacity(workers + 2);
        let undo = Undo {
            shared: &shared,
            uds_path: opts.uds_path.as_deref(),
            engine: prior_engine,
            obs_enabled: prior_obs,
        };
        for i in 0..workers {
            let s = Arc::clone(&shared);
            let name = format!("clara-serve-worker-{i}");
            spawn_or_abandon(&mut started, &undo, name, move || worker_loop(&s, i))?;
        }
        let s = Arc::clone(&shared);
        let name = "clara-serve-accept".to_string();
        spawn_or_abandon(&mut started, &undo, name, move || accept_loop(&listener, &s))?;
        #[cfg(unix)]
        if let Some(l) = uds_listener {
            let s = Arc::clone(&shared);
            let name = "clara-serve-accept-uds".to_string();
            spawn_or_abandon(&mut started, &undo, name, move || uds_accept_loop(&l, &s))?;
        }
        let acceptors = started.split_off(workers);
        let workers = started;

        Ok(ServerHandle {
            addr,
            shared,
            acceptors,
            workers,
            uds_path: opts.uds_path.clone(),
            root_guard: Some(root_guard),
        })
    }
}

/// What a failed [`Server::start`] takes down or puts back: the
/// half-started server, its socket file, and the process-wide settings
/// it changed — the engine options (only when a deadline replaced them)
/// and whether obs recording was on.
struct Undo<'a> {
    shared: &'a Shared,
    uds_path: Option<&'a str>,
    engine: Option<EngineOptions>,
    obs_enabled: bool,
}

/// Spawns one of the server's long-lived threads into `started`. When
/// the OS refuses, `undo` is applied instead — workers exit once
/// draining with an empty queue, acceptors once stopped — and the
/// failure is a [`ClaraError::Serve`], not a panic.
fn spawn_or_abandon(
    started: &mut Vec<JoinHandle<()>>,
    undo: &Undo,
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> Result<(), ClaraError> {
    match std::thread::Builder::new().name(name.clone()).spawn(body) {
        Ok(t) => {
            started.push(t);
            Ok(())
        }
        Err(e) => {
            undo.shared.begin_drain();
            undo.shared.stopped.store(true, Ordering::SeqCst);
            for t in started.drain(..) {
                let _ = t.join();
            }
            if let Some(path) = undo.uds_path {
                let _ = std::fs::remove_file(path);
            }
            if let Some(eo) = &undo.engine {
                engine::configure(eo);
            }
            if !undo.obs_enabled {
                obs::disable();
            }
            Err(ClaraError::Serve {
                detail: format!("cannot spawn thread `{name}`: {e}"),
            })
        }
    }
}

/// Spawns a detached connection thread. When the OS refuses, the
/// stream — moved into `serve`, which the failed spawn drops — closes:
/// that one client loses its connection, `serve.conn.spawn_failed`
/// counts it, and the acceptor keeps serving everyone else.
fn spawn_conn(name: &str, serve: impl FnOnce() + Send + 'static) {
    if std::thread::Builder::new()
        .name(name.to_string())
        .spawn(serve)
        .is_err()
    {
        obs::volatile_counter("serve.conn.spawn_failed").incr();
    }
}

#[cfg(unix)]
fn bind_uds(path: &str) -> Result<UnixListener, ClaraError> {
    // A previous daemon's socket file would make bind fail; it is dead
    // by definition (we are about to own the path), so clear it.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| ClaraError::Serve {
        detail: format!("cannot bind unix socket {path}: {e}"),
    })?;
    listener.set_nonblocking(true).map_err(|e| ClaraError::Serve {
        detail: format!("cannot set nonblocking UDS accept: {e}"),
    })?;
    Ok(listener)
}

impl ServerHandle {
    /// The actual bound TCP address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The Unix-socket path, when the `uds` transport is enabled.
    pub fn uds_path(&self) -> Option<&str> {
        self.uds_path.as_deref()
    }

    /// Programmatic drain: stop admission and (once quiesced) the
    /// acceptors. Equivalent to the wire `drain` op minus the report
    /// response.
    pub fn drain(&self) {
        self.shared.begin_drain();
        self.shared.await_quiesce();
        self.shared.stopped.store(true, Ordering::SeqCst);
    }

    /// Waits for the acceptors and workers to exit (i.e. for a drain to
    /// complete), closes the root span, writes a final run report when a
    /// `CLARA_REPORT` sink is configured, and returns the lifetime
    /// summary.
    pub fn join(mut self) -> ServeSummary {
        for a in self.acceptors.drain(..) {
            a.join().expect("acceptor thread panicked");
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
        drop(self.root_guard.take());
        if let Some(raw) = obs::sink_from_env() {
            let path = obs::resolve_sink(&raw, "clara_serve.json");
            if let Err(e) = obs::RunReport::capture().write(&path) {
                eprintln!("warning: could not write report to {}: {e}", path.display());
            }
        }
        ServeSummary {
            served: self.shared.served.load(Ordering::SeqCst),
            overloaded: self.shared.overloaded.load(Ordering::SeqCst),
            quota_exceeded: self.shared.quota_exceeded.load(Ordering::SeqCst),
            errors: self.shared.errors.load(Ordering::SeqCst),
        }
    }
}

// ---- acceptors ---------------------------------------------------------

fn accept_loop(listener: &TcpListener, s: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let s = Arc::clone(s);
                // Connection threads are deliberately detached: they park
                // on blocking reads for as long as the client keeps the
                // connection open, so joining them would hand shutdown
                // latency to the slowest client.
                spawn_conn("clara-serve-conn", move || handle_conn(stream, &s));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
        if term::signaled() && !s.stopped.load(Ordering::SeqCst) {
            s.begin_drain();
            s.await_quiesce();
            s.stopped.store(true, Ordering::SeqCst);
        }
        if s.stopped.load(Ordering::SeqCst) {
            return;
        }
    }
}

#[cfg(unix)]
fn uds_accept_loop(listener: &UnixListener, s: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let s = Arc::clone(s);
                spawn_conn("clara-serve-conn-uds", move || handle_conn_framed(stream, &s));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
        if s.stopped.load(Ordering::SeqCst) {
            return;
        }
    }
}

// ---- connection threads ------------------------------------------------

fn handle_conn(stream: TcpStream, s: &Arc<Shared>) {
    // One write per response and no Nagle buffering: a request/response
    // protocol of small frames would otherwise serialize on ~40ms
    // delayed-ACK stalls.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let mut response = handle_line(&line, s);
        response.push('\n');
        if writer.write_all(response.as_bytes()).is_err() {
            return;
        }
        let _ = writer.flush();
        if s.stopped.load(Ordering::SeqCst) {
            return;
        }
    }
}

#[cfg(unix)]
fn handle_conn_framed(stream: UnixStream, s: &Arc<Shared>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = stream;
    // Both buffers live for the whole connection: zero per-request
    // allocation on the framing path (the point of the uds transport).
    let mut read_buf = Vec::with_capacity(4096);
    let mut write_buf = Vec::with_capacity(4096);
    loop {
        let line = match transport::read_frame(&mut reader, &mut read_buf) {
            Ok(Some(line)) => line,
            Ok(None) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(&line, s);
        if transport::write_frame(&mut writer, &mut write_buf, &response).is_err() {
            return;
        }
        if s.stopped.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn handle_line(line: &str, s: &Arc<Shared>) -> String {
    let started = Instant::now();
    let env = match protocol::parse_request(line) {
        Ok(env) => env,
        Err(detail) => {
            // Parse failures have no attributable tenant; they count
            // against `default` so totals still reconcile.
            s.count_error(&s.registry.default_tenant());
            return protocol::error_response(None, ErrorKind::BadRequest, &detail);
        }
    };
    let latency = metric::op_latency(&env.req);
    let response = dispatch(env, s);
    latency.observe(started.elapsed().as_micros() as f64);
    response
}

fn dispatch(env: Envelope, s: &Arc<Shared>) -> String {
    let Envelope { id, tenant, req } = env;
    match req {
        Request::Stats => stats_inline(id, s),
        Request::Drain => drain_inline(id, s),
        Request::Register(spec) => register_inline(id, tenant.as_deref(), spec, s),
        req => match s.registry.resolve(tenant.as_deref()) {
            Some(t) => dispatch_work(id, t, req, s),
            None => {
                s.count_error(&s.charge_tenant(None));
                protocol::error_response(
                    id,
                    ErrorKind::UnknownTenant,
                    &format!(
                        "`{}` is not a registered tenant (send op:\"register\" first)",
                        tenant.as_deref().unwrap_or("?")
                    ),
                )
            }
        },
    }
}

/// Checks an NF name against the tenant's registered set (empty set:
/// whole corpus admitted).
fn tenant_admits(t: &Tenant, nf: &str) -> bool {
    t.nfs.is_empty() || t.nfs.iter().any(|n| n == nf)
}

fn dispatch_work(id: Option<u64>, t: Arc<Tenant>, req: Request, s: &Arc<Shared>) -> String {
    // Materialize the tenant's registered defaults into the spec before
    // validation so coalescing and routing see one resolved value.
    let req = match req {
        Request::Predict(mut w) => {
            w.backend = w.backend.or_else(|| t.backend.clone());
            w.precision = w.precision.or(t.precision);
            Request::Predict(w)
        }
        Request::Analyze(mut w) => {
            w.backend = w.backend.or_else(|| t.backend.clone());
            w.precision = w.precision.or(t.precision);
            Request::Analyze(w)
        }
        Request::Place(mut r) => {
            r.backend = r.backend.or_else(|| t.backend.clone());
            r.precision = r.precision.or(t.precision);
            Request::Place(r)
        }
        other => other,
    };
    match req {
        Request::Predict(w) | Request::Analyze(w) if !s.corpus.contains_key(&w.nf) => {
            s.count_error(&t);
            protocol::error_response(
                id,
                ErrorKind::UnknownNf,
                &format!("`{}` is not in the corpus (see `clara list`)", w.nf),
            )
        }
        Request::Predict(w) | Request::Analyze(w) if !tenant_admits(&t, &w.nf) => {
            s.count_error(&t);
            protocol::error_response(
                id,
                ErrorKind::UnknownNf,
                &format!("`{}` is not in tenant `{}`'s registered NF set", w.nf, t.name),
            )
        }
        Request::Predict(w) | Request::Analyze(w) if s.backend_of(&w).is_none() => {
            s.count_error(&t);
            let loaded: Vec<&str> = s.backends.iter().map(|b| b.name()).collect();
            protocol::error_response(
                id,
                ErrorKind::UnknownBackend,
                &format!(
                    "`{}` is not a warm backend (loaded: {})",
                    w.backend.as_deref().unwrap_or("?"),
                    loaded.join(", ")
                ),
            )
        }
        Request::Place(r) if r.nfs.iter().any(|nf| !s.corpus.contains_key(nf)) => {
            s.count_error(&t);
            let unknown = r
                .nfs
                .iter()
                .find(|nf| !s.corpus.contains_key(*nf))
                .expect("guard found one");
            protocol::error_response(
                id,
                ErrorKind::UnknownNf,
                &format!("`{unknown}` is not in the corpus (see `clara list`)"),
            )
        }
        Request::Place(r) if r.nfs.iter().any(|nf| !tenant_admits(&t, nf)) => {
            s.count_error(&t);
            let outside = r
                .nfs
                .iter()
                .find(|nf| !tenant_admits(&t, nf))
                .expect("guard found one");
            protocol::error_response(
                id,
                ErrorKind::UnknownNf,
                &format!("`{outside}` is not in tenant `{}`'s registered NF set", t.name),
            )
        }
        Request::Place(r)
            if r.backend
                .as_deref()
                .is_some_and(|n| !s.backends.iter().any(|b| b.name() == n)) =>
        {
            s.count_error(&t);
            let loaded: Vec<&str> = s.backends.iter().map(|b| b.name()).collect();
            protocol::error_response(
                id,
                ErrorKind::UnknownBackend,
                &format!(
                    "`{}` is not a warm backend (loaded: {})",
                    r.backend.as_deref().unwrap_or("?"),
                    loaded.join(", ")
                ),
            )
        }
        Request::Predict(w) => {
            let key = s.predict_key(&w);
            let hit = s.predict_cache.lock().expect("predict cache lock").get(&key).cloned();
            match hit {
                Some(body) => answer_hit(id, &t, &body, s),
                None => enqueue_and_wait(id, t, JobKind::Predict(w), s),
            }
        }
        Request::Analyze(w) => enqueue_and_wait(id, t, JobKind::Analyze(w), s),
        Request::Difftest { seeds, start, pkts } => {
            enqueue_and_wait(id, t, JobKind::Difftest { seeds, start, pkts }, s)
        }
        Request::Place(r) => enqueue_and_wait(id, t, JobKind::Place(r), s),
        Request::Register(_) | Request::Stats | Request::Drain => {
            unreachable!("inline ops handled before dispatch_work")
        }
    }
}

fn enqueue_and_wait(id: Option<u64>, tenant: Arc<Tenant>, kind: JobKind, s: &Arc<Shared>) -> String {
    let (tx, rx) = mpsc::channel();
    {
        let mut qs = s.queue.lock().expect("queue poisoned");
        // Admission is one linearized decision under the lock: the
        // drain flag, the shared capacity, and the tenant quota are all
        // judged against the same queue state. In particular a job
        // admitted here is *guaranteed* a live worker pool — workers
        // only exit after observing `draining && total == 0` under this
        // same lock.
        if let Some(refusal) = qs.refusal(&tenant, s.opts.queue_cap) {
            drop(qs);
            return s.refuse(id, &tenant, refusal);
        }
        let tq = qs
            .queues
            .entry(tenant.name.clone())
            .or_insert_with(|| TenantQueue {
                tenant: Arc::clone(&tenant),
                jobs: VecDeque::new(),
                deficit: 0,
            });
        let was_empty = tq.jobs.is_empty();
        // Refresh the queue's view of the tenant so a re-registration's
        // new quota/defaults apply from the next admission on.
        tq.tenant = Arc::clone(&tenant);
        tq.jobs.push_back(Job {
            id,
            tenant: Arc::clone(&tenant),
            kind,
            enqueued: Instant::now(),
            resp: tx,
        });
        qs.total += 1;
        if was_empty {
            qs.ring.push_back(tenant.name.clone());
        }
        s.queue_gauge(qs.total);
    }
    // notify_all, not notify_one: with sharded workers the one woken
    // thread may serve a different shard and go straight back to sleep.
    s.cv.notify_all();
    // The worker pool always answers every admitted job — including
    // during drain, which finishes the queue before workers exit.
    rx.recv().unwrap_or_else(|_| {
        protocol::error_response(id, ErrorKind::Internal, "worker dropped the request")
    })
}

/// Answers a prediction-cache hit on the connection thread from its
/// rendered `body`. The hit passes the same admission step as a queued
/// job, under the queue lock, and is counted in flight before the lock
/// drops, so a drain that flips after admission waits for it.
fn answer_hit(id: Option<u64>, tenant: &Tenant, body: &str, s: &Shared) -> String {
    {
        let qs = s.queue.lock().expect("queue poisoned");
        if let Some(refusal) = qs.refusal(tenant, s.opts.queue_cap) {
            drop(qs);
            return s.refuse(id, tenant, refusal);
        }
        s.in_flight.fetch_add(1, Ordering::SeqCst);
    }
    metric::predict_ops().incr();
    metric::predict_hits().incr();
    s.served.fetch_add(1, Ordering::SeqCst);
    tenant.stats.served.fetch_add(1, Ordering::SeqCst);
    let response = protocol::ok_response(id, body);
    s.in_flight.fetch_sub(1, Ordering::SeqCst);
    response
}

fn register_inline(
    id: Option<u64>,
    tenant_name: Option<&str>,
    spec: RegisterSpec,
    s: &Arc<Shared>,
) -> String {
    let Some(name) = tenant_name else {
        s.count_error(&s.charge_tenant(None));
        return protocol::error_response(
            id,
            ErrorKind::BadRequest,
            "op \"register\" requires a `tenant` name",
        );
    };
    // No registration during drain: the shard layout must stay frozen
    // while workers finish the queue.
    if s.queue.lock().expect("queue poisoned").draining {
        s.count_error(&s.charge_tenant(Some(name)));
        return protocol::error_response(
            id,
            ErrorKind::Draining,
            "server is draining and no longer accepts registrations",
        );
    }
    if let Some(unknown) = spec.nfs.iter().find(|nf| !s.corpus.contains_key(*nf)) {
        s.count_error(&s.charge_tenant(Some(name)));
        return protocol::error_response(
            id,
            ErrorKind::UnknownNf,
            &format!("`{unknown}` is not in the corpus (see `clara list`)"),
        );
    }
    if let Some(b) = &spec.backend {
        if !s.backends.iter().any(|w| w.name() == b.as_str()) {
            s.count_error(&s.charge_tenant(Some(name)));
            let loaded: Vec<&str> = s.backends.iter().map(|w| w.name()).collect();
            return protocol::error_response(
                id,
                ErrorKind::UnknownBackend,
                &format!("`{b}` is not a warm backend (loaded: {})", loaded.join(", ")),
            );
        }
    }
    let cap = s.opts.queue_cap as u64;
    let quota = spec.quota.unwrap_or(cap).clamp(1, cap) as usize;
    let profile = if spec.nfs.is_empty() {
        None
    } else {
        let modules: Vec<&Module> = spec
            .nfs
            .iter()
            .map(|nf| s.corpus.get(nf).expect("validated above"))
            .collect();
        clara_core::representative_profile(&modules, &s.nic)
    };
    let t = s
        .registry
        .register(name, spec.nfs, spec.backend, spec.precision, quota, profile);
    obs::counter("serve.ops.register").incr();
    publish_coloc_gauges(s);
    protocol::register_response(id, name, t.shard, t.quota, &t.nfs)
}

/// Publishes the pairwise interference predictions as deterministic
/// gauges (`serve.coloc.<a>~<b>.loss_pct` = what `a` loses when
/// colocated with `b`), so the drain report carries the fleet's
/// interference map. Pure model outputs — safe for byte-identical
/// deterministic reports.
fn publish_coloc_gauges(s: &Arc<Shared>) {
    for p in s.registry.coloc_pairs(&s.nic) {
        obs::gauge(&format!("serve.coloc.{}~{}.loss_pct", p.a, p.b))
            .set(p.interference.a_loss_pct);
        obs::gauge(&format!("serve.coloc.{}~{}.loss_pct", p.b, p.a))
            .set(p.interference.b_loss_pct);
    }
}

fn stats_inline(id: Option<u64>, s: &Arc<Shared>) -> String {
    let (depth, draining, queued_by_tenant) = {
        let qs = s.queue.lock().expect("queue poisoned");
        let queued: BTreeMap<String, u64> = qs
            .queues
            .iter()
            .map(|(name, tq)| (name.clone(), tq.jobs.len() as u64))
            .collect();
        (qs.total, qs.draining, queued)
    };
    let es = engine::EngineStats::snapshot();
    let tenants = s
        .registry
        .snapshot()
        .iter()
        .map(|t| {
            let (served, overloaded, quota_exceeded, errors) = t.stats.snapshot();
            Value::Map(vec![
                ("name".to_string(), Value::Str(t.name.clone())),
                ("shard".to_string(), Value::UInt(t.shard as u64)),
                ("quota".to_string(), Value::UInt(t.quota as u64)),
                (
                    "queued".to_string(),
                    Value::UInt(queued_by_tenant.get(&t.name).copied().unwrap_or(0)),
                ),
                ("served".to_string(), Value::UInt(served)),
                ("overloaded".to_string(), Value::UInt(overloaded)),
                ("quota_exceeded".to_string(), Value::UInt(quota_exceeded)),
                ("errors".to_string(), Value::UInt(errors)),
            ])
        })
        .collect();
    let coloc = s
        .registry
        .coloc_pairs(&s.nic)
        .iter()
        .map(|p| {
            Value::Map(vec![
                ("a".to_string(), Value::Str(p.a.clone())),
                ("b".to_string(), Value::Str(p.b.clone())),
                ("a_loss_pct".to_string(), Value::Float(p.interference.a_loss_pct)),
                ("b_loss_pct".to_string(), Value::Float(p.interference.b_loss_pct)),
            ])
        })
        .collect();
    let fields = vec![
        ("queue_depth".to_string(), Value::UInt(depth as u64)),
        (
            "in_flight".to_string(),
            Value::UInt(s.in_flight.load(Ordering::SeqCst) as u64),
        ),
        (
            "served".to_string(),
            Value::UInt(s.served.load(Ordering::SeqCst)),
        ),
        (
            "overloaded".to_string(),
            Value::UInt(s.overloaded.load(Ordering::SeqCst)),
        ),
        (
            "quota_exceeded".to_string(),
            Value::UInt(s.quota_exceeded.load(Ordering::SeqCst)),
        ),
        (
            "errors".to_string(),
            Value::UInt(s.errors.load(Ordering::SeqCst)),
        ),
        ("draining".to_string(), Value::Bool(draining)),
        (
            "workers".to_string(),
            Value::UInt(s.opts.workers.max(1) as u64),
        ),
        (
            "shards".to_string(),
            Value::UInt(s.registry.shard_count() as u64),
        ),
        (
            "queue_cap".to_string(),
            Value::UInt(s.opts.queue_cap as u64),
        ),
        (
            "batch_max".to_string(),
            Value::UInt(s.opts.batch_max as u64),
        ),
        (
            "precision".to_string(),
            Value::Str(s.opts.precision.as_str().to_string()),
        ),
        (
            "backends".to_string(),
            Value::Seq(
                s.backends
                    .iter()
                    .map(|b| Value::Str(b.name().to_string()))
                    .collect(),
            ),
        ),
        ("tenants".to_string(), Value::Seq(tenants)),
        ("coloc".to_string(), Value::Seq(coloc)),
        ("compile_hits".to_string(), Value::UInt(es.compile_hits)),
        ("compile_misses".to_string(), Value::UInt(es.compile_misses)),
        ("profile_hits".to_string(), Value::UInt(es.profile_hits)),
        ("profile_misses".to_string(), Value::UInt(es.profile_misses)),
        ("disk_hits".to_string(), Value::UInt(es.disk_hits)),
        (
            "disk_recomputes".to_string(),
            Value::UInt(es.disk_recomputes),
        ),
    ];
    protocol::stats_response(id, fields)
}

fn drain_inline(id: Option<u64>, s: &Arc<Shared>) -> String {
    s.begin_drain();
    s.await_quiesce();
    let served = s.served.load(Ordering::SeqCst);
    // Open spans snapshot with zero length, so capturing while the root
    // span is still open is well-defined; the deterministic rendering
    // strips timestamps anyway.
    let report_json = obs::RunReport::capture().to_json_deterministic();
    let report = serde_json::parse_value(&report_json)
        .unwrap_or(Value::Str(report_json));
    let response = protocol::drain_response(id, served, report);
    s.stopped.store(true, Ordering::SeqCst);
    response
}

// ---- workers -----------------------------------------------------------

/// One deficit-round-robin visit for the given worker: scan the ring
/// for the first tenant on this worker's shard, grant it a quantum of
/// credit, and take one coalescible batch from its sub-queue. `None`
/// when no ring tenant belongs to this shard.
fn pop_batch(
    qs: &mut MutexGuard<'_, QueueState>,
    worker: usize,
    s: &Arc<Shared>,
) -> Option<Vec<Job>> {
    // Live shard layout: grows as tenants register (capped at the
    // worker count), so a lone tenant is served by every worker while a
    // full fleet gets disjoint worker groups.
    let shard_count = s.registry.shard_count();
    let my_shard = worker % shard_count;
    let quantum = s.opts.batch_max.max(1) as u64;
    let pos = (0..qs.ring.len()).find(|&i| {
        let name = &qs.ring[i];
        qs.queues
            .get(name)
            .is_some_and(|tq| tq.tenant.shard % shard_count == my_shard)
    })?;
    let name = qs.ring.remove(pos).expect("index in bounds");
    let tq = qs.queues.get_mut(&name).expect("ring names a live queue");
    // Unused credit carries to the next visit (bounded to one extra
    // quantum) so a tenant whose batch was cut short by a backend
    // boundary is not perpetually shortchanged.
    tq.deficit = (tq.deficit + quantum).min(2 * quantum);
    let mut batch = vec![tq.jobs.pop_front().expect("ring tenants have jobs")];
    // Only predicts routed to the *same* device at the *same* precision
    // coalesce — one batch, one backend, one inference path, one engine
    // stage. Coalescing never crosses tenant sub-queues.
    if let JobKind::Predict(w0) = &batch[0].kind {
        let backend = s.effective_backend(w0).to_string();
        let precision = s.effective_precision(w0);
        while (batch.len() as u64) < tq.deficit && batch.len() < s.opts.batch_max.max(1) {
            match tq.jobs.front() {
                Some(j)
                    if matches!(
                        &j.kind,
                        JobKind::Predict(w) if s.effective_backend(w) == backend
                            && s.effective_precision(w) == precision
                    ) =>
                {
                    batch.push(tq.jobs.pop_front().expect("front exists"));
                }
                _ => break,
            }
        }
    }
    tq.deficit = tq.deficit.saturating_sub(batch.len() as u64);
    if tq.jobs.is_empty() {
        tq.deficit = 0;
    } else {
        qs.ring.push_back(name);
    }
    qs.total -= batch.len();
    Some(batch)
}

fn worker_loop(s: &Arc<Shared>, worker: usize) {
    loop {
        let batch = {
            let mut qs = s.queue.lock().expect("queue poisoned");
            let batch = loop {
                // The drain flag lives under this lock, so a worker can
                // only exit when no admitted job remains anywhere — the
                // admission path holding the same lock makes
                // "admitted but never served" impossible.
                if qs.draining && qs.total == 0 {
                    return;
                }
                if let Some(batch) = pop_batch(&mut qs, worker, s) {
                    break batch;
                }
                qs = s
                    .cv
                    .wait_timeout(qs, Duration::from_millis(50))
                    .expect("queue poisoned")
                    .0;
            };
            s.in_flight.fetch_add(batch.len(), Ordering::SeqCst);
            s.queue_gauge(qs.total);
            batch
        };
        run_batch(batch, s);
        s.cv.notify_all();
    }
}

/// Splits expired jobs out, answers them with `deadline`, and returns
/// the still-live remainder.
fn reap_expired(batch: Vec<Job>, s: &Arc<Shared>) -> Vec<Job> {
    let Some(deadline) = s.opts.deadline else {
        return batch;
    };
    let mut live = Vec::with_capacity(batch.len());
    for job in batch {
        if job.enqueued.elapsed() > deadline {
            s.count_error(&job.tenant);
            let _ = job.resp.send(protocol::error_response(
                job.id,
                ErrorKind::Deadline,
                &format!("request exceeded its {deadline:?} budget while queued"),
            ));
            s.in_flight.fetch_sub(1, Ordering::SeqCst);
        } else {
            live.push(job);
        }
    }
    live
}

fn run_batch(batch: Vec<Job>, s: &Arc<Shared>) {
    let batch = reap_expired(batch, s);
    if batch.is_empty() {
        return;
    }
    let n = batch.len();
    obs::volatile_histogram("serve.batch.size").observe(n as f64);
    if n > 1 || matches!(batch[0].kind, JobKind::Predict(_)) {
        run_predict_batch(batch, s);
    } else {
        let job = batch.into_iter().next().expect("checked non-empty");
        run_single(job, s);
        s.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn run_predict_batch(batch: Vec<Job>, s: &Arc<Shared>) {
    let n = batch.len();
    metric::predict_ops().add(n as u64);
    // Hits are answered on the connection thread and never queue, so
    // every predict a worker sees is a miss.
    metric::predict_misses().add(n as u64);
    let specs: Vec<&WorkSpec> = batch
        .iter()
        .map(|j| match &j.kind {
            JobKind::Predict(w) => w,
            _ => unreachable!("predict batches contain only predict jobs"),
        })
        .collect();
    // Coalescing admits only same-backend, same-precision predicts, so
    // the whole batch routes to the first spec's device and path.
    let backend = s.backend_of(specs[0]).expect("validated at admission");
    let precision = s.effective_precision(specs[0]);
    // Trace synthesis is itself per-request work worth skipping on a
    // hit, so it happens only here, for the misses.
    let traces: Vec<_> = specs.iter().map(|w| w.trace()).collect();
    let items: Vec<(&Module, &trafgen::Trace)> = specs
        .iter()
        .zip(&traces)
        .map(|(w, t)| (s.corpus.get(&w.nf).expect("validated at admission"), t))
        .collect();
    let engine_results = {
        let span = obs::span_under(s.root, "serve-predict-batch");
        let _ctx = obs::attach(span.handle());
        s.clara.predict(&items, backend, precision)
    };
    let bodies: Vec<Result<Arc<str>, ClaraError>> = specs
        .iter()
        .zip(engine_results)
        .map(|(w, result)| {
            result.map(|p| Arc::from(protocol::predict_body(&w.nf, backend.name(), precision, &p)))
        })
        .collect();
    {
        let mut cache = s.predict_cache.lock().expect("predict cache lock");
        for (w, body) in specs.iter().zip(&bodies) {
            if let Ok(body) = body {
                cache.insert(s.predict_key(w), Arc::clone(body));
            }
        }
    }
    for (job, body) in batch.iter().zip(bodies) {
        let response = match body {
            Ok(body) => {
                s.served.fetch_add(1, Ordering::SeqCst);
                job.tenant.stats.served.fetch_add(1, Ordering::SeqCst);
                protocol::ok_response(job.id, &body)
            }
            Err(e) => {
                s.count_error(&job.tenant);
                protocol::error_response(job.id, ErrorKind::Internal, &e.to_string())
            }
        };
        let _ = job.resp.send(response);
    }
    s.in_flight.fetch_sub(n, Ordering::SeqCst);
}

fn run_single(job: Job, s: &Arc<Shared>) {
    let response = match &job.kind {
        JobKind::Predict(_) => unreachable!("predict jobs go through the batch path"),
        JobKind::Analyze(w) => {
            obs::counter("serve.ops.analyze").incr();
            let module = s.corpus.get(&w.nf).expect("validated at admission");
            let backend = s.backend_of(w).expect("validated at admission");
            let precision = s.effective_precision(w);
            let trace = w.trace();
            let outcome = {
                let span = obs::span_under(s.root, "serve-analyze");
                let _ctx = obs::attach(span.handle());
                s.clara.analyze(module, &trace, backend, precision)
            };
            match outcome {
                Ok(ins) => {
                    s.served.fetch_add(1, Ordering::SeqCst);
                    job.tenant.stats.served.fetch_add(1, Ordering::SeqCst);
                    protocol::analyze_response(
                        job.id,
                        &w.nf,
                        backend.name(),
                        precision,
                        module,
                        &ins,
                    )
                }
                Err(e) => {
                    s.count_error(&job.tenant);
                    protocol::error_response(job.id, ErrorKind::Internal, &e.to_string())
                }
            }
        }
        JobKind::Place(r) => {
            obs::counter("serve.ops.place").incr();
            let backend = match &r.backend {
                None => s.backends[0],
                Some(name) => s
                    .backends
                    .iter()
                    .copied()
                    .find(|b| b.name() == name.as_str())
                    .expect("validated at admission"),
            };
            let precision = r.precision.unwrap_or(s.opts.precision);
            let outcome = {
                let span = obs::span_under(s.root, "serve-place");
                let _ctx = obs::attach(span.handle());
                s.clara.place_on_prec(r, backend, precision)
            };
            match outcome {
                Ok(plan) => {
                    s.served.fetch_add(1, Ordering::SeqCst);
                    job.tenant.stats.served.fetch_add(1, Ordering::SeqCst);
                    protocol::place_response(job.id, &plan)
                }
                Err(e) => {
                    s.count_error(&job.tenant);
                    let kind = match &e {
                        ClaraError::Placement {
                            kind: PlacementFailure::Infeasible,
                            ..
                        } => ErrorKind::Infeasible,
                        ClaraError::Placement {
                            kind: PlacementFailure::UnknownNf,
                            ..
                        } => ErrorKind::UnknownNf,
                        _ => ErrorKind::Internal,
                    };
                    protocol::error_response(job.id, kind, &e.to_string())
                }
            }
        }
        JobKind::Difftest { seeds, start, pkts } => {
            obs::counter("serve.ops.difftest").incr();
            let cfg = DifftestConfig {
                seeds: *seeds,
                start_seed: *start,
                pkts: *pkts,
                shrink: false,
                artifact_dir: None,
                inject: None,
                ..DifftestConfig::default()
            };
            let outcome = {
                let span = obs::span_under(s.root, "serve-difftest");
                let _ctx = obs::attach(span.handle());
                difftest::run(&cfg)
            };
            match outcome {
                Ok(report) => {
                    s.served.fetch_add(1, Ordering::SeqCst);
                    job.tenant.stats.served.fetch_add(1, Ordering::SeqCst);
                    protocol::difftest_response(
                        job.id,
                        report.checked as u64,
                        report.divergent.len() as u64,
                        report.engine_failures as u64,
                    )
                }
                Err(e) => {
                    s.count_error(&job.tenant);
                    protocol::error_response(job.id, ErrorKind::Internal, &e.to_string())
                }
            }
        }
    };
    let _ = job.resp.send(response);
}

// ---- SIGTERM -----------------------------------------------------------

#[cfg(unix)]
mod term {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    pub fn install() {
        const SIGTERM: i32 = 15;
        unsafe {
            let _ = signal(SIGTERM, on_term);
        }
    }

    pub fn signaled() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term {
    pub fn install() {}

    pub fn signaled() -> bool {
        false
    }
}

/// Installs a SIGTERM handler that triggers a graceful drain (the
/// acceptor polls it). No-op on non-unix platforms.
pub fn install_sigterm_drain() {
    term::install();
}

#[cfg(test)]
mod tests {
    use super::ClockCache;

    fn contains(c: &ClockCache<&'static str, u32>, key: &str) -> bool {
        c.index.contains_key(key)
    }

    #[test]
    fn clock_cache_evicts_the_oldest_unreferenced_entry() {
        let mut c = ClockCache::new(3);
        for (i, k) in ["a", "b", "c"].into_iter().enumerate() {
            c.insert(k, i as u32);
        }
        // Re-reference the oldest entry: it earns a second chance.
        assert_eq!(c.get(&"a"), Some(&0));
        c.insert("d", 3);
        assert!(!contains(&c, "b"), "b is the oldest unreferenced entry");
        for k in ["a", "c", "d"] {
            assert!(contains(&c, k), "{k} must survive");
        }
        // The sweep spent a's chance; c is next in clock order.
        c.insert("e", 4);
        assert!(!contains(&c, "c"));
        // Referenced again, a outlives the newer unreferenced d.
        assert_eq!(c.get(&"a"), Some(&0));
        c.insert("f", 5);
        assert!(!contains(&c, "d"));
        for k in ["a", "e", "f"] {
            assert!(contains(&c, k), "{k} must survive");
        }
        assert_eq!(c.slots.len(), 3, "capacity is never exceeded");
    }

    #[test]
    fn clock_cache_overwrites_in_place() {
        let mut c = ClockCache::new(2);
        c.insert("a", 1);
        c.insert("a", 2);
        c.insert("b", 3);
        assert_eq!(c.get(&"a"), Some(&2));
        assert_eq!(c.get(&"b"), Some(&3));
        assert_eq!(c.slots.len(), 2);
    }
}
