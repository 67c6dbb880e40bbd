//! Deterministic, fault-tolerant parallel corpus-evaluation engine.
//!
//! Clara's training pipeline spends nearly all of its time in two
//! embarrassingly parallel fan-outs: compiling a synthesized corpus with
//! the vendor compiler (`nfcc`) and profiling a corpus × workload matrix
//! on the simulator (`nic-sim`). This module provides the shared
//! machinery all of them run through:
//!
//! - **a fixed worker pool** ([`par_map`]/[`try_par_map`]) built on
//!   `std::thread::scope` — no work-stealing runtime, no dependency;
//! - **fault tolerance**: every task runs under `catch_unwind` with a
//!   bounded, deterministic retry schedule and an optional per-stage
//!   deadline; stages return the successes plus a structured
//!   [`TaskFailure`] list ([`StageOutcome`]) instead of aborting;
//! - **fault injection** ([`FaultPlan`], `CLARA_FAULTS`): seeded,
//!   deterministic panics/errors/stalls on chosen tasks — the test
//!   substrate for the machinery above;
//! - **two memo caches** behind the [`Engine`] handle
//!   ([`Engine::compile_cached`], [`Engine::profile_cached`]): each
//!   distinct module compiles at most once per process, and setup-free
//!   profiling runs are memoized on `(module, trace, port, NIC config)`
//!   fingerprints. With a cache directory configured
//!   ([`EngineOptions::cache_dir`] or `CLARA_CACHE_DIR`) both are layered
//!   over a persistent content-addressed artifact store (the `diskcache`
//!   module) that survives the process;
//! - **[`EngineStats`]**: per-stage task counts and wall/CPU time plus
//!   cache hit rates, printed by the bench binaries.
//!
//! # Configuration
//!
//! [`EngineOptions`] bundles the worker count, retry budget, stage
//! deadline, fault plan, and cache directory; [`configure`] installs a
//! process-wide default (done by `Clara::train` from
//! [`crate::ClaraConfig`]). Environment variables override the
//! configured options, and **this module is the workspace's only env-read
//! site** for engine knobs: `CLARA_THREADS` (worker count; beaten only by
//! the [`set_threads`] test override), `CLARA_FAULTS`
//! (`<seed>:<rate>[:<depth>]`), and `CLARA_CACHE_DIR`.
//!
//! # Determinism
//!
//! Parallel runs are bit-identical to serial runs. [`par_map`] assigns
//! tasks by index and returns results in input order; every task is a
//! pure function of its input, and all caches key on the full input
//! content, so a cache hit returns exactly what recomputation would —
//! including, for the disk cache, a replay of the deterministic
//! telemetry the original computation produced. Retries rerun the same
//! pure task, and fault-injection decisions hash `(seed, stage, index,
//! attempt)` — never wall-clock or scheduling — so a faulted run whose
//! failures stay within the retry budget is bit-identical to a fault-free
//! run. `tests/engine_determinism.rs` asserts all of this end to end.
//! The one escape hatch is [`EngineOptions::stage_deadline`]: deadline
//! expiry depends on wall-clock time, so runs that hit a deadline are
//! *not* guaranteed deterministic (they are guaranteed to terminate).

use std::collections::{BTreeMap, HashMap};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use clara_obs as obs;
use nf_ir::Module;
use nfcc::NicModule;
use nic_sim::{module_fingerprint, NicConfig, PortConfig, WorkloadProfile};
use serde::Serialize;
use trafgen::{Trace, WorkloadSpec};

use crate::diskcache::{self, DiskCache};
use crate::error::ClaraError;

pub use crate::diskcache::CacheVerifySummary;
pub use crate::faults::{FaultKind, FaultPlan};

// ---- options -----------------------------------------------------------

/// Engine behaviour knobs, installed process-wide with [`configure`] (or
/// per-run via [`crate::ClaraConfigBuilder::engine`]).
///
/// `#[non_exhaustive]`: construct via [`EngineOptions::builder`] or
/// `EngineOptions::default()` plus the builder.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EngineOptions {
    /// Worker count for [`par_map`] stages. `None` = use the machine's
    /// available parallelism. Overridden by `CLARA_THREADS` and
    /// [`set_threads`].
    pub workers: Option<usize>,
    /// Extra attempts granted to a failing task before it is reported as
    /// a permanent [`TaskFailure`] (so a task runs at most
    /// `retries + 1` times). Retries are immediate — no backoff, no
    /// wall-clock randomness.
    pub retries: u32,
    /// Wall-clock budget for one stage. Attempts that would start after
    /// the stage has run this long fail with
    /// [`TaskError::DeadlineExceeded`] instead. `None` = no deadline.
    pub stage_deadline: Option<Duration>,
    /// Deterministic fault-injection plan. Overridden by `CLARA_FAULTS`.
    pub faults: Option<FaultPlan>,
    /// Directory for the persistent artifact cache. `None` disables it.
    /// Overridden by `CLARA_CACHE_DIR`.
    pub cache_dir: Option<PathBuf>,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            workers: None,
            retries: 2,
            stage_deadline: None,
            faults: None,
            cache_dir: None,
        }
    }
}

impl EngineOptions {
    /// Fluent builder seeded with the defaults.
    pub fn builder() -> EngineOptionsBuilder {
        EngineOptionsBuilder {
            opts: EngineOptions::default(),
        }
    }
}

/// Fluent builder for [`EngineOptions`].
#[derive(Debug, Clone, Default)]
pub struct EngineOptionsBuilder {
    opts: EngineOptions,
}

impl EngineOptionsBuilder {
    /// Sets the worker count (`None` behaviour: omit the call).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.opts.workers = Some(n);
        self
    }

    /// Sets the per-task retry budget.
    #[must_use]
    pub fn retries(mut self, n: u32) -> Self {
        self.opts.retries = n;
        self
    }

    /// Sets the per-stage wall-clock deadline.
    #[must_use]
    pub fn stage_deadline(mut self, d: Duration) -> Self {
        self.opts.stage_deadline = Some(d);
        self
    }

    /// Sets the fault-injection plan.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.opts.faults = Some(plan);
        self
    }

    /// Sets the persistent cache directory.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.opts.cache_dir = Some(dir.into());
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> EngineOptions {
        self.opts
    }
}

static CONFIGURED: OnceLock<Mutex<EngineOptions>> = OnceLock::new();

/// Installs `opts` as the process-wide engine defaults (environment
/// overrides still apply on top; see the module docs for precedence).
///
/// Also propagates the worker count to [`tinyml::parallel`] — the
/// in-training pool the LSTM uses for gradient lanes — unless a
/// [`set_threads`] override is active.
pub fn configure(opts: &EngineOptions) {
    *CONFIGURED
        .get_or_init(Mutex::default)
        .lock()
        .expect("options poisoned") = opts.clone();
    if THREAD_OVERRIDE.load(Ordering::SeqCst) == 0 {
        tinyml::parallel::set_threads(opts.workers.unwrap_or(0));
    }
}

/// The currently configured defaults (before environment overrides).
pub fn configured() -> EngineOptions {
    CONFIGURED
        .get_or_init(Mutex::default)
        .lock()
        .expect("options poisoned")
        .clone()
}

/// Options with every override applied — the engine's single source of
/// truth at execution time, resolved fresh per stage so env changes in
/// tests take effect immediately.
struct Resolved {
    workers: usize,
    retries: u32,
    deadline: Option<Duration>,
    faults: Option<FaultPlan>,
    cache: Option<DiskCache>,
}

fn resolved() -> Resolved {
    let opts = configured();
    let faults = std::env::var("CLARA_FAULTS")
        .ok()
        .and_then(|s| FaultPlan::parse(&s))
        .or(opts.faults);
    let cache = std::env::var("CLARA_CACHE_DIR")
        .ok()
        .filter(|s| !s.trim().is_empty())
        .map(PathBuf::from)
        .or(opts.cache_dir)
        .map(DiskCache::new);
    Resolved {
        workers: threads(),
        retries: opts.retries,
        deadline: opts.stage_deadline,
        faults,
        cache,
    }
}

// ---- worker pool -------------------------------------------------------

/// `set_threads` override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the worker count for this process, overriding `CLARA_THREADS`
/// and every configured option. `0` removes the override.
///
/// The knob also drives [`tinyml::parallel`], the in-training pool the
/// LSTM uses for gradient lanes, so one setting governs all workers.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
    tinyml::parallel::set_threads(n);
}

/// The worker count the engine will use: [`set_threads`] override, else
/// `CLARA_THREADS`, else [`EngineOptions::workers`], else the machine's
/// available parallelism.
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("CLARA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    if let Some(n) = configured().workers {
        if n >= 1 {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

// ---- task outcomes -----------------------------------------------------

/// Why one engine task failed permanently.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TaskError {
    /// The task panicked (caught; the worker pool survives).
    Panicked {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// A seeded [`FaultPlan`] injected this failure.
    Injected {
        /// What was injected.
        kind: FaultKind,
    },
    /// The stage's wall-clock deadline expired before the task could
    /// start (another) attempt.
    DeadlineExceeded,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked { detail } => write!(f, "task panicked: {detail}"),
            TaskError::Injected { kind } => write!(f, "injected fault: {kind}"),
            TaskError::DeadlineExceeded => write!(f, "stage deadline exceeded"),
        }
    }
}

/// One task that exhausted its retry budget (or its stage's deadline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Stage label the task ran under.
    pub stage: &'static str,
    /// Task index within the stage.
    pub index: usize,
    /// Attempts actually executed (0 when the deadline expired before
    /// the first attempt).
    pub attempts: u32,
    /// The final attempt's error.
    pub error: TaskError,
}

/// A stage's partial result: per-task successes (input order, `None`
/// where the task failed) plus the structured failure list.
#[derive(Debug)]
pub struct StageOutcome<R> {
    /// One entry per input item, in input order.
    pub results: Vec<Option<R>>,
    /// Permanent failures, in task-index order.
    pub failures: Vec<TaskFailure>,
}

impl<R> StageOutcome<R> {
    /// Number of tasks the stage attempted.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Whether every task succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The successful results, dropping failed slots.
    pub fn successes(self) -> Vec<R> {
        self.results.into_iter().flatten().collect()
    }
}

fn eng_ctr(cell: &'static OnceLock<obs::Counter>, name: &'static str) -> &'static obs::Counter {
    cell.get_or_init(|| obs::counter(name))
}

static RETRIES: OnceLock<obs::Counter> = OnceLock::new();
static TASK_FAILURES: OnceLock<obs::Counter> = OnceLock::new();
static FAULTS_INJECTED: OnceLock<obs::Counter> = OnceLock::new();

// Deterministic counters: retry and injection decisions are pure
// functions of (plan, stage, index, attempt), so their totals are
// worker-count invariant and belong in the deterministic run report.
fn retries_ctr() -> &'static obs::Counter {
    eng_ctr(&RETRIES, "engine.retries")
}
fn task_failures_ctr() -> &'static obs::Counter {
    eng_ctr(&TASK_FAILURES, "engine.task_failures")
}
fn faults_injected_ctr() -> &'static obs::Counter {
    eng_ctr(&FAULTS_INJECTED, "engine.faults_injected")
}

/// Registers the fault-tolerance counters up front so they appear (as
/// zeros) in every run report, faulted or not — keeping report shapes
/// identical across runs.
fn touch_fault_counters() {
    retries_ctr();
    task_failures_ctr();
    faults_injected_ctr();
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one task with panic isolation, fault injection, the retry
/// schedule, and the stage deadline. `started` is the stage's start
/// instant (deadlines are per stage, not per task).
fn run_task<R>(
    stage: &'static str,
    index: usize,
    started: Instant,
    res: &Resolved,
    f: impl Fn() -> R,
) -> Result<R, TaskFailure> {
    let mut attempt: u32 = 0;
    loop {
        if let Some(deadline) = res.deadline {
            if started.elapsed() >= deadline {
                task_failures_ctr().incr();
                return Err(TaskFailure {
                    stage,
                    index,
                    attempts: attempt,
                    error: TaskError::DeadlineExceeded,
                });
            }
        }
        let injected = res
            .faults
            .as_ref()
            .and_then(|p| p.decide(stage, index, attempt));
        if injected.is_some() {
            faults_injected_ctr().incr();
        }
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            match injected {
                Some(FaultKind::Panic) => {
                    std::panic::panic_any(crate::faults::InjectedPanic);
                }
                Some(FaultKind::Error) => {
                    return Err(TaskError::Injected {
                        kind: FaultKind::Error,
                    })
                }
                Some(FaultKind::Stall) => std::thread::sleep(Duration::from_millis(
                    res.faults.as_ref().map_or(0, |p| p.stall_ms),
                )),
                None => {}
            }
            Ok(f())
        }));
        let error = match outcome {
            Ok(Ok(r)) => return Ok(r),
            Ok(Err(e)) => e,
            Err(payload) => {
                if payload.downcast_ref::<crate::faults::InjectedPanic>().is_some() {
                    TaskError::Injected {
                        kind: FaultKind::Panic,
                    }
                } else {
                    TaskError::Panicked {
                        detail: panic_detail(payload.as_ref()),
                    }
                }
            }
        };
        if attempt < res.retries {
            attempt += 1;
            retries_ctr().incr();
            continue;
        }
        task_failures_ctr().incr();
        return Err(TaskFailure {
            stage,
            index,
            attempts: attempt + 1,
            error,
        });
    }
}

/// Maps `f` over `items` on the worker pool with full fault tolerance,
/// returning a [`StageOutcome`] (successes in input order plus the
/// failure list). Bit-identical to a serial map for the tasks that
/// succeed.
pub fn try_par_map<T, R, F>(stage: &'static str, items: &[T], f: F) -> StageOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(stage, items, &f, &resolved())
}

fn par_map_with<T, R, F>(stage: &'static str, items: &[T], f: &F, res: &Resolved) -> StageOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if res.faults.is_some() {
        crate::faults::install_quiet_hook();
    }
    touch_fault_counters();
    let _span = obs::span!(stage, "tasks={}", items.len());
    // Workers attach their span context here so task-opened spans
    // (compiles, profiling runs, model fits) nest under this stage
    // exactly as they would on the calling thread.
    let span_parent = _span.handle();
    let started = Instant::now();
    let workers = res.workers.min(items.len().max(1));
    let busy_ns = AtomicU64::new(0);
    let run_one = |i: usize, t: &T| -> Result<R, TaskFailure> {
        let t0 = Instant::now();
        let r = run_task(stage, i, started, res, || f(i, t));
        busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    };

    let pairs: Vec<(usize, Result<R, TaskFailure>)> = if workers <= 1 {
        let out = items
            .iter()
            .enumerate()
            .map(|(i, t)| (i, run_one(i, t)))
            .collect();
        if obs::enabled() {
            obs::volatile_counter("engine.worker.0.tasks").add(items.len() as u64);
        }
        out
    } else {
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, Result<R, TaskFailure>)>> =
            Mutex::new(Vec::with_capacity(items.len()));
        std::thread::scope(|s| {
            for w in 0..workers {
                let next = &next;
                let collected = &collected;
                let run_one = &run_one;
                s.spawn(move || {
                    let _ctx = obs::attach(span_parent);
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, run_one(i, item)));
                    }
                    if obs::enabled() {
                        obs::volatile_counter(&format!("engine.worker.{w}.tasks"))
                            .add(local.len() as u64);
                    }
                    collected.lock().expect("worker poisoned").extend(local);
                });
            }
        });
        let mut pairs = collected.into_inner().expect("worker poisoned");
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs
    };

    let mut results = Vec::with_capacity(items.len());
    let mut failures = Vec::new();
    for (_, r) in pairs {
        match r {
            Ok(v) => results.push(Some(v)),
            Err(failure) => {
                results.push(None);
                failures.push(failure);
            }
        }
    }

    record_stage(
        stage,
        items.len() as u64,
        started.elapsed(),
        Duration::from_nanos(busy_ns.into_inner()),
    );
    StageOutcome { results, failures }
}

/// Maps `f` over `items` on the worker pool, returning results in input
/// order (bit-identical to a serial map). `stage` labels the work in
/// [`EngineStats`].
///
/// # Panics
///
/// Panics if any task fails permanently (exhausts its retry budget).
/// Pipelines that must survive partial failure use [`try_par_map`].
pub fn par_map<T, R, F>(stage: &'static str, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let out = try_par_map(stage, items, f);
    assert!(
        out.failures.is_empty(),
        "stage `{stage}`: {} of {} task(s) failed permanently; first: {}",
        out.failures.len(),
        out.results.len(),
        out.failures[0].error
    );
    out.results.into_iter().map(|r| r.expect("complete")).collect()
}

/// Times a serial stage under a label in [`EngineStats`], with a span.
/// No fault machinery: the closure runs exactly once on this thread.
pub fn time_stage<R>(stage: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = obs::span(stage);
    let started = Instant::now();
    let r = f();
    let wall = started.elapsed();
    record_stage(stage, 1, wall, wall);
    r
}

/// Fault-tolerant [`time_stage`]: runs `f` as a single protected task
/// (panic isolation, injection, retries, deadline). Requires `Fn`
/// because a faulted attempt reruns the closure.
///
/// # Errors
///
/// Returns the [`TaskFailure`] when the stage exhausts its retry budget
/// or deadline.
pub fn try_time_stage<R>(stage: &'static str, f: impl Fn() -> R) -> Result<R, TaskFailure> {
    let res = resolved();
    if res.faults.is_some() {
        crate::faults::install_quiet_hook();
    }
    touch_fault_counters();
    let _span = obs::span(stage);
    let started = Instant::now();
    let r = run_task(stage, 0, started, &res, &f);
    let wall = started.elapsed();
    record_stage(stage, 1, wall, wall);
    r
}

// ---- caches ------------------------------------------------------------

/// Each entry is a single-flight slot: the map lock is only held to look
/// the slot up, and the slot's `OnceLock` guarantees exactly one thread
/// runs the expensive computation while racing threads block on it —
/// which both avoids duplicate work and keeps the hit/miss counters a
/// pure function of the work requested (a property the deterministic
/// run-report test relies on). A panicked computation (e.g. an injected
/// fault) leaves the slot uninitialized, so the retry recomputes cleanly.
type Slot<V> = Arc<OnceLock<V>>;
static COMPILE_CACHE: OnceLock<Mutex<HashMap<u64, Slot<Arc<NicModule>>>>> = OnceLock::new();
/// (module fp, trace fp, port fp, nic-config fp, backend fp) → profile.
///
/// The backend fingerprint is the device-manifest component: callers
/// profiling through a HAL backend pass its manifest fingerprint, and
/// the legacy cfg-only surface passes the cfg fingerprint again. Either
/// way, two devices never share a cache entry — in memory or on disk.
type ProfileKey = (u64, u64, u64, u64, u64);
static PROFILE_CACHE: OnceLock<Mutex<HashMap<ProfileKey, Slot<WorkloadProfile>>>> = OnceLock::new();

static COMPILE_HITS: OnceLock<obs::Counter> = OnceLock::new();
static COMPILE_MISSES: OnceLock<obs::Counter> = OnceLock::new();
static PROFILE_HITS: OnceLock<obs::Counter> = OnceLock::new();
static PROFILE_MISSES: OnceLock<obs::Counter> = OnceLock::new();

fn compile_hits() -> &'static obs::Counter {
    eng_ctr(&COMPILE_HITS, "engine.compile_cache.hits")
}
fn compile_misses() -> &'static obs::Counter {
    eng_ctr(&COMPILE_MISSES, "engine.compile_cache.misses")
}
fn profile_hits() -> &'static obs::Counter {
    eng_ctr(&PROFILE_HITS, "engine.profile_cache.hits")
}
fn profile_misses() -> &'static obs::Counter {
    eng_ctr(&PROFILE_MISSES, "engine.profile_cache.misses")
}

/// Counts one cache lookup. The caller resolves both counters, so both
/// register on the first lookup: a report's keys then do not depend on
/// whether an earlier lookup in this process happened to hit.
fn count_lookup(hit: bool, hits: &'static obs::Counter, misses: &'static obs::Counter) {
    if hit {
        hits.incr();
    } else {
        misses.incr();
    }
}

/// Content fingerprint of any serializable value (for cache keys).
pub fn value_fingerprint<T: Serialize>(v: &T) -> u64 {
    let json = serde_json::to_string(v).unwrap_or_default();
    nic_sim::fingerprint_bytes(json.as_bytes())
}

/// Handle on the process-global engine: the cache surface plus stats and
/// integrity checks. The handle is zero-sized — it exists so the cache
/// API has a receiver that can grow state later without another surface
/// change — and honours whatever [`configure`] and the environment
/// overrides say at each call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine {
    _priv: (),
}

impl Engine {
    /// A handle on the process-global engine.
    pub fn new() -> Engine {
        Engine { _priv: () }
    }

    /// Memoized [`nfcc::compile_module`]: each distinct module compiles
    /// exactly once per process; repeat calls share the compiled result,
    /// and with a cache directory configured the compiled module
    /// persists across processes.
    ///
    /// Compilation runs outside the cache lock, so concurrent misses on
    /// *different* modules still compile in parallel. Threads racing on
    /// the *same* module single-flight on the entry's `OnceLock`: one
    /// compiles (counted as the miss), the rest block and count as hits.
    pub fn compile_cached(&self, module: &Module) -> Arc<NicModule> {
        compile_cached_impl(module, &resolved())
    }

    /// Memoized setup-free profiling: [`nic_sim::profile_workload`] with
    /// the result cached on `(module, trace, port, cfg)` content
    /// fingerprints (in-process and, when configured, on disk), and the
    /// vendor compile shared through [`Engine::compile_cached`].
    ///
    /// Only profiling runs with **no machine setup** are cacheable this
    /// way; callers that install state first (LPM rules, firewall
    /// entries) must keep calling [`nic_sim::profile_workload`] with
    /// their setup closure.
    pub fn profile_cached(
        &self,
        module: &Module,
        trace: &Trace,
        port: &PortConfig,
        cfg: &NicConfig,
    ) -> WorkloadProfile {
        let backend_fp = value_fingerprint(cfg);
        profile_cached_impl(module, trace, port, cfg, backend_fp, &resolved())
    }

    /// [`Engine::profile_cached`] for a specific device backend: the
    /// cache key incorporates `backend_fp` (a HAL manifest fingerprint),
    /// so the disk cache never serves one device's profile to another —
    /// even for devices whose lowered `NicConfig`s happen to collide.
    pub fn profile_cached_for(
        &self,
        module: &Module,
        trace: &Trace,
        port: &PortConfig,
        cfg: &NicConfig,
        backend_fp: u64,
    ) -> WorkloadProfile {
        profile_cached_impl(module, trace, port, cfg, backend_fp, &resolved())
    }

    /// Drops both in-process memo caches (tests use this to exercise
    /// cold paths). The persistent disk cache, if configured, is left
    /// intact — delete the directory to clear it.
    pub fn clear_caches(&self) {
        if let Some(c) = COMPILE_CACHE.get() {
            c.lock().expect("cache poisoned").clear();
        }
        if let Some(c) = PROFILE_CACHE.get() {
            c.lock().expect("cache poisoned").clear();
        }
    }

    /// Reads the current [`EngineStats`].
    pub fn stats(&self) -> EngineStats {
        EngineStats::snapshot()
    }

    /// The configured defaults this handle operates under (environment
    /// overrides are applied per call, not reflected here).
    pub fn options(&self) -> EngineOptions {
        configured()
    }

    /// Checks every artifact in the resolved cache directory against its
    /// header and checksum. Returns `Ok(None)` when no cache directory
    /// is configured.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Io`] when the directory exists but cannot
    /// be read.
    pub fn verify_disk_cache(&self) -> Result<Option<CacheVerifySummary>, ClaraError> {
        match resolved().cache {
            Some(dc) => dc.verify().map(Some),
            None => Ok(None),
        }
    }
}

fn compile_cached_impl(module: &Module, res: &Resolved) -> Arc<NicModule> {
    let fp = module_fingerprint(module);
    let cache = COMPILE_CACHE.get_or_init(Mutex::default);
    let slot = {
        let mut guard = cache.lock().expect("cache poisoned");
        Arc::clone(guard.entry(fp).or_default())
    };
    let mut compiled = false;
    let nic = Arc::clone(slot.get_or_init(|| {
        compiled = true;
        compile_artifact(module, fp, res.cache.as_ref())
    }));
    count_lookup(!compiled, compile_hits(), compile_misses());
    nic
}

/// The compile path below the in-process slot: consult the disk cache,
/// else compile while capturing the deterministic telemetry and persist
/// both. Replaying the captured telemetry on a warm hit keeps the
/// deterministic run report byte-identical to a cold run's.
fn compile_artifact(module: &Module, fp: u64, disk: Option<&DiskCache>) -> Arc<NicModule> {
    let Some(dc) = disk else {
        return nfcc::compile_module_shared(module);
    };
    if let Some((nic, tel)) = dc.load::<NicModule>("compile", fp) {
        obs::replay_telemetry(&tel);
        return Arc::new(nic);
    }
    diskcache::recomputes().incr();
    let (nic, tel) = obs::capture_telemetry("cache-compile", &format!("{fp:016x}"), || {
        nfcc::compile_module_shared(module)
    });
    dc.store("compile", fp, nic.as_ref(), &tel);
    nic
}

fn profile_cached_impl(
    module: &Module,
    trace: &Trace,
    port: &PortConfig,
    cfg: &NicConfig,
    backend_fp: u64,
    res: &Resolved,
) -> WorkloadProfile {
    let key = (
        module_fingerprint(module),
        value_fingerprint(trace),
        value_fingerprint(port),
        value_fingerprint(cfg),
        backend_fp,
    );
    let cache = PROFILE_CACHE.get_or_init(Mutex::default);
    let slot = {
        let mut guard = cache.lock().expect("cache poisoned");
        Arc::clone(guard.entry(key).or_default())
    };
    let mut profiled = false;
    let wp = slot
        .get_or_init(|| {
            profiled = true;
            // The vendor compile is hoisted ahead of the disk lookup —
            // and kept OUT of the profile's capture frame. It maintains
            // its own disk artifact; nesting it here would double-count
            // its telemetry on replay and make a warm run's in-memory
            // compile hit/miss pattern diverge from a cold run's.
            let nic = compile_cached_impl(module, res);
            profile_artifact(module, &nic, trace, port, cfg, key, res.cache.as_ref())
        })
        .clone();
    count_lookup(!profiled, profile_hits(), profile_misses());
    wp
}

/// Folds the 5-part profile key into the single content address the
/// disk cache files use.
fn profile_disk_key(key: ProfileKey) -> u64 {
    let mut buf = [0u8; 40];
    buf[..8].copy_from_slice(&key.0.to_le_bytes());
    buf[8..16].copy_from_slice(&key.1.to_le_bytes());
    buf[16..24].copy_from_slice(&key.2.to_le_bytes());
    buf[24..32].copy_from_slice(&key.3.to_le_bytes());
    buf[32..].copy_from_slice(&key.4.to_le_bytes());
    nic_sim::fingerprint_bytes(&buf)
}

fn profile_artifact(
    module: &Module,
    nic: &NicModule,
    trace: &Trace,
    port: &PortConfig,
    cfg: &NicConfig,
    key: ProfileKey,
    disk: Option<&DiskCache>,
) -> WorkloadProfile {
    let compute = || {
        let rec = nic_sim::record_workload(module, trace, |_| {});
        nic_sim::profile_recorded_compiled(module, nic, &rec, port, cfg)
    };
    let Some(dc) = disk else { return compute() };
    let dkey = profile_disk_key(key);
    if let Some((wp, tel)) = dc.load::<WorkloadProfile>("profile", dkey) {
        obs::replay_telemetry(&tel);
        return wp;
    }
    diskcache::recomputes().incr();
    let (wp, tel) = obs::capture_telemetry("cache-profile", &format!("{dkey:016x}"), compute);
    dc.store("profile", dkey, &wp, &tel);
    wp
}

// ---- corpus × workload matrix ------------------------------------------

/// Profiles every `(module, workload)` pair of a corpus × workload
/// matrix on the worker pool, returning profiles in row-major order
/// (module-major, workload-minor).
///
/// Each cell gets a deterministic trace seed `seed ^ (i * W + j)` (`i`
/// module index, `j` workload index, `W` workload count), so the matrix
/// is a pure function of `(modules, workloads, pkts, seed, port, cfg)`
/// regardless of worker count or schedule.
///
/// # Panics
///
/// Panics if any cell fails permanently; [`try_profile_matrix`] is the
/// fault-tolerant form.
pub fn profile_matrix(
    modules: &[Module],
    workloads: &[WorkloadSpec],
    pkts: usize,
    seed: u64,
    port: &PortConfig,
    cfg: &NicConfig,
) -> Vec<WorkloadProfile> {
    let out = try_profile_matrix(modules, workloads, pkts, seed, port, cfg);
    assert!(
        out.failures.is_empty(),
        "profile-matrix: {} of {} cell(s) failed permanently; first: {}",
        out.failures.len(),
        out.results.len(),
        out.failures[0].error
    );
    out.results.into_iter().map(|r| r.expect("complete")).collect()
}

/// Fault-tolerant [`profile_matrix`]: cells whose profiling fails
/// permanently come back as `None` in [`StageOutcome::results`] (still
/// row-major) with the failures listed alongside.
pub fn try_profile_matrix(
    modules: &[Module],
    workloads: &[WorkloadSpec],
    pkts: usize,
    seed: u64,
    port: &PortConfig,
    cfg: &NicConfig,
) -> StageOutcome<WorkloadProfile> {
    let res = resolved();
    let backend_fp = value_fingerprint(cfg);
    let w = workloads.len();
    let cells: Vec<(usize, usize)> = (0..modules.len())
        .flat_map(|i| (0..w).map(move |j| (i, j)))
        .collect();
    par_map_with(
        "profile-matrix",
        &cells,
        &|_, &(i, j)| {
            let trace = Trace::generate(&workloads[j], pkts, seed ^ ((i * w + j) as u64));
            profile_cached_impl(&modules[i], &trace, port, cfg, backend_fp, &res)
        },
        &res,
    )
}

// ---- statistics --------------------------------------------------------

/// Accumulated cost of one engine stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Tasks executed under this label.
    pub tasks: u64,
    /// Wall-clock time spent in the stage.
    pub wall: Duration,
    /// Summed task execution time across workers (≈ CPU time; exceeds
    /// `wall` when the stage ran in parallel).
    pub cpu: Duration,
}

static STAGES: OnceLock<Mutex<BTreeMap<&'static str, StageStat>>> = OnceLock::new();

fn record_stage(stage: &'static str, tasks: u64, wall: Duration, cpu: Duration) {
    {
        let mut guard = STAGES
            .get_or_init(Mutex::default)
            .lock()
            .expect("stats poisoned");
        let s = guard.entry(stage).or_default();
        s.tasks += tasks;
        s.wall += wall;
        s.cpu += cpu;
    }
    // Mirror into the obs registry only while recording: the formatted
    // names allocate, and a disabled layer must stay allocation-free.
    if obs::enabled() {
        obs::counter(&format!("engine.stage.{stage}.tasks")).add(tasks);
        obs::volatile_counter(&format!("engine.stage.{stage}.wall_ns"))
            .add(wall.as_nanos() as u64);
        obs::volatile_counter(&format!("engine.stage.{stage}.cpu_ns")).add(cpu.as_nanos() as u64);
    }
}

/// A snapshot of the engine's counters, printable via `Display`.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Worker count the engine is configured for.
    pub threads: usize,
    /// Compile-cache hits.
    pub compile_hits: u64,
    /// Compile-cache misses (actual vendor compiles run).
    pub compile_misses: u64,
    /// Profile-cache hits.
    pub profile_hits: u64,
    /// Profile-cache misses (actual profiling runs).
    pub profile_misses: u64,
    /// Retries performed by the fault-tolerance machinery.
    pub retries: u64,
    /// Tasks that failed permanently.
    pub task_failures: u64,
    /// Faults injected by a configured [`FaultPlan`].
    pub faults_injected: u64,
    /// Persistent-cache artifacts loaded and verified.
    pub disk_hits: u64,
    /// Computations performed because no valid artifact existed.
    pub disk_recomputes: u64,
    /// Artifacts rejected on read (bad header/checksum/body).
    pub disk_corrupt: u64,
    /// Per-stage task counts and times, sorted by stage name.
    pub stages: Vec<(&'static str, StageStat)>,
}

impl EngineStats {
    /// Reads the current counters.
    pub fn snapshot() -> EngineStats {
        let stages = STAGES
            .get_or_init(Mutex::default)
            .lock()
            .expect("stats poisoned")
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect();
        EngineStats {
            threads: threads(),
            compile_hits: compile_hits().value(),
            compile_misses: compile_misses().value(),
            profile_hits: profile_hits().value(),
            profile_misses: profile_misses().value(),
            retries: retries_ctr().value(),
            task_failures: task_failures_ctr().value(),
            faults_injected: faults_injected_ctr().value(),
            disk_hits: diskcache::hits().value(),
            disk_recomputes: diskcache::recomputes().value(),
            disk_corrupt: diskcache::corrupt().value(),
            stages,
        }
    }

    /// Zeroes all counters and stage records (caches stay warm). This
    /// also resets the whole [`clara_obs`] registry — spans and every
    /// metric across the workspace — so one reset yields one clean run
    /// report.
    pub fn reset() {
        obs::reset();
        if let Some(s) = STAGES.get() {
            s.lock().expect("stats poisoned").clear();
        }
    }

    /// Total wall-clock time across stages.
    pub fn total_wall(&self) -> Duration {
        self.stages.iter().map(|(_, s)| s.wall).sum()
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "engine: {} thread(s); compile cache {} hit / {} miss; profile cache {} hit / {} miss",
            self.threads,
            self.compile_hits,
            self.compile_misses,
            self.profile_hits,
            self.profile_misses
        )?;
        if self.disk_hits + self.disk_recomputes + self.disk_corrupt > 0 {
            writeln!(
                f,
                "  disk cache: {} hit / {} recompute / {} corrupt",
                self.disk_hits, self.disk_recomputes, self.disk_corrupt
            )?;
        }
        if self.retries + self.task_failures + self.faults_injected > 0 {
            writeln!(
                f,
                "  fault tolerance: {} retries / {} permanent failures / {} faults injected",
                self.retries, self.task_failures, self.faults_injected
            )?;
        }
        for (name, s) in &self.stages {
            writeln!(
                f,
                "  stage {name:<18} {:>6} tasks  wall {:>9.3?}  cpu {:>9.3?}",
                s.tasks, s.wall, s.cpu
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Explicit options for exercising the task machinery without
    /// touching the process-global configuration (other unit tests call
    /// `Clara::train`, which calls [`configure`], concurrently).
    fn local(workers: usize, retries: u32, faults: Option<FaultPlan>) -> Resolved {
        Resolved {
            workers,
            retries,
            deadline: None,
            faults,
            cache: None,
        }
    }

    #[test]
    fn par_map_matches_serial_order() {
        let items: Vec<u64> = (0..103).collect();
        set_threads(1);
        let serial = par_map("test-order", &items, |i, &x| x * 3 + i as u64);
        set_threads(4);
        let parallel = par_map("test-order", &items, |i, &x| x * 3 + i as u64);
        set_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn compile_cache_hits_on_repeat() {
        let m = click_model::elements::udpcount().module;
        let engine = Engine::new();
        let a = engine.compile_cached(&m);
        let before = compile_hits().value();
        let b = engine.compile_cached(&m);
        assert!(compile_hits().value() > before);
        assert_eq!(a.handler().total_compute(), b.handler().total_compute());
    }

    #[test]
    fn profile_cache_returns_identical_profile() {
        let m = click_model::elements::udpcount().module;
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 60, 9);
        let port = PortConfig::naive();
        let cfg = NicConfig::default();
        let engine = Engine::new();
        let direct = nic_sim::profile_workload(&m, &trace, &port, &cfg, |_| {});
        let cold = engine.profile_cached(&m, &trace, &port, &cfg);
        let warm = engine.profile_cached(&m, &trace, &port, &cfg);
        assert_eq!(direct, cold);
        assert_eq!(cold, warm);
    }

    #[test]
    fn stats_snapshot_accumulates_stages() {
        par_map("test-stat", &[1, 2, 3], |_, x| x + 1);
        let stats = EngineStats::snapshot();
        let (_, s) = stats
            .stages
            .iter()
            .find(|(n, _)| *n == "test-stat")
            .expect("stage recorded");
        assert!(s.tasks >= 3);
    }

    #[test]
    fn faults_within_retry_budget_are_invisible_in_results() {
        let items: Vec<u64> = (0..60).collect();
        let plan = FaultPlan {
            depth: 2,
            ..FaultPlan::new(11, 0.5)
        };
        let clean = par_map_with("test-fault-budget", &items, &|i, &x| x * 7 + i as u64, &local(1, 2, None));
        for workers in [1, 4] {
            let faulted = par_map_with(
                "test-fault-budget",
                &items,
                &|i, &x| x * 7 + i as u64,
                &local(workers, 2, Some(plan.clone())),
            );
            assert!(faulted.is_complete(), "within-budget faults must all retry out");
            assert_eq!(faulted.successes(), clean.results.iter().map(|r| r.unwrap()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn faults_beyond_retry_budget_become_structured_failures() {
        let items: Vec<u64> = (0..40).collect();
        let plan = FaultPlan {
            depth: 9,
            ..FaultPlan::new(23, 0.4)
        };
        let before = task_failures_ctr().value();
        let out = par_map_with("test-fault-perm", &items, &|_, &x| x, &local(4, 2, Some(plan.clone())));
        assert!(!out.failures.is_empty(), "a 40% plan over 40 tasks must select some");
        assert_eq!(out.results.len(), items.len());
        for failure in &out.failures {
            assert_eq!(failure.stage, "test-fault-perm");
            assert_eq!(failure.attempts, 3, "retries=2 means exactly 3 attempts");
            assert!(out.results[failure.index].is_none());
            assert!(matches!(failure.error, TaskError::Injected { .. }));
        }
        // Non-selected tasks still succeeded with correct values.
        for (i, r) in out.results.iter().enumerate() {
            if let Some(v) = r {
                assert_eq!(*v, items[i]);
            }
        }
        assert_eq!(
            task_failures_ctr().value(),
            before + out.failures.len() as u64
        );
    }

    #[test]
    fn expired_deadline_fails_tasks_without_running_them() {
        let ran = AtomicUsize::new(0);
        let res = Resolved {
            deadline: Some(Duration::ZERO),
            ..local(1, 2, None)
        };
        let out = par_map_with(
            "test-deadline",
            &[1u32, 2, 3],
            &|_, &x| {
                ran.fetch_add(1, Ordering::Relaxed);
                x
            },
            &res,
        );
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(out.failures.len(), 3);
        assert!(out
            .failures
            .iter()
            .all(|f| f.error == TaskError::DeadlineExceeded && f.attempts == 0));
    }

    #[test]
    fn genuine_panics_are_isolated_and_reported() {
        let out = par_map_with(
            "test-panic",
            &[0u32, 1, 2, 3],
            &|_, &x| {
                assert!(x != 2, "task two explodes");
                x * 10
            },
            &local(2, 1, None),
        );
        assert_eq!(out.failures.len(), 1);
        let f = &out.failures[0];
        assert_eq!(f.index, 2);
        assert_eq!(f.attempts, 2);
        assert!(matches!(&f.error, TaskError::Panicked { detail } if detail.contains("explodes")));
        assert_eq!(out.results[3], Some(30));
    }

    #[test]
    fn engine_options_builder_round_trips() {
        let plan = FaultPlan::new(3, 0.1);
        let opts = EngineOptions::builder()
            .workers(8)
            .retries(5)
            .stage_deadline(Duration::from_secs(30))
            .faults(plan.clone())
            .cache_dir("/tmp/clara-cache")
            .build();
        assert_eq!(opts.workers, Some(8));
        assert_eq!(opts.retries, 5);
        assert_eq!(opts.stage_deadline, Some(Duration::from_secs(30)));
        assert_eq!(opts.faults, Some(plan));
        assert_eq!(opts.cache_dir.as_deref(), Some(std::path::Path::new("/tmp/clara-cache")));
        let d = EngineOptions::default();
        assert_eq!((d.workers, d.retries), (None, 2));
    }
}
