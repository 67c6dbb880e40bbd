//! The Clara facade: train once, analyze any NF.
//!
//! Facade API conventions:
//!
//! - configuration is built from the [`ClaraConfig::full`]/
//!   [`ClaraConfig::fast`] presets or the fluent
//!   [`ClaraConfig::builder`]; the struct itself is `#[non_exhaustive]`
//!   so fields can be added without breaking downstream builds;
//! - user-input failures surface as [`ClaraError`], never panics;
//! - [`Clara::save`]/[`Clara::load`] write a versioned JSON envelope so
//!   trained pipelines persist across bench runs and reject files from
//!   incompatible builds;
//! - with a `CLARA_REPORT` sink configured, [`Clara::train`] and
//!   [`Clara::analyze`] record a [`clara_obs`] span tree and write a
//!   JSON run report when they finish.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use clara_obs as obs;
use nf_ir::{BlockId, GlobalId, Module};
use nic_sim::{Accel, CoalescePlan, MemLevel, NicConfig, PortConfig, WorkloadProfile};
use serde::{Deserialize, Serialize, Value};
use trafgen::Trace;

use crate::algid::{AlgoClass, AlgoIdentifier, ClassifierKind};
use crate::coalesce;
use crate::engine;
use crate::error::ClaraError;
use crate::placement;
use crate::predict::{
    memory_count_accuracy, InstructionPredictor, PredictTrainConfig, PredictorKind,
};
use crate::prepare::prepare_module;
use crate::scaleout::{ScaleoutKind, ScaleoutModel};
use tinyml::quant::Precision;

/// Format version written by [`Clara::save`]. Version 2 added the
/// quantized (Q16.16) model companions and the default-precision field.
pub const MODEL_FORMAT_VERSION: u64 = 2;

/// Oldest format version [`Clara::load`] still reads. Version-1
/// envelopes carry only f64 weights; their quantized companions are
/// rebuilt deterministically on load.
pub const MIN_MODEL_FORMAT_VERSION: u64 = 1;

/// Training budget for the whole Clara pipeline.
///
/// Construct via the presets ([`ClaraConfig::full`], [`ClaraConfig::fast`])
/// or the fluent builder:
///
/// ```
/// use clara_core::ClaraConfig;
/// let cfg = ClaraConfig::builder().predict_programs(240).seed(7).build();
/// assert_eq!(cfg.predict_programs, 240);
/// assert_eq!(cfg.seed, 7);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClaraConfig {
    /// Synthesized programs for instruction-prediction training.
    pub predict_programs: usize,
    /// Labeled variants per class for algorithm identification.
    pub algid_per_class: usize,
    /// Synthesized programs for scale-out training.
    pub scaleout_programs: usize,
    /// Neural-model training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
    /// NIC hardware configuration.
    pub nic: NicConfig,
    /// Engine behaviour: workers, retries, deadlines, fault injection,
    /// persistent cache. Installed process-wide when training starts.
    pub engine: engine::EngineOptions,
    /// Default inference precision for the trained pipeline (callers can
    /// still override per call/request).
    pub precision: Precision,
}

impl ClaraConfig {
    /// Full-quality configuration (benchmarks, release builds).
    pub fn full(seed: u64) -> ClaraConfig {
        ClaraConfig {
            predict_programs: 240,
            algid_per_class: 40,
            scaleout_programs: 60,
            epochs: 35,
            seed,
            nic: NicConfig::default(),
            engine: engine::EngineOptions::default(),
            precision: Precision::F64,
        }
    }

    /// Reduced configuration for tests and examples.
    pub fn fast(seed: u64) -> ClaraConfig {
        ClaraConfig {
            predict_programs: 50,
            algid_per_class: 25,
            scaleout_programs: 16,
            epochs: 15,
            seed,
            nic: NicConfig::default(),
            engine: engine::EngineOptions::default(),
            precision: Precision::F64,
        }
    }

    /// Fluent builder seeded with the [`ClaraConfig::full`] defaults.
    pub fn builder() -> ClaraConfigBuilder {
        ClaraConfigBuilder {
            cfg: ClaraConfig::full(0),
        }
    }

    /// Builder pre-populated from this configuration (tweak a preset).
    pub fn to_builder(&self) -> ClaraConfigBuilder {
        ClaraConfigBuilder { cfg: self.clone() }
    }
}

/// Fluent builder for [`ClaraConfig`] (the only way to assemble a custom
/// configuration now that the struct is `#[non_exhaustive]`).
#[derive(Debug, Clone)]
pub struct ClaraConfigBuilder {
    cfg: ClaraConfig,
}

impl ClaraConfigBuilder {
    /// Sets the instruction-prediction corpus size.
    #[must_use]
    pub fn predict_programs(mut self, n: usize) -> Self {
        self.cfg.predict_programs = n;
        self
    }

    /// Sets the labeled variants per algorithm class.
    #[must_use]
    pub fn algid_per_class(mut self, n: usize) -> Self {
        self.cfg.algid_per_class = n;
        self
    }

    /// Sets the scale-out training corpus size.
    #[must_use]
    pub fn scaleout_programs(mut self, n: usize) -> Self {
        self.cfg.scaleout_programs = n;
        self
    }

    /// Sets the neural-model training epochs.
    #[must_use]
    pub fn epochs(mut self, n: usize) -> Self {
        self.cfg.epochs = n;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the NIC hardware configuration.
    #[must_use]
    pub fn nic(mut self, nic: NicConfig) -> Self {
        self.cfg.nic = nic;
        self
    }

    /// Sets the engine options (workers, retries, stage deadline, fault
    /// injection, persistent cache directory).
    #[must_use]
    pub fn engine(mut self, opts: engine::EngineOptions) -> Self {
        self.cfg.engine = opts;
        self
    }

    /// Sets the default inference precision (`F64` reference semantics
    /// or the `Q16` fixed-point fast path).
    #[must_use]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.cfg.precision = precision;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> ClaraConfig {
        self.cfg
    }
}

impl Default for ClaraConfigBuilder {
    fn default() -> Self {
        ClaraConfig::builder()
    }
}

/// A fully trained Clara instance.
#[derive(Serialize)]
pub struct Clara {
    /// Instruction predictor (LSTM+FC).
    pub predictor: InstructionPredictor,
    /// Algorithm identifier (SVM over SPE features).
    pub algid: AlgoIdentifier,
    /// Scale-out core-count model (GBDT).
    pub scaleout: ScaleoutModel,
    /// NIC configuration used for training and analysis.
    pub nic: NicConfig,
    /// Default inference precision (from [`ClaraConfig::precision`] at
    /// train time; `F64` for version-1 model files). Callers with no
    /// precision of their own pass this.
    pub precision: Precision,
    /// [`Clara::predictor_fingerprint`], hashed once when the instance
    /// is built. It keys the process-wide prediction memo, so
    /// `predictor` must not change after construction.
    predictor_fp: u64,
}

/// The offloading insights Clara generates for one NF + workload.
#[derive(Debug, Clone)]
pub struct Insights {
    /// Predicted NIC compute instructions per packet-handler invocation.
    pub predicted_compute: f64,
    /// Counted memory accesses (IR loads/stores to state/packet data).
    pub counted_mem: u32,
    /// Memory-counting fidelity vs the vendor compiler (percent).
    pub mem_count_accuracy: f64,
    /// Identified accelerator opportunity and its loop region.
    pub accel: Option<(AlgoClass, Vec<BlockId>)>,
    /// Suggested core count for the profiled workload.
    pub suggested_cores: u32,
    /// Suggested state placement.
    pub placement: BTreeMap<GlobalId, MemLevel>,
    /// Suggested variable packing.
    pub coalesce: CoalescePlan,
    /// The host-side workload profile the suggestions are based on.
    pub profile: WorkloadProfile,
}

/// The lightweight performance-parameter bundle served per request by
/// `clara serve` and returned by [`Clara::predict`]: the paper's §3
/// predictions without the §4 porting strategies (no placement ILP, no
/// coalescing clustering).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted NIC compute instructions per packet-handler invocation.
    pub predicted_compute: f64,
    /// Counted memory accesses (IR loads/stores to state/packet data).
    pub counted_mem: u32,
    /// Suggested core count for the profiled workload.
    pub suggested_cores: u32,
    /// Modeled throughput at the suggested core count, in Mpps. Unlike
    /// the compute/memory halves, this depends on the target device, so
    /// cross-backend prediction deltas are visible per request.
    pub predicted_throughput_mpps: f64,
    /// Modeled per-packet latency at the suggested core count, in µs.
    pub predicted_latency_us: f64,
}

impl Insights {
    /// Converts the insights into a concrete port configuration
    /// (the "Clara porting" of Section 5.1).
    pub fn port_config(&self) -> PortConfig {
        let mut port = PortConfig::naive()
            .with_csum_accel()
            .with_coalesce(self.coalesce.clone());
        port = placement::apply_placement(port, &self.placement);
        if let Some((class, region)) = &self.accel {
            let accel = match class {
                AlgoClass::Crc | AlgoClass::Crypto => Some(Accel::Crc),
                AlgoClass::Lpm => Some(Accel::Lpm),
                AlgoClass::None => None,
            };
            if let Some(a) = accel {
                port = port.accelerate(region.iter().copied(), a);
            }
        }
        port
    }
}

impl Clara {
    /// Trains the full pipeline from synthesized corpora.
    ///
    /// The corpus compiles and the corpus × workload profiling matrix
    /// fan out across [`crate::engine`]'s worker pool
    /// ([`crate::engine::EngineOptions::workers`] / `CLARA_THREADS`
    /// workers); results are bit-identical to a serial run. Engine tasks
    /// that fail — panics, injected faults — retry within the configured
    /// budget; faulted runs whose failures all retry out are likewise
    /// bit-identical to a fault-free run.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Degraded`] when any engine task exhausted
    /// its retry budget (or hit a stage deadline): the pipeline is then
    /// incomplete and no `Clara` is produced, but the run report (when a
    /// sink is configured) is still written with the failure counters.
    pub fn train(cfg: &ClaraConfig) -> Result<Clara, ClaraError> {
        engine::configure(&cfg.engine);
        let sink = obs::sink_from_env();
        if sink.is_some() {
            obs::enable();
        }
        let root = obs::span!(
            "clara-train",
            "predict={} algid={} scaleout={} epochs={} seed={}",
            cfg.predict_programs,
            cfg.algid_per_class,
            cfg.scaleout_programs,
            cfg.epochs,
            cfg.seed
        );
        // Branches may run on spawned threads; parenting them explicitly
        // under the root handle keeps the span tree identical to a
        // serial run. Each branch reports (model, failures, tasks) so a
        // degraded run can be surfaced with exact counts.
        let rh = root.handle();
        type Branch<M> = (Option<M>, Vec<engine::TaskFailure>, usize);
        // Instruction prediction: synthesized program/assembly pairs.
        let train_predictor = || -> Branch<InstructionPredictor> {
            let _branch = obs::span_under(rh, "train-predict-branch");
            let train_modules = nf_synth::synth_corpus(cfg.predict_programs, true, cfg.seed);
            let (samples, mut failures, mut total) =
                crate::predict::try_block_samples(&train_modules);
            total += 1;
            let fit = engine::try_time_stage("train-predict", || {
                InstructionPredictor::train(
                    PredictorKind::ClaraLstm,
                    &samples,
                    &PredictTrainConfig {
                        epochs: cfg.epochs,
                        seed: cfg.seed,
                        ..Default::default()
                    },
                )
            });
            match fit {
                Ok(p) => (Some(p), failures, total),
                Err(f) => {
                    failures.push(f);
                    (None, failures, total)
                }
            }
        };
        // Algorithm identification.
        let train_algid = || -> Branch<AlgoIdentifier> {
            let _branch = obs::span_under(rh, "train-algid-branch");
            let fit = engine::try_time_stage("train-algid", || {
                let corpus = crate::algid::labeled_corpus(cfg.algid_per_class, cfg.seed ^ 0xa1);
                AlgoIdentifier::train(&corpus, ClassifierKind::ClaraSvm, cfg.seed)
            });
            match fit {
                Ok(a) => (Some(a), Vec::new(), 1),
                Err(f) => (None, vec![f], 1),
            }
        };
        // Scale-out analysis.
        let train_scaleout = || -> Branch<ScaleoutModel> {
            let _branch = obs::span_under(rh, "train-scaleout-branch");
            let (so_data, mut failures, mut total) = crate::scaleout::try_training_set(
                cfg.scaleout_programs,
                cfg.seed ^ 0x50,
                &cfg.nic,
            );
            total += 1;
            let fit = engine::try_time_stage("train-scaleout", || {
                ScaleoutModel::train(ScaleoutKind::ClaraGbdt, &so_data, &cfg.nic, cfg.seed)
            });
            match fit {
                Ok(so) => (Some(so), failures, total),
                Err(f) => {
                    failures.push(f);
                    (None, failures, total)
                }
            }
        };
        // The three models are independent; with more than one engine
        // worker they train concurrently (each branch also fans out
        // internally). Either path assembles the same three results, so
        // the worker count never changes the trained pipeline.
        let ((predictor, pf, pt), (algid, af, at), (scaleout, sf, st)) =
            if engine::threads() > 1 {
                std::thread::scope(|s| {
                    let a = s.spawn(train_algid);
                    let so = s.spawn(train_scaleout);
                    let p = train_predictor();
                    (p, a.join().expect("algid"), so.join().expect("scaleout"))
                })
            } else {
                (train_predictor(), train_algid(), train_scaleout())
            };
        let failed = pf.len() + af.len() + sf.len();
        let total = pt + at + st;
        drop(root);
        // The report is written even for degraded runs — it is where the
        // engine.task_failures / engine.retries counters land, and a
        // degraded run is exactly when they matter.
        if let Some(raw) = sink {
            write_report(&raw, "clara_train.json");
        }
        match (predictor, algid, scaleout) {
            (Some(predictor), Some(algid), Some(scaleout)) if failed == 0 => Ok(Clara {
                predictor_fp: engine::value_fingerprint(&predictor),
                predictor,
                algid,
                scaleout,
                nic: cfg.nic.clone(),
                precision: cfg.precision,
            }),
            _ => Err(ClaraError::Degraded { failed, total }),
        }
    }

    /// Serializes the trained pipeline to a versioned JSON envelope
    /// (`{format_version, nic_config, models}`), so it can be reloaded
    /// by any build that reads the same [`MODEL_FORMAT_VERSION`].
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ClaraError> {
        let path = path.as_ref();
        let envelope = Value::Map(vec![
            (
                "format_version".to_string(),
                MODEL_FORMAT_VERSION.to_value(),
            ),
            ("nic_config".to_string(), self.nic.to_value()),
            ("precision".to_string(), self.precision.to_value()),
            (
                "models".to_string(),
                Value::Map(vec![
                    ("predictor".to_string(), self.predictor.to_value()),
                    ("algid".to_string(), self.algid.to_value()),
                    ("scaleout".to_string(), self.scaleout.to_value()),
                ]),
            ),
        ]);
        let json = serde_json::to_string(&envelope).map_err(|e| ClaraError::Format {
            path: Some(path.to_path_buf()),
            detail: e.to_string(),
        })?;
        std::fs::write(path, json).map_err(|source| ClaraError::Io {
            path: path.to_path_buf(),
            source,
        })
    }

    /// Loads a pipeline previously written by [`Clara::save`].
    ///
    /// Accepts every version in
    /// [`MIN_MODEL_FORMAT_VERSION`]`..=`[`MODEL_FORMAT_VERSION`].
    /// Version-1 envelopes (pre-quantization) load as f64 models with
    /// their Q16.16 companions rebuilt from the f64 weights — a pure
    /// function of the weights, so the rebuilt companions are identical
    /// to what training would have saved.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Io`] when the file cannot be read,
    /// [`ClaraError::Format`] when it is not a Clara model envelope, and
    /// [`ClaraError::UnsupportedVersion`] when it was written by an
    /// incompatible format version.
    pub fn load(path: impl AsRef<Path>) -> Result<Clara, ClaraError> {
        let path = path.as_ref();
        let format = |detail: String| ClaraError::Format {
            path: Some(path.to_path_buf()),
            detail,
        };
        let json = std::fs::read_to_string(path).map_err(|source| ClaraError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let v = serde_json::parse_value(&json).map_err(|e| format(e.to_string()))?;
        let found = match v.get("format_version") {
            Some(Value::Int(i)) if *i >= 0 => *i as u64,
            Some(Value::UInt(u)) => *u,
            _ => {
                return Err(format(
                    "missing `format_version` — not a Clara model file (or written by a \
                     pre-versioning build)"
                        .to_string(),
                ))
            }
        };
        if !(MIN_MODEL_FORMAT_VERSION..=MODEL_FORMAT_VERSION).contains(&found) {
            return Err(ClaraError::UnsupportedVersion {
                found,
                supported: MODEL_FORMAT_VERSION,
            });
        }
        let models = v
            .get("models")
            .ok_or_else(|| format("missing `models` section".to_string()))?;
        let field = |name: &str| {
            models
                .get(name)
                .ok_or_else(|| format(format!("missing `models.{name}` section")))
        };
        let mut predictor = InstructionPredictor::from_value(field("predictor")?)
            .map_err(|e| format(e.to_string()))?;
        let algid =
            AlgoIdentifier::from_value(field("algid")?).map_err(|e| format(e.to_string()))?;
        let mut scaleout =
            ScaleoutModel::from_value(field("scaleout")?).map_err(|e| format(e.to_string()))?;
        let nic = NicConfig::from_value(
            v.get("nic_config")
                .ok_or_else(|| format("missing `nic_config` section".to_string()))?,
        )
        .map_err(|e| format(e.to_string()))?;
        // Absent in version-1 envelopes; `from_value(Null)` yields the
        // legacy F64 default.
        let precision = Precision::from_value(v.get("precision").unwrap_or(&Value::Null))
            .map_err(|e| format(e.to_string()))?;
        // Version-1 files predate the quantized companions; rebuild them
        // from the f64 weights (no-op for version-2 files). The
        // fingerprint covers the companions, so it is taken afterwards.
        predictor.ensure_quantized();
        scaleout.ensure_quantized();
        Ok(Clara {
            predictor_fp: engine::value_fingerprint(&predictor),
            predictor,
            algid,
            scaleout,
            nic,
            precision,
        })
    }

    /// The trace-independent half of a prediction (verification, LSTM
    /// compute estimate, memory count), memoized process-wide by
    /// (predictor, module, precision) — the precision joins the key so a
    /// server holding both paths warm never serves one precision's
    /// estimate for the other. Memoized values are pure deterministic
    /// functions of the key, so a hit is bit-identical to recomputation;
    /// hit/miss counters are volatile because racing batch workers may
    /// both miss the same key.
    fn module_half(&self, module: &Module, precision: Precision) -> Result<(f64, u32), ClaraError> {
        type HalfMemo = Mutex<HashMap<(u64, u64, Precision), (f64, u32)>>;
        static MEMO: OnceLock<HalfMemo> = OnceLock::new();
        let key = (self.predictor_fp, engine::value_fingerprint(module), precision);
        let memo = MEMO.get_or_init(Mutex::default);
        if let Some(&hit) = memo.lock().expect("memo poisoned").get(&key) {
            obs::volatile_counter("clara.predict_memo.hits").incr();
            return Ok(hit);
        }
        obs::volatile_counter("clara.predict_memo.misses").incr();
        nf_ir::verify::verify_module(module).map_err(|e| ClaraError::InvalidModule {
            name: module.name.clone(),
            detail: e.to_string(),
        })?;
        let value = (
            self.predictor.predict_module_compute_prec(module, precision),
            prepare_module(module).counted_mem(),
        );
        memo.lock().expect("memo poisoned").insert(key, value);
        Ok(value)
    }

    /// Predicts performance parameters for a batch of `(module, trace)`
    /// pairs on one device `backend` at one inference `precision`, in
    /// **one** engine stage.
    ///
    /// The batch fans out across the worker pool as a single
    /// `predict-batch` [`crate::engine`] stage, and every item reuses one
    /// request-scoped [`engine::Engine`] handle so compiles and profiles
    /// are shared through the process-wide caches. Results come back in
    /// input order and are bit-identical to predicting each item alone.
    ///
    /// The trained models are reused on every backend (compute and
    /// memory predictions are device-independent); profiling, the
    /// scale-out estimate and the modeled operating point use the
    /// backend's device configuration, and its manifest fingerprint keys
    /// the engine caches, so two devices never share a cached profile.
    /// `Q16` routes model inference (compute estimate and core
    /// suggestion) through the fixed-point twins; counted memory,
    /// profiling and the performance model are precision-independent.
    /// Callers with no preference pass [`clara_hal::default_backend`] and
    /// [`Clara::precision`].
    ///
    /// # Errors
    ///
    /// Each item fails independently: [`ClaraError::EmptyTrace`] for a
    /// packet-less trace, [`ClaraError::InvalidModule`] when IR
    /// verification fails, [`ClaraError::Prediction`] for an unusable
    /// model estimate, and [`ClaraError::Degraded`] when the item's
    /// engine task failed permanently (panic past the retry budget or a
    /// stage deadline).
    pub fn predict(
        &self,
        items: &[(&Module, &Trace)],
        backend: &dyn clara_hal::Backend,
        precision: Precision,
    ) -> Vec<Result<Prediction, ClaraError>> {
        let nic = backend.nic();
        let backend_fp = backend.fingerprint();
        let eng = engine::Engine::new();
        let naive = PortConfig::naive();
        let outcome = engine::try_par_map("predict-batch", items, |_, &(module, trace)| {
            if trace.pkts.is_empty() {
                return Err(ClaraError::EmptyTrace);
            }
            let (predicted_compute, counted_mem) = self.module_half(module, precision)?;
            let profile = eng.profile_cached_for(module, trace, &naive, nic, backend_fp);
            // Scale-out is trained once and parameterized by the device
            // at inference time; the clamp keeps suggestions honest for
            // devices with fewer cores than the training default.
            let suggested_cores = self
                .scaleout
                .predict_prec(&profile, nic, &naive, precision)?
                .min(nic.cores);
            let perf = nic_sim::solve_perf(&profile, nic, &naive, suggested_cores);
            Ok(Prediction {
                predicted_compute,
                counted_mem,
                suggested_cores,
                predicted_throughput_mpps: perf.throughput_mpps,
                predicted_latency_us: perf.latency_us,
            })
        });
        outcome
            .results
            .into_iter()
            .map(|r| match r {
                Some(item) => item,
                // The task itself died (panic past the retry budget or a
                // stage deadline) — surface it as a degraded single-task
                // run so the caller sees the same shape `analyze` uses.
                None => Err(ClaraError::Degraded { failed: 1, total: 1 }),
            })
            .collect()
    }

    /// Analyzes an unported NF against a workload trace on one device
    /// `backend` at one inference `precision`, producing the full insight
    /// bundle. The profiling run, placement capacities, scale-out
    /// estimate and coalescing evaluation all use the backend's device
    /// configuration, and its manifest fingerprint keys the engine
    /// caches; the precision covers what it covers in [`Clara::predict`].
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::EmptyTrace`] for a packet-less trace,
    /// [`ClaraError::InvalidModule`] when the module fails IR
    /// verification, [`ClaraError::Prediction`] when a trained model
    /// produces an unusable estimate, and [`ClaraError::Degraded`] when
    /// the profiling task failed permanently (exhausted retries or hit a
    /// stage deadline).
    pub fn analyze(
        &self,
        module: &Module,
        trace: &Trace,
        backend: &dyn clara_hal::Backend,
        precision: Precision,
    ) -> Result<Insights, ClaraError> {
        let nic = backend.nic();
        let backend_fp = backend.fingerprint();
        if trace.pkts.is_empty() {
            return Err(ClaraError::EmptyTrace);
        }
        nf_ir::verify::verify_module(module).map_err(|e| ClaraError::InvalidModule {
            name: module.name.clone(),
            detail: e.to_string(),
        })?;
        let sink = obs::sink_from_env();
        if sink.is_some() {
            obs::enable();
        }
        let root = obs::span!("clara-analyze", "nf={} pkts={}", module.name, trace.pkts.len());
        let prepared = {
            let _s = obs::span("analyze-prepare");
            prepare_module(module)
        };
        let predicted_compute = {
            let _s = obs::span("analyze-predict-compute");
            self.predictor.predict_module_compute_prec(module, precision)
        };
        let counted_mem = prepared.counted_mem();
        let accel = {
            let _s = obs::span("analyze-algid");
            let (class, region) = self.algid.identify(module);
            if class == AlgoClass::None || region.is_empty() {
                None
            } else {
                Some((class, region))
            }
        };
        // Host-side profiling for the workload-specific insights, memoized
        // so repeat analyses of the same NF + trace reuse the run. This
        // is the one engine task in the analyze path, so it runs under
        // the fault-tolerance machinery (retries, deadline, injection).
        let naive = PortConfig::naive();
        let profile = match engine::try_time_stage("analyze-profile", || {
            engine::Engine::new().profile_cached_for(module, trace, &naive, nic, backend_fp)
        }) {
            Ok(p) => p,
            Err(_) => {
                drop(root);
                if let Some(raw) = sink {
                    write_report(&raw, "clara_analyze.json");
                }
                return Err(ClaraError::Degraded { failed: 1, total: 1 });
            }
        };
        let placement = {
            let _s = obs::span("analyze-placement");
            placement::plan::suggest_placement(module, &profile, nic).unwrap_or_default()
        };
        let coalesce = {
            let _s = obs::span("analyze-coalesce");
            coalesce::suggest_coalescing(module, trace, 7)
        };
        let suggested_cores = {
            let _s = obs::span("analyze-scaleout");
            self.scaleout
                .predict_prec(&profile, nic, &naive, precision)?
                .min(nic.cores)
        };
        drop(root);
        if let Some(raw) = sink {
            write_report(&raw, "clara_analyze.json");
        }
        Ok(Insights {
            predicted_compute,
            counted_mem,
            mem_count_accuracy: memory_count_accuracy(module),
            accel,
            suggested_cores,
            placement,
            coalesce,
            profile,
        })
    }

    /// Content fingerprint of the trained predictor weights: the part of
    /// the trace-independent prediction memo key that never changes for
    /// a given instance. Hashing the weight tensors costs milliseconds,
    /// more than a whole cold prediction, so it is computed once when
    /// the instance is trained or loaded and returned from there.
    pub fn predictor_fingerprint(&self) -> u64 {
        self.predictor_fp
    }

    /// [`Clara::predict`] with the caller's copy of
    /// [`Clara::predictor_fingerprint`], which must be this instance's.
    ///
    /// This exists only because `perfbench/` calls it, and the files
    /// there change only in a benchmark change; new code calls
    /// [`Clara::predict`].
    pub fn predict_batch_on_prec_cached(
        &self,
        items: &[(&Module, &Trace)],
        backend: &dyn clara_hal::Backend,
        precision: Precision,
        predictor_fp: u64,
    ) -> Vec<Result<Prediction, ClaraError>> {
        debug_assert_eq!(predictor_fp, self.predictor_fp, "fingerprint of another instance");
        self.predict(items, backend, precision)
    }

    /// [`Clara::analyze`] under its former name.
    ///
    /// This exists only because `perfbench/` calls it, and the files
    /// there change only in a benchmark change; new code calls
    /// [`Clara::analyze`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Clara::analyze`].
    pub fn analyze_on_prec(
        &self,
        module: &Module,
        trace: &Trace,
        backend: &dyn clara_hal::Backend,
        precision: Precision,
    ) -> Result<Insights, ClaraError> {
        self.analyze(module, trace, backend, precision)
    }
}

/// Best-effort run-report write for the facade's `CLARA_REPORT` sink
/// (telemetry must never fail the pipeline).
fn write_report(raw_sink: &str, default_name: &str) {
    let path = obs::resolve_sink(raw_sink, default_name);
    if let Err(e) = obs::RunReport::capture().write(&path) {
        eprintln!("warning: could not write run report to {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_hal::default_backend;
    use trafgen::WorkloadSpec;

    fn analyze(clara: &Clara, module: &Module, trace: &Trace) -> Result<Insights, ClaraError> {
        clara.analyze(module, trace, default_backend(), clara.precision)
    }

    #[test]
    fn end_to_end_insights_for_cmsketch() {
        let clara = Clara::train(&ClaraConfig::fast(1)).expect("train");
        let e = click_model::elements::cmsketch();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 300, 2);
        let insights = analyze(&clara, &e.module, &trace).expect("analysis succeeds");

        assert!(insights.predicted_compute > 0.0);
        assert!(insights.counted_mem > 0);
        assert!(insights.mem_count_accuracy > 90.0);
        let (class, region) = insights.accel.as_ref().expect("cmsketch has CRC loops");
        assert_eq!(*class, AlgoClass::Crc);
        assert!(!region.is_empty());
        assert!((1..=60).contains(&insights.suggested_cores));

        // The Clara port must beat the naive port on the simulator.
        let port = insights.port_config();
        let cfg = NicConfig::default();
        let naive_pt = nic_sim::simulate(&e.module, &trace, &PortConfig::naive(), &cfg, 20);
        let clara_pt = nic_sim::simulate(&e.module, &trace, &port, &cfg, 20);
        assert!(
            clara_pt.throughput_mpps > naive_pt.throughput_mpps,
            "clara {} vs naive {}",
            clara_pt.throughput_mpps,
            naive_pt.throughput_mpps
        );
        assert!(clara_pt.latency_us < naive_pt.latency_us);
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let clara = Clara::train(&ClaraConfig::fast(5)).expect("train");
        let dir = std::env::temp_dir().join("clara_model_test.json");
        clara.save(&dir).expect("saves");
        let loaded = Clara::load(&dir).expect("loads");
        std::fs::remove_file(&dir).ok();

        let e = click_model::elements::iplookup(256);
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 200, 6);
        let a = analyze(&clara, &e.module, &trace).expect("analysis succeeds");
        let b = analyze(&loaded, &e.module, &trace).expect("analysis succeeds");
        assert_eq!(a.predicted_compute, b.predicted_compute);
        assert_eq!(a.suggested_cores, b.suggested_cores);
        assert_eq!(a.accel, b.accel);
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn predictor_fingerprint_is_the_fingerprint_of_the_predictor() {
        let clara = Clara::train(&ClaraConfig::fast(6)).expect("train");
        assert_eq!(
            clara.predictor_fingerprint(),
            engine::value_fingerprint(&clara.predictor)
        );
        let path = std::env::temp_dir().join(format!("clara_fp_test_{}.json", std::process::id()));
        clara.save(&path).expect("saves");
        let loaded = Clara::load(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            loaded.predictor_fingerprint(),
            engine::value_fingerprint(&loaded.predictor)
        );
    }

    #[test]
    fn predict_batch_matches_analyze_and_single_item_predict() {
        let clara = Clara::train(&ClaraConfig::fast(8)).expect("train");
        let elems = [
            click_model::elements::cmsketch(),
            click_model::elements::iplookup(128),
            click_model::elements::tcpack(),
        ];
        let traces: Vec<Trace> = (0..elems.len())
            .map(|i| Trace::generate(&WorkloadSpec::large_flows(), 150, 10 + i as u64))
            .collect();
        let items: Vec<(&nf_ir::Module, &Trace)> = elems
            .iter()
            .zip(traces.iter())
            .map(|(e, t)| (&e.module, t))
            .collect();
        let predict = |items: &[(&Module, &Trace)]| {
            clara.predict(items, default_backend(), clara.precision)
        };
        let batch = predict(&items);
        assert_eq!(batch.len(), items.len());
        for ((e, t), p) in elems.iter().zip(traces.iter()).zip(batch.iter().map(|r| {
            r.as_ref().expect("batch item succeeds")
        })) {
            let one = predict(&[(&e.module, t)])
                .pop()
                .expect("one result per item")
                .expect("single-item predict succeeds");
            assert_eq!(&one, p, "batch and single-item predictions must agree");
            let insights = analyze(&clara, &e.module, t).expect("analyze succeeds");
            assert_eq!(p.predicted_compute, insights.predicted_compute);
            assert_eq!(p.counted_mem, insights.counted_mem);
            assert_eq!(p.suggested_cores, insights.suggested_cores);
        }
        // Per-item failures stay per-item: an empty trace fails its slot
        // without poisoning the rest of the batch.
        let empty = Trace::generate(&WorkloadSpec::large_flows(), 0, 1);
        let mixed = predict(&[(&elems[0].module, &empty), items[1]]);
        assert!(matches!(mixed[0], Err(ClaraError::EmptyTrace)));
        assert!(mixed[1].is_ok());
    }

    #[test]
    fn stateless_nf_gets_no_placement_or_accel() {
        let clara = Clara::train(&ClaraConfig::fast(3)).expect("train");
        let e = click_model::elements::tcpack();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 100, 4);
        let insights = analyze(&clara, &e.module, &trace).expect("analysis succeeds");
        assert!(insights.placement.is_empty());
        assert!(insights.coalesce.clusters.is_empty());
        assert!(insights.accel.is_none(), "{:?}", insights.accel);
        let empty = Trace::generate(&WorkloadSpec::large_flows(), 0, 4);
        assert!(matches!(
            analyze(&clara, &e.module, &empty),
            Err(ClaraError::EmptyTrace)
        ));
    }
}
