//! Replays a served request through the layers' public functions, in
//! the order the daemon calls them, with one span per layer boundary.
//!
//! The replay mirrors the daemon's state as well as its calls: the
//! prediction cache, the per-module memo of the trace-independent
//! prediction half, and the compile cache are all warm by the time the
//! traced pass starts, so the replay looks them up instead of redoing
//! that work. Its rendered response must equal the daemon's bytes, which
//! is how a drift between replay and daemon shows.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;

use clara_core::algid::AlgoClass;
use clara_core::{coalesce, engine, placement, predict, prepare_module, Clara};
use clara_core::{Insights, PortConfig, Precision, Prediction, WorkloadProfile};
use clara_hal::{Backend as _, DeviceBackend};
use clara_serve::protocol::{self, Request, WorkSpec};
use nf_ir::Module;
use nfcc::NicModule;
use trafgen::Trace;

use perfbench::spans::Recorder;

/// The daemon's prediction-cache key, minus the route (one backend and
/// one precision per run).
type Key = (String, usize, u64, bool);

fn key(w: &WorkSpec) -> Key {
    (w.nf.clone(), w.packets, w.seed, w.small_flows)
}

/// Replays requests against one loaded model.
pub struct Replayer<'a> {
    clara: &'a Clara,
    corpus: &'a BTreeMap<String, Module>,
    backend: &'static DeviceBackend,
    precision: Precision,
    cache: HashMap<Key, Prediction>,
    compiled: HashMap<String, Arc<NicModule>>,
    memo: HashMap<String, (f64, u32)>,
}

impl<'a> Replayer<'a> {
    /// A replayer whose memo and compile cache hold every corpus NF, as
    /// the daemon's do after its set-up pass.
    pub fn new(
        clara: &'a Clara,
        corpus: &'a BTreeMap<String, Module>,
        backend: &'static DeviceBackend,
        precision: Precision,
    ) -> Replayer<'a> {
        let compiled = corpus
            .iter()
            .map(|(n, m)| (n.clone(), nfcc::compile_module_shared(m)))
            .collect();
        let memo = corpus
            .iter()
            .map(|(n, m)| {
                let half = (
                    clara.predictor.predict_module_compute_prec(m, precision),
                    prepare_module(m).counted_mem(),
                );
                (n.clone(), half)
            })
            .collect();
        Replayer {
            clara,
            corpus,
            backend,
            precision,
            cache: HashMap::new(),
            compiled,
            memo,
        }
    }

    /// Enters a prediction the daemon already holds in its cache.
    pub fn prime(&mut self, w: &WorkSpec, p: Prediction) {
        self.cache.insert(key(w), p);
    }

    /// Replays one request line as request `req` and returns the
    /// response it renders.
    ///
    /// # Errors
    ///
    /// A description of the first layer call that failed.
    pub fn replay(&mut self, rec: &mut Recorder, req: u64, line: &str) -> Result<String, String> {
        rec.span("replay", req, |r| {
            let env = r.span("serve.parse", req, |_| protocol::parse_request(line))?;
            match env.req {
                Request::Predict(w) => self.predict(r, req, &w),
                Request::Analyze(w) => self.analyze(r, req, &w),
                other => Err(format!("no replay for {other:?}")),
            }
        })
    }

    fn module(&self, nf: &str) -> Result<&'a Module, String> {
        self.corpus
            .get(nf)
            .ok_or_else(|| format!("`{nf}` is not in the corpus"))
    }

    fn predict(&mut self, r: &mut Recorder, req: u64, w: &WorkSpec) -> Result<String, String> {
        let k = key(w);
        let hit = r.span("serve.cache_lookup", req, |_| self.cache.get(&k).cloned());
        let p = match hit {
            Some(p) => p,
            None => {
                let module = self.module(&w.nf)?;
                let trace = r.span("trafgen.generate", req, |_| w.trace());
                let p = r.span("core.predict", req, |r| {
                    self.predict_miss(r, req, module, &trace)
                })?;
                self.cache.insert(k, p.clone());
                p
            }
        };
        Ok(r.span("serve.render", req, |_| {
            protocol::predict_response(None, &w.nf, self.backend.name(), self.precision, &p)
        }))
    }

    fn predict_miss(
        &self,
        r: &mut Recorder,
        req: u64,
        module: &Module,
        trace: &Trace,
    ) -> Result<Prediction, String> {
        let nic = self.backend.nic();
        let naive = PortConfig::naive();
        let &(predicted_compute, counted_mem) = self
            .memo
            .get(&module.name)
            .ok_or_else(|| format!("no memo for `{}`", module.name))?;
        let profile = self.profile(r, req, module, trace)?;
        let suggested_cores = r
            .span("ml.gbdt_predict", req, |_| {
                self.clara
                    .scaleout
                    .predict_prec(&profile, nic, &naive, self.precision)
            })
            .map_err(|e| e.to_string())?
            .min(nic.cores);
        let perf = r.span("nicsim.solve_perf", req, |_| {
            nic_sim::solve_perf(&profile, nic, &naive, suggested_cores)
        });
        Ok(Prediction {
            predicted_compute,
            counted_mem,
            suggested_cores,
            predicted_throughput_mpps: perf.throughput_mpps,
            predicted_latency_us: perf.latency_us,
        })
    }

    /// The engine's profile-cache miss: key hashing, then recording and
    /// costing the trace against the cached compile.
    fn profile(
        &self,
        r: &mut Recorder,
        req: u64,
        module: &Module,
        trace: &Trace,
    ) -> Result<WorkloadProfile, String> {
        let nic = self.backend.nic();
        let naive = PortConfig::naive();
        r.span("engine.cache_key", req, |_| {
            black_box((
                nic_sim::module_fingerprint(module),
                engine::value_fingerprint(trace),
                engine::value_fingerprint(&naive),
                engine::value_fingerprint(nic),
            ))
        });
        let compiled = self
            .compiled
            .get(&module.name)
            .ok_or_else(|| format!("no compile for `{}`", module.name))?;
        Ok(r.span("nicsim.profile", req, |_| {
            let recorded = nic_sim::record_workload(module, trace, |_| {});
            nic_sim::profile_recorded_compiled(module, compiled, &recorded, &naive, nic)
        }))
    }

    fn analyze(&mut self, r: &mut Recorder, req: u64, w: &WorkSpec) -> Result<String, String> {
        let module = self.module(&w.nf)?;
        let trace = r.span("trafgen.generate", req, |_| w.trace());
        let ins = r.span("core.analyze", req, |r| {
            self.analyze_call(r, req, module, &trace)
        })?;
        Ok(r.span("serve.render", req, |_| {
            protocol::analyze_response(
                None,
                &w.nf,
                self.backend.name(),
                self.precision,
                module,
                &ins,
            )
        }))
    }

    fn analyze_call(
        &self,
        r: &mut Recorder,
        req: u64,
        module: &Module,
        trace: &Trace,
    ) -> Result<Insights, String> {
        let nic = self.backend.nic();
        let naive = PortConfig::naive();
        r.span("nfir.verify", req, |_| nf_ir::verify::verify_module(module))
            .map_err(|e| e.to_string())?;
        let prepared = r.span("core.prepare", req, |_| prepare_module(module));
        let predicted_compute = r.span("ml.lstm_predict", req, |_| {
            self.clara
                .predictor
                .predict_module_compute_prec(module, self.precision)
        });
        let (class, region) = r.span("ml.svm_identify", req, |_| {
            self.clara.algid.identify(module)
        });
        let accel = (class != AlgoClass::None && !region.is_empty()).then_some((class, region));
        let profile = self.profile(r, req, module, trace)?;
        let placement = r.span("ilp.placement", req, |_| {
            placement::plan::suggest_placement(module, &profile, nic).unwrap_or_default()
        });
        let coalesce = r.span("core.coalesce", req, |_| {
            coalesce::suggest_coalescing(module, trace, 7)
        });
        let suggested_cores = r
            .span("ml.gbdt_predict", req, |_| {
                self.clara
                    .scaleout
                    .predict_prec(&profile, nic, &naive, self.precision)
            })
            .map_err(|e| e.to_string())?
            .min(nic.cores);
        let mem_count_accuracy = r.span("core.mem_accuracy", req, |_| {
            predict::memory_count_accuracy(module)
        });
        Ok(Insights {
            predicted_compute,
            counted_mem: prepared.counted_mem(),
            mem_count_accuracy,
            accel,
            suggested_cores,
            placement,
            coalesce,
            profile,
        })
    }
}
