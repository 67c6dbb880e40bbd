//! Multicore scale-out factor analysis (paper Section 4.2).
//!
//! Clara predicts the close-to-optimal core count for an NF and workload
//! by training a GBDT cost model on synthesized programs deployed to the
//! NIC across different "schedules" (core counts) — the TVM-inspired
//! algorithm/schedule separation. Features capture arithmetic intensity
//! (compute vs memory to different regions) and workload shape.

use nic_sim::{optimal_cores, solve_perf, NicConfig, PortConfig, WorkloadProfile};

use crate::error::ClaraError;
use serde::{Deserialize, Serialize};
use tinyml::automl::AutoMlRegressor;
use tinyml::gbdt::{GbdtConfig, GbdtRegressor};
use tinyml::knn::Knn;
use tinyml::mlp::{Loss, Mlp, MlpConfig};
use tinyml::quant::{Precision, QuantGbdt};
use tinyml::regressor::{Regressor, RegressorInput};
use tinyml::Dataset;
use trafgen::WorkloadSpec;

#[cfg(test)]
use trafgen::Trace;

/// Feature vector of one (NF workload-profile, NIC) pair.
pub fn features_of(wp: &WorkloadProfile, cfg: &NicConfig, port: &PortConfig) -> Vec<f64> {
    let demand = wp.channel_demand(cfg, port);
    let mem_total: f64 = demand.iter().sum();
    let ai = wp.compute / mem_total.max(1e-9);
    let ws: u64 = wp.working_set.values().sum();
    vec![
        wp.compute / 100.0,
        demand[0],
        demand[1],
        demand[2],
        demand[3], // EMEM misses
        demand[4], // EMEM cache hits
        ai.min(100.0),
        ((ws.max(1)) as f64).log2(),
        wp.mean_pkt_size / 100.0,
    ]
}

/// Ground-truth optimal core count by exhaustive sweep (what the paper
/// obtains "by exhaustive benchmarking with all possible configurations").
pub fn optimal_by_sweep(wp: &WorkloadProfile, cfg: &NicConfig, port: &PortConfig) -> u32 {
    let pts: Vec<_> = (1..=cfg.cores)
        .map(|c| solve_perf(wp, cfg, port, c))
        .collect();
    optimal_cores(&pts)
}

/// The regressor family (Figure 11a's contenders).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleoutKind {
    /// Clara's GBDT.
    ClaraGbdt,
    /// k-nearest neighbours.
    Knn,
    /// Fully-connected network.
    Dnn,
    /// AutoML pipeline search.
    AutoMl,
}

impl ScaleoutKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ScaleoutKind::ClaraGbdt => "Clara (GBDT)",
            ScaleoutKind::Knn => "kNN",
            ScaleoutKind::Dnn => "DNN",
            ScaleoutKind::AutoMl => "AutoML",
        }
    }
}

#[derive(Serialize, Deserialize)]
enum SoModel {
    Gbdt(GbdtRegressor),
    Knn(Knn),
    Dnn(Mlp),
    AutoMl(AutoMlRegressor),
}

/// A trained scale-out (optimal core count) predictor.
///
/// For the GBDT family a Q16.16 quantized companion rides along (absent
/// in version-1 model files; rebuilt on load). Other families fall back
/// to f64 at any requested precision.
#[derive(Serialize, Deserialize)]
pub struct ScaleoutModel {
    model: SoModel,
    kind: ScaleoutKind,
    max_cores: u32,
    quant: Option<QuantGbdt>,
}

/// Builds the training set: synthesized NFs × workload profiles, labeled
/// with the sweep-optimal core count.
///
/// # Panics
///
/// Panics if any profiling or labeling task fails permanently;
/// [`try_training_set`] is the fault-tolerant form.
pub fn training_set(programs: usize, seed: u64, cfg: &NicConfig) -> Dataset {
    let (data, failures, total) = try_training_set(programs, seed, cfg);
    assert!(
        failures.is_empty(),
        "scaleout training set: {} of {total} task(s) failed permanently; first: {}",
        failures.len(),
        failures[0].error
    );
    data
}

/// Fault-tolerant [`training_set`]: matrix cells whose profiling fails
/// permanently (and rows whose labeling fails) are dropped from the
/// dataset and reported in the failure list. Returns
/// `(dataset, failures, tasks attempted)`.
pub fn try_training_set(
    programs: usize,
    seed: u64,
    cfg: &NicConfig,
) -> (Dataset, Vec<crate::engine::TaskFailure>, usize) {
    let modules = nf_synth::synth_corpus(programs, true, seed);
    let workloads = [
        WorkloadSpec::large_flows(),
        WorkloadSpec::small_flows().with_flows(8192),
        WorkloadSpec::min_size(),
    ];
    let port = PortConfig::naive();
    // The corpus × workload matrix fans out across the engine's worker
    // pool; profiles come back in the same (module-major) order the old
    // serial loop produced, so the dataset is bit-identical.
    let matrix = crate::engine::try_profile_matrix(&modules, &workloads, 400, seed, &port, cfg);
    let mut total = matrix.total();
    let mut failures = matrix.failures;
    let profiles: Vec<WorkloadProfile> = matrix.results.into_iter().flatten().collect();
    let labeled = crate::engine::try_par_map("scaleout-label", &profiles, |_, wp| {
        let label = optimal_by_sweep(wp, cfg, &port);
        (features_of(wp, cfg, &port), f64::from(label))
    });
    total += labeled.total();
    failures.extend(labeled.failures);
    let mut data = Dataset::default();
    for (x, y) in labeled.results.into_iter().flatten() {
        data.push(x, y);
    }
    (data, failures, total)
}

impl ScaleoutModel {
    /// Trains a predictor on a labeled dataset.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn train(kind: ScaleoutKind, data: &Dataset, cfg: &NicConfig, seed: u64) -> ScaleoutModel {
        assert!(!data.is_empty(), "empty dataset");
        let model = match kind {
            ScaleoutKind::ClaraGbdt => SoModel::Gbdt(GbdtRegressor::fit(
                &data.x,
                &data.y,
                &GbdtConfig {
                    rounds: 500,
                    shrinkage: 0.03,
                    tree: tinyml::tree::TreeConfig {
                        max_depth: 6,
                        min_split: 4,
                        min_leaf: 2,
                    },
                },
            )),
            ScaleoutKind::Knn => SoModel::Knn(Knn::fit(&data.x, &data.y, 3)),
            ScaleoutKind::Dnn => {
                let mut m = Mlp::new(MlpConfig {
                    inputs: data.dim(),
                    hidden: vec![32, 16],
                    outputs: 1,
                    loss: Loss::Mse,
                    lr: 0.01,
                    epochs: 120,
                    seed,
                });
                m.fit(&data.x, &data.y);
                SoModel::Dnn(m)
            }
            ScaleoutKind::AutoMl => SoModel::AutoMl(AutoMlRegressor::search(data, 10, seed)),
        };
        let quant = match &model {
            SoModel::Gbdt(m) => Some(QuantGbdt::quantize(m)),
            _ => None,
        };
        ScaleoutModel {
            model,
            kind,
            max_cores: cfg.cores,
            quant,
        }
    }

    /// The model family used.
    pub fn kind(&self) -> ScaleoutKind {
        self.kind
    }

    /// Rebuilds the quantized companion from the f64 ensemble if it is
    /// missing — used after loading a version-1 model file.
    pub fn ensure_quantized(&mut self) {
        if self.quant.is_none() {
            if let SoModel::Gbdt(m) = &self.model {
                self.quant = Some(QuantGbdt::quantize(m));
            }
        }
    }

    /// The [`Regressor`] serving a given precision (f64 reference unless
    /// a quantized companion exists and `Q16` was requested).
    fn regressor(&self, precision: Precision) -> &dyn Regressor {
        if matches!(precision, Precision::Q16) {
            if let Some(q) = &self.quant {
                return q;
            }
        }
        match &self.model {
            SoModel::Gbdt(m) => m,
            SoModel::Knn(m) => m,
            SoModel::Dnn(m) => m,
            SoModel::AutoMl(m) => m,
        }
    }

    /// Predicts the optimal core count for a profiled workload at the
    /// given precision.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Prediction`] when the regressor produces a
    /// non-finite estimate (a corrupt or out-of-domain model).
    pub fn predict_prec(
        &self,
        wp: &WorkloadProfile,
        cfg: &NicConfig,
        port: &PortConfig,
        precision: Precision,
    ) -> Result<u32, ClaraError> {
        let f = features_of(wp, cfg, port);
        let raw = self.regressor(precision).predict(RegressorInput::Features(&f));
        if !raw.is_finite() {
            return Err(ClaraError::Prediction {
                detail: format!(
                    "{} scale-out model returned a non-finite core estimate ({raw})",
                    self.kind.name()
                ),
            });
        }
        Ok((raw.round().max(1.0) as u32).min(self.max_cores))
    }

    /// Mean absolute error (in cores) on a labeled dataset.
    pub fn mae(&self, data: &Dataset) -> f64 {
        let preds: Vec<f64> = data
            .x
            .iter()
            .map(|f| {
                let raw = self
                    .regressor(Precision::F64)
                    .predict(RegressorInput::Features(f));
                raw.round().clamp(1.0, f64::from(self.max_cores))
            })
            .collect();
        tinyml::metrics::mae(&data.y, &preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbdt_beats_constant_predictor() {
        let cfg = NicConfig::default();
        let train = training_set(30, 1, &cfg);
        let test = training_set(10, 2, &cfg);
        let m = ScaleoutModel::train(ScaleoutKind::ClaraGbdt, &train, &cfg, 1);
        let mae = m.mae(&test);
        // Constant predictor: always guess the training mean.
        let mean = train.y.iter().sum::<f64>() / train.len() as f64;
        let base = tinyml::metrics::mae(&test.y, &vec![mean.round(); test.len()]);
        assert!(mae <= base, "gbdt {mae:.2} vs constant {base:.2}");
    }

    #[test]
    fn predictions_are_in_range() {
        let cfg = NicConfig::default();
        let train = training_set(12, 3, &cfg);
        let m = ScaleoutModel::train(ScaleoutKind::ClaraGbdt, &train, &cfg, 3);
        let e = click_model::elements::aggcounter();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 200, 4);
        let wp = nic_sim::profile_workload(&e.module, &trace, &PortConfig::naive(), &cfg, |_| {});
        let c = m
            .predict_prec(&wp, &cfg, &PortConfig::naive(), Precision::F64)
            .expect("finite prediction");
        assert!((1..=cfg.cores).contains(&c), "{c}");
    }

    #[test]
    fn all_baselines_train() {
        let cfg = NicConfig::default();
        let train = training_set(8, 5, &cfg);
        for kind in [ScaleoutKind::Knn, ScaleoutKind::Dnn, ScaleoutKind::AutoMl] {
            let m = ScaleoutModel::train(kind, &train, &cfg, 5);
            assert!(m.mae(&train).is_finite(), "{}", kind.name());
        }
    }
}
