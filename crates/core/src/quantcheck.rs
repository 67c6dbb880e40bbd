//! Quantization oracle (`clara quantcheck`): difftest-style checking of
//! the Q16.16 fast path against the f64 reference.
//!
//! For every NF in the extended 27-element corpus the oracle compares
//! per-block compute predictions between precisions against a pinned
//! tolerance, requires the suggested core count to be identical, and
//! times the module-level predict stage at both precisions (the honest
//! measurement of what the fixed-point path buys: `clara serve`'s steady
//! state is memo-dominated, so a serve-side req/s delta would mostly
//! measure the memo). On a tolerance violation a greedy shrinker
//! minimizes the worst block's token sequence to the smallest prefix/
//! subsequence that still violates, and writes it as a repro artifact.
//!
//! Violations surface as [`ClaraError::Quantization`] — exit code 9 at
//! the CLI — carrying the first offending NF and the artifact location.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nf_ir::AbstractToken;
use nic_sim::PortConfig;
use tinyml::quant::Precision;
use trafgen::{Trace, WorkloadSpec};

use crate::clara::Clara;
use crate::error::ClaraError;
use crate::predict::InstructionPredictor;
use crate::prepare::prepare_module;

/// Pinned relative tolerance: a block's Q16 prediction may drift at most
/// this fraction of the f64 value (when above the absolute floor).
pub const QUANT_REL_TOLERANCE: f64 = 0.02;
/// Pinned absolute floor: blocks whose predictions are tiny may drift up
/// to this many instructions regardless of the relative bound.
pub const QUANT_ABS_TOLERANCE: f64 = 0.5;

/// Knobs for one oracle run.
#[derive(Debug, Clone)]
pub struct QuantcheckConfig {
    /// Packets in the workload trace used for the core-count check.
    pub packets: usize,
    /// Trace RNG seed.
    pub seed: u64,
    /// Timing repetitions for the predict-stage speed measurement.
    pub reps: usize,
    /// Relative tolerance (defaults to [`QUANT_REL_TOLERANCE`]).
    pub rel_tol: f64,
    /// Absolute tolerance floor (defaults to [`QUANT_ABS_TOLERANCE`]).
    pub abs_tol: f64,
    /// When set, fail unless the Q16 predict stage is at least this many
    /// times faster than f64.
    pub require_speedup: Option<f64>,
    /// Where to write the minimized repro on violation.
    pub artifact_dir: Option<PathBuf>,
}

impl Default for QuantcheckConfig {
    fn default() -> QuantcheckConfig {
        QuantcheckConfig {
            packets: 400,
            seed: 42,
            reps: 3,
            rel_tol: QUANT_REL_TOLERANCE,
            abs_tol: QUANT_ABS_TOLERANCE,
            require_speedup: None,
            artifact_dir: None,
        }
    }
}

/// Per-NF comparison row.
#[derive(Debug, Clone)]
pub struct NfQuantRow {
    /// Corpus element name.
    pub nf: &'static str,
    /// Handler blocks compared.
    pub blocks: usize,
    /// Module compute prediction, f64 path.
    pub compute_f64: f64,
    /// Module compute prediction, Q16 path.
    pub compute_q16: f64,
    /// Weighted MAPE of Q16 vs f64 over the blocks
    /// (`Σ|q−f| / Σ|f|`).
    pub wmape: f64,
    /// Suggested cores, f64 path.
    pub cores_f64: u32,
    /// Suggested cores, Q16 path.
    pub cores_q16: u32,
    /// True when some block (or the core count) broke tolerance.
    pub violated: bool,
}

/// Outcome of a full oracle run.
#[derive(Debug, Clone)]
pub struct QuantcheckReport {
    /// One row per corpus NF, corpus order.
    pub rows: Vec<NfQuantRow>,
    /// Predict-stage wall time over all NFs × reps, f64 path (ms).
    pub f64_ms: f64,
    /// Predict-stage wall time over all NFs × reps, Q16 path (ms).
    pub q16_ms: f64,
    /// `f64_ms / q16_ms`.
    pub speedup: f64,
}

impl QuantcheckReport {
    /// Fixed-width table of the per-NF rows plus the timing summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>12} {:>12} {:>10} {:>5} {:>5}  ok",
            "nf", "blocks", "f64", "q16", "wmape", "c64", "cq16"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<14} {:>6} {:>12.4} {:>12.4} {:>10.6} {:>5} {:>5}  {}",
                r.nf,
                r.blocks,
                r.compute_f64,
                r.compute_q16,
                r.wmape,
                r.cores_f64,
                r.cores_q16,
                if r.violated { "VIOLATED" } else { "ok" }
            );
        }
        let _ = writeln!(
            out,
            "predict stage: f64 {:.2} ms, q16 {:.2} ms, speedup {:.2}x",
            self.f64_ms, self.q16_ms, self.speedup
        );
        out
    }
}

fn within(q: f64, f: f64, cfg: &QuantcheckConfig) -> bool {
    (q - f).abs() <= cfg.abs_tol.max(cfg.rel_tol * f.abs())
}

/// Runs the oracle over the extended corpus with a trained pipeline.
///
/// # Errors
///
/// Returns [`ClaraError::Quantization`] when any NF breaks the block
/// tolerance or flips its suggested core count, or — with
/// `require_speedup` set — when the Q16 predict stage misses the floor.
/// [`ClaraError::Io`] can surface while writing repro artifacts, and
/// [`ClaraError::Prediction`] if the scale-out model degenerates.
pub fn run(clara: &Clara, cfg: &QuantcheckConfig) -> Result<QuantcheckReport, ClaraError> {
    let corpus = click_model::extended_corpus();
    let naive = PortConfig::naive();
    let mut rows = Vec::with_capacity(corpus.len());
    let mut first_violation: Option<(String, Option<PathBuf>)> = None;
    let mut violations = 0usize;

    for e in &corpus {
        let prepared = prepare_module(&e.module);
        let mut num = 0.0f64; // Σ|q − f|
        let mut den = 0.0f64; // Σ|f|
        let mut worst: Option<(usize, f64)> = None; // (block idx, excess)
        for (bi, block) in prepared.blocks.iter().enumerate() {
            let f = clara.predictor.predict_block_prec(&block.tokens, Precision::F64);
            let q = clara
                .predictor
                .predict_block_prec(&block.tokens, Precision::Q16);
            num += (q - f).abs();
            den += f.abs();
            if !within(q, f, cfg) {
                let excess = (q - f).abs() - cfg.abs_tol.max(cfg.rel_tol * f.abs());
                if worst.is_none_or(|(_, w)| excess > w) {
                    worst = Some((bi, excess));
                }
            }
        }
        let wmape = if den > 0.0 { num / den } else { 0.0 };

        let trace = Trace::generate(&WorkloadSpec::large_flows(), cfg.packets, cfg.seed);
        let wp = nic_sim::profile_workload(&e.module, &trace, &naive, &clara.nic, |_| {});
        let cores_f64 = clara
            .scaleout
            .predict_prec(&wp, &clara.nic, &naive, Precision::F64)?
            .min(clara.nic.cores);
        let cores_q16 = clara
            .scaleout
            .predict_prec(&wp, &clara.nic, &naive, Precision::Q16)?
            .min(clara.nic.cores);

        let violated = worst.is_some() || cores_f64 != cores_q16;
        if violated {
            violations += 1;
            if first_violation.is_none() {
                let (detail, artifact) = describe_violation(
                    clara, cfg, e.name(), &prepared, worst, cores_f64, cores_q16,
                )?;
                first_violation = Some((detail, artifact));
            }
        }
        rows.push(NfQuantRow {
            nf: e.name(),
            blocks: prepared.blocks.len(),
            compute_f64: clara.predictor.predict_module_compute_prec(&e.module, Precision::F64),
            compute_q16: clara
                .predictor
                .predict_module_compute_prec(&e.module, Precision::Q16),
            wmape,
            cores_f64,
            cores_q16,
            violated,
        });
    }

    // Timing: the module-level predict stage (what serve's batch path
    // runs per miss), both precisions, identical work lists.
    let time_precision = |p: Precision| {
        let start = Instant::now();
        for _ in 0..cfg.reps.max(1) {
            for e in &corpus {
                std::hint::black_box(clara.predictor.predict_module_compute_prec(&e.module, p));
            }
        }
        start.elapsed().as_secs_f64() * 1e3
    };
    let f64_ms = time_precision(Precision::F64);
    let q16_ms = time_precision(Precision::Q16);
    let speedup = f64_ms / q16_ms.max(1e-9);

    let report = QuantcheckReport {
        rows,
        f64_ms,
        q16_ms,
        speedup,
    };
    if let Some((detail, artifact_dir)) = first_violation {
        return Err(ClaraError::Quantization {
            violations,
            checked: report.rows.len(),
            detail,
            artifact_dir,
        });
    }
    if let Some(floor) = cfg.require_speedup {
        if speedup < floor {
            return Err(ClaraError::Quantization {
                violations: 0,
                checked: report.rows.len(),
                detail: format!(
                    "q16 predict-stage speedup {speedup:.2}x is below the required floor \
                     {floor:.2}x (f64 {f64_ms:.2} ms vs q16 {q16_ms:.2} ms)"
                ),
                artifact_dir: None,
            });
        }
    }
    Ok(report)
}

/// Builds the human-readable detail (and optional artifact) for the
/// first violating NF; shrinks the worst block when one exists.
#[allow(clippy::too_many_arguments)]
fn describe_violation(
    clara: &Clara,
    cfg: &QuantcheckConfig,
    nf: &str,
    prepared: &crate::prepare::PreparedModule,
    worst: Option<(usize, f64)>,
    cores_f64: u32,
    cores_q16: u32,
) -> Result<(String, Option<PathBuf>), ClaraError> {
    if let Some((bi, _)) = worst {
        let tokens = &prepared.blocks[bi].tokens;
        let minimized = shrink_tokens(&clara.predictor, tokens, cfg);
        let f = clara.predictor.predict_block_prec(&minimized, Precision::F64);
        let q = clara
            .predictor
            .predict_block_prec(&minimized, Precision::Q16);
        let detail = format!(
            "{nf}: block {bi} predicts {f:.4} (f64) vs {q:.4} (q16), outside \
             max({:.2}, {:.0}%·|f64|); minimized to {} of {} token(s)",
            cfg.abs_tol,
            cfg.rel_tol * 100.0,
            minimized.len(),
            tokens.len()
        );
        let artifact = match &cfg.artifact_dir {
            Some(dir) => Some(write_repro(dir, nf, bi, &minimized, f, q)?),
            None => None,
        };
        Ok((detail, artifact))
    } else {
        Ok((
            format!(
                "{nf}: suggested cores flipped between precisions \
                 ({cores_f64} at f64 vs {cores_q16} at q16)"
            ),
            None,
        ))
    }
}

/// Greedy ddmin-style shrink: repeatedly try dropping chunks (halving
/// chunk size down to single tokens) while the tolerance violation
/// persists. Deterministic and linear-ish; the result still violates.
fn shrink_tokens(
    predictor: &InstructionPredictor,
    tokens: &[AbstractToken],
    cfg: &QuantcheckConfig,
) -> Vec<AbstractToken> {
    let violates = |toks: &[AbstractToken]| {
        let f = predictor.predict_block_prec(toks, Precision::F64);
        let q = predictor.predict_block_prec(toks, Precision::Q16);
        !within(q, f, cfg)
    };
    let mut cur: Vec<AbstractToken> = tokens.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut shrunk = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            if !candidate.is_empty() && violates(&candidate) {
                cur = candidate;
                shrunk = true;
                // Re-test from the same offset: the window now holds new
                // tokens.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !shrunk {
            return cur;
        }
        if !shrunk {
            chunk = (chunk / 2).max(1);
        }
    }
}

fn write_repro(
    dir: &Path,
    nf: &str,
    block: usize,
    tokens: &[AbstractToken],
    f: f64,
    q: f64,
) -> Result<PathBuf, ClaraError> {
    let io_err = |p: &Path, e: std::io::Error| ClaraError::Io {
        path: p.to_path_buf(),
        source: e,
    };
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let path = dir.join(format!("quant_{nf}_block{block}.txt"));
    let mut body = format!(
        "nf: {nf}\nblock: {block}\nf64: {f}\nq16: {q}\nminimized tokens ({}):\n",
        tokens.len()
    );
    for t in tokens {
        let _ = writeln!(body, "  {t:?}");
    }
    fs::write(&path, body).map_err(|e| io_err(&path, e))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tolerances_are_pinned() {
        let cfg = QuantcheckConfig::default();
        assert_eq!(cfg.rel_tol, QUANT_REL_TOLERANCE);
        assert_eq!(cfg.abs_tol, QUANT_ABS_TOLERANCE);
        assert!(within(10.1, 10.0, &cfg));
        assert!(!within(10.8, 10.0, &cfg));
        assert!(within(0.3, 0.0, &cfg), "absolute floor covers tiny blocks");
    }
}
