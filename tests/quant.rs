//! The fixed-point precision axis, end to end.
//!
//! ISSUE acceptance: (a) quantized predictions stay within the pinned
//! tolerance of the f64 reference across the full extended corpus and
//! the suggested offload levels (core counts) are corpus-identical
//! between precisions; (b) the per-NF f64-vs-q16 wMAPE deltas are
//! pinned in a golden file (`CLARA_BLESS=1` regenerates); (c) v2 model
//! envelopes round-trip with their quantized twins, v1 envelopes still
//! load as f64 and rebuild the twins, and a future version is still
//! `UnsupportedVersion`; (d) the tolerance also holds on synthesized
//! (out-of-corpus) modules, property-tested.
//!
//! ```text
//! CLARA_BLESS=1 cargo test --test quant
//! ```

use std::fmt::Write as _;
use std::sync::OnceLock;

use clara_repro::clara::quantcheck::{self, QuantcheckConfig};
use clara_repro::clara::{prepare_module, Clara, ClaraConfig, ClaraError, Precision};
use proptest::prelude::*;
use serde::Value;

/// One pipeline trained for the whole binary.
fn clara() -> &'static Clara {
    static CLARA: OnceLock<Clara> = OnceLock::new();
    CLARA.get_or_init(|| Clara::train(&ClaraConfig::fast(19)).expect("training succeeds"))
}

/// Small quantcheck config so the cores-identity sweep stays quick in
/// debug builds; tolerances stay at their pinned defaults.
fn fast_cfg() -> QuantcheckConfig {
    QuantcheckConfig {
        packets: 120,
        reps: 1,
        ..QuantcheckConfig::default()
    }
}

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("CLARA_BLESS").is_ok() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("{path} missing; regenerate with CLARA_BLESS=1 cargo test --test quant")
    });
    assert_eq!(
        got, &want,
        "{name} changed; if intentional, regenerate with CLARA_BLESS=1 cargo test --test quant"
    );
}

/// (a)+(b): the oracle passes over the whole extended corpus and the
/// per-NF wMAPE deltas match the pinned golden.
#[test]
fn quantcheck_corpus_within_tolerance_and_golden_wmape() {
    let report = quantcheck::run(clara(), &fast_cfg()).expect("no quantization violations");
    assert_eq!(
        report.rows.len(),
        clara_repro::click::extended_corpus().len(),
        "every corpus NF is checked"
    );
    let mut golden = String::from(
        "# quant corpus golden: <nf> wmape=<Σ|q16−f64| / Σ|f64| over handler blocks>\n",
    );
    for r in &report.rows {
        assert!(!r.violated, "{} violated the pinned tolerance", r.nf);
        assert_eq!(
            r.cores_f64, r.cores_q16,
            "{}: suggested offload level must be precision-invariant",
            r.nf
        );
        let _ = writeln!(golden, "{} wmape={:.6}", r.nf, r.wmape);
    }
    check_golden("quant_corpus.txt", &golden);
}

/// Rewrites the top-level entries of a saved model envelope.
fn edit_envelope(json: &str, f: impl Fn(&mut Vec<(String, Value)>)) -> String {
    let mut v = serde_json::parse_value(json).expect("model file parses");
    match &mut v {
        Value::Map(entries) => f(entries),
        other => panic!("model envelope must be a map, got {other:?}"),
    }
    serde_json::to_string(&v).expect("envelope re-renders")
}

/// Strips a field from a nested map value.
fn strip_field(v: &mut Value, name: &str) {
    if let Value::Map(entries) = v {
        entries.retain(|(k, _)| k != name);
    }
}

/// (c): v2 round-trip preserves both inference paths bit for bit; a v1
/// envelope (no precision, no quantized twins) still loads as f64 and
/// rebuilds the twins; version 3 is rejected as `UnsupportedVersion`.
#[test]
fn model_envelope_versions_round_trip() {
    let clara = clara();
    let dir = std::env::temp_dir().join(format!("clara_quant_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let v2_path = dir.join("model_v2.json");
    clara.save(&v2_path).expect("save v2 model");

    let module = clara_repro::click::elements::cmsketch().module;
    let expect_f64 = clara.predictor.predict_module_compute_prec(&module, Precision::F64);
    let expect_q16 = clara
        .predictor
        .predict_module_compute_prec(&module, Precision::Q16);

    let loaded = Clara::load(&v2_path).expect("v2 model loads");
    assert_eq!(loaded.precision, Precision::F64);
    assert_eq!(
        loaded.predictor.predict_module_compute_prec(&module, Precision::F64).to_bits(),
        expect_f64.to_bits(),
        "f64 path must round-trip bit-identically"
    );
    assert_eq!(
        loaded
            .predictor
            .predict_module_compute_prec(&module, Precision::Q16)
            .to_bits(),
        expect_q16.to_bits(),
        "quantized twins are integer-exact and must round-trip bit-identically"
    );

    // A v1 envelope: version 1, no `precision` key, no quantized twins
    // anywhere in the model sections.
    let json = std::fs::read_to_string(&v2_path).expect("read saved model");
    let v1 = edit_envelope(&json, |entries| {
        entries.retain(|(k, _)| k != "precision");
        for (k, v) in entries.iter_mut() {
            match k.as_str() {
                "format_version" => *v = Value::UInt(1),
                "models" => {
                    if let Value::Map(models) = v {
                        for (_, model) in models.iter_mut() {
                            strip_field(model, "quant");
                        }
                    }
                }
                _ => {}
            }
        }
    });
    let v1_path = dir.join("model_v1.json");
    std::fs::write(&v1_path, v1).expect("write v1 model");
    let legacy = Clara::load(&v1_path).expect("v1 model still loads");
    assert_eq!(
        legacy.precision,
        Precision::F64,
        "v1 envelopes default to the f64 path"
    );
    assert!(
        legacy.predictor.has_quantized(),
        "loading must rebuild the quantized twins a v1 file lacks"
    );
    assert_eq!(
        legacy.predictor.predict_module_compute_prec(&module, Precision::F64).to_bits(),
        expect_f64.to_bits(),
        "v1 f64 predictions are unchanged"
    );
    assert_eq!(
        legacy
            .predictor
            .predict_module_compute_prec(&module, Precision::Q16)
            .to_bits(),
        expect_q16.to_bits(),
        "twins rebuilt from f64 weights are identical to saved twins"
    );

    // A future version is rejected with the typed mismatch error.
    let v3 = edit_envelope(&json, |entries| {
        for (k, v) in entries.iter_mut() {
            if k == "format_version" {
                *v = Value::UInt(3);
            }
        }
    });
    let v3_path = dir.join("model_v3.json");
    std::fs::write(&v3_path, v3).expect("write v3 model");
    match Clara::load(&v3_path) {
        Err(ClaraError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 3);
            assert_eq!(supported, clara_repro::clara::MODEL_FORMAT_VERSION);
        }
        Err(other) => panic!("version 3 must be UnsupportedVersion, got {other}"),
        Ok(_) => panic!("version 3 must not load"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (d): the pinned tolerance holds on synthesized modules the
    /// predictor never trained on — quantization error is a property of
    /// the weights, not of the corpus.
    #[test]
    fn synthesized_modules_stay_within_tolerance(seed in 0u64..3000) {
        let m = nf_synth::synth_corpus(1, true, seed).remove(0);
        let predictor = &clara().predictor;
        for block in &prepare_module(&m).blocks {
            let f = predictor.predict_block_prec(&block.tokens, Precision::F64);
            let q = predictor.predict_block_prec(&block.tokens, Precision::Q16);
            let bound = quantcheck::QUANT_ABS_TOLERANCE
                .max(quantcheck::QUANT_REL_TOLERANCE * f.abs());
            prop_assert!(
                (q - f).abs() <= bound,
                "seed {seed}: block predicts {f} (f64) vs {q} (q16), bound {bound}"
            );
        }
    }
}
