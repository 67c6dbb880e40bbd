//! End-to-end coverage of the observability layer.
//!
//! These tests exercise the full telemetry path — spans opened by the
//! engine and substrate crates, the always-on metric counters, report
//! serialization, and the facade's report sinks and versioned model
//! persistence. The obs registry is process-global, so every test here
//! holds [`OBS_LOCK`] and resets the registry before making assertions.

use std::sync::Mutex;

use clara_repro::clara::{engine, Clara, ClaraConfig, ClaraError, MODEL_FORMAT_VERSION};
use clara_repro::ir::Module;
use clara_repro::nicsim::{NicConfig, PortConfig};
use clara_repro::{hal, obs};
use clara_repro::trafgen::{Trace, WorkloadSpec};

/// Serializes tests in this binary: obs state and the engine caches are
/// process globals.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn corpus_module(name: &str) -> Module {
    clara_repro::click::corpus()
        .into_iter()
        .find(|e| e.name() == name)
        .expect("known corpus element")
        .module
}

/// The engine's cache counters agree with its own `EngineStats` view, and
/// the single-flight caches make hit/miss counts exact.
#[test]
fn cache_counters_reconcile_with_engine_stats() {
    let _g = OBS_LOCK.lock().unwrap();
    engine::Engine::new().clear_caches();
    obs::reset();

    let module = corpus_module("aggcounter");
    let trace = Trace::generate(&WorkloadSpec::large_flows(), 60, 9);
    let port = PortConfig::naive();
    let cfg = NicConfig::default();
    let a = engine::Engine::new().profile_cached(&module, &trace, &port, &cfg);
    let b = engine::Engine::new().profile_cached(&module, &trace, &port, &cfg);
    assert_eq!(a.compute.to_bits(), b.compute.to_bits());

    // Snapshot first: it touches all four cache counters, registering any
    // (like compile hits) that this workload never incremented.
    let stats = engine::EngineStats::snapshot();
    let report = obs::RunReport::capture();
    assert_eq!(report.counter("engine.profile_cache.misses"), Some(1));
    assert_eq!(report.counter("engine.profile_cache.hits"), Some(1));
    assert_eq!(report.counter("engine.compile_cache.misses"), Some(1));

    assert_eq!(Some(stats.profile_misses), report.counter("engine.profile_cache.misses"));
    assert_eq!(Some(stats.profile_hits), report.counter("engine.profile_cache.hits"));
    assert_eq!(Some(stats.compile_misses), report.counter("engine.compile_cache.misses"));
    assert_eq!(Some(stats.compile_hits), report.counter("engine.compile_cache.hits"));
}

/// Spans opened inside worker threads nest under the dispatching stage
/// span (via `obs::attach`), exactly as they would in a serial run.
#[test]
fn worker_spans_nest_under_the_stage_span() {
    let _g = OBS_LOCK.lock().unwrap();
    engine::set_threads(2);
    engine::Engine::new().clear_caches();
    obs::enable();
    obs::reset();

    let modules = [corpus_module("aggcounter"), corpus_module("cmsketch")];
    let compiled = engine::par_map("obs-test-stage", &modules, |_, m| {
        engine::Engine::new().compile_cached(m).handler().total_compute()
    });
    assert_eq!(compiled.len(), 2);

    let report = obs::RunReport::capture();
    obs::disable();
    engine::set_threads(0);

    let stage = report.find_span("obs-test-stage").expect("stage span recorded");
    let nested = stage
        .children
        .iter()
        .filter(|c| c.name == "nfcc-compile")
        .count();
    assert_eq!(nested, 2, "both worker compiles nest under the stage: {stage:?}");
}

/// Both serializations are valid JSON and round-trip byte-identically
/// through the workspace's JSON parser.
#[test]
fn run_report_json_round_trips() {
    let _g = OBS_LOCK.lock().unwrap();
    obs::enable();
    obs::reset();

    obs::counter("obs_rt.counter").add(3);
    obs::gauge("obs_rt.gauge").set(1.25);
    let h = obs::histogram("obs_rt.hist");
    for v in [4.0, 1.0, 2.5] {
        h.observe(v);
    }
    {
        let _outer = obs::span!("rt-root", "k={}", 1);
        let _inner = obs::span("rt-child");
    }

    let report = obs::RunReport::capture();
    obs::disable();

    for json in [report.to_json(), report.to_json_deterministic()] {
        let value = serde_json::parse_value(&json).expect("report is valid JSON");
        let rendered = serde_json::to_string(&value).expect("value renders");
        assert_eq!(rendered, json, "JSON round-trip must be byte-identical");
    }
}

/// `Clara::train` honours the `CLARA_REPORT` sink and the written report
/// covers every layer: facade spans, engine caches, nfcc, nic-sim and the
/// per-epoch ML counters. The same trained model then exercises the
/// versioned persistence paths, including every error variant.
#[test]
fn train_report_sink_and_versioned_persistence() {
    let _g = OBS_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join("clara_obs_it");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report_path = dir.join("train.json");

    engine::Engine::new().clear_caches();
    obs::reset();
    std::env::set_var("CLARA_REPORT", &report_path);
    let cfg = ClaraConfig::fast(21)
        .to_builder()
        .predict_programs(8)
        .algid_per_class(6)
        .scaleout_programs(3)
        .epochs(2)
        .build();
    let clara = Clara::train(&cfg).expect("train");
    std::env::remove_var("CLARA_REPORT");
    obs::disable();

    let body = std::fs::read_to_string(&report_path).expect("train report written");
    for needle in [
        "\"name\":\"clara-train\"",
        "train-predict-branch",
        "train-algid-branch",
        "train-scaleout-branch",
        "engine.compile_cache.misses",
        "nfcc.modules_compiled",
        "nicsim.profile_runs",
        "ml.lstm.epochs",
        "ml.gbdt.rounds",
    ] {
        assert!(body.contains(needle), "report missing {needle}");
    }

    // Versioned persistence: happy path first.
    let model_path = dir.join("model.json");
    clara.save(&model_path).expect("model saves");
    let loaded = Clara::load(&model_path).expect("model loads");
    let trace = Trace::generate(&WorkloadSpec::large_flows(), 80, 3);
    let module = corpus_module("aggcounter");
    let backend = hal::default_backend();
    let a = clara.analyze(&module, &trace, backend, clara.precision).expect("analysis succeeds");
    let b = loaded.analyze(&module, &trace, backend, loaded.precision).expect("analysis succeeds");
    assert_eq!(a.suggested_cores, b.suggested_cores);

    // A future format version is rejected, not misread.
    let saved = std::fs::read_to_string(&model_path).expect("saved model readable");
    assert!(saved.contains("\"format_version\":2"), "envelope carries the version");
    let bumped = saved.replacen("\"format_version\":2", "\"format_version\":999", 1);
    std::fs::write(&model_path, bumped).expect("rewrite model");
    match Clara::load(&model_path) {
        Err(ClaraError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 999);
            assert_eq!(supported, MODEL_FORMAT_VERSION);
        }
        Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
        Ok(_) => panic!("expected UnsupportedVersion, got a loaded model"),
    }

    // Garbage content is a Format error; a missing file is an Io error.
    std::fs::write(&model_path, "{not json").expect("rewrite model");
    assert!(matches!(Clara::load(&model_path), Err(ClaraError::Format { .. })));
    assert!(matches!(
        Clara::load(dir.join("missing.json")),
        Err(ClaraError::Io { .. })
    ));

    let _ = std::fs::remove_dir_all(&dir);
}
