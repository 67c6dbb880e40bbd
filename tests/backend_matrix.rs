//! Golden cross-device matrix: one trained pipeline, every Click corpus
//! element, every built-in device manifest.
//!
//! Two pins live here:
//!
//! - `cross_device_matrix_matches_golden` renders per-(element, backend)
//!   prediction summaries (suggested cores, modeled throughput/latency,
//!   compute estimate, counted memory accesses) and compares them to
//!   `tests/golden/backend_matrix.txt`. A change to any manifest, to the
//!   performance model, or to the HAL plumbing shows up as a readable
//!   diff instead of a silent drift.
//! - `default_backend_report_matches_golden` analyzes on the default
//!   `agilio-cx` backend and pins the fingerprint of the deterministic
//!   telemetry report in `tests/golden/backend_report_fp.txt`.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```sh
//! CLARA_BLESS=1 cargo test --test backend_matrix
//! ```

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use clara_repro::clara::{engine, Clara, ClaraConfig};
use clara_repro::hal::{self, Backend as _};
use clara_repro::trafgen::{Trace, WorkloadSpec};

/// The tests drive the process-global engine and telemetry registry;
/// they must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`OBS_LOCK`] even when a failed test poisoned it, so one
/// failure stays one failure.
fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One trained pipeline shared by the tests (training dominates
/// runtime; predictions are cheap).
fn clara() -> &'static Clara {
    static CLARA: OnceLock<Clara> = OnceLock::new();
    CLARA.get_or_init(|| Clara::train(&ClaraConfig::fast(11)).expect("training succeeds"))
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
        panic!("{path} missing; regenerate with CLARA_BLESS=1 cargo test --test backend_matrix")
    });
    assert_eq!(
        got, &want,
        "{name} changed; if intentional, regenerate with CLARA_BLESS=1 cargo test --test backend_matrix"
    );
}

#[test]
fn cross_device_matrix_matches_golden() {
    let _g = obs_lock();
    let clara = clara();
    let mut out = String::from(
        "# backend matrix golden: <element> <backend> cores=<suggested> \
         mpps=<throughput> lat_us=<latency> compute=<cycles/pkt> mem=<counted>\n",
    );
    for e in clara_repro::click::corpus() {
        let trace = Trace::generate(&WorkloadSpec::imix(), 60, 7);
        for b in hal::builtins() {
            let p = clara
                .predict(&[(&e.module, &trace)], b, clara.precision)
                .pop()
                .expect("one result per item")
                .expect("prediction succeeds");
            writeln!(
                out,
                "{} {} cores={} mpps={:.3} lat_us={:.3} compute={:.1} mem={}",
                e.name(),
                b.name(),
                p.suggested_cores,
                p.predicted_throughput_mpps,
                p.predicted_latency_us,
                p.predicted_compute,
                p.counted_mem
            )
            .expect("write to string");
        }
    }
    // Ported compute cycles for the accelerator-eligible NFs — the rows
    // where a device's declared catalog variant shows: dpu-offpath's
    // `crc64-ecma` menu entry doubles the CRC per-iteration charge, so
    // its `ported` rows for the CRC NFs differ from what the identical
    // device with the default variant would produce (see
    // `dpu_crc_variant_delta_is_attributable_to_the_catalog`).
    for name in ["cmsketch", "wepdecap", "iplookup"] {
        let e = clara_repro::click::corpus()
            .into_iter()
            .find(|e| e.name() == name)
            .expect("known corpus element");
        let trace = Trace::generate(&WorkloadSpec::imix(), 60, 7);
        for b in hal::builtins() {
            let insights = clara
                .analyze(&e.module, &trace, b, clara.precision)
                .expect("analyze succeeds");
            let port = insights.port_config();
            let wp =
                clara_repro::nicsim::profile_workload(&e.module, &trace, &port, b.nic(), |_| {});
            writeln!(out, "ported {} {} cycles={:.3}", e.name(), b.name(), wp.compute)
                .expect("write to string");
        }
    }
    check_golden("backend_matrix.txt", &out);
}

/// Cross-device accelerator-variant pin: porting a CRC NF onto each
/// device charges the device's CRC engine, and `dpu-offpath`'s declared
/// `crc64-ecma` variant (2x per-iteration cost) produces a compute delta
/// attributable to *nothing but* the catalog variant. The per-device
/// ported cycle counts are pinned in `backend_matrix.txt` alongside the
/// prediction rows (see `cross_device_matrix_matches_golden`).
#[test]
fn dpu_crc_variant_delta_is_attributable_to_the_catalog() {
    let _g = obs_lock();
    let clara = clara();
    let trace = Trace::generate(&WorkloadSpec::imix(), 60, 7);
    let e = clara_repro::click::corpus()
        .into_iter()
        .find(|e| e.name() == "wepdecap")
        .expect("known corpus element");
    let dpu = hal::builtin("dpu-offpath").expect("shipped");
    let insights = clara.analyze(&e.module, &trace, dpu, clara.precision).expect("analyze");
    let (class, _) = insights.accel.clone().expect("wepdecap has a CRC region");
    assert_eq!(class.name(), "crc");
    let port = insights.port_config();

    // The same manifest with the `variant` key stripped lowers to the
    // catalog default (crc32-ieee, scale 1.0).
    let text = std::fs::read_to_string(format!(
        "{}/crates/hal/manifests/dpu-offpath.toml",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("shipped manifest readable");
    let stripped: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("variant"))
        .collect::<Vec<_>>()
        .join("\n");
    let base = hal::DeviceBackend::parse("dpu-default-crc.toml", &stripped).expect("valid");
    assert_eq!(base.manifest().crc.variant, "crc32-ieee");
    assert_eq!(dpu.nic().crc_accel_per_iter, 2.0 * base.nic().crc_accel_per_iter);

    // Profile the ported NF under both lowered configs: identical except
    // for the CRC engine's per-iteration cost, so the compute delta is
    // exactly the collapsed CRC iterations' share.
    let with = clara_repro::nicsim::profile_workload(&e.module, &trace, &port, dpu.nic(), |_| {});
    let without =
        clara_repro::nicsim::profile_workload(&e.module, &trace, &port, base.nic(), |_| {});
    assert!(
        with.compute > without.compute,
        "crc64-ecma must cost more per packet: {} vs {}",
        with.compute,
        without.compute
    );
    assert_eq!(with.pkts, without.pkts);
    assert_eq!(with.fixed_accesses, without.fixed_accesses);
    assert_eq!(with.global_access, without.global_access);
}

#[test]
fn default_backend_report_matches_golden() {
    let _g = obs_lock();
    let clara = clara();
    let e = clara_repro::click::corpus()
        .into_iter()
        .find(|e| e.name() == "cmsketch")
        .expect("known corpus element");
    let trace = Trace::generate(&WorkloadSpec::imix(), 60, 7);
    let backend = hal::default_backend();
    assert_eq!(backend.name(), hal::DEFAULT_BACKEND);
    // Capture a full deterministic telemetry report for one cold
    // analysis: caches are cleared first so the counters reflect the
    // whole analysis, not what earlier tests left warm.
    engine::Engine::new().clear_caches();
    clara_repro::obs::enable();
    clara_repro::obs::reset();
    clara
        .analyze(&e.module, &trace, backend, clara.precision)
        .expect("analyze on default backend");
    let report = clara_repro::obs::RunReport::capture().to_json_deterministic();
    clara_repro::obs::disable();
    assert!(report.contains("clara-analyze"), "{report}");
    // Pin the deterministic report shape itself, so a change to the span
    // tree or the work-derived counters is an explicit golden update.
    let fp = format!("{:016x}\n", engine::value_fingerprint(&report));
    check_golden("backend_report_fp.txt", &fp);
}
