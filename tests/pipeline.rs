//! End-to-end integration: the trained Clara pipeline produces insights
//! whose port configurations actually pay off on the simulated NIC.

use clara_repro::clara::{Clara, ClaraConfig, Precision};
use clara_repro::hal;
use clara_repro::nicsim::{self, PortConfig};
use clara_repro::trafgen::{Trace, WorkloadSpec};

fn trained() -> Clara {
    Clara::train(&ClaraConfig::fast(99)).expect("train")
}

#[test]
fn clara_port_beats_naive_port_on_accelerator_elements() {
    let clara = trained();
    let trace = Trace::generate(&WorkloadSpec::large_flows(), 800, 1);
    for name in ["cmsketch", "wepdecap"] {
        let e = clara_repro::click::corpus()
            .into_iter()
            .find(|e| e.name() == name)
            .expect("known");
        let insights = clara
            .analyze(&e.module, &trace, hal::default_backend(), clara.precision)
            .expect("analysis succeeds");
        let cores = insights.suggested_cores;
        let naive = nicsim::simulate(&e.module, &trace, &PortConfig::naive(), &clara.nic, cores);
        let tuned = nicsim::simulate(
            &e.module,
            &trace,
            &insights.port_config(),
            &clara.nic,
            cores,
        );
        assert!(
            tuned.throughput_mpps >= naive.throughput_mpps,
            "{name}: Clara port lost throughput ({} vs {})",
            tuned.throughput_mpps,
            naive.throughput_mpps
        );
        assert!(
            tuned.latency_us <= naive.latency_us,
            "{name}: Clara port raised latency ({} vs {})",
            tuned.latency_us,
            naive.latency_us
        );
    }
}

#[test]
fn insights_are_internally_consistent() {
    let clara = trained();
    let trace = Trace::generate(&WorkloadSpec::small_flows().with_flows(1024), 800, 2);
    for e in clara_repro::click::corpus() {
        let insights = clara
            .analyze(&e.module, &trace, hal::default_backend(), clara.precision)
            .expect("analysis succeeds");
        // Core suggestions in range.
        assert!(
            (1..=clara.nic.cores).contains(&insights.suggested_cores),
            "{}",
            e.name()
        );
        // Placement only names real globals.
        for g in insights.placement.keys() {
            assert!(e.module.global(*g).is_some(), "{}", e.name());
        }
        // Coalescing only packs scalar globals of this module.
        for cluster in &insights.coalesce.clusters {
            assert!(cluster.len() >= 2);
            for (g, _) in cluster {
                assert!(e.module.global(*g).is_some(), "{}", e.name());
            }
        }
        // Accel regions reference real blocks.
        if let Some((_, region)) = &insights.accel {
            let n = e.module.handler().unwrap().blocks.len() as u32;
            assert!(region.iter().all(|b| b.0 < n), "{}", e.name());
        }
        // The counted memory matches the prepared module.
        let prepared = clara_repro::clara::prepare_module(&e.module);
        assert_eq!(insights.counted_mem, prepared.counted_mem(), "{}", e.name());
    }
}

#[test]
fn prediction_correlates_with_ground_truth_across_corpus() {
    let clara = trained();
    // Module-level predicted compute must rank-correlate with the vendor
    // compiler's true totals across the corpus.
    let mut pred = Vec::new();
    let mut truth = Vec::new();
    for e in clara_repro::click::corpus() {
        pred.push(clara.predictor.predict_module_compute_prec(&e.module, Precision::F64));
        truth.push(f64::from(
            clara_repro::nfcc::compile_module(&e.module)
                .handler()
                .total_compute(),
        ));
    }
    let tau = clara_repro::ml::metrics::kendall_tau(&pred, &truth);
    assert!(tau > 0.5, "prediction rank correlation too weak: {tau:.2}");
}
