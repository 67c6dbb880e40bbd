//! Port advisor: sweep the whole NF corpus and print a porting report.
//!
//! Run with: `cargo run --release --example port_advisor`
//!
//! This is the "SmartNIC team" scenario the paper's introduction
//! motivates: a developer has a directory of legacy Click NFs and wants
//! to know, before porting anything, which NFs will benefit from which
//! porting strategies. The advisor trains Clara once and reports per-NF
//! recommendations plus the projected gain of a Clara port over a naive
//! port.

use clara_repro::clara::{Clara, ClaraConfig};
use clara_repro::hal;
use clara_repro::nicsim::{self, PortConfig};
use clara_repro::trafgen::{Trace, WorkloadSpec};

fn main() {
    println!("=== Clara port advisor: full corpus report ===\n");
    let clara = Clara::train(&ClaraConfig::fast(13)).expect("training degraded");
    let spec = WorkloadSpec::small_flows().with_flows(4096);
    let trace = Trace::generate(&spec, 2500, 99);
    let cfg = clara.nic.clone();

    println!(
        "{:<12} {:>9} {:>5} {:>7} {:>6}  {:<28} projected gain",
        "NF", "pred.cyc", "mem", "accel", "cores", "placement"
    );
    for e in clara_repro::click::corpus() {
        let insights = clara
            .analyze(&e.module, &trace, hal::default_backend(), clara.precision)
            .expect("corpus element analyzes cleanly");
        let accel = insights
            .accel
            .as_ref()
            .map_or("-".to_string(), |(c, _)| c.name().to_string());
        let placement: Vec<String> = insights
            .placement
            .iter()
            .filter(|(_, l)| **l != nicsim::MemLevel::Emem)
            .map(|(g, l)| {
                format!(
                    "{}→{}",
                    e.module
                        .global(*g)
                        .map_or("?", |d| &d.name[..d.name.len().min(8)]),
                    l.name()
                )
            })
            .collect();
        let cores = insights.suggested_cores;
        let naive = nicsim::simulate(&e.module, &trace, &PortConfig::naive(), &cfg, cores);
        let tuned = nicsim::simulate(&e.module, &trace, &insights.port_config(), &cfg, cores);
        let gain = tuned.throughput_mpps / naive.throughput_mpps;
        println!(
            "{:<12} {:>9.0} {:>5} {:>7} {:>6}  {:<28} {:.2}x thpt, {:+.0}% lat",
            e.name(),
            insights.predicted_compute,
            insights.counted_mem,
            accel,
            cores,
            placement.join(" "),
            gain,
            (tuned.latency_us / naive.latency_us - 1.0) * 100.0
        );
    }
    println!("\n(projected gain = Clara port vs naive port on the simulated NIC, same cores)");
}
