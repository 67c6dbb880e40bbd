//! Quickstart: analyze one NF with Clara and act on the insights.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! This walks the full paper pipeline on one element:
//! 1. train Clara on synthesized corpora (instruction prediction,
//!    algorithm identification, scale-out model);
//! 2. analyze the *unported* `cmsketch` NF against a workload trace;
//! 3. turn the insights into a port configuration and compare it with a
//!    naive port on the simulated SmartNIC.

use clara_repro::clara::{Clara, ClaraConfig};
use clara_repro::hal;
use clara_repro::nicsim::{self, PortConfig};
use clara_repro::trafgen::{Trace, WorkloadSpec};

fn main() {
    println!("=== Clara quickstart ===\n");

    // 1. Train. `fast` keeps this example snappy; benchmarks use `full`.
    println!("training Clara (synthesized corpora)...");
    let clara = Clara::train(&ClaraConfig::fast(7)).expect("training degraded");

    // 2. Analyze an unported NF against a workload.
    let nf = clara_repro::click::elements::cmsketch();
    let spec = WorkloadSpec::large_flows();
    let trace = Trace::generate(&spec, 2000, 42);
    let insights = clara
        .analyze(&nf.module, &trace, hal::default_backend(), clara.precision)
        .expect("corpus element analyzes cleanly");

    println!("\ninsights for `{}`:", nf.name());
    println!(
        "  predicted NIC compute instructions / packet: {:.0}",
        insights.predicted_compute
    );
    println!(
        "  counted memory accesses (IR): {} ({:.1}% fidelity vs vendor compiler)",
        insights.counted_mem, insights.mem_count_accuracy
    );
    match &insights.accel {
        Some((class, region)) => println!(
            "  accelerator opportunity: {} over {} loop blocks",
            class.name(),
            region.len()
        ),
        None => println!("  accelerator opportunity: none"),
    }
    println!("  suggested cores: {}", insights.suggested_cores);
    for (g, level) in &insights.placement {
        let name = nf.module.global(*g).map_or("?", |d| d.name.as_str());
        println!("  place {name} in {}", level.name());
    }

    // 3. Port it both ways and compare on the simulated NIC.
    let cfg = clara.nic.clone();
    let cores = insights.suggested_cores;
    let naive = nicsim::simulate(&nf.module, &trace, &PortConfig::naive(), &cfg, cores);
    let tuned = nicsim::simulate(&nf.module, &trace, &insights.port_config(), &cfg, cores);
    println!("\nsimulated at {cores} cores:");
    println!(
        "  naive port: {:.2} Mpps, {:.2} us",
        naive.throughput_mpps, naive.latency_us
    );
    println!(
        "  Clara port: {:.2} Mpps, {:.2} us  ({:.2}x throughput, {:.0}% lower latency)",
        tuned.throughput_mpps,
        tuned.latency_us,
        tuned.throughput_mpps / naive.throughput_mpps,
        (1.0 - tuned.latency_us / naive.latency_us) * 100.0
    );
}
