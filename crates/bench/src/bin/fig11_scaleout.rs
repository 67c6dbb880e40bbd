//! Figure 11: multicore scale-out factor analysis.
//!
//! (a) core-count MAE of Clara's GBDT vs kNN, DNN and AutoML;
//! (b) suggested vs sweep-optimal cores on the four complex NFs;
//! (c)-(f) throughput/latency-ratio and raw curves vs core count for two
//! flow profiles, with Clara's suggestions marked, plus the peak gain of
//! the optimum over naively using all cores.

use clara_bench::{banner, f2, f3, nic, scaled, table, trace_len};
use clara_core::scaleout::{optimal_by_sweep, training_set, ScaleoutKind, ScaleoutModel};
use clara_core::Precision;
use nic_sim::{solve_perf, NicConfig, PortConfig, WorkloadProfile};
use trafgen::{Trace, WorkloadSpec};

fn main() {
    let _report = clara_bench::report_scope("fig11_scaleout");
    banner("Figure 11", "multicore scale-out analysis");
    let cfg = nic();

    // (a) Model comparison on held-out synthesized workloads.
    println!("\n(a) core-count prediction MAE (cores)");
    let train = training_set(scaled(160), 41, &cfg);
    let test = training_set(scaled(20), 42, &cfg);
    let mut rows = Vec::new();
    let mut models = Vec::new();
    for kind in [
        ScaleoutKind::ClaraGbdt,
        ScaleoutKind::AutoMl,
        ScaleoutKind::Knn,
        ScaleoutKind::Dnn,
    ] {
        let m = ScaleoutModel::train(kind, &train, &cfg, 41);
        rows.push(vec![kind.name().to_string(), f2(m.mae(&test))]);
        models.push(m);
    }
    table(&["Model", "MAE"], &rows);
    println!("Paper reference: Clara's GBDT lowest; AutoML also picks GBDT.");

    // (b)-(f): the four complex NFs under two flow profiles.
    let clara = &models[0];
    let nfs = ["mazunat", "dnsproxy", "webgen", "udpcount"];
    // Small EMEM cache in this experiment config exposes the small-flow
    // regime at tractable trace lengths (as in the paper's 256k flows).
    let run_cfg = NicConfig {
        emem_cache_bytes: 32 * 1024,
        ..cfg.clone()
    };

    println!("\n(b) suggested vs optimal cores (small flows)");
    let mut rows = Vec::new();
    let mut profiles: Vec<(String, WorkloadProfile, WorkloadProfile)> = Vec::new();
    for name in nfs {
        let e = clara_bench::element(name);
        let port = PortConfig::naive().with_csum_accel();
        let large = profile(&e, &WorkloadSpec::large_flows(), &run_cfg, &port);
        let small = profile(
            &e,
            &WorkloadSpec::small_flows().with_flows(8192),
            &run_cfg,
            &port,
        );
        let suggested = clara
            .predict_prec(&small, &run_cfg, &port, Precision::F64)
            .expect("finite prediction");
        let optimal = optimal_by_sweep(&small, &run_cfg, &port);
        let ratio_sugg = solve_perf(&small, &run_cfg, &port, suggested).ratio();
        let ratio_opt = solve_perf(&small, &run_cfg, &port, optimal).ratio();
        rows.push(vec![
            name.to_string(),
            suggested.to_string(),
            optimal.to_string(),
            format!("{:.1}%", (1.0 - ratio_sugg / ratio_opt).abs() * 100.0),
        ]);
        profiles.push((name.to_string(), large, small));
    }
    table(&["NF", "Clara", "optimal", "perf deviation"], &rows);
    println!("Paper reference: suggestions within 1-6% of optimal.");

    type Pick = fn(&(String, WorkloadProfile, WorkloadProfile)) -> &WorkloadProfile;
    let views: [(&str, Pick); 2] = [("(c) large flows", |t| &t.1), ("(d) small flows", |t| &t.2)];
    for (label, pick) in views {
        println!("\n{label}: throughput/latency ratio vs cores (sampled)");
        let header: Vec<String> = ["NF".to_string()]
            .into_iter()
            .chain([1u32, 4, 8, 16, 24, 32, 40, 48, 56, 60].map(|c| format!("c{c}")))
            .chain(["knee".to_string(), "gain@knee".to_string()])
            .collect();
        let mut rows = Vec::new();
        for t in &profiles {
            let wp = pick(t);
            let port = PortConfig::naive().with_csum_accel();
            let pts: Vec<_> = (1..=60)
                .map(|c| solve_perf(wp, &run_cfg, &port, c))
                .collect();
            let knee = nic_sim::optimal_cores(&pts);
            let all60 = pts[59].ratio();
            let best = pts[(knee - 1) as usize].ratio();
            let mut row = vec![t.0.clone()];
            for c in [1u32, 4, 8, 16, 24, 32, 40, 48, 56, 60] {
                row.push(f3(pts[(c - 1) as usize].ratio()));
            }
            row.push(knee.to_string());
            row.push(format!("{:+.1}%", (best / all60 - 1.0) * 100.0));
            rows.push(row);
        }
        let hdr: Vec<&str> = header.iter().map(String::as_str).collect();
        table(&hdr, &rows);
    }
    println!("\nPaper reference: curves peak at interior core counts; optimum up to 71.1% better than all-cores; large flows peak earlier than small flows.");

    println!("\n(e)-(f) detail: throughput and latency vs cores, mazunat & webgen (small flows)");
    for t in profiles
        .iter()
        .filter(|t| t.0 == "mazunat" || t.0 == "webgen")
    {
        let port = PortConfig::naive().with_csum_accel();
        let suggested = clara
            .predict_prec(&t.2, &run_cfg, &port, Precision::F64)
            .expect("finite prediction");
        println!("  {} (Clara suggests {suggested} cores):", t.0);
        let mut rows = Vec::new();
        for c in [1u32, 8, 16, 24, 32, 40, 48, 56, 60] {
            let p = solve_perf(&t.2, &run_cfg, &port, c);
            rows.push(vec![
                c.to_string(),
                f2(p.throughput_mpps),
                f2(p.latency_us),
                f3(p.ratio()),
            ]);
        }
        table(&["cores", "Mpps", "latency us", "ratio"], &rows);
    }
}

fn profile(
    e: &click_model::NfElement,
    spec: &WorkloadSpec,
    cfg: &NicConfig,
    port: &PortConfig,
) -> WorkloadProfile {
    let spec = WorkloadSpec {
        tcp_ratio: 0.9,
        ..spec.clone()
    };
    let n = trace_len().max(6000).min(spec.flows as usize * 4 + 2000);
    let trace = Trace::generate(&spec, n, 40);
    nic_sim::profile_workload(&e.module, &trace, port, cfg, |_| {})
}
