//! Criterion benches for the reproduced system's own performance:
//! vendor-compiler speed, interpreter packet rate, model inference
//! latency, ILP solve time, and the analytic performance model.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use clara_core::predict::{block_samples, InstructionPredictor, PredictTrainConfig, PredictorKind};
use clara_core::Precision;
use ilp_solver::AssignmentProblem;
use nic_sim::{solve_perf, NicConfig, PortConfig};
use trafgen::{Trace, WorkloadSpec};

fn bench_nfcc_compile(c: &mut Criterion) {
    let corpus = click_model::corpus();
    c.bench_function("nfcc_compile_corpus", |b| {
        b.iter(|| {
            for e in &corpus {
                black_box(nfcc::compile_module(&e.module));
            }
        });
    });
}

fn bench_interpreter(c: &mut Criterion) {
    let e = click_model::elements::mazunat();
    let spec = WorkloadSpec {
        tcp_ratio: 1.0,
        ..WorkloadSpec::large_flows()
    };
    let trace = Trace::generate(&spec, 256, 1);
    c.bench_function("interp_mazunat_256pkts", |b| {
        let mut machine = click_model::Machine::new(&e.module).expect("verifies");
        b.iter(|| {
            for p in &trace.pkts {
                black_box(machine.run(p).expect("runs"));
            }
        });
    });
}

fn bench_lstm_inference(c: &mut Criterion) {
    let modules = nf_synth::synth_corpus(20, true, 5);
    let samples = block_samples(&modules);
    let model = InstructionPredictor::train(
        PredictorKind::ClaraLstm,
        &samples,
        &PredictTrainConfig {
            epochs: 3,
            ..Default::default()
        },
    );
    let tokens = samples[0].tokens.clone();
    c.bench_function("lstm_predict_block", |b| {
        b.iter(|| black_box(model.predict_block_prec(&tokens, Precision::F64)));
    });
}

fn bench_ilp(c: &mut Criterion) {
    // A placement-shaped instance: 8 structures, 4 levels.
    let p = AssignmentProblem {
        costs: (0..8)
            .map(|i| {
                vec![
                    25.0 * (i + 1) as f64,
                    55.0 * (i + 1) as f64,
                    150.0 * (i + 1) as f64,
                    500.0 * (i + 1) as f64,
                ]
            })
            .collect(),
        sizes: vec![64, 4096, 16384, 128, 65536, 8, 1024, 32768],
        caps: vec![131072, 1048576, 4194304, u64::MAX / 2],
    };
    c.bench_function("ilp_placement_8x4", |b| {
        b.iter(|| black_box(p.solve_within(u64::MAX)));
    });
}

fn bench_perf_model(c: &mut Criterion) {
    let e = click_model::elements::udpcount();
    let trace = Trace::generate(&WorkloadSpec::small_flows().with_flows(2048), 400, 2);
    let cfg = NicConfig::default();
    let port = PortConfig::naive();
    let wp = nic_sim::profile_workload(&e.module, &trace, &port, &cfg, |_| {});
    c.bench_function("solve_perf_60core_sweep", |b| {
        b.iter(|| {
            for cores in 1..=60 {
                black_box(solve_perf(&wp, &cfg, &port, cores));
            }
        });
    });
}

fn bench_synthesis(c: &mut Criterion) {
    let profile = nf_synth::CorpusProfile::measure(&click_model::corpus());
    c.bench_function("synth_generate_10_programs", |b| {
        b.iter(|| {
            let mut synth = nf_synth::Synthesizer::new(profile.clone(), 7);
            black_box(synth.generate_many(10, "bench"));
        });
    });
}

fn bench_profiling(c: &mut Criterion) {
    let e = click_model::elements::udpcount();
    let trace = Trace::generate(&WorkloadSpec::large_flows(), 512, 3);
    let cfg = NicConfig::default();
    let port = PortConfig::naive();
    c.bench_function("profile_udpcount_512pkts", |b| {
        b.iter(|| {
            black_box(nic_sim::profile_workload(
                &e.module,
                &trace,
                &port,
                &cfg,
                |_| {},
            ));
        });
    });
    // Recorded replay (the placement/coalescing sweep fast path).
    let rec = nic_sim::record_workload(&e.module, &trace, |_| {});
    c.bench_function("replay_udpcount_512pkts", |b| {
        b.iter(|| {
            black_box(nic_sim::profile_recorded(&e.module, &rec, &port, &cfg));
        });
    });
}

fn bench_training(c: &mut Criterion) {
    use tinyml::gbdt::{GbdtConfig, GbdtRegressor};
    use tinyml::svm::{MultiSvm, SvmConfig};
    let x: Vec<Vec<f64>> = (0..200)
        .map(|i| vec![(i % 17) as f64, (i % 5) as f64, (i % 3) as f64])
        .collect();
    let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0 + r[1] - r[2]).collect();
    let labels: Vec<usize> = x.iter().map(|r| (r[2] as usize) % 3).collect();
    c.bench_function("gbdt_train_200x3", |b| {
        b.iter(|| black_box(GbdtRegressor::fit(&x, &y, &GbdtConfig::default())));
    });
    c.bench_function("svm_train_200x3", |b| {
        b.iter(|| black_box(MultiSvm::fit(&x, &labels, 3, &SvmConfig::default())));
    });
}

fn bench_vendor_asm(c: &mut Criterion) {
    let e = click_model::elements::mazunat();
    c.bench_function("nfcc_compile_mazunat", |b| {
        b.iter(|| black_box(nfcc::compile_module(&e.module)));
    });
}

criterion_group!(
    benches,
    bench_nfcc_compile,
    bench_interpreter,
    bench_lstm_inference,
    bench_ilp,
    bench_perf_model,
    bench_synthesis,
    bench_profiling,
    bench_training,
    bench_vendor_asm
);
criterion_main!(benches);
