//! Pins the benchmark's own arithmetic: nearest-rank percentiles, the
//! hit/miss split, slice readings, counter deltas, and span self time.

use std::time::Instant;

use perfbench::spans::{self, Recorder, Span};
use perfbench::stats;

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::percentile(&v, 50.0), Some(5.0));
    assert_eq!(stats::percentile(&v, 90.0), Some(9.0));
    assert_eq!(stats::percentile(&v, 91.0), Some(10.0));
    assert_eq!(stats::percentile(&v, 99.0), Some(10.0));
    assert_eq!(stats::percentile(&v, 0.0), Some(1.0));
    assert_eq!(stats::percentile(&v, 100.0), Some(10.0));
    // Order of the input does not matter; no interpolation happens.
    let shuffled = [7.0, 1.0, 4.0, 2.0];
    assert_eq!(stats::percentile(&shuffled, 50.0), Some(2.0));
    assert_eq!(stats::percentile(&[], 50.0), None);
    assert_eq!(stats::percentile(&[3.5], 99.0), Some(3.5));
}

#[test]
fn p99_needs_a_hundred_samples_to_leave_the_maximum() {
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(stats::percentile(&v, 99.0), Some(198.0));
    let few: Vec<f64> = (1..=50).map(f64::from).collect();
    assert_eq!(stats::percentile(&few, 99.0), Some(50.0));
}

#[test]
fn pooled_percentiles_of_two_classes_flip_at_the_boundary() {
    // 99 fast hits and one slow miss: the pooled p99 is a hit and the
    // pooled p99.5 the miss, so a pooled tail measures the class mix.
    // Each class's own percentiles do not move with the mix.
    let hits: Vec<f64> = (0..99).map(|i| 60.0 + f64::from(i % 3)).collect();
    let misses = vec![3000.0];
    let mut pooled = hits.clone();
    pooled.extend(&misses);
    assert_eq!(stats::percentile(&pooled, 99.0), Some(62.0));
    assert_eq!(stats::percentile(&pooled, 99.5), Some(3000.0));
    assert_eq!(stats::percentile(&hits, 99.0), Some(62.0));
    assert_eq!(stats::percentile(&misses, 50.0), Some(3000.0));
    pooled.push(3100.0);
    assert_eq!(stats::percentile(&pooled, 99.0), Some(3000.0));
}

#[test]
fn slices_keep_ten_samples_beyond_the_percentile() {
    assert_eq!(stats::slices_for(0, 99.0), 1);
    assert_eq!(stats::slices_for(1999, 99.0), 1);
    assert_eq!(stats::slices_for(2000, 99.0), 2);
    assert_eq!(stats::slices_for(15_500, 99.0), 15);
    assert_eq!(stats::slices_for(99_999, 99.0), 99);
    assert_eq!(stats::slices_for(180_000, 99.0), stats::MAX_SLICES);
    // A median needs only 20 samples for ten beyond it; slices keep 100.
    assert_eq!(stats::slices_for(2000, 50.0), 20);
    assert_eq!(stats::slices_for(99, 50.0), 1);
    assert_eq!(stats::slices_for(800, 95.0), 4);
}

#[test]
fn quiet_readings_skip_stalled_slices() {
    // Ten slices of 100 samples; three were stalled by the host.
    let mut v: Vec<f64> = (0..1000).map(|i| 70.0 + f64::from(i % 10)).collect();
    for x in &mut v[300..600] {
        *x *= 2.0;
    }
    let p50s = stats::slice_percentiles(&v, 50.0, 10);
    assert_eq!(p50s.len(), 10);
    assert_eq!(p50s[0], 74.0);
    assert_eq!(p50s[4], 148.0);
    assert_eq!(stats::quiet_low(&p50s), Some(74.0));
    // The pooled p50 and the median slice would read the mix.
    assert_eq!(stats::percentile(&v, 50.0), Some(77.0));
    let p99s = stats::slice_percentiles(&v, 99.0, 10);
    assert_eq!(stats::quiet_low(&p99s), Some(79.0));
    assert!(stats::slice_percentiles(&v[..5], 50.0, 10).is_empty());
    assert_eq!(stats::quiet_low(&[]), None);
}

#[test]
fn balanced_readings_keep_late_growth() {
    // Sixteen slice readings that grow through the run: the run-wide
    // lower quartile reads the early slices only.
    let grow: Vec<f64> = (0..16).map(|i| 100.0 + 10.0 * f64::from(i)).collect();
    assert_eq!(stats::quiet_low(&grow), Some(130.0));
    // Each quarter's lower quartile is its first slice: 100, 140, 180,
    // 220, so the growth shows in their mean.
    assert_eq!(stats::balanced_low(&grow), Some(160.0));
    assert_eq!(
        stats::balanced_high(&grow),
        Some((120.0 + 160.0 + 200.0 + 240.0) / 4.0)
    );
    // A stall confined to one slice of a quarter is still skipped.
    let mut flat = vec![50.0; 16];
    flat[5] = 500.0;
    assert_eq!(stats::balanced_low(&flat), Some(50.0));
    // Fewer readings than quarters: each is its own quarter.
    assert_eq!(stats::balanced_low(&[4.0, 8.0]), Some(6.0));
    assert_eq!(stats::balanced_low(&[]), None);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), Some(2.0));
}

#[test]
fn window_rates_and_the_quiet_rate() {
    // 5 completions per 0.05 s window over 1 s, except one window that
    // stalled and one that caught up.
    let mut done: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.01 + 0.005).collect();
    done.retain(|t| !(0.2..0.25).contains(t));
    done.extend((0..5).map(|i| 0.31 + f64::from(i) * 0.001));
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
    let rates = stats::window_rates(&done, 1.0, 20);
    assert!(close(rates[4], 0.0));
    assert!(close(rates[6], 200.0));
    // Each quarter's upper quartile is a normal window, not the stall
    // or the catch-up burst.
    assert!(stats::balanced_high(&rates).is_some_and(|r| close(r, 100.0)));
    // Completions after the end are ignored.
    done.push(1.5);
    assert!(close(
        stats::window_rates(&done, 1.0, 20).iter().sum::<f64>() * 0.05,
        100.0
    ));
    assert!(stats::window_rates(&done, 0.0, 20).is_empty());
}

#[test]
fn counter_deltas() {
    assert_eq!(stats::delta(10, 25), Some(15));
    assert_eq!(stats::delta(7, 7), Some(0));
    // A counter that went backwards was reset in between.
    assert_eq!(stats::delta(25, 10), None);
    assert_eq!(stats::ratio(3, 4), 0.75);
    assert_eq!(stats::ratio(0, 0), 0.0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        req: 0,
    }
}

#[test]
fn self_time_subtracts_covered_child_time_once() {
    let s = vec![
        span("replay", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 30, 50, Some(0)),
        span("c", 60, 70, Some(0)),
        span("a.inner", 15, 25, Some(1)),
    ];
    // Children of replay cover [10, 50) and [60, 70): 50 ns.
    assert_eq!(spans::self_times(&s), vec![50, 20, 20, 10, 10]);
    let by_name = spans::self_time_by_name(&s);
    assert_eq!(by_name["a"], (1, 20));
    assert_eq!(spans::mean_self_us(&by_name, "c"), 0.01);
    assert_eq!(spans::mean_self_us(&by_name, "absent"), 0.0);
}

#[test]
fn recorder_nests_and_merges() {
    let epoch = Instant::now();
    let mut a = Recorder::new(epoch);
    a.span("replay", 1, |r| {
        r.span("serve.parse", 1, |_| ());
        r.span("serve.render", 1, |_| ());
    });
    let mut b = Recorder::new(epoch);
    b.span("replay", 2, |r| r.span("core.analyze", 2, |_| ()));
    a.absorb(b);
    let s = a.spans();
    let names: Vec<_> = s.iter().map(|x| (x.name, x.parent, x.req)).collect();
    assert_eq!(
        names,
        vec![
            ("replay", None, 1),
            ("serve.parse", Some(0), 1),
            ("serve.render", Some(0), 1),
            ("replay", None, 2),
            ("core.analyze", Some(3), 2),
        ]
    );
    let mut out = Vec::new();
    spans::write_jsonl(s, &mut out).expect("write to memory");
    let text = String::from_utf8(out).expect("utf8");
    assert_eq!(text.lines().count(), 5);
    assert!(text
        .lines()
        .nth(4)
        .is_some_and(|l| l.contains("\"parent\":3") && l.contains("\"req\":2")));
}
