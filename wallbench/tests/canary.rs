//! The canary: a layer made twice as slow must fail the benchmark's
//! comparison, and the comparison must name that layer. Kept alone in
//! its test binary so no other test competes for the cores while it
//! times.

use mv_wallbench::clock::Layer;
use mv_wallbench::metrics::{explain, layer_shift, regressions};
use mv_wallbench::{run, Config, Report, Scale, Workload};

/// Per-metric medians of three tiny runs.
fn median(runs: &[Report]) -> Report {
    let metrics = runs[0]
        .metrics
        .iter()
        .map(|&(name, _, unit)| {
            let mut v: Vec<f64> = runs.iter().map(|r| r.get(name).expect(name)).collect();
            v.sort_by(f64::total_cmp);
            (name, v[v.len() / 2], unit)
        })
        .collect();
    Report {
        metrics,
        ..Report::default()
    }
}

/// Base and delayed reports of `deluge-ingest`, each the median of three
/// runs made in alternation, so a slow spell of the host lands on both.
fn base_and_delayed(trace: bool) -> (Report, Report) {
    let (mut base, mut delayed) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        base.push(tiny(Workload::DelugeIngest, 9, trace, None));
        delayed.push(tiny(
            Workload::DelugeIngest,
            9,
            trace,
            Some(Layer::ApplyBatch),
        ));
    }
    (median(&base), median(&delayed))
}

fn tiny(workload: Workload, seed: u64, trace: bool, delay: Option<Layer>) -> Report {
    let cfg = Config {
        workload,
        seed,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
        delay,
    };
    let report = run(&cfg);
    assert!(
        report.correct,
        "{} failed its checks: {:?}",
        workload.name(),
        report.failures
    );
    report
}

#[test]
fn doubling_apply_batch_fails_the_comparison_and_names_the_layer() {
    // Warm the allocator and caches so no measured run is the only
    // cold one.
    tiny(Workload::DelugeIngest, 9, false, None);
    let (base, delayed) = base_and_delayed(false);
    let (base_traced, delayed_traced) = base_and_delayed(true);
    let text = explain(&base, &delayed, &base_traced, &delayed_traced);
    println!("{text}");
    assert!(
        regressions(&base, &delayed)
            .iter()
            .any(|r| r.metric.name == "round_p50_ms"),
        "the comparison must fail on round_p50_ms:\n{text}"
    );
    assert!(
        text.contains("slowed layer: core.durable.apply_batch"),
        "{text}"
    );
    // Only the delayed layer's busy time rises. It grows at least 1.6×; any
    // other layer counts as risen when it grows by more than the 25%
    // bound of its own time *and* by more than a quarter of the delayed
    // layer's rise (a layer of a few microseconds jitters by more than
    // 25% of itself).
    let shift = layer_shift(&base_traced, &delayed_traced);
    let (_, base_ms, delayed_ms) = shift[0];
    assert!(delayed_ms >= 1.6 * base_ms, "{text}");
    let rise = delayed_ms - base_ms;
    for &(name, before, after) in &shift[1..] {
        let grew = after - before;
        assert!(
            grew <= 0.25 * before || grew < 0.25 * rise,
            "{name}: {before} -> {after} ms, apply_batch rose {rise} ms"
        );
    }
}
