//! The benchmark's own checks: its catalogue matches `BENCHMARK.json`,
//! every workload reports every metric and repeats its counts for a
//! seed, and traced layer times add up to the wall.

use mv_wallbench::metrics::{END_TO_END, PER_LAYER};
use mv_wallbench::{run, Config, Report, Scale, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    let cfg = Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        delay: None,
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
fn catalogue_matches_benchmark_json() {
    let json = include_str!("../../BENCHMARK.json");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "workload {}",
            w.name()
        );
    }
    for m in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for (name, unit, better) in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
            better.name()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let entries = json.matches("\"unit\":").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json has extra metrics"
    );
}

#[test]
fn every_workload_reports_its_metrics_and_repeats_its_counts() {
    for w in Workload::ALL {
        let untraced = tiny(w, 3, false);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name), "{}", w.name());
        assert!(
            untraced.metrics.iter().all(|m| m.1 > 0.0),
            "{}: {:?}",
            w.name(),
            untraced.metrics
        );
        assert_eq!(untraced.failed, 0);

        let traced = tiny(w, 3, true);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.0), "{}", w.name());

        // Same seed, same work, traced or not; another seed, other work.
        let (a, b) = (&untraced.episodes[0], &traced.episodes[1]);
        assert_eq!((&a.units, a.digests), (&b.units, b.digests), "{}", w.name());
        let other = tiny(w, 4, false);
        assert_ne!(a.digests, other.episodes[0].digests, "{}", w.name());
    }
}

#[test]
fn traced_layers_add_up_to_the_wall() {
    let r = tiny(Workload::DelugeIngest, 5, true);
    let get = |name: &str| r.get(name).expect(name);
    let layers: f64 = PER_LAYER
        .iter()
        .filter(|(n, _, _)| n.ends_with(".busy_ms"))
        .map(|(n, _, _)| get(n))
        .sum();
    assert!((layers - get("bench.layers_ms")).abs() < 1e-6 * layers.max(1.0));
    assert!((layers + get("bench.unattributed_ms") - get("bench.wall_ms")).abs() < 1e-6 * layers);
    assert!(get("bench.unattributed_ms") >= 0.0);
}
