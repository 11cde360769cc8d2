//! The metric catalogue `BENCHMARK.json` lists, and the comparison of
//! two reports against its bounds.

use crate::Report;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [Metric; 9] = [
    metric("ops_per_s", "1/s", Better::Higher, 0.25),
    metric("round_p50_ms", "ms", Better::Lower, 0.25),
    metric("round_p90_ms", "ms", Better::Lower, 0.25),
    metric("setup_s", "s", Better::Lower, 0.25),
    metric("recover_s", "s", Better::Lower, 0.25),
    metric("attempts_per_op", "ratio", Better::Lower, 0.05),
    metric("write_amp", "ratio", Better::Lower, 0.05),
    metric("space_amp", "ratio", Better::Lower, 0.05),
    metric("peak_heap_mb", "MB", Better::Lower, 0.05),
];

/// Per-layer metrics, reported by traced runs: `(name, unit, better)`.
/// They carry no bound; a work count's direction is the one that
/// means less work for the same result.
pub const PER_LAYER: [(&str, &str, Better); 43] = [
    ("core.durable.spawn.busy_ms", "ms", Better::Lower),
    ("core.durable.spawn.ns_per_entity", "ns", Better::Lower),
    ("core.durable.apply_batch.busy_ms", "ms", Better::Lower),
    ("core.durable.apply_batch.ns_per_op", "ns", Better::Lower),
    (
        "core.durable.apply_batch.wal_bytes_per_op",
        "B/op",
        Better::Lower,
    ),
    (
        "core.durable.apply_batch.wal_seals_per_op",
        "1/op",
        Better::Lower,
    ),
    ("core.durable.apply_batch.err_ratio", "ratio", Better::Lower),
    ("storage.group_commit.sync.busy_ms", "ms", Better::Lower),
    ("storage.group_commit.sync.ns_per_call", "ns", Better::Lower),
    (
        "storage.group_commit.sync.records_per_batch",
        "records",
        Better::Higher,
    ),
    ("core.durable.drain_to_storage.busy_ms", "ms", Better::Lower),
    (
        "core.durable.drain_to_storage.ns_per_record",
        "ns",
        Better::Lower,
    ),
    (
        "core.durable.drain_to_storage.records",
        "count",
        Better::Lower,
    ),
    (
        "core.durable.drain_to_storage.kv_flushes",
        "count",
        Better::Lower,
    ),
    (
        "core.durable.drain_to_storage.kv_compactions",
        "count",
        Better::Lower,
    ),
    (
        "core.durable.drain_to_storage.kv_bytes_written_per_record",
        "B/record",
        Better::Lower,
    ),
    (
        "core.sharded.query_visible_batch.busy_ms",
        "ms",
        Better::Lower,
    ),
    (
        "core.sharded.query_visible_batch.ns_per_probe",
        "ns",
        Better::Lower,
    ),
    (
        "core.sharded.query_visible_batch.hits_per_probe",
        "ratio",
        Better::Higher,
    ),
    ("pubsub.broker.publish.busy_ms", "ms", Better::Lower),
    (
        "pubsub.broker.publish.ns_per_publication",
        "ns",
        Better::Lower,
    ),
    (
        "pubsub.broker.publish.deliveries_per_publication",
        "ratio",
        Better::Higher,
    ),
    ("dissem.sched.run.busy_ms", "ms", Better::Lower),
    ("dissem.sched.run.ns_per_request", "ns", Better::Lower),
    ("core.sharded.mean_divergence.busy_ms", "ms", Better::Lower),
    (
        "core.sharded.mean_divergence.ns_per_entity",
        "ns",
        Better::Lower,
    ),
    ("core.txn.read.busy_ms", "ms", Better::Lower),
    ("core.txn.read.ns_per_read", "ns", Better::Lower),
    ("core.txn.commit_txn.busy_ms", "ms", Better::Lower),
    ("core.txn.commit_txn.ns_per_commit", "ns", Better::Lower),
    ("core.txn.commit_txn.abort_ratio", "ratio", Better::Lower),
    (
        "core.txn.commit_txn.cross_shard_share",
        "ratio",
        Better::Lower,
    ),
    (
        "core.txn.commit_txn.syncs_per_commit",
        "ratio",
        Better::Lower,
    ),
    (
        "core.durable.crash_and_recover.busy_ms",
        "ms",
        Better::Lower,
    ),
    (
        "core.durable.crash_and_recover.ns_per_record",
        "ns",
        Better::Lower,
    ),
    (
        "core.durable.crash_and_recover.records_replayed",
        "count",
        Better::Lower,
    ),
    (
        "core.durable.crash_and_recover.bytes_replayed",
        "B",
        Better::Lower,
    ),
    ("bench.wall_ms", "ms", Better::Lower),
    ("bench.layers_ms", "ms", Better::Lower),
    ("bench.unattributed_ms", "ms", Better::Lower),
    ("bench.unattributed_share", "ratio", Better::Lower),
    ("bench.trace_overhead", "ratio", Better::Lower),
    ("bench.rounds", "count", Better::Higher),
];

/// One end-to-end metric that worsened past its bound.
#[derive(Debug, Clone)]
pub struct Regression {
    /// The metric.
    pub metric: Metric,
    /// Baseline value.
    pub base: f64,
    /// New value.
    pub new: f64,
}

impl Regression {
    /// How much worse, as a share of the baseline.
    pub fn worse_by(&self) -> f64 {
        worse_by(&self.metric, self.base, self.new)
    }
}

fn worse_by(m: &Metric, base: f64, new: f64) -> f64 {
    let change = crate::ratio(new - base, base);
    match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// End-to-end metrics of `new` that are worse than `base` by more than
/// their bound.
pub fn regressions(base: &Report, new: &Report) -> Vec<Regression> {
    END_TO_END
        .iter()
        .filter_map(|m| {
            let (b, n) = (base.get(m.name)?, new.get(m.name)?);
            (worse_by(m, b, n) > m.bound).then_some(Regression {
                metric: *m,
                base: b,
                new: n,
            })
        })
        .collect()
}

/// Per-layer `busy_ms` of two traced reports, as `(layer metric, base,
/// new)`, the largest rise first.
pub fn layer_shift(base: &Report, new: &Report) -> Vec<(&'static str, f64, f64)> {
    let mut rows: Vec<(&'static str, f64, f64)> = PER_LAYER
        .iter()
        .filter(|(name, _, _)| name.ends_with(".busy_ms"))
        .filter_map(|&(name, _, _)| Some((name, base.get(name)?, new.get(name)?)))
        .collect();
    rows.sort_by(|a, b| (b.2 - b.1).total_cmp(&(a.2 - a.1)));
    rows
}

/// Human-readable comparison: each end-to-end regression, then the
/// layer whose busy time rose most (when both sides were traced).
pub fn explain(base: &Report, new: &Report, base_traced: &Report, new_traced: &Report) -> String {
    let mut out = String::new();
    let regs = regressions(base, new);
    if regs.is_empty() {
        out.push_str("no end-to-end metric worse than its bound\n");
    }
    for r in &regs {
        out.push_str(&format!(
            "REGRESSION {}: {:.4} -> {:.4} {} ({:+.1}% worse, bound {:.0}%)\n",
            r.metric.name,
            r.base,
            r.new,
            r.metric.unit,
            r.worse_by() * 100.0,
            r.metric.bound * 100.0
        ));
    }
    let shift = layer_shift(base_traced, new_traced);
    if let Some(&(name, b, n)) = shift.first() {
        let layer = name.trim_end_matches(".busy_ms");
        out.push_str(&format!(
            "slowed layer: {layer} (busy {b:.2} -> {n:.2} ms per episode)\n"
        ));
    }
    out
}
