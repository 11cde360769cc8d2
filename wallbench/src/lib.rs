//! Wall-clock, layer-attributed benchmark of the cospace stack.
//!
//! Two workloads drive `mv-core`'s public API and the layers below
//! it in a closed loop with one client: the next round starts only
//! after the previous one returned. Inputs are generated from the seed
//! before anything is timed. A run makes one untimed warm-up episode,
//! then repeats *episodes* — fresh world, every round of the input,
//! crash and recovery — until `seconds` of timed phases have passed
//! (at least [`MIN_EPISODES`]), and checks that every episode, the
//! warm-up too, counted exactly the same work.
//!
//! An untraced run reports the end-to-end metrics of
//! [`metrics::END_TO_END`]. A traced run alternates untraced and traced
//! episodes: the traced ones time every call into a layer and report
//! [`metrics::PER_LAYER`], and the untraced ones give the tracing
//! overhead. See `README.md` for the workloads and their sizes.

pub mod clock;
pub mod episode;
pub mod flash;
pub mod heap;
pub mod metrics;
pub mod tick;

use clock::{Layer, Layers};
use episode::{Episode, Units};
use flash::{FlashInputs, FlashShape};
use mv_storage::KvConfig;
use tick::{TickInputs, TickShape};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Engine shards (one per core of the 2-core reference host).
pub const ENGINE_SHARDS: usize = 2;
/// Whether `apply_batch` and `drain_to_storage` run their shard queues
/// on one scoped thread each. Off: on a shared host with as many cores
/// as shards, a batch that waits for the slower of two threads measures
/// the host's scheduler more than the shards. AoI queries and
/// `mean_divergence` still fan out over the engine shards.
pub const PARALLEL_APPLY: bool = false;
/// KV shards.
pub const KV_SHARDS: usize = 2;
/// Group-commit batch: the WAL seals after this many records.
pub const WAL_BATCH_RECORDS: usize = 256;
/// Timed episodes an untraced run makes at least (set-up and recovery
/// are medians over them); a traced run makes one more.
pub const MIN_EPISODES: usize = 3;

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Linear-interpolated quantile `q` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §III write storm: durable writes, commit and recovery.
    DelugeIngest,
    /// The §II flash sale: serializable cross-shard transactions.
    FlashSaleTxn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::DelugeIngest, Workload::FlashSaleTxn];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DelugeIngest => "deluge-ingest",
            Workload::FlashSaleTxn => "flash-sale-txn",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's, or tiny ones for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` runs.
    Full,
    /// A few milliseconds per episode, for the benchmark's own tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds to fill with episodes.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Canary: double this layer's calls with a busy-wait.
    pub delay: Option<Layer>,
}

impl Config {
    /// A full-size run.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            delay: None,
        }
    }
}

fn tick_shape(scale: Scale) -> TickShape {
    match scale {
        // KV data (about 6.5 MB of entity snapshots) is 12 times the
        // 2 × 256 KiB memtable budget, so flushes and tier compactions
        // run all through the episode.
        Scale::Full => TickShape {
            entities: 100_000,
            ticks: 104,
            ops_per_tick: 1_000,
            probes_per_tick: 16,
            subscribers: 16,
            kv: KvConfig {
                memtable_budget: 256 << 10,
                ..KvConfig::default()
            },
        },
        Scale::Tiny => TickShape {
            entities: 3_000,
            ticks: 16,
            ops_per_tick: 200,
            probes_per_tick: 8,
            subscribers: 8,
            kv: KvConfig {
                memtable_budget: 16 << 10,
                ..KvConfig::default()
            },
        },
    }
}

fn flash_shape(scale: Scale) -> FlashShape {
    match scale {
        Scale::Full => FlashShape {
            shoppers: 20_000,
            pool: 64,
            transfers: 50_000,
        },
        Scale::Tiny => FlashShape {
            shoppers: 500,
            pool: 16,
            transfers: 800,
        },
    }
}

enum Inputs {
    Tick(Box<TickInputs>),
    Flash(FlashInputs),
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Client operations attempted over all episodes.
    pub attempted: u64,
    /// Client operations that did not complete.
    pub failed: u64,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Timed episodes made.
    pub episodes: Vec<Episode>,
}

impl Report {
    /// Value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines: episodes, counts, digests, failures.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, ep) in self.episodes.iter().enumerate() {
            out.push_str(&format!(
                "episode {i} ({}): setup {:.4} s, {} rounds {:.4} s (p50 {:.4} ms, p90 {:.4} ms), recover {:.4} s, peak heap {:.1} MB\n",
                if ep.traced { "traced" } else { "untraced" },
                ep.setup_s,
                ep.rounds_s.len(),
                ep.loop_s(),
                quantile(&ep.rounds_s, 0.5) * 1e3,
                quantile(&ep.rounds_s, 0.9) * 1e3,
                ep.recover_s,
                ep.peak_heap_bytes as f64 / (1 << 20) as f64
            ));
        }
        if let Some(ep) = self.episodes.first() {
            let counts: Vec<String> = ep
                .units
                .pairs()
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!("counts per episode: {}\n", counts.join(" ")));
            out.push_str(&format!(
                "digests: state={:016x} txn={:016x}\n",
                ep.digests.0, ep.digests.1
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("CHECK FAILED: {f}\n"));
        }
        out
    }
}

/// Run a workload.
pub fn run(cfg: &Config) -> Report {
    let mut inputs = match cfg.workload {
        Workload::FlashSaleTxn => {
            Inputs::Flash(flash::make_inputs(flash_shape(cfg.scale), cfg.seed))
        }
        Workload::DelugeIngest => {
            Inputs::Tick(Box::new(tick::make_inputs(tick_shape(cfg.scale), cfg.seed)))
        }
    };
    let mut one_episode = |traced: bool| {
        let mut layers = Layers::new(traced, cfg.delay);
        heap::reset_peak();
        let mut ep = match &mut inputs {
            Inputs::Tick(inp) => tick::episode(inp, traced, &mut layers),
            Inputs::Flash(inp) => flash::episode(inp, traced, &mut layers),
        };
        ep.peak_heap_bytes = heap::peak_bytes();
        ep
    };
    let mut report = Report::default();
    // Warm-up: caches, the allocator's free lists and the first page
    // faults of a world's worth of heap are paid here, untimed.
    let warmup = one_episode(false);
    report
        .failures
        .extend(warmup.failures.iter().map(|f| format!("warm-up: {f}")));
    let min = MIN_EPISODES + usize::from(cfg.trace);
    let mut timed = 0.0;
    // A failed check ends the run.
    while report.failures.is_empty() && (report.episodes.len() < min || timed < cfg.seconds) {
        // A traced run alternates, starting untraced.
        let traced = cfg.trace && report.episodes.len() % 2 == 1;
        let ep = one_episode(traced);
        timed += ep.wall_s();
        report.failures.extend(
            ep.failures
                .iter()
                .map(|f| format!("episode {}: {f}", report.episodes.len())),
        );
        report.episodes.push(ep);
    }
    for (i, ep) in report.episodes.iter().enumerate() {
        if ep.units != warmup.units || ep.digests != warmup.digests {
            report.failures.push(format!(
                "episode {i} counted different work than the warm-up"
            ));
        }
    }
    if report.episodes.is_empty() {
        report.failures.push("no timed episode".into());
    }
    report.attempted = report.episodes.iter().map(|e| e.client_ops).sum();
    report.failed = report.attempted
        - report
            .episodes
            .iter()
            .map(|e| e.completed)
            .sum::<u64>()
            .min(report.attempted);
    if report.failures.is_empty() {
        match summarize(&report.episodes, cfg.trace) {
            Ok(metrics) => report.metrics = metrics,
            Err(e) => report.failures.push(e),
        }
    }
    report.correct = report.failures.is_empty();
    report
}

/// The reported metrics, in catalogue order.
fn summarize(
    eps: &[Episode],
    trace: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut out = Vec::new();
    if trace {
        let agg = Traced::new(eps);
        for (name, unit, _) in metrics::PER_LAYER {
            let v = agg
                .value(name)
                .ok_or_else(|| format!("metric {name} has no definition"))?;
            out.push((name, v, unit));
        }
    } else {
        for m in metrics::END_TO_END {
            let v = end_to_end(m.name, eps)
                .ok_or_else(|| format!("metric {} has no definition", m.name))?;
            out.push((m.name, v, m.unit));
        }
    }
    if let Some((name, v, _)) = out.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not finite: {v}"));
    }
    Ok(out)
}

/// An end-to-end metric: the median over episodes of each episode's
/// value, so one disturbed episode cannot move it.
fn end_to_end(name: &str, eps: &[Episode]) -> Option<f64> {
    let per_episode: fn(&Episode) -> f64 = match name {
        "ops_per_s" => |e| ratio(e.completed as f64, e.loop_s()),
        "round_p50_ms" => |e| quantile(&e.rounds_s, 0.5) * 1e3,
        "round_p90_ms" => |e| quantile(&e.rounds_s, 0.9) * 1e3,
        "setup_s" => |e| e.setup_s,
        "recover_s" => |e| e.recover_s,
        "attempts_per_op" => |e| ratio(e.attempts as f64, e.completed as f64),
        "write_amp" => |e| e.write_amp,
        "space_amp" => |e| e.space_amp,
        "peak_heap_mb" => |e| e.peak_heap_bytes as f64 / (1 << 20) as f64,
        _ => return None,
    };
    Some(quantile(
        &eps.iter().map(per_episode).collect::<Vec<_>>(),
        0.5,
    ))
}

/// Traced episodes' layer totals, and the untraced ones' loop walls
/// for the tracing overhead.
struct Traced {
    episodes: f64,
    busy: Vec<(Layer, f64, u64)>,
    units: Units,
    wall_s: f64,
    rounds: f64,
    overhead: f64,
}

impl Traced {
    fn new(eps: &[Episode]) -> Self {
        let traced: Vec<&Episode> = eps.iter().filter(|e| e.traced).collect();
        let loop_median = |want: bool| {
            quantile(
                &eps.iter()
                    .filter(|e| e.traced == want)
                    .map(Episode::loop_s)
                    .collect::<Vec<_>>(),
                0.5,
            )
        };
        let mut busy: Vec<(Layer, f64, u64)> = Layer::ALL.iter().map(|&l| (l, 0.0, 0)).collect();
        let mut units = Units::default();
        for ep in &traced {
            for (slot, &(_, secs, calls)) in busy.iter_mut().zip(&ep.busy) {
                slot.1 += secs;
                slot.2 += calls;
            }
            units.add(&ep.units);
        }
        Traced {
            episodes: traced.len() as f64,
            busy,
            units,
            wall_s: traced.iter().map(|e| e.wall_s()).sum(),
            rounds: traced.iter().map(|e| e.rounds_s.len() as f64).sum(),
            overhead: ratio(loop_median(true), loop_median(false)),
        }
    }

    fn secs(&self, layer: Layer) -> f64 {
        self.busy.iter().find(|b| b.0 == layer).map_or(0.0, |b| b.1)
    }

    fn calls(&self, layer: Layer) -> f64 {
        self.busy
            .iter()
            .find(|b| b.0 == layer)
            .map_or(0.0, |b| b.2 as f64)
    }

    /// Value of a per-layer metric; totals are per traced episode.
    fn value(&self, name: &str) -> Option<f64> {
        use Layer::*;
        let u = &self.units;
        let per_ep = |v: f64| ratio(v, self.episodes);
        let busy_ms = |l: Layer| per_ep(self.secs(l) * 1e3);
        let ns_per = |l: Layer, work: u64| ratio(self.secs(l) * 1e9, work as f64);
        let layers_s: f64 = self.busy.iter().map(|b| b.1).sum();
        Some(match name {
            "core.durable.spawn.busy_ms" => busy_ms(Spawn),
            "core.durable.spawn.ns_per_entity" => ns_per(Spawn, u.spawned),
            "core.durable.apply_batch.busy_ms" => busy_ms(ApplyBatch),
            "core.durable.apply_batch.ns_per_op" => ns_per(ApplyBatch, u.apply_ops),
            "core.durable.apply_batch.wal_bytes_per_op" => {
                ratio(u.apply_wal_bytes as f64, u.apply_ops as f64)
            }
            "core.durable.apply_batch.wal_seals_per_op" => {
                ratio(u.apply_seals as f64, u.apply_ops as f64)
            }
            "core.durable.apply_batch.err_ratio" => {
                ratio(u.apply_errors as f64, u.apply_ops as f64)
            }
            "storage.group_commit.sync.busy_ms" => busy_ms(Sync),
            "storage.group_commit.sync.ns_per_call" => {
                ratio(self.secs(Sync) * 1e9, self.calls(Sync))
            }
            "storage.group_commit.sync.records_per_batch" => {
                ratio(u.sync_records as f64, u.sync_seals as f64)
            }
            "core.durable.drain_to_storage.busy_ms" => busy_ms(Drain),
            "core.durable.drain_to_storage.ns_per_record" => ns_per(Drain, u.drain_records),
            "core.durable.drain_to_storage.records" => per_ep(u.drain_records as f64),
            "core.durable.drain_to_storage.kv_flushes" => per_ep(u.kv_flushes as f64),
            "core.durable.drain_to_storage.kv_compactions" => per_ep(u.kv_compactions as f64),
            "core.durable.drain_to_storage.kv_bytes_written_per_record" => {
                ratio(u.kv_bytes_written as f64, u.drain_records as f64)
            }
            "core.sharded.query_visible_batch.busy_ms" => busy_ms(Query),
            "core.sharded.query_visible_batch.ns_per_probe" => ns_per(Query, u.probes),
            "core.sharded.query_visible_batch.hits_per_probe" => {
                ratio(u.hits as f64, u.probes as f64)
            }
            "pubsub.broker.publish.busy_ms" => busy_ms(Publish),
            "pubsub.broker.publish.ns_per_publication" => ns_per(Publish, u.publications),
            "pubsub.broker.publish.deliveries_per_publication" => {
                ratio(u.deliveries as f64, u.publications as f64)
            }
            "dissem.sched.run.busy_ms" => busy_ms(Dissem),
            "dissem.sched.run.ns_per_request" => ns_per(Dissem, u.deliveries),
            "core.sharded.mean_divergence.busy_ms" => busy_ms(Divergence),
            "core.sharded.mean_divergence.ns_per_entity" => {
                ns_per(Divergence, u.divergence_entities)
            }
            "core.txn.read.busy_ms" => busy_ms(TxnRead),
            "core.txn.read.ns_per_read" => ns_per(TxnRead, u.txn_reads),
            "core.txn.commit_txn.busy_ms" => busy_ms(CommitTxn),
            "core.txn.commit_txn.ns_per_commit" => ns_per(CommitTxn, u.commit_attempts),
            "core.txn.commit_txn.abort_ratio" => ratio(u.aborts as f64, u.commit_attempts as f64),
            "core.txn.commit_txn.cross_shard_share" => {
                ratio(u.cross_shard_commits as f64, u.commits as f64)
            }
            "core.txn.commit_txn.syncs_per_commit" => {
                ratio(u.commit_syncs as f64, u.commits as f64)
            }
            "core.durable.crash_and_recover.busy_ms" => busy_ms(Recover),
            "core.durable.crash_and_recover.ns_per_record" => ns_per(Recover, u.records_replayed),
            "core.durable.crash_and_recover.records_replayed" => per_ep(u.records_replayed as f64),
            "core.durable.crash_and_recover.bytes_replayed" => per_ep(u.bytes_replayed as f64),
            "bench.wall_ms" => per_ep(self.wall_s * 1e3),
            "bench.layers_ms" => per_ep(layers_s * 1e3),
            "bench.unattributed_ms" => per_ep((self.wall_s - layers_s) * 1e3),
            "bench.unattributed_share" => ratio(self.wall_s - layers_s, self.wall_s),
            "bench.trace_overhead" => self.overhead,
            "bench.rounds" => per_ep(self.rounds),
            _ => return None,
        })
    }

    /// Per-layer share of the traced wall, for the human summary.
    fn table(&self) -> String {
        let mut out =
            String::from("layer                              busy_ms/episode  share_of_wall\n");
        for &(l, secs, _) in &self.busy {
            out.push_str(&format!(
                "{:<34} {:>15.3} {:>14.4}\n",
                l.name(),
                ratio(secs * 1e3, self.episodes),
                ratio(secs, self.wall_s)
            ));
        }
        out
    }
}

/// The per-layer share table of a traced report.
pub fn layer_table(report: &Report) -> String {
    Traced::new(&report.episodes).table()
}
