//! Wall-clock timing of phases and of calls into the stack's layers.
//!
//! Every reading goes through [`TickProfiler`], the workspace's
//! sanctioned wall-clock reader: each timed name is a profiler stage,
//! and a stage's exact `sum` grows by each call's duration, so the
//! difference around one call is that call's wall time.

use mv_obs::{LogHistogram, TickProfiler};

/// A public call whose time the traced run attributes. Each layer is
/// named after the call it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `DurableMetaverse::spawn`, once per entity.
    Spawn,
    /// `DurableMetaverse::apply_batch`: codec encode, WAL append
    /// (including by-records seals), engine apply and MVCC install.
    ApplyBatch,
    /// `GroupCommitWal::sync` through `dm.wal`: the first half of
    /// `DurableMetaverse::commit`.
    Sync,
    /// `DurableMetaverse::drain_to_storage`: event drain, snapshot
    /// encode and KV apply (flushes, compactions); the second half of
    /// `commit`.
    Drain,
    /// `ShardedMetaverse::query_visible_batch`.
    Query,
    /// `BrokerTree::publish`, timed over one round's publications.
    Publish,
    /// `LinkScheduler::run`, timed over one round's subscriber links.
    Dissem,
    /// `ShardedMetaverse::mean_divergence`.
    Divergence,
    /// `DurableMetaverse::txn` plus `txn_read_attr`, timed over one
    /// group's begins and reads.
    TxnRead,
    /// `DurableMetaverse::commit_txn`, including its own WAL syncs.
    CommitTxn,
    /// `DurableMetaverse::crash_and_recover`.
    Recover,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Spawn,
        Layer::ApplyBatch,
        Layer::Sync,
        Layer::Drain,
        Layer::Query,
        Layer::Publish,
        Layer::Dissem,
        Layer::Divergence,
        Layer::TxnRead,
        Layer::CommitTxn,
        Layer::Recover,
    ];

    /// Metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Spawn => "core.durable.spawn",
            Layer::ApplyBatch => "core.durable.apply_batch",
            Layer::Sync => "storage.group_commit.sync",
            Layer::Drain => "core.durable.drain_to_storage",
            Layer::Query => "core.sharded.query_visible_batch",
            Layer::Publish => "pubsub.broker.publish",
            Layer::Dissem => "dissem.sched.run",
            Layer::Divergence => "core.sharded.mean_divergence",
            Layer::TxnRead => "core.txn.read",
            Layer::CommitTxn => "core.txn.commit_txn",
            Layer::Recover => "core.durable.crash_and_recover",
        }
    }
}

/// Exact total of a profiler stage, in seconds.
fn stage_total(prof: &TickProfiler, stage: &str) -> f64 {
    prof.stage(stage).map_or(0.0, LogHistogram::sum)
}

/// Times whole phases: set-up, each round, recovery.
#[derive(Default)]
pub struct Phases {
    prof: TickProfiler,
}

impl Phases {
    /// Run `f` under `stage`; returns its result and its wall seconds.
    pub fn span<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let before = stage_total(&self.prof, stage);
        let out = self.prof.time(stage, f);
        (out, stage_total(&self.prof, stage) - before)
    }
}

/// Times calls into layers when tracing; otherwise calls straight
/// through. Kept apart from [`Phases`] so a layer call can run inside a
/// timed phase.
pub struct Layers {
    prof: TickProfiler,
    trace: bool,
    delay: Option<Layer>,
}

impl Layers {
    /// `trace` turns per-layer timing on. `delay` is the canary: every
    /// call into that layer is followed by a busy-wait as long as the
    /// call, doubling the layer's wall time whether or not the run is
    /// traced. It spins rather than sleeps, so the core stays as warm for
    /// the next call as it would without the delay.
    pub fn new(trace: bool, delay: Option<Layer>) -> Self {
        Layers {
            prof: TickProfiler::new(),
            trace,
            delay,
        }
    }

    /// Call into `layer`.
    #[inline]
    pub fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if self.delay == Some(layer) {
            let before = stage_total(&self.prof, "canary");
            let out = self.prof.time("canary", f);
            let call = stage_total(&self.prof, "canary") - before;
            while stage_total(&self.prof, "canary") - before < 2.0 * call {
                self.prof
                    .time("canary", || (0..64).for_each(|_| std::hint::spin_loop()));
            }
            if self.trace {
                let total = stage_total(&self.prof, "canary") - before;
                self.prof.record(layer.name(), total);
            }
            return out;
        }
        if self.trace {
            self.prof.time(layer.name(), f)
        } else {
            f()
        }
    }

    /// Wall seconds spent in `layer` so far, and its call count.
    pub fn busy(&self, layer: Layer) -> (f64, u64) {
        self.prof
            .stage(layer.name())
            .map_or((0.0, 0), |h| (h.sum(), h.count()))
    }
}
