//! What one episode of a workload measured, and the work it counted.
//!
//! An episode builds a fresh world, drives every round of the
//! pre-generated input through it, and ends with a crash and recovery.
//! A run repeats episodes on the same input, so every count an episode
//! records must repeat exactly.

use crate::clock::{Layer, Layers};

macro_rules! units {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Work counted at the layer boundaries: deterministic for a
        /// seed, so it is the run's determinism witness.
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct Units {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Units {
            /// Every count with its name.
            pub fn pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field)),*]
            }

            /// Add `other` field by field.
            pub fn add(&mut self, other: &Units) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

units! {
    /// Entities spawned.
    spawned,
    /// Write ops passed to `apply_batch`.
    apply_ops,
    /// Write ops `apply_batch` rejected.
    apply_errors,
    /// WAL bytes appended during `apply_batch` (sealed frames and the
    /// pending tail together).
    apply_wal_bytes,
    /// WAL batches sealed inside `apply_batch` (by-records trigger).
    apply_seals,
    /// Records sealed by explicit `sync` calls.
    sync_records,
    /// Batches sealed by explicit `sync` calls.
    sync_seals,
    /// Engine events `drain_to_storage` drained.
    drain_records,
    /// KV memtable flushes before the crash.
    kv_flushes,
    /// KV compactions before the crash.
    kv_compactions,
    /// KV bytes written before the crash: flushed runs plus compaction
    /// output.
    kv_bytes_written,
    /// WAL batches sealed before the crash.
    wal_batches,
    /// AoI probes answered.
    probes,
    /// Entities the probes returned.
    hits,
    /// Publications routed through the broker.
    publications,
    /// Subscriber deliveries the broker reported; each becomes one
    /// transmission request on a subscriber link.
    deliveries,
    /// Live entities summed over `mean_divergence` calls.
    divergence_entities,
    /// Transactional reads (`txn_read_attr`).
    txn_reads,
    /// `commit_txn` calls.
    commit_attempts,
    /// Commits that validated.
    commits,
    /// Commits that aborted on a conflict.
    aborts,
    /// Committed transactions whose writes spanned both KV shards.
    cross_shard_commits,
    /// WAL syncs issued inside `commit_txn`.
    commit_syncs,
    /// WAL records recovery replayed.
    records_replayed,
    /// WAL bytes recovery read back.
    bytes_replayed,
}

/// One episode's measurements.
#[derive(Debug, Default)]
pub struct Episode {
    /// Whether layer calls were timed.
    pub traced: bool,
    /// Wall seconds to build the world.
    pub setup_s: f64,
    /// Wall seconds of each round.
    pub rounds_s: Vec<f64>,
    /// Wall seconds of `crash_and_recover`.
    pub recover_s: f64,
    /// Client operations the workload issued.
    pub client_ops: u64,
    /// Client operations that completed (acked writes, answered
    /// probes, committed transfers).
    pub completed: u64,
    /// Attempts the stack made for them (a retried transfer counts
    /// once per `commit_txn`).
    pub attempts: u64,
    /// Storage bytes written per byte of encoded client op.
    pub write_amp: f64,
    /// Durable bytes held per byte of engine state.
    pub space_amp: f64,
    /// Peak live heap bytes of the process during the episode.
    pub peak_heap_bytes: usize,
    /// Counted work.
    pub units: Units,
    /// `state_digest` and `txn_digest` before the crash.
    pub digests: (u64, u64),
    /// Per-layer wall seconds and call counts (zero when untraced).
    pub busy: Vec<(Layer, f64, u64)>,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl Episode {
    /// Wall seconds of the measured rounds.
    pub fn loop_s(&self) -> f64 {
        self.rounds_s.iter().sum()
    }

    /// Wall seconds of every timed phase.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.loop_s() + self.recover_s
    }

    /// Record the layer totals of this episode.
    pub fn take_busy(&mut self, layers: &Layers) {
        self.busy = Layer::ALL
            .iter()
            .map(|&l| {
                let (secs, calls) = layers.busy(l);
                (l, secs, calls)
            })
            .collect();
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}
