//! `ShardedMetaverse` — the co-space engine partitioned across N shards.
//!
//! §IV-C of the paper argues the co-space write path must absorb "data
//! of unprecedented scale" from sensed physical entities; one entity map
//! plus two spatial indexes eventually serializes on a single lock. This
//! module partitions the engine by *entity ownership*: each entity lives
//! on exactly one shard (hash of its id), and a shard is a complete
//! [`Metaverse`] — entity map, truth/twin [`GridIndex`]es, event buffer,
//! counters — so every per-entity code path is byte-for-byte the code
//! the sequential engine runs. What this module adds is the routing and
//! the *deterministic reassembly*:
//!
//! * batched writes ([`ShardedMetaverse::apply_batch`]) are partitioned
//!   by owner (stable, preserving per-entity order) and applied by one
//!   scoped thread per shard;
//! * cross-shard queries fan out and k-way-merge the per-shard sorted
//!   results (ownership makes shard results disjoint);
//! * area effects scan all shards for targets, then retire each victim
//!   through its owner shard;
//! * the merged event log is ordered by `(ts, entity, shard, shard-seq)`
//!   and re-numbered, so two runs over the same ops produce *identical
//!   bytes* regardless of thread scheduling.
//!
//! Equivalence with the sequential engine is not argued, it is *tested*:
//! `tests/sharded_differential.rs` replays random op sequences against
//! both engines and asserts identical results at every step.
//!
//! [`GridIndex`]: mv_spatial::GridIndex

use crate::arena::EntityRef;
use crate::engine::{Metaverse, SyncPolicy};
use crate::entity::{Entity, EntityKind};
use crate::events::{CoEvent, Command};
use crate::merge::KwayMerger;
use mv_common::geom::{Aabb, Point};
use mv_common::id::{EntityId, EventId, IdGen};
use mv_common::metrics::Counters;
use mv_common::time::SimTime;
use mv_common::Space;
use mv_common::MvResult;
use mv_obs::SharedTracer;
use std::time::Instant;

/// Owner shard of an entity: a SplitMix64 finalizer over the raw id,
/// reduced mod the shard count. Ids are dense (allocated sequentially),
/// so mixing is what spreads consecutive spawns across shards.
#[inline]
pub fn shard_of(id: EntityId, shards: usize) -> usize {
    let mut z = id.raw().wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as usize % shards
}

/// One write in a batch. Carries its own timestamp so a batch can span
/// simulation ticks and still replay exactly like op-at-a-time
/// application (each shard applies its ops in batch order).
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Ground-truth move (authoritative space).
    Position {
        /// Entity to move.
        id: EntityId,
        /// New ground-truth position.
        position: Point,
        /// When the move was observed.
        ts: SimTime,
    },
    /// Attribute write (authoritative space).
    Attr {
        /// Entity to update.
        id: EntityId,
        /// Attribute name.
        name: String,
        /// New value.
        value: f64,
        /// When the write was observed.
        ts: SimTime,
    },
}

impl WriteOp {
    /// The entity this op addresses (decides the owner shard).
    pub fn entity(&self) -> EntityId {
        match self {
            WriteOp::Position { id, .. } | WriteOp::Attr { id, .. } => *id,
        }
    }

    /// The op's timestamp.
    pub fn ts(&self) -> SimTime {
        match self {
            WriteOp::Position { ts, .. } | WriteOp::Attr { ts, .. } => *ts,
        }
    }
}

/// The sharded co-space engine. Same observable behaviour as
/// [`Metaverse`] (see module docs), scaled across owner shards.
pub struct ShardedMetaverse {
    shards: Vec<Metaverse>,
    ids: IdGen,
    clock: SimTime,
    /// Next merged event id (per-shard ids are re-numbered at drain).
    next_event: u64,
    /// Per-shard wall seconds of the last [`apply_batch`] call.
    ///
    /// [`apply_batch`]: ShardedMetaverse::apply_batch
    last_shard_walls: Vec<f64>,
    /// When false, `apply_batch` runs shards sequentially on the calling
    /// thread (timing mode: on an oversubscribed host, in-thread wall
    /// clocks include descheduling, so per-shard costs are only honest
    /// when shards run one at a time).
    parallel_apply: bool,
    /// Span collector: each (sampled) `apply_batch` call mints a
    /// `core.sharded.apply_batch` root marking the batch's ingest.
    tracer: Option<SharedTracer>,
    /// Reusable k-way merge scratch for query reassembly (a `Mutex` so
    /// queries keep `&self`; uncontended in the engine's tick loop).
    /// Steady-state queries perform zero merge-scratch allocations.
    merge_scratch: std::sync::Mutex<KwayMerger>,
}

impl ShardedMetaverse {
    /// Build with `shards` owner shards (each a full engine with the
    /// given policy and grid cell size). A shard count of zero is
    /// clamped to one — a sweep written as `0..n` should degrade to the
    /// unsharded engine, not panic.
    pub fn new(policy: SyncPolicy, cell_size: f64, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedMetaverse {
            shards: (0..shards).map(|_| Metaverse::new(policy, cell_size)).collect(),
            ids: IdGen::new(),
            clock: SimTime::ZERO,
            next_event: 0,
            last_shard_walls: vec![0.0; shards],
            parallel_apply: true,
            tracer: None,
            merge_scratch: std::sync::Mutex::new(KwayMerger::new()),
        }
    }

    /// Default policy, 50 m grid cells.
    pub fn with_defaults(shards: usize) -> Self {
        ShardedMetaverse::new(SyncPolicy::default(), 50.0, shards)
    }

    /// Number of owner shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current engine time (max over observed update times).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Toggle parallel batch application. With it off, `apply_batch`
    /// applies shard queues sequentially and the per-shard walls in
    /// [`last_shard_walls`] measure pure per-shard work (no scheduler
    /// interference) — what E1d's critical-path model needs.
    ///
    /// [`last_shard_walls`]: ShardedMetaverse::last_shard_walls
    pub fn set_parallel_apply(&mut self, on: bool) {
        self.parallel_apply = on;
    }

    /// Whether `apply_batch` runs shards in parallel (see
    /// [`Self::set_parallel_apply`]).
    pub fn parallel_apply(&self) -> bool {
        self.parallel_apply
    }

    /// Install a span collector: each (sampled) [`apply_batch`] call
    /// records a `core.sharded.apply_batch` ingest root.
    ///
    /// [`apply_batch`]: ShardedMetaverse::apply_batch
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Wall seconds each shard spent applying its queue in the last
    /// [`apply_batch`]. The maximum is the batch's critical path.
    ///
    /// [`apply_batch`]: ShardedMetaverse::apply_batch
    pub fn last_shard_walls(&self) -> &[f64] {
        &self.last_shard_walls
    }

    /// Live entities per shard (occupancy of the hash partitioning).
    pub fn shard_live_counts(&self) -> Vec<usize> {
        self.shards.iter().map(Metaverse::live_count).collect()
    }

    fn advance(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
    }

    fn owner(&self, id: EntityId) -> usize {
        shard_of(id, self.shards.len())
    }

    /// Register an entity. Ids are allocated by a single global
    /// generator, so spawn order yields the same dense ids the
    /// sequential engine would assign.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        kind: EntityKind,
        position: Point,
        now: SimTime,
    ) -> EntityId {
        self.advance(now);
        let id: EntityId = self.ids.next();
        let owner = self.owner(id);
        self.shards[owner].insert_prebuilt(Entity::new(id, name, kind, position), now);
        id
    }

    /// Register many entities at once: ids are assigned in input order
    /// (matching sequential spawns), then shards materialize their
    /// partitions in parallel.
    pub fn spawn_batch(
        &mut self,
        specs: &[(String, EntityKind, Point)],
        now: SimTime,
    ) -> Vec<EntityId> {
        self.advance(now);
        let n = self.shards.len();
        let mut ids = Vec::with_capacity(specs.len());
        let mut routed: Vec<Vec<(EntityId, usize)>> = vec![Vec::new(); n];
        for (i, _) in specs.iter().enumerate() {
            let id: EntityId = self.ids.next();
            routed[shard_of(id, n)].push((id, i));
            ids.push(id);
        }
        std::thread::scope(|scope| {
            for (shard, routes) in self.shards.iter_mut().zip(routed.iter()) {
                scope.spawn(move || {
                    for &(id, i) in routes {
                        let (ref name, kind, position) = specs[i];
                        shard.insert_prebuilt(Entity::new(id, name.clone(), kind, position), now);
                    }
                });
            }
        });
        ids
    }

    /// Apply a batch of writes. Ops are routed to their owner shards
    /// (stable partition: two ops on the same entity keep their relative
    /// order) and the shard queues run on scoped threads. Returns one
    /// result per op, in input order, identical to applying the ops
    /// one-by-one on the sequential engine: `Ok(synced)` or the
    /// per-entity error.
    pub fn apply_batch(&mut self, ops: &[WriteOp]) -> Vec<MvResult<bool>> {
        let n = self.shards.len();
        if let Some(max_ts) = ops.iter().map(WriteOp::ts).max() {
            self.advance(max_ts);
        }
        // One sampled root per batch (not per op): the ingest marker the
        // observability layer keys on, at one Option check when untraced.
        if let Some(tr) = &self.tracer {
            if let Some(ctx) = tr.maybe_trace("core.sharded.apply_batch", self.clock) {
                tr.close(ctx.span, self.clock, "applied");
            }
        }
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, op) in ops.iter().enumerate() {
            // lint:allow(panic-path): shard_of is `hash % n` with n == queues.len(); the routing index is local arithmetic, not decoded data
            queues[shard_of(op.entity(), n)].push(i);
        }
        let mut results: Vec<Option<MvResult<bool>>> = ops.iter().map(|_| None).collect();
        let mut walls = vec![0.0f64; n];
        let run_queue = |shard: &mut Metaverse, queue: &[usize]| {
            // lint:allow(wall-clock): measures real CPU time of the serial critical path for the speedup report; never feeds sim state
            let t0 = Instant::now();
            let out: Vec<(usize, MvResult<bool>)> = queue
                .iter()
                // lint:allow(panic-path): queue indices were produced by enumerating this same ops slice above
                .map(|&i| (i, Self::apply_one(shard, &ops[i])))
                .collect();
            (out, t0.elapsed().as_secs_f64())
        };
        if self.parallel_apply {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(queues.iter())
                    .map(|(shard, queue)| scope.spawn(|| run_queue(shard, queue)))
                    .collect();
                for (si, handle) in handles.into_iter().enumerate() {
                    // lint:allow(panic-path): a panicked shard worker poisons the batch; propagating the panic is the contract
                    let (out, wall) = handle.join().expect("shard worker panicked");
                    // lint:allow(panic-path): si enumerates the per-shard handles; walls was sized to n above
                    walls[si] = wall;
                    for (i, r) in out {
                        // lint:allow(panic-path): i came from enumerating ops; results was sized to ops.len() above
                        results[i] = Some(r);
                    }
                }
            });
        } else {
            for (si, (shard, queue)) in self.shards.iter_mut().zip(queues.iter()).enumerate() {
                let (out, wall) = run_queue(shard, queue);
                // lint:allow(panic-path): si enumerates the shards; walls was sized to n above
                walls[si] = wall;
                for (i, r) in out {
                    // lint:allow(panic-path): i came from enumerating ops; results was sized to ops.len() above
                    results[i] = Some(r);
                }
            }
        }
        self.last_shard_walls = walls;
        results
            .into_iter()
            // lint:allow(panic-path): routing places every op index in exactly one queue, so every slot was filled
            .map(|r| r.expect("every op was routed to exactly one shard"))
            .collect()
    }

    fn apply_one(shard: &mut Metaverse, op: &WriteOp) -> MvResult<bool> {
        match op {
            WriteOp::Position { id, position, ts } => shard.update_position(*id, *position, *ts),
            WriteOp::Attr { id, name, value, ts } => shard.update_attr(*id, name, *value, *ts),
        }
    }

    /// Move one entity's ground truth (routes to the owner shard).
    pub fn update_position(&mut self, id: EntityId, position: Point, now: SimTime) -> MvResult<bool> {
        self.advance(now);
        let owner = self.owner(id);
        self.shards[owner].update_position(id, position, now)
    }

    /// Update one entity's attribute (routes to the owner shard).
    pub fn update_attr(&mut self, id: EntityId, name: &str, value: f64, now: SimTime) -> MvResult<bool> {
        self.advance(now);
        let owner = self.owner(id);
        self.shards[owner].update_attr(id, name, value, now)
    }

    /// Retire an entity from both spaces (routes to the owner shard).
    pub fn retire(&mut self, id: EntityId, now: SimTime) -> MvResult<()> {
        self.advance(now);
        let owner = self.owner(id);
        self.shards[owner].retire(id, now)
    }

    /// Access an entity as a borrowed column view (routes to the owner
    /// shard).
    pub fn entity(&self, id: EntityId) -> MvResult<EntityRef<'_>> {
        self.shards[self.owner(id)].entity(id)
    }

    /// Number of live entities across all shards.
    pub fn live_count(&self) -> usize {
        self.shards.iter().map(Metaverse::live_count).sum()
    }

    /// Run a read-only closure on every shard concurrently, collecting
    /// results in shard order.
    fn fan_out<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Metaverse) -> T + Sync,
    {
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self.shards.iter().map(|shard| scope.spawn(move || f(shard))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard reader panicked"))
                .collect()
        })
    }

    /// Merge per-shard sorted lists through the engine's reusable
    /// scratch (zero merge-scratch allocations in steady state).
    fn merge_shard_lists<L: AsRef<[EntityId]>>(&self, lists: &[L]) -> Vec<EntityId> {
        self.merge_scratch.lock().expect("merge scratch poisoned").merge(lists)
    }

    /// Ground-truth entities of `space` within `area`, merged across
    /// shards, sorted by id — identical to [`Metaverse::query_truth`].
    pub fn query_truth(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        let lists = self.fan_out(|shard| shard.query_truth(space, area));
        self.merge_shard_lists(&lists)
    }

    /// Entities visible in `space` within `area`, merged across shards,
    /// sorted by id — identical to [`Metaverse::query_visible`].
    pub fn query_visible(&self, space: Space, area: &Aabb) -> Vec<EntityId> {
        // Shards partition entities, and an entity's truth and twin rows
        // both live on its owner shard, so per-shard visible sets are
        // disjoint: the merge needs no cross-shard dedup.
        let lists = self.fan_out(|shard| shard.query_visible(space, area));
        self.merge_shard_lists(&lists)
    }

    /// Batched [`query_truth`]: element `i` equals
    /// `query_truth(space, &areas[i])`, at one shard fan-out for the
    /// whole probe set (instead of one scoped-thread round per probe)
    /// and one shared grid pass per shard.
    ///
    /// [`query_truth`]: ShardedMetaverse::query_truth
    pub fn query_truth_batch(&self, space: Space, areas: &[Aabb]) -> Vec<Vec<EntityId>> {
        let per_shard = self.fan_out(|shard| shard.query_truth_batch(space, areas));
        self.merge_batch(areas.len(), &per_shard)
    }

    /// Batched [`query_visible`]: element `i` equals
    /// `query_visible(space, &areas[i])`, at one shard fan-out and one
    /// shared grid pass per index for the whole probe set.
    ///
    /// [`query_visible`]: ShardedMetaverse::query_visible
    pub fn query_visible_batch(&self, space: Space, areas: &[Aabb]) -> Vec<Vec<EntityId>> {
        let per_shard = self.fan_out(|shard| shard.query_visible_batch(space, areas));
        self.merge_batch(areas.len(), &per_shard)
    }

    /// Reassemble per-shard batch results: merge shard lists probe by
    /// probe through the reusable scratch.
    fn merge_batch(&self, probes: usize, per_shard: &[Vec<Vec<EntityId>>]) -> Vec<Vec<EntityId>> {
        let mut merger = self.merge_scratch.lock().expect("merge scratch poisoned");
        let mut refs: Vec<&[EntityId]> = Vec::with_capacity(per_shard.len());
        (0..probes)
            .map(|qi| {
                refs.clear();
                refs.extend(per_shard.iter().map(|lists| lists[qi].as_slice()));
                let mut out = Vec::new();
                merger.merge_into(&refs, &mut out);
                out
            })
            .collect()
    }

    /// Raise an area effect in `space`: the target scan fans out over
    /// every shard's twin index, then each victim is commanded/retired
    /// through its owner shard, in id order — the same commands (same
    /// order) the sequential engine emits.
    pub fn area_effect(
        &mut self,
        space: Space,
        effect: &str,
        region: Aabb,
        action: &str,
        retire: bool,
        now: SimTime,
    ) -> Vec<Command> {
        self.advance(now);
        // The target scan reads the twin grids: a suspended replay ends
        // its suspension here, so it rebuilds them at most once (a no-op
        // otherwise).
        self.resume_indexes();
        // The area-effect fact is a global (entity-less) event; record it
        // once. Shard 0 hosts globals so the merged log sees it exactly
        // once, like the sequential engine's log does.
        self.shards[0].note_area_effect(space, effect, region, now);
        let lists = self.fan_out(|shard| {
            let mut ids = shard.affected_twins(space, &region);
            ids.sort_unstable();
            ids
        });
        let affected = self.merge_shard_lists(&lists);
        affected
            .into_iter()
            .map(|id| {
                let owner = self.owner(id);
                self.shards[owner].relay_command(id, action, retire, now)
            })
            .collect()
    }

    /// Stop maintaining the spatial grids: until
    /// [`Self::resume_indexes`], spawns, moves and retires write each
    /// shard's entity arena only. Crash recovery replays under this; the
    /// first logged area effect, or else the end of replay, rebuilds
    /// every grid once and ends the suspension, so the target scan reads
    /// exact grids and the rest of replay maintains them incrementally.
    pub(crate) fn suspend_indexes(&mut self) {
        self.shards.iter_mut().for_each(Metaverse::suspend_indexes);
    }

    /// End a suspension: rebuild every shard's grids in one pass over
    /// its arena and maintain them incrementally again (a no-op unless
    /// suspended).
    pub(crate) fn resume_indexes(&mut self) {
        self.shards.iter_mut().for_each(Metaverse::resume_indexes);
    }

    /// Mean twin divergence over live entities across all shards.
    pub fn mean_divergence(&self) -> f64 {
        let (sum, count) = self
            .shards
            .iter()
            .map(Metaverse::divergence_parts)
            .fold((0.0, 0usize), |(s, c), (sum, _, count)| (s + sum, c + count));
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Maximum twin divergence over live entities across all shards.
    pub fn max_divergence(&self) -> f64 {
        self.shards
            .iter()
            .map(Metaverse::max_divergence)
            .fold(0.0, f64::max)
    }

    /// Counter totals summed across shards (`sync_msgs`,
    /// `suppressed_syncs`, `commands`) — equals the sequential engine's
    /// single counter set.
    pub fn stats(&self) -> Counters {
        let mut total = Counters::new();
        for shard in &self.shards {
            total.merge(&shard.stats);
        }
        total
    }

    /// Drain and merge every shard's event buffer into one
    /// deterministically ordered log.
    ///
    /// Merge order is `(ts, entity, shard, shard-local sequence)` with
    /// entity-less events last within a timestamp. Per-entity order is
    /// exact (an entity's events all come from its owner shard, where
    /// the local sequence preserves emission order), and the order never
    /// depends on thread scheduling — replaying the same ops yields a
    /// byte-identical log. Event ids are re-numbered globally.
    pub fn drain_events(&mut self) -> Vec<CoEvent> {
        let mut tagged: Vec<(u64, usize, usize, CoEvent)> = Vec::new();
        for (si, shard) in self.shards.iter_mut().enumerate() {
            for (seq, event) in shard.drain_events().into_iter().enumerate() {
                let entity_key = event.entity.map_or(u64::MAX, EntityId::raw);
                tagged.push((entity_key, si, seq, event));
            }
        }
        tagged.sort_by_key(|(entity_key, si, seq, event)| (event.ts, *entity_key, *si, *seq));
        tagged
            .into_iter()
            .map(|(_, _, _, mut event)| {
                event.id = EventId::new(self.next_event);
                self.next_event += 1;
                event
            })
            .collect()
    }

    /// Drain every shard's buffered events, appending each event's
    /// entity id to `touched` (unsorted, repeats kept) and numbering the
    /// events as [`Self::drain_events`] would: the event-id counter
    /// advances by the count, which is returned. The durable commit
    /// needs only which entities changed, so it skips the merge-sort.
    pub(crate) fn drain_touched(&mut self, touched: &mut Vec<EntityId>) -> usize {
        let mut count = 0;
        for shard in &mut self.shards {
            let events = shard.drain_events();
            count += events.len();
            touched.extend(events.iter().filter_map(|e| e.entity));
        }
        self.next_event += count as u64;
        count
    }

    /// The id the next drained event gets (the count of events
    /// numbered so far by [`Self::drain_events`],
    /// [`Self::discard_events`] and the durable commit's drain).
    pub fn next_event_id(&self) -> EventId {
        EventId::new(self.next_event)
    }

    /// Drop every shard's buffered events unread, numbering them as
    /// [`Self::drain_events`] would: the event-id counter advances by
    /// the count, so later ids are the same as after a drain. Returns
    /// the count. Recovery uses this for the events replay regenerates,
    /// which need no merge order because nobody reads them.
    pub fn discard_events(&mut self) -> usize {
        self.drain_touched(&mut Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn shard_of_is_total_and_balanced_enough() {
        let n = 8;
        let mut buckets = vec![0usize; n];
        for raw in 0..8_000u64 {
            buckets[shard_of(EntityId::new(raw), n)] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            // Expect ~1000 per bucket; allow wide slack — we only care
            // that no shard starves or hoards.
            assert!((700..=1300).contains(&b), "bucket {i} holds {b}");
        }
        // One shard owns everything.
        assert_eq!(shard_of(EntityId::new(123), 1), 0);
    }

    #[test]
    fn spawn_assigns_sequential_ids_across_shards() {
        let mut mv = ShardedMetaverse::with_defaults(4);
        let a = mv.spawn("a", EntityKind::Person, Point::ORIGIN, t(0));
        let b = mv.spawn("b", EntityKind::Avatar, Point::new(1.0, 1.0), t(1));
        let c = mv.spawn("c", EntityKind::Vehicle, Point::new(2.0, 2.0), t(2));
        assert_eq!((a.raw(), b.raw(), c.raw()), (0, 1, 2));
        assert_eq!(mv.live_count(), 3);
        assert_eq!(mv.now(), t(2));
    }

    #[test]
    fn spawn_batch_matches_sequential_spawns() {
        let specs: Vec<(String, EntityKind, Point)> = (0..64)
            .map(|i| (format!("e{i}"), EntityKind::Person, Point::new(i as f64, 0.0)))
            .collect();
        let mut batched = ShardedMetaverse::with_defaults(4);
        let ids = batched.spawn_batch(&specs, t(0));
        let mut sequential = ShardedMetaverse::with_defaults(4);
        let seq_ids: Vec<_> = specs
            .iter()
            .map(|(n, k, p)| sequential.spawn(n.clone(), *k, *p, t(0)))
            .collect();
        assert_eq!(ids, seq_ids);
        assert_eq!(
            format!("{:?}", batched.drain_events()),
            format!("{:?}", sequential.drain_events())
        );
    }

    #[test]
    fn batch_results_preserve_input_order_and_errors() {
        let mut mv = ShardedMetaverse::with_defaults(4);
        let ids: Vec<_> = (0..8)
            .map(|i| mv.spawn(format!("e{i}"), EntityKind::Person, Point::ORIGIN, t(0)))
            .collect();
        mv.retire(ids[3], t(1)).unwrap();
        let ops: Vec<WriteOp> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| WriteOp::Position {
                id,
                position: Point::new(100.0 + i as f64, 0.0),
                ts: t(2),
            })
            .collect();
        let results = mv.apply_batch(&ops);
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                assert!(r.is_err(), "retired entity must reject the move");
            } else {
                assert!(*r.as_ref().unwrap(), "100 m move forces a sync");
            }
        }
        assert_eq!(mv.stats().get("sync_msgs"), 7);
        assert_eq!(mv.last_shard_walls().len(), 4);
    }

    #[test]
    fn merged_event_log_is_identical_across_runs() {
        let run = || {
            let mut mv = ShardedMetaverse::with_defaults(8);
            let ids: Vec<_> = (0..32)
                .map(|i| mv.spawn(format!("e{i}"), EntityKind::Person, Point::ORIGIN, t(0)))
                .collect();
            let ops: Vec<WriteOp> = ids
                .iter()
                .map(|&id| WriteOp::Position { id, position: Point::new(50.0, 50.0), ts: t(1) })
                .collect();
            mv.apply_batch(&ops);
            mv.area_effect(Space::Virtual, "raid", Aabb::centered(Point::new(50.0, 50.0), 10.0), "perish", true, t(2));
            format!("{:?}", mv.drain_events())
        };
        let first = run();
        for _ in 0..4 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn batch_queries_match_per_probe_queries() {
        let mut mv = ShardedMetaverse::with_defaults(4);
        let mut rng = mv_common::seeded_rng(7);
        use rand::Rng as _;
        for i in 0..200 {
            let p = Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
            mv.spawn(format!("e{i}"), EntityKind::Person, p, t(0));
        }
        // Move some so twins diverge and both indexes carry entries.
        let ops: Vec<WriteOp> = (0..100u64)
            .map(|i| WriteOp::Position {
                id: EntityId::new(i),
                position: Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0)),
                ts: t(1),
            })
            .collect();
        mv.apply_batch(&ops);
        mv.retire(EntityId::new(3), t(2)).unwrap();
        let areas: Vec<Aabb> = (0..24)
            .map(|_| {
                let c = Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
                Aabb::centered(c, rng.gen_range(5.0..200.0))
            })
            .chain([Aabb::everything()])
            .collect();
        for space in [Space::Physical, Space::Virtual] {
            let truth = mv.query_truth_batch(space, &areas);
            let visible = mv.query_visible_batch(space, &areas);
            for (i, area) in areas.iter().enumerate() {
                assert_eq!(truth[i], mv.query_truth(space, area), "truth probe {i}");
                assert_eq!(visible[i], mv.query_visible(space, area), "visible probe {i}");
            }
        }
    }

    #[test]
    fn discarded_events_advance_ids_like_a_drain() {
        let run = |discard: bool| {
            let mut mv = ShardedMetaverse::with_defaults(4);
            let ids: Vec<_> = (0..12)
                .map(|i| mv.spawn(format!("e{i}"), EntityKind::Person, Point::ORIGIN, t(0)))
                .collect();
            let region = Aabb::centered(Point::ORIGIN, 5.0);
            mv.area_effect(Space::Virtual, "raid", region, "perish", true, t(1));
            let skipped = if discard { mv.discard_events() } else { mv.drain_events().len() };
            mv.update_position(ids[11], Point::new(300.0, 0.0), t(2)).ok();
            mv.spawn("late", EntityKind::Avatar, Point::ORIGIN, t(3));
            (skipped, format!("{:?}", mv.drain_events()))
        };
        let (drained, after_drain) = run(false);
        assert!(drained > 12, "spawns and the raid emitted events");
        assert_eq!(run(true), (drained, after_drain));
    }

    #[test]
    fn durable_commit_advances_ids_like_a_drain() {
        // The durable commit collects touched entities without merging
        // the events; the ids it consumes must match a full drain's.
        let run = |commit: bool| {
            let mut dm = crate::durable::DurableMetaverse::with_defaults(4);
            let ids: Vec<_> = (0..12)
                .map(|i| dm.spawn(format!("e{i}"), EntityKind::Person, Point::new(i as f64, 0.0), t(0)))
                .collect();
            let region = Aabb::centered(Point::ORIGIN, 5.0);
            dm.area_effect(Space::Virtual, "raid", region, "perish", true, t(1));
            dm.update_position(ids[11], Point::new(300.0, 0.0), t(2)).ok();
            let drained = if commit { dm.commit(t(2)) } else { dm.engine.drain_events().len() };
            (drained, dm.engine().next_event_id())
        };
        let (drained, next) = run(true);
        assert!(drained > 12, "spawns, the raid and the move emitted events");
        assert_eq!((drained, next), run(false));
    }

    #[test]
    fn an_area_effect_ends_an_index_suspension() {
        // Replay suspends the grids; the first area effect rebuilds them
        // for its scan and resumes incremental maintenance, so later
        // moves are indexed without a second rebuild.
        let mut mv = ShardedMetaverse::with_defaults(4);
        mv.suspend_indexes();
        let ids: Vec<_> = (0..8)
            .map(|i| mv.spawn(format!("e{i}"), EntityKind::Person, Point::new(i as f64, 0.0), t(0)))
            .collect();
        let region = Aabb::centered(Point::ORIGIN, 100.0);
        let hit = mv.area_effect(Space::Virtual, "scan", region, "ping", false, t(1));
        assert_eq!(hit.len(), ids.len(), "the scan read rebuilt grids");
        let far = Point::new(400.0, 400.0);
        mv.update_position(ids[0], far, t(2)).unwrap();
        assert_eq!(mv.query_truth(Space::Physical, &Aabb::centered(far, 1.0)), vec![ids[0]]);
    }

    #[test]
    fn zero_shards_clamps_to_one_instead_of_panicking() {
        let mut mv = ShardedMetaverse::with_defaults(0);
        assert_eq!(mv.shard_count(), 1);
        // And the clamped engine actually works.
        let id = mv.spawn("e", EntityKind::Avatar, Point::ORIGIN, t(0));
        let ops = [WriteOp::Position { id, position: Point::new(1.0, 2.0), ts: t(1) }];
        mv.apply_batch(&ops);
        assert_eq!(mv.live_count(), 1);
    }

    #[test]
    fn serial_apply_mode_matches_parallel_apply() {
        let build = |parallel: bool| {
            let mut mv = ShardedMetaverse::with_defaults(4);
            mv.set_parallel_apply(parallel);
            let ids: Vec<_> = (0..16)
                .map(|i| mv.spawn(format!("e{i}"), EntityKind::Vehicle, Point::ORIGIN, t(0)))
                .collect();
            let ops: Vec<WriteOp> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| WriteOp::Position { id, position: Point::new(i as f64 * 3.0, 0.0), ts: t(1) })
                .collect();
            let results: Vec<String> = mv.apply_batch(&ops).iter().map(|r| format!("{r:?}")).collect();
            (results, format!("{:?}", mv.drain_events()), mv.stats().to_string())
        };
        assert_eq!(build(true), build(false));
    }
}
