//! The tick workload, `deluge-ingest`: the serving pipeline under a
//! write storm.
//!
//! A round is one tick: `apply_batch` of the tick's writes, `commit`
//! (WAL `sync`, then `drain_to_storage`), one publication per move
//! through the broker tree, the deliveries scheduled on subscriber
//! links, the tick's AoI probes through `query_visible_batch`, and a
//! `mean_divergence` sweep.

use crate::clock::{Layer, Layers, Phases};
use crate::episode::{Episode, Units};
use crate::{ratio, ENGINE_SHARDS, KV_SHARDS, PARALLEL_APPLY, WAL_BATCH_RECORDS};
use mv_common::geom::{Aabb, Point};
use mv_common::id::{ClientId, EntityId};
use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use mv_common::Space;
use mv_core::{DurableMetaverse, DurableOp, WriteOp};
use mv_dissem::{LinkScheduler, Priority, SchedPolicy, TxRequest};
use mv_pubsub::{BrokerTree, Publication, Subscription};
use mv_storage::{GroupCommitPolicy, GroupCommitWal, KvConfig};
use mv_workloads::deluge::{self, DelugeOp, DelugeParams, DelugeTrace, ATTR_NAMES};
use rand::Rng;

/// Fanout regions per world side (64 region terms).
const REGIONS_PER_SIDE: usize = 8;
/// Half-side of an AoI probe, metres.
const PROBE_HALF_SIDE: f64 = 100.0;
/// Modelled subscriber downlink, bytes per simulated second.
const LINK_BYTES_PER_SEC: f64 = 1.0e8;
/// Modelled wire size of one delivered update.
const UPDATE_BYTES: u64 = 512;
/// Every this many ticks, a sample of the batched probe answers is
/// re-asked one probe at a time.
const PROBE_CHECK_EVERY: usize = 8;
/// Probes re-asked per checked tick.
const PROBE_CHECK_SAMPLE: usize = 4;

/// Sizes of one tick workload.
#[derive(Debug, Clone, Copy)]
pub struct TickShape {
    /// Entities spawned before tick 0.
    pub entities: usize,
    /// Ticks per episode (rounds).
    pub ticks: u64,
    /// Base writes per tick; flash-crowd ticks carry 4×.
    pub ops_per_tick: usize,
    /// AoI probes per tick.
    pub probes_per_tick: usize,
    /// Region subscribers.
    pub subscribers: usize,
    /// The KV store's tuning.
    pub kv: KvConfig,
}

/// A tick workload's input, generated once per run from the seed.
pub struct TickInputs {
    shape: TickShape,
    trace: DelugeTrace,
    terms: Vec<String>,
    pubs: Vec<Vec<Publication>>,
    probes: Vec<Vec<Aabb>>,
    /// Entity ids of the first episode's spawns; later episodes must
    /// hand out the same ones.
    ids: Vec<EntityId>,
    /// Per-tick writes, bound to `ids`.
    ops: Vec<Vec<WriteOp>>,
    /// Encoded bytes of every client op of an episode (spawns and
    /// writes): the denominator of write amplification.
    client_bytes: u64,
}

/// Generate the input of a tick workload.
pub fn make_inputs(shape: TickShape, seed: u64) -> TickInputs {
    let params = DelugeParams {
        entities: shape.entities,
        ticks: shape.ticks,
        ops_per_tick: shape.ops_per_tick,
        seed,
        ..Default::default()
    };
    let trace = deluge::generate(&params);
    let region_side = params.world_side / REGIONS_PER_SIDE as f64;
    let region_of = |p: Point| {
        let gx = ((p.x / region_side) as usize).min(REGIONS_PER_SIDE - 1);
        let gy = ((p.y / region_side) as usize).min(REGIONS_PER_SIDE - 1);
        gy * REGIONS_PER_SIDE + gx
    };
    let terms: Vec<String> = (0..REGIONS_PER_SIDE * REGIONS_PER_SIDE)
        .map(|r| format!("r{}x{}", r % REGIONS_PER_SIDE, r / REGIONS_PER_SIDE))
        .collect();
    let pubs = trace
        .ticks
        .iter()
        .map(|tick| {
            tick.ops
                .iter()
                .enumerate()
                .filter_map(|(i, op)| match *op {
                    DelugeOp::Move { to, .. } => Some(
                        Publication::new(op_ts(tick.start, params.tick, i, tick.ops.len()))
                            .term(&terms[region_of(to)])
                            .at(to)
                            .in_space(Space::Physical),
                    ),
                    DelugeOp::Attr { .. } => None,
                })
                .collect()
        })
        .collect();
    // Each probe is one client's area of interest around its entity's
    // spawn point; clients are spread evenly over the entities.
    let mut rng = seeded_rng(seed ^ 0x9E37_79B9_7F4A_7C15);
    let probes = (0..shape.ticks)
        .map(|_| {
            (0..shape.probes_per_tick)
                .map(|_| {
                    let at = trace.spawns[rng.gen_range(0..trace.spawns.len())].2;
                    Aabb::centered(at, PROBE_HALF_SIDE)
                })
                .collect()
        })
        .collect();
    TickInputs {
        shape,
        trace,
        terms,
        pubs,
        probes,
        ids: Vec::new(),
        ops: Vec::new(),
        client_bytes: 0,
    }
}

/// Arrival of op `i` of `n`, spread uniformly across its tick.
fn op_ts(start: SimTime, tick: SimDuration, i: usize, n: usize) -> SimTime {
    start + SimDuration::from_micros(i as u64 * tick.as_micros() / n.max(1) as u64)
}

impl TickInputs {
    /// Bind the trace's entity ranks to the ids the engine handed out.
    /// The first episode builds the writes; later ones must match it.
    fn bind(&mut self, ids: &[EntityId]) -> Result<(), String> {
        if !self.ids.is_empty() {
            return if self.ids == ids {
                Ok(())
            } else {
                Err("entity ids differ between episodes".into())
            };
        }
        self.ids = ids.to_vec();
        let tick_len = self.trace.params.tick;
        self.ops = self
            .trace
            .ticks
            .iter()
            .map(|tick| {
                tick.ops
                    .iter()
                    .enumerate()
                    .map(|(i, op)| {
                        let ts = op_ts(tick.start, tick_len, i, tick.ops.len());
                        match *op {
                            DelugeOp::Move { entity, to } => WriteOp::Position {
                                id: ids[entity as usize],
                                position: to,
                                ts,
                            },
                            DelugeOp::Attr {
                                entity,
                                name,
                                value,
                            } => WriteOp::Attr {
                                id: ids[entity as usize],
                                name: ATTR_NAMES[name as usize].to_string(),
                                value,
                                ts,
                            },
                        }
                    })
                    .collect()
            })
            .collect();
        let spawn_bytes: usize = self
            .trace
            .spawns
            .iter()
            .map(|(name, kind, position)| {
                DurableOp::Spawn {
                    name: name.clone(),
                    kind: *kind,
                    position: *position,
                    ts: SimTime::ZERO,
                }
                .encode()
                .len()
            })
            .sum();
        let write_bytes: usize = self
            .ops
            .iter()
            .flatten()
            .map(|op| DurableOp::from_write(op).encode().len())
            .sum();
        self.client_bytes = (spawn_bytes + write_bytes) as u64;
        Ok(())
    }

    /// Broker tree with `subscribers` region subscriptions, spread over
    /// the leaves.
    fn subscribe(&self) -> BrokerTree {
        let mut broker = BrokerTree::new(2, 4);
        let leaves = broker.leaves();
        let regions = self.terms.len();
        let region_side = self.trace.params.world_side / REGIONS_PER_SIDE as f64;
        for s in 0..self.shape.subscribers {
            let r = s % regions;
            let lo = Point::new(
                (r % REGIONS_PER_SIDE) as f64 * region_side,
                (r / REGIONS_PER_SIDE) as f64 * region_side,
            );
            let sub = Subscription::new(ClientId::new(s as u64))
                .with_term(&self.terms[r])
                .in_region(Aabb::new(
                    lo,
                    Point::new(lo.x + region_side, lo.y + region_side),
                ));
            broker.subscribe(leaves[s % leaves.len()], sub);
        }
        broker
    }
}

/// WAL bytes appended so far: sealed frames plus the pending payload.
fn wal_bytes(wal: &GroupCommitWal) -> u64 {
    (wal.encoded_len() + wal.queued_bytes()) as u64
}

/// Run one episode of a tick workload.
pub fn episode(inp: &mut TickInputs, traced: bool, layers: &mut Layers) -> Episode {
    let mut ep = Episode {
        traced,
        ..Episode::default()
    };
    let mut phases = Phases::default();
    let mut u = Units::default();
    let shape = inp.shape;

    // ── Set-up: durable spawn of every entity, the first commit, and
    // subscriber registration.
    let ((mut dm, mut broker), setup_s) = phases.span("setup", || {
        let mut dm = DurableMetaverse::new(
            ENGINE_SHARDS,
            KV_SHARDS,
            shape.kv,
            GroupCommitPolicy::by_records(WAL_BATCH_RECORDS),
        );
        dm.set_parallel_apply(PARALLEL_APPLY);
        layers.call(Layer::Spawn, || {
            for (name, kind, p) in &inp.trace.spawns {
                dm.spawn(name.as_str(), *kind, *p, SimTime::ZERO);
            }
        });
        layers.call(Layer::Sync, || dm.wal.sync());
        u.drain_records += layers.call(Layer::Drain, || dm.drain_to_storage()) as u64;
        (dm, inp.subscribe())
    });
    ep.setup_s = setup_s;
    u.spawned = inp.trace.spawns.len() as u64;
    if let Err(e) = inp.bind(dm.ids()) {
        ep.failures.push(e);
        return ep;
    }

    // ── Rounds.
    let link = LinkScheduler::new(LINK_BYTES_PER_SEC);
    let mut links: Vec<Vec<TxRequest>> = vec![Vec::new(); shape.subscribers.max(1)];
    let mut delivered: Vec<usize> = Vec::new();
    let mut next_link = 0usize;
    for t in 0..inp.ops.len() {
        let (ops, pubs, probes) = (&inp.ops[t], &inp.pubs[t], &inp.probes[t]);
        let (answers, secs) = phases.span("round", || {
            let (bytes0, seals0) = (wal_bytes(&dm.wal), dm.wal.batch_sizes().len());
            let results = layers.call(Layer::ApplyBatch, || dm.apply_batch(ops));
            let acked = results.iter().filter(|r| r.is_ok()).count() as u64;
            u.apply_ops += ops.len() as u64;
            u.apply_errors += ops.len() as u64 - acked;
            u.apply_wal_bytes += wal_bytes(&dm.wal) - bytes0;
            let seals1 = dm.wal.batch_sizes().len();
            u.apply_seals += (seals1 - seals0) as u64;

            let pending = dm.wal.pending_len() as u64;
            layers.call(Layer::Sync, || dm.wal.sync());
            u.sync_records += pending;
            u.sync_seals += (dm.wal.batch_sizes().len() - seals1) as u64;
            u.drain_records += layers.call(Layer::Drain, || dm.drain_to_storage()) as u64;

            delivered.clear();
            layers.call(Layer::Publish, || {
                delivered.extend(pubs.iter().map(|p| broker.publish(p)));
            });
            let link_count = links.len();
            for (p, &n) in pubs.iter().zip(&delivered) {
                for _ in 0..n {
                    links[next_link % link_count].push(TxRequest {
                        arrival: p.ts,
                        bytes: UPDATE_BYTES,
                        priority: Priority::Normal,
                        deadline: None,
                    });
                    next_link += 1;
                }
            }
            let sent: usize = delivered.iter().sum();
            u.publications += pubs.len() as u64;
            u.deliveries += sent as u64;
            layers.call(Layer::Dissem, || {
                for q in links.iter_mut().filter(|q| !q.is_empty()) {
                    std::hint::black_box(link.run(std::mem::take(q), SchedPolicy::WeightedFair));
                }
            });

            let answers = layers.call(Layer::Query, || {
                dm.engine().query_visible_batch(Space::Physical, probes)
            });
            u.probes += answers.len() as u64;
            u.hits += answers.iter().map(Vec::len).sum::<usize>() as u64;
            std::hint::black_box(layers.call(Layer::Divergence, || dm.engine().mean_divergence()));
            u.divergence_entities += dm.engine().live_count() as u64;
            ep.completed += acked + answers.len() as u64;
            answers
        });
        ep.rounds_s.push(secs);
        ep.client_ops += (ops.len() + probes.len()) as u64;
        ep.attempts += (ops.len() + probes.len()) as u64;
        if t % PROBE_CHECK_EVERY == 0 {
            for (area, batched) in probes.iter().zip(&answers).take(PROBE_CHECK_SAMPLE) {
                let single = dm.engine().query_visible(Space::Physical, area);
                ep.check(&single == batched, || {
                    format!("tick {t}: query_visible_batch differs from query_visible")
                });
            }
        }
    }
    ep.check(u.apply_errors == 0, || {
        format!("{} apply errors", u.apply_errors)
    });

    // ── Storage and space accounting, then crash and recovery.
    let kv = dm.kv().stats();
    let (run_bytes, memtable) = (dm.kv().run_bytes() as u64, dm.kv().memtable_bytes() as u64);
    u.kv_flushes = kv.get("flushes");
    u.kv_compactions = kv.get("compactions");
    // Everything compaction read was written once by a flush or an
    // earlier compaction, so bytes written = live run bytes + bytes read.
    u.kv_bytes_written = run_bytes + kv.get("compaction_read_bytes");
    u.wal_batches = dm.wal.stats.get("batches");
    let wal_written = dm.wal.stats.get("synced_bytes");
    ep.write_amp = ratio(
        (wal_written + u.kv_bytes_written) as f64,
        inp.client_bytes as f64,
    );
    let state_len = dm.state_encoding().len();
    ep.space_amp = ratio(
        (dm.wal.encoded_len() as u64 + run_bytes + memtable) as f64,
        state_len as f64,
    );
    let digests = (dm.state_digest(), dm.txn_digest());
    let (report, recover_s) = phases.span("recover", || {
        layers.call(Layer::Recover, || dm.crash_and_recover())
    });
    ep.recover_s = recover_s;
    u.records_replayed = report.replayed as u64;
    u.bytes_replayed = report.valid_bytes as u64;
    ep.check(dm.state_digest() == digests.0, || {
        "state_digest changed across recovery".into()
    });
    // `txn_digest` is not compared here: live plain writes keep every
    // MVCC version, while recovery ends with one GC pass.
    ep.digests = digests;
    ep.units = u;
    ep.take_busy(layers);
    ep
}
