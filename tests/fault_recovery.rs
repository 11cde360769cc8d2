//! End-to-end fault recovery: the co-space sync loop driven through a
//! scripted partition and a client crash.
//!
//! A server updates eight objects round-robin (one update per 10 ms
//! tick) and pushes each over `mv-dissem`'s reliable push path to a
//! client replica across a 5%-lossy link. A `FaultPlan` injects:
//!
//! * a bidirectional partition over `[1 s, 2 s)` — the transport's
//!   retries must carry every buffered-in-flight update across the heal
//!   without the application noticing more than a divergence bump;
//! * a client crash over `[3 s, 3.5 s)` with full state loss (replica
//!   cleared, transport endpoint state dropped) — recovery is a full
//!   re-push of the server's truth after restart.
//!
//! Asserted: (a) replica divergence stays within the update-rate bound
//! during the partition, (b) the replica reconverges to *exact* equality
//! with the server's truth after the faults heal, and (c) two runs with
//! the same seed produce byte-identical event logs and fault counters.

use mv_common::id::{ClientId, NodeId, ObjectId};
use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use mv_dissem::sched::Priority;
use mv_dissem::{PushServer, Replica};
use mv_net::{FaultPlan, FaultTarget, LinkSpec, Network, RetryPolicy, Sim};
use std::collections::BTreeMap;

const SERVER: NodeId = NodeId::new(0);
const CLIENT_NODE: NodeId = NodeId::new(1);
const CLIENT: ClientId = ClientId::new(1);
const OBJECTS: u64 = 8;
/// One object update per tick, round-robin.
const TICK_MS: u64 = 10;
/// Updates stop here; the tail of the run is pure convergence time.
const LAST_UPDATE_MS: u64 = 4_500;
const END_MS: u64 = 6_000;

struct World {
    net: Network,
    rng: rand::rngs::StdRng,
    ps: PushServer,
    replica: Replica,
    /// Server-side ground truth: object → value.
    truth: BTreeMap<u64, f64>,
    tick: u64,
    /// True right after a client restart: the next pump performs the
    /// full state re-push + reconnect.
    resync_due: bool,
    /// The deterministic event log compared across runs.
    log: Vec<String>,
    /// (ms, max |truth − replica|) divergence samples.
    samples: Vec<(u64, f64)>,
}

impl FaultTarget for World {
    fn fault_network(&mut self) -> &mut Network {
        &mut self.net
    }

    fn on_node_crash(&mut self, node: NodeId) {
        // State loss: the transport forgets the endpoint, the outbox
        // starts buffering, and the replica is wiped.
        self.ps.on_node_crash(node);
        self.replica.clear();
        self.log.push(format!("crash node={}", node.raw()));
    }

    fn on_node_restart(&mut self, node: NodeId) {
        self.resync_due = true;
        self.log.push(format!("restart node={}", node.raw()));
    }
}

impl World {
    fn new(seed: u64) -> Self {
        let mut net = Network::new();
        net.add_node(SERVER, "server");
        net.add_node(CLIENT_NODE, "client");
        net.add_link_bidi(
            SERVER,
            CLIENT_NODE,
            LinkSpec::new(SimDuration::from_millis(5), 1e8).with_loss(0.05),
        );
        net.set_group(CLIENT_NODE, 1).unwrap();
        let mut ps = PushServer::new(SERVER, RetryPolicy::default(), seed, 64);
        ps.register(CLIENT, CLIENT_NODE);
        World {
            net,
            rng: seeded_rng(seed),
            ps,
            replica: Replica::new(),
            truth: BTreeMap::new(),
            tick: 0,
            resync_due: false,
            log: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Advance the co-space: one object takes a new value; push it.
    fn update(&mut self, now: SimTime) {
        let obj = self.tick % OBJECTS;
        let value = self.tick as f64;
        self.tick += 1;
        self.truth.insert(obj, value);
        self.ps.push(
            &mut self.net,
            &mut self.rng,
            CLIENT,
            ObjectId::new(obj),
            value,
            Priority::Normal,
            now,
        );
    }

    /// Pump transport arrivals into the replica; handle pending resync.
    fn pump(&mut self, now: SimTime) {
        if self.resync_due {
            self.resync_due = false;
            // Full state transfer: re-push every object's current value
            // (buffered — the outbox is disconnected), then reconnect to
            // replay the backlog most-critical-first.
            let truth: Vec<(u64, f64)> = self.truth.iter().map(|(&o, &v)| (o, v)).collect();
            for (obj, value) in truth {
                self.ps.push(
                    &mut self.net,
                    &mut self.rng,
                    CLIENT,
                    ObjectId::new(obj),
                    value,
                    Priority::Normal,
                    now,
                );
            }
            let n = self.ps.reconnect(&mut self.net, &mut self.rng, CLIENT, now);
            self.log.push(format!("resync at={}ms replayed={n}", now.as_millis_f64() as u64));
        }
        for (_client, msg) in self.ps.poll(&mut self.net, &mut self.rng, now) {
            if self.replica.apply(&msg) {
                self.log.push(format!(
                    "apply at={}ms obj={} val={} seq={}",
                    now.as_millis_f64() as u64,
                    msg.object.raw(),
                    msg.value,
                    msg.seq
                ));
            }
        }
    }

    /// Max |truth − replica| over all objects; a missing replica entry
    /// counts as the full truth value (divergence from an implicit 0).
    fn divergence(&self) -> f64 {
        self.truth
            .iter()
            .map(|(&o, &v)| match self.replica.get(ObjectId::new(o)) {
                Some(r) => (v - r).abs(),
                None => v.abs(),
            })
            .fold(0.0, f64::max)
    }

    fn sample(&mut self, now: SimTime) {
        let d = self.divergence();
        self.samples.push((now.as_millis_f64() as u64, d));
        self.log.push(format!("sample at={}ms div={d}", now.as_millis_f64() as u64));
    }
}

/// Everything a determinism check needs out of one run.
#[derive(Debug, PartialEq)]
struct RunResult {
    log: Vec<String>,
    samples: Vec<(u64, f64)>,
    faults: String,
    transport_stats: String,
    replica_stats: String,
    converged: bool,
}

/// One full scripted run.
fn run(seed: u64) -> RunResult {
    let mut sim = Sim::new(World::new(seed));
    let sched = sim.scheduler();

    FaultPlan::new()
        .partition_between(0, 1, SimTime::from_secs(1), SimTime::from_secs(2))
        .crash_window(CLIENT_NODE, SimTime::from_millis(3_000), SimTime::from_millis(3_500))
        .install(sched);

    for ms in (0..=LAST_UPDATE_MS).step_by(TICK_MS as usize) {
        sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.update(s.now()));
    }
    // The pump runs every millisecond: transport timers and arrivals are
    // all processed at a fixed, deterministic cadence.
    for ms in 0..=END_MS {
        sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.pump(s.now()));
    }
    for ms in (50..=END_MS).step_by(50) {
        sched.at(SimTime::from_millis(ms), |w: &mut World, s| w.sample(s.now()));
    }

    sim.run_to_completion();
    let w = &sim.world;

    let faults: String = format!(
        "severed={} healed={} crash={} restart={}",
        w.net.stats.get("faults_severed"),
        w.net.stats.get("faults_healed"),
        w.net.stats.get("faults_node_crash"),
        w.net.stats.get("faults_node_restart"),
    );
    let converged = w.divergence() == 0.0 && w.replica.len() == w.truth.len();
    RunResult {
        log: w.log.clone(),
        samples: w.samples.clone(),
        faults,
        transport_stats: format!("{:?}", w.ps.transport.stats),
        replica_stats: format!("{:?}", w.replica.stats),
        converged,
    }
}

#[test]
fn partition_and_crash_recover_to_exact_state() {
    let RunResult { log, samples, faults, transport_stats, converged, .. } = run(42);

    // (a) Bounded divergence during the partition. Truth advances one
    // tick per 10 ms, so a 1 s partition can open a gap of at most ~100
    // ticks, plus retransmission lag before the cut. The replica had all
    // eight objects by then, so nothing is "missing" in the metric.
    let during_partition: Vec<f64> = samples
        .iter()
        .filter(|&&(ms, _)| (1_000..2_000).contains(&ms))
        .map(|&(_, d)| d)
        .collect();
    let max_partition_div = during_partition.iter().copied().fold(0.0, f64::max);
    assert!(
        max_partition_div <= 160.0,
        "partition divergence must stay within the update-rate bound: {max_partition_div}"
    );
    assert!(
        max_partition_div >= 50.0,
        "a 1 s partition must actually open a divergence gap: {max_partition_div}"
    );

    // After the heal, retransmissions close the gap well before the
    // crash window opens.
    let pre_crash: Vec<f64> = samples
        .iter()
        .filter(|&&(ms, _)| (2_500..3_000).contains(&ms))
        .map(|&(_, d)| d)
        .collect();
    assert!(
        pre_crash.iter().all(|&d| d <= 60.0),
        "post-heal divergence should have collapsed: {pre_crash:?}"
    );

    // (b) Exact reconvergence: once updates stop and the resync drains,
    // the replica equals the truth, value for value.
    assert!(converged, "replica must reconverge exactly after the faults heal");
    let final_div = samples.last().expect("samples").1;
    assert_eq!(final_div, 0.0);

    // The scripted faults all fired and were counted.
    assert_eq!(faults, "severed=1 healed=1 crash=1 restart=1");
    // The crash/restart actually exercised recovery machinery.
    assert!(log.iter().any(|l| l.starts_with("crash ")), "crash hook fired");
    assert!(log.iter().any(|l| l.starts_with("resync ")), "restart triggered a resync");
    assert!(transport_stats.contains("retransmits"), "loss exercised retries: {transport_stats}");
}

// ---- durable engine: crash recovery through the storage layer ----------
//
// The scripted-world tests above exercise *network* faults; the tests
// below exercise *storage* faults through `DurableMetaverse`: every
// engine mutation is logged to a group-commit WAL before application,
// and recovery replays the surviving log into a fresh engine. The claim
// (ISSUE 3 acceptance): the recovered state is byte-identical to the
// pre-crash engine at the last durable horizon, and a crash mid-batch
// loses the whole batch — recovery always lands exactly on a commit
// point, never between two.

mod durable_engine {
    use mv_common::geom::{Aabb, Point};
    use mv_common::id::EntityId;
    use mv_common::time::SimTime;
    use mv_common::Space;
    use mv_core::{DurableMetaverse, EntityKind, WriteOp};
    use mv_storage::kv::KvConfig;
    use mv_storage::GroupCommitPolicy;

    const SHARDS: usize = 4;
    const ENTITIES: usize = 64;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A durable engine whose WAL seals only on explicit `commit` (the
    /// record/byte triggers are effectively off), so WAL batches and
    /// commit points coincide 1:1 — which is what lets the torn-write
    /// test say "recovery lands on a commit point" precisely.
    fn build() -> DurableMetaverse {
        let mut dm = DurableMetaverse::new(
            SHARDS,
            SHARDS,
            KvConfig { memtable_budget: 4 << 10, ..KvConfig::default() },
            GroupCommitPolicy::by_records(usize::MAX),
        );
        let ids: Vec<EntityId> = (0..ENTITIES)
            .map(|i| {
                dm.spawn(
                    format!("troop{i}"),
                    EntityKind::Person,
                    Point::new(i as f64, (i % 8) as f64),
                    t(1),
                )
            })
            .collect();
        // Batched moves + attribute writes, like a real ingest tick.
        let moves: Vec<WriteOp> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| WriteOp::Position {
                id: *id,
                position: Point::new(i as f64 + 5.0, i as f64),
                ts: t(2),
            })
            .chain(ids.iter().take(16).map(|id| WriteOp::Attr {
                id: *id,
                name: "health".into(),
                value: 0.75,
                ts: t(2),
            }))
            .collect();
        for r in dm.apply_batch(&moves) {
            r.expect("all entities live");
        }
        // An area effect retires a handful through their owner shards.
        dm.area_effect(
            Space::Virtual,
            "air_raid",
            Aabb::new(Point::new(0.0, 0.0), Point::new(9.0, 9.0)),
            "perish",
            true,
            t(3),
        );
        dm
    }

    #[test]
    fn recovery_is_byte_identical_to_the_committed_engine() {
        let mut dm = build();
        dm.commit(t(3));
        let committed = dm.state_encoding();
        let digest = dm.state_digest();
        assert!(dm.engine().live_count() < ENTITIES, "the raid retired entities");

        // An uncommitted tail that must vanish wholesale.
        let ghost = dm.spawn("ghost", EntityKind::Avatar, Point::ORIGIN, t(4));
        dm.update_attr(ghost, "hp", 1.0, t(4)).unwrap();
        assert_ne!(dm.state_encoding(), committed);

        let report = dm.crash_and_recover();
        assert_eq!(report.corruption, None);
        assert!(report.replayed > 0);
        assert_eq!(
            dm.state_encoding(),
            committed,
            "recovered engine must be byte-identical to the pre-crash commit"
        );
        assert_eq!(dm.state_digest(), digest);

        // Crash again: recovery is a fixed point.
        dm.crash_and_recover();
        assert_eq!(dm.state_encoding(), committed);
    }

    #[test]
    fn torn_write_mid_batch_recovers_to_the_previous_commit_point() {
        let mut dm = build();
        dm.commit(t(3));
        let after_first_commit = dm.state_encoding();
        let intact_log = dm.wal.encoded_len();

        // A second committed batch of work…
        let id = dm.ids()[10];
        dm.update_position(id, Point::new(500.0, 500.0), t(5)).unwrap();
        dm.update_attr(id, "health", 0.1, t(5)).unwrap();
        dm.commit(t(5));
        let after_second_commit = dm.state_encoding();
        assert_ne!(after_first_commit, after_second_commit);

        // …whose batch frame is torn mid-write. The whole second batch
        // must vanish — never a prefix of it (e.g. the position update
        // without the attr write would be a state no commit produced).
        dm.wal.inject_torn_write(intact_log + 7);
        let report = dm.crash_and_recover();
        assert!(report.corruption.is_some(), "the tear must be detected");
        assert_eq!(
            dm.state_encoding(),
            after_first_commit,
            "recovery must land exactly on the previous commit point"
        );
        assert_eq!(dm.engine().entity(id).unwrap().attr("health"), 0.75);
    }

    #[test]
    fn bit_flip_in_an_earlier_batch_truncates_to_the_commit_before_it() {
        let mut dm = build();
        dm.commit(t(3));
        let first = dm.state_encoding();
        let first_log = dm.wal.encoded_len();

        dm.update_attr(dm.ids()[20], "morale", 0.9, t(4)).unwrap();
        dm.commit(t(4));
        dm.update_attr(dm.ids()[21], "morale", 0.2, t(5)).unwrap();
        dm.commit(t(5));

        // Corrupt the *second* batch: the third is intact but sits past
        // the damage, so recovery truncates back to commit one.
        assert!(dm.wal.inject_bit_flip(first_log + 13, 2));
        let report = dm.crash_and_recover();
        assert!(report.corruption.is_some());
        assert_eq!(
            dm.state_encoding(),
            first,
            "everything after the first corrupt batch is dropped, not replayed"
        );
    }

    #[test]
    fn same_ops_same_bytes_across_independent_runs() {
        // The recovery guarantee rests on replay determinism: two
        // engines fed the same ops — one via crash replay — are
        // byte-identical, including the KV snapshot store.
        let mut a = build();
        a.commit(t(3));
        let mut b = build();
        b.commit(t(3));
        assert_eq!(a.state_encoding(), b.state_encoding());
        a.crash_and_recover();
        assert_eq!(a.state_encoding(), b.state_encoding());
        for id in b.ids() {
            let key = id.raw().to_le_bytes();
            assert_eq!(a.kv().get(&key), b.kv().get(&key), "KV snapshot for {id:?}");
        }
    }
}

// ---- Recovery differential -------------------------------------------
//
// Seeded random `DurableOp` streams run against an engine that crashes
// (mid-2PC along the way, and with a torn tail or bit flip at the end)
// and against a twin that never crashes. The twin replays exactly the
// steps whose records survived the final crash; after recovery both
// must agree on the engine bytes, the MVCC chain digest, and the ids of
// the next drained events. The last check is what catches a recovery
// that drops its replayed events without numbering them.

mod recovery_differential {
    use mv_common::geom::{Aabb, Point};
    use mv_common::id::EntityId;
    use mv_common::seeded_rng;
    use mv_common::time::SimTime;
    use mv_common::Space;
    use mv_core::{DurableMetaverse, EntityKind, MetaTxn, TxnCrashPoint, WriteOp};
    use mv_storage::kv::KvConfig;
    use mv_storage::GroupCommitPolicy;
    use rand::rngs::StdRng;
    use rand::Rng;

    const SHARDS: usize = 2;
    /// Entities spawned (with 100 gold each) before the stream starts.
    const START: u64 = 16;
    const STEPS: usize = 80;
    const SEEDS: u64 = 40;

    /// One step of a stream. Ids are drawn a little past the spawned
    /// range, so some writes hit unknown entities, and retires make
    /// later writes hit retired ones.
    #[derive(Debug)]
    enum Step {
        Spawn(Point),
        Write(WriteOp),
        Batch(Vec<WriteOp>),
        Retire(EntityId),
        Area { space: Space, region: Aabb, retire: bool },
        Commit,
        /// A transfer, committed or explicitly aborted.
        Transfer { from: EntityId, to: EntityId, amount: f64, abort: bool },
        /// Two transfers out of `from` on one snapshot: the second
        /// aborts on a serializable conflict.
        Race { from: EntityId, to: [EntityId; 2] },
        /// `commit`, then a transfer whose commit stops dead at `point`
        /// and a crash and recovery of the engine under test.
        CrashTxn { from: EntityId, to: EntityId, point: TxnCrashPoint },
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Steps run at distinct milliseconds, so every oracle timestamp a
    /// step draws sits above those of earlier steps.
    fn at(step: usize) -> SimTime {
        t(step as u64 + 10)
    }

    fn point(rng: &mut StdRng) -> Point {
        Point::new(rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0))
    }

    fn write(rng: &mut StdRng, id: EntityId, ts: SimTime) -> WriteOp {
        if rng.gen_bool(0.6) {
            WriteOp::Position { id, position: point(rng), ts }
        } else {
            let name = if rng.gen_bool(0.5) { "gold" } else { "hp" };
            WriteOp::Attr { id, name: name.into(), value: rng.gen_range(0.0..50.0), ts }
        }
    }

    fn stream(seed: u64) -> Vec<Step> {
        let mut rng = seeded_rng(seed);
        let mut spawned = START;
        let points = TxnCrashPoint::sweep(2);
        (0..STEPS)
            .map(|i| {
                let ts = at(i);
                let hi = spawned + 3;
                let id = move |rng: &mut StdRng| EntityId::new(rng.gen_range(0..hi));
                match rng.gen_range(0..100u32) {
                    0..=5 => {
                        spawned += 1;
                        Step::Spawn(point(&mut rng))
                    }
                    6..=35 => {
                        let target = id(&mut rng);
                        Step::Write(write(&mut rng, target, ts))
                    }
                    36..=45 => {
                        let n = rng.gen_range(1..7);
                        Step::Batch(
                            (0..n)
                                .map(|_| {
                                    let target = id(&mut rng);
                                    write(&mut rng, target, ts)
                                })
                                .collect(),
                        )
                    }
                    46..=49 => Step::Retire(id(&mut rng)),
                    50..=52 => Step::Area {
                        space: Space::Virtual,
                        region: Aabb::centered(point(&mut rng), rng.gen_range(3.0..15.0)),
                        retire: rng.gen_bool(0.5),
                    },
                    53..=67 => Step::Commit,
                    68..=82 => Step::Transfer {
                        from: id(&mut rng),
                        to: id(&mut rng),
                        amount: rng.gen_range(1.0..9.0),
                        abort: rng.gen_bool(0.25),
                    },
                    83..=89 => Step::Race { from: id(&mut rng), to: [id(&mut rng), id(&mut rng)] },
                    _ => Step::CrashTxn {
                        from: id(&mut rng),
                        to: id(&mut rng),
                        point: points[rng.gen_range(0..points.len())],
                    },
                }
            })
            .collect()
    }

    fn world() -> DurableMetaverse {
        // Batches seal only on `commit`/`sync`, so every frame boundary
        // is a commit point of some step.
        let mut dm = DurableMetaverse::new(
            SHARDS,
            SHARDS,
            KvConfig { memtable_budget: 2 << 10, ..KvConfig::default() },
            GroupCommitPolicy::by_records(usize::MAX),
        );
        for i in 0..START {
            let id = dm.spawn(format!("e{i}"), EntityKind::Person, Point::new(i as f64, 0.0), t(1));
            dm.update_attr(id, "gold", 100.0, t(1)).expect("just spawned");
        }
        dm.commit(t(1));
        dm
    }

    fn transfer(
        dm: &mut DurableMetaverse,
        from: EntityId,
        to: EntityId,
        amount: f64,
        now: SimTime,
    ) -> MetaTxn {
        let mut txn = dm.txn(now);
        let a = dm.txn_read_attr(&mut txn, from, "gold").unwrap_or(0.0);
        let b = dm.txn_read_attr(&mut txn, to, "gold").unwrap_or(0.0);
        txn.write_attr(from, "gold", a - amount, now);
        txn.write_attr(to, "gold", b + amount, now);
        txn
    }

    /// Run a step that does not crash. Returns the number of
    /// transactions that aborted on a conflict.
    fn apply(dm: &mut DurableMetaverse, step: &Step, now: SimTime) -> usize {
        match step {
            Step::Spawn(p) => {
                dm.spawn("late", EntityKind::Avatar, *p, now);
            }
            Step::Write(WriteOp::Position { id, position, ts }) => {
                let _ = dm.update_position(*id, *position, *ts);
            }
            Step::Write(WriteOp::Attr { id, name, value, ts }) => {
                let _ = dm.update_attr(*id, name, *value, *ts);
            }
            Step::Batch(ops) => {
                dm.apply_batch(ops);
            }
            Step::Retire(id) => {
                let _ = dm.retire(*id, now);
            }
            Step::Area { space, region, retire } => {
                dm.area_effect(*space, "raid", *region, "perish", *retire, now);
            }
            Step::Commit => {
                dm.commit(now);
            }
            Step::Transfer { from, to, amount, abort } => {
                let txn = transfer(dm, *from, *to, *amount, now);
                if *abort {
                    dm.abort_txn(txn, now);
                } else {
                    dm.commit_txn(txn, now).expect("a lone transaction never conflicts");
                }
            }
            Step::Race { from, to } => {
                let first = transfer(dm, *from, to[0], 1.0, now);
                let second = transfer(dm, *from, to[1], 2.0, now);
                dm.commit_txn(first, now).expect("the first writer wins");
                return usize::from(dm.commit_txn(second, now).is_err());
            }
            Step::CrashTxn { .. } => unreachable!("crash steps run in `run_crashing`"),
        }
        0
    }

    struct Crashed {
        dm: DurableMetaverse,
        /// Log length after each step.
        lens: Vec<usize>,
        /// Log length before the first step.
        setup_len: usize,
        /// Per crash step: whether its transaction reached the commit
        /// point (and so survives recovery).
        durable_txn: Vec<bool>,
        conflicts: usize,
    }

    /// The engine under test: runs every step, crashing where told.
    fn run_crashing(steps: &[Step]) -> Crashed {
        let mut dm = world();
        let setup_len = dm.wal.encoded_len();
        let (mut lens, mut durable_txn, mut conflicts) = (Vec::new(), Vec::new(), 0);
        for (i, step) in steps.iter().enumerate() {
            let now = at(i);
            if let Step::CrashTxn { from, to, point } = step {
                dm.commit(now);
                let txn = transfer(&mut dm, *from, *to, 3.0, now);
                let outcome = dm.commit_txn_crashing(txn, now, Some(*point));
                // The point may never fire (a single-shard commit has no
                // second prepare), in which case the commit completed.
                durable_txn.push(match outcome {
                    Ok(Some(_)) => true,
                    Ok(None) => *point == TxnCrashPoint::AfterDecisionSync,
                    Err(_) => false,
                });
                dm.crash_and_recover();
            } else {
                conflicts += apply(&mut dm, step, now);
            }
            lens.push(dm.wal.encoded_len());
        }
        Crashed { dm, lens, setup_len, durable_txn, conflicts }
    }

    /// How many leading steps the twin must run to match a log cut
    /// at `valid` bytes, and whether the last of them is cut mid-step
    /// (a commit whose first batch survived without its decision, so
    /// the steps before it survive and its transaction does not).
    fn surviving_steps(c: &Crashed, valid: usize) -> (usize, bool) {
        let before = |i: usize| if i == 0 { c.setup_len } else { c.lens[i - 1] };
        // Steps that sealed a batch: everything before them is sealed.
        let sealing: Vec<usize> = (0..c.lens.len()).filter(|&i| c.lens[i] > before(i)).collect();
        match sealing.iter().find(|&&i| c.lens[i] > valid) {
            Some(&k) if before(k) < valid => (k + 1, true),
            Some(&k) => (sealing.iter().rev().find(|&&i| i < k).map_or(0, |&i| i + 1), false),
            None => (sealing.last().map_or(0, |&i| i + 1), false),
        }
    }

    /// The twin: never crashes, runs the first `n` steps (the last one
    /// only up to its cut when `cut`), then drains and collects like a
    /// live engine would at its next commit.
    fn run_twin(steps: &[Step], c: &Crashed, n: usize, cut: bool) -> DurableMetaverse {
        let mut twin = world();
        let mut crash_steps = c.durable_txn.iter();
        for (i, step) in steps.iter().enumerate().take(n) {
            let now = at(i);
            let last_cut = cut && i + 1 == n;
            match step {
                Step::CrashTxn { from, to, .. } => {
                    let durable = *crash_steps.next().expect("one outcome per crash step");
                    if durable && !last_cut {
                        let txn = transfer(&mut twin, *from, *to, 3.0, now);
                        twin.commit_txn(txn, now).expect("the crashed twin committed it");
                    }
                }
                // A cut transfer or race committed nothing durable.
                Step::Transfer { .. } | Step::Race { .. } if last_cut => {}
                other => {
                    apply(&mut twin, other, now);
                }
            }
        }
        twin.commit(at(n));
        twin.txn_auto_gc();
        twin
    }

    #[test]
    fn recovery_matches_a_twin_that_never_crashed() {
        let (mut conflicts, mut crashes, mut corrupt, mut cut_steps) = (0, 0, 0, 0);
        for seed in 0..SEEDS {
            let steps = stream(seed);
            let mut c = run_crashing(&steps);
            let mut rng = seeded_rng(seed ^ 0xfa17);
            let end = c.dm.wal.encoded_len();
            if end > c.setup_len {
                let offset = rng.gen_range(c.setup_len..end);
                if rng.gen_bool(0.5) {
                    c.dm.wal.inject_torn_write(offset);
                } else {
                    assert!(c.dm.wal.inject_bit_flip(offset, rng.gen_range(0..8u8)));
                }
            }
            let report = c.dm.crash_and_recover();
            assert!(report.valid_bytes >= c.setup_len, "seed {seed}: the world setup survives");
            let (n, cut) = surviving_steps(&c, report.valid_bytes);
            let mut twin = run_twin(&steps, &c, n, cut);
            let dm = &mut c.dm;

            assert_eq!(dm.state_encoding(), twin.state_encoding(), "seed {seed}: engine bytes");
            assert_eq!(dm.txn_digest(), twin.txn_digest(), "seed {seed}: MVCC chains");
            let next_ids = |dm: &DurableMetaverse| dm.engine().next_event_id();
            assert_eq!(next_ids(dm), next_ids(&twin), "seed {seed}: event ids");

            // The same round on both: the next drained events carry the
            // same ids, and the engines stay identical.
            let now = at(STEPS + 1);
            for side in [&mut *dm, &mut twin] {
                let id = side.spawn("probe", EntityKind::Vehicle, Point::new(5.0, 5.0), now);
                side.update_position(id, Point::new(40.0, 40.0), now).expect("just spawned");
                let _ = side.update_attr(EntityId::new(0), "hp", 7.0, now);
            }
            assert_eq!(dm.commit(now), twin.commit(now), "seed {seed}: events drained");
            assert_eq!(next_ids(dm), next_ids(&twin), "seed {seed}: next ids");
            assert_eq!(dm.state_encoding(), twin.state_encoding(), "seed {seed}: after the round");

            conflicts += c.conflicts;
            crashes += c.durable_txn.len();
            corrupt += usize::from(report.corruption.is_some());
            cut_steps += usize::from(cut);
        }
        // The streams reach every path they are meant to.
        assert!(conflicts > 0, "some transactions abort on conflicts");
        assert!(crashes > SEEDS as usize, "crashes mid-2PC");
        assert!(corrupt > SEEDS as usize / 2, "most final logs are damaged");
        assert!(cut_steps > 0, "some cuts fall between a prepare and its decision");
    }

    /// Tight probes on every live entity's truth and twin positions (a
    /// twin lagging by under a metre falls outside its truth's probe),
    /// plus the whole plane.
    fn hugging_probes(dm: &DurableMetaverse) -> Vec<Aabb> {
        let mut probes: Vec<Aabb> = dm
            .ids()
            .iter()
            .filter_map(|&id| dm.engine().entity(id).ok())
            .filter(|e| !e.retired)
            .flat_map(|e| [Aabb::centered(e.position, 0.02), Aabb::centered(e.twin_position, 0.02)])
            .collect();
        probes.push(Aabb::everything());
        probes
    }

    /// A step for the spatial stream, drawn from the state of `dm`:
    /// mostly sub-metre moves (the twin lags and keeps its old grid
    /// cell entry), some jumps that force a twin sync, spawns of both
    /// authorities, retires, and area effects in either space centred
    /// on some entity's twin, retiring or not.
    fn spatial_step(rng: &mut StdRng, dm: &DurableMetaverse, ts: SimTime) -> Step {
        let ids = dm.ids();
        let id = ids[rng.gen_range(0..ids.len())];
        let entity = dm.engine().entity(id).expect("spawned");
        match rng.gen_range(0..100u32) {
            0..=7 => Step::Spawn(point(rng)),
            8..=59 => {
                let (dx, dy) = (rng.gen_range(-0.45..0.45), rng.gen_range(-0.45..0.45));
                let position = Point::new(entity.position.x + dx, entity.position.y + dy);
                Step::Write(WriteOp::Position { id, position, ts })
            }
            60..=69 => Step::Write(WriteOp::Position { id, position: point(rng), ts }),
            70..=75 => Step::Retire(id),
            76..=89 => Step::Area {
                space: if rng.gen_bool(0.5) { Space::Virtual } else { Space::Physical },
                region: Aabb::centered(entity.twin_position, rng.gen_range(0.3..4.0)),
                retire: rng.gen_bool(0.4),
            },
            _ => Step::Commit,
        }
    }

    /// Recovery replays into the entity arenas and rebuilds the spatial
    /// grids afterwards (or at the first logged area effect): truth and
    /// twin queries, and area-effect targets, must come out as on a
    /// twin whose grids were maintained op by op.
    #[test]
    fn recovered_spatial_queries_match_a_twin_that_never_crashed() {
        let (mut lagging, mut effects, mut hits) = (0, 0, 0);
        for seed in 0..SEEDS {
            let mut rng = seeded_rng(seed ^ 0x6e1d);
            let (mut dm, mut twin) = (world(), world());
            for i in 0..STEPS {
                let step = spatial_step(&mut rng, &twin, at(i));
                effects += usize::from(matches!(step, Step::Area { .. }));
                apply(&mut dm, &step, at(i));
                apply(&mut twin, &step, at(i));
            }
            let end = at(STEPS);
            dm.commit(end);
            twin.commit(end);
            dm.crash_and_recover();
            assert_eq!(dm.state_encoding(), twin.state_encoding(), "seed {seed}: engine bytes");

            let probes = hugging_probes(&twin);
            for space in Space::ALL {
                let (engine, expect) = (dm.engine(), twin.engine());
                assert_eq!(
                    engine.query_truth_batch(space, &probes),
                    expect.query_truth_batch(space, &probes),
                    "seed {seed}: truth queries in {space:?}"
                );
                assert_eq!(
                    engine.query_visible_batch(space, &probes),
                    expect.query_visible_batch(space, &probes),
                    "seed {seed}: visible queries in {space:?}"
                );
            }
            for space in Space::ALL {
                for region in &probes {
                    let got = dm.area_effect(space, "siren", *region, "cover", false, end);
                    let want = twin.area_effect(space, "siren", *region, "cover", false, end);
                    assert_eq!(got, want, "seed {seed}: area-effect targets in {space:?}");
                    hits += want.len();
                }
            }
            lagging += twin
                .ids()
                .iter()
                .filter_map(|&id| twin.engine().entity(id).ok())
                .filter(|e| !e.retired && e.divergence() > 0.02)
                .count();
        }
        // The streams reach the paths they are meant to.
        assert!(lagging > SEEDS as usize, "twins lag their truth");
        assert!(effects > SEEDS as usize, "logged area effects force early rebuilds");
        assert!(hits > 0, "area effects find targets after recovery");
    }

    /// Plain (non-transactional) writes with no snapshot live keep one
    /// MVCC version per key — the chain the automatic collector would
    /// leave — so a plain-only stream recovers to the same chains; a
    /// live snapshot still pins the versions it can read.
    #[test]
    fn plain_writes_keep_one_version_and_recover_to_the_same_chains() {
        let mut dm = world();
        let mut rng = seeded_rng(0x7a1);
        // `world` wrote every entity's gold once.
        let mut keys: std::collections::BTreeSet<(u64, String)> =
            (0..START).map(|i| (i, "gold".to_string())).collect();
        for i in 0..STEPS {
            let id = EntityId::new(rng.gen_range(0..START));
            let op = write(&mut rng, id, at(i));
            keys.insert(match &op {
                WriteOp::Position { .. } => (id.raw(), "position".to_string()),
                WriteOp::Attr { name, .. } => (id.raw(), name.clone()),
            });
            if i % 3 == 0 {
                dm.apply_batch(std::slice::from_ref(&op));
            } else {
                apply(&mut dm, &Step::Write(op), at(i));
            }
        }
        dm.commit(at(STEPS));
        assert_eq!(dm.txn_version_count(), keys.len(), "one version per written key");
        let chains = dm.txn_digest();
        dm.crash_and_recover();
        assert_eq!(dm.txn_digest(), chains, "recovered chains equal the live ones");
        assert_eq!(dm.txn_version_count(), keys.len());

        // A pinned reader keeps reading its own version while plain
        // writes stack up above it; finishing it trims them again.
        let (id, now) = (EntityId::new(0), at(STEPS + 1));
        let mut reader = dm.txn(now);
        let seen = dm.txn_read_attr(&mut reader, id, "gold");
        assert!(seen.is_some(), "gold has a version");
        for k in 0..4 {
            dm.update_attr(id, "gold", 1_000.0 + f64::from(k), now).expect("entity 0 is live");
        }
        assert_eq!(dm.txn_read_attr(&mut reader, id, "gold"), seen, "the snapshot reads its own version");
        assert_eq!(dm.txn_version_count(), keys.len() + 4, "a live snapshot keeps the versions above it");
        dm.abort_txn(reader, now);
        assert_eq!(dm.txn_version_count(), keys.len(), "the collector trims once the reader is gone");
    }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    // (c) The whole scenario — fault schedule, loss draws, retry jitter,
    // delivery order, divergence trace — is a pure function of the seed.
    let a = run(42);
    let b = run(42);
    assert_eq!(a.log, b.log, "event logs must be identical");
    assert_eq!(a.samples, b.samples, "divergence samples must be identical");
    assert_eq!(a, b, "fault counters and stats must be identical");

    // A different seed draws different loss/jitter but must still
    // converge to the same exact final state.
    let c = run(7);
    assert!(c.converged, "other seeds converge too");
    assert_ne!(a.transport_stats, c.transport_stats, "different seeds take different retry paths");
}
