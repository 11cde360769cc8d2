//! The `flash-sale-txn` workload: E19-shaped serializable gold
//! transfers over a Zipf-hot pool of accounts, in a world crowded with
//! shoppers.
//!
//! A round is one group of up to [`GROUP`] transactions that all begin
//! on one snapshot before any of them commits, so overlapping transfers
//! conflict. Each commit makes itself durable with its own WAL syncs;
//! as in E19, rounds do not drain the engine into the KV store. A transfer
//! that aborts is retried at the head of the next round, as a buyer
//! retries a checkout, so every transfer commits in the end and the
//! conflicts show as extra attempts.

use crate::clock::{Layer, Layers, Phases};
use crate::episode::{Episode, Units};
use crate::{ratio, ENGINE_SHARDS, KV_SHARDS, PARALLEL_APPLY, WAL_BATCH_RECORDS};
use mv_common::geom::Point;
use mv_common::id::EntityId;
use mv_common::sample::Zipf;
use mv_common::seeded_rng;
use mv_common::time::SimTime;
use mv_core::{DurableMetaverse, DurableOp, EntityKind, MetaTxn};
use mv_storage::{GroupCommitPolicy, KvConfig};
use rand::Rng;
use std::collections::VecDeque;

/// Transactions that begin on one snapshot.
pub const GROUP: usize = 8;
/// Zipf exponent of account popularity (E19's).
const ZIPF_ALPHA: f64 = 0.9;
/// Every account's opening balance.
const OPENING_GOLD: f64 = 1_000.0;
/// The attribute the transfers move.
const GOLD: &str = "gold";
/// Side of the square the shoppers stand in, metres.
const SHOP_SIDE: f64 = 1_000.0;

/// Sizes of the flash-sale workload.
#[derive(Debug, Clone, Copy)]
pub struct FlashShape {
    /// Shoppers present in the world besides the pool; they are spawned
    /// and recovered but never trade.
    pub shoppers: usize,
    /// Accounts in the hot pool.
    pub pool: usize,
    /// Transfers per episode.
    pub transfers: usize,
}

/// One transfer: pool indices and an amount.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    from: usize,
    to: usize,
    amount: f64,
}

/// The workload's input, generated once per run from the seed.
pub struct FlashInputs {
    /// Spawn specs: the pool accounts first, then the shoppers.
    spawns: Vec<(String, EntityKind, Point)>,
    pool: usize,
    transfers: Vec<Transfer>,
}

/// Generate the transfer stream (E19's generator: Zipf-chosen payer
/// and payee, 1–8 gold).
pub fn make_inputs(shape: FlashShape, seed: u64) -> FlashInputs {
    let zipf = Zipf::new(shape.pool, ZIPF_ALPHA);
    let mut rng = seeded_rng(seed);
    let pool = (0..shape.pool).map(|i| {
        (
            format!("p{i}"),
            EntityKind::Avatar,
            Point::new(i as f64, 0.0),
        )
    });
    let shoppers: Vec<_> = (0..shape.shoppers)
        .map(|i| {
            let at = Point::new(rng.gen_range(0.0..SHOP_SIDE), rng.gen_range(0.0..SHOP_SIDE));
            (format!("s{i}"), EntityKind::Person, at)
        })
        .collect();
    let spawns = pool.chain(shoppers).collect();
    let transfers = (0..shape.transfers)
        .map(|_| Transfer {
            from: zipf.sample(&mut rng) % shape.pool,
            to: zipf.sample(&mut rng) % shape.pool,
            amount: 1.0 + rng.gen_range(0..8) as f64,
        })
        .collect();
    FlashInputs {
        spawns,
        pool: shape.pool,
        transfers,
    }
}

/// Encoded bytes of one committed gold write.
fn gold_write_bytes(id: EntityId, value: f64, now: SimTime) -> u64 {
    DurableOp::Attr {
        id,
        name: GOLD.to_string(),
        value,
        ts: now,
    }
    .encode()
    .len() as u64
}

/// Sum of every account's balance, read in a fresh transaction.
fn total_gold(dm: &mut DurableMetaverse, ids: &[EntityId], now: SimTime) -> f64 {
    let mut txn = dm.txn(now);
    let total = ids
        .iter()
        .map(|&id| dm.txn_read_attr(&mut txn, id, GOLD).unwrap_or(0.0))
        .sum();
    dm.abort_txn(txn, now);
    total
}

/// Run one episode of the flash sale.
pub fn episode(inp: &FlashInputs, traced: bool, layers: &mut Layers) -> Episode {
    let mut ep = Episode {
        traced,
        ..Episode::default()
    };
    let mut phases = Phases::default();
    let mut u = Units::default();
    let mut client_bytes = 0u64;
    let mut now_ms = 1u64;

    // ── Set-up: the pool and the shoppers, the first commit, and the
    // transaction that opens every balance, so each one lives in a
    // version chain.
    let ((mut dm, ids), setup_s) = phases.span("setup", || {
        let mut dm = DurableMetaverse::new(
            ENGINE_SHARDS,
            KV_SHARDS,
            KvConfig::default(),
            GroupCommitPolicy::by_records(WAL_BATCH_RECORDS),
        );
        dm.set_parallel_apply(PARALLEL_APPLY);
        let now = SimTime::from_millis(now_ms);
        let ids: Vec<EntityId> = layers.call(Layer::Spawn, || {
            let mut ids: Vec<EntityId> = inp
                .spawns
                .iter()
                .map(|(name, kind, p)| dm.spawn(name.as_str(), *kind, *p, now))
                .collect();
            ids.truncate(inp.pool);
            ids
        });
        layers.call(Layer::Sync, || dm.wal.sync());
        u.drain_records += layers.call(Layer::Drain, || dm.drain_to_storage()) as u64;
        let mut open = dm.txn(now);
        for &id in &ids {
            open.write_attr(id, GOLD, OPENING_GOLD, now);
        }
        let opened = layers.call(Layer::CommitTxn, || dm.commit_txn(open, now));
        (dm, opened.map(|_| ids))
    });
    ep.setup_s = setup_s;
    let ids = match ids {
        Ok(ids) => ids,
        Err(e) => {
            ep.failures.push(format!("opening transaction failed: {e}"));
            return ep;
        }
    };
    u.spawned = inp.spawns.len() as u64;
    let opened_at = SimTime::from_millis(now_ms);
    for (name, kind, position) in &inp.spawns {
        let spawn = DurableOp::Spawn {
            name: name.clone(),
            kind: *kind,
            position: *position,
            ts: opened_at,
        };
        client_bytes += spawn.encode().len() as u64;
    }
    client_bytes += ids
        .iter()
        .map(|&id| gold_write_bytes(id, OPENING_GOLD, opened_at))
        .sum::<u64>();
    let stats0 = (
        dm.txn_stats().get("begun"),
        dm.txn_stats().get("cross_shard_commits"),
        dm.txn_stats().get("commit_syncs"),
    );

    // ── Rounds: retries first, then fresh transfers.
    let mut retries: VecDeque<usize> = VecDeque::new();
    let mut fresh = 0..inp.transfers.len();
    let mut group: Vec<usize> = Vec::with_capacity(GROUP);
    let mut open: Vec<(MetaTxn, f64, Option<f64>)> = Vec::with_capacity(GROUP);
    let mut committed: Vec<(usize, f64, Option<f64>)> = Vec::with_capacity(GROUP);
    loop {
        group.clear();
        while group.len() < GROUP {
            match retries.pop_front().or_else(|| fresh.next()) {
                Some(i) => group.push(i),
                None => break,
            }
        }
        if group.is_empty() {
            break;
        }
        now_ms += 1;
        let now = SimTime::from_millis(now_ms);
        committed.clear();
        let (done, secs) = phases.span("round", || {
            layers.call(Layer::TxnRead, || {
                for &i in &group {
                    let t = inp.transfers[i];
                    let mut txn = dm.txn(now);
                    let a = dm.txn_read_attr(&mut txn, ids[t.from], GOLD).unwrap_or(0.0);
                    let b = (t.from != t.to)
                        .then(|| dm.txn_read_attr(&mut txn, ids[t.to], GOLD).unwrap_or(0.0));
                    open.push((txn, a, b));
                }
            });
            u.txn_reads += open
                .iter()
                .map(|(_, _, b)| 1 + u64::from(b.is_some()))
                .sum::<u64>();
            let mut done = 0u64;
            for (&i, (mut txn, a, b)) in group.iter().zip(open.drain(..)) {
                let t = inp.transfers[i];
                let (a2, b2) = match b {
                    Some(b) => (a - t.amount, Some(b + t.amount)),
                    None => (a, None),
                };
                txn.write_attr(ids[t.from], GOLD, a2, now);
                if let Some(b2) = b2 {
                    txn.write_attr(ids[t.to], GOLD, b2, now);
                }
                u.commit_attempts += 1;
                match layers.call(Layer::CommitTxn, || dm.commit_txn(txn, now)) {
                    Ok(_) => {
                        done += 1;
                        committed.push((i, a2, b2));
                    }
                    Err(_) => {
                        u.aborts += 1;
                        retries.push_back(i);
                    }
                }
            }
            done
        });
        ep.rounds_s.push(secs);
        u.commits += done;
        ep.completed += done;
        for &(i, a2, b2) in &committed {
            let t = inp.transfers[i];
            client_bytes += gold_write_bytes(ids[t.from], a2, now);
            if let Some(b2) = b2 {
                client_bytes += gold_write_bytes(ids[t.to], b2, now);
            }
        }
    }
    ep.client_ops = inp.transfers.len() as u64;
    ep.attempts = u.commit_attempts;
    let txn = dm.txn_stats();
    let begun = txn.get("begun") - stats0.0;
    u.cross_shard_commits = txn.get("cross_shard_commits") - stats0.1;
    u.commit_syncs = txn.get("commit_syncs") - stats0.2;
    ep.check(u.commits == inp.transfers.len() as u64, || {
        format!(
            "{} of {} transfers committed",
            u.commits,
            inp.transfers.len()
        )
    });
    ep.check(
        u.commits + u.aborts == u.commit_attempts && begun == u.commit_attempts,
        || {
            format!(
                "committed {} + aborted {} != attempted {} (begun {begun})",
                u.commits, u.aborts, u.commit_attempts
            )
        },
    );
    now_ms += 1;
    let expected = OPENING_GOLD * ids.len() as f64;
    let total = total_gold(&mut dm, &ids, SimTime::from_millis(now_ms));
    ep.check(total == expected, || {
        format!("gold not conserved: {total} != {expected}")
    });

    // ── Storage and space accounting, then crash and recovery.
    let kv = dm.kv().stats();
    let (run_bytes, memtable) = (dm.kv().run_bytes() as u64, dm.kv().memtable_bytes() as u64);
    u.kv_flushes = kv.get("flushes");
    u.kv_compactions = kv.get("compactions");
    u.kv_bytes_written = run_bytes + kv.get("compaction_read_bytes");
    u.wal_batches = dm.wal.stats.get("batches");
    let wal_written = dm.wal.stats.get("synced_bytes");
    ep.write_amp = ratio(
        (wal_written + u.kv_bytes_written) as f64,
        client_bytes as f64,
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
    ep.check(dm.txn_digest() == digests.1, || {
        "txn_digest changed across recovery".into()
    });
    ep.digests = digests;
    ep.units = u;
    ep.take_busy(layers);
    ep
}
