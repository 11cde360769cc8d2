//! Group-commit write-ahead logging.
//!
//! The record-at-a-time [`crate::wal::Wal`] pays a full frame header, a
//! checksum pass, and — on real hardware — a device flush *per record*.
//! At deluge ingest rates the flush dominates: §IV-F's "massive volumes
//! of data … generated continuously at rapid speed" cannot be made
//! durable one fsync at a time. [`GroupCommitWal`] coalesces appended
//! records into an in-memory batch and seals the whole batch into a
//! single checksum-framed unit per `sync()` — one header, one checksum
//! pass, one (simulated) device flush, amortized over the batch
//! (GlassDB-style batching, applied to the log; cf. E5b).
//!
//! **Atomicity unit = the batch.** A batch frame is
//! `[count u32][len u32][checksum u64][records…]`; recovery validates
//! whole frames, so a crash mid-batch (torn write, bit rot) loses the
//! *entire* batch — never a prefix of it. The unsynced pending tail is
//! lost wholesale on crash, exactly like the record WAL's unsynced tail.
//!
//! Sealing is driven by a [`GroupCommitPolicy`]: a batch closes when it
//! reaches `max_records`, `max_bytes`, or its oldest pending record has
//! waited `max_delay` of virtual time — the classic throughput/latency
//! trigger triple — or when the caller forces `sync()`.

use crate::codec::{self, SliceReader};
use crate::wal::{
    checksum, decode_payload_ref, encode_payload, Corruption, RecoveryReport, WalRecord,
    WalRecordRef,
};
use mv_common::codec::wire_u32;
use mv_common::metrics::Counters;
use mv_common::time::{SimDuration, SimTime};
use mv_obs::{SharedTracer, TraceCtx};

/// Batch frame header: record count + payload length + payload checksum.
const BATCH_HEADER: usize = 4 + 4 + 8;

/// When a pending batch seals.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitPolicy {
    /// Seal after this many pending records.
    pub max_records: usize,
    /// Seal once the pending payload reaches this many bytes.
    pub max_bytes: usize,
    /// Seal once the oldest pending record has waited this long
    /// (virtual time; checked on `append`/`tick`).
    pub max_delay: SimDuration,
}

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        GroupCommitPolicy {
            max_records: 256,
            max_bytes: 64 << 10,
            max_delay: SimDuration::from_millis(5),
        }
    }
}

impl GroupCommitPolicy {
    /// A policy that seals on record count alone (byte/deadline triggers
    /// effectively off) — what the E17 batch-size sweep uses.
    pub fn by_records(max_records: usize) -> Self {
        GroupCommitPolicy {
            max_records: max_records.max(1),
            max_bytes: usize::MAX,
            max_delay: SimDuration(u64::MAX),
        }
    }
}

/// The group-commit log.
///
/// Each durable record is kept once: as bytes in the checksummed batch
/// frames of `log`. [`GroupCommitWal::durable`] decodes them in place.
#[derive(Debug, Default)]
pub struct GroupCommitWal {
    policy: GroupCommitPolicy,
    /// Record count of each sealed batch, in seal order.
    batch_sizes: Vec<usize>,
    /// Appended but not yet sealed — lost wholesale on crash.
    pending_records: usize,
    /// Encoded payload bytes of the pending batch (records are encoded
    /// on append; sealing only frames + checksums the accumulated
    /// payload — the per-batch, not per-record, commit cost).
    pending_payload: Vec<u8>,
    /// Virtual arrival time of the oldest pending record.
    pending_since: Option<SimTime>,
    /// Byte-encoded image of the sealed batches (checksummed frames).
    log: Vec<u8>,
    last_recovery: Option<RecoveryReport>,
    /// Span collector for traced appends (see [`Self::set_tracer`]).
    tracer: Option<SharedTracer>,
    /// Latest virtual time this WAL has observed (append/tick). `sync()`
    /// and `seal()` take no `now`, so traced spans close at this clock —
    /// group commit never runs the clock backwards, it only coalesces.
    clock: SimTime,
    /// Open `storage.wal.group_commit` spans of the pending batch;
    /// closed wholesale at seal ("sealed") or crash ("lost").
    pending_spans: Vec<u64>,
    /// `batches`, `records_synced`, `synced_bytes`, and per-trigger
    /// counts (`trigger_records`, `trigger_bytes`, `trigger_deadline`,
    /// `trigger_explicit`).
    pub stats: Counters,
}

impl GroupCommitWal {
    /// An empty log with the default policy.
    pub fn new() -> Self {
        Self::with_policy(GroupCommitPolicy::default())
    }

    /// An empty log with an explicit trigger policy.
    pub fn with_policy(policy: GroupCommitPolicy) -> Self {
        GroupCommitWal { policy, ..Default::default() }
    }

    /// The active policy.
    pub fn policy(&self) -> GroupCommitPolicy {
        self.policy
    }

    /// Records appended but not yet sealed into a durable batch — the
    /// group-commit queue depth health probes watch.
    pub fn queue_depth(&self) -> usize {
        self.pending_records
    }

    /// Encoded bytes of the unsealed pending batch.
    pub fn queued_bytes(&self) -> usize {
        self.pending_payload.len()
    }

    /// Collect a `storage.wal.group_commit` span per traced append: the
    /// span opens at append time and closes when the record's batch
    /// seals (status "sealed") — so the span's duration *is* the group
    /// commit latency the record paid — or aborts on crash ("lost").
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Append a record at virtual time `now` (not yet durable). Returns
    /// true when this append sealed a batch (count/byte/deadline
    /// trigger). The record is encoded into the pending payload here, so
    /// the later seal costs one frame + one checksum regardless of how
    /// many records the batch holds.
    pub fn append(&mut self, rec: WalRecord, now: SimTime) -> bool {
        self.append_traced(rec, now, None)
    }

    /// [`Self::append`] carrying the record's causal context.
    pub fn append_traced(&mut self, rec: WalRecord, now: SimTime, ctx: Option<TraceCtx>) -> bool {
        self.clock = self.clock.max(now);
        if let (Some(tr), Some(c)) = (&self.tracer, ctx) {
            self.pending_spans.push(tr.child(c, "storage.wal.group_commit", now));
        }
        self.pending_since.get_or_insert(now);
        let start = self.pending_payload.len();
        self.pending_payload.extend_from_slice(&[0u8; 4]);
        encode_payload(&rec, &mut self.pending_payload);
        let rec_len = wire_u32(self.pending_payload.len() - start - 4);
        // The slot always exists: the placeholder was pushed just above.
        if let Some(slot) = self.pending_payload.get_mut(start..start + 4) {
            slot.copy_from_slice(&rec_len.to_le_bytes());
        }
        self.pending_records += 1;
        self.maybe_seal(now)
    }

    /// Check the deadline trigger without appending (call on timer
    /// ticks). Returns true when a batch sealed.
    pub fn tick(&mut self, now: SimTime) -> bool {
        self.clock = self.clock.max(now);
        self.maybe_seal(now)
    }

    fn maybe_seal(&mut self, now: SimTime) -> bool {
        let Some(since) = self.pending_since else {
            return false;
        };
        let trigger = if self.pending_records >= self.policy.max_records {
            "trigger_records"
        } else if self.pending_payload.len() >= self.policy.max_bytes {
            "trigger_bytes"
        } else if now.since(since) >= self.policy.max_delay {
            "trigger_deadline"
        } else {
            return false;
        };
        self.stats.incr(trigger);
        self.seal();
        true
    }

    /// Force-seal whatever is pending (the explicit group commit).
    /// No-op on an empty pending set.
    pub fn sync(&mut self) {
        if self.pending_records > 0 {
            self.stats.incr("trigger_explicit");
            self.seal();
        }
    }

    /// Seal the pending records into one checksummed batch frame.
    fn seal(&mut self) {
        let count = self.pending_records;
        debug_assert!(count > 0, "seal() requires pending records");
        // Every traced record in this batch becomes durable now: its
        // group-commit wait ends at the seal instant.
        if let Some(tr) = &self.tracer {
            for span in self.pending_spans.drain(..) {
                tr.close(span, self.clock, "sealed");
            }
        } else {
            self.pending_spans.clear();
        }
        self.log.extend_from_slice(&wire_u32(count).to_le_bytes());
        self.log.extend_from_slice(&wire_u32(self.pending_payload.len()).to_le_bytes());
        self.log.extend_from_slice(&checksum(&self.pending_payload).to_le_bytes());
        self.log.extend_from_slice(&self.pending_payload);
        self.stats.add("synced_bytes", (BATCH_HEADER + self.pending_payload.len()) as u64);
        self.pending_payload.clear();
        self.pending_records = 0;
        self.batch_sizes.push(count);
        self.pending_since = None;
        self.stats.incr("batches");
        self.stats.add("records_synced", count as u64);
    }

    /// The records that would survive a crash (whole sealed batches),
    /// decoded in place from the byte log — the log is their only copy.
    /// The walk trusts the frames: this log sealed them, or the last
    /// crash validated them. Damage injected since then stays visible
    /// here until the next crash excises it, and the walk stops at a
    /// record it cannot parse.
    pub fn durable(&self) -> DurableRecords<'_> {
        DurableRecords { log: &self.log, next_frame: 0, batch: SliceReader::new(&[]), left: 0 }
    }

    /// Number of records in the sealed batches.
    pub fn durable_len(&self) -> usize {
        self.batch_sizes.iter().sum()
    }

    /// Record counts of the sealed batches, in seal order.
    pub fn batch_sizes(&self) -> &[usize] {
        &self.batch_sizes
    }

    /// Appended-but-unsealed record count (lost wholesale on crash).
    pub fn pending_len(&self) -> usize {
        self.pending_records
    }

    /// Total appended records (sealed + pending).
    pub fn len(&self) -> usize {
        self.durable_len() + self.pending_records
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the durable byte log (injection offsets index into this).
    pub fn encoded_len(&self) -> usize {
        self.log.len()
    }

    /// Flip bit `bit` (0–7) of byte `offset` in the durable log.
    /// Returns false (no-op) when `offset` is out of range.
    pub fn inject_bit_flip(&mut self, offset: usize, bit: u8) -> bool {
        match self.log.get_mut(offset) {
            Some(byte) => {
                *byte ^= 1 << (bit & 7);
                true
            }
            None => false,
        }
    }

    /// Tear the durable log down to its first `keep` bytes, as an
    /// interrupted batch write would.
    pub fn inject_torn_write(&mut self, keep: usize) {
        self.log.truncate(keep);
    }

    /// Simulate a crash: the pending tail is lost, and the sealed
    /// batches are validated in place in the (possibly corrupted) byte
    /// log. The log is truncated at the first corrupt *batch*; a damaged
    /// batch is dropped in full along with everything after it.
    pub fn crash_with_report(&mut self) -> RecoveryReport {
        // The pending tail dies with the crash; its spans must not leak.
        if let Some(tr) = &self.tracer {
            for span in self.pending_spans.drain(..) {
                tr.abort(span, "lost");
            }
        } else {
            self.pending_spans.clear();
        }
        let (batch_sizes, report) = scan_batches(&self.log);
        self.log.truncate(report.valid_bytes);
        self.batch_sizes = batch_sizes;
        self.pending_records = 0;
        self.pending_payload.clear();
        self.pending_since = None;
        self.last_recovery = Some(report);
        report
    }

    /// Report of the most recent recovery, if any.
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        self.last_recovery
    }
}

/// One batch frame of the log, borrowed.
struct Frame<'a> {
    /// Record count (outside the checksummed payload).
    count: usize,
    /// Checksum the frame header claims for the payload.
    sum: u64,
    payload: &'a [u8],
    /// Offset just past the frame.
    end: usize,
}

impl<'a> Frame<'a> {
    /// The frame starting at byte `at`; `None` when the log ends before
    /// the header or the payload it announces does.
    fn at(log: &'a [u8], at: usize) -> Option<Self> {
        let count = codec::read_u32_le(log, at)? as usize;
        let len = codec::read_u32_le(log, at + 4)? as usize;
        let sum = codec::read_u64_le(log, at + 8)?;
        let end = at + BATCH_HEADER + len;
        Some(Frame { count, sum, payload: log.get(at + BATCH_HEADER..end)?, end })
    }

    /// Whether the payload splits into exactly `count` well-formed
    /// records. The walk borrows the log and allocates nothing; a
    /// damaged count (it sits outside the checksum) fails here.
    fn records_intact(&self) -> bool {
        let mut r = SliceReader::new(self.payload);
        (0..self.count).all(|_| r.chunk().and_then(decode_payload_ref).is_some()) && r.done()
    }
}

/// Scan a batch log, returning the record counts of its intact batch
/// prefix and a report. Validation is all-or-nothing per batch frame: a
/// torn tail, checksum mismatch, or undecodable record drops the whole
/// batch and stops.
fn scan_batches(log: &[u8]) -> (Vec<usize>, RecoveryReport) {
    let mut batch_sizes = Vec::new();
    let mut replayed = 0usize;
    let mut at = 0usize;
    let mut corruption = None;
    while at < log.len() {
        let Some(frame) = Frame::at(log, at) else {
            corruption = Some(Corruption::TornTail { at });
            break;
        };
        if checksum(frame.payload) != frame.sum || !frame.records_intact() {
            corruption = Some(Corruption::ChecksumMismatch { at });
            break;
        }
        replayed += frame.count;
        batch_sizes.push(frame.count);
        at = frame.end;
    }
    let report = RecoveryReport {
        replayed,
        valid_bytes: at,
        dropped_bytes: log.len() - at,
        corruption,
    };
    (batch_sizes, report)
}

/// The durable records of a [`GroupCommitWal`], in append order, each a
/// [`WalRecordRef`] borrowing the log (see [`GroupCommitWal::durable`]).
#[derive(Debug, Clone)]
pub struct DurableRecords<'a> {
    log: &'a [u8],
    /// Offset of the next batch frame.
    next_frame: usize,
    /// The current batch's payload, at its next record.
    batch: SliceReader<'a>,
    /// Records left in the current batch.
    left: usize,
}

impl<'a> Iterator for DurableRecords<'a> {
    type Item = WalRecordRef<'a>;

    fn next(&mut self) -> Option<WalRecordRef<'a>> {
        while self.left == 0 {
            let frame = Frame::at(self.log, self.next_frame)?;
            self.batch = SliceReader::new(frame.payload);
            self.left = frame.count;
            self.next_frame = frame.end;
        }
        self.left -= 1;
        let rec = self.batch.chunk().and_then(decode_payload_ref);
        if rec.is_none() {
            // Unparseable bytes end the walk for good.
            self.left = 0;
            self.next_frame = self.log.len();
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn put(i: u32) -> WalRecord {
        WalRecord::Put { key: format!("k{i}").into_bytes(), value: format!("v{i}").into_bytes() }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn record_count_trigger_seals_batches() {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(4));
        for i in 0..10 {
            let sealed = wal.append(put(i), t(0));
            assert_eq!(sealed, i % 4 == 3, "append {i}");
        }
        assert_eq!(wal.durable_len(), 8);
        assert!(wal.durable().map(|r| r.to_owned()).eq((0..8).map(put)));
        assert_eq!(wal.pending_len(), 2);
        assert_eq!(wal.batch_sizes(), &[4, 4]);
        assert_eq!(wal.stats.get("trigger_records"), 2);
        wal.sync();
        assert_eq!(wal.durable_len(), 10);
        assert_eq!(wal.batch_sizes(), &[4, 4, 2]);
        assert_eq!(wal.stats.get("trigger_explicit"), 1);
    }

    #[test]
    fn byte_trigger_seals_on_payload_size() {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy {
            max_records: usize::MAX,
            max_bytes: 64,
            max_delay: SimDuration(u64::MAX),
        });
        let mut sealed = false;
        for i in 0..20 {
            sealed |= wal.append(put(i), t(0));
            if sealed {
                break;
            }
        }
        assert!(sealed, "64-byte trigger must fire well before 20 records");
        assert_eq!(wal.stats.get("trigger_bytes"), 1);
    }

    #[test]
    fn deadline_trigger_seals_aged_batches() {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy {
            max_records: usize::MAX,
            max_bytes: usize::MAX,
            max_delay: SimDuration::from_millis(5),
        });
        assert!(!wal.append(put(0), t(0)));
        assert!(!wal.tick(t(4)), "deadline not yet reached");
        assert!(wal.tick(t(5)), "5 ms deadline seals the batch");
        assert_eq!(wal.durable_len(), 1);
        assert_eq!(wal.stats.get("trigger_deadline"), 1);
        // Empty pending: ticks are no-ops.
        assert!(!wal.tick(t(100)));
    }

    #[test]
    fn unsynced_pending_tail_is_lost_on_crash() {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(4));
        for i in 0..6 {
            wal.append(put(i), t(0));
        }
        // One sealed batch of 4, two pending.
        let report = wal.crash_with_report();
        assert_eq!(report.replayed, 4);
        assert_eq!(report.corruption, None);
        assert_eq!(wal.durable_len(), 4);
        assert_eq!(wal.pending_len(), 0);
    }

    /// The satellite claim: crash mid-batch loses the whole batch, never
    /// a prefix of it — `durable()` only ever shrinks by whole batches.
    #[test]
    fn torn_write_mid_batch_drops_the_whole_batch() {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(4));
        for i in 0..8 {
            wal.append(put(i), t(0));
        }
        assert_eq!(wal.batch_sizes(), &[4, 4]);
        let full = wal.encoded_len();
        // Tear inside the *second* batch frame (anywhere past the first).
        let first_batch_end = full / 2;
        wal.inject_torn_write(full - 3);
        let report = wal.crash_with_report();
        assert_eq!(report.replayed, 4, "second batch dropped in full");
        assert_eq!(wal.durable_len(), 4);
        assert_eq!(wal.batch_sizes(), &[4]);
        assert!(matches!(report.corruption, Some(Corruption::TornTail { at }) if at <= first_batch_end));
        // Never a prefix of a batch: replayed is a sum of whole batches.
        assert_eq!(report.replayed % 4, 0);
    }

    #[test]
    fn bit_flip_in_a_batch_truncates_at_that_batch() {
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(2));
        for i in 0..6 {
            wal.append(put(i), t(0));
        }
        assert_eq!(wal.batch_sizes(), &[2, 2, 2]);
        // Find the second frame's offset by decoding lengths.
        let log_len = wal.encoded_len();
        assert!(wal.inject_bit_flip(log_len / 2, 1));
        let report = wal.crash_with_report();
        assert!(report.corruption.is_some());
        assert_eq!(report.replayed % 2, 0, "only whole batches replay");
        assert!(report.replayed < 6);
        // Second crash is a fixed point (damage excised).
        let again = wal.crash_with_report();
        assert_eq!(again.replayed, report.replayed);
        assert_eq!(again.corruption, None);
        assert_eq!(wal.last_recovery(), Some(again));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_any_single_bit_flip_loses_only_whole_batches(
            n_records in 1usize..40,
            batch in 1usize..8,
            offset_frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(batch));
            let records: Vec<WalRecord> = (0..n_records as u32).map(put).collect();
            for rec in &records {
                wal.append(rec.clone(), t(0));
            }
            wal.sync();
            let sizes = wal.batch_sizes().to_vec();
            prop_assert_eq!(sizes.iter().sum::<usize>(), n_records);
            let offset = ((wal.encoded_len() as f64 - 1.0) * offset_frac) as usize;
            prop_assert!(wal.inject_bit_flip(offset, bit));
            let report = wal.crash_with_report();
            // Detected, and the surviving records are exactly the
            // concatenation of some prefix of whole batches.
            prop_assert!(report.corruption.is_some());
            let mut acc = 0usize;
            let valid_boundaries: Vec<usize> = std::iter::once(0)
                .chain(sizes.iter().map(|s| { acc += s; acc }))
                .collect();
            prop_assert!(
                valid_boundaries.contains(&report.replayed),
                "replayed {} must fall on a batch boundary {:?}",
                report.replayed, valid_boundaries
            );
            let survivors: Vec<WalRecord> = wal.durable().map(|r| r.to_owned()).collect();
            prop_assert_eq!(&survivors[..], &records[..report.replayed]);
            prop_assert_eq!(wal.durable_len(), report.replayed);
        }

        /// The borrowed view is re-walkable: iterating the log before a
        /// crash yields every appended record, and iterating it again
        /// after a torn tail yields exactly a whole-batch prefix of them.
        #[test]
        fn prop_durable_iterates_before_and_after_a_torn_crash(
            n_records in 1usize..40,
            batch in 1usize..8,
            keep_frac in 0.0f64..1.0,
        ) {
            let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(batch));
            let records: Vec<WalRecord> = (0..n_records as u32).map(put).collect();
            for rec in &records {
                wal.append(rec.clone(), t(0));
            }
            wal.sync();
            let before: Vec<WalRecord> = wal.durable().map(|r| r.to_owned()).collect();
            prop_assert_eq!(&before, &records);
            let mut acc = 0usize;
            let boundaries: Vec<usize> = std::iter::once(0)
                .chain(wal.batch_sizes().iter().map(|s| { acc += s; acc }))
                .collect();
            let keep = (wal.encoded_len() as f64 * keep_frac) as usize;
            wal.inject_torn_write(keep);
            let report = wal.crash_with_report();
            prop_assert!(boundaries.contains(&report.replayed));
            let after: Vec<WalRecord> = wal.durable().map(|r| r.to_owned()).collect();
            prop_assert_eq!(&after[..], &records[..report.replayed]);
            // A second walk of the same log sees the same records.
            prop_assert_eq!(wal.durable().count(), report.replayed);
        }
    }

    #[test]
    fn hostile_batch_headers_recover_cleanly_instead_of_panicking() {
        // count = u32::MAX over a tiny (checksum-valid) payload: the
        // record walk must run off the payload end and drop the batch —
        // no monster allocation, no slice panic.
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xAB, 0xCD]);
        let mut log = Vec::new();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&wire_u32(payload.len()).to_le_bytes());
        log.extend_from_slice(&checksum(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
        let (sizes, report) = scan_batches(&log);
        assert!(sizes.is_empty());
        assert_eq!(report.corruption, Some(Corruption::ChecksumMismatch { at: 0 }));

        // Batch length of u32::MAX: a torn tail, not an OOB read.
        let mut log = Vec::new();
        log.extend_from_slice(&1u32.to_le_bytes());
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&0u64.to_le_bytes());
        let (sizes, report) = scan_batches(&log);
        assert!(sizes.is_empty());
        assert_eq!(report.corruption, Some(Corruption::TornTail { at: 0 }));

        // A header shorter than BATCH_HEADER bytes: torn tail too.
        let (sizes, report) = scan_batches(&[1, 2, 3]);
        assert!(sizes.is_empty());
        assert_eq!(report.corruption, Some(Corruption::TornTail { at: 0 }));
    }

    #[test]
    fn empty_and_never_synced_logs_recover_clean() {
        let mut wal = GroupCommitWal::new();
        let report = wal.crash_with_report();
        assert_eq!(
            report,
            RecoveryReport { replayed: 0, valid_bytes: 0, dropped_bytes: 0, corruption: None }
        );
        wal.append(put(1), t(0));
        wal.append(put(2), t(0));
        // Never sealed: the crash wipes everything, cleanly.
        let report = wal.crash_with_report();
        assert_eq!(report.replayed, 0);
        assert!(wal.is_empty());
    }

    #[test]
    fn traced_appends_close_at_seal_and_abort_on_crash() {
        let tracer = mv_obs::SharedTracer::new();
        let mut wal = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(2));
        wal.set_tracer(tracer.clone());
        let root = tracer.start_trace("test.root", t(0));

        // Two traced appends fill a batch; both spans close "sealed" at
        // the WAL clock of the sealing append.
        wal.append_traced(put(1), t(1), Some(root));
        assert_eq!(tracer.open_count(), 2, "root + one pending wal span");
        wal.append_traced(put(2), t(3), Some(root));
        assert_eq!(tracer.open_count(), 1, "only the root remains open");
        let sealed: Vec<_> = tracer
            .records()
            .into_iter()
            .filter(|r| r.name == "storage.wal.group_commit")
            .collect();
        assert_eq!(sealed.len(), 2);
        assert!(sealed.iter().all(|r| r.status == "sealed" && r.end == t(3)));
        assert_eq!(sealed[0].start, t(1));

        // A pending (unsealed) traced record dies with the crash: its
        // span aborts "lost" instead of leaking.
        wal.append_traced(put(3), t(5), Some(root));
        assert_eq!(tracer.open_count(), 2);
        wal.crash_with_report();
        assert_eq!(tracer.open_count(), 1);
        let lost: Vec<_> =
            tracer.records().into_iter().filter(|r| r.status == "lost").collect();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].end, lost[0].start, "aborted spans have no duration");

        // Untraced appends never touch the tracer.
        wal.append(put(4), t(6));
        wal.sync();
        assert_eq!(tracer.open_count(), 1);
    }

    #[test]
    fn batch_framing_amortizes_header_bytes() {
        // One 64-record batch spends one header; 64 single-record
        // batches spend 64. The byte log shows the amortization.
        let mut grouped = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(64));
        let mut single = GroupCommitWal::with_policy(GroupCommitPolicy::by_records(1));
        for i in 0..64 {
            grouped.append(put(i), t(0));
            single.append(put(i), t(0));
        }
        grouped.sync();
        assert_eq!(grouped.durable_len(), 64);
        assert_eq!(single.durable_len(), 64);
        assert_eq!(grouped.stats.get("batches"), 1);
        assert_eq!(single.stats.get("batches"), 64);
        assert_eq!(
            single.encoded_len() - grouped.encoded_len(),
            63 * BATCH_HEADER,
            "per-batch framing overhead"
        );
    }
}
