//! Near-real-time streaming front end — the paper's §6 "online change
//! detection" deployment shape.
//!
//! The offline pipeline consumes pre-binned intervals; a live deployment
//! consumes a **stream of flow records** and must bin, rotate, and detect
//! as time advances. [`crate::supervisor::spawn_supervised`] runs the
//! detector on its own thread behind a bounded channel
//! ([`crate::channel`]):
//!
//! ```text
//! capture thread ──records──► [channel] ──► detector thread ──reports──►
//! ```
//!
//! **Batches.** [`RecordSender::send_batch`] hands a slice of records to
//! the channel under one lock per stretch of free room
//! ([`RecordSender::send`] is a batch of one), and the detector thread
//! takes everything queued at once into an inbox it works through. The
//! channel signals a side only when it is parked, so while both sides
//! are busy a batch costs a few lock acquisitions and no futex wake.
//! [`StreamingConfig::channel_capacity`] counts records, and the inbox
//! counts against it until the detector takes the next batch: the
//! capacity bounds every record between producer and binner. The report
//! queue is unbounded — it holds one report per closed interval — so the
//! detector never waits on a consumer that is itself blocked sending
//! records.
//!
//! Interval rotation is driven by **event time** (record timestamps), not
//! wall clock, so behaviour is deterministic and replayable: when a record
//! arrives whose timestamp belongs to a later interval, every interval up
//! to it is flushed through the detector (empty intervals included — the
//! forecasting models must advance through silence). Records that arrive
//! *late* (timestamp before the current interval) are folded into the
//! current interval rather than dropped; the paper's two-pass replay is
//! equally approximate about stragglers.
//!
//! **Overload** is a policy, not an accident: [`OverloadPolicy`] decides
//! what happens when records outpace the detector — block the producer
//! (lossless backpressure), drop the newest record (bounded latency), or
//! admit a random fraction at weight `1/rate` so sketch totals stay
//! unbiased (the paper's §3.3 sampled-stream estimator). Whatever is shed
//! is counted and surfaced per interval in [`IntervalReport::drops`].
//!
//! **Durability** is optional: give [`StreamingConfig::checkpoint`] a path
//! and a cadence and the detector thread persists a
//! [`crate::checkpoint::Checkpoint`] atomically every N flushed intervals;
//! [`crate::supervisor`] owns that cadence and the crash recovery built
//! on the file.
//!
//! Shutdown: drop the record sender (or call
//! [`SupervisedHandle::shutdown`](crate::supervisor::SupervisedHandle::shutdown)).
//! The detector flushes the final partial interval, emits its report, and
//! the thread ends.

use crate::channel::{bounded, Receiver, Sender, TrySendError};
use crate::checkpoint::Checkpoint;
use crate::detector::{DetectorConfig, DropStats, IntervalReport, SketchChangeDetector};
use crate::sampling::UpdateSampler;
use crate::supervisor::Supervision;
use crate::telemetry::PipelineMetrics;
use scd_hash::SplitMix64;
use scd_traffic::{FaultPlan, FlowRecord, KeySpec, ValueSpec};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What the record sender does when the detector cannot keep up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverloadPolicy {
    /// Block the producer until the queue has room. Lossless; producer
    /// latency is unbounded.
    Block,
    /// Drop the record being sent when the queue is full, counting it in
    /// [`DropStats::dropped`]. Producer never blocks; sketch totals are
    /// biased low under sustained overload.
    DropNewest,
    /// Admit each record with probability `rate`, at weight `1/rate`, and
    /// shed the rest (counted in [`DropStats::shed`]). This is the paper's
    /// §3.3 sampled-stream estimator: totals stay unbiased while load
    /// drops by `1/rate`. Admitted records still block when the queue is
    /// full.
    Sample {
        /// Admission probability, in `(0, 1]`.
        rate: f64,
        /// Seed for the admission coin (deterministic experiments).
        seed: u64,
    },
}

/// When and where the detector thread persists checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file; written atomically (temp + rename).
    pub path: PathBuf,
    /// Write after every this many flushed intervals (≥ 1).
    pub every_intervals: u64,
}

/// Configuration for the streaming front end.
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// The underlying detector.
    pub detector: DetectorConfig,
    /// Interval length in milliseconds of event time.
    pub interval_ms: u64,
    /// Key projection from records.
    pub key: KeySpec,
    /// Value projection from records.
    pub value: ValueSpec,
    /// Record-channel capacity (backpressure bound), in records; it
    /// includes the batch the detector is working through.
    pub channel_capacity: usize,
    /// Overload behaviour of [`RecordSender::send_batch`].
    pub overload: OverloadPolicy,
    /// Optional periodic checkpointing of the full detector state.
    pub checkpoint: Option<CheckpointPolicy>,
    /// When set, the streaming loop records throughput/overload counters,
    /// detector stats, and (under supervision) lifecycle counters here.
    /// Never checkpointed: a restored detector re-attaches the same sink.
    pub metrics: Option<Arc<PipelineMetrics>>,
}

/// A record admitted into the detector queue, with its sampling weight.
pub(crate) struct Msg {
    pub(crate) record: FlowRecord,
    pub(crate) weight: f64,
}

/// Shared overload counters, drained into [`DropStats`] at each interval
/// flush. Attribution is approximate by one queue depth: a record shed
/// while interval `t` is being accumulated is charged to the next report
/// flushed, which is the best a sender that never sees event time can do.
pub(crate) struct OverloadCounters {
    dropped: AtomicU64,
    sampled_in: AtomicU64,
    shed: AtomicU64,
    sampler: Mutex<SplitMix64>,
}

impl OverloadCounters {
    fn new(seed: u64) -> Self {
        OverloadCounters {
            dropped: AtomicU64::new(0),
            sampled_in: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            sampler: Mutex::new(SplitMix64::new(seed)),
        }
    }

    fn drain(&self) -> DropStats {
        DropStats {
            dropped: self.dropped.swap(0, Ordering::Relaxed),
            sampled_in: self.sampled_in.swap(0, Ordering::Relaxed),
            shed: self.shed.swap(0, Ordering::Relaxed),
        }
    }
}

/// The sending half of a streaming detector: applies the configured
/// [`OverloadPolicy`] to every record. Clone freely for multiple
/// producers.
pub struct RecordSender {
    tx: Sender<Msg>,
    policy: OverloadPolicy,
    counters: Arc<OverloadCounters>,
}

impl Clone for RecordSender {
    fn clone(&self) -> Self {
        RecordSender {
            tx: self.tx.clone(),
            policy: self.policy,
            counters: Arc::clone(&self.counters),
        }
    }
}

impl RecordSender {
    /// Offers one record under the overload policy; a batch of one.
    pub fn send(&self, record: FlowRecord) -> bool {
        self.send_batch(std::slice::from_ref(&record))
    }

    /// Offers records in order under the overload policy. Returns `false`
    /// only if the detector thread has stopped; a record shed *by policy*
    /// is a successful send (it is counted, not an error). Splitting a
    /// stream into batches never changes what the detector sees: the
    /// sampler draws once per record, in order, either way.
    pub fn send_batch(&self, records: &[FlowRecord]) -> bool {
        match self.policy {
            OverloadPolicy::Block => {
                self.tx.send_all(records.iter().map(|&record| Msg { record, weight: 1.0 })).is_ok()
            }
            OverloadPolicy::DropNewest => {
                for &record in records {
                    match self.tx.try_send(Msg { record, weight: 1.0 }) {
                        Ok(()) => {}
                        Err(TrySendError::Full) => {
                            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TrySendError::Disconnected) => return false,
                    }
                }
                true
            }
            OverloadPolicy::Sample { rate, .. } => {
                // The same Bernoulli predicate as the record sampler and
                // the detector's Sampled key scan — see
                // `UpdateSampler::keep` for the strict-< semantics (the
                // inline comparison this replaces admitted with a 2⁻⁶⁴
                // bias and saturated rates within 2⁻⁵³ of 1). The coin is
                // locked once per batch, never across a channel wait.
                let weight = 1.0 / rate;
                let admitted: Vec<Msg> = {
                    let mut rng = self.counters.sampler.lock().expect("sampler lock");
                    records
                        .iter()
                        .filter(|_| UpdateSampler::keep(rate, &mut rng))
                        .map(|&record| Msg { record, weight })
                        .collect()
                };
                let admitted_n = admitted.len() as u64;
                self.counters.sampled_in.fetch_add(admitted_n, Ordering::Relaxed);
                self.counters.shed.fetch_add(records.len() as u64 - admitted_n, Ordering::Relaxed);
                self.tx.send_all(admitted).is_ok()
            }
        }
    }
}

/// Why a supervisor thread stopped abnormally.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFault {
    /// The supervisor thread panicked; the payload's message, if any.
    Panicked(String),
}

impl std::fmt::Display for StreamFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamFault::Panicked(msg) => write!(f, "detector thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for StreamFault {}

/// Renders a panic payload (from `join` or `catch_unwind`) as text.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The streaming binner's position in event time — everything the
/// detector loop owns besides the detector itself; fresh by default.
#[derive(Default)]
pub(crate) struct BinnerState {
    /// Records taken from the channel and not yet binned. A restart
    /// carries it over, so a crash loses only the record it hit.
    pub(crate) inbox: VecDeque<Msg>,
    /// `(key, weighted value)` pairs of the interval being accumulated.
    pub(crate) current: Vec<(u64, f64)>,
    /// Event-time index of the interval being accumulated; fixed by the
    /// first record.
    pub(crate) interval_idx: Option<u64>,
    /// Records processed so far.
    pub(crate) processed: u64,
}

impl BinnerState {
    /// Resumes from a checkpoint: the in-flight interval's records are the
    /// checkpoint gap and are gone; position and counters carry over.
    pub(crate) fn from_checkpoint(ck: &Checkpoint) -> Self {
        BinnerState {
            inbox: VecDeque::new(),
            current: Vec::new(),
            interval_idx: ck.next_interval,
            processed: ck.processed,
        }
    }
}

/// Everything the detector loop needs besides its mutable state.
pub(crate) struct LoopContext {
    pub(crate) config: StreamingConfig,
    pub(crate) counters: Arc<OverloadCounters>,
    /// Test-only fault injection, threaded through the supervisor.
    pub(crate) fault: Option<FaultPlan>,
}

/// The detector loop proper: bin records by event time, flush intervals
/// through the detector, checkpoint at the supervisor's cadence, until
/// every record sender or the report receiver is gone. Runs on the
/// detector thread; the supervisor calls it inside `catch_unwind` so
/// `detector` and `binner` live outside and can be rebuilt after a panic.
pub(crate) fn run_loop(
    detector: &mut SketchChangeDetector,
    binner: &mut BinnerState,
    ctx: &LoopContext,
    sup: &mut Supervision,
    records: &Receiver<Msg>,
    reports: &Sender<IntervalReport>,
) {
    let interval_ms = ctx.config.interval_ms;
    // The inbox first (a restart hands over what the crashed run had
    // taken), then one channel batch at a time.
    loop {
        let Some(msg) = binner.inbox.pop_front() else {
            if records.recv_batch(&mut binner.inbox) {
                continue;
            }
            break;
        };
        binner.processed += 1;
        if let Some(m) = &ctx.config.metrics {
            m.stream.records_total.inc();
        }
        if let Some(fault) = &ctx.fault {
            fault.before_record(binner.processed);
        }
        let t = msg.record.timestamp_ms / interval_ms;
        let idx = *binner.interval_idx.get_or_insert(t);
        if t > idx {
            // Flush the finished interval, then any empty ones the stream
            // skipped over (models advance through silence).
            let mut report = detector.process_interval(&binner.current);
            report.drops = ctx.counters.drain();
            if let Some(m) = &ctx.config.metrics {
                m.record_drops(&report.drops);
            }
            binner.current.clear();
            if reports.send(report).is_err() {
                return;
            }
            for _ in (idx + 1)..t {
                if reports.send(detector.process_interval(&[])).is_err() {
                    return;
                }
            }
            binner.interval_idx = Some(t);
            sup.maybe_checkpoint(detector, binner.interval_idx, binner.processed);
        }
        // Late records (t < idx) fold into the current interval.
        binner.current.push((
            ctx.config.key.key_of(&msg.record),
            ctx.config.value.value_of(&msg.record) * msg.weight,
        ));
    }
    // Senders dropped: flush the final partial interval. Counters are
    // drained unconditionally — even when every tail record was shed or
    // dropped (leaving nothing to process), the counts must surface in a
    // report so `processed + lost == sent` accounting holds.
    let drops = ctx.counters.drain();
    if let Some(m) = &ctx.config.metrics {
        m.record_drops(&drops);
    }
    if !binner.current.is_empty() {
        let mut report = detector.process_interval(&binner.current);
        report.drops = drops;
        binner.current.clear();
        binner.interval_idx = binner.interval_idx.map(|t| t + 1);
        let _ = reports.send(report);
        sup.maybe_checkpoint(detector, binner.interval_idx, binner.processed);
    } else if drops != DropStats::default() {
        // No records to process, so the detector is not advanced; the
        // trailing counts ride out on a synthetic counters-only report.
        let report = IntervalReport {
            interval: detector.intervals_processed(),
            drops,
            ..IntervalReport::default()
        };
        let _ = reports.send(report);
    }
}

/// Builds the record channel + counters + sender for a config.
pub(crate) fn make_front_end(
    config: &StreamingConfig,
) -> (RecordSender, Receiver<Msg>, Arc<OverloadCounters>) {
    assert!(config.interval_ms > 0, "interval must be positive");
    assert!(config.channel_capacity > 0, "channel capacity must be positive");
    let sampler_seed = match config.overload {
        OverloadPolicy::Sample { rate, seed } => {
            assert!(rate > 0.0 && rate <= 1.0, "sampling rate must be in (0, 1], got {rate}");
            seed
        }
        _ => 0,
    };
    let (tx, rx) = bounded::<Msg>(config.channel_capacity);
    let counters = Arc::new(OverloadCounters::new(sampler_seed));
    let sender = RecordSender { tx, policy: config.overload, counters: Arc::clone(&counters) };
    (sender, rx, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::KeyStrategy;
    use crate::supervisor::{
        spawn_supervised, LifecycleEvent, RestartPolicy, SupervisedHandle, SupervisorConfig,
    };
    use scd_forecast::ModelSpec;
    use scd_sketch::SketchConfig;

    fn spawn(config: StreamingConfig) -> SupervisedHandle {
        spawn_supervised(SupervisorConfig {
            stream: config,
            restart: RestartPolicy::default(),
            fault: None,
        })
    }

    /// Stops the detector; the reports and the processed-record count.
    /// Fails if the detector panicked: the supervisor would have
    /// restarted it, so the run emits more than its `Started` event.
    fn shutdown(handle: SupervisedHandle) -> (Vec<IntervalReport>, u64) {
        let (reports, events, processed) = handle.shutdown().expect("clean shutdown");
        assert_eq!(events, vec![LifecycleEvent::Started], "detector did not run cleanly");
        (reports, processed)
    }

    fn config() -> StreamingConfig {
        StreamingConfig {
            detector: DetectorConfig {
                sketch: SketchConfig { h: 3, k: 1024, seed: 3 },
                model: ModelSpec::Ewma { alpha: 0.5 },
                threshold: 0.3,
                key_strategy: KeyStrategy::TwoPass,
            },
            interval_ms: 1_000,
            key: KeySpec::DstIp,
            value: ValueSpec::Bytes,
            channel_capacity: 256,
            overload: OverloadPolicy::Block,
            checkpoint: None,
            metrics: None,
        }
    }

    fn record(ts: u64, dst: u32, bytes: u64) -> FlowRecord {
        FlowRecord {
            timestamp_ms: ts,
            src_ip: 1,
            dst_ip: dst,
            src_port: 1,
            dst_port: 80,
            protocol: 6,
            bytes,
            packets: 1,
        }
    }

    #[test]
    fn detects_spike_in_stream() {
        let handle = spawn(config());
        // Intervals 0..4: steady; interval 3 carries a spike on dst 99.
        for t in 0..5u64 {
            for i in 0..20 {
                handle.send(record(t * 1000 + i * 40, 7, 1_000));
                handle.send(record(t * 1000 + i * 40 + 1, 8, 500));
            }
            if t == 3 {
                for i in 0..10 {
                    handle.send(record(t * 1000 + 500 + i, 99, 50_000));
                }
            }
        }
        let (reports, processed) = shutdown(handle);
        assert_eq!(processed, 5 * 40 + 10);
        assert_eq!(reports.len(), 5, "one report per event-time interval");
        let spike_report = &reports[3];
        assert!(
            spike_report.alarms.iter().any(|a| a.key == 99),
            "spike not flagged: {:?}",
            spike_report.alarms
        );
        assert!(reports[2].alarms.iter().all(|a| a.key != 99), "no alarm before the spike");
    }

    #[test]
    fn empty_intervals_advance_the_model() {
        let handle = spawn(config());
        handle.send(record(100, 5, 1_000));
        handle.send(record(5_100, 5, 1_000)); // skips intervals 1..=4
        let (reports, _) = shutdown(handle);
        // Interval 0 + three empty (1,2,3,4) + final partial (5) = 6.
        assert_eq!(reports.len(), 6);
        // The disappearance registers as a negative error in interval 1.
        let r1 = &reports[1];
        if r1.warmed_up {
            assert!(r1.errors.is_empty(), "empty interval scans no keys (two-pass)");
        }
    }

    #[test]
    fn late_records_fold_into_current_interval() {
        let handle = spawn(config());
        handle.send(record(2_500, 1, 10));
        handle.send(record(1_900, 1, 10)); // late by 600ms: accepted
        let (reports, processed) = shutdown(handle);
        assert_eq!(processed, 2);
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn shutdown_with_no_records_is_clean() {
        let handle = spawn(config());
        let (reports, processed) = shutdown(handle);
        assert!(reports.is_empty());
        assert_eq!(processed, 0);
    }

    #[test]
    fn report_interval_indices_are_sequential() {
        let handle = spawn(config());
        for t in 0..4u64 {
            handle.send(record(t * 1000 + 10, 2, 100));
        }
        let (reports, _) = shutdown(handle);
        let idx: Vec<usize> = reports.iter().map(|r| r.interval).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn block_policy_reports_zero_drops() {
        let handle = spawn(config());
        for t in 0..3u64 {
            for i in 0..50 {
                handle.send(record(t * 1000 + i, 7, 100));
            }
        }
        let (reports, _) = shutdown(handle);
        assert!(reports.iter().all(|r| r.drops == DropStats::default()));
    }

    #[test]
    fn sample_policy_counts_and_reweights() {
        let mut cfg = config();
        cfg.overload = OverloadPolicy::Sample { rate: 0.5, seed: 42 };
        let handle = spawn(cfg);
        // One interval of 2000 identical records on one key, then a
        // boundary record to force the flush.
        for i in 0..2_000u64 {
            handle.send(record(i % 1000, 7, 100));
        }
        handle.send(record(1_500, 7, 100));
        let (reports, processed) = shutdown(handle);
        let admitted: u64 = reports.iter().map(|r| r.drops.sampled_in).sum();
        let shed: u64 = reports.iter().map(|r| r.drops.shed).sum();
        assert_eq!(admitted + shed, 2_001, "every record is either admitted or shed");
        assert!((700..=1_300).contains(&admitted), "rate 0.5 admitted {admitted} of 2001");
        // Only admitted records reached the detector.
        assert_eq!(processed, admitted);
        assert!(reports.iter().all(|r| r.drops.dropped == 0));
    }

    #[test]
    fn drop_newest_policy_never_blocks() {
        let mut cfg = config();
        cfg.channel_capacity = 4;
        cfg.overload = OverloadPolicy::DropNewest;
        let handle = spawn(cfg);
        // Flood far beyond capacity; with Block this could stall only if
        // the detector hung, with DropNewest it must always return.
        for i in 0..10_000u64 {
            assert!(handle.send(record(i % 500, 9, 10)));
        }
        handle.send(record(2_000, 9, 10)); // flush boundary
        let (reports, processed) = shutdown(handle);
        let total_dropped: u64 = reports.iter().map(|r| r.drops.dropped).sum();
        assert_eq!(processed + total_dropped, 10_001);
    }

    /// A few intervals of traffic over a handful of keys, with a late
    /// straggler and a skipped (empty) interval.
    fn mixed_stream() -> Vec<FlowRecord> {
        let mut records: Vec<FlowRecord> =
            (0..3_000u64).map(|i| record(i * 2, (i % 13) as u32, 100 + (i * 37) % 900)).collect();
        records.push(record(4_500, 3, 700)); // late: folds into interval 5
        records.extend((0..500u64).map(|i| record(8_000 + i, (i % 5) as u32, 50_000)));
        records
    }

    /// Streams `records` with per-record `send` (`batch == 1`) or in
    /// `send_batch` slices of `batch`, then shuts down.
    fn run_in_batches(
        cfg: StreamingConfig,
        records: &[FlowRecord],
        batch: usize,
    ) -> (Vec<IntervalReport>, u64) {
        let handle = spawn(cfg);
        for chunk in records.chunks(batch) {
            if batch == 1 {
                assert!(handle.send(chunk[0]));
            } else {
                assert!(handle.send_batch(chunk));
            }
        }
        shutdown(handle)
    }

    #[test]
    fn send_batch_matches_per_record_send_under_block() {
        let records = mixed_stream();
        let reference = run_in_batches(config(), &records, 1);
        assert!(reference.0.len() > 5);
        for batch in [7, 256, 5_000] {
            assert_eq!(run_in_batches(config(), &records, batch), reference, "batch {batch}");
        }
    }

    #[test]
    fn send_batch_matches_per_record_send_under_sample() {
        let mut cfg = config();
        cfg.overload = OverloadPolicy::Sample { rate: 0.3, seed: 9 };
        let records = mixed_stream();
        // Which report a shed count lands in depends on how far the
        // detector lags the sender (see `OverloadCounters`), even between
        // two per-record runs; the detection itself and the totals do not.
        let split = |(mut reports, processed): (Vec<IntervalReport>, u64)| {
            let totals = reports.iter_mut().fold((0, 0), |(i, s), r| {
                let d = std::mem::take(&mut r.drops);
                (i + d.sampled_in, s + d.shed)
            });
            (reports, processed, totals)
        };
        let reference = split(run_in_batches(cfg.clone(), &records, 1));
        assert!(reference.1 < records.len() as u64, "sampling shed nothing");
        assert_eq!(reference.2 .0 + reference.2 .1, records.len() as u64);
        for batch in [7, 1_000] {
            let got = split(run_in_batches(cfg.clone(), &records, batch));
            assert_eq!(got, reference, "batch {batch}");
        }
    }

    #[test]
    fn send_batch_under_drop_newest_accounts_for_every_record() {
        let mut cfg = config();
        cfg.channel_capacity = 8;
        cfg.overload = OverloadPolicy::DropNewest;
        let records = mixed_stream();
        let (reports, processed) = run_in_batches(cfg, &records, 300);
        let dropped: u64 = reports.iter().map(|r| r.drops.dropped).sum();
        assert_eq!(processed + dropped, records.len() as u64);
    }

    #[test]
    fn event_time_gap_with_full_queue_does_not_deadlock() {
        // 200 intervals close at once while the producer still has
        // records queued; nobody drains reports until shutdown.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut cfg = config();
            cfg.channel_capacity = 16;
            let records: Vec<FlowRecord> = [0u64, 200_000]
                .iter()
                .flat_map(|&base| (0..500u64).map(move |i| record(base + i, (i % 7) as u32, 100)))
                .collect();
            let handle = spawn(cfg);
            assert!(handle.send_batch(&records));
            let _ = done_tx.send(handle.shutdown());
        });
        let (reports, events, processed) = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("streaming deadlocked on the gap")
            .expect("clean shutdown");
        assert_eq!(events, vec![LifecycleEvent::Started], "detector did not run cleanly");
        assert_eq!(processed, 1_000);
        assert_eq!(reports.len(), 201, "interval 0, 199 empty ones, interval 200");
    }
}
