//! Supervised detection: panic recovery with checkpoint restarts.
//!
//! The detector is the component *least* allowed to disappear, because
//! it is the thing watching everything else. This module is the one
//! place that supervises it. It catches panics (`catch_unwind`), backs
//! off exponentially between restarts within a budget
//! ([`RestartPolicy`]), recovers from the on-disk [`Checkpoint`] — load,
//! check the config, restore, or degrade to a fresh start — writes
//! checkpoints at a fixed cadence, and narrates it all as
//! [`LifecycleEvent`]s and `scd_supervisor_*` counters.
//!
//! Two drivers run on it, and both consult the checkpoint at startup, so
//! a restarted *process* picks up where the last one left off.
//! [`spawn_supervised`] runs the streaming loop ([`crate::streaming`]) on
//! its own thread. Its record channel lives outside the supervised
//! region, so records queued at crash time reach the restarted detector;
//! what is lost is the record being binned, the partial interval and the
//! checkpoint gap, which the restarted detector re-emits — a rewind,
//! never a hole. [`SupervisedDetector`] runs a detector fed whole
//! interval sketches on the caller's thread (the distributed
//! aggregator); it still holds the interval that panicked, so it
//! restores its in-memory restore point and retries — no rewind at all.

use crate::channel::{bounded, unbounded, Receiver, Sender};
use crate::checkpoint::Checkpoint;
use crate::detector::{DetectorConfig, DetectorSnapshot, IntervalReport, SketchChangeDetector};
use crate::streaming::{
    make_front_end, panic_message, run_loop, BinnerState, CheckpointPolicy, LoopContext,
    RecordSender, StreamFault, StreamingConfig,
};
use crate::telemetry::PipelineMetrics;
use scd_hash::HashRows;
use scd_sketch::KarySketch;
use scd_traffic::FaultPlan;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the supervisor announces on its event channel.
///
/// Events are delivered best-effort (`try_send`): an undrained event
/// channel is allowed to lose events, never to stall detection.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent {
    /// The detector thread is up and consuming records.
    Started,
    /// A checkpoint was persisted after this many flushed intervals.
    CheckpointWritten {
        /// Total intervals flushed at write time.
        intervals: u64,
    },
    /// The detector panicked and was restarted.
    Restarted {
        /// Restart attempt number (1-based).
        attempt: u32,
        /// Interval count the restarted detector resumed from (0 when no
        /// checkpoint was available).
        resumed_intervals: u64,
        /// The panic message that triggered the restart.
        panic: String,
    },
    /// Something non-fatal went wrong (checkpoint unwritable or
    /// unloadable); the detector keeps running with reduced guarantees.
    Degraded {
        /// Human-readable description.
        reason: String,
    },
    /// The restart budget is exhausted; the detector is down for good.
    GaveUp {
        /// Panics absorbed before giving up.
        attempts: u32,
    },
}

/// Restart budget and backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartPolicy {
    /// Panics tolerated before [`LifecycleEvent::GaveUp`].
    pub max_restarts: u32,
    /// Backoff before restart attempt `n` is `base · 2^(n−1)`, capped.
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap_ms: u64,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy { max_restarts: 3, backoff_base_ms: 10, backoff_cap_ms: 1_000 }
    }
}

impl RestartPolicy {
    /// The sleep before restart attempt `attempt` (1-based):
    /// `base · 2^(attempt−1)`, with the exponent clamped at 20 (so the
    /// factor never overflows a shift even for absurd attempt counts) and
    /// the product capped at [`backoff_cap_ms`](RestartPolicy::backoff_cap_ms).
    /// Attempt 0 never happens in the restart loop; it maps to the same
    /// sleep as attempt 1. Public so operators can print the schedule a
    /// policy implies before deploying it.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u64 << attempt.saturating_sub(1).min(20);
        Duration::from_millis(self.backoff_base_ms.saturating_mul(factor).min(self.backoff_cap_ms))
    }

    /// [`backoff`](RestartPolicy::backoff) plus deterministic jitter, so a
    /// fleet of restarting components seeded differently does not
    /// thunder back in lockstep. The jitter is a seed-and-attempt-derived
    /// fraction in `[0, base/4)` added on top of the exponential sleep,
    /// and the sum still respects
    /// [`backoff_cap_ms`](RestartPolicy::backoff_cap_ms). Same `(attempt,
    /// seed)` always yields the same sleep — schedules stay printable and
    /// tests stay exact — while different seeds decorrelate.
    pub fn backoff_jittered(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.backoff(attempt).as_millis() as u64;
        let mixed = scd_hash::mix64(seed ^ u64::from(attempt) ^ 0x9E37_79B9_7F4A_7C15);
        // Multiply the top 32 bits of the hash (uniform in [0, 2³²)) by
        // the jitter span and take the high word: an exact scaled draw in
        // [0, base/4) without floats or modulo bias.
        let jitter = ((base / 4).saturating_mul(mixed >> 32)) >> 32;
        Duration::from_millis(base.saturating_add(jitter).min(self.backoff_cap_ms))
    }
}

/// Configuration of a supervised streaming detector.
#[derive(Clone)]
pub struct SupervisorConfig {
    /// The streaming front end (set [`StreamingConfig::checkpoint`] to
    /// make restarts resume instead of starting over).
    pub stream: StreamingConfig,
    /// Restart budget and backoff.
    pub restart: RestartPolicy,
    /// Test-only fault injection, consulted once per record inside the
    /// supervised region. `None` in production.
    pub fault: Option<FaultPlan>,
}

/// Handle to a supervised streaming detector.
pub struct SupervisedHandle {
    records: RecordSender,
    reports: Receiver<IntervalReport>,
    events: Receiver<LifecycleEvent>,
    thread: JoinHandle<u64>,
}

impl SupervisedHandle {
    /// Sends one record under the configured overload policy. Returns
    /// `false` once the supervisor has given up or shut down.
    pub fn send(&self, record: scd_traffic::FlowRecord) -> bool {
        self.records.send(record)
    }

    /// Sends records in order under the configured overload policy; see
    /// [`RecordSender::send_batch`].
    pub fn send_batch(&self, records: &[scd_traffic::FlowRecord]) -> bool {
        self.records.send_batch(records)
    }

    /// A cloneable sender for feeding records from multiple threads.
    pub fn sender(&self) -> RecordSender {
        self.records.clone()
    }

    /// The report stream (survives restarts).
    pub fn reports(&self) -> &Receiver<IntervalReport> {
        &self.reports
    }

    /// The lifecycle event stream.
    pub fn events(&self) -> &Receiver<LifecycleEvent> {
        &self.events
    }

    /// Stops the detector, then drains and returns remaining reports,
    /// all undrained lifecycle events, and the processed-record count.
    /// `Err` only if the *supervisor itself* panicked, which no detector
    /// panic can cause.
    pub fn shutdown(self) -> Result<(Vec<IntervalReport>, Vec<LifecycleEvent>, u64), StreamFault> {
        drop(self.records);
        let reports: Vec<IntervalReport> = self.reports.iter().collect();
        let events: Vec<LifecycleEvent> = self.events.iter().collect();
        match self.thread.join() {
            Ok(processed) => Ok((reports, events, processed)),
            Err(payload) => Err(StreamFault::Panicked(panic_message(payload.as_ref()))),
        }
    }
}

/// The supervision [`spawn_supervised`] and [`SupervisedDetector`]
/// share: restart budget and backoff, checkpoint recovery and cadence,
/// lifecycle events and their `scd_supervisor_*` counters.
pub(crate) struct Supervision {
    config: DetectorConfig,
    restart: RestartPolicy,
    checkpoint: Option<CheckpointPolicy>,
    metrics: Option<Arc<PipelineMetrics>>,
    events: Sender<LifecycleEvent>,
    /// Panics booked against the budget so far.
    attempts: u32,
    /// `intervals_processed` at the last checkpoint write (or restore).
    last_write: u64,
}

impl Supervision {
    fn new(
        config: DetectorConfig,
        restart: RestartPolicy,
        checkpoint: Option<CheckpointPolicy>,
        metrics: Option<Arc<PipelineMetrics>>,
        events: Sender<LifecycleEvent>,
    ) -> Self {
        Supervision { config, restart, checkpoint, metrics, events, attempts: 0, last_write: 0 }
    }

    /// Counts the event on its `scd_supervisor_*` counter and sends it.
    /// Best-effort: losing an event beats stalling the detector.
    fn announce(&self, event: LifecycleEvent) {
        if let Some(m) = &self.metrics {
            let counter = match &event {
                LifecycleEvent::Started => &m.supervisor.started_total,
                LifecycleEvent::CheckpointWritten { .. } => &m.supervisor.checkpoints_total,
                LifecycleEvent::Restarted { .. } => &m.supervisor.restarts_total,
                LifecycleEvent::Degraded { .. } => &m.supervisor.degraded_total,
                LifecycleEvent::GaveUp { .. } => &m.supervisor.gave_up_total,
            };
            counter.inc();
        }
        let _ = self.events.try_send(event);
    }

    /// Re-attaches the metric sink, which is not detector state and is
    /// never checkpointed, to a fresh or restored detector.
    fn attach(&self, mut detector: SketchChangeDetector) -> SketchChangeDetector {
        if let Some(m) = &self.metrics {
            detector.set_metrics(Arc::clone(&m.detector));
        }
        detector
    }

    /// The detector to start or restart from: restored from the last
    /// checkpoint when one is configured and usable (returned too, for
    /// the streaming binner's position), fresh otherwise. An unusable
    /// file — corrupt, or for a different config — raises `Degraded`.
    fn recover(&mut self) -> (SketchChangeDetector, Option<Checkpoint>) {
        let (detector, ck) = match self.load() {
            Ok(Some((detector, ck))) => (detector, Some(ck)),
            Ok(None) => (SketchChangeDetector::new(self.config.clone()), None),
            Err(reason) => {
                self.announce(LifecycleEvent::Degraded { reason });
                (SketchChangeDetector::new(self.config.clone()), None)
            }
        };
        self.last_write = ck.as_ref().map_or(0, |ck| ck.snapshot.intervals_processed);
        (self.attach(detector), ck)
    }

    /// `Ok(None)` — nothing to resume from; `Err` — a checkpoint exists
    /// but is unusable.
    fn load(&self) -> Result<Option<(SketchChangeDetector, Checkpoint)>, String> {
        let Some(p) = self.checkpoint.as_ref().filter(|p| p.path.exists()) else { return Ok(None) };
        let ck = Checkpoint::load(&p.path)
            .map_err(|e| format!("checkpoint unusable, restarting fresh: {e}"))?;
        if ck.config != self.config {
            return Err("checkpoint is for a different detector config, restarting fresh".into());
        }
        let detector = ck
            .restore_detector()
            .map_err(|e| format!("checkpoint restore failed, restarting fresh: {e}"))?;
        Ok(Some((detector, ck)))
    }

    /// Books one panic against the budget. `false` — after `GaveUp` —
    /// once the budget is spent; otherwise sleeps the jittered backoff.
    fn absorb(&mut self) -> bool {
        self.attempts += 1;
        if self.attempts > self.restart.max_restarts {
            self.announce(LifecycleEvent::GaveUp { attempts: self.attempts - 1 });
            return false;
        }
        let backoff = self.restart.backoff_jittered(self.attempts, self.config.sketch.seed);
        if let Some(m) = &self.metrics {
            m.supervisor.backoff_ms_total.add(backoff.as_millis() as u64);
        }
        std::thread::sleep(backoff);
        true
    }

    fn restarted(&self, detector: &SketchChangeDetector, panic: String) {
        self.announce(LifecycleEvent::Restarted {
            attempt: self.attempts,
            resumed_intervals: detector.intervals_processed() as u64,
            panic,
        });
    }

    /// Writes a checkpoint if the cadence says so. A failed write raises
    /// `Degraded` rather than killing the detector: losing durability is
    /// strictly better than losing detection.
    pub(crate) fn maybe_checkpoint(
        &mut self,
        detector: &SketchChangeDetector,
        next_interval: Option<u64>,
        processed: u64,
    ) {
        let Some(policy) = &self.checkpoint else { return };
        let done = detector.intervals_processed() as u64;
        if done < self.last_write + policy.every_intervals.max(1) {
            return;
        }
        let ck = Checkpoint {
            config: self.config.clone(),
            snapshot: detector.snapshot(),
            next_interval,
            processed,
            staggered: None,
            glr: None,
        };
        match ck.write_atomic(&policy.path) {
            Ok(()) => {
                self.last_write = done;
                self.announce(LifecycleEvent::CheckpointWritten { intervals: done });
            }
            Err(e) => self.announce(LifecycleEvent::Degraded {
                reason: format!("checkpoint write failed: {e}"),
            }),
        }
    }
}

/// Spawns a streaming detector under supervision.
///
/// # Panics
/// Panics if `interval_ms == 0`, `channel_capacity == 0`, or the sampling
/// rate is out of range, or on an invalid detector configuration.
pub fn spawn_supervised(config: SupervisorConfig) -> SupervisedHandle {
    let (sender, record_rx, counters) = make_front_end(&config.stream);
    let (report_tx, report_rx) = unbounded::<IntervalReport>();
    let (event_tx, event_rx) = bounded::<LifecycleEvent>(256);
    let mut sup = Supervision::new(
        config.stream.detector.clone(),
        config.restart,
        config.stream.checkpoint.clone(),
        config.stream.metrics.clone(),
        event_tx,
    );
    let ctx = LoopContext { config: config.stream, counters, fault: config.fault };

    let thread = std::thread::Builder::new()
        .name("scd-supervised-detector".into())
        .spawn(move || {
            // Recovery runs at startup too, so a restarted process
            // continues where the previous one left off instead of
            // starting over (and clobbering the old checkpoint). After a
            // panic the half-mutated detector and binner are discarded,
            // all but the inbox of records not yet binned; the stream
            // rewinds to the last checkpoint (or to the start).
            let (mut inbox, mut panic) = (VecDeque::new(), None);
            loop {
                let (mut detector, ck) = sup.recover();
                let mut binner =
                    ck.as_ref().map_or_else(BinnerState::default, BinnerState::from_checkpoint);
                binner.inbox = inbox;
                match panic.take() {
                    None => sup.announce(LifecycleEvent::Started),
                    Some(panic) => sup.restarted(&detector, panic),
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_loop(&mut detector, &mut binner, &ctx, &mut sup, &record_rx, &report_tx)
                }));
                let Err(payload) = outcome else { return binner.processed };
                if !sup.absorb() {
                    return binner.processed;
                }
                inbox = std::mem::take(&mut binner.inbox);
                panic = Some(panic_message(payload.as_ref()));
            }
        })
        .expect("spawn supervisor thread");

    SupervisedHandle { records: sender, reports: report_rx, events: event_rx, thread }
}

/// A detector fed whole interval sketches on the caller's thread — the
/// distributed aggregator's global detector — under the same supervision
/// as the streaming thread.
///
/// It keeps one restore point: the detector state after the last good
/// interval. A panic restores it and retries the interval, so a restart
/// is invisible in the reports. The checkpoint file serves only a
/// restarted *process*, which resumes from it at startup.
pub struct SupervisedDetector {
    detector: SketchChangeDetector,
    restore_point: DetectorSnapshot,
    sup: Supervision,
    events: Receiver<LifecycleEvent>,
    fault: Option<FaultPlan>,
}

impl SupervisedDetector {
    /// Starts the detector, resuming from `checkpoint` when its file is
    /// usable. `fault` is test-only injection, consulted once per
    /// interval with the interval's index.
    ///
    /// # Panics
    /// On an invalid detector configuration.
    pub fn start(
        config: DetectorConfig,
        restart: RestartPolicy,
        checkpoint: Option<CheckpointPolicy>,
        metrics: Option<Arc<PipelineMetrics>>,
        fault: Option<FaultPlan>,
    ) -> SupervisedDetector {
        let (event_tx, events) = unbounded();
        let mut sup = Supervision::new(config, restart, checkpoint, metrics, event_tx);
        let (detector, _) = sup.recover();
        sup.announce(LifecycleEvent::Started);
        let restore_point = detector.snapshot();
        SupervisedDetector { detector, restore_point, sup, events, fault }
    }

    /// Intervals emitted so far, counting those a resumed checkpoint
    /// covers: the index of the next interval.
    pub fn emitted(&self) -> u64 {
        self.detector.intervals_processed() as u64
    }

    /// Panics absorbed by restarts so far.
    pub fn restarts(&self) -> u32 {
        self.sup.attempts.min(self.sup.restart.max_restarts)
    }

    /// The hash family the observed sketches must be built over.
    pub fn rows(&self) -> &Arc<HashRows> {
        self.detector.rows()
    }

    /// Lifecycle events announced since the last call.
    pub fn take_events(&mut self) -> Vec<LifecycleEvent> {
        std::iter::from_fn(|| self.events.try_recv()).collect()
    }

    /// Runs one interval through the detector. A panic restores the
    /// restore point and retries, up to the restart budget; `None` once
    /// the budget is spent (after `GaveUp`).
    pub fn observe(&mut self, observed: &KarySketch, keys: &[u64]) -> Option<IntervalReport> {
        loop {
            let n = self.emitted();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(fault) = &self.fault {
                    fault.before_record(n);
                }
                self.detector.process_observed(observed, keys.to_vec())
            }));
            match outcome {
                Ok(report) => {
                    self.restore_point = self.detector.snapshot();
                    self.sup.maybe_checkpoint(&self.detector, Some(n + 1), n + 1);
                    return Some(report);
                }
                Err(payload) => {
                    if !self.sup.absorb() {
                        return None;
                    }
                    let restored = SketchChangeDetector::restore(
                        self.sup.config.clone(),
                        self.restore_point.clone(),
                    )
                    .expect("the restore point is a snapshot of this detector");
                    self.detector = self.sup.attach(restored);
                    self.sup.restarted(&self.detector, panic_message(payload.as_ref()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::KeyStrategy;
    use scd_forecast::{ModelSpec, ModelState};
    use scd_sketch::SketchConfig;

    #[test]
    fn supervised_detector_keeps_one_restore_point() {
        let config = DetectorConfig {
            sketch: SketchConfig { h: 3, k: 256, seed: 5 },
            model: ModelSpec::Ewma { alpha: 0.5 },
            threshold: 0.05,
            key_strategy: KeyStrategy::TwoPass,
        };
        let restart = RestartPolicy { max_restarts: 1, backoff_base_ms: 1, backoff_cap_ms: 1 };
        let fault = FaultPlan::panic_at(30, "at interval 30");
        let mut reference = SketchChangeDetector::new(config.clone());
        let mut supervised = SupervisedDetector::start(config, restart, None, None, Some(fault));
        for t in 0..31u64 {
            let items: Vec<(u64, f64)> =
                (0..50u64).map(|k| (k, (100 + (k * 7 + t * 13) % 90) as f64)).collect();
            let mut observed = KarySketch::with_rows(Arc::clone(supervised.rows()));
            for &(key, value) in &items {
                observed.update(key, value);
            }
            let keys: Vec<u64> = items.iter().map(|&(key, _)| key).collect();
            if t == 30 {
                // Thirty intervals in, the one restore point is the state
                // after the last of them: EWMA's single forecast sketch,
                // not thirty retained interval sketches.
                assert_eq!(supervised.restore_point.intervals_processed, 30);
                assert!(matches!(
                    supervised.restore_point.model,
                    ModelState::Ewma { forecast: Some(_) }
                ));
            }
            // Interval 30 panics once; the retry from the restore point
            // reports exactly what the reference does.
            let expect = reference.process_interval(&items);
            assert_eq!(supervised.observe(&observed, &keys), Some(expect), "interval {t}");
        }
        assert_eq!(supervised.restarts(), 1);
        assert_eq!(
            supervised.take_events(),
            vec![
                LifecycleEvent::Started,
                LifecycleEvent::Restarted {
                    attempt: 1,
                    resumed_intervals: 30,
                    panic: "injected fault: at interval 30".into(),
                },
            ]
        );
    }

    #[test]
    fn backoff_schedule_doubles_from_base() {
        let p = RestartPolicy { max_restarts: 3, backoff_base_ms: 10, backoff_cap_ms: 1_000 };
        // Attempt 0 cannot occur in the restart loop (attempts is
        // incremented before the first backoff), but the saturating_sub
        // maps it onto attempt 1's sleep rather than shifting by −1.
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
    }

    #[test]
    fn backoff_caps_at_configured_ceiling() {
        let p = RestartPolicy { max_restarts: 10, backoff_base_ms: 10, backoff_cap_ms: 1_000 };
        // 10 · 2⁶ = 640 < 1000 < 10 · 2⁷ = 1280: the cap lands between
        // attempts 7 and 8 and holds from there on.
        assert_eq!(p.backoff(7), Duration::from_millis(640));
        assert_eq!(p.backoff(8), Duration::from_millis(1_000));
        assert_eq!(p.backoff(100), Duration::from_millis(1_000));
    }

    #[test]
    fn backoff_shift_clamps_at_twenty_doublings() {
        // With the cap out of the way, the exponent itself clamps at 20:
        // attempts beyond 21 all sleep base · 2²⁰. Without the clamp,
        // attempt 65 would shift by 64 — undefined behavior on u64.
        let p =
            RestartPolicy { max_restarts: u32::MAX, backoff_base_ms: 1, backoff_cap_ms: u64::MAX };
        assert_eq!(p.backoff(21), Duration::from_millis(1 << 20));
        assert_eq!(p.backoff(22), Duration::from_millis(1 << 20));
        assert_eq!(p.backoff(u32::MAX), Duration::from_millis(1 << 20));
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let p = RestartPolicy { max_restarts: 10, backoff_base_ms: 40, backoff_cap_ms: 10_000 };
        for attempt in 0..=10u32 {
            for seed in [0u64, 1, 42, u64::MAX] {
                let base = p.backoff(attempt).as_millis() as u64;
                let jittered = p.backoff_jittered(attempt, seed).as_millis() as u64;
                // Same inputs, same sleep: a printed schedule is the real one.
                assert_eq!(p.backoff_jittered(attempt, seed), p.backoff_jittered(attempt, seed));
                // Jitter only ever adds, and adds less than a quarter of
                // the exponential base.
                assert!(jittered >= base, "attempt {attempt} seed {seed}: {jittered} < {base}");
                assert!(
                    jittered < base + base / 4 + 1,
                    "attempt {attempt} seed {seed}: {jittered} vs base {base}"
                );
            }
        }
    }

    #[test]
    fn jittered_backoff_respects_cap() {
        // The un-jittered schedule already sits on the cap from attempt 8;
        // jitter must not push the sleep past it.
        let p = RestartPolicy { max_restarts: 20, backoff_base_ms: 10, backoff_cap_ms: 1_000 };
        for attempt in 8..40u32 {
            for seed in [3u64, 0xDEAD_BEEF, u64::MAX / 3] {
                assert!(p.backoff_jittered(attempt, seed) <= Duration::from_millis(1_000));
            }
        }
    }

    #[test]
    fn jittered_backoff_decorrelates_across_seeds() {
        // Different seeds should not produce identical schedules: across
        // ten attempts, at least one sleep must differ between two seeds.
        let p = RestartPolicy { max_restarts: 10, backoff_base_ms: 100, backoff_cap_ms: 1 << 40 };
        let schedule = |seed: u64| -> Vec<Duration> {
            (1..=10).map(|a| p.backoff_jittered(a, seed)).collect()
        };
        assert_ne!(schedule(1), schedule(2));
        assert_ne!(schedule(2), schedule(3));
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // base near u64::MAX with an uncapped policy: the multiply
        // saturates, then the cap (also u64::MAX) passes it through.
        let p = RestartPolicy {
            max_restarts: 5,
            backoff_base_ms: u64::MAX / 2,
            backoff_cap_ms: u64::MAX,
        };
        assert_eq!(p.backoff(3), Duration::from_millis(u64::MAX));
    }
}
