//! Supervised streaming: panic recovery with checkpoint restarts.
//!
//! On a bare thread a detector panic would surface only at shutdown, and
//! everything the detector knew would die with it. A monitoring
//! deployment wants the opposite: the detector is the component *least*
//! allowed to disappear, precisely because it is the thing watching
//! everything else.
//!
//! [`spawn_supervised`] runs the streaming detector loop
//! ([`crate::streaming`]) in a supervisor that:
//!
//! 1. catches panics (`catch_unwind`) instead of unwinding the thread,
//! 2. restarts the detector from its last on-disk
//!    [`Checkpoint`] (or fresh, if none),
//! 3. backs off exponentially between attempts and gives up after a
//!    configurable budget, and
//! 4. narrates everything on a dedicated [`LifecycleEvent`] channel, so
//!    operators observe restarts instead of discovering them.
//!
//! Recovery is consulted at **startup** too, not only after a panic: if a
//! checkpoint file already exists when [`spawn_supervised`] runs, the
//! detector resumes from it — so a crashed or cleanly stopped *process*
//! restarted with the same config picks up where it left off instead of
//! starting over from interval 0.
//!
//! The record channel lives *outside* the supervised region: producers
//! keep their sender across restarts, and records queued at crash time —
//! in the channel or in the batch the crashed run had taken from it —
//! are delivered to the restarted detector. What is lost is the record
//! being binned when the panic struck, the checkpoint gap — intervals
//! flushed after the last checkpoint — and the partially accumulated
//! interval; the restarted detector resumes at the checkpointed position
//! and re-emits from there, so the report stream has no holes, only a
//! rewind.

use crate::channel::{bounded, unbounded, Receiver, Sender};
use crate::checkpoint::Checkpoint;
use crate::detector::{IntervalReport, SketchChangeDetector};
use crate::streaming::{
    make_front_end, panic_message, run_loop, BinnerState, LoopContext, RecordSender, StreamFault,
    StreamingConfig,
};
use scd_traffic::FaultPlan;
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

fn emit(events: &Sender<LifecycleEvent>, event: LifecycleEvent) {
    // Best-effort: losing an event beats stalling the detector.
    let _ = events.try_send(event);
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
    let restart = config.restart;
    let ctx = LoopContext {
        config: config.stream,
        counters,
        events: event_tx.clone(),
        fault: config.fault,
    };

    let thread = std::thread::Builder::new()
        .name("scd-supervised-detector".into())
        .spawn(move || {
            // Process-level resume: consult the configured checkpoint
            // *before* the first record, so a restarted process continues
            // where the previous one left off instead of starting over
            // (and clobbering the old checkpoint at its first write). An
            // unusable checkpoint degrades to a fresh start, same as on a
            // mid-run restart.
            let (mut detector, mut binner) = match recover(&ctx) {
                Ok(Some(resumed)) => resumed,
                Ok(None) => fresh_state(&ctx),
                Err(reason) => {
                    if let Some(m) = &ctx.config.metrics {
                        m.supervisor.degraded_total.inc();
                    }
                    emit(&event_tx, LifecycleEvent::Degraded { reason });
                    fresh_state(&ctx)
                }
            };
            if let Some(m) = &ctx.config.metrics {
                m.supervisor.started_total.inc();
            }
            emit(&event_tx, LifecycleEvent::Started);
            let mut attempts = 0u32;
            loop {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_loop(&mut detector, &mut binner, &ctx, &record_rx, &report_tx)
                }));
                match outcome {
                    Ok(_) => break, // input closed or reports dropped: done
                    Err(payload) => {
                        attempts += 1;
                        if attempts > restart.max_restarts {
                            if let Some(m) = &ctx.config.metrics {
                                m.supervisor.gave_up_total.inc();
                            }
                            emit(&event_tx, LifecycleEvent::GaveUp { attempts: attempts - 1 });
                            break;
                        }
                        let backoff =
                            restart.backoff_jittered(attempts, ctx.config.detector.sketch.seed);
                        if let Some(m) = &ctx.config.metrics {
                            m.supervisor.backoff_ms_total.add(backoff.as_millis() as u64);
                        }
                        std::thread::sleep(backoff);
                        let panic = panic_message(payload.as_ref());
                        // Rebuild state: from the last checkpoint when one
                        // is readable, from scratch otherwise. The
                        // half-mutated detector/binner from the panicked
                        // run are discarded either way, all but the
                        // inbox of records not yet binned.
                        let inbox = std::mem::take(&mut binner.inbox);
                        match recover(&ctx) {
                            Ok(Some((d, b))) => {
                                detector = d;
                                binner = b;
                            }
                            Ok(None) => {
                                (detector, binner) = fresh_state(&ctx);
                            }
                            Err(reason) => {
                                if let Some(m) = &ctx.config.metrics {
                                    m.supervisor.degraded_total.inc();
                                }
                                emit(&event_tx, LifecycleEvent::Degraded { reason });
                                (detector, binner) = fresh_state(&ctx);
                            }
                        }
                        binner.inbox = inbox;
                        if let Some(m) = &ctx.config.metrics {
                            m.supervisor.restarts_total.inc();
                        }
                        emit(
                            &event_tx,
                            LifecycleEvent::Restarted {
                                attempt: attempts,
                                resumed_intervals: detector.intervals_processed() as u64,
                                panic,
                            },
                        );
                    }
                }
            }
            binner.processed
        })
        .expect("spawn supervisor thread");

    SupervisedHandle { records: sender, reports: report_rx, events: event_rx, thread }
}

fn fresh_state(ctx: &LoopContext) -> (SketchChangeDetector, BinnerState) {
    let mut detector = SketchChangeDetector::new(ctx.config.detector.clone());
    // The metric sink is not detector state and is never checkpointed, so
    // every rebuild — fresh or restored — re-attaches the same sink.
    if let Some(m) = &ctx.config.metrics {
        detector.set_metrics(Arc::clone(&m.detector));
    }
    (detector, BinnerState::fresh())
}

/// Loads the last checkpoint, if checkpointing is configured and a file
/// exists. `Ok(None)` — nothing to resume from; `Err` — a checkpoint
/// exists but is unusable (corrupt, or for a different config).
fn recover(ctx: &LoopContext) -> Result<Option<(SketchChangeDetector, BinnerState)>, String> {
    let Some(policy) = &ctx.config.checkpoint else {
        return Ok(None);
    };
    if !policy.path.exists() {
        return Ok(None);
    }
    let ck = Checkpoint::load(&policy.path)
        .map_err(|e| format!("checkpoint unusable, restarting fresh: {e}"))?;
    if ck.config != ctx.config.detector {
        return Err("checkpoint is for a different detector config, restarting fresh".into());
    }
    let mut detector = ck
        .restore_detector()
        .map_err(|e| format!("checkpoint restore failed, restarting fresh: {e}"))?;
    if let Some(m) = &ctx.config.metrics {
        detector.set_metrics(Arc::clone(&m.detector));
    }
    let binner = BinnerState::from_checkpoint(&ck);
    Ok(Some((detector, binner)))
}

#[cfg(test)]
mod tests {
    use super::*;

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
