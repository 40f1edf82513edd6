//! End-to-end tests of the distributed plane against the acceptance
//! criteria:
//!
//! * a healthy 3-node run — even under dropped, duplicated, corrupted
//!   and truncated frames — produces `IntervalReport`s **bit-identical**
//!   to a single-box run over the concatenated trace;
//! * losing one node degrades to parity recovery, still bit-identical;
//! * losing two (adjacent-coverage) nodes yields an explicitly flagged
//!   partial whose report is exactly the detection over the surviving
//!   shards — degraded, never silently wrong;
//! * detector panics at the aggregator are absorbed: restore the state
//!   after the last good interval and retry, with unchanged output;
//! * checkpoint faults — a corrupt file at startup, an unwritable path —
//!   degrade visibly and leave the reports unchanged.

use scd_core::supervisor::{LifecycleEvent, RestartPolicy, SupervisedDetector};
use scd_core::{CheckpointPolicy, DetectorConfig, KeyStrategy, SketchChangeDetector};
use scd_forecast::ModelSpec;
use scd_net::{AggregateSummary, Aggregator, AggregatorConfig, IngestNode, NodeConfig};
use scd_sketch::SketchConfig;
use scd_traffic::{shard_of_key, FaultPlan, NetFaultPlan};
use std::path::PathBuf;
use std::time::Duration;

const NODES: u32 = 3;
const INTERVALS: u64 = 8;

fn detector_config() -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h: 3, k: 512, seed: 7 },
        model: ModelSpec::Ewma { alpha: 0.5 },
        threshold: 0.05,
        key_strategy: KeyStrategy::TwoPass,
    }
}

/// Deterministic synthetic trace: integer byte counts (exact in f64),
/// a heavy-tailed-ish spread of keys, and one 30× spike at interval 4.
fn interval_updates(t: u64) -> Vec<(u64, f64)> {
    let mut updates = Vec::new();
    for key in 0..300u64 {
        let base = 100 + (key % 17) * 10;
        let mut value = base + (t % 3) * 5 + key / 50;
        if t == 4 && key == 7 {
            value *= 30;
        }
        updates.push((key, value as f64));
    }
    updates
}

/// The single-box reference: one detector over the whole trace.
fn reference_reports(filter: impl Fn(u64) -> bool) -> Vec<scd_core::IntervalReport> {
    let mut detector = SketchChangeDetector::new(detector_config());
    (0..INTERVALS)
        .map(|t| {
            let updates: Vec<(u64, f64)> =
                interval_updates(t).into_iter().filter(|&(k, _)| filter(k)).collect();
            detector.process_interval(&updates)
        })
        .collect()
}

fn spool_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scd-net-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs an aggregator plus the given subset of nodes to completion.
fn run_plane(
    tag: &str,
    node_ids: &[u32],
    fault_for: impl Fn(u32) -> Option<NetFaultPlan>,
    mut agg_config: AggregatorConfig,
) -> AggregateSummary {
    agg_config.run_timeout = Duration::from_secs(30);
    let aggregator = Aggregator::bind(agg_config, "127.0.0.1:0").expect("bind");
    let addr = aggregator.local_addr().expect("addr").to_string();
    let agg_thread = std::thread::spawn(move || aggregator.run().expect("aggregate"));
    let spool = spool_dir(tag);
    let mut node_threads = Vec::new();
    for &id in node_ids {
        let addr = addr.clone();
        let fault = fault_for(id);
        let spool = spool.clone();
        node_threads.push(std::thread::spawn(move || {
            let mut node = IngestNode::new(NodeConfig {
                node: id,
                nodes: NODES,
                sketch: detector_config().sketch,
                shards: 2,
                addr,
                spool_dir: spool,
                retry: RestartPolicy { max_restarts: 5, backoff_base_ms: 5, backoff_cap_ms: 100 },
                fault,
                metrics: None,
            })
            .expect("node up");
            for t in 0..INTERVALS {
                node.push_slice(&interval_updates(t)).expect("push");
                node.end_interval().expect("close interval");
            }
            node.finish(Duration::from_secs(15)).expect("finish")
        }));
    }
    for thread in node_threads {
        let summary = thread.join().expect("node thread");
        assert_eq!(summary.intervals_total, INTERVALS);
        assert!(summary.unacked.is_empty(), "spool must drain: {:?}", summary.unacked);
    }
    let summary = agg_thread.join().expect("aggregator thread");
    let _ = std::fs::remove_dir_all(&spool);
    summary
}

fn assert_no_gaps(summary: &AggregateSummary) {
    assert_eq!(summary.intervals.len() as u64, INTERVALS, "every interval must be emitted");
    for (i, emitted) in summary.intervals.iter().enumerate() {
        assert_eq!(emitted.interval, i as u64, "intervals must emit in order with no gaps");
    }
    assert!(!summary.timed_out, "run must finish before the timeout");
}

#[test]
fn healthy_three_nodes_match_single_box_bit_for_bit_despite_network_faults() {
    let summary = run_plane(
        "healthy",
        &[0, 1, 2],
        |id| match id {
            // Drop one frame, later corrupt one: exercises resend and the
            // aggregator's tear-down-and-reconnect path.
            0 => Some(NetFaultPlan::none().and_drop_at(2).and_corrupt_at(5, 0xC0DE)),
            // Duplicate a frame: exercises (node, interval) dedup.
            1 => Some(NetFaultPlan::none().and_duplicate_at(1)),
            // Truncate mid-frame and slam the connection shut.
            2 => Some(NetFaultPlan::none().and_truncate_at(3, 20)),
            _ => None,
        },
        AggregatorConfig {
            grace: Duration::from_secs(2),
            node_deadline: Duration::from_secs(10),
            ..AggregatorConfig::new(detector_config(), NODES)
        },
    );
    assert_no_gaps(&summary);
    let reference = reference_reports(|_| true);
    for (emitted, expect) in summary.intervals.iter().zip(&reference) {
        assert!(emitted.missing.is_empty(), "healthy run must have full coverage");
        assert!(emitted.recovered.is_empty(), "healthy run must not need parity");
        assert_eq!(emitted.report, *expect, "interval {} diverged", emitted.interval);
        assert_eq!(emitted.report.canonical_line(), expect.canonical_line());
    }
    // The spike the reference flags is flagged identically.
    assert!(summary.intervals[4].report.alarms.iter().any(|a| a.key == 7));
}

#[test]
fn one_lost_node_is_recovered_from_parity_bit_for_bit() {
    // Node 1 never comes up. Node 2 carries shard 1 as its buddy, so its
    // parity sketch and key list reconstruct node 1's data exactly.
    let summary = run_plane(
        "one-lost",
        &[0, 2],
        |_| None,
        AggregatorConfig {
            grace: Duration::from_millis(150),
            node_deadline: Duration::from_millis(300),
            ..AggregatorConfig::new(detector_config(), NODES)
        },
    );
    assert_no_gaps(&summary);
    let reference = reference_reports(|_| true);
    for (emitted, expect) in summary.intervals.iter().zip(&reference) {
        assert!(emitted.missing.is_empty(), "parity must cover a single loss");
        assert_eq!(emitted.recovered, vec![1], "node 1 must be rebuilt from parity");
        assert_eq!(
            emitted.report, *expect,
            "recovered interval {} must be bit-identical",
            emitted.interval
        );
    }
}

#[test]
fn two_lost_nodes_yield_flagged_partial_over_surviving_shards() {
    // Only node 0 survives. Its parity rebuilds its buddy (node 2), but
    // nobody carries node 1 — the plane must flag it, and the emitted
    // report must be exactly the detection over shards 0 and 2.
    let summary = run_plane(
        "two-lost",
        &[0],
        |_| None,
        AggregatorConfig {
            grace: Duration::from_millis(150),
            node_deadline: Duration::from_millis(300),
            ..AggregatorConfig::new(detector_config(), NODES)
        },
    );
    assert_no_gaps(&summary);
    let surviving = reference_reports(|key| shard_of_key(key, NODES as usize) != 1);
    let full = reference_reports(|_| true);
    for ((emitted, partial_expect), full_expect) in
        summary.intervals.iter().zip(&surviving).zip(&full)
    {
        assert_eq!(emitted.missing, vec![1], "the uncoverable node must be flagged");
        assert_eq!(emitted.recovered, vec![2], "node 0's parity must rebuild node 2");
        assert_eq!(
            emitted.report, *partial_expect,
            "partial interval {} must equal detection over surviving shards",
            emitted.interval
        );
        // During warm-up every report is empty, so only warmed-up
        // intervals can demonstrate the partial/full distinction.
        if emitted.report.warmed_up {
            assert_ne!(
                emitted.report, *full_expect,
                "a partial must not masquerade as the full report"
            );
        }
    }
}

/// A restarted node whose spool already drained against a previous
/// aggregator incarnation reconnects with a bare `Hello` + `Bye`. The
/// declared interval range must NOT open the grace window on its own:
/// while zero frames for an interval have arrived and the nodes that
/// owe them are still inside their liveness deadlines, the aggregator
/// has to keep waiting instead of emitting empty flagged partials.
///
/// The aggregator runs on a manual clock, so the outcome does not depend
/// on how the scheduler spaces the frames: time jumps many grace windows
/// while only the declaration is in, then holds still while the real
/// plane ships every frame.
#[test]
fn declared_but_undelivered_intervals_wait_for_the_first_frame() {
    use scd_net::{Clock, Frame, VERSION};
    use std::io::Write;

    let clock = Clock::manual();
    let config = AggregatorConfig {
        grace: Duration::from_millis(20),
        node_deadline: Duration::from_secs(10),
        run_timeout: Duration::from_secs(30),
        clock: clock.clone(),
        ..AggregatorConfig::new(detector_config(), NODES)
    };
    let (grace, run_timeout) = (config.grace, config.run_timeout);
    let aggregator = Aggregator::bind(config, "127.0.0.1:0").expect("bind");
    let addr = aggregator.local_addr().expect("addr").to_string();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let agg_thread = std::thread::spawn(move || {
        let _ = done_tx.send(aggregator.run().expect("aggregate"));
    });

    // The straggler: node 0 from a previous run, nothing left to ship.
    let sketch = detector_config().sketch;
    let mut stale = std::net::TcpStream::connect(&addr).expect("stale connect");
    let hello = Frame::Hello {
        node: 0,
        nodes: NODES,
        h: sketch.h as u64,
        k: sketch.k as u64,
        seed: sketch.seed,
        version: VERSION,
    };
    stale.write_all(&hello.encode()).expect("stale hello");
    stale.write_all(&Frame::Bye { node: 0, intervals_total: INTERVALS }.encode()).expect("bye");
    stale.flush().expect("flush");

    // Let the aggregator loop take in the declaration, then move time
    // many grace windows on (still far inside every node deadline) with
    // zero interval frames delivered, and let the loop see that too.
    std::thread::sleep(Duration::from_millis(100));
    clock.advance(15 * grace);
    std::thread::sleep(Duration::from_millis(100));

    // Now the real plane ships everything while the clock holds still.
    let spool = spool_dir("stale-bye");
    let mut node_threads = Vec::new();
    for id in 0..NODES {
        let addr = addr.clone();
        let spool = spool.clone();
        node_threads.push(std::thread::spawn(move || {
            let mut node = IngestNode::new(NodeConfig {
                node: id,
                nodes: NODES,
                sketch: detector_config().sketch,
                shards: 2,
                addr,
                spool_dir: spool,
                retry: RestartPolicy { max_restarts: 5, backoff_base_ms: 5, backoff_cap_ms: 100 },
                fault: None,
                metrics: None,
            })
            .expect("node up");
            for t in 0..INTERVALS {
                node.push_slice(&interval_updates(t)).expect("push");
                node.end_interval().expect("close interval");
            }
            node.finish(Duration::from_secs(15)).expect("finish")
        }));
    }
    for thread in node_threads {
        let summary = thread.join().expect("node thread");
        assert!(summary.unacked.is_empty(), "spool must drain: {:?}", summary.unacked);
    }
    drop(stale);
    // Held time never reaches the run timeout. Should the plane wedge,
    // release it so the test fails on the assertions below, not by hanging.
    let summary = done_rx.recv_timeout(Duration::from_secs(60)).unwrap_or_else(|_| {
        clock.advance(run_timeout);
        done_rx.recv().expect("aggregator result")
    });
    agg_thread.join().expect("aggregator thread");
    let _ = std::fs::remove_dir_all(&spool);

    assert_no_gaps(&summary);
    let reference = reference_reports(|_| true);
    for (emitted, expect) in summary.intervals.iter().zip(&reference) {
        assert!(
            emitted.missing.is_empty() && emitted.recovered.is_empty(),
            "interval {} must be a full merge, not a degraded emission",
            emitted.interval
        );
        assert_eq!(
            emitted.report, *expect,
            "interval {} must stay bit-identical to the single box",
            emitted.interval
        );
    }
}

#[test]
fn detector_panics_restart_from_checkpoint_with_unchanged_reports() {
    let ck_path = std::env::temp_dir().join(format!("scd-net-test-ckpt-{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&ck_path);
    let summary = run_plane(
        "panics",
        &[0, 1, 2],
        |_| None,
        AggregatorConfig {
            grace: Duration::from_secs(2),
            node_deadline: Duration::from_secs(10),
            checkpoint: Some(CheckpointPolicy { path: ck_path.clone(), every_intervals: 2 }),
            restart: RestartPolicy { max_restarts: 3, backoff_base_ms: 1, backoff_cap_ms: 5 },
            fault: Some(FaultPlan::panic_at(3, "injected detector panic")),
            ..AggregatorConfig::new(detector_config(), NODES)
        },
    );
    assert_no_gaps(&summary);
    assert_eq!(summary.detector_restarts, 1, "exactly the injected panic is absorbed");
    let reference = reference_reports(|_| true);
    for (emitted, expect) in summary.intervals.iter().zip(&reference) {
        assert_eq!(
            emitted.report, *expect,
            "restart must resume mid-stream with unchanged output at interval {}",
            emitted.interval
        );
    }
    assert!(ck_path.exists(), "checkpoints must have been written");
    let _ = std::fs::remove_file(&ck_path);
}

#[test]
fn supervised_detector_resumes_from_checkpoint_at_startup() {
    let ck_path =
        std::env::temp_dir().join(format!("scd-net-test-resume-{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&ck_path);
    let config = detector_config();
    let every = CheckpointPolicy { path: ck_path.clone(), every_intervals: 2 };
    let mut reference = SketchChangeDetector::new(config.clone());
    let mut first = SupervisedDetector::start(
        config.clone(),
        RestartPolicy::default(),
        Some(every.clone()),
        None,
        None,
    );
    let sketch_of = |updates: &[(u64, f64)], rows: &std::sync::Arc<scd_hash::HashRows>| {
        let mut s = scd_sketch::KarySketch::with_rows(std::sync::Arc::clone(rows));
        let mut keys = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &(k, v) in updates {
            s.update(k, v);
            if seen.insert(k) {
                keys.push(k);
            }
        }
        (s, keys)
    };
    // Four intervals through the first incarnation (checkpoint lands at 4).
    for t in 0..4u64 {
        let updates = interval_updates(t);
        let (s, keys) = sketch_of(&updates, first.rows());
        let got = first.observe(&s, &keys).expect("observe");
        let expect = reference.process_interval(&updates);
        assert_eq!(got, expect);
    }
    drop(first);
    // A restarted process resumes at interval 4 and stays bit-identical.
    let mut second =
        SupervisedDetector::start(config, RestartPolicy::default(), Some(every), None, None);
    assert_eq!(second.emitted(), 4, "startup must consult the checkpoint");
    for t in 4..INTERVALS {
        let updates = interval_updates(t);
        let (s, keys) = sketch_of(&updates, second.rows());
        let got = second.observe(&s, &keys).expect("observe");
        let expect = reference.process_interval(&updates);
        assert_eq!(got, expect, "resumed detector diverged at interval {t}");
    }
    let _ = std::fs::remove_file(&ck_path);
}

/// Asserts every emitted report equals the single-box reference.
fn assert_matches_single_box(summary: &AggregateSummary) {
    assert_no_gaps(summary);
    let reference = reference_reports(|_| true);
    for (emitted, expect) in summary.intervals.iter().zip(&reference) {
        assert_eq!(emitted.report, *expect, "interval {} diverged", emitted.interval);
    }
}

fn healthy_config() -> AggregatorConfig {
    AggregatorConfig {
        grace: Duration::from_secs(2),
        node_deadline: Duration::from_secs(10),
        ..AggregatorConfig::new(detector_config(), NODES)
    }
}

#[test]
fn corrupt_checkpoint_at_startup_degrades_to_a_fresh_start() {
    let ck_path =
        std::env::temp_dir().join(format!("scd-net-test-corrupt-{}.ck", std::process::id()));
    std::fs::write(&ck_path, b"SCDCKPT1 but not a checkpoint").expect("plant corrupt file");
    let summary = run_plane(
        "corrupt-ck",
        &[0, 1, 2],
        |_| None,
        AggregatorConfig {
            checkpoint: Some(CheckpointPolicy { path: ck_path.clone(), every_intervals: 100 }),
            ..healthy_config()
        },
    );
    assert_eq!(summary.resumed_from, 0, "a corrupt checkpoint must not be trusted");
    assert!(
        matches!(summary.events.first(), Some(LifecycleEvent::Degraded { .. })),
        "the corrupt file must surface as Degraded before the start: {:?}",
        summary.events
    );
    assert!(summary.events.contains(&LifecycleEvent::Started));
    assert_matches_single_box(&summary);
    let _ = std::fs::remove_file(&ck_path);
}

#[test]
fn unwritable_checkpoint_path_degrades_and_completes() {
    let ck_path = std::env::temp_dir()
        .join(format!("scd-net-test-missing-dir-{}", std::process::id()))
        .join("agg.ck");
    let summary = run_plane(
        "unwritable-ck",
        &[0, 1, 2],
        |_| None,
        AggregatorConfig {
            checkpoint: Some(CheckpointPolicy { path: ck_path.clone(), every_intervals: 2 }),
            ..healthy_config()
        },
    );
    // A failed write is retried at the next interval, so every interval
    // from the first due write on raises its own Degraded.
    let (first, rest) = summary.events.split_first().expect("events");
    assert_eq!(*first, LifecycleEvent::Started);
    assert_eq!(rest.len() as u64, INTERVALS - 1, "{:?}", summary.events);
    assert!(
        rest.iter().all(|e| matches!(
            e,
            LifecycleEvent::Degraded { reason } if reason.contains("checkpoint write failed")
        )),
        "every due write must degrade: {:?}",
        summary.events
    );
    assert!(!ck_path.exists());
    assert_matches_single_box(&summary);
}

#[test]
fn panic_without_checkpoint_retries_from_the_restore_point() {
    let summary = run_plane(
        "panic-no-ck",
        &[0, 1, 2],
        |_| None,
        AggregatorConfig {
            restart: RestartPolicy { max_restarts: 3, backoff_base_ms: 1, backoff_cap_ms: 5 },
            fault: Some(FaultPlan::panic_at(5, "injected detector panic")),
            ..healthy_config()
        },
    );
    assert_eq!(summary.detector_restarts, 1);
    assert!(
        summary.events.iter().any(|e| matches!(
            e,
            LifecycleEvent::Restarted { attempt: 1, resumed_intervals: 5, .. }
        )),
        "the restart must resume at the failed interval: {:?}",
        summary.events
    );
    assert_matches_single_box(&summary);
}
