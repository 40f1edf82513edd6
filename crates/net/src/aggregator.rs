//! The aggregation point: COMBINE every node's interval sketch, run the
//! one global detector, degrade explicitly when nodes are lost.
//!
//! Sketch linearity (paper §2, `DESIGN.md` §Aggregation) is what makes
//! this exact: per-interval sketches over disjoint key shards sum — cell
//! by cell — to the sketch of the whole stream, and integer byte-count
//! cells make those sums exact in `f64`. So the aggregator's report for
//! an interval is **bit-identical** to a single-box run over the
//! concatenated trace whenever it has (or can reconstruct) every shard.
//!
//! The degradation ladder, per interval:
//!
//! 1. **Wait** — until every node's frame is in, or the grace window
//!    (opened by the interval's *first arriving frame*, never by a mere
//!    `Bye` declaration) closes, or every still-missing node is known
//!    dead/done.
//! 2. **Merge with redundancy** — any missing node whose ring successor
//!    delivered is reconstructed exactly from the successor's parity
//!    sketch (`D_m = P_{m+1} − D_{m+1}`) and parity key list; the interval
//!    is then emitted as *recovered*, bit-identical to the full merge.
//! 3. **Partial, explicitly flagged** — if reconstruction cannot cover
//!    every loss (two adjacent nodes down), the interval is emitted from
//!    what is present, with the missing node set recorded on the
//!    emission. Never silently wrong: a consumer can always distinguish
//!    a full-coverage report from a partial one.
//!
//! Duplicates (resent spool frames) are dropped by `(node, interval)`;
//! every received interval frame is acknowledged, including duplicates
//! and stale arrivals, so node spools always drain.

use crate::clock::Clock;
use crate::frame::{Frame, FrameError, VERSION};
use crate::metrics::NetMetrics;
use crate::NetError;
use scd_core::channel::{bounded, Receiver, Sender};
use scd_core::detector::{DetectorConfig, IntervalReport};
use scd_core::supervisor::{LifecycleEvent, RestartPolicy, SupervisedDetector};
use scd_core::CheckpointPolicy;
use scd_hash::HashRows;
use scd_sketch::{wire, KarySketch};
use scd_traffic::FaultPlan;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the aggregation point.
#[derive(Debug, Clone)]
pub struct AggregatorConfig {
    /// The one global detector all nodes feed.
    pub detector: DetectorConfig,
    /// Ring size — how many nodes must report each interval.
    pub nodes: u32,
    /// How long to hold an incomplete interval for stragglers before
    /// walking the degradation ladder.
    pub grace: Duration,
    /// Silence longer than this marks a node down (a node that never
    /// connected is measured from aggregator start).
    pub node_deadline: Duration,
    /// Main-loop poll cadence.
    pub tick: Duration,
    /// Hard bound on the whole run; on expiry everything buffered is
    /// flushed through the ladder and the summary is marked timed out.
    pub run_timeout: Duration,
    /// Time source for `grace`, `node_deadline` and `run_timeout` (the
    /// `tick` poll cadence always sleeps in real time).
    pub clock: Clock,
    /// Optional detector checkpointing: a restarted aggregator process
    /// resumes from the file.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Restart budget for absorbed detector panics.
    pub restart: RestartPolicy,
    /// Test-only detector fault injection (panic/stall per interval).
    pub fault: Option<FaultPlan>,
    /// Optional metric sink; the detector and its supervisor report
    /// through [`NetMetrics::pipeline`].
    pub metrics: Option<Arc<NetMetrics>>,
}

impl AggregatorConfig {
    /// A config with production-shaped defaults for everything but the
    /// detector and ring size.
    pub fn new(detector: DetectorConfig, nodes: u32) -> AggregatorConfig {
        AggregatorConfig {
            detector,
            nodes,
            grace: Duration::from_millis(500),
            node_deadline: Duration::from_secs(2),
            tick: Duration::from_millis(5),
            run_timeout: Duration::from_secs(60),
            clock: Clock::real(),
            checkpoint: None,
            restart: RestartPolicy::default(),
            fault: None,
            metrics: None,
        }
    }
}

/// One emitted interval: the global report plus its coverage provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct EmittedInterval {
    /// Global interval index.
    pub interval: u64,
    /// The detector's report over the combined sketch.
    pub report: IntervalReport,
    /// Nodes whose shard is absent from this report (empty ⇒ full
    /// coverage; the report is bit-identical to a single-box run).
    pub missing: Vec<u32>,
    /// Nodes reconstructed exactly from ring parity (recovery preserves
    /// bit-identity; these are *not* missing).
    pub recovered: Vec<u32>,
}

/// What a whole aggregation run produced.
#[derive(Debug)]
pub struct AggregateSummary {
    /// Emitted intervals in order.
    pub intervals: Vec<EmittedInterval>,
    /// Whether [`AggregatorConfig::run_timeout`] expired.
    pub timed_out: bool,
    /// Detector panics absorbed by the supervisor.
    pub detector_restarts: u32,
    /// Interval index the detector resumed from (0 unless a usable
    /// checkpoint existed at startup).
    pub resumed_from: u64,
    /// The detector supervisor's lifecycle events, in order.
    pub events: Vec<LifecycleEvent>,
}

/// One node's contribution to one interval.
struct NodeSlot {
    data: KarySketch,
    data_keys: Vec<u64>,
    parity: KarySketch,
    parity_keys: Vec<u64>,
}

/// What reader threads feed the main loop.
enum Event {
    Interval { node: u32, interval: u64, slot: NodeSlot },
    Bye { node: u32, total: u64 },
    Seen { node: u32 },
}

/// The bound aggregation point. [`run`](Aggregator::run) consumes it.
pub struct Aggregator {
    config: AggregatorConfig,
    listener: TcpListener,
}

impl Aggregator {
    /// Binds the listening socket (use port 0 for an ephemeral port).
    ///
    /// # Errors
    /// Socket errors, or a zero-node ring.
    pub fn bind(config: AggregatorConfig, addr: &str) -> Result<Aggregator, NetError> {
        if config.nodes == 0 {
            return Err(NetError::Config("aggregator needs at least one node".into()));
        }
        let listener = TcpListener::bind(addr)?;
        Ok(Aggregator { config, listener })
    }

    /// The bound address — hand this to the nodes.
    ///
    /// # Errors
    /// Socket introspection errors.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs the plane to completion: accepts node connections, assembles
    /// intervals through the degradation ladder, and feeds the supervised
    /// global detector.
    ///
    /// # Errors
    /// Socket setup failures or the detector's restart budget running
    /// out. Node loss is *not* an error — it produces recovered or
    /// flagged-partial intervals.
    pub fn run(self) -> Result<AggregateSummary, NetError> {
        let mut detector = SupervisedDetector::start(
            self.config.detector.clone(),
            self.config.restart,
            self.config.checkpoint.clone(),
            self.config.metrics.as_ref().map(|m| Arc::clone(&m.pipeline)),
            self.config.fault.clone(),
        );
        let resumed_from = detector.emitted();
        let rows = Arc::clone(detector.rows());
        let (tx, rx) = bounded::<Event>(1024);
        let stop = Arc::new(AtomicBool::new(false));
        let accept = spawn_accept(
            self.listener,
            tx,
            Arc::clone(&rows),
            Expect {
                nodes: self.config.nodes,
                h: self.config.detector.sketch.h as u64,
                k: self.config.detector.sketch.k as u64,
                seed: self.config.detector.sketch.seed,
            },
            Arc::clone(&stop),
            self.config.metrics.clone(),
        );

        let outcome = aggregate_loop(&self.config, &mut detector, &rx, resumed_from);
        stop.store(true, Ordering::Release);
        drop(rx); // unblocks reader threads stuck on a full event queue
        let _ = accept.join();
        let (intervals, timed_out) = outcome?;
        Ok(AggregateSummary {
            intervals,
            timed_out,
            detector_restarts: detector.restarts(),
            resumed_from,
            events: detector.take_events(),
        })
    }
}

/// Per-node liveness and stream-end bookkeeping.
struct NodeState {
    last_seen: Option<Duration>,
    bye: Option<u64>,
}

fn aggregate_loop(
    config: &AggregatorConfig,
    detector: &mut SupervisedDetector,
    rx: &Receiver<Event>,
    resumed_from: u64,
) -> Result<(Vec<EmittedInterval>, bool), NetError> {
    let n = config.nodes as usize;
    let rows = Arc::clone(detector.rows());
    let clock = &config.clock;
    let start = clock.now();
    let mut slots: BTreeMap<u64, Vec<Option<NodeSlot>>> = BTreeMap::new();
    let mut nodes: Vec<NodeState> =
        (0..n).map(|_| NodeState { last_seen: None, bye: None }).collect();
    let mut next_emit = resumed_from;
    let mut waiting: Option<(u64, Duration)> = None;
    let mut emitted: Vec<EmittedInterval> = Vec::new();
    let mut timed_out = false;

    loop {
        let now = clock.now();
        // Drain everything the reader threads produced since last tick.
        while let Some(event) = rx.try_recv() {
            match event {
                Event::Seen { node } => {
                    if let Some(state) = nodes.get_mut(node as usize) {
                        state.last_seen = Some(now);
                    }
                }
                Event::Bye { node, total } => {
                    if let Some(state) = nodes.get_mut(node as usize) {
                        state.last_seen = Some(now);
                        let prev = state.bye.unwrap_or(0);
                        state.bye = Some(prev.max(total));
                    }
                }
                Event::Interval { node, interval, slot } => {
                    if let Some(state) = nodes.get_mut(node as usize) {
                        state.last_seen = Some(now);
                    } else {
                        continue; // out-of-range node id: frame ignored
                    }
                    if interval < next_emit {
                        // Stale resend of an already-emitted interval —
                        // it was acked at receipt; nothing to merge.
                        bump(config, |m| m.aggregator.duplicates_total.inc());
                        continue;
                    }
                    let row = slots.entry(interval).or_insert_with(|| none_row(n));
                    if row[node as usize].is_some() {
                        bump(config, |m| m.aggregator.duplicates_total.inc());
                    } else {
                        row[node as usize] = Some(slot);
                        bump(config, |m| m.aggregator.frames_total.inc());
                    }
                }
            }
        }

        let down: Vec<bool> = nodes
            .iter()
            .map(|s| match s.last_seen {
                Some(seen) => now.saturating_sub(seen) > config.node_deadline,
                None => now.saturating_sub(start) > config.node_deadline,
            })
            .collect();
        bump(config, |m| {
            m.aggregator.nodes_down.set(down.iter().filter(|&&d| d).count() as f64);
            m.aggregator.max_lag.set(slots.len() as f64);
        });
        let max_bye = nodes.iter().filter_map(|s| s.bye).max();

        // Emit as far as the ladder allows.
        loop {
            let t = next_emit;
            let in_declared_range = max_bye.is_some_and(|b| t < b);
            if !slots.contains_key(&t) && !in_declared_range {
                break; // nothing buffered and no node promised this interval
            }
            let ready = {
                let row = slots.get(&t);
                let present = |i: usize| row.is_some_and(|r| r[i].is_some());
                if (0..n).all(present) {
                    true
                } else {
                    let still_expecting = (0..n).any(|i| {
                        !present(i) && !down[i] && nodes[i].bye.map_or(true, |total| total > t)
                    });
                    if !still_expecting {
                        true // nobody left to wait for: degrade immediately
                    } else if row.is_none() {
                        // Declared (via Bye) but not one frame delivered
                        // yet: the grace window opens at first arrival,
                        // not first visit. Liveness deadlines and the
                        // run timeout still bound the wait.
                        false
                    } else {
                        match waiting {
                            Some((wt, since)) if wt == t => {
                                now.saturating_sub(since) >= config.grace
                            }
                            _ => {
                                waiting = Some((t, now));
                                false
                            }
                        }
                    }
                }
            };
            if !(ready || timed_out && slots.contains_key(&t)) {
                break;
            }
            let row = slots.remove(&t).unwrap_or_else(|| none_row(n));
            let out = emit_one(config, detector, &rows, t, row)?;
            emitted.push(out);
            next_emit += 1;
            waiting = None;
        }

        // Done when every node has signed off (or died) and everything
        // promised or buffered has been emitted.
        let all_accounted = (0..n).all(|i| nodes[i].bye.is_some() || down[i]);
        let drained = slots.is_empty() && max_bye.map_or(true, |b| next_emit >= b);
        if all_accounted && drained {
            break;
        }
        if clock.now().saturating_sub(start) >= config.run_timeout {
            if timed_out {
                // Second pass after the forced flush: stop for real.
                break;
            }
            timed_out = true;
            continue; // one more emit sweep with the ladder forced open
        }
        std::thread::sleep(config.tick);
    }
    Ok((emitted, timed_out))
}

fn none_row(n: usize) -> Vec<Option<NodeSlot>> {
    (0..n).map(|_| None).collect()
}

fn bump(config: &AggregatorConfig, f: impl FnOnce(&NetMetrics)) {
    if let Some(m) = &config.metrics {
        f(m);
    }
}

/// Walks one interval through recovery and the detector.
fn emit_one(
    config: &AggregatorConfig,
    detector: &mut SupervisedDetector,
    rows: &Arc<HashRows>,
    t: u64,
    row: Vec<Option<NodeSlot>>,
) -> Result<EmittedInterval, NetError> {
    let n = row.len();
    // Reconstruct what parity can cover. Only an *originally delivered*
    // successor counts: a reconstructed node carries no parity of its own,
    // so two adjacent losses leave the earlier one unrecoverable.
    let mut reconstructed: Vec<Option<(KarySketch, Vec<u64>)>> = Vec::with_capacity(n);
    for m in 0..n {
        if row[m].is_some() {
            reconstructed.push(None);
            continue;
        }
        let succ = &row[(m + 1) % n];
        match succ {
            Some(s) => {
                // D_m = P_{m+1} − D_{m+1}: exact for integer cells.
                let mut d = KarySketch::with_rows(Arc::clone(rows));
                d.sub_into(&s.parity, &s.data)?;
                reconstructed.push(Some((d, s.parity_keys.clone())));
            }
            None => reconstructed.push(None),
        }
    }
    let mut observed = KarySketch::with_rows(Arc::clone(rows));
    let mut keys: Vec<u64> = Vec::new();
    let mut missing: Vec<u32> = Vec::new();
    let mut recovered: Vec<u32> = Vec::new();
    for m in 0..n {
        if let Some(slot) = &row[m] {
            observed.add_scaled(&slot.data, 1.0)?;
            keys.extend_from_slice(&slot.data_keys);
        } else if let Some((d, ks)) = &reconstructed[m] {
            observed.add_scaled(d, 1.0)?;
            keys.extend_from_slice(ks);
            recovered.push(m as u32);
        } else {
            missing.push(m as u32);
        }
    }
    bump(config, |metrics| {
        if !missing.is_empty() {
            metrics.aggregator.partial_intervals_total.inc();
        } else if !recovered.is_empty() {
            metrics.aggregator.recovered_intervals_total.inc();
        } else {
            metrics.aggregator.full_intervals_total.inc();
        }
    });
    let report = detector
        .observe(&observed, &keys)
        .ok_or(NetError::DetectorGaveUp { attempts: detector.restarts() })?;
    Ok(EmittedInterval { interval: t, report, missing, recovered })
}

/// Sketch-family identity every node's `Hello` must match.
#[derive(Clone, Copy)]
struct Expect {
    nodes: u32,
    h: u64,
    k: u64,
    seed: u64,
}

/// Accept loop: non-blocking polls so it can observe the stop flag;
/// each accepted connection gets a detached reader thread (readers exit
/// on EOF/error when their node hangs up, or when the event queue's
/// receiver is gone).
fn spawn_accept(
    listener: TcpListener,
    tx: Sender<Event>,
    rows: Arc<HashRows>,
    expect: Expect,
    stop: Arc<AtomicBool>,
    metrics: Option<Arc<NetMetrics>>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("scd-net-accept".into())
        .spawn(move || {
            let _ = listener.set_nonblocking(true);
            while !stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let tx = tx.clone();
                        let rows = Arc::clone(&rows);
                        let metrics = metrics.clone();
                        let _ = std::thread::Builder::new()
                            .name("scd-net-reader".into())
                            .spawn(move || serve_connection(stream, tx, rows, expect, metrics));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        })
        .expect("spawn accept thread")
}

/// One node connection: validate the handshake, then decode frames,
/// acking every interval at receipt. Any decode error tears the
/// connection down — the node's spool machinery makes that safe.
fn serve_connection(
    mut stream: TcpStream,
    tx: Sender<Event>,
    rows: Arc<HashRows>,
    expect: Expect,
    metrics: Option<Arc<NetMetrics>>,
) {
    let _ = stream.set_nodelay(true);
    let reject = |metrics: &Option<Arc<NetMetrics>>| {
        if let Some(m) = metrics {
            m.aggregator.rejected_connections_total.inc();
        }
    };
    let node = match Frame::read_from(&mut stream) {
        Ok(Frame::Hello { node, nodes, h, k, seed, version })
            if nodes == expect.nodes
                && node < expect.nodes
                && (h, k, seed) == (expect.h, expect.k, expect.seed)
                && version == VERSION =>
        {
            node
        }
        _ => {
            reject(&metrics);
            return;
        }
    };
    if tx.send(Event::Seen { node }).is_err() {
        return;
    }
    loop {
        match Frame::read_from(&mut stream) {
            Ok(Frame::Interval { node: from, interval, data, data_keys, parity, parity_keys }) => {
                if from != node {
                    reject(&metrics);
                    return;
                }
                let (data, parity) = match (
                    wire::from_bytes_with_rows(&data, &rows),
                    wire::from_bytes_with_rows(&parity, &rows),
                ) {
                    (Ok(d), Ok(p)) => (d, p),
                    _ => {
                        // The embedded sketch blob failed its own CRC or
                        // family check: treat like any corrupt frame.
                        reject(&metrics);
                        return;
                    }
                };
                // Ack at receipt: the frame is intact and queued for the
                // plane, so the node may drop its spool copy.
                let ack = Frame::Ack { interval }.encode();
                if stream.write_all(&ack).is_err() {
                    return;
                }
                let slot = NodeSlot { data, data_keys, parity, parity_keys };
                if tx.send(Event::Interval { node, interval, slot }).is_err() {
                    return;
                }
            }
            Ok(Frame::Heartbeat { node: from }) => {
                if from == node && tx.send(Event::Seen { node }).is_err() {
                    return;
                }
            }
            Ok(Frame::Bye { node: from, intervals_total }) => {
                if from == node && tx.send(Event::Bye { node, total: intervals_total }).is_err() {
                    return;
                }
            }
            Ok(Frame::Hello { .. } | Frame::Ack { .. }) => {
                reject(&metrics);
                return;
            }
            Err(FrameError::Closed) => return,
            Err(_) => {
                reject(&metrics);
                return;
            }
        }
    }
}
