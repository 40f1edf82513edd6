//! Open-loop SCDQ query generator for `serve_mix`.
//!
//! One sender thread owns every connection (at most `nproc` of them) and
//! sends on a fixed-rate seeded schedule without waiting for replies; one
//! reader thread per connection matches responses to requests in order.
//! Latency is timed from each request's due time, so a stall that delays
//! later sends is charged to them, and the sender's own lateness is kept
//! to tell a slow generator from a slow server.

use scd_serve::{Request, Response};
use scd_traffic::Rng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Request rate while the server is replaying the trace.
pub const REPLAY_QPS: f64 = 2_000.0;
/// Request rate against the final view while the server lingers.
pub const READONLY_QPS: f64 = 10_000.0;
/// Longest window (in intervals) of a historical query.
const MAX_WINDOW: u64 = 8;
/// How long a reader waits for one response before calling it lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// Which phase a request was sent in.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Ingest running beside the reads.
    Replay,
    /// Final view only.
    Readonly,
}

/// Shared switches between the benchmark's main thread and the sender.
#[derive(Default)]
pub struct Control {
    readonly: AtomicBool,
    stop: AtomicBool,
}

impl Control {
    /// Switches the sender to the read-only rate.
    pub fn enter_readonly(&self) {
        self.readonly.store(true, Ordering::Relaxed);
    }
    /// Stops sending; outstanding replies are still collected.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Outcome of one generator run.
#[derive(Default)]
pub struct QueryStats {
    /// Latency (ms, from due time) of answered requests, replay phase.
    pub replay_ms: Vec<f64>,
    /// Latency (ms, from due time) of answered requests, read-only phase.
    pub readonly_ms: Vec<f64>,
    /// How late each send went out after its due time (ms).
    pub late_ms: Vec<f64>,
    /// Requests sent (or whose connection could not be opened).
    pub attempted: u64,
    /// Errors, timeouts, refusals, and Error/NoData answers once a view
    /// with data had been seen.
    pub failed: u64,
}

impl QueryStats {
    /// Folds another run in.
    pub fn absorb(&mut self, o: QueryStats) {
        self.replay_ms.extend(o.replay_ms);
        self.readonly_ms.extend(o.readonly_ms);
        self.late_ms.extend(o.late_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

struct Pending {
    due: Instant,
    phase: Phase,
    after_data: bool,
}

/// State the readers publish for the sender.
#[derive(Default)]
struct Seen {
    /// Latest answered `as_of` + 1 (0: none yet).
    as_of_end: AtomicU64,
    data: AtomicBool,
}

#[derive(Default)]
struct ReaderTally {
    replay_ms: Vec<f64>,
    readonly_ms: Vec<f64>,
    failed: u64,
}

/// CPUs this process may run on (its affinity mask).
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs the generator against `addr`, over one connection per CPU, until
/// `control.stop()`; returns when every reply has been collected or timed
/// out.
pub fn run(addr: &str, seed: u64, keys: &[u64], control: &Control) -> QueryStats {
    let seen = Arc::new(Seen::default());
    let mut stats = QueryStats::default();
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..cpus() {
        let Ok(stream) = TcpStream::connect(addr) else {
            stats.attempted += 1;
            stats.failed += 1;
            continue;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(RESPONSE_TIMEOUT));
        let read_half = stream.try_clone().expect("clone query socket");
        let (tx, rx) = channel::<Pending>();
        let tally = Arc::new(Mutex::new(ReaderTally::default()));
        let t = Arc::clone(&tally);
        let s = Arc::clone(&seen);
        readers.push((std::thread::spawn(move || read_loop(read_half, rx, &s, &t)), tally));
        writers.push((stream, tx));
    }
    if !writers.is_empty() {
        send_loop(&mut writers, seed, keys, control, &seen, &mut stats);
    }
    drop(writers);
    for (h, tally) in readers {
        let _ = h.join();
        let t = std::mem::take(&mut *tally.lock().expect("tally lock poisoned"));
        stats.replay_ms.extend(t.replay_ms);
        stats.readonly_ms.extend(t.readonly_ms);
        stats.failed += t.failed;
    }
    stats
}

fn send_loop(
    writers: &mut [(TcpStream, Sender<Pending>)],
    seed: u64,
    keys: &[u64],
    control: &Control,
    seen: &Seen,
    stats: &mut QueryStats,
) {
    let mut rng = Rng::new(seed ^ 0x9E3779B97F4A7C15);
    let mut due = Instant::now();
    let mut phase = Phase::Replay;
    let mut n = 0usize;
    while !control.stop.load(Ordering::Relaxed) {
        if phase == Phase::Replay && control.readonly.load(Ordering::Relaxed) {
            phase = Phase::Readonly;
            due = due.max(Instant::now());
        }
        let qps = if phase == Phase::Replay { REPLAY_QPS } else { READONLY_QPS };
        due += Duration::from_secs_f64(1.0 / qps);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        stats.late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        let request = pick(&mut rng, keys, seen.as_of_end.load(Ordering::Relaxed));
        let (stream, tx) = &mut writers[n % writers.len()];
        n += 1;
        stats.attempted += 1;
        let after_data = seen.data.load(Ordering::Relaxed);
        // The reader holds its receiver until this sender is dropped and
        // charges every request it cannot match to a reply, so a failed
        // write is counted there.
        let _ = tx.send(Pending { due, phase, after_data });
        let _ = stream.write_all(&request.encode());
    }
}

/// The mix: 70% live estimates, 10% each of changed keys, key history and
/// range summary, over windows ending at the latest `as_of` seen.
fn pick(rng: &mut Rng, keys: &[u64], as_of_end: u64) -> Request {
    let key = if keys.is_empty() {
        rng.below(1 << 32)
    } else {
        keys[rng.below(keys.len() as u64) as usize]
    };
    let to = as_of_end.max(1);
    let from = to - (1 + rng.below(MAX_WINDOW)).min(to);
    match rng.below(10) {
        0..=6 => Request::Estimate { key, from: 0, to: 0 },
        7 => Request::ChangedKeys { from, to, threshold: crate::oracle::THRESHOLD },
        8 => Request::KeyHistory { key, from, to },
        _ => Request::RangeSketch { from, to },
    }
}

fn read_loop(
    mut stream: TcpStream,
    rx: Receiver<Pending>,
    seen: &Seen,
    tally: &Mutex<ReaderTally>,
) {
    let mut t = ReaderTally::default();
    while let Ok(p) = rx.recv() {
        match Response::read_from(&mut stream) {
            Ok(resp) => {
                let ms = p.due.elapsed().as_secs_f64() * 1e3;
                let (as_of, data) = match &resp {
                    Response::NoData { .. } | Response::Error { .. } => (None, false),
                    Response::Estimate { as_of, .. }
                    | Response::ChangedKeys { as_of, .. }
                    | Response::KeyHistory { as_of, .. }
                    | Response::RangeSketch { as_of, .. } => (Some(*as_of), true),
                };
                if let Some(a) = as_of {
                    seen.as_of_end.fetch_max(a + 1, Ordering::Relaxed);
                    seen.data.store(true, Ordering::Relaxed);
                }
                if matches!(resp, Response::Error { .. }) || (!data && p.after_data) {
                    t.failed += 1;
                } else if p.phase == Phase::Replay {
                    t.replay_ms.push(ms);
                } else {
                    t.readonly_ms.push(ms);
                }
            }
            Err(_) => {
                // Connection broken or reply lost: this request and every
                // one sent on the connection until the sender stops fail.
                t.failed += 1 + rx.iter().count() as u64;
                break;
            }
        }
    }
    *tally.lock().expect("tally lock poisoned") = t;
}
