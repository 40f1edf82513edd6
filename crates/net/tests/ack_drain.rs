//! The ack poll at interval close, against a raw TCP peer standing in for
//! the aggregator. An interval close consumes the acks already received
//! and never waits for more, so these tests assert only on what was
//! spooled and acknowledged, never on elapsed time.

use scd_core::supervisor::RestartPolicy;
use scd_net::{Frame, IngestNode, NetMetrics, NodeConfig, SpoolDir};
use scd_obs::Registry;
use scd_sketch::SketchConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn spool_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scd-net-ack-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A one-node ring connected to `addr`, spooling into `dir`.
fn node(addr: String, dir: &Path, metrics: Option<Arc<NetMetrics>>) -> IngestNode {
    IngestNode::new(NodeConfig {
        node: 0,
        nodes: 1,
        sketch: SketchConfig { h: 3, k: 256, seed: 11 },
        shards: 1,
        addr,
        spool_dir: dir.to_path_buf(),
        retry: RestartPolicy { max_restarts: 3, backoff_base_ms: 5, backoff_cap_ms: 50 },
        fault: None,
        metrics,
    })
    .expect("node up")
}

/// Ships one small interval.
fn close_interval(node: &mut IngestNode, t: u64) {
    let updates: Vec<(u64, f64)> = (0..50u64).map(|k| (k, (100 + k + t) as f64)).collect();
    node.push_slice(&updates).expect("push");
    node.end_interval().expect("an interval close succeeds with or without acks");
}

/// Accepts one connection and reads everything the node writes, until
/// the node hangs up. Returns the peer's write half.
fn accept_and_sink(listener: &TcpListener) -> (TcpStream, std::thread::JoinHandle<()>) {
    let (stream, _) = listener.accept().expect("accept");
    let mut reader = stream.try_clone().expect("clone");
    let sink = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = reader.read_to_end(&mut bytes);
    });
    (stream, sink)
}

#[test]
fn a_peer_that_never_acks_leaves_every_frame_spooled() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let dir = spool_dir("never");
    let peer = std::thread::spawn(move || accept_and_sink(&listener));
    let mut node = node(addr, &dir, None);
    let (_write_half, sink) = peer.join().expect("peer");
    for t in 0..4 {
        close_interval(&mut node, t);
    }
    let spool = SpoolDir::open(&dir, 0).expect("spool");
    assert_eq!(spool.pending().expect("pending"), vec![0, 1, 2, 3]);
    drop(node);
    sink.join().expect("sink");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn acks_queued_before_a_close_are_all_consumed_by_it() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let dir = spool_dir("queued");
    let registry = Registry::new();
    let metrics = NetMetrics::register(&registry);
    let peer = std::thread::spawn(move || accept_and_sink(&listener));
    let mut node = node(addr, &dir, Some(Arc::clone(&metrics)));
    let (mut write_half, sink) = peer.join().expect("peer");
    for t in 0..3 {
        close_interval(&mut node, t);
    }
    let spool = SpoolDir::open(&dir, 0).expect("spool");
    assert_eq!(spool.pending().expect("pending"), vec![0, 1, 2]);

    // Ack all three at once. Loopback delivers them into the node's
    // receive queue before the write returns; the pause only keeps a
    // heavily loaded box from turning that into a race.
    for interval in 0..3 {
        write_half.write_all(&Frame::Ack { interval }.encode()).expect("ack");
    }
    write_half.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(50));

    close_interval(&mut node, 3);
    assert_eq!(metrics.sender.acks_total.get(), 3, "one close drains every queued ack");
    assert_eq!(spool.pending().expect("pending"), vec![3], "only the frame just shipped remains");
    drop(node);
    sink.join().expect("sink");
    let _ = std::fs::remove_dir_all(&dir);
}
