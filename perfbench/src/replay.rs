//! The traced in-process replay: each workload's command loop rebuilt from
//! the same public calls the `scd` binary makes, with a span around every
//! call into a layer. Work the command hands to other threads shows up as
//! waiting inside the span that hands it off. Layer costs that no command
//! call exposes on its own (checkpoint writes, frame codec, spool writes,
//! the GLR feed, query answers) are measured by probes that repeat that
//! work through the layer's public API after the timeline ends; probes are
//! reported as metrics and never counted in the timeline.

use crate::oracle::{
    detector_config, read_bins, Bins, Reference, INTERVAL_SECS, READ_CHUNK_RECORDS, SKETCH_SEED,
    THRESHOLD,
};
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::workload::{Workload, GLR_SLOTS, NODES, SHARDS};
use scd_archive::ArchiveConfig;
use scd_core::{
    spawn_supervised, Checkpoint, CheckpointPolicy, EngineConfig, GlrConfig, GlrEvent, KeyStrategy,
    LifecycleEvent, OverloadPolicy, RestartPolicy, ShardedEngine, SketchChangeDetector,
    StreamSegmenter, StreamingConfig, SupervisorConfig,
};
use scd_net::{Aggregator, AggregatorConfig, Frame, IngestNode, NetMetrics, NodeConfig, SpoolDir};
use scd_obs::Registry;
use scd_serve::{answer, QueryServer, RebuildMode, Request, ServerOptions, ServingPlane};
use scd_traffic::{shard_of_key, ChunkedTraceReader, FlowRecord, KeySpec, ValueSpec};
use std::collections::BTreeMap;
use std::error::Error;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Res<T> = Result<T, Box<dyn Error>>;

/// Timeline and probe results of one replay.
pub struct Replay {
    /// The spans of the timeline; the root span is named `run`.
    pub tracer: Tracer,
    /// Probe and counter metrics keyed by their contract names.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Replays `w` over `trace`, using `work` for scratch files.
pub fn replay(w: Workload, trace: &Path, reference: &Reference, work: &Path) -> Res<Replay> {
    let mut r = Replay { tracer: Tracer::new(), metrics: BTreeMap::new() };
    match w {
        Workload::Detect => detect(&mut r, trace)?,
        Workload::DetectGlr => detect_glr(&mut r, trace)?,
        Workload::Stream => stream(&mut r, trace, work)?,
        Workload::ServeMix => serve(&mut r, trace, reference)?,
        Workload::Distributed => distributed(&mut r, trace, work)?,
    }
    Ok(r)
}

/// The CLI's streaming trace read: chunked decode into the segmenter.
fn read_traced(tr: &mut Tracer, trace: &Path, interval_secs: u32) -> Res<Bins> {
    let mut reader = ChunkedTraceReader::new(File::open(trace)?)?;
    let mut segmenter = StreamSegmenter::new(interval_secs, KeySpec::DstIp, ValueSpec::Bytes);
    let mut chunk = Vec::with_capacity(READ_CHUNK_RECORDS);
    loop {
        chunk.clear();
        if tr.span("io.next_chunk", |_| reader.next_chunk(READ_CHUNK_RECORDS, &mut chunk))? == 0 {
            break;
        }
        tr.span("segment.push", |_| segmenter.push(&chunk));
    }
    Ok(tr.span("segment.finish", |_| segmenter.finish()))
}

fn detect(r: &mut Replay, trace: &Path) -> Res<()> {
    r.tracer.span("run", |tr| -> Res<()> {
        let bins = read_traced(tr, trace, INTERVAL_SECS)?;
        let mut det = tr.span("detector.new", |_| SketchChangeDetector::new(detector_config()));
        for items in &bins {
            std::hint::black_box(
                tr.span("detector.process_interval", |_| det.process_interval(items)),
            );
        }
        Ok(())
    })
}

fn glr_engine(glr: bool) -> Res<ShardedEngine> {
    let mut config = EngineConfig::new(detector_config(), SHARDS).with_pipeline();
    if glr {
        config = config.with_glr(GlrConfig { max_window: 8, ..GlrConfig::new(16.0, SKETCH_SEED) });
    }
    Ok(ShardedEngine::new(config)?)
}

fn detect_glr(r: &mut Replay, trace: &Path) -> Res<()> {
    let slot_secs = INTERVAL_SECS / GLR_SLOTS as u32;
    let (mut provisional, mut confirmed) = (0u64, 0u64);
    let mut count = |events: Vec<GlrEvent>| {
        for e in events {
            match e {
                GlrEvent::Provisional { .. } => provisional += 1,
                GlrEvent::Confirmed { .. } => confirmed += 1,
                GlrEvent::Retracted { .. } => {}
            }
        }
    };
    let slot_bins = r.tracer.span("run", |tr| -> Res<Bins> {
        let slot_bins = read_traced(tr, trace, slot_secs)?;
        let n_intervals = slot_bins.len().div_ceil(GLR_SLOTS);
        let mut engine = tr.span("engine.new", |_| glr_engine(true))?;
        let empty = Vec::new();
        for t in 0..n_intervals {
            for s in 0..GLR_SLOTS {
                let items = slot_bins.get(t * GLR_SLOTS + s).unwrap_or(&empty);
                tr.span("engine.push_slice_parallel", |_| engine.push_slice_parallel(items, 1))?;
                tr.span("glr.end_glr_slot", |_| engine.end_glr_slot());
                count(engine.take_glr_events());
            }
            tr.span("engine.end_interval_overlapped", |_| engine.end_interval_overlapped())?;
            count(engine.take_glr_events());
        }
        tr.span("engine.drain", |_| engine.drain())?;
        count(engine.take_glr_events());
        Ok(slot_bins)
    })?;
    r.metrics.insert("glr.provisional", provisional as f64);
    r.metrics.insert("glr.confirmed", confirmed as f64);
    r.metrics.insert("glr.confirm_ratio", ratio(confirmed as f64, provisional as f64));
    // Probe: the same routing without GLR, on identical slot input; the
    // difference is what feeding the projections costs.
    let mut plain = glr_engine(false)?;
    let mut route_plain = Duration::ZERO;
    for interval in slot_bins.chunks(GLR_SLOTS) {
        for items in interval {
            let t = Instant::now();
            plain.push_slice_parallel(items, 1)?;
            route_plain += t.elapsed();
        }
        plain.end_interval_overlapped()?;
    }
    plain.drain()?;
    r.metrics.insert(
        "glr.feed_s",
        r.tracer.total("engine.push_slice_parallel") - route_plain.as_secs_f64(),
    );
    Ok(())
}

fn stream(r: &mut Replay, trace: &Path, work: &Path) -> Res<()> {
    let checkpoint = work.join("replay-checkpoint.bin");
    let _ = std::fs::remove_file(&checkpoint);
    let (reports, events, processed) = r.tracer.span("run", |tr| -> Res<_> {
        let mut reader = ChunkedTraceReader::new(File::open(trace)?)?;
        let mut records: Vec<FlowRecord> = Vec::new();
        // The CLI materializes the whole trace before streaming it.
        while tr.span("io.next_chunk", |_| reader.next_chunk(READ_CHUNK_RECORDS, &mut records))? > 0
        {
        }
        tr.span("streaming.sort", |_| records.sort_by_key(|r| r.timestamp_ms));
        let handle = tr.span("supervisor.spawn", |_| {
            spawn_supervised(SupervisorConfig {
                stream: StreamingConfig {
                    detector: detector_config(),
                    interval_ms: u64::from(INTERVAL_SECS) * 1000,
                    key: KeySpec::DstIp,
                    value: ValueSpec::Bytes,
                    channel_capacity: 4096,
                    overload: OverloadPolicy::Block,
                    checkpoint: Some(CheckpointPolicy {
                        path: checkpoint.clone(),
                        every_intervals: 10,
                    }),
                    metrics: None,
                },
                restart: RestartPolicy::default(),
                fault: None,
            })
        });
        let (mut reports, mut events) = (Vec::new(), Vec::new());
        for chunk in records.chunks(READ_CHUNK_RECORDS) {
            tr.span("streaming.send", |_| {
                for &record in chunk {
                    if !handle.send(record) {
                        break;
                    }
                    while let Some(rep) = handle.reports().try_recv() {
                        reports.push(rep);
                    }
                    while let Some(ev) = handle.events().try_recv() {
                        events.push(ev);
                    }
                }
            });
        }
        let (tail, tail_events, processed) = tr
            .span("streaming.shutdown", |_| handle.shutdown())
            .map_err(|e| format!("stream failed: {e}"))?;
        reports.extend(tail);
        events.extend(tail_events);
        Ok((reports, events, processed))
    })?;
    let dropped: u64 = reports.iter().map(|rep| rep.drops.lost()).sum();
    let restarts = events.iter().filter(|e| matches!(e, LifecycleEvent::Restarted { .. })).count();
    let writes =
        events.iter().filter(|e| matches!(e, LifecycleEvent::CheckpointWritten { .. })).count();
    r.metrics.insert("streaming.records", processed as f64);
    r.metrics.insert("streaming.dropped", dropped as f64);
    r.metrics.insert("supervisor.restarts", restarts as f64);
    // Probe: the checkpoint writes happen on the detector thread; redo as
    // many `write_atomic`s of the final checkpoint.
    let (mut write_s, mut bytes) = (0.0, 0u64);
    if writes > 0 {
        let ck = Checkpoint::load(&checkpoint)?;
        let size = std::fs::metadata(&checkpoint)?.len();
        let probe = work.join("probe-checkpoint.bin");
        for _ in 0..writes {
            let t = Instant::now();
            ck.write_atomic(&probe)?;
            write_s += t.elapsed().as_secs_f64();
            bytes += size;
        }
        let _ = std::fs::remove_file(&probe);
    }
    let _ = std::fs::remove_file(&checkpoint);
    r.metrics.insert("checkpoint.write_s", write_s);
    r.metrics.insert("checkpoint.bytes", bytes as f64);
    // Probe: the detector turnover the streaming thread ran, repeated
    // through `process_interval` on the same bins.
    let (bins, _) = read_bins(trace, INTERVAL_SECS)?;
    let mut det = SketchChangeDetector::new(detector_config());
    let t = Instant::now();
    for items in &bins {
        std::hint::black_box(det.process_interval(items));
    }
    r.metrics.insert("detector.interval_s", t.elapsed().as_secs_f64());
    Ok(())
}

/// The CLI's `serve` archive defaults (`--budget 64 --full-res 8 --keys 64`).
const SERVE_ARCHIVE: ArchiveConfig =
    ArchiveConfig { max_sketches: 64, full_resolution: 8, keys_per_epoch: 64 };
/// Calls per query type in the `answer` probe.
const ANSWER_CALLS: usize = 200;

fn serve(r: &mut Replay, trace: &Path, reference: &Reference) -> Res<()> {
    let plane = r.tracer.span("run", |tr| -> Res<Arc<ServingPlane>> {
        let bins = read_traced(tr, trace, INTERVAL_SECS)?;
        let plane = tr.span("serve.plane_new", |_| {
            ServingPlane::with_options(SERVE_ARCHIVE, None, RebuildMode::Background)
        })?;
        let config = EngineConfig::new(detector_config(), SHARDS)
            .with_observer(Arc::clone(&plane) as Arc<dyn scd_core::IntervalObserver>)
            .with_pipeline();
        let mut engine = tr.span("engine.new", |_| ShardedEngine::new(config))?;
        let server = tr.span("serve.bind", |_| {
            QueryServer::bind_with(
                "127.0.0.1:0",
                Arc::clone(&plane),
                None,
                ServerOptions::default(),
            )
        })?;
        for items in &bins {
            tr.span("engine.push_slice", |_| engine.push_slice(items))?;
            tr.span("engine.end_interval_overlapped", |_| engine.end_interval_overlapped())?;
        }
        tr.span("engine.drain", |_| engine.drain())?;
        tr.span("serve.shutdown", |_| drop(server));
        Ok(plane)
    })?;
    // Probe: `answer` on the final view, per query type.
    let view = plane.view();
    let end = view.interval.map_or(1, |t| t + 1);
    let from = end.saturating_sub(8);
    let keys = if reference.alarm_keys.is_empty() { vec![1] } else { reference.alarm_keys.clone() };
    let names = [
        "serve.answer_s.estimate",
        "serve.answer_s.changed_keys",
        "serve.answer_s.key_history",
        "serve.answer_s.range_sketch",
    ];
    for (kind, name) in names.into_iter().enumerate() {
        let t = Instant::now();
        for i in 0..ANSWER_CALLS {
            let key = keys[i % keys.len()];
            let request = match kind {
                0 => Request::Estimate { key, from: 0, to: 0 },
                1 => Request::ChangedKeys { from, to: end, threshold: THRESHOLD },
                2 => Request::KeyHistory { key, from, to: end },
                _ => Request::RangeSketch { from, to: end },
            };
            std::hint::black_box(answer(&view, &request));
        }
        r.metrics.insert(name, t.elapsed().as_secs_f64() / ANSWER_CALLS as f64);
    }
    Ok(())
}

fn distributed(r: &mut Replay, trace: &Path, work: &Path) -> Res<()> {
    let registry = Registry::new();
    let net = NetMetrics::register(&registry);
    let mut agg_config = AggregatorConfig::new(detector_config(), NODES);
    agg_config.metrics = Some(Arc::clone(&net));
    let spool = |tag: &str, node: u32| work.join(format!("replay-{tag}-spool{node}"));
    let (bins, emitted) = r.tracer.span("run", |tr| -> Res<_> {
        let aggregator =
            tr.span("aggregator.bind", |_| Aggregator::bind(agg_config, "127.0.0.1:0"))?;
        let addr = aggregator.local_addr()?.to_string();
        let agg = std::thread::spawn(move || aggregator.run());
        let mut nodes = Vec::new();
        for node in 0..NODES {
            let config = NodeConfig {
                node,
                nodes: NODES,
                sketch: detector_config().sketch,
                shards: SHARDS,
                addr: addr.clone(),
                spool_dir: spool("live", node),
                retry: RestartPolicy { max_restarts: 8, ..RestartPolicy::default() },
                fault: None,
                metrics: Some(Arc::clone(&net)),
            };
            nodes.push(tr.span("sender.new", |_| IngestNode::new(config))?);
        }
        let bins = read_traced(tr, trace, INTERVAL_SECS)?;
        for items in &bins {
            for n in nodes.iter_mut() {
                tr.span("sender.push_slice", |_| n.push_slice(items))?;
                tr.span("sender.end_interval", |_| n.end_interval())?;
            }
        }
        for n in nodes {
            let summary = tr.span("sender.finish", |_| n.finish(Duration::from_secs(60)))?;
            if !summary.unacked.is_empty() {
                return Err(format!("unacknowledged intervals {:?}", summary.unacked).into());
            }
        }
        let summary =
            tr.span("aggregator.join", |_| agg.join()).map_err(|_| "aggregator panicked")??;
        Ok((bins, summary.intervals.len()))
    })?;
    for node in 0..NODES {
        let _ = std::fs::remove_dir_all(spool("live", node));
    }
    if emitted != bins.len() {
        return Err(format!("aggregator emitted {emitted} of {} intervals", bins.len()).into());
    }
    let mut line = String::new();
    registry.render_jsonl(0, &mut line);
    let counters: BTreeMap<String, f64> = scd_obs::parse_flat_json(&line)?.into_iter().collect();
    let get = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    r.metrics.insert("sender.resent", get("scd_net_frames_resent_total"));
    r.metrics.insert("aggregator.duplicates", get("scd_net_agg_duplicates_total"));
    r.metrics.insert("aggregator.partial", get("scd_net_agg_partial_intervals_total"));
    frame_probe(r, &bins, work)
}

/// Probe: rebuilds every node's per-interval frame through the public
/// engine, sketch wire and frame APIs (as `IngestNode::end_interval`
/// does) and times encode, spool store and decode.
fn frame_probe(r: &mut Replay, bins: &Bins, work: &Path) -> Res<()> {
    let mut detector = detector_config();
    detector.key_strategy = KeyStrategy::NextInterval;
    let (mut encode, mut store, mut decode, mut bytes) = (0.0, 0.0, 0.0, 0u64);
    for node in 0..NODES {
        let buddy_id = (node + NODES - 1) % NODES;
        let mut data = ShardedEngine::new(EngineConfig::new(detector.clone(), SHARDS))?;
        let mut buddy = ShardedEngine::new(EngineConfig::new(detector.clone(), SHARDS))?;
        let dir = work.join(format!("probe-spool{node}"));
        let spool = SpoolDir::open(&dir, node)?;
        for (interval, items) in bins.iter().enumerate() {
            for &(key, value) in items {
                let shard = shard_of_key(key, NODES as usize) as u32;
                if shard == node {
                    data.push(key, value)?;
                } else if shard == buddy_id {
                    buddy.push(key, value)?;
                }
            }
            let (data_sketch, data_keys) = data.end_interval_sketch()?;
            let (buddy_sketch, buddy_keys) = buddy.end_interval_sketch()?;
            let parity = data_sketch.combine(&[(1.0, &buddy_sketch), (1.0, &data_sketch)])?;
            let t = Instant::now();
            let frame = Frame::Interval {
                node,
                interval: interval as u64,
                data: scd_sketch::to_bytes(&data_sketch),
                data_keys,
                parity: scd_sketch::to_bytes(&parity),
                parity_keys: buddy_keys,
            }
            .encode();
            encode += t.elapsed().as_secs_f64();
            let t = Instant::now();
            spool.store(interval as u64, &frame)?;
            store += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(Frame::decode(&frame)?);
            decode += t.elapsed().as_secs_f64();
            bytes += frame.len() as u64;
            spool.ack(interval as u64)?;
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    r.metrics.insert("frame.encode_s", encode);
    r.metrics.insert("frame.decode_s", decode);
    r.metrics.insert("frame.bytes", bytes as f64);
    r.metrics.insert("spool.store_s", store);
    Ok(())
}
