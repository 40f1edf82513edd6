//! End-to-end benchmark of the `scd` commands.
//!
//! ```text
//! perfbench --scd PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--smoke]
//! ```
//!
//! Generates a trace from the seed (untimed), computes the reference
//! reports with the single-threaded detector (untimed), then runs the
//! workload through the real binary: set-up runs over a one-interval
//! trace, one discarded warm-up run, and timed runs until `--seconds` have
//! passed. Every run's reports are checked against the reference. With
//! `--trace 1` the timed runs alternate with `--metrics` runs and an
//! in-process replay attributes the time to layers; its spans are written
//! to `.bench_spans/<workload>-seed<N>.jsonl`. The last stdout line
//! is the result object; the line before it is the full report with the
//! machine context.

mod oracle;
mod proc;
mod querygen;
mod replay;
mod stats;
mod trace;
mod workload;

use oracle::{Reference, INTERVAL_SECS};
use proc::Proc;
use querygen::QueryStats;
use stats::{median, percentile, ratio, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Ctx, RunOpts, RunOutcome, Workload};

/// Trace size of a full run: `--profile large --hours 1 --scale 8`.
const HOURS: f64 = 1.0;
const SCALE: f64 = 8.0;
/// Trace size of a smoke run.
const SMOKE_HOURS: f64 = 0.1;
const SMOKE_SCALE: f64 = 1.0;
/// Set-up runs per invocation (the median is reported).
const SETUP_RUNS: usize = 3;
/// Where traced invocations leave their replay spans.
const SPANS_DIR: &str = ".bench_spans";
/// Wall-clock budget of one invocation; runs still going are killed.
const INVOCATION_BUDGET: Duration = Duration::from_secs(170);
/// A `serve_mix` run whose generator sent its p99 request this late (ms)
/// measured the generator, not the server, and is invalid.
const MAX_GEN_LATE_P99_MS: f64 = 50.0;

struct Args {
    scd: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            flag if flag.starts_with("--") => {
                let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                kv.insert(flag[2..].to_string(), v);
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let name = get("workload")?;
    Ok(Args {
        scd: get("scd")?.clone(),
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
        seed: get("seed")?.parse().map_err(|_| "--seed must be an integer")?,
        seconds: get("seconds")?.parse().map_err(|_| "--seconds must be a number")?,
        trace: match kv.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result =
        std::fs::create_dir_all(&work).map_err(Into::into).and_then(|()| bench(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// A metric's name, value and unit.
type Metric = (String, f64, &'static str);

/// Trace shape of this invocation.
struct TraceSpec {
    hours: f64,
    scale: f64,
    dos: Option<String>,
}

impl TraceSpec {
    fn new(args: &Args) -> TraceSpec {
        let (hours, scale) = if args.smoke { (SMOKE_HOURS, SMOKE_SCALE) } else { (HOURS, SCALE) };
        // One DoS on the rank-3 destination, 20x its baseline for 6
        // intervals, starting 5/8 of the way into the trace.
        let intervals = (hours * 3600.0 / f64::from(INTERVAL_SECS)).round() as usize;
        let start = intervals * 5 / 8;
        let dos = args
            .workload
            .injects_dos()
            .then(|| format!("3:{start}:{}:20", 6.min(intervals - start)));
        TraceSpec { hours, scale, dos }
    }
}

fn generate(
    scd: &str,
    out: &Path,
    hours: f64,
    scale: f64,
    seed: u64,
    dos: Option<&str>,
) -> Res<()> {
    let mut args: Vec<String> =
        ["generate", "--profile", "large", "--interval"].map(String::from).to_vec();
    args.push(INTERVAL_SECS.to_string());
    args.extend(["--hours".into(), hours.to_string(), "--scale".into(), scale.to_string()]);
    args.extend(["--seed".into(), seed.to_string(), "--out".into(), out.display().to_string()]);
    if let Some(d) = dos {
        args.extend(["--dos".into(), d.to_string()]);
    }
    let p = Proc::spawn(scd, &args)?;
    match p.finish(Instant::now() + proc::HARD_TIMEOUT) {
        Some(e) if e.success => Ok(()),
        _ => Err(format!("`scd generate` failed for {}", out.display()).into()),
    }
}

/// Tally of every command run and query of the invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: usize,
    expected: usize,
}

impl Tally {
    fn add(&mut self, o: &RunOutcome, reference: &Reference) {
        self.attempted += 1;
        self.failed += u64::from(!o.ok);
        self.mismatched += o.mismatched;
        self.expected += reference.intervals();
    }
}

fn bench(args: &Args, work: &Path) -> Res<()> {
    let deadline = Instant::now() + INVOCATION_BUDGET;
    let w = args.workload;
    let spec = TraceSpec::new(args);
    let trace = work.join("trace.bin");
    let setup_trace = work.join("setup.bin");
    generate(&args.scd, &trace, spec.hours, spec.scale, args.seed, spec.dos.as_deref())?;
    generate(
        &args.scd,
        &setup_trace,
        f64::from(INTERVAL_SECS) / 3600.0,
        spec.scale,
        args.seed,
        None,
    )?;
    let reference = Reference::compute(&trace)?;
    let setup_reference = Reference::compute(&setup_trace)?;
    let ctx = Ctx { scd: &args.scd, work, seed: args.seed, keys: &reference.alarm_keys, deadline };
    let mut tally = Tally::default();
    let queries = w == Workload::ServeMix;
    let mut rep = 0;
    let mut run = |t: &Path, r: &Reference, opts: RunOpts, tally: &mut Tally| {
        rep += 1;
        let o = workload::run(w, &ctx, t, r, rep, opts);
        tally.add(&o, r);
        o
    };

    let setup_runs = if args.smoke { 1 } else { SETUP_RUNS };
    let setup: Vec<f64> = (0..setup_runs)
        .map(|_| run(&setup_trace, &setup_reference, RunOpts::default(), &mut tally).wall_s)
        .collect();
    // Warm-up, right before the timed runs: the first run on a fresh
    // trace pays cold page-cache costs.
    run(&trace, &reference, RunOpts { queries, ..RunOpts::default() }, &mut tally);

    let mut timed = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while start.elapsed() < budget || timed.is_empty() {
        let o = run(&trace, &reference, RunOpts { queries, metrics: false }, &mut tally);
        let failed = !o.ok;
        timed.push(o);
        if args.trace {
            traced.push(run(&trace, &reference, RunOpts { queries, metrics: true }, &mut tally));
        }
        if failed || Instant::now() >= deadline {
            break;
        }
    }

    let mut q = QueryStats::default();
    for o in timed.iter_mut() {
        if let Some(s) = o.queries.take() {
            q.absorb(s);
        }
    }
    let gen_late_p99 = percentile(&q.late_ms, 99.0);
    if queries && gen_late_p99 > MAX_GEN_LATE_P99_MS {
        eprintln!("perfbench: query generator fell behind (p99 lateness {gen_late_p99:.1} ms): run invalid");
        tally.failed += 1;
    }
    tally.attempted += q.attempted;
    tally.failed += q.failed;

    let ok_runs: Vec<&RunOutcome> = timed.iter().filter(|o| o.ok).collect();
    let walls: Vec<f64> = ok_runs.iter().map(|o| o.wall_s).collect();
    let per_run = |f: &dyn Fn(&RunOutcome) -> Option<f64>| {
        median(&ok_runs.iter().filter_map(|o| f(o)).collect::<Vec<_>>())
    };
    let mut e2e: Vec<(&str, f64, &str)> = vec![
        ("records_per_s", per_run(&|o| Some(reference.records as f64 / o.wall_s)), "1/s"),
        ("first_report_s", per_run(&|o| o.first_report_s), "s"),
        ("setup_s", median(&setup), "s"),
        ("peak_rss_mb", per_run(&|o| Some(o.peak_rss_kb as f64 / 1024.0)), "MB"),
        ("interval_mismatch_ratio", ratio(tally.mismatched as f64, tally.expected as f64), "ratio"),
    ];
    if queries {
        e2e.extend([
            ("query_p50_ms", percentile(&q.replay_ms, 50.0), "ms"),
            ("query_p99_ms", percentile(&q.replay_ms, 99.0), "ms"),
            ("readonly_p50_ms", percentile(&q.readonly_ms, 50.0), "ms"),
            ("readonly_p99_ms", percentile(&q.readonly_ms, 99.0), "ms"),
            ("query_fail_ratio", ratio(q.failed as f64, q.attempted as f64), "ratio"),
            ("gen.late_p99_ms", gen_late_p99, "ms"),
            ("serve.replay_s", per_run(&|o| Some(o.replay_s)), "s"),
        ]);
    }
    if w == Workload::Distributed {
        e2e.push(("sender.exit_tail_s", per_run(&|o| Some(o.node_tail_s)), "s"));
    }

    let metrics: Vec<Metric> = if args.trace {
        let (metrics, tracer) = layer_metrics(w, &trace, &reference, work, &walls, &traced, &e2e)?;
        std::fs::create_dir_all(SPANS_DIR)?;
        tracer.write_jsonl(&Path::new(SPANS_DIR).join(format!(
            "{}-seed{}.jsonl",
            w.name(),
            args.seed
        )))?;
        metrics
    } else {
        e2e.iter()
            .filter(|(n, _, _)| E2E.contains(n))
            .map(|(n, v, u)| (n.to_string(), *v, *u))
            .collect()
    };

    let correct = tally.mismatched == 0;
    let mut report = Json::object();
    report.field("workload", Json::str(w.name()));
    report.field("context", context(args, &spec, &reference));
    report.field("runs", Json::num(timed.len() as f64));
    report.field("run_walls_s", Json::Array(timed.iter().map(|o| Json::num(o.wall_s)).collect()));
    report.field("query_samples", Json::num((q.replay_ms.len() + q.readonly_ms.len()) as f64));
    report.field("end_to_end", metric_object(e2e.iter().map(|(n, v, u)| (n.to_string(), *v, *u))));
    println!("{}", report.render());

    let mut result = Json::object();
    result.field("correct", Json::bool(correct));
    result.field("attempted", Json::num(tally.attempted as f64));
    result.field("failed", Json::num(tally.failed as f64));
    result.field("metrics", metric_object(metrics.into_iter()));
    println!("{}", result.render());
    Ok(())
}

/// The end-to-end metrics `BENCHMARK.json` bounds (every workload).
const E2E: [&str; 4] = ["records_per_s", "first_report_s", "setup_s", "peak_rss_mb"];

fn metric_object(metrics: impl Iterator<Item = Metric>) -> Json {
    let mut o = Json::object();
    for (name, value, unit) in metrics {
        let mut m = Json::object();
        m.field("value", Json::num(value));
        m.field("unit", Json::str(unit));
        o.field(&name, m);
    }
    o
}

fn context(args: &Args, spec: &TraceSpec, reference: &Reference) -> Json {
    // Git must not look above the benchmark's directory for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let capture = |program: &str, a: &[&str]| {
        std::process::Command::new(program)
            .args(a)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let mut c = Json::object();
    c.field("cpus", Json::num(querygen::cpus() as f64));
    c.field("simd", Json::str(scd_hash::simd::active().name()));
    c.field("simd_override", std::env::var("SCD_SIMD").map_or(Json::Null, |v| Json::str(&v)));
    c.field("git_rev", Json::str(&capture("git", &["rev-parse", "HEAD"])));
    c.field("rustc", Json::str(&capture("rustc", &["--version"])));
    let mut t = Json::object();
    t.field("profile", Json::str("large"));
    t.field("hours", Json::num(spec.hours));
    t.field("interval_s", Json::num(f64::from(INTERVAL_SECS)));
    t.field("scale", Json::num(spec.scale));
    t.field("dos", spec.dos.as_deref().map_or(Json::Null, Json::str));
    c.field("trace", t);
    c.field("seed", Json::num(args.seed as f64));
    c.field("records", Json::num(reference.records as f64));
    c.field("intervals", Json::num(reference.intervals() as f64));
    c.field("smoke", Json::bool(args.smoke));
    c
}

/// Every per-layer metric with its unit, in contract order. The query
/// and correctness figures of the timed runs ride along, so that a traced
/// invocation reports them too.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("io.decode_s", "s"),
    ("io.records", "count"),
    ("io.mb_per_s", "MB/s"),
    ("segment.busy_s", "s"),
    ("detector.interval_s", "s"),
    ("detector.keys_scanned", "count"),
    ("detector.alarms", "count"),
    ("engine.route_s", "s"),
    ("engine.ingest_batch_s", "s"),
    ("engine.barrier_s", "s"),
    ("engine.combine_s", "s"),
    ("engine.detect_s", "s"),
    ("engine.queue_depth_max", "count"),
    ("engine.recycle_hit_ratio", "ratio"),
    ("glr.slot_close_s", "s"),
    ("glr.feed_s", "s"),
    ("glr.provisional", "count"),
    ("glr.confirmed", "count"),
    ("glr.confirm_ratio", "ratio"),
    ("streaming.records", "count"),
    ("streaming.dropped", "count"),
    ("supervisor.restarts", "count"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("serve.snapshot_s", "s"),
    ("serve.rebuild_lag_max", "count"),
    ("serve.view_bytes", "bytes"),
    ("serve.answer_s.estimate", "s"),
    ("serve.answer_s.changed_keys", "s"),
    ("serve.answer_s.key_history", "s"),
    ("serve.answer_s.range_sketch", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.replay_s", "s"),
    ("frame.encode_s", "s"),
    ("frame.decode_s", "s"),
    ("frame.bytes", "bytes"),
    ("spool.store_s", "s"),
    ("sender.end_interval_s", "s"),
    ("sender.exit_tail_s", "s"),
    ("sender.resent", "count"),
    ("aggregator.duplicates", "count"),
    ("aggregator.partial", "count"),
    ("layer.io_s", "s"),
    ("layer.segment_s", "s"),
    ("layer.detector_s", "s"),
    ("layer.engine_s", "s"),
    ("layer.glr_s", "s"),
    ("layer.streaming_s", "s"),
    ("layer.serve_s", "s"),
    ("layer.net_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("interval_mismatch_ratio", "ratio"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("readonly_p50_ms", "ms"),
    ("readonly_p99_ms", "ms"),
    ("query_fail_ratio", "ratio"),
    ("gen.late_p99_ms", "ms"),
];

/// Builds the per-layer metrics of a traced invocation: the replay's
/// timeline and probes, the `--metrics` files of the last traced command
/// run, and the timed runs' figures in `e2e`.
fn layer_metrics(
    w: Workload,
    trace: &Path,
    reference: &Reference,
    work: &Path,
    walls: &[f64],
    traced: &[RunOutcome],
    e2e: &[(&str, f64, &str)],
) -> Res<(Vec<Metric>, Tracer)> {
    let replay = replay::replay(w, trace, reference, work)?;
    let tr = &replay.tracer;
    let mut m: BTreeMap<String, f64> =
        replay.metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let decode_s = tr.total("io.next_chunk");
    set("io.decode_s", decode_s);
    set("io.records", reference.records as f64);
    set("io.mb_per_s", ratio(std::fs::metadata(trace)?.len() as f64 / 1e6, decode_s));
    set("segment.busy_s", tr.total("segment.push") + tr.total("segment.finish"));
    if w == Workload::Detect {
        set("detector.interval_s", tr.total("detector.process_interval"));
    }
    set("engine.route_s", tr.total("engine.push_slice_parallel") + tr.total("engine.push_slice"));
    set("glr.slot_close_s", tr.total("glr.end_glr_slot"));
    set("sender.end_interval_s", tr.total("sender.end_interval"));
    // Keys scanned and alarms are properties of the reports, which every
    // command reproduces bit for bit.
    set("detector.keys_scanned", reference.keys_scanned as f64);
    set("detector.alarms", reference.alarms as f64);

    // Stage sums and counters from the commands' own `--metrics` files.
    let snap = Snapshots::load(traced.last().map_or(&[][..], |o| &o.metrics_files));
    set("engine.ingest_batch_s", snap.last("scd_engine_ingest_batch_ns_sum") / 1e9);
    set("engine.barrier_s", snap.last("scd_engine_barrier_ns_sum") / 1e9);
    set("engine.combine_s", snap.last("scd_engine_combine_ns_sum") / 1e9);
    set("engine.detect_s", snap.last("scd_engine_detect_ns_sum") / 1e9);
    set("engine.queue_depth_max", snap.max("scd_engine_queue_depth"));
    let (hits, misses) =
        (snap.last("scd_engine_recycle_hits_total"), snap.last("scd_engine_recycle_misses_total"));
    set("engine.recycle_hit_ratio", ratio(hits, hits + misses));
    set("serve.snapshot_s", snap.last("scd_serve_snapshot_ns_sum") / 1e9);
    set("serve.rebuild_lag_max", snap.max("scd_serve_rebuild_lag"));
    set("serve.view_bytes", snap.last("scd_serve_view_bytes"));
    let (hits, misses) = (snap.last("scd_serve_cache_hits"), snap.last("scd_serve_cache_misses"));
    set("serve.cache_hit_ratio", ratio(hits, hits + misses));
    set("serve.coalesced", snap.last("scd_serve_coalesced_total"));

    // Self time per layer, and what no layer span covers.
    let self_times = tr.self_times();
    for layer in trace::LAYERS {
        let s =
            self_times.iter().filter(|(n, _)| trace::layer_of(n) == layer).map(|(_, s)| s).sum();
        set(&format!("layer.{layer}_s"), s);
    }
    set("trace.wall_s", tr.total("run"));
    set("trace.unattributed_s", self_times.get("run").copied().unwrap_or(0.0));
    let traced_walls: Vec<f64> = traced.iter().filter(|o| o.ok).map(|o| o.wall_s).collect();
    set("trace.overhead_s", median(&traced_walls) - median(walls));
    for (name, v, _) in e2e {
        set(name, *v);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), m.get(*n).copied().unwrap_or(0.0), *u))
        .collect();
    Ok((metrics, replay.tracer))
}

/// The per-interval snapshot lines of `--metrics` files.
struct Snapshots(Vec<BTreeMap<String, f64>>);

impl Snapshots {
    fn load(files: &[PathBuf]) -> Snapshots {
        let mut lines = Vec::new();
        for f in files {
            for l in std::fs::read_to_string(f).unwrap_or_default().lines() {
                if let Ok(fields) = scd_obs::parse_flat_json(l) {
                    lines.push(fields.into_iter().collect());
                }
            }
        }
        Snapshots(lines)
    }

    fn last(&self, name: &str) -> f64 {
        self.0.iter().rev().find_map(|l| l.get(name).copied()).unwrap_or(0.0)
    }

    fn max(&self, name: &str) -> f64 {
        self.0.iter().filter_map(|l| l.get(name).copied()).fold(0.0, f64::max)
    }
}
