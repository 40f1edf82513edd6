//! The five workloads: how each drives the real `scd` binary, and one
//! timed run of it checked against the reference.

use crate::oracle::{Reference, H, INTERVAL_SECS, K, MODEL};
use crate::proc::{Pipe, Proc, HARD_TIMEOUT};
use crate::querygen::{self, Control, QueryStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `scd detect` with CLI defaults: the bare single-threaded loop.
    Detect,
    /// `scd detect --shards 2 --pipeline --glr 6` on a trace with a DoS.
    DetectGlr,
    /// `scd stream` with periodic checkpoints.
    Stream,
    /// `scd serve` under an open-loop query mix.
    ServeMix,
    /// `scd aggregate` plus two `scd ingest-node`s over loopback.
    Distributed,
}

/// Slots per interval of `detect_glr`.
pub const GLR_SLOTS: usize = 6;
/// Shards of the engine-backed commands, sized for a 2-CPU box.
pub const SHARDS: usize = 2;
/// Nodes of the distributed plane.
pub const NODES: u32 = 2;
/// `--linger-secs` of `serve_mix`: how long the read-only phase lasts.
const LINGER_SECS: u64 = 1;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::Detect,
        Workload::DetectGlr,
        Workload::Stream,
        Workload::ServeMix,
        Workload::Distributed,
    ];

    /// The name the benchmark contract uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Detect => "detect",
            Workload::DetectGlr => "detect_glr",
            Workload::Stream => "stream",
            Workload::ServeMix => "serve_mix",
            Workload::Distributed => "distributed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's trace carries one injected DoS.
    pub fn injects_dos(self) -> bool {
        matches!(self, Workload::DetectGlr | Workload::ServeMix)
    }
}

/// What one run needs besides the trace.
pub struct Ctx<'a> {
    /// Path of the `scd` binary.
    pub scd: &'a str,
    /// Scratch directory of this benchmark invocation.
    pub work: &'a Path,
    /// Seed of the query schedule.
    pub seed: u64,
    /// Keys the query generator asks about.
    pub keys: &'a [u64],
    /// No run may outlast this instant; what is still running is killed.
    pub deadline: Instant,
}

/// Per-run switches.
#[derive(Clone, Copy, Default)]
pub struct RunOpts {
    /// Pass `--metrics FILE` to every command process.
    pub metrics: bool,
    /// Drive the query generator (`serve_mix` only).
    pub queries: bool,
}

/// What one run measured.
#[derive(Default)]
pub struct RunOutcome {
    /// Every process exited 0 before the hard timeout.
    pub ok: bool,
    /// Launch of the first process to the command's exit; for
    /// `distributed`, to the aggregator's exit, once every report is out.
    pub wall_s: f64,
    /// `serve_mix` only: launch to the end of replay, before the linger.
    pub replay_s: f64,
    /// `distributed` only: how long the last node outlived the aggregator.
    pub node_tail_s: f64,
    /// Launch to the first `interval N:` report line.
    pub first_report_s: Option<f64>,
    /// Largest peak RSS among the run's processes (KiB).
    pub peak_rss_kb: i64,
    /// Intervals missing, flagged partial, or different from the reference.
    pub mismatched: usize,
    /// Query generator outcome, when it ran.
    pub queries: Option<QueryStats>,
    /// `--metrics` files written, one per process that supports them.
    pub metrics_files: Vec<PathBuf>,
}

/// The trace and interval flags of every trace-reading command.
fn common(trace: &Path) -> Vec<String> {
    strs(&["--trace", &trace.display().to_string(), "--interval", &INTERVAL_SECS.to_string()])
}

/// Sketch shape, shared by every command that builds sketches.
fn sketch_args() -> Vec<String> {
    strs(&["--h", &H.to_string(), "--k", &K.to_string()])
}

/// Model and sketch shape of every detecting command.
fn model_args() -> Vec<String> {
    let mut v = strs(&["--model", MODEL]);
    v.extend(sketch_args());
    v
}

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// Launch to the first `interval N:` line, read once the pipe is closed.
fn first_report(stdout: &Pipe, started: Instant) -> Option<f64> {
    stdout
        .lines()
        .iter()
        .find(|(_, l)| l.starts_with("interval "))
        .map(|(t, _)| (*t - started).as_secs_f64())
}

fn addr_from(p: &Proc, banner: &str, deadline: Instant) -> Option<String> {
    let (_, line) = p.err.wait_for(deadline, |l| l.starts_with(banner))?;
    Some(line[banner.len()..].trim().to_string())
}

/// Runs the workload once over `trace` and checks its reports.
pub fn run(
    w: Workload,
    ctx: &Ctx,
    trace: &Path,
    reference: &Reference,
    rep: usize,
    opts: RunOpts,
) -> RunOutcome {
    let deadline = (Instant::now() + HARD_TIMEOUT).min(ctx.deadline);
    let file = |what: &str| ctx.work.join(format!("rep{rep}-{what}"));
    // A run that ends early delivered none of its reports.
    let mut out = RunOutcome { mismatched: reference.intervals(), ..RunOutcome::default() };
    let mut metrics_arg = |args: &mut Vec<String>, who: &str| {
        if opts.metrics {
            let f = file(&format!("{who}-metrics.jsonl"));
            args.extend(["--metrics".into(), f.display().to_string()]);
            out.metrics_files.push(f);
        }
    };
    match w {
        Workload::Detect | Workload::DetectGlr | Workload::Stream => {
            let report = file("report.txt");
            let checkpoint = file("checkpoint.bin");
            let mut args =
                if w == Workload::Stream { strs(&["stream"]) } else { strs(&["detect"]) };
            args.extend(common(trace));
            args.extend(model_args());
            match w {
                Workload::Stream => args.extend(strs(&[
                    "--checkpoint",
                    &checkpoint.display().to_string(),
                    "--every",
                    "10",
                ])),
                _ => args.extend(strs(&["--report-out", &report.display().to_string()])),
            }
            if w == Workload::DetectGlr {
                args.extend(strs(&[
                    "--shards",
                    &SHARDS.to_string(),
                    "--pipeline",
                    "--glr",
                    &GLR_SLOTS.to_string(),
                ]));
            }
            metrics_arg(&mut args, "command");
            let Ok(p) = Proc::spawn(ctx.scd, &args) else { return out };
            let started = p.started;
            let stdout = Arc::clone(&p.out);
            let Some(exit) = p.finish(deadline) else { return out };
            out.ok = exit.success;
            out.wall_s = (exit.at - started).as_secs_f64();
            out.first_report_s = first_report(&stdout, started);
            out.peak_rss_kb = exit.max_rss_kb;
            out.mismatched = if w == Workload::Stream {
                let lines = stdout.lines();
                reference.mismatches_stdout(lines.iter().map(|(_, l)| l.as_str()))
            } else {
                reference
                    .mismatches_canonical(&std::fs::read_to_string(&report).unwrap_or_default())
            };
            let _ = std::fs::remove_file(&report);
            let _ = std::fs::remove_file(&checkpoint);
        }
        Workload::ServeMix => {
            let mut args = strs(&["serve"]);
            args.extend(common(trace));
            args.extend(model_args());
            args.extend(strs(&[
                "--shards",
                &SHARDS.to_string(),
                "--pipeline",
                "--listen",
                "127.0.0.1:0",
            ]));
            let linger = if opts.queries { LINGER_SECS } else { 0 };
            args.extend(strs(&["--linger-secs", &linger.to_string()]));
            metrics_arg(&mut args, "command");
            let Ok(p) = Proc::spawn(ctx.scd, &args) else { return out };
            let started = p.started;
            let Some(addr) = addr_from(&p, "serving queries on ", deadline) else {
                p.kill();
                return out;
            };
            let mut replay_end = None;
            if opts.queries {
                let control = Control::default();
                let stats = std::thread::scope(|s| {
                    let gen =
                        s.spawn(|| querygen::run(&addr, ctx.seed ^ rep as u64, ctx.keys, &control));
                    replay_end =
                        p.err.wait_for(deadline, |l| l.starts_with("replay done")).map(|(t, _)| t);
                    control.enter_readonly();
                    // Stop a quarter of the linger early so every reply is
                    // back before the server closes.
                    if let Some(t) = replay_end {
                        let stop_at = t + Duration::from_secs_f64(linger as f64 * 0.75);
                        std::thread::sleep(stop_at.saturating_duration_since(Instant::now()));
                    }
                    control.stop();
                    gen.join().expect("query generator panicked")
                });
                out.queries = Some(stats);
            }
            let stdout = Arc::clone(&p.out);
            let Some(exit) = p.finish(deadline) else { return out };
            out.ok = exit.success && (!opts.queries || replay_end.is_some());
            out.wall_s = (exit.at - started).as_secs_f64();
            out.replay_s = replay_end.map_or(0.0, |t| (t - started).as_secs_f64());
            out.first_report_s = first_report(&stdout, started);
            out.peak_rss_kb = exit.max_rss_kb;
            let lines = stdout.lines();
            out.mismatched = reference.mismatches_stdout(lines.iter().map(|(_, l)| l.as_str()));
        }
        Workload::Distributed => {
            let report = file("report.txt");
            let mut args =
                strs(&["aggregate", "--listen", "127.0.0.1:0", "--nodes", &NODES.to_string()]);
            args.extend(model_args());
            args.extend(strs(&["--report-out", &report.display().to_string()]));
            metrics_arg(&mut args, "aggregator");
            let Ok(agg) = Proc::spawn(ctx.scd, &args) else { return out };
            let started = agg.started;
            let Some(addr) = addr_from(&agg, &format!("aggregating {NODES} nodes on "), deadline)
            else {
                agg.kill();
                return out;
            };
            let mut nodes = Vec::new();
            for node in 0..NODES {
                let spool = file(&format!("spool{node}"));
                let mut a = strs(&["ingest-node"]);
                a.extend(common(trace));
                a.extend(sketch_args());
                a.extend(strs(&[
                    "--node",
                    &node.to_string(),
                    "--nodes",
                    &NODES.to_string(),
                    "--connect",
                    &addr,
                ]));
                a.extend(strs(&["--spool", &spool.display().to_string()]));
                match Proc::spawn(ctx.scd, &a) {
                    Ok(p) => nodes.push((p, spool)),
                    Err(_) => break,
                }
            }
            let all_spawned = nodes.len() == NODES as usize;
            let mut ok = all_spawned;
            let mut end = started;
            for (p, spool) in nodes {
                match p.finish(if all_spawned { deadline } else { Instant::now() }) {
                    Some(e) => {
                        ok &= e.success;
                        end = end.max(e.at);
                        out.peak_rss_kb = out.peak_rss_kb.max(e.max_rss_kb);
                    }
                    None => ok = false,
                }
                let _ = std::fs::remove_dir_all(spool);
            }
            let stdout = Arc::clone(&agg.out);
            let Some(exit) = agg.finish(if all_spawned { deadline } else { Instant::now() }) else {
                return out;
            };
            out.ok = ok && exit.success;
            // Nodes sometimes sit out seconds of reconnect backoff after
            // the aggregator has gone; that tail is kept apart so that it
            // neither hides nor swamps the plane's own throughput.
            out.wall_s = (exit.at - started).as_secs_f64();
            out.node_tail_s = end.saturating_duration_since(exit.at).as_secs_f64();
            out.first_report_s = first_report(&stdout, started);
            out.peak_rss_kb = out.peak_rss_kb.max(exit.max_rss_kb);
            let lines = stdout.lines();
            out.mismatched = reference
                .mismatches_canonical(&std::fs::read_to_string(&report).unwrap_or_default())
                .max(reference.mismatches_stdout(lines.iter().map(|(_, l)| l.as_str())));
            let _ = std::fs::remove_file(&report);
        }
    }
    out
}
