//! End-to-end tests of the `scd` binary: generate → info → tune → detect,
//! exercising the composed pipeline exactly as a user would.

use std::path::PathBuf;
use std::process::Command;

fn scd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scd"))
}

fn temp_trace(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("scd-cli-test-{name}-{}.bin", std::process::id()));
    p
}

fn run(cmd: &mut Command) -> (String, String, bool) {
    let out = cmd.output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn generate_info_detect_pipeline() {
    let trace = temp_trace("pipeline");
    let trace_s = trace.to_str().unwrap();

    // Generate half an hour with a strong DoS at interval 12.
    let (stdout, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.5", "--interval", "60"])
        .args(["--out", trace_s, "--dos", "10:12:2:30", "--seed", "7"]));
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("wrote"), "{stdout}");
    // The victim IP is announced; remember it.
    let victim = stdout
        .lines()
        .find(|l| l.contains("injected dos"))
        .and_then(|l| l.split_whitespace().nth(3))
        .expect("victim ip printed")
        .to_string();

    // Info reports plausible stats.
    let (stdout, stderr, ok) = run(scd().args(["info", "--trace", trace_s]));
    assert!(ok, "info failed: {stderr}");
    assert!(stdout.contains("records:"), "{stdout}");
    assert!(stdout.contains("top talkers"), "{stdout}");

    // Detect flags the victim at interval 12.
    let (stdout, stderr, ok) = run(scd()
        .args(["detect", "--trace", trace_s, "--interval", "60"])
        .args(["--model", "ewma:0.5", "--threshold", "0.4", "--k", "8192"]));
    assert!(ok, "detect failed: {stderr}");
    let after_12 = stdout.split("interval 12:").nth(1).expect("interval 12 in output");
    let block_12 = after_12.split("interval").next().expect("block");
    assert!(block_12.contains(&victim), "victim {victim} not alarmed at interval 12:\n{stdout}");

    // The reversible strategy finds it too — with no key replay.
    let (stdout, stderr, ok) = run(scd()
        .args(["detect", "--trace", trace_s, "--interval", "60"])
        .args(["--model", "ewma:0.5", "--threshold", "0.4", "--k", "4096"])
        .args(["--strategy", "reversible"]));
    assert!(ok, "reversible detect failed: {stderr}");
    assert!(stdout.contains(&victim), "reversible missed {victim}:\n{stdout}");

    std::fs::remove_file(&trace).ok();
}

#[test]
fn tune_emits_spec_that_detect_accepts() {
    let trace = temp_trace("tune");
    let trace_s = trace.to_str().unwrap();
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.25", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "3"]));
    assert!(ok, "generate failed: {stderr}");

    let (stdout, stderr, ok) = run(scd().args([
        "tune",
        "--trace",
        trace_s,
        "--interval",
        "60",
        "--model",
        "ewma",
        "--quiet",
    ]));
    assert!(ok, "tune failed: {stderr}");
    let spec = stdout.trim().to_string();
    assert!(spec.starts_with("ewma:"), "unexpected spec '{spec}'");

    let (_, stderr, ok) =
        run(scd().args(["detect", "--trace", trace_s, "--interval", "60", "--model", &spec]));
    assert!(ok, "detect with tuned spec failed: {stderr}");

    std::fs::remove_file(&trace).ok();
}

#[test]
fn helpful_errors() {
    // No subcommand → usage on stderr, exit code 2.
    let out = scd().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Missing required flag names the flag.
    let (_, stderr, ok) = run(scd().args(["info"]));
    assert!(!ok);
    assert!(stderr.contains("--trace"), "{stderr}");

    // Bad model spec names the offender.
    let (_, stderr, ok) = run(scd().args([
        "detect",
        "--trace",
        "/nonexistent",
        "--interval",
        "60",
        "--model",
        "bogus:1",
    ]));
    assert!(!ok);
    assert!(stderr.contains("bogus"), "{stderr}");

    // Flag errors surface before the trace is read, naming the flag.
    let trace = temp_trace("flagerrs");
    let trace_s = trace.to_str().unwrap();
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.1", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "3"]));
    assert!(ok, "generate failed: {stderr}");
    let detect = ["detect", "--trace", trace_s, "--interval", "60", "--model", "ewma:0.5"];
    let (_, stderr, ok) =
        run(scd().args(["detect", "--trace", trace_s, "--interval", "0", "--model", "ewma:0.5"]));
    assert!(!ok && stderr.contains("--interval"), "{stderr}");
    // Every other trace reader names a zero interval too instead of panicking.
    for (cmd, model) in [("stream", "ewma:0.5"), ("tune", "ewma")] {
        let (_, stderr, ok) =
            run(scd().args([cmd, "--trace", trace_s, "--interval", "0", "--model", model]));
        assert!(!ok && stderr.contains("--interval"), "{cmd}: {stderr}");
    }
    let (_, stderr, ok) =
        run(scd().args(detect).args(["--strategy", "reversible", "--shards", "4"]));
    assert!(!ok, "--strategy reversible --shards 4 accepted");
    assert!(stderr.contains("--strategy reversible"), "{stderr}");
    let (_, stderr, ok) = run(scd().args(detect).args(["--shards", "0"]));
    assert!(!ok, "--shards 0 accepted");
    assert!(stderr.contains("--shards"), "{stderr}");
    let (stdout, stderr, ok) = run(scd().args(detect).args(["--glr", "7"]));
    assert!(!ok, "--glr 7 accepted with --interval 60");
    assert!(stderr.contains("--glr 7"), "{stderr}");
    assert!(!stdout.contains("detecting over"), "banner printed before the flag check:\n{stdout}");
    let checkpoint = trace.with_extension("ckpt");
    let (_, stderr, ok) = run(scd()
        .args(["stream", "--trace", trace_s, "--interval", "60", "--model", "ewma:0.5"])
        .args(["--checkpoint", checkpoint.to_str().unwrap(), "--every", "banana"]));
    assert!(!ok, "--every banana accepted");
    assert!(stderr.contains("--every"), "{stderr}");
    let (_, stderr, ok) = run(scd()
        .args(["aggregate", "--listen", "127.0.0.1:0", "--nodes", "1", "--model", "ewma:0.5"])
        .args(["--checkpoint", checkpoint.to_str().unwrap(), "--every", "0"])
        .args(["--timeout-secs", "1"]));
    assert!(!ok, "--every 0 accepted");
    assert!(stderr.contains("--every"), "{stderr}");
    // A flag the command does not use is named, before the trace is read.
    let report = trace.with_extension("unused-report");
    let (_, stderr, ok) = run(scd()
        .args(["stream", "--trace", "/nonexistent", "--interval", "60", "--model", "ewma:0.5"])
        .args(["--report-out", report.to_str().unwrap()]));
    assert!(!ok && stderr.contains("unknown flag --report-out"), "{stderr}");
    assert!(!report.exists(), "stream created the --report-out file it does not write");
    let (_, stderr, ok) = run(scd()
        .args(["tune", "--trace", "/nonexistent", "--interval", "60", "--model", "ewma"])
        .args(["--shards", "4"]));
    assert!(!ok && stderr.contains("unknown flag --shards"), "{stderr}");
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&checkpoint).ok();

    // CSV round trip: generate csv, info reads it.
    let trace = temp_trace("csvgen");
    let csv = trace.with_extension("csv");
    let csv_s = csv.to_str().unwrap();
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.1", "--interval", "60"])
        .args(["--out", csv_s]));
    assert!(ok, "csv generate failed: {stderr}");
    let (stdout, _, ok) = run(scd().args(["info", "--trace", csv_s]));
    assert!(ok && stdout.contains("records:"));
    std::fs::remove_file(&csv).ok();
}

/// The value of `"name":` in a flat JSON snapshot line.
fn json_number(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":");
    let start = line.find(&key).unwrap_or_else(|| panic!("{name} missing: {line}")) + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().unwrap_or_else(|_| panic!("{name} not a number: {line}"))
}

#[test]
fn default_detect_metrics_time_the_engine_stages() {
    // A plain `detect` (one shard, no pipeline) runs on the engine, so its
    // snapshots carry the engine counters and stage timings.
    let trace = temp_trace("metrics");
    let trace_s = trace.to_str().unwrap();
    let metrics = trace.with_extension("jsonl");
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.2", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "11"]));
    assert!(ok, "generate failed: {stderr}");
    let (_, stderr, ok) = run(scd()
        .args(["detect", "--trace", trace_s, "--interval", "60", "--model", "ewma:0.5"])
        .args(["--metrics", metrics.to_str().unwrap()]));
    assert!(ok, "detect failed: {stderr}");
    let text = std::fs::read_to_string(&metrics).expect("metrics file");
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).expect("snapshot lines");
    for name in
        ["scd_engine_records_total", "scd_engine_barrier_ns_count", "scd_engine_detect_ns_count"]
    {
        assert!(json_number(last, name) > 0.0, "{name} is 0 on a default detect: {last}");
    }
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn sketch_combine_workflow() {
    let trace = temp_trace("sketchwf");
    let trace_s = trace.to_str().unwrap();
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.2", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "5"]));
    assert!(ok, "generate failed: {stderr}");

    let a = trace.with_extension("a.sketch");
    let b = trace.with_extension("b.sketch");
    let sum = trace.with_extension("sum.sketch");
    for (at, path) in [("3", &a), ("4", &b)] {
        let (_, stderr, ok) = run(scd()
            .args(["sketch", "--trace", trace_s, "--interval", "60", "--at", at])
            .args(["--out", path.to_str().unwrap(), "--k", "4096"]));
        assert!(ok, "sketch failed: {stderr}");
    }
    let (stdout, stderr, ok) = run(scd()
        .args(["combine", "--out", sum.to_str().unwrap()])
        .args([a.to_str().unwrap(), b.to_str().unwrap()])
        .args(["--query", "10.0.0.1"]));
    assert!(ok, "combine failed: {stderr}");
    assert!(stdout.contains("combined 2 sketch(es)"), "{stdout}");
    assert!(stdout.contains("estimate[10.0.0.1]"), "{stdout}");

    // Mixing hash families must be rejected, not silently wrong.
    let c = trace.with_extension("c.sketch");
    let (_, _, ok) = run(scd()
        .args(["sketch", "--trace", trace_s, "--interval", "60", "--at", "3"])
        .args(["--out", c.to_str().unwrap(), "--k", "4096", "--sketch-seed", "999"]));
    assert!(ok);
    let (_, stderr, ok) = run(scd()
        .args(["combine", "--out", sum.to_str().unwrap()])
        .args([a.to_str().unwrap(), c.to_str().unwrap()]));
    assert!(!ok, "incompatible combine must fail");
    assert!(stderr.contains("hash famil"), "{stderr}");

    for p in [&trace, &a, &b, &c, &sum] {
        std::fs::remove_file(p).ok();
    }
}

/// The historical workflow: generate a trace with an injected DoS, replay
/// it through the 4-shard archiving engine, then query the archive for
/// the attack window — the victim must come back as a changed key, and
/// its per-key history must carry the burst.
#[test]
fn archive_query_workflow() {
    let trace = temp_trace("archive");
    let trace_s = trace.to_str().unwrap();
    let (stdout, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.5", "--interval", "60"])
        .args(["--out", trace_s, "--dos", "10:12:2:30", "--seed", "7"]));
    assert!(ok, "generate failed: {stderr}");
    let victim = stdout
        .lines()
        .find(|l| l.contains("injected dos"))
        .and_then(|l| l.split_whitespace().nth(3))
        .expect("victim ip printed")
        .to_string();

    let hist = trace.with_extension("scda");
    let hist_s = hist.to_str().unwrap();
    let (stdout, stderr, ok) = run(scd()
        .args(["archive", "--trace", trace_s, "--interval", "60", "--model", "ewma:0.5"])
        .args(["--out", hist_s, "--shards", "4", "--k", "8192"])
        .args(["--budget", "16", "--full-res", "4", "--threshold", "0.4"]));
    assert!(ok, "archive failed: {stderr}");
    assert!(stdout.contains("archive: intervals [0, 30)"), "{stdout}");

    // The attack ran over intervals 12..=13; ask for the dyadic-decayed
    // window around it.
    let (stdout, stderr, ok) = run(scd()
        .args(["query", "--archive", hist_s, "--from", "8", "--to", "16"])
        .args(["--threshold", "0.4"]));
    assert!(ok, "query failed: {stderr}");
    assert!(stdout.contains(&victim), "victim {victim} not in change report:\n{stdout}");

    // Per-key history localizes the burst inside the window.
    let (stdout, stderr, ok) = run(scd()
        .args(["query", "--archive", hist_s, "--from", "0", "--to", "30"])
        .args(["--key", &victim]));
    assert!(ok, "history query failed: {stderr}");
    assert!(stdout.contains("history of"), "{stdout}");

    // Out-of-range windows fail loudly instead of answering nonsense.
    let (_, stderr, ok) =
        run(scd().args(["query", "--archive", hist_s, "--from", "50", "--to", "60"]));
    assert!(!ok, "out-of-range query must fail");
    assert!(stderr.contains("out"), "{stderr}");

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&hist).ok();
}

/// Runs `scd stream` with `args`, failing the test if it has not exited
/// within 120 s. Stdout goes to a file so a full pipe can never
/// masquerade as the deadlock these tests hunt. Returns stdout.
fn stream_with_watchdog(args: &[&str], out_path: &std::path::Path) -> String {
    let out_file = std::fs::File::create(out_path).expect("stdout file");
    let mut child =
        scd().arg("stream").args(args).stdout(out_file).spawn().expect("spawn scd stream");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let status = loop {
        match child.try_wait().expect("poll scd stream") {
            Some(status) => break status,
            None if std::time::Instant::now() > deadline => {
                child.kill().ok();
                panic!("scd stream made no progress within 120s: deadlocked");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    };
    assert!(status.success(), "stream exited with failure");
    let stdout = std::fs::read_to_string(out_path).expect("read stream output");
    std::fs::remove_file(out_path).ok();
    stdout
}

/// `scd stream` over 90 event-time intervals: the detector emits reports
/// while the CLI is still sending records, and neither side may end up
/// waiting on the other.
#[test]
fn stream_with_many_intervals_does_not_deadlock() {
    let trace = temp_trace("stream-many");
    let trace_s = trace.to_str().unwrap();
    // 1.5 hours at 60s intervals = 90 intervals.
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "1.5", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "11"]));
    assert!(ok, "generate failed: {stderr}");

    let stdout = stream_with_watchdog(
        &["--trace", trace_s, "--interval", "60", "--model", "ewma:0.5"],
        &trace.with_extension("out"),
    );
    assert!(stdout.contains("streamed"), "{stdout}");
    std::fs::remove_file(&trace).ok();
}

/// An event-time jump of 200 intervals while the record queue is full:
/// the detector closes 200 intervals in one step, and must not block on
/// a report queue nobody drains while the producer blocks on the full
/// record queue.
#[test]
fn stream_survives_event_time_gap_with_full_queue() {
    let trace = temp_trace("stream-gap").with_extension("csv");
    let mut csv =
        String::from("timestamp_ms,src_ip,dst_ip,src_port,dst_port,protocol,bytes,packets\n");
    for base in [0u64, 200_000] {
        for i in 0..20_000u64 {
            let ts = base + i * 999 / 20_000;
            csv.push_str(&format!(
                "{ts},{},{},1234,80,6,{},1\n",
                i % 97 + 1,
                i % 503 + 1,
                100 + i % 1_000
            ));
        }
    }
    std::fs::write(&trace, csv).expect("write gap trace");

    let trace_s = trace.to_str().unwrap();
    let args =
        ["--trace", trace_s, "--interval", "1", "--model", "ewma:0.5", "--h", "3", "--k", "1024"];
    let stdout = stream_with_watchdog(&args, &trace.with_extension("out"));
    assert!(stdout.contains("streamed 40000 records; detector processed 40000"), "{stdout}");
    std::fs::remove_file(&trace).ok();
}

/// Stream reports print as their intervals close, in interval order, and
/// the run summary comes after the last of them — the same report lines
/// `detect` prints, in the same order.
#[test]
fn stream_prints_reports_in_order_then_summary() {
    let trace = temp_trace("stream-order");
    let trace_s = trace.to_str().unwrap();
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.5", "--interval", "60"])
        .args(["--out", trace_s, "--dos", "10:12:2:30", "--seed", "7"]));
    assert!(ok, "generate failed: {stderr}");
    let common = ["--trace", trace_s, "--interval", "60", "--model", "ewma:0.5", "--k", "4096"];

    let stdout = stream_with_watchdog(&common, &trace.with_extension("out"));
    let lines: Vec<&str> = stdout.lines().collect();
    let report_related = |l: &&str| {
        l.starts_with("interval ") || l.starts_with("  ALARM") || l.starts_with("  interval ")
    };
    let intervals: Vec<usize> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("interval ")?.strip_suffix(':')?.parse().ok())
        .collect();
    assert!(intervals.len() > 5, "too few alarm blocks:\n{stdout}");
    assert!(intervals.windows(2).all(|w| w[0] < w[1]), "blocks out of order: {intervals:?}");
    let summary = lines
        .iter()
        .position(|l| l.starts_with("streamed "))
        .unwrap_or_else(|| panic!("no summary:\n{stdout}"));
    let last_report = lines.iter().rposition(report_related).expect("report lines");
    assert!(last_report < summary, "report line after the summary:\n{stdout}");

    let (detected, stderr, ok) = run(scd().arg("detect").args(common));
    assert!(ok, "detect failed: {stderr}");
    let report_lines = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.starts_with("interval ") || l.starts_with("  ALARM"))
            .map(String::from)
            .collect()
    };
    assert_eq!(report_lines(&stdout), report_lines(&detected));
    std::fs::remove_file(&trace).ok();
}

/// Live serving must agree with the offline archive byte for byte: run
/// `scd serve` over an integer-valued trace (ma:1 keeps forecast errors
/// integral, so the slim f32 read path is exact), `scd ask` every query
/// shape while the server lingers, then diff the body lines against
/// offline `scd query` over the archive the same run dumped. Every ask
/// response — data, live, and error alike — must announce the `as_of`
/// interval it was answered at.
#[test]
fn ask_matches_offline_query_and_prints_as_of() {
    let trace = temp_trace("serve-ask");
    let trace_s = trace.to_str().unwrap();
    let (stdout, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.5", "--interval", "60"])
        .args(["--out", trace_s, "--dos", "10:12:2:30", "--seed", "7"]));
    assert!(ok, "generate failed: {stderr}");
    let victim = stdout
        .lines()
        .find(|l| l.contains("injected dos"))
        .and_then(|l| l.split_whitespace().nth(3))
        .expect("victim ip printed")
        .to_string();

    let dump = trace.with_extension("scda");
    let dump_s = dump.to_str().unwrap();
    let addr = format!("127.0.0.1:{}", 21000 + (std::process::id() % 10_000) as u16);
    // Replay finishes in well under a second; the linger window is where
    // the asks land. Stdout/stderr go to files so a full pipe can never
    // stall the server, and so the test can watch for "replay done".
    let out_path = trace.with_extension("serve-out");
    let err_path = trace.with_extension("serve-err");
    let mut child = scd()
        .args(["serve", "--trace", trace_s, "--interval", "60", "--model", "ma:1"])
        .args(["--listen", &addr, "--k", "8192", "--threshold", "0.4", "--shards", "2"])
        .args(["--budget", "16", "--full-res", "4", "--out", dump_s])
        .args(["--linger-secs", "15"])
        .stdout(std::fs::File::create(&out_path).expect("stdout file"))
        .stderr(std::fs::File::create(&err_path).expect("stderr file"))
        .spawn()
        .expect("spawn scd serve");

    // Ask only once replay is done, so every answer reflects the final view.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let log = std::fs::read_to_string(&err_path).unwrap_or_default();
        if log.contains("replay done") {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll scd serve") {
            panic!("scd serve exited early ({status}): {log}");
        }
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            panic!("scd serve never finished replay: {log}");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    let ask = |extra: &[&str]| -> String {
        let (stdout, stderr, ok) = run(scd().args(["ask", "--addr", &addr]).args(extra));
        assert!(ok, "ask {extra:?} failed: {stderr}");
        assert!(stdout.contains("as of interval"), "ask {extra:?} lost as_of:\n{stdout}");
        stdout
    };
    let changed = ask(&["--changed", "--from", "8", "--to", "16", "--threshold", "0.4"]);
    let history = ask(&["--history", &victim, "--from", "0", "--to", "30"]);
    let estimate = ask(&["--estimate", &victim, "--from", "8", "--to", "16"]);
    let live = ask(&["--estimate", &victim]);
    assert!(live.contains("live estimate as of interval"), "{live}");
    assert!(live.contains("slim-sketch bound"), "{live}");
    let range = ask(&["--range", "--from", "8", "--to", "16"]);
    assert!(range.contains("epochs, sum"), "{range}");
    // The error variant carries as_of too: a window past coverage fails
    // loudly but still says which interval the server was at.
    let (_, stderr, ok) =
        run(scd().args(["ask", "--addr", &addr, "--changed", "--from", "50", "--to", "60"]));
    assert!(!ok, "out-of-range ask must fail");
    assert!(stderr.contains("as of interval"), "error answer lost as_of: {stderr}");

    // Let the linger window expire so the server dumps its archive.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let status = loop {
        match child.try_wait().expect("poll scd serve") {
            Some(status) => break status,
            None if std::time::Instant::now() > deadline => {
                child.kill().ok();
                panic!("scd serve did not exit after linger window");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    };
    assert!(status.success(), "serve exited with failure");

    // Offline answers over the dumped archive: body lines (the indented
    // CHANGE / intervals / ESTIMATE records) must match the served ones
    // exactly — only the `as of interval` headers may differ.
    let body = |s: &str| -> Vec<String> {
        s.lines().filter(|l| l.starts_with("  ")).map(str::to_string).collect()
    };
    let offline = |extra: &[&str]| -> String {
        let (stdout, stderr, ok) = run(scd().args(["query", "--archive", dump_s]).args(extra));
        assert!(ok, "offline query {extra:?} failed: {stderr}");
        stdout
    };
    let q_changed = offline(&["--from", "8", "--to", "16", "--threshold", "0.4"]);
    assert_eq!(body(&changed), body(&q_changed), "served vs offline changed keys");
    assert!(!body(&changed).is_empty(), "changed-keys diff was vacuous:\n{q_changed}");
    let q_history = offline(&["--from", "0", "--to", "30", "--key", &victim]);
    assert_eq!(body(&history), body(&q_history), "served vs offline history");
    let q_estimate = offline(&["--from", "8", "--to", "16", "--estimate", &victim]);
    assert_eq!(body(&estimate), body(&q_estimate), "served vs offline estimate");

    for p in [&trace, &dump, &out_path, &err_path] {
        std::fs::remove_file(p).ok();
    }
}

/// An archive dumped before the model ever warmed up holds zero epochs.
/// Querying it must produce a clean "no data" answer (exit 0), not an
/// out-of-range error: nothing about the request was wrong, the archive
/// just has nothing to say.
#[test]
fn query_on_empty_archive_says_no_data() {
    let trace = temp_trace("empty-archive");
    let trace_s = trace.to_str().unwrap();
    // Segment the whole trace into ONE detection interval: every model
    // spends it warming up, no error sketch is ever produced, and the
    // archive is dumped with zero epochs.
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.1", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "3"]));
    assert!(ok, "generate failed: {stderr}");

    let hist = trace.with_extension("scda");
    let hist_s = hist.to_str().unwrap();
    let (stdout, stderr, ok) = run(scd()
        .args(["archive", "--trace", trace_s, "--interval", "3600", "--model", "ewma:0.5"])
        .args(["--out", hist_s, "--shards", "2", "--k", "1024"]));
    assert!(ok, "archive failed: {stderr}");
    assert!(stdout.contains("0 epochs"), "expected empty archive: {stdout}");

    // All three query shapes answer "no data" with a success exit.
    for extra in [&["--threshold", "0.4"][..], &["--key", "9"][..], &["--estimate", "9"][..]] {
        let (stdout, stderr, ok) =
            run(scd().args(["query", "--archive", hist_s, "--from", "0", "--to", "6"]).args(extra));
        assert!(ok, "query {extra:?} errored on empty archive: {stderr}");
        assert!(stdout.contains("no data"), "query {extra:?}: {stdout}");
    }

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&hist).ok();
}

/// `ingest-node --metrics FILE` writes one snapshot line per closed
/// interval, each carrying the sender counters, so a multi-process run's
/// resend count can be read from the node's own telemetry.
#[test]
fn ingest_node_metrics_snapshot_every_interval() {
    let trace = temp_trace("node-metrics");
    let trace_s = trace.to_str().unwrap();
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.1", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "5"]));
    assert!(ok, "generate failed: {stderr}");

    let err_path = trace.with_extension("agg-err");
    let mut aggregator = aggregator(&err_path, &[]).spawn().expect("spawn scd aggregate");
    let addr = aggregator_addr(&mut aggregator, &err_path);
    let metrics = trace.with_extension("node-metrics.jsonl");
    let spool = trace.with_extension("spool");
    let (stdout, stderr, ok) = run(scd()
        .args(["ingest-node", "--trace", trace_s, "--interval", "60", "--node", "0"])
        .args(["--nodes", "1", "--connect", &addr, "--k", "1024"])
        .args(["--spool", spool.to_str().unwrap(), "--metrics", metrics.to_str().unwrap()]));
    assert!(ok, "ingest-node failed: {stderr}");
    assert!(aggregator.wait().expect("aggregate exits").success(), "aggregate failed");

    let shipped: usize = stdout
        .split_whitespace()
        .skip_while(|w| *w != "shipped")
        .nth(1)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no shipped count: {stdout}"));
    assert!(shipped > 1, "{stdout}");
    let snapshots = std::fs::read_to_string(&metrics).expect("metrics file");
    let lines: Vec<&str> = snapshots.lines().collect();
    assert_eq!(lines.len(), shipped, "one snapshot per interval:\n{snapshots}");
    for (t, line) in lines.iter().enumerate() {
        assert!(line.contains(&format!("\"interval\":{t}")), "line {t}: {line}");
        assert!(line.contains("\"scd_net_frames_sent_total\":"), "line {t}: {line}");
    }

    for p in [&trace, &err_path, &metrics] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(&spool).ok();
}

/// Starts `scd aggregate` for one node with `extra` flags, its stderr
/// going to `err_path`.
fn aggregator(err_path: &std::path::Path, extra: &[&str]) -> Command {
    let mut cmd = scd();
    cmd.args(["aggregate", "--listen", "127.0.0.1:0", "--nodes", "1", "--model", "ewma:0.5"])
        .args(["--k", "1024", "--timeout-secs", "60"])
        .args(extra)
        .stdout(std::process::Stdio::null())
        .stderr(std::fs::File::create(err_path).expect("stderr file"));
    cmd
}

/// The address a started aggregator listens on, read from its stderr.
fn aggregator_addr(aggregator: &mut std::process::Child, err_path: &std::path::Path) -> String {
    let prefix = "aggregating 1 nodes on ";
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let log = std::fs::read_to_string(err_path).unwrap_or_default();
        if let Some(line) = log.lines().find(|l| l.starts_with(prefix)) {
            return line[prefix.len()..].trim().to_string();
        }
        if std::time::Instant::now() > deadline {
            aggregator.kill().ok();
            panic!("scd aggregate never printed its address: {log}");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// `aggregate --metrics FILE` carries the supervisor and detector
/// counters of the aggregator's global detector, so they count what the
/// run's reports show.
#[test]
fn aggregate_metrics_count_the_supervised_detector() {
    let trace = temp_trace("agg-metrics");
    let trace_s = trace.to_str().unwrap();
    let (_, stderr, ok) = run(scd()
        .args(["generate", "--profile", "small", "--hours", "0.1", "--interval", "60"])
        .args(["--out", trace_s, "--seed", "5", "--dos", "2:3:2:30"]));
    assert!(ok, "generate failed: {stderr}");

    let err_path = trace.with_extension("agg-err");
    let metrics = trace.with_extension("agg-metrics.jsonl");
    let report = trace.with_extension("agg-report.txt");
    let flags = ["--metrics", metrics.to_str().unwrap(), "--report-out", report.to_str().unwrap()];
    let mut aggregator = aggregator(&err_path, &flags).spawn().expect("spawn scd aggregate");
    let addr = aggregator_addr(&mut aggregator, &err_path);
    let spool = trace.with_extension("agg-spool");
    let (_, stderr, ok) = run(scd()
        .args(["ingest-node", "--trace", trace_s, "--interval", "60", "--node", "0"])
        .args(["--nodes", "1", "--connect", &addr, "--k", "1024"])
        .args(["--spool", spool.to_str().unwrap()]));
    assert!(ok, "ingest-node failed: {stderr}");
    assert!(aggregator.wait().expect("aggregate exits").success(), "aggregate failed");

    let reports = std::fs::read_to_string(&report).expect("report file");
    let emitted = reports.lines().count();
    assert!(emitted > 2, "{reports}");
    // The detector counts the intervals it scans: every one past warm-up.
    let warmed = reports.lines().filter(|l| l.contains(" warm=1 ")).count();
    assert_eq!(warmed, emitted - 1, "EWMA warms up on the first interval:\n{reports}");
    let alarms: f64 = reports
        .lines()
        .map(|l| {
            let field = l.split_whitespace().find_map(|f| f.strip_prefix("alarms=")).expect(l);
            field.split(':').next().unwrap().parse::<f64>().expect(l)
        })
        .sum();
    let snapshots = std::fs::read_to_string(&metrics).expect("metrics file");
    let last = snapshots.lines().last().expect("snapshot lines");
    assert_eq!(json_number(last, "scd_supervisor_started_total"), 1.0, "{last}");
    assert_eq!(json_number(last, "scd_detector_intervals_total"), warmed as f64, "{last}");
    assert_eq!(json_number(last, "scd_detector_alarms_total"), alarms, "{last}");
    assert!(alarms > 0.0, "the injected DoS raised no alarm:\n{reports}");
    assert!(!last.contains("scd_net_agg_detector_restarts_total"), "{last}");

    for p in [&trace, &err_path, &metrics, &report] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(&spool).ok();
}
