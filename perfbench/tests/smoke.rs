//! Smoke self-test: a tiny trace through every workload, with tracing off
//! and on. Every metric `BENCHMARK.json` names must come out with its
//! unit, every run must succeed, and every interval must match the
//! reference (`interval_mismatch_ratio` 0).

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 5] = ["detect", "detect_glr", "stream", "serve_mix", "distributed"];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark sits inside the repository")
}

/// Builds `scd` into the target directory this test was built in.
fn build_scd() -> PathBuf {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let target = exe.parent().and_then(Path::parent).expect("<target>/<profile>/perfbench");
    let status = Command::new(option_env!("CARGO").unwrap_or("cargo"))
        .args(["build", "--release", "--offline", "--quiet", "-p", "scd-cli", "--target-dir"])
        .arg(target)
        .current_dir(repo())
        .status()
        .expect("run cargo");
    assert!(status.success(), "building scd failed");
    target.join("release").join("scd")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn contract(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let end = text[start..].find(']').map_or(text.len(), |e| start + e);
    let quoted = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = s[at..].find('"')?;
        Some((s[at..at + len].to_string(), at + len))
    };
    let mut out = Vec::new();
    let mut rest = &text[start..end];
    while let Some((name, after)) = quoted(rest, "name") {
        let (unit, after_unit) = quoted(&rest[after..], "unit").expect("every metric has a unit");
        out.push((name, unit));
        rest = &rest[after + after_unit..];
    }
    assert!(!out.is_empty(), "no metrics in {section}");
    out
}

fn run(scd: &Path, workload: &str, trace: u8) -> String {
    // The benchmark keeps its scratch files under its working directory.
    let cwd = scd.parent().expect("scd sits in a target directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--scd", &scd.display().to_string(), "--workload", workload])
        .args(["--seed", "7", "--seconds", "1", "--trace", &trace.to_string(), "--smoke"])
        .current_dir(cwd)
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn every_workload_emits_every_metric_and_matches_the_reference() {
    let scd = build_scd();
    let end_to_end = contract("end_to_end");
    let per_layer = contract("per_layer");
    for workload in WORKLOADS {
        for (trace, expected) in [(0, &end_to_end), (1, &per_layer)] {
            let stdout = run(&scd, workload, trace);
            let mut lines = stdout.lines().rev();
            let result = lines.next().expect("result line");
            let report = lines.next().expect("report line");
            assert!(result.starts_with("{\"correct\": true, "), "{workload}/{trace}: {result}");
            assert!(result.contains("\"failed\": 0, "), "{workload}/{trace}: {result}");
            for (name, unit) in expected.iter() {
                let prefix = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&prefix)
                    .unwrap_or_else(|| panic!("{workload}/{trace}: {name} missing"));
                let tail = &result[at + prefix.len()..];
                let end = tail.find(',').expect("value ends");
                let value: f64 = tail[..end].parse().expect("numeric value");
                assert!(value.is_finite(), "{workload}/{trace}: {name} = {value}");
                assert!(
                    tail[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
                    "{workload}/{trace}: {name} lacks unit {unit}"
                );
            }
            let zero = "\"interval_mismatch_ratio\": {\"value\": 0, \"unit\": \"ratio\"}";
            assert!(report.contains(zero), "{workload}/{trace}: {report}");
            if trace == 1 {
                let spans =
                    scd.with_file_name(".bench_spans").join(format!("{workload}-seed7.jsonl"));
                let text = std::fs::read_to_string(&spans).expect("traced run writes its spans");
                let root = text.lines().next().expect("at least the root span");
                assert!(
                    root.contains("\"name\": \"run\"") && root.ends_with("\"parent\": null}"),
                    "{root}"
                );
            }
        }
    }
}
