//! The reference every run is checked against: the single-threaded
//! `SketchChangeDetector` over the trace's interval segmentation, and the
//! parsers that turn a command's `--report-out` file or stdout alarm
//! blocks into per-interval comparable text.

use scd_core::{
    DetectorConfig, IntervalReport, KeyStrategy, SketchChangeDetector, StreamSegmenter,
};
use scd_forecast::ModelSpec;
use scd_sketch::SketchConfig;
use scd_traffic::record::format_ipv4;
use scd_traffic::{ChunkedTraceReader, KeySpec, ValueSpec};
use std::collections::BTreeMap;
use std::path::Path;

/// Interval length every workload runs with, in seconds.
pub const INTERVAL_SECS: u32 = 60;
/// Sketch rows.
pub const H: usize = 5;
/// Sketch width.
pub const K: usize = 32_768;
/// The CLI's default `--sketch-seed`.
pub const SKETCH_SEED: u64 = 0x5CD;
/// The CLI's default `--threshold`.
pub const THRESHOLD: f64 = 0.05;
/// The CLI's default `--top`: alarm lines printed per interval.
pub const TOP: usize = 10;
/// Model spec passed to every command.
pub const MODEL: &str = "ewma:0.5";
/// Records decoded per `next_chunk` call, as the CLI's streaming reader.
pub const READ_CHUNK_RECORDS: usize = 8192;

/// The detector configuration every command is run with.
pub fn detector_config() -> DetectorConfig {
    DetectorConfig {
        sketch: SketchConfig { h: H, k: K, seed: SKETCH_SEED },
        model: ModelSpec::parse(MODEL).expect("static model spec"),
        threshold: THRESHOLD,
        key_strategy: KeyStrategy::TwoPass,
    }
}

/// One `(key, value)` update stream per interval, in trace order.
pub type Bins = Vec<Vec<(u64, f64)>>;

/// Reads a binary trace into `(key, value)` bins of `interval_secs`,
/// returning the bins and the record count.
pub fn read_bins(path: &Path, interval_secs: u32) -> std::io::Result<(Bins, usize)> {
    let file = std::fs::File::open(path)?;
    let mut reader = ChunkedTraceReader::new(file).map_err(std::io::Error::other)?;
    let mut segmenter = StreamSegmenter::new(interval_secs, KeySpec::DstIp, ValueSpec::Bytes);
    let mut chunk = Vec::with_capacity(READ_CHUNK_RECORDS);
    loop {
        chunk.clear();
        if reader.next_chunk(READ_CHUNK_RECORDS, &mut chunk).map_err(std::io::Error::other)? == 0 {
            break;
        }
        segmenter.push(&chunk);
    }
    Ok((segmenter.finish(), reader.records_read()))
}

/// Reference output of one trace.
pub struct Reference {
    /// Trace records.
    pub records: usize,
    /// `IntervalReport::canonical_line` per interval.
    pub canonical: Vec<String>,
    /// The stdout alarm block per interval (empty when nothing alarmed),
    /// formatted exactly as the CLI prints it.
    pub blocks: Vec<Vec<String>>,
    /// Distinct alarmed keys, in first-alarm order (the query pool).
    pub alarm_keys: Vec<u64>,
    /// Keys scored against error sketches, over all intervals.
    pub keys_scanned: u64,
    /// Alarms raised, over all intervals.
    pub alarms: u64,
}

impl Reference {
    /// Runs the reference detector over a trace.
    pub fn compute(path: &Path) -> std::io::Result<Reference> {
        let (bins, records) = read_bins(path, INTERVAL_SECS)?;
        let mut det = SketchChangeDetector::new(detector_config());
        let mut r = Reference {
            records,
            canonical: Vec::new(),
            blocks: Vec::new(),
            alarm_keys: Vec::new(),
            keys_scanned: 0,
            alarms: 0,
        };
        for items in &bins {
            let report = det.process_interval(items);
            r.canonical.push(report.canonical_line());
            r.blocks.push(alarm_block(&report));
            r.keys_scanned += report.errors.len() as u64 + report.non_finite_errors;
            r.alarms += report.alarms.len() as u64;
            for a in &report.alarms {
                if !r.alarm_keys.contains(&a.key) {
                    r.alarm_keys.push(a.key);
                }
            }
        }
        Ok(r)
    }

    /// Intervals expected from every command.
    pub fn intervals(&self) -> usize {
        self.canonical.len()
    }

    /// Intervals of a `--report-out` file that are missing or differ.
    pub fn mismatches_canonical(&self, report_out: &str) -> usize {
        let mut seen: BTreeMap<usize, &str> = BTreeMap::new();
        let mut extra = 0;
        for line in report_out.lines() {
            let idx = line
                .strip_prefix("interval=")
                .and_then(|s| s.split(' ').next())
                .and_then(|s| s.parse::<usize>().ok());
            match idx {
                Some(i) if i < self.intervals() && !seen.contains_key(&i) => {
                    seen.insert(i, line);
                }
                _ => extra += 1,
            }
        }
        let differ = (0..self.intervals())
            .filter(|i| seen.get(i).is_none_or(|l| *l != self.canonical[*i]))
            .count();
        (differ + extra).min(self.intervals())
    }

    /// Intervals whose stdout alarm block differs from the reference, or
    /// that the command flagged (partial, or records dropped).
    pub fn mismatches_stdout<'a>(&self, stdout: impl Iterator<Item = &'a str>) -> usize {
        let parsed = parse_stdout(stdout);
        let mut bad = parsed.flagged.len() + parsed.unknown;
        for (i, want) in self.blocks.iter().enumerate() {
            let got = parsed.blocks.get(&i).map_or(&[][..], Vec::as_slice);
            if got != want.as_slice() && !parsed.flagged.contains(&i) {
                bad += 1;
            }
        }
        bad.min(self.intervals())
    }
}

/// The CLI's `print_alarms` output for one report.
fn alarm_block(report: &IntervalReport) -> Vec<String> {
    let mut out = Vec::new();
    for (i, a) in report.alarms.iter().take(TOP).enumerate() {
        if i == 0 {
            out.push(format!("interval {}:", report.interval));
        }
        out.push(format!(
            "  ALARM {:<16} error {:+.0} bytes",
            format_ipv4(a.key as u32),
            a.estimated_error
        ));
    }
    out
}

struct ParsedStdout {
    blocks: BTreeMap<usize, Vec<String>>,
    flagged: Vec<usize>,
    /// Alarm lines outside any block, or blocks for unknown intervals.
    unknown: usize,
}

fn parse_stdout<'a>(lines: impl Iterator<Item = &'a str>) -> ParsedStdout {
    let mut p = ParsedStdout { blocks: BTreeMap::new(), flagged: Vec::new(), unknown: 0 };
    let mut current: Option<usize> = None;
    for line in lines {
        if let Some(i) = line.strip_prefix("interval ").and_then(|s| s.strip_suffix(':')) {
            match i.parse::<usize>() {
                Ok(i) if !p.blocks.contains_key(&i) => {
                    p.blocks.insert(i, vec![line.to_string()]);
                    current = Some(i);
                }
                _ => {
                    p.unknown += 1;
                    current = None;
                }
            }
        } else if line.starts_with("  ALARM ") {
            match current.and_then(|i| p.blocks.get_mut(&i)) {
                Some(b) => b.push(line.to_string()),
                None => p.unknown += 1,
            }
        } else if let Some(rest) = line.strip_prefix("  interval ") {
            // `  interval N: PARTIAL …` (aggregate) or `  interval N:
            // dropped …` (stream): the interval is degraded.
            if let Some(i) = rest.split(':').next().and_then(|s| s.parse::<usize>().ok()) {
                if !p.flagged.contains(&i) {
                    p.flagged.push(i);
                }
            }
        }
    }
    p
}
