//! Trace persistence: CSV (human-inspectable) and a compact binary format.
//!
//! The binary layout is a fixed 31-byte little-endian record:
//! `timestamp_ms:u64, src_ip:u32, dst_ip:u32, src_port:u16, dst_port:u16,
//! protocol:u8, bytes:u64, packets:u32`, preceded by an 8-byte magic +
//! version header and — since version 02 — followed by a 4-byte CRC-32
//! footer over everything before it, so truncation and bit-rot produce a
//! typed error instead of silently decoding garbage flows. Files written
//! by older builds (magic `SCDTRC01`, no footer) are still readable. The
//! format exists so large generated traces can be cached between
//! experiment runs without paying CSV parsing costs.

use crate::record::FlowRecord;
use scd_hash::byteio::{put_u16, put_u32, put_u64, put_u8};
use scd_hash::{crc32, Crc32};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// Magic + format version for the legacy (unchecksummed) binary format.
const MAGIC_V1: &[u8; 8] = b"SCDTRC01";
/// Magic + format version for the current (checksummed) binary format.
const MAGIC_V2: &[u8; 8] = b"SCDTRC02";
/// Serialized size of one record.
const RECORD_LEN: usize = 8 + 4 + 4 + 2 + 2 + 1 + 8 + 4;

/// Errors from trace I/O.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The binary header was missing or unrecognized.
    BadMagic,
    /// The payload length was not a whole number of records.
    Truncated,
    /// The CRC-32 footer does not match the payload (v02 only).
    BadChecksum {
        /// Checksum recomputed over the payload.
        computed: u32,
        /// Checksum stored in the footer.
        stored: u32,
    },
    /// A CSV line could not be parsed.
    BadCsv {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceIoError::Truncated => write!(f, "trace file truncated mid-record"),
            TraceIoError::BadChecksum { computed, stored } => write!(
                f,
                "trace checksum mismatch: computed {computed:#010x}, stored {stored:#010x}"
            ),
            TraceIoError::BadCsv { line } => write!(f, "malformed CSV at line {line}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Serializes records to the current (v02) binary format.
pub fn to_binary(records: &[FlowRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(MAGIC_V2.len() + records.len() * RECORD_LEN + 4);
    buf.extend_from_slice(MAGIC_V2);
    for r in records {
        put_u64(&mut buf, r.timestamp_ms);
        put_u32(&mut buf, r.src_ip);
        put_u32(&mut buf, r.dst_ip);
        put_u16(&mut buf, r.src_port);
        put_u16(&mut buf, r.dst_port);
        put_u8(&mut buf, r.protocol);
        put_u64(&mut buf, r.bytes);
        put_u32(&mut buf, r.packets);
    }
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

/// Deserializes records from the binary format (v02 or legacy v01).
pub fn from_binary(data: &[u8]) -> Result<Vec<FlowRecord>, TraceIoError> {
    if data.len() < 8 {
        return Err(TraceIoError::BadMagic);
    }
    let body = match &data[..8] {
        m if m == MAGIC_V2 => {
            if data.len() < 12 {
                return Err(TraceIoError::Truncated);
            }
            let (payload, footer) = data.split_at(data.len() - 4);
            let stored = u32::from_le_bytes(footer.try_into().expect("length checked"));
            let computed = crc32(payload);
            if computed != stored {
                return Err(TraceIoError::BadChecksum { computed, stored });
            }
            &payload[8..]
        }
        m if m == MAGIC_V1 => &data[8..],
        _ => return Err(TraceIoError::BadMagic),
    };
    if body.len() % RECORD_LEN != 0 {
        return Err(TraceIoError::Truncated);
    }
    Ok(decode_records(body).collect())
}

/// Decodes a buffer holding a whole number of 31-byte records.
fn decode_records(body: &[u8]) -> impl Iterator<Item = FlowRecord> + '_ {
    body.chunks_exact(RECORD_LEN).map(|r| decode_record(r.try_into().expect("exact chunk")))
}

/// Decodes one 31-byte record. Every field sits at a constant offset in a
/// fixed-size array, so the reads compile without bounds checks.
fn decode_record(r: &[u8; RECORD_LEN]) -> FlowRecord {
    let u16_at = |i: usize| u16::from_le_bytes(r[i..i + 2].try_into().expect("in bounds"));
    let u32_at = |i: usize| u32::from_le_bytes(r[i..i + 4].try_into().expect("in bounds"));
    let u64_at = |i: usize| u64::from_le_bytes(r[i..i + 8].try_into().expect("in bounds"));
    FlowRecord {
        timestamp_ms: u64_at(0),
        src_ip: u32_at(8),
        dst_ip: u32_at(12),
        src_port: u16_at(16),
        dst_port: u16_at(18),
        protocol: r[20],
        bytes: u64_at(21),
        packets: u32_at(29),
    }
}

/// Incremental binary-trace reader: decodes `SCDTRC02`/`SCDTRC01` streams
/// chunk-by-chunk so large traces can feed shard producers directly,
/// without first materializing the whole `Vec<FlowRecord>` (and without
/// the single-threaded full-file decode hop). The CRC-32 footer is
/// verified *incrementally* — the checksum is folded over every payload
/// byte as it streams past and compared against the stored footer at EOF,
/// so a fully drained reader gives exactly the same integrity guarantee
/// (and the same errors) as [`from_binary`].
#[derive(Debug)]
pub struct ChunkedTraceReader<R: Read> {
    inner: R,
    /// Bytes read but not yet decoded. For v02 the trailing 4 bytes are
    /// withheld from decoding until EOF proves they are the footer.
    pending: Vec<u8>,
    crc: Crc32,
    /// Whether the stream carries a CRC footer (v02).
    checksummed: bool,
    at_eof: bool,
    footer_verified: bool,
    records_read: usize,
}

/// Read granularity for [`ChunkedTraceReader`] fills.
const CHUNK_READ_LEN: usize = 64 * 1024;

impl<R: Read> ChunkedTraceReader<R> {
    /// Opens a binary trace stream, consuming and validating the magic.
    pub fn new(mut inner: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 8];
        let mut filled = 0;
        while filled < magic.len() {
            match inner.read(&mut magic[filled..]) {
                Ok(0) => return Err(TraceIoError::BadMagic),
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        let checksummed = match &magic {
            m if m == MAGIC_V2 => true,
            m if m == MAGIC_V1 => false,
            _ => return Err(TraceIoError::BadMagic),
        };
        let mut crc = Crc32::new();
        crc.update(&magic);
        Ok(ChunkedTraceReader {
            inner,
            pending: Vec::with_capacity(CHUNK_READ_LEN + RECORD_LEN),
            crc,
            checksummed,
            at_eof: false,
            footer_verified: false,
            records_read: 0,
        })
    }

    /// Total records decoded so far.
    pub fn records_read(&self) -> usize {
        self.records_read
    }

    /// Appends up to `max_records` decoded records to `out`. Returns the
    /// number appended; `0` means clean end-of-stream (footer verified for
    /// v02). Errors mirror [`from_binary`]: a mid-record end is
    /// [`TraceIoError::Truncated`], a footer mismatch is
    /// [`TraceIoError::BadChecksum`].
    pub fn next_chunk(
        &mut self,
        max_records: usize,
        out: &mut Vec<FlowRecord>,
    ) -> Result<usize, TraceIoError> {
        let mut appended = 0;
        let mut buf = [0u8; CHUNK_READ_LEN];
        while appended < max_records {
            // Decode whole records from the front of `pending`, keeping the
            // possible footer in reserve until EOF.
            let reserve = if self.checksummed && !self.at_eof { 4 } else { 0 };
            let decodable = (self.pending.len().saturating_sub(reserve) / RECORD_LEN) * RECORD_LEN;
            if decodable > 0 {
                let take = decodable.min((max_records - appended).saturating_mul(RECORD_LEN));
                self.crc.update(&self.pending[..take]);
                out.extend(decode_records(&self.pending[..take]));
                appended += take / RECORD_LEN;
                self.records_read += take / RECORD_LEN;
                self.pending.drain(..take);
                continue;
            }
            if self.at_eof {
                self.verify_footer()?;
                break;
            }
            match self.inner.read(&mut buf) {
                Ok(0) => {
                    self.at_eof = true;
                    self.check_eof()?;
                }
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(appended)
    }

    /// Validates stream framing once the underlying reader hits EOF: the
    /// leftover bytes must be a whole number of records plus, for v02, a
    /// footer matching the incrementally computed CRC.
    fn check_eof(&mut self) -> Result<(), TraceIoError> {
        if self.checksummed {
            if self.pending.len() < 4 {
                return Err(TraceIoError::Truncated);
            }
            if (self.pending.len() - 4) % RECORD_LEN != 0 {
                return Err(TraceIoError::Truncated);
            }
        } else if self.pending.len() % RECORD_LEN != 0 {
            return Err(TraceIoError::Truncated);
        }
        Ok(())
    }

    /// Once every record has been decoded, the v02 leftover must be the
    /// 4-byte footer matching the CRC folded over magic + records.
    fn verify_footer(&mut self) -> Result<(), TraceIoError> {
        if self.footer_verified || !self.checksummed {
            return Ok(());
        }
        if self.pending.len() != 4 {
            return Err(TraceIoError::Truncated);
        }
        let stored = u32::from_le_bytes(self.pending[..].try_into().expect("length checked"));
        let computed = self.crc.finalize();
        if computed != stored {
            return Err(TraceIoError::BadChecksum { computed, stored });
        }
        self.pending.clear();
        self.footer_verified = true;
        Ok(())
    }

    /// Drains the remaining stream, returning the total number of records
    /// appended to `out`. Equivalent to calling [`Self::next_chunk`] until
    /// it returns `0`.
    pub fn read_to_end(&mut self, out: &mut Vec<FlowRecord>) -> Result<usize, TraceIoError> {
        let mut total = 0;
        loop {
            let n = self.next_chunk(usize::MAX, out)?;
            if n == 0 {
                return Ok(total);
            }
            total += n;
        }
    }
}

/// Writes records as binary to any writer (file, socket, buffer).
pub fn write_binary<W: Write>(w: W, records: &[FlowRecord]) -> Result<(), TraceIoError> {
    let mut w = BufWriter::new(w);
    w.write_all(&to_binary(records))?;
    w.flush()?;
    Ok(())
}

/// Reads binary records from any reader.
pub fn read_binary<R: Read>(mut r: R) -> Result<Vec<FlowRecord>, TraceIoError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    from_binary(&data)
}

/// CSV header line.
pub const CSV_HEADER: &str = "timestamp_ms,src_ip,dst_ip,src_port,dst_port,protocol,bytes,packets";

/// Writes records as CSV with header.
pub fn write_csv<W: Write>(w: W, records: &[FlowRecord]) -> Result<(), TraceIoError> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{CSV_HEADER}")?;
    for r in records {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            r.timestamp_ms,
            r.src_ip,
            r.dst_ip,
            r.src_port,
            r.dst_port,
            r.protocol,
            r.bytes,
            r.packets
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Reads CSV records (header optional).
pub fn read_csv<R: Read>(r: R) -> Result<Vec<FlowRecord>, TraceIoError> {
    let reader = BufReader::new(r);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || (i == 0 && line == CSV_HEADER) {
            continue;
        }
        let mut fields = line.split(',');
        let mut next = || fields.next().ok_or(TraceIoError::BadCsv { line: i + 1 });
        let parse = |s: &str, i: usize| -> Result<u64, TraceIoError> {
            s.parse().map_err(|_| TraceIoError::BadCsv { line: i + 1 })
        };
        let rec = FlowRecord {
            timestamp_ms: parse(next()?, i)?,
            src_ip: parse(next()?, i)? as u32,
            dst_ip: parse(next()?, i)? as u32,
            src_port: parse(next()?, i)? as u16,
            dst_port: parse(next()?, i)? as u16,
            protocol: parse(next()?, i)? as u8,
            bytes: parse(next()?, i)?,
            packets: parse(next()?, i)? as u32,
        };
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{RouterProfile, TrafficGenerator};

    fn sample_records() -> Vec<FlowRecord> {
        let mut cfg = RouterProfile::Small.config(3);
        cfg.records_per_sec = 1.0;
        cfg.interval_secs = 30;
        let mut g = TrafficGenerator::new(cfg);
        g.interval_records(0)
    }

    #[test]
    fn binary_round_trip() {
        let records = sample_records();
        let bytes = to_binary(&records);
        let back = from_binary(&bytes).unwrap();
        assert_eq!(records, back);
    }

    #[test]
    fn binary_round_trip_empty() {
        let bytes = to_binary(&[]);
        assert_eq!(from_binary(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(matches!(from_binary(b"not a trace"), Err(TraceIoError::BadMagic)));
        let mut ok = to_binary(&sample_records());
        ok.pop(); // truncate one byte: checksum can no longer match
        assert!(from_binary(&ok).is_err());
    }

    #[test]
    fn reads_legacy_v01_payloads() {
        let records = sample_records();
        let v2 = to_binary(&records);
        // A v01 file is the v02 body with the old magic and no footer.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC_V1);
        v1.extend_from_slice(&v2[8..v2.len() - 4]);
        assert_eq!(from_binary(&v1).unwrap(), records);
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let clean = to_binary(&sample_records());
        let mut rng = scd_hash::SplitMix64::new(0x7AC3);
        for _ in 0..200 {
            let pos = rng.next_below(clean.len() as u64) as usize;
            let mut bad = clean.clone();
            bad[pos] ^= 1 << rng.next_below(8);
            assert!(from_binary(&bad).is_err(), "byte flip at {pos} decoded successfully");
        }
    }

    #[test]
    fn csv_round_trip() {
        let records = sample_records();
        let mut buf = Vec::new();
        write_csv(&mut buf, &records).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(records, back);
    }

    #[test]
    fn csv_reports_bad_line() {
        let data = format!("{CSV_HEADER}\n1,2,3\n");
        match read_csv(data.as_bytes()) {
            Err(TraceIoError::BadCsv { line }) => assert_eq!(line, 2),
            other => panic!("expected BadCsv, got {other:?}"),
        }
    }

    #[test]
    fn chunked_reader_matches_from_binary() {
        let records = sample_records();
        let bytes = to_binary(&records);
        for chunk in [1usize, 7, 31, 1000] {
            let mut reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
            let mut out = Vec::new();
            loop {
                if reader.next_chunk(chunk, &mut out).unwrap() == 0 {
                    break;
                }
            }
            assert_eq!(out, records, "chunk size {chunk}");
            assert_eq!(reader.records_read(), records.len());
            // Reading past the end stays a clean EOF.
            assert_eq!(reader.next_chunk(chunk, &mut out).unwrap(), 0);
        }
    }

    #[test]
    fn chunked_reader_handles_empty_and_legacy_traces() {
        let empty = to_binary(&[]);
        let mut reader = ChunkedTraceReader::new(&empty[..]).unwrap();
        let mut out = Vec::new();
        assert_eq!(reader.read_to_end(&mut out).unwrap(), 0);

        let records = sample_records();
        let v2 = to_binary(&records);
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC_V1);
        v1.extend_from_slice(&v2[8..v2.len() - 4]);
        let mut reader = ChunkedTraceReader::new(&v1[..]).unwrap();
        let mut out = Vec::new();
        reader.read_to_end(&mut out).unwrap();
        assert_eq!(out, records);
    }

    #[test]
    fn chunked_reader_rejects_corruption_like_from_binary() {
        assert!(matches!(
            ChunkedTraceReader::new(&b"not a trace"[..]),
            Err(TraceIoError::BadMagic)
        ));
        let clean = to_binary(&sample_records());
        let mut rng = scd_hash::SplitMix64::new(0x7AC4);
        for _ in 0..100 {
            let pos = rng.next_below(clean.len() as u64) as usize;
            let mut bad = clean.clone();
            bad[pos] ^= 1 << rng.next_below(8);
            let run = ChunkedTraceReader::new(&bad[..]).and_then(|mut r| {
                let mut out = Vec::new();
                r.read_to_end(&mut out)
            });
            assert!(run.is_err(), "byte flip at {pos} decoded successfully");
        }
        // Truncation mid-record / mid-footer is detected at EOF.
        let mut short = clean.clone();
        short.truncate(clean.len() - 3);
        let run = ChunkedTraceReader::new(&short[..]).and_then(|mut r| {
            let mut out = Vec::new();
            r.read_to_end(&mut out)
        });
        assert!(run.is_err());
    }

    #[test]
    fn writer_reader_round_trip_via_io() {
        let records = sample_records();
        let mut buf = Vec::new();
        write_binary(&mut buf, &records).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(records, back);
    }
}
