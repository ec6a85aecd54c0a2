//! Trace serialisation: a compact CSV form and the binary columnar `.mct`
//! shard format (see [`crate::columnar`]).
//!
//! The public dataset the paper released was a flat log file; this module
//! lets generated traces round-trip through files so the analysis pipeline
//! can be pointed at stored traces, not only live generators. Both formats
//! stream record by record in both directions, through one reader and one
//! writer:
//!
//! * [`RecordStream`] (or [`open_trace`] for a path) yields
//!   `Result<LogRecord, ReadError>` without ever holding the full trace. A
//!   strict read is `stream.collect::<Result<Vec<_>, _>>()`; a lossy read
//!   is [`collect_records_lossy`], which quarantines record-level damage
//!   under an [`ErrorBudget`].
//! * [`TraceWriter`] is push-style, so a shard can be produced without
//!   materialising it. [`crate::TraceGenerator::write_shards_observed`]
//!   writes a generated trace through it, one file or many.

use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::PathBuf;

use crate::columnar::{ColumnarRecords, ColumnarWriter};
use crate::record::{DeviceType, Direction, LogRecord, RequestType};

/// Why reading a trace file failed. Every variant carries a location —
/// line number for CSV, block/record coordinates for the columnar
/// format — so malformed logs surface as actionable diagnostics
/// instead of panics or stringly-typed `io::Error`s.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The CSV header line is missing or does not match [`CSV_HEADER`].
    BadHeader,
    /// A CSV line had the wrong number of fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found (10 expected).
        got: usize,
    },
    /// A CSV field failed to parse.
    Field {
        /// 1-based line number.
        line: usize,
        /// Which field was malformed.
        field: &'static str,
    },
    /// The file does not start with the `.mct` magic bytes.
    BadMagic,
    /// The `.mct` header declares a format version this reader does not
    /// speak.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The `.mct` header failed its checksum — the header bytes are
    /// damaged, so nothing after them can be trusted.
    HeaderChecksum {
        /// Checksum recomputed from the header fields.
        expected: u64,
        /// Checksum stored in the file.
        found: u64,
    },
    /// A `.mct` file ended in the middle of a header or block.
    Truncated {
        /// Byte offset where the structure was cut short.
        offset: u64,
    },
    /// A `.mct` block's framing is internally inconsistent (lengths and
    /// counts disagree, or exceed the format's sanity caps).
    CorruptBlock {
        /// 0-based block index within the shard.
        block: u64,
        /// What was wrong.
        reason: &'static str,
    },
    /// A `.mct` record referenced a dictionary entry that does not exist
    /// yet — one damaged record, not a damaged shard.
    DictIndex {
        /// 0-based block index within the shard.
        block: u64,
        /// 0-based record index within the block.
        record: u32,
        /// The out-of-range index.
        index: u32,
        /// Dictionary length at that point in the stream.
        len: u32,
    },
    /// A `.mct` record carried an op-code byte outside the valid range.
    OpCode {
        /// 0-based block index within the shard.
        block: u64,
        /// 0-based record index within the block.
        record: u32,
        /// The invalid byte.
        code: u8,
    },
    /// A lossy reader quarantined more malformed records than its
    /// [`ErrorBudget`] allows; the file is junk, not merely scuffed.
    ErrorBudgetExceeded {
        /// Malformed records seen when the reader gave up.
        errors: usize,
        /// The budget that was exceeded.
        budget: usize,
    },
    /// A sequence of shard files broke the grouping contract (whole users,
    /// user ids strictly ascending across the whole sequence): `user`
    /// starts in `path` although `prev_user` came before it — an id going
    /// backwards, or one user split across two files.
    UserOrder {
        /// The file where `user` starts.
        path: PathBuf,
        /// The user whose records came before.
        prev_user: u64,
        /// The user that is not above `prev_user`.
        user: u64,
    },
}

impl ReadError {
    /// `true` for damage confined to a single record — the kind a lossy
    /// reader quarantines and reads past. Structural damage (I/O failure,
    /// bad header, truncation, inconsistent block framing) is fatal: the
    /// stream cannot be trusted beyond it.
    pub fn is_record_level(&self) -> bool {
        matches!(
            self,
            ReadError::FieldCount { .. }
                | ReadError::Field { .. }
                | ReadError::DictIndex { .. }
                | ReadError::OpCode { .. }
        )
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "read failed: {e}"),
            ReadError::BadHeader => write!(f, "line 1: missing or wrong CSV header"),
            ReadError::FieldCount { line, got } => {
                write!(f, "line {line}: expected 10 fields, got {got}")
            }
            ReadError::Field { line, field } => {
                write!(f, "line {line}: malformed {field} field")
            }
            ReadError::BadMagic => write!(f, "not a .mct trace shard (bad magic bytes)"),
            ReadError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported .mct version {found} (this reader speaks version {})",
                    crate::columnar::VERSION
                )
            }
            ReadError::HeaderChecksum { expected, found } => {
                write!(
                    f,
                    "header checksum mismatch (expected {expected:#018x}, found {found:#018x})"
                )
            }
            ReadError::Truncated { offset } => {
                write!(f, "unexpected end of file at byte {offset}")
            }
            ReadError::CorruptBlock { block, reason } => {
                write!(f, "block {block}: {reason}")
            }
            ReadError::DictIndex {
                block,
                record,
                index,
                len,
            } => write!(
                f,
                "block {block} record {record}: dictionary index {index} out of range (len {len})"
            ),
            ReadError::OpCode {
                block,
                record,
                code,
            } => write!(f, "block {block} record {record}: invalid op code {code}"),
            ReadError::ErrorBudgetExceeded { errors, budget } => {
                write!(
                    f,
                    "gave up after {errors} malformed lines (budget: {budget})"
                )
            }
            ReadError::UserOrder {
                path,
                prev_user,
                user,
            } => write!(
                f,
                "{}: user {user} follows user {prev_user}; shard files must hold whole \
                 users in strictly ascending user-id order",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

// ------------------------------------------------------------- reading

/// A streaming reader over any [`TraceFormat`], yielding
/// `Result<LogRecord, ReadError>` without ever holding the full trace.
///
/// Record-level errors (see [`ReadError::is_record_level`]) leave the
/// stream usable; fatal errors end it. Collect it into a
/// `Result<Vec<_>, _>` for a strict read, or pass it to
/// [`collect_records_lossy`] to quarantine record-level damage.
pub struct RecordStream<R: BufRead>(Decoder<R>);

enum Decoder<R: BufRead> {
    Csv(CsvRecords<R>),
    Columnar(ColumnarRecords<R>),
}

impl<R: BufRead> RecordStream<R> {
    /// Wraps a reader positioned at the start of a trace in `format`.
    pub fn new(r: R, format: TraceFormat) -> Self {
        Self(match format {
            TraceFormat::Csv => Decoder::Csv(CsvRecords {
                lines: r.lines(),
                line_no: 0,
                done: false,
            }),
            TraceFormat::Columnar => Decoder::Columnar(ColumnarRecords::new(r)),
        })
    }
}

impl<R: BufRead> Iterator for RecordStream<R> {
    type Item = Result<LogRecord, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Decoder::Csv(s) => s.next(),
            Decoder::Columnar(s) => s.next(),
        }
    }
}

/// The CSV reader: one record per line after [`CSV_HEADER`], blank lines
/// skipped. Line numbers in diagnostics are 1-based and count every
/// physical line. A malformed line is a record-level `Err` and the stream
/// continues; an I/O error, or a first line that is not the header, ends
/// it. Empty input is an empty trace.
struct CsvRecords<R: BufRead> {
    lines: io::Lines<R>,
    line_no: usize,
    done: bool,
}

impl<R: BufRead> Iterator for CsvRecords<R> {
    type Item = Result<LogRecord, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            match self.lines.next() {
                None => self.done = true,
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
                Some(Ok(line)) => {
                    self.line_no += 1;
                    if self.line_no == 1 {
                        if line.trim() != CSV_HEADER {
                            self.done = true;
                            return Some(Err(ReadError::BadHeader));
                        }
                    } else if !line.trim().is_empty() {
                        return Some(parse_csv_record(self.line_no, &line));
                    }
                }
            }
        }
        None
    }
}

/// Opens `path` as a buffered [`RecordStream`] in `format`.
pub fn open_trace(
    path: &std::path::Path,
    format: TraceFormat,
) -> io::Result<RecordStream<io::BufReader<std::fs::File>>> {
    let file = std::fs::File::open(path)?;
    Ok(RecordStream::new(io::BufReader::new(file), format))
}

/// Lossy terminal adapter: collects a record stream, quarantining
/// record-level errors under `budget` ([`ErrorBudget::admit`]). Fatal
/// errors (I/O, bad header, truncation, corrupt framing) still fail the
/// whole read, as does blowing the budget
/// ([`ReadError::ErrorBudgetExceeded`]).
pub fn collect_records_lossy(
    stream: impl Iterator<Item = Result<LogRecord, ReadError>>,
    budget: ErrorBudget,
) -> Result<LossyRead, ReadError> {
    let mut out = LossyRead::default();
    for item in stream {
        if let Some(rec) = budget.admit(item, &mut out.quarantined)? {
            out.records.push(rec);
        }
    }
    Ok(out)
}

/// Cap on malformed records a lossy read quarantines before declaring
/// the input unusable.
///
/// Real service logs are scuffed at the margins — truncated flushes,
/// interleaved writers, the odd corrupt block — and an analysis pipeline
/// that aborts on the first bad line never gets off the ground. Lossy
/// reads skip-and-quarantine instead, but a bounded budget keeps "a few
/// bad lines" from silently swallowing a file that is wholesale garbage.
/// The budget is charged by its caller, not by the stream, so one budget
/// can span several files ([`collect_records_lossy`] and
/// `mcs_analysis::ShardFiles` both go through [`Self::admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorBudget {
    /// Maximum number of malformed records to tolerate.
    pub max_errors: usize,
}

impl Default for ErrorBudget {
    /// Tolerates up to 1 000 malformed records.
    fn default() -> Self {
        Self { max_errors: 1000 }
    }
}

impl ErrorBudget {
    /// Admits one stream item: a record comes back as `Some`, record-level
    /// damage is pushed onto `quarantined` and comes back as `None`, and a
    /// fatal error, or a quarantine that outgrows the budget
    /// ([`Self::check`]), is returned as `Err`.
    pub fn admit(
        &self,
        item: Result<LogRecord, ReadError>,
        quarantined: &mut Vec<ReadError>,
    ) -> Result<Option<LogRecord>, ReadError> {
        match item {
            Ok(rec) => Ok(Some(rec)),
            Err(e) if e.is_record_level() => {
                quarantined.push(e);
                self.check(quarantined.len())?;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// [`ReadError::ErrorBudgetExceeded`] once `quarantined` malformed
    /// records exceed the budget.
    pub fn check(&self, quarantined: usize) -> Result<(), ReadError> {
        if quarantined > self.max_errors {
            return Err(ReadError::ErrorBudgetExceeded {
                errors: quarantined,
                budget: self.max_errors,
            });
        }
        Ok(())
    }
}

/// Outcome of a lossy read: the records that parsed, plus a quarantine of
/// per-record diagnostics for those that did not.
#[derive(Debug, Default)]
pub struct LossyRead {
    /// Records that parsed cleanly, in file order.
    pub records: Vec<LogRecord>,
    /// One diagnostic per malformed record, in file order.
    pub quarantined: Vec<ReadError>,
}

impl LossyRead {
    /// Fraction of non-blank lines that were quarantined (0.0 for an empty
    /// or fully clean file).
    pub fn error_rate(&self) -> f64 {
        let total = self.records.len() + self.quarantined.len();
        if total == 0 {
            return 0.0;
        }
        self.quarantined.len() as f64 / total as f64
    }
}

// ------------------------------------------------------------ CSV codec

/// Header line of the CSV format.
pub const CSV_HEADER: &str =
    "timestamp_ms,device_type,device_id,user_id,request,volume_bytes,processing_ms,srv_ms,rtt_ms,proxied";

fn device_str(d: DeviceType) -> &'static str {
    match d {
        DeviceType::Android => "android",
        DeviceType::Ios => "ios",
        DeviceType::Pc => "pc",
    }
}

fn request_str(r: RequestType) -> &'static str {
    match r {
        RequestType::FileOp(Direction::Store) => "file_store",
        RequestType::FileOp(Direction::Retrieve) => "file_retrieve",
        RequestType::Chunk(Direction::Store) => "chunk_store",
        RequestType::Chunk(Direction::Retrieve) => "chunk_retrieve",
    }
}

fn parse_device(s: &str) -> Option<DeviceType> {
    match s {
        "android" => Some(DeviceType::Android),
        "ios" => Some(DeviceType::Ios),
        "pc" => Some(DeviceType::Pc),
        _ => None,
    }
}

fn parse_request(s: &str) -> Option<RequestType> {
    match s {
        "file_store" => Some(RequestType::FileOp(Direction::Store)),
        "file_retrieve" => Some(RequestType::FileOp(Direction::Retrieve)),
        "chunk_store" => Some(RequestType::Chunk(Direction::Store)),
        "chunk_retrieve" => Some(RequestType::Chunk(Direction::Retrieve)),
        _ => None,
    }
}

/// Serialises one record as a CSV body line. No field can contain
/// commas, so no quoting is needed.
fn write_csv_record<W: Write>(w: &mut W, r: &LogRecord) -> io::Result<()> {
    writeln!(
        w,
        "{},{},{},{},{},{},{},{},{},{}",
        r.timestamp_ms,
        device_str(r.device_type),
        r.device_id,
        r.user_id,
        request_str(r.request),
        r.volume_bytes,
        r.processing_ms,
        r.srv_ms,
        r.rtt_ms,
        u8::from(r.proxied),
    )
}

/// Parses one CSV body line (`line_no` is 1-based, for diagnostics).
fn parse_csv_record(line_no: usize, line: &str) -> Result<LogRecord, ReadError> {
    let bad = |field: &'static str| ReadError::Field {
        line: line_no,
        field,
    };
    let f: Vec<&str> = line.split(',').collect();
    if f.len() != 10 {
        return Err(ReadError::FieldCount {
            line: line_no,
            got: f.len(),
        });
    }
    Ok(LogRecord {
        timestamp_ms: f[0].parse().map_err(|_| bad("timestamp"))?,
        device_type: parse_device(f[1]).ok_or_else(|| bad("device type"))?,
        device_id: f[2].parse().map_err(|_| bad("device id"))?,
        user_id: f[3].parse().map_err(|_| bad("user id"))?,
        request: parse_request(f[4]).ok_or_else(|| bad("request type"))?,
        volume_bytes: f[5].parse().map_err(|_| bad("volume"))?,
        processing_ms: f[6].parse().map_err(|_| bad("processing time"))?,
        srv_ms: f[7].parse().map_err(|_| bad("srv time"))?,
        rtt_ms: f[8].parse().map_err(|_| bad("rtt"))?,
        proxied: match f[9] {
            "0" => false,
            "1" => true,
            _ => return Err(bad("proxied flag")),
        },
    })
}

// ------------------------------------------------------------- writing

/// Trace file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Compact CSV with [`CSV_HEADER`].
    Csv,
    /// Binary columnar `.mct` shard (see [`crate::columnar`]): about half
    /// CSV's size and decoded without per-record parsing.
    Columnar,
}

impl TraceFormat {
    /// Conventional file extension for this format.
    pub fn extension(self) -> &'static str {
        match self {
            TraceFormat::Csv => "csv",
            TraceFormat::Columnar => "mct",
        }
    }
}

/// Push-style streaming writer over any [`TraceFormat`]: create, [`push`]
/// records one at a time, [`finish`]. Headers are written on creation;
/// peak memory is one columnar block at most, never the trace.
///
/// [`push`]: TraceWriter::push
/// [`finish`]: TraceWriter::finish
pub struct TraceWriter<W: Write> {
    sink: Sink<W>,
    written: u64,
}

enum Sink<W: Write> {
    Csv(W),
    Columnar(ColumnarWriter<W>),
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace in `format`, writing any header immediately.
    pub fn new(mut w: W, format: TraceFormat) -> io::Result<Self> {
        let sink = match format {
            TraceFormat::Csv => {
                writeln!(w, "{CSV_HEADER}")?;
                Sink::Csv(w)
            }
            TraceFormat::Columnar => Sink::Columnar(ColumnarWriter::new(w)?),
        };
        Ok(Self { sink, written: 0 })
    }

    /// Appends one record.
    pub fn push(&mut self, r: &LogRecord) -> io::Result<()> {
        match &mut self.sink {
            Sink::Csv(w) => write_csv_record(w, r)?,
            Sink::Columnar(cw) => cw.push(r)?,
        }
        self.written += 1;
        Ok(())
    }

    /// Flushes any buffered tail (the trailing columnar block) and the
    /// underlying writer, returning it with the total record count.
    pub fn finish(self) -> io::Result<(W, u64)> {
        let mut w = match self.sink {
            Sink::Csv(w) => w,
            Sink::Columnar(cw) => cw.finish()?,
        };
        w.flush()?;
        Ok((w, self.written))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CHUNK_SIZE;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord {
                timestamp_ms: 0,
                device_type: DeviceType::Android,
                device_id: 1,
                user_id: 10,
                request: RequestType::FileOp(Direction::Store),
                volume_bytes: 0,
                processing_ms: 12.5,
                srv_ms: 3.0,
                rtt_ms: 88.0,
                proxied: false,
            },
            LogRecord {
                timestamp_ms: 1500,
                device_type: DeviceType::Ios,
                device_id: 2,
                user_id: 10,
                request: RequestType::Chunk(Direction::Retrieve),
                volume_bytes: CHUNK_SIZE,
                processing_ms: 950.0,
                srv_ms: 120.0,
                rtt_ms: 140.5,
                proxied: true,
            },
            LogRecord {
                timestamp_ms: 99_999,
                device_type: DeviceType::Pc,
                device_id: 3,
                user_id: 11,
                request: RequestType::Chunk(Direction::Store),
                volume_bytes: 4096,
                processing_ms: 80.0,
                srv_ms: 60.0,
                rtt_ms: 30.0,
                proxied: false,
            },
        ]
    }

    /// `records` written through [`TraceWriter`] in `format`.
    fn encode(records: &[LogRecord], format: TraceFormat) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), format).unwrap();
        for r in records {
            w.push(r).unwrap();
        }
        let (bytes, n) = w.finish().unwrap();
        assert_eq!(n, records.len() as u64);
        bytes
    }

    /// A strict read of `bytes`.
    fn read(bytes: &[u8], format: TraceFormat) -> Result<Vec<LogRecord>, ReadError> {
        RecordStream::new(bytes, format).collect()
    }

    fn read_lossy(
        bytes: &[u8],
        format: TraceFormat,
        budget: ErrorBudget,
    ) -> Result<LossyRead, ReadError> {
        collect_records_lossy(RecordStream::new(bytes, format), budget)
    }

    #[test]
    fn csv_round_trip() {
        let recs = sample_records();
        let buf = encode(&recs, TraceFormat::Csv);
        assert_eq!(read(&buf, TraceFormat::Csv).unwrap(), recs);
    }

    #[test]
    fn trace_writer_writes_the_documented_lines() {
        let first = &sample_records()[..1];
        let csv = format!("{CSV_HEADER}\n0,android,1,10,file_store,0,12.5,3,88,0\n");
        assert_eq!(encode(first, TraceFormat::Csv), csv.as_bytes());
        assert_eq!(
            read(&encode(&[], TraceFormat::Csv), TraceFormat::Csv).unwrap(),
            []
        );
    }

    #[test]
    fn csv_skips_blank_lines() {
        let text = String::from_utf8(encode(&sample_records(), TraceFormat::Csv)).unwrap();
        // A blank line after the header and after the first record, and
        // two at the end, one of them only whitespace.
        let text = text.replacen('\n', "\n\n", 2) + "\n \n";
        assert_eq!(
            read(text.as_bytes(), TraceFormat::Csv).unwrap(),
            sample_records()
        );
    }

    #[test]
    fn csv_rejects_missing_header() {
        let err = read(b"1,android,1,1,file_store,0,1,1,1,0\n", TraceFormat::Csv).unwrap_err();
        assert!(matches!(err, ReadError::BadHeader));
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn csv_rejects_bad_field() {
        let buf = encode(&sample_records(), TraceFormat::Csv);
        let text = String::from_utf8(buf)
            .unwrap()
            .replace("android", "blackberry");
        let err = read(text.as_bytes(), TraceFormat::Csv).unwrap_err();
        match err {
            ReadError::Field { line, field } => {
                assert_eq!(line, 2);
                assert_eq!(field, "device type");
            }
            other => panic!("expected Field error, got {other:?}"),
        }
        assert!(err.to_string().contains("device type"));
    }

    #[test]
    fn csv_rejects_wrong_field_count() {
        let mut text = String::from_utf8(encode(&sample_records(), TraceFormat::Csv)).unwrap();
        text.push_str("1,2,3\n");
        let err = read(text.as_bytes(), TraceFormat::Csv).unwrap_err();
        match err {
            ReadError::FieldCount { line, got } => {
                assert_eq!(line, 5);
                assert_eq!(got, 3);
            }
            other => panic!("expected FieldCount error, got {other:?}"),
        }
    }

    #[test]
    fn read_error_exposes_sources() {
        let io_err = ReadError::from(io::Error::other("disk on fire"));
        assert!(std::error::Error::source(&io_err).is_some());
        assert!(io_err.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&ReadError::BadHeader).is_none());
    }

    #[test]
    fn csv_empty_input_is_empty_vec() {
        assert!(read(b"", TraceFormat::Csv).unwrap().is_empty());
    }

    #[test]
    fn record_level_classification() {
        assert!(ReadError::Field {
            line: 1,
            field: "rtt"
        }
        .is_record_level());
        assert!(ReadError::FieldCount { line: 1, got: 3 }.is_record_level());
        assert!(ReadError::DictIndex {
            block: 0,
            record: 0,
            index: 1,
            len: 0
        }
        .is_record_level());
        assert!(ReadError::OpCode {
            block: 0,
            record: 0,
            code: 255
        }
        .is_record_level());
        assert!(!ReadError::BadHeader.is_record_level());
        assert!(!ReadError::BadMagic.is_record_level());
        assert!(!ReadError::Truncated { offset: 7 }.is_record_level());
        assert!(!ReadError::Io(io::Error::other("x")).is_record_level());
    }

    #[test]
    fn streaming_iterator_continues_past_record_errors() {
        let recs = sample_records();
        let mut buf = encode(&recs, TraceFormat::Csv);
        buf.extend_from_slice(b"not a record\n");
        // The same records again, without a second header line.
        buf.extend(&encode(&recs, TraceFormat::Csv)[CSV_HEADER.len() + 1..]);
        let items: Vec<_> = RecordStream::new(&buf[..], TraceFormat::Csv).collect();
        assert_eq!(items.len(), 7);
        assert!(items[3].is_err());
        assert_eq!(items.iter().filter(|i| i.is_ok()).count(), 6);
    }

    #[test]
    fn lossy_csv_quarantines_and_keeps_line_numbers() {
        let mut text = String::from_utf8(encode(&sample_records(), TraceFormat::Csv)).unwrap();
        text.push_str("1,2,3\n"); // wrong field count → line 5
        text.push_str("x,android,1,1,file_store,0,1,1,1,0\n"); // bad timestamp → line 6
        let got = read_lossy(text.as_bytes(), TraceFormat::Csv, ErrorBudget::default()).unwrap();
        assert_eq!(got.records.len(), 3);
        assert_eq!(got.quarantined.len(), 2);
        assert!(matches!(
            got.quarantined[0],
            ReadError::FieldCount { line: 5, got: 3 }
        ));
        assert!(matches!(
            got.quarantined[1],
            ReadError::Field {
                line: 6,
                field: "timestamp"
            }
        ));
    }

    #[test]
    fn lossy_csv_still_rejects_bad_header() {
        let err =
            read_lossy(b"not,a,header\n", TraceFormat::Csv, ErrorBudget::default()).unwrap_err();
        assert!(matches!(err, ReadError::BadHeader));
    }

    #[test]
    fn lossy_readers_enforce_the_error_budget() {
        let mut text = String::from(CSV_HEADER);
        text.push('\n');
        for _ in 0..5 {
            text.push_str("garbage line\n");
        }
        let err = read_lossy(
            text.as_bytes(),
            TraceFormat::Csv,
            ErrorBudget { max_errors: 3 },
        )
        .unwrap_err();
        match err {
            ReadError::ErrorBudgetExceeded { errors, budget } => {
                assert_eq!(errors, 4, "gives up as soon as the budget is blown");
                assert_eq!(budget, 3);
            }
            other => panic!("expected ErrorBudgetExceeded, got {other:?}"),
        }
        assert_eq!(
            err.to_string(),
            "gave up after 4 malformed lines (budget: 3)"
        );
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn lossy_read_of_clean_input_matches_strict_read() {
        let buf = encode(&sample_records(), TraceFormat::Csv);
        let strict = read(&buf, TraceFormat::Csv).unwrap();
        let lossy = read_lossy(&buf, TraceFormat::Csv, ErrorBudget::default()).unwrap();
        assert_eq!(lossy.records, strict);
        assert!(lossy.quarantined.is_empty());
        assert_eq!(lossy.error_rate(), 0.0);
        assert_eq!(LossyRead::default().error_rate(), 0.0);
    }

    #[test]
    fn format_extensions() {
        assert_eq!(TraceFormat::Csv.extension(), "csv");
        assert_eq!(TraceFormat::Columnar.extension(), "mct");
    }

    #[test]
    fn trace_file_round_trip() {
        use crate::{TraceConfig, TraceGenerator};
        let gen = TraceGenerator::new(TraceConfig {
            mobile_users: 60,
            pc_only_users: 10,
            ..TraceConfig::default()
        })
        .unwrap();
        let expected: Vec<LogRecord> = gen.iter_user_records().flatten().collect();
        assert!(expected.len() > 100);
        let dir = std::env::temp_dir();
        let mut sizes = Vec::new();
        for format in [TraceFormat::Csv, TraceFormat::Columnar] {
            let path = dir.join(format!("mcs-io-test.{}", format.extension()));
            let file = io::BufWriter::new(std::fs::File::create(&path).unwrap());
            let mut w = TraceWriter::new(file, format).unwrap();
            for r in &expected {
                w.push(r).unwrap();
            }
            let (_, n) = w.finish().unwrap();
            assert_eq!(n, expected.len() as u64, "{format:?}");
            let back: Vec<LogRecord> = open_trace(&path, format)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(back, expected, "{format:?}");
            sizes.push(std::fs::metadata(&path).unwrap().len());
            let _ = std::fs::remove_file(path);
        }
        // 49 B of fixed-width columns per record, plus the dictionaries
        // and block frames.
        assert!(
            sizes[1] <= 50 * expected.len() as u64,
            ".mct should take at most 50 B per record: {sizes:?} for {} records",
            expected.len()
        );
    }
}
