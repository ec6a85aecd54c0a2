//! The `.mct` binary columnar trace shard format.
//!
//! CSV keeps paper-scale traces readable but slow: at 349 M records the
//! text format spends its time parsing and burns ~100 bytes per record.
//! `.mct` stores the Table 1 schema as fixed-width little-endian columns
//! inside length-prefixed blocks, with the high-cardinality user/device
//! identifiers interned through a per-shard dictionary — decoding is a
//! bounds-checked memcpy per column, and a record costs ~49 bytes plus
//! its share of the dictionary.
//!
//! On-disk layout (DESIGN.md §11 is the normative spec):
//!
//! ```text
//! shard  := header block*
//! header := magic "MCT1" | version u32 | flags u32 | fnv1a64(previous 12 bytes)
//! block  := record_count u32 | payload_len u32 | payload
//! payload:= new_users u32   | new_users  × u64      (dictionary delta)
//!         | new_devices u32 | new_devices × u64     (dictionary delta)
//!         | timestamp_ms  record_count × u64
//!         | user_idx      record_count × u32        (index into user dict)
//!         | device_idx    record_count × u32        (index into device dict)
//!         | op            record_count × u8         (packed op code)
//!         | volume_bytes  record_count × u64
//!         | processing_ms record_count × f64
//!         | srv_ms        record_count × f64
//!         | rtt_ms        record_count × f64
//! ```
//!
//! All integers and floats are little-endian. The shard dictionary is the
//! concatenation of the per-block deltas in block order (first-appearance
//! order within the shard); indices may reference entries introduced by
//! the *same* block, so a reader only ever needs the blocks it has already
//! seen — the format streams in one forward pass and a writer never
//! buffers more than one block. End of file after a complete block is the
//! terminator; EOF anywhere else is a typed
//! [`ReadError::Truncated`].

use std::collections::HashMap;
use std::io::{self, BufRead, Write};

use crate::io::ReadError;
use crate::record::{DeviceType, Direction, LogRecord, RequestType};

/// Magic bytes opening every `.mct` shard.
pub const MAGIC: [u8; 4] = *b"MCT1";

/// Current format version.
pub const VERSION: u32 = 1;

/// Default records per block: large enough to amortise framing, small
/// enough that a decoded block stays cache- and allocator-friendly.
pub const DEFAULT_BLOCK_RECORDS: usize = 32 * 1024;

/// Hard cap on a block's payload length (guards allocations against a
/// corrupt or adversarial length prefix).
const MAX_PAYLOAD_LEN: u32 = 256 * 1024 * 1024;

/// Hard cap on records per block (same guard, other axis).
const MAX_BLOCK_RECORDS: u32 = 1 << 24;

/// Bytes one record occupies across the fixed-width columns.
const RECORD_BYTES: usize = 8 + 4 + 4 + 1 + 8 + 8 + 8 + 8;

/// FNV-1a 64-bit over `bytes` — the header checksum. Hand-rolled so the
/// format needs no hashing dependency.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Packs the three categorical fields into one op-code byte:
/// `device_type * 8 + request * 2 + proxied`.
fn op_code(r: &LogRecord) -> u8 {
    let dt = match r.device_type {
        DeviceType::Android => 0u8,
        DeviceType::Ios => 1,
        DeviceType::Pc => 2,
    };
    let req = match r.request {
        RequestType::FileOp(Direction::Store) => 0u8,
        RequestType::FileOp(Direction::Retrieve) => 1,
        RequestType::Chunk(Direction::Store) => 2,
        RequestType::Chunk(Direction::Retrieve) => 3,
    };
    dt * 8 + req * 2 + u8::from(r.proxied)
}

/// Reverses [`op_code`]; `None` for bytes outside the valid range.
fn op_decode(code: u8) -> Option<(DeviceType, RequestType, bool)> {
    let dt = match code / 8 {
        0 => DeviceType::Android,
        1 => DeviceType::Ios,
        2 => DeviceType::Pc,
        _ => return None,
    };
    let req = match (code % 8) / 2 {
        0 => RequestType::FileOp(Direction::Store),
        1 => RequestType::FileOp(Direction::Retrieve),
        2 => RequestType::Chunk(Direction::Store),
        _ => RequestType::Chunk(Direction::Retrieve),
    };
    Some((dt, req, code % 2 == 1))
}

// ---------------------------------------------------------------- writer

/// Streaming `.mct` writer behind [`crate::TraceWriter`]: push records one
/// at a time, blocks flush to the underlying writer as they fill,
/// [`finish`](Self::finish) writes the remainder. Peak memory is one
/// block, never the shard.
pub(crate) struct ColumnarWriter<W: Write> {
    w: W,
    block_records: usize,
    /// Shard-wide id → dictionary-index maps (lookup only; iteration
    /// order never observed).
    users: HashMap<u64, u32>,
    devices: HashMap<u64, u32>,
    /// Dictionary entries first seen in the current block.
    new_users: Vec<u64>,
    new_devices: Vec<u64>,
    /// Records buffered for the current block, already interned.
    buf: Vec<(LogRecord, u32, u32)>,
}

impl<W: Write> ColumnarWriter<W> {
    /// Writes the shard header and returns a writer with the default
    /// block size.
    pub(crate) fn new(w: W) -> io::Result<Self> {
        Self::with_block_records(w, DEFAULT_BLOCK_RECORDS)
    }

    /// [`ColumnarWriter::new`] with an explicit records-per-block cap
    /// (mainly for tests exercising multi-block shards).
    pub(crate) fn with_block_records(mut w: W, block_records: usize) -> io::Result<Self> {
        let block_records = block_records.clamp(1, MAX_BLOCK_RECORDS as usize);
        let mut header = [0u8; 20];
        header[..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&0u32.to_le_bytes());
        let sum = fnv1a64(&header[..12]);
        header[12..20].copy_from_slice(&sum.to_le_bytes());
        w.write_all(&header)?;
        Ok(Self {
            w,
            block_records,
            users: HashMap::new(),
            devices: HashMap::new(),
            new_users: Vec::new(),
            new_devices: Vec::new(),
            buf: Vec::with_capacity(block_records),
        })
    }

    /// Appends one record; flushes a block when the buffer is full.
    pub(crate) fn push(&mut self, r: &LogRecord) -> io::Result<()> {
        let uidx = intern(&mut self.users, &mut self.new_users, r.user_id)?;
        let didx = intern(&mut self.devices, &mut self.new_devices, r.device_id)?;
        self.buf.push((*r, uidx, didx));
        if self.buf.len() >= self.block_records {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Writes the trailing partial block and returns the underlying
    /// writer.
    pub(crate) fn finish(mut self) -> io::Result<W> {
        if !self.buf.is_empty() {
            self.flush_block()?;
        }
        Ok(self.w)
    }

    fn flush_block(&mut self) -> io::Result<()> {
        let n = self.buf.len();
        // On-disk block fields are u32; a block that cannot express its own
        // lengths must fail loudly, not truncate into a corrupt file.
        fn u32_len(n: usize, what: &str) -> io::Result<u32> {
            u32::try_from(n).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{what} ({n}) exceeds the u32 block format"),
                )
            })
        }
        let payload_len =
            4 + 8 * self.new_users.len() + 4 + 8 * self.new_devices.len() + n * RECORD_BYTES;
        let mut payload = Vec::with_capacity(payload_len);
        put_u32(
            &mut payload,
            u32_len(self.new_users.len(), "user dictionary")?,
        );
        for &u in &self.new_users {
            payload.extend_from_slice(&u.to_le_bytes());
        }
        put_u32(
            &mut payload,
            u32_len(self.new_devices.len(), "device dictionary")?,
        );
        for &d in &self.new_devices {
            payload.extend_from_slice(&d.to_le_bytes());
        }
        for (r, _, _) in &self.buf {
            payload.extend_from_slice(&r.timestamp_ms.to_le_bytes());
        }
        for &(_, uidx, _) in &self.buf {
            payload.extend_from_slice(&uidx.to_le_bytes());
        }
        for &(_, _, didx) in &self.buf {
            payload.extend_from_slice(&didx.to_le_bytes());
        }
        for (r, _, _) in &self.buf {
            payload.push(op_code(r));
        }
        for (r, _, _) in &self.buf {
            payload.extend_from_slice(&r.volume_bytes.to_le_bytes());
        }
        for (r, _, _) in &self.buf {
            payload.extend_from_slice(&r.processing_ms.to_le_bytes());
        }
        for (r, _, _) in &self.buf {
            payload.extend_from_slice(&r.srv_ms.to_le_bytes());
        }
        for (r, _, _) in &self.buf {
            payload.extend_from_slice(&r.rtt_ms.to_le_bytes());
        }
        self.w
            .write_all(&u32_len(n, "record count")?.to_le_bytes())?;
        self.w
            .write_all(&u32_len(payload.len(), "payload length")?.to_le_bytes())?;
        self.w.write_all(&payload)?;
        self.buf.clear();
        self.new_users.clear();
        self.new_devices.clear();
        Ok(())
    }
}

/// Interns `id`, registering it as a block-delta entry on first sight.
fn intern(map: &mut HashMap<u64, u32>, delta: &mut Vec<u64>, id: u64) -> io::Result<u32> {
    if let Some(&idx) = map.get(&id) {
        return Ok(idx);
    }
    let idx = u32::try_from(map.len())
        .map_err(|_| io::Error::other("columnar dictionary overflow (> 2^32 distinct ids)"))?;
    map.insert(id, idx);
    delta.push(id);
    Ok(idx)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------- reader

/// Streaming `.mct` reader behind [`crate::RecordStream`]: an iterator of
/// `Result<LogRecord, ReadError>` holding at most one decoded block.
/// Structural damage (bad magic, truncation, inconsistent framing) is
/// fatal and ends the stream; per-record damage (a dictionary index out of
/// range, an invalid op code) is yielded as an `Err` that a lossy read can
/// quarantine while the stream continues.
pub(crate) struct ColumnarRecords<R: BufRead> {
    r: R,
    /// `None` until the header has been read (an empty input is an empty
    /// trace, mirroring the CSV reader).
    started: bool,
    done: bool,
    users: Vec<u64>,
    devices: Vec<u64>,
    /// Decoded records of the current block, drained front to back.
    pending: std::vec::IntoIter<Result<LogRecord, ReadError>>,
    /// 0-based index of the block being decoded next.
    block: u64,
    /// Bytes consumed so far (for truncation diagnostics).
    offset: u64,
}

impl<R: BufRead> ColumnarRecords<R> {
    /// Wraps a reader positioned at the start of a shard.
    pub(crate) fn new(r: R) -> Self {
        Self {
            r,
            started: false,
            done: false,
            users: Vec::new(),
            devices: Vec::new(),
            pending: Vec::new().into_iter(),
            block: 0,
            offset: 0,
        }
    }

    fn fatal(&mut self, e: ReadError) -> Option<Result<LogRecord, ReadError>> {
        self.done = true;
        Some(Err(e))
    }

    /// Reads exactly `buf.len()` bytes; `Ok(false)` means clean EOF at
    /// the first byte, `Truncated` means EOF mid-structure.
    fn read_exact_or_eof(&mut self, buf: &mut [u8]) -> Result<bool, ReadError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.r.read(&mut buf[filled..]) {
                Ok(0) => {
                    if filled == 0 {
                        return Ok(false);
                    }
                    return Err(ReadError::Truncated {
                        offset: self.offset + filled as u64,
                    });
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.offset += buf.len() as u64;
        Ok(true)
    }

    fn read_header(&mut self) -> Result<bool, ReadError> {
        let mut header = [0u8; 20];
        if !self.read_exact_or_eof(&mut header)? {
            return Ok(false); // empty input: empty trace
        }
        if header[..4] != MAGIC {
            return Err(ReadError::BadMagic);
        }
        let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if version != VERSION {
            return Err(ReadError::UnsupportedVersion { found: version });
        }
        let expected = fnv1a64(&header[..12]);
        let found = u64::from_le_bytes(header[12..20].try_into().unwrap_or([0; 8]));
        if expected != found {
            return Err(ReadError::HeaderChecksum { expected, found });
        }
        Ok(true)
    }

    /// Reads and decodes the next block into `pending`. `Ok(false)` at
    /// clean EOF.
    fn read_block(&mut self) -> Result<bool, ReadError> {
        let block = self.block;
        let mut frame = [0u8; 8];
        if !self.read_exact_or_eof(&mut frame)? {
            return Ok(false);
        }
        let n = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        let payload_len = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        if n > MAX_BLOCK_RECORDS {
            return Err(ReadError::CorruptBlock {
                block,
                reason: "record count exceeds the format cap",
            });
        }
        if payload_len > MAX_PAYLOAD_LEN {
            return Err(ReadError::CorruptBlock {
                block,
                reason: "payload length exceeds the format cap",
            });
        }
        let mut payload = vec![0u8; payload_len as usize];
        if !self.read_exact_or_eof(&mut payload)? {
            return Err(ReadError::Truncated {
                offset: self.offset,
            });
        }
        let mut cur = Cursor {
            bytes: &payload,
            pos: 0,
            block,
        };
        let new_users = cur.take_u32()? as usize;
        for _ in 0..new_users {
            let id = cur.take_u64()?;
            self.users.push(id);
        }
        let new_devices = cur.take_u32()? as usize;
        for _ in 0..new_devices {
            let id = cur.take_u64()?;
            self.devices.push(id);
        }
        let n = n as usize;
        let expected = cur.pos + n * RECORD_BYTES;
        if expected != payload.len() {
            return Err(ReadError::CorruptBlock {
                block,
                reason: "payload length disagrees with record and dictionary counts",
            });
        }
        let ts = cur.take_slice(n * 8)?;
        let uidx = cur.take_slice(n * 4)?;
        let didx = cur.take_slice(n * 4)?;
        let ops = cur.take_slice(n)?;
        let vol = cur.take_slice(n * 8)?;
        let proc_ms = cur.take_slice(n * 8)?;
        let srv = cur.take_slice(n * 8)?;
        let rtt = cur.take_slice(n * 8)?;

        let mut out = Vec::with_capacity(n);
        for (i, &op) in ops.iter().enumerate() {
            let ui = le_u32(uidx, i);
            let di = le_u32(didx, i);
            let user_id = match self.users.get(ui as usize) {
                Some(&u) => u,
                None => {
                    out.push(Err(ReadError::DictIndex {
                        block,
                        record: u32::try_from(i).unwrap_or(u32::MAX),
                        index: ui,
                        len: u32::try_from(self.users.len()).unwrap_or(u32::MAX),
                    }));
                    continue;
                }
            };
            let device_id = match self.devices.get(di as usize) {
                Some(&d) => d,
                None => {
                    out.push(Err(ReadError::DictIndex {
                        block,
                        record: u32::try_from(i).unwrap_or(u32::MAX),
                        index: di,
                        len: u32::try_from(self.devices.len()).unwrap_or(u32::MAX),
                    }));
                    continue;
                }
            };
            let (device_type, request, proxied) = match op_decode(op) {
                Some(t) => t,
                None => {
                    out.push(Err(ReadError::OpCode {
                        block,
                        record: u32::try_from(i).unwrap_or(u32::MAX),
                        code: op,
                    }));
                    continue;
                }
            };
            out.push(Ok(LogRecord {
                timestamp_ms: le_u64(ts, i),
                device_type,
                device_id,
                user_id,
                request,
                volume_bytes: le_u64(vol, i),
                processing_ms: f64::from_bits(le_u64(proc_ms, i)),
                srv_ms: f64::from_bits(le_u64(srv, i)),
                rtt_ms: f64::from_bits(le_u64(rtt, i)),
                proxied,
            }));
        }
        self.pending = out.into_iter();
        self.block += 1;
        Ok(true)
    }
}

/// Little-endian u64 at element `i` of a packed column.
fn le_u64(col: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&col[i * 8..i * 8 + 8]);
    u64::from_le_bytes(b)
}

/// Little-endian u32 at element `i` of a packed column.
fn le_u32(col: &[u8], i: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&col[i * 4..i * 4 + 4]);
    u32::from_le_bytes(b)
}

/// Bounds-checked cursor over a block payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    block: u64,
}

impl<'a> Cursor<'a> {
    fn take_slice(&mut self, len: usize) -> Result<&'a [u8], ReadError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ReadError::CorruptBlock {
                block: self.block,
                reason: "payload shorter than its declared contents",
            }),
        }
    }

    fn take_u32(&mut self) -> Result<u32, ReadError> {
        let s = self.take_slice(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn take_u64(&mut self) -> Result<u64, ReadError> {
        let s = self.take_slice(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }
}

impl<R: BufRead> Iterator for ColumnarRecords<R> {
    type Item = Result<LogRecord, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            match self.read_header() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => return self.fatal(e),
            }
        }
        loop {
            if let Some(item) = self.pending.next() {
                return Some(item);
            }
            match self.read_block() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => return self.fatal(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{collect_records_lossy, ErrorBudget, LossyRead};
    use crate::record::CHUNK_SIZE;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord {
                timestamp_ms: 0,
                device_type: DeviceType::Android,
                device_id: 11,
                user_id: 500,
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
                device_id: 12,
                user_id: 500,
                request: RequestType::Chunk(Direction::Retrieve),
                volume_bytes: CHUNK_SIZE,
                processing_ms: 950.25,
                srv_ms: 120.0,
                rtt_ms: 140.5,
                proxied: true,
            },
            LogRecord {
                timestamp_ms: 99_999,
                device_type: DeviceType::Pc,
                device_id: 13,
                user_id: 501,
                request: RequestType::Chunk(Direction::Store),
                volume_bytes: 4096,
                processing_ms: 80.0,
                srv_ms: 60.0,
                rtt_ms: 30.0,
                proxied: false,
            },
        ]
    }

    fn encode(records: &[LogRecord], block_records: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = ColumnarWriter::with_block_records(&mut buf, block_records).unwrap();
        for r in records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    /// A strict read of `bytes`.
    fn decode(bytes: &[u8]) -> Result<Vec<LogRecord>, ReadError> {
        ColumnarRecords::new(bytes).collect()
    }

    fn decode_lossy(bytes: &[u8], budget: ErrorBudget) -> Result<LossyRead, ReadError> {
        collect_records_lossy(ColumnarRecords::new(bytes), budget)
    }

    #[test]
    fn round_trip_single_block() {
        let recs = sample_records();
        let buf = encode(&recs, DEFAULT_BLOCK_RECORDS);
        assert_eq!(decode(&buf).unwrap(), recs);
    }

    #[test]
    fn round_trip_multi_block_with_dict_deltas() {
        // Block size 2 forces the second block to reference dictionary
        // entries introduced by the first AND to introduce its own.
        let recs = sample_records();
        let buf = encode(&recs, 2);
        let back = decode(&buf).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn op_code_round_trips_all_valid_values() {
        for dt in [DeviceType::Android, DeviceType::Ios, DeviceType::Pc] {
            for req in [
                RequestType::FileOp(Direction::Store),
                RequestType::FileOp(Direction::Retrieve),
                RequestType::Chunk(Direction::Store),
                RequestType::Chunk(Direction::Retrieve),
            ] {
                for proxied in [false, true] {
                    let mut r = sample_records()[0];
                    r.device_type = dt;
                    r.request = req;
                    r.proxied = proxied;
                    let (d2, q2, p2) = op_decode(op_code(&r)).unwrap();
                    assert_eq!((d2, q2, p2), (dt, req, proxied));
                }
            }
        }
        assert!(op_decode(24).is_none());
        assert!(op_decode(255).is_none());
    }

    #[test]
    fn empty_input_is_empty_trace() {
        assert!(decode(b"").unwrap().is_empty());
    }

    #[test]
    fn empty_shard_with_header_is_empty_trace() {
        let buf = encode(&[], DEFAULT_BLOCK_RECORDS);
        assert_eq!(buf.len(), 20, "header only");
        assert!(decode(&buf).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut buf = encode(&sample_records(), 64);
        buf[0] = b'X';
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, ReadError::BadMagic));
    }

    #[test]
    fn wrong_version_is_fatal() {
        let mut buf = encode(&sample_records(), 64);
        buf[4] = 9;
        // Re-seal the checksum so the version check (not the checksum)
        // fires.
        let sum = fnv1a64(&buf[..12]);
        buf[12..20].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, ReadError::UnsupportedVersion { found: 9 }));
    }

    #[test]
    fn corrupt_header_checksum_is_fatal() {
        let mut buf = encode(&sample_records(), 64);
        buf[13] ^= 0xff;
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, ReadError::HeaderChecksum { .. }));
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn truncated_header_is_fatal() {
        let buf = encode(&sample_records(), 64);
        let err = decode(&buf[..10]).unwrap_err();
        assert!(matches!(err, ReadError::Truncated { .. }));
    }

    #[test]
    fn truncated_block_is_fatal() {
        let buf = encode(&sample_records(), 64);
        let err = decode(&buf[..buf.len() - 7]).unwrap_err();
        assert!(matches!(err, ReadError::Truncated { .. }));
        // And a cut inside the frame prefix itself:
        let err = decode(&buf[..23]).unwrap_err();
        assert!(matches!(err, ReadError::Truncated { .. }));
    }

    #[test]
    fn inconsistent_payload_length_is_fatal() {
        let mut buf = encode(&sample_records(), 64);
        //

        // Bump the record count without growing the payload.
        let n = u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]);
        buf[20..24].copy_from_slice(&(n + 1).to_le_bytes());
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, ReadError::CorruptBlock { block: 0, .. }));
    }

    #[test]
    fn dict_index_out_of_range_is_per_record() {
        let recs = sample_records();
        let mut buf = encode(&recs, 64);
        // The user-index column starts after the frame (8) + dict deltas:
        // 4 + 2*8 users, 4 + 3*8 devices, then 3*8 timestamps.
        let uidx_off = 20 + 8 + (4 + 16) + (4 + 24) + 24;
        buf[uidx_off..uidx_off + 4].copy_from_slice(&99u32.to_le_bytes());
        let err = decode(&buf).unwrap_err();
        match err {
            ReadError::DictIndex {
                block: 0,
                record: 0,
                index: 99,
                len,
            } => assert_eq!(len, 2),
            other => panic!("expected DictIndex, got {other:?}"),
        }
        // Lossy mode quarantines the one record and keeps the rest.
        let lossy = decode_lossy(&buf, ErrorBudget::default()).unwrap();
        assert_eq!(lossy.records, recs[1..]);
        assert_eq!(lossy.quarantined.len(), 1);
    }

    #[test]
    fn invalid_op_code_is_per_record_and_respects_budget() {
        let recs = sample_records();
        let mut buf = encode(&recs, 64);
        // The op column: frame + dicts + ts + uidx + didx.
        let op_off = 20 + 8 + (4 + 16) + (4 + 24) + 24 + 12 + 12;
        buf[op_off] = 240;
        buf[op_off + 1] = 241;
        let lossy = decode_lossy(&buf, ErrorBudget::default()).unwrap();
        assert_eq!(lossy.records, recs[2..]);
        assert_eq!(lossy.quarantined.len(), 2);
        assert!(matches!(
            lossy.quarantined[0],
            ReadError::OpCode {
                block: 0,
                record: 0,
                code: 240
            }
        ));
        let err = decode_lossy(&buf, ErrorBudget { max_errors: 1 }).unwrap_err();
        assert!(matches!(
            err,
            ReadError::ErrorBudgetExceeded {
                errors: 2,
                budget: 1
            }
        ));
    }

    #[test]
    fn re_encode_is_byte_identical() {
        let recs = sample_records();
        let buf = encode(&recs, 2);
        let back = decode(&buf).unwrap();
        let again = encode(&back, 2);
        assert_eq!(buf, again);
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
