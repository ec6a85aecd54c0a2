//! Property-based tests over the two trace formats. For *any* record
//! sequence (not only generator-shaped ones), encode → decode must be the
//! identity, and decode → re-encode must reproduce the file byte for byte.
//! Each seeded case is backed by a splitmix64 corpus so it sweeps a wide
//! swath of the value space, including the `u64::MAX` / zero edges and
//! every non-NaN float. And for any damage to a file, both decoders must
//! return records or a typed [`ReadError`], never panic.

#![cfg(test)]

use mcs_stats::rng::{stream_rng, Rng};

use crate::io::{
    collect_records_lossy, ErrorBudget, ReadError, RecordStream, TraceFormat, TraceWriter,
};
use crate::record::{DeviceType, Direction, LogRecord, RequestType};

/// splitmix64: deterministic, well-mixed 64-bit stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Any non-NaN f64: a quarter of draws are an edge value, the rest raw
/// bit patterns (negatives, subnormals, huge and tiny magnitudes). A NaN
/// pattern becomes the infinity of its sign.
fn any_f64(bits: u64) -> f64 {
    const EDGES: [f64; 8] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324, // the smallest subnormal
    ];
    let x = f64::from_bits(bits);
    if bits.is_multiple_of(4) {
        EDGES[(bits >> 2) as usize % EDGES.len()]
    } else if x.is_nan() {
        f64::INFINITY.copysign(x)
    } else {
        x
    }
}

/// One pseudo-random record, hitting id/volume edges with real frequency.
fn random_record(state: &mut u64) -> LogRecord {
    let pick = |state: &mut u64| match next(state) % 4 {
        0 => 0,
        1 => u64::MAX,
        2 => next(state) % 1000,
        _ => next(state),
    };
    let device_type = match next(state) % 3 {
        0 => DeviceType::Android,
        1 => DeviceType::Ios,
        _ => DeviceType::Pc,
    };
    let request = match next(state) % 4 {
        0 => RequestType::FileOp(Direction::Store),
        1 => RequestType::FileOp(Direction::Retrieve),
        2 => RequestType::Chunk(Direction::Store),
        _ => RequestType::Chunk(Direction::Retrieve),
    };
    LogRecord {
        timestamp_ms: pick(state),
        device_type,
        device_id: pick(state),
        user_id: pick(state),
        request,
        volume_bytes: pick(state),
        processing_ms: any_f64(next(state)),
        srv_ms: any_f64(next(state)),
        rtt_ms: any_f64(next(state)),
        proxied: next(state).is_multiple_of(2),
    }
}

/// Encodes `records` in `format`, returning the file bytes.
fn encode(records: &[LogRecord], format: TraceFormat) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), format).unwrap();
    for r in records {
        writer.push(r).unwrap();
    }
    let (bytes, written) = writer.finish().unwrap();
    assert_eq!(written, records.len() as u64);
    bytes
}

/// Decodes `bytes` in `format` via the streaming reader.
fn decode(bytes: &[u8], format: TraceFormat) -> Vec<LogRecord> {
    RecordStream::new(bytes, format)
        .collect::<Result<_, _>>()
        .unwrap()
}

const SEED: u64 = 0x5EED;

/// Encode → decode is the identity and decode → re-encode reproduces
/// the bytes, in both formats, for arbitrary record sequences.
#[test]
fn prop_round_trip_and_reencode_all_formats() {
    for case in 0..256 {
        let mut rng = stream_rng(SEED, case);
        let seed = rng.random_range(0..1u64 << 32);
        let len = rng.random_range(0..200usize);
        let mut state = seed ^ 0x5eed;
        for sub in 0..16 {
            let n = (len + sub * 13) % 200;
            let records: Vec<LogRecord> = (0..n).map(|_| random_record(&mut state)).collect();
            for format in [TraceFormat::Csv, TraceFormat::Columnar] {
                let bytes = encode(&records, format);
                let back = decode(&bytes, format);
                assert_eq!(back, records, "case {case}.{sub}: {format:?} round trip");
                let re = encode(&back, format);
                assert_eq!(re, bytes, "case {case}.{sub}: {format:?} re-encode bytes");
            }
        }
    }
}

/// The columnar block boundary must be invisible to readers: any
/// block size yields the same decoded records (though different
/// bytes), and re-encoding at that same block size is byte-stable.
#[test]
fn prop_columnar_block_size_invariant() {
    for case in 0..256 {
        let mut state = stream_rng(SEED, case).random_range(0..1u64 << 32) ^ 0xb10c;
        let records: Vec<LogRecord> = (0..97).map(|_| random_record(&mut state)).collect();
        let reference = encode(&records, TraceFormat::Columnar);
        for block_records in [1usize, 2, 7, 96, 97, 4096] {
            let mut w =
                crate::columnar::ColumnarWriter::with_block_records(Vec::new(), block_records)
                    .unwrap();
            for r in &records {
                w.push(r).unwrap();
            }
            let bytes = w.finish().unwrap();
            let back = decode(&bytes, TraceFormat::Columnar);
            assert_eq!(back, records, "case {case}: block size {block_records}");
            // Same records, same default-block re-encode bytes.
            assert_eq!(
                encode(&back, TraceFormat::Columnar),
                reference,
                "case {case}: block size {block_records}"
            );
        }
    }
}

/// Damages `bytes` with 1 to 8 mutations, each a bit flip, a deleted
/// byte, an inserted byte or a truncation.
fn mutate(bytes: &mut Vec<u8>, rng: &mut impl Rng) {
    for _ in 0..rng.random_range(1..9u32) {
        let at = rng.random_range(0..bytes.len() + 1);
        match rng.random_range(0..4u32) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.random_range(0..8u32),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, rng.random::<u64>() as u8),
            _ => bytes.truncate(at),
        }
    }
}

/// Both decoders survive arbitrary damage: a strict and a lossy read of a
/// mutated file each return records or a typed [`ReadError`] (a panic
/// fails the test), and where the strict read succeeds the lossy one
/// returns the same records.
#[test]
fn prop_mutated_files_read_as_records_or_typed_errors() {
    const CASES: u64 = 2_000;
    for format in [TraceFormat::Csv, TraceFormat::Columnar] {
        let (mut strict_ok, mut lossy_ok) = (0, 0);
        for case in 0..CASES {
            let mut rng = stream_rng(SEED ^ 0xbad, case);
            let mut state = rng.random::<u64>();
            let n = rng.random_range(0..61usize);
            let records: Vec<LogRecord> = (0..n).map(|_| random_record(&mut state)).collect();
            let mut bytes = encode(&records, format);
            mutate(&mut bytes, &mut rng);
            let strict: Result<Vec<LogRecord>, ReadError> =
                RecordStream::new(&bytes[..], format).collect();
            let lossy = collect_records_lossy(
                RecordStream::new(&bytes[..], format),
                ErrorBudget::default(),
            );
            if let Ok(records) = &strict {
                let lossy = lossy
                    .as_ref()
                    .expect("a clean strict read is a clean lossy read");
                // Compared as bytes: a flipped bit can make a NaN.
                let (got, want) = (encode(&lossy.records, format), encode(records, format));
                assert_eq!(got, want, "case {case}: {format:?}");
            }
            strict_ok += u64::from(strict.is_ok());
            lossy_ok += u64::from(lossy.is_ok());
        }
        // Both outcomes occur, so the damage reaches past the first check.
        assert!(
            (1..CASES).contains(&strict_ok),
            "{format:?}: {strict_ok} strict reads succeeded"
        );
        assert!(
            (1..CASES).contains(&lossy_ok),
            "{format:?}: {lossy_ok} lossy reads succeeded"
        );
    }
}
