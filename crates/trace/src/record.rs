//! The HTTP request-log schema of Table 1.
//!
//! Every entry the storage front-end servers log is one [`LogRecord`]. The
//! original dataset anonymises device and user identifiers; here they are
//! synthetic `u64`s to begin with. Timestamps are milliseconds relative to
//! the trace start (the paper logs wall-clock seconds; millisecond
//! resolution is needed so chunk requests within a flow stay ordered).

/// Fixed chunk size of the examined service: 512 KB (§2.1).
pub const CHUNK_SIZE: u64 = 512 * 1024;

/// Client platform of the device issuing a request.
///
/// The paper's mobile dataset splits 78.4 % Android / 21.6 % iOS; a separate
/// PC-client dataset backs the §3.2 usage comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// Android mobile device.
    Android,
    /// iOS mobile device.
    Ios,
    /// Desktop PC client.
    Pc,
}

impl DeviceType {
    /// Whether the device is a mobile terminal (Android or iOS).
    pub fn is_mobile(self) -> bool {
        !matches!(self, DeviceType::Pc)
    }
}

/// Transfer direction: towards the cloud (store) or from it (retrieve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Upload / file storage.
    Store,
    /// Download / file retrieval.
    Retrieve,
}

/// The two request kinds the front-end servers see (§2.1): a *file
/// operation* announcing a file's metadata and beginning its transfer, and
/// the *chunk requests* that move the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestType {
    /// File storage/retrieval operation request (carries metadata, no data).
    FileOp(Direction),
    /// Chunk storage/retrieval request (carries up to [`CHUNK_SIZE`] bytes).
    Chunk(Direction),
}

impl RequestType {
    /// The transfer direction of the request.
    pub fn direction(self) -> Direction {
        match self {
            RequestType::FileOp(d) | RequestType::Chunk(d) => d,
        }
    }

    /// True for file-operation requests.
    pub fn is_file_op(self) -> bool {
        matches!(self, RequestType::FileOp(_))
    }

    /// True for chunk requests.
    pub fn is_chunk(self) -> bool {
        matches!(self, RequestType::Chunk(_))
    }
}

/// One log entry, with exactly the Table 1 fields.
///
/// `processing_ms` is the front-end request processing time `T_chunk`
/// (first bytes received by the front-end server → last bytes sent to the
/// client); `srv_ms` is the upstream storage-server share `T_srv` of it,
/// which §4 subtracts to estimate the pure transmission time
/// `t_tran = T_chunk − T_srv`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogRecord {
    /// Milliseconds since the start of the trace.
    pub timestamp_ms: u64,
    /// Platform of the issuing device.
    pub device_type: DeviceType,
    /// Anonymised device identifier.
    pub device_id: u64,
    /// Anonymised user-account identifier.
    pub user_id: u64,
    /// File operation vs chunk request, and its direction.
    pub request: RequestType,
    /// Data volume moved by the request in bytes (0 for file operations).
    pub volume_bytes: u64,
    /// Request processing time `T_chunk` in milliseconds.
    pub processing_ms: f64,
    /// Upstream (storage-server) processing time `T_srv` in milliseconds.
    pub srv_ms: f64,
    /// Average RTT of the carrying TCP connection, in milliseconds.
    pub rtt_ms: f64,
    /// Whether the request went through an HTTP proxy
    /// (`X-FORWARDED-FOR` present).
    pub proxied: bool,
}

impl LogRecord {
    /// Estimated pure transmission time `t_tran = T_chunk − T_srv` (§4.1),
    /// clamped at zero against measurement noise.
    pub fn transmission_ms(&self) -> f64 {
        (self.processing_ms - self.srv_ms).max(0.0)
    }

    /// The §4.1 sending-window estimate
    /// `swnd = reqsize · RTT / t_tran` in bytes, or `None` for requests
    /// that moved no data or have degenerate timing.
    pub fn estimated_swnd(&self) -> Option<f64> {
        let t = self.transmission_ms();
        if self.volume_bytes == 0 || t <= 0.0 || self.rtt_ms <= 0.0 {
            return None;
        }
        Some(self.volume_bytes as f64 * self.rtt_ms / t)
    }

    /// Day index (0-based) of the timestamp within the trace.
    pub fn day(&self) -> u64 {
        self.timestamp_ms / (24 * 3600 * 1000)
    }

    /// Second-of-trace of the timestamp (for hourly binning).
    pub fn second(&self) -> u64 {
        self.timestamp_ms / 1000
    }
}

/// Number of chunks a file of `size` bytes splits into (§2.1: files larger
/// than the chunk size are split; every file has at least one chunk).
pub fn chunk_count(size: u64) -> u64 {
    if size == 0 {
        1
    } else {
        size.div_ceil(CHUNK_SIZE)
    }
}

/// Sizes of the individual chunks of a file of `size` bytes: all
/// [`CHUNK_SIZE`] except a smaller final remainder (a zero-byte file still
/// produces one empty chunk so the transfer exists on the wire).
pub fn chunk_sizes(size: u64) -> Vec<u64> {
    let n = chunk_count(size);
    (0..n)
        .map(|i| {
            if i + 1 < n {
                CHUNK_SIZE
            } else {
                size - (n - 1) * CHUNK_SIZE
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_stats::rng::{stream_rng, Rng};

    fn sample_record() -> LogRecord {
        LogRecord {
            timestamp_ms: 1234,
            device_type: DeviceType::Android,
            device_id: 42,
            user_id: 7,
            request: RequestType::Chunk(Direction::Store),
            volume_bytes: CHUNK_SIZE,
            processing_ms: 4398.0,
            srv_ms: 100.0,
            rtt_ms: 89.238,
            proxied: false,
        }
    }

    #[test]
    fn transmission_time_subtracts_server_share() {
        let r = sample_record();
        assert!((r.transmission_ms() - 4298.0).abs() < 1e-9);
    }

    #[test]
    fn transmission_time_clamped() {
        let mut r = sample_record();
        r.srv_ms = 9999.0;
        assert_eq!(r.transmission_ms(), 0.0);
    }

    #[test]
    fn swnd_estimate_formula() {
        let r = sample_record();
        // swnd = 524288 bytes * 89.238 ms / 4298 ms
        let expected = 524_288.0 * 89.238 / 4298.0;
        assert!((r.estimated_swnd().unwrap() - expected).abs() < 1e-6);
    }

    #[test]
    fn swnd_estimate_none_for_degenerate() {
        let mut r = sample_record();
        r.volume_bytes = 0;
        assert!(r.estimated_swnd().is_none());
        let mut r = sample_record();
        r.processing_ms = 50.0; // t_tran clamps to 0
        assert!(r.estimated_swnd().is_none());
    }

    #[test]
    fn day_and_second() {
        let mut r = sample_record();
        r.timestamp_ms = 2 * 24 * 3600 * 1000 + 5000;
        assert_eq!(r.day(), 2);
        assert_eq!(r.second(), 2 * 24 * 3600 + 5);
    }

    #[test]
    fn chunking_exact_multiple() {
        assert_eq!(chunk_count(CHUNK_SIZE), 1);
        assert_eq!(chunk_count(2 * CHUNK_SIZE), 2);
        let sizes = chunk_sizes(2 * CHUNK_SIZE);
        assert_eq!(sizes, vec![CHUNK_SIZE, CHUNK_SIZE]);
    }

    #[test]
    fn chunking_remainder() {
        let sizes = chunk_sizes(CHUNK_SIZE + 1);
        assert_eq!(sizes, vec![CHUNK_SIZE, 1]);
    }

    #[test]
    fn chunking_small_and_empty() {
        assert_eq!(chunk_sizes(100), vec![100]);
        assert_eq!(chunk_sizes(0), vec![0]);
    }

    #[test]
    fn device_type_mobility() {
        assert!(DeviceType::Android.is_mobile());
        assert!(DeviceType::Ios.is_mobile());
        assert!(!DeviceType::Pc.is_mobile());
    }

    #[test]
    fn request_type_accessors() {
        let f = RequestType::FileOp(Direction::Retrieve);
        assert!(f.is_file_op() && !f.is_chunk());
        assert_eq!(f.direction(), Direction::Retrieve);
        let c = RequestType::Chunk(Direction::Store);
        assert!(c.is_chunk() && !c.is_file_op());
        assert_eq!(c.direction(), Direction::Store);
    }

    #[test]
    fn prop_chunks_sum_to_size() {
        for case in 0..256 {
            let size = stream_rng(0x5EED, case).random_range(0..100 * CHUNK_SIZE);
            let sizes = chunk_sizes(size);
            assert_eq!(sizes.iter().sum::<u64>(), size, "case {case}: size {size}");
            assert_eq!(
                sizes.len() as u64,
                chunk_count(size),
                "case {case}: size {size}"
            );
            // All full except possibly the last.
            for &s in &sizes[..sizes.len() - 1] {
                assert_eq!(s, CHUNK_SIZE, "case {case}: size {size}");
            }
            assert!(
                *sizes.last().unwrap() <= CHUNK_SIZE,
                "case {case}: size {size}"
            );
        }
    }
}
