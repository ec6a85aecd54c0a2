//! Storage front-end servers.
//!
//! Front-ends terminate the HTTP chunk requests (§2.1) and are where the
//! paper's logs were collected; they keep a reference-counted chunk store
//! and per-hour load counters (the server-side view of Fig. 1). The chunk
//! store is the one record of which chunks a front-end holds: one reference
//! count per chunk, no sizes (callers hold the manifests sizes follow from).
//! It is hashed by the digest itself (`DigestHash`); uploads probe it once.

use std::collections::{BTreeSet, HashMap};

use crate::content::FileManifest;
use crate::md5::{Digest, DigestHash};

/// A storage front-end server.
#[derive(Debug)]
pub struct FrontEnd {
    /// Resident chunks: digest → completed uploads homed here that hold it.
    chunks: HashMap<Digest, u32, DigestHash>,
    /// Bytes of the resident chunks.
    stored_bytes: u64,
    /// Bytes received per hour-of-trace (uploads).
    pub upload_load: Vec<f64>,
    /// Bytes served per hour-of-trace (downloads).
    pub download_load: Vec<f64>,
    /// Chunk-storage requests handled.
    pub chunk_puts: u64,
    /// Chunk-retrieval requests handled.
    pub chunk_gets: u64,
    /// Retrieval requests for unknown chunks (consistency violations).
    pub missing_gets: u64,
}

impl FrontEnd {
    /// Creates a front-end covering `horizon_hours` of load accounting.
    pub fn new(horizon_hours: usize) -> Self {
        Self {
            chunks: HashMap::default(),
            stored_bytes: 0,
            upload_load: vec![0.0; horizon_hours.max(1)],
            download_load: vec![0.0; horizon_hours.max(1)],
            chunk_puts: 0,
            chunk_gets: 0,
            missing_gets: 0,
        }
    }

    fn hour(&self, now_ms: u64) -> usize {
        ((now_ms / 3_600_000) as usize).min(self.upload_load.len() - 1)
    }

    /// Stores one `size`-byte chunk, idempotent per digest. It takes no
    /// reference: [`Self::retain_file`] does, once the upload completes,
    /// so a chunk an unfinished upload left behind is resident with no
    /// reference.
    pub fn put_chunk(&mut self, digest: Digest, size: u64, now_ms: u64) {
        self.ingest(digest, size, self.hour(now_ms));
    }

    /// Books one chunk put in hour `h`; returns its reference count.
    fn ingest(&mut self, digest: Digest, size: u64, h: usize) -> &mut u32 {
        self.chunk_puts += 1;
        self.upload_load[h] += size as f64;
        self.chunks.entry(digest).or_insert_with(|| {
            self.stored_bytes = self.stored_bytes.saturating_add(size);
            0
        })
    }

    /// Takes one reference on every chunk of an upload that completed
    /// here. A chunk's reference count is the number of completed uploads
    /// homed on this front-end that contain it (saturating).
    pub fn retain_file(&mut self, manifest: &FileManifest) {
        for d in &manifest.chunk_digests {
            if let Some(refs) = self.chunks.get_mut(d) {
                *refs = refs.saturating_add(1);
            }
        }
    }

    /// Serves one `size`-byte chunk; `false` if it is not resident.
    pub fn get_chunk(&mut self, digest: &Digest, size: u64, now_ms: u64) -> bool {
        self.chunk_gets += 1;
        let resident = self.chunks.contains_key(digest);
        if resident {
            let h = self.hour(now_ms);
            self.download_load[h] += size as f64;
        } else {
            self.missing_gets += 1;
        }
        resident
    }

    /// Ingests all chunks of a manifest and retains them: a whole upload
    /// in one step, one probe per chunk.
    pub fn put_file(&mut self, manifest: &FileManifest, now_ms: u64) {
        let h = self.hour(now_ms);
        for (i, &d) in manifest.chunk_digests.iter().enumerate() {
            let refs = self.ingest(d, manifest.chunk_size(i as u64), h);
            *refs = refs.saturating_add(1);
        }
    }

    /// Serves all chunks of a manifest; returns bytes served.
    pub fn get_file(&mut self, manifest: &FileManifest, now_ms: u64) -> u64 {
        let mut total = 0;
        for (i, d) in manifest.chunk_digests.iter().enumerate() {
            let size = manifest.chunk_size(i as u64);
            if self.get_chunk(d, size, now_ms) {
                total += size;
            }
        }
        total
    }

    /// Reclaims the chunks of a manifest (garbage collection of orphaned
    /// content): decrements refcounts and frees chunks that reach zero.
    /// Returns bytes freed.
    pub fn reclaim_file(&mut self, manifest: &FileManifest) -> u64 {
        let mut freed = 0;
        for (i, d) in manifest.chunk_digests.iter().enumerate() {
            if let Some(refs) = self.chunks.get_mut(d) {
                *refs = refs.saturating_sub(1);
                if *refs == 0 {
                    self.chunks.remove(d);
                    freed += manifest.chunk_size(i as u64);
                }
            }
        }
        self.stored_bytes = self.stored_bytes.saturating_sub(freed);
        freed
    }

    /// Distinct chunks resident.
    pub fn distinct_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Indices of `manifest`'s chunks resident here: what a resumed
    /// upload to this front-end may skip.
    pub fn resident_chunks(&self, manifest: &FileManifest) -> BTreeSet<u64> {
        manifest
            .chunk_digests
            .iter()
            .enumerate()
            .filter(|(_, d)| self.chunks.contains_key(d))
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Bytes of unique chunk data resident.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Peak-to-mean ratio of total (up + down) hourly load — the §2.4
    /// over-provisioning factor seen server-side.
    pub fn peak_to_mean_load(&self) -> f64 {
        let totals: Vec<f64> = self
            .upload_load
            .iter()
            .zip(&self.download_load)
            .map(|(u, d)| u + d)
            .collect();
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        let peak = totals.iter().copied().fold(0.0f64, f64::max);
        if mean == 0.0 {
            0.0
        } else {
            peak / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{Content, CHUNK_SIZE};
    use std::collections::BTreeMap;

    fn manifest(seed: u64, size: u64) -> FileManifest {
        FileManifest::build("f", &Content::Synthetic { seed, size })
    }

    #[test]
    fn put_get_round_trip() {
        let mut fe = FrontEnd::new(24);
        let m = manifest(1, 2 * CHUNK_SIZE + 10);
        fe.put_file(&m, 1000);
        assert_eq!(fe.chunk_puts, 3);
        assert_eq!(fe.distinct_chunks(), 3);
        assert_eq!(fe.stored_bytes(), 2 * CHUNK_SIZE + 10);
        let served = fe.get_file(&m, 2000);
        assert_eq!(served, 2 * CHUNK_SIZE + 10);
        assert_eq!(fe.missing_gets, 0);
    }

    #[test]
    fn missing_chunk_recorded() {
        let mut fe = FrontEnd::new(24);
        let m = manifest(2, 100);
        assert!(!fe.get_chunk(&m.chunk_digests[0], 100, 0));
        assert_eq!(fe.missing_gets, 1);
    }

    #[test]
    fn duplicate_chunks_refcounted_not_duplicated() {
        let mut fe = FrontEnd::new(24);
        let m = manifest(3, CHUNK_SIZE);
        fe.put_file(&m, 0);
        fe.put_file(&m, 0);
        assert_eq!(fe.distinct_chunks(), 1);
        assert_eq!(fe.stored_bytes(), CHUNK_SIZE);
        assert_eq!(fe.chunk_puts, 2);
    }

    #[test]
    fn resident_chunks_are_per_frontend_and_follow_reclaim() {
        let m = manifest(6, 3 * CHUNK_SIZE);
        let mut fe = FrontEnd::new(24);
        // A stalled upload left chunks 0 and 2 behind.
        fe.put_chunk(m.chunk_digests[0], CHUNK_SIZE, 0);
        fe.put_chunk(m.chunk_digests[2], CHUNK_SIZE, 0);
        assert_eq!(
            fe.resident_chunks(&m).into_iter().collect::<Vec<_>>(),
            vec![0, 2]
        );
        let mut other = FrontEnd::new(24);
        other.put_file(&manifest(7, CHUNK_SIZE), 0);
        assert!(other.resident_chunks(&m).is_empty(), "per front-end");
        // The resumed upload sends chunk 1 and completes.
        fe.put_chunk(m.chunk_digests[1], CHUNK_SIZE, 0);
        fe.retain_file(&m);
        assert_eq!(fe.resident_chunks(&m).len(), 3);
        // Reclaiming the one completed upload frees every chunk.
        assert_eq!(fe.reclaim_file(&m), 3 * CHUNK_SIZE);
        assert!(fe.resident_chunks(&m).is_empty());
    }

    #[test]
    fn hourly_load_accounting() {
        let mut fe = FrontEnd::new(3);
        let m = manifest(4, 1000);
        fe.put_file(&m, 30 * 60 * 1000); // hour 0
        fe.put_file(&m, 2 * 3_600_000 + 1); // hour 2
        fe.get_file(&m, 2 * 3_600_000 + 2);
        assert_eq!(fe.upload_load[0], 1000.0);
        assert_eq!(fe.upload_load[1], 0.0);
        assert_eq!(fe.upload_load[2], 1000.0);
        assert_eq!(fe.download_load[2], 1000.0);
        // Beyond-horizon timestamps clamp to the last hour.
        fe.put_file(&m, 99 * 3_600_000);
        assert_eq!(fe.upload_load[2], 2000.0);
    }

    /// The chunk store as it was before it kept refcounts only: each
    /// resident chunk's size and a 64-bit reference count.
    struct Model {
        chunks: BTreeMap<Digest, (u64, u64)>,
        upload_load: Vec<f64>,
        download_load: Vec<f64>,
        missing_gets: u64,
    }

    impl Model {
        fn hour(&self, now_ms: u64) -> usize {
            usize::try_from(now_ms / 3_600_000)
                .unwrap()
                .min(self.upload_load.len() - 1)
        }

        fn put_chunk(&mut self, d: Digest, size: u64, now_ms: u64) {
            let h = self.hour(now_ms);
            self.upload_load[h] += size as f64;
            self.chunks.entry(d).or_insert((size, 0));
        }

        fn retain_file(&mut self, m: &FileManifest) {
            for d in &m.chunk_digests {
                if let Some(c) = self.chunks.get_mut(d) {
                    c.1 += 1;
                }
            }
        }

        fn get_chunk(&mut self, d: &Digest, now_ms: u64) -> Option<u64> {
            let h = self.hour(now_ms);
            match self.chunks.get(d) {
                Some(&(size, _)) => {
                    self.download_load[h] += size as f64;
                    Some(size)
                }
                None => {
                    self.missing_gets += 1;
                    None
                }
            }
        }

        fn reclaim_file(&mut self, m: &FileManifest) -> u64 {
            let mut freed = 0;
            for (i, d) in m.chunk_digests.iter().enumerate() {
                if let Some(c) = self.chunks.get_mut(d) {
                    c.1 = c.1.saturating_sub(1);
                    if c.1 == 0 {
                        freed += m.chunk_size(u64::try_from(i).unwrap());
                        self.chunks.remove(d);
                    }
                }
            }
            freed
        }
    }

    /// splitmix64: deterministic, well-mixed 64-bit stream.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick(state: &mut u64, n: usize) -> usize {
        usize::try_from(next(state) % u64::try_from(n).unwrap()).unwrap()
    }

    /// Small files whose chunks overlap: shared blocks across files, a
    /// file that repeats a chunk digest, partial and empty last chunks.
    fn overlapping_manifests() -> Vec<FileManifest> {
        let block = |b: u8| vec![b; CHUNK_SIZE as usize];
        let inline = |parts: &[Vec<u8>]| {
            let c = Content::Inline(parts.concat().into());
            FileManifest::build("f", &c)
        };
        vec![
            inline(&[block(1), block(2)]),
            inline(&[block(1), block(3), vec![7; 100]]),
            inline(&[block(2), block(2)]),
            inline(&[block(4), block(1), block(4), vec![7; 100]]),
            inline(&[]),
            inline(&[b"hello".to_vec()]),
            manifest(1, 3 * CHUNK_SIZE + 5),
            manifest(2, 100),
            manifest(3, 2 * CHUNK_SIZE),
        ]
    }

    #[test]
    fn chunk_store_accounting_matches_a_sized_model() {
        let files = overlapping_manifests();
        assert!(
            files.iter().any(|m| {
                let distinct: BTreeSet<_> = m.chunk_digests.iter().collect();
                distinct.len() < m.chunk_digests.len()
            }),
            "some file repeats a chunk digest"
        );
        let horizon = 4;
        let (mut unreferenced_frees, mut never_retained_reclaims) = (0, 0);
        for case in 0..64u64 {
            let mut state = case.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xC4A5E;
            let mut fe = FrontEnd::new(horizon);
            let mut model = Model {
                chunks: BTreeMap::new(),
                upload_load: vec![0.0; horizon],
                download_load: vec![0.0; horizon],
                missing_gets: 0,
            };
            let mut retained = vec![false; files.len()];
            for step in 0..200 {
                let f = pick(&mut state, files.len());
                let m = &files[f];
                let i = pick(&mut state, m.chunk_digests.len());
                let (d, size) = (m.chunk_digests[i], m.chunk_size(u64::try_from(i).unwrap()));
                // Up to an hour past the horizon: the last hour absorbs it.
                let now = next(&mut state) % (u64::try_from(horizon + 1).unwrap() * 3_600_000);
                match next(&mut state) % 6 {
                    // A lone chunk: what a stalled upload leaves behind.
                    0 => {
                        fe.put_chunk(d, size, now);
                        model.put_chunk(d, size, now);
                    }
                    1 => {
                        fe.retain_file(m);
                        model.retain_file(m);
                        retained[f] = true;
                    }
                    2 => {
                        fe.put_file(m, now);
                        for (k, &dk) in m.chunk_digests.iter().enumerate() {
                            model.put_chunk(dk, m.chunk_size(u64::try_from(k).unwrap()), now);
                        }
                        model.retain_file(m);
                        retained[f] = true;
                    }
                    3 => {
                        let want = model.get_chunk(&d, now).is_some();
                        assert_eq!(fe.get_chunk(&d, size, now), want, "case {case} step {step}");
                    }
                    4 => {
                        let want: u64 = m
                            .chunk_digests
                            .iter()
                            .filter_map(|dk| model.get_chunk(dk, now))
                            .sum();
                        assert_eq!(fe.get_file(m, now), want, "case {case} step {step}");
                    }
                    _ => {
                        if !retained[f] {
                            never_retained_reclaims += 1;
                        }
                        let unreferenced = m
                            .chunk_digests
                            .iter()
                            .filter(|dk| model.chunks.get(dk).is_some_and(|c| c.1 == 0))
                            .count();
                        unreferenced_frees += unreferenced;
                        let want = model.reclaim_file(m);
                        assert_eq!(fe.reclaim_file(m), want, "case {case} step {step}");
                    }
                }
                let bytes: u64 = model.chunks.values().map(|c| c.0).sum();
                assert_eq!(fe.stored_bytes(), bytes, "case {case} step {step}");
                assert_eq!(fe.distinct_chunks(), model.chunks.len());
                assert_eq!(fe.upload_load, model.upload_load);
                assert_eq!(fe.download_load, model.download_load);
                assert_eq!(fe.missing_gets, model.missing_gets);
                for m in &files {
                    let want: BTreeSet<u64> = (0u64..)
                        .zip(&m.chunk_digests)
                        .filter(|(_, dk)| model.chunks.contains_key(dk))
                        .map(|(k, _)| k)
                        .collect();
                    assert_eq!(fe.resident_chunks(m), want, "case {case} step {step}");
                }
            }
        }
        assert!(
            unreferenced_frees > 0,
            "no reclaim freed an unreferenced chunk"
        );
        assert!(
            never_retained_reclaims > 0,
            "no never-retained file was reclaimed"
        );
    }

    #[test]
    fn chunk_store_entry_stays_small() {
        // One entry per resident chunk: 3.3 M on a paper-sized week.
        fn entry_size<K, V, S>(_: &HashMap<K, V, S>) -> usize {
            std::mem::size_of::<(K, V)>()
        }
        assert!(entry_size(&FrontEnd::new(1).chunks) <= 20);
    }

    #[test]
    fn peak_to_mean() {
        let mut fe = FrontEnd::new(4);
        let m = manifest(5, 4000);
        fe.put_file(&m, 0);
        assert!(fe.peak_to_mean_load() > 3.9, "{}", fe.peak_to_mean_load());
        let empty = FrontEnd::new(4);
        assert_eq!(empty.peak_to_mean_load(), 0.0);
    }
}
