//! The metadata server (§2.1).
//!
//! Every store or retrieve begins here. For storage the client sends the
//! file's manifest; if a copy of the content is already on some storage
//! server, the metadata server merely links it into the user's namespace
//! and tells the client **not** to upload (file-level deduplication).
//! Otherwise it directs the client to the closest front-end. For retrieval
//! it resolves a path or shared URL to the manifest and a front-end.
//! Namespaces map paths to digests; a content's chunk digests live in one
//! flat arena, which garbage collection compacts (DESIGN.md §2.5).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mcs_faults::ConfigError;

use crate::content::{chunk_count, FileManifest};
use crate::md5::{Digest, DigestHash};

/// User account identifier.
pub type UserId = u64;

/// A shared-URL token (the service lets users share files by URL, §2.1;
/// downloads by URL are the §3.2.1 content-distribution usage pattern).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShareUrl(pub String);

/// Outcome of a file-storage operation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StoreDecision {
    /// Content already known: linked into the namespace, no upload needed.
    Deduplicated,
    /// Content unknown: client must upload all chunks to this front-end.
    Upload {
        /// Front-end to contact.
        frontend: usize,
    },
}

/// A stored content: its manifest minus the name (paths live in the
/// namespaces) and the file digest (its key), and the front-end holding
/// it. Its `chunk_count(size)` chunk digests start at `first` in the
/// server's arena.
#[derive(Debug)]
struct ContentRecord {
    size: u64,
    first: usize,
    frontend: usize,
}

impl ContentRecord {
    /// The record's chunk digests in `arena`; `None` only if they do not
    /// fit, which no record of a checked manifest can reach.
    fn chunks<'a>(&self, arena: &'a [Digest]) -> Option<&'a [Digest]> {
        let n = usize::try_from(chunk_count(self.size)).ok()?;
        arena.get(self.first..self.first.checked_add(n)?)
    }
}

/// The metadata server.
///
/// The content table, where every store's dedup lookup goes, is hashed by
/// the digest itself (`DigestHash`); garbage collection sorts what it
/// removes. The other tables are B-tree maps, listed in key order. So
/// every output is structurally deterministic (the contract `mcs-lint`
/// rule R1 enforces).
#[derive(Debug, Default)]
pub struct MetadataServer {
    /// Content known to exist on storage servers, by file digest.
    known: HashMap<Digest, ContentRecord, DigestHash>,
    /// Every known content's chunk digests, one content after another.
    chunks: Vec<Digest>,
    /// Per-user namespaces: path → content digest.
    namespaces: BTreeMap<UserId, BTreeMap<Box<str>, Digest>>,
    /// Published share URLs.
    urls: BTreeMap<ShareUrl, Digest>,
    /// Number of front-end servers to spread uploads over.
    frontends: usize,
}

impl MetadataServer {
    /// Creates a metadata server fronting `frontends` front-end servers.
    /// An empty fleet is a configuration error, not a panic.
    pub fn new(frontends: usize) -> Result<Self, ConfigError> {
        if frontends == 0 {
            return Err(ConfigError::ZeroCount { what: "front-end" });
        }
        Ok(Self {
            frontends,
            ..Self::default()
        })
    }

    /// Handles a file-storage operation request: dedup check + namespace
    /// link + front-end selection.
    pub(crate) fn begin_store(&mut self, user: UserId, manifest: &FileManifest) -> StoreDecision {
        let ns = self.namespaces.entry(user).or_default();
        ns.insert(manifest.name.as_str().into(), manifest.file_digest);
        if self.known.contains_key(&manifest.file_digest) {
            StoreDecision::Deduplicated
        } else {
            StoreDecision::Upload {
                frontend: self.closest_frontend(user),
            }
        }
    }

    /// Marks an upload complete: the content now exists on `frontend`,
    /// and future stores of it deduplicate at file level. Its chunk digests
    /// go to the arena; the caller has checked that there are
    /// `chunk_count(size)` of them.
    pub(crate) fn complete_upload(&mut self, manifest: &FileManifest, frontend: usize) {
        debug_assert_eq!(manifest.chunk_count(), chunk_count(manifest.size));
        let record = ContentRecord {
            size: manifest.size,
            first: self.chunks.len(),
            frontend,
        };
        self.chunks.extend_from_slice(&manifest.chunk_digests);
        self.known.insert(manifest.file_digest, record);
    }

    /// The manifest of content `d`, named `name`, and the front-end
    /// holding it.
    fn manifest(&self, d: Digest, name: String) -> Option<(FileManifest, usize)> {
        let record = self.known.get(&d)?;
        let manifest = FileManifest {
            name,
            size: record.size,
            file_digest: d,
            chunk_digests: record.chunks(&self.chunks)?.to_vec(),
        };
        Some((manifest, record.frontend))
    }

    /// Resolves a path in a user's namespace into a manifest named `path`.
    pub fn begin_retrieve(&self, user: UserId, path: &str) -> Option<(FileManifest, usize)> {
        self.manifest(*self.namespaces.get(&user)?.get(path)?, path.to_string())
    }

    /// Publishes a share URL for a stored file.
    pub fn publish_url(&mut self, user: UserId, path: &str) -> Option<ShareUrl> {
        let digest = *self.namespaces.get(&user)?.get(path)?;
        let url = ShareUrl(format!("mcs://share/{}", digest.to_hex()));
        self.urls.insert(url.clone(), digest);
        Some(url)
    }

    /// Resolves a share URL (the §2.1 retrieval path: URL → file MD5 →
    /// manifest). The manifest is named after the URL.
    pub fn begin_retrieve_url(
        &self,
        _requester: UserId,
        url: &ShareUrl,
    ) -> Option<(FileManifest, usize)> {
        self.manifest(*self.urls.get(url)?, url.0.clone())
    }

    /// Deletes a path from a user's namespace; returns the digest it
    /// linked, if it existed. Content is *not* erased here — other users
    /// may still link it; orphan collection is the front-end's
    /// garbage-collection job (the §2.1 note that deletes never touch the
    /// front-end data path is why the paper's logs do not contain them).
    pub fn delete(&mut self, user: UserId, path: &str) -> Option<Digest> {
        self.namespaces.get_mut(&user)?.remove(path)
    }

    /// Garbage collection's metadata half: removes every content no
    /// namespace links and returns each removed manifest (unnamed) with
    /// the front-end holding it, in digest order, for the front-ends to
    /// reclaim. The arena is rebuilt from the surviving records, so it
    /// never holds the chunk lists of removed contents.
    pub(crate) fn collect_unlinked(&mut self) -> Vec<(FileManifest, usize)> {
        let linked: BTreeSet<Digest> = self
            .namespaces
            .values()
            .flat_map(|ns| ns.values().copied())
            .collect();
        let mut removed: Vec<_> = self
            .known
            .keys()
            .filter(|d| !linked.contains(d))
            .filter_map(|&d| self.manifest(d, String::new()))
            .collect();
        removed.sort_unstable_by_key(|(m, _)| m.file_digest);
        self.known.retain(|d, _| linked.contains(d));
        // The survivors' chunk lists, in digest order.
        let arena = std::mem::take(&mut self.chunks);
        for d in &linked {
            if let Some(record) = self.known.get_mut(d) {
                let chunks = record.chunks(&arena).unwrap_or_default();
                record.first = self.chunks.len();
                self.chunks.extend_from_slice(chunks);
            }
        }
        removed
    }

    /// Lists a user's namespace (path, content digest) pairs, sorted by
    /// path (namespaces are path-keyed B-trees, so iteration is the sort).
    pub fn list(&self, user: UserId) -> Vec<(String, Digest)> {
        self.namespaces
            .get(&user)
            .map(|ns| ns.iter().map(|(k, &d)| (k.to_string(), d)).collect())
            .unwrap_or_default()
    }

    /// Whether content with this digest is stored.
    pub fn knows(&self, digest: &Digest) -> bool {
        self.known.contains_key(digest)
    }

    /// Number of distinct stored contents.
    pub fn distinct_contents(&self) -> usize {
        self.known.len()
    }

    /// "Closest" front-end for a user — deterministic rendezvous-style
    /// assignment standing in for the geographic selection the real
    /// service performs.
    pub fn closest_frontend(&self, user: UserId) -> usize {
        let mut best = 0usize;
        let mut best_score = 0u64;
        for fe in 0..self.frontends {
            let mut x = user
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(fe as u64);
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            if x >= best_score {
                best_score = x;
                best = fe;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::Content;

    fn manifest(name: &str, seed: u64, size: u64) -> FileManifest {
        FileManifest::build(name, &Content::Synthetic { seed, size })
    }

    #[test]
    fn zero_frontends_rejected_not_panicked() {
        assert!(MetadataServer::new(0).is_err());
    }

    #[test]
    fn first_store_uploads_second_dedups() {
        let mut md = MetadataServer::new(4).unwrap();
        let m = manifest("a.jpg", 1, 1000);
        match md.begin_store(10, &m) {
            StoreDecision::Upload { frontend } => assert!(frontend < 4),
            other => panic!("expected upload, got {other:?}"),
        }
        md.complete_upload(&m, 0);
        // Same content, other user, other name.
        let m2 = manifest("b.jpg", 1, 1000);
        assert_eq!(md.begin_store(11, &m2), StoreDecision::Deduplicated);
        assert_eq!(md.distinct_contents(), 1);
    }

    #[test]
    fn dedup_requires_completed_upload() {
        let mut md = MetadataServer::new(1).unwrap();
        let m = manifest("a.jpg", 1, 1000);
        let _ = md.begin_store(10, &m);
        // Upload never completed; the same content must upload again.
        let m2 = manifest("a.jpg", 1, 1000);
        assert!(matches!(
            md.begin_store(11, &m2),
            StoreDecision::Upload { .. }
        ));
    }

    #[test]
    fn retrieve_by_path() {
        let mut md = MetadataServer::new(2).unwrap();
        let m = manifest("docs/x.pdf", 7, 5000);
        let _ = md.begin_store(1, &m);
        md.complete_upload(&m, 0);
        let (got, fe) = md.begin_retrieve(1, "docs/x.pdf").expect("found");
        assert_eq!(got.file_digest, m.file_digest);
        assert!(fe < 2);
        assert!(md.begin_retrieve(1, "docs/missing.pdf").is_none());
        assert!(md.begin_retrieve(2, "docs/x.pdf").is_none());
    }

    #[test]
    fn share_urls() {
        let mut md = MetadataServer::new(2).unwrap();
        let m = manifest("video.mp4", 9, 150_000_000);
        let _ = md.begin_store(1, &m);
        md.complete_upload(&m, 0);
        let url = md.publish_url(1, "video.mp4").expect("published");
        // A different user retrieves via the URL.
        let (got, _) = md.begin_retrieve_url(99, &url).expect("resolved");
        assert_eq!(got.file_digest, m.file_digest);
        // Unknown URL misses.
        assert!(md
            .begin_retrieve_url(99, &ShareUrl("mcs://share/bogus".into()))
            .is_none());
        // URL for a path that does not exist.
        assert!(md.publish_url(1, "nope").is_none());
    }

    #[test]
    fn namespace_listing_sorted() {
        let mut md = MetadataServer::new(1).unwrap();
        for (name, seed) in [("b.jpg", 1u64), ("a.jpg", 2), ("c.jpg", 3)] {
            let m = manifest(name, seed, 100);
            let _ = md.begin_store(5, &m);
            md.complete_upload(&m, 0);
        }
        let listing = md.list(5);
        let names: Vec<&str> = listing.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.jpg", "b.jpg", "c.jpg"]);
        assert!(md.list(999).is_empty());
    }

    #[test]
    fn overwriting_a_path_replaces_entry() {
        // §2.1 footnote: no delta updates; a changed file is a new upload.
        let mut md = MetadataServer::new(1).unwrap();
        let v1 = manifest("note.txt", 1, 100);
        let v2 = manifest("note.txt", 2, 120);
        let _ = md.begin_store(1, &v1);
        md.complete_upload(&v1, 0);
        let _ = md.begin_store(1, &v2);
        md.complete_upload(&v2, 0);
        let (got, _) = md.begin_retrieve(1, "note.txt").unwrap();
        assert_eq!(got.file_digest, v2.file_digest);
        assert_eq!(md.distinct_contents(), 2, "old content still exists");
    }

    #[test]
    fn dedup_retrieve_names_the_callers_path() {
        // User 2's store dedups against user 1's upload of the same
        // bytes; each retrieve names the path its caller asked for.
        let mut md = MetadataServer::new(2).unwrap();
        let x = manifest("x.jpg", 3, 4000);
        let _ = md.begin_store(1, &x);
        md.complete_upload(&x, 0);
        let b = manifest("b.jpg", 3, 4000);
        assert_eq!(md.begin_store(2, &b), StoreDecision::Deduplicated);
        let (got, _) = md.begin_retrieve(2, "b.jpg").unwrap();
        assert_eq!(got, b);
        assert_eq!(md.begin_retrieve(1, "x.jpg").unwrap().0, x);
        let url = md.publish_url(2, "b.jpg").unwrap();
        let (shared, _) = md.begin_retrieve_url(7, &url).unwrap();
        assert_eq!(shared.name, url.0);
        assert_eq!(shared.chunk_digests, x.chunk_digests);
    }

    #[test]
    fn orphans_carry_their_chunk_lists() {
        let mut md = MetadataServer::new(2).unwrap();
        let m = manifest("a.bin", 4, 1_200_000);
        let _ = md.begin_store(1, &m);
        md.complete_upload(&m, 1);
        assert!(md.collect_unlinked().is_empty());
        assert_eq!(md.delete(1, "a.bin"), Some(m.file_digest));
        let orphans = md.collect_unlinked();
        assert_eq!(orphans.len(), 1);
        let (got, fe) = &orphans[0];
        assert_eq!((got.file_digest, got.size, *fe), (m.file_digest, m.size, 1));
        assert_eq!(got.chunk_digests, m.chunk_digests);
        assert!(got.name.is_empty(), "no path links an orphan");
        assert_eq!(md.distinct_contents(), 0);
        assert!(
            md.chunks.is_empty(),
            "the arena keeps no removed chunk list"
        );
        assert!(
            md.collect_unlinked().is_empty(),
            "an orphan is removed once"
        );
    }

    #[test]
    fn orphans_are_listed_in_digest_order() {
        let mut md = MetadataServer::new(2).unwrap();
        for seed in 0..12u64 {
            let m = manifest(&format!("f{seed}"), seed, 1000 + seed);
            let _ = md.begin_store(seed, &m);
            md.complete_upload(&m, 0);
            md.delete(seed, &format!("f{seed}")).unwrap();
        }
        let digests: Vec<Digest> = md
            .collect_unlinked()
            .iter()
            .map(|(m, _)| m.file_digest)
            .collect();
        assert_eq!(digests.len(), 12);
        assert!(
            digests.windows(2).all(|w| w[0] < w[1]),
            "GC walks contents in digest order: {digests:?}"
        );
    }

    /// A seeded model check of the chunk-digest arena and the GC call,
    /// through the fair-weather service. Each of the 64 cases runs 1-99
    /// ops by 3 users over 6 paths: a store (40 %) of one of 24 contents
    /// (fresh, a dedup, or an overwrite of a path), a retrieve (25 %) of a
    /// present or absent path, a delete (20 %) or a GC (15 %). The model
    /// is a `BTreeMap` of live paths to their contents.
    #[test]
    fn arena_and_gc_match_a_model_over_seeded_op_sequences() {
        use crate::content::CHUNK_SIZE;
        use crate::service::StorageService;
        use mcs_stats::rng::{stream_rng, Rng};
        const SIZES: [u64; 6] = [
            0,
            1,
            CHUNK_SIZE,
            CHUNK_SIZE + 1,
            1_500_000,
            3 * CHUNK_SIZE + 7,
        ];
        let content = |seed: u64| Content::Synthetic {
            seed,
            size: SIZES[(seed % 6) as usize],
        };
        for case in 0..64 {
            let mut rng = stream_rng(0xA2E4A, case);
            let mut svc = StorageService::new(3, 24).unwrap();
            let mut live: BTreeMap<(UserId, String), u64> = BTreeMap::new();
            // Contents stored and not yet collected, by seed.
            let mut known: BTreeSet<u64> = BTreeSet::new();
            for t in 0..rng.random_range(1u64..100) {
                let user = rng.random_range(0u64..3);
                let path = format!("f{}", rng.random_range(0u32..6));
                let at = format!("case {case}, op {t}: user {user} {path}");
                match rng.random_range(0u32..20) {
                    0..=7 => {
                        let seed = rng.random_range(0u64..24);
                        let m = FileManifest::build(path.as_str(), &content(seed));
                        let out = svc.store(user, m, t).unwrap();
                        assert_eq!(out.deduplicated, known.contains(&seed), "{at}");
                        known.insert(seed);
                        live.insert((user, path), seed);
                    }
                    8..=12 => {
                        let got = svc.metadata().begin_retrieve(user, &path);
                        let bytes = svc.retrieve(user, &path, t).map(|r| r.bytes_downloaded);
                        match live.get(&(user, path.clone())) {
                            Some(&seed) => {
                                let want = FileManifest::build(path.as_str(), &content(seed));
                                assert_eq!(got.map(|(m, _)| m), Some(want), "{at}");
                                assert_eq!(bytes, Ok(content(seed).size()), "{at}");
                            }
                            None => {
                                assert!(got.is_none(), "{at}");
                                assert_eq!(bytes, Err(crate::ServiceError::NotFound), "{at}");
                            }
                        }
                    }
                    13..=16 => {
                        let existed = live.remove(&(user, path.clone())).is_some();
                        assert_eq!(svc.delete(user, &path), existed, "{at}");
                    }
                    _ => {
                        let linked: BTreeSet<u64> = live.values().copied().collect();
                        let freed: u64 =
                            known.difference(&linked).map(|&s| content(s).size()).sum();
                        assert_eq!(svc.collect_garbage(), freed, "{at}");
                        known = linked;
                        let arena: u64 =
                            known.iter().map(|&s| chunk_count(content(s).size())).sum();
                        assert_eq!(svc.metadata().chunks.len() as u64, arena, "{at}");
                    }
                }
                assert_eq!(svc.metadata().distinct_contents(), known.len(), "{at}");
            }
        }
    }

    #[test]
    fn content_record_stays_small() {
        // One record per stored content: size, arena offset, home.
        assert!(std::mem::size_of::<ContentRecord>() <= 24);
    }

    #[test]
    fn namespace_slot_stays_small() {
        // One slot per stored path: a boxed path and its content digest.
        assert!(std::mem::size_of::<(Box<str>, Digest)>() <= 32);
    }

    #[test]
    fn frontend_assignment_deterministic_and_spread() {
        let md = MetadataServer::new(8).unwrap();
        let mut seen = std::collections::HashSet::new();
        for user in 0..200u64 {
            let fe = md.closest_frontend(user);
            assert_eq!(fe, md.closest_frontend(user));
            assert!(fe < 8);
            seen.insert(fe);
        }
        assert!(seen.len() >= 6, "assignment should spread: {seen:?}");
    }
}
