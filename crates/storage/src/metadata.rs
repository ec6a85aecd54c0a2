//! The metadata server (§2.1).
//!
//! Every store or retrieve begins here. For storage the client sends the
//! file's manifest; if a copy of the content is already on some storage
//! server, the metadata server merely links it into the user's namespace
//! and tells the client **not** to upload (file-level deduplication).
//! Otherwise it directs the client to the closest front-end. For retrieval
//! it resolves a path or shared URL to the manifest and a front-end.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mcs_faults::ConfigError;

use crate::content::FileManifest;
use crate::md5::{Digest, DigestHash};

/// User account identifier.
pub type UserId = u64;

/// A shared-URL token (the service lets users share files by URL, §2.1;
/// downloads by URL are the §3.2.1 content-distribution usage pattern).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShareUrl(pub String);

/// One file entry in a user's namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Content digest (keys into the known-content table).
    pub digest: Digest,
    /// Upload (link) time, ms since trace start.
    pub stored_at_ms: u64,
}

/// Outcome of a file-storage operation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreDecision {
    /// Content already known: linked into the namespace, no upload needed.
    Deduplicated,
    /// Content unknown: client must upload all chunks to this front-end.
    Upload {
        /// Front-end to contact.
        frontend: usize,
    },
}

/// A stored content: its manifest minus the name (paths live in the
/// namespaces), and the front-end holding it.
#[derive(Debug)]
struct ContentRecord {
    size: u64,
    chunk_digests: Box<[Digest]>,
    frontend: usize,
}

impl ContentRecord {
    /// The manifest, named `name`, and the front-end holding it.
    fn manifest(&self, name: String, file_digest: Digest) -> (FileManifest, usize) {
        let manifest = FileManifest {
            name,
            size: self.size,
            file_digest,
            chunk_digests: self.chunk_digests.to_vec(),
        };
        (manifest, self.frontend)
    }
}

/// The metadata server.
///
/// The content table, where every store's dedup lookup goes, is hashed by
/// the digest itself (`DigestHash`); [`Self::orphans`] sorts its listing.
/// The other tables are B-tree maps, listed in key order. So every output
/// is structurally deterministic (the contract `mcs-lint` rule R1 enforces).
#[derive(Debug, Default)]
pub struct MetadataServer {
    /// Content known to exist on storage servers, by file digest.
    known: HashMap<Digest, ContentRecord, DigestHash>,
    /// Per-user namespaces: path → entry.
    namespaces: BTreeMap<UserId, BTreeMap<String, FileEntry>>,
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
    pub fn begin_store(
        &mut self,
        user: UserId,
        manifest: &FileManifest,
        now_ms: u64,
    ) -> StoreDecision {
        let entry = FileEntry {
            digest: manifest.file_digest,
            stored_at_ms: now_ms,
        };
        let known = self.known.contains_key(&entry.digest);
        let ns = self.namespaces.entry(user).or_default();
        ns.insert(manifest.name.clone(), entry);
        if known {
            StoreDecision::Deduplicated
        } else {
            StoreDecision::Upload {
                frontend: self.closest_frontend(user),
            }
        }
    }

    /// Marks an upload complete: the content now exists on `frontend`,
    /// and future stores of it deduplicate at file level. The record keeps
    /// the chunk list, not the name. Which chunks the front-end holds is
    /// its own chunk store's record, not this server's.
    pub fn complete_upload(&mut self, manifest: FileManifest, frontend: usize) {
        let record = ContentRecord {
            size: manifest.size,
            chunk_digests: manifest.chunk_digests.into_boxed_slice(),
            frontend,
        };
        self.known.insert(manifest.file_digest, record);
    }

    /// Resolves `digest` for a retrieve into a manifest named `name`.
    fn resolve(&self, digest: Option<Digest>, name: &str) -> Option<(FileManifest, usize)> {
        let d = digest?;
        Some(self.known.get(&d)?.manifest(name.to_string(), d))
    }

    /// Resolves a path in a user's namespace into a manifest named `path`.
    pub fn begin_retrieve(&self, user: UserId, path: &str) -> Option<(FileManifest, usize)> {
        let entry = self.namespaces.get(&user).and_then(|ns| ns.get(path));
        self.resolve(entry.map(|e| e.digest), path)
    }

    /// Publishes a share URL for a stored file.
    pub fn publish_url(&mut self, user: UserId, path: &str) -> Option<ShareUrl> {
        let entry = self.namespaces.get(&user)?.get(path)?;
        let url = ShareUrl(format!("mcs://share/{}", entry.digest.to_hex()));
        self.urls.insert(url.clone(), entry.digest);
        Some(url)
    }

    /// Resolves a share URL (the §2.1 retrieval path: URL → file MD5 →
    /// manifest). The manifest is named after the URL.
    pub fn begin_retrieve_url(
        &self,
        _requester: UserId,
        url: &ShareUrl,
    ) -> Option<(FileManifest, usize)> {
        self.resolve(self.urls.get(url).copied(), &url.0)
    }

    /// Deletes a path from a user's namespace; returns the entry if it
    /// existed. Content is *not* erased here — other users may still link
    /// it; orphan collection is the front-end's garbage-collection job
    /// (the §2.1 note that deletes never touch the front-end data path is
    /// why the paper's logs do not contain them).
    pub fn delete(&mut self, user: UserId, path: &str) -> Option<FileEntry> {
        self.namespaces.get_mut(&user)?.remove(path)
    }

    /// Contents with no remaining namespace links (eligible for GC):
    /// each manifest (unnamed) with the front-end holding it, in digest
    /// order.
    pub fn orphans(&self) -> Vec<(FileManifest, usize)> {
        let mut linked: BTreeSet<Digest> = BTreeSet::new();
        for ns in self.namespaces.values() {
            for e in ns.values() {
                linked.insert(e.digest);
            }
        }
        let mut orphans: Vec<_> = self
            .known
            .iter()
            .filter(|(d, _)| !linked.contains(d))
            .map(|(d, record)| record.manifest(String::new(), *d))
            .collect();
        orphans.sort_unstable_by_key(|(m, _)| m.file_digest);
        orphans
    }

    /// Forgets an orphaned content (after the front-end reclaimed it).
    pub fn forget(&mut self, digest: &Digest) -> bool {
        self.known.remove(digest).is_some()
    }

    /// Lists a user's namespace (path, entry) pairs, sorted by path
    /// (namespaces are path-keyed B-trees, so iteration is the sort).
    pub fn list(&self, user: UserId) -> Vec<(String, FileEntry)> {
        self.namespaces
            .get(&user)
            .map(|ns| ns.iter().map(|(k, e)| (k.clone(), e.clone())).collect())
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
        match md.begin_store(10, &m, 0) {
            StoreDecision::Upload { frontend } => assert!(frontend < 4),
            other => panic!("expected upload, got {other:?}"),
        }
        md.complete_upload(m.clone(), 0);
        // Same content, other user, other name.
        let m2 = manifest("b.jpg", 1, 1000);
        assert_eq!(md.begin_store(11, &m2, 5), StoreDecision::Deduplicated);
        assert_eq!(md.distinct_contents(), 1);
    }

    #[test]
    fn dedup_requires_completed_upload() {
        let mut md = MetadataServer::new(1).unwrap();
        let m = manifest("a.jpg", 1, 1000);
        let _ = md.begin_store(10, &m, 0);
        // Upload never completed; the same content must upload again.
        let m2 = manifest("a.jpg", 1, 1000);
        assert!(matches!(
            md.begin_store(11, &m2, 1),
            StoreDecision::Upload { .. }
        ));
    }

    #[test]
    fn retrieve_by_path() {
        let mut md = MetadataServer::new(2).unwrap();
        let m = manifest("docs/x.pdf", 7, 5000);
        let _ = md.begin_store(1, &m, 0);
        md.complete_upload(m.clone(), 0);
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
        let _ = md.begin_store(1, &m, 0);
        md.complete_upload(m.clone(), 0);
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
            let _ = md.begin_store(5, &m, 0);
            md.complete_upload(m, 0);
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
        let _ = md.begin_store(1, &v1, 0);
        md.complete_upload(v1, 0);
        let _ = md.begin_store(1, &v2, 10);
        md.complete_upload(v2.clone(), 0);
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
        let _ = md.begin_store(1, &x, 0);
        md.complete_upload(x.clone(), 0);
        let b = manifest("b.jpg", 3, 4000);
        assert_eq!(md.begin_store(2, &b, 1), StoreDecision::Deduplicated);
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
        let _ = md.begin_store(1, &m, 0);
        md.complete_upload(m.clone(), 1);
        assert!(md.orphans().is_empty());
        md.delete(1, "a.bin").unwrap();
        let orphans = md.orphans();
        assert_eq!(orphans.len(), 1);
        let (got, fe) = &orphans[0];
        assert_eq!((got.file_digest, got.size, *fe), (m.file_digest, m.size, 1));
        assert_eq!(got.chunk_digests, m.chunk_digests);
        assert!(got.name.is_empty(), "no path links an orphan");
        assert!(md.forget(&m.file_digest));
        assert!(!md.forget(&m.file_digest));
        assert_eq!(md.distinct_contents(), 0);
    }

    #[test]
    fn orphans_are_listed_in_digest_order() {
        let mut md = MetadataServer::new(2).unwrap();
        for seed in 0..12u64 {
            let m = manifest(&format!("f{seed}"), seed, 1000 + seed);
            let _ = md.begin_store(seed, &m, 0);
            md.complete_upload(m, 0);
            md.delete(seed, &format!("f{seed}")).unwrap();
        }
        let digests: Vec<Digest> = md.orphans().iter().map(|(m, _)| m.file_digest).collect();
        assert_eq!(digests.len(), 12);
        assert!(
            digests.windows(2).all(|w| w[0] < w[1]),
            "GC walks contents in digest order: {digests:?}"
        );
    }

    #[test]
    fn content_record_stays_small() {
        // One record per stored content: size, boxed chunk list, home.
        assert!(std::mem::size_of::<ContentRecord>() <= 32);
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
