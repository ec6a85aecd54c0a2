//! MD5 message digest (RFC 1321), implemented from scratch.
//!
//! The examined service identifies every file and every 512 KB chunk by its
//! MD5 hash (§2.1); the metadata server's deduplication hinges on it. MD5
//! is used here strictly as a *content identifier*, exactly as the service
//! used it — it is not fit for any security purpose.

/// A 16-byte MD5 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Lowercase hexadecimal rendering (the form log files carry).
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push(char::from(HEX[usize::from(b >> 4)]));
            s.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        s
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Hashes a [`Digest`] by its first 8 bytes, already uniform (DESIGN.md
/// §2.5). A map still compares whole keys, so a shared prefix costs one
/// probe, never a wrong answer. `Hash` writes a length, then the 16 bytes.
#[derive(Default)]
pub(crate) struct DigestHasher(u64);

impl std::hash::Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        if let Some(head) = bytes.first_chunk() {
            self.0 = u64::from_le_bytes(*head);
        }
    }
}

/// The `BuildHasher` of the service's digest-keyed tables.
pub(crate) type DigestHash = std::hash::BuildHasherDefault<DigestHasher>;

/// Sine-derived constants `K[i] = floor(2^32 · |sin(i + 1)|)`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 state.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Padding: 0x80 then zeros to 56 mod 64, then the length.
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        let pad_len = (119 - self.buffered) % 64 + 1;
        self.update(&pad[..pad_len]);
        // Careful: the update above also bumps length_bytes, but the
        // length field must be the original message length (captured
        // before padding).
        let mut block = self.buffer;
        block[56..64].copy_from_slice(&bit_len.to_le_bytes());
        self.compress(&block.clone());
        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, c) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        let [mut a, mut b, mut c, mut d] = self.state;
        // Each round runs 16 steps, four per iteration with the round's
        // four shifts; step j of the 64 adds K[j] and the message word the
        // round's schedule picks.
        for i in (0..16).step_by(4) {
            let k = &K[i..4 + i];
            a = step(a, b, (b & c) | (!b & d), m[i], k[0], 7);
            d = step(d, a, (a & b) | (!a & c), m[i + 1], k[1], 12);
            c = step(c, d, (d & a) | (!d & b), m[i + 2], k[2], 17);
            b = step(b, c, (c & d) | (!c & a), m[i + 3], k[3], 22);
        }
        for i in (0..16).step_by(4) {
            let k = &K[16 + i..20 + i];
            a = step(a, b, (d & b) | (!d & c), m[(5 * i + 1) % 16], k[0], 5);
            d = step(d, a, (c & a) | (!c & b), m[(5 * i + 6) % 16], k[1], 9);
            c = step(c, d, (b & d) | (!b & a), m[(5 * i + 11) % 16], k[2], 14);
            b = step(b, c, (a & c) | (!a & d), m[5 * i % 16], k[3], 20);
        }
        for i in (0..16).step_by(4) {
            let k = &K[32 + i..36 + i];
            a = step(a, b, b ^ c ^ d, m[(3 * i + 5) % 16], k[0], 4);
            d = step(d, a, a ^ b ^ c, m[(3 * i + 8) % 16], k[1], 11);
            c = step(c, d, d ^ a ^ b, m[(3 * i + 11) % 16], k[2], 16);
            b = step(b, c, c ^ d ^ a, m[(3 * i + 14) % 16], k[3], 23);
        }
        for i in (0..16).step_by(4) {
            let k = &K[48 + i..52 + i];
            a = step(a, b, c ^ (b | !d), m[7 * i % 16], k[0], 6);
            d = step(d, a, b ^ (a | !c), m[(7 * i + 7) % 16], k[1], 10);
            c = step(c, d, a ^ (d | !b), m[(7 * i + 14) % 16], k[2], 15);
            b = step(b, c, d ^ (c | !a), m[(7 * i + 5) % 16], k[3], 21);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

/// One MD5 step: `b + ((a + f + x + k) <<< s)`, where `f` is the round
/// function of the other three state words.
fn step(a: u32, b: u32, f: u32, x: u32, k: u32, s: u32) -> u32 {
    a.wrapping_add(f)
        .wrapping_add(k)
        .wrapping_add(x)
        .rotate_left(s)
        .wrapping_add(b)
}

/// One-shot digest of a byte slice.
pub fn md5(data: &[u8]) -> Digest {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_stats::rng::{stream_rng, ChaCha8Rng, Rng};

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(md5(input).to_hex(), expect, "input {input:?}");
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = md5(&data);
        for split in [0usize, 1, 63, 64, 65, 128, 1000, data.len()] {
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths straddling the 55/56/64-byte padding boundaries.
        for len in 50..70usize {
            let data = vec![0xabu8; len];
            let d1 = md5(&data);
            // Byte-at-a-time must agree.
            let mut h = Md5::new();
            for &b in &data {
                h.update(&[b]);
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn display_is_hex() {
        let d = md5(b"abc");
        assert_eq!(format!("{d}"), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(d.to_hex().len(), 32);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Not a collision test — just sanity that content changes digests.
        let a = md5(b"file-content-1");
        let b = md5(b"file-content-2");
        assert_ne!(a, b);
    }

    #[test]
    fn digest_hash_keeps_digests_that_share_their_first_8_bytes() {
        use std::collections::HashMap;
        use std::hash::BuildHasher;
        let a = md5(b"abc");
        let (mut b, mut c) = (a, a);
        b.0[15] ^= 1;
        c.0[8] ^= 0x80;
        let hash = |d: &Digest| DigestHash::default().hash_one(d);
        let head = a.0.first_chunk().copied().unwrap();
        assert_eq!(hash(&a), u64::from_le_bytes(head), "the first 8 bytes");
        assert_eq!((hash(&b), hash(&c)), (hash(&a), hash(&a)));
        let mut map: HashMap<Digest, usize, DigestHash> = HashMap::default();
        for (v, d) in [a, b, c].into_iter().enumerate() {
            assert_eq!(map.insert(d, v), None, "digest {v} is new");
        }
        assert_eq!(map.len(), 3);
        assert_eq!((map[&a], map[&b], map[&c]), (0, 1, 2));
        assert_eq!(map.remove(&b), Some(1));
        assert_eq!(
            (map.get(&a), map.get(&b), map.get(&c)),
            (Some(&0), None, Some(&2))
        );
    }

    /// Up to `max_len - 1` uniformly random bytes.
    fn random_bytes(rng: &mut ChaCha8Rng, max_len: usize) -> Vec<u8> {
        (0..rng.random_range(0..max_len))
            .map(|_| rng.next_u32().to_le_bytes()[0])
            .collect()
    }

    #[test]
    fn prop_incremental_any_split() {
        for case in 0..256 {
            let mut rng = stream_rng(0x5EED, case);
            let data = random_bytes(&mut rng, 300);
            let split = rng.random_range(0usize..300).min(data.len());
            let oneshot = md5(&data);
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "case {case}: split {split}");
        }
    }

    #[test]
    fn prop_deterministic() {
        for case in 0..256 {
            let data = random_bytes(&mut stream_rng(0x5EED, case), 200);
            assert_eq!(md5(&data), md5(&data), "case {case}");
        }
    }
}
