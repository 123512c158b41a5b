//! Stable 64-bit hashes: FNV-1a for keys, options hashes and sweep
//! manifests, XXH64 for the serve cache's entry digests.
//!
//! The std `DefaultHasher` is explicitly not stable across releases, and
//! a file written by one build must be readable by the next — so the
//! fleet pins published hashes.
//!
//! - [`Fnv1a`] hashes what is short or structured: cache keys, options
//!   hashes, scenario fingerprints, and the digest of each sweep
//!   manifest entry. Its formats and every committed digest depend on
//!   it, and it feeds typed fields (`write_str`, `write_u64`) directly.
//! - [`xxh64`] digests what is long: a serve-cache entry's stream, up to
//!   several megabytes for a traced cell. [`Xxh64`] is the same digest
//!   taken as the stream is written, one chunk at a time. FNV-1a runs one serially
//!   dependent multiply per byte (about 1.8 ns/byte on a 2-vCPU x86-64
//!   host); XXH64 runs four independent lanes over 32-byte stripes,
//!   about ten times faster over a 6 MB stream on the same host.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Incremental FNV-1a 64 hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a string, terminated so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Feeds a `u64` in little-endian bytes.
    pub fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// XXH64 of a byte string under `seed`, as the xxHash specification
/// defines it: four accumulators over 32-byte stripes, then the 8-, 4-
/// and 1-byte tails, then the avalanche.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = Xxh64::new(seed);
    h.update(bytes);
    h.finish()
}

/// Incremental XXH64: [`Xxh64::update`] any number of times, then
/// [`Xxh64::finish`], equals [`xxh64`] over the concatenated input,
/// however it was split. It holds 80 bytes of state, so a stream of
/// any length is digested as it is written.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    seed: u64,
    acc: [u64; 4],
    /// The start of a stripe not yet complete.
    stripe: [u8; 32],
    buffered: usize,
    len: u64,
}

impl Xxh64 {
    /// Starts a digest under `seed`.
    pub fn new(seed: u64) -> Xxh64 {
        Xxh64 {
            seed,
            acc: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            stripe: [0; 32],
            buffered: 0,
            len: 0,
        }
    }

    /// Feeds the next bytes of the input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.buffered > 0 {
            let take = bytes.len().min(32 - self.buffered);
            self.stripe[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < 32 {
                return;
            }
            let stripe = self.stripe;
            self.round(&stripe);
            self.buffered = 0;
        }
        let stripes = bytes.chunks_exact(32);
        let rest = stripes.remainder();
        for stripe in stripes {
            self.round(stripe);
        }
        self.stripe[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn round(&mut self, stripe: &[u8]) {
        for (acc, lane) in self.acc.iter_mut().zip(stripe.chunks_exact(8)) {
            *acc = xxh64_round(*acc, le_u64(lane));
        }
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        let mut h = if self.len >= 32 {
            let [a, b, c, d] = self.acc;
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            self.acc.into_iter().fold(h, |h, acc| {
                (h ^ xxh64_round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
            })
        } else {
            self.seed.wrapping_add(P5)
        };
        h = h.wrapping_add(self.len);
        let mut words = self.stripe[..self.buffered].chunks_exact(8);
        for word in &mut words {
            h ^= xxh64_round(0, le_u64(word));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        }
        let mut rest = words.remainder();
        if let Some((word, after)) = rest.split_first_chunk::<4>() {
            h ^= u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            rest = after;
        }
        for &b in rest {
            h ^= u64::from(b).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The little-endian `u64` in an 8-byte chunk.
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// Formats a hash the way manifests store it (`0x` + 16 hex digits).
pub fn hex(h: u64) -> String {
    format!("{h:#018x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn string_feeding_is_boundary_sensitive() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn xxh64_published_vectors() {
        assert_eq!(xxh64(b"", 0), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a", 0), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc", 0), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xfbce_a83c_8a37_8bf1
        );
        assert_eq!(xxh64(b"xxhash", 20_141_025), 0xb559_b98d_844e_0635);
    }

    /// XXH64 as the specification spells it out: an index walking the
    /// input, each lane assembled byte by byte.
    fn reference_xxh64(input: &[u8], seed: u64) -> u64 {
        fn read(input: &[u8], at: usize, width: usize) -> u64 {
            (0..width).fold(0, |v, i| v | u64::from(input[at + i]) << (8 * i))
        }
        fn round(acc: u64, lane: u64) -> u64 {
            let acc = acc.wrapping_add(lane.wrapping_mul(P2));
            acc.rotate_left(31).wrapping_mul(P1)
        }
        fn merge(h: u64, acc: u64) -> u64 {
            (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
        }
        let len = input.len();
        let mut at = 0;
        let mut h;
        if len >= 32 {
            let mut v1 = seed.wrapping_add(P1).wrapping_add(P2);
            let mut v2 = seed.wrapping_add(P2);
            let mut v3 = seed;
            let mut v4 = seed.wrapping_sub(P1);
            while at + 32 <= len {
                v1 = round(v1, read(input, at, 8));
                v2 = round(v2, read(input, at + 8, 8));
                v3 = round(v3, read(input, at + 16, 8));
                v4 = round(v4, read(input, at + 24, 8));
                at += 32;
            }
            h = v1.rotate_left(1);
            h = h.wrapping_add(v2.rotate_left(7));
            h = h.wrapping_add(v3.rotate_left(12));
            h = h.wrapping_add(v4.rotate_left(18));
            h = merge(h, v1);
            h = merge(h, v2);
            h = merge(h, v3);
            h = merge(h, v4);
        } else {
            h = seed.wrapping_add(P5);
        }
        h = h.wrapping_add(len as u64);
        while at + 8 <= len {
            h ^= round(0, read(input, at, 8));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            at += 8;
        }
        if at + 4 <= len {
            h ^= read(input, at, 4).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            at += 4;
        }
        while at < len {
            h ^= u64::from(input[at]).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
            at += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    #[test]
    fn xxh64_matches_the_reference_at_every_length() {
        // Lengths 0..=300 take the short path (< 32), one to nine
        // stripes, and every mix of 8-, 4- and 1-byte tails.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let input: Vec<u8> = (0..300).map(|_| draw() as u8).collect();
        for len in 0..=input.len() {
            for seed in [0, 1, u64::MAX, draw(), draw(), draw()] {
                let bytes = &input[..len];
                assert_eq!(
                    xxh64(bytes, seed),
                    reference_xxh64(bytes, seed),
                    "len {len} seed {seed:#x}"
                );
            }
            // The same length at an unaligned start.
            let bytes = &input[input.len() - len..];
            assert_eq!(xxh64(bytes, 7), reference_xxh64(bytes, 7), "len {len}");
        }
    }

    #[test]
    fn xxh64_streaming_matches_one_shot_at_every_split() {
        // Every split point of every length from 0 to 300 in two
        // pieces, then the same lengths fed in pieces of each size from
        // 1 to 40 bytes: stripes completed across calls, pieces that
        // fill a stripe exactly, and tails left in the stripe buffer.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let input: Vec<u8> = (0..301).map(|_| draw() as u8).collect();
        let seeds = [0, 1, u64::MAX, draw(), draw()];
        for len in 0..=300 {
            // Aligned at the start of the input, and one byte in.
            for bytes in [&input[..len], &input[1..=len]] {
                for seed in seeds {
                    let want = xxh64(bytes, seed);
                    for split in 0..=len {
                        let mut h = Xxh64::new(seed);
                        h.update(&bytes[..split]);
                        h.update(&bytes[split..]);
                        assert_eq!(h.finish(), want, "len {len} split {split} seed {seed:#x}");
                    }
                    for piece in 1..=40 {
                        let mut h = Xxh64::new(seed);
                        bytes.chunks(piece).for_each(|p| h.update(p));
                        assert_eq!(h.finish(), want, "len {len} pieces of {piece}");
                    }
                }
            }
        }
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(hex(0x1), "0x0000000000000001");
        assert_eq!(hex(u64::MAX), "0xffffffffffffffff");
    }
}
