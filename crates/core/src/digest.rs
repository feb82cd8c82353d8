//! Content digests: a dependency-free SHA-256 and the canonical
//! plan-artifact digest built on it.
//!
//! The scaling story needs plans to be *content-addressed*: `pas serve`
//! keys its plan cache by a digest of the request identity, and `pas
//! plan` prints the digest of the artifact it wrote so a client can
//! check what it got back. Both rely on the same two properties:
//!
//! * **Stability** — the digest is computed over the canonical JSON
//!   serialization (the offline serde layer emits struct fields in
//!   declaration order and maps key-sorted), so the same logical plan
//!   hashes identically across runs, machines and processes.
//! * **Sensitivity** — any field change anywhere in the serialized form
//!   changes the digest (the determinism tests in [`crate::artifact`]
//!   pin both directions).
//!
//! The build environment is fully offline, so SHA-256 (FIPS 180-4) is
//! implemented here rather than pulled from a crate. It has two block
//! functions behind one [`sha256_hex`]:
//!
//! * on x86-64 CPUs with the SHA extensions, a block function built on
//!   `sha256rnds2`/`sha256msg1`/`sha256msg2` hashes every 64-byte block.
//!   It is chosen at run time, on every call, when
//!   `is_x86_feature_detected!` reports `sha`, `ssse3` and `sse4.1`;
//! * everywhere else the scalar `compress` runs. It is also the
//!   reference: the tests below run the FIPS vectors, every length up to
//!   300 bytes and a 1.2 MB message through both functions and require
//!   equal digests.
//!
//! Nothing selects a path but the CPU, and both give the same bytes.

/// Round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(&block[i * 4..i * 4 + 4]);
        *word = u32::from_be_bytes(bytes);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Scalar SHA-256 block function over every 64-byte block of `blocks`.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress(state, block);
    }
}

/// Whether this CPU has what [`shani::compress_blocks`] enables (SSE2 is
/// part of x86-64 itself).
#[cfg(target_arch = "x86_64")]
fn has_sha_extensions() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

#[cfg(all(test, not(target_arch = "x86_64")))]
fn has_sha_extensions() -> bool {
    false
}

/// The block function for this CPU over every 64-byte block of `blocks`.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if has_sha_extensions() {
        // SAFETY: `shani::compress_blocks` only needs the target features
        // it enables, and `has_sha_extensions` just found all of them on
        // this CPU.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    compress_scalar(state, blocks);
}

/// SHA-256 state after `bytes` and their padding, hashing whole blocks
/// with `blocks`.
fn sha256_with(bytes: &[u8], blocks: fn(&mut [u32; 8], &[u8])) -> [u32; 8] {
    let mut state = H0;
    let full = bytes.len() - bytes.len() % 64;
    blocks(&mut state, &bytes[..full]);
    // Padding: 0x80, zeros, then the bit length as a big-endian u64.
    let rem = &bytes[full..];
    let bit_len = (bytes.len() as u64).wrapping_mul(8);
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    blocks(&mut state, &tail[..tail_len]);
    state
}

fn to_hex(state: [u32; 8]) -> String {
    let mut out = String::with_capacity(64);
    for word in state {
        out.push_str(&format!("{word:08x}"));
    }
    out
}

/// SHA-256 of `bytes`, as a lowercase 64-character hex string.
pub fn sha256_hex(bytes: &[u8]) -> String {
    to_hex(sha256_with(bytes, compress_blocks))
}

/// The SHA-256 block function on the x86 SHA extensions. The state lives
/// in two registers as `ABEF` and `CDGH` (highest lane first), the layout
/// `sha256rnds2` works on; each `sha256rnds2` runs two rounds.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Byte shuffle turning four little-endian-loaded words big-endian.
    const BSWAP32: [i64; 2] = [0x0405_0607_0001_0203, 0x0c0d_0e0f_0809_0a0b];

    /// Words `4i..4i+4` of the message schedule plus their round
    /// constants, lowest lane first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn plus_k(w: __m128i, i: usize) -> __m128i {
        let k = _mm_set_epi32(
            K[4 * i + 3] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 1] as i32,
            K[4 * i] as i32,
        );
        _mm_add_epi32(w, k)
    }

    /// The next four schedule words from the previous sixteen.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Compresses every 64-byte block of `blocks` into `state`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let bswap = _mm_set_epi64x(BSWAP32[1], BSWAP32[0]);
        let [a, b, c, d, e, f, g, h] = state.map(|x| x as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks.chunks_exact(64) {
            let word = |j: usize| {
                let lane = |at: usize| {
                    let mut bytes = [0u8; 8];
                    bytes.copy_from_slice(&block[at..at + 8]);
                    i64::from_le_bytes(bytes)
                };
                _mm_shuffle_epi8(_mm_set_epi64x(lane(16 * j + 8), lane(16 * j)), bswap)
            };
            let mut w = [word(0), word(1), word(2), word(3)];
            let (abef_in, cdgh_in) = (abef, cdgh);
            for i in 0..16 {
                if i >= 4 {
                    w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                }
                let wk = plus_k(w[i % 4], i);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let lanes = |v: __m128i| {
            [
                _mm_extract_epi32::<3>(v) as u32,
                _mm_extract_epi32::<2>(v) as u32,
                _mm_extract_epi32::<1>(v) as u32,
                _mm_extract_epi32::<0>(v) as u32,
            ]
        };
        let ([a, b, e, f], [c, d, g, h]) = (lanes(abef), lanes(cdgh));
        *state = [a, b, c, d, e, f, g, h];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_test_vectors() {
        // FIPS 180-4 / NIST CAVP reference digests.
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        // The classic streaming vector, exercising many full blocks.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// The dispatching entry point against the scalar `compress`, called
    /// directly: the same digest for every length from 0 to 300 bytes (all
    /// padding cases and up to five blocks), a 1.2 MB message, the FIPS
    /// vectors and the million-`a` vector.
    #[test]
    fn block_paths_agree() {
        if !has_sha_extensions() {
            eprintln!("no SHA extensions on this CPU: checking the scalar path alone");
        }
        let scalar = |bytes: &[u8]| to_hex(sha256_with(bytes, compress_scalar));
        let pattern: Vec<u8> = (0..1_200_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=300 {
            let data = &pattern[..len];
            assert_eq!(sha256_hex(data), scalar(data), "length {len}");
        }
        assert_eq!(sha256_hex(&pattern), scalar(&pattern), "1.2 MB");
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (data, want) in vectors {
            assert_eq!(scalar(data), want);
            assert_eq!(sha256_hex(data), want);
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56-byte padding split and the block
        // size must all produce distinct, stable digests.
        let mut seen = std::collections::BTreeSet::new();
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0x5a_u8; len];
            let d = sha256_hex(&data);
            assert_eq!(d.len(), 64);
            assert!(seen.insert(d), "collision at length {len}");
        }
    }
}
