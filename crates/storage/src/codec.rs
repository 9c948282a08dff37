//! CRC-32, the checksum in front of every WAL record. This crate frames
//! opaque payloads; what is *in* a replica's records and snapshots is the
//! consensus layer's business and is encoded by `consensus_core::codec`.
//!
//! Two paths compute the one IEEE CRC-32 and give the same value for every
//! input. Slice-by-8 tables fold eight bytes per step and run everywhere.
//! On an x86-64 CPU that has PCLMULQDQ and SSE4.1 — checked at run time,
//! and nothing else chooses — an input of 64 bytes or more is folded
//! 64 bytes per step by carry-less multiplication and then Barrett-reduced
//! to 32 bits (Intel, "Fast CRC Computation for Generic Polynomials Using
//! PCLMULQDQ"), about ten times the tables' speed. Its intrinsics are this
//! crate's only `unsafe` code, kept in the private `clmul` module (the
//! workspace's other is the ChaCha20 RNG's SSE2 refill).

/// The shortest input the carry-less path takes: one 16-byte register for
/// each of its four fold lanes. Shorter inputs, and every input on a CPU
/// without the features, use the tables.
const FOLD_BYTES: usize = 64;

/// `CRC_TABLES[k][b]` is the CRC-32 state after byte `b` and then `k` zero
/// bytes: row 0 is the classic byte-at-a-time table, each further row is
/// the one before advanced by a zero byte, and the eight rows together fold
/// eight input bytes per step (slice-by-8).
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        let mut crc = if k == 0 { b as u32 } else { t[k - 1][b] };
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[k][b] = crc;
        i += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum guarding every
/// WAL record.
pub fn crc32(data: &[u8]) -> u32 {
    clmul::crc32(data).unwrap_or_else(|| crc32_tables(data))
}

/// [`crc32`] by the slice-by-8 tables alone.
fn crc32_tables(data: &[u8]) -> u32 {
    !update_tables(!0, data)
}

/// Advances the raw (uninverted) CRC state `crc` over `data`.
fn update_tables(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes")) ^ u64::from(crc);
        // Byte `j` of the word is followed by `7 - j` more bytes of this step.
        crc = (word.to_le_bytes().iter().zip(CRC_TABLES.iter().rev()))
            .fold(0, |acc, (&b, row)| acc ^ row[usize::from(b)]);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// The carry-less-multiply path: this crate's only `unsafe` code.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::{update_tables, FOLD_BYTES};

    // Fold and reduction constants for the reflected IEEE polynomial, each
    // a power of x modulo P(x), bit-reflected and shifted left by one
    // (Intel's paper, and crc32fast, use the same values).
    /// x^(4·128+32) and x^(4·128-32) mod P: folds a lane 64 bytes forward.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128-32) mod P: folds one 16-byte register forward.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: folds 64 bits down to 32 beside the next word.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) itself and μ = x^64 / P(x), the Barrett reduction's pair.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// The CRC-32 of `data` by carry-less multiplication, or `None` when
    /// `data` is shorter than [`FOLD_BYTES`] or the CPU lacks PCLMULQDQ or
    /// SSE4.1.
    pub(super) fn crc32(data: &[u8]) -> Option<u32> {
        if data.len() < FOLD_BYTES
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        // SAFETY: `fold` needs PCLMULQDQ and SSE4.1 (SSE2 is x86-64's
        // baseline); both were detected on this CPU just above, and `data`
        // holds the FOLD_BYTES the first four loads read.
        Some(unsafe { !fold(!0, data) })
    }

    /// Advances the raw CRC state `crc` over `data`, 64 bytes per step in
    /// four lanes, then 16 bytes per step in one, then the last 0..16 bytes
    /// by the tables.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1, and `data` must hold at
    /// least [`FOLD_BYTES`] bytes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold(crc: u32, mut data: &[u8]) -> u32 {
        debug_assert!(data.len() >= FOLD_BYTES);
        let mut x3 = load(&mut data);
        let mut x2 = load(&mut data);
        let mut x1 = load(&mut data);
        let mut x0 = load(&mut data);
        // The running state enters as the first four bytes' XOR.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= FOLD_BYTES {
            x3 = fold_into(x3, load(&mut data), k1k2);
            x2 = fold_into(x2, load(&mut data), k1k2);
            x1 = fold_into(x1, load(&mut data), k1k2);
            x0 = fold_into(x0, load(&mut data), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x3, x2, k3k4);
        x = fold_into(x, x1, k3k4);
        x = fold_into(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold_into(x, load(&mut data), k3k4);
        }

        // 128 bits to 64, then 64 to the 32 + 32 the reduction takes.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // reflected remainder is the upper word of R ⊕ T2.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        update_tables(crc, data)
    }

    /// `acc` carried 128 bits further by the pair `keys`, XORed into `next`.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Loads the next 16 bytes of `data` and steps past them; panics on
    /// fewer.
    #[inline(always)]
    fn load(data: &mut &[u8]) -> __m128i {
        let (head, rest) = data.split_at(16);
        *data = rest;
        // SAFETY: `head` is 16 readable bytes, and `loadu` takes any
        // alignment; SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(head.as_ptr().cast()) }
    }
}

/// No carry-less path off x86-64: every input uses the tables.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub(super) fn crc32(_: &[u8]) -> Option<u32> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The bit-at-a-time definition the tables are derived from: the raw
    /// state `crc` advanced by one byte.
    fn bitwise_step(mut crc: u32, b: u8) -> u32 {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
        crc
    }

    fn crc32_bitwise(data: &[u8]) -> u32 {
        !data.iter().fold(!0, |crc, &b| bitwise_step(crc, b))
    }

    fn random_bytes(n: usize) -> Vec<u8> {
        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(0xC4C);
        (0..n).map(|_| rng.gen_range(0..=u8::MAX)).collect()
    }

    /// Every path that can compute `data`'s CRC gives `want`: the tables,
    /// the carry-less path whenever this CPU takes it, and the dispatch
    /// between them.
    fn assert_every_path(data: &[u8], want: u32, what: &str) {
        assert_eq!(crc32_tables(data), want, "tables, {what}");
        if let Some(got) = clmul::crc32(data) {
            assert_eq!(got, want, "carry-less, {what}");
        }
        assert_eq!(crc32(data), want, "dispatch, {what}");
    }

    #[test]
    fn crc32_equals_the_bitwise_definition_at_every_length() {
        let bytes = random_bytes(4096 + 16);
        // Slide the window so alignment and content both vary; the
        // definition's state grows one byte with the window.
        for offset in 0..16 {
            let mut state = !0;
            for len in 0..=4096 {
                if len > 0 {
                    state = bitwise_step(state, bytes[offset + len - 1]);
                }
                let what = format!("length {len} at offset {offset}");
                assert_every_path(&bytes[offset..offset + len], !state, &what);
            }
        }
        // The loop crosses the threshold: 63 B is the tables' alone, 64 and
        // 65 B the carry-less path's where the CPU has it.
        assert_eq!(clmul::crc32(&bytes[..FOLD_BYTES - 1]), None);
        let big = random_bytes((1 << 20) + 7);
        assert_every_path(&big, crc32_bitwise(&big), "1 MiB + 7");
    }
}
