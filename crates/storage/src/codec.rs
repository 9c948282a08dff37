//! CRC-32, the checksum in front of every WAL record. This crate frames
//! opaque payloads; what is *in* a replica's records and snapshots is the
//! consensus layer's business and is encoded by `consensus_core::codec`.

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
    let mut crc: u32 = !0;
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
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The bit-at-a-time definition the tables are derived from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bitwise_definition_at_every_length() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(0xC4C);
        let bytes: Vec<u8> = (0..4096 + 7).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        for len in 0..=4096 {
            // Slide the window so chunk alignment and content both vary.
            let data = &bytes[len % 8..len % 8 + len];
            assert_eq!(crc32(data), crc32_bitwise(data), "length {len}");
        }
    }
}
