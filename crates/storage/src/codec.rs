//! Hand-rolled little-endian binary encoding helpers plus CRC32.
//!
//! The workspace builds with no registry access, so there is no serde
//! derive; every on-disk format in this crate (and the WAL records the
//! consensus layer writes through it) is encoded with these primitives.

use std::sync::Arc;

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed byte string (`u32` length + bytes).
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_bytes(buf, v.as_bytes());
}

/// A cursor over encoded bytes. Every `get_*` returns `None` on underrun
/// instead of panicking, so decoders double as corruption detectors.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// An empty `Vec` for the `n` items a count word announced, each at least
    /// `min_item_bytes` long. The count is outside input, so the reservation
    /// is capped at what the unread bytes could hold: a hostile count costs a
    /// `None` from the item reads, not an allocation failure.
    pub fn vec_for<T>(&self, n: usize, min_item_bytes: usize) -> Vec<T> {
        Vec::with_capacity(n.min(self.remaining() / min_item_bytes))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string into the one allocation its
    /// holders then share.
    pub fn get_str(&mut self) -> Option<Arc<str>> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).ok().map(Arc::from)
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }
}

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
    fn round_trips_scalars_and_strings() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_str(&mut buf, "héllo");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u32(), Some(7));
        assert_eq!(r.get_u64(), Some(u64::MAX - 3));
        assert_eq!(r.get_str().as_deref(), Some("héllo"));
        assert_eq!(r.get_bytes(), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.get_u32(), None, "underrun reads are None, not panics");
    }

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

    #[test]
    fn truncated_string_decodes_as_none() {
        let mut buf = Vec::new();
        put_str(&mut buf, "payload");
        buf.truncate(buf.len() - 1);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_str(), None);
    }
}
