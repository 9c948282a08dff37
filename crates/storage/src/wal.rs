//! Write-ahead log with group commit and checksummed records.
//!
//! On-disk record format, all little-endian:
//!
//! | field | size | meaning |
//! |---|---|---|
//! | `len` | 4 B | payload length in bytes |
//! | `crc` | 4 B | CRC32 of the payload |
//! | `payload` | `len` B | opaque bytes owned by the caller |
//!
//! Appends buffer in RAM; [`Wal::flush`] writes the whole buffer to the
//! disk's log region as **one** I/O — one seek per flush, however many
//! records it carries. That is group commit: the caller batches appends
//! behind a single `sync`, and the seek cost amortizes across the group.
//!
//! Replay walks the log region from the front and stops at the first record
//! whose header is short, whose payload is short, or whose CRC mismatches.
//! A crash mid-append (a *torn write*) therefore loses at most the tail
//! record being written — every record before it is returned intact, which
//! is the consistent-prefix contract the torn-write test matrix pins down.
//!
//! The CRC is [`crate::codec::crc32`]: a payload of 64 bytes or more is
//! checksummed by carry-less multiplication where the CPU has it, a shorter
//! one (most single-op records) by slice-by-8 tables. Both give the same
//! value, so which one ran never shows in the bytes.

use crate::codec::crc32;
use crate::disk::SimDisk;

/// Bytes of framing per record (`len` + `crc`).
pub const RECORD_HEADER: usize = 8;

/// The write-ahead log. Owns only the volatile append buffer; durable bytes
/// live in the [`SimDisk`] log region.
#[derive(Debug, Default)]
pub struct Wal {
    /// Records appended but not yet flushed. Lost on crash.
    pending: Vec<u8>,
    /// Records appended since creation (diagnostics).
    pub appends: u64,
    /// Flushes performed (each = one disk seek).
    pub flushes: u64,
}

impl Wal {
    /// A fresh WAL with an empty buffer.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Buffers one record. Durable only after the next [`Wal::flush`].
    pub fn append(&mut self, payload: &[u8]) {
        self.pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending
            .extend_from_slice(&crc32(payload).to_le_bytes());
        self.pending.extend_from_slice(payload);
        self.appends += 1;
    }

    /// Whether any appended record awaits a flush.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Writes the buffered records to disk as a single I/O. No-op when the
    /// buffer is empty, so callers can sync unconditionally.
    pub fn flush(&mut self, disk: &mut SimDisk) {
        if self.pending.is_empty() {
            return;
        }
        disk.append_log(&self.pending);
        self.pending.clear();
        self.flushes += 1;
    }

    /// Drops the volatile buffer — the crash model.
    pub fn crash(&mut self) {
        self.pending.clear();
    }

    /// Parses `bytes` as a record sequence. Returns the decoded payloads
    /// and the byte length of the valid prefix (everything after it is a
    /// torn tail the caller should truncate away).
    pub fn parse(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
        let mut records = Vec::new();
        let mut pos = 0;
        while bytes.len() - pos >= RECORD_HEADER {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
            let start = pos + RECORD_HEADER;
            if bytes.len() - start < len {
                break; // short payload: torn tail
            }
            let payload = &bytes[start..start + len];
            if crc32(payload) != crc {
                break; // corrupt record: stop at the consistent prefix
            }
            records.push(payload.to_vec());
            pos = start + len;
        }
        (records, pos)
    }

    /// Reads the disk's log region and replays it: returns the valid-prefix
    /// records and truncates any torn tail off the device so later appends
    /// never interleave with garbage.
    pub fn replay(disk: &mut SimDisk) -> Vec<Vec<u8>> {
        let bytes = disk.read_log();
        let (records, valid) = Self::parse(&bytes);
        if valid < bytes.len() {
            disk.truncate_log(valid);
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::DiskModel;

    fn disk() -> SimDisk {
        SimDisk::new(DiskModel {
            seek_us: 100,
            bytes_per_us: 1024,
        })
    }

    #[test]
    fn append_flush_replay_round_trips() {
        let mut d = disk();
        let mut w = Wal::new();
        w.append(b"alpha");
        w.append(b"beta");
        assert!(w.has_pending());
        w.flush(&mut d);
        assert!(!w.has_pending());
        w.append(b"gamma");
        w.flush(&mut d);
        assert_eq!(
            Wal::replay(&mut d),
            vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
        );
    }

    #[test]
    fn group_commit_is_one_seek_per_flush() {
        let mut grouped = disk();
        let mut w = Wal::new();
        for i in 0..8u8 {
            w.append(&[i; 16]);
        }
        w.flush(&mut grouped);
        let mut single = disk();
        let mut v = Wal::new();
        for i in 0..8u8 {
            v.append(&[i; 16]);
            v.flush(&mut single);
        }
        assert_eq!(w.flushes, 1);
        assert_eq!(v.flushes, 8);
        assert_eq!(grouped.stats().bytes_written, single.stats().bytes_written);
        // Same bytes, 7 fewer seeks.
        assert_eq!(
            single.stats().io_time_us - grouped.stats().io_time_us,
            7 * 100
        );
    }

    #[test]
    fn unflushed_records_die_with_the_process() {
        let mut d = disk();
        let mut w = Wal::new();
        w.append(b"durable");
        w.flush(&mut d);
        w.append(b"volatile");
        w.crash();
        w.flush(&mut d); // nothing left to write
        assert_eq!(Wal::replay(&mut d), vec![b"durable".to_vec()]);
    }

    #[test]
    fn corrupt_record_ends_the_valid_prefix() {
        let mut d = disk();
        let mut w = Wal::new();
        w.append(b"good");
        w.append(b"bad");
        w.append(b"after");
        w.flush(&mut d);
        // Flip one payload byte of the middle record.
        let mut bytes = d.read_log();
        let mid = RECORD_HEADER + 4 + RECORD_HEADER; // into "bad"
        bytes[mid] ^= 0xFF;
        let (records, valid) = Wal::parse(&bytes);
        assert_eq!(records, vec![b"good".to_vec()]);
        assert_eq!(valid, RECORD_HEADER + 4);
    }

    /// A 300-byte payload fills the carry-less CRC's four 16-byte lanes four
    /// times (256 B), then two one-register steps (32 B) and a 12-byte tail
    /// the tables fold: a flipped bit anywhere in it must fail the check.
    #[test]
    fn a_flipped_bit_anywhere_in_a_long_payload_ends_the_valid_prefix() {
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut d = disk();
        let mut w = Wal::new();
        w.append(b"before");
        w.append(&payload);
        w.append(b"after");
        w.flush(&mut d);
        let bytes = d.read_log();
        let start = RECORD_HEADER + 6 + RECORD_HEADER;
        for i in 0..payload.len() {
            let mut torn = bytes.clone();
            torn[start + i] ^= 1 << (i % 8);
            let (records, valid) = Wal::parse(&torn);
            assert_eq!(
                records,
                vec![b"before".to_vec()],
                "bit flipped at payload byte {i}"
            );
            assert_eq!(valid, RECORD_HEADER + 6);
        }
    }

    /// The torn-write matrix: truncate the flushed log at *every* byte
    /// boundary of the last record and assert replay always yields exactly
    /// the records before it — a consistent prefix, never garbage, never a
    /// partial record surfaced as data.
    #[test]
    fn torn_tail_at_every_byte_boundary_yields_consistent_prefix() {
        let records: Vec<Vec<u8>> = vec![
            b"first-record".to_vec(),
            b"second".to_vec(),
            vec![0xA5; 100], // last record, torn in the loop below
        ];
        let full_len = {
            let mut d = disk();
            let mut w = Wal::new();
            for r in &records {
                w.append(r);
            }
            w.flush(&mut d);
            d.log_len()
        };
        let last_start = full_len - (RECORD_HEADER + 100);
        for cut in last_start..full_len {
            let mut d = disk();
            let mut w = Wal::new();
            for r in &records {
                w.append(r);
            }
            w.flush(&mut d);
            d.truncate_log(cut); // the crash tears the tail here
            let replayed = Wal::replay(&mut d);
            assert_eq!(
                replayed,
                records[..2].to_vec(),
                "cut at byte {cut}: tail must vanish, prefix must survive"
            );
            // Replay also repaired the device: the torn bytes are gone and
            // a post-recovery append produces a clean log.
            let mut w2 = Wal::new();
            w2.append(b"post-recovery");
            w2.flush(&mut d);
            let again = Wal::replay(&mut d);
            assert_eq!(again.len(), 3);
            assert_eq!(again[2], b"post-recovery".to_vec());
        }
    }

    /// Same matrix, but the tear can land anywhere in the whole log — the
    /// prefix property must hold at every byte of every record.
    #[test]
    fn torn_tail_anywhere_never_yields_partial_records() {
        let records: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 5 + usize::from(i) * 7]).collect();
        let mut reference = disk();
        let mut w = Wal::new();
        for r in &records {
            w.append(r);
        }
        w.flush(&mut reference);
        let bytes = reference.read_log();
        for cut in 0..=bytes.len() {
            let (replayed, valid) = Wal::parse(&bytes[..cut]);
            assert!(valid <= cut);
            assert_eq!(
                replayed,
                records[..replayed.len()].to_vec(),
                "cut at {cut}: replay must be a prefix of what was written"
            );
        }
    }
}
