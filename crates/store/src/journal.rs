//! Record framing for the disk journal: length-prefixed, CRC-guarded JSON records.
//!
//! Every record on disk is one *frame*:
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: `len` bytes of JSON]
//! ```
//!
//! A reader that hits a short header, a short payload, or a CRC mismatch has found a
//! *torn tail* — the prefix up to the previous frame boundary is still valid, which
//! is what makes recovery-by-replay well defined under mid-write crashes.

use crate::StoredAccount;
use blockconc_types::{Address, Error, Result};
use serde::{Deserialize, Serialize};

/// Frame header size: 4-byte length + 4-byte CRC.
pub const FRAME_HEADER_LEN: usize = 8;

/// One journal or snapshot record.
///
/// A committed block appears as `BlockBegin`, its `Upsert`/`Delete` records, then a
/// `BlockCommit` whose `records` count seals the write set; anything after the last
/// `BlockCommit` is discarded at recovery. Snapshots are framed the same way between
/// `SnapshotBegin`/`SnapshotEnd`, so one reader serves both file kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// Opens block `height`'s write set.
    BlockBegin {
        /// The block height.
        height: u64,
    },
    /// Sets an account's post-block value.
    Upsert {
        /// The touched account.
        address: Address,
        /// Its new full value.
        account: StoredAccount,
    },
    /// Deletes an account.
    Delete {
        /// The deleted account.
        address: Address,
    },
    /// Seals block `height` with its record count; the block is durable once this
    /// frame is fully on disk.
    BlockCommit {
        /// The block height.
        height: u64,
        /// Number of `Upsert`/`Delete` records in the block.
        records: u64,
    },
    /// Opens a snapshot taken at `height` holding `accounts` accounts.
    SnapshotBegin {
        /// Height the snapshot captures.
        height: u64,
        /// Accounts that follow.
        accounts: u64,
    },
    /// Seals a snapshot; must repeat the account count.
    SnapshotEnd {
        /// Accounts written.
        accounts: u64,
    },
}

/// CRC-32 (IEEE) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Appends `record` to `buf` as one frame and returns the frame's length in bytes.
pub fn append_frame(buf: &mut Vec<u8>, record: &JournalRecord) -> Result<usize> {
    let payload = serde_json::to_string(record)
        .map_err(|e| Error::execution(format!("store: serialize journal record: {e}")))?;
    let payload = payload.as_bytes();
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(FRAME_HEADER_LEN + payload.len())
}

/// A parsed frame: the record plus its on-disk extent.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The decoded record.
    pub record: JournalRecord,
    /// Byte offset of the frame header in the file.
    pub offset: u64,
    /// Total frame length (header + payload).
    pub len: u32,
}

/// Iterates the frames of `bytes`, stopping cleanly at the first torn or corrupt
/// frame. `frames.consumed` reports how many bytes were validly framed.
pub struct FrameScanner<'a> {
    bytes: &'a [u8],
    /// Offset of the next unread byte; after exhaustion, the length of the valid
    /// framed prefix.
    pub consumed: u64,
}

impl<'a> FrameScanner<'a> {
    /// Scans `bytes` from the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameScanner { bytes, consumed: 0 }
    }
}

/// The CRC-checked payload of the frame at the start of `bytes`, or `None` if
/// its header or payload is torn or its CRC does not match.
fn frame_payload(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < FRAME_HEADER_LEN {
        return None; // torn or absent header
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let payload = bytes.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len)?; // torn payload
    (crc32(payload) == crc).then_some(payload)
}

impl Iterator for FrameScanner<'_> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        let start = self.consumed as usize;
        let payload = frame_payload(&self.bytes[start.min(self.bytes.len())..])?;
        let text = std::str::from_utf8(payload).ok()?;
        let record: JournalRecord = serde_json::from_str(text).ok()?;
        let len = FRAME_HEADER_LEN + payload.len();
        let frame = Frame {
            record,
            offset: start as u64,
            len: len as u32,
        };
        self.consumed = (start + len) as u64;
        Some(frame)
    }
}

/// Checks that `frame_bytes` is exactly one whole frame whose payload matches
/// its CRC, without decoding the payload: what snapshot compaction asks of a
/// live record before it copies the bytes verbatim.
pub fn check_frame(frame_bytes: &[u8]) -> Result<()> {
    match frame_payload(frame_bytes) {
        Some(payload) if FRAME_HEADER_LEN + payload.len() == frame_bytes.len() => Ok(()),
        _ => Err(Error::execution(
            "store: frame bytes are not one whole frame with a matching CRC",
        )),
    }
}

/// Decodes the single record inside a frame previously located by a scanner
/// (random-access point reads through the disk index).
pub fn decode_frame(frame_bytes: &[u8]) -> Result<JournalRecord> {
    let mut scanner = FrameScanner::new(frame_bytes);
    match scanner.next() {
        Some(frame) if scanner.consumed as usize == frame_bytes.len() => Ok(frame.record),
        _ => Err(Error::execution(
            "store: frame bytes did not decode to exactly one record",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upsert(addr: u64) -> JournalRecord {
        JournalRecord::Upsert {
            address: Address::from_low(addr),
            account: StoredAccount {
                balance_sats: addr * 10,
                nonce: 1,
                storage: vec![(0, 5)],
                code_json: None,
            },
        }
    }

    #[test]
    fn frames_round_trip() {
        let records = vec![
            JournalRecord::BlockBegin { height: 3 },
            upsert(1),
            JournalRecord::Delete {
                address: Address::from_low(2),
            },
            JournalRecord::BlockCommit {
                height: 3,
                records: 2,
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            append_frame(&mut buf, r).unwrap();
        }
        let mut scanner = FrameScanner::new(&buf);
        let decoded: Vec<JournalRecord> = scanner.by_ref().map(|f| f.record).collect();
        assert_eq!(decoded, records);
        assert_eq!(scanner.consumed as usize, buf.len());
    }

    #[test]
    fn torn_tail_stops_at_last_whole_frame() {
        let mut buf = Vec::new();
        append_frame(&mut buf, &upsert(1)).unwrap();
        let whole = buf.len();
        append_frame(&mut buf, &upsert(2)).unwrap();
        for cut in whole..buf.len() {
            let mut scanner = FrameScanner::new(&buf[..cut]);
            let n = scanner.by_ref().count();
            assert_eq!(n, 1, "cut at {cut}");
            assert_eq!(scanner.consumed as usize, whole);
        }
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let mut buf = Vec::new();
        append_frame(&mut buf, &upsert(1)).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        assert_eq!(FrameScanner::new(&buf).count(), 0);
    }

    #[test]
    fn decode_frame_requires_exactly_one_record() {
        let mut buf = Vec::new();
        append_frame(&mut buf, &upsert(1)).unwrap();
        assert!(decode_frame(&buf).is_ok());
        let mut two = buf.clone();
        append_frame(&mut two, &upsert(2)).unwrap();
        assert!(decode_frame(&two).is_err());
        assert!(decode_frame(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn check_frame_requires_one_whole_frame_with_a_matching_crc() {
        let mut buf = Vec::new();
        append_frame(&mut buf, &upsert(1)).unwrap();
        assert!(check_frame(&buf).is_ok());
        assert!(check_frame(&buf[..buf.len() - 1]).is_err());
        let mut two = buf.clone();
        append_frame(&mut two, &upsert(2)).unwrap();
        assert!(check_frame(&two).is_err());
        let mut flipped = buf.clone();
        flipped[FRAME_HEADER_LEN] ^= 0x01;
        assert!(check_frame(&flipped).is_err());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }
}
