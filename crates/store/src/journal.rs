//! Record framing and the binary record codec of the disk journal.
//!
//! Every record on disk is one *frame*:
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: `len` bytes]
//! ```
//!
//! The payload is one record in **format 1**: a tag byte, then fixed-width
//! little-endian fields (`crates/store/README.md` § *On-disk format* has the
//! table). An address is its 20 raw bytes, every integer a `u64`, storage a count
//! of `(slot, value)` pairs, and contract code a byte length ([`u64::MAX`] for
//! none) followed by the code's bytes, opaque to the store.
//!
//! A reader that hits a short header, a short payload, a CRC mismatch or an empty
//! frame has found a *torn tail* — the prefix up to the previous frame boundary is
//! still valid, which is what makes recovery-by-replay well defined under mid-write
//! crashes. A whole frame whose CRC matches but whose payload does not decode is
//! no torn write: the scanner reports it as a [`DecodeError`], and recovery fails
//! rather than drop the history behind it.

use crate::StoredAccount;
use blockconc_types::{Address, Error, Result};
use std::fmt;
use std::sync::Arc;

/// Frame header size: 4-byte length + 4-byte CRC.
pub const FRAME_HEADER_LEN: usize = 8;

const TAG_BLOCK_BEGIN: u8 = 1;
const TAG_UPSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_BLOCK_COMMIT: u8 = 4;
const TAG_SNAPSHOT_BEGIN: u8 = 5;
const TAG_SNAPSHOT_END: u8 = 6;

/// The code length that stands for an account without contract code.
const NO_CODE: u64 = u64::MAX;

/// One journal or snapshot record.
///
/// A committed block appears as `BlockBegin`, its `Upsert`/`Delete` records, then a
/// `BlockCommit` whose `records` count seals the write set; anything after the last
/// `BlockCommit` is discarded at recovery. Snapshots are framed the same way between
/// `SnapshotBegin`/`SnapshotEnd`, so one reader serves both file kinds.
#[derive(Debug, Clone, PartialEq)]
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

/// CRC-32 (IEEE) over `bytes`, eight bytes per step (slicing-by-8).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// `CRC32_TABLES[k][b]`: the CRC register after byte `b` followed by `k` zero
/// bytes. Table 0 is the byte-at-a-time table.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// The body after tag and address is the state root's account encoding.
fn encode_upsert(buf: &mut Vec<u8>, address: &Address, account: &StoredAccount) {
    buf.push(TAG_UPSERT);
    buf.extend_from_slice(address.as_bytes());
    account.digest_into(buf);
}

fn encode_record(buf: &mut Vec<u8>, record: &JournalRecord) {
    match record {
        JournalRecord::BlockBegin { height } => {
            buf.push(TAG_BLOCK_BEGIN);
            put_u64(buf, *height);
        }
        JournalRecord::Upsert { address, account } => encode_upsert(buf, address, account),
        JournalRecord::Delete { address } => {
            buf.push(TAG_DELETE);
            buf.extend_from_slice(address.as_bytes());
        }
        JournalRecord::BlockCommit { height, records } => {
            buf.push(TAG_BLOCK_COMMIT);
            put_u64(buf, *height);
            put_u64(buf, *records);
        }
        JournalRecord::SnapshotBegin { height, accounts } => {
            buf.push(TAG_SNAPSHOT_BEGIN);
            put_u64(buf, *height);
            put_u64(buf, *accounts);
        }
        JournalRecord::SnapshotEnd { accounts } => {
            buf.push(TAG_SNAPSHOT_END);
            put_u64(buf, *accounts);
        }
    }
}

/// Appends one frame whose payload `encode` writes straight into `buf`, then
/// fills in its header; returns the frame's length in bytes. A payload too long
/// for the `u32` length field leaves `buf` as it was and returns an error.
fn append_with(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> Result<usize> {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    encode(buf);
    let payload = &buf[start + FRAME_HEADER_LEN..];
    let Ok(len) = u32::try_from(payload.len()) else {
        buf.truncate(start);
        return Err(Error::execution(
            "store: record payload exceeds the frame's u32 length",
        ));
    };
    let crc = crc32(payload);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    Ok(buf.len() - start)
}

/// Appends `record` to `buf` as one frame and returns the frame's length in bytes.
///
/// # Errors
///
/// Returns an error, leaving `buf` as it was, if the payload exceeds the `u32`
/// frame length.
pub fn append_frame(buf: &mut Vec<u8>, record: &JournalRecord) -> Result<usize> {
    append_with(buf, |buf| encode_record(buf, record))
}

/// Appends the `Upsert` frame of `account` at `address`, borrowing the account
/// rather than building a [`JournalRecord`]: the commit path's encoding. The bytes
/// are exactly what [`append_frame`] writes for the same `Upsert`.
///
/// # Errors
///
/// As [`append_frame`].
pub fn append_upsert(
    buf: &mut Vec<u8>,
    address: &Address,
    account: &StoredAccount,
) -> Result<usize> {
    append_with(buf, |buf| encode_upsert(buf, address, account))
}

/// Reads a format-1 payload front to back. Every length or count is checked
/// against the bytes left before anything is allocated for it.
struct Reader<'a>(&'a [u8]);

const SHORT: &str = "payload ends inside a field";
const OVERRUN: &str = "a count or length overruns the payload";

/// A decoded value, or what the decoder rejected.
type Decoded<T> = std::result::Result<T, &'static str>;

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        if n > self.0.len() {
            return Err(SHORT);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Decoded<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take returned 8 bytes"),
        ))
    }

    fn address(&mut self) -> Decoded<Address> {
        Ok(Address::from_bytes(
            self.take(20)?.try_into().expect("take returned 20 bytes"),
        ))
    }

    /// A `u64` count of `width`-byte items that must fit in the bytes left.
    fn count(&mut self, width: usize) -> Decoded<usize> {
        let n = self.u64()?;
        if n > (self.0.len() / width) as u64 {
            return Err(OVERRUN);
        }
        Ok(n as usize)
    }
}

/// Decodes one format-1 record payload; the error says what was rejected.
fn decode_payload(payload: &[u8]) -> Decoded<JournalRecord> {
    let mut r = Reader(payload);
    let record = match r.u8()? {
        TAG_BLOCK_BEGIN => JournalRecord::BlockBegin { height: r.u64()? },
        TAG_UPSERT => {
            let address = r.address()?;
            let balance_sats = r.u64()?;
            let nonce = r.u64()?;
            let slots = r.count(16)?;
            let mut storage = Vec::with_capacity(slots);
            for _ in 0..slots {
                storage.push((r.u64()?, r.u64()?));
            }
            let code = match r.u64()? {
                NO_CODE => None,
                len if len > r.0.len() as u64 => return Err(OVERRUN),
                len => Some(Arc::from(r.take(len as usize)?)),
            };
            JournalRecord::Upsert {
                address,
                account: StoredAccount {
                    balance_sats,
                    nonce,
                    storage,
                    code,
                },
            }
        }
        TAG_DELETE => JournalRecord::Delete {
            address: r.address()?,
        },
        TAG_BLOCK_COMMIT => JournalRecord::BlockCommit {
            height: r.u64()?,
            records: r.u64()?,
        },
        TAG_SNAPSHOT_BEGIN => JournalRecord::SnapshotBegin {
            height: r.u64()?,
            accounts: r.u64()?,
        },
        TAG_SNAPSHOT_END => JournalRecord::SnapshotEnd { accounts: r.u64()? },
        _ => return Err("unknown record tag"),
    };
    if !r.0.is_empty() {
        return Err("trailing bytes after the record");
    }
    Ok(record)
}

/// A parsed frame: the record plus its length on disk.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The decoded record.
    pub record: JournalRecord,
    /// Total frame length (header + payload).
    pub len: u32,
}

/// A whole frame whose CRC matches but whose payload is not a format-1 record:
/// corruption or a store written in another format, never a torn write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset of the frame header in the file.
    pub offset: u64,
    /// What the decoder rejected.
    pub reason: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame at offset {} passes its CRC but does not decode: {}",
            self.offset, self.reason
        )
    }
}

/// Iterates the frames of `bytes`. Iteration ends (`None`) at the end of the
/// bytes or at the first torn frame; a whole frame with a matching CRC that does
/// not decode yields `Err` and is not consumed. `frames.consumed` reports how
/// many bytes were validly framed.
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
/// its header or payload is torn, its CRC does not match, or it is empty. The
/// encoder never writes an empty payload (every record starts with its tag), and
/// a zero-filled tail reads as empty frames with matching CRCs.
fn frame_payload(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < FRAME_HEADER_LEN {
        return None; // torn or absent header
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let payload = bytes.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len)?; // torn payload
    (len > 0 && crc32(payload) == crc).then_some(payload)
}

impl Iterator for FrameScanner<'_> {
    type Item = std::result::Result<Frame, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.consumed as usize;
        let payload = frame_payload(&self.bytes[start.min(self.bytes.len())..])?;
        let offset = start as u64;
        let record = match decode_payload(payload) {
            Ok(record) => record,
            Err(reason) => return Some(Err(DecodeError { offset, reason })),
        };
        let len = FRAME_HEADER_LEN + payload.len();
        self.consumed = (start + len) as u64;
        Some(Ok(Frame {
            record,
            len: len as u32,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn upsert(addr: u64) -> JournalRecord {
        JournalRecord::Upsert {
            address: Address::from_low(addr),
            account: StoredAccount {
                balance_sats: addr * 10,
                nonce: 1,
                storage: vec![(0, 5)],
                code: None,
            },
        }
    }

    /// Pieces of contract code: the store reads them as opaque bytes, so
    /// zero, high and invalid UTF-8 bytes round-trip like any other.
    const CODE_PIECES: [&[u8]; 8] = [
        &[0],
        &[0xff],
        &[0xff, 0xfe, 0x80],
        &u64::MAX.to_le_bytes(),
        b"\n",
        "é".as_bytes(),
        &[0x17],
        &[1, 0, 0, 0, 0, 0, 0, 0],
    ];

    /// The record of variant `tag % 6` built from the sampled fields.
    fn sampled_record(
        tag: u8,
        (a, b): (u64, u64),
        storage: Vec<(u64, u64)>,
        code: Option<Vec<usize>>,
    ) -> JournalRecord {
        let address = Address::from_low(a ^ b.rotate_left(17));
        match tag % 6 {
            0 => JournalRecord::BlockBegin { height: a },
            1 => JournalRecord::Upsert {
                address,
                account: StoredAccount {
                    balance_sats: a,
                    nonce: b,
                    storage,
                    code: code.map(|pieces| {
                        pieces
                            .iter()
                            .flat_map(|&i| CODE_PIECES[i])
                            .copied()
                            .collect::<Vec<u8>>()
                            .into()
                    }),
                },
            },
            2 => JournalRecord::Delete { address },
            3 => JournalRecord::BlockCommit {
                height: a,
                records: b,
            },
            4 => JournalRecord::SnapshotBegin {
                height: a,
                accounts: b,
            },
            _ => JournalRecord::SnapshotEnd { accounts: b },
        }
    }

    fn payload_of(record: &JournalRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        append_frame(&mut buf, record).unwrap();
        buf.split_off(FRAME_HEADER_LEN)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Every variant, accounts with up to 300 slots and code of any bytes
        // (zero, high, not UTF-8), round-trips through frames; a strict prefix
        // of any payload, or the payload plus one byte, does not decode.
        #[test]
        fn frames_round_trip(
            tags in proptest::collection::vec(0u8..6, 1..12),
            fields in (0u64..u64::MAX, 0u64..u64::MAX),
            storage in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..300),
            code in proptest::option::of(proptest::collection::vec(0usize..CODE_PIECES.len(), 0..24)),
        ) {
            let records: Vec<JournalRecord> = tags
                .iter()
                .map(|&tag| sampled_record(tag, fields, storage.clone(), code.clone()))
                .collect();
            let mut buf = Vec::new();
            let mut lens = Vec::new();
            for r in &records {
                lens.push(append_frame(&mut buf, r).unwrap());
            }
            let mut scanner = FrameScanner::new(&buf);
            let frames: Vec<Frame> = scanner.by_ref().map(|f| f.unwrap()).collect();
            prop_assert_eq!(scanner.consumed as usize, buf.len());
            let decoded: Vec<JournalRecord> = frames.iter().map(|f| f.record.clone()).collect();
            prop_assert_eq!(&decoded, &records);
            let frame_lens: Vec<usize> = frames.iter().map(|f| f.len as usize).collect();
            prop_assert_eq!(frame_lens, lens);

            for (i, record) in records.iter().enumerate() {
                if records[..i].contains(record) {
                    continue;
                }
                let payload = payload_of(record);
                prop_assert_eq!(decode_payload(&payload), Ok(record.clone()));
                for cut in 0..payload.len() {
                    prop_assert!(decode_payload(&payload[..cut]).is_err(), "prefix {cut} of {record:?}");
                }
                let mut longer = payload.clone();
                longer.push(0);
                prop_assert_eq!(decode_payload(&longer), Err("trailing bytes after the record"));
            }
        }
    }

    #[test]
    fn upsert_by_reference_writes_what_append_frame_writes() {
        let JournalRecord::Upsert { address, account } =
            sampled_record(1, (7, 9), vec![(1, 2), (3, 4)], Some(vec![0, 1, 2, 5, 7]))
        else {
            unreachable!("tag 1 is an upsert")
        };
        let mut by_ref = Vec::new();
        let len = append_upsert(&mut by_ref, &address, &account).unwrap();
        let mut owned = Vec::new();
        append_frame(&mut owned, &JournalRecord::Upsert { address, account }).unwrap();
        assert_eq!(by_ref, owned);
        assert_eq!(len, owned.len());
    }

    /// Format 1, byte for byte. A change here is a format change: update the
    /// tag and field table in `crates/store/README.md` with it.
    #[test]
    fn format_1_is_pinned() {
        let address = |first: u8| Address::from_bytes(std::array::from_fn(|i| first + i as u8));
        let records = [
            JournalRecord::BlockBegin { height: 7 },
            JournalRecord::Upsert {
                address: address(0xa0),
                account: StoredAccount {
                    balance_sats: 0x0102,
                    nonce: 3,
                    storage: vec![(1, 0x10), (2, 0x20)],
                    code: Some(Arc::from("[\"é\"]".as_bytes())),
                },
            },
            JournalRecord::Delete {
                address: address(0xc0),
            },
            JournalRecord::BlockCommit {
                height: 7,
                records: 2,
            },
        ];
        let mut buf = Vec::new();
        for record in &records {
            append_frame(&mut buf, record).unwrap();
        }
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        let expected = concat!(
            // BlockBegin{7}: len 9, crc, tag 01, height
            "09000000",
            "f409b7fb",
            "01",
            "0700000000000000",
            // Upsert: len 91, crc, tag 02, address a0..b3, balance, nonce,
            // 2 slots, (1, 0x10), (2, 0x20), code length 6, `["é"]`
            "5b000000",
            "68a8b62c",
            "02",
            "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3",
            "0201000000000000",
            "0300000000000000",
            "0200000000000000",
            "0100000000000000",
            "1000000000000000",
            "0200000000000000",
            "2000000000000000",
            "0600000000000000",
            "5b22c3a9225d",
            // Delete: len 21, crc, tag 03, address c0..d3
            "15000000",
            "7b49b395",
            "03",
            "c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3",
            // BlockCommit{7, 2}: len 17, crc, tag 04, height, records
            "11000000",
            "7a293b05",
            "04",
            "0700000000000000",
            "0200000000000000",
        );
        assert_eq!(hex, expected);
    }

    #[test]
    fn decoder_rejects_malformed_payloads() {
        // A storage count of u64::MAX is refused before any allocation.
        let mut huge = vec![TAG_UPSERT];
        huge.extend_from_slice(Address::from_low(1).as_bytes());
        huge.extend_from_slice(&[0; 16]); // balance, nonce
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_payload(&huge), Err(OVERRUN));
        // A code length past the end of the payload.
        let mut code = payload_of(&upsert(1));
        let at = code.len() - 8;
        code[at..].copy_from_slice(&4u64.to_le_bytes());
        code.extend_from_slice(b"abc");
        assert_eq!(decode_payload(&code), Err(OVERRUN));
        // Code bytes are opaque: a length that fits takes whatever it covers.
        code.push(0xff);
        let JournalRecord::Upsert { account, .. } = decode_payload(&code).unwrap() else {
            unreachable!("an upsert payload")
        };
        assert_eq!(account.code.as_deref(), Some(&b"abc\xff"[..]));
        // An unknown tag, and a JSON-era record.
        assert_eq!(decode_payload(&[0xee]), Err("unknown record tag"));
        assert!(decode_payload(br#"{"BlockBegin":{"height":3}}"#).is_err());
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
        // A zero-filled tail is torn too, not an undecodable frame.
        buf.extend_from_slice(&[0; 3 * FRAME_HEADER_LEN]);
        let mut scanner = FrameScanner::new(&buf);
        assert!(scanner.by_ref().all(|frame| frame.is_ok()));
        assert_eq!(scanner.consumed as usize, buf.len() - 3 * FRAME_HEADER_LEN);
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
    fn a_crc_valid_frame_that_does_not_decode_is_an_error_not_a_torn_tail() {
        let mut buf = Vec::new();
        append_frame(&mut buf, &upsert(1)).unwrap();
        let bad = buf.len() as u64;
        let payload = [0xee, 1, 2, 3];
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let mut scanner = FrameScanner::new(&buf);
        assert!(scanner.next().unwrap().is_ok());
        let err = scanner.next().unwrap().unwrap_err();
        assert_eq!(
            err,
            DecodeError {
                offset: bad,
                reason: "unknown record tag"
            }
        );
        // The bad frame is not consumed: the valid prefix ends before it.
        assert_eq!(scanner.consumed, bad);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    /// The byte-at-a-time CRC-32 that `crc32` computes eight bytes at a time.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    proptest! {
        #[test]
        fn crc32_matches_the_bytewise_reference(
            bytes in proptest::collection::vec(0u16..256, 0..301),
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }
}
