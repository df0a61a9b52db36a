//! The log-structured disk backend: append-only journal of per-block write-set
//! deltas, periodic snapshot compaction, recovery-by-replay on open.
//!
//! See `crates/store/README.md` for the on-disk format, the recovery protocol and
//! the compaction policy; the crash-recovery property tests in
//! `crates/store/tests/` drive torn-tail and torn-snapshot scenarios against it.

use crate::backend::BlockScope;
use crate::journal::{
    append_frame, append_upsert, check_frame, decode_frame, Frame, FrameScanner, JournalRecord,
};
use crate::{CommitStats, DeltaRecord, DiskConfig, StateBackend, StoreStats, StoredAccount};
use blockconc_types::{Address, Error, Result};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Which file of an epoch a record lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FileKind {
    Snapshot,
    Journal,
}

/// Where an account's latest value sits on disk: one whole frame in one file.
#[derive(Debug, Clone, Copy)]
struct Location {
    kind: FileKind,
    epoch: u64,
    offset: u64,
    len: u32,
}

fn file_path(dir: &Path, kind: FileKind, epoch: u64) -> PathBuf {
    match kind {
        FileKind::Journal => dir.join(format!("journal-{epoch:06}.log")),
        FileKind::Snapshot => dir.join(format!("snapshot-{epoch:06}.log")),
    }
}

fn io_err(context: &str, err: std::io::Error) -> Error {
    Error::execution(format!("store: {context}: {err}"))
}

/// A [`StateBackend`] that journals committed state to disk.
///
/// In memory it keeps only a per-account *index* (address → file/offset/length of
/// the latest value record); account values and the block history stay on disk.
/// Commits append one framed write-set delta, which is in the journal file when
/// the commit returns; the live records are read back
/// once, when a state is mounted on a reopened store
/// ([`for_each_account`](StateBackend::for_each_account)).
/// [`DiskConfig::snapshot_every`] bounds recovery replay by compacting the live
/// state into a snapshot and starting a fresh journal epoch.
///
/// # Examples
///
/// ```no_run
/// use blockconc_store::{DiskBackend, DiskConfig, StateBackend};
///
/// let backend = DiskBackend::open(&DiskConfig::new("/tmp/blockconc-demo")).unwrap();
/// assert_eq!(backend.committed_block(), None);
/// ```
#[derive(Debug)]
pub struct DiskBackend {
    dir: PathBuf,
    snapshot_every: u64,
    epoch: u64,
    journal: File,
    /// Length of the active journal file: every committed block's frames.
    journal_len: u64,
    /// One block's frames on their way to the journal, reused across commits.
    frame_buf: Vec<u8>,
    index: BTreeMap<Address, Location>,
    scope: BlockScope,
    last_snapshot_height: u64,
    stats: StoreStats,
}

impl DiskBackend {
    /// Opens (or creates) the store in `config.dir`, recovering committed state by
    /// loading the newest valid snapshot and replaying the journal epochs after it.
    /// A torn journal tail — a crash mid-append — is detected by the frame CRCs and
    /// truncated; a torn newest snapshot falls back to the previous generation.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created or the files cannot be
    /// read, or if recovery reads a whole frame whose CRC matches but whose payload
    /// does not decode (the error names the file and the frame's offset). Such a
    /// frame is corruption or a store in another format, not a torn write, so
    /// `open` fails before it truncates or writes anything.
    pub fn open(config: &DiskConfig) -> Result<Self> {
        fs::create_dir_all(&config.dir).map_err(|e| io_err("create store directory", e))?;
        let (snapshots, journals) = list_epochs(&config.dir)?;

        // Newest snapshot that validates wins; invalid (torn) ones fall back a
        // generation. With no usable snapshot, replay starts from an empty state.
        let mut index = BTreeMap::new();
        let mut committed: Option<u64> = None;
        let mut last_snapshot_height = 0u64;
        let mut base_epoch = 0u64;
        let mut stats = StoreStats {
            backend: "disk-journal".to_string(),
            ..StoreStats::default()
        };
        for &epoch in snapshots.iter().rev() {
            if let Some((snap_index, height)) = load_snapshot(&config.dir, epoch)? {
                index = snap_index;
                committed = Some(height);
                last_snapshot_height = height;
                base_epoch = epoch;
                break;
            }
        }

        // Replay the journals of the chosen generation onwards, oldest first.
        let mut max_epoch = base_epoch.max(snapshots.last().copied().unwrap_or(0));
        let mut newest_valid_len = 0u64;
        for &epoch in journals.iter().filter(|&&e| e >= base_epoch) {
            max_epoch = max_epoch.max(epoch);
            let valid_len =
                replay_journal(&config.dir, epoch, &mut index, &mut committed, &mut stats)?;
            newest_valid_len = valid_len;
        }

        // Append to the newest journal, truncating any torn tail first so new
        // frames land on a valid boundary.
        let journal_path = file_path(&config.dir, FileKind::Journal, max_epoch);
        let has_newest = journals.contains(&max_epoch);
        let journal = OpenOptions::new()
            .create(true)
            .truncate(false) // appended to; any torn tail is trimmed via set_len below
            .read(true)
            .write(true)
            .open(&journal_path)
            .map_err(|e| io_err("open journal", e))?;
        let journal_len = if has_newest { newest_valid_len } else { 0 };
        journal
            .set_len(journal_len)
            .map_err(|e| io_err("truncate torn journal tail", e))?;
        let mut backend = DiskBackend {
            dir: config.dir.clone(),
            snapshot_every: config.snapshot_every,
            epoch: max_epoch,
            journal,
            journal_len,
            frame_buf: Vec::new(),
            index,
            scope: BlockScope::at(committed),
            last_snapshot_height,
            stats,
        };
        backend
            .journal
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek journal end", e))?;
        Ok(backend)
    }

    /// Bytes in the active journal epoch: the journal file's length, since a
    /// commit is in the file when it returns (used by the crash-recovery tests
    /// to map truncation points onto commit boundaries).
    pub fn journal_bytes(&self) -> u64 {
        self.journal_len
    }

    /// Appends the framed block in `frame_buf` to the journal and flushes it.
    /// On failure the journal is cut back to its last block boundary, so the
    /// next commit does not land behind a partial frame that `open` would stop
    /// at.
    fn append_block(&mut self) -> Result<()> {
        let appended = self
            .journal
            .write_all(&self.frame_buf)
            .and_then(|()| self.journal.flush());
        let Err(err) = appended else {
            return Ok(());
        };
        let rewound = self
            .journal
            .set_len(self.journal_len)
            .and_then(|()| self.journal.seek(SeekFrom::End(0)));
        Err(match rewound {
            Ok(_) => io_err("append block", err),
            Err(rewind) => io_err(
                &format!("append block ({err}), then rewind journal"),
                rewind,
            ),
        })
    }

    /// The active journal/snapshot generation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Height of the last snapshot compaction (0 if none yet).
    pub fn last_snapshot_height(&self) -> u64 {
        self.last_snapshot_height
    }

    /// Forces a snapshot compaction now (also triggered automatically every
    /// [`DiskConfig::snapshot_every`] committed blocks).
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn compact(&mut self) -> Result<CommitStats> {
        let new_epoch = self.epoch + 1;
        let height = self.scope.committed().unwrap_or(0);
        let accounts = self.index.len() as u64;

        // Every live record is one whole `Upsert` frame; copy each verbatim
        // after its CRC check: the payload is byte-for-byte what decoding and
        // re-encoding it would write.
        let sources = self.sources()?;
        let mut buf = Vec::new();
        append_frame(&mut buf, &JournalRecord::SnapshotBegin { height, accounts })?;
        let new_index = self
            .index
            .iter()
            .map(|(address, location)| {
                let frame = frame_at(&sources, location)?;
                check_frame(frame)?;
                let offset = buf.len() as u64;
                buf.extend_from_slice(frame);
                Ok((
                    *address,
                    Location {
                        kind: FileKind::Snapshot,
                        epoch: new_epoch,
                        offset,
                        len: location.len,
                    },
                ))
            })
            .collect::<Result<BTreeMap<_, _>>>()?;
        drop(sources);
        append_frame(&mut buf, &JournalRecord::SnapshotEnd { accounts })?;

        // Durable snapshot via temp file + atomic rename, then a fresh journal.
        let final_path = file_path(&self.dir, FileKind::Snapshot, new_epoch);
        let tmp_path = final_path.with_extension("tmp");
        fs::write(&tmp_path, &buf).map_err(|e| io_err("write snapshot", e))?;
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err("publish snapshot", e))?;
        let journal_path = file_path(&self.dir, FileKind::Journal, new_epoch);
        self.journal = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&journal_path)
            .map_err(|e| io_err("open fresh journal", e))?;
        self.journal_len = 0;

        // Keep exactly one previous generation as the torn-snapshot fallback.
        let old_epoch = self.epoch;
        let (snapshots, journals) = list_epochs(&self.dir)?;
        for epoch in snapshots.into_iter().filter(|&e| e < old_epoch) {
            let _ = fs::remove_file(file_path(&self.dir, FileKind::Snapshot, epoch));
        }
        for epoch in journals.into_iter().filter(|&e| e < old_epoch) {
            let _ = fs::remove_file(file_path(&self.dir, FileKind::Journal, epoch));
        }

        self.index = new_index;
        self.epoch = new_epoch;
        self.last_snapshot_height = height;
        self.stats.snapshots_written += 1;
        let records = accounts;
        let bytes = buf.len() as u64;
        self.stats.records_written += records;
        self.stats.bytes_written += bytes;
        Ok(CommitStats {
            height,
            records,
            bytes,
        })
    }

    /// Every file a live record sits in (the current snapshot and journal;
    /// after a torn-snapshot fallback, the epochs replayed past it), each read
    /// once, whole.
    fn sources(&self) -> Result<HashMap<(FileKind, u64), Vec<u8>>> {
        let mut sources = HashMap::new();
        for location in self.index.values() {
            if let Entry::Vacant(source) = sources.entry((location.kind, location.epoch)) {
                let path = file_path(&self.dir, location.kind, location.epoch);
                let bytes = fs::read(path).map_err(|e| io_err("read live records", e))?;
                source.insert(bytes);
            }
        }
        Ok(sources)
    }
}

/// The bytes of the frame at `location` inside its source file.
fn frame_at<'a>(
    sources: &'a HashMap<(FileKind, u64), Vec<u8>>,
    location: &Location,
) -> Result<&'a [u8]> {
    let start = location.offset as usize;
    sources[&(location.kind, location.epoch)]
        .get(start..start + location.len as usize)
        .ok_or_else(|| Error::execution("store: index pointed past its file"))
}

/// Appends block `height`'s frames to `buf`, pulling the write set's records
/// one at a time in the order the iterator yields them, and returns where each
/// touched account's record now lives (`None` for a delete). The block's first
/// byte lands at offset `offset` of journal `epoch`.
fn encode_block(
    buf: &mut Vec<u8>,
    offset: u64,
    epoch: u64,
    height: u64,
    records: &mut dyn ExactSizeIterator<Item = DeltaRecord>,
) -> Result<Vec<(Address, Option<Location>)>> {
    let start = buf.len();
    append_frame(buf, &JournalRecord::BlockBegin { height })?;
    let mut placements = Vec::with_capacity(records.len());
    for record in records {
        let location = match &record.account {
            Some(account) => {
                let frame_offset = offset + (buf.len() - start) as u64;
                let len = append_upsert(buf, &record.address, account)?;
                Some(Location {
                    kind: FileKind::Journal,
                    epoch,
                    offset: frame_offset,
                    len: len as u32,
                })
            }
            None => {
                append_frame(
                    buf,
                    &JournalRecord::Delete {
                        address: record.address,
                    },
                )?;
                None
            }
        };
        placements.push((record.address, location));
    }
    append_frame(
        buf,
        &JournalRecord::BlockCommit {
            height,
            records: placements.len() as u64,
        },
    )?;
    Ok(placements)
}

/// Epochs present in `dir`, each list ascending.
fn list_epochs(dir: &Path) -> Result<(Vec<u64>, Vec<u64>)> {
    let mut snapshots = Vec::new();
    let mut journals = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err("list store directory", e))? {
        let entry = entry.map_err(|e| io_err("list store directory", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let parse = |prefix: &str| -> Option<u64> {
            name.strip_prefix(prefix)?
                .strip_suffix(".log")?
                .parse()
                .ok()
        };
        if let Some(epoch) = parse("snapshot-") {
            snapshots.push(epoch);
        } else if let Some(epoch) = parse("journal-") {
            journals.push(epoch);
        }
    }
    snapshots.sort_unstable();
    journals.sort_unstable();
    Ok((snapshots, journals))
}

/// Reads a store file whole. A missing file is a normal recovery state (`None`);
/// any other I/O failure must propagate — treating e.g. a transient `EIO` as "no
/// data here" would make `open` truncate a journal that still holds committed
/// blocks.
fn read_file_or_absent(path: &Path, context: &str) -> Result<Option<Vec<u8>>> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(context, e)),
    }
}

/// The next frame of `scanner` over the file at `path`: `None` at the end of the
/// file or at a torn frame, an error naming the file and offset at a whole frame
/// with a matching CRC that does not decode.
fn next_frame(scanner: &mut FrameScanner<'_>, path: &Path) -> Result<Option<Frame>> {
    scanner
        .next()
        .transpose()
        .map_err(|e| Error::execution(format!("store: {}: {e}", path.display())))
}

/// Loads and validates one snapshot file; `None` if it is torn or its records
/// break the snapshot protocol, an error if one of its frames does not decode.
#[allow(clippy::type_complexity)]
fn load_snapshot(dir: &Path, epoch: u64) -> Result<Option<(BTreeMap<Address, Location>, u64)>> {
    let path = file_path(dir, FileKind::Snapshot, epoch);
    let Some(bytes) = read_file_or_absent(&path, "read snapshot")? else {
        return Ok(None);
    };
    let mut scanner = FrameScanner::new(&bytes);
    let Some(first) = next_frame(&mut scanner, &path)? else {
        return Ok(None);
    };
    let JournalRecord::SnapshotBegin { height, accounts } = first.record else {
        return Ok(None);
    };
    let mut index = BTreeMap::new();
    for _ in 0..accounts {
        let Some(frame) = next_frame(&mut scanner, &path)? else {
            return Ok(None);
        };
        let JournalRecord::Upsert { address, .. } = frame.record else {
            return Ok(None);
        };
        index.insert(
            address,
            Location {
                kind: FileKind::Snapshot,
                epoch,
                offset: frame.offset,
                len: frame.len,
            },
        );
    }
    match next_frame(&mut scanner, &path)? {
        Some(frame)
            if frame.record == (JournalRecord::SnapshotEnd { accounts })
                && scanner.consumed as usize == bytes.len() =>
        {
            Ok(Some((index, height)))
        }
        _ => Ok(None),
    }
}

/// Replays one journal epoch into the index, applying only fully committed blocks
/// ahead of the current height; returns the byte length of the valid committed
/// prefix (everything after it is a torn or uncommitted tail).
fn replay_journal(
    dir: &Path,
    epoch: u64,
    index: &mut BTreeMap<Address, Location>,
    committed: &mut Option<u64>,
    stats: &mut StoreStats,
) -> Result<u64> {
    let path = file_path(dir, FileKind::Journal, epoch);
    let Some(bytes) = read_file_or_absent(&path, "read journal")? else {
        return Ok(0);
    };
    let mut scanner = FrameScanner::new(&bytes);
    let mut valid_end = 0u64;
    let mut pending_height: Option<u64> = None;
    let mut pending: Vec<(Address, Option<Location>)> = Vec::new();
    while let Some(frame) = next_frame(&mut scanner, &path)? {
        match frame.record {
            JournalRecord::BlockBegin { height } => {
                pending_height = Some(height);
                pending.clear();
            }
            JournalRecord::Upsert { address, .. } if pending_height.is_some() => {
                pending.push((
                    address,
                    Some(Location {
                        kind: FileKind::Journal,
                        epoch,
                        offset: frame.offset,
                        len: frame.len,
                    }),
                ));
            }
            JournalRecord::Delete { address } if pending_height.is_some() => {
                pending.push((address, None));
            }
            JournalRecord::BlockCommit { height, records }
                if pending_height == Some(height) && records == pending.len() as u64 =>
            {
                if committed.map_or(true, |c| height > c) {
                    for (address, location) in pending.drain(..) {
                        match location {
                            Some(location) => {
                                index.insert(address, location);
                            }
                            None => {
                                index.remove(&address);
                            }
                        }
                    }
                    *committed = Some(height);
                    stats.replayed_blocks += 1;
                    stats.replayed_records += records;
                }
                pending_height = None;
                valid_end = scanner.consumed;
            }
            // Any protocol violation means the writer died mid-block or the file
            // is corrupt from here on: stop, keeping only the sealed prefix.
            _ => break,
        }
    }
    Ok(valid_end)
}

impl StateBackend for DiskBackend {
    fn name(&self) -> &'static str {
        "disk-journal"
    }

    fn begin_block(&mut self, height: u64) -> Result<()> {
        self.scope.begin(height)
    }

    fn commit_block(
        &mut self,
        height: u64,
        records: &mut dyn ExactSizeIterator<Item = DeltaRecord>,
    ) -> Result<CommitStats> {
        self.scope.check_commit(height)?;

        // The block is framed, then appended and flushed, before anything moves:
        // a failed encoding or append leaves the store at the previous height.
        self.frame_buf.clear();
        let placements = encode_block(
            &mut self.frame_buf,
            self.journal_len,
            self.epoch,
            height,
            records,
        )?;
        self.append_block()?;
        let records = placements.len() as u64;
        let bytes = self.frame_buf.len() as u64;
        self.journal_len += bytes;

        for (address, location) in placements {
            match location {
                Some(location) => {
                    self.index.insert(address, location);
                }
                None => {
                    self.index.remove(&address);
                }
            }
        }
        self.scope.mark_committed(height);
        self.stats.committed_blocks += 1;
        self.stats.group_flushes += 1;
        self.stats.records_written += records;
        self.stats.bytes_written += bytes;

        let mut total_bytes = bytes;
        let mut total_records = records;
        if self.snapshot_every > 0
            && height.saturating_sub(self.last_snapshot_height) >= self.snapshot_every
        {
            // A compaction's records and bytes are charged to the commit that triggers it.
            let compaction = self.compact()?;
            total_bytes += compaction.bytes;
            total_records += compaction.records;
        }
        Ok(CommitStats {
            height,
            records: total_records,
            bytes: total_bytes,
        })
    }

    fn committed_block(&self) -> Option<u64> {
        self.scope.committed()
    }

    fn for_each_account(
        &mut self,
        f: &mut dyn FnMut(Address, StoredAccount) -> Result<()>,
    ) -> Result<()> {
        let sources = self.sources()?;
        for (address, location) in &self.index {
            let account = match decode_frame(frame_at(&sources, location)?)? {
                JournalRecord::Upsert { account, .. } => account,
                other => {
                    return Err(Error::execution(format!(
                        "store: index pointed at a non-account record {other:?}"
                    )))
                }
            };
            self.stats.backend_reads += 1;
            self.stats.read_bytes += u64::from(location.len);
            f(*address, account)?;
        }
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::assert_block_scope_is_enforced;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("blockconc-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn account(balance: u64) -> StoredAccount {
        StoredAccount {
            balance_sats: balance,
            nonce: balance / 10,
            storage: vec![(1, balance)],
            code_json: None,
        }
    }

    /// Every committed account's balance, read the way a mount reads them.
    fn balances(backend: &mut DiskBackend) -> Vec<(Address, u64)> {
        let mut out = Vec::new();
        backend
            .for_each_account(&mut |address, account| {
                out.push((address, account.balance_sats));
                Ok(())
            })
            .unwrap();
        out
    }

    fn records(accounts: &[(u64, u64)]) -> Vec<DeltaRecord> {
        accounts
            .iter()
            .map(|&(addr, balance)| DeltaRecord {
                address: Address::from_low(addr),
                account: Some(account(balance)),
            })
            .collect()
    }

    #[test]
    fn commit_read_reopen_round_trip() {
        let dir = tempdir("roundtrip");
        let config = DiskConfig::new(&dir);
        {
            let mut backend = DiskBackend::open(&config).unwrap();
            for (height, block) in [(1, &[(1, 100), (2, 200)][..]), (2, &[(1, 150)][..])] {
                backend.begin_block(height).unwrap();
                backend
                    .commit_block(height, &mut records(block).into_iter())
                    .unwrap();
                // A returned commit is in the file: the journal holds every
                // byte, and a crash right now recovers exactly this height.
                let journal = file_path(&dir, FileKind::Journal, 0);
                assert_eq!(
                    fs::metadata(journal).unwrap().len(),
                    backend.journal_bytes()
                );
                let crashed = crash_copy(&dir, "roundtrip-crash");
                let recovered = DiskBackend::open(&DiskConfig::new(&crashed)).unwrap();
                assert_eq!(recovered.committed_block(), Some(height));
                let _ = fs::remove_dir_all(&crashed);
            }
        }
        let mut reopened = DiskBackend::open(&config).unwrap();
        assert_eq!(reopened.committed_block(), Some(2));
        assert_eq!(reopened.stats().replayed_blocks, 2);
        assert_eq!(
            balances(&mut reopened),
            [(Address::from_low(1), 150), (Address::from_low(2), 200)]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_state_and_bounds_replay() {
        let dir = tempdir("compact");
        let config = DiskConfig {
            snapshot_every: 4,
            ..DiskConfig::new(&dir)
        };
        {
            let mut backend = DiskBackend::open(&config).unwrap();
            for height in 1..=10u64 {
                backend.begin_block(height).unwrap();
                backend
                    .commit_block(
                        height,
                        &mut records(&[(height % 3, height * 10)]).into_iter(),
                    )
                    .unwrap();
            }
            assert!(backend.stats().snapshots_written >= 2);
            assert!(backend.last_snapshot_height() >= 8);
        }
        let mut reopened = DiskBackend::open(&config).unwrap();
        assert_eq!(reopened.committed_block(), Some(10));
        // Replay after compaction is bounded by blocks since the last snapshot.
        assert!(reopened.stats().replayed_blocks <= 4);
        assert_eq!(
            balances(&mut reopened),
            [(0, 90), (1, 100), (2, 80)].map(|(low, sats)| (Address::from_low(low), sats))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn for_each_visits_in_address_order() {
        let dir = tempdir("order");
        let mut backend = DiskBackend::open(&DiskConfig::new(&dir)).unwrap();
        backend.begin_block(1).unwrap();
        backend
            .commit_block(1, &mut records(&[(5, 50), (2, 20), (9, 90)]).into_iter())
            .unwrap();
        assert_eq!(backend.stats().backend_reads, 0, "commits read nothing");
        assert_eq!(
            balances(&mut backend),
            [(2, 20), (5, 50), (9, 90)].map(|(low, sats)| (Address::from_low(low), sats))
        );
        let stats = backend.stats();
        assert_eq!(stats.backend_reads, 3);
        assert!(stats.read_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_journal_propagates_instead_of_truncating() {
        // An I/O error that is not NotFound (here: EISDIR via a directory squatting
        // on the journal path) must fail `open` loudly — treating it as "empty"
        // would wipe committed history via the torn-tail truncation.
        let dir = tempdir("unreadable");
        fs::create_dir_all(dir.join("journal-000000.log")).unwrap();
        assert!(DiskBackend::open(&DiskConfig::new(&dir)).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Simulates a crash: copies the store directory's on-disk bytes as they are
    /// right now into a fresh directory a new backend can open.
    fn crash_copy(dir: &Path, tag: &str) -> PathBuf {
        let copy = tempdir(tag);
        fs::create_dir_all(&copy).unwrap();
        for entry in fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        copy
    }

    #[test]
    fn block_scope_is_enforced() {
        let dir = tempdir("scope");
        let mut backend = DiskBackend::open(&DiskConfig::new(&dir)).unwrap();
        assert_block_scope_is_enforced(&mut backend);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_does_not_commit() {
        let dir = tempdir("failed-append");
        let config = DiskConfig {
            snapshot_every: 0,
            ..DiskConfig::new(&dir)
        };
        let journal = file_path(&dir, FileKind::Journal, 0);
        let mut backend = DiskBackend::open(&config).unwrap();
        backend.begin_block(1).unwrap();
        backend
            .commit_block(1, &mut records(&[(1, 100)]).into_iter())
            .unwrap();
        let boundary = backend.journal_bytes();
        let before = balances(&mut backend);

        // A journal handle that cannot be written: the append of block 2 fails.
        backend.journal = File::open(&journal).unwrap();
        backend.begin_block(2).unwrap();
        assert!(backend
            .commit_block(2, &mut records(&[(1, 999)]).into_iter())
            .is_err());
        assert_eq!(backend.committed_block(), Some(1));
        assert_eq!(backend.journal_bytes(), boundary);
        assert_eq!(fs::metadata(&journal).unwrap().len(), boundary);
        assert_eq!(balances(&mut backend), before);
        drop(backend);

        let mut reopened = DiskBackend::open(&config).unwrap();
        assert_eq!(reopened.committed_block(), Some(1));
        assert_eq!(balances(&mut reopened), before);
        reopened.begin_block(2).unwrap();
        reopened
            .commit_block(2, &mut records(&[(1, 101)]).into_iter())
            .unwrap();
        drop(reopened);
        let mut recovered = DiskBackend::open(&config).unwrap();
        assert_eq!(recovered.committed_block(), Some(2));
        assert_eq!(balances(&mut recovered), [(Address::from_low(1), 101)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_empty_store_reports_committed_genesis() {
        let dir = tempdir("genesis");
        let config = DiskConfig::new(&dir);
        {
            let mut backend = DiskBackend::open(&config).unwrap();
            assert!(backend.committed_block().is_none());
            backend.begin_block(0).unwrap();
            backend
                .commit_block(0, &mut Vec::new().into_iter())
                .unwrap();
        }
        let reopened = DiskBackend::open(&config).unwrap();
        // Height 0 with an empty delta is still a commit: the store is no longer
        // fresh, which is what `WorldState::attach_backend` keys off.
        assert_eq!(reopened.committed_block(), Some(0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_on_reopen() {
        let dir = tempdir("torn");
        let config = DiskConfig {
            snapshot_every: 0,
            ..DiskConfig::new(&dir)
        };
        let boundary;
        {
            let mut backend = DiskBackend::open(&config).unwrap();
            backend.begin_block(1).unwrap();
            backend
                .commit_block(1, &mut records(&[(1, 100)]).into_iter())
                .unwrap();
            boundary = backend.journal_bytes();
            backend.begin_block(2).unwrap();
            backend
                .commit_block(2, &mut records(&[(1, 999)]).into_iter())
                .unwrap();
        }
        let journal = file_path(&dir, FileKind::Journal, 0);
        let full = fs::metadata(&journal).unwrap().len();
        // Tear the tail anywhere inside block 2's frames.
        let file = OpenOptions::new().write(true).open(&journal).unwrap();
        file.set_len(boundary + (full - boundary) / 2).unwrap();
        drop(file);
        let mut reopened = DiskBackend::open(&config).unwrap();
        assert_eq!(reopened.committed_block(), Some(1));
        assert_eq!(balances(&mut reopened), [(Address::from_low(1), 100)]);
        // The torn tail was truncated, so new commits extend a clean journal.
        assert_eq!(reopened.journal_bytes(), boundary);
        reopened.begin_block(2).unwrap();
        reopened
            .commit_block(2, &mut records(&[(1, 101)]).into_iter())
            .unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
