//! The log-structured disk backend: append-only journal of per-block write-set
//! deltas, periodic snapshots of the owner's state, recovery-by-replay on open.
//!
//! See `crates/store/README.md` for the on-disk format, the recovery protocol and
//! the compaction policy; the crash-recovery property tests in
//! `crates/store/tests/` drive torn-tail and torn-snapshot scenarios against it.

use crate::backend::BlockScope;
use crate::journal::{append_frame, append_upsert, Frame, FrameScanner, JournalRecord};
use crate::{CommitStats, DeltaRecord, DiskConfig, StateBackend, StoreStats, StoredAccount};
use blockconc_types::{Address, Error, Result};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Which file of an epoch a record lives in.
enum FileKind {
    Snapshot,
    Journal,
}

/// The committed accounts recovery decoded, each with the length of the frame
/// it was decoded from.
type Recovered = BTreeMap<Address, (StoredAccount, u32)>;

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
/// It keeps nothing per account while a state runs on it. Commits append one
/// framed write-set delta, which is in the journal file when the commit
/// returns. [`DiskConfig::snapshot_every`] bounds recovery replay: when a
/// snapshot is due, the backend writes the whole state the owner hands to
/// [`commit_block`](StateBackend::commit_block) and starts a fresh journal
/// epoch. The files are read once, by [`open`](DiskBackend::open), which
/// decodes the committed accounts and holds them until a state is mounted
/// ([`for_each_account`](StateBackend::for_each_account)) or a commit makes
/// them stale.
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
    /// The accounts `open` recovered, until the mount takes them or a commit
    /// makes them stale.
    recovered: Option<Recovered>,
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
        let mut accounts = Recovered::new();
        let mut committed: Option<u64> = None;
        let mut last_snapshot_height = 0u64;
        let mut base_epoch = 0u64;
        let mut stats = StoreStats {
            backend: "disk-journal".to_string(),
            ..StoreStats::default()
        };
        for &epoch in snapshots.iter().rev() {
            if let Some((snapshot, height)) = load_snapshot(&config.dir, epoch)? {
                accounts = snapshot;
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
            let valid_len = replay_journal(
                &config.dir,
                epoch,
                &mut accounts,
                &mut committed,
                &mut stats,
            )?;
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
            recovered: Some(accounts),
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

    /// Writes `state` — every committed account, in ascending address order —
    /// as a snapshot at the committed height and starts a fresh journal epoch.
    /// [`commit_block`](StateBackend::commit_block) does this every
    /// [`DiskConfig::snapshot_every`] committed blocks, with the state its
    /// owner hands down.
    ///
    /// The steps run in an order that leaves the store recoverable to its
    /// committed height wherever one fails: the snapshot goes to a `.tmp` file,
    /// the next epoch's empty journal is created, and only then is the
    /// snapshot renamed into place and the backend switched to the new epoch.
    /// Until the rename, commits stay in the current epoch, which recovery
    /// replays; a next-epoch journal with no snapshot beside it is replayed
    /// after it, empty.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, or if `state` yields another number of
    /// accounts than its `len()`; nothing is published then, and the backend
    /// stays in its epoch.
    pub fn compact(
        &mut self,
        state: &mut dyn ExactSizeIterator<Item = (Address, StoredAccount)>,
    ) -> Result<CommitStats> {
        let new_epoch = self.epoch + 1;
        let height = self.scope.committed().unwrap_or(0);
        let accounts = state.len() as u64;
        let mut buf = Vec::new();
        append_frame(&mut buf, &JournalRecord::SnapshotBegin { height, accounts })?;
        let mut written = 0u64;
        for (address, account) in state {
            append_upsert(&mut buf, &address, &account)?;
            written += 1;
        }
        if written != accounts {
            return Err(Error::execution(format!(
                "store: the state to snapshot yielded {written} accounts, not its length {accounts}"
            )));
        }
        append_frame(&mut buf, &JournalRecord::SnapshotEnd { accounts })?;

        // Snapshot to a temp file, then the fresh journal, then the atomic
        // rename that publishes both.
        let final_path = file_path(&self.dir, FileKind::Snapshot, new_epoch);
        let tmp_path = final_path.with_extension("tmp");
        fs::write(&tmp_path, &buf).map_err(|e| io_err("write snapshot", e))?;
        let journal = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(file_path(&self.dir, FileKind::Journal, new_epoch))
            .map_err(|e| io_err("open fresh journal", e))?;
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err("publish snapshot", e))?;
        self.journal = journal;
        self.journal_len = 0;
        self.epoch = new_epoch;
        self.last_snapshot_height = height;
        self.stats.snapshots_written += 1;
        let records = accounts;
        let bytes = buf.len() as u64;
        self.stats.records_written += records;
        self.stats.bytes_written += bytes;

        // Keep one previous generation as the torn-snapshot fallback: the
        // newest earlier snapshot and every journal from its epoch on (an
        // epoch whose compaction stopped before its rename has a journal and
        // no snapshot). The new generation is published already, so a file
        // that fails to go is only disk.
        if let Ok((snapshots, journals)) = list_epochs(&self.dir) {
            let fallback = snapshots
                .iter()
                .rev()
                .copied()
                .find(|&e| e < new_epoch)
                .unwrap_or(0);
            for epoch in snapshots.into_iter().filter(|&e| e < fallback) {
                let _ = fs::remove_file(file_path(&self.dir, FileKind::Snapshot, epoch));
            }
            for epoch in journals.into_iter().filter(|&e| e < fallback) {
                let _ = fs::remove_file(file_path(&self.dir, FileKind::Journal, epoch));
            }
        }
        Ok(CommitStats {
            height,
            records,
            bytes,
        })
    }
}

/// Appends block `height`'s frames to `buf`, pulling the write set's records
/// one at a time in the order the iterator yields them, and returns how many
/// it framed.
fn encode_block(
    buf: &mut Vec<u8>,
    height: u64,
    records: &mut dyn ExactSizeIterator<Item = DeltaRecord>,
) -> Result<u64> {
    append_frame(buf, &JournalRecord::BlockBegin { height })?;
    let mut framed = 0u64;
    for record in records {
        match &record.account {
            Some(account) => append_upsert(buf, &record.address, account)?,
            None => append_frame(
                buf,
                &JournalRecord::Delete {
                    address: record.address,
                },
            )?,
        };
        framed += 1;
    }
    append_frame(
        buf,
        &JournalRecord::BlockCommit {
            height,
            records: framed,
        },
    )?;
    Ok(framed)
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
fn load_snapshot(dir: &Path, epoch: u64) -> Result<Option<(Recovered, u64)>> {
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
    let mut recovered = Recovered::new();
    for _ in 0..accounts {
        let Some(frame) = next_frame(&mut scanner, &path)? else {
            return Ok(None);
        };
        let JournalRecord::Upsert { address, account } = frame.record else {
            return Ok(None);
        };
        recovered.insert(address, (account, frame.len));
    }
    match next_frame(&mut scanner, &path)? {
        Some(frame)
            if frame.record == (JournalRecord::SnapshotEnd { accounts })
                && scanner.consumed as usize == bytes.len() =>
        {
            Ok(Some((recovered, height)))
        }
        _ => Ok(None),
    }
}

/// Replays one journal epoch into `accounts`, applying only fully committed blocks
/// ahead of the current height; returns the byte length of the valid committed
/// prefix (everything after it is a torn or uncommitted tail).
fn replay_journal(
    dir: &Path,
    epoch: u64,
    accounts: &mut Recovered,
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
    let mut pending: Vec<(Address, Option<(StoredAccount, u32)>)> = Vec::new();
    while let Some(frame) = next_frame(&mut scanner, &path)? {
        match frame.record {
            JournalRecord::BlockBegin { height } => {
                pending_height = Some(height);
                pending.clear();
            }
            JournalRecord::Upsert { address, account } if pending_height.is_some() => {
                pending.push((address, Some((account, frame.len))));
            }
            JournalRecord::Delete { address } if pending_height.is_some() => {
                pending.push((address, None));
            }
            JournalRecord::BlockCommit { height, records }
                if pending_height == Some(height) && records == pending.len() as u64 =>
            {
                if committed.map_or(true, |c| height > c) {
                    for (address, value) in pending.drain(..) {
                        match value {
                            Some(value) => accounts.insert(address, value),
                            None => accounts.remove(&address),
                        };
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
        state: &mut dyn ExactSizeIterator<Item = (Address, StoredAccount)>,
    ) -> Result<CommitStats> {
        self.scope.check_commit(height)?;

        // The block is framed, then appended and flushed, before anything moves:
        // a failed encoding or append leaves the store at the previous height.
        self.frame_buf.clear();
        let records = encode_block(&mut self.frame_buf, height, records)?;
        self.append_block()?;
        let bytes = self.frame_buf.len() as u64;
        self.journal_len += bytes;
        self.recovered = None;
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
            // The block is committed whatever the snapshot does. A failed one
            // is counted and leaves the snapshot due, so the next commit
            // retries; a compaction's records and bytes are charged to the
            // commit that triggers it.
            match self.compact(state) {
                Ok(compaction) => {
                    total_bytes += compaction.bytes;
                    total_records += compaction.records;
                }
                Err(_) => self.stats.snapshot_failures += 1,
            }
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

    /// Hands over the accounts `open` recovered, once: the backend keeps none
    /// of them after, so a second call, or a call after a commit, is an error.
    fn for_each_account(
        &mut self,
        f: &mut dyn FnMut(Address, StoredAccount) -> Result<()>,
    ) -> Result<()> {
        let Some(accounts) = self.recovered.take() else {
            return Err(Error::validation(
                "the disk backend keeps no accounts once they are mounted or a block is committed",
            ));
        };
        for (address, (account, len)) in accounts {
            self.stats.backend_reads += 1;
            self.stats.read_bytes += u64::from(len);
            f(address, account)?;
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
    use crate::backend::tests::{assert_block_scope_is_enforced, commit};

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
            code: None,
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
            let mut model = BTreeMap::new();
            for (height, block) in [(1, &[(1, 100), (2, 200)][..]), (2, &[(1, 150)][..])] {
                backend.begin_block(height).unwrap();
                commit(&mut backend, &mut model, height, records(block)).unwrap();
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
            let mut model = BTreeMap::new();
            for height in 1..=10u64 {
                backend.begin_block(height).unwrap();
                commit(
                    &mut backend,
                    &mut model,
                    height,
                    records(&[(height % 3, height * 10)]),
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

    /// Yields one account while its `len()` claims two.
    struct Short(Option<(Address, StoredAccount)>);

    impl Iterator for Short {
        type Item = (Address, StoredAccount);

        fn next(&mut self) -> Option<Self::Item> {
            self.0.take()
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            (2, Some(2))
        }
    }

    impl ExactSizeIterator for Short {}

    #[test]
    fn a_state_short_of_its_length_publishes_no_snapshot() {
        let dir = tempdir("short");
        let mut backend = DiskBackend::open(&DiskConfig::new(&dir)).unwrap();
        let mut short = Short(Some((Address::from_low(1), account(10))));
        assert!(backend.compact(&mut short).is_err());
        assert_eq!(backend.epoch(), 0);
        assert!(!file_path(&dir, FileKind::Snapshot, 1).exists());
        assert_eq!(backend.stats().snapshots_written, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    // A due snapshot that fails at any of its steps — writing the `.tmp`
    // file, opening the fresh journal, renaming the snapshot into place —
    // leaves the block committed and the store recoverable to it, and the
    // next due commit publishes once the obstacle is gone.
    #[test]
    fn a_failed_snapshot_keeps_the_commit_and_retries() {
        for blocked in [
            "snapshot-000001.tmp",
            "journal-000001.log",
            "snapshot-000001.log",
        ] {
            let dir = tempdir("failed-snapshot");
            let config = DiskConfig {
                snapshot_every: 2,
                ..DiskConfig::new(&dir)
            };
            let mut backend = DiskBackend::open(&config).unwrap();
            let mut model = BTreeMap::new();
            backend.begin_block(1).unwrap();
            commit(&mut backend, &mut model, 1, records(&[(1, 100), (2, 200)])).unwrap();

            // A directory on the step's path fails the snapshots due at 2 and 3.
            fs::create_dir_all(dir.join(blocked)).unwrap();
            for height in 2..=3u64 {
                backend.begin_block(height).unwrap();
                commit(&mut backend, &mut model, height, records(&[(1, height)])).unwrap();
                assert_eq!(backend.committed_block(), Some(height), "{blocked}");
            }
            let stats = backend.stats();
            assert_eq!(
                (stats.snapshot_failures, stats.snapshots_written),
                (2, 0),
                "{blocked}"
            );
            assert_eq!(backend.epoch(), 0, "{blocked}");

            fs::remove_dir(dir.join(blocked)).unwrap();
            let crashed = crash_copy(&dir, "failed-snapshot-crash");
            let mut recovered = DiskBackend::open(&DiskConfig::new(&crashed)).unwrap();
            assert_eq!(recovered.committed_block(), Some(3), "{blocked}");
            assert_eq!(
                balances(&mut recovered),
                [(Address::from_low(1), 3), (Address::from_low(2), 200)],
                "{blocked}"
            );
            let _ = fs::remove_dir_all(&crashed);

            // The next commit retries and publishes.
            backend.begin_block(4).unwrap();
            commit(&mut backend, &mut model, 4, records(&[(2, 4)])).unwrap();
            let stats = backend.stats();
            assert_eq!(
                (stats.snapshot_failures, stats.snapshots_written),
                (2, 1),
                "{blocked}"
            );
            assert_eq!(backend.last_snapshot_height(), 4, "{blocked}");
            drop(backend);
            let mut reopened = DiskBackend::open(&config).unwrap();
            assert_eq!(reopened.committed_block(), Some(4), "{blocked}");
            assert_eq!(reopened.stats().replayed_blocks, 0, "{blocked}");
            assert_eq!(
                balances(&mut reopened),
                [(Address::from_low(1), 3), (Address::from_low(2), 4)],
                "{blocked}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    // A compaction that stopped before its rename leaves a journal epoch with
    // no snapshot. The next compaction's clean-up must keep the journals
    // that epoch continues, so a torn newest snapshot still falls back to a
    // full replay.
    #[test]
    fn a_torn_snapshot_after_an_unpublished_one_falls_back_to_every_journal() {
        let dir = tempdir("unpublished");
        let config = DiskConfig {
            snapshot_every: 2,
            ..DiskConfig::new(&dir)
        };
        let mut model = BTreeMap::new();
        let mut backend = DiskBackend::open(&config).unwrap();
        backend.begin_block(1).unwrap();
        commit(&mut backend, &mut model, 1, records(&[(1, 100), (2, 200)])).unwrap();
        let blocked = file_path(&dir, FileKind::Snapshot, 1);
        fs::create_dir_all(&blocked).unwrap();
        backend.begin_block(2).unwrap();
        commit(&mut backend, &mut model, 2, records(&[(1, 2)])).unwrap();
        assert!(file_path(&dir, FileKind::Journal, 1).exists());
        drop(backend);
        fs::remove_dir(&blocked).unwrap();

        // Reopened, the store appends to the unpublished epoch's journal; the
        // commit at 3 snapshots into epoch 2, the one at 4 is journalled.
        let mut backend = DiskBackend::open(&config).unwrap();
        assert_eq!(backend.epoch(), 1);
        for height in 3..=4u64 {
            backend.begin_block(height).unwrap();
            commit(&mut backend, &mut model, height, records(&[(1, height)])).unwrap();
        }
        assert_eq!(backend.epoch(), 2);
        drop(backend);

        let snapshot = file_path(&dir, FileKind::Snapshot, 2);
        let len = fs::metadata(&snapshot).unwrap().len();
        let file = OpenOptions::new().write(true).open(&snapshot).unwrap();
        file.set_len(len / 2).unwrap();
        drop(file);
        let mut reopened = DiskBackend::open(&config).unwrap();
        assert_eq!(reopened.committed_block(), Some(4));
        assert_eq!(
            balances(&mut reopened),
            [(Address::from_low(1), 4), (Address::from_low(2), 200)]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn for_each_visits_in_address_order() {
        let dir = tempdir("order");
        let config = DiskConfig::new(&dir);
        let mut backend = DiskBackend::open(&config).unwrap();
        backend.begin_block(1).unwrap();
        commit(
            &mut backend,
            &mut BTreeMap::new(),
            1,
            records(&[(5, 50), (2, 20), (9, 90)]),
        )
        .unwrap();
        assert_eq!(backend.stats().backend_reads, 0, "commits read nothing");
        assert!(
            backend.for_each_account(&mut |_, _| Ok(())).is_err(),
            "a commit leaves no accounts to hand over"
        );
        drop(backend);

        let mut reopened = DiskBackend::open(&config).unwrap();
        assert_eq!(
            balances(&mut reopened),
            [(2, 20), (5, 50), (9, 90)].map(|(low, sats)| (Address::from_low(low), sats))
        );
        let stats = reopened.stats();
        assert_eq!(stats.backend_reads, 3);
        assert!(stats.read_bytes > 0);
        // The accounts are handed over once; the backend keeps none of them.
        assert!(reopened.for_each_account(&mut |_, _| Ok(())).is_err());
        assert_eq!(reopened.stats().backend_reads, 3);
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
        let mut model = BTreeMap::new();
        backend.begin_block(1).unwrap();
        commit(&mut backend, &mut model, 1, records(&[(1, 100)])).unwrap();
        let boundary = backend.journal_bytes();

        // A journal handle that cannot be written: the append of block 2 fails.
        backend.journal = File::open(&journal).unwrap();
        backend.begin_block(2).unwrap();
        assert!(commit(&mut backend, &mut model, 2, records(&[(1, 999)])).is_err());
        assert_eq!(backend.committed_block(), Some(1));
        assert_eq!(backend.journal_bytes(), boundary);
        assert_eq!(fs::metadata(&journal).unwrap().len(), boundary);
        drop(backend);

        let before = [(Address::from_low(1), 100)];
        let mut reopened = DiskBackend::open(&config).unwrap();
        assert_eq!(reopened.committed_block(), Some(1));
        assert_eq!(balances(&mut reopened), before);
        reopened.begin_block(2).unwrap();
        commit(&mut reopened, &mut model, 2, records(&[(1, 101)])).unwrap();
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
            commit(&mut backend, &mut BTreeMap::new(), 0, Vec::new()).unwrap();
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
            let mut model = BTreeMap::new();
            backend.begin_block(1).unwrap();
            commit(&mut backend, &mut model, 1, records(&[(1, 100)])).unwrap();
            boundary = backend.journal_bytes();
            backend.begin_block(2).unwrap();
            commit(&mut backend, &mut model, 2, records(&[(1, 999)])).unwrap();
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
        let mut model = BTreeMap::from([(Address::from_low(1), account(100))]);
        commit(&mut reopened, &mut model, 2, records(&[(1, 101)])).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
