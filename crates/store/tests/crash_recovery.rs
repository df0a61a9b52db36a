//! Crash-recovery property tests: kill the journal mid-write at proptest-chosen
//! byte offsets (torn tail records) or tear the newest snapshot, reopen, and assert
//! recovery lands exactly on the last committed block with the torn tail discarded.
//!
//! A whole frame whose CRC matches but whose payload does not decode is not a
//! torn tail: `open` fails on it, naming the file and offset, and leaves the
//! files as they were.
//!
//! All stores live under unique tempdirs and are removed afterwards, keeping the
//! suite hermetic.

use blockconc_store::journal::{crc32, FRAME_HEADER_LEN};
use blockconc_store::{DeltaRecord, DiskBackend, DiskConfig, StateBackend, StoredAccount};
use blockconc_types::Address;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn store_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "blockconc-store-crash-{tag}-{}-{seq}",
        std::process::id()
    ))
}

/// Deterministic per-height write set over a small address space (so heights
/// routinely overwrite and occasionally delete each other's accounts).
fn delta_for(height: u64, mix: u64) -> Vec<DeltaRecord> {
    let mut records = Vec::new();
    let touched = 1 + (height.wrapping_mul(7).wrapping_add(mix) % 4);
    for i in 0..touched {
        let addr = (height
            .wrapping_mul(13)
            .wrapping_add(i * 5)
            .wrapping_add(mix))
            % 8;
        let delete = height > 2 && (height + i + mix) % 11 == 0;
        records.push(DeltaRecord {
            address: Address::from_low(addr),
            account: (!delete).then(|| StoredAccount {
                balance_sats: height * 1_000 + addr,
                nonce: height,
                storage: vec![(i, height + i)],
                code: (addr == 0).then(|| format!("[\"block-{height}\"]").into_bytes().into()),
            }),
        });
    }
    records.sort_by_key(|r| r.address);
    records.dedup_by_key(|r| r.address);
    records
}

type ExpectedState = BTreeMap<Address, StoredAccount>;

fn apply_expected(expected: &mut ExpectedState, delta: &[DeltaRecord]) {
    for record in delta {
        match &record.account {
            Some(account) => {
                expected.insert(record.address, account.clone());
            }
            None => {
                expected.remove(&record.address);
            }
        }
    }
}

fn observed_state(backend: &mut DiskBackend) -> ExpectedState {
    let mut observed = BTreeMap::new();
    backend
        .for_each_account(&mut |address, account| {
            observed.insert(address, account);
            Ok(())
        })
        .expect("every committed record reads back");
    observed
}

/// Commits `blocks` deltas, handing each commit the expected full state after
/// it, as a `WorldState` hands down its accounts; returns, per height, that
/// state and the journal length (within the then-active epoch) right after
/// that commit.
fn run_store(
    dir: &Path,
    blocks: u64,
    mix: u64,
    snapshot_every: u64,
) -> (Vec<ExpectedState>, Vec<(u64, u64)>) {
    let config = DiskConfig {
        snapshot_every,
        ..DiskConfig::new(dir)
    };
    let mut backend = DiskBackend::open(&config).expect("open store");
    let mut expected = ExpectedState::new();
    let mut states = vec![expected.clone()]; // index 0 = empty pre-state
    let mut boundaries = Vec::new();
    for height in 1..=blocks {
        let delta = delta_for(height, mix);
        apply_expected(&mut expected, &delta);
        backend.begin_block(height).expect("begin");
        backend
            .commit_block(
                height,
                &mut delta.into_iter(),
                &mut expected.clone().into_iter(),
            )
            .expect("commit");
        states.push(expected.clone());
        boundaries.push((backend.epoch(), backend.journal_bytes()));
    }
    (states, boundaries)
}

fn newest_journal(dir: &Path) -> PathBuf {
    newest_file(dir, "journal-")
}

fn newest_snapshot(dir: &Path) -> PathBuf {
    newest_file(dir, "snapshot-")
}

fn newest_file(dir: &Path, prefix: &str) -> PathBuf {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("list dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with(prefix))
        .collect();
    names.sort();
    dir.join(names.last().expect("file present"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // A crash at ANY byte offset of the (single-epoch) journal recovers exactly to
    // the last block whose commit frame survived; everything after is discarded.
    #[test]
    fn torn_journal_tail_recovers_to_last_committed_block(
        blocks in 2u64..12,
        mix in 0u64..1_000,
        cut_permille in 0u32..1_001,
    ) {
        let dir = store_dir("tail");
        let (states, boundaries) = run_store(&dir, blocks, mix, 0);
        let full_len = boundaries.last().expect("blocks committed").1;
        let cut = (full_len * cut_permille as u64) / 1_000;
        let journal = newest_journal(&dir);
        OpenOptions::new()
            .write(true)
            .open(&journal)
            .expect("open journal")
            .set_len(cut)
            .expect("truncate");

        // The expected recovery height: the last block whose frames fit in `cut`.
        let expected_height = boundaries
            .iter()
            .enumerate()
            .filter(|(_, &(_, end))| end <= cut)
            .map(|(i, _)| i as u64 + 1)
            .next_back()
            .unwrap_or(0);

        let mut reopened = DiskBackend::open(&DiskConfig {
            snapshot_every: 0,
            ..DiskConfig::new(dir.clone())
        })
        .expect("reopen");
        prop_assert_eq!(reopened.committed_block().unwrap_or(0), expected_height);
        prop_assert_eq!(
            observed_state(&mut reopened),
            states[expected_height as usize].clone()
        );
        // The torn tail was truncated: the journal ends on the recovered boundary.
        let surviving = boundaries
            .get(expected_height.wrapping_sub(1) as usize)
            .map(|&(_, end)| end)
            .unwrap_or(0);
        prop_assert_eq!(reopened.journal_bytes(), surviving);
        let _ = fs::remove_dir_all(&dir);
    }

    // Tearing the newest snapshot mid-file must not lose anything: recovery falls
    // back to the previous generation's snapshot and replays the retained journals
    // to the exact last committed block.
    #[test]
    fn torn_snapshot_falls_back_a_generation(
        blocks in 9u64..16,
        mix in 0u64..1_000,
        cadence in 3u64..5,
        cut_permille in 0u32..1_000,
    ) {
        let dir = store_dir("snap");
        let (states, _) = run_store(&dir, blocks, mix, cadence);
        let snapshot = newest_snapshot(&dir);
        let full = fs::metadata(&snapshot).expect("snapshot meta").len();
        let cut = (full * cut_permille as u64) / 1_000;
        OpenOptions::new()
            .write(true)
            .open(&snapshot)
            .expect("open snapshot")
            .set_len(cut)
            .expect("truncate snapshot");

        let mut reopened = DiskBackend::open(&DiskConfig {
            snapshot_every: cadence,
            ..DiskConfig::new(dir.clone())
        })
        .expect("reopen");
        prop_assert_eq!(reopened.committed_block(), Some(blocks));
        prop_assert_eq!(observed_state(&mut reopened), states[blocks as usize].clone());
        let _ = fs::remove_dir_all(&dir);
    }

    // Crashes in the *current* epoch of a compacting store still land on the last
    // committed block: the snapshot covers everything up to its height, the torn
    // journal tail only costs the unsealed suffix.
    #[test]
    fn torn_tail_after_compaction_recovers_from_snapshot_plus_prefix(
        blocks in 6u64..14,
        mix in 0u64..1_000,
        cadence in 3u64..6,
        cut_permille in 0u32..1_001,
    ) {
        let dir = store_dir("mixed");
        let (states, boundaries) = run_store(&dir, blocks, mix, cadence);
        let last_epoch = boundaries.last().expect("blocks").0;
        let final_len = boundaries.last().expect("blocks").1;
        let cut = (final_len * cut_permille as u64) / 1_000;
        let journal = newest_journal(&dir);
        OpenOptions::new()
            .write(true)
            .open(&journal)
            .expect("open journal")
            .set_len(cut)
            .expect("truncate");

        // Heights sealed inside the final epoch below the cut survive; with none,
        // recovery lands on the snapshot height that opened the epoch.
        let expected_height = boundaries
            .iter()
            .enumerate()
            .filter(|(_, &(epoch, end))| epoch == last_epoch && end > 0 && end <= cut)
            .map(|(i, _)| i as u64 + 1)
            .next_back()
            .unwrap_or_else(|| {
                // No sealed frame survived in the final epoch: recovery lands on
                // the snapshot that opened it. That snapshot's height is the
                // block whose commit triggered the compaction — recorded with the
                // new epoch and a reset (zero) journal length.
                boundaries
                    .iter()
                    .enumerate()
                    .filter(|(_, &(epoch, end))| epoch == last_epoch && end == 0)
                    .map(|(i, _)| i as u64 + 1)
                    .next_back()
                    .unwrap_or(0)
            });

        let mut reopened = DiskBackend::open(&DiskConfig {
            snapshot_every: cadence,
            ..DiskConfig::new(dir.clone())
        })
        .expect("reopen");
        prop_assert_eq!(reopened.committed_block().unwrap_or(0), expected_height);
        prop_assert_eq!(
            observed_state(&mut reopened),
            states[expected_height as usize].clone()
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// One whole frame around `payload`, with a matching CRC.
fn crc_valid_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

// A CRC-valid frame that does not decode, appended to the journal after two
// sealed blocks, fails `open` instead of being truncated away as a torn tail;
// among the payloads is a record from the JSON-era format.
#[test]
fn a_crc_valid_journal_frame_that_does_not_decode_fails_open_and_leaves_the_file() {
    let payloads: [&[u8]; 3] = [br#"{"BlockBegin":{"height":3}}"#, &[0xee], &[1, 0, 0]];
    for (case, payload) in payloads.into_iter().enumerate() {
        let dir = store_dir(&format!("undecodable-journal-{case}"));
        let (_, boundaries) = run_store(&dir, 2, 5, 0);
        let journal = dir.join("journal-000000.log");
        let sealed = boundaries.last().expect("blocks committed").1;
        let mut bytes = fs::read(&journal).expect("read journal");
        assert_eq!(bytes.len() as u64, sealed);
        bytes.extend_from_slice(&crc_valid_frame(payload));
        fs::write(&journal, &bytes).expect("write journal");

        let err = DiskBackend::open(&DiskConfig {
            snapshot_every: 0,
            ..DiskConfig::new(dir.clone())
        })
        .expect_err("an undecodable frame must fail open")
        .to_string();
        assert!(
            err.contains("journal-000000.log") && err.contains(&format!("offset {sealed}")),
            "{err}"
        );
        assert_eq!(fs::read(&journal).expect("reread journal"), bytes);
        let _ = fs::remove_dir_all(&dir);
    }
}

// The same inside the newest snapshot: an account frame re-tagged with an
// unknown tag (CRC recomputed) fails `open` instead of falling back a
// generation, and no file is touched.
#[test]
fn a_crc_valid_snapshot_frame_that_does_not_decode_fails_open() {
    let dir = store_dir("undecodable-snapshot");
    let cadence = 3;
    run_store(&dir, 7, 11, cadence);
    let snapshot = newest_snapshot(&dir);
    let mut bytes = fs::read(&snapshot).expect("read snapshot");
    // The first account frame follows the SnapshotBegin frame.
    let begin_len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let at = FRAME_HEADER_LEN + begin_len;
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
    let payload = at + FRAME_HEADER_LEN..at + FRAME_HEADER_LEN + len;
    bytes[payload.start] = 0xee;
    let crc = crc32(&bytes[payload]);
    bytes[at + 4..at + FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    fs::write(&snapshot, &bytes).expect("write snapshot");
    let files = || {
        let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(&dir)
            .expect("list dir")
            .map(|e| {
                let path = e.expect("entry").path();
                let bytes = fs::read(&path).expect("read file");
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    };
    let before = files();

    let err = DiskBackend::open(&DiskConfig {
        snapshot_every: cadence,
        ..DiskConfig::new(dir.clone())
    })
    .expect_err("an undecodable snapshot frame must fail open")
    .to_string();
    let name = snapshot.file_name().expect("file name").to_string_lossy();
    assert!(
        err.contains(name.as_ref()) && err.contains(&format!("offset {at}")),
        "{err}"
    );
    assert!(files() == before, "open changed the store's files");
    let _ = fs::remove_dir_all(&dir);
}
