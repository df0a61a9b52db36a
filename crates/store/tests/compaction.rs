//! Snapshot-compaction invariants:
//!
//! 1. compaction at arbitrary block boundaries never changes observable state
//!    (the committed height and every account a mount reads back); and
//! 2. replay cost after compaction is bounded by blocks-since-snapshot, asserted
//!    via the store's replay counters (`replayed_blocks` / `replayed_records`);
//! 3. compaction copies live frames verbatim: the snapshot is byte-for-byte what
//!    decoding and re-encoding every live record writes; and
//! 4. a live frame that fails its CRC fails compaction, which then publishes
//!    nothing.

use blockconc_store::journal::{append_frame, FrameScanner, JournalRecord, FRAME_HEADER_LEN};
use blockconc_store::{DeltaRecord, DiskBackend, DiskConfig, StateBackend, StoredAccount};
use blockconc_types::Address;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn store_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "blockconc-store-compact-{tag}-{}-{seq}",
        std::process::id()
    ))
}

fn delta_for(height: u64, mix: u64) -> Vec<DeltaRecord> {
    let mut records = Vec::new();
    for i in 0..(1 + (height.wrapping_add(mix) % 5)) {
        let addr = (height
            .wrapping_mul(11)
            .wrapping_add(i * 3)
            .wrapping_add(mix))
            % 10;
        let delete = height > 3 && (height + i) % 9 == 0;
        records.push(DeltaRecord {
            address: Address::from_low(addr),
            account: (!delete).then(|| StoredAccount {
                balance_sats: height * 100 + addr,
                nonce: height,
                storage: vec![(i, height)],
                code: None,
            }),
        });
    }
    records.sort_by_key(|r| r.address);
    records.dedup_by_key(|r| r.address);
    records
}

fn observed_state(backend: &mut DiskBackend) -> BTreeMap<Address, StoredAccount> {
    let mut observed = BTreeMap::new();
    backend
        .for_each_account(&mut |address, account| {
            observed.insert(address, account);
            Ok(())
        })
        .expect("every committed record reads back");
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Invariant 1: forcing compaction at an arbitrary boundary leaves every
    // observable — the committed height and every account a mount reads back,
    // in order — exactly as a never-compacted twin of the same history.
    #[test]
    fn compaction_at_arbitrary_boundaries_preserves_observable_state(
        blocks in 2u64..14,
        mix in 0u64..1_000,
        compact_marks in proptest::collection::vec(1u64..14, 0..4),
    ) {
        let plain_dir = store_dir("plain");
        let compacted_dir = store_dir("forced");
        let plain_config = DiskConfig { snapshot_every: 0, ..DiskConfig::new(plain_dir.clone()) };
        let compacted_config = DiskConfig { snapshot_every: 0, ..DiskConfig::new(compacted_dir.clone()) };
        let mut plain = DiskBackend::open(&plain_config).expect("open plain");
        let mut compacted = DiskBackend::open(&compacted_config).expect("open compacted");
        for height in 1..=blocks {
            let delta = delta_for(height, mix);
            plain.begin_block(height).expect("begin");
            plain.commit_block(height, &mut delta.clone().into_iter()).expect("commit");
            compacted.begin_block(height).expect("begin");
            compacted.commit_block(height, &mut delta.into_iter()).expect("commit");
            if compact_marks.contains(&height) {
                compacted.compact().expect("forced compaction");
                // Immediately observable: nothing changed.
                prop_assert_eq!(compacted.committed_block(), Some(height));
            }
        }
        prop_assert_eq!(plain.committed_block(), compacted.committed_block());
        prop_assert_eq!(observed_state(&mut compacted), observed_state(&mut plain));
        // Reopening both twins agrees too (compaction changes the file layout,
        // never the recovered state).
        drop(plain);
        drop(compacted);
        let mut plain = DiskBackend::open(&plain_config).expect("reopen plain");
        let mut compacted = DiskBackend::open(&compacted_config).expect("reopen compacted");
        prop_assert_eq!(observed_state(&mut compacted), observed_state(&mut plain));
        let _ = fs::remove_dir_all(&plain_dir);
        let _ = fs::remove_dir_all(&compacted_dir);
    }

    // Invariant 2: replay cost after compaction is bounded by blocks since the
    // last snapshot — visible in the replay counters a reopen reports.
    #[test]
    fn replay_cost_is_bounded_by_blocks_since_snapshot(
        blocks in 6u64..16,
        mix in 0u64..1_000,
        cadence in 2u64..6,
    ) {
        let dir = store_dir("bound");
        let config = DiskConfig { snapshot_every: cadence, ..DiskConfig::new(dir.clone()) };
        let last_snapshot_height;
        let mut records_after_snapshot = 0u64;
        {
            let mut backend = DiskBackend::open(&config).expect("open");
            for height in 1..=blocks {
                let delta = delta_for(height, mix);
                backend.begin_block(height).expect("begin");
                backend.commit_block(height, &mut delta.into_iter()).expect("commit");
            }
            last_snapshot_height = backend.last_snapshot_height();
            for height in last_snapshot_height + 1..=blocks {
                records_after_snapshot += delta_for(height, mix).len() as u64;
            }
            prop_assert!(backend.stats().snapshots_written >= 1);
        }

        let reopened = DiskBackend::open(&config).expect("reopen");
        let stats = reopened.stats();
        // Exactly the post-snapshot suffix is replayed…
        prop_assert_eq!(stats.replayed_blocks, blocks - last_snapshot_height);
        prop_assert!(stats.replayed_blocks < cadence,
            "replayed {} blocks at cadence {}", stats.replayed_blocks, cadence);
        // …and its records scale with that suffix, not the history: a block
        // writes at most five records.
        prop_assert_eq!(stats.replayed_records, records_after_snapshot);
        prop_assert!(
            stats.replayed_records <= stats.replayed_blocks * 5,
            "replayed {} records in {} blocks",
            stats.replayed_records, stats.replayed_blocks
        );

        // A never-compacted twin of the same history must replay the whole of it.
        let twin_dir = store_dir("twin");
        let twin_config = DiskConfig { snapshot_every: 0, ..DiskConfig::new(twin_dir.clone()) };
        {
            let mut twin = DiskBackend::open(&twin_config).expect("open twin");
            for height in 1..=blocks {
                twin.begin_block(height).expect("begin");
                twin.commit_block(height, &mut delta_for(height, mix).into_iter()).expect("commit");
            }
        }
        let twin = DiskBackend::open(&twin_config).expect("reopen twin");
        prop_assert_eq!(twin.stats().replayed_blocks, blocks);
        prop_assert!(twin.stats().replayed_blocks > stats.replayed_blocks);
        prop_assert!(twin.stats().replayed_records > stats.replayed_records);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&twin_dir);
    }

    // Invariant 3: the snapshot `compact()` writes equals, byte for byte, the
    // reference path — decode every live record, re-encode it with
    // `append_frame` — over live records drawn from an earlier snapshot and
    // from the journal, contract-code JSON with escapes included.
    #[test]
    fn compaction_writes_exactly_what_decoding_and_re_encoding_would(
        blocks in 2u64..14,
        mix in 0u64..1_000,
        first_compaction in 1u64..14,
    ) {
        let dir = store_dir("verbatim");
        let config = DiskConfig { snapshot_every: 0, ..DiskConfig::new(dir.clone()) };
        let mut backend = DiskBackend::open(&config).expect("open");
        for height in 1..=blocks {
            let mut delta = delta_for(height, mix);
            delta.push(DeltaRecord {
                address: Address::from_low(50 + height % 3),
                account: Some(StoredAccount {
                    balance_sats: height,
                    nonce: mix,
                    storage: vec![(height, mix + 1)],
                    code: Some(
                        format!("[\"Push\",{{\"n\":{height},\"s\":\"a\\\\b\\\"c\\n\"}}]")
                            .into_bytes()
                            .into(),
                    ),
                }),
            });
            backend.begin_block(height).expect("begin");
            backend.commit_block(height, &mut delta.into_iter()).expect("commit");
            if height == first_compaction {
                backend.compact().expect("earlier compaction");
            }
        }

        let live = observed_state(&mut backend);
        let accounts = live.len() as u64;
        let mut reference = Vec::new();
        append_frame(&mut reference, &JournalRecord::SnapshotBegin { height: blocks, accounts })
            .expect("encode");
        for (address, account) in live {
            append_frame(&mut reference, &JournalRecord::Upsert { address, account })
                .expect("encode");
        }
        append_frame(&mut reference, &JournalRecord::SnapshotEnd { accounts }).expect("encode");

        let stats = backend.compact().expect("compaction");
        let snapshot = dir.join(format!("snapshot-{:06}.log", backend.epoch()));
        let written = fs::read(&snapshot).expect("read snapshot");
        prop_assert_eq!(stats.bytes, reference.len() as u64);
        prop_assert!(written == reference, "snapshot differs from the re-encoded reference");
        let _ = fs::remove_dir_all(&dir);
    }
}

// Invariant 4: compaction checks every frame it copies. One flipped payload
// byte in a live journal frame makes `compact()` fail before anything is
// published, so the generation it started from is still the one that reopens.
#[test]
fn a_corrupt_live_frame_fails_compaction_and_keeps_the_previous_generation() {
    let dir = store_dir("corrupt");
    let config = DiskConfig {
        snapshot_every: 0,
        ..DiskConfig::new(dir.clone())
    };
    let mut backend = DiskBackend::open(&config).expect("open");
    for height in 1..=4 {
        backend.begin_block(height).expect("begin");
        backend
            .commit_block(height, &mut delta_for(height, 3).into_iter())
            .expect("commit");
    }
    backend.compact().expect("first compaction");
    let epoch = backend.epoch();
    // The only record for a fresh address: live by construction.
    let fresh = Address::from_low(77);
    backend.begin_block(5).expect("begin");
    backend
        .commit_block(
            5,
            &mut vec![DeltaRecord {
                address: fresh,
                account: Some(StoredAccount {
                    balance_sats: 5,
                    nonce: 0,
                    storage: vec![],
                    code: None,
                }),
            }]
            .into_iter(),
        )
        .expect("commit");

    let journal = dir.join(format!("journal-{epoch:06}.log"));
    let mut bytes = fs::read(&journal).expect("read journal");
    let frame = FrameScanner::new(&bytes)
        .map(|frame| frame.expect("every journal frame decodes"))
        .find(|frame| matches!(frame.record, JournalRecord::Upsert { address, .. } if address == fresh))
        .expect("the fresh account's frame");
    bytes[frame.offset as usize + FRAME_HEADER_LEN + 1] ^= 0x01;
    fs::write(&journal, &bytes).expect("corrupt journal");

    assert!(
        backend.compact().is_err(),
        "a corrupt live frame was copied"
    );
    assert_eq!(backend.epoch(), epoch);
    let next = |kind: &str| dir.join(format!("{kind}-{:06}.log", epoch + 1));
    assert!(!next("snapshot").exists() && !next("journal").exists());
    drop(backend);

    // The corrupt block is a torn tail to recovery; everything before it comes
    // back from the snapshot the failed compaction started from.
    let reopened = DiskBackend::open(&config).expect("reopen");
    assert_eq!(reopened.epoch(), epoch);
    assert_eq!(reopened.last_snapshot_height(), 4);
    assert_eq!(reopened.committed_block(), Some(4));
    let _ = fs::remove_dir_all(&dir);
}
