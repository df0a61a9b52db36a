//! Snapshot-compaction invariants:
//!
//! 1. compaction at arbitrary block boundaries never changes observable state
//!    (the committed height and every account a mount reads back);
//! 2. replay cost after compaction is bounded by blocks-since-snapshot, asserted
//!    via the store's replay counters (`replayed_blocks` / `replayed_records`),
//!    and the reopened state is the state the commits handed down; and
//! 3. the snapshot is byte-for-byte the encoding of the state it is handed:
//!    `SnapshotBegin`, one `Upsert` per account in address order, `SnapshotEnd`.
//!
//! The tests drive the backend directly, so each keeps a model of the committed
//! state (a map with every write set applied) and hands it to each commit, as a
//! `WorldState` hands down its accounts.

use blockconc_store::journal::{append_frame, JournalRecord};
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

type Model = BTreeMap<Address, StoredAccount>;

/// Commits `delta` as block `height`, handing `backend` the model state with
/// the delta applied, and moves the model there.
fn commit(backend: &mut DiskBackend, model: &mut Model, height: u64, delta: Vec<DeltaRecord>) {
    for record in &delta {
        match &record.account {
            Some(account) => model.insert(record.address, account.clone()),
            None => model.remove(&record.address),
        };
    }
    backend.begin_block(height).expect("begin");
    backend
        .commit_block(
            height,
            &mut delta.into_iter(),
            &mut model.clone().into_iter(),
        )
        .expect("commit");
}

fn observed_state(backend: &mut DiskBackend) -> Model {
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
        let (mut plain_model, mut model) = (Model::new(), Model::new());
        for height in 1..=blocks {
            let delta = delta_for(height, mix);
            commit(&mut plain, &mut plain_model, height, delta.clone());
            commit(&mut compacted, &mut model, height, delta);
            if compact_marks.contains(&height) {
                compacted.compact(&mut model.clone().into_iter()).expect("forced compaction");
                // Immediately observable: nothing changed.
                prop_assert_eq!(compacted.committed_block(), Some(height));
            }
        }
        prop_assert_eq!(plain.committed_block(), compacted.committed_block());
        // Reopening both twins agrees (compaction changes the file layout,
        // never the recovered state), and both recover the committed state.
        drop(plain);
        drop(compacted);
        let mut plain = DiskBackend::open(&plain_config).expect("reopen plain");
        let mut compacted = DiskBackend::open(&compacted_config).expect("reopen compacted");
        prop_assert_eq!(plain.committed_block(), compacted.committed_block());
        let recovered = observed_state(&mut compacted);
        prop_assert_eq!(&recovered, &observed_state(&mut plain));
        prop_assert_eq!(recovered, model);
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
        let mut model = Model::new();
        {
            let mut backend = DiskBackend::open(&config).expect("open");
            for height in 1..=blocks {
                commit(&mut backend, &mut model, height, delta_for(height, mix));
            }
            last_snapshot_height = backend.last_snapshot_height();
            for height in last_snapshot_height + 1..=blocks {
                records_after_snapshot += delta_for(height, mix).len() as u64;
            }
            prop_assert!(backend.stats().snapshots_written >= 1);
        }

        let mut reopened = DiskBackend::open(&config).expect("reopen");
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
            let mut twin_model = Model::new();
            for height in 1..=blocks {
                commit(&mut twin, &mut twin_model, height, delta_for(height, mix));
            }
        }
        let mut twin = DiskBackend::open(&twin_config).expect("reopen twin");
        prop_assert_eq!(twin.stats().replayed_blocks, blocks);
        prop_assert!(twin.stats().replayed_blocks > stats.replayed_blocks);
        prop_assert!(twin.stats().replayed_records > stats.replayed_records);
        // Both reopen to the state the commits handed down.
        let recovered = observed_state(&mut reopened);
        prop_assert_eq!(&recovered, &observed_state(&mut twin));
        prop_assert_eq!(recovered, model);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&twin_dir);
    }

    // Invariant 3: the snapshot `compact()` writes equals, byte for byte, the
    // reference encoding of the model state it is handed — `SnapshotBegin`,
    // one `Upsert` per account in address order via `append_frame`,
    // `SnapshotEnd` — after an earlier snapshot and with contract code.
    #[test]
    fn compaction_writes_exactly_what_decoding_and_re_encoding_would(
        blocks in 2u64..14,
        mix in 0u64..1_000,
        first_compaction in 1u64..14,
    ) {
        let dir = store_dir("verbatim");
        let config = DiskConfig { snapshot_every: 0, ..DiskConfig::new(dir.clone()) };
        let mut backend = DiskBackend::open(&config).expect("open");
        let mut model = Model::new();
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
            commit(&mut backend, &mut model, height, delta);
            if height == first_compaction {
                backend.compact(&mut model.clone().into_iter()).expect("earlier compaction");
            }
        }

        let accounts = model.len() as u64;
        let mut reference = Vec::new();
        append_frame(&mut reference, &JournalRecord::SnapshotBegin { height: blocks, accounts })
            .expect("encode");
        for (address, account) in model.clone() {
            append_frame(&mut reference, &JournalRecord::Upsert { address, account })
                .expect("encode");
        }
        append_frame(&mut reference, &JournalRecord::SnapshotEnd { accounts }).expect("encode");

        let stats = backend.compact(&mut model.into_iter()).expect("compaction");
        let snapshot = dir.join(format!("snapshot-{:06}.log", backend.epoch()));
        let written = fs::read(&snapshot).expect("read snapshot");
        prop_assert_eq!(stats.bytes, reference.len() as u64);
        prop_assert!(written == reference, "snapshot differs from the re-encoded reference");
        let _ = fs::remove_dir_all(&dir);
    }
}
