//! Backend-equivalence oracle: a state backend may change how state is *stored*,
//! never what the pipeline *computes*.
//!
//! Identical arrival streams are driven through both pipeline drivers once on the
//! in-memory backend and once on the journaled disk backend (tempdir-rooted, so the
//! suite stays hermetic), asserting:
//!
//! 1. bit-identical block records (after zeroing the wall-clock/commit-cost fields
//!    that legitimately differ — see `BlockRecord::normalized`), which covers the
//!    packed transactions, gas, fees, speed-ups and the per-block receipts digests;
//! 2. identical mempool statistics and leftovers;
//! 3. identical final state roots; and
//! 4. that reopening the disk store afterwards recovers exactly the state the run
//!    committed (recovery-by-replay lands on the final root).
//!
//! Working-set caps and snapshot cadences are proptest-chosen, so runs routinely
//! evict accounts mid-run and compact mid-history — neither may leak into observable
//! behaviour.

use blockconc::pipeline::{ConcurrencyAwarePacker, DiskConfig, StateBackendConfig};
use blockconc::prelude::*;
use blockconc::store::{DiskBackend, StateBackend};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique, throwaway store directory per proptest case.
fn store_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "blockconc-store-eq-{tag}-{}-{seq}",
        std::process::id()
    ))
}

fn hotspot_params() -> AccountWorkloadParams {
    AccountWorkloadParams {
        txs_per_block: 60.0,
        user_population: 3_000,
        fresh_receiver_share: 0.5,
        zipf_exponent: 0.5,
        hotspots: vec![HotspotSpec::exchange(0.45), HotspotSpec::contract(0.1, 2)],
        contract_create_share: 0.01,
    }
}

fn stream(seed: u64) -> ArrivalStream {
    ArrivalStream::new(hotspot_params(), 4.0, 400, seed)
}

fn config(backend: StateBackendConfig, shards: usize, producers: usize) -> PipelineConfig {
    PipelineConfig {
        threads: 4,
        max_blocks: 8,
        shards,
        producer_threads: producers,
        state_backend: backend,
        ..PipelineConfig::default()
    }
}

fn disk_backend(dir: &Path, working_set_cap: usize, snapshot_every: u64) -> StateBackendConfig {
    StateBackendConfig::Disk(DiskConfig {
        working_set_cap,
        snapshot_every,
        ..DiskConfig::new(dir)
    })
}

/// The oracle: everything except storage cost must be bit-identical — the unit
/// counters too, for the sharded pipeline as for the single pool (its ingest
/// admits in order, so no thread timing reaches `tdg_units`).
fn assert_equivalent(memory: &PipelineRunReport, disk: &PipelineRunReport) {
    assert_eq!(memory.total_txs, disk.total_txs, "packed totals diverged");
    assert_eq!(memory.total_failed, disk.total_failed);
    assert_eq!(memory.leftover_mempool, disk.leftover_mempool);
    assert_eq!(memory.mempool_stats, disk.mempool_stats);
    assert_eq!(memory.blocks.len(), disk.blocks.len());
    for (mem_block, disk_block) in memory.blocks.iter().zip(&disk.blocks) {
        assert_eq!(
            mem_block.normalized(),
            disk_block.normalized(),
            "block {} diverged between backends",
            mem_block.height
        );
        assert!(
            !mem_block.receipts_digest.is_empty(),
            "records must carry receipts digests"
        );
    }
    assert_eq!(
        memory.final_state_root, disk.final_state_root,
        "final state roots diverged"
    );
}

/// Reopening the store must recover exactly the state the run committed. Returns
/// how many journaled blocks the reopen replayed and how many distinct accounts
/// the store holds.
fn assert_recovers_to(dir: &Path, expected_root: &str) -> (u64, usize) {
    let backend = DiskBackend::open(&DiskConfig::new(dir)).expect("reopen store");
    let recovery = (backend.stats().replayed_blocks, backend.account_count());
    let mut recovered = WorldState::new();
    recovered
        .attach_backend(blockconc::store::shared(backend), None)
        .expect("attach recovered backend");
    assert_eq!(
        recovered.state_root().to_hex(),
        expected_root,
        "recovery did not land on the run's final state"
    );
    recovery
}

/// A history long enough to outgrow the resident set by an order of magnitude:
/// 48 blocks over a working-set cap of 256 accounts, compacting every 16 blocks.
/// The disk run computes what the memory run computes, touches at least ten times
/// the accounts it may keep resident, and reopens by replaying no more than one
/// snapshot interval.
#[test]
fn long_history_outgrows_the_working_set_and_recovers_within_a_snapshot_interval() {
    let params = AccountWorkloadParams {
        txs_per_block: 200.0,
        user_population: 8_000,
        fresh_receiver_share: 0.6,
        zipf_exponent: 0.4,
        hotspots: vec![
            HotspotSpec::exchange(0.30),
            HotspotSpec::contract(0.10, 3),
            HotspotSpec::pool(0.03),
        ],
        contract_create_share: 0.01,
    };
    let (working_set_cap, snapshot_every) = (256, 16);
    let run = |backend: StateBackendConfig| {
        let config = PipelineConfig {
            max_blocks: 48,
            ..config(backend, 1, 1)
        };
        PipelineDriver::new(
            ConcurrencyAwarePacker::new(4),
            SequentialEngine::new(),
            config,
        )
        .run(ArrivalStream::new(params.clone(), 4.0, 48 * 60 + 200, 2020))
        .expect("pipeline run")
    };
    let memory = run(StateBackendConfig::InMemory);
    let dir = store_dir("long");
    let disk = run(disk_backend(&dir, working_set_cap, snapshot_every));
    assert_equivalent(&memory, &disk);
    assert_eq!(memory.total_failed, 0);
    let (replayed_blocks, accounts) = assert_recovers_to(&dir, &disk.final_state_root);
    assert!(
        replayed_blocks <= snapshot_every,
        "reopen replayed {replayed_blocks} blocks at a snapshot cadence of {snapshot_every}"
    );
    assert!(
        accounts >= 10 * working_set_cap,
        "{accounts} distinct accounts over a {working_set_cap}-account resident cap"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    // Property 1: the single-pool pipeline is backend-oblivious for any working-set
    // cap and snapshot cadence, on both a sequential and a parallel engine — and the
    // journaled history recovers to the same final state when reopened.
    #[test]
    fn single_pipeline_is_backend_oblivious(
        seed in 1u64..500,
        cap_raw in 0usize..200,
        snapshot_raw in 0u64..12,
        engine_sel in 0u8..2,
    ) {
        // Raw draws map onto the interesting corners: caps below 16 mean
        // "unbounded", snapshot cadences below 2 mean "never compact".
        let working_set_cap = if cap_raw < 16 { 0 } else { cap_raw };
        let snapshot_every = if snapshot_raw < 2 { 0 } else { snapshot_raw };
        let parallel_engine = engine_sel == 1;
        let memory = if parallel_engine {
            PipelineDriver::new(
                ConcurrencyAwarePacker::new(4),
                ScheduledEngine::new(4),
                config(StateBackendConfig::InMemory, 1, 1),
            )
            .run(stream(seed))
        } else {
            PipelineDriver::new(
                ConcurrencyAwarePacker::new(4),
                SequentialEngine::new(),
                config(StateBackendConfig::InMemory, 1, 1),
            )
            .run(stream(seed))
        }
        .expect("memory run");

        let dir = store_dir("single");
        let disk_config = disk_backend(&dir, working_set_cap, snapshot_every);
        let disk = if parallel_engine {
            PipelineDriver::new(
                ConcurrencyAwarePacker::new(4),
                ScheduledEngine::new(4),
                config(disk_config, 1, 1),
            )
            .run(stream(seed))
        } else {
            PipelineDriver::new(
                ConcurrencyAwarePacker::new(4),
                SequentialEngine::new(),
                config(disk_config, 1, 1),
            )
            .run(stream(seed))
        }
        .expect("disk run");

        assert_equivalent(&memory, &disk);
        prop_assert!(disk.store.bytes_written > 0, "disk run must journal bytes");
        prop_assert!(disk.store.committed_blocks >= memory.blocks.len() as u64);
        let (replayed_blocks, _) = assert_recovers_to(&dir, &disk.final_state_root);
        prop_assert!(
            snapshot_every == 0 || replayed_blocks <= snapshot_every,
            "reopen replayed {} blocks at a snapshot cadence of {}",
            replayed_blocks,
            snapshot_every
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Property 2: the sharded pipeline (concurrent ingest, parallel per-shard
    // packing, rebalancing) is equally backend-oblivious.
    #[test]
    fn sharded_pipeline_is_backend_oblivious(
        seed in 1u64..500,
        shards in 2usize..5,
        producers in 1usize..4,
        cap_raw in 0usize..200,
    ) {
        let working_set_cap = if cap_raw < 16 { 0 } else { cap_raw };
        let memory = ShardedPipelineDriver::new(
            SequentialEngine::new(),
            config(StateBackendConfig::InMemory, shards, producers),
        )
        .run(stream(seed))
        .expect("memory run");

        let dir = store_dir("sharded");
        let disk = ShardedPipelineDriver::new(
            SequentialEngine::new(),
            config(disk_backend(&dir, working_set_cap, 4), shards, producers),
        )
        .run(stream(seed))
        .expect("disk run");

        assert_equivalent(&memory.run, &disk.run);
        assert_recovers_to(&dir, &disk.run.final_state_root);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Property 3: fee-escalation replacement pressure (the heaviest mempool churn
    // path) does not open a gap between the backends either.
    #[test]
    fn replacement_churn_is_backend_oblivious(
        seed in 1u64..500,
        working_set_cap in 16usize..100,
    ) {
        let escalating =
            |seed| stream(seed).with_fee_escalation(FeeEscalationSpec::standard(14.0));
        let memory = PipelineDriver::new(
            ConcurrencyAwarePacker::new(4),
            SequentialEngine::new(),
            config(StateBackendConfig::InMemory, 1, 1),
        )
        .run(escalating(seed))
        .expect("memory run");
        let dir = store_dir("churn");
        let disk = PipelineDriver::new(
            ConcurrencyAwarePacker::new(4),
            SequentialEngine::new(),
            config(disk_backend(&dir, working_set_cap, 3), 1, 1),
        )
        .run(escalating(seed))
        .expect("disk run");
        assert_equivalent(&memory, &disk);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
