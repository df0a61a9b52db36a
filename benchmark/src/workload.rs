//! The seven workloads: their arrivals, their layout, and the inputs a run is
//! set up with.
//!
//! Every constant here is frozen: a change to one is a change to the benchmark
//! and re-measures the baseline (see `README.md`, "Calibrated constants").

use crate::host;
use blockconc::account::{AccountBlock, ExecutedBlock, WorldState};
use blockconc::chainsim::{
    AccountWorkloadParams, ArrivalStream, FeeEscalationSpec, HotspotSpec, TxArrival,
};
use blockconc::execution::{
    ExecutionEngine, ExecutionReport, OptimisticEngine, ScheduledEngine, SequentialEngine,
    SpeculativeEngine,
};
use blockconc::pipeline::{
    BlockPacker, BlockTemplate, ConcurrencyAwarePacker, FeeGreedyPacker, IncrementalTdg, Mempool,
    PackedBlock, PipelineConfig,
};
use blockconc::store::{DiskConfig, StateBackendConfig};
use blockconc::telemetry::TelemetryRegistry;
use blockconc::types::{Address, Amount, Gas};
use std::collections::HashSet;
use std::path::Path;

/// Simulated seconds between blocks (the arrival clock is simulated: nothing is
/// paced, a run does the work as fast as it can).
pub const BLOCK_INTERVAL_SECS: f64 = 14.0;

/// The run drains: `max_blocks` is this many times the nominal block count, so
/// every offered transaction ends committed or refused.
pub const DRAIN_FACTOR: usize = 6;

/// Share of the arrivals the warm-up run pushes through the same driver layout.
pub const WARMUP_DIVISOR: usize = 20;

/// Blocks the engine ladder executes on every engine.
pub const LADDER_BLOCKS: usize = 20;

/// Which driver produces the blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `PipelineDriver`: one pool, one graph, one engine.
    Pipeline,
    /// `ShardedPipelineDriver`: component-sharded pool, parallel packers.
    Shardpool,
    /// `ClusterDriver`: one full node per shard over partitioned state.
    Cluster,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackerKind {
    FeeGreedy,
    ConcurrencyAware,
}

/// The engines of the ladder, in ladder order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Sequential,
    Scheduled,
    Speculative,
    Optimistic,
    OptimisticDelta,
}

impl EngineKind {
    pub const LADDER: [EngineKind; 5] = [
        EngineKind::Sequential,
        EngineKind::Scheduled,
        EngineKind::Speculative,
        EngineKind::Optimistic,
        EngineKind::OptimisticDelta,
    ];

    /// The engine's name in metric names (the engines' own `name()`).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Sequential => "sequential",
            EngineKind::Scheduled => "scheduled",
            EngineKind::Speculative => "speculative",
            EngineKind::Optimistic => "optimistic",
            EngineKind::OptimisticDelta => "optimistic-delta",
        }
    }

    /// The engine's rung of the ladder, as a per-layer metric.
    pub fn ladder_metric(self) -> &'static str {
        match self {
            EngineKind::Sequential => "execution.ladder.sequential.ns_per_tx",
            EngineKind::Scheduled => "execution.ladder.scheduled.ns_per_tx",
            EngineKind::Speculative => "execution.ladder.speculative.ns_per_tx",
            EngineKind::Optimistic => "execution.ladder.optimistic.ns_per_tx",
            EngineKind::OptimisticDelta => "execution.ladder.optimistic-delta.ns_per_tx",
        }
    }

    /// Builds the engine (parallel engines spawn their thread pool here).
    pub fn build(self, threads: usize) -> Engine {
        match self {
            EngineKind::Sequential => Engine::Sequential(SequentialEngine::new()),
            EngineKind::Scheduled => Engine::Scheduled(ScheduledEngine::new(threads)),
            EngineKind::Speculative => Engine::Speculative(SpeculativeEngine::new(threads)),
            EngineKind::Optimistic => Engine::Optimistic(OptimisticEngine::new(threads)),
            EngineKind::OptimisticDelta => {
                Engine::Optimistic(OptimisticEngine::new(threads).with_delta_cells())
            }
        }
    }
}

/// One of the four engines behind one type, so a workload picks its engine at
/// run time while the drivers stay generic.
#[derive(Debug)]
pub enum Engine {
    Sequential(SequentialEngine),
    Scheduled(ScheduledEngine),
    Speculative(SpeculativeEngine),
    Optimistic(OptimisticEngine),
}

impl ExecutionEngine for Engine {
    fn name(&self) -> &'static str {
        match self {
            Engine::Sequential(e) => e.name(),
            Engine::Scheduled(e) => e.name(),
            Engine::Speculative(e) => e.name(),
            Engine::Optimistic(e) => e.name(),
        }
    }

    fn commutes_deltas(&self) -> bool {
        match self {
            Engine::Sequential(e) => e.commutes_deltas(),
            Engine::Scheduled(e) => e.commutes_deltas(),
            Engine::Speculative(e) => e.commutes_deltas(),
            Engine::Optimistic(e) => e.commutes_deltas(),
        }
    }

    fn execute(
        &mut self,
        state: &mut WorldState,
        block: &AccountBlock,
    ) -> blockconc::types::Result<(ExecutedBlock, ExecutionReport)> {
        match self {
            Engine::Sequential(e) => e.execute(state, block),
            Engine::Scheduled(e) => e.execute(state, block),
            Engine::Speculative(e) => e.execute(state, block),
            Engine::Optimistic(e) => e.execute(state, block),
        }
    }
}

/// Either packer behind one type.
#[derive(Debug)]
pub enum Packer {
    FeeGreedy(FeeGreedyPacker),
    ConcurrencyAware(ConcurrencyAwarePacker),
}

impl BlockPacker for Packer {
    fn name(&self) -> &'static str {
        match self {
            Packer::FeeGreedy(p) => p.name(),
            Packer::ConcurrencyAware(p) => p.name(),
        }
    }

    fn configure(&mut self, config: &PipelineConfig) {
        match self {
            Packer::FeeGreedy(p) => p.configure(config),
            Packer::ConcurrencyAware(p) => p.configure(config),
        }
    }

    fn pack(
        &mut self,
        pool: &Mempool,
        tdg: &mut IncrementalTdg,
        state: &WorldState,
        template: &BlockTemplate,
    ) -> PackedBlock {
        match self {
            Packer::FeeGreedy(p) => p.pack(pool, tdg, state, template),
            Packer::ConcurrencyAware(p) => p.pack(pool, tdg, state, template),
        }
    }
}

/// One workload: a seeded arrival stream and the layout it runs through.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layer the workload shows and which it must not move.
    pub why: &'static str,
    profile: fn() -> AccountWorkloadParams,
    /// Emissions of the arrival stream (rebids included).
    pub arrivals: usize,
    /// Block capacity in transactions of the profile's mean gas.
    pub txs_per_block: usize,
    /// Mean estimated gas per transaction of the profile.
    mean_gas: u64,
    /// Mean arrival rate as a multiple of block capacity.
    load: f64,
    /// Whether lingering transactions are re-bid with escalating fees.
    escalate: bool,
    pub layout: Layout,
    pub packer: PackerKind,
    pub engine: EngineKind,
    /// Mount the journaled disk store instead of the in-memory backend.
    pub disk: bool,
}

/// Plain transfers to fresh receivers from a large uniform population.
fn transfers() -> AccountWorkloadParams {
    AccountWorkloadParams {
        txs_per_block: 200.0, // unused by the stream; block size is arrival-driven
        user_population: 200_000,
        fresh_receiver_share: 1.0,
        zipf_exponent: 0.0,
        hotspots: Vec::new(),
        contract_create_share: 0.0,
    }
}

/// The `fig_pipeline` hot-spot mix: an exchange, a depth-3 contract, a mining
/// pool, Zipf senders.
fn hotspot() -> AccountWorkloadParams {
    AccountWorkloadParams {
        txs_per_block: 200.0,
        user_population: 20_000,
        fresh_receiver_share: 0.5,
        zipf_exponent: 0.4,
        hotspots: vec![
            HotspotSpec::exchange(0.40),
            HotspotSpec::contract(0.12, 3),
            HotspotSpec::pool(0.03),
        ],
        contract_create_share: 0.01,
    }
}

const TRANSFER_GAS: u64 = 21_000;
/// 0.87 transfers, 0.12 calls at 60 000, 0.01 creations at 80 000.
const HOTSPOT_GAS: u64 = 26_270;
/// 0.95 calls at 60 000, 0.05 transfers.
const CONTRACT_GAS: u64 = 58_050;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "transfers_seq",
        why: "single-threaded baseline: pool+graph ingest/settle dominate, execute is a small share; engine work must not move tx_per_s here",
        profile: transfers,
        arrivals: 40_000,
        txs_per_block: 1_000,
        mean_gas: TRANSFER_GAS,
        load: 1.0,
        escalate: false,
        layout: Layout::Pipeline,
        packer: PackerKind::FeeGreedy,
        engine: EngineKind::Sequential,
        disk: false,
    },
    Workload {
        name: "transfers_par",
        why: "same arrivals on conflict-free Block-STM: tx_per_s over transfers_seq is the paper's speed-up by the clock; MVCC data-path work shows here",
        profile: transfers,
        arrivals: 40_000,
        txs_per_block: 1_000,
        mean_gas: TRANSFER_GAS,
        load: 1.0,
        escalate: false,
        layout: Layout::Pipeline,
        packer: PackerKind::FeeGreedy,
        engine: EngineKind::Optimistic,
        disk: false,
    },
    Workload {
        name: "hotspot_par",
        why: "Ethereum-like hot spots with fee escalation and a standing backlog: nonce chains, replacements, weak edges, the cap, aborts and delta merges",
        profile: hotspot,
        arrivals: 40_000,
        txs_per_block: 1_000,
        mean_gas: HOTSPOT_GAS,
        load: 1.25,
        escalate: true,
        layout: Layout::Pipeline,
        packer: PackerKind::ConcurrencyAware,
        engine: EngineKind::OptimisticDelta,
        disk: false,
    },
    Workload {
        name: "contract_slots",
        why: "one shared contract, disjoint slots: execute is nearly all of the wall and per-tx cost grows with the contract's slot count",
        profile: AccountWorkloadParams::shared_contract_disjoint_slots,
        arrivals: 4_000,
        txs_per_block: 125,
        mean_gas: CONTRACT_GAS,
        load: 1.0,
        escalate: false,
        layout: Layout::Pipeline,
        packer: PackerKind::FeeGreedy,
        engine: EngineKind::Optimistic,
        disk: false,
    },
    Workload {
        name: "disk_commit",
        why: "journaled disk store under small blocks: store is most of the wall and grows with history; on memory workloads store must not move",
        profile: transfers,
        arrivals: 20_000,
        txs_per_block: 125,
        mean_gas: TRANSFER_GAS,
        load: 1.0,
        escalate: false,
        layout: Layout::Pipeline,
        packer: PackerKind::FeeGreedy,
        engine: EngineKind::Sequential,
        disk: true,
    },
    Workload {
        name: "shardpool_hot",
        why: "guards the sharded-pool layout on hot-spot arrivals: router, per-shard packers, merge, rebalance",
        profile: hotspot,
        arrivals: 12_000,
        txs_per_block: 500,
        mean_gas: HOTSPOT_GAS,
        load: 1.25,
        escalate: true,
        layout: Layout::Shardpool,
        packer: PackerKind::ConcurrencyAware,
        engine: EngineKind::Sequential,
        disk: false,
    },
    Workload {
        name: "cluster_xshard",
        why: "guards the cluster layout on cross-shard-heavy arrivals: routing, debit/credit receipts, re-homing, merge",
        profile: AccountWorkloadParams::cross_shard_heavy,
        arrivals: 50_000,
        txs_per_block: 1_000,
        mean_gas: TRANSFER_GAS,
        load: 1.0,
        escalate: false,
        layout: Layout::Cluster,
        packer: PackerKind::ConcurrencyAware,
        engine: EngineKind::Sequential,
        disk: false,
    },
];

/// Shards of the two multi-pool layouts (a property of the workload, not of
/// the host).
pub const SHARDS: usize = 2;

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn tx_rate(&self) -> f64 {
        self.load * self.txs_per_block as f64 / BLOCK_INTERVAL_SECS
    }

    pub fn block_gas_limit(&self) -> Gas {
        Gas::new(self.mean_gas * self.txs_per_block as u64)
    }

    /// Blocks the arrivals fill at nominal capacity.
    pub fn nominal_blocks(&self, arrivals: usize) -> usize {
        arrivals.div_ceil(self.txs_per_block).max(1)
    }

    /// A fresh lazy stream of the first `total` emissions for `seed`.
    pub fn stream(&self, seed: u64, total: usize) -> ArrivalStream {
        let stream = ArrivalStream::new((self.profile)(), self.tx_rate(), total, seed);
        if self.escalate {
            stream.with_fee_escalation(FeeEscalationSpec::standard(BLOCK_INTERVAL_SECS))
        } else {
            stream
        }
    }

    pub fn build_engine(&self) -> Engine {
        self.engine.build(host::threads())
    }

    pub fn build_packer(&self) -> Packer {
        match self.packer {
            PackerKind::FeeGreedy => Packer::FeeGreedy(FeeGreedyPacker::new()),
            PackerKind::ConcurrencyAware => {
                Packer::ConcurrencyAware(ConcurrencyAwarePacker::new(host::threads()))
            }
        }
    }

    /// The state backend a run mounts: the disk journal rooted at `store_dir`
    /// with the default flush policy (per-block journal flush, no fsync), or the
    /// in-memory backend.
    pub fn backend(&self, store_dir: &Path) -> StateBackendConfig {
        if self.disk {
            StateBackendConfig::Disk(DiskConfig::new(store_dir))
        } else {
            StateBackendConfig::InMemory
        }
    }

    /// The driver configuration for a run over `arrivals` emissions.
    pub fn config(
        &self,
        arrivals: usize,
        store_dir: &Path,
        telemetry: TelemetryRegistry,
    ) -> PipelineConfig {
        PipelineConfig {
            threads: host::threads(),
            block_gas_limit: self.block_gas_limit(),
            block_interval_secs: BLOCK_INTERVAL_SECS,
            max_blocks: DRAIN_FACTOR * self.nominal_blocks(arrivals),
            shards: SHARDS,
            producer_threads: host::threads(),
            state_backend: self.backend(store_dir),
            telemetry,
            ..PipelineConfig::default()
        }
    }
}

/// What set-up materialises for a run.
#[derive(Debug)]
pub struct Inputs {
    pub arrivals: Vec<TxArrival>,
    /// The stream's base state: hot-spot contracts deployed, no user activity.
    pub base: WorldState,
    /// Distinct senders in first-seen order; each is funded on first sight.
    pub senders: Vec<Address>,
    /// Arrivals that are not re-bids of an earlier emission.
    pub fresh: usize,
}

impl Inputs {
    /// Materialises the seeded stream.
    pub fn generate(workload: &Workload, seed: u64) -> Inputs {
        let stream = workload.stream(seed, workload.arrivals);
        let base = stream.base_state().clone();
        let arrivals: Vec<TxArrival> = stream.collect();
        let mut seen = HashSet::new();
        let senders = arrivals
            .iter()
            .map(|a| a.tx.sender())
            .filter(|sender| seen.insert(*sender))
            .collect();
        let fresh = arrivals.iter().filter(|a| !a.is_rebid).count();
        Inputs {
            arrivals,
            base,
            senders,
            fresh,
        }
    }

    /// The base state with every sender funded up front, as the drivers fund
    /// them on first sight: the state a validator replays the blocks against.
    pub fn prefunded_state(&self) -> WorldState {
        let mut state = self.base.clone();
        for sender in &self.senders {
            state.credit(*sender, funding());
        }
        state
    }

    /// Balance the run adds to the base supply.
    pub fn funding_sats(&self) -> u64 {
        self.senders.len() as u64 * funding().sats()
    }
}

/// The block template the drivers hand their packer at `height`: the same
/// timestamp rule and beneficiary (a header field only — fees are never
/// credited).
pub fn block_template(height: u64, gas_limit: Gas) -> BlockTemplate {
    BlockTemplate {
        height,
        timestamp: 1_600_000_000 + (height as f64 * BLOCK_INTERVAL_SECS) as u64,
        beneficiary: Address::from_low(999_999_998),
        gas_limit,
    }
}

pub fn funding() -> Amount {
    Amount::from_coins(ArrivalStream::SENDER_FUNDING_COINS)
}
