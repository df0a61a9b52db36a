//! Workload generator for account-model chains.

use crate::hotspot::{HotspotKind, HotspotSpec};
use crate::UserPopulation;
use blockconc_account::vm::Contract;
use blockconc_account::{
    AccountBlock, AccountTransaction, BlockBuilder, BlockExecutor, ExecutedBlock, StateAccess,
    WorldState,
};
use blockconc_types::{Address, Amount, DeterministicRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Parameters of an account-model workload for one era of a chain's history.
///
/// The hot-spot shares are the main calibration knob: the *sum* of shares drives the
/// single-transaction conflict rate (how many transactions touch a shared address at
/// all), while the *largest* individual share drives the group conflict rate (how big
/// the largest connected component gets) — mirroring the paper's explanation of why
/// the two metrics diverge so strongly on Ethereum.
#[derive(Debug, Clone, PartialEq)]
pub struct AccountWorkloadParams {
    /// Mean number of regular transactions per block.
    pub txs_per_block: f64,
    /// Number of recurring users.
    pub user_population: usize,
    /// Probability that a plain transfer pays a brand-new address.
    pub fresh_receiver_share: f64,
    /// Zipf exponent of sender activity (higher = a few users send most transactions).
    pub zipf_exponent: f64,
    /// Hot spots (exchanges, pools, popular contracts) and their traffic shares.
    pub hotspots: Vec<HotspotSpec>,
    /// Share of transactions that are contract creations (gas heavy, unconflicted).
    pub contract_create_share: f64,
}

impl AccountWorkloadParams {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if rates are out of range or the shares (hot spots plus creations)
    /// exceed 1.
    pub fn validate(&self) {
        assert!(self.txs_per_block > 0.0, "txs_per_block must be positive");
        assert!(self.user_population > 0, "population must not be empty");
        assert!(
            (0.0..=1.0).contains(&self.fresh_receiver_share),
            "fresh receiver share out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.contract_create_share),
            "contract creation share out of range"
        );
        HotspotSpec::validate(&self.hotspots);
        let total: f64 =
            self.hotspots.iter().map(|h| h.share).sum::<f64>() + self.contract_create_share;
        assert!(total <= 1.0 + 1e-9, "shares sum to {total} > 1");
    }

    /// A *cross-shard-light* arrival profile for the cluster benchmarks: traffic
    /// is dominated by payments to fresh receivers — accounts the recipient side
    /// creates on the sender's own node shard — so almost nothing needs the
    /// cross-shard credit protocol. Several small, distinct hot spots keep the
    /// packing conflict-bound without fusing the backlog into one component.
    pub fn cross_shard_light() -> Self {
        AccountWorkloadParams {
            txs_per_block: 200.0,
            user_population: 30_000,
            fresh_receiver_share: 0.85,
            zipf_exponent: 0.15,
            hotspots: vec![
                HotspotSpec::exchange(0.03),
                HotspotSpec::exchange(0.02),
                HotspotSpec::contract(0.03, 2),
                HotspotSpec::contract(0.02, 2),
            ],
            contract_create_share: 0.01,
        }
    }

    /// A *cross-shard-heavy* arrival profile for the cluster benchmarks: most
    /// transfers pay previously seen accounts (low fresh-receiver share) and a
    /// large slice of traffic deposits into a handful of popular exchange wallets
    /// — receivers that are owned by whichever node shard first saw them, so
    /// deposits arriving on every other shard each need a receipt-carrying
    /// cross-shard credit. This is the regime that stresses the debit/credit
    /// protocol and its latency accounting.
    pub fn cross_shard_heavy() -> Self {
        AccountWorkloadParams {
            txs_per_block: 200.0,
            user_population: 30_000,
            fresh_receiver_share: 0.15,
            zipf_exponent: 0.15,
            hotspots: vec![
                HotspotSpec::exchange(0.12),
                HotspotSpec::exchange(0.10),
                HotspotSpec::exchange(0.08),
                HotspotSpec::exchange(0.06),
            ],
            contract_create_share: 0.0,
        }
    }

    /// A *shared-contract, disjoint-slots* profile for the granularity
    /// benchmarks: nearly every transaction calls one shared contract, but each
    /// caller writes only the storage slot at its own address word. Under
    /// whole-account conflict tracking the entire block serializes on the
    /// contract account; under per-`StateKey` tracking the block is
    /// conflict-free. The huge uniform population (no Zipf skew, all-fresh
    /// plain-transfer receivers) keeps accidental sender collisions negligible,
    /// so granularity is the *only* variable.
    pub fn shared_contract_disjoint_slots() -> Self {
        AccountWorkloadParams {
            txs_per_block: 200.0,
            user_population: 200_000,
            fresh_receiver_share: 1.0,
            zipf_exponent: 0.0,
            hotspots: vec![HotspotSpec::disjoint_slots(0.95)],
            contract_create_share: 0.0,
        }
    }

    /// A *commutative hot spot* profile with a tunable hot-traffic share — the
    /// hot-share sweep knob of the delta-cell benchmarks. `hot_share` of the
    /// traffic splits evenly between an exchange deposit wall (everyone credits
    /// one balance cell) and a shared fee-sink contract (everyone `SAdd`s one
    /// storage slot); the rest are plain transfers to fresh receivers. Both hot
    /// patterns are *commutative*: key-granular and whole-account conflict
    /// tracking serialize them, delta-cell tracking commutes them — so
    /// throughput across the sweep isolates exactly the delta-cell headline.
    ///
    /// # Panics
    ///
    /// Panics if `hot_share` is outside `[0, 0.95]`.
    pub fn commutative_hotspot(hot_share: f64) -> Self {
        assert!(
            (0.0..=0.95).contains(&hot_share),
            "hot share {hot_share} out of range"
        );
        let hotspots = if hot_share > 0.0 {
            vec![
                HotspotSpec::exchange(hot_share / 2.0),
                HotspotSpec::fee_sink(hot_share / 2.0),
            ]
        } else {
            Vec::new()
        };
        AccountWorkloadParams {
            txs_per_block: 200.0,
            user_population: 200_000,
            fresh_receiver_share: 1.0,
            zipf_exponent: 0.0,
            hotspots,
            contract_create_share: 0.0,
        }
    }
}

/// A deployed hot spot: its spec plus the concrete addresses backing it.
#[derive(Debug, Clone)]
struct DeployedHotspot {
    spec: HotspotSpec,
    /// The address users interact with (deposit wallet, pool wallet or entry contract).
    entry: Address,
}

/// Generates and executes blocks of an account-model chain.
///
/// The generator owns a persistent [`WorldState`]: contracts are deployed once, user
/// balances and nonces carry over from block to block, and every generated block is
/// actually executed through the VM so that internal transactions and gas usage come
/// from real execution rather than being synthesized.
///
/// # Examples
///
/// ```
/// use blockconc_chainsim::{AccountWorkloadGen, AccountWorkloadParams, HotspotSpec};
/// use blockconc_graph::build_account_tdg;
///
/// let params = AccountWorkloadParams {
///     txs_per_block: 50.0,
///     user_population: 2_000,
///     fresh_receiver_share: 0.4,
///     zipf_exponent: 0.9,
///     hotspots: vec![HotspotSpec::exchange(0.25), HotspotSpec::contract(0.15, 3)],
///     contract_create_share: 0.02,
/// };
/// let mut gen = AccountWorkloadGen::new(params, 11);
/// let executed = gen.generate_block(1, 1_500_000_000);
/// let metrics = build_account_tdg(&executed);
/// assert!(metrics.metrics().single_tx_conflict_rate() > 0.2);
/// ```
#[derive(Debug)]
pub struct AccountWorkloadGen {
    params: AccountWorkloadParams,
    population: UserPopulation,
    rng: DeterministicRng,
    state: WorldState,
    executor: BlockExecutor,
    hotspots: Vec<DeployedHotspot>,
    next_nonce: HashMap<Address, u64>,
    funded: HashMap<Address, bool>,
    beneficiary: Address,
}

/// Base address ranges used by the generator so that users, hot spots and fresh
/// receivers never collide.
const HOTSPOT_BASE: u64 = 900_000_000;
const CONTRACT_BASE: u64 = 950_000_000;
const SINK_BASE: u64 = 980_000_000;

impl AccountWorkloadGen {
    /// Creates a generator, deploying the hot-spot contracts into a fresh world state.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid.
    pub fn new(params: AccountWorkloadParams, seed: u64) -> Self {
        params.validate();
        let population = UserPopulation::new(
            1_000,
            params.user_population,
            params.zipf_exponent,
            params.fresh_receiver_share,
        );
        let mut state = WorldState::new();
        let mut hotspots = Vec::with_capacity(params.hotspots.len());

        for (i, spec) in params.hotspots.iter().enumerate() {
            let entry = match spec.kind {
                HotspotKind::ExchangeDeposit | HotspotKind::PoolPayout => {
                    Address::from_low(HOTSPOT_BASE + i as u64)
                }
                HotspotKind::PopularContract => {
                    // Deploy a chain of proxies ending in a forwarder to a sink, so
                    // each call produces `call_depth` internal transactions.
                    let sink = Address::from_low(SINK_BASE + i as u64);
                    let depth = spec.call_depth.clamp(1, 6);
                    let mut target = Address::from_low(CONTRACT_BASE + (i as u64) * 16);
                    state.deploy_contract(target, Arc::new(Contract::forwarder(sink)));
                    for level in 1..depth {
                        let addr =
                            Address::from_low(CONTRACT_BASE + (i as u64) * 16 + level as u64);
                        state.deploy_contract(addr, Arc::new(Contract::proxy(target)));
                        target = addr;
                    }
                    target
                }
                HotspotKind::SlotDisjointContract => {
                    // One shared contract; each caller increments the slot at its
                    // own address word, so calls write disjoint `StateKey`s.
                    let entry = Address::from_low(CONTRACT_BASE + (i as u64) * 16);
                    state.deploy_contract(entry, Arc::new(Contract::per_caller_counter()));
                    entry
                }
                HotspotKind::FeeSink => {
                    // One shared fee accumulator; every caller adds its argument
                    // to the same slot — the same `StateKey` for everyone, but
                    // only via a commutative increment.
                    let entry = Address::from_low(CONTRACT_BASE + (i as u64) * 16);
                    state.deploy_contract(entry, Arc::new(Contract::fee_sink()));
                    entry
                }
            };
            if spec.kind == HotspotKind::PoolPayout {
                state.credit(entry, Amount::from_coins(100_000_000));
            }
            hotspots.push(DeployedHotspot { spec: *spec, entry });
        }

        AccountWorkloadGen {
            params,
            population,
            rng: DeterministicRng::seed(seed),
            state,
            executor: BlockExecutor::new(),
            hotspots,
            next_nonce: HashMap::new(),
            funded: HashMap::new(),
            beneficiary: Address::from_low(999_999_999),
        }
    }

    /// The generator's parameters.
    pub fn params(&self) -> &AccountWorkloadParams {
        &self.params
    }

    /// Read access to the generator's world state (for assertions in tests).
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    fn ensure_funded(&mut self, sender: Address) {
        if !self.funded.get(&sender).copied().unwrap_or(false) {
            self.state.credit(sender, Amount::from_coins(1_000));
            self.funded.insert(sender, true);
        }
    }

    fn take_nonce(&mut self, sender: Address) -> u64 {
        let entry = self
            .next_nonce
            .entry(sender)
            .or_insert_with(|| self.state.nonce(sender));
        let nonce = *entry;
        *entry += 1;
        nonce
    }

    fn small_value(&mut self) -> Amount {
        Amount::from_sats(self.rng.range(10_000, 5_000_000))
    }

    /// Generates `count` transactions according to the workload mix, without executing
    /// them (used by the Zilliqa pipeline, which routes transactions through shards
    /// before execution).
    pub fn generate_transactions(&mut self, count: usize) -> Vec<AccountTransaction> {
        let mut txs = Vec::with_capacity(count);
        for _ in 0..count {
            txs.push(self.generate_transaction());
        }
        txs
    }

    fn generate_transaction(&mut self) -> AccountTransaction {
        // Pick the transaction category from the cumulative share table.
        let roll = self.rng.probability();
        let mut acc = 0.0;
        for i in 0..self.hotspots.len() {
            acc += self.hotspots[i].spec.share;
            if roll < acc {
                return self.hotspot_transaction(i);
            }
        }
        acc += self.params.contract_create_share;
        if roll < acc {
            return self.creation_transaction();
        }
        self.plain_transfer()
    }

    fn hotspot_transaction(&mut self, index: usize) -> AccountTransaction {
        let entry = self.hotspots[index].entry;
        let kind = self.hotspots[index].spec.kind;
        match kind {
            HotspotKind::ExchangeDeposit => {
                let sender = self.population.sample_user(&mut self.rng);
                self.ensure_funded(sender);
                let nonce = self.take_nonce(sender);
                let value = self.small_value();
                AccountTransaction::transfer(sender, entry, value, nonce)
            }
            HotspotKind::PoolPayout => {
                // Pool payouts go to miners' dedicated payout addresses, which rarely
                // transact again within the same block — model them as fresh addresses
                // so the pool's component does not accidentally swallow other groups.
                let receiver = self.population.fresh_address();
                let nonce = self.take_nonce(entry);
                let value = self.small_value();
                AccountTransaction::transfer(entry, receiver, value, nonce)
            }
            HotspotKind::PopularContract => {
                let sender = self.population.sample_user(&mut self.rng);
                self.ensure_funded(sender);
                let nonce = self.take_nonce(sender);
                let value = self.small_value();
                AccountTransaction::contract_call(sender, entry, value, vec![], nonce)
            }
            HotspotKind::SlotDisjointContract => {
                // Value stays zero: a transfer would write the contract's shared
                // balance cell and re-introduce exactly the conflict this
                // profile exists to avoid.
                let sender = self.population.sample_user(&mut self.rng);
                self.ensure_funded(sender);
                let nonce = self.take_nonce(sender);
                AccountTransaction::contract_call(sender, entry, Amount::ZERO, vec![], nonce)
            }
            HotspotKind::FeeSink => {
                // Value stays zero for the same reason as above; the added fee
                // travels as the call argument, so the only shared touch is the
                // accumulator slot's commutative `SAdd`.
                let sender = self.population.sample_user(&mut self.rng);
                self.ensure_funded(sender);
                let nonce = self.take_nonce(sender);
                let fee = self.rng.range(1, 10_000);
                AccountTransaction::contract_call(sender, entry, Amount::ZERO, vec![fee], nonce)
            }
        }
    }

    fn creation_transaction(&mut self) -> AccountTransaction {
        let sender = self.population.sample_user(&mut self.rng);
        self.ensure_funded(sender);
        let nonce = self.take_nonce(sender);
        AccountTransaction::contract_create(sender, Arc::new(Contract::counter()), nonce)
    }

    fn plain_transfer(&mut self) -> AccountTransaction {
        let sender = self.population.sample_user(&mut self.rng);
        self.ensure_funded(sender);
        let receiver = self.population.sample_receiver(&mut self.rng);
        let nonce = self.take_nonce(sender);
        let value = self.small_value();
        AccountTransaction::transfer(sender, receiver, value, nonce)
    }

    /// Builds and executes a block from the given transactions.
    pub fn execute(
        &mut self,
        height: u64,
        timestamp: u64,
        txs: Vec<AccountTransaction>,
    ) -> ExecutedBlock {
        let block: AccountBlock = BlockBuilder::new(height, timestamp, self.beneficiary)
            .transactions(txs)
            .build();
        self.executor
            .execute_block(&mut self.state, &block)
            .expect("block execution is infallible")
    }

    /// Generates one block (Poisson-sized) and executes it.
    pub fn generate_block(&mut self, height: u64, timestamp: u64) -> ExecutedBlock {
        let n = self.rng.poisson(self.params.txs_per_block).max(1) as usize;
        let txs = self.generate_transactions(n);
        self.execute(height, timestamp, txs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_graph::build_account_tdg;

    fn ethereum_like() -> AccountWorkloadParams {
        AccountWorkloadParams {
            txs_per_block: 100.0,
            user_population: 20_000,
            fresh_receiver_share: 0.5,
            zipf_exponent: 0.4,
            hotspots: vec![
                HotspotSpec::exchange(0.18),
                HotspotSpec::exchange(0.12),
                HotspotSpec::pool(0.10),
                HotspotSpec::contract(0.15, 4),
                HotspotSpec::contract(0.10, 2),
            ],
            contract_create_share: 0.02,
        }
    }

    #[test]
    fn all_generated_transactions_succeed() {
        let mut gen = AccountWorkloadGen::new(ethereum_like(), 1);
        for h in 0..3 {
            let executed = gen.generate_block(h, h * 14);
            let failures = executed
                .receipts()
                .iter()
                .filter(|r| !r.succeeded())
                .count();
            assert_eq!(failures, 0, "block {h} had {failures} failed transactions");
        }
    }

    #[test]
    fn contract_hotspots_emit_internal_transactions() {
        let mut gen = AccountWorkloadGen::new(ethereum_like(), 2);
        let executed = gen.generate_block(1, 0);
        assert!(
            executed.internal_transaction_count() > 0,
            "expected internal transactions from contract hot spots"
        );
    }

    #[test]
    fn conflict_rates_land_in_ethereum_band() {
        let mut gen = AccountWorkloadGen::new(ethereum_like(), 3);
        let mut single = 0.0;
        let mut group = 0.0;
        let blocks = 8;
        for h in 0..blocks {
            let m = build_account_tdg(&gen.generate_block(h, h * 14));
            single += m.metrics().single_tx_conflict_rate();
            group += m.metrics().group_conflict_rate();
        }
        single /= blocks as f64;
        group /= blocks as f64;
        // Paper: Ethereum single-transaction conflict ~0.6-0.8, group ~0.2.
        assert!(single > 0.45 && single < 0.95, "single {single}");
        assert!(group > 0.08 && group < 0.45, "group {group}");
        assert!(group < single);
    }

    #[test]
    fn dominant_exchange_inflates_group_conflict() {
        // Ethereum-Classic-like: one exchange takes most of the traffic.
        let params = AccountWorkloadParams {
            txs_per_block: 20.0,
            user_population: 500,
            hotspots: vec![HotspotSpec::exchange(0.65), HotspotSpec::pool(0.10)],
            ..ethereum_like()
        };
        let mut gen = AccountWorkloadGen::new(params, 4);
        let mut group = 0.0;
        let blocks = 10;
        for h in 0..blocks {
            group += build_account_tdg(&gen.generate_block(h, 0))
                .metrics()
                .group_conflict_rate();
        }
        group /= blocks as f64;
        assert!(group > 0.5, "group {group}");
    }

    #[test]
    fn nonces_stay_consistent_across_blocks() {
        let mut gen = AccountWorkloadGen::new(ethereum_like(), 5);
        for h in 0..5 {
            let executed = gen.generate_block(h, 0);
            assert!(executed.receipts().iter().all(|r| r.succeeded()));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = AccountWorkloadGen::new(ethereum_like(), 6).generate_block(1, 0);
        let b = AccountWorkloadGen::new(ethereum_like(), 6).generate_block(1, 0);
        assert_eq!(a.block().block_hash(), b.block().block_hash());
        assert_eq!(a.gas_used(), b.gas_used());
    }

    #[test]
    fn creations_consume_more_gas_than_transfers() {
        let params = AccountWorkloadParams {
            hotspots: vec![],
            contract_create_share: 0.5,
            ..ethereum_like()
        };
        let mut gen = AccountWorkloadGen::new(params, 7);
        let executed = gen.generate_block(1, 0);
        let gases: Vec<u64> = executed
            .receipts()
            .iter()
            .map(|r| r.gas_used().value())
            .collect();
        assert!(
            gases.iter().any(|&g| g > 50_000),
            "no creation-weight gas seen"
        );
        assert!(gases.contains(&21_000), "no plain transfers seen");
    }

    #[test]
    fn disjoint_slots_profile_generates_succeeding_shared_contract_calls() {
        let mut gen =
            AccountWorkloadGen::new(AccountWorkloadParams::shared_contract_disjoint_slots(), 9);
        let executed = gen.generate_block(1, 0);
        assert!(executed.receipts().iter().all(|r| r.succeeded()));
        // The vast majority of transactions must be calls of the one shared
        // contract (whole-account tracking would serialize them all).
        let contract = Address::from_low(CONTRACT_BASE);
        let calls = executed
            .block()
            .transactions()
            .iter()
            .filter(|tx| tx.receiver() == contract)
            .count();
        assert!(
            calls * 10 >= executed.block().transaction_count() * 8,
            "only {calls} of {} transactions hit the shared contract",
            executed.block().transaction_count()
        );
    }

    #[test]
    fn fee_sink_profile_accumulates_the_shared_slot() {
        let params = AccountWorkloadParams {
            hotspots: vec![HotspotSpec::fee_sink(0.8)],
            contract_create_share: 0.0,
            ..AccountWorkloadParams::commutative_hotspot(0.8)
        };
        let mut gen = AccountWorkloadGen::new(params, 10);
        let executed = gen.generate_block(1, 0);
        assert!(executed.receipts().iter().all(|r| r.succeeded()));
        let sink = Address::from_low(CONTRACT_BASE);
        let calls = executed
            .block()
            .transactions()
            .iter()
            .filter(|tx| tx.receiver() == sink)
            .count();
        assert!(
            calls * 10 >= executed.block().transaction_count() * 6,
            "only {calls} of {} transactions hit the fee sink",
            executed.block().transaction_count()
        );
        // Every call adds its positive fee argument to slot 0 of the sink.
        assert!(
            gen.state().storage(sink, 0) > 0,
            "fee accumulator untouched"
        );
    }

    #[test]
    fn commutative_hotspot_sweep_knob_scales_the_hot_share() {
        AccountWorkloadParams::commutative_hotspot(0.0).validate();
        let hot = AccountWorkloadParams::commutative_hotspot(0.8);
        hot.validate();
        let total: f64 = hot.hotspots.iter().map(|h| h.share).sum();
        assert!((total - 0.8).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "shares sum")]
    fn oversubscribed_shares_panic() {
        let params = AccountWorkloadParams {
            hotspots: vec![HotspotSpec::exchange(0.6), HotspotSpec::contract(0.5, 2)],
            ..ethereum_like()
        };
        let _ = AccountWorkloadGen::new(params, 0);
    }
}
