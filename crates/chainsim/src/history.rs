//! Full-history simulation: sample blocks across a chain's lifetime and extract their
//! per-block metrics.

use crate::chains::{self, WorkloadParams};
use crate::{AccountWorkloadGen, ChainId, UtxoWorkloadGen};
use blockconc_account::ExecutedBlock;
use blockconc_graph::{build_account_tdg, build_utxo_tdg, canonical_shard, BlockMetrics};
use blockconc_types::Timestamp;
use blockconc_utxo::UtxoBlock;

/// A single simulated block of either data model, paired with its timestamp.
///
/// Histories store only [`BlockMetrics`] (blocks for a ten-year chain would be large);
/// this type is returned by [`HistoryConfig::sample_block`] when the raw block is
/// needed — e.g. to feed the execution engines of `blockconc-execution`.
#[derive(Debug, Clone)]
pub enum SimulatedBlock {
    /// A UTXO-model block.
    Utxo(UtxoBlock),
    /// An executed account-model block (receipts included).
    Account(ExecutedBlock),
}

impl SimulatedBlock {
    /// Computes the block's dependency-graph metrics.
    pub fn metrics(&self) -> BlockMetrics {
        match self {
            SimulatedBlock::Utxo(block) => *build_utxo_tdg(block).metrics(),
            SimulatedBlock::Account(executed) => *build_account_tdg(executed).metrics(),
        }
    }

    /// Number of (regular) transactions in the block.
    pub fn transaction_count(&self) -> usize {
        match self {
            SimulatedBlock::Utxo(block) => block.regular_count(),
            SimulatedBlock::Account(executed) => executed.block().transaction_count(),
        }
    }
}

/// Configuration of a history simulation: how many buckets to sample across the
/// chain's lifetime and how many blocks to generate per bucket.
///
/// The paper divides each chain's history into 20–200 buckets and reports weighted
/// averages per bucket; sampling a handful of blocks per bucket reproduces those
/// series at a small fraction of the cost of generating every block ever mined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryConfig {
    buckets: usize,
    blocks_per_bucket: usize,
    seed: u64,
}

impl HistoryConfig {
    /// Creates a configuration with `buckets` time buckets, `blocks_per_bucket` sample
    /// blocks each, and a base `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` or `blocks_per_bucket` is zero.
    pub fn new(buckets: usize, blocks_per_bucket: usize, seed: u64) -> Self {
        assert!(buckets > 0, "at least one bucket required");
        assert!(
            blocks_per_bucket > 0,
            "at least one block per bucket required"
        );
        HistoryConfig {
            buckets,
            blocks_per_bucket,
            seed,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Blocks sampled per bucket.
    pub fn blocks_per_bucket(&self) -> usize {
        self.blocks_per_bucket
    }

    /// Total number of sample blocks.
    pub fn total_blocks(&self) -> usize {
        self.buckets * self.blocks_per_bucket
    }

    /// Generates the full sampled history of `chain`.
    pub fn generate(&self, chain: ChainId) -> ChainHistory {
        let profile = chain.profile();
        let span = profile.end_year - profile.launch_year;
        let mut blocks = Vec::with_capacity(self.total_blocks());

        for bucket in 0..self.buckets {
            // The bucket's midpoint year drives the calibration parameters.
            let year = profile.launch_year + (bucket as f64 + 0.5) / self.buckets as f64 * span;
            let seed = self
                .seed
                .wrapping_mul(1_000_003)
                .wrapping_add(chain as u64 * 7_919 + bucket as u64);
            for metrics in self.generate_bucket(chain, year, seed) {
                blocks.push(metrics);
            }
        }
        ChainHistory { chain, blocks }
    }

    /// Generates the metrics of one bucket's sample blocks at calibration year `year`.
    fn generate_bucket(&self, chain: ChainId, year: f64, seed: u64) -> Vec<BlockMetrics> {
        let profile = chain.profile();
        let first_height = ((year - profile.launch_year).max(0.0) * 365.25 * 86_400.0
            / profile.block_interval_secs as f64) as u64;
        let timestamp = Timestamp::from_year_fraction(year).as_unix();

        match chains::workload_params(chain, year) {
            WorkloadParams::Utxo(params) => {
                let mut gen = UtxoWorkloadGen::new(params, seed);
                (0..self.blocks_per_bucket)
                    .map(|i| {
                        let block = gen.generate_block(
                            first_height + i as u64,
                            timestamp + i as u64 * profile.block_interval_secs,
                        );
                        *build_utxo_tdg(&block).metrics()
                    })
                    .collect()
            }
            WorkloadParams::Account(params) => {
                let mut gen = AccountWorkloadGen::new(params, seed);
                (0..self.blocks_per_bucket)
                    .map(|i| {
                        let height = first_height + i as u64;
                        let ts = timestamp + i as u64 * profile.block_interval_secs;
                        let executed = if chain == ChainId::Zilliqa {
                            zilliqa_final_block(&mut gen, height, ts)
                        } else {
                            gen.generate_block(height, ts)
                        };
                        *build_account_tdg(&executed).metrics()
                    })
                    .collect()
            }
        }
    }

    /// Generates a single raw block of `chain` at calibration year `year` (for
    /// execution experiments that need actual blocks rather than metrics).
    pub fn sample_block(&self, chain: ChainId, year: f64, seed: u64) -> SimulatedBlock {
        let timestamp = Timestamp::from_year_fraction(year).as_unix();
        match chains::workload_params(chain, year) {
            WorkloadParams::Utxo(params) => {
                let mut gen = UtxoWorkloadGen::new(params, seed);
                SimulatedBlock::Utxo(gen.generate_block(1, timestamp))
            }
            WorkloadParams::Account(params) => {
                let mut gen = AccountWorkloadGen::new(params, seed);
                SimulatedBlock::Account(gen.generate_block(1, timestamp))
            }
        }
    }
}

/// One Zilliqa final block: the round's transactions, ordered stably by the
/// sender's canonical shard — the shards' microblocks concatenated in shard
/// order, which is the unit the paper's Zilliqa crawl analyses.
fn zilliqa_final_block(gen: &mut AccountWorkloadGen, height: u64, ts: u64) -> ExecutedBlock {
    let n = gen.params().txs_per_block.max(1.0) as usize;
    let mut txs = gen.generate_transactions(n);
    txs.sort_by_key(|tx| canonical_shard(tx.sender(), chains::zilliqa::NUM_SHARDS));
    gen.execute(height, ts, txs)
}

/// The sampled history of one chain: per-block metrics in chronological order.
#[derive(Debug, Clone)]
pub struct ChainHistory {
    chain: ChainId,
    blocks: Vec<BlockMetrics>,
}

impl ChainHistory {
    /// Creates a history from pre-computed metrics (used by tests and by the analysis
    /// crate's fixtures).
    pub fn from_metrics(chain: ChainId, blocks: Vec<BlockMetrics>) -> Self {
        ChainHistory { chain, blocks }
    }

    /// The chain this history belongs to.
    pub fn chain(&self) -> ChainId {
        self.chain
    }

    /// The per-block metrics, in chronological order.
    pub fn blocks(&self) -> &[BlockMetrics] {
        &self.blocks
    }

    /// Number of sampled blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if the history holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chains::zilliqa::NUM_SHARDS;
    use blockconc_account::AccountTransaction;

    #[test]
    fn history_has_expected_shape_and_order() {
        let config = HistoryConfig::new(5, 2, 1);
        let history = config.generate(ChainId::Litecoin);
        assert_eq!(history.len(), 10);
        assert_eq!(history.chain(), ChainId::Litecoin);
        // Timestamps are non-decreasing across buckets.
        let times: Vec<u64> = history
            .blocks()
            .iter()
            .map(|m| m.timestamp().as_unix())
            .collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn utxo_and_account_chains_have_different_conflict_profiles() {
        let config = HistoryConfig::new(4, 2, 2);
        let bitcoin = config.generate(ChainId::Bitcoin);
        let ethereum = config.generate(ChainId::Ethereum);
        let avg = |h: &ChainHistory| {
            h.blocks()
                .iter()
                .map(|m| m.single_tx_conflict_rate())
                .sum::<f64>()
                / h.len() as f64
        };
        assert!(avg(&bitcoin) < 0.35, "bitcoin {}", avg(&bitcoin));
        assert!(avg(&ethereum) > 0.4, "ethereum {}", avg(&ethereum));
    }

    #[test]
    fn zilliqa_history_uses_sharding_and_remains_conflicted() {
        let config = HistoryConfig::new(3, 2, 3);
        let history = config.generate(ChainId::Zilliqa);
        assert_eq!(history.len(), 6);
        let avg_group = history
            .blocks()
            .iter()
            .map(|m| m.group_conflict_rate())
            .sum::<f64>()
            / history.len() as f64;
        assert!(avg_group > 0.3, "group {avg_group}");
    }

    #[test]
    fn zilliqa_final_block_is_the_round_ordered_stably_by_sender_shard() {
        let shard = |tx: &AccountTransaction| canonical_shard(tx.sender(), NUM_SHARDS);
        let mut reordered = 0;
        for (bucket, year) in [2019.1, 2019.3, 2019.5, 2019.7].into_iter().enumerate() {
            let WorkloadParams::Account(params) = chains::workload_params(ChainId::Zilliqa, year)
            else {
                panic!("Zilliqa is an account chain");
            };
            // A twin generator replays the round the final block was cut from.
            let mut round_gen = AccountWorkloadGen::new(params.clone(), bucket as u64);
            let round = round_gen.generate_transactions(params.txs_per_block.max(1.0) as usize);
            let mut gen = AccountWorkloadGen::new(params, bucket as u64);
            let executed = zilliqa_final_block(&mut gen, 1, 0);
            let block = executed.block().transactions();

            assert_eq!(block.len(), round.len());
            assert!(block.windows(2).all(|w| shard(&w[0]) <= shard(&w[1])));
            for s in 0..NUM_SHARDS {
                let in_block: Vec<_> = block.iter().filter(|tx| shard(tx) == s).collect();
                let in_round: Vec<_> = round.iter().filter(|tx| shard(tx) == s).collect();
                assert_eq!(in_block, in_round, "shard {s} lost generation order");
            }
            reordered += usize::from(block != round.as_slice());
        }
        assert!(reordered > 0, "no round needed reordering");
    }

    #[test]
    fn sample_block_produces_the_right_data_model() {
        let config = HistoryConfig::new(1, 1, 4);
        assert!(matches!(
            config.sample_block(ChainId::Bitcoin, 2018.0, 1),
            SimulatedBlock::Utxo(_)
        ));
        assert!(matches!(
            config.sample_block(ChainId::Ethereum, 2018.0, 1),
            SimulatedBlock::Account(_)
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let config = HistoryConfig::new(3, 1, 7);
        let a = config.generate(ChainId::Dogecoin);
        let b = config.generate(ChainId::Dogecoin);
        assert_eq!(a.blocks(), b.blocks());
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = HistoryConfig::new(0, 1, 0);
    }
}
