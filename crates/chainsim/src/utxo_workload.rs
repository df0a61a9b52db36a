//! Workload generator for UTXO-model chains.

use crate::UserPopulation;
use blockconc_types::{Amount, DeterministicRng, TxId};
use blockconc_utxo::{OutPoint, TransactionBuilder, TxOut, UtxoBlock, UtxoSet, UtxoTransaction};

/// Parameters of a UTXO workload for one era of a chain's history.
///
/// The two probabilities control the dependency structure the paper measures:
/// `intra_block_spend_prob` is the probability that a transaction spends an output
/// created *earlier in the same block* (the only source of conflicts in the UTXO
/// model), and `chain_continuation_prob` controls whether such spends extend one long
/// chain (as in the paper's Bitcoin block 500,000 example) or attach to random earlier
/// transactions.
#[derive(Debug, Clone, PartialEq)]
pub struct UtxoWorkloadParams {
    /// Mean number of (regular) transactions per block.
    pub txs_per_block: f64,
    /// Mean number of *additional* external inputs per transaction (beyond the first).
    pub extra_inputs_per_tx: f64,
    /// Probability that a transaction spends an output created earlier in the block.
    pub intra_block_spend_prob: f64,
    /// Probability that an intra-block spend extends the most recent chain tip rather
    /// than attaching to a random earlier transaction.
    pub chain_continuation_prob: f64,
    /// Number of recurring users in the population.
    pub user_population: usize,
}

impl UtxoWorkloadParams {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on non-positive transaction rates, probabilities outside `[0, 1]` or an
    /// empty user population.
    pub fn validate(&self) {
        assert!(self.txs_per_block > 0.0, "txs_per_block must be positive");
        assert!(
            self.extra_inputs_per_tx >= 0.0,
            "extra inputs must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.intra_block_spend_prob),
            "intra-block spend probability out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.chain_continuation_prob),
            "chain continuation probability out of range"
        );
        assert!(self.user_population > 0, "population must not be empty");
    }
}

/// Generates blocks of a UTXO chain according to [`UtxoWorkloadParams`].
///
/// # Examples
///
/// ```
/// use blockconc_chainsim::{UtxoWorkloadGen, UtxoWorkloadParams};
/// use blockconc_graph::build_utxo_tdg;
///
/// let params = UtxoWorkloadParams {
///     txs_per_block: 200.0,
///     extra_inputs_per_tx: 1.0,
///     intra_block_spend_prob: 0.08,
///     chain_continuation_prob: 0.8,
///     user_population: 10_000,
/// };
/// let mut gen = UtxoWorkloadGen::new(params, 7);
/// let block = gen.generate_block(100, 1_500_000_000);
/// let metrics = build_utxo_tdg(&block);
/// assert!(metrics.metrics().tx_count() > 100);
/// assert!(metrics.metrics().single_tx_conflict_rate() < 0.5);
/// ```
#[derive(Debug)]
pub struct UtxoWorkloadGen {
    params: UtxoWorkloadParams,
    population: UserPopulation,
    rng: DeterministicRng,
    external_counter: u64,
}

impl UtxoWorkloadGen {
    /// Creates a generator with the given parameters and seed.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see [`UtxoWorkloadParams::validate`]).
    pub fn new(params: UtxoWorkloadParams, seed: u64) -> Self {
        params.validate();
        let population = UserPopulation::new(1_000, params.user_population, 1.05, 0.3);
        UtxoWorkloadGen {
            params,
            population,
            rng: DeterministicRng::seed(seed),
            external_counter: 0,
        }
    }

    /// The generator's parameters.
    pub fn params(&self) -> &UtxoWorkloadParams {
        &self.params
    }

    /// Synthesizes an outpoint representing a TXO created in some earlier block, along
    /// with its output, and registers it in `external`.
    fn external_input(&mut self, external: &mut UtxoSet) -> (OutPoint, Amount) {
        self.external_counter += 1;
        let txid = TxId::of_bytes(&[
            b'e',
            b'x',
            b't',
            (self.external_counter >> 24) as u8,
            (self.external_counter >> 16) as u8,
            (self.external_counter >> 8) as u8,
            self.external_counter as u8,
            (self.rng.next_u64() & 0xff) as u8,
        ]);
        let outpoint = OutPoint::new(txid, 0);
        let value = Amount::from_sats(self.rng.range(50_000, 200_000_000));
        let owner = self.population.sample_user(&mut self.rng);
        external.insert(outpoint, TxOut::new(owner, value));
        (outpoint, value)
    }

    /// Generates one block together with the UTXO set of the external (previous-block)
    /// outputs its transactions spend, so the block can be validated.
    pub fn generate_block_with_context(
        &mut self,
        height: u64,
        timestamp: u64,
    ) -> (UtxoBlock, UtxoSet) {
        let n = self.rng.poisson(self.params.txs_per_block).max(1) as usize;
        let mut external = UtxoSet::new();
        let mut transactions: Vec<UtxoTransaction> = Vec::with_capacity(n);
        // Outputs created within this block and not yet spent within it, as
        // (outpoint, value) pairs. The last entry is the current "chain tip".
        let mut in_block_available: Vec<(OutPoint, Amount)> = Vec::new();

        for i in 0..n {
            let mut inputs: Vec<OutPoint> = Vec::new();
            let mut input_value = Amount::ZERO;

            let spend_internal = i > 0
                && !in_block_available.is_empty()
                && self.rng.happens(self.params.intra_block_spend_prob);
            if spend_internal {
                let idx = if self.rng.happens(self.params.chain_continuation_prob) {
                    in_block_available.len() - 1
                } else {
                    self.rng.below(in_block_available.len() as u64) as usize
                };
                let (outpoint, value) = in_block_available.swap_remove(idx);
                inputs.push(outpoint);
                input_value += value;
            } else {
                let (outpoint, value) = self.external_input(&mut external);
                inputs.push(outpoint);
                input_value += value;
            }

            let extra = self.rng.poisson(self.params.extra_inputs_per_tx) as usize;
            for _ in 0..extra {
                let (outpoint, value) = self.external_input(&mut external);
                inputs.push(outpoint);
                input_value += value;
            }

            // Two outputs: a payment and change, keeping a small fee.
            let fee = Amount::from_sats(input_value.sats() / 1000);
            let spendable = input_value.saturating_sub(fee);
            let payment = Amount::from_sats(spendable.sats() / 2);
            let change = spendable.saturating_sub(payment);
            let receiver = self.population.sample_receiver(&mut self.rng);
            let change_owner = self.population.sample_user(&mut self.rng);

            let mut builder = TransactionBuilder::new().nonce(height << 20 | i as u64);
            for input in &inputs {
                builder = builder.input(*input);
            }
            let tx = builder
                .output(receiver, payment)
                .output(change_owner, change)
                .build();

            // The new outputs become available for later transactions in this block.
            in_block_available.push((tx.outpoint(0), payment));
            transactions.push(tx);
        }

        let miner = self.population.sample_user(&mut self.rng);
        let mut all = Vec::with_capacity(transactions.len() + 1);
        all.push(UtxoTransaction::coinbase(
            miner,
            Amount::from_coins(12),
            height,
        ));
        all.extend(transactions);
        (
            UtxoBlock::new(height.into(), timestamp.into(), all),
            external,
        )
    }

    /// Generates one block (discarding the external-input context).
    pub fn generate_block(&mut self, height: u64, timestamp: u64) -> UtxoBlock {
        self.generate_block_with_context(height, timestamp).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_graph::build_utxo_tdg;

    fn bitcoin_like() -> UtxoWorkloadParams {
        UtxoWorkloadParams {
            txs_per_block: 500.0,
            extra_inputs_per_tx: 1.0,
            intra_block_spend_prob: 0.08,
            chain_continuation_prob: 0.8,
            user_population: 20_000,
        }
    }

    #[test]
    fn generated_blocks_validate_against_their_context() {
        let mut gen = UtxoWorkloadGen::new(bitcoin_like(), 1);
        for height in 0..3 {
            let (block, external) = gen.generate_block_with_context(height, height * 600);
            block
                .validate(&external)
                .unwrap_or_else(|e| panic!("block {height} invalid: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = UtxoWorkloadGen::new(bitcoin_like(), 9).generate_block(5, 0);
        let b = UtxoWorkloadGen::new(bitcoin_like(), 9).generate_block(5, 0);
        assert_eq!(a, b);
        let c = UtxoWorkloadGen::new(bitcoin_like(), 10).generate_block(5, 0);
        assert_ne!(a, c);
    }

    #[test]
    fn conflict_rates_land_in_bitcoin_band() {
        let mut gen = UtxoWorkloadGen::new(bitcoin_like(), 3);
        let mut single = 0.0;
        let mut group = 0.0;
        let blocks = 10;
        for h in 0..blocks {
            let block = gen.generate_block(h, h * 600);
            let m = build_utxo_tdg(&block);
            single += m.metrics().single_tx_conflict_rate();
            group += m.metrics().group_conflict_rate();
        }
        single /= blocks as f64;
        group /= blocks as f64;
        // The paper reports ~13-15% single-transaction and ~1% group conflict for Bitcoin.
        assert!(single > 0.05 && single < 0.30, "single {single}");
        assert!(group < 0.08, "group {group}");
    }

    #[test]
    fn higher_spend_probability_raises_conflict() {
        let mut calm = UtxoWorkloadGen::new(bitcoin_like(), 5);
        let mut busy = UtxoWorkloadGen::new(
            UtxoWorkloadParams {
                intra_block_spend_prob: 0.35,
                ..bitcoin_like()
            },
            5,
        );
        let calm_rate = build_utxo_tdg(&calm.generate_block(1, 0))
            .metrics()
            .single_tx_conflict_rate();
        let busy_rate = build_utxo_tdg(&busy.generate_block(1, 0))
            .metrics()
            .single_tx_conflict_rate();
        assert!(busy_rate > calm_rate, "busy {busy_rate} calm {calm_rate}");
    }

    #[test]
    fn input_counts_scale_with_extra_inputs() {
        let mut thin = UtxoWorkloadGen::new(
            UtxoWorkloadParams {
                extra_inputs_per_tx: 0.0,
                ..bitcoin_like()
            },
            6,
        );
        let mut fat = UtxoWorkloadGen::new(
            UtxoWorkloadParams {
                extra_inputs_per_tx: 3.0,
                ..bitcoin_like()
            },
            6,
        );
        let thin_inputs = thin.generate_block(1, 0).input_count();
        let fat_inputs = fat.generate_block(1, 0).input_count();
        assert!(fat_inputs > thin_inputs * 2);
    }

    #[test]
    #[should_panic(expected = "txs_per_block")]
    fn invalid_params_panic() {
        let _ = UtxoWorkloadGen::new(
            UtxoWorkloadParams {
                txs_per_block: 0.0,
                ..bitcoin_like()
            },
            0,
        );
    }
}
