//! TDG construction for account-model blocks.

use crate::{BlockMetrics, Tdg};
use blockconc_account::{ExecutedBlock, TxPayload};
use blockconc_types::{Address, Gas};

/// The result of analyzing one executed account-model block: the address-level TDG,
/// the per-block [`BlockMetrics`], and the grouping of transactions into connected
/// components.
#[derive(Debug, Clone)]
pub struct AccountTdgAnalysis {
    tdg: Tdg<Address>,
    metrics: BlockMetrics,
    groups: Vec<Vec<usize>>,
    conflicted: Vec<bool>,
}

impl AccountTdgAnalysis {
    /// The dependency graph (nodes are addresses referenced by the block).
    pub fn tdg(&self) -> &Tdg<Address> {
        &self.tdg
    }

    /// The per-block metrics.
    pub fn metrics(&self) -> &BlockMetrics {
        &self.metrics
    }

    /// Connected components as lists of transaction indices (into the block's
    /// transaction list). Transactions whose endpoints fall in the same address
    /// component belong to the same group and must execute sequentially.
    pub fn transaction_groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// For each transaction, whether it conflicts with at least one other.
    pub fn conflicted_flags(&self) -> &[bool] {
        &self.conflicted
    }
}

/// Returns the address a transaction's TDG edge points at: the declared receiver for
/// transfers and calls, or the derived deployment address for contract creations (a
/// freshly deployed contract shares no address with other transactions, which is why
/// the paper observes that expensive creation transactions are rarely conflicted).
///
/// Exported so that pre-execution consumers (the mempool's incremental TDG in
/// `blockconc-pipeline`) use the exact same edge convention as this builder.
pub fn effective_receiver(tx: &blockconc_account::AccountTransaction) -> Address {
    match tx.payload() {
        TxPayload::ContractCreate { code } => code.deployment_address(tx.sender(), tx.nonce()),
        _ => tx.receiver(),
    }
}

/// Whether a transaction's receiver endpoint is a *weak* dependency edge: a
/// plain transfer only **credits** the receiver, and under commutative
/// delta-cell execution pure credits to one account commute — the edge orders
/// nothing against other weak edges on the same address. Contract calls and
/// creations stay strong: code execution can read or overwrite the target's
/// state.
///
/// This is an advisory pre-execution classification, mirroring the executor's
/// delta-access emission. It intentionally ignores the possibility that a
/// transfer's receiver is a contract (which would run code): the TDG is a
/// scheduling hint, never a correctness gate — the engine's own read/delta
/// tracking catches every ordered access at execution time. Exported so the
/// mempool's incremental TDG and this builder share one convention.
pub fn receiver_edge_is_weak(tx: &blockconc_account::AccountTransaction) -> bool {
    matches!(tx.payload(), TxPayload::Transfer)
}

/// Builds the address-level transaction dependency graph of an executed account-model
/// block and computes its metrics.
///
/// Per the paper's Section III-A: each node is an address referenced by a transaction
/// in the block; an edge `(a, b)` exists for every regular **or internal** transaction
/// with sender `a` and receiver `b`. Two transactions conflict when their endpoints
/// share a connected component. The block's beneficiary (coinbase) is ignored.
///
/// Gas accounting: the metrics record the total gas used by the block and the gas used
/// by conflicted transactions, enabling both transaction-count-weighted and
/// gas-weighted aggregation (the thick and thin lines of the paper's Fig. 4).
pub fn build_account_tdg(executed: &ExecutedBlock) -> AccountTdgAnalysis {
    let block = executed.block();
    let txs = block.transactions();

    let mut tdg: Tdg<Address> = Tdg::new();
    // Make sure every endpoint is a node even if a transaction is a self-send.
    for (tx, receipt) in executed.iter() {
        tdg.add_edge(tx.sender(), effective_receiver(tx));
        for itx in receipt.internal_transactions() {
            tdg.add_edge(itx.from(), itx.to());
        }
    }

    let address_components = tdg.connected_components();
    // Map address node index -> component id.
    let mut component_of = vec![usize::MAX; tdg.node_count()];
    for (cid, comp) in address_components.iter().enumerate() {
        for &node in comp {
            component_of[node] = cid;
        }
    }

    // Group transactions by the component of their sender (sender and receiver always
    // share a component thanks to the transaction's own edge).
    let mut groups_by_component: Vec<Vec<usize>> = vec![Vec::new(); address_components.len()];
    for (idx, tx) in txs.iter().enumerate() {
        let node = tdg.node_index(&tx.sender()).expect("sender inserted above");
        groups_by_component[component_of[node]].push(idx);
    }
    let groups: Vec<Vec<usize>> = groups_by_component
        .into_iter()
        .filter(|g| !g.is_empty())
        .collect();

    let mut conflicted = vec![false; txs.len()];
    let mut conflicted_count = 0usize;
    let mut lcc = 0usize;
    for group in &groups {
        lcc = lcc.max(group.len());
        if group.len() > 1 {
            conflicted_count += group.len();
            for &idx in group {
                conflicted[idx] = true;
            }
        }
    }

    let gas_used: Gas = executed.receipts().iter().map(|r| r.gas_used()).sum();
    let gas_conflicted: Gas = executed
        .receipts()
        .iter()
        .enumerate()
        .filter(|(idx, _)| conflicted[*idx])
        .map(|(_, r)| r.gas_used())
        .sum();

    let metrics = BlockMetrics::new(
        block.height().value(),
        block.timestamp().as_unix(),
        txs.len(),
        conflicted_count,
        lcc,
        groups.len(),
    )
    .with_internal_tx_count(executed.internal_transaction_count())
    .with_gas(gas_used, gas_conflicted);

    AccountTdgAnalysis {
        tdg,
        metrics,
        groups,
        conflicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_account::vm::Contract;
    use blockconc_account::{
        AccountTransaction, BlockBuilder, BlockExecutor, StateAccess, WorldState,
    };
    use blockconc_types::Amount;
    use std::sync::Arc;

    fn user(n: u64) -> Address {
        Address::from_low(n)
    }

    fn funded_state(users: std::ops::RangeInclusive<u64>) -> WorldState {
        let mut state = WorldState::new();
        for i in users {
            state.credit(user(i), Amount::from_coins(100));
        }
        state
    }

    fn execute(state: &mut WorldState, txs: Vec<AccountTransaction>) -> ExecutedBlock {
        let block = BlockBuilder::new(1, 0, user(9999))
            .transactions(txs)
            .build();
        BlockExecutor::new().execute_block(state, &block).unwrap()
    }

    #[test]
    fn independent_transfers_have_no_conflicts() {
        let mut state = funded_state(1..=4);
        let executed = execute(
            &mut state,
            vec![
                AccountTransaction::transfer(user(1), user(11), Amount::from_sats(1), 0),
                AccountTransaction::transfer(user(2), user(12), Amount::from_sats(1), 0),
                AccountTransaction::transfer(user(3), user(13), Amount::from_sats(1), 0),
                AccountTransaction::transfer(user(4), user(14), Amount::from_sats(1), 0),
            ],
        );
        let m = build_account_tdg(&executed);
        assert_eq!(m.metrics().tx_count(), 4);
        assert_eq!(m.metrics().conflicted_count(), 0);
        assert_eq!(m.metrics().lcc_size(), 1);
        assert_eq!(m.metrics().component_count(), 4);
    }

    #[test]
    fn shared_receiver_conflicts_transactions() {
        // Transactions 1-9 of the paper's block 1000124 all pay the same exchange.
        let mut state = funded_state(1..=9);
        let exchange = user(500);
        let txs: Vec<_> = (1..=9)
            .map(|i| AccountTransaction::transfer(user(i), exchange, Amount::from_sats(10), 0))
            .collect();
        let executed = execute(&mut state, txs);
        let m = build_account_tdg(&executed);
        assert_eq!(m.metrics().conflicted_count(), 9);
        assert_eq!(m.metrics().lcc_size(), 9);
        assert_eq!(m.metrics().component_count(), 1);
        assert_eq!(m.metrics().single_tx_conflict_rate(), 1.0);
    }

    #[test]
    fn shared_sender_conflicts_transactions() {
        // DwarfPool-style: one address sends two transactions in the same block.
        let mut state = funded_state(1..=3);
        let executed = execute(
            &mut state,
            vec![
                AccountTransaction::transfer(user(1), user(11), Amount::from_sats(1), 0),
                AccountTransaction::transfer(user(1), user(12), Amount::from_sats(1), 1),
                AccountTransaction::transfer(user(2), user(13), Amount::from_sats(1), 0),
            ],
        );
        let m = build_account_tdg(&executed);
        assert_eq!(m.metrics().conflicted_count(), 2);
        assert_eq!(m.metrics().lcc_size(), 2);
        assert!((m.metrics().single_tx_conflict_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn internal_transactions_merge_components() {
        // Two users call two *different* proxy contracts that both forward to the same
        // sink contract: without internal transactions the two calls look independent,
        // with them they conflict (this is exactly what the paper's internal-transaction
        // analysis captures).
        let mut state = funded_state(1..=2);
        let sink = user(800);
        let proxy_a = user(801);
        let proxy_b = user(802);
        state.deploy_contract(proxy_a, Arc::new(Contract::forwarder(sink)));
        state.deploy_contract(proxy_b, Arc::new(Contract::forwarder(sink)));

        let executed = execute(
            &mut state,
            vec![
                AccountTransaction::contract_call(
                    user(1),
                    proxy_a,
                    Amount::from_sats(100),
                    vec![],
                    0,
                ),
                AccountTransaction::contract_call(
                    user(2),
                    proxy_b,
                    Amount::from_sats(100),
                    vec![],
                    0,
                ),
            ],
        );
        let m = build_account_tdg(&executed);
        assert!(m.metrics().internal_tx_count() >= 2);
        assert_eq!(m.metrics().conflicted_count(), 2);
        assert_eq!(m.metrics().lcc_size(), 2);
        assert_eq!(m.metrics().component_count(), 1);
    }

    #[test]
    fn contract_creations_do_not_conflict_with_each_other() {
        let mut state = funded_state(1..=2);
        let executed = execute(
            &mut state,
            vec![
                AccountTransaction::contract_create(user(1), Arc::new(Contract::counter()), 0),
                AccountTransaction::contract_create(user(2), Arc::new(Contract::counter()), 0),
            ],
        );
        let m = build_account_tdg(&executed);
        assert_eq!(m.metrics().conflicted_count(), 0);
        assert_eq!(m.metrics().component_count(), 2);
    }

    #[test]
    fn gas_accounting_separates_conflicted_share() {
        let mut state = funded_state(1..=3);
        let executed = execute(
            &mut state,
            vec![
                AccountTransaction::transfer(user(1), user(10), Amount::from_sats(1), 0),
                AccountTransaction::transfer(user(2), user(10), Amount::from_sats(1), 0),
                AccountTransaction::transfer(user(3), user(11), Amount::from_sats(1), 0),
            ],
        );
        let m = build_account_tdg(&executed);
        // Two of three identical-gas transfers are conflicted -> 2/3 of gas.
        assert!((m.metrics().gas_conflict_share() - 2.0 / 3.0).abs() < 1e-9);
        assert!(m.metrics().gas_used() > Gas::ZERO);
    }

    #[test]
    fn groups_partition_all_transactions() {
        let mut state = funded_state(1..=5);
        let executed = execute(
            &mut state,
            vec![
                AccountTransaction::transfer(user(1), user(2), Amount::from_sats(1), 0),
                AccountTransaction::transfer(user(2), user(3), Amount::from_sats(1), 0),
                AccountTransaction::transfer(user(4), user(40), Amount::from_sats(1), 0),
                AccountTransaction::transfer(user(5), user(50), Amount::from_sats(1), 0),
            ],
        );
        let analysis = build_account_tdg(&executed);
        let mut all: Vec<usize> = analysis
            .transaction_groups()
            .iter()
            .flatten()
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        // Transactions 0 and 1 share address 2, so they form one group of two.
        assert_eq!(analysis.metrics().lcc_size(), 2);
    }

    #[test]
    fn self_transfer_is_a_single_node_component() {
        let mut state = funded_state(1..=1);
        let executed = execute(
            &mut state,
            vec![AccountTransaction::transfer(
                user(1),
                user(1),
                Amount::from_sats(1),
                0,
            )],
        );
        let m = build_account_tdg(&executed);
        assert_eq!(m.metrics().tx_count(), 1);
        assert_eq!(m.metrics().conflicted_count(), 0);
        assert_eq!(m.metrics().lcc_size(), 1);
    }
}
