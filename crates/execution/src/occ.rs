//! Optimistic-concurrency conflict detection over recorded access sets.

use crate::thread_pool::{Job, WorkerPool};
use blockconc_account::vm::Contract;
use blockconc_account::{
    AccessSet, AccountBlock, BlockExecutor, CellView, ScratchState, StateKey, WorldState,
};
use blockconc_types::{Address, Amount, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Lends `state` to `'static` pool jobs for the duration of `run`: the state
/// moves behind an [`Arc`] the jobs clone, and moves back once `run` returns.
/// [`WorkerPool::run_tasks`] has dropped every job (and the handle it captured)
/// by then, so the `Arc` is unique again.
///
/// # Panics
///
/// Panics if a handle on the lent state outlives `run`: a job that kept one
/// — in a worker scratch the engine keeps across blocks, say — would
/// otherwise turn every block into a silent copy of the whole state.
pub(crate) fn lend_state<R>(state: &mut WorldState, run: impl FnOnce(&Arc<WorldState>) -> R) -> R {
    let base = Arc::new(std::mem::take(state));
    let outcome = run(&base);
    *state = Arc::try_unwrap(base)
        .unwrap_or_else(|_| panic!("a pool job kept its handle on the lent state"));
    outcome
}

/// The lent pre-block state as a [`CellView`]: each cell read straight off
/// the resident account (a miss means the account does not exist). Every
/// discovery execution starts from this same state, so there is nothing to
/// version.
struct BaseCells(Arc<WorldState>);

impl CellView for BaseCells {
    fn meta(&mut self, address: Address) -> Option<(Amount, u64)> {
        self.0
            .account(address)
            .map(|account| (account.balance(), account.nonce()))
    }

    fn slot(&mut self, address: Address, key: u64) -> u64 {
        self.0.storage(address, key)
    }

    fn contract(&mut self, address: Address) -> Option<Arc<Contract>> {
        self.0.contract(address)
    }
}

/// The discovery pass of the speculative and the scheduled engine: executes every
/// transaction of `block` against the pre-block `state`, spread over `pool` in one
/// chunk per worker, and returns each transaction's access set in block order.
/// Each worker reads the lent state cell by cell ([`BaseCells`]) from a
/// [`ScratchState`] it resets between transactions: all transactions observe
/// the same starting state, nothing is cloned and `state` is left as it was
/// found.
pub(crate) fn discover_access_sets(
    pool: &WorkerPool,
    state: &mut WorldState,
    block: &AccountBlock,
) -> Result<Vec<AccessSet>> {
    let tx_count = block.transaction_count();
    if tx_count == 0 {
        return Ok(Vec::new());
    }
    let chunk_size = tx_count.div_ceil(pool.size());
    let chunk_count = tx_count.div_ceil(chunk_size);
    let block = Arc::new(block.clone());
    let slots: Arc<Mutex<Vec<Vec<AccessSet>>>> =
        Arc::new(Mutex::new((0..chunk_count).map(|_| Vec::new()).collect()));
    lend_state(state, |base| {
        let tasks: Vec<Job> = (0..chunk_count)
            .map(|chunk_index| {
                let view = BaseCells(Arc::clone(base));
                let block = Arc::clone(&block);
                let slots = Arc::clone(&slots);
                Box::new(move || {
                    let start = chunk_index * chunk_size;
                    let end = (start + chunk_size).min(block.transaction_count());
                    let mut local = ScratchState::new(view);
                    let mut executor = BlockExecutor::new();
                    let sets: Vec<AccessSet> = block.transactions()[start..end]
                        .iter()
                        .map(|tx| {
                            local.reset_working_set();
                            match executor.execute_transaction(&mut local, tx) {
                                Ok(ctx) => ctx.access,
                                Err(_) => {
                                    // A transaction that fails speculation (e.g. a
                                    // nonce that only becomes valid after an earlier
                                    // same-sender transaction) must be treated as
                                    // conflicted, so give it the sender/receiver
                                    // balance keys its execution would have touched.
                                    let mut access = AccessSet::new();
                                    access.record_write(StateKey::Balance(tx.sender()));
                                    access.record_write(StateKey::Balance(tx.receiver()));
                                    access
                                }
                            }
                        })
                        .collect();
                    slots.lock().expect("discovery slot lock")[chunk_index] = sets;
                }) as Job
            })
            .collect();
        pool.run_tasks(tasks)
    })?;
    let slots = Arc::try_unwrap(slots)
        .expect("pool drained all jobs")
        .into_inner()
        .expect("discovery slot lock");
    Ok(slots.into_iter().flatten().collect())
}

/// The pairwise conflict structure of one block's transactions, derived from their
/// read/write sets (storage-layer conflicts, the definition used by Saraph & Herlihy
/// that the paper contrasts with its graph-based definition).
#[derive(Debug, Clone)]
pub struct ConflictMatrix {
    conflicted: Vec<bool>,
    edges: Vec<(usize, usize)>,
}

impl ConflictMatrix {
    /// For each transaction, whether it conflicts with at least one other.
    pub fn conflicted_flags(&self) -> &[bool] {
        &self.conflicted
    }

    /// The number of conflicted transactions.
    pub fn conflicted_count(&self) -> usize {
        self.conflicted.iter().filter(|&&c| c).count()
    }

    /// The conflicting pairs `(i, j)` with `i < j`.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }
}

/// Detects conflicts among transactions from their access sets.
///
/// Two transactions conflict when one writes a state key the other reads or writes.
/// The implementation indexes transactions by touched key, so the cost is proportional
/// to the number of accesses plus the number of conflicting pairs, not quadratic in
/// the block size.
///
/// # Examples
///
/// ```
/// use blockconc_types::Address;
/// use blockconc_account::{AccessSet, StateKey};
/// use blockconc_execution::detect_conflicts;
///
/// let mut a = AccessSet::new();
/// a.record_write(StateKey::Balance(Address::from_low(1)));
/// let mut b = AccessSet::new();
/// b.record_read(StateKey::Balance(Address::from_low(1)));
/// let c = AccessSet::new();
///
/// let matrix = detect_conflicts(&[a, b, c]);
/// assert_eq!(matrix.conflicted_flags(), &[true, true, false]);
/// assert_eq!(matrix.edges(), &[(0, 1)]);
/// ```
pub fn detect_conflicts(access_sets: &[AccessSet]) -> ConflictMatrix {
    let mut conflicted = vec![false; access_sets.len()];
    let mut edges = Vec::new();

    // Index: key -> (readers, writers) transaction indices.
    let mut readers: HashMap<blockconc_account::StateKey, Vec<usize>> = HashMap::new();
    let mut writers: HashMap<blockconc_account::StateKey, Vec<usize>> = HashMap::new();
    for (idx, access) in access_sets.iter().enumerate() {
        for key in access.reads() {
            readers.entry(*key).or_default().push(idx);
        }
        for key in access.writes() {
            writers.entry(*key).or_default().push(idx);
        }
    }

    let mut seen = std::collections::HashSet::new();
    for (key, writer_list) in &writers {
        // writer-writer conflicts
        for (a_pos, &a) in writer_list.iter().enumerate() {
            for &b in &writer_list[a_pos + 1..] {
                push_edge(a, b, &mut seen, &mut edges, &mut conflicted);
            }
        }
        // writer-reader conflicts
        if let Some(reader_list) = readers.get(key) {
            for &w in writer_list {
                for &r in reader_list {
                    if w != r {
                        push_edge(w, r, &mut seen, &mut edges, &mut conflicted);
                    }
                }
            }
        }
    }
    edges.sort_unstable();
    ConflictMatrix { conflicted, edges }
}

fn push_edge(
    a: usize,
    b: usize,
    seen: &mut std::collections::HashSet<(usize, usize)>,
    edges: &mut Vec<(usize, usize)>,
    conflicted: &mut [bool],
) {
    let pair = (a.min(b), a.max(b));
    if seen.insert(pair) {
        edges.push(pair);
    }
    conflicted[a] = true;
    conflicted[b] = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lent state must come back by move. A job that keeps a handle on
    /// it past the run is a bug that used to cost a silent whole-state copy
    /// per block; it fails loudly instead.
    #[test]
    #[should_panic(expected = "a pool job kept its handle on the lent state")]
    fn a_job_that_keeps_the_lent_state_fails_loudly() {
        let pool = WorkerPool::new(1);
        let leak: Arc<Mutex<Option<Arc<WorldState>>>> = Arc::default();
        let mut state = WorldState::new();
        state.credit(Address::from_low(1), Amount::from_sats(5));
        let run = lend_state(&mut state, |base| {
            let (base, leak) = (Arc::clone(base), Arc::clone(&leak));
            pool.run_tasks(vec![Box::new(move || {
                *leak.lock().expect("leak lock") = Some(base);
            }) as Job])
        });
        run.expect("the job itself succeeds");
    }

    fn writes(keys: &[StateKey]) -> AccessSet {
        let mut set = AccessSet::new();
        for k in keys {
            set.record_write(*k);
        }
        set
    }

    fn reads(keys: &[StateKey]) -> AccessSet {
        let mut set = AccessSet::new();
        for k in keys {
            set.record_read(*k);
        }
        set
    }

    fn balance(n: u64) -> StateKey {
        StateKey::Balance(Address::from_low(n))
    }

    #[test]
    fn read_read_never_conflicts() {
        let matrix = detect_conflicts(&[reads(&[balance(1)]), reads(&[balance(1)])]);
        assert_eq!(matrix.conflicted_count(), 0);
        assert!(matrix.edges().is_empty());
    }

    #[test]
    fn write_write_and_write_read_conflict() {
        let matrix = detect_conflicts(&[
            writes(&[balance(1)]),
            writes(&[balance(1)]),
            reads(&[balance(1)]),
            writes(&[balance(2)]),
        ]);
        assert_eq!(matrix.conflicted_flags(), &[true, true, true, false]);
        assert_eq!(matrix.edges().len(), 3);
    }

    #[test]
    fn disjoint_transactions_do_not_conflict() {
        let sets: Vec<AccessSet> = (0..50).map(|i| writes(&[balance(i)])).collect();
        let matrix = detect_conflicts(&sets);
        assert_eq!(matrix.conflicted_count(), 0);
    }

    #[test]
    fn storage_keys_conflict_per_slot() {
        let contract = Address::from_low(99);
        let slot0 = StateKey::Storage(contract, 0);
        let slot1 = StateKey::Storage(contract, 1);
        let matrix = detect_conflicts(&[writes(&[slot0]), writes(&[slot1]), reads(&[slot0])]);
        // Different slots of the same contract do not conflict (Saraph-Herlihy's
        // storage-level definition, which the paper contrasts with its own).
        assert_eq!(matrix.conflicted_flags(), &[true, false, true]);
    }

    #[test]
    fn edges_are_deduplicated() {
        let a = writes(&[balance(1), balance(2)]);
        let b = writes(&[balance(1), balance(2)]);
        let matrix = detect_conflicts(&[a, b]);
        assert_eq!(matrix.edges(), &[(0, 1)]);
    }
}
