//! Optimistic-concurrency conflict detection over recorded access sets.

use crate::mvcc::MvMemory;
use crate::optimistic::MvView;
use crate::thread_pool::{Job, WorkerPool};
use blockconc_account::{AccessSet, AccountBlock, BlockExecutor, StateKey, WorldState};
use blockconc_types::Result;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Lends `state` to `'static` pool jobs for the duration of `run`: the state
/// moves behind an [`Arc`] the jobs clone, and moves back once `run` returns.
/// [`WorkerPool::run_tasks`] has dropped every job (and the handle it captured)
/// by then, so the `Arc` is unique again and the clone below is never taken.
pub(crate) fn lend_state<R>(state: &mut WorldState, run: impl FnOnce(&Arc<WorldState>) -> R) -> R {
    let base = Arc::new(std::mem::take(state));
    let outcome = run(&base);
    *state = Arc::try_unwrap(base).unwrap_or_else(|arc| WorldState::clone(&arc));
    outcome
}

/// The discovery pass of the speculative and the scheduled engine: executes every
/// transaction of `block` against the pre-block `state`, spread over `pool` in one
/// chunk per worker, and returns each transaction's access set in block order.
/// Each worker reads the lent state through an [`MvView`] with no versions in it
/// — so every cell resolves to the base, resident or not — under a scratch state
/// it resets between transactions: all transactions observe the same starting
/// state, nothing is cloned and `state` is left as it was found.
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
    let no_versions = Arc::new(MvMemory::new());
    let slots: Arc<Mutex<Vec<Vec<AccessSet>>>> =
        Arc::new(Mutex::new((0..chunk_count).map(|_| Vec::new()).collect()));
    lend_state(state, |base| {
        let tasks: Vec<Job> = (0..chunk_count)
            .map(|chunk_index| {
                let view = MvView::new(Arc::clone(&no_versions), Arc::clone(base), 0);
                let block = Arc::clone(&block);
                let slots = Arc::clone(&slots);
                Box::new(move || {
                    let start = chunk_index * chunk_size;
                    let end = (start + chunk_size).min(block.transaction_count());
                    let mut local = WorldState::scratch_over(Arc::new(Mutex::new(view)));
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
    use blockconc_account::StateKey;
    use blockconc_types::Address;

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
