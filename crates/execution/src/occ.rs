//! The evaluators' discovery pass: every transaction's access set against the
//! pre-block state.

use crate::thread_pool::{Job, WorkerPool};
use blockconc_account::vm::Contract;
use blockconc_account::{
    AccessSet, AccountBlock, BlockExecutor, CellView, ScratchState, StateKey, WorldState,
};
use blockconc_types::{Address, Amount, Result};
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
}
