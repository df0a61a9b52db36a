//! The optimistic parallel engine (Block-STM-style MVCC execution).
//!
//! Unlike [`SpeculativeEngine`](crate::SpeculativeEngine) — which re-executes every
//! transaction to commit — this engine executes each transaction once (plus bounded
//! re-executions after conflicts) against a [multi-version store](crate::mvcc) and
//! commits by installing the buffered write sets directly. The design follows
//! Block-STM: optimistic execution in block order, lazy validation of read sets
//! against the highest finished versions, `ESTIMATE` markers + dependency
//! suspension for known-stale reads, and a collaborative scheduler driving both
//! task kinds from two atomic counters.
//!
//! Conflicts are tracked — and data is moved — per
//! [`StateKey`](blockconc_store::StateKey)-granular *cell* (balance/nonce pair,
//! individual storage slot, deployed code — see [`crate::mvcc`]): a transaction
//! only aborts when a cell it actually consumed changes under it, and it only
//! pays for the cells it touches. Calls into one shared contract run side by
//! side at a per-call cost that does not depend on how many slots the contract
//! holds: reads resolve one cell ([`MvView`]), the [`ScratchState`] over it
//! materializes sparse accounts and harvests only touched keys, and the commit
//! sets each final cell on the resident account in place. Pure credits and
//! `SAdd` increments land as commutative *delta* contributions, so a hot sink
//! that nobody reads within the block orders nothing.
//!
//! What a conflict-free transaction pays beyond executing is kept small:
//! each key it touches is interned once, into a [`CellId`] its read set, write
//! list and the version store all index by, and after the execution its
//! served cells are sorted once and matched to the write set and the access
//! set by binary search and sorted merge, not looked up again; its results
//! land in one locked slot per transaction; every buffer it records into —
//! undo journal, access set, harvest, read and write lists — is its worker's,
//! cleared and reused; and the block's scaffolding — version store,
//! scheduler vectors, result slots, worker scratches — is the engine's own,
//! reset (not rebuilt) at every block start and lent to the pool's jobs for
//! the run, the way the state is. The calling thread is one of the workers.

use crate::mvcc::{fold_delta, Aligned, CellId, CellValue, CellWrite, MvMemory, ReadOrigin, Stamp};
use crate::occ::lend_state;
use crate::thread_pool::{Job, WorkerPool};
use crate::{ExecutionEngine, ExecutionReport};
use blockconc_account::vm::Contract;
use blockconc_account::{
    decode_contract, AccessSet, Account, AccountBlock, BlockExecutor, CellView, ExecutedBlock,
    Journal, Receipt, ScratchState, StateAccess, WorldState,
};
use blockconc_store::{FragmentValue, StateFragment, StateKey};
use blockconc_types::{Address, Amount, Gas, Result};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Incarnation ceiling per transaction. Exceeding it means validation keeps
/// invalidating the same transaction (pathological contention); the engine then
/// abandons the optimistic run — the target state is untouched until the final
/// install, so falling back to plain sequential execution is trivially correct.
const MAX_INCARNATIONS: u32 = 32;

// ---------------------------------------------------------------------------
// The per-transaction versioned view.
// ---------------------------------------------------------------------------

/// What one cell holds, as served to an execution.
#[derive(Debug, Clone)]
enum Served {
    /// Balance and nonce; `None` when the account does not exist.
    Meta(Option<(u64, u64)>),
    /// One storage slot (zero when absent).
    Slot(u64),
    /// The deployed code, if any.
    Code(Option<Arc<Contract>>),
}

impl Served {
    /// What a buffered fragment of `key` holds (`None`: the part was deleted).
    fn from_fragment(key: StateKey, fragment: Option<FragmentValue>) -> Self {
        match (key, fragment) {
            (StateKey::Balance(_), None) => Served::Meta(None),
            (
                StateKey::Balance(_),
                Some(FragmentValue::Meta {
                    balance_sats,
                    nonce,
                }),
            ) => Served::Meta(Some((balance_sats, nonce))),
            (StateKey::Storage(..), None) => Served::Slot(0),
            (StateKey::Storage(..), Some(FragmentValue::Slot(value))) => Served::Slot(value),
            (StateKey::Code(_), None) => Served::Code(None),
            (StateKey::Code(_), Some(FragmentValue::Code(code))) => Served::Code(Some(
                decode_contract(&code).expect("code this build serialized"),
            )),
            (key, fragment) => unreachable!("fragment {fragment:?} buffered under {key:?}"),
        }
    }

    /// What a base account holds under `key` (`None`: no such account).
    fn from_base(key: StateKey, account: Option<&Account>) -> Self {
        match key {
            StateKey::Balance(_) => Served::Meta(account.map(|a| (a.balance().sats(), a.nonce()))),
            StateKey::Storage(_, slot) => Served::Slot(account.map_or(0, |a| a.storage_get(slot))),
            StateKey::Code(_) => Served::Code(account.and_then(|a| a.code().cloned())),
        }
    }

    /// Folds one commutative contribution on top. A missing account is created
    /// empty first — the blind-credit account-creation side effect.
    fn plus(self, key: StateKey, amount: u64) -> Self {
        match self {
            Served::Meta(meta) => {
                let (balance, nonce) = meta.unwrap_or((0, 0));
                Served::Meta(Some((fold_delta(key, balance, amount), nonce)))
            }
            Served::Slot(value) => Served::Slot(fold_delta(key, value, amount)),
            Served::Code(_) => unreachable!("delta buffered under a code cell"),
        }
    }
}

/// One served cell: its key, its id, its value and where every part of it
/// came from.
#[derive(Debug)]
struct ServedCell {
    key: StateKey,
    id: CellId,
    value: Served,
    /// The fragment the write level resolved to; `None` is the base state. A
    /// delta-only cell still resolves its write level from base — that `Base`
    /// origin is what invalidates a reader when a fragment appears later.
    write: Option<Stamp>,
    /// The folded delta contributors, ascending: a run of the view's
    /// `contributions`.
    deltas: Range<usize>,
}

/// What a view reads through during one block run.
#[derive(Debug)]
struct Lent {
    mv: Arc<MvMemory>,
    base: Arc<WorldState>,
}

impl Lent {
    /// Resolves `key`'s cell for transaction `tx_index` through the version
    /// map over the base state, appending its delta contributors to
    /// `contributions`.
    fn serve(
        &self,
        key: StateKey,
        tx_index: usize,
        contributions: &mut Vec<(Stamp, u64)>,
    ) -> ServedCell {
        let first = contributions.len();
        let (id, write) = self.mv.serve(key, tx_index, contributions);
        let (value, write) = match write {
            Some((stamp, fragment)) => (Served::from_fragment(key, fragment), Some(stamp)),
            // A base miss means the account does not exist.
            None => (
                Served::from_base(key, self.base.account(key.address())),
                None,
            ),
        };
        let deltas = first..contributions.len();
        let value = contributions[deltas.clone()]
            .iter()
            .fold(value, |value, &(_, amount)| value.plus(key, amount));
        ServedCell {
            key,
            id,
            value,
            write,
            deltas,
        }
    }
}

/// A [`CellView`] that resolves each cell through the multi-version map,
/// falling through to the immutable pre-block state.
///
/// Each worker's [`ScratchState`] owns one `MvView` by value, so the
/// unmodified sequential executor runs on top of it: every read misses the
/// (sparse) working set and lands here as a single-cell question — a direct
/// call, no lock. The first question about a key interns it and resolves its
/// cell under one stripe lock ([`MvMemory::serve`]); the view answers with the highest fragment below the reader plus the
/// deltas stacked on it or, failing that, the base state's own value, and
/// keeps key, id, value and origins for the rest of the execution, in serve
/// order — one stable snapshot per cell; every question, first or repeated,
/// hashes its key once, into the index of that table. Once the execution and
/// its harvest are over, [`sort_served`](MvView::sort_served) sorts the
/// served cells by key, once: the write list takes its ids by binary search
/// ([`cell_id`](MvView::cell_id)), and
/// [`consumed_reads`](MvView::consumed_reads) merges them against the sorted
/// access set. Neither hashes a key again. That projection of the origins
/// onto the keys the transaction actually consumed is the validation read
/// set; a slot-7 write is invisible to a slot-3 reader because nothing ever
/// asked about slot 7.
///
/// The view belongs to its worker's scratch, which the engine keeps across
/// blocks. The version store and the base state are lent to it for one block
/// run ([`MvView::lend`]) and dropped at the run's end
/// ([`MvView::release`]), so no handle on either outlives its block.
#[derive(Debug, Default)]
pub(crate) struct MvView {
    lent: Option<Lent>,
    tx_index: usize,
    /// The cells served to the current execution: in serve order, then in
    /// key order once [`sort_served`](MvView::sort_served) has run.
    served: Vec<ServedCell>,
    /// Key → position in serve order, for the execution's questions.
    index: HashMap<StateKey, usize>,
    /// The delta contributions folded into the served cells, each cell's a
    /// contiguous run.
    contributions: Vec<(Stamp, u64)>,
    /// Whether `served` is in key order; no cell is served after that.
    sorted: bool,
}

impl MvView {
    /// Points the view at a block run's version store and pre-block state.
    fn lend(&mut self, mv: Arc<MvMemory>, base: Arc<WorldState>) {
        self.lent = Some(Lent { mv, base });
    }

    /// Drops the view's handles on the block run and its cached cells, whose
    /// ids die with the block.
    fn release(&mut self) {
        self.lent = None;
        self.reset(0);
    }

    /// Re-arms the view for another transaction, keeping the allocated capacity
    /// of the cell cache — the view is reused by its worker for every execution
    /// instead of being rebuilt per transaction.
    fn reset(&mut self, tx_index: usize) {
        self.tx_index = tx_index;
        self.served.clear();
        self.index.clear();
        self.contributions.clear();
        self.sorted = false;
    }

    fn lent(&self) -> &Lent {
        self.lent
            .as_ref()
            .expect("a view reads only during a block run")
    }

    /// Serves one cell: from this execution's cache, else resolved through the
    /// version map over the base state. Either way the key is hashed once.
    fn cell(&mut self, key: StateKey) -> &ServedCell {
        debug_assert!(!self.sorted, "a cell asked for after the sort");
        let at = match self.index.entry(key) {
            Entry::Occupied(found) => *found.get(),
            Entry::Vacant(slot) => {
                let lent = self
                    .lent
                    .as_ref()
                    .expect("a view reads only during a block run");
                self.served
                    .push(lent.serve(key, self.tx_index, &mut self.contributions));
                *slot.insert(self.served.len() - 1)
            }
        };
        &self.served[at]
    }

    /// Sorts the served cells by key, for [`cell_id`](MvView::cell_id) and
    /// [`consumed_reads`](MvView::consumed_reads). Called once per execution,
    /// after the harvest — the last step that may serve a cell. Each cell
    /// carries its key and its contributors' run, so the cells move freely;
    /// the index is stale from here on.
    fn sort_served(&mut self) {
        self.served.sort_unstable_by_key(|cell| cell.key);
        self.sorted = true;
    }

    /// The served cell of `key`, found by binary search in the sorted cells.
    fn served(&self, key: StateKey) -> Option<&ServedCell> {
        debug_assert!(self.sorted, "served cells unsorted");
        self.served
            .binary_search_by_key(&key, |cell| cell.key)
            .ok()
            .map(|found| &self.served[found])
    }

    /// The cell id of `key`: the served one, or interned now — a blind delta
    /// writes a key nobody served, and a recorded key may never have been
    /// observed.
    fn cell_id(&self, key: StateKey) -> CellId {
        match self.served(key) {
            Some(cell) => cell.id,
            None => self.lent().mv.cell_id(key),
        }
    }

    /// Appends the consumed reads of one served cell to `out` and folds its
    /// blocking estimate writers (if any) into `blocked`. A delta-accumulated
    /// cell contributes one write-level origin plus one `Delta` origin per
    /// contributor: observing the folded value makes the reader ordered after
    /// every contributor.
    fn push_consumed(
        &self,
        cell: &ServedCell,
        out: &mut Vec<(CellId, ReadOrigin)>,
        blocked: &mut Option<usize>,
    ) {
        let contributors = &self.contributions[cell.deltas.clone()];
        out.push((
            cell.id,
            cell.write.map_or(ReadOrigin::Base, |stamp| {
                ReadOrigin::Version(stamp.txn, stamp.incarnation)
            }),
        ));
        out.extend(
            contributors
                .iter()
                .map(|(stamp, _)| (cell.id, ReadOrigin::Delta(stamp.txn, stamp.incarnation))),
        );
        // The *lowest-indexed* estimate writer: suspending on the earliest
        // blocker resumes as soon as any stale input can change, instead of
        // waiting out a higher-indexed writer first.
        let stamps = cell
            .write
            .iter()
            .chain(contributors.iter().map(|(stamp, _)| stamp));
        for stamp in stamps {
            if stamp.estimate {
                *blocked = Some(blocked.map_or(stamp.txn, |b| b.min(stamp.txn)));
            }
        }
    }

    /// [`push_consumed`](MvView::push_consumed) for every key of `keys`
    /// (sorted, as an [`AccessSet`] keeps them), merged against the sorted
    /// served cells.
    fn merge_consumed(
        &self,
        keys: &[StateKey],
        out: &mut Vec<(CellId, ReadOrigin)>,
        blocked: &mut Option<usize>,
    ) {
        let mut served = self.served.iter().peekable();
        for &key in keys {
            while served.next_if(|cell| cell.key < key).is_some() {}
            match served.peek() {
                Some(cell) if cell.key == key => self.push_consumed(cell, out, blocked),
                // A cell the view never served: the access set records some
                // keys ahead of the state operation (a transfer records the
                // receiver before the debit), so a reverted path can leave a
                // recorded key whose cell was never observed. The execution is
                // independent of it, and `Base` is a sound origin: if a lower
                // transaction turns out to have written it, validation aborts
                // conservatively and re-execution converges.
                _ => out.push((self.lent().mv.cell_id(key), ReadOrigin::Base)),
            }
        }
    }

    /// Computes the finished execution's validation read set into `out`
    /// (sorted by cell id, deduplicated) and returns the lowest-indexed
    /// transaction whose `ESTIMATE` the execution consumed, if any — the
    /// dependency to suspend on.
    ///
    /// The consumed keys are the tracked [`AccessSet`] (reads *and* writes — a
    /// written key's fragment-or-not decision depends on its served pre-value,
    /// so writes validate like reads) plus the sender's meta, which every
    /// execution reads for the nonce check before any tracking starts. When the
    /// execution failed (`access` is `None`), everything it observed was decided
    /// by the sender's meta alone. A pure delta contribution
    /// (`access.deltas()`) observes nothing, so it records no read origin at
    /// all — that omission is exactly what lets contributors commute.
    ///
    /// Reads the served cells in key order:
    /// [`sort_served`](MvView::sort_served) must have run.
    fn consumed_reads(
        &self,
        access: Option<&AccessSet>,
        sender: Address,
        out: &mut Vec<(CellId, ReadOrigin)>,
    ) -> Option<usize> {
        out.clear();
        let mut blocked = None;
        // The nonce check serves the sender's meta before anything else.
        let sender = self
            .served(StateKey::Balance(sender))
            .expect("every execution reads its sender's meta");
        self.push_consumed(sender, out, &mut blocked);
        if let Some(access) = access {
            self.merge_consumed(access.reads(), out, &mut blocked);
            self.merge_consumed(access.writes(), out, &mut blocked);
        }
        out.sort_unstable();
        out.dedup();
        blocked
    }
}

impl CellView for MvView {
    fn meta(&mut self, address: Address) -> Option<(Amount, u64)> {
        match self.cell(StateKey::Balance(address)).value {
            Served::Meta(meta) => meta.map(|(balance, nonce)| (Amount::from_sats(balance), nonce)),
            _ => unreachable!("meta cell served a non-meta value"),
        }
    }

    fn slot(&mut self, address: Address, key: u64) -> u64 {
        match self.cell(StateKey::Storage(address, key)).value {
            Served::Slot(value) => value,
            _ => unreachable!("slot cell served a non-slot value"),
        }
    }

    fn contract(&mut self, address: Address) -> Option<Arc<Contract>> {
        match &self.cell(StateKey::Code(address)).value {
            Served::Code(code) => code.clone(),
            _ => unreachable!("code cell served a non-code value"),
        }
    }
}

// ---------------------------------------------------------------------------
// The collaborative scheduler (Block-STM Algorithms 2–3).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxStatus {
    ReadyToExecute(u32),
    Executing(u32),
    Suspended(u32),
    Executed(u32),
    Aborting(u32),
}

#[derive(Debug, Clone, Copy)]
enum Task {
    Execute(usize, u32),
    Validate(usize, u32),
}

#[derive(Debug, Default)]
struct Scheduler {
    n: usize,
    execution_idx: Aligned<AtomicUsize>,
    validation_idx: Aligned<AtomicUsize>,
    /// Times either index was decreased — the done-check re-reads it to detect a
    /// concurrent decrease between its observations.
    decrease_cnt: Aligned<AtomicUsize>,
    num_active: Aligned<AtomicUsize>,
    done_marker: Aligned<AtomicBool>,
    /// Emergency stop (abort bound exceeded): workers drain immediately.
    halted: Aligned<AtomicBool>,
    status: Vec<Aligned<Mutex<TxStatus>>>,
    /// Per-transaction suspended dependents. `add_dependency` registers under this
    /// lock after re-checking the blocking status, and `finish_execution` drains
    /// under it — that mutual exclusion is what prevents lost wake-ups.
    deps: Vec<Aligned<Mutex<Vec<usize>>>>,
}

impl Scheduler {
    /// Re-arms the scheduler for a block of `n` transactions: counters and
    /// flags cleared, every status `ReadyToExecute(0)`, no dependents. The
    /// status and dependency vectors keep their allocations from block to
    /// block.
    fn reset(&mut self, n: usize) {
        self.n = n;
        for counter in [
            &mut self.execution_idx,
            &mut self.validation_idx,
            &mut self.decrease_cnt,
            &mut self.num_active,
        ] {
            *counter.0.get_mut() = 0;
        }
        *self.done_marker.0.get_mut() = false;
        *self.halted.0.get_mut() = false;
        self.status.truncate(n);
        for status in &mut self.status {
            *status.0.get_mut().expect("scheduler status lock") = TxStatus::ReadyToExecute(0);
        }
        self.status
            .resize_with(n, || Aligned(Mutex::new(TxStatus::ReadyToExecute(0))));
        self.deps.truncate(n);
        for deps in &mut self.deps {
            deps.0.get_mut().expect("scheduler deps lock").clear();
        }
        self.deps.resize_with(n, Aligned::default);
    }

    fn status(&self, t: usize) -> std::sync::MutexGuard<'_, TxStatus> {
        self.status[t].0.lock().expect("scheduler status lock")
    }

    fn done(&self) -> bool {
        self.done_marker.0.load(Ordering::SeqCst) || self.halted.0.load(Ordering::SeqCst)
    }

    fn halt(&self) {
        self.halted.0.store(true, Ordering::SeqCst);
    }

    fn halted(&self) -> bool {
        self.halted.0.load(Ordering::SeqCst)
    }

    /// Releases the caller's claimed active-task slot without completing a task.
    /// Every `num_active` increment must be balanced by exactly one release (or
    /// one task completion) — `check_done` relies on the count draining to zero.
    fn release_active(&self) {
        self.num_active.0.fetch_sub(1, Ordering::SeqCst);
    }

    fn decrease_execution_idx(&self, t: usize) {
        self.execution_idx.0.fetch_min(t, Ordering::SeqCst);
        self.decrease_cnt.0.fetch_add(1, Ordering::SeqCst);
    }

    fn decrease_validation_idx(&self, t: usize) {
        self.validation_idx.0.fetch_min(t, Ordering::SeqCst);
        self.decrease_cnt.0.fetch_add(1, Ordering::SeqCst);
    }

    fn check_done(&self) {
        let observed = self.decrease_cnt.0.load(Ordering::SeqCst);
        let exec = self.execution_idx.0.load(Ordering::SeqCst);
        let valid = self.validation_idx.0.load(Ordering::SeqCst);
        if exec.min(valid) >= self.n
            && self.num_active.0.load(Ordering::SeqCst) == 0
            && observed == self.decrease_cnt.0.load(Ordering::SeqCst)
        {
            self.done_marker.0.store(true, Ordering::SeqCst);
        }
    }

    /// Claims transaction `t` for execution if it is ready. Releases the caller's
    /// active-task slot when it is not.
    fn try_incarnate(&self, t: usize) -> Option<u32> {
        if t < self.n {
            let mut status = self.status(t);
            if let TxStatus::ReadyToExecute(i) = *status {
                *status = TxStatus::Executing(i);
                return Some(i);
            }
        }
        self.release_active();
        None
    }

    fn next_version_to_execute(&self) -> Option<Task> {
        if self.execution_idx.0.load(Ordering::SeqCst) >= self.n {
            self.check_done();
            return None;
        }
        self.num_active.0.fetch_add(1, Ordering::SeqCst);
        let idx = self.execution_idx.0.fetch_add(1, Ordering::SeqCst);
        self.try_incarnate(idx).map(|i| Task::Execute(idx, i))
    }

    /// Claims the next validation task. Unlike textbook Block-STM — whose
    /// validation index races ahead over not-yet-executed transactions and is
    /// pulled back wholesale after every finished execution — the index only
    /// advances past `Executed` statuses (CAS-claimed, one winner). At
    /// fine-grained transaction cost the scan-ahead is pure overhead: every
    /// wasted probe is a contended RMW on shared cache lines, and the rescans it
    /// forces serialize the whole pool.
    fn next_version_to_validate(&self) -> Option<Task> {
        let idx = self.validation_idx.0.load(Ordering::SeqCst);
        if idx >= self.n {
            self.check_done();
            return None;
        }
        // Cheap peek before contending on the CAS: the frontier transaction is
        // usually still executing, and bailing here keeps that common case off
        // the shared counters entirely.
        if !matches!(*self.status(idx), TxStatus::Executed(_)) {
            return None;
        }
        self.num_active.0.fetch_add(1, Ordering::SeqCst);
        if self
            .validation_idx
            .0
            .compare_exchange(idx, idx + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            self.release_active();
            return None;
        }
        // Claim first, read the incarnation AFTER (Block-STM's ordering): the
        // peek above is only a hint. Between peek and CAS the transaction can
        // abort and re-execute (pulling validation_idx back to idx, which is
        // what lets this CAS win); labelling the claimed pass with the peeked
        // incarnation would validate the new incarnation's read set under the
        // stale label, so a failure could never abort it. Reading after the
        // claim restores the invariant: either this pass sees the latest
        // `Executed` incarnation, or `finish_execution` observes
        // `validation_idx > idx` and schedules its own revalidation.
        match *self.status(idx) {
            TxStatus::Executed(i) => Some(Task::Validate(idx, i)),
            _ => {
                // Aborted (or re-executing) since the claim: hand the frontier
                // back so the next incarnation gets its own validation pass.
                self.decrease_validation_idx(idx);
                self.release_active();
                None
            }
        }
    }

    fn next_task(&self) -> Option<Task> {
        // Prefer validation when it lags execution, but fall through to an
        // execution task when the validation frontier is not claimable (its
        // transaction still executing) — otherwise the pool would idle behind
        // one slow transaction.
        if self.validation_idx.0.load(Ordering::SeqCst)
            < self.execution_idx.0.load(Ordering::SeqCst)
        {
            if let Some(task) = self.next_version_to_validate() {
                return Some(task);
            }
        }
        self.next_version_to_execute()
    }

    /// Suspends `t` on `blocking`. Returns `false` (caller should retry execution
    /// immediately) when the blocking transaction finished in the meantime.
    fn add_dependency(&self, t: usize, blocking: usize) -> bool {
        let mut deps = self.deps[blocking].0.lock().expect("scheduler deps lock");
        if matches!(*self.status(blocking), TxStatus::Executed(_)) {
            return false;
        }
        {
            let mut status = self.status(t);
            if let TxStatus::Executing(i) = *status {
                *status = TxStatus::Suspended(i);
            }
        }
        deps.push(t);
        drop(deps);
        self.release_active();
        true
    }

    fn resume_dependencies(&self, dependents: &[usize]) {
        let mut min_idx = usize::MAX;
        for &dep in dependents {
            let mut status = self.status(dep);
            if let TxStatus::Suspended(i) = *status {
                *status = TxStatus::ReadyToExecute(i);
            }
            drop(status);
            min_idx = min_idx.min(dep);
        }
        if min_idx != usize::MAX {
            self.decrease_execution_idx(min_idx);
        }
    }

    fn finish_execution(&self, t: usize, i: u32, wrote_new_path: bool) -> Option<Task> {
        *self.status(t) = TxStatus::Executed(i);
        let dependents = std::mem::take(&mut *self.deps[t].0.lock().expect("scheduler deps lock"));
        self.resume_dependencies(&dependents);
        if self.validation_idx.0.load(Ordering::SeqCst) > t {
            if wrote_new_path {
                // Everything from t upwards must revalidate against the new writes.
                self.decrease_validation_idx(t);
            } else {
                // Only t itself needs (re)validation: do it on this worker.
                return Some(Task::Validate(t, i));
            }
        }
        self.release_active();
        None
    }

    /// Flips `(t, i)` from `Executed` to `Aborting` — fails if a different
    /// incarnation got there first (at most one validation aborts each incarnation).
    fn try_validation_abort(&self, t: usize, i: u32) -> bool {
        let mut status = self.status(t);
        if *status == TxStatus::Executed(i) {
            *status = TxStatus::Aborting(i);
            true
        } else {
            false
        }
    }

    fn finish_validation(&self, t: usize, aborted: bool) -> Option<Task> {
        if aborted {
            {
                let mut status = self.status(t);
                if let TxStatus::Aborting(i) = *status {
                    *status = TxStatus::ReadyToExecute(i + 1);
                }
            }
            self.decrease_validation_idx(t + 1);
            if self.execution_idx.0.load(Ordering::SeqCst) > t {
                // Re-execute the aborted transaction on this worker right away
                // (try_incarnate releases the active slot if someone else claims it).
                return self.try_incarnate(t).map(|i| Task::Execute(t, i));
            }
        }
        self.release_active();
        None
    }
}

// ---------------------------------------------------------------------------
// The per-block run context shared by the workers.
// ---------------------------------------------------------------------------

/// Deterministic validation-failure injection for the equivalence oracle: forces
/// an abort of roughly `percent`% of the transactions at incarnation 0, exercising
/// the abort / estimate / re-execution machinery on workloads that would otherwise
/// not conflict. Injection never fires past incarnation 0, so termination is
/// unaffected, and the re-execution converges to the same state — which is exactly
/// what the oracle asserts.
#[derive(Debug, Clone, Copy)]
pub struct AbortInjection {
    /// Seed mixed with the transaction index.
    pub seed: u64,
    /// Share of transactions to abort once, in percent (0–100).
    pub percent: u8,
}

impl AbortInjection {
    fn fires(&self, tx_index: usize) -> bool {
        // splitmix64 of (seed ⊕ index): deterministic across runs and schedules.
        let mut z = self.seed ^ (tx_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 100) < self.percent as u64
    }
}

/// One transaction's results: written by its latest execution, read by its
/// validations and by the commit. One lock per transaction, on a cache line of
/// its own, so the two workers finishing neighbouring transactions do not
/// trade a line.
#[derive(Debug, Default)]
struct TxSlot {
    /// The latest receipt.
    receipt: Option<Receipt>,
    /// The latest validation read set, sorted by cell id.
    reads: Vec<(CellId, ReadOrigin)>,
    /// Cells the latest incarnation wrote, sorted: the next incarnation's
    /// stale sweep and `wrote_new_path` check, and what an abort marks as
    /// estimates.
    writes: Vec<CellId>,
    /// Addresses the latest incarnation dirtied without writing a cell: every
    /// key it wrote diffed to "unchanged", or its contribution reverted to
    /// nothing. Sequential execution still journals such an account, so the
    /// commit touches it; every other dirtied address has a cell whose install
    /// marks it.
    touched: Vec<Address>,
    /// Whether the transaction was aborted at least once (the conflict count).
    aborted: bool,
}

/// A slot once its run is over: no worker holds it any more.
fn settled(slot: &mut Aligned<Mutex<TxSlot>>) -> &mut TxSlot {
    slot.0.get_mut().expect("transaction slot lock")
}

impl TxSlot {
    fn reset(&mut self) {
        self.receipt = None;
        self.reads.clear();
        self.writes.clear();
        self.touched.clear();
        self.aborted = false;
    }
}

/// The per-block run context shared by the workers.
struct RunCtx {
    mv: Arc<MvMemory>,
    block: AccountBlock,
    scheduler: Scheduler,
    /// One result slot per transaction (at least `block`'s count; the rest
    /// are kept from larger blocks and never read).
    slots: Vec<Aligned<Mutex<TxSlot>>>,
    /// The worker scratches, handed back by their jobs once released.
    returned: Mutex<Vec<WorkerScratch>>,
    executions: AtomicU64,
    validations: AtomicU64,
    aborts: AtomicU64,
    fell_back: AtomicBool,
    abort_injection: Option<AbortInjection>,
}

/// One worker's reusable execution machinery, kept by the engine across
/// blocks and recycled across every transaction the worker executes: the
/// [`ScratchState`] that owns the worker's versioned view, the executor, and
/// local task counters (flushed into the shared totals when the worker
/// drains). Rebuilt per transaction — allocation, view set-up, atomics — they
/// would cost several times the transaction itself.
#[derive(Debug)]
struct WorkerScratch {
    state: ScratchState<MvView>,
    /// The delta-emitting executor: pure credits and `SAdd` increments
    /// accumulate as pending deltas instead of materializing the target
    /// account, and land in the version map as commutative
    /// `CellValue::Delta` contributions.
    executor: BlockExecutor,
    /// Reusable undo journal the executor records into (nothing reads it:
    /// the scratch state is reset instead of reverted).
    journal: Journal,
    /// Reusable access set the executor records into.
    access: AccessSet,
    /// Reusable cell-write buffer: filled from the harvested write set, drained
    /// by `MvMemory::apply` — the values move into the version map and the
    /// vector's capacity survives for the next transaction.
    writes: Vec<CellWrite>,
    /// Reusable fragment buffer for `ScratchState::take_write_fragments`.
    fragments: Vec<StateFragment>,
    /// Reusable delta-op buffer for `ScratchState::take_delta_ops`.
    delta_ops: Vec<(StateKey, u64)>,
    /// Reusable written-cells buffer, swapped into the slot's `writes`.
    cells: Vec<CellId>,
    /// Reusable dirty-addresses buffer, swapped into the slot's `touched`.
    addrs: Vec<Address>,
    /// Reusable consumed-read-set buffer, swapped into the slot's `reads`.
    reads: Vec<(CellId, ReadOrigin)>,
    executions: u64,
    validations: u64,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            state: ScratchState::new(MvView::default()),
            executor: BlockExecutor::with_delta_accesses(),
            journal: Journal::new(),
            access: AccessSet::new(),
            writes: Vec::new(),
            fragments: Vec::new(),
            delta_ops: Vec::new(),
            cells: Vec::new(),
            addrs: Vec::new(),
            reads: Vec::new(),
            executions: 0,
            validations: 0,
        }
    }
}

impl RunCtx {
    fn slot(&self, t: usize) -> std::sync::MutexGuard<'_, TxSlot> {
        self.slots[t].0.lock().expect("transaction slot lock")
    }

    fn execute_task(&self, t: usize, i: u32, ws: &mut WorkerScratch) -> Option<Task> {
        if i >= MAX_INCARNATIONS {
            self.fell_back.store(true, Ordering::SeqCst);
            self.scheduler.halt();
            // Balance the claimed active-task slot even though halt()
            // short-circuits done() today: the every-claim-is-released
            // invariant must not depend on halt staying a hard stop (e.g. a
            // future graceful drain).
            self.scheduler.release_active();
            return None;
        }
        let tx = &self.block.transactions()[t];
        loop {
            ws.executions += 1;
            // No commit per transaction: the write set is harvested straight
            // out of the scratch state below.
            ws.state.cells_mut().reset(t);
            ws.state.reset_working_set();
            let (receipt, recorded) = match ws.executor.execute_recorded(
                &mut ws.state,
                tx,
                &mut ws.journal,
                &mut ws.access,
            ) {
                Ok(receipt) => (receipt, true),
                Err(err) => (Receipt::failure(tx.id(), Gas::ZERO, err.to_string()), false),
            };
            // Harvest the write set as cell writes: one fragment per touched
            // key whose value changed (unchanged keys vanish here), plus one
            // commutative contribution per pending delta.
            ws.state
                .take_write_fragments(&mut ws.fragments, &mut ws.addrs);
            ws.state.take_delta_ops(&mut ws.delta_ops);
            // The address is touched even when the contribution reverted to
            // nothing — sequential execution journals the account either way,
            // and the commit reproduces that. A zero addend installs no cell:
            // readers must not observe (and depend on) a no-op. Dirty
            // addresses, fragments and delta ops all come in address order,
            // so what a cell install does not touch falls out of one merge.
            ws.addrs
                .extend(ws.delta_ops.iter().map(|(key, _)| key.address()));
            ws.addrs.sort_unstable();
            ws.addrs.dedup();
            let mut by_fragment = ws.fragments.iter().map(|f| f.key.address()).peekable();
            let mut by_delta = ws
                .delta_ops
                .iter()
                .filter(|&&(_, amount)| amount != 0)
                .map(|(key, _)| key.address())
                .peekable();
            ws.addrs.retain(|&address| {
                while by_fragment.next_if(|&a| a < address).is_some() {}
                while by_delta.next_if(|&a| a < address).is_some() {}
                by_fragment.peek() != Some(&address) && by_delta.peek() != Some(&address)
            });
            ws.state.cells_mut().sort_served();
            let view = ws.state.cells();
            ws.writes.clear();
            ws.writes.extend(ws.fragments.drain(..).map(|f| CellWrite {
                cell: view.cell_id(f.key),
                value: CellValue::Fragment(f.value),
            }));
            ws.writes.extend(
                ws.delta_ops
                    .drain(..)
                    .filter(|&(_, amount)| amount != 0)
                    .map(|(key, amount)| CellWrite {
                        cell: view.cell_id(key),
                        value: CellValue::Delta(amount),
                    }),
            );
            // `MvMemory::apply` expects the writes sorted by cell.
            ws.writes.sort_unstable_by_key(|w| w.cell);
            let access = recorded.then_some(&ws.access);
            let blocked_on = view.consumed_reads(access, tx.sender(), &mut ws.reads);
            // Every write must be a consumed key — otherwise its fragment-or-not
            // decision would escape validation. Delta contributions are exempt:
            // they observe nothing by construction, which is exactly what makes
            // them commute.
            debug_assert!(
                ws.writes
                    .iter()
                    .filter(|w| !matches!(w.value, CellValue::Delta(_)))
                    .all(|w| ws.reads.iter().any(|&(cell, _)| cell == w.cell)),
                "write cell outside the consumed key set"
            );
            if let Some(blocking) = blocked_on {
                if self.scheduler.add_dependency(t, blocking) {
                    return None; // parked until the blocking transaction finishes
                }
                continue; // blocker finished in the meantime: retry immediately
            }
            ws.cells.clear();
            ws.cells.extend(ws.writes.iter().map(|w| w.cell));
            let wrote_new_path = {
                let mut slot = self.slot(t);
                let new_path = self.mv.apply(t, i, &mut ws.writes, &slot.writes);
                // The previous incarnation's buffers come back to the worker
                // for its next transaction — capacity circulates instead of
                // being reallocated.
                std::mem::swap(&mut slot.writes, &mut ws.cells);
                std::mem::swap(&mut slot.touched, &mut ws.addrs);
                std::mem::swap(&mut slot.reads, &mut ws.reads);
                slot.receipt = Some(receipt);
                new_path
            };
            return self.scheduler.finish_execution(t, i, wrote_new_path);
        }
    }

    fn validate_task(&self, t: usize, i: u32, ws: &mut WorkerScratch) -> Option<Task> {
        ws.validations += 1;
        let mut slot = self.slot(t);
        let mut valid = self.mv.validate_reads(t, &slot.reads);
        if valid && i == 0 {
            if let Some(injection) = self.abort_injection {
                if injection.fires(t) {
                    valid = false;
                }
            }
        }
        let aborted = !valid && self.scheduler.try_validation_abort(t, i);
        if aborted {
            self.aborts.fetch_add(1, Ordering::SeqCst);
            slot.aborted = true;
            self.mv.convert_writes_to_estimates(t, &slot.writes);
        }
        drop(slot);
        self.scheduler.finish_validation(t, aborted)
    }
}

fn worker_loop(ctx: &RunCtx, ws: &mut WorkerScratch) {
    let mut task: Option<Task> = None;
    loop {
        if ctx.scheduler.halted() {
            break;
        }
        task = match task {
            Some(Task::Execute(t, i)) => ctx.execute_task(t, i, ws),
            Some(Task::Validate(t, i)) => ctx.validate_task(t, i, ws),
            None => {
                if ctx.scheduler.done() {
                    break;
                }
                let next = ctx.scheduler.next_task();
                if next.is_none() {
                    std::thread::yield_now();
                }
                next
            }
        };
    }
    // One flush per worker instead of one contended RMW per task.
    ctx.executions
        .fetch_add(std::mem::take(&mut ws.executions), Ordering::Relaxed);
    ctx.validations
        .fetch_add(std::mem::take(&mut ws.validations), Ordering::Relaxed);
}

/// The scaffolding of a block run, which the engine keeps from block to
/// block: the version store, the scheduler's per-transaction status and
/// dependency vectors, one result slot per transaction and one scratch per
/// worker. Each is reset at block start — cleared, capacity kept — and lent
/// to the pool's jobs for the run, the way [`lend_state`] lends the state: in
/// an [`Arc`] (or moved into the job) that must come back unique.
#[derive(Debug, Default)]
struct Kept {
    mv: Arc<MvMemory>,
    scheduler: Scheduler,
    slots: Vec<Aligned<Mutex<TxSlot>>>,
    workers: Vec<WorkerScratch>,
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

/// The Block-STM-style optimistic parallel engine.
///
/// Workers live in a persistent [`WorkerPool`] (spawned once at construction, no
/// per-block thread startup). Per block, every transaction executes optimistically
/// — in block order by preference — over a multi-version view of the pre-block
/// state; read sets are validated lazily against the highest finished versions;
/// invalidated transactions re-execute (bounded, see below); and the block commits
/// by installing the final buffered write sets into the `WorldState` directly —
/// nothing is re-executed to commit.
///
/// The committed state transition, receipts and `state_root` are bit-identical to
/// [`SequentialEngine`](crate::SequentialEngine) — enforced by a proptest
/// equivalence oracle on both memory and disk backends, including forced-abort
/// interleavings.
///
/// **Delta cells:** pure credits and `SAdd` increments install as commutative
/// contributions instead of ordered writes. Contributions to one hot cell
/// commute — no aborts, no ordering — and fold over the base value at read and
/// commit time; a transaction that *reads* the accumulated cell becomes ordered
/// after the exact contributor set it observed. Upstream schedulers learn this
/// through [`ExecutionEngine::commutes_deltas`], which is always `true` here.
///
/// **Abort bound:** a transaction may re-execute at most 32 incarnations. Beyond
/// that the optimistic run halts and the whole block falls back to sequential
/// execution (counted in [`ExecutionReport::sequential_fallbacks`]); the fallback
/// is trivially correct because the target state is not touched until the final
/// install.
///
/// **Kept scaffolding:** the version store, the scheduler's per-transaction
/// vectors, the result slots and the worker scratches belong to the engine and
/// are reset, not rebuilt, at every block start, so a run of similar blocks
/// allocates almost nothing after the first. A worker panic discards them.
///
/// # Examples
///
/// See the [crate documentation](crate).
#[derive(Debug)]
pub struct OptimisticEngine {
    threads: usize,
    pool: WorkerPool,
    executor: BlockExecutor,
    abort_injection: Option<AbortInjection>,
    kept: Kept,
}

impl OptimisticEngine {
    /// Creates an engine whose persistent pool holds `threads` workers.
    /// Conflicts are tracked, and data moved, per
    /// [`StateKey`](blockconc_store::StateKey), with commutative delta cells
    /// for pure credits and `SAdd` increments.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        OptimisticEngine {
            threads,
            pool: WorkerPool::new(threads),
            executor: BlockExecutor::new(),
            abort_injection: None,
            kept: Kept::default(),
        }
    }

    /// Returns `self` unchanged. Delta cells are what the engine always does;
    /// the builder stays only because the wall-clock benchmark's frozen
    /// surface still calls it.
    pub fn with_delta_cells(self) -> Self {
        self
    }

    /// Test hook: deterministically force validation failures (see
    /// [`AbortInjection`]). Used by the equivalence oracle to cover abort /
    /// re-execution interleavings; the committed state must stay bit-identical.
    pub fn with_forced_aborts(mut self, injection: AbortInjection) -> Self {
        self.abort_injection = Some(injection);
        self
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        x: usize,
        conflicted: usize,
        executions: u64,
        validations: u64,
        aborts: u64,
        fallbacks: u64,
        delta_merges: u64,
        delta_downgrades: u64,
    ) -> ExecutionReport {
        ExecutionReport {
            validations,
            aborts,
            re_executions: executions.saturating_sub(x as u64),
            sequential_fallbacks: fallbacks,
            delta_merges,
            delta_downgrades,
            ..ExecutionReport::new(
                self.name(),
                self.threads,
                x,
                conflicted,
                conflicted,
                executions.div_ceil(self.threads as u64),
            )
        }
    }
}

impl ExecutionEngine for OptimisticEngine {
    fn name(&self) -> &'static str {
        "optimistic"
    }

    fn commutes_deltas(&self) -> bool {
        true
    }

    fn execute(
        &mut self,
        state: &mut WorldState,
        block: &AccountBlock,
    ) -> Result<(ExecutedBlock, ExecutionReport)> {
        let x = block.transaction_count();
        if x == 0 {
            let executed = ExecutedBlock::new(block.clone(), Vec::new());
            return Ok((executed, self.report(0, 0, 0, 0, 0, 0, 0, 0)));
        }

        let kept = &mut self.kept;
        Arc::get_mut(&mut kept.mv)
            .expect("the version store came back from the last block")
            .reset();
        kept.scheduler.reset(x);
        if kept.slots.len() < x {
            kept.slots.resize_with(x, Aligned::default);
        }
        for slot in &mut kept.slots[..x] {
            settled(slot).reset();
        }
        let jobs = self.threads.min(x);
        let mut workers = std::mem::take(&mut kept.workers);
        workers.resize_with(workers.len().max(jobs), WorkerScratch::new);
        let spare = workers.split_off(jobs);
        let ctx = Arc::new(RunCtx {
            mv: Arc::clone(&kept.mv),
            block: block.clone(),
            scheduler: std::mem::take(&mut kept.scheduler),
            slots: std::mem::take(&mut kept.slots),
            returned: Mutex::new(spare),
            executions: AtomicU64::new(0),
            validations: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            fell_back: AtomicBool::new(false),
            abort_injection: self.abort_injection,
        });

        // The workers only read the state: it is back in `*state`, untouched,
        // before any exit path below. Each job lends its scratch's view the
        // version store and the base for the run and hands the scratch back
        // released; a panicking job drops its scratch, handles and all.
        let run = lend_state(state, |base| {
            let tasks: Vec<Job> = workers
                .into_iter()
                .map(|mut ws| {
                    let (ctx, base) = (Arc::clone(&ctx), Arc::clone(base));
                    Box::new(move || {
                        ws.state.cells_mut().lend(Arc::clone(&ctx.mv), base);
                        worker_loop(&ctx, &mut ws);
                        ws.state.cells_mut().release();
                        ctx.returned.lock().expect("returned-scratch lock").push(ws);
                    }) as Job
                })
                .collect();
            self.pool.run_tasks(tasks)
        });

        // Every job has been consumed (even on panic), so the context is unique
        // again.
        let ctx = match Arc::try_unwrap(ctx) {
            Ok(ctx) => ctx,
            Err(_) => unreachable!("pool drained all jobs"),
        };
        let RunCtx {
            mv,
            block: run_block,
            scheduler,
            slots,
            returned,
            executions,
            validations,
            aborts,
            fell_back,
            ..
        } = ctx;
        drop(mv);
        if let Err(err) = run {
            // A worker panicked mid-update: start the next block from fresh
            // scaffolding rather than from whatever it left behind.
            *kept = Kept::default();
            return Err(err);
        }
        kept.scheduler = scheduler;
        kept.slots = slots;
        kept.workers = returned.into_inner().expect("returned-scratch lock");

        let executions = executions.into_inner();
        let validations = validations.into_inner();
        let abort_count = aborts.into_inner();
        // Delta attribution, from the committed run itself: downgrades are the
        // committed reads that ordered themselves after commutative
        // contributors, merges (below) the contributions live in the version
        // map. Both are schedule-independent — the final read sets validated
        // against the final version map.
        let slots = &mut kept.slots[..x];
        let (mut conflicted, mut delta_downgrades) = (0, 0u64);
        for slot in slots.iter_mut().map(settled) {
            conflicted += usize::from(slot.aborted);
            delta_downgrades += slot
                .reads
                .iter()
                .filter(|(_, origin)| matches!(origin, ReadOrigin::Delta(_, _)))
                .count() as u64;
        }

        if fell_back.into_inner() {
            // Abort bound exceeded: the state was never touched, so execute
            // sequentially instead.
            let executed = self.executor.execute_block(state, block)?;
            let report = self.report(
                x,
                conflicted,
                executions + x as u64, // the sequential pass re-ran everything
                validations,
                abort_count,
                1,
                // The sequential rerun discards the version map: whatever
                // commuted speculatively did not commit that way.
                0,
                0,
            );
            return Ok((executed, report));
        }

        let mv = Arc::get_mut(&mut kept.mv).expect("every job released the version store");
        // Commit: set each final cell — fragment first, folded delta on top —
        // on the resident account in place; nothing is re-executed and no
        // account is exported, reassembled or re-installed, so the step costs
        // the cells the block wrote. Every `Balance` cell is drained before
        // any `Storage` or `Code` cell, so an account a fragment creates
        // exists by the time its slots land. The drain counts the merges.
        let delta_merges = mv.drain_final_cells(|key, cell| {
            if let Some(fragment) = cell.write {
                state.set_cell(&key, fragment.as_ref());
            }
            match (key, cell.delta) {
                (_, None) => {}
                (StateKey::Balance(address), Some(sum)) => {
                    state.credit(address, Amount::from_sats(sum))
                }
                (StateKey::Storage(address, slot), Some(sum)) => {
                    let value = state.storage(address, slot).wrapping_add(sum);
                    state.storage_set(address, slot, value, None);
                }
                (StateKey::Code(_), Some(_)) => unreachable!("delta buffered under a code cell"),
            }
        });
        // An account whose fragments all diffed away (value written back
        // unchanged) produced no cell, yet sequential execution journals it:
        // the touched lists put it back, so the state marks exactly the
        // addresses a pipeline-level `commit_block` would journal sequentially.
        let mut receipts = Vec::with_capacity(x);
        for slot in slots.iter_mut().map(settled) {
            for &address in &slot.touched {
                state.touch(address);
            }
            receipts.push(slot.receipt.take().expect("every transaction executed"));
        }
        let executed = ExecutedBlock::new(run_block, receipts);
        let report = self.report(
            x,
            conflicted,
            executions,
            validations,
            abort_count,
            0,
            delta_merges,
            delta_downgrades,
        );
        Ok((executed, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialEngine;
    use blockconc_account::{AccountTransaction, BlockBuilder};
    use blockconc_types::{Address, Amount};

    fn funded(users: std::ops::Range<u64>) -> WorldState {
        let mut state = WorldState::new();
        for i in users {
            state.credit(Address::from_low(i), Amount::from_coins(10));
        }
        state
    }

    /// Runs `block` on a 4-worker engine over a copy of `state`, asserts
    /// receipts + state root match the sequential engine's, and returns the
    /// engine's report.
    fn assert_matches_sequential(block: &AccountBlock, state: &WorldState) -> ExecutionReport {
        let mut seq_state = state.clone();
        let (seq_block, _) = SequentialEngine::new()
            .execute(&mut seq_state, block)
            .unwrap();
        let mut opt_state = state.clone();
        let (opt_block, report) = OptimisticEngine::new(4)
            .execute(&mut opt_state, block)
            .unwrap();
        assert_eq!(seq_block.receipts(), opt_block.receipts());
        assert_eq!(seq_state.state_root(), opt_state.state_root());
        report
    }

    #[test]
    fn independent_transfers_have_no_conflicts() {
        let txs = (0..32u64).map(|i| {
            AccountTransaction::transfer(
                Address::from_low(100 + i),
                Address::from_low(10_000 + i),
                Amount::from_sats(5),
                0,
            )
        });
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        let mut state = funded(100..140);
        let (executed, report) = OptimisticEngine::new(8)
            .execute(&mut state, &block)
            .unwrap();
        assert!(executed.receipts().iter().all(|r| r.succeeded()));
        assert_eq!(report.conflicted_transactions, 0);
        assert_eq!(report.re_executions, 0);
        assert_eq!(report.sequential_fallbacks, 0);
        assert!(report.validations >= 32);
        assert_eq!(report.parallel_units, 4); // ceil(32/8)
    }

    #[test]
    fn same_sender_nonce_chain_matches_sequential() {
        let mut txs = Vec::new();
        for nonce in 0..6u64 {
            txs.push(AccountTransaction::transfer(
                Address::from_low(100),
                Address::from_low(200 + nonce),
                Amount::from_sats(10),
                nonce,
            ));
        }
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        assert_matches_sequential(&block, &funded(100..101));
    }

    #[test]
    fn hot_account_block_matches_sequential() {
        let hot = Address::from_low(900);
        let mut txs: Vec<_> = (0..12u64)
            .map(|i| {
                AccountTransaction::transfer(
                    Address::from_low(100 + i),
                    hot,
                    Amount::from_sats(1 + i),
                    0,
                )
            })
            .collect();
        // The hot account spends what it received (reads the accumulated balance).
        txs.push(AccountTransaction::transfer(
            hot,
            Address::from_low(800),
            Amount::from_sats(3),
            0,
        ));
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        let mut state = funded(100..120);
        state.credit(hot, Amount::from_coins(1));
        assert_matches_sequential(&block, &state);
    }

    #[test]
    fn bad_nonce_and_unfunded_transactions_match_sequential() {
        let txs = vec![
            // Bad nonce (failure receipt with the sequential error string).
            AccountTransaction::transfer(
                Address::from_low(100),
                Address::from_low(200),
                Amount::from_sats(1),
                7,
            ),
            // Unfunded sender that never existed.
            AccountTransaction::transfer(
                Address::from_low(999_999),
                Address::from_low(201),
                Amount::from_coins(5),
                0,
            ),
            // And a normal transfer.
            AccountTransaction::transfer(
                Address::from_low(101),
                Address::from_low(202),
                Amount::from_sats(5),
                0,
            ),
        ];
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        assert_matches_sequential(&block, &funded(100..110));
    }

    #[test]
    fn forced_aborts_converge_to_the_same_state() {
        let txs = (0..24u64).map(|i| {
            AccountTransaction::transfer(
                Address::from_low(100 + i),
                Address::from_low(10_000 + i),
                Amount::from_sats(5),
                0,
            )
        });
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        let mut seq_state = funded(100..130);
        let mut opt_state = seq_state.clone();
        let (seq_block, _) = SequentialEngine::new()
            .execute(&mut seq_state, &block)
            .unwrap();
        let (opt_block, report) = OptimisticEngine::new(4)
            .with_forced_aborts(AbortInjection {
                seed: 7,
                percent: 50,
            })
            .execute(&mut opt_state, &block)
            .unwrap();
        assert!(report.aborts > 0, "injection must fire");
        assert!(report.re_executions > 0);
        assert_eq!(report.conflicted_transactions as u64, report.aborts);
        assert_eq!(seq_block.receipts(), opt_block.receipts());
        assert_eq!(seq_state.state_root(), opt_state.state_root());
    }

    #[test]
    fn empty_block_is_handled() {
        let block = BlockBuilder::new(1, 0, Address::from_low(1)).build();
        let mut state = WorldState::new();
        let (executed, report) = OptimisticEngine::new(4)
            .execute(&mut state, &block)
            .unwrap();
        assert_eq!(executed.receipts().len(), 0);
        assert_eq!(report.parallel_units, 0);
    }

    #[test]
    fn engine_is_reusable_across_blocks() {
        let mut engine = OptimisticEngine::new(4);
        let mut state = funded(100..160);
        for height in 1..=3u64 {
            let txs = (0..16u64).map(|i| {
                AccountTransaction::transfer(
                    Address::from_low(100 + i),
                    Address::from_low(130 + i),
                    Amount::from_sats(1),
                    height - 1,
                )
            });
            let block = BlockBuilder::new(height, 0, Address::from_low(1))
                .transactions(txs)
                .build();
            let (executed, _) = engine.execute(&mut state, &block).unwrap();
            assert!(
                executed.receipts().iter().all(|r| r.succeeded()),
                "height {height}"
            );
        }
        for i in 0..16u64 {
            assert_eq!(state.nonce(Address::from_low(100 + i)), 3);
            assert_eq!(
                state.balance(Address::from_low(130 + i)),
                Amount::from_coins(10) + Amount::from_sats(3)
            );
        }
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_panics() {
        let _ = OptimisticEngine::new(0);
    }

    /// Regression: `blocked_on` must be the *lowest-indexed* estimate writer.
    /// The first-encountered origin used to win, so a view whose key iteration
    /// happened to hit a higher-indexed blocker first suspended on it and sat
    /// out the earlier writer's re-execution.
    #[test]
    fn blocked_on_is_the_lowest_indexed_estimate_writer() {
        let mv = Arc::new(MvMemory::new());
        // Ascending key order encounters tx 5's estimate (lower address)
        // before tx 2's — a first-encounter fold would return 5.
        let early = Address::from_low(50);
        let late = Address::from_low(60);
        for (txn, address) in [(5usize, early), (2usize, late)] {
            let cell = mv.cell_id(StateKey::Balance(address));
            let mut writes = vec![CellWrite {
                cell,
                value: CellValue::Fragment(Some(FragmentValue::Meta {
                    balance_sats: 1,
                    nonce: 0,
                })),
            }];
            mv.apply(txn, 0, &mut writes, &[]);
            mv.convert_writes_to_estimates(txn, &[cell]);
        }

        let sender = Address::from_low(1);
        let mut base = WorldState::new();
        base.credit(sender, Amount::from_coins(1));
        let mut view = MvView::default();
        view.lend(Arc::clone(&mv), Arc::new(base));
        view.reset(8);
        assert!(view.meta(sender).is_some());
        let served = Some((Amount::from_sats(1), 0));
        assert_eq!(view.meta(early), served);
        assert_eq!(view.meta(late), served);
        view.sort_served();

        let mut access = AccessSet::default();
        access.record_read(StateKey::Balance(early));
        access.record_read(StateKey::Balance(late));
        let mut out = Vec::new();
        let blocked = view.consumed_reads(Some(&access), sender, &mut out);
        assert_eq!(blocked, Some(2));
        assert_eq!(out.len(), 3); // sender meta + the two estimate cells
    }

    /// Every repeated question to a view finds the cell it was first served,
    /// however many it has been served, and the sorted lookups agree with it.
    #[test]
    fn a_view_finds_every_served_cell_again() {
        let mv = Arc::new(MvMemory::new());
        let contract = Address::from_low(7);
        let mut base = WorldState::new();
        for slot in 0..24 {
            base.storage_set(contract, slot, 100 + slot, None);
        }
        let mut view = MvView::default();
        view.lend(Arc::clone(&mv), Arc::new(base));
        view.reset(0);
        let keys: Vec<u64> = (0..24).rev().collect();
        for (served, &slot) in keys.iter().enumerate() {
            assert_eq!(view.slot(contract, slot), 100 + slot);
            // Everything served so far is found again, not served twice.
            for &earlier in &keys[..=served] {
                assert_eq!(view.slot(contract, earlier), 100 + earlier);
            }
            assert_eq!(view.served.len(), served + 1);
        }
        view.sort_served();
        for &slot in &keys {
            let key = StateKey::Storage(contract, slot);
            assert_eq!(view.cell_id(key), mv.cell_id(key));
        }
    }

    /// One call that reads many slots and stores a few: the engine still
    /// commits what sequential execution does.
    #[test]
    fn a_call_touching_many_slots_matches_sequential() {
        use blockconc_account::vm::{Contract, OpCode};

        let contract = Address::from_low(6_000);
        let mut code = Vec::new();
        for slot in 0..40 {
            code.extend([OpCode::Push(slot), OpCode::SLoad, OpCode::Pop]);
        }
        for slot in [3, 17, 39] {
            code.extend([OpCode::Caller, OpCode::Push(slot), OpCode::SStore]);
        }
        let mut state = funded(100..104);
        state.deploy_contract(contract, Arc::new(Contract::new(code)));
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions((0..4u64).map(|i| {
                AccountTransaction::contract_call(
                    Address::from_low(100 + i),
                    contract,
                    Amount::ZERO,
                    Vec::new(),
                    0,
                )
            }))
            .build();
        assert_matches_sequential(&block, &state);
    }

    /// A shared contract whose callers write disjoint storage slots: the
    /// granularity tentpole's headline case. Distinct senders, one contract
    /// account, zero overlapping `StateKey`s.
    fn shared_counter_block(n: u64) -> (WorldState, AccountBlock) {
        use blockconc_account::vm::Contract;

        let contract_addr = Address::from_low(77_777);
        let mut state = funded(100..100 + n);
        state.deploy_contract(contract_addr, Arc::new(Contract::per_caller_counter()));
        let txs = (0..n).map(|i| {
            AccountTransaction::contract_call(
                Address::from_low(100 + i),
                contract_addr,
                Amount::ZERO,
                Vec::new(),
                0,
            )
        });
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        (state, block)
    }

    #[test]
    fn disjoint_slot_writers_never_conflict_at_key_granularity() {
        let (state, block) = shared_counter_block(24);
        let mut seq_state = state.clone();
        let (seq_block, _) = SequentialEngine::new()
            .execute(&mut seq_state, &block)
            .unwrap();
        let mut opt_state = state;
        let mut engine = OptimisticEngine::new(4);
        assert_eq!(engine.name(), "optimistic");
        assert!(engine.commutes_deltas());
        // The frozen builder is the identity.
        let frozen = OptimisticEngine::new(1).with_delta_cells();
        assert_eq!(frozen.name(), engine.name());
        assert!(frozen.commutes_deltas());
        let (opt_block, report) = engine.execute(&mut opt_state, &block).unwrap();
        assert!(opt_block.receipts().iter().all(|r| r.succeeded()));
        assert_eq!(seq_block.receipts(), opt_block.receipts());
        assert_eq!(seq_state.state_root(), opt_state.state_root());
        // The whole point of per-key cells: every transaction touches the shared
        // contract, yet none of them conflict — regardless of schedule.
        assert_eq!(report.aborts, 0);
        assert_eq!(report.re_executions, 0);
        assert_eq!(report.sequential_fallbacks, 0);
    }

    /// The `with_delta_cells()` builder still executes: on the disjoint-slot
    /// workload the `SStore` path stays an ordered fragment write and the
    /// transition stays exact.
    #[test]
    fn delta_cells_match_sequential_on_disjoint_slot_writers() {
        let (state, block) = shared_counter_block(24);
        let mut seq_state = state.clone();
        let (seq_block, _) = SequentialEngine::new()
            .execute(&mut seq_state, &block)
            .unwrap();
        let mut opt_state = state;
        let (opt_block, report) = OptimisticEngine::new(4)
            .with_delta_cells()
            .execute(&mut opt_state, &block)
            .unwrap();
        assert_eq!(seq_block.receipts(), opt_block.receipts());
        assert_eq!(seq_state.state_root(), opt_state.state_root());
        assert_eq!(report.sequential_fallbacks, 0);
    }

    /// Every call of the plain counter loads the slot its predecessor stored: the
    /// reads must be served the lower *version* (value and origin), or validation
    /// can never settle and the block limps home through the sequential fallback
    /// — right answer, no engine.
    #[test]
    fn reads_of_lower_versions_settle_without_the_sequential_fallback() {
        use blockconc_account::vm::Contract;

        let counter = Address::from_low(55_555);
        let mut state = funded(100..108);
        state.deploy_contract(counter, Arc::new(Contract::counter()));
        let txs = (0..8u64).map(|i| {
            AccountTransaction::contract_call(
                Address::from_low(100 + i),
                counter,
                Amount::ZERO,
                Vec::new(),
                0,
            )
        });
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        let report = assert_matches_sequential(&block, &state);
        assert_eq!(report.sequential_fallbacks, 0);
    }

    /// The delta tentpole's headline case: every transaction credits one hot
    /// sink, nobody reads it — the contributions commute, so the block runs
    /// abort-free regardless of schedule.
    #[test]
    fn delta_cells_dissolve_the_hot_deposit_wall() {
        let hot = Address::from_low(900);
        let txs = (0..24u64).map(|i| {
            AccountTransaction::transfer(
                Address::from_low(100 + i),
                hot,
                Amount::from_sats(1 + i),
                0,
            )
        });
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        let state = funded(100..130);
        let report = assert_matches_sequential(&block, &state);
        assert_eq!(report.aborts, 0);
        assert_eq!(report.re_executions, 0);
        assert_eq!(report.sequential_fallbacks, 0);
        assert!(
            report.delta_merges >= 24,
            "every credit commits as a commutative merge, got {}",
            report.delta_merges
        );
        assert_eq!(report.delta_downgrades, 0, "nobody reads the sink");
    }

    /// `fee_sink` callers all `SAdd` the same storage slot: the increments land
    /// as commutative delta cells, so the hottest possible contract slot still
    /// produces zero conflicts.
    #[test]
    fn delta_cells_commute_fee_sink_increments() {
        use blockconc_account::vm::Contract;

        let sink = Address::from_low(88_888);
        let n = 24u64;
        let mut state = funded(100..100 + n);
        state.deploy_contract(sink, Arc::new(Contract::fee_sink()));
        let txs = (0..n).map(|i| {
            AccountTransaction::contract_call(
                Address::from_low(100 + i),
                sink,
                Amount::ZERO,
                vec![i + 1],
                0,
            )
        });
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        let report = assert_matches_sequential(&block, &state);
        assert_eq!(report.aborts, 0);
        assert_eq!(report.re_executions, 0);
        assert!(
            report.delta_merges >= n,
            "every increment commits as a commutative merge, got {}",
            report.delta_merges
        );
        let mut opt_state = state;
        OptimisticEngine::new(4)
            .execute(&mut opt_state, &block)
            .unwrap();
        assert_eq!(opt_state.storage(sink, 0), n * (n + 1) / 2);
    }

    /// A transaction that *spends* the accumulated balance observes the delta
    /// cell: it upgrades to an ordered dependency on the exact contributor set,
    /// and the committed transition stays bit-identical to sequential.
    #[test]
    fn delta_cells_reader_upgrade_matches_sequential() {
        let hot = Address::from_low(900);
        let mut txs: Vec<_> = (0..12u64)
            .map(|i| {
                AccountTransaction::transfer(
                    Address::from_low(100 + i),
                    hot,
                    Amount::from_sats(1 + i),
                    0,
                )
            })
            .collect();
        txs.push(AccountTransaction::transfer(
            hot,
            Address::from_low(800),
            Amount::from_sats(3),
            0,
        ));
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        let mut state = funded(100..120);
        state.credit(hot, Amount::from_coins(1));
        let report = assert_matches_sequential(&block, &state);
        assert!(
            report.delta_merges >= 12,
            "the credits still commit as merges, got {}",
            report.delta_merges
        );
        assert!(
            report.delta_downgrades > 0,
            "the spender observed the accumulated cell and must be ordered \
             after its contributors"
        );
    }

    /// Regression: a contract whose internal transfer *fails* records the
    /// receiver's balance key before the debit reverts, leaving a consumed key
    /// whose account the view never served. That must validate as a `Base`
    /// read, not trip the unvalidated-read-path assertion.
    #[test]
    fn failing_internal_transfer_to_unserved_receiver_matches_sequential() {
        use blockconc_account::vm::{Contract, OpCode};

        let sender = Address::from_low(100);
        let contract_addr = Address::from_low(5000);
        let never_served = Address::from_low(9_999_999);
        let mut state = WorldState::new();
        state.credit(sender, Amount::from_coins(10));
        // Zero-balance contract transfers 1000 sats out: the debit fails and
        // the call reverts.
        state.deploy_contract(
            contract_addr,
            Arc::new(Contract::new(vec![
                OpCode::Push(1000),
                OpCode::Transfer(never_served),
                OpCode::Stop,
            ])),
        );
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transaction(AccountTransaction::contract_call(
                sender,
                contract_addr,
                Amount::ZERO,
                vec![],
                0,
            ))
            .build();
        assert_matches_sequential(&block, &state);
    }
}
