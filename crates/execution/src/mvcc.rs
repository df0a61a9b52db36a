//! Multi-version in-memory store for the optimistic engine.
//!
//! [`MvMemory`] holds, per state *cell*, every write buffered by an in-flight
//! block execution, stamped with the version `(tx_index, incarnation)` that produced
//! it. Reads by transaction `t` resolve to the highest write below `t` (or fall
//! through to the pre-block base state), validation re-resolves a recorded read set
//! against the current contents, and aborted incarnations leave `ESTIMATE` markers
//! behind so dependent transactions suspend instead of chasing stale data.
//!
//! A cell is one [`StateKey`] — an account's balance/nonce pair, one storage
//! slot, or its deployed code — each versioned independently so transactions
//! touching disjoint parts of one account never conflict. The cell is also the
//! unit of *data movement*: a read resolves one cell ([`MvMemory::serve`]),
//! a write installs one, and the commit drains one final value per cell
//! ([`MvMemory::drain_final_cells`]) — nothing in here assembles, clones or
//! diffs an account.
//!
//! A key is hashed once per transaction: [`MvMemory::cell_id`] (or
//! [`MvMemory::serve`], which reads the cell too) interns it into a
//! [`CellId`] — its lock stripe plus its slot in that stripe's cell list —
//! and every later step of the block (read, install, validation, estimate
//! marking, commit) indexes the cell by that id. A cell's versions are one flat
//! list sorted by transaction index, so the common in-order install appends.
//! The engine keeps one store for all its blocks and [`reset`](MvMemory::reset)s
//! it at block start: cells, version lists and key maps are cleared with their
//! capacity kept, so a steady run of blocks allocates nothing here.

use blockconc_store::{FragmentValue, StateKey};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

/// Number of independently locked shards of the version map, striped by cell:
/// concurrent transactions mostly touch disjoint cells — disjoint accounts, or
/// disjoint slots of one hot contract — so the stripes keep lock contention off
/// the execution hot path either way.
const SHARDS: usize = 64;

/// The low bits of a [`CellId`] that name its stripe.
const STRIPE_BITS: u32 = SHARDS.trailing_zeros();

/// One value per cache line: state that different workers update — the
/// scheduler's counters, the per-transaction slots, the lock stripes — would
/// otherwise turn independent updates into false-sharing ping-pong.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct Aligned<T>(pub(crate) T);

/// A cell's place in the store: its stripe in the low [`STRIPE_BITS`] bits,
/// its slot in that stripe's cell list above them. Ids are handed out by
/// [`MvMemory::cell_id`] and stay valid until the next
/// [`reset`](MvMemory::reset). Ordering by id keeps all entries of one cell
/// adjacent in a sorted read set, which is what
/// [`validate_reads`](MvMemory::validate_reads) groups by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CellId(u32);

impl CellId {
    fn new(stripe: usize, slot: usize) -> Self {
        assert!(
            slot < 1 << (u32::BITS - STRIPE_BITS),
            "a stripe holds fewer than 2^26 cells per block"
        );
        CellId((slot as u32) << STRIPE_BITS | stripe as u32)
    }

    fn stripe(self) -> usize {
        (self.0 as usize) & (SHARDS - 1)
    }

    fn slot(self) -> usize {
        (self.0 >> STRIPE_BITS) as usize
    }
}

/// The value buffered in one cell.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CellValue {
    /// A per-part fragment; `None` deletes the part (a meta deletion kills the
    /// account).
    Fragment(Option<FragmentValue>),
    /// A commutative contribution to the part: a balance credit (checked) or a
    /// slot addend (wrapping). Unlike a fragment, delta entries of several
    /// transactions *stack* — a reader folds every delta above the winning
    /// fragment, so concurrent contributors never invalidate each other. A
    /// zero delta is the blind touch marker of a fully reverted contribution:
    /// it creates the account (like the classic path's dirty mark) without
    /// changing any value.
    Delta(u64),
}

/// One buffered cell write, the unit [`MvMemory::apply`] installs.
#[derive(Debug)]
pub(crate) struct CellWrite {
    /// The written cell.
    pub(crate) cell: CellId,
    /// Its new value.
    pub(crate) value: CellValue,
}

/// Folds one commutative contribution over a cell's scalar with exactly the
/// arithmetic the sequential flush uses: balance adds are checked (mirroring
/// `Account::credit`'s overflow panic), slot adds wrap.
pub(crate) fn fold_delta(key: StateKey, value: u64, amount: u64) -> u64 {
    match key {
        StateKey::Balance(_) => value.checked_add(amount).expect("amount overflow"),
        _ => value.wrapping_add(amount),
    }
}

/// Where a read resolved, recorded in per-transaction read sets and re-checked by
/// validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ReadOrigin {
    /// Resolved from the immutable pre-block state (present or absent alike —
    /// the base cannot change during block execution).
    Base,
    /// Resolved from the buffered write of `(tx_index, incarnation)`.
    Version(usize, u32),
    /// Folded the commutative delta contribution of `(tx_index, incarnation)`
    /// on top of the write-level origin. A reader that *observes* a
    /// delta-accumulated cell records one such origin per contributor — the
    /// upgrade to an ordered dependency that keeps delta cells serializable:
    /// any contributor appearing, vanishing or re-executing invalidates the
    /// observer.
    Delta(usize, u32),
}

/// One buffered entry as a read resolved it: who wrote it, and whether it is an
/// `ESTIMATE` (the writer aborted and has not re-executed yet — the reader
/// should suspend on `txn`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stamp {
    /// Writer transaction index.
    pub(crate) txn: usize,
    /// Writer incarnation.
    pub(crate) incarnation: u32,
    /// Whether the entry is an `ESTIMATE`.
    pub(crate) estimate: bool,
}

/// One cell resolved for a reader: the highest fragment below it (`None` means
/// the write level falls through to the base state) and every delta
/// contribution stacked on *that cell* above the fragment, in ascending
/// transaction order.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct CellRead {
    /// The winning fragment below the reader.
    pub(crate) write: Option<(Stamp, Option<FragmentValue>)>,
    /// Delta contributions between the winning fragment and the reader.
    pub(crate) deltas: Vec<(Stamp, u64)>,
}

#[derive(Debug)]
struct VersionEntry {
    incarnation: u32,
    estimate: bool,
    value: CellValue,
}

/// A transaction index as a version list stores it.
fn version_index(tx_index: usize) -> u32 {
    u32::try_from(tx_index).expect("a block holds fewer than 2^32 transactions")
}

/// One cell: its key and its buffered writes, sorted by transaction index.
#[derive(Debug)]
struct Cell {
    key: StateKey,
    versions: Vec<(u32, VersionEntry)>,
}

impl Cell {
    /// The position of `txn`'s entry, or where it would go.
    fn position(&self, txn: u32) -> Result<usize, usize> {
        self.versions.binary_search_by_key(&txn, |&(t, _)| t)
    }

    /// The walk every read takes, execution and validation alike: the
    /// position of the highest fragment strictly below `reader` (`None`: the
    /// write level falls through to the base state) and the positions of the
    /// delta entries between it and `reader`, ascending. The
    /// delta-transparency rule lives here and nowhere else — deltas stack on
    /// top of a fragment instead of replacing it, and deltas *below* the
    /// winning fragment are superseded (that fragment's value was computed
    /// from a pre-state that had already folded them).
    fn resolve(&self, reader: usize) -> (Option<usize>, Range<usize>) {
        let below = self
            .versions
            .partition_point(|&(txn, _)| (txn as usize) < reader);
        let fragment = self.versions[..below]
            .iter()
            .rposition(|(_, entry)| matches!(entry.value, CellValue::Fragment(_)));
        (fragment, fragment.map_or(0, |at| at + 1)..below)
    }

    /// The stamp of the entry at `at`.
    fn stamp(&self, at: usize) -> Stamp {
        let (txn, entry) = &self.versions[at];
        Stamp {
            txn: *txn as usize,
            incarnation: entry.incarnation,
            estimate: entry.estimate,
        }
    }

    /// The winning fragment of a [`resolve`](Cell::resolve) with its stamp,
    /// the delta contributions above it appended to `deltas`.
    fn read_into(
        &self,
        reader: usize,
        deltas: &mut Vec<(Stamp, u64)>,
    ) -> Option<(Stamp, Option<FragmentValue>)> {
        let (fragment, above) = self.resolve(reader);
        deltas.extend(above.map(|at| match self.versions[at].1.value {
            CellValue::Delta(amount) => (self.stamp(at), amount),
            CellValue::Fragment(_) => unreachable!("a fragment above the winning one"),
        }));
        fragment.map(|at| match &self.versions[at].1.value {
            CellValue::Fragment(value) => (self.stamp(at), value.clone()),
            CellValue::Delta(_) => unreachable!("resolved a delta as the fragment"),
        })
    }
}

/// One lock stripe: a key index over a dense cell list.
#[derive(Debug, Default)]
struct Stripe {
    /// Key → slot in `cells`, for this block's cells.
    index: HashMap<StateKey, u32>,
    /// `cells[..live]` are this block's cells. The rest were emptied by a
    /// reset and wait to be reused, version-list capacity and all.
    cells: Vec<Cell>,
    live: usize,
}

impl Stripe {
    /// The slot of `key`'s cell, taking a parked (or new) cell on first sight.
    fn intern(&mut self, key: StateKey) -> usize {
        // `CellId::new` bounds every slot far below `u32::MAX`.
        let Stripe { index, cells, live } = self;
        *index.entry(key).or_insert_with(|| {
            match cells.get_mut(*live) {
                Some(parked) => parked.key = key,
                None => cells.push(Cell {
                    key,
                    versions: Vec::new(),
                }),
            }
            *live += 1;
            (*live - 1) as u32
        }) as usize
    }
}

/// The sharded multi-version map: `cell → [(tx_index, versioned write)]`.
#[derive(Debug)]
pub(crate) struct MvMemory {
    stripes: Vec<Aligned<Mutex<Stripe>>>,
}

impl Default for MvMemory {
    fn default() -> Self {
        MvMemory::new()
    }
}

impl MvMemory {
    pub(crate) fn new() -> Self {
        MvMemory {
            stripes: (0..SHARDS).map(|_| Aligned::default()).collect(),
        }
    }

    /// Empties the store for the next block, keeping every allocation: each
    /// live cell's version list is cleared (not freed) and parked for reuse,
    /// and the key indexes keep their tables. Every [`CellId`] handed out
    /// before is void afterwards.
    pub(crate) fn reset(&mut self) {
        for stripe in &mut self.stripes {
            let stripe = stripe.0.get_mut().expect("mvcc stripe lock");
            for cell in &mut stripe.cells[..stripe.live] {
                cell.versions.clear();
            }
            stripe.index.clear();
            stripe.live = 0;
        }
    }

    fn stripe_of(key: StateKey) -> usize {
        // Fibonacci hash of the address' low word (spreads both sequential test
        // addresses and hash-derived workload addresses), offset by the slot so
        // one contract's cells do not pile onto a single stripe.
        let slot = match key {
            StateKey::Storage(_, slot) => slot,
            StateKey::Balance(_) | StateKey::Code(_) => 0,
        };
        let word = key.address().low_u64() ^ slot.rotate_left(32);
        let mix = (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        mix % SHARDS
    }

    fn lock(&self, stripe: usize) -> MutexGuard<'_, Stripe> {
        self.stripes[stripe].0.lock().expect("mvcc stripe lock")
    }

    /// The id of `key`'s cell, interning an empty cell on first sight.
    /// Interning, here or in [`serve`](MvMemory::serve), is the one place a
    /// key is hashed: the engine asks once per key and transaction — when its
    /// view first serves the key, or when a blind delta first writes it — and
    /// carries the id from there.
    pub(crate) fn cell_id(&self, key: StateKey) -> CellId {
        let stripe = Self::stripe_of(key);
        let slot = self.lock(stripe).intern(key);
        CellId::new(stripe, slot)
    }

    /// [`cell_id`](MvMemory::cell_id) and the read of the cell for
    /// transaction `reader`, under one stripe lock: how a view serves a key
    /// the first time. Returns the id and the highest fragment below `reader`
    /// (`None`: the base state's value), and appends the delta contributions
    /// stacked on it to `deltas`, ascending. An `ESTIMATE` surfaces through
    /// its [`Stamp`]; an execution suspends on the lowest such writer.
    pub(crate) fn serve(
        &self,
        key: StateKey,
        reader: usize,
        deltas: &mut Vec<(Stamp, u64)>,
    ) -> (CellId, Option<(Stamp, Option<FragmentValue>)>) {
        let stripe = Self::stripe_of(key);
        let mut guard = self.lock(stripe);
        let slot = guard.intern(key);
        let write = guard.cells[slot].read_into(reader, deltas);
        (CellId::new(stripe, slot), write)
    }

    /// Resolves one cell for transaction `reader`, as
    /// [`serve`](MvMemory::serve) does.
    #[cfg(test)]
    pub(crate) fn read_cell(&self, cell: CellId, reader: usize) -> CellRead {
        let mut deltas = Vec::new();
        let write = self.lock(cell.stripe()).cells[cell.slot()].read_into(reader, &mut deltas);
        CellRead { write, deltas }
    }

    /// Installs the write set of `(tx_index, incarnation)` and removes entries left
    /// behind by the previous incarnation at cells no longer written. Returns
    /// `true` if this incarnation wrote to a cell its predecessor did not
    /// (Block-STM's `wrote_new_path`, which forces revalidation of higher
    /// transactions).
    ///
    /// Both `writes` and `previous` must be sorted by [`CellId`] (the engine
    /// sorts its harvest); the stale sweep is then a single two-pointer merge
    /// instead of the quadratic contains-scan per cell.
    pub(crate) fn apply(
        &self,
        tx_index: usize,
        incarnation: u32,
        writes: &mut Vec<CellWrite>,
        previous: &[CellId],
    ) -> bool {
        debug_assert!(
            writes.windows(2).all(|w| w[0].cell < w[1].cell),
            "cell writes must be sorted and unique"
        );
        debug_assert!(
            previous.windows(2).all(|w| w[0] < w[1]),
            "previous cells must be sorted and unique"
        );
        let txn = version_index(tx_index);
        let mut wrote_new_path = false;
        let mut stale = previous.iter().peekable();
        // The write set is drained: values move into the store without a clone,
        // and the caller keeps the vector's capacity for the next transaction.
        for write in writes.drain(..) {
            while let Some(&&cell) = stale.peek() {
                if cell < write.cell {
                    self.remove_version(cell, txn);
                    stale.next();
                } else {
                    break;
                }
            }
            if stale.peek().copied() == Some(&write.cell) {
                stale.next();
            } else {
                wrote_new_path = true;
            }
            let entry = VersionEntry {
                incarnation,
                estimate: false,
                value: write.value,
            };
            let mut stripe = self.lock(write.cell.stripe());
            let cell = &mut stripe.cells[write.cell.slot()];
            match cell.versions.last() {
                Some(&(last, _)) if last >= txn => match cell.position(txn) {
                    Ok(at) => cell.versions[at].1 = entry,
                    Err(at) => cell.versions.insert(at, (txn, entry)),
                },
                // Above every buffered writer, as in-order execution mostly is.
                _ => cell.versions.push((txn, entry)),
            }
        }
        for &cell in stale {
            self.remove_version(cell, txn);
        }
        wrote_new_path
    }

    fn remove_version(&self, cell: CellId, txn: u32) {
        let mut stripe = self.lock(cell.stripe());
        let cell = &mut stripe.cells[cell.slot()];
        if let Ok(at) = cell.position(txn) {
            cell.versions.remove(at);
        }
    }

    /// Marks every write of `tx_index` as an `ESTIMATE` after its validation failed,
    /// so transactions that read them suspend instead of executing against data
    /// known to be stale.
    pub(crate) fn convert_writes_to_estimates(&self, tx_index: usize, writes: &[CellId]) {
        for &cell in writes {
            let mut stripe = self.lock(cell.stripe());
            let cell = &mut stripe.cells[cell.slot()];
            if let Ok(at) = cell.position(version_index(tx_index)) {
                cell.versions[at].1.estimate = true;
            }
        }
    }

    /// Re-resolves a recorded read set for transaction `tx_index`. The read set
    /// is valid iff every read resolves to the same origins as during execution
    /// and no resolved entry is an estimate.
    ///
    /// Entries for one cell must be adjacent (the engine keeps the read set
    /// sorted by cell id): each group carries exactly one write-level origin
    /// ([`ReadOrigin::Base`] or [`ReadOrigin::Version`]) plus the
    /// [`ReadOrigin::Delta`] contributor list the execution folded, in
    /// ascending transaction order. The group is re-resolved as a unit — a
    /// delta contributor appearing, vanishing or re-executing invalidates the
    /// observer even when the write-level origin is untouched (the *reader
    /// upgrade* that keeps commutative cells serializable).
    pub(crate) fn validate_reads(&self, tx_index: usize, reads: &[(CellId, ReadOrigin)]) -> bool {
        let mut i = 0;
        while i < reads.len() {
            let cell = reads[i].0;
            let group_len = reads[i..].partition_point(|&(id, _)| id == cell);
            let group = &reads[i..i + group_len];
            i += group_len;
            // A write-level origin sorts before the `Delta` origins, which
            // sort ascending by transaction, as a resolve lists them.
            let (write_origin, delta_origins) = match group[0].1 {
                ReadOrigin::Delta(..) => (None, group),
                origin => (Some(origin), &group[1..]),
            };
            debug_assert!(
                delta_origins
                    .iter()
                    .all(|(_, origin)| matches!(origin, ReadOrigin::Delta(..))),
                "two write-level origins recorded for one cell"
            );

            let stripe = self.lock(cell.stripe());
            let actual = &stripe.cells[cell.slot()];
            let (fragment, deltas) = actual.resolve(tx_index);
            let write_ok = match (fragment.map(|at| actual.stamp(at)), write_origin) {
                (None, Some(ReadOrigin::Base) | None) => true,
                (Some(stamp), Some(ReadOrigin::Version(txn, incarnation))) => {
                    !stamp.estimate && stamp.txn == txn && stamp.incarnation == incarnation
                }
                _ => false,
            };
            if !write_ok
                || deltas.len() != delta_origins.len()
                || deltas.zip(delta_origins).any(|(at, &(_, origin))| {
                    let stamp = actual.stamp(at);
                    stamp.estimate || origin != ReadOrigin::Delta(stamp.txn, stamp.incarnation)
                })
            {
                return false;
            }
        }
        true
    }

    /// Hands the final value of every written cell to `install`: the fragment
    /// of the highest transaction index plus the folded sum of every delta
    /// contribution above it (deltas *below* a fragment are excluded — see
    /// [`Cell::resolve`]). Called once after the whole block has executed and
    /// validated.
    ///
    /// Two phases and no sort: every `Balance` cell first, then every
    /// `Storage` and `Code` cell, each phase in store order. That is the one
    /// order the engine's in-place commit needs — an account a fragment
    /// creates exists by the time its slots land. Every entry moves out, so
    /// the next [`reset`](MvMemory::reset) finds the version lists empty.
    ///
    /// Returns the committed commutative contributions: the
    /// `CellValue::Delta` entries the drain met. Each one is a same-cell
    /// collision that never ordered against its neighbours (contributions
    /// folded under a later fragment count too — they committed through the
    /// writer's served pre-state).
    pub(crate) fn drain_final_cells(
        &mut self,
        mut install: impl FnMut(StateKey, FinalCell),
    ) -> u64 {
        let mut merges = 0u64;
        for balances in [true, false] {
            for stripe in &mut self.stripes {
                let stripe = stripe.0.get_mut().expect("mvcc stripe lock");
                for cell in &mut stripe.cells[..stripe.live] {
                    if matches!(cell.key, StateKey::Balance(_)) != balances {
                        continue;
                    }
                    let mut last = FinalCell {
                        write: None,
                        delta: None,
                    };
                    while let Some((_, entry)) = cell.versions.pop() {
                        match entry.value {
                            CellValue::Delta(amount) => {
                                merges += 1;
                                if last.write.is_none() {
                                    last.delta =
                                        Some(fold_delta(cell.key, last.delta.unwrap_or(0), amount));
                                }
                            }
                            CellValue::Fragment(fragment) => {
                                if last.write.is_none() {
                                    last.write = Some(fragment);
                                }
                            }
                        }
                    }
                    if last.write.is_some() || last.delta.is_some() {
                        install(cell.key, last);
                    }
                }
            }
        }
        merges
    }
}

/// The committed outcome of one cell: an optional fragment plus an optional
/// folded delta sum on top of it. Commit applies the fragment first, then the
/// delta — the two-step that makes delete-then-recredit sequences come out
/// right. `delta` is `Some(0)` (not `None`) when delta entries existed but
/// folded to nothing: the zero still creates the touched account, mirroring
/// the classic path's dirty mark.
#[derive(Debug, PartialEq)]
pub(crate) struct FinalCell {
    /// The fragment of the highest transaction, if any (`Some(None)` deletes
    /// the part).
    pub(crate) write: Option<Option<FragmentValue>>,
    /// The folded delta contributions above that fragment, if any existed.
    pub(crate) delta: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_store::{apply_fragment, StoredAccount};
    use blockconc_types::Address;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn addr(n: u64) -> Address {
        Address::from_low(n)
    }

    fn meta_key(n: u64) -> StateKey {
        StateKey::Balance(addr(n))
    }

    fn slot_key(n: u64, slot: u64) -> StateKey {
        StateKey::Storage(addr(n), slot)
    }

    fn meta(balance: u64) -> CellValue {
        CellValue::Fragment(Some(FragmentValue::Meta {
            balance_sats: balance,
            nonce: 0,
        }))
    }

    fn slot(value: u64) -> CellValue {
        CellValue::Fragment(Some(FragmentValue::Slot(value)))
    }

    /// A write set as the engine hands it to `apply`: one write per cell,
    /// sorted by cell id.
    fn writes<const N: usize>(mv: &MvMemory, cells: [(StateKey, CellValue); N]) -> Vec<CellWrite> {
        let mut out: Vec<CellWrite> = cells
            .into_iter()
            .map(|(key, value)| CellWrite {
                cell: mv.cell_id(key),
                value,
            })
            .collect();
        out.sort_unstable_by_key(|write| write.cell);
        out
    }

    /// The cells of `keys`, sorted by id (a previous-write list).
    fn ids(mv: &MvMemory, keys: &[StateKey]) -> Vec<CellId> {
        let mut out: Vec<CellId> = keys.iter().map(|&key| mv.cell_id(key)).collect();
        out.sort_unstable();
        out
    }

    /// A read set as the engine records it: by cell id, sorted.
    fn read_set(mv: &MvMemory, reads: &[(StateKey, ReadOrigin)]) -> Vec<(CellId, ReadOrigin)> {
        let mut out: Vec<(CellId, ReadOrigin)> = reads
            .iter()
            .map(|&(key, origin)| (mv.cell_id(key), origin))
            .collect();
        out.sort_unstable();
        out
    }

    fn read(mv: &MvMemory, key: StateKey, reader: usize) -> CellRead {
        mv.read_cell(mv.cell_id(key), reader)
    }

    /// The write-level resolution of `key` for `reader` (deltas are transparent).
    fn resolved(mv: &MvMemory, key: StateKey, reader: usize) -> Option<Stamp> {
        read(mv, key, reader).write.map(|(stamp, _)| stamp)
    }

    fn resolved_txn(mv: &MvMemory, key: StateKey, reader: usize) -> Option<usize> {
        resolved(mv, key, reader).map(|stamp| stamp.txn)
    }

    /// Drains the final cells in the order the commit receives them, checking
    /// the one order it relies on: no `Balance` cell after any other.
    fn finals(mv: &mut MvMemory) -> Vec<(StateKey, FinalCell)> {
        finals_and_merges(mv).0
    }

    /// [`finals`] and the delta entries the drain counted.
    fn finals_and_merges(mv: &mut MvMemory) -> (Vec<(StateKey, FinalCell)>, u64) {
        let mut out = Vec::new();
        let merges = mv.drain_final_cells(|key, cell| out.push((key, cell)));
        let first_other = out
            .iter()
            .position(|(key, _)| !matches!(key, StateKey::Balance(_)))
            .unwrap_or(out.len());
        assert!(
            out[first_other..]
                .iter()
                .all(|(key, _)| !matches!(key, StateKey::Balance(_))),
            "a balance cell drained after a slot or code cell"
        );
        (out, merges)
    }

    fn final_cell(finals: &[(StateKey, FinalCell)], key: StateKey) -> Option<&FinalCell> {
        finals.iter().find(|(k, _)| *k == key).map(|(_, cell)| cell)
    }

    #[test]
    fn read_resolves_highest_version_below_reader() {
        let mv = MvMemory::new();
        mv.apply(2, 0, &mut writes(&mv, [(meta_key(1), meta(20))]), &[]);
        mv.apply(5, 0, &mut writes(&mv, [(meta_key(1), meta(50))]), &[]);

        assert_eq!(resolved_txn(&mv, meta_key(1), 2), None);
        assert_eq!(resolved_txn(&mv, meta_key(1), 4), Some(2));
        assert_eq!(resolved_txn(&mv, meta_key(1), 9), Some(5));
        assert_eq!(resolved_txn(&mv, meta_key(2), 9), None);
    }

    #[test]
    fn read_cell_returns_the_highest_version_below_the_reader_with_its_value() {
        let mv = MvMemory::new();
        // Out of block order: the later writer installs first.
        mv.apply(5, 1, &mut writes(&mv, [(slot_key(1, 7), slot(50))]), &[]);
        mv.apply(2, 0, &mut writes(&mv, [(slot_key(1, 7), slot(20))]), &[]);

        // The reader's own index is not below it; neither is anything above.
        let below_all = read(&mv, slot_key(1, 7), 2);
        assert!(below_all.write.is_none() && below_all.deltas.is_empty());
        let (stamp, value) = read(&mv, slot_key(1, 7), 5).write.expect("tx 2 wins");
        assert_eq!(
            (stamp.txn, stamp.incarnation, stamp.estimate),
            (2, 0, false)
        );
        assert_eq!(value, Some(FragmentValue::Slot(20)));
        let (stamp, value) = read(&mv, slot_key(1, 7), 9).write.expect("tx 5 wins");
        assert_eq!((stamp.txn, stamp.incarnation), (5, 1));
        assert_eq!(value, Some(FragmentValue::Slot(50)));
        // One cell is one question: the neighbouring slot and the meta are base.
        assert!(read(&mv, slot_key(1, 8), 9).write.is_none());
        assert!(read(&mv, meta_key(1), 9).write.is_none());
    }

    #[test]
    fn read_cell_stacks_deltas_over_the_winning_write_only() {
        let mv = MvMemory::new();
        let cell = slot_key(3, 0);
        mv.apply(1, 0, &mut writes(&mv, [(cell, CellValue::Delta(4))]), &[]);
        mv.apply(2, 0, &mut writes(&mv, [(cell, slot(100))]), &[]);
        mv.apply(3, 0, &mut writes(&mv, [(cell, CellValue::Delta(5))]), &[]);
        mv.apply(6, 0, &mut writes(&mv, [(cell, CellValue::Delta(7))]), &[]);
        let other = slot_key(3, 1);
        mv.apply(6, 0, &mut writes(&mv, [(other, CellValue::Delta(9))]), &[]);

        let got = read(&mv, cell, 9);
        assert_eq!(got.write.as_ref().map(|(s, _)| s.txn), Some(2));
        // Ascending, values included; tx 1's delta sits under the fragment and
        // is superseded by it.
        assert_eq!(
            got.deltas
                .iter()
                .map(|(s, a)| (s.txn, *a))
                .collect::<Vec<_>>(),
            vec![(3, 5), (6, 7)]
        );
        // A reader between the contributors folds only what is below it.
        let got = read(&mv, cell, 6);
        assert_eq!(
            got.deltas.iter().map(|(s, _)| s.txn).collect::<Vec<_>>(),
            vec![3]
        );
        // Below the fragment the early delta stacks on base.
        let got = read(&mv, cell, 2);
        assert!(got.write.is_none());
        assert_eq!(
            got.deltas
                .iter()
                .map(|(s, a)| (s.txn, *a))
                .collect::<Vec<_>>(),
            vec![(1, 4)]
        );
    }

    #[test]
    fn read_cell_surfaces_every_estimate_so_the_reader_can_pick_the_lowest() {
        let mv = MvMemory::new();
        let cell = slot_key(4, 0);
        mv.apply(2, 0, &mut writes(&mv, [(cell, slot(10))]), &[]);
        mv.apply(3, 0, &mut writes(&mv, [(cell, CellValue::Delta(1))]), &[]);
        mv.apply(5, 0, &mut writes(&mv, [(cell, CellValue::Delta(1))]), &[]);
        mv.convert_writes_to_estimates(5, &ids(&mv, &[cell]));
        mv.convert_writes_to_estimates(2, &ids(&mv, &[cell]));

        let got = read(&mv, cell, 9);
        let blockers: Vec<usize> = got
            .write
            .iter()
            .map(|(stamp, _)| *stamp)
            .chain(got.deltas.iter().map(|(stamp, _)| *stamp))
            .filter(|stamp| stamp.estimate)
            .map(|stamp| stamp.txn)
            .collect();
        assert_eq!(blockers, vec![2, 5]);
        assert_eq!(
            blockers.iter().min(),
            Some(&2),
            "suspend on the earliest writer"
        );
    }

    #[test]
    fn disjoint_cells_of_one_account_resolve_independently() {
        let mv = MvMemory::new();
        mv.apply(1, 0, &mut writes(&mv, [(slot_key(9, 3), slot(30))]), &[]);
        mv.apply(2, 0, &mut writes(&mv, [(slot_key(9, 7), slot(70))]), &[]);

        // A reader of slot 3 sees only the slot-3 writer; slot 7's write is not
        // a conflict edge for it.
        assert_eq!(resolved_txn(&mv, slot_key(9, 3), 5), Some(1));
        assert_eq!(resolved_txn(&mv, slot_key(9, 7), 5), Some(2));
        assert_eq!(resolved_txn(&mv, meta_key(9), 5), None);
        assert!(mv.validate_reads(
            5,
            &read_set(&mv, &[(slot_key(9, 3), ReadOrigin::Version(1, 0))])
        ));
    }

    #[test]
    fn delta_entries_stack_over_the_winning_write() {
        let mut mv = MvMemory::new();
        let cell = slot_key(3, 0);
        mv.apply(1, 0, &mut writes(&mv, [(cell, slot(100))]), &[]);
        mv.apply(2, 0, &mut writes(&mv, [(cell, CellValue::Delta(5))]), &[]);
        mv.apply(4, 0, &mut writes(&mv, [(cell, CellValue::Delta(7))]), &[]);

        // Write-level reads see through the deltas to the absolute write.
        assert_eq!(resolved_txn(&mv, cell, 9), Some(1));
        let key_read = read(&mv, cell, 9);
        assert_eq!(key_read.write.map(|(stamp, _)| stamp.txn), Some(1));
        assert_eq!(
            key_read.deltas.iter().map(|d| d.0.txn).collect::<Vec<_>>(),
            vec![2, 4]
        );
        // A reader between the contributors folds only what is below it.
        let below = read(&mv, cell, 4);
        assert_eq!(
            below.deltas.iter().map(|d| d.0.txn).collect::<Vec<_>>(),
            vec![2]
        );

        // Commit folds write-then-delta: 100 + 5 + 7, two merges.
        assert_eq!(
            finals_and_merges(&mut mv),
            (
                vec![(
                    cell,
                    FinalCell {
                        write: Some(Some(FragmentValue::Slot(100))),
                        delta: Some(12),
                    }
                )],
                2
            )
        );
    }

    #[test]
    fn deltas_below_an_absolute_write_are_superseded() {
        let mut mv = MvMemory::new();
        let cell = slot_key(3, 0);
        mv.apply(1, 0, &mut writes(&mv, [(cell, CellValue::Delta(5))]), &[]);
        mv.apply(2, 0, &mut writes(&mv, [(cell, slot(50))]), &[]);
        // The absolute write at txn 2 was computed from a pre-state that folded
        // txn 1's contribution: neither readers nor the commit re-apply it.
        let key_read = read(&mv, cell, 9);
        assert_eq!(key_read.write.map(|(stamp, _)| stamp.txn), Some(2));
        assert!(key_read.deltas.is_empty());
        let (finals, merges) = finals_and_merges(&mut mv);
        let drained = final_cell(&finals, cell).expect("written cell");
        assert_eq!(drained.delta, None);
        assert_eq!(drained.write, Some(Some(FragmentValue::Slot(50))));
        // The superseded contribution still committed, through the writer.
        assert_eq!(merges, 1);
    }

    #[test]
    fn observer_of_delta_cell_validates_against_exact_contributors() {
        let mv = MvMemory::new();
        let cell = slot_key(6, 1);
        mv.apply(2, 0, &mut writes(&mv, [(cell, CellValue::Delta(5))]), &[]);
        let reads = read_set(
            &mv,
            &[(cell, ReadOrigin::Base), (cell, ReadOrigin::Delta(2, 0))],
        );
        assert!(mv.validate_reads(8, &reads));

        // A new contributor appears below the observer → invalid, even though
        // the write-level origin is untouched.
        mv.apply(5, 0, &mut writes(&mv, [(cell, CellValue::Delta(7))]), &[]);
        assert!(!mv.validate_reads(8, &reads));
        // ...and a previously clean Base read upgrades the same way.
        assert!(!mv.validate_reads(8, &read_set(&mv, &[(cell, ReadOrigin::Base)])));
        // A pure contributor that read nothing stays valid: delta∧delta does
        // not conflict.
        assert!(mv.validate_reads(8, &[]));

        // With the full contributor list the observer is valid again.
        let full = read_set(
            &mv,
            &[
                (cell, ReadOrigin::Base),
                (cell, ReadOrigin::Delta(2, 0)),
                (cell, ReadOrigin::Delta(5, 0)),
            ],
        );
        assert!(mv.validate_reads(8, &full));

        // An estimated contributor suspends observers, like estimated writes.
        mv.convert_writes_to_estimates(5, &ids(&mv, &[cell]));
        assert!(!mv.validate_reads(8, &full));
        // Re-execution at a new incarnation changes the contributor stamp.
        mv.apply(
            5,
            1,
            &mut writes(&mv, [(cell, CellValue::Delta(7))]),
            &ids(&mv, &[cell]),
        );
        assert!(!mv.validate_reads(8, &full));
        let bumped = read_set(
            &mv,
            &[
                (cell, ReadOrigin::Base),
                (cell, ReadOrigin::Delta(2, 0)),
                (cell, ReadOrigin::Delta(5, 1)),
            ],
        );
        assert!(mv.validate_reads(8, &bumped));
    }

    #[test]
    fn apply_reports_new_paths_and_clears_stale_writes() {
        let mv = MvMemory::new();
        assert!(mv.apply(3, 0, &mut writes(&mv, [(meta_key(1), meta(10))]), &[]));
        // Same write set: no new path.
        assert!(!mv.apply(
            3,
            1,
            &mut writes(&mv, [(meta_key(1), meta(11))]),
            &ids(&mv, &[meta_key(1)])
        ));
        // Moves to a different cell: new path, and the stale entry disappears.
        assert!(mv.apply(
            3,
            2,
            &mut writes(&mv, [(meta_key(2), meta(12))]),
            &ids(&mv, &[meta_key(1)])
        ));
        assert_eq!(resolved(&mv, meta_key(1), 9), None);
        assert_eq!(
            resolved(&mv, meta_key(2), 9).map(|s| s.incarnation),
            Some(2)
        );
        // A new slot of an already-written account is a new path too.
        assert!(mv.apply(
            3,
            3,
            &mut writes(&mv, [(meta_key(2), meta(13)), (slot_key(2, 4), slot(44))]),
            &ids(&mv, &[meta_key(2)])
        ));
    }

    #[test]
    fn estimates_flow_through_read_and_validation() {
        let mv = MvMemory::new();
        mv.apply(1, 0, &mut writes(&mv, [(meta_key(7), meta(70))]), &[]);
        let reads = read_set(&mv, &[(meta_key(7), ReadOrigin::Version(1, 0))]);
        assert!(mv.validate_reads(4, &reads));

        mv.convert_writes_to_estimates(1, &ids(&mv, &[meta_key(7)]));
        assert_eq!(
            resolved(&mv, meta_key(7), 4).map(|s| s.estimate),
            Some(true)
        );
        assert!(!mv.validate_reads(4, &reads));

        // Re-execution at the next incarnation clears the estimate but the version
        // stamp changed, so the old read is still invalid.
        mv.apply(
            1,
            1,
            &mut writes(&mv, [(meta_key(7), meta(71))]),
            &ids(&mv, &[meta_key(7)]),
        );
        assert!(!mv.validate_reads(4, &reads));
        assert!(mv.validate_reads(
            4,
            &read_set(&mv, &[(meta_key(7), ReadOrigin::Version(1, 1))])
        ));
    }

    #[test]
    fn validation_catches_origin_flips_both_ways() {
        let mv = MvMemory::new();
        let base = read_set(&mv, &[(meta_key(3), ReadOrigin::Base)]);
        let version = read_set(&mv, &[(meta_key(3), ReadOrigin::Version(2, 0))]);
        // Read resolved from base, then a lower write appears.
        assert!(mv.validate_reads(5, &base));
        mv.apply(2, 0, &mut writes(&mv, [(meta_key(3), meta(30))]), &[]);
        assert!(!mv.validate_reads(5, &base));
        // Read resolved from a version, then the write retreats.
        assert!(mv.validate_reads(5, &version));
        mv.apply(2, 1, &mut Vec::new(), &ids(&mv, &[meta_key(3)]));
        assert!(!mv.validate_reads(5, &version));
    }

    #[test]
    fn final_cells_take_the_highest_transaction() {
        let mut mv = MvMemory::new();
        // A cell that is only read (interned, never written) drains nothing.
        mv.cell_id(StateKey::Code(addr(1)));
        mv.apply(
            0,
            0,
            &mut writes(&mv, [(meta_key(1), meta(10)), (meta_key(2), meta(20))]),
            &[],
        );
        mv.apply(
            4,
            1,
            &mut writes(&mv, [(meta_key(1), meta(40)), (slot_key(1, 6), slot(66))]),
            &[],
        );
        mv.apply(
            6,
            0,
            &mut writes(&mv, [(meta_key(2), CellValue::Fragment(None))]),
            &[],
        );
        // Every balance cell before any slot (`finals` checks), so an
        // account's meta lands before its slots.
        let mut drained = finals(&mut mv);
        assert_eq!(drained.len(), 3);
        drained.sort_by_key(|(key, _)| *key);
        let write = |fragment| FinalCell {
            write: Some(fragment),
            delta: None,
        };
        assert_eq!(
            drained,
            vec![
                (
                    meta_key(1),
                    write(Some(FragmentValue::Meta {
                        balance_sats: 40,
                        nonce: 0
                    }))
                ),
                // Deletion survives as a `None` fragment.
                (meta_key(2), write(None)),
                (slot_key(1, 6), write(Some(FragmentValue::Slot(66)))),
            ]
        );
    }

    #[test]
    fn reset_empties_the_store_and_reuses_its_cells() {
        let mut mv = MvMemory::new();
        mv.apply(
            1,
            0,
            &mut writes(&mv, [(meta_key(1), meta(10)), (slot_key(2, 0), slot(5))]),
            &[],
        );
        mv.apply(
            3,
            0,
            &mut writes(&mv, [(slot_key(2, 0), CellValue::Delta(4))]),
            &[],
        );
        mv.convert_writes_to_estimates(1, &ids(&mv, &[meta_key(1), slot_key(2, 0)]));
        let before = mv.cell_id(slot_key(2, 0));

        mv.reset();
        // Nothing of the last block is visible, nothing drains, and the parked
        // cells are handed out again.
        assert!(resolved(&mv, meta_key(1), 9).is_none());
        let got = read(&mv, slot_key(2, 0), 9);
        assert!(got.write.is_none() && got.deltas.is_empty());
        assert_eq!(finals_and_merges(&mut mv), (Vec::new(), 0));
        mv.reset();
        assert_eq!(
            mv.cell_id(slot_key(2, 0)),
            before,
            "a parked cell is reused"
        );
    }

    // ---- property oracles -------------------------------------------------

    /// Naive single-map model of the multi-version store: no shards, no locks,
    /// no ids, one flat `(cell, txn) → (incarnation, estimate, is_delta)` map.
    #[derive(Default)]
    struct NaiveModel {
        entries: BTreeMap<(StateKey, usize), (u32, bool, bool)>,
    }

    impl NaiveModel {
        fn apply(
            &mut self,
            txn: usize,
            incarnation: u32,
            writes: &[(StateKey, bool)],
            previous: &[StateKey],
        ) {
            for &key in previous {
                if !writes.iter().any(|&(w, _)| w == key) {
                    self.entries.remove(&(key, txn));
                }
            }
            for &(key, is_delta) in writes {
                self.entries
                    .insert((key, txn), (incarnation, false, is_delta));
            }
        }

        fn estimate(&mut self, txn: usize, writes: &[StateKey]) {
            for &key in writes {
                if let Some(entry) = self.entries.get_mut(&(key, txn)) {
                    entry.1 = true;
                }
            }
        }

        /// Write-level resolution: deltas are transparent.
        fn resolve(&self, key: StateKey, reader: usize) -> Option<(usize, u32, bool)> {
            self.entries
                .range((key, 0)..(key, reader))
                .rev()
                .find(|(_, &(_, _, is_delta))| !is_delta)
                .map(|(&(_, txn), &(incarnation, estimate, _))| (txn, incarnation, estimate))
        }

        /// Delta contributors above the winning write, ascending.
        fn resolve_deltas(&self, key: StateKey, reader: usize) -> Vec<(usize, u32, bool)> {
            let mut out: Vec<(usize, u32, bool)> = self
                .entries
                .range((key, 0)..(key, reader))
                .rev()
                .take_while(|(_, &(_, _, is_delta))| is_delta)
                .map(|(&(_, txn), &(incarnation, estimate, _))| (txn, incarnation, estimate))
                .collect();
            out.reverse();
            out
        }

        fn any_entry(&self, key: StateKey) -> bool {
            self.entries
                .range((key, 0)..(key, usize::MAX))
                .next()
                .is_some()
        }
    }

    /// The cell-key universe the interleaving oracle draws from: two accounts'
    /// metas plus shared-contract slots and code — the shapes the engine writes.
    fn oracle_key(index: u8) -> StateKey {
        match index % 6 {
            0 => meta_key(1),
            1 => meta_key(2),
            2 => slot_key(2, 3),
            3 => slot_key(2, 7),
            4 => slot_key(2, 11),
            _ => StateKey::Code(addr(2)),
        }
    }

    fn stamp_of(mv: &MvMemory, key: StateKey, reader: usize) -> Option<(usize, u32, bool)> {
        resolved(mv, key, reader).map(|s| (s.txn, s.incarnation, s.estimate))
    }

    fn oracle_value(key: StateKey, value: u8) -> CellValue {
        if value == 0 {
            return CellValue::Fragment(None);
        }
        // One roll in five is a commutative delta (code cells have no
        // commutative form).
        if value == 4 && !matches!(key, StateKey::Code(_)) {
            return CellValue::Delta(u64::from(value));
        }
        CellValue::Fragment(Some(match key {
            StateKey::Balance(_) => FragmentValue::Meta {
                balance_sats: u64::from(value),
                nonce: 0,
            },
            StateKey::Storage(..) => FragmentValue::Slot(u64::from(value)),
            StateKey::Code(_) => FragmentValue::Code(format!("code-{value}").into_bytes().into()),
        }))
    }

    /// One block of random apply / estimate / read operations on a store fresh
    /// from a reset, held against a fresh naive model: resolution for
    /// resolution, validation for validation, and final cell for final cell.
    /// Ids are interned lazily, in operation order, as the engine does.
    fn block_agrees_with_the_naive_model(mv: &mut MvMemory, ops: &[(u8, u8, u8, u8)]) {
        let mut model = NaiveModel::default();
        let mut incarnations = [0u32; 10];
        let mut last_writes: Vec<Vec<StateKey>> = vec![Vec::new(); 10];

        for &(txn, action, key_roll, value_roll) in ops {
            let txn = txn as usize;
            match action {
                // Execute: install a small write set over the key universe.
                0 | 1 => {
                    let mut keys =
                        vec![oracle_key(key_roll), oracle_key(key_roll + value_roll + 1)];
                    keys.sort_unstable();
                    keys.dedup();
                    let mut cells: Vec<CellWrite> = keys
                        .iter()
                        .map(|&key| CellWrite {
                            cell: mv.cell_id(key),
                            value: oracle_value(key, value_roll),
                        })
                        .collect();
                    cells.sort_unstable_by_key(|write| write.cell);
                    let paired: Vec<(StateKey, bool)> = keys
                        .iter()
                        .map(|&key| {
                            (
                                key,
                                matches!(oracle_value(key, value_roll), CellValue::Delta(_)),
                            )
                        })
                        .collect();
                    let incarnation = incarnations[txn];
                    incarnations[txn] += 1;
                    mv.apply(txn, incarnation, &mut cells, &ids(mv, &last_writes[txn]));
                    model.apply(txn, incarnation, &paired, &last_writes[txn]);
                    last_writes[txn] = keys;
                }
                // Abort: the last write set becomes estimates.
                2 => {
                    mv.convert_writes_to_estimates(txn, &ids(mv, &last_writes[txn]));
                    model.estimate(txn, &last_writes[txn]);
                }
                // Read: resolve one cell for this reader in both stores.
                _ => {
                    let key = oracle_key(key_roll);
                    prop_assert_eq!(
                        stamp_of(mv, key, txn),
                        model.resolve(key, txn),
                        "read of {:?} by {}",
                        key,
                        txn
                    );
                }
            }
        }

        // One id per key: stable on every ask, distinct across keys.
        let universe: Vec<StateKey> = (0..6u8).map(oracle_key).collect();
        let mut distinct = ids(mv, &universe);
        distinct.dedup();
        prop_assert_eq!(distinct.len(), universe.len());
        for &key in &universe {
            prop_assert_eq!(mv.cell_id(key), mv.cell_id(key));
        }

        // Whole-universe sweep: every cell, every reader, write-level and
        // delta-level resolution alike.
        for &key in &universe {
            for reader in 0..11usize {
                let cell = read(mv, key, reader);
                prop_assert_eq!(
                    cell.write.map(|(s, _)| (s.txn, s.incarnation, s.estimate)),
                    model.resolve(key, reader)
                );
                prop_assert_eq!(
                    cell.deltas
                        .iter()
                        .map(|(s, _)| (s.txn, s.incarnation, s.estimate))
                        .collect::<Vec<_>>(),
                    model.resolve_deltas(key, reader),
                    "delta contributors of {:?} for {}",
                    key,
                    reader
                );
            }
        }

        // Validation must accept exactly the model's current resolutions
        // (sans estimates), delta contributor lists included.
        for &key in &universe {
            let origin = match model.resolve(key, 10) {
                None => ReadOrigin::Base,
                Some((txn, incarnation, _)) => ReadOrigin::Version(txn, incarnation),
            };
            let deltas = model.resolve_deltas(key, 10);
            let mut group = vec![(key, origin)];
            group.extend(
                deltas
                    .iter()
                    .map(|&(txn, incarnation, _)| (key, ReadOrigin::Delta(txn, incarnation))),
            );
            let estimate = model.resolve(key, 10).is_some_and(|(_, _, e)| e)
                || deltas.iter().any(|&(_, _, e)| e);
            prop_assert_eq!(mv.validate_reads(10, &read_set(mv, &group)), !estimate);
        }

        let finals = finals(mv);
        for &key in &universe {
            prop_assert_eq!(
                final_cell(&finals, key).is_some(),
                model.any_entry(key),
                "final cell presence for {:?}",
                key
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Random interleavings of apply / estimate / read over shared-contract
        // cells must agree, resolution for resolution, with the naive
        // single-map model — and the drained final cells must be the
        // highest-transaction entries the model predicts. Two blocks run on
        // one store, reset in between: nothing of the first (estimates,
        // multi-version cells, ids) may show through in the second.
        #[test]
        fn interleavings_agree_with_the_naive_model(
            blocks in proptest::collection::vec(
                proptest::collection::vec((0u8..10, 0u8..4, 0u8..12, 0u8..5), 1..40),
                2,
            ),
        ) {
            let mut mv = MvMemory::new();
            for ops in &blocks {
                mv.reset();
                block_agrees_with_the_naive_model(&mut mv, ops);
            }
        }

        // Refinement: committing a block of per-transaction mutations through
        // key-granular fragment cells must reassemble to exactly the mutations'
        // direct post-state, and every transaction on the way must be *served*
        // — cell by cell — exactly its predecessor's post-state. Key
        // granularity changes the conflict structure, never the values.
        #[test]
        fn key_granularity_refines_account_granularity(
            base_balance in 1u64..1_000,
            base_slots in proptest::collection::vec((0u64..5, 1u64..50), 0..4),
            mutations in proptest::collection::vec((0u8..2, 0u8..5, 0u64..5, 0u64..4), 1..12),
        ) {
            let address = addr(42);
            let mut base = StoredAccount {
                balance_sats: base_balance,
                nonce: 0,
                storage: Vec::new(),
                code: None,
            };
            for (slot, value) in base_slots {
                if base.storage.binary_search_by_key(&slot, |(k, _)| *k).is_err() {
                    let pos = base.storage.partition_point(|(k, _)| *k < slot);
                    base.storage.insert(pos, (slot, value));
                }
            }
            let base = Some(base);
            let empty = || StoredAccount {
                balance_sats: 0,
                nonce: 0,
                storage: Vec::new(),
                code: None,
            };
            // Every cell the mutations can touch, in canonical order.
            let universe: Vec<StateKey> = std::iter::once(StateKey::Balance(address))
                .chain((0..5).map(|slot| slot_key(42, slot)))
                .collect();

            let mut mv = MvMemory::new();
            let mut current = base.clone();
            for (t, (kind, balance_roll, slot, slot_value)) in mutations.into_iter().enumerate() {
                // The transaction's served pre-state: base overlaid, cell by
                // cell, with the winning fragment below it.
                let mut pre = base.clone();
                for &key in &universe {
                    if let Some((_, fragment)) = mv.read_cell(mv.cell_id(key), t).write {
                        apply_fragment(&mut pre, &key, fragment.as_ref());
                    }
                }
                prop_assert_eq!(&pre, &current, "tx {} is served its predecessor's post-state", t);

                let post = match kind {
                    // Delete the account.
                    0 if balance_roll == 0 => None,
                    // Mutate meta.
                    0 => {
                        let mut next = pre.clone().unwrap_or_else(empty);
                        next.balance_sats = next.balance_sats.wrapping_add(u64::from(balance_roll));
                        next.nonce += 1;
                        Some(next)
                    }
                    // Mutate one slot (0 clears it).
                    _ => {
                        let mut next = pre.clone().unwrap_or_else(empty);
                        match next.storage.binary_search_by_key(&slot, |(k, _)| *k) {
                            Ok(pos) => {
                                if slot_value == 0 {
                                    next.storage.remove(pos);
                                } else {
                                    next.storage[pos].1 = slot_value;
                                }
                            }
                            Err(pos) => {
                                if slot_value != 0 {
                                    next.storage.insert(pos, (slot, slot_value));
                                }
                            }
                        }
                        Some(next)
                    }
                };

                let mut fragments = Vec::new();
                blockconc_store::diff_account_fragments(address, pre.as_ref(), post.as_ref(), &mut fragments);
                let mut writes: Vec<CellWrite> = fragments
                    .into_iter()
                    .map(|f| CellWrite { cell: mv.cell_id(f.key), value: CellValue::Fragment(f.value) })
                    .collect();
                writes.sort_unstable_by_key(|write| write.cell);
                mv.apply(t, 0, &mut writes, &[]);
                current = post;
            }

            // The drained final cells, folded over base, are the last post-state.
            let mut committed = base.clone();
            for (key, cell) in finals(&mut mv) {
                prop_assert_eq!(cell.delta, None);
                if let Some(fragment) = cell.write {
                    apply_fragment(&mut committed, &key, fragment.as_ref());
                }
            }
            prop_assert_eq!(committed, current);
        }
    }
}
