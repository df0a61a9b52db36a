//! Multi-version in-memory store for the optimistic engine.
//!
//! [`MvMemory`] holds, per state *cell*, every write buffered by an in-flight
//! block execution, stamped with the version `(tx_index, incarnation)` that produced
//! it. Reads by transaction `t` resolve to the highest write below `t` (or fall
//! through to the pre-block base state), validation re-resolves a recorded read set
//! against the current contents, and aborted incarnations leave `ESTIMATE` markers
//! behind so dependent transactions suspend instead of chasing stale data.
//!
//! A cell is one [`CellKey`]: an address plus the [`CellPart`] of the account it
//! covers — the balance/nonce pair, one storage slot, or the deployed code, each
//! versioned independently so transactions touching disjoint parts of one
//! account never conflict. The cell is also the unit of *data movement*: a read
//! resolves one cell ([`MvMemory::read_cell`]), a write installs one, and the
//! commit drains one final value per cell ([`MvMemory::into_final_cells`]) —
//! nothing in here assembles, clones or diffs an account.

use blockconc_store::{FragmentValue, StateKey};
use blockconc_types::Address;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Number of independently locked shards of the version map, striped by cell:
/// concurrent transactions mostly touch disjoint cells — disjoint accounts, or
/// disjoint slots of one hot contract — so the stripes keep lock contention off
/// the execution hot path either way.
const SHARDS: usize = 64;

/// The part of an account one versioned cell covers. Orders canonically within
/// an address: meta, then slots ascending, then code (the fragment order
/// `ScratchState::take_write_fragments` emits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum CellPart {
    /// The balance/nonce pair (one conflict unit, like [`StateKey::Balance`]).
    Meta,
    /// One storage slot.
    Slot(u64),
    /// The deployed contract code.
    Code,
}

/// A fully qualified versioned cell: one part of one account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct CellKey {
    /// The account.
    pub(crate) address: Address,
    /// The part of the account.
    pub(crate) part: CellPart,
}

impl CellKey {
    /// The [`StateKey`] this cell is tracked under.
    pub(crate) fn state_key(self) -> StateKey {
        match self.part {
            CellPart::Meta => StateKey::Balance(self.address),
            CellPart::Slot(slot) => StateKey::Storage(self.address, slot),
            CellPart::Code => StateKey::Code(self.address),
        }
    }
}

/// Maps a tracked [`StateKey`] to its versioned cell.
pub(crate) fn cell_key_of(key: StateKey) -> CellKey {
    match key {
        StateKey::Balance(address) => CellKey {
            address,
            part: CellPart::Meta,
        },
        StateKey::Storage(address, slot) => CellKey {
            address,
            part: CellPart::Slot(slot),
        },
        StateKey::Code(address) => CellKey {
            address,
            part: CellPart::Code,
        },
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
    pub(crate) key: CellKey,
    /// Its new value.
    pub(crate) value: CellValue,
}

/// Folds one commutative contribution over a cell's scalar with exactly the
/// arithmetic the sequential flush uses: balance adds are checked (mirroring
/// `Account::credit`'s overflow panic), slot adds wrap.
pub(crate) fn fold_delta(part: CellPart, value: u64, amount: u64) -> u64 {
    match part {
        CellPart::Meta => value.checked_add(amount).expect("amount overflow"),
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

/// One cell's buffered writes by transaction index.
type Versions = BTreeMap<usize, VersionEntry>;

/// The sharded multi-version map: `cell → (tx_index → versioned write)`.
#[derive(Debug)]
pub(crate) struct MvMemory {
    shards: Vec<Mutex<HashMap<CellKey, Versions>>>,
}

impl MvMemory {
    pub(crate) fn new() -> Self {
        MvMemory {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: CellKey) -> &Mutex<HashMap<CellKey, Versions>> {
        // Fibonacci hash of the address' low word (spreads both sequential test
        // addresses and hash-derived workload addresses), offset by the slot so
        // one contract's cells do not pile onto a single stripe.
        let slot = match key.part {
            CellPart::Slot(slot) => slot,
            CellPart::Meta | CellPart::Code => 0,
        };
        let word = key.address.low_u64() ^ slot.rotate_left(32);
        let mix = (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        &self.shards[mix % SHARDS]
    }

    /// Resolves one cell for transaction `reader` — the one walk every read
    /// takes, execution and validation alike: newest-first over the entries of
    /// `key` strictly below `reader`, collecting delta entries until the first
    /// fragment. The delta-transparency rule lives here and nowhere else —
    /// deltas stack on top of a fragment instead of replacing it, and deltas
    /// *below* the winning fragment are superseded (that fragment's value was
    /// computed from a pre-state that had already folded them). An `ESTIMATE`
    /// surfaces through its [`Stamp`]; an execution suspends on the lowest such
    /// writer.
    pub(crate) fn read_cell(&self, key: CellKey, reader: usize) -> CellRead {
        let mut read = CellRead {
            write: None,
            deltas: Vec::new(),
        };
        let shard = self.shard(key).lock().expect("mvcc shard lock");
        let Some(versions) = shard.get(&key) else {
            return read;
        };
        for (&txn, entry) in versions.range(..reader).rev() {
            let stamp = Stamp {
                txn,
                incarnation: entry.incarnation,
                estimate: entry.estimate,
            };
            match &entry.value {
                CellValue::Delta(amount) => read.deltas.push((stamp, *amount)),
                CellValue::Fragment(fragment) => {
                    read.write = Some((stamp, fragment.clone()));
                    break;
                }
            }
        }
        read.deltas.reverse();
        read
    }

    /// Installs the write set of `(tx_index, incarnation)` and removes entries left
    /// behind by the previous incarnation at cells no longer written. Returns
    /// `true` if this incarnation wrote to a cell its predecessor did not
    /// (Block-STM's `wrote_new_path`, which forces revalidation of higher
    /// transactions).
    ///
    /// Both `writes` and `previous` must be sorted by cell key (the canonical
    /// order `take_write_fragments` produces); the stale sweep is then a single
    /// two-pointer merge instead of the quadratic contains-scan per cell.
    pub(crate) fn apply(
        &self,
        tx_index: usize,
        incarnation: u32,
        writes: &mut Vec<CellWrite>,
        previous: &[CellKey],
    ) -> bool {
        debug_assert!(
            writes.windows(2).all(|w| w[0].key < w[1].key),
            "cell writes must be sorted and unique"
        );
        debug_assert!(
            previous.windows(2).all(|w| w[0] < w[1]),
            "previous cell keys must be sorted and unique"
        );
        let mut wrote_new_path = false;
        let mut stale = previous.iter().peekable();
        // The write set is drained: values move into the map without a clone, and
        // the caller keeps the vector's capacity for the next transaction.
        for write in writes.drain(..) {
            while let Some(&&key) = stale.peek() {
                if key < write.key {
                    self.remove_version(key, tx_index);
                    stale.next();
                } else {
                    break;
                }
            }
            if stale.peek().copied() == Some(&write.key) {
                stale.next();
            } else {
                wrote_new_path = true;
            }
            let mut shard = self.shard(write.key).lock().expect("mvcc shard lock");
            shard.entry(write.key).or_default().insert(
                tx_index,
                VersionEntry {
                    incarnation,
                    estimate: false,
                    value: write.value,
                },
            );
        }
        for &key in stale {
            self.remove_version(key, tx_index);
        }
        wrote_new_path
    }

    fn remove_version(&self, key: CellKey, tx_index: usize) {
        let mut shard = self.shard(key).lock().expect("mvcc shard lock");
        if let Some(versions) = shard.get_mut(&key) {
            versions.remove(&tx_index);
        }
    }

    /// Marks every write of `tx_index` as an `ESTIMATE` after its validation failed,
    /// so transactions that read them suspend instead of executing against data
    /// known to be stale.
    pub(crate) fn convert_writes_to_estimates(&self, tx_index: usize, writes: &[CellKey]) {
        for &key in writes {
            let mut shard = self.shard(key).lock().expect("mvcc shard lock");
            if let Some(entry) = shard
                .get_mut(&key)
                .and_then(|versions| versions.get_mut(&tx_index))
            {
                entry.estimate = true;
            }
        }
    }

    /// Re-resolves a recorded read set for transaction `tx_index`. The read set
    /// is valid iff every read resolves to the same origins as during execution
    /// and no resolved entry is an estimate.
    ///
    /// Entries for one cell must be adjacent (the engine keeps the read set
    /// sorted by cell key): each group carries exactly one write-level origin
    /// ([`ReadOrigin::Base`] or [`ReadOrigin::Version`]) plus the
    /// [`ReadOrigin::Delta`] contributor list the execution folded, in
    /// ascending transaction order. The group is re-resolved as a unit — a
    /// delta contributor appearing, vanishing or re-executing invalidates the
    /// observer even when the write-level origin is untouched (the *reader
    /// upgrade* that keeps commutative cells serializable).
    pub(crate) fn validate_reads(&self, tx_index: usize, reads: &[(CellKey, ReadOrigin)]) -> bool {
        let mut i = 0;
        while i < reads.len() {
            let key = reads[i].0;
            let mut j = i;
            let mut write_origin = None;
            let mut delta_origins: Vec<(usize, u32)> = Vec::new();
            while j < reads.len() && reads[j].0 == key {
                match reads[j].1 {
                    ReadOrigin::Delta(txn, incarnation) => delta_origins.push((txn, incarnation)),
                    origin => {
                        debug_assert!(
                            write_origin.is_none(),
                            "two write-level origins recorded for one cell"
                        );
                        write_origin = Some(origin);
                    }
                }
                j += 1;
            }
            i = j;

            let actual = self.read_cell(key, tx_index);
            let write_ok = match (actual.write, write_origin) {
                (None, Some(ReadOrigin::Base) | None) => true,
                (Some((stamp, _)), Some(ReadOrigin::Version(txn, incarnation))) => {
                    !stamp.estimate && stamp.txn == txn && stamp.incarnation == incarnation
                }
                _ => false,
            };
            if !write_ok {
                return false;
            }
            if actual.deltas.len() != delta_origins.len()
                || actual.deltas.iter().zip(&delta_origins).any(
                    |(&(stamp, _), &(txn, incarnation))| {
                        stamp.estimate || stamp.txn != txn || stamp.incarnation != incarnation
                    },
                )
            {
                return false;
            }
        }
        true
    }

    /// Counts the committed commutative contributions: `CellValue::Delta`
    /// entries live in the version map once every transaction has validated.
    /// Each one is a same-cell collision that never ordered against its
    /// neighbours (contributions folded under a later fragment count too —
    /// they committed through the writer's served pre-state).
    pub(crate) fn delta_entries(&self) -> u64 {
        let mut merges = 0u64;
        for shard in &self.shards {
            let shard = shard.lock().expect("mvcc shard lock");
            for versions in shard.values() {
                merges += versions
                    .values()
                    .filter(|entry| matches!(entry.value, CellValue::Delta(_)))
                    .count() as u64;
            }
        }
        merges
    }

    /// The final value of every written cell, as one flat list sorted by cell
    /// key: the fragment of the highest transaction index plus the folded sum
    /// of every delta contribution above it (deltas *below* a fragment are
    /// excluded — see [`read_cell`](MvMemory::read_cell)). Called once after the
    /// whole block has executed and validated; the map is consumed, so values
    /// *move* out instead of being cloned under shard locks, and the sorted
    /// order is what the engine's in-place commit walks.
    pub(crate) fn into_final_cells(self) -> Vec<(CellKey, FinalCell)> {
        let mut out = Vec::new();
        for shard in self.shards {
            for (key, versions) in shard.into_inner().expect("mvcc shard lock") {
                let mut cell = FinalCell {
                    write: None,
                    delta: None,
                };
                for (_, entry) in versions.into_iter().rev() {
                    match entry.value {
                        CellValue::Delta(amount) => {
                            cell.delta =
                                Some(fold_delta(key.part, cell.delta.unwrap_or(0), amount));
                        }
                        CellValue::Fragment(fragment) => {
                            cell.write = Some(fragment);
                            break;
                        }
                    }
                }
                if cell.write.is_some() || cell.delta.is_some() {
                    out.push((key, cell));
                }
            }
        }
        out.sort_unstable_by_key(|&(key, _)| key);
        out
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
    use proptest::prelude::*;

    fn addr(n: u64) -> Address {
        Address::from_low(n)
    }

    fn meta_key(n: u64) -> CellKey {
        CellKey {
            address: addr(n),
            part: CellPart::Meta,
        }
    }

    fn slot_key(n: u64, slot: u64) -> CellKey {
        CellKey {
            address: addr(n),
            part: CellPart::Slot(slot),
        }
    }

    fn meta_write(n: u64, balance: u64) -> CellWrite {
        CellWrite {
            key: meta_key(n),
            value: CellValue::Fragment(Some(FragmentValue::Meta {
                balance_sats: balance,
                nonce: 0,
            })),
        }
    }

    fn slot_write(n: u64, slot: u64, value: u64) -> CellWrite {
        CellWrite {
            key: slot_key(n, slot),
            value: CellValue::Fragment(Some(FragmentValue::Slot(value))),
        }
    }

    fn delta_write(n: u64, slot: u64, amount: u64) -> CellWrite {
        CellWrite {
            key: slot_key(n, slot),
            value: CellValue::Delta(amount),
        }
    }

    /// The write-level resolution of `key` for `reader` (deltas are transparent).
    fn resolved(mv: &MvMemory, key: CellKey, reader: usize) -> Option<Stamp> {
        mv.read_cell(key, reader).write.map(|(stamp, _)| stamp)
    }

    fn resolved_txn(mv: &MvMemory, key: CellKey, reader: usize) -> Option<usize> {
        resolved(mv, key, reader).map(|stamp| stamp.txn)
    }

    fn final_cell(finals: &[(CellKey, FinalCell)], key: CellKey) -> Option<&FinalCell> {
        finals.iter().find(|(k, _)| *k == key).map(|(_, cell)| cell)
    }

    #[test]
    fn read_resolves_highest_version_below_reader() {
        let mv = MvMemory::new();
        mv.apply(2, 0, &mut vec![meta_write(1, 20)], &[]);
        mv.apply(5, 0, &mut vec![meta_write(1, 50)], &[]);

        assert_eq!(resolved_txn(&mv, meta_key(1), 2), None);
        assert_eq!(resolved_txn(&mv, meta_key(1), 4), Some(2));
        assert_eq!(resolved_txn(&mv, meta_key(1), 9), Some(5));
        assert_eq!(resolved_txn(&mv, meta_key(2), 9), None);
    }

    #[test]
    fn read_cell_returns_the_highest_version_below_the_reader_with_its_value() {
        let mv = MvMemory::new();
        mv.apply(2, 0, &mut vec![slot_write(1, 7, 20)], &[]);
        mv.apply(5, 1, &mut vec![slot_write(1, 7, 50)], &[]);

        // The reader's own index is not below it; neither is anything above.
        let below_all = mv.read_cell(slot_key(1, 7), 2);
        assert!(below_all.write.is_none() && below_all.deltas.is_empty());
        let (stamp, value) = mv.read_cell(slot_key(1, 7), 5).write.expect("tx 2 wins");
        assert_eq!(
            (stamp.txn, stamp.incarnation, stamp.estimate),
            (2, 0, false)
        );
        assert_eq!(value, Some(FragmentValue::Slot(20)));
        let (stamp, value) = mv.read_cell(slot_key(1, 7), 9).write.expect("tx 5 wins");
        assert_eq!((stamp.txn, stamp.incarnation), (5, 1));
        assert_eq!(value, Some(FragmentValue::Slot(50)));
        // One cell is one question: the neighbouring slot and the meta are base.
        assert!(mv.read_cell(slot_key(1, 8), 9).write.is_none());
        assert!(mv.read_cell(meta_key(1), 9).write.is_none());
    }

    #[test]
    fn read_cell_stacks_deltas_over_the_winning_write_only() {
        let mv = MvMemory::new();
        mv.apply(1, 0, &mut vec![delta_write(3, 0, 4)], &[]);
        mv.apply(2, 0, &mut vec![slot_write(3, 0, 100)], &[]);
        mv.apply(3, 0, &mut vec![delta_write(3, 0, 5)], &[]);
        mv.apply(6, 0, &mut vec![delta_write(3, 0, 7)], &[]);
        mv.apply(6, 0, &mut vec![delta_write(3, 1, 9)], &[]); // another cell

        let read = mv.read_cell(slot_key(3, 0), 9);
        assert_eq!(read.write.as_ref().map(|(s, _)| s.txn), Some(2));
        // Ascending, values included; tx 1's delta sits under the fragment and
        // is superseded by it.
        assert_eq!(
            read.deltas
                .iter()
                .map(|(s, a)| (s.txn, *a))
                .collect::<Vec<_>>(),
            vec![(3, 5), (6, 7)]
        );
        // A reader between the contributors folds only what is below it.
        let read = mv.read_cell(slot_key(3, 0), 6);
        assert_eq!(
            read.deltas.iter().map(|(s, _)| s.txn).collect::<Vec<_>>(),
            vec![3]
        );
        // Below the fragment the early delta stacks on base.
        let read = mv.read_cell(slot_key(3, 0), 2);
        assert!(read.write.is_none());
        assert_eq!(
            read.deltas
                .iter()
                .map(|(s, a)| (s.txn, *a))
                .collect::<Vec<_>>(),
            vec![(1, 4)]
        );
    }

    #[test]
    fn read_cell_surfaces_every_estimate_so_the_reader_can_pick_the_lowest() {
        let mv = MvMemory::new();
        mv.apply(2, 0, &mut vec![slot_write(4, 0, 10)], &[]);
        mv.apply(3, 0, &mut vec![delta_write(4, 0, 1)], &[]);
        mv.apply(5, 0, &mut vec![delta_write(4, 0, 1)], &[]);
        mv.convert_writes_to_estimates(5, &[slot_key(4, 0)]);
        mv.convert_writes_to_estimates(2, &[slot_key(4, 0)]);

        let read = mv.read_cell(slot_key(4, 0), 9);
        let blockers: Vec<usize> = read
            .write
            .iter()
            .map(|(stamp, _)| *stamp)
            .chain(read.deltas.iter().map(|(stamp, _)| *stamp))
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
        mv.apply(1, 0, &mut vec![slot_write(9, 3, 30)], &[]);
        mv.apply(2, 0, &mut vec![slot_write(9, 7, 70)], &[]);

        // A reader of slot 3 sees only the slot-3 writer; slot 7's write is not
        // a conflict edge for it.
        assert_eq!(resolved_txn(&mv, slot_key(9, 3), 5), Some(1));
        assert_eq!(resolved_txn(&mv, slot_key(9, 7), 5), Some(2));
        assert_eq!(resolved_txn(&mv, meta_key(9), 5), None);
        assert!(mv.validate_reads(5, &[(slot_key(9, 3), ReadOrigin::Version(1, 0))]));
    }

    #[test]
    fn delta_entries_stack_over_the_winning_write() {
        let mv = MvMemory::new();
        mv.apply(1, 0, &mut vec![slot_write(3, 0, 100)], &[]);
        mv.apply(2, 0, &mut vec![delta_write(3, 0, 5)], &[]);
        mv.apply(4, 0, &mut vec![delta_write(3, 0, 7)], &[]);

        // Write-level reads see through the deltas to the absolute write.
        assert_eq!(resolved_txn(&mv, slot_key(3, 0), 9), Some(1));
        let key_read = mv.read_cell(slot_key(3, 0), 9);
        assert_eq!(key_read.write.map(|(stamp, _)| stamp.txn), Some(1));
        assert_eq!(
            key_read.deltas.iter().map(|d| d.0.txn).collect::<Vec<_>>(),
            vec![2, 4]
        );
        // A reader between the contributors folds only what is below it.
        let below = mv.read_cell(slot_key(3, 0), 4);
        assert_eq!(
            below.deltas.iter().map(|d| d.0.txn).collect::<Vec<_>>(),
            vec![2]
        );

        // Commit folds write-then-delta: 100 + 5 + 7.
        let finals = mv.into_final_cells();
        assert_eq!(
            finals,
            vec![(
                slot_key(3, 0),
                FinalCell {
                    write: Some(Some(FragmentValue::Slot(100))),
                    delta: Some(12),
                }
            )]
        );
    }

    #[test]
    fn deltas_below_an_absolute_write_are_superseded() {
        let mv = MvMemory::new();
        mv.apply(1, 0, &mut vec![delta_write(3, 0, 5)], &[]);
        mv.apply(2, 0, &mut vec![slot_write(3, 0, 50)], &[]);
        // The absolute write at txn 2 was computed from a pre-state that folded
        // txn 1's contribution: neither readers nor the commit re-apply it.
        let key_read = mv.read_cell(slot_key(3, 0), 9);
        assert_eq!(key_read.write.map(|(stamp, _)| stamp.txn), Some(2));
        assert!(key_read.deltas.is_empty());
        let finals = mv.into_final_cells();
        let cell = final_cell(&finals, slot_key(3, 0)).expect("written cell");
        assert_eq!(cell.delta, None);
        assert_eq!(cell.write, Some(Some(FragmentValue::Slot(50))));
    }

    #[test]
    fn observer_of_delta_cell_validates_against_exact_contributors() {
        let mv = MvMemory::new();
        mv.apply(2, 0, &mut vec![delta_write(6, 1, 5)], &[]);
        let reads = vec![
            (slot_key(6, 1), ReadOrigin::Base),
            (slot_key(6, 1), ReadOrigin::Delta(2, 0)),
        ];
        assert!(mv.validate_reads(8, &reads));

        // A new contributor appears below the observer → invalid, even though
        // the write-level origin is untouched.
        mv.apply(5, 0, &mut vec![delta_write(6, 1, 7)], &[]);
        assert!(!mv.validate_reads(8, &reads));
        // ...and a previously clean Base read upgrades the same way.
        assert!(!mv.validate_reads(8, &[(slot_key(6, 1), ReadOrigin::Base)]));
        // A pure contributor that read nothing stays valid: delta∧delta does
        // not conflict.
        assert!(mv.validate_reads(8, &[]));

        // With the full contributor list the observer is valid again.
        let full = vec![
            (slot_key(6, 1), ReadOrigin::Base),
            (slot_key(6, 1), ReadOrigin::Delta(2, 0)),
            (slot_key(6, 1), ReadOrigin::Delta(5, 0)),
        ];
        assert!(mv.validate_reads(8, &full));

        // An estimated contributor suspends observers, like estimated writes.
        mv.convert_writes_to_estimates(5, &[slot_key(6, 1)]);
        assert!(!mv.validate_reads(8, &full));
        // Re-execution at a new incarnation changes the contributor stamp.
        mv.apply(5, 1, &mut vec![delta_write(6, 1, 7)], &[slot_key(6, 1)]);
        assert!(!mv.validate_reads(8, &full));
        let bumped = vec![
            (slot_key(6, 1), ReadOrigin::Base),
            (slot_key(6, 1), ReadOrigin::Delta(2, 0)),
            (slot_key(6, 1), ReadOrigin::Delta(5, 1)),
        ];
        assert!(mv.validate_reads(8, &bumped));
    }

    #[test]
    fn apply_reports_new_paths_and_clears_stale_writes() {
        let mv = MvMemory::new();
        assert!(mv.apply(3, 0, &mut vec![meta_write(1, 10)], &[]));
        // Same write set: no new path.
        assert!(!mv.apply(3, 1, &mut vec![meta_write(1, 11)], &[meta_key(1)]));
        // Moves to a different cell: new path, and the stale entry disappears.
        assert!(mv.apply(3, 2, &mut vec![meta_write(2, 12)], &[meta_key(1)]));
        assert_eq!(resolved(&mv, meta_key(1), 9), None);
        assert_eq!(
            resolved(&mv, meta_key(2), 9).map(|s| s.incarnation),
            Some(2)
        );
        // A new slot of an already-written account is a new path too.
        assert!(mv.apply(
            3,
            3,
            &mut vec![meta_write(2, 13), slot_write(2, 4, 44)],
            &[meta_key(2)]
        ));
    }

    #[test]
    fn estimates_flow_through_read_and_validation() {
        let mv = MvMemory::new();
        mv.apply(1, 0, &mut vec![meta_write(7, 70)], &[]);
        let reads = vec![(meta_key(7), ReadOrigin::Version(1, 0))];
        assert!(mv.validate_reads(4, &reads));

        mv.convert_writes_to_estimates(1, &[meta_key(7)]);
        assert_eq!(
            resolved(&mv, meta_key(7), 4).map(|s| s.estimate),
            Some(true)
        );
        assert!(!mv.validate_reads(4, &reads));

        // Re-execution at the next incarnation clears the estimate but the version
        // stamp changed, so the old read is still invalid.
        mv.apply(1, 1, &mut vec![meta_write(7, 71)], &[meta_key(7)]);
        assert!(!mv.validate_reads(4, &reads));
        assert!(mv.validate_reads(4, &[(meta_key(7), ReadOrigin::Version(1, 1))]));
    }

    #[test]
    fn validation_catches_origin_flips_both_ways() {
        let mv = MvMemory::new();
        // Read resolved from base, then a lower write appears.
        assert!(mv.validate_reads(5, &[(meta_key(3), ReadOrigin::Base)]));
        mv.apply(2, 0, &mut vec![meta_write(3, 30)], &[]);
        assert!(!mv.validate_reads(5, &[(meta_key(3), ReadOrigin::Base)]));
        // Read resolved from a version, then the write retreats.
        assert!(mv.validate_reads(5, &[(meta_key(3), ReadOrigin::Version(2, 0))]));
        mv.apply(2, 1, &mut vec![], &[meta_key(3)]);
        assert!(!mv.validate_reads(5, &[(meta_key(3), ReadOrigin::Version(2, 0))]));
    }

    #[test]
    fn final_cells_take_the_highest_transaction() {
        let mv = MvMemory::new();
        mv.apply(0, 0, &mut vec![meta_write(1, 10), meta_write(2, 20)], &[]);
        mv.apply(
            4,
            1,
            &mut vec![meta_write(1, 40), slot_write(1, 6, 66)],
            &[],
        );
        mv.apply(
            6,
            0,
            &mut vec![CellWrite {
                key: meta_key(2),
                value: CellValue::Fragment(None),
            }],
            &[],
        );
        // One flat list, sorted by cell: meta before slots within an address.
        let write = |fragment| FinalCell {
            write: Some(fragment),
            delta: None,
        };
        assert_eq!(
            mv.into_final_cells(),
            vec![
                (
                    meta_key(1),
                    write(Some(FragmentValue::Meta {
                        balance_sats: 40,
                        nonce: 0
                    }))
                ),
                (slot_key(1, 6), write(Some(FragmentValue::Slot(66)))),
                // Deletion survives as a `None` fragment.
                (meta_key(2), write(None)),
            ]
        );
    }

    // ---- property oracles -------------------------------------------------

    /// Naive single-map model of the multi-version store: no shards, no locks,
    /// one flat `(cell, txn) → (incarnation, estimate, is_delta)` map.
    #[derive(Default)]
    struct NaiveModel {
        entries: BTreeMap<(CellKey, usize), (u32, bool, bool)>,
    }

    impl NaiveModel {
        fn apply(
            &mut self,
            txn: usize,
            incarnation: u32,
            writes: &[(CellKey, bool)],
            previous: &[CellKey],
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

        fn estimate(&mut self, txn: usize, writes: &[CellKey]) {
            for &key in writes {
                if let Some(entry) = self.entries.get_mut(&(key, txn)) {
                    entry.1 = true;
                }
            }
        }

        /// Write-level resolution: deltas are transparent.
        fn resolve(&self, key: CellKey, reader: usize) -> Option<(usize, u32, bool)> {
            self.entries
                .range((key, 0)..(key, reader))
                .rev()
                .find(|(_, &(_, _, is_delta))| !is_delta)
                .map(|(&(_, txn), &(incarnation, estimate, _))| (txn, incarnation, estimate))
        }

        /// Delta contributors above the winning write, ascending.
        fn resolve_deltas(&self, key: CellKey, reader: usize) -> Vec<(usize, u32, bool)> {
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

        fn any_entry(&self, key: CellKey) -> bool {
            self.entries
                .range((key, 0)..(key, usize::MAX))
                .next()
                .is_some()
        }
    }

    /// The cell-key universe the interleaving oracle draws from: two accounts'
    /// metas plus shared-contract slots and code — the shapes the engine writes.
    fn oracle_key(index: u8) -> CellKey {
        match index % 6 {
            0 => meta_key(1),
            1 => meta_key(2),
            2 => slot_key(2, 3),
            3 => slot_key(2, 7),
            4 => slot_key(2, 11),
            _ => CellKey {
                address: addr(2),
                part: CellPart::Code,
            },
        }
    }

    fn stamp_of(mv: &MvMemory, key: CellKey, reader: usize) -> Option<(usize, u32, bool)> {
        resolved(mv, key, reader).map(|s| (s.txn, s.incarnation, s.estimate))
    }

    fn oracle_value(key: CellKey, value: u8) -> CellValue {
        if value == 0 {
            return CellValue::Fragment(None);
        }
        // One roll in five is a commutative delta (code cells have no
        // commutative form).
        if value == 4 && !matches!(key.part, CellPart::Code) {
            return CellValue::Delta(u64::from(value));
        }
        CellValue::Fragment(Some(match key.part {
            CellPart::Meta => FragmentValue::Meta {
                balance_sats: u64::from(value),
                nonce: 0,
            },
            CellPart::Slot(_) => FragmentValue::Slot(u64::from(value)),
            CellPart::Code => FragmentValue::Code(format!("code-{value}")),
        }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Random interleavings of apply / estimate / read over shared-contract
        // cells must agree, resolution for resolution, with the naive
        // single-map model — and the drained final cells must be the
        // highest-transaction entries the model predicts.
        #[test]
        fn interleavings_agree_with_the_naive_model(
            ops in proptest::collection::vec((0u8..10, 0u8..4, 0u8..12, 0u8..5), 1..40),
        ) {
            let mv = MvMemory::new();
            let mut model = NaiveModel::default();
            let mut incarnations = [0u32; 10];
            let mut last_writes: Vec<Vec<CellKey>> = vec![Vec::new(); 10];

            for (txn, action, key_roll, value_roll) in ops {
                let txn = txn as usize;
                match action {
                    // Execute: install a small write set over the key universe.
                    0 | 1 => {
                        let mut keys = vec![oracle_key(key_roll), oracle_key(key_roll + value_roll + 1)];
                        keys.sort_unstable();
                        keys.dedup();
                        let mut writes: Vec<CellWrite> = keys
                            .iter()
                            .map(|&key| CellWrite { key, value: oracle_value(key, value_roll) })
                            .collect();
                        let paired: Vec<(CellKey, bool)> = writes
                            .iter()
                            .map(|w| (w.key, matches!(w.value, CellValue::Delta(_))))
                            .collect();
                        let incarnation = incarnations[txn];
                        incarnations[txn] += 1;
                        mv.apply(txn, incarnation, &mut writes, &last_writes[txn]);
                        model.apply(txn, incarnation, &paired, &last_writes[txn].clone());
                        last_writes[txn] = keys;
                    }
                    // Abort: the last write set becomes estimates.
                    2 => {
                        mv.convert_writes_to_estimates(txn, &last_writes[txn]);
                        model.estimate(txn, &last_writes[txn]);
                    }
                    // Read: resolve one cell for this reader in both stores.
                    _ => {
                        let key = oracle_key(key_roll);
                        prop_assert_eq!(stamp_of(&mv, key, txn), model.resolve(key, txn), "read of {:?} by {}", key, txn);
                    }
                }
            }

            // Whole-universe sweep: every cell, every reader, write-level and
            // delta-level resolution alike.
            for key_roll in 0..6u8 {
                let key = oracle_key(key_roll);
                for reader in 0..11usize {
                    prop_assert_eq!(stamp_of(&mv, key, reader), model.resolve(key, reader));
                    let cell = mv.read_cell(key, reader);
                    prop_assert_eq!(
                        cell.write.map(|(s, _)| (s.txn, s.incarnation, s.estimate)),
                        model.resolve(key, reader)
                    );
                    prop_assert_eq!(
                        cell.deltas.iter().map(|(s, _)| (s.txn, s.incarnation, s.estimate)).collect::<Vec<_>>(),
                        model.resolve_deltas(key, reader),
                        "delta contributors of {:?} for {}",
                        key,
                        reader
                    );
                }
            }

            // Validation must accept exactly the model's current resolutions
            // (sans estimates), delta contributor lists included.
            for key_roll in 0..6u8 {
                let key = oracle_key(key_roll);
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
                prop_assert_eq!(mv.validate_reads(10, &group), !estimate);
            }

            let finals = mv.into_final_cells();
            for key_roll in 0..6u8 {
                let key = oracle_key(key_roll);
                prop_assert_eq!(
                    final_cell(&finals, key).is_some(),
                    model.any_entry(key),
                    "final cell presence for {:?}",
                    key
                );
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
                code_json: None,
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
                code_json: None,
            };
            // Every cell the mutations can touch, in canonical order.
            let universe: Vec<CellKey> = std::iter::once(CellKey { address, part: CellPart::Meta })
                .chain((0..5).map(|slot| slot_key(42, slot)))
                .collect();

            let mv = MvMemory::new();
            let mut current = base.clone();
            for (t, (kind, balance_roll, slot, slot_value)) in mutations.into_iter().enumerate() {
                // The transaction's served pre-state: base overlaid, cell by
                // cell, with the winning fragment below it.
                let mut pre = base.clone();
                for &key in &universe {
                    if let Some((_, fragment)) = mv.read_cell(key, t).write {
                        apply_fragment(&mut pre, &key.state_key(), fragment.as_ref());
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
                    .map(|f| CellWrite { key: cell_key_of(f.key), value: CellValue::Fragment(f.value) })
                    .collect();
                mv.apply(t, 0, &mut writes, &[]);
                current = post;
            }

            // The drained final cells, folded over base, are the last post-state.
            let mut committed = base.clone();
            for (key, cell) in mv.into_final_cells() {
                prop_assert_eq!(cell.delta, None);
                if let Some(fragment) = cell.write {
                    apply_fragment(&mut committed, &key.state_key(), fragment.as_ref());
                }
            }
            prop_assert_eq!(committed, current);
        }
    }
}
