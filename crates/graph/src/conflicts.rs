//! Storage-level conflict groups of one block, from its transactions' access sets.

use crate::UnionFind;
use blockconc_account::{AccessSet, StateKey};
use std::collections::HashMap;

/// The storage-level conflict structure of one block: which transactions
/// conflict with another, and how they fall into groups under the transitive
/// closure of [`AccessSet::conflicts_with`]. Built by [`conflict_groups`].
#[derive(Debug, Clone)]
pub struct ConflictGroups {
    conflicted: Vec<bool>,
    group: Vec<usize>,
    sizes: Vec<usize>,
}

impl ConflictGroups {
    /// Whether transaction `tx` conflicts with at least one other.
    pub fn is_conflicted(&self, tx: usize) -> bool {
        self.conflicted[tx]
    }

    /// The number of conflicted transactions.
    pub fn conflicted_count(&self) -> usize {
        self.conflicted.iter().filter(|&&c| c).count()
    }

    /// The group of transaction `tx`: an index into [`group_sizes`], numbered
    /// in order of each group's first transaction.
    ///
    /// [`group_sizes`]: ConflictGroups::group_sizes
    pub fn group_of(&self, tx: usize) -> usize {
        self.group[tx]
    }

    /// The number of transactions in each group; they sum to the block's.
    pub fn group_sizes(&self) -> &[usize] {
        &self.sizes
    }
}

/// The distinct transactions touching one key, in block order, and the access
/// classes among them.
#[derive(Default)]
struct KeyTouches {
    txs: Vec<usize>,
    read: bool,
    write: bool,
    delta: bool,
}

impl KeyTouches {
    fn touch(&mut self, tx: usize) -> &mut Self {
        if self.txs.last() != Some(&tx) {
            self.txs.push(tx);
        }
        self
    }
}

/// Groups a block's transactions by storage-level conflicts, in one pass over
/// their access sets with no list of conflicting pairs.
///
/// A key orders the distinct transactions touching it when at least two touch
/// it and it has a write, or both a read and a delta: a write orders against
/// every access, a delta only against readers, and read∧read and delta∧delta
/// commute. Such a key marks each of its transactions conflicted and fuses
/// them into one group. That is exactly the transitive closure of
/// [`AccessSet::conflicts_with`] over the block.
///
/// # Examples
///
/// ```
/// use blockconc_types::Address;
/// use blockconc_account::{AccessSet, StateKey};
/// use blockconc_graph::conflict_groups;
///
/// let sink = StateKey::Balance(Address::from_low(1));
/// let mut credit = AccessSet::new();
/// credit.record_delta(sink);
/// let mut watcher = AccessSet::new();
/// watcher.record_read(sink);
///
/// // Two credits commute; a reader among them orders all three.
/// let groups = conflict_groups(&[credit.clone(), credit.clone()]);
/// assert_eq!(groups.conflicted_count(), 0);
/// let groups = conflict_groups(&[credit.clone(), credit, watcher, AccessSet::new()]);
/// assert_eq!(groups.conflicted_count(), 3);
/// assert_eq!(groups.group_sizes(), &[3, 1]);
/// ```
pub fn conflict_groups(access_sets: &[AccessSet]) -> ConflictGroups {
    let mut keys: HashMap<StateKey, KeyTouches> = HashMap::new();
    for (tx, access) in access_sets.iter().enumerate() {
        for key in access.reads() {
            keys.entry(*key).or_default().touch(tx).read = true;
        }
        for key in access.writes() {
            keys.entry(*key).or_default().touch(tx).write = true;
        }
        for key in access.deltas() {
            keys.entry(*key).or_default().touch(tx).delta = true;
        }
    }

    let n = access_sets.len();
    let mut conflicted = vec![false; n];
    let mut components = UnionFind::new(n);
    for key in keys.values() {
        if key.txs.len() < 2 || !(key.write || (key.read && key.delta)) {
            continue;
        }
        for &tx in &key.txs {
            conflicted[tx] = true;
            components.union(key.txs[0], tx);
        }
    }

    // Number the groups densely, in order of their first transaction.
    let mut id_of_root = vec![usize::MAX; n];
    let mut group = Vec::with_capacity(n);
    let mut sizes = Vec::new();
    for tx in 0..n {
        let root = components.find(tx);
        if id_of_root[root] == usize::MAX {
            id_of_root[root] = sizes.len();
            sizes.push(0);
        }
        group.push(id_of_root[root]);
        sizes[id_of_root[root]] += 1;
    }
    ConflictGroups {
        conflicted,
        group,
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_types::Address;
    use proptest::prelude::*;

    fn balance(n: u64) -> StateKey {
        StateKey::Balance(Address::from_low(n))
    }

    fn reads(keys: &[StateKey]) -> AccessSet {
        let mut set = AccessSet::new();
        keys.iter().for_each(|k| set.record_read(*k));
        set
    }

    fn writes(keys: &[StateKey]) -> AccessSet {
        let mut set = AccessSet::new();
        keys.iter().for_each(|k| set.record_write(*k));
        set
    }

    fn deltas(keys: &[StateKey]) -> AccessSet {
        let mut set = AccessSet::new();
        keys.iter().for_each(|k| set.record_delta(*k));
        set
    }

    fn flags(groups: &ConflictGroups, n: usize) -> Vec<bool> {
        (0..n).map(|tx| groups.is_conflicted(tx)).collect()
    }

    #[test]
    fn read_read_never_conflicts() {
        let groups = conflict_groups(&[reads(&[balance(1)]), reads(&[balance(1)])]);
        assert_eq!(groups.conflicted_count(), 0);
        assert_eq!(groups.group_sizes(), &[1, 1]);
    }

    #[test]
    fn delta_only_sharing_does_not_fuse() {
        let sets: Vec<AccessSet> = (2..5)
            .map(|payer| {
                let mut set = deltas(&[balance(1)]);
                set.record_write(balance(payer));
                set
            })
            .collect();
        let groups = conflict_groups(&sets);
        assert_eq!(groups.conflicted_count(), 0);
        assert_eq!(groups.group_sizes(), &[1, 1, 1]);
    }

    /// One write on a key fuses everyone on it, whatever they do there.
    #[test]
    fn write_write_and_write_read_conflict() {
        let groups = conflict_groups(&[
            deltas(&[balance(1)]),
            writes(&[balance(1)]),
            reads(&[balance(1)]),
            deltas(&[balance(1)]),
            writes(&[balance(2)]),
        ]);
        assert_eq!(flags(&groups, 5), [true, true, true, true, false]);
        assert_eq!(groups.group_sizes(), &[4, 1]);
    }

    #[test]
    fn a_reader_among_deltas_fuses() {
        let groups = conflict_groups(&[
            deltas(&[balance(1)]),
            reads(&[balance(1)]),
            deltas(&[balance(1)]),
        ]);
        assert_eq!(groups.group_sizes(), &[3]);
    }

    /// Pairs that the storage-level relation orders through a delta: a read
    /// and a delta, and a write and a delta, on one key.
    #[test]
    fn delta_read_and_delta_write_pairs_conflict() {
        for other in [reads(&[balance(1)]), writes(&[balance(1)])] {
            let sets = [deltas(&[balance(1)]), other];
            assert!(sets[0].conflicts_with(&sets[1]));
            let groups = conflict_groups(&sets);
            assert_eq!(flags(&groups, 2), [true, true]);
            assert_eq!(groups.group_sizes(), &[2]);
        }
    }

    /// Disjoint slots of one contract do not conflict: the relation is per
    /// storage key, not per account.
    #[test]
    fn storage_keys_conflict_per_slot() {
        let contract = Address::from_low(99);
        let slot0 = StateKey::Storage(contract, 0);
        let slot1 = StateKey::Storage(contract, 1);
        let groups = conflict_groups(&[writes(&[slot0]), writes(&[slot1]), reads(&[slot0])]);
        assert_eq!(flags(&groups, 3), [true, false, true]);
    }

    /// A transaction alone on its keys conflicts with nothing, even when it
    /// reads, writes and delta-merges them itself.
    #[test]
    fn disjoint_transactions_do_not_conflict() {
        let sets: Vec<AccessSet> = (0..50)
            .map(|i| {
                let mut set = reads(&[balance(2 * i), balance(2 * i + 1)]);
                set.record_write(balance(2 * i));
                set.record_delta(balance(2 * i + 1));
                set
            })
            .collect();
        let groups = conflict_groups(&sets);
        assert_eq!(groups.conflicted_count(), 0);
        assert_eq!(groups.group_sizes().len(), 50);
    }

    #[test]
    fn a_pair_sharing_two_keys_is_one_group() {
        let groups = conflict_groups(&[
            writes(&[balance(1), balance(2)]),
            writes(&[balance(1), balance(2)]),
        ]);
        assert_eq!(groups.group_sizes(), &[2]);
        assert_eq!(groups.group_of(1), 0);
    }

    /// One access set over six keys, three balances and three slots of one
    /// contract: each key is read, written, delta-merged, read and
    /// delta-merged, or (for classes 5..9) left alone.
    fn access_set(classes: &[u8]) -> AccessSet {
        let mut set = AccessSet::new();
        for (k, &class) in classes.iter().enumerate() {
            let key = if k < 3 {
                balance(k as u64)
            } else {
                StateKey::Storage(Address::from_low(9), k as u64)
            };
            match class {
                1 => set.record_read(key),
                2 => set.record_write(key),
                3 => set.record_delta(key),
                4 => {
                    set.record_read(key);
                    set.record_delta(key);
                }
                _ => {}
            }
        }
        set
    }

    // The pass gives the flags and the partition of the brute-force
    // transitive closure of pairwise `conflicts_with`, on blocks of up to 12
    // transactions.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn groups_are_the_closure_of_pairwise_conflicts(
            block in proptest::collection::vec(proptest::collection::vec(0u8..9, 6), 0..13)
        ) {
            let sets: Vec<AccessSet> = block.iter().map(|classes| access_set(classes)).collect();
            let n = sets.len();
            let mut closure = UnionFind::new(n);
            let mut conflicted = vec![false; n];
            for a in 0..n {
                for b in a + 1..n {
                    if sets[a].conflicts_with(&sets[b]) {
                        closure.union(a, b);
                        conflicted[a] = true;
                        conflicted[b] = true;
                    }
                }
            }
            let groups = conflict_groups(&sets);
            prop_assert_eq!(flags(&groups, n), conflicted);
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(
                        groups.group_of(a) == groups.group_of(b),
                        closure.connected(a, b)
                    );
                }
                prop_assert_eq!(
                    groups.group_sizes()[groups.group_of(a)],
                    closure.component_size(a)
                );
            }
        }
    }
}
