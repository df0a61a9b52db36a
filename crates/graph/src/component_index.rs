//! Keyed connected components with one payload per component.

use crate::UnionFind;
use std::collections::HashMap;
use std::hash::Hash;

/// What a [`ComponentIndex`] keeps for each component.
pub trait ComponentPayload<K>: Sized {
    /// The payload of a fresh component holding only `key`.
    fn singleton(key: K) -> Self;

    /// Folds the payload of a component this one just absorbed into `self` and
    /// returns how many elements that moved — the payload's share of the work
    /// [`ComponentIndex::union`] reports (0 for a payload that folds in O(1)).
    fn absorb(&mut self, absorbed: Self) -> usize;
}

/// A plain per-component count: starts at zero, adds up on union.
impl<K> ComponentPayload<K> for u64 {
    fn singleton(_key: K) -> Self {
        0
    }

    fn absorb(&mut self, absorbed: Self) -> usize {
        *self += absorbed;
        0
    }
}

/// Marks a node that is not the root of a live component in `slot_of`.
const NO_SLOT: usize = usize::MAX;

/// Connected components over caller-chosen keys, with exactly one payload `P`
/// per live component.
///
/// The index owns the three things every streaming component structure in this
/// workspace needs — the key interner, the [`UnionFind`] and the per-component
/// state — so callers name components by *key* and never hold a node index or a
/// root:
///
/// * [`intern`](Self::intern) / [`union`](Self::union) admit keys. A union of
///   two components folds the absorbed payload into the survivor
///   ([`ComponentPayload::absorb`]) and reports the fold's work: the absorbed
///   component's key count plus whatever the payload moved. The union–find
///   merges by size, so the absorbed side never holds more keys than the
///   survivor and total fold work stays O(n log n).
/// * [`release`](Self::release) frees one whole component: its payload and its
///   keys leave the index at once (the index cannot split a component in two,
///   so a caller that wants one split releases it and re-inserts the edges that
///   survive). The released nodes go on a free list that new keys take from
///   before the tables grow, so the tables never outgrow the most keys ever
///   interned at once.
///
/// # Examples
///
/// ```
/// use blockconc_graph::ComponentIndex;
///
/// // Payload = a count (say, transactions per component).
/// let mut index: ComponentIndex<&str, u64> = ComponentIndex::new();
/// *index.union("a", "b").0 += 1;
/// *index.union("c", "d").0 += 1;
/// let (count, folded) = index.union("b", "c");
/// *count += 1;
/// assert_eq!(folded, 2); // the two keys of the absorbed side
/// assert_eq!(index.get_mut(&"d").copied(), Some(3));
/// assert!(index.same_component(&"a", &"d"));
///
/// let (count, mut keys) = index.release(&"a").unwrap();
/// keys.sort_unstable();
/// assert_eq!((count, keys), (3, vec!["a", "b", "c", "d"]));
/// assert_eq!(index.key_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ComponentIndex<K, P> {
    uf: UnionFind,
    node_of: HashMap<K, usize>,
    /// The key of each node.
    key_of: Vec<K>,
    /// The next node of each node's component: every component's nodes form one
    /// ring, so a union splices two member lists in O(1) and a release walks
    /// exactly one component.
    next: Vec<usize>,
    /// Each live component's slot in `components`, at its root node; `NO_SLOT`
    /// everywhere else.
    slot_of: Vec<usize>,
    /// One `(root node, payload)` per live component, densely packed.
    components: Vec<(usize, P)>,
    /// Released nodes, each a singleton in `uf`, waiting for a new key.
    free: Vec<usize>,
}

impl<K, P> Default for ComponentIndex<K, P> {
    fn default() -> Self {
        ComponentIndex {
            uf: UnionFind::new(0),
            node_of: HashMap::new(),
            key_of: Vec::new(),
            next: Vec::new(),
            slot_of: Vec::new(),
            components: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, P: ComponentPayload<K>> ComponentIndex<K, P> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys currently interned.
    pub fn key_count(&self) -> usize {
        self.node_of.len()
    }

    /// Every live component as `(one of its keys, payload)`, in unspecified order.
    pub fn components(&self) -> impl Iterator<Item = (K, &P)> {
        self.components
            .iter()
            .map(|(root, payload)| (self.key_of[*root], payload))
    }

    /// The payload of `key`'s component, if `key` is interned.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut P> {
        let node = *self.node_of.get(key)?;
        Some(self.payload_of(node))
    }

    /// An opaque id of `key`'s component, if `key` is interned: equal for two
    /// keys exactly when they share a component, and valid only until the next
    /// mutation of the index.
    pub fn component_id(&mut self, key: &K) -> Option<usize> {
        let node = *self.node_of.get(key)?;
        Some(self.uf.find(node))
    }

    /// Whether both keys are interned and share a component.
    pub fn same_component(&mut self, a: &K, b: &K) -> bool {
        let id = self.component_id(a);
        id.is_some() && id == self.component_id(b)
    }

    /// The payload of `key`'s component, interning `key` as a singleton
    /// component first if it is new.
    pub fn intern(&mut self, key: K) -> &mut P {
        let node = self.node(key);
        self.payload_of(node)
    }

    /// Interns both keys and merges their components. Returns the merged
    /// component's payload and the fold work: 0 if the keys already shared a
    /// component, otherwise the absorbed component's key count plus what
    /// [`ComponentPayload::absorb`] reported.
    pub fn union(&mut self, a: K, b: K) -> (&mut P, usize) {
        let (a, b) = (self.node(a), self.node(b));
        let (survivor, absorbed) = self.uf.merge_roots(a, b);
        let mut folded = 0;
        if let Some((absorbed, keys)) = absorbed {
            self.next.swap(survivor, absorbed);
            let payload = self.take_slot(self.slot_of[absorbed]);
            folded = keys + self.components[self.slot_of[survivor]].1.absorb(payload);
        }
        (&mut self.components[self.slot_of[survivor]].1, folded)
    }

    /// Releases `key`'s whole component: returns its payload and its keys, none
    /// of which stay interned. `None` if `key` is not interned.
    pub fn release(&mut self, key: &K) -> Option<(P, Vec<K>)> {
        let node = *self.node_of.get(key)?;
        let root = self.uf.find(node);
        let payload = self.take_slot(self.slot_of[root]);
        let mut keys = Vec::with_capacity(self.uf.component_size(root));
        let first_freed = self.free.len();
        let mut node = root;
        loop {
            let key = self.key_of[node];
            self.node_of.remove(&key);
            keys.push(key);
            self.free.push(node);
            node = std::mem::replace(&mut self.next[node], node);
            if node == root {
                break;
            }
        }
        self.uf.split(&self.free[first_freed..]);
        Some((payload, keys))
    }

    fn node(&mut self, key: K) -> usize {
        if let Some(&node) = self.node_of.get(&key) {
            return node;
        }
        let node = match self.free.pop() {
            Some(node) => node,
            None => {
                let node = self.uf.grow();
                self.key_of.push(key);
                self.next.push(node);
                self.slot_of.push(NO_SLOT);
                node
            }
        };
        self.key_of[node] = key;
        self.slot_of[node] = self.components.len();
        self.node_of.insert(key, node);
        self.components.push((node, P::singleton(key)));
        node
    }

    fn payload_of(&mut self, node: usize) -> &mut P {
        let root = self.uf.find(node);
        &mut self.components[self.slot_of[root]].1
    }

    /// Removes and returns the payload in `slot`, keeping `components` dense.
    fn take_slot(&mut self, slot: usize) -> P {
        let (root, payload) = self.components.swap_remove(slot);
        self.slot_of[root] = NO_SLOT;
        if let Some(&(moved, _)) = self.components.get(slot) {
            self.slot_of[moved] = slot;
        }
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn released_nodes_are_reused() {
        let mut index: ComponentIndex<u32, u64> = ComponentIndex::new();
        for round in 0..200u32 {
            // Ten keys a round, paired differently each round; a key comes back
            // every third round, on whichever released node it is handed.
            let key = |i: u32| 10 * (round % 3) + (i + round) % 10;
            for i in 0..10 {
                assert_eq!(*index.intern(key(i)), 0, "round {round}: stale payload");
            }
            assert_eq!(index.components().count(), 10, "round {round}: merged");
            for pair in 0..5 {
                *index.union(key(2 * pair), key(2 * pair + 1)).0 += 1;
            }
            let slots = index.uf.len();
            assert!(slots <= 10, "round {round}: {slots} slots");
            assert_eq!(index.components().count(), 5);
            for pair in 0..5 {
                let (count, mut keys) = index.release(&key(2 * pair)).expect("interned");
                keys.sort_unstable();
                let mut expected = vec![key(2 * pair), key(2 * pair + 1)];
                expected.sort_unstable();
                assert_eq!((count, keys), (1, expected), "round {round}");
            }
            assert_eq!(index.key_count(), 0);
        }
        assert_eq!(index.uf.len(), 10);
        assert_eq!(index.uf.component_count(), 10);
    }
}
