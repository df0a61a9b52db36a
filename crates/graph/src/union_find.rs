//! A disjoint-set (union–find) structure.

/// A union–find structure over `n` dense indices, used as an alternative to the BFS of
/// the paper for computing connected components (and as a cross-check in tests — both
/// must always agree).
///
/// Uses path compression and union by size, so all operations are effectively
/// amortized constant time.
///
/// # Deletion
///
/// A classic union–find cannot delete, which would force streaming users to rebuild
/// from scratch whenever elements leave. This structure instead supports **tombstone
/// removal** with **generation compaction**: [`UnionFind::remove`] marks an element
/// dead in O(α) — it leaves its set's *live* accounting immediately while its slot
/// lingers as a tombstone — and once tombstones outnumber live elements a caller runs
/// [`UnionFind::compact`], which rebuilds the dense arrays over the survivors
/// (preserving the partition) and returns an old-index → new-index remap. Amortized
/// against the removals that created the garbage, every operation stays effectively
/// constant time, and memory stays proportional to the live set.
///
/// Streaming users over *keys* (addresses) with state per set do not drive these
/// primitives themselves: [`ComponentIndex`](crate::ComponentIndex) owns the
/// interner, this structure, the per-set payloads and the re-keying a compaction
/// forces. Direct use is for dense indices known up front (a block's transactions).
///
/// Live per-set accounting is tracked alongside the structural one:
/// [`live_len`](UnionFind::live_len), [`live_component_count`](UnionFind::live_component_count)
/// and [`live_component_size`](UnionFind::live_component_size) see only non-removed
/// elements, while the structural [`component_count`](UnionFind::component_count) /
/// [`component_size`](UnionFind::component_size) keep counting tombstones until the
/// next compaction.
///
/// # Examples
///
/// ```
/// use blockconc_graph::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(0, 2));
/// assert_eq!(uf.component_count(), 2);
/// assert_eq!(uf.largest_component_size(), 2);
///
/// uf.remove(3);
/// assert_eq!(uf.live_component_size(2), 1);
/// let remap = uf.compact();
/// assert_eq!(uf.len(), 3);
/// assert!(uf.connected(remap[0].unwrap(), remap[1].unwrap()));
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
    components: usize,
    removed: Vec<bool>,
    /// Live (non-removed) elements per set, indexed by root.
    live_size: Vec<usize>,
    live_elements: usize,
    /// Sets holding at least one live element.
    live_components: usize,
}

impl UnionFind {
    /// Creates a structure with `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
            components: n,
            removed: vec![false; n],
            live_size: vec![1; n],
            live_elements: n,
            live_components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Appends one new element as a singleton set, returning its index — the
    /// streaming growth primitive: elements can be added as they arrive.
    pub fn grow(&mut self) -> usize {
        let index = self.parent.len();
        self.parent.push(index);
        self.size.push(1);
        self.components += 1;
        self.removed.push(false);
        self.live_size.push(1);
        self.live_elements += 1;
        self.live_components += 1;
        index
    }

    /// Returns `true` if the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the representative of `x` (with path compression).
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`; returns `true` if they were separate.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        self.components -= 1;
        if self.live_size[big] > 0 && self.live_size[small] > 0 {
            self.live_components -= 1;
        }
        self.live_size[big] += self.live_size[small];
        self.live_size[small] = 0;
        true
    }

    /// Merges the sets containing `a` and `b` and reports how the roots changed:
    /// `(surviving_root, absorbed)`, where `absorbed` is the root that stopped
    /// being one together with the number of elements its set carried — `None`
    /// if `a` and `b` were already in the same set. What
    /// [`ComponentIndex`](crate::ComponentIndex) folds per-set payloads by.
    pub(crate) fn merge_roots(&mut self, a: usize, b: usize) -> (usize, Option<(usize, usize)>) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return (ra, None);
        }
        self.union(ra, rb);
        let survivor = self.find(ra);
        let absorbed = if survivor == ra { rb } else { ra };
        // `union` adds an absorbed root's size to the survivor's and leaves the
        // absorbed entry itself as it was.
        (survivor, Some((absorbed, self.size[absorbed])))
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// The current number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// The size of the set containing `x`.
    pub fn component_size(&mut self, x: usize) -> usize {
        let root = self.find(x);
        self.size[root]
    }

    /// Sizes of all disjoint sets (order unspecified).
    pub fn component_sizes(&mut self) -> Vec<usize> {
        let n = self.len();
        let mut sizes = Vec::new();
        for i in 0..n {
            if self.find(i) == i {
                sizes.push(self.size[i]);
            }
        }
        sizes
    }

    /// Size of the largest set (zero when empty).
    pub fn largest_component_size(&mut self) -> usize {
        self.component_sizes().into_iter().max().unwrap_or(0)
    }

    /// Marks `x` removed (a tombstone): it immediately leaves every *live* count
    /// while its slot lingers until the next [`UnionFind::compact`]. The structural
    /// partition is unchanged — other members of `x`'s set stay connected.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range or already removed.
    pub fn remove(&mut self, x: usize) {
        assert!(!self.removed[x], "element {x} is already removed");
        let root = self.find(x);
        self.removed[x] = true;
        self.live_size[root] -= 1;
        self.live_elements -= 1;
        if self.live_size[root] == 0 {
            self.live_components -= 1;
        }
    }

    /// Number of live (non-removed) elements.
    pub fn live_len(&self) -> usize {
        self.live_elements
    }

    /// Number of tombstoned slots awaiting compaction.
    pub fn tombstone_count(&self) -> usize {
        self.parent.len() - self.live_elements
    }

    /// Number of sets holding at least one live element.
    pub fn live_component_count(&self) -> usize {
        self.live_components
    }

    /// Live elements in the set containing `x` (0 once the whole set is removed).
    pub fn live_component_size(&mut self, x: usize) -> usize {
        let root = self.find(x);
        self.live_size[root]
    }

    /// Generation compaction: drops every tombstoned slot, renumbering the live
    /// elements densely (in index order) while preserving their partition. Returns
    /// the old-index → new-index remap (`None` for removed slots), which callers
    /// must use to re-key any cached indices. Representative *identities* are not
    /// preserved — re-derive roots with [`UnionFind::find`] on remapped indices.
    ///
    /// Cost is O(n α); amortized against the Ω(n) removals that produced the
    /// garbage it reclaims, it keeps all operations effectively constant time.
    pub fn compact(&mut self) -> Vec<Option<usize>> {
        let n = self.len();
        let mut remap: Vec<Option<usize>> = vec![None; n];
        let mut next = 0usize;
        for (old, slot) in remap.iter_mut().enumerate() {
            if !self.removed[old] {
                *slot = Some(next);
                next += 1;
            }
        }
        let mut parent = vec![0usize; next];
        let mut size = vec![1usize; next];
        let mut live_size = vec![0usize; next];
        // The first live member of each old set becomes the new root (an old root
        // may itself be a tombstone, so root identity cannot be preserved).
        let mut root_map: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let pairs: Vec<(usize, usize)> = remap
            .iter()
            .enumerate()
            .filter_map(|(old, new)| new.map(|new| (old, new)))
            .collect();
        for (old, new) in pairs {
            let old_root = self.find(old);
            let new_root = *root_map.entry(old_root).or_insert(new);
            parent[new] = new_root;
            live_size[new_root] += 1;
        }
        for (new, &root) in parent.iter().enumerate() {
            if new == root {
                size[new] = live_size[new];
            }
        }
        let components = root_map.len();
        self.parent = parent;
        self.size = size;
        self.live_size = live_size;
        self.removed = vec![false; next];
        self.components = components;
        self.live_components = components;
        self.live_elements = next;
        remap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_structure_is_all_singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert_eq!(uf.largest_component_size(), 1);
        assert!(!uf.connected(0, 4));
    }

    #[test]
    fn unions_merge_and_report_novelty() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.component_count(), 2);
        assert_eq!(uf.component_size(2), 3);
    }

    #[test]
    fn component_sizes_sum_to_len() {
        let mut uf = UnionFind::new(10);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(3, 4);
        let sizes = uf.component_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert_eq!(uf.largest_component_size(), 3);
    }

    #[test]
    fn merge_roots_reports_survivor_and_absorbed() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        let big = uf.find(0);
        let small = uf.find(4);
        // Size-weighted union: the two-element set absorbs the singleton.
        let (survivor, absorbed) = uf.merge_roots(0, 4);
        assert_eq!(survivor, big);
        assert_eq!(absorbed, Some((small, 1)));
        assert_eq!(uf.component_size(4), 3);
        // Merging already-joined elements reports no absorbed root.
        let (survivor, absorbed) = uf.merge_roots(1, 4);
        assert_eq!(survivor, uf.find(0));
        assert_eq!(absorbed, None);
        // The survivor is always the live root of both inputs.
        let (survivor, _) = uf.merge_roots(3, 5);
        assert_eq!(survivor, uf.find(2));
        assert_eq!(survivor, uf.find(5));
    }

    #[test]
    fn grow_appends_singletons_preserving_existing_sets() {
        let mut uf = UnionFind::new(2);
        uf.union(0, 1);
        let c = uf.grow();
        assert_eq!(c, 2);
        assert_eq!(uf.len(), 3);
        assert_eq!(uf.component_count(), 2);
        assert!(!uf.connected(0, 2));
        assert!(uf.union(1, 2));
        assert_eq!(uf.component_size(2), 3);
    }

    #[test]
    fn streaming_growth_matches_batch_construction() {
        // Interleave grow() and union() and compare against a from-scratch build.
        let mut streaming = UnionFind::new(0);
        let edges = [(0usize, 1usize), (2, 3), (1, 3), (4, 5)];
        let mut next = 0;
        for &(a, b) in &edges {
            while next <= a.max(b) {
                streaming.grow();
                next += 1;
            }
            streaming.union(a, b);
        }
        let mut batch = UnionFind::new(next);
        for &(a, b) in &edges {
            batch.union(a, b);
        }
        assert_eq!(streaming.len(), batch.len());
        assert_eq!(streaming.component_count(), batch.component_count());
        let mut s_sizes = streaming.component_sizes();
        let mut b_sizes = batch.component_sizes();
        s_sizes.sort_unstable();
        b_sizes.sort_unstable();
        assert_eq!(s_sizes, b_sizes);
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
        assert_eq!(uf.largest_component_size(), 0);
    }

    #[test]
    fn remove_updates_live_accounting_without_breaking_structure() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        assert_eq!(uf.live_component_count(), 3);
        uf.remove(1);
        // Structural connectivity of the survivors is untouched.
        assert!(uf.connected(0, 2));
        assert_eq!(uf.live_len(), 4);
        assert_eq!(uf.tombstone_count(), 1);
        assert_eq!(uf.live_component_size(0), 2);
        assert_eq!(uf.component_size(0), 3, "structural size keeps tombstones");
        // Removing the whole set drops it from the live component count.
        uf.remove(0);
        uf.remove(2);
        assert_eq!(uf.live_component_count(), 2);
        assert_eq!(uf.live_component_size(0), 0);
        assert_eq!(uf.live_component_size(3), 1);
        assert_eq!(uf.live_component_size(4), 1);
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_remove_panics() {
        let mut uf = UnionFind::new(2);
        uf.remove(0);
        uf.remove(0);
    }

    #[test]
    fn union_with_tombstoned_members_keeps_live_counts_right() {
        let mut uf = UnionFind::new(4);
        uf.remove(1);
        // Merging a live singleton with a fully tombstoned set: one live component
        // before and after.
        assert_eq!(uf.live_component_count(), 3);
        uf.union(0, 1);
        assert_eq!(uf.live_component_count(), 3);
        assert_eq!(uf.live_component_size(1), 1);
        // Merging two live sets still collapses the live count.
        uf.union(2, 3);
        assert_eq!(uf.live_component_count(), 2);
    }

    #[test]
    fn compact_drops_tombstones_and_preserves_the_partition() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        uf.remove(1);
        uf.remove(5);
        let remap = uf.compact();
        assert_eq!(uf.len(), 4);
        assert_eq!(uf.live_len(), 4);
        assert_eq!(uf.tombstone_count(), 0);
        assert_eq!(remap[1], None);
        assert_eq!(remap[5], None);
        // {0, 2} survive connected, {3, 4} survive connected, and the two sets
        // stay disjoint.
        let (a, c) = (remap[0].unwrap(), remap[2].unwrap());
        let (d, e) = (remap[3].unwrap(), remap[4].unwrap());
        assert!(uf.connected(a, c));
        assert!(uf.connected(d, e));
        assert!(!uf.connected(a, d));
        assert_eq!(uf.component_count(), 2);
        assert_eq!(uf.live_component_count(), 2);
        assert_eq!(uf.live_component_size(a), 2);
        // The compacted structure grows and unions like a fresh one.
        let f = uf.grow();
        uf.union(f, a);
        assert_eq!(uf.live_component_size(f), 3);
    }

    #[test]
    fn compact_handles_fully_tombstoned_sets() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 1);
        uf.remove(0);
        uf.remove(1);
        let remap = uf.compact();
        assert_eq!(uf.len(), 1);
        assert_eq!(uf.component_count(), 1);
        assert_eq!(remap, vec![None, None, Some(0)]);
    }
}
