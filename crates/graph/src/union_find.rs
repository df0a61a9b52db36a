//! A disjoint-set (union–find) structure.

/// A union–find structure over `n` dense indices, used as an alternative to the BFS of
/// the paper for computing connected components (and as a cross-check in tests — both
/// must always agree).
///
/// Uses path compression and union by size, so all operations are effectively
/// amortized constant time.
///
/// Streaming users over *keys* (addresses) with state per set do not drive these
/// primitives themselves: [`ComponentIndex`](crate::ComponentIndex) owns the
/// interner, this structure, the per-set payloads and the reuse of released
/// elements. Direct use is for dense indices known up front (a block's
/// transactions).
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
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
    components: usize,
}

impl UnionFind {
    /// Creates a structure with `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
            components: n,
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

    /// Turns one whole set back into singletons. `members` must be every element
    /// of exactly one set, so that no other element points into it — what
    /// [`ComponentIndex`](crate::ComponentIndex) releases before it reuses them.
    pub(crate) fn split(&mut self, members: &[usize]) {
        for &m in members {
            self.parent[m] = m;
            self.size[m] = 1;
        }
        self.components += members.len() - 1;
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
        // Splitting the whole three-element set leaves three singletons.
        uf.split(&[2, 3, 4]);
        assert_eq!(uf.component_count(), 9);
        let mut sizes = uf.component_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, [1, 1, 1, 1, 1, 1, 1, 1, 2]);
        assert!(!uf.connected(2, 3));
        assert!(uf.union(4, 0));
        assert_eq!(uf.component_size(1), 3);
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
}
