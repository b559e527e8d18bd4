//! Frontier picking for parallel evaluation (paper §6.2), shared by the
//! in-memory and the disk backends.
//!
//! "Tree automata (working on binary trees) naturally admit parallel
//! processing": computations in distinct subtrees are completely
//! independent, so a run can be split at a *frontier* — a set of
//! disjoint subtree roots covering most of the tree — and the remaining
//! uncovered nodes (the *spine*: exactly the ancestors that were split,
//! a handful of nodes) evaluated sequentially.
//!
//! The only structure frontier picking needs is each node's preorder
//! subtree extent plus its child flags. [`SubtreeIndex`] holds those and
//! can be built either from an in-memory preorder sequence
//! ([`SubtreeIndex::from_seq`], e.g. a materialized
//! [`BinaryTree`](arb_tree::BinaryTree)) or from the raw arrays of a
//! one-pass backward metadata scan over an `.arb` record stream
//! ([`SubtreeIndex::from_parts`]; see `arb_storage::subtree_extents` —
//! the disk path, which never materializes the tree). Both run the same
//! extent fold ([`arb_tree::traverse::subtree_extents`]).

use arb_tree::traverse::{subtree_extents, NodeSeq, ReversePreorder};
use std::borrow::Cow;
use std::io;

/// Bit 0 of a `kinds` entry: the node has a first child.
pub const HAS_FIRST: u8 = 1;
/// Bit 1 of a `kinds` entry: the node has a second child.
pub const HAS_SECOND: u8 = 1 << 1;

/// Preorder subtree extents and child flags of a binary tree — the
/// structural skeleton (no labels) that frontier picking and sharded
/// range planning run on. Node `v`'s subtree is exactly the preorder
/// window `[v, end(v))`. Holds its arrays by [`Cow`] so a per-database
/// cached copy (the disk path) is planned against without duplicating
/// 5 bytes/node per run.
pub struct SubtreeIndex<'a> {
    ends: Cow<'a, [u32]>,
    kinds: Cow<'a, [u8]>,
}

impl SubtreeIndex<'static> {
    /// Builds the index from an in-memory preorder sequence by the same
    /// backward extent fold the disk path runs over its record stream.
    /// Errors if the sequence does not describe exactly one tree.
    pub fn from_seq<T: NodeSeq + ?Sized>(seq: &T) -> io::Result<Self> {
        let n = seq.node_count();
        let (ends, kinds) = subtree_extents(&mut ReversePreorder::new(seq, 0, n), n)?;
        Ok(SubtreeIndex::from_parts(ends, kinds))
    }
}

impl<'a> SubtreeIndex<'a> {
    /// Builds the index from raw extent/flag arrays, owned or borrowed
    /// (the disk path borrows the database's cached metadata-scan
    /// result). `ends[v]` is one past the last node of `v`'s subtree;
    /// `kinds[v]` uses [`HAS_FIRST`] and [`HAS_SECOND`].
    pub fn from_parts(ends: impl Into<Cow<'a, [u32]>>, kinds: impl Into<Cow<'a, [u8]>>) -> Self {
        let (ends, kinds) = (ends.into(), kinds.into());
        debug_assert_eq!(ends.len(), kinds.len());
        SubtreeIndex { ends, kinds }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True for the (degenerate) empty index.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// One past the last node of `v`'s subtree.
    pub fn end(&self, v: u32) -> u32 {
        self.ends[v as usize]
    }

    /// Number of nodes in `v`'s subtree.
    pub fn size(&self, v: u32) -> u32 {
        self.ends[v as usize] - v
    }

    /// `v`'s first child (which is `v + 1` in preorder), if any.
    pub fn first_child(&self, v: u32) -> Option<u32> {
        (self.kinds[v as usize] & HAS_FIRST != 0).then_some(v + 1)
    }

    /// `v`'s second child: past the first child's subtree, or `v + 1`
    /// when there is no first child.
    pub fn second_child(&self, v: u32) -> Option<u32> {
        (self.kinds[v as usize] & HAS_SECOND != 0).then(|| match self.first_child(v) {
            Some(c) => self.ends[c as usize],
            None => v + 1,
        })
    }

    /// Picks a frontier of disjoint subtree roots covering most of the
    /// tree, by repeatedly splitting the largest region until `target`
    /// pieces exist or pieces become too small. The returned roots are
    /// sorted; every node outside their subtrees (the spine — exactly
    /// the split ancestors, at most `target − 1` nodes) is an ancestor
    /// of some root. A result of `[0]` alone means no useful frontier
    /// exists (tiny or degenerate trees) — callers fall back to
    /// sequential evaluation.
    pub fn frontier(&self, target: usize) -> Vec<u32> {
        let n = self.len() as u32;
        // Clamp: a pathological target must not wrap the u32 math below
        // (`n / 0` panics), and more pieces than this is never useful.
        let target = target.clamp(1, 4096);
        let mut pieces: Vec<u32> = vec![0];
        let min_piece = (n / (target as u32 * 4)).max(512);
        while pieces.len() < target {
            // Split the largest piece into its children.
            let (i, &v) = match pieces.iter().enumerate().max_by_key(|(_, &v)| self.size(v)) {
                Some(x) => x,
                None => break,
            };
            if self.size(v) < min_piece * 2 {
                break;
            }
            let kids: Vec<u32> = [self.first_child(v), self.second_child(v)]
                .into_iter()
                .flatten()
                .collect();
            if kids.is_empty() {
                break;
            }
            pieces.swap_remove(i);
            pieces.extend(kids);
            // Note: the split node v itself moves to the sequential spine.
        }
        pieces.sort_unstable();
        pieces
    }

    /// The spine of a frontier: all nodes not covered by any root's
    /// subtree, in preorder. Closed under taking parents (a split node's
    /// parent is itself a split node or absent), so a sequential pass
    /// over it sees parents before children in preorder and children
    /// before parents in reverse.
    pub fn spine(&self, roots: &[u32]) -> Vec<u32> {
        let mut spine = Vec::new();
        let mut next = 0u32;
        for &r in roots {
            spine.extend(next..r);
            next = next.max(self.end(r));
        }
        spine.extend(next..self.len() as u32);
        spine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_tree::{infix::infix_tree, BinaryTree, LabelId, LabelTable, NodeId};

    fn balanced_tree(len: u32) -> BinaryTree {
        let mut lt = LabelTable::new();
        let root = lt.intern("r").unwrap();
        let seq: Vec<LabelId> = (0..len).map(|i| LabelId((i % 4) as u16)).collect();
        infix_tree(root, &seq)
    }

    #[test]
    fn subtree_index_is_consistent() {
        let t = balanced_tree(31);
        let idx = SubtreeIndex::from_seq(&t).unwrap();
        assert_eq!(idx.end(0), t.len() as u32);
        for v in t.nodes() {
            assert_eq!(idx.first_child(v.0), t.first_child(v).map(|c| c.0));
            assert_eq!(idx.second_child(v.0), t.second_child(v).map(|c| c.0));
            for c in [t.first_child(v), t.second_child(v)].into_iter().flatten() {
                assert!(c.0 > v.0 && idx.end(c.0) <= idx.end(v.0));
            }
        }
    }

    #[test]
    fn frontier_covers_all_but_the_spine_of_split_ancestors() {
        let t = balanced_tree(4095);
        let idx = SubtreeIndex::from_seq(&t).unwrap();
        let roots = idx.frontier(8);
        assert!(roots.len() > 1, "balanced tree must admit a frontier");

        // Roots are sorted, disjoint, and non-empty subtrees.
        for w in roots.windows(2) {
            assert!(idx.end(w[0]) <= w[1], "subtrees overlap");
        }

        // The spine is exactly the complement, closed under parents.
        let spine = idx.spine(&roots);
        assert_eq!(
            spine.len() + roots.iter().map(|&r| idx.size(r) as usize).sum::<usize>(),
            idx.len()
        );
        assert!(spine.len() < 8 * 2, "spine is a handful of split nodes");
        for &s in &spine {
            if let Some(p) = t.parent(NodeId(s)) {
                assert!(spine.binary_search(&p.0).is_ok(), "spine parent-closed");
            }
        }
        // Every root's parent is on the spine.
        for &r in &roots {
            let p = t.parent(NodeId(r)).expect("roots are not the tree root");
            assert!(spine.binary_search(&p.0).is_ok());
        }
    }

    #[test]
    fn tiny_trees_yield_no_frontier() {
        let t = balanced_tree(7);
        let idx = SubtreeIndex::from_seq(&t).unwrap();
        assert_eq!(idx.frontier(4), vec![0]);
        assert!(idx.spine(&[0]).is_empty());
    }

    /// Pathological targets (e.g. `--threads 2^30` → `target = 2^32`,
    /// whose `as u32` truncation used to divide by zero) are clamped.
    #[test]
    fn absurd_targets_are_clamped_not_panicking() {
        let t = balanced_tree(4095);
        let idx = SubtreeIndex::from_seq(&t).unwrap();
        for target in [0usize, 1 << 30, 1 << 32, usize::MAX] {
            let roots = idx.frontier(target);
            assert!(!roots.is_empty());
        }
    }
}
