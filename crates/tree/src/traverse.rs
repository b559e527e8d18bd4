//! Traversal utilities: the Proposition 5.1 one-pass folds over preorder
//! record streams, plus postorder, unranked depth and document events.
//!
//! A tree in preorder layout *is* a record stream: node `v`'s first child
//! (if any) is `v + 1`, its second child follows the first child's
//! subtree. [`bottom_up_scan`] and [`top_down_scan`] fold any such stream
//! ([`RecordStream`]) with a stack bounded by the unranked document
//! depth — whether the records come from an in-memory [`BinaryTree`]
//! ([`Preorder`] / [`ReversePreorder`] over any [`NodeSeq`]) or from the
//! `.arb` scans of `arb-storage`. The query kernel of `arb-core` plugs
//! its automata in here; the storage tests plug in tree reconstruction
//! to verify the proposition.

use crate::label::LabelId;
use crate::tree::{BinaryTree, NodeId, NodeInfo};
use std::io;

/// What a stream yields per node: its label and child flags — a
/// [`NodeInfo`] short of the root flag, which only the index can tell.
/// Streams keep their own compact record type (the `.arb` scans yield
/// their 2-byte record as decoded) and the folds widen it to the
/// automaton symbol only where one is asked for.
pub trait Record: Copy {
    /// Whether a first child follows.
    fn has_first(self) -> bool;
    /// Whether a second child exists.
    fn has_second(self) -> bool;
    /// The automaton input symbol of this record at preorder index `ix`.
    fn info(self, ix: u32) -> NodeInfo;
}

impl Record for NodeInfo {
    #[inline]
    fn has_first(self) -> bool {
        self.has_first
    }

    #[inline]
    fn has_second(self) -> bool {
        self.has_second
    }

    #[inline]
    fn info(self, _ix: u32) -> NodeInfo {
        self
    }
}

/// A run of a [`RecordStream`]: the preorder index of its first record,
/// and the records, consecutive and in ascending index order.
pub type Run<'a, R> = (u32, &'a [R]);

/// One direction of a preorder record stream over a window `[lo, hi)` of
/// the document, delivered a **run** at a time: a slice of consecutive
/// records plus the preorder index of its first one. Whatever the source
/// holds contiguously is a run — a decoded storage block, a slab of
/// fixed-width records, a chunk gathered from an in-memory tree — so the
/// folds pay for the source's framing once per run and step the records
/// in a plain slice loop.
///
/// A forward stream yields its runs in ascending order. A backward
/// stream yields them in descending order — each run lies directly
/// below the previous one — with the records *inside* a run still in
/// ascending index order; the backward fold walks each slice from its
/// end.
pub trait RecordStream {
    /// The stream's record type.
    type Record: Record;
    /// The next non-empty run `(index of run[0], run)`, or `None` past
    /// the stream's last. An error ends the stream.
    fn next_run(&mut self) -> io::Result<Option<Run<'_, Self::Record>>>;
}

/// A random-access preorder node sequence held in memory (a
/// [`BinaryTree`], a record slice): what [`Preorder`] and
/// [`ReversePreorder`] stream over.
pub trait NodeSeq {
    /// Number of nodes.
    fn node_count(&self) -> u32;
    /// The symbol of node `ix` (`ix < node_count()`).
    fn info_at(&self, ix: u32) -> NodeInfo;
}

impl NodeSeq for BinaryTree {
    fn node_count(&self) -> u32 {
        self.len() as u32
    }

    #[inline]
    fn info_at(&self, ix: u32) -> NodeInfo {
        self.info(NodeId(ix))
    }
}

/// Records per run of an in-memory sequence. A tree keeps labels and
/// child links in separate arrays, so its streams gather each run into a
/// small reused chunk. The size hardly matters — a warm in-memory
/// evaluation of the 429k-node treebank measured 26.8 ns/node at 64
/// records a run, 26.1 at 1024 and 26.2 at 16 Ki — so it is a constant:
/// 1024 records are 6 KiB, resident in L1 beside the fold's stack.
const SEQ_RUN: u32 = 1024;

/// Gathers `seq[lo..hi]` into `chunk`.
fn gather<T: NodeSeq + ?Sized>(seq: &T, lo: u32, hi: u32, chunk: &mut Vec<NodeInfo>) {
    chunk.clear();
    chunk.extend((lo..hi).map(|ix| seq.info_at(ix)));
}

/// Forward stream over the window `[lo, hi)` of an in-memory sequence.
pub struct Preorder<'a, T: ?Sized> {
    seq: &'a T,
    next: u32,
    hi: u32,
    chunk: Vec<NodeInfo>,
}

impl<'a, T: NodeSeq + ?Sized> Preorder<'a, T> {
    /// Streams `seq[lo..hi]` in preorder.
    pub fn new(seq: &'a T, lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi && hi <= seq.node_count());
        Preorder {
            seq,
            next: lo,
            hi,
            chunk: Vec::new(),
        }
    }
}

impl<T: NodeSeq + ?Sized> RecordStream for Preorder<'_, T> {
    type Record = NodeInfo;

    fn next_run(&mut self) -> io::Result<Option<Run<'_, NodeInfo>>> {
        if self.next >= self.hi {
            return Ok(None);
        }
        let base = self.next;
        self.next = self.hi.min(base.saturating_add(SEQ_RUN));
        gather(self.seq, base, self.next, &mut self.chunk);
        Ok(Some((base, &self.chunk)))
    }
}

/// Backward stream over the window `[lo, hi)` of an in-memory sequence
/// (`hi − 1` down to `lo`).
pub struct ReversePreorder<'a, T: ?Sized> {
    seq: &'a T,
    next: u32,
    lo: u32,
    chunk: Vec<NodeInfo>,
}

impl<'a, T: NodeSeq + ?Sized> ReversePreorder<'a, T> {
    /// Streams `seq[lo..hi]` in reverse preorder.
    pub fn new(seq: &'a T, lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi && hi <= seq.node_count());
        ReversePreorder {
            seq,
            next: hi,
            lo,
            chunk: Vec::new(),
        }
    }
}

impl<T: NodeSeq + ?Sized> RecordStream for ReversePreorder<'_, T> {
    type Record = NodeInfo;

    fn next_run(&mut self) -> io::Result<Option<Run<'_, NodeInfo>>> {
        if self.next <= self.lo {
            return Ok(None);
        }
        let end = self.next;
        self.next = self.lo.max(end.saturating_sub(SEQ_RUN));
        gather(self.seq, self.next, end, &mut self.chunk);
        Ok(Some((self.next, &self.chunk)))
    }
}

/// Runs a bottom-up fold over a backward record stream.
///
/// `step(s1, s2, record, ix)` is called exactly once per node, children
/// before parents (`s1`/`s2` are the values computed for the first/second
/// child, `None` for missing children — the pseudo-state ⊥). Returns the
/// root's value.
///
/// The stream may cover one complete subtree window `[v, end(v))`: the
/// fold then returns the subtree root's value. A window that is not a
/// whole subtree is rejected as corrupt, exactly like an inconsistent
/// record stream.
///
/// The internal stack holds one value per completed-but-unconsumed
/// subtree, which is bounded by the unranked depth of the document.
pub fn bottom_up_scan<R: RecordStream, S>(
    scan: &mut R,
    step: impl FnMut(Option<S>, Option<S>, R::Record, u32) -> S,
) -> io::Result<S> {
    bottom_up_scan_seeded(scan, None, step)
}

/// [`bottom_up_scan`] over a window whose root's second child lies just
/// *past* the window: `seed` is that child's already-known value (the
/// retained boundary state of an incremental re-fold). With `None` the
/// window must be a whole subtree.
pub fn bottom_up_scan_seeded<R: RecordStream, S>(
    scan: &mut R,
    seed: Option<S>,
    mut step: impl FnMut(Option<S>, Option<S>, R::Record, u32) -> S,
) -> io::Result<S> {
    let mut stack: Vec<S> = seed.into_iter().collect();
    while let Some((base, run)) = scan.next_run()? {
        for (i, &rec) in run.iter().enumerate().rev() {
            let ix = base + i as u32;
            // Reading backwards, the most recently completed subtree is
            // the first child's (its records directly follow v), so it is
            // on top of the stack.
            let s1 = if rec.has_first() {
                Some(stack.pop().ok_or_else(corrupt)?)
            } else {
                None
            };
            let s2 = if rec.has_second() {
                Some(stack.pop().ok_or_else(corrupt)?)
            } else {
                None
            };
            stack.push(step(s1, s2, rec, ix));
        }
    }
    match (stack.pop(), stack.is_empty()) {
        (Some(root), true) => Ok(root),
        _ => Err(corrupt()),
    }
}

/// Preorder subtree extents and child flags, computed from one backward
/// metadata pass: `ends[v]` is one past the last node of `v`'s subtree,
/// so subtree(v) is the record window `[v, ends[v])`; `kinds[v]` has bit 0
/// set iff `v` has a first child and bit 1 iff it has a second — enough
/// for frontier picking without touching labels.
pub fn subtree_extents<R: RecordStream>(scan: &mut R, n: u32) -> io::Result<(Vec<u32>, Vec<u8>)> {
    let mut ends = vec![0u32; n as usize];
    let mut kinds = vec![0u8; n as usize];
    bottom_up_scan(scan, |s1: Option<u32>, s2, rec, ix| {
        // end(v) = end(second child) else end(first child) else v + 1.
        let end = s2.or(s1).unwrap_or(ix + 1);
        ends[ix as usize] = end;
        kinds[ix as usize] = rec.has_first() as u8 | (rec.has_second() as u8) << 1;
        end
    })?;
    Ok((ends, kinds))
}

fn corrupt() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "corrupt record stream: child flags inconsistent with the records",
    )
}

/// The context handed to the top-down fold for each node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DownContext<S> {
    /// This node is the root (of the document, or of the window).
    Root,
    /// This node is the `k`-child (1 or 2) of a node that folded to `S`.
    Child(S, u8),
}

/// Runs a top-down fold over a forward record stream.
///
/// `step(ctx, record, ix)` is called exactly once per node, parents
/// before children, in preorder. The stack holds parent values awaiting
/// their second child — bounded by the unranked document depth.
pub fn top_down_scan<R: RecordStream, S: Clone>(
    scan: &mut R,
    mut step: impl FnMut(DownContext<S>, R::Record, u32) -> S,
) -> io::Result<()> {
    // Values for nodes whose second-child subtree is still ahead.
    let mut pending: Vec<S> = Vec::new();
    let mut ctx: Option<DownContext<S>> = Some(DownContext::Root);
    while let Some((base, run)) = scan.next_run()? {
        for (i, &rec) in run.iter().enumerate() {
            let ix = base + i as u32;
            let here = ctx.take().ok_or_else(corrupt)?;
            let s = step(here, rec, ix);
            // Determine the context of the *next* record in preorder.
            ctx = if rec.has_first() {
                if rec.has_second() {
                    pending.push(s.clone());
                }
                Some(DownContext::Child(s, 1))
            } else if rec.has_second() {
                Some(DownContext::Child(s, 2))
            } else {
                pending.pop().map(|p| DownContext::Child(p, 2))
            };
        }
    }
    if ctx.is_some() || !pending.is_empty() {
        return Err(corrupt());
    }
    Ok(())
}

/// Bottom-up (postorder with respect to the binary structure: first-child
/// subtree, second-child subtree, node) visit order.
///
/// This matches the order in which the bottom-up automaton run assigns
/// states, and equals *reverse preorder* reversed node-last... concretely:
/// it is the order a backward linear scan of the `.arb` file completes
/// nodes (paper Prop. 5.1).
pub fn postorder(tree: &BinaryTree) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(tree.len());
    if tree.is_empty() {
        return out;
    }
    // Emulate the backward scan: nodes in reverse preorder are exactly the
    // order in which subtrees complete bottom-up; but classic postorder
    // (left, right, node) is also available via an explicit stack.
    let mut stack: Vec<(NodeId, bool)> = vec![(tree.root(), false)];
    while let Some((v, expanded)) = stack.pop() {
        if expanded {
            out.push(v);
        } else {
            stack.push((v, true));
            if let Some(c) = tree.second_child(v) {
                stack.push((c, false));
            }
            if let Some(c) = tree.first_child(v) {
                stack.push((c, false));
            }
        }
    }
    out
}

/// Unranked depth of the tree: the maximum number of `FirstChild` edges on
/// any root-to-node path plus one. This bounds the stacks required by the
/// storage-model traversals (paper Prop. 5.1).
pub fn unranked_depth(tree: &BinaryTree) -> usize {
    if tree.is_empty() {
        return 0;
    }
    let n = tree.len();
    let mut depth = vec![1usize; n];
    let mut max = 1;
    for v in 0..n as u32 {
        let d = depth[v as usize];
        if let Some(c) = tree.first_child(NodeId(v)) {
            depth[c.ix()] = d + 1;
            max = max.max(d + 1);
        }
        if let Some(c) = tree.second_child(NodeId(v)) {
            depth[c.ix()] = d; // siblings share unranked depth
        }
    }
    max
}

/// A document event reconstructed from the binary tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DocEvent {
    /// Element open tag.
    Open(NodeId, LabelId),
    /// Element close tag.
    Close(NodeId, LabelId),
    /// Text character node.
    Char(NodeId, u8),
}

/// Reconstructs the unranked document event stream (open/char/close) from
/// the binary tree by a single preorder walk — the inverse of
/// [`crate::TreeBuilder`]. Character-labeled nodes become [`DocEvent::Char`].
pub fn doc_events(tree: &BinaryTree) -> Vec<DocEvent> {
    let mut out = Vec::with_capacity(tree.len() * 2);
    if tree.is_empty() {
        return out;
    }
    // Stack holds (node, label) of open elements awaiting their close.
    let mut open: Vec<(NodeId, LabelId)> = Vec::new();
    let mut v = tree.root();
    loop {
        let label = tree.label(v);
        let is_char = label.is_text();
        if is_char {
            out.push(DocEvent::Char(v, label.text_byte().expect("text label")));
        } else {
            out.push(DocEvent::Open(v, label));
        }
        if !is_char && tree.has_first(v) {
            open.push((v, label));
            v = tree.first_child(v).expect("has_first");
            continue;
        }
        if !is_char {
            out.push(DocEvent::Close(v, label));
        }
        // Ascend until a node with an unvisited second child is found.
        let mut cur = v;
        loop {
            if let Some(s) = tree.second_child(cur) {
                v = s;
                break;
            }
            match open.pop() {
                Some((p, pl)) => {
                    out.push(DocEvent::Close(p, pl));
                    cur = p;
                }
                None => return out,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelTable;
    use crate::tree::TreeBuilder;

    fn sample() -> (BinaryTree, LabelId, LabelId) {
        let mut lt = LabelTable::new();
        let a = lt.intern("a").unwrap();
        let b = lt.intern("b").unwrap();
        let mut t = TreeBuilder::new();
        t.open(a);
        t.open(b);
        t.text(b"x");
        t.close();
        t.open(b);
        t.close();
        t.close();
        (t.finish().unwrap(), a, b)
    }

    /// In-memory streams cut a window into runs that tile it exactly:
    /// ascending for the forward stream, descending — each run itself in
    /// ascending order — for the backward one.
    #[test]
    fn sequence_streams_tile_their_window_with_runs() {
        let mut lt = LabelTable::new();
        let a = lt.intern("a").unwrap();
        let mut b = TreeBuilder::new();
        b.open(a);
        for _ in 0..3 * SEQ_RUN {
            b.leaf(a);
        }
        b.close();
        let t = b.finish().unwrap();
        for (lo, hi) in [
            (0, t.len() as u32),
            (7, 7),
            (7, 8),
            (SEQ_RUN - 1, 2 * SEQ_RUN + 5),
        ] {
            let mut fwd = Preorder::new(&t, lo, hi);
            let mut next = lo;
            while let Some((base, run)) = fwd.next_run().unwrap() {
                assert_eq!(base, next);
                assert!(!run.is_empty() && run.len() <= SEQ_RUN as usize);
                for (i, info) in run.iter().enumerate() {
                    assert_eq!(*info, t.info_at(base + i as u32));
                }
                next += run.len() as u32;
            }
            assert_eq!(next, hi, "forward [{lo}, {hi})");

            let mut bwd = ReversePreorder::new(&t, lo, hi);
            let mut end = hi;
            while let Some((base, run)) = bwd.next_run().unwrap() {
                assert_eq!(base + run.len() as u32, end);
                assert!(!run.is_empty() && run.len() <= SEQ_RUN as usize);
                for (i, info) in run.iter().enumerate() {
                    assert_eq!(*info, t.info_at(base + i as u32));
                }
                end = base;
            }
            assert_eq!(end, lo, "backward [{lo}, {hi})");
        }
    }

    #[test]
    fn postorder_children_before_parents() {
        let (t, _, _) = sample();
        let order = postorder(&t);
        assert_eq!(order.len(), t.len());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for v in t.nodes() {
            for c in [t.first_child(v), t.second_child(v)].into_iter().flatten() {
                assert!(pos[&c] < pos[&v], "child {c:?} after parent {v:?}");
            }
        }
    }

    #[test]
    fn doc_events_roundtrip() {
        let (t, _, _) = sample();
        let evs = doc_events(&t);
        // Rebuild via TreeBuilder and compare structure.
        let mut b = TreeBuilder::new();
        for e in &evs {
            match e {
                DocEvent::Open(_, l) => b.open(*l),
                DocEvent::Close(_, _) => b.close(),
                DocEvent::Char(_, c) => b.text(&[*c]),
            }
        }
        let t2 = b.finish().unwrap();
        assert_eq!(t.parts(), t2.parts());
    }

    #[test]
    fn unranked_depth_flat_vs_nested() {
        let mut lt = LabelTable::new();
        let a = lt.intern("a").unwrap();
        // Flat: root with 10 children => depth 2.
        let mut b = TreeBuilder::new();
        b.open(a);
        for _ in 0..10 {
            b.leaf(a);
        }
        b.close();
        let t = b.finish().unwrap();
        assert_eq!(unranked_depth(&t), 2);
        // Nested chain of 5 => depth 5.
        let mut b = TreeBuilder::new();
        for _ in 0..5 {
            b.open(a);
        }
        for _ in 0..5 {
            b.close();
        }
        let t = b.finish().unwrap();
        assert_eq!(unranked_depth(&t), 5);
    }
}
