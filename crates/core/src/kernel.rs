//! The evaluation kernel: Algorithm 4.6 as **one backward fold and one
//! forward fold** over a preorder record stream, for every backing.
//!
//! # The algorithm
//!
//! 1. *Fold up.* The bottom-up automaton `A` runs over the records in
//!    reverse preorder (children before parents — the backward linear
//!    scan of Proposition 5.1), and every node's state ρ_A(v) is handed
//!    to a **state store**.
//! 2. At the root, `TruePreds(ρ_A(Root))` is the start state `s_B`; the
//!    per-query root verdicts are membership tests on it, so a
//!    verdict-only run stops here and needs no store at all.
//! 3. *Fold down.* The top-down automaton `B` runs over the records in
//!    preorder (the forward scan), reading ρ_A back from the store in
//!    lockstep, and every node's true-predicate set is demultiplexed
//!    into per-query node sets and counts — and, on demand, streamed to a
//!    hook in document order.
//!
//! # The plan
//!
//! Disjoint subtrees fold independently (paper §6.2), and a subtree is a
//! contiguous preorder window `[v, end(v))`. A run is therefore planned
//! as a *frontier* of disjoint windows plus the *spine* of split
//! ancestors above them ([`SubtreeIndex::frontier`]): each window is
//! folded up by a worker with its own lazy automata, the handful of
//! spine nodes are stepped on the master automata once the workers'
//! states are re-interned, and the fold down mirrors that — spine first,
//! then every window from the state the spine handed its root. Workers
//! coordinate nowhere but at the spine. A sequential run is not a second
//! algorithm: `threads ≤ 1` (or a document with no useful frontier) is
//! the plan `{windows: [[0, n)], spine: ∅}`, folded on the caller's
//! thread with the master automata, no second automata and no remap.
//!
//! A document-order hook needs one global preorder, so under
//! [`Demand::Stream`] a sharded run folds *down* as one window `[0, n)`
//! on the master, translating each window's worker-local state ids
//! through the worker → master remap (the fold up stays sharded).
//!
//! # Sources and stores
//!
//! Where the records and the states live is a parameter, not a variant
//! of the algorithm. A [`RecordSource`] opens backward and forward
//! [`RecordStream`]s over any window, answers point reads for the spine
//! and lends the subtree extents the planner splits on; a [`StateStore`]
//! opens a backward writer and a forward reader per window and takes the
//! spine's states as patches. An in-memory [`BinaryTree`] and
//! [`VecStore`] live here; the `.arb` scans and the flat /
//! block-compressed `.sta` files are adapted in `arb-engine`. Both are
//! generic parameters, monomorphised per pairing — nothing is resolved
//! per node.
//!
//! Both sides move **runs**, not nodes. A record stream yields slices —
//! a decoded v2 block, a slab of v1 records, a chunk of a tree — and the
//! two stack folds walk each slice in a plain loop, so a source's
//! framing, I/O and error handling are paid once per run. The fold up
//! collects ρ_A into runs of `STATE_RUN` ids, filled from the back so
//! that each is in **ascending node order**, and hands them to
//! [`StateWriter::write_run`] (each run directly below the previous
//! one); the fold down asks [`StateReader::read_run`] for the states of
//! the next nodes, never past its window. Per node, what is left is the
//! automaton step itself — a few array loads
//! ([`QueryAutomata::bottom_up`] / [`QueryAutomata::top_down`]) — and an
//! occurrence count in the demultiplexer, which looks the query atoms up
//! once per predicate set rather than once per node.
//!
//! Runs do not loosen the **error latch**. A reader that meets damage
//! part-way through a run returns the intact states first and the error
//! on its next call; the fold down validates every id on its own, in
//! node order, before it indexes anything; and after the first failed
//! read or validation nothing more is fed to the automaton, the demux or
//! the hook. A sink therefore sees exactly the nodes ahead of the first
//! bad id, and the error names that node.
//!
//! # Why the order is fixed
//!
//! Lazy automata intern states in first-seen order, so the visiting
//! order *is* the state numbering: it decides the bytes of the `.sta`
//! stream and the shape of the δ tables. Every source is folded up in
//! reverse preorder and down in preorder through the same two stack
//! folds ([`arb_tree::traverse`]), so one program over one document
//! yields one ρ_A id stream on every source.

use crate::frontier::SubtreeIndex;
use crate::lazy::{AutomataPool, QueryAutomata};
use crate::stats::EvalStats;
use arb_logic::{Atom, PredSetId, PredSetInterner, PredSetView, ProgramId};
use arb_tmnf::CoreProgram;
use arb_tree::traverse::{
    bottom_up_scan_seeded, top_down_scan, DownContext, Preorder, Record, RecordStream,
    ReversePreorder,
};
use arb_tree::{BinaryTree, NodeId, NodeInfo, NodeSet};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Where the records live: anything that can stream any preorder window
/// in both directions.
pub trait RecordSource: Sync {
    /// The backward stream of a window (`hi − 1` down to `lo`).
    type Backward<'a>: RecordStream
    where
        Self: 'a;
    /// The forward stream of a window (`lo` up to `hi − 1`).
    type Forward<'a>: RecordStream
    where
        Self: 'a;

    /// Number of records.
    fn node_count(&self) -> u32;
    /// Opens a backward stream over `[lo, hi)`.
    fn backward(&self, lo: u32, hi: u32) -> io::Result<Self::Backward<'_>>;
    /// Opens a forward stream over `[lo, hi)`.
    fn forward(&self, lo: u32, hi: u32) -> io::Result<Self::Forward<'_>>;
    /// A single record (the spine is a handful of scattered nodes).
    fn record_at(&self, ix: u32) -> io::Result<NodeInfo>;
    /// The subtree extents the planner splits on — borrowed, where the
    /// source keeps them cached across runs — plus the number of
    /// backward metadata scans obtaining them cost (0 when cached or
    /// computed without a scan).
    fn subtree_index(&self) -> io::Result<(SubtreeIndex<'_>, u64)>;
    /// On-disk format version, 0 for memory (`EvalStats::db_format`).
    fn format_version(&self) -> u8 {
        0
    }
    /// Lifetime count of storage blocks decoded (`EvalStats::blocks_decoded`
    /// reports the difference across a run).
    fn blocks_decoded(&self) -> u64 {
        0
    }
}

impl RecordSource for BinaryTree {
    type Backward<'a> = ReversePreorder<'a, BinaryTree>;
    type Forward<'a> = Preorder<'a, BinaryTree>;

    fn node_count(&self) -> u32 {
        self.len() as u32
    }

    fn backward(&self, lo: u32, hi: u32) -> io::Result<Self::Backward<'_>> {
        Ok(ReversePreorder::new(self, lo, hi))
    }

    fn forward(&self, lo: u32, hi: u32) -> io::Result<Self::Forward<'_>> {
        Ok(Preorder::new(self, lo, hi))
    }

    fn record_at(&self, ix: u32) -> io::Result<NodeInfo> {
        Ok(self.info(NodeId(ix)))
    }

    /// A bare tree has nowhere to keep its extents: every sharded run
    /// folds them afresh (the engine's memory backing caches them beside
    /// its tree instead).
    fn subtree_index(&self) -> io::Result<(SubtreeIndex<'_>, u64)> {
        Ok((SubtreeIndex::from_seq(self)?, 0))
    }
}

/// Receives one window's ρ_A states during the fold up, a run at a time.
pub trait StateWriter {
    /// Takes the states of the next run of nodes. The fold visits
    /// `hi − 1 .. lo`, so each run lies directly below the one before it;
    /// *within* a run the states are in ascending node order, ready to be
    /// copied or encoded as they stand.
    fn write_run(&mut self, states: &[u32]) -> io::Result<()>;
    /// Completes the window; returns the encoded bytes it occupies.
    fn finish(self) -> io::Result<u64>;
}

/// Serves ρ_A states back in preorder during the fold down, a run at a
/// time.
pub trait StateReader {
    /// Fills a prefix of `out` with the states of the next nodes and
    /// returns its length — at least 1 for a non-empty `out`. A reader
    /// that meets a failure part-way delivers the intact states before it
    /// first and the error on the next call, so the fold down sees
    /// exactly the nodes ahead of the damage.
    fn read_run(&mut self, out: &mut [u32]) -> io::Result<usize>;
    /// Bytes of state data delivered so far (`EvalStats::sta_decoded_bytes`).
    fn decoded_bytes(&self) -> u64 {
        0
    }
}

/// Where ρ_A lives between the two folds.
pub trait StateStore: Sync {
    /// A window's backward writer.
    type Writer<'a>: StateWriter
    where
        Self: 'a;
    /// A forward reader.
    type Reader<'a>: StateReader
    where
        Self: 'a;

    /// Prepares a stream of `n` states that several windows will fill
    /// concurrently — called once, and only by multi-window plans.
    /// Returns the encoded bytes this step itself produced.
    fn allocate(&self, n: u32) -> io::Result<u64>;
    /// Opens the window `[lo, hi)` for writing. The one-window plan
    /// writes `[0, n)` without a prior [`allocate`](StateStore::allocate).
    fn writer(&self, lo: u32, hi: u32) -> io::Result<Self::Writer<'_>>;
    /// Stores the spine's `(node, state)` pairs, which no window covers.
    /// Returns the encoded bytes they occupy.
    fn patch(&self, states: &[(u32, ProgramId)]) -> io::Result<u64>;
    /// Opens a reader positioned on node `lo`, serving windows and
    /// patches alike in preorder.
    fn reader(&self, lo: u32) -> io::Result<Self::Reader<'_>>;
}

/// ρ_A in main memory: one slot per node. Workers fill disjoint windows
/// of the shared array, so slots are atomics written and read `Relaxed`
/// — the scoped-thread join between the folds is the synchronisation.
pub struct VecStore(Vec<AtomicU32>);

impl VecStore {
    /// A store for `n` nodes.
    pub fn new(n: u32) -> Self {
        VecStore((0..n).map(|_| AtomicU32::new(0)).collect())
    }

    fn slots(&self, lo: u32, hi: u32) -> io::Result<&[AtomicU32]> {
        self.0
            .get(lo as usize..hi as usize)
            .ok_or_else(|| invalid(format!("state window [{lo}, {hi}) outside the store")))
    }
}

/// A cursor over a window of [`VecStore`] slots: counts down as a
/// writer, up as a reader.
pub struct VecCursor<'a> {
    slots: &'a [AtomicU32],
    next: usize,
    /// Preorder index of `slots[0]` (error context).
    base: u32,
}

impl StateWriter for VecCursor<'_> {
    fn write_run(&mut self, states: &[u32]) -> io::Result<()> {
        let lo = self
            .next
            .checked_sub(states.len())
            .ok_or_else(|| invalid("more states written than the window holds".into()))?;
        for (slot, &s) in self.slots[lo..self.next].iter().zip(states) {
            slot.store(s, Ordering::Relaxed);
        }
        self.next = lo;
        Ok(())
    }

    fn finish(self) -> io::Result<u64> {
        if self.next != 0 {
            return Err(invalid("fewer states written than the window holds".into()));
        }
        Ok(0)
    }
}

impl StateReader for VecCursor<'_> {
    fn read_run(&mut self, out: &mut [u32]) -> io::Result<usize> {
        let rest = &self.slots[self.next..];
        if rest.is_empty() && !out.is_empty() {
            return Err(invalid(format!(
                "no state for node {}",
                self.base as usize + self.next
            )));
        }
        let k = out.len().min(rest.len());
        for (o, slot) in out.iter_mut().zip(rest) {
            *o = slot.load(Ordering::Relaxed);
        }
        self.next += k;
        Ok(k)
    }
}

impl StateStore for VecStore {
    type Writer<'a> = VecCursor<'a>;
    type Reader<'a> = VecCursor<'a>;

    fn allocate(&self, _n: u32) -> io::Result<u64> {
        Ok(0)
    }

    fn writer(&self, lo: u32, hi: u32) -> io::Result<VecCursor<'_>> {
        let slots = self.slots(lo, hi)?;
        Ok(VecCursor {
            slots,
            next: slots.len(),
            base: lo,
        })
    }

    fn patch(&self, states: &[(u32, ProgramId)]) -> io::Result<u64> {
        for &(ix, s) in states {
            self.slots(ix, ix + 1)?[0].store(s.0, Ordering::Relaxed);
        }
        Ok(0)
    }

    fn reader(&self, lo: u32) -> io::Result<VecCursor<'_>> {
        Ok(VecCursor {
            slots: self.slots(lo, self.0.len() as u32)?,
            next: 0,
            base: lo,
        })
    }
}

/// No store: verdict-only runs ([`Demand::Verdicts`]) never fold down,
/// so ρ_A is dropped as it is computed.
pub struct NoStore;

impl StateWriter for NoStore {
    fn write_run(&mut self, _states: &[u32]) -> io::Result<()> {
        Ok(())
    }

    fn finish(self) -> io::Result<u64> {
        Ok(0)
    }
}

impl StateReader for NoStore {
    fn read_run(&mut self, _out: &mut [u32]) -> io::Result<usize> {
        Err(invalid("this run kept no state stream".into()))
    }
}

impl StateStore for NoStore {
    type Writer<'a> = NoStore;
    type Reader<'a> = NoStore;

    fn allocate(&self, _n: u32) -> io::Result<u64> {
        Ok(0)
    }

    fn writer(&self, _lo: u32, _hi: u32) -> io::Result<NoStore> {
        Ok(NoStore)
    }

    fn patch(&self, _states: &[(u32, ProgramId)]) -> io::Result<u64> {
        Ok(0)
    }

    fn reader(&self, _lo: u32) -> io::Result<NoStore> {
        Ok(NoStore)
    }
}

/// One node as the fold down sees it, handed to a [`NodeHook`].
pub struct Visit<'a> {
    /// Preorder index.
    pub ix: u32,
    /// The node's record.
    pub info: NodeInfo,
    /// ρ_A(v), as a master-automata id.
    pub rho_a: ProgramId,
    /// ρ_B(v), as a master-automata id.
    pub rho_b: PredSetId,
    /// The predicates true at the node (a view into the automata's arena).
    pub preds: PredSetView<'a>,
    /// One selected-flag per query group.
    pub selected_by: &'a [bool],
}

/// Per-node callback of [`Demand::Stream`], invoked in document order.
pub type NodeHook<'h> = &'h mut dyn FnMut(&Visit<'_>);

/// How much of the two folds a caller needs.
pub enum Demand<'h> {
    /// Per-group root verdicts only: the fold up, and nothing stored.
    Verdicts,
    /// Per-group node sets and per-atom counts.
    Sets,
    /// Sets and counts, plus every node streamed to the hook in document
    /// order while the fold down runs.
    Stream(NodeHook<'h>),
}

/// What [`evaluate`] produces.
pub struct Evaluation {
    /// The master automata the run stepped (every id in a [`Visit`] is
    /// its id). Return it to the pool, or keep it to keep the ids.
    pub automata: QueryAutomata,
    /// Per group: does one of its atoms hold at the root?
    pub verdicts: Vec<bool>,
    /// Per-atom selection counts, flattened in group order.
    pub counts: Vec<u64>,
    /// Per-group selected nodes (no members under [`Demand::Verdicts`]).
    pub sets: Vec<NodeSet>,
    /// The run's statistics; `selected` counts the union of the groups.
    pub stats: EvalStats,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// States per run between the folds and a state store: the fold up
/// collects this many ρ_A ids before it hands them to the writer, the
/// fold down asks the reader for this many at a time. Anything from a
/// few hundred up amortises the call — warm disk evaluations of the
/// treebank pool measured 40.5–41.1 ns/node at 256, 40.4–41.1 at 4096 and
/// 41.0–41.6 at 32 Ki — so it is a constant: 4096 ids are 16 KiB of
/// stack.
const STATE_RUN: usize = 4096;

/// Demultiplexes predicate sets into one node set per group and one
/// count per atom. The query atoms are looked up once per *predicate set*
/// — a window sees a handful of distinct ρ_B ids — and a node only bumps
/// its set's occurrence count, and enters a node set only if its set
/// selects something; that is what makes batch demultiplexing free.
struct Demux<'g> {
    groups: &'g [Vec<Atom>],
    /// Per-atom counts settled so far (see [`Demux::settle`]).
    counts: Vec<u64>,
    sets: Vec<NodeSet>,
    /// Per ρ_B id: does any query atom hold in it? Resolved on first
    /// sight (`None` until then).
    selects: Vec<Option<bool>>,
    /// Per ρ_B id: nodes seen with it since the last settle.
    occurrences: Vec<u64>,
    /// Per ρ_B id × group: does an atom of the group hold?
    flags: Vec<bool>,
    /// Per ρ_B id × atom (flattened in group order): does it hold?
    hits: Vec<bool>,
}

impl<'g> Demux<'g> {
    /// Accumulators for a window of `len` nodes (sets are indexed
    /// relative to the window, so the workers of a sharded run together
    /// hold one document's worth of bits per group).
    fn new(groups: &'g [Vec<Atom>], len: u32) -> Self {
        Demux {
            groups,
            counts: vec![0; groups.iter().map(Vec::len).sum()],
            sets: groups.iter().map(|_| NodeSet::new(len as usize)).collect(),
            selects: Vec::new(),
            occurrences: Vec::new(),
            flags: Vec::new(),
            hits: Vec::new(),
        }
    }

    /// Looks the query atoms up in predicate set `q`.
    #[cold]
    fn resolve(&mut self, q: usize, preds: PredSetView<'_>) {
        if self.selects.len() <= q {
            self.selects.resize(q + 1, None);
            self.occurrences.resize(q + 1, 0);
            self.flags.resize((q + 1) * self.groups.len(), false);
            self.hits.resize((q + 1) * self.counts.len(), false);
        }
        let mut atom = q * self.counts.len();
        let mut some = false;
        for (g, atoms) in self.groups.iter().enumerate() {
            let mut any = false;
            for a in atoms {
                self.hits[atom] = preds.contains(*a);
                any |= self.hits[atom];
                atom += 1;
            }
            self.flags[q * self.groups.len() + g] = any;
            some |= any;
        }
        self.selects[q] = Some(some);
    }

    /// Records node `ix` (window-relative) as carrying predicate set
    /// `rho_b`; returns one selected-flag per group.
    #[inline]
    fn node(&mut self, rho_b: PredSetId, predsets: &PredSetInterner, ix: u32) -> &[bool] {
        let q = rho_b.0 as usize;
        if self.selects.get(q).is_none_or(Option::is_none) {
            self.resolve(q, predsets.get(rho_b));
        }
        self.occurrences[q] += 1;
        let flags = &self.flags[q * self.groups.len()..(q + 1) * self.groups.len()];
        if self.selects[q] == Some(true) {
            for (set, _) in self.sets.iter_mut().zip(flags).filter(|(_, f)| **f) {
                set.insert(NodeId(ix));
            }
        }
        flags
    }

    /// Turns the occurrence counts into per-atom counts.
    fn settle(&mut self) {
        let atoms = self.counts.len();
        for (q, seen) in self.occurrences.iter_mut().enumerate() {
            for (count, _) in self
                .counts
                .iter_mut()
                .zip(&self.hits[q * atoms..(q + 1) * atoms])
                .filter(|(_, hit)| **hit)
            {
                *count += *seen;
            }
            *seen = 0;
        }
    }

    /// Adds a window's results at preorder offset `lo`.
    fn absorb(&mut self, lo: u32, mut window: Demux<'_>) {
        window.settle();
        for (acc, c) in self.counts.iter_mut().zip(window.counts) {
            *acc += c;
        }
        for (acc, s) in self.sets.iter_mut().zip(&window.sets) {
            for v in s.iter() {
                acc.insert(NodeId(lo + v.0));
            }
        }
    }
}

/// Folds one window up: the bottom-up automaton over a backward record
/// stream. ρ_A is handed to `put` a run at a time — `put(ix, states)`
/// receives the states of nodes `ix .. ix + states.len()` in ascending
/// order, each run directly below the one before. `seed` is the state of
/// the window root's second child when that child lies just past the
/// window (an incremental re-fold over an edited record window); a whole
/// subtree takes `None`. Returns the window root's state.
pub fn fold_up<R: RecordStream>(
    scan: &mut R,
    qa: &mut QueryAutomata,
    seed: Option<ProgramId>,
    mut put: impl FnMut(u32, &[u32]) -> io::Result<()>,
) -> io::Result<ProgramId> {
    // The run fills from the back, so it is in ascending node order.
    let mut run = [0u32; STATE_RUN];
    let mut free = STATE_RUN;
    let mut lowest = 0u32;
    let mut put_err: Option<io::Error> = None;
    let root = bottom_up_scan_seeded(scan, seed, |s1, s2, rec, ix| {
        let s = qa.bottom_up(s1, s2, rec.info(ix));
        if free == 0 {
            if put_err.is_none() {
                put_err = put(lowest, &run).err();
            }
            free = STATE_RUN;
        }
        free -= 1;
        run[free] = s.0;
        lowest = ix;
        s
    })?;
    match put_err {
        Some(e) => Err(e),
        None => put(lowest, &run[free..]).map(|()| root),
    }
}

/// [`fold_up`] over the window `[lo, hi)` of a source, into a store.
/// Returns the window root's state and the encoded bytes written.
fn fold_window_up<R: RecordSource + ?Sized, S: StateStore>(
    source: &R,
    store: &S,
    qa: &mut QueryAutomata,
    (lo, hi): (u32, u32),
) -> io::Result<(ProgramId, u64)> {
    let mut scan = source.backward(lo, hi)?;
    let mut out = store.writer(lo, hi)?;
    let root = fold_up(&mut scan, qa, None, |_, states| out.write_run(states))?;
    Ok((root, out.finish()?))
}

/// Folds the window `[lo, hi)` down: the top-down automaton over a
/// forward record stream in lockstep with the stored ρ_A, from the
/// window root's state `start`, demultiplexing every node into `demux`
/// (window-relative) and feeding `hook`. `translate` maps a stored id to
/// this automata's id space (`None`: no such state).
///
/// States are read a run at a time, but every id is still validated on
/// its own, in node order, before it indexes anything; once a read or a
/// validation fails the fold stops feeding the automaton, the demux and
/// the hook entirely — a fabricated annotation must never reach a sink.
/// Returns the state bytes consumed.
#[allow(clippy::too_many_arguments)]
fn fold_window_down<R: RecordSource + ?Sized, S: StateStore>(
    source: &R,
    store: &S,
    qa: &mut QueryAutomata,
    (lo, hi): (u32, u32),
    start: PredSetId,
    mut translate: impl FnMut(u32, u32) -> Option<ProgramId>,
    demux: &mut Demux<'_>,
    mut hook: Option<NodeHook<'_>>,
) -> io::Result<u64> {
    let mut scan = source.forward(lo, hi)?;
    let mut states = store.reader(lo)?;
    let mut run = [0u32; STATE_RUN];
    // `run[at..len]` are the states of the nodes about to be visited.
    let (mut at, mut len) = (0usize, 0usize);
    let mut latched: Option<io::Error> = None;
    top_down_scan(&mut scan, |ctx, rec, ix| -> PredSetId {
        if latched.is_some() {
            return PredSetId(0);
        }
        if at == len {
            // Never past the window: the next window's states may not
            // exist yet, or belong to another worker's id space.
            let want = STATE_RUN.min((hi - ix) as usize);
            match states.read_run(&mut run[..want]) {
                Ok(k) if k > 0 => (at, len) = (0, k),
                Ok(_) => latched = Some(invalid(format!("no state for node {ix}"))),
                Err(e) => latched = Some(e),
            }
            if latched.is_some() {
                return PredSetId(0);
            }
        }
        let raw = run[at];
        at += 1;
        let Some(rho_a) = translate(ix, raw).filter(|a| (a.0 as usize) < qa.programs.len()) else {
            latched = Some(invalid(format!(
                "corrupt state stream: node {ix} holds the unknown state id {raw}"
            )));
            return PredSetId(0);
        };
        let rho_b = match ctx {
            DownContext::Root => start,
            DownContext::Child(parent, k) => qa.top_down(parent, rho_a, k),
        };
        let selected_by = demux.node(rho_b, &qa.predsets, ix - lo);
        if let Some(h) = hook.as_mut() {
            h(&Visit {
                ix,
                info: rec.info(ix),
                rho_a,
                rho_b,
                preds: qa.predsets.get(rho_b),
                selected_by,
            });
        }
        rho_b
    })?;
    match latched {
        Some(e) => Err(e),
        None => Ok(states.decoded_bytes()),
    }
}

/// One worker of a sharded run: its lazy automata (whose program table
/// gives its windows' stored ids their meaning) and its windows with
/// the worker-local state each folded to.
struct Worker {
    qa: QueryAutomata,
    windows: Vec<(u32, u32, ProgramId)>,
    encoded: u64,
}

/// The spine of a sharded run, stepped on the master automata.
struct Spine<'s> {
    idx: SubtreeIndex<'s>,
    /// Spine nodes in preorder.
    nodes: Vec<u32>,
    /// ρ_A of the spine nodes and of the window roots, as master ids.
    rho_a: HashMap<u32, ProgramId>,
}

impl Spine<'_> {
    fn children(&self, v: u32) -> impl Iterator<Item = (u8, u32)> {
        [(1, self.idx.first_child(v)), (2, self.idx.second_child(v))]
            .into_iter()
            .filter_map(|(k, c)| Some((k, c?)))
    }
}

/// A multi-window plan: the frontier's window roots (sorted) and the
/// subtree extents they were picked from.
struct Frontier<'s> {
    idx: SubtreeIndex<'s>,
    roots: Vec<u32>,
}

/// Plans the frontier: `None` is the one-window plan (`threads ≤ 1`, or
/// a tiny or degenerate document with nothing worth splitting). Also
/// returns the metadata scans planning cost.
fn plan<R: RecordSource + ?Sized>(
    source: &R,
    threads: usize,
) -> io::Result<(Option<Frontier<'_>>, u64)> {
    if threads <= 1 {
        return Ok((None, 0));
    }
    let (idx, scans) = source.subtree_index()?;
    // The clamp keeps absurd requests from planning millions of windows.
    let roots = idx.frontier(threads.min(1024) * 4);
    Ok(((roots.len() > 1).then_some(Frontier { idx, roots }), scans))
}

/// Evaluates `prog` over `source` by the two folds (see the module
/// docs), keeping ρ_A in `store` between them. `groups` are the query
/// atoms to demultiplex (one group per query of a batch); `threads > 1`
/// shards the folds over a subtree frontier when the document admits
/// one. The master automata is taken from `pool` and returned in the
/// [`Evaluation`]; workers' automata are taken from and returned to it.
///
/// Errors with `InvalidData` on an empty source, on record streams that
/// do not describe one tree, and on stored state ids no automaton knows.
pub fn evaluate<R: RecordSource + ?Sized, S: StateStore>(
    prog: &CoreProgram,
    source: &R,
    store: &S,
    groups: &[Vec<Atom>],
    demand: Demand<'_>,
    threads: usize,
    pool: &AutomataPool,
) -> io::Result<Evaluation> {
    let n = source.node_count();
    if n == 0 {
        return Err(invalid(
            "cannot evaluate a query on an empty database".into(),
        ));
    }
    let pool0 = (pool.builds(), pool.reused(), pool.build_time());
    let blocks0 = source.blocks_decoded();
    let mut qa = pool.take(prog);

    // --- Fold up: windows in parallel, then the spine ---------------------
    let t1 = Instant::now();
    let (frontier, mut backward_scans) = plan(source, threads)?;
    let mut workers: Vec<Worker> = Vec::new();
    let mut remaps: Vec<Vec<ProgramId>> = Vec::new();
    let mut spine: Option<Spine<'_>> = None;
    let (root_state, sta_encoded_bytes) = match frontier {
        None => {
            backward_scans += 1;
            fold_window_up(source, store, &mut qa, (0, n))?
        }
        Some(Frontier { idx, roots }) => {
            backward_scans += roots.len() as u64;
            let mut encoded = store.allocate(n)?;
            // Round-robin the windows over the workers.
            let mut shares = vec![Vec::new(); threads.min(roots.len())];
            for (i, &r) in roots.iter().enumerate() {
                let share = i % shares.len();
                shares[share].push((r, idx.end(r)));
            }
            let results: Vec<io::Result<Worker>> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = shares
                    .into_iter()
                    .map(|mine| {
                        scope.spawn(move |_| -> io::Result<Worker> {
                            let mut w = Worker {
                                qa: pool.take(prog),
                                windows: Vec::with_capacity(mine.len()),
                                encoded: 0,
                            };
                            for (lo, hi) in mine {
                                let (root, bytes) =
                                    fold_window_up(source, store, &mut w.qa, (lo, hi))?;
                                w.windows.push((lo, hi, root));
                                w.encoded += bytes;
                            }
                            Ok(w)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fold-up worker panicked"))
                    .collect()
            })
            .expect("thread scope failed");
            workers = results.into_iter().collect::<io::Result<_>>()?;

            // Re-intern the workers' states into the master — by
            // reference, so a state several workers discovered is cloned
            // at most once. A warm worker may know states this run never
            // touched; remapping its whole table only costs probes.
            let mut rho_a = HashMap::new();
            for w in &workers {
                encoded += w.encoded;
                let remap: Vec<ProgramId> = (0..w.qa.programs.len() as u32)
                    .map(|i| qa.programs.intern_ref(w.qa.programs.get(ProgramId(i))))
                    .collect();
                for &(lo, _, local) in &w.windows {
                    rho_a.insert(lo, remap[local.0 as usize]);
                }
                remaps.push(remap);
            }

            // The spine: children of spine nodes are spine nodes or
            // window roots, so reverse preorder has every child at hand.
            let mut sp = Spine {
                nodes: idx.spine(&roots),
                idx,
                rho_a,
            };
            debug_assert_eq!(sp.nodes.first(), Some(&0), "the root is a split node");
            let mut patches = Vec::with_capacity(sp.nodes.len());
            for &v in sp.nodes.iter().rev() {
                let mut kids = [None, None];
                for (k, c) in sp.children(v) {
                    kids[k as usize - 1] = Some(sp.rho_a[&c]);
                }
                let s = qa.bottom_up(kids[0], kids[1], source.record_at(v)?);
                sp.rho_a.insert(v, s);
                patches.push((v, s));
            }
            encoded += store.patch(&patches)?;
            let root_state = sp.rho_a[&0];
            spine = Some(sp);
            (root_state, encoded)
        }
    };
    let phase1_time = t1.elapsed();

    // --- The root: start state and verdicts -------------------------------
    let t2 = Instant::now();
    let start = qa.start_state(root_state);
    let root_preds = qa.predsets.get(start);
    let verdicts = groups
        .iter()
        .map(|atoms| atoms.iter().any(|a| root_preds.contains(*a)))
        .collect();

    // --- Fold down: the spine, then windows in parallel -------------------
    let (descend, hook) = match demand {
        Demand::Verdicts => (false, None),
        Demand::Sets => (true, None),
        Demand::Stream(hook) => (true, Some(hook)),
    };
    let mut total = Demux::new(groups, if descend { n } else { 0 });
    let mut forward_scans = 0u64;
    let mut sta_decoded_bytes = 0u64;
    match spine.as_ref().filter(|_| hook.is_none()) {
        // One window on the master: the one-window plan, and every
        // document-order stream (a hook needs one global preorder, so a
        // sharded run translates each window's worker-local ids through
        // its remap; spine slots already hold master ids).
        None if descend => {
            let mut ranges: Vec<(u32, u32, usize)> = Vec::new();
            for (wi, w) in workers.iter().enumerate() {
                ranges.extend(w.windows.iter().map(|&(lo, hi, _)| (lo, hi, wi)));
            }
            ranges.sort_unstable();
            let mut cursor = 0usize;
            forward_scans = 1;
            sta_decoded_bytes = fold_window_down(
                source,
                store,
                &mut qa,
                (0, n),
                start,
                |ix, raw| {
                    while cursor < ranges.len() && ix >= ranges[cursor].1 {
                        cursor += 1;
                    }
                    match ranges.get(cursor) {
                        Some(&(lo, _, wi)) if ix >= lo => remaps[wi].get(raw as usize).copied(),
                        _ => Some(ProgramId(raw)),
                    }
                },
                &mut total,
                hook,
            )?;
        }
        Some(sp) if descend => {
            // The spine hands every window root its predicate set.
            let mut rho_b: HashMap<u32, PredSetId> = HashMap::from([(0, start)]);
            for &v in &sp.nodes {
                let q = rho_b[&v];
                total.node(q, &qa.predsets, v);
                for (k, c) in sp.children(v) {
                    rho_b.insert(c, qa.top_down(q, sp.rho_a[&c], k));
                }
            }
            // The same workers descend their windows: their own program
            // tables still give the stored ids meaning, so nothing is
            // remapped; only the root's set crosses from the master.
            type Descent<'g> = (Worker, Vec<(u32, Demux<'g>)>, u64);
            let (master_sets, rho_b) = (&qa.predsets, &rho_b);
            let results: Vec<io::Result<Descent<'_>>> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .drain(..)
                    .map(|mut w| {
                        scope.spawn(move |_| -> io::Result<Descent<'_>> {
                            let mut out = Vec::with_capacity(w.windows.len());
                            let mut decoded = 0u64;
                            for &(lo, hi, _) in &w.windows {
                                let q0 =
                                    w.qa.predsets
                                        .intern_sorted(master_sets.get(rho_b[&lo]).atoms());
                                let mut demux = Demux::new(groups, hi - lo);
                                decoded += fold_window_down(
                                    source,
                                    store,
                                    &mut w.qa,
                                    (lo, hi),
                                    q0,
                                    |_, raw| Some(ProgramId(raw)),
                                    &mut demux,
                                    None,
                                )?;
                                out.push((lo, demux));
                            }
                            Ok((w, out, decoded))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fold-down worker panicked"))
                    .collect()
            })
            .expect("thread scope failed");
            for res in results {
                let (worker, windows, decoded) = res?;
                forward_scans += windows.len() as u64;
                sta_decoded_bytes += decoded;
                for (lo, window) in windows {
                    total.absorb(lo, window);
                }
                workers.push(worker);
            }
        }
        // A verdict-only run stops at the root.
        _ => {}
    }
    let phase2_time = t2.elapsed();

    total.settle();

    // --- Statistics: assembled here and nowhere else ----------------------
    let selected = match total.sets.as_slice() {
        [] => 0,
        [one] => one.count(),
        [first, rest @ ..] => {
            let mut union = first.clone();
            rest.iter().for_each(|s| union.union_with(s));
            union.count()
        }
    };
    let mut stats = EvalStats {
        idb_count: prog.pred_count(),
        rule_count: prog.rule_count(),
        phase1_time,
        phase1_transitions: qa.bu_transitions,
        phase2_time,
        phase2_transitions: qa.td_transitions,
        selected: selected as u64,
        memory_bytes: qa.memory_bytes(),
        bu_states: qa.bu_state_count(),
        td_states: qa.td_state_count(),
        nodes: n as u64,
        backward_scans,
        forward_scans,
        sta_encoded_bytes,
        sta_decoded_bytes,
        db_format: source.format_version(),
        blocks_decoded: source.blocks_decoded() - blocks0,
        automata_builds: pool.builds() - pool0.0,
        automata_reused: pool.reused() - pool0.1,
        automata_build_time: pool.build_time().saturating_sub(pool0.2),
        interning: qa.intern_stats(),
        ..Default::default()
    };
    // Workers computed their lazy tables independently, so the run's
    // work is the sum over all of them; their automata go back to the
    // pool warm for the next run.
    for w in workers {
        stats.phase1_transitions += w.qa.bu_transitions;
        stats.phase2_transitions += w.qa.td_transitions;
        stats.memory_bytes += w.qa.memory_bytes();
        stats.interning.absorb(&w.qa.intern_stats());
        pool.put(w.qa);
    }
    Ok(Evaluation {
        automata: qa,
        verdicts,
        counts: total.counts,
        sets: total.sets,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_tmnf::{normalize, parse_program};
    use arb_tree::{LabelTable, TreeBuilder};

    /// A [`VecStore`] whose reader fails at one node and then "recovers"
    /// — the shape under which a fold that merely skipped the failing
    /// node would resume streaming fabricated annotations.
    struct Flaky {
        inner: VecStore,
        fail_at: u32,
    }

    struct FlakyReader<'a> {
        inner: VecCursor<'a>,
        ix: u32,
        fail_at: u32,
    }

    impl StateReader for FlakyReader<'_> {
        /// Delivers the intact prefix of a run first; the failing node
        /// is consumed with the error, so the next read "recovers".
        fn read_run(&mut self, out: &mut [u32]) -> io::Result<usize> {
            if self.ix == self.fail_at {
                self.ix += self.inner.read_run(&mut out[..1])? as u32;
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "injected"));
            }
            let intact = match self.fail_at.checked_sub(self.ix) {
                Some(ahead) => out.len().min(ahead as usize),
                None => out.len(),
            };
            let k = self.inner.read_run(&mut out[..intact])?;
            self.ix += k as u32;
            Ok(k)
        }
    }

    impl StateStore for Flaky {
        type Writer<'a> = VecCursor<'a>;
        type Reader<'a> = FlakyReader<'a>;

        fn allocate(&self, n: u32) -> io::Result<u64> {
            self.inner.allocate(n)
        }

        fn writer(&self, lo: u32, hi: u32) -> io::Result<VecCursor<'_>> {
            self.inner.writer(lo, hi)
        }

        fn patch(&self, states: &[(u32, ProgramId)]) -> io::Result<u64> {
            self.inner.patch(states)
        }

        fn reader(&self, lo: u32) -> io::Result<FlakyReader<'_>> {
            Ok(FlakyReader {
                inner: self.inner.reader(lo)?,
                ix: lo,
                fail_at: self.fail_at,
            })
        }
    }

    /// Once a state read fails, neither the demux nor the hook may see
    /// another (fabricated) record, and the error surfaces.
    #[test]
    fn phase2_stops_feeding_hook_after_state_read_error() {
        let mut lt = LabelTable::new();
        let ast = parse_program("QUERY :- V.Label[b];", &mut lt).unwrap();
        let mut prog = normalize(&ast);
        let q = prog.pred_id("QUERY").unwrap();
        prog.add_query_pred(q);
        let (a, b) = (lt.intern("a").unwrap(), lt.get("b").unwrap());
        let mut tb = TreeBuilder::new();
        tb.open(a);
        for label in [b, a, b, a] {
            tb.leaf(label);
        }
        tb.close();
        let tree = tb.finish().unwrap();

        let store = Flaky {
            inner: VecStore::new(tree.len() as u32),
            fail_at: 2,
        };
        let mut calls = Vec::new();
        let mut hook = |v: &Visit<'_>| calls.push(v.ix);
        let res = evaluate(
            &prog,
            &tree,
            &store,
            &[vec![Atom::local(q)]],
            Demand::Stream(&mut hook),
            1,
            &AutomataPool::new(),
        );
        assert!(res.is_err(), "the injected error must surface");
        assert_eq!(
            calls,
            vec![0, 1],
            "no fabricated records may reach the hook after the error"
        );
    }

    /// An empty source is an error on every demand, not a panic.
    #[test]
    fn empty_source_is_an_error() {
        let mut lt = LabelTable::new();
        let prog = normalize(&parse_program("QUERY :- Root;", &mut lt).unwrap());
        let empty = BinaryTree::from_parts(vec![], vec![], vec![]).unwrap();
        let err = evaluate(
            &prog,
            &empty,
            &NoStore,
            &[],
            Demand::Verdicts,
            1,
            &AutomataPool::new(),
        )
        .err()
        .expect("nothing to evaluate");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("empty database"), "{err}");
    }
}
