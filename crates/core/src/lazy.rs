//! The lazily-computed deterministic automata `A` and `B` (paper
//! Section 4, Figures 2 and 3).
//!
//! States of the bottom-up automaton `A` are interned residual programs;
//! states of the top-down automaton `B` are interned predicate sets.
//! Transitions are computed on demand by `ComputeReachableStates` and
//! `ComputeTruePreds` and memoized — the paper's "in total, we use four
//! hash tables to store and quickly access the states and transitions of
//! the two automata", and its remedy for the potentially exponential
//! automaton sizes ("they are best computed lazily").
//!
//! # What is hashed, what is dense, who is authoritative
//!
//! The two transition tables are consulted once or twice per tree node,
//! so their layout bounds the throughput of both folds. Each exists
//! twice:
//!
//! * **The hash memos** (`bu_cache`, `td_cache`) are the paper's tables
//!   and the authority. They hold *every* transition ever computed, keyed
//!   by `(child states, symbol)` and `(parent set, child state, k)`; a
//!   miss in them — and nothing else — is a lazily computed transition,
//!   so `bu_transitions` / `td_transitions` and
//!   [`InternStats::bu_entries`] / [`InternStats::td_entries`] count
//!   exactly those. A probe costs a hash and three dependent loads.
//! * **The dense tables** (`DenseA`, `DenseB`) are direct-indexed fronts
//!   of the hash memos, filled as transitions are computed or first
//!   looked up. State and symbol ids are small and dense — five states
//!   for a treebank path query, a few hundred for the widest query of
//!   the benchmark pools — which is where an array beats a relation on
//!   time and space alike (Szépkúti, "Multidimensional or Relational?").
//!   δ_B is one load; δ_A is two, because a flat `(s1, s2, symbol)` cube
//!   grows with `S²·|Σ|` and the rows actually seen do not (see
//!   `DenseA`). A dense miss falls through to the hash memo, so nothing
//!   about the answers, the state numbering or the counts depends on
//!   what the dense tables happen to hold.
//!
//! The dense tables double as ids outgrow them and stop at a byte cap
//! (`DENSE_CAP_BYTES`, 1 MiB each; its comment has the measurement that
//! picked it): past the cap the first-interned states stay dense and
//! the rest is answered by the hash memos, which is today's speed, not a
//! cliff. They survive [`QueryAutomata::reset`] like the interners and
//! the hash memos, count in [`QueryAutomata::memory_bytes`] and
//! [`InternStats::table_bytes`], and are bypassed — never read, never
//! filled — when memoization is switched off
//! ([`QueryAutomata::set_cache_enabled`]).
//!
//! The symbol of a node is a third direct-indexed lookup, in
//! [`AlphabetInterner`], and transition *misses* assemble their LTUR
//! input in reusable scratch buffers (`AutomataScratch`), so the hit
//! path is three array loads and the miss path allocates nothing but the
//! new state.

use crate::alphabet::{AlphabetId, AlphabetInterner};
use arb_logic::{
    contract_rules, ltur, ltur_facts, ltur_residual, Atom, FxCache, LturScratch, PredSetId,
    PredSetInterner, ProgramId, ProgramInterner, Rule,
};
use arb_tmnf::{CoreProgram, PropLocal};
use arb_tree::NodeInfo;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Interning pressure of one [`QueryAutomata`] — the footprint and probe
/// behavior of the four hash tables, their dense fronts and the alphabet
/// memo (surfaced through `EvalStats::interning`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Payload bytes of the interned states (program rules + predicate
    /// set atoms — the arenas themselves).
    pub arena_bytes: usize,
    /// Index bytes: slot arrays, stored hashes, transition key/value
    /// vectors, the dense δ tables, the alphabet memo.
    pub table_bytes: usize,
    /// Longest probe sequence any hash table walked (clustering
    /// indicator).
    pub max_probe: u32,
    /// Distinct schema symbols seen (`|Σ_A|` reached — paper §4 argues
    /// this stays tiny under the schema abstraction).
    pub alphabet_symbols: usize,
    /// Memoized δ_A transitions.
    pub bu_entries: usize,
    /// Memoized δ_B transitions.
    pub td_entries: usize,
}

impl InternStats {
    /// Accumulates another automata's pressure (parallel runs report the
    /// master and all workers combined).
    pub fn absorb(&mut self, other: &InternStats) {
        self.arena_bytes += other.arena_bytes;
        self.table_bytes += other.table_bytes;
        self.max_probe = self.max_probe.max(other.max_probe);
        self.alphabet_symbols = self.alphabet_symbols.max(other.alphabet_symbols);
        self.bu_entries += other.bu_entries;
        self.td_entries += other.td_entries;
    }
}

/// Reusable per-transition scratch buffers: every vector the miss paths
/// of `bottom_up` / `top_down` would otherwise allocate fresh (the same
/// role [`LturScratch`] plays inside LTUR).
#[derive(Default)]
struct AutomataScratch {
    /// `PushDown₁(P¹res)` of the current bottom-up miss.
    down1: Vec<Rule>,
    /// `PushDown₂(P²res)` of the current bottom-up miss.
    down2: Vec<Rule>,
    /// Raw (pre-contraction) LTUR residual.
    raw: Vec<Rule>,
    /// `PredsAsRules(parent_preds)` of the current top-down miss.
    facts: Vec<Rule>,
    /// `PushDown_k(P_res)` of the current top-down miss.
    pushed: Vec<Rule>,
    /// Atoms derived by `ltur_facts`.
    derived: Vec<Atom>,
    /// The assembled predicate set, sorted for interning.
    set: Vec<Atom>,
}

/// Byte cap of each of the two dense δ tables, so a `QueryAutomata` holds
/// at most 2 MiB on top of its hash memos. The value is where the gain
/// ends on the widest automata the benchmark has (`warm_acgt`'s pool,
/// 115–396 bottom-up and 283–899 top-down states): a warm evaluation cost
/// 70.7 ns/node with no dense tables, 51.3 at 64 KiB, 47.6 at 256 KiB,
/// 46.1 at 1 MiB, and 46.3 / 45.3 / 45.9 at 2 / 4 / 16 MiB. Past the cap
/// the states interned first — the frequent ones — stay dense and the
/// tail is answered by the hash memos.
const DENSE_CAP_BYTES: usize = 1 << 20;

/// "No transition memoized in this cell."
const VACANT: u32 = u32::MAX;

/// Bytes per cell of a dense table.
const CELL_BYTES: usize = std::mem::size_of::<u32>();

/// Bits needed to index `0..=v`.
fn bits_for(v: u32) -> u32 {
    u32::BITS - v.leading_zeros()
}

/// The direct-indexed front of δ_A, in two levels: the child pair
/// `(s1+1|0, s2+1|0)` indexes a square table of **rows**, and a row holds
/// one cell per schema symbol. A flat `(s1, s2, symbol)` cube would be
/// one load instead of two, but costs `4·(S+1)²·|Σ|` bytes — 5.7 MiB at
/// `warm_acgt`'s 396 states × 9 symbols against 1 MiB + 64 KiB here —
/// and only the few hundred pairs that occur get a row.
///
/// Both the pair square and the row width are powers of two that double
/// when a state or symbol id outgrows them, so a table is re-laid out
/// `O(log S + log |Σ|)` times; a doubling that would pass the cap is
/// refused, and lookups outside the table simply miss.
struct DenseA {
    /// The pair table is `2^dim_log2` squared.
    dim_log2: u32,
    /// `c1 << dim_log2 | c2` → row number.
    pair: Vec<u32>,
    /// A row is `2^sym_log2` cells.
    sym_log2: u32,
    /// `row << sym_log2 | symbol` → state id.
    rows: Vec<u32>,
    cap_bytes: usize,
}

impl DenseA {
    fn new(cap_bytes: usize) -> Self {
        DenseA {
            dim_log2: 0,
            pair: vec![VACANT],
            sym_log2: 0,
            rows: Vec::new(),
            cap_bytes,
        }
    }

    #[inline]
    fn get(&self, c1: u32, c2: u32, sym: u32) -> Option<u32> {
        if (c1 | c2) >> self.dim_log2 != 0 || sym >> self.sym_log2 != 0 {
            return None;
        }
        let row = self.pair[(c1 << self.dim_log2 | c2) as usize];
        if row == VACANT {
            return None;
        }
        let id = self.rows[(row << self.sym_log2 | sym) as usize];
        (id != VACANT).then_some(id)
    }

    fn fits(&self, pair_len: usize, rows_len: usize) -> bool {
        (pair_len + rows_len) * CELL_BYTES <= self.cap_bytes
    }

    /// Memoizes a transition if the table can be made to hold it.
    fn insert(&mut self, c1: u32, c2: u32, sym: u32, id: u32) {
        let dim = bits_for(c1 | c2);
        if dim > self.dim_log2 {
            let Some(len) = 1usize
                .checked_shl(2 * dim)
                .filter(|&len| self.fits(len, self.rows.len()))
            else {
                return;
            };
            let mut pair = vec![VACANT; len];
            for (old, &row) in self.pair.iter().enumerate() {
                let (o1, o2) = (old >> self.dim_log2, old & ((1 << self.dim_log2) - 1));
                pair[o1 << dim | o2] = row;
            }
            (self.pair, self.dim_log2) = (pair, dim);
        }
        let width = bits_for(sym);
        if width > self.sym_log2 {
            let n_rows = self.rows.len() >> self.sym_log2;
            if !self.fits(self.pair.len(), n_rows << width) {
                return;
            }
            let mut rows = vec![VACANT; n_rows << width];
            for (old, new) in self
                .rows
                .chunks_exact(1 << self.sym_log2)
                .zip(rows.chunks_exact_mut(1 << width))
            {
                new[..old.len()].copy_from_slice(old);
            }
            (self.rows, self.sym_log2) = (rows, width);
        }
        let at = (c1 << self.dim_log2 | c2) as usize;
        if self.pair[at] == VACANT {
            let len = self.rows.len() + (1 << self.sym_log2);
            if !self.fits(self.pair.len(), len) {
                return;
            }
            if self.rows.capacity() < len {
                // Doubling, but never past what the cap leaves the rows.
                let room = self.cap_bytes / CELL_BYTES - self.pair.len();
                self.rows
                    .reserve_exact((2 * len).min(room) - self.rows.len());
            }
            self.pair[at] = (self.rows.len() >> self.sym_log2) as u32;
            self.rows.resize(len, VACANT);
        }
        self.rows[(self.pair[at] << self.sym_log2 | sym) as usize] = id;
    }

    fn byte_size(&self) -> usize {
        (self.pair.capacity() + self.rows.capacity()) * CELL_BYTES
    }
}

/// The direct-indexed front of δ_B: one cell per `(parent predicate set,
/// child state, k)`, the two state dimensions powers of two that double
/// independently under the same cap rule as [`DenseA`].
struct DenseB {
    /// Parent ids below `2^parent_log2` are covered.
    parent_log2: u32,
    /// Child ids below `2^child_log2` are covered.
    child_log2: u32,
    /// `(parent << child_log2 | child) << 1 | (k − 1)` → predicate-set id.
    cells: Vec<u32>,
    cap_bytes: usize,
}

impl DenseB {
    fn new(cap_bytes: usize) -> Self {
        DenseB {
            parent_log2: 0,
            child_log2: 0,
            cells: vec![VACANT; 2],
            cap_bytes,
        }
    }

    #[inline]
    fn get(&self, parent: u32, child: u32, k: u8) -> Option<u32> {
        if parent >> self.parent_log2 != 0 || child >> self.child_log2 != 0 {
            return None;
        }
        let id = self.cells[((parent << self.child_log2 | child) << 1) as usize | (k - 1) as usize];
        (id != VACANT).then_some(id)
    }

    /// Memoizes a transition if the table can be made to hold it.
    fn insert(&mut self, parent: u32, child: u32, k: u8, id: u32) {
        let parent_log2 = self.parent_log2.max(bits_for(parent));
        let child_log2 = self.child_log2.max(bits_for(child));
        if (parent_log2, child_log2) != (self.parent_log2, self.child_log2) {
            let Some(len) = 1usize
                .checked_shl(parent_log2 + child_log2 + 1)
                .filter(|len| len * CELL_BYTES <= self.cap_bytes)
            else {
                return;
            };
            let mut cells = vec![VACANT; len];
            let old_row = 2usize << self.child_log2;
            for (old, new) in self
                .cells
                .chunks_exact(old_row)
                .zip(cells.chunks_exact_mut(2 << child_log2))
            {
                new[..old_row].copy_from_slice(old);
            }
            (self.cells, self.parent_log2, self.child_log2) = (cells, parent_log2, child_log2);
        }
        self.cells[((parent << self.child_log2 | child) << 1) as usize | (k - 1) as usize] = id;
    }

    fn byte_size(&self) -> usize {
        self.cells.capacity() * CELL_BYTES
    }
}

/// The lazy automata pair for one TMNF program: everything that persists
/// across the two phases of Algorithm 4.6. Holds the four hash tables
/// (two state interners + two transition tables), the transition
/// tables' dense fronts, the partitioned `PropLocal(P)` clause groups,
/// the schema-symbol interner and the scratch space.
pub struct QueryAutomata {
    /// The compiled propositional clause groups (Definition 4.2).
    pl: PropLocal,
    /// EDB atom registry from the program (index = `Atom::edb` index).
    edbs: Vec<arb_tmnf::EdbAtom>,
    /// Interner for residual programs — the states `Q_A`.
    pub programs: ProgramInterner,
    /// Interner for true-predicate sets — the states `Q_B`.
    pub predsets: PredSetInterner,
    /// Dense schema symbols (the input alphabet `Σ_A`).
    alphabet: AlphabetInterner,
    /// δ_A: `(s1+1|0 ‖ s2+1|0, symbol) → state id` (child states packed
    /// into one word so a probe hashes two words, not three). Holds
    /// every transition ever computed: `bu_transitions` counts its
    /// misses only.
    bu_cache: FxCache<(u64, u32)>,
    /// Direct-indexed front of `bu_cache`.
    dense_a: DenseA,
    /// δ_B: `(parent predset ‖ child program state, k) → predset id`.
    /// Holds every transition ever computed.
    td_cache: FxCache<(u64, u8)>,
    /// Direct-indexed front of `td_cache`.
    dense_b: DenseB,
    /// `local_rules` specialized per schema symbol, dense by symbol id.
    local_by_sym: Vec<Option<Box<[Rule]>>>,
    scratch: LturScratch,
    buf: AutomataScratch,
    /// Memoization switch (true in production; the `ablation` benchmark
    /// disables it to quantify the paper's lazy-hash-table design).
    cache_enabled: bool,
    /// Lazily computed transitions of `A` (paper Fig. 6 column 5).
    pub bu_transitions: u64,
    /// Lazily computed transitions of `B` (paper Fig. 6 column 7).
    pub td_transitions: u64,
}

impl QueryAutomata {
    /// Compiles the automata skeleton for a strict TMNF program.
    pub fn new(prog: &CoreProgram) -> Self {
        QueryAutomata {
            pl: PropLocal::build(prog),
            edbs: prog.edbs().to_vec(),
            programs: ProgramInterner::new(),
            predsets: PredSetInterner::new(),
            alphabet: AlphabetInterner::new(prog.edbs().len()),
            bu_cache: FxCache::new(),
            dense_a: DenseA::new(DENSE_CAP_BYTES),
            td_cache: FxCache::new(),
            dense_b: DenseB::new(DENSE_CAP_BYTES),
            local_by_sym: Vec::new(),
            scratch: LturScratch::new(),
            buf: AutomataScratch::default(),
            cache_enabled: true,
            bu_transitions: 0,
            td_transitions: 0,
        }
    }

    /// [`new`](QueryAutomata::new) with another cap on each dense δ table,
    /// for the tests that drive a run across the cap.
    #[cfg(test)]
    fn with_dense_cap(prog: &CoreProgram, cap_bytes: usize) -> Self {
        QueryAutomata {
            dense_a: DenseA::new(cap_bytes),
            dense_b: DenseB::new(cap_bytes),
            ..QueryAutomata::new(prog)
        }
    }

    /// The automaton input symbol of a node: the interned truth vector of
    /// the program's EDB schema σ at that node (the alphabet Σ_A = 2^σ of
    /// paper Section 4). Nodes that agree on every EDB atom *mentioned by
    /// the query* share a symbol — this is what keeps the number of
    /// lazily computed transitions tiny even on databases with hundreds
    /// of distinct labels (paper Figure 6, Treebank).
    #[inline]
    pub fn schema_symbol(&mut self, info: &NodeInfo) -> AlphabetId {
        self.alphabet.symbol(&self.edbs, info)
    }

    /// Specializes `local_rules ∪ PredsAsRules(labels)` for a schema
    /// symbol: rules whose bodies contain a *false* EDB atom are dropped,
    /// *true* EDB atoms are stripped. Equivalent to inserting the label
    /// facts and letting LTUR prune (paper Figure 2), but computed once
    /// per distinct symbol.
    fn ensure_local_rules(&mut self, sym: AlphabetId) {
        let ix = sym.0 as usize;
        if self.local_by_sym.len() <= ix {
            self.local_by_sym.resize_with(ix + 1, || None);
        }
        if self.local_by_sym[ix].is_some() {
            return;
        }
        let mut out: Vec<Rule> = Vec::with_capacity(self.pl.local.len());
        'rules: for r in &self.pl.local {
            let mut body: Vec<Atom> = Vec::with_capacity(r.body.len());
            for &a in r.body.iter() {
                if a.is_edb() {
                    if self.alphabet.bit(sym, a.pred()) {
                        continue; // true EDB atom: strip
                    }
                    continue 'rules; // false EDB atom: drop rule
                }
                body.push(a);
            }
            out.push(Rule::new(r.head, body));
        }
        self.local_by_sym[ix] = Some(out.into_boxed_slice());
    }

    /// `ComputeReachableStates` (paper Figure 2), memoized: the transition
    /// function δ_A of the deterministic bottom-up automaton. `None`
    /// encodes the pseudo-state ⊥ for a missing child.
    ///
    /// The steady state is this function alone: the node's symbol and
    /// the child pair's row are two independent array loads, the
    /// transition a third.
    #[inline]
    pub fn bottom_up(
        &mut self,
        s1: Option<ProgramId>,
        s2: Option<ProgramId>,
        info: NodeInfo,
    ) -> ProgramId {
        let (c1, c2) = (s1.map_or(0, |s| s.0 + 1), s2.map_or(0, |s| s.0 + 1));
        if self.cache_enabled {
            if let Some(sym) = self.alphabet.known_symbol(&info) {
                if let Some(id) = self.dense_a.get(c1, c2, sym.0) {
                    return ProgramId(id);
                }
            }
        }
        self.bottom_up_memo(c1, c2, info)
    }

    /// δ_A past the dense table: the hash memo, which answers for
    /// whatever the table's cap leaves out, and the computation behind
    /// it. Either way the dense table learns the answer if it has room.
    #[inline(never)]
    fn bottom_up_memo(&mut self, c1: u32, c2: u32, info: NodeInfo) -> ProgramId {
        let sym = self.alphabet.symbol(&self.edbs, &info);
        if !self.cache_enabled {
            return self.bottom_up_compute(c1, c2, sym);
        }
        let key = ((c1 as u64) << 32 | c2 as u64, sym.0);
        let id = match self.bu_cache.get(&key) {
            Some(id) => id,
            None => {
                let id = self.bottom_up_compute(c1, c2, sym).0;
                self.bu_cache.insert(key, id);
                id
            }
        };
        self.dense_a.insert(c1, c2, sym.0, id);
        ProgramId(id)
    }

    /// A δ_A miss: `ComputeReachableStates` itself.
    #[cold]
    fn bottom_up_compute(&mut self, c1: u32, c2: u32, sym: AlphabetId) -> ProgramId {
        self.bu_transitions += 1;
        self.ensure_local_rules(sym);
        let s1 = c1.checked_sub(1).map(ProgramId);
        let s2 = c2.checked_sub(1).map(ProgramId);

        let Self {
            pl,
            programs,
            local_by_sym,
            scratch,
            buf,
            ..
        } = self;
        // P := local_rules ∪ PredsAsRules(labels)  [pre-specialized]
        let local: &[Rule] = local_by_sym[sym.0 as usize]
            .as_deref()
            .expect("specialized");

        // if (P^1_res ≠ ⊥) then P := P ∪ left_rules ∪ PushDown₁(P¹res)
        let mut parts: [&[Rule]; 5] = [&[]; 5];
        let mut np = 0;
        parts[np] = local;
        np += 1;
        buf.down1.clear();
        buf.down2.clear();
        if let Some(s1) = s1 {
            parts[np] = &pl.left;
            np += 1;
            programs.get(s1).push_down_into(1, &mut buf.down1);
            parts[np] = &buf.down1;
            np += 1;
        }
        if let Some(s2) = s2 {
            parts[np] = &pl.right;
            np += 1;
            programs.get(s2).push_down_into(2, &mut buf.down2);
            parts[np] = &buf.down2;
            np += 1;
        }

        // P := LTUR(P); contract if any child exists. The two steps are
        // fused: the large pre-contraction residual is never
        // canonicalized (only the contracted result is interned).
        let res = if s1.is_some() || s2.is_some() {
            buf.raw.clear();
            ltur_residual(&parts[..np], scratch, &mut buf.raw);
            contract_rules(&buf.raw)
        } else {
            ltur(&parts[..np], scratch)
        };
        programs.intern(res)
    }

    /// The start state `s_B = ⋂ ρ_A(Root)` of the top-down automaton: the
    /// predicates true in all reachable states at the root, i.e. the facts
    /// of the root's residual program (`TruePreds`).
    pub fn start_state(&mut self, root: ProgramId) -> PredSetId {
        let Self {
            programs,
            predsets,
            buf,
            ..
        } = self;
        buf.set.clear();
        buf.set.extend(programs.get(root).true_preds());
        buf.set.sort_unstable();
        buf.set.dedup();
        predsets.intern_sorted(&buf.set)
    }

    /// `ComputeTruePreds` (paper Figure 3), memoized: the transition
    /// functions δ_B^k of the top-down automaton. Given the parent's true
    /// predicates and the child's phase-1 residual program, returns the
    /// child's true predicates. The steady state is one array load.
    #[inline]
    pub fn top_down(&mut self, parent: PredSetId, child: ProgramId, k: u8) -> PredSetId {
        debug_assert!(k == 1 || k == 2);
        if self.cache_enabled {
            if let Some(id) = self.dense_b.get(parent.0, child.0, k) {
                return PredSetId(id);
            }
        }
        self.top_down_memo(parent, child, k)
    }

    /// δ_B past the dense table (see
    /// [`bottom_up_memo`](QueryAutomata::bottom_up_memo)).
    #[inline(never)]
    fn top_down_memo(&mut self, parent: PredSetId, child: ProgramId, k: u8) -> PredSetId {
        if !self.cache_enabled {
            return self.top_down_compute(parent, child, k);
        }
        let key = ((parent.0 as u64) << 32 | child.0 as u64, k);
        let id = match self.td_cache.get(&key) {
            Some(id) => id,
            None => {
                let id = self.top_down_compute(parent, child, k).0;
                self.td_cache.insert(key, id);
                id
            }
        };
        self.dense_b.insert(parent.0, child.0, k, id);
        PredSetId(id)
    }

    /// A δ_B miss: `ComputeTruePreds` itself.
    #[cold]
    fn top_down_compute(&mut self, parent: PredSetId, child: ProgramId, k: u8) -> PredSetId {
        self.td_transitions += 1;

        let Self {
            pl,
            programs,
            predsets,
            scratch,
            buf,
            ..
        } = self;
        // P := downward_rules_k ∪ PredsAsRules(parent_preds) ∪ PushDown_k(P_res)
        let downward: &[Rule] = if k == 1 { &pl.down1 } else { &pl.down2 };
        buf.facts.clear();
        buf.facts
            .extend(predsets.get(parent).atoms().iter().map(|&a| Rule::fact(a)));
        buf.pushed.clear();
        programs.get(child).push_down_into(k, &mut buf.pushed);
        // S := TruePreds(LTUR(P)); return PushUpFrom_k(Preds_k(S)).
        // Only the derived facts are needed — the residual is discarded.
        buf.derived.clear();
        ltur_facts(
            &[downward, &buf.facts, &buf.pushed],
            scratch,
            &mut buf.derived,
        );
        buf.set.clear();
        buf.set.extend(
            buf.derived
                .iter()
                .copied()
                .filter(|a| a.sup_k() == Some(k))
                .map(Atom::push_up),
        );
        buf.set.sort_unstable();
        buf.set.dedup();
        predsets.intern_sorted(&buf.set)
    }

    /// True-predicate set membership helper.
    pub fn predset_contains(&self, id: PredSetId, pred: u32) -> bool {
        self.predsets.get(id).contains(Atom::local(pred))
    }

    /// Approximate main-memory footprint of the automata (interned states
    /// plus transition tables, hashed and dense), in bytes — the paper's
    /// `mem` column.
    pub fn memory_bytes(&self) -> usize {
        let s = self.intern_stats();
        s.arena_bytes
            + s.table_bytes
            + self
                .local_by_sym
                .iter()
                .flatten()
                .map(|v| v.iter().map(Rule::byte_size).sum::<usize>())
                .sum::<usize>()
    }

    /// Interning pressure of the four hash tables, the dense δ tables and
    /// the alphabet memo.
    pub fn intern_stats(&self) -> InternStats {
        InternStats {
            arena_bytes: self.programs.byte_size() + self.predsets.byte_size(),
            table_bytes: self.programs.table_bytes()
                + self.predsets.table_bytes()
                + self.bu_cache.byte_size()
                + self.dense_a.byte_size()
                + self.td_cache.byte_size()
                + self.dense_b.byte_size()
                + self.alphabet.byte_size(),
            max_probe: self
                .programs
                .max_probe()
                .max(self.predsets.max_probe())
                .max(self.bu_cache.max_probe())
                .max(self.td_cache.max_probe())
                .max(self.alphabet.max_probe()),
            alphabet_symbols: self.alphabet.len(),
            bu_entries: self.bu_cache.len(),
            td_entries: self.td_cache.len(),
        }
    }

    /// Disables (or re-enables) transition memoization. With memoization
    /// off, every node recomputes its transition from scratch **and the
    /// δ tables, hashed and dense, are neither read nor filled** — the
    /// configuration the paper's lazy hash tables avoid, measured by the
    /// `ablation` benchmark. (State interning and the schema-symbol memo
    /// stay on: dense ids are what give states and symbols their
    /// identity.)
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
    }

    /// Number of interned bottom-up states.
    pub fn bu_state_count(&self) -> usize {
        self.programs.len()
    }

    /// Number of interned top-down states.
    pub fn td_state_count(&self) -> usize {
        self.predsets.len()
    }

    /// Clears **per-run** state while keeping everything that is a pure
    /// function of the program warm: the state interners, the memoized
    /// δ_A/δ_B tables (hashed and dense), the specialized local-rule
    /// groups and the alphabet memo all survive, so a reset automata
    /// steps the next evaluation at full memoization from its first node. Only the two per-run
    /// transition counters (paper Fig. 6 columns 5 and 7) are zeroed —
    /// a warm rerun over the same tree legitimately reports ~0 lazily
    /// computed transitions.
    pub fn reset(&mut self) {
        self.bu_transitions = 0;
        self.td_transitions = 0;
    }
}

/// Upper bound on idle automata an [`AutomataPool`] keeps warm; returns
/// beyond this are dropped (bounds memory after a wide sharded run).
const POOL_IDLE_CAP: usize = 32;

/// A shared pool of warm [`QueryAutomata`] **for one compiled program**.
///
/// Construction of a `QueryAutomata` is cheap, but its value compounds:
/// every evaluation it survives keeps the interned states, δ tables and
/// specialized rule groups of the previous runs, so repeated evaluations
/// skip straight to memoized transitions. The pool makes that reuse safe
/// across threads (sharded workers [`take`](AutomataPool::take) and
/// [`put`](AutomataPool::put) concurrently) and across evaluations (a
/// `Session` or a server window keeps one pool alive between runs).
///
/// The pool does **not** hold the program. Like
/// `QueryBatch::new`, the caller guarantees that every `take(prog)` of
/// one pool passes the same program the pooled automata were built for —
/// mixing programs in one pool yields wrong answers, not a panic.
///
/// The `builds` / `reused` counters are cumulative over the pool's
/// lifetime; callers snapshot them around a run to attribute per-run
/// `EvalStats::{automata_builds, automata_reused}`.
#[derive(Default)]
pub struct AutomataPool {
    idle: Mutex<Vec<QueryAutomata>>,
    builds: AtomicU64,
    reused: AtomicU64,
    build_nanos: AtomicU64,
}

impl AutomataPool {
    /// An empty pool. Automata are built lazily by the first `take`.
    pub fn new() -> Self {
        AutomataPool::default()
    }

    /// Hands out a warm automata (reset, memos intact) if one is idle,
    /// else builds a fresh one for `prog`. The caller must return it
    /// with [`put`](AutomataPool::put) to keep the warmth for the next
    /// evaluation.
    pub fn take(&self, prog: &CoreProgram) -> QueryAutomata {
        if let Some(mut qa) = self.idle.lock().expect("automata pool poisoned").pop() {
            qa.reset();
            self.reused.fetch_add(1, Ordering::Relaxed);
            return qa;
        }
        let t = Instant::now();
        let qa = QueryAutomata::new(prog);
        self.build_nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.builds.fetch_add(1, Ordering::Relaxed);
        qa
    }

    /// Returns an automata to the pool, keeping its interned tables warm
    /// for the next `take`.
    pub fn put(&self, qa: QueryAutomata) {
        let mut idle = self.idle.lock().expect("automata pool poisoned");
        if idle.len() < POOL_IDLE_CAP {
            idle.push(qa);
        }
    }

    /// Automata built from scratch over the pool's lifetime.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Warm automata handed back out over the pool's lifetime.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Cumulative wall time spent constructing automata from scratch.
    pub fn build_time(&self) -> Duration {
        Duration::from_nanos(self.build_nanos.load(Ordering::Relaxed))
    }

    /// Currently idle (warm) automata.
    pub fn idle_len(&self) -> usize {
        self.idle.lock().expect("automata pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_logic::Program;
    use arb_tmnf::{normalize, parse_program};
    use arb_tree::{BinaryTree, LabelTable};

    /// Paper Examples 4.5 and 4.7: the three-node chain <a><a><a/></a></a>
    /// with the program of Example 4.3.
    #[test]
    fn examples_4_5_and_4_7() {
        let mut lt = LabelTable::new();
        let ast = parse_program(arb_tmnf::programs::EXAMPLE_4_3, &mut lt).unwrap();
        let prog = normalize(&ast);
        let mut qa = QueryAutomata::new(&prog);
        let a = lt.intern("a").unwrap();

        let leaf = NodeInfo {
            label: a,
            has_first: false,
            has_second: false,
            is_root: false,
        };
        let mid = NodeInfo {
            label: a,
            has_first: true,
            has_second: false,
            is_root: false,
        };
        let root = NodeInfo {
            label: a,
            has_first: true,
            has_second: false,
            is_root: true,
        };

        let id = |n: &str| prog.pred_id(n).unwrap();

        // ρA(v2) = {P4 ← P3}
        let s2 = qa.bottom_up(None, None, leaf);
        let p = qa.programs.get(s2).clone();
        assert_eq!(
            p,
            Program::canonical(vec![Rule::new(
                Atom::local(id("P4")),
                vec![Atom::local(id("P3"))]
            )])
        );

        // ρA(v1) = {P5 ← P2}
        let s1 = qa.bottom_up(Some(s2), None, mid);
        assert_eq!(
            qa.programs.get(s1).clone(),
            Program::canonical(vec![Rule::new(
                Atom::local(id("P5")),
                vec![Atom::local(id("P2"))]
            )])
        );

        // ρA(v0) = {P1 ←; Q ←}
        let s0 = qa.bottom_up(Some(s1), None, root);
        assert_eq!(
            qa.programs.get(s0).clone(),
            Program::canonical(vec![
                Rule::fact(Atom::local(id("P1"))),
                Rule::fact(Atom::local(id("Q")))
            ])
        );

        // Example 4.7 top-down: {P1,Q} at v0; {P2,P5} at v1; {P3,P4} at v2.
        let b0 = qa.start_state(s0);
        let atoms = |s: PredSetId, qa: &QueryAutomata| -> Vec<u32> {
            qa.predsets
                .get(s)
                .atoms()
                .iter()
                .map(|a| a.pred())
                .collect()
        };
        assert_eq!(atoms(b0, &qa), vec![id("P1"), id("Q")]);
        let b1 = qa.top_down(b0, s1, 1);
        assert_eq!(atoms(b1, &qa), vec![id("P2"), id("P5")]);
        let b2 = qa.top_down(b1, s2, 1);
        assert_eq!(atoms(b2, &qa), vec![id("P3"), id("P4")]);

        // Transition counts: 3 bottom-up, 2 top-down, all distinct.
        assert_eq!(qa.bu_transitions, 3);
        assert_eq!(qa.td_transitions, 2);

        // Memoization: repeating costs nothing.
        qa.bottom_up(None, None, leaf);
        qa.top_down(b0, s1, 1);
        assert_eq!(qa.bu_transitions, 3);
        assert_eq!(qa.td_transitions, 2);
        assert!(qa.memory_bytes() > 0);

        // The interning-pressure report matches the tables.
        let s = qa.intern_stats();
        assert_eq!(s.bu_entries, 3);
        assert_eq!(s.td_entries, 2);
        assert_eq!(s.alphabet_symbols, 3, "leaf, mid, root symbols");
        assert!(s.arena_bytes > 0 && s.table_bytes > 0);
    }

    /// Satellite regression: with memoization disabled the δ tables must
    /// stay *empty* — the old code skipped only the lookup, so the
    /// "no hash tables" ablation still paid insert cost and memo memory.
    #[test]
    fn disabled_cache_inserts_nothing() {
        let mut lt = LabelTable::new();
        let ast = parse_program(arb_tmnf::programs::EXAMPLE_4_3, &mut lt).unwrap();
        let prog = normalize(&ast);
        let mut qa = QueryAutomata::new(&prog);
        qa.set_cache_enabled(false);
        let a = lt.intern("a").unwrap();
        let leaf = NodeInfo {
            label: a,
            has_first: false,
            has_second: false,
            is_root: false,
        };
        let s = qa.bottom_up(None, None, leaf);
        let s2 = qa.bottom_up(None, None, leaf);
        assert_eq!(s, s2, "states are still interned deterministically");
        assert_eq!(qa.bu_transitions, 2, "every call recomputes");
        let b = qa.start_state(s);
        qa.top_down(b, s, 1);
        qa.top_down(b, s, 1);
        assert_eq!(qa.td_transitions, 2);
        let st = qa.intern_stats();
        assert_eq!(st.bu_entries, 0, "δ_A table stays empty when disabled");
        assert_eq!(st.td_entries, 0, "δ_B table stays empty when disabled");
        let sym = qa.schema_symbol(&leaf);
        assert!(
            qa.dense_a.rows.is_empty(),
            "dense δ_A learns nothing either"
        );
        assert_eq!(qa.dense_a.get(0, 0, sym.0), None);
        assert!(qa.dense_b.cells.iter().all(|&c| c == VACANT));

        // Re-enabling resumes memoization.
        qa.set_cache_enabled(true);
        qa.bottom_up(None, None, leaf);
        qa.bottom_up(None, None, leaf);
        assert_eq!(qa.bu_transitions, 3, "one miss after re-enable");
        assert_eq!(qa.intern_stats().bu_entries, 1);
        assert_eq!(qa.dense_a.get(0, 0, sym.0), Some(s.0));

        // Disabling again bypasses what the tables hold by now.
        qa.set_cache_enabled(false);
        qa.bottom_up(None, None, leaf);
        assert_eq!(
            qa.bu_transitions, 4,
            "a filled dense table is not consulted"
        );
    }

    /// `reset` zeroes the per-run counters but keeps every memo warm: a
    /// rerun over the same inputs reports zero lazily computed
    /// transitions, and the pool accounts builds vs. reuses.
    #[test]
    fn reset_keeps_memos_warm_and_pool_counts() {
        let mut lt = LabelTable::new();
        let ast = parse_program(arb_tmnf::programs::EXAMPLE_4_3, &mut lt).unwrap();
        let prog = normalize(&ast);
        let a = lt.intern("a").unwrap();
        let leaf = NodeInfo {
            label: a,
            has_first: false,
            has_second: false,
            is_root: true,
        };

        let pool = AutomataPool::new();
        let mut qa = pool.take(&prog);
        assert_eq!((pool.builds(), pool.reused()), (1, 0));
        let s = qa.bottom_up(None, None, leaf);
        let b = qa.start_state(s);
        qa.top_down(b, s, 1);
        assert_eq!(qa.bu_transitions, 1);
        let entries = qa.intern_stats();
        pool.put(qa);

        let mut qa = pool.take(&prog);
        assert_eq!((pool.builds(), pool.reused()), (1, 1));
        assert_eq!(qa.bu_transitions, 0, "per-run counter cleared");
        assert_eq!(qa.td_transitions, 0);
        assert_eq!(qa.intern_stats(), entries, "memos survive the reset");
        // The second run is answered by the dense tables alone: they
        // came back from the pool holding both transitions.
        let sym = qa.schema_symbol(&leaf);
        assert_eq!(qa.dense_a.get(0, 0, sym.0), Some(s.0));
        assert_eq!(qa.dense_b.get(b.0, s.0, 1), Some(qa.top_down(b, s, 1).0));
        let s2 = qa.bottom_up(None, None, leaf);
        assert_eq!(s2, s, "warm table answers without recomputing");
        assert_eq!(qa.bu_transitions, 0, "pure cache hit on the warm run");
        assert_eq!(qa.td_transitions, 0);
        pool.put(qa);
        assert_eq!(pool.idle_len(), 1);
    }

    /// Growth keeps what a dense table holds, a refused doubling leaves
    /// it usable, and keys outside it miss.
    #[test]
    fn dense_tables_grow_and_stop_at_the_cap() {
        let mut a = DenseA::new(1 << 12);
        assert_eq!(a.get(0, 0, 0), None);
        a.insert(0, 0, 0, 7);
        a.insert(3, 1, 5, 8); // grows both the pair square and the rows
        a.insert(9, 2, 1, 9);
        assert_eq!(
            (a.get(0, 0, 0), a.get(3, 1, 5), a.get(9, 2, 1)),
            (Some(7), Some(8), Some(9))
        );
        assert_eq!(a.get(3, 1, 4), None, "same row, another symbol");
        assert_eq!(a.get(1, 3, 5), None, "the pair is ordered");
        // A 64 × 64 pair square alone is 16 KiB: past the 4 KiB cap.
        a.insert(40, 0, 0, 10);
        assert_eq!(a.get(40, 0, 0), None);
        assert_eq!(a.get(9, 2, 1), Some(9), "a refused doubling loses nothing");
        assert!(a.byte_size() <= 1 << 12);
        // Rows stop being handed out at the cap too.
        for c in 0..16 {
            for d in 0..16 {
                a.insert(c, d, 7, c * 16 + d);
            }
        }
        assert!(a.byte_size() <= 1 << 12);
        assert_eq!(a.get(3, 1, 5), Some(8));

        let mut b = DenseB::new(1 << 12);
        b.insert(0, 0, 1, 1);
        b.insert(5, 0, 2, 2); // grows the parent dimension
        b.insert(1, 9, 1, 3); // then the child dimension
        assert_eq!(
            (b.get(0, 0, 1), b.get(5, 0, 2), b.get(1, 9, 1)),
            (Some(1), Some(2), Some(3))
        );
        assert_eq!(b.get(5, 0, 1), None, "k is part of the key");
        b.insert(100, 100, 1, 4); // 128 × 128 × 2 cells: past the cap
        assert_eq!(b.get(100, 100, 1), None);
        assert_eq!(b.get(1, 9, 1), Some(3));
        assert!(b.byte_size() <= 1 << 12);
        // Ids that no table could index miss instead of overflowing.
        a.insert(u32::MAX, u32::MAX, u32::MAX, 1);
        b.insert(u32::MAX, u32::MAX, 2, 1);
        assert_eq!(a.get(u32::MAX, u32::MAX, u32::MAX), None);
        assert_eq!(b.get(u32::MAX, u32::MAX, 2), None);
    }

    /// Both automata over `tree`, as the two folds step them; returns
    /// the ρ_A and ρ_B id streams.
    fn run(qa: &mut QueryAutomata, tree: &BinaryTree) -> (Vec<ProgramId>, Vec<PredSetId>) {
        let n = tree.len();
        let mut rho_a = vec![ProgramId(0); n];
        for v in (0..n as u32).rev().map(arb_tree::NodeId) {
            let s1 = tree.first_child(v).map(|c| rho_a[c.ix()]);
            let s2 = tree.second_child(v).map(|c| rho_a[c.ix()]);
            rho_a[v.ix()] = qa.bottom_up(s1, s2, tree.info(v));
        }
        let mut rho_b = vec![PredSetId(0); n];
        rho_b[0] = qa.start_state(rho_a[0]);
        for v in tree.nodes() {
            for (k, c) in [(1, tree.first_child(v)), (2, tree.second_child(v))] {
                if let Some(c) = c {
                    rho_b[c.ix()] = qa.top_down(rho_b[v.ix()], rho_a[c.ix()], k);
                }
            }
        }
        (rho_a, rho_b)
    }

    /// The ACGT pool's `(7, 5)` path query `G.(C.C)*.T.T.A.C`, walked
    /// with the infix caterpillar: hundreds of states on a random
    /// sequence.
    fn acgt_query() -> String {
        let step = arb_tmnf::programs::INFIX_PREVIOUS;
        format!(
            "QUERY :- V.Label[G].({step}.Label[C].{step}.Label[C])*\
             .{step}.Label[T].{step}.Label[T].{step}.Label[A].{step}.Label[C];"
        )
    }

    /// Dense ≡ hash: one program over one tree yields the same ρ_A and
    /// ρ_B id streams, the same δ entries and the same transition counts
    /// whether the dense tables run at their default cap, at a cap so
    /// small that they stop growing mid-run, or not at all — across
    /// several doublings (the ACGT query) and across an alphabet wider
    /// than one truth-vector word (a merged batch of 150 label tests).
    #[test]
    fn dense_tables_change_no_id_and_no_count() {
        use arb_tree::infix::infix_tree;
        use arb_tree::TreeBuilder;

        let mut cases: Vec<(&str, CoreProgram, BinaryTree)> = Vec::new();

        let mut lt = LabelTable::new();
        let prog = normalize(&parse_program(&acgt_query(), &mut lt).unwrap());
        let tags = ["A", "C", "G", "T"].map(|t| lt.intern(t).unwrap());
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let seq: Vec<_> = (0..(1 << 12) - 1)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                tags[(x >> 33) as usize % 4]
            })
            .collect();
        cases.push(("acgt", prog, infix_tree(lt.intern("dna").unwrap(), &seq)));

        let mut lt = LabelTable::new();
        let root = lt.intern("r").unwrap();
        let wide: Vec<_> = (0..150)
            .map(|i| lt.intern(&format!("t{i}")).unwrap())
            .collect();
        let progs: Vec<CoreProgram> = (0..wide.len())
            .map(|i| {
                let src = format!("QUERY :- V.Label[t{i}].invNextSibling*.invFirstChild;");
                normalize(&parse_program(&src, &mut lt).unwrap())
            })
            .collect();
        let merged = arb_tmnf::merge_programs(&progs.iter().collect::<Vec<_>>()).program;
        assert!(merged.edbs().len() > 128, "wider than two u64 words");
        let mut tb = TreeBuilder::new();
        tb.open(root);
        for (i, &t) in wide.iter().enumerate() {
            tb.open(t);
            tb.leaf(wide[(i * 7) % wide.len()]);
            tb.close();
        }
        tb.close();
        cases.push(("wide", merged, tb.finish().unwrap()));

        for (name, prog, tree) in &cases {
            let mut full = QueryAutomata::new(prog);
            let want = run(&mut full, tree);
            let counts = |qa: &QueryAutomata| {
                let s = qa.intern_stats();
                (
                    (s.bu_entries, s.td_entries),
                    (qa.bu_transitions, qa.td_transitions),
                    (qa.bu_state_count(), qa.td_state_count()),
                )
            };
            // Warm, the full-cap tables answer everything themselves.
            let cold = counts(&full);
            assert_eq!(run(&mut full, tree), want, "{name}: warm rerun");
            assert_eq!(counts(&full), cold, "{name}: the rerun computed nothing");

            // A 2 KiB cap seats a 16 × 16 pair square: the tables fill,
            // refuse to double, and the hash memos carry the rest.
            let mut tiny = QueryAutomata::with_dense_cap(prog, 2 << 10);
            assert_eq!(run(&mut tiny, tree), want, "{name}: tiny cap");
            assert_eq!(counts(&tiny), cold, "{name}: tiny cap");
            assert!(tiny.dense_a.byte_size() + tiny.dense_b.byte_size() <= 4 << 10);
            if *name == "acgt" {
                assert!(full.bu_state_count() > 64, "several doublings of δ_A");
                assert!(full.dense_a.dim_log2 > tiny.dense_a.dim_log2);
                assert!(!tiny.dense_a.rows.is_empty(), "the tiny table is in use");
            }

            let mut off = QueryAutomata::new(prog);
            off.set_cache_enabled(false);
            assert_eq!(run(&mut off, tree), want, "{name}: memoization off");
            assert_eq!(counts(&off).0, (0, 0));
        }
    }
}
