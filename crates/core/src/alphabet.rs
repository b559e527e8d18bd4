//! Dense interning of schema symbols — the automaton input alphabet
//! `Σ_A = 2^σ` (paper Section 4).
//!
//! The automaton input symbol of a node is the truth vector of the
//! program's EDB schema σ at that node: nodes that agree on every EDB
//! atom *mentioned by the query* are indistinguishable, which is what
//! keeps the number of lazily computed transitions tiny even on
//! databases with hundreds of distinct labels (paper Figure 6,
//! Treebank).
//!
//! Earlier revisions packed the truth vector into a `u128` and used it
//! directly as part of the δ_A key. That had two costs: the key was
//! 24+ bytes (hashed on *every node*), and programs with more than 128
//! EDB atoms — easily reached by merged multi-query batches — silently
//! aliased symbols (`1 << i` wraps in release builds). This interner
//! fixes both:
//!
//! * truth vectors are **arbitrary-width** bitsets in a flat `u64`
//!   arena, so a merged batch may mention any number of EDB atoms;
//! * each distinct vector gets a dense [`AlphabetId`] (`u32`), shrinking
//!   the δ_A key to 12 bytes;
//! * the per-node lookup is **one array load**: a node's symbol depends
//!   only on its label and three flags, which [`NodeInfo::symbol_key`]
//!   packs as `label·8 + flags`, and a table indexed by that key holds
//!   the symbol id. The schema is evaluated at most once per distinct
//!   key.
//!
//! The direct-indexed table grows with the largest key seen and covers
//! every key below 2^17 — the whole 14-bit label space of the `.arb`
//! formats, 512 KiB if a document really used all of it (the 424k-node
//! treebank's 507 labels take 16 KiB). In-memory trees may carry larger
//! label ids; those keys are memoized in a hash table instead, so the
//! table's size is bounded whatever the input.

use arb_logic::{FxCache, RawTable};
use arb_tmnf::EdbAtom;
use arb_tree::NodeInfo;

/// Identifier of an interned schema symbol (a letter of `Σ_A`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AlphabetId(pub u32);

/// Keys below this are memoized by direct index, the rest by hash.
const DENSE_KEYS: u32 = 1 << 17;

/// "No symbol memoized for this key yet."
const UNKNOWN: u32 = u32::MAX;

/// Interner mapping EDB truth vectors to dense [`AlphabetId`]s, with a
/// per-`NodeInfo` memo in front (the per-node fast path).
pub struct AlphabetInterner {
    /// [`NodeInfo::symbol_key`] → symbol id, for keys below
    /// [`DENSE_KEYS`]; [`UNKNOWN`] where none is memoized.
    dense: Vec<u32>,
    /// The same memo for the keys past the dense table.
    memo: FxCache<u32>,
    /// Flat arena of truth vectors: `words_per_symbol` words per id.
    words: Vec<u64>,
    /// Fixed vector width (in `u64` words) for this program's schema.
    words_per_symbol: usize,
    /// Fx hash of each interned vector (id-parallel).
    hashes: Vec<u64>,
    table: RawTable,
    scratch: Vec<u64>,
}

impl AlphabetInterner {
    /// An interner for a schema of `edb_count` atoms.
    pub fn new(edb_count: usize) -> Self {
        AlphabetInterner {
            dense: Vec::new(),
            memo: FxCache::new(),
            words: Vec::new(),
            words_per_symbol: edb_count.div_ceil(64).max(1),
            hashes: Vec::new(),
            table: RawTable::new(),
            scratch: Vec::new(),
        }
    }

    #[inline]
    fn span(&self, id: u32) -> &[u64] {
        let start = id as usize * self.words_per_symbol;
        &self.words[start..start + self.words_per_symbol]
    }

    /// The symbol of a node if the direct-indexed table already holds it
    /// — the per-node hit path of the lazy automata.
    #[inline]
    pub fn known_symbol(&self, info: &NodeInfo) -> Option<AlphabetId> {
        match self.dense.get(info.symbol_key() as usize) {
            Some(&id) if id != UNKNOWN => Some(AlphabetId(id)),
            _ => None,
        }
    }

    /// The symbol of a node: memo hit on its key, else evaluate the
    /// schema and intern the truth vector.
    #[inline]
    pub fn symbol(&mut self, edbs: &[EdbAtom], info: &NodeInfo) -> AlphabetId {
        match self.known_symbol(info) {
            Some(id) => id,
            None => self.symbol_slow(edbs, info),
        }
    }

    fn symbol_slow(&mut self, edbs: &[EdbAtom], info: &NodeInfo) -> AlphabetId {
        let key = info.symbol_key();
        if key >= DENSE_KEYS {
            if let Some(id) = self.memo.get(&key) {
                return AlphabetId(id);
            }
        }
        debug_assert!(edbs.len() <= self.words_per_symbol * 64);
        self.scratch.clear();
        self.scratch.resize(self.words_per_symbol, 0);
        for (i, atom) in edbs.iter().enumerate() {
            if atom.eval(info) {
                self.scratch[i >> 6] |= 1u64 << (i & 63);
            }
        }
        let hash = arb_logic::fx_hash(self.scratch.as_slice());
        let found = {
            let hashes = &self.hashes;
            let scratch = &self.scratch;
            self.table.find(hash, |id| {
                hashes[id as usize] == hash && self.span(id) == scratch.as_slice()
            })
        };
        let id = match found {
            Some(id) => id,
            None => {
                let id = self.hashes.len() as u32;
                self.words.extend_from_slice(&self.scratch);
                self.hashes.push(hash);
                let hashes = &self.hashes;
                self.table.insert(hash, id, |i| hashes[i as usize]);
                id
            }
        };
        if key < DENSE_KEYS {
            if self.dense.len() <= key as usize {
                self.dense.resize(key as usize + 1, UNKNOWN);
            }
            self.dense[key as usize] = id;
        } else {
            self.memo.insert(key, id);
        }
        AlphabetId(id)
    }

    /// Whether EDB atom `i` is true under symbol `id`.
    #[inline]
    pub fn bit(&self, id: AlphabetId, i: u32) -> bool {
        self.span(id.0)[(i >> 6) as usize] >> (i & 63) & 1 != 0
    }

    /// Number of distinct symbols interned (`|Σ_A|` reached so far).
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if no symbol has been interned.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Heap footprint (vector arena, hashes, both memos, slot array), in
    /// bytes.
    pub fn byte_size(&self) -> usize {
        self.dense.capacity() * std::mem::size_of::<u32>()
            + self.words.capacity() * std::mem::size_of::<u64>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.table.byte_size()
            + self.memo.byte_size()
    }

    /// Longest probe sequence across the memo and vector tables.
    pub fn max_probe(&self) -> u32 {
        self.memo.max_probe().max(self.table.max_probe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_tree::LabelId;

    fn info(label: u16, has_first: bool, has_second: bool, is_root: bool) -> NodeInfo {
        NodeInfo {
            label: LabelId(label),
            has_first,
            has_second,
            is_root,
        }
    }

    #[test]
    fn schema_abstraction_collapses_unmentioned_labels() {
        // σ = {Label[300], Leaf}: nodes labelled 301 and 302 agree on both
        // atoms and must share one symbol; label 300 gets its own.
        let edbs = vec![EdbAtom::Label(LabelId(300)), EdbAtom::Leaf];
        let mut a = AlphabetInterner::new(edbs.len());
        let s301 = a.symbol(&edbs, &info(301, false, false, false));
        let s302 = a.symbol(&edbs, &info(302, false, false, false));
        let s300 = a.symbol(&edbs, &info(300, false, false, false));
        assert_eq!(s301, s302);
        assert_ne!(s300, s301);
        assert_eq!(a.len(), 2);
        assert!(a.bit(s300, 0) && a.bit(s300, 1));
        assert!(!a.bit(s301, 0) && a.bit(s301, 1));
        // Memo hits return the same id without re-interning.
        assert_eq!(a.symbol(&edbs, &info(301, false, false, false)), s301);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn wide_schema_does_not_alias() {
        // > 128 EDB atoms: bit i of the truth vector must stay atom i's,
        // with no u128 wrap-around (Label[i] vs Label[i+128] aliased under
        // the old mask).
        let n = 200u16;
        let edbs: Vec<EdbAtom> = (0..n).map(|i| EdbAtom::Label(LabelId(300 + i))).collect();
        let mut a = AlphabetInterner::new(edbs.len());
        let mut ids = Vec::new();
        for i in 0..n {
            let s = a.symbol(&edbs, &info(300 + i, false, false, false));
            assert!(a.bit(s, i as u32), "atom {i} true under its own label");
            for j in 0..n {
                assert_eq!(a.bit(s, j as u32), i == j, "symbol {i}, atom {j}");
            }
            ids.push(s);
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n as usize, "all {n} symbols distinct");
    }

    #[test]
    fn labels_past_the_dense_table_are_memoized_by_hash() {
        // Label ids of the `.arb` formats end at 2^14; an in-memory tree
        // may carry any u16. Both sides of the boundary resolve alike and
        // only the low keys take table space.
        let edbs = vec![EdbAtom::Label(LabelId(40_000)), EdbAtom::Leaf];
        let mut a = AlphabetInterner::new(edbs.len());
        let low = info((DENSE_KEYS / 8 - 1) as u16, false, false, false);
        let high = info((DENSE_KEYS / 8) as u16, false, false, false);
        let hit = info(40_000, false, false, false);
        let (s_low, s_high, s_hit) = (
            a.symbol(&edbs, &low),
            a.symbol(&edbs, &high),
            a.symbol(&edbs, &hit),
        );
        assert_eq!(s_low, s_high, "neither is the mentioned label");
        assert_ne!(s_hit, s_low);
        assert_eq!(a.known_symbol(&low), Some(s_low));
        assert_eq!(a.known_symbol(&high), None, "past the dense table");
        assert_eq!(a.symbol(&edbs, &high), s_high, "the hash memo answers");
        assert_eq!(a.symbol(&edbs, &hit), s_hit);
        assert_eq!(a.len(), 2);
        assert!(a.dense.len() <= DENSE_KEYS as usize);
    }

    #[test]
    fn empty_schema_has_one_symbol() {
        let mut a = AlphabetInterner::new(0);
        let s1 = a.symbol(&[], &info(1, true, false, true));
        let s2 = a.symbol(&[], &info(2, false, true, false));
        assert_eq!(s1, s2);
        assert_eq!(a.len(), 1);
    }
}
