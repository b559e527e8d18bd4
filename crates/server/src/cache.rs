//! The prepared-program and prepared-window caches: compiled queries
//! interned across requests, so a repeat query skips parsing,
//! normalization, optimization **and** the single-query merge entirely
//! and goes straight to the shared scan pair — and repeated admission
//! *window shapes* skip the multi-query merge and the automata build
//! too.
//!
//! Both are one [`Lru`]: `Lru<CacheKey, PreparedProgram>` keyed on
//! `(database, language, source text)` — the compiled program is
//! label-bound, so the same source against a different database is a
//! different entry — and `Lru<WindowKey, PreparedWindow>` keyed on the
//! **sorted** multiset of the window's query specs (arrival order inside
//! an admission window is nondeterministic under concurrency, so the
//! shape is canonicalized before lookup). Each is bounded by modeled
//! bytes ([`program_cost`], [`window_cost`]) with least-recently-used
//! eviction; hit/miss/eviction counters surface on the wire through
//! `ServerStats`.
//!
//! Every cached entry — single-query or merged window — carries an
//! [`AutomataPool`], so a hot shape's `QueryAutomata` (interners and
//! memoized δ tables) survive from one dispatched window to the next:
//! the session layer's build-once/eval-many lifecycle, extended across
//! server batches.

use crate::protocol::WireLanguage;
use arb_engine::{AutomataPool, Query, QueryBatch};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: a query is reusable only against the database whose label
/// space it was compiled into.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registered database name.
    pub db: String,
    /// Source language.
    pub language: WireLanguage,
    /// Verbatim query text.
    pub source: String,
}

/// A compiled query plus its prepared single-query batch (the merged
/// batch-of-one the session surface evaluates), built once on a cache
/// miss and shared by every later hit.
pub struct PreparedProgram {
    /// The compiled query.
    pub query: Query,
    /// The singleton [`QueryBatch`] over `query`, so a one-query
    /// admission window skips `merge_programs` too.
    pub singleton: QueryBatch,
    /// The automata pool for one-query windows over `singleton`: the
    /// first dispatch builds the `QueryAutomata`, every later one-query
    /// window over this program reuses them warm.
    pub pool: Arc<AutomataPool>,
}

impl PreparedProgram {
    /// Prepares a freshly compiled query for caching.
    pub fn new(query: Query) -> Self {
        let singleton = QueryBatch::new(std::slice::from_ref(&query));
        PreparedProgram {
            query,
            singleton,
            pool: Arc::new(AutomataPool::new()),
        }
    }
}

/// Fixed model of an entry's size: per entry, per rule, per predicate.
const ENTRY_OVERHEAD: usize = 256;
const PER_RULE: usize = 96;
const PER_PRED: usize = 32;

/// Deterministic byte cost of one program entry: key text plus a fixed
/// model of the compiled and merged program sizes. Deterministic (no
/// allocator introspection) so eviction order is testable.
pub fn program_cost(key: &CacheKey, p: &PreparedProgram) -> usize {
    let prog = p.query.program();
    let merged = p.singleton.merged_program();
    ENTRY_OVERHEAD
        + key.db.len()
        + 2 * key.source.len() // the key's copy plus `Query::source`
        + (prog.rule_count() + merged.rule_count()) * PER_RULE
        + (prog.pred_count() + merged.pred_count()) * PER_PRED
}

/// Counters and occupancy of an [`Lru`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing (the caller builds and inserts).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Modeled bytes currently cached.
    pub bytes: u64,
    /// The byte budget.
    pub budget: u64,
}

struct Slot<V> {
    value: Arc<V>,
    cost: usize,
    last_used: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A byte-bounded, thread-safe LRU cache of shared values. The caller
/// states each entry's cost on insert; entries are evicted least
/// recently used first until a new one fits.
pub struct Lru<K, V> {
    inner: Mutex<Inner<K, V>>,
    budget: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// A cache evicting least-recently-used entries past `budget` bytes
    /// (modeled bytes, see the module docs).
    pub fn new(budget: usize) -> Self {
        Lru {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            budget,
        }
    }

    fn locked(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner
            .lock()
            .expect("a thread panicked holding the cache lock")
    }

    /// Looks up an entry, counting a hit or a miss and freshening the
    /// entry's recency on a hit.
    pub fn lookup(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.locked();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                let value = Arc::clone(&slot.value);
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts an entry of `cost` modeled bytes, evicting
    /// least-recently-used entries until it fits. Returns `false` (and
    /// caches nothing) when the entry alone exceeds the whole budget.
    /// Re-inserting an existing key replaces the entry.
    pub fn insert(&self, key: K, value: Arc<V>, cost: usize) -> bool {
        if cost > self.budget {
            return false;
        }
        let mut inner = self.locked();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.cost;
        }
        while inner.bytes + cost > self.budget {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let evicted = inner.map.remove(&victim).expect("victim exists");
            inner.bytes -= evicted.cost;
            inner.evictions += 1;
        }
        inner.bytes += cost;
        inner.map.insert(
            key,
            Slot {
                value,
                cost,
                last_used: tick,
            },
        );
        true
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.locked();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len() as u64,
            bytes: inner.bytes as u64,
            budget: self.budget as u64,
        }
    }
}

// ------------------------------------------------------- window shapes

/// Key of a cached admission-window shape: the window's query specs in
/// **canonical (sorted) order**. Concurrent clients race into the
/// admission window, so the same logical window arrives in a different
/// order every round; sorting makes the shape stable. Duplicates are
/// kept — a window of two identical queries is a different shape than
/// one of them alone. Scoped per database (each `DbEntry` owns its own
/// window cache), so the database name is not part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowKey {
    /// `(language, source)` specs, sorted.
    pub specs: Vec<(WireLanguage, String)>,
}

impl WindowKey {
    /// Canonicalizes a window's specs (sorts them).
    pub fn new(mut specs: Vec<(WireLanguage, String)>) -> Self {
        specs.sort();
        WindowKey { specs }
    }
}

/// A prepared multi-query window: the merged [`QueryBatch`] (entries in
/// the key's canonical order) plus the [`AutomataPool`] that keeps the
/// merged program's automata warm from one dispatch of this shape to
/// the next.
pub struct PreparedWindow {
    /// The merged batch; entry `i` evaluates the key's `specs[i]`.
    pub batch: QueryBatch,
    /// Warm automata for `batch`'s merged program.
    pub pool: Arc<AutomataPool>,
}

/// Deterministic byte cost of one window entry — the key text plus the
/// same fixed program-size model as [`program_cost`].
pub fn window_cost(key: &WindowKey, w: &PreparedWindow) -> usize {
    let merged = w.batch.merged_program();
    ENTRY_OVERHEAD
        + key.specs.iter().map(|(_, s)| s.len()).sum::<usize>()
        + merged.rule_count() * PER_RULE
        + merged.pred_count() * PER_PRED
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_engine::{CountSink, Database, EvalRequest};

    fn key(db: &str, src: &str) -> CacheKey {
        CacheKey {
            db: db.into(),
            language: WireLanguage::Tmnf,
            source: src.into(),
        }
    }

    fn compile(db: &mut Database, src: &str) -> Arc<PreparedProgram> {
        Arc::new(PreparedProgram::new(db.compile_tmnf(src).unwrap()))
    }

    type ProgramCache = Lru<CacheKey, PreparedProgram>;

    /// Inserts at the program's modeled cost, as the server does.
    fn put(cache: &ProgramCache, key: &CacheKey, p: Arc<PreparedProgram>) -> bool {
        cache.insert(key.clone(), Arc::clone(&p), program_cost(key, &p))
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut db = Database::from_xml_str("<r><a/></r>").unwrap();
        let cache = ProgramCache::new(1 << 20);
        let k = key("d", "QUERY :- V.Label[a];");
        assert!(cache.lookup(&k).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);

        let p = compile(&mut db, &k.source);
        assert!(put(&cache, &k, p));
        assert!(cache.lookup(&k).is_some());
        assert!(cache.lookup(&k).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        assert!(s.bytes > 0 && s.bytes <= s.budget);
    }

    #[test]
    fn lru_eviction_under_tight_budget() {
        let mut db = Database::from_xml_str("<r><a/><b/><c/></r>").unwrap();
        let (ka, kb, kc) = (
            key("d", "QUERY :- V.Label[a];"),
            key("d", "QUERY :- V.Label[b];"),
            key("d", "QUERY :- V.Label[c];"),
        );
        let (pa, pb, pc) = (
            compile(&mut db, &ka.source),
            compile(&mut db, &kb.source),
            compile(&mut db, &kc.source),
        );
        // A budget that holds exactly two of these (near-identical)
        // entries: inserting a third must evict the least recently used.
        let one = program_cost(&ka, &pa);
        let cache = ProgramCache::new(2 * one + one / 2);
        assert!(put(&cache, &ka, pa));
        assert!(put(&cache, &kb, pb));
        // Freshen `a`, making `b` the LRU victim.
        assert!(cache.lookup(&ka).is_some());
        assert!(put(&cache, &kc, pc));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(cache.lookup(&ka).is_some(), "freshened entry survives");
        assert!(cache.lookup(&kc).is_some(), "new entry cached");
        assert!(cache.lookup(&kb).is_none(), "LRU entry evicted");
        assert!(s.bytes <= s.budget, "budget respected after eviction");
    }

    #[test]
    fn oversize_entries_are_not_cached() {
        let mut db = Database::from_xml_str("<r><a/></r>").unwrap();
        let k = key("d", "QUERY :- V.Label[a];");
        let p = compile(&mut db, &k.source);
        let cache = ProgramCache::new(8); // smaller than any entry
        assert!(!put(&cache, &k, p));
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup(&k).is_none());
    }

    #[test]
    fn window_key_is_arrival_order_independent() {
        let a = (WireLanguage::Tmnf, "QUERY :- V.Label[a];".to_string());
        let b = (WireLanguage::XPath, "//b".to_string());
        assert_eq!(
            WindowKey::new(vec![a.clone(), b.clone()]),
            WindowKey::new(vec![b.clone(), a.clone()])
        );
        // Duplicates are part of the shape.
        assert_ne!(
            WindowKey::new(vec![a.clone(), a.clone()]),
            WindowKey::new(vec![a])
        );
    }

    #[test]
    fn window_cache_hits_share_the_pool() {
        let mut db = Database::from_xml_str("<r><a/><b/></r>").unwrap();
        let qa = db.compile_tmnf("QUERY :- V.Label[a];").unwrap();
        let qb = db.compile_tmnf("QUERY :- V.Label[b];").unwrap();
        let key = WindowKey::new(vec![
            (WireLanguage::Tmnf, qa.source.clone()),
            (WireLanguage::Tmnf, qb.source.clone()),
        ]);
        let cache = Lru::<WindowKey, PreparedWindow>::new(1 << 20);
        assert!(cache.lookup(&key).is_none());
        let prepared = Arc::new(PreparedWindow {
            batch: QueryBatch::new(&[qa, qb]),
            pool: Arc::new(arb_engine::AutomataPool::new()),
        });
        let cost = window_cost(&key, &prepared);
        assert!(cache.insert(key.clone(), Arc::clone(&prepared), cost));
        let hit = cache.lookup(&key).unwrap();
        assert!(Arc::ptr_eq(&hit.pool, &prepared.pool));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn cached_and_uncached_results_are_identical() {
        let xml = "<r><a/><b><a>t</a></b></r>";
        let src = "QUERY :- V.Label[a];";
        let mut db = Database::from_xml_str(xml).unwrap();
        let cache = ProgramCache::new(1 << 20);
        let k = key("d", src);
        put(&cache, &k, compile(&mut db, src));
        let cached = cache.lookup(&k).unwrap();

        // Cached prepared batch vs a fresh compile of the same source.
        let mut fresh_counts = CountSink::default();
        let fresh_q = db.compile_tmnf(src).unwrap();
        db.prepare(std::slice::from_ref(&fresh_q))
            .eval(&EvalRequest::new(), &mut fresh_counts)
            .unwrap();
        let mut cached_counts = CountSink::default();
        db.prepare_batch(&cached.singleton)
            .eval(&EvalRequest::new(), &mut cached_counts)
            .unwrap();
        assert_eq!(cached_counts.counts(), fresh_counts.counts());
        assert_eq!(cached_counts.counts(), &[2]);
    }
}
