//! Batched multi-query evaluation (paper §7).
//!
//! A [`QueryBatch`] holds k compiled [`Query`] values merged into one
//! strict TMNF program at the IR level ([`arb_tmnf::merge_programs`]).
//! A [`Session`](crate::Session) over the batch runs the merged program
//! through the ordinary evaluation kernel — **one** backward linear scan
//! and **one** forward linear scan for the whole batch, regardless of k
//! (assert via the `backward_scans` / `forward_scans` counters of
//! [`EvalStats`]) — with one group of query atoms per input query, and
//! the batch turns the kernel's per-group sets back into one
//! [`QueryOutcome`] per input query.

use crate::query::{Query, QueryLanguage};
use crate::QueryOutcome;
use arb_core::EvalStats;
use arb_logic::Atom;
use arb_tmnf::{merge_programs, CoreProgram, PredId};
use arb_tree::NodeSet;

/// Per-query bookkeeping inside a batch.
struct BatchEntry {
    /// The merged-program ids of this query's query predicates.
    query_preds: Vec<PredId>,
    /// Source language of the input query (`None` for raw programs).
    language: Option<QueryLanguage>,
    /// Original query text (empty for raw programs).
    source: String,
    /// `|IDB|` of the *input* program (per-query Figure 6 accounting).
    idb_count: usize,
    /// `|P|` of the input program.
    rule_count: usize,
}

/// A batch of compiled queries merged into one multi-query program.
pub struct QueryBatch {
    merged: CoreProgram,
    entries: Vec<BatchEntry>,
}

impl QueryBatch {
    /// Merges compiled queries into a batch.
    ///
    /// **Precondition (unchecked):** all queries must have been compiled
    /// against the *same* database — label tests are interned as raw
    /// label ids, so a query compiled against a different label table
    /// would silently test the wrong tags when the batch is evaluated.
    pub fn new(queries: &[Query]) -> Self {
        let refs: Vec<&Query> = queries.iter().collect();
        Self::from_query_refs(&refs)
    }

    /// [`QueryBatch::new`] over borrowed queries — the entry point for
    /// callers (e.g. the resident query service's prepared-program
    /// cache) that share compiled [`Query`] values behind `Arc`s and
    /// merge a different subset per admission window. The same
    /// label-space precondition applies.
    pub fn from_query_refs(queries: &[&Query]) -> Self {
        let progs: Vec<&CoreProgram> = queries.iter().map(|q| &q.prog).collect();
        let merged = merge_programs(&progs);
        let entries = queries
            .iter()
            .zip(merged.query_preds.iter())
            .map(|(q, qs)| BatchEntry {
                query_preds: qs.clone(),
                language: Some(q.language),
                source: q.source.clone(),
                idb_count: q.idb_count(),
                rule_count: q.rule_count(),
            })
            .collect();
        QueryBatch {
            merged: merged.program,
            entries,
        }
    }

    /// Merges raw strict TMNF programs (each with its query predicates
    /// already chosen) into a batch — the entry point for harnesses that
    /// compile [`CoreProgram`]s directly. The same label-space
    /// precondition as [`QueryBatch::new`] applies.
    pub fn from_programs(progs: &[CoreProgram]) -> Self {
        let refs: Vec<&CoreProgram> = progs.iter().collect();
        let merged = merge_programs(&refs);
        let entries = progs
            .iter()
            .zip(merged.query_preds.iter())
            .map(|(p, qs)| BatchEntry {
                query_preds: qs.clone(),
                language: None,
                source: String::new(),
                idb_count: p.pred_count(),
                rule_count: p.rule_count(),
            })
            .collect();
        QueryBatch {
            merged: merged.program,
            entries,
        }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The merged multi-query program.
    pub fn merged_program(&self) -> &CoreProgram {
        &self.merged
    }

    /// The merged-program query predicates of query `i`.
    pub fn query_preds(&self, i: usize) -> &[PredId] {
        &self.entries[i].query_preds
    }

    /// The source language of query `i` (`None` for raw programs).
    pub fn language(&self, i: usize) -> Option<QueryLanguage> {
        self.entries[i].language
    }

    /// The source text of query `i` (empty for raw programs).
    pub fn source(&self, i: usize) -> &str {
        &self.entries[i].source
    }

    /// The query atoms of every entry, in batch order.
    pub(crate) fn query_atoms(&self) -> Vec<Vec<Atom>> {
        self.entries
            .iter()
            .map(|e| e.query_preds.iter().map(|&p| Atom::local(p)).collect())
            .collect()
    }

    /// Demultiplexes the merged outcome plus per-query node sets into
    /// per-query [`QueryOutcome`]s.
    pub(crate) fn demux(
        &self,
        shared: &EvalStats,
        merged_counts: &[u64],
        sets: Vec<NodeSet>,
    ) -> Vec<QueryOutcome> {
        let mut outcomes = Vec::with_capacity(self.entries.len());
        let mut offset = 0usize;
        for (entry, selected) in self.entries.iter().zip(sets) {
            let per_pred_counts = merged_counts[offset..offset + entry.query_preds.len()].to_vec();
            offset += entry.query_preds.len();
            let mut stats = shared.clone();
            // Per-query |IDB| / |P| reflect the *input* program; times,
            // transitions and scan counters are those of the shared pass
            // (the scans are shared, not repeated per query).
            stats.idb_count = entry.idb_count;
            stats.rule_count = entry.rule_count;
            stats.selected = selected.count() as u64;
            outcomes.push(QueryOutcome {
                stats,
                selected,
                per_pred_counts,
            });
        }
        outcomes
    }
}

/// The result of evaluating a [`QueryBatch`]: the statistics of the one
/// shared two-scan pass over the merged program, plus one demultiplexed
/// [`QueryOutcome`] per input query.
pub struct BatchOutcome {
    /// Statistics of the shared pass (`backward_scans == 1`,
    /// `forward_scans == 1`, `selected` counts the union).
    pub stats: EvalStats,
    /// Per-query outcomes, in batch order.
    pub outcomes: Vec<QueryOutcome>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    fn disk_db(xml: &str, name: &str) -> Database {
        let dir = std::env::temp_dir().join(format!("arb-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let xml_path = dir.join(format!("{name}.xml"));
        std::fs::write(&xml_path, xml).unwrap();
        let (db, _) = Database::create_arb_from_xml(
            &xml_path,
            dir.join(format!("{name}.arb")),
            &arb_xml::XmlConfig::default(),
        )
        .unwrap();
        db
    }

    #[test]
    fn batch_matches_independent_runs_on_disk() {
        let mut db = disk_db("<r><a><b/></a><b/><c>t</c></r>", "indep");
        let sources = [
            "QUERY :- V.Label[a];",
            "QUERY :- V.Label[b];",
            "Q :- V.Label[c];",
        ];
        let queries: Vec<Query> = sources
            .iter()
            .map(|s| db.compile_tmnf(s).unwrap())
            .collect();
        let batch = QueryBatch::new(&queries);
        let disk = db.as_disk().unwrap();
        let out = db.prepare_batch(&batch).run().unwrap();

        // Exactly one scan in each direction for the whole batch.
        assert_eq!(out.stats.backward_scans, 1);
        assert_eq!(out.stats.forward_scans, 1);
        assert_eq!(out.outcomes.len(), 3);

        let mut scans = 0;
        for (q, o) in queries.iter().zip(&out.outcomes) {
            let indep = crate::evaluate_disk(&q.prog, disk).unwrap();
            scans += indep.stats.backward_scans + indep.stats.forward_scans;
            assert_eq!(o.selected.to_vec(), indep.selected.to_vec());
            assert_eq!(o.per_pred_counts, indep.per_pred_counts);
            assert_eq!(o.stats.selected, indep.stats.selected);
            assert_eq!(o.stats.idb_count, q.idb_count());
        }
        // The independent runs needed 2k scans; the batch needed 2.
        assert_eq!(scans, 6);
    }

    #[test]
    fn boolean_batch_filters_per_query() {
        let mut db = disk_db("<r><a/></r>", "bool");
        let queries = vec![
            db.compile_tmnf("QUERY :- Root, HasFirstChild;").unwrap(),
            db.compile_tmnf("QUERY :- Root, Leaf;").unwrap(),
        ];
        let batch = QueryBatch::new(&queries);
        let verdicts = db.prepare_batch(&batch).run_boolean().unwrap();
        assert_eq!(verdicts, vec![true, false]);
    }

    #[test]
    fn empty_batch_is_an_error() {
        let db = disk_db("<r/>", "empty");
        let batch = QueryBatch::new(&[]);
        assert!(db.prepare_batch(&batch).run().is_err());
        assert!(db.prepare_batch(&batch).run_boolean().is_err());
    }
}
