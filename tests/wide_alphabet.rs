//! Regression for the 128-EDB schema-symbol overflow: a merged batch
//! whose union of EDB atoms exceeds 128 must evaluate **correctly** —
//! never silently alias alphabet symbols.
//!
//! The old `u128` truth-vector key computed `1 << i` per EDB atom, which
//! wraps (is masked) in release builds once a merged program mentions
//! more than 128 EDB atoms: atom `i` and atom `i + 128` became the same
//! bit, so e.g. a query for `Label[t0]` could select nodes labelled
//! `t128`. The dense arbitrary-width alphabet interner
//! (`arb_core::alphabet`) lifts the ceiling; this suite pins the
//! behavior end-to-end on both backends against the naive fixpoint and
//! against independent per-query runs.

use arb::engine::{evaluate_disk, Database, QueryBatch};
use arb::storage::create_from_tree;
use arb::tmnf::{naive, normalize, parse_program, CoreProgram};
use arb::tree::{BinaryTree, LabelTable, TreeBuilder};

/// Number of distinct labels — chosen so the merged EDB alphabet is
/// comfortably past the old 128 ceiling and exercises bits of the second
/// and third `u64` words of the truth vector.
const LABELS: usize = 150;

/// A flat document `<r><t0/><t1/>…</r>` with one leaf per label.
fn wide_doc() -> (BinaryTree, LabelTable) {
    let mut labels = LabelTable::new();
    let r = labels.intern("r").unwrap();
    let tags: Vec<_> = (0..LABELS)
        .map(|i| labels.intern(&format!("t{i}")).unwrap())
        .collect();
    let mut b = TreeBuilder::new();
    b.open(r);
    for &t in &tags {
        b.leaf(t);
    }
    b.close();
    (b.finish().unwrap(), labels)
}

/// One query per label: `QUERY :- V.Label[t{i}], Leaf;`.
fn wide_batch(labels: &mut LabelTable) -> Vec<CoreProgram> {
    (0..LABELS)
        .map(|i| {
            let src = format!("QUERY :- V.Label[t{i}], Leaf;");
            let ast = parse_program(&src, labels).expect("query parses");
            let mut prog = normalize(&ast);
            let qp = prog.pred_id("QUERY").expect("QUERY head");
            prog.add_query_pred(qp);
            prog
        })
        .collect()
}

fn disk_db(tree: &BinaryTree, labels: &LabelTable) -> Database {
    let dir = std::env::temp_dir().join(format!("arb-wide-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.arb");
    create_from_tree(tree, labels, &path).expect("create database");
    Database::open_arb(&path).expect("open database")
}

#[test]
fn merged_alphabet_past_128_evaluates_correctly_on_disk() {
    let (tree, mut labels) = wide_doc();
    let progs = wide_batch(&mut labels);
    let batch = QueryBatch::from_programs(&progs);
    assert!(
        batch.merged_program().edbs().len() > 128,
        "the merged schema must cross the old u128 ceiling (got {})",
        batch.merged_program().edbs().len()
    );

    let db = disk_db(&tree, &labels);
    let combined = db.prepare_batch(&batch).run().expect("batch eval");
    assert_eq!(combined.stats.backward_scans, 1);
    assert_eq!(combined.stats.forward_scans, 1);

    for (i, (prog, out)) in progs.iter().zip(&combined.outcomes).enumerate() {
        // Query i selects exactly the one leaf labelled t{i} — under the
        // old wrap-around, query i also matched leaf i ± 128.
        assert_eq!(out.stats.selected, 1, "query {i} selects one node");
        assert_eq!(
            out.selected.to_vec(),
            vec![arb::tree::NodeId(i as u32 + 1)],
            "query {i} selects its own leaf"
        );
        // Independent (narrow-schema) run as oracle.
        let indep =
            evaluate_disk(prog, db.as_disk().expect("disk backing")).expect("independent eval");
        assert_eq!(out.selected.to_vec(), indep.selected.to_vec(), "query {i}");
    }
    // The interning report sees the wide alphabet.
    assert!(combined.stats.interning.alphabet_symbols >= 2);
}

#[test]
fn merged_alphabet_past_128_matches_naive_in_memory() {
    let (tree, mut labels) = wide_doc();
    let progs = wide_batch(&mut labels);
    let refs: Vec<&CoreProgram> = progs.iter().collect();
    let merged = arb::tmnf::merge_programs(&refs);
    assert!(merged.program.edbs().len() > 128);

    let batch = QueryBatch::from_programs(&progs);
    let db = Database::from_tree(tree.clone(), labels);
    let batched = db.prepare_batch(&batch).run().expect("batch eval");
    for (i, prog) in progs.iter().enumerate() {
        let oracle = naive::evaluate(prog, &tree);
        let q = prog.query_pred().expect("query pred");
        let selected = &batched.outcomes[i].selected;
        for v in tree.nodes() {
            assert_eq!(
                selected.contains(v),
                oracle.holds(q, v),
                "query {i} at node {}",
                v.0
            );
        }
    }
}

#[test]
fn wide_alphabet_session_surface_end_to_end() {
    // The same guarantee through the public prepared-session surface:
    // compile >128 single-label queries, prepare one session, and check
    // the per-query counts demultiplex correctly.
    let (tree, labels) = wide_doc();
    let mut db = Database::from_tree(tree, labels);
    let queries: Vec<_> = (0..LABELS)
        .map(|i| {
            db.compile_tmnf(&format!("QUERY :- V.Label[t{i}], Leaf;"))
                .expect("compiles")
        })
        .collect();
    let session = db.prepare(&queries);
    let outcome = session.run().expect("session eval");
    assert_eq!(outcome.outcomes.len(), LABELS);
    for (i, out) in outcome.outcomes.iter().enumerate() {
        assert_eq!(out.stats.selected, 1, "query {i}");
    }
    // Union across the batch: every leaf selected exactly once.
    assert_eq!(outcome.stats.selected, LABELS as u64);
}
