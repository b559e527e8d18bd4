//! Batched multi-query evaluation vs. k independent runs: for random
//! k-query batches over generated documents, the batch API's per-query
//! node sets must equal k separate `evaluate_disk` runs (and the
//! in-memory batch path must agree with the naive datalog fixpoint),
//! while the whole batch costs exactly one backward and one forward scan.

use arb::datagen::queries::{RandomPathQuery, R_TOP_DOWN};
use arb::datagen::{treebank_tree, RegexShape, TreebankConfig};
use arb::engine::{evaluate_disk, Database, QueryBatch};
use arb::storage::create_from_tree;
use arb::tmnf::{naive, normalize, parse_program, CoreProgram};
use arb::tree::{BinaryTree, LabelTable};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A small seeded treebank document (a few hundred nodes).
fn small_treebank(seed: u64) -> (BinaryTree, LabelTable) {
    let mut labels = LabelTable::new();
    let tree = treebank_tree(
        &TreebankConfig {
            target_elems: 250,
            seed,
            filler_tags: 8,
        },
        &mut labels,
    );
    (tree, labels)
}

/// Compiles a random k-query batch against one shared label table.
fn compile_batch(k: usize, seed: u64, labels: &mut LabelTable) -> Vec<CoreProgram> {
    let queries = RandomPathQuery::batch(k, 5, &["NP", "VP", "PP", "S"], RegexShape::Tags, seed);
    queries
        .iter()
        .map(|q| {
            let src = q.to_program(R_TOP_DOWN);
            let ast = parse_program(&src, labels).expect("generated query parses");
            let mut prog = normalize(&ast);
            let qp = prog.pred_id("QUERY").expect("QUERY head");
            prog.add_query_pred(qp);
            prog
        })
        .collect()
}

fn materialize(tree: &BinaryTree, labels: &LabelTable) -> Database {
    let dir = std::env::temp_dir().join(format!("arb-batchdiff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("case-{}.arb", CASE.fetch_add(1, Ordering::Relaxed)));
    create_from_tree(tree, labels, &path).expect("create database");
    Database::open_arb(&path).expect("open database")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Disk path: batch == k independent two-scan runs, in 2 scans total.
    #[test]
    fn disk_batch_matches_independent_runs((k, tree_seed, query_seed) in
        (2usize..=5, any::<u64>(), any::<u64>()))
    {
        let (tree, mut labels) = small_treebank(tree_seed);
        let progs = compile_batch(k, query_seed, &mut labels);
        let database = materialize(&tree, &labels);
        let db = database.as_disk().expect("disk backing");

        let batch = QueryBatch::from_programs(&progs);
        let combined = database.prepare_batch(&batch).run().expect("batch eval");

        // Acceptance criterion: one shared scan in each direction for
        // the whole batch, where k independent runs take k each. The
        // stats count the evaluation's own scan opens; the fresh
        // handle's lifetime totals are an independent cross-check.
        prop_assert_eq!(combined.stats.backward_scans, 1);
        prop_assert_eq!(combined.stats.forward_scans, 1);
        prop_assert_eq!(db.scan_counts(), (1, 1));
        prop_assert_eq!(combined.outcomes.len(), k);

        let mut independent_scans = 0u64;
        for (prog, out) in progs.iter().zip(&combined.outcomes) {
            let indep = evaluate_disk(prog, db).expect("independent eval");
            independent_scans += indep.stats.backward_scans + indep.stats.forward_scans;
            prop_assert_eq!(out.selected.to_vec(), indep.selected.to_vec());
            prop_assert_eq!(&out.per_pred_counts, &indep.per_pred_counts);
            prop_assert_eq!(out.stats.selected, indep.stats.selected);
        }
        prop_assert_eq!(independent_scans, 2 * k as u64);
        prop_assert_eq!(db.scan_counts(), (1 + k as u64, 1 + k as u64));
    }

    /// Memory path: the merged two-phase run agrees with the naive
    /// datalog fixpoint of every input program on every node.
    #[test]
    fn memory_batch_matches_naive_fixpoint((k, tree_seed, query_seed) in
        (2usize..=5, any::<u64>(), any::<u64>()))
    {
        let (tree, mut labels) = small_treebank(tree_seed);
        let progs = compile_batch(k, query_seed, &mut labels);
        let batch = QueryBatch::from_programs(&progs);
        let db = Database::from_tree(tree.clone(), labels);
        let batched = db.prepare_batch(&batch).run().expect("batch eval");
        prop_assert_eq!(batched.stats.backward_scans, 1);
        prop_assert_eq!(batched.stats.forward_scans, 1);

        for (i, prog) in progs.iter().enumerate() {
            let oracle = naive::evaluate(prog, &tree);
            let q = prog.query_pred().expect("query pred");
            let selected = &batched.outcomes[i].selected;
            for v in tree.nodes() {
                prop_assert_eq!(
                    selected.contains(v),
                    oracle.holds(q, v),
                    "query {} at node {}", i, v.0
                );
            }
        }
    }
}
