//! Sink equivalence for the prepared `Session`/`EvalRequest` surface:
//! on generated treebank and ACGT documents, every provided sink must
//! agree with (a) the convenience wrappers (`run_one`, `run_boolean`,
//! `run_marked`) on single-query and batch sessions and (b) the raw
//! un-merged kernel fronts (`arb_engine::evaluate_disk` on disk,
//! `arb::core::evaluate_tree` + `MarkedWriter` on memory — independent
//! oracles that never see the merged batch IR). Checked for memory and
//! disk backends, single-query and batched sessions, sequential and
//! frontier-parallel evaluation.
//!
//! Also here: the disk-parallel differential property (sharded disk ==
//! sequential disk == in-memory, across thread counts, single and
//! batched — the §6.2-on-disk guarantee) and the concurrent-session
//! regression for the once-shared `.sta` scratch path.

use arb::datagen::queries::{RandomPathQuery, R_INFIX, R_TOP_DOWN};
use arb::datagen::{acgt_infix_tree, random_acgt, treebank_tree, RegexShape, TreebankConfig};
use arb::engine::{BooleanSink, CountSink, EvalRequest, NodeSetSink, XmlMarkSink};
use arb::tree::{BinaryTree, LabelTable, NodeId, NodeSet};
use arb::Database;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A small seeded treebank document (a few hundred nodes).
fn small_treebank(seed: u64) -> (BinaryTree, LabelTable) {
    let mut labels = LabelTable::new();
    let tree = treebank_tree(
        &TreebankConfig {
            target_elems: 200,
            seed,
            filler_tags: 8,
        },
        &mut labels,
    );
    (tree, labels)
}

/// A small ACGT-infix document (balanced; exercises the parallel
/// frontier even at this size).
fn small_acgt(seed: u64) -> (BinaryTree, LabelTable) {
    let mut labels = LabelTable::new();
    let seq = random_acgt(8, seed);
    let tree = acgt_infix_tree(&seq, &mut labels);
    (tree, labels)
}

/// Both backends over the same document: in-memory, and on-disk `.arb`.
fn both_backends(tree: &BinaryTree, labels: &LabelTable) -> Vec<Database> {
    let dir = std::env::temp_dir().join(format!("arb-session-api-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("case-{}.arb", CASE.fetch_add(1, Ordering::Relaxed)));
    arb::storage::create_from_tree(tree, labels, &path).expect("create database");
    vec![
        Database::from_tree(tree.clone(), labels.clone()),
        Database::open_arb(&path).expect("open database"),
    ]
}

/// The full equivalence matrix for one database and a set of query
/// sources: sinks vs. legacy shims vs. raw un-merged kernels.
fn check_sink_equivalence(db: &mut Database, sources: &[String]) {
    let queries: Vec<arb::Query> = sources
        .iter()
        .map(|s| db.compile_tmnf(s).expect("generated query compiles"))
        .collect();
    let k = queries.len();

    // --- Independent oracles: per-query, on the un-merged program ------
    let tree = db.to_tree().expect("materialize");
    let mut oracle_sets: Vec<NodeSet> = Vec::new();
    for q in &queries {
        let set = match db.as_disk() {
            Some(disk) => {
                arb::engine::evaluate_disk(q.program(), disk)
                    .expect("raw disk eval")
                    .selected
            }
            None => {
                let res = arb::core::evaluate_tree(q.program(), &tree);
                let mut set = NodeSet::new(tree.len());
                for v in tree.nodes() {
                    if q.program().query_preds().iter().any(|&p| res.holds(p, v)) {
                        set.insert(v);
                    }
                }
                set
            }
        };
        oracle_sets.push(set);
    }
    let mut oracle_union = NodeSet::new(tree.len());
    for s in &oracle_sets {
        oracle_union.union_with(s);
    }
    let mut oracle_marked = Vec::new();
    arb::xml::MarkedWriter::new(db.labels(), Some(&oracle_union))
        .write(&tree, &mut oracle_marked)
        .expect("oracle marked output");

    let session = db.prepare(&queries);

    // --- NodeSetSink == oracle sets == single-query sessions -----------
    let mut sets = NodeSetSink::default();
    let report = session.eval(&EvalRequest::new(), &mut sets).unwrap();
    prop_assert_eq!(sets.sets().len(), k);
    for (i, (q, oracle)) in queries.iter().zip(&oracle_sets).enumerate() {
        prop_assert_eq!(sets.sets()[i].to_vec(), oracle.to_vec(), "query {}", i);
        let single = db.prepare(std::slice::from_ref(q)).run_one().unwrap();
        prop_assert_eq!(sets.sets()[i].to_vec(), single.selected.to_vec());
        prop_assert_eq!(
            report.batch.as_ref().unwrap().outcomes[i]
                .per_pred_counts
                .clone(),
            single.per_pred_counts
        );
    }

    // --- CountSink == oracle counts ------------------------------------
    let mut counts = CountSink::default();
    session.eval(&EvalRequest::new(), &mut counts).unwrap();
    for (i, oracle) in oracle_sets.iter().enumerate() {
        prop_assert_eq!(counts.counts()[i], oracle.count() as u64);
    }

    // --- BooleanSink == oracle root membership == single verdicts ------
    let mut bools = BooleanSink::default();
    let report = session.eval(&EvalRequest::new(), &mut bools).unwrap();
    prop_assert!(report.batch.is_none(), "verdict demand skips phase 2");
    for (i, (q, oracle)) in queries.iter().zip(&oracle_sets).enumerate() {
        prop_assert_eq!(
            bools.verdicts()[i],
            oracle.contains(NodeId(0)),
            "query {}",
            i
        );
        let single = db.prepare(std::slice::from_ref(q)).run_boolean().unwrap();
        prop_assert_eq!(bools.verdicts()[i], single[0]);
    }

    // --- XmlMarkSink == MarkedWriter oracle == run_marked --------------
    let mut mark = XmlMarkSink::new(db.labels(), Vec::new());
    session.eval(&EvalRequest::new(), &mut mark).unwrap();
    let marked = mark.into_inner().expect("run completed");
    prop_assert_eq!(&marked, &oracle_marked);
    let mut run_marked = Vec::new();
    session.run_marked(&mut run_marked).unwrap();
    prop_assert_eq!(&marked, &run_marked);

    // --- Options: frontier-parallel, here and on the materialized tree -
    let req = EvalRequest::new().parallelism(3);
    let materialized = Database::from_tree(tree.clone(), db.labels().clone());
    for par in [
        session.run_with(&req).unwrap(),
        materialized.prepare(&queries).run_with(&req).unwrap(),
    ] {
        for (i, oracle) in oracle_sets.iter().enumerate() {
            prop_assert_eq!(par.outcomes[i].selected.to_vec(), oracle.to_vec());
        }
    }

    // --- A session over an existing batch demuxes identically ----------
    let batch = arb::QueryBatch::new(&queries);
    let over_batch = db.prepare_batch(&batch);
    let batch_run = over_batch.run().unwrap();
    prop_assert_eq!(batch_run.stats.backward_scans, 1);
    for (i, oracle) in oracle_sets.iter().enumerate() {
        prop_assert_eq!(batch_run.outcomes[i].selected.to_vec(), oracle.to_vec());
    }
    prop_assert_eq!(over_batch.run_boolean().unwrap(), bools.verdicts().to_vec());
}

/// A treebank document big enough to admit a sharding frontier (the
/// planner needs subtree pieces of ≥ 512 nodes).
fn frontier_treebank(seed: u64) -> (BinaryTree, LabelTable) {
    let mut labels = LabelTable::new();
    let tree = treebank_tree(
        &TreebankConfig {
            target_elems: 2_500,
            seed,
            filler_tags: 8,
        },
        &mut labels,
    );
    (tree, labels)
}

/// The disk-parallel differential property: for every thread count,
/// sharded disk == sequential disk == in-memory — per-query node sets,
/// counts, and boolean verdicts (which exercise the sharded
/// single-backward-pass fast path), single and batched.
fn check_sharded_disk_equivalence(
    disk: &mut Database,
    mem: &mut Database,
    sources: &[String],
    threads: &[usize],
) {
    assert!(disk.as_disk().is_some() && mem.as_disk().is_none());
    let dq: Vec<arb::Query> = sources
        .iter()
        .map(|s| disk.compile_tmnf(s).expect("query compiles"))
        .collect();
    let mq: Vec<arb::Query> = sources
        .iter()
        .map(|s| mem.compile_tmnf(s).expect("query compiles"))
        .collect();
    let disk_session = disk.prepare(&dq);
    let mem_session = mem.prepare(&mq);

    // Oracles: sequential disk and sequential memory agree first.
    let mut seq_sets = NodeSetSink::default();
    disk_session
        .eval(&EvalRequest::new(), &mut seq_sets)
        .unwrap();
    let mut mem_sets = NodeSetSink::default();
    mem_session
        .eval(&EvalRequest::new(), &mut mem_sets)
        .unwrap();
    let mut seq_bools = BooleanSink::default();
    disk_session
        .eval(&EvalRequest::new(), &mut seq_bools)
        .unwrap();
    for (i, (d, m)) in seq_sets.sets().iter().zip(mem_sets.sets()).enumerate() {
        prop_assert_eq!(d.to_vec(), m.to_vec(), "disk vs memory, query {}", i);
    }

    for &t in threads {
        let req = EvalRequest::new().parallelism(t);
        let mut sets = NodeSetSink::default();
        let report = disk_session.eval(&req, &mut sets).unwrap();
        for (i, (s, oracle)) in sets.sets().iter().zip(seq_sets.sets()).enumerate() {
            prop_assert_eq!(
                s.to_vec(),
                oracle.to_vec(),
                "sharded disk vs sequential disk, query {} at {} threads",
                i,
                t
            );
        }
        let batch = report.batch.as_ref().unwrap();
        for (i, o) in batch.outcomes.iter().enumerate() {
            prop_assert_eq!(o.stats.selected, seq_sets.sets()[i].count() as u64);
        }

        let mut counts = CountSink::default();
        disk_session.eval(&req, &mut counts).unwrap();
        for (i, c) in counts.counts().iter().enumerate() {
            prop_assert_eq!(*c, seq_sets.sets()[i].count() as u64);
        }

        // Verdicts fast path: sharded single backward pass.
        let mut bools = BooleanSink::default();
        let report = disk_session.eval(&req, &mut bools).unwrap();
        prop_assert!(report.batch.is_none(), "verdict demand skips phase 2");
        prop_assert_eq!(bools.verdicts(), seq_bools.verdicts());

        // Streaming sinks stay byte-identical (sequential phase 2 in
        // document order over the sharded-written state file).
        let mut mark_seq = XmlMarkSink::new(disk.labels(), Vec::new());
        disk_session
            .eval(&EvalRequest::new(), &mut mark_seq)
            .unwrap();
        let mut mark_par = XmlMarkSink::new(disk.labels(), Vec::new());
        disk_session.eval(&req, &mut mark_par).unwrap();
        prop_assert_eq!(
            mark_seq.into_inner().unwrap(),
            mark_par.into_inner().unwrap()
        );
    }
}

/// Regression for the shared-`.sta` race: concurrent evaluations of one
/// `Database` used to write the *same* fixed sibling scratch path and
/// silently corrupt each other's phase-1 state stream. Several threads
/// hammer one disk database (sequential and sharded runs interleaved)
/// and every result must match the sequentially computed oracle.
#[test]
fn concurrent_sessions_over_one_database_are_correct() {
    let (tree, labels) = small_treebank(0xC0FFEE);
    let dir = std::env::temp_dir().join(format!("arb-session-api-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("concurrent.arb");
    arb::storage::create_from_tree(&tree, &labels, &path).expect("create database");
    let mut db = Database::open_arb(&path).expect("open database");

    let sources = [
        "QUERY :- V.Label[NP];".to_string(),
        "QUERY :- V.Label[VP].FirstChild.NextSibling*;".to_string(),
        "QUERY :- Text;".to_string(),
    ];
    let queries: Vec<arb::Query> = sources
        .iter()
        .map(|s| db.compile_tmnf(s).expect("query compiles"))
        .collect();

    // Sequential oracle per query, computed before any concurrency.
    let oracles: Vec<Vec<NodeId>> = queries
        .iter()
        .map(|q| {
            db.prepare(std::slice::from_ref(q))
                .run_one()
                .unwrap()
                .selected
                .to_vec()
        })
        .collect();

    let db = &db;
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let queries = &queries;
            let oracles = &oracles;
            scope.spawn(move || {
                for round in 0..8 {
                    let qi = (worker + round) % queries.len();
                    let session = db.prepare(std::slice::from_ref(&queries[qi]));
                    // Mix sequential and sharded runs across threads.
                    let req = EvalRequest::new().parallelism(1 + (worker + round) % 3);
                    let out = session.run_with(&req).unwrap();
                    assert_eq!(
                        out.outcomes[0].selected.to_vec(),
                        oracles[qi],
                        "worker {worker} round {round} query {qi} corrupted"
                    );
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Treebank documents, top-down path queries, k = 1 (single) .. 4.
    #[test]
    fn sinks_agree_on_treebank((k, tree_seed, query_seed) in
        (1usize..=4, any::<u64>(), any::<u64>()))
    {
        let (tree, labels) = small_treebank(tree_seed);
        let sources: Vec<String> =
            RandomPathQuery::batch(k, 5, &["NP", "VP", "PP", "S"], RegexShape::Tags, query_seed)
                .iter()
                .map(|q| q.to_program(R_TOP_DOWN))
                .collect();
        for mut db in both_backends(&tree, &labels) {
            check_sink_equivalence(&mut db, &sources);
        }
    }

    /// Balanced ACGT-infix documents, sideways caterpillar queries.
    #[test]
    fn sinks_agree_on_acgt((k, tree_seed, query_seed) in
        (1usize..=3, any::<u64>(), any::<u64>()))
    {
        let (tree, labels) = small_acgt(tree_seed);
        let sources: Vec<String> =
            RandomPathQuery::batch(k, 4, &["A", "C", "G", "T"], RegexShape::Tags, query_seed)
                .iter()
                .map(|q| q.to_program(R_INFIX))
                .collect();
        for mut db in both_backends(&tree, &labels) {
            check_sink_equivalence(&mut db, &sources);
        }
    }

    /// Disk-parallel differential: sharded disk == sequential disk ==
    /// in-memory on documents big enough to actually shard, single
    /// query (k = 1) and batched, across thread counts (including one
    /// beyond the frontier size and the fall-back count 1).
    #[test]
    fn sharded_disk_agrees_across_thread_counts((k, tree_seed, query_seed) in
        (1usize..=3, any::<u64>(), any::<u64>()))
    {
        let (tree, labels) = frontier_treebank(tree_seed);
        let sources: Vec<String> =
            RandomPathQuery::batch(k, 5, &["NP", "VP", "PP", "S"], RegexShape::Tags, query_seed)
                .iter()
                .map(|q| q.to_program(R_TOP_DOWN))
                .collect();
        let [mut mem, mut disk]: [Database; 2] =
            both_backends(&tree, &labels).try_into().ok().expect("two backends");
        check_sharded_disk_equivalence(&mut disk, &mut mem, &sources, &[1, 2, 3, 8]);
    }
}
