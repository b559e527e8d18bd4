//! Differential property for the `.sta` state-stream codec: the default
//! block-compressed stream, the paper's flat 4-bytes-per-node stream,
//! and the in-memory evaluation path must produce identical results —
//! node sets, counts, boolean verdicts, and streamed marked XML — for
//! random query batches over generated documents, sequentially and
//! sharded over 1, 2 and 4 workers.
//!
//! Below the session surface, the same holds for the evaluation kernel's
//! whole parameter matrix — every record source × every state store ×
//! thread counts × demands, driven directly and checked against the
//! naive fixpoint (`kernel_matrix_agrees_with_naive`).
//!
//! `runs_end_anywhere_without_changing_a_state` takes that matrix to a
//! document just over one 32 Ki-record storage block, where the three
//! sources cut their runs in three different places (v2 blocks, v1
//! slabs, 1024-record tree chunks) and none of them where the 64-state
//! `.sta` blocks end.
//!
//! The whole suite pins `ARB_STA_BLOCK_RECORDS=64` (via the
//! `EvalOptions`-independent env knob, set once before any evaluation),
//! so the few-hundred-node documents span many blocks and the sharded
//! runs' segment windows straddle block frames — the frontier planner
//! splits on subtree boundaries, which almost never coincide with a
//! 64-record frame.

use arb::core::kernel::{self, Demand, NoStore, RecordSource, StateStore, VecStore, Visit};
use arb::core::{AutomataPool, EvalStats, QueryAutomata, SubtreeIndex};
use arb::datagen::queries::{RandomPathQuery, R_TOP_DOWN};
use arb::datagen::{treebank_tree, RegexShape, TreebankConfig};
use arb::engine::diskeval::{DiskSource, StaStore};
use arb::engine::{BooleanSink, CountSink, EvalRequest, NodeSetSink, XmlMarkSink};
use arb::logic::{Atom, ProgramId};
use arb::storage::{create_from_tree_with, ArbDatabase, FormatVersion, ScratchPath};
use arb::tmnf::{merge_programs, naive, normalize, parse_program, CoreProgram};
use arb::tree::{BinaryTree, LabelTable, NodeId};
use arb::{Database, StaFormat};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

static CASE: AtomicUsize = AtomicUsize::new(0);
static TINY_BLOCKS: Once = Once::new();

/// Pins tiny `.sta` blocks for the whole test process (all tests of this
/// binary want the same value, so the write is race-free by idempotence).
fn pin_tiny_blocks() {
    TINY_BLOCKS.call_once(|| std::env::set_var("ARB_STA_BLOCK_RECORDS", "64"));
}

/// A seeded treebank document of about `elems` element nodes.
fn treebank(elems: usize, seed: u64) -> (BinaryTree, LabelTable) {
    let mut labels = LabelTable::new();
    let tree = treebank_tree(
        &TreebankConfig {
            target_elems: elems,
            seed,
            filler_tags: 8,
        },
        &mut labels,
    );
    (tree, labels)
}

/// A small document (a few hundred nodes — dozens of 64-record blocks).
fn small_treebank(seed: u64) -> (BinaryTree, LabelTable) {
    treebank(250, seed)
}

/// Generates k random query sources against the treebank tag set.
fn query_sources(k: usize, seed: u64) -> Vec<String> {
    RandomPathQuery::batch(k, 5, &["NP", "VP", "PP", "S"], RegexShape::Tags, seed)
        .iter()
        .map(|q| q.to_program(R_TOP_DOWN))
        .collect()
}

/// Memory backend + disk backend over the same document.
fn both_backends(tree: &BinaryTree, labels: &LabelTable) -> (Database, Database) {
    let dir = std::env::temp_dir().join(format!("arb-stadiff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("case-{}.arb", CASE.fetch_add(1, Ordering::Relaxed)));
    arb::storage::create_from_tree(tree, labels, &path).expect("create database");
    (
        Database::from_tree(tree.clone(), labels.clone()),
        Database::open_arb(&path).expect("open database"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// blocked == flat == in-memory, across sequential/sharded × sinks.
    #[test]
    fn blocked_equals_flat_equals_memory((k, tree_seed, query_seed) in
        (1usize..=3, any::<u64>(), any::<u64>()))
    {
        pin_tiny_blocks();
        let (tree, labels) = small_treebank(tree_seed);
        let sources = query_sources(k, query_seed);
        let (mut mem, mut disk) = both_backends(&tree, &labels);

        // In-memory oracle: no `.sta` stream at all.
        let mem_queries: Vec<arb::Query> = sources
            .iter()
            .map(|s| mem.compile_tmnf(s).expect("query compiles"))
            .collect();
        let mut mem_sets = NodeSetSink::default();
        let mut mem_bools = BooleanSink::default();
        let mut mem_mark = XmlMarkSink::new(mem.labels(), Vec::new());
        {
            let session = mem.prepare(&mem_queries);
            session.eval(&EvalRequest::new(), &mut mem_sets).expect("memory sets");
            session.eval(&EvalRequest::new(), &mut mem_bools).expect("memory bools");
            session.eval(&EvalRequest::new(), &mut mem_mark).expect("memory mark");
        }
        let mem_marked = mem_mark.into_inner().expect("marked bytes");

        let disk_queries: Vec<arb::Query> = sources
            .iter()
            .map(|s| disk.compile_tmnf(s).expect("query compiles"))
            .collect();
        let session = disk.prepare(&disk_queries);
        for format in [StaFormat::Blocked, StaFormat::Flat] {
            for threads in [1usize, 2, 4] {
                let req = EvalRequest::new().parallelism(threads).sta_format(format);

                let mut sets = NodeSetSink::default();
                session.eval(&req, &mut sets).expect("disk sets");
                prop_assert_eq!(sets.sets().len(), k);
                for (i, (s, m)) in sets.sets().iter().zip(mem_sets.sets()).enumerate() {
                    prop_assert_eq!(
                        s.to_vec(), m.to_vec(),
                        "sets: query {} {} threads {}", i, format, threads
                    );
                }

                let mut counts = CountSink::default();
                session.eval(&req, &mut counts).expect("disk counts");
                for (i, c) in counts.counts().iter().enumerate() {
                    prop_assert_eq!(
                        *c, mem_sets.sets()[i].count() as u64,
                        "counts: query {} {} threads {}", i, format, threads
                    );
                }

                let mut bools = BooleanSink::default();
                session.eval(&req, &mut bools).expect("disk bools");
                prop_assert_eq!(
                    bools.verdicts(), mem_bools.verdicts(),
                    "verdicts: {} threads {}", format, threads
                );

                // The streamed (hook) path reads the whole stream in
                // document order — sharded runs remap worker segments.
                let mut mark = XmlMarkSink::new(disk.labels(), Vec::new());
                session.eval(&req, &mut mark).expect("disk mark");
                prop_assert_eq!(
                    mark.into_inner().expect("marked bytes"), mem_marked.clone(),
                    "marked XML: {} threads {}", format, threads
                );
            }
        }
    }
}

/// What one kernel run produced, reduced to what must agree everywhere.
#[derive(Debug, PartialEq)]
struct Observed {
    verdicts: Vec<bool>,
    sets: Vec<Vec<NodeId>>,
    counts: Vec<u64>,
    /// The hook's `(ix, flags)` sequence (empty unless streamed).
    stream: Vec<(u32, Vec<bool>)>,
}

/// One kernel run; also returns the hook's ρ_A id stream and the stats.
fn observe<R: RecordSource + ?Sized, S: StateStore>(
    prog: &CoreProgram,
    groups: &[Vec<Atom>],
    source: &R,
    store: &S,
    demand: &str,
    threads: usize,
) -> (Observed, Vec<ProgramId>, EvalStats) {
    let (mut stream, mut rho_a) = (Vec::new(), Vec::new());
    let mut hook = |v: &Visit<'_>| {
        stream.push((v.ix, v.selected_by.to_vec()));
        rho_a.push(v.rho_a);
    };
    let demand = match demand {
        "verdicts" => Demand::Verdicts,
        "sets" => Demand::Sets,
        _ => Demand::Stream(&mut hook),
    };
    let pool = AutomataPool::new();
    let run =
        kernel::evaluate(prog, source, store, groups, demand, threads, &pool).expect("kernel run");
    let observed = Observed {
        verdicts: run.verdicts,
        sets: run.sets.iter().map(|s| s.to_vec()).collect(),
        counts: run.counts,
        stream,
    };
    (observed, rho_a, run.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The kernel's parameter matrix as one differential: source ∈ {tree,
    /// v1 file, v2 file} × store ∈ {Vec, flat `.sta`, blocked `.sta`} ×
    /// threads ∈ {1, 2, 3, 8} × demand ∈ {verdicts, sets, stream} all
    /// agree with each other and with the naive fixpoint, on documents
    /// big enough to shard.
    #[test]
    fn kernel_matrix_agrees_with_naive((k, tree_seed, query_seed) in
        (1usize..=3, any::<u64>(), any::<u64>()))
    {
        pin_tiny_blocks();
        let (tree, mut labels) = treebank(2_500, tree_seed);
        let n = tree.len() as u32;
        let progs: Vec<CoreProgram> = query_sources(k, query_seed)
            .iter()
            .map(|src| {
                let mut prog = normalize(&parse_program(src, &mut labels).expect("query parses"));
                let q = prog.pred_id("QUERY").expect("QUERY head");
                prog.add_query_pred(q);
                prog
            })
            .collect();
        let merged = merge_programs(&progs.iter().collect::<Vec<_>>());
        let groups: Vec<Vec<Atom>> = merged
            .query_preds
            .iter()
            .map(|qs| qs.iter().map(|&p| Atom::local(p)).collect())
            .collect();

        // The oracle: each input program's least fixpoint.
        let oracle_sets: Vec<Vec<NodeId>> = progs
            .iter()
            .map(|prog| {
                let fix = naive::evaluate(prog, &tree);
                let q = prog.query_pred().expect("query pred");
                tree.nodes().filter(|&v| fix.holds(q, v)).collect()
            })
            .collect();
        let expected = |demand: &str| Observed {
            verdicts: oracle_sets.iter().map(|s| s.first() == Some(&NodeId(0))).collect(),
            sets: match demand {
                "verdicts" => vec![Vec::new(); k],
                _ => oracle_sets.clone(),
            },
            counts: match demand {
                "verdicts" => vec![0; k],
                _ => oracle_sets.iter().map(|s| s.len() as u64).collect(),
            },
            stream: match demand {
                "stream" => (0..n)
                    .map(|ix| {
                        let flags = oracle_sets
                            .iter()
                            .map(|s| s.binary_search(&NodeId(ix)).is_ok())
                            .collect();
                        (ix, flags)
                    })
                    .collect(),
                _ => Vec::new(),
            },
        };

        let dir = std::env::temp_dir().join(format!("arb-stadiff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let open = |format: FormatVersion| {
            let path = dir.join(format!("matrix-{case}-{format}.arb"));
            create_from_tree_with(&tree, &labels, &path, format).expect("create database");
            ArbDatabase::open(&path).expect("open database")
        };
        let (v1, v2) = (open(FormatVersion::V1), open(FormatVersion::V2));

        // One cell of the matrix; `store` is ignored by verdict runs.
        // Like every real run, each cell gets a scratch stream of its own.
        let cell = |source: &str, store: &str, demand: &str, threads: usize| {
            let sta = ScratchPath::new(dir.join(format!(
                "matrix-{case}-{source}-{store}-{demand}-{threads}.sta"
            )));
            macro_rules! with_store {
                ($source:expr) => {
                    match (demand, store) {
                        ("verdicts", _) => observe(&merged.program, &groups, $source, &NoStore, demand, threads),
                        (_, "vec") => observe(&merged.program, &groups, $source, &VecStore::new(n), demand, threads),
                        (_, "flat") => observe(&merged.program, &groups, $source,
                            &StaStore::new(sta.path(), StaFormat::Flat, n), demand, threads),
                        _ => observe(&merged.program, &groups, $source,
                            &StaStore::new(sta.path(), StaFormat::Blocked, n), demand, threads),
                    }
                };
            }
            match source {
                "tree" => with_store!(&tree),
                "v1" => with_store!(&DiskSource::new(&v1)),
                _ => with_store!(&DiskSource::new(&v2)),
            }
        };

        let mut sequential_rho_a: Option<Vec<ProgramId>> = None;
        for source in ["tree", "v1", "v2"] {
            for store in ["vec", "flat", "blocked"] {
                for threads in [1usize, 2, 3, 8] {
                    for demand in ["verdicts", "sets", "stream"] {
                        if demand == "verdicts" && store != "vec" {
                            continue; // verdict runs keep no store: once per source
                        }
                        let at = format!("{source} x {store} x {threads} threads x {demand}");
                        let (observed, rho_a, stats) = cell(source, store, demand, threads);
                        prop_assert_eq!(&observed, &expected(demand), "{}", at);
                        let forward = u64::from(demand != "verdicts");
                        if threads == 1 {
                            prop_assert_eq!(
                                (stats.backward_scans, stats.forward_scans), (1, forward), "{}", at
                            );
                        } else {
                            prop_assert!(stats.backward_scans > 1, "{} did not shard", at);
                            if demand != "sets" {
                                // Only a sharded fold down opens a scan per window.
                                prop_assert_eq!(stats.forward_scans, forward, "{}", at);
                            }
                        }
                        if threads == 1 && demand == "stream" {
                            // One program over one document is one ρ_A
                            // id stream, wherever records and states live.
                            let first = sequential_rho_a.get_or_insert_with(|| rho_a.clone());
                            prop_assert_eq!(&rho_a, &*first, "{}", at);
                        }
                    }
                }
            }
        }
    }
}

/// Where a run ends is invisible. On a document just over one storage
/// block the tree streams cut runs every 1024 records, the v1 scan at
/// its 32 Ki-record slabs from whichever end it started, the v2 scan at
/// the block edge, and the `.sta` stream every 64 states — yet every
/// source × store yields one ρ_A id stream at `threads = 1`, and one set
/// of results and one hook order at `threads ∈ {2, 3, 8}`, whose windows
/// begin and end wherever subtrees do. Windows folded on their own — the
/// subtrees straddling the block edge, and one-record windows on either
/// side of it — agree across the sources id for id.
#[test]
fn runs_end_anywhere_without_changing_a_state() {
    pin_tiny_blocks();
    const EDGE: u32 = 32 * 1024;
    let (tree, mut labels) = treebank(8_500, 7);
    let n = tree.len() as u32;
    assert!(
        n > EDGE + 1024,
        "the document must pass the block edge, has {n} nodes"
    );
    let progs: Vec<CoreProgram> = query_sources(2, 11)
        .iter()
        .map(|src| {
            let mut prog = normalize(&parse_program(src, &mut labels).expect("query parses"));
            let q = prog.pred_id("QUERY").expect("QUERY head");
            prog.add_query_pred(q);
            prog
        })
        .collect();
    let merged = merge_programs(&progs.iter().collect::<Vec<_>>());
    let groups: Vec<Vec<Atom>> = merged
        .query_preds
        .iter()
        .map(|qs| qs.iter().map(|&p| Atom::local(p)).collect())
        .collect();

    let dir = std::env::temp_dir().join(format!("arb-stadiff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let open = |format: FormatVersion| {
        let path = dir.join(format!("runs-{format}.arb"));
        create_from_tree_with(&tree, &labels, &path, format).expect("create database");
        ArbDatabase::open(&path).expect("open database")
    };
    let (v1, v2) = (open(FormatVersion::V1), open(FormatVersion::V2));
    let (s1, s2) = (DiskSource::new(&v1), DiskSource::new(&v2));

    // --- Whole runs: every source × store × thread count ------------------
    let mut baseline: Option<(Observed, Vec<ProgramId>)> = None;
    for source in ["tree", "v1", "v2"] {
        for store in ["vec", "flat", "blocked"] {
            for threads in [1usize, 2, 3, 8] {
                let sta =
                    ScratchPath::new(dir.join(format!("runs-{source}-{store}-{threads}.sta")));
                macro_rules! run {
                    ($source:expr) => {
                        match store {
                            "vec" => observe(
                                &merged.program,
                                &groups,
                                $source,
                                &VecStore::new(n),
                                "stream",
                                threads,
                            ),
                            "flat" => observe(
                                &merged.program,
                                &groups,
                                $source,
                                &StaStore::new(sta.path(), StaFormat::Flat, n),
                                "stream",
                                threads,
                            ),
                            _ => observe(
                                &merged.program,
                                &groups,
                                $source,
                                &StaStore::new(sta.path(), StaFormat::Blocked, n),
                                "stream",
                                threads,
                            ),
                        }
                    };
                }
                let (observed, rho_a, stats) = match source {
                    "tree" => run!(&tree),
                    "v1" => run!(&s1),
                    _ => run!(&s2),
                };
                let at = format!("{source} x {store} x {threads} threads");
                assert_eq!(stats.backward_scans > 1, threads > 1, "{at}: sharding");
                assert_eq!(observed.stream.len(), n as usize, "{at}");
                match &baseline {
                    None => baseline = Some((observed, rho_a)),
                    Some((want, want_rho_a)) => {
                        assert!(observed == *want, "{at}: sets, counts or hook order differ");
                        if threads == 1 {
                            // Worker-local ids are renumbered into the
                            // master; sequential runs share one numbering.
                            assert!(rho_a == *want_rho_a, "{at}: the ρ_A id stream differs");
                        }
                    }
                }
            }
        }
    }

    // --- Single windows, folded up on their own ---------------------------
    // Every subtree around the block edge (its window begins before the
    // edge and ends past it, both mid-run on every source), the two
    // leaves nearest the edge on either side (one-record windows), and
    // the document itself.
    let idx = SubtreeIndex::from_seq(&tree).expect("extents");
    let is_leaf = |v: u32| idx.first_child(v).is_none() && idx.second_child(v).is_none();
    let mut windows: Vec<(u32, u32)> = (0..=EDGE)
        .filter(|&v| idx.end(v) > EDGE)
        .map(|v| (v, idx.end(v)))
        .collect();
    assert!(windows.len() > 2, "the edge lies inside nested subtrees");
    for leaf in [
        (0..EDGE).rev().find(|&v| is_leaf(v)),
        (EDGE..n).find(|&v| is_leaf(v)),
    ] {
        let v = leaf.expect("a leaf on either side of the edge");
        windows.push((v, v + 1));
    }
    for (lo, hi) in windows {
        let fold = |source: &dyn Fn(&mut QueryAutomata, &mut Vec<u32>) -> ProgramId| {
            let mut qa = QueryAutomata::new(&merged.program);
            let mut states = vec![u32::MAX; (hi - lo) as usize];
            let root = source(&mut qa, &mut states);
            assert_eq!(
                root.0, states[0],
                "[{lo}, {hi}): the root's state comes last"
            );
            states
        };
        macro_rules! fold_on {
            ($source:expr) => {
                fold(&|qa, states| {
                    let mut scan = $source.backward(lo, hi).expect("open the window");
                    let mut below = hi;
                    kernel::fold_up(&mut scan, qa, None, |ix, run| {
                        assert_eq!(ix + run.len() as u32, below, "runs descend without gaps");
                        states[(ix - lo) as usize..][..run.len()].copy_from_slice(run);
                        below = ix;
                        Ok(())
                    })
                    .expect("fold the window up")
                })
            };
        }
        let on_tree = fold_on!(tree);
        assert!(
            on_tree.iter().all(|&s| s != u32::MAX),
            "[{lo}, {hi}): every node got a state"
        );
        assert!(
            fold_on!(s1) == on_tree,
            "[{lo}, {hi}): v1 slabs against tree chunks"
        );
        assert!(
            fold_on!(s2) == on_tree,
            "[{lo}, {hi}): v2 blocks against tree chunks"
        );
    }
}
