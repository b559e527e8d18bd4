//! Property tests for Theorem 4.1: the two-phase automaton evaluation
//! computes exactly the TMNF least-fixpoint semantics —
//! `P ∈ ρB(v) ⇔ P(v) ∈ P(T)` — on *random programs* and *random trees*,
//! in memory and through the `.arb` storage model.

use arb::core::evaluate_tree;
use arb::engine::evaluate_disk;
use arb::logic::{Atom, ProgramId};
use arb::storage::{create_from_tree, ArbDatabase};
use arb::tmnf::core::{BodyAtom, CoreProgram, CoreRule};
use arb::tmnf::{naive, EdbAtom};
use arb::tree::{BinaryTree, LabelId, LabelTable, TreeBuilder};
use proptest::prelude::*;

/// The EDB pool random programs draw from.
fn edb_pool() -> Vec<EdbAtom> {
    vec![
        EdbAtom::V,
        EdbAtom::Root,
        EdbAtom::HasFirstChild,
        EdbAtom::Leaf,
        EdbAtom::HasSecondChild,
        EdbAtom::LastSibling,
        EdbAtom::Label(LabelId(256)),
        EdbAtom::NotLabel(LabelId(256)),
        EdbAtom::Label(LabelId(257)),
        EdbAtom::Text,
    ]
}

/// Strategy: a random strict TMNF program over `n_preds` predicates.
fn random_program(n_preds: u32, n_rules: usize) -> impl Strategy<Value = CoreProgram> {
    let rule = (
        0..5u8,
        0..n_preds,
        0..n_preds,
        0..n_preds,
        0..10usize,
        1..3u8,
    );
    proptest::collection::vec(rule, 1..=n_rules).prop_map(move |rules| {
        let mut prog = CoreProgram::new();
        for i in 0..n_preds {
            prog.pred(&format!("P{i}"));
        }
        let pool = edb_pool();
        for (kind, head, b1, b2, edb_ix, k) in rules {
            let rule = match kind {
                0 => CoreRule::Edb {
                    head,
                    edb: prog.edb(pool[edb_ix % pool.len()]),
                },
                1 => CoreRule::Down { head, body: b1, k },
                2 => CoreRule::Up { head, body: b1, k },
                3 => CoreRule::And {
                    head,
                    b1: BodyAtom::Pred(b1),
                    b2: BodyAtom::Pred(b2),
                },
                _ => CoreRule::And {
                    head,
                    b1: BodyAtom::Pred(b1),
                    b2: BodyAtom::Edb(prog.edb(pool[edb_ix % pool.len()])),
                },
            };
            prog.add_rule(rule);
        }
        prog
    })
}

/// Strategy: a random tree with labels 256/257/258 and some text.
fn random_tree(max_ops: usize) -> impl Strategy<Value = BinaryTree> {
    proptest::collection::vec((0..4u8, 0..3u16), 0..max_ops).prop_map(|ops| {
        let mut lt = LabelTable::new();
        for n in ["a", "b", "c"] {
            lt.intern(n).expect("label");
        }
        let mut b = TreeBuilder::new();
        b.open(LabelId(256));
        let mut depth = 1;
        for (op, l) in ops {
            match op {
                0 if depth > 1 => {
                    b.close();
                    depth -= 1;
                }
                1 => b.text(b"x"),
                2 => b.leaf(LabelId(256 + l)),
                _ => {
                    b.open(LabelId(256 + l));
                    depth += 1;
                }
            }
        }
        while depth > 0 {
            b.close();
            depth -= 1;
        }
        b.finish().expect("balanced")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two-phase in-memory evaluation equals the naive least fixpoint on
    /// every (predicate, node) pair.
    #[test]
    fn two_phase_equals_fixpoint(
        prog in random_program(5, 14),
        tree in random_tree(40),
    ) {
        let oracle = naive::evaluate(&prog, &tree);
        let two = evaluate_tree(&prog, &tree);
        for p in 0..prog.pred_count() as u32 {
            for v in tree.nodes() {
                prop_assert_eq!(
                    two.holds(p, v),
                    oracle.holds(p, v),
                    "pred P{} at node {}", p, v.0
                );
            }
        }
    }

    /// The same through the storage model: backward scan + .sta file +
    /// forward scan (the paper's production configuration).
    #[test]
    fn disk_equals_fixpoint(
        prog in random_program(4, 10),
        tree in random_tree(30),
    ) {
        let mut prog = prog;
        for p in 0..prog.pred_count() as u32 {
            prog.add_query_pred(p);
        }
        let mut lt = LabelTable::new();
        for n in ["a", "b", "c"] {
            lt.intern(n).expect("label");
        }
        let dir = std::env::temp_dir().join(format!("arb-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("t{:?}.arb", std::thread::current().id()));
        create_from_tree(&tree, &lt, &path).expect("create");
        let db = ArbDatabase::open(&path).expect("open");
        let outcome = evaluate_disk(&prog, &db).expect("disk eval");

        let oracle = naive::evaluate(&prog, &tree);
        for (i, &p) in prog.query_preds().iter().enumerate() {
            prop_assert_eq!(
                outcome.per_pred_counts[i],
                oracle.extent(p).count() as u64,
                "pred P{}", p
            );
        }
        // Selected set = union over query predicates.
        for v in tree.nodes() {
            let any = (0..prog.pred_count() as u32).any(|p| oracle.holds(p, v));
            prop_assert_eq!(outcome.selected.contains(v), any, "node {}", v.0);
        }
    }

    /// The optimizer preserves query-predicate semantics on random
    /// programs and trees.
    #[test]
    fn optimizer_preserves_semantics(
        prog in random_program(5, 12),
        tree in random_tree(40),
    ) {
        let mut prog = prog;
        prog.add_query_pred(0);
        prog.add_query_pred(2);
        let opt = arb::tmnf::optimize(&prog);
        prop_assert!(opt.rule_count() <= prog.rule_count());
        let r1 = naive::evaluate(&prog, &tree);
        let r2 = naive::evaluate(&opt, &tree);
        for (i, (&q1, &q2)) in prog
            .query_preds()
            .iter()
            .zip(opt.query_preds())
            .enumerate()
        {
            for v in tree.nodes() {
                prop_assert_eq!(
                    r1.holds(q1, v),
                    r2.holds(q2, v),
                    "query pred {} at node {}", i, v.0
                );
            }
        }
    }

    /// Phase-1 residual programs are always EDB-free and local-only, and
    /// the number of distinct states stays small (the paper's central
    /// empirical observation).
    #[test]
    fn residual_programs_are_local(
        prog in random_program(5, 12),
        tree in random_tree(40),
    ) {
        let res = evaluate_tree(&prog, &tree);
        for i in 0..res.automata.programs.len() as u32 {
            let p = res.automata.programs.get(ProgramId(i));
            for r in p.rules() {
                prop_assert!(r.head.is_local());
                prop_assert!(r.body.iter().all(|a| a.is_local()));
            }
        }
        // States are hash-consed: distinct states ≤ distinct transitions.
        prop_assert!(res.automata.programs.len() as u64 <= res.stats.phase1_transitions + 1);
    }
}

/// Theorem 4.1 on the paper's own running example, end to end through
/// every code path (in-memory, parallel, disk).
#[test]
fn example_4_3_everywhere() {
    let mut lt = LabelTable::new();
    let ast = arb::tmnf::parse_program(arb::tmnf::programs::EXAMPLE_4_3, &mut lt).unwrap();
    let mut prog = arb::tmnf::normalize(&ast);
    let q = prog.pred_id("Q").unwrap();
    prog.add_query_pred(q);
    let a = lt.intern("a").unwrap();
    let mut b = TreeBuilder::new();
    b.open(a);
    b.open(a);
    b.open(a);
    b.close();
    b.close();
    b.close();
    let tree = b.finish().unwrap();

    let mem = evaluate_tree(&prog, &tree);
    assert!(mem.holds(q, arb::tree::NodeId(0)));
    assert_eq!(mem.extent(q).count(), 1);

    let par = arb::core::evaluate_tree_parallel(&prog, &tree, 2);
    assert_eq!(par.stats.selected, 1);

    let dir = std::env::temp_dir().join(format!("arb-e43-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e43.arb");
    create_from_tree(&tree, &lt, &path).unwrap();
    let db = ArbDatabase::open(&path).unwrap();
    let disk = evaluate_disk(&prog, &db).unwrap();
    assert_eq!(disk.stats.selected, 1);
    assert!(disk.selected.contains(arb::tree::NodeId(0)));
    let _ = Atom::local(q);
}
