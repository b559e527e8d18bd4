//! Algorithm 4.6 over in-memory trees: the raw-program fronts of the
//! evaluation [`kernel`] for harnesses and reference
//! suites. Product code evaluates through `arb-engine`'s `Session`; these
//! exist because a raw [`CoreProgram`] routed through a query batch would
//! be re-merged (re-interning its EDB atoms) and drift the pinned
//! transition and interning counts.

use crate::kernel::{self, Demand, VecStore, Visit};
use crate::lazy::{AutomataPool, QueryAutomata};
use crate::stats::EvalStats;
use arb_logic::{Atom, PredSetId, ProgramId};
use arb_tmnf::{CoreProgram, PredId};
use arb_tree::{BinaryTree, NodeId, NodeSet};

/// Result of a two-phase evaluation on an in-memory tree: the full
/// predicate annotation of every node (as interned predicate-set ids)
/// plus statistics.
pub struct TreeEvalResult {
    /// The automata (interners allow decoding the per-node states).
    pub automata: QueryAutomata,
    /// ρ_A: phase-1 state (residual program id) per node, preorder.
    pub rho_a: Vec<ProgramId>,
    /// ρ_B: phase-2 state (true-predicate set id) per node, preorder.
    pub rho_b: Vec<PredSetId>,
    /// Statistics (times, transitions, memory).
    pub stats: EvalStats,
}

impl TreeEvalResult {
    /// True if predicate `p` holds at node `v` (Theorem 4.1).
    pub fn holds(&self, p: PredId, v: NodeId) -> bool {
        self.automata
            .predsets
            .get(self.rho_b[v.ix()])
            .contains(Atom::local(p))
    }

    /// The set of nodes where predicate `p` holds.
    pub fn extent(&self, p: PredId) -> NodeSet {
        let mut s = NodeSet::new(self.rho_b.len());
        for (ix, &ps) in self.rho_b.iter().enumerate() {
            if self.automata.predsets.get(ps).contains(Atom::local(p)) {
                s.insert(NodeId(ix as u32));
            }
        }
        s
    }

    /// All predicates holding at a node.
    pub fn preds_at(&self, v: NodeId) -> Vec<PredId> {
        self.automata
            .predsets
            .get(self.rho_b[v.ix()])
            .atoms()
            .iter()
            .map(|a| a.pred())
            .collect()
    }
}

/// Evaluates a strict TMNF program on an in-memory tree by Algorithm 4.6
/// with a fresh automata pair; `stats.selected` counts the nodes any
/// query predicate selects.
///
/// # Panics
///
/// On an empty tree (there is no root to ask about).
pub fn evaluate_tree(prog: &CoreProgram, tree: &BinaryTree) -> TreeEvalResult {
    evaluate_tree_parallel(prog, tree, 1)
}

/// [`evaluate_tree`] with the bottom-up fold sharded over `threads`
/// workers on a subtree frontier (the paper's §6.2 case study: on
/// balanced trees this is the `O(log n)` parallel regular-expression
/// matching; degenerate right-deep trees admit no frontier and fold as
/// one window). Identical state assignments: worker states are
/// re-interned into the returned master automata.
pub fn evaluate_tree_parallel(
    prog: &CoreProgram,
    tree: &BinaryTree,
    threads: usize,
) -> TreeEvalResult {
    let n = tree.len();
    let (mut rho_a, mut rho_b) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut record = |v: &Visit<'_>| {
        rho_a.push(v.rho_a);
        rho_b.push(v.rho_b);
    };
    let query: Vec<Atom> = prog.query_preds().iter().map(|&p| Atom::local(p)).collect();
    let run = kernel::evaluate(
        prog,
        tree,
        &VecStore::new(n as u32),
        &[query],
        Demand::Stream(&mut record),
        threads,
        &AutomataPool::new(),
    )
    .expect("in-memory evaluation of a non-empty preorder tree");
    TreeEvalResult {
        automata: run.automata,
        rho_a,
        rho_b,
        stats: run.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_tmnf::{naive, normalize, parse_program, programs};
    use arb_tree::{infix::infix_tree, LabelId, LabelTable, TreeBuilder};

    /// Cross-checks the two-phase result against the naive fixpoint on
    /// every (predicate, node) pair — Theorem 4.1.
    fn assert_matches_naive(src: &str, build: impl FnOnce(&mut LabelTable) -> BinaryTree) {
        let mut lt = LabelTable::new();
        let ast = parse_program(src, &mut lt).unwrap();
        let prog = normalize(&ast);
        let tree = build(&mut lt);
        let two = evaluate_tree(&prog, &tree);
        let oracle = naive::evaluate(&prog, &tree);
        for p in 0..prog.pred_count() as PredId {
            for v in tree.nodes() {
                assert_eq!(
                    two.holds(p, v),
                    oracle.holds(p, v),
                    "pred {} at node {}",
                    prog.pred_name(p),
                    v.0
                );
            }
        }
    }

    #[test]
    fn example_4_3_matches_naive() {
        assert_matches_naive(programs::EXAMPLE_4_3, |lt| {
            let a = lt.intern("a").unwrap();
            let mut b = TreeBuilder::new();
            b.open(a);
            b.open(a);
            b.open(a);
            b.close();
            b.close();
            b.close();
            b.finish().unwrap()
        });
    }

    #[test]
    fn even_odd_matches_naive() {
        assert_matches_naive(programs::EVEN_ODD, |lt| {
            let a = lt.get("a").unwrap_or_else(|| lt.intern("a").unwrap());
            let b = lt.intern("b").unwrap();
            let mut tb = TreeBuilder::new();
            tb.open(b);
            tb.leaf(a);
            tb.open(b);
            tb.leaf(a);
            tb.leaf(a);
            tb.leaf(b);
            tb.close();
            tb.open(a);
            tb.leaf(a);
            tb.close();
            tb.close();
            tb.finish().unwrap()
        });
    }

    #[test]
    fn upward_and_sideways_rules_match_naive() {
        assert_matches_naive(
            "Mark :- V.Label[m];\n\
             Up :- Mark.invNextSibling*.invFirstChild;\n\
             Side :- Mark.NextSibling+;\n\
             Q :- Up, Side;",
            |lt| {
                let m = lt.get("m").unwrap_or_else(|| lt.intern("m").unwrap());
                let x = lt.intern("x").unwrap();
                let mut tb = TreeBuilder::new();
                tb.open(x);
                tb.leaf(m);
                tb.open(x);
                tb.leaf(x);
                tb.leaf(m);
                tb.close();
                tb.leaf(x);
                tb.close();
                tb.finish().unwrap()
            },
        );
    }

    /// A warm automata (reset between runs) must reproduce the fresh
    /// run's state assignments exactly, at zero lazily computed
    /// transitions the second time.
    #[test]
    fn warm_automata_rerun_is_identical() {
        let mut lt = LabelTable::new();
        let ast = parse_program(programs::EVEN_ODD, &mut lt).unwrap();
        let prog = normalize(&ast);
        let a = lt.get("a").unwrap_or_else(|| lt.intern("a").unwrap());
        let b = lt.intern("b").unwrap();
        let mut tb = TreeBuilder::new();
        tb.open(b);
        tb.leaf(a);
        tb.open(b);
        tb.leaf(a);
        tb.leaf(b);
        tb.close();
        tb.close();
        let tree = tb.finish().unwrap();

        let pool = AutomataPool::new();
        let run = || {
            let mut ids = Vec::new();
            let mut record = |v: &Visit<'_>| ids.push((v.rho_a, v.rho_b));
            let run = kernel::evaluate(
                &prog,
                &tree,
                &VecStore::new(tree.len() as u32),
                &[],
                Demand::Stream(&mut record),
                1,
                &pool,
            )
            .unwrap();
            pool.put(run.automata);
            (ids, run.stats)
        };
        let (cold_ids, cold) = run();
        assert!(cold.phase1_transitions > 0);
        assert_eq!((cold.automata_builds, cold.automata_reused), (1, 0));

        let (warm_ids, warm) = run();
        assert_eq!(warm_ids, cold_ids);
        assert_eq!(warm.phase1_transitions, 0, "fully memoized rerun");
        assert_eq!(warm.phase2_transitions, 0);
        assert_eq!((warm.automata_builds, warm.automata_reused), (0, 1));
        assert_eq!((pool.builds(), pool.reused()), (1, 1));
    }

    #[test]
    fn selected_count_and_stats() {
        let mut lt = LabelTable::new();
        let ast = parse_program("QUERY :- V.Label[a], Leaf;", &mut lt).unwrap();
        let mut prog = normalize(&ast);
        prog.add_query_pred(prog.pred_id("QUERY").unwrap());
        let a = lt.get("a").unwrap();
        let b = lt.intern("b").unwrap();
        let mut tb = TreeBuilder::new();
        tb.open(b);
        tb.leaf(a);
        tb.leaf(b);
        tb.leaf(a);
        tb.close();
        let tree = tb.finish().unwrap();
        let res = evaluate_tree(&prog, &tree);
        assert_eq!(res.stats.selected, 2);
        assert_eq!(res.stats.nodes, 4);
        assert!(res.stats.phase1_transitions > 0);
        assert!(res.stats.bu_states > 0);
        let q = prog.pred_id("QUERY").unwrap();
        assert_eq!(res.extent(q).count(), 2);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut lt = LabelTable::new();
        let root = lt.intern("r").unwrap();
        let seq: Vec<LabelId> = (0..1023u32)
            .map(|i| LabelId(b"ACGT"[(i as usize * 7 + 3) % 4] as u16))
            .collect();
        let tree = infix_tree(root, &seq);
        let src = format!(
            "QUERY :- V.Label['A'].{}.Label['C'];",
            arb_tmnf::programs::INFIX_PREVIOUS
        );
        let ast = parse_program(&src, &mut lt).unwrap();
        let mut prog = normalize(&ast);
        prog.add_query_pred(prog.pred_id("QUERY").unwrap());

        let seq_res = evaluate_tree(&prog, &tree);
        let par_res = evaluate_tree_parallel(&prog, &tree, 4);
        assert_eq!(seq_res.stats.selected, par_res.stats.selected);
        for v in tree.nodes() {
            assert_eq!(seq_res.preds_at(v), par_res.preds_at(v), "node {}", v.0);
        }

        // Stats compatibility: workers recompute transitions the
        // sequential run memoizes once, so the parallel totals can only
        // be at least the sequential ones — but they must stay within
        // the (workers + master) × sequential envelope, and the
        // structural columns must agree exactly. A `max`-merge of worker
        // counts violated the lower bound.
        for (seq_t, par_t) in [
            (
                seq_res.stats.phase1_transitions,
                par_res.stats.phase1_transitions,
            ),
            (
                seq_res.stats.phase2_transitions,
                par_res.stats.phase2_transitions,
            ),
        ] {
            assert!(
                par_t >= seq_t,
                "parallel transitions undercounted: {par_t} < sequential {seq_t}"
            );
            assert!(
                par_t <= seq_t * 6,
                "parallel transitions beyond the worker envelope: {par_t} vs {seq_t}"
            );
        }
        assert_eq!(seq_res.stats.nodes, par_res.stats.nodes);
        assert_eq!(seq_res.stats.idb_count, par_res.stats.idb_count);
        assert_eq!(seq_res.stats.rule_count, par_res.stats.rule_count);
    }

    #[test]
    fn parallel_on_tiny_tree_falls_back() {
        let mut lt = LabelTable::new();
        let a = lt.intern("a").unwrap();
        let mut b = TreeBuilder::new();
        b.open(a);
        b.leaf(a);
        b.close();
        let tree = b.finish().unwrap();
        let ast = parse_program("Q :- Root;", &mut lt).unwrap();
        let prog = normalize(&ast);
        let res = evaluate_tree_parallel(&prog, &tree, 8);
        assert_eq!(res.rho_b.len(), 2);
    }
}
