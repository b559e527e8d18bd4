//! The correctness oracle: what every query must select, worked out on
//! the in-memory tree by evaluators that share no code with the
//! two-phase engine — `arb_xpath::direct` (node-at-a-time XPath) and
//! `arb_tmnf::naive` (datalog fixpoint). Computed outside every timed
//! interval and outside `setup_s`.

use crate::inputs::{Lang, QuerySpec};
use crate::stats::mix;
use arb_tree::{BinaryTree, LabelTable, NodeSet};

/// What a query must select: how many nodes, and an order-independent
/// hash of which.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub count: u64,
    pub hash: u64,
}

impl Expected {
    /// Of a node set given as preorder indexes, in any order.
    pub fn of_nodes(nodes: impl IntoIterator<Item = u32>) -> Self {
        let mut e = Expected { count: 0, hash: 0 };
        for ix in nodes {
            e.count += 1;
            // A sum of well-mixed words does not cancel the way a sum
            // or xor of raw indexes would (`mix(0)` is 0, hence the 1).
            e.hash = e.hash.wrapping_add(mix(ix as u64 + 1));
        }
        e
    }

    pub fn of_set(set: &NodeSet) -> Self {
        Self::of_nodes(set.iter().map(|v| v.0))
    }
}

/// The nodes `q` selects on `tree`, by the independent evaluator of its
/// language.
pub fn select(q: &QuerySpec, tree: &BinaryTree, labels: &LabelTable) -> NodeSet {
    match q.lang {
        Lang::XPath => {
            let path = arb_xpath::parse_xpath(&q.text).expect("pool XPath parses");
            arb_xpath::DirectEvaluator::new(tree, labels).evaluate(&path)
        }
        Lang::Tmnf => {
            let mut labels = labels.clone();
            let ast = arb_tmnf::parse_program(&q.text, &mut labels).expect("pool TMNF parses");
            let prog = arb_tmnf::normalize(&ast);
            let query = prog.pred_id("QUERY").expect("pool programs define QUERY");
            arb_tmnf::naive::evaluate(&prog, tree).extent(query).clone()
        }
    }
}

pub fn expect(q: &QuerySpec, tree: &BinaryTree, labels: &LabelTable) -> Expected {
    Expected::of_set(&select(q, tree, labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_ignores_order_and_sees_membership() {
        let a = Expected::of_nodes([1, 5, 9]);
        assert_eq!(a, Expected::of_nodes([9, 1, 5]));
        assert_ne!(a, Expected::of_nodes([1, 5, 8]));
        assert_ne!(a, Expected::of_nodes([1, 5]));
        // Same count and same plain sum of indexes, different set.
        assert_ne!(Expected::of_nodes([1, 4]), Expected::of_nodes([2, 3]));
    }

    #[test]
    fn both_languages_agree_on_a_small_document() {
        let mut labels = LabelTable::new();
        let tree = arb_xml::str_to_tree("<r><a><b/></a><b>x</b></r>", &mut labels).unwrap();
        let xp = QuerySpec {
            lang: Lang::XPath,
            text: "//b".into(),
            nodes: false,
        };
        let tm = QuerySpec {
            lang: Lang::Tmnf,
            text: "QUERY :- V.Label[b];".into(),
            nodes: false,
        };
        let e = expect(&xp, &tree, &labels);
        assert_eq!(e.count, 2);
        assert_eq!(e, expect(&tm, &tree, &labels));
    }
}
