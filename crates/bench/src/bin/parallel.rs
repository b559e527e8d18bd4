//! Paper §6.2: "our techniques provide an algorithm for parallel regular
//! expression matching which runs in parallel time O(log n)" — requires
//! the balanced (infix) tree model. This harness sweeps worker counts on
//! ACGT-infix and shows the flat tree admits no speedup (no balanced
//! frontier exists).

use arb_bench as bench;
use arb_core::{evaluate_tree, evaluate_tree_parallel};
use arb_datagen::queries::{RandomPathQuery, R_INFIX};
use arb_datagen::RegexShape;
use std::time::Instant;

fn main() {
    let db = bench::acgt_infix_db();
    let tree = db.db.to_tree().expect("materialize");
    println!(
        "parallel bottom-up evaluation on acgt-infix ({} nodes, in memory)\n",
        tree.len()
    );
    let q = RandomPathQuery::batch(1, 8, &["A", "C", "G", "T"], RegexShape::Tags, 5)
        .pop()
        .expect("one query");
    let mut labels = db.labels.clone();
    let prog = bench::compile_query(&q, R_INFIX, &mut labels);

    let t = Instant::now();
    let seq = evaluate_tree(&prog, &tree);
    let t_seq = t.elapsed();
    println!(
        "sequential: {:>8.2} ms  (selected {})",
        t_seq.as_secs_f64() * 1e3,
        seq.stats.selected
    );

    for threads in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let par = evaluate_tree_parallel(&prog, &tree, threads);
        let el = t.elapsed();
        assert_eq!(par.stats.selected, seq.stats.selected);
        println!(
            "threads {:>2}: {:>8.2} ms  (speedup {:>5.2}x, phase1 {:>6.2} ms)",
            threads,
            el.as_secs_f64() * 1e3,
            t_seq.as_secs_f64() / el.as_secs_f64(),
            par.stats.phase1_time.as_secs_f64() * 1e3,
        );
    }
}
