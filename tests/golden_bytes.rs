//! The on-disk layouts are formats: these hashes pin the exact bytes of a
//! v2 `.arb`, the same file after an in-place splice, the blocked `.sta`
//! stream of a query on it, and that stream after `rewrite_blocked`. A
//! change to how any of the four is assembled must leave every byte
//! where it was; a deliberate format change updates the constants here
//! and says why.

use arb::core::evaluate_tree;
use arb::datagen::{treebank_tree, TreebankConfig};
use arb::storage::stafile::StateFileWriter;
use arb::storage::{
    create_from_tree_with, rewrite_blocked, ArbUpdater, FormatVersion, NodeRecord, StaFormat,
};
use arb::tree::{LabelId, LabelTable};
use arb::Database;
use std::path::{Path, PathBuf};

/// `(length, FNV-1a 64)` of each artifact, as written when each layout
/// still assembled its own frames and indexes.
const GOLDEN_ARB: (u64, u64) = (220_306, 3_462_980_964_868_371_227);
const GOLDEN_ARB_SPLICED: (u64, u64) = (220_300, 9_848_987_898_659_418_954);
const GOLDEN_STA: (u64, u64) = (15_201, 5_867_699_797_027_043_463);
const GOLDEN_STA_REWRITTEN: (u64, u64) = (15_201, 2_396_454_468_601_411_758);

fn fingerprint(path: &Path) -> (u64, u64) {
    let bytes = std::fs::read(path).expect("read artifact");
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (bytes.len() as u64, hash)
}

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("arb-golden-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("tmp dir");
    d.join(name)
}

/// Phase-1 states of `//NP//VP` on the database at `arb`, in preorder.
fn phase1_states(arb: &Path) -> Vec<u32> {
    let mut db = Database::open_arb(arb).expect("open through the engine");
    let query = db.compile_xpath("//NP//VP").expect("compile");
    let tree = db.to_tree().expect("materialize");
    let run = evaluate_tree(query.program(), &tree);
    run.rho_a.iter().map(|s| s.0).collect()
}

#[test]
fn layouts_keep_their_bytes() {
    let mut labels = LabelTable::new();
    let tree = treebank_tree(
        &TreebankConfig {
            target_elems: 6_000,
            seed: 11,
            filler_tags: 40,
        },
        &mut labels,
    );
    let arb = tmp("golden.arb");
    create_from_tree_with(&tree, &labels, &arb, FormatVersion::V2).expect("create");
    let created = fingerprint(&arb);

    let sta = tmp("golden.sta");
    let states = phase1_states(&arb);
    let mut w = StateFileWriter::create(&sta, states.len() as u64, StaFormat::Blocked)
        .expect("create the state stream");
    for &s in states.iter().rev() {
        w.write_state(s).expect("write a state");
    }
    w.finish().expect("finish the state stream");
    let streamed = fingerprint(&sta);

    // Splice a two-record fragment over the first inner node past the
    // middle, so the update retains the leading record blocks and
    // rewrites the rest.
    let mut updater = ArbUpdater::open(&arb).expect("open for update");
    let n = updater.node_count();
    assert!(n > 2 * 32 * 1024, "the document spans three record blocks");
    let ends = updater.extents().0;
    let at = (n / 2..n)
        .find(|&v| ends[v as usize] > v + 1)
        .expect("an inner node past the middle");
    let record = |label: u16, has_first: bool| NodeRecord {
        label: LabelId(label),
        has_first,
        has_second: false,
    };
    let report = updater
        .splice_subtree(at, &[record(1, true), record(2, false)])
        .expect("splice");
    let spliced = fingerprint(&arb);

    // The stream of the next epoch: unchanged below the dirty point.
    let next = phase1_states(&arb);
    let from = report.plan.dirty_from() as u64;
    let rewrite = rewrite_blocked(&sta, &next, from).expect("rewrite");
    assert!(rewrite.retained_blocks >= 1, "{rewrite:?}");
    let rewritten = fingerprint(&sta);

    assert_eq!(
        [created, spliced, streamed, rewritten],
        [
            GOLDEN_ARB,
            GOLDEN_ARB_SPLICED,
            GOLDEN_STA,
            GOLDEN_STA_REWRITTEN
        ]
    );
}
