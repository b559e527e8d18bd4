//! # arb-bench
//!
//! Shared harness for the benchmark binaries that regenerate the paper's
//! tables and figures (see `DESIGN.md` for the experiment index):
//!
//! * `fig5` — database creation statistics (paper Figure 5),
//! * `fig6 [treebank|acgt-flat|acgt-infix|all]` — the three benchmark
//!   families of paper Figure 6,
//! * `baseline` — two-phase automata vs. naive datalog vs. direct XPath,
//! * `multiquery` — several queries in one program (paper §7),
//! * `parallel` — parallel bottom-up evaluation on balanced trees (§6.2),
//! * `ablation` — memoization and residual-program-size ablations (also
//!   asserts the "no hash tables" configuration keeps the δ tables
//!   empty),
//! * `regress` — regression tracking against the committed baselines in
//!   `crates/bench/baselines/regress.txt` (`--check` in nightly CI;
//!   `--write` after an intentional behavior change). Pinned workloads,
//!   exact comparison for deterministic counters, 3x budget for times.
//!
//! The criterion benches (`cargo bench -p arb-bench --bench <name>`):
//! `interning` (state-table pressure of the automata hot path: phase
//! sweeps + isolated interner replay on treebank/ACGT), `ltur`,
//! `storage`, `twophase`, `xpath`.
//!
//! Scaling: the paper's databases are large (up to 300M nodes). The
//! harness defaults to laptop/CI-friendly sizes and scales up via
//! environment variables:
//!
//! * `ARB_ACGT_LOG2` — ACGT sequence length is `2^k − 1` (default 17;
//!   paper: 25),
//! * `ARB_TREEBANK_ELEMS` — treebank element-node target (default
//!   100_000; paper: 2_447_728),
//! * `ARB_SWISSPROT_ENTRIES` — Swissprot entries (default 5_000),
//! * `ARB_QUERIES` — random queries per size row (default 5; paper: 25),
//! * `ARB_SIZES` — `lo..=hi` query-size range (default `5..=15`).

use arb_datagen::{acgt, queries::RandomPathQuery, swissprot, treebank};
use arb_engine::evaluate_disk;
use arb_storage::{ArbDatabase, CreationStats};
use arb_tmnf::{normalize, parse_program, CoreProgram};
use arb_tree::{BinaryTree, LabelTable};
use std::path::PathBuf;

/// Reads a `usize` environment knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The query-size range (paper: 5..=15).
pub fn size_range() -> (usize, usize) {
    match std::env::var("ARB_SIZES") {
        Ok(v) => {
            let parts: Vec<&str> = v.split("..=").collect();
            match parts.as_slice() {
                [lo, hi] => (lo.parse().unwrap_or(5), hi.parse().unwrap_or(15)),
                _ => (5, 15),
            }
        }
        Err(_) => (5, 15),
    }
}

/// Directory for benchmark databases (kept across runs).
pub fn data_dir() -> PathBuf {
    let dir = std::env::var("ARB_DATA_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("arb-bench-data"));
    std::fs::create_dir_all(&dir).expect("create data dir");
    dir
}

/// A generated benchmark database: on-disk `.arb` plus its label table.
pub struct BenchDb {
    /// Opened database.
    pub db: ArbDatabase,
    /// Label table (queries intern against a clone of this).
    pub labels: LabelTable,
    /// Human-readable name.
    pub name: String,
    /// Where the `.arb` file lives (the resident-server benches re-open
    /// it by path).
    pub path: PathBuf,
}

fn materialize(name: &str, tree: &BinaryTree, labels: &LabelTable) -> BenchDb {
    materialize_as(name, tree, labels, arb_storage::FormatVersion::default())
}

/// Like the private `materialize` but pinning the on-disk format (the storage
/// format benches compare v1 against v2 on identical trees). A stale or
/// corrupt cached file (v2 is variable-size, so a length check can't
/// decide freshness) is detected by opening it and comparing node count
/// and format; mismatch or open failure triggers recreation.
pub fn materialize_as(
    name: &str,
    tree: &BinaryTree,
    labels: &LabelTable,
    format: arb_storage::FormatVersion,
) -> BenchDb {
    let path = data_dir().join(format!("{name}-{format}.arb"));
    let fresh = match ArbDatabase::open(&path) {
        Ok(db) => {
            db.node_count() as usize != tree.len()
                || db.format_version() != expected_version(format)
        }
        Err(_) => true,
    };
    if fresh {
        arb_storage::create_from_tree_with(tree, labels, &path, format).expect("create database");
    }
    BenchDb {
        db: ArbDatabase::open(&path).expect("open database"),
        labels: labels.clone(),
        name: name.to_string(),
        path,
    }
}

fn expected_version(format: arb_storage::FormatVersion) -> u8 {
    match format {
        arb_storage::FormatVersion::V1 => 1,
        arb_storage::FormatVersion::V2 => 2,
    }
}

/// The synthetic Treebank database (see DESIGN.md substitutions).
pub fn treebank_db() -> BenchDb {
    let elems = env_usize("ARB_TREEBANK_ELEMS", 100_000);
    let mut labels = LabelTable::new();
    let tree = treebank::treebank_tree(
        &treebank::TreebankConfig {
            target_elems: elems,
            seed: 0x7133,
            filler_tags: 246,
        },
        &mut labels,
    );
    materialize(&format!("treebank-{elems}"), &tree, &labels)
}

/// ACGT-flat (paper §6.1), scaled by `ARB_ACGT_LOG2`.
pub fn acgt_flat_db() -> BenchDb {
    let log2 = env_usize("ARB_ACGT_LOG2", 17) as u32;
    let seq = acgt::random_acgt(log2, 0xD2A);
    let mut labels = LabelTable::new();
    let tree = acgt::acgt_flat_tree(&seq, &mut labels);
    materialize(&format!("acgt-flat-{log2}"), &tree, &labels)
}

/// ACGT-infix (paper §6.1), scaled by `ARB_ACGT_LOG2`.
pub fn acgt_infix_db() -> BenchDb {
    let log2 = env_usize("ARB_ACGT_LOG2", 17) as u32;
    let seq = acgt::random_acgt(log2, 0xD2A);
    let mut labels = LabelTable::new();
    let tree = acgt::acgt_infix_tree(&seq, &mut labels);
    materialize(&format!("acgt-infix-{log2}"), &tree, &labels)
}

/// The synthetic Swissprot tree (Figure 5 only).
pub fn swissprot_tree_and_labels() -> (BinaryTree, LabelTable) {
    let entries = env_usize("ARB_SWISSPROT_ENTRIES", 5_000);
    let mut labels = LabelTable::new();
    let tree = swissprot::swissprot_tree(
        &swissprot::SwissprotConfig {
            entries,
            seed: 0x5072,
        },
        &mut labels,
    );
    (tree, labels)
}

/// Compiles a random path query against a database's label space.
pub fn compile_query(q: &RandomPathQuery, r: &str, labels: &mut LabelTable) -> CoreProgram {
    let src = q.to_program(r);
    let ast = parse_program(&src, labels).expect("generated query parses");
    let mut prog = normalize(&ast);
    let qp = prog.pred_id("QUERY").expect("QUERY head");
    prog.add_query_pred(qp);
    prog
}

/// One Figure-6 row: averages over a batch of queries on a disk database.
pub struct Fig6Row {
    /// Query size (column 1).
    pub size: usize,
    /// Averaged statistics.
    pub idb: f64,
    /// Average rule count.
    pub rules: f64,
    /// Average phase-1 seconds.
    pub t1: f64,
    /// Average phase-1 transitions.
    pub tr1: f64,
    /// Average phase-2 seconds.
    pub t2: f64,
    /// Average phase-2 transitions.
    pub tr2: f64,
    /// Average total seconds.
    pub total: f64,
    /// Average selected node count.
    pub selected: f64,
    /// Average memory KiB.
    pub mem_kib: f64,
}

impl Fig6Row {
    /// The Figure 6 header.
    pub fn header() -> &'static str {
        " size  |IDB|    |P|     t1(s)     trans1     t2(s)     trans2   total(s)    selected   mem(KiB)"
    }

    /// Formats like a paper row.
    pub fn display(&self) -> String {
        format!(
            "{:>5} {:>6.1} {:>6.1} {:>9.3} {:>10.1} {:>9.3} {:>10.1} {:>10.3} {:>11.1} {:>10.1}",
            self.size,
            self.idb,
            self.rules,
            self.t1,
            self.tr1,
            self.t2,
            self.tr2,
            self.total,
            self.selected,
            self.mem_kib
        )
    }
}

/// Runs one row: `count` random queries of `size` with step expression
/// `r` over `alphabet` against the database.
pub fn fig6_row(
    bench: &BenchDb,
    size: usize,
    count: usize,
    alphabet: &[&str],
    shape: arb_datagen::RegexShape,
    r: &str,
    seed: u64,
) -> Fig6Row {
    let batch = RandomPathQuery::batch(count, size, alphabet, shape, seed + size as u64);
    let mut acc = Fig6Row {
        size,
        idb: 0.0,
        rules: 0.0,
        t1: 0.0,
        tr1: 0.0,
        t2: 0.0,
        tr2: 0.0,
        total: 0.0,
        selected: 0.0,
        mem_kib: 0.0,
    };
    for q in &batch {
        let mut labels = bench.labels.clone();
        let prog = compile_query(q, r, &mut labels);
        let outcome = evaluate_disk(&prog, &bench.db).expect("evaluation");
        let s = &outcome.stats;
        acc.idb += s.idb_count as f64;
        acc.rules += s.rule_count as f64;
        acc.t1 += s.phase1_time.as_secs_f64();
        acc.tr1 += s.phase1_transitions as f64;
        acc.t2 += s.phase2_time.as_secs_f64();
        acc.tr2 += s.phase2_transitions as f64;
        acc.total += s.total_time().as_secs_f64();
        acc.selected += s.selected as f64;
        acc.mem_kib += s.memory_bytes as f64 / 1024.0;
    }
    let n = batch.len() as f64;
    acc.idb /= n;
    acc.rules /= n;
    acc.t1 /= n;
    acc.tr1 /= n;
    acc.t2 /= n;
    acc.tr2 /= n;
    acc.total /= n;
    acc.selected /= n;
    acc.mem_kib /= n;
    acc
}

/// Serializes a tree to an XML file (used by `fig5` so database creation
/// is measured end-to-end from XML, as in the paper).
pub fn tree_to_xml_file(tree: &BinaryTree, labels: &LabelTable, path: &PathBuf) {
    let f = std::fs::File::create(path).expect("create xml");
    let mut w = std::io::BufWriter::with_capacity(1 << 20, f);
    arb_xml::write_tree(tree, labels, &mut w).expect("write xml");
    use std::io::Write;
    w.flush().expect("flush xml");
}

/// Reports a creation-statistics table row after building `name.arb`
/// from an XML serialization of the tree.
pub fn fig5_entry(name: &str, tree: &BinaryTree, labels: &LabelTable) -> CreationStats {
    let dir = data_dir();
    let xml_path = dir.join(format!("{name}.xml"));
    tree_to_xml_file(tree, labels, &xml_path);
    let arb_path = dir.join(format!("{name}-fig5.arb"));
    let reader = std::io::BufReader::with_capacity(
        1 << 20,
        std::fs::File::open(&xml_path).expect("open xml"),
    );
    let (stats, _labels) =
        arb_storage::create_from_xml(reader, &arb_xml::XmlConfig::default(), &arb_path)
            .expect("create database");
    stats
}
