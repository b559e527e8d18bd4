//! The secondary-storage side of the evaluation kernel: the `.arb` scans
//! as a [`RecordSource`], the temporary `.sta` file as a [`StateStore`].
//!
//! [`arb_core::kernel`] holds the algorithm — one backward fold, one
//! forward fold, sharded over a subtree frontier when asked to. This
//! module only says where its records and states live on disk:
//!
//! * [`DiskSource`] opens backward and forward (range) scans of an
//!   [`ArbDatabase`] — slabs of raw v1 records or decoded v2 blocks, a
//!   run at a time — and plans frontiers from the database's cached
//!   subtree extents, borrowed. Main memory holds only the automata, one
//!   run and a stack bounded by the XML depth, the paper's three
//!   desiderata of Section 1.1.
//! * [`StaStore`] streams ρ_A through a uniquely named scratch file
//!   (paper footnote 12), deleted when the run ends: by default the
//!   block-compressed layout ([`StaFormat::Blocked`]), or the paper's
//!   bare 4 bytes per node ([`StaFormat::Flat`]). A one-window run writes
//!   the single segment `[0, n)`; a sharded run's workers write disjoint
//!   segments of one shared stream and the spine is patched in.
//!
//! A [`Session`](crate::Session) picks the pairing from its
//! [`Database`]'s backing (memory databases pair the tree with
//! [`VecStore`]); the two raw-program fronts [`evaluate_disk`] and
//! [`evaluate_disk_parallel`] serve harnesses and reference suites.

use crate::database::{Database, EngineError, MemoryDoc};
use crate::QueryOutcome;
use arb_core::kernel::{
    self, Demand, Evaluation, NoStore, RecordSource, StateReader, StateStore, StateWriter, VecStore,
};
use arb_core::{AutomataPool, SubtreeIndex};
use arb_logic::{Atom, ProgramId};
use arb_storage::stafile::{self, StateFilePatcher, StateFileReader, StateFileWriter};
use arb_storage::{ArbDatabase, BackwardScan, ExtentVecs, ForwardScan, ScratchPath, StaFormat};
use arb_tmnf::CoreProgram;
use arb_tree::traverse::{Preorder, ReversePreorder};
use arb_tree::{BinaryTree, NodeInfo};
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// An `.arb` database as the kernel's record source.
pub struct DiskSource<'d> {
    db: &'d ArbDatabase,
    /// The extents this source planned on: a snapshot of the handle's
    /// cache, pinned so that an update installing fresh extents never
    /// pulls the rug from a plan in flight.
    extents: OnceLock<Arc<ExtentVecs>>,
}

impl<'d> DiskSource<'d> {
    /// The record source over `db`.
    pub fn new(db: &'d ArbDatabase) -> Self {
        DiskSource {
            db,
            extents: OnceLock::new(),
        }
    }
}

impl RecordSource for DiskSource<'_> {
    type Backward<'a>
        = BackwardScan<File>
    where
        Self: 'a;
    type Forward<'a>
        = ForwardScan<File>
    where
        Self: 'a;

    fn node_count(&self) -> u32 {
        self.db.node_count()
    }

    fn backward(&self, lo: u32, hi: u32) -> io::Result<BackwardScan<File>> {
        self.db.backward_scan_range(lo, hi)
    }

    fn forward(&self, lo: u32, hi: u32) -> io::Result<ForwardScan<File>> {
        self.db.forward_scan_range(lo, hi)
    }

    fn record_at(&self, ix: u32) -> io::Result<NodeInfo> {
        Ok(self.db.record_at(ix)?.info(ix))
    }

    /// Borrowed from the database's cached extents: one metadata pass —
    /// no automata work — on the handle's first sharded run, free
    /// afterwards.
    fn subtree_index(&self) -> io::Result<(SubtreeIndex<'_>, u64)> {
        let scans = u64::from(!self.db.extents_cached());
        let x = match self.extents.get() {
            Some(x) => x,
            None => {
                let x = self.db.subtree_extents()?;
                self.extents.get_or_init(|| x)
            }
        };
        Ok((SubtreeIndex::from_parts(&x.ends[..], &x.kinds[..]), scans))
    }

    fn format_version(&self) -> u8 {
        self.db.format_version()
    }

    fn blocks_decoded(&self) -> u64 {
        self.db.blocks_decoded()
    }
}

/// A memory backing's document as the kernel's record source: the tree's
/// own streams, and the extents cached beside it.
impl RecordSource for MemoryDoc {
    type Backward<'a> = ReversePreorder<'a, BinaryTree>;
    type Forward<'a> = Preorder<'a, BinaryTree>;

    fn node_count(&self) -> u32 {
        self.tree.node_count()
    }

    fn backward(&self, lo: u32, hi: u32) -> io::Result<Self::Backward<'_>> {
        self.tree.backward(lo, hi)
    }

    fn forward(&self, lo: u32, hi: u32) -> io::Result<Self::Forward<'_>> {
        self.tree.forward(lo, hi)
    }

    fn record_at(&self, ix: u32) -> io::Result<NodeInfo> {
        self.tree.record_at(ix)
    }

    fn subtree_index(&self) -> io::Result<(SubtreeIndex<'_>, u64)> {
        let (ends, kinds) = self.extents()?;
        Ok((SubtreeIndex::from_parts(&ends[..], &kinds[..]), 0))
    }
}

/// A `.sta` file of `n` states at `path` as the kernel's state store.
pub struct StaStore<'p> {
    path: &'p Path,
    format: StaFormat,
    n: u32,
}

impl<'p> StaStore<'p> {
    /// A store streaming `n` states through `path` in `format`.
    pub fn new(path: &'p Path, format: StaFormat, n: u32) -> Self {
        StaStore { path, format, n }
    }
}

/// [`StateFileWriter`] behind the kernel's writer trait.
pub struct StaWriter(StateFileWriter);

impl StateWriter for StaWriter {
    fn write_run(&mut self, states: &[u32]) -> io::Result<()> {
        self.0.write_states(states)
    }

    fn finish(self) -> io::Result<u64> {
        self.0.finish()
    }
}

/// [`StateFileReader`] behind the kernel's reader trait.
pub struct StaReader(StateFileReader);

impl StateReader for StaReader {
    fn read_run(&mut self, out: &mut [u32]) -> io::Result<usize> {
        self.0.read_states(out)
    }

    fn decoded_bytes(&self) -> u64 {
        self.0.decoded_bytes()
    }
}

impl StateStore for StaStore<'_> {
    type Writer<'a>
        = StaWriter
    where
        Self: 'a;
    type Reader<'a>
        = StaReader
    where
        Self: 'a;

    fn allocate(&self, n: u32) -> io::Result<u64> {
        stafile::allocate(self.path, n as u64, self.format)
    }

    fn writer(&self, lo: u32, hi: u32) -> io::Result<StaWriter> {
        Ok(StaWriter(if (lo, hi) == (0, self.n) {
            StateFileWriter::create(self.path, self.n as u64, self.format)?
        } else {
            StateFileWriter::segment(self.path, lo as u64, hi as u64, self.format)?
        }))
    }

    fn patch(&self, states: &[(u32, ProgramId)]) -> io::Result<u64> {
        let mut p = StateFilePatcher::open(self.path, self.format)?;
        for &(ix, s) in states {
            p.write_state_at(ix as u64, s.0)?;
        }
        p.finish()
    }

    fn reader(&self, lo: u32) -> io::Result<StaReader> {
        Ok(StaReader(StateFileReader::open_at(
            self.path,
            lo as u64,
            self.format,
        )?))
    }
}

/// Runs the kernel over a [`Database`]'s backing: `.arb` scans paired
/// with a scratch `.sta` file in `format` on disk, the tree paired with
/// a [`VecStore`] in memory, and no store at all for a verdict-only run.
/// The `.sta` scratch guard is returned alongside so a caller can keep
/// the stream (standing queries do); dropping it deletes the file.
pub(crate) fn run(
    db: &Database,
    prog: &CoreProgram,
    groups: &[Vec<Atom>],
    demand: Demand<'_>,
    threads: usize,
    format: StaFormat,
    pool: &AutomataPool,
) -> Result<(Evaluation, Option<ScratchPath>), EngineError> {
    let verdicts_only = matches!(demand, Demand::Verdicts);
    if let Some(doc) = db.as_memory() {
        let run = if verdicts_only {
            kernel::evaluate(prog, &*doc, &NoStore, groups, demand, threads, pool)?
        } else {
            let store = VecStore::new(doc.node_count());
            kernel::evaluate(prog, &*doc, &store, groups, demand, threads, pool)?
        };
        return Ok((run, None));
    }
    let d = db.as_disk().expect("a database is on disk or in memory");
    let source = DiskSource::new(d);
    if verdicts_only {
        let run = kernel::evaluate(prog, &source, &NoStore, groups, demand, threads, pool)?;
        return Ok((run, None));
    }
    let sta = d.scratch_sta();
    let store = StaStore::new(sta.path(), format, d.node_count());
    let run = kernel::evaluate(prog, &source, &store, groups, demand, threads, pool)?;
    Ok((run, Some(sta)))
}

/// Evaluates a raw TMNF program over a disk database by the two-phase
/// algorithm — the harness front of the kernel (product code prepares a
/// [`Session`](crate::Session)). The `.sta` layout follows
/// `ARB_STA_FORMAT`.
pub fn evaluate_disk(prog: &CoreProgram, db: &ArbDatabase) -> io::Result<QueryOutcome> {
    evaluate_disk_parallel(prog, db, 1)
}

/// [`evaluate_disk`] sharded over `threads` workers (paper §6.2 on disk:
/// per-window range scans and `.sta` segments). Identical results;
/// `threads <= 1` or a document with no useful frontier (tiny or
/// degenerate right-deep) is the one-window plan.
pub fn evaluate_disk_parallel(
    prog: &CoreProgram,
    db: &ArbDatabase,
    threads: usize,
) -> io::Result<QueryOutcome> {
    let query: Vec<Atom> = prog.query_preds().iter().map(|&p| Atom::local(p)).collect();
    let sta = db.scratch_sta();
    let store = StaStore::new(sta.path(), StaFormat::from_env(), db.node_count());
    let mut run = kernel::evaluate(
        prog,
        &DiskSource::new(db),
        &store,
        &[query],
        Demand::Sets,
        threads,
        &AutomataPool::new(),
    )?;
    Ok(QueryOutcome {
        stats: run.stats,
        selected: run.sets.remove(0),
        per_pred_counts: run.counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_core::kernel::Visit;
    use arb_storage::create::create_from_xml;
    use arb_tmnf::{naive, normalize, parse_program};
    use arb_xml::XmlConfig;
    use std::io::Cursor;
    use std::path::PathBuf;

    fn mkdb(xml: &str, name: &str) -> ArbDatabase {
        let dir = std::env::temp_dir().join(format!("arb-eval-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let arb: PathBuf = dir.join(name);
        create_from_xml(Cursor::new(xml.as_bytes()), &XmlConfig::default(), &arb).unwrap();
        ArbDatabase::open(&arb).unwrap()
    }

    /// Disk evaluation must equal the in-memory naive fixpoint on every
    /// (pred, node) pair (Theorem 4.1 end-to-end, through the storage
    /// model).
    #[test]
    fn disk_matches_naive() {
        let xml = "<doc><sec><p>ab</p><p/></sec><sec>c</sec></doc>";
        let db = mkdb(xml, "m1.arb");
        let mut labels = db.labels().clone();
        let src = "InSec :- V.Label[sec].FirstChild.NextSibling*;\n\
                   CharNode :- Text, InSec;\n\
                   QUERY :- CharNode, CharNode;";
        let ast = parse_program(src, &mut labels).unwrap();
        let mut prog = normalize(&ast);
        prog.add_query_pred(prog.pred_id("QUERY").unwrap());

        let outcome = evaluate_disk(&prog, &db).unwrap();

        let tree = db.to_tree().unwrap();
        let oracle = naive::evaluate(&prog, &tree);
        let q = prog.pred_id("QUERY").unwrap();
        for v in tree.nodes() {
            assert_eq!(
                outcome.selected.contains(v),
                oracle.holds(q, v),
                "node {}",
                v.0
            );
        }
        // InSec covers only the *children* of sec elements; the only
        // character child of a sec is 'c' ('a','b' sit inside a p).
        assert_eq!(outcome.stats.selected, 1);
        assert_eq!(outcome.per_pred_counts, vec![1]);
        // Phase 2 consumed exactly one 4-byte state per node; the
        // encoded stream exists but its framing overhead dominates on a
        // document this tiny, so only positivity is asserted here.
        assert_eq!(outcome.stats.sta_decoded_bytes, outcome.stats.nodes * 4);
        assert!(outcome.stats.sta_encoded_bytes > 0);
    }

    /// `QUERY`-headed program compiled against `db`'s labels, with its
    /// query atoms as the kernel's one group.
    fn query(db: &ArbDatabase, src: &str) -> (CoreProgram, Vec<Vec<Atom>>) {
        let mut labels = db.labels().clone();
        let mut prog = normalize(&parse_program(src, &mut labels).unwrap());
        let q = prog.pred_id("QUERY").unwrap();
        prog.add_query_pred(q);
        (prog, vec![vec![Atom::local(q)]])
    }

    /// One kernel run over `db` with a scratch `.sta` store, streaming
    /// `(ix, flags[0])` per node.
    fn stream(
        db: &ArbDatabase,
        prog: &CoreProgram,
        groups: &[Vec<Atom>],
        threads: usize,
    ) -> (Evaluation, Vec<(u32, bool)>) {
        let mut seen = Vec::new();
        let mut hook = |v: &Visit<'_>| seen.push((v.ix, v.selected_by[0]));
        let sta = db.scratch_sta();
        let store = StaStore::new(sta.path(), StaFormat::from_env(), db.node_count());
        let run = kernel::evaluate(
            prog,
            &DiskSource::new(db),
            &store,
            groups,
            Demand::Stream(&mut hook),
            threads,
            &AutomataPool::new(),
        )
        .unwrap();
        (run, seen)
    }

    #[test]
    fn hook_sees_every_node_in_document_order() {
        let db = mkdb("<a><b/><c/></a>", "m2.arb");
        let (prog, groups) = query(&db, "QUERY :- Root;");
        let (_, seen) = stream(&db, &prog, &groups, 1);
        assert_eq!(seen, vec![(0, true), (1, false), (2, false)]);
    }

    /// A generated document big enough to admit a frontier (the frontier
    /// planner requires pieces of ≥ 512 nodes).
    fn balanced_db(name: &str) -> ArbDatabase {
        use std::fmt::Write;
        let mut xml = String::from("<r>");
        for i in 0..direct_children() {
            write!(xml, "<g{}>", i % 7).unwrap();
            for j in 0..40 {
                match (i + j) % 3 {
                    0 => write!(xml, "<a>t</a>").unwrap(),
                    1 => xml.push_str("<b/>"),
                    _ => write!(xml, "<c><a/></c>").unwrap(),
                }
            }
            xml.push_str(&format!("</g{}>", i % 7));
        }
        xml.push_str("</r>");
        mkdb(&xml, name)
    }

    fn direct_children() -> usize {
        100
    }

    /// The sharded evaluator is a drop-in replacement: identical
    /// selected sets, counts, and verdict-relevant state, with the
    /// transition totals within the worker envelope.
    #[test]
    fn sharded_matches_sequential() {
        let db = balanced_db("shard1.arb");
        assert!(db.node_count() > 4096, "document must admit a frontier");
        let mut labels = db.labels().clone();
        let src = "InG :- V.Label[g0].FirstChild.NextSibling*;\n\
                   QUERY :- V.Label[a], Leaf;\n\
                   QUERY :- InG, Text;";
        let ast = parse_program(src, &mut labels).unwrap();
        let mut prog = normalize(&ast);
        prog.add_query_pred(prog.pred_id("QUERY").unwrap());

        let seq = evaluate_disk(&prog, &db).unwrap();
        for threads in [2usize, 3, 8] {
            let par = evaluate_disk_parallel(&prog, &db, threads).unwrap();
            assert_eq!(
                par.selected.to_vec(),
                seq.selected.to_vec(),
                "threads {threads}"
            );
            assert_eq!(par.per_pred_counts, seq.per_pred_counts);
            assert_eq!(par.stats.selected, seq.stats.selected);
            assert_eq!(par.stats.nodes, seq.stats.nodes);
            assert!(par.stats.phase1_transitions >= seq.stats.phase1_transitions);
            assert!(par.stats.backward_scans > 1, "range scans are counted");
            // Sharded phase 2 reads only the workers' segments — the
            // spine states never leave memory — so it consumes at most
            // the sequential run's 4-bytes-per-node volume.
            assert_eq!(seq.stats.sta_decoded_bytes, seq.stats.nodes * 4);
            assert!(par.stats.sta_decoded_bytes > 0);
            assert!(par.stats.sta_decoded_bytes <= seq.stats.sta_decoded_bytes);
            assert!(par.stats.sta_encoded_bytes > 0);
        }
        // threads = 1 falls back to the sequential kernel (one scan each).
        let fb = evaluate_disk_parallel(&prog, &db, 1).unwrap();
        assert_eq!(fb.stats.backward_scans, 1);
        assert_eq!(fb.selected.to_vec(), seq.selected.to_vec());

        // An absurd thread count is clamped, not a panic / OOM.
        let huge = evaluate_disk_parallel(&prog, &db, usize::MAX / 8).unwrap();
        assert_eq!(huge.selected.to_vec(), seq.selected.to_vec());
    }

    /// The sharded evaluator with a streaming hook still delivers every
    /// node exactly once in document order (the fold down runs as one
    /// window on the master; the fold up stays sharded).
    #[test]
    fn sharded_hook_preserves_document_order() {
        let db = balanced_db("shard2.arb");
        let (prog, groups) = query(&db, "QUERY :- V.Label[a];");
        let (seq, seq_flags) = stream(&db, &prog, &groups, 1);
        let (par, par_flags) = stream(&db, &prog, &groups, 4);
        assert_eq!(par_flags, seq_flags);
        assert_eq!(par.counts, seq.counts);
        assert!(par.stats.backward_scans > 1, "the fold up stays sharded");
        assert_eq!(par.stats.forward_scans, 1, "hook mode scans forward once");
    }

    /// The verdict-only run shards the single backward pass, keeps no
    /// state stream, and agrees with the sequential verdict.
    #[test]
    fn sharded_boolean_matches_sequential() {
        let db = balanced_db("shard3.arb");
        for src in [
            "QUERY :- Root, HasFirstChild;",
            "Deep :- V.Label[a].invFirstChild.invNextSibling*.invFirstChild;\nQUERY :- Root, Deep;",
            "QUERY :- Root, Leaf;",
        ] {
            let (prog, groups) = query(&db, src);
            let verdict = |threads| {
                let run = kernel::evaluate(
                    &prog,
                    &DiskSource::new(&db),
                    &NoStore,
                    &groups,
                    Demand::Verdicts,
                    threads,
                    &AutomataPool::new(),
                )
                .unwrap();
                assert_eq!(run.stats.forward_scans, 0);
                assert_eq!(run.stats.sta_encoded_bytes, 0);
                run.verdicts
            };
            assert_eq!(verdict(1), verdict(4), "program: {src}");
        }
    }

    /// A [`StaStore`] whose stream is damaged between the two folds:
    /// `damage` runs once, just before the first reader opens.
    struct Damaged<'a, F: Fn() + Sync> {
        inner: StaStore<'a>,
        damage: F,
    }

    impl<F: Fn() + Sync> StateStore for Damaged<'_, F> {
        type Writer<'w>
            = StaWriter
        where
            Self: 'w;
        type Reader<'r>
            = StaReader
        where
            Self: 'r;

        fn allocate(&self, n: u32) -> io::Result<u64> {
            self.inner.allocate(n)
        }

        fn writer(&self, lo: u32, hi: u32) -> io::Result<StaWriter> {
            self.inner.writer(lo, hi)
        }

        fn patch(&self, states: &[(u32, ProgramId)]) -> io::Result<u64> {
            self.inner.patch(states)
        }

        fn reader(&self, lo: u32) -> io::Result<StaReader> {
            (self.damage)();
            self.inner.reader(lo)
        }
    }

    /// The fold down's error latch against *real* damage, in both stream
    /// formats. Truncation: a `.sta` stream that ends after two states
    /// must surface `InvalidData` with context (not a bare
    /// `UnexpectedEof`). Poison: a state id no automaton knows must be
    /// an error too, not an out-of-bounds index. Either way the message
    /// names the node and the hook stops at the last intact one.
    #[test]
    fn phase2_error_latch_covers_real_sta_truncation() {
        let db = mkdb("<a><b/><c/><d/><e/></a>", "m4.arb");
        let n = db.node_count();
        let (prog, groups) = query(&db, "QUERY :- V.Label[b];");
        let bad_at = 2u32;

        // The true ρ_A stream, from a clean run.
        let mut states = Vec::new();
        let mut hook = |v: &Visit<'_>| states.push(v.rho_a.0);
        let sta = db.scratch_sta();
        let clean = StaStore::new(sta.path(), StaFormat::Flat, n);
        kernel::evaluate(
            &prog,
            &DiskSource::new(&db),
            &clean,
            &groups,
            Demand::Stream(&mut hook),
            1,
            &AutomataPool::new(),
        )
        .unwrap();
        let mut poisoned = states.clone();
        poisoned[bad_at as usize] = u32::MAX - 7;

        for format in [StaFormat::Flat, StaFormat::Blocked] {
            for poison in [false, true] {
                let sta = db.scratch_sta();
                let path = sta.path();
                let rewrite = |stream: &[u32]| {
                    let mut w = StateFileWriter::create(path, n as u64, format).unwrap();
                    for &s in stream.iter().rev() {
                        w.write_state(s).unwrap();
                    }
                    w.finish().unwrap();
                };
                let damage = || match (poison, format) {
                    (true, _) => rewrite(&poisoned),
                    // Flat: a chopped file.
                    (false, StaFormat::Flat) => {
                        let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
                        f.set_len(bad_at as u64 * 4).unwrap();
                    }
                    // Blocked: a sharded layout whose later segments (and
                    // spine patches) never arrived — the crashed-worker
                    // shape.
                    (false, StaFormat::Blocked) => {
                        stafile::allocate(path, n as u64, format).unwrap();
                        let mut w =
                            StateFileWriter::segment(path, 0, bad_at as u64, format).unwrap();
                        for &s in states[..bad_at as usize].iter().rev() {
                            w.write_state(s).unwrap();
                        }
                        w.finish().unwrap();
                    }
                };
                let store = Damaged {
                    inner: StaStore::new(path, format, n),
                    damage,
                };
                let mut calls = Vec::new();
                let mut hook = |v: &Visit<'_>| calls.push(v.ix);
                let err = kernel::evaluate(
                    &prog,
                    &DiskSource::new(&db),
                    &store,
                    &groups,
                    Demand::Stream(&mut hook),
                    1,
                    &AutomataPool::new(),
                )
                .err()
                .expect("a damaged stream must fail");
                let case = format!("{format}, poison {poison}");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
                assert!(
                    err.to_string().contains("node 2"),
                    "{case}: the error must name the failing node, got {err}"
                );
                assert_eq!(
                    calls,
                    vec![0, 1],
                    "{case}: the hook must stop at the damage"
                );
            }
        }
    }
}
