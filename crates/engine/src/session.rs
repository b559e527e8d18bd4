//! The prepared evaluation surface: [`Session`], [`EvalRequest`] and
//! pluggable [`ResultSink`]s.
//!
//! Koch's Arb system has exactly one evaluation algorithm — compile to
//! strict TMNF, run two linear scans — so the engine exposes exactly one
//! evaluation entry point: prepare a [`Session`] over compiled queries
//! (single-query is a batch of one), describe the run with an
//! [`EvalRequest`], and plug a [`ResultSink`] to choose the output shape.
//! Boolean verdicts, selection counts, node sets and marked-XML are sink
//! choices, not separate engine methods; custom sinks can stream the
//! phase-2 scan (document order) without materializing node sets.
//!
//! ```
//! use arb_engine::{CountSink, Database, EvalRequest};
//!
//! let mut db = Database::from_xml_str("<r><a/><b><a/></b></r>").unwrap();
//! let q = db.compile_tmnf("QUERY :- V.Label[a];").unwrap();
//! let session = db.prepare(&[q]);
//! let mut sink = CountSink::default();
//! session.eval(&EvalRequest::new(), &mut sink).unwrap();
//! assert_eq!(sink.counts(), &[2]);
//! ```

use crate::batch::{BatchOutcome, QueryBatch};
use crate::database::{Database, EngineError};
use crate::incremental::{RefreshReport, StandingEval};
use crate::output::XmlEmitter;
use crate::query::Query;
use crate::update::DocUpdate;
use crate::QueryOutcome;
use arb_core::kernel::{Demand, Visit};
use arb_core::AutomataPool;
use arb_storage::{NodeRecord, StaFormat};
use arb_tree::{LabelTable, NodeSet};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Evaluation knobs. Which record source a run reads is not one of
/// them: that is the [`Database`]'s backing (materialize a disk database
/// with `Database::from_tree(db.to_tree()?, db.labels().clone())` to
/// evaluate it in memory).
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Worker threads for the two-phase pass; `0` and `1` mean
    /// sequential. `> 1` splits both folds over a frontier of disjoint
    /// subtrees (paper §6.2, see [`arb_core::kernel`]) on either
    /// backing: on disk the workers run backward/forward *range scans*
    /// over their subtrees' record windows and write/read disjoint
    /// segments of the run's (uniquely named) `.sta` scratch file;
    /// verdict-only sinks shard the single backward pass the same way.
    /// Results are identical to sequential evaluation; documents with no
    /// useful frontier (tiny or degenerate) run as one window.
    pub parallelism: usize,
    /// The on-disk layout of the run's `.sta` state stream (see
    /// [`arb_storage::StaFormat`]): `None` (the default) defers to the
    /// `ARB_STA_FORMAT` environment variable, which itself defaults to
    /// the block-compressed layout. Only disk databases consult it.
    pub sta_format: Option<StaFormat>,
}

/// A builder describing one evaluation run of a [`Session`].
#[derive(Debug, Clone, Default)]
pub struct EvalRequest {
    options: EvalOptions,
}

impl EvalRequest {
    /// A request with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// A request from pre-built options.
    pub fn with_options(options: EvalOptions) -> Self {
        EvalRequest { options }
    }

    /// Sets [`EvalOptions::parallelism`].
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.options.parallelism = threads;
        self
    }

    /// Sets [`EvalOptions::sta_format`] (the `.sta` stream layout).
    pub fn sta_format(mut self, format: StaFormat) -> Self {
        self.options.sta_format = Some(format);
        self
    }

    /// The assembled options.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }
}

/// How much of the two-phase pass a [`ResultSink`] needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkDemand {
    /// Only per-query root verdicts (document filtering, paper §1): a
    /// single backward scan, no forward scan and no `.sta` file — the
    /// root's residual program already carries the constraints of the
    /// whole tree.
    Verdicts,
    /// Full per-query outcomes — node sets, counts, statistics.
    Outcomes,
    /// Outcomes plus a per-node stream in document order during phase 2
    /// (marked-XML output, paper §6.3, without materializing node sets
    /// beyond what the engine computes anyway).
    Stream,
}

/// Context handed to [`ResultSink::begin`] before the pass starts.
#[derive(Debug, Clone, Copy)]
pub struct SinkContext<'a> {
    /// Number of queries in the session.
    pub queries: usize,
    /// Number of nodes in the database.
    pub nodes: u64,
    /// The options of the driving [`EvalRequest`].
    pub options: &'a EvalOptions,
}

/// Where evaluation results go.
///
/// A sink declares its [`SinkDemand`], then receives `begin`, the
/// per-node `node` stream (only for [`SinkDemand::Stream`]), `verdicts`
/// (always), `outcomes` (unless the demand was
/// [`Verdicts`](SinkDemand::Verdicts)), and `finish` — in that order,
/// each at most once except `node`.
pub trait ResultSink {
    /// What this sink needs from the pass.
    fn demand(&self) -> SinkDemand {
        SinkDemand::Outcomes
    }

    /// Called once before evaluation.
    fn begin(&mut self, _ctx: &SinkContext<'_>) -> io::Result<()> {
        Ok(())
    }

    /// Streamed for every node in document order during phase 2 with the
    /// node's record and one selected-flag per query ([`SinkDemand::Stream`]
    /// only).
    fn node(&mut self, _ix: u32, _rec: NodeRecord, _selected_by: &[bool]) -> io::Result<()> {
        Ok(())
    }

    /// Per-query root verdicts (document filtering): `verdicts[i]` is
    /// true iff a query predicate of query `i` holds at the root.
    fn verdicts(&mut self, _verdicts: &[bool]) -> io::Result<()> {
        Ok(())
    }

    /// The demultiplexed per-query outcomes of the shared pass.
    fn outcomes(&mut self, _outcome: &BatchOutcome) -> io::Result<()> {
        Ok(())
    }

    /// Called once after the pass completes.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Collects per-query boolean (accept/reject) verdicts; on disk
/// databases the whole run is a single backward scan.
#[derive(Debug, Default)]
pub struct BooleanSink {
    verdicts: Vec<bool>,
}

impl BooleanSink {
    /// Per-query verdicts, in session order.
    pub fn verdicts(&self) -> &[bool] {
        &self.verdicts
    }

    /// Consumes the sink into its verdicts.
    pub fn into_verdicts(self) -> Vec<bool> {
        self.verdicts
    }
}

impl ResultSink for BooleanSink {
    fn demand(&self) -> SinkDemand {
        SinkDemand::Verdicts
    }

    fn verdicts(&mut self, verdicts: &[bool]) -> io::Result<()> {
        self.verdicts = verdicts.to_vec();
        Ok(())
    }
}

/// Collects per-query selected-node counts.
#[derive(Debug, Default)]
pub struct CountSink {
    counts: Vec<u64>,
}

impl CountSink {
    /// Per-query selected-node counts, in session order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Consumes the sink into its counts.
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }
}

impl ResultSink for CountSink {
    fn outcomes(&mut self, outcome: &BatchOutcome) -> io::Result<()> {
        self.counts = outcome.outcomes.iter().map(|o| o.stats.selected).collect();
        Ok(())
    }
}

/// Collects per-query selected-node sets (preorder indexes).
#[derive(Debug, Default)]
pub struct NodeSetSink {
    sets: Vec<NodeSet>,
}

impl NodeSetSink {
    /// Per-query node sets, in session order.
    pub fn sets(&self) -> &[NodeSet] {
        &self.sets
    }

    /// Consumes the sink into its node sets.
    pub fn into_sets(self) -> Vec<NodeSet> {
        self.sets
    }
}

impl ResultSink for NodeSetSink {
    fn outcomes(&mut self, outcome: &BatchOutcome) -> io::Result<()> {
        self.sets = outcome
            .outcomes
            .iter()
            .map(|o| o.selected.clone())
            .collect();
        Ok(())
    }
}

/// Streams the whole document during phase 2 with nodes marked that any
/// query of the session selected (the paper's §6.3 default output mode),
/// wrapping [`XmlEmitter`]. Identical output on both backends.
pub struct XmlMarkSink<'l, W: Write> {
    emitter: Option<XmlEmitter<'l, W>>,
    out: Option<W>,
    started: bool,
}

impl<'l, W: Write> XmlMarkSink<'l, W> {
    /// A sink writing the marked document to `out`, resolving labels
    /// against the database's table (see [`Database::labels`]).
    pub fn new(labels: &'l LabelTable, out: W) -> Self {
        XmlMarkSink {
            emitter: Some(XmlEmitter::new(labels, out)),
            out: None,
            started: false,
        }
    }

    /// Recovers the writer after a completed run.
    pub fn into_inner(self) -> Option<W> {
        self.out
    }
}

impl<W: Write> ResultSink for XmlMarkSink<'_, W> {
    fn demand(&self) -> SinkDemand {
        SinkDemand::Stream
    }

    fn begin(&mut self, _ctx: &SinkContext<'_>) -> io::Result<()> {
        // One sink writes one document: a second run — even after a
        // failed first one — would append to a consumed or partially
        // written stream, so reject it up front.
        if self.started {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "XmlMarkSink already used by a run; create a new sink per run",
            ));
        }
        self.started = true;
        Ok(())
    }

    fn node(&mut self, _ix: u32, rec: NodeRecord, selected_by: &[bool]) -> io::Result<()> {
        let emitter = self.emitter.as_mut().expect("begin rejected reuse");
        emitter.node(rec, selected_by.iter().any(|&b| b))
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(emitter) = self.emitter.take() {
            self.out = Some(emitter.finish()?);
        }
        Ok(())
    }
}

/// The result of one [`Session::eval`] run.
pub struct EvalReport {
    /// Per-query root verdicts (always computed; for
    /// [`SinkDemand::Verdicts`] sinks this is all the pass produces).
    pub verdicts: Vec<bool>,
    /// Shared-pass statistics and demultiplexed per-query outcomes;
    /// `None` when the sink demanded only verdicts and the pass could
    /// skip phase 2.
    pub batch: Option<BatchOutcome>,
}

enum BatchStore<'a> {
    Owned(Box<QueryBatch>),
    Borrowed(&'a QueryBatch),
}

/// A prepared evaluation session: compiled queries merged into one
/// multi-query TMNF program ([`QueryBatch`]), bound to the database they
/// were compiled against. Compile once, run many times — every run is
/// one shared two-phase pass (one backward and one forward linear scan
/// on disk) regardless of the query count.
///
/// # Build-once / eval-many automata lifecycle
///
/// The session owns an [`AutomataPool`]: the first [`eval`](Session::eval)
/// builds the merged program's `QueryAutomata` (interners, memoized δ
/// tables) and parks them in the pool; every later run — any sink, any
/// backend, sequential or sharded — takes warm automata back out, so
/// repeated evaluations pay zero construction cost and keep their
/// memoized transitions. Sharded runs draw per-worker automata from the
/// same pool and return them, so even worker tables stay warm across
/// runs. The per-run `automata_builds` / `automata_reused` counters on
/// [`arb_core::EvalStats`] prove the lifecycle engaged: a warm session
/// reports `automata_builds == 0`.
///
/// Create with [`Database::prepare`] (from compiled [`Query`]s) or
/// [`Database::prepare_batch`] (from an existing [`QueryBatch`]). Hosts
/// that cache prepared state across session objects (e.g. the resident
/// query service's window cache) can share one pool between sessions
/// over the same merged program via [`Session::with_pool`].
pub struct Session<'db> {
    db: &'db Database,
    batch: BatchStore<'db>,
    pool: Arc<AutomataPool>,
    /// Retained evaluation state of the batch as a standing query —
    /// primed on first [`refresh`](Session::refresh) (or explicitly via
    /// [`prime_standing`](Session::prime_standing)), then advanced
    /// incrementally per update.
    standing: Mutex<Option<StandingEval>>,
}

impl<'db> Session<'db> {
    pub(crate) fn new(db: &'db Database, queries: &[Query]) -> Self {
        Session {
            db,
            batch: BatchStore::Owned(Box::new(QueryBatch::new(queries))),
            pool: Arc::new(AutomataPool::new()),
            standing: Mutex::new(None),
        }
    }

    pub(crate) fn over(db: &'db Database, batch: &'db QueryBatch) -> Self {
        Session {
            db,
            batch: BatchStore::Borrowed(batch),
            pool: Arc::new(AutomataPool::new()),
            standing: Mutex::new(None),
        }
    }

    /// Replaces the session's [`AutomataPool`] with a shared one.
    ///
    /// **Precondition (unchecked):** the pool must only ever serve
    /// sessions over the *same* merged program — pooled automata resume
    /// with their interned tables intact, so a pool shared across
    /// different programs would step through the wrong δ tables. This is
    /// the same caller contract as [`QueryBatch::new`]'s label-space
    /// precondition.
    pub fn with_pool(mut self, pool: Arc<AutomataPool>) -> Self {
        self.pool = pool;
        self
    }

    /// The session's automata pool (shared with the server's window
    /// cache when the session came from a cached shape).
    pub fn automata_pool(&self) -> &Arc<AutomataPool> {
        &self.pool
    }

    /// The merged batch this session evaluates.
    pub fn batch(&self) -> &QueryBatch {
        match &self.batch {
            BatchStore::Owned(b) => b,
            BatchStore::Borrowed(b) => b,
        }
    }

    /// Number of queries in the session.
    pub fn len(&self) -> usize {
        self.batch().len()
    }

    /// True if the session holds no queries (evaluation errors).
    pub fn is_empty(&self) -> bool {
        self.batch().is_empty()
    }

    /// The database this session evaluates against.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    /// **The canonical evaluation entry point.** Runs the session's one
    /// shared two-phase pass as described by `req` and feeds `sink`.
    ///
    /// Every run is one call of the evaluation kernel
    /// ([`arb_core::kernel::evaluate`]) over the database's backing —
    /// two linear scans and a scratch `.sta` file on disk, the tree and
    /// an in-memory state array otherwise; when
    /// [`EvalOptions::parallelism`] exceeds 1 the pass is split over a
    /// subtree frontier on either backing. Sinks demanding only
    /// [`SinkDemand::Verdicts`] reduce it to the backward pass.
    pub fn eval(
        &self,
        req: &EvalRequest,
        sink: &mut dyn ResultSink,
    ) -> Result<EvalReport, EngineError> {
        let batch = self.batch();
        let opts = req.options();
        sink.begin(&SinkContext {
            queries: batch.len(),
            nodes: self.db.node_count(),
            options: opts,
        })?;
        if batch.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot evaluate an empty query batch",
            )
            .into());
        }
        let demand = sink.demand();
        let mut sink_err: Option<io::Error> = None;
        let run = {
            let mut stream = |v: &Visit<'_>| {
                if sink_err.is_none() {
                    sink_err = sink.node(v.ix, v.info.into(), v.selected_by).err();
                }
            };
            let (run, _sta) = crate::diskeval::run(
                self.db,
                batch.merged_program(),
                &batch.query_atoms(),
                match demand {
                    SinkDemand::Verdicts => Demand::Verdicts,
                    SinkDemand::Outcomes => Demand::Sets,
                    SinkDemand::Stream => Demand::Stream(&mut stream),
                },
                opts.parallelism,
                opts.sta_format.unwrap_or_else(StaFormat::from_env),
                &self.pool,
            )?;
            run
        };
        self.pool.put(run.automata);
        if let Some(e) = sink_err {
            return Err(e.into());
        }
        sink.verdicts(&run.verdicts)?;
        let outcome = (demand != SinkDemand::Verdicts).then(|| {
            let mut stats = run.stats;
            stats.batch_size = batch.len() as u64;
            BatchOutcome {
                outcomes: batch.demux(&stats, &run.counts, run.sets),
                stats,
            }
        });
        if let Some(outcome) = &outcome {
            sink.outcomes(outcome)?;
        }
        sink.finish()?;
        Ok(EvalReport {
            verdicts: run.verdicts,
            batch: outcome,
        })
    }

    /// Primes the session's standing-query state: one full evaluation
    /// at the database's current epoch, after which every
    /// [`refresh`](Session::refresh) is incremental. Called implicitly
    /// by the first `refresh`; call it eagerly to move the priming cost
    /// off the first update's latency.
    pub fn prime_standing(&self) -> Result<(), EngineError> {
        let mut standing = self.standing.lock().expect("standing state poisoned");
        if standing.is_none() {
            *standing = Some(StandingEval::prime(self.db, self.batch(), &self.pool)?);
        }
        Ok(())
    }

    /// Applies `update` to the database **and** incrementally
    /// re-evaluates the session's queries over it: phase 1 reruns only
    /// over the edited record window and the changed part of its root
    /// spine, phase 2 only below the highest changed phase-1 state
    /// (pruned where old states survive). The report carries the full
    /// per-query outcomes at the new epoch plus per-query result
    /// *deltas*, and its stats expose the incremental path
    /// (`dirty_nodes`, `retained_sta_blocks`, `refreshes`; zero scan
    /// counts).
    ///
    /// The first call primes the standing state with one full
    /// evaluation (see [`prime_standing`](Session::prime_standing)).
    /// Errors if the database changed outside this session since the
    /// standing state's epoch.
    pub fn refresh(&self, update: &DocUpdate) -> Result<RefreshReport, EngineError> {
        let mut standing = self.standing.lock().expect("standing state poisoned");
        if standing.is_none() {
            *standing = Some(StandingEval::prime(self.db, self.batch(), &self.pool)?);
        }
        let se = standing.as_mut().expect("primed above");
        let applied = self.db.apply_update(update)?;
        se.refresh(&applied, self.batch(), self.db)
    }

    /// Evaluates with `req` and returns the per-query outcomes
    /// (convenience over [`eval`](Session::eval) with an outcome-only
    /// sink).
    pub fn run_with(&self, req: &EvalRequest) -> Result<BatchOutcome, EngineError> {
        struct Discard;
        impl ResultSink for Discard {}
        let report = self.eval(req, &mut Discard)?;
        Ok(report.batch.expect("outcome demand produces a batch"))
    }

    /// [`run_with`](Session::run_with) under default options.
    pub fn run(&self) -> Result<BatchOutcome, EngineError> {
        self.run_with(&EvalRequest::new())
    }

    /// Runs a single-query session and returns its one outcome; errors
    /// (before evaluating anything) if the session holds a different
    /// number of queries.
    pub fn run_one(&self) -> Result<QueryOutcome, EngineError> {
        if self.len() != 1 {
            return Err(EngineError::Query(format!(
                "run_one on a session of {} queries",
                self.len()
            )));
        }
        Ok(self.run()?.outcomes.remove(0))
    }

    /// Per-query boolean (document-filtering) verdicts: one shared
    /// backward scan on disk databases.
    pub fn run_boolean(&self) -> Result<Vec<bool>, EngineError> {
        let mut sink = BooleanSink::default();
        self.eval(&EvalRequest::new(), &mut sink)?;
        Ok(sink.into_verdicts())
    }

    /// Evaluates and writes the whole document once to `out`, marking
    /// every node any query of the session selected (streamed during
    /// phase 2 on disk databases).
    pub fn run_marked(&self, out: impl Write) -> Result<BatchOutcome, EngineError> {
        let mut sink = XmlMarkSink::new(self.db.labels(), out);
        let report = self.eval(&EvalRequest::new(), &mut sink)?;
        Ok(report.batch.expect("stream demand produces a batch"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::from_xml_str("<r><a/><b><a>t</a></b></r>").unwrap()
    }

    #[test]
    fn sinks_over_one_session() {
        let mut db = db();
        let qs = [
            db.compile_tmnf("QUERY :- V.Label[a];").unwrap(),
            db.compile_xpath("//b").unwrap(),
        ];
        let session = db.prepare(&qs);
        assert_eq!(session.len(), 2);

        let mut counts = CountSink::default();
        let report = session.eval(&EvalRequest::new(), &mut counts).unwrap();
        assert_eq!(counts.counts(), &[2, 1]);
        assert_eq!(report.verdicts, vec![false, false]);
        assert_eq!(report.batch.unwrap().stats.backward_scans, 1);

        let mut sets = NodeSetSink::default();
        session.eval(&EvalRequest::new(), &mut sets).unwrap();
        assert_eq!(sets.sets()[0].to_vec().len(), 2);

        let mut bools = BooleanSink::default();
        let report = session.eval(&EvalRequest::new(), &mut bools).unwrap();
        assert!(report.batch.is_none(), "verdict sinks skip phase 2");
        assert_eq!(bools.verdicts(), &[false, false]);
    }

    #[test]
    fn xml_mark_sink_streams_the_document() {
        let mut db = db();
        let q = db.compile_tmnf("QUERY :- V.Label[a];").unwrap();
        let session = db.prepare(&[q]);
        let mut sink = XmlMarkSink::new(db.labels(), Vec::new());
        session.eval(&EvalRequest::new(), &mut sink).unwrap();
        let xml = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        assert_eq!(
            xml,
            "<r><a arb:selected=\"true\"></a><b><a arb:selected=\"true\">t</a></b></r>"
        );
    }

    #[test]
    fn xml_mark_sink_rejects_reuse() {
        let mut db = db();
        let q = db.compile_tmnf("QUERY :- V.Label[a];").unwrap();
        let session = db.prepare(&[q]);
        let mut sink = XmlMarkSink::new(db.labels(), Vec::new());
        session.eval(&EvalRequest::new(), &mut sink).unwrap();
        // A second run on the consumed sink is an error, not a panic.
        assert!(session.eval(&EvalRequest::new(), &mut sink).is_err());
    }

    #[test]
    fn boolean_sink_honors_parallelism() {
        let mut db = db();
        let q = db.compile_tmnf("QUERY :- Root, HasFirstChild;").unwrap();
        let session = db.prepare(&[q]);
        let mut seq = BooleanSink::default();
        session.eval(&EvalRequest::new(), &mut seq).unwrap();
        let mut par = BooleanSink::default();
        session
            .eval(&EvalRequest::new().parallelism(4), &mut par)
            .unwrap();
        assert_eq!(seq.verdicts(), &[true]);
        assert_eq!(seq.verdicts(), par.verdicts());
    }

    #[test]
    fn parallel_option_matches_sequential() {
        let mut db = db();
        let q = db.compile_tmnf("QUERY :- V.Label[a];").unwrap();
        let session = db.prepare(&[q]);
        let seq = session.run().unwrap();
        let par = session
            .run_with(&EvalRequest::new().parallelism(4))
            .unwrap();
        assert_eq!(
            seq.outcomes[0].selected.to_vec(),
            par.outcomes[0].selected.to_vec()
        );
    }

    #[test]
    fn session_reuses_automata_across_runs() {
        let mut db = db();
        let q = db.compile_tmnf("QUERY :- V.Label[a];").unwrap();
        let session = db.prepare(&[q]);
        let first = session.run().unwrap();
        assert_eq!(first.stats.automata_builds, 1);
        assert_eq!(first.stats.automata_reused, 0);
        let second = session.run().unwrap();
        assert_eq!(
            (second.stats.automata_builds, second.stats.automata_reused),
            (0, 1),
            "a warm session must not rebuild its automata"
        );
        assert_eq!(second.stats.automata_build_time, std::time::Duration::ZERO);
        // Per-query outcomes carry the same lifecycle counters.
        assert_eq!(second.outcomes[0].stats.automata_builds, 0);
        assert_eq!(
            first.outcomes[0].selected.to_vec(),
            second.outcomes[0].selected.to_vec()
        );
    }

    #[test]
    fn shared_pool_spans_sessions() {
        let mut db = db();
        let q = db.compile_tmnf("QUERY :- V.Label[a];").unwrap();
        let pool = std::sync::Arc::new(arb_core::AutomataPool::new());
        let qs = [q];
        let warmup = db.prepare(&qs).with_pool(pool.clone());
        warmup.run().unwrap();
        drop(warmup);
        // A second session over the same program and pool starts warm.
        let warm = db.prepare(&qs).with_pool(pool.clone());
        let out = warm.run().unwrap();
        assert_eq!(out.stats.automata_builds, 0);
        assert_eq!(out.stats.automata_reused, 1);
        assert_eq!(pool.builds(), 1);
    }

    #[test]
    fn empty_session_is_an_error() {
        let db = db();
        let session = db.prepare(&[]);
        assert!(session.is_empty());
        assert!(session.run().is_err());
        assert!(session.run_boolean().is_err());

        // Nothing to evaluate the other way round: a query over an empty
        // in-memory database is the kernel's `InvalidData`, like an empty
        // `.arb` file — for every demand, and never a panic.
        let empty = arb_tree::BinaryTree::from_parts(vec![], vec![], vec![]).unwrap();
        let mut db = Database::from_tree(empty, LabelTable::new());
        let q = db.compile_tmnf("QUERY :- Root;").unwrap();
        let session = db.prepare(&[q]);
        let errors = [
            session.run().err(),
            session.run_boolean().err(),
            session.run_marked(Vec::new()).err(),
        ];
        for e in errors {
            let e = e.expect("an empty database has no answer").to_string();
            assert!(e.contains("empty database"), "{e}");
        }
    }

    #[test]
    fn run_one_rejects_multi_query_sessions() {
        let mut db = db();
        let qs = [
            db.compile_tmnf("QUERY :- V.Label[a];").unwrap(),
            db.compile_xpath("//b").unwrap(),
        ];
        assert!(db.prepare(&qs).run_one().is_err());
    }
}
