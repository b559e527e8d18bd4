//! # arb-engine
//!
//! The high-level Arb query engine: databases (on disk in the `.arb`
//! storage model, or in memory), compiled queries (TMNF or Core XPath),
//! and two-phase evaluation — the Rust counterpart of the paper's C++
//! `Arb` system.
//!
//! There is **one** evaluation entry point, mirroring the paper's one
//! algorithm: compile queries, [`prepare`](Database::prepare) a
//! [`Session`] (single-query is a batch of one; k queries share one
//! two-scan pass, paper §7), describe the run with an [`EvalRequest`],
//! and plug a [`ResultSink`] to pick the output shape:
//!
//! ```
//! use arb_engine::{CountSink, Database, EvalRequest, XmlMarkSink};
//!
//! let mut db = Database::from_xml_str("<r><a/><b><a/></b></r>").unwrap();
//! let q1 = db.compile_tmnf("QUERY :- V.Label[a];").unwrap();
//! let q2 = db.compile_xpath("//b").unwrap();
//! let session = db.prepare(&[q1, q2]);
//!
//! // Per-query selection counts from one shared pass.
//! let mut counts = CountSink::default();
//! session.eval(&EvalRequest::new(), &mut counts).unwrap();
//! assert_eq!(counts.counts(), &[2, 1]);
//!
//! // The same pass can stream the marked document instead (paper §6.3).
//! let mut mark = XmlMarkSink::new(db.labels(), Vec::new());
//! session.eval(&EvalRequest::new(), &mut mark).unwrap();
//! assert!(String::from_utf8(mark.into_inner().unwrap())
//!     .unwrap()
//!     .contains("arb:selected"));
//! ```
//!
//! Provided sinks: [`BooleanSink`] (accept/reject per query — one
//! backward scan, nothing stored), [`CountSink`], [`NodeSetSink`], and
//! [`XmlMarkSink`] (streams during phase 2). [`EvalOptions`] carries the
//! two engine knobs: `parallelism` (frontier-parallel evaluation, paper
//! §6.2, on **both** backings — on disk the pass is sharded over
//! disjoint subtree record windows with per-worker range scans and
//! `.sta` segments) and `sta_format` (the layout of the run's `.sta`
//! state stream). Every evaluation gets its own uniquely named `.sta`
//! scratch file, so concurrent sessions over one database are safe.
//! Convenience wrappers [`Session::run`], [`Session::run_one`],
//! [`Session::run_boolean`] and [`Session::run_marked`] cover the common
//! shapes.
//!
//! ## One kernel
//!
//! Every run — any sink, either backing, sequential or sharded, and the
//! priming run of a standing query — is one call of
//! [`arb_core::kernel::evaluate`]: one backward fold, one forward fold.
//! Memory versus disk is only where the records and the phase-1 states
//! live ([`diskeval`] adapts the `.arb` scans and the `.sta` file to the
//! kernel's source and store traits). Beside [`Session::eval`] the crate
//! keeps two raw-program fronts for harnesses and reference suites,
//! [`evaluate_disk`] and [`evaluate_disk_parallel`] (a raw
//! [`arb_tmnf::CoreProgram`] routed through a [`QueryBatch`] would be
//! re-merged and drift pinned transition counts).
//!
//! ## Build once, eval many
//!
//! A [`Session`] owns an [`AutomataPool`]: the compiled `QueryAutomata`
//! (symbol/predicate interners and memoized δ tables) are built on the
//! first run and reused — warm — by every later run of the session,
//! across sinks, backends and thread counts. The per-run
//! [`arb_core::EvalStats`] counters `automata_builds` /
//! `automata_reused` / `automata_build_time` make the lifecycle
//! observable; hosts that outlive individual sessions can share a pool
//! between sessions over the same merged program with
//! [`Session::with_pool`] (the resident query service does this for
//! repeated admission-window shapes).

pub mod batch;
pub mod database;
pub mod diskeval;
pub mod incremental;
pub mod output;
pub mod query;
pub mod session;
pub mod update;

pub use arb_core::AutomataPool;
pub use arb_storage::{FormatVersion, StaFormat};
pub use batch::{BatchOutcome, QueryBatch};
pub use database::{Database, EngineError};
pub use diskeval::{evaluate_disk, evaluate_disk_parallel};
pub use incremental::{QueryDelta, RefreshReport, StandingQuery};
pub use output::XmlEmitter;
pub use query::{Query, QueryLanguage};
pub use session::{
    BooleanSink, CountSink, EvalOptions, EvalReport, EvalRequest, NodeSetSink, ResultSink, Session,
    SinkContext, SinkDemand, XmlMarkSink,
};
pub use update::{AppliedUpdate, DocUpdate};

use arb_core::EvalStats;
use arb_tree::NodeSet;

/// The result of evaluating a query.
pub struct QueryOutcome {
    /// Figure-6-style statistics (times, transitions, selected, memory).
    pub stats: EvalStats,
    /// The selected nodes (union over all query predicates), as preorder
    /// indexes.
    pub selected: NodeSet,
    /// Per-query-predicate selection counts, in the order of
    /// `query_preds()` (multi-query support, paper §7).
    pub per_pred_counts: Vec<u64>,
}
