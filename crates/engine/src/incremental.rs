//! Incremental re-evaluation for standing queries over updatable
//! databases.
//!
//! Both automaton runs of the two-phase algorithm are *local* functions
//! of the tree: ρ_A(v) depends only on v's subtree, ρ_B(v) only on the
//! states along v's root path. A subtree edit therefore invalidates a
//! sharply bounded region of each run:
//!
//! * **Phase 1** — the edited record window gets fresh bottom-up states;
//!   above it only the **root spine** (the edit site's ancestor chain)
//!   can change, and those changes are contiguous from the edit upward:
//!   the recomputation walks the spine bottom-up and stops at the first
//!   node whose state folds to its old value.
//! * **Phase 2** — everything outside the binary subtree of `top` (the
//!   highest node whose ρ_A changed) keeps its ρ_B verbatim. Inside it,
//!   a pruned top-down walk recomputes states and cuts off at any
//!   surviving node whose recomputed ρ_B equals its pre-edit value over
//!   a ρ_A-clean subtree.
//!
//! Everything from scratch is the evaluation kernel's
//! ([`arb_core::kernel`]): priming is one ordinary kernel run whose
//! document-order stream fills the mirrors, and the dirty window is
//! re-folded by the kernel's window fold, seeded with the retained state
//! just past it. Only what is genuinely incremental lives here — the
//! early-stopping spine walk and the pruned phase-2 descent.
//!
//! A `StandingEval` pins the session's `QueryAutomata` (interned state
//! ids must stay stable across refreshes, so it never returns them to
//! the pool), mirrors the document's record stream, keeps both state
//! arrays and per-atom result bit sets, and — on disk databases —
//! keeps the priming run's block-compressed `.sta` stream, whose clean
//! blocks are byte-copied across epochs ([`arb_storage::rewrite_blocked`]).
//! The per-refresh [`EvalStats`] report `dirty_nodes`,
//! `retained_sta_blocks` and `refreshes` (and zero full scans — the
//! observable proof that no linear pass ran).

use crate::batch::{BatchOutcome, QueryBatch};
use crate::database::{Database, EngineError};
use crate::update::AppliedUpdate;
use arb_core::kernel::{self, Demand, Visit};
use arb_core::{AutomataPool, EvalStats, QueryAutomata};
use arb_logic::{Atom, PredSetId, PredSetView, ProgramId};
use arb_storage::{EditPlan, NodeRecord, ScratchPath, StaFormat};
use arb_tree::traverse::{NodeSeq, ReversePreorder};
use arb_tree::{NodeId, NodeInfo, NodeSet};
use std::time::Instant;

/// What one refresh did to one query's result set, in the **new** index
/// space. Consumers holding the old result set first apply the plan's
/// index shift (drop `[pos, pos+removed)`, shift `>= pos+removed` by
/// `inserted - removed`), then these lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryDelta {
    /// Nodes that entered the result set (fresh fragment nodes and
    /// surviving nodes that flipped on).
    pub added: Vec<u32>,
    /// Surviving nodes (post-shift indexes) that left the result set.
    pub removed: Vec<u32>,
    /// The query's root verdict after the update.
    pub verdict: bool,
    /// True if the update flipped the root verdict.
    pub verdict_changed: bool,
}

/// The result of one [`Session::refresh`](crate::Session::refresh).
pub struct RefreshReport {
    /// The positional edit that was applied (window position, removed
    /// and inserted record counts — what result-set holders need to
    /// shift their indexes).
    pub plan: EditPlan,
    /// The document's epoch after the update.
    pub epoch: u64,
    /// Full per-query outcomes at the new epoch (stats carry
    /// `dirty_nodes` / `retained_sta_blocks` / `refreshes`, and zero
    /// scan counts).
    pub batch: BatchOutcome,
    /// Per-query result deltas against the previous epoch.
    pub deltas: Vec<QueryDelta>,
}

/// The retained evaluation state of a standing query batch.
pub(crate) struct StandingEval {
    /// Pinned automata: ρ_A/ρ_B store *interned* state ids, so these
    /// exact interners must survive — the automata never go back to the
    /// session pool.
    qa: QueryAutomata,
    /// Preorder record mirror of the document.
    records: Vec<NodeRecord>,
    /// Binary subtree ends (refreshed per update).
    ends: Vec<u32>,
    /// ρ_A per node.
    rho_a: Vec<ProgramId>,
    /// ρ_B per node.
    rho_b: Vec<PredSetId>,
    /// Per-query query-predicate atoms (merged-program ids).
    groups: Vec<Vec<Atom>>,
    /// One result bit set per query-predicate atom, flattened in group
    /// order.
    atom_sets: Vec<NodeSet>,
    /// Per-query union sets (diffed for the refresh deltas).
    query_sets: Vec<NodeSet>,
    /// Document epoch this state reflects.
    epoch: u64,
    /// Persistent block-compressed `.sta` stream (disk databases only):
    /// rewritten per refresh with clean blocks byte-copied.
    sta: Option<ScratchPath>,
    sta_encoded_bytes: u64,
    refreshes: u64,
}

impl StandingEval {
    /// Full evaluation of the batch at the database's current epoch —
    /// the one-time cost a standing query pays so every later update is
    /// incremental: one sequential kernel run over the database's own
    /// backing whose document-order stream fills the record mirror, both
    /// state arrays and the per-atom result sets. On disk the run's
    /// block-compressed `.sta` stream is kept as the persistent one.
    pub(crate) fn prime(
        db: &Database,
        batch: &QueryBatch,
        pool: &AutomataPool,
    ) -> Result<Self, EngineError> {
        let epoch = db.epoch();
        let groups = batch.query_atoms();
        let n = db.node_count() as usize;
        let mut records = Vec::with_capacity(n);
        let mut rho_a = Vec::with_capacity(n);
        let mut rho_b = Vec::with_capacity(n);
        let mut atom_sets: Vec<NodeSet> =
            groups.iter().flatten().map(|_| NodeSet::new(n)).collect();
        let mut mirror = |v: &Visit<'_>| {
            records.push(NodeRecord::from(v.info));
            rho_a.push(v.rho_a);
            rho_b.push(v.rho_b);
            demux_atoms(v.preds, &groups, &mut atom_sets, v.ix);
        };
        let (run, sta) = crate::diskeval::run(
            db,
            batch.merged_program(),
            &[],
            Demand::Stream(&mut mirror),
            1,
            StaFormat::Blocked,
            pool,
        )?;
        let (ends, _kinds) = arb_storage::record_extents(&records)?;
        let query_sets = union_queries(&groups, &atom_sets, records.len());
        Ok(StandingEval {
            qa: run.automata,
            records,
            ends,
            rho_a,
            rho_b,
            groups,
            atom_sets,
            query_sets,
            epoch,
            sta,
            sta_encoded_bytes: run.stats.sta_encoded_bytes,
            refreshes: 0,
        })
    }

    /// Position of node `v`'s second (binary) child.
    fn second_pos(&self, v: u32) -> u32 {
        if self.records[v as usize].has_first {
            self.ends[v as usize + 1]
        } else {
            v + 1
        }
    }

    /// Recomputes ρ_A(v) from the state array `a` and the (new) record
    /// mirror.
    fn transition_a(&mut self, a: &[ProgramId], v: u32) -> ProgramId {
        let rec = self.records[v as usize];
        let s1 = rec.has_first.then(|| a[v as usize + 1]);
        let s2 = rec.has_second.then(|| a[self.second_pos(v) as usize]);
        self.qa.bottom_up(s1, s2, rec.info(v))
    }

    /// The root path to `anchor` (exclusive), by subtree-extent descent
    /// in the post-edit tree.
    fn path_to(&self, anchor: u32) -> Result<Vec<u32>, EngineError> {
        let mut path = Vec::new();
        let mut cur = 0u32;
        while cur != anchor {
            path.push(cur);
            let rec = self.records[cur as usize];
            cur = if rec.has_first && anchor < self.ends[cur as usize + 1] {
                cur + 1
            } else if rec.has_second {
                self.second_pos(cur)
            } else {
                return Err(EngineError::Query(
                    "corrupt standing mirror: edit site unreachable from the root".into(),
                ));
            };
            if cur > anchor {
                return Err(EngineError::Query(
                    "corrupt standing mirror: descent overshot the edit site".into(),
                ));
            }
        }
        Ok(path)
    }

    /// Absorbs one applied update: replays the edit on the mirrors,
    /// recomputes ρ_A over the dirty window and changed spine, ρ_B over
    /// the pruned fringe below the highest change, patches the result
    /// sets, and rewrites the persistent `.sta` stream (retaining clean
    /// blocks). Returns the full per-query outcomes plus deltas.
    pub(crate) fn refresh(
        &mut self,
        up: &AppliedUpdate,
        batch: &QueryBatch,
        db: &Database,
    ) -> Result<RefreshReport, EngineError> {
        if up.epoch != self.epoch + 1 {
            return Err(EngineError::Query(format!(
                "standing state at epoch {} cannot absorb an update to epoch {}: the document \
                 changed outside this session — prepare a new session",
                self.epoch, up.epoch
            )));
        }
        let plan = &up.plan;
        let (pos, removed, inserted) = (
            plan.pos as usize,
            plan.removed as usize,
            plan.inserted as usize,
        );

        // --- Phase 1 over the dirty window + spine ------------------------
        let t1 = Instant::now();
        arb_storage::apply_edit(&mut self.records, plan, &up.frag);
        let n = self.records.len();
        debug_assert_eq!(n, up.new_nodes as usize);
        let (ends, _kinds) = arb_storage::record_extents(&self.records)?;
        self.ends = ends;

        let (bu0, td0) = (self.qa.bu_transitions, self.qa.td_transitions);
        let mut a: Vec<ProgramId> = Vec::with_capacity(n);
        a.extend_from_slice(&self.rho_a[..pos]);
        a.resize(pos + inserted, ProgramId(0));
        a.extend_from_slice(&self.rho_a[pos + removed..]);
        if inserted > 0 {
            // The window is the fragment root plus its first-child
            // subtree; the root's next sibling lies just past it and
            // keeps its state, which seeds the fold.
            let (lo, hi) = (plan.pos, plan.pos + plan.inserted);
            let seed = self.records[pos].has_second.then(|| a[pos + inserted]);
            let mirror = Mirror(&self.records);
            let mut window = ReversePreorder::new(&mirror, lo, hi);
            kernel::fold_up(&mut window, &mut self.qa, seed, |ix, states| {
                for (slot, &s) in a[ix as usize..].iter_mut().zip(states) {
                    *slot = ProgramId(s);
                }
                Ok(())
            })?;
        }
        let mut dirty = inserted as u64;

        // The spine starts at the window's parent — the flagged node when
        // the edit changed a child flag, the deepest root-path node
        // otherwise — and the changed segment is contiguous upward.
        let anchor = plan.flag_node.map(|(ix, _)| ix).unwrap_or(plan.pos);
        let path = self.path_to(anchor)?;
        let mut top: Option<u32> = (inserted > 0).then_some(plan.pos);
        let spine: Vec<u32> = plan
            .flag_node
            .iter()
            .map(|&(ix, _)| ix)
            .chain(path.iter().rev().copied())
            .collect();
        for v in spine {
            let s = self.transition_a(&a, v);
            if s == a[v as usize] {
                break; // unchanged state — every ancestor folds identically
            }
            a[v as usize] = s;
            dirty += 1;
            top = Some(v);
        }
        self.rho_a = a;
        let phase1_time = t1.elapsed();

        // --- Phase 2 over the pruned fringe below `top` -------------------
        let t2 = Instant::now();
        let old_b = std::mem::take(&mut self.rho_b);
        let mut b: Vec<PredSetId> = Vec::with_capacity(n);
        b.extend_from_slice(&old_b[..pos]);
        b.resize(pos + inserted, PredSetId(0));
        b.extend_from_slice(&old_b[pos + removed..]);
        let old_query_sets = std::mem::take(&mut self.query_sets);
        for s in &mut self.atom_sets {
            *s = splice_shift(s, n, plan.pos, plan.removed, plan.inserted);
        }

        if let Some(top) = top {
            // Deepest node whose subtree spans every ρ_A change: the
            // window root if there is a window, else the spine anchor.
            let site = if inserted > 0 { plan.pos } else { anchor };
            // ρ_B(top) from its unchanged parent (parents are the chain
            // root → … → anchor [→ window root]).
            let seed = if top == 0 {
                self.qa.start_state(self.rho_a[0])
            } else {
                let mut chain = path.clone();
                chain.push(anchor);
                if inserted > 0 && anchor != plan.pos {
                    chain.push(plan.pos);
                }
                let i = chain
                    .iter()
                    .position(|&c| c == top)
                    .expect("top lies on the edit chain");
                let p = chain[i - 1];
                let k = if top == p + 1 { 1 } else { 2 };
                self.qa.top_down(b[p as usize], self.rho_a[top as usize], k)
            };
            let (win_lo, win_hi) = (plan.pos, plan.pos + plan.inserted);
            let mut stack: Vec<(u32, PredSetId)> = vec![(top, seed)];
            while let Some((v, bv)) = stack.pop() {
                let vi = v as usize;
                let is_new = v >= win_lo && v < win_hi;
                let changed = is_new || {
                    let old_ix = if v < win_lo {
                        vi
                    } else {
                        vi + removed - inserted
                    };
                    bv != old_b[old_ix]
                };
                // A surviving node with its old ρ_B over a ρ_A-clean
                // subtree seals everything below it.
                if !(changed || (v <= site && site < self.ends[vi])) {
                    continue;
                }
                b[vi] = bv;
                if changed {
                    dirty += u64::from(!is_new); // window nodes counted above
                    let preds = self.qa.predsets.get(bv);
                    demux_atoms(preds, &self.groups, &mut self.atom_sets, v);
                }
                let rec = self.records[vi];
                let kids = [
                    (1, rec.has_first.then_some(v + 1)),
                    (2, rec.has_second.then(|| self.second_pos(v))),
                ];
                for (k, c) in kids {
                    let Some(c) = c else { continue };
                    let cb = self.qa.top_down(bv, self.rho_a[c as usize], k);
                    stack.push((c, cb));
                }
            }
        }
        self.rho_b = b;

        // --- Results, deltas, retained `.sta` stream ----------------------
        self.query_sets = union_queries(&self.groups, &self.atom_sets, n);
        let mut deltas = Vec::with_capacity(self.groups.len());
        for (old, new) in old_query_sets.iter().zip(&self.query_sets) {
            let shifted = splice_shift(old, n, plan.pos, plan.removed, plan.inserted);
            let added = new
                .iter()
                .filter(|id| !shifted.contains(*id))
                .map(|id| id.0)
                .collect();
            let gone = shifted
                .iter()
                .filter(|id| !new.contains(*id))
                .map(|id| id.0)
                .collect();
            let verdict = new.contains(NodeId(0));
            deltas.push(QueryDelta {
                added,
                removed: gone,
                verdict,
                verdict_changed: verdict != old.contains(NodeId(0)),
            });
        }

        let mut retained_sta = 0u64;
        if let Some(sta) = &self.sta {
            let raw: Vec<u32> = self.rho_a.iter().map(|s| s.0).collect();
            let dirty_from = top.unwrap_or(plan.pos) as u64;
            let rw = arb_storage::rewrite_blocked(sta.path(), &raw, dirty_from)?;
            retained_sta = rw.retained_blocks as u64;
            self.sta_encoded_bytes = std::fs::metadata(sta.path())?.len();
        }
        let phase2_time = t2.elapsed();

        self.epoch = up.epoch;
        self.refreshes += 1;
        let mut selected = NodeSet::new(n);
        for s in &self.query_sets {
            selected.union_with(s);
        }
        let prog = batch.merged_program();
        let stats = EvalStats {
            idb_count: prog.pred_count(),
            rule_count: prog.rule_count(),
            phase1_time,
            phase1_transitions: self.qa.bu_transitions - bu0,
            phase2_time,
            phase2_transitions: self.qa.td_transitions - td0,
            selected: selected.count() as u64,
            memory_bytes: self.qa.memory_bytes(),
            bu_states: self.qa.bu_state_count(),
            td_states: self.qa.td_state_count(),
            nodes: n as u64,
            sta_encoded_bytes: self.sta_encoded_bytes,
            db_format: db.as_disk().map(|d| d.format_version()).unwrap_or(0),
            batch_size: batch.len() as u64,
            interning: self.qa.intern_stats(),
            dirty_nodes: dirty,
            retained_sta_blocks: retained_sta,
            refreshes: self.refreshes,
            // No linear scans ran: backward_scans == forward_scans == 0.
            ..Default::default()
        };
        let merged_counts: Vec<u64> = self.atom_sets.iter().map(|s| s.count() as u64).collect();
        let outcomes = batch.demux(&stats, &merged_counts, self.query_sets.clone());
        Ok(RefreshReport {
            plan: *plan,
            epoch: up.epoch,
            batch: BatchOutcome { stats, outcomes },
            deltas,
        })
    }
}

/// An owned standing query batch, for hosts that outlive any one
/// [`Session`](crate::Session) (the resident query service registers one
/// per wire `Register` request).
///
/// Unlike [`Session::refresh`](crate::Session::refresh) — which applies
/// the update itself — a `StandingQuery` absorbs an [`AppliedUpdate`]
/// someone else already performed, so **one** document update can fan
/// out to many standing batches: the host applies the edit once and
/// refreshes each registration with the same `AppliedUpdate`.
pub struct StandingQuery {
    batch: QueryBatch,
    pool: AutomataPool,
    state: Option<StandingEval>,
}

impl StandingQuery {
    /// Builds the standing batch from compiled queries (same label-space
    /// precondition as [`QueryBatch::new`]).
    pub fn new(queries: &[crate::Query]) -> Self {
        StandingQuery {
            batch: QueryBatch::new(queries),
            pool: AutomataPool::new(),
            state: None,
        }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True if the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Fully evaluates the batch at the database's current epoch (no-op
    /// if already primed).
    pub fn prime(&mut self, db: &Database) -> Result<(), EngineError> {
        if self.state.is_none() {
            self.state = Some(StandingEval::prime(db, &self.batch, &self.pool)?);
        }
        Ok(())
    }

    /// The document epoch the standing results reflect (`None` until
    /// primed).
    pub fn epoch(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.epoch)
    }

    /// Current per-query result sets, in batch order (`None` until
    /// primed).
    pub fn results(&self) -> Option<&[NodeSet]> {
        self.state.as_ref().map(|s| s.query_sets.as_slice())
    }

    /// Absorbs one already-applied update incrementally. The batch must
    /// have been [`prime`](StandingQuery::prime)d **before** the update
    /// was applied (a prime on the post-edit document would have nothing
    /// to diff against); errors otherwise, and when the database moved
    /// more than one epoch past the standing state.
    pub fn refresh(
        &mut self,
        db: &Database,
        up: &AppliedUpdate,
    ) -> Result<RefreshReport, EngineError> {
        let state = self.state.as_mut().ok_or_else(|| {
            EngineError::Query(
                "standing query was never primed: call prime() before applying updates".into(),
            )
        })?;
        state.refresh(up, &self.batch, db)
    }
}

/// The record mirror as an in-memory node sequence, so the kernel's
/// window fold streams over it.
struct Mirror<'a>(&'a [NodeRecord]);

impl NodeSeq for Mirror<'_> {
    fn node_count(&self) -> u32 {
        self.0.len() as u32
    }

    fn info_at(&self, ix: u32) -> NodeInfo {
        self.0[ix as usize].info(ix)
    }
}

/// Recomputes node `v`'s membership in every query-atom result set from
/// its (new) predicate set.
fn demux_atoms(preds: PredSetView<'_>, groups: &[Vec<Atom>], atom_sets: &mut [NodeSet], v: u32) {
    for (set, atom) in atom_sets.iter_mut().zip(groups.iter().flatten()) {
        if preds.contains(*atom) {
            set.insert(NodeId(v));
        } else {
            set.remove(NodeId(v));
        }
    }
}

/// Per-query union of the (flattened) per-atom sets.
fn union_queries(groups: &[Vec<Atom>], atom_sets: &[NodeSet], n: usize) -> Vec<NodeSet> {
    let mut out = Vec::with_capacity(groups.len());
    let mut j = 0usize;
    for atoms in groups {
        let mut s = NodeSet::new(n);
        for _ in atoms {
            s.union_with(&atom_sets[j]);
            j += 1;
        }
        out.push(s);
    }
    out
}

/// Re-indexes a node set across a splice: bits below the window stay,
/// bits in the removed range vanish, bits above shift by the window's
/// size delta. Window bits are left clear (the refresh walk fills them).
fn splice_shift(old: &NodeSet, n_new: usize, pos: u32, removed: u32, inserted: u32) -> NodeSet {
    let mut s = NodeSet::new(n_new);
    for id in old.iter() {
        if id.0 < pos {
            s.insert(id);
        } else if id.0 >= pos + removed {
            s.insert(NodeId(id.0 - removed + inserted));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use crate::database::Database;
    use crate::update::DocUpdate;
    use arb_tree::NodeId;

    const XML: &str = "<r><a/><b><a/><c/></b><b/><a><c/></a></r>";
    const SOURCES: [&str; 3] = [
        "QUERY :- V.Label[a];",
        "QUERY :- V.Label[b], HasFirstChild;",
        "QUERY :- Root, HasSecondChild;",
    ];

    /// Full from-scratch per-query node sets + verdicts on a database.
    fn oracle(db: &mut Database) -> (Vec<Vec<NodeId>>, Vec<bool>) {
        let qs: Vec<_> = SOURCES
            .iter()
            .map(|s| db.compile_tmnf(s).expect("query compiles"))
            .collect();
        let session = db.prepare(&qs);
        let out = session.run().expect("full evaluation");
        let sets = out.outcomes.iter().map(|o| o.selected.to_vec()).collect();
        let verdicts = out
            .outcomes
            .iter()
            .map(|o| o.selected.contains(NodeId(0)))
            .collect();
        (sets, verdicts)
    }

    fn check_refresh_sequence(mut db: Database, reopen: impl Fn(&Database) -> Database) {
        let qs: Vec<_> = SOURCES
            .iter()
            .map(|s| db.compile_tmnf(s).expect("query compiles"))
            .collect();
        let session = db.prepare(&qs);
        session.prime_standing().expect("prime");
        let updates = [
            DocUpdate::AppendChild {
                under: 0,
                xml: "<b><a/></b>".into(),
            },
            DocUpdate::SpliceSubtree {
                at: 2,
                xml: "<a><b/><b/></a>".into(),
            },
            DocUpdate::DeleteSubtree { at: 1 },
        ];
        for (step, up) in updates.iter().enumerate() {
            let report = session.refresh(up).expect("refresh");
            // Oracle: a fresh database + fresh session over the updated
            // document.
            let mut fresh = reopen(session.database());
            let (sets, verdicts) = oracle(&mut fresh);
            assert_eq!(report.deltas.len(), SOURCES.len());
            for (i, out) in report.batch.outcomes.iter().enumerate() {
                assert_eq!(
                    out.selected.to_vec(),
                    sets[i],
                    "step {step} query {i}: refresh != full re-evaluation"
                );
                assert_eq!(
                    report.deltas[i].verdict, verdicts[i],
                    "step {step} query {i}"
                );
            }
            let s = &report.batch.stats;
            assert_eq!(s.backward_scans, 0, "refresh must not run a linear scan");
            assert_eq!(s.forward_scans, 0);
            // Every inserted node is recomputed; a state-preserving edit
            // (e.g. a delete whose ancestors re-intern identically) may
            // legitimately dirty nothing else.
            assert!(s.dirty_nodes >= u64::from(report.plan.inserted));
            assert!(
                s.dirty_nodes < s.nodes,
                "step {step}: refresh touched every node"
            );
            assert_eq!(s.refreshes, step as u64 + 1);
            assert_eq!(report.epoch, step as u64 + 1);
        }
    }

    #[test]
    fn memory_refresh_matches_full_reevaluation() {
        let db = Database::from_xml_str(XML).unwrap();
        check_refresh_sequence(db, |cur| {
            Database::from_tree(cur.to_tree().unwrap(), cur.labels().clone())
        });
    }

    #[test]
    fn disk_refresh_matches_full_reevaluation() {
        let dir = std::env::temp_dir().join(format!("arb-incr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("incr.arb");
        let mut labels = arb_tree::LabelTable::new();
        let tree = arb_xml::str_to_tree(XML, &mut labels).unwrap();
        arb_storage::create_from_tree(&tree, &labels, &path).unwrap();
        let db = Database::open_arb(&path).unwrap();
        check_refresh_sequence(db, move |_| Database::open_arb(&path).unwrap());
    }

    #[test]
    fn refresh_deltas_replay_to_the_new_result_set() {
        let mut db = Database::from_xml_str(XML).unwrap();
        let mut probe = Database::from_xml_str(XML).unwrap();
        let (mut sets, _) = oracle(&mut probe);
        let qs: Vec<_> = SOURCES
            .iter()
            .map(|s| db.compile_tmnf(s).expect("query compiles"))
            .collect();
        let session = db.prepare(&qs);
        let up = DocUpdate::SpliceSubtree {
            at: 2,
            xml: "<b><a/><a/></b>".into(),
        };
        let report = session.refresh(&up).expect("refresh");
        let plan = report.plan;
        for (i, delta) in report.deltas.iter().enumerate() {
            // Old set -> shift across the splice -> apply the delta.
            let mut replayed: Vec<u32> = sets[i]
                .drain(..)
                .filter_map(|id| {
                    if id.0 < plan.pos {
                        Some(id.0)
                    } else if id.0 >= plan.pos + plan.removed {
                        Some(id.0 - plan.removed + plan.inserted)
                    } else {
                        None
                    }
                })
                .filter(|ix| !delta.removed.contains(ix))
                .collect();
            replayed.extend(delta.added.iter().copied());
            replayed.sort_unstable();
            let new: Vec<u32> = report.batch.outcomes[i]
                .selected
                .to_vec()
                .into_iter()
                .map(|id| id.0)
                .collect();
            assert_eq!(replayed, new, "query {i}: delta replay diverged");
        }
    }

    #[test]
    fn refresh_rejects_external_epoch_changes() {
        let mut db = Database::from_xml_str(XML).unwrap();
        let q = db.compile_tmnf(SOURCES[0]).unwrap();
        let session = db.prepare(&[q]);
        session.prime_standing().expect("prime");
        // An update applied outside the session bumps the epoch past
        // what the standing state can absorb.
        db.apply_update(&DocUpdate::DeleteSubtree { at: 1 })
            .expect("external update");
        let err = match session.refresh(&DocUpdate::DeleteSubtree { at: 1 }) {
            Err(e) => e,
            Ok(_) => panic!("stale standing state must be rejected"),
        };
        assert!(err.to_string().contains("epoch"), "unexpected error: {err}");
    }

    #[test]
    fn refresh_rejects_fragments_with_new_tags() {
        let mut db = Database::from_xml_str(XML).unwrap();
        let q = db.compile_tmnf(SOURCES[0]).unwrap();
        let session = db.prepare(&[q]);
        let err = match session.refresh(&DocUpdate::AppendChild {
            under: 0,
            xml: "<zz/>".into(),
        }) {
            Err(e) => e,
            Ok(_) => panic!("new tags must be rejected online"),
        };
        assert!(
            err.to_string().contains("arb update"),
            "unexpected error: {err}"
        );
    }
}
