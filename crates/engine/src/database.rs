//! The `Database` handle: disk or memory, plus query compilation bound to
//! the database's label space.
//!
//! Evaluation happens through prepared [`Session`]s — see
//! [`Database::prepare`] and the [`session`](crate::session) module.

use crate::query::{choose_query_pred, Query, QueryLanguage};
use crate::session::Session;
use crate::update::{parse_fragment, tree_records, AppliedUpdate, DocUpdate};
use arb_storage::{ArbDatabase, CreationStats, FormatVersion, UpdateOp};
use arb_tree::traverse::{subtree_extents, ReversePreorder};
use arb_tree::{BinaryTree, LabelTable};
use arb_xml::XmlConfig;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Engine errors.
#[derive(Debug)]
pub enum EngineError {
    /// I/O failure.
    Io(io::Error),
    /// Query compilation failure.
    Query(String),
    /// Database creation / parsing failure.
    Create(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "I/O error: {e}"),
            EngineError::Query(m) => write!(f, "query error: {m}"),
            EngineError::Create(m) => write!(f, "database error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<io::Error> for EngineError {
    fn from(e: io::Error) -> Self {
        EngineError::Io(e)
    }
}

/// One epoch of a memory backing: the tree and, beside it, the subtree
/// extents sharded runs plan on — folded by the first run that asks for
/// them and shared by every later run of the epoch.
pub(crate) struct MemoryDoc {
    pub(crate) tree: BinaryTree,
    extents: OnceLock<(Vec<u32>, Vec<u8>)>,
}

impl MemoryDoc {
    fn new(tree: BinaryTree) -> Arc<Self> {
        Arc::new(MemoryDoc {
            tree,
            extents: OnceLock::new(),
        })
    }

    /// `(ends, kinds)` of every node (see
    /// [`arb_tree::traverse::subtree_extents`]).
    pub(crate) fn extents(&self) -> io::Result<&(Vec<u32>, Vec<u8>)> {
        if let Some(x) = self.extents.get() {
            return Ok(x);
        }
        let n = self.tree.len() as u32;
        let x = subtree_extents(&mut ReversePreorder::new(&self.tree, 0, n), n)?;
        Ok(self.extents.get_or_init(|| x))
    }
}

enum Backing {
    Disk(Box<ArbDatabase>),
    /// In-memory trees sit behind a lock so [`Database::apply_update`]
    /// can swap epochs under live sessions; readers snapshot the `Arc`
    /// and never block an update for longer than the pointer clone.
    Memory(RwLock<Arc<MemoryDoc>>),
}

/// A queryable tree database.
///
/// Owns the label table; queries are compiled against it so that label
/// tests in the query resolve to the same 14-bit indexes as the stored
/// records.
pub struct Database {
    backing: Backing,
    labels: LabelTable,
    /// Update counter of a memory backing (its epoch); disk backings
    /// read the epoch from the `.arb` header instead.
    mem_updates: AtomicU64,
}

impl Database {
    /// Opens an existing `.arb` database.
    pub fn open_arb(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        let db = ArbDatabase::open(path.as_ref().to_path_buf())?;
        Ok(Self::from_disk(db))
    }

    /// Wraps an already-open [`ArbDatabase`] handle.
    pub fn from_disk(db: ArbDatabase) -> Self {
        let labels = db.labels().clone();
        Database {
            backing: Backing::Disk(Box::new(db)),
            labels,
            mem_updates: AtomicU64::new(0),
        }
    }

    /// Creates a `.arb` database from an XML file (the paper's two-pass
    /// creation) in the default on-disk format
    /// ([`FormatVersion::V2`]), then opens it. Returns the Figure-5
    /// statistics too.
    pub fn create_arb_from_xml(
        xml_path: impl AsRef<Path>,
        arb_path: impl AsRef<Path>,
        config: &XmlConfig,
    ) -> Result<(Self, CreationStats), EngineError> {
        Self::create_arb_from_xml_with(xml_path, arb_path, config, FormatVersion::default())
    }

    /// Creates a `.arb` database from an XML file in an explicit on-disk
    /// format, then opens it.
    pub fn create_arb_from_xml_with(
        xml_path: impl AsRef<Path>,
        arb_path: impl AsRef<Path>,
        config: &XmlConfig,
        format: FormatVersion,
    ) -> Result<(Self, CreationStats), EngineError> {
        let (db, stats) = ArbDatabase::create_from_xml_file_with(
            xml_path.as_ref(),
            arb_path.as_ref(),
            config,
            format,
        )
        .map_err(|e| EngineError::Create(e.to_string()))?;
        Ok((Self::from_disk(db), stats))
    }

    /// An in-memory database parsed from an XML string.
    pub fn from_xml_str(xml: &str) -> Result<Self, EngineError> {
        let mut labels = LabelTable::new();
        let tree = arb_xml::str_to_tree(xml, &mut labels)
            .map_err(|e| EngineError::Create(e.to_string()))?;
        Ok(Database {
            backing: Backing::Memory(RwLock::new(MemoryDoc::new(tree))),
            labels,
            mem_updates: AtomicU64::new(0),
        })
    }

    /// An in-memory database from an existing tree and label table.
    pub fn from_tree(tree: BinaryTree, labels: LabelTable) -> Self {
        Database {
            backing: Backing::Memory(RwLock::new(MemoryDoc::new(tree))),
            labels,
            mem_updates: AtomicU64::new(0),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u64 {
        match &self.backing {
            Backing::Disk(db) => db.node_count() as u64,
            Backing::Memory(t) => t.read().expect("tree lock poisoned").tree.len() as u64,
        }
    }

    /// The label table.
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// The on-disk database, if this is a disk database.
    pub fn as_disk(&self) -> Option<&ArbDatabase> {
        match &self.backing {
            Backing::Disk(db) => Some(db),
            Backing::Memory(_) => None,
        }
    }

    /// A memory backing's current epoch, shared: cheap, and stable
    /// across later updates.
    pub(crate) fn as_memory(&self) -> Option<Arc<MemoryDoc>> {
        match &self.backing {
            Backing::Disk(_) => None,
            Backing::Memory(t) => Some(t.read().expect("tree lock poisoned").clone()),
        }
    }

    /// Materializes the tree (reads the whole database for disk
    /// backings; clones the current epoch's tree in memory).
    pub fn to_tree(&self) -> Result<BinaryTree, EngineError> {
        match &self.backing {
            Backing::Disk(db) => Ok(db.to_tree()?),
            Backing::Memory(t) => Ok(t.read().expect("tree lock poisoned").tree.clone()),
        }
    }

    /// The document's epoch: 0 until the first update, bumped by one per
    /// applied update. Disk backings read it from the `.arb` header (so
    /// it survives reopens); memory backings count in-process updates.
    pub fn epoch(&self) -> u64 {
        match &self.backing {
            Backing::Disk(db) => db.epoch(),
            Backing::Memory(_) => self.mem_updates.load(Ordering::SeqCst),
        }
    }

    /// Per-kind update counters `(appends, splices, deletes)` of a disk
    /// backing's header; all zero for memory backings (which only count
    /// the total, see [`Database::epoch`]).
    pub fn update_counters(&self) -> (u32, u32, u32) {
        match &self.backing {
            Backing::Disk(db) => db.update_counters(),
            Backing::Memory(_) => (0, 0, 0),
        }
    }

    /// Applies one [`DocUpdate`] to the document and returns what
    /// happened. Disk backings rewrite only the dirty record blocks of
    /// the `.arb` file in place ([`arb_storage::ArbUpdater`]) and bump
    /// the header epoch; memory backings rebuild the tree and swap it
    /// under the lock. Fragments must not introduce new tag names (see
    /// [`DocUpdate`]).
    ///
    /// Standing [`Session`]s over this database pick the
    /// edit up through [`Session::refresh`](crate::Session::refresh) —
    /// which calls this itself; call `apply_update` directly only when
    /// no standing state needs to follow along.
    pub fn apply_update(&self, update: &DocUpdate) -> Result<AppliedUpdate, EngineError> {
        let frag = match update.xml() {
            Some(xml) => parse_fragment(xml, &self.labels)?,
            None => Vec::new(),
        };
        match &self.backing {
            Backing::Disk(db) => {
                let op = match update {
                    DocUpdate::AppendChild { under, .. } => UpdateOp::AppendChild {
                        under: *under,
                        frag: &frag,
                    },
                    DocUpdate::SpliceSubtree { at, .. } => UpdateOp::SpliceSubtree {
                        at: *at,
                        frag: &frag,
                    },
                    DocUpdate::DeleteSubtree { at } => UpdateOp::DeleteSubtree { at: *at },
                };
                let report = db.apply_update(&op)?;
                Ok(AppliedUpdate {
                    plan: report.plan,
                    frag,
                    new_nodes: report.new_nodes,
                    epoch: report.epoch,
                    retained_blocks: report.retained_blocks,
                })
            }
            Backing::Memory(lock) => {
                let mut guard = lock.write().expect("tree lock poisoned");
                let mut records = tree_records(&guard.tree);
                let (ends, kinds) = arb_storage::record_extents(&records)?;
                let plan = match update {
                    DocUpdate::AppendChild { under, .. } => arb_storage::plan_append(
                        &records,
                        &ends,
                        &kinds,
                        *under,
                        frag.len() as u32,
                    )?,
                    DocUpdate::SpliceSubtree { at, .. } => {
                        arb_storage::plan_splice(&records, &ends, &kinds, *at, frag.len() as u32)?
                    }
                    DocUpdate::DeleteSubtree { at } => {
                        arb_storage::plan_delete(&records, &ends, &kinds, *at)?
                    }
                };
                arb_storage::apply_edit(&mut records, &plan, &frag);
                let tree = arb_storage::records_to_tree(&records)?;
                *guard = MemoryDoc::new(tree);
                let epoch = self.mem_updates.fetch_add(1, Ordering::SeqCst) + 1;
                Ok(AppliedUpdate {
                    plan,
                    frag,
                    new_nodes: records.len() as u32,
                    epoch,
                    retained_blocks: 0,
                })
            }
        }
    }

    /// Compiles a TMNF (Arb surface syntax) query against this database.
    /// The query predicate is `QUERY` if such a predicate exists, else
    /// the head of the last rule — in which case the returned query's
    /// `implicit_query_pred` names the predicate that was chosen.
    pub fn compile_tmnf(&mut self, src: &str) -> Result<Query, EngineError> {
        let ast = arb_tmnf::parse_program(src, &mut self.labels)
            .map_err(|e| EngineError::Query(e.to_string()))?;
        let mut prog = arb_tmnf::normalize(&ast);
        let implicit_query_pred = choose_query_pred(&mut prog);
        let prog = arb_tmnf::optimize(&prog);
        Ok(Query {
            prog,
            language: QueryLanguage::Tmnf,
            source: src.to_string(),
            implicit_query_pred,
        })
    }

    /// Compiles a Core XPath query against this database.
    pub fn compile_xpath(&mut self, src: &str) -> Result<Query, EngineError> {
        let prog = arb_xpath::compile(src, &mut self.labels)
            .map_err(|e| EngineError::Query(e.to_string()))?;
        let prog = arb_tmnf::optimize(&prog);
        Ok(Query {
            prog,
            language: QueryLanguage::XPath,
            source: src.to_string(),
            implicit_query_pred: None,
        })
    }

    /// Prepares compiled queries for evaluation: merges them into one
    /// multi-query program (a single query is a batch of one) and binds
    /// the resulting [`Session`] to this database. The queries must have
    /// been compiled against *this* database (see
    /// [`QueryBatch::new`](crate::QueryBatch::new)).
    pub fn prepare(&self, queries: &[Query]) -> Session<'_> {
        Session::new(self, queries)
    }

    /// Prepares an existing [`QueryBatch`](crate::QueryBatch) (e.g. one
    /// built from raw programs with
    /// [`QueryBatch::from_programs`](crate::QueryBatch::from_programs)).
    pub fn prepare_batch<'db>(&'db self, batch: &'db crate::QueryBatch) -> Session<'db> {
        Session::over(self, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_database_end_to_end() {
        let mut db = Database::from_xml_str("<r><a/><b><a>t</a></b></r>").unwrap();
        let q = db.compile_tmnf("QUERY :- V.Label[a];").unwrap();
        let session = db.prepare(std::slice::from_ref(&q));
        let outcome = session.run_one().unwrap();
        assert_eq!(outcome.stats.selected, 2);
        assert_eq!(outcome.per_pred_counts, vec![2]);

        let mut buf = Vec::new();
        session.run_marked(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(
            s,
            "<r><a arb:selected=\"true\"></a><b><a arb:selected=\"true\">t</a></b></r>"
        );
    }

    #[test]
    fn disk_and_memory_agree() {
        let xml = "<doc><x><y/>ab</x><x/></doc>";
        let dir = std::env::temp_dir().join(format!("arb-dbx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let xml_path = dir.join("d.xml");
        std::fs::write(&xml_path, xml).unwrap();
        let (mut disk, stats) =
            Database::create_arb_from_xml(&xml_path, dir.join("d.arb"), &XmlConfig::default())
                .unwrap();
        assert_eq!(stats.nodes(), disk.node_count());

        let mut mem = Database::from_xml_str(xml).unwrap();
        let src = "QUERY :- V.Label[x], HasFirstChild;";
        let qd = disk.compile_tmnf(src).unwrap();
        let qm = mem.compile_tmnf(src).unwrap();
        let sd = disk.prepare(std::slice::from_ref(&qd));
        let sm = mem.prepare(std::slice::from_ref(&qm));
        let od = sd.run_one().unwrap();
        let om = sm.run_one().unwrap();
        assert_eq!(od.stats.selected, om.stats.selected);
        assert_eq!(od.selected.to_vec(), om.selected.to_vec());

        let mut bd = Vec::new();
        let mut bm = Vec::new();
        sd.run_marked(&mut bd).unwrap();
        sm.run_marked(&mut bm).unwrap();
        assert_eq!(bd, bm);
    }
}
