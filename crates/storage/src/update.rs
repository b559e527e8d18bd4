//! In-place updates for v2 `.arb` files (and the pure record-level
//! surgery they are built from).
//!
//! An update edits the preorder record stream: `splice_subtree` replaces
//! one node's *unranked* subtree with a fragment, `append_subtree` adds
//! a fragment as a node's new last child, `delete_subtree` removes an
//! unranked subtree. Because the storage model is positional (first
//! child at `v+1`, next sibling at the end of `v`'s unranked subtree),
//! an edit at position `p` can change at most **one** record below `p`
//! — the referencer whose `has_first`/`has_second` flag points at the
//! edit site — and shifts everything at and above `p`. Record blocks
//! wholly below the first changed record are therefore retained
//! byte-for-byte on disk; only the blocks from the dirty point on are
//! re-encoded (the varint stream is block-relative, so retained and
//! rewritten blocks compose freely). The extent section and block index
//! move with the file length and are always regenerated.
//!
//! Crash safety mirrors creation: the header is stamped with the
//! placeholder version before the first dirty byte is written and
//! re-stamped — with the matching update counter bumped — only after
//! every section is back on disk. A torn update is rejected at open.
//!
//! The *unranked* subtree of `v` spans the records `[v, usub_end(v))`
//! where `usub_end(v) = has_first(v) ? ends[v+1] : v+1` — the binary
//! subtree of `v`'s first child is exactly `v`'s unranked descendants.
//! `v`'s next sibling (its binary second child) sits at the same
//! offset, which is what makes these edits purely positional.

use crate::format::NodeRecord;
use crate::frame;
use crate::v2::{self, Header};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn bad_input(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.into())
}

/// One past the last record of `v`'s **unranked** subtree.
#[inline]
pub fn usub_end(ends: &[u32], kinds: &[u8], v: u32) -> u32 {
    if kinds[v as usize] & 1 != 0 {
        ends[v as usize + 1]
    } else {
        v + 1
    }
}

/// Checks that `frag` is one well-formed single-subtree record sequence:
/// non-empty, child flags consistent (every claimed child exists, no
/// dangling records), and the root claims no next sibling — the edit
/// site decides the root's `has_second`.
pub fn validate_fragment(frag: &[NodeRecord]) -> io::Result<()> {
    if frag.is_empty() {
        return Err(bad_input("empty update fragment"));
    }
    if frag[0].has_second {
        return Err(bad_input(
            "fragment root claims a next sibling (the edit site decides that flag)",
        ));
    }
    let (_, _) = record_extents(frag)?;
    Ok(())
}

/// Per-node subtree extents and child-kind flags of a record slice, by
/// the in-memory mirror of [`crate::traversal::subtree_extents`]. Errors
/// if the records do not describe exactly one well-formed tree.
pub fn record_extents(records: &[NodeRecord]) -> io::Result<(Vec<u32>, Vec<u8>)> {
    let n = records.len();
    let mut ends = vec![0u32; n];
    let mut kinds = vec![0u8; n];
    let mut stack: Vec<u32> = Vec::new();
    for ix in (0..n).rev() {
        let rec = records[ix];
        // First child on top of the stack when reading backwards.
        let s1 = if rec.has_first { stack.pop() } else { None };
        let s2 = if rec.has_second { stack.pop() } else { None };
        if (rec.has_first && s1.is_none()) || (rec.has_second && s2.is_none()) {
            return Err(invalid(format!("record {ix} claims a missing child")));
        }
        let end = s2.or(s1).unwrap_or(ix as u32 + 1);
        ends[ix] = end;
        kinds[ix] = rec.has_first as u8 | ((rec.has_second as u8) << 1);
        stack.push(end);
    }
    if stack.len() != 1 {
        return Err(invalid(format!(
            "records describe {} trees, not one",
            stack.len()
        )));
    }
    Ok((ends, kinds))
}

/// Rebuilds an in-memory [`arb_tree::BinaryTree`] from a preorder record
/// slice — the memory backend's half of an update (the record-level
/// surgery is shared; only the persistence differs).
pub fn records_to_tree(records: &[NodeRecord]) -> io::Result<arb_tree::BinaryTree> {
    use arb_tree::NONE;
    let n = records.len();
    let mut lab = vec![arb_tree::LabelId(0); n];
    let mut first = vec![NONE; n];
    let mut second = vec![NONE; n];
    let mut stack: Vec<u32> = Vec::new();
    for ix in (0..n).rev() {
        let rec = records[ix];
        lab[ix] = rec.label;
        if rec.has_first {
            first[ix] = stack.pop().ok_or_else(|| invalid("missing first child"))?;
        }
        if rec.has_second {
            second[ix] = stack.pop().ok_or_else(|| invalid("missing second child"))?;
        }
        stack.push(ix as u32);
    }
    if stack.len() != 1 {
        return Err(invalid("records describe more than one tree"));
    }
    arb_tree::BinaryTree::from_parts(lab, first, second).map_err(invalid)
}

/// A planned record-level edit: replace `[pos, pos + removed)` with
/// `inserted` fragment records, after patching at most one record below
/// `pos` (`flag_node`, the referencer whose child flag the edit flips).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditPlan {
    /// First record of the replaced window (also the fragment position).
    pub pos: u32,
    /// Records removed at `pos`.
    pub removed: u32,
    /// Fragment records inserted at `pos`.
    pub inserted: u32,
    /// `(index, new record)` of the one record below `pos` whose child
    /// flag the edit changes, if any.
    pub flag_node: Option<(u32, NodeRecord)>,
    /// `has_second` the fragment root inherits at `pos` (whether the
    /// edited site has a next sibling).
    pub frag_root_second: bool,
}

impl EditPlan {
    /// First record index the edit changes — where the on-disk dirty
    /// region (and the dirty spine of incremental re-evaluation) starts.
    pub fn dirty_from(&self) -> u32 {
        match self.flag_node {
            Some((ix, _)) => ix.min(self.pos),
            None => self.pos,
        }
    }
}

fn check_node(n: usize, v: u32, what: &str) -> io::Result<()> {
    if (v as usize) < n {
        Ok(())
    } else {
        Err(bad_input(format!(
            "{what} {v} outside the {n}-record database"
        )))
    }
}

/// Plans replacing the unranked subtree at `at` with a `frag_len`-record
/// fragment. No record below `at` changes: the fragment root inherits
/// `at`'s next-sibling flag, and `at`'s referencer keeps pointing at the
/// same position.
pub fn plan_splice(
    records: &[NodeRecord],
    ends: &[u32],
    kinds: &[u8],
    at: u32,
    frag_len: u32,
) -> io::Result<EditPlan> {
    check_node(records.len(), at, "splice target")?;
    let end = usub_end(ends, kinds, at);
    Ok(EditPlan {
        pos: at,
        removed: end - at,
        inserted: frag_len,
        flag_node: None,
        frag_root_second: records[at as usize].has_second,
    })
}

/// Plans appending a `frag_len`-record fragment as the new **last
/// child** of `under`: the fragment lands after the current last child's
/// unranked subtree (or at `under + 1` for a childless node), and that
/// one referencer gains a child flag.
pub fn plan_append(
    records: &[NodeRecord],
    ends: &[u32],
    kinds: &[u8],
    under: u32,
    frag_len: u32,
) -> io::Result<EditPlan> {
    check_node(records.len(), under, "append target")?;
    if records[under as usize].label.is_text() {
        return Err(bad_input(format!(
            "append target {under} is a character node"
        )));
    }
    if !records[under as usize].has_first {
        let mut rec = records[under as usize];
        rec.has_first = true;
        return Ok(EditPlan {
            pos: under + 1,
            removed: 0,
            inserted: frag_len,
            flag_node: Some((under, rec)),
            frag_root_second: false,
        });
    }
    // Walk the child chain to the last child.
    let mut c = under + 1;
    while kinds[c as usize] & 2 != 0 {
        c = usub_end(ends, kinds, c);
    }
    let mut rec = records[c as usize];
    rec.has_second = true;
    Ok(EditPlan {
        pos: usub_end(ends, kinds, c),
        removed: 0,
        inserted: frag_len,
        flag_node: Some((c, rec)),
        frag_root_second: false,
    })
}

/// Plans deleting the unranked subtree at `at`. With a next sibling the
/// removal is purely positional (the sibling slides into `at`'s slot);
/// without one, `at`'s referencer — found by descending the binary
/// ancestor path from the root, O(depth) — loses its child flag.
pub fn plan_delete(
    records: &[NodeRecord],
    ends: &[u32],
    kinds: &[u8],
    at: u32,
) -> io::Result<EditPlan> {
    check_node(records.len(), at, "delete target")?;
    if at == 0 {
        return Err(bad_input("cannot delete the document root"));
    }
    let end = usub_end(ends, kinds, at);
    let flag_node = if records[at as usize].has_second {
        None
    } else {
        let p = binary_parent(ends, kinds, at)?;
        let mut rec = records[p as usize];
        if p + 1 == at && rec.has_first {
            rec.has_first = false;
        } else {
            rec.has_second = false;
        }
        Some((p, rec))
    };
    Ok(EditPlan {
        pos: at,
        removed: end - at,
        inserted: 0,
        flag_node,
        frag_root_second: false,
    })
}

/// The binary parent of `at` (the node whose first- or second-child
/// position is `at`), by descent from the root along binary subtree
/// windows.
fn binary_parent(ends: &[u32], kinds: &[u8], at: u32) -> io::Result<u32> {
    let mut cur = 0u32;
    loop {
        let first = (kinds[cur as usize] & 1 != 0).then_some(cur + 1);
        let second = (kinds[cur as usize] & 2 != 0).then(|| usub_end(ends, kinds, cur));
        if first == Some(at) || second == Some(at) {
            return Ok(cur);
        }
        cur = match (first, second) {
            (Some(f), _) if at < ends[f as usize] => f,
            (_, Some(s)) if at >= s && at < ends[s as usize] => s,
            _ => {
                return Err(invalid(format!(
                    "node {at} unreachable from the root (corrupt extents?)"
                )))
            }
        };
    }
}

/// Applies a planned edit to the record vector: patches the referencer,
/// then splices the fragment (with the root's inherited next-sibling
/// flag) over the removed window.
pub fn apply_edit(records: &mut Vec<NodeRecord>, plan: &EditPlan, frag: &[NodeRecord]) {
    if let Some((ix, rec)) = plan.flag_node {
        records[ix as usize] = rec;
    }
    let mut patched: Vec<NodeRecord> = frag.to_vec();
    if let Some(root) = patched.first_mut() {
        root.has_second = plan.frag_root_second;
    }
    let lo = plan.pos as usize;
    records.splice(lo..lo + plan.removed as usize, patched);
}

/// One update operation, as a value — what [`crate::db::ArbDatabase::apply_update`]
/// and the engine's update plumbing pass around. Fragments are
/// pre-interned record slices (label resolution happens at the layer
/// that owns the label table).
#[derive(Debug, Clone, Copy)]
pub enum UpdateOp<'a> {
    /// Append `frag` as the new last child of `under`.
    AppendChild {
        /// Preorder index of the parent-to-be.
        under: u32,
        /// The fragment records.
        frag: &'a [NodeRecord],
    },
    /// Replace the unranked subtree at `at` with `frag`.
    SpliceSubtree {
        /// Preorder index of the subtree root to replace.
        at: u32,
        /// The fragment records.
        frag: &'a [NodeRecord],
    },
    /// Delete the unranked subtree at `at`.
    DeleteSubtree {
        /// Preorder index of the subtree root to remove.
        at: u32,
    },
}

/// Outcome of one applied update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// The planned edit (positions in the **new** index space for the
    /// window; `flag_node` below `pos` is unshifted).
    pub plan: EditPlan,
    /// Node count before the update.
    pub old_nodes: u32,
    /// Node count after the update.
    pub new_nodes: u32,
    /// The file's epoch after the update.
    pub epoch: u64,
    /// Record blocks retained byte-for-byte on disk.
    pub retained_blocks: u32,
    /// Record blocks (re)written.
    pub rewritten_blocks: u32,
}

/// In-place updater for one v2 `.arb` file. Holds the decoded record
/// stream and extents in memory (O(n) — the same order as one
/// evaluation's node sets), applies edits, and rewrites only the record
/// blocks from each edit's dirty point on. **Not** coordinated with
/// concurrent readers of the same file: callers (the engine's
/// `Database::apply_update`, the server's write lock) serialize access.
pub struct ArbUpdater {
    path: PathBuf,
    header: Header,
    /// File offsets of the current record blocks.
    offsets: Vec<u64>,
    records: Vec<NodeRecord>,
    ends: Vec<u32>,
    kinds: Vec<u8>,
}

impl ArbUpdater {
    /// Opens a v2 file for updating, decoding all record blocks and
    /// extents. v1 files are rejected — updates are a v2 feature.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut f = File::open(&path)?;
        let file_len = f.metadata()?.len();
        let mut magic = [0u8; 8];
        if file_len < 8 {
            return Err(invalid("file too short to be a v2 .arb database"));
        }
        f.read_exact(&mut magic)?;
        if magic != v2::MAGIC {
            return Err(bad_input(
                "in-place updates require format v2 (recreate the database with --format v2)",
            ));
        }
        let meta = v2::read_meta(&mut f, file_len)?;
        let n = meta.header.node_count;
        let mut records = Vec::with_capacity(n as usize);
        let mut scratch = Vec::new();
        let mut block = Vec::new();
        for (b, &off) in meta.map.offsets.iter().enumerate() {
            v2::read_block(
                &mut f,
                off,
                meta.map.records_in(b as u32),
                &mut scratch,
                &mut block,
            )?;
            records.extend_from_slice(&block);
        }
        let mut ends = Vec::with_capacity(n as usize);
        let mut kinds = Vec::with_capacity(n as usize);
        for w in 0..v2::extent_windows(n) {
            let (e, k) = v2::read_extent_window(
                &mut f,
                meta.header.extent_offset,
                n,
                w,
                meta.header.extent_format,
            )?;
            ends.extend_from_slice(&e);
            kinds.extend_from_slice(&k);
        }
        Ok(ArbUpdater {
            path,
            header: meta.header,
            offsets: meta.map.offsets.clone(),
            records,
            ends,
            kinds,
        })
    }

    /// Current node count.
    pub fn node_count(&self) -> u32 {
        self.records.len() as u32
    }

    /// Current epoch (updates ever applied to the file).
    pub fn epoch(&self) -> u64 {
        self.header.epoch()
    }

    /// Current decoded records (for callers planning edits themselves).
    pub fn records(&self) -> &[NodeRecord] {
        &self.records
    }

    /// Current extents `(ends, kinds)`.
    pub fn extents(&self) -> (&[u32], &[u8]) {
        (&self.ends, &self.kinds)
    }

    /// Declares the tag count of the (caller-rewritten) `.lab` file —
    /// for updates whose fragment interned new labels. Takes effect on
    /// the next applied update.
    pub fn set_tag_count(&mut self, tag_count: u32) {
        self.header.tag_count = tag_count;
    }

    /// Replaces the unranked subtree at `at` with `frag`.
    pub fn splice_subtree(&mut self, at: u32, frag: &[NodeRecord]) -> io::Result<UpdateReport> {
        validate_fragment(frag)?;
        let plan = plan_splice(
            &self.records,
            &self.ends,
            &self.kinds,
            at,
            frag.len() as u32,
        )?;
        self.commit(plan, frag, |h| h.splices += 1)
    }

    /// Appends `frag` as the new last child of `under`.
    pub fn append_subtree(&mut self, under: u32, frag: &[NodeRecord]) -> io::Result<UpdateReport> {
        validate_fragment(frag)?;
        let plan = plan_append(
            &self.records,
            &self.ends,
            &self.kinds,
            under,
            frag.len() as u32,
        )?;
        self.commit(plan, frag, |h| h.appends += 1)
    }

    /// Deletes the unranked subtree at `at` (the root is not deletable).
    pub fn delete_subtree(&mut self, at: u32) -> io::Result<UpdateReport> {
        let plan = plan_delete(&self.records, &self.ends, &self.kinds, at)?;
        self.commit(plan, &[], |h| h.deletes += 1)
    }

    /// Applies one [`UpdateOp`] (value-form dispatch over the three
    /// operations above).
    pub fn apply(&mut self, op: &UpdateOp<'_>) -> io::Result<UpdateReport> {
        match *op {
            UpdateOp::AppendChild { under, frag } => self.append_subtree(under, frag),
            UpdateOp::SpliceSubtree { at, frag } => self.splice_subtree(at, frag),
            UpdateOp::DeleteSubtree { at } => self.delete_subtree(at),
        }
    }

    /// Applies a planned edit in memory and rewrites the file from the
    /// first dirty block on, placeholder-header first.
    fn commit(
        &mut self,
        plan: EditPlan,
        frag: &[NodeRecord],
        bump: impl FnOnce(&mut Header),
    ) -> io::Result<UpdateReport> {
        let old_nodes = self.records.len() as u32;
        let new_len = self.records.len() as u64 - plan.removed as u64 + plan.inserted as u64;
        if new_len > u32::MAX as u64 {
            return Err(bad_input("update would exceed 2^32 nodes"));
        }
        if new_len == 0 {
            return Err(bad_input("update would empty the database"));
        }
        apply_edit(&mut self.records, &plan, frag);
        let (ends, kinds) = record_extents(&self.records)?;
        self.ends = ends;
        self.kinds = kinds;

        let r = self.header.block_records;
        let retained = (plan.dirty_from() / r).min(self.offsets.len() as u32);
        let new_blocks = (self.records.len() as u64).div_ceil(r as u64) as u32;

        let mut f = OpenOptions::new().read(true).write(true).open(&self.path)?;
        // Invalidate: real magic, placeholder version — a crash from
        // here on is rejected at open, exactly like a torn creation.
        let mut ph = [0u8; v2::HEADER_BYTES];
        ph[0..8].copy_from_slice(&v2::MAGIC);
        ph[8..10].copy_from_slice(&u16::MAX.to_le_bytes());
        f.seek(SeekFrom::Start(0))?;
        f.write_all(&ph)?;

        // Rewrite record blocks from the dirty one on, at the retained
        // prefix's end (block offsets below `retained` are unchanged).
        let mut pos = if (retained as usize) < self.offsets.len() {
            self.offsets[retained as usize]
        } else {
            self.header.extent_offset
        };
        self.offsets.truncate(retained as usize);
        f.seek(SeekFrom::Start(pos))?;
        let mut out = io::BufWriter::with_capacity(256 * 1024, &mut f);
        let mut body = Vec::new();
        for b in retained..new_blocks {
            let lo = b as usize * r as usize;
            let hi = (lo + r as usize).min(self.records.len());
            v2::encode_block(&self.records[lo..hi], &mut body);
            self.offsets.push(pos);
            pos += frame::put_frame(&mut out, (hi - lo) as u32, &body)?;
        }
        let extent_offset = pos;
        let section = v2::build_extent_section(&self.ends, &self.kinds, extent_offset);
        out.write_all(&section)?;
        pos += section.len() as u64;
        let index_offset = pos;
        pos += frame::put_index(&mut out, &self.offsets)?;
        out.flush()?;
        drop(out);
        f.set_len(pos)?;

        bump(&mut self.header);
        self.header.node_count = self.records.len() as u32;
        self.header.block_count = new_blocks;
        self.header.extent_offset = extent_offset;
        self.header.index_offset = index_offset;
        self.header.extent_format = v2::ExtentFormat::Compressed;
        f.seek(SeekFrom::Start(0))?;
        f.write_all(&self.header.to_bytes())?;
        f.flush()?;

        Ok(UpdateReport {
            plan,
            old_nodes,
            new_nodes: self.records.len() as u32,
            epoch: self.header.epoch(),
            retained_blocks: retained,
            rewritten_blocks: new_blocks - retained,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::create::FormatVersion;
    use crate::db::ArbDatabase;
    use arb_tree::LabelTable;
    use arb_xml::XmlConfig;
    use std::io::Cursor;
    use std::path::Path;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("arb-upd-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn create(xml: &str, name: &str) -> PathBuf {
        let arb = tmp(name);
        crate::create::create_from_xml_with(
            Cursor::new(xml.as_bytes()),
            &XmlConfig::default(),
            &arb,
            FormatVersion::V2,
        )
        .unwrap();
        arb
    }

    /// Parses fragment XML against the database's label table, rewriting
    /// the `.lab` file and declaring the new tag count on the updater if
    /// the fragment interned new tags — the offline-update label flow.
    fn frag(arb: &Path, u: &mut ArbUpdater, xml: &str) -> Vec<NodeRecord> {
        let db = ArbDatabase::open(arb).unwrap();
        let mut labels = db.labels().clone();
        let tree = arb_xml::str_to_tree(xml, &mut labels).unwrap();
        if labels.tag_count() != db.labels().tag_count() {
            std::fs::write(crate::create::sibling(arb, "lab"), labels.to_lab_string()).unwrap();
        }
        u.set_tag_count(labels.tag_count() as u32);
        tree_records(&tree)
    }

    fn tree_records(tree: &arb_tree::BinaryTree) -> Vec<NodeRecord> {
        tree.nodes()
            .map(|v| {
                let info = tree.info(v);
                NodeRecord {
                    label: info.label,
                    has_first: info.has_first,
                    has_second: info.has_second,
                }
            })
            .collect()
    }

    /// The updated file must byte-for-byte describe the same tree as a
    /// fresh creation of the edited XML.
    fn assert_same_tree(arb: &Path, xml: &str) {
        let db = ArbDatabase::open(arb).unwrap();
        let tree = db.to_tree().unwrap();
        let mut lt = LabelTable::new();
        let direct = arb_xml::str_to_tree(xml, &mut lt).unwrap();
        assert_eq!(tree.len(), direct.len(), "node count after update");
        for v in tree.nodes() {
            assert_eq!(tree.has_first(v), direct.has_first(v), "node {}", v.0);
            assert_eq!(tree.has_second(v), direct.has_second(v), "node {}", v.0);
            assert_eq!(
                db.labels().name(tree.label(v)),
                lt.name(direct.label(v)),
                "node {}",
                v.0
            );
        }
        db.validate().unwrap();
        // Extents must equal a from-scratch recomputation.
        let recomputed = record_extents(&tree_records(&tree)).unwrap();
        let cached = db.subtree_extents().unwrap();
        assert_eq!(cached.ends, recomputed.0);
        assert_eq!(cached.kinds, recomputed.1);
    }

    #[test]
    fn splice_replaces_a_subtree() {
        // <doc><a><b/>x</a><c/></doc>: a at 1, c at 5.
        let arb = create("<doc><a><b/>x</a><c/></doc>", "sp1.arb");
        let mut u = ArbUpdater::open(&arb).unwrap();
        assert_eq!(u.epoch(), 0);
        let f = frag(&arb, &mut u, "<p><q/></p>");
        let rep = u.splice_subtree(1, &f).unwrap();
        assert_eq!(rep.plan.pos, 1);
        assert_eq!(rep.plan.removed, 3);
        assert_eq!(rep.plan.inserted, 2);
        assert_eq!(rep.epoch, 1);
        assert_same_tree(&arb, "<doc><p><q/></p><c/></doc>");
    }

    #[test]
    fn append_under_childless_and_after_last_child() {
        let arb = create("<doc><a/><c/></doc>", "ap1.arb");
        let mut u = ArbUpdater::open(&arb).unwrap();
        let f = frag(&arb, &mut u, "<c/>");
        // Childless: <a/> gains its first child.
        let rep = u.append_subtree(1, &f).unwrap();
        assert_eq!(rep.plan.flag_node.map(|(ix, _)| ix), Some(1));
        assert_same_tree(&arb, "<doc><a><c/></a><c/></doc>");
        // With children: doc's last child chain ends at the trailing <c/>.
        let rep = u.append_subtree(0, &f).unwrap();
        assert_eq!(rep.epoch, 2);
        assert_same_tree(&arb, "<doc><a><c/></a><c/><c/></doc>");
    }

    #[test]
    fn delete_with_and_without_sibling() {
        let arb = create("<doc><a><b/></a><c/><d/></doc>", "dl1.arb");
        let mut u = ArbUpdater::open(&arb).unwrap();
        // <a> has a next sibling: purely positional removal.
        let rep = u.delete_subtree(1).unwrap();
        assert!(rep.plan.flag_node.is_none());
        assert_same_tree(&arb, "<doc><c/><d/></doc>");
        // <d> (last child): its referencer <c> loses has_second.
        let rep = u.delete_subtree(2).unwrap();
        assert_eq!(rep.plan.flag_node.map(|(ix, _)| ix), Some(1));
        assert_same_tree(&arb, "<doc><c/></doc>");
        // Deleting the last remaining child clears the root's has_first.
        let rep = u.delete_subtree(1).unwrap();
        assert_eq!(rep.plan.flag_node.map(|(ix, _)| ix), Some(0));
        assert_same_tree(&arb, "<doc></doc>");
        assert!(u.delete_subtree(0).is_err(), "root is not deletable");
        assert_eq!(u.epoch(), 3);
    }

    #[test]
    fn updates_only_rewrite_dirty_blocks() {
        // Two blocks; edit a subtree in the second block.
        let inner = "<a/>".repeat(v2::BLOCK_RECORDS as usize + 64);
        let xml = format!("<doc>{inner}</doc>");
        let arb = create(&xml, "blk1.arb");
        let mut u = ArbUpdater::open(&arb).unwrap();
        let n = u.node_count();
        let f = frag(&arb, &mut u, "<a><a/></a>");
        let rep = u.splice_subtree(n - 1, &f).unwrap();
        assert_eq!(rep.retained_blocks, 1, "block 0 is untouched");
        assert_eq!(rep.rewritten_blocks, 1);
        let db = ArbDatabase::open(&arb).unwrap();
        assert_eq!(db.node_count(), n + 1);
        assert_eq!(db.epoch(), 1);
        db.validate().unwrap();
    }

    #[test]
    fn fragment_validation_rejects_malformed_input() {
        let arb = create("<doc><a/></doc>", "bad1.arb");
        let mut u = ArbUpdater::open(&arb).unwrap();
        assert!(u.splice_subtree(1, &[]).is_err(), "empty fragment");
        let dangling = [NodeRecord {
            label: arb_tree::LabelId(300),
            has_first: true,
            has_second: false,
        }];
        assert!(u.splice_subtree(1, &dangling).is_err(), "missing child");
        let sibling_root = [NodeRecord {
            label: arb_tree::LabelId(300),
            has_first: false,
            has_second: true,
        }];
        assert!(
            u.splice_subtree(1, &sibling_root).is_err(),
            "root with next-sibling flag"
        );
        let ok = frag(&arb, &mut u, "<a/>");
        assert!(u.splice_subtree(99, &ok).is_err());
        assert!(u.delete_subtree(99).is_err());
    }

    #[test]
    fn v1_files_are_rejected() {
        let arb = tmp("v1.arb");
        crate::create::create_from_xml_with(
            Cursor::new(b"<doc><a/></doc>".as_slice()),
            &XmlConfig::default(),
            &arb,
            FormatVersion::V1,
        )
        .unwrap();
        let err = ArbUpdater::open(&arb).err().expect("v1 must be rejected");
        assert!(err.to_string().contains("v2"), "{err}");
    }
}
