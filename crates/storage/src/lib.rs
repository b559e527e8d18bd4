//! # arb-storage
//!
//! The Arb storage model for binary trees on disk (paper Section 5).
//!
//! Each node is a 2-byte logical record: the two highest bits say
//! whether the node has a first and/or second child, the remaining 14
//! bits hold the label index. Records are stored in **preorder**. Label
//! names live in a separate `.lab` file; database creation streams SAX
//! events to a temporary `.evt` file (forward pass) and then writes the
//! record file **backwards** while reading the events backwards — the
//! trick that bounds memory by the *XML* (unranked) depth rather than the
//! (potentially huge) sibling-chain depth of the binary tree.
//!
//! Proposition 5.1: the binary tree can be traversed
//! * **top-down** by one forward linear scan, and
//! * **bottom-up** by one backward linear scan,
//!
//! each with a stack of size `O(depth(XML tree))`. [`traversal`]
//! implements both as generic drivers; [`crate::db::ArbDatabase`] ties
//! everything together.
//!
//! ## On-disk format versions
//!
//! Two `.arb` layouts exist behind the same scan API; `ArbDatabase::open`
//! sniffs which one a file uses, and creation takes a
//! [`FormatVersion`] (default [`FormatVersion::V2`]):
//!
//! * **v1** — the paper's layout verbatim: a bare array of `n` 2-byte
//!   records, nothing else. No magic, no version, no checksums: a
//!   crashed creation or truncated copy is indistinguishable from a
//!   valid database and used to open (and answer queries) silently.
//!   See [`mod@format`].
//! * **v2** — a 64-byte checksummed header (magic, version, node and
//!   tag counts, section offsets), the records delta/varint-encoded in
//!   blocks of 32 Ki records — each block framed with a record count,
//!   body length and CRC32 — followed by a windowed **extent section**
//!   (per-node subtree ends + child flags, materialized at creation
//!   time, CRC32 per 16 Ki-node window) and a checksummed **block
//!   index** that lets `[lo, hi)` range scans seek straight to the
//!   right block. Truncation, bit flips, checksum damage and crashed
//!   creations are all rejected at open or scan time with
//!   `InvalidData`. See [`v2`] for the exact byte layout and [`frame`]
//!   for the block frame and index grammar.
//!
//! ## The `.sta` state stream
//!
//! Two-phase evaluation writes one state id per node to a temporary
//! `.sta` stream during the backward phase-1 scan and reads it back in
//! lockstep with the forward phase-2 scan. Like `.arb` records it has
//! two layouts behind one API ([`StaFormat`], default blocked,
//! `ARB_STA_FORMAT=flat` for the paper's bare 4-bytes-per-node array):
//! the blocked layout groups states into fixed-record-count blocks, each
//! in the same [`frame`] block frame as a v2 record block, with a
//! body of LEB128 varint tokens — delta-coded literals, run-length runs,
//! and a **skip-default** run token eliding nodes whose state equals the
//! block's most frequent state. Sharded runs compose out of per-worker
//! segment side files plus a spine patch file; see [`stafile`] for the
//! exact byte layout and the sharding story.
//!
//! ## One framing layer
//!
//! Both layouts share [`frame`]: the `{n_records, body_len, crc32}`
//! block frame, the CRC'd offset index that makes blocks seekable,
//! CRC-32 itself and the LEB128 varint / zigzag codec. Every frame and
//! index on disk is written and parsed there, with the record count,
//! body bound, checksum and index arithmetic checked in one place; the
//! codecs in [`v2`] and [`stafile`] own only what goes inside a body.
//!
//! ## In-place updates
//!
//! v2 databases are updatable: [`ArbUpdater`] (and
//! [`ArbDatabase::apply_update`] on an open handle) appends, splices and
//! deletes subtrees by rewriting only the record blocks from the edit's
//! dirty point on, crash-safe via the same placeholder-header discipline
//! as creation. Each update bumps a per-kind counter in the header; the
//! sum is the file's **epoch**, which open handles use to invalidate
//! their block LRU and extent caches. v2 files from before the update
//! API carry zero counters and open unchanged at epoch 0. See
//! [`update`].

pub mod create;
pub mod db;
pub mod evt;
pub mod format;
pub mod frame;
pub mod rev;
pub mod scan;
pub mod stafile;
pub mod stats;
pub mod traversal;
pub mod update;
pub mod v2;

pub use create::{
    create_from_tree, create_from_tree_with, create_from_xml, create_from_xml_with, CreationStats,
    FormatVersion,
};
pub use db::{ArbDatabase, ExtentVecs};
pub use format::NodeRecord;
pub use scan::{BackwardScan, ForwardScan};
pub use stafile::{rewrite_blocked, sweep_stale_scratch, ScratchPath, StaFormat, StaRewrite};
pub use stats::{profile, Profile};
pub use traversal::{bottom_up_scan, subtree_extents, top_down_scan, DownContext};
pub use update::{
    apply_edit, plan_append, plan_delete, plan_splice, record_extents, records_to_tree,
    validate_fragment, ArbUpdater, EditPlan, UpdateOp, UpdateReport,
};
