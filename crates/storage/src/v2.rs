//! `.arb` format **v2**: versioned, block-compressed, checksummed records.
//!
//! Format v1 (the paper's layout) is a bare array of 2-byte records — no
//! magic, no version, no checksum. A crash during its backward creation
//! pass leaves a full-size zero-prefixed file that opens silently and
//! returns wrong answers, and its per-record 2-byte reads bound phase-1
//! decode throughput. v2 keeps the logical record stream (and with it
//! Proposition 5.1's two-linear-scans property) but reframes the bytes:
//!
//! ```text
//! ┌──────────────────────── header (64 bytes) ─────────────────────────┐
//! │  0..8   magic  "ArbDBv2\0"                                         │
//! │  8..10  format version (u16 LE) = 2                                │
//! │ 10..12  label width in bits (u16 LE) = 14                          │
//! │ 12..16  node count n (u32 LE)                                      │
//! │ 16..20  tag count of the companion .lab file (u32 LE)              │
//! │ 20..24  block count (u32 LE) = ceil(n / records-per-block)         │
//! │ 24..28  records per block (u32 LE), last block short               │
//! │ 28..36  extent-section offset (u64 LE)                             │
//! │ 36..44  block-index offset (u64 LE)                                │
//! │ 44..48  append count (u32 LE) — in-place updates applied           │
//! │ 48..52  splice count (u32 LE)                                      │
//! │ 52..56  delete count (u32 LE)                                      │
//! │ 56      extent-section format (0 fixed, 1 compressed)              │
//! │ 57..60  reserved (zero)                                            │
//! │ 60..64  CRC32 of bytes 0..60                                       │
//! ├──────────────────────────── blocks ────────────────────────────────┤
//! │ per block: n_records (u32 LE) · body_len (u32 LE) · body CRC32 ·   │
//! │            body — one LEB128 varint per record encoding            │
//! │            (zigzag(label − prev_label) << 2) | (has_second << 1)   │
//! │            | has_first, with prev_label reset to 0 per block       │
//! ├─────────────────────── extent section ─────────────────────────────┤
//! │ compressed (format 1, written since PR 10): a directory of one     │
//! │ absolute u64 LE offset per 16384-node window plus a CRC32 of the   │
//! │ directory, then per window: body_len (u32 LE) · body CRC32 ·       │
//! │ body — the window's child-kind flags packed 2 bits per node        │
//! │ (bit 0 first child, bit 1 second), then one LEB128 varint per      │
//! │ node holding its binary-subtree size `end(v) − (v+1)` (0 for a     │
//! │ leaf). ~1.3 bytes per node instead of the fixed layout's 5.        │
//! │                                                                    │
//! │ fixed (format 0, files created before PR 10 — still readable):     │
//! │ per window: CRC32 of the body · body — 5 bytes per node: subtree   │
//! │ end (u32 LE) then child-kind flags. Only the last window is        │
//! │ short, so window offsets are computable without a directory.       │
//! ├──────────────────────── block index ───────────────────────────────┤
//! │ block_count file offsets (u64 LE each) · CRC32 of those bytes.     │
//! │ Block b holds records [b·R, min((b+1)·R, n)), so range scans seek  │
//! │ straight to `offsets[lo / R]`.                                     │
//! └────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The block frame, the block index and the extent directory follow the
//! shared grammar of [`crate::frame`], which writes and checks them; an
//! extent window is a frame without the record count. This module owns
//! the header, what goes inside the bodies and where the sections sit.
//!
//! Crash safety: creation writes a **placeholder** header first — the
//! real magic with an invalid version field — and patches the real
//! header only after every block, the extent section and the index are
//! on disk. A crashed creation therefore still sniffs as v2 and is
//! rejected at open; it can never fall back to a silent v1
//! interpretation.
//!
//! In-place updates ([`crate::update::ArbUpdater`]) follow the same
//! discipline: the header is invalidated (placeholder version) before
//! the first dirty block is rewritten and re-stamped — with one of the
//! three update counters bumped — only after the new blocks, extent
//! section and index are on disk. The counters' sum is the file's
//! **epoch**: readers compare it against the epoch they mounted and
//! invalidate their block/extent caches when it moves. Files written
//! before updates existed carry zero counters (epoch 0) and open
//! unchanged — the counter bytes were reserved-zero and were already
//! covered by the header CRC.

use crate::format::NodeRecord;
use crate::frame::{
    self, crc32, invalid, push_varint, read_varint_u32, short_varint, unzigzag, zigzag,
};
use arb_tree::LabelId;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::Arc;

/// v2 file magic (first 8 bytes).
pub const MAGIC: [u8; 8] = *b"ArbDBv2\0";
/// Current format version stored in the header.
pub const VERSION: u16 = 2;
/// Header size in bytes.
pub const HEADER_BYTES: usize = 64;
/// Label width recorded in the header (the paper's 14-bit labels).
pub const LABEL_BITS: u16 = 14;
/// Records per block (64 KiB of v1-equivalent payload per block).
pub const BLOCK_RECORDS: u32 = 32 * 1024;
/// Nodes per extent-section window.
pub const EXTENT_WINDOW: u32 = 16 * 1024;
/// Bytes per node in the extent section (u32 end + u8 kind flags).
pub const EXTENT_ENTRY_BYTES: u64 = 5;
/// Upper bound on a block body — anything larger is corruption, not data
/// (the worst-case varint stream for a full block is 3 bytes/record).
const MAX_BLOCK_BODY: u32 = 4 * BLOCK_RECORDS;
/// 14-bit label mask, mirrored from the record format.
const LABEL_MASK: u16 = (1 << 14) - 1;

/// Encodes a run of records as one block body (delta/varint stream).
pub fn encode_block(records: &[NodeRecord], out: &mut Vec<u8>) {
    out.clear();
    let mut prev = 0i64;
    for r in records {
        let delta = r.label.0 as i64 - prev;
        prev = r.label.0 as i64;
        let v = (zigzag(delta) << 2) | ((r.has_second as u64) << 1) | r.has_first as u64;
        push_varint(out, v);
    }
}

/// Decodes one block body into `out` (cleared first). Labels are
/// range-checked once per block, through the running label's minimum and
/// maximum; record-count and length mismatches are `InvalidData`.
pub fn decode_block(body: &[u8], n_records: u32, out: &mut Vec<NodeRecord>) -> io::Result<()> {
    out.clear();
    out.resize(
        n_records as usize,
        NodeRecord {
            label: LabelId(0),
            has_first: false,
            has_second: false,
        },
    );
    let mut label = 0i32;
    let (mut min, mut max) = (0i32, 0i32);
    let mut pos = 0usize;
    for slot in out.iter_mut() {
        let v = match short_varint(body, &mut pos) {
            Some(v) => v,
            None => read_varint_u32(body, &mut pos)?,
        };
        // A delta is under 2^30 either way, so the first label to leave
        // the label space is seen by `min`/`max` before the sum can wrap.
        label = label.wrapping_add(unzigzag((v >> 2) as u64) as i32);
        min = min.min(label);
        max = max.max(label);
        *slot = NodeRecord {
            label: LabelId(label as u16),
            has_first: v & 1 != 0,
            has_second: v & 2 != 0,
        };
    }
    if min < 0 || max > LABEL_MASK as i32 {
        return Err(invalid("decoded label outside the 14-bit label space"));
    }
    if pos != body.len() {
        return Err(invalid("block body longer than its record count"));
    }
    Ok(())
}

/// How the extent section is laid out on disk (header byte 56).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtentFormat {
    /// 5 bytes per node, computable window offsets (files from before
    /// the compressed layout existed).
    Fixed,
    /// Packed kind bits + varint subtree sizes behind a window-offset
    /// directory (the layout written since updates landed).
    Compressed,
}

/// The parsed, validated v2 header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Total node (record) count.
    pub node_count: u32,
    /// Tag count the companion `.lab` file must resolve.
    pub tag_count: u32,
    /// Number of record blocks.
    pub block_count: u32,
    /// Records per block (last block short).
    pub block_records: u32,
    /// File offset of the extent section.
    pub extent_offset: u64,
    /// File offset of the block index.
    pub index_offset: u64,
    /// Lifetime `append_subtree` updates applied to this file.
    pub appends: u32,
    /// Lifetime `splice_subtree` updates applied to this file.
    pub splices: u32,
    /// Lifetime `delete_subtree` updates applied to this file.
    pub deletes: u32,
    /// Extent-section layout.
    pub extent_format: ExtentFormat,
}

impl Header {
    /// The file's update epoch: total updates ever applied. Caches keyed
    /// on the epoch (block LRU, subtree extents) are invalid once it
    /// moves. Write-once files are at epoch 0 forever.
    pub fn epoch(self) -> u64 {
        self.appends as u64 + self.splices as u64 + self.deletes as u64
    }

    /// Serializes with a valid CRC.
    pub fn to_bytes(self) -> [u8; HEADER_BYTES] {
        let mut b = [0u8; HEADER_BYTES];
        b[0..8].copy_from_slice(&MAGIC);
        b[8..10].copy_from_slice(&VERSION.to_le_bytes());
        b[10..12].copy_from_slice(&LABEL_BITS.to_le_bytes());
        b[12..16].copy_from_slice(&self.node_count.to_le_bytes());
        b[16..20].copy_from_slice(&self.tag_count.to_le_bytes());
        b[20..24].copy_from_slice(&self.block_count.to_le_bytes());
        b[24..28].copy_from_slice(&self.block_records.to_le_bytes());
        b[28..36].copy_from_slice(&self.extent_offset.to_le_bytes());
        b[36..44].copy_from_slice(&self.index_offset.to_le_bytes());
        b[44..48].copy_from_slice(&self.appends.to_le_bytes());
        b[48..52].copy_from_slice(&self.splices.to_le_bytes());
        b[52..56].copy_from_slice(&self.deletes.to_le_bytes());
        b[56] = match self.extent_format {
            ExtentFormat::Fixed => 0,
            ExtentFormat::Compressed => 1,
        };
        let crc = crc32(&b[..60]);
        b[60..64].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Parses and validates the fixed header fields.
    pub fn parse(b: &[u8; HEADER_BYTES]) -> io::Result<Self> {
        if b[0..8] != MAGIC {
            return Err(invalid("not a v2 .arb file (bad magic)"));
        }
        let crc = u32::from_le_bytes(b[60..64].try_into().expect("4 bytes"));
        if crc32(&b[..60]) != crc {
            return Err(invalid(
                "v2 header checksum mismatch (crashed creation or corruption)",
            ));
        }
        let le16 = |o: usize| u16::from_le_bytes(b[o..o + 2].try_into().expect("2 bytes"));
        let le32 = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().expect("4 bytes"));
        let le64 = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("8 bytes"));
        if le16(8) != VERSION {
            return Err(invalid(format!(
                "unsupported .arb format version {} (crashed creation leaves 65535)",
                le16(8)
            )));
        }
        if le16(10) != LABEL_BITS {
            return Err(invalid(format!(
                "unsupported label width {} bits",
                le16(10)
            )));
        }
        let extent_format = match b[56] {
            0 => ExtentFormat::Fixed,
            1 => ExtentFormat::Compressed,
            f => return Err(invalid(format!("unknown extent-section format {f}"))),
        };
        let h = Header {
            node_count: le32(12),
            tag_count: le32(16),
            block_count: le32(20),
            block_records: le32(24),
            extent_offset: le64(28),
            index_offset: le64(36),
            appends: le32(44),
            splices: le32(48),
            deletes: le32(52),
            extent_format,
        };
        if h.block_records == 0 {
            return Err(invalid("v2 header: zero records per block"));
        }
        let expect_blocks = (h.node_count as u64).div_ceil(h.block_records as u64);
        if h.block_count as u64 != expect_blocks {
            return Err(invalid(
                "v2 header: block count inconsistent with node count",
            ));
        }
        Ok(h)
    }
}

/// Block layout shared between the database handle and its scans: where
/// each block lives and how records map onto blocks.
#[derive(Debug)]
pub struct BlockMap {
    /// Total record count.
    pub node_count: u32,
    /// Records per block (last block short).
    pub block_records: u32,
    /// File offset of each block's frame.
    pub offsets: Vec<u64>,
}

impl BlockMap {
    /// Number of records in block `b`.
    pub fn records_in(&self, b: u32) -> u32 {
        let lo = b as u64 * self.block_records as u64;
        (self.node_count as u64 - lo).min(self.block_records as u64) as u32
    }

    /// The block holding record `ix`.
    #[inline]
    pub fn block_of(&self, ix: u32) -> u32 {
        ix / self.block_records
    }
}

/// Everything `ArbDatabase::open` learns from a v2 file.
pub struct V2Meta {
    /// The validated header.
    pub header: Header,
    /// Block layout (offsets verified against the index checksum).
    pub map: Arc<BlockMap>,
    /// Total file length.
    pub file_len: u64,
}

/// Number of extent windows for `n` nodes.
pub fn extent_windows(n: u32) -> u32 {
    (n as u64).div_ceil(EXTENT_WINDOW as u64) as u32
}

/// On-disk size of the **fixed-layout** extent section for `n` nodes
/// (the compressed layout's size depends on the data).
fn fixed_extent_section_bytes(n: u32) -> u64 {
    extent_windows(n) as u64 * 4 + n as u64 * EXTENT_ENTRY_BYTES
}

/// File offset of fixed-layout extent window `w` (all windows but the
/// last are full, so offsets are computable without a directory).
fn fixed_extent_window_offset(extent_offset: u64, w: u32) -> u64 {
    extent_offset + w as u64 * (4 + EXTENT_WINDOW as u64 * EXTENT_ENTRY_BYTES)
}

/// Upper bound on a compressed extent window body: packed kinds plus a
/// worst-case 5-byte varint per node. Larger claims are corruption.
const MAX_EXTENT_BODY: u32 = EXTENT_WINDOW / 4 + 5 * EXTENT_WINDOW;

/// Encodes one compressed extent window body: the packed 2-bit kind
/// flags for nodes `[lo, lo + len)`, then each node's binary-subtree
/// size `ends[i] − (global + 1)` as a varint. `ends`/`kinds` are indexed
/// window-locally; `lo` is the window's first global node index.
pub fn encode_extent_window(ends: &[u32], kinds: &[u8], lo: u32, out: &mut Vec<u8>) {
    out.clear();
    out.resize(ends.len().div_ceil(4), 0);
    for (i, &k) in kinds.iter().enumerate() {
        out[i / 4] |= (k & 3) << ((i % 4) * 2);
    }
    for (i, &e) in ends.iter().enumerate() {
        let v = lo + i as u32;
        push_varint(out, (e - (v + 1)) as u64);
    }
}

/// Decodes one compressed extent window body (inverse of
/// [`encode_extent_window`]).
pub fn decode_extent_window(body: &[u8], lo: u32, len: usize) -> io::Result<(Vec<u32>, Vec<u8>)> {
    let kind_bytes = len.div_ceil(4);
    if body.len() < kind_bytes {
        return Err(invalid("extent window body shorter than its kind flags"));
    }
    let mut kinds = Vec::with_capacity(len);
    for i in 0..len {
        kinds.push((body[i / 4] >> ((i % 4) * 2)) & 3);
    }
    let mut ends = Vec::with_capacity(len);
    let mut pos = kind_bytes;
    for i in 0..len {
        let v = lo + i as u32;
        let size = read_varint_u32(body, &mut pos)?;
        let end = (v as u64 + 1).checked_add(size as u64);
        match end {
            Some(e) if e <= u32::MAX as u64 => ends.push(e as u32),
            _ => return Err(invalid("extent window: subtree size overflows")),
        }
    }
    if pos != body.len() {
        return Err(invalid("extent window body longer than its node count"));
    }
    Ok((ends, kinds))
}

/// Reads and cross-validates the header and block index of a v2 file.
/// Every structural claim the header makes (section offsets, index size,
/// extent size, block offset monotonicity) is checked here, so a
/// truncated or bit-flipped file fails at open rather than mid-query.
pub fn read_meta<R: Read + Seek>(f: &mut R, file_len: u64) -> io::Result<V2Meta> {
    if file_len < HEADER_BYTES as u64 {
        return Err(invalid("v2 .arb file shorter than its header"));
    }
    f.seek(SeekFrom::Start(0))?;
    let mut hb = [0u8; HEADER_BYTES];
    f.read_exact(&mut hb)?;
    let header = Header::parse(&hb)?;
    let n = header.node_count;
    if header.extent_offset < HEADER_BYTES as u64 {
        return Err(invalid("v2 header: sections overlap the header"));
    }
    let offsets = frame::read_index(
        f,
        header.index_offset,
        header.block_count as u64,
        file_len,
        HEADER_BYTES as u64..header.extent_offset,
        "v2 block index",
    )?;
    if offsets.windows(2).any(|w| w[1] <= w[0]) {
        return Err(invalid("v2 block index: offsets not increasing"));
    }
    if offsets.first().is_some_and(|&o| o != HEADER_BYTES as u64) {
        return Err(invalid("v2 block index: first block not after the header"));
    }
    match header.extent_format {
        ExtentFormat::Fixed => {
            if header
                .extent_offset
                .checked_add(fixed_extent_section_bytes(n))
                != Some(header.index_offset)
            {
                return Err(invalid(
                    "v2 header: extent section inconsistent with node count",
                ));
            }
        }
        ExtentFormat::Compressed => {
            // The directory must fit before the index; its entries must
            // be CRC-clean, increasing, and point into the window area.
            let windows = extent_windows(n) as u64;
            let windows_start = match frame::index_end(header.extent_offset, windows) {
                Some(s) if s <= header.index_offset => s,
                _ => return Err(invalid("v2 header: extent directory overruns the index")),
            };
            let dir = frame::read_index(
                f,
                header.extent_offset,
                windows,
                windows_start,
                windows_start..header.index_offset,
                "v2 extent directory",
            )?;
            if dir.windows(2).any(|w| w[1] <= w[0]) {
                return Err(invalid("v2 extent directory: offsets not increasing"));
            }
        }
    }
    Ok(V2Meta {
        header,
        map: Arc::new(BlockMap {
            node_count: n,
            block_records: header.block_records,
            offsets,
        }),
        file_len,
    })
}

/// Reads, checksum-verifies and decodes one block into `out`. `expected`
/// is the record count the block map says this block must hold.
pub fn read_block<R: Read + Seek>(
    r: &mut R,
    offset: u64,
    expected: u32,
    scratch: &mut Vec<u8>,
    out: &mut Vec<NodeRecord>,
) -> io::Result<()> {
    r.seek(SeekFrom::Start(offset))?;
    frame::read_frame(r, expected, MAX_BLOCK_BODY as u64, scratch, "v2 block")?;
    decode_block(scratch, expected, out)
}

/// Reads and checksum-verifies one extent window: `(ends, kinds)` for
/// the node range `[w·W, min((w+1)·W, n))`, in either layout.
pub fn read_extent_window<R: Read + Seek>(
    r: &mut R,
    extent_offset: u64,
    node_count: u32,
    w: u32,
    format: ExtentFormat,
) -> io::Result<(Vec<u32>, Vec<u8>)> {
    let lo = w as u64 * EXTENT_WINDOW as u64;
    if lo >= node_count as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("extent window {w} outside the database"),
        ));
    }
    let len = (node_count as u64 - lo).min(EXTENT_WINDOW as u64) as usize;
    match format {
        ExtentFormat::Fixed => {
            r.seek(SeekFrom::Start(fixed_extent_window_offset(
                extent_offset,
                w,
            )))?;
            let mut crc_bytes = [0u8; 4];
            r.read_exact(&mut crc_bytes)?;
            let mut body = vec![0u8; len * EXTENT_ENTRY_BYTES as usize];
            r.read_exact(&mut body)?;
            if crc32(&body) != u32::from_le_bytes(crc_bytes) {
                return Err(invalid("v2 extent window checksum mismatch"));
            }
            let mut ends = Vec::with_capacity(len);
            let mut kinds = Vec::with_capacity(len);
            for e in body.chunks_exact(EXTENT_ENTRY_BYTES as usize) {
                ends.push(u32::from_le_bytes(e[0..4].try_into().expect("4 bytes")));
                kinds.push(e[4]);
            }
            Ok((ends, kinds))
        }
        ExtentFormat::Compressed => {
            // The directory's CRC was verified at `read_meta`; a flipped
            // entry lands on a body whose length bound and CRC reject it.
            let off = frame::read_index_entry(r, extent_offset, w as u64, "v2 extent directory")?;
            r.seek(SeekFrom::Start(off))?;
            let mut body = Vec::new();
            frame::read_body(r, MAX_EXTENT_BODY as u64, &mut body, "v2 extent window")?;
            decode_extent_window(&body, lo as u32, len)
        }
    }
}

/// Serializes the compressed extent section (directory + window frames)
/// for `ends`/`kinds`, starting at absolute file offset `extent_offset`.
/// Returns the section bytes ready to write at that offset.
pub fn build_extent_section(ends: &[u32], kinds: &[u8], extent_offset: u64) -> Vec<u8> {
    let n = ends.len() as u32;
    let windows = extent_windows(n);
    let windows_start = frame::index_end(extent_offset, windows as u64)
        .expect("a writer's position leaves room for a directory of at most 2^18 entries");
    let mut dir = Vec::with_capacity(windows as usize);
    let mut frames: Vec<u8> = Vec::new();
    let mut body = Vec::new();
    for w in 0..windows {
        let lo = w as usize * EXTENT_WINDOW as usize;
        let hi = (lo + EXTENT_WINDOW as usize).min(n as usize);
        encode_extent_window(&ends[lo..hi], &kinds[lo..hi], lo as u32, &mut body);
        dir.push(windows_start + frames.len() as u64);
        frame::put_body(&mut frames, &body).expect("writes to a Vec cannot fail");
    }
    let mut section = Vec::with_capacity((windows_start - extent_offset) as usize + frames.len());
    frame::put_index(&mut section, &dir).expect("writes to a Vec cannot fail");
    section.extend_from_slice(&frames);
    section
}

/// Streaming v2 writer: header placeholder first, then blocks as records
/// arrive, then the extent section and block index, then the real header.
pub struct V2Writer<W: Write + Seek> {
    out: io::BufWriter<W>,
    pos: u64,
    node_count: u32,
    tag_count: u32,
    offsets: Vec<u64>,
    cur: Vec<NodeRecord>,
    body: Vec<u8>,
    written: u64,
}

impl<W: Write + Seek> V2Writer<W> {
    /// Starts a v2 file that will hold exactly `node_count` records.
    pub fn new(inner: W, node_count: u32, tag_count: u32) -> io::Result<Self> {
        let mut out = io::BufWriter::with_capacity(256 * 1024, inner);
        // Placeholder header: the real magic with an invalid version, so
        // a crash between here and `finish` is sniffed as v2 and
        // rejected — never misread as a v1 record array.
        let mut ph = [0u8; HEADER_BYTES];
        ph[0..8].copy_from_slice(&MAGIC);
        ph[8..10].copy_from_slice(&u16::MAX.to_le_bytes());
        out.write_all(&ph)?;
        Ok(V2Writer {
            out,
            pos: HEADER_BYTES as u64,
            node_count,
            tag_count,
            offsets: Vec::new(),
            cur: Vec::with_capacity(BLOCK_RECORDS as usize),
            body: Vec::new(),
            written: 0,
        })
    }

    /// Appends one record. Labels are range-checked here — an
    /// out-of-range `LabelId` is an error, never a silent truncation.
    pub fn push(&mut self, rec: NodeRecord) -> io::Result<()> {
        if rec.label.0 > LABEL_MASK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("label #{} outside the 14-bit label space", rec.label.0),
            ));
        }
        if self.written == self.node_count as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "more records than the declared node count",
            ));
        }
        self.written += 1;
        self.cur.push(rec);
        if self.cur.len() == BLOCK_RECORDS as usize {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.cur.is_empty() {
            return Ok(());
        }
        encode_block(&self.cur, &mut self.body);
        self.offsets.push(self.pos);
        self.pos += frame::put_frame(&mut self.out, self.cur.len() as u32, &self.body)?;
        self.cur.clear();
        Ok(())
    }

    /// Writes the extent section and block index, patches the real
    /// header and returns the final file length. `ends`/`kinds` are the
    /// per-node subtree extents and child flags (see
    /// [`crate::traversal::subtree_extents`]).
    pub fn finish(mut self, ends: &[u32], kinds: &[u8]) -> io::Result<u64> {
        if self.written != self.node_count as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record underflow: {} of {} records written",
                    self.written, self.node_count
                ),
            ));
        }
        if ends.len() != self.node_count as usize || kinds.len() != self.node_count as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "extent vectors do not match the node count",
            ));
        }
        self.flush_block()?;
        let extent_offset = self.pos;
        let section = build_extent_section(ends, kinds, extent_offset);
        self.out.write_all(&section)?;
        self.pos += section.len() as u64;
        let index_offset = self.pos;
        self.pos += frame::put_index(&mut self.out, &self.offsets)?;

        let header = Header {
            node_count: self.node_count,
            tag_count: self.tag_count,
            block_count: self.offsets.len() as u32,
            block_records: BLOCK_RECORDS,
            extent_offset,
            index_offset,
            appends: 0,
            splices: 0,
            deletes: 0,
            extent_format: ExtentFormat::Compressed,
        };
        self.out.flush()?;
        let mut inner = self
            .out
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?;
        inner.seek(SeekFrom::Start(0))?;
        inner.write_all(&header.to_bytes())?;
        inner.flush()?;
        Ok(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every length mod 8 takes the same value through the eight-byte
        // steps as through the bit-at-a-time definition.
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..data.len() {
            let bitwise = !data[..len].iter().fold(!0u32, |mut c, &b| {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                c
            });
            assert_eq!(crc32(&data[..len]), bitwise, "length {len}");
        }
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            300,
            -300,
            16383,
            -16383,
            i64::MIN,
            i64::MAX,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16384, u32::MAX as u64, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(frame::read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
            pos = 0;
            let narrow = read_varint_u32(&buf, &mut pos);
            assert_eq!(narrow.ok(), u32::try_from(v).ok(), "{v}");
        }
        // The short path takes exactly the one- and two-byte varints,
        // given two bytes to look at, and leaves `pos` alone otherwise.
        for v in (0..20_000u32).chain([1 << 21, u32::MAX]) {
            buf.clear();
            push_varint(&mut buf, v as u64);
            let len = buf.len();
            let mut pos = 0;
            if len == 1 {
                assert_eq!(short_varint(&buf, &mut pos), None, "{v}: a lone last byte");
                assert_eq!(pos, 0);
            }
            buf.push(0xFF);
            let short = short_varint(&buf, &mut pos);
            if len <= 2 {
                assert_eq!((short, pos), (Some(v), len), "{v}");
            } else {
                assert_eq!((short, pos), (None, 0), "{v}");
            }
        }
    }

    #[test]
    fn block_codec_roundtrip() {
        let records: Vec<NodeRecord> = (0..1000u16)
            .map(|i| NodeRecord {
                label: LabelId((i * 7) % (1 << 14)),
                has_first: i % 2 == 0,
                has_second: i % 3 == 0,
            })
            .collect();
        let mut body = Vec::new();
        encode_block(&records, &mut body);
        let mut out = Vec::new();
        decode_block(&body, records.len() as u32, &mut out).unwrap();
        assert_eq!(out, records);
        // A truncated body is detected.
        assert!(decode_block(&body[..body.len() - 1], records.len() as u32, &mut out).is_err());
        // A record-count mismatch is detected.
        assert!(decode_block(&body, records.len() as u32 - 1, &mut out).is_err());
    }

    /// The label range check runs once per block: a label that leaves the
    /// 14-bit space is an error even when a later delta brings the
    /// running label back inside it, or wraps it around.
    #[test]
    fn decode_rejects_labels_outside_the_label_space() {
        let body_of = |deltas: &[i32]| {
            let mut body = Vec::new();
            for &d in deltas {
                push_varint(&mut body, zigzag(d as i64) << 2);
            }
            body
        };
        let mut out = Vec::new();
        let max = LABEL_MASK as i32;
        for deltas in [
            &[max, 1][..],
            &[-1],
            &[5, -6, 6],
            &[max, 1, -1],
            &[(1 << 29) - 1; 9],
        ] {
            let err = decode_block(&body_of(deltas), deltas.len() as u32, &mut out).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{deltas:?}");
            assert!(err.to_string().contains("label space"), "{deltas:?}: {err}");
        }
        decode_block(&body_of(&[max, -max, max]), 3, &mut out).unwrap();
        assert_eq!(out[2].label, LabelId(LABEL_MASK));
    }

    #[test]
    fn header_roundtrip_and_corruption() {
        let h = Header {
            node_count: 100_000,
            tag_count: 7,
            block_count: 4,
            block_records: BLOCK_RECORDS,
            extent_offset: 1234,
            index_offset: 5678,
            appends: 3,
            splices: 1,
            deletes: 2,
            extent_format: ExtentFormat::Compressed,
        };
        let bytes = h.to_bytes();
        assert_eq!(Header::parse(&bytes).unwrap(), h);
        assert_eq!(h.epoch(), 6);
        let mut bad = bytes;
        bad[13] ^= 0x10; // flip a node-count bit
        assert!(Header::parse(&bad).is_err());
        let mut nomagic = bytes;
        nomagic[0] = b'X';
        assert!(Header::parse(&nomagic).is_err());
    }

    /// A checksum-clean header whose block index starts at the last byte
    /// of the address space: where the index ends cannot be computed, so
    /// the file is corrupt, not a reason to panic.
    #[test]
    fn index_offset_past_the_address_space_is_invalid_data() {
        let h = Header {
            node_count: 1,
            tag_count: 1,
            block_count: 1,
            block_records: BLOCK_RECORDS,
            extent_offset: HEADER_BYTES as u64,
            index_offset: u64::MAX,
            appends: 0,
            splices: 0,
            deletes: 0,
            extent_format: ExtentFormat::Compressed,
        };
        let mut file = h.to_bytes().to_vec();
        file.resize(HEADER_BYTES + 32, 0);
        let len = file.len() as u64;
        let err = read_meta(&mut Cursor::new(file), len)
            .err()
            .expect("read_meta must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn placeholder_header_is_rejected() {
        let mut ph = [0u8; HEADER_BYTES];
        ph[0..8].copy_from_slice(&MAGIC);
        ph[8..10].copy_from_slice(&u16::MAX.to_le_bytes());
        let err = Header::parse(&ph).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn writer_reader_roundtrip_with_meta() {
        let n = (BLOCK_RECORDS + 17) as usize; // two blocks, last short
        let records: Vec<NodeRecord> = (0..n)
            .map(|i| NodeRecord {
                label: LabelId((i % 500) as u16 + 256),
                has_first: i % 2 == 0,
                has_second: i % 5 == 0,
            })
            .collect();
        // Extents don't need to be structurally meaningful for the codec.
        let ends: Vec<u32> = (0..n as u32).map(|v| v + 1).collect();
        let kinds: Vec<u8> = vec![0; n];
        let dir = std::env::temp_dir().join(format!("arb-v2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta.arbv2");
        let mut w = V2Writer::new(std::fs::File::create(&path).unwrap(), n as u32, 3).unwrap();
        for &r in &records {
            w.push(r).unwrap();
        }
        let file_len = w.finish(&ends, &kinds).unwrap();
        assert_eq!(file_len, std::fs::metadata(&path).unwrap().len());
        let mut f = std::fs::File::open(&path).unwrap();
        let meta = read_meta(&mut f, file_len).unwrap();
        assert_eq!(meta.header.node_count, n as u32);
        assert_eq!(meta.header.tag_count, 3);
        assert_eq!(meta.header.block_count, 2);
        assert_eq!(meta.map.records_in(0), BLOCK_RECORDS);
        assert_eq!(meta.map.records_in(1), 17);
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        let mut all = Vec::new();
        for (b, &off) in meta.map.offsets.iter().enumerate() {
            read_block(
                &mut f,
                off,
                meta.map.records_in(b as u32),
                &mut scratch,
                &mut out,
            )
            .unwrap();
            all.extend_from_slice(&out);
        }
        assert_eq!(all, records);
        // Extent windows read back verbatim.
        assert_eq!(meta.header.extent_format, ExtentFormat::Compressed);
        assert_eq!(meta.header.epoch(), 0, "freshly created files are epoch 0");
        let fmt = meta.header.extent_format;
        let (e0, k0) =
            read_extent_window(&mut f, meta.header.extent_offset, n as u32, 0, fmt).unwrap();
        assert_eq!(e0.len(), EXTENT_WINDOW as usize);
        assert_eq!(&e0[..], &ends[..EXTENT_WINDOW as usize]);
        assert_eq!(&k0[..], &kinds[..EXTENT_WINDOW as usize]);
        let last = extent_windows(n as u32) - 1;
        let (el, _) =
            read_extent_window(&mut f, meta.header.extent_offset, n as u32, last, fmt).unwrap();
        assert_eq!(el.len(), n - last as usize * EXTENT_WINDOW as usize);
    }

    #[test]
    fn writer_rejects_out_of_range_labels_and_count_mismatch() {
        let mut w = V2Writer::new(Cursor::new(Vec::new()), 1, 0).unwrap();
        let bad = NodeRecord {
            label: LabelId(1 << 14),
            has_first: false,
            has_second: false,
        };
        assert!(w.push(bad).is_err());
        let good = NodeRecord {
            label: LabelId(42),
            has_first: false,
            has_second: false,
        };
        w.push(good).unwrap();
        assert!(w.push(good).is_err(), "overflow past node count");

        let w = V2Writer::new(Cursor::new(Vec::new()), 2, 0).unwrap();
        assert!(w.finish(&[1, 2], &[0, 0]).is_err(), "underflow");
    }
}
