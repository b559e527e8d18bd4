//! The temporary `.sta` state stream connecting the two phases.
//!
//! "Since the run of A may be very large and B needs to process it, we
//! write it to the disk. In our implementation, we write the pointer to
//! the internal data structure of the residual program ρA(v) for each
//! node v, in the order we visit the nodes. Our temporary file thus
//! consumes four bytes per node." (paper footnote 12)
//!
//! Two layouts implement that contract behind one API, selected by
//! [`StaFormat`] (default [`StaFormat::Blocked`], overridable with
//! `ARB_STA_FORMAT=flat`):
//!
//! * **flat** — the paper's layout verbatim: a bare array of `n`
//!   little-endian `u32` state ids. Phase 1 visits nodes backwards, so
//!   ids are written through a [`RevWriter`] and land at offset `4·ix`
//!   for preorder index `ix`; sharded runs pre-[`allocate`] the file and
//!   write disjoint byte windows concurrently.
//!
//! * **blocked** — a block-framed compressed stream mirroring the v2
//!   record design (see [`crate::v2`]). States are grouped into
//!   fixed-record-count blocks ([`DEFAULT_BLOCK_RECORDS`], overridable
//!   with `ARB_STA_BLOCK_RECORDS` for boundary tests); each block body
//!   opens with the block's **default state** (its most frequent
//!   run value — the role the schema default plays in skip-default
//!   encodings) and then a token stream of LEB128 varints `v` with
//!   `v & 3` as the tag:
//!
//!   | tag | meaning |
//!   |-----|---------|
//!   | 0 | literal: `state = prev + unzigzag(v >> 2)`, updates `prev` |
//!   | 1 | a run of `v >> 2` nodes whose state **is the default** (the skip-default elision — such nodes cost amortized well under a byte) |
//!   | 2 | a run of `v >> 2` repeats of `prev` (run-length encoding) |
//!   | 3 | reserved — rejected as `InvalidData` |
//!
//!   `prev` starts at the default state per block. Each block is a
//!   [`crate::frame`] block frame `{n_records, body_len, crc32(body)}`,
//!   the same as a v2 record block's, and decodes into a reusable
//!   buffer, so phase 2 serves states from a decoded block with a bounds
//!   check instead of one buffered 4-byte file read per node.
//!
//! Because compressed blocks have variable length, a backward writer
//! cannot drop them at their final offsets the way the flat layout can.
//! A blocked **segment** `[lo, hi)` is therefore its own append-only
//! side file (`<path>.seg-<lo>`): the writer buffers one block of
//! states, filling it from the back as the backward pass hands it runs
//! of states (each run in preorder, each directly below the last), and
//! every time a block is full it encodes and appends the finished
//! frame — blocks land in reverse block order and a footer (a
//! [`crate::frame`] offset index of the blocks, in forward order) plus
//! an 8-byte trailer (footer offset) make them seekable again. Sharded
//! runs compose exactly as in the flat layout: the coordinator's [`allocate`] writes
//! a small manifest at `<path>`, each worker appends its own segment
//! file concurrently, and the spine patcher writes `(ix, state)` pairs
//! to `<path>.patch`. A sequential run writes one segment `[0, n)`
//! directly at `<path>`. [`StateFileReader`] stitches segments and
//! patches back into one preorder stream; coverage gaps, truncated
//! frames, checksum damage and reserved tags all surface as
//! `InvalidData` with context — never a bare `UnexpectedEof`.

use crate::frame::{
    self, crc32, invalid, push_varint, read_varint, short_varint, unzigzag, zigzag,
};
use crate::rev::RevWriter;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes per state entry in the flat layout (and per *decoded* state).
pub const STATE_BYTES: usize = 4;

/// Magic of a blocked segment file.
pub const SEG_MAGIC: [u8; 8] = *b"ArbSTA1\0";
/// Magic of a blocked multi-segment manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"ArbSTAm\0";
/// Magic of a blocked patch (spine) file.
pub const PATCH_MAGIC: [u8; 8] = *b"ArbSTAp\0";

/// Records per blocked-stream block (128 KiB of flat-equivalent payload).
pub const DEFAULT_BLOCK_RECORDS: u32 = 32 * 1024;

/// Segment header: magic, lo, hi, block_records.
const SEG_HEADER_BYTES: u64 = 8 + 8 + 8 + 4;
/// Manifest: magic, node count, block_records, CRC32 of the first 20.
const MANIFEST_BYTES: u64 = 8 + 8 + 4 + 4;
/// Patch entry: node index (u64) + state (u32).
const PATCH_ENTRY_BYTES: u64 = 12;

/// The on-disk layout of the `.sta` stream (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StaFormat {
    /// Block-framed compressed stream (delta/varint + run-length +
    /// skip-default). The default.
    #[default]
    Blocked,
    /// The paper's bare 4-bytes-per-node layout (footnote 12), kept
    /// selectable (`ARB_STA_FORMAT=flat`) for differential suites and
    /// ablation benchmarks.
    Flat,
}

impl StaFormat {
    /// Parses a format name (`"blocked"`/`"flat"`, case-insensitive).
    pub fn parse(s: &str) -> Option<StaFormat> {
        match s.to_ascii_lowercase().as_str() {
            "blocked" | "block" => Some(StaFormat::Blocked),
            "flat" | "raw" => Some(StaFormat::Flat),
            _ => None,
        }
    }

    /// The format selected by `ARB_STA_FORMAT`, defaulting to
    /// [`StaFormat::Blocked`] (unknown values fall back to the default).
    pub fn from_env() -> StaFormat {
        std::env::var("ARB_STA_FORMAT")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }
}

impl std::fmt::Display for StaFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StaFormat::Blocked => "blocked",
            StaFormat::Flat => "flat",
        })
    }
}

/// Records per block, honoring the `ARB_STA_BLOCK_RECORDS` override
/// (clamped to `[16, 1Mi]`; the tiny end exists so differential tests
/// can straddle many block boundaries on small documents).
pub fn block_records_from_env() -> u32 {
    std::env::var("ARB_STA_BLOCK_RECORDS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map(|v| v.clamp(16, 1 << 20))
        .unwrap_or(DEFAULT_BLOCK_RECORDS)
}

/// A uniquely named scratch-file path that deletes the file **and every
/// sibling side file** (`<path>.seg-*`, `<path>.patch`) when dropped.
/// Evaluations obtain one via
/// [`ArbDatabase::scratch_sta`](crate::ArbDatabase::scratch_sta) so that
/// concurrent runs over the same database never share a `.sta` stream.
#[derive(Debug)]
pub struct ScratchPath {
    path: PathBuf,
}

impl ScratchPath {
    /// Wraps a path in a delete-on-drop guard.
    pub fn new(path: PathBuf) -> Self {
        ScratchPath { path }
    }

    /// The scratch path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchPath {
    fn drop(&mut self) {
        // Best effort: the files may never have been created (boolean
        // verdicts skip the `.sta` stream entirely). The scratch name is
        // unique (pid + counter), so the `<name>.` prefix match cannot
        // hit another run's files.
        let _ = std::fs::remove_file(&self.path);
        let (Some(dir), Some(name)) = (
            self.path.parent(),
            self.path.file_name().and_then(|n| n.to_str()),
        ) else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let f = e.file_name();
            if let Some(f) = f.to_str() {
                if f.len() > name.len() && f.starts_with(name) && f.as_bytes()[name.len()] == b'.' {
                    let _ = std::fs::remove_file(e.path());
                }
            }
        }
    }
}

/// Deletes stale scratch streams a **dead** process left next to a
/// database: `ScratchPath`'s delete-on-drop cannot run when the process
/// is killed (Ctrl-C, SIGKILL, OOM), so a long-lived server sweeps at
/// startup instead. The scratch name embeds the owning pid
/// (`<stem>.p<pid>-<seq>.sta` plus `.seg-*`/`.patch` side files); a
/// file is removed only when its pid is not the current process and is
/// provably not running (`/proc/<pid>` absent). On platforms without
/// `/proc`, liveness cannot be checked and nothing is removed. Returns
/// the paths that were swept.
pub fn sweep_stale_scratch(db_path: &Path) -> io::Result<Vec<PathBuf>> {
    let Some(dir) = db_path.parent().filter(|d| !d.as_os_str().is_empty()) else {
        return Ok(Vec::new());
    };
    let Some(stem) = db_path.file_stem().and_then(|s| s.to_str()) else {
        return Ok(Vec::new());
    };
    let prefix = format!("{stem}.p");
    let mut swept = Vec::new();
    for e in std::fs::read_dir(dir)?.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(pid) = scratch_owner_pid(name, &prefix) else {
            continue;
        };
        if pid == std::process::id() || pid_alive(pid) {
            continue;
        }
        let path = e.path();
        if std::fs::remove_file(&path).is_ok() {
            swept.push(path);
        }
    }
    Ok(swept)
}

/// Parses the owning pid out of a scratch-file name of the shape
/// `<prefix><pid>-<seq>.sta[.<side>]`; `None` for anything else.
fn scratch_owner_pid(name: &str, prefix: &str) -> Option<u32> {
    let rest = name.strip_prefix(prefix)?;
    let (pid_digits, rest) = rest.split_once('-')?;
    let pid: u32 = pid_digits.parse().ok()?;
    let (seq_digits, rest) = rest.split_once(".sta")?;
    if seq_digits.is_empty() || !seq_digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    // The base stream (`…​.sta`) or one of its side files (`….sta.seg-8`,
    // `….sta.patch`) — never an unrelated longer extension.
    if rest.is_empty() || rest.starts_with('.') {
        Some(pid)
    } else {
        None
    }
}

/// True when `pid` is verifiably running; errs on the side of "alive"
/// where liveness cannot be checked (no `/proc`).
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

fn seg_path(base: &Path, lo: u64) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".seg-{lo}"));
    PathBuf::from(os)
}

fn patch_path(base: &Path) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(".patch");
    PathBuf::from(os)
}

/// Prepares a shared state stream for `n` nodes without writing any
/// states — the coordinator of a sharded run calls this once before
/// workers open their disjoint [`StateFileWriter::segment`]s. Flat:
/// pre-sizes the file (workers write disjoint byte windows of it).
/// Blocked: writes a manifest recording `n` (workers append their own
/// side files). Returns the encoded bytes this step itself produced.
pub fn allocate(path: &Path, n: u64, format: StaFormat) -> io::Result<u64> {
    match format {
        StaFormat::Flat => {
            let f = File::create(path)?;
            f.set_len(n * STATE_BYTES as u64)?;
            Ok(0) // the n·4 payload is accounted to the segment writers
        }
        StaFormat::Blocked => {
            let mut bytes = Vec::with_capacity(MANIFEST_BYTES as usize);
            bytes.extend_from_slice(&MANIFEST_MAGIC);
            bytes.extend_from_slice(&n.to_le_bytes());
            bytes.extend_from_slice(&block_records_from_env().to_le_bytes());
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            let mut f = File::create(path)?;
            f.write_all(&bytes)?;
            f.flush()?;
            Ok(bytes.len() as u64)
        }
    }
}

// --- blocked codec ----------------------------------------------------

/// States below this are counted by direct index when a block's default
/// state is picked; automaton state ids are small and dense, so in
/// practice that is all of them. Larger values (only a damaged or
/// hand-made stream has them) are counted in a hash map, which keeps the
/// counters' size independent of the values.
const DENSE_STATES: u32 = 1 << 16;

/// Reusable scratch of [`BlockEncoder::encode`].
#[derive(Default)]
struct BlockEncoder {
    /// Occurrences per state below [`DENSE_STATES`]; all zero between
    /// calls.
    counts: Vec<u32>,
    /// Occurrences of the states past the dense counters.
    sparse: HashMap<u32, u32>,
}

impl BlockEncoder {
    /// The block's default state: the one most of its nodes carry, the
    /// smallest such on a tie (0 for an empty block).
    fn default_state(&mut self, states: &[u32]) -> u32 {
        let mut used = 0usize;
        for &s in states {
            if s < DENSE_STATES {
                let s = s as usize;
                if s >= self.counts.len() {
                    self.counts.resize(s + 1, 0);
                }
                self.counts[s] += 1;
                used = used.max(s + 1);
            } else {
                *self.sparse.entry(s).or_insert(0) += 1;
            }
        }
        let (mut best, mut most) = (0u32, 0u32);
        for (s, count) in self.counts[..used].iter_mut().enumerate() {
            if *count > most {
                (best, most) = (s as u32, *count);
            }
            *count = 0;
        }
        for (s, count) in self.sparse.drain() {
            if count > most || (count == most && s < best) {
                (best, most) = (s, count);
            }
        }
        best
    }

    /// Encodes one block of states (forward preorder) as a token stream.
    /// See the module docs for the token grammar.
    fn encode(&mut self, states: &[u32], out: &mut Vec<u8>) {
        out.clear();
        let default = self.default_state(states);
        push_varint(out, default as u64);
        let mut prev = default;
        let mut rest = states;
        while let Some(&v) = rest.first() {
            let len = rest.iter().take_while(|&&s| s == v).count();
            rest = &rest[len..];
            if v == default {
                push_varint(out, ((len as u64) << 2) | 1);
            } else {
                // Tag 0 (literal) is the two low zero bits of the shift.
                push_varint(out, zigzag(v as i64 - prev as i64) << 2);
                prev = v;
                if len > 1 {
                    push_varint(out, (((len - 1) as u64) << 2) | 2);
                }
            }
        }
    }
}

/// Decodes one block body into `out` (cleared first). Length and count
/// mismatches, reserved tags, and out-of-range states are `InvalidData`.
fn decode_sta_block(body: &[u8], n_records: u32, out: &mut Vec<u32>) -> io::Result<()> {
    out.clear();
    out.reserve(n_records as usize);
    let n = n_records as usize;
    let mut pos = 0usize;
    let token = |pos: &mut usize| match short_varint(body, pos) {
        Some(v) => Ok(v as u64),
        None => read_varint(body, pos),
    };
    let default = read_varint(body, &mut pos)?;
    if default > u32::MAX as u64 {
        return Err(invalid(".sta block default state out of range"));
    }
    let default = default as u32;
    let mut prev = default;
    while out.len() < n {
        let v = token(&mut pos)?;
        match v & 3 {
            0 => {
                let s = prev as i64 + unzigzag(v >> 2);
                if !(0..=u32::MAX as i64).contains(&s) {
                    return Err(invalid(".sta literal state out of the u32 range"));
                }
                prev = s as u32;
                out.push(prev);
            }
            tag @ (1 | 2) => {
                let count = v >> 2;
                if count == 0 || count > (n - out.len()) as u64 {
                    return Err(invalid(".sta run overruns its block"));
                }
                let fill = if tag == 1 { default } else { prev };
                out.resize(out.len() + count as usize, fill);
            }
            _ => return Err(invalid("reserved token tag 3 in .sta block")),
        }
    }
    if pos != body.len() {
        return Err(invalid(".sta block body longer than its record count"));
    }
    Ok(())
}

/// The append-only writer of one blocked segment file covering `[lo, hi)`
/// (see the module docs for why blocks land in reverse completion order).
struct BlockedSegWriter {
    out: BufWriter<File>,
    lo: u64,
    hi: u64,
    block_records: u32,
    /// The block being filled, in preorder. The backward pass fills it
    /// from the back: `cur[fill..]` is written, `cur[..fill]` is not.
    cur: Vec<u32>,
    fill: usize,
    /// Preorder index of `cur[0]`; `lo` once every block is flushed.
    block_lo: u64,
    /// Per block (forward order), the file offset of its frame.
    offsets: Vec<u64>,
    file_pos: u64,
    body: Vec<u8>,
    encoder: BlockEncoder,
}

fn sta_block_count(lo: u64, hi: u64, block_records: u32) -> u64 {
    (hi - lo).div_ceil(block_records as u64)
}

impl BlockedSegWriter {
    fn create(path: &Path, lo: u64, hi: u64, block_records: u32) -> io::Result<Self> {
        debug_assert!(lo <= hi && block_records >= 1);
        let mut out = BufWriter::new(File::create(path)?);
        write_seg_header(&mut out, lo, hi, block_records)?;
        let blocks = sta_block_count(lo, hi, block_records);
        // Blocks are aligned to `lo`, so the last one — the first the
        // backward pass fills — is the short one.
        let block_lo = lo + blocks.saturating_sub(1) * block_records as u64;
        let first = (hi - block_lo) as usize;
        Ok(BlockedSegWriter {
            out,
            lo,
            hi,
            block_records,
            cur: vec![0; first],
            fill: first,
            block_lo,
            offsets: vec![u64::MAX; blocks as usize],
            file_pos: SEG_HEADER_BYTES,
            body: Vec::new(),
            encoder: BlockEncoder::default(),
        })
    }

    fn overflow(&self) -> io::Error {
        invalid(format!(
            "segment [{}, {}) received more states than it holds",
            self.lo, self.hi
        ))
    }

    #[inline]
    fn write_state(&mut self, state: u32) -> io::Result<()> {
        if self.fill == 0 {
            return Err(self.overflow());
        }
        self.fill -= 1;
        self.cur[self.fill] = state;
        if self.fill == 0 {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Takes a run of states in preorder, lying directly below the
    /// states written so far; copies it into the block(s) it spans.
    fn write_states(&mut self, mut states: &[u32]) -> io::Result<()> {
        while !states.is_empty() {
            if self.fill == 0 {
                return Err(self.overflow());
            }
            let k = states.len().min(self.fill);
            let (rest, tail) = states.split_at(states.len() - k);
            self.cur[self.fill - k..self.fill].copy_from_slice(tail);
            self.fill -= k;
            states = rest;
            if self.fill == 0 {
                self.flush_block()?;
            }
        }
        Ok(())
    }

    /// Appends the finished block `cur` and opens the one below it.
    fn flush_block(&mut self) -> io::Result<()> {
        self.encoder.encode(&self.cur, &mut self.body);
        let j = ((self.block_lo - self.lo) / self.block_records as u64) as usize;
        self.offsets[j] = self.file_pos;
        self.file_pos += frame::put_frame(&mut self.out, self.cur.len() as u32, &self.body)?;
        let next = (self.block_lo - self.lo).min(self.block_records as u64);
        self.block_lo -= next;
        self.cur.resize(next as usize, 0);
        self.fill = next as usize;
        Ok(())
    }

    /// Writes footer + trailer; errors unless exactly `hi − lo` states
    /// arrived. Returns the segment file's total size in bytes.
    fn finish(mut self) -> io::Result<u64> {
        if self.fill != 0 {
            return Err(invalid(format!(
                "segment [{}, {}) finished with {} states missing",
                self.lo,
                self.hi,
                self.block_lo + self.fill as u64 - self.lo
            )));
        }
        write_footer(&mut self.out, &self.offsets, self.file_pos)
    }
}

/// Writes a segment header: magic, `lo`, `hi`, records per block.
fn write_seg_header(out: &mut impl Write, lo: u64, hi: u64, block_records: u32) -> io::Result<()> {
    let mut header = [0u8; SEG_HEADER_BYTES as usize];
    header[0..8].copy_from_slice(&SEG_MAGIC);
    header[8..16].copy_from_slice(&lo.to_le_bytes());
    header[16..24].copy_from_slice(&hi.to_le_bytes());
    header[24..28].copy_from_slice(&block_records.to_le_bytes());
    out.write_all(&header)
}

/// Ends a segment whose frame area stops at `footer_offset`: the block
/// offset index (forward block order), then the 8-byte trailer pointing
/// at it. Flushes and returns the segment's total size in bytes.
fn write_footer(out: &mut BufWriter<File>, offsets: &[u64], footer_offset: u64) -> io::Result<u64> {
    debug_assert!(
        offsets.iter().all(|&off| off != u64::MAX),
        "every block must be placed"
    );
    let footer = frame::put_index(out, offsets)?;
    out.write_all(&footer_offset.to_le_bytes())?;
    out.flush()?;
    Ok(footer_offset + footer + 8)
}

/// One opened blocked segment: validated header + footer index, blocks
/// loaded on demand.
struct BlockedSegment {
    f: File,
    lo: u64,
    hi: u64,
    block_records: u32,
    offsets: Vec<u64>,
    /// Where the footer starts — one past the last block frame (block 0,
    /// which the backward writer appended last).
    footer_offset: u64,
}

impl BlockedSegment {
    fn open(path: &Path) -> io::Result<Self> {
        let mut f = File::open(path)?;
        let len = f.metadata()?.len();
        let mut header = [0u8; SEG_HEADER_BYTES as usize];
        read_exact_ctx(&mut f, &mut header, "segment header")?;
        if header[..8] != SEG_MAGIC {
            return Err(invalid(format!(
                "{}: not a blocked .sta segment (bad magic)",
                path.display()
            )));
        }
        let lo = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let hi = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let block_records = u32::from_le_bytes(header[24..28].try_into().unwrap());
        if lo > hi || !(1..=1 << 22).contains(&block_records) {
            return Err(invalid("implausible .sta segment header"));
        }
        let blocks = sta_block_count(lo, hi, block_records);
        f.seek(SeekFrom::Start(len - 8))?;
        let mut tr = [0u8; 8];
        read_exact_ctx(&mut f, &mut tr, "segment trailer")?;
        let footer_offset = u64::from_le_bytes(tr);
        if footer_offset < SEG_HEADER_BYTES {
            return Err(invalid("state segment truncated (bad footer offset)"));
        }
        let offsets = frame::read_index(
            &mut f,
            footer_offset,
            blocks,
            len - 8,
            SEG_HEADER_BYTES..footer_offset,
            "state segment footer",
        )?;
        Ok(BlockedSegment {
            f,
            lo,
            hi,
            block_records,
            offsets,
            footer_offset,
        })
    }

    /// Record count of block `j` (the last block is short).
    fn block_len(&self, j: usize) -> u32 {
        let start = self.lo + j as u64 * self.block_records as u64;
        (self.hi - start).min(self.block_records as u64) as u32
    }

    /// Decodes block `j` into `out`.
    fn load_block(&mut self, j: usize, out: &mut Vec<u32>, body: &mut Vec<u8>) -> io::Result<()> {
        let expect = self.block_len(j);
        self.f.seek(SeekFrom::Start(self.offsets[j]))?;
        // Worst-case body: one 10-byte varint per record plus the default.
        let max_body = 10 * (expect as u64 + 1);
        frame::read_frame(&mut self.f, expect, max_body, body, ".sta block")?;
        decode_sta_block(body, expect, out)
    }
}

/// Turns a short read anywhere inside the blocked layout into
/// `InvalidData` with context (the reader contract: truncation is
/// corruption, not EOF).
fn read_exact_ctx(f: &mut impl Read, buf: &mut [u8], what: &str) -> io::Result<()> {
    f.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid(format!("state file truncated reading the {what}"))
        } else {
            e
        }
    })
}

/// Reads the `<path>.patch` spine file into a map (absent file = empty).
fn load_patch(base: &Path) -> io::Result<HashMap<u64, u32>> {
    let p = patch_path(base);
    let bytes = match std::fs::read(&p) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => return Err(e),
    };
    if bytes.len() < 8 || bytes[..8] != PATCH_MAGIC || (bytes.len() - 8) % 12 != 0 {
        return Err(invalid("state patch file truncated or malformed"));
    }
    let mut map = HashMap::with_capacity((bytes.len() - 8) / 12);
    for entry in bytes[8..].chunks_exact(12) {
        let ix = u64::from_le_bytes(entry[0..8].try_into().unwrap());
        let state = u32::from_le_bytes(entry[8..12].try_into().unwrap());
        map.insert(ix, state);
    }
    Ok(map)
}

// --- the public writer/reader/patcher facade --------------------------

enum WriterInner {
    Flat(RevWriter<File>, u64),
    Blocked(BlockedSegWriter),
}

/// Writes state ids during the backward phase-1 scan.
pub struct StateFileWriter {
    inner: WriterInner,
}

impl StateFileWriter {
    /// Creates a state stream for `n` nodes (a sequential run's single
    /// segment `[0, n)`).
    pub fn create(path: &Path, n: u64, format: StaFormat) -> io::Result<Self> {
        match format {
            StaFormat::Flat => {
                allocate(path, n, StaFormat::Flat)?;
                let f = OpenOptions::new().write(true).open(path)?;
                Ok(StateFileWriter {
                    inner: WriterInner::Flat(RevWriter::new(f, n * STATE_BYTES as u64), n),
                })
            }
            StaFormat::Blocked => Ok(StateFileWriter {
                inner: WriterInner::Blocked(BlockedSegWriter::create(
                    path,
                    0,
                    n,
                    block_records_from_env(),
                )?),
            }),
        }
    }

    /// Opens the node window `[lo, hi)` of a shared state stream (see
    /// [`allocate`]) for backward writing: the worker assigned the
    /// frontier subtree `[lo, hi)` streams exactly `hi − lo` states into
    /// its slice — a byte window of the flat file, an own side file in
    /// the blocked layout — without touching the other workers' slices.
    pub fn segment(path: &Path, lo: u64, hi: u64, format: StaFormat) -> io::Result<Self> {
        match format {
            StaFormat::Flat => {
                let f = OpenOptions::new().write(true).open(path)?;
                Ok(StateFileWriter {
                    inner: WriterInner::Flat(
                        RevWriter::for_range(f, lo * STATE_BYTES as u64, hi * STATE_BYTES as u64),
                        hi - lo,
                    ),
                })
            }
            StaFormat::Blocked => Ok(StateFileWriter {
                inner: WriterInner::Blocked(BlockedSegWriter::create(
                    &seg_path(path, lo),
                    lo,
                    hi,
                    block_records_from_env(),
                )?),
            }),
        }
    }

    /// Writes the state of the next node (phase 1 visits `hi−1 .. lo`).
    #[inline]
    pub fn write_state(&mut self, state: u32) -> io::Result<()> {
        match &mut self.inner {
            WriterInner::Flat(w, _) => w.write_record(&state.to_le_bytes()),
            WriterInner::Blocked(w) => w.write_state(state),
        }
    }

    /// Writes the states of the next run of nodes: `states` is in
    /// preorder and lies directly below everything written so far, so a
    /// backward pass hands over `[k, hi)`, then `[j, k)`, and so on down
    /// to `lo`. The blocked layout copies the slice into its block
    /// buffer and encodes at block boundaries.
    pub fn write_states(&mut self, states: &[u32]) -> io::Result<()> {
        match &mut self.inner {
            WriterInner::Flat(w, _) => states
                .iter()
                .rev()
                .try_for_each(|s| w.write_record(&s.to_le_bytes())),
            WriterInner::Blocked(w) => w.write_states(states),
        }
    }

    /// Finishes; errors if fewer or more than `hi − lo` states were
    /// written. Returns the encoded bytes this writer put on disk.
    pub fn finish(self) -> io::Result<u64> {
        match self.inner {
            WriterInner::Flat(w, n) => {
                w.finish()?;
                Ok(n * STATE_BYTES as u64)
            }
            WriterInner::Blocked(w) => w.finish(),
        }
    }
}

/// States per refill of a flat reader: 64 KiB of file per read.
const FLAT_READ_STATES: usize = 16 * 1024;

enum ReaderInner {
    Flat {
        f: File,
        /// Reusable byte buffer of one refill.
        bytes: Vec<u8>,
    },
    Blocked {
        /// Non-overlapping segments, sorted by `lo`.
        segments: Vec<BlockedSegment>,
        /// Spine patches (node → state) covering the gaps.
        patch: HashMap<u64, u32>,
        /// Logical stream length in nodes.
        n: u64,
        /// Cursor into `segments`.
        seg_idx: usize,
        body: Vec<u8>,
    },
}

/// Reads state ids in preorder during the forward phase-2 scan. Either
/// layout is served from a **run** of decoded states — a whole decoded
/// block, a 64 KiB slab of the flat file, a lone spine patch — so
/// `read_state` is a bounds check per node and [`read_states`] a
/// `memcpy` per run.
///
/// [`read_states`]: StateFileReader::read_states
pub struct StateFileReader {
    inner: ReaderInner,
    /// The current run; `run[run_pos..]` is still to be served.
    run: Vec<u32>,
    run_pos: usize,
    /// Next preorder index to serve (also the truncation-error context).
    ix: u64,
    /// The index the reader was opened on.
    start: u64,
}

impl StateFileReader {
    /// Opens a state stream from node 0.
    pub fn open(path: &Path, format: StaFormat) -> io::Result<Self> {
        Self::open_at(path, 0, format)
    }

    /// Opens a state stream positioned on node `lo` — phase-2 workers
    /// read their subtree's slice in lockstep with a forward record
    /// range scan.
    pub fn open_at(path: &Path, lo: u64, format: StaFormat) -> io::Result<Self> {
        let inner = match format {
            StaFormat::Flat => {
                let mut f = File::open(path)?;
                f.seek(SeekFrom::Start(lo * STATE_BYTES as u64))?;
                ReaderInner::Flat {
                    f,
                    bytes: Vec::new(),
                }
            }
            StaFormat::Blocked => {
                let mut head = [0u8; 8];
                {
                    let mut f = File::open(path)?;
                    read_exact_ctx(&mut f, &mut head, "stream magic")?;
                }
                let (mut segments, n) = if head == SEG_MAGIC {
                    let seg = BlockedSegment::open(path)?;
                    let n = seg.hi;
                    (vec![seg], n)
                } else if head == MANIFEST_MAGIC {
                    let bytes = std::fs::read(path)?;
                    if bytes.len() != MANIFEST_BYTES as usize
                        || crc32(&bytes[..20])
                            != u32::from_le_bytes(bytes[20..24].try_into().unwrap())
                    {
                        return Err(invalid("state manifest truncated or corrupt"));
                    }
                    let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
                    let mut segments = Vec::new();
                    let (Some(dir), Some(name)) =
                        (path.parent(), path.file_name().and_then(|s| s.to_str()))
                    else {
                        return Err(invalid("state manifest path has no parent directory"));
                    };
                    let prefix = format!("{name}.seg-");
                    for e in std::fs::read_dir(dir)? {
                        let e = e?;
                        if e.file_name()
                            .to_str()
                            .is_some_and(|f| f.starts_with(&prefix))
                        {
                            segments.push(BlockedSegment::open(&e.path())?);
                        }
                    }
                    (segments, n)
                } else {
                    return Err(invalid(format!(
                        "{}: not a blocked .sta stream (bad magic)",
                        path.display()
                    )));
                };
                segments.sort_by_key(|s| s.lo);
                for w in segments.windows(2) {
                    if w[1].lo < w[0].hi {
                        return Err(invalid("overlapping .sta segments"));
                    }
                }
                ReaderInner::Blocked {
                    segments,
                    patch: load_patch(path)?,
                    n,
                    seg_idx: 0,
                    body: Vec::new(),
                }
            }
        };
        Ok(StateFileReader {
            inner,
            run: Vec::new(),
            run_pos: 0,
            ix: lo,
            start: lo,
        })
    }

    /// Reads the next state id. A stream ending early (truncated flat
    /// file, missing segment coverage, damaged block) is `InvalidData`
    /// with the failing node index — never a bare `UnexpectedEof`.
    #[inline]
    pub fn read_state(&mut self) -> io::Result<u32> {
        if self.run_pos == self.run.len() {
            self.refill()?;
        }
        let s = self.run[self.run_pos];
        self.run_pos += 1;
        self.ix += 1;
        Ok(s)
    }

    /// Fills a prefix of `out` with the states of the next nodes and
    /// returns how many — at least one for a non-empty `out`, and never
    /// across a run boundary, so an error (same contract as
    /// [`read_state`](StateFileReader::read_state)) always concerns the
    /// very next node: the states before it were delivered by earlier
    /// calls.
    pub fn read_states(&mut self, out: &mut [u32]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        if self.run_pos == self.run.len() {
            self.refill()?;
        }
        let k = out.len().min(self.run.len() - self.run_pos);
        out[..k].copy_from_slice(&self.run[self.run_pos..self.run_pos + k]);
        self.run_pos += k;
        self.ix += k as u64;
        Ok(k)
    }

    /// Loads the run holding node `self.ix` (the current one is spent).
    /// Leaves at least one state to serve, or fails with none.
    fn refill(&mut self) -> io::Result<()> {
        self.run.clear();
        self.run_pos = 0;
        let loaded = self.load_run();
        if loaded.is_err() {
            self.run.clear();
        }
        loaded
    }

    fn load_run(&mut self) -> io::Result<()> {
        let ix = self.ix;
        match &mut self.inner {
            ReaderInner::Flat { f, bytes } => {
                bytes.resize(FLAT_READ_STATES * STATE_BYTES, 0);
                let mut filled = 0;
                while filled < bytes.len() {
                    match f.read(&mut bytes[filled..]) {
                        Ok(0) => break,
                        Ok(k) => filled += k,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                self.run.extend(
                    bytes[..filled]
                        .chunks_exact(STATE_BYTES)
                        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes"))),
                );
                if self.run.is_empty() {
                    return Err(invalid(format!(
                        "state file truncated: no state for node {ix}"
                    )));
                }
            }
            ReaderInner::Blocked {
                segments,
                patch,
                n,
                seg_idx,
                body,
            } => {
                if ix >= *n {
                    return Err(invalid(format!(
                        "read past the end of the state stream (node {ix} of {n})"
                    )));
                }
                while *seg_idx < segments.len() && ix >= segments[*seg_idx].hi {
                    *seg_idx += 1;
                }
                match segments.get_mut(*seg_idx) {
                    Some(seg) if ix >= seg.lo => {
                        let j = ((ix - seg.lo) / seg.block_records as u64) as usize;
                        seg.load_block(j, &mut self.run, body)?;
                        self.run_pos = ((ix - seg.lo) % seg.block_records as u64) as usize;
                    }
                    // A spine node between segments: a run of one.
                    _ => match patch.get(&ix) {
                        Some(&s) => self.run.push(s),
                        None => {
                            return Err(invalid(format!(
                                "state stream truncated: no segment or patch covers node {ix}"
                            )))
                        }
                    },
                }
            }
        }
        Ok(())
    }

    /// Bytes of state data this reader delivered so far (4 per state —
    /// the *decoded* side of the stats split).
    pub fn decoded_bytes(&self) -> u64 {
        (self.ix - self.start) * STATE_BYTES as u64
    }
}

enum PatcherInner {
    Flat(File),
    Blocked { out: BufWriter<File>, entries: u64 },
}

/// Random-access state writes — the sequential spine of a sharded run is
/// a handful of scattered nodes, patched individually into the shared
/// state stream after the workers fill their segments. Flat: in-place
/// 4-byte writes at `4·ix`. Blocked: `(ix, state)` pairs appended to the
/// `<path>.patch` side file, merged by the reader.
pub struct StateFilePatcher {
    inner: PatcherInner,
}

impl StateFilePatcher {
    /// Opens a shared state stream (see [`allocate`]) for patching.
    pub fn open(path: &Path, format: StaFormat) -> io::Result<Self> {
        let inner = match format {
            StaFormat::Flat => PatcherInner::Flat(OpenOptions::new().write(true).open(path)?),
            StaFormat::Blocked => {
                let mut out = BufWriter::new(File::create(patch_path(path))?);
                out.write_all(&PATCH_MAGIC)?;
                PatcherInner::Blocked { out, entries: 0 }
            }
        };
        Ok(StateFilePatcher { inner })
    }

    /// Writes node `ix`'s state at its slot.
    pub fn write_state_at(&mut self, ix: u64, state: u32) -> io::Result<()> {
        match &mut self.inner {
            PatcherInner::Flat(f) => {
                f.seek(SeekFrom::Start(ix * STATE_BYTES as u64))?;
                f.write_all(&state.to_le_bytes())
            }
            PatcherInner::Blocked { out, entries } => {
                out.write_all(&ix.to_le_bytes())?;
                out.write_all(&state.to_le_bytes())?;
                *entries += 1;
                Ok(())
            }
        }
    }

    /// Flushes; returns the encoded bytes the patches put on disk.
    pub fn finish(self) -> io::Result<u64> {
        match self.inner {
            PatcherInner::Flat(f) => {
                f.sync_data().ok();
                Ok(0) // flat patches overwrite pre-allocated slots
            }
            PatcherInner::Blocked { mut out, entries } => {
                out.flush()?;
                Ok(8 + entries * PATCH_ENTRY_BYTES)
            }
        }
    }
}

/// Report of one [`rewrite_blocked`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaRewrite {
    /// Block frames byte-copied from the previous stream, unverified and
    /// un-re-encoded.
    pub retained_blocks: u32,
    /// Blocks re-encoded from the new state array.
    pub rewritten_blocks: u32,
}

/// Rewrites a **blocked, single-segment** `.sta` stream at `path` for a
/// new epoch of its document. `states` is the complete new phase-1 state
/// array; every state at an index below `dirty_from` is unchanged from
/// the stream already on disk (a subtree edit shifts and restates only
/// indexes from the edit's dirty point on — see [`crate::update`]).
///
/// Blocks wholly below `dirty_from` are **byte-copied**: because the
/// backward writer appends blocks in reverse block order, blocks
/// `k-1..0` sit in one contiguous range at the end of the old frame
/// area, so retention is a single bulk copy with the footer offsets
/// shifted — no decode, no re-encode. Only blocks from the dirty point
/// on are re-encoded. The result replaces `path` atomically
/// (`<path>.tmp` + rename), so a crash leaves the old epoch's stream
/// intact.
pub fn rewrite_blocked(path: &Path, states: &[u32], dirty_from: u64) -> io::Result<StaRewrite> {
    if dirty_from > states.len() as u64 {
        return Err(invalid("dirty_from beyond the new state array"));
    }
    let mut old = BlockedSegment::open(path)?;
    if old.lo != 0 {
        return Err(invalid(
            "rewrite requires a single full segment (sharded streams are per-run scratch)",
        ));
    }
    let r = old.block_records;
    let new_n = states.len() as u64;
    // A block is retainable only if it is full and identical in both
    // epochs: wholly below the dirty point (and hence below both lengths).
    let retained = ((dirty_from / r as u64).min(old.hi / r as u64) as usize).min(old.offsets.len());
    let new_blocks = sta_block_count(0, new_n, r) as usize;
    let retained = retained.min(new_blocks);

    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    let mut out = BufWriter::new(File::create(&tmp)?);
    write_seg_header(&mut out, 0, new_n, r)?;
    let mut offsets = vec![u64::MAX; new_blocks];
    let mut file_pos = SEG_HEADER_BYTES;
    let mut body = Vec::new();
    let mut encoder = BlockEncoder::default();
    // Re-encoded blocks land high-to-low, matching the backward writer's
    // file order (so the retained tail stays a tail).
    for j in (retained..new_blocks).rev() {
        let lo = j as u64 * r as u64;
        let hi = (lo + r as u64).min(new_n);
        encoder.encode(&states[lo as usize..hi as usize], &mut body);
        offsets[j] = file_pos;
        file_pos += frame::put_frame(&mut out, (hi - lo) as u32, &body)?;
    }
    if retained > 0 {
        let start = old.offsets[retained - 1];
        let len = old.footer_offset - start;
        let shift = file_pos as i64 - start as i64;
        old.f.seek(SeekFrom::Start(start))?;
        let mut remaining = len;
        let mut buf = [0u8; 64 * 1024];
        while remaining > 0 {
            let take = remaining.min(buf.len() as u64) as usize;
            read_exact_ctx(&mut old.f, &mut buf[..take], "retained block bytes")?;
            out.write_all(&buf[..take])?;
            remaining -= take as u64;
        }
        for (j, slot) in offsets.iter_mut().enumerate().take(retained) {
            *slot = (old.offsets[j] as i64 + shift) as u64;
        }
        file_pos += len;
    }
    write_footer(&mut out, &offsets, file_pos)?;
    drop(out);
    drop(old);
    std::fs::rename(&tmp, path)?;
    Ok(StaRewrite {
        retained_blocks: retained as u32,
        rewritten_blocks: (new_blocks - retained) as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: [StaFormat; 2] = [StaFormat::Blocked, StaFormat::Flat];

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("arb-sta-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn backward_write_forward_read() {
        for format in BOTH {
            let path = tmp_dir("rt").join(format!("x-{format}.sta"));
            let n = 1000u32;
            let mut w = StateFileWriter::create(&path, n as u64, format).unwrap();
            // Phase-1 order: node n-1 first.
            for ix in (0..n).rev() {
                w.write_state(ix * 3).unwrap();
            }
            let encoded = w.finish().unwrap();
            assert!(encoded > 0);
            let mut r = StateFileReader::open(&path, format).unwrap();
            for ix in 0..n {
                assert_eq!(r.read_state().unwrap(), ix * 3, "{format}");
            }
            assert_eq!(r.decoded_bytes(), n as u64 * 4);
            // Reading past the end is an InvalidData error, not EOF.
            let err = r.read_state().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{format}");
        }
    }

    #[test]
    fn repetitive_streams_encode_below_four_bytes_per_node() {
        let path = tmp_dir("rle").join("rle.sta");
        let n = 10_000u64;
        let mut w = StateFileWriter::create(&path, n, StaFormat::Blocked).unwrap();
        for ix in (0..n).rev() {
            // Long default runs with occasional literals.
            w.write_state(if ix % 97 == 0 { (ix % 7) as u32 } else { 42 })
                .unwrap();
        }
        let encoded = w.finish().unwrap();
        assert!(
            encoded < n * STATE_BYTES as u64 / 4,
            "RLE + skip-default should crush a repetitive stream, got {encoded} bytes"
        );
        let mut r = StateFileReader::open(&path, StaFormat::Blocked).unwrap();
        for ix in 0..n {
            let want = if ix % 97 == 0 { (ix % 7) as u32 } else { 42 };
            assert_eq!(r.read_state().unwrap(), want);
        }
    }

    #[test]
    fn rewrite_retains_clean_blocks_and_roundtrips() {
        let path = tmp_dir("rw").join("rw.sta");
        let n = 100_000u64; // ~4 blocks at the default 32 Ki records
        let state_of = |ix: u64| -> u32 { (ix % 911) as u32 };
        let mut w = StateFileWriter::create(&path, n, StaFormat::Blocked).unwrap();
        for ix in (0..n).rev() {
            w.write_state(state_of(ix)).unwrap();
        }
        w.finish().unwrap();

        // Same length, dirty tail only: two full blocks retainable.
        let dirty_from = 80_000u64;
        let mut states: Vec<u32> = (0..n).map(state_of).collect();
        for s in &mut states[dirty_from as usize..] {
            *s = s.wrapping_mul(7) ^ 13;
        }
        let report = rewrite_blocked(&path, &states, dirty_from).unwrap();
        assert_eq!(report.retained_blocks, 2);
        assert_eq!(report.rewritten_blocks, 2);
        let mut r = StateFileReader::open(&path, StaFormat::Blocked).unwrap();
        for &want in &states {
            assert_eq!(r.read_state().unwrap(), want);
        }

        // Growing rewrite: a splice inserted nodes after `dirty_from`.
        let grown: Vec<u32> = states
            .iter()
            .copied()
            .chain((0..5_000).map(|i| i as u32 * 3 + 1))
            .collect();
        let report = rewrite_blocked(&path, &grown, dirty_from).unwrap();
        assert_eq!(report.retained_blocks, 2);
        assert_eq!(report.rewritten_blocks, 2);
        let mut r = StateFileReader::open(&path, StaFormat::Blocked).unwrap();
        for &want in &grown {
            assert_eq!(r.read_state().unwrap(), want);
        }

        // Shrinking rewrite with a fully-clean prefix still caps retention
        // at the new block count.
        let shrunk: Vec<u32> = grown[..40_000].to_vec();
        let report = rewrite_blocked(&path, &shrunk, 40_000).unwrap();
        assert_eq!(report.retained_blocks, 1);
        assert_eq!(report.rewritten_blocks, 1);
        let mut r = StateFileReader::open(&path, StaFormat::Blocked).unwrap();
        for &want in &shrunk {
            assert_eq!(r.read_state().unwrap(), want);
        }

        // dirty_from past the array is rejected.
        assert!(rewrite_blocked(&path, &shrunk, 40_001).is_err());
    }

    #[test]
    fn codec_roundtrips_hostile_blocks() {
        let mut encoder = BlockEncoder::default();
        let mut body = Vec::new();
        let mut out = Vec::new();
        let cases: Vec<Vec<u32>> = vec![
            vec![7],
            vec![0; 5],
            vec![u32::MAX, 0, u32::MAX, u32::MAX, 1, 1, 1],
            (0..1000u32).collect(),
            (0..1000u32).map(|i| i / 100).collect(),
            vec![5, 5, 9, 9, 9, 5, 5, 5, 2],
        ];
        for states in cases {
            encoder.encode(&states, &mut body);
            decode_sta_block(&body, states.len() as u32, &mut out).unwrap();
            assert_eq!(out, states);
        }
        // Reserved tag 3 is rejected.
        let mut bad = Vec::new();
        push_varint(&mut bad, 0); // default
        push_varint(&mut bad, 3); // tag 3
        assert!(decode_sta_block(&bad, 1, &mut out).is_err());
        // A run overrunning its block is rejected.
        let mut bad = Vec::new();
        push_varint(&mut bad, 0);
        push_varint(&mut bad, (9 << 2) | 1);
        assert!(decode_sta_block(&bad, 2, &mut out).is_err());
    }

    /// The encoder before the per-state counters: one hash-map entry per
    /// run to pick the default state. Kept as the reference the bytes
    /// are pinned against.
    fn reference_encode(states: &[u32], out: &mut Vec<u8>) {
        out.clear();
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &s in states {
            match runs.last_mut() {
                Some((v, len)) if *v == s => *len += 1,
                _ => runs.push((s, 1)),
            }
        }
        let mut totals: HashMap<u32, u64> = HashMap::new();
        for &(v, len) in &runs {
            *totals.entry(v).or_insert(0) += len as u64;
        }
        let default = totals
            .into_iter()
            .max_by_key(|&(v, total)| (total, std::cmp::Reverse(v)))
            .map_or(0, |(v, _)| v);
        push_varint(out, default as u64);
        let mut prev = default;
        for &(v, len) in &runs {
            if v == default {
                push_varint(out, ((len as u64) << 2) | 1);
            } else {
                push_varint(out, zigzag(v as i64 - prev as i64) << 2);
                prev = v;
                if len > 1 {
                    push_varint(out, (((len - 1) as u64) << 2) | 2);
                }
            }
        }
    }

    /// The block bytes are a format: the default state is the most
    /// frequent one, the smallest on a tie, whether it is counted by
    /// index or — past `DENSE_STATES` — by hash.
    #[test]
    fn encoder_bytes_match_the_reference() {
        let big = DENSE_STATES + 5;
        let mut cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![9],
            vec![3, 1, 3, 1],                 // tie: 1 wins
            vec![big, 2, big, 2],             // tie across the counters: 2 wins
            vec![big + 1, big, big + 1, big], // tie among the hashed: big wins
            vec![big, big, 2, u32::MAX, u32::MAX, u32::MAX],
            (0..500u32).map(|i| (i * i) % 7).collect(),
        ];
        let mut x = 12345u64;
        cases.push(
            (0..3000)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 40) % 5) as u32 * if x & 1 == 0 { 1 } else { 40_000 }
                })
                .collect(),
        );
        let mut encoder = BlockEncoder::default();
        let (mut got, mut want, mut back) = (Vec::new(), Vec::new(), Vec::new());
        for states in &cases {
            // Twice: the counters must come back clean from the first use.
            for _ in 0..2 {
                encoder.encode(states, &mut got);
                reference_encode(states, &mut want);
                assert_eq!(got, want, "{states:?}");
            }
            decode_sta_block(&got, states.len() as u32, &mut back).unwrap();
            assert_eq!(&back, states);
        }
    }

    /// Runs and single states mix freely on both sides, wherever a run's
    /// ends fall against the block frames: the stream is the same as
    /// when written and read state by state.
    #[test]
    fn runs_cross_block_frames_on_both_sides() {
        let dir = tmp_dir("runs");
        let (lo, hi) = (5u64, 1_000u64);
        let state_of = |ix: u64| ((ix * ix) % 11) as u32;
        let all: Vec<u32> = (lo..hi).map(state_of).collect();
        for format in BOTH {
            let path = dir.join(format!("runs-{format}.sta"));
            allocate(&path, hi, format).unwrap();
            // 64-state blocks (set here, not through the process-wide
            // environment knob other tests of this binary read).
            let mut w = match format {
                StaFormat::Flat => StateFileWriter::segment(&path, lo, hi, format).unwrap(),
                StaFormat::Blocked => StateFileWriter {
                    inner: WriterInner::Blocked(
                        BlockedSegWriter::create(&seg_path(&path, lo), lo, hi, 64).unwrap(),
                    ),
                },
            };
            // Backwards, in runs of 1, 2, 3, … 100, 1, … states, each in
            // preorder; every seventh run goes in state by state.
            let (mut end, mut len, mut turn) = (all.len(), 1usize, 0);
            while end > 0 {
                let start = end.saturating_sub(len);
                if turn % 7 == 6 {
                    for &s in all[start..end].iter().rev() {
                        w.write_state(s).unwrap();
                    }
                } else {
                    w.write_states(&all[start..end]).unwrap();
                }
                (end, len, turn) = (start, len % 100 + 1, turn + 1);
            }
            if format == StaFormat::Blocked {
                // (The flat writer reports an overfull window at `finish`.)
                assert!(w.write_states(&[1]).is_err(), "the window is full");
            }
            w.finish().unwrap();
            let mut p = StateFilePatcher::open(&path, format).unwrap();
            for ix in 0..lo {
                p.write_state_at(ix, state_of(ix)).unwrap();
            }
            p.finish().unwrap();

            // Forwards from mid-block, asking for 1, 2, 3, … states.
            for from in [0u64, lo, 70, 64 + lo, 999] {
                let mut r = StateFileReader::open_at(&path, from, format).unwrap();
                let (mut ix, mut ask) = (from, 1usize);
                let mut buf = [0u32; 150];
                while ix < hi {
                    let k = if ask % 5 == 0 {
                        buf[0] = r.read_state().unwrap();
                        1
                    } else {
                        let want = ask.min((hi - ix) as usize);
                        r.read_states(&mut buf[..want]).unwrap()
                    };
                    assert!(k >= 1, "{format}: a read makes progress");
                    for (i, &s) in buf[..k].iter().enumerate() {
                        assert_eq!(
                            s,
                            state_of(ix + i as u64),
                            "{format}: node {}",
                            ix + i as u64
                        );
                    }
                    (ix, ask) = (ix + k as u64, ask % 150 + 1);
                }
                assert_eq!(r.decoded_bytes(), (hi - from) * 4, "{format}");
                assert_eq!(r.read_states(&mut []).unwrap(), 0);
                let err = r.read_states(&mut buf).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{format}: {err}");
            }
        }
    }

    #[test]
    fn finish_detects_missing_states() {
        for format in BOTH {
            let path = tmp_dir("miss").join(format!("y-{format}.sta"));
            let mut w = StateFileWriter::create(&path, 3, format).unwrap();
            w.write_state(1).unwrap();
            assert!(w.finish().is_err(), "{format}");
        }
    }

    #[test]
    fn segments_and_patches_compose_into_one_state_stream() {
        for format in BOTH {
            let dir = tmp_dir("seg");
            let path = dir.join(format!("seg-{format}.sta"));
            let n = 100u64;
            allocate(&path, n, format).unwrap();

            // Two "workers" fill [10, 40) and [40, 100) backwards; the
            // "spine" nodes [0, 10) are patched individually.
            for (lo, hi) in [(10u64, 40u64), (40, 100)] {
                let mut w = StateFileWriter::segment(&path, lo, hi, format).unwrap();
                for ix in (lo..hi).rev() {
                    w.write_state(ix as u32 * 7).unwrap();
                }
                w.finish().unwrap();
            }
            let mut p = StateFilePatcher::open(&path, format).unwrap();
            for ix in 0..10u64 {
                p.write_state_at(ix, ix as u32 * 7).unwrap();
            }
            p.finish().unwrap();

            // A plain forward read sees one coherent stream.
            let mut r = StateFileReader::open(&path, format).unwrap();
            for ix in 0..n {
                assert_eq!(r.read_state().unwrap(), ix as u32 * 7, "{format}");
            }
            // A positioned read starts mid-stream (even mid-segment).
            for lo in [40u64, 57] {
                let mut r = StateFileReader::open_at(&path, lo, format).unwrap();
                assert_eq!(r.read_state().unwrap(), lo as u32 * 7, "{format}");
            }

            // A segment must fill exactly its window.
            let mut w = StateFileWriter::segment(&path, 0, 3, format).unwrap();
            w.write_state(1).unwrap();
            assert!(w.finish().is_err(), "{format}");
        }
    }

    /// Segment boundaries that do not land on block boundaries: with
    /// tiny blocks the segment windows straddle many frames.
    #[test]
    fn segments_straddle_block_frames() {
        let dir = tmp_dir("straddle");
        let path = dir.join("straddle.sta");
        let n = 500u64;
        std::env::set_var("ARB_STA_BLOCK_RECORDS", "16");
        allocate(&path, n, StaFormat::Blocked).unwrap();
        for (lo, hi) in [(3u64, 130u64), (130, 257), (257, 500)] {
            let mut w = StateFileWriter::segment(&path, lo, hi, StaFormat::Blocked).unwrap();
            for ix in (lo..hi).rev() {
                w.write_state((ix % 5) as u32).unwrap();
            }
            w.finish().unwrap();
        }
        let mut p = StateFilePatcher::open(&path, StaFormat::Blocked).unwrap();
        for ix in 0..3u64 {
            p.write_state_at(ix, (ix % 5) as u32).unwrap();
        }
        p.finish().unwrap();
        std::env::remove_var("ARB_STA_BLOCK_RECORDS");
        let mut r = StateFileReader::open(&path, StaFormat::Blocked).unwrap();
        for ix in 0..n {
            assert_eq!(r.read_state().unwrap(), (ix % 5) as u32, "node {ix}");
        }
    }

    #[test]
    fn truncation_is_invalid_data_with_context() {
        for format in BOTH {
            let path = tmp_dir("trunc").join(format!("t-{format}.sta"));
            let n = 64u64;
            let mut w = StateFileWriter::create(&path, n, format).unwrap();
            for ix in (0..n).rev() {
                w.write_state(ix as u32).unwrap();
            }
            w.finish().unwrap();
            // Chop the tail off the file.
            let len = std::fs::metadata(&path).unwrap().len();
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len / 2).unwrap();
            let res = StateFileReader::open(&path, format).and_then(|mut r| {
                for _ in 0..n {
                    r.read_state()?;
                }
                Ok(())
            });
            let err = res.expect_err("truncated stream must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{format}: {err}");
            assert!(
                err.to_string().contains("truncated") || err.to_string().contains("state"),
                "{format}: error must carry context, got {err}"
            );
        }
        // A missing segment of a sharded blocked stream is also caught.
        let dir = tmp_dir("trunc2");
        let path = dir.join("gap.sta");
        allocate(&path, 20, StaFormat::Blocked).unwrap();
        let mut w = StateFileWriter::segment(&path, 0, 10, StaFormat::Blocked).unwrap();
        for ix in (0..10u64).rev() {
            w.write_state(ix as u32).unwrap();
        }
        w.finish().unwrap();
        let mut r = StateFileReader::open(&path, StaFormat::Blocked).unwrap();
        for _ in 0..10 {
            r.read_state().unwrap();
        }
        let err = r.read_state().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("node 10"), "{err}");
    }

    #[test]
    fn blocked_corruption_is_rejected() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("c.sta");
        let n = 64u64;
        let mut w = StateFileWriter::create(&path, n, StaFormat::Blocked).unwrap();
        for ix in (0..n).rev() {
            w.write_state(ix as u32 * 3).unwrap();
        }
        w.finish().unwrap();
        // Flip a byte inside the first block body.
        let mut bytes = std::fs::read(&path).unwrap();
        // Two bytes past the 12-byte head of the first frame.
        let target = SEG_HEADER_BYTES as usize + 12 + 2;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let res = StateFileReader::open(&path, StaFormat::Blocked)
            .and_then(|mut r| r.read_state().map(|_| ()));
        let err = res.expect_err("bit flip must be caught");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    /// A segment header claiming 2^64 − 1 one-record blocks, whose
    /// trailer points just past the header: the footer size wraps the
    /// address space, so it must be refused before anything is sized
    /// from it.
    #[test]
    fn footer_size_past_the_address_space_is_invalid_data() {
        let path = tmp_dir("huge").join("huge.sta");
        let mut bytes = Vec::new();
        write_seg_header(&mut bytes, 0, u64::MAX, 1).unwrap();
        bytes.extend_from_slice(&32u64.to_le_bytes());
        assert_eq!(bytes.len(), 36);
        std::fs::write(&path, &bytes).unwrap();
        let err = StateFileReader::open(&path, StaFormat::Blocked)
            .err()
            .expect("open must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let err = rewrite_blocked(&path, &[], 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn scratch_path_deletes_side_files_on_drop() {
        let dir = tmp_dir("drop");
        let path = dir.join("scratch.sta");
        let guard = ScratchPath::new(path.clone());
        allocate(guard.path(), 80, StaFormat::Blocked).unwrap();
        let mut w = StateFileWriter::segment(guard.path(), 8, 80, StaFormat::Blocked).unwrap();
        for ix in (8..80u64).rev() {
            w.write_state(ix as u32).unwrap();
        }
        w.finish().unwrap();
        let mut p = StateFilePatcher::open(guard.path(), StaFormat::Blocked).unwrap();
        p.write_state_at(0, 1).unwrap();
        p.finish().unwrap();
        let seg = seg_path(&path, 8);
        let patch = patch_path(&path);
        assert!(path.exists() && seg.exists() && patch.exists());
        drop(guard);
        assert!(!path.exists(), "manifest must vanish with its guard");
        assert!(!seg.exists(), "segment side files must vanish too");
        assert!(!patch.exists(), "the patch side file must vanish too");
        // Dropping a guard whose files were never created is fine.
        drop(ScratchPath::new(dir.join("never-created.sta")));
    }

    #[test]
    fn sweep_removes_only_dead_owners_scratch() {
        let dir = tmp_dir("sweep");
        let db_path = dir.join("x.arb");
        std::fs::write(&db_path, [0, 0]).unwrap();
        // A pid far above any kernel's pid_max: provably not running.
        let dead = 4_000_000_000u32;
        let me = std::process::id();
        let stale = [
            dir.join(format!("x.p{dead}-0.sta")),
            dir.join(format!("x.p{dead}-0.sta.seg-5")),
            dir.join(format!("x.p{dead}-1.sta.patch")),
        ];
        let kept = [
            dir.join(format!("x.p{me}-0.sta")),     // our own live run
            dir.join("x.pabc-0.sta"),               // malformed pid
            dir.join(format!("x.p{dead}-0.stale")), // not a .sta stream
            dir.join(format!("y.p{dead}-0.sta")),   // different database
        ];
        for p in stale.iter().chain(&kept) {
            std::fs::write(p, b"junk").unwrap();
        }
        let mut swept = sweep_stale_scratch(&db_path).unwrap();
        swept.sort();
        let mut expected: Vec<_> = stale.to_vec();
        expected.sort();
        if cfg!(target_os = "linux") {
            assert_eq!(swept, expected);
            for p in &stale {
                assert!(!p.exists(), "{} must be swept", p.display());
            }
        } else {
            // Liveness cannot be checked: nothing may be deleted.
            assert!(swept.is_empty());
        }
        for p in &kept {
            assert!(p.exists(), "{} must survive the sweep", p.display());
        }
    }

    #[test]
    fn scratch_owner_pid_parsing() {
        assert_eq!(scratch_owner_pid("x.p123-0.sta", "x.p"), Some(123));
        assert_eq!(scratch_owner_pid("x.p123-17.sta.seg-40", "x.p"), Some(123));
        assert_eq!(scratch_owner_pid("x.p123-2.sta.patch", "x.p"), Some(123));
        assert_eq!(scratch_owner_pid("x.p123-0.sta", "y.p"), None);
        assert_eq!(scratch_owner_pid("x.pabc-0.sta", "x.p"), None);
        assert_eq!(scratch_owner_pid("x.p123-x.sta", "x.p"), None);
        assert_eq!(scratch_owner_pid("x.p123-0.stale", "x.p"), None);
        assert_eq!(scratch_owner_pid("x.p123.sta", "x.p"), None);
    }

    #[test]
    fn format_parsing() {
        assert_eq!(StaFormat::parse("flat"), Some(StaFormat::Flat));
        assert_eq!(StaFormat::parse("FLAT"), Some(StaFormat::Flat));
        assert_eq!(StaFormat::parse("blocked"), Some(StaFormat::Blocked));
        assert_eq!(StaFormat::parse("bogus"), None);
        assert_eq!(StaFormat::default(), StaFormat::Blocked);
        assert_eq!(StaFormat::Blocked.to_string(), "blocked");
        assert_eq!(StaFormat::Flat.to_string(), "flat");
    }
}
