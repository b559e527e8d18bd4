//! Linear scans over `.arb` record streams.
//!
//! Both scan directions come in two backings behind one type each: a
//! **raw** variant streaming the v1 fixed-width record array, and a
//! **blocked** variant decoding v2 blocks (see [`crate::v2`]) into a
//! reusable record buffer — one checksum-verified 64 KiB-class decode
//! per block instead of a 2-byte read per record. Callers (the
//! traversal drivers, the query kernels) see the same
//! `next_record() -> (preorder index, record)` stream either way, so
//! Proposition 5.1's two-linear-scans shape is untouched by the format.

use crate::format::{NodeRecord, RECORD_BYTES};
use crate::rev::RevReader;
use crate::v2::{read_block, BlockMap};
use arb_tree::traverse::RecordStream;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Object-safe `Read + Seek`, so the blocked forward variant can hold a
/// seekable reader without forcing `Seek` onto `ForwardScan`'s public
/// `R: Read` bound (which in-memory `Cursor` tests and the traversal
/// drivers rely on).
trait ReadSeek: Read + Seek {}
impl<T: Read + Seek> ReadSeek for T {}

/// Shared state of a blocked (v2) scan in either direction.
struct Blocked {
    inner: Box<dyn ReadSeek>,
    map: Arc<BlockMap>,
    /// Lifetime block-decode counter of the owning database handle.
    counter: Option<Arc<AtomicU64>>,
    /// Reusable decoded-record buffer (one block).
    buf: Vec<NodeRecord>,
    /// Reusable compressed-body scratch buffer.
    scratch: Vec<u8>,
    /// Block index currently decoded in `buf` (`u32::MAX` = none).
    loaded: u32,
}

impl Blocked {
    fn new(inner: Box<dyn ReadSeek>, map: Arc<BlockMap>, counter: Option<Arc<AtomicU64>>) -> Self {
        Blocked {
            inner,
            map,
            counter,
            buf: Vec::new(),
            scratch: Vec::new(),
            loaded: u32::MAX,
        }
    }

    /// Returns the record at absolute preorder index `ix`, decoding its
    /// block first if it is not the one already buffered.
    fn record(&mut self, ix: u32) -> io::Result<NodeRecord> {
        let b = self.map.block_of(ix);
        if self.loaded != b {
            read_block(
                &mut self.inner,
                self.map.offsets[b as usize],
                self.map.records_in(b),
                &mut self.scratch,
                &mut self.buf,
            )?;
            self.loaded = b;
            if let Some(c) = &self.counter {
                c.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(self.buf[(ix - b * self.map.block_records) as usize])
    }
}

enum FwdInner<R: Read> {
    Raw(BufReader<R>),
    Blocked(Blocked),
}

/// Forward (left-to-right) record scan — the top-down traversal's input
/// (paper Prop. 5.1). Yields `(preorder index, record)`.
pub struct ForwardScan<R: Read> {
    inner: FwdInner<R>,
    next_ix: u32,
    /// One past the last record of the window.
    hi: u32,
}

impl<R: Read> ForwardScan<R> {
    /// A scan over `n` raw (v1) records.
    pub fn new(inner: R, n: u32) -> Self {
        ForwardScan {
            inner: FwdInner::Raw(BufReader::with_capacity(64 * 1024, inner)),
            next_ix: 0,
            hi: n,
        }
    }

    /// A raw (v1) scan over the record window `[lo, hi)`, seeking to
    /// `lo` first — yielded indexes stay absolute preorder indexes.
    /// Sharded phase-2 workers descend disjoint frontier subtrees with
    /// these.
    pub fn range(mut inner: R, lo: u32, hi: u32) -> io::Result<Self>
    where
        R: Seek,
    {
        debug_assert!(lo <= hi);
        inner.seek(SeekFrom::Start(lo as u64 * RECORD_BYTES as u64))?;
        Ok(ForwardScan {
            inner: FwdInner::Raw(BufReader::with_capacity(64 * 1024, inner)),
            next_ix: lo,
            hi,
        })
    }

    /// A blocked (v2) scan over `[lo, hi)`: the per-block index lets the
    /// scan seek straight to the block holding `lo`.
    pub(crate) fn blocked(
        inner: R,
        map: Arc<BlockMap>,
        counter: Option<Arc<AtomicU64>>,
        lo: u32,
        hi: u32,
    ) -> Self
    where
        R: Seek + 'static,
    {
        debug_assert!(lo <= hi);
        ForwardScan {
            inner: FwdInner::Blocked(Blocked::new(Box::new(inner), map, counter)),
            next_ix: lo,
            hi,
        }
    }

    /// Reads the next record, or `None` after the last.
    pub fn next_record(&mut self) -> io::Result<Option<(u32, NodeRecord)>> {
        if self.next_ix >= self.hi {
            return Ok(None);
        }
        let ix = self.next_ix;
        let rec = match &mut self.inner {
            FwdInner::Raw(r) => {
                let mut buf = [0u8; RECORD_BYTES];
                r.read_exact(&mut buf)?;
                NodeRecord::from_bytes(buf)
            }
            FwdInner::Blocked(b) => b.record(ix)?,
        };
        self.next_ix += 1;
        Ok(Some((ix, rec)))
    }
}

impl<R: Read> RecordStream for ForwardScan<R> {
    type Record = NodeRecord;

    #[inline]
    fn next_node(&mut self) -> io::Result<Option<(u32, NodeRecord)>> {
        self.next_record()
    }
}

enum BwdInner<R: Read + Seek> {
    Raw(RevReader<R>),
    Blocked(Blocked),
}

/// Backward (right-to-left) record scan — the bottom-up traversal's input
/// (paper Prop. 5.1). Yields `(preorder index, record)` from `hi−1` down
/// to `lo` (the whole file with [`BackwardScan::new`]).
pub struct BackwardScan<R: Read + Seek> {
    inner: BwdInner<R>,
    next_ix: u32,
    /// First record of the window (where the scan ends).
    lo: u32,
}

impl<R: Read + Seek> BackwardScan<R> {
    /// A scan over `n` raw (v1) records.
    pub fn new(inner: R, n: u32) -> io::Result<Self> {
        Self::range(inner, 0, n)
    }

    /// A raw (v1) scan over the record window `[lo, hi)`, read backwards
    /// from `hi−1` — the input of per-worker phase-1 subtree runs in
    /// sharded evaluation.
    pub fn range(inner: R, lo: u32, hi: u32) -> io::Result<Self> {
        Ok(BackwardScan {
            inner: BwdInner::Raw(RevReader::for_range(
                inner,
                lo as u64 * RECORD_BYTES as u64,
                hi as u64 * RECORD_BYTES as u64,
                RECORD_BYTES,
            )?),
            next_ix: hi,
            lo,
        })
    }

    /// A blocked (v2) scan over `[lo, hi)`, read backwards block by
    /// block.
    pub(crate) fn blocked(
        inner: R,
        map: Arc<BlockMap>,
        counter: Option<Arc<AtomicU64>>,
        lo: u32,
        hi: u32,
    ) -> Self
    where
        R: 'static,
    {
        debug_assert!(lo <= hi);
        BackwardScan {
            inner: BwdInner::Blocked(Blocked::new(Box::new(inner), map, counter)),
            next_ix: hi,
            lo,
        }
    }

    /// The first record index of the window (0 for a whole-file scan).
    pub fn start_ix(&self) -> u32 {
        self.lo
    }

    /// Reads the previous record, or `None` before the first.
    pub fn next_record(&mut self) -> io::Result<Option<(u32, NodeRecord)>> {
        match &mut self.inner {
            BwdInner::Raw(rev) => {
                let mut buf = [0u8; RECORD_BYTES];
                match rev.read_record(&mut buf)? {
                    None => Ok(None),
                    Some(()) => {
                        self.next_ix -= 1;
                        Ok(Some((self.next_ix, NodeRecord::from_bytes(buf))))
                    }
                }
            }
            BwdInner::Blocked(b) => {
                if self.next_ix <= self.lo {
                    return Ok(None);
                }
                let ix = self.next_ix - 1;
                let rec = b.record(ix)?;
                self.next_ix = ix;
                Ok(Some((ix, rec)))
            }
        }
    }
}

impl<R: Read + Seek> RecordStream for BackwardScan<R> {
    type Record = NodeRecord;

    #[inline]
    fn next_node(&mut self) -> io::Result<Option<(u32, NodeRecord)>> {
        self.next_record()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_tree::LabelId;
    use std::io::Cursor;

    fn records() -> Vec<NodeRecord> {
        (0..5u16)
            .map(|i| NodeRecord {
                label: LabelId(300 + i),
                has_first: i % 2 == 0,
                has_second: i % 3 == 0,
            })
            .collect()
    }

    fn file_of(recs: &[NodeRecord]) -> Vec<u8> {
        recs.iter().flat_map(|r| r.to_bytes()).collect()
    }

    /// A v2 file (as bytes) plus its block map, for blocked-scan tests.
    fn v2_file_of(recs: &[NodeRecord]) -> (Vec<u8>, Arc<BlockMap>) {
        let dir = std::env::temp_dir().join(format!("arb-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("s{}.arbv2", recs.len()));
        let mut w =
            crate::v2::V2Writer::new(std::fs::File::create(&path).unwrap(), recs.len() as u32, 0)
                .unwrap();
        for &r in recs {
            w.push(r).unwrap();
        }
        // Structurally meaningless extents are fine for scan tests.
        let ends: Vec<u32> = (0..recs.len() as u32).map(|v| v + 1).collect();
        let kinds = vec![0u8; recs.len()];
        let len = w.finish(&ends, &kinds).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut f = Cursor::new(bytes.clone());
        let meta = crate::v2::read_meta(&mut f, len).unwrap();
        (bytes, meta.map)
    }

    #[test]
    fn forward_yields_in_order() {
        let recs = records();
        let mut scan = ForwardScan::new(Cursor::new(file_of(&recs)), recs.len() as u32);
        let mut seen = Vec::new();
        while let Some((ix, r)) = scan.next_record().unwrap() {
            assert_eq!(ix as usize, seen.len());
            seen.push(r);
        }
        assert_eq!(seen, recs);
    }

    #[test]
    fn range_scans_yield_the_window_with_absolute_indexes() {
        let recs = records();
        let bytes = file_of(&recs);

        let mut scan = ForwardScan::range(Cursor::new(bytes.clone()), 1, 4).unwrap();
        let mut seen = Vec::new();
        while let Some((ix, r)) = scan.next_record().unwrap() {
            assert_eq!(r, recs[ix as usize]);
            seen.push(ix);
        }
        assert_eq!(seen, vec![1, 2, 3]);

        let mut scan = BackwardScan::range(Cursor::new(bytes), 1, 4).unwrap();
        assert_eq!(scan.start_ix(), 1);
        let mut seen = Vec::new();
        while let Some((ix, r)) = scan.next_record().unwrap() {
            assert_eq!(r, recs[ix as usize]);
            seen.push(ix);
        }
        assert_eq!(seen, vec![3, 2, 1]);
    }

    #[test]
    fn backward_yields_in_reverse() {
        let recs = records();
        let mut scan = BackwardScan::new(Cursor::new(file_of(&recs)), recs.len() as u32).unwrap();
        let mut expected_ix = recs.len() as u32;
        while let Some((ix, r)) = scan.next_record().unwrap() {
            expected_ix -= 1;
            assert_eq!(ix, expected_ix);
            assert_eq!(r, recs[ix as usize]);
        }
        assert_eq!(expected_ix, 0);
    }

    #[test]
    fn blocked_scans_match_raw_scans() {
        // Enough records to span multiple blocks would be slow here;
        // block-boundary behavior is covered by the db-level tests. This
        // exercises both directions and range windows on one block.
        let recs: Vec<NodeRecord> = (0..100u16)
            .map(|i| NodeRecord {
                label: LabelId(256 + (i * 13) % 500),
                has_first: i % 2 == 1,
                has_second: i % 4 == 0,
            })
            .collect();
        let (bytes, map) = v2_file_of(&recs);
        let counter = Arc::new(AtomicU64::new(0));

        let mut fwd = ForwardScan::blocked(
            Cursor::new(bytes.clone()),
            map.clone(),
            Some(counter.clone()),
            0,
            recs.len() as u32,
        );
        let mut seen = Vec::new();
        while let Some((ix, r)) = fwd.next_record().unwrap() {
            assert_eq!(ix as usize, seen.len());
            seen.push(r);
        }
        assert_eq!(seen, recs);
        assert_eq!(counter.load(Ordering::Relaxed), 1, "one block, one decode");

        let mut bwd = BackwardScan::blocked(
            Cursor::new(bytes.clone()),
            map.clone(),
            None,
            0,
            recs.len() as u32,
        );
        let mut seen = Vec::new();
        while let Some((ix, r)) = bwd.next_record().unwrap() {
            assert_eq!(r, recs[ix as usize]);
            seen.push(ix);
        }
        assert_eq!(seen.len(), recs.len());
        assert_eq!(seen[0] as usize, recs.len() - 1);
        assert_eq!(*seen.last().unwrap(), 0);

        // Range windows with absolute indexes, both directions.
        let mut fwd = ForwardScan::blocked(Cursor::new(bytes.clone()), map.clone(), None, 10, 20);
        let mut ixs = Vec::new();
        while let Some((ix, r)) = fwd.next_record().unwrap() {
            assert_eq!(r, recs[ix as usize]);
            ixs.push(ix);
        }
        assert_eq!(ixs, (10..20).collect::<Vec<u32>>());
        let mut bwd = BackwardScan::blocked(Cursor::new(bytes), map, None, 10, 20);
        assert_eq!(bwd.start_ix(), 10);
        let mut ixs = Vec::new();
        while let Some((ix, _)) = bwd.next_record().unwrap() {
            ixs.push(ix);
        }
        assert_eq!(ixs, (10..20).rev().collect::<Vec<u32>>());
    }
}
