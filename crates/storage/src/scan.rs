//! Linear scans over `.arb` record streams.
//!
//! Both scan directions come in two backings behind one type each: a
//! **raw** variant streaming the v1 fixed-width record array, and a
//! **blocked** variant decoding v2 blocks (see [`crate::v2`]). Either
//! way a scan holds one **run** of decoded records at a time — a whole
//! checksum-verified v2 block, or a 64 KiB slab of v1 records — and
//! hands it to the folds as a slice ([`RecordStream::next_run`]).
//! `next_record()` is a cursor over the current run, so per-record
//! callers pay an index and a bounds check, nothing per-format.
//! Proposition 5.1's two-linear-scans shape is untouched by the format.

use crate::format::{NodeRecord, RECORD_BYTES};
use crate::v2::{read_block, BlockMap};
use arb_tree::traverse::{RecordStream, Run};
use std::io::{self, Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Records per run of a raw (v1) scan: 64 KiB of file per read.
const SLAB_RECORDS: u32 = 32 * 1024;

/// Where a scan's runs come from.
enum Backing {
    /// The v1 fixed-width record array, read a slab at a time.
    Raw {
        /// Reusable slab byte buffer.
        bytes: Vec<u8>,
    },
    /// v2 blocks, decoded one at a time.
    Blocked {
        map: Arc<BlockMap>,
        /// Lifetime block-decode counter of the owning database handle.
        counter: Option<Arc<AtomicU64>>,
        /// Reusable compressed-body scratch buffer.
        scratch: Vec<u8>,
    },
}

/// The run machinery both scan directions share: the reader, the decoded
/// run and the part of it not yet served.
struct Runs<R> {
    inner: R,
    backing: Backing,
    /// The decoded run (a v2 block, or a v1 slab).
    buf: Vec<NodeRecord>,
    /// Preorder index of `buf[0]`.
    base: u32,
    /// The unserved part of the run is `buf[lo..hi]`: a forward scan
    /// serves from `lo` up, a backward scan from `hi` down.
    lo: usize,
    hi: usize,
}

impl<R: Read + Seek> Runs<R> {
    fn new(inner: R, backing: Backing) -> Self {
        Runs {
            inner,
            backing,
            buf: Vec::new(),
            base: 0,
            lo: 0,
            hi: 0,
        }
    }

    /// Loads the next run of the (non-empty) window `[win_lo, win_hi)` —
    /// the run holding its first record for a forward scan, its last for
    /// a backward one; a raw slab starts, or ends, right there — and
    /// marks the run's overlap with the window unserved.
    fn load(&mut self, win_lo: u32, win_hi: u32, forward: bool) -> io::Result<()> {
        let ix = if forward { win_lo } else { win_hi - 1 };
        let (run_lo, run_hi) = match &mut self.backing {
            Backing::Raw { bytes } => {
                let (run_lo, run_hi) = if forward {
                    (ix, win_hi.min(ix.saturating_add(SLAB_RECORDS)))
                } else {
                    (win_lo.max((ix + 1).saturating_sub(SLAB_RECORDS)), ix + 1)
                };
                bytes.resize((run_hi - run_lo) as usize * RECORD_BYTES, 0);
                self.inner
                    .seek(SeekFrom::Start(run_lo as u64 * RECORD_BYTES as u64))?;
                self.inner.read_exact(bytes)?;
                self.buf.clear();
                self.buf.extend(
                    bytes
                        .chunks_exact(RECORD_BYTES)
                        .map(|b| NodeRecord::from_bytes([b[0], b[1]])),
                );
                (run_lo, run_hi)
            }
            Backing::Blocked {
                map,
                counter,
                scratch,
            } => {
                let b = map.block_of(ix);
                let n = map.records_in(b);
                read_block(
                    &mut self.inner,
                    map.offsets[b as usize],
                    n,
                    scratch,
                    &mut self.buf,
                )?;
                if let Some(c) = counter {
                    c.fetch_add(1, Ordering::Relaxed);
                }
                let run_lo = b * map.block_records;
                (run_lo, run_lo + n)
            }
        };
        self.base = run_lo;
        self.lo = (win_lo.max(run_lo) - run_lo) as usize;
        self.hi = (win_hi.min(run_hi) - run_lo) as usize;
        Ok(())
    }

    /// Hands out the whole unserved part of the run.
    fn take_run(&mut self) -> Run<'_, NodeRecord> {
        let (lo, hi) = (self.lo, self.hi);
        self.lo = hi;
        (self.base + lo as u32, &self.buf[lo..hi])
    }
}

fn check_window(lo: u32, hi: u32) -> io::Result<()> {
    if lo > hi {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "record window ends before it starts",
        ));
    }
    Ok(())
}

/// Forward (left-to-right) record scan — the top-down traversal's input
/// (paper Prop. 5.1). Yields `(preorder index, record)`.
pub struct ForwardScan<R: Read + Seek> {
    runs: Runs<R>,
    /// First record no run has covered yet.
    next_ix: u32,
    /// One past the last record of the window.
    hi: u32,
}

impl<R: Read + Seek> ForwardScan<R> {
    /// A scan over `n` raw (v1) records from the reader's start.
    pub fn new(inner: R, n: u32) -> Self {
        ForwardScan {
            runs: Runs::new(inner, Backing::Raw { bytes: Vec::new() }),
            next_ix: 0,
            hi: n,
        }
    }

    /// A raw (v1) scan over the record window `[lo, hi)` — yielded
    /// indexes stay absolute preorder indexes. Sharded phase-2 workers
    /// descend disjoint frontier subtrees with these.
    pub fn range(inner: R, lo: u32, hi: u32) -> io::Result<Self> {
        check_window(lo, hi)?;
        Ok(ForwardScan {
            next_ix: lo,
            ..Self::new(inner, hi)
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
    ) -> Self {
        debug_assert!(lo <= hi);
        let backing = Backing::Blocked {
            map,
            counter,
            scratch: Vec::new(),
        };
        ForwardScan {
            runs: Runs::new(inner, backing),
            next_ix: lo,
            hi,
        }
    }

    /// Makes the run after the current one current; `false` past the
    /// window's last record.
    fn advance(&mut self) -> io::Result<bool> {
        if self.next_ix >= self.hi {
            return Ok(false);
        }
        self.runs.load(self.next_ix, self.hi, true)?;
        self.next_ix = self.runs.base + self.runs.hi as u32;
        Ok(true)
    }

    /// Reads the next record, or `None` after the last.
    #[inline]
    pub fn next_record(&mut self) -> io::Result<Option<(u32, NodeRecord)>> {
        if self.runs.lo == self.runs.hi && !self.advance()? {
            return Ok(None);
        }
        let at = self.runs.lo;
        self.runs.lo += 1;
        Ok(Some((self.runs.base + at as u32, self.runs.buf[at])))
    }
}

impl<R: Read + Seek> RecordStream for ForwardScan<R> {
    type Record = NodeRecord;

    fn next_run(&mut self) -> io::Result<Option<Run<'_, NodeRecord>>> {
        if self.runs.lo == self.runs.hi && !self.advance()? {
            return Ok(None);
        }
        Ok(Some(self.runs.take_run()))
    }
}

/// Backward (right-to-left) record scan — the bottom-up traversal's input
/// (paper Prop. 5.1). Yields `(preorder index, record)` from `hi−1` down
/// to `lo` (the whole file with [`BackwardScan::new`]).
pub struct BackwardScan<R: Read + Seek> {
    runs: Runs<R>,
    /// One past the last record no run has covered yet.
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
        check_window(lo, hi)?;
        Ok(BackwardScan {
            runs: Runs::new(inner, Backing::Raw { bytes: Vec::new() }),
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
    ) -> Self {
        debug_assert!(lo <= hi);
        let backing = Backing::Blocked {
            map,
            counter,
            scratch: Vec::new(),
        };
        BackwardScan {
            runs: Runs::new(inner, backing),
            next_ix: hi,
            lo,
        }
    }

    /// The first record index of the window (0 for a whole-file scan).
    pub fn start_ix(&self) -> u32 {
        self.lo
    }

    /// Makes the run before the current one current; `false` before the
    /// window's first record.
    fn advance(&mut self) -> io::Result<bool> {
        if self.next_ix <= self.lo {
            return Ok(false);
        }
        self.runs.load(self.lo, self.next_ix, false)?;
        self.next_ix = self.runs.base + self.runs.lo as u32;
        Ok(true)
    }

    /// Reads the previous record, or `None` before the first.
    #[inline]
    pub fn next_record(&mut self) -> io::Result<Option<(u32, NodeRecord)>> {
        if self.runs.lo == self.runs.hi && !self.advance()? {
            return Ok(None);
        }
        self.runs.hi -= 1;
        let at = self.runs.hi;
        Ok(Some((self.runs.base + at as u32, self.runs.buf[at])))
    }
}

impl<R: Read + Seek> RecordStream for BackwardScan<R> {
    type Record = NodeRecord;

    fn next_run(&mut self) -> io::Result<Option<Run<'_, NodeRecord>>> {
        if self.runs.lo == self.runs.hi && !self.advance()? {
            return Ok(None);
        }
        Ok(Some(self.runs.take_run()))
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

    /// Runs tile every window exactly, on slabs and on blocks, wherever
    /// the window's ends fall inside a run — and `next_record` may take
    /// over from `next_run` mid-stream, because both serve the one
    /// current run.
    #[test]
    fn runs_tile_windows_across_slab_and_block_boundaries() {
        let n = 2 * SLAB_RECORDS + 1_000; // three slabs, three blocks
        let recs: Vec<NodeRecord> = (0..n)
            .map(|i| NodeRecord {
                label: LabelId((256 + (i * 31) % 700) as u16),
                has_first: i % 3 == 0,
                has_second: i % 5 == 1,
            })
            .collect();
        let raw = file_of(&recs);
        let (v2, map) = v2_file_of(&recs);
        assert_eq!(map.offsets.len(), 3);
        let edge = SLAB_RECORDS;
        let windows = [
            (0, n),
            (edge - 1, edge + 1),
            (edge, edge + 1),
            (edge - 1, edge),
            (5, 5),
            (17, 2 * edge + 3),
            (n - 1, n),
        ];
        for (lo, hi) in windows {
            let forward = [
                ForwardScan::range(Cursor::new(raw.clone()), lo, hi).unwrap(),
                ForwardScan::blocked(Cursor::new(v2.clone()), map.clone(), None, lo, hi),
            ];
            for (mut scan, what) in forward.into_iter().zip(["raw", "blocked"]) {
                let mut next = lo;
                // The first run as a slice, the rest record by record.
                if let Some((base, run)) = scan.next_run().unwrap() {
                    assert_eq!(base, lo, "{what} [{lo}, {hi})");
                    assert_eq!(run, &recs[base as usize..base as usize + run.len()]);
                    next += run.len() as u32;
                }
                while let Some((ix, rec)) = scan.next_record().unwrap() {
                    assert_eq!((ix, rec), (next, recs[next as usize]), "{what}");
                    next += 1;
                }
                assert_eq!(next, hi, "{what} forward [{lo}, {hi})");
                assert!(scan.next_run().unwrap().is_none());
            }
            let backward = [
                BackwardScan::range(Cursor::new(raw.clone()), lo, hi).unwrap(),
                BackwardScan::blocked(Cursor::new(v2.clone()), map.clone(), None, lo, hi),
            ];
            for (mut scan, what) in backward.into_iter().zip(["raw", "blocked"]) {
                let mut end = hi;
                // One record off the top, then runs: a run is what is
                // left of the current slab or block.
                if let Some((ix, rec)) = scan.next_record().unwrap() {
                    assert_eq!((ix, rec), (hi - 1, recs[hi as usize - 1]), "{what}");
                    end -= 1;
                }
                while let Some((base, run)) = scan.next_run().unwrap() {
                    assert!(!run.is_empty());
                    assert_eq!(base + run.len() as u32, end, "{what} [{lo}, {hi})");
                    assert_eq!(run, &recs[base as usize..end as usize]);
                    end = base;
                }
                assert_eq!(end, lo, "{what} backward [{lo}, {hi})");
                assert!(scan.next_record().unwrap().is_none());
            }
        }
        assert!(ForwardScan::range(Cursor::new(raw.clone()), 3, 2).is_err());
        assert!(BackwardScan::range(Cursor::new(raw), 3, 2).is_err());
    }

    #[test]
    fn blocked_scans_match_raw_scans() {
        // One block, both directions and range windows; several blocks
        // are `runs_tile_windows_across_slab_and_block_boundaries`'.
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
