//! The block-framing layer shared by every checksummed on-disk layout:
//! the `.arb` v2 record blocks and extent windows ([`crate::v2`]), and
//! the blocked `.sta` state stream ([`crate::stafile`]).
//!
//! ```text
//! frame   := n_records (u32 LE) · body_len (u32 LE) · crc32(body) (u32 LE) · body
//! body    := body_len opaque bytes, checked by the CRC before decoding
//! index   := offset (u64 LE) × entries · crc32(offsets) (u32 LE)
//! varint  := LEB128, seven bits per byte, low bits first
//! zigzag  := signed ↦ unsigned, 0, −1, 1, −2, … ↦ 0, 1, 2, 3, …
//! ```
//!
//! A v2 extent window is a frame without the record count (the window
//! size is implied by its index); `put_body` / `read_body` write and
//! check that shorter shape. Every reader checks the record count, a
//! caller-given bound on the body length and the checksum before a body
//! reaches a decoder, and turns a short read into `InvalidData` — a
//! truncated layout is corruption, not end of file. Index arithmetic is
//! checked: a header that claims an index larger than the address space
//! is rejected, never allocated.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;

/// Bytes of a block frame's head: record count, body length, body CRC32.
const BLOCK_FRAME_BYTES: usize = 12;
/// Bytes of an index entry (one absolute file offset).
const INDEX_ENTRY_BYTES: u64 = 8;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero
/// bytes — so eight input bytes fold into the register with eight
/// independent lookups instead of a chain of eight dependent ones.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant), hand-rolled —
/// the workspace is fully offline, so no checksum crate. Every block of
/// every scan passes through here, so it folds eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

pub(crate) fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Zigzag-maps a signed value onto the unsigned ones (small magnitudes
/// stay small, so they take short varints).
#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub(crate) fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends `v` as an LEB128 varint.
#[inline]
pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Reads the LEB128 varint at `pos` and moves `pos` past it. Running off
/// the body or past ten bytes is `InvalidData`.
#[inline]
pub(crate) fn read_varint(body: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    for shift in 0..10u32 {
        let b = *body
            .get(*pos)
            .ok_or_else(|| invalid("block body truncated inside a varint"))?;
        *pos += 1;
        v |= ((b & 0x7F) as u64) << (7 * shift);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(invalid("varint longer than 10 bytes in a block body"))
}

/// [`read_varint`] for a field that must fit a `u32` (record tokens and
/// extent sizes); a larger value is `InvalidData`.
#[inline]
pub(crate) fn read_varint_u32(body: &[u8], pos: &mut usize) -> io::Result<u32> {
    u32::try_from(read_varint(body, pos)?).map_err(|_| invalid("varint exceeds 32 bits"))
}

/// The varint at `pos` if it is one or two bytes long (and the body has
/// two bytes left to look at), decoded without a branch on its length:
/// short varints are nearly all of a record block or a `.sta` block, in
/// no predictable order. `None` leaves `pos` alone for the general
/// reader.
#[inline]
pub(crate) fn short_varint(body: &[u8], pos: &mut usize) -> Option<u32> {
    let at = *pos;
    if at + 1 >= body.len() {
        return None;
    }
    let w = body[at] as u32 | (body[at + 1] as u32) << 8;
    if w & 0x8080 == 0x8080 {
        return None;
    }
    let two = w >> 7 & 1;
    *pos = at + 1 + two as usize;
    Some((w & 0x7F) | ((w >> 1 & 0x3F80) * two))
}

/// Reads exactly `buf.len()` bytes; a short read is `InvalidData` naming
/// `what`.
fn read_exact_or_invalid(r: &mut impl Read, buf: &mut [u8], what: &str) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid(format!("{what} truncated"))
        } else {
            e
        }
    })
}

fn le32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4 bytes"))
}

/// Appends `{body_len, crc32(body)}` and the body; returns the bytes
/// written.
pub(crate) fn put_body<W: Write>(out: &mut W, body: &[u8]) -> io::Result<u64> {
    let mut head = [0u8; 8];
    head[0..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    head[4..8].copy_from_slice(&crc32(body).to_le_bytes());
    out.write_all(&head)?;
    out.write_all(body)?;
    Ok(8 + body.len() as u64)
}

/// Appends one block frame: `{n_records, body_len, crc32(body)}` and the
/// body. Returns the bytes written.
pub(crate) fn put_frame<W: Write>(out: &mut W, n_records: u32, body: &[u8]) -> io::Result<u64> {
    let mut head = [0u8; BLOCK_FRAME_BYTES];
    head[0..4].copy_from_slice(&n_records.to_le_bytes());
    head[4..8].copy_from_slice(&(body.len() as u32).to_le_bytes());
    head[8..12].copy_from_slice(&crc32(body).to_le_bytes());
    out.write_all(&head)?;
    out.write_all(body)?;
    Ok((BLOCK_FRAME_BYTES + body.len()) as u64)
}

/// Reads a body of `body_len` bytes into `body` once the length is within
/// `max_body`, and checks it against `crc`.
fn load_body(
    r: &mut impl Read,
    body_len: u32,
    crc: u32,
    max_body: u64,
    body: &mut Vec<u8>,
    what: &str,
) -> io::Result<()> {
    if body_len as u64 > max_body {
        return Err(invalid(format!(
            "{what} body length {body_len} implausibly large (bound {max_body})"
        )));
    }
    body.resize(body_len as usize, 0);
    read_exact_or_invalid(r, body, what)?;
    if crc32(body) != crc {
        return Err(invalid(format!("{what} checksum mismatch")));
    }
    Ok(())
}

/// Reads one `{body_len, crc32}` body at the reader's position into
/// `body` (see [`put_body`]), checking the length bound and the CRC.
pub(crate) fn read_body<R: Read>(
    r: &mut R,
    max_body: u64,
    body: &mut Vec<u8>,
    what: &str,
) -> io::Result<()> {
    let mut head = [0u8; 8];
    read_exact_or_invalid(r, &mut head, what)?;
    load_body(
        r,
        le32(&head[0..4]),
        le32(&head[4..8]),
        max_body,
        body,
        what,
    )
}

/// Reads one block frame at the reader's position into `body` (see
/// [`put_frame`]). The frame must hold exactly `expected` records, its
/// body at most `max_body` bytes, and the body must match its CRC; each
/// failure, and a short read, is `InvalidData` naming `what`.
pub(crate) fn read_frame<R: Read>(
    r: &mut R,
    expected: u32,
    max_body: u64,
    body: &mut Vec<u8>,
    what: &str,
) -> io::Result<()> {
    let mut head = [0u8; BLOCK_FRAME_BYTES];
    read_exact_or_invalid(r, &mut head, what)?;
    let n_records = le32(&head[0..4]);
    if n_records != expected {
        return Err(invalid(format!(
            "{what} holds {n_records} records, expected {expected}"
        )));
    }
    load_body(
        r,
        le32(&head[4..8]),
        le32(&head[8..12]),
        max_body,
        body,
        what,
    )
}

/// Where an index of `entries` offsets that starts at `at` ends, or
/// `None` when that is past the end of the address space.
pub(crate) fn index_end(at: u64, entries: u64) -> Option<u64> {
    entries
        .checked_mul(INDEX_ENTRY_BYTES)?
        .checked_add(4)?
        .checked_add(at)
}

/// Appends an offset index: each offset as a u64 LE, then the CRC32 of
/// those bytes. Returns the bytes written.
pub(crate) fn put_index<W: Write>(out: &mut W, offsets: &[u64]) -> io::Result<u64> {
    let mut index = Vec::with_capacity(offsets.len() * INDEX_ENTRY_BYTES as usize + 4);
    for &o in offsets {
        index.extend_from_slice(&o.to_le_bytes());
    }
    let crc = crc32(&index);
    index.extend_from_slice(&crc.to_le_bytes());
    out.write_all(&index)?;
    Ok(index.len() as u64)
}

/// Reads and verifies the index of `entries` offsets at `at`, which must
/// end exactly at `end` (the placement its container claims). Every
/// entry must lie in `entry_range`. Each failure is `InvalidData` naming
/// `what`; since the index fits before `end`, its size is bounded by the
/// file the caller measured.
pub(crate) fn read_index<R: Read + Seek>(
    r: &mut R,
    at: u64,
    entries: u64,
    end: u64,
    entry_range: Range<u64>,
    what: &str,
) -> io::Result<Vec<u64>> {
    if index_end(at, entries) != Some(end) {
        return Err(invalid(format!(
            "{what} truncated or misplaced ({entries} entries at offset {at}, ending at {end})"
        )));
    }
    r.seek(SeekFrom::Start(at))?;
    let mut raw = vec![0u8; (end - at) as usize];
    read_exact_or_invalid(r, &mut raw, what)?;
    let (body, crc) = raw.split_at(raw.len() - 4);
    if crc32(body) != le32(crc) {
        return Err(invalid(format!("{what} checksum mismatch")));
    }
    body.chunks_exact(INDEX_ENTRY_BYTES as usize)
        .map(|c| {
            let off = u64::from_le_bytes(c.try_into().expect("8 bytes"));
            if entry_range.contains(&off) {
                Ok(off)
            } else {
                Err(invalid(format!(
                    "{what}: offset {off} outside {entry_range:?}"
                )))
            }
        })
        .collect()
}

/// Entry `i` of the index at `at`, read on its own — for an index whose
/// CRC [`read_index`] already verified when its file was opened.
pub(crate) fn read_index_entry<R: Read + Seek>(
    r: &mut R,
    at: u64,
    i: u64,
    what: &str,
) -> io::Result<u64> {
    let pos = i
        .checked_mul(INDEX_ENTRY_BYTES)
        .and_then(|o| o.checked_add(at))
        .ok_or_else(|| invalid(format!("{what}: entry {i} past the address space")))?;
    r.seek(SeekFrom::Start(pos))?;
    let mut b = [0u8; INDEX_ENTRY_BYTES as usize];
    read_exact_or_invalid(r, &mut b, what)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_and_reject_damage() {
        let body: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let mut file = Vec::new();
        assert_eq!(put_frame(&mut file, 9, &body).unwrap(), 12 + 300);
        let mut got = Vec::new();
        read_frame(&mut Cursor::new(&file), 9, 300, &mut got, "test block").unwrap();
        assert_eq!(got, body);

        let reject = |bytes: &[u8], expected: u32, max: u64| {
            let err = read_frame(
                &mut Cursor::new(bytes),
                expected,
                max,
                &mut got.clone(),
                "t",
            )
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            err.to_string()
        };
        assert!(reject(&file, 8, 300).contains("expected 8"));
        assert!(reject(&file, 9, 299).contains("implausibly large"));
        assert!(reject(&file[..100], 9, 300).contains("truncated"));
        assert!(reject(&file[..5], 9, 300).contains("truncated"));
        let mut flipped = file.clone();
        flipped[50] ^= 1;
        assert!(reject(&flipped, 9, 300).contains("checksum"));

        // The count-less body of an extent window.
        let mut file = Vec::new();
        assert_eq!(put_body(&mut file, &body).unwrap(), 8 + 300);
        read_body(&mut Cursor::new(&file), 300, &mut got, "w").unwrap();
        assert_eq!(got, body);
        file[20] ^= 1;
        let err = read_body(&mut Cursor::new(&file), 300, &mut got, "w").unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn indexes_roundtrip_and_reject_damage() {
        let offsets = [100u64, 40, 70];
        let mut file = vec![0u8; 10];
        assert_eq!(put_index(&mut file, &offsets).unwrap(), 3 * 8 + 4);
        let end = file.len() as u64;
        assert_eq!(index_end(10, 3), Some(end));
        let read = |bytes: &[u8], at, n, end, range| {
            read_index(&mut Cursor::new(bytes), at, n, end, range, "idx")
        };
        assert_eq!(read(&file, 10, 3, end, 0..101).unwrap(), offsets);
        assert_eq!(
            read_index_entry(&mut Cursor::new(&file), 10, 1, "idx").unwrap(),
            40
        );

        let reject = |r: io::Result<Vec<u64>>| {
            let err = r.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            err.to_string()
        };
        assert!(reject(read(&file, 10, 3, end, 0..100)).contains("outside"));
        assert!(reject(read(&file, 10, 2, end, 0..101)).contains("misplaced"));
        assert!(reject(read(&file, 10, 3, end + 1, 0..101)).contains("misplaced"));
        assert!(reject(read(&file[..30], 10, 3, end, 0..101)).contains("truncated"));
        let mut flipped = file.clone();
        flipped[12] ^= 1;
        assert!(reject(read(&flipped, 10, 3, end, 0..101)).contains("checksum"));

        // Sizes past the address space are refused before any allocation.
        assert_eq!(index_end(0, u64::MAX), None);
        assert_eq!(index_end(u64::MAX, 0), None);
        assert!(reject(read(&file, 32, u64::MAX, 36, 0..101)).contains("misplaced"));
        assert!(read_index_entry(&mut Cursor::new(&file), 8, u64::MAX, "idx").is_err());
    }
}
