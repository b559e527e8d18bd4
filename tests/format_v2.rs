//! Format-v2 integrity suite: corrupt and truncated `.arb` files must be
//! rejected with `InvalidData` — at open where the header/index arithmetic
//! catches them, at scan time where a block or extent checksum does — and
//! **never** produce wrong answers. Plus the v1-vs-v2 differential
//! property: both formats, through every evaluation path, are
//! byte-for-byte interchangeable.

use arb::engine::{BooleanSink, CountSink, EvalRequest, NodeSetSink};
use arb::storage::{create_from_xml_with, frame, ArbDatabase, FormatVersion};
use arb::xml::XmlConfig;
use arb::Database;
use proptest::prelude::*;
use std::io::{Cursor, ErrorKind};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "arb-fv2-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&d).expect("tmp dir");
    d.join(name)
}

/// A document big enough for several compressed blocks and extent
/// windows: `2*elems + 1` nodes (each `<a>t</a>` is an element node plus
/// one character node).
fn big_xml(elems: usize) -> String {
    let mut s = String::with_capacity(elems * 8 + 16);
    s.push_str("<r>");
    for i in 0..elems {
        s.push_str(if i % 3 == 0 { "<a>t</a>" } else { "<b>u</b>" });
    }
    s.push_str("</r>");
    s
}

fn create(name: &str, xml: &str, format: FormatVersion) -> PathBuf {
    let path = tmp(name);
    create_from_xml_with(
        Cursor::new(xml.as_bytes()),
        &XmlConfig::default(),
        &path,
        format,
    )
    .expect("create");
    path
}

/// Writes a mutated copy of `base` (the `.lab` sibling is carried over).
fn corrupted(base: &Path, name: &str, f: impl FnOnce(&mut Vec<u8>)) -> PathBuf {
    let mut bytes = std::fs::read(base).expect("read arb");
    f(&mut bytes);
    let path = base.with_file_name(format!("{name}.arb"));
    std::fs::write(&path, &bytes).expect("write corrupt copy");
    std::fs::copy(base.with_extension("lab"), path.with_extension("lab")).expect("copy lab");
    path
}

/// Opens the database and exercises every read path: both full scans,
/// the extent section, point reads and the structural validator.
fn full_check(path: &Path) -> std::io::Result<u64> {
    let db = ArbDatabase::open(path)?;
    let mut n = 0u64;
    let mut s = db.backward_scan()?;
    while s.next_record()?.is_some() {
        n += 1;
    }
    let mut s = db.forward_scan()?;
    while s.next_record()?.is_some() {}
    db.subtree_extents()?;
    db.record_at(0)?;
    db.validate()?;
    Ok(n)
}

fn assert_rejected(path: &Path, what: &str) {
    match full_check(path) {
        Ok(n) => panic!("{what}: corrupt file accepted ({n} records)"),
        Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: kind of {e}"),
    }
}

/// Recomputes the header CRC after a deliberate field patch, so the
/// mutation tests cross-field consistency rather than the checksum.
fn reseal_header(bytes: &mut [u8]) {
    let crc = frame::crc32(&bytes[..60]);
    bytes[60..64].copy_from_slice(&crc.to_le_bytes());
}

fn header_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

#[test]
fn open_sniffs_the_format_version() {
    let xml = big_xml(500);
    let v1 = create("sniff1.arb", &xml, FormatVersion::V1);
    let v2p = create("sniff2.arb", &xml, FormatVersion::V2);
    let d1 = ArbDatabase::open(&v1).unwrap();
    let d2 = ArbDatabase::open(&v2p).unwrap();
    assert_eq!(d1.format_version(), 1);
    assert_eq!(d2.format_version(), 2);
    assert_eq!(d1.node_count(), d2.node_count());
    assert_eq!(d1.to_tree().unwrap().parts(), d2.to_tree().unwrap().parts());
}

#[test]
fn truncations_are_rejected() {
    let base = create("trunc.arb", &big_xml(40_000), FormatVersion::V2);
    let len = std::fs::metadata(&base).unwrap().len() as usize;
    let bytes = std::fs::read(&base).unwrap();
    let index_offset = header_u64(&bytes, 36) as usize;
    for (i, cut) in [
        len - 1,          // last index byte gone
        len - 6,          // mid-index
        index_offset,     // everything after the extent section
        index_offset - 3, // mid-extent
        1000,             // mid-block
        65,               // just past the header
        32,               // mid-header
        9,                // magic plus one byte
    ]
    .into_iter()
    .enumerate()
    {
        let p = corrupted(&base, &format!("trunc{i}"), |b| b.truncate(cut));
        assert_rejected(&p, &format!("truncated to {cut} of {len}"));
    }
}

#[test]
fn block_and_extent_bit_flips_are_rejected() {
    let base = create("flip.arb", &big_xml(40_000), FormatVersion::V2);
    let bytes = std::fs::read(&base).unwrap();
    let len = bytes.len();
    let extent_offset = header_u64(&bytes, 28) as usize;
    let index_offset = header_u64(&bytes, 36) as usize;
    let spots = [
        (64usize, "first block frame"),
        (80, "first block body"),
        (extent_offset - 10, "last block body"),
        (extent_offset + 2, "extent window checksum"),
        (extent_offset + 12, "extent window body"),
        (index_offset + 1, "block index"),
        (len - 2, "index checksum"),
    ];
    for (i, (off, what)) in spots.into_iter().enumerate() {
        let p = corrupted(&base, &format!("flip{i}"), |b| b[off] ^= 0x10);
        assert_rejected(&p, what);
    }
}

#[test]
fn header_field_tampering_is_rejected() {
    let base = create("tamper.arb", &big_xml(40_000), FormatVersion::V2);

    // Without resealing, the header checksum itself catches the patch.
    let p = corrupted(&base, "tamper-crc", |b| b[12] ^= 1);
    assert_rejected(&p, "node-count patch, stale header crc");

    // With the checksum recomputed, the cross-field arithmetic must
    // still reject a node count that disagrees with the sections.
    let p = corrupted(&base, "tamper-nodes", |b| {
        let n = u32::from_le_bytes(b[12..16].try_into().unwrap());
        b[12..16].copy_from_slice(&(n + 1).to_le_bytes());
        reseal_header(b);
    });
    assert_rejected(&p, "node count + 1, resealed header");

    let p = corrupted(&base, "tamper-blocks", |b| {
        let c = u32::from_le_bytes(b[20..24].try_into().unwrap());
        b[20..24].copy_from_slice(&(c + 1).to_le_bytes());
        reseal_header(b);
    });
    assert_rejected(&p, "block count + 1, resealed header");
}

#[test]
fn crashed_creation_placeholder_is_rejected() {
    // `V2Writer` stamps version `u16::MAX` until `finish()` patches the
    // real header, so a file from a crashed creation looks exactly like
    // this — with either a stale or a resealed checksum.
    let base = create("crash.arb", &big_xml(1_000), FormatVersion::V2);
    let p = corrupted(&base, "crash-stale", |b| {
        b[8..10].copy_from_slice(&u16::MAX.to_le_bytes());
    });
    assert_rejected(&p, "placeholder version, stale crc");
    let p = corrupted(&base, "crash-sealed", |b| {
        b[8..10].copy_from_slice(&u16::MAX.to_le_bytes());
        reseal_header(b);
    });
    assert_rejected(&p, "placeholder version, resealed crc");
}

#[test]
fn zeroed_prefix_is_rejected() {
    // Zeroing the head of a v2 file destroys the magic, so it sniffs as
    // v1 — and must then fail v1's structural checks rather than decode
    // the remaining compressed garbage into answers.
    let base = create("zero.arb", &big_xml(40_000), FormatVersion::V2);
    for (i, n) in [4096usize, 64, 8].into_iter().enumerate() {
        let p = corrupted(&base, &format!("zero{i}"), |b| {
            b[..n].fill(0);
        });
        assert_rejected(&p, &format!("zeroed first {n} bytes"));
    }
}

#[test]
fn magic_prefixed_garbage_is_rejected() {
    let path = tmp("garbage.arb");
    let mut bytes = b"ArbDBv2\0".to_vec();
    bytes.resize(300, 0xAB);
    std::fs::write(&path, &bytes).unwrap();
    std::fs::write(path.with_extension("lab"), "").unwrap();
    match full_check(&path) {
        Ok(_) => panic!("magic-prefixed garbage accepted"),
        Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}"),
    }
}

#[test]
fn failed_creation_leaves_no_partial_files() {
    for format in [FormatVersion::V1, FormatVersion::V2] {
        let path = tmp(&format!("orphan-{format}.arb"));
        let err = create_from_xml_with(
            Cursor::new(b"<a><b></a>".as_slice()),
            &XmlConfig::default(),
            &path,
            format,
        );
        assert!(err.is_err(), "{format}: unbalanced document must fail");
        for ext in ["arb", "evt", "lab", "tmp"] {
            let p = path.with_extension(ext);
            assert!(!p.exists(), "{format}: orphan {} left behind", p.display());
        }
    }
}

/// Strategy: a random small XML document (same op encoding as the
/// `storage_model` suite, so both formats see realistic shapes).
fn random_xml() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..3u8, 0..3usize, "[a-z]{1,4}"), 0..40).prop_map(|ops| {
        let tags = ["x", "y", "z"];
        let mut out = String::from("<r>");
        let mut stack: Vec<&str> = vec![];
        for (op, t, text) in ops {
            match op {
                0 => {
                    let tag = tags[t % 3];
                    out.push_str(&format!("<{tag}>"));
                    stack.push(tag);
                }
                1 => {
                    if let Some(tag) = stack.pop() {
                        out.push_str(&format!("</{tag}>"));
                    }
                }
                _ => out.push_str(&text),
            }
        }
        while let Some(tag) = stack.pop() {
            out.push_str(&format!("</{tag}>"));
        }
        out.push_str("</r>");
        out
    })
}

/// Evaluates the same queries on one database through every path and
/// returns (counts, node sets, verdicts) per request shape.
#[allow(clippy::type_complexity)]
fn eval_everywhere(path: &Path) -> (Vec<Vec<u64>>, Vec<Vec<Vec<u32>>>, Vec<bool>) {
    let mut db = Database::open_arb(path).expect("open");
    let q1 = db.compile_xpath("//x").expect("xpath");
    let q2 = db.compile_tmnf("QUERY :- V.Label[y];").expect("tmnf");
    let queries = [q1, q2];
    let session = db.prepare(&queries);
    // The third shape evaluates the materialized tree instead of the file.
    let memory = Database::from_tree(db.to_tree().expect("materialize"), db.labels().clone());
    let memory_session = memory.prepare(&queries);
    let runs = [
        (&session, EvalRequest::new()),
        (&session, EvalRequest::new().parallelism(2)),
        (&memory_session, EvalRequest::new()),
    ];
    let mut counts = Vec::new();
    let mut sets = Vec::new();
    for (session, req) in &runs {
        let mut c = CountSink::default();
        session.eval(req, &mut c).expect("count eval");
        counts.push(c.into_counts());
        let mut s = NodeSetSink::default();
        session.eval(req, &mut s).expect("set eval");
        sets.push(
            s.into_sets()
                .into_iter()
                .map(|ns| ns.iter().map(|v| v.0).collect::<Vec<u32>>())
                .collect(),
        );
    }
    let mut b = BooleanSink::default();
    session
        .eval(&EvalRequest::new(), &mut b)
        .expect("bool eval");
    (counts, sets, b.into_verdicts())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential property: a v1 and a v2 database built from the
    /// same document are indistinguishable — identical record streams in
    /// both directions, identical point reads, identical trees, and
    /// identical query results across sequential/parallel/in-memory
    /// evaluation with count, node-set and boolean sinks.
    #[test]
    fn v1_and_v2_are_interchangeable(xml in random_xml()) {
        let p1 = create("diff1.arb", &xml, FormatVersion::V1);
        let p2 = create("diff2.arb", &xml, FormatVersion::V2);
        let d1 = ArbDatabase::open(&p1).expect("open v1");
        let d2 = ArbDatabase::open(&p2).expect("open v2");
        prop_assert_eq!(d1.node_count(), d2.node_count());

        let mut s1 = d1.forward_scan().expect("scan");
        let mut s2 = d2.forward_scan().expect("scan");
        while let Some(r1) = s1.next_record().expect("read") {
            prop_assert_eq!(Some(r1), s2.next_record().expect("read"));
        }
        prop_assert!(s2.next_record().expect("read").is_none());

        let mut s1 = d1.backward_scan().expect("scan");
        let mut s2 = d2.backward_scan().expect("scan");
        while let Some(r1) = s1.next_record().expect("read") {
            prop_assert_eq!(Some(r1), s2.next_record().expect("read"));
        }
        prop_assert!(s2.next_record().expect("read").is_none());

        for ix in 0..d1.node_count().min(16) {
            prop_assert_eq!(
                d1.record_at(ix).expect("read"),
                d2.record_at(ix).expect("read")
            );
        }
        prop_assert_eq!(
            d1.to_tree().expect("tree").parts(),
            d2.to_tree().expect("tree").parts()
        );
        prop_assert_eq!(
            d1.subtree_extents().expect("extents"),
            d2.subtree_extents().expect("extents")
        );

        prop_assert_eq!(eval_everywhere(&p1), eval_everywhere(&p2));
    }
}
