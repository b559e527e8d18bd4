//! The per-layer probe suite (`--trace 1`): every layer measured from
//! outside, by timing calls into its public functions on the workload's
//! own document, pool and edit script, followed by a short pass of the
//! workload's loop with the span recorder on. Every number is a span
//! duration or a counter the public API returns.

use crate::inputs::{EditScript, Lang};
use crate::proc;
use crate::run::{self, compile, ms, Measured, Run, Served, Tally};
use crate::span::Recorder;
use crate::stats::{mean, median, pick, sorted};
use arb_core::QueryAutomata;
use arb_engine::{
    AppliedUpdate, CountSink, Database, DocUpdate, EvalRequest, NodeSetSink, Query, Session,
    StandingQuery, XmlMarkSink,
};
use arb_logic::{PredSetId, ProgramId};
use arb_server::protocol::{
    OutputKind, QueryResult, Request, Response, WireLanguage, WireStats, WireUpdate,
};
use arb_storage::stafile::{StateFileReader, StateFileWriter};
use arb_storage::{ArbDatabase, FormatVersion, NodeRecord, StaFormat, UpdateOp};
use arb_tmnf::CoreProgram;
use arb_tree::{BinaryTree, LabelTable, NodeId};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Repetitions of a scan-sized probe (milliseconds to tens of ms each).
const REPS: usize = 5;
/// Repetitions of a whole evaluation on the file.
const EVAL_REPS: usize = 3;
/// Repetitions of a microsecond-sized probe.
const MICRO_REPS: usize = 20;
/// Edits the update probes apply.
const EDITS: usize = 12;

/// XPath texts compiled by `xpath.compile_us` when the pool holds none.
const ACGT_XPATHS: [&str; 3] = ["//A//C", "//G[T and A]", "//C/following-sibling::G"];

type Rows = Vec<(&'static str, f64)>;

fn ns_per(d: Duration, n: u64) -> f64 {
    d.as_nanos() as f64 / n as f64
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` `reps` times under the span `name`; returns its last
/// result and every duration in seconds.
fn repeat<T>(
    rec: &mut Recorder,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(usize) -> T,
) -> (T, Vec<f64>) {
    let mut last = None;
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (out, d) = rec.time(name, rep as u64, || f(rep));
        last = Some(out);
        times.push(d.as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}

/// The fastest of `reps` identical runs of one stage: its floor, which
/// is what subtracting stages from one another needs and what a noisy
/// neighbour on the machine disturbs least.
fn fastest<T>(
    rec: &mut Recorder,
    name: &'static str,
    reps: usize,
    f: impl FnMut(usize) -> T,
) -> (T, Duration) {
    let (out, times) = repeat(rec, name, reps, f);
    let floor = times.iter().copied().fold(f64::INFINITY, f64::min);
    (out, Duration::from_secs_f64(floor))
}

/// The median of `reps` runs of one operation (a request, a process, an
/// edit): what such an operation typically takes.
fn typical<T>(
    rec: &mut Recorder,
    name: &'static str,
    reps: usize,
    f: impl FnMut(usize) -> T,
) -> (T, Duration) {
    let (out, times) = repeat(rec, name, reps, f);
    (out, Duration::from_secs_f64(median(&times)))
}

/// The traced run: the probe suite, then the workload's loop with the
/// recorder on. Writes the trace file and returns the per-layer rows.
pub fn per_layer(run: &Run, seconds: f64) -> Result<(Tally, Rows), String> {
    let mut rec = Recorder::on(Instant::now());
    let mut tally = Tally::default();
    let mut rows = Rows::new();
    let io = |e: std::io::Error| e.to_string();

    let dir = run.scratch.subdir("probe").map_err(io)?;
    let arb_path = storage_probes(run, &mut rec, &dir, &mut rows);
    let warm_count_ms = query_probes(run, &mut rec, &arb_path, &dir, &mut rows, &mut tally);
    update_probes(run, &mut rec, &dir, &arb_path, &mut rows);
    codec_probes(run, &mut rec, &mut rows);
    cli_probe(run, &mut rec, &dir, &mut rows);

    // The workload's own loop, traced. On `serve_open` that pass also
    // feeds the server rows; elsewhere a short open-loop pass against a
    // server over this workload's document does.
    let pass_s = (seconds / 5.0).clamp(1.0, 4.0);
    let loop_dir = run.scratch.subdir("trace-loop").map_err(io)?;
    let (_, traced) = run::set_up_and(run, &loop_dir, &mut rec, &mut tally, |rec, tally, ready| {
        ready.measure(run, rec, tally, pass_s, 3 * run.inputs.pool.len() as u64)
    });
    rows.push(("trace.op_p50_ms", median(&traced.lat_ms)));
    let server_pass = match traced.serve {
        Some(_) => traced,
        None => {
            let served = Served::start(run, &arb_path, &mut rec);
            served.warm(run, &mut rec, &mut tally);
            // The committed rate suits `serve_open`'s document. Another
            // document is offered the same share, 40 %, of what two
            // connections could get through if every request cost a warm
            // evaluation plus two table fills (a pair is a window shape
            // the server has not seen, filled for both its queries).
            let fill_ms = rows
                .iter()
                .find(|(name, _)| *name == "core.delta_fill_ms")
                .map_or(0.0, |(_, v)| *v);
            let rate = (0.4 * 2.0 * 1e3 / (mean(&warm_count_ms) + 2.0 * fill_ms))
                .min(run.scale.serve_rate);
            let total = (rate * pass_s).round().max(16.0) as usize;
            let mut pass_tally = Tally::default();
            let m = run::serve_pass(run, &mut rec, &mut pass_tally, &served, rate, total);
            tally.absorb_checks(pass_tally);
            served.stop();
            m
        }
    };
    server_rows(&server_pass, &mut rows);
    server_probes(
        run,
        &mut rec,
        &dir,
        &arb_path,
        &warm_count_ms,
        &mut rows,
        &mut tally,
    );

    let trace = proc::data_dir().join(format!("trace-{}-{}.json", run.w.name, run.seed));
    rec.write(&trace, run.w.name, run.seed).map_err(io)?;
    Ok((tally, rows))
}

/// Drains a scan, returning the number of records it served.
macro_rules! drain {
    ($scan:expr) => {{
        let mut scan = $scan.expect("open scan");
        let mut n = 0u64;
        while let Some((ix, rec)) = scan.next_record().expect("scan") {
            std::hint::black_box((ix, rec));
            n += 1;
        }
        n
    }};
}

/// `calib.*`, `xml.*` and the read side of `storage.*`. Returns the
/// database the later probes read.
fn storage_probes(run: &Run, rec: &mut Recorder, dir: &Path, rows: &mut Rows) -> PathBuf {
    let doc = &run.inputs.doc;
    let n = run.nodes();

    // The machine-speed yardstick: a raw v1 forward scan.
    let v1_path = dir.join("v1.arb");
    arb_storage::create_from_tree_with(&doc.tree, &doc.labels, &v1_path, FormatVersion::V1)
        .expect("create the v1 copy");
    let v1 = ArbDatabase::open(&v1_path).expect("open the v1 copy");
    let (served, d) = fastest(
        rec,
        "calib.v1_fwd_scan",
        REPS,
        |_| drain!(v1.forward_scan()),
    );
    assert_eq!(served, n);
    rows.push(("calib.v1_fwd_scan_ns_per_node", ns_per(d, n)));

    let (_, d) = fastest(rec, "xml.parse", REPS, |_| {
        let mut parser = arb_xml::XmlParser::new(&doc.xml[..]);
        let mut events = 0u64;
        while parser.next_event().expect("the generated XML parses") != arb_xml::XmlEvent::Eof {
            events += 1;
        }
        events
    });
    rows.push(("xml.parse_ns_per_node", ns_per(d, n)));

    let (arb_path, d) = fastest(rec, "storage.create", REPS, |rep| {
        let path = dir.join(format!("create-{rep}")).join("doc.arb");
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("create dir");
        run::create_file(run, &path);
        path
    });
    rows.push(("storage.create_ns_per_node", ns_per(d, n)));

    let (db, d) = typical(rec, "storage.open", MICRO_REPS, |_| {
        ArbDatabase::open(&arb_path).expect("open")
    });
    rows.push(("storage.open_us", us(d)));
    rows.push((
        "storage.arb_bytes_per_node",
        db.file_bytes() as f64 / db.node_count() as f64,
    ));

    let (_, d) = fastest(
        rec,
        "storage.scan_bwd",
        REPS,
        |_| drain!(db.backward_scan()),
    );
    rows.push(("storage.scan_bwd_ns_per_node", ns_per(d, n)));
    let (_, d) = fastest(rec, "storage.scan_fwd", REPS, |_| drain!(db.forward_scan()));
    rows.push(("storage.scan_fwd_ns_per_node", ns_per(d, n)));

    // The block codec alone, on bodies held in memory.
    let records = crate::inputs::tree_records(&doc.tree);
    let bodies: Vec<(Vec<u8>, u32)> = records
        .chunks(arb_storage::v2::BLOCK_RECORDS as usize)
        .map(|chunk| {
            let mut body = Vec::new();
            arb_storage::v2::encode_block(chunk, &mut body);
            (body, chunk.len() as u32)
        })
        .collect();
    let mut decoded: Vec<NodeRecord> = Vec::new();
    let (_, d) = fastest(rec, "storage.block_decode", REPS, |_| {
        for (body, len) in &bodies {
            arb_storage::v2::decode_block(body, *len, &mut decoded).expect("decode");
            std::hint::black_box(&decoded);
        }
    });
    rows.push(("storage.block_decode_ns_per_node", ns_per(d, n)));
    arb_path
}

/// One in-memory pass of both automata over `tree`, as the two-phase
/// algorithm steps them: children before parents, then parents before
/// children. Returns the time of each phase.
fn core_pass(
    qa: &mut QueryAutomata,
    tree: &BinaryTree,
    rho_a: &mut [ProgramId],
    rho_b: &mut [PredSetId],
    rec: &mut Recorder,
    op: u64,
) -> (Duration, Duration) {
    let n = tree.len() as u32;
    let (_, bu) = rec.time("core.bottom_up", op, || {
        for ix in (0..n).rev() {
            let v = NodeId(ix);
            let s1 = tree.first_child(v).map(|c| rho_a[c.ix()]);
            let s2 = tree.second_child(v).map(|c| rho_a[c.ix()]);
            rho_a[v.ix()] = qa.bottom_up(s1, s2, tree.info(v));
        }
    });
    let (_, td) = rec.time("core.top_down", op, || {
        rho_b[0] = qa.start_state(rho_a[0]);
        for ix in 0..n {
            let v = NodeId(ix);
            let q = rho_b[v.ix()];
            if let Some(c) = tree.first_child(v) {
                rho_b[c.ix()] = qa.top_down(q, rho_a[c.ix()], 1);
            }
            if let Some(c) = tree.second_child(v) {
                rho_b[c.ix()] = qa.top_down(q, rho_a[c.ix()], 2);
            }
        }
    });
    (bu, td)
}

/// Evaluates `session` with a fresh sink per repetition; fastest time.
fn eval_reps<S: arb_engine::ResultSink>(
    rec: &mut Recorder,
    name: &'static str,
    session: &Session<'_>,
    req: &EvalRequest,
    reps: usize,
    mut sink: impl FnMut() -> S,
) -> Duration {
    fastest(rec, name, reps, |_| {
        session.eval(req, &mut sink()).expect("evaluation");
    })
    .1
}

/// `xpath.*`, `tmnf.*`, `core.*`, the `.sta` codec rows and the
/// `engine.*` evaluation rows: means over the pool. Returns each pool
/// query's warm in-process `CountSink` time in ms.
fn query_probes(
    run: &Run,
    rec: &mut Recorder,
    arb_path: &Path,
    dir: &Path,
    rows: &mut Rows,
    tally: &mut Tally,
) -> Vec<f64> {
    let n = run.nodes();
    let pool = &run.inputs.pool;
    let mut db = Database::open_arb(arb_path).expect("open the database");

    // Compilation, through the front ends' public functions.
    let labels: LabelTable = db.labels().clone();
    let texts = |lang: Lang| -> Vec<&str> {
        pool.iter()
            .filter(|q| q.lang == lang)
            .map(|q| q.text.as_str())
            .collect()
    };
    let mut xpaths = texts(Lang::XPath);
    if xpaths.is_empty() {
        xpaths = ACGT_XPATHS.to_vec();
    }
    let compile_us: Vec<f64> = xpaths
        .iter()
        .map(|text| {
            us(fastest(rec, "xpath.compile", MICRO_REPS, |_| {
                let path = arb_xpath::parse_xpath(text).expect("XPath parses");
                arb_xpath::compile_path(&path, &mut labels.clone())
            })
            .1)
        })
        .collect();
    rows.push(("xpath.compile_us", mean(&compile_us)));
    let compile_us: Vec<f64> = texts(Lang::Tmnf)
        .iter()
        .map(|text| {
            us(fastest(rec, "tmnf.compile", MICRO_REPS, |_| {
                let ast = arb_tmnf::parse_program(text, &mut labels.clone()).expect("TMNF parses");
                arb_tmnf::normalize(&ast)
            })
            .1)
        })
        .collect();
    rows.push(("tmnf.compile_us", mean(&compile_us)));

    let queries: Vec<Query> = pool.iter().map(|q| compile(&mut db, q)).collect();
    let four: Vec<&CoreProgram> = queries.iter().take(4).map(Query::program).collect();
    let (_, d) = fastest(rec, "tmnf.merge4", MICRO_REPS, |_| {
        arb_tmnf::merge_programs(&four)
    });
    rows.push(("tmnf.merge4_us", us(d)));

    let prepare_us: Vec<f64> = queries
        .iter()
        .map(|q| {
            us(fastest(rec, "engine.prepare", MICRO_REPS, |_| {
                db.prepare(std::slice::from_ref(q))
            })
            .1)
        })
        .collect();
    rows.push(("engine.prepare_us", mean(&prepare_us)));

    // Per query: the automata alone on the in-memory tree, the `.sta`
    // codec on the states that pass recorded, then whole evaluations.
    let tree = db.to_tree().expect("materialize the tree");
    let mut rho_a = vec![ProgramId(0); tree.len()];
    let mut rho_b = vec![PredSetId(0); tree.len()];
    let sta_path = dir.join("probe.sta");
    let req = EvalRequest::new();
    #[derive(Default)]
    struct PerQuery {
        build_us: Vec<f64>,
        fill_ms: Vec<f64>,
        bu_ns: Vec<f64>,
        td_ns: Vec<f64>,
        mem_kib: Vec<f64>,
        sta_write_ns: Vec<f64>,
        sta_read_ns: Vec<f64>,
        sta_bytes: Vec<f64>,
        blocks: Vec<f64>,
        phase1_ns: Vec<f64>,
        phase2_ns: Vec<f64>,
        nodeset_ns: Vec<f64>,
        xml_ns: Vec<f64>,
        eval_mem_kib: Vec<f64>,
        count_ms: Vec<f64>,
    }
    let mut per = PerQuery::default();
    let (mut bu_states, mut td_states, mut entries) = (0usize, 0usize, 0usize);
    for (i, q) in queries.iter().enumerate() {
        let session = db.prepare(std::slice::from_ref(q));
        let program = session.batch().merged_program();

        let (mut qa, d) = fastest(rec, "core.automata_build", MICRO_REPS, |_| {
            QueryAutomata::new(program)
        });
        per.build_us.push(us(d));
        let (bu1, td1) = core_pass(&mut qa, &tree, &mut rho_a, &mut rho_b, rec, 0);
        let (bu2, td2) = core_pass(&mut qa, &tree, &mut rho_a, &mut rho_b, rec, 1);
        let (bu3, td3) = core_pass(&mut qa, &tree, &mut rho_a, &mut rho_b, rec, 2);
        let (bu, td) = (bu2.min(bu3), td2.min(td3));
        // First pass minus a warm pass: what filling the lazy tables cost.
        per.fill_ms.push(ms((bu1 + td1).saturating_sub(bu + td)));
        per.bu_ns.push(ns_per(bu, n));
        per.td_ns.push(ns_per(td, n));
        per.mem_kib.push(qa.memory_bytes() as f64 / 1024.0);
        let stats = qa.intern_stats();
        bu_states = bu_states.max(qa.bu_state_count());
        td_states = td_states.max(qa.td_state_count());
        entries = entries.max(stats.bu_entries + stats.td_entries);

        // Phase 1 writes states last node first; phase 2 reads them back
        // in preorder.
        let (bytes, d) = fastest(rec, "storage.sta_write", REPS, |_| {
            let mut w = StateFileWriter::create(&sta_path, n, StaFormat::Blocked)
                .expect("create the state stream");
            for s in rho_a.iter().rev() {
                w.write_state(s.0).expect("write state");
            }
            w.finish().expect("finish the state stream")
        });
        per.sta_write_ns.push(ns_per(d, n));
        per.sta_bytes.push(bytes as f64 / n as f64);
        let (_, d) = fastest(rec, "storage.sta_read", REPS, |_| {
            let mut r =
                StateFileReader::open(&sta_path, StaFormat::Blocked).expect("open the stream");
            for _ in 0..n {
                std::hint::black_box(r.read_state().expect("read state"));
            }
        });
        per.sta_read_ns.push(ns_per(d, n));

        // Whole evaluations on the file, automata warm.
        let (count, _) = run::eval_count(&session).expect("evaluation");
        if count != run.expected[i].count {
            tally.mismatch(|| format!("probe: {:?} selected {count}", pool[i].text));
        }
        let t_bool = fastest(rec, "engine.run_boolean", EVAL_REPS, |_| {
            session.run_boolean().expect("boolean evaluation")
        })
        .1;
        let t_count = eval_reps(
            rec,
            "engine.eval",
            &session,
            &req,
            EVAL_REPS,
            CountSink::default,
        );
        let t_nodes = eval_reps(
            rec,
            "engine.eval_nodes",
            &session,
            &req,
            2,
            NodeSetSink::default,
        );
        let t_xml = eval_reps(rec, "engine.eval_xml", &session, &req, 2, || {
            XmlMarkSink::new(db.labels(), std::io::sink())
        });
        let mut sink = CountSink::default();
        let report = session.eval(&req, &mut sink).expect("evaluation");
        let stats = report.batch.expect("a counting pass reports").stats;
        per.blocks.push(stats.blocks_decoded as f64);
        per.eval_mem_kib.push(stats.memory_bytes as f64 / 1024.0);
        per.count_ms.push(ms(t_count));
        per.phase1_ns.push(ns_per(t_bool, n));
        let signed =
            |a: Duration, b: Duration| (a.as_secs_f64() - b.as_secs_f64()) * 1e9 / n as f64;
        per.phase2_ns.push(signed(t_count, t_bool));
        per.nodeset_ns.push(signed(t_nodes, t_count));
        per.xml_ns.push(signed(t_xml, t_count));
    }
    if per.blocks.iter().any(|b| *b != per.blocks[0]) {
        eprintln!(
            "perfbench: blocks decoded per evaluation differ across the pool: {:?}",
            per.blocks
        );
    }
    rows.push(("storage.blocks_decoded_per_eval", mean(&per.blocks)));
    rows.push(("storage.sta_write_ns_per_node", mean(&per.sta_write_ns)));
    rows.push(("storage.sta_read_ns_per_node", mean(&per.sta_read_ns)));
    rows.push(("storage.sta_bytes_per_node", mean(&per.sta_bytes)));
    rows.push(("core.automata_build_us", mean(&per.build_us)));
    rows.push(("core.delta_fill_ms", mean(&per.fill_ms)));
    rows.push(("core.bottom_up_warm_ns_per_node", mean(&per.bu_ns)));
    rows.push(("core.top_down_warm_ns_per_node", mean(&per.td_ns)));
    rows.push(("core.bu_states", bu_states as f64));
    rows.push(("core.td_states", td_states as f64));
    rows.push(("core.delta_entries", entries as f64));
    rows.push(("core.automata_mem_kib", mean(&per.mem_kib)));
    rows.push(("engine.phase1_ns_per_node", mean(&per.phase1_ns)));
    rows.push(("engine.phase2_ns_per_node", mean(&per.phase2_ns)));
    rows.push(("engine.nodeset_extra_ns_per_node", mean(&per.nodeset_ns)));
    rows.push(("engine.xmlmark_extra_ns_per_node", mean(&per.xml_ns)));
    rows.push(("engine.eval_mem_kib", mean(&per.eval_mem_kib)));

    // A phase's self time: the phase minus the stages it is made of,
    // each measured alone above. The boolean pass that stands for phase
    // 1 writes no `.sta` stream, so the stream's write falls, with its
    // read, into the remainder that stands for phase 2.
    let row = |name: &str| {
        rows.iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is measured before it is used"))
            .1
    };
    let phase1_self = row("engine.phase1_ns_per_node")
        - (row("storage.scan_bwd_ns_per_node") + row("core.bottom_up_warm_ns_per_node"));
    let phase2_self = row("engine.phase2_ns_per_node")
        - (row("storage.sta_write_ns_per_node")
            + row("storage.scan_fwd_ns_per_node")
            + row("storage.sta_read_ns_per_node")
            + row("core.top_down_warm_ns_per_node"));
    rows.push(("engine.phase1_self_ns_per_node", phase1_self));
    rows.push(("engine.phase2_self_ns_per_node", phase2_self));

    // Four queries in one pass, and that pass split over two workers.
    let batch = db.prepare(&queries[..4]);
    batch
        .eval(&req, &mut CountSink::default())
        .expect("warm the batch");
    let t_batch = eval_reps(
        rec,
        "engine.eval_batch4",
        &batch,
        &req,
        EVAL_REPS,
        CountSink::default,
    );
    rows.push(("engine.batch4_ns_per_node_query", ns_per(t_batch, 4 * n)));
    let two = EvalRequest::new().parallelism(2);
    batch
        .eval(&two, &mut CountSink::default())
        .expect("warm the workers");
    let t_two = eval_reps(
        rec,
        "engine.eval_sharded2",
        &batch,
        &two,
        EVAL_REPS,
        CountSink::default,
    );
    rows.push((
        "engine.sharded2_speedup",
        t_batch.as_secs_f64() / t_two.as_secs_f64(),
    ));
    per.count_ms
}

/// Parses an update's fragment into records of the database's label
/// space, as the engine does before it hands them to storage.
fn fragment(update: &DocUpdate, labels: &LabelTable) -> Vec<NodeRecord> {
    match update.xml() {
        Some(xml) => {
            let tree =
                arb_xml::str_to_tree(xml, &mut labels.clone()).expect("edit fragment parses");
            crate::inputs::tree_records(&tree)
        }
        None => Vec::new(),
    }
}

fn copy_db(from: &Path, to_dir: &Path) -> PathBuf {
    std::fs::create_dir_all(to_dir).expect("create dir");
    let to = to_dir.join("doc.arb");
    std::fs::copy(from, &to).expect("copy .arb");
    std::fs::copy(from.with_extension("lab"), to.with_extension("lab")).expect("copy .lab");
    to
}

/// The write side: `storage.update_*`, `storage.sta_rewrite_ms` and the
/// standing-query rows, on a private copy edited by the edit script.
/// Storage applies each edit alone; the standing batch then absorbs it.
fn update_probes(run: &Run, rec: &mut Recorder, dir: &Path, arb_path: &Path, rows: &mut Rows) {
    let copy = copy_db(arb_path, &dir.join("update"));
    let mut db = Database::open_arb(&copy).expect("open the copy");
    let standing: Vec<Query> = run
        .inputs
        .standing
        .iter()
        .map(|q| compile(&mut db, q))
        .collect();
    let mut batch = StandingQuery::new(&standing);
    let (primed, d) = rec.time("engine.prime", 0, || batch.prime(&db));
    primed.expect("prime the standing batch");
    rows.push(("engine.prime_ms", ms(d)));

    // A state stream of the document's size for the rewrite probe: what
    // a standing batch keeps on disk between refreshes.
    let n = run.nodes();
    let states: Vec<u32> = (0..n).map(|i| (i % 7) as u32).collect();
    let sta_path = dir.join("rewrite.sta");
    let mut w = StateFileWriter::create(&sta_path, n, StaFormat::Blocked).expect("create stream");
    for s in states.iter().rev() {
        w.write_state(*s).expect("write state");
    }
    w.finish().expect("finish the stream");

    let mut script = EditScript::new(&run.inputs, run.seed);
    let (mut apply, mut rewritten, mut refresh, mut dirty, mut retained, mut rewrite) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let disk = db.as_disk().expect("a disk database");
    for op in 0..EDITS as u64 {
        let edit = script.next_edit();
        let frag = fragment(&edit.update, db.labels());
        let storage_op = match &edit.update {
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
        let (report, d) = rec.time("storage.apply_update", op, || {
            disk.apply_update(&storage_op)
        });
        let report = report.expect("apply the edit");
        apply.push(ms(d));
        rewritten.push(report.rewritten_blocks as f64);
        let applied = AppliedUpdate {
            plan: report.plan,
            frag,
            new_nodes: report.new_nodes,
            epoch: report.epoch,
            retained_blocks: report.retained_blocks,
        };
        let (refreshed, d) = rec.time("engine.refresh", op, || batch.refresh(&db, &applied));
        let stats = refreshed.expect("refresh the standing batch").batch.stats;
        refresh.push(ms(d));
        dirty.push(stats.dirty_nodes as f64);
        retained.push(stats.retained_sta_blocks as f64);

        // Splices keep the size, so the same array stands for the new
        // epoch; only the dirty point moves.
        if edit.inserted == edit.removed {
            let from = report.plan.dirty_from() as u64;
            let (done, d) = rec.time("storage.sta_rewrite", op, || {
                arb_storage::rewrite_blocked(&sta_path, &states, from)
            });
            done.expect("rewrite the state stream");
            rewrite.push(ms(d));
        }
    }
    rows.push(("storage.update_apply_ms", median(&apply)));
    rows.push(("storage.update_blocks_rewritten", mean(&rewritten)));
    rows.push(("storage.sta_rewrite_ms", median(&rewrite)));
    rows.push(("engine.refresh_ms", median(&refresh)));
    rows.push(("engine.dirty_nodes_per_refresh", mean(&dirty)));
    rows.push(("engine.retained_sta_blocks", mean(&retained)));

    // What reading costs after the writes.
    let session = db.prepare(&standing);
    let req = EvalRequest::new();
    session.eval(&req, &mut CountSink::default()).expect("warm");
    let d = eval_reps(
        rec,
        "engine.eval_after_update",
        &session,
        &req,
        EVAL_REPS,
        CountSink::default,
    );
    rows.push(("engine.full_after_update_ms", ms(d)));
}

/// The wire codec alone: a query request, and a node-set response the
/// size of the pool's first node-set answer.
fn codec_probes(run: &Run, rec: &mut Recorder, rows: &mut Rows) {
    let q = &run.inputs.pool[0];
    let request = Request::Query {
        db: "doc".into(),
        language: WireLanguage::XPath,
        output: OutputKind::Count,
        source: q.text.clone(),
    };
    // Microseconds are below a span's own cost: time many per span.
    const BATCH: u32 = 200;
    let (_, d) = fastest(rec, "server.codec_req", REPS, |_| {
        for _ in 0..BATCH {
            let bytes = request.encode().expect("encode");
            std::hint::black_box(Request::decode(&bytes).expect("decode"));
        }
    });
    rows.push(("server.codec_req_us", us(d) / BATCH as f64));

    let nodes: Vec<u32> = (0..run.expected[0].count.max(1) as u32)
        .map(|i| i * 3)
        .collect();
    let asked = Request::Query {
        db: "doc".into(),
        language: WireLanguage::XPath,
        output: OutputKind::Nodes,
        source: q.text.clone(),
    };
    let response = Response::Query {
        result: QueryResult::Nodes(nodes.clone()),
        stats: WireStats::default(),
    };
    let (_, d) = fastest(rec, "server.codec_resp", MICRO_REPS, |_| {
        let bytes = response.encode().expect("encode");
        std::hint::black_box(Response::decode(&bytes, &asked).expect("decode"));
    });
    rows.push((
        "server.codec_resp_ns_per_result_node",
        ns_per(d, nodes.len() as u64),
    ));
}

/// What one `arb query` costs before it touches a document worth
/// scanning: the whole command on a 3-node database.
fn cli_probe(run: &Run, rec: &mut Recorder, dir: &Path, rows: &mut Rows) {
    let path = dir.join("tiny.arb");
    arb_storage::create_from_xml(&b"<a><b/>x</a>"[..], &arb_xml::XmlConfig::default(), &path)
        .expect("create the 3-node database");
    let (count, d) = typical(rec, "cli.query_tiny", MICRO_REPS, |_| {
        proc::arb_query_count(&run.arb, &path, "--xpath", "//b").expect("arb query")
    });
    assert_eq!(count, 1);
    rows.push(("cli.fixed_cost_ms", ms(d)));
}

/// The server rows an open-loop pass yields.
fn server_rows(pass: &Measured, rows: &mut Rows) {
    let s = pass.serve.as_ref().expect("an open-loop pass");
    let (b, a) = (&s.before, &s.after);
    let requests = (a.requests - b.requests) as f64;
    let pct = |part: u64, rest: u64| {
        if part + rest == 0 {
            0.0
        } else {
            100.0 * part as f64 / (part + rest) as f64
        }
    };
    rows.push(("server.queue_wait_p50_us", median(&s.queue_wait_us)));
    rows.push(("server.mean_batch", mean(&s.batch_sizes)));
    rows.push((
        "server.scans_per_query",
        ((a.backward_scans - b.backward_scans) + (a.forward_scans - b.forward_scans)) as f64
            / requests.max(1.0),
    ));
    rows.push((
        "server.program_cache_hit_rate",
        pct(a.cache_hits - b.cache_hits, a.cache_misses - b.cache_misses),
    ));
    rows.push((
        "server.automata_reuse_rate",
        pct(
            a.automata_reused - b.automata_reused,
            a.automata_builds - b.automata_builds,
        ),
    ));
    rows.push(("server.shed", (a.overloaded - b.overloaded) as f64));
    rows.push((
        "server.req_p99_ms",
        pick(&sorted(pass.lat_ms.clone()), 0.99),
    ));
    rows.push((
        "server.generator_lag_p95_ms",
        pick(&sorted(s.lag_ms.clone()), 0.95),
    ));
}

/// The server rows measured one request at a time: transport floor,
/// service overhead over the in-process evaluation, update push, and
/// peak memory. Runs last: the update push edits the served copy.
fn server_probes(
    run: &Run,
    rec: &mut Recorder,
    dir: &Path,
    arb_path: &Path,
    warm_count_ms: &[f64],
    rows: &mut Rows,
    tally: &mut Tally,
) {
    let copy = copy_db(arb_path, &dir.join("served"));
    let served = Served::start(run, &copy, rec);
    served.warm(run, rec, tally);
    let mut client = served.connect();

    let (_, d) = typical(rec, "client.ping", 200, |_| client.ping().expect("ping"));
    rows.push(("server.ping_rtt_us", us(d)));

    // One Count request at a time, no admission partner: what the service
    // adds to the same query's in-process warm evaluation.
    let over: Vec<f64> = run
        .inputs
        .pool
        .iter()
        .zip(warm_count_ms)
        .take(3)
        .map(|(q, in_process_ms)| {
            let lang = run::wire_lang(q);
            let (_, d) = typical(rec, "client.query_single", 9, |_| {
                client
                    .query(&served.db_name, lang, OutputKind::Count, &q.text)
                    .expect("query")
            });
            ms(d) - in_process_ms
        })
        .collect();
    rows.push(("server.service_overhead_ms", mean(&over)));

    // update_doc to the pushed deltas, with one standing batch registered.
    let lang = run::wire_lang(&run.inputs.standing[0]);
    let sources: Vec<&str> = run
        .inputs
        .standing
        .iter()
        .map(|q| q.text.as_str())
        .collect();
    client
        .register(&served.db_name, lang, &sources)
        .expect("register the standing batch");
    let mut script = EditScript::new(&run.inputs, run.seed);
    let push: Vec<f64> = (0..EDITS as u64)
        .map(|op| {
            let update = match script.next_edit().update {
                DocUpdate::AppendChild { under, xml } => WireUpdate::AppendChild { under, xml },
                DocUpdate::SpliceSubtree { at, xml } => WireUpdate::SpliceSubtree { at, xml },
                DocUpdate::DeleteSubtree { at } => WireUpdate::DeleteSubtree { at },
            };
            let (reply, d) = rec.time("client.update_doc", op, || {
                client.update_doc(&served.db_name, update)
            });
            assert_eq!(reply.expect("update_doc").pushes.len(), 1);
            ms(d)
        })
        .collect();
    rows.push(("server.update_push_ms", median(&push)));

    rows.push(("server.rss_peak_mb", proc::rss_peak_mb(served.server.pid())));
    served.stop();
}
