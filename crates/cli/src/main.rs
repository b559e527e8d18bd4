//! The `arb` command-line tool — the Rust counterpart of the paper's Arb
//! system binary, built on the engine's prepared [`Session`] /
//! [`EvalRequest`] / [`arb_engine::ResultSink`] surface.
//!
//! ```text
//! arb create <input.xml> <output.arb> [--attrs] [--trim] [--format v1|v2]
//! arb query  <db.arb> (--tmnf <program> | --xpath <path> | --file <prog.arb-q>)...
//!            [--output bool|count|nodes|xml] [--mark [out.xml]] [--stats]
//!            [--memory] [--threads N] [--batch] [--explain]
//! arb stats  <db.arb>
//! arb check  <db.arb>
//! arb cat    <db.arb>
//! arb serve  --listen <addr> [--batch-window MS] [--max-batch N] [--queue-cap N]
//!            [--cache-budget BYTES] [--workers N] [--no-sweep] <db.arb>...
//! arb client <addr> [<db> (--tmnf <program> | --xpath <path>)
//!            [--output bool|count|nodes|xml] [--stats]] [--server-stats]
//!            [--ping] [--shutdown]
//! arb update <db.arb> (--append <under> <frag> | --splice <at> <frag>
//!            | --delete <at>)...
//! arb watch  <addr> <db> (--tmnf <program> | --xpath <path>)...
//! ```
//!
//! `serve` keeps databases hot in a resident process; concurrent
//! `client` queries landing in one admission window share a single
//! two-scan pass (see the `arb_server` crate docs for the protocol).
//!
//! `update` edits a v2 `.arb` file **offline and in place**: the storage
//! layer rewrites only the record blocks the edit window touches and
//! bumps the file's epoch. Fragments may introduce new tags — the `.lab`
//! file grows to match. `watch` is the online counterpart: it registers
//! a standing query batch on a running server, then reads edit commands
//! (`append <under> <xml>` / `splice <at> <xml>` / `delete <at>`) from
//! stdin and prints the result deltas the server pushes back after each
//! incremental refresh.

use arb_engine::{
    BooleanSink, CountSink, Database, EvalRequest, NodeSetSink, Query, QueryBatch, Session,
    XmlMarkSink,
};
use arb_server::protocol::{OutputKind, QueryResult, WireLanguage};
use arb_server::{Client, Server, ServerConfig};
use arb_xml::XmlConfig;
use std::collections::HashSet;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("arb: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage:\n  arb create <input.xml> <output.arb> [--attrs] [--trim] [--format v1|v2]\n  \
     arb query <db.arb> (--tmnf/-q <program> | --xpath <path> | --file <path>)... \
     [--output bool|count|nodes|xml] [--mark [out.xml]] [--stats]\n            \
     [--memory] [--threads N] [--batch] [--explain]\n  \
     arb stats <db.arb>\n  arb check <db.arb>\n  arb cat <db.arb>\n  \
     arb serve --listen <addr> [--batch-window MS] [--max-batch N] [--queue-cap N]\n            \
     [--cache-budget BYTES] [--workers N] [--no-sweep] <db.arb>...\n  \
     arb client <addr> [<db> (--tmnf <program> | --xpath <path>)\n            \
     [--output bool|count|nodes|xml] [--stats]] [--server-stats] [--ping] [--shutdown]\n  \
     arb update <db.arb> (--append <under> <frag> | --splice <at> <frag> | --delete <at>)...\n  \
     arb watch <addr> <db> (--tmnf <program> | --xpath <path>)...\n\n\
     Repeating --tmnf/-q/--xpath/--file submits all queries as one prepared\n\
     session evaluated with a single shared two-scan pass. --output picks the\n\
     result sink: bool/count/nodes print one line per query, xml writes one\n\
     document marking the union of the session (--mark [file] is shorthand\n\
     for --output xml with an output path). --threads N shards the pass over\n\
     N workers on either backend (disjoint subtree range scans on disk, no\n\
     --memory needed); --memory materializes the tree first. The legacy\n\
     --count/--nodes/--boolean flags are aliases for --output.\n\
     arb serve --workers N applies the same sharding to every dispatched\n\
     admission window."
        .to_string()
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("create") => create(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("cat") => cat(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("update") => update(&args[1..]),
        Some("watch") => watch(&args[1..]),
        _ => Err(usage()),
    }
}

fn create(args: &[String]) -> Result<(), String> {
    let mut paths = Vec::new();
    let mut config = XmlConfig::default();
    let mut format = arb_storage::FormatVersion::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--attrs" => config.attributes_as_nodes = true,
            "--trim" => config.trim_whitespace_text = true,
            "--format" => {
                let v = args.get(i + 1).ok_or("--format needs an argument")?;
                format = match v.as_str() {
                    "v1" | "1" => arb_storage::FormatVersion::V1,
                    "v2" | "2" => arb_storage::FormatVersion::V2,
                    other => return Err(format!("unknown format {other:?} (use v1 or v2)")),
                };
                i += 1;
            }
            other => paths.push(other.to_string()),
        }
        i += 1;
    }
    let [xml, arb] = paths.as_slice() else {
        return Err(usage());
    };
    let (_db, stats) =
        Database::create_arb_from_xml_with(xml, arb, &config, format).map_err(|e| e.to_string())?;
    println!("{}", arb_storage::CreationStats::table_header());
    println!("{}", stats.table_row(arb));
    Ok(())
}

/// Compiles every `--tmnf`/`-q`/`--xpath`/`--file` argument (they may
/// repeat — a multi-query session), returning the queries in argument
/// order plus the unconsumed flags. The implicit-QUERY-predicate note is
/// printed once per *distinct* program text, not once per occurrence.
fn compile(db: &mut Database, args: &[String]) -> Result<(Vec<Query>, Vec<String>), String> {
    let mut rest = Vec::new();
    let mut queries: Vec<Query> = Vec::new();
    let mut warned: HashSet<String> = HashSet::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tmnf" | "-q" | "--xpath" | "--file" => {
                let src = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{} needs an argument", args[i]))?;
                let q = match args[i].as_str() {
                    "--tmnf" | "-q" => db.compile_tmnf(src),
                    "--xpath" => db.compile_xpath(src),
                    _ => {
                        let text =
                            std::fs::read_to_string(src).map_err(|e| format!("{src}: {e}"))?;
                        db.compile_tmnf(&text)
                    }
                }
                .map_err(|e| e.to_string())?;
                if let Some(name) = &q.implicit_query_pred {
                    if warned.insert(q.source.clone()) {
                        eprintln!(
                            "arb: note: query {} has no QUERY predicate; \
                             selecting the head of its last rule: {name}",
                            queries.len()
                        );
                    }
                }
                queries.push(q);
                i += 2;
            }
            other => {
                rest.push(other.to_string());
                i += 1;
            }
        }
    }
    if queries.is_empty() {
        return Err("no query given (use --tmnf/-q/--xpath/--file)".to_string());
    }
    Ok((queries, rest))
}

/// The output shape, mapped onto the engine's provided sinks.
#[derive(Clone, Copy, PartialEq)]
enum Output {
    Bool,
    Count,
    Nodes,
    Xml,
}

/// Everything `arb query` parsed from its flags.
struct QueryArgs {
    output: Output,
    explain: bool,
    mark_out: Option<String>,
    show_stats: bool,
    force_batch: bool,
    memory: bool,
    threads: usize,
}

fn parse_query_flags(rest: &[String]) -> Result<QueryArgs, String> {
    let mut parsed = QueryArgs {
        output: Output::Count,
        explain: false,
        mark_out: None,
        show_stats: false,
        force_batch: false,
        memory: false,
        threads: 1,
    };
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--output" => {
                let mode = rest
                    .get(i + 1)
                    .ok_or_else(|| "--output needs bool|count|nodes|xml".to_string())?;
                parsed.output = match mode.as_str() {
                    "bool" | "boolean" => Output::Bool,
                    "count" => Output::Count,
                    "nodes" => Output::Nodes,
                    "xml" | "mark" => Output::Xml,
                    other => return Err(format!("unknown output mode {other:?}")),
                };
                i += 1;
            }
            // Legacy aliases for --output.
            "--count" => parsed.output = Output::Count,
            "--nodes" => parsed.output = Output::Nodes,
            "--boolean" => parsed.output = Output::Bool,
            "--explain" => parsed.explain = true,
            "--stats" => parsed.show_stats = true,
            "--batch" => parsed.force_batch = true,
            "--memory" => parsed.memory = true,
            "--threads" => {
                let n = rest
                    .get(i + 1)
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| "--threads needs a number".to_string())?;
                parsed.threads = n.max(1);
                i += 1;
            }
            "--mark" => {
                parsed.output = Output::Xml;
                if let Some(next) = rest.get(i + 1) {
                    if !next.starts_with("--") {
                        parsed.mark_out = Some(next.clone());
                        i += 1;
                    }
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    Ok(parsed)
}

fn query(args: &[String]) -> Result<(), String> {
    let db_path = args.first().ok_or_else(usage)?;
    let mut db = Database::open_arb(db_path).map_err(|e| e.to_string())?;
    let (queries, rest) = compile(&mut db, &args[1..])?;
    let parsed = parse_query_flags(&rest)?;
    if parsed.memory {
        // `--memory`: evaluate on the materialized tree instead of the file.
        let tree = db.to_tree().map_err(|e| e.to_string())?;
        db = Database::from_tree(tree, db.labels().clone());
    }

    // Per-query output lines carry a `q<i>:` prefix for multi-query
    // sessions (or when --batch forces batch formatting).
    let prefixed = queries.len() > 1 || parsed.force_batch;

    if parsed.explain {
        return explain(&db, &queries, prefixed);
    }

    let batch = QueryBatch::new(&queries);
    let session = db.prepare_batch(&batch);
    let req = EvalRequest::new().parallelism(parsed.threads);

    let label = |i: usize| {
        if prefixed {
            format!("q{i}: ")
        } else {
            String::new()
        }
    };

    match parsed.output {
        Output::Bool => {
            let mut sink = BooleanSink::default();
            session.eval(&req, &mut sink).map_err(|e| e.to_string())?;
            for (i, accepted) in sink.verdicts().iter().enumerate() {
                println!(
                    "{}{}",
                    label(i),
                    if *accepted { "accept" } else { "reject" }
                );
            }
            Ok(())
        }
        Output::Count => {
            let mut sink = CountSink::default();
            let report = session.eval(&req, &mut sink).map_err(|e| e.to_string())?;
            for (i, count) in sink.counts().iter().enumerate() {
                println!("{}{count} nodes selected", label(i));
            }
            print_stats(&session, &report, parsed.show_stats, prefixed);
            Ok(())
        }
        Output::Nodes => {
            let mut sink = NodeSetSink::default();
            let report = session.eval(&req, &mut sink).map_err(|e| e.to_string())?;
            for (i, set) in sink.sets().iter().enumerate() {
                for v in set.iter() {
                    println!("{}{}", label(i), v.0);
                }
            }
            print_stats(&session, &report, parsed.show_stats, prefixed);
            Ok(())
        }
        Output::Xml => {
            let report = match &parsed.mark_out {
                Some(path) => {
                    let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
                    let mut w = std::io::BufWriter::new(f);
                    let mut sink = XmlMarkSink::new(db.labels(), &mut w);
                    let report = session.eval(&req, &mut sink).map_err(|e| e.to_string())?;
                    w.flush().map_err(|e| e.to_string())?;
                    report
                }
                None => {
                    let stdout = std::io::stdout();
                    let mut lock = stdout.lock();
                    let mut sink = XmlMarkSink::new(db.labels(), &mut lock);
                    let report = session.eval(&req, &mut sink).map_err(|e| e.to_string())?;
                    writeln!(lock).ok();
                    report
                }
            };
            print_stats(&session, &report, parsed.show_stats, prefixed);
            Ok(())
        }
    }
}

/// Prints the Figure-6 statistics rows when `--stats` asked for them:
/// one row per query, plus the shared-pass note in batch formatting.
fn print_stats(session: &Session<'_>, report: &arb_engine::EvalReport, show: bool, prefixed: bool) {
    if !show {
        return;
    }
    let Some(batch) = &report.batch else { return };
    println!("{}", arb_core::EvalStats::table_header());
    for o in &batch.outcomes {
        println!("{}", o.stats.table_row());
    }
    if prefixed {
        println!(
            "# shared pass: {} backward scan(s), {} forward scan(s) for {} queries",
            batch.stats.backward_scans,
            batch.stats.forward_scans,
            session.len()
        );
    }
    if batch.stats.sta_encoded_bytes > 0 {
        println!(
            "# .sta stream: {} bytes encoded for {} bytes of states read back ({:.2} B/node)",
            batch.stats.sta_encoded_bytes,
            batch.stats.sta_decoded_bytes,
            batch.stats.sta_encoded_bytes as f64 / batch.stats.nodes.max(1) as f64,
        );
    }
}

/// `--explain`: print the compiled program(s) without evaluating.
fn explain(db: &Database, queries: &[Query], prefixed: bool) -> Result<(), String> {
    if !prefixed {
        let q = &queries[0];
        println!(
            "# {} query compiled to strict TMNF ({} predicates, {} rules):",
            match q.language {
                arb_engine::QueryLanguage::Tmnf => "TMNF",
                arb_engine::QueryLanguage::XPath => "XPath",
            },
            q.idb_count(),
            q.rule_count()
        );
        print!("{}", q.program().display(db.labels()));
        return Ok(());
    }
    let batch = QueryBatch::new(queries);
    println!(
        "# batch of {} queries merged into one TMNF program \
         ({} predicates, {} rules):",
        batch.len(),
        batch.merged_program().pred_count(),
        batch.merged_program().rule_count()
    );
    print!("{}", batch.merged_program().display(db.labels()));
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let db_path = args.first().ok_or_else(usage)?;
    let db = Database::open_arb(db_path).map_err(|e| e.to_string())?;
    println!("nodes:  {}", db.node_count());
    println!("tags:   {}", db.labels().tag_count());
    if let Some(disk) = db.as_disk() {
        println!("format: v{}", disk.format_version());
        println!("bytes:  {}", disk.file_bytes());
        let (appends, splices, deletes) = disk.update_counters();
        println!(
            "epoch:  {} ({appends} appends, {splices} splices, {deletes} deletes)",
            disk.epoch()
        );
    }
    if args.iter().any(|a| a == "--full") {
        let disk = db.as_disk().ok_or("not a disk database")?;
        let p = arb_storage::profile(disk).map_err(|e| e.to_string())?;
        println!("elements:   {}", p.elem_nodes);
        println!("characters: {}", p.char_nodes);
        println!("max depth:  {}", p.max_depth);
        println!("max fanout: {}", p.max_fanout);
        println!("leaf elems: {}", p.leaf_elems);
        println!("top tags:");
        for (name, count) in p.top_tags(disk, 10) {
            println!("  {name:<20} {count}");
        }
    }
    Ok(())
}

fn check(args: &[String]) -> Result<(), String> {
    let db_path = args.first().ok_or_else(usage)?;
    let db = Database::open_arb(db_path).map_err(|e| e.to_string())?;
    let disk = db.as_disk().ok_or("not a disk database")?;
    let report = disk.validate().map_err(|e| format!("INVALID: {e}"))?;
    println!(
        "OK: {} nodes ({} elements, {} characters), {} tags",
        report.nodes,
        report.elem_nodes,
        report.char_nodes,
        db.labels().tag_count()
    );
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig::default();
    let mut dbs: Vec<String> = Vec::new();
    let mut i = 0;
    let num = |args: &[String], i: usize, flag: &str| -> Result<u64, String> {
        args.get(i + 1)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{flag} needs a number"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                config.listen = args.get(i + 1).ok_or("--listen needs an address")?.clone();
                i += 1;
            }
            "--batch-window" => {
                config.batch_window =
                    std::time::Duration::from_millis(num(args, i, "--batch-window")?);
                i += 1;
            }
            "--max-batch" => {
                config.max_batch = num(args, i, "--max-batch")?.max(1) as usize;
                i += 1;
            }
            "--queue-cap" => {
                config.queue_cap = num(args, i, "--queue-cap")?.max(1) as usize;
                i += 1;
            }
            "--cache-budget" => {
                config.cache_budget = num(args, i, "--cache-budget")? as usize;
                i += 1;
            }
            "--workers" => {
                config.workers = num(args, i, "--workers")?.max(1) as usize;
                i += 1;
            }
            "--no-sweep" => config.sweep_scratch = false,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag:?}")),
            db => dbs.push(db.to_string()),
        }
        i += 1;
    }
    if dbs.is_empty() {
        return Err("serve needs at least one <db.arb>".to_string());
    }
    let handle = Server::start(config, &dbs).map_err(|e| e.to_string())?;
    println!("arb-server listening on {}", handle.local_addr());
    for db in &dbs {
        let stem = std::path::Path::new(db)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(db);
        println!("  serving {stem} ({db})");
    }
    handle.wait();
    println!("arb-server: shut down");
    Ok(())
}

fn client(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or_else(usage)?;
    let mut c = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
    let rest = &args[1..];
    if rest.iter().any(|a| a == "--ping") {
        c.ping().map_err(|e| e.to_string())?;
        println!("pong");
        return Ok(());
    }
    if rest.iter().any(|a| a == "--server-stats") {
        let s = c.server_stats().map_err(|e| e.to_string())?;
        println!("requests:        {}", s.requests);
        println!("batches:         {}", s.batches);
        println!("max batch:       {}", s.max_batch);
        println!("backward scans:  {}", s.backward_scans);
        println!("forward scans:   {}", s.forward_scans);
        println!("overloaded:      {}", s.overloaded);
        println!("cache hits:      {}", s.cache_hits);
        println!("cache misses:    {}", s.cache_misses);
        println!("cache evictions: {}", s.cache_evictions);
        println!("cache bytes:     {}", s.cache_bytes);
        println!("open databases:  {}", s.open_databases);
        println!("automata builds: {}", s.automata_builds);
        println!("automata reused: {}", s.automata_reused);
        println!("automata build time: {} us", s.automata_build_us);
        println!("standing registered: {}", s.standing_registered);
        println!("standing active: {}", s.standing_active);
        println!("doc updates:     {}", s.doc_updates);
        println!("delta pushes:    {}", s.delta_pushes);
        return Ok(());
    }
    if rest.iter().any(|a| a == "--shutdown") {
        c.shutdown().map_err(|e| e.to_string())?;
        println!("server shutting down");
        return Ok(());
    }
    // A query round trip: arb client <addr> <db> --tmnf/--xpath <src>.
    let db = rest.first().ok_or_else(usage)?;
    let mut language = None;
    let mut source = None;
    let mut output = OutputKind::Count;
    let mut show_stats = false;
    let mut i = 1;
    while i < rest.len() {
        match rest[i].as_str() {
            "--tmnf" | "-q" | "--xpath" => {
                language = Some(if rest[i] == "--xpath" {
                    WireLanguage::XPath
                } else {
                    WireLanguage::Tmnf
                });
                source = Some(
                    rest.get(i + 1)
                        .ok_or_else(|| format!("{} needs an argument", rest[i]))?
                        .clone(),
                );
                i += 1;
            }
            "--output" => {
                let mode = rest
                    .get(i + 1)
                    .ok_or_else(|| "--output needs bool|count|nodes|xml".to_string())?;
                output = match mode.as_str() {
                    "bool" | "boolean" => OutputKind::Bool,
                    "count" => OutputKind::Count,
                    "nodes" => OutputKind::Nodes,
                    "xml" | "mark" => OutputKind::Xml,
                    other => return Err(format!("unknown output mode {other:?}")),
                };
                i += 1;
            }
            "--stats" => show_stats = true,
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    let (language, source) = language
        .zip(source)
        .ok_or("no query given (use --tmnf/-q/--xpath)")?;
    let reply = c
        .query(db, language, output, &source)
        .map_err(|e| e.to_string())?;
    match reply.result {
        QueryResult::Bool(v) => println!("{}", if v { "accept" } else { "reject" }),
        QueryResult::Count(n) => println!("{n} nodes selected"),
        QueryResult::Nodes(nodes) => {
            for v in nodes {
                println!("{v}");
            }
        }
        QueryResult::Xml(bytes) => {
            std::io::stdout()
                .write_all(&bytes)
                .map_err(|e| e.to_string())?;
            println!();
        }
    }
    if show_stats {
        let s = reply.stats;
        println!(
            "# shared pass: batch of {} (queue wait {} us), {} backward + {} forward scan(s), \
             {} selected of {} nodes, cache {}, automata {} built / {} reused",
            s.batch_size,
            s.queue_wait_us,
            s.backward_scans,
            s.forward_scans,
            s.selected,
            s.nodes,
            if s.cache_hit { "hit" } else { "miss" },
            s.automata_builds,
            s.automata_reused
        );
    }
    Ok(())
}

/// `arb update`: offline in-place edits on a v2 `.arb` file. Fragments
/// are inline XML (or `@file` to read one from disk) and may introduce
/// new tags — the `.lab` file is rewritten to the grown label table
/// before the edit commits.
fn update(args: &[String]) -> Result<(), String> {
    let db_path = args.first().ok_or_else(usage)?;
    let path = std::path::Path::new(db_path);
    enum Op {
        Append(u32, String),
        Splice(u32, String),
        Delete(u32),
    }
    let mut ops = Vec::new();
    let mut i = 1;
    let pos = |args: &[String], i: usize, flag: &str| -> Result<u32, String> {
        args.get(i + 1)
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| format!("{flag} needs a preorder index"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--append" | "--splice" => {
                let at = pos(args, i, &args[i])?;
                let frag = args
                    .get(i + 2)
                    .ok_or_else(|| format!("{} needs <pos> <fragment>", args[i]))?;
                let xml = match frag.strip_prefix('@') {
                    Some(file) => {
                        std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?
                    }
                    None => frag.clone(),
                };
                ops.push(if args[i] == "--append" {
                    Op::Append(at, xml)
                } else {
                    Op::Splice(at, xml)
                });
                i += 2;
            }
            "--delete" => {
                ops.push(Op::Delete(pos(args, i, "--delete")?));
                i += 1;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    if ops.is_empty() {
        return Err("update needs at least one --append/--splice/--delete".to_string());
    }
    let mut updater = arb_storage::ArbUpdater::open(path).map_err(|e| e.to_string())?;
    let mut labels = arb_storage::ArbDatabase::open(path)
        .map_err(|e| e.to_string())?
        .labels()
        .clone();
    let base_tags = labels.tag_count();
    // Parses a fragment against the database's label table, growing the
    // `.lab` file first when the fragment interns new tags (the header's
    // tag count follows via `set_tag_count`, so readers of the updated
    // file see a consistent label space).
    let frag_records = |updater: &mut arb_storage::ArbUpdater,
                        labels: &mut arb_xml::LabelTable,
                        xml: &str|
     -> Result<Vec<arb_storage::NodeRecord>, String> {
        let tree = arb_xml::str_to_tree(xml, labels).map_err(|e| e.to_string())?;
        if labels.tag_count() != base_tags {
            std::fs::write(path.with_extension("lab"), labels.to_lab_string())
                .map_err(|e| e.to_string())?;
        }
        updater.set_tag_count(labels.tag_count() as u32);
        Ok(tree
            .nodes()
            .map(|v| {
                let info = tree.info(v);
                arb_storage::NodeRecord {
                    label: info.label,
                    has_first: info.has_first,
                    has_second: info.has_second,
                }
            })
            .collect())
    };
    for op in &ops {
        let report = match op {
            Op::Append(under, xml) => {
                let frag = frag_records(&mut updater, &mut labels, xml)?;
                updater.append_subtree(*under, &frag)
            }
            Op::Splice(at, xml) => {
                let frag = frag_records(&mut updater, &mut labels, xml)?;
                updater.splice_subtree(*at, &frag)
            }
            Op::Delete(at) => updater.delete_subtree(*at),
        }
        .map_err(|e| e.to_string())?;
        println!(
            "epoch {}: window at {} (-{} +{} records), {} -> {} nodes, \
             {} block(s) retained / {} rewritten",
            report.epoch,
            report.plan.pos,
            report.plan.removed,
            report.plan.inserted,
            report.old_nodes,
            report.new_nodes,
            report.retained_blocks,
            report.rewritten_blocks
        );
    }
    Ok(())
}

/// `arb watch`: register a standing query batch on a running server,
/// then stream edit commands from stdin and print the per-query result
/// deltas the server pushes back after each incremental refresh.
fn watch(args: &[String]) -> Result<(), String> {
    use arb_server::protocol::WireUpdate;
    use std::io::BufRead;

    let addr = args.first().ok_or_else(usage)?;
    let db = args.get(1).ok_or_else(usage)?;
    let mut language = None;
    let mut sources: Vec<String> = Vec::new();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--tmnf" | "-q" | "--xpath" => {
                let lang = if args[i] == "--xpath" {
                    WireLanguage::XPath
                } else {
                    WireLanguage::Tmnf
                };
                if *language.get_or_insert(lang) != lang {
                    return Err("watch queries must share one language".to_string());
                }
                sources.push(
                    args.get(i + 1)
                        .ok_or_else(|| format!("{} needs an argument", args[i]))?
                        .clone(),
                );
                i += 1;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    let language = language.ok_or("no query given (use --tmnf/-q/--xpath)")?;
    let mut c = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let reg = c.register(db, language, &refs).map_err(|e| e.to_string())?;
    println!(
        "registered handle {} at epoch {} ({} queries)",
        reg.handle,
        reg.epoch,
        reg.initial.len()
    );
    for (i, set) in reg.initial.iter().enumerate() {
        println!("q{i}: {} nodes initially selected", set.len());
    }
    println!("# commands: append <under> <xml> | splice <at> <xml> | delete <at> | quit");
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let verb = parts.next().unwrap_or_default();
        let at: u32 = match parts.next().and_then(|p| p.parse().ok()) {
            Some(v) => v,
            None => {
                eprintln!("arb: {verb} needs a preorder index");
                continue;
            }
        };
        let update = match (verb, parts.next()) {
            ("append", Some(xml)) => WireUpdate::AppendChild {
                under: at,
                xml: xml.to_string(),
            },
            ("splice", Some(xml)) => WireUpdate::SpliceSubtree {
                at,
                xml: xml.to_string(),
            },
            ("delete", None) => WireUpdate::DeleteSubtree { at },
            _ => {
                eprintln!("arb: unknown command {line:?}");
                continue;
            }
        };
        let reply = match c.update_doc(db, update) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("arb: {e}");
                continue;
            }
        };
        println!(
            "epoch {}: window at {} (-{} +{}), {} nodes, {} dirty, {} .sta block(s) retained",
            reply.epoch,
            reply.pos,
            reply.removed,
            reply.inserted,
            reply.nodes,
            reply.dirty_nodes,
            reply.retained_sta_blocks
        );
        for push in reply.pushes.iter().filter(|p| p.handle == reg.handle) {
            for (i, d) in push.queries.iter().enumerate() {
                println!(
                    "q{i}: +{} -{} nodes, verdict {}{}",
                    d.added.len(),
                    d.removed.len(),
                    if d.verdict { "accept" } else { "reject" },
                    if d.verdict_changed { " (flipped)" } else { "" }
                );
            }
        }
    }
    c.unregister(db, reg.handle).map_err(|e| e.to_string())?;
    println!("unregistered handle {}", reg.handle);
    Ok(())
}

fn cat(args: &[String]) -> Result<(), String> {
    let db_path = args.first().ok_or_else(usage)?;
    let db = Database::open_arb(db_path).map_err(|e| e.to_string())?;
    let disk = db.as_disk().ok_or("not a disk database")?;
    let mut emitter = arb_engine::XmlEmitter::new(db.labels(), std::io::stdout().lock());
    let mut scan = disk.forward_scan().map_err(|e| e.to_string())?;
    while let Some((_ix, rec)) = scan.next_record().map_err(|e| e.to_string())? {
        emitter.node(rec, false).map_err(|e| e.to_string())?;
    }
    let mut out = emitter.finish().map_err(|e| e.to_string())?;
    writeln!(out).ok();
    Ok(())
}
