//! # arb — facade crate
//!
//! Re-exports the full Arb-rs workspace: a Rust reproduction of
//! *"Efficient Processing of Expressive Node-Selecting Queries on XML Data
//! in Secondary Storage: A Tree Automata-based Approach"* (Christoph Koch,
//! VLDB 2003).
//!
//! See the crate-level docs of the individual subsystems:
//!
//! * [`tree`] — binary tree data model (paper §2.1)
//! * [`xml`] — streaming XML (SAX) substrate
//! * [`logic`] — propositional Horn programs, LTUR, residual programs (§4.1)
//! * [`tmnf`] — the TMNF query language and caterpillar expressions (§2.2)
//! * [`core`] — tree automata, STAs and two-phase evaluation (§3–4)
//! * [`storage`] — the `.arb` secondary-storage model (§5), with two
//!   on-disk formats: v1 (the paper's bare 2-byte records) and v2
//!   (versioned, block-compressed, checksummed — the creation default)
//! * [`xpath`] — Core XPath front end
//! * [`datagen`] — workload generators for the evaluation (§6)
//! * [`engine`] — the high-level query engine API
//! * [`server`] — the resident query service (admission-window scan
//!   sharing over a hand-rolled TCP protocol)
//!
//! ## Quick start: one evaluation surface
//!
//! The paper has one evaluation algorithm — compile to strict TMNF, run
//! two linear scans — and the engine mirrors that with **one** entry
//! point: compile queries against a [`Database`], prepare a [`Session`]
//! (a single query is a batch of one; k queries share the same two-scan
//! pass, §7), describe the run with an [`EvalRequest`], and plug a
//! [`ResultSink`] to choose the output shape:
//!
//! ```
//! use arb::engine::{CountSink, EvalRequest, XmlMarkSink};
//! use arb::Database;
//!
//! let mut db = Database::from_xml_str("<r><a/><b><a/></b></r>")?;
//! let q1 = db.compile_tmnf("QUERY :- V.Label[a];")?;
//! let q2 = db.compile_xpath("//b")?;
//! let session = db.prepare(&[q1, q2]);
//!
//! // Per-query counts from one shared backward + forward scan.
//! let mut counts = CountSink::default();
//! session.eval(&EvalRequest::new(), &mut counts)?;
//! assert_eq!(counts.counts(), &[2, 1]);
//!
//! // The same prepared session streams marked XML during phase 2.
//! let mut mark = XmlMarkSink::new(db.labels(), Vec::new());
//! session.eval(&EvalRequest::new(), &mut mark)?;
//! assert!(String::from_utf8(mark.into_inner().unwrap())?.contains("arb:selected"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Provided sinks: [`engine::BooleanSink`] (accept/reject per query —
//! a single backward scan on disk databases), [`engine::CountSink`],
//! [`engine::NodeSetSink`], and [`engine::XmlMarkSink`] (streams during
//! phase 2 without materializing extra node sets). Shorthand wrappers
//! [`Session::run`], [`Session::run_one`], [`Session::run_boolean`] and
//! [`Session::run_marked`] cover the common shapes. Every run gets its
//! own uniquely named `.sta` scratch file, so concurrent sessions over
//! one database are safe.
//!
//! ### Knobs
//!
//! [`EvalOptions`] carries exactly two. `parallelism` splits the pass
//! over a subtree frontier with worker threads on either backing (§6.2:
//! on disk, backward/forward *range scans* over disjoint subtree record
//! windows with segmented `.sta` I/O). `sta_format` picks the layout of
//! a disk run's `.sta` state stream ([`StaFormat`]; unset, the
//! `ARB_STA_FORMAT` environment variable decides, defaulting to the
//! block-compressed layout). Which records a run reads is not a knob
//! but the [`Database`]'s backing: to evaluate a disk database in
//! memory, materialize it once —
//! `Database::from_tree(db.to_tree()?, db.labels().clone())` (the CLI's
//! `--memory`).
//!
//! ### One kernel, and its raw fronts
//!
//! Behind every one of these runs is a single function,
//! [`core::kernel::evaluate`]: Algorithm 4.6 as one backward and one
//! forward fold over a record stream, generic over where the records
//! live ([`core::kernel::RecordSource`]: an in-memory tree, a v1 or v2
//! file, any subtree window of them) and where the phase-1 states live
//! ([`core::kernel::StateStore`]: a vector, the flat or block-compressed
//! `.sta` file, or nothing for verdict-only runs). Sequential
//! evaluation is its one-window plan, sharded evaluation the same folds
//! over a frontier of windows; the module docs are the algorithm's
//! long-form description.
//!
//! Harnesses and reference suites that hold a raw
//! [`tmnf::CoreProgram`] use [`QueryBatch::from_programs`] +
//! [`Database::prepare_batch`], or — where re-merging the program would
//! drift pinned transition counts — the four thin fronts of the kernel:
//! [`core::evaluate_tree`] / [`core::evaluate_tree_parallel`] in memory,
//! [`engine::evaluate_disk`] / [`engine::evaluate_disk_parallel`] on
//! disk.
//!
//! ## Build once, eval many
//!
//! Compiled tree automata ([`core::QueryAutomata`]) are a *session*
//! resource, not a per-run one: every [`Session`] owns an
//! [`engine::AutomataPool`], each `eval` takes a pooled automaton
//! (resetting only its per-run node state — the interned transition
//! tables stay warm) and returns it afterwards, so the second and every
//! later evaluation of a prepared session skips the automata build
//! entirely. Sharded runs draw one pooled automaton per worker.
//! [`Session::with_pool`] shares one pool between sessions prepared
//! over the *same* merged program (the server's window cache uses this
//! to keep repeated batch shapes warm across session churn). Every run's
//! [`core::EvalStats`] reports `automata_builds` / `automata_reused` /
//! `automata_build_time`, so reuse is observable — the `session_reuse`
//! integration suite pins that warm runs report zero builds while
//! staying bit-for-bit identical to fresh sessions.
//!
//! ## Evaluation statistics
//!
//! Every run reports [`core::EvalStats`] — the paper's Figure 6 columns
//! (per-phase wall time, lazily computed δ_A/δ_B transitions, state and
//! node counts, `memory_bytes`, scan counters, `.sta` bytes) plus
//! [`core::InternStats`] under `stats.interning`: the pressure of the
//! automata's hash tables, which bound phase-1 throughput on every
//! worker. Its fields: `arena_bytes` (payload of the interned residual
//! programs and predicate sets), `table_bytes` (open-addressing slot
//! arrays, stored hashes and transition key/value vectors),
//! `max_probe` (longest probe sequence any table walked — a clustering
//! indicator; low tens is normal on healthy runs, since grow-time
//! re-placement counts toward the maximum), `alphabet_symbols`
//! (distinct schema symbols `|Σ_A|` seen; the schema abstraction keeps
//! this tiny and, since the dense-alphabet rework, a merged batch may
//! mention **any** number of EDB atoms — the old 128 ceiling is gone),
//! and `bu_entries`/`td_entries` (memoized δ transitions). Parallel
//! runs report master and workers combined. Disk runs additionally
//! report the storage format they read (`db_format`), on v2 databases
//! how many compressed blocks the scans decoded (`blocks_decoded`), and
//! the `.sta` scratch-stream traffic as two counters:
//! `sta_encoded_bytes` (what phase 1 put on disk — under 4 B/node with
//! the default compressed layout) and `sta_decoded_bytes` (the 4 B/state
//! volume phase 2 read back).
//!
//! ## On-disk storage formats
//!
//! [`Database::create_arb_from_xml`] (and the `arb create` CLI verb)
//! write format **v2** by default: a 64-byte checksummed header,
//! delta/varint block-compressed records framed with per-block CRC32s,
//! a materialized subtree-extent section, and a block index that lets
//! range scans seek straight to the first needed block. Pass
//! [`engine::FormatVersion::V1`] (CLI: `--format v1`) for the paper's
//! bare-record layout; [`storage::ArbDatabase::open`] sniffs the
//! version, so both formats are served through the same scan API and
//! corrupt or truncated files of either format are rejected with
//! `InvalidData` instead of silently returning wrong answers (see the
//! `arb_storage` crate docs for the byte-level layout).
//!
//! The temporary `.sta` state stream connecting the two evaluation
//! phases follows the same pattern ([`storage::StaFormat`]): by default
//! phase 1 writes block-framed compressed state runs — delta/varint
//! literals, run-length tokens, and a skip-default token eliding nodes
//! whose state equals the block's most frequent one, each block framed
//! `{n_records, body_len, crc32}` — and phase 2 decodes whole blocks
//! into a reusable buffer instead of issuing one 4-byte read per node.
//! Sharded runs keep their per-worker segment/patch composition (§6.2)
//! as side files of the scratch path. `ARB_STA_FORMAT=flat` (or
//! [`EvalOptions::sta_format`]) selects the paper's bare 4-bytes-per-node
//! layout (footnote 12); a truncated or damaged stream of either layout
//! surfaces as `InvalidData` mid-evaluation, never as silent wrong
//! answers. See [`storage::stafile`] for the byte-level layout.
//!
//! ## Serving: amortizing the pass across clients
//!
//! One-shot `arb query` invocations pay database open, query
//! compilation and a private two-scan pass every time. The resident
//! query service (`arb serve`, crate [`server`]) amortizes all three:
//! open databases stay registered across requests, compiled programs
//! are cached in a byte-bounded LRU keyed by query text, and — the key
//! move — concurrent requests that land within one **admission window**
//! (default 2 ms, cap 64 queries) are merged with the engine's §7
//! multi-query batching into a *single* shared backward + forward scan
//! pair. Eight clients asking in the same window cost one scan pair,
//! not eight; each gets its own result plus wire statistics saying how
//! many queries rode its pass (`batch_size`) and how long admission
//! held it (`queue_wait_us`). A bounded queue sheds overload with a
//! fast `Overloaded` reply instead of buffering without bound.
//!
//! Window *shapes* are cached too: the merged batch and its automata
//! pool are keyed by the sorted query texts of the window, so a hot
//! shape (the same k queries landing together again) skips both the
//! merge and the automata build and reuses warm pooled automata —
//! `automata_builds` stays at one no matter how often the window
//! repeats, visible per reply (`automata builds/reused` in `--stats`)
//! and in the `server-stats` aggregates. `arb serve --workers N` sets
//! the sharded parallelism every dispatched window is evaluated with.
//!
//! ```text
//! arb serve --listen 127.0.0.1:7333 --batch-window 2 --max-batch 64 docs.arb
//! arb client 127.0.0.1:7333 docs --xpath //a --output count --stats
//! #   2 nodes selected
//! #   # shared pass: batch of 8 (queue wait 1312 us), 1 backward + 1 forward
//! #   # scan(s), 2 selected of 20000 nodes, cache hit
//! ```
//!
//! Programmatic access goes through [`server::Client`], or
//! [`server::Server::start`] to embed the service; the length-prefixed
//! frame layout, request/response schema and error codes are specified
//! in the [`server::protocol`] module docs. The `serve_open` workload of
//! the repository benchmark (`perfbench/`) drives a server at a fixed
//! offered load and reports p50/p95 latency and scans-per-query.
//!
//! ## Updatable databases and standing queries
//!
//! Databases are **updatable in place**. [`DocUpdate`] describes one
//! edit — append a fragment under a node, splice out a subtree for a
//! replacement, or delete one — and
//! [`Database::apply_update`](engine::Database::apply_update) applies
//! it to either backing: in memory the tree is re-spliced; on disk
//! (format v2) the storage layer rewrites only the record blocks the
//! edit window touches, bumps the file's **epoch** in the header, and
//! leaves every other block byte-identical. v2 files that predate the
//! update API open unchanged at epoch 0; v1 files reject updates. The
//! CLI counterpart is `arb update` (which also grows the `.lab` file
//! when a fragment introduces new tags), and `arb stats` prints the
//! epoch with its per-kind append/splice/delete counters.
//!
//! Evaluation keeps up **incrementally**. A [`Session`] (or an owned
//! [`StandingQuery`] for hosts that outlive the session borrow) holds
//! the rho-a/rho-b state vectors of its last run; after an update,
//! [`Session::refresh`](engine::Session::refresh) re-runs phase 1 over
//! the edit window plus the root spine only — stopping the upward walk
//! as soon as a recomputed state re-interns equal — and phase 2 only
//! below the highest changed state, pruning subtrees whose downward
//! state is unchanged. The [`core::EvalStats`] counters `dirty_nodes`,
//! `retained_sta_blocks` and `refreshes` make the savings observable,
//! and on disk the blocked `.sta` stream is rewritten from the first
//! dirty block only. Each refresh returns a [`RefreshReport`] whose
//! [`QueryDelta`]s carry the per-query added/removed nodes and verdict
//! flips. The server folds all of this into the wire protocol:
//! `Register` installs a standing batch, `UpdateDoc` applies one edit
//! and pushes every registration's deltas in its reply (`arb watch` is
//! the CLI loop around it), and `server-stats` counts registrations,
//! updates and delta pushes. The `incremental_differential` suite pins
//! refresh against full re-evaluation bit-for-bit, edit sequences and
//! backends crossed, including the wire deltas.
//!
//! ## Building and testing
//!
//! The workspace is fully offline: the four external dependencies
//! (`rand`, `proptest`, `criterion`, `crossbeam`) are vendored as
//! API-subset stand-ins under `vendor/` (see `vendor/README.md`).
//!
//! ```text
//! cargo build --release      # all 12 crates + the `arb` CLI binary
//! cargo test -q              # unit, property and integration suites
//! cargo bench --no-run       # compile the five criterion benches
//! cargo bench -p arb-bench   # run them (interning, ltur, storage, twophase, xpath)
//! ```
//!
//! The seventeen root integration suites are the correctness spine:
//! `paper_claims`, `theorem_4_1`, `xpath_differential`,
//! `dtd_differential`, `storage_model`, `format_v2` (corrupt-file
//! rejection plus a v1-vs-v2 differential property), `twophase_vs_naive`,
//! `batch_differential`, `session_api`, `session_reuse` (a reused
//! session is bit-for-bit a fresh one, and warm runs never rebuild
//! automata), `end_to_end`, `section_1_3`,
//! `intern_differential` (arena interners vs. a map-based model),
//! `wide_alphabet` (merged batches past 128 EDB atoms),
//! `sta_differential` (blocked vs. flat `.sta` streams vs. in-memory
//! states, sequential and sharded), `server_differential`
//! (concurrent clients vs. one-shot sessions, wire-asserted scan
//! sharing, window-shape automata reuse, overload shedding) and
//! `incremental_differential` (random edit sequences: `Session::refresh`
//! vs. full rebuild + re-evaluation bit-for-bit, plus standing-query
//! wire deltas vs. the diff of full results).
//! Property suites take an explicit case-count override for deep runs
//! (`ARB_PROPTEST_CASES=5000 cargo test`) and a global input seed
//! (`ARB_PROPTEST_SEED`); all datagen workloads are seeded, so every
//! suite is deterministic end to end.
//!
//! Paper-figure reproductions live in `arb-bench` as binaries:
//! `cargo run --release -p arb-bench --bin fig5` (creation statistics),
//! `fig6 [treebank|acgt-flat|acgt-infix|all]`, `baseline`, `multiquery`,
//! `parallel`, `ablation`, and
//! `regress` (benchmark regression tracking against the committed
//! baselines in `crates/bench/baselines/`, now including storage
//! file-size, decode-throughput, server scan-sharing and exact automata
//! build/reuse metrics). Sizes
//! scale via
//! `ARB_ACGT_LOG2`, `ARB_TREEBANK_ELEMS` and friends — see the
//! `arb_bench` crate docs.

pub use arb_core as core;
pub use arb_datagen as datagen;
pub use arb_engine as engine;
pub use arb_logic as logic;
pub use arb_server as server;
pub use arb_storage as storage;
pub use arb_tmnf as tmnf;
pub use arb_tree as tree;
pub use arb_xml as xml;
pub use arb_xpath as xpath;

pub use arb_engine::{
    AppliedUpdate, BatchOutcome, Database, DocUpdate, EvalOptions, EvalReport, EvalRequest, Query,
    QueryBatch, QueryDelta, QueryOutcome, RefreshReport, ResultSink, Session, SinkDemand,
    StaFormat, StandingQuery,
};
