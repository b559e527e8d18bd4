//! # arb-server
//!
//! The resident query service: keep `.arb` databases hot in one
//! long-lived process and share two-phase scan pairs across concurrent
//! clients (paper §7's multi-query batching, applied at admission time
//! instead of compile time).
//!
//! A one-shot `arb query` pays the full cost per invocation: process
//! start, database open, query compilation, one backward + one forward
//! scan. The server amortizes all four. A **database registry** holds
//! open [`arb_engine::Database`] handles across requests; a
//! **prepared-program cache** (a [`cache::Lru`]) skips
//! parse/normalize/optimize for repeated query text; and the **admission
//! batcher** ([`server`]) merges every request that arrives within a
//! small window (default 2 ms, cap 64) against the same database into
//! one [`arb_engine::QueryBatch`] — k concurrent clients cost **one**
//! shared backward + forward scan pair, not k. Each client gets its own
//! result and its own share of the statistics: `batch_size` says how
//! many queries rode the pass, `queue_wait_us` what admission cost.
//! A bounded admission queue sheds excess load with a fast
//! [`protocol::ErrorCode::Overloaded`] reply, and shutdown drains
//! queued requests through their shared passes before exiting.
//!
//! ## Prepared-session lifecycle
//!
//! Compiled tree automata follow the engine's build-once / eval-many
//! lifecycle all the way to the wire. Each cached program carries its
//! own [`arb_engine::AutomataPool`], and multi-query windows go through
//! a **window-shape cache** (another [`cache::Lru`]): the merged
//! [`arb_engine::QueryBatch`] and its pool are keyed by the *sorted*
//! query texts of the window, so the same k queries landing together
//! again — in any arrival order — skip both the batch merge and the
//! automata build. Dispatch prepares a session over the cached batch
//! with [`arb_engine::Session::with_pool`], so warm automata survive
//! session churn; a permutation maps the canonical batch order back to
//! each client's reply. The reuse is observable: per-reply
//! [`protocol::WireStats`] carries `automata_builds` / `automata_reused`
//! for the run that served the window, and the
//! [`protocol::ServerStatsReply`] aggregates add total builds, reuses
//! and build time. Repeated identical windows therefore report
//! `automata_builds == 1` for the lifetime of the cache entry (pinned
//! by the `server_differential` suite and the `regress` baseline).
//! [`ServerConfig::workers`] (CLI: `arb serve --workers N`) sets the
//! sharded parallelism each dispatched window is evaluated with.
//!
//! ## Standing queries and document updates
//!
//! Databases served here are **updatable**: `UpdateDoc` (opcode `0x07`)
//! splices, appends or deletes a subtree in place — the storage layer
//! rewrites only the touched record blocks and bumps the file epoch. A
//! client can `Register` (opcode `0x05`) a **standing query batch**:
//! the batch is evaluated once at registration (the reply carries the
//! initial result sets), and every subsequent update re-evaluates it
//! *incrementally* via [`arb_engine::StandingQuery`] — phase 1 over the
//! dirty window plus the root spine, phase 2 only where phase-1 states
//! changed — and the `UpdateDoc` reply pushes each registration's
//! result **deltas** (added/removed nodes, verdict flips) instead of
//! re-shipping full results. [`protocol::ServerStatsReply`] counts
//! registrations, updates, and delta pushes
//! (`standing_registered` / `standing_active` / `doc_updates` /
//! `delta_pushes`); the per-update reply reports `dirty_nodes` and
//! `retained_sta_blocks`, the wire-visible proof that the refresh
//! touched a window, not the document. The CLI exposes the loop as
//! `arb watch`.
//!
//! ## Wire protocol
//!
//! Hand-rolled, length-prefixed, no external dependencies. Every frame
//! is a little-endian `u32` payload length (cap 64 MiB) followed by the
//! payload; each connection is a strict request/response lockstep.
//! Integers are little-endian fixed width; strings and byte blobs are
//! `u32` length + bytes. See [`protocol`] for the field-level layout.
//!
//! Requests (first payload byte is the opcode):
//!
//! | opcode | request | payload |
//! |-------:|---------|---------|
//! | `0x01` | `Query` | db name, language (`0` TMNF / `1` XPath), output kind (`0` bool / `1` count / `2` nodes / `3` marked XML), query source |
//! | `0x02` | `Ping` | — |
//! | `0x03` | `ServerStats` | — |
//! | `0x04` | `Shutdown` | — |
//! | `0x05` | `Register` | db name, language, query count, query sources |
//! | `0x06` | `Unregister` | db name, registration handle |
//! | `0x07` | `UpdateDoc` | db name, edit kind (`0` append / `1` splice / `2` delete), position, XML fragment |
//!
//! Responses lead with a status byte: `0x00` success (shape follows the
//! request), `0xFF` error (code byte + message). Error codes:
//!
//! | code | meaning |
//! |-----:|---------|
//! | `1` | `BadRequest` — malformed frame or unknown opcode |
//! | `2` | `UnknownDatabase` — name not in the registry |
//! | `3` | `Query` — compilation failed (message carries the diagnostic) |
//! | `4` | `Overloaded` — admission queue full, retry later |
//! | `5` | `Internal` — evaluation failed server-side |
//! | `6` | `ShuttingDown` — server is draining |
//!
//! ## Example
//!
//! ```
//! use arb_server::client::Client;
//! use arb_server::protocol::{OutputKind, QueryResult, WireLanguage};
//! use arb_server::server::{Server, ServerConfig};
//! use std::io::Cursor;
//!
//! // A tiny .arb database to serve.
//! let dir = std::env::temp_dir().join(format!("arb-srv-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let db = dir.join("docs.arb");
//! arb_storage::create_from_xml(
//!     Cursor::new("<r><a/><b><a/></b></r>".as_bytes()),
//!     &arb_xml::XmlConfig::default(),
//!     &db,
//! )
//! .unwrap();
//!
//! let handle = Server::start(ServerConfig::default(), &[&db]).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let reply = client
//!     .query("docs", WireLanguage::XPath, OutputKind::Count, "//a")
//!     .unwrap();
//! assert_eq!(reply.result, QueryResult::Count(2));
//! assert!(reply.stats.batch_size >= 1);
//! client.shutdown().unwrap();
//! handle.wait();
//! ```

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, Lru, WindowKey};
pub use client::{Client, ClientError, QueryReply, RegisterReply};
pub use protocol::{
    ErrorCode, OutputKind, QueryResult, Request, Response, ServerStatsReply, StandingPush,
    UpdateReply, WireDelta, WireLanguage, WireStats, WireUpdate,
};
pub use server::{Server, ServerConfig, ServerHandle};
