//! The resident query service: database registry, admission batcher,
//! thread-per-connection TCP front end.
//!
//! The heart is the **admission batcher**: one dispatcher thread per
//! registered database collects query requests that arrive within a
//! configurable window ([`ServerConfig::batch_window`], capped at
//! [`ServerConfig::max_batch`] queries), merges their cached compiled
//! programs into one [`QueryBatch`], and runs a single shared
//! backward + forward scan pair through the ordinary
//! [`Session::eval`](arb_engine::Session::eval) surface — then
//! demultiplexes results and per-query statistics back to each waiting
//! connection. k concurrent clients cost one scan pair, not k.

use crate::cache::{
    program_cost, window_cost, CacheKey, Lru, PreparedProgram, PreparedWindow, WindowKey,
};
use crate::protocol::{
    ErrorCode, OutputKind, QueryResult, Request, Response, ServerStatsReply, StandingPush,
    UpdateReply, WireDelta, WireLanguage, WireStats, WireUpdate,
};
use arb_engine::{
    AutomataPool, BooleanSink, Database, DocUpdate, EvalRequest, Query, QueryBatch, ResultSink,
    SinkDemand, StandingQuery, XmlEmitter,
};
use arb_storage::NodeRecord;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`host:port`; port 0 picks an ephemeral port).
    pub listen: String,
    /// The admission window: the first request against a database opens
    /// a window, and every request arriving before it closes joins the
    /// same shared scan pair.
    pub batch_window: Duration,
    /// Hard cap on queries per shared pass; a full window dispatches
    /// immediately without waiting out the rest of `batch_window`.
    pub max_batch: usize,
    /// Bound on queued (admitted, not yet dispatched) requests per
    /// database. Requests beyond it are shed with
    /// [`ErrorCode::Overloaded`] instead of buffering without bound.
    pub queue_cap: usize,
    /// Byte budget of the prepared-program cache (each database's
    /// prepared-window cache gets the same budget).
    pub cache_budget: usize,
    /// Worker threads for each dispatched shared pass (threaded into
    /// [`arb_engine::EvalOptions::parallelism`]): `0` and `1` evaluate
    /// sequentially; `> 1` shards the window's scans over a subtree
    /// frontier (per-worker range scans on disk). The CLI exposes this
    /// as `arb serve --workers N`.
    pub workers: usize,
    /// Sweep stale scratch `.sta` streams left by dead processes when
    /// opening each database (see
    /// [`arb_storage::sweep_stale_scratch`]).
    pub sweep_scratch: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            batch_window: Duration::from_millis(2),
            max_batch: 64,
            queue_cap: 256,
            cache_budget: 16 << 20,
            workers: 1,
            sweep_scratch: true,
        }
    }
}

/// One admitted query waiting for (or riding in) a shared pass.
struct Pending {
    prepared: Arc<PreparedProgram>,
    language: WireLanguage,
    output: OutputKind,
    cache_hit: bool,
    enqueued: Instant,
    reply: mpsc::Sender<Response>,
}

#[derive(Default)]
struct QueueState {
    items: Vec<Pending>,
    draining: bool,
}

/// A registered database: the open handle, its admission queue, and its
/// prepared-window cache (merged batch + warm automata per window
/// shape).
struct DbEntry {
    db: RwLock<Database>,
    state: Mutex<QueueState>,
    cv: Condvar,
    windows: Lru<WindowKey, PreparedWindow>,
    /// Standing query batches installed on this database, by handle.
    /// Lock order: `standing` before `db` — `Register` and `UpdateDoc`
    /// both take the map first, then the database write lock, so an
    /// update never races a registration's prime/refresh.
    standing: Mutex<HashMap<u64, StandingQuery>>,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    backward_scans: AtomicU64,
    forward_scans: AtomicU64,
    overloaded: AtomicU64,
    automata_builds: AtomicU64,
    automata_reused: AtomicU64,
    automata_build_ns: AtomicU64,
    standing_registered: AtomicU64,
    doc_updates: AtomicU64,
    delta_pushes: AtomicU64,
}

struct ServerShared {
    config: ServerConfig,
    dbs: HashMap<String, Arc<DbEntry>>,
    cache: Lru<CacheKey, PreparedProgram>,
    counters: Counters,
    next_handle: AtomicU64,
    shutdown: AtomicBool,
}

/// A running resident query service. Obtain with [`Server::start`];
/// stop with [`ServerHandle::shutdown`] (drains in-flight batches) or
/// by sending the wire `Shutdown` request.
pub struct Server;

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Opens every database (registered under its file stem), binds the
    /// listen address, and starts the accept loop plus one admission
    /// batcher per database.
    pub fn start(config: ServerConfig, db_paths: &[impl AsRef<Path>]) -> io::Result<ServerHandle> {
        if db_paths.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a server needs at least one database",
            ));
        }
        let mut dbs = HashMap::new();
        for path in db_paths {
            let path = path.as_ref();
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .filter(|s| !s.is_empty())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("cannot derive a database name from {}", path.display()),
                    )
                })?
                .to_string();
            let db = Database::open_arb(path)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if config.sweep_scratch {
                if let Some(disk) = db.as_disk() {
                    disk.sweep_stale_scratch()?;
                }
            }
            if dbs
                .insert(
                    name.clone(),
                    Arc::new(DbEntry {
                        db: RwLock::new(db),
                        state: Mutex::new(QueueState::default()),
                        cv: Condvar::new(),
                        windows: Lru::new(config.cache_budget),
                        standing: Mutex::new(HashMap::new()),
                    }),
                )
                .is_some()
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate database name {name:?}"),
                ));
            }
        }
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let cache = Lru::new(config.cache_budget);
        let shared = Arc::new(ServerShared {
            config,
            dbs,
            cache,
            counters: Counters::default(),
            next_handle: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let batchers: Vec<JoinHandle<()>> = shared
            .dbs
            .values()
            .map(|entry| {
                let shared = Arc::clone(&shared);
                let entry = Arc::clone(entry);
                thread::spawn(move || batcher_loop(&shared, &entry))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&shared, listener, batchers))
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful shutdown — new queries are refused with
    /// `ShuttingDown`, queued ones are drained through their shared
    /// passes — and waits for the server threads to finish.
    pub fn shutdown(mut self) {
        begin_shutdown(&self.shared);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Blocks until the server shuts down (a wire `Shutdown` request or
    /// another thread's [`ServerHandle::shutdown`]).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn begin_shutdown(shared: &ServerShared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    for entry in shared.dbs.values() {
        let mut st = entry.state.lock().unwrap();
        st.draining = true;
        entry.cv.notify_all();
    }
}

fn accept_loop(shared: &Arc<ServerShared>, listener: TcpListener, batchers: Vec<JoinHandle<()>>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                thread::spawn(move || {
                    let _ = handle_connection(&shared, stream);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    // Shutdown: the batchers drain their queues, then exit.
    for h in batchers {
        let _ = h.join();
    }
}

fn handle_connection(shared: &Arc<ServerShared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // Poll between frames so idle connections notice a shutdown.
    stream
        .set_read_timeout(Some(Duration::from_millis(150)))
        .ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match crate::protocol::read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()), // peer closed
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        let response = match Request::decode(&payload) {
            Ok(req) => process(shared, req),
            Err(e) => Response::Error {
                code: ErrorCode::BadRequest,
                message: e.to_string(),
            },
        };
        crate::protocol::write_frame(&mut writer, &response.encode()?)?;
    }
}

fn process(shared: &Arc<ServerShared>, req: Request) -> Response {
    match req {
        Request::Ping => Response::Ok,
        Request::Shutdown => {
            begin_shutdown(shared);
            Response::Ok
        }
        Request::ServerStats => Response::ServerStats(Box::new(gather_stats(shared))),
        Request::Query {
            db,
            language,
            output,
            source,
        } => process_query(shared, db, language, output, source),
        Request::Register {
            db,
            language,
            sources,
        } => process_register(shared, &db, language, &sources),
        Request::Unregister { db, handle } => process_unregister(shared, &db, handle),
        Request::UpdateDoc { db, update } => process_update(shared, &db, update),
    }
}

fn lookup_db<'a>(shared: &'a ServerShared, db: &str) -> Result<&'a Arc<DbEntry>, Response> {
    let Some(entry) = shared.dbs.get(db) else {
        return Err(Response::Error {
            code: ErrorCode::UnknownDatabase,
            message: format!("no database registered as {db:?}"),
        });
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is draining".into(),
        });
    }
    Ok(entry)
}

/// Installs a standing query batch: compiles the sources, evaluates them
/// once (the prime), and replies with the handle plus the initial result
/// sets. Holds the standing map across the prime so a concurrent
/// `UpdateDoc` cannot slip an epoch between prime and installation.
fn process_register(
    shared: &ServerShared,
    db: &str,
    language: WireLanguage,
    sources: &[String],
) -> Response {
    let entry = match lookup_db(shared, db) {
        Ok(e) => e,
        Err(resp) => return resp,
    };
    if sources.is_empty() {
        return Response::Error {
            code: ErrorCode::BadRequest,
            message: "a standing registration needs at least one query".into(),
        };
    }
    let mut standing = entry.standing.lock().unwrap();
    let mut guard = entry.db.write().unwrap();
    let mut queries = Vec::with_capacity(sources.len());
    for source in sources {
        let compiled = match language {
            WireLanguage::Tmnf => guard.compile_tmnf(source),
            WireLanguage::XPath => guard.compile_xpath(source),
        };
        match compiled {
            Ok(q) => queries.push(q),
            Err(e) => {
                return Response::Error {
                    code: ErrorCode::Query,
                    message: e.to_string(),
                }
            }
        }
    }
    let mut sq = StandingQuery::new(&queries);
    if let Err(e) = sq.prime(&guard) {
        return internal_error(e.to_string());
    }
    let epoch = sq.epoch().expect("primed");
    let initial: Vec<Vec<u32>> = sq
        .results()
        .expect("primed")
        .iter()
        .map(|set| set.iter().map(|v| v.0).collect())
        .collect();
    drop(guard);
    let handle = shared.next_handle.fetch_add(1, Ordering::Relaxed);
    standing.insert(handle, sq);
    shared
        .counters
        .standing_registered
        .fetch_add(1, Ordering::Relaxed);
    Response::Registered {
        handle,
        epoch,
        initial,
    }
}

fn process_unregister(shared: &ServerShared, db: &str, handle: u64) -> Response {
    let entry = match lookup_db(shared, db) {
        Ok(e) => e,
        Err(resp) => return resp,
    };
    match entry.standing.lock().unwrap().remove(&handle) {
        Some(_) => Response::Ok,
        None => Response::Error {
            code: ErrorCode::BadRequest,
            message: format!("no standing registration {handle} on {db:?}"),
        },
    }
}

/// Applies one document update and refreshes every standing registration
/// incrementally, collecting their result deltas into the reply. The
/// database write lock serializes the edit against in-flight shared
/// passes (which hold the read lock).
fn process_update(shared: &ServerShared, db: &str, update: WireUpdate) -> Response {
    let entry = match lookup_db(shared, db) {
        Ok(e) => e,
        Err(resp) => return resp,
    };
    let update = match update {
        WireUpdate::AppendChild { under, xml } => DocUpdate::AppendChild { under, xml },
        WireUpdate::SpliceSubtree { at, xml } => DocUpdate::SpliceSubtree { at, xml },
        WireUpdate::DeleteSubtree { at } => DocUpdate::DeleteSubtree { at },
    };
    let mut standing = entry.standing.lock().unwrap();
    let guard = entry.db.write().unwrap();
    let applied = match guard.apply_update(&update) {
        Ok(a) => a,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: e.to_string(),
            }
        }
    };
    let mut pushes = Vec::with_capacity(standing.len());
    let mut dirty_nodes = 0u64;
    let mut retained_sta_blocks = 0u64;
    let mut failed: Vec<(u64, String)> = Vec::new();
    for (&handle, sq) in standing.iter_mut() {
        match sq.refresh(&guard, &applied) {
            Ok(report) => {
                dirty_nodes += report.batch.stats.dirty_nodes;
                retained_sta_blocks += report.batch.stats.retained_sta_blocks;
                pushes.push(StandingPush {
                    handle,
                    queries: report
                        .deltas
                        .iter()
                        .map(|d| WireDelta {
                            added: d.added.clone(),
                            removed: d.removed.clone(),
                            verdict: d.verdict,
                            verdict_changed: d.verdict_changed,
                        })
                        .collect(),
                });
            }
            Err(e) => failed.push((handle, e.to_string())),
        }
    }
    // A registration whose refresh failed can never absorb a later epoch;
    // drop it rather than leave it permanently stale.
    for (handle, _) in &failed {
        standing.remove(handle);
    }
    drop(guard);
    pushes.sort_by_key(|p| p.handle);
    let c = &shared.counters;
    c.doc_updates.fetch_add(1, Ordering::Relaxed);
    c.delta_pushes
        .fetch_add(pushes.len() as u64, Ordering::Relaxed);
    if let Some((handle, msg)) = failed.into_iter().next() {
        return internal_error(format!(
            "update applied (epoch {}), but refreshing standing registration {handle} \
             failed and it was dropped: {msg}",
            applied.epoch
        ));
    }
    Response::Updated(UpdateReply {
        epoch: applied.epoch,
        pos: applied.plan.pos,
        removed: applied.plan.removed,
        inserted: applied.plan.inserted,
        nodes: u64::from(applied.new_nodes),
        dirty_nodes,
        retained_sta_blocks,
        pushes,
    })
}

fn gather_stats(shared: &ServerShared) -> ServerStatsReply {
    let c = &shared.counters;
    let cache = shared.cache.stats();
    ServerStatsReply {
        requests: c.requests.load(Ordering::Relaxed),
        batches: c.batches.load(Ordering::Relaxed),
        max_batch: c.max_batch.load(Ordering::Relaxed),
        backward_scans: c.backward_scans.load(Ordering::Relaxed),
        forward_scans: c.forward_scans.load(Ordering::Relaxed),
        overloaded: c.overloaded.load(Ordering::Relaxed),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        cache_bytes: cache.bytes,
        open_databases: shared.dbs.len() as u64,
        automata_builds: c.automata_builds.load(Ordering::Relaxed),
        automata_reused: c.automata_reused.load(Ordering::Relaxed),
        automata_build_us: c.automata_build_ns.load(Ordering::Relaxed) / 1_000,
        standing_registered: c.standing_registered.load(Ordering::Relaxed),
        standing_active: shared
            .dbs
            .values()
            .map(|e| e.standing.lock().unwrap().len() as u64)
            .sum(),
        doc_updates: c.doc_updates.load(Ordering::Relaxed),
        delta_pushes: c.delta_pushes.load(Ordering::Relaxed),
    }
}

fn process_query(
    shared: &Arc<ServerShared>,
    db: String,
    language: WireLanguage,
    output: OutputKind,
    source: String,
) -> Response {
    let Some(entry) = shared.dbs.get(&db) else {
        return Response::Error {
            code: ErrorCode::UnknownDatabase,
            message: format!("no database registered as {db:?}"),
        };
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is draining".into(),
        };
    }
    // Prepared-program cache: a hit skips parse/normalize/optimize and
    // the single-query merge; a miss compiles under the database's
    // write lock (compilation interns labels) and populates the cache.
    let key = CacheKey {
        db,
        language,
        source,
    };
    let (prepared, cache_hit) = match shared.cache.lookup(&key) {
        Some(p) => (p, true),
        None => {
            let compiled = {
                let mut db = entry.db.write().unwrap();
                match key.language {
                    WireLanguage::Tmnf => db.compile_tmnf(&key.source),
                    WireLanguage::XPath => db.compile_xpath(&key.source),
                }
            };
            let query = match compiled {
                Ok(q) => q,
                Err(e) => {
                    return Response::Error {
                        code: ErrorCode::Query,
                        message: e.to_string(),
                    }
                }
            };
            let prepared = Arc::new(PreparedProgram::new(query));
            let cost = program_cost(&key, &prepared);
            shared.cache.insert(key, Arc::clone(&prepared), cost);
            (prepared, false)
        }
    };
    // Admission: join the database's current window, shedding when the
    // queue is full.
    let (tx, rx) = mpsc::channel();
    {
        let mut st = entry.state.lock().unwrap();
        if st.draining {
            return Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "server is draining".into(),
            };
        }
        if st.items.len() >= shared.config.queue_cap {
            shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
            return Response::Error {
                code: ErrorCode::Overloaded,
                message: format!(
                    "admission queue full ({} pending); retry later",
                    st.items.len()
                ),
            };
        }
        st.items.push(Pending {
            prepared,
            language,
            output,
            cache_hit,
            enqueued: Instant::now(),
            reply: tx,
        });
        entry.cv.notify_all();
    }
    rx.recv().unwrap_or_else(|_| Response::Error {
        code: ErrorCode::Internal,
        message: "batcher terminated before replying".into(),
    })
}

/// The per-database dispatcher: waits for a window to fill or expire,
/// drains up to `max_batch` admitted queries, and runs them through one
/// shared pass.
fn batcher_loop(shared: &ServerShared, entry: &DbEntry) {
    loop {
        let batch: Vec<Pending> = {
            let mut st = entry.state.lock().unwrap();
            loop {
                if st.items.is_empty() {
                    if st.draining {
                        return;
                    }
                    st = entry.cv.wait(st).unwrap();
                    continue;
                }
                // The window opened when its first request was admitted.
                let deadline = st.items[0].enqueued + shared.config.batch_window;
                let now = Instant::now();
                if st.draining || st.items.len() >= shared.config.max_batch || now >= deadline {
                    let take = st.items.len().min(shared.config.max_batch);
                    break st.items.drain(..take).collect();
                }
                let (guard, _) = entry.cv.wait_timeout(st, deadline - now).unwrap();
                st = guard;
            }
        };
        run_batch(shared, entry, batch);
    }
}

/// Holds whichever prepared batch the window resolved to: the cached
/// singleton (one-query window, merge skipped) or a cached/freshly
/// merged multi-query window. Either way the entry carries the
/// [`AutomataPool`] that keeps the merged program's automata warm
/// across dispatches of the same shape.
enum WindowBatch {
    Single(Arc<PreparedProgram>),
    Window(Arc<PreparedWindow>),
}

impl WindowBatch {
    fn batch(&self) -> &QueryBatch {
        match self {
            WindowBatch::Single(p) => &p.singleton,
            WindowBatch::Window(w) => &w.batch,
        }
    }

    fn pool(&self) -> &Arc<AutomataPool> {
        match self {
            WindowBatch::Single(p) => &p.pool,
            WindowBatch::Window(w) => &w.pool,
        }
    }
}

/// Resolves a drained admission window to its prepared batch plus the
/// permutation mapping each item to its batch entry (`perm[i]` is item
/// `i`'s entry index — multi-query windows are merged in the canonical
/// sorted order of [`WindowKey`], not arrival order, so repeated shapes
/// hit one cache entry no matter how the clients raced in).
fn resolve_window(entry: &DbEntry, items: &[Pending]) -> (WindowBatch, Vec<usize>) {
    if items.len() == 1 {
        return (WindowBatch::Single(Arc::clone(&items[0].prepared)), vec![0]);
    }
    fn spec(p: &Pending) -> (WireLanguage, &str) {
        (p.language, p.prepared.query.source.as_str())
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| spec(&items[a]).cmp(&spec(&items[b])));
    let mut perm = vec![0usize; items.len()];
    for (entry_ix, &item_ix) in order.iter().enumerate() {
        perm[item_ix] = entry_ix;
    }
    let key = WindowKey {
        specs: order
            .iter()
            .map(|&i| (items[i].language, items[i].prepared.query.source.clone()))
            .collect(),
    };
    let prepared = match entry.windows.lookup(&key) {
        Some(w) => w,
        None => {
            let refs: Vec<&Query> = order.iter().map(|&i| &items[i].prepared.query).collect();
            let w = Arc::new(PreparedWindow {
                batch: QueryBatch::from_query_refs(&refs),
                pool: Arc::new(AutomataPool::new()),
            });
            // Budget overflows just skip caching; the window still runs.
            let cost = window_cost(&key, &w);
            entry.windows.insert(key, Arc::clone(&w), cost);
            w
        }
    };
    (WindowBatch::Window(prepared), perm)
}

/// Streams phase 2 into one [`XmlEmitter`] per marked-XML client, each
/// marking **its own** query's selections only (unlike
/// [`arb_engine::XmlMarkSink`], which marks the session union).
/// `emitters`/`outputs` are in item (arrival) order; the per-node
/// selection flags arrive in batch-entry (canonical) order, so `perm`
/// translates between them.
struct MarkDemuxSink<'l> {
    emitters: Vec<Option<XmlEmitter<'l, Vec<u8>>>>,
    outputs: Vec<Option<Vec<u8>>>,
    perm: Vec<usize>,
}

impl ResultSink for MarkDemuxSink<'_> {
    fn demand(&self) -> SinkDemand {
        SinkDemand::Stream
    }

    fn node(&mut self, _ix: u32, rec: NodeRecord, selected_by: &[bool]) -> io::Result<()> {
        for (i, e) in self.emitters.iter_mut().enumerate() {
            if let Some(e) = e {
                e.node(rec, selected_by[self.perm[i]])?;
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        for (e, out) in self.emitters.iter_mut().zip(self.outputs.iter_mut()) {
            if let Some(e) = e.take() {
                *out = Some(e.finish()?);
            }
        }
        Ok(())
    }
}

fn internal_error(message: String) -> Response {
    Response::Error {
        code: ErrorCode::Internal,
        message,
    }
}

fn run_batch(shared: &ServerShared, entry: &DbEntry, items: Vec<Pending>) {
    let eval_start = Instant::now();
    let (window, perm) = resolve_window(entry, &items);
    let db = entry.db.read().unwrap();
    let pool = Arc::clone(window.pool());
    let session = db
        .prepare_batch(window.batch())
        .with_pool(Arc::clone(&pool));
    let req = EvalRequest::new().parallelism(shared.config.workers);
    let all_bool = items.iter().all(|p| p.output == OutputKind::Bool);
    let any_xml = items.iter().any(|p| p.output == OutputKind::Xml);
    let queue_wait =
        |p: &Pending| eval_start.saturating_duration_since(p.enqueued).as_micros() as u64;
    // Pool counters are lifetime totals shared with past dispatches of
    // this shape; snapshot them so this pass reports its own deltas.
    let (builds0, reused0, build_t0) = (pool.builds(), pool.reused(), pool.build_time());

    let responses: Vec<Response> = if all_bool {
        // Verdict-only batches skip phase 2 entirely — on disk the whole
        // window is one shared backward scan and no `.sta` stream.
        let mut sink = BooleanSink::default();
        match session.eval(&req, &mut sink) {
            Ok(report) => {
                record_scans(
                    shared,
                    &pool,
                    (builds0, reused0, build_t0),
                    items.len(),
                    1,
                    0,
                );
                let stats = WireStats {
                    batch_size: items.len() as u32,
                    backward_scans: 1,
                    forward_scans: 0,
                    nodes: db.node_count(),
                    db_format: db.as_disk().map_or(0, |d| d.format_version()),
                    automata_builds: pool.builds() - builds0,
                    automata_reused: pool.reused() - reused0,
                    ..WireStats::default()
                };
                items
                    .iter()
                    .enumerate()
                    .map(|(i, p)| Response::Query {
                        result: QueryResult::Bool(report.verdicts[perm[i]]),
                        stats: WireStats {
                            queue_wait_us: queue_wait(p),
                            cache_hit: p.cache_hit,
                            ..stats
                        },
                    })
                    .collect()
            }
            Err(e) => items
                .iter()
                .map(|_| internal_error(e.to_string()))
                .collect(),
        }
    } else {
        let mut sink = MarkDemuxSink {
            emitters: items
                .iter()
                .map(|p| {
                    (p.output == OutputKind::Xml).then(|| XmlEmitter::new(db.labels(), Vec::new()))
                })
                .collect(),
            outputs: items.iter().map(|_| None).collect(),
            perm: perm.clone(),
        };
        // Without an XML client there is nothing to stream; an
        // outcome-only discard sink lets verdict/count/nodes clients
        // share the plain two-scan pass.
        struct OutcomesOnly;
        impl ResultSink for OutcomesOnly {}
        let mut discard = OutcomesOnly;
        let active: &mut dyn ResultSink = if any_xml { &mut sink } else { &mut discard };
        match session.eval(&req, active) {
            Ok(report) => {
                let batch = report
                    .batch
                    .as_ref()
                    .expect("outcome demand yields a batch");
                record_scans(
                    shared,
                    &pool,
                    (builds0, reused0, build_t0),
                    items.len(),
                    batch.stats.backward_scans,
                    batch.stats.forward_scans,
                );
                items
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let o = &batch.outcomes[perm[i]];
                        let mut stats = WireStats {
                            batch_size: o.stats.batch_size as u32,
                            queue_wait_us: queue_wait(p),
                            backward_scans: o.stats.backward_scans,
                            forward_scans: o.stats.forward_scans,
                            selected: o.stats.selected,
                            nodes: o.stats.nodes,
                            phase1_us: o.stats.phase1_time.as_micros() as u64,
                            phase2_us: o.stats.phase2_time.as_micros() as u64,
                            cache_hit: p.cache_hit,
                            db_format: o.stats.db_format,
                            automata_builds: o.stats.automata_builds,
                            automata_reused: o.stats.automata_reused,
                        };
                        if stats.nodes == 0 {
                            stats.nodes = db.node_count();
                        }
                        let result = match p.output {
                            OutputKind::Bool => QueryResult::Bool(report.verdicts[perm[i]]),
                            OutputKind::Count => QueryResult::Count(o.stats.selected),
                            OutputKind::Nodes => {
                                QueryResult::Nodes(o.selected.iter().map(|v| v.0).collect())
                            }
                            OutputKind::Xml => match sink.outputs[i].take() {
                                Some(xml) => QueryResult::Xml(xml),
                                None => {
                                    return internal_error(
                                        "marked-XML stream missing for this query".into(),
                                    )
                                }
                            },
                        };
                        Response::Query { result, stats }
                    })
                    .collect()
            }
            Err(e) => items
                .iter()
                .map(|_| internal_error(e.to_string()))
                .collect(),
        }
    };
    drop(db);
    for (p, resp) in items.iter().zip(responses) {
        // A send error means the client hung up; the batch ran anyway.
        let _ = p.reply.send(resp);
    }
}

fn record_scans(
    shared: &ServerShared,
    pool: &AutomataPool,
    (builds0, reused0, build_t0): (u64, u64, Duration),
    batch_len: usize,
    backward: u64,
    forward: u64,
) {
    let c = &shared.counters;
    c.requests.fetch_add(batch_len as u64, Ordering::Relaxed);
    c.batches.fetch_add(1, Ordering::Relaxed);
    c.max_batch.fetch_max(batch_len as u64, Ordering::Relaxed);
    c.backward_scans.fetch_add(backward, Ordering::Relaxed);
    c.forward_scans.fetch_add(forward, Ordering::Relaxed);
    c.automata_builds
        .fetch_add(pool.builds() - builds0, Ordering::Relaxed);
    c.automata_reused
        .fetch_add(pool.reused() - reused0, Ordering::Relaxed);
    c.automata_build_ns.fetch_add(
        pool.build_time().saturating_sub(build_t0).as_nanos() as u64,
        Ordering::Relaxed,
    );
}
