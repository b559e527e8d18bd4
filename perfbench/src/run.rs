//! One run of one workload: set-up (XML text to ready-and-warm), the
//! workload's loop, and the six end-to-end metrics.

use crate::inputs::{self, Ask, Edit, EditScript, Inputs, Lang, Loop, QuerySpec, Scale, Workload};
use crate::oracle::{self, Expected};
use crate::proc::{self, Scratch, ServerProc};
use crate::span::Recorder;
use crate::stats;
use arb_engine::{CountSink, Database, EvalRequest, NodeSetSink, Query, QueryDelta, Session};
use arb_server::protocol::{OutputKind, QueryResult, ServerStatsReply, WireLanguage};
use arb_server::{Client, ClientError, ErrorCode};
use arb_tree::NodeSet;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up repetitions per end-to-end run, each on fresh files;
/// `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Consecutive parts a measured window is cut into, each with the same
/// number of operations, and how many of them a run reports from: the
/// [`KEPT`] with the lowest mean latency, pooled. The machines this runs
/// on slow down by a third for one to six seconds several times in five
/// minutes (README.md); a spell that stays inside the other segments
/// moves nothing, and one that slows the program as a whole slows every
/// segment.
pub const SEGMENTS: usize = 5;
pub const KEPT: usize = 3;

/// In `update_standing`, every this-many-th operation is followed by an
/// untimed full evaluation that must equal the delta-accumulated sets.
const VERIFY_EVERY: u64 = 16;

/// Everything fixed before the first timed interval of a run.
pub struct Run {
    pub w: &'static Workload,
    pub scale: Scale,
    pub seed: u64,
    pub inputs: Inputs,
    /// What each pool query must select, in pool order.
    pub expected: Vec<Expected>,
    /// The `arb` binary the CLI and server paths spawn.
    pub arb: PathBuf,
    pub scratch: Scratch,
    pub xml_path: PathBuf,
}

impl Run {
    pub fn prepare(w: &'static Workload, scale: Scale, seed: u64) -> io::Result<Run> {
        let arb = proc::build_arb()?;
        let inputs = inputs::generate(w, &scale, seed);
        let scratch = Scratch::create(w.name, seed)?;
        let xml_path = scratch.path().join("doc.xml");
        std::fs::write(&xml_path, &inputs.doc.xml)?;
        let expected = inputs
            .pool
            .iter()
            .map(|q| oracle::expect(q, &inputs.doc.tree, &inputs.doc.labels))
            .collect();
        Ok(Run {
            w,
            scale,
            seed,
            inputs,
            expected,
            arb,
            scratch,
            xml_path,
        })
    }

    pub fn nodes(&self) -> u64 {
        self.inputs.doc.tree.len() as u64
    }

    /// The oracle's answer for a never-seen text.
    pub fn expect_fresh(&self, i: usize) -> Expected {
        oracle::expect(
            &self.inputs.fresh[i],
            &self.inputs.doc.tree,
            &self.inputs.doc.labels,
        )
    }
}

/// Operations attempted, operations failed (an error, an `Overloaded`
/// reply, a non-zero child exit or a wrong answer), and whether any
/// answer was wrong.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: bool,
}

impl Tally {
    /// Counts one operation that returned an answer.
    pub fn answered(&mut self, right: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !right {
            self.mismatch(what);
        }
    }

    /// Counts one operation that returned no answer.
    pub fn errored(&mut self, what: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: operation failed: {what}");
    }

    /// A wrong answer outside the counted operations (set-up, the
    /// periodic full evaluation) or for one already counted.
    pub fn mismatch(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        self.wrong = true;
        eprintln!("perfbench: wrong answer: {}", what());
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong |= other.wrong;
    }

    /// Takes over the failures of requests that were checked but are not
    /// operations of the measured loop (set-up, probe passes).
    pub fn absorb_checks(&mut self, other: Tally) {
        self.failed += other.failed;
        self.wrong |= other.wrong;
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted.saturating_sub(self.failed)
    }
}

/// The measured window of a loop: a mark at its start and after every
/// cycle of operations, with untimed verification inside it left out of
/// both clocks.
struct Window {
    start: Instant,
    /// The live server child whose CPU counts with the harness's own.
    server: Option<u32>,
    cpu0: f64,
    paused_s: f64,
    paused_cpu: f64,
    marks: Vec<Mark>,
}

/// A point between two operations of a window: operations answered and
/// answered correctly, and wall and CPU seconds used, since it opened.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mark {
    pub answered: usize,
    pub correct: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Window {
    fn open(server_pid: Option<u32>) -> Self {
        let mut window = Window {
            server: server_pid,
            cpu0: 0.0,
            start: Instant::now(),
            paused_s: 0.0,
            paused_cpu: 0.0,
            marks: vec![Mark::default()],
        };
        window.cpu0 = window.cpu_now();
        window
    }

    fn cpu_now(&self) -> f64 {
        proc::cpu_self_s() + self.server.map_or(0.0, proc::cpu_of_s)
    }

    fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Runs `f` outside the measurement.
    fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t, c) = (Instant::now(), self.cpu_now());
        let out = f();
        self.paused_s += t.elapsed().as_secs_f64();
        self.paused_cpu += self.cpu_now() - c;
        out
    }

    /// Between two cycles: `answered` operations have returned an answer
    /// so far, `correct` of them the right one.
    fn mark(&mut self, answered: usize, correct: u64) {
        self.marks.push(Mark {
            answered,
            correct,
            wall_s: self.elapsed_s() - self.paused_s,
            cpu_s: self.cpu_now() - self.cpu0 - self.paused_cpu,
        });
    }
}

/// One of the [`SEGMENTS`] consecutive parts of a measured window.
#[derive(Clone, Copy, Debug)]
pub struct Segment<'a> {
    /// Latency of each operation answered in it, ms.
    pub lat_ms: &'a [f64],
    /// How many of those answers were right.
    pub correct: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// What a loop measured.
pub struct Measured {
    /// Latency of every answered operation, ms, in the order the
    /// operations were due.
    pub lat_ms: Vec<f64>,
    /// The window's start and the end of each of its cycles.
    pub marks: Vec<Mark>,
    /// `.arb` + `.lab` + the largest `.sta` one evaluation wrote, and
    /// the node count, when the loop ended.
    pub disk_bytes: u64,
    pub nodes: u64,
    /// Open-loop detail, for the per-layer server rows.
    pub serve: Option<ServeDetail>,
}

impl Measured {
    /// The [`KEPT`] of the window's [`SEGMENTS`] equal runs of cycles
    /// whose operations were fastest on average. A segment that answered
    /// nothing is not kept.
    pub fn kept(&self) -> Vec<Segment<'_>> {
        let cycles = self.marks.len() - 1;
        let mut segments: Vec<Segment<'_>> = (0..SEGMENTS)
            .map(|k| {
                let from = self.marks[k * cycles / SEGMENTS];
                let to = self.marks[(k + 1) * cycles / SEGMENTS];
                Segment {
                    lat_ms: &self.lat_ms[from.answered..to.answered],
                    correct: to.correct.saturating_sub(from.correct),
                    wall_s: to.wall_s - from.wall_s,
                    cpu_s: to.cpu_s - from.cpu_s,
                }
            })
            .filter(|s| !s.lat_ms.is_empty())
            .collect();
        let mean = |s: &Segment<'_>| stats::mean(s.lat_ms);
        segments.sort_by(|a, b| mean(a).partial_cmp(&mean(b)).expect("latencies are finite"));
        segments.truncate(KEPT);
        segments
    }
}

/// Per-request observations of an open-loop pass and the server's
/// counters around it.
pub struct ServeDetail {
    pub lag_ms: Vec<f64>,
    pub batch_sizes: Vec<f64>,
    pub queue_wait_us: Vec<f64>,
    pub before: ServerStatsReply,
    pub after: ServerStatsReply,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn compile(db: &mut Database, q: &QuerySpec) -> Query {
    match q.lang {
        Lang::XPath => db.compile_xpath(&q.text),
        Lang::Tmnf => db.compile_tmnf(&q.text),
    }
    .unwrap_or_else(|e| panic!("pool query {:?} does not compile: {e}", q.text))
}

/// Bytes of the database on disk: `.arb` + `.lab`.
pub fn db_bytes(arb: &Path) -> u64 {
    let len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    len(arb) + len(&arb_storage::create::sibling(arb, "lab"))
}

/// `XML text -> .arb` at `path`: the call `storage.create` spans time.
pub fn create_file(run: &Run, path: &Path) {
    let xml = BufReader::with_capacity(
        1 << 20,
        std::fs::File::open(&run.xml_path).expect("open the XML"),
    );
    let (created, _) = arb_storage::create_from_xml(xml, &arb_xml::XmlConfig::default(), path)
        .expect("database creation");
    assert_eq!(
        created.nodes(),
        run.nodes(),
        "the created database holds the generated document"
    );
}

/// `XML text -> .arb` in `dir`.
pub fn create_db(run: &Run, dir: &Path, rec: &mut Recorder) -> PathBuf {
    let path = dir.join("doc.arb");
    rec.time("storage.create", 0, || create_file(run, &path));
    path
}

/// One `Session::eval` into a `CountSink`: the single count, and the
/// `.sta` bytes the evaluation wrote.
pub fn eval_count(session: &Session<'_>) -> Result<(u64, u64), arb_engine::EngineError> {
    let mut sink = CountSink::default();
    let report = session.eval(&EvalRequest::new(), &mut sink)?;
    let sta = report.batch.map_or(0, |b| b.stats.sta_encoded_bytes);
    Ok((sink.counts()[0], sta))
}

/// The in-process part of set-up after the file exists: open, compile
/// the pool, prepare one session per query, and evaluate each once
/// (filling its lazy transition tables), checking the first answers.
/// `f` then runs with the warm sessions, the compiled standing queries
/// and the largest `.sta` stream a first evaluation wrote.
pub fn with_sessions<R>(
    run: &Run,
    arb_path: &Path,
    rec: &mut Recorder,
    tally: &mut Tally,
    f: impl for<'s> FnOnce(
        &mut Recorder,
        &mut Tally,
        &'s Database,
        &'s [Session<'s>],
        &'s [Query],
        u64,
    ) -> R,
) -> R {
    let (db, _) = rec.time("storage.open", 0, || Database::open_arb(arb_path));
    let mut db = db.expect("open the created database");
    let queries: Vec<Query> = run
        .inputs
        .pool
        .iter()
        .map(|q| {
            let name = match q.lang {
                Lang::XPath => "xpath.compile",
                Lang::Tmnf => "tmnf.compile",
            };
            rec.time(name, 0, || compile(&mut db, q)).0
        })
        .collect();
    let standing: Vec<Query> = match run.w.kind {
        Loop::UpdateStanding => run
            .inputs
            .standing
            .iter()
            .map(|q| compile(&mut db, q))
            .collect(),
        _ => Vec::new(),
    };
    let sessions: Vec<Session<'_>> = queries
        .iter()
        .map(|q| {
            rec.time("engine.prepare", 0, || db.prepare(std::slice::from_ref(q)))
                .0
        })
        .collect();
    let mut max_sta = 0;
    for (i, s) in sessions.iter().enumerate() {
        let (first, _) = rec.time("engine.eval", i as u64, || eval_count(s));
        let (count, sta) = first.expect("first evaluation");
        max_sta = max_sta.max(sta);
        if count != run.expected[i].count {
            tally.mismatch(|| format!("set-up: {:?} selected {count}", run.inputs.pool[i].text));
        }
    }
    f(rec, tally, &db, &sessions, &standing, max_sta)
}

pub fn wire_lang(q: &QuerySpec) -> WireLanguage {
    match q.lang {
        Lang::XPath => WireLanguage::XPath,
        Lang::Tmnf => WireLanguage::Tmnf,
    }
}

/// What the server said about one answered request.
struct Answer {
    right: bool,
    batch_size: f64,
    queue_wait_us: f64,
}

/// Sends one query and checks the reply against the oracle.
fn ask(
    client: &mut Client,
    db_name: &str,
    q: &QuerySpec,
    want: Expected,
    tally: &mut Tally,
) -> Option<Answer> {
    let kind = if q.nodes {
        OutputKind::Nodes
    } else {
        OutputKind::Count
    };
    match client.query(db_name, wire_lang(q), kind, &q.text) {
        Ok(reply) => {
            let right = match &reply.result {
                QueryResult::Count(n) => *n == want.count,
                QueryResult::Nodes(ixs) => Expected::of_nodes(ixs.iter().copied()) == want,
                _ => false,
            };
            tally.answered(right, || format!("server: {:?}", q.text));
            Some(Answer {
                right,
                batch_size: reply.stats.batch_size as f64,
                queue_wait_us: reply.stats.queue_wait_us as f64,
            })
        }
        Err(ClientError::Server {
            code: ErrorCode::Overloaded,
            ..
        }) => {
            tally.errored("request shed (Overloaded)");
            None
        }
        Err(e) => {
            tally.errored(e);
            None
        }
    }
}

/// A spawned server that has answered its first `ping`.
pub struct Served {
    pub server: ServerProc,
    pub db_name: String,
    /// Held for as long as the server is driven.
    _awake: proc::KeepAwake,
}

impl Served {
    /// Server start to first `ping`.
    pub fn start(run: &Run, arb_path: &Path, rec: &mut Recorder) -> Served {
        let awake = proc::KeepAwake::start();
        let (server, _) = rec.time("server.start", 0, || {
            let server = ServerProc::spawn(&run.arb, arb_path)?;
            Client::connect(server.addr.as_str())?
                .ping()
                .map_err(|e| io::Error::other(e.to_string()))?;
            Ok::<_, io::Error>(server)
        });
        Served {
            server: server.expect("arb serve starts and answers a ping"),
            db_name: "doc".to_string(),
            _awake: awake,
        }
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.server.addr.as_str()).expect("connect to arb serve")
    }

    /// Asks every pool query once, filling the server's program cache
    /// and transition tables, then every pair of neighbours in pool order
    /// at one instant from two connections, so that the window shapes the
    /// open loop's pairs form are warm too.
    pub fn warm(&self, run: &Run, rec: &mut Recorder, tally: &mut Tally) {
        let pool = &run.inputs.pool;
        let mut client = self.connect();
        let mut first = Tally::default();
        for (i, q) in pool.iter().enumerate() {
            rec.time("client.query", i as u64, || {
                ask(&mut client, &self.db_name, q, run.expected[i], &mut first)
            });
        }
        let mut second = self.connect();
        for i in 0..pool.len() {
            let j = (i + 1) % pool.len();
            // The two requests merge when they land in one admission
            // window; a pair that missed it is sent again.
            for _attempt in 0..3 {
                let (merged, _) = rec.time("client.query_pair", i as u64, || {
                    let gate = std::sync::Barrier::new(2);
                    let (mut here, mut there) = (Tally::default(), Tally::default());
                    let (a, b) = std::thread::scope(|scope| {
                        let other = scope.spawn(|| {
                            gate.wait();
                            ask(
                                &mut second,
                                &self.db_name,
                                &pool[j],
                                run.expected[j],
                                &mut there,
                            )
                        });
                        gate.wait();
                        let a = ask(
                            &mut client,
                            &self.db_name,
                            &pool[i],
                            run.expected[i],
                            &mut here,
                        );
                        (a, other.join().expect("pair thread"))
                    });
                    first.absorb(here);
                    first.absorb(there);
                    matches!((a, b), (Some(a), Some(b)) if a.batch_size >= 2.0 && b.batch_size >= 2.0)
                });
                if merged {
                    break;
                }
            }
        }
        // Set-up requests are checked but are not operations of the loop.
        tally.absorb_checks(first);
    }

    /// Graceful shutdown; the guard kills the server if it does not go.
    pub fn stop(self) {
        let asked = Client::connect(self.server.addr.as_str())
            .is_ok_and(|mut client| client.shutdown().is_ok());
        if asked {
            let _ = self.server.wait();
        }
    }
}

/// Runs set-up once in `dir`, timing it, then hands the ready state to
/// `measure`. Returns `(setup_s, measure's result)`.
pub fn set_up_and<R>(
    run: &Run,
    dir: &Path,
    rec: &mut Recorder,
    tally: &mut Tally,
    measure: impl FnOnce(&mut Recorder, &mut Tally, Ready<'_, '_>) -> R,
) -> (f64, R) {
    let t = Instant::now();
    let arb_path = create_db(run, dir, rec);
    match run.w.kind {
        Loop::Warm => with_sessions(
            run,
            &arb_path,
            rec,
            tally,
            |rec, tally, db, sessions, _, sta| {
                let setup_s = t.elapsed().as_secs_f64();
                let ready = Ready::Sessions {
                    db,
                    sessions,
                    max_sta: sta,
                };
                (setup_s, measure(rec, tally, ready))
            },
        ),
        Loop::UpdateStanding => with_sessions(
            run,
            &arb_path,
            rec,
            tally,
            |rec, tally, db, _, standing, sta| {
                let session = db.prepare(standing);
                rec.time("engine.prime", 0, || session.prime_standing())
                    .0
                    .expect("prime the standing queries");
                let setup_s = t.elapsed().as_secs_f64();
                let ready = Ready::Standing {
                    db,
                    session: &session,
                    max_sta: sta,
                };
                (setup_s, measure(rec, tally, ready))
            },
        ),
        Loop::ColdCli => {
            for (i, q) in run.inputs.pool.iter().enumerate() {
                let (count, _) = rec.time("cli.query", i as u64, || {
                    proc::arb_query_count(&run.arb, &arb_path, q.cli_flag(), &q.text)
                });
                if count.expect("first arb query") != run.expected[i].count {
                    tally.mismatch(|| format!("set-up: arb query {:?}", q.text));
                }
            }
            let setup_s = t.elapsed().as_secs_f64();
            (setup_s, measure(rec, tally, Ready::File { arb_path }))
        }
        Loop::ServeOpen => {
            let served = Served::start(run, &arb_path, rec);
            served.warm(run, rec, tally);
            let setup_s = t.elapsed().as_secs_f64();
            (
                setup_s,
                measure(rec, tally, Ready::Served { arb_path, served }),
            )
        }
    }
}

/// What set-up leaves for the loop.
pub enum Ready<'a, 'db> {
    Sessions {
        db: &'db Database,
        sessions: &'a [Session<'db>],
        max_sta: u64,
    },
    Standing {
        db: &'db Database,
        session: &'a Session<'db>,
        max_sta: u64,
    },
    File {
        arb_path: PathBuf,
    },
    Served {
        arb_path: PathBuf,
        served: Served,
    },
}

impl Ready<'_, '_> {
    /// Tears the ready state down without measuring.
    fn discard(self) {
        if let Ready::Served { served, .. } = self {
            served.stop();
        }
    }

    /// Runs the workload's loop for `seconds` (and until it has
    /// `min_ops` operations).
    pub fn measure(
        self,
        run: &Run,
        rec: &mut Recorder,
        tally: &mut Tally,
        seconds: f64,
        min_ops: u64,
    ) -> Measured {
        match self {
            Ready::Sessions {
                db,
                sessions,
                max_sta,
            } => warm_loop(run, rec, tally, db, sessions, max_sta, seconds, min_ops),
            Ready::Standing {
                db,
                session,
                max_sta,
            } => update_loop(run, rec, tally, db, session, max_sta, seconds, min_ops),
            Ready::File { arb_path } => cold_loop(run, rec, tally, &arb_path, seconds, min_ops),
            Ready::Served { arb_path, served } => {
                let total =
                    ((run.scale.serve_rate * seconds).round() as usize).max(min_ops as usize);
                let mut m = serve_pass(run, rec, tally, &served, run.scale.serve_rate, total);
                served.stop();
                // Neither the CLI nor the server reports `.sta` sizes.
                m.disk_bytes = db_bytes(&arb_path) + pool_sta_bytes(run, &arb_path);
                m
            }
        }
    }
}

/// Fewest operations a loop measures: enough whole cycles that the
/// [`KEPT`] smallest of its [`SEGMENTS`] hold [`stats::MIN_SAMPLES`].
pub fn min_ops(run: &Run) -> u64 {
    let per_cycle = match run.w.kind {
        Loop::ServeOpen => return run.scale.serve_min_requests as u64,
        Loop::UpdateStanding => inputs::EDITS_PER_CYCLE,
        _ => run.inputs.pool.len() as u64,
    };
    let per_segment = (stats::MIN_SAMPLES as u64).div_ceil(KEPT as u64 * per_cycle);
    SEGMENTS as u64 * per_segment * per_cycle
}

#[allow(clippy::too_many_arguments)]
fn warm_loop(
    run: &Run,
    rec: &mut Recorder,
    tally: &mut Tally,
    db: &Database,
    sessions: &[Session<'_>],
    mut max_sta: u64,
    seconds: f64,
    min_ops: u64,
) -> Measured {
    let mut lat_ms = Vec::new();
    let mut window = Window::open(None);
    let mut op = 0u64;
    // Whole cycles only, so every pool query weighs the same.
    while window.elapsed_s() < seconds || op < min_ops {
        for (i, session) in sessions.iter().enumerate() {
            let (out, d) = rec.span("op", op, |rec| {
                rec.time("engine.eval", op, || eval_count(session)).0
            });
            op += 1;
            match out {
                Ok((count, sta)) => {
                    max_sta = max_sta.max(sta);
                    lat_ms.push(ms(d));
                    tally.answered(count == run.expected[i].count, || {
                        format!("{:?} selected {count}", run.inputs.pool[i].text)
                    });
                }
                Err(e) => tally.errored(e),
            }
        }
        window.mark(lat_ms.len(), tally.succeeded());
    }
    let disk = db.as_disk().expect("a disk database");
    Measured {
        lat_ms,
        marks: window.marks,
        disk_bytes: db_bytes(disk.path()) + max_sta,
        nodes: db.node_count(),
        serve: None,
    }
}

/// The largest `.sta` stream one evaluation of a pool query writes on
/// the database at `arb_path`, found by evaluating the pool in process
/// (the CLI and the server do not report it).
fn pool_sta_bytes(run: &Run, arb_path: &Path) -> u64 {
    let mut db = Database::open_arb(arb_path).expect("open the database");
    let queries: Vec<Query> = run
        .inputs
        .pool
        .iter()
        .map(|q| compile(&mut db, q))
        .collect();
    queries
        .iter()
        .map(|q| {
            eval_count(&db.prepare(std::slice::from_ref(q)))
                .expect("evaluation")
                .1
        })
        .max()
        .unwrap_or(0)
}

fn cold_loop(
    run: &Run,
    rec: &mut Recorder,
    tally: &mut Tally,
    arb_path: &Path,
    seconds: f64,
    min_ops: u64,
) -> Measured {
    let mut lat_ms = Vec::new();
    let mut window = Window::open(None);
    let mut op = 0u64;
    while window.elapsed_s() < seconds || op < min_ops {
        for (i, q) in run.inputs.pool.iter().enumerate() {
            let (out, d) = rec.span("op", op, |rec| {
                rec.time("cli.query", op, || {
                    proc::arb_query_count(&run.arb, arb_path, q.cli_flag(), &q.text)
                })
                .0
            });
            op += 1;
            match out {
                Ok(count) => {
                    lat_ms.push(ms(d));
                    tally.answered(count == run.expected[i].count, || {
                        format!("arb query {:?} printed {count}", q.text)
                    });
                }
                Err(e) => tally.errored(e),
            }
        }
        window.mark(lat_ms.len(), tally.succeeded());
    }
    Measured {
        lat_ms,
        marks: window.marks,
        disk_bytes: db_bytes(arb_path) + pool_sta_bytes(run, arb_path),
        nodes: run.nodes(),
        serve: None,
    }
}

/// One open-loop pass against a warm server: `total` arrivals at `rate`
/// per second over two connections, each timed from its due time.
pub fn serve_pass(
    run: &Run,
    rec: &mut Recorder,
    tally: &mut Tally,
    served: &Served,
    rate: f64,
    total: usize,
) -> Measured {
    let arrivals = inputs::schedule(
        run.seed,
        rate,
        total,
        run.inputs.pool.len(),
        run.inputs.fresh.len(),
        run.inputs.partner,
    );
    // The oracle of the never-seen texts this pass will send.
    let fresh_used = arrivals
        .iter()
        .filter(|a| matches!(a.query, Ask::Fresh(_)))
        .count();
    let fresh_expected: Vec<Expected> = (0..fresh_used).map(|i| run.expect_fresh(i)).collect();

    let mut probe = served.connect();
    let before = probe.server_stats().expect("server stats");
    let start = Instant::now() + Duration::from_millis(50);
    let traced = rec.is_on().then(|| rec.origin());

    struct ConnOut {
        /// `(index in the schedule, latency, whether the answer was right)`
        /// of every answered request.
        lat_ms: Vec<(usize, f64, bool)>,
        lag_ms: Vec<f64>,
        batch: Vec<f64>,
        wait_us: Vec<f64>,
        tally: Tally,
        rec: Recorder,
    }
    let (outs, mut marks) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|conn| {
                let (arrivals, fresh_expected) = (&arrivals, &fresh_expected);
                scope.spawn(move || {
                    let mut client = served.connect();
                    let mut out = ConnOut {
                        lat_ms: Vec::new(),
                        lag_ms: Vec::new(),
                        batch: Vec::new(),
                        wait_us: Vec::new(),
                        tally: Tally::default(),
                        rec: traced.map_or_else(Recorder::off, Recorder::on),
                    };
                    for (op, a) in arrivals.iter().enumerate().filter(|(_, a)| a.conn == conn) {
                        let due = start + Duration::from_secs_f64(a.due_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let (q, want) = match a.query {
                            Ask::Pool(i) => (&run.inputs.pool[i], run.expected[i]),
                            Ask::Fresh(i) => (&run.inputs.fresh[i], fresh_expected[i]),
                        };
                        out.lag_ms.push(ms(due.elapsed()));
                        let (reply, _) = out.rec.span("op", op as u64, |rec| {
                            rec.time("client.query", op as u64, || {
                                ask(&mut client, &served.db_name, q, want, &mut out.tally)
                            })
                            .0
                        });
                        // Open loop: the clock of a request starts when it was due.
                        if let Some(answer) = reply {
                            out.lat_ms.push((op, ms(due.elapsed()), answer.right));
                            out.batch.push(answer.batch_size);
                            out.wait_us.push(answer.queue_wait_us);
                        }
                    }
                    out
                })
            })
            .collect();
        // Meanwhile this thread marks the window: its start, the moment
        // the first arrival of each later segment falls due (the marks
        // hold indices into the schedule until the replies are in), and
        // the last reply.
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let mut window = Window::open(Some(served.server.pid()));
        for k in 1..SEGMENTS {
            let first = k * arrivals.len() / SEGMENTS;
            let due = start + Duration::from_secs_f64(arrivals[first].due_s);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            window.mark(first, 0);
        }
        let outs: Vec<ConnOut> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect();
        window.mark(arrivals.len(), 0);
        (outs, window.marks)
    });
    let after = probe.server_stats().expect("server stats");

    let mut detail = ServeDetail {
        lag_ms: Vec::new(),
        batch_sizes: Vec::new(),
        queue_wait_us: Vec::new(),
        before,
        after,
    };
    let mut answered = Vec::new();
    for out in outs {
        answered.extend(out.lat_ms);
        detail.lag_ms.extend(out.lag_ms);
        detail.batch_sizes.extend(out.batch);
        detail.queue_wait_us.extend(out.wait_us);
        tally.absorb(out.tally);
        rec.absorb(out.rec);
    }
    // In the order they were due: a segment holds the requests due in it,
    // so a shed or wrongly answered request lowers its rate, and so does
    // a backlog the last one ends with.
    answered.sort_unstable_by_key(|(op, _, _)| *op);
    for mark in &mut marks {
        mark.answered = answered.partition_point(|(op, _, _)| *op < mark.answered);
        mark.correct = answered[..mark.answered]
            .iter()
            .filter(|(_, _, right)| *right)
            .count() as u64;
    }
    let lat_ms: Vec<f64> = answered.into_iter().map(|(_, lat, _)| lat).collect();
    Measured {
        lat_ms,
        marks,
        disk_bytes: 0,
        nodes: run.nodes(),
        serve: Some(detail),
    }
}

/// The per-query node sets of one full evaluation, and the `.sta` bytes
/// it wrote.
fn full_sets(session: &Session<'_>) -> (Vec<NodeSet>, u64) {
    let mut sink = NodeSetSink::default();
    let report = session
        .eval(&EvalRequest::new(), &mut sink)
        .expect("full evaluation");
    let sta = report.batch.map_or(0, |b| b.stats.sta_encoded_bytes);
    (sink.into_sets(), sta)
}

fn to_sorted(set: &NodeSet) -> Vec<u32> {
    set.iter().map(|v| v.0).collect()
}

/// Whether a full evaluation selects exactly the delta-accumulated sets;
/// raises `max_sta` to the `.sta` bytes it wrote.
fn full_agrees(session: &Session<'_>, acc: &[Vec<u32>], max_sta: &mut u64) -> bool {
    let (full, sta) = full_sets(session);
    *max_sta = (*max_sta).max(sta);
    full.iter().map(to_sorted).eq(acc.iter().cloned())
}

/// Carries a result set over one edit the way a holder of deltas must:
/// drop the removed window, shift what lies behind it, then apply the
/// delta lists. False if a delta removes an absent or adds a present
/// node.
pub fn apply_delta(acc: &mut Vec<u32>, edit: &Edit, delta: &QueryDelta) -> bool {
    let end = edit.pos + edit.removed;
    acc.retain(|&x| x < edit.pos || x >= end);
    let shift = edit.inserted as i64 - edit.removed as i64;
    if shift != 0 {
        for x in acc.iter_mut().filter(|x| **x >= end) {
            *x = (*x as i64 + shift) as u32;
        }
    }
    let mut consistent = true;
    for r in &delta.removed {
        match acc.binary_search(r) {
            Ok(i) => {
                acc.remove(i);
            }
            Err(_) => consistent = false,
        }
    }
    for a in &delta.added {
        match acc.binary_search(a) {
            Err(i) => acc.insert(i, *a),
            Ok(_) => consistent = false,
        }
    }
    consistent
}

#[allow(clippy::too_many_arguments)]
fn update_loop(
    run: &Run,
    rec: &mut Recorder,
    tally: &mut Tally,
    db: &Database,
    session: &Session<'_>,
    mut max_sta: u64,
    seconds: f64,
    min_ops: u64,
) -> Measured {
    let mut script = EditScript::new(&run.inputs, run.seed);
    let (sets, _) = full_sets(session);
    let mut acc: Vec<Vec<u32>> = sets.iter().map(to_sorted).collect();
    for (q, set) in run.inputs.standing.iter().zip(&sets) {
        let want = oracle::expect(q, &run.inputs.doc.tree, &run.inputs.doc.labels);
        if Expected::of_set(set) != want {
            tally.mismatch(|| format!("standing {:?} before any edit", q.text));
        }
    }

    let mut lat_ms = Vec::new();
    let mut window = Window::open(None);
    let mut op = 0u64;
    let mut broken = false;
    // Whole splice / append / delete cycles only.
    while !broken && (window.elapsed_s() < seconds || op < min_ops) {
        for _ in 0..inputs::EDITS_PER_CYCLE {
            let edit = script.next_edit();
            let (out, d) = rec.span("op", op, |rec| {
                rec.time("engine.refresh", op, || session.refresh(&edit.update))
                    .0
            });
            op += 1;
            let report = match out {
                Ok(report) => report,
                Err(e) => {
                    // The document and the script's mirror have parted.
                    tally.errored(e);
                    broken = true;
                    break;
                }
            };
            lat_ms.push(ms(d));
            let plan = report.plan;
            let mut right = (plan.pos, plan.removed, plan.inserted)
                == (edit.pos, edit.removed, edit.inserted)
                && report.deltas.len() == acc.len();
            if right {
                for ((set, delta), outcome) in acc
                    .iter_mut()
                    .zip(&report.deltas)
                    .zip(&report.batch.outcomes)
                {
                    right &= apply_delta(set, &edit, delta);
                    right &= set.len() as u64 == outcome.stats.selected;
                }
            }
            tally.answered(right, || format!("refresh {op}: {:?}", edit.update));
            if op.is_multiple_of(VERIFY_EVERY) {
                window.pause(|| {
                    if !full_agrees(session, &acc, &mut max_sta) {
                        tally.mismatch(|| format!("deltas up to refresh {op} vs full evaluation"));
                    }
                });
            }
        }
        window.mark(lat_ms.len(), tally.succeeded());
    }

    if !broken {
        if !full_agrees(session, &acc, &mut max_sta) {
            tally.mismatch(|| "final deltas vs full evaluation".to_string());
        }
        // The independent check: the oracle on the script's own mirror
        // of the edited document.
        let tree = arb_storage::records_to_tree(script.records()).expect("mirror is a tree");
        for (q, set) in run.inputs.standing.iter().zip(&acc) {
            let want = oracle::expect(q, &tree, script.labels());
            if Expected::of_nodes(set.iter().copied()) != want {
                tally.mismatch(|| format!("standing {:?} after {op} edits vs the oracle", q.text));
            }
        }
    }
    let disk = db.as_disk().expect("a disk database");
    Measured {
        lat_ms,
        marks: window.marks,
        disk_bytes: db_bytes(disk.path()) + max_sta,
        nodes: db.node_count(),
        serve: None,
    }
}

/// The six end-to-end metrics of one run.
pub struct EndToEnd {
    pub tally: Tally,
    /// `(name, value)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Sets up [`SETUP_REPS`] times on fresh files, measures on the last,
/// and derives the end-to-end metrics. Tracing is off throughout.
pub fn end_to_end(run: &Run, seconds: f64) -> Result<EndToEnd, String> {
    let mut rec = Recorder::off();
    let mut setups = Vec::new();
    let mut measured = None;
    let mut tally = Tally::default();
    let (started, stolen) = (Instant::now(), proc::stolen_s());
    for rep in 0..SETUP_REPS {
        let dir = run
            .scratch
            .subdir(&format!("setup-{rep}"))
            .map_err(|e| e.to_string())?;
        let last = rep + 1 == SETUP_REPS;
        let (setup_s, m) = set_up_and(run, &dir, &mut rec, &mut tally, |rec, tally, ready| {
            if last {
                Some(ready.measure(run, rec, tally, seconds, min_ops(run)))
            } else {
                ready.discard();
                None
            }
        });
        setups.push(setup_s);
        measured = m;
        if !last {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let m = measured.expect("the last repetition measures");
    let stolen = proc::stolen_s() - stolen;
    if stolen > 0.02 * started.elapsed().as_secs_f64() {
        eprintln!(
            "perfbench: the host withheld {stolen:.2} s of CPU during this run; its times are inflated"
        );
    }
    // Every time metric comes from the same operations: those of the
    // kept segments, pooled.
    let kept = m.kept();
    let pooled: Vec<f64> = kept.iter().flat_map(|s| s.lat_ms).copied().collect();
    let (p50, p95) = stats::p50_p95(&pooled)?;
    let sum = |f: fn(&Segment<'_>) -> f64| kept.iter().map(f).sum::<f64>();
    Ok(EndToEnd {
        tally,
        metrics: vec![
            ("op_p50_ms", p50),
            ("op_p95_ms", p95),
            ("ops_per_s", sum(|s| s.correct as f64) / sum(|s| s.wall_s)),
            (
                "cpu_ms_per_op",
                sum(|s| s.cpu_s) * 1e3 / pooled.len() as f64,
            ),
            ("disk_bytes_per_node", m.disk_bytes as f64 / m.nodes as f64),
            ("setup_s", stats::median(&setups)),
        ],
    })
}

/// `--capacity`: the closed-loop throughput of two connections on
/// `serve_open`'s inputs — the measurement the committed offered rate
/// is 40 % of. Each connection sends its next request as soon as the
/// last one is answered, through the same mix of pool and never-seen
/// texts the open loop offers.
pub fn capacity(scale: Scale, seed: u64, seconds: f64) -> Result<(), String> {
    let w = inputs::workload("serve_open").expect("serve_open is a workload");
    let run = Run::prepare(w, scale, seed).map_err(|e| e.to_string())?;
    let dir = run.scratch.subdir("capacity").map_err(|e| e.to_string())?;
    let mut rec = Recorder::off();
    let mut tally = Tally::default();
    let arb_path = create_db(&run, &dir, &mut rec);
    let served = Served::start(&run, &arb_path, &mut rec);
    served.warm(&run, &mut rec, &mut tally);

    // Oracle answers first: the connections must not evaluate while
    // they load the server.
    let asks = inputs::schedule(
        seed,
        1.0,
        2000,
        run.inputs.pool.len(),
        run.inputs.fresh.len(),
        run.inputs.partner,
    );
    let fresh_expected: Vec<Expected> = (0..asks.len() / 20).map(|i| run.expect_fresh(i)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let start = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = served.connect();
                    let mut tally = Tally::default();
                    while start.elapsed().as_secs_f64() < seconds {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let (q, want) = match asks[i % asks.len()].query {
                            Ask::Pool(i) => (&run.inputs.pool[i], run.expected[i]),
                            Ask::Fresh(i) => (&run.inputs.fresh[i], fresh_expected[i]),
                        };
                        ask(&mut client, &served.db_name, q, want, &mut tally);
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    served.stop();
    for t in tallies {
        tally.absorb(t);
    }
    let per_s = tally.succeeded() as f64 / wall;
    println!(
        "closed loop, 2 connections: {} requests in {wall:.2} s = {per_s:.1}/s ({} failed); 40 % = {:.1}/s",
        tally.attempted,
        tally.failed,
        0.4 * per_s
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window of `cycles` cycles of two operations, each taking
    /// `lat(cycle)` ms, every answer right.
    fn window(cycles: usize, lat: impl Fn(usize) -> f64) -> Measured {
        let mut m = Measured {
            lat_ms: Vec::new(),
            marks: vec![Mark::default()],
            disk_bytes: 0,
            nodes: 1,
            serve: None,
        };
        let mut wall_s = 0.0;
        for c in 0..cycles {
            m.lat_ms.extend([lat(c); 2]);
            wall_s += 2.0 * lat(c) / 1e3;
            m.marks.push(Mark {
                answered: m.lat_ms.len(),
                correct: m.lat_ms.len() as u64,
                wall_s,
                cpu_s: wall_s,
            });
        }
        m
    }

    #[test]
    fn the_fastest_segments_are_kept_whole() {
        // 50 cycles: the second and the fourth fifth ran three times slower.
        let m = window(50, |c| if (c / 10) % 2 == 1 { 30.0 } else { 10.0 });
        let kept = m.kept();
        assert_eq!(kept.len(), KEPT);
        for s in &kept {
            assert_eq!(s.lat_ms, [10.0; 20]);
            assert_eq!(s.correct, 20);
            assert!((s.wall_s - 0.2).abs() < 1e-9 && (s.cpu_s - 0.2).abs() < 1e-9);
        }
        // Cycles that do not divide evenly: segments differ by one cycle
        // and none is lost.
        let m = window(13, |_| 10.0);
        let sizes: Vec<usize> = m.kept().iter().map(|s| s.lat_ms.len()).collect();
        assert!(sizes.iter().all(|n| *n == 4 || *n == 6), "{sizes:?}");
        // Fewer cycles than segments: the empty ones are not kept.
        assert_eq!(window(2, |_| 10.0).kept().len(), 2);
    }

    #[test]
    fn the_fewest_operations_fill_the_kept_segments() {
        for w in &inputs::WORKLOADS {
            let run = Run::prepare(w, inputs::tests::TINY, 1).unwrap();
            let fewest = min_ops(&run) as usize;
            assert!(fewest / SEGMENTS * KEPT >= stats::MIN_SAMPLES, "{}", w.name);
        }
    }
}
