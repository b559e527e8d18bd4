//! The five workloads and everything `--seed` draws for them: document
//! content, the order of the query pool, the never-seen query texts,
//! the arrival schedule and the edit script. The seed never changes a
//! document's size, a pool's members or the offered rate, so runs with
//! different seeds are comparable.

use crate::stats::Rng;
use arb_datagen::queries::{RandomPathQuery, R_INFIX};
use arb_datagen::{acgt, treebank_tree, RegexShape, TreebankConfig};
use arb_engine::DocUpdate;
use arb_storage::NodeRecord;
use arb_tree::{BinaryTree, LabelId, LabelTable, NodeId};

/// How large the inputs are. [`Scale::FULL`] is what the benchmark
/// runs; the unit tests shrink it to drive every workload in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Nodes of the treebank the warm and update workloads use: the
    /// size the other benches' 100 000-element treebank comes to.
    pub treebank_large: usize,
    /// Nodes of the treebank the process-per-query and server workloads
    /// use: half the scan work, so per-process and per-request fixed
    /// costs are a visible share of an operation.
    pub treebank_small: usize,
    /// ACGT-infix holds `2^log2 - 1` symbols below its root.
    pub acgt_log2: u32,
    /// Offered rate of `serve_open`, requests per second.
    pub serve_rate: f64,
    /// Fewest requests one `serve_open` run offers.
    pub serve_min_requests: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        treebank_large: 424_000,
        treebank_small: 212_000,
        acgt_log2: 19,
        serve_rate: SERVE_RATE,
        serve_min_requests: 400,
    };
}

/// The committed offered rate of `serve_open`: 40 % of the 2-connection
/// closed-loop capacity measured on the commit that added the benchmark
/// (`--capacity`; see README.md), rounded down.
pub const SERVE_RATE: f64 = 31.0;

/// Filler tags of the synthetic treebank (`T0` .. `T245`), as in the
/// paper's 251-tag corpus.
pub const FILLER_TAGS: usize = 246;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Treebank,
    Acgt,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loop {
    /// `Session::eval` with a `CountSink`, warm automata, closed loop.
    Warm,
    /// One `arb query` process per operation, closed loop.
    ColdCli,
    /// `Client::query` against `arb serve`, open loop at a fixed rate.
    ServeOpen,
    /// `Session::refresh` of standing queries, closed loop.
    UpdateStanding,
}

/// One workload: a name later issues cite, why it exists, its document
/// and its loop.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub family: Family,
    /// Uses the small treebank (ignored for ACGT).
    pub small: bool,
    pub kind: Loop,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "warm_treebank",
        why: "small automata and warm tables, so record decode, delta probe and .sta codec are nearly all of the time: where one-kernel, scan-speed and block-skipping work must show",
        family: Family::Treebank,
        small: false,
        kind: Loop::Warm,
    },
    Workload {
        name: "warm_acgt",
        why: "hundreds of bottom-up states over 4 labels: delta tables, interner and an incompressible .sta stream dominate while block decode is trivial, so a decode-only change predicts no move here",
        family: Family::Acgt,
        small: false,
        kind: Loop::Warm,
    },
    Workload {
        name: "cold_cli",
        why: "process start, open, .lab load, compile, automata build and all-miss lazy delta are paid on every operation and bypassed entirely by the warm workloads (the OS page cache is warm)",
        family: Family::Treebank,
        small: true,
        kind: Loop::ColdCli,
    },
    Workload {
        name: "serve_open",
        why: "the only workload through wire codec, thread hand-off, admission batcher and both caches: p50 is the cache-hit path, p95 the middle of the 10 % that meet a never-seen query text",
        family: Family::Treebank,
        small: true,
        kind: Loop::ServeOpen,
    },
    Workload {
        name: "update_standing",
        why: "writes beside reads on the same storage and .sta layers: a read-side change that makes block rewrite or .sta rewrite dearer shows here; p95 is edits near the file start",
        family: Family::Treebank,
        small: false,
        kind: Loop::UpdateStanding,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lang {
    XPath,
    Tmnf,
}

/// One query text of a pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    pub lang: Lang,
    pub text: String,
    /// Asked for as a node set (not a count) by `serve_open`.
    pub nodes: bool,
}

impl QuerySpec {
    fn new(lang: Lang, text: impl Into<String>, nodes: bool) -> Self {
        QuerySpec {
            lang,
            text: text.into(),
            nodes,
        }
    }

    /// The `arb query` flag that takes this text.
    pub fn cli_flag(&self) -> &'static str {
        match self.lang {
            Lang::XPath => "--xpath",
            Lang::Tmnf => "--tmnf",
        }
    }
}

/// The selective TMNF program of the treebank pool: phrases with a
/// rare-tag child (one of five filler tags) and a `VP` or a `PP` child,
/// ~250 of 424k nodes. Two upward conditions in conjunction cost a
/// couple of hundred automaton states, so filling its lazy tables takes
/// ~15 ms: as a fresh process it lands between the pool's four cheap
/// and three dear queries, which puts the median `cold_cli` operation
/// inside a cluster and not on the tail of the cheap four.
const SELECTIVE_TMNF: &str = "\
Fill :- V.Label[T1]; Fill :- V.Label[T3]; Fill :- V.Label[T5]; \
Fill :- V.Label[T7]; Fill :- V.Label[T9]; \
Has :- Fill.invNextSibling*.invFirstChild; \
HasVP :- V.Label[VP].invNextSibling*.invFirstChild; \
HasPP :- V.Label[PP].invNextSibling*.invFirstChild; \
QUERY :- Has, HasVP; QUERY :- Has, HasPP;";

/// The treebank pool: the five XPaths of the `baseline` bench, `//PP`,
/// and [`SELECTIVE_TMNF`]. Seven entries: an odd pool puts the median
/// operation inside the fourth query's cluster, not between two. Two
/// are asked for as node sets by `serve_open`.
fn treebank_pool() -> Vec<QuerySpec> {
    vec![
        QuerySpec::new(Lang::XPath, "//NP//VP", false),
        QuerySpec::new(Lang::XPath, "//S[NP and VP]", true),
        QuerySpec::new(Lang::XPath, "//NP[not(PP)]/VP", false),
        QuerySpec::new(Lang::XPath, "//VP/following-sibling::NP", true),
        QuerySpec::new(Lang::XPath, "//S//NP[not(.//PP)]", false),
        QuerySpec::new(Lang::XPath, "//PP", false),
        QuerySpec::new(Lang::Tmnf, SELECTIVE_TMNF, false),
    ]
}

/// `(size, seed)` of the seven pinned `w1.w2*.w3` path queries of the
/// ACGT pool, walked with the infix caterpillar. `(7, 5)` is the query
/// `regress` pins at 255 bottom-up states on its 2^14-symbol sequence;
/// on 2^19 - 1 symbols the pool reaches a few hundred states over 9
/// schema symbols.
const ACGT_POOL: [(usize, u64); 7] = [(5, 1), (5, 2), (5, 4), (5, 7), (6, 2), (6, 4), (7, 5)];

fn acgt_query(size: usize, seed: u64) -> QuerySpec {
    let q = RandomPathQuery::batch(1, size, &["A", "C", "G", "T"], RegexShape::Tags, seed)
        .pop()
        .expect("one query");
    QuerySpec::new(Lang::Tmnf, q.to_program(R_INFIX), false)
}

/// A synthetic treebank of exactly `nodes` nodes. The generator stops
/// at the end of the sentence that crosses its element target, and a
/// sentence is a twentieth of the document, so its size swings by a
/// tenth with the seed; this cuts the generated document off after
/// `nodes` nodes in document order (open elements are closed there), so
/// that the seed draws the content and never the size.
fn treebank_of(nodes: usize, seed: u64, labels: &mut LabelTable) -> BinaryTree {
    // A little over 4.1 nodes per element: a target of nodes / 4
    // elements always generates enough.
    let full = treebank_tree(
        &TreebankConfig {
            target_elems: nodes / 4,
            seed,
            filler_tags: FILLER_TAGS,
        },
        labels,
    );
    assert!(
        full.len() >= nodes,
        "the generator fell short of {nodes} nodes"
    );
    let kept = |child: Option<NodeId>| child.is_some_and(|c| c.ix() < nodes);
    let records: Vec<NodeRecord> = (0..nodes as u32)
        .map(|ix| {
            let v = NodeId(ix);
            NodeRecord {
                label: full.label(v),
                has_first: kept(full.first_child(v)),
                has_second: kept(full.second_child(v)),
            }
        })
        .collect();
    arb_storage::records_to_tree(&records).expect("a preorder prefix is a tree")
}

/// The generated document: the tree and label table it was drawn as
/// (the oracle's view) and its XML text (the program's input).
pub struct Doc {
    pub tree: BinaryTree,
    pub labels: LabelTable,
    pub xml: Vec<u8>,
}

/// Everything one run feeds the program.
pub struct Inputs {
    pub doc: Doc,
    /// The pool in this seed's order; loops cycle through it.
    pub pool: Vec<QuerySpec>,
    /// The standing queries of `update_standing` (and of the update
    /// probes): the first two of the unshuffled pool.
    pub standing: Vec<QuerySpec>,
    /// Query texts no run has sent before, for `serve_open`'s cache
    /// misses: drawn from the filler tags so their oracle is cheap.
    pub fresh: Vec<QuerySpec>,
    /// The pool query (its index in `pool`) every never-seen text
    /// arrives together with: always the same one, so every miss costs
    /// the same merge and fill.
    pub partner: usize,
    /// Tags a same-shape splice relabels among, and the fragment an
    /// append adds.
    pub relabel: Vec<&'static str>,
    pub append_xml: &'static str,
}

pub fn generate(w: &Workload, scale: &Scale, seed: u64) -> Inputs {
    let mut labels = LabelTable::new();
    let (tree, mut pool, fresh, relabel, append_xml) = match w.family {
        Family::Treebank => {
            let nodes = if w.small {
                scale.treebank_small
            } else {
                scale.treebank_large
            };
            let tree = treebank_of(nodes, seed, &mut labels);
            let mut tags: Vec<usize> = (0..FILLER_TAGS).collect();
            Rng::new(seed, 2).shuffle(&mut tags);
            let fresh = tags
                .iter()
                .map(|t| QuerySpec::new(Lang::XPath, format!("//T{t}"), false))
                .collect();
            (
                tree,
                treebank_pool(),
                fresh,
                vec!["NP", "VP", "PP"],
                "<S><NP>the</NP><VP><PP>a</PP></VP></S>",
            )
        }
        Family::Acgt => {
            let seq = acgt::random_acgt(scale.acgt_log2, seed);
            let tree = acgt::acgt_infix_tree(&seq, &mut labels);
            let pool = ACGT_POOL.iter().map(|&(s, q)| acgt_query(s, q)).collect();
            // Only the per-layer server probe sends these here.
            let fresh = (0..64).map(|i| acgt_query(3, 1000 + i)).collect();
            (
                tree,
                pool,
                fresh,
                vec!["A", "C", "G", "T"],
                "<A><C/><G/></A>",
            )
        }
    };
    let mut xml = Vec::with_capacity(tree.len() * 4);
    arb_xml::write_tree(&tree, &labels, &mut xml).expect("writing to memory");
    let standing = pool[..2].to_vec();
    Rng::new(seed, 1).shuffle(&mut pool);
    let partner = pool
        .iter()
        .position(|q| *q == standing[1])
        .expect("the partner is a pool query");
    Inputs {
        doc: Doc { tree, labels, xml },
        pool,
        standing,
        fresh,
        partner,
        relabel,
        append_xml,
    }
}

/// One arrival of the open loop: when it is due, on which of the two
/// connections, and what it asks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub conn: usize,
    pub query: Ask,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ask {
    Pool(usize),
    Fresh(usize),
}

/// One event of the open loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    /// One pool query, on alternating connections.
    Single,
    /// Two consecutive pool queries at the same instant, one on each
    /// connection; the admission window merges them into one scan pair.
    Pair,
    /// A never-seen text and the pool's partner query at the same
    /// instant: a program-cache miss and a window shape the server has
    /// not seen (merge, automata build, table fill).
    Miss,
}

/// The events of one block of 20 arrivals, before the seed orders them:
/// 12 singles (60 % of arrivals), 3 pairs (30 %) and 1 miss (10 %).
/// Fixed shares keep the classes' sizes, and so the percentiles' places
/// in them, the same in every run: the median falls inside the singles
/// (not on their border with the pairs, where an even split would put
/// it) and p95 on the middle of the miss class.
const BLOCK: [Event; 16] = {
    let mut block = [Event::Single; 16];
    block[12] = Event::Pair;
    block[13] = Event::Pair;
    block[14] = Event::Pair;
    block[15] = Event::Miss;
    block
};

/// The open-loop schedule: at least `total` arrivals at `rate` per
/// second, in blocks of [`BLOCK`] shuffled by the seed, with gaps
/// jittered uniformly by +-50 %. Pool queries are asked in pool order,
/// so every one is asked equally often and a pair is always two
/// neighbours of that order: `pool` pair shapes in all, which set-up
/// warms.
pub fn schedule(
    seed: u64,
    rate: f64,
    total: usize,
    pool: usize,
    fresh: usize,
    partner: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 3);
    let mean_gap = 20.0 / (BLOCK.len() as f64 * rate);
    let mut out = Vec::with_capacity(total + 20);
    let (mut t, mut singles, mut next_pool, mut next_fresh) = (0.0f64, 0usize, 0usize, 0usize);
    let mut next = |count: usize| {
        next_pool += count;
        next_pool - count
    };
    while out.len() < total {
        let mut block = BLOCK;
        rng.shuffle(&mut block);
        for event in block {
            t += mean_gap * (0.5 + rng.unit());
            let mut arrive = |conn: usize, query: Ask| {
                out.push(Arrival {
                    due_s: t,
                    conn,
                    query,
                })
            };
            match event {
                Event::Miss if next_fresh < fresh => {
                    next_fresh += 1;
                    arrive(0, Ask::Fresh(next_fresh - 1));
                    arrive(1, Ask::Pool(partner));
                }
                Event::Single => {
                    singles += 1;
                    arrive(singles % 2, Ask::Pool(next(1) % pool));
                }
                // Out of never-seen texts, a miss degrades to a pair.
                Event::Pair | Event::Miss => {
                    let first = next(2);
                    arrive(0, Ask::Pool(first % pool));
                    arrive(1, Ask::Pool((first + 1) % pool));
                }
            }
        }
    }
    out
}

/// One generated edit: the update the program is given, and the window
/// the harness expects it to report (`pos`, `removed`, `inserted`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    pub update: DocUpdate,
    pub pos: u32,
    pub removed: u32,
    pub inserted: u32,
}

/// The seeded edit script: a cycle of splice (a same-shape fragment
/// with its tags redrawn, so results change and the node count does
/// not), append, and delete-that-append, at uniformly drawn element
/// nodes. It keeps a mirror of the document's record stream to know
/// what is where after each edit; the mirror is also the update
/// oracle's document.
pub struct EditScript {
    rng: Rng,
    records: Vec<NodeRecord>,
    labels: LabelTable,
    relabel: Vec<LabelId>,
    append: Vec<NodeRecord>,
    append_xml: &'static str,
    step: u64,
    /// Where the last append went, and the record (with which of its
    /// child flags) that now points at it.
    last_append: u32,
    last_flag: (u32, bool),
}

/// Edits in one cycle of the script: splice, append, delete-that-append.
pub const EDITS_PER_CYCLE: u64 = 3;

/// Largest subtree a splice replaces; a draw above it moves down into
/// the subtree, so fragment size never dominates an edit's cost.
const MAX_SPLICE_NODES: u32 = 64;

impl EditScript {
    pub fn new(inputs: &Inputs, seed: u64) -> Self {
        let Doc { tree, labels, .. } = &inputs.doc;
        let mut labels = labels.clone();
        let append_tree =
            arb_xml::str_to_tree(inputs.append_xml, &mut labels).expect("append fragment parses");
        EditScript {
            rng: Rng::new(seed, 4),
            records: tree_records(tree),
            relabel: inputs
                .relabel
                .iter()
                .map(|t| labels.intern(t).expect("label space"))
                .collect(),
            labels,
            append: tree_records(&append_tree),
            append_xml: inputs.append_xml,
            step: 0,
            last_append: 0,
            last_flag: (0, false),
        }
    }

    /// The mirrored document after the edits drawn so far.
    pub fn records(&self) -> &[NodeRecord] {
        &self.records
    }

    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// End (exclusive) of the unranked subtree rooted at `v`: `v` and
    /// everything below it, without its following siblings.
    fn subtree_end(&self, v: u32) -> u32 {
        let mut need = self.records[v as usize].has_first as u32;
        let mut ix = v + 1;
        while need > 0 {
            let r = self.records[ix as usize];
            need = need - 1 + r.has_first as u32 + r.has_second as u32;
            ix += 1;
        }
        ix
    }

    /// The first element node at or after `v` that is not the root
    /// (wrapping at the end of the document).
    fn element_from(&self, mut v: u32) -> u32 {
        let n = self.records.len() as u32;
        while v >= n || v == 0 || self.records[v as usize].label.is_text() {
            v = if v + 1 >= n { 1 } else { v + 1 };
        }
        v
    }

    /// A uniformly drawn position, moved forward to an element node.
    fn draw_element(&mut self) -> u32 {
        let n = self.records.len() as u64;
        let v = 1 + self.rng.below(n - 1) as u32;
        self.element_from(v)
    }

    /// Draws the next edit and applies it to the mirror.
    pub fn next_edit(&mut self) -> Edit {
        let phase = self.step % EDITS_PER_CYCLE;
        self.step += 1;
        match phase {
            0 => {
                let mut at = self.draw_element();
                let mut end = self.subtree_end(at);
                while end - at > MAX_SPLICE_NODES {
                    at = self.element_from(at + 1);
                    end = self.subtree_end(at);
                }
                for ix in at..end {
                    if self.relabel.contains(&self.records[ix as usize].label) {
                        let pick = self.rng.below(self.relabel.len() as u64) as usize;
                        self.records[ix as usize].label = self.relabel[pick];
                    }
                }
                Edit {
                    update: DocUpdate::SpliceSubtree {
                        at,
                        xml: self.subtree_xml(at, end),
                    },
                    pos: at,
                    removed: end - at,
                    inserted: end - at,
                }
            }
            1 => {
                let under = self.draw_element();
                let pos = self.subtree_end(under);
                // The new last child hangs off `under` itself or off its
                // current last child.
                if self.records[under as usize].has_first {
                    let mut child = under + 1;
                    while self.records[child as usize].has_second {
                        child = self.subtree_end(child);
                    }
                    self.records[child as usize].has_second = true;
                    self.last_flag = (child, false);
                } else {
                    self.records[under as usize].has_first = true;
                    self.last_flag = (under, true);
                }
                let frag = self.append.clone();
                self.records.splice(pos as usize..pos as usize, frag);
                self.last_append = pos;
                Edit {
                    update: DocUpdate::AppendChild {
                        under,
                        xml: self.append_xml.to_string(),
                    },
                    pos,
                    removed: 0,
                    inserted: self.append.len() as u32,
                }
            }
            _ => {
                let at = self.last_append;
                let end = at + self.append.len() as u32;
                // Whichever record gained a child flag for the append
                // loses it again.
                let (flagged, first) = self.last_flag;
                let r = &mut self.records[flagged as usize];
                if first {
                    r.has_first = false;
                } else {
                    r.has_second = false;
                }
                self.records.drain(at as usize..end as usize);
                Edit {
                    update: DocUpdate::DeleteSubtree { at },
                    pos: at,
                    removed: end - at,
                    inserted: 0,
                }
            }
        }
    }

    /// XML text of the unranked subtree in records `[at, end)`.
    fn subtree_xml(&self, at: u32, end: u32) -> String {
        let mut out = Vec::new();
        // Tags still open, each with whether its element has a next
        // sibling (closing it then continues that sibling chain).
        let mut open: Vec<(LabelId, bool)> = Vec::new();
        for ix in at..end {
            let r = self.records[ix as usize];
            let has_second = r.has_second && ix != at;
            if let Some(b) = r.label.text_byte() {
                arb_xml::escape_text(&[b], &mut out).expect("writing to memory");
                if !has_second {
                    close_finished(&mut out, &mut open, &self.labels);
                }
            } else {
                out.push(b'<');
                out.extend_from_slice(self.labels.name(r.label).as_bytes());
                out.push(b'>');
                open.push((r.label, has_second));
                if !r.has_first {
                    let (label, more) = open.pop().expect("just pushed");
                    close_tag(&mut out, label, &self.labels);
                    if !more {
                        close_finished(&mut out, &mut open, &self.labels);
                    }
                }
            }
        }
        debug_assert!(open.is_empty());
        String::from_utf8(out).expect("tags and escaped text are UTF-8")
    }
}

fn close_tag(out: &mut Vec<u8>, label: LabelId, labels: &LabelTable) {
    out.extend_from_slice(b"</");
    out.extend_from_slice(labels.name(label).as_bytes());
    out.push(b'>');
}

/// A sibling chain ended: closes its parent, and keeps closing while
/// the closed element was itself the last of its chain.
fn close_finished(out: &mut Vec<u8>, open: &mut Vec<(LabelId, bool)>, labels: &LabelTable) {
    while let Some((label, more)) = open.pop() {
        close_tag(out, label, labels);
        if more {
            break;
        }
    }
}

/// The preorder record stream of a tree.
pub fn tree_records(tree: &BinaryTree) -> Vec<NodeRecord> {
    tree.nodes()
        .map(|v| {
            let info = tree.info(v);
            NodeRecord {
                label: info.label,
                has_first: info.has_first,
                has_second: info.has_second,
            }
        })
        .collect()
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub const TINY: Scale = Scale {
        treebank_large: 12_000,
        treebank_small: 6_000,
        acgt_log2: 11,
        serve_rate: 400.0,
        serve_min_requests: 350,
    };

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in &WORKLOADS {
            let (a, b) = (generate(w, &TINY, 5), generate(w, &TINY, 5));
            assert_eq!(a.doc.xml, b.doc.xml, "{}", w.name);
            assert_eq!(a.pool, b.pool);
            assert_eq!(a.fresh, b.fresh);
            assert_eq!(a.partner, b.partner);
            assert_eq!(
                schedule(5, 50.0, 300, 7, 64, a.partner),
                schedule(5, 50.0, 300, 7, 64, a.partner)
            );
            let (mut ea, mut eb) = (EditScript::new(&a, 5), EditScript::new(&b, 5));
            for _ in 0..30 {
                assert_eq!(ea.next_edit(), eb.next_edit());
            }
            let c = generate(w, &TINY, 6);
            assert_ne!(
                a.doc.xml, c.doc.xml,
                "{}: the seed draws the content",
                w.name
            );
            // ... but neither the pool's members nor the document's size class.
            let sorted = |p: &[QuerySpec]| {
                let mut t: Vec<String> = p.iter().map(|q| q.text.clone()).collect();
                t.sort();
                t
            };
            assert_eq!(sorted(&a.pool), sorted(&c.pool));
            assert_eq!(a.pool.len(), 7);
            assert_eq!(a.doc.tree.len(), c.doc.tree.len());
        }
    }

    #[test]
    fn schedule_shape() {
        let s = schedule(1, 25.0, 500, 7, 246, 3);
        assert_eq!(s.len(), 500);
        let span = s.last().unwrap().due_s;
        assert!(
            (span - 20.0).abs() < 1.0,
            "500 arrivals at 25/s take ~20 s, got {span}"
        );
        assert!(s.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        // A tenth of the arrivals ride a miss: a never-seen text, each
        // once, with the partner at the same instant on the other connection.
        let fresh: Vec<usize> = s
            .iter()
            .enumerate()
            .filter_map(|(i, a)| matches!(a.query, Ask::Fresh(_)).then_some(i))
            .collect();
        assert_eq!(fresh.len(), 25);
        for (n, &i) in fresh.iter().enumerate() {
            assert_eq!(s[i].query, Ask::Fresh(n));
            assert_eq!((s[i + 1].query, s[i + 1].due_s), (Ask::Pool(3), s[i].due_s));
            assert_ne!(s[i].conn, s[i + 1].conn);
        }
        // 40 % of the arrivals come in simultaneous twos; pool pairs are
        // neighbours in pool order.
        let twos: Vec<&[Arrival]> = s.windows(2).filter(|w| w[0].due_s == w[1].due_s).collect();
        assert_eq!(twos.len() * 2, 200);
        for w in &twos {
            if let (Ask::Pool(a), Ask::Pool(b)) = (w[0].query, w[1].query) {
                assert_eq!((a + 1) % 7, b);
            }
        }
        // Every pool query is asked equally often (within one), the
        // partner's extra asks aside.
        let mut asked = [0usize; 7];
        for a in &s {
            if let Ask::Pool(i) = a.query {
                asked[i] += 1;
            }
        }
        asked[3] -= 25;
        assert!(asked.iter().max().unwrap() - asked.iter().min().unwrap() <= 1);
        // Out of never-seen texts, misses become pairs.
        let few = schedule(1, 25.0, 500, 7, 2, 3);
        assert_eq!(
            few.iter()
                .filter(|a| matches!(a.query, Ask::Fresh(_)))
                .count(),
            2
        );
        assert_eq!(few.len(), 500);
    }

    /// The mirror the script maintains by hand equals what the storage
    /// layer's own planner does to the same records.
    #[test]
    fn edit_script_mirror_matches_the_storage_planner() {
        for w in [&WORKLOADS[0], &WORKLOADS[1]] {
            let inputs = generate(w, &TINY, 3);
            let mut script = EditScript::new(&inputs, 3);
            let mut model = script.records().to_vec();
            let n0 = model.len();
            for step in 0..60 {
                let edit = script.next_edit();
                let frag = match edit.update.xml() {
                    Some(xml) => {
                        let mut l = script.labels().clone();
                        let t = arb_xml::str_to_tree(xml, &mut l).unwrap();
                        assert_eq!(l.tag_count(), script.labels().tag_count());
                        tree_records(&t)
                    }
                    None => Vec::new(),
                };
                let (ends, kinds) = arb_storage::record_extents(&model).unwrap();
                let plan = match &edit.update {
                    DocUpdate::SpliceSubtree { at, .. } => {
                        arb_storage::plan_splice(&model, &ends, &kinds, *at, frag.len() as u32)
                    }
                    DocUpdate::AppendChild { under, .. } => {
                        arb_storage::plan_append(&model, &ends, &kinds, *under, frag.len() as u32)
                    }
                    DocUpdate::DeleteSubtree { at } => {
                        arb_storage::plan_delete(&model, &ends, &kinds, *at)
                    }
                }
                .unwrap();
                assert_eq!(
                    (plan.pos, plan.removed, plan.inserted),
                    (edit.pos, edit.removed, edit.inserted),
                    "{} step {step}",
                    w.name
                );
                arb_storage::apply_edit(&mut model, &plan, &frag);
                assert_eq!(model, script.records(), "{} step {step}", w.name);
            }
            // Splices keep the size; each append is deleted again.
            assert_eq!(model.len(), n0);
            arb_storage::records_to_tree(&model).unwrap();
        }
    }
}
