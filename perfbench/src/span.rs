//! The span recorder: one span per call the harness makes into a layer
//! (name, start, end, the span that caused it, the operation it belongs
//! to), kept in memory and written once when the run ends. Spans wrap
//! only harness-side call boundaries; nothing inside the program is
//! instrumented.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// The operation (loop iteration or probe repetition) it belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off every call only runs its closure, so
/// the end-to-end runs pay nothing for the tracing the traced runs use.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording recorder; threads of one run share `origin`.
    pub fn on(origin: Instant) -> Self {
        Recorder {
            on: true,
            origin,
            ..Recorder::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns how long it took;
    /// spans `f` opens nest under it. The time is measured whether or
    /// not the recorder is on: loops and probes take their numbers from
    /// here, so a number and its span agree.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, Duration) {
        if !self.on {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed());
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id as usize].start_ns = self.ns(start);
        self.spans[id as usize].end_ns = self.ns(end);
        (out, end - start)
    }

    /// A span around a call that opens no spans of its own.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        self.span(name, op, |_| f())
    }

    /// Moves another thread's spans in (its parent links re-based).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes every span and a per-name summary (count, total and self
    /// time) as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&selfs) {
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += own;
        }
        let mut out = String::with_capacity(self.spans.len() * 96 + 256);
        out.push_str("{\"workload\": ");
        json::push_str(&mut out, workload);
        let _ = write!(out, ", \"seed\": {seed}, \"summary\": {{");
        for (i, (name, (count, total, own))) in summary.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::push_str(&mut out, name);
            let _ = write!(
                out,
                ": {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"name\": ");
            json::push_str(&mut out, s.name);
            let _ = write!(
                out,
                ", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Each span's self time: its duration minus the part of its interval
/// its direct children cover. Children may overlap one another (two
/// connections working under one window) and are clipped to the parent,
/// so a covered nanosecond is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100) > a [10,60) > b [20,30); root > c [70,90)
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        // Two children overlap on [30,40); a third sticks out past the
        // parent's end and a fourth lies inside the first.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 130, Some(0)),
            span(15, 20, Some(0)),
        ];
        // Covered: [10,60) and [90,100) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut r = Recorder::on(Instant::now());
        let ((v, leaf), whole) = r.span("op", 3, |r| r.time("leaf", 3, || 7));
        assert_eq!(v, 7);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].op, 3);
        assert_eq!(r.spans()[1].duration_ns(), leaf.as_nanos() as u64);
        assert_eq!(r.spans()[0].duration_ns(), whole.as_nanos() as u64);
        assert!(r.spans()[0].start_ns <= r.spans()[1].start_ns);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);

        let mut other = Recorder::on(r.origin());
        other.span("op", 4, |r| r.time("leaf", 4, || ()));
        r.absorb(other);
        assert_eq!(r.spans()[3].parent, Some(2));

        let mut off = Recorder::off();
        let (_, d) = off.span("op", 0, |r| r.time("leaf", 0, || ()));
        assert!(off.spans().is_empty());
        assert!(d.as_nanos() > 0, "an off recorder still measures");
    }
}
