//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`: `parent` is the
//! index of the span that caused it, `op_id` is shared by every span of
//! one operation (a sweep step, a job). Spans are kept in memory and
//! written once, at exit; a layer's *self time* is its spans' duration
//! minus the part their children cover. End-to-end metrics are always
//! measured with the tracer off — a disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `fields.prepare`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one operation.
    pub op_id: u64,
}

/// Span recorder with a common time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the traced run measures one phase
    /// each way to price the tracing itself).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// `at` as nanoseconds since the origin (0 if earlier).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index, or `None` when
    /// disabled. A child is clamped into its parent's interval, so a
    /// server-reported duration laid out inside a client-side span can
    /// never stick out of it.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op_id: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (mut start_ns, mut end_ns) = (start_ns, end_ns.max(start_ns));
        if let Some(p) = parent.and_then(|p| self.spans.get(p)) {
            start_ns = start_ns.clamp(p.start_ns, p.end_ns);
            end_ns = end_ns.clamp(start_ns, p.end_ns);
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span (timed even when disabled — callers use the
    /// duration as a measurement) and returns its result and wall ns.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, start, end, parent, op_id);
        (out, end - start)
    }

    /// A tracer for another thread: same origin, same on/off state, no
    /// spans yet. Hand it back through [`absorb`](Self::absorb).
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            enabled: self.enabled,
            spans: Vec::new(),
        }
    }

    /// Appends a forked tracer's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name: each span's duration minus the
    /// part of it its direct children cover (children of one parent may
    /// overlap each other — parallel shards — so covered time is the
    /// union of their intervals).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&i) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    covered += b.saturating_sub(a.max(reach));
                    reach = reach.max(b);
                }
            }
            *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut text = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op_id,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        text.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let job = t.record("serve.job", 0, 100, None, 1);
        t.record("serve.queue", 0, 30, job, 1);
        // Two overlapping children (parallel shards) cover 30..80 once.
        t.record("serve.run", 30, 70, job, 1);
        t.record("serve.run", 40, 80, job, 1);
        let selfs = t.self_times();
        assert_eq!(selfs["serve.job"], 20);
        assert_eq!(selfs["serve.queue"], 30);
        assert_eq!(selfs["serve.run"], 80);
    }

    #[test]
    fn children_are_clamped_into_their_parent() {
        let mut t = Tracer::new(true);
        let job = t.record("serve.job", 10, 50, None, 1);
        let kid = t.record("serve.run", 40, 90, job, 1).expect("recorded");
        assert_eq!((t.spans()[kid].start_ns, t.spans()[kid].end_ns), (40, 50));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut main = Tracer::new(true);
        main.record("a.b", 0, 5, None, 0);
        let mut side = main.fork();
        let job = side.record("serve.job", 10, 20, None, 3);
        side.record("serve.run", 12, 18, job, 3);
        main.absorb(side);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[1].name, "serve.job");
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        assert_eq!(t.record("x.y", 0, 1, None, 0), None);
        let (v, _ns) = t.scope("x.y", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
