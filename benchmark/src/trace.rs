//! In-memory spans around the calls the benchmark makes into a layer.
//!
//! One [`Tracer`] per thread, no locks: a span is opened with
//! [`Tracer::begin`], closed with [`Tracer::end`], and its parent is
//! whatever span the same thread had open at the time. Spans of one
//! request share a request id. A disabled tracer reads no clock and
//! records nothing, so the untraced run executes the same code path
//! minus the two `Instant::now` calls per span. Everything is kept in
//! memory and written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one trace file; never 0.
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// `layer.module.call`, e.g. `core.model.infer_batches`.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id shared by every span of one request; 0 when the call
    /// serves no single request.
    pub req: u64,
    /// Work done inside the span in the layer's own unit (samples,
    /// requests, calls), so `duration / units` is a per-unit time.
    pub units: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended is dropped from the trace"]
pub struct Open(Option<usize>);

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// High bits of every id, so tracers of different threads never
    /// collide when their spans are merged.
    id_base: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            id_base: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer for thread number `thread` (0-based); all
    /// tracers of one trace share `epoch`.
    pub fn on(epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            id_base: (u64::from(thread) + 1) << 40,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer like this one (same switch, same epoch) for another
    /// thread.
    pub fn for_thread(&self, thread: u32) -> Tracer {
        if self.enabled {
            Tracer::on(self.epoch, thread)
        } else {
            Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost span still open on this
    /// thread.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.id_base + index as u64 + 1,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            req,
            units: 0,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span, recording how many units of work it covered.
    #[inline]
    pub fn end(&mut self, open: Open, units: u64) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans must close innermost first");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.units = units;
    }

    /// Runs `call` inside a leaf span.
    #[inline]
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        req: u64,
        units: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, req);
        let out = call();
        self.end(open, units);
        out
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub units: u64,
    /// Every span's duration in nanoseconds, for percentiles.
    pub durations_ns: Vec<f64>,
}

impl NameTotals {
    /// Nanoseconds per unit of work, over all spans of the name.
    pub fn ns_per_unit(&self) -> f64 {
        self.total_ns as f64 / self.units.max(1) as f64
    }
}

/// Groups spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs[&s.id];
        t.units += s.units;
        t.durations_ns.push(s.duration_ns() as f64);
    }
    out
}

/// Serialises a trace as one JSON object: the spans plus a per-name
/// summary with self times.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 4096);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"layers\":{{"
    );
    for (i, (name, t)) in by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"calls\":{},\"total_ns\":{},\"self_ns\":{},\"units\":{}}}",
            t.calls, t.total_ns, t.self_ns, t.units
        );
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{},\"units\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req, s.units
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            req: 0,
            units: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_interval_children_cover() {
        let spans = [
            span(1, 0, 0, 100),
            // Two overlapping children cover 10..50 once, a third 60..70.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 60, 70),
            // A grandchild takes from its own parent only.
            span(5, 2, 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&5], 10);
    }

    #[test]
    fn child_running_past_its_parent_is_clipped() {
        let spans = [span(1, 0, 0, 50), span(2, 1, 40, 90)];
        assert_eq!(self_times(&spans)[&1], 40);
    }

    #[test]
    fn tracer_nests_by_open_order_and_is_silent_when_off() {
        let mut tr = Tracer::on(Instant::now(), 0);
        let outer = tr.begin("outer", 7);
        tr.timed("inner", 7, 3, || ());
        tr.end(outer, 1);
        tr.timed("sibling", 0, 1, || ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].units, 3);
        assert_eq!(spans[2].parent, 0);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::off();
        let o = off.begin("x", 0);
        off.end(o, 1);
        assert_eq!(off.timed("y", 0, 1, || 5), 5);
        assert!(off.spans().is_empty());

        let mut other = tr.for_thread(1);
        other.timed("elsewhere", 0, 1, || ());
        let foreign = other.spans()[0].id;
        assert!(tr.spans().iter().all(|s| s.id != foreign));
        tr.absorb(other);
        assert_eq!(by_name(tr.spans())["elsewhere"].calls, 1);
        assert!(to_json("w", 1, tr.spans()).contains("\"name\":\"inner\""));
    }
}
