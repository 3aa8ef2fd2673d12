//! In-memory spans around the harness's own calls into each crate.
//!
//! A span records a name, when it started and ended, the span that caused
//! it, and the operation it belongs to. Spans stay in memory while the
//! workload runs and are written to `benchmark/out/<workload>.trace.json`
//! when it ends. Tracing inside the crates is a later change: every span
//! here wraps a call the harness makes into a crate's public API, and the
//! span's name starts with that crate's layer name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Spans of one operation (a repetition, a request) share this id.
    pub op: u64,
}

/// Handle for an open span; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder of the driving thread. A disabled tracer records nothing, so
/// untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `id` (and, defensively, anything opened inside it that was
    /// left open).
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name, op);
        let result = f(self);
        self.exit(id);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time: its duration minus the part of its interval that
/// its direct `children` cover (overlapping children are counted once).
fn self_time_of<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut covered: Vec<(u64, u64)> = children
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    covered.sort_unstable();
    let mut union = 0u64;
    let mut cursor = parent.start_ns;
    for (a, b) in covered {
        let a = a.max(cursor);
        if b > a {
            union += b - a;
            cursor = b;
        }
    }
    (parent.end_ns - parent.start_ns) - union
}

/// Count, total time and self time per span name, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    // One pass groups children by parent, so self time stays linear in
    // the span count (a traced serve run records tens of thousands).
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_time_of(s, children[i].iter().map(|&c| &spans[c]));
    }
    out
}

/// Writes the trace as one JSON document: a header, then one object per
/// span with `name`, `start_ns`, `end_ns`, `parent` (index or null), `op`.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns since the run's epoch\",\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 ns: the union covers 10..60, not 30 + 30.
            span("b", 30, 60, Some(0)),
            // A grandchild never counts against the grandparent.
            span("c", 12, 20, Some(1)),
            // Sticks out past the parent: only 90..100 is inside it.
            span("d", 90, 130, Some(0)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["rep"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 50 - 10
            }
        );
        assert_eq!(totals["a"].self_ns, 30 - 8);
        assert_eq!(totals["b"].self_ns, 30);
        assert_eq!(totals["c"].self_ns, 8);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false, Instant::now());
        off.span("outer", 0, |t| t.span("inner", 0, |_| ()));
        assert!(off.spans().is_empty());
    }
}
