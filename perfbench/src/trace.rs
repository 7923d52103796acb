//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary: a
//! span wraps one call into a module's public API. Every span carries the
//! op it belongs to, so the spans of one op share an id, and the index of
//! its parent span. Nothing is written while the workload runs; the spans
//! are summarised (and optionally dumped as JSON lines) at the end.
//!
//! A disabled recorder makes `enter`/`exit` no-ops, so the untraced run
//! goes through the same code with one predictable branch per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals: how many spans, their summed duration, and their summed
/// self time (duration minus the time covered by child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

pub struct Trace {
    enabled: bool,
    epoch: Instant,
    /// Added to op numbers so that several recorders (one per client
    /// thread) can be merged without their op ids colliding.
    op_base: u64,
    op: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

/// A handle for an open span; pass it back to [`Trace::exit`].
#[must_use]
pub struct Open(u32);

impl Trace {
    pub fn new(enabled: bool, epoch: Instant, op_base: u64) -> Trace {
        Trace {
            enabled,
            epoch,
            op_base,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts a new op: spans entered from now on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let ix = self.spans.len() as u32;
        self.spans.push(Span {
            op: self.op_base + self.op,
            name,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(ix);
        Open(ix)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        debug_assert_eq!(
            self.stack.last(),
            Some(&open.0),
            "spans close in LIFO order"
        );
        self.stack.pop();
        self.spans[open.0 as usize].end_ns = end;
    }

    /// Wraps `f` in a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends another recorder's spans (parent indices are rebased).
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Per-name totals with self time computed from the parent links.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (ix, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {ix}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::new(true, Instant::now(), 0);
        t.next_op();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::new(false, Instant::now(), 0);
        t.span("x", || ());
        assert!(t.totals().is_empty());
    }
}
