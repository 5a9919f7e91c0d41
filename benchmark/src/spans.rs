//! The in-memory span and count recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each crate's public functions; nothing inside the simulator is
//! instrumented. Every timing in the benchmark — traced or not — goes
//! through [`Recorder::enter`]/[`Recorder::exit`], so the traced and the
//! untraced run execute the same code and differ only in whether a span is
//! kept.

use crate::json::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The timed op the span belongs to (0 outside any op).
    pub op: u32,
}

/// An open span, closed by [`Recorder::exit`].
#[must_use]
pub struct Open {
    started: Instant,
    index: Option<usize>,
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    pub calls: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the parts covered by child spans, ns.
    pub self_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Switches span and count keeping on or off; timing is unaffected.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Starts the next timed op; spans entered from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (started - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, index }
    }

    /// Closes `open` and returns its duration.
    pub fn exit(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(index) = open.index {
            // An early error return may have left inner spans open: they end
            // with the span that encloses them.
            while let Some(top) = self.stack.pop() {
                self.spans[top].end_ns = (now - self.epoch).as_nanos() as u64;
                if top == index {
                    break;
                }
            }
        }
        now - open.started
    }

    /// Adds `n` to the count `name` (kept only while enabled, like spans).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// A position in the span log, for [`Recorder::totals_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Totals per span name, with self time = duration − child spans.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        self.totals_since(0)
    }

    /// [`Recorder::totals`] over the spans entered since `mark`.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, SpanTotal> {
        let spans = &self.spans[mark..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child_ns[p - mark] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let t = totals.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        totals
    }

    /// Summed durations of the spans `name` that lie inside a span `root`.
    pub fn total_under(&self, name: &str, root: &str) -> u64 {
        let inside = |mut at: Option<usize>| {
            while let Some(i) = at {
                if self.spans[i].name == root {
                    return true;
                }
                at = self.spans[i].parent;
            }
            false
        };
        self.spans
            .iter()
            .filter(|s| s.name == name && inside(s.parent))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span and count as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{sep}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.op
            )
            .expect("string write");
        }
        out.push_str("],\"counts\":{");
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        out.push_str(&counts.join(","));
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new(true);
        rec.next_op();
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        std::thread::sleep(Duration::from_millis(2));
        let inner_dur = rec.exit(inner);
        let outer_dur = rec.exit(outer);
        assert!(outer_dur >= inner_dur);
        let totals = rec.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!((o.calls, i.calls), (1, 1));
        assert_eq!(i.self_ns, i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].op, 1);
        // Totals from a mark see only later spans, and no parent before it.
        let mark = rec.mark();
        let later = rec.enter("inner");
        rec.exit(later);
        let since = rec.totals_since(mark);
        assert_eq!(since.len(), 1);
        assert_eq!(since["inner"].calls, 1);
        assert_eq!(rec.totals_since(1)["inner"].calls, 2);
        // Only the first `inner` lies inside an `outer`.
        assert_eq!(rec.total_under("inner", "outer"), i.total_ns);
        assert_eq!(rec.total_under("outer", "outer"), 0);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.enter("x");
        rec.count("n", 3);
        assert!(rec.exit(open) > Duration::ZERO);
        assert!(rec.totals().is_empty());
        assert_eq!(rec.counted("n"), 0);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let mut rec = Recorder::new(true);
        let open = rec.enter("a");
        rec.exit(open);
        rec.count("k", 2);
        let path = std::env::temp_dir().join(format!("nvmgc-spans-{}.json", std::process::id()));
        rec.write_json(&path).expect("trace written");
        let doc = json::parse(&std::fs::read_to_string(&path).expect("trace read")).expect("JSON");
        std::fs::remove_file(&path).expect("trace removed");
        assert_eq!(
            doc.get("spans")
                .and_then(json::Value::as_arr)
                .map(<[_]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("counts")
                .and_then(|c| c.get("k"))
                .and_then(json::Value::as_f64),
            Some(2.0)
        );
    }
}
