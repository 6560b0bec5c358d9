//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end on the run's monotonic clock, the
//! span that caused it, and a group id shared by every span of one trial
//! or batch. Spans stay in memory while the run measures and are written
//! out as JSONL when it ends, so recording costs one clock read and one
//! push per boundary.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into the recorder's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Trial or batch this span belongs to.
    pub group: u64,
    /// Layer boundary name, e.g. `campaign.trial`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a recorder's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Records nested spans on one thread.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing: [`Recorder::span`] just calls
    /// its closure. The untraced runs use it.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` in `group`, nested under the
    /// innermost open span.
    pub fn span<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            group,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. Children of a span run
    /// inside it on the same thread, so its self time is its duration
    /// minus its children's durations.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for span in &self.spans {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(child_ns[span.id]);
        }
        out
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes the spans as JSONL, one object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let rec = Recorder {
            enabled: true,
            epoch: Instant::now(),
            spans: vec![
                span(0, None, "trial", 0, 100),
                span(1, Some(0), "parse", 10, 40),
                span(2, Some(1), "decode", 15, 35),
                span(3, Some(0), "scan", 50, 60),
            ],
            open: Vec::new(),
        };
        let totals = rec.totals();
        assert_eq!(totals["trial"].self_ns, 100 - 30 - 10);
        assert_eq!(totals["parse"].self_ns, 30 - 20);
        assert_eq!(totals["decode"].self_ns, 20);
        assert_eq!(totals["scan"].total_ns, 10);
    }

    #[test]
    fn nesting_follows_the_call_tree() {
        let mut rec = Recorder::new();
        rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| ());
        });
        rec.span("next", 8, |_| ());
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[2].group, 8);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn a_disabled_recorder_only_runs_the_closure() {
        let mut rec = Recorder::disabled();
        assert_eq!(rec.span("x", 0, |_| 5), 5);
        assert!(rec.spans().is_empty());
    }
}
