//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (the program itself carries no spans). Each span has a
//! name, start, end, optional parent, the operation it belongs to (cell,
//! kernel, or request id), the recording thread, and the phase (set-up or
//! timed). Spans stay in memory and are written out once, at the end.

use crate::stats::{self_time, Interval};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Everything before the timed phase.
    Setup,
    /// The timed phase.
    Run,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: u64,
    pub thread: usize,
    pub phase: Phase,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn interval(&self) -> Interval {
        (self.start, self.end)
    }

    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A span that has been opened but not yet closed.
pub struct Open {
    id: usize,
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    thread: usize,
    phase: Phase,
    start: u64,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> usize {
        self.id
    }
}

/// The recorder shared by every traced thread of a run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        thread: usize,
        phase: Phase,
    ) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            parent,
            op,
            thread,
            phase,
            start: self.now(),
        }
    }

    /// Closes `open` now and returns the recorded span.
    pub fn close(&self, open: Open) -> Span {
        let end = self.now();
        self.push(open, end)
    }

    /// Records a child span of known duration placed at the start of its
    /// parent: used for `core.run`, whose host time the simulator reports
    /// as `RunReport::wall_ns` rather than as an interval.
    pub fn child_of_duration(&self, parent: &Span, name: &'static str, duration: u64) {
        let open = Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            parent: Some(parent.id),
            op: parent.op,
            thread: parent.thread,
            phase: parent.phase,
            start: parent.start,
        };
        let end = (parent.start + duration).min(parent.end);
        self.push(open, end);
    }

    fn push(&self, o: Open, end: u64) -> Span {
        let span = Span {
            id: o.id,
            name: o.name,
            parent: o.parent,
            op: o.op,
            thread: o.thread,
            phase: o.phase,
            start: o.start,
            end,
        };
        self.spans.lock().unwrap().push(span.clone());
        span
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().unwrap()
    }
}

/// Self time of every span, by span id.
pub fn self_times(spans: &[Span]) -> HashMap<usize, u64> {
    let mut children: HashMap<usize, Vec<Interval>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s.interval());
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, self_time(s.interval(), kids))
        })
        .collect()
}

/// Summed self time in seconds of the spans named `name` in `phase`.
pub fn layer_self_s(spans: &[Span], selfs: &HashMap<usize, u64>, name: &str, phase: Phase) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.phase == phase)
        .fold(0.0, |acc, s| acc + selfs[&s.id] as f64 * 1e-9)
}

/// Writes the spans as JSON lines (one span per line).
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let phase = match s.phase {
            Phase::Setup => "setup",
            Phase::Run => "run",
        };
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"thread\":{},\"phase\":\"{phase}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.op, s.thread, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            id,
            name,
            parent,
            op: 0,
            thread: 0,
            phase: Phase::Run,
            start,
            end,
        }
    }

    #[test]
    fn self_times_follow_parent_links() {
        let spans = vec![
            span(0, "cell", None, 0, 100),
            span(1, "kernels", Some(0), 10, 80),
            span(2, "core.run", Some(1), 10, 60),
            span(3, "store.encode", Some(0), 85, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 100 - 70 - 5);
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&2], 50);
        assert_eq!(layer_self_s(&spans, &selfs, "kernels", Phase::Run), 20e-9);
        assert_eq!(layer_self_s(&spans, &selfs, "kernels", Phase::Setup), 0.0);
    }

    #[test]
    fn duration_child_is_clipped_to_parent() {
        let t = Tracer::new();
        let open = t.open("kernels", None, 7, 0, Phase::Run);
        let parent = t.close(open);
        t.child_of_duration(&parent, "core.run", u64::MAX / 2);
        let spans = t.into_spans();
        let child = spans.iter().find(|s| s.name == "core.run").unwrap();
        assert_eq!(child.interval(), parent.interval());
        assert_eq!(child.op, 7);
    }
}
