//! In-memory span recorder for the traced run.
//!
//! Spans wrap the calls the benchmark makes into each layer — `setup`,
//! every `step`, every probe call — from the benchmark's own side of the
//! boundary; nothing inside the program is instrumented. Spans stay in
//! memory and are flushed once, when the run ends.
//!
//! One thread records at a time: the main thread opens a span, launches a
//! world and blocks, and rank 0 of that world records the children. The
//! open-span stack is therefore shared, and the mutex is never contended.

use beatnik_json::Value;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's
/// epoch; `end_ns` is 0 while the span is open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Repetition of the workload the span belongs to.
    pub rep: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

/// The recorder. Shared by reference between the main thread and rank 0.
pub struct Spans {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl Spans {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a span-recording thread panicked")
    }

    /// Stamp later spans with repetition `rep`.
    pub fn set_rep(&self, rep: usize) {
        self.lock().rep = rep;
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&self, name: &'static str) -> usize {
        let mut g = self.lock();
        let id = g.spans.len();
        let (parent, rep) = (g.open.last().copied(), g.rep);
        g.open.push(id);
        // Stamp the start last so recording cost falls outside the span.
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        g.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            rep,
        });
        id
    }

    /// Close span `id`; returns its duration in nanoseconds.
    pub fn exit(&self, id: usize) -> u64 {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut g = self.lock();
        assert_eq!(g.open.pop(), Some(id), "spans must close innermost first");
        g.spans[id].end_ns = end_ns;
        g.spans[id].duration_ns()
    }

    /// Run `f` inside a span; returns its result and the span's duration.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Write every span to `path` as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let g = self.lock();
        let self_ns = self_times(&g.spans);
        let rows = g
            .spans
            .iter()
            .zip(self_ns)
            .map(|(s, own)| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("rep".into(), Value::UInt(s.rep as u64)),
                    ("self_ns".into(), Value::UInt(own)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("spans".into(), Value::Array(rows)),
        ]);
        std::fs::write(path, beatnik_json::to_string(&doc))
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 35, 5]);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_reps() {
        let spans = Spans::default();
        spans.set_rep(3);
        let outer = spans.enter("outer");
        let ((), inner_ns) = spans.time("inner", || ());
        let outer_ns = spans.exit(outer);
        assert!(outer_ns >= inner_ns);
        let g = spans.lock();
        assert_eq!(g.spans.len(), 2);
        assert_eq!(g.spans[0].parent, None);
        assert_eq!(g.spans[1].parent, Some(0));
        assert_eq!(g.spans[1].rep, 3);
        assert!(g.open.is_empty());
    }
}
