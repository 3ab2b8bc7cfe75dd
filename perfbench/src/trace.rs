//! Outside-in span recording for the traced runs.
//!
//! The benchmark wraps its own calls into each layer's public functions
//! in spans; nothing inside the program is instrumented. Spans live in
//! memory and are written once, at exit, as Chrome trace-event JSON
//! (`"ph": "X"` complete events), which Perfetto and `chrome://tracing`
//! open offline. Every span carries its own index, its parent's index,
//! and the id of the step or measurement it belongs to, so stage spans
//! nest under their step span and later in-program spans can nest under
//! these.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the trace file; aggregation continues past it, so a
/// long run keeps its per-layer figures but the file stays openable.
const MAX_KEPT_SPANS: usize = 200_000;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An open step span: stages recorded against it become its children.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: Option<usize>,
    id: u64,
    start_ns: u64,
    staged_ns: u64,
}

/// The span recorder plus per-stage duration samples.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Per-step durations (µs) of every stage, keyed by stage name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-step wall time not covered by any stage (µs), keyed by the
    /// step span's name.
    unaccounted: BTreeMap<&'static str, Vec<f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
            unaccounted: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn keep(&mut self, span: Span) -> Option<usize> {
        (self.spans.len() < MAX_KEPT_SPANS).then(|| {
            self.spans.push(span);
            self.spans.len() - 1
        })
    }

    /// Opens a step (or measurement) span with id `id`.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        let start_ns = self.now_ns();
        let index = self.keep(Span {
            name,
            id,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        Open {
            index,
            id,
            start_ns,
            staged_ns: 0,
        }
    }

    /// Runs `f` as stage `name` of `step`, recording its span and its
    /// duration sample.
    pub fn stage<R>(&mut self, step: &mut Open, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        step.staged_ns += end_ns - start_ns;
        self.keep(Span {
            name,
            id: step.id,
            parent: step.index,
            start_ns,
            end_ns,
        });
        self.samples
            .entry(name)
            .or_default()
            .push((end_ns - start_ns) as f64 / 1e3);
        out
    }

    /// Closes `step`; returns its wall time in µs.
    pub fn close(&mut self, step: Open) -> f64 {
        let end_ns = self.now_ns();
        let name = match step.index {
            Some(i) => {
                self.spans[i].end_ns = end_ns;
                self.spans[i].name
            }
            None => "step",
        };
        let wall = (end_ns - step.start_ns) as f64 / 1e3;
        self.unaccounted
            .entry(name)
            .or_default()
            .push(wall - step.staged_ns as f64 / 1e3);
        wall
    }

    /// Median per-step duration of stage `name` in µs (0 when the stage
    /// never ran).
    pub fn median_us(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| crate::stats::median(v))
    }

    /// Median per-step time of `step_name` spans not covered by stages.
    pub fn unaccounted_us(&self, step_name: &str) -> f64 {
        self.unaccounted
            .get(step_name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| crate::stats::median(v))
    }

    /// Spans recorded (kept for the file).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every kept span to `path` as Chrome trace-event JSON.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_json())
    }

    /// Every kept span as one Chrome trace-event JSON document.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_nest_under_their_step_and_share_its_id() {
        let mut t = Tracer::default();
        let mut step = t.open("train.step", 7);
        t.stage(&mut step, "data.batch", || std::hint::black_box(1 + 1));
        t.stage(&mut step, "autograd.forward", || ());
        let wall = t.close(step);
        assert!(wall >= 0.0);
        assert_eq!(t.spans.len(), 3);
        assert!(t.spans[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.id == 7));
        assert!(t.unaccounted_us("train.step") >= 0.0);
        let doc = yf_wire::json::parse(&t.chrome_json()).unwrap();
        let events = match doc.get("traceEvents") {
            Some(yf_wire::Json::Arr(v)) => v.len(),
            _ => 0,
        };
        assert_eq!(events, 3);
    }
}
