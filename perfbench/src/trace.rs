//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans live in memory and are written out once, at exit. The same
//! `begin`/`end` pair times every call whether tracing is on or off — with
//! tracing off nothing is stored, so the untraced and traced runs execute
//! identical measuring code and differ only by the `Vec::push`.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span (the span that caused this one).
    pub parent: Option<usize>,
    /// Op id shared by every span of one op; -1 outside the op loop.
    pub op: i64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An open span: always carries the clock, and the slot only when recording.
pub struct Open {
    t0: Instant,
    slot: Option<usize>,
}

pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: i64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: -1 }
    }

    /// Tag spans opened from now on with `op` (-1 = outside the op loop).
    pub fn set_op(&mut self, op: i64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let slot = self.enabled.then(|| {
            let start = self.origin.elapsed().as_secs_f64();
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { t0: Instant::now(), slot }
    }

    /// Close `open`; returns its duration in seconds either way.
    pub fn end(&mut self, open: Open) -> f64 {
        let seconds = open.t0.elapsed().as_secs_f64();
        if let Some(slot) = open.slot {
            self.spans[slot].end = self.spans[slot].start + seconds;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans must close innermost first");
        }
        seconds
    }

    /// Time one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration of the recorded spans called `name` (0 if none) —
    /// the value of the per-layer time metric of that name.
    pub fn median_duration(&self, name: &str) -> f64 {
        let durations: Vec<f64> =
            self.spans.iter().filter(|s| s.name == name).map(Span::duration).collect();
        crate::stats::median(&durations)
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover. The runner is single-threaded, so siblings never overlap and the
/// covered part is the plain sum of child durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.duration();
        }
    }
    own
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += own,
            None => totals.push((span.name, own)),
        }
    }
    totals.sort_by(|a, b| b.1.total_cmp(&a.1));
    totals
}

/// The span file: one JSON array, a span's id is its index.
pub fn render_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (span, own)) in spans.iter().zip(own).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{own},\
             \"parent\":{parent},\"op\":{}}}",
            span.name, span.start, span.end, span.op
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}
