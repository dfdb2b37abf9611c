//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A disabled tracer records nothing and costs one branch per call, so
//! the untraced run measures the program alone. Spans are written out
//! as JSON lines when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span; `NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `core.resolve`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Counts and program-reported timings taken at the same boundary.
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            attrs: Vec::new(),
        });
        self.open.push(index);
        SpanId(index)
    }

    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end = self.origin.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        assert_eq!(popped, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = end;
    }

    pub fn attr(&mut self, id: SpanId, key: &'static str, value: f64) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize].attrs.push((key, value));
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// Values of attribute `key` on every span named `name` that has it.
    pub fn attr_values(&self, name: &str, key: &str) -> Vec<f64> {
        self.named(name).filter_map(|s| s.attr(key)).collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}",
                s.name, s.start_ns, s.end_ns, s.op
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_op() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.begin("core.resolve");
        let inner = t.begin("kg.index");
        t.attr(inner, "facts", 3.0);
        t.end(inner);
        t.end(outer);
        assert_eq!(t.len(), 2);
        let inner = t.named("kg.index").next().unwrap();
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.op, 1);
        assert_eq!(inner.attr("facts"), Some(3.0));
        assert!(t.named("core.resolve").next().unwrap().end_ns >= inner.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("core.resolve");
        t.attr(id, "x", 1.0);
        t.end(id);
        assert_eq!(t.time("kg.index", || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
