//! In-memory span recording around the benchmark's calls into the crates.
//!
//! A [`Tracer`] that is off only runs the wrapped call. A tracer that is
//! on records, for every call, its name, start, end, parent span and the
//! request it belongs to. Spans stay in memory until the run ends; then
//! [`Tracer::self_times`] derives each layer's self time and
//! [`Tracer::write_jsonl`] writes them out.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is `None` for a request's root span.
struct SpanRec {
    name: &'static str,
    request: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    request: u64,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
}

/// Per-layer totals derived from the recorded spans.
pub struct SelfTimes {
    /// Root spans (requests) recorded.
    pub requests: u64,
    /// Total duration of the root spans, nanoseconds.
    pub request_ns: u64,
    /// Self time per span name, nanoseconds; the root span's self time is
    /// the request time no wrapped call covers.
    pub by_name: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            request: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Runs `f` as request `request`: a root span that every span opened
    /// inside it shares the request id with.
    pub fn request<R>(&mut self, request: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        self.request = request;
        let idx = self.open("request");
        let out = f(self);
        self.close(idx);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> u32 {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(SpanRec {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: u32) {
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in nesting order");
    }

    /// Closes the spans a panicking request left open.
    pub fn unwind(&mut self) {
        while let Some(idx) = self.stack.last().copied() {
            self.close(idx);
        }
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children (children are sequential on this thread, so they
    /// never overlap).
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = SelfTimes {
            requests: 0,
            request_ns: 0,
            by_name: BTreeMap::new(),
        };
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            if s.parent.is_none() {
                out.requests += 1;
                out.request_ns += dur;
            }
            *out.by_name.entry(s.name).or_insert(0) += dur - child;
        }
        out
    }

    /// Writes the first `limit` spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
