//! In-memory spans recorded around calls into the program's public API.
//!
//! Spans live in memory for the whole run and are written out once at exit
//! (JSON lines), so recording costs two clock reads and a push. A span that
//! covers a repeated short call carries the repetition count: nothing is
//! timed in units shorter than [`MIN_UNIT`], and per-call figures divide by
//! the count.

use std::io::Write;
use std::time::{Duration, Instant};

/// Shortest interval timed as one unit. Clock reads and scheduler noise are
/// a large share of anything shorter.
pub const MIN_UNIT: Duration = Duration::from_millis(2);

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `capprox.apply`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (query, update, batch) the span belongs to.
    pub request: u64,
    /// Calls covered by the span.
    pub calls: u32,
}

impl Span {
    /// Wall time per covered call, in milliseconds.
    pub fn ms_per_call(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6 / f64::from(self.calls)
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    /// Starts a new request id; later spans carry it.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Self::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
            calls: 1,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times one call of `f` as a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Times `f` repeated until the span lasts at least [`MIN_UNIT`], as one
    /// span carrying the call count.
    pub fn repeated(&mut self, name: &'static str, mut f: impl FnMut()) {
        let id = self.begin(name);
        let started = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || started.elapsed() < MIN_UNIT {
            f();
            calls += 1;
        }
        self.end(id);
        self.spans[id].calls = calls;
    }

    /// Per-call milliseconds of every span named `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms_per_call)
            .collect()
    }

    /// Per-request totals (ms) of the spans named `name`, in request order:
    /// a query's phases sum into one figure for that query.
    pub fn ms_per_request(&self, name: &str) -> Vec<f64> {
        let mut totals: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let ms = s.ms_per_call() * f64::from(s.calls);
            match totals.last_mut() {
                Some((r, t)) if *r == s.request => *t += ms,
                _ => totals.push((s.request, ms)),
            }
        }
        totals.into_iter().map(|(_, t)| t).collect()
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.calls
            )?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}
