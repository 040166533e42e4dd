//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer (nothing inside the crates is instrumented): a name, start and
//! end relative to the run's origin, the parent span, and a request id
//! shared by the spans of one request. They stay in memory and are written
//! out as JSON lines when the run ends. A span's self time is its duration
//! minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<SpanId>,
    req: u64,
}

/// Per-name totals over a run's spans.
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    next_req: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_req: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (used to alternate traced and
    /// untraced blocks within a traced run). Only called with no span open.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty() || !self.on || on);
        self.on = on;
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<SpanId> {
        self.open.last().copied()
    }

    /// A fresh request id.
    pub fn new_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Opens a span under the current one, in its request; `None` while
    /// recording is off.
    pub fn begin(&mut self, name: &'static str) -> Option<SpanId> {
        let req = self.current().map_or(0, |p| self.spans[p].req);
        self.open_span(name, req)
    }

    /// [`Tracer::begin`] for the root span of a new request.
    pub fn begin_request(&mut self, name: &'static str) -> Option<SpanId> {
        let req = self.new_req();
        self.open_span(name, req)
    }

    fn open_span(&mut self, name: &'static str, req: u64) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = Instant::now();
        let parent = self.current();
        let id = self.push(name, now, now, parent, req);
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = Instant::now().saturating_duration_since(self.origin);
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Records a finished span with known bounds under the current span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let parent = self.current();
            let req = parent.map_or(0, |p| self.spans[p].req);
            self.push(name, start, end, parent, req);
        }
    }

    /// Records one request `[sent, sent + queue + service]` with its queue
    /// and service children, from the timings the server reported.
    #[allow(clippy::too_many_arguments)]
    pub fn request(
        &mut self,
        name: &'static str,
        queue_name: &'static str,
        service_name: &'static str,
        sent: Instant,
        queue: Duration,
        service: Duration,
        parent: Option<SpanId>,
        req: u64,
    ) {
        let dequeued = sent + queue;
        let end = dequeued + service;
        let id = self.push(name, sent, end, parent, req);
        self.push(queue_name, sent, dequeued, Some(id), req);
        self.push(service_name, dequeued, end, Some(id), req);
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, sorted by name.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end.saturating_sub(s.start);
            // Union of the children's intervals, clipped to this span.
            let mut iv: Vec<(Duration, Duration)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort();
            let mut covered = Duration::ZERO;
            let mut cur: Option<(Duration, Duration)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let e = by_name.entry(s.name).or_insert(SelfTime {
                name: s.name,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            e.count += 1;
            e.total_ms += dur.as_secs_f64() * 1e3;
            e.self_ms += dur.saturating_sub(covered).as_secs_f64() * 1e3;
        }
        by_name.into_values().collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.req
            )?;
        }
        out.flush()
    }
}
