//! Open-loop load: seeded Poisson schedules, the single generator thread
//! that sends every request at its due time whatever the server is doing,
//! and the samples it collects.
//!
//! Latency is timed from the request's **due** time: the generator's send
//! lag (actual send minus due) plus the server-measured
//! `QueryAnswer::latency` / `ApplyOutcome::latency`, so a stall that holds
//! up later sends is charged to them instead of vanishing.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rwd_graph::NodeId;
use rwd_serve::{ApplyOutcome, Query, QueryAnswer, QueryValue, ServerHandle, Ticket};
use rwd_stream::EdgeBatch;

use crate::trace::{SpanId, Tracer};

/// splitmix64 step.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent seed for stream `tag`, derived from the run's seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    mix(&mut s)
}

/// The generator's random stream (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        mix(&mut self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Exponential gap (seconds) of a Poisson process with rate `rate`/s.
    fn exp_gap(&mut self, rate: f64) -> f64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        -(1.0 - u).ln() / rate
    }
}

/// Query class: point lookups (`HitTime`/`HitProb`) or whole-set queries
/// (`Coverage` / `TopUncovered(8)` / `Seeds`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Point,
    Set,
}

/// One query of the mix: 13/16 point queries on uniform nodes (half
/// `HitTime`, half `HitProb`), 1/16 each of `Coverage`, `TopUncovered(8)`
/// and `Seeds`.
pub fn draw_query(rng: &mut Rng, n: usize) -> (Kind, Query) {
    match rng.below(16) {
        13 => (Kind::Set, Query::Coverage),
        14 => (Kind::Set, Query::TopUncovered(8)),
        15 => (Kind::Set, Query::Seeds),
        r => {
            let v = NodeId(rng.below(n as u64) as u32);
            if r % 2 == 0 {
                (Kind::Point, Query::HitTime(v))
            } else {
                (Kind::Point, Query::HitProb(v))
            }
        }
    }
}

/// What one arrival submits.
pub enum Req {
    Query(Kind, Query),
    Batch(EdgeBatch),
}

/// One scheduled request: due `due` after the phase starts.
pub struct Arrival {
    pub due: Duration,
    pub req: Req,
}

/// Poisson query arrivals at `rate`/s over `span`.
pub fn poisson_queries(rng: &mut Rng, rate: f64, span: Duration, n: usize) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = rng.exp_gap(rate);
    while t < span.as_secs_f64() {
        let (kind, q) = draw_query(rng, n);
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            req: Req::Query(kind, q),
        });
        t += rng.exp_gap(rate);
    }
    out
}

/// Every batch of `batches`, in order, at Poisson arrival times of
/// `rate`/s (a fixed count, so the data dir ends in the same state on
/// every run of one seed and run length).
pub fn poisson_batches(rng: &mut Rng, rate: f64, batches: &[EdgeBatch]) -> Vec<Arrival> {
    let mut t = 0.0;
    batches
        .iter()
        .map(|b| {
            t += rng.exp_gap(rate);
            Arrival {
                due: Duration::from_secs_f64(t),
                req: Req::Batch(b.clone()),
            }
        })
        .collect()
}

/// Merges two schedules by due time (stable: `a` first on ties).
pub fn merge(a: Vec<Arrival>, b: Vec<Arrival>) -> Vec<Arrival> {
    let mut all: Vec<Arrival> = a.into_iter().chain(b).collect();
    all.sort_by_key(|x| x.due);
    all
}

/// One answered query.
pub struct QuerySample {
    pub kind: Kind,
    pub query: Query,
    /// Send lag: actual send minus due time.
    pub lag: Duration,
    pub answer: QueryAnswer,
    /// Whether the tracer recorded this request's spans.
    pub traced: bool,
}

impl QuerySample {
    /// Latency from the due time, in microseconds.
    pub fn due_latency_us(&self) -> f64 {
        (self.lag + self.answer.latency).as_secs_f64() * 1e6
    }

    pub fn invalid(&self) -> bool {
        matches!(self.answer.value, QueryValue::Invalid(_))
    }
}

/// One published (or rejected) batch.
pub struct BatchSample {
    pub lag: Duration,
    pub outcome: ApplyOutcome,
    pub traced: bool,
}

impl BatchSample {
    /// Batch due → epoch published, in milliseconds.
    pub fn due_latency_ms(&self) -> f64 {
        (self.lag + self.outcome.latency).as_secs_f64() * 1e3
    }
}

/// Everything one open-loop phase observed.
#[derive(Default)]
pub struct PhaseResult {
    pub queries: Vec<QuerySample>,
    pub batches: Vec<BatchSample>,
    /// Send lag of every arrival, in microseconds.
    pub lags_us: Vec<f64>,
    /// Most requests outstanding (submitted, not yet answered) at once.
    pub backlog_max: usize,
    /// Submissions the server refused.
    pub refused: usize,
    /// Requests still unanswered at the drain deadline.
    pub pending: usize,
    pub attempted: usize,
    pub elapsed: Duration,
}

/// How close to a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(150);

struct Outstanding<T> {
    lag: Duration,
    sent: Instant,
    ticket: Ticket<T>,
    traced: bool,
    req: u64,
}

/// Sends `arrivals` on schedule from this (the single generator) thread,
/// harvesting answers as they resolve, then drains for at most `drain`.
/// `traced(i)` says whether arrival `i` is recorded by the tracer, under
/// the tracer's current span.
pub fn run(
    handle: &ServerHandle,
    arrivals: Vec<Arrival>,
    tracer: &mut Tracer,
    traced: impl Fn(usize) -> bool,
    drain: Duration,
) -> PhaseResult {
    let parent = tracer.current();
    let n = arrivals.len();
    let mut res = PhaseResult {
        queries: Vec::with_capacity(n),
        batches: Vec::with_capacity(n),
        lags_us: Vec::with_capacity(n),
        attempted: n,
        ..PhaseResult::default()
    };
    let mut queries: VecDeque<(Kind, Query, Outstanding<QueryAnswer>)> =
        VecDeque::with_capacity(1024);
    let mut batches: VecDeque<Outstanding<ApplyOutcome>> = VecDeque::with_capacity(64);
    let start = Instant::now() + Duration::from_millis(1);
    for (i, a) in arrivals.into_iter().enumerate() {
        let due = start + a.due;
        loop {
            harvest(&mut queries, &mut batches, &mut res, tracer, parent);
            let now = Instant::now();
            if now >= due {
                break;
            }
            // Sleep through the gap and spin only its last stretch (sleep
            // overshoots by the timer slack), leaving the cores to the
            // server's threads for the rest.
            let left = due - now;
            if left > SPIN {
                std::thread::sleep(left - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
        let sent = Instant::now();
        let lag = sent - due;
        res.lags_us.push(lag.as_secs_f64() * 1e6);
        let traced = traced(i) && tracer.is_on();
        let req = tracer.new_req();
        match a.req {
            Req::Query(kind, q) => match handle.query(q.clone()) {
                Ok(ticket) => queries.push_back((
                    kind,
                    q,
                    Outstanding {
                        lag,
                        sent,
                        ticket,
                        traced,
                        req,
                    },
                )),
                Err(_) => res.refused += 1,
            },
            Req::Batch(b) => match handle.apply(b) {
                Ok(ticket) => batches.push_back(Outstanding {
                    lag,
                    sent,
                    ticket,
                    traced,
                    req,
                }),
                Err(_) => res.refused += 1,
            },
        }
        res.backlog_max = res.backlog_max.max(queries.len() + batches.len());
    }
    let deadline = Instant::now() + drain;
    while !(queries.is_empty() && batches.is_empty()) && Instant::now() < deadline {
        harvest(&mut queries, &mut batches, &mut res, tracer, parent);
        std::thread::sleep(Duration::from_micros(50));
    }
    harvest(&mut queries, &mut batches, &mut res, tracer, parent);
    res.pending = queries.len() + batches.len();
    res.elapsed = start.elapsed();
    res
}

/// Collects resolved answers in submission order (one query worker and
/// one writer each answer their queue FIFO).
fn harvest(
    queries: &mut VecDeque<(Kind, Query, Outstanding<QueryAnswer>)>,
    batches: &mut VecDeque<Outstanding<ApplyOutcome>>,
    res: &mut PhaseResult,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) {
    while let Some(answer) = queries.front().and_then(|(_, _, o)| o.ticket.poll()) {
        let (kind, query, o) = queries.pop_front().expect("front exists");
        if o.traced {
            tracer.request(
                "serve.query",
                "serve.query_queue",
                "serve.query_service",
                o.sent,
                answer.queue,
                answer.service,
                parent,
                o.req,
            );
        }
        res.queries.push(QuerySample {
            kind,
            query,
            lag: o.lag,
            answer,
            traced: o.traced,
        });
    }
    while let Some(outcome) = batches.front().and_then(|o| o.ticket.poll()) {
        let o = batches.pop_front().expect("front exists");
        if o.traced {
            tracer.request(
                "serve.apply",
                "serve.batch_queue",
                "serve.batch_service",
                o.sent,
                outcome.queue,
                outcome.service,
                parent,
                o.req,
            );
        }
        res.batches.push(BatchSample {
            lag: o.lag,
            outcome,
            traced: o.traced,
        });
    }
}

/// Nearest-rank percentiles over a sample set, with its count.
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut v: Vec<f64>) -> Self {
        v.sort_by(f64::total_cmp);
        Dist { sorted: v }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The `q`-quantile by nearest rank; `NaN` when empty.
    pub fn p(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }
}

/// A tail percentile that one stall cannot move: `values` (in arrival
/// order) are cut into consecutive chunks of `CHUNK` samples (the last
/// chunk absorbs the remainder), the `q`-quantile is taken per chunk, and
/// the median over chunks is returned with the chunk count.
pub fn chunked_p(values: &[f64], q: f64) -> (f64, usize) {
    const CHUNK: usize = 1000;
    let chunks = (values.len() / CHUNK).max(1);
    let per: Vec<f64> = (0..chunks)
        .map(|c| {
            let end = if c + 1 == chunks {
                values.len()
            } else {
                (c + 1) * CHUNK
            };
            Dist::new(values[c * CHUNK..end].to_vec()).p(q)
        })
        .collect();
    (Dist::new(per).p(0.5), chunks)
}

/// One rung of the capacity search.
pub struct Step {
    pub qps: f64,
    pub point_p99_us: f64,
    pub point_samples: usize,
    pub chunks: usize,
    pub backlog_max: usize,
    pub pass: bool,
}

/// Result of a capacity search, with every phase it ran.
pub struct Capacity {
    pub qps: f64,
    pub steps: Vec<Step>,
    pub phases: Vec<PhaseResult>,
}

/// The capacity ladder, as multiples of the frozen start rate.
const LADDER: [f64; 10] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.35, 1.5];

/// Highest offered rate at which point p99 (from due, per [`chunked_p`])
/// stays within `limit_us`. A backlog that keeps growing through a rung
/// pushes most of its chunks past the limit, so it fails the rung too.
///
/// Offers the fixed ladder `start_qps × LADDER` in increasing order, each
/// rung an open-loop phase of `step` with its own seeded schedule, and
/// stops at the first failing rung; every run of one seed offers the same
/// rates. The capacity is interpolated on log p99 between the last passing
/// rung and the first failing one. No passing rung gives 0; no failing
/// rung gives the top rate.
pub fn capacity(
    handle: &ServerHandle,
    seed: u64,
    n: usize,
    start_qps: f64,
    step: Duration,
    limit_us: f64,
    tracer: &mut Tracer,
) -> Capacity {
    let mut cap = Capacity {
        qps: 0.0,
        steps: Vec::new(),
        phases: Vec::new(),
    };
    for (i, f) in LADDER.iter().enumerate() {
        let qps = start_qps * f;
        let mut rng = Rng::new(derive(seed, i as u64));
        let arrivals = poisson_queries(&mut rng, qps, step, n);
        let span = tracer.begin("bench.capacity_step");
        let res = run(handle, arrivals, tracer, |_| true, Duration::from_secs(30));
        tracer.end(span);
        let point: Vec<f64> = res
            .queries
            .iter()
            .filter(|s| s.kind == Kind::Point)
            .map(QuerySample::due_latency_us)
            .collect();
        let (p99, chunks) = chunked_p(&point, 0.99);
        let pass = res.pending == 0 && res.refused == 0 && !point.is_empty() && p99 <= limit_us;
        cap.steps.push(Step {
            qps,
            point_p99_us: p99,
            point_samples: point.len(),
            chunks,
            backlog_max: res.backlog_max,
            pass,
        });
        cap.phases.push(res);
        if !pass {
            break;
        }
    }
    let last = cap.steps.len() - 1;
    cap.qps = match (cap.steps[last].pass, last) {
        (true, _) => cap.steps[last].qps,
        (false, 0) => 0.0,
        (false, _) => {
            let (a, b) = (&cap.steps[last - 1], &cap.steps[last]);
            // A failure with nothing answered has no p99: stop at `a`.
            let t = if b.point_p99_us.is_finite() && b.point_p99_us > limit_us {
                (limit_us.ln() - a.point_p99_us.ln()) / (b.point_p99_us.ln() - a.point_p99_us.ln())
            } else {
                0.0
            };
            a.qps + t.clamp(0.0, 1.0) * (b.qps - a.qps)
        }
    };
    cap
}
