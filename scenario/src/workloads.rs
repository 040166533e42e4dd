//! The three workloads. Each sets its engine up `SETUPS` times (reporting
//! the median set-up), runs its open-loop measured phase against the
//! public `rwd-serve` API, measures the other two user paths on its own
//! configuration, and checks its outputs bit for bit.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rwd_core::algo::select_from_index;
use rwd_core::greedy::approx::GainRule;
use rwd_core::Strategy;
use rwd_datasets::temporal::{temporal_trace, TemporalTrace, TemporalTraceSpec, TraceModel};
use rwd_graph::weighted::{weighted_twin, WeightedCsrGraph};
use rwd_graph::{CsrGraph, NodeId};
use rwd_serve::snapshot::SnapshotGraph;
use rwd_serve::{Query, QueryAnswer, QueryValue, ServeEngine, Server, Snapshot};
use rwd_stream::{DurabilityConfig, EdgeBatch, RecoveryReport, StreamConfig, StreamEngine};
use rwd_walks::WalkIndex;

use crate::config::*;
use crate::host;
use crate::load::{self, BatchSample, Dist, Kind, PhaseResult, QuerySample, Rng};
use crate::scrape::{Scrape, Window, PHASES};
use crate::trace::Tracer;
use crate::Report;

/// Everything one run carries: its arguments, tracer, scratch directory
/// and the report it fills.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    pub work: PathBuf,
    pub rep: Report,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(v: Vec<f64>) -> f64 {
    Dist::new(v).p(0.5)
}

fn engine_config(seed: u64) -> StreamConfig {
    StreamConfig {
        l: L,
        r: R,
        k: K,
        seed: load::derive(seed, WALK_TAG),
        rule: GainRule::HittingTime,
        threads: ENGINE_THREADS,
    }
}

/// The BA base graph and `batches` churn batches, all from the run seed.
fn inputs(seed: u64, batches: usize) -> TemporalTrace {
    temporal_trace(&TemporalTraceSpec {
        model: TraceModel::BarabasiAlbert { mdeg: MDEG },
        nodes: N,
        batches,
        batch_edits: BATCH_EDITS,
        delete_fraction: DELETE_FRACTION,
        seed: load::derive(seed, GRAPH_TAG),
    })
    .expect("the frozen trace spec is satisfiable")
}

/// The node every first answer asks about.
fn probe_node(seed: u64) -> NodeId {
    NodeId((load::derive(seed, PROBE_TAG) % N as u64) as u32)
}

/// Bitwise equality of two answers (`0.0` vs `-0.0` and NaNs differ).
fn same_value(a: &QueryValue, b: &QueryValue) -> bool {
    let f = |x: f64, y: f64| x.to_bits() == y.to_bits();
    match (a, b) {
        (QueryValue::Scalar(x), QueryValue::Scalar(y)) => f(*x, *y),
        (QueryValue::Ranked(x), QueryValue::Ranked(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.0 == q.0 && f(p.1, q.1))
        }
        (
            QueryValue::Seeds {
                seeds: s1,
                objective: o1,
            },
            QueryValue::Seeds {
                seeds: s2,
                objective: o2,
            },
        ) => s1 == s2 && f(*o1, *o2),
        _ => false,
    }
}

/// What the server answers for `q` on `snap` (the reference side of the
/// served-answer checks).
fn expected(snap: &Snapshot, q: &Query) -> QueryValue {
    match *q {
        Query::HitTime(v) => QueryValue::Scalar(snap.hit_time(v)),
        Query::HitProb(v) => QueryValue::Scalar(snap.hit_prob(v)),
        Query::Coverage => QueryValue::Scalar(snap.coverage()),
        Query::TopUncovered(m) => QueryValue::Ranked(snap.top_m_uncovered(m)),
        Query::Seeds => QueryValue::Seeds {
            seeds: snap.seeds().to_vec(),
            objective: snap.objective(),
        },
        Query::Metrics => unreachable!("the mix sends no metrics queries"),
    }
}

/// Starts a server over `engine` and waits for its first `HitTime`
/// answer. Returns the server, the answer and `Server::start` → answer.
fn start_server(ctx: &mut Ctx, engine: ServeEngine, probe: NodeId) -> (Server, QueryAnswer, f64) {
    let t0 = Instant::now();
    let span = ctx.tracer.begin("serve.start");
    let server = Server::start(engine, QUERY_WORKERS);
    ctx.tracer.end(span);
    let span = ctx.tracer.begin("serve.first_query");
    let answer = server
        .handle()
        .query(Query::HitTime(probe))
        .expect("a fresh server accepts queries")
        .wait();
    ctx.tracer.end(span);
    let first_ms = ms(t0.elapsed());
    ctx.rep.check_answer(&answer, "first answer");
    (server, answer, first_ms)
}

/// Runs `setup` `SETUPS` times and reports the median as `setup_s`,
/// keeping the last result; each earlier one goes to `discard` first.
fn setups<T>(
    ctx: &mut Ctx,
    mut setup: impl FnMut(&mut Ctx, usize, Instant) -> T,
    mut discard: impl FnMut(T),
) -> T {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let span = ctx.tracer.begin_request("bench.setup");
        let t0 = Instant::now();
        last = Some(setup(ctx, i, t0));
        times.push(t0.elapsed().as_secs_f64());
        ctx.tracer.end(span);
    }
    ctx.rep.info(format!("setup_s samples: {times:?}"));
    ctx.rep.set("setup_s", median(times), "s");
    last.expect("SETUPS >= 1")
}

/// Applies `batches` one at a time through the server (closed loop: each
/// waits for its publish), as set-up does, adding the registry deltas of
/// the batches to `window`.
fn apply_closed_loop(
    ctx: &mut Ctx,
    server: &Server,
    batches: &[EdgeBatch],
    window: &mut Window,
) -> Vec<BatchSample> {
    let handle = server.handle();
    let before = Scrape::take(&mut ctx.tracer);
    let samples = batches
        .iter()
        .map(|b| {
            let span = ctx.tracer.begin("serve.apply");
            let outcome = handle
                .apply(b.clone())
                .expect("a running server accepts batches")
                .wait();
            ctx.tracer.end(span);
            BatchSample {
                lag: Duration::ZERO,
                outcome,
                traced: ctx.tracer.is_on(),
            }
        })
        .collect();
    window.add(&before, &Scrape::take(&mut ctx.tracer));
    samples
}

/// Copies a data directory (files and one level of snapshot dirs).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read data dir") {
        let entry = entry.expect("read data dir entry");
        let dst = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).expect("copy data file");
            std::fs::File::open(&dst)
                .and_then(|f| f.sync_all())
                .expect("sync copied data file");
        }
    }
}

fn remove_dir(p: &Path) {
    if p.exists() {
        std::fs::remove_dir_all(p).expect("remove scratch data dir");
    }
}

fn unweighted_graph(snap: &Snapshot) -> CsrGraph {
    match snap.graph() {
        SnapshotGraph::Unweighted(g) => (**g).clone(),
        SnapshotGraph::Weighted(_) => unreachable!("unweighted workload"),
    }
}

/// The live engine's state just before it was dropped.
struct LiveRef {
    epoch: u64,
    seeds: Vec<NodeId>,
    objective: f64,
    first: QueryValue,
}

fn live_ref(server: &Server, probe: NodeId) -> LiveRef {
    let snap = server.handle().snapshot();
    let first = server
        .handle()
        .query(Query::HitTime(probe))
        .expect("server accepting")
        .wait();
    LiveRef {
        epoch: snap.epoch(),
        seeds: snap.seeds().to_vec(),
        objective: snap.objective(),
        first: first.value,
    }
}

/// One restart: a pristine, untimed copy of `pristine`, then open (mapped,
/// the default) → serve → first `HitTime` answered. Checks the recovered
/// state against the live engine's.
fn restart_once(
    ctx: &mut Ctx,
    pristine: &Path,
    copy: &Path,
    live: &LiveRef,
    replayed: u64,
    probe: NodeId,
    dcfg: DurabilityConfig,
) -> (Server, f64, RecoveryReport) {
    remove_dir(copy);
    copy_dir(pristine, copy);
    let span = ctx.tracer.begin_request("bench.restart");
    let t0 = Instant::now();
    let open = ctx.tracer.begin("stream.open_durable");
    let (engine, report) = ServeEngine::open_durable(copy, dcfg).expect("the data dir recovers");
    let load_end = t0 + Duration::from_secs_f64(report.snapshot_load_ms / 1e3);
    ctx.tracer.record("stream.recovery_load", t0, load_end);
    ctx.tracer.record(
        "stream.recovery_replay",
        load_end,
        load_end + Duration::from_secs_f64(report.replay_ms / 1e3),
    );
    ctx.tracer.end(open);
    let (server, answer, first_ms) = start_server(ctx, engine, probe);
    let ttfa = ms(t0.elapsed());
    ctx.tracer.end(span);
    let snap = server.handle().snapshot();
    let rep = &mut ctx.rep;
    rep.check(
        report.epochs_replayed == replayed,
        format!(
            "restart replays {replayed} epochs (got {})",
            report.epochs_replayed
        ),
    );
    rep.check(
        report.recovered_epoch == live.epoch && snap.epoch() == live.epoch,
        format!(
            "restart recovers epoch {} (got {})",
            live.epoch, report.recovered_epoch
        ),
    );
    rep.check(
        snap.seeds() == live.seeds,
        "restart seeds equal the live engine's",
    );
    rep.check(
        snap.objective().to_bits() == live.objective.to_bits(),
        "restart objective equals the live engine's bit for bit",
    );
    rep.check(
        same_value(&answer.value, &live.first),
        "restart first answer equals the live engine's bit for bit",
    );
    rep.first_answer_ms.push(first_ms);
    (server, ttfa, report)
}

/// Final seeds and objective, and a fixed sample of served answers, must
/// equal a cold `StreamEngine::new` on the final graph, bit for bit.
fn check_against_cold(ctx: &mut Ctx, server: &Server, served: &[&QuerySample]) {
    let snap = server.handle().snapshot();
    let span = ctx.tracer.begin("stream.cold_build");
    let cold = StreamEngine::new(unweighted_graph(&snap), engine_config(ctx.seed))
        .expect("cold engine on the final graph");
    ctx.tracer.end(span);
    let rep = &mut ctx.rep;
    rep.check(
        snap.seeds() == cold.seeds(),
        "final seeds equal a cold rebuild's",
    );
    rep.check(
        snap.objective().to_bits() == cold.objective().to_bits(),
        "final objective equals a cold rebuild's bit for bit",
    );
    let cold_snap = Snapshot::capture(&cold);
    let sample: Vec<&&QuerySample> = served.iter().step_by(EXACT_SAMPLE_EVERY).collect();
    let mut kinds = [0usize; 2];
    for s in &sample {
        rep.check(
            s.answer.epoch == snap.epoch(),
            "sampled answer served at the final epoch",
        );
        rep.check(
            same_value(&s.answer.value, &expected(&cold_snap, &s.query)),
            format!(
                "served {:?} equals the cold rebuild's answer bit for bit",
                s.query
            ),
        );
        kinds[(s.kind == Kind::Set) as usize] += 1;
    }
    rep.check(
        kinds[0] > 0 && kinds[1] > 0,
        "served-answer sample holds point and set queries",
    );
    rep.info(format!(
        "exactness: cold rebuild on the final graph (epoch {}); {} served answers compared ({} point, {} set)",
        snap.epoch(),
        sample.len(),
        kinds[0],
        kinds[1]
    ));
}

fn point_and_set<'a>(samples: &[&'a QuerySample]) -> (Vec<&'a QuerySample>, Vec<&'a QuerySample>) {
    samples.iter().copied().partition(|s| s.kind == Kind::Point)
}

/// Query latencies from due time (end-to-end) and the queue/service split.
fn query_metrics(ctx: &mut Ctx, what: &str, samples: &[&QuerySample]) {
    let (point, set) = point_and_set(samples);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let p_due: Vec<f64> = point.iter().map(|s| s.due_latency_us()).collect();
    let s_due: Vec<f64> = set.iter().map(|s| s.due_latency_us()).collect();
    let (p99, p_chunks) = load::chunked_p(&p_due, 0.99);
    let (s99, s_chunks) = load::chunked_p(&s_due, 0.99);
    let (p90, _) = load::chunked_p(&p_due, 0.9);
    let (s90, _) = load::chunked_p(&s_due, 0.9);
    let (p_due, s_due) = (Dist::new(p_due), Dist::new(s_due));
    let rep = &mut ctx.rep;
    rep.set("point_p50_us", p_due.p(0.5), "us");
    rep.set("point_p90_us", p90, "us");
    rep.set("set_p90_us", s90, "us");
    rep.set("point_p99_us", p99, "us");
    rep.set("set_p99_us", s99, "us");
    rep.info(format!(
        "{what}: point from due p50 {:.1} us (n={}), p99 {p99:.1} us (median of {p_chunks} chunk p99s; \
         whole-phase p99 {:.1}); set from due p50 {:.1} us (n={}), p99 {s99:.1} us ({s_chunks} chunks; \
         whole-phase {:.1})",
        p_due.p(0.5),
        p_due.n(),
        p_due.p(0.99),
        s_due.p(0.5),
        s_due.n(),
        s_due.p(0.99)
    ));
    let pq = Dist::new(point.iter().map(|s| us(s.answer.queue)).collect());
    let ps = Dist::new(point.iter().map(|s| us(s.answer.service)).collect());
    let ss = Dist::new(set.iter().map(|s| us(s.answer.service)).collect());
    rep.set("serve.point_queue_p50_us", pq.p(0.5), "us");
    rep.set("serve.point_queue_p99_us", pq.p(0.99), "us");
    rep.set("serve.point_service_p50_us", ps.p(0.5), "us");
    rep.set("serve.point_service_p99_us", ps.p(0.99), "us");
    rep.set("serve.set_service_p99_us", ss.p(0.99), "us");
}

/// Send lag and backlog of the workload's main open-loop phases.
fn generator_metrics(ctx: &mut Ctx, phases: &[&PhaseResult]) {
    let lag = Dist::new(
        phases
            .iter()
            .flat_map(|p| p.lags_us.iter().copied())
            .collect(),
    );
    let backlog = phases.iter().map(|p| p.backlog_max).max().unwrap_or(0);
    ctx.rep.set("bench.gen_lag_p99_us", lag.p(0.99), "us");
    ctx.rep.set("bench.backlog_max", backlog as f64, "count");
    ctx.rep.info(format!(
        "generator lateness: p50 {:.1} us, p99 {:.1} us, max {:.1} us (n={}); max backlog {backlog}",
        lag.p(0.5),
        lag.p(0.99),
        lag.p(1.0),
        lag.n()
    ));
}

/// Publish latency from due, the server's queue/service split, and the
/// engine's per-batch reports; phases from registry deltas over `window`,
/// in which only these batches ran.
fn batch_metrics(ctx: &mut Ctx, what: &str, batches: &[&BatchSample], window: &Window) {
    let rep = &mut ctx.rep;
    let due = Dist::new(batches.iter().map(|b| b.due_latency_ms()).collect());
    rep.set("publish_p50_ms", due.p(0.5), "ms");
    rep.set("publish_p90_ms", due.p(0.9), "ms");
    rep.info(format!(
        "{what}: publish from due p50 {:.2} ms, p90 {:.2} ms, max {:.2} ms (n={})",
        due.p(0.5),
        due.p(0.9),
        due.p(1.0),
        due.n()
    ));
    let queue = Dist::new(batches.iter().map(|b| ms(b.outcome.queue)).collect());
    let service: Vec<f64> = batches.iter().map(|b| ms(b.outcome.service)).collect();
    let service_total: f64 = service.iter().sum();
    rep.set("serve.batch_queue_p90_ms", queue.p(0.9), "ms");
    rep.set("serve.batch_service_p50_ms", median(service), "ms");

    let reports: Vec<_> = batches
        .iter()
        .filter_map(|b| b.outcome.report.as_ref().ok())
        .collect();
    let nb = reports.len().max(1) as f64;
    let skew = median(
        reports
            .iter()
            .map(|r| {
                let t: Vec<f64> = r.shards.iter().map(|s| s.refresh_ms).collect();
                let mean = t.iter().sum::<f64>() / t.len() as f64;
                t.iter().copied().fold(0.0, f64::max) / mean
            })
            .collect(),
    );
    rep.set("stream.shard_refresh_skew", skew, "ratio");
    rep.set(
        "walks.groups_resampled_per_batch",
        reports
            .iter()
            .map(|r| r.refresh.groups_resampled as f64)
            .sum::<f64>()
            / nb,
        "count",
    );
    rep.set(
        "core.maintain_warm_frac",
        reports.iter().filter(|r| r.maintain.warm).count() as f64 / nb,
        "ratio",
    );
    rep.set(
        "core.replayed_round_frac",
        reports
            .iter()
            .map(|r| r.maintain.replayed_rounds as f64)
            .sum::<f64>()
            / (nb * K as f64),
        "ratio",
    );

    let mut attributed_ns = 0u64;
    for (phase, _) in PHASES {
        let h = window.phase(phase);
        attributed_ns += h.sum;
        rep.set(
            &format!("stream.phase.{phase}_p50_ms"),
            h.quantile(0.5) / 1e6,
            "ms",
        );
        rep.info(format!(
            "phase {phase}: p50 {:.3} ms over {} samples, total {:.1} ms",
            h.quantile(0.5) / 1e6,
            h.count(),
            h.sum as f64 / 1e6
        ));
    }
    let snap_write = &window.snapshot_write;
    attributed_ns += snap_write.sum;
    rep.set(
        "stream.snapshot_write_ms",
        snap_write.quantile(0.5) / 1e6,
        "ms",
    );
    rep.set(
        "stream.journal_bytes_per_batch",
        window.journal_bytes as f64 / nb,
        "bytes",
    );
    let unattributed = 1.0 - attributed_ns as f64 / 1e6 / service_total;
    rep.set("stream.unattributed_frac", unattributed, "ratio");
    rep.info(format!(
        "{what}: {} batches, service total {:.1} ms, phases + {} snapshot writes {:.1} ms, unattributed {:.4}",
        reports.len(),
        service_total,
        snap_write.count(),
        attributed_ns as f64 / 1e6,
        unattributed
    ));
}

/// Which graph the direct layer calls run on.
#[derive(Clone, Copy)]
enum Base<'a> {
    Unweighted(&'a CsrGraph),
    Weighted(&'a WeightedCsrGraph),
}

/// Direct calls into `walks` and `core` (traced run only): index build,
/// selection and refresh at engine threads 2 and 1, each ratio with its
/// base, plus point lookups on a pinned snapshot.
fn layer_probes(ctx: &mut Ctx, base: Base<'_>, batches: &[EdgeBatch], pinned: &Snapshot) {
    let seed = load::derive(ctx.seed, WALK_TAG);
    let timed = |ctx: &mut Ctx, name: &'static str, f: &mut dyn FnMut() -> WalkIndex| {
        let span = ctx.tracer.begin(name);
        let t0 = Instant::now();
        let idx = f();
        let t = ms(t0.elapsed());
        ctx.tracer.end(span);
        (t, idx)
    };
    let build = |threads: usize| -> WalkIndex {
        match base {
            Base::Unweighted(g) => WalkIndex::build_with_threads(g, L, R, seed, threads),
            Base::Weighted(g) => WalkIndex::build_weighted_with_threads(g, L, R, seed, threads),
        }
    };
    let (b2, idx) = timed(ctx, "walks.build", &mut || build(ENGINE_THREADS));
    let (b1, idx1) = timed(ctx, "walks.build", &mut || build(1));
    ctx.rep
        .check(idx == idx1, "index build is thread-count invariant");
    drop(idx1);

    let select = |ctx: &mut Ctx, threads: usize| {
        let span = ctx.tracer.begin("core.select");
        let t0 = Instant::now();
        let sel = select_from_index(&idx, GainRule::HittingTime, K, Strategy::Delta, threads)
            .expect("valid selection parameters");
        let t = ms(t0.elapsed());
        ctx.tracer.end(span);
        (t, sel.nodes)
    };
    let (s2, seeds2) = select(ctx, ENGINE_THREADS);
    let (s1, seeds1) = select(ctx, 1);
    ctx.rep
        .check(seeds1 == seeds2, "selection is thread-count invariant");

    let refresh = |ctx: &mut Ctx, threads: usize| {
        let mut idx = idx.clone();
        let mut total = Duration::ZERO;
        let span = ctx.tracer.begin("walks.refresh");
        match base {
            Base::Unweighted(g) => {
                let mut g = g.clone();
                for b in batches {
                    let d = b.apply(&g).expect("trace batches are valid");
                    let t0 = Instant::now();
                    idx.refresh_with_threads(&d.graph, &d.touched, threads);
                    total += t0.elapsed();
                    g = d.graph;
                }
            }
            Base::Weighted(g) => {
                let mut g = g.clone();
                for b in batches {
                    let d = b.apply_weighted(&g).expect("trace batches are valid");
                    let t0 = Instant::now();
                    idx.refresh_weighted_with_threads(&d.graph, &d.touched, threads);
                    total += t0.elapsed();
                    g = d.graph;
                }
            }
        }
        ctx.tracer.end(span);
        (ms(total), idx)
    };
    let (r2, after2) = refresh(ctx, ENGINE_THREADS);
    let (r1, after1) = refresh(ctx, 1);
    ctx.rep
        .check(after1 == after2, "refresh is thread-count invariant");

    let rep = &mut ctx.rep;
    rep.set("walks.build_ms", b2, "ms");
    rep.set("walks.build_1t_ms", b1, "ms");
    rep.set("walks.build_speedup", b1 / b2, "ratio");
    rep.set("core.select_ms", s2, "ms");
    rep.set("core.select_1t_ms", s1, "ms");
    rep.set("core.select_speedup", s1 / s2, "ratio");
    rep.set("walks.refresh_ms", r2, "ms");
    rep.set("walks.refresh_1t_ms", r1, "ms");
    rep.set("walks.refresh_speedup", r1 / r2, "ratio");
    rep.info(format!(
        "thread scaling ({} cores): build {b1:.1} ms @1t / {b2:.1} ms @{ENGINE_THREADS}t = {:.2}x; \
         select {s1:.1} / {s2:.1} ms = {:.2}x; refresh of {} batches {r1:.1} / {r2:.1} ms = {:.2}x",
        crate::nproc(),
        b1 / b2,
        s1 / s2,
        batches.len(),
        r1 / r2
    ));

    let mut rng = Rng::new(load::derive(ctx.seed, POINT_TAG));
    let nodes: Vec<NodeId> = (0..POINT_PROBES)
        .map(|_| NodeId(rng.below(N as u64) as u32))
        .collect();
    let span = ctx.tracer.begin("walks.point");
    let t0 = Instant::now();
    let mut acc = 0.0;
    for (i, &v) in nodes.iter().enumerate() {
        acc += if i % 2 == 0 {
            pinned.hit_time(v)
        } else {
            pinned.hit_prob(v)
        };
    }
    std::hint::black_box(acc);
    let per = t0.elapsed().as_secs_f64() * 1e6 / POINT_PROBES as f64;
    ctx.tracer.end(span);
    ctx.rep.set("walks.point_us", per, "us");
}

/// Heap and mapped bytes of the served index.
fn storage_metrics(ctx: &mut Ctx, snap: &Snapshot) {
    let heap: usize = snap.shards().iter().map(|s| s.heap_bytes()).sum();
    let mapped: usize = snap.shards().iter().map(|s| s.mapped_bytes()).sum();
    ctx.rep.set("walks.heap_bytes", heap as f64, "bytes");
    ctx.rep.set("walks.mapped_bytes", mapped as f64, "bytes");
}

/// Direct `WalkIndex::open_mapped` of a snapshot's first shard file.
fn map_open_probe(ctx: &mut Ctx, snap_dir: &Path) {
    let file = snap_dir.join("shard-0.rwdidx");
    let mut times = Vec::new();
    for _ in 0..MAP_OPEN_PROBES {
        let span = ctx.tracer.begin("walks.open_mapped");
        let t0 = Instant::now();
        let idx = WalkIndex::open_mapped(&file).expect("snapshot shard maps");
        times.push(ms(t0.elapsed()));
        ctx.tracer.end(span);
        drop(idx);
    }
    ctx.rep.set("walks.map_open_ms", median(times), "ms");
}

/// The newest `snap-<epoch>` directory of a data dir.
fn newest_snapshot(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .expect("read data dir")
        .filter_map(|e| {
            let e = e.expect("data dir entry");
            let name = e.file_name().into_string().ok()?;
            let epoch: u64 = name.strip_prefix("snap-")?.parse().ok()?;
            Some((epoch, e.path()))
        })
        .max()
        .expect("a snapshot exists")
        .1
}

/// `traced - untraced` over `untraced`, from a within-run A/B split.
fn overhead(ctx: &mut Ctx, traced: Vec<f64>, untraced: Vec<f64>, what: &str) {
    let (t, u) = (Dist::new(traced), Dist::new(untraced));
    let frac = t.p(0.5) / u.p(0.5) - 1.0;
    ctx.rep.set("bench.trace_overhead_frac", frac, "ratio");
    ctx.rep.info(format!(
        "trace overhead on {what}: traced median {:.3} (n={}) vs untraced {:.3} (n={}) = {frac:+.4}",
        t.p(0.5),
        t.n(),
        u.p(0.5),
        u.n()
    ));
}

fn recovery_metrics(ctx: &mut Ctx, reports: &[RecoveryReport]) {
    let rep = &mut ctx.rep;
    rep.set(
        "stream.recovery_load_ms",
        median(reports.iter().map(|r| r.snapshot_load_ms).collect()),
        "ms",
    );
    rep.set(
        "stream.recovery_replay_ms",
        median(reports.iter().map(|r| r.replay_ms).collect()),
        "ms",
    );
    rep.set(
        "stream.epochs_replayed",
        reports.first().map_or(0, |r| r.epochs_replayed) as f64,
        "count",
    );
}

/// Writer phase samples recorded during the measured phase (zero when the
/// writer does no work there).
fn measured_phase_samples(ctx: &mut Ctx, before: &Scrape, after: &Scrape) {
    let mut w = Window::default();
    w.add(before, after);
    ctx.rep.set(
        "stream.phase_samples_measured",
        w.phase_samples() as f64,
        "count",
    );
}

fn capacity_phase(ctx: &mut Ctx, server: &Server, start_qps: f64, share: f64) -> load::Capacity {
    let step = Duration::from_secs_f64(ctx.seconds * share / CAPACITY_RUNGS as f64);
    let span = ctx.tracer.begin_request("bench.capacity");
    let cap = load::capacity(
        &server.handle(),
        load::derive(ctx.seed, CAPACITY_TAG),
        N,
        start_qps,
        step,
        POINT_LIMIT_US,
        &mut ctx.tracer,
    );
    ctx.tracer.end(span);
    for s in &cap.steps {
        ctx.rep.info(format!(
            "capacity rung {:.0} q/s for {:.2} s: point p99 from due {:.1} us (n={}, {} chunks), max backlog {} -> {}",
            s.qps,
            step.as_secs_f64(),
            s.point_p99_us,
            s.point_samples,
            s.chunks,
            s.backlog_max,
            if s.pass { "pass" } else { "fail" }
        ));
    }
    ctx.rep.info(format!(
        "query capacity {:.1} q/s (limit: point p99 from due <= {POINT_LIMIT_US} us; ladder from {start_qps} q/s)",
        cap.qps
    ));
    ctx.rep.set("query_capacity_qps", cap.qps, "q/s");
    for p in &cap.phases {
        ctx.rep.account(p);
    }
    cap
}

/// `query-mix`: 1 shard, in-memory engine behind `Server`; no churn in
/// the measured phase.
pub fn query_mix(ctx: &mut Ctx) {
    let trace = inputs(ctx.seed, QM_PREFIX_BATCHES);
    let cfg = engine_config(ctx.seed);
    let probe = probe_node(ctx.seed);
    let mut window = Window::default();
    let mut ttfa = Vec::new();
    let mut prefix: Vec<BatchSample> = Vec::new();
    let server = setups(
        ctx,
        |ctx, _, t0| {
            let span = ctx.tracer.begin("stream.build");
            let engine = ServeEngine::new(trace.base.clone(), cfg).expect("valid engine");
            ctx.tracer.end(span);
            let (server, _, first_ms) = start_server(ctx, engine, probe);
            // An in-memory server restarts by rebuilding from the graph.
            ttfa.push(ms(t0.elapsed()));
            ctx.rep.first_answer_ms.push(first_ms);
            prefix.extend(apply_closed_loop(ctx, &server, &trace.batches, &mut window));
            server
        },
        Server::shutdown,
    );
    // An in-memory restart beside the running server: rebuild from the
    // graph, serve, first answer.
    let restart = |ctx: &mut Ctx, ttfa: &mut Vec<f64>| {
        let span = ctx.tracer.begin_request("bench.restart");
        let t0 = Instant::now();
        let engine = ServeEngine::new(trace.base.clone(), cfg).expect("valid engine");
        let (restarted, _, first_ms) = start_server(ctx, engine, probe);
        ttfa.push(ms(t0.elapsed()));
        ctx.tracer.end(span);
        ctx.rep.first_answer_ms.push(first_ms);
        restarted.shutdown();
    };
    for _ in 0..QM_EXTRA_RESTARTS / 2 {
        restart(ctx, &mut ttfa);
    }
    let after_setup = Scrape::take(&mut ctx.tracer);
    for b in &prefix {
        ctx.rep.account_batch(b);
    }
    let prefix_refs: Vec<&BatchSample> = prefix.iter().collect();
    batch_metrics(
        ctx,
        "set-up churn prefix (closed loop)",
        &prefix_refs,
        &window,
    );

    host::reset_peak_rss();
    let fixed = Duration::from_secs_f64(ctx.seconds * QM_FIXED_SHARE);
    let mut rng = Rng::new(load::derive(ctx.seed, QUERY_TAG));
    let arrivals = load::poisson_queries(&mut rng, QM_NOMINAL_QPS, fixed, N);
    ctx.rep.info(format!(
        "fixed rate: {} queries at {QM_NOMINAL_QPS} q/s offered over {:.1} s",
        arrivals.len(),
        fixed.as_secs_f64()
    ));
    let span = ctx.tracer.begin_request("bench.fixed_rate");
    let res = load::run(
        &server.handle(),
        arrivals,
        &mut ctx.tracer,
        |i| (i / TRACE_BLOCK) % 2 == 1,
        DRAIN,
    );
    ctx.tracer.end(span);
    ctx.rep.account(&res);
    let all: Vec<&QuerySample> = res.queries.iter().collect();
    query_metrics(ctx, "fixed rate", &all);
    generator_metrics(ctx, &[&res]);
    let cap = capacity_phase(ctx, &server, QM_CAPACITY_START_QPS, QM_CAPACITY_SHARE);
    let measured = Scrape::take(&mut ctx.tracer);
    measured_phase_samples(ctx, &after_setup, &measured);
    ctx.rep.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    for _ in QM_EXTRA_RESTARTS / 2..QM_EXTRA_RESTARTS {
        restart(ctx, &mut ttfa);
    }
    ctx.rep.set("ttfa_ms", median(ttfa.clone()), "ms");
    ctx.rep.info(format!(
        "ttfa: in-memory restart = build from the graph in memory -> serve -> first answer, \
         {SETUPS} set-ups and {} restarts before the measured phase, {} after; samples {ttfa:?}",
        QM_EXTRA_RESTARTS / 2,
        QM_EXTRA_RESTARTS - QM_EXTRA_RESTARTS / 2
    ));

    if ctx.traced {
        let (on, off): (Vec<&QuerySample>, Vec<&QuerySample>) =
            point_and_set(&all).0.into_iter().partition(|s| s.traced);
        overhead(
            ctx,
            on.iter().map(|s| s.due_latency_us()).collect(),
            off.iter().map(|s| s.due_latency_us()).collect(),
            "point latency from due (us)",
        );
        let pinned = server.handle().snapshot();
        storage_metrics(ctx, &pinned);
        let dir = ctx.work.join("query-mix-index");
        std::fs::create_dir_all(&dir).expect("create index dir");
        pinned
            .index()
            .save_v4(dir.join("shard-0.rwdidx"))
            .expect("save index");
        map_open_probe(ctx, &dir);
        layer_probes(
            ctx,
            Base::Unweighted(&trace.base),
            &trace.batches[..REFRESH_PROBE_BATCHES],
            &pinned,
        );
        for name in ["stream.recovery_load_ms", "stream.recovery_replay_ms"] {
            ctx.rep.set(name, 0.0, "ms");
        }
        ctx.rep.set("stream.epochs_replayed", 0.0, "count");
    }
    let served: Vec<&QuerySample> = res
        .queries
        .iter()
        .chain(cap.phases.iter().flat_map(|p| p.queries.iter()))
        .collect();
    check_against_cold(ctx, &server, &served);
    server.shutdown();
}

/// `churn-publish`: 2 shards, durable (journal fsync'd per batch, snapshot
/// every `CP_SNAPSHOT_EVERY` batches); churn batches plus background
/// queries, open loop.
pub fn churn_publish(ctx: &mut Ctx) {
    let batches = CP_BATCHES;
    let trace = inputs(ctx.seed, batches);
    let cfg = engine_config(ctx.seed);
    let probe = probe_node(ctx.seed);
    let dcfg = DurabilityConfig {
        snapshot_every: CP_SNAPSHOT_EVERY,
    };
    let dirs: Vec<PathBuf> = (0..SETUPS)
        .map(|i| ctx.work.join(format!("churn-{i}")))
        .collect();
    let mut last_dir = 0;
    let server = setups(
        ctx,
        |ctx, i, _| {
            remove_dir(&dirs[i]);
            last_dir = i;
            let span = ctx.tracer.begin("stream.build");
            let stream = StreamEngine::with_shards(trace.base.clone(), cfg, CP_SHARDS)
                .expect("valid sharded engine");
            ctx.tracer.end(span);
            let span = ctx.tracer.begin("stream.create_durable");
            let engine =
                ServeEngine::create_durable(stream, &dirs[i], dcfg).expect("create data dir");
            ctx.tracer.end(span);
            let (server, _, first_ms) = start_server(ctx, engine, probe);
            ctx.rep.first_answer_ms.push(first_ms);
            server
        },
        Server::shutdown,
    );
    for d in &dirs[..last_dir] {
        remove_dir(d);
    }
    let dir = dirs[last_dir].clone();
    host::reset_peak_rss();

    let mut rng = Rng::new(load::derive(ctx.seed, BATCH_TAG));
    let batch_arrivals = load::poisson_batches(&mut rng, CP_BATCH_RATE, &trace.batches);
    let span_len = batch_arrivals.last().expect("batches").due;
    let mut rng = Rng::new(load::derive(ctx.seed, QUERY_TAG));
    let query_arrivals = load::poisson_queries(&mut rng, CP_QUERY_QPS, span_len, N);
    ctx.rep.info(format!(
        "churn: {batches} batches x {BATCH_EDITS} edits ({:.0}% deletes) at {CP_BATCH_RATE}/s offered, \
         {} background queries at {CP_QUERY_QPS} q/s, over {:.1} s; snapshot every {CP_SNAPSHOT_EVERY} batches",
        DELETE_FRACTION * 100.0,
        query_arrivals.len(),
        span_len.as_secs_f64()
    ));
    let arrivals = load::merge(batch_arrivals, query_arrivals);
    let before = Scrape::take(&mut ctx.tracer);
    let span = ctx.tracer.begin_request("bench.churn");
    let res = load::run(
        &server.handle(),
        arrivals,
        &mut ctx.tracer,
        |i| (i / TRACE_BLOCK) % 2 == 1,
        DRAIN,
    );
    ctx.tracer.end(span);
    let mut window = Window::default();
    window.add(&before, &Scrape::take(&mut ctx.tracer));
    ctx.rep.account(&res);
    let qs: Vec<&QuerySample> = res.queries.iter().collect();
    query_metrics(ctx, "background queries under churn", &qs);
    let bs: Vec<&BatchSample> = res.batches.iter().collect();
    batch_metrics(ctx, "churn (open loop)", &bs, &window);
    generator_metrics(ctx, &[&res]);
    let busy: f64 = bs
        .iter()
        .map(|b| b.outcome.service.as_secs_f64())
        .sum::<f64>()
        / res.elapsed.as_secs_f64();
    ctx.rep.info(format!(
        "writer busy {:.1}% of the churn phase",
        busy * 100.0
    ));

    let cap = capacity_phase(ctx, &server, CP_CAPACITY_START_QPS, CP_CAPACITY_SHARE);
    let end = Scrape::take(&mut ctx.tracer);
    measured_phase_samples(ctx, &before, &end);
    ctx.rep.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    let pinned = server.handle().snapshot();
    if ctx.traced {
        let (on, off): (Vec<&BatchSample>, Vec<&BatchSample>) =
            bs.iter().copied().partition(|b| b.traced);
        overhead(
            ctx,
            on.iter().map(|b| b.due_latency_ms()).collect(),
            off.iter().map(|b| b.due_latency_ms()).collect(),
            "publish latency from due (ms)",
        );
        storage_metrics(ctx, &pinned);
        layer_probes(
            ctx,
            Base::Unweighted(&trace.base),
            &trace.batches[..REFRESH_PROBE_BATCHES],
            &pinned,
        );
    }
    let served: Vec<&QuerySample> = cap.phases.iter().flat_map(|p| p.queries.iter()).collect();
    check_against_cold(ctx, &server, &served);
    ctx.rep.check(
        pinned.epoch() == batches as u64,
        format!("churn reaches epoch {batches}"),
    );
    drop(pinned);

    // Kill: the engine is dropped without a final snapshot; the data dir
    // holds the last periodic snapshot plus the journaled suffix.
    let live = live_ref(&server, probe);
    server.shutdown();
    let replayed = batches as u64 % CP_SNAPSHOT_EVERY;
    let copy = ctx.work.join("churn-restart");
    let mut ttfa = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..CP_RESTARTS {
        let (server, t, report) = restart_once(ctx, &dir, &copy, &live, replayed, probe, dcfg);
        ttfa.push(t);
        reports.push(report);
        server.shutdown();
    }
    ctx.rep.set("ttfa_ms", median(ttfa.clone()), "ms");
    ctx.rep.info(format!(
        "ttfa: restart of the churned data dir ({replayed} journaled epochs to replay); samples {ttfa:?}"
    ));
    recovery_metrics(ctx, &reports);
    if ctx.traced {
        map_open_probe(ctx, &newest_snapshot(&dir));
    }
}

/// `restart`: weighted twin, 1 shard, durable. Set-up applies `RS_S`
/// batches, snapshots, applies `RS_J` journaled batches and drops the
/// engine; the measured phase restarts from a pristine copy repeatedly.
pub fn restart(ctx: &mut Ctx) {
    let trace = inputs(ctx.seed, RS_S + RS_J);
    let wg = weighted_twin(&trace.base, load::derive(ctx.seed, GRAPH_TAG)).expect("weighted twin");
    let cfg = engine_config(ctx.seed);
    let probe = probe_node(ctx.seed);
    let dcfg = DurabilityConfig {
        snapshot_every: RS_S as u64,
    };
    let dirs: Vec<PathBuf> = (0..SETUPS)
        .map(|i| ctx.work.join(format!("restart-{i}")))
        .collect();
    let mut window = Window::default();
    let mut applied: Vec<BatchSample> = Vec::new();
    let (dir, live) = setups(
        ctx,
        |ctx, i, _| {
            remove_dir(&dirs[i]);
            let span = ctx.tracer.begin("stream.build");
            let stream =
                StreamEngine::new_weighted(wg.clone(), cfg).expect("valid weighted engine");
            ctx.tracer.end(span);
            let span = ctx.tracer.begin("stream.create_durable");
            let engine =
                ServeEngine::create_durable(stream, &dirs[i], dcfg).expect("create data dir");
            ctx.tracer.end(span);
            let (server, _, first_ms) = start_server(ctx, engine, probe);
            ctx.rep.first_answer_ms.push(first_ms);
            applied.extend(apply_closed_loop(ctx, &server, &trace.batches, &mut window));
            let live = live_ref(&server, probe);
            // Kill: no final snapshot, the last RS_J batches live only in
            // the journal.
            server.shutdown();
            (dirs[i].clone(), live)
        },
        |(d, _)| remove_dir(&d),
    );
    let after_setup = Scrape::take(&mut ctx.tracer);
    for b in &applied {
        ctx.rep.account_batch(b);
    }
    let refs: Vec<&BatchSample> = applied.iter().collect();
    batch_metrics(ctx, "set-up batches (closed loop)", &refs, &window);
    ctx.rep.check(
        live.epoch == (RS_S + RS_J) as u64,
        format!("set-up reaches epoch {}", RS_S + RS_J),
    );

    let copy = ctx.work.join("restart-copy");
    host::reset_peak_rss();
    let budget = Duration::from_secs_f64(ctx.seconds * RS_RESTART_SHARE);
    let t0 = Instant::now();
    let mut ttfa: Vec<(f64, bool)> = Vec::new();
    let mut reports = Vec::new();
    let mut bursts: Vec<PhaseResult> = Vec::new();
    let mut server = None;
    let traced_run = ctx.traced;
    while ttfa.len() < RS_MIN_RESTARTS || t0.elapsed() < budget {
        if let Some(s) = server.take() {
            Server::shutdown(s);
            host::trim_heap();
        }
        // Alternate traced and untraced restarts in the traced run.
        let traced = traced_run && ttfa.len() % 2 == 1;
        ctx.tracer.set_on(traced);
        let (s, t, report) = restart_once(ctx, &dir, &copy, &live, RS_J as u64, probe, dcfg);
        ttfa.push((t, traced));
        reports.push(report);
        let mut rng = Rng::new(load::derive(ctx.seed, BURST_TAG + ttfa.len() as u64));
        let span_len = Duration::from_secs_f64(RS_BURST_QUERIES as f64 / RS_BURST_QPS);
        let arrivals = load::poisson_queries(&mut rng, RS_BURST_QPS, span_len, N);
        let span = ctx.tracer.begin_request("bench.burst");
        bursts.push(load::run(
            &s.handle(),
            arrivals,
            &mut ctx.tracer,
            |_| true,
            DRAIN,
        ));
        ctx.tracer.end(span);
        server = Some(s);
    }
    ctx.tracer.set_on(traced_run);
    let server = server.expect("at least one restart");
    for b in &bursts {
        ctx.rep.account(b);
    }
    ctx.rep
        .set("ttfa_ms", median(ttfa.iter().map(|t| t.0).collect()), "ms");
    ctx.rep.info(format!(
        "ttfa: {} restarts of a weighted data dir with {RS_J} journaled epochs over a snapshot at epoch {RS_S}",
        ttfa.len()
    ));
    recovery_metrics(ctx, &reports);
    let loads = median(reports.iter().map(|r| r.snapshot_load_ms).collect());
    let replays = median(reports.iter().map(|r| r.replay_ms).collect());
    ctx.rep.info(format!(
        "restart split: snapshot load {loads:.1} ms, replay {replays:.1} ms of ttfa {:.1} ms",
        median(ttfa.iter().map(|t| t.0).collect())
    ));
    let qs: Vec<&QuerySample> = bursts.iter().flat_map(|b| b.queries.iter()).collect();
    query_metrics(ctx, "query bursts after each restart", &qs);
    let burst_refs: Vec<&PhaseResult> = bursts.iter().collect();
    generator_metrics(ctx, &burst_refs);
    capacity_phase(ctx, &server, RS_CAPACITY_START_QPS, RS_CAPACITY_SHARE);
    let end = Scrape::take(&mut ctx.tracer);
    measured_phase_samples(ctx, &after_setup, &end);
    ctx.rep.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    if traced_run {
        let split = |on: bool| ttfa.iter().filter(|t| t.1 == on).map(|t| t.0).collect();
        overhead(ctx, split(true), split(false), "ttfa (ms)");
        let pinned = server.handle().snapshot();
        storage_metrics(ctx, &pinned);
        map_open_probe(ctx, &newest_snapshot(&dir));
        layer_probes(
            ctx,
            Base::Weighted(&wg),
            &trace.batches[..REFRESH_PROBE_BATCHES],
            &pinned,
        );
    }
    server.shutdown();
}

impl Report {
    /// `queue + service == latency` on every answer.
    pub fn check_answer(&mut self, a: &QueryAnswer, what: &str) {
        self.check(
            a.queue + a.service == a.latency,
            format!("{what}: queue + service == latency"),
        );
    }

    /// Counts one phase's requests and checks every answer's timing split.
    pub fn account(&mut self, p: &PhaseResult) {
        self.attempted += p.attempted;
        self.errored += p.refused;
        self.pending += p.pending;
        for q in &p.queries {
            self.check_answer(&q.answer, "query");
            if q.invalid() {
                self.invalid += 1;
            } else {
                self.answered += 1;
            }
        }
        for b in &p.batches {
            self.attempted -= 1; // counted again below
            self.account_batch(b);
        }
    }

    pub fn account_batch(&mut self, b: &BatchSample) {
        self.attempted += 1;
        let o = &b.outcome;
        self.check(
            o.queue + o.service == o.latency,
            "batch: queue + service == latency",
        );
        match &o.report {
            Ok(_) => self.answered += 1,
            Err(_) => self.errored += 1,
        }
    }
}
