//! Scenario benchmark for the three user paths of `rwdom serve`: a query
//! submitted → answered, a churn batch submitted → its epoch published,
//! and a kill → the first answer after restart.
//!
//! ```text
//! cargo run --release --manifest-path scenario/Cargo.toml -- \
//!     --workload query-mix|churn-publish|restart --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is deterministic from `--seed` (graph, churn trace, query
//! stream and walk seed all derive from it) and open loop: requests go out
//! at seeded Poisson times whatever the server is doing, and latency is
//! timed from each request's due time. Every workload measures all three
//! paths on its own engine configuration; its `why` says which layers do
//! the work there. Outputs are checked bit for bit (a failed check exits
//! non-zero and names the check). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the same workload with spans recorded around
//! every call into a layer and prints the per-layer metrics instead,
//! writing the spans to `.scenario_work/spans-<workload>-seed<N>.jsonl`.
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod config;
mod host;
mod load;
mod scrape;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

use config::*;
use load::Dist;
use trace::Tracer;
use workloads::Ctx;

const USAGE: &str = "usage: rwd-scenario --workload <query-mix|churn-publish|restart> \
                     --seed <u64> --seconds <secs> --trace <0|1>";

/// Workloads and why each was chosen.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "query-mix",
        "1 shard in memory, no churn while measured: serve queue/worker/ticket and walks point \
         lookups do the query work; writer changes should leave its query metrics unchanged",
    ),
    (
        "churn-publish",
        "2 shards, journal fsync per batch: stage/journal/refresh/maintain/publish and the shard \
         coordinator do the work; background queries show writes beside reads",
    ),
    (
        "restart",
        "weighted twin, snapshot plus journal: mmap+CRC, journal scan and replay are the work of \
         each restart; the serve queue and steady churn are idle",
    ),
];

/// End-to-end metrics reported in the result (with `--trace 0`): the ones
/// steady enough across seeds on a 2-vCPU host to carry a regression
/// bound.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "point_p50_us",
    "publish_p50_ms",
    "ttfa_ms",
    "peak_rss_mb",
];

/// End-to-end figures printed beside them but left out of the result. The
/// tails follow the graph's hub structure (set-query and batch cost) and
/// vary by 30–40 % across seeds; the capacity search's crossing lands
/// wherever a host stall tips one rung, and its spread across seeds ran
/// from 0.07 to 0.27 between otherwise identical sets of runs. Neither
/// can carry a regression bound.
const PRINTED_ONLY: [&str; 6] = [
    "query_capacity_qps",
    "point_p90_us",
    "point_p99_us",
    "set_p90_us",
    "set_p99_us",
    "publish_p90_ms",
];

/// Per-layer metrics (printed with `--trace 1`), named by crate.
const PER_LAYER: [&str; 40] = [
    "bench.gen_lag_p99_us",
    "bench.backlog_max",
    "bench.trace_overhead_frac",
    "serve.point_queue_p50_us",
    "serve.point_queue_p99_us",
    "serve.point_service_p50_us",
    "serve.point_service_p99_us",
    "serve.set_service_p99_us",
    "serve.batch_queue_p90_ms",
    "serve.batch_service_p50_ms",
    "serve.first_answer_ms",
    "walks.point_us",
    "walks.groups_resampled_per_batch",
    "walks.map_open_ms",
    "walks.build_ms",
    "walks.build_1t_ms",
    "walks.build_speedup",
    "walks.refresh_ms",
    "walks.refresh_1t_ms",
    "walks.refresh_speedup",
    "walks.heap_bytes",
    "walks.mapped_bytes",
    "core.select_ms",
    "core.select_1t_ms",
    "core.select_speedup",
    "core.maintain_warm_frac",
    "core.replayed_round_frac",
    "stream.phase.stage_p50_ms",
    "stream.phase.journal_p50_ms",
    "stream.phase.refresh_p50_ms",
    "stream.phase.maintain_p50_ms",
    "stream.phase.publish_p50_ms",
    "stream.phase_samples_measured",
    "stream.shard_refresh_skew",
    "stream.journal_bytes_per_batch",
    "stream.snapshot_write_ms",
    "stream.unattributed_frac",
    "stream.recovery_load_ms",
    "stream.recovery_replay_ms",
    "stream.epochs_replayed",
];

/// What one run measured, the lines that describe it, and the outcome of
/// every check.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    info: Vec<String>,
    /// Failed checks by name, with how often each failed.
    failures: BTreeMap<String, usize>,
    pub attempted: usize,
    pub answered: usize,
    pub invalid: usize,
    pub errored: usize,
    pub pending: usize,
    pub first_answer_ms: Vec<f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    pub fn check(&mut self, ok: bool, name: impl Into<String>) {
        if !ok {
            *self.failures.entry(name.into()).or_insert(0) += 1;
        }
    }

    fn failed(&self) -> usize {
        self.invalid + self.errored + self.pending
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|w| w.0)
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".scenario_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).expect("create the scratch directory");
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        tracer: Tracer::new(args.trace),
        work: work.clone(),
        rep: Report::default(),
    };
    let why = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .expect("parsed workload")
        .1;
    println!("# workload {}: {why}", args.workload);
    println!(
        "# seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}); run length {} s; traced {}",
        args.seed, args.seconds, args.trace
    );
    println!(
        "# host: nproc {}; one process, 1 generator thread, {QUERY_WORKERS} query worker + 1 writer; \
         engine threads {ENGINE_THREADS}",
        nproc()
    );
    println!(
        "# scale: BA n={N} mdeg={MDEG}, L={L}, R={R}, k={K}, rule HittingTime; batches of {BATCH_EDITS} \
         edits; {SETUPS} set-ups per run"
    );

    let ticks_start = host::cpu_ticks();
    let keepers = host::IdleKeepers::start(nproc());
    println!(
        "# idle keepers: {}",
        if keepers.is_some() {
            "one SCHED_IDLE spinner per core keeps vCPUs from halting"
        } else {
            "unavailable on this platform"
        }
    );
    match args.workload {
        "query-mix" => workloads::query_mix(&mut ctx),
        "churn-publish" => workloads::churn_publish(&mut ctx),
        "restart" => workloads::restart(&mut ctx),
        _ => unreachable!("parse_args validates the workload"),
    }

    let first = Dist::new(std::mem::take(&mut ctx.rep.first_answer_ms));
    ctx.rep.set("serve.first_answer_ms", first.p(0.5), "ms");
    if args.trace {
        let path = root.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        ctx.tracer.write_jsonl(&path).expect("write the span file");
        ctx.rep.info(format!(
            "{} spans written to {}",
            ctx.tracer.span_count(),
            path.display()
        ));
        for s in ctx.tracer.self_times() {
            ctx.rep.info(format!(
                "span {:<24} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
                s.name, s.count, s.total_ms, s.self_ms
            ));
        }
    }
    if let Some(k) = keepers {
        k.stop();
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_start, host::cpu_ticks()) {
        ctx.rep.info(format!(
            "host steal: {:.2}% of CPU time during the run",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    std::fs::remove_dir_all(&work).expect("remove the scratch directory");
    // Leaves the root only when spans were written into it.
    let _ = std::fs::remove_dir(&root);

    let rep = &mut ctx.rep;
    for line in &rep.info {
        println!("# {line}");
    }
    println!(
        "# requests: attempted {}, answered {}, invalid {}, errored {}, pending at deadline {}; \
         failed_frac {}",
        rep.attempted,
        rep.answered,
        rep.invalid,
        rep.errored,
        rep.pending,
        rep.failed() as f64 / rep.attempted.max(1) as f64
    );
    if !args.trace {
        for name in END_TO_END.iter().chain(&PRINTED_ONLY) {
            if let Some((v, unit)) = rep.metrics.get(*name) {
                let note = if PRINTED_ONLY.contains(name) {
                    " (printed only)"
                } else {
                    ""
                };
                println!("# {name} = {v} {unit}{note}");
            }
        }
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &name in names {
        match rep.metrics.get(name) {
            Some(&(v, unit)) if v.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            Some(_) => rep.check(false, format!("metric {name} is finite")),
            None => rep.check(false, format!("metric {name} was measured")),
        }
    }
    for (name, count) in &rep.failures {
        eprintln!("check failed: {name} ({count}x)");
    }
    let correct = rep.failures.is_empty();
    if !correct {
        metrics.clear();
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed(),
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
