//! Frozen scale, sizing, rates and seeds. Rates are absolute and were set
//! once from measurements of the parent commit on a 2-vCPU x86-64 virtual
//! machine (query capacity about 10,000 q/s on every workload, batch
//! service about 100 ms); they are never derived from the run being
//! measured.

use std::time::Duration;

// Scale: the `perf` FULL constants (BA n = 50,000, mdeg 8, L = 10, R = 16,
// k = 20, rule HittingTime), so figures line up with BENCH_2–7.
pub const N: usize = 50_000;
pub const MDEG: usize = 8;
pub const L: u32 = 10;
pub const R: usize = 16;
pub const K: usize = 20;

// Sizing: one process, one generator thread, one query worker and the
// server's one writer; engine threads fixed.
pub const ENGINE_THREADS: usize = 2;
pub const QUERY_WORKERS: usize = 1;

/// Edits per churn batch and the share that are deletions.
pub const BATCH_EDITS: usize = 10;
pub const DELETE_FRACTION: f64 = 0.5;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The capacity search's latency limit on point p99, from due time. Set
/// queries take 0.5–1 ms of service each at this scale, and on a 2-vCPU
/// virtual machine a sleeping thread's wake-up alone runs 2–10 ms late at
/// p99, so a limit near 1 ms would measure the host's scheduler rather
/// than the load; 20 ms sits above both, where queueing takes over.
pub const POINT_LIMIT_US: f64 = 20_000.0;
/// Rungs a capacity search is expected to take; each runs for
/// `share × seconds / CAPACITY_RUNGS`.
pub const CAPACITY_RUNGS: usize = 8;

/// How long a phase waits for outstanding answers after its last send;
/// anything still unanswered then counts as failed.
pub const DRAIN: Duration = Duration::from_secs(30);
/// Traced runs alternate recorded and unrecorded blocks of this many
/// arrivals, for the within-run trace-overhead comparison.
pub const TRACE_BLOCK: usize = 256;
/// Every this-many-th served answer is compared against a cold rebuild.
pub const EXACT_SAMPLE_EVERY: usize = 97;
/// Direct point lookups timed on a pinned snapshot (traced run).
pub const POINT_PROBES: usize = 20_000;
/// Direct mapped opens timed (traced run); the median is reported.
pub const MAP_OPEN_PROBES: usize = 3;
/// Trace batches refreshed directly at 1 and 2 threads (traced run).
pub const REFRESH_PROBE_BATCHES: usize = 8;

// query-mix: 1 shard, in-memory.
/// Churn batches applied during set-up, before the measured phase.
pub const QM_PREFIX_BATCHES: usize = 17;
/// The fixed nominal rate: about a quarter of the parent's capacity. At
/// half, the one worker is busy about half the time with set queries, so
/// the median point query sits on the edge between waiting behind one and
/// not, and its p50 jumps between runs.
pub const QM_NOMINAL_QPS: f64 = 2_500.0;
/// `*_SHARE`: the fraction of `--seconds` a measured phase runs for.
/// On a shared 2-vCPU host the point p50 of back-to-back 4 s windows
/// wanders by a fifth with the neighbours' load, so the fixed phase runs
/// long enough to average a few such windows. The capacity ladders get
/// less time than the fixed phases: the capacity is printed but carries
/// no bound, and the run lengths of all workloads together must fit the
/// benchmark's time budget.
pub const QM_FIXED_SHARE: f64 = 0.6;
pub const QM_CAPACITY_SHARE: f64 = 0.4;
pub const QM_CAPACITY_START_QPS: f64 = 10_000.0;
/// In-memory restarts besides the set-ups (each set-up is one too), so
/// `ttfa_ms` is a median of eleven. Half run before the measured phase
/// and half after it, so the samples span the run: a rebuild is two
/// threads of CPU-bound work, and on a shared host its time drifts by
/// 10–20 % over tens of seconds.
pub const QM_EXTRA_RESTARTS: usize = 8;

// churn-publish: 2 shards, durable.
pub const CP_SHARDS: usize = 2;
/// Snapshot cadence: 100 batches leave snapshots at epochs 46 and 92 and
/// a journaled suffix of 8 for the restarts to replay.
pub const CP_SNAPSHOT_EVERY: u64 = 46;
/// Batch arrival rate: keeps the parent's writer under half busy (49 %
/// measured at 3.5/s); at 60 % queueing made publish latency swing by a
/// third between seeds.
pub const CP_BATCH_RATE: f64 = 3.0;
/// Background query rate: about a tenth of query capacity.
pub const CP_QUERY_QPS: f64 = 1_000.0;
/// Batches per run: enough for a p90 with ten samples beyond it. The
/// churn phase lasts as long as they take to arrive (about 33 s).
pub const CP_BATCHES: usize = 100;
pub const CP_CAPACITY_SHARE: f64 = 0.3;
pub const CP_CAPACITY_START_QPS: f64 = 10_000.0;
/// Restarts of the churned data dir; `ttfa_ms` is their median.
pub const CP_RESTARTS: usize = 5;

// restart: weighted twin, 1 shard, durable.
/// Batches before the snapshot (S) and journaled after it (J). With J = 4
/// the replay is about half of a restart and the snapshot load the other
/// half, and its cost averages over four batches rather than hanging on
/// whether one touches a hub.
pub const RS_S: usize = 16;
pub const RS_J: usize = 4;
pub const RS_RESTART_SHARE: f64 = 0.7;
pub const RS_CAPACITY_SHARE: f64 = 0.3;
pub const RS_MIN_RESTARTS: usize = 5;
/// Queries offered right after each restart's first answer.
pub const RS_BURST_QUERIES: usize = 256;
pub const RS_BURST_QPS: f64 = 2_000.0;
pub const RS_CAPACITY_START_QPS: f64 = 10_000.0;

/// The seed used while writing the benchmark, and one held out from it
/// for confirming later claims.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7_331;

// Independent streams derived from the run seed.
pub const GRAPH_TAG: u64 = 1;
pub const WALK_TAG: u64 = 2;
pub const QUERY_TAG: u64 = 3;
pub const BATCH_TAG: u64 = 4;
pub const CAPACITY_TAG: u64 = 5;
pub const PROBE_TAG: u64 = 6;
pub const POINT_TAG: u64 = 7;
pub const BURST_TAG: u64 = 1_000;
