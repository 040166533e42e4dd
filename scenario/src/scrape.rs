//! Reads of what the engine already emits: the process-wide `rwd-obs`
//! registry, scraped as Prometheus text the way `/metrics` serves it.

use rwd_obs::text::{histogram_snapshot, parse, Sample};
use rwd_obs::HistogramSnapshot;

use crate::trace::Tracer;

/// The batch-apply phases, as labelled in `rwd_stream_phase_ns`. Warm and
/// cold seed maintenance are two labels of the one `maintain` phase.
pub const PHASES: [(&str, &[&str]); 5] = [
    ("stage", &["stage"]),
    ("journal", &["journal"]),
    ("refresh", &["refresh"]),
    ("maintain", &["maintain_warm", "maintain_cold"]),
    ("publish", &["publish"]),
];

/// One point-in-time read of the global registry.
pub struct Scrape {
    samples: Vec<Sample>,
}

impl Scrape {
    pub fn take(tracer: &mut Tracer) -> Scrape {
        let span = tracer.begin("obs.scrape");
        let samples = parse(&rwd_obs::global().render()).expect("the registry renders valid text");
        tracer.end(span);
        Scrape { samples }
    }

    fn hist(&self, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
        histogram_snapshot(&self.samples, name, labels).unwrap_or_default()
    }

    /// A batch phase's histogram (its labels merged).
    pub fn phase(&self, phase: &str) -> HistogramSnapshot {
        let labels = PHASES
            .iter()
            .find(|(p, _)| *p == phase)
            .expect("known phase")
            .1;
        let mut out = HistogramSnapshot::empty();
        for l in labels {
            out.merge(&self.hist("rwd_stream_phase_ns", &[("phase", l)]));
        }
        out
    }

    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.hist(name, &[])
    }

    /// An unlabelled counter's value (0 before first registration).
    pub fn counter(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .and_then(|s| s.exact)
            .unwrap_or(0)
    }
}

/// Registry deltas summed over one or more windows in which only the
/// batches being measured ran.
#[derive(Default)]
pub struct Window {
    phases: [HistogramSnapshot; 5],
    pub snapshot_write: HistogramSnapshot,
    pub journal_bytes: u64,
}

impl Window {
    /// Adds what happened between two scrapes.
    pub fn add(&mut self, before: &Scrape, after: &Scrape) {
        for (acc, (phase, _)) in self.phases.iter_mut().zip(PHASES) {
            acc.merge(&delta(&after.phase(phase), &before.phase(phase)));
        }
        let name = "rwd_durable_snapshot_write_ns";
        self.snapshot_write
            .merge(&delta(&after.histogram(name), &before.histogram(name)));
        let name = "rwd_durable_journal_bytes_total";
        self.journal_bytes += after.counter(name) - before.counter(name);
    }

    /// One phase's samples over the window.
    pub fn phase(&self, phase: &str) -> &HistogramSnapshot {
        let i = PHASES
            .iter()
            .position(|(p, _)| *p == phase)
            .expect("known phase");
        &self.phases[i]
    }

    /// Phase samples recorded in the window, all phases.
    pub fn phase_samples(&self) -> u64 {
        self.phases.iter().map(HistogramSnapshot::count).sum()
    }
}

/// `after − before`, bucket by bucket.
pub fn delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = after.clone();
    for (d, b) in out.buckets.iter_mut().zip(&before.buckets) {
        *d -= b;
    }
    out.sum -= before.sum;
    out
}
