//! Server telemetry: counters, latency percentiles and the batch-size histogram.

use crate::health::WorkerHealth;
use mnn_obs::{Histogram, SloConfig, SloSnapshot, SloTracker};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Most recent served requests retained for percentile estimation. A bounded
/// ring keeps the snapshot O(1) in memory under sustained traffic and biases
/// percentiles toward *current* behavior rather than startup noise.
const LATENCY_WINDOW: usize = 16_384;

/// The times of one served request, milliseconds: end-to-end latency
/// (enqueue → response), queue wait (enqueue → dequeue) and batch assembly
/// (dequeue → inference start).
#[derive(Clone, Copy)]
pub(crate) struct Served {
    pub(crate) latency_ms: f64,
    pub(crate) queue_wait_ms: f64,
    pub(crate) batch_assembly_ms: f64,
}

struct StatsInner {
    submitted: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    /// Queued requests failed with `ShuttingDown` when a drain deadline evicted
    /// them.
    aborted: u64,
    /// Worker panics contained by the batch loop / joined at shutdown.
    worker_panics: u64,
    /// The most recent served requests.
    window: VecDeque<Served>,
    /// `batch_histogram[k - 1]` counts executed batches of size `k`.
    batch_histogram: Vec<u64>,
    /// SLO minute-buckets; every batch member's latency/outcome feeds them.
    slo: Option<SloTracker>,
}

/// Handles into the process-wide `mnn_obs` registry, registered once per
/// server so the per-request path never touches the registry lock. Every
/// series carries the served graph's name as its `model` label.
struct ModelMetrics {
    requests: mnn_obs::Counter,
    completed: mnn_obs::Counter,
    errors: mnn_obs::Counter,
    rejected: mnn_obs::Counter,
    aborted: mnn_obs::Counter,
    worker_panics: mnn_obs::Counter,
    latency_ms: Histogram,
    batch_size: Histogram,
    queue_wait_ms: Histogram,
    batch_assembly_ms: Histogram,
    traces: mnn_obs::Counter,
}

impl ModelMetrics {
    fn register(model: &str) -> Self {
        use mnn_obs::metrics::{names, BATCH_SIZE_BUCKETS, LATENCY_MS_BUCKETS};
        let global = mnn_obs::global();
        let labels = [("model", model)];
        let counter = |name, help| global.counter_with(name, help, &labels);
        let histogram = |name, help, buckets| global.histogram_with(name, help, &labels, buckets);
        ModelMetrics {
            requests: counter(
                names::INFER_REQUESTS,
                "Requests accepted into a serve queue.",
            ),
            completed: counter(names::INFER_COMPLETED, "Requests answered successfully."),
            errors: counter(
                names::INFER_ERRORS,
                "Requests answered with an inference error.",
            ),
            rejected: counter(
                names::INFER_REJECTED,
                "Submissions rejected with QueueFull backpressure.",
            ),
            aborted: counter(
                names::INFER_ABORTED,
                "Queued requests failed with ShuttingDown at drain eviction.",
            ),
            worker_panics: counter(
                names::WORKER_PANICS,
                "Worker panics contained by the serving runtime.",
            ),
            latency_ms: histogram(
                names::INFER_LATENCY_MS,
                "End-to-end request latency (enqueue to response), milliseconds.",
                LATENCY_MS_BUCKETS,
            ),
            batch_size: histogram(
                names::BATCH_SIZE,
                "Executed micro-batch sizes.",
                BATCH_SIZE_BUCKETS,
            ),
            queue_wait_ms: histogram(
                names::QUEUE_WAIT_MS,
                "Time requests spent waiting in serve queues, milliseconds.",
                LATENCY_MS_BUCKETS,
            ),
            batch_assembly_ms: histogram(
                names::BATCH_ASSEMBLY_MS,
                "Time from dequeue to inference start (stacking, geometry), milliseconds.",
                LATENCY_MS_BUCKETS,
            ),
            traces: counter(
                names::TRACES_RECORDED,
                "Request traces completed by the flight recorder.",
            ),
        }
    }
}

/// Thread-safe collector the server and its workers write into.
pub(crate) struct StatsCollector {
    inner: Mutex<StatsInner>,
    metrics: ModelMetrics,
    started: Instant,
}

impl StatsCollector {
    /// A collector for the model named `model` (the `model` label of its
    /// series), tracking `slo` when given.
    pub(crate) fn new(model: &str, max_batch: usize, slo: Option<SloConfig>) -> Self {
        StatsCollector {
            inner: Mutex::new(StatsInner {
                submitted: 0,
                completed: 0,
                failed: 0,
                rejected: 0,
                aborted: 0,
                worker_panics: 0,
                window: VecDeque::new(),
                batch_histogram: vec![0; max_batch.max(1)],
                slo: slo.map(SloTracker::new),
            }),
            metrics: ModelMetrics::register(model),
            started: Instant::now(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StatsInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn record_submitted(&self) {
        self.lock().submitted += 1;
        self.metrics.requests.inc();
    }

    pub(crate) fn record_rejected(&self) {
        self.lock().rejected += 1;
        self.metrics.rejected.inc();
    }

    /// Record queued requests evicted with `ShuttingDown` at the drain
    /// deadline.
    pub(crate) fn record_aborted(&self, count: usize) {
        self.lock().aborted += count as u64;
        self.metrics.aborted.add(count as u64);
    }

    /// Record one contained worker panic.
    pub(crate) fn record_worker_panic(&self) {
        self.lock().worker_panics += 1;
        self.metrics.worker_panics.inc();
    }

    /// Record one executed batch and each of its members: the batch-size
    /// histogram, the outcome counters, the per-request ring, the
    /// Prometheus histograms and the SLO buckets, under one lock. A member
    /// with a trace id attaches it to its histogram buckets as their
    /// exemplar, so `/metrics` points straight at a representative trace.
    pub(crate) fn record_batch(&self, members: &[(Served, Option<String>)], ok: bool) {
        let size = members.len();
        if size == 0 {
            return;
        }
        let mut inner = self.lock();
        let slot = size.min(inner.batch_histogram.len()) - 1;
        inner.batch_histogram[slot] += 1;
        if ok {
            inner.completed += size as u64;
            self.metrics.completed.add(size as u64);
        } else {
            inner.failed += size as u64;
            self.metrics.errors.add(size as u64);
        }
        self.metrics.batch_size.observe(size as f64);
        for (served, trace_id) in members {
            if inner.window.len() == LATENCY_WINDOW {
                inner.window.pop_front();
            }
            inner.window.push_back(*served);
            let trace_id = trace_id.as_deref();
            observe(&self.metrics.latency_ms, served.latency_ms, trace_id);
            observe(&self.metrics.queue_wait_ms, served.queue_wait_ms, trace_id);
            observe(
                &self.metrics.batch_assembly_ms,
                served.batch_assembly_ms,
                trace_id,
            );
            if let Some(slo) = inner.slo.as_mut() {
                slo.record(served.latency_ms, ok);
            }
        }
    }

    /// Count one request trace sealed into the flight recorder.
    pub(crate) fn record_trace_finished(&self) {
        self.metrics.traces.inc();
    }

    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        workers: usize,
        health: Option<&WorkerHealth>,
    ) -> ServerStats {
        let inner = self.lock();
        let uptime_ms = self.started.elapsed().as_secs_f64() * 1000.0;
        let sorted = |field: fn(&Served) -> f64| {
            let mut values: Vec<f64> = inner.window.iter().map(field).collect();
            values.sort_by(f64::total_cmp);
            values
        };
        let latency = sorted(|t| t.latency_ms);
        let queue_wait = sorted(|t| t.queue_wait_ms);
        let assembly = sorted(|t| t.batch_assembly_ms);
        let batches: u64 = inner.batch_histogram.iter().sum();
        let batched_requests: u64 = inner
            .batch_histogram
            .iter()
            .enumerate()
            .map(|(i, &count)| (i as u64 + 1) * count)
            .sum();
        ServerStats {
            workers,
            submitted: inner.submitted,
            completed: inner.completed,
            failed: inner.failed,
            rejected: inner.rejected,
            aborted: inner.aborted,
            worker_panics: inner.worker_panics,
            queue_depth,
            uptime_ms,
            uptime_seconds: uptime_ms / 1000.0,
            throughput_rps: if uptime_ms > 0.0 {
                inner.completed as f64 / (uptime_ms / 1000.0)
            } else {
                0.0
            },
            mean_latency_ms: mean(&latency),
            p50_latency_ms: percentile(&latency, 50.0),
            p99_latency_ms: percentile(&latency, 99.0),
            queue_wait_p50_ms: percentile(&queue_wait, 50.0),
            queue_wait_p99_ms: percentile(&queue_wait, 99.0),
            batch_assembly_p50_ms: percentile(&assembly, 50.0),
            batch_assembly_p99_ms: percentile(&assembly, 99.0),
            mean_batch_size: if batches > 0 {
                batched_requests as f64 / batches as f64
            } else {
                0.0
            },
            batch_histogram: inner
                .batch_histogram
                .iter()
                .enumerate()
                .filter(|(_, &count)| count > 0)
                .map(|(i, &count)| (i + 1, count))
                .collect(),
            stalled_workers: health.map_or(0, WorkerHealth::stalled_count),
            worker_states: health.map_or_else(Vec::new, |h| {
                h.states().iter().map(|s| s.as_str().to_string()).collect()
            }),
            slo: inner.slo.as_ref().map(SloTracker::snapshot),
        }
    }
}

fn observe(histogram: &Histogram, value: f64, trace_id: Option<&str>) {
    match trace_id {
        Some(id) => histogram.observe_with_exemplar(value, id),
        None => histogram.observe(value),
    }
}

fn mean(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A point-in-time snapshot of server behavior, returned by
/// [`Server::stats`](crate::Server::stats).
///
/// The struct is `serde::Serialize`, and the serialized field set is part of
/// the `/v1/models/{name}/stats` HTTP contract — a unit test pins the exact
/// JSON shape so it cannot drift silently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Number of worker threads.
    pub workers: usize,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an inference error.
    pub failed: u64,
    /// Submissions refused with [`ServeError::QueueFull`](crate::ServeError::QueueFull).
    ///
    /// Cumulative since startup — together with [`ServerStats::failed`]
    /// (inference errors) these are the server's error totals.
    pub rejected: u64,
    /// Queued requests failed with
    /// [`ServeError::ShuttingDown`](crate::ServeError::ShuttingDown) because a
    /// drain deadline evicted them before a worker picked them up.
    pub aborted: u64,
    /// Worker panics contained by the serving runtime (each also fails its
    /// batch, counted under [`ServerStats::failed`]).
    pub worker_panics: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: usize,
    /// Milliseconds since the server started.
    pub uptime_ms: f64,
    /// Seconds since the server started (`uptime_ms / 1000`, for dashboards).
    pub uptime_seconds: f64,
    /// Completed requests per second since startup.
    pub throughput_rps: f64,
    /// Mean end-to-end latency (enqueue → response) over the recent window.
    pub mean_latency_ms: f64,
    /// Median end-to-end latency over the recent window.
    pub p50_latency_ms: f64,
    /// 99th-percentile end-to-end latency over the recent window.
    pub p99_latency_ms: f64,
    /// Median time requests spent waiting in the queue (enqueue → dequeue)
    /// over the recent window.
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile queue wait over the recent window.
    pub queue_wait_p99_ms: f64,
    /// Median time from dequeue to inference start (batch-window wait,
    /// stacking, geometry) over the recent window — the latency a request
    /// pays for micro-batching.
    pub batch_assembly_p50_ms: f64,
    /// 99th-percentile batch-assembly time over the recent window.
    pub batch_assembly_p99_ms: f64,
    /// Mean number of requests coalesced per executed batch.
    pub mean_batch_size: f64,
    /// `(batch_size, executed_batches)` pairs, ascending, zero entries omitted.
    pub batch_histogram: Vec<(usize, u64)>,
    /// Workers currently flagged stalled by the health watchdog (heartbeat
    /// older than the configured deadline while not idle). Zero on a healthy
    /// server.
    pub stalled_workers: usize,
    /// Every worker's last-stamped state (`"idle"`, `"batching"` or
    /// `"running"`), in worker-index order.
    pub worker_states: Vec<String>,
    /// SLO compliance over the rolling one-hour window, when an
    /// [`SloConfig`](mnn_obs::SloConfig) was attached via
    /// [`ServerBuilder::slo`](crate::ServerBuilder::slo).
    pub slo: Option<SloSnapshot>,
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workers {} ({} stalled) | submitted {} | completed {} | failed {} | rejected {} \
             | aborted {} | panics {} | queued {}",
            self.workers,
            self.stalled_workers,
            self.submitted,
            self.completed,
            self.failed,
            self.rejected,
            self.aborted,
            self.worker_panics,
            self.queue_depth
        )?;
        writeln!(
            f,
            "throughput {:.1} req/s | latency mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms",
            self.throughput_rps, self.mean_latency_ms, self.p50_latency_ms, self.p99_latency_ms
        )?;
        writeln!(
            f,
            "queue wait p50 {:.3} ms, p99 {:.3} ms | batch assembly p50 {:.3} ms, p99 {:.3} ms",
            self.queue_wait_p50_ms,
            self.queue_wait_p99_ms,
            self.batch_assembly_p50_ms,
            self.batch_assembly_p99_ms
        )?;
        write!(f, "batches (size×count):")?;
        if self.batch_histogram.is_empty() {
            write!(f, " none")?;
        }
        for (size, count) in &self.batch_histogram {
            write!(f, " {size}×{count}")?;
        }
        write!(f, " | mean batch {:.2}", self.mean_batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(
        latency_ms: f64,
        queue_wait_ms: f64,
        trace_id: Option<&str>,
    ) -> (Served, Option<String>) {
        let served = Served {
            latency_ms,
            queue_wait_ms,
            batch_assembly_ms: queue_wait_ms / 10.0,
        };
        (served, trace_id.map(str::to_string))
    }

    fn members(latencies_ms: &[f64]) -> Vec<(Served, Option<String>)> {
        latencies_ms.iter().map(|&l| member(l, 0.0, None)).collect()
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn batches_feed_histogram_and_counters() {
        let stats = StatsCollector::new("stats-test", 4, None);
        stats.record_submitted();
        stats.record_submitted();
        stats.record_submitted();
        stats.record_batch(&members(&[1.0, 2.0]), true);
        stats.record_batch(&members(&[3.0]), true);
        stats.record_batch(&[member(4.0, 0.0, Some("deadbeef"))], false);
        let snap = stats.snapshot(5, 2, None);
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.queue_depth, 5);
        assert_eq!(snap.workers, 2);
        assert_eq!(snap.batch_histogram, vec![(1, 2), (2, 1)]);
        assert!((snap.mean_batch_size - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(snap.p50_latency_ms, 2.0);
    }

    #[test]
    fn panics_and_evictions_become_counters() {
        let stats = StatsCollector::new("stats-test", 2, None);
        stats.record_worker_panic();
        stats.record_aborted(3);
        let snap = stats.snapshot(0, 1, None);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.aborted, 3);
        assert!(snap.uptime_seconds >= 0.0);
        assert!((snap.uptime_seconds - snap.uptime_ms / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn stage_waits_surface_as_percentiles() {
        let stats = StatsCollector::new("stats-test", 4, None);
        for wait in [1.0, 2.0, 3.0, 4.0] {
            stats.record_batch(&[member(wait, wait, None)], true);
        }
        stats.record_batch(&[member(100.0, 100.0, Some("deadbeef"))], true);
        let snap = stats.snapshot(0, 1, None);
        assert_eq!(snap.queue_wait_p50_ms, 3.0);
        assert_eq!(snap.queue_wait_p99_ms, 100.0);
        assert_eq!(snap.batch_assembly_p50_ms, 0.3);
        assert_eq!(snap.batch_assembly_p99_ms, 10.0);
    }

    #[test]
    fn oversized_batches_fold_into_last_bucket() {
        let stats = StatsCollector::new("stats-test", 2, None);
        stats.record_batch(&members(&[1.0, 1.0, 1.0]), true); // size 3 with max_batch 2
        let snap = stats.snapshot(0, 1, None);
        assert_eq!(snap.batch_histogram, vec![(2, 1)]);
    }

    /// Pins the exact JSON rendering of `ServerStats`. The `/stats` HTTP
    /// endpoint serializes this struct verbatim, so any field rename, reorder
    /// or type change is a wire-format break and must fail here first.
    #[test]
    fn json_shape_is_pinned() {
        let stats = ServerStats {
            workers: 2,
            submitted: 10,
            completed: 8,
            failed: 1,
            rejected: 1,
            aborted: 2,
            worker_panics: 1,
            queue_depth: 3,
            uptime_ms: 1500.0,
            uptime_seconds: 1.5,
            throughput_rps: 5.5,
            mean_latency_ms: 2.25,
            p50_latency_ms: 2.0,
            p99_latency_ms: 4.5,
            queue_wait_p50_ms: 0.5,
            queue_wait_p99_ms: 1.75,
            batch_assembly_p50_ms: 0.25,
            batch_assembly_p99_ms: 0.75,
            mean_batch_size: 1.5,
            batch_histogram: vec![(1, 4), (2, 2)],
            stalled_workers: 1,
            worker_states: vec!["running".into(), "idle".into()],
            slo: None,
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert_eq!(
            json,
            concat!(
                "{\"workers\":2,\"submitted\":10,\"completed\":8,\"failed\":1,",
                "\"rejected\":1,\"aborted\":2,\"worker_panics\":1,",
                "\"queue_depth\":3,\"uptime_ms\":1500.0,\"uptime_seconds\":1.5,",
                "\"throughput_rps\":5.5,\"mean_latency_ms\":2.25,",
                "\"p50_latency_ms\":2.0,\"p99_latency_ms\":4.5,",
                "\"queue_wait_p50_ms\":0.5,\"queue_wait_p99_ms\":1.75,",
                "\"batch_assembly_p50_ms\":0.25,\"batch_assembly_p99_ms\":0.75,",
                "\"mean_batch_size\":1.5,\"batch_histogram\":[[1,4],[2,2]],",
                "\"stalled_workers\":1,\"worker_states\":[\"running\",\"idle\"],",
                "\"slo\":null}"
            )
        );
        let back: ServerStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn display_is_human_readable() {
        let stats = StatsCollector::new("stats-test", 4, None);
        stats.record_batch(&members(&[1.0, 2.0, 3.0, 4.0]), true);
        let text = stats.snapshot(0, 2, None).to_string();
        assert!(text.contains("throughput"));
        assert!(text.contains("queue wait"));
        assert!(text.contains("4×1"));
    }
}
