//! Rolling-window SLO tracking: availability and latency objectives.
//!
//! An [`SloTracker`] keeps a ring of one-minute buckets (one hour of history)
//! counting requests, errors, and requests slower than the latency objective.
//! [`SloTracker::snapshot`] rolls the live window up into observed
//! availability, latency compliance, and **burn rates** — how fast the error
//! budget is being consumed (1.0 = exactly on budget; >1.0 = burning faster
//! than the objective allows; sustained 14.4 means a 30-day budget is gone in
//! ~2 days, the classic page-now threshold).
//!
//! The tracker is plain data and recording does not allocate; its owner
//! serializes access (`mnn-serve` keeps it inside each server's stats lock,
//! and the status surfaces read it through `ServerStats::slo`).
//!
//! ```
//! use mnn_obs::slo::{SloConfig, SloTracker};
//! let mut tracker = SloTracker::new(SloConfig { latency_p99_ms: 50.0, availability: 0.999 });
//! tracker.record(3.2, true);
//! tracker.record(80.0, true); // over the latency objective
//! let snap = tracker.snapshot();
//! assert_eq!(snap.requests, 2);
//! assert_eq!(snap.latency_over_objective, 1);
//! ```

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Size of the rolling window, in one-minute buckets.
pub const SLO_WINDOW_MINUTES: usize = 60;

/// The objectives a model is served under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloConfig {
    /// Latency objective: the p99 target in milliseconds. Compliance tracks
    /// the fraction of requests at or under this bound (which must be ≥ 0.99
    /// for a true p99 objective to hold).
    pub latency_p99_ms: f64,
    /// Availability objective, as a fraction (e.g. `0.999`).
    pub availability: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            latency_p99_ms: 250.0,
            availability: 0.999,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    /// Minute index (since tracker creation) these counts belong to; a bucket
    /// whose minute is stale is reset on first touch of a new minute.
    minute: u64,
    requests: u64,
    errors: u64,
    over_latency: u64,
}

/// Rolling-window availability + latency tracking against an [`SloConfig`].
#[derive(Debug)]
pub struct SloTracker {
    config: SloConfig,
    epoch: Instant,
    buckets: [Bucket; SLO_WINDOW_MINUTES],
}

impl SloTracker {
    /// A fresh tracker with an empty window.
    pub fn new(config: SloConfig) -> Self {
        SloTracker {
            config,
            epoch: Instant::now(),
            buckets: [Bucket::default(); SLO_WINDOW_MINUTES],
        }
    }

    /// The configured objectives.
    pub fn config(&self) -> SloConfig {
        self.config
    }

    /// Record one finished request: its end-to-end latency and whether it
    /// succeeded.
    pub fn record(&mut self, latency_ms: f64, ok: bool) {
        let minute = self.epoch.elapsed().as_secs() / 60;
        let bucket = &mut self.buckets[(minute as usize) % SLO_WINDOW_MINUTES];
        if bucket.minute != minute {
            *bucket = Bucket {
                minute,
                ..Bucket::default()
            };
        }
        bucket.requests += 1;
        if !ok {
            bucket.errors += 1;
        }
        if latency_ms > self.config.latency_p99_ms {
            bucket.over_latency += 1;
        }
    }

    /// Roll the live window up into compliance figures.
    pub fn snapshot(&self) -> SloSnapshot {
        let now_minute = self.epoch.elapsed().as_secs() / 60;
        let oldest_live = now_minute.saturating_sub(SLO_WINDOW_MINUTES as u64 - 1);
        let (mut requests, mut errors, mut over) = (0u64, 0u64, 0u64);
        for bucket in &self.buckets {
            // A bucket whose minute scrolled out of the window is dead weight
            // until the next record into its slot resets it; skip it here.
            if bucket.minute >= oldest_live && bucket.minute <= now_minute {
                requests += bucket.requests;
                errors += bucket.errors;
                over += bucket.over_latency;
            }
        }
        // Empty windows are healthy: no traffic means no budget burned.
        let availability = if requests == 0 {
            1.0
        } else {
            1.0 - errors as f64 / requests as f64
        };
        let latency_compliance = if requests == 0 {
            1.0
        } else {
            1.0 - over as f64 / requests as f64
        };
        // Burn rate: observed failure fraction over the allowed failure
        // fraction. The availability budget comes from the config; the
        // latency budget for a p99 objective is fixed at 1%.
        let availability_budget = (1.0 - self.config.availability).max(1e-9);
        let availability_burn_rate = (1.0 - availability) / availability_budget;
        let latency_burn_rate = (1.0 - latency_compliance) / 0.01;
        SloSnapshot {
            window_minutes: SLO_WINDOW_MINUTES,
            requests,
            errors,
            latency_over_objective: over,
            availability_target: self.config.availability,
            availability,
            availability_compliant: availability >= self.config.availability,
            availability_burn_rate,
            latency_p99_target_ms: self.config.latency_p99_ms,
            latency_compliance,
            latency_compliant: latency_compliance >= 0.99,
            latency_burn_rate,
        }
    }
}

/// A point-in-time roll-up of the tracker's window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSnapshot {
    /// Window size, minutes.
    pub window_minutes: usize,
    /// Requests observed in the window.
    pub requests: u64,
    /// Failed requests in the window.
    pub errors: u64,
    /// Requests slower than the latency objective.
    pub latency_over_objective: u64,
    /// Configured availability objective.
    pub availability_target: f64,
    /// Observed availability (1.0 on an empty window).
    pub availability: f64,
    /// Whether observed availability meets the objective.
    pub availability_compliant: bool,
    /// Error-budget burn rate (1.0 = on budget, >1.0 = over).
    pub availability_burn_rate: f64,
    /// Configured latency objective (p99 target, ms).
    pub latency_p99_target_ms: f64,
    /// Fraction of requests at or under the latency objective.
    pub latency_compliance: f64,
    /// Whether the latency objective holds (compliance ≥ 0.99).
    pub latency_compliant: bool,
    /// Latency-budget burn rate (fraction over objective / 1%).
    pub latency_burn_rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_is_compliant_with_zero_burn() {
        let snap = SloTracker::new(SloConfig::default()).snapshot();
        assert_eq!(snap.requests, 0);
        assert!(snap.availability_compliant);
        assert!(snap.latency_compliant);
        assert_eq!(snap.availability_burn_rate, 0.0);
        assert_eq!(snap.latency_burn_rate, 0.0);
    }

    #[test]
    fn errors_and_slow_requests_burn_their_budgets() {
        let mut tracker = SloTracker::new(SloConfig {
            latency_p99_ms: 10.0,
            availability: 0.99,
        });
        for _ in 0..98 {
            tracker.record(1.0, true);
        }
        tracker.record(1.0, false); // one error
        tracker.record(50.0, true); // one slow success
        let snap = tracker.snapshot();
        assert_eq!(snap.requests, 100);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.latency_over_objective, 1);
        assert!((snap.availability - 0.99).abs() < 1e-9);
        assert!(snap.availability_compliant, "exactly on target still holds");
        // 1% observed failure over a 1% budget: burning at exactly 1x.
        assert!((snap.availability_burn_rate - 1.0).abs() < 1e-6);
        assert!((snap.latency_burn_rate - 1.0).abs() < 1e-6);
    }

    #[test]
    fn blown_objectives_report_noncompliance() {
        let mut tracker = SloTracker::new(SloConfig {
            latency_p99_ms: 10.0,
            availability: 0.999,
        });
        for _ in 0..5 {
            tracker.record(100.0, false);
        }
        let snap = tracker.snapshot();
        assert!(!snap.availability_compliant);
        assert!(!snap.latency_compliant);
        assert!(snap.availability_burn_rate > 100.0);
        assert_eq!(snap.availability, 0.0);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let mut tracker = SloTracker::new(SloConfig::default());
        tracker.record(1.0, true);
        let text = serde_json::to_string(&tracker.snapshot()).unwrap();
        assert!(text.contains("\"availability_burn_rate\""), "{text}");
        assert!(text.contains("\"window_minutes\":60"), "{text}");
    }
}
