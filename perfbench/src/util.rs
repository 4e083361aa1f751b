//! Small shared pieces: the seeded generator, order statistics, process
//! memory, and the benchmark's own span recorder.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so every input the program receives
/// is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A generator for one named stream of the run, independent of the others.
    pub fn stream(seed: u64, name: &str) -> Self {
        let mut h = seed;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        Rng::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `len` activations in `[-1, 1)`.
    pub fn activations(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| (self.unit() * 2.0 - 1.0) as f32).collect()
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; `NaN` when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Request latencies with their completion times.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Completion time of each request, seconds since the phase began.
    pub done_s: Vec<f64>,
    pub ms: Vec<f64>,
    pub elapsed_s: f64,
}

/// Equal time slices a phase is cut into: a burst of interference from
/// outside the process (another tenant taking the host's cores) spoils a
/// minority of slices, and the median over slices ignores it.
pub const SLICES: usize = 10;

impl Samples {
    pub fn push(&mut self, done_s: f64, ms: f64) {
        self.done_s.push(done_s);
        self.ms.push(ms);
    }

    pub fn extend(&mut self, other: Samples) {
        self.done_s.extend(other.done_s);
        self.ms.extend(other.ms);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// `(p50, p90, completions per second)`, each the median of its
    /// per-slice values. At the workloads' rates and the benchmark's run
    /// length a slice holds 100 or more samples, so its p90 has ten or more
    /// beyond it.
    pub fn summary(&self) -> (f64, f64, f64) {
        let width = self.elapsed_s / SLICES as f64;
        let (mut p50s, mut p90s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..SLICES {
            let (lo, hi) = (k as f64 * width, (k + 1) as f64 * width);
            let slice: Vec<f64> = self
                .done_s
                .iter()
                .zip(&self.ms)
                .filter(|(t, _)| **t >= lo && (**t < hi || k + 1 == SLICES))
                .map(|(_, ms)| *ms)
                .collect();
            if !slice.is_empty() {
                p50s.push(median(&slice));
                p90s.push(percentile(&slice, 0.90));
            }
            rates.push(slice.len() as f64 / width);
        }
        (median(&p50s), median(&p90s), median(&rates))
    }
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A `/proc/<pid>/status` field in kibibytes (`VmHWM`, `VmRSS`); 0 when absent.
pub fn proc_status_kib(pid: &str, field: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                rest.split_whitespace().next()?.parse().ok()
            })
        })
        .unwrap_or(0)
}

/// One timed region recorded by the benchmark around a call into the engine.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request (or set-up pass) the span belongs to.
    pub request: u64,
}

/// In-memory span buffer, written out once when the run ends. A disabled
/// recorder costs one branch per call site.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recorder whose timestamps count from `epoch`.
    pub fn new_at(enabled: bool, epoch: Instant) -> Self {
        Spans {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Move `other`'s spans into this recorder, re-based onto its epoch.
    pub fn absorb(&mut self, other: Spans) {
        let shift = match other.epoch.checked_duration_since(self.epoch) {
            Some(d) => d.as_secs_f64() * 1e6,
            None => -(self.epoch.duration_since(other.epoch).as_secs_f64() * 1e6),
        };
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_us += shift;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span now; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, request: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            let now = self.epoch.elapsed().as_secs_f64() * 1e6;
            self.spans[i].dur_us = now - self.spans[i].start_us;
        }
    }

    /// Record a region that ran from `start` to `end`.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, request: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            parent: None,
            request,
        });
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, request);
        let value = f();
        self.end(span);
        value
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a chrome://tracing JSON document.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
                s.name, s.start_us, s.dur_us, s.request
            );
        }
        out.push_str("]}");
        out
    }
}
