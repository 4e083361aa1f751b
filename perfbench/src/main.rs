//! `perfbench` — the repository benchmark (see `BENCHMARK.json`).
//!
//! ```text
//! perfbench --workload zoo_b1|http_open --seed N --seconds S --trace 0|1
//!           --server-bin PATH
//! ```
//!
//! Prints human-readable lines, then one JSON object as the last line of
//! standard output. With `--trace 0` its metrics are the end-to-end metrics;
//! with `--trace 1` they are the per-layer metrics, taken from the traced
//! half of the run, and the spans are written under `.bench_run/results/`.

mod alloc;
mod engine;
mod http;
mod util;
mod zoo;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, reported by every workload: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("models.build_ms", "ms"),
    ("converter.save_ms", "ms"),
    ("converter.load_ms", "ms"),
    ("core.interpreter_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("tune.measured_candidates", "count"),
    ("tune.cache_hits", "count"),
    ("tune.tuned_nodes", "count"),
    ("core.run_ms.mobilenet-v1.p50", "ms"),
    ("core.run_ms.mobilenet-v1.p90", "ms"),
    ("core.run_ms.squeezenet-v1.1.p50", "ms"),
    ("core.run_ms.squeezenet-v1.1.p90", "ms"),
    ("core.run_ms.resnet-18.p50", "ms"),
    ("core.run_ms.resnet-18.p90", "ms"),
    ("core.run_ms.inception-v3.p50", "ms"),
    ("core.run_ms.inception-v3.p90", "ms"),
    ("kernels.conv.im2col.ms_share", "ratio"),
    ("kernels.conv.im2col-simd.ms_share", "ratio"),
    ("kernels.conv.winograd.ms_share", "ratio"),
    ("kernels.conv.winograd-simd.ms_share", "ratio"),
    ("kernels.conv.depthwise.ms_share", "ratio"),
    ("kernels.conv.depthwise-simd.ms_share", "ratio"),
    ("kernels.conv.strassen-1x1.ms_share", "ratio"),
    ("kernels.conv.sliding-window.ms_share", "ratio"),
    ("kernels.pool.ms_share", "ratio"),
    ("kernels.activation.ms_share", "ratio"),
    ("kernels.fc.ms_share", "ratio"),
    ("kernels.other.ms_share", "ratio"),
    ("kernels.conv.gflop_per_run", "GFLOP"),
    ("kernels.conv.mbytes_per_run", "MB"),
    ("kernels.conv.gflops", "GFLOP/s"),
    ("kernels.fma_peak_gflops", "GFLOP/s"),
    ("kernels.peak_fraction", "ratio"),
    ("core.planned_arena_bytes", "bytes"),
    ("core.allocs_per_run", "count"),
    ("core.alloc_bytes_per_run", "bytes"),
    ("core.heap_peak_over_arena", "ratio"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batch_assembly_p99_ms", "ms"),
    ("serve.mean_batch_size", "count"),
    ("serve.rejected", "count"),
    ("http.parse_ms", "ms"),
    ("http.decode_ms", "ms"),
    ("http.inference_ms", "ms"),
    ("http.encode_ms", "ms"),
    ("http.write_ms", "ms"),
    ("http.status.200", "count"),
    ("http.status.429", "count"),
    ("http.status.503", "count"),
    ("http.status.other", "count"),
    ("http.lo.latency_p50_ms", "ms"),
    ("http.lo.latency_p90_ms", "ms"),
    ("http.max_rate_rps", "1/s"),
    ("http.saturation_rps", "1/s"),
    ("bench.sent", "count"),
    ("bench.succeeded", "count"),
    ("bench.failed", "count"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.backlog_end", "count"),
    ("bench.spans", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that did not match their reference (also counted in `failed`).
    pub wrong: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<String, f64>,
    /// Spans recorded by the traced half, as chrome://tracing JSON.
    pub spans_json: Option<String>,
}

impl Outcome {
    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.insert(name.to_string(), value);
    }
}

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Private scratch directory of this run (tuning caches).
    pub work: PathBuf,
    pub server_bin: Option<PathBuf>,
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut server_bin) = (None, None, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = value()? == "1",
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let work = PathBuf::from(".bench_run").join(format!("run-{}-{nanos}", std::process::id()));
    Ok((
        workload,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            work,
            server_bin,
        },
    ))
}

fn main() {
    let started = Instant::now();
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        std::process::exit(2);
    }
    let result = match workload.as_str() {
        "zoo_b1" => zoo::run(&ctx),
        "http_open" => http::run(&ctx),
        other => Err(format!("unknown workload '{other}'")),
    };
    // Tuning caches are private to this run: never left for a later one.
    let _ = std::fs::remove_dir_all(&ctx.work);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {workload}: {message}");
            std::process::exit(1);
        }
    };

    let cpu = mnn_backend::CpuBackend::new(zoo::THREADS);
    let fingerprint =
        mnn_tune::DeviceFingerprint::detect(zoo::THREADS, &mnn_backend::Backend::descriptor(&cpu));
    let provenance = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"fingerprint\":{},\"measured\":\"host wall clock; no simulated figures\"}}",
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        serde_json::to_string(&fingerprint).unwrap_or_else(|_| "null".into()),
    );
    println!("provenance: {provenance}");

    let mut metrics = Vec::new();
    if ctx.trace {
        // A layer the workload did not cross, or one with no samples, reads 0.
        for (name, unit) in PER_LAYER {
            let value = outcome.per_layer.get(*name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            metrics.push((name.to_string(), value, *unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = outcome.end_to_end.get(name).copied().unwrap_or(f64::NAN);
            metrics.push((name.to_string(), value, *unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    println!(
        "attempted {} failed {} (wrong outputs {}) in {:.1} s",
        outcome.attempted,
        outcome.failed,
        outcome.wrong,
        started.elapsed().as_secs_f64()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    let correct = outcome.wrong == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(",")
    );

    let out_dir = PathBuf::from(".bench_run").join("results");
    let tag = format!("{workload}-seed{}-trace{}", ctx.seed, u8::from(ctx.trace));
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let _ = std::fs::write(
            out_dir.join(format!("{tag}.json")),
            format!("{{\"provenance\":{provenance},\"result\":{result}}}\n"),
        );
        if let Some(spans) = &outcome.spans_json {
            let _ = std::fs::write(out_dir.join(format!("{tag}.spans.json")), spans);
        }
    }
    println!("{result}");
}
