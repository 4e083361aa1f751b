//! Deploying zoo models the way an application does, reference outputs for
//! the output checks, and computed kernel work.

use crate::util::{median, Rng, Spans};
use crate::Outcome;
use mnn_converter::ModelFile;
use mnn_core::{Interpreter, Session, SessionConfig, TuningMode};
use mnn_graph::Graph;
use mnn_models::ModelKind;
use mnn_obs::Profiler;
use mnn_tensor::{Shape, Tensor};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Largest absolute difference an output may have from the scalar
/// reference. Outputs are softmax probabilities; SIMD kernels and Winograd
/// reorder float sums, which moves them by ~1e-7.
pub const TOLERANCE: f32 = 1e-4;

/// Wall time of each set-up step, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_ms: f64,
    pub save_ms: f64,
    pub load_ms: f64,
    pub interpreter_ms: f64,
    pub prepare_ms: f64,
}

impl SetupTimes {
    pub fn add(&mut self, other: &SetupTimes) {
        self.build_ms += other.build_ms;
        self.save_ms += other.save_ms;
        self.load_ms += other.load_ms;
        self.interpreter_ms += other.interpreter_ms;
        self.prepare_ms += other.prepare_ms;
    }
}

/// Set-up layer metrics: per-step medians over passes (each pass summed over
/// the pass's models) and the last pass's tuning counters.
pub fn setup_layers(out: &mut Outcome, passes: &[SetupTimes], tuning: Option<mnn_core::TuningStats>) {
    let med = |f: fn(&SetupTimes) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.layer("models.build_ms", med(|t| t.build_ms));
    out.layer("converter.save_ms", med(|t| t.save_ms));
    out.layer("converter.load_ms", med(|t| t.load_ms));
    out.layer("core.interpreter_ms", med(|t| t.interpreter_ms));
    out.layer("core.prepare_ms", med(|t| t.prepare_ms));
    if let Some(stats) = tuning {
        out.layer("tune.measured_candidates", stats.measured_candidates as f64);
        out.layer("tune.cache_hits", stats.cache_hits as f64);
        out.layer("tune.tuned_nodes", stats.tuned_nodes as f64);
    }
}

/// A tuned session configuration whose measurements go to `cache`, a file
/// no earlier run has written.
pub fn tuned_config(threads: usize, cache: &Path, profiler: Option<&Arc<Profiler>>) -> SessionConfig {
    let mut builder = SessionConfig::builder()
        .threads(threads)
        .tuning(TuningMode::Full)
        .tune_cache_path(cache);
    if let Some(profiler) = profiler {
        builder = builder.profiling(Arc::clone(profiler));
    }
    builder.build()
}

/// Build `kind` at batch 1, create the interpreter and prepare a session
/// (tuning included), timing each step.
pub fn deploy(
    kind: ModelKind,
    size: usize,
    config: SessionConfig,
    spans: &mut Spans,
    parent: Option<usize>,
    pass: u64,
) -> Result<(Session, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let graph = timed(spans, "models.build", parent, pass, &mut times.build_ms, || {
        mnn_models::build(kind, 1, size)
    });
    let interpreter = timed(spans, "core.interpreter", parent, pass, &mut times.interpreter_ms, || {
        Interpreter::from_graph(graph)
    })
    .map_err(|e| format!("{kind}: interpreter: {e}"))?;
    let session = timed(spans, "core.create_session", parent, pass, &mut times.prepare_ms, || {
        interpreter.create_session(config)
    })
    .map_err(|e| format!("{kind}: create_session: {e}"))?;
    Ok((session, times))
}

/// Serialize and reload a model through the model file format. The JSON
/// loader grows faster than linearly with file size (a 212 KB Tiny-CNN file
/// loads in ~23 ms, the 26 MB SqueezeNet-v1.1 file in ~21 s on a 2-core
/// x86-64 host), so set-up round-trips the Tiny-CNN file and deploys the
/// zoo models from freshly built graphs.
pub fn model_file_roundtrip(
    spans: &mut Spans,
    parent: Option<usize>,
    pass: u64,
    times: &mut SetupTimes,
) -> Result<(), String> {
    let graph = mnn_models::build(ModelKind::TinyCnn, 1, 32);
    let bytes = timed(spans, "converter.to_bytes", parent, pass, &mut times.save_ms, || {
        ModelFile::new(graph).to_bytes()
    })
    .map_err(|e| format!("model file: serialize: {e}"))?;
    let model = timed(spans, "converter.from_bytes", parent, pass, &mut times.load_ms, || {
        ModelFile::from_bytes(&bytes)
    })
    .map_err(|e| format!("model file: load: {e}"))?;
    Interpreter::from_graph(model.graph)
        .map(drop)
        .map_err(|e| format!("model file: reloaded graph: {e}"))
}

/// Run `f` as span `name`, storing its wall time in `slot` (ms).
fn timed<T>(
    spans: &mut Spans,
    name: &str,
    parent: Option<usize>,
    pass: u64,
    slot: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let value = spans.time(name, parent, pass, f);
    *slot = crate::util::ms_since(start);
    value
}

/// A pool of seeded inputs for one model and their reference outputs from an
/// untuned scalar session.
#[derive(Default)]
pub struct CheckedInputs {
    pub inputs: Vec<Tensor>,
    pub references: Vec<Vec<f32>>,
}

/// Seeded inputs of `shape` and their reference outputs from `graph` (its
/// weights are shared, not copied). Not part of set-up time: an application
/// has no reference to compute.
pub fn reference_pool(
    kind: ModelKind,
    graph: Graph,
    shape: &Shape,
    count: usize,
    rng: &mut Rng,
) -> Result<CheckedInputs, String> {
    let config = SessionConfig::builder()
        .threads(1)
        .tuning(TuningMode::Off)
        .force_scalar(true)
        .account_resources(false)
        .build();
    let mut session = Interpreter::from_graph(graph)
        .and_then(|i| i.create_session(config))
        .map_err(|e| format!("{kind}: reference session: {e}"))?;
    let mut inputs = Vec::with_capacity(count);
    let mut references = Vec::with_capacity(count);
    for _ in 0..count {
        let input = Tensor::from_vec(shape.clone(), rng.activations(shape.num_elements()));
        let out = session
            .run(std::slice::from_ref(&input))
            .map_err(|e| format!("{kind}: reference run: {e}"))?;
        references.push(out[0].data_f32().to_vec());
        inputs.push(input);
    }
    Ok(CheckedInputs { inputs, references })
}

/// Whether `output` matches `reference`: same length, every element within
/// [`TOLERANCE`], and the same top class in every row of
/// `mnn_models::NUM_CLASSES` scores. Where the reference's top two classes
/// are within the tolerance of each other, either one is accepted.
pub fn output_matches(output: &[f32], reference: &[f32]) -> bool {
    if output.len() != reference.len() || output.is_empty() {
        return false;
    }
    let argmax = |v: &[f32]| {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i)
    };
    let row = mnn_models::NUM_CLASSES.min(output.len());
    output
        .chunks(row)
        .zip(reference.chunks(row))
        .all(|(out, reference)| {
            let close = out.iter().zip(reference).all(|(a, b)| (a - b).abs() <= TOLERANCE);
            close && reference[argmax(out)] >= reference[argmax(reference)] - TOLERANCE
        })
}

/// Computed (not measured) work of one convolution at its planned geometry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvWork {
    pub flops: f64,
    /// Input + weight + output bytes, each touched once.
    pub bytes: f64,
}

/// Computed conv work of one run of a shape-inferred graph.
pub fn conv_work(graph: &Graph) -> ConvWork {
    let dims = |id| {
        graph
            .tensor_info(id)
            .ok()
            .and_then(|info| info.shape.clone())
            .map(|s| s.dims().to_vec())
            .unwrap_or_default()
    };
    let mut total = ConvWork::default();
    for node in graph.nodes() {
        let Some(attrs) = node.op.conv_attrs() else {
            continue;
        };
        let (Some(&input), Some(&output)) = (node.inputs.first(), node.outputs.first()) else {
            continue;
        };
        let (inp, outp) = (dims(input), dims(output));
        if inp.len() != 4 || outp.len() != 4 {
            continue;
        }
        let out_elems = outp.iter().product::<usize>() as f64;
        let per_output = (attrs.in_channels / attrs.groups.max(1)) as f64
            * (attrs.kernel.0 * attrs.kernel.1) as f64;
        let weights = attrs.out_channels as f64 * per_output;
        total.flops += 2.0 * out_elems * per_output;
        total.bytes += 4.0 * (inp.iter().product::<usize>() as f64 + weights + out_elems);
    }
    total
}

/// Measured peak f32 FMA rate of this host with `threads` threads, GFLOP/s:
/// independent fused multiply-add chains, long enough to hide FMA latency.
pub fn fma_peak_gflops(threads: usize, millis: u64) -> f64 {
    let deadline = std::time::Duration::from_millis(millis);
    let total: f64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|t| scope.spawn(move || fma_worker(deadline, t as f32)))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap_or(0.0)).sum()
    });
    total / 1e9
}

/// FLOP/s of one thread's FMA loop.
fn fma_worker(deadline: std::time::Duration, salt: f32) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            // SAFETY: both features were detected at run time.
            return unsafe { fma_worker_avx2(deadline, salt) };
        }
    }
    fma_worker_scalar(deadline, salt)
}

const CHAINS: usize = 12;
const BLOCK: u64 = 4096;

fn fma_worker_scalar(deadline: std::time::Duration, salt: f32) -> f64 {
    let mut acc = [salt; CHAINS];
    let (a, b) = (std::hint::black_box(0.999_f32), std::hint::black_box(1e-3_f32));
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < deadline {
        for _ in 0..BLOCK {
            for x in acc.iter_mut() {
                *x = x.mul_add(a, b);
            }
        }
        iters += BLOCK;
    }
    std::hint::black_box(acc);
    (iters * CHAINS as u64 * 2) as f64 / start.elapsed().as_secs_f64()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_worker_avx2(deadline: std::time::Duration, salt: f32) -> f64 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(std::hint::black_box(0.999));
    let b = _mm256_set1_ps(std::hint::black_box(1e-3));
    let mut acc = [_mm256_set1_ps(salt); CHAINS];
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < deadline {
        for _ in 0..BLOCK {
            for x in acc.iter_mut() {
                *x = _mm256_fmadd_ps(*x, a, b);
            }
        }
        iters += BLOCK;
    }
    std::hint::black_box(acc);
    (iters * CHAINS as u64 * 8 * 2) as f64 / start.elapsed().as_secs_f64()
}

/// The kernel family a profiled node's time is charged to, as named in the
/// `kernels.*.ms_share` metrics.
fn kernel_family(op: &str, scheme: &str) -> &'static str {
    if op.starts_with("Conv2d") {
        for (prefix, family) in [
            ("winograd-simd", "conv.winograd-simd"),
            ("winograd", "conv.winograd"),
            ("im2col-simd", "conv.im2col-simd"),
            ("im2col", "conv.im2col"),
            ("depthwise-simd", "conv.depthwise-simd"),
            ("depthwise", "conv.depthwise"),
            ("strassen", "conv.strassen-1x1"),
            ("sliding", "conv.sliding-window"),
        ] {
            if scheme.starts_with(prefix) {
                return family;
            }
        }
        return "other";
    }
    match op {
        "Pool" => "pool",
        "Activation" => "activation",
        "FullyConnected" => "fc",
        _ => "other",
    }
}

/// Per-op kernel shares from profiler reports, and conv throughput against
/// the measured FMA peak. `conv_flops` / `conv_bytes` are the computed work
/// of every profiled run together; `runs` is how many runs that was.
pub fn kernel_layers(
    out: &mut Outcome,
    reports: &[mnn_obs::ProfileReport],
    conv_flops: f64,
    conv_bytes: f64,
    runs: f64,
    peak_gflops: f64,
) {
    let mut by_family: std::collections::BTreeMap<&str, f64> = Default::default();
    let (mut total_ms, mut conv_ms) = (0.0, 0.0);
    for node in reports.iter().flat_map(|r| &r.nodes) {
        let family = kernel_family(&node.op, &node.scheme);
        *by_family.entry(family).or_default() += node.total_ms;
        total_ms += node.total_ms;
        if family.starts_with("conv.") {
            conv_ms += node.total_ms;
        }
    }
    if total_ms > 0.0 {
        for (family, ms) in by_family {
            out.layer(&format!("kernels.{family}.ms_share"), ms / total_ms);
        }
    }
    let gflops = if conv_ms > 0.0 {
        conv_flops / (conv_ms / 1e3) / 1e9
    } else {
        0.0
    };
    if runs > 0.0 {
        out.layer("kernels.conv.gflop_per_run", conv_flops / runs / 1e9);
        out.layer("kernels.conv.mbytes_per_run", conv_bytes / runs / 1e6);
    }
    out.layer("kernels.conv.gflops", gflops);
    out.layer("kernels.fma_peak_gflops", peak_gflops);
    if peak_gflops > 0.0 {
        out.layer("kernels.peak_fraction", gflops / peak_gflops);
    }
}
