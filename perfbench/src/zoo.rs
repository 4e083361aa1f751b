//! `zoo_b1`: one in-process caller, batch 1, two intra-op threads, over four
//! tuned zoo models in a seeded order. Time goes to kernel execution; no
//! request touches serving, HTTP or the plan cache.

use crate::engine::{self, CheckedInputs, ConvWork, SetupTimes};
use crate::util::{median, ms_since, percentile, Rng, Samples, Spans};
use crate::{alloc, Ctx, Outcome};
use mnn_core::Session;
use mnn_models::ModelKind;
use mnn_obs::Profiler;
use mnn_tensor::Shape;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The zoo, at input sizes small enough for one run to see hundreds of
/// requests per model.
const MODELS: [(ModelKind, usize); 4] = [
    (ModelKind::MobileNetV1, 64),
    (ModelKind::SqueezeNetV1_1, 64),
    (ModelKind::ResNet18, 64),
    (ModelKind::InceptionV3, 75),
];

/// Requests per model in each seeded round. The mix is exact in every run,
/// so latency percentiles compare across seeds.
/// ResNet-18 counts twice so the median request falls inside one model's
/// latency band instead of on the gap between two bands.
const ROUND_WEIGHTS: [usize; 4] = [1, 1, 2, 1];
pub const THREADS: usize = 2;
/// Full set-up passes per run, each tuning into a fresh cache; `setup_s` is
/// their median.
const SETUP_PASSES: usize = 3;
/// Distinct checked inputs per model.
const POOL: usize = 8;

/// One model: a session from every set-up pass, sharing one profiler.
struct Deployed {
    kind: ModelKind,
    /// Requests alternate over these, so each run's latencies average over
    /// several independent tuning outcomes instead of resting on one.
    sessions: Vec<Session>,
    served: usize,
    profiler: Arc<Profiler>,
    checked: CheckedInputs,
    /// Computed conv work of one run.
    work: ConvWork,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut spans = Spans::new(ctx.trace);

    // --- Set-up: every pass tunes into its own fresh cache. ----------------
    let mut pass_seconds = Vec::new();
    let mut pass_times = Vec::new();
    let mut deployed: Vec<Deployed> = MODELS
        .iter()
        .map(|&(kind, _)| {
            let profiler = Arc::new(Profiler::new());
            profiler.set_enabled(false);
            Deployed {
                kind,
                sessions: Vec::new(),
                served: 0,
                profiler,
                checked: CheckedInputs::default(),
                work: ConvWork::default(),
            }
        })
        .collect();
    let mut tuning = None;
    for pass in 0..SETUP_PASSES {
        let cache = ctx.work.join(format!("tune-zoo-{pass}.json"));
        let root = spans.begin("setup", None, pass as u64);
        let start = Instant::now();
        let mut total = SetupTimes::default();
        engine::model_file_roundtrip(&mut spans, root, pass as u64, &mut total)?;
        for (d, &(kind, size)) in deployed.iter_mut().zip(&MODELS) {
            let config = engine::tuned_config(THREADS, &cache, ctx.trace.then_some(&d.profiler));
            let (session, times) =
                engine::deploy(kind, size, config, &mut spans, root, pass as u64)?;
            total.add(&times);
            tuning = session.tuning_stats();
            d.sessions.push(session);
        }
        pass_seconds.push(start.elapsed().as_secs_f64());
        spans.end(root);
        pass_times.push(total);
    }
    out.end_to_end.insert("setup_s", median(&pass_seconds));
    engine::setup_layers(&mut out, &pass_times, tuning);
    for (d, &(kind, size)) in deployed.iter_mut().zip(&MODELS) {
        let graph = d.sessions[0].graph().clone();
        d.work = engine::conv_work(&graph);
        let mut rng = Rng::stream(ctx.seed, &format!("zoo/inputs/{kind}"));
        d.checked = engine::reference_pool(kind, graph, &Shape::nchw(1, 3, size, size), POOL, &mut rng)?;
    }

    // --- Measurement. -------------------------------------------------------
    let mut order = Rng::stream(ctx.seed, "zoo/order");
    let mut round: Vec<usize> = ROUND_WEIGHTS
        .iter()
        .enumerate()
        .flat_map(|(m, &w)| std::iter::repeat(m).take(w))
        .collect();
    let budget = Duration::from_secs_f64(if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds });
    // Warm-up: first-touch page faults of every session's buffers.
    for d in &mut deployed {
        let input = &d.checked.inputs[0];
        for session in &mut d.sessions {
            session
                .run_with(&[("data", input)])
                .map_err(|e| format!("{}: warm-up: {e}", d.kind))?;
        }
    }
    let plain = measure(&mut deployed, &mut round, &mut order, budget, None, &mut out)?;
    let (p50, p90, rps) = plain.all.summary();
    out.end_to_end.insert("latency_p50_ms", p50);
    out.end_to_end.insert("latency_p90_ms", p90);
    out.end_to_end.insert("throughput_rps", rps);
    out.end_to_end.insert(
        "success_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.end_to_end.insert(
        "peak_rss_mb",
        crate::util::proc_status_kib("self", "VmHWM") as f64 / 1024.0,
    );
    println!(
        "zoo_b1: {} requests, p50 {p50:.3} ms, p90 {p90:.3} ms, {rps:.1} req/s",
        plain.all.ms.len()
    );
    for (m, d) in deployed.iter().enumerate() {
        let l = &plain.per_model[m];
        let mut schemes: std::collections::BTreeMap<String, usize> = Default::default();
        for p in &d.sessions[0].report().placements {
            if let Some(scheme) = p.scheme {
                *schemes.entry(scheme.to_string()).or_default() += 1;
            }
        }
        let schemes: Vec<String> = schemes.iter().map(|(s, n)| format!("{s} x{n}")).collect();
        println!(
            "  {:<16} {:>5} runs  p50 {:>8.3} ms  p90 {:>8.3} ms  first pass: {}",
            d.kind.name(),
            l.len(),
            median(l),
            percentile(l, 0.9),
            schemes.join(", ")
        );
    }

    if ctx.trace {
        for d in &deployed {
            d.profiler.set_enabled(true);
        }
        let traced = measure(&mut deployed, &mut round, &mut order, budget, Some(&mut spans), &mut out)?;
        traced_layers(&mut out, &deployed, &traced);
        out.layer("obs.trace_overhead", traced.all.summary().0 / p50);
        out.layer("bench.spans", spans.len() as f64);
        out.spans_json = Some(spans.to_chrome_json());
    }
    Ok(out)
}

/// One measured phase: per-request latencies, also grouped by model, plus
/// heap figures when traced.
struct Phase {
    all: Samples,
    per_model: Vec<Vec<f64>>,
    allocs: Vec<f64>,
    alloc_bytes: Vec<f64>,
    peak_over_arena: Vec<f64>,
}

fn measure(
    deployed: &mut [Deployed],
    round: &mut [usize],
    order: &mut Rng,
    budget: Duration,
    mut spans: Option<&mut Spans>,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let mut phase = Phase {
        all: Samples::default(),
        per_model: vec![Vec::new(); deployed.len()],
        allocs: Vec::new(),
        alloc_bytes: Vec::new(),
        peak_over_arena: Vec::new(),
    };
    let start = Instant::now();
    let mut request = 0u64;
    'rounds: loop {
        order.shuffle(round);
        for &m in round.iter() {
            if start.elapsed() >= budget {
                break 'rounds;
            }
            let d = &mut deployed[m];
            let j = order.below(d.checked.inputs.len());
            let input = &d.checked.inputs[j];
            let span = spans.as_mut().and_then(|s| s.begin("core.run_with", None, request));
            if spans.is_some() {
                alloc::start();
            }
            let k = d.served % d.sessions.len();
            d.served += 1;
            let session = &mut d.sessions[k];
            let t = Instant::now();
            let result = session.run_with(&[("data", input)]);
            let ms = ms_since(t);
            if spans.is_some() {
                let heap = alloc::stop();
                phase.allocs.push(heap.allocs as f64);
                phase.alloc_bytes.push(heap.bytes as f64);
                let planned = session.memory_plan().planned_bytes().max(1);
                phase.peak_over_arena.push(heap.peak_bytes as f64 / planned as f64);
            }
            if let Some(s) = spans.as_mut() {
                s.end(span);
            }
            out.attempted += 1;
            match result {
                Ok(outputs) => {
                    let ok = outputs
                        .first()
                        .is_some_and(|o| engine::output_matches(o.data_f32(), &d.checked.references[j]));
                    if !ok {
                        out.failed += 1;
                        out.wrong += 1;
                    }
                }
                Err(e) => {
                    eprintln!("{}: run failed: {e}", d.kind);
                    out.failed += 1;
                }
            }
            phase.all.push(start.elapsed().as_secs_f64(), ms);
            phase.per_model[m].push(ms);
            request += 1;
        }
    }
    phase.all.elapsed_s = start.elapsed().as_secs_f64();
    Ok(phase)
}

fn traced_layers(out: &mut Outcome, deployed: &[Deployed], traced: &Phase) {
    for (m, d) in deployed.iter().enumerate() {
        let name = d.kind.name().to_ascii_lowercase();
        out.layer(&format!("core.run_ms.{name}.p50"), median(&traced.per_model[m]));
        out.layer(&format!("core.run_ms.{name}.p90"), percentile(&traced.per_model[m], 0.90));
    }
    let reports: Vec<_> = deployed.iter().map(|d| d.profiler.report()).collect();
    let (mut flops, mut bytes) = (0.0, 0.0);
    for (d, report) in deployed.iter().zip(&reports) {
        flops += report.runs as f64 * d.work.flops;
        bytes += report.runs as f64 * d.work.bytes;
    }
    let runs: f64 = reports.iter().map(|r| r.runs as f64).sum();
    let peak = engine::fma_peak_gflops(THREADS, 200);
    engine::kernel_layers(out, &reports, flops, bytes, runs, peak);
    let planned: usize = deployed
        .iter()
        .map(|d| d.sessions[0].memory_plan().planned_bytes())
        .sum();
    out.layer("core.planned_arena_bytes", planned as f64);
    out.layer("core.allocs_per_run", median(&traced.allocs));
    out.layer("core.alloc_bytes_per_run", median(&traced.alloc_bytes));
    out.layer("core.heap_peak_over_arena", median(&traced.peak_over_arena));
}
