//! Telemetry-off overhead guards (`cargo bench -p mnn-serve --bench overhead`).
//!
//! Each arm times a hot path with a telemetry feature attached but off (or,
//! for the resource ledger, on) against the same path without it, and
//! **asserts** the ratio stays at or under 1.25, so a regression that sneaks
//! always-on work into the path fails CI instead of silently taxing it:
//!
//! * **profiling** — a session with a *disabled* profiler vs none: the
//!   execution loop's only extra work is one relaxed atomic load per run;
//! * **tracing** — a server with a *disabled* flight recorder vs none,
//!   end to end (submit → batch → inference → response):
//!   `begin_owned_trace_at` bails after one relaxed atomic load;
//! * **accounting** — cache-hit plan swaps (the fastest resize the engine
//!   does, so accounting cost has nowhere to hide) with the resource ledger
//!   on vs off: a handful of relaxed atomic stores per swap.

use mnn_core::{Interpreter, Session, SessionConfig};
use mnn_graph::{Conv2dAttrs, Graph, GraphBuilder};
use mnn_models::{build, ModelKind};
use mnn_obs::Profiler;
use mnn_serve::{FlightRecorder, Server};
use mnn_tensor::{Shape, Tensor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const GATE: f64 = 1.25;

/// Mean nanoseconds per call of `f` over `iters` calls, after 10 warm-ups.
fn mean_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Best `with / base` ratio of five interleaved attempts (stopping early
/// once one is within 1.10): timing on shared CI machines is noisy, and
/// interleaving lets frequency scaling hit both arms equally.
fn best_ratio(mut base: impl FnMut() -> f64, mut with: impl FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let base_ns = base();
        best = best.min(with() / base_ns);
        if best <= 1.10 {
            break;
        }
    }
    best
}

fn gate(what: &str, ratio: f64) {
    assert!(
        ratio <= GATE,
        "{what} costs {:.1}% — the hot path must stay a few relaxed atomics",
        (ratio - 1.0) * 100.0
    );
    println!("{what}: best ratio {ratio:.3} (<= {GATE} required)");
}

fn conv_graph() -> Graph {
    let mut b = GraphBuilder::new("obs-overhead");
    let x = b.input("x", Shape::nchw(1, 8, 32, 32));
    let c1 = b.conv2d_auto("conv1", x, Conv2dAttrs::same_3x3(8, 16), true);
    let c2 = b.conv2d_auto("conv2", c1, Conv2dAttrs::same_3x3(16, 16), true);
    b.build(vec![c2])
}

fn profiling_arm() {
    let session = |profiler: Option<Arc<Profiler>>| {
        let mut builder = SessionConfig::builder().threads(1);
        if let Some(profiler) = profiler {
            builder = builder.profiling(profiler);
        }
        Interpreter::from_graph(conv_graph())
            .expect("valid graph")
            .create_session(builder.build())
            .expect("session builds")
    };
    let input = Tensor::full(Shape::nchw(1, 8, 32, 32), 0.5);
    let profiler = Arc::new(Profiler::new());
    profiler.set_enabled(false);
    let (mut plain, mut attached) = (session(None), session(Some(Arc::clone(&profiler))));
    let run = |session: &mut Session| {
        mean_ns(30, || {
            black_box(session.run(std::slice::from_ref(&input)).unwrap());
        })
    };
    let ratio = best_ratio(|| run(&mut plain), || run(&mut attached));
    assert_eq!(profiler.runs(), 0, "disabled profiler must record nothing");
    gate("profiling-off overhead", ratio);
}

fn tracing_arm() {
    let server = |recorder: Option<Arc<FlightRecorder>>| {
        let mut builder = Server::builder().workers(1).max_batch(1);
        if let Some(recorder) = recorder {
            builder = builder.trace_recorder(recorder);
        }
        builder
            .build(build(ModelKind::TinyCnn, 1, 16))
            .expect("server builds")
    };
    let input = Tensor::full(Shape::nchw(1, 3, 16, 16), 0.5);
    let recorder = Arc::new(FlightRecorder::new());
    recorder.set_enabled(false);
    let (plain, attached) = (server(None), server(Some(Arc::clone(&recorder))));
    let infer = |server: &Server| {
        mean_ns(50, || {
            black_box(server.infer(&[("data", &input)]).unwrap());
        })
    };
    let ratio = best_ratio(|| infer(&plain), || infer(&attached));
    assert_eq!(
        recorder.completed(),
        0,
        "disabled recorder must record nothing"
    );
    gate("tracing-off overhead", ratio);
}

fn accounting_arm() {
    const SCOPE: &str = "resources-overhead-bench";
    const SMALL: usize = 16;
    const LARGE: usize = 24;
    let session = |accounted: bool| {
        let mut config = SessionConfig::cpu(1);
        config.account_resources = accounted;
        if accounted {
            config.resource_scope = Some(SCOPE.to_string());
        }
        Interpreter::from_graph(build(ModelKind::TinyCnn, 1, SMALL))
            .expect("zoo graph is valid")
            .create_session(config)
            .expect("session builds")
    };
    let flip = |session: &mut Session, size: usize| {
        session
            .resize_input("data", Shape::nchw(1, 3, size, size))
            .expect("known input");
        session.resize_session().expect("resize succeeds");
    };
    // One timed call is a small→large→small round trip: two cache-hit swaps
    // once the warm-up calls have planned both geometries.
    let swap = |session: &mut Session| {
        mean_ns(50, || {
            flip(session, LARGE);
            flip(session, SMALL);
        }) / 2.0
    };
    let (mut plain, mut accounted) = (session(false), session(true));
    let ratio = best_ratio(|| swap(&mut plain), || swap(&mut accounted));
    assert!(
        plain.plan_cache_hits() > 0 && accounted.plan_cache_hits() > 0,
        "warm-up must hit the plan cache"
    );
    assert!(
        mnn_obs::resources::scope_snapshot(SCOPE).resident_bytes > 0,
        "accounted session left no trace in the ledger"
    );
    gate("accounting overhead", ratio);
}

fn main() {
    profiling_arm();
    tracing_arm();
    accounting_arm();
}
