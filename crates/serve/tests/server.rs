//! Functional tests for the serving runtime: correctness of single and batched
//! paths, backpressure, error surfaces and graceful shutdown.

use mnn_core::{Interpreter, SessionConfig};
use mnn_models::{build, ModelKind};
use mnn_serve::{ServeError, Server};
use mnn_tensor::{Shape, Tensor};
use std::time::Duration;

fn deterministic_input(size: usize, seed: u64) -> Tensor {
    let shape = Shape::nchw(1, 3, size, size);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..shape.num_elements())
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect();
    Tensor::from_vec(shape, data)
}

fn tiny_server(workers: usize, max_batch: usize, window_ms: u64) -> Server {
    Server::builder()
        .workers(workers)
        .max_batch(max_batch)
        .batch_window(Duration::from_millis(window_ms))
        .session_config(SessionConfig::cpu(1))
        .build(build(ModelKind::TinyCnn, 1, 16))
        .unwrap()
}

#[test]
fn infer_matches_direct_session() {
    let server = tiny_server(2, 4, 1);
    let input = deterministic_input(16, 3);

    let interpreter = Interpreter::from_graph(build(ModelKind::TinyCnn, 1, 16)).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    let want = session.run_with(&[("data", &input)]).unwrap();

    let got = server.infer(&[("data", &input)]).unwrap();
    assert_eq!(got.len(), want.len());
    assert_eq!(got[0].shape(), want[0].shape());
    assert_eq!(got[0].data_f32(), want[0].data_f32());
}

#[test]
fn submitted_handles_resolve_with_correct_shapes() {
    let server = tiny_server(2, 4, 1);
    let handles: Vec<_> = (0..12)
        .map(|seed| {
            server
                .submit(&[("data", &deterministic_input(16, seed))])
                .unwrap()
        })
        .collect();
    for handle in handles {
        let outputs = handle.wait().unwrap();
        assert_eq!(outputs[0].shape().dims(), &[1, 10]);
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.failed, 0);
    assert!(stats.throughput_rps > 0.0);
    assert!(stats.p99_latency_ms >= stats.p50_latency_ms);
}

#[test]
fn compatible_requests_are_micro_batched() {
    // One worker and a generous window: requests submitted together must
    // coalesce instead of running one by one.
    let server = tiny_server(1, 4, 250);
    let input = deterministic_input(16, 7);
    let handles: Vec<_> = (0..8)
        .map(|_| server.submit(&[("data", &input)]).unwrap())
        .collect();
    let first = handles
        .into_iter()
        .map(|h| h.wait().unwrap().remove(0))
        .collect::<Vec<_>>();
    // All 8 identical requests: identical outputs.
    for output in &first {
        assert_eq!(output.data_f32(), first[0].data_f32());
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 8);
    assert!(
        stats.mean_batch_size > 1.0,
        "expected micro-batching, got histogram {:?}",
        stats.batch_histogram
    );
    assert!(stats
        .batch_histogram
        .iter()
        .all(|&(size, _)| (1..=4).contains(&size)));
}

#[test]
fn mixed_geometries_are_batched_separately_and_served_correctly() {
    let server = tiny_server(2, 4, 5);
    // tiny_cnn is fully convolutional up to global-average-pool, so other
    // spatial sizes are valid geometries.
    let handles: Vec<_> = (0..10)
        .map(|i| {
            let size = if i % 2 == 0 { 16 } else { 24 };
            let input = deterministic_input(size, i as u64);
            (size, server.submit(&[("data", &input)]).unwrap())
        })
        .collect();
    for (_, handle) in handles {
        let outputs = handle.wait().unwrap();
        assert_eq!(outputs[0].shape().dims(), &[1, 10]);
    }
    assert_eq!(server.stats().completed, 10);
}

#[test]
fn invalid_requests_are_rejected_at_submit() {
    let server = tiny_server(1, 2, 1);
    let input = deterministic_input(16, 1);
    assert!(matches!(
        server.submit(&[("nope", &input)]),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(matches!(
        server.submit(&[]),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(matches!(
        server.submit(&[("data", &input), ("data", &input)]),
        Err(ServeError::InvalidRequest(_))
    ));
}

#[test]
fn bad_input_shape_fails_only_its_own_batch() {
    let server = tiny_server(1, 4, 1);
    // Channel count 5 contradicts the stem conv weights: resize fails, the
    // request gets an inference error, and the server keeps serving.
    let bad = Tensor::zeros(Shape::nchw(1, 5, 16, 16));
    let err = server.infer(&[("data", &bad)]).unwrap_err();
    assert!(matches!(err, ServeError::Inference(_)));

    let good = deterministic_input(16, 2);
    let outputs = server.infer(&[("data", &good)]).unwrap();
    assert_eq!(outputs[0].shape().dims(), &[1, 10]);
    let stats = server.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn engine_panic_becomes_an_error_instead_of_hanging_clients() {
    let server = tiny_server(1, 2, 1);
    // Right shape, wrong dtype: the f32 kernels panic on it. The worker must
    // contain the panic, answer with an error, and keep serving.
    let poison = Tensor::try_from_i32(
        Shape::nchw(1, 3, 16, 16),
        vec![0; Shape::nchw(1, 3, 16, 16).num_elements()],
    )
    .unwrap();
    match server.infer(&[("data", &poison)]) {
        Err(ServeError::Inference(msg)) => assert!(msg.contains("panicked"), "got: {msg}"),
        other => panic!("expected contained panic, got {other:?}"),
    }
    // The contained panic is surfaced as data, not just a log line.
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.failed, 1);
    let outputs = server
        .infer(&[("data", &deterministic_input(16, 5))])
        .unwrap();
    assert_eq!(outputs[0].shape().dims(), &[1, 10]);
    let stats = server.stats();
    assert_eq!(
        stats.worker_panics, 1,
        "panic counter is cumulative, not per-request"
    );
    assert_eq!(stats.completed, 1, "the server keeps serving after a panic");
}

#[test]
fn queue_applies_backpressure_under_flood() {
    let server = Server::builder()
        .workers(1)
        .max_batch(1)
        .queue_capacity(2)
        .session_config(SessionConfig::cpu(1))
        .build(build(ModelKind::TinyCnn, 1, 16))
        .unwrap();
    let input = deterministic_input(16, 9);
    let mut accepted = Vec::new();
    let mut rejections = 0u32;
    for _ in 0..200 {
        match server.submit(&[("data", &input)]) {
            Ok(handle) => accepted.push(handle),
            Err(ServeError::QueueFull { capacity }) => {
                assert_eq!(capacity, 2);
                rejections += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        rejections > 0,
        "a 200-request flood must hit a 2-deep queue"
    );
    for handle in accepted {
        handle.wait().unwrap();
    }
    assert_eq!(server.stats().rejected, u64::from(rejections));
}

#[test]
fn shutdown_serves_queued_requests_then_rejects_new_ones() {
    let server = tiny_server(1, 2, 1);
    let input = deterministic_input(16, 4);
    let handles: Vec<_> = (0..6)
        .map(|_| server.submit(&[("data", &input)]).unwrap())
        .collect();
    server.shutdown();
    for handle in handles {
        let outputs = handle.wait().unwrap();
        assert_eq!(outputs[0].shape().dims(), &[1, 10]);
    }
}

#[test]
fn deadline_shutdown_with_generous_deadline_serves_everything() {
    let server = tiny_server(1, 2, 1);
    let input = deterministic_input(16, 4);
    let handles: Vec<_> = (0..6)
        .map(|_| server.submit(&[("data", &input)]).unwrap())
        .collect();
    let report = server.shutdown_with_deadline(Duration::from_secs(60));
    assert!(report.drained, "generous deadline must drain the queue");
    assert_eq!(report.aborted, 0);
    for handle in handles {
        let outputs = handle.wait().unwrap();
        assert_eq!(outputs[0].shape().dims(), &[1, 10]);
    }
}

#[test]
fn deadline_shutdown_fails_queued_requests_instead_of_abandoning_them() {
    // One worker, deep queue, ZERO deadline: the worker grabs at most one
    // batch; everything else queued must get ShuttingDown — never a hang.
    let server = Server::builder()
        .workers(1)
        .max_batch(1)
        .queue_capacity(64)
        .session_config(SessionConfig::cpu(1))
        .build(build(ModelKind::TinyCnn, 1, 16))
        .unwrap();
    let input = deterministic_input(16, 8);
    let handles: Vec<_> = (0..32)
        .map(|_| server.submit(&[("data", &input)]).unwrap())
        .collect();
    let report = server.shutdown_with_deadline(Duration::ZERO);
    let mut served = 0usize;
    let mut aborted = 0usize;
    for handle in handles {
        // Every handle resolves promptly — the whole point of the deadline.
        match handle.wait() {
            Ok(outputs) => {
                assert_eq!(outputs[0].shape().dims(), &[1, 10]);
                served += 1;
            }
            Err(ServeError::ShuttingDown) => aborted += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(served + aborted, 32);
    assert_eq!(aborted, report.aborted);
    assert_eq!(report.drained, aborted == 0);
    assert!(
        aborted > 0,
        "a zero deadline with one worker and 32 queued requests must abort some"
    );
}

#[test]
fn builder_rejects_inconsistent_configs() {
    let graph = || build(ModelKind::TinyCnn, 1, 16);
    assert!(matches!(
        Server::builder().workers(0).build(graph()),
        Err(ServeError::InvalidConfig(_))
    ));
    assert!(matches!(
        Server::builder().max_batch(0).build(graph()),
        Err(ServeError::InvalidConfig(_))
    ));
    assert!(matches!(
        Server::builder().queue_capacity(0).build(graph()),
        Err(ServeError::InvalidConfig(_))
    ));
}

#[test]
fn handles_can_cross_threads() {
    let server = tiny_server(2, 2, 1);
    let input = deterministic_input(16, 11);
    let handle = server.submit(&[("data", &input)]).unwrap();
    let joined = std::thread::spawn(move || handle.wait()).join().unwrap();
    assert_eq!(joined.unwrap()[0].shape().dims(), &[1, 10]);
}

#[test]
fn tuned_server_prewarms_with_one_shared_tuning_pass() {
    // Unique cache path so this test's counters are isolated from any other
    // tuning in the process.
    let path = std::env::temp_dir().join(format!(
        "mnn-serve-tuned-prewarm-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let config = SessionConfig::builder()
        .threads(1)
        .tuning(mnn_core::TuningMode::Full)
        .tune_cache_path(&path)
        .build();
    let server = Server::builder()
        .workers(3)
        .max_batch(1)
        .session_config(config.clone())
        .build(build(ModelKind::TinyCnn, 1, 16))
        .unwrap();

    // All three workers were pre-warmed; the shared cache shows exactly one
    // tuning pass (one set of measured candidates, not three).
    let interpreter = Interpreter::from_graph(build(ModelKind::TinyCnn, 1, 16)).unwrap();
    let session = interpreter.create_session(config).unwrap();
    let stats = session.tuning_stats().unwrap();
    assert!(stats.tuned_nodes > 0, "TinyCnn has tunable convolutions");
    let after_pool = stats.measured_candidates;
    // The extra (4th) session above measured nothing either: every signature
    // was already tuned by the server's first worker.
    assert_eq!(session.report().tuning_measured_candidates, 0);

    // Tuned responses still match an untuned reference session bit-for-bit is
    // not required (different schemes round differently); they must agree
    // within kernel tolerance.
    let input = deterministic_input(16, 9);
    let mut reference = Interpreter::from_graph(build(ModelKind::TinyCnn, 1, 16))
        .unwrap()
        .create_session(SessionConfig::cpu(1))
        .unwrap();
    let want = reference.run_with(&[("data", &input)]).unwrap();
    let got = server.infer(&[("data", &input)]).unwrap();
    assert_eq!(got[0].shape(), want[0].shape());
    assert!(got[0].max_abs_diff(&want[0]) < 1e-2);

    // The pre-warm persisted the measurements for the next process.
    assert!(path.exists(), "tuning cache file was persisted");
    drop(server);
    let stats_after = mnn_core::Interpreter::from_graph(build(ModelKind::TinyCnn, 1, 16))
        .unwrap()
        .create_session(
            SessionConfig::builder()
                .threads(1)
                .tuning(mnn_core::TuningMode::Full)
                .tune_cache_path(&path)
                .build(),
        )
        .unwrap()
        .tuning_stats()
        .unwrap();
    assert_eq!(
        stats_after.measured_candidates, after_pool,
        "no further measurements after the pool's single pass"
    );
    let _ = std::fs::remove_file(&path);
}

/// Serve series carry the served graph's name as their `model` label, so
/// `/metrics` counts one model's traffic exactly while the other tests in
/// this binary serve `tiny-cnn` into the same registry.
#[test]
fn per_model_series_count_exactly_the_requests_served() {
    use mnn_graph::{ActivationKind, GraphBuilder};
    let mut b = GraphBuilder::new("metrics-label-probe");
    let x = b.input("data", Shape::nchw(1, 3, 4, 4));
    let y = b.activation("relu", x, ActivationKind::Relu);
    let server = Server::builder()
        .workers(1)
        .build(b.build(vec![y]))
        .unwrap();
    const N: u64 = 7;
    for seed in 0..N {
        server
            .infer(&[("data", &deterministic_input(4, seed))])
            .unwrap();
    }
    let text = mnn_obs::global().render_prometheus();
    for series in [
        "mnn_infer_requests_total",
        "mnn_infer_completed_total",
        "mnn_infer_latency_ms_count",
    ] {
        let line = format!("{series}{{model=\"metrics-label-probe\"}} {N}");
        assert!(
            text.lines().any(|l| l == line),
            "missing `{line}` in:\n{text}"
        );
    }
}
