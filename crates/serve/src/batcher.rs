//! Executing one micro-batch on a pooled session.
//!
//! The hot path of the serving runtime: stack the coalesced requests' inputs
//! along the batch dimension ([`Tensor::stack_batch`]), steer the session to
//! the batched geometry (`resize_input` + `resize_session`, which the
//! per-signature plan cache turns into an O(1) plan swap after first sight of
//! a batch size), run **one** inference, and scatter the outputs back to the
//! per-request response slots ([`Tensor::split_batch`]).
//!
//! Kernels compute each sample of a batch independently, so the scattered
//! outputs are bit-identical to running every request alone — the property the
//! stress test in `tests/stress.rs` locks in.

use crate::request::QueuedRequest;
use crate::stats::{Served, StatsCollector};
use crate::ServeError;
use mnn_core::{CoreError, Session};
use mnn_obs::TraceContext;
use mnn_tensor::{Shape, Tensor};
use std::time::Instant;

/// Instants a batch run passes back so stages can be attributed: everything
/// before `run_start` is batch assembly (stacking, geometry), `run_start →
/// run_end` is the inference itself, and `run_end` onward is scatter.
#[derive(Default)]
struct RunMarks {
    run_start: Option<Instant>,
    run_end: Option<Instant>,
}

/// Run `batch` (1..=max_batch requests with one shared signature) on
/// `session`, fulfilling every request's response slot and recording stats.
pub(crate) fn process_batch(
    session: &mut Session,
    mut batch: Vec<QueuedRequest>,
    stats: &StatsCollector,
) {
    // The first traced member's scope wraps the run: the session executor
    // captures per-op spans into its sink, log lines carry its trace id, and
    // the profiler (if on) stamps its spans with the same id. Ops are copied
    // to the other traced members afterwards — the batch runs once, so every
    // member's waterfall shows the same kernels.
    let scope_trace = batch.iter().find_map(|request| request.trace.clone());
    let mut marks = RunMarks::default();
    // A panic anywhere in the engine (kernel asserts, layout checks) must not
    // kill the worker with the batch's slots unfulfilled — clients blocked in
    // `wait()` would hang forever. Contain it and fan out an error instead.
    // The session is safe to reuse: a run mutates only per-run state.
    let result = {
        let _scope = scope_trace.as_ref().map(|trace| trace.enter());
        if scope_trace.is_some() {
            mnn_obs::debug!("mnn-serve", "executing batch of {}", batch.len());
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(session, &mut batch, &mut marks)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            stats.record_worker_panic();
            mnn_obs::warn!(
                "mnn-serve",
                "worker panic contained, failing its batch: {msg}"
            );
            Err(ServeError::Inference(format!("worker panicked: {msg}")))
        })
    };
    let scatter_end = Instant::now();
    attribute_stages(&batch, scope_trace.as_ref(), &marks, scatter_end);
    // Record stats BEFORE fulfilling any slot: a client that wakes from
    // `wait()` must already see its request in the counters. The stage
    // times come from the queue's dequeue stamp, so they exist with tracing
    // off too.
    let ms = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1000.0;
    let served: Vec<(Served, Option<String>)> = batch
        .iter()
        .map(|request| {
            let dequeued = request.dequeued.unwrap_or(request.enqueued);
            let served = Served {
                latency_ms: request.enqueued.elapsed().as_secs_f64() * 1000.0,
                queue_wait_ms: ms(request.enqueued, dequeued),
                batch_assembly_ms: marks.run_start.map_or(0.0, |start| ms(dequeued, start)),
            };
            (
                served,
                request.trace.as_ref().map(|trace| trace.trace_id_hex()),
            )
        })
        .collect();
    stats.record_batch(&served, result.is_ok());
    let status = if result.is_ok() { 200 } else { 500 };
    match result {
        Ok(outputs) => {
            for (request, outputs) in batch.iter().zip(outputs) {
                request.slot.fulfill(Ok(outputs));
            }
        }
        Err(error) => {
            for request in &batch {
                request.slot.fulfill(Err(error.clone()));
            }
        }
    }
    // Traces the serve layer opened itself (no HTTP frontend) end here, at
    // fulfillment; frontend-owned traces are finished after the response
    // write so the waterfall covers encode + write too.
    for request in &batch {
        if let Some(trace) = &request.trace {
            if trace.finishes_on_fulfill() {
                trace.stage_since("serve", 0, trace.started());
                trace.finish(status);
                stats.record_trace_finished();
            }
        }
    }
}

/// Attach queue-wait / batch-assembly / inference / scatter stage spans to
/// every traced member, link them all to one generated batch span, and fan
/// the head's captured op spans out to the other members (shifted onto their
/// timebases).
fn attribute_stages(
    batch: &[QueuedRequest],
    scope_trace: Option<&mnn_obs::ActiveTrace>,
    marks: &RunMarks,
    scatter_end: Instant,
) {
    let Some(head) = scope_trace else {
        return;
    };
    // One span id names this batch execution; every traced member records it
    // together with the trace ids of its co-batched peers.
    let batch_span_id = TraceContext::generate().span_id_hex();
    let members: Vec<String> = batch
        .iter()
        .filter_map(|request| request.trace.as_ref().map(|trace| trace.trace_id_hex()))
        .collect();
    let head_ops = head
        .ops_sink()
        .lock()
        .map(|ops| ops.clone())
        .unwrap_or_default();
    for request in batch {
        let Some(trace) = &request.trace else {
            continue;
        };
        if let Some(dequeued) = request.dequeued {
            trace.add_stage("queue_wait", 1, request.enqueued, dequeued);
            if let Some(run_start) = marks.run_start {
                trace.add_stage("batch_assembly", 1, dequeued, run_start);
            }
        }
        if let (Some(run_start), Some(run_end)) = (marks.run_start, marks.run_end) {
            trace.add_stage("inference", 1, run_start, run_end);
            trace.add_stage("scatter", 1, run_end, scatter_end);
        }
        trace.set_batch(&batch_span_id, members.clone());
        let is_head = trace.context() == head.context();
        if !is_head && !head_ops.is_empty() {
            // The ops were timed against the head's start; shift them onto
            // this member's timebase and restamp the trace id.
            let shift_us = match trace.started().checked_duration_since(head.started()) {
                Some(later) => -(later.as_secs_f64() * 1e6),
                None => {
                    head.started()
                        .saturating_duration_since(trace.started())
                        .as_secs_f64()
                        * 1e6
                }
            };
            let trace_id = trace.trace_id_hex();
            let shifted = head_ops.iter().map(|op| {
                let mut op = op.clone();
                op.start_us += shift_us;
                op.trace_id = trace_id.clone();
                op
            });
            if let Ok(mut sink) = trace.ops_sink().lock() {
                sink.extend(shifted);
            }
        }
    }
}

/// The batched inference itself: returns per-request outputs in graph-output
/// order. Any failure fails the whole batch (the caller fans the error out).
fn run_batch(
    session: &mut Session,
    batch: &mut [QueuedRequest],
    marks: &mut RunMarks,
) -> Result<Vec<Vec<Tensor>>, ServeError> {
    let k = batch.len();
    debug_assert!(k > 0, "next_batch never returns an empty batch");

    // Take ownership of every request's tensors so stacking copies each input
    // buffer at most once.
    let mut taken: Vec<Vec<(String, Tensor)>> = batch
        .iter_mut()
        .map(|request| std::mem::take(&mut request.inputs))
        .collect();

    let stacked: Vec<(String, Tensor)> = if k == 1 {
        taken.pop().expect("k == 1")
    } else {
        let arity = taken[0].len();
        let mut stacked = Vec::with_capacity(arity);
        for position in (0..arity).rev() {
            // Pop from the back so each request's Vec shrinks without shifts.
            let mut column = Vec::with_capacity(k);
            let mut name = String::new();
            for inputs in taken.iter_mut() {
                let (n, tensor) = inputs.remove(position);
                name = n;
                column.push(tensor);
            }
            stacked.push((name, Tensor::stack_batch(&column)?));
        }
        stacked.reverse();
        stacked
    };

    ensure_geometry(session, &stacked)?;
    let refs: Vec<(&str, &Tensor)> = stacked
        .iter()
        .map(|(name, tensor)| (name.as_str(), tensor))
        .collect();
    marks.run_start = Some(Instant::now());
    let outputs = session.run_with(&refs)?;
    marks.run_end = Some(Instant::now());

    if k == 1 {
        return Ok(vec![outputs]);
    }
    // Scatter: split every output along the batch dimension and transpose to
    // per-request lists.
    let mut per_request: Vec<Vec<Tensor>> =
        (0..k).map(|_| Vec::with_capacity(outputs.len())).collect();
    for output in outputs {
        let parts = output.split_batch(k)?;
        for (request, part) in per_request.iter_mut().zip(parts) {
            request.push(part);
        }
    }
    Ok(per_request)
}

/// Resize the session's inputs to the batched geometry if it is not already
/// there. After the first batch of a given size this is a plan-cache hit.
fn ensure_geometry(session: &mut Session, inputs: &[(String, Tensor)]) -> Result<(), CoreError> {
    let mut dirty = false;
    for (name, tensor) in inputs {
        let current = current_input_shape(session, name)?;
        if current.as_ref() != Some(tensor.shape()) {
            session.resize_input(name, tensor.shape().clone())?;
            dirty = true;
        }
    }
    if dirty {
        session.resize_session()?;
    }
    Ok(())
}

fn current_input_shape(session: &Session, name: &str) -> Result<Option<Shape>, CoreError> {
    let graph = session.graph();
    let id = graph
        .input_named(name)
        .ok_or_else(|| CoreError::InvalidInput(format!("unknown input '{name}'")))?;
    Ok(graph.tensor_info(id)?.shape.clone())
}
