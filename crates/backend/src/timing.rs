//! Wall-clock micro-benchmarking of [`Execution`] instances — the measured half
//! of the `mnn-tune` subsystem.
//!
//! The paper's *semi-automated search* argument is that the engine should pick
//! kernels from **measurements on the actual device** when it can afford to,
//! falling back to the closed-form cost model otherwise. These helpers are the
//! measurement primitive: run a prepared execution a few times on real inputs
//! and report the best observed wall-clock time (minimum, not mean — the
//! minimum is the least noisy estimator of a kernel's attainable latency on a
//! machine with background load).

use crate::traits::Execution;
use crate::BackendError;
use mnn_tensor::{Shape, Tensor};
use std::time::Instant;

/// Time `runs` invocations of `f` after `warmup` untimed ones and return the
/// minimum observed milliseconds. `runs` is clamped to at least 1.
pub fn time_runs(warmup: usize, runs: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

/// Micro-benchmark one prepared execution on the given activation inputs:
/// `warmup` untimed runs, then `runs` timed ones; returns the minimum
/// wall-clock milliseconds.
///
/// Standalone convenience over [`time_runs`] for one-off measurements (tools,
/// calibration scripts). The tuner itself composes [`time_runs`] through its
/// injectable timer abstraction instead, so tests can script candidate
/// latencies deterministically.
///
/// The first (validation) run propagates any execution error, so an
/// inapplicable candidate fails fast instead of being timed; subsequent runs of
/// a valid execution are assumed not to fail.
///
/// # Errors
///
/// Returns the [`BackendError`] of the validation run when the execution
/// rejects the inputs.
pub fn measure_execution_ms(
    execution: &mut dyn Execution,
    inputs: &[&Tensor],
    warmup: usize,
    runs: usize,
) -> Result<f64, BackendError> {
    let mut output = Tensor::zeros(Shape::vector(1));
    execution.run(inputs, &mut output)?;
    Ok(time_runs(warmup, runs, || {
        let _ = execution.run(inputs, &mut output);
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuBackend;
    use crate::traits::{Backend, ConvScheme, SchemeHint};
    use mnn_graph::{Conv2dAttrs, GraphBuilder};

    #[test]
    fn time_runs_reports_positive_minimum() {
        let ms = time_runs(1, 3, || {
            let mut acc = 0.0f32;
            for i in 0..1000 {
                acc += (i as f32).sqrt();
            }
            std::hint::black_box(acc);
        });
        assert!(ms.is_finite());
        assert!(ms >= 0.0);
    }

    #[test]
    fn measure_execution_times_a_real_convolution() {
        let mut b = GraphBuilder::new("timing");
        let x = b.input("x", mnn_tensor::Shape::nchw(1, 3, 8, 8));
        let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 4), true);
        let mut g = b.build(vec![y]);
        g.infer_shapes().unwrap();
        let backend = CpuBackend::new(1);
        let hint = SchemeHint {
            conv_scheme: Some(ConvScheme::SlidingWindow),
            threads: Some(1),
            kernels: None,
        };
        let mut exec = backend.on_create(&g.nodes()[0], &g, &hint).unwrap();
        let input = Tensor::zeros(mnn_tensor::Shape::nchw(1, 3, 8, 8));
        let ms = measure_execution_ms(exec.as_mut(), &[&input], 1, 2).unwrap();
        assert!(ms.is_finite() && ms >= 0.0);
    }

    #[test]
    fn measure_execution_surfaces_validation_errors() {
        let mut b = GraphBuilder::new("timing-err");
        let x = b.input("x", mnn_tensor::Shape::nchw(1, 3, 8, 8));
        let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 4), true);
        let mut g = b.build(vec![y]);
        g.infer_shapes().unwrap();
        let backend = CpuBackend::new(1);
        let mut exec = backend
            .on_create(&g.nodes()[0], &g, &SchemeHint::default())
            .unwrap();
        // 2-D input: the convolution rejects it on the validation run.
        let bad = Tensor::zeros(mnn_tensor::Shape::matrix(4, 4));
        assert!(measure_execution_ms(exec.as_mut(), &[&bad], 0, 1).is_err());
    }
}
