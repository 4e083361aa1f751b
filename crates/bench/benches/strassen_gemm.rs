//! Criterion benches for the GEMM kernels: direct blocked GEMM versus
//! Strassen (Table 3), and the narrow-output crossover between the SIMD
//! micro-kernel and the dot-product GEMM that `im2col-simd` relies on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mnn_bench::deterministic_buffer;
use mnn_kernels::gemm::{gemm, gemm_mt_with, gemm_nt_with};
use mnn_kernels::simd::KernelBackend;
use mnn_kernels::strassen::strassen;
use std::time::Duration;

/// (a, b, c) for [a, b] x [b, c]. The 1024 case of the paper's Table 3 is covered
/// by the `table3_strassen` binary; keeping 256/512 here keeps `cargo bench` quick.
const SIZES: [(usize, usize, usize); 3] = [(256, 256, 256), (512, 512, 512), (512, 512, 1024)];

fn bench_strassen(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_strassen");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));
    for (a, b, n) in SIZES {
        let lhs = deterministic_buffer(a * b, 1);
        let rhs = deterministic_buffer(b * n, 2);
        let mut out = vec![0.0f32; a * n];
        let label = format!("{a}x{b}x{n}");
        group.bench_with_input(BenchmarkId::new("direct", &label), &label, |bench, _| {
            bench.iter(|| gemm(a, b, n, &lhs, &rhs, &mut out))
        });
        group.bench_with_input(BenchmarkId::new("strassen", &label), &label, |bench, _| {
            bench.iter(|| strassen(a, b, n, &lhs, &rhs, &mut out))
        });
    }
    group.finish();
}

/// The `[512, 4608] x [4608, n]` product of a 3x3, 512-channel convolution
/// (ResNet-18 layer 4) over output widths `n = out_h*out_w` around the
/// micro-kernel's column tile (16 on AVX2, 8 on NEON), on the active kernel
/// set with 2 threads: the micro-kernel reads patches as `[k, n]`, the
/// dot-product GEMM as `[n, k]`.
fn bench_narrow(c: &mut Criterion) {
    let kb = KernelBackend::active();
    let (m, k) = (512, 4608);
    let mut group = c.benchmark_group("narrow_gemm");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let weight = deterministic_buffer(m * k, 3);
    for n in [1, 4, 8, 9, 15, 16, 24] {
        let patches = deterministic_buffer(k * n, 4);
        let mut out = vec![0.0f32; m * n];
        group.bench_with_input(BenchmarkId::new("micro-kernel", n), &n, |bench, _| {
            bench.iter(|| gemm_mt_with(kb, 2, m, k, n, &weight, &patches, &mut out))
        });
        group.bench_with_input(BenchmarkId::new("dot-product", n), &n, |bench, _| {
            bench.iter(|| gemm_nt_with(kb, 2, m, k, n, &weight, &patches, &mut out))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strassen, bench_narrow);
criterion_main!(benches);
