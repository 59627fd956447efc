//! Criterion micro-benchmarks for the DP kernels: the scalar y-drop
//! reference (exact and conservative pruning), the banded baseline, the
//! ungapped x-drop filter, and the warp wavefront engine (with and
//! without cyclic register buffering accounted).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fastz_align::ydrop::{ydrop_extend, PruneMode};
use fastz_align::{banded_extend, xdrop_extend};
use fastz_core::{warp_extend, OptFlags, WarpConfig, WavefrontBackend};
use fastz_genome::evolve::random_codes;
use fastz_genome::Scoring;
use fastz_gpu_sim::SharedMem;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A homologous pair: `len` bases at ~94 % identity with a couple of
/// indels, embedded in unrelated flanks.
fn homologous_pair(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = random_codes(len, 0.45, &mut rng);
    let mut q = t.clone();
    for b in q.iter_mut() {
        if rng.gen_bool(0.06) {
            *b = (*b + 1 + rng.gen_range(0..3)) % 4;
        }
    }
    if len > 100 {
        q.splice(len / 3..len / 3 + 2, []);
        q.splice(2 * len / 3..2 * len / 3, [0u8, 1, 2]);
    }
    t.extend(random_codes(300, 0.45, &mut rng));
    q.extend(random_codes(300, 0.45, &mut rng));
    (t, q)
}

fn bench_scalar_ydrop(c: &mut Criterion) {
    let scoring = Scoring::bench_scaled();
    let mut g = c.benchmark_group("scalar_ydrop");
    g.sample_size(20);
    for len in [128usize, 1024, 8192] {
        let (t, q) = homologous_pair(len, len as u64);
        let cells = ydrop_extend(&t, &q, &scoring, PruneMode::Exact, false)
            .stats
            .cells;
        g.throughput(Throughput::Elements(cells));
        g.bench_with_input(BenchmarkId::new("exact", len), &len, |b, _| {
            b.iter(|| ydrop_extend(&t, &q, &scoring, PruneMode::Exact, false).best_score)
        });
        g.bench_with_input(BenchmarkId::new("conservative", len), &len, |b, _| {
            b.iter(|| ydrop_extend(&t, &q, &scoring, PruneMode::Conservative, false).best_score)
        });
        g.bench_with_input(BenchmarkId::new("with_traceback", len), &len, |b, _| {
            b.iter(|| ydrop_extend(&t, &q, &scoring, PruneMode::Exact, true).best_score)
        });
    }
    g.finish();
}

fn bench_warp_engine(c: &mut Criterion) {
    let scoring = Scoring::bench_scaled();
    let mut g = c.benchmark_group("warp_engine");
    g.sample_size(20);
    for len in [128usize, 1024, 8192] {
        let (t, q) = homologous_pair(len, 7 + len as u64);
        let insp =
            WarpConfig::inspector(&OptFlags::fastz()).with_backend(WavefrontBackend::Interpreter);
        let insp_simd = insp.with_backend(WavefrontBackend::Simd);
        let no_cyclic =
            WarpConfig::inspector(&OptFlags::base()).with_backend(WavefrontBackend::Interpreter);
        g.bench_with_input(BenchmarkId::new("inspector", len), &len, |b, _| {
            let mut shared = SharedMem::new(96 * 1024);
            b.iter(|| warp_extend(&t, &q, &scoring, &insp, &mut shared).best_score)
        });
        g.bench_with_input(BenchmarkId::new("inspector_simd", len), &len, |b, _| {
            let mut shared = SharedMem::new(96 * 1024);
            b.iter(|| warp_extend(&t, &q, &scoring, &insp_simd, &mut shared).best_score)
        });
        g.bench_with_input(
            BenchmarkId::new("inspector_no_cyclic", len),
            &len,
            |b, _| {
                let mut shared = SharedMem::new(96 * 1024);
                b.iter(|| warp_extend(&t, &q, &scoring, &no_cyclic, &mut shared).best_score)
            },
        );
        // Executor: trimmed to the inspector's optimum.
        let mut shared = SharedMem::new(96 * 1024);
        let pre = warp_extend(&t, &q, &scoring, &insp, &mut shared);
        let exec = WarpConfig::executor(&OptFlags::fastz(), pre.best_i, pre.best_j)
            .with_backend(WavefrontBackend::Interpreter);
        let exec_simd = exec.with_backend(WavefrontBackend::Simd);
        g.bench_with_input(BenchmarkId::new("executor_trimmed", len), &len, |b, _| {
            let mut shared = SharedMem::new(96 * 1024);
            b.iter(|| warp_extend(&t, &q, &scoring, &exec, &mut shared).best_score)
        });
        g.bench_with_input(
            BenchmarkId::new("executor_trimmed_simd", len),
            &len,
            |b, _| {
                let mut shared = SharedMem::new(96 * 1024);
                b.iter(|| warp_extend(&t, &q, &scoring, &exec_simd, &mut shared).best_score)
            },
        );
    }
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let scoring = Scoring::bench_scaled();
    let mut g = c.benchmark_group("baseline_kernels");
    g.sample_size(20);
    let (t, q) = homologous_pair(1024, 99);
    g.bench_function("banded_w32", |b| {
        b.iter(|| banded_extend(&t, &q, 32, &scoring, false).best_score)
    });
    g.bench_function("ungapped_xdrop", |b| {
        b.iter(|| xdrop_extend(&t, &q, 100, 100, 19, &scoring).score)
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_scalar_ydrop,
    bench_warp_engine,
    bench_baselines
);
criterion_main!(benches);
