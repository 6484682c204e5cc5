//! Engine throughput: executing the Fig. 1 workflow (initial vs optimized)
//! over growing PARTS1/PARTS2 volumes. Demonstrates that the optimizer's
//! row-count ranking translates into real work saved, and compares the
//! materializing backend against the streaming one — at the default frame
//! budget (everything resident) and at a deliberately tiny budget that
//! forces the buffer pool through its spill path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use etlopt_core::cost::RowCountModel;
use etlopt_core::opt::{HeuristicSearch, Optimizer};
use etlopt_engine::{Backend, Executor, StreamConfig};
use etlopt_workload::scenarios;

fn bench_engine(c: &mut Criterion) {
    let wf = scenarios::fig1();
    let model = RowCountModel::default();
    let optimized = HeuristicSearch::new().run(&wf, &model).unwrap().best;

    let mut group = c.benchmark_group("engine_throughput");
    for &scale in &[1_000usize, 5_000, 20_000] {
        let catalog = scenarios::fig1_catalog(2005, scale / 30 + 10, scale);
        let exec = Executor::new(catalog);
        group.throughput(Throughput::Elements(scale as u64));
        group.bench_with_input(BenchmarkId::new("fig1_initial", scale), &exec, |b, exec| {
            b.iter(|| exec.run(&wf).unwrap().stats.total())
        });
        group.bench_with_input(
            BenchmarkId::new("fig1_optimized", scale),
            &exec,
            |b, exec| b.iter(|| exec.run(&optimized).unwrap().stats.total()),
        );

        let before = exec.run(&wf).unwrap().stats.total();
        let after = exec.run(&optimized).unwrap().stats.total();
        println!("engine[scale {scale}]: rows processed {before} -> {after}");
    }
    group.finish();
}

/// Volume × backend matrix on the initial Fig. 1 state: materializing,
/// streaming with the default pool, streaming with a 4-frame pool
/// (spilling), and partition-parallel streaming at 2 and 4 workers. The
/// printed counter lines feed the README perf table. Thread counts above
/// `available_parallelism` are skipped with an honest note — timing them
/// on an undersized machine would only record scheduler noise.
fn bench_backends(c: &mut Criterion) {
    let wf = scenarios::fig1();
    let small_pool = StreamConfig {
        batch_rows: 256,
        frame_budget: 4,
        parallelism: 1,
        ..StreamConfig::default()
    };
    let machine_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut group = c.benchmark_group("engine_backends");
    for &scale in &[1_000usize, 5_000, 20_000] {
        let catalog = scenarios::fig1_catalog(2005, scale / 30 + 10, scale);
        let materialize = Executor::new(catalog.clone());
        let stream = Executor::new(catalog.clone()).with_backend(Backend::Stream);
        let spilling = Executor::new(catalog.clone())
            .with_backend(Backend::Stream)
            .with_stream_config(small_pool);

        group.throughput(Throughput::Elements(scale as u64));
        group.bench_with_input(
            BenchmarkId::new("materialize", scale),
            &materialize,
            |b, exec| b.iter(|| exec.run(&wf).unwrap().stats.total()),
        );
        group.bench_with_input(BenchmarkId::new("stream", scale), &stream, |b, exec| {
            b.iter(|| exec.run(&wf).unwrap().stats.total())
        });
        group.bench_with_input(
            BenchmarkId::new("stream_spill", scale),
            &spilling,
            |b, exec| b.iter(|| exec.run(&wf).unwrap().stats.total()),
        );

        // Threads dimension: partition-parallel streaming at the default
        // pool. Every thread count is first checked bit-identical to the
        // sequential stream before it is timed.
        let sequential = stream.run_stream(&wf).unwrap();
        for &threads in &[2usize, 4] {
            let parallel = Executor::new(catalog.clone())
                .with_backend(Backend::Stream)
                .with_parallelism(threads);
            let run = parallel.run_stream(&wf).unwrap();
            assert_eq!(
                sequential.result.targets, run.result.targets,
                "parallel targets diverged at scale {scale}, {threads} threads"
            );
            assert_eq!(
                sequential.result.stats, run.result.stats,
                "parallel stats diverged at scale {scale}, {threads} threads"
            );
            if threads > machine_threads {
                println!(
                    "backends[scale {scale}]: stream_t{threads} \
                     skipped: machine_threads = {machine_threads} < {threads}"
                );
                continue;
            }
            group.bench_with_input(
                BenchmarkId::new(format!("stream_t{threads}"), scale),
                &parallel,
                |b, exec| b.iter(|| exec.run(&wf).unwrap().stats.total()),
            );
        }

        let run = spilling.run_stream(&wf).unwrap();
        println!("backends[scale {scale}]: spilling run {:?}", run.counters);
        assert_eq!(
            materialize.run(&wf).unwrap().targets,
            run.result.targets,
            "backends diverged at scale {scale}"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine, bench_backends);
criterion_main!(benches);
