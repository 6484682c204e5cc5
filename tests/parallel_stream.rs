//! The partition-parallel stream coordinator, checked in the root test
//! suite: on Fig. 1 and two smoke-corpus scenarios, every worker count ×
//! channel capacity must load exactly the targets (rows and row order)
//! and `ExecStats` of the 1-thread stream and of the materializing
//! backend. Small batches and a small frame budget make rows cross
//! channels, exchanges and staged pool pages many times per run.

use etlopt::conformance::{scenario_executor, SMOKE_SEEDS};
use etlopt::engine::StreamConfig;
use etlopt::prelude::*;
use etlopt::workload::{scenarios, Generator, GeneratorConfig, SizeCategory};

fn config(parallelism: usize, channel_batches: usize) -> StreamConfig {
    StreamConfig {
        batch_rows: 16,
        frame_budget: 4,
        parallelism,
        channel_batches,
    }
}

fn check(name: &str, exec: Executor, wf: &etlopt::core::workflow::Workflow) {
    let materialized = exec.run_materialize(wf).unwrap();
    let sequential = exec
        .clone()
        .with_stream_config(config(1, 4))
        .run_stream(wf)
        .unwrap();
    assert_eq!(sequential.result.targets, materialized.targets, "{name}");
    assert_eq!(sequential.result.stats, materialized.stats, "{name}");
    for parallelism in [2, 4] {
        for channel_batches in [1, 4] {
            let run = exec
                .clone()
                .with_stream_config(config(parallelism, channel_batches))
                .run_stream(wf)
                .unwrap();
            let at = format!("{name}, {parallelism} workers, {channel_batches}-batch channels");
            assert_eq!(run.result.targets, materialized.targets, "{at}");
            assert_eq!(run.result.stats, materialized.stats, "{at}");
            assert_eq!(run.counters.worker_rows.len(), parallelism, "{at}");
            assert!(run.counters.pages_staged > 0, "{at}: nothing was staged");
        }
    }
}

#[test]
fn fig1_parallel_stream_matches_sequential_and_materialize() {
    let exec = Executor::new(scenarios::fig1_catalog(11, 40, 600));
    check("fig1", exec, &scenarios::fig1());
}

#[test]
fn smoke_scenarios_parallel_stream_matches_sequential_and_materialize() {
    for &seed in &SMOKE_SEEDS[..2] {
        let s = Generator::generate(GeneratorConfig {
            seed,
            category: SizeCategory::Small,
        });
        let exec = scenario_executor(&s.workflow, 96, seed);
        check(&format!("smoke seed {seed}"), exec, &s.workflow);
    }
}
