//! Spill-correctness property test: under a frame budget far below the
//! intermediate volume, the streaming backend must stay **bit-identical**
//! to an effectively unbounded run — same target tables (schema, rows,
//! row order) and same `ExecStats` — while actually exercising the
//! eviction/spill/reload path. Driven by the in-repo seeded [`Rng`]
//! (offline build, no `proptest`); each case names its seed on failure.

use etlopt_core::predicate::Predicate;
use etlopt_core::rng::Rng;
use etlopt_core::scalar::Scalar;
use etlopt_core::schema::Schema;
use etlopt_core::semantics::{Aggregation, BinaryOp, UnaryOp};
use etlopt_core::workflow::{Workflow, WorkflowBuilder};
use etlopt_engine::{Catalog, Executor, StreamConfig, Table};

const CASES: u64 = 48;

/// Tiny pool: two frames of eight rows — every materialization boundary
/// in these workflows overflows it.
const TINY: StreamConfig = StreamConfig {
    batch_rows: 8,
    frame_budget: 2,
    parallelism: 1,
    channel_batches: 4,
};

fn value(rng: &mut Rng) -> Scalar {
    match rng.gen_range(0..10u32) {
        0 => Scalar::Null,
        1..=4 => Scalar::Int(rng.gen_range(-50..50i64)),
        _ => Scalar::Float((rng.gen_range(-500.0..500.0f64) * 8.0).round() / 8.0),
    }
}

fn random_table(rng: &mut Rng, rows: usize) -> Table {
    Table::from_rows(
        Schema::of(["k", "v"]),
        (0..rows)
            .map(|_| vec![Scalar::Int(rng.gen_range(0..12i64)), value(rng)])
            .collect(),
    )
    .expect("rows match schema")
}

/// A linear pipeline whose NN output fans out to a second target, so the
/// full (large) intermediate is drained through the pool.
fn fan_out_wf(cut: f64) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["k", "v"]), 200.0);
    let nn = b.unary("NN", UnaryOp::not_null("v"), s);
    let f = b.unary("σ", UnaryOp::filter(Predicate::gt("v", cut)), nn);
    b.target("KEPT", Schema::of(["k", "v"]), f);
    b.target("RAW", Schema::of(["k", "v"]), nn);
    b.build().expect("workflow is well-formed")
}

/// Aggregation fed by a spilled fan-out boundary.
fn agg_wf(cut: f64) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["k", "v"]), 200.0);
    let f = b.unary("σ", UnaryOp::filter(Predicate::le("v", cut)), s);
    let g = b.unary(
        "γ",
        UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")),
        f,
    );
    b.target("SUMS", Schema::of(["k", "v"]), g);
    b.target("KEPT", Schema::of(["k", "v"]), f);
    b.build().expect("workflow is well-formed")
}

/// Set algebra over two sources: difference and intersection both drain
/// their right side through the pool.
fn binary_wf(op: BinaryOp) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let s1 = b.source("A", Schema::of(["k", "v"]), 200.0);
    let s2 = b.source("B", Schema::of(["k", "v"]), 200.0);
    let x = b.binary("⊖", op, s1, s2);
    b.target("OUT", Schema::of(["k", "v"]), x);
    b.build().expect("workflow is well-formed")
}

/// Run `wf` on both backends with the tiny pool; demand bit-identical
/// results and return the streaming run's spilled-page count.
fn check(wf: &Workflow, catalog: Catalog, seed: u64) -> u64 {
    let exec = Executor::new(catalog).with_stream_config(TINY);
    let mat = exec.run_materialize(wf).expect("materialize executes");
    let run = exec.run_stream(wf).expect("stream executes");
    assert_eq!(mat.targets, run.result.targets, "seed {seed}: targets");
    assert_eq!(mat.stats, run.result.stats, "seed {seed}: stats");
    assert!(
        run.counters.peak_resident_frames <= TINY.frame_budget as u64,
        "seed {seed}: budget exceeded ({:?})",
        run.counters
    );
    run.counters.pages_spilled
}

#[test]
fn spilled_runs_stay_bit_identical() {
    let mut total_spilled = 0;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5117);
        let rows = rng.gen_range(150..300usize);
        let cut = rng.gen_range(-400.0..400.0f64);

        let mut cat = Catalog::new();
        cat.insert("S", random_table(&mut rng, rows));
        total_spilled += check(&fan_out_wf(cut), cat, seed);

        let mut cat = Catalog::new();
        cat.insert("S", random_table(&mut rng, rows));
        total_spilled += check(&agg_wf(cut), cat, seed);

        let op = if seed % 2 == 0 {
            BinaryOp::Difference
        } else {
            BinaryOp::Intersection
        };
        let mut cat = Catalog::new();
        cat.insert("A", random_table(&mut rng, rows));
        cat.insert("B", random_table(&mut rng, rows / 2));
        total_spilled += check(&binary_wf(op), cat, seed);
    }
    // The corpus as a whole must have really gone through the spill path.
    assert!(total_spilled > 0, "tiny budget never spilled");
}

/// Parallel variant of [`check`]: the pipelined partition-parallel
/// stream at `threads` workers and `caps` channel batches must reproduce
/// the 1-thread stream bit-for-bit (targets *and* stats) under the same
/// tiny pool. Returns the parallel run's (spilled, staged) page counts
/// so the corpus can prove the sharded pool really spilled and the
/// pipeline really staged inter-segment sets through it.
fn check_parallel(
    wf: &Workflow,
    catalog: Catalog,
    seed: u64,
    threads: usize,
    caps: usize,
) -> (u64, u64) {
    let base = Executor::new(catalog.clone())
        .with_stream_config(TINY)
        .run_stream(wf)
        .expect("1-thread stream executes");
    let cfg = StreamConfig {
        parallelism: threads,
        channel_batches: caps,
        ..TINY
    };
    let par = Executor::new(catalog)
        .with_stream_config(cfg)
        .run_stream(wf)
        .expect("parallel stream executes");
    assert_eq!(
        base.result.targets, par.result.targets,
        "seed {seed}: targets at {threads} threads, {caps} channel batches"
    );
    assert_eq!(
        base.result.stats, par.result.stats,
        "seed {seed}: stats at {threads} threads, {caps} channel batches"
    );
    (par.counters.pages_spilled, par.counters.pages_staged)
}

/// The pipelined partition-parallel stream under the two-frame pool:
/// every case runs at {2, 4} workers × {1, 4} channel batches; targets
/// and `ExecStats` must be bit-identical to the 1-thread stream across
/// the whole grid, and the corpus as a whole must exercise both the
/// sharded spill path and inter-segment staging. The aggregation and
/// dedup-free fan-out workflows cover both exchange-forcing (group-by)
/// and exchange-free (row-wise) plans.
#[test]
fn parallel_spilled_runs_stay_bit_identical() {
    let mut total_spilled = 0;
    let mut total_staged = 0;
    let mut tally = |(spilled, staged): (u64, u64)| {
        total_spilled += spilled;
        total_staged += staged;
    };
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x9a17);
        let rows = rng.gen_range(150..300usize);
        let cut = rng.gen_range(-400.0..400.0f64);
        for threads in [2usize, 4] {
            for caps in [1usize, 4] {
                let mut cat = Catalog::new();
                cat.insert("S", random_table(&mut rng, rows));
                tally(check_parallel(&fan_out_wf(cut), cat, seed, threads, caps));

                let mut cat = Catalog::new();
                cat.insert("S", random_table(&mut rng, rows));
                tally(check_parallel(&agg_wf(cut), cat, seed, threads, caps));

                let op = if seed % 2 == 0 {
                    BinaryOp::Difference
                } else {
                    BinaryOp::Intersection
                };
                let mut cat = Catalog::new();
                cat.insert("A", random_table(&mut rng, rows));
                cat.insert("B", random_table(&mut rng, rows / 2));
                tally(check_parallel(&binary_wf(op), cat, seed, threads, caps));
            }
        }
    }
    assert!(total_spilled > 0, "tiny sharded pool never spilled");
    assert!(total_staged > 0, "pipeline never staged pages");
}

/// A butterfly: one source fans out into two filter branches that later
/// re-converge through a union into an aggregate, with one branch also
/// drained to its own target.
fn butterfly_wf(cut: f64) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["k", "v"]), 200.0);
    let nn = b.unary("NN", UnaryOp::not_null("v"), s);
    let hi = b.unary("HI", UnaryOp::filter(Predicate::gt("v", cut)), nn);
    let lo = b.unary("LO", UnaryOp::filter(Predicate::le("v", cut)), nn);
    let u = b.binary("∪", BinaryOp::Union, hi, lo);
    let g = b.unary(
        "γ",
        UnaryOp::aggregate(Aggregation::sum(["k"], "v", "v")),
        u,
    );
    b.target("SUMS", Schema::of(["k", "v"]), g);
    b.target("HIGH", Schema::of(["k", "v"]), hi);
    b.build().expect("workflow is well-formed")
}

/// Butterfly branch overlap: after the shared NN segment stages, the HI
/// and LO branch tasks are independently ready, and the dependency-
/// counted scheduler launches both before waiting on either — so every
/// parallel run must have observed at least two tasks in flight at once,
/// while staying bit-identical to the 1-thread stream.
#[test]
fn butterfly_branches_overlap_and_stay_bit_identical() {
    for seed in 0..CASES / 4 {
        let mut rng = Rng::seed_from_u64(seed ^ 0xb077);
        let rows = rng.gen_range(150..300usize);
        let cut = rng.gen_range(-400.0..400.0f64);
        let wf = butterfly_wf(cut);
        let mut cat = Catalog::new();
        cat.insert("S", random_table(&mut rng, rows));
        let base = Executor::new(cat.clone())
            .with_stream_config(TINY)
            .run_stream(&wf)
            .expect("1-thread stream executes");
        let par = Executor::new(cat)
            .with_stream_config(StreamConfig {
                parallelism: 2,
                ..TINY
            })
            .run_stream(&wf)
            .expect("parallel stream executes");
        assert_eq!(base.result.targets, par.result.targets, "seed {seed}");
        assert_eq!(base.result.stats, par.result.stats, "seed {seed}");
        assert!(
            par.counters.peak_inflight_tasks >= 2,
            "seed {seed}: branches never overlapped ({:?})",
            par.counters
        );
    }
}

/// Pool-poison regression: a worker that panics mid-pipeline (here via a
/// scalar function that panics on the first Float it sees) must surface
/// as a typed `WorkerPanicked` error — not a deadlock on a full channel,
/// a poisoned pool mutex, or a propagated panic. A watchdog thread
/// bounds the wait so a regression fails fast instead of hanging CI.
#[test]
fn panicking_worker_reports_typed_error_without_deadlock() {
    use std::sync::mpsc;
    use std::time::Duration;

    let mut fns = etlopt_engine::FunctionRegistry::builtin();
    fns.register("boom", |args: &[Scalar]| {
        if matches!(args[0], Scalar::Float(_)) {
            panic!("injected worker panic");
        }
        Ok(args[0].clone())
    });

    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["k", "v"]), 200.0);
    let f = b.unary("BOOM", UnaryOp::function("boom", ["v"], "w"), s);
    b.target("OUT", Schema::of(["k", "w"]), f);
    let wf = b.build().expect("workflow is well-formed");

    let mut rng = Rng::seed_from_u64(0xdead);
    let mut cat = Catalog::new();
    cat.insert("S", random_table(&mut rng, 200));

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = Executor::new(cat)
            .with_functions(fns)
            .with_stream_config(StreamConfig {
                parallelism: 4,
                channel_batches: 1,
                ..TINY
            })
            .run_stream(&wf);
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("pipeline must not deadlock on a panicking worker");
    match result {
        Err(etlopt_engine::EngineError::WorkerPanicked { detail, .. }) => {
            assert!(
                detail.contains("injected worker panic"),
                "panic payload should be preserved: {detail}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn empty_sources_never_spill_and_still_match() {
    for (wf, names) in [
        (fan_out_wf(0.0), &["S", ""][..]),
        (binary_wf(BinaryOp::Difference), &["A", "B"][..]),
    ] {
        let mut cat = Catalog::new();
        for name in names.iter().filter(|n| !n.is_empty()) {
            cat.insert(*name, Table::empty(Schema::of(["k", "v"])));
        }
        let spilled = check(&wf, cat, u64::MAX);
        assert_eq!(spilled, 0);
    }
}
