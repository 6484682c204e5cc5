//! Engine-throughput baseline: wall-clock for the Fig. 1 workflow across
//! the backend × volume matrix — materializing, sequential streaming and
//! partition-parallel streaming at 2 and 4 workers.
//!
//! Emits `BENCH_engine.json` in the current directory. Criterion-free so
//! it runs offline from the workspace (the criterion matrix lives in
//! `crates/bench/benches/engine_throughput.rs` for connected machines);
//! run with `cargo run --release --bin engine_bench`.
//!
//! Honest-skip discipline (the `search_bench` precedent): a thread count
//! above `available_parallelism` is *verified* for bit-identical targets
//! and stats but not timed — its rate is `null` with a
//! `"skipped: machine_threads = N < T"` note, because timing oversubscribed
//! workers records scheduler noise, not speedup.
//!
//! With `--smoke`, instead of regenerating the file it re-measures the
//! sequential-stream rate at the largest tier and exits non-zero if it
//! has regressed more than 30% against the *committed*
//! `BENCH_engine.json` — the CI perf gate.

use std::time::Instant;

use etlopt::engine::{Backend, Executor};
use etlopt::workload::scenarios;

const REPS: u32 = 5;

/// The volume tiers, in rows per source.
const SCALES: [usize; 3] = [1_000, 5_000, 20_000];

/// Rows/sec over a few repetitions, keeping the best run (least noise).
fn rate(exec: &Executor, wf: &etlopt::core::workflow::Workflow, rows: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let start = Instant::now();
        std::hint::black_box(exec.run(wf).expect("benchmark run executes"));
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max(rows as f64 / secs);
    }
    best
}

/// The Fig. 1 catalog at one volume tier.
fn catalog(scale: usize) -> etlopt::engine::Catalog {
    scenarios::fig1_catalog(2005, scale / 30 + 10, scale)
}

/// `stream_rows_per_sec` of one tier in a committed `BENCH_engine.json`.
fn committed_stream_rate(json: &str, scale: usize) -> Option<f64> {
    let tier = json.split(&format!("\"scale\": {scale},")).nth(1)?;
    let val = tier.split("\"stream_rows_per_sec\":").nth(1)?;
    let num: String = val
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().ok()
}

/// CI perf gate: re-measure the sequential stream on Fig. 1 at the
/// largest tier and fail on a >30% regression against the committed
/// baseline.
fn smoke() {
    let committed =
        std::fs::read_to_string("BENCH_engine.json").expect("BENCH_engine.json must be committed");
    let scale = SCALES[SCALES.len() - 1];
    let baseline = committed_stream_rate(&committed, scale)
        .unwrap_or_else(|| panic!("baseline stream rate at scale {scale} in BENCH_engine.json"));
    let stream = Executor::new(catalog(scale)).with_backend(Backend::Stream);
    let rate = rate(&stream, &scenarios::fig1(), scale);
    let floor = baseline * 0.70;
    if rate < floor {
        eprintln!(
            "engine smoke FAILED: scale {scale} stream {rate:.0} rows/sec < 70% of committed \
             baseline {baseline:.0} (floor {floor:.0})"
        );
        std::process::exit(1);
    }
    println!(
        "engine smoke ok: scale {scale} stream {rate:.0} rows/sec vs committed baseline \
         {baseline:.0} (floor {floor:.0})"
    );
}

fn json_rate(r: Option<f64>) -> String {
    match r {
        Some(r) => format!("{r:.0}"),
        None => "null".to_owned(),
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let machine_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wf = scenarios::fig1();

    let mut tiers = Vec::new();
    for scale in SCALES {
        let catalog = catalog(scale);
        let materialize = Executor::new(catalog.clone());
        let stream = Executor::new(catalog.clone()).with_backend(Backend::Stream);

        let mat_rate = rate(&materialize, &wf, scale);
        let seq_rate = rate(&stream, &wf, scale);
        let sequential = stream.run_stream(&wf).expect("sequential stream executes");

        let mut threads_json = Vec::new();
        for &threads in &[2usize, 4] {
            let parallel = Executor::new(catalog.clone())
                .with_backend(Backend::Stream)
                .with_parallelism(threads);
            // Correctness is asserted at every thread count even when the
            // timing is skipped.
            let run = parallel.run_stream(&wf).expect("parallel stream executes");
            assert_eq!(
                sequential.result.targets, run.result.targets,
                "parallel targets diverged at scale {scale}, {threads} threads"
            );
            assert_eq!(
                sequential.result.stats, run.result.stats,
                "parallel stats diverged at scale {scale}, {threads} threads"
            );
            let (par_rate, speedup, note) = if threads > machine_threads {
                (
                    None,
                    None,
                    format!(
                        ", \"note\": \"skipped: machine_threads = {machine_threads} < {threads}\""
                    ),
                )
            } else {
                let r = rate(&parallel, &wf, scale);
                (Some(r), Some(r / seq_rate), String::new())
            };
            threads_json.push(format!(
                "      {{\"threads\": {threads}, \"rows_per_sec\": {}, \"speedup_vs_seq\": {}{note}}}",
                json_rate(par_rate),
                speedup.map_or("null".to_owned(), |s| format!("{s:.2}")),
            ));
        }

        eprintln!("scale {scale}: materialize {mat_rate:.0} rows/s, stream {seq_rate:.0} rows/s");
        tiers.push(format!(
            concat!(
                "  {{\n",
                "    \"scale\": {},\n",
                "    \"materialize_rows_per_sec\": {},\n",
                "    \"stream_rows_per_sec\": {},\n",
                "    \"parallel\": [\n{}\n    ]\n",
                "  }}"
            ),
            scale,
            json_rate(Some(mat_rate)),
            json_rate(Some(seq_rate)),
            threads_json.join(",\n"),
        ));
    }

    let json = format!(
        "{{\n  \"machine_threads\": {machine_threads},\n  \"tiers\": [\n{}\n  ]\n}}\n",
        tiers.join(",\n"),
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    print!("{json}");
}
