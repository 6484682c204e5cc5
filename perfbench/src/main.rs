//! End-to-end and per-layer benchmark of the `etlopt-server` daemon.
//!
//! ```text
//! perfbench --workload plan|execute-cold|shared-mix --seed N --seconds S --trace 0|1
//! perfbench steady [--runs N] [--workloads a,b] [--seconds S] [--base-seed N]
//! ```
//!
//! A run spawns the daemon in process (`etlopt_server::spawn`, two
//! workers) and drives it over loopback TCP. With `--trace 0`, two
//! persistent client connections run a closed loop for `--seconds` and
//! the run prints the end-to-end metrics. With `--trace 1`, one client
//! sends the same requests in the same order while each is replayed in
//! process under per-layer spans, and the run prints the per-layer
//! metrics. Either way every response body is checked against the
//! one-shot reference outside the measured phase, and the last line of
//! standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//!
//! `steady` runs every workload as two independent sets of runs, each
//! run in a child process with its own seed, and prints both sets'
//! medians and quartiles per metric with whether they agree within the
//! metric's bound in `BENCHMARK.json`.

mod daemon;
mod replay;
mod run;
mod stats;
mod steady;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::Workload;

/// Directory of this package; the checkout root is its parent.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where runs write their span files and steadiness records.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// The checked-out commit, read from `.git` when the checkout has one.
pub fn git_rev() -> String {
    let git = package_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or("").to_owned())
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    match rev.trim() {
        "" => "unknown".to_owned(),
        r => r.to_owned(),
    }
}

/// Hardware threads available to the process.
pub fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Minimal `--flag value` parser.
struct Flags(Vec<String>);

impl Flags {
    fn take(&mut self, name: &str) -> Option<String> {
        let pos = self.0.iter().position(|a| a == name)?;
        let value = self.0.get(pos + 1)?.clone();
        self.0.drain(pos..pos + 2);
        Some(value)
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.take(name)
            .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
            .transpose()
    }

    fn finish(&self) -> Result<(), String> {
        match self.0.is_empty() {
            true => Ok(()),
            false => Err(format!("unrecognized arguments: {:?}", self.0)),
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn bench(mut flags: Flags) -> Result<bool, String> {
    let name = flags.take("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    let seconds: u64 = flags.parsed("--seconds")?.unwrap_or(10).max(1);
    let traced = match flags.take("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    flags.finish()?;
    println!(
        "perfbench workload={name} seed={seed} seconds={seconds} trace={} machine_threads={} git_rev={} clients={} workers={}",
        u8::from(traced),
        machine_threads(),
        git_rev(),
        workload::CLIENTS,
        workload::WORKERS,
    );
    let report = if traced {
        run::traced(workload, seed, seconds)?
    } else {
        run::untraced(workload, seed, seconds)?
    };
    for note in &report.notes {
        println!("# {note}");
    }
    let mut metrics = String::new();
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
        if !metrics.is_empty() {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    );
    Ok(report.correct)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let steady = args.first().is_some_and(|a| a == "steady");
    if steady {
        args.remove(0);
    }
    let flags = Flags(args);
    let outcome = if steady {
        steady::main(flags)
    } else {
        bench(flags)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: a check failed; see the lines above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
