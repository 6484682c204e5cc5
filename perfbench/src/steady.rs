//! The steadiness mode: two independent sets of runs per workload, each
//! run a child process with its own seed, compared metric by metric
//! against the bounds in `BENCHMARK.json`. Later changes can run it on the
//! parent and on the change with the same code.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use etlopt_server::json::{self, Value};

use crate::stats::{quartiles, ratio};
use crate::Flags;

/// An end-to-end metric's contract from `BENCHMARK.json`.
struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// One child run: its seed and its metrics (empty when it failed).
struct RunRecord {
    set: usize,
    seed: u64,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn spec() -> Result<Value, String> {
    let path = crate::package_dir().join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text)
}

fn arr<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

fn child(workload: &str, seed: u64, seconds: u64) -> Result<(bool, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v =
        json::parse(last).map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    let correct = out.status.success() && v.get("correct").and_then(Value::as_bool) == Some(true);
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, x)| Some((k.clone(), x.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    Ok((correct, metrics))
}

/// Run the steadiness mode; `Ok(true)` when every run was correct and
/// every metric agreed within its bound.
pub fn main(mut flags: Flags) -> Result<bool, String> {
    let spec = spec()?;
    let runs: u64 = flags.parsed("--runs")?.unwrap_or(5).max(2);
    let seconds: u64 = match flags.parsed("--seconds")? {
        Some(s) => s,
        None => spec
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    };
    let base: u64 = flags.parsed("--base-seed")?.unwrap_or(1);
    let workloads: Vec<String> = match flags.take("--workloads") {
        Some(list) => list.split(',').map(str::to_owned).collect(),
        None => arr(&spec, "workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
            .collect(),
    };
    flags.finish()?;
    let bounds: Vec<Bound> = arr(&spec, "end_to_end")
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                unit: m.get("unit")?.as_str()?.to_owned(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect();

    let (threads, rev) = (crate::machine_threads(), crate::git_rev());
    println!("steady runs={runs} seconds={seconds} base_seed={base} machine_threads={threads} git_rev={rev}");
    let mut all_ok = true;
    let mut record = String::new();
    for w in &workloads {
        let mut records = Vec::new();
        for i in 0..runs {
            // Alternate which set runs first, so drift hits both alike.
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let seed = base + set as u64 * runs + i;
                let (correct, metrics) = child(w, seed, seconds)?;
                eprintln!("steady: {w} set {set} seed {seed} correct={correct}");
                all_ok &= correct;
                records.push(RunRecord {
                    set,
                    seed,
                    correct,
                    metrics,
                });
            }
        }
        println!("\n{w}: metric unit | set A median [q1, q3] spread | set B median [q1, q3] spread | shift bound agree");
        let mut rows = Vec::new();
        for b in &bounds {
            let values = |set: usize| -> Vec<f64> {
                records
                    .iter()
                    .filter(|r| r.set == set)
                    .filter_map(|r| r.metrics.get(&b.name).copied())
                    .collect()
            };
            let (a, bv) = (values(0), values(1));
            let (Some(qa), Some(qb)) = (quartiles(&a), quartiles(&bv)) else {
                all_ok = false;
                println!("  {} missing from some runs", b.name);
                continue;
            };
            let spread = |q: (f64, f64, f64)| ratio(q.2 - q.0, q.1);
            let (sa, sb) = (spread(qa), spread(qb));
            let shift = ratio(qb.1 - qa.1, qa.1) * if b.lower_is_better { 1.0 } else { -1.0 };
            // setup_s is only held to the shift of its median.
            let spreads_ok = b.name == "setup_s" || (sa <= b.bound && sb <= b.bound);
            let agree = spreads_ok && shift <= b.bound;
            all_ok &= agree;
            println!(
                "  {:<16} {:<6} | {:>10.4} [{:.4}, {:.4}] {:.4} | {:>10.4} [{:.4}, {:.4}] {:.4} | {:+.4} {:.2} {}",
                b.name, b.unit, qa.1, qa.0, qa.2, sa, qb.1, qb.0, qb.2, sb, shift, b.bound, agree
            );
            rows.push(format!(
                concat!(
                    "{{\"metric\":\"{}\",\"unit\":\"{}\",\"bound\":{},",
                    "\"a\":{{\"median\":{},\"q1\":{},\"q3\":{},\"spread\":{},\"values\":{:?}}},",
                    "\"b\":{{\"median\":{},\"q1\":{},\"q3\":{},\"spread\":{},\"values\":{:?}}},",
                    "\"shift\":{},\"agree\":{}}}"
                ),
                b.name,
                b.unit,
                b.bound,
                qa.1,
                qa.0,
                qa.2,
                sa,
                a,
                qb.1,
                qb.0,
                qb.2,
                sb,
                bv,
                shift,
                agree
            ));
        }
        let seeds: Vec<String> = records
            .iter()
            .map(|r| {
                format!(
                    "{{\"set\":{},\"seed\":{},\"correct\":{}}}",
                    r.set, r.seed, r.correct
                )
            })
            .collect();
        if !record.is_empty() {
            record.push_str(",\n");
        }
        record.push_str(&format!(
            "\"{w}\":{{\"runs\":[{}],\"metrics\":[\n{}\n]}}",
            seeds.join(","),
            rows.join(",\n")
        ));
    }
    let doc = format!(
        "{{\"machine_threads\":{threads},\"git_rev\":\"{rev}\",\"seconds\":{seconds},\"runs_per_set\":{runs},\"base_seed\":{base},\"workloads\":{{\n{record}\n}}}}\n"
    );
    let dir = crate::out_dir();
    let path = dir.join(format!("steady-base{base}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "\nsteady: record written to {}; all agree: {all_ok}",
        path.display()
    );
    Ok(all_ok)
}
