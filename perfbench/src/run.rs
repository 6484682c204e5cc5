//! One benchmark run: the untraced closed loop that yields the end-to-end
//! metrics, or the traced one-client replay that yields the per-layer
//! metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use etlopt_core::trace::{ExecCounters, SearchStats};
use etlopt_core::workflow::Workflow;
use etlopt_engine::{Catalog, Executor};
use etlopt_server::{json, Code, Op, Registry, Request, Response};

use crate::daemon::{self, Client};
use crate::replay::{self, Replayed};
use crate::stats::{geomean, median, ratio, tail_percentile};
use crate::trace::{self, Tracer};
use crate::workload::{interleave, RequestSet, Workload, CLIENTS, WORKERS};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output matched its reference and every gate held.
    pub correct: bool,
    /// Requests sent in the measured phase.
    pub attempted: usize,
    /// Of those, the non-200 replies and wrong bodies.
    pub failed: usize,
    /// The metrics of the run's kind, in print order.
    pub metrics: Vec<Metric>,
    /// Further lines for the reader, printed before the metrics.
    pub notes: Vec<String>,
}

fn metric(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_owned(), value, unit));
}

fn render_all(reqs: &[Request]) -> Vec<String> {
    reqs.iter().map(Request::render).collect()
}

/// A reply checked against its reference: `Ok(response)` when it is a
/// 200 whose body is byte-identical to the reference.
fn verify(reply: &str, reference: &str) -> Result<Response, String> {
    let resp = Response::parse(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    if resp.code != Code::Ok {
        return Err(format!("code {}: {}", resp.code.as_u16(), resp.error));
    }
    if resp.body != reference {
        return Err(format!(
            "request {}: body differs from the one-shot reference",
            resp.id
        ));
    }
    Ok(resp)
}

/// `best_cost / initial_cost` of a body carrying a search outcome.
fn cost_ratio(body: &str) -> Option<f64> {
    let v = json::parse(body).ok()?;
    let best = v.get("best_cost")?.as_f64()?;
    let initial = v.get("initial_cost")?.as_f64()?;
    (initial > 0.0 && best > 0.0).then(|| best / initial)
}

struct Live {
    server: etlopt_server::Server,
    set: RequestSet,
    timed_lines: Vec<Vec<String>>,
    clients: Vec<Client>,
    warm_replies: Vec<Vec<String>>,
}

/// One set-up: spawn the daemon, generate and render the request set,
/// connect the clients and send the warm-up pass.
fn set_up(workload: Workload, seed: u64, seconds: u64) -> Result<Live, String> {
    let server = daemon::start()?;
    let set = RequestSet::generate(workload, seed, seconds);
    let warm_lines: Vec<Vec<String>> = set.warmup.iter().map(|s| render_all(s)).collect();
    let timed_lines = set.timed.iter().map(|s| render_all(s)).collect();
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let warm_replies = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&warm_lines)
            .map(|(client, lines)| scope.spawn(move || daemon::send_all(client, lines)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Live {
        server,
        set,
        timed_lines,
        clients,
        warm_replies,
    })
}

/// The untraced run: end-to-end metrics of the closed loop.
pub fn untraced(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let started = Instant::now();
    let Live {
        server,
        set,
        timed_lines,
        mut clients,
        warm_replies,
    } = set_up(workload, seed, seconds)?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];

    let (exchanges, window_s) = daemon::closed_loop(&mut clients, &timed_lines, seconds)?;
    // Read before the repeated set-ups below, whose freed memory the
    // allocator may keep resident.
    let peak_rss_mb = daemon::peak_rss_mb();
    drop(clients);
    daemon::stop(server)?;

    // The remaining set-ups only time themselves; `setup_s` is the median.
    for _ in 1..SETUPS {
        let started = Instant::now();
        let again = set_up(workload, seed, seconds)?;
        setup_s.push(started.elapsed().as_secs_f64());
        drop(again.clients);
        daemon::stop(again.server)?;
    }

    // Outside the window: every body against its one-shot reference.
    let sent: Vec<Vec<&Request>> = (0..CLIENTS)
        .map(|c| {
            set.warmup[c]
                .iter()
                .chain(exchanges[c].iter().map(|x| &set.timed[c][x.index]))
                .collect()
        })
        .collect();
    let refs = daemon::reference_bodies(&sent, WORKERS);
    let mut notes = Vec::new();
    let mut warm_failed = 0;
    let (mut failed, mut ok) = (0usize, 0usize);
    let mut latencies = Vec::new();
    let mut by_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut cost_ratios = Vec::new();
    for c in 0..CLIENTS {
        let warm = set.warmup[c].len();
        for (reply, reference) in warm_replies[c].iter().zip(&refs[c][..warm]) {
            if let Err(e) = verify(reply, reference) {
                warm_failed += 1;
                notes.push(format!("warm-up mismatch: {e}"));
            }
        }
        for (x, reference) in exchanges[c].iter().zip(&refs[c][warm..]) {
            let op = set.timed[c][x.index].op;
            latencies.push(x.latency_ms);
            by_op.entry(op.name()).or_default().push(x.latency_ms);
            match verify(&x.reply, reference) {
                Ok(resp) => {
                    ok += 1;
                    cost_ratios.extend(cost_ratio(&resp.body));
                }
                Err(e) => {
                    failed += 1;
                    if failed <= 5 {
                        notes.push(format!("mismatch: {e}"));
                    }
                }
            }
        }
    }
    let attempted = latencies.len();
    let p90 = tail_percentile(&latencies, 0.9);
    if p90.is_none() {
        notes.push(format!("only {attempted} requests answered: no p90"));
    }
    let mut metrics = Vec::new();
    metric(
        &mut metrics,
        "setup_s",
        median(&setup_s).unwrap_or(0.0),
        "s",
    );
    metric(
        &mut metrics,
        "throughput_rps",
        ok as f64 / window_s,
        "req/s",
    );
    metric(
        &mut metrics,
        "latency_p50_ms",
        median(&latencies).unwrap_or(0.0),
        "ms",
    );
    metric(&mut metrics, "latency_p90_ms", p90.unwrap_or(0.0), "ms");
    metric(
        &mut metrics,
        "plan_cost_ratio",
        geomean(&cost_ratios).unwrap_or(0.0),
        "ratio",
    );
    metric(&mut metrics, "peak_rss_mb", peak_rss_mb, "MiB");

    notes.push(format!(
        "window_s {window_s} requests {attempted} error_rate {} ratio",
        ratio(failed as f64, attempted as f64)
    ));
    for (op, lat) in &by_op {
        notes.push(format!(
            "{op}_p50_ms {} ms ({} requests)",
            median(lat).unwrap_or(0.0),
            lat.len()
        ));
    }
    Ok(Report {
        correct: failed == 0 && warm_failed == 0 && p90.is_some() && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    })
}

/// Per-request figures the traced run keeps after dropping the replay.
struct Sample {
    op: Op,
    algo: String,
    search: Option<SearchStats>,
    memo: (u64, u64),
    rows_generated: u64,
    exec: Option<(ExecCounters, u64)>,
    adaptive: Option<(u64, usize)>,
}

impl Sample {
    fn of(req: &Request, r: &Replayed) -> Sample {
        Sample {
            op: req.op,
            algo: req.algo.clone(),
            search: r.search.as_ref().map(|s| s.stats.clone()),
            memo: (r.memo_hits, r.memo_misses),
            rows_generated: r.rows_generated,
            exec: r
                .exec
                .as_ref()
                .map(|e| (e.counters.clone(), e.rows_processed)),
            adaptive: r
                .adaptive
                .as_ref()
                .map(|a| (a.harvest_runs, a.warm_entries)),
        }
    }
}

/// Executions the partitioned-twin comparison re-runs.
const PAR2_SAMPLES: usize = 3;

/// Sequential time ÷ 2-thread partitioned time for `plan` over `catalog`,
/// medians of three alternating runs each; targets and stats must agree.
fn par2_speedup(plan: &Workflow, catalog: &Catalog) -> Result<f64, String> {
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let a = Executor::new(catalog.clone()).run_stream(plan);
        seq.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let b = Executor::new(catalog.clone())
            .with_parallelism(2)
            .run_stream(plan);
        par.push(t.elapsed().as_secs_f64());
        let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
        if a.result.targets != b.result.targets || a.result.stats != b.result.stats {
            return Err("partitioned execution diverged from the sequential run".to_owned());
        }
    }
    Ok(ratio(
        median(&seq).unwrap_or(0.0),
        median(&par).unwrap_or(0.0),
    ))
}

const PING: &str = "{\"id\":\"ping\",\"op\":\"ping\"}";
const STATS: &str = "{\"id\":\"stats\",\"op\":\"stats\"}";

/// Least share of every request span that its layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.9;

/// The traced run: one client sends the interleaved request order to the
/// daemon while each request is replayed in process under spans.
pub fn traced(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let server = daemon::start()?;
    let set = RequestSet::generate(workload, seed, seconds);
    let mirror = Registry::new(daemon::config());
    let mut client = Client::connect(server.local_addr())?;
    let mut notes = Vec::new();
    let mut failed = 0usize;
    let mut sent: Vec<&Request> = Vec::new();
    let mut replies: Vec<String> = Vec::new();

    let mut scratch = Tracer::new();
    for req in interleave(&set.warmup) {
        let reply = client.roundtrip(&req.render())?;
        let replayed = replay::replay(&mirror, req, &mut scratch, 0)?;
        if let Err(e) = replay::check_body(&replayed, &Response::parse(&reply)?.body) {
            failed += 1;
            notes.push(format!("warm-up replay of {}: {e}", req.id));
        }
        sent.push(req);
        replies.push(reply);
    }
    let warm = sent.len();

    let mut ping_us = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        client.roundtrip(PING)?;
        ping_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let mut tracer = Tracer::new();
    let (mut render_us, mut parse_us, mut rtt_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = Vec::new();
    let mut par2_inputs: Vec<(Workflow, Catalog)> = Vec::new();
    let start = Instant::now();
    for (rid, req) in interleave(&set.timed).into_iter().enumerate() {
        if start.elapsed().as_secs() >= seconds {
            break;
        }
        let t = Instant::now();
        let line = req.render();
        render_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let reply = client.roundtrip(&line)?;
        rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let resp = Response::parse(&reply)?;
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);

        let replayed = replay::replay(&mirror, req, &mut tracer, rid as u64)?;
        if let Err(e) = replay::check_body(&replayed, &resp.body) {
            failed += 1;
            notes.push(format!("replay of {}: {e}", req.id));
        }
        samples.push(Sample::of(req, &replayed));
        if let (Some(s), Some(e)) = (&replayed.search, &replayed.exec) {
            if workload == Workload::ExecuteCold && par2_inputs.len() < PAR2_SAMPLES {
                par2_inputs.push((s.best.clone(), e.executor.catalog().clone()));
            }
        }
        sent.push(req);
        replies.push(reply);
    }
    let stats_body = Response::parse(&client.roundtrip(STATS)?)?.body;
    drop(client);
    daemon::stop(server)?;

    // The daemon's bodies against the one-shot reference, as untraced.
    let refs = daemon::reference_bodies(&[sent.clone()], WORKERS);
    for (i, (reply, reference)) in replies.iter().zip(&refs[0]).enumerate() {
        if let Err(e) = verify(reply, reference) {
            failed += 1;
            notes.push(format!(
                "{} {e}",
                if i < warm { "warm-up" } else { "timed" }
            ));
        }
    }
    let mut speedups = Vec::new();
    for (plan, catalog) in &par2_inputs {
        speedups.push(par2_speedup(plan, catalog)?);
    }

    let spans = tracer.spans();
    let (balanced, mut metrics) = layer_metrics(spans, &samples, &rtt_ms, &mut notes);
    let state = json::parse(&stats_body)?;
    let gauge = |key: &str| state.get(key).and_then(json::Value::as_u64).unwrap_or(0) as f64;
    metric(
        &mut metrics,
        "exec.par2_speedup",
        median(&speedups).unwrap_or(0.0),
        "ratio",
    );
    metric(&mut metrics, "state.families", gauge("families"), "count");
    metric(&mut metrics, "state.caches", gauge("caches"), "count");
    metric(&mut metrics, "state.tenants", gauge("tenants"), "count");
    metric(
        &mut metrics,
        "proto.render_us",
        median(&render_us).unwrap_or(0.0),
        "us",
    );
    metric(
        &mut metrics,
        "proto.parse_us",
        median(&parse_us).unwrap_or(0.0),
        "us",
    );
    metric(
        &mut metrics,
        "server.ping_rtt_us",
        median(&ping_us).unwrap_or(0.0),
        "us",
    );

    let out_dir = crate::out_dir();
    let path = out_dir.join(format!("spans-{}-seed{seed}.json", workload.name()));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(spans)))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));
    if !balanced {
        notes.push(format!(
            "books do not balance: a request's spans cover < {MIN_COVERAGE}"
        ));
    }
    Ok(Report {
        correct: failed == 0 && balanced && !samples.is_empty(),
        attempted: samples.len().max(1),
        failed,
        metrics,
        notes,
    })
}

/// The layers whose self time is reported as a share of request time.
const LAYERS: [&str; 8] = [
    "text", "state", "opt", "datagen", "digest", "exec", "adaptive", "server",
];

/// Per-layer metrics from the spans and per-request samples. Returns
/// whether every request's books balance.
fn layer_metrics(
    spans: &[trace::Span],
    samples: &[Sample],
    rtt_ms: &[f64],
    notes: &mut Vec<String>,
) -> (bool, Vec<Metric>) {
    // Per span name: per request, the summed duration in seconds.
    let mut by_name: BTreeMap<&str, BTreeMap<u64, f64>> = BTreeMap::new();
    for s in spans {
        *by_name
            .entry(s.name)
            .or_default()
            .entry(s.request)
            .or_default() += s.duration_ns() as f64 * 1e-9;
    }
    let secs = |name: &str| -> Vec<f64> {
        by_name
            .get(name)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default()
    };
    let med = |name: &str| median(&secs(name)).unwrap_or(0.0);
    let total = |name: &str| secs(name).iter().sum::<f64>();

    let selfs = trace::self_times_ns(spans);
    let covers = trace::child_cover_ns(spans);
    let mut layer_self: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut request_total, mut min_cover) = (0.0f64, f64::INFINITY);
    for (i, s) in spans.iter().enumerate() {
        let layer = if s.parent.is_none() {
            "other"
        } else {
            s.layer()
        };
        *layer_self.entry(layer).or_default() += selfs[i] as f64;
        if s.parent.is_none() {
            request_total += s.duration_ns() as f64;
            min_cover = min_cover.min(ratio(covers[i] as f64, s.duration_ns() as f64));
        }
    }
    if !min_cover.is_finite() {
        min_cover = 0.0;
    }

    let mut m = Vec::new();
    metric(&mut m, "text.parse_us", med("text.parse") * 1e6, "us");
    metric(
        &mut m,
        "text.family_digest_us",
        med("text.family_digest") * 1e6,
        "us",
    );
    metric(&mut m, "text.render_us", med("text.render") * 1e6, "us");

    let searches: Vec<&Sample> = samples.iter().filter(|s| s.search.is_some()).collect();
    let sum = |f: &dyn Fn(&SearchStats) -> u64| -> f64 {
        searches
            .iter()
            .filter_map(|s| s.search.as_ref())
            .map(|x| f(x) as f64)
            .sum()
    };
    let per_search = |v: f64| ratio(v, searches.len() as f64);
    metric(&mut m, "opt.search_ms", med("opt.search") * 1e3, "ms");
    metric(
        &mut m,
        "opt.states_per_s",
        ratio(sum(&|x| x.generated), total("opt.search")),
        "1/s",
    );
    // Search span per algorithm: requests carry the algorithm name.
    let no_spans = BTreeMap::new();
    let search_by_req = by_name.get("opt.search").unwrap_or(&no_spans);
    for (algo, name) in [
        ("es", "opt.es_ms"),
        ("hs", "opt.hs_ms"),
        ("hs-greedy", "opt.hs_greedy_ms"),
        ("beam", "opt.beam_ms"),
    ] {
        let v: Vec<f64> = samples
            .iter()
            .enumerate()
            .filter(|(_, s)| s.search.is_some() && s.algo == algo)
            .filter_map(|(rid, _)| search_by_req.get(&(rid as u64)).copied())
            .collect();
        metric(&mut m, name, median(&v).unwrap_or(0.0) * 1e3, "ms");
    }
    metric(
        &mut m,
        "opt.generated",
        per_search(sum(&|x| x.generated)),
        "count",
    );
    metric(
        &mut m,
        "opt.expanded",
        per_search(sum(&|x| x.expanded)),
        "count",
    );
    metric(
        &mut m,
        "opt.deduplicated",
        per_search(sum(&|x| x.deduplicated)),
        "count",
    );
    metric(
        &mut m,
        "opt.repriced_delta_ratio",
        ratio(
            sum(&|x| x.repriced_delta),
            sum(&|x| x.repriced_delta + x.repriced_full),
        ),
        "ratio",
    );
    let (mh, mm) = samples
        .iter()
        .fold((0u64, 0u64), |a, s| (a.0 + s.memo.0, a.1 + s.memo.1));
    metric(
        &mut m,
        "opt.memo_hit_ratio",
        ratio(mh as f64, (mh + mm) as f64),
        "ratio",
    );

    let rows: u64 = samples.iter().map(|s| s.rows_generated).sum();
    metric(&mut m, "datagen.ms", med("datagen") * 1e3, "ms");
    metric(
        &mut m,
        "datagen.rows_per_s",
        ratio(rows as f64, total("datagen")),
        "1/s",
    );
    metric(
        &mut m,
        "digest.catalog_ms",
        med("digest.catalog") * 1e3,
        "ms",
    );
    metric(
        &mut m,
        "digest.targets_ms",
        med("digest.targets") * 1e3,
        "ms",
    );

    let execs: Vec<&(ExecCounters, u64)> = samples.iter().filter_map(|s| s.exec.as_ref()).collect();
    let per_exec = |f: &dyn Fn(&ExecCounters) -> u64| -> f64 {
        ratio(
            execs.iter().map(|(c, _)| f(c) as f64).sum(),
            execs.len() as f64,
        )
    };
    let processed: f64 = execs.iter().map(|(_, r)| *r as f64).sum();
    metric(&mut m, "exec.ms", med("exec") * 1e3, "ms");
    metric(
        &mut m,
        "exec.rows_per_s",
        ratio(processed, total("exec")),
        "1/s",
    );
    metric(
        &mut m,
        "exec.rows_processed",
        ratio(processed, execs.len() as f64),
        "count",
    );
    metric(&mut m, "exec.batches", per_exec(&|c| c.batches), "count");
    metric(
        &mut m,
        "exec.pages_appended",
        per_exec(&|c| c.pages_appended),
        "count",
    );
    metric(
        &mut m,
        "exec.pages_spilled",
        per_exec(&|c| c.pages_spilled),
        "count",
    );
    metric(
        &mut m,
        "exec.evictions",
        per_exec(&|c| c.evictions),
        "count",
    );
    metric(
        &mut m,
        "exec.peak_resident_frames",
        per_exec(&|c| c.peak_resident_frames),
        "count",
    );
    let (hits, lookups) = (
        per_exec(&|c| c.cache_hits),
        per_exec(&|c| c.cache_hits + c.cache_misses),
    );
    metric(
        &mut m,
        "exec.cache_hit_ratio",
        ratio(hits, lookups),
        "ratio",
    );
    metric(
        &mut m,
        "exec.cache_insertions",
        per_exec(&|c| c.cache_insertions),
        "count",
    );

    let adaptives: Vec<&(u64, usize)> =
        samples.iter().filter_map(|s| s.adaptive.as_ref()).collect();
    let per_adaptive = |v: f64| ratio(v, adaptives.len() as f64);
    metric(&mut m, "adaptive.ms", med("adaptive") * 1e3, "ms");
    metric(
        &mut m,
        "adaptive.harvest_runs",
        per_adaptive(adaptives.iter().map(|a| a.0 as f64).sum()),
        "count",
    );
    metric(
        &mut m,
        "adaptive.warm_entries",
        per_adaptive(adaptives.iter().map(|a| a.1 as f64).sum()),
        "count",
    );

    let overhead = median(rtt_ms).unwrap_or(0.0) - med("request") * 1e3;
    metric(&mut m, "server.overhead_ms", overhead, "ms");
    for layer in LAYERS.iter().chain(&["other"]) {
        let share = ratio(layer_self.get(layer).copied().unwrap_or(0.0), request_total);
        metric(&mut m, &format!("share.{layer}"), share, "ratio");
        notes.push(format!(
            "layer {layer:<8} {:6.2} % of request time",
            share * 100.0
        ));
    }
    metric(&mut m, "trace.coverage_min", min_cover, "ratio");
    metric(&mut m, "trace.requests", samples.len() as f64, "count");
    let ops: BTreeMap<&str, usize> = samples.iter().fold(BTreeMap::new(), |mut acc, s| {
        *acc.entry(s.op.name()).or_default() += 1;
        acc
    });
    notes.push(format!("traced requests by op: {ops:?}"));
    (min_cover >= MIN_COVERAGE, m)
}
