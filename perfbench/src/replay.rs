//! The traced replay: one job request re-run in process by calling each
//! layer's public function in the order `etlopt_server::job::run_job`
//! calls it, with a span around each call. The replay keeps its own
//! [`Registry`] so shared memos, result caches and tenant calibration
//! evolve exactly as in the daemon; [`check_body`] then proves that the
//! replay did the daemon's work by comparing plan, costs, visited states,
//! target digests and adaptive reports with the daemon's body.

use std::sync::Arc;
use std::time::Duration;

use etlopt_core::cost::RowCountModel;
use etlopt_core::opt::{
    run_adaptive, AdaptiveConfig, BeamSearch, ExhaustiveSearch, HeuristicSearch, HsGreedy,
    MoveMemo, Optimizer, SearchBudget,
};
use etlopt_core::text;
use etlopt_core::trace::{ExecCounters, SearchStats};
use etlopt_core::workflow::Workflow;
use etlopt_engine::{Catalog, Executor, Harvester};
use etlopt_server::{catalog_digest, json, table_digest, Op, Registry, Request};
use etlopt_workload::{datagen, CalibrationStore};

use crate::trace::Tracer;

/// Mirror of the job module's private data-seed tweak. If it drifts, the
/// target digests stop matching and [`check_body`] fails the run.
pub const DATA_SEED_TWEAK: u64 = 0xD1FF_C0DE;

/// The search result the daemon's body carries.
#[derive(Debug)]
pub struct Searched {
    /// Best plan in the DSL.
    pub plan: String,
    /// Cost of the best plan.
    pub best_cost: f64,
    /// States visited.
    pub visited: usize,
    /// Search counters.
    pub stats: SearchStats,
    /// The best plan.
    pub best: Workflow,
}

/// One execution's outputs and counters.
#[derive(Debug)]
pub struct Executed {
    /// `(target, rows, digest)` in target order.
    pub targets: Vec<(String, usize, u64)>,
    /// Pool, batch and cache counters of the run.
    pub counters: ExecCounters,
    /// Rows processed over all activities.
    pub rows_processed: u64,
    /// The executor that ran the plan, holding the generated catalog.
    pub executor: Executor,
}

/// One adaptive loop's outputs.
#[derive(Debug)]
pub struct Adapted {
    /// The loop's report, as the body carries it.
    pub report: String,
    /// Plans the harvester executed.
    pub harvest_runs: u64,
    /// Tenant calibration entries before the loop.
    pub warm_entries: usize,
}

/// Everything a replayed request produced.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Search outcome (optimize, execute).
    pub search: Option<Searched>,
    /// Execution outcome (execute).
    pub exec: Option<Executed>,
    /// Adaptive outcome (adaptive).
    pub adaptive: Option<Adapted>,
    /// Family move-memo hits during the request.
    pub memo_hits: u64,
    /// Family move-memo misses during the request.
    pub memo_misses: u64,
    /// Source rows generated.
    pub rows_generated: u64,
}

fn build_optimizer(algo: &str, budget: SearchBudget, memo: Arc<MoveMemo>) -> Box<dyn Optimizer> {
    match algo {
        "es" => Box::new(ExhaustiveSearch::with_budget(budget).with_shared_memo(memo)),
        "hs" => Box::new(HeuristicSearch::with_budget(budget)),
        "hs-greedy" => Box::new(HsGreedy::with_budget(budget)),
        _ => Box::new(BeamSearch::with_budget(budget).with_shared_memo(memo)),
    }
}

/// Benchmark requests stay inside the daemon's ceilings, so the job's
/// clamping is the identity and the replay can use the requested budgets.
fn within_ceilings(req: &Request, reg: &Registry) -> Result<(), String> {
    let cfg = reg.config();
    let ok = (1..=cfg.max_states).contains(&req.states)
        && (1..=cfg.max_time_ms).contains(&req.time_ms)
        && (1..=cfg.max_rows).contains(&req.rows)
        && (1..=cfg.max_rounds).contains(&req.rounds)
        && (1..=cfg.max_parallelism).contains(&req.parallelism);
    ok.then_some(())
        .ok_or_else(|| format!("request {} exceeds a server ceiling", req.id))
}

fn source_rows(catalog: &Catalog, wf: &Workflow) -> u64 {
    use etlopt_core::graph::Node;
    wf.sources()
        .iter()
        .filter_map(|&src| match wf.graph().node(src) {
            Ok(Node::Recordset(rs)) => catalog.table(&rs.name).map(|t| t.len() as u64),
            _ => None,
        })
        .sum()
}

/// Replay job request `req` against `registry`, recording a root span
/// for request `rid` and a child span per layer call into `tracer`.
pub fn replay(
    registry: &Registry,
    req: &Request,
    tracer: &mut Tracer,
    rid: u64,
) -> Result<Replayed, String> {
    let root = tracer.open("request", None, rid);
    let out = replay_under(registry, req, tracer, root);
    tracer.close(root);
    out
}

fn replay_under(
    registry: &Registry,
    req: &Request,
    tracer: &mut Tracer,
    root: usize,
) -> Result<Replayed, String> {
    let wf = tracer
        .time("text.parse", root, || text::parse(&req.workflow))
        .map_err(|e| format!("workflow: {e}"))?;
    let digest = tracer
        .time("text.family_digest", root, || text::family_digest(&wf))
        .map_err(|e| format!("family digest: {e}"))?;
    within_ceilings(req, registry)?;
    let memo = tracer.time("state.family", root, || registry.family(digest).memo());
    let budget = SearchBudget::states(req.states)
        .with_max_time(Duration::from_millis(req.time_ms))
        .with_parallelism(req.parallelism);
    let optimizer = build_optimizer(&req.algo, budget, Arc::clone(&memo));
    let model = RowCountModel::default();
    let (h0, m0) = memo.stats();
    let mut out = Replayed::default();

    match req.op {
        Op::Optimize | Op::Execute => {
            let outcome = tracer
                .time("opt.search", root, || optimizer.run(&wf, &model))
                .map_err(|e| format!("search: {e}"))?;
            if req.op == Op::Execute {
                let catalog = tracer.time("datagen", root, || {
                    datagen::catalog_for(&wf, req.rows, req.seed ^ DATA_SEED_TWEAK)
                });
                out.rows_generated = source_rows(&catalog, &wf);
                let family = tracer.time("state.family", root, || registry.family(digest));
                let data = tracer.time("digest.catalog", root, || catalog_digest(&wf, &catalog));
                let cache = tracer.time("state.cache", root, || {
                    family.cache(req.rows, req.seed, data)
                });
                let executor = Executor::new(catalog);
                let run = tracer
                    .time("exec", root, || {
                        executor.run_stream_shared(&outcome.best, &cache)
                    })
                    .map_err(|e| format!("execute: {e}"))?;
                let targets = tracer.time("digest.targets", root, || {
                    run.result
                        .targets
                        .iter()
                        .map(|(name, table)| (name.clone(), table.len(), table_digest(table)))
                        .collect()
                });
                out.exec = Some(Executed {
                    targets,
                    rows_processed: run.result.stats.total(),
                    counters: run.counters,
                    executor,
                });
            }
            let plan = tracer
                .time("text.render", root, || text::render(&outcome.best))
                .map_err(|e| format!("render plan: {e}"))?;
            tracer.time("server.body", root, || {
                std::hint::black_box((
                    json::escape(&plan),
                    json::escape(&outcome.stats.counters_json()),
                ))
            });
            out.search = Some(Searched {
                plan,
                best_cost: outcome.best_cost,
                visited: outcome.visited_states,
                stats: outcome.stats,
                best: outcome.best,
            });
        }
        Op::Adaptive => {
            let catalog = tracer.time("datagen", root, || {
                datagen::catalog_for(&wf, req.rows, req.seed ^ DATA_SEED_TWEAK)
            });
            out.rows_generated = source_rows(&catalog, &wf);
            let mut harvester = Harvester::new(Executor::new(catalog));
            let cfg = AdaptiveConfig::rounds(req.rounds);
            let mut warm_entries = 0;
            let report = if req.warm {
                let store = tracer
                    .time("state.calibration", root, || {
                        registry.calibration(&req.tenant, digest)
                    })
                    .map_err(|e| format!("calibration store: {e}"))?;
                let mut guard = store.lock().expect("replay calibration lock poisoned");
                warm_entries = guard.len();
                let report = tracer
                    .time("adaptive", root, || {
                        run_adaptive(
                            &wf,
                            &model,
                            optimizer.as_ref(),
                            &mut harvester,
                            &mut *guard,
                            cfg,
                        )
                    })
                    .map_err(|e| format!("adaptive: {e}"))?;
                tracer
                    .time("state.calibration", root, || {
                        registry.persist_calibration(&req.tenant, digest, &guard)
                    })
                    .map_err(|e| format!("calibration store: {e}"))?;
                report
            } else {
                let mut store = CalibrationStore::new();
                tracer
                    .time("adaptive", root, || {
                        run_adaptive(
                            &wf,
                            &model,
                            optimizer.as_ref(),
                            &mut harvester,
                            &mut store,
                            cfg,
                        )
                    })
                    .map_err(|e| format!("adaptive: {e}"))?
            };
            let report = tracer.time("server.body", root, || report.to_json());
            out.adaptive = Some(Adapted {
                report,
                harvest_runs: harvester.runs(),
                warm_entries,
            });
        }
        other => return Err(format!("op `{}` is not a job", other.name())),
    }
    let (h1, m1) = memo.stats();
    out.memo_hits = h1.saturating_sub(h0);
    out.memo_misses = m1.saturating_sub(m0);
    Ok(out)
}

/// Check that the daemon's `body` carries exactly what the replay
/// computed: plan, best cost and visited states for a search, row counts
/// and digests for every target, and the report of an adaptive loop.
pub fn check_body(replayed: &Replayed, body: &str) -> Result<(), String> {
    let v = json::parse(body).map_err(|e| format!("body is not JSON: {e}"))?;
    let str_field = |key: &str| v.get(key).and_then(json::Value::as_str);
    if let Some(s) = &replayed.search {
        if str_field("plan") != Some(s.plan.as_str()) {
            return Err("plan differs".to_owned());
        }
        if v.get("best_cost").and_then(json::Value::as_f64) != Some(s.best_cost) {
            return Err(format!("best_cost differs from {}", s.best_cost));
        }
        if v.get("visited_states").and_then(json::Value::as_u64) != Some(s.visited as u64) {
            return Err(format!("visited_states differs from {}", s.visited));
        }
    }
    if let Some(e) = &replayed.exec {
        let targets = v
            .get("targets")
            .and_then(json::Value::as_obj)
            .ok_or("body has no targets")?;
        if targets.len() != e.targets.len() {
            return Err("target count differs".to_owned());
        }
        for (name, rows, digest) in &e.targets {
            let t = targets
                .get(name)
                .ok_or_else(|| format!("target {name} missing"))?;
            let same = t.get("rows").and_then(json::Value::as_u64) == Some(*rows as u64)
                && t.get("digest").and_then(json::Value::as_str)
                    == Some(format!("{digest:016x}").as_str());
            if !same {
                return Err(format!("target {name} differs"));
            }
        }
    }
    if let Some(a) = &replayed.adaptive {
        if str_field("report") != Some(a.report.as_str()) {
            return Err("adaptive report differs".to_owned());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{RequestSet, Workload};
    use etlopt_server::{run_request, ServerConfig};

    fn config() -> ServerConfig {
        crate::daemon::config()
    }

    #[test]
    fn replay_reproduces_the_job_path_for_every_op() {
        let set = RequestSet::generate(Workload::SharedMix, 11, 1);
        let daemon = Registry::new(config());
        let mirror = Registry::new(config());
        let mut tracer = Tracer::new();
        let ops = [Op::Execute, Op::Optimize, Op::Adaptive];
        for (i, op) in ops.into_iter().enumerate() {
            let req = set.timed[0].iter().find(|r| r.op == op).unwrap();
            let body = run_request(&daemon, req).body;
            let replayed = replay(&mirror, req, &mut tracer, i as u64).unwrap();
            check_body(&replayed, &body).unwrap();
        }
        // A tampered body is caught.
        let req = set.timed[0].iter().find(|r| r.op == Op::Execute).unwrap();
        let body = run_request(&daemon, req).body;
        let replayed = replay(&mirror, req, &mut tracer, 9).unwrap();
        let digest = format!("{:016x}", replayed.exec.as_ref().unwrap().targets[0].2);
        let tampered = body.replacen(&digest, "0000000000000000", 1);
        assert!(check_body(&replayed, &tampered).is_err());
        // Every replay has a root with children, all of one request.
        let roots = tracer.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 4);
    }
}
