//! Request generation. Every workload's request set is a pure function of
//! `(workload, seed, seconds)`: the same arguments give byte-identical
//! request lines, and the daemon sees nothing but these requests.
//!
//! Each of the [`CLIENTS`] connections owns one stream of warm-up requests
//! and one stream of timed requests. The traced run replays the streams
//! interleaved (`c0[0], c1[0], c0[1], …`), the order in which the two
//! closed-loop clients start them.

use etlopt_core::rng::Rng;
use etlopt_core::text;
use etlopt_server::{Op, Request};
use etlopt_workload::{scenarios, Generator, GeneratorConfig, SizeCategory};

/// Persistent client connections driving the daemon (closed loop).
pub const CLIENTS: usize = 2;

/// Daemon worker threads.
pub const WORKERS: usize = 2;

/// Search time budget sent with every request: far above any search here,
/// so only the states budget ever stops a search and `best_cost` is exact.
pub const TIME_MS: u64 = 60_000;

/// Rows per source for `execute-cold`, and the daemon's `max_rows` ceiling.
pub const COLD_ROWS: usize = 65_536;

/// Rows per source for `shared-mix`.
pub const MIX_ROWS: usize = 4096;

/// The workloads, in the order the steadiness mode runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `optimize` only; every request a distinct generated family.
    Plan,
    /// `execute` at [`COLD_ROWS`]; every request a distinct cache key.
    ExecuteCold,
    /// A fixed pool of families, seeds and tenants; execute, optimize and
    /// warm adaptive after a warm-up pass.
    SharedMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Plan, Workload::ExecuteCold, Workload::SharedMix];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Plan => "plan",
            Workload::ExecuteCold => "execute-cold",
            Workload::SharedMix => "shared-mix",
        }
    }

    /// Timed requests generated per client per second of window: several
    /// times the rate measured on a 2-core machine, so a faster daemon
    /// does not run out of requests.
    fn per_client_rate(self) -> usize {
        match self {
            Workload::Plan => 50,
            Workload::ExecuteCold => 15,
            Workload::SharedMix => 80,
        }
    }
}

/// One run's requests, per client.
#[derive(Debug, Clone)]
pub struct RequestSet {
    /// Sent before the timed window, in order.
    pub warmup: Vec<Vec<Request>>,
    /// Sent in the timed window, in order, until the window closes.
    pub timed: Vec<Vec<Request>>,
}

impl RequestSet {
    /// The request set for `workload` under `seed`, sized for a window of
    /// `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> RequestSet {
        // At least 64 per client, so the 100-sample floor of the p90 can
        // always be reached.
        let per_client = (workload.per_client_rate() * seconds as usize).max(64);
        match workload {
            Workload::Plan => plan_set(seed, per_client),
            Workload::ExecuteCold => cold_set(seed, per_client),
            Workload::SharedMix => mix_set(seed, per_client),
        }
    }
}

/// `streams` interleaved across clients: `s0[0], s1[0], s0[1], s1[1], …`.
pub fn interleave<T>(streams: &[Vec<T>]) -> Vec<&T> {
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| streams.iter().filter_map(move |s| s.get(i)))
        .collect()
}

/// SplitMix64 finalizer over `(a, b)`: independent streams per purpose.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A data seed the protocol carries exactly (JSON numbers are doubles).
fn wire_seed(x: u64) -> u64 {
    x & 0xFFFF_FFFF
}

fn request(id: String, tenant: &str, op: Op, algo: &str, states: usize, rows: usize) -> Request {
    Request {
        id,
        tenant: tenant.to_owned(),
        op,
        algo: algo.to_owned(),
        states,
        time_ms: TIME_MS,
        parallelism: 1,
        rows,
        seed: 2005,
        rounds: 6,
        warm: true,
        workflow: String::new(),
    }
}

fn generated_text(seed: u64, category: SizeCategory) -> String {
    let scenario = Generator::generate(GeneratorConfig { seed, category });
    text::render(&scenario.workflow).expect("generated workflows render to the DSL")
}

use SizeCategory::{Large, Medium, Small};

/// The paper's 15 : 15 : 10 small/medium/large proportions as a fixed
/// 8-slot cycle, so every run sees the same band mix.
const PLAN_BANDS: [SizeCategory; 8] = [Small, Medium, Large, Small, Medium, Small, Large, Medium];

/// The search algorithms `plan` rotates through.
pub const ALGOS: [&str; 4] = ["es", "hs", "hs-greedy", "beam"];

/// Warm-up requests draw global indices from here, disjoint from the
/// timed indices, so warm-up never pre-computes a timed request.
const WARMUP_BASE: u64 = 1 << 32;

fn plan_request(seed: u64, g: u64, band: SizeCategory, algo: &str, id: String) -> Request {
    let mut req = request(id, "public", Op::Optimize, algo, 600, 64);
    req.workflow = generated_text(mix(seed, g), band);
    req
}

fn plan_set(seed: u64, per_client: usize) -> RequestSet {
    // Warm-up: one small workflow per algorithm, so that set-up cost
    // varies little with the seed.
    let warmup = (0..CLIENTS)
        .map(|c| {
            ALGOS
                .iter()
                .enumerate()
                .map(|(i, algo)| {
                    let g = WARMUP_BASE + (i * CLIENTS + c) as u64;
                    plan_request(seed, g, Small, algo, format!("c{c}-w{i}"))
                })
                .collect()
        })
        .collect();
    let timed = (0..CLIENTS)
        .map(|c| {
            (0..per_client)
                .map(|i| {
                    let g = (i * CLIENTS + c) as u64;
                    let band = PLAN_BANDS[(g % 8) as usize];
                    // Offset by the cycle number so each band meets every
                    // algorithm.
                    let algo = ALGOS[((g + g / 8) % 4) as usize];
                    plan_request(seed, g, band, algo, format!("c{c}-{i}"))
                })
                .collect()
        })
        .collect();
    RequestSet { warmup, timed }
}

/// One `execute-cold` workflow source.
#[derive(Debug, Clone, Copy)]
enum Cold {
    Band(SizeCategory),
    Fig1,
    Clickstream,
    Reconciliation,
}

/// Generator bands and the three hand-built scenarios, as a fixed cycle.
const COLD_KINDS: [Cold; 8] = [
    Cold::Band(Small),
    Cold::Band(Medium),
    Cold::Fig1,
    Cold::Band(Large),
    Cold::Band(Small),
    Cold::Clickstream,
    Cold::Band(Medium),
    Cold::Reconciliation,
];

fn cold_request(seed: u64, g: u64, kind: Cold, fixed: &[String; 3], id: String) -> Request {
    let mut req = request(id, "public", Op::Execute, "beam", 50, COLD_ROWS);
    req.workflow = match kind {
        Cold::Band(band) => generated_text(mix(seed, g), band),
        Cold::Fig1 => fixed[0].clone(),
        Cold::Clickstream => fixed[1].clone(),
        Cold::Reconciliation => fixed[2].clone(),
    };
    // A per-run base plus the global index: distinct for every request
    // of the run, so no two requests share a result-cache key.
    req.seed = wire_seed(mix(seed, 0xC01D)) + g;
    req
}

fn cold_set(seed: u64, per_client: usize) -> RequestSet {
    let fixed = [
        scenarios::fig1(),
        scenarios::clickstream(),
        scenarios::reconciliation(),
    ]
    .map(|wf| text::render(&wf).expect("hand-built scenarios render to the DSL"));
    // Warm-up: the fixed fig1 and clickstream workflows, whose cost
    // varies little with the seed.
    let warmup = (0..CLIENTS)
        .map(|c| {
            [Cold::Fig1, Cold::Clickstream]
                .into_iter()
                .enumerate()
                .map(|(i, kind)| {
                    let g = WARMUP_BASE + (i * CLIENTS + c) as u64;
                    cold_request(seed, g, kind, &fixed, format!("c{c}-w{i}"))
                })
                .collect()
        })
        .collect();
    let timed = (0..CLIENTS)
        .map(|c| {
            (0..per_client)
                .map(|i| {
                    let g = (i * CLIENTS + c) as u64;
                    let kind = COLD_KINDS[(g % 8) as usize];
                    cold_request(seed, g, kind, &fixed, format!("c{c}-{i}"))
                })
                .collect()
        })
        .collect();
    RequestSet { warmup, timed }
}

/// `shared-mix` pool dimensions.
pub const MIX_FAMILIES: usize = 8;
/// Data seeds per pool family.
pub const MIX_SEEDS: usize = 2;
/// Tenants, split evenly across the clients: each tenant's calibration is
/// only ever touched by one closed-loop client, in order.
pub const MIX_TENANTS: usize = 4;

/// The op cycle: 60 % execute, 20 % optimize, 20 % warm adaptive.
const MIX_OPS: [Op; 10] = [
    Op::Execute,
    Op::Execute,
    Op::Optimize,
    Op::Execute,
    Op::Adaptive,
    Op::Execute,
    Op::Execute,
    Op::Optimize,
    Op::Execute,
    Op::Adaptive,
];

/// Generator seed of the `shared-mix` families.
const MIX_POOL_SEED: u64 = 2005;

/// The `shared-mix` pool: workflow texts (small and medium bands
/// alternating) and the run's data seeds. The families are the same for
/// every run seed: with only eight of them, which eight a seed drew would
/// otherwise set most of the run-to-run spread. The run seed varies the
/// data, the request order and the tenant of each request.
pub fn mix_pool(seed: u64) -> (Vec<String>, [u64; MIX_SEEDS]) {
    let families = (0..MIX_FAMILIES)
        .map(|k| {
            let band = if k % 2 == 0 { Small } else { Medium };
            generated_text(mix(MIX_POOL_SEED, k as u64), band)
        })
        .collect();
    let base = wire_seed(mix(seed, 0xDA7A));
    (families, [base, base + 1])
}

fn mix_request(
    pool: &(Vec<String>, [u64; MIX_SEEDS]),
    op: Op,
    f: usize,
    s: usize,
    t: usize,
    id: String,
) -> Request {
    let tenant = format!("tenant-{t}");
    let mut req = request(id, &tenant, op, "beam", 600, MIX_ROWS);
    req.workflow = pool.0[f].clone();
    req.seed = pool.1[s];
    req
}

fn mix_set(seed: u64, per_client: usize) -> RequestSet {
    let pool = mix_pool(seed);
    let mut warmup = Vec::with_capacity(CLIENTS);
    let mut timed = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let per = MIX_TENANTS / CLIENTS;
        let tenants: Vec<usize> = (c * per..(c + 1) * per).collect();
        // Warm-up: client c fills the result caches of data seed c for
        // every family and seeds its own tenants' calibration.
        let mut w = Vec::new();
        for f in 0..MIX_FAMILIES {
            let s = c % MIX_SEEDS;
            w.push(mix_request(
                &pool,
                Op::Execute,
                f,
                s,
                tenants[0],
                String::new(),
            ));
            for &t in &tenants {
                w.push(mix_request(&pool, Op::Adaptive, f, s, t, String::new()));
            }
        }
        for (i, req) in w.iter_mut().enumerate() {
            req.id = format!("c{c}-w{i}");
        }
        warmup.push(w);

        let mut rng = Rng::seed_from_u64(mix(seed, 0xC11E + c as u64));
        timed.push(
            (0..per_client)
                .map(|i| {
                    let f = rng.gen_range(0..MIX_FAMILIES);
                    let s = rng.gen_range(0..MIX_SEEDS);
                    let t = tenants[rng.gen_range(0..tenants.len())];
                    mix_request(
                        &pool,
                        MIX_OPS[i % MIX_OPS.len()],
                        f,
                        s,
                        t,
                        format!("c{c}-{i}"),
                    )
                })
                .collect(),
        );
    }
    RequestSet { warmup, timed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn lines(set: &RequestSet) -> Vec<String> {
        set.warmup
            .iter()
            .chain(&set.timed)
            .flatten()
            .map(Request::render)
            .collect()
    }

    #[test]
    fn generation_is_identical_for_a_seed_and_differs_across_seeds() {
        for w in Workload::ALL {
            let a = RequestSet::generate(w, 7, 1);
            let b = RequestSet::generate(w, 7, 1);
            let c = RequestSet::generate(w, 8, 1);
            assert_eq!(
                lines(&a),
                lines(&b),
                "{}: same seed, same requests",
                w.name()
            );
            assert_ne!(lines(&a), lines(&c), "{}: seeds must differ", w.name());
            assert_eq!(a.timed.len(), CLIENTS);
            assert!(a.timed.iter().all(|s| s.len() >= 64));
        }
    }

    #[test]
    fn plan_families_are_all_distinct() {
        let set = RequestSet::generate(Workload::Plan, 3, 1);
        let all: Vec<&Request> = set.warmup.iter().chain(&set.timed).flatten().collect();
        let families: HashSet<u128> = all
            .iter()
            .map(|r| text::family_digest(&text::parse(&r.workflow).unwrap()).unwrap())
            .collect();
        assert_eq!(families.len(), all.len(), "a plan family repeated");
        let algos: HashSet<&str> = all.iter().map(|r| r.algo.as_str()).collect();
        assert_eq!(algos.len(), ALGOS.len(), "every algorithm is used");
    }

    #[test]
    fn execute_cold_cache_keys_are_all_distinct() {
        let set = RequestSet::generate(Workload::ExecuteCold, 3, 2);
        let all: Vec<&Request> = set.warmup.iter().chain(&set.timed).flatten().collect();
        // The daemon keys a family's result cache by (rows, seed, data);
        // distinct (family, seed) pairs at one row count never share it.
        let keys: HashSet<(u128, u64)> = all
            .iter()
            .map(|r| {
                let wf = text::parse(&r.workflow).unwrap();
                (text::family_digest(&wf).unwrap(), r.seed)
            })
            .collect();
        assert_eq!(keys.len(), all.len(), "an execute-cold cache key repeated");
        assert!(all
            .iter()
            .all(|r| r.op == Op::Execute && r.rows == COLD_ROWS));
    }

    #[test]
    fn shared_mix_pool_is_fixed_and_tenants_stay_with_their_client() {
        let set = RequestSet::generate(Workload::SharedMix, 5, 2);
        let (families, seeds) = mix_pool(5);
        let (other_families, other_seeds) = mix_pool(6);
        assert_eq!(families, other_families, "the families are fixed");
        assert_ne!(seeds, other_seeds, "the data varies with the seed");
        for (c, stream) in set.warmup.iter().zip(&set.timed).enumerate() {
            let (warm, timed) = stream;
            for r in warm.iter().chain(timed) {
                assert!(families.contains(&r.workflow), "request outside the pool");
                assert!(seeds.contains(&r.seed));
                let t: usize = r.tenant.trim_start_matches("tenant-").parse().unwrap();
                assert_eq!(
                    t * CLIENTS / MIX_TENANTS,
                    c,
                    "tenant {t} crossed to client {c}"
                );
            }
        }
        let distinct: HashSet<(&str, u64, &str)> = set
            .timed
            .iter()
            .flatten()
            .map(|r| (r.workflow.as_str(), r.seed, r.tenant.as_str()))
            .collect();
        assert!(distinct.len() <= MIX_FAMILIES * MIX_SEEDS * MIX_TENANTS);
        let ops: Vec<Op> = set.timed[0].iter().take(10).map(|r| r.op).collect();
        assert_eq!(ops.iter().filter(|&&o| o == Op::Execute).count(), 6);
        assert_eq!(ops.iter().filter(|&&o| o == Op::Adaptive).count(), 2);
    }

    #[test]
    fn interleave_alternates_clients() {
        let streams = vec![vec![1, 3, 5], vec![2, 4]];
        assert_eq!(interleave(&streams), vec![&1, &2, &3, &4, &5]);
    }
}
