//! Process-wide shared state: the multi-tenant registry.
//!
//! Scoping rules (the soundness argument lives with each structure):
//!
//! * **Move memos** are keyed by *family digest* alone. Memo entries are
//!   derived purely from workflow structure ([`MoveMemo`]'s keys digest
//!   slot chains and activity-id bindings), so any two requests in the
//!   same family — same id→operation bindings, same recordsets, per
//!   [`etlopt_core::text::family_digest`] — may share one memo
//!   process-wide, across tenants. Sharing never changes results, only
//!   skips recomputing applicable-move lists.
//! * **Result caches** are keyed by (family digest, rows-per-source,
//!   data seed, *catalog digest*). The last component exists because the
//!   synthetic catalog is **not** a pure function of the first three:
//!   [`etlopt_workload::datagen::catalog_for`] threads one RNG across
//!   sources in declaration order, while the family digest is
//!   declaration-order-canonical — so two same-family workflows that
//!   declare their sources in different textual order generate
//!   *different* per-source data. Keying by a digest of the generated
//!   tables themselves ([`crate::job::catalog_digest`]) means sharing
//!   happens exactly when the data is bit-identical, and is then safely
//!   process-wide across tenants. All of a registry's result caches share
//!   one row budget, [`SharedCache::DEFAULT_MAX_ROWS`]: past it, whole
//!   least-recently-used caches are evicted. Eviction can only turn a
//!   later hit into a miss, and a cache never reaches a response body
//!   (cached and recomputed intermediates are bit-identical), so bodies
//!   do not change; only `meta` and the `stats` gauges do.
//! * **Calibration** is keyed by (tenant, family digest) and is the one
//!   layer that is *not* shared across tenants: calibration stores
//!   observed selectivities, which feed back into costing. One tenant's
//!   observations must never re-price another tenant's plans, so each
//!   tenant gets an isolated store, optionally persisted under
//!   [`StoreDir`]'s escaped per-tenant directories.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use etlopt_core::opt::MoveMemo;
use etlopt_engine::{SharedCache, SharedCacheHandle};
use etlopt_workload::{CalibrationStore, StoreDir, StoreError};

/// Server-process configuration: listen address, pool sizing, admission
/// caps and the per-job budget ceilings that clamp client requests.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Admission control: jobs allowed to wait in the queue. Submissions
    /// beyond this are rejected with a typed `429`.
    pub queue_depth: usize,
    /// Ceiling on the per-job search-state budget.
    pub max_states: usize,
    /// Ceiling on the per-job wall-clock search budget, in milliseconds.
    pub max_time_ms: u64,
    /// Ceiling on synthetic rows per source for execute/adaptive jobs.
    pub max_rows: usize,
    /// Ceiling on adaptive rounds per job.
    pub max_rounds: usize,
    /// Ceiling on per-job search parallelism (threads inside one search).
    /// Unlike the other ceilings this one is a pure resource knob —
    /// search results are parallelism-invariant — so the clamped value is
    /// not echoed in the canonical body.
    pub max_parallelism: usize,
    /// Root directory for persisted per-tenant calibration; `None`
    /// keeps calibration in-memory only.
    pub store_dir: Option<PathBuf>,
    /// Where `Server::join` writes the shutdown drain report; `None`
    /// skips the log.
    pub drain_log: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 16,
            max_states: 20_000,
            max_time_ms: 60_000,
            max_rows: 4096,
            max_rounds: 8,
            max_parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            store_dir: None,
            drain_log: None,
        }
    }
}

/// Shared optimizer state for one workflow family: the move memo and a
/// view of the registry's result caches for this family.
pub struct Family {
    digest: u128,
    memo: Arc<MoveMemo>,
    caches: Arc<Caches>,
}

impl Family {
    /// The family's shared move memo.
    pub fn memo(&self) -> Arc<MoveMemo> {
        Arc::clone(&self.memo)
    }

    /// The shared result cache for one synthetic dataset of this family,
    /// created on first touch. `data` is the digest of the *generated*
    /// catalog ([`crate::job::catalog_digest`]): datagen is
    /// declaration-order-sensitive while the family digest is not, so
    /// (rows, seed) alone could alias two different datasets and serve
    /// cached intermediates under the wrong catalog. A touch makes the
    /// cache the registry's most recently used one.
    pub fn cache(&self, rows: usize, seed: u64, data: u64) -> SharedCacheHandle {
        self.caches.touch((self.digest, rows, seed, data))
    }
}

/// A result cache's identity: (family digest, rows, seed, catalog digest).
type CacheKey = (u128, usize, u64, u64);

/// Every result cache of one registry, bounded together by total cached
/// rows with whole-cache LRU eviction.
struct Caches {
    max_rows: usize,
    lru: Mutex<CacheLru>,
}

#[derive(Default)]
struct CacheLru {
    /// Logical clock stamping each touch.
    clock: u64,
    /// Live caches and their last-touch stamps.
    live: HashMap<CacheKey, (SharedCacheHandle, u64)>,
    /// Caches evicted so far.
    evicted: u64,
    /// `(hits, misses, insertions)` of evicted caches as of eviction, so
    /// the registry totals never go backwards.
    retired: (u64, u64, u64),
}

impl Caches {
    fn new(max_rows: usize) -> Caches {
        Caches {
            max_rows,
            lru: Mutex::new(CacheLru::default()),
        }
    }

    fn touch(&self, key: CacheKey) -> SharedCacheHandle {
        let mut lru = self.lru.lock().expect("cache registry poisoned");
        lru.clock += 1;
        let stamp = lru.clock;
        let entry = lru
            .live
            .entry(key)
            .or_insert_with(|| (SharedCacheHandle::new(SharedCache::new()), stamp));
        entry.1 = stamp;
        let handle = entry.0.clone();
        lru.enforce(self.max_rows);
        handle
    }

    fn enforce(&self) {
        self.lru
            .lock()
            .expect("cache registry poisoned")
            .enforce(self.max_rows);
    }
}

impl CacheLru {
    fn cached_rows(&self) -> usize {
        self.live.values().map(|(h, _)| h.cached_rows()).sum()
    }

    /// Evict least-recently-used caches until the live ones fit
    /// `max_rows`. The most recently used cache is never evicted: one
    /// cache alone fits, since each is itself bounded by the same budget.
    /// A job still holding an evicted cache's handle finishes against it
    /// normally; it just no longer counts here.
    fn enforce(&mut self, max_rows: usize) {
        let mut rows = self.cached_rows();
        while rows > max_rows && self.live.len() > 1 {
            let Some(oldest) = self
                .live
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            let Some((handle, _)) = self.live.remove(&oldest) else {
                break;
            };
            rows -= handle.cached_rows();
            let (h, m, i) = handle.counters();
            self.retired.0 += h;
            self.retired.1 += m;
            self.retired.2 += i;
            self.evicted += 1;
        }
    }
}

/// One tenant's calibration stores, keyed by family digest.
struct Tenant {
    cals: Mutex<HashMap<u128, Arc<Mutex<CalibrationStore>>>>,
}

/// The process-wide registry behind all worker threads.
pub struct Registry {
    cfg: ServerConfig,
    families: Mutex<HashMap<u128, Arc<Family>>>,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    caches: Arc<Caches>,
}

impl Registry {
    /// A fresh registry for `cfg`.
    pub fn new(cfg: ServerConfig) -> Registry {
        Registry {
            cfg,
            families: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            caches: Arc::new(Caches::new(SharedCache::DEFAULT_MAX_ROWS)),
        }
    }

    /// The server configuration (budget ceilings live here).
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The shared state for one workflow family, created on first touch.
    pub fn family(&self, digest: u128) -> Arc<Family> {
        let mut families = self.families.lock().expect("family map poisoned");
        Arc::clone(families.entry(digest).or_insert_with(|| {
            Arc::new(Family {
                digest,
                memo: Arc::new(MoveMemo::new()),
                caches: Arc::clone(&self.caches),
            })
        }))
    }

    /// Re-apply the result-cache row budget after a run has filled a
    /// cache (touching a cache applies it too).
    pub(crate) fn enforce_cache_budget(&self) {
        self.caches.enforce();
    }

    /// The calibration store for (tenant, family), created on first
    /// touch. With a configured `store_dir` the first touch warm-loads
    /// from disk; a corrupt store file is a typed error (surfaced to the
    /// client as a 500), never silently replaced by an empty store.
    pub fn calibration(
        &self,
        tenant: &str,
        family: u128,
    ) -> Result<Arc<Mutex<CalibrationStore>>, StoreError> {
        let tenant_state = {
            let mut tenants = self.tenants.lock().expect("tenant map poisoned");
            Arc::clone(tenants.entry(tenant.to_owned()).or_insert_with(|| {
                Arc::new(Tenant {
                    cals: Mutex::new(HashMap::new()),
                })
            }))
        };
        let mut cals = tenant_state.cals.lock().expect("tenant store map poisoned");
        if let Some(store) = cals.get(&family) {
            return Ok(Arc::clone(store));
        }
        let store = match &self.cfg.store_dir {
            Some(root) => StoreDir::new(root)
                .load(tenant, family)?
                .unwrap_or_default(),
            None => CalibrationStore::new(),
        };
        let store = Arc::new(Mutex::new(store));
        cals.insert(family, Arc::clone(&store));
        Ok(store)
    }

    /// Persist one tenant's store for `family` if a store directory is
    /// configured.
    pub fn persist_calibration(
        &self,
        tenant: &str,
        family: u128,
        store: &CalibrationStore,
    ) -> Result<(), StoreError> {
        match &self.cfg.store_dir {
            Some(root) => StoreDir::new(root).save(tenant, family, store),
            None => Ok(()),
        }
    }

    /// Registry statistics as a JSON object line (the `stats` op).
    /// Cache hit/miss/insertion totals include evicted caches, so they
    /// never decrease.
    pub fn stats_json(&self) -> String {
        let families = self.families.lock().expect("family map poisoned");
        let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
        for fam in families.values() {
            let (mh, mm) = fam.memo.stats();
            memo_hits += mh;
            memo_misses += mm;
        }
        let tenants = self.tenants.lock().expect("tenant map poisoned").len();
        let lru = self.caches.lru.lock().expect("cache registry poisoned");
        let (mut hits, mut misses, mut insertions) = lru.retired;
        for (handle, _) in lru.live.values() {
            let (h, m, i) = handle.counters();
            hits += h;
            misses += m;
            insertions += i;
        }
        format!(
            concat!(
                "{{\"op\":\"stats\",\"families\":{},\"tenants\":{},\"caches\":{},",
                "\"cached_rows\":{},\"evicted_caches\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},\"cache_insertions\":{},",
                "\"memo_hits\":{},\"memo_misses\":{}}}"
            ),
            families.len(),
            tenants,
            lru.live.len(),
            lru.cached_rows(),
            lru.evicted,
            hits,
            misses,
            insertions,
            memo_hits,
            memo_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_and_caches_are_created_once_and_shared() {
        let reg = Registry::new(ServerConfig::default());
        let f1 = reg.family(7);
        let f2 = reg.family(7);
        assert!(Arc::ptr_eq(&f1, &f2));
        assert!(Arc::ptr_eq(&f1.memo(), &f2.memo()));
        let c1 = f1.cache(64, 1, 7);
        c1.with_cache(|c| {
            c.insert(
                99,
                Arc::new(etlopt_engine::Table::empty(
                    etlopt_core::schema::Schema::empty(),
                )),
            )
        });
        assert_eq!(
            f2.cache(64, 1, 7).len(),
            1,
            "same (rows, seed, data) shares a cache"
        );
        assert_eq!(f2.cache(64, 2, 7).len(), 0, "different seed gets its own");
        assert_eq!(
            f2.cache(64, 1, 8).len(),
            0,
            "different generated data gets its own"
        );
        assert_eq!(
            reg.family(8).cache(64, 1, 7).len(),
            0,
            "different family too"
        );
    }

    fn fill(handle: &SharedCacheHandle, key: u128, rows: usize) {
        let table = etlopt_engine::Table::from_rows(
            etlopt_core::schema::Schema::of(["x"]),
            (0..rows).map(|i| vec![(i as i64).into()]).collect(),
        )
        .unwrap();
        handle.with_cache(|c| {
            c.get(key);
            c.insert(key, Arc::new(table));
        });
    }

    #[test]
    fn caches_share_one_row_budget_with_lru_eviction() {
        let caches = Caches::new(10);
        let key = |seed| (1u128, 64usize, seed, 0u64);
        let a = caches.touch(key(1));
        fill(&a, 1, 6);
        let b = caches.touch(key(2));
        fill(&b, 2, 3);
        // Re-touching `a` makes `b` the least recently used.
        caches.touch(key(1));
        let c = caches.touch(key(3));
        fill(&c, 3, 4);
        caches.enforce();
        let lru = caches.lru.lock().unwrap();
        assert_eq!(lru.evicted, 1);
        assert!(lru.live.contains_key(&key(1)) && lru.live.contains_key(&key(3)));
        assert!(!lru.live.contains_key(&key(2)), "LRU cache b is evicted");
        assert_eq!(lru.cached_rows(), 10);
        // The evicted cache's counters moved into the retired totals.
        assert_eq!(lru.retired, (0, 1, 1));
    }

    #[test]
    fn evicted_handle_keeps_working_but_no_longer_counts() {
        let caches = Caches::new(5);
        let key = |seed| (1u128, 64usize, seed, 0u64);
        let held = caches.touch(key(1));
        fill(&held, 1, 5);
        let other = caches.touch(key(2));
        fill(&other, 2, 5);
        caches.enforce();
        // A job still holding the evicted handle inserts into it...
        fill(&held, 9, 2);
        assert_eq!(held.cached_rows(), 7);
        // ...but only the live cache is accounted.
        let lru = caches.lru.lock().unwrap();
        assert_eq!(lru.live.len(), 1);
        assert_eq!(lru.cached_rows(), 5);
        assert_eq!(lru.retired, (0, 1, 1), "totals frozen at eviction");
    }

    #[test]
    fn most_recent_cache_is_never_evicted() {
        let caches = Caches::new(3);
        let only = caches.touch((1, 64, 1, 0));
        fill(&only, 1, 4);
        caches.enforce();
        assert_eq!(caches.lru.lock().unwrap().live.len(), 1);
    }

    #[test]
    fn calibration_is_tenant_scoped() {
        use etlopt_core::opt::adaptive::{CalEntry, Calibration};
        let reg = Registry::new(ServerConfig::default());
        let a = reg.calibration("acme", 5).unwrap();
        a.lock().unwrap().record(1, "1", CalEntry::new(10, 5));
        let b = reg.calibration("umbrella", 5).unwrap();
        assert!(
            b.lock().unwrap().is_empty(),
            "tenant umbrella must not see acme's calibration"
        );
        let a2 = reg.calibration("acme", 5).unwrap();
        assert!(Arc::ptr_eq(&a, &a2), "same tenant+family is one store");
    }

    #[test]
    fn stats_json_is_a_parseable_snapshot() {
        let reg = Registry::new(ServerConfig::default());
        reg.family(1).cache(64, 1, 0);
        reg.calibration("acme", 1).unwrap();
        let v = crate::json::parse(&reg.stats_json()).unwrap();
        assert_eq!(
            v.get("families").and_then(crate::json::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("tenants").and_then(crate::json::Value::as_u64),
            Some(1)
        );
        for (key, want) in [("caches", 1), ("cached_rows", 0), ("evicted_caches", 0)] {
            assert_eq!(
                v.get(key).and_then(crate::json::Value::as_u64),
                Some(want),
                "{key}"
            );
        }
    }
}
