//! Randomized property tests over the physical operators: the algebraic laws
//! the optimizer's transitions rely on must hold on arbitrary data. Driven by
//! the in-repo seeded [`Rng`] (the build environment is offline, so
//! `proptest` is unavailable); each case names its seed on failure.

use etlopt_core::predicate::Predicate;
use etlopt_core::rng::Rng;
use etlopt_core::scalar::Scalar;
use etlopt_core::schema::{Attr, Schema};
use etlopt_core::semantics::{Aggregation, BinaryOp, UnaryOp};
use etlopt_engine::ops::{exec_binary, exec_unary, ExecCtx};
use etlopt_engine::{Catalog, FunctionRegistry, Table};

const CASES: u64 = 384;

fn value(rng: &mut Rng) -> Scalar {
    // 3:1 small ints to NULLs — duplicates are likely (bag semantics get
    // exercised) and NULLs hit the three-valued comparison paths.
    if rng.gen_bool(0.75) {
        Scalar::Int(rng.gen_range(0..20i64))
    } else {
        Scalar::Null
    }
}

fn table_kv(rng: &mut Rng) -> Table {
    let n = rng.gen_range(0..24usize);
    Table::from_rows(
        Schema::of(["k", "v"]),
        (0..n).map(|_| vec![value(rng), value(rng)]).collect(),
    )
    .unwrap()
}

fn with_ctx<R>(f: impl FnOnce(&ExecCtx<'_>) -> R) -> R {
    let functions = FunctionRegistry::builtin();
    let catalog = Catalog::new();
    let ctx = ExecCtx {
        functions: &functions,
        catalog: &catalog,
        auto_lookup: true,
    };
    f(&ctx)
}

/// σ distributes over bag union: σ(A ∪ B) = σ(A) ∪ σ(B).
#[test]
fn filter_distributes_over_union() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let (a, b) = (table_kv(&mut rng), table_kv(&mut rng));
        with_ctx(|ctx| {
            let sel = UnaryOp::filter(Predicate::gt("v", 7));
            let joint =
                exec_unary(&sel, exec_binary(&BinaryOp::Union, &a, &b).unwrap(), ctx).unwrap();
            let split = exec_binary(
                &BinaryOp::Union,
                &exec_unary(&sel, a.clone(), ctx).unwrap(),
                &exec_unary(&sel, b.clone(), ctx).unwrap(),
            )
            .unwrap();
            assert!(joint.same_bag(&split).unwrap(), "seed {seed}");
        });
    }
}

/// σ distributes over bag difference and intersection.
#[test]
fn filter_distributes_over_difference_and_intersection() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x1000);
        let (a, b) = (table_kv(&mut rng), table_kv(&mut rng));
        with_ctx(|ctx| {
            let sel = UnaryOp::filter(Predicate::le("v", 10));
            for op in [BinaryOp::Difference, BinaryOp::Intersection] {
                let joint = exec_unary(&sel, exec_binary(&op, &a, &b).unwrap(), ctx).unwrap();
                let split = exec_binary(
                    &op,
                    &exec_unary(&sel, a.clone(), ctx).unwrap(),
                    &exec_unary(&sel, b.clone(), ctx).unwrap(),
                )
                .unwrap();
                assert!(joint.same_bag(&split).unwrap(), "seed {seed} {op:?}");
            }
        });
    }
}

/// An injective per-row map distributes over difference, a collapsing
/// one does not necessarily — the rule behind `distributable_through`.
#[test]
fn injective_function_distributes_over_difference() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x2000);
        let (a, b) = (table_kv(&mut rng), table_kv(&mut rng));
        with_ctx(|ctx| {
            let f = UnaryOp::function("negate", ["v"], "nv");
            let joint =
                exec_unary(&f, exec_binary(&BinaryOp::Difference, &a, &b).unwrap(), ctx).unwrap();
            let split = exec_binary(
                &BinaryOp::Difference,
                &exec_unary(&f, a.clone(), ctx).unwrap(),
                &exec_unary(&f, b.clone(), ctx).unwrap(),
            )
            .unwrap();
            assert!(joint.same_bag(&split).unwrap(), "seed {seed}");
        });
    }
}

/// σ commutes with whole-row dedup.
#[test]
fn filter_commutes_with_dedup() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x3000);
        let a = table_kv(&mut rng);
        with_ctx(|ctx| {
            let sel = UnaryOp::filter(Predicate::gt("v", 5));
            let dd = UnaryOp::Dedup { selectivity: 1.0 };
            let fd = exec_unary(&dd, exec_unary(&sel, a.clone(), ctx).unwrap(), ctx).unwrap();
            let df = exec_unary(&sel, exec_unary(&dd, a.clone(), ctx).unwrap(), ctx).unwrap();
            assert!(fd.same_bag(&df).unwrap(), "seed {seed}");
        });
    }
}

/// A key-constrained σ commutes with the keep-first PK check (the
/// commute.rs rule); the engine's keep-first semantics make this exact.
#[test]
fn key_filter_commutes_with_pk_check() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x4000);
        let a = table_kv(&mut rng);
        with_ctx(|ctx| {
            let sel = UnaryOp::filter(Predicate::gt("k", 9));
            let pk = UnaryOp::PkCheck {
                key: vec![Attr::new("k")],
                selectivity: 1.0,
            };
            let fp = exec_unary(&pk, exec_unary(&sel, a.clone(), ctx).unwrap(), ctx).unwrap();
            let pf = exec_unary(&sel, exec_unary(&pk, a.clone(), ctx).unwrap(), ctx).unwrap();
            assert!(fp.same_bag(&pf).unwrap(), "seed {seed}");
        });
    }
}

/// A grouper-only filter commutes with aggregation.
#[test]
fn grouper_filter_commutes_with_aggregation() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5000);
        let a = table_kv(&mut rng);
        with_ctx(|ctx| {
            let sel = UnaryOp::filter(Predicate::le("k", 12));
            let agg = UnaryOp::aggregate(Aggregation::sum(["k"], "v", "total"));
            let fa = exec_unary(&agg, exec_unary(&sel, a.clone(), ctx).unwrap(), ctx).unwrap();
            let af = exec_unary(&sel, exec_unary(&agg, a.clone(), ctx).unwrap(), ctx).unwrap();
            assert!(fa.same_bag(&af).unwrap(), "seed {seed}");
        });
    }
}

/// Union cardinality is additive; difference plus intersection
/// partition the left bag.
#[test]
fn bag_cardinality_laws() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x6000);
        let (a, b) = (table_kv(&mut rng), table_kv(&mut rng));
        let u = exec_binary(&BinaryOp::Union, &a, &b).unwrap();
        assert_eq!(u.len(), a.len() + b.len(), "seed {seed}");
        let d = exec_binary(&BinaryOp::Difference, &a, &b).unwrap();
        let i = exec_binary(&BinaryOp::Intersection, &a, &b).unwrap();
        assert_eq!(d.len() + i.len(), a.len(), "seed {seed}");
        // A − B and A ∩ B rebuild A.
        let rebuilt = exec_binary(&BinaryOp::Union, &d, &i).unwrap();
        assert!(rebuilt.same_bag(&a).unwrap(), "seed {seed}");
    }
}

/// Record-file round trip on arbitrary tables.
#[test]
fn recordfile_roundtrips() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x7000);
        let a = table_kv(&mut rng);
        let text = etlopt_engine::recordfile::write_str(&a);
        let back = etlopt_engine::recordfile::read_str(&text).unwrap();
        assert_eq!(back, a, "seed {seed}");
    }
}

/// same_bag is an equivalence relation on tables of one schema.
#[test]
fn same_bag_is_reflexive_and_symmetric() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed ^ 0x8000);
        let (a, b) = (table_kv(&mut rng), table_kv(&mut rng));
        assert!(a.same_bag(&a).unwrap(), "seed {seed}");
        assert_eq!(
            a.same_bag(&b).unwrap(),
            b.same_bag(&a).unwrap(),
            "seed {seed}"
        );
    }
}
