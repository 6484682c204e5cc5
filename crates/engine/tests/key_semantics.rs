//! Key equality at the engine's public surface: every keyed operator
//! (dedup, PK check, join, surrogate lookup) on every backend follows the
//! one definition in `ops::key`, and `auto_surrogate` values are pinned.

use etlopt_core::predicate::Predicate;
use etlopt_core::scalar::Scalar;
use etlopt_core::schema::{Attr, Schema};
use etlopt_core::semantics::{BinaryOp, UnaryOp};
use etlopt_core::workflow::{Workflow, WorkflowBuilder};
use etlopt_engine::catalog::auto_surrogate;
use etlopt_engine::ops::{exec_unary, ExecCtx};
use etlopt_engine::{Catalog, EngineError, Executor, FunctionRegistry, Table};

/// Integral floats beyond `i64` next to the value a saturating cast
/// would alias them with.
fn overflow_keys() -> Vec<Scalar> {
    vec![
        Scalar::Float(1e19),
        Scalar::Int(i64::MAX),
        Scalar::Float(1e20),
        Scalar::Float(-1e19),
        Scalar::Int(i64::MIN),
    ]
}

fn source() -> Table {
    let rows = overflow_keys()
        .into_iter()
        .enumerate()
        .map(|(i, k)| vec![k, Scalar::Int(i as i64)])
        .collect();
    Table::from_rows(Schema::of(["k", "v"]), rows).unwrap()
}

/// Every backend the executor offers.
fn backends(catalog: &Catalog) -> Vec<(&'static str, Executor)> {
    vec![
        ("materialize", Executor::new(catalog.clone())),
        (
            "stream",
            Executor::new(catalog.clone()).with_backend(etlopt_engine::Backend::Stream),
        ),
        (
            "stream-2",
            Executor::new(catalog.clone())
                .with_backend(etlopt_engine::Backend::Stream)
                .with_parallelism(2),
        ),
    ]
}

fn run(exec: &Executor, wf: &Workflow) -> etlopt_engine::Result<Table> {
    let result = match exec.backend() {
        etlopt_engine::Backend::Materialize => exec.run_materialize(wf)?,
        etlopt_engine::Backend::Stream => exec.run_stream(wf)?.result,
    };
    Ok(result.target("T").cloned().unwrap())
}

fn unary_wf(op: UnaryOp, out: Schema) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["k", "v"]), 5.0);
    let a = b.unary("op", op, s);
    b.target("T", out, a);
    b.build().unwrap()
}

#[test]
fn overflowing_float_keys_stay_distinct_in_dedup_and_pk() {
    let mut catalog = Catalog::new();
    catalog.insert("S", source());
    let pk = UnaryOp::PkCheck {
        key: vec![Attr::new("k")],
        selectivity: 1.0,
    };
    let project_v = UnaryOp::ProjectOut(vec![Attr::new("v")]);
    for (name, exec) in backends(&catalog) {
        let kept = run(&exec, &unary_wf(pk.clone(), Schema::of(["k", "v"]))).unwrap();
        assert_eq!(kept.len(), 5, "{name}: PK merged distinct keys");

        // Dedup over the key column alone: five distinct values.
        let mut b = WorkflowBuilder::new();
        let s = b.source("S", Schema::of(["k", "v"]), 5.0);
        let p = b.unary("π", project_v.clone(), s);
        let d = b.unary("DD", UnaryOp::Dedup { selectivity: 1.0 }, p);
        b.target("T", Schema::of(["k"]), d);
        let deduped = run(&exec, &b.build().unwrap()).unwrap();
        assert_eq!(deduped.len(), 5, "{name}: dedup merged distinct rows");
    }
}

#[test]
fn overflowing_float_keys_do_not_join_the_saturated_integer() {
    let mut catalog = Catalog::new();
    catalog.insert("S", source());
    catalog.insert(
        "D",
        Table::from_rows(
            Schema::of(["k", "name"]),
            vec![
                vec![Scalar::Int(i64::MAX), Scalar::from("max")],
                vec![Scalar::Int(i64::MIN), Scalar::from("min")],
            ],
        )
        .unwrap(),
    );
    let mut b = WorkflowBuilder::new();
    let s = b.source("S", Schema::of(["k", "v"]), 5.0);
    let d = b.source("D", Schema::of(["k", "name"]), 2.0);
    let j = b.binary("⋈", BinaryOp::Join(vec![Attr::new("k")]), s, d);
    b.target("T", Schema::of(["k", "v", "name"]), j);
    let wf = b.build().unwrap();
    for (name, exec) in backends(&catalog) {
        let joined = run(&exec, &wf).unwrap().sorted();
        let expected = Table::from_rows(
            Schema::of(["k", "v", "name"]),
            vec![
                vec![Scalar::Int(i64::MIN), Scalar::Int(4), Scalar::from("min")],
                vec![Scalar::Int(i64::MAX), Scalar::Int(1), Scalar::from("max")],
            ],
        )
        .unwrap()
        .sorted();
        assert_eq!(joined, expected, "{name}");
    }
}

#[test]
fn overflowing_float_keys_miss_the_saturated_lookup_entry() {
    let sk = UnaryOp::surrogate_key("k", "sk", "L");
    let wf = unary_wf(sk, Schema::of(["v", "sk"]));

    // Strict lookups: only the `i64::MAX` entry exists, so 1e19 must miss.
    let mut catalog = Catalog::new();
    let rows = vec![
        vec![Scalar::Int(i64::MAX), Scalar::Int(0)],
        vec![Scalar::Float(1e19), Scalar::Int(1)],
    ];
    catalog.insert("S", Table::from_rows(Schema::of(["k", "v"]), rows).unwrap());
    catalog.insert_lookup("L", &Scalar::Int(i64::MAX), Scalar::Int(1));
    for (name, exec) in backends(&catalog) {
        let err = run(&exec.with_strict_lookups(), &wf).unwrap_err();
        assert!(
            matches!(&err, EngineError::LookupMiss { key, .. } if key == "10000000000000000000"),
            "{name}: {err:?}"
        );
    }

    // Auto-assigned surrogates: five keys, five surrogates.
    let mut catalog = Catalog::new();
    catalog.insert("S", source());
    for (name, exec) in backends(&catalog) {
        let out = run(&exec, &wf).unwrap();
        let mut sks: Vec<Scalar> = out.rows().iter().map(|r| r[1].clone()).collect();
        sks.sort_by(|a, b| a.total_cmp(b));
        sks.dedup();
        assert_eq!(sks.len(), 5, "{name}: surrogates collided: {sks:?}");
    }
    assert_ne!(
        auto_surrogate(&Scalar::Float(1e19)),
        auto_surrogate(&Scalar::Int(i64::MAX))
    );
}

/// `auto_surrogate` is FNV-1a over a key's canonical text; these values
/// are what every earlier release produced and must never change.
#[test]
fn auto_surrogate_golden_values() {
    let golden: [(Scalar, i64); 22] = [
        (Scalar::Int(0), 1550678136342621087),
        (Scalar::Int(1), 1550678686098435192),
        (Scalar::Int(-1), 4319782596194365558),
        (Scalar::Int(42), 4315495050601008276),
        (Scalar::Int(i64::MAX), 1920320871060684811),
        (Scalar::Int(i64::MIN), 4928457739898649105),
        (Scalar::Float(42.0), 4315495050601008276),
        (Scalar::Float(-0.0), 1550678136342621087),
        (Scalar::Float(1.5), 5010533125265924935),
        (Scalar::Float(-2.25), 1446965166067919095),
        (Scalar::Float(f64::NAN), 3348035674574934485),
        (Scalar::Float(f64::INFINITY), 1485856665828996306),
        (Scalar::Float(f64::NEG_INFINITY), 1093471117438303610),
        (Scalar::Null, 4833737765365005922),
        (Scalar::Bool(true), 8186406851232512943),
        (Scalar::Bool(false), 3344654246783082626),
        (Scalar::Date(0), 4425374025560370400),
        (Scalar::Date(365), 7327604024202460514),
        (Scalar::Str(String::new()), 2622542204916674963),
        (Scalar::Str("ORDERS".into()), 3044736237070990133),
        (Scalar::Str("a\u{1f}b".into()), 6203928563984179625),
        (Scalar::Str("q\"uote".into()), 4851398242224663000),
    ];
    for (key, want) in golden {
        assert_eq!(auto_surrogate(&key), Scalar::Int(want), "{key:?}");
    }
    // Every NaN payload is the one NaN key.
    assert_eq!(
        auto_surrogate(&Scalar::Float(-f64::NAN)),
        Scalar::Int(3348035674574934485)
    );
}

#[test]
fn missing_predicate_attribute_fails_on_the_first_row_not_on_empty_input() {
    let funcs = FunctionRegistry::builtin();
    let catalog = Catalog::new();
    let ctx = ExecCtx {
        functions: &funcs,
        catalog: &catalog,
        auto_lookup: true,
    };
    let ghost = UnaryOp::filter(Predicate::gt("k", 0).and(Predicate::gt("ghost", 1)));
    let schema = Schema::of(["k", "v"]);
    let empty = exec_unary(&ghost, Table::empty(schema.clone()), &ctx).unwrap();
    assert!(empty.is_empty());
    let err = exec_unary(&ghost, source(), &ctx).unwrap_err();
    assert!(
        matches!(&err, EngineError::MissingAttribute { attr, .. } if attr == "ghost"),
        "{err:?}"
    );
}
