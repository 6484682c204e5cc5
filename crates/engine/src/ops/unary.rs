//! Row-wise operators: filter, not-null, function application,
//! projection, constant fields and surrogate-key assignment.
//!
//! Each operator is resolved once against its input schema into a
//! [`RowOp`] — predicate columns, the function pointer and the output
//! column plan are looked up here, not per row — and then applied one
//! owned row at a time: a row is handed on (possibly rewritten in place)
//! or dropped, never cloned. The materializing executor, the streaming
//! pipeline and the partitioned coordinator all run this one
//! implementation.

use etlopt_core::scalar::Scalar;
use etlopt_core::schema::Schema;
use etlopt_core::semantics::UnaryOp;

use crate::catalog::auto_surrogate_of;
use crate::error::{EngineError, Result};
use crate::eval::BoundPredicate;
use crate::functions::ScalarFn;
use crate::ops::key::KeyValue;
use crate::ops::ExecCtx;
use crate::table::{col_of, Row};

/// A row-wise operator bound to its input schema.
pub(crate) struct RowOp {
    kind: Kind,
    schema: Schema,
}

enum Kind {
    /// `σ(predicate)`.
    Filter(BoundPredicate),
    /// `NN(col)`.
    NotNull(usize),
    /// `f(args)`.
    Function(Function),
    /// `π-out`: `true` marks a dropped input column.
    ProjectOut(Vec<bool>),
    /// `ADD(value)`, appended.
    AddField(Scalar),
    /// `SK`: the key column is removed and the surrogate appended.
    Surrogate { col: usize, lookup: String },
}

struct Function {
    name: String,
    /// `None` for an unregistered name: the error is raised on the first
    /// row, so an empty input still succeeds.
    func: Option<ScalarFn>,
    args: Vec<usize>,
    layout: Layout,
}

/// Where a function's output row comes from.
enum Layout {
    /// Same columns as the input, the computed value overwriting one.
    InPlace(usize),
    /// Per output column: an input column (moved) or the computed value.
    Plan(Vec<Option<usize>>),
}

impl RowOp {
    /// Bind a row-wise `op` to `input`. Schema errors raise here,
    /// exactly as the operator over an empty table would raise them.
    pub(crate) fn bind(op: &UnaryOp, input: &Schema, ctx: &ExecCtx<'_>) -> Result<RowOp> {
        let (kind, schema) = match op {
            UnaryOp::Filter { predicate, .. } => (
                Kind::Filter(BoundPredicate::bind(predicate, input)),
                input.clone(),
            ),
            UnaryOp::NotNull { attr, .. } => (Kind::NotNull(col_of(input, attr)?), input.clone()),
            UnaryOp::Function(f) => {
                // Lay the output columns out exactly as the core's schema
                // derivation does: input order minus projected-out inputs,
                // the generated attribute appended (or replaced in place
                // when the output overwrites an input name).
                let schema = op.output(input).map_err(EngineError::Core)?;
                let args = f
                    .inputs
                    .iter()
                    .map(|a| col_of(input, a))
                    .collect::<Result<_>>()?;
                let plan: Vec<Option<usize>> = schema
                    .iter()
                    .map(|a| {
                        if *a == f.output {
                            Ok(None)
                        } else {
                            col_of(input, a).map(Some)
                        }
                    })
                    .collect::<Result<_>>()?;
                let in_place = plan.len() == input.len()
                    && plan
                        .iter()
                        .enumerate()
                        .all(|(i, s)| s.is_none_or(|c| c == i));
                let layout = match plan.iter().position(Option::is_none) {
                    Some(pos) if in_place => Layout::InPlace(pos),
                    _ => Layout::Plan(plan),
                };
                let function = Function {
                    name: f.function.clone(),
                    func: ctx.functions.get(&f.function),
                    args,
                    layout,
                };
                (Kind::Function(function), schema)
            }
            UnaryOp::ProjectOut(attrs) => (
                Kind::ProjectOut(input.iter().map(|a| attrs.contains(a)).collect()),
                input
                    .iter()
                    .filter(|a| !attrs.contains(a))
                    .cloned()
                    .collect(),
            ),
            UnaryOp::AddField { attr, value } => {
                let mut schema = input.clone();
                schema.push(attr.clone());
                (Kind::AddField(value.clone()), schema)
            }
            UnaryOp::SurrogateKey {
                key,
                surrogate,
                lookup,
            } => {
                let col = col_of(input, key)?;
                let mut schema: Schema = input.iter().filter(|a| *a != key).cloned().collect();
                schema.push(surrogate.clone());
                let kind = Kind::Surrogate {
                    col,
                    lookup: lookup.clone(),
                };
                (kind, schema)
            }
            UnaryOp::PkCheck { .. } | UnaryOp::Dedup { .. } | UnaryOp::Aggregate { .. } => {
                return Err(EngineError::FunctionFailed {
                    function: "ops::RowOp::bind".into(),
                    reason: format!("{op:?} is keyed, not row-wise"),
                })
            }
        };
        Ok(RowOp { kind, schema })
    }

    /// The output schema.
    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Apply to one row: `Some(output row)` or `None` when filtered out.
    pub(crate) fn apply(&self, mut row: Row, ctx: &ExecCtx<'_>) -> Result<Option<Row>> {
        match &self.kind {
            Kind::Filter(p) => {
                if !p.eval(&row)?.passes() {
                    return Ok(None);
                }
            }
            Kind::NotNull(c) => {
                if row[*c].is_null() {
                    return Ok(None);
                }
            }
            Kind::Function(f) => {
                let func = f
                    .func
                    .as_ref()
                    .ok_or_else(|| EngineError::UnknownFunction(f.name.clone()))?;
                let computed = match f.args.as_slice() {
                    [a] => func(std::slice::from_ref(&row[*a]))?,
                    args => func(&args.iter().map(|&i| row[i].clone()).collect::<Vec<_>>())?,
                };
                match &f.layout {
                    Layout::InPlace(pos) => row[*pos] = computed,
                    Layout::Plan(plan) => {
                        let mut computed = Some(computed);
                        let mut out = Vec::with_capacity(plan.len());
                        for src in plan {
                            out.push(match src {
                                Some(i) => std::mem::replace(&mut row[*i], Scalar::Null),
                                None => computed.take().unwrap_or(Scalar::Null),
                            });
                        }
                        row = out;
                    }
                }
            }
            Kind::ProjectOut(drop) => {
                let mut i = 0;
                row.retain(|_| {
                    i += 1;
                    !drop[i - 1]
                });
            }
            Kind::AddField(value) => row.push(value.clone()),
            Kind::Surrogate { col, lookup } => {
                let key = KeyValue::of(&row[*col]);
                let sk = match ctx.catalog.lookup_key(lookup, &key) {
                    Some(s) => s.clone(),
                    None if ctx.auto_lookup => auto_surrogate_of(&key),
                    None => {
                        return Err(EngineError::LookupMiss {
                            lookup: lookup.clone(),
                            key: row[*col].to_string(),
                        })
                    }
                };
                row.remove(*col);
                row.push(sk);
            }
        }
        if row.len() != self.schema.len() {
            return Err(EngineError::RowArity {
                context: "Table::push".into(),
                expected: self.schema.len(),
                actual: row.len(),
            });
        }
        Ok(Some(row))
    }

    /// Apply to a batch of owned rows, keeping their order.
    pub(crate) fn apply_all(&self, rows: Vec<Row>, ctx: &ExecCtx<'_>) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            if let Some(r) = self.apply(row, ctx)? {
                out.push(r);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::functions::FunctionRegistry;
    use crate::ops::exec_unary;
    use crate::table::Table;
    use etlopt_core::predicate::Predicate;
    use etlopt_core::schema::Attr;
    use etlopt_core::semantics::FunctionApp;

    fn attr(name: &str) -> Attr {
        Attr::new(name)
    }

    fn sample() -> Table {
        Table::from_rows(
            Schema::of(["k", "dc"]),
            vec![
                vec![1.into(), 100.0.into()],
                vec![2.into(), Scalar::Null],
                vec![3.into(), 50.0.into()],
            ],
        )
        .unwrap()
    }

    fn run(op: UnaryOp, input: Table) -> Result<Table> {
        let funcs = FunctionRegistry::builtin();
        let cat = Catalog::new();
        let ctx = ExecCtx {
            functions: &funcs,
            catalog: &cat,
            auto_lookup: true,
        };
        exec_unary(&op, input, &ctx)
    }

    fn function(name: &str, input: &str, output: &str) -> UnaryOp {
        UnaryOp::Function(FunctionApp {
            function: name.into(),
            inputs: vec![attr(input)],
            output: attr(output),
            keep_inputs: false,
            injective: true,
        })
    }

    #[test]
    fn filter_keeps_true_rows_only() {
        let out = run(UnaryOp::filter(Predicate::gt("dc", 60.0)), sample()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Scalar::Int(1));
    }

    #[test]
    fn not_null_drops_nulls() {
        let out = run(UnaryOp::not_null("dc"), sample()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn function_replaces_input_column() {
        let out = run(function("dollar2euro", "dc", "ec"), sample()).unwrap();
        assert_eq!(out.schema(), &Schema::of(["k", "ec"]));
        assert_eq!(out.rows()[0][1], Scalar::Float(92.0));
        assert_eq!(out.rows()[1][1], Scalar::Null);
    }

    #[test]
    fn in_place_function_keeps_layout() {
        let out = run(function("scale", "dc", "dc"), sample()).unwrap();
        assert_eq!(out.schema(), &Schema::of(["k", "dc"]));
        let v = out.rows()[2][1].as_f64().unwrap();
        assert!((v - 55.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn unknown_function_fails_on_the_first_row_only() {
        let op = function("no_such_fn", "dc", "x");
        let empty = Table::empty(Schema::of(["k", "dc"]));
        assert_eq!(
            run(op.clone(), empty).unwrap().schema(),
            &Schema::of(["k", "x"])
        );
        assert!(matches!(
            run(op, sample()).unwrap_err(),
            EngineError::UnknownFunction(_)
        ));
    }

    #[test]
    fn project_out_drops_columns() {
        let out = run(UnaryOp::ProjectOut(vec![attr("dc")]), sample()).unwrap();
        assert_eq!(out.schema(), &Schema::of(["k"]));
        assert_eq!(out.rows()[1], vec![Scalar::Int(2)]);
    }

    #[test]
    fn add_field_appends_constant() {
        let op = UnaryOp::AddField {
            attr: attr("src"),
            value: Scalar::from("S1"),
        };
        let out = run(op, sample()).unwrap();
        assert_eq!(out.schema(), &Schema::of(["k", "dc", "src"]));
        assert!(out.rows().iter().all(|r| r[2] == Scalar::from("S1")));
    }

    fn sk() -> UnaryOp {
        UnaryOp::SurrogateKey {
            key: attr("pkey"),
            surrogate: attr("skey"),
            lookup: "L".into(),
        }
    }

    fn keyed(rows: Vec<Vec<Scalar>>) -> Table {
        Table::from_rows(Schema::of(["pkey", "cost"]), rows).unwrap()
    }

    fn run_sk(cat: &Catalog, auto_lookup: bool, input: Table) -> Result<Table> {
        let funcs = FunctionRegistry::builtin();
        let ctx = ExecCtx {
            functions: &funcs,
            catalog: cat,
            auto_lookup,
        };
        exec_unary(&sk(), input, &ctx)
    }

    fn sk_sample() -> Table {
        keyed(vec![vec![1.into(), 10.into()], vec![2.into(), 20.into()]])
    }

    #[test]
    fn lookup_table_resolves() {
        let mut cat = Catalog::new();
        cat.insert_lookup("L", &Scalar::Int(1), Scalar::Int(101));
        cat.insert_lookup("L", &Scalar::Int(2), Scalar::Int(102));
        let out = run_sk(&cat, false, sk_sample()).unwrap();
        assert_eq!(out.schema(), &Schema::of(["cost", "skey"]));
        assert_eq!(out.rows()[0], vec![Scalar::Int(10), Scalar::Int(101)]);
    }

    #[test]
    fn missing_entry_errors_without_auto() {
        let err = run_sk(&Catalog::new(), false, sk_sample()).unwrap_err();
        assert!(matches!(err, EngineError::LookupMiss { .. }));
    }

    #[test]
    fn auto_lookup_is_pure_in_the_key() {
        let a = run_sk(&Catalog::new(), true, sk_sample()).unwrap();
        // Re-running on a re-ordered input gives the same surrogate per
        // key.
        let reversed = keyed(vec![vec![2.into(), 20.into()], vec![1.into(), 10.into()]]);
        let b = run_sk(&Catalog::new(), true, reversed).unwrap();
        assert!(a.same_bag(&b).unwrap());
    }
}
