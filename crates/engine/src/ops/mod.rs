//! Physical operators: one executable implementation per activity
//! semantics variant.
//!
//! Operators are batch-at-a-time (`Table` in, `Table` out), preserve input
//! row order (which keeps keep-first semantics like the PK check
//! deterministic), and produce output columns in exactly the order the
//! core's schema derivation dictates — so engine tables always line up with
//! the optimizer's derived schemata.

mod binary;
mod blocking;
pub(crate) mod key;
mod unary;

pub use binary::exec_binary;
pub(crate) use blocking::{AggState, KeepFirst};
pub(crate) use unary::RowOp;

use etlopt_core::schema::Schema;
use etlopt_core::semantics::UnaryOp;

use crate::catalog::Catalog;
use crate::error::Result;
use crate::functions::FunctionRegistry;
use crate::table::{Row, Table};

/// Shared execution context.
pub struct ExecCtx<'a> {
    /// Scalar function implementations.
    pub functions: &'a FunctionRegistry,
    /// Source tables and surrogate lookups.
    pub catalog: &'a Catalog,
    /// Derive surrogates deterministically from the key when the lookup
    /// table has no entry (instead of failing).
    pub auto_lookup: bool,
}

/// One unary operator bound to its input schema: the single
/// implementation the materializing executor and the streaming pipeline
/// both run, batch by batch.
pub(crate) enum Stage {
    /// Filters and row rewrites.
    Row(RowOp),
    /// PK check and dedup (the output schema is the input schema).
    KeepFirst(KeepFirst, Schema),
    /// Group-by aggregation: blocking, emits on [`Stage::finish`].
    Aggregate(AggState),
}

impl Stage {
    /// Bind `op` to `input`, raising schema errors up front.
    pub(crate) fn bind(op: &UnaryOp, input: &Schema, ctx: &ExecCtx<'_>) -> Result<Stage> {
        Ok(match op {
            UnaryOp::PkCheck { key, .. } => {
                Stage::KeepFirst(KeepFirst::pk(key, input)?, input.clone())
            }
            UnaryOp::Dedup { .. } => Stage::KeepFirst(KeepFirst::dedup(), input.clone()),
            UnaryOp::Aggregate { agg, .. } => Stage::Aggregate(AggState::new(agg, input)?),
            _ => Stage::Row(RowOp::bind(op, input, ctx)?),
        })
    }

    /// The output schema.
    pub(crate) fn schema(&self) -> Schema {
        match self {
            Stage::Row(r) => r.schema().clone(),
            Stage::KeepFirst(_, schema) => schema.clone(),
            Stage::Aggregate(a) => a.output_schema(),
        }
    }

    /// Does the stage hold its output until the input is exhausted?
    pub(crate) fn is_blocking(&self) -> bool {
        matches!(self, Stage::Aggregate(_))
    }

    /// Push one batch of owned rows through, in order. A blocking stage
    /// folds them in and returns nothing.
    pub(crate) fn push(&mut self, rows: Vec<Row>, ctx: &ExecCtx<'_>) -> Result<Vec<Row>> {
        match self {
            Stage::Row(r) => r.apply_all(rows, ctx),
            Stage::KeepFirst(k, _) => Ok(rows.into_iter().filter(|r| k.admit(r)).collect()),
            Stage::Aggregate(a) => {
                a.feed(&rows)?;
                Ok(Vec::new())
            }
        }
    }

    /// The rows a blocking stage emits once its input is exhausted
    /// (nothing for the others).
    pub(crate) fn finish(&mut self) -> Result<Vec<Row>> {
        match self {
            Stage::Aggregate(a) => a.finish(),
            _ => Ok(Vec::new()),
        }
    }
}

/// Execute one unary operation, consuming its input.
pub fn exec_unary(op: &UnaryOp, input: Table, ctx: &ExecCtx<'_>) -> Result<Table> {
    let mut stage = Stage::bind(op, input.schema(), ctx)?;
    let mut rows = stage.push(input.into_rows(), ctx)?;
    rows.extend(stage.finish()?);
    Table::from_rows(stage.schema(), rows)
}

/// Execute a chain of unary operations (a merged activity), returning the
/// final table and the total number of rows processed across the links.
pub fn exec_chain(chain: &[UnaryOp], input: Table, ctx: &ExecCtx<'_>) -> Result<(Table, u64)> {
    let mut cur = input;
    let mut processed = 0u64;
    for op in chain {
        processed += cur.len() as u64;
        cur = exec_unary(op, cur, ctx)?;
    }
    Ok((cur, processed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::predicate::Predicate;
    use etlopt_core::schema::Schema;

    fn ctx_fixture() -> (FunctionRegistry, Catalog) {
        (FunctionRegistry::builtin(), Catalog::new())
    }

    #[test]
    fn chain_counts_processed_rows_per_link() {
        let (f, c) = ctx_fixture();
        let ctx = ExecCtx {
            functions: &f,
            catalog: &c,
            auto_lookup: true,
        };
        let t =
            Table::from_rows(Schema::of(["v"]), (0..10).map(|i| vec![i.into()]).collect()).unwrap();
        // σ(v>=5) keeps 5 rows, then σ(v>=8) keeps 2.
        let chain = vec![
            UnaryOp::filter(Predicate::ge("v", 5)),
            UnaryOp::filter(Predicate::ge("v", 8)),
        ];
        let (out, processed) = exec_chain(&chain, t, &ctx).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(processed, 10 + 5);
    }
}
