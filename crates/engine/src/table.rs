//! Rows and tables: the bag-of-tuples data model.

use std::cmp::Ordering;

use etlopt_core::scalar::Scalar;
use etlopt_core::schema::{Attr, Schema};

use crate::error::{EngineError, Result};

/// A row: one scalar per schema attribute, in schema order.
pub type Row = Vec<Scalar>;

/// Total order over rows built from [`Scalar::total_cmp`]; used for
/// canonical sorting and multiset comparison.
pub fn row_cmp(a: &Row, b: &Row) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match x.total_cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// Column index of `attr` in `schema`, or the engine's missing-attribute
/// error.
pub(crate) fn col_of(schema: &Schema, attr: &Attr) -> Result<usize> {
    schema
        .index_of(attr)
        .ok_or_else(|| EngineError::MissingAttribute {
            attr: attr.name().to_owned(),
            context: format!("table schema {schema}"),
        })
}

/// A bag of rows under a schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// An empty table.
    pub fn empty(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Build from rows, checking arity.
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        for r in &rows {
            if r.len() != schema.len() {
                return Err(EngineError::RowArity {
                    context: "Table::from_rows".into(),
                    expected: schema.len(),
                    actual: r.len(),
                });
            }
        }
        Ok(Table { schema, rows })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consume the table, yielding its rows (the streaming runtime moves
    /// batches into the buffer pool without re-cloning every scalar).
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row (arity-checked).
    pub fn push(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(EngineError::RowArity {
                context: "Table::push".into(),
                expected: self.schema.len(),
                actual: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Column index of an attribute.
    pub fn col(&self, attr: &Attr) -> Result<usize> {
        col_of(&self.schema, attr)
    }

    /// The value of `attr` in `row`.
    pub fn value<'r>(&self, row: &'r Row, attr: &Attr) -> Result<&'r Scalar> {
        Ok(&row[self.col(attr)?])
    }

    /// Re-order columns into `target` schema order (same attribute set).
    pub fn reordered(&self, target: &Schema) -> Result<Table> {
        if &self.schema == target {
            return Ok(self.clone());
        }
        let mut idx = Vec::with_capacity(target.len());
        for a in target.iter() {
            idx.push(self.col(a)?);
        }
        let rows = self
            .rows
            .iter()
            .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Ok(Table {
            schema: target.clone(),
            rows,
        })
    }

    /// [`Table::reordered`], consuming the table: values move into their
    /// new positions instead of being cloned.
    pub(crate) fn into_reordered(self, target: &Schema) -> Result<Table> {
        if &self.schema == target {
            return Ok(self);
        }
        let idx = target
            .iter()
            .map(|a| self.col(a))
            .collect::<Result<Vec<usize>>>()?;
        let rows = self
            .rows
            .into_iter()
            .map(|mut r| {
                idx.iter()
                    .map(|&i| std::mem::replace(&mut r[i], Scalar::Null))
                    .collect()
            })
            .collect();
        Ok(Table {
            schema: target.clone(),
            rows,
        })
    }

    /// Canonically sorted copy (for display and comparison).
    pub fn sorted(&self) -> Table {
        let mut t = self.clone();
        t.rows.sort_by(row_cmp);
        t
    }

    /// Replace each listed column's values with dense ranks: distinct
    /// non-NULL values map to `Int(0), Int(1), …` in [`Scalar::total_cmp`]
    /// order; NULLs stay NULL. Two runs that assign surrogate keys from
    /// different counter states (or different lookup-table contents)
    /// produce rank-identical columns as long as the key structure —
    /// which source rows share a surrogate, and their relative order —
    /// matches, so the conformance oracle compares surrogate columns
    /// rank-normalized instead of byte-for-byte. Columns not present in
    /// the schema are ignored (a target may project a surrogate out).
    pub fn rank_normalized(&self, columns: &[Attr]) -> Table {
        let mut out = self.clone();
        for attr in columns {
            let Some(c) = self.schema.index_of(attr) else {
                continue;
            };
            let mut distinct: Vec<&Scalar> = self
                .rows
                .iter()
                .map(|r| &r[c])
                .filter(|v| !matches!(v, Scalar::Null))
                .collect();
            distinct.sort_by(|a, b| a.total_cmp(b));
            distinct.dedup_by(|a, b| a.total_cmp(b) == Ordering::Equal);
            for row in &mut out.rows {
                if matches!(row[c], Scalar::Null) {
                    continue;
                }
                let rank = distinct
                    .binary_search_by(|v| v.total_cmp(&row[c]))
                    .unwrap_or_else(|i| i);
                row[c] = Scalar::Int(rank as i64);
            }
        }
        out
    }

    /// Multiset equality: same attribute set, same bag of rows (column
    /// order normalized, row order ignored).
    pub fn same_bag(&self, other: &Table) -> Result<bool> {
        if !self.schema.same_attrs(other.schema()) {
            return Ok(false);
        }
        let other = other.reordered(&self.schema)?;
        if self.len() != other.len() {
            return Ok(false);
        }
        let mut a = self.rows.clone();
        let mut b = other.rows;
        a.sort_by(row_cmp);
        b.sort_by(row_cmp);
        Ok(a.iter()
            .zip(b.iter())
            .all(|(x, y)| row_cmp(x, y) == Ordering::Equal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: Vec<Row>) -> Table {
        Table::from_rows(Schema::of(["a", "b"]), rows).unwrap()
    }

    #[test]
    fn arity_is_checked() {
        assert!(Table::from_rows(Schema::of(["a", "b"]), vec![vec![1.into()]]).is_err());
        let mut ok = Table::empty(Schema::of(["a"]));
        assert!(ok.push(vec![1.into(), 2.into()]).is_err());
        assert!(ok.push(vec![1.into()]).is_ok());
    }

    #[test]
    fn value_access() {
        let table = t(vec![vec![1.into(), "x".into()]]);
        let row = &table.rows()[0];
        assert_eq!(
            table.value(row, &Attr::new("b")).unwrap(),
            &Scalar::from("x")
        );
        assert!(table.value(row, &Attr::new("zzz")).is_err());
    }

    #[test]
    fn reorder_columns() {
        let table = t(vec![vec![1.into(), "x".into()]]);
        let r = table.reordered(&Schema::of(["b", "a"])).unwrap();
        assert_eq!(r.rows()[0], vec![Scalar::from("x"), Scalar::from(1)]);
    }

    #[test]
    fn same_bag_ignores_row_and_column_order() {
        let t1 = t(vec![vec![1.into(), "x".into()], vec![2.into(), "y".into()]]);
        let t2 = Table::from_rows(
            Schema::of(["b", "a"]),
            vec![vec!["y".into(), 2.into()], vec!["x".into(), 1.into()]],
        )
        .unwrap();
        assert!(t1.same_bag(&t2).unwrap());
    }

    #[test]
    fn same_bag_respects_multiplicity() {
        let t1 = t(vec![vec![1.into(), "x".into()], vec![1.into(), "x".into()]]);
        let t2 = t(vec![vec![1.into(), "x".into()]]);
        assert!(!t1.same_bag(&t2).unwrap());
    }

    #[test]
    fn same_bag_differs_on_different_schemas() {
        let t1 = t(vec![]);
        let t2 = Table::empty(Schema::of(["a", "c"]));
        assert!(!t1.same_bag(&t2).unwrap());
    }

    #[test]
    fn rank_normalization_erases_offsets_but_keeps_structure() {
        // Same key structure under different surrogate numbering:
        // {10, 10, 30} vs {7, 7, 9} both rank to {0, 0, 1}.
        let t1 = t(vec![
            vec![10.into(), "x".into()],
            vec![10.into(), "y".into()],
            vec![30.into(), "z".into()],
        ]);
        let t2 = t(vec![
            vec![7.into(), "x".into()],
            vec![7.into(), "y".into()],
            vec![9.into(), "z".into()],
        ]);
        let cols = [Attr::new("a")];
        assert!(t1
            .rank_normalized(&cols)
            .same_bag(&t2.rank_normalized(&cols))
            .unwrap());
        // Different structure (distinct keys collapse) still differs.
        let t3 = t(vec![
            vec![7.into(), "x".into()],
            vec![8.into(), "y".into()],
            vec![9.into(), "z".into()],
        ]);
        assert!(!t1
            .rank_normalized(&cols)
            .same_bag(&t3.rank_normalized(&cols))
            .unwrap());
    }

    #[test]
    fn rank_normalization_preserves_nulls_and_skips_missing_columns() {
        let table = t(vec![
            vec![Scalar::Null, "x".into()],
            vec![5.into(), "y".into()],
        ]);
        let norm = table.rank_normalized(&[Attr::new("a"), Attr::new("zzz")]);
        assert_eq!(norm.rows()[0][0], Scalar::Null);
        assert_eq!(norm.rows()[1][0], Scalar::Int(0));
        // Untouched column intact.
        assert_eq!(norm.rows()[0][1], Scalar::from("x"));
    }

    #[test]
    fn row_cmp_totality_with_nulls_and_nan() {
        let r1: Row = vec![Scalar::Null, Scalar::Float(f64::NAN)];
        let r2: Row = vec![Scalar::Null, Scalar::Float(f64::NAN)];
        assert_eq!(row_cmp(&r1, &r2), Ordering::Equal);
    }
}
