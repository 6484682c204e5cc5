//! Keyed operators: primary-key check, duplicate elimination, group-by
//! aggregation. Keys follow the one definition of key equality in
//! [`crate::ops::key`].

use std::collections::{HashMap, HashSet};

use etlopt_core::scalar::Scalar;
use etlopt_core::schema::{Attr, Schema};
use etlopt_core::semantics::{AggFunc, Aggregation};

use crate::error::{EngineError, Result};
use crate::ops::key::RowKey;
use crate::table::{col_of, Row};

/// Keep-first filtering with a seen-set that persists across batches:
/// `PK(key)` keeps the first row per key, `DD()` the first of each whole
/// row.
pub(crate) struct KeepFirst {
    /// Key columns, or `None` for whole-row dedup.
    cols: Option<Vec<usize>>,
    seen: HashSet<RowKey>,
}

impl KeepFirst {
    /// Keep-first on `cols` (`None`: the whole row).
    pub(crate) fn on(cols: Option<Vec<usize>>) -> KeepFirst {
        KeepFirst {
            cols,
            seen: HashSet::new(),
        }
    }

    /// `PK(key)` over `input`.
    pub(crate) fn pk(key: &[Attr], input: &Schema) -> Result<KeepFirst> {
        let cols = key
            .iter()
            .map(|a| col_of(input, a))
            .collect::<Result<_>>()?;
        Ok(KeepFirst::on(Some(cols)))
    }

    /// `DD()`.
    pub(crate) fn dedup() -> KeepFirst {
        KeepFirst::on(None)
    }

    /// Is `row` the first of its key? Records it either way.
    pub(crate) fn admit(&mut self, row: &Row) -> bool {
        self.seen.insert(RowKey::on(row, self.cols.as_deref()))
    }
}

/// Accumulator for one aggregate column.
#[derive(Debug, Clone)]
struct Acc {
    func: AggFunc,
    sum: f64,
    count: u64,
    min: Option<Scalar>,
    max: Option<Scalar>,
}

impl Acc {
    fn new(func: AggFunc) -> Self {
        Acc {
            func,
            sum: 0.0,
            count: 0,
            min: None,
            max: None,
        }
    }

    fn feed(&mut self, v: &Scalar) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match self.func {
            AggFunc::Sum | AggFunc::Avg => {
                self.sum += v.as_f64().ok_or_else(|| {
                    EngineError::Type(format!("cannot aggregate non-numeric value {v}"))
                })?;
            }
            AggFunc::Count => {}
            AggFunc::Min => {
                let replace = match &self.min {
                    None => true,
                    Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Less,
                };
                if replace {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                let replace = match &self.max {
                    None => true,
                    Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Greater,
                };
                if replace {
                    self.max = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Scalar {
        match self.func {
            AggFunc::Sum => {
                if self.count == 0 {
                    Scalar::Null
                } else {
                    Scalar::Float(self.sum)
                }
            }
            AggFunc::Count => Scalar::Int(self.count as i64),
            AggFunc::Avg => {
                if self.count == 0 {
                    Scalar::Null
                } else {
                    Scalar::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Scalar::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Scalar::Null),
        }
    }
}

/// Incremental state for `γ(group_by; aggregates)`: groups accumulate
/// across [`AggState::feed`] calls (the streaming runtime feeds one batch
/// at a time), and [`AggState::finish`] emits groupers then aggregate
/// outputs, groups in first-appearance order (deterministic).
pub(crate) struct AggState {
    agg: Aggregation,
    group_cols: Vec<usize>,
    agg_cols: Vec<usize>,
    /// Group key → position in `groups`.
    index: HashMap<RowKey, usize>,
    /// Grouper values and accumulators, in first-appearance order.
    groups: Vec<(Row, Vec<Acc>)>,
}

impl AggState {
    /// Resolve the grouping and aggregate columns against the input schema.
    pub(crate) fn new(agg: &Aggregation, input_schema: &Schema) -> Result<Self> {
        let group_cols: Vec<usize> = agg
            .group_by
            .iter()
            .map(|a| col_of(input_schema, a))
            .collect::<Result<_>>()?;
        let agg_cols: Vec<usize> = agg
            .aggregates
            .iter()
            .map(|s| col_of(input_schema, &s.input))
            .collect::<Result<_>>()?;
        Ok(AggState {
            agg: agg.clone(),
            group_cols,
            agg_cols,
            index: HashMap::new(),
            groups: Vec::new(),
        })
    }

    /// The output schema: groupers then aggregate outputs.
    pub(crate) fn output_schema(&self) -> Schema {
        let mut out: Schema = self.agg.group_by.iter().cloned().collect();
        for s in &self.agg.aggregates {
            out.push(s.output.clone());
        }
        out
    }

    /// Fold one row into its group; `true` when the row opened a new
    /// group.
    pub(crate) fn feed_row(&mut self, row: &Row) -> Result<bool> {
        let next = self.groups.len();
        let g = *self
            .index
            .entry(RowKey::cols(row, &self.group_cols))
            .or_insert(next);
        let opened = g == next;
        if opened {
            let key_row: Row = self.group_cols.iter().map(|&i| row[i].clone()).collect();
            let accs = self
                .agg
                .aggregates
                .iter()
                .map(|s| Acc::new(s.func))
                .collect();
            self.groups.push((key_row, accs));
        }
        for (acc, &col) in self.groups[g].1.iter_mut().zip(self.agg_cols.iter()) {
            acc.feed(&row[col])?;
        }
        Ok(opened)
    }

    /// Fold a batch of rows.
    pub(crate) fn feed(&mut self, rows: &[Row]) -> Result<()> {
        for row in rows {
            self.feed_row(row)?;
        }
        Ok(())
    }

    /// Emit one row per group (groupers then aggregate outputs), in
    /// first-appearance order, leaving the state empty.
    pub(crate) fn finish(&mut self) -> Result<Vec<Row>> {
        self.index.clear();
        Ok(std::mem::take(&mut self.groups)
            .into_iter()
            .map(|(mut row, accs)| {
                row.extend(accs.iter().map(Acc::finish));
                row
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use etlopt_core::semantics::AggSpec;

    fn keep_first(mut k: KeepFirst, t: &Table) -> Result<Table> {
        let rows = t.rows().iter().filter(|r| k.admit(r)).cloned().collect();
        Table::from_rows(t.schema().clone(), rows)
    }

    fn pk_check(key: &[Attr], t: &Table) -> Result<Table> {
        keep_first(KeepFirst::pk(key, t.schema())?, t)
    }

    fn dedup(t: &Table) -> Result<Table> {
        keep_first(KeepFirst::dedup(), t)
    }

    fn aggregate(agg: &Aggregation, t: &Table) -> Result<Table> {
        let mut state = AggState::new(agg, t.schema())?;
        state.feed(t.rows())?;
        Table::from_rows(state.output_schema(), state.finish()?)
    }

    fn sample() -> Table {
        Table::from_rows(
            Schema::of(["k", "v"]),
            vec![
                vec![1.into(), 10.into()],
                vec![2.into(), 20.into()],
                vec![1.into(), 30.into()],
                vec![1.into(), Scalar::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn pk_check_keeps_first_per_key() {
        let out = pk_check(&[Attr::new("k")], &sample()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0][1], Scalar::Int(10));
    }

    #[test]
    fn dedup_whole_rows() {
        let t = Table::from_rows(
            Schema::of(["a"]),
            vec![vec![1.into()], vec![1.into()], vec![2.into()]],
        )
        .unwrap();
        assert_eq!(dedup(&t).unwrap().len(), 2);
    }

    #[test]
    fn sum_ignores_nulls() {
        let agg = Aggregation::sum(["k"], "v", "total");
        let out = aggregate(&agg, &sample()).unwrap();
        assert_eq!(out.schema(), &Schema::of(["k", "total"]));
        assert_eq!(out.len(), 2);
        // Group k=1: 10 + 30 (NULL ignored).
        assert_eq!(out.rows()[0], vec![Scalar::Int(1), Scalar::Float(40.0)]);
        assert_eq!(out.rows()[1], vec![Scalar::Int(2), Scalar::Float(20.0)]);
    }

    #[test]
    fn count_counts_non_nulls() {
        let agg = Aggregation::new(
            ["k"],
            vec![AggSpec {
                func: AggFunc::Count,
                input: "v".into(),
                output: "n".into(),
            }],
        );
        let out = aggregate(&agg, &sample()).unwrap();
        assert_eq!(out.rows()[0], vec![Scalar::Int(1), Scalar::Int(2)]);
    }

    #[test]
    fn min_max_avg() {
        let agg = Aggregation::new(
            ["k"],
            vec![
                AggSpec {
                    func: AggFunc::Min,
                    input: "v".into(),
                    output: "lo".into(),
                },
                AggSpec {
                    func: AggFunc::Max,
                    input: "v".into(),
                    output: "hi".into(),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    input: "v".into(),
                    output: "mean".into(),
                },
            ],
        );
        let out = aggregate(&agg, &sample()).unwrap();
        assert_eq!(
            out.rows()[0],
            vec![
                Scalar::Int(1),
                Scalar::Int(10),
                Scalar::Int(30),
                Scalar::Float(20.0)
            ]
        );
    }

    #[test]
    fn empty_group_aggregates_to_null() {
        let t =
            Table::from_rows(Schema::of(["k", "v"]), vec![vec![1.into(), Scalar::Null]]).unwrap();
        let agg = Aggregation::sum(["k"], "v", "s");
        let out = aggregate(&agg, &t).unwrap();
        assert_eq!(out.rows()[0][1], Scalar::Null);
    }

    #[test]
    fn sum_of_strings_is_a_type_error() {
        let t =
            Table::from_rows(Schema::of(["k", "v"]), vec![vec![1.into(), "oops".into()]]).unwrap();
        let agg = Aggregation::sum(["k"], "v", "s");
        assert!(matches!(
            aggregate(&agg, &t).unwrap_err(),
            EngineError::Type(_)
        ));
    }

    #[test]
    fn aggregate_reusing_input_name() {
        // SUM(v) → v, the paper's γ-SUM shape.
        let agg = Aggregation::sum(["k"], "v", "v");
        let out = aggregate(&agg, &sample()).unwrap();
        assert_eq!(out.schema(), &Schema::of(["k", "v"]));
    }
}
