//! Binary operators: bag union, equi-join, bag difference and
//! intersection.

use std::collections::HashMap;

use etlopt_core::semantics::BinaryOp;

use crate::error::{EngineError, Result};
use crate::ops::key::RowKey;
use crate::table::Table;

/// Execute a binary operator. Union/difference/intersection require
/// set-equal schemata (the right side is re-ordered to the left's column
/// order); join concatenates left columns with the right's non-shared
/// columns.
pub fn exec_binary(op: &BinaryOp, left: &Table, right: &Table) -> Result<Table> {
    match op {
        BinaryOp::Union => union(left, right),
        BinaryOp::Join(on) => join(on, left, right),
        BinaryOp::Difference => difference(left, right),
        BinaryOp::Intersection => intersection(left, right),
    }
}

fn aligned(left: &Table, right: &Table) -> Result<Table> {
    if !left.schema().same_attrs(right.schema()) {
        return Err(EngineError::Core(etlopt_core::error::CoreError::Schema(
            format!(
                "binary operator requires identical attribute sets: {} vs {}",
                left.schema(),
                right.schema()
            ),
        )));
    }
    right.reordered(left.schema())
}

fn union(left: &Table, right: &Table) -> Result<Table> {
    let right = aligned(left, right)?;
    let mut out = left.clone();
    for row in right.rows() {
        out.push(row.clone())?;
    }
    Ok(out)
}

fn join(on: &[etlopt_core::schema::Attr], left: &Table, right: &Table) -> Result<Table> {
    let lcols: Vec<usize> = on.iter().map(|a| left.col(a)).collect::<Result<_>>()?;
    let rcols: Vec<usize> = on.iter().map(|a| right.col(a)).collect::<Result<_>>()?;
    // Output: all left attrs, then right attrs not already present.
    let out_schema = left.schema().union(right.schema());
    let extra: Vec<usize> = right
        .schema()
        .iter()
        .enumerate()
        .filter(|(_, a)| !left.schema().contains(a))
        .map(|(i, _)| i)
        .collect();

    // Hash the right side by key.
    let mut index: HashMap<RowKey, Vec<usize>> = HashMap::new();
    for (i, row) in right.rows().iter().enumerate() {
        // NULL keys never join.
        if rcols.iter().any(|&c| row[c].is_null()) {
            continue;
        }
        index.entry(RowKey::cols(row, &rcols)).or_default().push(i);
    }

    let mut out = Table::empty(out_schema);
    for lrow in left.rows() {
        if lcols.iter().any(|&c| lrow[c].is_null()) {
            continue;
        }
        if let Some(matches) = index.get(&RowKey::cols(lrow, &lcols)) {
            for &ri in matches {
                let rrow = &right.rows()[ri];
                let mut row = lrow.clone();
                row.extend(extra.iter().map(|&c| rrow[c].clone()));
                out.push(row)?;
            }
        }
    }
    Ok(out)
}

/// Bag difference: each right occurrence cancels one left occurrence.
fn difference(left: &Table, right: &Table) -> Result<Table> {
    let right = aligned(left, right)?;
    let mut counts: HashMap<RowKey, usize> = HashMap::new();
    for row in right.rows() {
        *counts.entry(RowKey::row(row)).or_insert(0) += 1;
    }
    let mut out = Table::empty(left.schema().clone());
    for row in left.rows() {
        match counts.get_mut(&RowKey::row(row)) {
            Some(c) if *c > 0 => *c -= 1,
            _ => out.push(row.clone())?,
        }
    }
    Ok(out)
}

/// Bag intersection: min of the multiplicities.
fn intersection(left: &Table, right: &Table) -> Result<Table> {
    let right = aligned(left, right)?;
    let mut counts: HashMap<RowKey, usize> = HashMap::new();
    for row in right.rows() {
        *counts.entry(RowKey::row(row)).or_insert(0) += 1;
    }
    let mut out = Table::empty(left.schema().clone());
    for row in left.rows() {
        if let Some(c) = counts.get_mut(&RowKey::row(row)) {
            if *c > 0 {
                *c -= 1;
                out.push(row.clone())?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlopt_core::scalar::Scalar;
    use etlopt_core::schema::{Attr, Schema};

    fn t(attrs: [&str; 2], rows: Vec<Vec<Scalar>>) -> Table {
        Table::from_rows(Schema::of(attrs), rows).unwrap()
    }

    #[test]
    fn union_is_a_bag() {
        let l = t(["a", "b"], vec![vec![1.into(), 2.into()]]);
        let r = t(["b", "a"], vec![vec![2.into(), 1.into()]]);
        let u = union(&l, &r).unwrap();
        assert_eq!(u.len(), 2);
        // Right side was re-ordered into the left layout.
        assert_eq!(u.rows()[1], vec![Scalar::Int(1), Scalar::Int(2)]);
    }

    #[test]
    fn union_schema_mismatch_errors() {
        let l = t(["a", "b"], vec![]);
        let r = t(["a", "c"], vec![]);
        assert!(union(&l, &r).is_err());
    }

    #[test]
    fn join_matches_keys() {
        let l = t(
            ["k", "x"],
            vec![vec![1.into(), "a".into()], vec![2.into(), "b".into()]],
        );
        let r = t(
            ["k", "y"],
            vec![
                vec![1.into(), "p".into()],
                vec![1.into(), "q".into()],
                vec![3.into(), "z".into()],
            ],
        );
        let j = join(&[Attr::new("k")], &l, &r).unwrap();
        assert_eq!(j.schema(), &Schema::of(["k", "x", "y"]));
        assert_eq!(j.len(), 2); // key 1 matches twice, key 2 and 3 not at all
    }

    #[test]
    fn null_keys_never_join() {
        let l = t(["k", "x"], vec![vec![Scalar::Null, "a".into()]]);
        let r = t(["k", "y"], vec![vec![Scalar::Null, "p".into()]]);
        assert_eq!(join(&[Attr::new("k")], &l, &r).unwrap().len(), 0);
    }

    #[test]
    fn bag_difference_cancels_one_per_occurrence() {
        let l = t(
            ["a", "b"],
            vec![
                vec![1.into(), 1.into()],
                vec![1.into(), 1.into()],
                vec![2.into(), 2.into()],
            ],
        );
        let r = t(["a", "b"], vec![vec![1.into(), 1.into()]]);
        let d = difference(&l, &r).unwrap();
        assert_eq!(d.len(), 2); // one (1,1) survives
    }

    #[test]
    fn bag_intersection_takes_min_counts() {
        let l = t(
            ["a", "b"],
            vec![
                vec![1.into(), 1.into()],
                vec![1.into(), 1.into()],
                vec![2.into(), 2.into()],
            ],
        );
        let r = t(
            ["a", "b"],
            vec![vec![1.into(), 1.into()], vec![3.into(), 3.into()]],
        );
        let i = intersection(&l, &r).unwrap();
        assert_eq!(i.len(), 1);
        assert_eq!(i.rows()[0][0], Scalar::Int(1));
    }

    #[test]
    fn dispatch_covers_all_ops() {
        let l = t(["a", "b"], vec![vec![1.into(), 1.into()]]);
        let r = t(["a", "b"], vec![vec![1.into(), 1.into()]]);
        assert_eq!(exec_binary(&BinaryOp::Union, &l, &r).unwrap().len(), 2);
        assert_eq!(exec_binary(&BinaryOp::Difference, &l, &r).unwrap().len(), 0);
        assert_eq!(
            exec_binary(&BinaryOp::Intersection, &l, &r).unwrap().len(),
            1
        );
        assert_eq!(
            exec_binary(&BinaryOp::Join(vec![Attr::new("a")]), &l, &r)
                .unwrap()
                .len(),
            1
        );
    }
}
