//! Batch iterators: the pull-based operator pipeline of the streaming
//! backend.
//!
//! Every operator is a [`BatchIter`]: pulling `next_batch` pulls input
//! batches from its child, transforms them, and counts the same
//! per-activity statistics the materializing executor counts — so both
//! backends report bit-identical [`crate::executor::ExecStats`]. Unary
//! links run the materializing executor's own [`ops::Stage`] one batch at
//! a time, carrying keyed state (PK, dedup, aggregation) across batches;
//! the binary ops drain a side through the buffer pool where the
//! materializing path would hold a whole table.
//!
//! `counters.batches` counts batches *born* into a pipeline: source-table
//! scans, buffer re-reads, cached-table scans, and aggregate output
//! emissions. Transformed batches flowing through row-wise operators are
//! not re-counted.
//!
//! This module is the 1-worker pull pipeline; at
//! `StreamConfig::parallelism > 1` execution moves to the push-based
//! pipelined segments of [`super::partition`] instead, bit-identical to
//! this backend.

use std::collections::HashMap;
use std::sync::Arc;

use etlopt_core::scalar::Scalar;
use etlopt_core::schema::Schema;
use etlopt_core::semantics::{BinaryOp, UnaryOp};

use crate::error::{EngineError, Result};
use crate::ops::key::RowKey;
use crate::ops::{self, ExecCtx, Stage};
use crate::pool::BufferId;
use crate::table::{col_of, Row, Table};

use super::Runtime;

/// One streaming operator: a pull-based producer of row batches.
pub(crate) trait BatchIter {
    /// The schema of every batch this iterator emits.
    fn schema(&self) -> &Schema;
    /// Produce the next batch, or `None` once exhausted.
    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>>;
}

/// A boxed operator in a pipeline.
pub(crate) type BoxIter = Box<dyn BatchIter>;

fn internal(reason: impl Into<String>) -> EngineError {
    EngineError::FunctionFailed {
        function: "exec::stream".into(),
        reason: reason.into(),
    }
}

/// Scan over an owned table (source recordsets), emitting
/// `batch_rows`-sized chunks.
pub(crate) struct TableScan {
    schema: Schema,
    rows: std::vec::IntoIter<Row>,
}

impl TableScan {
    pub(crate) fn new(table: Table) -> TableScan {
        TableScan {
            schema: table.schema().clone(),
            rows: table.into_rows().into_iter(),
        }
    }
}

impl BatchIter for TableScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        let batch: Vec<Row> = self.rows.by_ref().take(rt.batch_rows).collect();
        if batch.is_empty() {
            return Ok(None);
        }
        rt.counters.batches += 1;
        Ok(Some(batch))
    }
}

/// Scan over a cached table shared via `Arc` (cache hits).
pub(crate) struct CachedScan {
    table: Arc<Table>,
    schema: Schema,
    pos: usize,
}

impl CachedScan {
    pub(crate) fn new(table: Arc<Table>) -> CachedScan {
        CachedScan {
            schema: table.schema().clone(),
            table,
            pos: 0,
        }
    }
}

impl BatchIter for CachedScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        let rows = self.table.rows();
        if self.pos >= rows.len() {
            return Ok(None);
        }
        let end = (self.pos + rt.batch_rows).min(rows.len());
        let batch = rows[self.pos..end].to_vec();
        self.pos = end;
        rt.counters.batches += 1;
        Ok(Some(batch))
    }
}

/// Re-read a pool buffer page-at-a-time (each appended batch is one page,
/// so pages come back in the batch granularity they were drained at).
pub(crate) struct BufferScan {
    buf: BufferId,
    schema: Schema,
    page: usize,
}

impl BufferScan {
    pub(crate) fn new(buf: BufferId, schema: Schema) -> BufferScan {
        BufferScan {
            buf,
            schema,
            page: 0,
        }
    }
}

impl BatchIter for BufferScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        if self.page >= rt.pool.pages(self.buf) {
            return Ok(None);
        }
        let rows = rt.pool.page(self.buf, self.page)?;
        self.page += 1;
        rt.counters.batches += 1;
        Ok(Some(rows.as_ref().clone()))
    }
}

/// Column permutation (recordset nodes present their provider's output
/// under the recordset's declared schema).
struct Reorder {
    inner: BoxIter,
    perm: Vec<usize>,
    schema: Schema,
}

impl BatchIter for Reorder {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        let Some(batch) = self.inner.next_batch(rt)? else {
            return Ok(None);
        };
        Ok(Some(
            batch
                .into_iter()
                .map(|mut r| {
                    self.perm
                        .iter()
                        .map(|&i| std::mem::replace(&mut r[i], Scalar::Null))
                        .collect()
                })
                .collect(),
        ))
    }
}

/// Wrap `inner` so its batches come out in `target` column order; a no-op
/// when the schema already matches.
pub(crate) fn reorder(inner: BoxIter, target: &Schema) -> Result<BoxIter> {
    if inner.schema() == target {
        return Ok(inner);
    }
    let perm = target
        .iter()
        .map(|a| col_of(inner.schema(), a))
        .collect::<Result<_>>()?;
    Ok(Box::new(Reorder {
        inner,
        perm,
        schema: target.clone(),
    }))
}

/// One unary link: the operator's [`Stage`] applied batch by batch,
/// counting stats under the owning activity's key. A blocking stage
/// (aggregation) drains its whole input on the first pull, then emits
/// its groups in `batch_rows`-sized batches.
struct UnaryIter {
    inner: BoxIter,
    stage: Stage,
    /// A blocking stage's output, once its input is drained.
    pending: Option<std::vec::IntoIter<Row>>,
    key: String,
    counts_out: bool,
    schema: Schema,
}

impl BatchIter for UnaryIter {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        let out = if self.stage.is_blocking() {
            if self.pending.is_none() {
                while let Some(batch) = self.inner.next_batch(rt)? {
                    rt.add_processed(&self.key, batch.len() as u64);
                    self.stage.push(batch, &rt.ctx)?;
                }
                self.pending = Some(self.stage.finish()?.into_iter());
            }
            let Some(it) = self.pending.as_mut() else {
                return Ok(None);
            };
            let batch: Vec<Row> = it.by_ref().take(rt.batch_rows).collect();
            if batch.is_empty() {
                return Ok(None);
            }
            rt.counters.batches += 1;
            batch
        } else {
            let Some(batch) = self.inner.next_batch(rt)? else {
                return Ok(None);
            };
            rt.add_processed(&self.key, batch.len() as u64);
            self.stage.push(batch, &rt.ctx)?
        };
        if self.counts_out {
            rt.add_out(&self.key, out.len() as u64);
        }
        Ok(Some(out))
    }
}

/// Counts `rows_out` only — stands in for an empty merged chain, whose
/// materializing counterpart emits its input unchanged but still records
/// the output cardinality.
struct Tally {
    inner: BoxIter,
    key: String,
}

impl BatchIter for Tally {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        let Some(batch) = self.inner.next_batch(rt)? else {
            return Ok(None);
        };
        rt.add_out(&self.key, batch.len() as u64);
        Ok(Some(batch))
    }
}

/// Build a pipeline of unary links under one activity key: every link
/// counts `rows_processed` (matching how `ops::exec_chain` prices merged
/// chains per link), only the last counts `rows_out`.
pub(crate) fn unary_pipeline(
    chain: &[UnaryOp],
    input: BoxIter,
    key: &str,
    ctx: &ExecCtx<'_>,
) -> Result<BoxIter> {
    if chain.is_empty() {
        return Ok(Box::new(Tally {
            inner: input,
            key: key.to_owned(),
        }));
    }
    let mut cur = input;
    let last = chain.len() - 1;
    for (i, op) in chain.iter().enumerate() {
        let stage = Stage::bind(op, cur.schema(), ctx)?;
        cur = Box::new(UnaryIter {
            inner: cur,
            schema: stage.schema(),
            stage,
            pending: None,
            key: key.to_owned(),
            counts_out: i == last,
        });
    }
    Ok(cur)
}

/// Bag union: every left batch, then every right batch (reordered to the
/// left layout at build time) — the exact row order of the materializing
/// union.
struct Union {
    left: BoxIter,
    right: BoxIter,
    left_done: bool,
    key: String,
    schema: Schema,
}

impl BatchIter for Union {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        if !self.left_done {
            if let Some(batch) = self.left.next_batch(rt)? {
                rt.add_processed(&self.key, batch.len() as u64);
                rt.add_out(&self.key, batch.len() as u64);
                return Ok(Some(batch));
            }
            self.left_done = true;
        }
        let Some(batch) = self.right.next_batch(rt)? else {
            return Ok(None);
        };
        rt.add_processed(&self.key, batch.len() as u64);
        rt.add_out(&self.key, batch.len() as u64);
        Ok(Some(batch))
    }
}

/// Streaming hash join: the build (right) side drains into a pool buffer
/// plus a key → row-index map on the first pull, then probe (left)
/// batches stream through, fetching matches back via random row access —
/// so the build side is frame-budget-bounded, not memory-resident.
struct HashJoin {
    left: BoxIter,
    right: Option<BoxIter>,
    built: Option<(BufferId, HashMap<RowKey, Vec<usize>>)>,
    lcols: Vec<usize>,
    rcols: Vec<usize>,
    /// Right columns appended to matched left rows.
    extra: Vec<usize>,
    key: String,
    schema: Schema,
}

impl BatchIter for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        if self.built.is_none() {
            let mut right = self
                .right
                .take()
                .ok_or_else(|| internal("join build side already consumed"))?;
            let buf = rt.pool.create(right.schema().clone());
            let mut index: HashMap<RowKey, Vec<usize>> = HashMap::new();
            let mut base = 0usize;
            while let Some(batch) = right.next_batch(rt)? {
                rt.add_processed(&self.key, batch.len() as u64);
                for (i, row) in batch.iter().enumerate() {
                    // NULL keys never join.
                    if self.rcols.iter().any(|&c| row[c].is_null()) {
                        continue;
                    }
                    index
                        .entry(RowKey::cols(row, &self.rcols))
                        .or_default()
                        .push(base + i);
                }
                base += batch.len();
                rt.pool.append(buf, batch)?;
            }
            self.built = Some((buf, index));
        }
        let Some(lbatch) = self.left.next_batch(rt)? else {
            return Ok(None);
        };
        rt.add_processed(&self.key, lbatch.len() as u64);
        let (buf, index) = self
            .built
            .as_ref()
            .ok_or_else(|| internal("join probed before build"))?;
        let mut out = Vec::new();
        for lrow in &lbatch {
            if self.lcols.iter().any(|&c| lrow[c].is_null()) {
                continue;
            }
            if let Some(matches) = index.get(&RowKey::cols(lrow, &self.lcols)) {
                for &ri in matches {
                    let rrow = rt.pool.row(*buf, ri)?;
                    let mut row = lrow.clone();
                    row.extend(self.extra.iter().map(|&c| rrow[c].clone()));
                    out.push(row);
                }
            }
        }
        rt.add_out(&self.key, out.len() as u64);
        Ok(Some(out))
    }
}

/// Bag difference / intersection: the right side (reordered to the left
/// layout) drains into a multiplicity map on the first pull, then left
/// batches stream through cancelling against it.
struct DiffIntersect {
    left: BoxIter,
    right: Option<BoxIter>,
    counts: Option<HashMap<RowKey, usize>>,
    intersect: bool,
    key: String,
    schema: Schema,
}

impl BatchIter for DiffIntersect {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, rt: &mut Runtime<'_>) -> Result<Option<Vec<Row>>> {
        if self.counts.is_none() {
            let mut right = self
                .right
                .take()
                .ok_or_else(|| internal("diff/intersect right side already consumed"))?;
            let mut counts: HashMap<RowKey, usize> = HashMap::new();
            while let Some(batch) = right.next_batch(rt)? {
                rt.add_processed(&self.key, batch.len() as u64);
                for row in &batch {
                    *counts.entry(RowKey::row(row)).or_insert(0) += 1;
                }
            }
            self.counts = Some(counts);
        }
        let Some(batch) = self.left.next_batch(rt)? else {
            return Ok(None);
        };
        rt.add_processed(&self.key, batch.len() as u64);
        let counts = self
            .counts
            .as_mut()
            .ok_or_else(|| internal("diff/intersect streamed before build"))?;
        let mut out = Vec::new();
        for row in batch {
            let k = RowKey::row(&row);
            if self.intersect {
                if let Some(c) = counts.get_mut(&k) {
                    if *c > 0 {
                        *c -= 1;
                        out.push(row);
                    }
                }
            } else {
                match counts.get_mut(&k) {
                    Some(c) if *c > 0 => *c -= 1,
                    _ => out.push(row),
                }
            }
        }
        rt.add_out(&self.key, out.len() as u64);
        Ok(Some(out))
    }
}

/// Build the streaming counterpart of one binary activity. The operator is
/// probed with empty inputs first, so schema validation and output-schema
/// derivation go through the exact materializing code path.
pub(crate) fn binary_pipeline(
    op: &BinaryOp,
    left: BoxIter,
    right: BoxIter,
    key: &str,
) -> Result<BoxIter> {
    let lschema = left.schema().clone();
    let rschema = right.schema().clone();
    let schema = ops::exec_binary(
        op,
        &Table::empty(lschema.clone()),
        &Table::empty(rschema.clone()),
    )?
    .schema()
    .clone();
    match op {
        BinaryOp::Union => Ok(Box::new(Union {
            left,
            right: reorder(right, &lschema)?,
            left_done: false,
            key: key.to_owned(),
            schema,
        })),
        BinaryOp::Join(on) => {
            let lcols: Vec<usize> = on
                .iter()
                .map(|a| col_of(&lschema, a))
                .collect::<Result<_>>()?;
            let rcols: Vec<usize> = on
                .iter()
                .map(|a| col_of(&rschema, a))
                .collect::<Result<_>>()?;
            let extra: Vec<usize> = rschema
                .iter()
                .enumerate()
                .filter(|(_, a)| !lschema.contains(a))
                .map(|(i, _)| i)
                .collect();
            Ok(Box::new(HashJoin {
                left,
                right: Some(right),
                built: None,
                lcols,
                rcols,
                extra,
                key: key.to_owned(),
                schema,
            }))
        }
        BinaryOp::Difference | BinaryOp::Intersection => Ok(Box::new(DiffIntersect {
            left,
            right: Some(reorder(right, &lschema)?),
            counts: None,
            intersect: matches!(op, BinaryOp::Intersection),
            key: key.to_owned(),
            schema,
        })),
    }
}
