//! Record batches: the unit of columnar execution.

use crate::column::Column;
use crate::error::DataError;
use crate::schema::Schema;
use crate::types::Value;
use crate::Result;
use std::sync::Arc;

/// A horizontal slice of a table: a shared schema plus one column per field.
///
/// Batches are what flows between physical operators; the executor splits
/// tables into batches ("morsels") so scans and model scoring can be
/// parallelized — the effect behind the paper's observation that SQL Server
/// auto-parallelizes scan + PREDICT (Fig. 3, observation iii).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    schema: Arc<Schema>,
    /// Columns are shared: projections, renames and scans pass columns
    /// through by reference count instead of deep-copying (string columns
    /// in particular would otherwise dominate plan execution).
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl RecordBatch {
    /// Build a batch from owned columns, validating count/types/lengths.
    pub fn try_new(schema: Arc<Schema>, columns: Vec<Column>) -> Result<Self> {
        RecordBatch::try_new_shared(schema, columns.into_iter().map(Arc::new).collect())
    }

    /// Build a batch from shared columns (zero-copy passthrough).
    pub fn try_new_shared(schema: Arc<Schema>, columns: Vec<Arc<Column>>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(DataError::SchemaMismatch(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (field, col) in schema.fields().iter().zip(&columns) {
            if field.dtype != col.data_type() {
                return Err(DataError::TypeMismatch {
                    expected: field.dtype.to_string(),
                    actual: col.data_type().to_string(),
                });
            }
            if col.len() != rows {
                return Err(DataError::LengthMismatch {
                    expected: rows,
                    actual: col.len(),
                });
            }
        }
        Ok(RecordBatch {
            schema,
            columns,
            rows,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(Column::empty(f.dtype)))
            .collect();
        RecordBatch {
            schema,
            columns,
            rows: 0,
        }
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// All columns (shared handles).
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Column at `idx`.
    pub fn column(&self, idx: usize) -> Result<&Column> {
        self.columns
            .get(idx)
            .map(|c| c.as_ref())
            .ok_or(DataError::OutOfBounds {
                index: idx,
                len: self.columns.len(),
            })
    }

    /// Shared handle to the column at `idx` (for zero-copy passthrough).
    pub fn column_arc(&self, idx: usize) -> Result<&Arc<Column>> {
        self.columns.get(idx).ok_or(DataError::OutOfBounds {
            index: idx,
            len: self.columns.len(),
        })
    }

    /// Column by (possibly unqualified) name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        let idx = self.schema.index_of(name)?;
        self.column(idx)
    }

    /// Read one row as values (test/debug convenience; not a hot path).
    pub fn row(&self, idx: usize) -> Result<Vec<Value>> {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<RecordBatch> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.filter(mask))
            .collect::<Result<Vec<_>>>()?;
        RecordBatch::try_new(self.schema.clone(), columns)
    }

    /// Gather rows by index. Indices that are exactly `0..num_rows()`
    /// return this batch with its columns shared, not copied.
    pub fn take(&self, indices: &[usize]) -> Result<RecordBatch> {
        if indices.len() == self.rows && indices.iter().enumerate().all(|(i, &row)| i == row) {
            return Ok(self.clone());
        }
        let columns = self
            .columns
            .iter()
            .map(|c| c.take(indices))
            .collect::<Result<Vec<_>>>()?;
        RecordBatch::try_new(self.schema.clone(), columns)
    }

    /// Copy rows `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> Result<RecordBatch> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.slice(start, end))
            .collect::<Result<Vec<_>>>()?;
        RecordBatch::try_new(self.schema.clone(), columns)
    }

    /// Project to the given column indices (with the projected schema).
    /// Columns are shared, not copied.
    pub fn project(&self, indices: &[usize]) -> Result<RecordBatch> {
        let schema = Arc::new(self.schema.project(indices)?);
        let columns = indices
            .iter()
            .map(|&i| self.column_arc(i).cloned())
            .collect::<Result<Vec<_>>>()?;
        RecordBatch::try_new_shared(schema, columns)
    }

    /// Vertically concatenate batches sharing a schema.
    pub fn concat(batches: &[RecordBatch]) -> Result<RecordBatch> {
        let first = batches
            .first()
            .ok_or_else(|| DataError::Internal("cannot concat zero batches".into()))?;
        if batches.len() == 1 {
            return Ok(first.clone());
        }
        let schema = first.schema.clone();
        let mut columns: Vec<Column> = first.columns.iter().map(|c| c.as_ref().clone()).collect();
        for batch in &batches[1..] {
            if batch.schema.fields() != schema.fields() {
                return Err(DataError::SchemaMismatch(
                    "concat requires identical schemas".into(),
                ));
            }
            for (acc, col) in columns.iter_mut().zip(&batch.columns) {
                acc.extend_from(col)?;
            }
        }
        RecordBatch::try_new(schema, columns)
    }

    /// Extract the named numeric columns as a row-major `f64` feature
    /// matrix (`rows × features.len()`), the layout the ML runtime expects.
    pub fn to_feature_matrix(&self, features: &[String]) -> Result<Vec<f64>> {
        let cols: Vec<&Column> = features
            .iter()
            .map(|f| self.column_by_name(f))
            .collect::<Result<Vec<_>>>()?;
        let per_col: Vec<Vec<f64>> = cols.iter().map(|c| c.to_f64_vec()).collect::<Result<_>>()?;
        let n = self.rows;
        let k = per_col.len();
        let mut out = vec![0.0f64; n * k];
        for (j, col) in per_col.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                out[i * k + j] = v;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::DataType;

    fn sample() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("bp", DataType::Float64),
        ])
        .into_shared();
        RecordBatch::try_new(
            schema,
            vec![
                Column::from(vec![1i64, 2, 3]),
                Column::from(vec![120.0, 150.0, 135.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let schema = Schema::from_pairs(&[("a", DataType::Int64)]).into_shared();
        // Wrong column count.
        assert!(RecordBatch::try_new(schema.clone(), vec![]).is_err());
        // Wrong type.
        assert!(RecordBatch::try_new(schema.clone(), vec![Column::from(vec![1.0])]).is_err());
        // OK.
        let b = RecordBatch::try_new(schema, vec![Column::from(vec![1i64])]).unwrap();
        assert_eq!(b.num_rows(), 1);
    }

    #[test]
    fn length_mismatch_rejected() {
        let schema =
            Schema::from_pairs(&[("a", DataType::Int64), ("b", DataType::Int64)]).into_shared();
        let err = RecordBatch::try_new(
            schema,
            vec![Column::from(vec![1i64, 2]), Column::from(vec![1i64])],
        );
        assert!(matches!(err, Err(DataError::LengthMismatch { .. })));
    }

    #[test]
    fn filter_take_slice() {
        let b = sample();
        let f = b.filter(&[true, false, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.column(0).unwrap().i64_values().unwrap(), &[1, 3]);

        let t = b.take(&[2, 2]).unwrap();
        assert_eq!(t.column(1).unwrap().f64_values().unwrap(), &[135.0, 135.0]);

        let s = b.slice(1, 2).unwrap();
        assert_eq!(s.num_rows(), 1);
        assert_eq!(s.row(0).unwrap()[0], Value::Int64(2));
    }

    #[test]
    fn take_shares_columns_only_for_rows_in_order() {
        let b = sample().slice(0, 2).unwrap();
        let shared = |t: &RecordBatch| -> Vec<bool> {
            let pairs = t.columns().iter().zip(b.columns());
            pairs.map(|(x, y)| Arc::ptr_eq(x, y)).collect()
        };
        let all = b.take(&[0, 1]).unwrap();
        assert_eq!(shared(&all), [true, true]);
        assert_eq!(all, b);
        // A permutation, a duplicate and a prefix are gathered.
        let swapped = b.take(&[1, 0]).unwrap();
        assert_eq!(shared(&swapped), [false, false]);
        assert_eq!(swapped.column(0).unwrap().i64_values().unwrap(), &[2, 1]);
        assert_eq!(shared(&b.take(&[0, 0]).unwrap()), [false, false]);
        assert_eq!(shared(&b.take(&[0]).unwrap()), [false, false]);
    }

    #[test]
    fn project_reorders_schema_and_data() {
        let b = sample();
        let p = b.project(&[1]).unwrap();
        assert_eq!(p.schema().names(), vec!["bp"]);
        assert_eq!(p.num_columns(), 1);
    }

    #[test]
    fn concat_batches() {
        let b = sample();
        let all = RecordBatch::concat(&[b.clone(), b.clone()]).unwrap();
        assert_eq!(all.num_rows(), 6);
        assert!(RecordBatch::concat(&[]).is_err());
    }

    #[test]
    fn feature_matrix_is_row_major() {
        let b = sample();
        let m = b
            .to_feature_matrix(&["id".to_string(), "bp".to_string()])
            .unwrap();
        assert_eq!(m, vec![1.0, 120.0, 2.0, 150.0, 3.0, 135.0]);
    }

    #[test]
    fn empty_batch() {
        let schema = Schema::from_pairs(&[("a", DataType::Utf8)]).into_shared();
        let b = RecordBatch::empty(schema);
        assert_eq!(b.num_rows(), 0);
        assert_eq!(b.num_columns(), 1);
    }
}
