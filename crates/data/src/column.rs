//! Typed columns: the unit of columnar storage.

use crate::error::DataError;
use crate::types::{DataType, Value};
use crate::Result;

/// A dense, typed column of values.
///
/// Columns are append-only during construction and immutable during
/// execution (operators produce new columns). All execution-facing
/// accessors (`f64_values`, `i64_values`, ...) expose the raw backing
/// slice so hot loops stay monomorphic and allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Bool(Vec<bool>),
    Utf8(Vec<String>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int64 => Column::Int64(Vec::new()),
            DataType::Float64 => Column::Float64(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Utf8 => Column::Utf8(Vec::new()),
        }
    }

    /// Create an empty column with reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Int64 => Column::Int64(Vec::with_capacity(cap)),
            DataType::Float64 => Column::Float64(Vec::with_capacity(cap)),
            DataType::Bool => Column::Bool(Vec::with_capacity(cap)),
            DataType::Utf8 => Column::Utf8(Vec::with_capacity(cap)),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Utf8(v) => v.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Bool(_) => DataType::Bool,
            Column::Utf8(_) => DataType::Utf8,
        }
    }

    /// Read a single row as a [`Value`]. Bounds-checked.
    pub fn get(&self, idx: usize) -> Result<Value> {
        if idx >= self.len() {
            return Err(DataError::OutOfBounds {
                index: idx,
                len: self.len(),
            });
        }
        Ok(match self {
            Column::Int64(v) => Value::Int64(v[idx]),
            Column::Float64(v) => Value::Float64(v[idx]),
            Column::Bool(v) => Value::Bool(v[idx]),
            Column::Utf8(v) => Value::Utf8(v[idx].clone()),
        })
    }

    /// Append a value; errors if the type does not match the column type.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Column::Int64(v), Value::Int64(x)) => v.push(x),
            (Column::Float64(v), Value::Float64(x)) => v.push(x),
            (Column::Float64(v), Value::Int64(x)) => v.push(x as f64),
            (Column::Bool(v), Value::Bool(x)) => v.push(x),
            (Column::Utf8(v), Value::Utf8(x)) => v.push(x),
            (col, value) => {
                return Err(DataError::TypeMismatch {
                    expected: col.data_type().to_string(),
                    actual: value.data_type().to_string(),
                })
            }
        }
        Ok(())
    }

    /// Borrow the backing `f64` slice; errors for non-float columns.
    pub fn f64_values(&self) -> Result<&[f64]> {
        match self {
            Column::Float64(v) => Ok(v),
            other => Err(DataError::TypeMismatch {
                expected: "Float64".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrow the backing `i64` slice; errors for non-integer columns.
    pub fn i64_values(&self) -> Result<&[i64]> {
        match self {
            Column::Int64(v) => Ok(v),
            other => Err(DataError::TypeMismatch {
                expected: "Int64".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrow the backing `bool` slice; errors for non-bool columns.
    pub fn bool_values(&self) -> Result<&[bool]> {
        match self {
            Column::Bool(v) => Ok(v),
            other => Err(DataError::TypeMismatch {
                expected: "Bool".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Borrow the backing string slice; errors for non-string columns.
    pub fn utf8_values(&self) -> Result<&[String]> {
        match self {
            Column::Utf8(v) => Ok(v),
            other => Err(DataError::TypeMismatch {
                expected: "Utf8".into(),
                actual: other.data_type().to_string(),
            }),
        }
    }

    /// Materialize the column as `f64` feature values.
    ///
    /// Numeric columns cast elementwise; booleans become 0.0/1.0. This is
    /// the bridge into the ML/tensor side of the system. String columns
    /// error — they must be featurized (one-hot encoded) first.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>> {
        match self {
            Column::Float64(v) => Ok(v.clone()),
            Column::Int64(v) => Ok(v.iter().map(|&x| x as f64).collect()),
            Column::Bool(v) => Ok(v.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect()),
            Column::Utf8(_) => Err(DataError::TypeMismatch {
                expected: "numeric".into(),
                actual: "Utf8".into(),
            }),
        }
    }

    /// Keep only rows where `mask` is true. `mask.len()` must equal `len()`.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(DataError::LengthMismatch {
                expected: self.len(),
                actual: mask.len(),
            });
        }
        fn keep<T: Clone>(vals: &[T], mask: &[bool]) -> Vec<T> {
            vals.iter()
                .zip(mask)
                .filter(|(_, &m)| m)
                .map(|(v, _)| v.clone())
                .collect()
        }
        Ok(match self {
            Column::Int64(v) => Column::Int64(keep(v, mask)),
            Column::Float64(v) => Column::Float64(keep(v, mask)),
            Column::Bool(v) => Column::Bool(keep(v, mask)),
            Column::Utf8(v) => Column::Utf8(keep(v, mask)),
        })
    }

    /// Gather rows by index (used by joins and sorts). Bounds-checked.
    pub fn take(&self, indices: &[usize]) -> Result<Column> {
        let len = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= len) {
            return Err(DataError::OutOfBounds { index: bad, len });
        }
        fn gather<T: Clone>(vals: &[T], indices: &[usize]) -> Vec<T> {
            indices.iter().map(|&i| vals[i].clone()).collect()
        }
        Ok(match self {
            Column::Int64(v) => Column::Int64(gather(v, indices)),
            Column::Float64(v) => Column::Float64(gather(v, indices)),
            Column::Bool(v) => Column::Bool(gather(v, indices)),
            Column::Utf8(v) => Column::Utf8(gather(v, indices)),
        })
    }

    /// Copy out the half-open row range `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> Result<Column> {
        Ok(self.range(start, end)?.to_column())
    }

    /// Borrow the half-open row range `[start, end)` without copying.
    pub fn range(&self, start: usize, end: usize) -> Result<ColumnRef<'_>> {
        if end > self.len() || start > end {
            return Err(DataError::OutOfBounds {
                index: end,
                len: self.len(),
            });
        }
        Ok(match self {
            Column::Int64(v) => ColumnRef::Int64(&v[start..end]),
            Column::Float64(v) => ColumnRef::Float64(&v[start..end]),
            Column::Bool(v) => ColumnRef::Bool(&v[start..end]),
            Column::Utf8(v) => ColumnRef::Utf8(&v[start..end]),
        })
    }

    /// Borrow every row without copying.
    pub fn view(&self) -> ColumnRef<'_> {
        match self {
            Column::Int64(v) => ColumnRef::Int64(v),
            Column::Float64(v) => ColumnRef::Float64(v),
            Column::Bool(v) => ColumnRef::Bool(v),
            Column::Utf8(v) => ColumnRef::Utf8(v),
        }
    }

    /// Append all rows of `other`; the types must match.
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int64(a), Column::Int64(b)) => a.extend_from_slice(b),
            (Column::Float64(a), Column::Float64(b)) => a.extend_from_slice(b),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (Column::Utf8(a), Column::Utf8(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(DataError::TypeMismatch {
                    expected: a.data_type().to_string(),
                    actual: b.data_type().to_string(),
                })
            }
        }
        Ok(())
    }
}

/// A borrowed row range of a [`Column`]: the typed slice execution reads
/// in place, so evaluating `dest = 'JFK'` copies no string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnRef<'a> {
    Int64(&'a [i64]),
    Float64(&'a [f64]),
    Bool(&'a [bool]),
    Utf8(&'a [String]),
}

impl ColumnRef<'_> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnRef::Int64(v) => v.len(),
            ColumnRef::Float64(v) => v.len(),
            ColumnRef::Bool(v) => v.len(),
            ColumnRef::Utf8(v) => v.len(),
        }
    }

    /// True if the range has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnRef::Int64(_) => DataType::Int64,
            ColumnRef::Float64(_) => DataType::Float64,
            ColumnRef::Bool(_) => DataType::Bool,
            ColumnRef::Utf8(_) => DataType::Utf8,
        }
    }

    /// Copy the rows into an owned column.
    pub fn to_column(&self) -> Column {
        match self {
            ColumnRef::Int64(v) => Column::Int64(v.to_vec()),
            ColumnRef::Float64(v) => Column::Float64(v.to_vec()),
            ColumnRef::Bool(v) => Column::Bool(v.to_vec()),
            ColumnRef::Utf8(v) => Column::Utf8(v.to_vec()),
        }
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::Int64(v)
    }
}
impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::Float64(v)
    }
}
impl From<Vec<bool>> for Column {
    fn from(v: Vec<bool>) -> Self {
        Column::Bool(v)
    }
}
impl From<Vec<String>> for Column {
    fn from(v: Vec<String>) -> Self {
        Column::Utf8(v)
    }
}
impl From<Vec<&str>> for Column {
    fn from(v: Vec<&str>) -> Self {
        Column::Utf8(v.into_iter().map(str::to_string).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_basic_accessors() {
        let c = Column::from(vec![1i64, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.get(1).unwrap(), Value::Int64(2));
        assert!(c.get(3).is_err());
    }

    #[test]
    fn push_type_checking() {
        let mut c = Column::empty(DataType::Float64);
        c.push(Value::Float64(1.0)).unwrap();
        // Int64 is promoted into Float64 columns.
        c.push(Value::Int64(2)).unwrap();
        assert_eq!(c.f64_values().unwrap(), &[1.0, 2.0]);
        assert!(c.push(Value::from("x")).is_err());
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let c = Column::from(vec![10i64, 20, 30, 40]);
        let out = c.filter(&[true, false, true, false]).unwrap();
        assert_eq!(out.i64_values().unwrap(), &[10, 30]);
        assert!(c.filter(&[true]).is_err());
    }

    #[test]
    fn take_gathers_and_bounds_checks() {
        let c = Column::from(vec!["a", "b", "c"]);
        let out = c.take(&[2, 0, 2]).unwrap();
        assert_eq!(out.utf8_values().unwrap(), &["c", "a", "c"]);
        assert!(c.take(&[3]).is_err());
    }

    #[test]
    fn slice_range() {
        let c = Column::from(vec![1.0, 2.0, 3.0, 4.0]);
        let s = c.slice(1, 3).unwrap();
        assert_eq!(s.f64_values().unwrap(), &[2.0, 3.0]);
        assert!(c.slice(2, 5).is_err());
        assert_eq!(c.slice(2, 2).unwrap().len(), 0);
        // The borrowed range reads the same rows in place.
        assert_eq!(c.range(1, 3).unwrap(), ColumnRef::Float64(&[2.0, 3.0]));
        assert!(c.range(3, 2).is_err());
        assert_eq!(c.view().to_column(), c);
        assert_eq!(c.view().data_type(), DataType::Float64);
    }

    #[test]
    fn to_f64_conversion() {
        assert_eq!(
            Column::from(vec![true, false]).to_f64_vec().unwrap(),
            vec![1.0, 0.0]
        );
        assert_eq!(
            Column::from(vec![2i64, 3]).to_f64_vec().unwrap(),
            vec![2.0, 3.0]
        );
        assert!(Column::from(vec!["x"]).to_f64_vec().is_err());
    }

    #[test]
    fn extend_from_matching_types() {
        let mut a = Column::from(vec![1i64]);
        a.extend_from(&Column::from(vec![2i64, 3])).unwrap();
        assert_eq!(a.i64_values().unwrap(), &[1, 2, 3]);
        assert!(a.extend_from(&Column::from(vec![1.0])).is_err());
    }

    #[test]
    fn typed_slice_accessors_reject_wrong_type() {
        let c = Column::from(vec![1i64]);
        assert!(c.f64_values().is_err());
        assert!(c.bool_values().is_err());
        assert!(c.utf8_values().is_err());
        assert!(c.i64_values().is_ok());
    }
}
