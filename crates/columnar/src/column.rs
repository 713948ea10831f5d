//! Contiguous `f64` matrices: column-major for scan kernels, row-major
//! flat for per-row kernels.
//!
//! Both types hold one contiguous allocation and copy their source values
//! bit for bit — construction performs no arithmetic, which is what makes
//! the row→column equivalence contract (crate docs) trivially auditable:
//! `ColumnMatrix::from_rows(rows).col(f)[i]` has the same bit pattern as
//! `rows[i][f]`, and `FlatMatrix::from_rows(rows).row(i)` is bitwise
//! `rows[i]`.

/// A column-major `f64` matrix: all of column 0, then all of column 1, …
///
/// The layout for *scan* kernels — the gradient-boosting split search
/// reads one feature for every row before moving to the next feature, so
/// a column must be a contiguous slice.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMatrix {
    /// `n_rows * n_cols` values, column-major.
    data: Vec<f64>,
    n_rows: usize,
    n_cols: usize,
}

impl ColumnMatrix {
    /// Transpose a row-major matrix into columnar storage (bitwise copy).
    ///
    /// # Panics
    /// If the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> ColumnMatrix {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = vec![0.0; n_rows * n_cols];
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n_cols, "ragged feature matrix");
            for (f, &v) in row.iter().enumerate() {
                data[f * n_rows + i] = v;
            }
        }
        ColumnMatrix {
            data,
            n_rows,
            n_cols,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// One feature column as a contiguous slice (length [`Self::n_rows`]).
    ///
    /// # Panics
    /// If `f >= n_cols`.
    pub fn col(&self, f: usize) -> &[f64] {
        assert!(f < self.n_cols, "column {f} out of {}", self.n_cols);
        &self.data[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// One cell — `get(i, f)` is bitwise the source's `rows[i][f]`.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.col(col)[row]
    }
}

/// A row-major flat `f64` matrix: row 0, then row 1, … in one allocation.
///
/// The layout for *per-row* kernels (batch scoring, KNN distances): a row
/// is a contiguous slice, and consecutive rows are adjacent, so batch
/// loops stream through memory instead of chasing `Vec<Vec<f64>>`
/// pointers.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatMatrix {
    /// `n_rows * n_cols` values, row-major.
    data: Vec<f64>,
    n_rows: usize,
    n_cols: usize,
}

impl FlatMatrix {
    /// An empty matrix with a fixed column count, ready for
    /// [`FlatMatrix::push_row`].
    pub fn new(n_cols: usize) -> FlatMatrix {
        FlatMatrix {
            data: Vec::new(),
            n_rows: 0,
            n_cols,
        }
    }

    /// Pack a row-major matrix into one flat allocation (bitwise copy).
    ///
    /// # Panics
    /// If the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> FlatMatrix {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut m = FlatMatrix::new(n_cols);
        for row in rows {
            m.push_row(row);
        }
        m
    }

    /// Append one row.
    ///
    /// # Panics
    /// If `row.len() != n_cols`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.n_cols, "row arity mismatch");
        self.data.extend_from_slice(row);
        self.n_rows += 1;
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// One row as a contiguous slice — bitwise the source's `rows[i]`.
    ///
    /// # Panics
    /// If `i >= n_rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.n_rows, "row {i} out of {}", self.n_rows);
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Iterate rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        // `chunks_exact(0)` panics; an empty matrix yields no rows.
        self.data.chunks_exact(self.n_cols.max(1)).take(self.n_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, -0.0, f64::MIN_POSITIVE],
            vec![4.5, 1e300, -7.25],
            vec![0.1 + 0.2, 3.0, f64::INFINITY],
        ]
    }

    #[test]
    fn column_matrix_is_bitwise_transpose() {
        let r = rows();
        let m = ColumnMatrix::from_rows(&r);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 3);
        for (i, row) in r.iter().enumerate() {
            for (f, v) in row.iter().enumerate() {
                assert_eq!(m.get(i, f).to_bits(), v.to_bits());
                assert_eq!(m.col(f)[i].to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn flat_matrix_round_trips_rows() {
        let r = rows();
        let m = FlatMatrix::from_rows(&r);
        assert_eq!(m.n_rows(), 3);
        for (i, row) in r.iter().enumerate() {
            assert_eq!(m.row(i), row.as_slice());
        }
        let collected: Vec<&[f64]> = m.rows().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], r[2].as_slice());
    }

    #[test]
    fn flat_matrix_push_row_matches_from_rows() {
        let r = rows();
        let mut m = FlatMatrix::new(3);
        for row in &r {
            m.push_row(row);
        }
        assert_eq!(m, FlatMatrix::from_rows(&r));
    }

    #[test]
    fn empty_matrices_are_well_formed() {
        let m = ColumnMatrix::from_rows(&[]);
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.n_cols(), 0);
        let f = FlatMatrix::new(0);
        assert!(f.is_empty());
        assert_eq!(f.rows().count(), 0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        ColumnMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
