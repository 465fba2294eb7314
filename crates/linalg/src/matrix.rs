//! Dense, row-major, `f64` matrix type and elementwise / BLAS-like kernels.
//!
//! The matrix type here is intentionally small and auditable: the numerical
//! core of the IDES reproduction (SVD, NMF, least squares) is built on these
//! kernels, so everything is plain safe Rust with no external BLAS.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::error::{LinalgError, Result};
use crate::kernels;

/// Validates that a preallocated output matrix has exactly the shape the
/// operation will produce.
fn check_out_shape(out: &Matrix, rows: usize, cols: usize, op: &'static str) -> Result<()> {
    if out.shape() != (rows, cols) {
        return Err(LinalgError::ShapeMismatch {
            expected: (rows, cols),
            got: out.shape(),
            op,
        });
    }
    Ok(())
}

/// A dense matrix of `f64` stored in row-major order.
///
/// Invariants: `data.len() == rows * cols`; `rows` and `cols` may be zero
/// (an empty matrix), in which case `data` is empty.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (rows, cols),
                got: (data.len(), 1),
                op: "from_vec",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a slice of rows. All rows must be equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    expected: (1, cols),
                    got: (1, r.len()),
                    op: if i > 0 {
                        "from_rows"
                    } else {
                        "from_rows (first row)"
                    },
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    #[cfg(test)]
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a column vector (`n x 1`) from a slice.
    pub fn col_vector(v: &[f64]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new `Vec`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrites row `i` with the entries of `v`.
    pub fn set_row(&mut self, i: usize, v: &[f64]) {
        debug_assert_eq!(v.len(), self.cols);
        self.row_mut(i).copy_from_slice(v);
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Returns the main diagonal as a vector.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Sum of the diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Validates the inner dimensions for `self * other`.
    pub(crate) fn shape_check_matmul(&self, other: &Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, other.cols),
                got: other.shape(),
                op: "matmul",
            });
        }
        Ok(())
    }

    /// Matrix product `self * other`.
    ///
    /// Runs on the cache-blocked kernel layer ([`crate::kernels`]); see
    /// [`Matrix::matmul_into`] for the allocation-free variant.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        self.shape_check_matmul(other)?;
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Writes `self * other` into a preallocated output of exactly the
    /// right shape, without heap allocation in the steady state.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        self.shape_check_matmul(other)?;
        check_out_shape(out, self.rows, other.cols, "matmul_into")?;
        kernels::gemm(
            &self.data,
            kernels::Op::NoTrans,
            self.cols,
            &other.data,
            kernels::Op::NoTrans,
            other.cols,
            &mut out.data,
            self.rows,
            other.cols,
            self.cols,
        );
        Ok(())
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn tr_matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.tr_matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Writes `selfᵀ * other` into a preallocated output.
    pub fn tr_matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, other.cols),
                got: other.shape(),
                op: "tr_matmul",
            });
        }
        check_out_shape(out, self.cols, other.cols, "tr_matmul_into")?;
        kernels::gemm(
            &self.data,
            kernels::Op::Trans,
            self.cols,
            &other.data,
            kernels::Op::NoTrans,
            other.cols,
            &mut out.data,
            self.cols,
            other.cols,
            self.rows,
        );
        Ok(())
    }

    /// `self * otherᵀ` without materializing the transpose.
    pub fn matmul_tr(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_tr_into(other, &mut out)?;
        Ok(out)
    }

    /// Writes `self * otherᵀ` into a preallocated output.
    pub fn matmul_tr_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (other.rows, self.cols),
                got: other.shape(),
                op: "matmul_tr",
            });
        }
        check_out_shape(out, self.rows, other.rows, "matmul_tr_into")?;
        kernels::gemm(
            &self.data,
            kernels::Op::NoTrans,
            self.cols,
            &other.data,
            kernels::Op::Trans,
            other.cols,
            &mut out.data,
            self.rows,
            other.rows,
            self.cols,
        );
        Ok(())
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Writes `self * v` into a preallocated output slice.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, 1),
                got: (v.len(), 1),
                op: "matvec",
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, 1),
                got: (out.len(), 1),
                op: "matvec_into",
            });
        }
        kernels::gemv(&self.data, v, out, self.rows, self.cols);
        Ok(())
    }

    /// Transposed matrix-vector product `selfᵀ * v`.
    pub fn tr_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.cols];
        self.tr_matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Writes `selfᵀ * v` into a preallocated output slice.
    pub fn tr_matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if self.rows != v.len() {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, 1),
                got: (v.len(), 1),
                op: "tr_matvec",
            });
        }
        if out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, 1),
                got: (out.len(), 1),
                op: "tr_matvec_into",
            });
        }
        kernels::gemv_t(&self.data, v, out, self.rows, self.cols);
        Ok(())
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                expected: self.shape(),
                got: other.shape(),
                op,
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiplies every entry by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Frobenius norm: `sqrt(sum of squared entries)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry (the max norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Minimum entry, or `None` for an empty matrix.
    pub fn min(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::min)
    }

    /// Maximum entry, or `None` for an empty matrix.
    pub fn max(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::max)
    }

    /// Extracts the sub-matrix of the given rows and all columns.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Gathers the given rows into `out`, reshaping it to
    /// `indices.len() x self.cols()`. Reuses `out`'s existing capacity, so
    /// repeated gathers (e.g. the ALS row solves) allocate nothing once the
    /// buffer has grown to its high-water mark.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.reset_shape(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
    }

    /// Reshapes in place to `rows x cols`, zero-filling the contents.
    /// Existing capacity is reused; this only allocates when the new shape
    /// exceeds the largest shape the matrix has held.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Appends `row` as a new bottom row, preserving existing contents.
    /// An empty matrix adopts the row's length as its column count.
    /// Amortized `O(cols)` through the data vector's retained capacity.
    ///
    /// # Panics
    /// Panics when the matrix is nonempty and `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 {
            self.cols = row.len();
        } else {
            assert_eq!(row.len(), self.cols, "push_row: wrong row length");
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Reserves room for at least `rows` more rows, so the next `rows`
    /// [`Matrix::push_row`] calls do not reallocate. Amortized like
    /// `Vec::reserve`: growing by a batch at a time still at least doubles
    /// the capacity, where an exact reservation per batch would reallocate
    /// (and leave a freed copy of the table behind) on every batch.
    pub fn reserve_rows(&mut self, rows: usize) {
        self.data.reserve(rows * self.cols);
    }

    /// Extracts the sub-matrix of the given columns and all rows.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for i in 0..self.rows {
            for (dst, &src) in indices.iter().enumerate() {
                out[(i, dst)] = self[(i, src)];
            }
        }
        out
    }

    /// Extracts the contiguous block `[r0, r1) x [c0, c1)`.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        debug_assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Vertically concatenates `self` and `other` (same column count).
    pub fn vcat(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (0, self.cols),
                got: other.shape(),
                op: "vcat",
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// True if every entry of `self` is within `tol` of `other`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Maximum absolute difference between two same-shaped matrices.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        debug_assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f64, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// True if all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// True if all entries are `>= -tol`.
    pub fn is_nonnegative(&self, tol: f64) -> bool {
        self.data.iter().all(|&x| x >= -tol)
    }

    /// Symmetrizes in place: `A <- (A + Aᵀ)/2`. Requires a square matrix.
    pub fn symmetrize(&mut self) {
        debug_assert!(self.is_square());
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Iterator over `(i, j, value)` triples in row-major order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(k, &v)| (k / cols, k % cols, v))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(10) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            if self.cols > 10 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        self.zip_with(rhs, "add", |a, b| a + b)
            .expect("checked shapes")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        self.zip_with(rhs, "sub", |a, b| a - b)
            .expect("checked shapes")
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matrix mul shape mismatch")
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl MulAssign<f64> for Matrix {
    fn mul_assign(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2x2(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![a, b, c, d]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_vec_shape_check() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_ragged_rejected() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(Matrix::from_rows(&rows).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        let t = a.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(a, t.transpose());
        assert_eq!(a[(1, 4)], t[(4, 1)]);
    }

    #[test]
    fn matmul_small() {
        let a = m2x2(1.0, 2.0, 3.0, 4.0);
        let b = m2x2(5.0, 6.0, 7.0, 8.0);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m2x2(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(4, 4, |i, j| (i + 2 * j) as f64);
        let i = Matrix::identity(4);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn tr_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.5);
        let b = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let fast = a.tr_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn matmul_tr_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.5);
        let b = Matrix::from_fn(5, 3, |i, j| (2 * i + j) as f64);
        let fast = a.matmul_tr(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn matvec_and_tr_matvec() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert_eq!(a.tr_matvec(&[1.0, 1.0]).unwrap(), vec![5.0, 7.0, 9.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.tr_matvec(&[1.0]).is_err());
    }

    #[test]
    fn norms_and_reductions() {
        let a = m2x2(3.0, -4.0, 0.0, 0.0);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.sum(), -1.0);
        assert_eq!(a.mean(), -0.25);
        assert_eq!(a.min(), Some(-4.0));
        assert_eq!(a.max(), Some(3.0));
    }

    #[test]
    fn select_rows_cols_block() {
        let a = Matrix::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let r = a.select_rows(&[2, 0]);
        assert_eq!(r.row(0), &[20.0, 21.0, 22.0, 23.0]);
        assert_eq!(r.row(1), &[0.0, 1.0, 2.0, 3.0]);
        let c = a.select_cols(&[3, 1]);
        assert_eq!(c.col(0), vec![3.0, 13.0, 23.0, 33.0]);
        let b = a.block(1, 3, 2, 4);
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b[(0, 0)], 12.0);
        assert_eq!(b[(1, 1)], 23.0);
    }

    #[test]
    fn concat() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 1, 7.0);
        let c = Matrix::filled(1, 2, 9.0);
        let v = a.vcat(&c).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v[(2, 0)], 9.0);
        assert!(a.vcat(&b).is_err());
    }

    #[test]
    fn symmetrize() {
        let mut a = m2x2(1.0, 4.0, 2.0, 5.0);
        a.symmetrize();
        assert_eq!(a, m2x2(1.0, 3.0, 3.0, 5.0));
    }

    #[test]
    fn operators() {
        let a = m2x2(1.0, 2.0, 3.0, 4.0);
        let b = m2x2(4.0, 3.0, 2.0, 1.0);
        assert_eq!(&a + &b, Matrix::filled(2, 2, 5.0));
        assert_eq!(&a - &a, Matrix::zeros(2, 2));
        assert_eq!((-&a).scale(-1.0), a);
        let mut c = a.clone();
        c += &b;
        c -= &b;
        assert_eq!(c, a);
        c *= 2.0;
        assert_eq!(c, a.scale(2.0));
    }

    #[test]
    fn iter_entries_order() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let entries: Vec<_> = a.iter_entries().collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]
        );
    }

    #[test]
    fn diag_helpers() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.diag(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn push_row_appends_into_reserved_rows() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]); // empty matrix adopts the width
        m.push_row(&[3.0, 4.0]);
        m.push_row(&[5.0, 6.0]);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(2), &[5.0, 6.0]);
        // Rows reserved up front are pushed without a reallocation.
        m.reserve_rows(10);
        let (cap, at) = (m.data.capacity(), m.data.as_ptr());
        for i in 0..10 {
            m.push_row(&[i as f64, 9.0]);
        }
        assert_eq!((m.data.capacity(), m.data.as_ptr()), (cap, at));
        assert_eq!(m.shape(), (13, 2));
        assert_eq!(m.row(12), &[9.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "push_row")]
    fn push_row_wrong_width_panics() {
        let mut m = Matrix::zeros(1, 3);
        m.push_row(&[1.0]);
    }

    #[test]
    fn finite_and_nonnegative_checks() {
        let a = m2x2(1.0, 2.0, 3.0, 4.0);
        assert!(a.all_finite());
        assert!(a.is_nonnegative(0.0));
        let b = m2x2(1.0, f64::NAN, 3.0, 4.0);
        assert!(!b.all_finite());
        let c = m2x2(1.0, -1e-13, 3.0, 4.0);
        assert!(c.is_nonnegative(1e-12));
        assert!(!c.is_nonnegative(0.0));
    }
}
