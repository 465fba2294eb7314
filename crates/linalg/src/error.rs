//! Error type shared by all `ides-linalg` operations.

use std::fmt;

use crate::matrix::Matrix;

/// Result alias using [`LinalgError`].
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Errors produced by dense linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the attempted operation.
    ShapeMismatch {
        /// Shape (or dimension pair) the operation required.
        expected: (usize, usize),
        /// Shape actually supplied.
        got: (usize, usize),
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A matrix that must be square was not.
    NotSquare {
        /// Shape actually supplied.
        got: (usize, usize),
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// The matrix is singular (or numerically so) and cannot be factored/solved.
    Singular {
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// Matrix is not positive definite (Cholesky).
    NotPositiveDefinite,
    /// An iterative algorithm failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm.
        op: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// An argument was out of its valid range.
    InvalidArgument(&'static str),
    /// An input matrix held a NaN or infinite entry.
    NonFinite {
        /// Name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, got, op } => write!(
                f,
                "{op}: shape mismatch (expected compatible with {}x{}, got {}x{})",
                expected.0, expected.1, got.0, got.1
            ),
            LinalgError::NotSquare { got, op } => {
                write!(f, "{op}: matrix must be square, got {}x{}", got.0, got.1)
            }
            LinalgError::Singular { op } => write!(f, "{op}: matrix is singular"),
            LinalgError::NotPositiveDefinite => {
                write!(f, "cholesky: matrix is not positive definite")
            }
            LinalgError::NoConvergence { op, iterations } => {
                write!(f, "{op}: no convergence after {iterations} iterations")
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            LinalgError::NonFinite { op } => write!(f, "{op}: matrix has a non-finite entry"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Rejects a matrix with a NaN or infinite entry as
/// [`LinalgError::NonFinite`]: no decomposition of it exists.
pub(crate) fn ensure_finite(a: &Matrix, op: &'static str) -> Result<()> {
    a.all_finite()
        .then_some(())
        .ok_or(LinalgError::NonFinite { op })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = LinalgError::ShapeMismatch {
            expected: (2, 3),
            got: (3, 2),
            op: "matmul",
        };
        assert!(e.to_string().contains("matmul"));
        assert!(e.to_string().contains("2x3"));
        let e = LinalgError::NoConvergence {
            op: "svd",
            iterations: 30,
        };
        assert!(e.to_string().contains("30"));
        let e = LinalgError::Singular { op: "lu_solve" };
        assert!(e.to_string().contains("singular"));
        let e = LinalgError::NonFinite {
            op: "svd_truncated",
        };
        assert!(e.to_string().contains("non-finite"));
    }
}
