use std::fmt;

/// Error type for all fallible operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SparseError {
    /// An operand's dimensions do not match what the operation requires.
    DimensionMismatch {
        /// What the operation expected (e.g. "x.len() == n_cols").
        expected: String,
        /// What was actually observed.
        found: String,
    },
    /// A row/column index is outside the matrix dimensions.
    IndexOutOfBounds {
        /// The offending index.
        index: u32,
        /// The exclusive bound it violated.
        bound: u32,
    },
    /// A CSR/CSC offsets array is malformed (wrong length, not
    /// monotonically non-decreasing, or its last entry disagrees with the
    /// index-array length).
    InvalidOffsets {
        /// Position in the offsets (or index) array where the violation
        /// was detected; equals the array length for length mismatches.
        index: usize,
        /// The offending value observed at `index`.
        value: u64,
        /// What the invariant required instead.
        message: String,
    },
    /// A permutation is not a bijection on `0..len`.
    InvalidPermutation {
        /// Position (old ID / rank) of the offending entry.
        index: usize,
        /// The offending entry value.
        value: u32,
        /// Which bijection law was broken.
        message: String,
    },
    /// The matrix (or an operation's requirement) exceeds `u32` indexing.
    TooLarge(String),
    /// A Matrix Market stream could not be parsed.
    Parse {
        /// 1-based line number of the offending line (0 when unknown).
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An underlying I/O error (kind and message preserved as text so the
    /// error stays `Clone + Eq`).
    Io(String),
    /// A stored value is NaN or infinite where a finite weight is
    /// required (community detection uses values as edge weights).
    NonFiniteValue {
        /// Row of the first offending entry.
        row: u32,
        /// Column of the first offending entry.
        col: u32,
    },
    /// An experiment/pipeline configuration value is invalid (e.g. a
    /// zero-capacity cache, a kernel with zero tile width). Surfaced by
    /// validating builders so misconfiguration fails at construction
    /// instead of panicking mid-simulation.
    InvalidConfig {
        /// The configuration field at fault (e.g. `"l2.capacity_bytes"`).
        what: String,
        /// Why the value is rejected.
        message: String,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            SparseError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (must be < {bound})")
            }
            SparseError::InvalidOffsets {
                index,
                value,
                message,
            } => write!(
                f,
                "invalid offsets array at index {index} (value {value}): {message}"
            ),
            SparseError::InvalidPermutation {
                index,
                value,
                message,
            } => write!(
                f,
                "invalid permutation at position {index} (value {value}): {message}"
            ),
            SparseError::TooLarge(msg) => write!(f, "matrix too large: {msg}"),
            SparseError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            SparseError::Io(msg) => write!(f, "i/o error: {msg}"),
            SparseError::NonFiniteValue { row, col } => {
                write!(f, "non-finite value at row {row}, column {col}")
            }
            SparseError::InvalidConfig { what, message } => {
                write!(f, "invalid configuration for {what}: {message}")
            }
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(err: std::io::Error) -> Self {
        SparseError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = SparseError::DimensionMismatch {
            expected: "x.len() == 4".to_string(),
            found: "x.len() == 3".to_string(),
        };
        let s = e.to_string();
        assert!(s.starts_with("dimension mismatch"));
        assert!(s.contains("x.len() == 4"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = SparseError::from(io);
        assert!(matches!(e, SparseError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseError>();
    }

    #[test]
    fn index_out_of_bounds_display() {
        let e = SparseError::IndexOutOfBounds { index: 9, bound: 5 };
        assert_eq!(e.to_string(), "index 9 out of bounds (must be < 5)");
    }

    #[test]
    fn invalid_offsets_carries_index_and_value() {
        let e = SparseError::InvalidOffsets {
            index: 3,
            value: 7,
            message: "offsets must be non-decreasing".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("index 3"), "{s}");
        assert!(s.contains("value 7"), "{s}");
        assert!(s.contains("non-decreasing"), "{s}");
    }

    #[test]
    fn non_finite_value_names_row_and_column() {
        let e = SparseError::NonFiniteValue { row: 3, col: 7 };
        assert_eq!(e.to_string(), "non-finite value at row 3, column 7");
    }

    #[test]
    fn invalid_config_display() {
        let e = SparseError::InvalidConfig {
            what: "l2.capacity_bytes".to_string(),
            message: "capacity must be positive".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("invalid configuration"), "{s}");
        assert!(s.contains("l2.capacity_bytes"), "{s}");
    }

    #[test]
    fn invalid_permutation_carries_index_and_value() {
        let e = SparseError::InvalidPermutation {
            index: 2,
            value: 9,
            message: "entry exceeds permutation length 4".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("position 2"), "{s}");
        assert!(s.contains("value 9"), "{s}");
    }
}
