//! The stable `CHK` diagnostic-code table.
//!
//! Codes are grouped by hundreds per checked domain and are **append
//! only**: a published code never changes meaning, so golden files and
//! downstream tooling can match on them forever. A retired code is
//! deleted from the table and never reused:
//!
//! * `CHK0301`–`CHK0303` (ELL / SELL-C-σ storage), `CHK0701`–`CHK0703`
//!   (cache geometry), `CHK0801`–`CHK0804` (GPU spec) and `CHK1204`
//!   (histogram shape) audited objects that never cross a boundary:
//!   padded storage is built only from a checked CSR, cache geometry is
//!   rejected by `PipelineBuilder::build`, the stock GPU specs are
//!   constants pinned by their unit tests, and histogram shape is
//!   pinned by the `commorder-obs` registry tests;
//! * `CHK1101`–`CHK1103` validated the analyzer report, which its
//!   goldens pin.
//!
//! | Range   | Domain                                  |
//! |---------|-----------------------------------------|
//! | CHK01xx | CSR offsets and index arrays            |
//! | CHK02xx | COO entry lists                         |
//! | CHK04xx | Permutations                            |
//! | CHK05xx | Community assignments                   |
//! | CHK06xx | Address traces                          |
//! | CHK09xx | Telemetry JSONL streams                 |
//! | CHK10xx | Streaming trace sources and next-use    |
//! | CHK12xx | Bench artifacts and profile invariants  |

/// Offsets array has the wrong length (`n + 1` expected).
pub const OFFSETS_LENGTH: &str = "CHK0101";
/// Offsets array does not start at zero.
pub const OFFSETS_START: &str = "CHK0102";
/// Offsets array is not monotonically non-decreasing.
pub const OFFSETS_MONOTONE: &str = "CHK0103";
/// Last offset disagrees with the index-array length.
pub const OFFSETS_LAST: &str = "CHK0104";
/// A column/row index exceeds the matrix dimension.
pub const INDEX_BOUNDS: &str = "CHK0105";
/// Indices within a row/column are not strictly increasing.
pub const INDEX_SORTED: &str = "CHK0106";
/// Values array length disagrees with the index-array length.
pub const VALUES_LENGTH: &str = "CHK0107";
/// A stored value is NaN or infinite.
pub const VALUE_NONFINITE: &str = "CHK0108";

/// COO row index out of bounds.
pub const COO_ROW_BOUNDS: &str = "CHK0201";
/// COO column index out of bounds.
pub const COO_COL_BOUNDS: &str = "CHK0202";
/// COO value is NaN or infinite.
pub const COO_VALUE_NONFINITE: &str = "CHK0203";
/// Duplicate COO coordinate (construction would merge by summing).
pub const COO_DUPLICATE: &str = "CHK0204";

/// Permutation entry out of range.
pub const PERM_RANGE: &str = "CHK0401";
/// Permutation target id appears more than once (not injective).
pub const PERM_DUPLICATE: &str = "CHK0402";
/// Permutation length does not match the object it should act on.
pub const PERM_LENGTH: &str = "CHK0403";

/// Community assignment is not total (length differs from vertex count).
pub const COMM_TOTAL: &str = "CHK0501";
/// Community id out of the declared range.
pub const COMM_RANGE: &str = "CHK0502";
/// A declared community has no members.
pub const COMM_EMPTY: &str = "CHK0503";

/// Trace access not aligned to the element size.
pub const TRACE_ALIGN: &str = "CHK0601";
/// Trace access straddles an L2 sector (line) boundary.
pub const TRACE_SECTOR: &str = "CHK0602";
/// Trace access beyond the operand address-space bound.
pub const TRACE_BOUNDS: &str = "CHK0603";
/// Empty trace for a non-empty matrix.
pub const TRACE_EMPTY: &str = "CHK0604";

/// Telemetry line is not a flat JSON object.
pub const TELEM_PARSE: &str = "CHK0901";
/// Telemetry event is missing a required field, or a field has the
/// wrong JSON type.
pub const TELEM_FIELD: &str = "CHK0902";
/// Telemetry event `type` is not one of the published discriminators.
pub const TELEM_TYPE: &str = "CHK0903";
/// Telemetry value is negative or non-finite where it must not be.
pub const TELEM_VALUE: &str = "CHK0904";
/// Span nesting violated: child interval escapes its parent, end
/// timestamps regress within a thread, or a span has no enclosing
/// parent at the next shallower depth.
pub const TELEM_NESTING: &str = "CHK0905";
/// Metric name is not declared in the `commorder-obs` registry, or the
/// event kind disagrees with the declared kind.
pub const TELEM_METRIC: &str = "CHK0906";
/// Span `path`, `depth`, and `name` fields are mutually inconsistent.
pub const TELEM_PATH: &str = "CHK0907";

/// A replayed access disagrees with its collected counterpart.
pub const STREAM_MISMATCH: &str = "CHK1001";
/// Replayed stream length disagrees with the collected trace or with the
/// source's `len_hint`.
pub const STREAM_LENGTH: &str = "CHK1002";
/// Belady next-use array is not monotone-consistent with its trace.
pub const NEXT_USE: &str = "CHK1003";

/// Bench artifact (`xtask bench`) violates the published
/// `commorder-bench.v2` framing: bad header lines, a malformed machine
/// object or fingerprint row, or an empty metric list.
pub const BENCH_SCHEMA: &str = "CHK1201";
/// Bench metric row is invalid: wrong key sequence, unsorted or
/// duplicated names, a non-finite value, or an empty unit.
pub const BENCH_METRIC: &str = "CHK1202";
/// Exclusive self-time invariant violated: the summed inclusive time of
/// a span path's direct children exceeds the path's own inclusive time.
pub const SELF_TIME: &str = "CHK1203";

/// Every live code, in code order.
pub const CODE_TABLE: &[&str] = &[
    OFFSETS_LENGTH,
    OFFSETS_START,
    OFFSETS_MONOTONE,
    OFFSETS_LAST,
    INDEX_BOUNDS,
    INDEX_SORTED,
    VALUES_LENGTH,
    VALUE_NONFINITE,
    COO_ROW_BOUNDS,
    COO_COL_BOUNDS,
    COO_VALUE_NONFINITE,
    COO_DUPLICATE,
    PERM_RANGE,
    PERM_DUPLICATE,
    PERM_LENGTH,
    COMM_TOTAL,
    COMM_RANGE,
    COMM_EMPTY,
    TRACE_ALIGN,
    TRACE_SECTOR,
    TRACE_BOUNDS,
    TRACE_EMPTY,
    TELEM_PARSE,
    TELEM_FIELD,
    TELEM_TYPE,
    TELEM_VALUE,
    TELEM_NESTING,
    TELEM_METRIC,
    TELEM_PATH,
    STREAM_MISMATCH,
    STREAM_LENGTH,
    NEXT_USE,
    BENCH_SCHEMA,
    BENCH_METRIC,
    SELF_TIME,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_sorted_and_well_formed() {
        for w in CODE_TABLE.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
        for code in CODE_TABLE {
            assert_eq!(code.len(), 7, "{code}");
            assert!(code.starts_with("CHK"), "{code}");
            assert!(code[3..].chars().all(|c| c.is_ascii_digit()));
        }
    }
}
