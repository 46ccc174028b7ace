//! Matrix Market and edge-list I/O.
//!
//! The paper's corpus comes from SuiteSparse (Matrix Market files), Konect
//! and Web Data Commons (edge lists). This module reads both so externally
//! downloaded matrices can be dropped into any experiment binary in place
//! of the synthetic corpus.
//!
//! Readers take `R: Read` by value; pass `&mut reader` to retain ownership.

use std::io::{BufRead, BufReader, Read, Write};

use crate::{CooMatrix, CsrMatrix, SparseError};

/// Symmetry declared in a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Only the lower triangle stored; reader mirrors entries.
    Symmetric,
}

/// Reads a Matrix Market `coordinate` stream into a [`CooMatrix`].
///
/// Supports `real`, `integer`, and `pattern` fields with `general` or
/// `symmetric` symmetry (pattern entries get value 1.0; symmetric
/// off-diagonal entries are mirrored). Indices in the file are 1-based.
///
/// # Errors
///
/// Returns [`SparseError::Parse`] on malformed headers, counts, or entry
/// lines; [`SparseError::Io`] on read failures.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CooMatrix, SparseError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    let (line_no, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (i + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: 0,
                    message: "empty stream".to_string(),
                })
            }
        }
    };

    let header_lc = header.to_ascii_lowercase();
    let tokens: Vec<&str> = header_lc.split_whitespace().collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(SparseError::Parse {
            line: line_no,
            message: format!("not a MatrixMarket matrix header: {header:?}"),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::Parse {
            line: line_no,
            message: format!("unsupported format {:?} (only coordinate)", tokens[2]),
        });
    }
    let pattern = match tokens[3] {
        "real" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(SparseError::Parse {
                line: line_no,
                message: format!("unsupported field type {other:?}"),
            })
        }
    };
    let symmetry = match tokens[4] {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        other => {
            return Err(SparseError::Parse {
                line: line_no,
                message: format!("unsupported symmetry {other:?}"),
            })
        }
    };

    // Skip comments, find the size line.
    let (size_line_no, size_line) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break (i + 1, line);
            }
            None => {
                return Err(SparseError::Parse {
                    line: 0,
                    message: "missing size line".to_string(),
                })
            }
        }
    };
    let dims: Vec<u64> = size_line
        .split_whitespace()
        .map(|t| t.parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|e| SparseError::Parse {
            line: size_line_no,
            message: format!("bad size line: {e}"),
        })?;
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: size_line_no,
            message: format!("size line must have 3 fields, found {}", dims.len()),
        });
    }
    let (n_rows, n_cols, declared_nnz) = (dims[0], dims[1], dims[2] as usize);
    if n_rows > u64::from(u32::MAX) || n_cols > u64::from(u32::MAX) {
        return Err(SparseError::TooLarge(format!(
            "{n_rows} x {n_cols} exceeds u32 indexing"
        )));
    }

    let mut coo = CooMatrix::empty(n_rows as u32, n_cols as u32);
    let mut seen = 0usize;
    for (i, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse_idx = |tok: Option<&str>, what: &str| -> Result<u32, SparseError> {
            tok.ok_or_else(|| SparseError::Parse {
                line: i + 1,
                message: format!("missing {what}"),
            })?
            .parse::<u32>()
            .map_err(|e| SparseError::Parse {
                line: i + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        let r1 = parse_idx(it.next(), "row index")?;
        let c1 = parse_idx(it.next(), "column index")?;
        if r1 == 0 || c1 == 0 {
            return Err(SparseError::Parse {
                line: i + 1,
                message: "indices are 1-based; found 0".to_string(),
            });
        }
        let v = if pattern {
            1.0
        } else {
            let tok = it.next().ok_or_else(|| SparseError::Parse {
                line: i + 1,
                message: "missing value".to_string(),
            })?;
            let v = tok.parse::<f32>().map_err(|e| SparseError::Parse {
                line: i + 1,
                message: format!("bad value: {e}"),
            })?;
            // `parse::<f32>` accepts `nan`/`inf` and saturates
            // out-of-range literals to infinity; none of those is a
            // usable modularity weight or kernel value.
            if !v.is_finite() {
                return Err(SparseError::Parse {
                    line: i + 1,
                    message: format!("non-finite value {tok:?}"),
                });
            }
            v
        };
        let (r, c) = (r1 - 1, c1 - 1);
        coo.push(r, c, v)?;
        if symmetry == MmSymmetry::Symmetric && r != c {
            coo.push(c, r, v)?;
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(SparseError::Parse {
            line: 0,
            message: format!("header declared {declared_nnz} entries, found {seen}"),
        });
    }
    Ok(coo)
}

/// Writes a CSR matrix as Matrix Market `coordinate real general`.
///
/// # Errors
///
/// Returns [`SparseError::Io`] on write failures.
pub fn write_matrix_market<W: Write>(mut writer: W, a: &CsrMatrix) -> Result<(), SparseError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by commorder-sparse")?;
    writeln!(writer, "{} {} {}", a.n_rows(), a.n_cols(), a.nnz())?;
    for (r, c, v) in a.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Reads a whitespace-separated edge list (`src dst` per line, `#` or `%`
/// comments, 0-based IDs — the SNAP/Konect convention) into a square
/// pattern [`CooMatrix`] sized by the largest endpoint.
///
/// # Errors
///
/// Returns [`SparseError::Parse`] on malformed lines,
/// [`SparseError::TooLarge`] when the largest id is `u32::MAX` (the
/// vertex count would not fit a `u32`) and [`SparseError::Io`] on read
/// failures.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CooMatrix, SparseError> {
    let mut edges: Vec<(u32, u32, f32)> = Vec::new();
    let mut max_id = 0u32;
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u32, SparseError> {
            tok.ok_or_else(|| SparseError::Parse {
                line: i + 1,
                message: "expected `src dst`".to_string(),
            })?
            .parse::<u32>()
            .map_err(|e| SparseError::Parse {
                line: i + 1,
                message: format!("bad vertex id: {e}"),
            })
        };
        let s = parse(it.next())?;
        let d = parse(it.next())?;
        max_id = max_id.max(s).max(d);
        edges.push((s, d, 1.0));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_id.checked_add(1).ok_or_else(|| {
            SparseError::TooLarge(format!(
                "edge list vertex id {max_id} leaves no room for a u32 vertex count"
            ))
        })?
    };
    CooMatrix::from_entries(n, n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_real_general() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    2 3 2\n\
                    1 2 5.5\n\
                    2 3 -1\n";
        let coo = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(coo.n_rows(), 2);
        assert_eq!(coo.n_cols(), 3);
        assert_eq!(coo.entries(), &[(0, 1, 5.5), (1, 2, -1.0)]);
    }

    #[test]
    fn read_pattern_symmetric_mirrors() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    3 3 2\n\
                    2 1\n\
                    3 3\n";
        let coo = read_matrix_market(text.as_bytes()).unwrap();
        // (1,0) mirrored to (0,1); diagonal (2,2) not mirrored.
        assert_eq!(coo.nnz(), 3);
        let mut coords: Vec<_> = coo.entries().iter().map(|&(r, c, _)| (r, c)).collect();
        coords.sort_unstable();
        assert_eq!(coords, vec![(0, 1), (1, 0), (2, 2)]);
    }

    #[test]
    fn read_rejects_bad_header() {
        assert!(matches!(
            read_matrix_market("%%MatrixMarket tensor\n".as_bytes()),
            Err(SparseError::Parse { .. })
        ));
        assert!(matches!(
            read_matrix_market("%%MatrixMarket matrix array real general\n1 1\n".as_bytes()),
            Err(SparseError::Parse { .. })
        ));
    }

    #[test]
    fn read_rejects_count_mismatch() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::Parse { .. })
        ));
    }

    #[test]
    fn read_rejects_zero_based_index() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::Parse { .. })
        ));
    }

    fn value_error_line(value: &str) -> Option<usize> {
        let text =
            format!("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 {value}\n");
        match read_matrix_market(text.as_bytes()) {
            Err(SparseError::Parse { line, .. }) => Some(line),
            _ => None,
        }
    }

    #[test]
    fn read_rejects_nan_value() {
        assert_eq!(value_error_line("nan"), Some(4));
        assert_eq!(value_error_line("NaN"), Some(4));
    }

    #[test]
    fn read_rejects_infinite_value() {
        assert_eq!(value_error_line("inf"), Some(4));
        assert_eq!(value_error_line("-infinity"), Some(4));
    }

    #[test]
    fn read_rejects_out_of_range_value() {
        // Finite as a decimal literal, but beyond f32::MAX: `parse::<f32>`
        // would silently turn it into infinity.
        assert_eq!(value_error_line("1e39"), Some(4));
        assert_eq!(value_error_line("-1e39"), Some(4));
        assert_eq!(value_error_line("3.4e38"), None, "f32::MAX is finite");
    }

    #[test]
    fn write_then_read_round_trips() {
        let m = CsrMatrix::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![2.5, -3.0]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).unwrap();
        let coo = read_matrix_market(buf.as_slice()).unwrap();
        let back = CsrMatrix::try_from(coo).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn edge_list_reads_snap_style() {
        let text = "# comment\n0 1\n1 2\n\n2 0\n";
        let coo = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(coo.n_rows(), 3);
        assert_eq!(coo.nnz(), 3);
    }

    #[test]
    fn edge_list_empty_input() {
        let coo = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(coo.n_rows(), 0);
        assert_eq!(coo.nnz(), 0);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(matches!(
            read_edge_list("0 x\n".as_bytes()),
            Err(SparseError::Parse { .. })
        ));
        assert!(matches!(
            read_edge_list("7\n".as_bytes()),
            Err(SparseError::Parse { .. })
        ));
    }

    #[test]
    fn edge_list_rejects_an_id_with_no_room_for_the_count() {
        // `u32::MAX + 1` vertices: an error naming the id, not an
        // overflow panic or a bound-0 index error.
        match read_edge_list("4294967295 0\n".as_bytes()) {
            Err(SparseError::TooLarge(msg)) => assert!(msg.contains("4294967295"), "{msg}"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let coo = read_edge_list("4294967294 0\n".as_bytes());
        assert!(!matches!(coo, Err(SparseError::TooLarge(_))));
    }
}
