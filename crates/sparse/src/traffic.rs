//! The paper's hardware-limit accounting (§IV-B): kernel identities,
//! compulsory DRAM traffic, and arithmetic intensity.
//!
//! > "The minimum DRAM traffic (or compulsory traffic) for the SpMV kernel
//! > is achieved when the last level cache only incurs compulsory cache
//! > misses. Therefore, assuming 4 bytes for matrix values and the CSR
//! > coordinates and an |N| x |N| sparse matrix with |NZ| non-zeros, the
//! > compulsory traffic for SpMV is (2*|N|*4B) + ((|N|+1+|NZ|+|NZ|)*4B)."
//!
//! Every figure in the paper normalizes measured DRAM traffic to the value
//! computed here; every run time is normalized to
//! `compulsory_bytes / measured_bandwidth` (see `commorder-gpumodel`).

use crate::{CsrMatrix, SparseError, ELEM_BYTES};

/// The sparse kernels evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// SpMV with the matrix in CSR format (Algorithm 1; Figs. 2–8, Tables
    /// II/III).
    SpmvCsr,
    /// SpMV with the matrix in COO format (Table IV).
    SpmvCoo,
    /// SpMM: sparse `|N| x |N|` matrix times dense `|N| x k` matrix in CSR
    /// format (Table IV uses `k = 4` and `k = 256`).
    SpmmCsr {
        /// Number of dense right-hand-side columns.
        k: u32,
    },
    /// Column-tiled SpMV (the tiling optimization of the paper's §VII
    /// related work, \[21\]/\[38\]/\[40\]/\[43\]): the matrix is split into
    /// vertical tiles of `tile_cols` columns, each stored with its own
    /// row-offsets array, so the irregular `X` accesses are bounded to
    /// one tile's range at a time. Costs: per-tile offset arrays and
    /// re-walking `Y` every tile.
    SpmvCsrTiled {
        /// Columns per tile.
        tile_cols: u32,
    },
    /// Propagation-blocking SpMV (the blocking optimization of the
    /// paper's §VII related work, \[7\]/\[11\]/\[20\]/\[26\]): phase 1 streams
    /// the matrix in CSC order (so `X` is read sequentially) and appends
    /// `(row, partial)` pairs into `bins` bins by destination-row range;
    /// phase 2 drains each bin, accumulating into a `Y` range that fits
    /// in cache. Trades 4 extra streamed elements per non-zero for fully
    /// regular access.
    SpmvBlocked {
        /// Number of destination-row bins.
        bins: u32,
    },
    /// Sparse × sparse multiply `C = A · B`, row-by-row Gustavson over
    /// CSR × CSR with a dense accumulator (the cluster-wise SpGEMM
    /// paper's baseline, arXiv 2507.21253). Rows execute in natural
    /// order. The second operand and the cluster assignment are
    /// workload *data*, carried by the trace source and pipeline — the
    /// kernel identity stays `Copy`/`Hash` so it can label grid cells.
    SpGemmGustavson,
    /// Cluster-wise Gustavson SpGEMM: rows of one detected community
    /// execute as a block (communities ascending, rows ascending
    /// within each), shrinking the accumulator working set when the
    /// community structure is strong. Without an assignment this
    /// degenerates to [`Kernel::SpGemmGustavson`].
    SpGemmClusterWise,
}

/// Number of arrays in a kernel's address map ([`Kernel::regions`]).
pub const REGIONS: usize = 15;

/// A sparse operand's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Rows.
    pub rows: u64,
    /// Columns.
    pub cols: u64,
    /// Stored entries.
    pub nnz: u64,
}

impl Shape {
    /// The shape of `a`.
    #[must_use]
    pub fn of(a: &CsrMatrix) -> Self {
        Shape {
            rows: u64::from(a.n_rows()),
            cols: u64::from(a.n_cols()),
            nnz: a.nnz() as u64,
        }
    }
}

/// One array of a kernel's address map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Length in elements.
    pub elems: u64,
    /// How many times the kernel streams the whole array at compulsory
    /// traffic; 0 for an array it never touches.
    pub streams: u64,
}

impl Kernel {
    /// The kernel's address map on an `a`-shaped matrix: every operand
    /// array in address order, with its length and how many times the
    /// kernel streams it at compulsory traffic (§IV-B). The simulator's
    /// layout places these lengths and the compulsory bound sums them, so
    /// the two cannot disagree on an array's size.
    ///
    /// The order is `rowOffsets`, `coords`, `values`, COO rows, `X`,
    /// `Y`, dense `B`, dense `C`, bins, then the SpGEMM arrays: `B`'s
    /// offsets, coords and values, the accumulator, and `C`'s coords and
    /// values. Gathered operands are indexed by column, outputs by row.
    /// A kernel keeps the arrays it never touches (streamed zero times)
    /// at their full length: dropping one would move every later address,
    /// and every cache fingerprint with it. The SpGEMM arrays come last
    /// and are empty for the other kernels.
    ///
    /// `product` is, for the SpGEMM kernels, `B`'s shape and `nnz(C)`.
    /// Without it, SpGEMM is the shape-only self-multiply: `B` is
    /// `a`-shaped and the bound counts the input streams only.
    #[must_use]
    pub fn regions(&self, a: Shape, product: Option<(Shape, u64)>) -> [Region; REGIONS] {
        let Shape { rows, cols, nnz } = a;
        let (offsets, k) = match *self {
            // One offsets array per column tile.
            Kernel::SpmvCsrTiled { tile_cols } => {
                (cols.div_ceil(u64::from(tile_cols).max(1)) * (rows + 1), 1)
            }
            // Stored column-major: the `cols + 1` CSC column offsets.
            Kernel::SpmvBlocked { .. } => (cols + 1, 1),
            Kernel::SpmmCsr { k } => (rows + 1, u64::from(k)),
            _ => (rows + 1, 1),
        };
        let (b_offsets, b_nnz, acc, c_nnz) = match (self.is_spgemm(), product) {
            (true, Some((b, c_nnz))) => (b.rows + 1, b.nnz, b.cols, c_nnz),
            (true, None) => (rows + 1, nnz, cols, 0),
            (false, _) => (0, 0, 0, 0),
        };
        // Streams of each array, in address order.
        let streams: [u64; REGIONS] = match *self {
            Kernel::SpmvCsr | Kernel::SpmvCsrTiled { .. } => {
                [1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
            }
            Kernel::SpmvCoo => [0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            Kernel::SpmmCsr { .. } => [1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
            // Every bin element is written once and read back once.
            Kernel::SpmvBlocked { .. } => [1, 1, 1, 0, 1, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0],
            // `C`'s `rows + 1` offsets have no array (the trace never
            // writes them); the bound counts them as a second stream of
            // `A`'s, which is as long. The accumulator is not counted.
            Kernel::SpGemmGustavson | Kernel::SpGemmClusterWise => {
                let c_offsets = u64::from(product.is_some());
                [1 + c_offsets, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1]
            }
        };
        let elems = [
            offsets,
            nnz,
            nnz,
            nnz,
            cols,
            rows,
            cols * k,
            rows * k,
            2 * nnz,
            b_offsets,
            b_nnz,
            b_nnz,
            acc,
            c_nnz,
            c_nnz,
        ];
        std::array::from_fn(|i| Region {
            elems: elems[i],
            streams: streams[i],
        })
    }

    /// Compulsory bytes of the address map [`Kernel::regions`] gives:
    /// every array's length times its streams.
    fn compulsory_bytes_shaped(&self, a: Shape, product: Option<(Shape, u64)>) -> u64 {
        let regions = self.regions(a, product);
        regions.iter().map(|r| r.elems * r.streams).sum::<u64>() * ELEM_BYTES
    }
}

impl Kernel {
    /// Short display name matching the paper's table headers.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Kernel::SpmvCsr => "SpMV-CSR".to_string(),
            Kernel::SpmvCoo => "SpMV-COO".to_string(),
            Kernel::SpmmCsr { k } => format!("SpMM-CSR-{k}"),
            Kernel::SpmvCsrTiled { tile_cols } => format!("SpMV-CSR-T{tile_cols}"),
            Kernel::SpmvBlocked { bins } => format!("SpMV-PB{bins}"),
            Kernel::SpGemmGustavson => "SpGEMM".to_string(),
            Kernel::SpGemmClusterWise => "SpGEMM-CW".to_string(),
        }
    }

    /// The lowercase CLI spelling of this kernel — the exact inverse of
    /// [`kernel_by_name`], round-trip tested over every variant. Report
    /// JSON keeps the paper-style [`Kernel::name`]; this form is what
    /// `suite --kernels` accepts.
    #[must_use]
    pub fn cli_name(&self) -> String {
        match self {
            Kernel::SpmvCsr => "spmv-csr".to_string(),
            Kernel::SpmvCoo => "spmv-coo".to_string(),
            Kernel::SpmmCsr { k } => format!("spmm-{k}"),
            Kernel::SpmvCsrTiled { tile_cols } => format!("spmv-tiled-{tile_cols}"),
            Kernel::SpmvBlocked { bins } => format!("spmv-blocked-{bins}"),
            Kernel::SpGemmGustavson => "spgemm".to_string(),
            Kernel::SpGemmClusterWise => "spgemm-cluster".to_string(),
        }
    }

    /// `true` for the sparse × sparse kernels, whose second operand is
    /// another sparse matrix rather than a dense vector/block.
    #[must_use]
    pub fn is_spgemm(&self) -> bool {
        matches!(self, Kernel::SpGemmGustavson | Kernel::SpGemmClusterWise)
    }

    /// Compulsory DRAM traffic in bytes for an `n x n` matrix with `nnz`
    /// stored entries (§IV-B, extended per-kernel as Table IV requires:
    /// "the compulsory traffic is updated according to the kernel").
    ///
    /// * CSR SpMV: `X` + `Y` vectors (`2n`), `rowOffsets` (`n+1`),
    ///   `coords` + `values` (`2·nnz`).
    /// * COO SpMV: `X` + `Y` (`2n`), row + col + value triples (`3·nnz`).
    /// * CSR SpMM-k: dense input `B` and output `C` (`2·n·k`),
    ///   `rowOffsets` (`n+1`), `coords` + `values` (`2·nnz`).
    /// * Tiled SpMV: as CSR SpMV, but each of the `t` tiles carries its
    ///   own offsets array (`t·(n+1)`) — tiling's unavoidable metadata
    ///   cost even at perfect locality.
    /// * Blocked SpMV: phase 1 reads the CSC arrays (`(n+1) + 2·nnz`,
    ///   with one offset per column)
    ///   plus streaming `X` (`n`) and writes `2·nnz` bin elements;
    ///   phase 2 reads the `2·nnz` bin elements back and writes `Y`
    ///   (`n`) — blocking's 4·nnz streamed-element toll.
    /// * SpGEMM (self-multiply shape): both CSR operands streamed once
    ///   (`2·(n+1) + 4·nnz`). The output `C` traffic depends on
    ///   `nnz(C)`, which is not a function of shape alone, so this
    ///   shape-only form is an input-stream *lower bound*;
    ///   [`Kernel::compulsory_bytes_pair`] adds the exact output term.
    ///
    /// This is the square case of the bound for a concrete matrix
    /// ([`Kernel::compulsory_bytes_for`]), where `X` holds `n_cols`
    /// elements, SpMM's `B` holds `n_cols·k`, and tiles split the
    /// `n_cols` columns.
    #[must_use]
    pub fn compulsory_bytes(&self, n: u64, nnz: u64) -> u64 {
        let square = Shape {
            rows: n,
            cols: n,
            nnz,
        };
        self.compulsory_bytes_shaped(square, None)
    }

    /// Compulsory traffic for a concrete matrix. For the SpGEMM kernels
    /// this is the exact self-multiply (`B = A`) value including the
    /// output stream — see [`Kernel::compulsory_bytes_pair`].
    #[must_use]
    pub fn compulsory_bytes_for(&self, a: &CsrMatrix) -> u64 {
        if self.is_spgemm() {
            // Self-multiply on a square matrix cannot mismatch shapes.
            if let Ok(bytes) = self.compulsory_bytes_pair(a, a) {
                return bytes;
            }
        }
        self.compulsory_bytes_shaped(Shape::of(a), None)
    }

    /// Compulsory traffic for a concrete operand pair. For the SpGEMM
    /// kernels this streams each CSR array exactly once: read `A`
    /// (`(n_A+1) + 2·nnz_A`), read `B` (`(n_B+1) + 2·nnz_B`), write `C`
    /// (`(n_A+1) + 2·nnz_C`), with `nnz(C)` from a symbolic Gustavson
    /// pass ([`crate::kernels::spgemm_profile`]). Other kernels ignore
    /// `b` and fall back to [`Kernel::compulsory_bytes_for`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when an SpGEMM pair
    /// has `a.n_cols() != b.n_rows()`.
    pub fn compulsory_bytes_pair(&self, a: &CsrMatrix, b: &CsrMatrix) -> Result<u64, SparseError> {
        if !self.is_spgemm() {
            return Ok(self.compulsory_bytes_for(a));
        }
        let profile = crate::kernels::spgemm_profile(a, b)?;
        let product = (Shape::of(b), profile.result_nnz);
        Ok(self.compulsory_bytes_shaped(Shape::of(a), Some(product)))
    }

    /// Floating-point operations performed (one multiply + one add per
    /// stored entry, per dense column). For SpGEMM the true count is
    /// data-dependent (`2·Σ_r Σ_{k∈A_r} nnz(B_k)`); the shape-only form
    /// here is the `2·nnz` lower bound reached when every `B` row is a
    /// singleton.
    #[must_use]
    pub fn flops(&self, nnz: u64) -> u64 {
        match *self {
            Kernel::SpmvCsr
            | Kernel::SpmvCoo
            | Kernel::SpmvCsrTiled { .. }
            | Kernel::SpmvBlocked { .. }
            | Kernel::SpGemmGustavson
            | Kernel::SpGemmClusterWise => 2 * nnz,
            Kernel::SpmmCsr { k } => 2 * nnz * u64::from(k),
        }
    }

    /// Upper bound on arithmetic intensity (FLOP per DRAM byte) at
    /// compulsory traffic. For SpMV this tends to the paper's 0.25
    /// theoretical bound as `nnz >> n`.
    #[must_use]
    pub fn peak_arithmetic_intensity(&self, n: u64, nnz: u64) -> f64 {
        self.flops(nnz) as f64 / self.compulsory_bytes(n, nnz) as f64
    }
}

/// All kernel configurations evaluated in the paper, in presentation order.
#[must_use]
pub fn paper_kernels() -> Vec<Kernel> {
    vec![
        Kernel::SpmvCsr,
        Kernel::SpmvCoo,
        Kernel::SpmmCsr { k: 4 },
        Kernel::SpmmCsr { k: 256 },
    ]
}

/// CLI spellings accepted by [`kernel_by_name`] (mirroring
/// `reorder::TECHNIQUE_NAMES`), for help text and `suite --list`.
/// `<k>`, `<w>` and `<b>` stand for a positive integer parameter.
pub const KERNEL_NAMES: &[&str] = &[
    "spmv-csr",
    "spmv-coo",
    "spmm-<k>",
    "spmv-tiled-<w>",
    "spmv-blocked-<b>",
    "spgemm",
    "spgemm-cluster",
];

/// Resolves a (case-insensitive) CLI kernel name to a [`Kernel`]. This
/// registry is the single source of kernel spellings: `cli.rs` parsing,
/// `suite --list`, and [`Kernel::cli_name`] all go through it. `"spmv"`
/// is accepted as an alias for `"spmv-csr"` and `"spgemm-cw"` for
/// `"spgemm-cluster"`. Returns `None` for unknown names and
/// non-positive parameters.
#[must_use]
pub fn kernel_by_name(name: &str) -> Option<Kernel> {
    let lower = name.to_ascii_lowercase();
    let positive = |s: &str| s.parse::<u32>().ok().filter(|&v| v > 0);
    match lower.as_str() {
        "spmv" | "spmv-csr" => Some(Kernel::SpmvCsr),
        "spmv-coo" => Some(Kernel::SpmvCoo),
        "spgemm" => Some(Kernel::SpGemmGustavson),
        "spgemm-cluster" | "spgemm-cw" => Some(Kernel::SpGemmClusterWise),
        _ => {
            if let Some(k) = lower.strip_prefix("spmm-") {
                positive(k).map(|k| Kernel::SpmmCsr { k })
            } else if let Some(w) = lower.strip_prefix("spmv-tiled-") {
                positive(w).map(|tile_cols| Kernel::SpmvCsrTiled { tile_cols })
            } else if let Some(b) = lower.strip_prefix("spmv-blocked-") {
                positive(b).map(|bins| Kernel::SpmvBlocked { bins })
            } else {
                None
            }
        }
    }
}

/// Parses a comma-separated kernel list (`spgemm,spmv-csr`) through
/// [`kernel_by_name`], preserving order.
///
/// # Errors
///
/// Returns a human-readable message naming the first unknown kernel, or
/// rejecting an empty list.
pub fn parse_kernel_list(list: &str) -> Result<Vec<Kernel>, String> {
    let mut kernels = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match kernel_by_name(name) {
            Some(k) => kernels.push(k),
            None => {
                return Err(format!(
                    "unknown kernel {name:?} (expected one of: {})",
                    KERNEL_NAMES.join(", ")
                ))
            }
        }
    }
    if kernels.is_empty() {
        return Err("kernel list is empty".to_string());
    }
    Ok(kernels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_csr_formula_matches_paper() {
        // (2*N*4) + ((N+1+NZ+NZ)*4)
        let n = 1000u64;
        let nnz = 5000u64;
        assert_eq!(
            Kernel::SpmvCsr.compulsory_bytes(n, nnz),
            2 * n * 4 + (n + 1 + 2 * nnz) * 4
        );
    }

    #[test]
    fn coo_traffic_exceeds_csr_for_same_matrix() {
        // COO stores an explicit row index per nnz; once nnz > n+1 the COO
        // compulsory traffic is strictly larger.
        let (n, nnz) = (100u64, 500u64);
        assert!(
            Kernel::SpmvCoo.compulsory_bytes(n, nnz) > Kernel::SpmvCsr.compulsory_bytes(n, nnz)
        );
    }

    #[test]
    fn spmm_scales_vector_traffic_by_k() {
        let (n, nnz) = (100u64, 500u64);
        let t4 = Kernel::SpmmCsr { k: 4 }.compulsory_bytes(n, nnz);
        let t256 = Kernel::SpmmCsr { k: 256 }.compulsory_bytes(n, nnz);
        assert_eq!(t256 - t4, 2 * n * (256 - 4) * 4);
    }

    #[test]
    fn spmm_k1_equals_spmv_csr_with_k_dense_vectors() {
        let (n, nnz) = (100u64, 500u64);
        // k = 1 SpMM moves exactly what SpMV moves.
        assert_eq!(
            Kernel::SpmmCsr { k: 1 }.compulsory_bytes(n, nnz),
            Kernel::SpmvCsr.compulsory_bytes(n, nnz)
        );
    }

    #[test]
    fn arithmetic_intensity_approaches_quarter_flop_per_byte() {
        // nnz >> n: traffic per nnz -> 8B, flops per nnz = 2 => 0.25.
        let ai = Kernel::SpmvCsr.peak_arithmetic_intensity(1000, 1_000_000);
        assert!((ai - 0.25).abs() < 0.01, "ai = {ai}");
    }

    #[test]
    fn spmm_intensity_grows_with_k() {
        let ai4 = Kernel::SpmmCsr { k: 4 }.peak_arithmetic_intensity(1000, 100_000);
        let ai256 = Kernel::SpmmCsr { k: 256 }.peak_arithmetic_intensity(1000, 100_000);
        assert!(ai256 > ai4);
    }

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(Kernel::SpmvCsr.name(), "SpMV-CSR");
        assert_eq!(Kernel::SpmvCoo.name(), "SpMV-COO");
        assert_eq!(Kernel::SpmmCsr { k: 256 }.name(), "SpMM-CSR-256");
        assert_eq!(paper_kernels().len(), 4);
    }

    #[test]
    fn compulsory_bytes_for_uses_matrix_shape() {
        let m = CsrMatrix::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]).unwrap();
        assert_eq!(
            Kernel::SpmvCsr.compulsory_bytes_for(&m),
            Kernel::SpmvCsr.compulsory_bytes(2, 2)
        );
        // A 1x400 row gathering every 16th column: 2 offsets, 25 coords,
        // 25 values, 400 `X` and 1 `Y` element.
        let cols: Vec<u32> = (0..25).map(|i| 16 * i).collect();
        let wide = CsrMatrix::new(1, 400, vec![0, 25], cols, vec![1.0; 25]).unwrap();
        assert_eq!(Kernel::SpmvCsr.compulsory_bytes_for(&wide), 453 * 4);
        assert_eq!(
            Kernel::SpmvCsr.compulsory_bytes_pair(&wide, &wide),
            Ok(453 * 4)
        );
        // The blocked kernel reads the CSC arrays: 401 column offsets,
        // 25 rows and 25 values, 400 `X`, 1 `Y` and 4·25 bin elements.
        let blocked = Kernel::SpmvBlocked { bins: 2 };
        assert_eq!(blocked.compulsory_bytes_for(&wide), 952 * 4);
        assert_eq!(
            blocked.compulsory_bytes_for(&m),
            blocked.compulsory_bytes(2, 2)
        );
    }

    /// `(kernel, [compulsory_bytes_for, compulsory_bytes_pair(a, a)] on
    /// the square, 1 x 400 and 400 x 1 matrices of `pinned_shapes`)`;
    /// `None` where the pair is rejected.
    const PINNED: &[(Kernel, [[Option<u64>; 2]; 3])] = &[
        (
            Kernel::SpmvCsr,
            [
                [Some(80), Some(80)],
                [Some(1812), Some(1812)],
                [Some(3408), Some(3408)],
            ],
        ),
        (
            Kernel::SpmvCoo,
            [
                [Some(84), Some(84)],
                [Some(1904), Some(1904)],
                [Some(1904), Some(1904)],
            ],
        ),
        (
            Kernel::SpmmCsr { k: 1 },
            [
                [Some(80), Some(80)],
                [Some(1812), Some(1812)],
                [Some(3408), Some(3408)],
            ],
        ),
        (
            Kernel::SpmmCsr { k: 4 },
            [
                [Some(152), Some(152)],
                [Some(6624), Some(6624)],
                [Some(8220), Some(8220)],
            ],
        ),
        (
            Kernel::SpmmCsr { k: 256 },
            [
                [Some(6200), Some(6200)],
                [Some(410832), Some(410832)],
                [Some(412428), Some(412428)],
            ],
        ),
        (
            Kernel::SpmvCsrTiled { tile_cols: 8 },
            [
                [Some(80), Some(80)],
                [Some(2204), Some(2204)],
                [Some(3408), Some(3408)],
            ],
        ),
        (
            Kernel::SpmvBlocked { bins: 2 },
            [
                [Some(160), Some(160)],
                [Some(3808), Some(3808)],
                [Some(2212), Some(2212)],
            ],
        ),
        (
            Kernel::SpGemmGustavson,
            [
                [Some(192), Some(192)],
                [Some(416), None],
                [Some(3608), None],
            ],
        ),
        (
            Kernel::SpGemmClusterWise,
            [
                [Some(192), Some(192)],
                [Some(416), None],
                [Some(3608), None],
            ],
        ),
    ];

    /// A 3 x 3 matrix whose square has 8 entries, a 1 x 400 row reading
    /// every 16th column, and its 400 x 1 transpose.
    fn pinned_shapes() -> [CsrMatrix; 3] {
        let square =
            CsrMatrix::new(3, 3, vec![0, 2, 4, 5], vec![0, 1, 1, 2, 0], vec![1.0; 5]).unwrap();
        let cols: Vec<u32> = (0..25).map(|i| 16 * i).collect();
        let wide = CsrMatrix::new(1, 400, vec![0, 25], cols, vec![1.0; 25]).unwrap();
        let tall = wide.transpose();
        [square, wide, tall]
    }

    #[test]
    fn compulsory_bytes_are_pinned_for_every_kernel_and_shape() {
        let shapes = pinned_shapes();
        let got: Vec<(Kernel, [[Option<u64>; 2]; 3])> = [
            Kernel::SpmvCsr,
            Kernel::SpmvCoo,
            Kernel::SpmmCsr { k: 1 },
            Kernel::SpmmCsr { k: 4 },
            Kernel::SpmmCsr { k: 256 },
            Kernel::SpmvCsrTiled { tile_cols: 8 },
            Kernel::SpmvBlocked { bins: 2 },
            Kernel::SpGemmGustavson,
            Kernel::SpGemmClusterWise,
        ]
        .into_iter()
        .map(|k| {
            (
                k,
                shapes.each_ref().map(|a| {
                    [
                        Some(k.compulsory_bytes_for(a)),
                        k.compulsory_bytes_pair(a, a).ok(),
                    ]
                }),
            )
        })
        .collect();
        assert!(got == PINNED, "compulsory bytes drifted; got\n{got:?}");
    }

    #[test]
    fn every_kernel_variant_round_trips_through_the_registry() {
        let variants = [
            Kernel::SpmvCsr,
            Kernel::SpmvCoo,
            Kernel::SpmmCsr { k: 4 },
            Kernel::SpmmCsr { k: 256 },
            Kernel::SpmvCsrTiled { tile_cols: 4096 },
            Kernel::SpmvBlocked { bins: 16 },
            Kernel::SpGemmGustavson,
            Kernel::SpGemmClusterWise,
        ];
        for k in variants {
            assert_eq!(
                kernel_by_name(&k.cli_name()),
                Some(k),
                "{} must round-trip",
                k.cli_name()
            );
        }
    }

    #[test]
    fn registry_accepts_aliases_and_rejects_garbage() {
        assert_eq!(kernel_by_name("SPMV"), Some(Kernel::SpmvCsr));
        assert_eq!(kernel_by_name("spgemm-cw"), Some(Kernel::SpGemmClusterWise));
        assert_eq!(kernel_by_name("spmm-0"), None);
        assert_eq!(kernel_by_name("spmv-blocked-0"), None);
        assert_eq!(kernel_by_name("gemm"), None);
        let parsed = parse_kernel_list("spgemm, spgemm-cluster").unwrap();
        assert_eq!(
            parsed,
            vec![Kernel::SpGemmGustavson, Kernel::SpGemmClusterWise]
        );
        assert!(parse_kernel_list("spgemm,frobnicate")
            .unwrap_err()
            .contains("frobnicate"));
        assert!(parse_kernel_list(" , ").is_err());
    }

    #[test]
    fn spgemm_pair_traffic_counts_each_stream_once() {
        // A = [[1, 1], [0, 1]]; A·A has nnz(C) = 3 (row 0 -> {0, 1},
        // row 1 -> {1}).
        let a = CsrMatrix::new(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0; 3]).unwrap();
        let bytes = Kernel::SpGemmGustavson
            .compulsory_bytes_pair(&a, &a)
            .unwrap();
        let read_a = 3 + 2 * 3;
        let read_b = 3 + 2 * 3;
        let write_c = 3 + 2 * 3;
        assert_eq!(bytes, (read_a + read_b + write_c) * ELEM_BYTES);
        assert_eq!(Kernel::SpGemmGustavson.compulsory_bytes_for(&a), bytes);
        // The shape-only form stays an input-stream lower bound.
        assert!(Kernel::SpGemmGustavson.compulsory_bytes(2, 3) < bytes);
        // Non-SpGEMM kernels ignore the pair operand.
        assert_eq!(
            Kernel::SpmvCsr.compulsory_bytes_pair(&a, &a).unwrap(),
            Kernel::SpmvCsr.compulsory_bytes_for(&a)
        );
    }

    #[test]
    fn spgemm_pair_rejects_shape_mismatch() {
        let a = CsrMatrix::new(1, 2, vec![0, 1], vec![1], vec![1.0]).unwrap();
        let b = CsrMatrix::new(1, 2, vec![0, 1], vec![0], vec![1.0]).unwrap();
        assert!(Kernel::SpGemmGustavson
            .compulsory_bytes_pair(&a, &b)
            .is_err());
    }
}
