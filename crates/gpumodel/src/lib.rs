//! Analytic performance model of the NVIDIA A6000 (§IV-B of the paper).
//!
//! The paper's hardware-limit methodology needs three quantities, all
//! provided here:
//!
//! 1. **Ideal run time** — compulsory DRAM traffic moved at the measured
//!    peak bandwidth ("672 GB/s as determined using BabelStream"):
//!    [`GpuSpec::ideal_time`].
//! 2. **Estimated run time** from simulated DRAM traffic:
//!    [`GpuSpec::estimate_time`]. SpMV is far below the A6000's
//!    compute roofline (arithmetic intensity ≤ 0.25 vs. the ~50 needed),
//!    so time is bandwidth-bound; non-compulsory transactions are
//!    dependent fine-grained fetches that achieve lower effective
//!    bandwidth, modelled by a linear penalty (see
//!    [`GpuSpec::fine_grain_penalty`]) calibrated against the paper's
//!    Fig. 2 means.
//! 3. **Pre-processing amortization** — how many kernel iterations pay
//!    for a reordering (§VI-C): [`GpuSpec::amortization_iterations`].
//!
//! # Example
//!
//! ```
//! use commorder_gpumodel::GpuSpec;
//! use commorder_sparse::traffic::Kernel;
//!
//! let gpu = GpuSpec::a6000();
//! let ideal = gpu.ideal_time(Kernel::SpmvCsr, 1_000_000, 10_000_000);
//! let measured = gpu.estimate_time(
//!     Kernel::SpmvCsr,
//!     1_000_000,
//!     10_000_000,
//!     2 * Kernel::SpmvCsr.compulsory_bytes(1_000_000, 10_000_000),
//! );
//! assert!(measured > ideal);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::expect_used, clippy::panic)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use commorder_cachesim::CacheConfig;
use commorder_sparse::traffic::Kernel;

/// GPU platform description (Table I) plus the run-time model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Platform name for report headers.
    pub name: &'static str,
    /// Theoretical peak DRAM bandwidth in bytes/second.
    pub peak_bandwidth: f64,
    /// Achievable bandwidth (BabelStream-measured) in bytes/second.
    pub measured_bandwidth: f64,
    /// Peak single-precision throughput in FLOP/s.
    pub peak_flops_sp: f64,
    /// Main-memory capacity in bytes.
    pub memory_capacity: u64,
    /// L2 geometry the cache simulator should use.
    pub l2: CacheConfig,
    /// Linear penalty for non-compulsory DRAM transactions: estimated
    /// normalized run time is `T + p·(T − 1)` where `T` is traffic
    /// normalized to compulsory. `p = 0.9` reproduces the paper's Fig. 2
    /// mean run-time ratios from its mean traffic ratios to within a few
    /// percent (RABBIT 1.27× traffic → 1.51× time vs. the paper's 1.54×).
    pub fine_grain_penalty: f64,
}

impl GpuSpec {
    /// The NVIDIA A6000 exactly as in Table I.
    #[must_use]
    pub fn a6000() -> Self {
        GpuSpec {
            name: "NVIDIA A6000",
            peak_bandwidth: 768.0e9,
            measured_bandwidth: 672.0e9,
            peak_flops_sp: 38.7e12,
            memory_capacity: 48 * 1024 * 1024 * 1024,
            l2: CacheConfig::a6000(),
            fine_grain_penalty: 0.9,
        }
    }

    /// The A6000 with its L2 scaled down 48x (128 KiB), matching the
    /// scaled synthetic corpus. Bandwidth constants are unchanged — every
    /// reported quantity is a ratio to ideal, so absolute bandwidth
    /// cancels.
    #[must_use]
    pub fn a6000_scaled() -> Self {
        GpuSpec {
            name: "NVIDIA A6000 (L2 scaled 1/48)",
            l2: CacheConfig::a6000_scaled(),
            ..GpuSpec::a6000()
        }
    }

    /// Tiny-L2 variant for unit tests and the mini corpus.
    #[must_use]
    pub fn test_scale() -> Self {
        GpuSpec {
            name: "test GPU (8 KiB L2)",
            l2: CacheConfig::test_scale(),
            ..GpuSpec::a6000()
        }
    }

    /// Arithmetic intensity (FLOP/byte) above which a kernel becomes
    /// compute-bound on this platform (~50 for the A6000, §IV-B).
    #[must_use]
    pub fn compute_bound_intensity(&self) -> f64 {
        self.peak_flops_sp / self.measured_bandwidth
    }

    /// `true` when the kernel is memory-bound at compulsory traffic
    /// (always the case for SpMV: intensity ≤ 0.25 « 50).
    #[must_use]
    pub fn is_memory_bound(&self, kernel: Kernel, n: u64, nnz: u64) -> bool {
        kernel.peak_arithmetic_intensity(n, nnz) < self.compute_bound_intensity()
    }

    /// Ideal (minimum) run time in seconds: compulsory traffic at
    /// measured bandwidth (§IV-B).
    #[must_use]
    pub fn ideal_time(&self, kernel: Kernel, n: u64, nnz: u64) -> f64 {
        self.ideal_time_from_compulsory(kernel.compulsory_bytes(n, nnz))
    }

    /// Ideal run time from a precomputed compulsory-traffic figure —
    /// the workload-agnostic core of [`GpuSpec::ideal_time`]. Two-operand
    /// kernels (SpGEMM) land here: their compulsory traffic depends on
    /// the operand pair ([`Kernel::compulsory_bytes_pair`]), not on
    /// `(n, nnz)` alone.
    ///
    /// [`Kernel::compulsory_bytes_pair`]:
    /// commorder_sparse::traffic::Kernel::compulsory_bytes_pair
    #[must_use]
    pub fn ideal_time_from_compulsory(&self, compulsory_bytes: u64) -> f64 {
        compulsory_bytes as f64 / self.measured_bandwidth
    }

    /// Estimated run time in seconds given simulated DRAM traffic.
    ///
    /// `T_norm = dram_bytes / compulsory`; estimated time is
    /// `ideal · (T_norm + p·(T_norm − 1))` (see
    /// [`GpuSpec::fine_grain_penalty`]). Traffic below compulsory (possible
    /// when many rows are empty — the paper's wiki-Talk footnote) is
    /// passed through without penalty.
    #[must_use]
    pub fn estimate_time(&self, kernel: Kernel, n: u64, nnz: u64, dram_bytes: u64) -> f64 {
        self.estimate_time_from_compulsory(kernel.compulsory_bytes(n, nnz), dram_bytes)
    }

    /// [`GpuSpec::estimate_time`] from a precomputed compulsory-traffic
    /// figure (see [`GpuSpec::ideal_time_from_compulsory`]).
    #[must_use]
    pub fn estimate_time_from_compulsory(&self, compulsory_bytes: u64, dram_bytes: u64) -> f64 {
        let ideal = self.ideal_time_from_compulsory(compulsory_bytes);
        let t_norm = dram_bytes as f64 / compulsory_bytes as f64;
        if t_norm <= 1.0 {
            return ideal * t_norm;
        }
        ideal * (t_norm + self.fine_grain_penalty * (t_norm - 1.0))
    }

    /// Run time normalized to ideal (the y-axis of Fig. 3, Tables II/IV).
    #[must_use]
    pub fn normalized_time(&self, kernel: Kernel, n: u64, nnz: u64, dram_bytes: u64) -> f64 {
        self.normalized_time_from_compulsory(kernel.compulsory_bytes(n, nnz), dram_bytes)
    }

    /// [`GpuSpec::normalized_time`] from a precomputed compulsory-traffic
    /// figure (see [`GpuSpec::ideal_time_from_compulsory`]).
    #[must_use]
    pub fn normalized_time_from_compulsory(&self, compulsory_bytes: u64, dram_bytes: u64) -> f64 {
        self.estimate_time_from_compulsory(compulsory_bytes, dram_bytes)
            / self.ideal_time_from_compulsory(compulsory_bytes)
    }

    /// Kernel iterations needed to amortize a reordering's pre-processing
    /// cost, taking the matrix to start in `baseline_bytes`-traffic order
    /// (§VI-C considers RANDOM the starting order). `None` when the
    /// reordering does not improve traffic (never amortizes).
    #[must_use]
    pub fn amortization_iterations(
        &self,
        kernel: Kernel,
        n: u64,
        nnz: u64,
        preprocess_seconds: f64,
        baseline_bytes: u64,
        reordered_bytes: u64,
    ) -> Option<f64> {
        let t_base = self.estimate_time(kernel, n, nnz, baseline_bytes);
        let t_new = self.estimate_time(kernel, n, nnz, reordered_bytes);
        let saving = t_base - t_new;
        if saving <= 0.0 {
            return None;
        }
        Some(preprocess_seconds / saving)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 1_000_000;
    const NNZ: u64 = 20_000_000;

    #[test]
    fn a6000_matches_table1() {
        let g = GpuSpec::a6000();
        assert_eq!(g.peak_bandwidth, 768.0e9);
        assert_eq!(g.measured_bandwidth, 672.0e9);
        assert_eq!(g.l2.capacity_bytes, 6 * 1024 * 1024);
        assert_eq!(g.memory_capacity, 48 << 30);
        // Every stock spec, scaled ones included, is physically sane.
        for g in [g, GpuSpec::a6000_scaled(), GpuSpec::test_scale()] {
            for rate in [g.peak_bandwidth, g.measured_bandwidth, g.peak_flops_sp] {
                assert!(rate.is_finite() && rate > 0.0, "{}: {rate}", g.name);
            }
            assert!(g.measured_bandwidth <= g.peak_bandwidth, "{}", g.name);
            assert!((0.0..=5.0).contains(&g.fine_grain_penalty), "{}", g.name);
            assert!(g.l2.capacity_bytes <= g.memory_capacity, "{}", g.name);
            let set_bytes = u64::from(g.l2.line_bytes) * u64::from(g.l2.associativity);
            assert!(g.l2.capacity_bytes.is_multiple_of(set_bytes), "{}", g.name);
        }
    }

    #[test]
    fn compute_bound_threshold_is_about_fifty() {
        let t = GpuSpec::a6000().compute_bound_intensity();
        assert!((50.0..=65.0).contains(&t), "threshold = {t}");
    }

    #[test]
    fn spmv_is_memory_bound() {
        let g = GpuSpec::a6000();
        assert!(g.is_memory_bound(Kernel::SpmvCsr, N, NNZ));
        // Even SpMM-256 stays memory-bound (intensity ~ a few FLOP/byte).
        assert!(g.is_memory_bound(Kernel::SpmmCsr { k: 256 }, N, NNZ));
    }

    #[test]
    fn ideal_time_is_compulsory_over_bandwidth() {
        let g = GpuSpec::a6000();
        let t = g.ideal_time(Kernel::SpmvCsr, N, NNZ);
        let expect = Kernel::SpmvCsr.compulsory_bytes(N, NNZ) as f64 / 672.0e9;
        assert!((t - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn estimate_at_compulsory_equals_ideal() {
        let g = GpuSpec::a6000();
        let compulsory = Kernel::SpmvCsr.compulsory_bytes(N, NNZ);
        let t = g.normalized_time(Kernel::SpmvCsr, N, NNZ, compulsory);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn model_reproduces_paper_fig2_means() {
        // Traffic means from Fig. 2 -> run-time means from its caption.
        let g = GpuSpec::a6000();
        let compulsory = Kernel::SpmvCsr.compulsory_bytes(N, NNZ) as f64;
        let check = |traffic_ratio: f64, paper_time_ratio: f64, tolerance: f64| {
            let t = g.normalized_time(Kernel::SpmvCsr, N, NNZ, (traffic_ratio * compulsory) as u64);
            assert!(
                (t - paper_time_ratio).abs() / paper_time_ratio < tolerance,
                "traffic {traffic_ratio} -> model {t} vs paper {paper_time_ratio}"
            );
        };
        check(1.27, 1.54, 0.05); // RABBIT
        check(1.29, 1.56, 0.05); // GORDER
        check(1.48, 1.94, 0.05); // DBG
        check(1.54, 1.96, 0.05); // ORIGINAL
        check(1.61, 2.17, 0.05); // DEGSORT
        check(3.36, 6.21, 0.15); // RANDOM (heaviest extrapolation)
    }

    #[test]
    fn sub_compulsory_traffic_passes_through() {
        // The wiki-Talk case: overestimated ideal -> ratio < 1.
        let g = GpuSpec::a6000();
        let compulsory = Kernel::SpmvCsr.compulsory_bytes(N, NNZ);
        let t = g.normalized_time(Kernel::SpmvCsr, N, NNZ, compulsory * 9 / 10);
        assert!((t - 0.9).abs() < 1e-6);
    }

    #[test]
    fn amortization_matches_hand_computation() {
        let g = GpuSpec::a6000();
        let compulsory = Kernel::SpmvCsr.compulsory_bytes(N, NNZ);
        let iters = g
            .amortization_iterations(
                Kernel::SpmvCsr,
                N,
                NNZ,
                1.0, // one second of pre-processing
                3 * compulsory,
                compulsory,
            )
            .unwrap();
        let t3 = g.estimate_time(Kernel::SpmvCsr, N, NNZ, 3 * compulsory);
        let t1 = g.estimate_time(Kernel::SpmvCsr, N, NNZ, compulsory);
        assert!((iters - 1.0 / (t3 - t1)).abs() < 1e-6);
        assert!(iters > 0.0);
    }

    #[test]
    fn no_improvement_never_amortizes() {
        let g = GpuSpec::a6000();
        let c = Kernel::SpmvCsr.compulsory_bytes(N, NNZ);
        assert_eq!(
            g.amortization_iterations(Kernel::SpmvCsr, N, NNZ, 1.0, c, c),
            None
        );
        assert_eq!(
            g.amortization_iterations(Kernel::SpmvCsr, N, NNZ, 1.0, c, 2 * c),
            None
        );
    }

    #[test]
    fn from_compulsory_variants_match_the_kernel_forms() {
        // The SpGEMM entry points are pure delegation targets: feeding
        // them a kernel's own compulsory figure reproduces the original
        // methods bit-for-bit (goldens depend on this).
        let g = GpuSpec::a6000();
        let c = Kernel::SpmvCsr.compulsory_bytes(N, NNZ);
        assert_eq!(
            g.ideal_time(Kernel::SpmvCsr, N, NNZ),
            g.ideal_time_from_compulsory(c)
        );
        assert_eq!(
            g.estimate_time(Kernel::SpmvCsr, N, NNZ, 3 * c),
            g.estimate_time_from_compulsory(c, 3 * c)
        );
        assert_eq!(
            g.normalized_time(Kernel::SpmvCsr, N, NNZ, 3 * c),
            g.normalized_time_from_compulsory(c, 3 * c)
        );
    }

    #[test]
    fn scaled_spec_only_changes_l2() {
        let full = GpuSpec::a6000();
        let scaled = GpuSpec::a6000_scaled();
        assert_eq!(full.measured_bandwidth, scaled.measured_bandwidth);
        assert_eq!(full.l2.capacity_bytes, scaled.l2.capacity_bytes * 48);
    }
}

/// Energy constants and accounting (architecture-paper style: DRAM
/// access energy dominates memory-bound kernels, so traffic reduction is
/// also energy reduction).
///
/// Defaults use round published figures for a GDDR6-class part: ~60 pJ
/// per DRAM byte (I/O + array), ~5 pJ per L2-SRAM byte, ~1 pJ per
/// single-precision FLOP. Absolute joules are indicative; *ratios*
/// between orderings are the meaningful output, mirroring the traffic
/// methodology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// DRAM energy per byte moved (J/B).
    pub dram_j_per_byte: f64,
    /// L2 energy per byte accessed (J/B).
    pub l2_j_per_byte: f64,
    /// Energy per floating-point operation (J).
    pub j_per_flop: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            dram_j_per_byte: 60e-12,
            l2_j_per_byte: 5e-12,
            j_per_flop: 1e-12,
        }
    }
}

/// Energy breakdown of one kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// DRAM transfer energy (J).
    pub dram: f64,
    /// L2 access energy (J).
    pub l2: f64,
    /// Arithmetic energy (J).
    pub compute: f64,
}

impl EnergyBreakdown {
    /// Total energy (J).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.dram + self.l2 + self.compute
    }

    /// Fraction of total energy spent on DRAM transfers.
    #[must_use]
    pub fn dram_fraction(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.dram / self.total()
        }
    }
}

impl EnergyModel {
    /// Energy for a kernel execution given its simulated DRAM traffic and
    /// L2 access count (`l2_accesses` x line bytes approximates L2-moved
    /// bytes; every access touches the L2 in this single-level model).
    #[must_use]
    pub fn energy(
        &self,
        kernel: Kernel,
        nnz: u64,
        dram_bytes: u64,
        l2_accesses: u64,
        line_bytes: u32,
    ) -> EnergyBreakdown {
        EnergyBreakdown {
            dram: dram_bytes as f64 * self.dram_j_per_byte,
            l2: (l2_accesses * u64::from(line_bytes)) as f64 * self.l2_j_per_byte,
            compute: kernel.flops(nnz) as f64 * self.j_per_flop,
        }
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;

    #[test]
    fn dram_dominates_memory_bound_kernels() {
        // SpMV at compulsory traffic: DRAM energy must dwarf compute.
        let (n, nnz) = (1_000_000u64, 20_000_000u64);
        let bytes = Kernel::SpmvCsr.compulsory_bytes(n, nnz);
        let e = EnergyModel::default().energy(Kernel::SpmvCsr, nnz, bytes, 4 * nnz, 32);
        assert!(
            e.dram > e.compute * 10.0,
            "dram {} vs compute {}",
            e.dram,
            e.compute
        );
        assert!(e.dram_fraction() > 0.3);
        assert!(e.total() > 0.0);
    }

    #[test]
    fn traffic_reduction_is_energy_reduction() {
        let (n, nnz) = (100_000u64, 1_000_000u64);
        let compulsory = Kernel::SpmvCsr.compulsory_bytes(n, nnz);
        let model = EnergyModel::default();
        let bad = model.energy(Kernel::SpmvCsr, nnz, 3 * compulsory, 4 * nnz, 32);
        let good = model.energy(Kernel::SpmvCsr, nnz, compulsory, 4 * nnz, 32);
        assert!(bad.total() > good.total());
        // L2 + compute identical; the whole difference is DRAM.
        assert!((bad.l2 - good.l2).abs() < 1e-15);
        assert!((bad.compute - good.compute).abs() < 1e-15);
    }

    #[test]
    fn zero_work_zero_energy() {
        let e = EnergyModel::default().energy(Kernel::SpmvCsr, 0, 0, 0, 32);
        assert_eq!(e.total(), 0.0);
        assert_eq!(e.dram_fraction(), 0.0);
    }
}
