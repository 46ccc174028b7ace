//! Belady golden: every `CacheStats` field of `simulate_belady` on a
//! fixed set of sources.
//!
//! The rows cover each way the oracle learns the trace length: kernel
//! traces with their `len_hint` withheld, so a counting replay finds it
//! (SpMV-CSR on three mini-tier corpus matrices, sequential), the same
//! kind of trace with its exact hint (interleaved), an SpGEMM trace whose
//! `len_hint` is exact, and an in-memory slice. The values were recorded
//! from the forward-patching next-use build that preceded the backward
//! in-place one, so a change to either pass that moves one eviction,
//! dead line or write-back fails here by name.

use commorder_cachesim::belady::simulate_belady;
use commorder_cachesim::source::{KernelTrace, TraceSource};
use commorder_cachesim::spgemm::SpGemmTrace;
use commorder_cachesim::trace::ExecutionModel;
use commorder_cachesim::{Access, CacheConfig, CacheStats};
use commorder_sparse::traffic::Kernel;
use commorder_sparse::CsrMatrix;
use commorder_synth::corpus;

fn mini(name: &str) -> CsrMatrix {
    corpus::mini()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is a mini-tier entry"))
        .generate()
        .expect("mini-tier entries generate")
}

/// A deterministic mixed read/write slice over a few thousand lines.
fn slice_trace() -> Vec<Access> {
    let mut state = 0x5EED_u64;
    (0..20_000)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            Access::new((state >> 33) % (4096 * 32), state.is_multiple_of(5))
        })
        .collect()
}

/// Stats from the fields in declaration order: accesses, hits, fill
/// misses, write-allocate misses, compulsory misses, evictions, dead
/// lines, write-backs, fills (32-byte lines).
fn stats(f: [u64; 9]) -> CacheStats {
    CacheStats {
        accesses: f[0],
        hits: f[1],
        fill_misses: f[2],
        write_alloc_misses: f[3],
        compulsory_misses: f[4],
        evictions: f[5],
        dead_lines: f[6],
        writebacks: f[7],
        fills: f[8],
        line_bytes: 32,
    }
}

/// A source that replays its inner one but gives no `len_hint`.
struct Unhinted<S>(S);

impl<S: TraceSource> TraceSource for Unhinted<S> {
    fn replay(&self, sink: &mut dyn FnMut(Access)) {
        self.0.replay(sink);
    }
}

fn check(name: &str, source: &dyn TraceSource, want: CacheStats) {
    let got = simulate_belady(CacheConfig::test_scale(), source);
    assert_eq!(got, want, "{name}");
}

#[test]
fn spmv_csr_sequential_on_mini_corpus_entries() {
    let sequential = |name: &str, want: CacheStats| {
        let a = mini(name);
        let hinted = KernelTrace::new(&a, Kernel::SpmvCsr, ExecutionModel::Sequential);
        assert_eq!(hinted.len_hint(), Some(want.accesses), "{name}");
        let source = Unhinted(&hinted);
        assert_eq!(source.len_hint(), None, "exercises the counting replay");
        check(name, &source, want);
        check(name, &hinted, want);
    };
    sequential(
        "mini-rmat",
        stats([65790, 59829, 5705, 256, 5741, 5705, 57, 256, 5961]),
    );
    sequential(
        "mini-sbm",
        stats([63126, 57070, 5800, 256, 5519, 5800, 34, 256, 6056]),
    );
    sequential(
        "mini-webhub",
        stats([130338, 113458, 16496, 384, 11247, 16624, 970, 384, 16880]),
    );
}

#[test]
fn spmv_csr_interleaved() {
    let a = mini("mini-sbm");
    let source = KernelTrace::new(
        &a,
        Kernel::SpmvCsr,
        ExecutionModel::Interleaved { streams: 8 },
    );
    check(
        "mini-sbm interleaved",
        &source,
        stats([63126, 56820, 6050, 256, 5519, 6050, 71, 256, 6306]),
    );
}

#[test]
fn spgemm_gustavson_with_an_exact_len_hint() {
    let a = mini("mini-grid");
    let source = SpGemmTrace::self_multiply(&a, Kernel::SpGemmGustavson).unwrap();
    assert!(source.len_hint().is_some());
    check(
        "mini-grid spgemm",
        &source,
        stats([
            283104, 227693, 39639, 15772, 14134, 55155, 3047, 15772, 55411,
        ]),
    );
}

#[test]
fn slice_source() {
    let trace = slice_trace();
    check(
        "slice",
        &trace,
        stats([20000, 5827, 11386, 2787, 4053, 13917, 5300, 3703, 14173]),
    );
}
