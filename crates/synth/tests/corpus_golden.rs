//! Corpus golden: regenerating a corpus matrix must produce the same
//! bytes on every build.
//!
//! Each row pins the FNV-1a fingerprints of a generated matrix's row
//! offsets, column indices and value bits. The values were recorded
//! before the generators shared the `commorder-sparse` CSR assembler, so
//! a change to that assembler (or to a generator) that moves a single
//! entry fails here by name.

use commorder_sparse::CsrMatrix;
use commorder_synth::corpus;
use commorder_synth::generators::Rmat;
use commorder_synth::stream::{stream_undirected_csr, StreamedKmerChain, StreamedRmat};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// `(offsets, columns, values)` fingerprints of `m`.
fn fingerprint(m: &CsrMatrix) -> [u64; 3] {
    [
        fnv1a(m.row_offsets().iter().copied()),
        fnv1a(m.col_indices().iter().copied()),
        fnv1a(m.values().iter().map(|v| v.to_bits())),
    ]
}

/// `(name, [offsets, columns, values])` for every pinned corpus entry.
const GOLDEN: &[(&str, [u64; 3])] = &[
    (
        "mini-rmat",
        [0x4d2a6cb0d1bb6cb6, 0x4ad74dbdd2c6a4d0, 0xb5681f7e370d89b5],
    ),
    (
        "mini-sbm",
        [0x3491060877ac193c, 0x4e716d6cb23bb3d3, 0x548f9258bd1a3cf5],
    ),
    (
        "mini-webhub",
        [0xba4aac6eea65eba7, 0x79d87cf058bb2d53, 0xd7687ec1e1116795],
    ),
    (
        "mini-grid",
        [0x40f6c412b974f5d0, 0x0f60a93f06e212d3, 0x3a9e30bc0783c665],
    ),
    (
        "mini-banded",
        [0x34552cbfbc570865, 0x48552f5badcb03b6, 0x7cf5f48306083545],
    ),
    (
        "mini-kmer",
        [0xb0f42fdcd5f2a016, 0x4f8ee0497a24c513, 0x35fd466d334d7515],
    ),
    (
        "mini-mawi",
        [0xde4ef3781c76b335, 0x15d091cb739de775, 0xe4e8ebffd49de325],
    ),
    (
        "mini-er",
        [0xbd77359f2776948d, 0x7b94eef62170dd51, 0x7fe756c2765a9eb5],
    ),
    (
        "soc-rmat-32k",
        [0xd4b0e512c7ef4b17, 0x8dcaca0dc7c325fe, 0x1551ec00cbe89395],
    ),
    (
        "opt-block-512",
        [0x0d8c60768cd4d3fe, 0xbc246cee481e1089, 0x9b6cda21144d2d35],
    ),
    (
        "road-grid-64k",
        [0x91ec7828a73ac14b, 0x3b4c7428113620e3, 0xf9479bb45c7972d5],
    ),
];

/// `(label, [offsets, columns, values])` for the pinned streamed graphs.
const STREAMED_GOLDEN: &[(&str, [u64; 3])] = &[
    (
        "streamed-rmat-4k",
        [0x9c35a1f486294dcb, 0x138058aa4079996d, 0xf7c6652892b63415],
    ),
    (
        "streamed-kmer-8k",
        [0xdff4094948d376ec, 0x82dc018c5043bc23, 0x1b1d7b7326e0bd05],
    ),
];

/// `(label, [offsets, columns, values])` for R-MAT configurations the
/// corpus does not list: other quadrant thresholds, raw (unscrambled)
/// vertex IDs, and a streamed mild graph. Recorded from the `if`-chain
/// descent, before both generators shared one branch-free step.
const RMAT_GOLDEN: &[(&str, [u64; 3])] = &[
    (
        "rmat-mild-2k",
        [0x869349d15d1c771c, 0x8c860ea0701baba8, 0xce32406d4081d955],
    ),
    (
        "rmat-graph500-raw-2k",
        [0xf28b034f3d1d48ab, 0x971781aa4a5a1e83, 0xc28f6ab7110f99d5],
    ),
    (
        "streamed-rmat-mild-4k",
        [0xad65a17cefb860f8, 0x17684b793c185b8d, 0x9dd96437b682af65],
    ),
];

fn check(label: &str, got: [u64; 3], table: &[(&str, [u64; 3])]) {
    let want = table
        .iter()
        .find(|(name, _)| *name == label)
        .map(|(_, fp)| *fp);
    assert_eq!(
        want,
        Some(got),
        "{label} fingerprint drifted; got [{:#018x}, {:#018x}, {:#018x}]",
        got[0],
        got[1],
        got[2]
    );
}

#[test]
fn corpus_entries_regenerate_bit_identically() {
    let pinned = ["soc-rmat-32k", "road-grid-64k", "opt-block-512"];
    let entries = corpus::mini().into_iter().chain(
        corpus::standard()
            .into_iter()
            .filter(|e| pinned.contains(&e.name)),
    );
    let mut seen = 0;
    for entry in entries {
        let m = entry.generate().expect("corpus entry generates");
        check(entry.name, fingerprint(&m), GOLDEN);
        seen += 1;
    }
    assert_eq!(seen, GOLDEN.len(), "every golden row is exercised");
    assert!(
        corpus::standard()
            .iter()
            .any(|e| e.name == "opt-block-512" && e.publish == corpus::PublishOrder::Scrambled),
        "the golden covers one scrambled standard entry"
    );
}

#[test]
fn streamed_generators_regenerate_bit_identically() {
    let rmat = StreamedRmat::graph500(12, 8.0);
    check(
        "streamed-rmat-4k",
        fingerprint(&stream_undirected_csr(&rmat, 7).expect("valid stream")),
        STREAMED_GOLDEN,
    );
    let kmer = StreamedKmerChain {
        n: 8192,
        chain_len: 256,
        short_len: 16,
        long_vertices: 2048,
        branch_p: 0.1,
    };
    check(
        "streamed-kmer-8k",
        fingerprint(&stream_undirected_csr(&kmer, 5).expect("valid stream")),
        STREAMED_GOLDEN,
    );
}

#[test]
fn rmat_descent_regenerates_bit_identically() {
    check(
        "rmat-mild-2k",
        fingerprint(&Rmat::mild(11, 10.0).generate(3).expect("valid config")),
        RMAT_GOLDEN,
    );
    let raw = Rmat {
        scramble_ids: false,
        ..Rmat::graph500(11, 12.0)
    };
    check(
        "rmat-graph500-raw-2k",
        fingerprint(&raw.generate(4).expect("valid config")),
        RMAT_GOLDEN,
    );
    let mild = StreamedRmat {
        a: 0.45,
        b: 0.22,
        c: 0.22,
        ..StreamedRmat::graph500(12, 8.0)
    };
    check(
        "streamed-rmat-mild-4k",
        fingerprint(&stream_undirected_csr(&mild, 9).expect("valid stream")),
        RMAT_GOLDEN,
    );
}
