//! Data-driven chunking for the engine-parallel reordering phases.
//!
//! Every nested fan-out in this crate (dendrogram flattening, insular
//! scans, first-touch streams) derives its chunk count from the *input
//! size alone* — never from `Engine::threads()`. Two properties follow:
//!
//! 1. **Thread-invariant telemetry.** The number of nested `exec.job`
//!    spans (and any spans opened inside chunk closures) is a pure
//!    function of the data, so a folded-flamegraph export of the same
//!    run is byte-identical at any thread count.
//! 2. **Chunk-boundary-independent results.** All three call sites merge
//!    chunk outputs with boundary-insensitive logic (order-preserving
//!    concatenation or commutative/idempotent clears), so moving the
//!    policy off the thread count cannot change a permutation.
//!
//! Work-stealing smooths uneven chunks; [`FAN_OUT`] caps the fixed
//! oversubscription, and each site sets a minimum chunk size so small
//! inputs collapse to a single chunk and stay on the inline path.

/// Fixed chunk-count target for every nested parallel phase.
pub(crate) const FAN_OUT: usize = 16;

/// Splits `0..len` into at most [`FAN_OUT`] contiguous ranges of at
/// least `min_chunk` elements each (one possibly-shorter tail range).
/// Returns a single range covering everything when `len <= min_chunk`,
/// and an empty vector when `len == 0`.
pub(crate) fn fixed_chunks(len: usize, min_chunk: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let target = len.div_ceil(min_chunk.max(1)).clamp(1, FAN_OUT);
    let chunk = len.div_ceil(target).max(1);
    (0..len)
        .step_by(chunk)
        .map(|start| (start, (start + chunk).min(len)))
        .collect()
}

/// [`fixed_chunks`] with `u32` endpoints for row-range scans.
pub(crate) fn fixed_chunks_u32(len: usize, min_chunk: usize) -> Vec<(u32, u32)> {
    fixed_chunks(len, min_chunk)
        .into_iter()
        .map(|(s, e)| (s as u32, e as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_no_chunks() {
        assert!(fixed_chunks(0, 128).is_empty());
    }

    #[test]
    fn small_input_collapses_to_one_chunk() {
        assert_eq!(fixed_chunks(100, 128), vec![(0, 100)]);
        assert_eq!(fixed_chunks(128, 128), vec![(0, 128)]);
    }

    #[test]
    fn chunks_cover_the_range_without_gaps() {
        for len in [1usize, 7, 129, 4096, 100_000] {
            let chunks = fixed_chunks(len, 128);
            assert!(chunks.len() <= FAN_OUT);
            assert_eq!(chunks.first().map(|c| c.0), Some(0));
            assert_eq!(chunks.last().map(|c| c.1), Some(len));
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].1, pair[1].0);
            }
        }
    }

    #[test]
    fn chunk_count_is_a_function_of_len_only() {
        // The invariant the folded-flamegraph golden test relies on:
        // nothing about the machine or engine reaches the chunk count.
        let a = fixed_chunks(1_000_000, 4096);
        let b = fixed_chunks(1_000_000, 4096);
        assert_eq!(a, b);
        assert_eq!(a.len(), FAN_OUT);
    }
}
