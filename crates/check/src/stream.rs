//! Validators for streaming trace sources and next-use arrays
//! (`CHK10xx`).
//!
//! The cachesim layer replays traces instead of materializing them
//! (`TraceSource`); these checks audit that a replayable source is
//! faithful — every replay yields the collected counterpart
//! access-for-access — and that a Belady next-use array is monotone
//! consistent with the trace it was derived from. Both validators hold
//! no per-access state beyond what they are handed: the stream check
//! compares against a caller-provided slice during a single replay.

use std::collections::HashMap;

use commorder_cachesim::{Access, CacheConfig, TraceSource};

use crate::codes;
use crate::diag::{Diagnostic, Location};

/// How many per-access mismatches are reported before the stream check
/// stops attaching diagnostics (the count is still exact in the summary).
const MISMATCH_LIMIT: usize = 8;

/// Audits a replayable source against its collected counterpart.
///
/// Every replayed access must equal `collected` at the same position
/// (`CHK1001`); the replayed length must equal `collected.len()`, and a
/// non-`None` [`TraceSource::len_hint`] must agree too (`CHK1002`).
#[must_use]
pub fn check_stream_equivalence<S: TraceSource + ?Sized>(
    source: &S,
    collected: &[Access],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut mismatches = 0u64;
    source.replay(&mut |acc| {
        if let Some(&want) = collected.get(i) {
            if acc != want {
                mismatches += 1;
                if out.len() < MISMATCH_LIMIT {
                    out.push(Diagnostic::error(
                        codes::STREAM_MISMATCH,
                        Location::at("stream", i as u64),
                        format!("replayed {acc:?} but the collected trace holds {want:?}"),
                    ));
                }
            }
        }
        i += 1;
    });
    if mismatches as usize > out.len() {
        out.push(Diagnostic::error(
            codes::STREAM_MISMATCH,
            Location::whole("stream"),
            format!("{mismatches} replayed accesses disagree with the collected trace"),
        ));
    }
    if i != collected.len() {
        out.push(Diagnostic::error(
            codes::STREAM_LENGTH,
            Location::whole("stream"),
            format!(
                "replay produced {i} accesses but the collected trace holds {}",
                collected.len()
            ),
        ));
    }
    if let Some(hint) = source.len_hint() {
        if hint != i as u64 {
            out.push(Diagnostic::error(
                codes::STREAM_LENGTH,
                Location::whole("stream.len_hint"),
                format!("len_hint promises {hint} accesses but replay produced {i}"),
            ));
        }
    }
    out
}

/// Audits a Belady next-use array against the trace it was derived from
/// (`CHK1003`).
///
/// For every position `i`, `next[i]` must be the index of the *next*
/// access to the same cache line (strictly greater than `i`, same tag,
/// no intermediate touch of that tag), or `u64::MAX` when the line is
/// never touched again. The expected value is recomputed here from a
/// per-tag position index — an algorithm independent of the forward
/// patch pass in `commorder_cachesim::belady` — so the two
/// implementations cross-validate. A length mismatch between `trace`
/// and `next` is also `CHK1003`.
#[must_use]
pub fn check_next_use(trace: &[Access], next: &[u64], config: &CacheConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if trace.len() != next.len() {
        out.push(Diagnostic::error(
            codes::NEXT_USE,
            Location::whole("next_use"),
            format!(
                "next-use array has {} entries for a {}-access trace",
                next.len(),
                trace.len()
            ),
        ));
        return out;
    }
    let line = u64::from(config.line_bytes.max(1));
    let mut positions: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, a) in trace.iter().enumerate() {
        positions.entry(a.addr() / line).or_default().push(i);
    }
    for (i, a) in trace.iter().enumerate() {
        let pos = &positions[&(a.addr() / line)];
        #[expect(
            clippy::expect_used,
            reason = "the loop above pushed every trace index into its line's position list"
        )]
        let at = pos.binary_search(&i).expect("index recorded above");
        let expected = pos.get(at + 1).map_or(u64::MAX, |&j| j as u64);
        if next[i] != expected {
            if out.len() >= MISMATCH_LIMIT {
                out.push(Diagnostic::error(
                    codes::NEXT_USE,
                    Location::whole("next_use"),
                    "further next-use mismatches suppressed".to_string(),
                ));
                break;
            }
            out.push(Diagnostic::error(
                codes::NEXT_USE,
                Location::at("next_use", i as u64),
                format!(
                    "entry is {} but the next touch of line {:#x} is at {expected}",
                    next[i],
                    a.addr() / line
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{arb_trace, run_cases, DEFAULT_CASES};
    use commorder_cachesim::belady::next_use_indices;
    use commorder_synth::rng::Rng;

    fn cfg() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 256,
            line_bytes: 32,
            associativity: 2,
        }
    }

    struct LyingSource {
        truth: Vec<Access>,
        lie_at: Option<usize>,
        drop_last: bool,
        hint: Option<u64>,
    }

    impl TraceSource for LyingSource {
        fn len_hint(&self) -> Option<u64> {
            self.hint
        }

        fn replay(&self, sink: &mut dyn FnMut(Access)) {
            let end = self.truth.len() - usize::from(self.drop_last);
            for (i, &a) in self.truth[..end].iter().enumerate() {
                if self.lie_at == Some(i) {
                    sink(Access::write(a.addr() ^ 64));
                } else {
                    sink(a);
                }
            }
        }
    }

    #[test]
    fn faithful_source_is_clean() {
        let truth: Vec<Access> = (0..100u64).map(|i| Access::read(i % 13 * 4)).collect();
        let source = LyingSource {
            truth: truth.clone(),
            lie_at: None,
            drop_last: false,
            hint: Some(100),
        };
        assert!(check_stream_equivalence(&source, &truth).is_empty());
        // Slices are faithful sources of themselves by construction.
        assert!(check_stream_equivalence(&truth[..], &truth).is_empty());
    }

    #[test]
    fn mismatched_access_is_chk1001() {
        let truth: Vec<Access> = (0..10u64).map(|i| Access::read(i * 4)).collect();
        let source = LyingSource {
            truth: truth.clone(),
            lie_at: Some(3),
            drop_last: false,
            hint: None,
        };
        let d = check_stream_equivalence(&source, &truth);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, codes::STREAM_MISMATCH);
        assert_eq!(d[0].location.index, Some(3));
    }

    #[test]
    fn short_replay_and_bad_hint_are_chk1002() {
        let truth: Vec<Access> = (0..10u64).map(|i| Access::read(i * 4)).collect();
        let source = LyingSource {
            truth: truth.clone(),
            lie_at: None,
            drop_last: true,
            hint: Some(10),
        };
        let d = check_stream_equivalence(&source, &truth);
        assert_eq!(
            d.iter().filter(|d| d.code == codes::STREAM_LENGTH).count(),
            2,
            "{d:?}"
        );
    }

    #[test]
    fn consistent_next_use_is_clean() {
        let trace = vec![
            Access::read(0),
            Access::read(64),
            Access::write(4), // same line as 0
            Access::read(64),
        ];
        let next = next_use_indices(&trace, &cfg());
        assert!(check_next_use(&trace, &next, &cfg()).is_empty());
    }

    #[test]
    fn corrupted_next_use_is_chk1003() {
        let trace = vec![Access::read(0), Access::read(4), Access::read(64)];
        let mut next = next_use_indices(&trace, &cfg());
        next[0] = 2; // the true next touch of line 0 is index 1
        let d = check_next_use(&trace, &next, &cfg());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, codes::NEXT_USE);
        let short = check_next_use(&trace, &next[..2], &cfg());
        assert_eq!(short[0].code, codes::NEXT_USE);
    }

    #[test]
    fn next_use_property_holds_on_random_traces() {
        run_cases("next-use-monotone", DEFAULT_CASES, |rng: &mut Rng| {
            let len = 1 + rng.gen_range(400) as usize;
            let trace = arb_trace(rng, len, 4096);
            let next = next_use_indices(&trace, &cfg());
            let d = check_next_use(&trace, &next, &cfg());
            assert!(d.is_empty(), "{d:?}");
        });
    }

    #[test]
    fn stream_equivalence_property_on_random_traces() {
        run_cases("stream-slice-faithful", DEFAULT_CASES, |rng: &mut Rng| {
            let trace = arb_trace(rng, 200, 2048);
            let collected = TraceSource::collect_trace(&trace[..]);
            assert!(check_stream_equivalence(&trace[..], &collected).is_empty());
        });
    }

    #[test]
    fn spgemm_sources_stream_faithfully_on_random_operands() {
        use crate::propcheck::arb_csr;
        use commorder_cachesim::SpGemmTrace;
        use commorder_sparse::traffic::Kernel;
        run_cases("spgemm-stream-faithful", DEFAULT_CASES, |rng: &mut Rng| {
            let a = arb_csr(rng, 24, 3);
            let source = SpGemmTrace::new(&a, &a, Kernel::SpGemmGustavson, None)
                .expect("square self-multiply always constructs");
            let collected = source.collect_trace();
            let d = check_stream_equivalence(&source, &collected);
            assert!(d.is_empty(), "{d:?}");
        });
    }

    #[test]
    fn cluster_wise_spgemm_streams_faithfully_under_random_assignments() {
        use crate::propcheck::arb_csr;
        use commorder_cachesim::SpGemmTrace;
        use commorder_sparse::traffic::Kernel;
        run_cases("spgemm-cluster-stream-faithful", DEFAULT_CASES, |rng| {
            let a = arb_csr(rng, 24, 3);
            let n_comms = 1 + rng.gen_u32(4);
            let assignment: Vec<u32> = (0..a.n_rows()).map(|_| rng.gen_u32(n_comms)).collect();
            let plain = SpGemmTrace::new(&a, &a, Kernel::SpGemmGustavson, None)
                .expect("square self-multiply always constructs");
            let clustered = SpGemmTrace::new(&a, &a, Kernel::SpGemmClusterWise, Some(&assignment))
                .expect("matching assignment length always constructs");
            let collected = clustered.collect_trace();
            let d = check_stream_equivalence(&clustered, &collected);
            assert!(d.is_empty(), "{d:?}");
            // The row schedule changes; the access count does not.
            assert_eq!(plain.len_hint(), clustered.len_hint());
            assert_eq!(plain.len_hint(), Some(collected.len() as u64));
        });
    }
}
