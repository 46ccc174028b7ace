//! Validator for address traces.
//!
//! Cache geometry has no validator here: `PipelineBuilder::build`
//! rejects a bad `CacheConfig` with `InvalidConfig`, and
//! `CacheConfig::num_lines` asserts it. The stock `GpuSpec`s are
//! constants pinned by the `commorder-gpumodel` unit tests.

use commorder_cachesim::Access;
use commorder_sparse::ELEM_BYTES;

use crate::codes;
use crate::diag::{Diagnostic, Location};

/// Audits an address trace against the layout it was generated for.
///
/// Every access must be element-aligned (`CHK0601`), must not straddle a
/// `line_bytes` sector (`CHK0602` — impossible for aligned 4-byte
/// elements, but misaligned fixtures can exhibit it), and must fall
/// inside `[0, end)` when `end` is given (`CHK0603`, where `end` is the
/// exclusive byte bound of the operand address space, i.e.
/// [`ArrayLayout::end`]). An empty trace is flagged as a warning
/// (`CHK0604`) since every kernel on a non-empty matrix emits accesses.
///
/// [`ArrayLayout::end`]: commorder_cachesim::ArrayLayout::end
#[must_use]
pub fn check_trace(trace: &[Access], end: Option<u64>, line_bytes: u32) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if trace.is_empty() {
        out.push(Diagnostic::warning(
            codes::TRACE_EMPTY,
            Location::whole("trace"),
            "trace contains no accesses".to_string(),
        ));
        return out;
    }
    let line = u64::from(line_bytes.max(1));
    for (i, a) in trace.iter().enumerate() {
        if !a.addr().is_multiple_of(ELEM_BYTES) {
            out.push(Diagnostic::error(
                codes::TRACE_ALIGN,
                Location::at("trace", i as u64),
                format!("address {:#x} is not {ELEM_BYTES}-byte aligned", a.addr()),
            ));
        }
        if a.addr() / line != (a.addr() + ELEM_BYTES - 1) / line {
            out.push(Diagnostic::error(
                codes::TRACE_SECTOR,
                Location::at("trace", i as u64),
                format!(
                    "access at {:#x} straddles the {line}-byte sector boundary at {:#x}",
                    a.addr(),
                    (a.addr() / line + 1) * line
                ),
            ));
        }
        if let Some(end) = end {
            if a.addr() + ELEM_BYTES > end {
                out.push(Diagnostic::error(
                    codes::TRACE_BOUNDS,
                    Location::at("trace", i as u64),
                    format!("address {:#x} is beyond the layout end {end:#x}", a.addr()),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64) -> Access {
        Access::read(addr)
    }

    #[test]
    fn aligned_in_bounds_trace_is_clean() {
        let t = [acc(0), acc(4), acc(64)];
        assert!(check_trace(&t, Some(128), 32).is_empty());
    }

    #[test]
    fn misaligned_address_is_chk0601() {
        let d = check_trace(&[acc(6)], None, 32);
        assert!(d.iter().any(|d| d.code == codes::TRACE_ALIGN), "{d:?}");
    }

    #[test]
    fn sector_straddle_is_chk0602() {
        // 30..34 crosses the 32-byte boundary (and is misaligned too).
        let d = check_trace(&[acc(30)], None, 32);
        assert!(d.iter().any(|d| d.code == codes::TRACE_SECTOR), "{d:?}");
    }

    #[test]
    fn out_of_bounds_address_is_chk0603() {
        let d = check_trace(&[acc(128)], Some(128), 32);
        assert!(d.iter().any(|d| d.code == codes::TRACE_BOUNDS), "{d:?}");
        assert!(check_trace(&[acc(124)], Some(128), 32).is_empty());
    }

    #[test]
    fn empty_trace_is_chk0604_warning() {
        let d = check_trace(&[], Some(128), 32);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, codes::TRACE_EMPTY);
        assert_eq!(d[0].severity, crate::diag::Severity::Warning);
    }
}
