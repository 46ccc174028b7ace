//! The allowlist suppresses this file's trace-buffer finding; the same
//! rule still fires in `bad.rs`, so the golden proves both paths.

/// Allowlisted call site.
pub fn guarded(trace: &[u32]) -> usize {
    collect_trace(trace)
}
