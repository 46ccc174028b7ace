//! Operation and failure accounting, and result fingerprints.
//!
//! Every call the benchmark makes into a layer, every output audit and
//! every fingerprint comparison is one attempted operation. An error, a
//! validator diagnostic, a broken invariant, a fingerprint that differs
//! from the first one seen under its name, or a panic is one failure.

use std::collections::BTreeMap;
use std::fmt::Display;

use commorder::cachesim::CacheStats;
use commorder::check::{Diagnostic, Severity};
use commorder::KernelRun;

/// Attempted operations, failures and pinned fingerprints of one run.
#[derive(Debug, Default)]
pub struct Ops {
    attempted: u64,
    failures: Vec<String>,
    fingerprints: BTreeMap<String, u64>,
}

impl Ops {
    /// Counts one layer call; an error is a failure and yields `None`.
    pub fn call<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(err) => {
                self.failures.push(format!("{what}: {err}"));
                None
            }
        }
    }

    /// Counts one audit; any error or warning diagnostic is a failure.
    pub fn check(&mut self, what: &str, diagnostics: Vec<Diagnostic>) {
        self.attempted += 1;
        let bad: Vec<String> = diagnostics
            .iter()
            .filter(|d| matches!(d.severity, Severity::Error | Severity::Warning))
            .map(ToString::to_string)
            .collect();
        if !bad.is_empty() {
            self.failures.push(format!("{what}: {}", bad.join("; ")));
        }
    }

    /// Counts one invariant check; `false` is a failure.
    pub fn require(&mut self, what: &str, holds: bool) {
        self.attempted += 1;
        if !holds {
            self.failures.push(format!("{what}: invariant broken"));
        }
    }

    /// Pins `name` to `value` the first time it is seen; a later,
    /// different value under the same name is a failure.
    pub fn pin(&mut self, name: &str, value: u64) {
        self.attempted += 1;
        match self.fingerprints.get(name) {
            None => {
                self.fingerprints.insert(name.to_string(), value);
            }
            Some(&first) if first != value => self.failures.push(format!(
                "{name}: fingerprint {value:016x} differs from {first:016x}"
            )),
            Some(_) => {}
        }
    }

    /// Records a failure that aborted an operation (a panic).
    pub fn abort(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }

    /// Operations attempted so far.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failure messages, in the order they happened.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Pinned fingerprints by name.
    #[must_use]
    pub fn fingerprints(&self) -> &BTreeMap<String, u64> {
        &self.fingerprints
    }
}

/// FNV-1a over a byte stream — the workspace's result-fingerprint hash.
#[must_use]
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn fnv1a_u64s(values: &[u64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_le_bytes()))
}

/// Fingerprint of a permutation's old-to-new map (little-endian `u32`s).
#[must_use]
pub fn permutation_fingerprint(new_ids: &[u32]) -> u64 {
    fnv1a(new_ids.iter().flat_map(|v| v.to_le_bytes()))
}

/// Fingerprint of every counter of a cache simulation.
#[must_use]
pub fn stats_fingerprint(s: &CacheStats) -> u64 {
    fnv1a_u64s(&[
        s.accesses,
        s.hits,
        s.fill_misses,
        s.write_alloc_misses,
        s.compulsory_misses,
        s.evictions,
        s.dead_lines,
        s.writebacks,
        s.fills,
        u64::from(s.line_bytes),
    ])
}

/// Fingerprint of a simulated kernel run: its counters plus the exact
/// bits of every modelled quantity.
#[must_use]
pub fn run_fingerprint(k: &KernelRun) -> u64 {
    fnv1a_u64s(&[
        stats_fingerprint(&k.stats),
        k.dram_bytes,
        k.compulsory_bytes,
        k.traffic_ratio.to_bits(),
        k.time_seconds.to_bits(),
        k.time_ratio.to_bits(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_fail_on_drift_and_everything_counts_as_an_op() {
        let mut ops = Ops::default();
        ops.pin("p", 1);
        ops.pin("p", 1);
        assert!(ops.failures().is_empty());
        ops.pin("p", 2);
        assert_eq!(ops.failures().len(), 1);
        assert_eq!(ops.call::<u8, String>("c", Err("boom".into())), None);
        ops.require("r", true);
        ops.check("k", Vec::new());
        assert_eq!(ops.attempted(), 6);
        assert_eq!(ops.failures().len(), 2);
        assert_eq!(ops.fingerprints()["p"], 1);
    }

    #[test]
    fn fnv_matches_the_workspace_byte_order() {
        // FNV-1a of the empty stream is the offset basis; one byte 'a'
        // is the published 64-bit test vector.
        assert_eq!(fnv1a([]), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_ne!(
            permutation_fingerprint(&[0, 1]),
            permutation_fingerprint(&[1, 0])
        );
    }
}
