//! Host-speed calibration.
//!
//! The measuring host is a shared virtual machine whose speed drifts by
//! a third or more over minutes as neighbours come and go, which moved
//! the median of ten runs further than any regression bound allows. A
//! fixed kernel of the benchmark's own — a pointer chase through a
//! buffer larger than the private caches, then an integer mixing loop —
//! is timed before the first set-up and after every set-up and rep, on
//! as many threads as the workload uses. Each set-up and rep is then
//! scaled by `REFERENCE_S` over the mean of its two neighbouring
//! calibrations: seconds on a host as fast as the reference. The kernel
//! is not program code, so a program change never moves it.

use std::sync::OnceLock;
use std::time::Instant;

/// Calibration seconds on the reference host, a 2-vCPU Intel Xeon
/// (Sapphire Rapids) KVM guest, where run medians ranged 0.046-0.052.
pub const REFERENCE_S: f64 = 0.05;

/// Chain length: 64 MiB of `u32`, beyond the private caches and most
/// of a shared last-level cache, so the chase waits on DRAM as the
/// workloads' hash tables and traces do.
const CHAIN: usize = 1 << 24;
/// Pointer-chase steps per measurement.
const STEPS: usize = 200_000;
/// Mixing-loop iterations per measurement.
const MIX: u64 = 12_000_000;

/// The calibration kernel's input: one random cycle through the chain.
#[derive(Debug)]
pub struct Calibration {
    next: Vec<u32>,
}

impl Default for Calibration {
    /// Builds the chain with Sattolo's shuffle from a fixed seed, so
    /// every process chases the same cycle.
    fn default() -> Self {
        let mut next: Vec<u32> = (0..CHAIN as u32).collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..CHAIN).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % i as u64) as usize;
            next.swap(i, j);
        }
        Calibration { next }
    }
}

impl Calibration {
    /// The process-wide chain, built on first use.
    pub fn shared() -> &'static Calibration {
        static SHARED: OnceLock<Calibration> = OnceLock::new();
        SHARED.get_or_init(Calibration::default)
    }

    fn kernel(&self, start: u32) -> u64 {
        let mut at = start;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        let mut x = u64::from(at);
        for k in 0..MIX {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(k ^ (x >> 29));
        }
        x
    }

    /// Wall seconds of the kernel run on `threads` threads at once.
    #[must_use]
    pub fn measure(&self, threads: usize) -> f64 {
        let started = Instant::now();
        std::thread::scope(|scope| {
            for t in 1..threads {
                let start = (t * CHAIN / threads) as u32;
                scope.spawn(move || std::hint::black_box(self.kernel(start)));
            }
            std::hint::black_box(self.kernel(0));
        });
        started.elapsed().as_secs_f64()
    }
}

/// Scales each of `samples` by [`REFERENCE_S`] over the mean of the
/// calibrations either side of it: `calib[i]` before sample `i` and
/// `calib[i + 1]` after it.
#[must_use]
pub fn normalize(samples: &[f64], calib: &[f64]) -> Vec<f64> {
    samples
        .iter()
        .zip(calib.windows(2))
        .map(|(s, c)| s * REFERENCE_S / ((c[0] + c[1]) / 2.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_scale_by_their_neighbouring_calibrations() {
        let calib = [REFERENCE_S, REFERENCE_S * 3.0, REFERENCE_S];
        assert_eq!(normalize(&[2.0, 4.0], &calib), vec![1.0, 2.0]);
    }

    #[test]
    fn the_chain_is_one_cycle() {
        let c = Calibration::shared();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = c.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHAIN);
        assert!(c.measure(2) > 0.0);
    }
}
