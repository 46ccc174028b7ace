//! Execution context threaded through [`crate::Reordering::reorder_with`].
//!
//! The context carries the caller's [`Engine`] (plus the run seed) down
//! into a technique. No built-in technique reads it: every reorder phase
//! is one serial loop, and the suite parallelizes *across* grid cells,
//! one engine job per (matrix, technique), or per matrix for the RABBIT
//! family's shared detection. A technique that does fan work
//! out on the engine must honour the determinism contract: the
//! permutation it returns is a pure function of the matrix and its
//! configuration, never of `engine.threads()`.

use std::sync::OnceLock;

use commorder_exec::Engine;

/// Shared state a reordering technique may use while computing a
/// permutation: the engine to fan work out on and the run's seed.
///
/// Borrowed, not owned: callers (the pipeline, the experiment grid, the
/// benches) hold one engine for the whole run and lend it to every
/// technique invocation.
#[derive(Debug, Clone, Copy)]
pub struct ReorderContext<'a> {
    engine: &'a Engine,
    seed: u64,
}

impl<'a> ReorderContext<'a> {
    /// A context borrowing `engine` and carrying `seed`. The built-in
    /// seeded techniques (RANDOM, RABBIT-FLAT) take their seed at
    /// construction and ignore this one.
    #[must_use]
    pub fn new(engine: &'a Engine, seed: u64) -> Self {
        ReorderContext { engine, seed }
    }

    /// The caller's engine.
    #[must_use]
    pub fn engine(&self) -> &'a Engine {
        self.engine
    }

    /// The run seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl ReorderContext<'static> {
    /// A single-threaded context — the reference behaviour every
    /// parallel run must reproduce byte-for-byte.
    #[must_use]
    pub fn serial(seed: u64) -> Self {
        static SERIAL: OnceLock<Engine> = OnceLock::new();
        ReorderContext {
            engine: SERIAL.get_or_init(Engine::serial),
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_context_has_one_thread() {
        let cx = ReorderContext::serial(7);
        assert_eq!(cx.engine().threads(), 1);
        assert_eq!(cx.seed(), 7);
    }

    #[test]
    fn context_borrows_the_callers_engine() {
        let engine = Engine::new(4);
        let cx = ReorderContext::new(&engine, 1);
        assert_eq!(cx.engine().threads(), 4);
    }
}
