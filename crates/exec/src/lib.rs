//! `commorder-exec` — a deterministic one-queue execution engine for
//! experiment grids.
//!
//! Every figure and table of the paper is a grid of independent
//! (matrix × technique × kernel × policy) evaluations. This crate fans
//! such a grid across N OS threads (`std::thread` only — the workspace
//! is offline and registry-free) while keeping the *results* exactly as
//! deterministic as a serial loop:
//!
//! * **Stable ordering** — outputs are returned in job-submission order
//!   no matter which worker ran which job or in what order jobs
//!   finished. A run with 1 thread and a run with 16 threads produce the
//!   same `Vec` (provided the job function itself is deterministic).
//! * **Per-job observability** — each job reports the time it spent
//!   waiting in a queue separately from the time it spent executing
//!   ([`JobTiming`]), so wall-clock measurements (e.g. reordering
//!   pre-processing time, §VI-C of the paper) exclude scheduling noise.
//! * **Engine counters** — [`EngineStats`] records per-worker job
//!   counts, busy seconds and the wall-clock of the whole batch, which
//!   the experiment binaries print as a utilization summary.
//!
//! # Worker model
//!
//! All jobs go into one shared FIFO before any worker starts. Each
//! worker pops the front job whenever it is free, so jobs start in
//! submission order and no worker idles while a job is queued. Jobs
//! here are whole matrix evaluations, so one `Mutex` around the queue
//! costs nothing measurable. A worker that finds the queue empty exits:
//! no job is ever enqueued after the batch starts. The caller owns the
//! schedule through the submission order; the experiment grid submits
//! its largest matrices first, so the longest jobs never start last.
//!
//! # Example
//!
//! ```
//! use commorder_exec::Engine;
//!
//! let engine = Engine::new(4);
//! let squares = engine.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::expect_used, clippy::panic)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod engine;

pub use engine::{Engine, EngineStats, JobFailure, JobOutput, JobTiming};
