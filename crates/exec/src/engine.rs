//! The engine: one shared FIFO job queue, stable result ordering and
//! per-job timing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use commorder_obs as obs;

/// Scheduling observability for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTiming {
    /// Seconds between batch submission and the job starting on a
    /// worker — queue wait, excluded from all measured phases.
    pub queue_seconds: f64,
    /// Seconds the job function ran on its worker.
    pub exec_seconds: f64,
    /// Index of the worker that executed the job.
    pub worker: usize,
}

/// A job's return value together with its scheduling record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput<R> {
    /// What the job function returned.
    pub value: R,
    /// When and where it ran.
    pub timing: JobTiming,
}

/// One job whose function panicked. The panic is caught at the job
/// boundary so the rest of the batch still completes; the payload is
/// rendered to a string so the record stays `Send` and comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Submission index of the failed job.
    pub index: usize,
    /// Rendered panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

/// Aggregate counters for one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Worker threads the batch ran on.
    pub threads: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Always 0: every worker pops from one shared queue, so no job is
    /// ever stolen. Kept only because the repository benchmark still
    /// reads it; it goes with the next change to that benchmark.
    pub steals: u64,
    /// Wall-clock seconds from submission to the last job completing.
    pub wall_seconds: f64,
    /// Jobs executed per worker (length = `threads`).
    pub per_worker_jobs: Vec<u64>,
    /// Sum of per-job execution seconds (serial-equivalent work).
    pub busy_seconds: f64,
    /// Jobs whose function panicked, in submission order; empty on a
    /// fully successful batch.
    pub failed: Vec<JobFailure>,
}

impl EngineStats {
    /// `busy_seconds / (threads * wall_seconds)` — 1.0 means every
    /// worker was executing jobs for the whole batch.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let denom = self.threads as f64 * self.wall_seconds;
        if denom > 0.0 {
            self.busy_seconds / denom
        } else {
            0.0
        }
    }

    /// One-line summary for experiment binaries' stderr logs.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} jobs on {} workers in {:.2}s (busy {:.2}s, utilization {:.0}%)",
            self.jobs,
            self.threads,
            self.wall_seconds,
            self.busy_seconds,
            self.utilization() * 100.0,
        )
    }
}

/// A fixed-width pool of worker threads for embarrassingly parallel
/// batches. See the crate docs for the scheduling model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    threads: usize,
}

impl Default for Engine {
    /// An engine sized to the machine (`available_parallelism`).
    fn default() -> Self {
        Engine::available()
    }
}

impl Engine {
    /// An engine with exactly `threads` workers (clamped to ≥ 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Engine {
            threads: threads.max(1),
        }
    }

    /// A serial engine — the reference behaviour every parallel run must
    /// reproduce byte-for-byte.
    #[must_use]
    pub fn serial() -> Self {
        Engine::new(1)
    }

    /// An engine sized to `std::thread::available_parallelism` (1 when
    /// the machine cannot report it).
    #[must_use]
    pub fn available() -> Self {
        Engine::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// An engine sized from the `COMMORDER_THREADS` environment variable
    /// when set (and parseable), otherwise [`Engine::available`].
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("COMMORDER_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            Some(n) => Engine::new(n),
            None => Engine::available(),
        }
    }

    /// Configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every item, returning outputs in submission order.
    ///
    /// `f` receives the job's index and the owned item. See
    /// [`Engine::run_with_stats`] for the full contract.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<JobOutput<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_with_stats(items, f).0
    }

    /// Borrowing convenience: maps `f` over a slice in parallel and
    /// returns the bare values in input order (the common case when the
    /// caller does not need per-job timing).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items.iter().collect(), f)
            .into_iter()
            .map(|out| out.value)
            .collect()
    }

    /// Runs `f` over every item and also returns the batch counters.
    ///
    /// Results are placed by job index, so the output order equals the
    /// input order regardless of thread count; with a deterministic `f`
    /// the returned values are identical for any `threads`. Only the
    /// [`JobTiming`]/[`EngineStats`] scheduling records vary between
    /// runs.
    ///
    /// # Panics
    ///
    /// If `f` panics on any job, the panic is re-raised here after the
    /// whole batch drains (workers never die mid-batch — the panic is
    /// contained at the job boundary and carried out as a
    /// [`JobFailure`]).
    #[expect(
        clippy::panic,
        reason = "documented panic: re-raises a contained job panic after the batch drains; try_run_with_stats is the panic-free API"
    )]
    pub fn run_with_stats<T, R, F>(&self, items: Vec<T>, f: F) -> (Vec<JobOutput<R>>, EngineStats)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let (results, stats) = self.try_run_with_stats(items, f);
        let outputs = results
            .into_iter()
            .map(|r| match r {
                Ok(out) => out,
                Err(fail) => panic!("job {} panicked: {}", fail.index, fail.message),
            })
            .collect();
        (outputs, stats)
    }

    /// Like [`Engine::run_with_stats`] but panics in `f` are contained
    /// at the job boundary: each slot of the returned vector is
    /// `Ok(output)` or `Err(failure)` in submission order, the rest of
    /// the batch always completes, and the failures are also listed in
    /// [`EngineStats::failed`].
    pub fn try_run_with_stats<T, R, F>(
        &self,
        items: Vec<T>,
        f: F,
    ) -> (Vec<Result<JobOutput<R>, JobFailure>>, EngineStats)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n_jobs = items.len();
        let threads = self.threads.min(n_jobs).max(1);
        let submitted = Instant::now();

        // One FIFO shared by every worker. The job set is fixed before
        // any worker starts, so a worker that finds the queue empty can
        // exit: nothing is ever enqueued later. A free worker always
        // takes the oldest job, so submission order is the schedule.
        let queue = Mutex::new(items.into_iter().enumerate());
        let per_worker: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        let (sender, receiver) = mpsc::channel::<(usize, Result<JobOutput<R>, JobFailure>)>();

        std::thread::scope(|scope| {
            for worker in 0..threads {
                let sender = sender.clone();
                let queue = &queue;
                let f = &f;
                let per_worker = &per_worker;
                scope.spawn(move || loop {
                    #[expect(
                        clippy::expect_used,
                        reason = "jobs run outside the lock and catch_unwind contains their panics, so the queue mutex never poisons"
                    )]
                    let next = queue
                        .lock()
                        .expect("no worker panics while holding the queue lock")
                        .next();
                    let Some((index, item)) = next else {
                        break;
                    };
                    per_worker[worker].fetch_add(1, Ordering::Relaxed);
                    let started = Instant::now();
                    // Contain job panics at this boundary: a panicking
                    // job must not kill its worker (the queue would
                    // strand) or poison the batch for its siblings.
                    let result = {
                        let _span = obs::span!("exec.job", "job={}", index);
                        catch_unwind(AssertUnwindSafe(|| f(index, item)))
                    };
                    let timing = JobTiming {
                        queue_seconds: started.duration_since(submitted).as_secs_f64(),
                        exec_seconds: started.elapsed().as_secs_f64(),
                        worker,
                    };
                    if obs::enabled() {
                        obs::counter!("exec.jobs", 1);
                        obs::observe!("exec.queue_wait_seconds", timing.queue_seconds);
                    }
                    let outcome = match result {
                        Ok(value) => Ok(JobOutput { value, timing }),
                        Err(payload) => Err(JobFailure {
                            index,
                            message: panic_message(payload.as_ref()),
                        }),
                    };
                    // The receiver outlives the scope; a send can only
                    // fail if the main thread is already unwinding.
                    let _ = sender.send((index, outcome));
                });
            }
        });
        drop(sender);

        let mut slots: Vec<Option<Result<JobOutput<R>, JobFailure>>> =
            (0..n_jobs).map(|_| None).collect();
        for (index, outcome) in receiver {
            slots[index] = Some(outcome);
        }
        #[expect(
            clippy::expect_used,
            reason = "every worker sends exactly one outcome per job it takes, and the scope joins them all before the slots are read"
        )]
        let results: Vec<Result<JobOutput<R>, JobFailure>> = slots
            .into_iter()
            .map(|slot| slot.expect("every submitted job reports exactly once"))
            .collect();
        let busy_seconds = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|o| o.timing.exec_seconds)
            .sum();
        let failed: Vec<JobFailure> = results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .cloned()
            .collect();
        let stats = EngineStats {
            threads,
            jobs: n_jobs,
            steals: 0,
            wall_seconds: submitted.elapsed().as_secs_f64(),
            per_worker_jobs: per_worker
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            busy_seconds,
            failed,
        };
        obs::gauge!("exec.utilization", stats.utilization());
        (results, stats)
    }
}

/// Renders a caught panic payload: `&str` and `String` payloads pass
/// through verbatim, anything else gets a fixed placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;
    use std::time::Duration;

    #[test]
    fn outputs_follow_submission_order() {
        for threads in [1, 2, 3, 8] {
            let engine = Engine::new(threads);
            let items: Vec<u64> = (0..97).collect();
            let out = engine.map(&items, |_, &x| x * 3);
            assert_eq!(
                out,
                (0..97).map(|x| x * 3).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn empty_batch() {
        let engine = Engine::new(4);
        let (outputs, stats) = engine.run_with_stats(Vec::<u32>::new(), |_, x| x);
        assert!(outputs.is_empty());
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let engine = Engine::new(0);
        assert_eq!(engine.threads(), 1);
        assert_eq!(engine.map(&[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn job_index_matches_item() {
        let engine = Engine::new(4);
        let items: Vec<usize> = (0..50).collect();
        let out = engine.map(&items, |i, &x| (i, x));
        for (i, &(ji, x)) in out.iter().enumerate() {
            assert_eq!(ji, i);
            assert_eq!(x, i);
        }
    }

    #[test]
    fn stats_account_for_every_job() {
        let engine = Engine::new(3);
        let items: Vec<u64> = (0..40).collect();
        let (outputs, stats) = engine.run_with_stats(items, |_, x| x);
        assert_eq!(outputs.len(), 40);
        assert_eq!(stats.jobs, 40);
        assert_eq!(stats.per_worker_jobs.iter().sum::<u64>(), 40);
        assert_eq!(stats.threads, 3);
        assert!(stats.wall_seconds >= 0.0);
        assert!(stats.utilization() >= 0.0);
        assert!(!stats.summary().is_empty());
    }

    #[test]
    fn timing_fields_are_sane() {
        let engine = Engine::new(2);
        let outputs = engine.run(vec![1u32, 2, 3, 4], |_, x| {
            // Busy-work so exec_seconds is measurably positive.
            let mut acc = 0u64;
            for i in 0..20_000u64 {
                acc = acc.wrapping_add(i * u64::from(x));
            }
            acc
        });
        for out in &outputs {
            assert!(out.timing.queue_seconds >= 0.0);
            assert!(out.timing.exec_seconds >= 0.0);
            assert!(out.timing.worker < 2);
        }
    }

    #[test]
    fn a_blocked_worker_leaves_every_other_job_to_its_sibling() {
        // Job 0 holds its worker until the other n - 1 jobs have
        // finished, so the second worker must take every one of them off
        // the shared queue. The wait is bounded: a timeout fails the
        // test instead of hanging it.
        let n = 16usize;
        let finished = (Mutex::new(0usize), Condvar::new());
        let engine = Engine::new(2);
        let (outputs, stats) = engine.run_with_stats((0..n).collect(), |_, job| {
            let (count, changed) = &finished;
            if job == 0 {
                let guard = count.lock().unwrap();
                let (_guard, wait) = changed
                    .wait_timeout_while(guard, Duration::from_secs(60), |done| *done < n - 1)
                    .unwrap();
                !wait.timed_out()
            } else {
                *count.lock().unwrap() += 1;
                changed.notify_all();
                true
            }
        });
        assert!(outputs[0].value, "job 0 timed out waiting for its siblings");
        let mut per_worker = stats.per_worker_jobs.clone();
        per_worker.sort_unstable();
        assert_eq!(per_worker, vec![1, n as u64 - 1]);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn more_threads_than_jobs() {
        let engine = Engine::new(16);
        let (outputs, stats) = engine.run_with_stats(vec![1u32, 2], |_, x| x * 10);
        assert_eq!(
            outputs.iter().map(|o| o.value).collect::<Vec<_>>(),
            vec![10, 20]
        );
        // Threads are clamped to the job count: no idle spawn.
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn utilization_guards_zero_denominator() {
        // A zero-job batch (or a wall-clock too fast to measure) must
        // report 0.0 utilization, never NaN or infinity.
        let stats = EngineStats {
            threads: 0,
            jobs: 0,
            steals: 0,
            wall_seconds: 0.0,
            per_worker_jobs: Vec::new(),
            busy_seconds: 0.0,
            failed: Vec::new(),
        };
        assert_eq!(stats.utilization(), 0.0);
        let degenerate = EngineStats {
            threads: 4,
            jobs: 1,
            steals: 0,
            wall_seconds: 0.0,
            per_worker_jobs: vec![1, 0, 0, 0],
            busy_seconds: 0.5,
            failed: Vec::new(),
        };
        assert_eq!(degenerate.utilization(), 0.0);
        assert!(degenerate.utilization().is_finite());
        assert!(!degenerate.summary().is_empty());
    }

    #[test]
    fn panicking_job_is_contained() {
        let engine = Engine::new(2);
        let (results, stats) = engine.try_run_with_stats((0..8u32).collect(), |_, x| {
            assert!(x != 3, "job three exploded");
            x * 2
        });
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let fail = r.as_ref().expect_err("job 3 panicked");
                assert_eq!(fail.index, 3);
                assert!(fail.message.contains("job three exploded"));
            } else {
                let out = r.as_ref().expect("other jobs complete");
                assert_eq!(out.value, i as u32 * 2);
            }
        }
        // The failure is surfaced in the stats and every job — failed
        // or not — is accounted for.
        assert_eq!(stats.jobs, 8);
        assert_eq!(stats.failed.len(), 1);
        assert_eq!(stats.failed[0].index, 3);
        assert_eq!(stats.per_worker_jobs.iter().sum::<u64>(), 8);
    }

    #[test]
    fn run_with_stats_reraises_after_the_batch_drains() {
        let engine = Engine::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.run((0..4u32).collect(), |_, x| {
                assert!(x != 1, "boom");
                x
            })
        }));
        let payload = caught.expect_err("the contained panic is re-raised");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("job 1 panicked"), "got {message:?}");
    }

    #[test]
    fn non_string_panic_payload_is_rendered() {
        let engine = Engine::new(1);
        let (results, stats) =
            engine.try_run_with_stats(vec![0u32], |_, _| -> u32 { std::panic::panic_any(42i32) });
        let fail = results[0].as_ref().expect_err("job panicked");
        assert_eq!(fail.message, "non-string panic payload");
        assert_eq!(stats.failed.len(), 1);
    }

    #[test]
    fn engine_constructors() {
        assert!(Engine::available().threads() >= 1);
        assert_eq!(Engine::serial().threads(), 1);
        std::env::set_var("COMMORDER_THREADS", "3");
        assert_eq!(Engine::from_env().threads(), 3);
        std::env::set_var("COMMORDER_THREADS", "not-a-number");
        assert_eq!(Engine::from_env().threads(), Engine::available().threads());
        std::env::remove_var("COMMORDER_THREADS");
    }
}
