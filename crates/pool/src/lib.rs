//! **pool**: the pipeline's shared self-scheduling worker pool.
//!
//! One [`WorkerPool`] is created per pipeline run and threaded through the
//! probe campaign and the phase-1 graph build, replacing the per-phase
//! fixed-slot spawns each of those used to carry. The pool is the *only*
//! place in the pipeline that creates threads (clippy's
//! `disallowed_methods` bans thread creation elsewhere; the pool's scope
//! carries the sanctioned `#[expect]`); every other crate expresses
//! parallelism as indexed task batches handed to [`WorkerPool::run`].
//!
//! # Scheduling model (DESIGN.md §13)
//!
//! [`WorkerPool::run`] executes `tasks` indexed closures on up to
//! [`WorkerPool::workers`] threads, the calling thread being worker 0.
//! Every worker **claims the next task index from one shared counter**
//! (`fetch_add`) until the indices run out, so a worker that finishes early
//! simply claims more: the tasks are independent, and no other balancing is
//! needed. Callers choose task granularity with [`WorkerPool::batch_size`],
//! which targets [`TASKS_PER_WORKER`] chunks per worker: enough slack that a
//! straggler chunk does not leave the other workers idle, coarse enough that
//! per-task overhead (one atomic add and one push) stays invisible.
//!
//! # Why determinism survives scheduling
//!
//! Each worker keeps its own `(index, result)` list and hands it back
//! through its thread's join handle; the caller places the results in index
//! order, so *which worker* ran a task is unobservable in the output. Every
//! call site feeds the indexed results into an order-insensitive or
//! index-ordered reduction (concatenation in index order, sort+dedup+fold,
//! or commutative metric-sheet merges), so the bit-identical-at-every-
//! thread-count contract holds under any interleaving. Scheduling *is*
//! visible in wall time and in the execution-dependent counter class
//! (`pool.tasks`, per-phase busy time) — exactly the values the determinism
//! suite excludes.
//!
//! The pool object itself is what persists across phases: the resolved
//! thread budget and the cumulative scheduling statistics. The OS threads
//! are scoped per batch — in safe Rust (the workspace forbids `unsafe`),
//! long-lived threads cannot borrow phase-local data such as the trace
//! corpus or the half-built graph, so each `run` opens a
//! `crossbeam::thread::scope` whose threads may freely borrow from the
//! caller's stack. Spawning a scoped thread costs tens of microseconds;
//! at the scales where parallelism pays at all this is noise, and a batch
//! with one worker spawns nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use obs::trace::Tracer;
use obs::{Clock, MonotonicClock, Recorder, WorkerTracer};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Target task chunks per worker for [`WorkerPool::batch_size`]: small
/// enough that a straggler chunk leaves the other workers more to claim,
/// large enough that per-task overhead is amortized over many items.
pub const TASKS_PER_WORKER: usize = 8;

/// Cumulative scheduling statistics, across every batch a pool has run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed.
    pub tasks: u64,
    /// `run` batches dispatched.
    pub batches: u64,
    /// Aggregate worker busy time, in nanoseconds (sums across workers, so
    /// it can exceed wall time).
    pub busy_nanos: u64,
}

/// What one worker hands back through its join handle: the tasks it ran
/// with their results, in the order it claimed them (ascending), its busy
/// time in nanoseconds, and its private event buffer.
type WorkerShare<T> = (Vec<(usize, T)>, u64, WorkerTracer);

/// The shared worker pool: a thread budget plus cumulative scheduling
/// statistics, created once per pipeline run and passed to every phase.
pub struct WorkerPool {
    workers: usize,
    clock: Arc<dyn Clock>,
    rec: Recorder,
    tracer: Tracer,
    tasks: AtomicU64,
    batches: AtomicU64,
    busy_nanos: AtomicU64,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// A pool with `threads` workers (`0` = all available parallelism, the
    /// `Config::threads` convention) and telemetry off.
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::with_recorder(threads, Recorder::disabled())
    }

    /// A pool that reports `pool.tasks` and per-phase busy
    /// time into `rec` as execution-dependent counters after every batch.
    pub fn with_recorder(threads: usize, rec: Recorder) -> WorkerPool {
        let workers = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        let tracer = rec.tracer();
        WorkerPool {
            workers,
            clock: Arc::new(MonotonicClock::new()),
            rec,
            tracer,
            tasks: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// The resolved worker budget (≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker count a batch of `jobs` items can actually use — the
    /// budget clamped to the job count (and to 1 for empty batches). Phases
    /// record this as their `*.workers` execution counter.
    pub fn worker_cap(&self, jobs: usize) -> usize {
        self.workers.clamp(1, jobs.max(1))
    }

    /// The per-shard batch size for `items` work items: aims for
    /// [`TASKS_PER_WORKER`] tasks per worker so workers that finish
    /// early have more to claim, never below 1.
    pub fn batch_size(&self, items: usize) -> usize {
        (items / (self.workers * TASKS_PER_WORKER).max(1)).max(1)
    }

    /// The recorder the pool reports to: a caller that only holds the pool
    /// records its own spans here.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Cumulative statistics since the pool was created.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.tasks.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
        }
    }

    /// Runs `job(0..tasks)` across the pool and returns the results in task
    /// index order, bit-identical to a serial `(0..tasks).map(job)` walk.
    ///
    /// `busy` names the execution-dependent counter that receives this
    /// batch's aggregate worker busy time in microseconds (one of the
    /// `obs::names::EXEC_POOL_BUSY_*` constants at pipeline call sites).
    ///
    /// A panic in any task propagates to the caller after all workers have
    /// been joined — the pool never hangs on a dead worker, and an
    /// unhandled propagated panic exits the process nonzero as usual.
    pub fn run<T: Send>(
        &self,
        busy: &'static str,
        tasks: usize,
        job: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        if tasks == 0 {
            // An empty batch is still a dispatched batch: `batches` counts
            // every `run` invocation so callers can reconcile call counts
            // against the stats (PoolStats accounting contract).
            self.account(busy, 0, 0);
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        // One worker's schedule: claim indices from the shared counter until
        // they run out. Each index is returned by exactly one `fetch_add`.
        let work = |w: usize| -> WorkerShare<T> {
            let mut wt = self.tracer.worker(obs::names::TRACK_POOL_WORKER, w);
            let mut done = Vec::new();
            let t0 = self.clock.now_nanos();
            loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= tasks {
                    break;
                }
                wt.begin(obs::names::EV_POOL_TASK, t as u64);
                done.push((t, job(t)));
                wt.end(obs::names::EV_POOL_TASK);
            }
            (done, self.clock.now_nanos().saturating_sub(t0), wt)
        };
        let mut batch_tr = self.tracer.track(obs::names::TRACK_POOL_BATCHES);
        batch_tr.begin(obs::names::EV_POOL_BATCH, tasks as u64);
        #[expect(
            clippy::disallowed_methods,
            reason = "the pool is the pipeline's one thread-creation site; results are placed \
                      in task-index order, so scheduling never reaches the output"
        )]
        let result = crossbeam::thread::scope(|s| {
            let work = &work;
            let spawned: Vec<_> = (1..self.workers.min(tasks))
                .map(|w| s.spawn(move |_| work(w)))
                .collect();
            let mut shares = vec![work(0)];
            for h in spawned {
                shares.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            shares
        });
        let shares = result.unwrap_or_else(|p| std::panic::resume_unwind(p));
        batch_tr.begin(obs::names::EV_POOL_REASSEMBLE, tasks as u64);
        let mut out: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
        let mut busy_nanos = 0;
        for (done, worker_busy, wt) in shares {
            for (i, v) in done {
                out[i] = Some(v);
            }
            busy_nanos += worker_busy;
            self.tracer.submit(wt);
        }
        batch_tr.end(obs::names::EV_POOL_REASSEMBLE);
        batch_tr.end(obs::names::EV_POOL_BATCH);
        self.tracer.submit(batch_tr);
        self.account(busy, tasks as u64, busy_nanos);
        out.into_iter()
            .map(|s| s.expect("worker pool lost a task"))
            .collect()
    }

    /// [`WorkerPool::run`] over disjoint pieces of one buffer: task `t`
    /// also gets `out[bounds[t]..bounds[t + 1]]` to write, so tasks fill
    /// one caller-owned column in place instead of returning pieces to be
    /// copied together. `bounds` ascends from 0 to `out.len()` and is one
    /// longer than the task count. Each piece belongs to exactly one task,
    /// so what a piece holds afterwards depends on its task alone.
    ///
    /// # Panics
    ///
    /// If `bounds` does not ascend from 0 to `out.len()`.
    pub fn run_split<D: Send, T: Send>(
        &self,
        busy: &'static str,
        out: &mut [D],
        bounds: &[usize],
        job: impl Fn(usize, &mut [D]) -> T + Sync,
    ) -> Vec<T> {
        assert_eq!(bounds.first().copied().unwrap_or(0), 0, "bounds start at 0");
        assert_eq!(
            bounds.last().copied().unwrap_or(0),
            out.len(),
            "bounds end at the buffer's end"
        );
        let mut pieces = Vec::with_capacity(bounds.len().saturating_sub(1));
        let mut rest = out;
        for w in bounds.windows(2) {
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
            pieces.push(Mutex::new(Some(piece)));
            rest = tail;
        }
        self.run(busy, pieces.len(), |t| {
            let piece = pieces[t].lock().take().expect("each piece is taken once");
            job(t, piece)
        })
    }

    /// Folds one batch's scheduling tallies into the cumulative stats and
    /// the execution-dependent counter class.
    fn account(&self, busy: &'static str, tasks: u64, busy_nanos: u64) {
        self.tasks.fetch_add(tasks, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(busy_nanos, Ordering::Relaxed);
        self.rec.add_exec(obs::names::EXEC_POOL_TASKS, tasks);
        self.rec.add_exec(busy, busy_nanos / 1_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let pool = WorkerPool::new(0);
        assert!(pool.workers() >= 1);
        assert_eq!(WorkerPool::new(3).workers(), 3);
    }

    #[test]
    fn run_matches_serial_map() {
        let pool = WorkerPool::new(4);
        let out = pool.run("pool.busy_us.test", 100, |i| i * i);
        let serial: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn empty_and_single_task_batches() {
        let pool = WorkerPool::new(4);
        assert!(pool.run("pool.busy_us.test", 0, |i| i).is_empty());
        assert_eq!(pool.run("pool.busy_us.test", 1, |i| i + 7), vec![7]);
    }

    /// Track names of the worker tracks that recorded at least one task.
    fn tracks_with_tasks(doc: &obs::trace::TraceDoc) -> Vec<&str> {
        doc.tracks
            .iter()
            .filter(|t| t.name.starts_with(obs::names::TRACK_POOL_WORKER))
            .filter(|t| t.events.iter().any(|e| e.name == obs::names::EV_POOL_TASK))
            .map(|t| t.name.as_str())
            .collect()
    }

    /// A deliberately skewed batch (one task orders of magnitude slower than
    /// the rest) makes the other worker claim the remaining tasks, and the
    /// result vector must still equal the serial map — task index order,
    /// not completion order.
    #[test]
    fn reduction_order_is_index_order_even_under_skew() {
        let rec = Recorder::with_tracing(false, 4096);
        let pool = WorkerPool::with_recorder(2, rec.clone());
        let out = pool.run("pool.busy_us.test", 64, |i| {
            if i == 0 {
                // Pin whichever worker claims task 0 so the other one must
                // claim the rest.
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            i * 3
        });
        let serial: Vec<usize> = (0..64).map(|i| i * 3).collect();
        assert_eq!(out, serial, "scheduling must not reorder results");
        let doc = rec.tracer().finish();
        assert!(
            tracks_with_tasks(&doc).len() > 1,
            "skewed batch should run tasks on both workers"
        );
    }

    #[test]
    fn worker_panic_propagates_and_does_not_hang() {
        let pool = WorkerPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run("pool.busy_us.test", 32, |i| {
                if i == 17 {
                    panic!("task 17 exploded");
                }
                i
            })
        }));
        assert!(caught.is_err(), "panic must reach the caller");
        // Every task panics, so the calling thread (worker 0) and a spawned
        // worker both panic: whichever panic is seen first reaches the
        // caller, with its own payload, after every worker is joined.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run("pool.busy_us.test", 32, |i| -> usize {
                // Hold every worker in its first task so each claims one.
                std::thread::sleep(std::time::Duration::from_millis(5));
                panic!("task {i} exploded")
            })
        }));
        let payload = caught.expect_err("panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.ends_with("exploded"), "{msg}");
        // Only spawned workers panic: their payload crosses the join.
        let caller = std::thread::current().id();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run("pool.busy_us.test", 32, |i| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                assert_eq!(std::thread::current().id(), caller, "spawned worker");
                i
            })
        }));
        let payload = caught.expect_err("a spawned worker's panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains("spawned worker"), "{msg}");
        // The pool is still usable after a failed batch.
        assert_eq!(pool.run("pool.busy_us.test", 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn stats_accumulate_across_batches() {
        let pool = WorkerPool::new(2);
        pool.run("pool.busy_us.test", 10, |i| i);
        pool.run("pool.busy_us.test", 5, |i| i);
        let stats = pool.stats();
        assert_eq!(stats.tasks, 15);
        assert_eq!(stats.batches, 2);
    }

    /// PoolStats accounting contract: `tasks` is the sum of per-batch sizes
    /// and `batches` increments exactly once per `run` invocation —
    /// including the empty-input early-return path.
    #[test]
    fn stats_account_every_batch_including_empty() {
        let pool = WorkerPool::new(3);
        let sizes = [0usize, 7, 1, 0, 12];
        for &n in &sizes {
            pool.run("pool.busy_us.test", n, |i| i);
        }
        let stats = pool.stats();
        let run_tasks: usize = sizes.iter().sum();
        assert_eq!(
            stats.tasks, run_tasks as u64,
            "tasks == sum of per-batch sizes"
        );
        assert_eq!(
            stats.batches,
            sizes.len() as u64,
            "every run counts one batch, empty inputs included"
        );
    }

    #[test]
    fn run_split_hands_each_task_its_own_piece() {
        for workers in [1, 2, 8] {
            let pool = WorkerPool::new(workers);
            let mut out = vec![0usize; 10];
            let bounds = [0, 3, 3, 7, 10];
            let lens = pool.run_split("t", &mut out, &bounds, |t, piece| {
                piece.iter_mut().for_each(|x| *x = t + 1);
                piece.len()
            });
            assert_eq!(lens, [3, 0, 4, 3]);
            assert_eq!(out, [1, 1, 1, 3, 3, 3, 3, 4, 4, 4]);
        }
        let none = WorkerPool::new(2).run_split("t", &mut [0u8; 0], &[0], |_, _| ());
        assert!(none.is_empty());
    }

    #[test]
    fn recorder_receives_pool_counters() {
        let rec = Recorder::new(false);
        let pool = WorkerPool::with_recorder(2, rec.clone());
        pool.run("pool.busy_us.test", 20, |i| i);
        let report = rec.report();
        assert_eq!(report.exec[obs::names::EXEC_POOL_TASKS], 20);
        assert!(report.exec.contains_key("pool.busy_us.test"));
    }

    /// Tracing captures the scheduling story: a batch must surface per-task
    /// spans on worker tracks and the batch dispatch/reassembly spans, and
    /// the merged export must pass the trace validator — also when the
    /// batch has one worker and runs on the calling thread alone.
    #[test]
    fn tracing_records_dispatch_tasks_and_reassembly() {
        for workers in [1, 2] {
            let rec = Recorder::with_tracing(false, 4096);
            let pool = WorkerPool::with_recorder(workers, rec.clone());
            let out = pool.run("pool.busy_us.test", 64, |i| i);
            assert_eq!(out.len(), 64);
            let doc = rec.tracer().finish();
            let names: Vec<&str> = doc.tracks.iter().map(|t| t.name.as_str()).collect();
            assert!(names.contains(&obs::names::TRACK_POOL_BATCHES));
            // Which workers ran tasks is scheduling-dependent (one worker
            // can claim every index), but someone always did.
            assert!(!tracks_with_tasks(&doc).is_empty());
            let json = doc.to_chrome_json();
            assert!(json.contains(obs::names::EV_POOL_TASK));
            assert!(json.contains(obs::names::EV_POOL_REASSEMBLE));
            obs::trace::validate_chrome_json(&json).expect("pool trace validates");
        }
    }

    /// With tracing off (the default recorder), the pool allocates no
    /// tracks and produces an empty document.
    #[test]
    fn disabled_tracer_stays_empty_through_a_batch() {
        let rec = Recorder::new(false);
        let pool = WorkerPool::with_recorder(4, rec.clone());
        pool.run("pool.busy_us.test", 32, |i| i);
        assert!(rec.tracer().finish().tracks.is_empty());
    }

    #[test]
    fn batch_size_targets_tasks_per_worker() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.batch_size(0), 1);
        assert_eq!(pool.batch_size(31), 1);
        assert_eq!(pool.batch_size(3200), 100);
        assert_eq!(pool.worker_cap(2), 2);
        assert_eq!(pool.worker_cap(0), 1);
        assert_eq!(pool.worker_cap(100), 4);
    }

    proptest! {
        /// Pool results equal the serial map for arbitrary task counts and
        /// worker budgets — the shard-count-invariance contract every call
        /// site builds on.
        #[test]
        fn run_equals_serial_for_arbitrary_shard_counts(
            tasks in 0usize..200,
            workers in 1usize..9,
        ) {
            let pool = WorkerPool::new(workers);
            let out = pool.run("pool.busy_us.test", tasks, |i| i.wrapping_mul(2654435761));
            let serial: Vec<usize> =
                (0..tasks).map(|i| i.wrapping_mul(2654435761)).collect();
            prop_assert_eq!(out, serial);
        }
    }
}
