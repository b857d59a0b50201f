//! **pool**: the pipeline's shared work-stealing worker pool.
//!
//! One [`WorkerPool`] is created per pipeline run and threaded through the
//! probe campaign and the phase-1 graph build, replacing the per-phase
//! fixed-slot spawns each of those used to carry. The pool is the *only*
//! place in the workspace allowed to create threads (detlint's
//! `unscoped-thread` rule pins it); every other crate expresses parallelism
//! as indexed task batches handed to [`WorkerPool::run`].
//!
//! # Scheduling model (DESIGN.md §13)
//!
//! [`WorkerPool::run`] executes `tasks` indexed closures on up to
//! [`WorkerPool::workers`] scoped threads. Tasks are **dealt out in
//! contiguous per-worker intervals** of the index space (the same canonical
//! split the old fixed-slot pools used), and a worker that drains its own
//! interval **steals the back half** of the most-loaded sibling's interval —
//! owner pops at the front, thieves split at the back, in the spirit of a
//! Chase-Lev deque built from safe primitives. Callers choose task
//! granularity with [`WorkerPool::batch_size`], which targets
//! [`TASKS_PER_WORKER`] chunks per worker: enough slack for stealing to
//! rebalance skewed shards, coarse enough that per-task overhead (one lock
//! acquisition and one channel send) stays invisible.
//!
//! # Why determinism survives stealing
//!
//! Results are keyed by task index and reassembled in index order after the
//! scope joins, so *which worker* ran a task is unobservable in the output.
//! Every call site feeds the indexed results into an order-insensitive or
//! index-ordered reduction (concatenation in index order, sort+dedup+fold,
//! or commutative metric-sheet merges), so the bit-identical-at-every-
//! thread-count contract holds under any interleaving. Scheduling *is*
//! visible in wall time and in the execution-dependent counter class
//! (`pool.tasks`, `pool.steals`, per-phase busy time) — exactly the values
//! the determinism suite excludes.
//!
//! The pool object itself is what persists across phases: the resolved
//! thread budget and the cumulative scheduling statistics. The OS threads
//! are scoped per batch — in safe Rust (the workspace forbids `unsafe`),
//! long-lived threads cannot borrow phase-local data such as the trace
//! corpus or the half-built graph, so each `run` opens a
//! `crossbeam::thread::scope` whose threads may freely borrow from the
//! caller's stack. Spawning a scoped thread costs tens of microseconds;
//! at the scales where parallelism pays at all this is noise, and at toy
//! scales the `workers == 1` / single-task fast path skips threads
//! entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use obs::trace::Tracer;
use obs::{Clock, MonotonicClock, Recorder, WorkerTracer};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// Target task chunks per worker for [`WorkerPool::batch_size`]: small
/// enough that a straggler chunk can be rebalanced by stealing, large
/// enough that per-task overhead is amortized over many items.
pub const TASKS_PER_WORKER: usize = 8;

/// The canonical chunked deal-out: worker `w` of `crew` owns the contiguous
/// half-open task interval `[tasks*w/crew, tasks*(w+1)/crew)`. Factored out
/// of [`WorkerPool::run`] so the loom protocol model (tests/loom_model.rs)
/// checks the very arithmetic production uses, not a reimplementation.
pub fn deal_intervals(tasks: usize, crew: usize) -> Vec<(usize, usize)> {
    (0..crew)
        .map(|w| (tasks * w / crew, tasks * (w + 1) / crew))
        .collect()
}

/// How many tasks a thief splits off the back of a victim interval with
/// `rem` tasks remaining: the back half, rounded up so a 1-task interval is
/// still stealable. Shared with the loom protocol model like
/// [`deal_intervals`].
pub fn steal_take(rem: usize) -> usize {
    rem.div_ceil(2)
}

/// Cumulative scheduling statistics, across every batch a pool has run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed.
    pub tasks: u64,
    /// Tasks taken from a sibling's interval rather than the dealt one.
    pub steals: u64,
    /// `run` batches dispatched.
    pub batches: u64,
    /// Aggregate worker busy time, in nanoseconds (sums across workers, so
    /// it can exceed wall time).
    pub busy_nanos: u64,
}

/// The shared worker pool: a thread budget plus cumulative scheduling
/// statistics, created once per pipeline run and passed to every phase.
pub struct WorkerPool {
    workers: usize,
    clock: Arc<dyn Clock>,
    rec: Recorder,
    tracer: Tracer,
    tasks: AtomicU64,
    steals: AtomicU64,
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

    /// A pool that reports `pool.tasks` / `pool.steals` and per-phase busy
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
            steals: AtomicU64::new(0),
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
    /// [`TASKS_PER_WORKER`] tasks per worker so stealing has slack to
    /// rebalance, never below 1.
    pub fn batch_size(&self, items: usize) -> usize {
        (items / (self.workers * TASKS_PER_WORKER).max(1)).max(1)
    }

    /// Cumulative statistics since the pool was created.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.tasks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
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
            self.account(busy, 0, 0, 0);
            return Vec::new();
        }
        let crew = self.workers.min(tasks);
        if crew == 1 {
            let mut batch_tr = self.tracer.track(obs::names::TRACK_POOL_BATCHES);
            batch_tr.begin(obs::names::EV_POOL_BATCH, tasks as u64);
            let t0 = self.clock.now_nanos();
            let out: Vec<T> = (0..tasks).map(job).collect();
            let busy_ns = self.clock.now_nanos().saturating_sub(t0);
            batch_tr.end(obs::names::EV_POOL_BATCH);
            self.tracer.submit(batch_tr);
            self.account(busy, tasks as u64, 0, busy_ns);
            return out;
        }
        // Chunked deal-out: worker `w` owns the contiguous task interval
        // `[tasks*w/crew, tasks*(w+1)/crew)`; intervals shrink from the
        // front as the owner pops and from the back as thieves split.
        let slots: Vec<Mutex<(usize, usize)>> = deal_intervals(tasks, crew)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let steals = AtomicU64::new(0);
        let busy_ns = AtomicU64::new(0);
        // Per-worker event buffers: each worker records into its own
        // tracer (no shared state on the hot path) and parks it in its
        // slot; the coordinator submits them in worker-index order below.
        let trace_slots: Vec<Mutex<Option<WorkerTracer>>> =
            (0..crew).map(|_| Mutex::new(None)).collect();
        let mut batch_tr = self.tracer.track(obs::names::TRACK_POOL_BATCHES);
        batch_tr.begin(obs::names::EV_POOL_BATCH, tasks as u64);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let result = crossbeam::thread::scope(|s| {
            let (slots, job) = (&slots, &job);
            let (steals, busy_ns) = (&steals, &busy_ns);
            let (clock, tracer) = (&self.clock, &self.tracer);
            for (w, trace_slot) in trace_slots.iter().enumerate().skip(1) {
                let tx = tx.clone();
                s.spawn(move |_| {
                    let mut wt = tracer.worker(obs::names::TRACK_POOL_WORKER, w);
                    let t0 = clock.now_nanos();
                    steal_loop(w, slots, job, &tx, steals, &mut wt);
                    busy_ns.fetch_add(clock.now_nanos().saturating_sub(t0), Ordering::Relaxed);
                    *trace_slot.lock() = Some(wt);
                });
            }
            let mut wt = tracer.worker(obs::names::TRACK_POOL_WORKER, 0);
            let t0 = clock.now_nanos();
            steal_loop(0, slots, job, &tx, steals, &mut wt);
            busy_ns.fetch_add(clock.now_nanos().saturating_sub(t0), Ordering::Relaxed);
            *trace_slots[0].lock() = Some(wt);
        });
        drop(tx);
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
        batch_tr.begin(obs::names::EV_POOL_REASSEMBLE, tasks as u64);
        let mut out: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
        for (i, v) in rx {
            out[i] = Some(v);
        }
        batch_tr.end(obs::names::EV_POOL_REASSEMBLE);
        batch_tr.end(obs::names::EV_POOL_BATCH);
        for slot in trace_slots {
            if let Some(wt) = slot.into_inner() {
                self.tracer.submit(wt);
            }
        }
        self.tracer.submit(batch_tr);
        self.account(
            busy,
            tasks as u64,
            // detlint::allow(relaxed-atomic-output): counters feed the exec-only PoolStats/metrics surface, never the returned Vec
            steals.load(Ordering::Relaxed),
            busy_ns.load(Ordering::Relaxed),
        );
        out.into_iter()
            .map(|s| s.expect("worker pool lost a task"))
            .collect()
    }

    /// Folds one batch's scheduling tallies into the cumulative stats and
    /// the execution-dependent counter class.
    fn account(&self, busy: &'static str, tasks: u64, steals: u64, busy_nanos: u64) {
        self.tasks.fetch_add(tasks, Ordering::Relaxed);
        self.steals.fetch_add(steals, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(busy_nanos, Ordering::Relaxed);
        self.rec.add_exec(obs::names::EXEC_POOL_TASKS, tasks);
        self.rec.add_exec(obs::names::EXEC_POOL_STEALS, steals);
        self.rec.add_exec(busy, busy_nanos / 1_000);
    }
}

/// One worker's schedule: pop single tasks from the front of the own
/// interval; when it runs dry, split the back half off the most-loaded
/// sibling and continue; stop when every interval is empty.
fn steal_loop<T: Send, F: Fn(usize) -> T + Sync>(
    me: usize,
    slots: &[Mutex<(usize, usize)>],
    job: &F,
    tx: &mpsc::Sender<(usize, T)>,
    steals: &AtomicU64,
    wt: &mut WorkerTracer,
) {
    loop {
        let task = {
            let mut own = slots[me].lock();
            if own.0 < own.1 {
                let t = own.0;
                own.0 += 1;
                Some(t)
            } else {
                None
            }
        };
        if let Some(t) = task {
            wt.begin(obs::names::EV_POOL_TASK, t as u64);
            // The receiver outlives the scope, so a send only fails after a
            // sibling panicked and the whole batch is being torn down.
            let _ = tx.send((t, job(t)));
            wt.end(obs::names::EV_POOL_TASK);
            continue;
        }
        let mut victim = None;
        let mut best = 0usize;
        for (v, slot) in slots.iter().enumerate() {
            if v == me {
                continue;
            }
            let g = slot.lock();
            let rem = g.1 - g.0;
            if rem > best {
                best = rem;
                victim = Some(v);
            }
        }
        let Some(v) = victim else { break };
        let stolen = {
            let mut g = slots[v].lock();
            let rem = g.1 - g.0;
            if rem == 0 {
                continue; // raced with the owner; rescan
            }
            let take = steal_take(rem);
            g.1 -= take;
            (g.1, g.1 + take)
        };
        *slots[me].lock() = stolen;
        steals.fetch_add(1, Ordering::Relaxed);
        wt.instant(obs::names::EV_POOL_STEAL, (stolen.1 - stolen.0) as u64);
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

    /// The satellite's "deterministic reduction order under stealing" test:
    /// a deliberately skewed batch (one task orders of magnitude slower than
    /// the rest) forces real steals, and the result vector must still equal
    /// the serial map — task index order, not completion order.
    #[test]
    fn reduction_order_is_index_order_even_under_stealing() {
        let pool = WorkerPool::new(2);
        let before = pool.stats().steals;
        let out = pool.run("pool.busy_us.test", 64, |i| {
            if i == 0 {
                // Pin worker 0 on its first task so worker 1 must drain its
                // own interval and then steal the rest of worker 0's.
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            i * 3
        });
        let serial: Vec<usize> = (0..64).map(|i| i * 3).collect();
        assert_eq!(out, serial, "stealing must not reorder results");
        assert!(
            pool.stats().steals > before,
            "skewed batch should force at least one steal"
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

    /// The factored deal-out must partition `0..tasks` into contiguous,
    /// non-overlapping, exhaustive per-worker intervals for every shape.
    #[test]
    fn deal_intervals_partition_the_index_space() {
        for tasks in 0..48 {
            for crew in 1..9 {
                let iv = deal_intervals(tasks, crew);
                assert_eq!(iv.len(), crew);
                assert_eq!(iv[0].0, 0);
                assert_eq!(iv[crew - 1].1, tasks);
                for w in 1..crew {
                    assert_eq!(iv[w - 1].1, iv[w].0, "gap or overlap at worker {w}");
                }
            }
        }
        assert_eq!(steal_take(1), 1, "a 1-task interval is still stealable");
        assert_eq!(steal_take(7), 4, "thieves take the back half, rounded up");
    }

    #[test]
    fn recorder_receives_pool_counters() {
        let rec = Recorder::new(false);
        let pool = WorkerPool::with_recorder(2, rec.clone());
        pool.run("pool.busy_us.test", 20, |i| i);
        let report = rec.report();
        assert_eq!(report.exec[obs::names::EXEC_POOL_TASKS], 20);
        assert!(report.exec.contains_key(obs::names::EXEC_POOL_STEALS));
        assert!(report.exec.contains_key("pool.busy_us.test"));
    }

    /// Tracing captures the scheduling story: a skewed batch that forces
    /// real steals must surface per-task spans, a steal instant, and the
    /// batch dispatch/reassembly spans, and the merged export must pass the
    /// trace validator.
    #[test]
    fn tracing_records_dispatch_steal_and_reassembly() {
        let rec = Recorder::with_tracing(false, 4096);
        let pool = WorkerPool::with_recorder(2, rec.clone());
        let out = pool.run("pool.busy_us.test", 64, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            i
        });
        assert_eq!(out.len(), 64);
        assert!(pool.stats().steals > 0, "skewed batch should force a steal");
        let doc = rec.tracer().finish();
        let names: Vec<&str> = doc.tracks.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&obs::names::TRACK_POOL_BATCHES));
        // Which workers ran tasks is scheduling-dependent (a thief can
        // drain a sibling's whole interval), but someone always did.
        assert!(names.iter().any(|n| n.starts_with("pool.worker")));
        let json = doc.to_chrome_json();
        assert!(json.contains(obs::names::EV_POOL_TASK));
        assert!(json.contains(obs::names::EV_POOL_STEAL));
        assert!(json.contains(obs::names::EV_POOL_REASSEMBLE));
        obs::trace::validate_chrome_json(&json).expect("pool trace validates");
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
