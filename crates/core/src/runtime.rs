//! The persistent execution runtime: a long-lived pool of worker threads
//! behind a structured-submission API.
//!
//! Every fan-out in the workspace used to pay a fresh `std::thread::scope`
//! spawn per pass/shard; a [`Runtime`] amortizes that cost by keeping
//! its workers alive for the process lifetime. Scheduling is one FIFO
//! queue behind one `Mutex`, plus one `Condvar` for idle workers:
//!
//! * every submission — from an outside thread or from a task running on
//!   a pool worker — pushes onto the shared queue under the lock, updates
//!   an atomic mirror of the queue length, and wakes one sleeping worker
//!   unless a wakeup is already in flight (a worker that pops passes it
//!   on while work remains);
//! * an idle worker polls that mirror through a short, fixed
//!   spin-then-yield backoff before it sleeps on the condvar, so a steady
//!   stream of fan-outs rarely pays a sleep/wake round trip. The decision
//!   to sleep is taken under the queue lock, so a push can never fall
//!   between a worker's last look at the queue and its wait.
//!
//! Structure:
//!
//! * [`Runtime::scope`] — structured submission: tasks spawned inside the
//!   scope may borrow from the enclosing frame (like `std::thread::scope`);
//!   the scope does not return until every task has completed, and task
//!   panics are resurfaced on the submitting thread at scope end (first
//!   payload wins, *suppressed sibling panics are counted* in the
//!   resurfaced message rather than dropped silently). The contract is the
//!   same at every width, the inline 1-worker runtime included.
//! * [`Runtime::map_parts`] — the one fork/join shape the workspace uses:
//!   run a closure once per part, results in part order. **Results are
//!   identical for every pool size and across pool reuse** — each part
//!   writes its own slot, so scheduling can never reorder or leak state.
//! * Submission is re-entrant: a task may itself call `scope`/`map_parts`
//!   on the same runtime (parallel passes inside parallel guesses). A
//!   thread waiting for its scope helps execute queued tasks instead of
//!   blocking, so nested submission makes progress even when every pool
//!   worker is busy.
//! * [`Runtime::default`] sizes the pool from
//!   [`std::thread::available_parallelism`], overridable with the
//!   `STREAMCOVER_WORKERS` environment variable (snapshotted at the first
//!   read, so one process sees one width); [`Runtime::global`] and
//!   [`Runtime::sequential`] are the lazily-initialized shared instances
//!   (default-sized and single-worker respectively).

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::AcqRel, Ordering::Acquire, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// One unit of submitted work, tagged with the scope that awaits it.
struct Task {
    scope: Arc<ScopeState>,
    // Lifetime-erased from `'env`; sound because `Runtime::scope` blocks
    // until the owning scope's pending count reaches zero before `'env`
    // data can go out of scope.
    run: Box<dyn FnOnce() + Send + 'static>,
}

/// Executes one task, recording a panic on its scope instead of unwinding
/// through (and killing) the executing thread; panics are resurfaced by
/// the submitter at scope end.
fn run_task(task: Task) {
    let Task { scope, run } = task;
    let outcome = catch_unwind(AssertUnwindSafe(run)).err();
    scope.complete(outcome);
}

// ---------------------------------------------------------------------------
// The shared queue
// ---------------------------------------------------------------------------

/// Everything guarded by the pool lock.
struct Queue {
    tasks: VecDeque<Task>,
    /// Workers blocked on [`Shared::wake`].
    sleepers: usize,
    /// A notify was sent and its worker has not woken yet; cleared by the
    /// next worker to return from its wait.
    waking: bool,
    shutdown: bool,
}

impl Queue {
    /// Whether the caller should wake one sleeping worker: work is queued,
    /// a worker sleeps, and no earlier wakeup is still in flight. A burst
    /// of pushes thus costs one notify, and each worker that pops passes
    /// the wakeup on while work remains.
    fn claim_wake(&mut self) -> bool {
        let wake = !self.tasks.is_empty() && self.sleepers > 0 && !self.waking;
        self.waking |= wake;
        wake
    }
}

/// State shared between the pool threads and submitters.
struct Shared {
    queue: Mutex<Queue>,
    /// `queue.tasks.len()` as of the last push or pop. Written only under
    /// the lock, read without it so idle workers and helping submitters can
    /// poll an empty queue without contending on the lock. The tasks
    /// themselves pass through the mutex, so the mirror publishes no data
    /// and `Relaxed` suffices: a stale read only delays a pickup, because a
    /// worker never sleeps without rechecking the queue under the lock.
    queued: AtomicUsize,
    wake: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Nothing panics while holding the lock (tasks run outside it).
        self.queue.lock().expect("runtime queue lock poisoned")
    }

    /// Refreshes the length mirror, unlocks, and wakes one sleeping
    /// worker when [`Queue::claim_wake`] says so.
    fn unlock(&self, mut q: MutexGuard<'_, Queue>) {
        self.queued.store(q.tasks.len(), Relaxed);
        let wake = q.claim_wake();
        drop(q);
        if wake {
            self.wake.notify_one();
        }
    }

    fn push(&self, task: Task) {
        let mut q = self.lock();
        q.tasks.push_back(task);
        self.unlock(q);
    }

    /// Pops the oldest task, if any; an empty queue costs one atomic load.
    fn pop(&self) -> Option<Task> {
        if self.queued.load(Relaxed) == 0 {
            return None;
        }
        let mut q = self.lock();
        let task = q.tasks.pop_front();
        self.unlock(q);
        task
    }
}

/// Spin rounds of the idle backoff; round `r` pauses `2^min(r,6)` times.
const BACKOFF_SPINS: usize = 8;
/// `thread::yield_now` rounds after spinning, before a worker sleeps.
const BACKOFF_YIELDS: usize = 4;

/// Polls the queue-length mirror through the bounded spin-then-yield
/// backoff; `true` as soon as work shows up.
fn idle_poll(shared: &Shared) -> bool {
    (0..BACKOFF_SPINS + BACKOFF_YIELDS).any(|round| {
        if round < BACKOFF_SPINS {
            for _ in 0..(1usize << round.min(6)) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        shared.queued.load(Relaxed) > 0
    })
}

/// One pool worker: pop and run, back off, sleep; repeat until shutdown.
fn worker_loop(shared: &Shared) {
    loop {
        if let Some(task) = shared.pop() {
            run_task(task);
            continue;
        }
        if idle_poll(shared) {
            continue;
        }
        let mut q = shared.lock();
        while q.tasks.is_empty() && !q.shutdown {
            q.sleepers += 1;
            q = shared.wake.wait(q).expect("runtime queue lock poisoned");
            q.sleepers -= 1;
            q.waking = false;
        }
        // Empty here means shutdown; queued tasks are drained first.
        if q.tasks.is_empty() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

/// Panic bookkeeping of one scope: the first payload plus a count of
/// suppressed sibling payloads (resurfaced in the scope-end message — a
/// silently dropped second panic previously hid real failures in
/// multi-task fan-outs).
struct PanicSlot {
    first: Option<Box<dyn Any + Send>>,
    suppressed: usize,
}

/// Completion latch of one scope: a lock-free pending count on the task
/// fast path; the mutex/condvar pair is only touched when the submitter
/// actually has to sleep (and once by the final completer to wake it).
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<PanicSlot>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(PanicSlot {
                first: None,
                suppressed: 0,
            }),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    fn record_panic(&self, p: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().expect("scope panic slot poisoned");
        if slot.first.is_none() {
            slot.first = Some(p);
        } else {
            slot.suppressed += 1;
            drop(p); // payload dropped, but *counted* — see take_panic
        }
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        if let Some(p) = panic {
            self.record_panic(p);
        }
        if self.pending.fetch_sub(1, AcqRel) == 1 {
            // Last task: wake the submitter if it sleeps. Taking the lock
            // (even without holding it across notify) orders this notify
            // after the submitter's pending-check-then-wait, so the
            // wakeup cannot fall between its check and its wait.
            drop(self.done_lock.lock().expect("scope latch poisoned"));
            self.done_cv.notify_all();
        }
    }

    /// Blocks until every task completed (pending == 0). Callers should
    /// help execute tasks first; this is the terminal sleep.
    fn wait_idle(&self) {
        if self.pending.load(Acquire) == 0 {
            return;
        }
        let mut guard = self.done_lock.lock().expect("scope latch poisoned");
        while self.pending.load(Acquire) > 0 {
            guard = self.done_cv.wait(guard).expect("scope latch poisoned");
        }
    }

    fn take_panic(&self) -> Option<(Box<dyn Any + Send>, usize)> {
        let mut slot = self.panic.lock().expect("scope panic slot poisoned");
        let suppressed = std::mem::take(&mut slot.suppressed);
        slot.first.take().map(|p| (p, suppressed))
    }
}

/// Handle for spawning tasks into an open [`Runtime::scope`]. Tasks may
/// borrow anything that outlives the scope (`'env`).
pub struct Scope<'rt, 'env> {
    rt: &'rt Runtime,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Submits one task. A sequential runtime (no pool threads) runs it
    /// inline, immediately; otherwise it is queued for the pool. Either
    /// way a panicking task is recorded on the scope, its siblings still
    /// run, and the panic is resurfaced when the scope ends.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        if self.rt.threads.is_empty() {
            // Nobody waits on the latch of an inline task, so only the
            // panic bookkeeping applies.
            if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                self.state.record_panic(p);
            }
            return;
        }
        let run: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the task only borrows data outliving 'env, and
        // `Runtime::scope` waits for this scope's pending count to reach
        // zero (helping to execute queued tasks) before returning control
        // to the frame that owns that data — even when the scope body or a
        // sibling task panics. The erased box never outlives the wait.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(run) };
        self.state.pending.fetch_add(1, Relaxed);
        self.rt.shared.push(Task {
            scope: Arc::clone(&self.state),
            run,
        });
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// A persistent pool of worker threads fed from one shared queue (see the
/// module docs).
///
/// A runtime with `workers() == w` executes fan-outs at parallelism `w`:
/// `w - 1` pool threads plus the submitting thread, which always
/// participates. `Runtime::new(1)` therefore spawns no threads at all and
/// runs every submission inline — the sequential runtime.
///
/// The runtime is `Sync`: one instance may serve concurrent and nested
/// submissions (the o͂pt-guess grid fans out guesses whose passes fan out
/// again on the same pool).
pub struct Runtime {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
}

impl Runtime {
    /// A runtime executing fan-outs at parallelism `workers` (clamped to
    /// ≥ 1): `workers − 1` persistent pool threads plus the submitting
    /// thread. `Runtime::new(1)` spawns nothing and runs submissions
    /// inline.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                sleepers: 0,
                waking: false,
                shutdown: false,
            }),
            queued: AtomicUsize::new(0),
            wake: Condvar::new(),
        });
        let threads = (0..workers - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("streamcover-rt-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn runtime worker")
            })
            .collect();
        Runtime {
            shared,
            threads,
            workers,
        }
    }

    /// The pool's parallelism (pool threads + the submitting thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared default-sized runtime (see [`Runtime::default`]),
    /// initialized lazily on first use and alive for the process lifetime —
    /// the pool behind the convenience entry points that take no explicit
    /// runtime ([`crate::greedy_cover_until_sharded`] and friends).
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| Runtime::new(default_workers()))
    }

    /// The shared single-worker runtime, initialized lazily: every
    /// submission runs inline on the calling thread. This is what the
    /// legacy `run(...)` entry points delegate to, so their behavior is
    /// byte-for-byte the old sequential one.
    pub fn sequential() -> &'static Runtime {
        static SEQ: OnceLock<Runtime> = OnceLock::new();
        SEQ.get_or_init(|| Runtime::new(1))
    }

    /// Opens a structured-submission scope: `f` may spawn borrowing tasks
    /// through the [`Scope`]; when `scope` returns, every spawned task has
    /// completed. If the body or any task panicked, the panic is resumed
    /// here (the body's payload takes precedence), after all tasks have
    /// finished — borrowed data is never left aliased by a live task. When
    /// several *tasks* panicked, the first payload is resurfaced and the
    /// message reports how many sibling panics were suppressed.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let scope = Scope {
            rt: self,
            state: Arc::new(ScopeState::new()),
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Help execute queued tasks while this scope drains, instead of
        // blocking a thread the pool could be using. Any task is fair
        // game: running a foreign task while ours finish elsewhere is
        // still progress (and is what keeps nested submission deadlock-
        // free when every pool worker is busy).
        while scope.state.pending.load(Acquire) > 0 {
            match self.shared.pop() {
                Some(task) => run_task(task),
                None => break, // nothing queued: our remainder is mid-flight
            }
        }
        scope.state.wait_idle();
        let task_panic = scope.state.take_panic();
        match result {
            Err(p) => resume_unwind(p),
            Ok(r) => {
                if let Some((payload, suppressed)) = task_panic {
                    if suppressed == 0 {
                        resume_unwind(payload);
                    }
                    let first = payload_text(&payload);
                    panic!(
                        "scope task panicked: {first} ({suppressed} additional task \
                         panic(s) suppressed in the same scope)"
                    );
                }
                r
            }
        }
    }

    /// Runs `work` once per part — on pool threads plus the calling thread
    /// when the runtime has any, inline otherwise — returning results in
    /// part order. The one fork/join shape every fan-out in the workspace
    /// routes through; results are independent of the pool size, the
    /// schedule, and any previous use of the runtime.
    pub fn map_parts<P: Sync, T: Send>(
        &self,
        parts: &[P],
        work: impl Fn(&P) -> T + Sync,
    ) -> Vec<T> {
        if parts.len() <= 1 {
            return parts.iter().map(&work).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = parts.iter().map(|_| Mutex::new(None)).collect();
        self.scope(|s| {
            for (slot, part) in slots.iter().zip(parts) {
                let work = &work;
                s.spawn(move || {
                    *slot.lock().expect("result slot poisoned") = Some(work(part));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("scope completed every part")
            })
            .collect()
    }
}

/// Best-effort human-readable rendering of a panic payload (for the
/// suppressed-count resurface message).
fn payload_text(payload: &Box<dyn Any + Send>) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

impl Default for Runtime {
    /// A runtime sized from [`std::thread::available_parallelism`], or from
    /// the `STREAMCOVER_WORKERS` environment variable when set to a
    /// positive integer. The environment is snapshotted on the first read
    /// (see [`default_workers`]), so every default-sized runtime in a
    /// process has the same width.
    fn default() -> Self {
        Runtime::new(default_workers())
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // No scope can be open here (scopes borrow the runtime), so the
        // queue is empty; shutting down is: raise the flag under the lock
        // (a worker deciding to sleep sees it), wake every sleeper, join.
        // Recovering a poisoned guard is sound: setting the flag leaves
        // the queue valid, and `Drop` must not panic.
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.shutdown = true;
        drop(q);
        self.shared.wake.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Runtime{{workers={}}}", self.workers)
    }
}

/// The default pool parallelism: `STREAMCOVER_WORKERS` when set to a
/// positive integer, else [`std::thread::available_parallelism`] (1 when
/// even that is unavailable).
///
/// The environment is read **once**, on the first call, and the value is
/// cached for the process lifetime: a mid-run `STREAMCOVER_WORKERS` change
/// cannot produce mixed pool widths between runtimes created before and
/// after it (a long-lived service constructing [`Runtime::default`] pools
/// on demand would otherwise observe both).
pub fn default_workers() -> usize {
    static SNAPSHOT: OnceLock<usize> = OnceLock::new();
    *SNAPSHOT.get_or_init(env_workers)
}

/// The uncached read behind [`default_workers`].
fn env_workers() -> usize {
    match std::env::var("STREAMCOVER_WORKERS") {
        Ok(v) => parse_workers(&v)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get())),
        Err(_) => std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

/// Parses a `STREAMCOVER_WORKERS` value; `None` for anything that is not a
/// positive integer (the override is then ignored).
fn parse_workers(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&w| w >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn default_workers_snapshots_the_environment_once() {
        // First read caches; a mid-run env change must not leak into later
        // reads (mixed pool widths inside one service). This test owns the
        // only read of STREAMCOVER_WORKERS in this crate's unit tests, so
        // mutating the variable here races with nothing.
        let first = default_workers();
        assert!(first >= 1);
        let saved = std::env::var("STREAMCOVER_WORKERS").ok();
        std::env::set_var("STREAMCOVER_WORKERS", (first + 7).to_string());
        assert_eq!(
            default_workers(),
            first,
            "env re-read after the first call must not change the width"
        );
        assert_eq!(default_workers(), first);
        match saved {
            Some(v) => std::env::set_var("STREAMCOVER_WORKERS", v),
            None => std::env::remove_var("STREAMCOVER_WORKERS"),
        }
    }

    #[test]
    fn map_parts_matches_inline_at_every_pool_size() {
        let parts: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = parts.iter().map(|&p| p * p + 1).collect();
        for workers in [1, 2, 3, 8] {
            let rt = Runtime::new(workers);
            assert_eq!(rt.workers(), workers);
            let got = rt.map_parts(&parts, |&p| p * p + 1);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn pool_reuse_leaks_no_state_between_submissions() {
        let rt = Runtime::new(4);
        for round in 0..50usize {
            let parts: Vec<usize> = (0..round + 1).collect();
            let got = rt.map_parts(&parts, |&p| p + round);
            let expect: Vec<usize> = parts.iter().map(|&p| p + round).collect();
            assert_eq!(got, expect, "round {round}");
        }
    }

    #[test]
    fn nested_submission_makes_progress() {
        // Outer fan-out saturates the pool; each task fans out again on the
        // same runtime. The helping discipline (waiters run queued tasks)
        // must keep this from deadlocking even with a single pool thread.
        let rt = Runtime::new(2);
        let outer: Vec<usize> = (0..8).collect();
        let got = rt.map_parts(&outer, |&o| {
            let inner: Vec<usize> = (0..5).collect();
            rt.map_parts(&inner, |&i| o * 10 + i).iter().sum::<usize>()
        });
        let expect: Vec<usize> = outer.iter().map(|&o| 5 * (o * 10) + 10).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn scope_tasks_borrow_and_all_complete() {
        let rt = Runtime::new(3);
        let hits = AtomicUsize::new(0);
        let label = String::from("borrowed");
        rt.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    assert_eq!(label.as_str(), "borrowed");
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    #[should_panic(expected = "boom in task")]
    fn task_panic_propagates_to_submitter() {
        let parts = [0usize, 1, 2, 3, 4, 5, 6, 7];
        for workers in [1, 2, 4] {
            let rt = Runtime::new(workers);
            let err = catch_unwind(AssertUnwindSafe(|| {
                rt.map_parts(&parts, |&p| if p == 5 { panic!("boom in task") } else { p })
            }))
            .expect_err("a panicking part must panic the submitter");
            assert_eq!(payload_text(&err), "boom in task", "workers={workers}");
            if workers == 4 {
                resume_unwind(err);
            }
        }
    }

    #[test]
    fn sibling_panics_are_counted_not_silently_dropped() {
        // Two deliberately panicking tasks: the resurfaced panic must name
        // the first payload AND report the suppressed sibling count — at
        // every width, the inline 1-worker runtime included.
        for workers in [1, 2, 4] {
            let rt = Runtime::new(workers);
            let ran = AtomicUsize::new(0);
            let err = catch_unwind(AssertUnwindSafe(|| {
                rt.scope(|s| {
                    for i in 0..4 {
                        let ran = &ran;
                        s.spawn(move || {
                            ran.fetch_add(1, Ordering::Relaxed);
                            if i < 2 {
                                panic!("deliberate failure {i}");
                            }
                        });
                    }
                });
            }))
            .expect_err("scope with panicking tasks must panic");
            assert_eq!(ran.load(Ordering::Relaxed), 4, "workers={workers}");
            let msg = payload_text(&err).to_string();
            assert!(
                msg.contains("deliberate failure"),
                "workers={workers}: first payload missing from: {msg}"
            );
            assert!(
                msg.contains("1 additional task panic(s) suppressed"),
                "workers={workers}: suppressed count missing from: {msg}"
            );
            // The pool is intact afterwards.
            assert_eq!(rt.map_parts(&[1, 2, 3], |&p: &i32| p * 2), vec![2, 4, 6]);
        }
    }

    #[test]
    fn single_task_panic_payload_is_resurfaced_verbatim() {
        // With no siblings suppressed the original payload is re-raised
        // unchanged (so should_panic matching on exact payloads works).
        let rt = Runtime::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| s.spawn(|| panic!("solo")));
        }))
        .expect_err("must panic");
        assert_eq!(payload_text(&err), "solo");
    }

    #[test]
    fn pool_survives_a_panicking_submission() {
        let parts = [0usize, 1, 2, 3];
        for workers in [1, 2, 4] {
            let rt = Runtime::new(workers);
            let r = catch_unwind(AssertUnwindSafe(|| {
                rt.map_parts(&parts, |&p| if p == 2 { panic!("transient") } else { p })
            }));
            assert!(r.is_err(), "workers={workers}");
            // The pool is intact and deterministic afterwards.
            assert_eq!(rt.map_parts(&parts, |&p| p * 2), vec![0, 2, 4, 6]);
        }
    }

    #[test]
    fn sequential_runtime_runs_inline() {
        let rt = Runtime::new(1);
        assert!(rt.threads.is_empty());
        let tid = std::thread::current().id();
        let got = rt.map_parts(&[0usize, 1, 2], |_| std::thread::current().id());
        assert!(got.iter().all(|&t| t == tid), "no thread may be spawned");
    }

    #[test]
    fn shared_runtimes_are_distinct_and_sized() {
        assert_eq!(Runtime::sequential().workers(), 1);
        assert!(Runtime::global().workers() >= 1);
        let parts: Vec<u32> = (0..16).collect();
        assert_eq!(
            Runtime::global().map_parts(&parts, |&p| p + 1),
            Runtime::sequential().map_parts(&parts, |&p| p + 1),
        );
    }

    #[test]
    fn workers_parse_rules() {
        assert_eq!(parse_workers("4"), Some(4));
        assert_eq!(parse_workers(" 2 "), Some(2));
        assert_eq!(parse_workers("0"), None);
        assert_eq!(parse_workers("-3"), None);
        assert_eq!(parse_workers("many"), None);
        assert_eq!(parse_workers(""), None);
    }

    #[test]
    fn zero_workers_clamps_to_sequential() {
        let rt = Runtime::new(0);
        assert_eq!(rt.workers(), 1);
        assert_eq!(rt.map_parts(&[1, 2, 3], |&p: &i32| p), vec![1, 2, 3]);
    }

    #[test]
    fn tasks_queued_behind_a_blocked_worker_all_run_once() {
        // A runtime with one pool thread: submit many tasks while the
        // worker is blocked on a gate — every task must still run exactly
        // once (the submitter drains the queue while its scope waits).
        const TASKS: usize = 512;
        let rt = Runtime::new(2);
        let gate = std::sync::Barrier::new(2);
        let hits: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
        rt.scope(|s| {
            let gate = &gate;
            // Only the pool worker can run this task while the body is
            // still running, so between the body's two waits it is blocked.
            s.spawn(move || {
                gate.wait();
                gate.wait();
            });
            gate.wait();
            for hit in &hits {
                s.spawn(move || {
                    hit.fetch_add(1, Ordering::Relaxed);
                });
            }
            gate.wait();
        });
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "task {i}");
        }
    }
}
