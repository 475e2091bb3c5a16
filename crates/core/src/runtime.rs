//! The persistent execution runtime: a long-lived pool of worker threads
//! behind a structured-submission API, with a **lock-free task fast path**.
//!
//! Every fan-out in the workspace used to pay a fresh `std::thread::scope`
//! spawn per pass/wave/shard; a [`Runtime`] amortizes that cost by keeping
//! its workers alive for the process lifetime. The first pooled scheduler
//! (PR 5) kept all per-worker deques behind one global `Mutex` that doubled
//! as the park/wake lock — fine at shard/wave granularity, a serialization
//! point once the serving layer started pushing fine-grained query tasks.
//! This module removes that lock entirely from the hot path:
//!
//! * each pool worker owns a **Chase–Lev work-stealing deque**
//!   (`ClDeque`): the owner pushes and pops the *bottom* end with
//!   relaxed/acquire-release atomics and no CAS in the common case, thieves
//!   steal the *top* end with a single CAS — `std` atomics only, no
//!   external dependencies (see the memory-ordering notes on `ClDeque`);
//! * external submission goes through **per-worker bounded injector rings**
//!   (`Injector`) selected by a round-robin cursor — lock-free
//!   fixed-capacity queues (Vyukov-style sequence counters). The rings are
//!   multi-producer *and* multi-consumer: the owning worker is the common
//!   consumer, but an idle worker (or a submitter draining its own scope)
//!   may rescue tasks from a busy peer's ring, so a task can never strand
//!   behind a pinned owner. A ring that is momentarily full falls through
//!   to the next worker's ring; if every ring is full the submitting thread
//!   simply runs the task inline — backpressure, never blocking on a lock;
//! * parking moved to a **separate idle `Mutex`/`Condvar`** that is only
//!   touched on the slow path: a worker first spins (with escalating
//!   [`std::hint::spin_loop`] pauses), then yields, and only after a full
//!   backoff round finds no work does it take the idle lock. Producers
//!   touch that lock only when a worker is actually parked (checked via an
//!   atomic counter, see `Shared::notify`) — a steady stream of tasks
//!   with all workers busy never contends on any lock.
//!
//! Structure:
//!
//! * [`Runtime::scope`] — structured submission: tasks spawned inside the
//!   scope may borrow from the enclosing frame (like `std::thread::scope`);
//!   the scope does not return until every task has completed, and task
//!   panics are resurfaced on the submitting thread at scope end (first
//!   payload wins, *suppressed sibling panics are counted* in the
//!   resurfaced message rather than dropped silently).
//! * [`Runtime::map_parts`] — the one fork/join shape the workspace uses:
//!   run a closure once per part, results in part order. **Results are
//!   identical for every pool size and across pool reuse** — each part
//!   writes its own slot, so scheduling can never reorder or leak state.
//! * Submission is re-entrant: a task may itself call `scope`/`map_parts`
//!   on the same runtime (parallel passes inside parallel guesses). A task
//!   spawned *from* a pool worker goes straight onto that worker's own
//!   deque (owner push — no CAS, no cursor), and a thread waiting for its
//!   scope helps execute queued tasks instead of blocking, so nested
//!   submission makes progress even when every pool worker is busy.
//! * [`Runtime::default`] sizes the pool from
//!   [`std::thread::available_parallelism`], overridable with the
//!   `STREAMCOVER_WORKERS` environment variable (snapshotted at the first
//!   read, so one process sees one width); [`Runtime::global`] and
//!   [`Runtime::sequential`] are the lazily-initialized shared instances
//!   (default-sized and single-worker respectively).

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{
    fence, AtomicBool, AtomicI64, AtomicPtr, AtomicUsize, Ordering::AcqRel, Ordering::Acquire,
    Ordering::Relaxed, Ordering::Release, Ordering::SeqCst,
};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One unit of submitted work, tagged with the scope that awaits it.
///
/// Tasks travel through the queues as raw `Box` pointers so the Chase–Lev
/// slots can be plain `AtomicPtr`s (racy slot reads are then ordinary
/// atomic loads — never undefined behavior).
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
// Tasks travel the queues as `Box<Task>` raw pointers; taking the box
// (rather than `Task`) keeps every call site a plain move of what the
// queue handed back.
#[allow(clippy::boxed_local)]
fn run_task(task: Box<Task>) {
    let Task { scope, run } = *task;
    let outcome = catch_unwind(AssertUnwindSafe(run)).err();
    scope.complete(outcome);
}

// ---------------------------------------------------------------------------
// Chase–Lev work-stealing deque
// ---------------------------------------------------------------------------

/// Fixed-capacity circular slot array of one [`ClDeque`] generation.
///
/// Slots are `AtomicPtr` so a thief's read of a slot the owner is about to
/// overwrite is a *racy but well-defined* atomic load; the CAS on `top`
/// decides afterwards whether the read value is owned. Capacity is always a
/// power of two, so `index & mask` replaces the modulo.
struct ClBuffer {
    mask: usize,
    slots: Box<[AtomicPtr<Task>]>,
}

impl ClBuffer {
    fn new(cap: usize) -> Box<ClBuffer> {
        debug_assert!(cap.is_power_of_two());
        Box::new(ClBuffer {
            mask: cap - 1,
            slots: (0..cap).map(|_| AtomicPtr::new(ptr::null_mut())).collect(),
        })
    }

    #[inline]
    fn slot(&self, i: i64) -> &AtomicPtr<Task> {
        &self.slots[(i as usize) & self.mask]
    }

    fn cap(&self) -> usize {
        self.mask + 1
    }
}

/// A Chase–Lev work-stealing deque specialized to `Box<Task>` payloads,
/// built on `std` atomics only.
///
/// Protocol (after Chase & Lev, SPAA '05, with the orderings of Lê,
/// Pop, Cohen & Zappa Nardelli, PPoPP '13 — the weak-memory-proven
/// version):
///
/// * **`push` (owner only)** — write the slot, then publish with a
///   `Release` store of `bottom`. A thief that observes the new `bottom`
///   via its `Acquire` load therefore also observes the slot write.
///   No CAS: the owner is the only writer of `bottom`.
/// * **`pop` (owner only)** — decrement `bottom` (`Relaxed`), then a
///   **`SeqCst` fence**, then read `top`. The fence pairs with the one in
///   `steal`: either the thief sees the decremented `bottom` (and gives
///   up), or the owner sees the thief's `top` increment (and loses the
///   race) — both can't miss each other, which is exactly the
///   store-buffering (Dekker) shape only `SeqCst` excludes. On the
///   last-element race the owner CASes `top` like a thief would.
/// * **`steal` (any thread)** — read `top` (`Acquire`), `SeqCst` fence,
///   read `bottom` (`Acquire`); if non-empty, read the slot *first*, then
///   claim it with a `SeqCst` CAS on `top`. The CAS succeeding proves the
///   pre-read slot value was still owned by index `top` at the claim
///   point; `top` is monotonically increasing (64-bit — it never wraps in
///   practice and never ABAs).
/// * **growth** — the owner allocates a doubled buffer, copies the live
///   window `[top, bottom)`, publishes the new buffer with a `Release`
///   store, and *retires* the old buffer instead of freeing it: a thief
///   may still hold the old pointer and read a slot from it, which stays
///   sound because the owner never writes to a retired buffer and the
///   allocation lives until the deque is dropped. Retired generations
///   total less than the final buffer's size (geometric series), so this
///   deliberate non-reclamation is bounded — the documented trade that
///   keeps the implementation epoch/hazard-free on `std` alone. We also
///   do not shrink: the workspace's fan-outs are short bursts, and a warm
///   buffer is exactly what the next burst wants.
struct ClDeque {
    /// Next index the owner pushes to; owner-written, thief-read.
    bottom: AtomicI64,
    /// Next index a thief steals from; CAS-claimed.
    top: AtomicI64,
    /// Current buffer generation (owner-replaced on growth).
    buf: AtomicPtr<ClBuffer>,
    /// Retired generations, kept alive for late thief reads. Locked only
    /// on growth (owner) and drop — never on the task fast path.
    retired: Mutex<Vec<*mut ClBuffer>>,
}

// SAFETY: the raw buffer pointers are owned by the deque (created by
// `Box::into_raw`, freed exactly once in `drop`); all cross-thread slot
// access goes through atomics per the protocol above.
unsafe impl Send for ClDeque {}
unsafe impl Sync for ClDeque {}

/// Initial slots per deque; grows by doubling.
const DEQUE_INIT_CAP: usize = 64;

/// Outcome of one steal attempt.
enum Steal {
    /// Deque observed empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Claimed a task.
    Got(Box<Task>),
}

impl ClDeque {
    fn new() -> Self {
        ClDeque {
            bottom: AtomicI64::new(0),
            top: AtomicI64::new(0),
            buf: AtomicPtr::new(Box::into_raw(ClBuffer::new(DEQUE_INIT_CAP))),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Owner-only push onto the bottom end.
    fn push(&self, task: Box<Task>) {
        let b = self.bottom.load(Relaxed);
        let t = self.top.load(Acquire);
        let mut buf = self.buf.load(Relaxed);
        // SAFETY: `buf` is a live allocation (owner frees only on drop).
        if b - t >= unsafe { (*buf).cap() } as i64 {
            buf = self.grow(t, b, buf);
        }
        // SAFETY: as above; the slot write is published by the Release
        // store of `bottom` below.
        unsafe { (*buf).slot(b).store(Box::into_raw(task), Relaxed) };
        self.bottom.store(b + 1, Release);
    }

    /// Owner-only pop from the bottom end (LIFO — the owner runs its most
    /// recently spawned task first, the cache-friendly order for nested
    /// fan-outs).
    fn pop(&self) -> Option<Box<Task>> {
        let b = self.bottom.load(Relaxed) - 1;
        let buf = self.buf.load(Relaxed);
        self.bottom.store(b, Relaxed);
        fence(SeqCst); // pairs with the fence in `steal` (see ClDeque docs)
        let t = self.top.load(Relaxed);
        if t <= b {
            // SAFETY: buffer live; index `b` holds a task published by a
            // prior push (t <= b < previous bottom).
            let p = unsafe { (*buf).slot(b).load(Relaxed) };
            if t == b {
                // Last element: race thieves for it via the top CAS.
                let won = self.top.compare_exchange(t, t + 1, SeqCst, Relaxed).is_ok();
                self.bottom.store(b + 1, Relaxed);
                // SAFETY: winning the CAS transfers ownership of `p`.
                return won.then(|| unsafe { Box::from_raw(p) });
            }
            // SAFETY: more than one element — no thief can claim index b.
            Some(unsafe { Box::from_raw(p) })
        } else {
            self.bottom.store(b + 1, Relaxed);
            None
        }
    }

    /// Thief-side steal from the top end (FIFO — thieves take the oldest
    /// task, the one least likely to be in the owner's cache).
    fn steal(&self) -> Steal {
        let t = self.top.load(Acquire);
        fence(SeqCst); // pairs with the fence in `pop`
        let b = self.bottom.load(Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let buf = self.buf.load(Acquire);
        // SAFETY: `buf` (current or retired) stays allocated until drop;
        // the racy slot load is an atomic read, validated by the CAS below
        // before the value is used.
        let p = unsafe { (*buf).slot(t).load(Relaxed) };
        if self
            .top
            .compare_exchange(t, t + 1, SeqCst, Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        // SAFETY: the CAS claimed index `t`, transferring ownership of the
        // pointer read from it.
        Steal::Got(unsafe { Box::from_raw(p) })
    }

    /// Approximate emptiness for the pre-park recheck: may spuriously
    /// report non-empty (the parker then rescans), but any task published
    /// before the caller's `SeqCst` fence is reported.
    fn maybe_nonempty(&self) -> bool {
        self.top.load(Acquire) < self.bottom.load(Acquire)
    }

    /// Owner-only growth: double, copy the live window, retire the old
    /// generation (see the type-level docs for why it is not freed).
    fn grow(&self, t: i64, b: i64, old: *mut ClBuffer) -> *mut ClBuffer {
        // SAFETY: `old` is live; only the owner calls grow.
        let new = unsafe {
            let new = Box::into_raw(ClBuffer::new((*old).cap() * 2));
            for i in t..b {
                (*new).slot(i).store((*old).slot(i).load(Relaxed), Relaxed);
            }
            new
        };
        self.buf.store(new, Release);
        self.retired
            .lock()
            .expect("retired list poisoned")
            .push(old);
        new
    }
}

impl Drop for ClDeque {
    fn drop(&mut self) {
        // Single-threaded by here (workers joined): free any stranded
        // tasks (unreachable through the public API — scopes drain before
        // returning — but leaking on a panic-torn pool would be worse),
        // then every buffer generation.
        let t = self.top.load(Relaxed);
        let b = self.bottom.load(Relaxed);
        let buf = self.buf.load(Relaxed);
        for i in t..b {
            // SAFETY: sole thread; indices [t, b) hold unclaimed tasks.
            drop(unsafe { Box::from_raw((*buf).slot(i).load(Relaxed)) });
        }
        // SAFETY: sole thread; each raw buffer was created by
        // Box::into_raw and never freed before.
        unsafe {
            drop(Box::from_raw(buf));
            for old in self
                .retired
                .get_mut()
                .expect("retired list poisoned")
                .drain(..)
            {
                drop(Box::from_raw(old));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded injector rings
// ---------------------------------------------------------------------------

/// Capacity of each per-worker injector ring (power of two). 256 pending
/// external tasks *per worker* is far beyond any workspace fan-out; the
/// overflow path (run inline on the submitter) is backpressure, not an
/// error.
const INJECTOR_CAP: usize = 256;

/// One slot of an [`Injector`]: a sequence counter plus the task pointer.
struct InjectorSlot {
    seq: AtomicUsize,
    task: AtomicPtr<Task>,
}

/// A bounded lock-free ring for external task injection (Vyukov-style
/// sequence-counter queue).
///
/// Each slot carries a sequence number: `seq == pos` means free for the
/// producer claiming ticket `pos`, `seq == pos + 1` means filled and ready
/// for the consumer claiming ticket `pos`, anything else means another
/// ticket holder is mid-operation. Producers and consumers claim tickets
/// with a CAS on `tail`/`head`; the slot's `Release` sequence store
/// publishes the payload, the matching `Acquire` load receives it. The
/// ring is multi-producer (any submitting thread) and multi-consumer — the
/// owning worker is the common consumer, but peers may rescue tasks so
/// nothing strands behind a busy or parked owner.
struct Injector {
    head: AtomicUsize,
    tail: AtomicUsize,
    slots: Box<[InjectorSlot]>,
}

impl Injector {
    fn new() -> Self {
        Injector {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots: (0..INJECTOR_CAP)
                .map(|i| InjectorSlot {
                    seq: AtomicUsize::new(i),
                    task: AtomicPtr::new(ptr::null_mut()),
                })
                .collect(),
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Attempts to enqueue; returns the task back when the ring is full.
    fn push(&self, task: Box<Task>) -> Result<(), Box<Task>> {
        let mask = self.mask();
        let mut pos = self.tail.load(Relaxed);
        loop {
            let slot = &self.slots[pos & mask];
            let seq = slot.seq.load(Acquire);
            match (seq as isize).wrapping_sub(pos as isize) {
                0 => {
                    match self.tail.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Relaxed,
                        Relaxed,
                    ) {
                        Ok(_) => {
                            slot.task.store(Box::into_raw(task), Relaxed);
                            slot.seq.store(pos.wrapping_add(1), Release);
                            return Ok(());
                        }
                        Err(now) => pos = now,
                    }
                }
                d if d < 0 => return Err(task), // a full lap behind: ring is full
                _ => pos = self.tail.load(Relaxed),
            }
        }
    }

    /// Attempts to dequeue one task (any thread).
    fn pop(&self) -> Option<Box<Task>> {
        let mask = self.mask();
        let mut pos = self.head.load(Relaxed);
        loop {
            let slot = &self.slots[pos & mask];
            let seq = slot.seq.load(Acquire);
            match (seq as isize).wrapping_sub(pos.wrapping_add(1) as isize) {
                0 => {
                    match self.head.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Relaxed,
                        Relaxed,
                    ) {
                        Ok(_) => {
                            let p = slot.task.swap(ptr::null_mut(), Relaxed);
                            slot.seq
                                .store(pos.wrapping_add(mask).wrapping_add(1), Release);
                            // SAFETY: the seq Acquire above observed the
                            // producer's Release, so `p` is the published
                            // task pointer, now exclusively ours.
                            return Some(unsafe { Box::from_raw(p) });
                        }
                        Err(now) => pos = now,
                    }
                }
                d if d < 0 => return None, // slot not yet filled: empty
                _ => pos = self.head.load(Relaxed),
            }
        }
    }

    /// Approximate non-emptiness for the pre-park recheck (may spuriously
    /// report non-empty while a producer is mid-publish; the parker then
    /// rescans and re-parks).
    fn maybe_nonempty(&self) -> bool {
        self.head.load(Acquire) != self.tail.load(Acquire)
    }
}

impl Drop for Injector {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

// ---------------------------------------------------------------------------
// Shared pool state, parking protocol
// ---------------------------------------------------------------------------

/// Idle-side state guarded by the park lock (slow path only).
struct IdleState {
    /// Bumped on every notification; parked workers wait for a change so a
    /// wakeup that races with the park itself is never lost.
    epoch: u64,
}

/// State shared between the pool threads and submitters.
struct Shared {
    /// One Chase–Lev deque per pool thread (owner-indexed).
    deques: Vec<ClDeque>,
    /// One bounded injector ring per pool thread.
    injectors: Vec<Injector>,
    /// Round-robin cursor over the injector rings.
    inject_cursor: AtomicUsize,
    /// Number of workers currently inside the park protocol. Producers
    /// skip the idle lock entirely while this is zero — the fast path.
    parked: AtomicUsize,
    shutdown: AtomicBool,
    /// The park/wake lock — reachable **only** from the park/unpark slow
    /// path, never from injection, local pop, or steal.
    idle: Mutex<IdleState>,
    idle_cv: Condvar,
}

impl Shared {
    /// Wakes a parked worker if (and only if) one exists.
    ///
    /// The `SeqCst` fence before the `parked` read pairs with the fence a
    /// parking worker executes between incrementing `parked` and its final
    /// queue recheck ([`Shared::park`]): if that recheck missed our
    /// enqueue, this load is guaranteed to see `parked > 0` (the classic
    /// store-buffering argument — both sides can't read stale), so the
    /// slow path below runs and the epoch bump under the idle lock makes
    /// the wakeup durable even if the worker has not reached `wait` yet.
    fn notify(&self) {
        fence(SeqCst);
        if self.parked.load(Relaxed) > 0 {
            let mut idle = self.idle.lock().expect("idle lock poisoned");
            idle.epoch = idle.epoch.wrapping_add(1);
            self.idle_cv.notify_one();
        }
    }

    /// Whether any queue may hold work (racy; spurious `true` is fine —
    /// the caller rescans properly).
    fn maybe_work(&self) -> bool {
        self.deques.iter().any(ClDeque::maybe_nonempty)
            || self.injectors.iter().any(Injector::maybe_nonempty)
    }

    /// Parks the calling worker until a notification or shutdown. Returns
    /// immediately if work became visible while entering the protocol.
    fn park(&self) {
        let mut idle = self.idle.lock().expect("idle lock poisoned");
        let entry_epoch = idle.epoch;
        self.parked.fetch_add(1, SeqCst);
        fence(SeqCst); // pairs with the fence in `notify` — see there
        if self.maybe_work() || self.shutdown.load(Relaxed) {
            self.parked.fetch_sub(1, Relaxed);
            return;
        }
        while idle.epoch == entry_epoch && !self.shutdown.load(Relaxed) {
            idle = self.idle_cv.wait(idle).expect("idle lock poisoned");
        }
        self.parked.fetch_sub(1, Relaxed);
    }

    /// Finds one runnable task: own deque first (owner pop, LIFO), then
    /// the own injector ring, then steals from peers — deque top, then
    /// injector rescue — starting after the caller's own index so thieves
    /// spread instead of convoying on worker 0. `me` is `None` for
    /// non-pool threads (submitters helping their scope), which skip the
    /// owner paths and go straight to stealing everything.
    fn find_task(&self, me: Option<usize>) -> Option<Box<Task>> {
        if let Some(i) = me {
            if let Some(t) = self.deques[i].pop() {
                return Some(t);
            }
            if let Some(t) = self.injectors[i].pop() {
                return Some(t);
            }
        }
        let k = self.deques.len();
        let start = me.map_or(0, |i| i + 1);
        for off in 0..k {
            let v = (start + off) % k;
            if Some(v) == me {
                continue;
            }
            loop {
                match self.deques[v].steal() {
                    Steal::Got(t) => return Some(t),
                    Steal::Empty => break,
                    Steal::Retry => std::hint::spin_loop(), // lost a race; victim still has work
                }
            }
            if let Some(t) = self.injectors[v].pop() {
                return Some(t);
            }
        }
        None
    }
}

/// Spin rounds (full queue scans with escalating `spin_loop` pauses)
/// before yielding. Each round `r` pauses `2^min(r,6)` times.
const BACKOFF_SPINS: usize = 8;
/// Yield rounds (`thread::yield_now` + rescan) after spinning, before the
/// idle lock is touched.
const BACKOFF_YIELDS: usize = 4;

/// One pool worker: scan, back off, park; repeat until shutdown.
fn worker_loop(shared: &Shared, me: usize) {
    WORKER_CTX.with(|ctx| ctx.set(Some((ptr::from_ref(shared) as usize, me))));
    'scan: loop {
        if let Some(task) = shared.find_task(Some(me)) {
            run_task(task);
            continue 'scan;
        }
        // Bounded spin-then-yield backoff: cheap re-scans first, so a
        // steady task stream never reaches the idle lock.
        for round in 0..BACKOFF_SPINS + BACKOFF_YIELDS {
            if round < BACKOFF_SPINS {
                for _ in 0..(1usize << round.min(6)) {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
            if let Some(task) = shared.find_task(Some(me)) {
                run_task(task);
                continue 'scan;
            }
        }
        if shared.shutdown.load(Acquire) {
            return;
        }
        shared.park();
    }
}

thread_local! {
    /// `(Shared address, worker index)` of the pool this thread belongs
    /// to, if any — lets `Scope::spawn` recognize owner pushes and lets a
    /// worker running a nested scope help from its own deque first.
    static WORKER_CTX: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
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

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        if let Some(p) = panic {
            let mut slot = self.panic.lock().expect("scope panic slot poisoned");
            if slot.first.is_none() {
                slot.first = Some(p);
            } else {
                slot.suppressed += 1;
                drop(p); // payload dropped, but *counted* — see take_panic
            }
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
    /// Submits one task. On a sequential runtime (no pool threads) the task
    /// runs inline, immediately. Otherwise: spawned from a pool worker of
    /// this runtime, it goes onto that worker's own deque (lock-free owner
    /// push); spawned from any other thread, it goes into an injector ring
    /// chosen round-robin (lock-free bounded MPMC) — and if every ring is
    /// full, the submitting thread runs it inline (backpressure).
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        if self.rt.threads.is_empty() {
            f();
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
        let task = Box::new(Task {
            scope: Arc::clone(&self.state),
            run,
        });
        self.rt.enqueue(task);
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// A persistent pool of worker threads with lock-free work-stealing
/// scheduling (see the module docs for the queue architecture).
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
        let pool = workers - 1;
        let shared = Arc::new(Shared {
            deques: (0..pool).map(|_| ClDeque::new()).collect(),
            injectors: (0..pool).map(|_| Injector::new()).collect(),
            inject_cursor: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle: Mutex::new(IdleState { epoch: 0 }),
            idle_cv: Condvar::new(),
        });
        let threads = (0..pool)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("streamcover-rt-{i}"))
                    .spawn(move || worker_loop(&shared, i))
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

    /// The calling thread's worker index in *this* runtime's pool, if it
    /// is one of its workers.
    fn my_worker_index(&self) -> Option<usize> {
        let shared_addr = ptr::from_ref::<Shared>(&*self.shared) as usize;
        WORKER_CTX.with(|ctx| match ctx.get() {
            Some((addr, i)) if addr == shared_addr => Some(i),
            _ => None,
        })
    }

    /// Routes one task to a queue: owner push when called from one of this
    /// pool's workers, round-robin injection otherwise, inline execution
    /// as the full-ring backpressure fallback. Lock-free in all cases.
    fn enqueue(&self, task: Box<Task>) {
        if let Some(me) = self.my_worker_index() {
            self.shared.deques[me].push(task);
            self.shared.notify();
            return;
        }
        let k = self.shared.injectors.len();
        let start = self.shared.inject_cursor.fetch_add(1, Relaxed);
        let mut task = task;
        for off in 0..k {
            match self.shared.injectors[(start + off) % k].push(task) {
                Ok(()) => {
                    self.shared.notify();
                    return;
                }
                Err(back) => task = back,
            }
        }
        // Every ring full: run inline. Structured semantics are
        // preserved — the task completes before its scope can return.
        run_task(task);
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
        if !self.threads.is_empty() {
            let me = self.my_worker_index();
            while scope.state.pending.load(Acquire) > 0 {
                match self.shared.find_task(me) {
                    Some(task) => run_task(task),
                    None => break, // nothing runnable: our remainder is mid-flight
                }
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
    /// stealing schedule, and any previous use of the runtime.
    pub fn map_parts<P: Sync, T: Send>(
        &self,
        parts: &[P],
        work: impl Fn(&P) -> T + Sync,
    ) -> Vec<T> {
        if parts.len() <= 1 || self.threads.is_empty() {
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
        // queues are empty; shutting down is: raise the flag, bump the
        // idle epoch so parked workers re-check it, join.
        self.shared.shutdown.store(true, Release);
        {
            let mut idle = self.shared.idle.lock().expect("idle lock poisoned");
            idle.epoch = idle.epoch.wrapping_add(1);
        }
        self.shared.idle_cv.notify_all();
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
        // same runtime. The helping discipline (workers run their own
        // deque, waiters steal) must keep this from deadlocking even with
        // a single pool thread.
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
        let rt = Runtime::new(4);
        let parts = [0usize, 1, 2, 3, 4, 5, 6, 7];
        let _ = rt.map_parts(&parts, |&p| {
            if p == 5 {
                panic!("boom in task");
            }
            p
        });
    }

    #[test]
    fn sibling_panics_are_counted_not_silently_dropped() {
        // Two deliberately panicking tasks: the resurfaced panic must name
        // the first payload AND report the suppressed sibling count.
        let rt = Runtime::new(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| {
                for i in 0..4 {
                    s.spawn(move || {
                        if i < 2 {
                            panic!("deliberate failure {i}");
                        }
                    });
                }
            });
        }))
        .expect_err("scope with panicking tasks must panic");
        let msg = payload_text(&err).to_string();
        assert!(
            msg.contains("deliberate failure"),
            "first payload missing from: {msg}"
        );
        assert!(
            msg.contains("1 additional task panic(s) suppressed"),
            "suppressed count missing from: {msg}"
        );
        // The pool is intact afterwards.
        assert_eq!(rt.map_parts(&[1, 2, 3], |&p: &i32| p * 2), vec![2, 4, 6]);
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
        let rt = Runtime::new(4);
        let parts = [0usize, 1, 2, 3];
        let r = catch_unwind(AssertUnwindSafe(|| {
            rt.map_parts(&parts, |&p| if p == 2 { panic!("transient") } else { p })
        }));
        assert!(r.is_err());
        // The pool is intact and deterministic afterwards.
        assert_eq!(rt.map_parts(&parts, |&p| p * 2), vec![0, 2, 4, 6]);
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
    fn cl_deque_owner_order_is_lifo_and_grows() {
        // Owner-side unit test: push past the initial capacity (forcing a
        // grow) and pop everything back in LIFO order.
        let scope = Arc::new(ScopeState::new());
        let dq = ClDeque::new();
        let total = DEQUE_INIT_CAP * 3 + 7;
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..total {
            scope.pending.fetch_add(1, Relaxed);
            let hits = Arc::clone(&hits);
            dq.push(Box::new(Task {
                scope: Arc::clone(&scope),
                run: Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }),
            }));
        }
        let mut popped = 0;
        while let Some(t) = dq.pop() {
            run_task(t);
            popped += 1;
        }
        assert_eq!(popped, total);
        assert_eq!(hits.load(Ordering::Relaxed), total);
        assert_eq!(scope.pending.load(Relaxed), 0);
        assert!(dq.pop().is_none(), "deque must be empty after draining");
    }

    #[test]
    fn cl_deque_steal_and_pop_partition_the_tasks() {
        // Two threads — the owner popping, one thief stealing — must
        // partition the tasks exactly: every task runs once.
        let scope = Arc::new(ScopeState::new());
        let dq = Arc::new(ClDeque::new());
        let hits = Arc::new(AtomicUsize::new(0));
        let total = 10_000usize;
        for _ in 0..total {
            scope.pending.fetch_add(1, Relaxed);
            let hits = Arc::clone(&hits);
            dq.push(Box::new(Task {
                scope: Arc::clone(&scope),
                run: Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }),
            }));
        }
        let thief = {
            let dq = Arc::clone(&dq);
            std::thread::spawn(move || {
                let mut got = 0usize;
                loop {
                    match dq.steal() {
                        Steal::Got(t) => {
                            run_task(t);
                            got += 1;
                        }
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => break,
                    }
                }
                got
            })
        };
        let mut owner_got = 0usize;
        while let Some(t) = dq.pop() {
            run_task(t);
            owner_got += 1;
        }
        let stolen = thief.join().expect("thief panicked");
        assert_eq!(owner_got + stolen, total, "no task lost or double-run");
        assert_eq!(hits.load(Ordering::Relaxed), total);
    }

    #[test]
    fn injector_ring_rejects_overflow_and_round_trips() {
        let scope = Arc::new(ScopeState::new());
        let inj = Injector::new();
        let make = || {
            scope.pending.fetch_add(1, Relaxed);
            Box::new(Task {
                scope: Arc::clone(&scope),
                run: Box::new(|| {}),
            })
        };
        for _ in 0..INJECTOR_CAP {
            assert!(inj.push(make()).is_ok());
        }
        let overflow = inj.push(make());
        assert!(overflow.is_err(), "ring at capacity must refuse");
        run_task(overflow.unwrap_err()); // inline fallback path
        let mut drained = 0;
        while let Some(t) = inj.pop() {
            run_task(t);
            drained += 1;
        }
        assert_eq!(drained, INJECTOR_CAP);
        assert!(inj.pop().is_none());
        assert_eq!(scope.pending.load(Relaxed), 0);
    }

    #[test]
    fn full_injectors_fall_back_to_inline_execution() {
        // A runtime with one pool thread (one ring): submit far more tasks
        // than the ring holds while the worker is blocked — every task
        // must still run exactly once (overflow runs inline).
        let rt = Runtime::new(2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let hits = AtomicUsize::new(0);
        rt.scope(|s| {
            // Park the pool worker behind a gate so the ring stays full.
            let g = Arc::clone(&gate);
            s.spawn(move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
            for _ in 0..INJECTOR_CAP * 2 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        });
        assert_eq!(hits.load(Ordering::Relaxed), INJECTOR_CAP * 2);
    }
}
