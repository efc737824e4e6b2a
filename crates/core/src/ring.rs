//! Lock-free single-producer/single-consumer rings for the parallel
//! executor's command and reply transports.
//!
//! The v1 executor coupled its threads with `mpsc` channels: a bounded
//! `sync_channel` for commands and an unbounded channel for replies. Both
//! rendezvous through a mutex/condvar pair, and every window allocates —
//! the command carries a freshly drained `Vec<Message>`, the reply another.
//! At e8's workloads those per-window costs dominate the grant windows
//! themselves (ISSUE 10). This module replaces the transport with a
//! preallocated ring of cache-line-padded slots:
//!
//! * **Slot protocol** — every slot carries an atomic *sequence* word
//!   (Vyukov's bounded-queue discipline, degenerate SPSC form). The
//!   producer may fill slot `head % cap` exactly when `seq == head`; the
//!   consumer may take slot `tail % cap` exactly when `seq == tail + 1`.
//!   Publication is a single release store of the sequence word, so the
//!   fast path is one acquire load + one release store per side, with no
//!   shared mutex and no condvar on the hot path.
//! * **Zero-copy hand-off** — slots hold a caller-defined entry type and
//!   are accessed through `FnOnce(&mut T)` closures that `mem::swap`
//!   buffers in and out. Capacities circulate producer-scratch → slot →
//!   consumer-scratch and back, so the steady state allocates nothing.
//!   The workspace denies `unsafe_code`, so the payload sits behind a
//!   per-slot `Mutex` instead of an `UnsafeCell`; the sequence protocol
//!   guarantees each lock is uncontended (exactly one side may hold a
//!   slot), making it a plain compare-and-swap in practice — the
//!   safe-Rust equivalent of the usual `UnsafeCell` slot.
//! * **Spin-then-park waiting** — a side that cannot make progress spins
//!   briefly ([`SPIN_ITERS`] iterations of [`std::hint::spin_loop`]),
//!   then publishes a parked-thread handle and sleeps in
//!   [`std::thread::park_timeout`]. The opposite side wakes it with
//!   [`std::thread::Thread::unpark`] after every push/pop that changes
//!   the ring state. The timeout (and the re-check between publishing
//!   and parking) makes lost wakeups impossible to deadlock on.
//!
//! The ring is split into a [`RingProducer`] / [`RingConsumer`] pair via
//! [`SpscRing::split`]; the handles borrow the ring, so exclusivity of
//! each role is enforced by the borrow checker rather than by runtime
//! checks, and scoped threads can move one handle each without any `Arc`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::Duration;

/// Spin iterations per polling round of a blocked side's wait loop.
pub const SPIN_ITERS: u32 = 128;

/// Polling rounds (of [`SPIN_ITERS`] each) a blocked side burns before it
/// publishes a park handle and sleeps, on a machine with more than one
/// core. Parking costs a futex wake plus scheduler latency (tens of
/// microseconds) on the *waker's* critical path, so a waiter should stay
/// hot across the window-sized gaps the executor produces (~50-250 µs on
/// the cycle engine) and only park when the wait is genuinely long — an
/// idle follower between runs, or the originator behind a slow
/// event-driven window. See [`spin_rounds`] for the budget actually used.
pub const SPIN_ROUNDS: u32 = 1024;

/// The effective spin budget: [`SPIN_ROUNDS`] when the machine can run
/// both executor threads at once, `0` on a single hardware thread — there
/// spinning *starves the peer that must make the awaited progress* until
/// the scheduler preempts, inflating every wait into a full timeslice.
#[must_use]
pub fn spin_rounds() -> u32 {
    static ROUNDS: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *ROUNDS.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => SPIN_ROUNDS,
        _ => 0,
    })
}

/// One polling round of a blocked side's wait loop: busy-spins
/// [`SPIN_ITERS`] iterations on multi-core machines, yields the core on
/// single-core machines (where the awaited progress can only happen once
/// the peer thread gets the CPU).
pub fn spin_round() {
    if spin_rounds() > 0 {
        for _ in 0..SPIN_ITERS {
            std::hint::spin_loop();
        }
    } else {
        std::thread::yield_now();
    }
}

/// Park timeout: a safety net against lost wakeups, not a pacing knob —
/// the waker's `unpark` ends the sleep immediately in the common case.
pub const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Pads (and aligns) a value to a cache line so the producer's and
/// consumer's hot words never share one.
#[repr(align(64))]
struct CachePadded<T>(T);

/// One ring slot: the sequence word of the Vyukov hand-off protocol plus
/// the entry payload. The mutex is uncontended by construction (see the
/// module docs); it exists only to satisfy the no-`unsafe` rule.
struct Slot<T> {
    seq: AtomicU64,
    entry: Mutex<T>,
}

/// One side's parked-thread handle: `parked` is the fast-path flag the
/// waker checks, `thread` the handle it unparks.
struct Waiter {
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    fn new() -> Self {
        Waiter {
            parked: AtomicBool::new(false),
            thread: Mutex::new(None),
        }
    }

    /// Publishes the calling thread as parked. The caller MUST re-check
    /// its progress condition after this and before [`Waiter::park`], or
    /// a wakeup raced between check and publish is lost until the
    /// timeout.
    fn prepare(&self) {
        *self.thread.lock().expect("waiter poisoned") = Some(std::thread::current());
        self.parked.store(true, Ordering::SeqCst);
    }

    /// Clears a published park without sleeping (progress reappeared).
    fn cancel(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Sleeps until unparked or `timeout` elapses.
    fn park(&self, timeout: Duration) {
        std::thread::park_timeout(timeout);
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Wakes the parked thread, if any. Cheap when nobody is parked: one
    /// fence plus one relaxed load.
    ///
    /// The fence closes the Dekker race with [`Waiter::prepare`]: the
    /// caller has just published ring state (a release store), and without
    /// a StoreLoad barrier that store may still sit in the store buffer
    /// when `parked` is read — the waiter then re-checks too early, sees
    /// no progress, and sleeps through the whole park timeout.
    fn wake(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.thread.lock().expect("waiter poisoned").take() {
                t.unpark();
            }
        }
    }
}

/// Cumulative wait-loop statistics, readable from either handle (and from
/// the ring owner after the run): how often each side exhausted its spin
/// budget and actually parked.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RingWaitStats {
    /// Times the producer parked on a full ring.
    pub producer_parks: u64,
    /// Times the consumer parked on an empty ring.
    pub consumer_parks: u64,
}

/// The shared ring state. Build one per direction, [`SpscRing::split`]
/// it, and move the two handles onto their threads.
pub struct SpscRing<T> {
    slots: Box<[CachePadded<Slot<T>>]>,
    /// Producer position, published after every push (for occupancy).
    head: CachePadded<AtomicU64>,
    /// Consumer position, published after every pop (for occupancy).
    tail: CachePadded<AtomicU64>,
    producer_waiter: Waiter,
    consumer_waiter: Waiter,
    /// Either side closes the ring on exit (or error); blocked waits on
    /// both sides abort once they observe it.
    closed: AtomicBool,
    producer_parks: AtomicU64,
    consumer_parks: AtomicU64,
}

impl<T> std::fmt::Debug for SpscRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.slots.len())
            .field("occupancy", &self.occupancy())
            .field("closed", &self.is_closed())
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for RingProducer<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingProducer")
            .field("head", &self.head)
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for RingConsumer<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingConsumer")
            .field("tail", &self.tail)
            .finish_non_exhaustive()
    }
}

impl<T: Default> SpscRing<T> {
    /// Allocates a ring of `capacity` default-initialized slots.
    ///
    /// Capacities below 2 are raised to 2: the slot protocol needs the
    /// producer's revisit position (`pos + capacity`) to differ from the
    /// just-pushed sequence (`pos + 1`), otherwise a full, unconsumed
    /// slot is indistinguishable from a free one and gets overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        let capacity = capacity.max(2);
        let slots = (0..capacity)
            .map(|i| {
                CachePadded(Slot {
                    seq: AtomicU64::new(i as u64),
                    entry: Mutex::new(T::default()),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscRing {
            slots,
            head: CachePadded(AtomicU64::new(0)),
            tail: CachePadded(AtomicU64::new(0)),
            producer_waiter: Waiter::new(),
            consumer_waiter: Waiter::new(),
            closed: AtomicBool::new(false),
            producer_parks: AtomicU64::new(0),
            consumer_parks: AtomicU64::new(0),
        }
    }
}

impl<T> SpscRing<T> {
    /// Splits the ring into its producer and consumer handles. Taking
    /// `&mut self` guarantees at most one live handle pair.
    pub fn split(&mut self) -> (RingProducer<'_, T>, RingConsumer<'_, T>) {
        // Resume from the published positions so a ring survives being
        // split more than once (each `run()` splits afresh).
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        let ring: &SpscRing<T> = self;
        (RingProducer { ring, head }, RingConsumer { ring, tail })
    }

    /// Entries currently in the ring (approximate under concurrency).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        head.saturating_sub(tail) as usize
    }

    /// The slot count chosen at construction.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether either side has closed the ring.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Park counters accumulated so far.
    #[must_use]
    pub fn wait_stats(&self) -> RingWaitStats {
        RingWaitStats {
            producer_parks: self.producer_parks.load(Ordering::Relaxed),
            consumer_parks: self.consumer_parks.load(Ordering::Relaxed),
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.producer_waiter.wake();
        self.consumer_waiter.wake();
    }
}

/// The pushing half of a split ring.
pub struct RingProducer<'a, T> {
    ring: &'a SpscRing<T>,
    /// Local (unshared) producer position.
    head: u64,
}

impl<T: Default> RingProducer<'_, T> {
    /// Attempts to fill the next slot through `fill` (typically a
    /// `mem::swap` of the caller's scratch buffers into the entry).
    /// Returns `false` — without invoking `fill` — when the ring is full.
    pub fn try_push_with(&mut self, fill: impl FnOnce(&mut T)) -> bool {
        let cap = self.ring.slots.len() as u64;
        let slot = &self.ring.slots[(self.head % cap) as usize].0;
        if slot.seq.load(Ordering::Acquire) != self.head {
            return false;
        }
        fill(&mut slot.entry.lock().expect("slot poisoned"));
        slot.seq.store(self.head + 1, Ordering::Release);
        self.head += 1;
        self.ring.head.0.store(self.head, Ordering::Release);
        self.ring.consumer_waiter.wake();
        true
    }

    /// Whether a `try_push_with` would currently succeed.
    #[must_use]
    pub fn can_push(&self) -> bool {
        let cap = self.ring.slots.len() as u64;
        self.ring.slots[(self.head % cap) as usize]
            .0
            .seq
            .load(Ordering::Acquire)
            == self.head
    }

    /// Parks the producer until the consumer frees a slot (or the
    /// timeout/close fires). Returns immediately — without parking — if
    /// the ring became pushable or closed in the meantime.
    pub fn park_while_full(&self) {
        self.ring.producer_waiter.prepare();
        if self.can_push() || self.ring.is_closed() {
            self.ring.producer_waiter.cancel();
            return;
        }
        self.ring.producer_parks.fetch_add(1, Ordering::Relaxed);
        self.ring.producer_waiter.park(PARK_TIMEOUT);
    }

    /// Closes the ring (idempotent; wakes both sides).
    pub fn close(&self) {
        self.ring.close();
    }

    /// Whether either side has closed the ring.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.ring.is_closed()
    }

    /// Entries currently queued (approximate).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.ring.occupancy()
    }
}

/// The popping half of a split ring.
pub struct RingConsumer<'a, T> {
    ring: &'a SpscRing<T>,
    /// Local (unshared) consumer position.
    tail: u64,
}

impl<T: Default> RingConsumer<'_, T> {
    /// Attempts to take the next slot through `drain` (typically a
    /// `mem::swap` of the entry into the caller's scratch buffers).
    /// Returns `false` — without invoking `drain` — when the ring is
    /// empty.
    pub fn try_pop_with(&mut self, drain: impl FnOnce(&mut T)) -> bool {
        let cap = self.ring.slots.len() as u64;
        let slot = &self.ring.slots[(self.tail % cap) as usize].0;
        if slot.seq.load(Ordering::Acquire) != self.tail + 1 {
            return false;
        }
        drain(&mut slot.entry.lock().expect("slot poisoned"));
        slot.seq.store(self.tail + cap, Ordering::Release);
        self.tail += 1;
        self.ring.tail.0.store(self.tail, Ordering::Release);
        self.ring.producer_waiter.wake();
        true
    }

    /// Whether a `try_pop_with` would currently succeed.
    #[must_use]
    pub fn can_pop(&self) -> bool {
        let cap = self.ring.slots.len() as u64;
        self.ring.slots[(self.tail % cap) as usize]
            .0
            .seq
            .load(Ordering::Acquire)
            == self.tail + 1
    }

    /// Parks the consumer until the producer publishes a slot (or the
    /// timeout/close fires). Returns immediately — without parking — if
    /// the ring became poppable or closed in the meantime.
    pub fn park_while_empty(&self) {
        self.ring.consumer_waiter.prepare();
        if self.can_pop() || self.ring.is_closed() {
            self.ring.consumer_waiter.cancel();
            return;
        }
        self.ring.consumer_parks.fetch_add(1, Ordering::Relaxed);
        self.ring.consumer_waiter.park(PARK_TIMEOUT);
    }

    /// Closes the ring (idempotent; wakes both sides).
    pub fn close(&self) {
        self.ring.close();
    }

    /// Whether either side has closed the ring.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.ring.is_closed()
    }

    /// Entries currently queued (approximate).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.ring.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_round_trips_in_order() {
        let mut ring: SpscRing<u64> = SpscRing::new(4);
        let (mut tx, mut rx) = ring.split();
        for i in 0..4 {
            assert!(tx.try_push_with(|slot| *slot = i));
        }
        assert!(!tx.try_push_with(|_| panic!("fill on a full ring")));
        assert!(!tx.can_push());
        for i in 0..4 {
            let mut got = u64::MAX;
            assert!(rx.try_pop_with(|slot| got = *slot));
            assert_eq!(got, i);
        }
        assert!(!rx.try_pop_with(|_| panic!("drain on an empty ring")));
        assert!(!rx.can_pop());
    }

    #[test]
    fn occupancy_tracks_both_sides() {
        let mut ring: SpscRing<u64> = SpscRing::new(3);
        let (mut tx, mut rx) = ring.split();
        assert_eq!(tx.occupancy(), 0);
        assert!(tx.try_push_with(|s| *s = 1));
        assert!(tx.try_push_with(|s| *s = 2));
        assert_eq!(tx.occupancy(), 2);
        assert!(rx.try_pop_with(|_| {}));
        assert_eq!(rx.occupancy(), 1);
        let _ = (tx, rx);
        assert_eq!(ring.occupancy(), 1);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn buffers_circulate_without_reallocation() {
        let mut ring: SpscRing<Vec<u32>> = SpscRing::new(2);
        let (mut tx, mut rx) = ring.split();
        let mut scratch: Vec<u32> = Vec::with_capacity(64);
        let mut sink: Vec<u32> = Vec::new();
        // After one full lap every slot holds a previously used buffer, so
        // swapping retains capacity end to end.
        for round in 0..8u32 {
            scratch.clear();
            scratch.extend(round * 10..round * 10 + 3);
            assert!(tx.try_push_with(|slot| std::mem::swap(slot, &mut scratch)));
            assert!(rx.try_pop_with(|slot| std::mem::swap(slot, &mut sink)));
            assert_eq!(sink, vec![round * 10, round * 10 + 1, round * 10 + 2]);
            if round >= 3 {
                assert!(scratch.capacity() >= 3, "capacity recirculates");
            }
        }
    }

    #[test]
    fn close_is_visible_to_both_handles() {
        let mut ring: SpscRing<u64> = SpscRing::new(2);
        let (tx, rx) = ring.split();
        assert!(!tx.is_closed());
        rx.close();
        assert!(tx.is_closed());
        assert!(rx.is_closed());
    }

    #[test]
    fn park_helpers_return_when_progress_is_possible() {
        let mut ring: SpscRing<u64> = SpscRing::new(1);
        let (mut tx, rx) = ring.split();
        // Empty ring: the producer can push, so park_while_full is a no-op.
        tx.park_while_full();
        assert!(tx.try_push_with(|s| *s = 7));
        // Full ring: the consumer can pop, so park_while_empty is a no-op.
        rx.park_while_empty();
        assert_eq!(ring.wait_stats(), RingWaitStats::default());
    }

    #[test]
    fn cross_thread_stream_is_lossless() {
        const N: u64 = 10_000;
        let mut ring: SpscRing<Vec<u64>> = SpscRing::new(4);
        let (mut tx, mut rx) = ring.split();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut scratch = Vec::new();
                for i in 0..N {
                    scratch.clear();
                    scratch.push(i);
                    loop {
                        let pushed = tx.try_push_with(|slot| std::mem::swap(slot, &mut scratch));
                        if pushed {
                            break;
                        }
                        for _ in 0..SPIN_ITERS {
                            std::hint::spin_loop();
                        }
                        if !tx.can_push() {
                            tx.park_while_full();
                        }
                    }
                }
                tx.close();
            });
            let mut got = Vec::new();
            let mut sink = Vec::new();
            loop {
                if rx.try_pop_with(|slot| std::mem::swap(slot, &mut sink)) {
                    got.extend_from_slice(&sink);
                    continue;
                }
                if rx.is_closed() && !rx.can_pop() {
                    break;
                }
                rx.park_while_empty();
            }
            assert_eq!(got.len() as u64, N);
            assert!(got.iter().enumerate().all(|(i, &v)| v == i as u64));
        });
    }

    #[test]
    fn parked_consumer_is_woken_by_a_push() {
        let mut ring: SpscRing<u64> = SpscRing::new(2);
        let (mut tx, mut rx) = ring.split();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // Give the consumer a moment to actually park.
                std::thread::sleep(Duration::from_millis(5));
                assert!(tx.try_push_with(|s| *s = 42));
                tx.close();
            });
            let mut got = 0u64;
            loop {
                if rx.try_pop_with(|slot| got = *slot) {
                    break;
                }
                if rx.is_closed() && !rx.can_pop() {
                    break;
                }
                rx.park_while_empty();
            }
            assert_eq!(got, 42);
        });
        assert!(ring.wait_stats().consumer_parks >= 1);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be non-zero")]
    fn zero_capacity_is_rejected() {
        let _ = SpscRing::<u64>::new(0);
    }

    #[test]
    fn capacity_one_is_clamped_and_never_overwrites() {
        // At capacity 1 the revisit position (pos + cap) collides with
        // the just-pushed sequence (pos + 1), so a full slot would look
        // free to the producer; `new` must round the capacity up to 2.
        let mut ring: SpscRing<u64> = SpscRing::new(1);
        assert_eq!(ring.capacity(), 2);
        let (mut tx, mut rx) = ring.split();
        assert!(tx.try_push_with(|s| *s = 1));
        assert!(tx.try_push_with(|s| *s = 2));
        assert!(!tx.try_push_with(|s| *s = 3), "full ring must refuse");
        let mut got = Vec::new();
        while rx.try_pop_with(|s| got.push(*s)) {}
        assert_eq!(got, vec![1, 2], "no entry may be overwritten");
    }
}
