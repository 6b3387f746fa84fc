//! The readiness poller the server's event-loop workers run on.
//!
//! The workspace denies `unsafe_code`, so epoll/kqueue are out of
//! reach; instead each worker sweeps its nonblocking sockets directly
//! and this module supplies everything *around* that sweep:
//!
//! - [`Registry`] — slot-indexed connection storage handing out
//!   deterministic [`Token`]s (lowest free slot wins, so token
//!   assignment is a pure function of the accept/close sequence);
//! - [`Waker`]/[`Poller::wake_requested`] — the deterministic wake
//!   token: shutdown flips one shared atomic and every worker observes
//!   it at the top of its next sweep, replacing the old "dial a dummy
//!   connection to unblock `accept`" hack;
//! - [`Poller::idle_wait`] — adaptive backoff. A sweep that made
//!   progress resets the backoff to zero (the next sweep spins
//!   immediately); consecutive idle sweeps sleep exponentially longer
//!   up to a small cap, trading a bounded sliver of wake-up latency
//!   for not burning a core on an idle server. The cap is deliberately
//!   far below a millisecond so the serve path's p99 survives it;
//! - [`Registry::park`] — the connection-count-aware idle sweep. A
//!   connection idle for many consecutive sweeps is *parked*: it drops
//!   out of [`Registry::tokens`] (so the sweep stops issuing a syscall
//!   for it every iteration) onto a lazy re-arm list, and
//!   [`Registry::unpark_due`] returns it to the sweep a bounded number
//!   of sweeps later. Thousands of idle connections then cost ~no CPU
//!   per sweep while still getting their sockets re-polled (and their
//!   idle deadlines re-checked) within a fixed sweep budget.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifies one registered connection within a worker's [`Registry`].
///
/// Tokens are slot indices: freed slots are reused lowest-first, so for
/// a fixed accept/close sequence the token of every connection is fixed
/// too — useful when debugging an interleaving, and the reason registry
/// iteration order is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// One occupied registry slot.
#[derive(Debug)]
struct Slot<C> {
    conn: C,
    /// Parked connections are skipped by [`Registry::tokens`] until
    /// [`Registry::unpark_due`] (or [`Registry::unpark_all`]) re-arms
    /// them.
    parked: bool,
}

/// Slot-indexed storage for a worker's connections.
///
/// A `Vec` of optional slots keeps tokens stable across unrelated closes
/// and reuses the lowest free slot on insert, bounding the vector at the
/// connection high-water mark.
#[derive(Debug)]
pub struct Registry<C> {
    slots: Vec<Option<Slot<C>>>,
    live: usize,
    parked: usize,
    /// Lazy re-arm list: `(slot, due_sweep)` in park order. Entries can
    /// go stale (the connection closed, or the slot was recycled); a
    /// stale entry un-parks at worst an unrelated fresh connection one
    /// sweep early, which costs one extra poll and nothing else.
    rearm: Vec<(usize, u64)>,
}

impl<C> Default for Registry<C> {
    fn default() -> Registry<C> {
        Registry::new()
    }
}

impl<C> Registry<C> {
    /// An empty registry.
    pub fn new() -> Registry<C> {
        Registry {
            slots: Vec::new(),
            live: 0,
            parked: 0,
            rearm: Vec::new(),
        }
    }

    /// Registers a connection, returning its token (lowest free slot).
    // geo-lint: allow(R1, reason = "slot index comes from `position` over the same vec in the same &mut borrow")
    pub fn register(&mut self, conn: C) -> Token {
        self.live += 1;
        let slot = Slot {
            conn,
            parked: false,
        };
        match self.slots.iter().position(Option::is_none) {
            Some(i) => {
                self.slots[i] = Some(slot);
                Token(i)
            }
            None => {
                self.slots.push(Some(slot));
                Token(self.slots.len() - 1)
            }
        }
    }

    /// Removes and returns the connection behind `token`.
    pub fn deregister(&mut self, token: Token) -> Option<C> {
        let slot = self.slots.get_mut(token.0)?;
        let taken = slot.take();
        if let Some(s) = &taken {
            self.live -= 1;
            if s.parked {
                self.parked -= 1;
            }
        }
        taken.map(|s| s.conn)
    }

    /// Mutable access to a registered connection.
    pub fn get_mut(&mut self, token: Token) -> Option<&mut C> {
        self.slots.get_mut(token.0)?.as_mut().map(|s| &mut s.conn)
    }

    /// Live connection count (parked connections included — they still
    /// hold sockets and count against every cap).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no connections are registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Currently parked connection count.
    pub fn parked_len(&self) -> usize {
        self.parked
    }

    /// Tokens of all live *un-parked* connections, ascending — the
    /// sweep order.
    pub fn tokens(&self) -> Vec<Token> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Some(slot) if !slot.parked => Some(Token(i)),
                _ => None,
            })
            .collect()
    }

    /// Tokens of every live connection, parked or not, ascending —
    /// for cap accounting and drain-deadline eviction.
    pub fn all_tokens(&self) -> Vec<Token> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| Token(i)))
            .collect()
    }

    /// Parks `token` until sweep number `due_sweep`: it disappears from
    /// [`Registry::tokens`] and lands on the lazy re-arm list. Returns
    /// false for unknown or already-parked tokens.
    pub fn park(&mut self, token: Token, due_sweep: u64) -> bool {
        let Some(Some(slot)) = self.slots.get_mut(token.0) else {
            return false;
        };
        if slot.parked {
            return false;
        }
        slot.parked = true;
        self.parked += 1;
        self.rearm.push((token.0, due_sweep));
        true
    }

    /// Re-arms every parked connection whose due sweep has arrived.
    /// Call once at the top of each sweep with the current sweep number.
    pub fn unpark_due(&mut self, sweep: u64) {
        if self.parked == 0 {
            self.rearm.clear();
            return;
        }
        let mut rearm = std::mem::take(&mut self.rearm);
        rearm.retain(|&(slot_idx, due)| {
            if due > sweep {
                return true;
            }
            if let Some(Some(slot)) = self.slots.get_mut(slot_idx) {
                if slot.parked {
                    slot.parked = false;
                    self.parked -= 1;
                }
            }
            false
        });
        self.rearm = rearm;
    }

    /// Immediately re-arms every parked connection (drain shutdown wants
    /// every socket back in the sweep to flush and close it).
    pub fn unpark_all(&mut self) {
        self.rearm.clear();
        if self.parked == 0 {
            return;
        }
        for slot in self.slots.iter_mut().flatten() {
            slot.parked = false;
        }
        self.parked = 0;
    }
}

/// Flips the shared wake flag; any thread may hold one.
#[derive(Debug, Clone)]
pub struct Waker {
    flag: Arc<AtomicBool>,
}

impl Waker {
    /// Requests a wake-up: every poller sharing the flag returns from
    /// its current (or next) `idle_wait` and observes `wake_requested`.
    pub fn wake(&self) {
        self.flag.store(true, Ordering::Release);
    }
}

/// Per-worker sweep pacing plus the shared wake token.
#[derive(Debug)]
pub struct Poller {
    wake: Arc<AtomicBool>,
    /// Consecutive idle sweeps; drives the backoff exponent.
    idle_streak: u32,
}

/// Longest single `idle_wait` sleep. Small enough that a request
/// landing on a fully idle server still sees well-under-a-millisecond
/// added latency; large enough that an idle worker costs ~no CPU.
const MAX_IDLE_WAIT: Duration = Duration::from_micros(256);
/// First non-zero backoff step.
const BASE_IDLE_WAIT: Duration = Duration::from_micros(8);
/// Idle sweeps tolerated before the first sleep (pure spins).
const SPIN_SWEEPS: u32 = 64;

impl Default for Poller {
    fn default() -> Poller {
        Poller::new()
    }
}

impl Poller {
    /// A poller with a fresh wake flag.
    pub fn new() -> Poller {
        Poller {
            wake: Arc::new(AtomicBool::new(false)),
            idle_streak: 0,
        }
    }

    /// A poller sharing `other`'s wake flag — the worker-pool shape:
    /// one flag, N pollers, any waker reaches them all.
    pub fn sharing(other: &Poller) -> Poller {
        Poller {
            wake: Arc::clone(&other.wake),
            idle_streak: 0,
        }
    }

    /// A handle that can wake this poller (and all pollers sharing its
    /// flag) from any thread.
    pub fn waker(&self) -> Waker {
        Waker {
            flag: Arc::clone(&self.wake),
        }
    }

    /// True once any [`Waker::wake`] has fired. Sticky by design:
    /// shutdown is one-way.
    pub fn wake_requested(&self) -> bool {
        self.wake.load(Ordering::Acquire)
    }

    /// Records that the last sweep did useful work; resets the backoff
    /// so the next sweeps spin at full speed.
    pub fn note_progress(&mut self) {
        self.idle_streak = 0;
    }

    /// Paces an idle sweep: spin for the first few, then sleep with
    /// exponential backoff capped at `MAX_IDLE_WAIT`. Returns
    /// immediately when a wake is pending.
    pub fn idle_wait(&mut self) {
        if self.wake_requested() {
            return;
        }
        self.idle_streak = self.idle_streak.saturating_add(1);
        if self.idle_streak <= SPIN_SWEEPS {
            std::hint::spin_loop();
            return;
        }
        let exp = (self.idle_streak - SPIN_SWEEPS).min(6);
        let wait = BASE_IDLE_WAIT
            .saturating_mul(1 << exp.saturating_sub(1))
            .min(MAX_IDLE_WAIT);
        std::thread::sleep(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_reuses_lowest_free_slot() {
        let mut r: Registry<&str> = Registry::new();
        let a = r.register("a");
        let b = r.register("b");
        let c = r.register("c");
        assert_eq!((a, b, c), (Token(0), Token(1), Token(2)));
        assert_eq!(r.deregister(b), Some("b"));
        assert_eq!(r.len(), 2);
        // The freed middle slot is recycled before the tail grows.
        assert_eq!(r.register("d"), Token(1));
        assert_eq!(r.tokens(), vec![Token(0), Token(1), Token(2)]);
        assert_eq!(r.get_mut(Token(1)).map(|c| *c), Some("d"));
        // Double-deregister is a no-op, not a count corruption.
        assert_eq!(r.deregister(Token(9)), None);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn parked_connections_leave_the_sweep_until_due() {
        let mut r: Registry<&str> = Registry::new();
        let a = r.register("a");
        let b = r.register("b");
        assert!(r.park(a, 10));
        assert!(!r.park(a, 12), "double-park is refused");
        assert_eq!(r.tokens(), vec![b]);
        assert_eq!(r.all_tokens(), vec![a, b]);
        assert_eq!((r.len(), r.parked_len()), (2, 1));
        // Not due yet: still parked.
        r.unpark_due(9);
        assert_eq!(r.tokens(), vec![b]);
        // Due: back in the sweep.
        r.unpark_due(10);
        assert_eq!(r.tokens(), vec![a, b]);
        assert_eq!(r.parked_len(), 0);
    }

    #[test]
    fn stale_rearm_entries_are_harmless_after_slot_recycling() {
        let mut r: Registry<&str> = Registry::new();
        let a = r.register("a");
        assert!(r.park(a, 5));
        // The parked connection closes; its slot is recycled by a fresh
        // connection, which must start un-parked.
        assert_eq!(r.deregister(a), Some("a"));
        assert_eq!(r.parked_len(), 0);
        let fresh = r.register("fresh");
        assert_eq!(fresh, a, "lowest slot is recycled");
        assert_eq!(r.tokens(), vec![fresh]);
        // The stale re-arm entry fires without corrupting counts.
        r.unpark_due(5);
        assert_eq!((r.len(), r.parked_len()), (1, 0));
        assert_eq!(r.tokens(), vec![fresh]);
    }

    #[test]
    fn unpark_all_rearms_everything_at_once() {
        let mut r: Registry<u8> = Registry::new();
        let toks: Vec<Token> = (0..4).map(|i| r.register(i)).collect();
        for &t in &toks[..3] {
            assert!(r.park(t, u64::MAX));
        }
        assert_eq!(r.tokens().len(), 1);
        r.unpark_all();
        assert_eq!(r.tokens(), toks);
        assert_eq!(r.parked_len(), 0);
    }

    #[test]
    fn waker_reaches_every_sharing_poller() {
        let mut a = Poller::new();
        let mut b = Poller::sharing(&a);
        assert!(!a.wake_requested() && !b.wake_requested());
        let waker = b.waker();
        let handle = std::thread::spawn(move || waker.wake());
        handle.join().ok();
        assert!(a.wake_requested() && b.wake_requested());
        // A pending wake short-circuits idle_wait.
        a.idle_wait();
        b.idle_wait();
    }

    #[test]
    fn idle_backoff_resets_on_progress() {
        let mut p = Poller::new();
        for _ in 0..SPIN_SWEEPS + 3 {
            p.idle_wait();
        }
        assert!(p.idle_streak > SPIN_SWEEPS);
        p.note_progress();
        assert_eq!(p.idle_streak, 0);
    }
}
