//! Hierarchical timing wheel for the event-driven scheduler.
//!
//! The simulator's pending-transaction queue used to be a global
//! `BinaryHeap`, which charges `O(log n)` per push/pop even though the
//! overwhelming majority of HDL traffic is "a clock edge a half-period
//! away" or "a drive event a few nanoseconds out". The wheel replaces
//! that with a hashed hierarchical timing wheel (Varghese–Lauck): eleven
//! levels of 64 slots, six bits of the picosecond timestamp per level,
//! which together cover the full `u64` time range. A push indexes the
//! level whose digit first differs from the wheel base and appends to a
//! slot vector — `O(1)`, no comparisons. Popping drains the slot holding
//! the earliest timestamp; entries parked in coarse levels cascade down
//! at most once per level as the base advances, so the amortized cost per
//! entry is `O(levels)` with tiny constants. A `u16` summary marks the
//! levels that hold any entry, so popping and the minimum recomputation
//! visit only those instead of all eleven. The earliest pending timestamp
//! is cached: a push can only lower it, and `pop_into` recomputes it
//! once, so [`TimingWheel::peek`] is a field read even when the minimum
//! sits in a coarse slot that would otherwise need a scan. Entries are
//! stored by value, so the payload's size is the wheel's memory traffic:
//! the simulator's is 32 bytes, 40 with the timestamp.
//!
//! Ordering contract (what the simulator relies on):
//!
//! * [`TimingWheel::peek`] returns the minimum pending timestamp;
//! * [`TimingWheel::pop_into`] removes *all* entries carrying exactly
//!   that timestamp and appends them to the output in push order (pushes
//!   are globally sequence-numbered by the caller and monotone, so push
//!   order *is* seq order — the property-based test against a
//!   `BinaryHeap` reference model in
//!   `tests/props.rs::timing_wheel_matches_binary_heap_reference` checks
//!   this end to end);
//! * the base only advances inside `pop_into`, so a caller may keep
//!   pushing timestamps as early as the last popped time (the simulator's
//!   `poke(at >= now)` contract) without tripping the base assertion.

/// Bits of the timestamp consumed per wheel level.
const LEVEL_BITS: usize = 6;
/// Slots per level (64).
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels; `11 * 6 = 66 >= 64` bits covers any `u64` time.
const LEVELS: usize = 11;
/// Low-bits mask selecting a slot index.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// Hierarchical timing wheel keyed on `u64` timestamps (picoseconds in
/// the simulator), holding opaque payloads of type `T`.
pub struct TimingWheel<T> {
    /// `LEVELS * SLOTS` slot vectors, flattened level-major.
    slots: Vec<Vec<(u64, T)>>,
    /// One occupancy bitmask per level; bit `s` set iff slot `s` is
    /// non-empty. Keeps "find earliest slot" a `trailing_zeros` call.
    occupied: [u64; LEVELS],
    /// Bit `l` set iff `occupied[l] != 0`: `pop_into` and `scan_min`
    /// visit only the occupied levels.
    levels: u16,
    /// All stored timestamps are `>= base`; advanced by `pop_into`.
    base: u64,
    len: usize,
    /// Earliest timestamp in each slot (`u64::MAX` while it is empty),
    /// flattened like `slots`.
    slot_min: Vec<u64>,
    /// Earliest stored timestamp; `u64::MAX` while the wheel is empty.
    min: u64,
    /// Entries moved between slots since the last [`Self::take_cascaded`].
    cascaded: u64,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for TimingWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("base", &self.base)
            .field("len", &self.len)
            .finish()
    }
}

impl<T> TimingWheel<T> {
    /// Creates an empty wheel based at time zero.
    #[must_use]
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(LEVELS * SLOTS);
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        Self {
            slots,
            occupied: [0; LEVELS],
            levels: 0,
            base: 0,
            len: 0,
            slot_min: vec![u64::MAX; LEVELS * SLOTS],
            min: u64::MAX,
            cascaded: 0,
        }
    }

    /// Number of pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries relocated by cascading since the last call; resets the
    /// counter. Feeds the `rtl.wheel_cascade` telemetry counter.
    pub fn take_cascaded(&mut self) -> u64 {
        std::mem::take(&mut self.cascaded)
    }

    /// Occupied slots across every level — how spread-out the pending
    /// transactions are. Feeds the `rtl.wheel_occupancy` telemetry gauge.
    #[must_use]
    pub fn occupied_slots(&self) -> u32 {
        self.occupied.iter().map(|bits| bits.count_ones()).sum()
    }

    /// Level whose digit distinguishes `time` from the current base.
    #[inline]
    fn level_of(&self, time: u64) -> usize {
        let diff = time ^ self.base;
        if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros() as usize) / LEVEL_BITS
        }
    }

    /// Schedules `item` at `time`. Panics if `time` precedes the wheel
    /// base (i.e. an already-popped instant).
    pub fn push(&mut self, time: u64, item: T) {
        assert!(
            time >= self.base,
            "timing wheel: push at {time} before base {}",
            self.base
        );
        let level = self.level_of(time);
        let slot = ((time >> (level * LEVEL_BITS)) & SLOT_MASK) as usize;
        let index = level * SLOTS + slot;
        self.slots[index].push((time, item));
        self.slot_min[index] = self.slot_min[index].min(time);
        self.occupied[level] |= 1 << slot;
        self.levels |= 1 << level;
        self.len += 1;
        self.min = self.min.min(time);
    }

    /// Earliest pending timestamp, without disturbing the wheel.
    #[must_use]
    pub fn peek(&self) -> Option<u64> {
        (self.len > 0).then_some(self.min)
    }

    /// Recomputes the earliest stored timestamp (`u64::MAX` when empty):
    /// within one level every entry shares the base's digits above that
    /// level (anything else would be `< base`), so the first occupied slot
    /// of each level holds that level's minimum.
    fn scan_min(&self) -> u64 {
        let mut min = u64::MAX;
        let mut levels = self.levels;
        while levels != 0 {
            let level = levels.trailing_zeros() as usize;
            levels &= levels - 1;
            let slot = self.occupied[level].trailing_zeros() as usize;
            min = min.min(self.slot_min[level * SLOTS + slot]);
        }
        min
    }

    /// Removes every entry scheduled for the earliest pending timestamp,
    /// appending them to `out` in push order, and returns that timestamp.
    /// Advances the wheel base to it.
    pub fn pop_into(&mut self, out: &mut Vec<T>) -> Option<u64> {
        let time = self.peek()?;
        self.base = time;
        // `time`'s slot index at a given level does not depend on the
        // base, so every entry stamped `time` lives in `time`'s slot of
        // one of the occupied levels. Walk them coarse-to-fine: pushes
        // migrate toward level 0 as the base advances, so coarser copies
        // carry earlier sequence numbers and must be emitted first.
        // Bystanders sharing a coarse slot are strictly later than `time`
        // (it is the minimum) and re-file under the advanced base, never
        // into a slot this loop still has to visit, so the walk can take
        // its level set up front.
        let mut levels = self.levels;
        while levels != 0 {
            let level = 15 - levels.leading_zeros() as usize;
            levels &= !(1 << level);
            let slot = ((time >> (level * LEVEL_BITS)) & SLOT_MASK) as usize;
            if self.occupied[level] & (1 << slot) == 0 {
                continue;
            }
            let index = level * SLOTS + slot;
            let mut entries = std::mem::take(&mut self.slots[index]);
            self.slot_min[index] = u64::MAX;
            self.occupied[level] &= !(1 << slot);
            if self.occupied[level] == 0 {
                self.levels &= !(1 << level);
            }
            self.len -= entries.len();
            for (t, item) in entries.drain(..) {
                if t == time {
                    out.push(item);
                } else {
                    debug_assert!(t > time);
                    self.cascaded += 1;
                    self.push(t, item);
                }
            }
            // Hand the emptied vector back to keep its capacity.
            if self.slots[index].is_empty() {
                self.slots[index] = entries;
            }
        }
        self.min = self.scan_min();
        Some(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(wheel: &mut TimingWheel<u64>) -> Vec<(u64, Vec<u64>)> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = wheel.pop_into(&mut batch) {
            out.push((t, batch.clone()));
            batch.clear();
        }
        out
    }

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut wheel = TimingWheel::new();
        for (seq, &t) in [5u64, 63, 64, 65, 4096, 262_144, 1, 0].iter().enumerate() {
            wheel.push(t, seq as u64);
        }
        let order: Vec<u64> = drain_all(&mut wheel).iter().map(|&(t, _)| t).collect();
        assert_eq!(order, vec![0, 1, 5, 63, 64, 65, 4096, 262_144]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn same_time_entries_pop_together_in_push_order() {
        let mut wheel = TimingWheel::new();
        wheel.push(100, 0);
        wheel.push(50, 1);
        wheel.push(100, 2);
        wheel.push(100, 3);
        let mut batch = Vec::new();
        assert_eq!(wheel.pop_into(&mut batch), Some(50));
        assert_eq!(batch, vec![1]);
        batch.clear();
        assert_eq!(wheel.pop_into(&mut batch), Some(100));
        assert_eq!(batch, vec![0, 2, 3]);
        assert!(wheel.pop_into(&mut batch).is_none());
    }

    #[test]
    fn push_order_survives_a_base_advance_between_pushes() {
        // An entry parked in a coarse level must still pop before entries
        // pushed later (higher seq) directly into level 0.
        let mut wheel = TimingWheel::new();
        wheel.push(100, 0); // base 0: lands in level 1
        wheel.push(64, 1);
        let mut batch = Vec::new();
        assert_eq!(wheel.pop_into(&mut batch), Some(64)); // base -> 64
        batch.clear();
        wheel.push(100, 2); // base 64: lands in level 0
        assert_eq!(wheel.pop_into(&mut batch), Some(100));
        assert_eq!(batch, vec![0, 2]);
    }

    #[test]
    fn peek_is_exact_with_mixed_levels() {
        let mut wheel = TimingWheel::new();
        wheel.push(80, 0); // level 1 under base 0
        let mut batch = Vec::new();
        wheel.push(64, 1);
        assert_eq!(wheel.pop_into(&mut batch), Some(64)); // base -> 64
        wheel.push(100, 2); // level 0 under base 64
        assert_eq!(wheel.peek(), Some(80)); // min sits in level 1, not 0
        batch.clear();
        assert_eq!(wheel.pop_into(&mut batch), Some(80));
        assert_eq!(batch, vec![0]);
    }

    #[test]
    fn full_range_timestamps_are_accepted() {
        let mut wheel = TimingWheel::new();
        wheel.push(u64::MAX, 0);
        wheel.push(u64::MAX - 1, 1);
        wheel.push(0, 2);
        let popped = drain_all(&mut wheel);
        assert_eq!(
            popped,
            vec![(0, vec![2]), (u64::MAX - 1, vec![1]), (u64::MAX, vec![0]),]
        );
    }

    #[test]
    fn len_and_cascade_counters_track() {
        let mut wheel = TimingWheel::new();
        for t in 0..200u64 {
            wheel.push(t * 37, t);
        }
        assert_eq!(wheel.len(), 200);
        let mut batch = Vec::new();
        let mut seen = 0;
        while wheel.pop_into(&mut batch).is_some() {
            seen += batch.len();
            batch.clear();
        }
        assert_eq!(seen, 200);
        assert_eq!(wheel.len(), 0);
        assert!(wheel.take_cascaded() > 0);
        assert_eq!(wheel.take_cascaded(), 0);
    }

    #[test]
    fn push_at_current_base_is_allowed_and_pops_immediately() {
        let mut wheel = TimingWheel::new();
        wheel.push(10, 0);
        let mut batch = Vec::new();
        assert_eq!(wheel.pop_into(&mut batch), Some(10));
        batch.clear();
        wheel.push(10, 1); // same instant again (poke at `now`)
        assert_eq!(wheel.pop_into(&mut batch), Some(10));
        assert_eq!(batch, vec![1]);
    }

    #[test]
    #[should_panic(expected = "before base")]
    fn push_before_base_panics() {
        let mut wheel = TimingWheel::new();
        wheel.push(100, 0);
        let mut batch = Vec::new();
        wheel.pop_into(&mut batch);
        wheel.push(99, 1);
    }
}
