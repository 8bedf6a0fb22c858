//! The split request/response snooping bus.
//!
//! Requests are granted in the order the manager services them; the bus is
//! the single most contended simulation resource and carries a single
//! monitoring variable — the source of *bus violations* (simulation state
//! violations, paper §3). Because a transaction occupies the request bus
//! for one cycle, conflicts can arise within one cycle of latency, which
//! is what forces the critical latency of an accurate quantum simulation
//! down to a single clock (paper §1).
//!
//! Both buses are modelled as slot-reservation resources: a transaction
//! occupies the first free slot at or after its request time. A single
//! "free-from" pointer would impose head-of-line blocking (a 100-cycle
//! memory reply would delay an unrelated earlier-ready transfer), which
//! the target's split-transaction bus does not have.

use std::collections::VecDeque;

use slacksim_core::checkpoint::Checkpointable;
use slacksim_core::persist::{ByteReader, ByteWriter, PersistError};
use slacksim_core::time::Cycle;
use slacksim_core::violation::TimestampMonitor;

/// Reserved-slot calendar for one bus, with each reservation occupying
/// `occupancy` consecutive cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotCalendar {
    pub(crate) occupancy: u64,
    /// Reservation starts, ascending and duplicate-free. Arrivals are
    /// near-monotone, so inserts land at (or within a few elements of) the
    /// back, and pruning pops from the front: a ring buffer makes both
    /// ends O(1), where a sorted `Vec` paid a whole-buffer shift on every
    /// front removal.
    reserved: VecDeque<u64>,
    horizon: u64,
}

/// Reservations further than this many cycles in the past of the newest
/// reservation are pruned; any request that old would be a (already
/// counted) violating straggler and may treat those slots as free.
const PRUNE_WINDOW: u64 = 1 << 14;

impl SlotCalendar {
    pub(crate) fn new(occupancy: u64) -> Self {
        assert!(occupancy >= 1, "bus occupancy must be at least 1");
        SlotCalendar {
            occupancy,
            reserved: VecDeque::new(),
            horizon: 0,
        }
    }

    /// Reserves and returns the first slot start `>= from` whose
    /// `occupancy` cycles are all free.
    pub(crate) fn reserve(&mut self, from: u64) -> u64 {
        let c = self.occupancy;
        // Past-the-horizon fast path: every existing reservation starts at
        // or below `horizon`, so a request at `horizon + c` or later can
        // never overlap one — its slot is free by construction. Requests
        // arrive in near-monotone timestamp order on every engine's
        // servicing path, so this branch takes the search off the hot
        // path entirely for uncontended traffic.
        if from >= self.horizon + c || self.reserved.is_empty() {
            // Strictly past every existing start, so appending keeps the
            // calendar sorted.
            self.reserved.push_back(from);
            self.horizon = self.horizon.max(from);
            self.maybe_prune();
            return from;
        }
        let mut slot = from;
        let mut end = self.reserved.partition_point(|&r| r < slot + c);
        // Any reservation r with r + c > slot and r < slot + c overlaps;
        // the latest such r (if any) sits just before `end`.
        while let Some(r) = end
            .checked_sub(1)
            .map(|i| self.reserved[i])
            .filter(|&r| r + c > slot)
        {
            slot = r + c;
            while self.reserved.get(end).is_some_and(|&r| r < slot + c) {
                end += 1;
            }
        }
        self.reserved.insert(end, slot);
        self.horizon = self.horizon.max(slot);
        self.maybe_prune();
        slot
    }

    /// Drops reservations far enough behind the horizon that no future
    /// request can legitimately land among them (see [`PRUNE_WINDOW`]).
    /// Past the 4096-entry trigger this runs on every reservation, so it
    /// pops the (usually zero or one) expired entries off the front.
    #[inline]
    fn maybe_prune(&mut self) {
        if self.reserved.len() > 4096 {
            let cutoff = self.horizon.saturating_sub(PRUNE_WINDOW);
            while self.reserved.front().is_some_and(|&r| r < cutoff) {
                self.reserved.pop_front();
            }
        }
    }

    /// Serializes the calendar (occupancy is configuration, not stored).
    pub(crate) fn save_state(&self, w: &mut ByteWriter) {
        w.u64(self.horizon);
        w.u32(self.reserved.len() as u32);
        for &slot in &self.reserved {
            w.u64(slot);
        }
    }

    pub(crate) fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        let horizon = r.u64()?;
        let n = r.u32()? as usize;
        let mut reserved = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            reserved.push(r.u64()?);
        }
        reserved.sort_unstable();
        reserved.dedup();
        if reserved.len() != n {
            return Err(PersistError::Corrupt("duplicate bus reservation slot"));
        }
        // The horizon is the newest reservation (pruning never drops it),
        // and the fast path in `reserve` relies on it.
        if reserved.last().copied().unwrap_or(0) != horizon {
            return Err(PersistError::Corrupt(
                "bus reservation horizon is not the newest slot",
            ));
        }
        self.horizon = horizon;
        self.reserved = reserved.into();
        Ok(())
    }
}

/// Result of arbitrating one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// Cycle at which the request owns the request bus.
    pub grant: Cycle,
    /// Whether the request arrived out of timestamp order (bus violation).
    pub violation: bool,
    /// The bus monitor's largest observed timestamp at arbitration time
    /// (feeds violation-distance observability).
    pub high_water: Cycle,
    /// Whether the request had to wait for another transaction
    /// (bus conflict).
    pub conflict: bool,
}

/// Split-transaction bus timing state.
///
/// # Examples
///
/// ```
/// use slacksim_cmp::bus::Bus;
/// use slacksim_core::time::Cycle;
///
/// let mut bus = Bus::new(1, 1);
/// let a = bus.arbitrate(Cycle::new(10));
/// let b = bus.arbitrate(Cycle::new(10)); // same-cycle conflict
/// assert_eq!(a.grant, Cycle::new(10));
/// assert_eq!(b.grant, Cycle::new(11));
/// assert!(b.conflict && !b.violation);
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    request: SlotCalendar,
    response: SlotCalendar,
    monitor: TimestampMonitor,
    transactions: u64,
    conflicts: u64,
    violations: u64,
    busy_cycles: u64,
    /// Mutation generation (tracking metadata: excluded from equality).
    /// The bus is dirtied by essentially every transaction, so it tracks
    /// one whole-struct generation instead of fine-grained stamps — its
    /// delta is all-or-nothing.
    gen: u64,
}

/// Equality is over model state only; the generation counter is capture
/// bookkeeping.
impl PartialEq for Bus {
    fn eq(&self, other: &Self) -> bool {
        self.request == other.request
            && self.response == other.response
            && self.monitor == other.monitor
            && self.transactions == other.transactions
            && self.conflicts == other.conflicts
            && self.violations == other.violations
            && self.busy_cycles == other.busy_cycles
    }
}

impl Eq for Bus {}

/// Incremental state carrier for the [`Bus`]: whole-struct, present only
/// when the bus mutated since the capture baseline. Capture pays one
/// clone — the same cost the bus contributes to a full snapshot — and
/// apply *moves* the box into place, so the delta path never clones the
/// calendars twice.
#[derive(Debug, Clone)]
pub struct BusDelta {
    gen: u64,
    state: Option<Box<Bus>>,
}

impl BusDelta {
    /// Whether the delta carries any state.
    pub fn is_dirty(&self) -> bool {
        self.state.is_some()
    }
}

impl Checkpointable for Bus {
    type Delta = BusDelta;

    fn generation(&self) -> u64 {
        self.gen
    }

    fn capture_delta(&mut self, since_gen: u64) -> BusDelta {
        BusDelta {
            gen: self.gen,
            state: (self.gen > since_gen).then(|| Box::new(self.clone())),
        }
    }

    fn apply_delta(&mut self, delta: BusDelta) {
        let gen = self.gen.max(delta.gen);
        if let Some(state) = delta.state {
            *self = *state;
        }
        self.gen = gen;
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        if self.gen > since_gen {
            let live_gen = self.gen;
            *self = base.clone();
            self.gen = live_gen; // generations are never rewound
        }
    }
}

impl Bus {
    /// Creates a bus with the given per-transaction occupancies.
    ///
    /// # Panics
    ///
    /// Panics if either occupancy is 0.
    pub fn new(req_bus_cycles: u64, resp_bus_cycles: u64) -> Self {
        Bus {
            request: SlotCalendar::new(req_bus_cycles),
            response: SlotCalendar::new(resp_bus_cycles),
            monitor: TimestampMonitor::new(),
            transactions: 0,
            conflicts: 0,
            violations: 0,
            busy_cycles: 0,
            gen: 0,
        }
    }

    /// Arbitrates the request bus for a transaction stamped `ts`,
    /// returning the grant time and the violation/conflict verdicts.
    pub fn arbitrate(&mut self, ts: Cycle) -> BusGrant {
        self.gen += 1;
        self.transactions += 1;
        let violation = self.monitor.observe(ts);
        if violation {
            self.violations += 1;
        }
        let slot = self.request.reserve(ts.as_u64());
        let conflict = slot != ts.as_u64();
        if conflict {
            self.conflicts += 1;
        }
        self.busy_cycles += self.request.occupancy;
        BusGrant {
            grant: Cycle::new(slot),
            violation,
            high_water: self.monitor.high_water(),
            conflict,
        }
    }

    /// The bus monitor's largest observed request timestamp so far.
    pub fn high_water(&self) -> Cycle {
        self.monitor.high_water()
    }

    /// Schedules a data transfer on the response bus once the data is
    /// ready; returns the cycle the transfer completes at the requester.
    pub fn respond(&mut self, data_ready: Cycle) -> Cycle {
        self.gen += 1;
        let slot = self.response.reserve(data_ready.as_u64());
        Cycle::new(slot + self.response.occupancy)
    }

    /// Transactions arbitrated so far.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Requests that found their slot taken.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Out-of-order grants detected.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Total request-bus busy cycles (utilisation numerator).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Serializes the model state (calendar slots, monitor high-water,
    /// counters). Occupancies are configuration, never stored.
    pub fn save_state(&self, w: &mut ByteWriter) {
        self.request.save_state(w);
        self.response.save_state(w);
        w.u64(self.monitor.high_water().as_u64());
        w.u64(self.transactions);
        w.u64(self.conflicts);
        w.u64(self.violations);
        w.u64(self.busy_cycles);
    }

    /// Restores state written by [`Bus::save_state`]. The generation
    /// counter is reset; the caller re-seeds delta baselines on resume.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] if the bytes are malformed.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        self.request.load_state(r)?;
        self.response.load_state(r)?;
        self.monitor = TimestampMonitor::with_high_water(Cycle::new(r.u64()?));
        self.transactions = r.u64()?;
        self.conflicts = r.u64()?;
        self.violations = r.u64()?;
        self.busy_cycles = r.u64()?;
        self.gen = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Cycle {
        Cycle::new(t)
    }

    #[test]
    fn in_order_requests_never_violate() {
        let mut bus = Bus::new(1, 1);
        for t in [1u64, 2, 5, 5, 9] {
            assert!(!bus.arbitrate(ts(t)).violation);
        }
        assert_eq!(bus.violations(), 0);
        assert_eq!(bus.transactions(), 5);
    }

    #[test]
    fn straggler_is_a_violation_but_can_fill_old_slots() {
        let mut bus = Bus::new(1, 1);
        bus.arbitrate(ts(10));
        let g = bus.arbitrate(ts(4));
        assert!(g.violation);
        assert_eq!(bus.violations(), 1);
        // The straggler takes the free slot at its own timestamp — no
        // head-of-line blocking behind the later grant.
        assert_eq!(g.grant, ts(4));
        assert!(!g.conflict);
    }

    #[test]
    fn back_to_back_conflicts_serialise() {
        let mut bus = Bus::new(1, 1);
        let a = bus.arbitrate(ts(7));
        let b = bus.arbitrate(ts(7));
        let c = bus.arbitrate(ts(7));
        assert_eq!(a.grant, ts(7));
        assert_eq!(b.grant, ts(8));
        assert_eq!(c.grant, ts(9));
        assert_eq!(bus.conflicts(), 2);
    }

    #[test]
    fn idle_gap_clears_conflicts() {
        let mut bus = Bus::new(1, 1);
        bus.arbitrate(ts(1));
        let g = bus.arbitrate(ts(100));
        assert!(!g.conflict);
        assert_eq!(g.grant, ts(100));
    }

    #[test]
    fn wider_occupancy_extends_conflicts() {
        let mut bus = Bus::new(4, 1);
        bus.arbitrate(ts(0));
        let g = bus.arbitrate(ts(2));
        assert!(g.conflict);
        assert_eq!(g.grant, ts(4));
    }

    #[test]
    fn gap_between_reservations_is_usable() {
        let mut bus = Bus::new(1, 1);
        bus.arbitrate(ts(5));
        bus.arbitrate(ts(10));
        // The hole at 6..10 serves a request stamped 7.
        let g = bus.arbitrate(ts(7));
        assert_eq!(g.grant, ts(7));
        assert!(!g.conflict);
    }

    #[test]
    fn response_bus_has_no_head_of_line_blocking() {
        let mut bus = Bus::new(1, 1);
        // A slow memory reply reserves cycle 110.
        let slow = bus.respond(ts(110));
        assert_eq!(slow, ts(111));
        // A fast cache-to-cache reply ready at 30 is not stuck behind it.
        let fast = bus.respond(ts(30));
        assert_eq!(fast, ts(31));
        // But a same-cycle transfer does conflict.
        let third = bus.respond(ts(30));
        assert_eq!(third, ts(32));
    }

    #[test]
    fn response_occupancy_respected() {
        let mut bus = Bus::new(1, 4);
        assert_eq!(bus.respond(ts(0)), ts(4));
        assert_eq!(bus.respond(ts(1)), ts(8));
        assert_eq!(bus.respond(ts(100)), ts(104));
    }

    #[test]
    fn busy_cycles_accumulate() {
        let mut bus = Bus::new(1, 1);
        bus.arbitrate(ts(0));
        bus.arbitrate(ts(1));
        assert_eq!(bus.busy_cycles(), 2);
    }

    #[test]
    fn calendar_prunes_but_stays_correct_near_horizon() {
        let mut bus = Bus::new(1, 1);
        for t in 0..5000u64 {
            bus.arbitrate(ts(t * 2));
        }
        // Recent slots remain reserved after pruning.
        let g = bus.arbitrate(ts(9998));
        assert_eq!(g.grant, ts(9999));
    }

    #[test]
    #[should_panic(expected = "bus occupancy must be at least 1")]
    fn zero_occupancy_rejected() {
        let _ = Bus::new(0, 1);
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let mut live = Bus::new(2, 1);
        live.arbitrate(ts(5));
        live.arbitrate(ts(5)); // conflict
        live.arbitrate(ts(2)); // violation
        live.respond(ts(40));

        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = Bus::new(2, 1);
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).expect("load succeeds");
        r.finish().expect("no trailing bytes");
        assert_eq!(restored, live);
        assert_eq!(restored.high_water(), live.high_water());
        // Future arbitration must see identical occupancy/monitor state.
        assert_eq!(restored.arbitrate(ts(6)), live.arbitrate(ts(6)));
        let err = restored.load_state(&mut ByteReader::new(&bytes[..4]));
        assert!(err.is_err(), "truncation errors instead of panicking");
    }

    /// Replaces the leading empty calendar (horizon 0, no slots) of a
    /// fresh model's bytes at `at` with `calendar`.
    fn splice_calendar(fresh: &[u8], at: usize, calendar: &[u8]) -> Vec<u8> {
        let empty = {
            let mut w = ByteWriter::new();
            SlotCalendar::new(1).save_state(&mut w);
            w.into_bytes()
        };
        assert_eq!(&fresh[at..at + empty.len()], &empty[..]);
        let mut bytes = fresh[..at].to_vec();
        bytes.extend_from_slice(calendar);
        bytes.extend_from_slice(&fresh[at + empty.len()..]);
        bytes
    }

    #[test]
    fn calendar_whose_horizon_is_not_the_newest_slot_is_corrupt() {
        let corrupt = |e: Result<(), PersistError>| matches!(e, Err(PersistError::Corrupt(_)));
        let mut w = ByteWriter::new();
        w.u64(5); // horizon 5, but the newest slot is 100
        w.u32(2);
        w.u64(3);
        w.u64(100);
        let bad = w.into_bytes();
        let mut w = ByteWriter::new();
        w.u64(7); // horizon 7 with no slots
        w.u32(0);
        let empty_with_horizon = w.into_bytes();

        let mut w = ByteWriter::new();
        Bus::new(1, 1).save_state(&mut w);
        let fresh_bus = w.into_bytes();
        let mut w = ByteWriter::new();
        crate::directory::Directory::new(4, 4).save_state(&mut w);
        let fresh_dir = w.into_bytes();
        // Control: the unpatched bytes load.
        assert!(Bus::new(1, 1)
            .load_state(&mut ByteReader::new(&fresh_bus))
            .is_ok());
        let mut dir = crate::directory::Directory::new(4, 4);
        assert!(dir.load_state(&mut ByteReader::new(&fresh_dir)).is_ok());

        for calendar in [&bad, &empty_with_horizon] {
            let bytes = splice_calendar(&fresh_bus, 0, calendar);
            assert!(corrupt(
                Bus::new(1, 1).load_state(&mut ByteReader::new(&bytes))
            ));
            // The response calendar follows the request calendar's 12 bytes.
            let bytes = splice_calendar(&fresh_bus, 12, calendar);
            assert!(corrupt(
                Bus::new(1, 1).load_state(&mut ByteReader::new(&bytes))
            ));
            // A directory bank's port calendar follows the u32 bank count.
            let bytes = splice_calendar(&fresh_dir, 4, calendar);
            let mut dir = crate::directory::Directory::new(4, 4);
            assert!(corrupt(dir.load_state(&mut ByteReader::new(&bytes))));
        }
    }

    /// The sorted-`Vec` calendar the ring-buffer one replaced, kept
    /// verbatim as the reference model for the differential test below.
    struct VecCalendar {
        occupancy: u64,
        reserved: Vec<u64>,
        horizon: u64,
    }

    impl VecCalendar {
        fn new(occupancy: u64) -> Self {
            VecCalendar {
                occupancy,
                reserved: Vec::new(),
                horizon: 0,
            }
        }

        fn reserve(&mut self, from: u64) -> u64 {
            let c = self.occupancy;
            if from >= self.horizon + c || self.reserved.is_empty() {
                self.reserved.push(from);
                self.horizon = self.horizon.max(from);
                self.maybe_prune();
                return from;
            }
            let mut slot = from;
            let mut end = self.reserved.partition_point(|&r| r < slot + c);
            loop {
                match self.reserved[..end].last().copied() {
                    Some(r) if r + c > slot => {
                        slot = r + c;
                        end += self.reserved[end..].partition_point(|&r| r < slot + c);
                    }
                    _ => break,
                }
            }
            self.reserved.insert(end, slot);
            self.horizon = self.horizon.max(slot);
            self.maybe_prune();
            slot
        }

        fn maybe_prune(&mut self) {
            if self.reserved.len() > 4096 {
                let cutoff = self.horizon.saturating_sub(PRUNE_WINDOW);
                let keep_from = self.reserved.partition_point(|&r| r < cutoff);
                self.reserved.drain(..keep_from);
            }
        }

        fn save_state(&self, w: &mut ByteWriter) {
            w.u64(self.horizon);
            w.u32(self.reserved.len() as u32);
            for &slot in &self.reserved {
                w.u64(slot);
            }
        }
    }

    #[test]
    fn ring_calendar_matches_the_sorted_vec_calendar_step_for_step() {
        use slacksim_core::rng::Xoshiro256;
        // 210K reservations over the three occupancies.
        const STEPS: u64 = 70_000;
        for occupancy in 1..=3u64 {
            let mut rng = Xoshiro256::new(0xCA1E_0000 + occupancy);
            let mut new = SlotCalendar::new(occupancy);
            let mut old = VecCalendar::new(occupancy);
            // The request clock in eighths of a cycle.
            let mut clock8 = 0u64;
            // Mean clock advance per request, in eighths of a cycle. Dense
            // phases keep ~4.8K reservations inside the prune window, so
            // the prune runs on every reservation; sparse ones keep 1.4K-
            // 2.7K, so the 4096-entry trigger decides when it runs.
            let mut mean8 = 0;
            let mut burst_left = 0;
            let mut max_live = 0;
            for step in 0..STEPS {
                if step % 5_000 == 0 {
                    mean8 = [27, 27, 48, 96][rng.next_below(4) as usize];
                }
                if burst_left > 0 {
                    // Same-cycle burst: the clock stands still.
                    burst_left -= 1;
                } else {
                    clock8 += rng.next_below(2 * mean8 + 1);
                    match rng.next_below(2_000) {
                        // Gap: an idle stretch of the bus.
                        0 => clock8 += 8 * rng.next_range(100, 3_000),
                        1..=100 => burst_left = rng.next_range(2, 8),
                        _ => {}
                    }
                }
                let clock = clock8 / 8;
                let from = match rng.next_below(100) {
                    // Straggler behind the prune window.
                    0..=2 => old
                        .horizon
                        .saturating_sub(PRUNE_WINDOW + rng.next_range(0, 3_000)),
                    // Straggler inside the window.
                    3..=8 => old.horizon.saturating_sub(rng.next_below(PRUNE_WINDOW)),
                    _ if burst_left > 0 => clock,
                    // Near-monotone arrival with a little jitter.
                    _ => clock.saturating_sub(rng.next_below(4)),
                };
                let (a, b) = (new.reserve(from), old.reserve(from));
                assert_eq!(a, b, "occupancy {occupancy}, step {step}: reserve({from})");
                assert_eq!(new.reserved.len(), old.reserved.len(), "step {step}");
                assert_eq!(new.horizon, old.horizon, "step {step}");
                max_live = max_live.max(new.reserved.len());
                if step % 10_000 == 9_999 {
                    let (mut wn, mut wo) = (ByteWriter::new(), ByteWriter::new());
                    new.save_state(&mut wn);
                    old.save_state(&mut wo);
                    assert_eq!(wn.into_bytes(), wo.into_bytes(), "step {step}");
                }
            }
            assert!(max_live > 4096, "occupancy {occupancy}: prune never ran");
        }
    }

    #[test]
    fn delta_is_empty_when_clean_and_whole_when_dirty() {
        let mut live = Bus::new(1, 1);
        live.arbitrate(ts(5));
        let mut base = live.clone();
        let gen = live.generation();

        assert!(!live.capture_delta(gen).is_dirty(), "clean since capture");

        live.arbitrate(ts(6));
        live.respond(ts(20));
        let delta = live.capture_delta(gen);
        assert!(delta.is_dirty());
        base.apply_delta(delta);
        assert_eq!(base, live);

        let cp = live.clone();
        let cp_gen = live.generation();
        live.arbitrate(ts(30));
        live.restore_from(&cp, cp_gen);
        assert_eq!(live, cp, "restore rewinds to the checkpoint");
        assert!(live.generation() > cp_gen, "generation is not rewound");
    }
}
