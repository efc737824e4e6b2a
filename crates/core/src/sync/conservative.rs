//! The paper's conservative synchronization protocol (§3.1).
//!
//! The protocol couples an *originator* (the network simulator, whose time
//! runs ahead) with a *follower* (the HDL simulator, whose time always
//! lags):
//!
//! * messages of type `j` arrive in time-stamp order into input queue
//!   `I_j`; each carries the originator's current time, so every arrival is
//!   also a time update;
//! * "upon receipt of a message with a time stamp `t_k` for input queue
//!   `I_j` and `t_k > t_cur`, the \[follower\] is allowed to process all
//!   events with a time stamp smaller than `t_k`, but not equal" — the
//!   **grant horizon** is the largest originator stamp seen;
//! * "the message at queue `I_j` remains queued until all other input
//!   queues received messages with time stamp `t_k` …; the local simulation
//!   time is advanced by the minimum of each message type's processing
//!   delay `δ_j`" — a **batch window**: when every queue holds a message at
//!   one common stamp, the follower additionally gains `min_j δ_j` of
//!   processing lookahead beyond it;
//! * the follower's clock never passes the granted horizon, so it always
//!   lags the originator ("the simulated time of the VHDL simulator always
//!   lags behind OPNET's simulated time") and no event can arrive in its
//!   past: **no causality errors, no deadlock**.
//!
//! Deadlock freedom: the grant horizon is monotone non-decreasing in the
//! received stamps, and the originator can always raise it — with a null
//! (time-only) message if it has no data to send — so the follower is never
//! blocked forever while the originator still advances.

use crate::error::CastanetError;
use crate::message::MessageTypeId;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Gauge, Histogram, Telemetry};
use std::collections::VecDeque;

#[derive(Debug)]
struct TypeQueue {
    delta: SimDuration,
    /// Pending message stamps, in arrival (= time) order.
    queue: VecDeque<SimTime>,
    /// Stamp of the most recently received message of this type.
    last_stamp: Option<SimTime>,
    received: u64,
    /// Queue-depth gauge `|I_j|` (a no-op until telemetry is attached).
    depth_gauge: Gauge,
}

/// Statistics of a synchronizer's run, for the E2 comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Messages received (including null messages).
    pub messages: u64,
    /// Null (time-only) messages among them.
    pub null_messages: u64,
    /// Batch windows consumed.
    pub batches: u64,
    /// The largest observed lag of the follower behind the originator.
    pub max_lag: SimDuration,
}

/// The conservative synchronizer, viewed from the follower's side.
///
/// # Examples
///
/// ```
/// use castanet::sync::ConservativeSync;
/// use castanet_netsim::time::{SimDuration, SimTime};
///
/// let mut sync = ConservativeSync::new();
/// let cells = sync.register_type(SimDuration::from_us(2)); // δ = 2 us
/// // Originator sends a cell stamped 10 us.
/// sync.receive(cells, SimTime::from_us(10), false)?;
/// // Follower may now process everything strictly before 10 us.
/// assert_eq!(sync.grant(), SimTime::from_us(10));
/// sync.advance_local(SimTime::from_us(9))?;
/// assert!(sync.local_time() < sync.originator_time());
/// # Ok::<(), castanet::error::CastanetError>(())
/// ```
#[derive(Debug, Default)]
pub struct ConservativeSync {
    types: Vec<TypeQueue>,
    /// The follower's current simulated time `t_cur`.
    local: SimTime,
    /// Largest originator stamp seen across all queues.
    originator: SimTime,
    /// Extra lookahead granted by consumed batch windows.
    batch_grant: SimTime,
    stats: SyncStats,
    /// Telemetry handle lagging gauges/histograms hang off (disabled by
    /// default — see [`ConservativeSync::set_telemetry`]).
    telemetry: Telemetry,
    /// Follower-lag distribution in picoseconds (no-op until attached).
    lag_hist: Histogram,
}

impl ConservativeSync {
    /// Creates a synchronizer with no registered message types.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a message type with its worst-case processing delay
    /// `δ_j` ("for each message type the maximum number of clock cycles …
    /// that it takes to process the message has to be specified by the
    /// user").
    pub fn register_type(&mut self, delta: SimDuration) -> MessageTypeId {
        let id = MessageTypeId(self.types.len() as u32);
        self.types.push(TypeQueue {
            delta,
            queue: VecDeque::new(),
            last_stamp: None,
            received: 0,
            depth_gauge: self
                .telemetry
                .gauge(&format!("sync.queue_depth.type{}", id.0)),
        });
        id
    }

    /// Attaches a telemetry handle: the synchronizer then maintains the
    /// `sync.lag_ps` histogram (follower lag behind the originator, sampled
    /// at every local advance) and one `sync.queue_depth.type<j>` gauge per
    /// registered message type `|I_j|`.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.telemetry = tel.clone();
        self.lag_hist = tel.histogram("sync.lag_ps");
        for (j, tq) in self.types.iter_mut().enumerate() {
            tq.depth_gauge = tel.gauge(&format!("sync.queue_depth.type{j}"));
        }
    }

    /// Number of registered types.
    #[must_use]
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// The processing delay `δ_j` registered for `type_id`, if any.
    #[must_use]
    pub fn type_delta(&self, type_id: MessageTypeId) -> Option<SimDuration> {
        self.types.get(type_id.0 as usize).map(|t| t.delta)
    }

    /// Iterates every registered type with its processing delay `δ_j`, in
    /// registration order. Used by static pre-flight analysis.
    pub fn deltas(&self) -> impl Iterator<Item = (MessageTypeId, SimDuration)> + '_ {
        self.types
            .iter()
            .enumerate()
            .map(|(i, t)| (MessageTypeId(i as u32), t.delta))
    }

    /// The stamp of the most recently received message of `type_id`, if any
    /// message has arrived on that queue yet.
    #[must_use]
    pub fn last_stamp(&self, type_id: MessageTypeId) -> Option<SimTime> {
        self.types
            .get(type_id.0 as usize)
            .and_then(|t| t.last_stamp)
    }

    /// The grant-horizon monotonicity predicate of §3.1, checkable at any
    /// point of a run: the grant dominates every received stamp (horizons
    /// only move forward) and the follower's clock never passes it.
    #[must_use]
    pub fn grant_horizon_monotone(&self) -> bool {
        let grant = self.grant();
        grant >= self.originator
            && self.local <= grant
            && self
                .types
                .iter()
                .filter_map(|t| t.last_stamp)
                .all(|s| s <= grant)
    }

    /// Receives a message of `type_id` stamped `stamp`. Pass
    /// `is_null = true` for pure time updates.
    ///
    /// # Errors
    ///
    /// * [`CastanetError::UnknownMessageType`] for an unregistered type;
    /// * [`CastanetError::Causality`] when the stamp precedes the
    ///   follower's local time or regresses within its queue (messages
    ///   must arrive in time order — the in-order-delivery assumption of
    ///   the protocol).
    pub fn receive(
        &mut self,
        type_id: MessageTypeId,
        stamp: SimTime,
        is_null: bool,
    ) -> Result<(), CastanetError> {
        let idx = type_id.0 as usize;
        let Some(tq) = self.types.get_mut(idx) else {
            return Err(CastanetError::UnknownMessageType { type_id: type_id.0 });
        };
        if stamp < self.local {
            return Err(CastanetError::Causality {
                stamp,
                local: self.local,
            });
        }
        if let Some(last) = tq.last_stamp {
            if stamp < last {
                return Err(CastanetError::Causality { stamp, local: last });
            }
        }
        tq.last_stamp = Some(stamp);
        tq.received += 1;
        if !is_null {
            tq.queue.push_back(stamp);
            tq.depth_gauge.set(tq.queue.len() as u64);
        }
        self.stats.messages += 1;
        if is_null {
            self.stats.null_messages += 1;
        }
        self.originator = self.originator.max(stamp);
        Ok(())
    }

    /// The horizon (exclusive) up to which the follower may process local
    /// events: the largest originator stamp seen, extended by any consumed
    /// batch windows.
    #[must_use]
    pub fn grant(&self) -> SimTime {
        self.originator.max(self.batch_grant)
    }

    /// Checks the batch condition: every queue non-empty with a common head
    /// stamp `t_k`. If so, consumes one message per queue and extends the
    /// grant to `t_k + min_j δ_j`, returning `(t_k, new grant)`.
    pub fn try_consume_batch(&mut self) -> Option<(SimTime, SimTime)> {
        if self.types.is_empty() {
            return None;
        }
        let head = self.types[0].queue.front().copied()?;
        for tq in &self.types[1..] {
            if tq.queue.front().copied() != Some(head) {
                return None;
            }
        }
        let min_delta = self
            .types
            .iter()
            .map(|t| t.delta)
            .min()
            .expect("at least one type");
        for tq in &mut self.types {
            tq.queue.pop_front();
            tq.depth_gauge.set(tq.queue.len() as u64);
        }
        let new_grant = head + min_delta;
        self.batch_grant = self.batch_grant.max(new_grant);
        self.stats.batches += 1;
        Some((head, self.grant()))
    }

    /// Pops the head of one queue once the grant covers it, handing the
    /// stamp to the follower for processing. Returns `None` while the head
    /// is still blocked (`stamp >= grant` and no batch window covers it).
    pub fn pop_ready(&mut self, type_id: MessageTypeId) -> Option<SimTime> {
        let grant = self.grant();
        let tq = self.types.get_mut(type_id.0 as usize)?;
        match tq.queue.front() {
            Some(&s) if s < grant => {
                let popped = tq.queue.pop_front();
                tq.depth_gauge.set(tq.queue.len() as u64);
                popped
            }
            _ => None,
        }
    }

    /// Advances the follower's clock. `t` must not pass the grant horizon.
    ///
    /// # Errors
    ///
    /// Returns [`CastanetError::Causality`] when `t` exceeds the grant or
    /// runs backwards — either would break the lag invariant.
    pub fn advance_local(&mut self, t: SimTime) -> Result<(), CastanetError> {
        if t > self.grant() || t < self.local {
            return Err(CastanetError::Causality {
                stamp: t,
                local: self.local,
            });
        }
        self.local = t;
        if let Some(lag) = self.originator.checked_duration_since(t) {
            self.stats.max_lag = self.stats.max_lag.max(lag);
            self.lag_hist.record(lag.as_picos());
        }
        Ok(())
    }

    /// The follower's current time `t_cur`.
    #[must_use]
    pub fn local_time(&self) -> SimTime {
        self.local
    }

    /// The originator's last known time.
    #[must_use]
    pub fn originator_time(&self) -> SimTime {
        self.originator
    }

    /// Messages still queued for `type_id`.
    #[must_use]
    pub fn queued(&self, type_id: MessageTypeId) -> usize {
        self.types
            .get(type_id.0 as usize)
            .map_or(0, |t| t.queue.len())
    }

    /// Run statistics.
    #[must_use]
    pub fn stats(&self) -> SyncStats {
        self.stats
    }

    /// The lag invariant the paper relies on: the follower never runs ahead
    /// of the originator's last known time (its clock may equal the grant,
    /// which includes processing lookahead, but never exceeds it).
    #[must_use]
    pub fn lag_invariant_holds(&self) -> bool {
        self.local <= self.grant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_us(n)
    }

    #[test]
    fn grant_follows_latest_stamp() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::from_us(1));
        assert_eq!(s.grant(), SimTime::ZERO);
        s.receive(a, us(10), false).unwrap();
        assert_eq!(s.grant(), us(10));
        s.receive(a, us(15), false).unwrap();
        assert_eq!(s.grant(), us(15));
    }

    #[test]
    fn local_cannot_pass_grant() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::from_us(1));
        s.receive(a, us(10), false).unwrap();
        s.advance_local(us(10)).unwrap(); // up to the grant is fine
        let err = s.advance_local(us(11)).unwrap_err();
        assert!(matches!(err, CastanetError::Causality { .. }));
        assert!(s.lag_invariant_holds());
    }

    #[test]
    fn local_cannot_run_backwards() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::ZERO);
        s.receive(a, us(10), false).unwrap();
        s.advance_local(us(5)).unwrap();
        assert!(s.advance_local(us(3)).is_err());
    }

    #[test]
    fn stale_message_is_a_causality_error() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::ZERO);
        s.receive(a, us(10), false).unwrap();
        s.advance_local(us(8)).unwrap();
        let err = s.receive(a, us(5), false).unwrap_err();
        assert!(matches!(err, CastanetError::Causality { .. }));
    }

    #[test]
    fn per_queue_order_enforced() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::ZERO);
        let b = s.register_type(SimDuration::ZERO);
        s.receive(a, us(10), false).unwrap();
        // Another queue may be behind the first (different streams)...
        s.receive(b, us(7), false).unwrap();
        // ...but within one queue stamps must not regress.
        assert!(s.receive(a, us(9), false).is_err());
    }

    #[test]
    fn unknown_type_rejected() {
        let mut s = ConservativeSync::new();
        assert!(matches!(
            s.receive(MessageTypeId(0), us(1), false),
            Err(CastanetError::UnknownMessageType { type_id: 0 })
        ));
    }

    #[test]
    fn batch_window_adds_min_delta() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::from_us(3));
        let b = s.register_type(SimDuration::from_us(5));
        s.receive(a, us(10), false).unwrap();
        assert_eq!(s.try_consume_batch(), None, "queue b still empty");
        s.receive(b, us(10), false).unwrap();
        let (stamp, grant) = s.try_consume_batch().unwrap();
        assert_eq!(stamp, us(10));
        assert_eq!(grant, us(13), "10 us + min(3,5) us");
        // The batch consumed one message per queue.
        assert_eq!(s.queued(a), 0);
        assert_eq!(s.queued(b), 0);
        // Local may now advance into the batch window.
        s.advance_local(us(12)).unwrap();
        assert!(s.lag_invariant_holds());
    }

    #[test]
    fn mismatched_heads_do_not_batch() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::from_us(1));
        let b = s.register_type(SimDuration::from_us(1));
        s.receive(a, us(10), false).unwrap();
        s.receive(b, us(11), false).unwrap();
        assert_eq!(s.try_consume_batch(), None);
        assert_eq!(s.queued(a), 1);
    }

    #[test]
    fn null_messages_advance_time_without_queueing() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::from_us(1));
        s.receive(a, us(20), true).unwrap();
        assert_eq!(s.grant(), us(20));
        assert_eq!(s.queued(a), 0);
        assert_eq!(s.stats().null_messages, 1);
    }

    #[test]
    fn pop_ready_respects_grant() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::from_us(1));
        s.receive(a, us(10), false).unwrap();
        // Head stamp == grant: blocked ("smaller than t_k, but not equal").
        assert_eq!(s.pop_ready(a), None);
        s.receive(a, us(12), true).unwrap(); // null raises the grant
        assert_eq!(s.pop_ready(a), Some(us(10)));
        assert_eq!(s.pop_ready(a), None);
    }

    #[test]
    fn lag_statistics() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::ZERO);
        s.receive(a, us(100), false).unwrap();
        s.advance_local(us(40)).unwrap();
        assert_eq!(s.stats().max_lag, SimDuration::from_us(60));
        s.advance_local(us(95)).unwrap();
        assert_eq!(s.stats().max_lag, SimDuration::from_us(60), "max is sticky");
        assert_eq!(s.stats().messages, 1);
    }

    #[test]
    fn telemetry_tracks_lag_and_queue_depth() {
        let tel = Telemetry::enabled();
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::ZERO);
        s.set_telemetry(&tel);
        s.receive(a, us(100), false).unwrap();
        s.advance_local(us(40)).unwrap();
        let snap = tel.metrics_snapshot();
        assert_eq!(snap.gauge("sync.queue_depth.type0"), Some(1));
        let lag = snap.histogram("sync.lag_ps").unwrap();
        assert_eq!(lag.count, 1);
        assert_eq!(lag.max, SimDuration::from_us(60).as_picos());
        // Types registered *after* attach get live gauges too.
        let b = s.register_type(SimDuration::ZERO);
        s.receive(b, us(100), false).unwrap();
        assert_eq!(
            tel.metrics_snapshot().gauge("sync.queue_depth.type1"),
            Some(1)
        );
    }

    /// A randomized schedule can never produce a causality error or break
    /// the lag invariant when the follower obeys grants — the property the
    /// protocol exists to guarantee.
    #[test]
    fn randomized_schedule_preserves_invariants() {
        let mut s = ConservativeSync::new();
        let types: Vec<MessageTypeId> = (0..4)
            .map(|i| s.register_type(SimDuration::from_us(1 + i)))
            .collect();
        let mut x: u64 = 0x9E37_79B9;
        let mut stamps = [SimTime::ZERO; 4];
        let mut originator = SimTime::ZERO;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % 4) as usize;
            originator += SimDuration::from_ns(x % 500);
            stamps[j] = stamps[j].max(originator);
            s.receive(types[j], stamps[j], x.is_multiple_of(5)).unwrap();
            // The follower chases the originator's time (it does not run
            // into batch lookahead windows, because this workload gives no
            // spacing guarantee between messages).
            let target = s.originator_time();
            s.advance_local(target).unwrap();
            assert!(s.lag_invariant_holds());
        }
        assert!(s.stats().messages == 10_000);
    }
}
