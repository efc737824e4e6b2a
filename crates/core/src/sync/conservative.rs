//! The paper's conservative synchronization protocol (§3.1).
//!
//! The protocol couples an *originator* (the network simulator, whose time
//! runs ahead) with a *follower* (the HDL simulator, whose time always
//! lags). The paper describes three parts — per-type input queues `I_j`,
//! per-type processing delays `δ_j` and a batch window — and both
//! executors run the **grant-horizon** part of it:
//!
//! * every message of type `j` carries the originator's current time, so
//!   every arrival is also a time update, and stamps of one type arrive in
//!   time order;
//! * "upon receipt of a message with a time stamp `t_k` for input queue
//!   `I_j` and `t_k > t_cur`, the \[follower\] is allowed to process all
//!   events with a time stamp smaller than `t_k`, but not equal" — the
//!   grant horizon is the largest originator stamp received;
//! * the **promise** rule: when the originator has no stimulus to send, it
//!   raises the grant with a null (time-only) message — sent only when it
//!   raises the grant ([`ConservativeSync::promise`]);
//! * the **settle** rule: after an advance the follower's local time moves
//!   to its clock, never backwards and never past the grant
//!   ([`ConservativeSync::settle`]), so it always lags the originator
//!   ("the simulated time of the VHDL simulator always lags behind OPNET's
//!   simulated time") and no event can arrive in its past: **no causality
//!   errors, no deadlock**.
//!
//! The follower consumes each message as soon as it arrives, so no queue
//! holds it: per type only `δ_j` and the last stamp are kept, for the
//! in-order check. `δ_j` is the parallel executor's window headroom. The
//! batch window ("the local simulation time is advanced by the minimum of
//! each message type's processing delay `δ_j`" once every queue holds a
//! message at one stamp) is not implemented: E1 sends one message type, and
//! E6 pokes its tariff ticks into the DUT before the run, so it could never
//! fire.
//!
//! Deadlock freedom: the grant horizon is monotone non-decreasing in the
//! received stamps, and the originator can always raise it — with a null
//! message if it has no data to send — so the follower is never blocked
//! forever while the originator still advances.

use crate::error::CastanetError;
use crate::message::MessageTypeId;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Histogram, Telemetry};

/// One registered message type: its processing delay and in-order state.
#[derive(Debug)]
struct TypeState {
    delta: SimDuration,
    /// Stamp of the most recently received message of this type.
    last_stamp: Option<SimTime>,
}

/// Statistics of a synchronizer's run, for the E2 comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Messages received (including null messages).
    pub messages: u64,
    /// Null (time-only) messages among them.
    pub null_messages: u64,
    /// Batch windows consumed: always 0, since the batch window is not
    /// implemented (see the module docs). Kept because the E1 benchmark
    /// package reports it.
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
/// // A promise the grant already covers costs no null message.
/// assert!(!sync.promise(cells, SimTime::from_us(10))?);
/// // The follower's clock reached 9 us: local time settles there.
/// sync.settle(SimTime::from_us(9));
/// assert!(sync.local_time() < sync.originator_time());
/// # Ok::<(), castanet::error::CastanetError>(())
/// ```
#[derive(Debug, Default)]
pub struct ConservativeSync {
    types: Vec<TypeState>,
    /// The follower's current simulated time `t_cur`.
    local: SimTime,
    /// Largest originator stamp received: the grant horizon.
    originator: SimTime,
    stats: SyncStats,
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
        self.types.push(TypeState {
            delta,
            last_stamp: None,
        });
        id
    }

    /// Attaches a telemetry handle: the synchronizer then maintains the
    /// `sync.lag_ps` histogram (follower lag behind the originator, sampled
    /// at every local advance).
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.lag_hist = tel.histogram("sync.lag_ps");
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
    /// message of that type has arrived yet.
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
        self.local <= grant
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
    ///   follower's local time or regresses within its type (messages
    ///   must arrive in time order — the in-order-delivery assumption of
    ///   the protocol).
    pub fn receive(
        &mut self,
        type_id: MessageTypeId,
        stamp: SimTime,
        is_null: bool,
    ) -> Result<(), CastanetError> {
        let Some(ts) = self.types.get_mut(type_id.0 as usize) else {
            return Err(CastanetError::UnknownMessageType { type_id: type_id.0 });
        };
        if stamp < self.local {
            return Err(CastanetError::Causality {
                stamp,
                local: self.local,
            });
        }
        if let Some(last) = ts.last_stamp {
            if stamp < last {
                return Err(CastanetError::Causality { stamp, local: last });
            }
        }
        ts.last_stamp = Some(stamp);
        self.stats.messages += 1;
        if is_null {
            self.stats.null_messages += 1;
        }
        self.originator = self.originator.max(stamp);
        Ok(())
    }

    /// The horizon (exclusive) up to which the follower may process local
    /// events: the largest originator stamp received.
    #[must_use]
    pub fn grant(&self) -> SimTime {
        self.originator
    }

    /// The promise rule: the originator declares that no stimulus of
    /// `type_id` comes before `horizon`. A null message stamped `horizon`
    /// is received only when that raises the grant; a promise at or below
    /// the grant is already implied and sends and counts nothing. Returns
    /// whether a null message was sent.
    ///
    /// # Errors
    ///
    /// As [`ConservativeSync::receive`], for the null message.
    pub fn promise(
        &mut self,
        type_id: MessageTypeId,
        horizon: SimTime,
    ) -> Result<bool, CastanetError> {
        if horizon <= self.grant() {
            return Ok(false);
        }
        self.receive(type_id, horizon, true)?;
        Ok(true)
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
        self.set_local(t);
        Ok(())
    }

    /// The settle rule: after an advance, local time moves to the
    /// follower's clock `follower_now`, clamped to `[local, grant]` — never
    /// backwards, never past the grant.
    pub fn settle(&mut self, follower_now: SimTime) {
        self.set_local(follower_now.max(self.local).min(self.grant()));
    }

    fn set_local(&mut self, t: SimTime) {
        self.local = t;
        if let Some(lag) = self.originator.checked_duration_since(t) {
            self.stats.max_lag = self.stats.max_lag.max(lag);
            self.lag_hist.record(lag.as_picos());
        }
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

    /// Run statistics.
    #[must_use]
    pub fn stats(&self) -> SyncStats {
        self.stats
    }

    /// The lag invariant the paper relies on: the follower never runs ahead
    /// of the originator's last known time (its clock may equal the grant,
    /// but never exceeds it).
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
        // Another type may be behind the first (different streams)...
        s.receive(b, us(7), false).unwrap();
        // ...but within one type stamps must not regress.
        assert!(s.receive(a, us(9), false).is_err());
    }

    #[test]
    fn unknown_type_rejected() {
        let mut s = ConservativeSync::new();
        assert!(matches!(
            s.receive(MessageTypeId(0), us(1), false),
            Err(CastanetError::UnknownMessageType { type_id: 0 })
        ));
        assert!(matches!(
            s.promise(MessageTypeId(0), us(1)),
            Err(CastanetError::UnknownMessageType { type_id: 0 })
        ));
    }

    #[test]
    fn null_messages_raise_the_grant() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::from_us(1));
        s.receive(a, us(20), true).unwrap();
        assert_eq!(s.grant(), us(20));
        assert_eq!(s.stats().null_messages, 1);
    }

    #[test]
    fn a_promise_at_or_below_the_grant_sends_and_counts_nothing() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::from_us(1));
        s.receive(a, us(10), false).unwrap();
        assert!(!s.promise(a, us(10)).unwrap(), "equal to the grant");
        assert!(!s.promise(a, us(4)).unwrap(), "below the grant");
        assert_eq!((s.stats().messages, s.stats().null_messages), (1, 0));
        assert_eq!(s.last_stamp(a), Some(us(10)));
        assert!(s.promise(a, us(12)).unwrap(), "raises the grant");
        assert_eq!(s.grant(), us(12));
        assert_eq!((s.stats().messages, s.stats().null_messages), (2, 1));
    }

    #[test]
    fn settle_never_moves_local_time_backwards_or_past_the_grant() {
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::ZERO);
        s.receive(a, us(10), false).unwrap();
        s.settle(us(6));
        assert_eq!(s.local_time(), us(6));
        s.settle(us(3)); // a follower clock behind local time
        assert_eq!(s.local_time(), us(6));
        s.settle(us(25)); // a follower clock past the grant
        assert_eq!(s.local_time(), us(10));
        assert_eq!(s.stats().max_lag, SimDuration::from_us(4));
        assert!(s.grant_horizon_monotone());
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
    fn telemetry_tracks_lag() {
        let tel = Telemetry::enabled();
        let mut s = ConservativeSync::new();
        let a = s.register_type(SimDuration::ZERO);
        s.set_telemetry(&tel);
        s.receive(a, us(100), false).unwrap();
        s.advance_local(us(40)).unwrap();
        let snap = tel.metrics_snapshot();
        let lag = snap.histogram("sync.lag_ps").unwrap();
        assert_eq!(lag.count, 1);
        assert_eq!(lag.max, SimDuration::from_us(60).as_picos());
    }

    /// A randomized schedule of stimulus, promises and follower clocks can
    /// never produce a causality error or break the lag invariant when the
    /// follower goes through the promise and settle rules — the property
    /// the protocol exists to guarantee.
    #[test]
    fn randomized_schedule_preserves_invariants() {
        let mut s = ConservativeSync::new();
        let types: Vec<MessageTypeId> = (0..4)
            .map(|i| s.register_type(SimDuration::from_us(1 + i)))
            .collect();
        let mut x: u64 = 0x9E37_79B9;
        let mut stamps = [SimTime::ZERO; 4];
        let mut originator = SimTime::ZERO;
        let (mut data, mut nulls) = (0, 0);
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % 4) as usize;
            originator += SimDuration::from_ns(x % 500);
            stamps[j] = stamps[j].max(originator);
            let (grant, local) = (s.grant(), s.local_time());
            if x.is_multiple_of(5) {
                let sent = s.promise(types[j], stamps[j]).unwrap();
                assert_eq!(sent, stamps[j] > grant);
                nulls += u64::from(sent);
            } else {
                s.receive(types[j], stamps[j], false).unwrap();
                data += 1;
            }
            // The follower's clock lands anywhere around the grant: short
            // of it, on it, or past it.
            let ps = s.grant().as_picos() + (x % 300) * 1_000;
            let follower = SimTime::from_picos(ps.saturating_sub((x >> 9) % 700 * 1_000));
            s.settle(follower);
            assert!(s.local_time() >= local, "settle ran backwards");
            assert!(s.grant() >= grant, "the grant regressed");
            assert!(s.lag_invariant_holds());
            assert!(s.grant_horizon_monotone());
        }
        assert_eq!(s.stats().null_messages, nulls);
        assert_eq!(s.stats().messages, data + nulls);
    }
}
