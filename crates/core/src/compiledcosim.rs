//! [`CompiledCosim`]: the name the E1 benchmark still uses for a
//! multi-lane [`CycleCosim`].
//!
//! The benchmark implements one trait for both this type and
//! [`CycleCosim`], so the name cannot be an alias of the follower; it is a
//! newtype that forwards every call and advances nothing itself. The one
//! thing it adds is a record of lane 0's response cells, so
//! [`CompiledCosim::lane_cells`] answers for lane 0 as for every other
//! lane. It goes when the benchmark moves to [`CycleCosim`] (ROADMAP
//! item 7).

use crate::coupling::CoupledSimulator;
use crate::cyclecosim::CycleCosim;
use crate::error::CastanetError;
use crate::message::Message;
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::SimTime;
use castanet_obs::Telemetry;

/// A [`CycleCosim`] that also keeps lane 0's egress cells.
pub struct CompiledCosim {
    inner: CycleCosim,
    /// Per egress line: the cells lane 0 answered with.
    lane0: Vec<Vec<AtmCell>>,
}

impl std::fmt::Debug for CompiledCosim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl CompiledCosim {
    /// Wraps a follower whose lines are registered.
    #[must_use]
    pub fn new(inner: CycleCosim) -> Self {
        CompiledCosim {
            inner,
            lane0: Vec::new(),
        }
    }

    /// See [`CycleCosim::seed_cell`].
    ///
    /// # Errors
    ///
    /// As [`CycleCosim::seed_cell`].
    pub fn seed_cell(
        &mut self,
        lane: usize,
        port: usize,
        stamp: SimTime,
        cell: &AtmCell,
    ) -> Result<(), CastanetError> {
        self.inner.seed_cell(lane, port, stamp, cell)
    }

    /// Every cell lane `lane` emitted on egress line `port` so far, in
    /// emission order — for lane 0, the cells of its responses.
    #[must_use]
    pub fn lane_cells(&self, port: usize, lane: usize) -> &[AtmCell] {
        match lane {
            0 => self.lane0.get(port).map_or(&[], Vec::as_slice),
            _ => self.inner.lane_cells(port, lane),
        }
    }

    /// See [`CycleCosim::lanes`].
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    /// See [`CycleCosim::clocks_evaluated`].
    #[must_use]
    pub fn clocks_evaluated(&self) -> u64 {
        self.inner.clocks_evaluated()
    }

    /// See [`CycleCosim::clocks_skipped`].
    #[must_use]
    pub fn clocks_skipped(&self) -> u64 {
        self.inner.clocks_skipped()
    }

    /// See [`CycleCosim::undecodable`].
    #[must_use]
    pub fn undecodable(&self) -> u64 {
        self.inner.undecodable()
    }

    fn record(&mut self, responses: &[Message]) {
        for m in responses {
            if let Some(cell) = m.as_cell() {
                if self.lane0.len() <= m.port {
                    self.lane0.resize_with(m.port + 1, Vec::new);
                }
                self.lane0[m.port].push(cell.clone());
            }
        }
    }
}

impl CoupledSimulator for CompiledCosim {
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError> {
        self.inner.deliver(msg)
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        let responses = self.inner.advance_until(horizon)?;
        self.record(&responses);
        Ok(responses)
    }

    fn advance_batch(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        let responses = self.inner.advance_batch(horizon)?;
        self.record(&responses);
        Ok(responses)
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn set_telemetry(&mut self, tel: &Telemetry) {
        self.inner.set_telemetry(tel);
    }
}
