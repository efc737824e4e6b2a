//! The ATM accounting unit — reference model of the paper's case study.
//!
//! "We have used CASTANET for the functional verification of an ATM
//! accounting unit" (§4); the charging-algorithm background is the authors'
//! HLDVT'96 case study (reference \[9\]). The original ASIC is unpublished, so
//! this reference model defines a concrete, hardware-implementable charging
//! algorithm that the RTL twin in `castanet-rtl::dut` reproduces exactly:
//!
//! * per registered connection, every observed cell increments a cell
//!   counter and adds a per-cell tariff `weight` to the charge accumulator;
//! * a periodic *tariff interval* tick adds a `fixed` charge to every
//!   connection that was active (≥ 1 cell) during the elapsed interval and
//!   then re-arms the activity flag;
//! * cells of unregistered connections are counted separately
//!   (`unmatched`), never charged.
//!
//! All arithmetic is unsigned integer, saturating on overflow — exactly
//! what a silicon counter bank does.

use crate::addr::VpiVci;
use crate::error::AtmError;
use std::collections::BTreeMap;
use std::fmt;

/// Charging parameters of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tariff {
    /// Charge units added per conforming cell.
    pub weight: u32,
    /// Charge units added per tariff interval in which the connection was
    /// active.
    pub fixed: u32,
}

impl Tariff {
    /// A purely volume-based tariff.
    #[must_use]
    pub const fn per_cell(weight: u32) -> Self {
        Tariff { weight, fixed: 0 }
    }

    /// A purely time-based tariff.
    #[must_use]
    pub const fn per_interval(fixed: u32) -> Self {
        Tariff { weight: 0, fixed }
    }
}

/// Accumulated accounting state of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccountRecord {
    /// Total cells observed.
    pub cells: u64,
    /// Cells observed since the last interval tick.
    pub cells_this_interval: u64,
    /// Total charge units accumulated.
    pub charge: u64,
    /// Number of intervals in which the connection was active.
    pub active_intervals: u64,
}

/// The accounting unit reference model.
///
/// # Examples
///
/// ```
/// use castanet_atm::accounting::{AccountingUnit, Tariff};
/// use castanet_atm::addr::VpiVci;
///
/// let mut acc = AccountingUnit::new();
/// let conn = VpiVci::uni(1, 42)?;
/// acc.register(conn, Tariff { weight: 2, fixed: 100 })?;
/// acc.on_cell(conn);
/// acc.on_cell(conn);
/// acc.interval_tick();
/// let rec = acc.record(conn).expect("registered");
/// assert_eq!(rec.cells, 2);
/// assert_eq!(rec.charge, 2 * 2 + 100);
/// # Ok::<(), castanet_atm::error::AtmError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct AccountingUnit {
    accounts: BTreeMap<VpiVci, (Tariff, AccountRecord)>,
    unmatched: u64,
    intervals: u64,
}

impl AccountingUnit {
    /// Creates an empty accounting unit.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a connection with its tariff.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::RouteExists`] when the connection is already
    /// registered (re-registration would silently discard charges).
    pub fn register(&mut self, conn: VpiVci, tariff: Tariff) -> Result<(), AtmError> {
        if self.accounts.contains_key(&conn) {
            return Err(AtmError::RouteExists {
                vpi: conn.vpi.value(),
                vci: conn.vci.value(),
            });
        }
        self.accounts
            .insert(conn, (tariff, AccountRecord::default()));
        Ok(())
    }

    /// Deregisters a connection, returning its final record.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::UnknownConnection`] when not registered.
    pub fn deregister(&mut self, conn: VpiVci) -> Result<AccountRecord, AtmError> {
        self.accounts
            .remove(&conn)
            .map(|(_, rec)| rec)
            .ok_or(AtmError::UnknownConnection {
                vpi: conn.vpi.value(),
                vci: conn.vci.value(),
            })
    }

    /// Accounts one observed cell of `conn`. Unregistered connections are
    /// tallied in [`AccountingUnit::unmatched`].
    pub fn on_cell(&mut self, conn: VpiVci) {
        match self.accounts.get_mut(&conn) {
            Some((tariff, rec)) => {
                rec.cells = rec.cells.saturating_add(1);
                rec.cells_this_interval = rec.cells_this_interval.saturating_add(1);
                rec.charge = rec.charge.saturating_add(u64::from(tariff.weight));
            }
            None => self.unmatched = self.unmatched.saturating_add(1),
        }
    }

    /// Applies the periodic tariff tick: every connection active during the
    /// elapsed interval is charged its fixed rate; activity flags reset.
    pub fn interval_tick(&mut self) {
        self.intervals += 1;
        for (tariff, rec) in self.accounts.values_mut() {
            if rec.cells_this_interval > 0 {
                rec.charge = rec.charge.saturating_add(u64::from(tariff.fixed));
                rec.active_intervals += 1;
            }
            rec.cells_this_interval = 0;
        }
    }

    /// The record of a registered connection.
    #[must_use]
    pub fn record(&self, conn: VpiVci) -> Option<AccountRecord> {
        self.accounts.get(&conn).map(|(_, rec)| *rec)
    }

    /// The tariff of a registered connection.
    #[must_use]
    pub fn tariff(&self, conn: VpiVci) -> Option<Tariff> {
        self.accounts.get(&conn).map(|(t, _)| *t)
    }

    /// Cells observed on connections nobody registered.
    #[must_use]
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }

    /// Number of interval ticks applied.
    #[must_use]
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Number of registered connections.
    #[must_use]
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// `true` when no connection is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Iterates `(connection, tariff, record)` in connection order —
    /// the "charging data records" a billing system would collect.
    pub fn iter(&self) -> impl Iterator<Item = (VpiVci, Tariff, AccountRecord)> + '_ {
        self.accounts.iter().map(|(c, (t, r))| (*c, *t, *r))
    }
}

impl fmt::Display for AccountingUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "accounting unit: {} connections, {} intervals, {} unmatched cells",
            self.accounts.len(),
            self.intervals,
            self.unmatched
        )?;
        for (conn, _tariff, rec) in self.iter() {
            writeln!(
                f,
                "  {conn}: {} cells, {} units ({} active intervals)",
                rec.cells, rec.charge, rec.active_intervals
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(vpi: u16, vci: u16) -> VpiVci {
        VpiVci::uni(vpi, vci).unwrap()
    }

    #[test]
    fn volume_charging() {
        let mut acc = AccountingUnit::new();
        acc.register(id(1, 40), Tariff::per_cell(3)).unwrap();
        for _ in 0..7 {
            acc.on_cell(id(1, 40));
        }
        let rec = acc.record(id(1, 40)).unwrap();
        assert_eq!(rec.cells, 7);
        assert_eq!(rec.charge, 21);
        assert_eq!(rec.active_intervals, 0);
    }

    #[test]
    fn interval_charging_only_when_active() {
        let mut acc = AccountingUnit::new();
        acc.register(id(1, 40), Tariff::per_interval(10)).unwrap();
        acc.register(id(1, 41), Tariff::per_interval(10)).unwrap();
        acc.on_cell(id(1, 40));
        acc.interval_tick();
        // Second interval: nobody active.
        acc.interval_tick();
        assert_eq!(acc.record(id(1, 40)).unwrap().charge, 10);
        assert_eq!(acc.record(id(1, 40)).unwrap().active_intervals, 1);
        assert_eq!(acc.record(id(1, 41)).unwrap().charge, 0);
        assert_eq!(acc.intervals(), 2);
    }

    #[test]
    fn mixed_tariff_accumulates_both_parts() {
        let mut acc = AccountingUnit::new();
        acc.register(
            id(2, 50),
            Tariff {
                weight: 1,
                fixed: 5,
            },
        )
        .unwrap();
        for _ in 0..4 {
            acc.on_cell(id(2, 50));
        }
        acc.interval_tick();
        acc.on_cell(id(2, 50));
        acc.interval_tick();
        let rec = acc.record(id(2, 50)).unwrap();
        assert_eq!(rec.cells, 5);
        assert_eq!(rec.charge, 5 + 2 * 5);
        assert_eq!(rec.active_intervals, 2);
    }

    #[test]
    fn interval_resets_activity_window() {
        let mut acc = AccountingUnit::new();
        acc.register(id(1, 40), Tariff::per_cell(1)).unwrap();
        acc.on_cell(id(1, 40));
        assert_eq!(acc.record(id(1, 40)).unwrap().cells_this_interval, 1);
        acc.interval_tick();
        assert_eq!(acc.record(id(1, 40)).unwrap().cells_this_interval, 0);
        assert_eq!(acc.record(id(1, 40)).unwrap().cells, 1);
    }

    #[test]
    fn unmatched_cells_counted_not_charged() {
        let mut acc = AccountingUnit::new();
        acc.register(id(1, 40), Tariff::per_cell(9)).unwrap();
        acc.on_cell(id(1, 41));
        acc.on_cell(id(1, 41));
        assert_eq!(acc.unmatched(), 2);
        assert_eq!(acc.record(id(1, 40)).unwrap().charge, 0);
        assert_eq!(acc.record(id(1, 41)), None);
    }

    #[test]
    fn double_registration_rejected() {
        let mut acc = AccountingUnit::new();
        acc.register(id(1, 40), Tariff::per_cell(1)).unwrap();
        assert!(matches!(
            acc.register(id(1, 40), Tariff::per_cell(2)),
            Err(AtmError::RouteExists { .. })
        ));
        // The original tariff is preserved.
        assert_eq!(acc.tariff(id(1, 40)), Some(Tariff::per_cell(1)));
    }

    #[test]
    fn deregister_returns_final_record() {
        let mut acc = AccountingUnit::new();
        acc.register(id(1, 40), Tariff::per_cell(2)).unwrap();
        acc.on_cell(id(1, 40));
        let rec = acc.deregister(id(1, 40)).unwrap();
        assert_eq!(rec.charge, 2);
        assert!(acc.is_empty());
        assert!(matches!(
            acc.deregister(id(1, 40)),
            Err(AtmError::UnknownConnection { .. })
        ));
    }

    #[test]
    fn iter_is_ordered_by_connection() {
        let mut acc = AccountingUnit::new();
        acc.register(id(2, 1), Tariff::per_cell(1)).unwrap();
        acc.register(id(1, 9), Tariff::per_cell(1)).unwrap();
        let conns: Vec<VpiVci> = acc.iter().map(|(c, _, _)| c).collect();
        assert_eq!(conns, vec![id(1, 9), id(2, 1)]);
    }

    #[test]
    fn display_reports_records() {
        let mut acc = AccountingUnit::new();
        acc.register(id(1, 40), Tariff::per_cell(1)).unwrap();
        acc.on_cell(id(1, 40));
        let s = acc.to_string();
        assert!(s.contains("1 connections"));
        assert!(s.contains("VPI=1/VCI=40: 1 cells, 1 units"));
    }

    #[test]
    fn saturation_instead_of_overflow() {
        let mut acc = AccountingUnit::new();
        acc.register(id(1, 40), Tariff::per_cell(u32::MAX)).unwrap();
        // Force the accumulator close to the limit via direct cells.
        for _ in 0..3 {
            acc.on_cell(id(1, 40));
        }
        // No panic; charge grows monotonically.
        let rec = acc.record(id(1, 40)).unwrap();
        assert_eq!(rec.charge, 3 * u64::from(u32::MAX));
    }
}
