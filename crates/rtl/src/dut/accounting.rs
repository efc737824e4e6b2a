//! The RTL accounting unit — clock-level twin of the §4 case study.
//!
//! Functionally identical to [`castanet_atm::accounting::AccountingUnit`]:
//! per-connection cell counters and charge accumulators (per-cell `weight`
//! plus per-active-interval `fixed`), driven byte-serially from the Fig. 4
//! interface. Cells with a bad HEC are not accounted (the reference model
//! never sees them either: the network simulator does not generate them).
//! The table is a bounded CAM, as silicon would have.

use crate::cycle::{CycleDut, PortDecl};
use castanet_atm::cell::CELL_OCTETS;
use castanet_atm::hec;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, Default)]
struct Account {
    weight: u16,
    fixed: u16,
    cells: u32,
    cells_this_interval: u32,
    charge: u32,
    active_intervals: u32,
}

/// Pin-level accounting unit.
///
/// Inputs (in `clock_edge` order):
/// 1. `atmdata` (8), `cellsync` (1), `enable` (1) — the observed cell
///    stream;
/// 2. `tick` (1) — tariff-interval strobe;
/// 3. `cfg_valid` (1), `cfg_vpi` (8), `cfg_vci` (16), `cfg_weight` (16),
///    `cfg_fixed` (16) — connection registration;
/// 4. `rd_valid` (1), `rd_vpi` (8), `rd_vci` (16) — record readback select.
///
/// Outputs:
/// 1. `rd_found` (1), `rd_cells` (32), `rd_charge` (32) — readback of the
///    selected record (registered, valid the cycle after `rd_valid`);
/// 2. `unmatched` (32) — cells on unregistered connections;
/// 3. `table_count` (8) — registered connections;
/// 4. `cfg_full` (1) — last registration was refused (table full).
#[derive(Debug, Clone)]
pub struct AccountingUnitRtl {
    capacity: usize,
    shift: [u8; CELL_OCTETS],
    index: usize,
    in_cell: bool,
    table: HashMap<(u8, u16), Account>,
    unmatched: u32,
    cfg_full: bool,
    rd_found: bool,
    rd_cells: u32,
    rd_charge: u32,
    hec_errors: u32,
}

impl AccountingUnitRtl {
    /// Creates a unit with a table of `capacity` connections.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds 255 (the `table_count`
    /// output width).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!((1..=255).contains(&capacity), "capacity must be 1..=255");
        AccountingUnitRtl {
            capacity,
            shift: [0; CELL_OCTETS],
            index: 0,
            in_cell: false,
            table: HashMap::new(),
            unmatched: 0,
            cfg_full: false,
            rd_found: false,
            rd_cells: 0,
            rd_charge: 0,
            hec_errors: 0,
        }
    }

    /// Model-level connection registration (the pin path is the `cfg_*`
    /// port). Returns `false` when the table is full or the connection is
    /// already registered.
    pub fn register(&mut self, vpi: u8, vci: u16, weight: u16, fixed: u16) -> bool {
        let key = (vpi, vci);
        if self.table.contains_key(&key) {
            return false;
        }
        if self.table.len() >= self.capacity {
            return false;
        }
        self.table.insert(
            key,
            Account {
                weight,
                fixed,
                ..Account::default()
            },
        );
        true
    }

    /// Model-level record access for equivalence checks.
    #[must_use]
    pub fn record(&self, vpi: u8, vci: u16) -> Option<(u32, u32, u32)> {
        self.table
            .get(&(vpi, vci))
            .map(|a| (a.cells, a.charge, a.active_intervals))
    }

    /// Cells observed on unregistered connections.
    #[must_use]
    pub fn unmatched(&self) -> u32 {
        self.unmatched
    }

    /// Cells dropped for HEC errors.
    #[must_use]
    pub fn hec_errors(&self) -> u32 {
        self.hec_errors
    }

    fn account_cell(&mut self, cell: [u8; CELL_OCTETS]) {
        if !hec::check(&cell[..5]) {
            self.hec_errors = self.hec_errors.wrapping_add(1);
            return;
        }
        let vpi = (cell[0] << 4) | (cell[1] >> 4);
        let vci =
            (u16::from(cell[1] & 0x0F) << 12) | (u16::from(cell[2]) << 4) | u16::from(cell[3] >> 4);
        match self.table.get_mut(&(vpi, vci)) {
            Some(a) => {
                a.cells = a.cells.saturating_add(1);
                a.cells_this_interval = a.cells_this_interval.saturating_add(1);
                a.charge = a.charge.saturating_add(u32::from(a.weight));
            }
            None => self.unmatched = self.unmatched.saturating_add(1),
        }
    }
}

impl CycleDut for AccountingUnitRtl {
    fn input_ports(&self) -> Vec<PortDecl> {
        vec![
            PortDecl::new("atmdata", 8),
            PortDecl::new("cellsync", 1),
            PortDecl::new("enable", 1),
            PortDecl::new("tick", 1),
            PortDecl::new("cfg_valid", 1),
            PortDecl::new("cfg_vpi", 8),
            PortDecl::new("cfg_vci", 16),
            PortDecl::new("cfg_weight", 16),
            PortDecl::new("cfg_fixed", 16),
            PortDecl::new("rd_valid", 1),
            PortDecl::new("rd_vpi", 8),
            PortDecl::new("rd_vci", 16),
        ]
    }

    fn output_ports(&self) -> Vec<PortDecl> {
        vec![
            PortDecl::new("rd_found", 1),
            PortDecl::new("rd_cells", 32),
            PortDecl::new("rd_charge", 32),
            PortDecl::new("unmatched", 32),
            PortDecl::new("table_count", 8),
            PortDecl::new("cfg_full", 1),
        ]
    }

    fn reset(&mut self) {
        let cap = self.capacity.max(1);
        *self = AccountingUnitRtl::new(cap);
    }

    fn is_idle(&self) -> bool {
        // Charging state persists, but absent input bytes nothing changes:
        // clocks may be skipped whenever no cell is mid-reception.
        !self.in_cell
    }

    fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        let data = inputs[0] as u8;
        let sync = inputs[1] == 1;
        let enable = inputs[2] == 1;
        let tick = inputs[3] == 1;
        let cfg_valid = inputs[4] == 1;
        let rd_valid = inputs[9] == 1;

        if cfg_valid {
            let key = (inputs[5] as u8, inputs[6] as u16);
            if self.table.len() >= self.capacity && !self.table.contains_key(&key) {
                self.cfg_full = true;
            } else {
                self.cfg_full = false;
                self.table.entry(key).or_insert(Account {
                    weight: inputs[7] as u16,
                    fixed: inputs[8] as u16,
                    ..Account::default()
                });
            }
        }

        if enable {
            if sync {
                self.index = 0;
                self.in_cell = true;
            }
            if self.in_cell {
                self.shift[self.index] = data;
                self.index += 1;
                if self.index == CELL_OCTETS {
                    self.index = 0;
                    self.in_cell = false;
                    let cell = self.shift;
                    self.account_cell(cell);
                }
            }
        }

        if tick {
            for a in self.table.values_mut() {
                if a.cells_this_interval > 0 {
                    a.charge = a.charge.saturating_add(u32::from(a.fixed));
                    a.active_intervals = a.active_intervals.saturating_add(1);
                }
                a.cells_this_interval = 0;
            }
        }

        if rd_valid {
            if let Some(a) = self.table.get(&(inputs[10] as u8, inputs[11] as u16)) {
                self.rd_found = true;
                self.rd_cells = a.cells;
                self.rd_charge = a.charge;
            } else {
                self.rd_found = false;
                self.rd_cells = 0;
                self.rd_charge = 0;
            }
        }

        outputs.copy_from_slice(&[
            u64::from(self.rd_found),
            u64::from(self.rd_cells),
            u64::from(self.rd_charge),
            u64::from(self.unmatched),
            self.table.len() as u64,
            u64::from(self.cfg_full),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::CycleSim;
    use castanet_atm::accounting::{AccountingUnit, Tariff};
    use castanet_atm::addr::{HeaderFormat, VpiVci};
    use castanet_atm::cell::AtmCell;

    const N_IN: usize = 12;

    fn wire_cell(vpi: u16, vci: u16) -> [u8; CELL_OCTETS] {
        AtmCell::user_data(VpiVci::uni(vpi, vci).unwrap(), [0x33; 48])
            .encode(HeaderFormat::Uni)
            .unwrap()
    }

    fn idle() -> Vec<u64> {
        vec![0u64; N_IN]
    }

    fn register(sim: &mut CycleSim, vpi: u8, vci: u16, weight: u16, fixed: u16) -> Vec<u64> {
        let mut inp = idle();
        inp[4] = 1;
        inp[5] = u64::from(vpi);
        inp[6] = u64::from(vci);
        inp[7] = u64::from(weight);
        inp[8] = u64::from(fixed);
        sim.step(&inp).unwrap().to_vec()
    }

    fn stream_cell(sim: &mut CycleSim, cell: &[u8; CELL_OCTETS]) {
        for (i, &b) in cell.iter().enumerate() {
            let mut inp = idle();
            inp[0] = u64::from(b);
            inp[1] = u64::from(i == 0);
            inp[2] = 1;
            sim.step(&inp).unwrap();
        }
    }

    fn tick(sim: &mut CycleSim) {
        let mut inp = idle();
        inp[3] = 1;
        sim.step(&inp).unwrap();
    }

    fn read_record(sim: &mut CycleSim, vpi: u8, vci: u16) -> (bool, u32, u32) {
        let mut inp = idle();
        inp[9] = 1;
        inp[10] = u64::from(vpi);
        inp[11] = u64::from(vci);
        let out = sim.step(&inp).unwrap();
        (out[0] == 1, out[1] as u32, out[2] as u32)
    }

    #[test]
    fn charges_per_cell_and_per_interval() {
        let mut sim = CycleSim::new(Box::new(AccountingUnitRtl::new(16)));
        register(&mut sim, 1, 40, 2, 100);
        let cell = wire_cell(1, 40);
        stream_cell(&mut sim, &cell);
        stream_cell(&mut sim, &cell);
        tick(&mut sim);
        let (found, cells, charge) = read_record(&mut sim, 1, 40);
        assert!(found);
        assert_eq!(cells, 2);
        assert_eq!(charge, 2 * 2 + 100);
    }

    #[test]
    fn idle_interval_not_charged() {
        let mut sim = CycleSim::new(Box::new(AccountingUnitRtl::new(16)));
        register(&mut sim, 1, 40, 0, 50);
        stream_cell(&mut sim, &wire_cell(1, 40));
        tick(&mut sim);
        tick(&mut sim); // no traffic in this interval
        let (_, _, charge) = read_record(&mut sim, 1, 40);
        assert_eq!(charge, 50);
    }

    #[test]
    fn unmatched_cells_counted() {
        let mut sim = CycleSim::new(Box::new(AccountingUnitRtl::new(16)));
        register(&mut sim, 1, 40, 1, 0);
        stream_cell(&mut sim, &wire_cell(9, 99));
        let out = sim.step(&idle()).unwrap();
        assert_eq!(out[3], 1);
        let (found, ..) = read_record(&mut sim, 9, 99);
        assert!(!found);
    }

    #[test]
    fn hec_corrupt_cells_not_accounted() {
        let mut sim = CycleSim::new(Box::new(AccountingUnitRtl::new(16)));
        register(&mut sim, 1, 40, 1, 0);
        let mut cell = wire_cell(1, 40);
        cell[0] ^= 0x08;
        stream_cell(&mut sim, &cell);
        let (_, cells, _) = read_record(&mut sim, 1, 40);
        assert_eq!(cells, 0);
        let out = sim.step(&idle()).unwrap();
        assert_eq!(out[3], 0, "hec errors are not 'unmatched'");
    }

    #[test]
    fn table_capacity_and_cfg_full_flag() {
        let mut sim = CycleSim::new(Box::new(AccountingUnitRtl::new(2)));
        let o1 = register(&mut sim, 1, 1, 1, 1);
        assert_eq!(o1[5], 0);
        register(&mut sim, 1, 2, 1, 1);
        let o3 = register(&mut sim, 1, 3, 1, 1);
        assert_eq!(o3[5], 1, "cfg_full raised");
        assert_eq!(o3[4], 2, "table_count capped");
    }

    #[test]
    fn duplicate_registration_keeps_original_tariff() {
        let mut sim = CycleSim::new(Box::new(AccountingUnitRtl::new(4)));
        register(&mut sim, 1, 40, 5, 0);
        register(&mut sim, 1, 40, 99, 0); // ignored
        stream_cell(&mut sim, &wire_cell(1, 40));
        let (_, _, charge) = read_record(&mut sim, 1, 40);
        assert_eq!(charge, 5);
    }

    /// The key co-verification property: the RTL twin matches the algorithm
    /// reference model over a randomized workload.
    #[test]
    fn matches_reference_model_over_random_workload() {
        let mut reference = AccountingUnit::new();
        let mut sim = CycleSim::new(Box::new(AccountingUnitRtl::new(32)));
        let conns: Vec<(u8, u16, u16, u16)> =
            vec![(1, 40, 2, 10), (1, 41, 1, 0), (2, 50, 0, 25), (3, 60, 7, 3)];
        for &(vpi, vci, w, f) in &conns {
            reference
                .register(
                    VpiVci::uni(u16::from(vpi), vci).unwrap(),
                    Tariff {
                        weight: u32::from(w),
                        fixed: u32::from(f),
                    },
                )
                .unwrap();
            register(&mut sim, vpi, vci, w, f);
        }
        // Deterministic pseudo-random workload: 400 cells + 10 ticks.
        let mut x: u64 = 0x1234_5678;
        for step in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pick = (x % 5) as usize; // 4 known conns + 1 unknown
            let (vpi, vci) = if pick < 4 {
                (conns[pick].0, conns[pick].1)
            } else {
                (200, 200)
            };
            reference.on_cell(VpiVci::uni(u16::from(vpi), vci).unwrap());
            stream_cell(&mut sim, &wire_cell(u16::from(vpi), vci));
            if step % 40 == 39 {
                reference.interval_tick();
                tick(&mut sim);
            }
        }
        for &(vpi, vci, ..) in &conns {
            let r = reference
                .record(VpiVci::uni(u16::from(vpi), vci).unwrap())
                .unwrap();
            let (found, cells, charge) = read_record(&mut sim, vpi, vci);
            assert!(found);
            assert_eq!(u64::from(cells), r.cells, "{vpi}/{vci} cells");
            assert_eq!(u64::from(charge), r.charge, "{vpi}/{vci} charge");
        }
        let out = sim.step(&idle()).unwrap();
        assert_eq!(out[3], reference.unmatched());
    }

    #[test]
    #[should_panic(expected = "capacity must be 1..=255")]
    fn zero_capacity_panics() {
        let _ = AccountingUnitRtl::new(0);
    }
}
