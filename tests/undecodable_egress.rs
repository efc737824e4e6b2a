//! The cycle follower's undecodable-egress path: a DUT that corrupts the
//! HEC octet of every cell it forwards. The reassembler rejects the cell
//! on its 53rd octet; the follower counts it and, on the coupled lane only,
//! answers with the raw octet instead of a cell.

use castanet::coupling::CoupledSimulator;
use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
use castanet::message::{Message, MessagePayload, MessageTypeId};
use castanet_atm::addr::{HeaderFormat, VpiVci};
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_rtl::compiled::LaneBank;
use castanet_rtl::cycle::{CycleDut, PortDecl};

const CLK: SimDuration = SimDuration::from_ns(20);
const HEC_OCTET: usize = 4;

/// Echoes its ingress line to its egress line one clock later, with every
/// bit of each cell's HEC octet flipped.
#[derive(Debug, Default)]
struct CorruptHec {
    octet: usize,
}

impl CycleDut for CorruptHec {
    fn input_ports(&self) -> Vec<PortDecl> {
        vec![
            PortDecl::new("data", 8),
            PortDecl::new("sync", 1),
            PortDecl::new("enable", 1),
        ]
    }
    fn output_ports(&self) -> Vec<PortDecl> {
        vec![
            PortDecl::new("data", 8),
            PortDecl::new("sync", 1),
            PortDecl::new("valid", 1),
        ]
    }
    fn reset(&mut self) {
        self.octet = 0;
    }
    fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        if inputs[1] == 1 {
            self.octet = 0;
        }
        let flip = if inputs[2] == 1 && self.octet == HEC_OCTET {
            0xFF
        } else {
            0
        };
        outputs.copy_from_slice(&[inputs[0] ^ flip, inputs[1], inputs[2]]);
        self.octet += 1;
    }
}

const INGRESS: IngressIndices = IngressIndices {
    data: 0,
    sync: 1,
    enable: 2,
};
const EGRESS: EgressIndices = EgressIndices {
    data: 0,
    sync: 1,
    valid: 2,
};

fn cell() -> AtmCell {
    AtmCell::user_data(VpiVci::uni(1, 40).expect("vpi/vci"), [0x5A; 48])
}

fn is_raw(m: &Message) -> bool {
    matches!(m.payload, MessagePayload::Raw(_))
}

fn follower(lanes: usize) -> CycleCosim {
    let duts = (0..lanes)
        .map(|_| Box::new(CorruptHec::default()) as Box<dyn CycleDut>)
        .collect();
    let mut f = CycleCosim::new(
        LaneBank::new(duts),
        CLK,
        MessageTypeId(9),
        HeaderFormat::Uni,
    );
    f.add_ingress(INGRESS).expect("ingress");
    f.add_egress(EGRESS).expect("egress");
    f
}

#[test]
fn cycle_follower_answers_a_corrupt_cell_with_raw_octets() {
    let mut f = follower(1);
    f.deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell()))
        .expect("deliver");
    let responses = f.advance_batch(SimTime::from_us(5)).expect("advance");
    assert_eq!(responses.len(), 1);
    assert!(is_raw(&responses[0]), "{:?}", responses[0].payload);
    assert_eq!(f.undecodable(), 1);
}

/// The name dates from a separate compiled follower for lane banks.
#[test]
fn compiled_follower_counts_a_corrupt_cell_on_any_lane_but_answers_for_lane_zero() {
    let lanes = 4;
    let mut f = follower(lanes);

    // Lane 3 only: counted, but no response leaves the follower.
    f.seed_cell(3, 0, SimTime::ZERO, &cell()).expect("seed");
    let responses = f.advance_batch(SimTime::from_us(5)).expect("advance");
    assert!(responses.is_empty(), "{responses:?}");
    assert_eq!(f.undecodable(), 1);

    // The coupled lane: one raw response.
    f.deliver(Message::cell(
        SimTime::from_us(5),
        MessageTypeId(0),
        0,
        cell(),
    ))
    .expect("deliver");
    let responses = f.advance_batch(SimTime::from_us(10)).expect("advance");
    assert_eq!(responses.len(), 1);
    assert!(is_raw(&responses[0]), "{:?}", responses[0].payload);
    assert_eq!(f.undecodable(), 2);
    assert!((0..lanes).all(|lane| f.lane_cells(0, lane).is_empty()));
}
