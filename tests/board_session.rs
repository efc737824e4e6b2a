//! Pins the hardware-in-the-loop follower's behaviour on a seeded session:
//! cells on both ingress lines for both routes (1/40 → line 1, 1/41 →
//! line 0), back-to-back bursts, stamps behind and ahead of the
//! follower's clock, and a 37-clock test cycle that cuts cells across
//! cycles. The session runs four ways — an `advance_until` loop, one
//! `advance_batch` per step, a serial `Coupling` and a `ParallelCoupling`
//! — and each pins an FNV-1a hash of every response's stamp, port and
//! payload bytes, the session and SCSI accounting and the board clock.

use castanet::coupling::{CoupledSimulator, Coupling, Executor};
use castanet::interface::CastanetInterfaceProcess;
use castanet::message::{Message, MessageTypeId};
use castanet::sync::ConservativeSync;
use castanet::BoardCosim;
use castanet_atm::addr::{HeaderFormat, VpiVci};
use castanet_atm::cell::{AtmCell, CELL_OCTETS};
use castanet_atm::traffic::source::TrafficSourceProcess;
use castanet_atm::traffic::{Cbr, OnOffVbr, PoissonTraffic, TrafficModel};
use castanet_netsim::event::PortId;
use castanet_netsim::kernel::Kernel;
use castanet_netsim::process::CollectorProcess;
use castanet_netsim::time::{SimDuration, SimTime};
use coverify::scenarios::switch_on_board;

/// The board clock of `switch_on_board`: 20 MHz.
const CLK_PS: u64 = 50_000;

fn board() -> BoardCosim {
    // Shorter than a cell, so cells straddle test cycles.
    switch_on_board(37, MessageTypeId(1)).unwrap()
}

/// FNV-1a over each response's stamp, port and wire octets, in turn.
fn fnv1a(responses: impl Iterator<Item = (SimTime, usize, AtmCell)>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for (stamp, port, cell) in responses {
        let wire = cell.encode(HeaderFormat::Uni).unwrap();
        let head = stamp.as_picos().to_le_bytes().into_iter();
        for byte in head.chain((port as u64).to_le_bytes()).chain(wire) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    hash
}

/// What each path pins: the response hash, `(cycles, hw_clocks, hw_time
/// ns, sw_time ns)`, `(transfers, bytes, busy ns)` and `clocks_done`.
type Pinned = (u64, (u64, u64, u128, u128), (u64, u64, u128), u64);

fn pinned(hash: u64, board: &BoardCosim) -> Pinned {
    let (s, bus) = (board.session_stats(), board.scsi_stats());
    let (hw, sw) = (s.hw_time.as_nanos(), s.sw_time.as_nanos());
    let scsi = (bus.transfers, bus.bytes, bus.busy.as_nanos());
    let session = (s.cycles, s.hw_clocks, hw, sw);
    (hash, session, scsi, board.clocks_done())
}

/// Sixty rounds of seeded deliveries, each followed by one `advance` to
/// a seeded horizon, then a drain.
fn direct_session(advance: impl Fn(&mut BoardCosim, SimTime) -> Vec<Message>) -> Pinned {
    // xorshift64*: deterministic and dependency-free.
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut rand = |below: u64| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) % below
    };
    let mut board = board();
    let mut responses = Vec::new();
    for _ in 0..60 {
        let now = board.clocks_done();
        for _ in 0..rand(3) {
            let (port, vci) = (rand(2) as usize, 40 + rand(2) as u16);
            // Behind the follower's clock (played from now on) or ahead.
            let clock = if rand(2) == 0 {
                now.saturating_sub(rand(100))
            } else {
                now + rand(300)
            };
            // A burst: cells stamped alike go out back to back.
            for _ in 0..=rand(3) {
                let payload = std::array::from_fn(|_| rand(256) as u8);
                let cell = AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), payload);
                let stamp = SimTime::from_picos(clock * CLK_PS);
                board
                    .deliver(Message::cell(stamp, MessageTypeId(0), port, cell))
                    .unwrap();
            }
        }
        let horizon = (board.clocks_done() + 1 + rand(400)) * CLK_PS;
        responses.extend(advance(&mut board, SimTime::from_picos(horizon)));
    }
    let drained = (board.clocks_done() + 5_000) * CLK_PS;
    responses.extend(advance(&mut board, SimTime::from_picos(drained)));
    let cell = |r: &Message| (r.stamp, r.port, r.as_cell().unwrap().clone());
    pinned(fnv1a(responses.iter().map(cell)), &board)
}

/// The network side: four sources into the interface, source `k` sending
/// VCI `40 + k % 2` on line `k / 2`, so both routes on both lines; one
/// sink per egress line.
fn coupled_session<X: Executor<BoardCosim>>(
    executor: impl FnOnce(Coupling<BoardCosim>) -> Coupling<BoardCosim, X>,
) -> Pinned {
    let slot = SimDuration::from_ns(50) * CELL_OCTETS as u64;
    let mut net = Kernel::new(1998);
    let node = net.add_node("board");
    let mut sync = ConservativeSync::new();
    let cell_type = sync.register_type(slot);
    let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
    let iface = net.add_module(node, "castanet", Box::new(iface_proc));
    let models: [Box<dyn TrafficModel>; 4] = [
        Box::new(OnOffVbr::new(slot, 4.0, SimDuration::from_us(20))),
        Box::new(PoissonTraffic::new(SimDuration::from_us(15))),
        Box::new(Cbr::new(SimDuration::from_us(7))),
        Box::new(OnOffVbr::new(slot, 3.0, SimDuration::from_us(30))),
    ];
    for (k, model) in models.into_iter().enumerate() {
        let conn = VpiVci::uni(1, 40 + k as u16 % 2).unwrap();
        let source = TrafficSourceProcess::new(conn, model).with_limit(25);
        let src = net.add_module(node, format!("src{k}"), Box::new(source));
        net.connect_stream(src, PortId(0), iface, PortId(k / 2))
            .unwrap();
    }
    let mut collectors = Vec::new();
    for line in 0..2 {
        let (collector, got) = CollectorProcess::new();
        let sink = net.add_module(node, format!("sink{line}"), Box::new(collector));
        net.connect_stream(iface, PortId(line), sink, PortId(0))
            .unwrap();
        collectors.push(got);
    }
    let coupling = Coupling::new(net, board(), sync, cell_type, iface, outbox)
        .with_drain(SimDuration::from_us(100), 3);
    let mut coupling = executor(coupling);
    coupling.run(SimTime::from_ms(5)).unwrap();
    let cells = collectors.iter().enumerate().flat_map(|(line, got)| {
        let cells = got.take().into_iter();
        cells.map(move |(t, pkt)| (t, line, pkt.payload::<AtmCell>().unwrap().clone()))
    });
    pinned(fnv1a(cells), coupling.follower())
}

/// What both direct paths give: they play the same test cycles.
const DIRECT: Pinned = (
    0x393A_387A_476A_515F,
    (490, 16_967, 848_350, 1_034_294_400),
    (980, 542_944, 1_034_294_400),
    16_967,
);

#[test]
fn an_advance_until_loop_gives_the_pinned_session() {
    let got = direct_session(|board, horizon| {
        let mut out = Vec::new();
        loop {
            let responses = board.advance_until(horizon).unwrap();
            if responses.is_empty() {
                return out;
            }
            out.extend(responses);
        }
    });
    assert_eq!(got, DIRECT);
}

#[test]
fn one_advance_batch_per_step_gives_the_pinned_session() {
    let got = direct_session(|board, horizon| board.advance_batch(horizon).unwrap());
    assert_eq!(got, DIRECT);
}

#[test]
fn a_serial_coupling_gives_the_pinned_session() {
    let got = coupled_session(|c| c);
    let session = (526, 17_470, 873_500, 1_107_904_000);
    let scsi = (1_052, 559_040, 1_107_904_000);
    assert_eq!(got, (0x77C9_E2AD_35FB_5D0A, session, scsi, 17_470));
}

#[test]
fn a_parallel_coupling_gives_the_pinned_session() {
    let got = coupled_session(Coupling::into_parallel);
    let session = (578, 19_358, 967_900, 1_217_945_600);
    let scsi = (1_156, 619_456, 1_217_945_600);
    assert_eq!(got, (0xA172_8E95_84CB_1027, session, scsi, 19_358));
}
