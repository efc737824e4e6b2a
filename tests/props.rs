//! Property-based test suites over the core data structures and protocol
//! invariants.
//!
//! Runs on a self-contained deterministic harness ([`harness`]) instead of an
//! external property-testing crate: each property executes `CASES` cases from
//! a fixed per-property seed, so every failure is reproducible by rerunning
//! the named test — no regression files needed.

use castanet::convert::{cell_to_byte_ops, ByteStreamAssembler};
use castanet::ipc::{decode_message, encode_message};
use castanet::message::{Message, MessagePayload, MessageTypeId};
use castanet::sync::conservative::ConservativeSync;
use castanet::sync::optimistic::{OptimisticSync, TimedEvent};
use castanet_atm::aal5;
use castanet_atm::addr::{HeaderFormat, Vci, Vpi, VpiVci};
use castanet_atm::cell::{AtmCell, CellHeader, PayloadType};
use castanet_atm::gcra::{Gcra, LeakyBucket};
use castanet_atm::hec;
use castanet_netsim::event::EventKind;
use castanet_netsim::scheduler::EventList;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_rtl::logic::Logic;
use castanet_rtl::vector::LogicVector;
use castanet_testboard::pinmap::{InportMapping, PinMapConfig, PinSegment};
use harness::{cases, Gen};

mod harness {
    //! Minimal deterministic property-test harness.

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Number of cases each property runs.
    pub const CASES: u64 = 256;

    /// Per-case value generator wrapping a seeded [`SmallRng`].
    pub struct Gen {
        rng: SmallRng,
    }

    impl Gen {
        pub fn u8(&mut self) -> u8 {
            (self.rng.random::<u64>() >> 56) as u8
        }

        pub fn u16(&mut self) -> u16 {
            (self.rng.random::<u64>() >> 48) as u16
        }

        pub fn u32(&mut self) -> u32 {
            self.rng.random::<u32>()
        }

        pub fn u64(&mut self) -> u64 {
            self.rng.random::<u64>()
        }

        pub fn bool(&mut self) -> bool {
            self.rng.random::<bool>()
        }

        /// Uniform draw from `lo..hi` (half-open, like proptest's `a..b`).
        pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
            assert!(lo < hi);
            self.rng.random_range(lo..hi)
        }

        /// Uniform draw from `lo..hi` (half-open).
        pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
            assert!(lo < hi);
            self.rng.random_range(lo..hi)
        }

        /// A uniformly random 48-octet ATM payload.
        pub fn payload(&mut self) -> [u8; 48] {
            let mut p = [0u8; 48];
            for b in &mut p {
                *b = self.u8();
            }
            p
        }

        /// A byte vector with length drawn from `len_lo..len_hi`.
        pub fn bytes(&mut self, len_lo: usize, len_hi: usize) -> Vec<u8> {
            let len = self.range_usize(len_lo, len_hi);
            (0..len).map(|_| self.u8()).collect()
        }

        /// A vector of `len_lo..len_hi` values produced by `f`.
        pub fn vec_of<T>(
            &mut self,
            len_lo: usize,
            len_hi: usize,
            mut f: impl FnMut(&mut Gen) -> T,
        ) -> Vec<T> {
            let len = self.range_usize(len_lo, len_hi);
            (0..len).map(|_| f(self)).collect()
        }
    }

    /// Runs `body` for [`CASES`] deterministic cases.
    ///
    /// `label` isolates the random stream per property so adding or
    /// reordering properties never shifts another property's cases.
    pub fn cases(label: &str, body: impl Fn(&mut Gen)) {
        // FNV-1a over the label picks the per-property stream.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        for case in 0..CASES {
            let mut g = Gen {
                rng: SmallRng::seed_from_u64(h ^ (case.wrapping_mul(0x9E3779B97F4A7C15))),
            };
            body(&mut g);
        }
    }
}

fn gen_uni_header(g: &mut Gen) -> CellHeader {
    CellHeader {
        gfc: (g.range_u64(0, 16)) as u8,
        id: VpiVci::new(
            Vpi::new(g.range_u64(0, 256) as u16, HeaderFormat::Uni).expect("in range"),
            Vci::new(g.u16()),
        ),
        pt: PayloadType::from_bits(g.range_u64(0, 8) as u8),
        clp: g.bool(),
    }
}

#[test]
fn cell_wire_roundtrip_uni() {
    cases("cell_wire_roundtrip_uni", |g| {
        let cell = AtmCell::with_header(gen_uni_header(g), g.payload());
        let wire = cell.encode(HeaderFormat::Uni).expect("encode");
        let back = AtmCell::decode(&wire, HeaderFormat::Uni).expect("decode");
        assert_eq!(back, cell);
    });
}

#[test]
fn cell_wire_roundtrip_nni() {
    cases("cell_wire_roundtrip_nni", |g| {
        let header = CellHeader {
            gfc: 0,
            id: VpiVci::new(
                Vpi::new(g.range_u64(0, 4096) as u16, HeaderFormat::Nni).expect("in range"),
                Vci::new(g.u16()),
            ),
            pt: PayloadType::from_bits(g.range_u64(0, 8) as u8),
            clp: g.bool(),
        };
        let cell = AtmCell::with_header(header, g.payload());
        let wire = cell.encode(HeaderFormat::Nni).expect("encode");
        assert_eq!(
            AtmCell::decode(&wire, HeaderFormat::Nni).expect("decode"),
            cell
        );
    });
}

#[test]
fn any_single_header_bit_flip_is_corrected() {
    cases("any_single_header_bit_flip_is_corrected", |g| {
        let bit = g.range_usize(0, 40);
        let cell = AtmCell::with_header(gen_uni_header(g), [0u8; 48]);
        let wire = cell.encode(HeaderFormat::Uni).expect("encode");
        let mut bad = [0u8; 5];
        bad.copy_from_slice(&wire[..5]);
        bad[bit / 8] ^= 0x80 >> (bit % 8);
        let mut rx = hec::HecReceiver::new();
        match rx.receive(&bad) {
            hec::HecOutcome::Corrected(fixed) => assert_eq!(&fixed[..], &wire[..5]),
            other => panic!("bit {bit} not corrected: {other:?}"),
        }
    });
}

#[test]
fn aal5_roundtrip() {
    cases("aal5_roundtrip", |g| {
        let sdu = g.bytes(0, 2000);
        let conn = VpiVci::uni(1, 42).expect("id");
        let cells = aal5::segment(conn, &sdu).expect("segment");
        assert_eq!(aal5::reassemble(&cells).expect("reassemble"), sdu);
    });
}

#[test]
fn aal5_payload_corruption_always_detected() {
    cases("aal5_payload_corruption_always_detected", |g| {
        let sdu = g.bytes(1, 500);
        let flip = g.range_u64(1, 256) as u8;
        let conn = VpiVci::uni(1, 42).expect("id");
        let mut cells = aal5::segment(conn, &sdu).expect("segment");
        let total = cells.len() * 48;
        let at = g.range_usize(0, total);
        cells[at / 48].payload[at % 48] ^= flip;
        // Either the CRC fails or (if the corruption hit the pad/length in
        // a detectable way) another validation error fires; it must never
        // silently return the original data.
        if let Ok(data) = aal5::reassemble(&cells) {
            assert_ne!(data, sdu);
        }
    });
}

#[test]
fn gcra_formulations_agree() {
    cases("gcra_formulations_agree", |g| {
        let gaps = g.vec_of(1, 300, |g| g.range_u64(0, 30));
        let t = SimDuration::from_us(g.range_u64(1, 20));
        let tau = SimDuration::from_us(g.range_u64(0, 40));
        let mut gcra = Gcra::new(t, tau);
        let mut lb = LeakyBucket::new(t, tau);
        let mut now = SimTime::ZERO;
        for gap in gaps {
            now += SimDuration::from_us(gap);
            assert_eq!(gcra.arrival(now), lb.arrival(now));
        }
    });
}

#[test]
fn logic_vector_u64_roundtrip() {
    cases("logic_vector_u64_roundtrip", |g| {
        let value = g.u64();
        let width = g.range_usize(1, 65);
        let masked = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        let v = LogicVector::from_u64(masked, width);
        assert_eq!(v.to_u64(), Some(masked));
        assert_eq!(v.width(), width);
    });
}

#[test]
fn logic_resolution_commutes_and_associates() {
    cases("logic_resolution_commutes_and_associates", |g| {
        let a = Logic::ALL[g.range_usize(0, 9)];
        let b = Logic::ALL[g.range_usize(0, 9)];
        let c = Logic::ALL[g.range_usize(0, 9)];
        assert_eq!(a.resolve(b), b.resolve(a));
        assert_eq!(a.resolve(b).resolve(c), a.resolve(b.resolve(c)));
    });
}

#[test]
fn event_list_pops_monotone() {
    cases("event_list_pops_monotone", |g| {
        let times = g.vec_of(1, 200, |g| g.range_u64(0, 1_000_000));
        let mut list = EventList::new();
        for &t in &times {
            list.schedule(SimTime::from_ns(t), EventKind::Stop)
                .expect("schedule");
        }
        let mut prev = SimTime::ZERO;
        while let Some(ev) = list.pop() {
            assert!(ev.time() >= prev);
            prev = ev.time();
        }
    });
}

#[test]
fn byte_stream_assembler_recovers_cells_after_garbage() {
    cases("byte_stream_assembler_recovers_cells_after_garbage", |g| {
        let cell = AtmCell::with_header(gen_uni_header(g), g.payload());
        let garbage = g.bytes(0, 100);
        let mut rx = ByteStreamAssembler::new(HeaderFormat::Uni);
        // Garbage without sync markers must not produce cells.
        for b in garbage {
            assert!(rx.push(b, false).expect("no cell completes").is_none());
        }
        let mut got = None;
        for op in cell_to_byte_ops(&cell, HeaderFormat::Uni).expect("convert") {
            if let Some(c) = rx.push(op.data, op.sync).expect("assemble") {
                got = Some(c);
            }
        }
        assert_eq!(got, Some(cell));
    });
}

#[test]
fn ipc_codec_roundtrip() {
    cases("ipc_codec_roundtrip", |g| {
        let msg = Message {
            stamp: SimTime::from_picos(g.u64()),
            type_id: MessageTypeId(g.u32()),
            port: g.range_usize(0, 100_000),
            payload: MessagePayload::Cell(AtmCell::with_header(gen_uni_header(g), g.payload())),
        };
        assert_eq!(decode_message(&encode_message(&msg)).expect("decode"), msg);
    });
}

#[test]
fn pinmap_roundtrip_random_single_lane_ports() {
    cases("pinmap_roundtrip_random_single_lane_ports", |g| {
        let lane = g.range_usize(0, 16);
        let start_bit = g.range_usize(0, 8);
        let value = g.u8();
        let bits = start_bit + 1; // widest segment ending at bit 0
        let cfg = PinMapConfig {
            inports: vec![InportMapping {
                number: 0,
                width: bits,
                segments: vec![PinSegment::new(lane, start_bit, bits)],
            }],
            ..PinMapConfig::default()
        };
        let masked = u64::from(value) & ((1u64 << bits) - 1);
        let mut frame = [0u8; 16];
        cfg.encode_inport(0, masked, &mut frame).expect("encode");
        // Decode through the same segments.
        let port = cfg.inport(0).expect("port");
        let mut out = 0u64;
        for seg in &port.segments {
            let shift = seg.start_bit + 1 - seg.bits;
            out = (out << seg.bits)
                | (u64::from(frame[seg.lane] >> shift) & ((1u64 << seg.bits) - 1));
        }
        assert_eq!(out, masked);
    });
}

#[test]
fn conservative_sync_never_violates_lag_under_random_schedules() {
    cases("conservative_sync_never_violates_lag", |g| {
        let deltas_us = g.vec_of(1, 5, |g| g.range_u64(1, 20));
        let steps = g.vec_of(1, 400, |g| {
            (g.range_usize(0, 5), g.range_u64(0, 2_000), g.bool())
        });
        let mut sync = ConservativeSync::new();
        let types: Vec<_> = deltas_us
            .iter()
            .map(|&d| sync.register_type(SimDuration::from_us(d)))
            .collect();
        let n = types.len();
        let mut stamps = vec![SimTime::ZERO; n];
        let mut originator = SimTime::ZERO;
        let mut prev = SimTime::ZERO;
        for (j, advance_ns, is_null) in steps {
            let j = j % n;
            originator += SimDuration::from_ns(advance_ns);
            stamps[j] = stamps[j].max(originator);
            sync.receive(types[j], stamps[j], is_null).expect("receive");
            sync.advance_local(prev).expect("advance");
            prev = sync.originator_time();
            assert!(sync.lag_invariant_holds());
            assert!(sync.local_time() <= sync.originator_time());
        }
    });
}

#[test]
fn frame_aware_queue_admits_only_whole_frames() {
    cases("frame_aware_queue_admits_only_whole_frames", |g| {
        // The classical EPD guarantee needs headroom: frames must fit in
        // (capacity - threshold). Capacity 24, threshold 12, frames of at
        // most ceil((500+8)/48) = 11 cells.
        let frame_lens = g.vec_of(1, 20, |g| g.range_usize(1, 500));
        let service = g.vec_of(1, 20, |g| g.range_usize(0, 4));
        use castanet_atm::discard::{DiscardPolicy, DiscardQueue};
        let conn = VpiVci::uni(1, 40).expect("id");
        let capacity = 24usize;
        let mut q = DiscardQueue::new(capacity, DiscardPolicy::FrameAware { epd_threshold: 12 });
        let mut assembler = aal5::Reassembler::new();
        let mut service_it = service.iter().cycle();
        for &len in &frame_lens {
            for cell in aal5::segment(conn, &vec![0x11; len]).expect("segment") {
                let _ = q.offer(cell);
            }
            for _ in 0..*service_it.next().expect("cycle") {
                if let Some(cell) = q.pop() {
                    // Anything leaving the queue reassembles cleanly.
                    assert!(assembler.push(cell).is_ok());
                }
            }
        }
        while let Some(cell) = q.pop() {
            assert!(assembler.push(cell).is_ok());
        }
        assert_eq!(
            assembler.errors(),
            0,
            "no partial frames may leave an EPD queue"
        );
        assert_eq!(assembler.pending_cells(), 0, "no dangling tails");
    });
}

#[test]
fn oam_loopback_roundtrip() {
    cases("oam_loopback_roundtrip", |g| {
        use castanet_atm::oam::LoopbackCell;
        let vpi = g.range_u64(0, 256) as u16;
        let lb = LoopbackCell::request(VpiVci::uni(vpi, g.u16()).expect("id"), g.bool(), g.u32());
        let cell = lb.encode();
        assert_eq!(LoopbackCell::decode(&cell).expect("decode"), lb);
        // Any single payload bit flip must be detected by the CRC-10.
        let mut bad = cell.clone();
        bad.payload[5] ^= 0x10;
        assert!(LoopbackCell::decode(&bad).is_err());
    });
}

#[test]
fn optimistic_always_converges_to_sorted_result() {
    cases("optimistic_always_converges_to_sorted_result", |g| {
        let schedule = g.vec_of(1, 120, |g| {
            (g.range_u64(0, 10_000), g.range_u64(1, 100) as u32)
        });
        fn step(state: &mut u64, ev: &u32) -> Vec<u64> {
            *state = state.wrapping_mul(31).wrapping_add(u64::from(*ev));
            vec![*state]
        }
        // Reference: process in (stamp, seq) order.
        let mut keyed: Vec<(u64, u64, u32)> = schedule
            .iter()
            .enumerate()
            .map(|(i, &(t, e))| (t, i as u64, e))
            .collect();
        keyed.sort_unstable();
        let mut reference = 0u64;
        for &(_, _, e) in &keyed {
            step(&mut reference, &e);
        }

        let mut tw = OptimisticSync::new(0u64, step, usize::MAX >> 1);
        for (i, &(t, e)) in schedule.iter().enumerate() {
            tw.execute(TimedEvent {
                stamp: SimTime::from_ns(t),
                seq: i as u64,
                event: e,
            })
            .expect("execute");
        }
        assert_eq!(*tw.state(), reference);
    });
}

// ---------------------------------------------------------------------
// Pre-flight static analysis (castanet-lint)
// ---------------------------------------------------------------------

/// A random valid pin-map data set: one inport per lane, MSB-anchored, so
/// segments can never collide.
fn gen_valid_pinmap(g: &mut Gen) -> PinMapConfig {
    let ports = g.range_usize(1, 17); // at most one port per lane
    let mut cfg = PinMapConfig::default();
    for lane in 0..ports {
        let width = g.range_usize(1, 9);
        cfg.inports.push(InportMapping {
            number: lane,
            width,
            segments: vec![PinSegment::new(lane, 7, width)],
        });
    }
    cfg
}

#[test]
fn lint_random_valid_pinmap_is_clean() {
    cases("lint_random_valid_pinmap_is_clean", |g| {
        let cfg = gen_valid_pinmap(g);
        let diags = castanet_lint::passes::pinmap::check_pinmap(&cfg, None);
        assert!(diags.is_empty(), "valid data set flagged: {diags:?}");
    });
}

#[test]
fn lint_overlap_mutation_yields_exactly_cast030() {
    cases("lint_overlap_mutation_yields_exactly_cast030", |g| {
        let mut cfg = gen_valid_pinmap(g);
        // Mutation: a new port re-claims an existing port's segment.
        let victim = g.range_usize(0, cfg.inports.len());
        let seg = cfg.inports[victim].segments[0];
        cfg.inports.push(InportMapping {
            number: cfg.inports.len(),
            width: seg.bits,
            segments: vec![seg],
        });
        let diags = castanet_lint::passes::pinmap::check_pinmap(&cfg, None);
        assert_eq!(diags.len(), seg.bits, "one finding per doubly-claimed pin");
        assert!(diags.iter().all(|d| d.code == "CAST030"), "{diags:?}");
    });
}

#[test]
fn lint_width_mutation_yields_exactly_cast033() {
    cases("lint_width_mutation_yields_exactly_cast033", |g| {
        let mut cfg = gen_valid_pinmap(g);
        let victim = g.range_usize(0, cfg.inports.len());
        cfg.inports[victim].width += 1 + g.range_usize(0, 8);
        let diags = castanet_lint::passes::pinmap::check_pinmap(&cfg, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "CAST033");
    });
}

#[test]
fn lint_random_valid_sync_is_clean_and_zero_delta_is_exactly_cast002() {
    cases(
        "lint_random_valid_sync_is_clean_and_zero_delta_is_exactly_cast002",
        |g| {
            let mut sync = ConservativeSync::new();
            let n = g.range_usize(1, 8);
            let types: Vec<_> = (0..n)
                .map(|_| sync.register_type(SimDuration::from_ns(g.range_u64(1, 100_000))))
                .collect();
            let cell_type = types[g.range_usize(0, n)];
            assert!(
                castanet_lint::passes::sync_liveness::check_sync(&sync, Some(cell_type)).is_empty(),
                "positive-delta synchronizer flagged"
            );

            // Mutation: one more type, registered with zero lookahead.
            let zero = sync.register_type(SimDuration::ZERO);
            let diags = castanet_lint::passes::sync_liveness::check_sync(&sync, Some(cell_type));
            assert_eq!(diags.len(), 1);
            assert_eq!(diags[0].code, "CAST002");
            assert_eq!(diags[0].location, format!("sync.type[{}]", zero.0));
        },
    );
}

#[test]
fn lint_rtl_width_mutation_yields_exactly_cast020() {
    use castanet::entity::{CosimEntity, IngressSignals};
    use castanet_rtl::sim::Simulator;
    cases("lint_rtl_width_mutation_yields_exactly_cast020", |g| {
        let mut sim = Simulator::new();
        // One wrong width among the three ingress signals.
        let wrong = g.range_usize(0, 3);
        let bad_width = if g.bool() {
            g.range_usize(2, 8)
        } else {
            g.range_usize(9, 64)
        };
        let widths = |i: usize, good: usize| if i == wrong { bad_width } else { good };
        let data = sim.add_signal("atmdata", widths(0, 8));
        let sync = sim.add_signal("cellsync", widths(1, 1));
        let enable = sim.add_signal("enable", widths(2, 1));
        let mut entity = CosimEntity::new(
            SimDuration::from_ns(20),
            HeaderFormat::Uni,
            MessageTypeId(0),
        );
        entity.add_ingress(IngressSignals { data, sync, enable });
        let diags = castanet_lint::passes::interface::check_rtl_widths(&sim, &entity);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "CAST020");
    });
}

// ---------------------------------------------------------------------
// Parallel coupled-engine executor
// ---------------------------------------------------------------------

/// A complete coupled fixture with `stim` cells pre-scheduled as arrivals
/// and a per-type lookahead of `delta` — the δ_j under test.
fn coupled_fixture(
    stims: &[(SimTime, AtmCell)],
    delta: SimDuration,
) -> castanet::coupling::Coupling<castanet::cyclecosim::CycleCosim> {
    use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
    use castanet::interface::{response_packet, CastanetInterfaceProcess};
    use castanet_netsim::event::PortId;
    use castanet_netsim::kernel::Kernel;
    use castanet_netsim::process::CollectorProcess;
    use castanet_rtl::compiled::LaneBank;
    use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};

    let mut net = Kernel::new(42);
    let node = net.add_node("prop");
    let mut sync = ConservativeSync::new();
    let cell_type = sync.register_type(delta);
    let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
    let iface = net.add_module(node, "castanet", Box::new(iface_proc));
    let (collector, _got) = CollectorProcess::new();
    let sink = net.add_module(node, "sink", Box::new(collector));
    net.connect_stream(iface, PortId(1), sink, PortId(0))
        .unwrap();
    for (at, cell) in stims {
        net.inject_packet(iface, PortId(0), response_packet(cell.clone()), *at)
            .unwrap();
    }

    let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: 2,
        fifo_capacity: 64,
        table_capacity: 16,
    });
    assert!(switch.install_route(1, 40, 1, 7, 70));
    let bank = LaneBank::new(vec![Box::new(switch)]);
    let mut follower =
        CycleCosim::new(bank, SimDuration::from_ns(20), cell_type, HeaderFormat::Uni);
    follower
        .add_ingress(IngressIndices {
            data: 0,
            sync: 1,
            enable: 2,
        })
        .unwrap();
    follower
        .add_ingress(IngressIndices {
            data: 3,
            sync: 4,
            enable: 5,
        })
        .unwrap();
    follower
        .add_egress(EgressIndices {
            data: 0,
            sync: 1,
            valid: 2,
        })
        .unwrap();
    follower
        .add_egress(EgressIndices {
            data: 3,
            sync: 4,
            valid: 5,
        })
        .unwrap();
    castanet::coupling::Coupling::new(net, follower, sync, cell_type, iface, outbox)
}

#[test]
fn parallel_lag_invariant_holds_for_any_delta_config() {
    use castanet::coupling::CoupledSimulator;
    cases("parallel_lag_invariant_holds_for_any_delta_config", |g| {
        // Any per-type lookahead δ_j — from far below to far above the
        // true 53-clock cell transfer time — and any batching parameters:
        // the HDL side's local time must never exceed the time the
        // network side has vouched for.
        let delta = SimDuration::from_ns(g.range_u64(100, 5_000_000));
        let cells = g.range_usize(1, 6);
        let mut at = SimTime::ZERO;
        let stims: Vec<(SimTime, AtmCell)> = (0..cells)
            .map(|_| {
                at += SimDuration::from_us(g.range_u64(1, 10));
                (
                    at,
                    AtmCell::user_data(VpiVci::uni(1, 40).unwrap(), g.payload()),
                )
            })
            .collect();
        let window = SimDuration::from_us(g.range_u64(1, 200));
        let depth = g.range_usize(1, 8);
        let mut coupling = coupled_fixture(&stims, delta)
            .into_parallel()
            .with_batching(window, depth);
        let stats = coupling.run(SimTime::from_ms(1)).expect("run");
        assert_eq!(stats.messages_to_follower, cells as u64);
        assert_eq!(stats.responses, cells as u64, "every cell answered");
        assert!(coupling.sync().lag_invariant_holds());
        assert!(
            coupling.sync().local_time() <= coupling.sync().originator_time(),
            "HDL local time ran ahead of the netsim promise"
        );
        assert!(coupling.follower().now() <= SimTime::from_ms(1) + window);
    });
}

#[test]
fn parallel_executor_never_deadlocks_on_empty_queues() {
    cases("parallel_executor_never_deadlocks_on_empty_queues", |g| {
        // No stimulus ever crosses the interface — either the network is
        // completely silent or every event lies beyond the horizon. The
        // executor must terminate (the two-phase handshake may not wait
        // on a message that cannot come) and deliver nothing.
        let horizon = SimTime::from_us(g.range_u64(1, 500));
        let beyond = g.range_usize(0, 4);
        let stims: Vec<(SimTime, AtmCell)> = (0..beyond)
            .map(|k| {
                (
                    horizon + SimDuration::from_us(g.range_u64(1, 100) + k as u64),
                    AtmCell::user_data(VpiVci::uni(1, 40).unwrap(), g.payload()),
                )
            })
            .collect();
        let window = SimDuration::from_us(g.range_u64(1, 300));
        let depth = g.range_usize(1, 8);
        let quantum = SimDuration::from_us(g.range_u64(1, 100));
        let quiet = g.range_u64(1, 4) as u32;
        let mut coupling = coupled_fixture(&stims, SimDuration::from_us(1))
            .into_parallel()
            .with_batching(window, depth)
            .with_drain(quantum, quiet);
        let stats = coupling.run(horizon).expect("run");
        assert_eq!(stats.messages_to_follower, 0);
        assert_eq!(stats.responses, 0);
        assert!(coupling.sync().lag_invariant_holds());
    });
}

// ---------------------------------------------------------------------
// Event-driven RTL kernel: timing wheel and packed logic vectors
// ---------------------------------------------------------------------

/// Reference scheduler for the timing wheel: a plain binary heap over
/// `(time, seq)`, which is exactly the ordering contract the wheel must
/// reproduce — earliest time first, push order within a time.
#[test]
fn timing_wheel_matches_binary_heap_reference() {
    use castanet_rtl::wheel::TimingWheel;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    cases("timing_wheel_matches_binary_heap_reference", |g| {
        let mut wheel = TimingWheel::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut out: Vec<u64> = Vec::new();
        let pop_step = |wheel: &mut TimingWheel<u64>,
                        reference: &mut BinaryHeap<Reverse<(u64, u64)>>,
                        out: &mut Vec<u64>| {
            assert_eq!(
                wheel.peek(),
                reference.peek().map(|Reverse((t, _))| *t),
                "peek disagrees"
            );
            out.clear();
            let t = wheel.pop_into(out).expect("wheel non-empty");
            // The reference delivers the same time step: every entry
            // stamped `t`, in seq (push) order.
            let mut expect = Vec::new();
            while reference.peek().is_some_and(|Reverse((rt, _))| *rt == t) {
                expect.push(reference.pop().expect("peeked").0 .1);
            }
            assert_eq!(*out, expect, "entries at time {t}");
            t
        };
        for _ in 0..g.range_usize(1, 120) {
            if g.bool() || wheel.is_empty() {
                // Burst of pushes at or after the wheel's current base,
                // mixing same-time, near and far-future stamps so every
                // hierarchy level gets exercised.
                for _ in 0..g.range_usize(1, 8) {
                    let t = now
                        + match g.range_usize(0, 4) {
                            0 => 0,
                            1 => g.range_u64(0, 64),
                            2 => g.range_u64(0, 1 << 18),
                            _ => g.range_u64(0, 1 << 40),
                        };
                    wheel.push(t, seq);
                    reference.push(Reverse((t, seq)));
                    seq += 1;
                }
                // `peek` is cached, so a push (even one at the current
                // base) must lower it on the spot.
                assert_eq!(
                    wheel.peek(),
                    reference.peek().map(|Reverse((t, _))| *t),
                    "peek after a push burst"
                );
            } else {
                now = pop_step(&mut wheel, &mut reference, &mut out);
            }
        }
        assert_eq!(wheel.len(), reference.len());
        while !reference.is_empty() {
            pop_step(&mut wheel, &mut reference, &mut out);
        }
        assert!(wheel.is_empty());
        assert_eq!(wheel.peek(), None);
    });
}

fn gen_logic(g: &mut Gen) -> Logic {
    Logic::ALL[g.range_usize(0, 9)]
}

fn hash_of(v: &LogicVector) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

fn is_binary(l: Logic) -> bool {
    matches!(l, Logic::Zero | Logic::One | Logic::L | Logic::H)
}

/// The packed (nibble-per-bit) vector against the naive `Vec<Logic>`
/// model: construction, indexing, integer reading, slicing, concatenation
/// and display must all agree for every one of the nine values at any
/// width — including widths that cross the inline/heap storage boundary.
#[test]
fn packed_vector_matches_naive_model() {
    cases("packed_vector_matches_naive_model", |g| {
        let width = g.range_usize(1, 513);
        let model = g.vec_of(width, width + 1, gen_logic);
        let mut v = LogicVector::uninitialized(width);
        for (i, &l) in model.iter().enumerate() {
            v.set_bit(i, l);
        }
        assert_eq!(v, LogicVector::from_bits(&model));
        assert_eq!(v.width(), width);
        assert_eq!(v.to_bits(), model);
        for (i, &l) in model.iter().enumerate() {
            assert_eq!(v.bit(i), l, "bit {i} of width {width}");
        }
        let defined = model.iter().copied().all(is_binary);
        assert_eq!(v.is_fully_defined(), defined);
        let naive_u64 = (width <= 64 && defined).then(|| {
            model.iter().enumerate().fold(0u64, |acc, (i, &l)| {
                acc | (u64::from(matches!(l, Logic::One | Logic::H)) << i)
            })
        });
        assert_eq!(v.to_u64(), naive_u64);
        // Display is MSB first, one character per bit.
        let shown: String = model.iter().rev().map(|l| l.to_char()).collect();
        assert_eq!(format!("{v}"), shown);
        // Any in-range slice agrees with the model slice.
        let lo = g.range_usize(0, width);
        let w = g.range_usize(1, width - lo + 1);
        assert_eq!(v.slice(lo, w).to_bits(), &model[lo..lo + w]);
        assert_eq!(v.slice(lo, w), LogicVector::from_bits(&model[lo..lo + w]));
        // Equality (and a hash consistent with it) is element-wise
        // equality, whichever storage either side uses.
        let mut other = model.clone();
        if g.bool() {
            let i = g.range_usize(0, width);
            other[i] = gen_logic(g);
        }
        let w_other = LogicVector::from_bits(&other);
        assert_eq!(v == w_other, model == other);
        if model == other {
            assert_eq!(hash_of(&v), hash_of(&w_other));
        }
        // Concatenation across arbitrary (non-word-aligned) boundaries.
        let hi_model = g.vec_of(1, 130, gen_logic);
        let cat = v.concat_high(&LogicVector::from_bits(&hi_model));
        let mut cat_model = model.clone();
        cat_model.extend_from_slice(&hi_model);
        assert_eq!(cat.to_bits(), cat_model);
    });
}

/// A random value for a `width`-bit signal: any of the nine states per
/// bit, a binary value (`0`/`1`/`L`/`H`), all-`X`, all-`1` or all-`H` (a
/// strong value and its weak twin, which read alike), or a released
/// (all-`Z`) driver.
fn gen_drive(g: &mut Gen, width: usize) -> LogicVector {
    match g.range_usize(0, 5) {
        0 => LogicVector::from_bits(&g.vec_of(width, width + 1, gen_logic)),
        1 => LogicVector::from_bits(&g.vec_of(width, width + 1, |g| {
            [Logic::Zero, Logic::One, Logic::L, Logic::H][g.range_usize(0, 4)]
        })),
        2 => LogicVector::filled(Logic::X, width),
        3 => LogicVector::filled([Logic::One, Logic::H][g.range_usize(0, 2)], width),
        _ => LogicVector::high_z(width),
    }
}

/// One scripted drive of a test signal: at `at_ps`, `value`, sent as a
/// word (`assign_u64` from a process, `poke_u64` from outside) when
/// `as_word` is set and as a vector (`assign_after`, `poke`) otherwise.
#[derive(Clone)]
struct Drive {
    at_ps: u64,
    value: LogicVector,
    as_word: bool,
}

impl Drive {
    /// A drive of `value`; a strong two-state value of at most 64 bits
    /// goes as a word half the time, so both kernel paths meet the model.
    fn new(g: &mut Gen, at_ps: u64, value: LogicVector) -> Self {
        let two_state =
            value.width() <= 64 && value.iter().all(|l| matches!(l, Logic::Zero | Logic::One));
        let as_word = two_state && g.bool();
        Drive {
            at_ps,
            value,
            as_word,
        }
    }

    /// Schedules the drive as the external driver.
    fn poke(&self, sim: &mut castanet_rtl::Simulator, signal: castanet_rtl::SignalId) {
        let at = SimTime::from_picos(self.at_ps);
        if self.as_word {
            let word = self.value.to_u64().expect("a two-state value");
            sim.poke_u64(signal, word, at).expect("poke_u64");
        } else {
            sim.poke(signal, self.value.clone(), at).expect("poke");
        }
    }
}

/// One driver process: schedules its vector drives at elaboration and
/// assigns each word drive when a wake-up at its time fires, i.e. one
/// delta cycle after the vector transactions of that instant.
struct Script {
    signal: castanet_rtl::SignalId,
    steps: Vec<Drive>,
}

impl castanet_rtl::RtlProcess for Script {
    fn init(&mut self, ctx: &mut castanet_rtl::RtlCtx) {
        for step in &self.steps {
            let delay = SimDuration::from_picos(step.at_ps);
            if step.as_word {
                ctx.wake_after(delay);
            } else {
                ctx.assign_after(self.signal, step.value.clone(), delay);
            }
        }
    }
    fn run(&mut self, ctx: &mut castanet_rtl::RtlCtx) {
        let now = ctx.now().as_picos();
        for step in self.steps.iter().filter(|s| s.as_word && s.at_ps == now) {
            ctx.assign_u64(self.signal, step.value.to_u64().expect("a two-state value"));
        }
    }
}

/// The kernel's cached two-state reads (`read_u64`, `read_bit`, `rising`,
/// `falling`) against the resolved value itself, on a live simulator:
/// random multi-driver traffic over all nine states at widths 1..=80 (so
/// the 64-bit inline boundary is crossed), strong two-state drives sent as
/// words half the time, checked from inside a probe process after every
/// event and from outside after every time step.
#[test]
fn two_state_reads_match_the_resolved_value() {
    use castanet_rtl::signal::SignalId;
    use castanet_rtl::sim::{RtlCtx, RtlProcess, Simulator};

    /// Sensitive to every signal; keeps the last value it saw of each
    /// and, from those, the values at the end of the previous instant it
    /// ran at. An instant carries at most one transaction per signal (word
    /// drives land a delta cycle after vector ones, so the probe may run
    /// twice in it), so those are the values before the instant's events.
    struct Probe {
        signals: Vec<SignalId>,
        last: Vec<LogicVector>,
        before: Vec<LogicVector>,
        at: Option<SimTime>,
    }
    impl RtlProcess for Probe {
        fn run(&mut self, ctx: &mut RtlCtx) {
            if self.at != Some(ctx.now()) {
                self.at = Some(ctx.now());
                self.before.clone_from(&self.last);
            }
            for ((&s, last), before) in self.signals.iter().zip(&mut self.last).zip(&self.before) {
                let value = ctx.read(s).clone();
                assert_eq!(ctx.read_u64(s), value.to_u64(), "read_u64 of {s}");
                assert_eq!(ctx.read_bit(s), value.bit(0), "read_bit of {s}");
                let event = ctx.event(s);
                assert_eq!(event, value != *before, "event flag of {s}");
                let (now, before) = (value.bit(0), before.bit(0));
                assert_eq!(
                    ctx.rising(s),
                    event && now.is_one() && !before.is_one(),
                    "rising of {s}: {before:?} -> {now:?}"
                );
                assert_eq!(
                    ctx.falling(s),
                    event && now.is_zero() && !before.is_zero(),
                    "falling of {s}: {before:?} -> {now:?}"
                );
                *last = value;
            }
        }
    }

    cases("two_state_reads_match_the_resolved_value", |g| {
        let mut sim = Simulator::new();
        let mut signals = Vec::new();
        for i in 0..g.range_usize(1, 5) {
            let width = g.range_usize(1, 81);
            let signal = sim.add_signal(format!("s{i}"), width);
            // Every time point carries at most one transaction per signal,
            // so the probe can tell each instant's events from the values
            // before it. Slot 0 goes X -> H -> 1 (a weak and a strong value
            // that read alike) and then releases (Z), ahead of random
            // traffic spread over every driver slot; the last slot stands
            // for the external (poke) driver.
            let drivers = g.range_usize(1, 4);
            let ones = LogicVector::from_bits(&vec![Logic::One; width]);
            let mut scripts = vec![vec![
                Drive::new(g, 500, LogicVector::filled(Logic::X, width)),
                Drive::new(g, 700, LogicVector::filled(Logic::H, width)),
                Drive::new(g, 1_000, ones),
                Drive::new(g, 2_000, LogicVector::high_z(width)),
            ]];
            scripts.resize_with(drivers + 1, Vec::new);
            let mut times: Vec<u64> = (0..g.range_usize(0, 24))
                .map(|_| 1_000 * g.range_u64(3, 40))
                .collect();
            times.sort_unstable();
            times.dedup();
            for at_ps in times {
                let slot = g.range_usize(0, drivers + 1);
                let value = gen_drive(g, width);
                scripts[slot].push(Drive::new(g, at_ps, value));
            }
            for drive in scripts.pop().expect("external slot") {
                drive.poke(&mut sim, signal);
            }
            for steps in scripts {
                sim.add_process(Box::new(Script { signal, steps }), &[]);
            }
            signals.push(signal);
        }
        let last: Vec<_> = signals
            .iter()
            .map(|&s| LogicVector::uninitialized(sim.read(s).width()))
            .collect();
        sim.add_process(
            Box::new(Probe {
                signals: signals.clone(),
                before: last.clone(),
                last,
                at: None,
            }),
            &signals,
        );
        while sim.step_time().expect("step") {
            for &s in &signals {
                let value = sim.read(s);
                assert_eq!(sim.read_u64(s), value.to_u64(), "read_u64 of {s}");
                assert_eq!(sim.read_bit(s), value.bit(0), "read_bit of {s}");
            }
        }
    });
}

/// A signal's resolved value and event count through a sole-driver
/// phase, a second (and possibly a third, external) driver joining, and a
/// tri-state release, against the driver-table model: one slot per
/// driver holding its latest contribution, resolved on every transaction.
/// Strong two-state drives go as words half the time.
#[test]
fn sole_driver_signals_match_the_driver_model() {
    use castanet_rtl::sim::Simulator;

    cases("sole_driver_signals_match_the_driver_model", |g| {
        let width = g.range_usize(1, 81);
        // Driver 0 is alone until `join`; driver 1 joins there; the
        // external slot (driver 2) may join later. One driver releases the
        // bus (Z) after the join. Times are in ns.
        let join = g.range_u64(2, 12);
        let mut scripts: Vec<Vec<Drive>> = vec![Vec::new(); 3];
        let drive = |g: &mut Gen, t: u64, value| Drive::new(g, 1_000 * t, value);
        for t in 1..join {
            if t == 1 || g.bool() {
                let value = gen_drive(g, width);
                scripts[0].push(drive(g, t, value));
            }
        }
        let value = gen_drive(g, width);
        scripts[1].push(drive(g, join, value));
        let release = g.range_u64(join + 1, join + 6);
        let releaser = g.range_usize(0, 2);
        for t in join + 1..join + 12 {
            for (slot, script) in scripts.iter_mut().enumerate() {
                if slot == releaser && t == release {
                    script.push(drive(g, t, LogicVector::high_z(width)));
                } else if g.range_usize(0, 3) == 0 {
                    let value = gen_drive(g, width);
                    script.push(drive(g, t, value));
                }
            }
        }

        // Either process may be the sole driver: the first registered one
        // or the second.
        if g.bool() {
            scripts.swap(0, 1);
        }
        let mut sim = Simulator::new();
        let signal = sim.add_signal("bus", width);
        for drive in &scripts[2] {
            drive.poke(&mut sim, signal);
        }
        for script in &scripts[..2] {
            let steps = script.clone();
            sim.add_process(Box::new(Script { signal, steps }), &[]);
        }

        // The model: every driver's latest contribution, in first-drive
        // order, resolved after each transaction.
        let mut table: Vec<(usize, LogicVector)> = Vec::new();
        let mut resolved = LogicVector::uninitialized(width);
        let mut events = 0;
        let mut times: Vec<u64> = scripts.iter().flatten().map(|d| d.at_ps).collect();
        times.sort_unstable();
        times.dedup();
        for t in times {
            // Pokes were scheduled first, so they apply first at a shared
            // instant; then the processes' vector drives in registration
            // order; then, a delta cycle later, their word drives in the
            // same order.
            let order = [
                (2, false),
                (2, true),
                (0, false),
                (1, false),
                (0, true),
                (1, true),
            ];
            for (slot, as_word) in order {
                let due = scripts[slot]
                    .iter()
                    .filter(|d| d.at_ps == t && d.as_word == as_word);
                for Drive { value, .. } in due {
                    match table.iter_mut().find(|(d, _)| *d == slot) {
                        Some(entry) => entry.1 = value.clone(),
                        None => table.push((slot, value.clone())),
                    }
                    let mut next = table[0].1.clone();
                    for (_, d) in &table[1..] {
                        next.resolve_assign(d);
                    }
                    if next != resolved {
                        events += 1;
                        resolved = next;
                    }
                }
            }
            assert!(sim.step_time().expect("step"));
            assert_eq!(sim.now(), SimTime::from_picos(t));
            assert_eq!(sim.read(signal), &resolved, "value at {t} ps");
            assert_eq!(sim.read_u64(signal), resolved.to_u64(), "u64 at {t} ps");
            let info = sim.signal_info(signal);
            assert_eq!(info.event_count, events, "events at {t} ps");
        }
        assert!(!sim.step_time().expect("drained"));
    });
}

/// Word-wise resolution against the element-wise reference, plus the
/// algebra the IEEE 1164 table promises (commutativity, and agreement of
/// the in-place form with the pure form).
#[test]
fn packed_resolution_matches_elementwise_model() {
    cases("packed_resolution_matches_elementwise_model", |g| {
        let width = g.range_usize(1, 513);
        let a = g.vec_of(width, width + 1, gen_logic);
        let b = g.vec_of(width, width + 1, gen_logic);
        let va = LogicVector::from_bits(&a);
        let vb = LogicVector::from_bits(&b);
        let resolved = va.resolve(&vb);
        let model: Vec<Logic> = a.iter().zip(&b).map(|(x, y)| x.resolve(*y)).collect();
        assert_eq!(resolved.to_bits(), model);
        assert_eq!(vb.resolve(&va), resolved, "resolution must commute");
        let mut vc = va.clone();
        vc.resolve_assign(&vb);
        assert_eq!(vc, resolved, "in-place form must agree");
    });
}

#[test]
fn lint_findings_always_use_registered_codes() {
    cases("lint_findings_always_use_registered_codes", |g| {
        // Throw a random (mostly broken) data set at the pin-map pass and
        // check every finding carries a documented code whose registered
        // severity matches the emitted one.
        let mut cfg = PinMapConfig::default();
        let ports = g.range_usize(1, 6);
        for _ in 0..ports {
            cfg.inports.push(InportMapping {
                number: g.range_usize(0, 4),
                width: g.range_usize(0, 12),
                segments: vec![PinSegment::new(
                    g.range_usize(0, 20),
                    g.range_usize(0, 10),
                    g.range_usize(0, 10),
                )],
            });
        }
        for d in castanet_lint::passes::pinmap::check_pinmap(&cfg, None) {
            let (severity, _) = castanet_lint::code_info(d.code)
                .unwrap_or_else(|| panic!("undocumented code {}", d.code));
            assert_eq!(severity, d.severity, "severity drift for {}", d.code);
        }
    });
}

// ---------------------------------------------------------------------
// RTL netlist structural analysis
// ---------------------------------------------------------------------

mod netgen {
    //! Random loop-free netlist generator: executable XOR gates that also
    //! declare their dataflow, so the same fixture drives both the event
    //! kernel and the static analyses.

    use super::harness::Gen;
    use castanet_rtl::logic::Logic;
    use castanet_rtl::netlist::ProcessIo;
    use castanet_rtl::signal::SignalId;
    use castanet_rtl::sim::{RtlCtx, RtlProcess, Simulator};
    use std::collections::HashSet;

    /// XOR-reduce over the read set; `One` counts as 1, everything else
    /// (including `U`/`X`) as 0, so the fixpoint is defined from reset.
    pub struct XorGate {
        pub name: String,
        pub reads: Vec<SignalId>,
        pub out: SignalId,
    }

    impl RtlProcess for XorGate {
        fn run(&mut self, ctx: &mut RtlCtx) {
            let acc = self
                .reads
                .iter()
                .fold(false, |acc, &s| acc ^ (ctx.read_bit(s) == Logic::One));
            ctx.assign_bit(self.out, if acc { Logic::One } else { Logic::Zero });
        }

        fn io(&self) -> Option<ProcessIo> {
            Some(
                ProcessIo::combinational(self.name.clone())
                    .reads(self.reads.iter().copied())
                    .writes([self.out]),
            )
        }
    }

    pub struct Fixture {
        pub sim: Simulator,
        pub inputs: Vec<SignalId>,
        /// One entry per gate: (reads, out), in creation order.
        pub gates: Vec<(Vec<SignalId>, SignalId)>,
    }

    /// A random layered DAG: every gate reads only previously created
    /// signals and writes a fresh one, so loops are impossible by
    /// construction. Terminal signals are marked external outputs (they
    /// are the observation points, and unobserved sinks would trip the
    /// dead-signal check by design).
    pub fn loop_free(g: &mut Gen) -> Fixture {
        let mut sim = Simulator::new();
        let mut pool = Vec::new();
        let mut inputs = Vec::new();
        for i in 0..g.range_usize(2, 6) {
            let s = sim.add_signal(format!("in{i}"), 1);
            sim.mark_external_input(s);
            pool.push(s);
            inputs.push(s);
        }
        let mut gates = Vec::new();
        for k in 0..g.range_usize(1, 24) {
            let fanin = g.range_usize(1, 4.min(pool.len() + 1));
            let mut reads: Vec<SignalId> = Vec::new();
            while reads.len() < fanin {
                let s = pool[g.range_usize(0, pool.len())];
                if !reads.contains(&s) {
                    reads.push(s);
                }
            }
            let out = sim.add_signal(format!("n{k}"), 1);
            let gate = XorGate {
                name: format!("g{k}"),
                reads: reads.clone(),
                out,
            };
            sim.add_process(Box::new(gate), &reads);
            pool.push(out);
            gates.push((reads, out));
        }
        let observed: HashSet<SignalId> = gates
            .iter()
            .flat_map(|(reads, _)| reads.iter().copied())
            .collect();
        for &(_, out) in &gates {
            if !observed.contains(&out) {
                sim.mark_external_output(out);
            }
        }
        Fixture { sim, inputs, gates }
    }
}

#[test]
fn random_loop_free_netlists_are_clean_and_levelize_fully() {
    cases(
        "random_loop_free_netlists_are_clean_and_levelize_fully",
        |g| {
            let fx = netgen::loop_free(g);
            let net = fx.sim.netlist();
            let diags = castanet_lint::passes::rtl_structure::check_netlist(&net);
            // No CAST100 means the gates have a topological order, so they
            // levelize fully; creation order is one such order.
            assert!(diags.is_empty(), "loop-free DAG flagged: {diags:?}");
        },
    );
}

#[test]
fn level_order_evaluation_matches_event_kernel_fixpoint() {
    use castanet_rtl::logic::Logic;
    use std::collections::HashMap;
    cases(
        "level_order_evaluation_matches_event_kernel_fixpoint",
        |g| {
            let mut fx = netgen::loop_free(g);

            // Drive every external input with a random bit and let the event
            // kernel settle through its delta cycles.
            let mut model: HashMap<castanet_rtl::signal::SignalId, bool> = HashMap::new();
            for &input in &fx.inputs {
                let v = g.bool();
                model.insert(input, v);
                fx.sim
                    .poke_bit(
                        input,
                        if v { Logic::One } else { Logic::Zero },
                        SimTime::ZERO,
                    )
                    .expect("poke");
            }
            fx.sim.run_to_quiescence().expect("settle");

            // Reference: one single pass in gate creation order — no
            // iteration, no events. Every gate reads only signals created
            // before it, so creation order is topological and this pass
            // reaches the same fixpoint the kernel converges to.
            for (reads, out) in &fx.gates {
                let value = reads.iter().fold(false, |acc, s| acc ^ model[s]);
                model.insert(*out, value);
            }
            for &(_, out) in &fx.gates {
                assert_eq!(
                    fx.sim.read_bit(out) == Logic::One,
                    model[&out],
                    "event kernel and creation-order evaluation disagree on {out}"
                );
            }
        },
    );
}

#[test]
fn seeded_back_edge_trips_cast100_and_breaks_levelization() {
    use netgen::XorGate;
    cases(
        "seeded_back_edge_trips_cast100_and_breaks_levelization",
        |g| {
            let mut fx = netgen::loop_free(g);
            // Close a cycle: a new gate feeds some gate's output back into one
            // of the signals that gate reads.
            let (reads, out) = fx.gates[g.range_usize(0, fx.gates.len())].clone();
            let back_into = reads[g.range_usize(0, reads.len())];
            fx.sim.add_process(
                Box::new(XorGate {
                    name: "back_edge".into(),
                    reads: vec![out],
                    out: back_into,
                }),
                &[out],
            );
            let net = fx.sim.netlist();
            let diags = castanet_lint::passes::rtl_structure::check_netlist(&net);
            assert!(
                diags.iter().any(|d| d.code == "CAST100"),
                "back edge not reported: {diags:?}"
            );
        },
    );
}

#[test]
fn seeded_second_driver_trips_cast110() {
    use netgen::XorGate;
    cases("seeded_second_driver_trips_cast110", |g| {
        let mut fx = netgen::loop_free(g);
        let (_, victim) = fx.gates[g.range_usize(0, fx.gates.len())];
        let input = fx.inputs[g.range_usize(0, fx.inputs.len())];
        fx.sim.add_process(
            Box::new(XorGate {
                name: "rogue_driver".into(),
                reads: vec![input],
                out: victim,
            }),
            &[input],
        );
        let diags = castanet_lint::passes::rtl_structure::check_rtl_structure(&fx.sim);
        assert!(
            diags.iter().any(|d| d.code == "CAST110"),
            "double driver not reported: {diags:?}"
        );
    });
}

#[test]
fn seeded_pruned_sensitivity_trips_exactly_cast120() {
    use netgen::XorGate;
    cases("seeded_pruned_sensitivity_trips_exactly_cast120", |g| {
        let mut fx = netgen::loop_free(g);
        // A gate that reads two signals but only registered one of them in
        // its sensitivity list — the classic stale-output bug.
        let a = fx.inputs[0];
        let b = fx.inputs[1];
        let out = fx.sim.add_signal("pruned_out", 1);
        fx.sim.mark_external_output(out);
        fx.sim.add_process(
            Box::new(XorGate {
                name: "pruned".into(),
                reads: vec![a, b],
                out,
            }),
            &[a], // b missing
        );
        let diags = castanet_lint::passes::rtl_structure::check_rtl_structure(&fx.sim);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "CAST120");
        assert!(diags[0].message.contains("in1"), "{}", diags[0].message);
    });
}

#[test]
fn span_guards_survive_any_interleaving_of_drops_and_leaks() {
    use castanet_obs::{EventKind as ObsEventKind, Phase, SpanGuard, Telemetry, Track};
    use std::cell::Cell;

    // The span-depth bookkeeping is thread-local and a forgotten guard
    // leaves it raised for good; the model mirrors the counter across
    // cases so every recorded depth — under arbitrary interleavings of
    // out-of-order drops and leaks — is predicted exactly.
    let depth_now = Cell::new(0u32);
    cases(
        "span_guards_survive_any_interleaving_of_drops_and_leaks",
        |g| {
            let tel = Telemetry::enabled();
            let phases = [
                Phase::KernelAdvance,
                Phase::ParallelGrant,
                Phase::ParallelWait,
                Phase::ParallelDrain,
            ];
            let mut open: Vec<SpanGuard<'_>> = Vec::new();
            let mut open_phases: Vec<Phase> = Vec::new();
            let mut expected: Vec<(Phase, u32)> = Vec::new();
            for _ in 0..g.range_usize(1, 24) {
                match g.range_usize(0, 4) {
                    0 | 1 => {
                        let phase = phases[g.range_usize(0, phases.len())];
                        open.push(tel.span(Track::Follower, 1, phase));
                        open_phases.push(phase);
                        depth_now.set(depth_now.get().saturating_add(1));
                    }
                    // Unbalanced close: drop a guard at an arbitrary position;
                    // it records the *post-decrement* drop-time depth.
                    2 if !open.is_empty() => {
                        let i = g.range_usize(0, open.len());
                        drop(open.swap_remove(i));
                        let phase = open_phases.swap_remove(i);
                        depth_now.set(depth_now.get().saturating_sub(1));
                        expected.push((phase, depth_now.get()));
                    }
                    // Leak: records nothing, depth stays raised.
                    3 if !open.is_empty() => {
                        let i = g.range_usize(0, open.len());
                        std::mem::forget(open.swap_remove(i));
                        open_phases.swap_remove(i);
                    }
                    _ => {}
                }
            }
            while let Some(guard) = open.pop() {
                drop(guard);
                let phase = open_phases.pop().expect("one phase per guard");
                depth_now.set(depth_now.get().saturating_sub(1));
                expected.push((phase, depth_now.get()));
            }
            let got: Vec<(Phase, u32)> = tel
                .events()
                .iter()
                .map(|e| match e.kind {
                    ObsEventKind::PhaseSpan { phase, depth } => (phase, depth),
                    ref other => panic!("unexpected event {other:?}"),
                })
                .collect();
            assert_eq!(got, expected);
        },
    );
}
