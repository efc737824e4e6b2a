//! The pin-mapping configuration data set of Fig. 5.
//!
//! "The signal mapping of bit-level signals to the hardware test board pins
//! is specified in a configuration data set. The configuration data set
//! collects the information in terms of byte lane ID, start bit position
//! and number of bits, provided by the user, to automatically establish the
//! input port mapping, output port mapping, I/O port mapping and the
//! associated control port mapping." (§3.3, Fig. 5)
//!
//! Because the board's bit-level data flows are unidirectional, a DUT bus
//! interface is modelled by *three* ports — an inport, an outport and a
//! control port whose value against a predefined write flag selects the
//! active direction — exactly as the paper prescribes.
//!
//! A segment's `start_bit` is MSB-anchored, as in the figure: start bit 7
//! with 6 bits occupies lane bits `7..=2`.

use crate::error::BoardError;
use crate::lane::{check_lane, LaneConfig, LaneDirection, LANES, LANE_BITS};
use std::collections::{HashMap, HashSet};

/// One contiguous run of pins on a byte lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinSegment {
    /// Byte lane ID (0..16).
    pub lane: usize,
    /// Start bit position (MSB of the segment, 0..8).
    pub start_bit: usize,
    /// Number of bits (downward from `start_bit`).
    pub bits: usize,
}

impl PinSegment {
    /// Creates a segment.
    #[must_use]
    pub fn new(lane: usize, start_bit: usize, bits: usize) -> Self {
        PinSegment {
            lane,
            start_bit,
            bits,
        }
    }

    /// Validates lane index and bit range.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::LaneOutOfRange`] or
    /// [`BoardError::SegmentOutOfLane`].
    pub fn validate(&self) -> Result<(), BoardError> {
        check_lane(self.lane)?;
        if self.bits == 0 || self.start_bit >= LANE_BITS || self.bits > self.start_bit + 1 {
            return Err(BoardError::SegmentOutOfLane {
                lane: self.lane,
                start_bit: self.start_bit,
                bits: self.bits,
            });
        }
        Ok(())
    }

    /// The lane bit positions the segment covers, MSB first.
    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        (self.start_bit + 1 - self.bits..=self.start_bit).rev()
    }
}

/// Mapping of one board-driven port (DUT input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InportMapping {
    /// Inport number (user-chosen identifier).
    pub number: usize,
    /// Port width in bits.
    pub width: usize,
    /// Pin segments, most significant first.
    pub segments: Vec<PinSegment>,
}

/// Mapping of one board-sampled port (DUT output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutportMapping {
    /// Outport number.
    pub number: usize,
    /// Port width in bits.
    pub width: usize,
    /// Pin segments, most significant first.
    pub segments: Vec<PinSegment>,
}

/// A DUT bus interface: three unidirectional ports tied together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoPortMapping {
    /// Inport number carrying data written *to* the DUT.
    pub inport: usize,
    /// Outport number carrying data read *from* the DUT.
    pub outport: usize,
    /// Control port whose value selects the direction.
    pub ctrlport: usize,
}

/// Mapping of a control port (sampled from the DUT) with its write flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtrlportMapping {
    /// Ctrlport number.
    pub number: usize,
    /// Port width in bits.
    pub width: usize,
    /// Pin segments, most significant first.
    pub segments: Vec<PinSegment>,
    /// Value signalling "DUT writes" on the associated I/O port.
    pub write_value: u64,
}

/// One pin frame: the value of every byte lane at one board clock.
pub type PinFrame = [u8; LANES];

/// The complete configuration data set of Fig. 5.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PinMapConfig {
    /// Input port mappings.
    pub inports: Vec<InportMapping>,
    /// Output port mappings.
    pub outports: Vec<OutportMapping>,
    /// I/O (bus) port mappings.
    pub ioports: Vec<IoPortMapping>,
    /// Control port mappings.
    pub ctrlports: Vec<CtrlportMapping>,
}

fn check_unique_numbers(
    kind: &'static str,
    numbers: impl Iterator<Item = usize>,
) -> Result<(), BoardError> {
    let mut seen = HashSet::new();
    for n in numbers {
        if !seen.insert(n) {
            return Err(BoardError::DuplicatePort { kind, port: n });
        }
    }
    Ok(())
}

fn check_port(
    width: usize,
    segments: &[PinSegment],
    claimed: &mut HashSet<(usize, usize)>,
) -> Result<(), BoardError> {
    let mapped: usize = segments.iter().map(|s| s.bits).sum();
    if mapped != width || width == 0 || width > 64 {
        return Err(BoardError::WidthMismatch {
            declared: width,
            mapped,
        });
    }
    for seg in segments {
        seg.validate()?;
        for bit in seg.positions() {
            if !claimed.insert((seg.lane, bit)) {
                return Err(BoardError::PinConflict {
                    lane: seg.lane,
                    bit,
                });
            }
        }
    }
    Ok(())
}

impl PinMapConfig {
    /// Validates the whole data set: segment bounds, width sums, pin
    /// uniqueness, I/O references and direction consistency against the
    /// lane configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, lanes: &[LaneConfig; LANES]) -> Result<(), BoardError> {
        check_unique_numbers("inport", self.inports.iter().map(|p| p.number))?;
        check_unique_numbers("outport", self.outports.iter().map(|p| p.number))?;
        check_unique_numbers("ctrlport", self.ctrlports.iter().map(|p| p.number))?;
        let mut claimed = HashSet::new();
        for p in &self.inports {
            check_port(p.width, &p.segments, &mut claimed)?;
            for seg in &p.segments {
                if lanes[seg.lane].direction != LaneDirection::Drive {
                    return Err(BoardError::DirectionConflict { lane: seg.lane });
                }
            }
        }
        for p in &self.outports {
            check_port(p.width, &p.segments, &mut claimed)?;
            for seg in &p.segments {
                if lanes[seg.lane].direction != LaneDirection::Sample {
                    return Err(BoardError::DirectionConflict { lane: seg.lane });
                }
            }
        }
        for p in &self.ctrlports {
            check_port(p.width, &p.segments, &mut claimed)?;
            if p.write_value >= (1u64 << p.width) {
                return Err(BoardError::ValueTooWide {
                    port: p.number,
                    width: p.width,
                });
            }
            for seg in &p.segments {
                if lanes[seg.lane].direction != LaneDirection::Sample {
                    return Err(BoardError::DirectionConflict { lane: seg.lane });
                }
            }
        }
        for io in &self.ioports {
            self.inport(io.inport)
                .ok_or(BoardError::UnknownPort { port: io.inport })?;
            self.outport(io.outport)
                .ok_or(BoardError::UnknownPort { port: io.outport })?;
            self.ctrlport(io.ctrlport)
                .ok_or(BoardError::UnknownPort { port: io.ctrlport })?;
        }
        Ok(())
    }

    /// Every pin position `(lane, bit)` claimed by more than one segment
    /// across the whole data set, in lane/bit order — the exhaustive form of
    /// the [`BoardError::PinConflict`] check, reporting *all* overlaps
    /// instead of failing on the first. Out-of-range segments are skipped
    /// here ([`PinSegment::validate`] covers them).
    #[must_use]
    pub fn pin_conflicts(&self) -> Vec<(usize, usize)> {
        let mut claims: HashMap<(usize, usize), usize> = HashMap::new();
        let all_segments = self
            .inports
            .iter()
            .flat_map(|p| p.segments.iter())
            .chain(self.outports.iter().flat_map(|p| p.segments.iter()))
            .chain(self.ctrlports.iter().flat_map(|p| p.segments.iter()));
        for seg in all_segments {
            if seg.validate().is_err() {
                continue;
            }
            for bit in seg.positions() {
                *claims.entry((seg.lane, bit)).or_insert(0) += 1;
            }
        }
        let mut conflicts: Vec<(usize, usize)> = claims
            .into_iter()
            .filter(|&(_, n)| n > 1)
            .map(|(pin, _)| pin)
            .collect();
        conflicts.sort_unstable();
        conflicts
    }

    /// Finds an inport by number.
    #[must_use]
    pub fn inport(&self, number: usize) -> Option<&InportMapping> {
        self.inports.iter().find(|p| p.number == number)
    }

    /// Finds an outport by number.
    #[must_use]
    pub fn outport(&self, number: usize) -> Option<&OutportMapping> {
        self.outports.iter().find(|p| p.number == number)
    }

    /// Finds a control port by number.
    #[must_use]
    pub fn ctrlport(&self, number: usize) -> Option<&CtrlportMapping> {
        self.ctrlports.iter().find(|p| p.number == number)
    }

    /// Writes `value` onto inport `number`'s pins in `frame`.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::UnknownPort`] or [`BoardError::ValueTooWide`].
    pub fn encode_inport(
        &self,
        number: usize,
        value: u64,
        frame: &mut PinFrame,
    ) -> Result<(), BoardError> {
        let port = self
            .inport(number)
            .ok_or(BoardError::UnknownPort { port: number })?;
        if port.width < 64 && value >= (1u64 << port.width) {
            return Err(BoardError::ValueTooWide {
                port: number,
                width: port.width,
            });
        }
        encode_segments(&port.segments, port.width, value, frame);
        Ok(())
    }

    /// Reads outport `number`'s pins from `frame`.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::UnknownPort`].
    pub fn decode_outport(&self, number: usize, frame: &PinFrame) -> Result<u64, BoardError> {
        let port = self
            .outport(number)
            .ok_or(BoardError::UnknownPort { port: number })?;
        Ok(decode_segments(&port.segments, frame))
    }

    /// Reads control port `number`'s pins from `frame`.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::UnknownPort`].
    pub fn decode_ctrlport(&self, number: usize, frame: &PinFrame) -> Result<u64, BoardError> {
        let port = self
            .ctrlport(number)
            .ok_or(BoardError::UnknownPort { port: number })?;
        Ok(decode_segments(&port.segments, frame))
    }

    /// `true` when I/O port `number`'s control value in `frame` matches its
    /// write flag — i.e. the DUT is writing and the outport view is valid.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::UnknownPort`].
    pub fn io_is_write(&self, number: usize, frame: &PinFrame) -> Result<bool, BoardError> {
        let io = self
            .ioports
            .iter()
            .find(|io| io.inport == number || io.outport == number)
            .ok_or(BoardError::UnknownPort { port: number })?;
        let ctrl = self
            .ctrlport(io.ctrlport)
            .ok_or(BoardError::UnknownPort { port: io.ctrlport })?;
        Ok(decode_segments(&ctrl.segments, frame) == ctrl.write_value)
    }

    /// A reconstruction of the Fig. 5 example data set: three inports, two
    /// outports, one bus (I/O) interface and its control port.
    #[must_use]
    pub fn fig5_example() -> (Self, [LaneConfig; LANES]) {
        let mut lanes = [LaneConfig::drive(); LANES];
        // Lanes 3 and 6 carry DUT outputs, lane 7 the control flags.
        lanes[3] = LaneConfig::sample();
        lanes[6] = LaneConfig::sample();
        lanes[7] = LaneConfig::sample();
        let cfg = PinMapConfig {
            inports: vec![
                InportMapping {
                    number: 1,
                    width: 6,
                    segments: vec![PinSegment::new(2, 7, 6)],
                },
                InportMapping {
                    number: 2,
                    width: 8,
                    segments: vec![PinSegment::new(1, 7, 8)],
                },
                InportMapping {
                    number: 3,
                    width: 12,
                    segments: vec![
                        PinSegment::new(0, 7, 8),
                        PinSegment::new(2, 1, 2),
                        PinSegment::new(4, 7, 2),
                    ],
                },
            ],
            outports: vec![
                OutportMapping {
                    number: 1,
                    width: 4,
                    segments: vec![PinSegment::new(3, 7, 4)],
                },
                OutportMapping {
                    number: 2,
                    width: 6,
                    segments: vec![PinSegment::new(6, 5, 6)],
                },
            ],
            ioports: vec![IoPortMapping {
                inport: 2,
                outport: 2,
                ctrlport: 3,
            }],
            ctrlports: vec![CtrlportMapping {
                number: 3,
                width: 2,
                segments: vec![PinSegment::new(7, 1, 2)],
                write_value: 3,
            }],
        };
        (cfg, lanes)
    }
}

pub(crate) fn encode_segments(
    segments: &[PinSegment],
    width: usize,
    value: u64,
    frame: &mut PinFrame,
) {
    // Segments are MSB-first: the first segment holds the top bits.
    let mut remaining = width;
    for seg in segments {
        remaining -= seg.bits;
        let chunk = (value >> remaining) & mask(seg.bits);
        let lane = &mut frame[seg.lane];
        let shift = seg.start_bit + 1 - seg.bits;
        let lane_mask = (mask(seg.bits) as u8) << shift;
        *lane = (*lane & !lane_mask) | (((chunk as u8) << shift) & lane_mask);
    }
}

pub(crate) fn decode_segments(segments: &[PinSegment], frame: &PinFrame) -> u64 {
    let mut out = 0u64;
    for seg in segments {
        let shift = seg.start_bit + 1 - seg.bits;
        let chunk = u64::from(frame[seg.lane] >> shift) & mask(seg.bits);
        out = (out << seg.bits) | chunk;
    }
    out
}

fn mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_positions_are_msb_anchored() {
        let seg = PinSegment::new(2, 7, 6);
        let pos: Vec<usize> = seg.positions().collect();
        assert_eq!(pos, vec![7, 6, 5, 4, 3, 2]);
        assert!(seg.validate().is_ok());
    }

    #[test]
    fn segment_validation() {
        assert!(PinSegment::new(16, 7, 1).validate().is_err());
        assert!(PinSegment::new(0, 8, 1).validate().is_err());
        assert!(PinSegment::new(0, 2, 4).validate().is_err()); // 4 bits below bit 2
        assert!(PinSegment::new(0, 2, 3).validate().is_ok());
        assert!(PinSegment::new(0, 0, 0).validate().is_err());
    }

    #[test]
    fn fig5_example_validates() {
        let (cfg, lanes) = PinMapConfig::fig5_example();
        cfg.validate(&lanes).unwrap();
        assert_eq!(cfg.inports.len(), 3);
        assert_eq!(cfg.outports.len(), 2);
        assert_eq!(cfg.ioports.len(), 1);
        assert_eq!(cfg.ctrlports.len(), 1);
    }

    #[test]
    fn inport_encode_decode_roundtrip() {
        let (cfg, _) = PinMapConfig::fig5_example();
        let mut frame: PinFrame = [0; LANES];
        cfg.encode_inport(1, 0b101011, &mut frame).unwrap();
        // Lane 2, bits 7..=2.
        assert_eq!(frame[2], 0b1010_1100);
        cfg.encode_inport(2, 0xA5, &mut frame).unwrap();
        assert_eq!(frame[1], 0xA5);
    }

    #[test]
    fn multi_segment_port_spans_lanes() {
        let (cfg, _) = PinMapConfig::fig5_example();
        let mut frame: PinFrame = [0; LANES];
        // Port 3: 12 bits = lane0[7..0] (8) + lane2[1..0] (2) + lane4[7..6] (2).
        cfg.encode_inport(3, 0xABC, &mut frame).unwrap();
        assert_eq!(frame[0], 0xAB);
        assert_eq!(frame[2] & 0b11, 0b11); // 0xC = 1100 -> top 2 bits "11"
        assert_eq!(frame[4] >> 6, 0b00);
        // Re-encoding port 1 on lane 2 must not clobber port 3's bits.
        cfg.encode_inport(1, 0, &mut frame).unwrap();
        assert_eq!(frame[2] & 0b11, 0b11);
    }

    #[test]
    fn outport_decoding() {
        let (cfg, _) = PinMapConfig::fig5_example();
        let mut frame: PinFrame = [0; LANES];
        frame[3] = 0b1011_0000; // outport 1: bits 7..=4 = 0b1011
        assert_eq!(cfg.decode_outport(1, &frame).unwrap(), 0b1011);
        frame[6] = 0b0010_1010; // outport 2: bits 5..=0
        assert_eq!(cfg.decode_outport(2, &frame).unwrap(), 0b10_1010);
    }

    #[test]
    fn io_direction_follows_ctrl_flags() {
        let (cfg, _) = PinMapConfig::fig5_example();
        let mut frame: PinFrame = [0; LANES];
        // ctrl port 3: lane 7 bits 1..=0, write value 3.
        frame[7] = 0b0000_0011;
        assert!(cfg.io_is_write(2, &frame).unwrap());
        frame[7] = 0b0000_0001;
        assert!(!cfg.io_is_write(2, &frame).unwrap());
        assert_eq!(cfg.decode_ctrlport(3, &frame).unwrap(), 1);
    }

    #[test]
    fn pin_conflicts_rejected() {
        let (mut cfg, lanes) = PinMapConfig::fig5_example();
        cfg.inports.push(InportMapping {
            number: 9,
            width: 2,
            segments: vec![PinSegment::new(2, 7, 2)], // overlaps inport 1
        });
        assert!(matches!(
            cfg.validate(&lanes),
            Err(BoardError::PinConflict { lane: 2, .. })
        ));
    }

    #[test]
    fn width_sum_must_match() {
        let (mut cfg, lanes) = PinMapConfig::fig5_example();
        cfg.inports[0].width = 7; // segments still sum to 6
        assert!(matches!(
            cfg.validate(&lanes),
            Err(BoardError::WidthMismatch {
                declared: 7,
                mapped: 6
            })
        ));
    }

    #[test]
    fn direction_conflicts_rejected() {
        let (cfg, mut lanes) = PinMapConfig::fig5_example();
        lanes[2] = LaneConfig::sample(); // inport 1 lives on lane 2
        assert!(matches!(
            cfg.validate(&lanes),
            Err(BoardError::DirectionConflict { lane: 2 })
        ));
    }

    #[test]
    fn dangling_io_reference_rejected() {
        let (mut cfg, lanes) = PinMapConfig::fig5_example();
        cfg.ioports[0].ctrlport = 99;
        assert!(matches!(
            cfg.validate(&lanes),
            Err(BoardError::UnknownPort { port: 99 })
        ));
    }

    #[test]
    fn oversized_values_rejected() {
        let (cfg, _) = PinMapConfig::fig5_example();
        let mut frame: PinFrame = [0; LANES];
        assert!(matches!(
            cfg.encode_inport(1, 64, &mut frame),
            Err(BoardError::ValueTooWide { port: 1, width: 6 })
        ));
    }

    #[test]
    fn unknown_ports_rejected() {
        let (cfg, _) = PinMapConfig::fig5_example();
        let mut frame: PinFrame = [0; LANES];
        assert!(cfg.encode_inport(42, 0, &mut frame).is_err());
        assert!(cfg.decode_outport(42, &frame).is_err());
        assert!(cfg.io_is_write(42, &frame).is_err());
    }

    #[test]
    fn ctrl_write_value_must_fit_width() {
        let (mut cfg, lanes) = PinMapConfig::fig5_example();
        cfg.ctrlports[0].write_value = 4; // width 2 -> max 3
        assert!(matches!(
            cfg.validate(&lanes),
            Err(BoardError::ValueTooWide { port: 3, width: 2 })
        ));
    }

    #[test]
    fn roundtrip_encode_then_decode_many_values() {
        // Build an inport and an equally mapped outport on different lanes
        // and check value integrity across the frame.
        let cfg = PinMapConfig {
            inports: vec![InportMapping {
                number: 1,
                width: 11,
                segments: vec![PinSegment::new(0, 7, 8), PinSegment::new(1, 2, 3)],
            }],
            outports: vec![],
            ioports: vec![],
            ctrlports: vec![],
        };
        for value in [0u64, 1, 0x7FF, 0x555, 0x2AA] {
            let mut frame: PinFrame = [0; LANES];
            cfg.encode_inport(1, value, &mut frame).unwrap();
            let segs = &cfg.inports[0].segments;
            assert_eq!(decode_segments(segs, &frame), value, "value {value:#x}");
        }
    }
    #[test]
    fn duplicate_port_numbers_are_rejected() {
        let (mut cfg, lanes) = PinMapConfig::fig5_example();
        cfg.inports.push(InportMapping {
            number: 1, // already taken by the first fig. 5 inport
            width: 2,
            segments: vec![PinSegment::new(5, 7, 2)],
        });
        match cfg.validate(&lanes) {
            Err(BoardError::DuplicatePort {
                kind: "inport",
                port: 1,
            }) => {}
            other => panic!("expected a duplicate-port rejection, got {other:?}"),
        }
    }

    #[test]
    fn pin_conflicts_reports_every_overlap() {
        let (cfg, _) = PinMapConfig::fig5_example();
        assert!(cfg.pin_conflicts().is_empty());

        let mut cfg = cfg;
        // Re-claim lane 1 bits 7..=4 (inport 2 owns all of lane 1).
        cfg.inports.push(InportMapping {
            number: 9,
            width: 4,
            segments: vec![PinSegment::new(1, 7, 4)],
        });
        assert_eq!(cfg.pin_conflicts(), vec![(1, 4), (1, 5), (1, 6), (1, 7)]);
    }

    #[test]
    fn pin_conflicts_skips_invalid_segments() {
        let mut cfg = PinMapConfig::default();
        cfg.inports.push(InportMapping {
            number: 0,
            width: 1,
            segments: vec![PinSegment::new(99, 7, 1)], // out of range
        });
        assert!(cfg.pin_conflicts().is_empty());
    }
}
