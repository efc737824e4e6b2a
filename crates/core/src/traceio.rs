//! Recording and replaying test vectors.
//!
//! "Of course, it is possible to run the simulation in the background while
//! dumping the output data into a file and to re-run previously generated
//! test vectors." (§3) — trace files decouple stimulus generation from DUT
//! execution: record a network simulation's cell stream once, replay it
//! against as many design revisions as needed.
//!
//! The format is line-oriented text (diff-able, versionable):
//!
//! ```text
//! # castanet-trace v1
//! S 10000000 0 <106 hex chars>    # stimulus: stamp_ps port cell
//! R 12345678 1 <106 hex chars>    # response: stamp_ps port cell
//! ```

use crate::error::CastanetError;
use crate::message::{Message, MessagePayload, MessageTypeId};
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::{AtmCell, CELL_OCTETS};
use castanet_netsim::time::SimTime;
use std::io::{BufRead, Write};

/// Header line identifying the format.
pub const TRACE_HEADER: &str = "# castanet-trace v1";

/// Direction of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Toward the DUT.
    Stimulus,
    /// From the DUT.
    Response,
}

impl Direction {
    fn letter(self) -> char {
        match self {
            Direction::Stimulus => 'S',
            Direction::Response => 'R',
        }
    }
}

/// One recorded cell transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Stimulus or response.
    pub direction: Direction,
    /// Simulation time of the transfer.
    pub stamp: SimTime,
    /// Co-simulation port.
    pub port: usize,
    /// The cell.
    pub cell: AtmCell,
}

/// Streams records into any writer.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    format: HeaderFormat,
    records: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace, writing the header line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn new(mut out: W, format: HeaderFormat) -> Result<Self, CastanetError> {
        writeln!(out, "{TRACE_HEADER}")?;
        Ok(TraceWriter {
            out,
            format,
            records: 0,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O and cell-encoding errors.
    pub fn write(&mut self, record: &TraceRecord) -> Result<(), CastanetError> {
        let wire = record.cell.encode(self.format)?;
        let mut hex = String::with_capacity(CELL_OCTETS * 2);
        for b in wire {
            use std::fmt::Write as _;
            let _ = write!(hex, "{b:02x}");
        }
        writeln!(
            self.out,
            "{} {} {} {}",
            record.direction.letter(),
            record.stamp.as_picos(),
            record.port,
            hex
        )?;
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Finishes the trace, returning the writer.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn finish(mut self) -> Result<W, CastanetError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Reads a whole trace from any buffered reader.
///
/// # Errors
///
/// Returns [`CastanetError::Codec`] on format violations and propagates
/// I/O errors.
pub fn read_trace<R: BufRead>(
    reader: R,
    format: HeaderFormat,
) -> Result<Vec<TraceRecord>, CastanetError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| CastanetError::Codec("empty trace".to_string()))?
        .map_err(CastanetError::from)?;
    if header.trim() != TRACE_HEADER {
        return Err(CastanetError::Codec(format!("bad trace header {header:?}")));
    }
    let mut out = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let line = line.map_err(CastanetError::from)?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |what: &str| CastanetError::Codec(format!("line {}: {what}", lineno + 2));
        let dir = match parts.next() {
            Some("S") => Direction::Stimulus,
            Some("R") => Direction::Response,
            _ => return Err(err("expected S or R")),
        };
        let stamp = parts
            .next()
            .and_then(|s| s.parse::<u64>().ok())
            .map(SimTime::from_picos)
            .ok_or_else(|| err("bad time stamp"))?;
        let port = parts
            .next()
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| err("bad port"))?;
        let hex = parts.next().ok_or_else(|| err("missing cell hex"))?;
        if parts.next().is_some() {
            return Err(err("trailing fields"));
        }
        if hex.len() != CELL_OCTETS * 2 {
            return Err(err("cell hex must be 106 characters"));
        }
        // Byte-wise, ASCII hex digits only: a multi-byte character or a
        // sign is a malformed line, not a panic or a number.
        let digit = |c: u8| char::from(c).to_digit(16);
        let mut wire = [0u8; CELL_OCTETS];
        for (byte, pair) in wire.iter_mut().zip(hex.as_bytes().chunks_exact(2)) {
            let (Some(hi), Some(lo)) = (digit(pair[0]), digit(pair[1])) else {
                return Err(err("invalid hex digit"));
            };
            *byte = (hi << 4 | lo) as u8;
        }
        let cell = AtmCell::decode(&wire, format)?;
        out.push(TraceRecord {
            direction: dir,
            stamp,
            port,
            cell,
        });
    }
    Ok(out)
}

/// Converts the stimulus records of a trace into coupling messages for
/// replay, in time order.
#[must_use]
pub fn stimulus_messages(records: &[TraceRecord], type_id: MessageTypeId) -> Vec<Message> {
    let mut msgs: Vec<Message> = records
        .iter()
        .filter(|r| r.direction == Direction::Stimulus)
        .map(|r| Message {
            stamp: r.stamp,
            type_id,
            port: r.port,
            payload: MessagePayload::Cell(r.cell.clone()),
        })
        .collect();
    msgs.sort_by_key(|m| m.stamp);
    msgs
}

#[cfg(test)]
mod tests {
    use super::*;
    use castanet_atm::addr::VpiVci;

    fn rec(dir: Direction, us: u64, port: usize, vci: u16) -> TraceRecord {
        TraceRecord {
            direction: dir,
            stamp: SimTime::from_us(us),
            port,
            cell: AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), [vci as u8; 48]),
        }
    }

    fn roundtrip(records: &[TraceRecord]) -> Vec<TraceRecord> {
        let mut w = TraceWriter::new(Vec::new(), HeaderFormat::Uni).unwrap();
        for r in records {
            w.write(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        read_trace(std::io::Cursor::new(bytes), HeaderFormat::Uni).unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let records = vec![
            rec(Direction::Stimulus, 10, 0, 40),
            rec(Direction::Response, 12, 1, 41),
            rec(Direction::Stimulus, 20, 3, 42),
        ];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn empty_trace_roundtrip() {
        assert_eq!(roundtrip(&[]), vec![]);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let mut w = TraceWriter::new(Vec::new(), HeaderFormat::Uni).unwrap();
        w.write(&rec(Direction::Stimulus, 1, 0, 40)).unwrap();
        let body = String::from_utf8(w.finish().unwrap()).unwrap();
        let line = body.lines().nth(1).unwrap();
        let spliced = format!("{TRACE_HEADER}\n\n# comment\n{line}\n");
        let records = read_trace(std::io::Cursor::new(spliced), HeaderFormat::Uni).unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn bad_header_rejected() {
        let err = read_trace(std::io::Cursor::new("# wrong\n"), HeaderFormat::Uni).unwrap_err();
        assert!(matches!(err, CastanetError::Codec(_)));
    }

    #[test]
    fn malformed_lines_rejected_with_line_numbers() {
        for bad in [
            "X 1 0 aa".to_string(),
            "S notatime 0 aa".to_string(),
            "S 1 0 zz".to_string(),
            format!("S 1 0 {}", "aa".repeat(10)),
            format!("S 1 0 {} extra", "aa".repeat(53)),
            // 106 bytes with a two-byte character straddling a digit pair.
            format!("S 1 0 a\u{e9}{}", "0".repeat(103)),
            // A signed pair, which integer parsing would accept.
            format!("S 1 0 +f{}", "00".repeat(52)),
        ] {
            let text = format!("{TRACE_HEADER}\n{bad}\n");
            let err = read_trace(std::io::Cursor::new(text), HeaderFormat::Uni).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, CastanetError::Codec(_)), "{bad:?} -> {msg}");
            assert!(msg.contains("line 2"), "{bad:?} -> {msg}");
        }
    }

    #[test]
    fn every_truncation_is_a_short_trace_or_names_the_cut_line() {
        let records = vec![
            rec(Direction::Stimulus, 10, 0, 40),
            rec(Direction::Response, 12, 1, 41),
            rec(Direction::Stimulus, 20, 3, 42),
        ];
        let mut w = TraceWriter::new(Vec::new(), HeaderFormat::Uni).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        // (first byte, newline byte) of each record line.
        let mut spans = Vec::new();
        let mut start = TRACE_HEADER.len() + 1;
        for (i, &b) in bytes.iter().enumerate().skip(start) {
            if b == b'\n' {
                spans.push((start, i));
                start = i + 1;
            }
        }
        assert_eq!(spans.len(), records.len());
        for cut in 0..=bytes.len() {
            let got = read_trace(std::io::Cursor::new(&bytes[..cut]), HeaderFormat::Uni);
            let cut_line = spans.iter().position(|&(s, e)| s < cut && cut < e);
            match got {
                Ok(read) => {
                    assert!(cut >= TRACE_HEADER.len(), "cut {cut}: header accepted");
                    assert_eq!(cut_line, None, "cut {cut}: a cut record was accepted");
                    let whole = spans.iter().filter(|&&(_, e)| e <= cut).count();
                    assert_eq!(read, records[..whole], "cut {cut}");
                }
                Err(CastanetError::Codec(msg)) => {
                    let want = match cut_line {
                        Some(i) => format!("line {}:", i + 2),
                        None if cut == 0 => "empty trace".to_string(),
                        None => "bad trace header".to_string(),
                    };
                    assert!(msg.contains(&want), "cut {cut}: {msg:?}, want {want:?}");
                }
                Err(e) => panic!("cut {cut}: {e}"),
            }
        }
    }

    #[test]
    fn corrupted_cell_hex_fails_hec() {
        let mut w = TraceWriter::new(Vec::new(), HeaderFormat::Uni).unwrap();
        w.write(&rec(Direction::Stimulus, 1, 0, 40)).unwrap();
        let mut body = String::from_utf8(w.finish().unwrap()).unwrap();
        // Flip a header nibble in the hex text.
        let idx = body.rfind(' ').unwrap() + 1;
        let replacement = if &body[idx..=idx] == "f" { "0" } else { "f" };
        body.replace_range(idx..=idx, replacement);
        let err = read_trace(std::io::Cursor::new(body), HeaderFormat::Uni).unwrap_err();
        assert!(matches!(err, CastanetError::Atm(_)));
    }

    #[test]
    fn stimulus_extraction_sorts_by_time() {
        let records = vec![
            rec(Direction::Stimulus, 30, 0, 42),
            rec(Direction::Response, 15, 0, 40),
            rec(Direction::Stimulus, 10, 1, 40),
        ];
        let msgs = stimulus_messages(&records, MessageTypeId(3));
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].stamp, SimTime::from_us(10));
        assert_eq!(msgs[0].port, 1);
        assert_eq!(msgs[1].stamp, SimTime::from_us(30));
        assert!(msgs.iter().all(|m| m.type_id == MessageTypeId(3)));
    }

    #[test]
    fn writer_counts_records() {
        let mut w = TraceWriter::new(Vec::new(), HeaderFormat::Uni).unwrap();
        assert_eq!(w.records(), 0);
        w.write(&rec(Direction::Stimulus, 1, 0, 40)).unwrap();
        w.write(&rec(Direction::Response, 2, 0, 40)).unwrap();
        assert_eq!(w.records(), 2);
    }
}
