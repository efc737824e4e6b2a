//! A dependency-free validator for the recorded-telemetry formats.
//!
//! The `castanet-obs-check` binary and the CI smoke job feed recorded
//! JSONL through [`validate_jsonl`] (and profile documents through
//! [`validate_profile`]) to catch exporter regressions: a line that is
//! not syntactically JSON, is missing a required key, names an event
//! outside the taxonomy, or stamps a field with the wrong type. The
//! parser below is a minimal recursive-descent JSON reader — just enough
//! to check the shapes this workspace emits, written here because the
//! workspace deliberately carries no serde.

use crate::event::EventKind;
use std::collections::BTreeMap;

/// Telemetry schema version. Version 1 was the ten protocol event kinds;
/// version 2 (telemetry v2) added the dotted phase-span names with their
/// `depth` argument and the `castanet-profile` report document; version 3
/// removed the three `compiled.*` micro-phases, since every lane of the
/// cycle follower records `cycle.eval`. Event lines are unversioned on the
/// wire — the ten v1 names never change — but the profile document embeds
/// this number and validation pins it.
pub const SCHEMA_VERSION: u64 = 3;

/// A parsed JSON value (numbers are kept as the raw token).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its source token (the schema only needs `u64`s).
    Number(String),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is not preserved (JSON objects are unordered).
    Object(BTreeMap<String, Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        // Fraction / exponent — accepted syntactically.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        Ok(Value::Number(token.to_string()))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are tolerated as replacement chars;
                            // the exporters never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a description of the first syntax error.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters"));
    }
    Ok(value)
}

fn require_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    match obj.get(key) {
        Some(Value::Number(token)) => token
            .parse::<u64>()
            .map_err(|_| format!("'{key}' is not a u64 (got {token})")),
        Some(other) => Err(format!(
            "'{key}' must be a number, got {}",
            other.type_name()
        )),
        None => Err(format!("missing required key '{key}'")),
    }
}

fn require_str<'a>(obj: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a str, String> {
    match obj.get(key) {
        Some(Value::String(s)) => Ok(s),
        Some(other) => Err(format!(
            "'{key}' must be a string, got {}",
            other.type_name()
        )),
        None => Err(format!("missing required key '{key}'")),
    }
}

/// Validates one JSONL event line against the schema
/// [`crate::export::event_to_jsonl`] emits.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_event_line(line: &str) -> Result<(), String> {
    let value = parse_json(line)?;
    let Value::Object(obj) = value else {
        return Err(format!(
            "event line must be an object, got {}",
            value.type_name()
        ));
    };
    let ev = require_str(&obj, "ev")?;
    if !EventKind::NAMES.contains(&ev) {
        return Err(format!("unknown event name '{ev}'"));
    }
    let track = require_str(&obj, "track")?;
    if track != "originator" && track != "follower" {
        return Err(format!("unknown track '{track}'"));
    }
    require_u64(&obj, "t_ps")?;
    require_u64(&obj, "wall_ns")?;
    require_u64(&obj, "dur_ns")?;
    match obj.get("args") {
        Some(Value::Object(args)) => {
            for (key, value) in args {
                if !matches!(value, Value::Number(t) if t.parse::<u64>().is_ok()) {
                    return Err(format!("args.{key} must be a u64"));
                }
            }
        }
        Some(other) => {
            return Err(format!(
                "'args' must be an object, got {}",
                other.type_name()
            ))
        }
        None => return Err("missing required key 'args'".to_string()),
    }
    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "ev" | "track" | "t_ps" | "wall_ns" | "dur_ns" | "args"
        ) {
            return Err(format!("unexpected key '{key}'"));
        }
    }
    Ok(())
}

/// Validates a whole JSONL document (blank lines are ignored). Returns the
/// number of event lines validated.
///
/// # Errors
///
/// Returns `(1-based line number, description)` for the first bad line.
pub fn validate_jsonl(text: &str) -> Result<usize, (usize, String)> {
    let mut validated = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_event_line(line).map_err(|e| (i + 1, e))?;
        validated += 1;
    }
    Ok(validated)
}

fn require_track(obj: &BTreeMap<String, Value>, key: &str) -> Result<(), String> {
    let track = require_str(obj, key)?;
    if track != "originator" && track != "follower" {
        return Err(format!("unknown track '{track}'"));
    }
    Ok(())
}

fn require_exact_keys(
    obj: &BTreeMap<String, Value>,
    allowed: &[&str],
    context: &str,
) -> Result<(), String> {
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unexpected key '{key}' in {context}"));
        }
    }
    Ok(())
}

/// Validates a `castanet-profile` JSON document (the output of
/// `ProfileReport::to_json` / `castanet-trace --format profile-json`).
/// Returns the number of phase rows validated.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_profile(text: &str) -> Result<usize, String> {
    let value = parse_json(text)?;
    let Value::Object(obj) = value else {
        return Err(format!(
            "profile must be an object, got {}",
            value.type_name()
        ));
    };
    let schema = require_str(&obj, "schema")?;
    if schema != "castanet-profile" {
        return Err(format!("unknown schema '{schema}'"));
    }
    let version = require_u64(&obj, "version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported profile version {version} (expected {SCHEMA_VERSION})"
        ));
    }
    require_u64(&obj, "events")?;
    require_u64(&obj, "dropped")?;
    require_exact_keys(
        &obj,
        &["schema", "version", "events", "dropped", "tracks", "rows"],
        "profile",
    )?;
    let Some(Value::Array(tracks)) = obj.get("tracks") else {
        return Err("'tracks' must be an array".to_string());
    };
    for entry in tracks {
        let Value::Object(track) = entry else {
            return Err("each track entry must be an object".to_string());
        };
        require_track(track, "track")?;
        require_u64(track, "wall_ns")?;
        require_exact_keys(track, &["track", "wall_ns"], "track entry")?;
    }
    let Some(Value::Array(rows)) = obj.get("rows") else {
        return Err("'rows' must be an array".to_string());
    };
    for (i, entry) in rows.iter().enumerate() {
        let Value::Object(row) = entry else {
            return Err(format!("row {i} must be an object"));
        };
        (|| {
            require_track(row, "track")?;
            let phase = require_str(row, "phase")?;
            if !EventKind::NAMES.contains(&phase) {
                return Err(format!("unknown phase '{phase}'"));
            }
            for key in [
                "count",
                "sample_stride",
                "total_ns",
                "min_ns",
                "max_ns",
                "est_total_ns",
                "share_bp",
            ] {
                require_u64(row, key)?;
            }
            require_exact_keys(
                row,
                &[
                    "track",
                    "phase",
                    "count",
                    "sample_stride",
                    "total_ns",
                    "min_ns",
                    "max_ns",
                    "est_total_ns",
                    "share_bp",
                ],
                "row",
            )
        })()
        .map_err(|e| format!("row {i}: {e}"))?;
    }
    Ok(rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Phase, TraceEvent, Track};
    use crate::export::event_to_jsonl;

    #[test]
    fn parser_handles_the_basics() {
        assert_eq!(parse_json("null").unwrap(), Value::Null);
        assert_eq!(parse_json(" true ").unwrap(), Value::Bool(true));
        assert_eq!(
            parse_json("\"a\\u0041\\n\"").unwrap(),
            Value::String("aA\n".to_string())
        );
        assert_eq!(
            parse_json("[1, 2]").unwrap(),
            Value::Array(vec![
                Value::Number("1".to_string()),
                Value::Number("2".to_string())
            ])
        );
        assert!(parse_json("{\"a\":{\"b\":[1,-2.5e3,\"x\"]}}").is_ok());
        assert!(parse_json("{").is_err());
        assert!(parse_json("1 2").is_err(), "trailing characters");
        assert!(parse_json("{\"a\":}").is_err());
    }

    #[test]
    fn exporter_output_validates() {
        let events = [
            TraceEvent {
                t_ps: 10,
                wall_ns: 20,
                dur_ns: 5,
                track: Track::Originator,
                kind: EventKind::NetWindow { events: 2 },
            },
            TraceEvent {
                t_ps: 30,
                wall_ns: 40,
                dur_ns: 0,
                track: Track::Follower,
                kind: EventKind::StimulusEnqueued {
                    type_id: 1,
                    port: 2,
                    stamp_ps: 30,
                },
            },
        ];
        let mut doc = String::new();
        for event in &events {
            doc.push_str(&event_to_jsonl(event));
            doc.push('\n');
        }
        assert_eq!(validate_jsonl(&doc), Ok(2));
    }

    #[test]
    fn rejects_unknown_event_name() {
        let line = "{\"ev\":\"bogus\",\"track\":\"originator\",\"t_ps\":0,\
                    \"wall_ns\":0,\"dur_ns\":0,\"args\":{}}";
        assert!(validate_event_line(line).unwrap_err().contains("bogus"));
    }

    #[test]
    fn rejects_missing_and_mistyped_keys() {
        let missing = "{\"ev\":\"net_window\",\"track\":\"originator\",\
                       \"t_ps\":0,\"wall_ns\":0,\"args\":{}}";
        assert!(validate_event_line(missing).unwrap_err().contains("dur_ns"));
        let mistyped = "{\"ev\":\"net_window\",\"track\":\"originator\",\
                        \"t_ps\":\"zero\",\"wall_ns\":0,\"dur_ns\":0,\"args\":{}}";
        assert!(validate_event_line(mistyped).unwrap_err().contains("t_ps"));
        let negative = "{\"ev\":\"net_window\",\"track\":\"originator\",\
                        \"t_ps\":-5,\"wall_ns\":0,\"dur_ns\":0,\"args\":{}}";
        assert!(validate_event_line(negative).unwrap_err().contains("u64"));
        let bad_track = "{\"ev\":\"net_window\",\"track\":\"sideways\",\
                         \"t_ps\":0,\"wall_ns\":0,\"dur_ns\":0,\"args\":{}}";
        assert!(validate_event_line(bad_track)
            .unwrap_err()
            .contains("sideways"));
        let extra = "{\"ev\":\"net_window\",\"track\":\"originator\",\"t_ps\":0,\
                     \"wall_ns\":0,\"dur_ns\":0,\"args\":{},\"extra\":1}";
        assert!(validate_event_line(extra).unwrap_err().contains("extra"));
    }

    #[test]
    fn phase_span_lines_round_trip() {
        let ev = TraceEvent {
            t_ps: 5,
            wall_ns: 900,
            dur_ns: 250,
            track: Track::Follower,
            kind: EventKind::PhaseSpan {
                phase: Phase::KernelPop,
                depth: 2,
            },
        };
        let line = event_to_jsonl(&ev);
        assert!(line.contains("\"ev\":\"kernel.pop\""));
        assert!(line.contains("\"depth\":2"));
        assert_eq!(validate_event_line(&line), Ok(()));
    }

    #[test]
    fn profile_documents_round_trip() {
        use crate::telemetry::Telemetry;
        let tel = Telemetry::enabled();
        drop(tel.span(Track::Originator, 1, Phase::ParallelGrant));
        let start = tel.now_ns();
        tel.record_phase(Track::Follower, 2, Phase::CycleEval, start);
        let json = tel.profile().to_json();
        assert_eq!(validate_profile(&json), Ok(2));
    }

    #[test]
    fn profile_validation_rejects_drift() {
        assert!(validate_profile("[]").unwrap_err().contains("object"));
        let wrong_schema = "{\"schema\":\"other\",\"version\":3,\"events\":0,\
             \"dropped\":0,\"tracks\":[],\"rows\":[]}";
        assert!(validate_profile(wrong_schema)
            .unwrap_err()
            .contains("unknown schema"));
        for old in [1, 2] {
            let wrong_version = format!(
                "{{\"schema\":\"castanet-profile\",\"version\":{old},\
                 \"events\":0,\"dropped\":0,\"tracks\":[],\"rows\":[]}}"
            );
            assert!(validate_profile(&wrong_version)
                .unwrap_err()
                .contains(&format!("version {old}")));
        }
        let bad_phase = "{\"schema\":\"castanet-profile\",\"version\":3,\
             \"events\":0,\"dropped\":0,\"tracks\":[],\"rows\":[{\
             \"track\":\"follower\",\"phase\":\"bogus\",\"count\":0,\
             \"sample_stride\":1,\"total_ns\":0,\"min_ns\":0,\"max_ns\":0,\
             \"est_total_ns\":0,\"share_bp\":0}]}";
        assert!(validate_profile(bad_phase).unwrap_err().contains("bogus"));
        let extra_key = "{\"schema\":\"castanet-profile\",\"version\":3,\
             \"events\":0,\"dropped\":0,\"tracks\":[],\"rows\":[],\"x\":1}";
        assert!(validate_profile(extra_key).unwrap_err().contains("'x'"));
    }

    #[test]
    fn removed_compiled_phases_are_unknown_events() {
        for name in ["compiled.fallback_eval", "compiled.pack", "compiled.unpack"] {
            let line = format!(
                "{{\"ev\":\"{name}\",\"track\":\"follower\",\"t_ps\":0,\
                 \"wall_ns\":0,\"dur_ns\":0,\"args\":{{\"depth\":0}}}}"
            );
            assert_eq!(
                validate_event_line(&line),
                Err(format!("unknown event name '{name}'"))
            );
        }
    }

    #[test]
    fn jsonl_document_reports_line_numbers() {
        let doc = "{\"ev\":\"net_window\",\"track\":\"originator\",\"t_ps\":0,\
                   \"wall_ns\":0,\"dur_ns\":0,\"args\":{}}\n\nnot json\n";
        let (line, _) = validate_jsonl(doc).unwrap_err();
        assert_eq!(line, 3, "blank line skipped, bad line reported");
    }
}
