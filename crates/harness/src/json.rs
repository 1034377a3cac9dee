//! The workspace's one JSON writer and reader, dependency-free.
//!
//! Every JSON file the reproduction emits is a [`Json`] value serialized by
//! [`Json::to_pretty`]: the figure tables ([`Table::to_json`]), the
//! `--metrics` telemetry and outcome exports ([`crate::metrics`]), the
//! `repro adapt`/`repro scenario` outcomes, and the committed benchmark
//! history (`BENCH_engine.json`), which is also read back, merged and
//! re-emitted. Objects preserve insertion order, so a parse → edit →
//! serialize round trip only changes what was edited.
//!
//! The layout is two-space indented with one member or element per line.
//! Numbers follow one rule: whole numbers below 9·10^15 print exactly,
//! everything else prints with two decimals. A value that is not whole
//! but rounds to a whole number at two decimals (`3.001` → `3.00`) parses
//! back as `3` and re-emits as `3`; the timing fields `runtime_secs` and
//! `total_ms` are rounded to two decimals before they are stored, so those
//! files reparse to themselves. The reader accepts the full JSON grammar,
//! including `\uXXXX` escapes and surrogate pairs, so every string the
//! writer emits parses back unchanged.
//!
//! [`Table::to_json`]: crate::report::Table::to_json

use std::fmt::Write as _;

/// A parsed JSON value. Object members keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers survive exactly up to 2^53).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable member lookup on an object.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sets `key` on an object, replacing an existing member in place or
    /// appending a new one. No-op on non-objects.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(members) = self {
            match members.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => members.push((key.to_string(), value)),
            }
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs, in order.
    pub(crate) fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of strings.
    pub(crate) fn strs(items: &[String]) -> Json {
        Json::Arr(items.iter().cloned().map(Json::Str).collect())
    }

    /// Serializes with two-space indentation and a trailing newline, matching
    /// the style of the repo's other committed JSON artifacts.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0);
        out.push('\n');
        out
    }
}

/// Rounds `x` to the writer's two decimals, so a measured value (a wall
/// time, a rate) serializes to text that parses back to the same value.
pub(crate) fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => parse_unicode_escape(bytes, pos)?,
                    other => return Err(format!("unsupported escape `\\{}`", *other as char)),
                });
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input came from a &str, so
                // boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

/// Decodes the `XXXX` of a `\uXXXX` escape (`pos` at the `u`), joining a
/// UTF-16 surrogate pair written as two escapes. Leaves `pos` on the last
/// hex digit consumed.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let at = *pos - 1;
    let hex4 = |start: usize| {
        bytes
            .get(start..start + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
            .ok_or_else(|| format!("bad `\\u` escape at byte {at}"))
    };
    let mut code = hex4(*pos + 1)?;
    *pos += 4;
    if (0xD800..0xDC00).contains(&code) && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u") {
        let low = hex4(*pos + 3)?;
        if (0xDC00..0xE000).contains(&low) {
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            *pos += 6;
        }
    }
    char::from_u32(code).ok_or_else(|| format!("unpaired surrogate in `\\u` escape at byte {at}"))
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

fn write_value(out: &mut String, value: &Json, indent: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_number(out, *n),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) if items.is_empty() => out.push_str("[]"),
        Json::Arr(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, indent + 1);
                write_value(out, item, indent + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, indent);
            out.push(']');
        }
        Json::Obj(members) if members.is_empty() => out.push_str("{}"),
        Json::Obj(members) => {
            out.push_str("{\n");
            for (i, (key, val)) in members.iter().enumerate() {
                pad(out, indent + 1);
                write_string(out, key);
                out.push_str(": ");
                write_value(out, val, indent + 1);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            pad(out, indent);
            out.push('}');
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    // Whole numbers in the safe-integer range print without a fraction, so
    // counters stay grep-able; everything else keeps two decimals (the only
    // non-integers we emit are ratios).
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:.2}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_bench_history_shape() {
        let text = concat!(
            "{\n  \"bench\": \"engine\",\n  \"events\": 200000,\n",
            "  \"history\": [\n    {\n      \"label\": \"pre\",\n",
            "      \"blocks_per_sec\": {\n        \"baseline\": 5320311\n      }\n",
            "    }\n  ]\n}\n"
        );
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("engine"));
        assert_eq!(doc.get("events").and_then(Json::as_f64), Some(200_000.0));
        let history = doc.get("history").and_then(Json::as_arr).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(
            history[0].get("blocks_per_sec").and_then(|b| b.get("baseline")).and_then(Json::as_f64),
            Some(5_320_311.0)
        );
        // Parse → serialize is the identity on documents we emit ourselves.
        assert_eq!(doc.to_pretty(), text);
    }

    #[test]
    fn parses_escapes_literals_and_nesting() {
        let doc = Json::parse(r#"{"a": [true, false, null, -1.5, "x\n\"y\""], "b": {}}"#).unwrap();
        let a = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[0].as_bool(), Some(true));
        assert_eq!(a[3].as_f64(), Some(-1.5));
        assert_eq!(a[4].as_str(), Some("x\n\"y\""));
        assert_eq!(doc.get("b"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn set_replaces_in_place_and_appends() {
        let mut doc = Json::parse(r#"{"a": 1, "b": 2}"#).unwrap();
        doc.set("a", Json::Num(9.0));
        doc.set("c", Json::Str("new".into()));
        assert_eq!(doc.to_pretty(), "{\n  \"a\": 9,\n  \"b\": 2,\n  \"c\": \"new\"\n}\n");
    }

    #[test]
    fn every_ascii_char_and_a_non_bmp_char_round_trip() {
        let text: String = (0u8..0x80).map(char::from).chain(['😀']).collect();
        let doc = Json::Str(text.clone());
        let written = doc.to_pretty();
        assert!(written.contains("\\u0001"), "control characters are escaped");
        assert_eq!(Json::parse(&written), Ok(doc.clone()));
        let key = Json::Obj(vec![(text, Json::Null)]);
        assert_eq!(Json::parse(&key.to_pretty()), Ok(key));
    }

    #[test]
    fn parses_unicode_escapes_and_surrogate_pairs() {
        let doc = Json::parse(r#""\u0041\u00e9\u20AC\ud83d\ude00\u0000""#).unwrap();
        assert_eq!(doc.as_str(), Some("Aé€😀\u{0}"));
        for bad in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ude00""#, r#""\u12""#, r#""\u+123""#] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn round2_values_reparse_to_themselves() {
        for x in [0.0, 0.001, 0.004, 0.005, 1.5, 2.0049, 176.3, 1234.5678, 9.995] {
            let doc = Json::Num(round2(x));
            assert_eq!(Json::parse(&doc.to_pretty()).unwrap().to_pretty(), doc.to_pretty(), "{x}");
        }
    }

    /// Every JSON file the workspace writes comes from this module, so each
    /// emitter's output parses back to the same bytes (trailing newline
    /// aside). Inputs use numbers that do not round to a whole number at two
    /// decimals, the one value class that reparses as an integer.
    #[test]
    fn every_emitter_reparses_to_its_own_bytes() {
        use crate::adapt::{AdaptOutcome, WindowReport};
        use crate::enginebench::{history_entry, BenchRow, BenchRun};
        use crate::metrics::{outcome_summary, telemetry_summary, TimingMode};
        use crate::scenario::{BucketRow, ScenarioOutcome, TenantReport};
        use crate::{Scale, Session, Table};
        use ispy_sim::{InjectionOutcome, SimResult};
        use ispy_telemetry::Telemetry;

        fn assert_identity(what: &str, out: &str) {
            let doc = Json::parse(out).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(doc.to_pretty().trim_end(), out.trim_end(), "{what}");
        }

        let mut table = Table::new("fig0", "quote \" tab \t ctl \u{1} €", &["app", "speedup"]);
        table.row(vec!["cassandra".into(), "1.250x".into()]);
        table.note("paper: something");
        assert_identity("table", &table.to_json());
        for secs in [0.0004, 0.123_456, 7.0, 61.999] {
            assert_identity("table with runtime", &table.to_json_with_runtime(Some(secs)));
        }

        let tele = Telemetry::new();
        tele.add("core.plan.calls", 3);
        tele.add("weird\"\u{1f}name", 1);
        drop(tele.span("core.plan"));
        {
            let _slow = tele.span("profile.collect");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        for mode in [TimingMode::Full, TimingMode::Deterministic] {
            assert_identity("telemetry", &telemetry_summary(&tele, mode).to_pretty());
        }

        let session = Session::with_apps(Scale::test(), vec![ispy_trace::apps::finagle_http()]);
        assert_identity("outcome summary", &outcome_summary(&session).to_pretty());

        let sim = SimResult { instrs: 3_000, i_misses: 37, cycles: 9_000, ..SimResult::default() };
        let window = WindowReport { adaptive_mpki: 17.185, oracle_mpki: 4.104, replan_ms: 65.32 };
        let adapt = AdaptOutcome {
            app: "tomcat".into(),
            events: 50_000,
            window: 10_000,
            epochs: 2,
            windows: vec![window.clone(), WindowReport { replan_ms: 0.0, ..window }],
            swaps: 5,
            adaptive_total: sim,
            oracle_total: sim,
            replan_full_ms: 163.04,
            replan_delta_ms: 5.06,
            plans_identical: true,
            delta_samples: 12,
            total_samples: 4_321,
        };
        assert_identity("adapt outcome", &adapt.to_json());

        let scenario = ScenarioOutcome {
            scenario: "burst".into(),
            events: 30_000,
            phases: vec!["steady".into(), "burst".into()],
            tenants: vec!["kafka".into()],
            switches: 4,
            rows: vec![BucketRow {
                phase: "steady".into(),
                tenant: "kafka".into(),
                events: 30_000,
                requests: 17,
                base_mpki: 21.4,
                asmdb_mpki: 9.87,
                ispy_mpki: 6.25,
                base_p99: 812,
                asmdb_p99: 433,
                ispy_p99: 391,
            }],
            tenant_reports: vec![TenantReport {
                tenant: "kafka".into(),
                events: 30_000,
                base_mpki: 21.4,
                asmdb_mpki: 9.87,
                ispy_mpki: 6.25,
                base_p99: 812,
                asmdb_p99: 433,
                ispy_p99: 391,
                injections: 88,
                outcome: InjectionOutcome { fired: 40, useful: 31, late: 2, ..Default::default() },
            }],
            base_total: SimResult { i_misses: 64, ..sim },
            ideal_total: SimResult { cycles: 7_000, ..sim },
            asmdb_total: sim,
            ispy_total: SimResult { i_misses: 19, cycles: 8_100, ..sim },
        };
        assert_identity("scenario outcome", &scenario.to_json());

        let run = BenchRun {
            app: "cassandra".into(),
            events: 200_000,
            reps: 5,
            quick: false,
            rows: vec![
                BenchRow { name: "injected", blocks_per_sec: 3_456_789.4, peak_rss_bytes: None },
                BenchRow { name: "replan_delta", blocks_per_sec: 86.454, peak_rss_bytes: None },
                BenchRow {
                    name: "stream_replay",
                    blocks_per_sec: 1_840_000.0,
                    peak_rss_bytes: Some(9_437_184),
                },
            ],
        };
        assert_identity("bench history entry", &history_entry(&run, "ctl\u{1}label").to_pretty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
    }
}
