//! Offline shim of `serde_json`. Writing is the `serde` shim's job:
//! [`to_string`], [`to_string_pretty`] and [`to_writer`] hand a
//! `serde::Writer` to the value's `Serialize` impl, which writes JSON text
//! straight into the output. Reading parses text into the `serde` shim's
//! [`Value`] tree and raises the target type from it. Supports everything
//! the workspace round-trips — objects, arrays, strings with escapes,
//! exact u64/i64, and f64 — plus pretty printing for the figure JSON
//! artifacts.

use std::fmt;
use std::io;

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize, Writer};

/// Serialization/deserialization error.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes `value` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write_string(value, 0))
}

/// Serializes `value` to human-readable JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write_string(value, 2))
}

fn write_string<T: Serialize + ?Sized>(value: &T, indent: usize) -> String {
    let mut out = String::with_capacity(128);
    value.serialize(&mut Writer::new(&mut out, indent));
    out
}

/// Serializes `value` as compact JSON into `writer`, with no intermediate
/// buffer: a `Vec<u8>` grows in place.
///
/// # Errors
///
/// Returns the writer's first I/O error; nothing is written after it.
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(writer: W, value: &T) -> Result<(), Error> {
    let mut sink = IoSink {
        inner: writer,
        error: None,
    };
    value.serialize(&mut Writer::new(&mut sink, 0));
    match sink.error {
        Some(e) => Err(Error(e.to_string())),
        None => Ok(()),
    }
}

/// Text sink over an `io::Write` that keeps the first error and refuses
/// every write after it.
struct IoSink<W> {
    inner: W,
    error: Option<io::Error>,
}

impl<W: io::Write> fmt::Write for IoSink<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.error.is_some() {
            return Err(fmt::Error);
        }
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// Parses a value of type `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error("invalid utf-8".into()))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Mode {
        Fast,
        Slow,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Id(u32);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Pair(i64, f64, Mode);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Empty {}

    /// Every edge the writer has: escapes, float text, integer extremes,
    /// empty and nested arrays and objects, `None`, and each derived shape.
    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Fixture {
        text: Vec<String>,
        floats: Vec<f64>,
        non_finite: Vec<Option<f64>>,
        big: u64,
        small: i64,
        empty: Vec<u32>,
        nested: Vec<Vec<u8>>,
        none: Option<u8>,
        some: Option<String>,
        mode: Mode,
        id: Id,
        pair: Pair,
        unit: Empty,
        units: Vec<Empty>,
    }

    fn fixture() -> Fixture {
        Fixture {
            text: vec![
                "quote \" backslash \\ newline \n tab \t cr \r".to_string(),
                "ctl \u{0} \u{1} \u{8} \u{c} \u{1f} del \u{7f}".to_string(),
                "non-ascii é ü 漢字 🦀".to_string(),
                String::new(),
            ],
            floats: vec![3.0, -2.5, 1e-7, 5e-324, 1e300, f64::MAX, -0.0, 0.1 + 0.2],
            non_finite: vec![
                Some(f64::NAN),
                Some(f64::INFINITY),
                Some(f64::NEG_INFINITY),
                None,
            ],
            big: u64::MAX,
            small: i64::MIN,
            empty: vec![],
            nested: vec![vec![1, 2], vec![], vec![255]],
            none: None,
            some: Some("x".to_string()),
            mode: Mode::Slow,
            id: Id(7),
            pair: Pair(-3, 0.5, Mode::Fast),
            unit: Empty {},
            units: vec![Empty {}, Empty {}],
        }
    }

    /// The fixture's compact text, as the `Value`-tree writer that came
    /// before the direct writer rendered it.
    const COMPACT: &str = "{\"text\":[\"quote \\\" backslash \\\\ newline \\n tab \\t cr \\r\",\"ctl \\u0000 \\u0001 \\u0008 \\u000c \\u001f del \u{7f}\",\"non-ascii é ü 漢字 🦀\",\"\"],\"floats\":[3.0,-2.5,0.0000001,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,-0.0,0.30000000000000004],\"non_finite\":[null,null,null,null],\"big\":18446744073709551615,\"small\":-9223372036854775808,\"empty\":[],\"nested\":[[1,2],[],[255]],\"none\":null,\"some\":\"x\",\"mode\":\"Slow\",\"id\":7,\"pair\":[-3,0.5,\"Fast\"],\"unit\":{},\"units\":[{},{}]}";

    /// The fixture's pretty text from the same writer, line by line.
    const PRETTY: &[&str] = &[
    "{",
    "  \"text\": [",
    "    \"quote \\\" backslash \\\\ newline \\n tab \\t cr \\r\",",
    "    \"ctl \\u0000 \\u0001 \\u0008 \\u000c \\u001f del \u{7f}\",",
    "    \"non-ascii é ü 漢字 🦀\",",
    "    \"\"",
    "  ],",
    "  \"floats\": [",
    "    3.0,",
    "    -2.5,",
    "    0.0000001,",
    "    0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,",
    "    1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,",
    "    179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,",
    "    -0.0,",
    "    0.30000000000000004",
    "  ],",
    "  \"non_finite\": [",
    "    null,",
    "    null,",
    "    null,",
    "    null",
    "  ],",
    "  \"big\": 18446744073709551615,",
    "  \"small\": -9223372036854775808,",
    "  \"empty\": [],",
    "  \"nested\": [",
    "    [",
    "      1,",
    "      2",
    "    ],",
    "    [],",
    "    [",
    "      255",
    "    ]",
    "  ],",
    "  \"none\": null,",
    "  \"some\": \"x\",",
    "  \"mode\": \"Slow\",",
    "  \"id\": 7,",
    "  \"pair\": [",
    "    -3,",
    "    0.5,",
    "    \"Fast\"",
    "  ],",
    "  \"unit\": {},",
    "  \"units\": [",
    "    {},",
    "    {}",
    "  ]",
    "}",
    ];

    #[test]
    fn fixture_compact_text_is_unchanged() {
        assert_eq!(to_string(&fixture()).unwrap(), COMPACT);
    }

    #[test]
    fn fixture_pretty_text_is_unchanged() {
        assert_eq!(to_string_pretty(&fixture()).unwrap(), PRETTY.join("\n"));
    }

    #[test]
    fn fixture_round_trips_through_from_str() {
        let pretty = PRETTY.join("\n");
        for text in [COMPACT, pretty.as_str()] {
            let back: Fixture = from_str(text).unwrap();
            // Non-finite floats read back as `None`, so compare the
            // rewritten text rather than the values.
            assert_eq!(back.non_finite, vec![None; 4]);
            assert_eq!(to_string(&back).unwrap(), COMPACT);
            let f = fixture();
            assert_eq!(
                (&back.text, back.big, back.small),
                (&f.text, f.big, f.small)
            );
            assert_eq!(
                back.floats.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                f.floats.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn to_writer_appends_the_compact_text() {
        let mut buf = b"head ".to_vec();
        to_writer(&mut buf, &fixture()).unwrap();
        assert_eq!(buf, format!("head {COMPACT}").into_bytes());
    }

    #[test]
    fn to_writer_reports_the_first_io_error() {
        struct Full(usize);
        impl io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 < buf.len() {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "full"));
                }
                self.0 -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = to_writer(Full(10), &fixture()).unwrap_err();
        assert!(err.to_string().contains("full"), "{err}");
    }

    #[derive(Serialize)]
    struct Xs(u64, f64, Option<u8>);

    #[derive(Serialize)]
    struct Nested {
        name: String,
        xs: Xs,
        ok: bool,
        neg: i64,
    }

    #[test]
    fn round_trips_nested_values() {
        let nested = Nested {
            name: "p99 \"tail\"\n".into(),
            xs: Xs(u64::MAX, 1.25, None),
            ok: true,
            neg: -42,
        };
        let compact = to_string(&nested).unwrap();
        let mut p = Parser {
            bytes: compact.as_bytes(),
            pos: 0,
        };
        let v = Value::Object(vec![
            ("name".into(), Value::Str("p99 \"tail\"\n".into())),
            (
                "xs".into(),
                Value::Array(vec![Value::U64(u64::MAX), Value::F64(1.25), Value::Null]),
            ),
            ("ok".into(), Value::Bool(true)),
            ("neg".into(), Value::I64(-42)),
        ]);
        assert_eq!(p.value().unwrap(), v);
    }

    #[test]
    fn typed_round_trip() {
        let xs = vec![1.5f64, 2.0, -3.25];
        let json = to_string(&xs).unwrap();
        let back: Vec<f64> = from_str(&json).unwrap();
        assert_eq!(xs, back);
    }

    #[test]
    fn pretty_output_is_indented_and_parseable() {
        let xs = vec![vec![1u64, 2], vec![3]];
        let pretty = to_string_pretty(&xs).unwrap();
        assert!(pretty.contains("\n  "));
        let back: Vec<Vec<u64>> = from_str(&pretty).unwrap();
        assert_eq!(xs, back);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Vec<u64>>("[1, 2,]garbage").is_err());
        assert!(from_str::<bool>("flase").is_err());
    }
}
