//! Offline shim of `serde`, built because this workspace cannot reach
//! crates.io. Instead of upstream's visitor architecture it has two small
//! halves. `Serialize` writes a type straight to JSON text through a
//! [`Writer`], with no intermediate tree. `Deserialize` raises a type
//! from a JSON-shaped [`Value`] tree, which `serde_json` (also shimmed)
//! parses. The `derive` feature re-exports derive macros from
//! `serde_derive` that target these traits, so the workspace's
//! `#[derive(Serialize, Deserialize)]` usage compiles unchanged.

use std::fmt::{self, Write as _};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A parsed JSON value, the input of [`Deserialize`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (kept exact; never routed through `f64`).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object: ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// Deserialization error (wrong shape, missing field, parse failure).
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// Creates an error with a message.
    pub fn msg(m: impl Into<String>) -> Self {
        DeError(m.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// JSON text output: the sink that text is appended to, plus the indent
/// and nesting level that pretty output needs.
///
/// Writes to the sink cannot fail from the writer's point of view: a
/// sink that can fail (an I/O adapter) keeps its first error itself and
/// refuses later writes.
pub struct Writer<'a> {
    out: &'a mut dyn fmt::Write,
    /// Spaces per nesting level; 0 writes compact JSON.
    indent: usize,
    /// Arrays and objects open around the write position.
    level: usize,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`: compact when `indent` is 0, and
    /// otherwise one element per line, `indent` spaces per level.
    pub fn new(out: &'a mut dyn fmt::Write, indent: usize) -> Self {
        Writer {
            out,
            indent,
            level: 0,
        }
    }

    fn raw(&mut self, s: &str) {
        let _ = self.out.write_str(s);
    }

    /// A line break and the current level's indent; nothing in compact
    /// output.
    fn newline(&mut self) {
        if self.indent > 0 {
            let _ = write!(self.out, "\n{:1$}", "", self.indent * self.level);
        }
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.raw("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.raw(if b { "true" } else { "false" });
    }

    /// Writes an unsigned integer, exactly.
    pub fn u64(&mut self, n: u64) {
        let _ = write!(self.out, "{n}");
    }

    /// Writes a signed integer, exactly.
    pub fn i64(&mut self, n: i64) {
        let _ = write!(self.out, "{n}");
    }

    /// Writes a float as Rust's shortest round-trip `{x}` text, with `.0`
    /// appended when that text has no `.` or exponent, so the value reads
    /// back as a float. JSON has no NaN or infinity: those write `null`,
    /// as upstream's lossy writers do.
    pub fn f64(&mut self, x: f64) {
        if !x.is_finite() {
            return self.null();
        }
        let mut text = FloatText {
            out: &mut *self.out,
            marked: false,
        };
        let _ = write!(text, "{x}");
        if !text.marked {
            self.raw(".0");
        }
    }

    /// Writes a string literal, escaping `"`, `\` and control characters.
    pub fn str(&mut self, s: &str) {
        self.raw("\"");
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            // Every escaped byte is ASCII, so both ends of the run before
            // it fall on character boundaries.
            self.raw(&s[start..i]);
            start = i + 1;
            match b {
                b'"' => self.raw("\\\""),
                b'\\' => self.raw("\\\\"),
                b'\n' => self.raw("\\n"),
                b'\r' => self.raw("\\r"),
                b'\t' => self.raw("\\t"),
                _ => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
        }
        self.raw(&s[start..]);
        self.raw("\"");
    }

    /// Opens an array; write its elements with [`Compound::element`].
    pub fn array(&mut self) -> Compound<'_, 'a> {
        self.open("[", "]")
    }

    /// Opens an object; write its fields with [`Compound::field`].
    pub fn object(&mut self) -> Compound<'_, 'a> {
        self.open("{", "}")
    }

    fn open(&mut self, open: &str, close: &'static str) -> Compound<'_, 'a> {
        self.raw(open);
        self.level += 1;
        Compound {
            w: self,
            close,
            empty: true,
        }
    }
}

/// Forwards a float's text to the sink and notes whether it carries a
/// `.` or an exponent.
struct FloatText<'s> {
    out: &'s mut dyn fmt::Write,
    marked: bool,
}

impl fmt::Write for FloatText<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.marked |= s.bytes().any(|b| matches!(b, b'.' | b'e' | b'E'));
        self.out.write_str(s)
    }
}

/// An open array or object. Empty ones close as `[]` and `{}`, in
/// compact and in pretty output alike.
pub struct Compound<'w, 'a> {
    w: &'w mut Writer<'a>,
    close: &'static str,
    empty: bool,
}

impl Compound<'_, '_> {
    /// Writes the next array element.
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.next();
        value.serialize(self.w);
    }

    /// Writes the next object field.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.next();
        self.w.str(key);
        self.w.raw(if self.w.indent > 0 { ": " } else { ":" });
        value.serialize(self.w);
    }

    fn next(&mut self) {
        if !self.empty {
            self.w.raw(",");
        }
        self.empty = false;
        self.w.newline();
    }

    /// Closes the array or object.
    pub fn end(self) {
        self.w.level -= 1;
        if !self.empty {
            self.w.newline();
        }
        self.w.raw(self.close);
    }
}

/// Types that can be written as JSON text.
pub trait Serialize {
    /// Writes `self` to `w` as one JSON value.
    fn serialize(&self, w: &mut Writer<'_>);
}

/// Types that can be raised from a [`Value`].
pub trait Deserialize: Sized {
    /// Raises a value from the data model.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Derive-macro helper: looks up and deserializes a struct field.
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    let f = v
        .get(name)
        .ok_or_else(|| DeError::msg(format!("missing field `{name}`")))?;
    T::from_value(f).map_err(|e| DeError::msg(format!("field `{name}`: {}", e.0)))
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) { w.u64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::msg("integer out of range")),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::msg("integer out of range")),
                    _ => Err(DeError::msg(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) { w.i64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::msg("integer out of range")),
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::msg("integer out of range")),
                    _ => Err(DeError::msg(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.f64(*self);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            _ => Err(DeError::msg("expected number")),
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.f64(*self as f64);
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::msg("expected bool")),
        }
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::msg("expected string")),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self);
    }
}

// `&'static str` fields appear in config structs. Upstream serde would
// borrow from the input; this shim deserializes rarely and only in tests,
// so leaking the tiny parsed string is an acceptable trade for a 'static
// borrow.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            _ => Err(DeError::msg("expected string")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer<'_>) {
        let mut array = w.array();
        for item in self {
            array.element(item);
        }
        array.end();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        self.as_slice().serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::msg("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            Some(x) => x.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer<'_>) {
        (**self).serialize(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.serialize(&mut Writer::new(&mut out, 0));
        out
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(json(&42u64), "42");
        assert_eq!(u64::from_value(&Value::U64(42)), Ok(42));
        assert_eq!(json(&-7i64), "-7");
        assert_eq!(i64::from_value(&Value::I64(-7)), Ok(-7));
        assert_eq!(json(&1.5f64), "1.5");
        assert_eq!(json(&2.0f32), "2.0");
        assert_eq!(f64::from_value(&Value::F64(1.5)), Ok(1.5));
        assert_eq!(json("hi"), "\"hi\"");
        assert_eq!(
            String::from_value(&Value::Str("hi".into())),
            Ok("hi".to_string())
        );
        assert_eq!(json(&vec![1u32, 2]), "[1,2]");
        assert_eq!(
            Vec::<u32>::from_value(&Value::Array(vec![Value::U64(1), Value::U64(2)])),
            Ok(vec![1, 2])
        );
        assert_eq!(json(&None::<u8>), "null");
        assert_eq!(Option::<u8>::from_value(&Value::Null), Ok(None));
    }

    #[test]
    fn exact_u64_survives() {
        let big = u64::MAX - 3;
        assert_eq!(json(&big), big.to_string());
        assert_eq!(u64::from_value(&Value::U64(big)), Ok(big));
    }

    #[test]
    fn shape_errors_reported() {
        assert!(bool::from_value(&Value::U64(1)).is_err());
        assert!(field::<u64>(&Value::Object(vec![]), "x").is_err());
    }
}
