//! Minimal JSON support: a value type, a serialiser with full string
//! escaping, and a recursive-descent parser.
//!
//! The workspace is offline (no `serde`), and the observability layer needs
//! only a small, well-tested JSON core: recorders serialise counter
//! snapshots and trace lines, the bench harness writes `BENCH_*.json`
//! trajectory files, and `cargo xtask check-trace`/`check-bench` parse them
//! back for validation.
//!
//! Non-finite numbers have no JSON representation; [`Json::Num`] serialises
//! them as `null` (callers that must preserve `inf` — the unbounded epsilon
//! row — encode it as the string `"inf"`).
//!
//! # Examples
//!
//! ```
//! use bmst_obs::json::Json;
//!
//! let v = Json::Obj(vec![
//!     ("name".into(), Json::Str("p1".into())),
//!     ("cost".into(), Json::Num(42.5)),
//! ]);
//! let text = v.to_string();
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let one line of
/// `[` overflow the thread's stack — an abort no caller can catch.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve insertion order (no deduplication).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values serialise as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a number from a `u64` counter value.
    ///
    /// Counters comfortably fit `f64`'s 2^53 integer range for any run this
    /// workspace performs; values beyond it lose low-order bits.
    pub fn from_u64(v: u64) -> Json {
        #[allow(clippy::cast_precision_loss)]
        // lint: allow(no-as-cast) — u64 -> f64 rounds above 2^53, fine for metrics
        Json::Num(v as f64)
    }

    /// Looks up `key` in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses a complete JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset and a message on malformed input,
    /// trailing garbage, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal (quotes included) with all mandatory
/// escapes.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0C}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Escapes `s` as a standalone JSON string literal, quotes included.
pub fn escape(s: &str) -> String {
    Json::Str(s.to_owned()).to_string()
}

/// A JSON parse error: byte offset and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", char::from(b))))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs a container parser one nesting level down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x80 => out.push(char::from(b)),
                Some(first) => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // continuation bytes are guaranteed well-formed; collect
                    // the full sequence.
                    let len = match first {
                        b if b >> 5 == 0b110 => 2,
                        b if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`, combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // High surrogate: require a following \uXXXX low surrogate.
        if (0xD800..0xDC00).contains(&first) {
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.err("lone high surrogate"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
            return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            value = value * 16 + d;
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(&back, v, "through {text}");
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::Num(0.0));
        roundtrip(&Json::Num(-17.25));
        roundtrip(&Json::Num(1e-9));
        roundtrip(&Json::Num(12345678901234.0));
        roundtrip(&Json::Str(String::new()));
        roundtrip(&Json::Str("plain".into()));
    }

    #[test]
    fn escaping_roundtrips() {
        for s in [
            "quote\" backslash\\ slash/",
            "newline\n tab\t return\r",
            "control\u{01}\u{1f}",
            "unicode: αβγ 日本語 🦀",
            "backspace\u{08} formfeed\u{0C}",
        ] {
            roundtrip(&Json::Str(s.into()));
        }
    }

    #[test]
    fn escape_helper_produces_quoted_literal() {
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("x\ny"), "\"x\\ny\"");
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Json::Obj(vec![
            ("alg".into(), Json::Str("bkrus".into())),
            ("eps".into(), Json::Num(0.2)),
            (
                "counters".into(),
                Json::Obj(vec![
                    ("forest.cond3a.accept".into(), Json::from_u64(17)),
                    ("forest.cond3b.reject".into(), Json::from_u64(3)),
                ]),
            ),
            (
                "list".into(),
                Json::Arr(vec![Json::Null, Json::Bool(false), Json::Num(1.5)]),
            ),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("empty_arr".into(), Json::Arr(vec![])),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn parses_standard_syntax() {
        let v = Json::parse(r#" { "a" : [ 1 , 2.5 , -3e2 ] , "b" : null } "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-300.0));
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("A\u{e9}".into()));
        // Surrogate pair for U+1F980 (crab).
        assert_eq!(
            Json::parse(r#""🦀""#).unwrap(),
            Json::Str("\u{1F980}".into())
        );
        // A lone high surrogate is rejected.
        assert!(Json::parse(r#""\ud83e""#).is_err());
        // Raw (unescaped) multi-byte UTF-8 passes through.
        assert_eq!(
            Json::parse("\"\u{65e5}\u{672c}\u{8a9e}\"").unwrap(),
            Json::Str("\u{65e5}\u{672c}\u{8a9e}".into())
        );
    }

    #[test]
    fn non_finite_serialises_as_null() {
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn errors_carry_positions() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\":}",
            "1 2",
            "{\"a\" 1}",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.msg.is_empty(), "no message for {bad:?}");
            assert!(err.to_string().contains("json error"), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_with_an_error() {
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.msg.contains("nesting"), "{err}");
            assert_eq!(err.pos, MAX_DEPTH * (deep.len() / 100_000));
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"s":"x","n":2}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(2.0));
        assert!(v.get("missing").is_none());
        assert!(v.as_obj().is_some());
        assert!(v.as_arr().is_none());
    }
}
