//! In-repo shim for the subset of `serde_json` this workspace uses:
//! [`to_string`] and [`from_str`] over the `serde` shim's [`Value`] tree.
//!
//! Floats are written as the shortest decimal that round-trips, byte for
//! byte as Rust's `{:?}` prints them, and read back exactly; both
//! directions live in the `number` module.
//!
//! The JSON dialect is standard except for one extension in *both*
//! directions: non-finite floats render as the bare tokens `Infinity`,
//! `-Infinity`, and `NaN` (real serde_json refuses to emit them). Interval
//! bounds in this workspace are occasionally infinite, and proof artifacts
//! must round-trip; the artifacts are only ever read back by this parser.

mod number;

pub use serde::Value;
use serde::{DeError, Deserialize, Number, Serialize};
use std::fmt::{self, Write as _};

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.to_string())
    }
}

/// Serializes a value to a compact JSON string.
///
/// The string is allocated once, from an upper bound on the text length
/// plus one byte: writing never regrows it, and a caller that frames the
/// text as a line appends its `\n` in place.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let tree = value.to_value();
    let bound = text_len_bound(&tree);
    let mut out = String::with_capacity(bound + 1);
    write_value(&tree, &mut out);
    debug_assert!(out.len() <= bound, "text length bound too small");
    Ok(out)
}

/// An upper bound on the length of `v`'s compact text.
fn text_len_bound(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(_) => 5,
        // The longest number text is an f64 in exponent form,
        // `-2.2250738585072014e-308`; integers take at most 20 bytes.
        Value::Num(_) => 24,
        Value::Str(s) => string_len(s),
        Value::Array(items) => 2 + items.len() + items.iter().map(text_len_bound).sum::<usize>(),
        Value::Object(pairs) => {
            2 + 2 * pairs.len()
                + pairs.iter().map(|(k, item)| string_len(k) + text_len_bound(item)).sum::<usize>()
        }
    }
}

/// The exact length of `s` as written by [`write_string`].
fn string_len(s: &str) -> usize {
    2 + s
        .bytes()
        .map(|b| match b {
            b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
            0..=0x1f => 6,
            _ => 1,
        })
        .sum::<usize>()
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    Ok(T::from_value(&value)?)
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(x) => write_number(*x, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_number(n: Number, out: &mut String) {
    // Formatting straight into `out` (writing to a `String` cannot fail)
    // keeps number-heavy payloads — weight matrices — allocation-free.
    let _ = match n {
        Number::U(u) => write!(out, "{u}"),
        Number::I(i) => write!(out, "{i}"),
        Number::F(x) if x.is_nan() => out.write_str("NaN"),
        Number::F(x) if x == f64::INFINITY => out.write_str("Infinity"),
        Number::F(x) if x == f64::NEG_INFINITY => out.write_str("-Infinity"),
        // The shortest decimal that round-trips the f64 bit-exactly, laid
        // out byte for byte as `{:?}` would.
        Number::F(x) => {
            number::write_finite(x, out);
            Ok(())
        }
    };
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses a JSON string into a [`Value`] tree.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        // Dispatch on the first byte: numbers, strings and containers —
        // nearly every value of a weight-carrying frame — never test a
        // literal word.
        let (word, value) = match self.peek() {
            Some(b'"') => return self.string().map(Value::Str),
            Some(b'[') => return self.array(),
            Some(b'{') => return self.object(),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-Infinity") => {
                ("-Infinity", Value::Num(Number::F(f64::NEG_INFINITY)))
            }
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b'n') => ("null", Value::Null),
            Some(b't') => ("true", Value::Bool(true)),
            Some(b'f') => ("false", Value::Bool(false)),
            Some(b'N') => ("NaN", Value::Num(Number::F(f64::NAN))),
            Some(b'I') => ("Infinity", Value::Num(Number::F(f64::INFINITY))),
            _ => return Err(self.err("expected a JSON value")),
        };
        if self.eat_word(word) {
            Ok(value)
        } else {
            Err(self.err("expected a JSON value"))
        }
    }

    /// Reads one number token — an optional `-`, then digits and
    /// `.eE+-`. Integer literals stay integers (u64 weight-bit patterns
    /// above 2^53 must not round-trip through f64): non-negative ones as
    /// `U`, negative ones that fit as `I`; any other token is an f64.
    fn number(&mut self) -> Result<Value, Error> {
        // A token of the common shapes — every weight on the wire, every
        // bit pattern in a network file — is scanned and converted in one
        // pass, if it ends where that shape does.
        if let Some((n, len)) = number::read_number(&self.bytes[self.pos..]) {
            let end = self.pos + len;
            if !matches!(self.bytes.get(end), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                self.pos = end;
                return Ok(Value::Num(n));
            }
        }
        // Anything else: scan the token and hand it to the standard
        // library's parsers, which also reject it if malformed.
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let int_end = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if self.pos == int_end {
            let int = if text.starts_with('-') {
                text.parse::<i64>().ok().map(Number::I)
            } else {
                text.parse::<u64>().ok().map(Number::U)
            };
            if let Some(n) = int {
                return Ok(Value::Num(n));
            }
        }
        text.parse::<f64>()
            .map(|x| Value::Num(Number::F(x)))
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume a run of unescaped characters up to the next
                    // quote or backslash. Both are ASCII, so the run ends
                    // on a character boundary and each input byte is
                    // validated once, whatever the string's length.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error(format!("invalid UTF-8 at byte {start}")))?;
                    out.push_str(run);
                }
            }
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "Infinity");
        assert_eq!(from_str::<f64>("-Infinity").unwrap(), f64::NEG_INFINITY);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn round_trips_nested() {
        let v: Vec<(f64, f64)> = vec![(-1.0, 2.0), (0.5, 3.25)];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[[-1.0,2.0],[0.5,3.25]]");
        let back: Vec<(f64, f64)> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn u64_bit_patterns_survive_exactly() {
        // Weight-bit patterns exceed 2^53; they must not pass through f64.
        let bits: Vec<u64> = vec![u64::MAX, (-1.5f64).to_bits(), 0, 1 << 63];
        let back: Vec<u64> = from_str(&to_string(&bits).unwrap()).unwrap();
        assert_eq!(back, bits);
    }

    #[test]
    fn shortest_float_round_trip() {
        let x = 0.1f64 + 0.2f64;
        let back: f64 = from_str(&to_string(&x).unwrap()).unwrap();
        assert_eq!(back.to_bits(), x.to_bits());
    }

    #[test]
    fn multi_byte_characters_round_trip() {
        // 2-, 3- and 4-byte characters, escapes between them, and a 4-byte
        // character as the last thing before the closing quote at the very
        // end of the input.
        for s in ["é", "aé€😀b", "x\n😀\"€", "😀", "\u{1F600}\u{7f}"] {
            let json = to_string(&s).unwrap();
            assert_eq!(from_str::<String>(&json).unwrap(), s, "{json}");
        }
        assert_eq!(from_str::<String>("\"ab😀\"").unwrap(), "ab😀");
        assert_eq!(from_str::<Vec<String>>("[\"€\",\"😀\"]").unwrap(), ["€", "😀"]);
        assert_eq!(from_str::<String>("\"\\u00e9\\u20ac\"").unwrap(), "é€");
    }

    #[test]
    fn rejects_bad_escapes_and_invalid_utf8() {
        assert!(parse("\"\\x\"").is_err(), "unknown escape");
        assert!(parse("\"\\u12\"").is_err(), "truncated \\u escape");
        assert!(parse("\"\\uzzzz\"").is_err(), "non-hex \\u escape");
        assert!(parse("\"\\ud800\"").is_err(), "lone surrogate");
        assert!(parse("\"😀").is_err(), "unterminated after a 4-byte character");
        // Byte-level input that is not UTF-8 (a lone continuation byte, a
        // truncated 4-byte sequence) is rejected by the string scanner.
        for bytes in [&b"\"a\x80\""[..], &b"\"\xf0\x9f\x98\""[..]] {
            let mut p = Parser { bytes, pos: 0 };
            assert!(p.string().is_err(), "{bytes:?}");
        }
    }

    #[test]
    fn numbers_decode_to_their_width_class() {
        let num = |s: &str| match parse(s) {
            Ok(Value::Num(n)) => Ok(n),
            other => Err(format!("{other:?}")),
        };
        assert_eq!(num("0"), Ok(Number::U(0)));
        assert_eq!(num("007"), Ok(Number::U(7)));
        assert_eq!(num("18446744073709551615"), Ok(Number::U(u64::MAX)));
        assert_eq!(num("18446744073709551616"), Ok(Number::F(18446744073709551616.0)));
        assert_eq!(num("-0"), Ok(Number::I(0)));
        assert_eq!(num("-5"), Ok(Number::I(-5)));
        assert_eq!(num("-9223372036854775808"), Ok(Number::I(i64::MIN)));
        assert_eq!(num("-9223372036854775809"), Ok(Number::F(-9223372036854775809.0)));
        assert_eq!(num("1.5e3"), Ok(Number::F(1500.0)));
        assert_eq!(num("1."), Ok(Number::F(1.0)));
        assert_eq!(num("-.5"), Ok(Number::F(-0.5)));
        assert_eq!(num("2E+2"), Ok(Number::F(200.0)));
        assert_eq!(num("-Infinity"), Ok(Number::F(f64::NEG_INFINITY)));
        for bad in ["-", "-Inf", "1-2", "1e", "--1", "-+1", "Inf", "nul", "NaNa", "-NaN"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert_eq!(parse("[null,true,false]").unwrap(), {
            Value::Array(vec![Value::Null, Value::Bool(true), Value::Bool(false)])
        });
    }

    #[test]
    fn out_of_range_floats_do_not_saturate_into_integers() {
        // Unsigned: `1e300 as usize` would saturate to `usize::MAX`.
        assert!(from_str::<usize>("1e300").is_err());
        assert!(from_str::<u8>("256.0").is_err());
        assert!(from_str::<u64>("18446744073709551616.0").is_err());
        assert!(from_str::<u32>("-1.0").is_err());
        assert_eq!(from_str::<u8>("255.0").unwrap(), 255);
        assert_eq!(from_str::<u64>("1e19").unwrap(), 10_000_000_000_000_000_000);
        // Signed: `-1e300 as i64` would saturate to `i64::MIN`.
        assert!(from_str::<i64>("-1e300").is_err());
        assert!(from_str::<i64>("9223372036854775808.0").is_err());
        assert!(from_str::<i8>("-129.0").is_err());
        assert_eq!(from_str::<i64>("-9223372036854775808.0").unwrap(), i64::MIN);
        assert_eq!(from_str::<i8>("-128.0").unwrap(), -128);
    }

    #[test]
    fn encoded_text_leaves_room_for_a_terminator() {
        let weights: Vec<f64> = (0..4096).map(|i| -f64::from(i).sqrt() / 7.0).collect();
        let texts = [
            to_string(&weights).unwrap(),
            to_string(&vec![f64::MIN_POSITIVE; 64]).unwrap(),
            to_string(&"quote \" back\\slash \n\t\u{1} é😀").unwrap(),
            to_string(&(u64::MAX, i64::MIN, true, Option::<f64>::None)).unwrap(),
            to_string(&"").unwrap(),
        ];
        for text in texts {
            assert!(text.capacity() > text.len(), "{} of {}", text.len(), text.capacity());
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
    }
}
