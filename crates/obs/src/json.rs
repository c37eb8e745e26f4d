//! JSON: the one writer and the one parser of this crate.
//!
//! [`Value`] renders itself (`Display`) as compact RFC 8259 JSON,
//! members in insertion order: strings escape quote, backslash and
//! control characters; a finite [`Value::Num`] prints in shortest
//! round-trip form, a non-finite one as `null`; a [`Value::U64`] keeps
//! every digit. Chrome traces and the metrics document are `Value`s.
//!
//! [`parse`] is the writer's test oracle (and the harness's and CLI
//! tests'). It reads RFC 8259 JSON (a number must match the RFC's
//! grammar, so `01`, `1.` and `.5` are errors) and reads an integer
//! literal that fits a `u64` as [`Value::U64`], so
//! `parse(&v.to_string()) == Ok(v)` for every `v` with finite numbers.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A floating-point number (written `null` if not finite).
    Num(f64),
    /// An unsigned integer, written with every digit.
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in insertion (document) order.
    Obj(Vec<(String, Value)>),
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::U64(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            // `{:?}` is the shortest round-trip form and, unlike `{}`,
            // never spells a float as an integer literal.
            Value::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Value::Num(_) => f.write_str("null"),
            Value::U64(n) => write!(f, "{n}"),
            Value::Str(s) => write_str(f, s),
            Value::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", if i > 0 { "," } else { "" })?;
                }
                f.write_char(']')
            }
            Value::Obj(members) => {
                f.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` as a JSON string literal.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl Value {
    /// An object of `members`, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        let members = members.into_iter().map(|(k, v)| (k.to_string(), v));
        Value::Obj(members.collect())
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (a `U64` rounded to
    /// the nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in document order, if this is an object.
    pub fn members(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (rejecting trailing garbage).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json: {} at byte {}", msg, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{}'", lit)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let n = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(n)
    }

    fn string(&mut self) -> Result<String, String> {
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
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must
                                // follow with the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    /// An RFC 8259 number, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b"-");
        if !self.eat(b"0") && self.digits() == 0 {
            return Err(self.err("bad number"));
        }
        if self.eat(b".") && self.digits() == 0 {
            return Err(self.err("bad number"));
        }
        if self.eat(b"eE") {
            self.eat(b"+-");
            if self.digits() == 0 {
                return Err(self.err("bad number"));
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if let Ok(n) = s.parse::<u64>() {
            return Ok(Value::U64(n));
        }
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }

    /// Consumes the next byte if it is one of `any`.
    fn eat(&mut self, any: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| any.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": [true, false]}, "e": ""}"#)
            .unwrap();
        let a = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(a, [Value::U64(1), Value::Num(2.5), Value::Num(-300.0)]);
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Value::Null));
        assert_eq!(v.get("e").and_then(|e| e.as_str()), Some(""));
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for ok in [
            "0", "-0", "7", "-12", "10", "0.5", "-0.25", "1e5", "1E+5", "2.5e-3", "0e0",
        ] {
            assert!(parse(ok).is_ok(), "{ok:?} must parse");
        }
        for bad in [
            "01", "-01", "00", "1.", "[1.e5]", ".5", "-", "-.5", "+1", "1e", "1e+", "1.5E", "--1",
            "0x10", "[1.]", "[-]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parses_escapes_and_surrogate_pairs() {
        let v = parse(r#""a\n\t\"\\\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\A😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "\"unterminated",
            "\"\\u12\"",
            "\"\\ud800\"",
            "nulL",
            "1 2",
            "{\"a\":1}x",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn writes_compact_json_in_member_order() {
        let v = Value::obj([
            ("z", Value::U64(u64::MAX)),
            ("a", Value::Arr(vec![1.5.into(), 3.0.into(), Value::Null])),
            ("s", "q\"b\\n\n\r\t\u{1}✓".into()),
            ("t", Value::Bool(true)),
            ("e", Value::Obj(vec![])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"z":18446744073709551615,"a":[1.5,3.0,null],"s":"q\"b\\n\n\r\t\u0001✓","t":true,"e":{}}"#
        );
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        let v = Value::Arr(vec![
            f64::NAN.into(),
            f64::INFINITY.into(),
            (-f64::INFINITY).into(),
        ]);
        assert_eq!(v.to_string(), "[null,null,null]");
    }

    #[test]
    fn integers_read_back_as_u64_and_floats_as_num() {
        let v =
            parse("[9007199254740993, 18446744073709551615, 18446744073709551616, -1, 2.0, 1e3]");
        let want = [
            Value::U64(9_007_199_254_740_993),
            Value::U64(u64::MAX),
            Value::Num(18446744073709551616.0),
            Value::Num(-1.0),
            Value::Num(2.0),
            Value::Num(1000.0),
        ];
        assert_eq!(v.unwrap().as_arr().unwrap(), want);
    }

    /// A small xorshift: the round trip below is seeded, not random.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn string(&mut self) -> String {
            let pool = [
                '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'a', 'é', '✓', '😀',
            ];
            (0..self.below(8))
                .map(|_| match self.below(3) {
                    0 => pool[self.below(pool.len() as u64) as usize],
                    _ => char::from_u32(self.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                })
                .collect()
        }

        fn value(&mut self, depth: u32) -> Value {
            match self.below(if depth == 0 { 5 } else { 7 }) {
                0 => Value::Null,
                1 => Value::Bool(self.below(2) == 1),
                2 => match self.below(3) {
                    0 => Value::U64(u64::MAX - self.below(3)),
                    1 => Value::U64(self.below(1 << 20)),
                    _ => Value::U64(self.next()),
                },
                3 => loop {
                    let x = match self.below(3) {
                        0 => f64::from_bits(self.next()),
                        1 => self.below(1 << 20) as f64,
                        _ => (self.next() as f64 / u64::MAX as f64 - 0.5) * 1e6,
                    };
                    if x.is_finite() {
                        break Value::Num(x);
                    }
                },
                4 => Value::Str(self.string()),
                5 => Value::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
                _ => Value::Obj(
                    (0..self.below(4))
                        .map(|_| (self.string(), self.value(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn written_values_parse_back_equal() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2000 {
            let v = rng.value(4);
            let text = v.to_string();
            assert_eq!(parse(&text).as_ref(), Ok(&v), "{text}");
        }
    }

    #[test]
    fn keeps_member_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }
}
