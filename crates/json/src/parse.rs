//! Recursive-descent JSON parser.
//!
//! Accepts the full JSON grammar (RFC 8259); rejects trailing garbage.
//! Numbers keep their lexical class: integer literals that fit `u64`
//! (non-negative) or `i64` (negative) stay integers, everything else
//! parses through `str::parse::<f64>` (correctly rounded, so floats
//! round-trip bit-exactly with the shortest-representation writer).

use crate::{JsonError, Value};

/// Arrays and objects nested deeper than this are refused. Each level is
/// a few stack frames of the recursive descent, so a document of nothing
/// but `[` would otherwise overflow the stack and abort the process.
const MAX_DEPTH: usize = 256;

/// Parse one JSON document out of `text`.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
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
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Parse one nested array or object with `parse`, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(
                                self.err(&format!("invalid escape '\\{}'", other as char))
                            )
                        }
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // `from_str_radix` alone would take a sign: `\u+041` is not JSON.
        if !chunk.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid \\u escape"));
        }
        let s = std::str::from_utf8(chunk).expect("hex digits are ASCII");
        let n = u32::from_str_radix(s, 16).expect("four hex digits fit u32");
        self.pos += 4;
        Ok(n)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("42").unwrap(), Value::UInt(42));
        assert_eq!(parse("-42").unwrap(), Value::Int(-42));
        assert_eq!(parse("4.5e2").unwrap(), Value::Float(450.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": -0.5}"#).unwrap();
        assert_eq!(v.get("c").unwrap(), &Value::Float(-0.5));
        let Value::Array(items) = v.get("a").unwrap() else {
            panic!()
        };
        assert_eq!(items[1].get("b").unwrap(), &Value::Null);
    }

    #[test]
    fn string_escapes_and_unicode() {
        let v = parse(r#""a\n\t\"\\é😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\n\t\"\\é😀");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "tru", "\"unterminated", "1 2", "{\"a\" 1}", "nan"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_take_four_hex_digits_and_no_sign() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Value::Str("A".into()));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004""#] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn big_u64_stays_exact() {
        let n = u64::MAX;
        assert_eq!(parse(&n.to_string()).unwrap(), Value::UInt(n));
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nest = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.to_string().contains("nesting deeper than 256 levels"),
            "{err}"
        );
        // A million unclosed brackets used to abort the process.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(100_000)).is_err());
    }
}
