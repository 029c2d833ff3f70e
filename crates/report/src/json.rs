//! Minimal hand-rolled JSON reader and string escaping — the workspace
//! deliberately has no serde. Moved here from the harness's bench module
//! so every schema (bench reports, run manifests) shares one parser.
//!
//! The reader covers objects, arrays, strings (common escapes only),
//! numbers, booleans, and null; writers in this workspace emit keys in a
//! fixed order by hand so their output diffs cleanly.

/// A parsed JSON value. Object keys keep their input order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `{...}` — key/value pairs in input order.
    Obj(Vec<(String, Value)>),
    /// `[...]`.
    Arr(Vec<Value>),
    /// A string.
    Str(String),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// Field `key` of an object.
    ///
    /// # Errors
    ///
    /// Returns a message when `self` is not an object or the key is absent.
    pub fn get(&self, key: &str) -> Result<&Value, String> {
        match self {
            Value::Obj(kvs) => kvs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("not an object while reading {key:?}")),
        }
    }

    /// String field `key`.
    ///
    /// # Errors
    ///
    /// Returns a message when absent or not a string.
    pub fn get_str(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            Value::Str(s) => Ok(s),
            other => Err(format!("field {key:?} is not a string: {other:?}")),
        }
    }

    /// Numeric field `key`.
    ///
    /// # Errors
    ///
    /// Returns a message when absent or not a number.
    pub fn get_num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Value::Num(n) => Ok(*n),
            other => Err(format!("field {key:?} is not a number: {other:?}")),
        }
    }

    /// Boolean field `key`.
    ///
    /// # Errors
    ///
    /// Returns a message when absent or not a boolean.
    pub fn get_bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("field {key:?} is not a bool: {other:?}")),
        }
    }

    /// Array field `key`.
    ///
    /// # Errors
    ///
    /// Returns a message when absent or not an array.
    pub fn get_arr(&self, key: &str) -> Result<&[Value], String> {
        match self.get(key)? {
            Value::Arr(xs) => Ok(xs),
            other => Err(format!("field {key:?} is not an array: {other:?}")),
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal (the trace
/// exporter's escaper).
pub use locksim_trace::tracer::json_escape as escape;

/// Parses `text` as a single JSON value (trailing content is an error).
///
/// # Errors
///
/// Returns a byte-positioned message on malformed input.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing content at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.b
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? != c {
            return Err(format!(
                "expected {:?} at byte {}, found {:?}",
                c as char, self.i, self.b[self.i] as char
            ));
        }
        self.i += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.lit("true", Value::Bool(true)),
            b'f' => self.lit("false", Value::Bool(false)),
            b'n' => self.lit("null", Value::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut kvs = Vec::new();
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(Value::Obj(kvs));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.expect(b':')?;
            kvs.push((k, self.value()?));
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Value::Obj(kvs));
                }
                c => return Err(format!("expected ',' or '}}' , found {:?}", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(Value::Arr(xs));
        }
        loop {
            xs.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Value::Arr(xs));
                }
                c => return Err(format!("expected ',' or ']', found {:?}", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.i += 1;
                    out.push(match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    });
                }
                c => out.push(c as char),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(v.get_arr("a").unwrap().len(), 3);
        assert!(v.get("b").unwrap().get_bool("c").unwrap());
        assert_eq!(v.get("b").unwrap().get("d").unwrap(), &Value::Null);
        assert!(v.get("zzz").is_err());
    }

    #[test]
    fn rejects_trailing_and_malformed() {
        assert!(parse("{} garbage").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a\"b\\c\nd\te";
        let text = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = parse(&text).unwrap();
        assert_eq!(v.get_str("k").unwrap(), nasty);
    }
}
