//! The workspace's one JSON writer and parser.
//!
//! A document is built as a [`Json`] value and written with `Display`:
//! compact, one string escaper, integers exact and floats at the number of
//! decimals they were built with. The alternate form (`{:#}`) puts each
//! element of an array of objects on its own line, which is what keeps a
//! flight dump one record per line. [`Json::parse`] reads any document
//! back — route bodies, flight-dump lines, `BENCH_*.json` records.

use std::fmt;
use std::ops::Index;

/// Nesting [`Json::parse`] accepts: the documents written here nest five
/// deep, and the bound keeps hostile input from exhausting the stack.
pub const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, exact for every `u64` and `i64`.
    Int(i128),
    /// A float and the decimals it is written with (`null` when not finite).
    Float(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, fields in insertion order.
    Object(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// An object of the given fields, in order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Sets `key` on an object: replaces the field in place, or appends it.
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn insert(&mut self, key: &str, value: Json) {
        let Json::Object(fields) = self else {
            panic!("Json::insert on a non-object");
        };
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => fields.push((key.to_owned(), value)),
        }
    }

    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The fields of an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// An integer that fits an `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Any number, as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x, _) => Some(*x),
            _ => None,
        }
    }

    /// Parses one document. Trailing bytes other than whitespace, and
    /// nesting deeper than [`MAX_DEPTH`], are errors. Numbers are read as
    /// Rust reads them, which accepts a few spellings JSON does not.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text: text.as_bytes(),
            at: 0,
        };
        let value = p.value(0)?;
        p.skip_ws();
        if p.at < p.text.len() {
            return Err(p.error("trailing bytes after the document"));
        }
        Ok(value)
    }

    fn write(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x, decimals) if x.is_finite() => write!(f, "{x:.decimals$}"),
            Json::Float(..) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                // The alternate form: one line per element of an array of
                // objects.
                let lines = f.alternate() && items.iter().any(|i| matches!(i, Json::Object(_)));
                let sep = if lines { "\n" } else { "" };
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    f.write_str(sep)?;
                    item.write(f)?;
                }
                f.write_str(if items.is_empty() { "" } else { sep })?;
                f.write_str("]")
            }
            Json::Object(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i > 0 { "," } else { "" })?;
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    value.write(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// Writes `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else as is. Field values and thread
/// names are arbitrary text, and a hostile one must not end the string.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut plain = 0;
    for (i, ch) in s.char_indices() {
        let escape = match ch {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            c if (c as u32) < 0x20 => "",
            _ => continue,
        };
        f.write_str(&s[plain..i])?;
        if escape.is_empty() {
            write!(f, "\\u{:04x}", ch as u32)?;
        } else {
            f.write_str(escape)?;
        }
        plain = i + ch.len_utf8();
    }
    f.write_str(&s[plain..])?;
    f.write_str("\"")
}

/// Missing fields and out-of-range elements index to `null`, so a lookup
/// chain reads `doc["workers"]["w0"]["tasks_done"].as_u64()`.
impl Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Json {
    type Output = Json;

    fn index(&self, i: usize) -> &Json {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as i128)
            }
        }
    )*};
}
from_int!(u32, u64, usize, i32, i64);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'[') => self.list(b']', |p| p.value(depth + 1)).map(Json::Array),
            Some(b'{') => self
                .list(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if p.peek() != Some(b':') {
                        return Err(p.error("expected ':'"));
                    }
                    p.at += 1;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Object),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let literals = [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ];
                for (word, value) in literals {
                    if self.text[self.at..].starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return Ok(value);
                    }
                }
                Err(self.error("unexpected input"))
            }
        }
    }

    /// The elements of an array or the fields of an object, up to `close`.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b) if b == close => {
                    self.at += 1;
                    return Ok(items);
                }
                _ => return Err(self.error("expected ',' or the closing bracket")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.at += 1;
        }
        // Only ASCII was consumed.
        let text = std::str::from_utf8(&self.text[start..self.at]).expect("ASCII number");
        if let Ok(n) = text.parse() {
            return Ok(Json::Int(n));
        }
        let decimals = text
            .split(['e', 'E'])
            .next()
            .and_then(|mantissa| mantissa.split_once('.'))
            .map_or(0, |(_, fraction)| fraction.len());
        text.parse()
            .map(|x| Json::Float(x, decimals))
            .map_err(|_| self.error("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a string"));
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            // Copy up to the next quote, backslash or control byte whole:
            // those are ASCII, so the run ends on a character boundary.
            let run = self.text[self.at..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.error("unterminated string"))?;
            let chunk = &self.text[self.at..self.at + run];
            out.push_str(std::str::from_utf8(chunk).expect("a str cut at ASCII bytes"));
            self.at += run + 1;
            match self.text[self.at - 1] {
                b'"' => return Ok(out),
                b'\\' => {}
                _ => return Err(self.error("control character in string")),
            }
            let escaped = self.peek();
            self.at += 1;
            out.push(match escaped {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let code = self
                        .text
                        .get(self.at..self.at + 4)
                        .and_then(|hex| {
                            u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
                        })
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.error("malformed \\u escape"))?;
                    self.at += 4;
                    code
                }
                _ => return Err(self.error("unknown escape")),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_with_exact_integers_and_fixed_floats() {
        let mut doc = Json::object([
            ("big", Json::from(u64::MAX)),
            ("neg", Json::from(i64::MIN)),
            ("mean", Json::Float(12.0, 2)),
            ("pct", Json::Float(66.666, 1)),
            ("nan", Json::Float(f64::NAN, 3)),
            ("none", Json::from(None::<u64>)),
            ("list", ["a", "b"].into_iter().collect()),
        ]);
        doc.insert("pct", Json::Float(66.666, 2));
        doc.insert("last", true.into());
        let text = doc.to_string();
        assert_eq!(
            text,
            r#"{"big":18446744073709551615,"neg":-9223372036854775808,"mean":12.00,"pct":66.67,"nan":null,"none":null,"list":["a","b"],"last":true}"#
        );
        let back = Json::parse(&text).unwrap();
        assert_eq!(back["big"].as_u64(), Some(u64::MAX));
        assert_eq!(back["neg"].as_i64(), Some(i64::MIN));
        assert_eq!(back["mean"], Json::Float(12.0, 2));
        assert_eq!(back["list"][1].as_str(), Some("b"));
        assert_eq!(back["missing"]["deeper"][3], Json::Null);
    }

    #[test]
    fn alternate_form_puts_each_object_of_an_array_on_its_own_line() {
        let events = (1..=2)
            .map(|n| Json::object([("n", Json::from(n))]))
            .collect();
        let doc = Json::object([
            ("ids", ["1", "2"].into_iter().collect()),
            ("events", events),
        ]);
        let text = format!("{doc:#}");
        assert_eq!(
            text,
            "{\"ids\":[\"1\",\"2\"],\"events\":[\n{\"n\":1},\n{\"n\":2}\n]}"
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn hostile_strings_roundtrip_through_json_escaping() {
        let hostile = [
            "quote\"in",
            "back\\slash",
            "new\nline\ttab\r",
            "ctrl\u{1}\u{1f}",
            "uni ✓ 🚀",
            "\"},\"pwned\":{\"",
        ];
        for s in hostile {
            let written = Json::from(s).to_string();
            assert!(!written.chars().any(|c| (c as u32) < 0x20), "{written:?}");
            // Only the delimiting quotes are bare: the value cannot end
            // the string early.
            let inner = &written[1..written.len() - 1];
            assert!(
                !inner.replace("\\\\", "").replace("\\\"", "").contains('"'),
                "{written:?}"
            );
            assert_eq!(Json::parse(&written).unwrap().as_str(), Some(s));
        }
        // Escapes the writer never emits still parse; malformed ones, a
        // lone surrogate among them, are rejected, not mangled.
        assert_eq!(
            Json::parse(r#""a\/b\u0041\u00e9""#).unwrap().as_str(),
            Some("a/bAé")
        );
        for bad in [
            r#""bad\"#,
            r#""bad\q""#,
            r#""bad\u12""#,
            r#""\ud83d""#,
            "\"a\nb\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn parse_rejects_trailing_bytes_deep_nesting_and_malformed_input() {
        assert!(Json::parse(" {\"a\": [1, 2.5, true, null]} \n").is_ok());
        let trailing = Json::parse("{} {}").unwrap_err();
        assert!(
            trailing.ends_with("trailing bytes after the document"),
            "{trailing}"
        );
        let nested = |depth| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let too_deep = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(too_deep.ends_with("nesting too deep"), "{too_deep}");
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{1:2}",
            "-",
            "1e",
            "tru",
            "\"open",
            "[1 2]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
