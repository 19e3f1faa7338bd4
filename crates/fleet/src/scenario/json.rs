//! Minimal deterministic JSON: the workspace's one codec.
//!
//! Scenario files parse and render through it, and so does every
//! emitted record — telemetry traces and timelines, and the bench
//! bins' `BENCH_*.json` artifacts — so float spelling, string escaping
//! and `null` are decided here and nowhere else. It is a small value
//! model, a strict parser, and a deterministic renderer. Two
//! properties matter more than generality here:
//!
//! * **Losslessness.** Floats render via `f64`'s `Debug` formatting,
//!   which is shortest-roundtrip (`render(x).parse::<f64>() == x`
//!   exactly) and always distinguishable from an integer token (it
//!   always emits a `.` or an exponent). Integers keep a dedicated
//!   [`Json::Int`] variant so `u64` seeds above 2^53 survive a round
//!   trip bit-for-bit.
//! * **Byte determinism.** Objects preserve insertion order and the
//!   renderer is a pure function of the value, so the same spec always
//!   renders the same bytes — the contract the fuzz campaign's
//!   byte-identical artifacts and the committed scenario files rely on.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number token without `.` or exponent (lossless for `u64`).
    Int(i128),
    /// A number token with `.` or exponent.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (preserved by the renderer).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (`None` on other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; may round above 2^53).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a `u64` (exact integers only).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as a `usize` (exact integers only).
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match *self {
            Json::Int(i) => usize::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value compactly (no whitespace) and
    /// deterministically: same value ⇒ same bytes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Renders with two-space indentation (committed scenario files
    /// are meant to be read and edited by hand). Deterministic like
    /// [`render`](Self::render).
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => out.push_str(&render_f64(*n)),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn render_pretty_into(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.render_pretty_into(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_pretty_into(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push('}');
            }
            other => other.render_into(out),
        }
    }

    /// Parses a JSON document (one value, optionally surrounded by
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns a reason string with the byte offset of the problem,
    /// including arrays and objects nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Shortest-roundtrip float rendering. `Debug` always emits a `.` or
/// an exponent, so a rendered [`Json::Num`] never re-parses as
/// [`Json::Int`]. Non-finite values have no JSON spelling, so they
/// render as `null`; callers that need to tell them apart validate
/// finiteness first.
fn render_f64(n: f64) -> String {
    if n.is_finite() {
        format!("{n:?}")
    } else {
        "null".to_owned()
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so this bounds its stack: a
/// document of 200 000 `[` is an error naming the level, not a stack
/// overflow. Committed scenario and regression files nest at most
/// four levels deep.
pub(crate) const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    /// Parses one array or object with `parse`, one level deeper,
    /// refusing to open a level past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting depth {} exceeds the limit of {MAX_DEPTH} at byte {}",
                MAX_DEPTH + 1,
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?} at byte {}", self.pos));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast path: run of plain bytes
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
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
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let c = char::from_u32(hex).ok_or_else(|| {
                                format!("\\u escape is not a scalar at byte {}", self.pos)
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let token = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if fractional {
            let n: f64 = token
                .parse()
                .map_err(|_| format!("invalid number {token:?} at byte {start}"))?;
            if !n.is_finite() {
                return Err(format!("non-finite number {token:?} at byte {start}"));
            }
            Ok(Json::Num(n))
        } else {
            let i: i128 = token
                .parse()
                .map_err(|_| format!("invalid integer {token:?} at byte {start}"))?;
            Ok(Json::Int(i))
        }
    }
}

/// `Json::Num`, from a finite float.
#[must_use]
pub fn num(n: f64) -> Json {
    Json::Num(n)
}

/// `Json::Int`, from a `u64` (lossless; seeds can exceed 2^53).
#[must_use]
pub fn int(i: u64) -> Json {
    Json::Int(i128::from(i))
}

/// `Json::Int`, from a `usize`.
#[must_use]
pub fn uint(i: usize) -> Json {
    Json::Int(i as i128)
}

/// `Json::Str`, from anything string-like.
#[must_use]
pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// `Json::Obj`, from `(key, value)` pairs kept in the order given.
#[must_use]
pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trips_structures() {
        let text = r#"{"a":[1,2.5,-3],"b":{"c":true,"d":null},"e":"x\ny"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        // pretty rendering parses back to the same value
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn floats_are_shortest_roundtrip_and_typed() {
        for x in [
            0.002,
            1.0 / 3.0,
            5e-3,
            1e300,
            -0.0,
            45_000.5,
            f64::MIN_POSITIVE,
        ] {
            let rendered = render_f64(x);
            let back: f64 = rendered.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{rendered}");
            // a rendered float never re-parses as an integer token
            assert!(matches!(Json::parse(&rendered).unwrap(), Json::Num(_)));
        }
        // whole floats keep their ".0" so the Num/Int distinction survives
        assert_eq!(render_f64(5.0), "5.0");
    }

    #[test]
    fn big_integers_survive_exactly() {
        let seed = u64::MAX - 12345;
        let v = int(seed);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back.as_u64(), Some(seed));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "[1e999]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = Json::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(deepest.render(), nested(MAX_DEPTH));
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.contains(&format!("depth {}", MAX_DEPTH + 1))
                && err.contains(&format!("byte {MAX_DEPTH}")),
            "must name the depth and offset: {err}"
        );
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).unwrap_err().contains("nesting depth"));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = obj([("z", int(1)), ("a", int(2))]);
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn accessors_select_the_right_variants() {
        let v = Json::parse(r#"{"i":7,"f":7.5,"s":"x","b":false,"a":[1]}"#).unwrap();
        assert_eq!(v.get("i").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("i").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(7.5));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Int(-1).as_u64(), None, "negatives are not u64");
    }
}
