//! The simulator's JSON codec: a recursive-descent tree parser
//! ([`parse`]), a pull [`Reader`] that walks a document in order without
//! building a tree, and a streaming [`Writer`] for its own artifacts
//! (disk-cache entries, trace-store manifests, wire lines, baseline and
//! metrics files).
//!
//! The workspace vendors no serde. Both readers accept the full JSON
//! grammar (RFC 8259) minus two corners the artifacts never use:
//! `\uXXXX` escapes beyond the BMP surrogate rules are passed through
//! unpaired, and numbers are kept exactly as written so integers
//! round-trip. They share one scanner for strings and numbers, which is
//! allocation-light on what the artifacts hold in bulk: a canonical
//! unsigned integer is read inline as a `u64`, and an unescaped string
//! is one borrowed slice.
//!
//! The writer appends into one `String` and formats integers directly.
//! Every canonical emitter that feeds a hash or a byte-identity check
//! (reports, cache entries, run keys, manifests, wire lines) goes
//! through it.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept exactly as written (see [`Number`]).
    Number(Number),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Keys are ordered (BTreeMap) so traversal is
    /// deterministic regardless of emission order.
    Object(BTreeMap<String, JsonValue>),
}

/// A JSON number and its exact lexeme. Two numbers are equal exactly
/// when their lexemes are.
#[derive(Debug, Clone, PartialEq)]
pub struct Number(Repr);

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// The lexeme is this value's canonical decimal form (no sign, no
    /// leading zeros): stored without allocating.
    U64(u64),
    /// Any other lexeme; it parses as an `f64` (checked when read).
    Other(Box<str>),
}

impl Number {
    /// The value as `f64` (for a `u64` above 2^53, the nearest `f64`,
    /// as parsing the lexeme would give).
    fn as_f64(&self) -> f64 {
        match &self.0 {
            Repr::U64(n) => *n as f64,
            Repr::Other(lexeme) => lexeme.parse().expect("checked when the number was read"),
        }
    }

    /// The value as `u64` when the lexeme is an unsigned integer.
    fn as_u64(&self) -> Option<u64> {
        match &self.0 {
            Repr::U64(n) => Some(*n),
            Repr::Other(lexeme) => lexeme.parse().ok(),
        }
    }

    fn write_lexeme(&self, out: &mut String) {
        match &self.0 {
            Repr::U64(n) => push_u64(out, *n),
            Repr::Other(lexeme) => out.push_str(lexeme),
        }
    }
}

impl JsonValue {
    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as `u64` (parsed from the exact lexeme), if it is a
    /// non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.get(key)
    }

    /// Serializes the value back to JSON text. Deterministic: object
    /// members emit in key order (the map is a `BTreeMap`) and numbers
    /// emit their original lexeme, so `parse(v.to_json_string())`
    /// reproduces `v` exactly. This is how a JSON subtree extracted from
    /// a larger document (e.g. an in-band fault plan) is re-fed to a
    /// parser that wants text.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => n.write_lexeme(out),
            JsonValue::String(s) => push_quoted(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_quoted(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting the parser accepts. The parser is
/// recursive-descent, so each `[` or `{` consumes native stack; without
/// a cap, a hostile `[[[…]]]` document overflows the stack and aborts
/// the process — fatal for a long-running socket server feeding this
/// parser untrusted bytes. 128 levels is far beyond any artifact this
/// repo emits (entries nest < 10 deep) while keeping worst-case stack
/// use a few tens of kilobytes.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// Container nesting is capped at [`MAX_DEPTH`]: deeper documents
/// return a [`JsonError`] instead of overflowing the parser's stack.
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first offending character.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Elements of the arrays being parsed, innermost last. A finished
    /// array moves its tail out in one exactly-sized allocation instead
    /// of growing its own vector element by element.
    items: Vec<JsonValue>,
    /// Members of the objects being parsed, innermost last; a finished
    /// object bulk-builds its map from its tail.
    members: Vec<(String, JsonValue)>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            items: Vec::new(),
            members: Vec::new(),
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
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

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => {
                let (lexeme, n) = self.number()?;
                Ok(JsonValue::Number(Number(match n {
                    Some(n) => Repr::U64(n),
                    None => Repr::Other(lexeme.into()),
                })))
            }
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Bumps the container-nesting depth on entering a `{`/`[`, erroring
    /// past [`MAX_DEPTH`]. Paired with a `self.depth -= 1` at each
    /// container's exit.
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mark = self.members.len();
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?.into_owned();
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                self.members.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        // A repeated key keeps its last value, as successive inserts
        // would (the bulk build is stable and keeps the last duplicate).
        Ok(JsonValue::Object(self.members.drain(mark..).collect()))
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mark = self.items.len();
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                self.skip_ws();
                let value = self.value()?;
                self.items.push(value);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(JsonValue::Array(self.items.drain(mark..).collect()))
    }

    /// A string, borrowed from the input when it holds no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let run = self.string_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = run.to_owned();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
            out.push_str(self.string_run());
        }
    }

    /// Everything up to the next quote or backslash, as one slice; both
    /// are ASCII, so the cut is a char boundary.
    fn string_run(&mut self) -> &'a str {
        let start = self.pos;
        self.pos = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(self.bytes.len(), |n| start + n);
        &self.text[start..self.pos]
    }

    /// A number's exact lexeme, and its value when the lexeme is a
    /// canonical `u64` (no sign, fraction, exponent or leading zero);
    /// any other lexeme is checked to parse as an `f64`.
    fn number(&mut self) -> Result<(&'a str, Option<u64>), JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // A plain digit run accumulates as it is scanned; it stays the
        // fast path while it is canonical and fits a u64.
        let digits_start = self.pos;
        let mut n: Option<u64> = Some(0);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            n = n
                .and_then(|n| n.checked_mul(10))
                .and_then(|n| n.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        let digits = self.pos - digits_start;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = &self.text[start..self.pos];
        let canonical =
            !negative && digits == raw.len() && (digits == 1 || raw.as_bytes()[0] != b'0');
        if let (true, Some(n)) = (canonical, n) {
            return Ok((raw, Some(n)));
        }
        raw.parse::<f64>()
            .map_err(|_| self.err(&format!("bad number '{raw}'")))?;
        Ok((raw, None))
    }
}

/// A pull reader over one JSON document: the caller asks for each
/// value in document order and no tree is built. Strings are borrowed
/// when they hold no escapes, [`u64`](Reader::u64) reads a canonical
/// unsigned integer inline, and [`raw`](Reader::raw) skips any value and
/// returns its exact text. Containers are tracked by a depth count, not
/// by recursion, so nesting is capped at [`MAX_DEPTH`] as in [`parse`].
///
/// The caller pairs each `begin_object` with [`next_key`](Reader::next_key)
/// calls and each `begin_array` with [`next_item`](Reader::next_item)
/// calls; the container is closed when they report its end.
///
/// ```
/// use cellsim_kernel::json::Reader;
/// let mut r = Reader::new(r#"{"id":"b1","runs":[1,2],"x":{"y":[]}}"#);
/// r.begin_object().unwrap();
/// r.member("id").unwrap();
/// assert_eq!(r.str().unwrap(), "b1");
/// r.member("runs").unwrap();
/// r.begin_array().unwrap();
/// let mut runs = Vec::new();
/// while r.next_item().unwrap() {
///     runs.push(r.u64().unwrap());
/// }
/// assert_eq!(runs, [1, 2]);
/// r.member("x").unwrap();
/// assert_eq!(r.raw().unwrap(), r#"{"y":[]}"#);
/// r.end_object().unwrap();
/// r.finish().unwrap();
/// ```
pub struct Reader<'a> {
    p: Parser<'a>,
    /// Whether the innermost container has yielded no entry yet (its
    /// next entry takes no leading comma).
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            p: Parser::new(text),
            first: false,
        }
    }

    /// The byte offset of the next unread byte.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.p.pos
    }

    /// Opens an object.
    ///
    /// # Errors
    ///
    /// [`JsonError`] unless the next value is an object within
    /// [`MAX_DEPTH`].
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{')
    }

    /// Opens an array.
    ///
    /// # Errors
    ///
    /// [`JsonError`] unless the next value is an array within
    /// [`MAX_DEPTH`].
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[')
    }

    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        self.p.skip_ws();
        self.p.expect(bracket)?;
        self.p.enter()?;
        self.first = true;
        Ok(())
    }

    /// The innermost object's next member key, its `:` consumed so the
    /// member's value comes next; `None` once the object's `}` is
    /// consumed.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on a malformed separator or key.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.p.string()?;
        self.p.skip_ws();
        self.p.expect(b':')?;
        Ok(Some(key))
    }

    /// Whether the innermost array has another item, which comes next;
    /// `false` once the array's `]` is consumed.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on a malformed separator.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.more(b']')
    }

    /// Consumes the separator before the innermost container's next
    /// entry, or its closing bracket (returning `false`).
    fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        self.p.skip_ws();
        if self.p.peek() == Some(close) {
            self.p.depth =
                (self.p.depth.checked_sub(1)).ok_or_else(|| self.p.err("no container is open"))?;
            self.p.pos += 1;
            self.first = false;
            return Ok(false);
        }
        if !std::mem::take(&mut self.first) {
            self.p.expect(b',')?;
            self.p.skip_ws();
        }
        Ok(true)
    }

    /// Reads the innermost object's next member key and requires it to
    /// be `name`.
    ///
    /// # Errors
    ///
    /// [`JsonError`] if the object ends or its next member is another.
    pub fn member(&mut self, name: &str) -> Result<(), JsonError> {
        match self.next_key()? {
            Some(key) if key == name => Ok(()),
            _ => Err(self.p.err(&format!("expected member \"{name}\""))),
        }
    }

    /// Closes the innermost object, which must have no further member.
    ///
    /// # Errors
    ///
    /// [`JsonError`] if another member follows.
    pub fn end_object(&mut self) -> Result<(), JsonError> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(self.p.err("unexpected member")),
        }
    }

    /// A canonical unsigned integer: digits only, no leading zero, at
    /// most `u64::MAX`.
    ///
    /// # Errors
    ///
    /// [`JsonError`] if the next value is anything else.
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        self.p.skip_ws();
        if !matches!(self.p.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.p.err("expected an unsigned integer"));
        }
        match self.p.number()? {
            (_, Some(n)) => Ok(n),
            (lexeme, None) => Err(self.p.err(&format!("'{lexeme}' is not a canonical u64"))),
        }
    }

    /// A string, borrowed when it holds no escapes.
    ///
    /// # Errors
    ///
    /// [`JsonError`] if the next value is not a string.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.p.skip_ws();
        self.p.string()
    }

    /// Skips the next value, checking its grammar, and returns its exact
    /// text. Nested containers are counted, not recursed into: a bit per
    /// level records whether it is an object.
    ///
    /// # Errors
    ///
    /// [`JsonError`] if the value is malformed or nests past
    /// [`MAX_DEPTH`].
    pub fn raw(&mut self) -> Result<&'a str, JsonError> {
        self.p.skip_ws();
        let start = self.p.pos;
        let base = self.p.depth;
        let mut objects: u128 = 0;
        loop {
            // The head of one value: a scalar, or a container's opening.
            self.p.skip_ws();
            match self.p.peek() {
                Some(b'{') => {
                    self.begin_object()?;
                    objects |= 1 << (self.p.depth - base - 1);
                }
                Some(b'[') => {
                    self.begin_array()?;
                    objects &= !(1 << (self.p.depth - base - 1));
                }
                Some(b'"') => {
                    self.p.string()?;
                }
                Some(b't') => self.p.literal("true")?,
                Some(b'f') => self.p.literal("false")?,
                Some(b'n') => self.p.literal("null")?,
                Some(b'-' | b'0'..=b'9') => {
                    self.p.number()?;
                }
                _ => return Err(self.p.err("expected a JSON value")),
            }
            // Close finished containers until another value is due.
            loop {
                let Some(level) = self.p.depth.checked_sub(base + 1) else {
                    return Ok(&self.p.text[start..self.p.pos]);
                };
                let due = if objects >> level & 1 == 1 {
                    self.next_key()?.is_some()
                } else {
                    self.next_item()?
                };
                if due {
                    break;
                }
            }
        }
    }

    /// Ends the read: only whitespace may follow.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on trailing characters.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.p.skip_ws();
        if self.p.pos == self.p.bytes.len() {
            Ok(())
        } else {
            Err(self.p.err("trailing characters after document"))
        }
    }
}

/// Escapes a string for embedding in emitted JSON (the counterpart of
/// [`parse`] for the few writers that need arbitrary strings).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` escaped: runs that need no escaping are copied whole.
fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        return;
    }
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 15)]));
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// `"00"` through `"99"`: decimal digit pairs for [`push_u64`].
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `v` in decimal without going through `fmt`, two digits at a
/// time.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 10 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v > 0 || i == buf.len() {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Builds one JSON document into a single `String`, in emission order
/// (object members are written as given, not sorted). Separators are
/// inserted automatically: every value or key after the first in its
/// container is preceded by a comma.
///
/// ```
/// use cellsim_kernel::json::Writer;
/// let mut w = Writer::new();
/// w.begin_object().key("id").str("b1").key("runs").u64s([1, 2]).end_object();
/// assert_eq!(w.finish(), r#"{"id":"b1","runs":[1,2]}"#);
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Whether the next value or key needs a leading comma.
    comma: bool,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer with room for `bytes` of output.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Writer {
        Writer {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    /// The document written so far.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    fn open(&mut self, c: char) -> &mut Writer {
        self.sep();
        self.out.push(c);
        self.comma = false;
        self
    }

    fn close(&mut self, c: char) -> &mut Writer {
        self.out.push(c);
        self.comma = true;
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Writer {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Writer {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Writer {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Writer {
        self.close(']')
    }

    /// Writes an object member's key; its value comes next.
    pub fn key(&mut self, name: &str) -> &mut Writer {
        self.sep();
        push_quoted(&mut self.out, name);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes an already-serialized JSON value verbatim (a subdocument
    /// from another canonical writer).
    pub fn raw(&mut self, json: &str) -> &mut Writer {
        self.sep();
        self.out.push_str(json);
        self.comma = true;
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.sep();
        push_u64(&mut self.out, v);
        self.comma = true;
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Writer {
        self.raw(if v { "true" } else { "false" })
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Writer {
        self.sep();
        push_quoted(&mut self.out, s);
        self.comma = true;
        self
    }

    /// Writes `v` as a string of 16 lowercase hex digits (`"{v:016x}"`),
    /// prefixed with `0x` when `prefixed` (`"{v:#018x}"`).
    pub fn hex(&mut self, v: u64, prefixed: bool) -> &mut Writer {
        self.sep();
        self.out.push_str(if prefixed { "\"0x" } else { "\"" });
        for shift in (0..16).rev() {
            self.out
                .push(char::from(HEX[((v >> (4 * shift)) & 15) as usize]));
        }
        self.out.push('"');
        self.comma = true;
        self
    }

    /// Writes an array of unsigned integers.
    pub fn u64s(&mut self, values: impl IntoIterator<Item = u64>) -> &mut Writer {
        self.begin_array();
        for v in values {
            self.u64(v);
        }
        self.end_array()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" 42 ").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{"e":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("c")
        );
        assert_eq!(v.get("d").unwrap().get("e"), Some(&JsonValue::Null));
    }

    #[test]
    fn big_u64_round_trips_exactly() {
        let big = u64::MAX - 3;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn numbers_keep_their_lexeme() {
        for text in [
            "0",
            "7",
            "0123",
            "-0",
            "-12",
            "1.50",
            "1e3",
            "18446744073709551616",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_json_string(), text);
            assert_eq!(v.as_f64(), text.parse::<f64>().ok(), "{text}");
            assert_eq!(v.as_u64(), text.parse::<u64>().ok(), "{text}");
        }
        assert_ne!(parse("1").unwrap(), parse("1.0").unwrap());
        assert_ne!(parse("1").unwrap(), parse("01").unwrap());
    }

    #[test]
    fn rejects_garbage_with_offset() {
        let err = parse("{\"a\":}").unwrap_err();
        assert_eq!(err.offset, 5);
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Regression: the parser is recursive-descent; before the depth
        // cap a payload like this blew the stack and killed the process.
        for open in ["[", "{\"k\":"] {
            let close = if open == "[" { "]" } else { "}" };
            let deep = format!("{}0{}", open.repeat(100_000), close.repeat(100_000));
            let err = parse(&deep).expect_err("over-deep document must be rejected");
            assert!(
                err.message.contains("nesting"),
                "error should name the depth cap: {err}"
            );
        }
        // Exactly at the cap parses fine; one past it does not.
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!(
            "{}0{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&over).is_err());
        // Sequential (non-nested) containers never hit the cap.
        let wide = format!("[{}]", vec!["[]"; 10_000].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn to_json_string_round_trips() {
        let text = r#"{"a":[1,2.5,{"b":"c\nd"}],"e":null,"f":true,"g":18446744073709551612}"#;
        let v = parse(text).unwrap();
        let emitted = v.to_json_string();
        assert_eq!(parse(&emitted).unwrap(), v);
        // Canonical: emitting the reparse reproduces the same bytes.
        assert_eq!(parse(&emitted).unwrap().to_json_string(), emitted);
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{0001}f\u{001f}é";
        let json = format!("\"{}\"", escape(nasty));
        assert_eq!(json, "\"a\\\"b\\\\c\\nd\\te\\u0001f\\u001fé\"");
        assert_eq!(parse(&json).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn integers_format_like_display() {
        let mut values = vec![0, 1, 9, u64::MAX, u64::MAX - 1];
        for k in 1..20 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p, p + 1, p + p / 2]);
        }
        for v in values {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn writer_matches_format() {
        let mut w = Writer::with_capacity(64);
        w.begin_object()
            .key("a")
            .u64(0)
            .key("b")
            .u64s([u64::MAX, 10])
            .key("c")
            .begin_array()
            .begin_object()
            .end_object()
            .begin_array()
            .end_array()
            .bool(true)
            .end_array()
            .key("d\"")
            .str("x\ny")
            .key("e")
            .hex(0xab, false)
            .key("f")
            .hex(u64::MAX, true)
            .key("g")
            .raw("{\"h\":null}")
            .end_object();
        let want = format!(
            "{{\"a\":0,\"b\":[{},10],\"c\":[{{}},[],true],\"d\\\"\":\"x\\ny\",\
             \"e\":\"{:016x}\",\"f\":\"{:#018x}\",\"g\":{{\"h\":null}}}}",
            u64::MAX,
            0xab,
            u64::MAX
        );
        assert_eq!(w.finish(), want);
    }

    /// Documents covering every value kind, nesting and whitespace.
    const DOCS: [&str; 6] = [
        r#"{"a":[1,2.5,{"b":"c\nd"}],"e":null,"f":true,"g":18446744073709551612}"#,
        " [ {} , [ ] , { \"k\" : [ [ false ] ] } , -0.5e3 , \"\\u00e9\" ] ",
        "\"plain\"",
        "0",
        "[[],[[]],{\"a\":{\"b\":{}}}]",
        "{\"x\":[{\"y\":[1,{\"z\":[]}]}],\"w\":\"\"}",
    ];

    #[test]
    fn reader_walks_members_in_order() {
        let mut r = Reader::new(DOCS[0]);
        r.begin_object().unwrap();
        r.member("a").unwrap();
        assert_eq!(r.raw().unwrap(), r#"[1,2.5,{"b":"c\nd"}]"#);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("e"));
        assert_eq!(r.raw().unwrap(), "null");
        r.member("f").unwrap();
        assert!(r.u64().is_err(), "true is not a number");
        let mut r = Reader::new(r#" { "s" : "a\"b" , "n" : [ 7 , 0 ] } "#);
        r.begin_object().unwrap();
        r.member("s").unwrap();
        let s = r.str().unwrap();
        assert!(matches!(s, Cow::Owned(_)), "an escaped string is decoded");
        assert_eq!(s, "a\"b");
        r.member("n").unwrap();
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.u64().unwrap(), 7);
        assert!(r.next_item().unwrap());
        assert_eq!(r.u64().unwrap(), 0);
        assert!(!r.next_item().unwrap());
        r.end_object().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn closing_what_was_never_opened_is_an_error() {
        assert!(Reader::new("}").next_key().is_err());
        assert!(Reader::new("]").next_item().is_err());
    }

    #[test]
    fn reader_borrows_plain_strings() {
        let mut r = Reader::new(r#"["plain"]"#);
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain")));
    }

    #[test]
    fn reader_refuses_what_the_caller_did_not_ask_for() {
        fn member<'a>(doc: &'a str, name: &str) -> Result<Reader<'a>, JsonError> {
            let mut r = Reader::new(doc);
            r.begin_object().unwrap();
            r.member(name).map(|()| r)
        }
        assert!(member(r#"{"b":1}"#, "a").is_err(), "another member");
        assert!(member("{}", "a").is_err(), "no member");
        let mut r = member(r#"{"a":1,"b":2}"#, "a").unwrap();
        r.u64().unwrap();
        assert!(r.end_object().is_err(), "an extra member");
        let mut r = member(r#"{"a":1,}"#, "a").unwrap();
        r.u64().unwrap();
        assert!(r.next_key().is_err(), "a trailing comma");
        for text in [
            "01",
            "1.0",
            "-1",
            "1e3",
            "18446744073709551616",
            "\"1\"",
            "-",
        ] {
            assert!(Reader::new(text).u64().is_err(), "{text}");
        }
        assert_eq!(Reader::new(&u64::MAX.to_string()).u64(), Ok(u64::MAX));
        let r = Reader::new("1 2");
        assert!(r.finish().is_err(), "nothing read is trailing text");
    }

    #[test]
    fn raw_matches_the_tree_parser() {
        for doc in DOCS {
            let mut r = Reader::new(doc);
            assert_eq!(r.raw().unwrap(), doc.trim());
            r.finish().unwrap();
            // Every proper prefix fails in both, never panicking.
            for cut in 0..doc.trim_end().len() {
                let Some(prefix) = doc.get(..cut) else {
                    continue;
                };
                let tree = parse(prefix).is_ok();
                let mut r = Reader::new(prefix);
                let pull = r.raw().is_ok() && r.finish().is_ok();
                assert_eq!(pull, tree, "{prefix:?}");
            }
        }
        for bad in [
            r#"{"a":1]"#,
            "[1}",
            "[1,]",
            r#"{"a"}"#,
            "{1:2}",
            "[tru]",
            "[\"\\q\"]",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(Reader::new(bad).raw().is_err(), "{bad}");
        }
    }

    #[test]
    fn raw_caps_nesting_without_recursing() {
        for open in ["[", "{\"k\":"] {
            let close = if open == "[" { "]" } else { "}" };
            let deep = format!("{}0{}", open.repeat(100_000), close.repeat(100_000));
            let err = Reader::new(&deep).raw().expect_err("over-deep value");
            assert!(err.message.contains("nesting"), "{err}");
        }
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(Reader::new(&ok).raw().unwrap(), ok);
        let over = format!("[{ok}]");
        assert!(Reader::new(&over).raw().is_err());
        // Levels already open count toward the cap.
        let mut r = Reader::new(&over);
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert!(r.raw().is_err());
    }
}
