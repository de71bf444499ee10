//! Differential test of `json::parse` against the parser it replaced.
//!
//! `old` is a verbatim copy of the previous recursive-descent reader
//! (numbers as `f64` plus a heap lexeme, strings copied one character at
//! a time). On random valid documents both must give the same value; on
//! truncated, corrupted and over-deep input both must fail at the same
//! byte offset with the same message.

use cellsim_kernel::json::{self, JsonError, JsonValue, MAX_DEPTH};
use proptest::prelude::*;

mod old {
    use super::{JsonError, MAX_DEPTH};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        Null,
        Bool(bool),
        Number(f64, String),
        String(String),
        Array(Vec<JsonValue>),
        Object(BTreeMap<String, JsonValue>),
    }

    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn err(&self, message: &str) -> JsonError {
            JsonError {
                offset: self.pos,
                message: message.to_string(),
            }
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

        fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err(&format!("expected '{word}'")))
            }
        }

        fn value(&mut self) -> Result<JsonValue, JsonError> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(JsonValue::String(self.string()?)),
                Some(b't') => self.literal("true", JsonValue::Bool(true)),
                Some(b'f') => self.literal("false", JsonValue::Bool(false)),
                Some(b'n') => self.literal("null", JsonValue::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
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
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(JsonValue::Object(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                map.insert(key, value);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(JsonValue::Object(map));
                    }
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }

        fn array(&mut self) -> Result<JsonValue, JsonError> {
            self.expect(b'[')?;
            self.enter()?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }

        fn string(&mut self) -> Result<String, JsonError> {
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
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is a &str, so the
                        // byte stream is valid UTF-8 by construction).
                        let start = self.pos;
                        self.pos += 1;
                        while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                            self.pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..self.pos])
                                .expect("valid UTF-8 by construction"),
                        );
                    }
                }
            }
        }

        fn number(&mut self) -> Result<JsonValue, JsonError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
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
            let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
            let value: f64 = raw
                .parse()
                .map_err(|_| self.err(&format!("bad number '{raw}'")))?;
            Ok(JsonValue::Number(value, raw.to_string()))
        }
    }
}

/// Whether the new reader's value is the old reader's, number lexemes
/// and all.
fn same(old: &old::JsonValue, new: &JsonValue) -> bool {
    match (old, new) {
        (old::JsonValue::Null, JsonValue::Null) => true,
        (old::JsonValue::Bool(a), JsonValue::Bool(b)) => a == b,
        (old::JsonValue::String(a), JsonValue::String(b)) => a == b,
        (old::JsonValue::Number(value, lexeme), JsonValue::Number(_)) => {
            new.as_f64().map(f64::to_bits) == Some(value.to_bits())
                && &new.to_json_string() == lexeme
                && new.as_u64() == lexeme.parse().ok()
        }
        (old::JsonValue::Array(a), JsonValue::Array(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b))
        }
        (old::JsonValue::Object(a), JsonValue::Object(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
        }
        _ => false,
    }
}

fn check(text: &str) -> Result<(), TestCaseError> {
    match (old::parse(text), json::parse(text)) {
        (Ok(a), Ok(b)) => prop_assert!(same(&a, &b), "{:?}: {:?} vs {:?}", text, a, b),
        (Err(a), Err(b)) => prop_assert_eq!(a, b, "{:?}", text),
        (a, b) => prop_assert!(false, "{:?}: old {:?}, new {:?}", text, a, b),
    }
    Ok(())
}

/// A small deterministic generator (xorshift) driving document shape.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len() as u64) as usize]
    }

    fn ws(&mut self, out: &mut String) {
        if self.below(4) == 0 {
            out.push_str(self.pick(&[" ", "\n", "\t ", "\r\n  "]));
        }
    }

    fn number(&mut self, out: &mut String) {
        match self.below(8) {
            0 => out.push_str(&self.next().to_string()),
            1 => out.push_str(&(self.next() >> self.below(64)).to_string()),
            2 => out.push_str(&format!("-{}", self.below(1000))),
            3 => out.push_str(self.pick(&["0", "-0", "00", "0123", "1.0", "2.50", "-1.5e2"])),
            4 => out.push_str(self.pick(&["1e308", "1E-5", "3.14159", "6.02e+23", "1e400"])),
            5 => out.push_str(self.pick(&["18446744073709551615", "18446744073709551616"])),
            6 => out.push_str(self.pick(&["123456789012345678901234567890", "9007199254740993"])),
            _ => out.push_str(&format!("{}.{}", self.below(100), self.below(100))),
        }
    }

    fn string(&mut self, out: &mut String) {
        out.push('"');
        for _ in 0..self.below(6) {
            out.push_str(self.pick(&[
                "plain",
                "a b",
                "\\\"",
                "\\\\",
                "\\n",
                "\\/",
                "\\b\\f\\r\\t",
                "\\u0041",
                "\\u00e9",
                "\\uD834",
                "é",
                "日本",
                "🦀",
                "\u{1}",
            ]));
        }
        out.push('"');
    }

    fn value(&mut self, out: &mut String, depth: usize) {
        let container = depth < 6;
        match self.below(if container { 8 } else { 5 }) {
            0 => out.push_str(self.pick(&["null", "true", "false"])),
            1 | 2 => self.number(out),
            3 | 4 => self.string(out),
            5 | 6 => {
                out.push('{');
                for i in 0..self.below(5) {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out);
                    self.string(out);
                    self.ws(out);
                    out.push(':');
                    self.ws(out);
                    self.value(out, depth + 1);
                    self.ws(out);
                }
                out.push('}');
            }
            _ => {
                out.push('[');
                for i in 0..self.below(5) {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out);
                    self.value(out, depth + 1);
                    self.ws(out);
                }
                out.push(']');
            }
        }
    }

    fn document(&mut self) -> String {
        let mut out = String::new();
        self.ws(&mut out);
        self.value(&mut out, 0);
        self.ws(&mut out);
        out
    }
}

/// Characters spliced in by corruption: every JSON delimiter, escape
/// starters, digits, letters of the literals, and multibyte text.
const NOISE: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "-", "+", ".", "e", "0", "7", "t", "n", "u", " ",
    "é", "\u{0}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn valid_documents_parse_identically(seed in 1u64..u64::MAX) {
        let doc = Gen(seed).document();
        prop_assert!(old::parse(&doc).is_ok(), "generator produced {:?}", doc);
        check(&doc)?;
    }

    #[test]
    fn truncated_and_corrupted_documents_fail_identically(
        seed in 1u64..u64::MAX,
        cut in any::<u64>(),
        noise in 0usize..NOISE.len(),
    ) {
        let doc = Gen(seed).document();
        let boundaries: Vec<usize> = doc
            .char_indices()
            .map(|(i, _)| i)
            .chain([doc.len()])
            .collect();
        let at = boundaries[(cut % boundaries.len() as u64) as usize];
        check(&doc[..at])?;
        let mut spliced = doc[..at].to_string();
        spliced.push_str(NOISE[noise]);
        spliced.push_str(&doc[at..]);
        check(&spliced)?;
        if at < doc.len() {
            let next = boundaries.iter().find(|&&b| b > at).copied().unwrap_or(doc.len());
            let replaced = format!("{}{}{}", &doc[..at], NOISE[noise], &doc[next..]);
            check(&replaced)?;
        }
    }
}

#[test]
fn nesting_at_and_past_the_cap_fails_identically() {
    for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 10 * MAX_DEPTH] {
        for (open, close) in [("[", "]"), ("{\"k\":", "}"), ("[{\"k\":", "}]")] {
            let doc = format!("{}0{}", open.repeat(depth), close.repeat(depth));
            check(&doc).unwrap();
            check(&doc[..doc.len() - 1]).unwrap();
        }
    }
}

#[test]
fn fixed_corner_cases_match() {
    for doc in [
        "",
        " ",
        "-",
        "--1",
        "1.",
        ".5",
        "1e",
        "1e+",
        "01",
        "-01",
        "1.5.5",
        "+1",
        "0x10",
        "\"",
        "\"\\",
        "\"\\u12\"",
        "\"\\u+123\"",
        "\"\\x\"",
        "[1,]",
        "{\"a\"}",
        "{\"a\":1,}",
        "{1:2}",
        "tru",
        "nul",
        "[true false]",
        "{} {}",
        "\"\u{7f}\"",
        "18446744073709551615",
        "18446744073709551616",
        "-18446744073709551616",
        "{\"a\":1,\"a\":2}",
    ] {
        check(doc).unwrap();
    }
}
