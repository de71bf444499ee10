//! Bounded newline framing, shared by the daemon and the client.
//!
//! `BufRead::read_line` buffers without limit — on a socket that hands
//! the peer a memory-exhaustion lever. [`LineReader`] frames lines with
//! a hard byte cap instead: an over-long line is reported as
//! [`LineRead::TooLong`] without ever buffering more than the cap.

use std::io::BufRead;

/// How one framed read ended.
pub enum LineRead {
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// The peer closed the stream at a line boundary.
    Eof,
    /// The line exceeded the cap before its newline arrived. The
    /// stream is left mid-line; callers should answer-and-close rather
    /// than keep framing.
    TooLong,
}

/// A line framer with a per-line byte cap.
pub struct LineReader<R> {
    reader: R,
    max: usize,
    buf: Vec<u8>,
    /// Whether the previous `read` completed (line, EOF, or over-long).
    /// A `read` that failed mid-line — e.g. a socket read deadline
    /// expiring — leaves this false, so the next call *resumes*
    /// accumulating the same line instead of corrupting the framing.
    fresh: bool,
}

impl<R: BufRead> LineReader<R> {
    /// Frames lines of at most `max` bytes (newline excluded) from
    /// `reader`.
    pub fn new(reader: R, max: usize) -> LineReader<R> {
        LineReader {
            reader,
            max,
            buf: Vec::new(),
            fresh: true,
        }
    }

    /// The most recently framed line.
    #[must_use]
    pub fn line(&self) -> &[u8] {
        &self.buf
    }

    /// Frames the next line into the internal buffer. An `Err` return
    /// (including a read-deadline timeout) keeps any partial line; a
    /// later call picks up where the stream left off.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from the underlying reader.
    pub fn read(&mut self) -> std::io::Result<LineRead> {
        if self.fresh {
            self.buf.clear();
        }
        self.fresh = false;
        loop {
            let available = match self.reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                self.fresh = true;
                return Ok(if self.buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                });
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(newline) => {
                    let fits = self.buf.len() + newline <= self.max;
                    if fits {
                        self.buf.extend_from_slice(&available[..newline]);
                    }
                    self.reader.consume(newline + 1);
                    self.fresh = true;
                    return Ok(if fits {
                        LineRead::Line
                    } else {
                        LineRead::TooLong
                    });
                }
                None => {
                    let taken = available.len();
                    if self.buf.len() + taken > self.max {
                        self.reader.consume(taken);
                        self.fresh = true;
                        return Ok(LineRead::TooLong);
                    }
                    self.buf.extend_from_slice(available);
                    self.reader.consume(taken);
                }
            }
        }
    }

    /// The underlying reader, with whatever it has buffered but this
    /// framer has not consumed.
    pub fn into_inner(self) -> R {
        self.reader
    }

    /// Client-side convenience: the next line as a string, `None` at
    /// EOF.
    ///
    /// # Errors
    ///
    /// I/O errors from the reader; an over-long or non-UTF-8 line maps
    /// to [`std::io::ErrorKind::InvalidData`].
    pub fn next_line(&mut self) -> std::io::Result<Option<String>> {
        match self.read()? {
            LineRead::Eof => Ok(None),
            LineRead::TooLong => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line exceeds {} bytes", self.max),
            )),
            LineRead::Line => String::from_utf8(self.buf.clone()).map(Some).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "line is not UTF-8")
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_and_caps_lines() {
        let data: &[u8] = b"short\nexactly10!\nway too long line\nafter\ntail";
        let mut reader = LineReader::new(BufReader::new(data), 10);
        assert!(matches!(reader.read(), Ok(LineRead::Line)));
        assert_eq!(reader.line(), b"short");
        assert!(matches!(reader.read(), Ok(LineRead::Line)));
        assert_eq!(reader.line(), b"exactly10!");
        assert!(matches!(reader.read(), Ok(LineRead::TooLong)));
        // The over-long line was consumed with its newline; framing
        // recovers at the next line (the daemon closes anyway).
        assert!(matches!(reader.read(), Ok(LineRead::Line)));
        assert_eq!(reader.line(), b"after");
        // A final unterminated line still comes back before EOF.
        assert!(matches!(reader.read(), Ok(LineRead::Line)));
        assert_eq!(reader.line(), b"tail");
        assert!(matches!(reader.read(), Ok(LineRead::Eof)));
    }

    /// A reader that interleaves data chunks with transient errors —
    /// the shape of a socket with a read deadline.
    struct Flaky {
        steps: std::collections::VecDeque<Result<Vec<u8>, ()>>,
        current: Vec<u8>,
    }

    impl std::io::Read for Flaky {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("LineReader uses fill_buf/consume")
        }
    }

    impl BufRead for Flaky {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.current.is_empty() {
                match self.steps.pop_front() {
                    Some(Ok(bytes)) => self.current = bytes,
                    Some(Err(())) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WouldBlock,
                            "deadline",
                        ))
                    }
                    None => {}
                }
            }
            Ok(&self.current)
        }

        fn consume(&mut self, n: usize) {
            self.current.drain(..n);
        }
    }

    #[test]
    fn a_mid_line_error_does_not_corrupt_framing() {
        let flaky = Flaky {
            steps: [
                Ok(b"first\nsec".to_vec()),
                Err(()),
                Err(()),
                Ok(b"ond\nthird\n".to_vec()),
            ]
            .into_iter()
            .collect(),
            current: Vec::new(),
        };
        let mut reader = LineReader::new(flaky, 64);
        assert!(matches!(reader.read(), Ok(LineRead::Line)));
        assert_eq!(reader.line(), b"first");
        // Two deadline expiries mid-"second": the partial line must
        // survive both and complete when bytes resume.
        assert!(reader.read().is_err());
        assert!(reader.read().is_err());
        assert!(matches!(reader.read(), Ok(LineRead::Line)));
        assert_eq!(reader.line(), b"second");
        assert!(matches!(reader.read(), Ok(LineRead::Line)));
        assert_eq!(reader.line(), b"third");
        assert!(matches!(reader.read(), Ok(LineRead::Eof)));
    }
}
