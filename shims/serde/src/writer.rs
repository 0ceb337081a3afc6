//! The one JSON formatter behind every serialiser in the shims.
//!
//! Derived impls, the primitive impls and [`Value`](crate::Value) all
//! drive the same begin/key/element/end helpers, so comma placement,
//! indentation, integer and float formatting and string escaping live
//! here and nowhere else. Output streams straight into an
//! [`io::Write`]: nothing is buffered or allocated per value.

use std::io;

/// Streaming JSON writer: compact (no whitespace) or pretty (2-space
/// indent, `": "` after keys, like `serde_json::to_string_pretty`).
pub struct Writer<W> {
    out: W,
    pretty: bool,
    depth: usize,
}

/// One open array or object: whether it has an element yet, which
/// decides comma placement and whether the close gets its own line.
#[must_use = "pass the compound to the matching end_* call"]
pub struct Compound {
    empty: bool,
}

impl<W: io::Write> Writer<W> {
    /// A writer emitting compact JSON.
    pub fn compact(out: W) -> Self {
        Writer {
            out,
            pretty: false,
            depth: 0,
        }
    }

    /// A writer emitting pretty JSON.
    pub fn pretty(out: W) -> Self {
        Writer {
            out,
            pretty: true,
            depth: 0,
        }
    }

    /// JSON `null`.
    #[inline]
    pub fn null(&mut self) -> io::Result<()> {
        self.out.write_all(b"null")
    }

    /// JSON `true` / `false`.
    #[inline]
    pub fn bool(&mut self, b: bool) -> io::Result<()> {
        self.out.write_all(if b { b"true" } else { b"false" })
    }

    /// A non-negative integer, exact.
    #[inline]
    pub fn u64(&mut self, n: u64) -> io::Result<()> {
        let mut buf = [0u8; 20];
        let start = itoa(n, &mut buf);
        self.out.write_all(&buf[start..])
    }

    /// A signed integer, exact.
    #[inline]
    pub fn i64(&mut self, n: i64) -> io::Result<()> {
        if n < 0 {
            self.out.write_all(b"-")?;
        }
        self.u64(n.unsigned_abs())
    }

    /// A float: `{:?}` for finite values (keeps a trailing `.0` on
    /// integral floats and round-trips exactly, like serde_json's ryu
    /// output), `null` for NaN and ±inf.
    pub fn f64(&mut self, x: f64) -> io::Result<()> {
        if x.is_finite() {
            write!(self.out, "{x:?}")
        } else {
            self.null()
        }
    }

    /// A string, quoted and escaped.
    pub fn str(&mut self, s: &str) -> io::Result<()> {
        self.out.write_all(b"\"")?;
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            // Multi-byte UTF-8 sequences never contain bytes below 0x80,
            // so escaping byte-wise is escaping char-wise.
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0x00..=0x1f => b"",
                _ => continue,
            };
            self.out.write_all(&bytes[run..i])?;
            if escape.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.out.write_all(b"\\u00")?;
                self.out
                    .write_all(&[HEX[(b >> 4) as usize], HEX[(b & 15) as usize]])?;
            } else {
                self.out.write_all(escape)?;
            }
            run = i + 1;
        }
        self.out.write_all(&bytes[run..])?;
        self.out.write_all(b"\"")
    }

    /// Opens an array; follow with [`element`](Self::element) before
    /// each item and close with [`end_array`](Self::end_array).
    #[inline]
    pub fn begin_array(&mut self) -> io::Result<Compound> {
        self.open(b'[')
    }

    /// Separates and indents the next array item.
    #[inline]
    pub fn element(&mut self, c: &mut Compound) -> io::Result<()> {
        self.separate(c)
    }

    /// Closes an array.
    #[inline]
    pub fn end_array(&mut self, c: Compound) -> io::Result<()> {
        self.close(c, b']')
    }

    /// Opens an object; follow with [`key`](Self::key) before each
    /// value and close with [`end_object`](Self::end_object).
    #[inline]
    pub fn begin_object(&mut self) -> io::Result<Compound> {
        self.open(b'{')
    }

    /// Separates and indents the next entry and writes its key.
    #[inline]
    pub fn key(&mut self, c: &mut Compound, key: &str) -> io::Result<()> {
        self.separate(c)?;
        self.str(key)?;
        self.out.write_all(if self.pretty { b": " } else { b":" })
    }

    /// Closes an object.
    #[inline]
    pub fn end_object(&mut self, c: Compound) -> io::Result<()> {
        self.close(c, b'}')
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> io::Result<Compound> {
        self.depth += 1;
        self.out.write_all(&[bracket])?;
        Ok(Compound { empty: true })
    }

    #[inline]
    fn separate(&mut self, c: &mut Compound) -> io::Result<()> {
        if !std::mem::replace(&mut c.empty, false) {
            self.out.write_all(b",")?;
        }
        self.newline_indent()
    }

    #[inline]
    fn close(&mut self, c: Compound, bracket: u8) -> io::Result<()> {
        self.depth -= 1;
        if !c.empty {
            self.newline_indent()?;
        }
        self.out.write_all(&[bracket])
    }

    #[inline]
    fn newline_indent(&mut self) -> io::Result<()> {
        if self.pretty {
            self.out.write_all(b"\n")?;
            for _ in 0..self.depth {
                self.out.write_all(b"  ")?;
            }
        }
        Ok(())
    }
}

/// Writes `n` in decimal right-aligned into `buf`; returns where the
/// digits start.
#[inline]
fn itoa(mut n: u64, buf: &mut [u8; 20]) -> usize {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                2021222324252627282930313233343536373839\
                                4041424344454647484950515253545556575859\
                                6061626364656667686970717273747576777879\
                                8081828384858687888990919293949596979899";
    let mut pos = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + n as u8;
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn itoa_matches_display_at_the_edges() {
        let mut buf = [0u8; 20];
        for n in [
            0,
            9,
            10,
            99,
            100,
            101,
            999,
            1000,
            12_345,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let start = itoa(n, &mut buf);
            assert_eq!(&buf[start..], n.to_string().as_bytes());
        }
        let mut n = 1u64;
        while let Some(next) = n.checked_mul(10) {
            for m in [n - 1, n, n + 1] {
                let start = itoa(m, &mut buf);
                assert_eq!(&buf[start..], m.to_string().as_bytes());
            }
            n = next;
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let mut w = Writer::compact(Vec::new());
        w.str("a\"b\\c\nd\r\t\u{8}\u{c}\u{1}\u{1f}é✓").unwrap();
        assert_eq!(
            String::from_utf8(w.out).unwrap(),
            "\"a\\\"b\\\\c\\nd\\r\\t\\b\\f\\u0001\\u001fé✓\""
        );
    }

    #[test]
    fn empty_compounds_stay_on_one_line_when_pretty() {
        let mut w = Writer::pretty(Vec::new());
        let mut obj = w.begin_object().unwrap();
        w.key(&mut obj, "a").unwrap();
        let arr = w.begin_array().unwrap();
        w.end_array(arr).unwrap();
        w.key(&mut obj, "b").unwrap();
        w.i64(i64::MIN).unwrap();
        w.end_object(obj).unwrap();
        assert_eq!(
            String::from_utf8(w.out).unwrap(),
            "{\n  \"a\": [],\n  \"b\": -9223372036854775808\n}"
        );
    }
}
