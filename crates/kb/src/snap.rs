//! Binary snapshot codec for warm serving-session state.
//!
//! The serving subsystem (`jocl_serve`, ROADMAP "session persistence")
//! freezes a whole warm canonicalization session — OKB, blocking index,
//! factor graph, committed LBP messages — so a restarted process resumes
//! without a cold rebuild. Those states are large, numeric and exact
//! (restore must be *bitwise* identical, or the resumed messages are not
//! the committed fixed point), which rules out the TSV codec: floats
//! round-trip through shortest-decimal fine, but a multi-megabyte graph
//! would pay string parsing on the restart hot path.
//!
//! This module is the shared low-level layer: a length-prefixed
//! little-endian binary format with four-byte **section tags**, so a
//! truncated or mixed-up snapshot fails with the section and byte offset
//! it died at ([`KbError::Snapshot`]) instead of garbage state. Framing
//! rules:
//!
//! * scalars come in two encodings: fixed-width `u64` LE (`u32`,
//!   `usize` and `bool` widened to it, `f64` as raw bits) for headers
//!   and counts, and LEB128 varints ([`SnapWriter::vu64`]) for the
//!   bulk payloads, where small values dominate;
//! * sequences are a length followed by the elements: a `u64` length for
//!   [`SnapWriter::f64_slice`], a varint length for the packed forms
//!   (varint ids, delta-coded sorted ids, XOR-delta floats, raw `f32`
//!   bits, bitsets);
//! * strings are length-prefixed UTF-8 (`u64` or varint length);
//! * composite states start with a tag ([`SnapWriter::tag`] /
//!   [`SnapReader::expect_tag`]) naming the writer that produced them.
//!
//! Writers are infallible (they build a `Vec<u8>`); every reader returns
//! `Result<_, KbError>` and never panics on malformed input — corrupt
//! snapshots are an *operational* condition (killed writer, wrong file),
//! not a programming error.
//!
//! Every durable byte is framed here, once. A **sealed record**
//! ([`seal`]) is a magic, the payload length, the payload's FNV-1a
//! checksum and the payload. A snapshot file and a feed-cursor file are
//! one record each ([`unseal`]); the feed log is a run of them
//! ([`SnapReader::next_record`], which tells a torn tail from
//! corruption). A payload reader reports file offsets, so an error
//! points at the byte to hexdump. Whole files are replaced through
//! [`write_atomic`] (temp file + rename), the one place a future
//! `fsync` of a replaced file would go.

use crate::error::KbError;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Serializer half of the codec: appends to an owned byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before the first write.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a four-byte section tag (pad/truncate to 4 bytes).
    pub fn tag(&mut self, tag: &str) {
        let mut b = [b' '; 4];
        for (dst, src) in b.iter_mut().zip(tag.bytes()) {
            *dst = src;
        }
        self.buf.extend_from_slice(&b);
    }

    /// Write one `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write one `usize` (as `u64`).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write one `u32` (widened to `u64`).
    pub fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }

    /// Write one `bool` (as `u64` 0/1).
    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    /// Write one `f64` as raw bits (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a varint-length-prefixed UTF-8 string (one length byte for
    /// anything under 128 bytes, vs. the fixed 8 of [`SnapWriter::str`]).
    pub fn vstr(&mut self, s: &str) {
        self.vu64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a length-prefixed `f64` slice.
    pub fn f64_slice(&mut self, xs: &[f64]) {
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }

    /// Write one `u64` as a LEB128 varint (1–10 bytes; small values
    /// dominate snapshot payloads, so this is the packed-section
    /// workhorse).
    pub fn vu64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Write a `u32` slice as varints (length + values). ~1–2 bytes per
    /// small id.
    pub fn u32_slice_packed(&mut self, xs: &[u32]) {
        self.vu64(xs.len() as u64);
        for &x in xs {
            self.vu64(x as u64);
        }
    }

    /// Write a **non-decreasing** `u32` slice as first value + varint
    /// deltas. Sorted id runs (owners, links, pair columns) collapse to
    /// ~1 byte per element. Panics in debug builds if the input is not
    /// sorted; release builds would produce a stream the reader rejects.
    pub fn u32_slice_delta(&mut self, xs: &[u32]) {
        self.vu64(xs.len() as u64);
        let mut prev = 0u32;
        for (i, &x) in xs.iter().enumerate() {
            debug_assert!(i == 0 || x >= prev, "u32_slice_delta input must be non-decreasing");
            self.vu64(if i == 0 { x as u64 } else { (x - prev) as u64 });
            prev = x;
        }
    }

    /// Write an `f64` slice XOR-delta packed: each value's bits are
    /// XORed with the previous value's bits and written as a varint.
    /// Near-converged arenas (runs of equal or close values sharing
    /// sign/exponent/high-mantissa bits) collapse to a byte or two per
    /// element; incompressible data falls back to the raw image via a
    /// mode byte, so the packed form is never more than one byte worse.
    /// Bit-exact either way.
    pub fn f64_slice_packed(&mut self, xs: &[f64]) {
        let mut packed = 0usize;
        let mut prev = 0u64;
        for &x in xs {
            let word = x.to_bits() ^ prev;
            packed += varint_len(word);
            prev = x.to_bits();
        }
        if packed < xs.len() * 8 {
            self.buf.push(1);
            self.vu64(xs.len() as u64);
            let mut prev = 0u64;
            for &x in xs {
                self.vu64(x.to_bits() ^ prev);
                prev = x.to_bits();
            }
        } else {
            self.buf.push(0);
            self.vu64(xs.len() as u64);
            for &x in xs {
                self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }

    /// Write an `f32` slice as raw bits (bit-exact; quantized residuals
    /// are already dense, so no further packing).
    pub fn f32_slice(&mut self, xs: &[f32]) {
        self.vu64(xs.len() as u64);
        for &x in xs {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// Write a bool slice as a bitset (1 bit per flag).
    pub fn bool_slice_packed(&mut self, xs: &[bool]) {
        self.vu64(xs.len() as u64);
        let mut byte = 0u8;
        for (i, &x) in xs.iter().enumerate() {
            byte |= (x as u8) << (i % 8);
            if i % 8 == 7 {
                self.buf.push(byte);
                byte = 0;
            }
        }
        if !xs.len().is_multiple_of(8) {
            self.buf.push(byte);
        }
    }
}

/// Encoded length of one LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7).max(1)
}

/// Deserializer half: a cursor over a byte slice. Every accessor checks
/// bounds and reports the failing offset. A reader over a sealed
/// record's payload ([`SnapReader::next_record`], [`unseal`]) reports
/// offsets in the file that holds the record.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// File offset of `buf[0]`.
    base: usize,
}

impl<'a> SnapReader<'a> {
    /// Cursor at the start of `buf`, which starts at file offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self::at(buf, 0)
    }

    /// Cursor at the start of `buf`, which starts at file offset `base`.
    pub fn at(buf: &'a [u8], base: usize) -> Self {
        Self { buf, pos: 0, base }
    }

    /// Current file offset (for error context).
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Error constructor pinned to the current offset.
    pub fn corrupt(&self, msg: impl Into<String>) -> KbError {
        KbError::Snapshot { offset: self.offset(), msg: msg.into() }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], KbError> {
        if self.buf.len() - self.pos < n {
            return Err(self.corrupt(format!(
                "truncated: need {n} more bytes for {what}, {} left",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read and verify a four-byte section tag.
    pub fn expect_tag(&mut self, tag: &str) -> Result<(), KbError> {
        let at = self.offset();
        let got = self.take(4, "section tag")?;
        let mut want = [b' '; 4];
        for (dst, src) in want.iter_mut().zip(tag.bytes()) {
            *dst = src;
        }
        if got != want {
            return Err(KbError::Snapshot {
                offset: at,
                msg: format!("expected section {tag:?}, found {:?}", String::from_utf8_lossy(got)),
            });
        }
        Ok(())
    }

    /// Read one `u64`.
    pub fn u64(&mut self) -> Result<u64, KbError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read one `usize` (written as `u64`).
    pub fn usize(&mut self) -> Result<usize, KbError> {
        let at = self.offset();
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| KbError::Snapshot { offset: at, msg: format!("{v} overflows usize") })
    }

    /// Read one `u32` (written widened).
    pub fn u32(&mut self) -> Result<u32, KbError> {
        let at = self.offset();
        let v = self.u64()?;
        u32::try_from(v)
            .map_err(|_| KbError::Snapshot { offset: at, msg: format!("{v} overflows u32") })
    }

    /// Read one bool (0/1).
    pub fn bool(&mut self) -> Result<bool, KbError> {
        let at = self.offset();
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(KbError::Snapshot { offset: at, msg: format!("bool must be 0/1, got {v}") }),
        }
    }

    /// Read one `f64` from raw bits.
    pub fn f64(&mut self) -> Result<f64, KbError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a sequence length, sanity-capped against the remaining bytes
    /// (`min_elem_bytes` per element) so corrupt lengths fail here rather
    /// than in an allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, KbError> {
        let at = self.offset();
        let n = self.usize()?;
        let left = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > left {
            return Err(KbError::Snapshot {
                offset: at,
                msg: format!("sequence length {n} exceeds the {left} bytes remaining"),
            });
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, KbError> {
        let n = self.seq_len(1)?;
        let at = self.offset();
        let b = self.take(n, "string payload")?;
        String::from_utf8(b.to_vec())
            .map_err(|e| KbError::Snapshot { offset: at, msg: format!("invalid utf-8: {e}") })
    }

    /// Read a varint-length-prefixed UTF-8 string.
    pub fn vstr(&mut self) -> Result<String, KbError> {
        let n = self.vseq_len(1)?;
        let at = self.offset();
        let b = self.take(n, "string payload")?;
        String::from_utf8(b.to_vec())
            .map_err(|e| KbError::Snapshot { offset: at, msg: format!("invalid utf-8: {e}") })
    }

    /// Read a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, KbError> {
        let n = self.seq_len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Read one LEB128 varint `u64`.
    pub fn vu64(&mut self) -> Result<u64, KbError> {
        let at = self.offset();
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.take(1, "varint byte")?[0];
            let low = (b & 0x7f) as u64;
            if shift == 63 && low > 1 {
                return Err(KbError::Snapshot {
                    offset: at,
                    msg: "varint overflows u64".to_string(),
                });
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(KbError::Snapshot { offset: at, msg: "varint runs past 10 bytes".to_string() })
    }

    /// Read a packed-sequence length (varint), sanity-capped against the
    /// remaining bytes at `min_elem_bytes` per element.
    pub fn vseq_len(&mut self, min_elem_bytes: usize) -> Result<usize, KbError> {
        let at = self.offset();
        let v = self.vu64()?;
        let n = usize::try_from(v)
            .map_err(|_| KbError::Snapshot { offset: at, msg: format!("{v} overflows usize") })?;
        let left = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > left {
            return Err(KbError::Snapshot {
                offset: at,
                msg: format!("packed sequence length {n} exceeds the {left} bytes remaining"),
            });
        }
        Ok(n)
    }

    /// Read a varint-packed `u32` vector ([`SnapWriter::u32_slice_packed`]).
    pub fn u32_vec_packed(&mut self) -> Result<Vec<u32>, KbError> {
        let n = self.vseq_len(1)?;
        (0..n)
            .map(|_| {
                let at = self.offset();
                let v = self.vu64()?;
                u32::try_from(v).map_err(|_| KbError::Snapshot {
                    offset: at,
                    msg: format!("{v} overflows u32"),
                })
            })
            .collect()
    }

    /// Read a delta-packed non-decreasing `u32` vector
    /// ([`SnapWriter::u32_slice_delta`]).
    pub fn u32_vec_delta(&mut self) -> Result<Vec<u32>, KbError> {
        let n = self.vseq_len(1)?;
        let mut out = Vec::with_capacity(n);
        let mut prev = 0u64;
        for i in 0..n {
            let at = self.offset();
            let d = self.vu64()?;
            let v = if i == 0 { d } else { prev + d };
            if v > u32::MAX as u64 {
                return Err(KbError::Snapshot {
                    offset: at,
                    msg: format!("delta sequence climbs past u32 ({v})"),
                });
            }
            out.push(v as u32);
            prev = v;
        }
        Ok(out)
    }

    /// Read a packed `f64` vector ([`SnapWriter::f64_slice_packed`]).
    pub fn f64_vec_packed(&mut self) -> Result<Vec<f64>, KbError> {
        let at = self.offset();
        let mode = self.take(1, "f64 slice mode byte")?[0];
        match mode {
            0 => {
                let n = self.vseq_len(8)?;
                (0..n)
                    .map(|_| {
                        let b = self.take(8, "raw f64")?;
                        Ok(f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte slice"))))
                    })
                    .collect()
            }
            1 => {
                let n = self.vseq_len(1)?;
                let mut out = Vec::with_capacity(n);
                let mut prev = 0u64;
                for _ in 0..n {
                    prev ^= self.vu64()?;
                    out.push(f64::from_bits(prev));
                }
                Ok(out)
            }
            m => Err(KbError::Snapshot { offset: at, msg: format!("unknown f64 slice mode {m}") }),
        }
    }

    /// Read an `f32` vector ([`SnapWriter::f32_slice`]).
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, KbError> {
        let n = self.vseq_len(4)?;
        (0..n)
            .map(|_| {
                let b = self.take(4, "raw f32")?;
                Ok(f32::from_bits(u32::from_le_bytes(b.try_into().expect("4-byte slice"))))
            })
            .collect()
    }

    /// Read a bitset-packed bool vector ([`SnapWriter::bool_slice_packed`]).
    pub fn bool_vec_packed(&mut self) -> Result<Vec<bool>, KbError> {
        let at = self.offset();
        let v = self.vu64()?;
        let n = usize::try_from(v)
            .map_err(|_| KbError::Snapshot { offset: at, msg: format!("{v} overflows usize") })?;
        // The bitset spends one *bit* per flag, so cap against bitset
        // bytes rather than the 1-byte-per-element vseq_len floor.
        let nb = n.div_ceil(8);
        if nb > self.buf.len() - self.pos {
            return Err(KbError::Snapshot {
                offset: at,
                msg: format!(
                    "bitset length {n} needs {nb} bytes, {} remaining",
                    self.buf.len() - self.pos
                ),
            });
        }
        let at = self.offset();
        let bytes = self.take(nb, "bool bitset")?;
        if !n.is_multiple_of(8) && bytes[nb - 1] >> (n % 8) != 0 {
            return Err(KbError::Snapshot {
                offset: at + nb - 1,
                msg: "nonzero padding bits in bool bitset".to_string(),
            });
        }
        Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
    }

    /// Fail unless every byte was consumed — a snapshot with trailing
    /// garbage was produced by a different writer than this reader.
    pub fn expect_end(&self) -> Result<(), KbError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(self.corrupt(format!(
                "{} trailing bytes after the last section",
                self.buf.len() - self.pos
            )))
        }
    }

    /// Read the sealed record ([`seal`]) at the cursor and return a
    /// reader over its payload, or `None` for a **torn** record — fewer
    /// bytes than its header and payload length promise, as a writer
    /// killed (or still busy) mid-append leaves — without moving the
    /// cursor. A wrong magic is an error at the record's start, a payload
    /// whose checksum disagrees an error at the payload's start.
    pub fn next_record(&mut self, magic: &[u8]) -> Result<Option<SnapReader<'a>>, KbError> {
        let rest = &self.buf[self.pos..];
        if rest.len() < magic.len() {
            return Ok(None);
        }
        if &rest[..magic.len()] != magic {
            return Err(self.corrupt(format!(
                "bad magic {:?} (expected {:?}: a different file or format version, or a \
                 desynchronized offset)",
                String::from_utf8_lossy(&rest[..magic.len()]),
                String::from_utf8_lossy(magic)
            )));
        }
        let header = magic.len() + 16;
        if rest.len() < header {
            return Ok(None);
        }
        let word = |at: usize| u64::from_le_bytes(rest[at..at + 8].try_into().expect("8 bytes"));
        let (len, stored) = (word(magic.len()), word(magic.len() + 8));
        if len > (rest.len() - header) as u64 {
            return Ok(None);
        }
        let payload = &rest[header..header + len as usize];
        let record = SnapReader::at(payload, self.offset() + header);
        let actual = fnv1a(payload);
        if stored != actual {
            return Err(record.corrupt(format!(
                "checksum mismatch (stored {stored:#018x}, computed {actual:#018x}): torn or \
                 corrupted write"
            )));
        }
        self.pos += header + payload.len();
        Ok(Some(record))
    }
}

/// Frame `payload` as one **sealed record**, the layout of every durable
/// file (snapshot, feed cursor, each feed-log entry):
///
/// ```text
/// magic | payload length (u64 LE) | FNV-1a of payload (u64 LE) | payload
/// ```
///
/// The fixed-width header lets a reader tell a torn record from a
/// corrupt one before it trusts a payload byte.
pub fn seal(magic: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(magic.len() + 16 + payload.len());
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Open a file that holds exactly one sealed record: a reader over its
/// payload, with file offsets. A torn record and trailing bytes are
/// errors here, unlike in a log ([`SnapReader::next_record`]).
pub fn unseal<'a>(bytes: &'a [u8], magic: &[u8]) -> Result<SnapReader<'a>, KbError> {
    let mut r = SnapReader::new(bytes);
    let record = r.next_record(magic)?.ok_or_else(|| {
        r.corrupt(format!(
            "truncated: the {}-byte file is shorter than the record it starts",
            bytes.len()
        ))
    })?;
    r.expect_end()?;
    Ok(record)
}

/// Write `bytes` to `path` atomically: a temp file beside it, unique per
/// process and call (process id plus a counter, so concurrent writers
/// never share one), then a rename over `path`. A crash mid-write never
/// leaves a torn file under the final name, and a failed write removes
/// its temp file. Errors name `path`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), KbError> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp-{}-{}", std::process::id(), TMP_SEQ.fetch_add(1, Ordering::Relaxed)));
    let tmp = path.with_file_name(name);
    std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path)).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        KbError::from(e).with_path(path)
    })
}

/// FNV-1a checksum over a byte slice — the integrity word of a sealed
/// record, so a torn or corrupted write fails loudly on read.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_is_bit_exact() {
        let mut w = SnapWriter::new();
        w.tag("TEST");
        w.u64(u64::MAX);
        w.u32(7);
        w.bool(true);
        w.f64(0.1 + 0.2);
        w.f64(-0.0);
        w.str("universität 🦀");
        w.f64_slice(&[1.5, f64::MIN_POSITIVE]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.expect_tag("TEST").unwrap();
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u32().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "universität 🦀");
        assert_eq!(r.f64_vec().unwrap(), vec![1.5, f64::MIN_POSITIVE]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_reports_offset() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let mut bytes = w.into_bytes();
        bytes.truncate(5);
        let mut r = SnapReader::new(&bytes);
        match r.u64() {
            Err(KbError::Snapshot { offset: 0, msg }) => {
                assert!(msg.contains("truncated"), "{msg}")
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_tag_names_both_sections() {
        let mut w = SnapWriter::new();
        w.tag("OKB");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let msg = r.expect_tag("PLAN").unwrap_err().to_string();
        assert!(msg.contains("PLAN") && msg.contains("OKB"), "{msg}");
    }

    #[test]
    fn hostile_length_is_rejected_before_allocation() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // claimed sequence length
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let msg = r.f64_vec().unwrap_err().to_string();
        assert!(msg.contains("exceeds"), "{msg}");
    }

    #[test]
    fn non_utf8_string_is_a_typed_error() {
        let mut w = SnapWriter::new();
        w.usize(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let mut r = SnapReader::new(&bytes);
        assert!(r.str().unwrap_err().to_string().contains("utf-8"));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut w = SnapWriter::new();
        w.u64(3);
        let mut bytes = w.into_bytes();
        bytes.push(0);
        let mut r = SnapReader::new(&bytes);
        r.u64().unwrap();
        assert!(r.expect_end().unwrap_err().to_string().contains("trailing"));
    }

    #[test]
    fn packed_roundtrip_is_bit_exact() {
        let ids: Vec<u32> = vec![0, 1, 127, 128, 16384, u32::MAX];
        let sorted: Vec<u32> = vec![0, 0, 3, 900, 900, 1_000_000, u32::MAX];
        let floats = vec![-0.69, -0.69, -0.6900000001, f64::NEG_INFINITY, f64::NAN, -0.0, 1e300];
        let small: Vec<f32> = vec![0.5, -0.0, f32::NAN, f32::INFINITY];
        let flags: Vec<bool> = (0..19).map(|i| i % 3 == 0).collect();
        let mut w = SnapWriter::new();
        w.vu64(0);
        w.vu64(u64::MAX);
        w.u32_slice_packed(&ids);
        w.u32_slice_delta(&sorted);
        w.f64_slice_packed(&floats);
        w.f32_slice(&small);
        w.bool_slice_packed(&flags);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.vu64().unwrap(), 0);
        assert_eq!(r.vu64().unwrap(), u64::MAX);
        assert_eq!(r.u32_vec_packed().unwrap(), ids);
        assert_eq!(r.u32_vec_delta().unwrap(), sorted);
        let back = r.f64_vec_packed().unwrap();
        assert_eq!(back.len(), floats.len());
        for (a, b) in floats.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let back = r.f32_vec().unwrap();
        for (a, b) in small.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(r.bool_vec_packed().unwrap(), flags);
        r.expect_end().unwrap();
    }

    #[test]
    fn packed_encodings_actually_shrink() {
        // Sorted ids: delta varints ≈ 1 byte each vs 8.
        let sorted: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        let mut w = SnapWriter::new();
        w.u32_slice_delta(&sorted);
        assert!(w.len() < 1000 * 2, "{} bytes for 1000 sorted ids", w.len());
        // A near-converged arena: long runs of identical values XOR to
        // zero words.
        let arena: Vec<f64> = (0..1000).map(|i| -0.693 - ((i / 100) as f64) * 1e-9).collect();
        let mut w = SnapWriter::new();
        w.f64_slice_packed(&arena);
        assert!(w.len() < 1000 * 4, "{} bytes for 1000 near-equal f64s", w.len());
        // Incompressible data falls back to raw + mode byte.
        let noise: Vec<f64> = (0..100)
            .map(|i| f64::from_bits(0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 | 1)))
            .collect();
        let mut w = SnapWriter::new();
        w.f64_slice_packed(&noise);
        assert!(w.len() <= 100 * 8 + 3, "{} bytes for 100 raw f64s", w.len());
        // Bitset: 8 flags per byte.
        let mut w = SnapWriter::new();
        w.bool_slice_packed(&vec![true; 800]);
        assert_eq!(w.len(), 2 + 100);
    }

    #[test]
    fn packed_corruption_is_typed_never_a_panic() {
        // Unterminated varint (all continuation bits).
        let mut r = SnapReader::new(&[0xff; 11]);
        assert!(r.vu64().unwrap_err().to_string().contains("varint"));
        // Varint overflowing u64 in the 10th byte.
        let mut r = SnapReader::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        assert!(r.vu64().unwrap_err().to_string().contains("overflows u64"));
        // Hostile packed length.
        let mut w = SnapWriter::new();
        w.vu64(u64::MAX / 2);
        let bytes = w.into_bytes();
        assert!(SnapReader::new(&bytes)
            .u32_vec_packed()
            .unwrap_err()
            .to_string()
            .contains("exceeds"));
        // Delta sequence climbing past u32.
        let mut w = SnapWriter::new();
        w.vu64(2);
        w.vu64(u32::MAX as u64);
        w.vu64(1);
        let bytes = w.into_bytes();
        assert!(SnapReader::new(&bytes)
            .u32_vec_delta()
            .unwrap_err()
            .to_string()
            .contains("past u32"));
        // Unknown f64 mode byte.
        let mut r = SnapReader::new(&[9]);
        assert!(r.f64_vec_packed().unwrap_err().to_string().contains("mode"));
        // Nonzero padding bits in a bitset.
        let mut w = SnapWriter::new();
        w.vu64(3);
        let mut bytes = w.into_bytes();
        bytes.push(0xf0);
        assert!(SnapReader::new(&bytes)
            .bool_vec_packed()
            .unwrap_err()
            .to_string()
            .contains("padding"));
        // Hostile bitset length against a short buffer.
        let mut w = SnapWriter::new();
        w.vu64(1 << 40);
        let bytes = w.into_bytes();
        assert!(SnapReader::new(&bytes)
            .bool_vec_packed()
            .unwrap_err()
            .to_string()
            .contains("bitset"));
        // Truncated f32 payload: the length sanity cap catches it before
        // any element read.
        let mut w = SnapWriter::new();
        w.f32_slice(&[1.0, 2.0]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..bytes.len() - 2]);
        assert!(r.f32_vec().unwrap_err().to_string().contains("exceeds"));
    }

    fn sample_record(magic: &[u8]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.tag("TEST");
        w.u64(7);
        w.vstr("payload");
        seal(magic, &w.into_bytes())
    }

    fn snapshot_error(e: KbError) -> (usize, String) {
        match e {
            KbError::Snapshot { offset, msg } => (offset, msg),
            other => panic!("expected a snapshot error, got {other}"),
        }
    }

    /// A sealed record round-trips, alone and in a log, and its payload
    /// reader reports file offsets.
    #[test]
    fn sealed_record_roundtrips() {
        let one = sample_record(b"REC1");
        let header = 4 + 16;
        let mut r = unseal(&one, b"REC1").unwrap();
        assert_eq!(r.offset(), header);
        r.expect_tag("TEST").unwrap();
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.vstr().unwrap(), "payload");
        r.expect_end().unwrap();
        let mut r = unseal(&one, b"REC1").unwrap();
        let (offset, _) = snapshot_error(r.expect_tag("NOPE").unwrap_err());
        assert_eq!(offset, header);

        let log = [one.clone(), one.clone()].concat();
        let mut r = SnapReader::new(&log);
        let second = r.next_record(b"REC1").unwrap().unwrap();
        assert_eq!(second.offset(), header);
        let second = r.next_record(b"REC1").unwrap().unwrap();
        assert_eq!(second.offset(), one.len() + header);
        assert!(r.next_record(b"REC1").unwrap().is_none());
        assert_eq!(r.offset(), log.len());
    }

    /// Every proper prefix of a record is torn: `None` from
    /// `next_record` (cursor unmoved), a truncation error from `unseal`.
    #[test]
    fn torn_record_is_none_in_a_log_and_an_error_for_a_file() {
        let record = sample_record(b"REC1");
        for cut in 0..record.len() {
            let torn = &record[..cut];
            let mut r = SnapReader::at(torn, 100);
            assert!(r.next_record(b"REC1").unwrap().is_none(), "cut {cut}");
            assert_eq!(r.offset(), 100);
            let msg = unseal(torn, b"REC1").unwrap_err().to_string();
            assert!(msg.contains("truncated") && msg.contains("short"), "cut {cut}: {msg}");
        }
    }

    /// A wrong magic fails at the record's start, a flipped payload byte
    /// at the checksum, at the end of the header, and trailing bytes
    /// after a sealed file are an error.
    #[test]
    fn sealed_record_corruption_is_typed() {
        let record = sample_record(b"REC1");
        let (offset, msg) = snapshot_error(unseal(&record, b"REC2").err().unwrap());
        assert_eq!(offset, 0);
        assert!(msg.contains("bad magic") && msg.contains("REC1") && msg.contains("REC2"), "{msg}");
        let mut r = SnapReader::at(&record, 64);
        let (offset, _) = snapshot_error(r.next_record(b"REC2").err().unwrap());
        assert_eq!(offset, 64);

        let mut flipped = record.clone();
        *flipped.last_mut().unwrap() ^= 1;
        let (offset, msg) = snapshot_error(unseal(&flipped, b"REC1").err().unwrap());
        assert_eq!(offset, 4 + 16);
        assert!(msg.contains("checksum"), "{msg}");

        let mut trailing = record;
        trailing.push(0);
        let msg = unseal(&trailing, b"REC1").err().unwrap().to_string();
        assert!(msg.contains("1 trailing bytes"), "{msg}");
    }

    /// `write_atomic` replaces a file and leaves no temp file behind,
    /// whether it succeeds or fails; a failure names the target.
    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("jocl-write-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let names = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        let path = dir.join("state.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert_eq!(names(), ["state.bin"]);

        // The rename fails over a directory; the temp file is removed.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("inner")).unwrap();
        let msg = write_atomic(&blocked, b"x").unwrap_err().to_string();
        assert!(msg.contains("blocked"), "{msg}");
        assert_eq!(names(), ["blocked", "state.bin"]);
        // The temp write itself fails in a missing directory.
        let missing = dir.join("missing").join("state.bin");
        let msg = write_atomic(&missing, b"x").unwrap_err().to_string();
        assert!(msg.contains("missing"), "{msg}");
        assert_eq!(names(), ["blocked", "state.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_detects_single_bit_flips() {
        let mut w = SnapWriter::new();
        w.f64_slice(&[1.0, 2.0, 3.0]);
        let mut bytes = w.into_bytes();
        let sum = fnv1a(&bytes);
        bytes[9] ^= 1;
        assert_ne!(fnv1a(&bytes), sum);
    }
}
