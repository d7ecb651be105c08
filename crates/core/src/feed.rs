//! The delta-feed log: an append-only file of serving deltas that read
//! replicas follow.
//!
//! The networked serving plane has exactly one writer. Every delta it
//! commits — one [`DeltaOp`] batch per [`crate::IncrementalJocl::apply_ops`]
//! call, or a manual compaction — is appended here as a framed record,
//! and a replica that warm-restored the writer's snapshot replays the
//! records *after* the snapshot's feed offset to catch up. Because the
//! warm-start work of a delta depends on its batch boundaries, records
//! preserve them: a replica that applies the same batches from the same
//! restored state converges to **bitwise-identical** session state (the
//! PR-5 `snapshot → restore → delta` contract, applied per record).
//!
//! Each record is one sealed record of the shared durable layout
//! ([`jocl_kb::snap::seal`]), all little-endian:
//!
//! ```text
//! ┌────────────────────────────┐
//! │ magic "FDR2"               │  4 bytes
//! │ payload length   (u64)     │
//! │ FNV-1a of payload (u64)    │
//! │ payload                    │  SnapWriter-encoded FeedEntry
//! └────────────────────────────┘
//! ```
//!
//! Version 2 delta-encodes the payload: entry/op kind markers, op
//! counts and string lengths are LEB128 varints instead of fixed
//! 8-byte words, so a typical single-triple record shrinks from ~90
//! to ~40 bytes — replica catch-up traffic is dominated by phrase
//! text, not framing. The header keeps fixed-width length/checksum
//! words: the torn-tail scan must read them before trusting anything.
//!
//! The reader distinguishes a **torn tail** (the writer died or is
//! still mid-append: fewer bytes than the header + payload promise)
//! from **corruption** (a complete record whose checksum or framing is
//! wrong). A torn tail is an operational non-event — the replica simply
//! stops before it and retries on the next poll — while corruption is a
//! typed [`KbError`] naming the byte offset, because replaying a
//! half-trusted log would silently fork the replica.
//!
//! [`IncrementalJocl`]: crate::IncrementalJocl

use crate::incremental::DeltaOp;
#[cfg(test)]
use jocl_kb::snap::fnv1a;
use jocl_kb::snap::{seal, SnapReader, SnapWriter};
use jocl_kb::{KbError, Triple};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Record magic; the trailing digit is the format version.
const MAGIC: &[u8; 4] = b"FDR2";
/// Bytes before a record's payload: magic + length + checksum.
#[cfg(test)]
const HEADER: usize = 4 + 8 + 8;

/// One replicated event: a delta batch as the writer applied it, or a
/// manual compaction. (Threshold-triggered auto-compaction is *not* an
/// event — it is a deterministic function of the config both sides
/// share, so replicas re-derive it.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedEntry {
    /// One `apply_ops` batch, in application order.
    Ops(Vec<DeltaOp>),
    /// A manual cold rebuild from the survivors.
    Compact,
}

fn write_triple(w: &mut SnapWriter, t: &Triple) {
    w.vstr(&t.subject);
    w.vstr(&t.predicate);
    w.vstr(&t.object);
}

fn read_triple(r: &mut SnapReader<'_>) -> Result<Triple, KbError> {
    let subject = r.vstr()?;
    let predicate = r.vstr()?;
    let object = r.vstr()?;
    Ok(Triple { subject, predicate, object })
}

/// Serialize one entry into a framed record.
pub fn encode_entry(entry: &FeedEntry) -> Vec<u8> {
    let mut w = SnapWriter::new();
    match entry {
        FeedEntry::Compact => w.vu64(1),
        FeedEntry::Ops(ops) => {
            w.vu64(0);
            w.vu64(ops.len() as u64);
            for op in ops {
                match op {
                    DeltaOp::Add(t) => {
                        w.vu64(0);
                        write_triple(&mut w, t);
                    }
                    DeltaOp::Retract(t) => {
                        w.vu64(1);
                        write_triple(&mut w, t);
                    }
                    DeltaOp::Revise { old, new } => {
                        w.vu64(2);
                        write_triple(&mut w, old);
                        write_triple(&mut w, new);
                    }
                }
            }
        }
    }
    seal(MAGIC, &w.into_bytes())
}

fn decode_payload(r: &mut SnapReader<'_>) -> Result<FeedEntry, KbError> {
    let entry = match r.vu64()? {
        1 => FeedEntry::Compact,
        0 => {
            // Min bytes per op: 1 kind byte + one varint-prefixed
            // (possibly empty) string per triple slot.
            let n = r.vseq_len(4)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let op = match r.vu64()? {
                    0 => DeltaOp::Add(read_triple(r)?),
                    1 => DeltaOp::Retract(read_triple(r)?),
                    2 => {
                        let old = read_triple(r)?;
                        let new = read_triple(r)?;
                        DeltaOp::Revise { old, new }
                    }
                    k => return Err(r.corrupt(format!("unknown op kind {k}"))),
                };
                ops.push(op);
            }
            FeedEntry::Ops(ops)
        }
        k => return Err(r.corrupt(format!("unknown feed-entry kind {k}"))),
    };
    r.expect_end()?;
    Ok(entry)
}

/// Append one entry to the log at `path` (creating it if absent) and
/// return the byte offset of the log end after the append — the cursor
/// a fully-caught-up replica would hold. The record bytes are written
/// in one `write_all` on an `O_APPEND` handle; a reader polling
/// concurrently sees either the whole record or a torn tail it skips.
pub fn append_entry(path: &Path, entry: &FeedEntry) -> Result<u64, KbError> {
    let with_path = |e: std::io::Error| KbError::from(e).with_path(path);
    let mut file =
        std::fs::OpenOptions::new().create(true).append(true).open(path).map_err(with_path)?;
    file.write_all(&encode_entry(entry)).map_err(with_path)?;
    file.flush().map_err(with_path)?;
    Ok(file.metadata().map_err(with_path)?.len())
}

/// Read every *complete* entry starting at byte `offset`, returning the
/// entries and the offset just past the last complete record (the next
/// poll's starting point). Only the bytes from `offset` on are read, so
/// a caught-up follower's poll costs the new tail, not the whole log. A
/// missing file reads as an empty feed at offset `offset` — the writer
/// simply has not committed anything yet. A torn tail stops the scan;
/// corruption (bad magic, bad checksum on a complete record, offsets
/// past the end of the file) is a typed error naming the log file, with
/// file-absolute offsets.
pub fn read_entries(path: &Path, offset: u64) -> Result<(Vec<FeedEntry>, u64), KbError> {
    let with_path = |e: std::io::Error| KbError::from(e).with_path(path);
    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && offset == 0 => {
            return Ok((Vec::new(), 0));
        }
        Err(e) => return Err(with_path(e)),
    };
    let corrupt = |offset: usize, msg: String| KbError::Snapshot { offset, msg }.with_path(path);
    let start = usize::try_from(offset)
        .map_err(|_| corrupt(0, format!("cursor offset {offset} overflows usize")))?;
    let len = file.metadata().map_err(with_path)?.len();
    if offset > len {
        return Err(corrupt(
            start,
            format!("cursor offset {start} is past the end of the {len}-byte log"),
        ));
    }
    file.seek(SeekFrom::Start(offset)).map_err(with_path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(with_path)?;
    let mut r = SnapReader::at(&bytes, start);
    let mut entries = Vec::new();
    while let Some(mut record) = r.next_record(MAGIC).map_err(|e| e.with_path(path))? {
        entries.push(decode_payload(&mut record).map_err(|e| e.with_path(path))?);
    }
    Ok((entries, r.offset() as u64))
}

/// Truncate the log to `offset` bytes — the writer calls this when a
/// `restore` rewinds the session to a snapshot: operations past the
/// snapshot's feed offset are being discarded, so replicas must never
/// see them either.
pub fn truncate_to(path: &Path, offset: u64) -> Result<(), KbError> {
    let with_path = |e: std::io::Error| KbError::from(e).with_path(path);
    match std::fs::OpenOptions::new().write(true).open(path) {
        Ok(file) => file.set_len(offset).map_err(with_path),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && offset == 0 => Ok(()),
        Err(e) => Err(with_path(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(s, p, o)
    }

    fn sample_entries() -> Vec<FeedEntry> {
        vec![
            FeedEntry::Ops(vec![
                DeltaOp::Add(t("albert einstein", "be bear in", "ulm")),
                DeltaOp::Retract(t("einstein", "live in", "bern")),
            ]),
            FeedEntry::Compact,
            FeedEntry::Ops(vec![DeltaOp::Revise { old: t("a", "b", "c"), new: t("a", "b", "d") }]),
            FeedEntry::Ops(Vec::new()),
        ]
    }

    #[test]
    fn log_roundtrips_with_incremental_cursors() {
        let dir = std::env::temp_dir().join(format!("jocl-feed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.log");
        std::fs::remove_file(&path).ok();

        // Missing log reads as empty at offset 0.
        assert_eq!(read_entries(&path, 0).unwrap(), (Vec::new(), 0));

        let entries = sample_entries();
        let mut offsets = vec![0u64];
        for e in &entries {
            offsets.push(append_entry(&path, e).unwrap());
        }
        // Full replay.
        let (all, end) = read_entries(&path, 0).unwrap();
        assert_eq!(all, entries);
        assert_eq!(end, *offsets.last().unwrap());
        // Tail replay from every committed cursor.
        for (i, &off) in offsets.iter().enumerate() {
            let (tail, end_i) = read_entries(&path, off).unwrap();
            assert_eq!(tail, entries[i..]);
            assert_eq!(end_i, end);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_stops_cleanly_and_corruption_fails_loudly() {
        let dir = std::env::temp_dir().join(format!("jocl-feed-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.log");
        std::fs::remove_file(&path).ok();
        let first = FeedEntry::Ops(vec![DeltaOp::Add(t("x", "y", "z"))]);
        let mid = append_entry(&path, &first).unwrap();
        append_entry(&path, &FeedEntry::Compact).unwrap();

        // Tear the second record (simulate a writer killed mid-append):
        // the reader returns the first and parks the cursor before the
        // tear, and once the writer finishes the record a re-poll
        // resumes exactly there.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..mid as usize + HEADER - 3]).unwrap();
        let (entries, next) = read_entries(&path, 0).unwrap();
        assert_eq!(entries, vec![first.clone()]);
        assert_eq!(next, mid);
        std::fs::write(&path, &full).unwrap();
        let (entries, next) = read_entries(&path, next).unwrap();
        assert_eq!(entries, vec![FeedEntry::Compact]);
        assert_eq!(next, full.len() as u64);

        // A flipped payload bit in a *complete* record is corruption.
        let mut bad = full.clone();
        let flip = HEADER + 4; // inside the first record's payload
        bad[flip] ^= 1;
        std::fs::write(&path, &bad).unwrap();
        let msg = read_entries(&path, 0).unwrap_err().to_string();
        assert!(msg.contains("checksum") && msg.contains("feed.log"), "{msg}");

        // A desynchronized cursor hits non-magic bytes.
        std::fs::write(&path, &full).unwrap();
        let msg = read_entries(&path, 2).unwrap_err().to_string();
        assert!(msg.contains("magic"), "{msg}");

        // A cursor past the end of the log is corruption, not a tail.
        let msg = read_entries(&path, full.len() as u64 + 40).unwrap_err().to_string();
        assert!(msg.contains("past the end"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A poll from a nonzero cursor reads only the tail, yet reports
    /// every offset file-absolute: the resume point past a torn record,
    /// and the byte of a corrupt record, a bad checksum or a bad magic.
    #[test]
    fn tail_reads_from_a_nonzero_cursor_report_absolute_offsets() {
        let dir = std::env::temp_dir().join(format!("jocl-feed-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.log");
        std::fs::remove_file(&path).ok();
        let first = FeedEntry::Ops(vec![DeltaOp::Add(t("a", "b", "c"))]);
        let second = FeedEntry::Ops(vec![DeltaOp::Retract(t("d", "e", "f"))]);
        let o1 = append_entry(&path, &first).unwrap();
        let o2 = append_entry(&path, &second).unwrap();
        let o3 = append_entry(&path, &FeedEntry::Compact).unwrap();
        let full = std::fs::read(&path).unwrap();
        assert_eq!(
            read_entries(&path, o1).unwrap(),
            (vec![second.clone(), FeedEntry::Compact], o3)
        );

        // Torn third record: the cursor parks at its absolute start.
        std::fs::write(&path, &full[..o3 as usize - 1]).unwrap();
        assert_eq!(read_entries(&path, o1).unwrap(), (vec![second.clone()], o2));
        assert_eq!(read_entries(&path, o2).unwrap(), (Vec::new(), o2));

        let snapshot_offset = |e: KbError| match e {
            KbError::WithPath { source, .. } => match *source {
                KbError::Snapshot { offset, msg } => (offset, msg),
                other => panic!("expected a snapshot error, got {other}"),
            },
            other => panic!("expected a path-annotated error, got {other}"),
        };

        // A complete third record whose payload (checksum intact) names
        // an unknown entry kind: corrupt just past that kind byte.
        let payload = [7u8];
        let mut bad = full[..o2 as usize].to_vec();
        bad.extend_from_slice(MAGIC);
        bad.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bad.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        bad.extend_from_slice(&payload);
        std::fs::write(&path, &bad).unwrap();
        let (offset, msg) = snapshot_offset(read_entries(&path, o1).unwrap_err());
        assert_eq!(offset, o2 as usize + HEADER + 1, "{msg}");
        assert!(msg.contains("unknown feed-entry kind 7"), "{msg}");

        // A flipped payload bit in the third record: checksum mismatch at
        // its payload's first byte.
        let mut bad = full.clone();
        bad[o2 as usize + HEADER] ^= 1;
        std::fs::write(&path, &bad).unwrap();
        let (offset, msg) = snapshot_offset(read_entries(&path, o1).unwrap_err());
        assert_eq!(offset, o2 as usize + HEADER, "{msg}");
        assert!(msg.contains("checksum"), "{msg}");

        // A cursor one byte into a record hits non-magic bytes there, and
        // a cursor past the end names both numbers.
        std::fs::write(&path, &full).unwrap();
        let (offset, msg) = snapshot_offset(read_entries(&path, o1 + 1).unwrap_err());
        assert_eq!(offset, o1 as usize + 1, "{msg}");
        assert!(msg.contains("magic"), "{msg}");
        let (offset, msg) = snapshot_offset(read_entries(&path, o3 + 5).unwrap_err());
        assert_eq!(offset, o3 as usize + 5);
        assert!(msg.contains(&format!("past the end of the {o3}-byte log")), "{msg}");

        // A missing log is empty at offset 0 and an error past it.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_entries(&path, 0).unwrap(), (Vec::new(), 0));
        assert!(read_entries(&path, o1).unwrap_err().to_string().contains("feed.log"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The v2 payload is varint-framed: kind markers, op counts and
    /// string lengths each cost one byte at these sizes, so the payload
    /// is phrase text plus one byte per field — not 8.
    #[test]
    fn v2_records_are_compact() {
        assert_eq!(encode_entry(&FeedEntry::Compact).len(), HEADER + 1);
        let one = FeedEntry::Ops(vec![DeltaOp::Add(t("x", "y", "z"))]);
        // kind + count + op kind + 3 × (len byte + 1 text byte).
        assert_eq!(encode_entry(&one).len(), HEADER + 9);
    }

    #[test]
    fn truncate_discards_the_tail() {
        let dir = std::env::temp_dir().join(format!("jocl-feed-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.log");
        std::fs::remove_file(&path).ok();
        let first = FeedEntry::Ops(vec![DeltaOp::Add(t("s", "p", "o"))]);
        let keep = append_entry(&path, &first).unwrap();
        append_entry(&path, &FeedEntry::Compact).unwrap();
        truncate_to(&path, keep).unwrap();
        assert_eq!(read_entries(&path, 0).unwrap(), (vec![first], keep));
        // Truncating a missing log to 0 is a no-op, to any other offset
        // an error.
        std::fs::remove_file(&path).ok();
        truncate_to(&path, 0).unwrap();
        assert!(truncate_to(&path, 5).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
