//! Feed-cursor files: the typed sidecar that pins a serving process's
//! position in a replication feed.
//!
//! A read replica resumes **both** the generator feed and the writer's
//! delta feed from this sidecar, so it is a typed file, not a bare
//! number: one sealed record ([`crate::snap::seal`]: magic `JOCLCUR2`,
//! payload length, checksum, then the `CURS` section with the two
//! offsets), written through [`crate::snap::write_atomic`], every
//! failure a typed [`KbError`] naming the file. A half-written or
//! hand-edited cursor must fail loudly at open time, not silently
//! replay (or skip) part of the feed.
//!
//! The cursor deliberately stays a *sidecar* of the snapshot rather
//! than a section inside it: the snapshot payload is transport-agnostic
//! session state (`jocl_core::IncrementalJocl::export_state`), while the
//! cursor describes the *process's* position in feeds the session knows
//! nothing about.

use crate::error::KbError;
use crate::snap::{seal, unseal, write_atomic, SnapWriter};
use std::path::Path;

/// File magic; the trailing digit is the format version.
const MAGIC: &[u8; 8] = b"JOCLCUR2";

/// A serving process's position in its input feeds at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeedCursor {
    /// Triples already consumed from the generated source pool (the
    /// `ingest` command's feed).
    pub pool_cursor: u64,
    /// Byte offset into the delta-feed log (`feed.log`) up to which the
    /// snapshot already contains every operation. A replica restoring
    /// from the snapshot starts following the log here.
    pub feed_offset: u64,
}

impl FeedCursor {
    /// Serialize to sidecar-file bytes (one sealed record).
    pub fn to_bytes(self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.tag("CURS");
        w.u64(self.pool_cursor);
        w.u64(self.feed_offset);
        seal(MAGIC, &w.into_bytes())
    }

    /// Parse sidecar-file bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, KbError> {
        let mut r = unseal(bytes, MAGIC)?;
        r.expect_tag("CURS")?;
        let pool_cursor = r.u64()?;
        let feed_offset = r.u64()?;
        r.expect_end()?;
        Ok(Self { pool_cursor, feed_offset })
    }

    /// Write the cursor to `path` atomically. Failures name the file.
    pub fn save(self, path: &Path) -> Result<(), KbError> {
        write_atomic(path, &self.to_bytes())
    }

    /// Read a cursor from `path`. Every failure — I/O, bad magic,
    /// checksum, truncation — is wrapped with the file path.
    pub fn load(path: &Path) -> Result<Self, KbError> {
        let bytes = std::fs::read(path).map_err(|e| KbError::from(e).with_path(path))?;
        Self::from_bytes(&bytes).map_err(|e| e.with_path(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_bytes_and_files() {
        let cur = FeedCursor { pool_cursor: 123, feed_offset: 9_876_543_210 };
        assert_eq!(FeedCursor::from_bytes(&cur.to_bytes()).unwrap(), cur);

        let dir = std::env::temp_dir().join(format!("jocl-cursor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.cursor");
        cur.save(&path).unwrap();
        assert_eq!(FeedCursor::load(&path).unwrap(), cur);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let cur = FeedCursor { pool_cursor: 7, feed_offset: 42 };
        let bytes = cur.to_bytes();

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(FeedCursor::from_bytes(&bad).unwrap_err().to_string().contains("magic"));

        // Flipped payload bit, past the length and checksum words.
        let mut bad = bytes.clone();
        bad[MAGIC.len() + 16 + 4] ^= 1;
        assert!(FeedCursor::from_bytes(&bad).unwrap_err().to_string().contains("checksum"));

        // Truncation.
        let mut bad = bytes.clone();
        bad.truncate(10);
        assert!(FeedCursor::from_bytes(&bad).unwrap_err().to_string().contains("short"));

        // Trailing garbage after the record.
        let mut bad = bytes;
        bad.push(0);
        assert!(FeedCursor::from_bytes(&bad).is_err());
    }

    #[test]
    fn load_failures_name_the_file() {
        let path = std::env::temp_dir().join("jocl-cursor-does-not-exist.cursor");
        let msg = FeedCursor::load(&path).unwrap_err().to_string();
        assert!(msg.contains("jocl-cursor-does-not-exist"), "{msg}");
    }
}
