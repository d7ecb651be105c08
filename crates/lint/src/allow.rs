//! Checked-in allowlists: every tolerated violation is an explicit,
//! reviewable diff under `lint/` instead of silent drift.
//!
//! The files are a deliberately tiny TOML subset (the offline
//! dependency set has no `toml` crate): `[[allow]]` entry headers
//! followed by `key = "string"` / `key = integer` lines, plus
//! `#` comments. Anything else is a hard configuration error — a
//! malformed allowlist must fail the run, not silently allow nothing.
//!
//! An entry pins a site by `file` (root-relative path) and `context`
//! (a substring of the raw source line), **not** by line number, so
//! unrelated edits do not invalidate it. `count` (optional) asserts how
//! many sites the entry is expected to match: a copy-pasted new
//! violation under an old entry fails the run instead of riding along.
//!
//! Staleness is enforced by the runner: an entry matching zero findings
//! (or the wrong count) is itself reported as a violation.

use std::path::Path;

/// One allowlist entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Root-relative path the entry applies to.
    pub file: String,
    /// Substring of the raw source line at the site.
    pub context: String,
    /// Why this site is allowed (mandatory: allowlists document intent).
    pub reason: String,
    /// Exact number of sites the entry must match (`None` = at least 1).
    pub count: Option<usize>,
    /// 1-indexed line of the entry header in its allowlist file.
    pub defined_at: usize,
}

/// Parse one allowlist file. Returns entries or a description of the
/// first syntax error.
pub fn parse_entries(path: &Path, source: &str) -> Result<Vec<Entry>, String> {
    let mut entries: Vec<Entry> = Vec::new();
    let mut open = false;
    let err =
        |line_no: usize, msg: &str| -> String { format!("{}:{line_no}: {msg}", path.display()) };
    for (i, raw) in source.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            entries.push(Entry {
                file: String::new(),
                context: String::new(),
                reason: String::new(),
                count: None,
                defined_at: line_no,
            });
            open = true;
            continue;
        }
        if line.starts_with("[[") {
            return Err(err(line_no, &format!("expected [[allow]] entries, got {line}")));
        }
        if !open {
            return Err(err(line_no, "key outside an [[allow]] entry"));
        }
        let (key, value) =
            line.split_once('=').ok_or_else(|| err(line_no, "expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        let entry = entries.last_mut().expect("open entry");
        match key {
            "file" | "context" | "reason" => {
                let s = parse_string(value).ok_or_else(|| {
                    err(line_no, &format!("{key} must be a double-quoted string"))
                })?;
                match key {
                    "file" => entry.file = s,
                    "context" => entry.context = s,
                    _ => entry.reason = s,
                }
            }
            "count" => {
                entry.count = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| err(line_no, "count must be a non-negative integer"))?,
                );
            }
            _ => return Err(err(line_no, &format!("unknown key {key:?}"))),
        }
    }
    for e in &entries {
        if e.file.is_empty() || e.context.is_empty() {
            return Err(err(e.defined_at, "entry needs both `file` and `context`"));
        }
        if e.reason.is_empty() {
            return Err(err(e.defined_at, "entry needs a `reason` documenting why"));
        }
    }
    Ok(entries)
}

/// Parse a double-quoted TOML basic string supporting `\"`, `\\`, `\n`,
/// `\t` escapes (the subset the allowlists need).
fn parse_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            return None; // unescaped quote: the suffix strip grabbed a middle quote
        }
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn p() -> PathBuf {
        PathBuf::from("lint/test.toml")
    }

    #[test]
    fn parses_entries_with_escapes_and_counts() {
        let src = r#"
# a comment
[[allow]]
file = "crates/kb/src/side.rs"
context = ".values()"
count = 2
reason = "order-insensitive \"sum\""
"#;
        let entries = parse_entries(&p(), src).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].file, "crates/kb/src/side.rs");
        assert_eq!(entries[0].context, ".values()");
        assert_eq!(entries[0].count, Some(2));
        assert_eq!(entries[0].reason, "order-insensitive \"sum\"");
    }

    #[test]
    fn rejects_malformed_files() {
        for (src, what) in [
            ("file = \"x\"\n", "key outside"),
            ("[[allow]]\nfile = x\n", "double-quoted"),
            ("[[allow]]\nfile = \"x\"\ncontext = \"y\"\n", "reason"),
            ("[[allow]]\nfrob = \"x\"\n", "unknown key"),
            ("[[site]]\n", "expected [[allow]]"),
            ("[[allow]]\nfile = \"x\"\ncontext = \"y\"\nreason = \"z\"\ncount = -1\n", "count"),
        ] {
            let e = parse_entries(&p(), src).unwrap_err();
            assert!(e.contains(what), "{src:?} -> {e}");
        }
    }
}
