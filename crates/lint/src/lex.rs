//! A lightweight Rust *source* lexer — just enough token discipline to
//! tell code from comments from string literals, without pulling in
//! `syn` (the offline dependency set has no registry access, and the
//! rules only need lexical context anyway).
//!
//! For every input line the scan produces two parallel views:
//!
//! * **code** — the line with comments removed and string/char literal
//!   *contents* blanked (the delimiters survive so expressions keep
//!   their shape). Rule patterns match against this view, so a lint
//!   token inside a comment or a string can never trip a code rule.
//! * **strings** — the raw contents of every string literal fragment on
//!   the line (a multi-line literal contributes one fragment per line).
//!   The wire-literal rule matches against these, so a `"link.v1"`
//!   hiding in a doc comment stays invisible to it.
//!
//! Handled syntax: line comments, nested block comments, plain /
//! byte / raw (`r"…"`, `r#"…"#`, `br#"…"#`) strings with escapes, char
//! literals (including `'\''`) vs lifetimes (`'a`).

/// One scanned source line (1-indexed via its position in [`ScannedFile::lines`]).
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Original source text (used for allowlist `context` matching).
    pub raw: String,
    /// Comment-free, string-blanked view.
    pub code: String,
    /// String-literal fragments on this line.
    pub strings: Vec<String>,
}

/// A fully scanned source file.
#[derive(Debug)]
pub struct ScannedFile {
    /// Path relative to the scanned root, `/`-separated.
    pub rel: String,
    pub lines: Vec<Line>,
    /// All `code` views joined with `\n` (patterns that rustfmt may
    /// split across lines match against this).
    pub code: String,
    /// Byte offset in [`ScannedFile::code`] where each line starts.
    line_starts: Vec<usize>,
}

impl ScannedFile {
    /// 1-indexed line number containing byte offset `at` of [`ScannedFile::code`].
    pub fn line_of(&self, at: usize) -> usize {
        match self.line_starts.binary_search(&at) {
            Ok(i) => i + 1,
            Err(i) => i, // insertion point i means line i (1-indexed i-1+1)
        }
    }

    /// The `code` view of 1-indexed line `n` (empty for out-of-range).
    pub fn code_line(&self, n: usize) -> &str {
        self.lines.get(n.wrapping_sub(1)).map_or("", |l| l.code.as_str())
    }

    /// The raw text of 1-indexed line `n`.
    pub fn raw_line(&self, n: usize) -> &str {
        self.lines.get(n.wrapping_sub(1)).map_or("", |l| l.raw.as_str())
    }

    /// First 1-indexed line whose code contains `#[cfg(test)]`, if any.
    /// Findings at or after it are treated as test code (the repo
    /// convention keeps test modules at the end of a file).
    pub fn cfg_test_line(&self) -> Option<usize> {
        self.lines.iter().position(|l| l.code.contains("#[cfg(test)]")).map(|i| i + 1)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    /// Inside `"…"`; the flag tracks a pending `\` escape.
    Str {
        escaped: bool,
    },
    /// Inside `r##"…"##` with the given `#` count.
    RawStr(u32),
    /// Inside `'…'`; the flag tracks a pending `\` escape.
    Char {
        escaped: bool,
    },
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scan one file into per-line code/strings views.
pub fn scan_source(rel: &str, source: &str) -> ScannedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut cur_string = String::new();
    let mut in_string_fragment = false;
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! end_fragment {
        () => {
            if in_string_fragment {
                cur.strings.push(std::mem::take(&mut cur_string));
                in_string_fragment = false;
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // A literal or comment spanning the newline contributes a
            // fragment per line; the newline itself always reaches the
            // code view so flattened offsets stay line-aligned.
            end_fragment!();
            lines.push(std::mem::take(&mut cur));
            if state == State::LineComment {
                state = State::Code;
            }
            if matches!(state, State::Str { .. } | State::RawStr(_) | State::Char { .. }) {
                in_string_fragment = true; // the literal continues on the next line
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                let prev_ident = i > 0 && (is_ident(chars[i - 1]) || chars[i - 1] == '"');
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    cur.code.push(' ');
                    cur.code.push(' ');
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    cur.code.push(' ');
                    cur.code.push(' ');
                    i += 2;
                } else if c == '"' {
                    state = State::Str { escaped: false };
                    in_string_fragment = true;
                    cur.code.push('"');
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_ident {
                    // Possible raw/byte string start: r" r#" b" br#" …
                    let mut j = i;
                    if c == 'b' && chars.get(j + 1) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    let mut k = j + 1;
                    while chars.get(k) == Some(&'#') {
                        hashes += 1;
                        k += 1;
                    }
                    let raw_form = c == 'r' || chars.get(i + 1) == Some(&'r');
                    if chars.get(k) == Some(&'"') && (raw_form || k == i + 1) {
                        cur.code.extend(&chars[i..=k]); // keep prefix + quote
                        state = if raw_form {
                            State::RawStr(hashes)
                        } else {
                            State::Str { escaped: false }
                        };
                        in_string_fragment = true;
                        i = k + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' && !prev_ident {
                    // Char literal vs lifetime.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(n) if is_ident(n) => chars.get(i + 2) == Some(&'\''),
                        Some(_) => true, // e.g. '(' … always a char start
                        None => false,
                    };
                    if is_char {
                        state = State::Char { escaped: false };
                        in_string_fragment = true;
                        cur.code.push('\'');
                    } else {
                        cur.code.push('\''); // lifetime tick stays code
                    }
                    i += 1;
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                cur.code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    cur.code.push(' ');
                    cur.code.push(' ');
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    cur.code.push(' ');
                    cur.code.push(' ');
                    i += 2;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            State::Str { escaped } => {
                if escaped {
                    state = State::Str { escaped: false };
                    cur_string.push(c);
                    cur.code.push(' ');
                } else if c == '\\' {
                    state = State::Str { escaped: true };
                    cur_string.push(c);
                    cur.code.push(' ');
                } else if c == '"' {
                    state = State::Code;
                    end_fragment!();
                    cur.code.push('"');
                } else {
                    cur_string.push(c);
                    cur.code.push(' ');
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for h in 0..hashes as usize {
                        if chars.get(i + 1 + h) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        state = State::Code;
                        end_fragment!();
                        cur.code.push('"');
                        for _ in 0..hashes {
                            cur.code.push('#');
                        }
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                cur_string.push(c);
                cur.code.push(' ');
                i += 1;
            }
            State::Char { escaped } => {
                if escaped {
                    state = State::Char { escaped: false };
                    cur_string.push(c);
                    cur.code.push(' ');
                } else if c == '\\' {
                    state = State::Char { escaped: true };
                    cur_string.push(c);
                    cur.code.push(' ');
                } else if c == '\'' {
                    state = State::Code;
                    end_fragment!();
                    cur.code.push('\'');
                } else {
                    cur_string.push(c);
                    cur.code.push(' ');
                }
                i += 1;
            }
        }
    }
    if in_string_fragment {
        cur.strings.push(cur_string); // unterminated literal at EOF
    }
    lines.push(cur);

    // Attach the raw text per line (cheap second pass; `lines()` drops a
    // trailing empty line exactly like the state machine above keeps it,
    // so zip defensively).
    for (line, raw) in lines.iter_mut().zip(source.split('\n')) {
        line.raw = raw.to_string();
    }

    let mut code = String::new();
    let mut line_starts = Vec::with_capacity(lines.len());
    for (i, l) in lines.iter().enumerate() {
        line_starts.push(code.len());
        code.push_str(&l.code);
        if i + 1 != lines.len() {
            code.push('\n');
        }
    }
    ScannedFile { rel: rel.to_string(), lines, code, line_starts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_separated() {
        let src = "let x = \"JOCL_SCALE\"; // SAFETY: not really\nlet y = 'a';\n";
        let f = scan_source("t.rs", src);
        assert!(f.lines[0].code.contains("let x = \"          \";"), "{:?}", f.lines[0].code);
        assert_eq!(f.lines[0].strings, vec!["JOCL_SCALE".to_string()]);
        assert!(!f.lines[0].code.contains("SAFETY"), "{:?}", f.lines[0].code);
        assert!(f.lines[0].strings.iter().all(|s| !s.contains("SAFETY")));
        assert_eq!(f.lines[1].strings, vec!["a".to_string()]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = scan_source("t.rs", "fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(f.lines[0].strings.is_empty(), "{:?}", f.lines[0].strings);
        assert!(f.lines[0].code.contains("fn f<'a>"));
    }

    #[test]
    fn raw_and_escaped_strings() {
        let src =
            "let a = r#\"OK \"quoted\"\"#;\nlet b = \"escaped \\\" quote\";\nlet c = b\"bytes\";\n";
        let f = scan_source("t.rs", src);
        assert_eq!(f.lines[0].strings, vec!["OK \"quoted\"".to_string()]);
        assert_eq!(f.lines[1].strings, vec!["escaped \\\" quote".to_string()]);
        assert_eq!(f.lines[2].strings, vec!["bytes".to_string()]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n";
        let f = scan_source("t.rs", src);
        assert!(f.lines[0].code.contains("let x = 1;"));
        assert!(!f.lines[0].code.contains("inner"));
        assert!(!f.lines[0].code.contains("still"));
    }

    #[test]
    fn multi_line_strings_fragment_per_line() {
        let src = "let s = \"first\nsecond JOCL_X\";\nlet t = 1;\n";
        let f = scan_source("t.rs", src);
        assert_eq!(f.lines[0].strings, vec!["first".to_string()]);
        assert_eq!(f.lines[1].strings, vec!["second JOCL_X".to_string()]);
        assert!(f.lines[2].code.contains("let t = 1;"));
    }

    #[test]
    fn line_of_maps_flat_offsets() {
        let f = scan_source("t.rs", "abc\ndef\nghi\n");
        let at = f.code.find("def").unwrap();
        assert_eq!(f.line_of(at), 2);
        let at = f.code.find("ghi").unwrap();
        assert_eq!(f.line_of(at), 3);
    }

    #[test]
    fn char_with_escaped_quote() {
        let f = scan_source("t.rs", "let q = '\\''; let r = '\\\\';\n");
        assert_eq!(f.lines[0].strings, vec!["\\'".to_string(), "\\\\".to_string()]);
    }
}
