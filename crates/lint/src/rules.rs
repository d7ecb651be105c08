//! The four rule families (R1, R2, R4, R5; no R3, because rustc rejects
//! `unsafe` through the workspace lints' `unsafe_code = "forbid"`). Each
//! rule is a pure function from a [`ScannedFile`] to raw findings;
//! allowlist filtering and staleness live in the runner (`lib.rs`), so
//! rules stay side-effect free and fixture-testable in isolation.

use crate::lex::ScannedFile;
use std::collections::BTreeSet;

/// Rule identity: id, short name, allowlist file, contract text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    EnvConfinement,
    PoisonRecovery,
    Determinism,
    WirePath,
    /// Allowlist/configuration integrity (stale entries, bad TOML).
    Config,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::EnvConfinement => "R1",
            Rule::PoisonRecovery => "R2",
            Rule::Determinism => "R4",
            Rule::WirePath => "R5",
            Rule::Config => "LINT",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Rule::EnvConfinement => "env-confinement",
            Rule::PoisonRecovery => "poison-recovery",
            Rule::Determinism => "determinism",
            Rule::WirePath => "one-serialization-path",
            Rule::Config => "lint-config",
        }
    }

    /// The allowlist file under `lint/` (None: rule has no allowlist).
    pub fn allowlist_file(self) -> Option<&'static str> {
        match self {
            Rule::EnvConfinement => Some("r1_env.toml"),
            Rule::PoisonRecovery => Some("r2_locks.toml"),
            Rule::Determinism => Some("r4_determinism.toml"),
            Rule::WirePath => Some("r5_wire.toml"),
            Rule::Config => None,
        }
    }

    pub fn hint(self) -> &'static str {
        match self {
            Rule::EnvConfinement => {
                "route the knob through a jocl_bench::env accessor (one place owns \
                 trim/case-fold/typed-panic parsing) or allowlist it in lint/r1_env.toml"
            }
            Rule::PoisonRecovery => {
                "recover the guard with .unwrap_or_else(std::sync::PoisonError::into_inner) \
                 (the PR-6 contract: one panicking request must not take down the listener)"
            }
            Rule::Determinism => {
                "iterate a sorted Vec instead (collect + sort_unstable_by_key), or allowlist \
                 the site in lint/r4_determinism.toml if it is provably order-insensitive"
            }
            Rule::WirePath => {
                "build/parse frames through jocl_serve::{protocol, api} — wire literals \
                 live in exactly one place so writer, replica and clients cannot drift"
            }
            Rule::Config => "fix or remove the allowlist entry; it no longer matches any site",
        }
    }

    pub fn explain(self) -> &'static str {
        match self {
            Rule::EnvConfinement => {
                "R1 env-confinement: `JOCL_*` environment knobs may only be read or written in \
                 crates/bench/src/env.rs. Every other call site must go through that module's \
                 accessors, which own the parsing discipline (trim, ASCII case-fold, `off`, \
                 typed panics listing valid forms). A raw std::env::var(\"JOCL_…\") elsewhere \
                 re-grows per-site parsing drift — the exact bug the PR-6 consolidation removed."
            }
            Rule::PoisonRecovery => {
                "R2 poison-recovery: `.lock()`/`.read()`/`.write()` results must never be \
                 `.unwrap()`/`.expect()`ed outside test code. A panicking request poisons the \
                 mutex; unwrap turns every *subsequent* request into a cascade panic that kills \
                 the serve listener. Recover the guard with \
                 .unwrap_or_else(std::sync::PoisonError::into_inner) — state behind jocl locks \
                 is written atomically under the guard, so recovery is sound (PR-6 contract)."
            }
            Rule::Determinism => {
                "R4 determinism: inside the designated serialization/fingerprint modules \
                 (kb::snap, kb::side, serve::{protocol, api, snapshot}, core::feed) hash-map \
                 iteration (.iter()/.keys()/.values()/.into_iter()/.drain/for … in map) and \
                 wall-clock reads (Instant::now, SystemTime) are flagged: bitwise-identical \
                 decodes across threads, schedules and replicas only hold if nothing \
                 order-dependent or time-dependent reaches a serialized byte. A site is exempt \
                 when a `sort` call is adjacent (within 3 lines above / 14 below — the \
                 collect-then-sort idiom) or explicitly allowlisted with a reason."
            }
            Rule::WirePath => {
                "R5 one-serialization-path: the wire-frame literals (\"OK \", \"ERR \", \
                 \"query.v1\", \"link.v1\", \"stats.v1\", \"metrics.v1\", \"jocl://\", \
                 \"ckb://\") may appear in string literals only in \
                 crates/serve/src/protocol.rs, crates/serve/src/api.rs and \
                 crates/serve/tests/. Everyone else — bins, gates, replicas — must call the \
                 format_*/parse_* helpers, so there is exactly one serialization path and \
                 writer/replica frames stay byte-identical by construction."
            }
            Rule::Config => {
                "LINT lint-config: allowlist integrity. An entry whose (file, context) no \
                 longer matches any site is stale and fails the run; an entry with `count = n` \
                 must match exactly n sites, so copy-pasted new violations cannot ride along \
                 under an old exemption."
            }
        }
    }

    pub fn from_query(s: &str) -> Option<Rule> {
        let s = s.trim().to_ascii_lowercase();
        ALL_RULES.iter().copied().find(|r| r.id().eq_ignore_ascii_case(&s) || r.name() == s)
    }
}

pub const ALL_RULES: [Rule; 5] =
    [Rule::EnvConfinement, Rule::PoisonRecovery, Rule::Determinism, Rule::WirePath, Rule::Config];

/// One violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Root-relative `/`-separated path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.rule.name(),
            self.msg
        )
    }
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// True when `rel` is test code by path (`tests/` directories).
pub fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// All offsets of `pat` in `hay` (non-overlapping).
fn find_all(hay: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(pat) {
        out.push(from + p);
        from += p + pat.len();
    }
    out
}

/// Whether `code[at..at+len]` is a whole word (no ident chars hugging it).
fn is_word(code: &str, at: usize, len: usize) -> bool {
    let b = code.as_bytes();
    let before_ok = at == 0 || !is_ident_char(b[at - 1]);
    let after_ok = at + len >= b.len() || !is_ident_char(b[at + len]);
    before_ok && after_ok
}

// ---------------------------------------------------------------------
// R1 env-confinement
// ---------------------------------------------------------------------

/// The single file allowed to touch `JOCL_*` env vars.
pub const ENV_HOME: &str = "crates/bench/src/env.rs";

pub fn check_env_confinement(f: &ScannedFile) -> Vec<Finding> {
    if f.rel == ENV_HOME {
        return Vec::new();
    }
    let mut lines = BTreeSet::new();
    for pat in ["env::var", "env::set_var", "env::remove_var"] {
        for at in find_all(&f.code, pat) {
            // `env::var_os` also begins with `env::var`; same site.
            let line = f.line_of(at);
            let jocl = [line, line + 1].iter().any(|&n| {
                f.lines
                    .get(n.wrapping_sub(1))
                    .is_some_and(|l| l.strings.iter().any(|s| s.contains("JOCL_")))
            });
            if jocl {
                lines.insert(line);
            }
        }
    }
    lines
        .into_iter()
        .map(|line| Finding {
            rule: Rule::EnvConfinement,
            file: f.rel.clone(),
            line,
            msg: format!("JOCL_* env knob accessed outside {ENV_HOME}"),
        })
        .collect()
}

// ---------------------------------------------------------------------
// R2 poison-recovery
// ---------------------------------------------------------------------

pub fn check_poison_recovery(f: &ScannedFile) -> Vec<Finding> {
    if is_test_path(&f.rel) {
        return Vec::new();
    }
    let cfg_test = f.cfg_test_line().unwrap_or(usize::MAX);
    let mut out = Vec::new();
    let bytes = f.code.as_bytes();
    let skip_ws = |mut i: usize| -> usize {
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        i
    };
    for call in [".lock(", ".read(", ".write("] {
        for at in find_all(&f.code, call) {
            let mut i = skip_ws(at + call.len());
            if bytes.get(i) != Some(&b')') {
                continue; // has arguments: not a guard acquisition
            }
            i = skip_ws(i + 1);
            if bytes.get(i) != Some(&b'.') {
                continue;
            }
            i = skip_ws(i + 1);
            let rest = &f.code[i..];
            let method = ["unwrap", "expect"].iter().find(|m| rest.starts_with(**m));
            let Some(method) = method else { continue };
            let after = i + method.len();
            if bytes.get(after) != Some(&b'(') {
                continue; // unwrap_or_else(PoisonError::into_inner) etc.
            }
            let line = f.line_of(at);
            if line >= cfg_test {
                continue; // #[cfg(test)] region
            }
            out.push(Finding {
                rule: Rule::PoisonRecovery,
                file: f.rel.clone(),
                line,
                msg: format!("{call})…{method}() on a lock result outside test code"),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// R4 determinism
// ---------------------------------------------------------------------

/// The serialization/fingerprint modules whose bytes must not depend on
/// hash-map iteration order or wall-clock time.
pub const DETERMINISM_MODULES: [&str; 6] = [
    "crates/kb/src/snap.rs",
    "crates/kb/src/side.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/api.rs",
    "crates/serve/src/snapshot.rs",
    "crates/core/src/feed.rs",
];

/// Identifiers bound to a `HashMap`/`HashSet`-ish type anywhere in the
/// file (covers `FxHashMap`/`FxHashSet` by substring): `let x: T`,
/// `field: T`, `param: T` and `let x = FxHashMap::default()`.
fn map_idents(f: &ScannedFile) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for l in &f.lines {
        for pat in ["HashMap", "HashSet"] {
            for at in find_all(&l.code, pat) {
                if let Some(name) = binding_before(&l.code, at) {
                    set.insert(name);
                }
            }
        }
    }
    set
}

/// The identifier bound at a type occurrence: the ident before the last
/// single `:` preceding `at`, else the ident after a `let [mut]`.
fn binding_before(code: &str, at: usize) -> Option<String> {
    let prefix = &code[..at];
    let b = prefix.as_bytes();
    let mut colon = None;
    for (i, &c) in b.iter().enumerate() {
        if c == b':' && b.get(i + 1) != Some(&b':') && (i == 0 || b[i - 1] != b':') {
            colon = Some(i);
        }
    }
    let ident_ending_at = |end: usize| -> Option<String> {
        let mut s = end;
        while s > 0 && (b[s - 1] as char).is_whitespace() {
            s -= 1;
        }
        let stop = s;
        while s > 0 && is_ident_char(b[s - 1]) {
            s -= 1;
        }
        (s < stop).then(|| prefix[s..stop].to_string())
    };
    if let Some(c) = colon {
        return ident_ending_at(c);
    }
    // `let [mut] name = FxHashMap::default()`-style binding.
    let let_at = prefix.rfind("let ")?;
    let tail = prefix[let_at + 4..].trim_start();
    let tail = tail.strip_prefix("mut ").unwrap_or(tail).trim_start();
    let end = tail.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(tail.len());
    (end > 0).then(|| tail[..end].to_string())
}

/// A `sort` call within 3 lines above / 14 below (the collect-then-sort
/// and sort-then-iterate idioms both qualify).
fn sort_adjacent(f: &ScannedFile, line: usize) -> bool {
    let lo = line.saturating_sub(3).max(1);
    (lo..=line + 14).any(|n| f.code_line(n).contains("sort"))
}

/// Receiver ident of a method call whose `.` is at flat offset `at`
/// (walks back over whitespace/newlines; None for call-expression
/// receivers like `foo().iter()`).
fn receiver_ident(code: &str, at: usize) -> Option<String> {
    let b = code.as_bytes();
    let mut i = at;
    while i > 0 && (b[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    let stop = i;
    while i > 0 && is_ident_char(b[i - 1]) {
        i -= 1;
    }
    (i < stop).then(|| code[i..stop].to_string())
}

pub fn check_determinism(f: &ScannedFile) -> Vec<Finding> {
    if !DETERMINISM_MODULES.contains(&f.rel.as_str()) {
        return Vec::new();
    }
    let maps = map_idents(f);
    let mut hits: BTreeSet<(usize, String)> = BTreeSet::new();

    for call in [".iter()", ".keys()", ".values()", ".into_iter()", ".drain("] {
        for at in find_all(&f.code, call) {
            let Some(recv) = receiver_ident(&f.code, at) else { continue };
            if maps.contains(&recv) {
                hits.insert((f.line_of(at), format!("map iteration `{recv}{call}…`")));
            }
        }
    }
    // `for pat in <expr>` where the expression's trailing ident is a map.
    for (i, l) in f.lines.iter().enumerate() {
        let code = &l.code;
        let Some(for_at) = code.find("for ") else { continue };
        if !is_word(code, for_at, 3) {
            continue;
        }
        let Some(in_rel) = code[for_at..].find(" in ") else { continue };
        let tail = &code[for_at + in_rel + 4..];
        let tail = tail.split('{').next().unwrap_or(tail);
        let last_ident =
            tail.split(|c: char| !(c.is_alphanumeric() || c == '_')).rfind(|s| !s.is_empty());
        if let Some(ident) = last_ident {
            if maps.contains(ident) {
                hits.insert((i + 1, format!("`for … in {ident}` iterates a hash map")));
            }
        }
    }
    for pat in ["Instant::now", "SystemTime"] {
        for at in find_all(&f.code, pat) {
            hits.insert((
                f.line_of(at),
                format!("wall-clock read `{pat}` in a serialization module"),
            ));
        }
    }

    hits.into_iter()
        .filter(|&(line, _)| !sort_adjacent(f, line))
        .map(|(line, what)| Finding {
            rule: Rule::Determinism,
            file: f.rel.clone(),
            line,
            msg: format!("{what} — serialized bytes must not depend on iteration order or time"),
        })
        .collect()
}

// ---------------------------------------------------------------------
// R5 one-serialization-path
// ---------------------------------------------------------------------

/// The only non-test homes of wire-frame literals.
pub const WIRE_HOMES: [&str; 2] = ["crates/serve/src/protocol.rs", "crates/serve/src/api.rs"];

fn wire_token(s: &str) -> Option<&'static str> {
    for t in ["query.v1", "link.v1", "stats.v1", "metrics.v1", "jocl://", "ckb://"] {
        if s.contains(t) {
            return Some(t);
        }
    }
    ["OK ", "ERR "].into_iter().find(|t| s.starts_with(t))
}

pub fn check_wire_path(f: &ScannedFile) -> Vec<Finding> {
    if WIRE_HOMES.contains(&f.rel.as_str())
        || f.rel.starts_with("crates/serve/tests/")
        || f.rel.starts_with("crates/lint/")
    {
        // The lint crate itself necessarily names the tokens it polices.
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, l) in f.lines.iter().enumerate() {
        let mut tokens: Vec<&str> = l.strings.iter().filter_map(|s| wire_token(s)).collect();
        tokens.dedup();
        if let Some(t) = tokens.first() {
            out.push(Finding {
                rule: Rule::WirePath,
                file: f.rel.clone(),
                line: i + 1,
                msg: format!(
                    "wire literal {t:?} outside the serialization path ({} + serve tests)",
                    WIRE_HOMES.join(", ")
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::scan_source;

    #[test]
    fn r1_flags_raw_jocl_reads_but_not_env_home_or_other_vars() {
        let bad = scan_source(
            "crates/bench/src/runner.rs",
            "fn f() -> f64 { std::env::var(\"JOCL_SCALE\").ok().unwrap().parse().unwrap() }\n",
        );
        assert_eq!(check_env_confinement(&bad).len(), 1);
        let home = scan_source(ENV_HOME, "fn f() { std::env::var(\"JOCL_SCALE\").ok(); }\n");
        assert!(check_env_confinement(&home).is_empty());
        let other =
            scan_source("crates/kb/src/okb.rs", "fn f() { std::env::var(\"PATH\").ok(); }\n");
        assert!(check_env_confinement(&other).is_empty());
        let comment = scan_source("crates/kb/src/okb.rs", "// std::env::var(\"JOCL_SCALE\")\n");
        assert!(check_env_confinement(&comment).is_empty());
    }

    #[test]
    fn r2_flags_lock_unwrap_outside_tests() {
        let bad = scan_source("crates/x/src/lib.rs", "fn f() { m.lock().unwrap(); }\n");
        assert_eq!(check_poison_recovery(&bad).len(), 1);
        let multiline = scan_source(
            "crates/x/src/lib.rs",
            "fn f() {\n    m.lock()\n        .expect(\"p\");\n}\n",
        );
        assert_eq!(check_poison_recovery(&multiline).len(), 1);
        let good = scan_source(
            "crates/x/src/lib.rs",
            "fn f() { m.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n",
        );
        assert!(check_poison_recovery(&good).is_empty());
        let test_mod = scan_source(
            "crates/x/src/lib.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { m.lock().unwrap(); }\n}\n",
        );
        assert!(check_poison_recovery(&test_mod).is_empty());
        let test_file = scan_source("crates/x/tests/t.rs", "fn f() { m.lock().unwrap(); }\n");
        assert!(check_poison_recovery(&test_file).is_empty());
        let args = scan_source("crates/x/src/lib.rs", "fn f() { file.write(buf).unwrap(); }\n");
        assert!(check_poison_recovery(&args).is_empty());
    }

    #[test]
    fn r4_flags_map_iteration_and_time_only_in_designated_modules() {
        let src = "use jocl_text::fx::FxHashMap;\nfn f(votes: &FxHashMap<u32, usize>) {\n    for (k, v) in votes {\n        use_it(k, v);\n    }\n}\n";
        let designated = scan_source("crates/kb/src/side.rs", src);
        assert_eq!(check_determinism(&designated).len(), 1, "{:?}", check_determinism(&designated));
        let elsewhere = scan_source("crates/kb/src/okb.rs", src);
        assert!(check_determinism(&elsewhere).is_empty());

        let time = scan_source("crates/core/src/feed.rs", "fn f() { let t = Instant::now(); }\n");
        assert_eq!(check_determinism(&time).len(), 1);

        let vec_iter = scan_source(
            "crates/kb/src/side.rs",
            "fn f(xs: &[u32]) { for x in xs.iter() { use_it(x); } }\n",
        );
        assert!(check_determinism(&vec_iter).is_empty(), "slice iteration is fine");
    }

    #[test]
    fn r4_sort_adjacent_is_exempt() {
        let src = "fn f(votes: FxHashMap<u32, usize>) -> Vec<(u32, usize)> {\n    let mut rows: Vec<(u32, usize)> = votes.into_iter().collect();\n    rows.sort_unstable_by_key(|&(k, _)| k);\n    rows\n}\n";
        let f = scan_source("crates/kb/src/side.rs", src);
        assert!(check_determinism(&f).is_empty(), "{:?}", check_determinism(&f));
    }

    #[test]
    fn r5_wire_literals_confined() {
        let bad =
            scan_source("crates/bench/tests/x.rs", "fn f(h: &str) { h.strip_prefix(\"OK \"); }\n");
        assert_eq!(check_wire_path(&bad).len(), 1);
        let ok_home = scan_source(WIRE_HOMES[0], "fn f(h: &str) { h.strip_prefix(\"OK \"); }\n");
        assert!(check_wire_path(&ok_home).is_empty());
        let serve_test = scan_source(
            "crates/serve/tests/net.rs",
            "fn f() { assert!(l.contains(\"link.v1\")); }\n",
        );
        assert!(check_wire_path(&serve_test).is_empty());
        let comment_only =
            scan_source("crates/bench/src/bin/serve.rs", "//! resolves jocl://|ckb:// URIs\n");
        assert!(check_wire_path(&comment_only).is_empty(), "doc comments are not wire code");
        let lowercase = scan_source("crates/bench/src/bin/serve.rs", "println!(\"SERVE ok\");\n");
        assert!(check_wire_path(&lowercase).is_empty());
    }
}
