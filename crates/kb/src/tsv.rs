//! Minimal TSV persistence for OKBs and CKBs.
//!
//! The approved offline dependency set has no serialization format crate,
//! so datasets are stored as escaped tab-separated values:
//!
//! * `\\`, `\t`, `\n` escape backslash, tab, newline inside fields;
//! * `\p` escapes the `|` list separator used for alias/type lists.
//!
//! Layout:
//!
//! * **OKB** — one file, 3 columns (`subject  predicate  object`) or 6
//!   when side information is attached (`…  subj_cands  obj_cands
//!   domain`, candidate lists comma-separated entity ids).
//! * **CKB** — a directory with `entities.tsv` (`name  aliases  types`),
//!   `relations.tsv` (`name  surfaces  category`), `facts.tsv`
//!   (`s  r  o` ids) and `anchors.tsv` (`surface  entity  count`).

use crate::ckb::{Ckb, CkbRelation, Entity, EntityId, RelationId};
use crate::error::KbError;
use crate::okb::{Okb, SideInfo, Triple};
use crate::side::SideKb;
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Escape a field for TSV embedding.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '|' => out.push_str("\\p"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]. Unknown escapes are an error.
pub fn unescape(s: &str, line: usize) -> Result<String, KbError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('p') => out.push('|'),
            other => {
                return Err(KbError::Parse {
                    line,
                    msg: format!(
                        "invalid escape sequence \\{}",
                        other.map(String::from).unwrap_or_default()
                    ),
                })
            }
        }
    }
    Ok(out)
}

fn split_fields(line: &str) -> Vec<&str> {
    line.split('\t').collect()
}

fn parse_u32(s: &str, line: usize, what: &str) -> Result<u32, KbError> {
    s.parse::<u32>().map_err(|_| KbError::Parse { line, msg: format!("invalid {what}: {s:?}") })
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, KbError> {
    s.parse::<u64>().map_err(|_| KbError::Parse { line, msg: format!("invalid {what}: {s:?}") })
}

fn join_list(items: &[String]) -> String {
    items.iter().map(|s| escape(s)).collect::<Vec<_>>().join("|")
}

fn split_list(field: &str, line: usize) -> Result<Vec<String>, KbError> {
    if field.is_empty() {
        return Ok(Vec::new());
    }
    field.split('|').map(|p| unescape(p, line)).collect()
}

fn join_ids(ids: &[EntityId]) -> String {
    ids.iter().map(|e| e.0.to_string()).collect::<Vec<_>>().join(",")
}

fn split_ids(field: &str, line: usize) -> Result<Vec<EntityId>, KbError> {
    if field.is_empty() {
        return Ok(Vec::new());
    }
    field.split(',').map(|p| parse_u32(p, line, "entity id").map(EntityId)).collect()
}

/// Write an OKB to a TSV file.
pub fn write_okb(okb: &Okb, path: &Path) -> Result<(), KbError> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    for (id, t) in okb.triples() {
        let base =
            format!("{}\t{}\t{}", escape(&t.subject), escape(&t.predicate), escape(&t.object));
        match okb.side_info(id) {
            Some(si) => writeln!(
                w,
                "{base}\t{}\t{}\t{}",
                join_ids(&si.subject_candidates),
                join_ids(&si.object_candidates),
                escape(&si.domain)
            )?,
            None => writeln!(w, "{base}")?,
        }
    }
    Ok(())
}

/// Read an OKB from a TSV file.
pub fn read_okb(path: &Path) -> Result<Okb, KbError> {
    let mut okb = Okb::new();
    let reader = BufReader::new(fs::File::open(path)?);
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        let fields = split_fields(&line);
        let triple = match fields.as_slice() {
            [s, p, o] | [s, p, o, ..] => Triple {
                subject: unescape(s, lineno)?,
                predicate: unescape(p, lineno)?,
                object: unescape(o, lineno)?,
            },
            _ => {
                return Err(KbError::Parse {
                    line: lineno,
                    msg: format!("expected 3 or 6 columns, got {}", fields.len()),
                })
            }
        };
        match fields.len() {
            3 => {
                okb.add_triple(triple);
            }
            6 => {
                let si = SideInfo {
                    subject_candidates: split_ids(fields[3], lineno)?,
                    object_candidates: split_ids(fields[4], lineno)?,
                    domain: unescape(fields[5], lineno)?,
                };
                okb.add_triple_with_side_info(triple, si);
            }
            n => {
                return Err(KbError::Parse {
                    line: lineno,
                    msg: format!("expected 3 or 6 columns, got {n}"),
                })
            }
        }
    }
    Ok(okb)
}

/// Write learned weight groups (e.g. factor-graph parameters) as TSV:
/// one line per group, first column the weight count, then the weights.
/// `f64` values are written with Rust's shortest-roundtrip formatting,
/// so [`read_weight_groups`] restores them bit-exactly. The file is
/// replaced atomically ([`crate::snap::write_atomic`]), so a crash
/// mid-save leaves the previous weights whole; failures name the file.
pub fn write_weight_groups(groups: &[Vec<f64>], path: &Path) -> Result<(), KbError> {
    let mut out = String::new();
    for g in groups {
        out.push_str(&g.len().to_string());
        for x in g {
            out.push('\t');
            out.push_str(&x.to_string());
        }
        out.push('\n');
    }
    crate::snap::write_atomic(path, out.as_bytes())
}

/// Read weight groups written by [`write_weight_groups`].
pub fn read_weight_groups(path: &Path) -> Result<Vec<Vec<f64>>, KbError> {
    let reader = BufReader::new(fs::File::open(path)?);
    let mut groups = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        let fields = split_fields(&line);
        let len = fields[0].parse::<usize>().map_err(|_| KbError::Parse {
            line: lineno,
            msg: format!("invalid weight count: {:?}", fields[0]),
        })?;
        if fields.len() != len + 1 {
            return Err(KbError::Parse {
                line: lineno,
                msg: format!("expected {} weights, got {}", len, fields.len() - 1),
            });
        }
        let weights = fields[1..]
            .iter()
            .map(|f| {
                let w = f.parse::<f64>().map_err(|_| KbError::Parse {
                    line: lineno,
                    msg: format!("invalid weight: {f:?}"),
                })?;
                // `f64::parse` accepts "inf"/"NaN"; a weight file holding
                // them is corrupt (training never persists non-finite
                // weights) and would otherwise poison every downstream
                // potential silently.
                if !w.is_finite() {
                    return Err(KbError::Parse {
                        line: lineno,
                        msg: format!("non-finite weight: {f:?}"),
                    });
                }
                Ok(w)
            })
            .collect::<Result<Vec<f64>, KbError>>()?;
        groups.push(weights);
    }
    Ok(groups)
}

/// Write a side-information table as TSV: one row per imported link,
/// 4 columns `kind  surface  target  weight` with kind `e` (entity) or
/// `r` (relation), in the table's canonical order. Weights use Rust's
/// shortest-roundtrip formatting, so [`read_side_kb`] restores them (and
/// the table's [`SideKb::fingerprint`]) bit-exactly.
pub fn write_side_kb(side: &SideKb, path: &Path) -> Result<(), KbError> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    for (kind, surface, target, weight) in side.canonical_rows() {
        writeln!(w, "{kind}\t{}\t{}\t{weight}", escape(surface), escape(target))?;
    }
    Ok(())
}

/// Read a side-information table written by [`write_side_kb`] (or by
/// hand — external alias dictionaries import through this). Every
/// malformed row is a typed per-line [`KbError::Parse`]: wrong column
/// count, unknown kind, blank surface/target, or a weight outside
/// `(0, 1]` (non-finite included).
pub fn read_side_kb(path: &Path) -> Result<SideKb, KbError> {
    let mut side = SideKb::new();
    let reader = BufReader::new(fs::File::open(path)?);
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f = split_fields(&line);
        if f.len() != 4 {
            return Err(KbError::Parse {
                line: lineno,
                msg: format!(
                    "side table expects 4 columns (kind surface target weight), got {}",
                    f.len()
                ),
            });
        }
        let surface = unescape(f[1], lineno)?;
        let target = unescape(f[2], lineno)?;
        if surface.trim().is_empty() || target.trim().is_empty() {
            return Err(KbError::Parse { line: lineno, msg: "blank surface or target".into() });
        }
        let weight = f[3].parse::<f64>().map_err(|_| KbError::Parse {
            line: lineno,
            msg: format!("invalid weight: {:?}", f[3]),
        })?;
        if !(weight.is_finite() && weight > 0.0 && weight <= 1.0) {
            return Err(KbError::Parse {
                line: lineno,
                msg: format!("weight must be in (0, 1], got {:?}", f[3]),
            });
        }
        match f[0] {
            "e" => side.add_entity_link(&surface, &target, weight),
            "r" => side.add_relation_link(&surface, &target, weight),
            other => {
                return Err(KbError::Parse {
                    line: lineno,
                    msg: format!("kind must be 'e' or 'r', got {other:?}"),
                })
            }
        };
    }
    Ok(side)
}

/// Write a CKB into a directory (created if absent).
pub fn write_ckb(ckb: &Ckb, dir: &Path) -> Result<(), KbError> {
    fs::create_dir_all(dir)?;
    let mut w = BufWriter::new(fs::File::create(dir.join("entities.tsv"))?);
    for (_, e) in ckb.entities() {
        writeln!(w, "{}\t{}\t{}", escape(&e.name), join_list(&e.aliases), join_list(&e.types))?;
    }
    let mut w = BufWriter::new(fs::File::create(dir.join("relations.tsv"))?);
    for (_, r) in ckb.relations() {
        writeln!(
            w,
            "{}\t{}\t{}",
            escape(&r.name),
            join_list(&r.surface_forms),
            escape(&r.category)
        )?;
    }
    let mut w = BufWriter::new(fs::File::create(dir.join("facts.tsv"))?);
    let mut facts: Vec<_> = ckb.facts().collect();
    facts.sort();
    for (s, r, o) in facts {
        writeln!(w, "{}\t{}\t{}", s.0, r.0, o.0)?;
    }
    let mut w = BufWriter::new(fs::File::create(dir.join("anchors.tsv"))?);
    let mut anchors: Vec<(String, EntityId, u64)> = Vec::new();
    for ((surface, entity), count) in ckb.raw_anchors() {
        anchors.push((surface.clone(), *entity, *count));
    }
    anchors.sort();
    for (surface, entity, count) in anchors {
        writeln!(w, "{}\t{}\t{}", escape(&surface), entity.0, count)?;
    }
    Ok(())
}

/// Read a CKB from a directory written by [`write_ckb`].
pub fn read_ckb(dir: &Path) -> Result<Ckb, KbError> {
    let mut ckb = Ckb::new();
    let reader = BufReader::new(fs::File::open(dir.join("entities.tsv"))?);
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        let f = split_fields(&line);
        if f.len() != 3 {
            return Err(KbError::Parse {
                line: lineno,
                msg: format!("entities.tsv expects 3 columns, got {}", f.len()),
            });
        }
        ckb.add_entity(Entity {
            name: unescape(f[0], lineno)?,
            aliases: split_list(f[1], lineno)?,
            types: split_list(f[2], lineno)?,
        });
    }
    let reader = BufReader::new(fs::File::open(dir.join("relations.tsv"))?);
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        let f = split_fields(&line);
        if f.len() != 3 {
            return Err(KbError::Parse {
                line: lineno,
                msg: format!("relations.tsv expects 3 columns, got {}", f.len()),
            });
        }
        ckb.add_relation(CkbRelation {
            name: unescape(f[0], lineno)?,
            surface_forms: split_list(f[1], lineno)?,
            category: unescape(f[2], lineno)?,
        });
    }
    let reader = BufReader::new(fs::File::open(dir.join("facts.tsv"))?);
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        let f = split_fields(&line);
        if f.len() != 3 {
            return Err(KbError::Parse {
                line: lineno,
                msg: format!("facts.tsv expects 3 columns, got {}", f.len()),
            });
        }
        let s = parse_u32(f[0], lineno, "entity id")?;
        let r = parse_u32(f[1], lineno, "relation id")?;
        let o = parse_u32(f[2], lineno, "entity id")?;
        if s as usize >= ckb.num_entities() || o as usize >= ckb.num_entities() {
            return Err(KbError::DanglingRef { kind: "entity", id: s.max(o) });
        }
        if r as usize >= ckb.num_relations() {
            return Err(KbError::DanglingRef { kind: "relation", id: r });
        }
        ckb.add_fact(EntityId(s), RelationId(r), EntityId(o));
    }
    let anchors_path = dir.join("anchors.tsv");
    if anchors_path.exists() {
        let reader = BufReader::new(fs::File::open(anchors_path)?);
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            let lineno = i + 1;
            if line.is_empty() {
                continue;
            }
            let f = split_fields(&line);
            if f.len() != 3 {
                return Err(KbError::Parse {
                    line: lineno,
                    msg: format!("anchors.tsv expects 3 columns, got {}", f.len()),
                });
            }
            let surface = unescape(f[0], lineno)?;
            let entity = parse_u32(f[1], lineno, "entity id")?;
            let count = parse_u64(f[2], lineno, "anchor count")?;
            if entity as usize >= ckb.num_entities() {
                return Err(KbError::DanglingRef { kind: "entity", id: entity });
            }
            ckb.add_anchor(&surface, EntityId(entity), count);
        }
    }
    Ok(ckb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip() {
        for s in ["plain", "tab\there", "line\nbreak", "back\\slash", "pipe|sep", ""] {
            assert_eq!(unescape(&escape(s), 1).unwrap(), s);
        }
    }

    #[test]
    fn invalid_escape_is_error() {
        assert!(unescape("bad\\q", 7).is_err());
        assert!(unescape("trailing\\", 7).is_err());
    }

    #[test]
    fn okb_roundtrip() {
        let dir = std::env::temp_dir().join(format!("jocl-kb-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut okb = Okb::new();
        okb.add_triple(Triple::new("UMD", "be a member of", "U21"));
        okb.add_triple_with_side_info(
            Triple::new("a|b", "has\ttab", "c"),
            SideInfo {
                subject_candidates: vec![EntityId(1), EntityId(3)],
                object_candidates: vec![],
                domain: "education".into(),
            },
        );
        let path = dir.join("okb.tsv");
        write_okb(&okb, &path).unwrap();
        let loaded = read_okb(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.triple(crate::TripleId(0)), okb.triple(crate::TripleId(0)));
        assert_eq!(loaded.triple(crate::TripleId(1)), okb.triple(crate::TripleId(1)));
        assert_eq!(loaded.side_info(crate::TripleId(1)), okb.side_info(crate::TripleId(1)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ckb_roundtrip() {
        let dir = std::env::temp_dir().join(format!("jocl-ckb-test-{}", std::process::id()));
        let mut ckb = Ckb::new();
        let a = ckb.add_entity(Entity {
            name: "university of maryland".into(),
            aliases: vec!["UMD".into(), "Univ|Maryland".into()],
            types: vec!["university".into()],
        });
        let b = ckb.add_entity(Entity {
            name: "universitas 21".into(),
            aliases: vec!["U21".into()],
            types: vec![],
        });
        let r = ckb.add_relation(CkbRelation {
            name: "member_of".into(),
            surface_forms: vec!["be a member of".into()],
            category: "membership".into(),
        });
        ckb.add_fact(a, r, b);
        ckb.add_anchor("umd", a, 12);
        write_ckb(&ckb, &dir).unwrap();
        let loaded = read_ckb(&dir).unwrap();
        assert_eq!(loaded.num_entities(), 2);
        assert_eq!(loaded.num_relations(), 1);
        assert_eq!(loaded.num_facts(), 1);
        assert!(loaded.has_fact(a, r, b));
        assert_eq!(loaded.entity(a).aliases[1], "Univ|Maryland");
        assert!((loaded.popularity("UMD", a) - 1.0).abs() < 1e-12);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_okb_reports_line() {
        let dir = std::env::temp_dir().join(format!("jocl-corrupt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.tsv");
        fs::write(&path, "good\tp\to\nonly_two\tcolumns\n").unwrap();
        let err = read_okb(&path).unwrap_err();
        match err {
            KbError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dangling_fact_reference_is_error() {
        let dir = std::env::temp_dir().join(format!("jocl-dangle-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("entities.tsv"), "e0\te0\t\n").unwrap();
        fs::write(dir.join("relations.tsv"), "r0\tr0\tcat\n").unwrap();
        fs::write(dir.join("facts.tsv"), "0\t0\t5\n").unwrap();
        let err = read_ckb(&dir).unwrap_err();
        assert!(matches!(err, KbError::DanglingRef { .. }), "{err:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_okb(Path::new("/nonexistent/never/okb.tsv")).unwrap_err();
        assert!(matches!(err, KbError::Io(_)));
    }

    #[test]
    fn weight_groups_roundtrip_bit_exact() {
        let dir = std::env::temp_dir().join(format!("jocl-weights-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.tsv");
        let groups = vec![vec![2.0, -1.0 / 3.0, 1.0e-308], vec![], vec![0.1 + 0.2, f64::MAX, -0.0]];
        write_weight_groups(&groups, &path).unwrap();
        let loaded = read_weight_groups(&path).unwrap();
        assert_eq!(loaded.len(), groups.len());
        for (a, b) in groups.iter().zip(&loaded) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn weight_groups_malformed_is_error() {
        let dir = std::env::temp_dir().join(format!("jocl-weights-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.tsv");
        fs::write(&path, "2\t1.0\n").unwrap(); // count says 2, only 1 weight
        assert!(matches!(read_weight_groups(&path), Err(KbError::Parse { line: 1, .. })));
        fs::write(&path, "1\tnot-a-number\n").unwrap();
        assert!(read_weight_groups(&path).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn side_kb_roundtrip_preserves_fingerprint() {
        let dir = std::env::temp_dir().join(format!("jocl-side-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("side.tsv");
        let mut side = SideKb::new();
        side.add_entity_link("UMD", "University of Maryland", 0.9);
        side.add_entity_link("pipe|alias", "tab\tname", 1.0 / 3.0);
        side.add_relation_link("be part of", "member_of", 1.0);
        write_side_kb(&side, &path).unwrap();
        let loaded = read_side_kb(&path).unwrap();
        assert_eq!(loaded.num_entity_links(), 2);
        assert_eq!(loaded.num_relation_links(), 1);
        assert_eq!(loaded.fingerprint(), side.fingerprint(), "bit-exact roundtrip");
        assert_eq!(loaded.entity_links("umd")[0].weight, 0.9);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn side_kb_malformed_rows_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("jocl-side-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.tsv");
        for (bad, what) in [
            ("e\tumd\tuniversity of maryland\n", "3 columns"),
            ("x\tumd\tu\t0.5\n", "unknown kind"),
            ("e\t \tu\t0.5\n", "blank surface"),
            ("e\tumd\tu\tlots\n", "non-numeric weight"),
            ("e\tumd\tu\t0\n", "zero weight"),
            ("e\tumd\tu\t1.5\n", "out-of-range weight"),
            ("e\tumd\tu\tNaN\n", "non-finite weight"),
            ("e\tbad\\q\tu\t0.5\n", "invalid escape"),
        ] {
            fs::write(&path, format!("e\tok\tfine\t0.5\n{bad}")).unwrap();
            match read_side_kb(&path) {
                Err(KbError::Parse { line, .. }) => assert_eq!(line, 2, "{what}"),
                other => panic!("{what}: expected line-2 parse error, got {other:?}"),
            }
        }
        // Comments and blank lines are fine.
        fs::write(&path, "# alias dictionary\n\ne\tumd\tuniversity of maryland\t0.9\n").unwrap();
        assert_eq!(read_side_kb(&path).unwrap().num_entity_links(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn weight_groups_non_finite_is_error() {
        // `f64::parse` happily produces inf/NaN — a weight file holding
        // them must be rejected with a typed parse error, not loaded as
        // garbage.
        let dir = std::env::temp_dir().join(format!("jocl-weights-inf-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inf.tsv");
        for bad in ["1\tinf\n", "1\t-inf\n", "1\tNaN\n", "2\t0.5\tnan\n"] {
            fs::write(&path, bad).unwrap();
            assert!(
                matches!(read_weight_groups(&path), Err(KbError::Parse { line: 1, .. })),
                "{bad:?} must be a parse error"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }
}
