//! Learned-weight persistence (ROADMAP "learned-weight persistence").
//!
//! Weight learning is the slowest optional stage of a JOCL run (each
//! epoch is a clamped + a free LBP pass). Serving deployments run the
//! same OKB/CKB configuration repeatedly, so the learned [`Params`] can
//! be written once with [`save_params`] and injected into later runs via
//! [`crate::JoclConfig::pretrained_params`], skipping training entirely.
//!
//! Storage uses the `jocl_kb::tsv` weight codec: one line per parameter
//! group, `f64`s in shortest-roundtrip decimal, so a save/load cycle is
//! bit-exact.

use jocl_fg::Params;
use jocl_kb::tsv::{read_weight_groups, write_weight_groups};
use jocl_kb::KbError;
use std::path::Path;

/// Save learned parameters as TSV (one group per line), replacing any
/// previous file atomically. Failures are wrapped with the target path
/// ([`KbError::WithPath`]).
pub fn save_params(params: &Params, path: &Path) -> Result<(), KbError> {
    write_weight_groups(params.groups(), path)
}

/// Load parameters written by [`save_params`]; bit-exact roundtrip.
///
/// I/O and parse failures are wrapped with the file path
/// ([`KbError::WithPath`]): a serving deployment pointing
/// `JoclConfig::pretrained_params` at a stale or truncated weight file
/// gets an error naming the file, not a bare line number.
pub fn load_params(path: &Path) -> Result<Params, KbError> {
    Ok(Params::from_groups(read_weight_groups(path).map_err(|e| e.with_path(path))?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_roundtrip_bit_exact() {
        let dir = std::env::temp_dir().join(format!("jocl-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.tsv");
        let mut params = Params::new();
        params.add_group_with(vec![2.0, 0.1 + 0.2, -1.75e-19]);
        params.add_group(1, 0.05);
        save_params(&params, &path).unwrap();
        let loaded = load_params(&path).unwrap();
        assert_eq!(loaded.num_groups(), params.num_groups());
        for g in 0..params.num_groups() {
            let (a, b) = (params.group(g), loaded.group(g));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Saving over an existing weight file replaces it through a temp
    /// file and a rename: no `tmp-` sibling is left behind, and the new
    /// weights load back bit for bit.
    #[test]
    fn save_over_existing_weights_is_atomic() {
        let dir = std::env::temp_dir().join(format!("jocl-persist-over-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weights.tsv");
        let mut old = Params::new();
        old.add_group_with(vec![1.0, 2.0, 3.0, 4.0]);
        save_params(&old, &path).unwrap();
        let mut new = Params::new();
        new.add_group_with(vec![0.1 + 0.2, -0.0]);
        new.add_group(2, 1e-300);
        save_params(&new, &path).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["weights.tsv"], "no tmp- sibling survives the save");
        let loaded = load_params(&path).unwrap();
        let bits = |p: &Params| -> Vec<Vec<u64>> {
            (0..p.num_groups()).map(|g| p.group(g).iter().map(|x| x.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&loaded), bits(&new));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (satellite of the residual-scheduling PR): a truncated
    /// or non-numeric weight file must surface as a typed [`KbError`] from
    /// [`load_params`], never a panic or silently-garbage [`Params`].
    #[test]
    fn load_params_rejects_truncated_and_non_numeric_files() {
        use jocl_kb::KbError;

        let dir = std::env::temp_dir().join(format!("jocl-persist-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.tsv");
        let cases: &[(&str, &str)] = &[
            // Truncated mid-line: the count column promises more weights
            // than the line holds (e.g. a partial write / partial copy).
            ("3\t0.5\t0.25\n", "truncated line"),
            // Truncated mid-number leaving a bare count.
            ("2\t0.5\t\n", "empty weight field"),
            // Non-numeric garbage where a weight should be.
            ("1\tpotato\n", "non-numeric weight"),
            // Parseable but non-finite: f64::parse accepts these.
            ("1\tinf\n", "infinite weight"),
            ("1\tNaN\n", "NaN weight"),
            // Garbage count column (e.g. the file is not a weight file).
            ("weights\t1.0\n", "non-numeric count"),
        ];
        for (contents, what) in cases {
            std::fs::write(&path, contents).unwrap();
            match load_params(&path) {
                Err(KbError::WithPath { path: p, source })
                    if matches!(*source, KbError::Parse { line: 1, .. }) =>
                {
                    assert_eq!(p, path.display().to_string(), "{what}");
                }
                other => {
                    panic!("{what}: expected path-wrapped Parse error at line 1, got {other:?}")
                }
            }
        }
        // Missing file stays a typed I/O error, wrapped with the path.
        let missing = dir.join("nonexistent.tsv");
        assert!(matches!(
            load_params(&missing),
            Err(KbError::WithPath { ref source, .. }) if matches!(**source, KbError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite regression: the error *message* of a failed load names
    /// the offending file — the thing an operator greps for.
    #[test]
    fn load_params_errors_name_the_file() {
        let dir = std::env::temp_dir().join(format!("jocl-persist-path-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serving-weights.tsv");
        std::fs::write(&path, "1\tpotato\n").unwrap();
        let msg = load_params(&path).unwrap_err().to_string();
        assert!(msg.contains("serving-weights.tsv"), "parse error must name the file: {msg}");
        assert!(msg.contains("line 1"), "inner parse context must survive: {msg}");
        let missing = dir.join("missing.tsv");
        let msg = load_params(&missing).unwrap_err().to_string();
        assert!(msg.contains("missing.tsv"), "i/o error must name the file: {msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end: train on the figure-1 example, persist, rerun with the
    /// loaded weights — training is skipped and the output is identical.
    #[test]
    fn pretrained_params_skip_training() {
        use crate::example::figure1;
        use crate::pipeline::{Jocl, ValidationLabels};
        use jocl_kb::{NpMention, NpSlot, RpMention, TripleId};

        let dir = std::env::temp_dir().join(format!("jocl-pretrain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("learned.tsv");

        let ex = figure1();
        // Gold links of Figure 1(a) as sparse validation labels.
        let mut labels = ValidationLabels::empty(&ex.okb);
        let golds = [
            (0u32, NpSlot::Subject, ex.e_umd),
            (1, NpSlot::Subject, ex.e_umd),
            (2, NpSlot::Subject, ex.e_uva),
            (0, NpSlot::Object, ex.e_maryland),
            (1, NpSlot::Object, ex.e_u21),
            (2, NpSlot::Object, ex.e_u21),
        ];
        for (t, slot, e) in golds {
            labels.np_entity[NpMention { triple: TripleId(t), slot }.dense()] = Some(e);
        }
        labels.rp_relation[RpMention(TripleId(0)).dense()] = Some(ex.r_location);
        labels.rp_relation[RpMention(TripleId(1)).dense()] = Some(ex.r_member);
        labels.rp_relation[RpMention(TripleId(2)).dense()] = Some(ex.r_member);

        let mut train_config = ex.config();
        train_config.train_epochs = 3;
        let trained = Jocl::new(train_config).run(ex.input(), Some(&labels));
        assert!(trained.diagnostics.train_epochs > 0, "fixture must actually train");
        let learned = trained.learned_params.as_ref().expect("pipeline attaches params");
        save_params(learned, &path).unwrap();

        let mut serve_config = ex.config();
        serve_config.train_epochs = 3; // would train, but pretrained wins
        serve_config.pretrained_params = Some(load_params(&path).unwrap());
        let served = Jocl::new(serve_config).run(ex.input(), Some(&labels));
        assert_eq!(served.diagnostics.train_epochs, 0, "pretrained run must skip training");
        assert_eq!(served.np_links, trained.np_links);
        assert_eq!(served.rp_links, trained.rp_links);
        std::fs::remove_dir_all(&dir).ok();
    }
}
