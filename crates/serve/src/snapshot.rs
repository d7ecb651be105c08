//! Snapshot files: the durable envelope around
//! [`IncrementalJocl::export_state`].
//!
//! ```text
//! ┌──────────────────────────────┐
//! │ magic  "JOCLSNP3"            │  8 bytes — format + version in one
//! │ payload length (u64)         │
//! │ FNV-1a of payload (u64)      │  torn/corrupt writes fail loudly
//! ├──────────────────────────────┤  payload:
//! │ config fingerprint section   │  named scalars, checked field by field
//! │ session state                │  IncrementalJocl::export_state bytes
//! └──────────────────────────────┘
//! ```
//!
//! The file is one sealed record of the shared durable layout
//! ([`jocl_kb::snap::seal`]), written through
//! [`jocl_kb::snap::write_atomic`]; the checksum covers the fingerprint
//! as well as the session state.
//!
//! Restore failures are **operational** errors: every one is a typed
//! [`KbError`] at a file offset, wrapped with the offending file's path
//! ([`KbError::WithPath`], the same pattern `jocl_core::persist` uses
//! for weight files), so an operator greps the path out of the error —
//! never a panic, never silently wrong state. The config fingerprint
//! pins every scalar that changes inference or decode (variant,
//! features, blocking caps, LBP tolerances, candidate options…); thread
//! counts are deliberately excluded — results are thread-invariant, and
//! restoring on a box with different parallelism is the point of the
//! exercise.

use jocl_core::{IncrementalJocl, JoclConfig, Signals};
use jocl_kb::snap::{fnv1a, seal, unseal, write_atomic, SnapWriter};
use jocl_kb::{Ckb, KbError};
use std::path::Path;

/// File magic; the trailing digit is the format version.
const MAGIC: &[u8; 8] = b"JOCLSNP3";

/// The config scalars a snapshot is only valid under, as named values.
/// Floats are fingerprinted by bit pattern: "almost the same tolerance"
/// is not the same fixed point.
fn fingerprint(config: &JoclConfig) -> Vec<(&'static str, u64)> {
    let variant = match config.variant {
        jocl_core::Variant::Full => 0u64,
        jocl_core::Variant::CanoOnly => 1,
        jocl_core::Variant::LinkOnly => 2,
        jocl_core::Variant::NoConsistency => 3,
    };
    let features = match config.features {
        jocl_core::FeatureSet::Single => 0u64,
        jocl_core::FeatureSet::Double => 1,
        jocl_core::FeatureSet::All => 2,
    };
    let mode = match config.lbp.mode {
        jocl_core::ScheduleMode::Synchronous => 0u64,
        jocl_core::ScheduleMode::Residual => 1,
    };
    // Weights are part of the configuration a session is only valid
    // under: the snapshot carries the *active* params, but a later
    // compaction rebuilds the session from `config.pretrained_params` —
    // restoring under different weights must fail at restore time, not
    // silently switch weight sets at the next compaction.
    let pretrained = match &config.pretrained_params {
        None => 0u64,
        Some(p) => {
            let mut w = SnapWriter::new();
            w.usize(p.num_groups());
            for g in 0..p.num_groups() {
                w.f64_slice(p.group(g));
            }
            fnv1a(&w.into_bytes())
        }
    };
    vec![
        ("variant", variant),
        ("features", features),
        ("pretrained_params", pretrained),
        ("blocking_threshold", config.blocking_threshold.to_bits()),
        ("max_triangles", config.max_triangles as u64),
        ("max_group_clique", config.max_group_clique as u64),
        ("cross_cap", config.cross_cap as u64),
        ("merge_by_link", u64::from(config.merge_by_link)),
        ("lbp_max_iters", config.lbp.max_iters as u64),
        ("lbp_tol", config.lbp.tol.to_bits()),
        ("lbp_damping", config.lbp.damping.to_bits()),
        ("lbp_mode", mode),
        ("top_k_entities", config.candidates.top_k_entities as u64),
        ("top_k_relations", config.candidates.top_k_relations as u64),
        ("cand_min_score", config.candidates.min_score.to_bits()),
        ("cand_lexical_weight", config.candidates.lexical_weight.to_bits()),
        // The committed-message representation is part of the wire
        // format: a quantized arena cannot restore into an exact
        // session (or vice versa), so mismatches must fail at the
        // envelope, naming the field, not deep in the MSG section.
        (
            "message_store",
            match config.message_store {
                jocl_fg::MessageStore::Exact => 0u64,
                jocl_fg::MessageStore::Quantized => 1,
            },
        ),
        // The imported side table shapes the factor graph itself (extra
        // S1/S2 potentials, appended candidates), so a session is only
        // valid under the exact table it was built with. `None` and an
        // empty table are the same inert configuration — both pin 0.
        (
            "side_info",
            match &config.side_info {
                Some(s) if !s.is_empty() => s.fingerprint(),
                _ => 0,
            },
        ),
    ]
}

/// Serialize a session into snapshot-file bytes (one sealed record).
pub fn session_to_bytes(session: &mut IncrementalJocl<'_>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.tag("FPRT");
    let fp = fingerprint(session.config());
    w.usize(fp.len());
    for (name, value) in fp {
        w.str(name);
        w.u64(value);
    }
    session.export_state_to(&mut w);
    seal(MAGIC, &w.into_bytes())
}

/// Rebuild a session from snapshot-file bytes under `config`.
pub fn session_from_bytes<'a>(
    bytes: &[u8],
    config: JoclConfig,
    ckb: &'a Ckb,
    signals: &'a Signals,
) -> Result<IncrementalJocl<'a>, KbError> {
    let mut r = unseal(bytes, MAGIC)?;
    r.expect_tag("FPRT")?;
    let expected = fingerprint(&config);
    let n = r.seq_len(16)?;
    if n != expected.len() {
        return Err(r.corrupt(format!(
            "fingerprint has {n} fields, this build expects {}",
            expected.len()
        )));
    }
    for (name, value) in &expected {
        let got_name = r.str()?;
        let got_value = r.u64()?;
        if got_name != *name {
            return Err(
                r.corrupt(format!("fingerprint field {got_name:?} where {name:?} was expected"))
            );
        }
        if got_value != *value {
            return Err(r.corrupt(format!(
                "config mismatch on {name}: snapshot has {got_value}, the supplied config has \
                 {value} — restore under the configuration the session was running"
            )));
        }
    }
    IncrementalJocl::import_state(&mut r, config, ckb, signals)
}

/// Write a session snapshot to `path` atomically
/// ([`jocl_kb::snap::write_atomic`]). Returns the byte size. Failures
/// name the file.
pub fn save_session(session: &mut IncrementalJocl<'_>, path: &Path) -> Result<u64, KbError> {
    let bytes = session_to_bytes(session);
    write_atomic(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Read a session snapshot from `path`. Every failure — I/O, bad magic,
/// fingerprint mismatch, checksum, payload corruption — is wrapped with
/// the file path.
pub fn load_session<'a>(
    path: &Path,
    config: JoclConfig,
    ckb: &'a Ckb,
    signals: &'a Signals,
) -> Result<IncrementalJocl<'a>, KbError> {
    let bytes = std::fs::read(path).map_err(|e| KbError::from(e).with_path(path))?;
    session_from_bytes(&bytes, config, ckb, signals).map_err(|e| e.with_path(path))
}
